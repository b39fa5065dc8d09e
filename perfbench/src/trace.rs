//! In-memory span recording and self-time attribution.
//!
//! A span is one call across a layer boundary: which layer was entered,
//! through which operation, when it started and ended, which span was
//! open when it began (its parent), and which learn or campaign item it
//! belongs to.  A layer's self time is its spans' durations minus the part
//! of each interval that the span's direct children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// One recorded call across a layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer the call entered (`learn`, `learner`, `cache`, `engine`).
    pub layer: &'static str,
    /// The operation (`query_batch`, `submit_queries`, `spawn`, ...).
    pub op: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The learn or campaign item the span belongs to.
    pub item: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans of one thread's call stack.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: u32,
}

/// The recorder handle the wrappers of one traced stack share.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
        }))
    }

    /// Tags subsequently opened spans with `item`.
    pub fn set_item(&mut self, item: u32) {
        self.item = item;
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn enter(&mut self, layer: &'static str, op: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            op,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            item: self.item,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in stack order");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        recorder: &SharedRecorder,
        layer: &'static str,
        op: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = recorder.borrow_mut().enter(layer, op);
        let out = f();
        recorder.borrow_mut().exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the measure of the union
/// of its direct children's intervals, clipped to its own interval.
/// Overlapping children (work of several threads under one parent) count
/// once; grandchildren are already inside their parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            span.duration_ns()
                .saturating_sub(covered_ns(span.start_ns, span.end_ns, kids))
        })
        .collect()
}

/// Measure of the union of `intervals` within `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-layer totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Sums span counts, durations and self times per layer.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = totals.entry(span.layer).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    totals
}

/// Writes spans as CSV (`id,layer,op,start_ns,end_ns,parent,item`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,layer,op,start_ns,end_ns,parent,item")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{id},{},{},{},{},{parent},{}",
            s.layer, s.op, s.start_ns, s.end_ns, s.item
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            op: "op",
            start_ns,
            end_ns,
            parent,
            item: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("learn", 0, 100, None),
            span("cache", 10, 60, Some(0)),
            span("engine", 20, 50, Some(1)),
            span("cache", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let totals = layer_totals(&spans);
        assert_eq!(totals["cache"].calls, 2);
        assert_eq!(totals["cache"].total_ns, 60);
        assert_eq!(totals["cache"].self_ns, 30);
        assert_eq!(totals["engine"].self_ns, 30);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = [
            span("campaign", 0, 100, None),
            span("task", 10, 50, Some(0)),
            span("task", 30, 70, Some(0)),
            span("task", 40, 45, Some(0)),
        ];
        // Children cover 10..70 = 60 of the parent's 100.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("learn", 10, 50, None),
            span("cache", 0, 20, Some(0)),
            span("cache", 45, 90, Some(0)),
        ];
        // Only 10..20 and 45..50 lie inside the parent.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn recorder_nests_spans_in_call_order() {
        let recorder = Recorder::shared();
        recorder.borrow_mut().set_item(7);
        Recorder::within(&recorder, "learn", "learn", || {
            Recorder::within(&recorder, "cache", "query", || {
                Recorder::within(&recorder, "engine", "query", || ())
            });
            Recorder::within(&recorder, "cache", "query", || ());
        });
        let r = recorder.borrow();
        let spans = r.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(spans.iter().all(|s| s.item == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }
}
