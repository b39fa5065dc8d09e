//! Benchmark-owned wrappers that observe the stack from outside, at its
//! public layer boundaries: a span-recording [`MembershipOracle`], a
//! counting [`Sul`]/[`SulFactory`], and an observing [`EventSink`].

use crate::trace::SharedRecorder;
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_core::session::{SessionSulFactory, SimTime, TimedSession, TimedSul};
use prognosis_core::sul::{Sul, SulFactory, SulStats};
use prognosis_events::{Event, EventSink};
use prognosis_learner::oracle::{
    AsyncAnswer, AsyncQuery, CancelOutcome, MembershipOracle, QueryPhase,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Forwards every [`MembershipOracle`] method to `inner`, recording one
/// span per call under `layer` — the layer the call enters.
pub struct TracedOracle<O> {
    inner: O,
    layer: &'static str,
    recorder: SharedRecorder,
}

impl<O> TracedOracle<O> {
    /// Wraps `inner`; calls through the wrapper are spans of `layer`.
    pub fn new(inner: O, layer: &'static str, recorder: SharedRecorder) -> Self {
        TracedOracle {
            inner,
            layer,
            recorder,
        }
    }

    /// Unwraps the oracle.
    pub fn into_inner(self) -> O {
        self.inner
    }

    fn span<T>(&mut self, op: &'static str, f: impl FnOnce(&mut O) -> T) -> T {
        let id = self.recorder.borrow_mut().enter(self.layer, op);
        let out = f(&mut self.inner);
        self.recorder.borrow_mut().exit(id);
        out
    }
}

impl<O: MembershipOracle> MembershipOracle for TracedOracle<O> {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.span("query", |o| o.query(input))
    }

    fn query_batch(&mut self, inputs: &[InputWord]) -> Vec<OutputWord> {
        self.span("query_batch", |o| o.query_batch(inputs))
    }

    fn query_batch_shared(&mut self, inputs: &[Arc<InputWord>]) -> Vec<OutputWord> {
        self.span("query_batch_shared", |o| o.query_batch_shared(inputs))
    }

    fn queries_answered(&self) -> u64 {
        self.inner.queries_answered()
    }

    fn note_phase(&mut self, phase: QueryPhase) {
        self.span("note_phase", |o| o.note_phase(phase))
    }

    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        self.span("submit_queries", |o| o.submit_queries(queries))
    }

    fn poll_answers(&mut self, wait: bool) -> Vec<AsyncAnswer> {
        self.span("poll_answers", |o| o.poll_answers(wait))
    }

    fn cancel_queries(&mut self, tickets: &[u64]) -> CancelOutcome {
        self.span("cancel_queries", |o| o.cancel_queries(tickets))
    }

    fn commit_queries(&mut self, tickets: &[u64]) {
        self.span("commit_queries", |o| o.commit_queries(tickets))
    }

    fn outstanding_queries(&self) -> u64 {
        let id = self
            .recorder
            .borrow_mut()
            .enter(self.layer, "outstanding_queries");
        let out = self.inner.outstanding_queries();
        self.recorder.borrow_mut().exit(id);
        out
    }
}

/// SUL call counts and busy time, summed over every SUL a factory mints
/// (and so over every engine thread).
#[derive(Debug, Default)]
pub struct SulCounters {
    steps: AtomicU64,
    resets: AtomicU64,
    step_ns: AtomicU64,
    reset_ns: AtomicU64,
}

/// A snapshot of [`SulCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SulTotals {
    /// `step` calls.
    pub steps: u64,
    /// `reset` calls.
    pub resets: u64,
    /// Nanoseconds inside `step`.
    pub step_ns: u64,
    /// Nanoseconds inside `reset`.
    pub reset_ns: u64,
}

impl SulCounters {
    /// The counts so far.
    pub fn totals(&self) -> SulTotals {
        // Relaxed: plain statistics, read after the engine threads joined.
        SulTotals {
            steps: self.steps.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            step_ns: self.step_ns.load(Ordering::Relaxed),
            reset_ns: self.reset_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, is_step: bool, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let (count, busy) = if is_step {
            (&self.steps, &self.step_ns)
        } else {
            (&self.resets, &self.reset_ns)
        };
        count.fetch_add(1, Ordering::Relaxed);
        busy.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

/// A SUL whose `step`/`reset` calls (blocking or timed) are counted and
/// timed into shared [`SulCounters`].
pub struct CountingSul<S> {
    inner: S,
    counters: Arc<SulCounters>,
}

impl<S: Sul> Sul for CountingSul<S> {
    fn step(&mut self, input: &Symbol) -> Symbol {
        let inner = &mut self.inner;
        self.counters.timed(true, || inner.step(input))
    }

    fn reset(&mut self) {
        let inner = &mut self.inner;
        self.counters.timed(false, || inner.reset())
    }

    fn stats(&self) -> SulStats {
        self.inner.stats()
    }

    fn cache_key(&self) -> Option<String> {
        self.inner.cache_key()
    }
}

impl<S: TimedSul> TimedSul for CountingSul<S> {
    fn step_at(&mut self, input: &Symbol, now: SimTime) -> (Symbol, SimTime) {
        let inner = &mut self.inner;
        self.counters.timed(true, || inner.step_at(input, now))
    }

    fn reset_at(&mut self, now: SimTime) -> SimTime {
        let inner = &mut self.inner;
        self.counters.timed(false, || inner.reset_at(now))
    }
}

/// Mints [`CountingSul`]s around an inner factory's SULs.  As a
/// [`SessionSulFactory`] it uses the same deadline-based session the inner
/// factories use, so the engine runs the same code path.
pub struct CountingFactory<F> {
    inner: F,
    counters: Arc<SulCounters>,
}

impl<F> CountingFactory<F> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: F) -> Self {
        CountingFactory {
            inner,
            counters: Arc::new(SulCounters::default()),
        }
    }

    /// The counters every minted SUL reports into.
    pub fn counters(&self) -> Arc<SulCounters> {
        Arc::clone(&self.counters)
    }
}

impl<F: SulFactory> SulFactory for CountingFactory<F> {
    type Sul = CountingSul<F::Sul>;

    fn create(&self) -> Self::Sul {
        CountingSul {
            inner: self.inner.create(),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<F: SulFactory> SessionSulFactory for CountingFactory<F>
where
    F::Sul: TimedSul,
{
    type Session = TimedSession<CountingSul<F::Sul>>;

    fn create_session(&self) -> Self::Session {
        TimedSession::new(self.create())
    }
}

/// A campaign task as seen by [`ObservedSink`]: stamped on receipt of its
/// `task:start`, `task:done` and (for learns) `lease:acquire` events.
#[derive(Clone, Debug, Default)]
pub struct TaskSpan {
    /// Task id (`learn:<cell>`, `diff:...`, `check:...`, `report`).
    pub id: String,
    /// Nanoseconds since the sink's origin.
    pub start_ns: u64,
    /// Nanoseconds since the sink's origin (`None` while running).
    pub end_ns: Option<u64>,
    /// When the task's engine lease was granted.
    pub lease_ns: Option<u64>,
    /// `wire:send` events while the task ran.
    pub packets_sent: u64,
    /// Payload bytes of those sends.
    pub bytes_sent: u64,
    /// `wire:drop` events while the task ran.
    pub packets_dropped: u64,
    /// `wire:dup` events while the task ran.
    pub packets_duplicated: u64,
}

impl TaskSpan {
    /// Wall seconds from start to done.
    pub fn seconds(&self) -> f64 {
        self.end_ns
            .map_or(0.0, |end| end.saturating_sub(self.start_ns) as f64 * 1e-9)
    }
}

/// Forwards every event to `inner` and observes the stream on the way:
/// campaign task spans always (they are rare), and — with tracing on —
/// wire packet fates per task plus the time spent inside `inner.emit`.
pub struct ObservedSink {
    inner: Arc<dyn EventSink>,
    origin: Instant,
    traced: AtomicBool,
    emitted: AtomicU64,
    emit_ns: AtomicU64,
    tasks: Mutex<Vec<TaskSpan>>,
}

impl ObservedSink {
    /// Observes events on their way to `inner`.
    pub fn new(inner: Arc<dyn EventSink>, traced: bool) -> Self {
        ObservedSink {
            inner,
            origin: Instant::now(),
            traced: AtomicBool::new(traced),
            emitted: AtomicU64::new(0),
            emit_ns: AtomicU64::new(0),
            tasks: Mutex::new(Vec::new()),
        }
    }

    /// Events forwarded so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent inside the inner sink's `emit` (tracing only).
    pub fn emit_ns(&self) -> u64 {
        self.emit_ns.load(Ordering::Relaxed)
    }

    /// Switches per-event tracing on or off.
    pub fn set_traced(&self, traced: bool) {
        self.traced.store(traced, Ordering::Relaxed);
    }

    fn traced(&self) -> bool {
        self.traced.load(Ordering::Relaxed)
    }

    /// Takes the task spans recorded since the last call.
    pub fn take_tasks(&self) -> Vec<TaskSpan> {
        std::mem::take(&mut *self.tasks.lock().expect("task spans poisoned"))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn observe(&self, event: &Event) {
        let wire = matches!(
            event,
            Event::WireSend { .. } | Event::WireDrop { .. } | Event::WireDuplicate { .. }
        );
        let task = matches!(
            event,
            Event::TaskStart { .. } | Event::TaskDone { .. } | Event::LeaseAcquire { .. }
        );
        if !(task || (wire && self.traced())) {
            return;
        }
        let now = self.now_ns();
        let mut tasks = self.tasks.lock().expect("task spans poisoned");
        // The campaign runs one task worker, so the open task is the last
        // started one that has not finished.
        let running = tasks.iter_mut().rev().find(|t| t.end_ns.is_none());
        match (event, running) {
            (Event::TaskStart { id }, _) => tasks.push(TaskSpan {
                id: id.clone(),
                start_ns: now,
                ..TaskSpan::default()
            }),
            (Event::TaskDone { id, .. }, _) => {
                if let Some(t) = tasks.iter_mut().rev().find(|t| &t.id == id) {
                    t.end_ns = Some(now);
                }
            }
            (Event::LeaseAcquire { .. }, Some(t)) if t.lease_ns.is_none() => {
                t.lease_ns = Some(now);
            }
            (Event::WireSend { bytes, .. }, Some(t)) => {
                t.packets_sent += 1;
                t.bytes_sent += bytes;
            }
            (Event::WireDrop { .. }, Some(t)) => t.packets_dropped += 1,
            (Event::WireDuplicate { .. }, Some(t)) => t.packets_duplicated += 1,
            _ => {}
        }
    }
}

impl EventSink for ObservedSink {
    fn emit(&self, event: &Event) {
        self.observe(event);
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if self.traced() {
            let start = Instant::now();
            self.inner.emit(event);
            self.emit_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        } else {
            self.inner.emit(event);
        }
    }

    fn flush(&self) {
        self.inner.flush();
    }
}
