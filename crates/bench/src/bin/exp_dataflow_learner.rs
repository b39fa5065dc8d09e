//! E20: the latency-modelled TCP scenario across sift strategies and
//! engine shapes — dataflow, wavefront and serial sifting at 1 worker × 64
//! in-flight sessions, dataflow and wavefront at 1 × 16, and blocking
//! wavefront workers at 1 × 1 and 4 × 1, each learned once.
//!
//! The library asserts every engine gate on those runs, so this binary
//! doubles as the CI smoke test: bit-identical models with identical
//! `fresh_symbols` and equivalence-test counts across every shape,
//! `membership_queries` ≤ serial, exact speculation-word accounting,
//! dataflow pool-window occupancy ≥ 0.9 through hypothesis construction
//! and an end-to-end virtual-time win over the wavefront, wavefront
//! construction ≥ 4× faster than serial and > 0.5 occupied at 16 slots,
//! and 1 × 64 dataflow throughput ≥ 40× one blocking worker and above four.
//! While it grinds, a one-line status repaints per shape, driven by
//! `bench:stage` events through the shared event sink (TTY only).  Records
//! the `dataflow_learner` scenario in `BENCH_learning.json` in the current
//! directory.
use prognosis_campaign::{Progress, ProgressSink};
use prognosis_events::EventSink;
use std::sync::Arc;

fn main() -> Result<(), String> {
    let progress = Arc::new(ProgressSink::stages(Progress::stdout()));
    let (report, scenario) =
        prognosis_bench::exp_dataflow_learner(Some(Arc::clone(&progress) as Arc<dyn EventSink>));
    progress.finish();
    println!("{report}");
    prognosis_bench::record_scenario("dataflow_learner", scenario)
}
