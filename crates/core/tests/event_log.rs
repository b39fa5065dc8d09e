//! Determinism of the deterministic event stream: with diagnostics off,
//! the JSONL event log a learning run emits is a pure function of the
//! scenario — for any `(workers, max_inflight)` the serialized stream
//! must come back **byte-identical** to the (1 worker, 1 session)
//! reference.  Deterministic events carry only query-relative virtual
//! time and learner-order sequence numbers, and scoped staging commits
//! them in learner order, so the engine shape can move wall-clock
//! scheduling but never a single byte of the log.  The impaired-link
//! grid additionally pins the per-packet wire events (send / deliver /
//! drop / duplicate fates) across shapes, and the dataflow grid pins the
//! async path: sift-continuation and speculative-equivalence scopes
//! flush through the submission-order frontier, so even overlapped
//! phases and rolled-back speculation leave an identical stream.

use prognosis_core::latency::LatencySulFactory;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{Learn, LearnConfig, SiftStrategy};
use prognosis_core::session::{SessionSulFactory, SimDuration};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_events::{EventSink, MemorySink};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn engine_config() -> LearnConfig {
    LearnConfig {
        random_tests: 150,
        max_word_len: 6,
        eq_batch_size: 128,
        ..LearnConfig::default()
    }
}

/// Runs the scenario at the given engine shape with a memory sink and
/// diagnostics off, returning the serialized deterministic stream.
fn log_at<F>(factory: &F, workers: usize, max_inflight: usize, sift: SiftStrategy) -> String
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let sink = Arc::new(MemorySink::new());
    Learn::new(
        engine_config()
            .with_workers(workers)
            .with_max_inflight(max_inflight)
            .with_sift(sift),
    )
    .with_events(Arc::clone(&sink) as Arc<dyn EventSink>, false)
    .run(factory, &tcp_alphabet())
    .expect("parallel learning succeeds");
    sink.contents()
}

fn latency_factory() -> LatencySulFactory<TcpSulFactory> {
    LatencySulFactory::new(
        TcpSulFactory::default(),
        SimDuration::from_micros(50),
        SimDuration::from_micros(100),
    )
}

fn impaired_factory() -> NetworkedSessionFactory<TcpSulFactory> {
    let link = LinkConfig::with_latency(SimDuration::from_micros(100))
        .jitter(SimDuration::from_micros(200))
        .loss(0.08)
        .reorder(0.15)
        .duplicate(0.05);
    // Seed 7 loses packet index 3 (the noise stream rewinds to 0 every
    // query), so every multi-step query really exercises the drop path.
    NetworkedSessionFactory::new(TcpSulFactory::default(), link).with_noise_seed(7)
}

/// The (1, 1) reference stream for the latency-modelled scenario.
fn latency_reference() -> &'static String {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let log = log_at(&latency_factory(), 1, 1, SiftStrategy::Wavefront);
        assert!(
            log.contains("\"name\":\"session:done\"") && log.contains("\"name\":\"phase:enter\""),
            "the deterministic stream must carry session lifecycle and phase transitions"
        );
        log
    })
}

/// The (1, 1) reference stream for the impaired-wire scenario.
fn impaired_reference() -> &'static String {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let log = log_at(&impaired_factory(), 1, 1, SiftStrategy::Wavefront);
        assert!(
            log.contains("\"name\":\"wire:send\"") && log.contains("\"name\":\"wire:drop\""),
            "the impaired stream must carry per-packet wire fates"
        );
        log
    })
}

/// The (1, 1) reference stream for the dataflow-learner scenario.
fn dataflow_reference() -> &'static String {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let log = log_at(&latency_factory(), 1, 1, SiftStrategy::Dataflow);
        assert!(
            log.contains("\"name\":\"session:done\"")
                && log.contains("\"name\":\"speculation:commit\""),
            "the dataflow stream must carry async sessions and speculation commits"
        );
        log
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The tentpole determinism claim: the event log for a fixed scenario
    // is byte-identical across the whole (workers, max_inflight) grid.
    #[test]
    fn event_log_is_byte_identical_across_engine_shapes(
        workers in 1usize..4,
        inflight_exp in 0u32..7,
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let log = log_at(&latency_factory(), workers, max_inflight, SiftStrategy::Wavefront);
        prop_assert_eq!(
            latency_reference(), &log,
            "(workers, max_inflight) = ({}, {}) changed the event log",
            workers, max_inflight
        );
    }

    // Same claim over an impaired wire: per-packet send/deliver/drop/
    // duplicate fates are scoped to the query and replayed bit-identically
    // regardless of the engine shape.
    #[test]
    fn wire_event_log_is_byte_identical_across_engine_shapes(
        workers in 1usize..4,
        inflight_exp in 0u32..7,
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let log = log_at(&impaired_factory(), workers, max_inflight, SiftStrategy::Wavefront);
        prop_assert_eq!(
            impaired_reference(), &log,
            "(workers, max_inflight) = ({}, {}) changed the wire event log",
            workers, max_inflight
        );
    }

    // Same claim for the dataflow learner: async sift continuations and
    // speculative equivalence scopes flush through the submission-order
    // frontier, so overlapped phases and shape-dependent speculation depth
    // never reach the deterministic stream.
    #[test]
    fn dataflow_event_log_is_byte_identical_across_engine_shapes(
        workers in 1usize..4,
        inflight_exp in 0u32..7,
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let log = log_at(&latency_factory(), workers, max_inflight, SiftStrategy::Dataflow);
        prop_assert_eq!(
            dataflow_reference(), &log,
            "(workers, max_inflight) = ({}, {}) changed the dataflow event log",
            workers, max_inflight
        );
    }
}
