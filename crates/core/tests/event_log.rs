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
//!
//! With diagnostics on, the stream must also agree with the engine's
//! counters: the `occupancy` events are the engine's only timeline, so
//! they must account for every dispatched batch and query.

use prognosis_core::latency::LatencySulFactory;
use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{Learn, LearnConfig, SiftStrategy};
use prognosis_core::session::{phase_name, SessionSulFactory, SimDuration, ALL_PHASES};
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

/// The value of `"key":` in one serialized event line (quotes stripped).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let key = format!("\"{key}\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// The serialized lines of the event named `name`.
fn events_named<'a>(log: &'a str, name: &str) -> Vec<&'a str> {
    let tag = format!("\"name\":\"{name}\"");
    log.lines().filter(|line| line.contains(&tag)).collect()
}

#[test]
fn engine_counters_agree_with_the_event_stream() {
    for sift in [SiftStrategy::Wavefront, SiftStrategy::Dataflow] {
        for (workers, max_inflight) in [(1, 1), (1, 16), (2, 4)] {
            let sink = Arc::new(MemorySink::new());
            let outcome = Learn::new(
                engine_config()
                    .with_workers(workers)
                    .with_max_inflight(max_inflight)
                    .with_sift(sift),
            )
            .with_events(Arc::clone(&sink) as Arc<dyn EventSink>, true)
            .run(&latency_factory(), &tcp_alphabet())
            .expect("parallel learning succeeds");
            let (engine, log) = (outcome.engine, sink.contents());
            let shape = format!("{sift:?} at ({workers}, {max_inflight})");
            assert_eq!(
                events_named(&log, "limit:grow").len() as u64,
                engine.limit_grows,
                "{shape}: limit:grow events"
            );
            assert_eq!(
                events_named(&log, "limit:shrink").len() as u64,
                engine.limit_shrinks,
                "{shape}: limit:shrink events"
            );
            let occupancy = events_named(&log, "occupancy");
            let done = events_named(&log, "session:done");
            let mut total_done = 0;
            for phase in ALL_PHASES {
                let name = phase_name(phase);
                let stats = engine.phase(phase);
                let batches: Vec<u64> = occupancy
                    .iter()
                    .filter(|line| field(line, "phase") == Some(name))
                    .map(|line| field(line, "batch").expect("batch").parse().expect("u64"))
                    .collect();
                assert_eq!(
                    batches.len() as u64,
                    stats.batches,
                    "{shape}: {name} batches"
                );
                assert_eq!(
                    batches.iter().sum::<u64>(),
                    stats.queries,
                    "{shape}: {name} queries"
                );
                if sift == SiftStrategy::Wavefront {
                    let sessions = done
                        .iter()
                        .filter(|line| field(line, "phase") == Some(name))
                        .count() as u64;
                    assert_eq!(sessions, stats.queries, "{shape}: {name} session:done");
                    total_done += sessions;
                }
            }
            if sift == SiftStrategy::Wavefront {
                assert_eq!(total_done, engine.queries_completed, "{shape}: completions");
                assert_eq!(
                    engine.queries_completed, outcome.learned.distinct_queries as u64,
                    "{shape}: distinct queries"
                );
            }
        }
    }
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
