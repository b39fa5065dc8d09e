//! Determinism of the impaired-network session transport: for any
//! `(workers, max_inflight)`, learning over a lossy + jittery + reordering
//! link must produce a bit-identical model with identical query-cost
//! statistics (`fresh_symbols`, `membership_queries`, `equivalence_tests`)
//! — impairment fates are a pure function of `(noise seed, per-query packet
//! index)`, so the engine shape moves only virtual time, never answers.
//! On an unimpaired wire the transport must reproduce the in-process
//! blocking baseline exactly.

use prognosis_core::net_transport::{LinkConfig, NetworkedSessionFactory};
use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig, LearnedModel};
use prognosis_core::session::SimDuration;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use proptest::prelude::*;
use std::sync::OnceLock;

fn engine_config() -> LearnConfig {
    LearnConfig {
        random_tests: 150,
        max_word_len: 6,
        eq_batch_size: 128,
        ..LearnConfig::default()
    }
}

/// The lossy, jittery, reordering link every grid point learns over.
fn impaired_link() -> LinkConfig {
    LinkConfig::with_latency(SimDuration::from_micros(100))
        .jitter(SimDuration::from_micros(200))
        .loss(0.08)
        .reorder(0.15)
        .duplicate(0.05)
}

fn impaired_factory() -> NetworkedSessionFactory<TcpSulFactory> {
    NetworkedSessionFactory::new(TcpSulFactory::default(), impaired_link()).with_noise_seed(23)
}

/// The (1 worker, 1 session) impaired reference run every other grid point
/// must reproduce bit-identically.
fn impaired_baseline() -> &'static LearnedModel {
    static BASELINE: OnceLock<LearnedModel> = OnceLock::new();
    BASELINE.get_or_init(|| {
        learn_model_parallel(&impaired_factory(), &tcp_alphabet(), engine_config())
            .expect("impaired learning succeeds")
            .learned
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The acceptance claim of the impaired-network transport: a learning
    // run over a lossy + jittery link at high max_inflight completes, and
    // is deterministic per seed across the whole engine-shape grid.
    #[test]
    fn impaired_learning_is_engine_shape_independent(
        workers in 1usize..4,
        inflight_exp in 0u32..7,
    ) {
        let max_inflight = 1usize << inflight_exp; // 1..=64
        let baseline = impaired_baseline();
        let outcome = learn_model_parallel(
            &impaired_factory(),
            &tcp_alphabet(),
            engine_config()
                .with_workers(workers)
                .with_max_inflight(max_inflight),
        )
        .expect("impaired learning succeeds");
        prop_assert_eq!(
            &outcome.learned.model,
            &baseline.model,
            "(workers, max_inflight) = ({}, {}) changed the model learned over an impaired link",
            workers, max_inflight
        );
        prop_assert_eq!(outcome.learned.stats.fresh_symbols, baseline.stats.fresh_symbols);
        prop_assert_eq!(outcome.learned.stats.membership_queries, baseline.stats.membership_queries);
        prop_assert_eq!(outcome.learned.stats.equivalence_tests, baseline.stats.equivalence_tests);
        prop_assert_eq!(outcome.learned.stats.counterexamples, baseline.stats.counterexamples);
        prop_assert!(
            outcome.engine.virtual_elapsed_micros > 0,
            "packets crossing a real link take virtual time"
        );
    }
}

#[test]
fn sixteen_inflight_sessions_complete_on_a_lossy_jittery_link() {
    // The headline configuration from the issue: max_inflight ≥ 16 over a
    // lossy + jittery link, twice, bit-identically.
    let config = engine_config().with_workers(1).with_max_inflight(16);
    let first = learn_model_parallel(&impaired_factory(), &tcp_alphabet(), config.clone())
        .expect("impaired learning succeeds");
    let second = learn_model_parallel(&impaired_factory(), &tcp_alphabet(), config)
        .expect("impaired learning succeeds");
    assert_eq!(first.learned.model, second.learned.model);
    assert_eq!(
        first.learned.stats.fresh_symbols,
        second.learned.stats.fresh_symbols
    );
    assert!(first.learned.model.num_states() >= 2);
}

#[test]
fn unimpaired_wire_reproduces_the_blocking_baseline() {
    // Latency alone is not an impairment: the networked transport must
    // answer exactly as the in-process blocking path, so the learned model
    // and every statistic match the plain sequential run bit for bit.
    let mut sul = TcpSul::with_defaults();
    let blocking = learn_model(&mut sul, &tcp_alphabet(), engine_config());
    let factory = NetworkedSessionFactory::new(
        TcpSulFactory::default(),
        LinkConfig::with_latency(SimDuration::from_micros(150)),
    );
    let outcome = learn_model_parallel(
        &factory,
        &tcp_alphabet(),
        engine_config().with_workers(2).with_max_inflight(8),
    )
    .expect("networked learning succeeds");
    assert_eq!(outcome.learned.model, blocking.model);
    assert_eq!(
        outcome.learned.stats.fresh_symbols,
        blocking.stats.fresh_symbols
    );
    assert_eq!(
        outcome.learned.stats.membership_queries,
        blocking.stats.membership_queries
    );
}
