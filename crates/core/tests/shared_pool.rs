//! Heterogeneous learning runs leasing one [`EnginePool`]: a TCP learn and
//! a QUIC learn executing *concurrently* on the same engine threads must
//! produce exactly the models and query-cost statistics of their private
//! runs — the pool moves scheduling, never results.  This is the substrate
//! the campaign orchestrator builds its matrix cells on.  The same holds
//! for every shape of the [`Learn`] builder: a shared pool, an empty seed
//! or an attached event sink changes neither the model, nor the query
//! costs, nor a byte of the deterministic event stream.

use prognosis_automata::alphabet::Alphabet;
use prognosis_core::engine::EnginePool;
use prognosis_core::pipeline::{learn_model_parallel, Learn, LearnConfig, LearnedModel};
use prognosis_core::quic_adapter::{quic_alphabet, QuicSulFactory};
use prognosis_core::session::SessionSulFactory;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSulFactory};
use prognosis_events::{EventSink, MemorySink};
use prognosis_learner::trie::PrefixTrie;
use prognosis_quic_sim::profile::ImplementationProfile;
use std::sync::Arc;

fn config() -> LearnConfig {
    LearnConfig {
        random_tests: 200,
        max_word_len: 6,
        eq_batch_size: 64,
        workers: 2,
        ..LearnConfig::default()
    }
}

fn private_tcp() -> LearnedModel {
    learn_model_parallel(&TcpSulFactory::default(), &tcp_alphabet(), config())
        .expect("private TCP learn succeeds")
        .learned
}

fn private_quic() -> LearnedModel {
    let factory = QuicSulFactory::new(ImplementationProfile::google(), 11);
    learn_model_parallel(&factory, &quic_alphabet(), config())
        .expect("private QUIC learn succeeds")
        .learned
}

#[test]
fn concurrent_heterogeneous_leases_match_private_runs() {
    let tcp_reference = private_tcp();
    let quic_reference = private_quic();

    // 4 slots, two concurrent 2-worker leases: both protocols run at once
    // on the same engine threads, interleaving heterogeneous session types.
    let pool = EnginePool::new(4);
    let (tcp_shared, quic_shared) = std::thread::scope(|scope| {
        let tcp = scope.spawn(|| {
            Learn::new(config())
                .on_pool(&pool)
                .run(&TcpSulFactory::default(), &tcp_alphabet())
                .expect("shared-pool TCP learn succeeds")
                .learned
        });
        let quic = scope.spawn(|| {
            let factory = QuicSulFactory::new(ImplementationProfile::google(), 11);
            Learn::new(config())
                .on_pool(&pool)
                .run(&factory, &quic_alphabet())
                .expect("shared-pool QUIC learn succeeds")
                .learned
        });
        (
            tcp.join().expect("tcp thread"),
            quic.join().expect("quic thread"),
        )
    });

    assert_eq!(tcp_shared.model, tcp_reference.model);
    assert_eq!(
        tcp_shared.stats.membership_queries,
        tcp_reference.stats.membership_queries
    );
    assert_eq!(
        tcp_shared.stats.equivalence_tests,
        tcp_reference.stats.equivalence_tests
    );
    assert_eq!(quic_shared.model, quic_reference.model);
    assert_eq!(
        quic_shared.stats.membership_queries,
        quic_reference.stats.membership_queries
    );
    assert_eq!(
        quic_shared.stats.equivalence_tests,
        quic_reference.stats.equivalence_tests
    );

    // Every leased slot was returned: the pool is reusable afterwards.
    assert_eq!(pool.free_slots(), pool.total_slots());
}

#[test]
fn an_undersized_pool_serializes_leases_without_changing_results() {
    let tcp_reference = private_tcp();

    // 2 slots but two 2-worker runs: the second lease must wait for the
    // first to finish — all-or-nothing acquisition, no deadlock, and the
    // results stay identical.
    let pool = EnginePool::new(2);
    let (first, second) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            Learn::new(config())
                .on_pool(&pool)
                .run(&TcpSulFactory::default(), &tcp_alphabet())
                .expect("first serialized learn succeeds")
                .learned
        });
        let b = scope.spawn(|| {
            Learn::new(config())
                .on_pool(&pool)
                .run(&TcpSulFactory::default(), &tcp_alphabet())
                .expect("second serialized learn succeeds")
                .learned
        });
        (
            a.join().expect("first thread"),
            b.join().expect("second thread"),
        )
    });

    assert_eq!(first.model, tcp_reference.model);
    assert_eq!(second.model, tcp_reference.model);
    assert_eq!(pool.free_slots(), pool.total_slots());
}

/// Every [`Learn`] shape — each combination of a leased pool, an empty
/// seed and an event sink — must learn `reference`'s model at its query
/// costs, and every sink-carrying shape must emit the deterministic event
/// stream of the first (private, unseeded) one byte for byte.
fn assert_every_shape_matches<F>(reference: &LearnedModel, factory: &F, alphabet: &Alphabet)
where
    F: SessionSulFactory,
    F::Session: Send + 'static,
{
    let costs = |l: &LearnedModel| {
        let s = &l.stats;
        (s.membership_queries, s.equivalence_tests, s.fresh_symbols)
    };
    let pool = EnginePool::new(2);
    let mut private_log: Option<String> = None;
    for shape in 0..8u8 {
        let (leased, seeded, events) = (shape & 1 != 0, shape & 2 != 0, shape & 4 != 0);
        let label = format!("(leased, seeded, events) = ({leased}, {seeded}, {events})");
        let sink = Arc::new(MemorySink::new());
        let mut learn = Learn::new(config());
        if leased {
            learn = learn.on_pool(&pool);
        }
        if seeded {
            learn = learn.seeded(PrefixTrie::new(), &[]);
        }
        if events {
            learn = learn.with_events(Arc::clone(&sink) as Arc<dyn EventSink>, false);
        }
        let learned = learn
            .run(factory, alphabet)
            .expect("learn succeeds")
            .learned;
        assert_eq!(learned.model, reference.model, "{label} changed the model");
        assert_eq!(
            costs(&learned),
            costs(reference),
            "{label} changed a query cost"
        );
        if events {
            let log = sink.contents();
            let private = private_log.get_or_insert_with(|| log.clone());
            assert!(
                !log.is_empty() && *private == log,
                "{label} changed the event stream"
            );
        }
    }
    assert_eq!(pool.free_slots(), pool.total_slots());
}

#[test]
fn every_builder_shape_matches_learn_model_parallel() {
    assert_every_shape_matches(&private_tcp(), &TcpSulFactory::default(), &tcp_alphabet());
    let factory = QuicSulFactory::new(ImplementationProfile::google(), 11);
    assert_every_shape_matches(&private_quic(), &factory, &quic_alphabet());
}
