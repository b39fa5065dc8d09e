//! Cross-run persistence: a learning run with a `cache_path` persists its
//! observations, and a repeat run against the same SUL answers every
//! membership query from disk — zero fresh SUL symbols, bit-identical
//! model, for any worker count.  A changed SUL configuration or alphabet
//! invalidates the key and the run soundly starts cold.

use prognosis_core::pipeline::{learn_model, learn_model_parallel, LearnConfig};
use prognosis_core::quic_adapter::{quic_data_alphabet, QuicSul};
use prognosis_core::sul::Sul;
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul, TcpSulFactory};
use prognosis_learner::cache::alphabet_hash;
use prognosis_learner::journal::JOURNAL_MAGIC;
use prognosis_quic_sim::profile::ImplementationProfile;

fn tmp_cache(name: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "prognosis-warm-start-test-{}-{name}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

fn small_config(cache: &str) -> LearnConfig {
    LearnConfig {
        random_tests: 300,
        max_word_len: 8,
        ..LearnConfig::default()
    }
    .with_cache_path(cache)
}

#[test]
fn tcp_warm_start_is_deterministic_for_one_and_four_workers() {
    let cache = tmp_cache("tcp-workers");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);

    let mut cold_sul = TcpSul::with_defaults();
    let cold = learn_model(&mut cold_sul, &tcp_alphabet(), config.clone());
    assert!(cold.stats.fresh_symbols > 0, "cold run pays fresh symbols");

    for workers in [1usize, 4] {
        let outcome = learn_model_parallel(
            &TcpSulFactory::default(),
            &tcp_alphabet(),
            config.clone().with_workers(workers),
        )
        .expect("parallel learning succeeds");
        assert_eq!(
            cold.model, outcome.learned.model,
            "warm model with {workers} workers must be bit-identical to the cold model"
        );
        assert_eq!(
            outcome.learned.stats.fresh_symbols, 0,
            "warm run with {workers} workers must answer everything from the cache"
        );
        assert_eq!(outcome.sul_stats.symbols_sent, 0);
        assert_eq!(
            cold.stats.membership_queries, outcome.learned.stats.membership_queries,
            "the learner must see the identical query stream warm and cold"
        );
    }
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn quic_warm_start_answers_repeat_runs_from_disk() {
    let cache = tmp_cache("quic");
    let _ = std::fs::remove_file(&cache);
    let config = LearnConfig {
        random_tests: 200,
        max_word_len: 8,
        ..LearnConfig::default()
    }
    .with_cache_path(&cache);

    let mut cold_sul = QuicSul::new(ImplementationProfile::google(), 3);
    let cold = learn_model(&mut cold_sul, &quic_data_alphabet(), config.clone());
    let mut warm_sul = QuicSul::new(ImplementationProfile::google(), 3);
    let warm = learn_model(&mut warm_sul, &quic_data_alphabet(), config.clone());
    assert_eq!(cold.model, warm.model);
    assert_eq!(warm.stats.fresh_symbols, 0);
    assert_eq!(warm_sul.stats().symbols_sent, 0);

    // Same path, different SUL seed: the key mismatch forces a cold run.
    let mut other_sul = QuicSul::new(ImplementationProfile::google(), 4);
    let other = learn_model(&mut other_sul, &quic_data_alphabet(), config.clone());
    assert!(
        other.stats.fresh_symbols > 0,
        "a different SUL seed must not reuse the cached observations"
    );
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn alphabet_change_invalidates_the_cache_key() {
    let cache = tmp_cache("alphabet");
    let _ = std::fs::remove_file(&cache);
    let config = small_config(&cache);

    let mut sul = TcpSul::with_defaults();
    let _ = learn_model(&mut sul, &tcp_alphabet(), config.clone());

    // A reduced alphabet is a different learning problem: warm start must
    // not pick up the full-alphabet observations even though every reduced
    // query would be answerable (the key is the alphabet, not coverage).
    let reduced: prognosis_automata::alphabet::Alphabet =
        tcp_alphabet().iter().take(3).cloned().collect();
    let mut sul2 = TcpSul::with_defaults();
    let reduced_run = learn_model(&mut sul2, &reduced, config.clone());
    assert!(reduced_run.stats.fresh_symbols > 0);

    // ... and the reduced run's save replaced the file (different key), so
    // the full alphabet now starts cold again.
    let mut sul3 = TcpSul::with_defaults();
    let full_again = learn_model(&mut sul3, &tcp_alphabet(), config.clone());
    assert!(full_again.stats.fresh_symbols > 0);
    let _ = std::fs::remove_file(&cache);
}

/// Runs against one file accumulate: a learn with a different seed warm-
/// starts from the first run's observations, asks the SUL only for what
/// they miss, and appends that — so afterwards both seeds re-learn free.
#[test]
fn observations_of_different_seeds_accumulate_in_one_file() {
    let cache = tmp_cache("accumulate");
    let _ = std::fs::remove_file(&cache);
    let seed_a = small_config(&cache);
    let seed_b = LearnConfig {
        seed: seed_a.seed + 1,
        ..seed_a.clone()
    };
    let fresh_symbols = |config: &LearnConfig| {
        let mut sul = TcpSul::with_defaults();
        learn_model(&mut sul, &tcp_alphabet(), config.clone())
            .stats
            .fresh_symbols
    };

    assert!(fresh_symbols(&seed_a) > 0);
    assert!(
        fresh_symbols(&seed_b) > 0,
        "seed B's equivalence words reach beyond seed A's observations"
    );
    assert_eq!(fresh_symbols(&seed_a), 0, "seed A's observations persist");
    assert_eq!(fresh_symbols(&seed_b), 0, "seed B's observations persist");
    let _ = std::fs::remove_file(&cache);
}

/// An old v2 JSON cache file at the cache path — here one keyed exactly
/// for this run but recording a bogus answer — is a sound cold-start miss:
/// the run learns what a run without the file learns, and its save
/// replaces the file with a journal.
#[test]
fn json_cache_file_is_a_cold_start_miss_replaced_by_a_journal() {
    let cache = tmp_cache("json-file");
    let alphabet = tcp_alphabet();
    let sul_id = TcpSul::with_defaults()
        .cache_key()
        .expect("the TCP adapter is cacheable");
    let symbols: Vec<String> = alphabet
        .iter()
        .map(|s| format!("{:?}", s.as_str()))
        .collect();
    let json = format!(
        r#"{{"version":2,"sul_id":{sul_id:?},"impl_version":"","alphabet":[{}],"alphabet_hash":{},"trie":[[[{}],["BOGUS"],true]]}}"#,
        symbols.join(","),
        alphabet_hash(&alphabet),
        symbols[0],
    );
    std::fs::write(&cache, json).unwrap();
    let config = small_config(&cache);
    let from_json = learn_model(&mut TcpSul::with_defaults(), &alphabet, config.clone());
    assert!(
        std::fs::read(&cache).unwrap().starts_with(JOURNAL_MAGIC),
        "the first save replaces the JSON file with a journal"
    );

    let _ = std::fs::remove_file(&cache);
    let cold = learn_model(&mut TcpSul::with_defaults(), &alphabet, config);
    assert_eq!(from_json.model, cold.model);
    assert_eq!(
        from_json.stats.fresh_symbols, cold.stats.fresh_symbols,
        "nothing may be answered from the JSON file"
    );
    let _ = std::fs::remove_file(&cache);
}
