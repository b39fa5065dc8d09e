//! Reproduce the paper's three implementation bugs end to end:
//! Issue 2 (nondeterministic RESET), Issue 3 (retry from the wrong port) and
//! Issue 4 (STREAM_DATA_BLOCKED stuck at 0).
//!
//! ```sh
//! cargo run --example bug_hunt
//! ```

use prognosis::analysis::model_diff::diff_models;
use prognosis::automata::word::InputWord;
use prognosis::core::nondeterminism::{NondeterminismChecker, NondeterminismConfig};
use prognosis::core::pipeline::{learn_model, LearnConfig};
use prognosis::core::quic_adapter::{quic_alphabet, quic_data_alphabet, QuicSul};
use prognosis::core::sul::{replay_transition_cover, Sul};
use prognosis::quic_sim::profile::ImplementationProfile;

fn main() {
    issue2_nondeterministic_reset();
    issue3_retry_port();
    issue4_constant_zero();
}

/// Issue 2: after a protocol-violation close, mvfst answers with a stateless
/// reset only ~82% of the time.
fn issue2_nondeterministic_reset() {
    println!("== Issue 2: nondeterminism in connection closure (mvfst profile) ==");
    let word = InputWord::from_symbols([
        "INITIAL(?,?)[CRYPTO]",
        "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
        "SHORT(?,?)[ACK,STREAM]",
    ]);
    let sul = QuicSul::new(ImplementationProfile::mvfst(), 42);
    let config = NondeterminismConfig {
        min_repetitions: 5,
        max_repetitions: 200,
        confidence: 0.95,
    };
    let mut checker = NondeterminismChecker::new(sul, config);
    let result = checker.check(&word);
    println!("  deterministic        : {}", result.deterministic);
    println!("  distinct responses   : {}", result.distinct_outputs());
    if let Some((_, freq)) = result.majority() {
        println!("  majority frequency   : {freq:.2}  (paper measured ≈0.82)");
    }
    println!();
}

/// Issue 3: the reference client answers the server's Retry from a fresh
/// ephemeral port, so address validation fails and the handshake never
/// completes.
fn issue3_retry_port() {
    println!("== Issue 3: inconsistent port on Retry (tracker reference client) ==");
    for (label, buggy) in [("buggy client", true), ("fixed client", false)] {
        let mut sul = QuicSul::new(ImplementationProfile::tracker(), 5);
        if buggy {
            sul = sul.with_buggy_retry_client();
        }
        sul.reset();
        let first = sul.step(&"INITIAL(?,?)[CRYPTO]".into());
        let second = sul.step(&"INITIAL(?,?)[CRYPTO]".into());
        let third = sul.step(&"HANDSHAKE(?,?)[ACK,CRYPTO]".into());
        println!("  {label}:");
        println!("    1st INITIAL  → {first}");
        println!("    2nd INITIAL  → {second}");
        println!("    HANDSHAKE    → {third}");
    }

    // The same evidence, Prognosis-style: learn a model of each client and
    // diff them — the distinguishing traces are exactly where the buggy
    // client's handshake stalls.
    let config = LearnConfig {
        random_tests: 500,
        max_word_len: 8,
        ..LearnConfig::default()
    };
    let mut buggy_sul = QuicSul::new(ImplementationProfile::tracker(), 5).with_buggy_retry_client();
    let buggy = learn_model(&mut buggy_sul, &quic_alphabet(), config.clone());
    let mut fixed_sul = QuicSul::new(ImplementationProfile::tracker(), 5);
    let fixed = learn_model(&mut fixed_sul, &quic_alphabet(), config);
    println!("  learned-model diff:");
    print!(
        "{}",
        diff_models("buggy", &buggy.model, "fixed", &fixed.model, 3)
    );
    println!();
}

/// Issue 4: Google QUIC's STREAM_DATA_BLOCKED advertises the constant 0.
fn issue4_constant_zero() {
    println!("== Issue 4: STREAM_DATA_BLOCKED Maximum Stream Data (google profile) ==");
    let google = || QuicSul::new(ImplementationProfile::google(), 11);
    let config = LearnConfig {
        random_tests: 500,
        max_word_len: 8,
        ..LearnConfig::default()
    };
    let learned = learn_model(&mut google(), &quic_data_alphabet(), config);
    let mut observed = Vec::new();
    for entry in replay_transition_cover(&mut google(), &learned.model) {
        for (output, step) in entry.abstract_trace.output.iter().zip(entry.steps.iter()) {
            if output.as_str().contains("STREAM_DATA_BLOCKED") {
                if let Some(&v) = step.output_fields.last() {
                    observed.push(v);
                }
            }
        }
    }
    observed.sort_unstable();
    observed.dedup();
    println!("  observations of the Maximum Stream Data field: {observed:?}");
    println!("  (the paper found the field was never updated from its placeholder 0)");
}
