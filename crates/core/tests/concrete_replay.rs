//! Concrete traces on demand: [`ConcreteSul::concrete_trace`] answers a
//! word exactly as the learning hot path does, with one concrete step per
//! symbol, and replaying the word later — after arbitrary other queries —
//! yields the identical trace.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::word::InputWord;
use prognosis_core::quic_adapter::{quic_data_alphabet, QuicSul};
use prognosis_core::sul::{ConcreteSul, SulMembershipOracle};
use prognosis_core::tcp_adapter::{tcp_alphabet, TcpSul};
use prognosis_learner::oracle::MembershipOracle;
use prognosis_quic_sim::profile::ImplementationProfile;
use proptest::prelude::*;

/// A word over `alphabet` from generated symbol indices.
fn word(alphabet: &Alphabet, indices: &[usize]) -> InputWord {
    indices
        .iter()
        .map(|&i| alphabet.get(i % alphabet.len()).unwrap().clone())
        .collect()
}

fn check_replay<S: ConcreteSul>(
    mut sul: S,
    alphabet: &Alphabet,
    target: &[usize],
    others: &[Vec<usize>],
) {
    let target = word(alphabet, target);
    let answer = SulMembershipOracle::new(&mut sul).query(&target);
    let first = sul.concrete_trace(&target);
    assert_eq!(first.abstract_trace.input, target);
    assert_eq!(first.abstract_trace.output, answer);
    assert_eq!(first.steps.len(), target.len());
    // Interleave hot-path queries and other replays before replaying again.
    for (i, other) in others.iter().enumerate() {
        let other = word(alphabet, other);
        if i % 2 == 0 {
            SulMembershipOracle::new(&mut sul).query(&other);
        } else {
            sul.concrete_trace(&other);
        }
    }
    assert_eq!(sul.concrete_trace(&target), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tcp_replay_agrees_with_the_hot_path(
        target in prop::collection::vec(0usize..64, 0..10),
        others in prop::collection::vec(prop::collection::vec(0usize..64, 0..10), 0..5),
    ) {
        check_replay(TcpSul::with_defaults(), &tcp_alphabet(), &target, &others);
    }

    #[test]
    fn quic_replay_agrees_with_the_hot_path(
        target in prop::collection::vec(0usize..64, 0..10),
        others in prop::collection::vec(prop::collection::vec(0usize..64, 0..10), 0..5),
    ) {
        let sul = QuicSul::new(ImplementationProfile::google(), 5);
        check_replay(sul, &quic_data_alphabet(), &target, &others);
    }
}
