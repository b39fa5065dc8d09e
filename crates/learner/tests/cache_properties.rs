//! Property-based tests for the prefix-trie membership cache: a cached word
//! answers all of its prefixes without new SUL queries, batched answers are
//! identical to sequential ones, and the trie agrees with a naive
//! `HashMap`-based reference cache (the seed implementation) on arbitrary
//! query sequences while never asking the SUL more.  The asynchronous
//! protocol (submit / poll / commit / cancel, with speculative staging) is
//! driven through random interleavings against a deferred-answer inner
//! oracle and checked against a serial replay.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::known::random_machine;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::oracle::{
    AsyncAnswer, AsyncQuery, CacheOracle, CancelOutcome, MachineOracle, MembershipOracle,
    QueryPhase,
};
use prognosis_learner::trie::PrefixTrie;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The seed's flat-map cache, kept as the reference semantics: memoizes
/// full queries and serves prefixes of longer cached entries by linear
/// scan.
struct NaiveCacheOracle {
    inner: MachineOracle,
    cache: HashMap<InputWord, OutputWord>,
}

impl NaiveCacheOracle {
    fn new(inner: MachineOracle) -> Self {
        NaiveCacheOracle {
            inner,
            cache: HashMap::new(),
        }
    }
}

impl MembershipOracle for NaiveCacheOracle {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        if let Some(out) = self.cache.get(input) {
            return out.clone();
        }
        let prefix_answer = self
            .cache
            .iter()
            .find(|(k, _)| {
                k.len() > input.len() && k.as_slice()[..input.len()] == *input.as_slice()
            })
            .map(|(_, v)| v.prefix(input.len()));
        if let Some(out) = prefix_answer {
            self.cache.insert(input.clone(), out.clone());
            return out;
        }
        let out = self.inner.query(input);
        self.cache.insert(input.clone(), out.clone());
        out
    }

    fn queries_answered(&self) -> u64 {
        self.inner.queries_answered()
    }
}

fn machine_params() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..10, 1usize..5, 1usize..4, any::<u64>())
}

fn query_sequences() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..7, 0..10), 1..30)
}

fn to_words(
    machine: &prognosis_automata::mealy::MealyMachine,
    raw: &[Vec<usize>],
) -> Vec<InputWord> {
    let alphabet = machine.input_alphabet();
    raw.iter()
        .map(|indices| {
            indices
                .iter()
                .map(|i| alphabet.get(i % alphabet.len()).unwrap().clone())
                .collect()
        })
        .collect()
}

/// Saves `trie` to a fresh journal and loads it back — the persistence
/// path a warm start reads.
fn journal_round_trip(name: &str, trie: &PrefixTrie) -> PrefixTrie {
    let path = std::env::temp_dir().join(format!(
        "prognosis-cache-properties-{}-{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let key = StoreKey::new("machine", "", &Alphabet::from_symbols(["unused"]));
    JournalStore::save_merged_at(&path, &key, trie, RetainPolicy::OnlyThisKey)
        .expect("journal save succeeds");
    let back = JournalStore::load_matching(&path, &key).expect("journal load hits");
    let _ = std::fs::remove_file(&path);
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_words_answer_all_prefixes_without_new_sul_queries(
        (states, inputs, outputs, seed) in machine_params(),
        word_indices in prop::collection::vec(0usize..7, 1..12),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let word = to_words(&machine, &[word_indices]).pop().unwrap();
        let mut cache = CacheOracle::new(MachineOracle::new(machine.clone()));
        let full = cache.query(&word);
        let after_full = cache.queries_answered();
        prop_assert_eq!(after_full, 1);
        for n in 0..=word.len() {
            let prefix = word.prefix(n);
            let out = cache.query(&prefix);
            prop_assert_eq!(&out, &full.prefix(n), "prefix of length {} answered wrongly", n);
            prop_assert_eq!(
                cache.queries_answered(),
                after_full,
                "prefix query of length {} reached the SUL", n
            );
        }
    }

    #[test]
    fn trie_and_naive_cache_agree_on_random_query_sequences(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut trie = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut naive = NaiveCacheOracle::new(MachineOracle::new(machine));
        for word in &words {
            prop_assert_eq!(trie.query(word), naive.query(word));
        }
        prop_assert!(
            trie.queries_answered() <= naive.queries_answered(),
            "the trie cache asked the SUL {} times, the naive cache only {}",
            trie.queries_answered(),
            naive.queries_answered()
        );
    }

    #[test]
    fn batched_queries_match_sequential_queries(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut batched = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut sequential = CacheOracle::new(MachineOracle::new(machine));
        let batch_outs = batched.query_batch(&words);
        let seq_outs: Vec<OutputWord> = words.iter().map(|w| sequential.query(w)).collect();
        prop_assert_eq!(batch_outs, seq_outs);
        // Batching may only reduce SUL traffic (dedup + prefix subsumption),
        // never increase it.
        prop_assert!(batched.queries_answered() <= sequential.queries_answered());
        // Both modes record the same distinct-query set.
        prop_assert_eq!(batched.len(), sequential.len());
    }

    #[test]
    fn batch_and_sequential_fresh_symbol_counts_agree(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        // Regression for the batched double-count: fresh symbols are the
        // trie nodes created, which is independent of batching, ordering,
        // deduplication and prefix subsumption.
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut batched = CacheOracle::new(MachineOracle::new(machine.clone()));
        let mut sequential = CacheOracle::new(MachineOracle::new(machine));
        batched.query_batch(&words);
        for word in &words {
            sequential.query(word);
        }
        prop_assert_eq!(batched.fresh_symbols(), sequential.fresh_symbols());
        // Both equal the node count of the union trie (root excluded).
        prop_assert_eq!(
            batched.fresh_symbols() as usize,
            batched.trie().num_nodes() - 1
        );
    }

    #[test]
    fn trie_journal_round_trip_preserves_lookups_terminals_and_entries(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut cache = CacheOracle::new(MachineOracle::new(machine));
        cache.query_batch(&words);
        let trie = cache.trie();
        let back = journal_round_trip("round-trip", trie);
        prop_assert_eq!(back.terminal_words(), trie.terminal_words());
        prop_assert_eq!(back.num_nodes(), trie.num_nodes());
        // Lookups agree on every queried word and on every prefix of it.
        for word in &words {
            for n in 0..=word.len() {
                let prefix = word.prefix(n);
                prop_assert_eq!(back.lookup(&prefix), trie.lookup(&prefix));
            }
        }
        // Entries agree as sets (both listings are depth-first sorted, so
        // set equality here is order-insensitive by construction).
        let a: std::collections::BTreeSet<_> = trie.entries().into_iter().collect();
        let b: std::collections::BTreeSet<_> = back.entries().into_iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn warmed_cache_oracle_answers_repeat_runs_without_sul_traffic(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut cold = CacheOracle::new(MachineOracle::new(machine.clone()));
        let cold_outs = cold.query_batch(&words);
        // Persist, reload, and warm-start a fresh oracle from the trie.
        let trie = journal_round_trip("warm", cold.trie());
        let mut warm = CacheOracle::with_trie(MachineOracle::new(machine), trie);
        let warm_outs = warm.query_batch(&words);
        prop_assert_eq!(warm_outs, cold_outs);
        prop_assert_eq!(warm.fresh_symbols(), 0);
        prop_assert_eq!(warm.inner().queries_answered(), 0);
    }

    #[test]
    fn distinct_query_count_matches_the_set_of_words_asked(
        (states, inputs, outputs, seed) in machine_params(),
        raw_queries in query_sequences(),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let words = to_words(&machine, &raw_queries);
        let mut cache = CacheOracle::new(MachineOracle::new(machine));
        for word in &words {
            cache.query(word);
        }
        let distinct: std::collections::BTreeSet<&InputWord> = words.iter().collect();
        prop_assert_eq!(cache.len(), distinct.len());
        let entries: Vec<(InputWord, OutputWord)> = cache.entries().collect();
        prop_assert_eq!(entries.len(), distinct.len());
        for (input, output) in entries {
            prop_assert!(distinct.contains(&input));
            prop_assert_eq!(input.len(), output.len());
        }
    }
}

/// An async inner oracle over a known machine that defers every answer:
/// submits only queue, each poll releases one queued query (picked by a
/// drawn index), and every commit or cancel relayed down is logged.
struct DeferredOracle {
    machine: MachineOracle,
    picks: Vec<usize>,
    next_pick: usize,
    queued: Vec<AsyncQuery>,
    /// Inner tickets submitted so far.
    submitted: BTreeSet<u64>,
    /// Inner tickets answered, in release order.
    released: Vec<u64>,
    /// Verdicts relayed per inner ticket: `true` commit, `false` cancel.
    verdicts: BTreeMap<u64, Vec<bool>>,
}

impl MembershipOracle for DeferredOracle {
    fn query(&mut self, input: &InputWord) -> OutputWord {
        self.machine.query(input)
    }

    fn submit_queries(&mut self, queries: Vec<AsyncQuery>) -> Vec<AsyncAnswer> {
        for q in &queries {
            assert!(self.submitted.insert(q.ticket), "inner ticket reused");
        }
        self.queued.extend(queries);
        Vec::new()
    }

    fn poll_answers(&mut self, _wait: bool) -> Vec<AsyncAnswer> {
        if self.queued.is_empty() {
            return Vec::new();
        }
        let pick = self.picks[self.next_pick % self.picks.len()] % self.queued.len();
        self.next_pick += 1;
        let q = self.queued.remove(pick);
        self.released.push(q.ticket);
        vec![AsyncAnswer {
            ticket: q.ticket,
            output: self.machine.query(&q.input),
        }]
    }

    fn cancel_queries(&mut self, tickets: &[u64]) -> CancelOutcome {
        let mut outcome = CancelOutcome::default();
        for &ticket in tickets {
            self.verdicts.entry(ticket).or_default().push(false);
            match self.queued.iter().position(|q| q.ticket == ticket) {
                Some(pos) => {
                    self.queued.remove(pos);
                    outcome.unsent += 1;
                }
                None => outcome.discarded += 1,
            }
        }
        outcome
    }

    fn commit_queries(&mut self, tickets: &[u64]) {
        for &ticket in tickets {
            self.verdicts.entry(ticket).or_default().push(true);
        }
    }

    fn outstanding_queries(&self) -> u64 {
        self.queued.len() as u64
    }
}

/// One step of a random async run against the cache.
#[derive(Clone, Debug)]
enum AsyncOp {
    /// Submits `(word, speculative)` queries as one call.
    Submit(Vec<(Vec<usize>, bool)>),
    /// One poll, blocking or not.
    Poll(bool),
    /// Commits answered speculative tickets, picked by index.
    Commit(Vec<usize>),
    /// Cancels unresolved speculative tickets, picked by index.
    Cancel(Vec<usize>),
}

fn async_ops() -> impl Strategy<Value = Vec<AsyncOp>> {
    // Indices fold onto two or three input symbols and words are short,
    // so words share prefixes often.
    let query = (prop::collection::vec(0usize..3, 1..6), any::<bool>());
    let picks = prop::collection::vec(any::<usize>(), 1..4);
    let op = (
        0u8..8,
        prop::collection::vec(query, 1..6),
        any::<bool>(),
        picks,
    )
        .prop_map(|(kind, queries, wait, picks)| match kind {
            0..=2 => AsyncOp::Submit(queries),
            3..=5 => AsyncOp::Poll(wait),
            6 => AsyncOp::Commit(picks),
            _ => AsyncOp::Cancel(picks),
        });
    prop::collection::vec(op, 1..40)
}

/// What the harness knows about one outer ticket.
struct Outer {
    word: InputWord,
    speculative: bool,
    answered: bool,
    committed: bool,
    cancelled: bool,
}

/// Drives a [`CacheOracle`] over a [`DeferredOracle`] and keeps the
/// outside view needed to check it.
struct AsyncHarness {
    cache: CacheOracle<DeferredOracle>,
    machine: prognosis_automata::mealy::MealyMachine,
    outer: BTreeMap<u64, Outer>,
    /// Outer tickets each released inner ticket answered.
    requesters: BTreeMap<u64, Vec<u64>>,
}

impl AsyncHarness {
    fn accept(&mut self, answers: Vec<AsyncAnswer>) -> Vec<u64> {
        answers
            .into_iter()
            .map(|answer| {
                let outer = self.outer.get_mut(&answer.ticket).expect("known ticket");
                assert!(!outer.answered, "ticket {} answered twice", answer.ticket);
                assert!(
                    !outer.cancelled,
                    "cancelled ticket {} answered",
                    answer.ticket
                );
                let expected = self.machine.run(&outer.word).expect("word over alphabet");
                assert_eq!(answer.output, expected, "wrong answer for {}", outer.word);
                outer.answered = true;
                answer.ticket
            })
            .collect()
    }

    fn poll(&mut self, wait: bool) {
        let released = self.cache.inner().released.len();
        let answers = self.cache.poll_answers(wait);
        let tickets = self.accept(answers);
        let inner = &self.cache.inner().released;
        match inner.len() - released {
            0 => assert!(tickets.is_empty(), "answers without an inner answer"),
            1 => {
                assert!(!tickets.is_empty(), "an inner answer reached no requester");
                self.requesters.insert(*inner.last().unwrap(), tickets);
            }
            n => panic!("one cache poll consumed {n} inner answers"),
        }
    }

    /// Unresolved speculative tickets, optionally only answered ones.
    fn open(&self, answered_only: bool) -> Vec<u64> {
        self.outer
            .iter()
            .filter(|(_, o)| o.speculative && !o.committed && !o.cancelled)
            .filter(|(_, o)| o.answered || !answered_only)
            .map(|(&t, _)| t)
            .collect()
    }

    fn pick(open: Vec<u64>, picks: &[usize]) -> Vec<u64> {
        if open.is_empty() {
            return Vec::new();
        }
        let chosen: BTreeSet<u64> = picks.iter().map(|p| open[p % open.len()]).collect();
        chosen.into_iter().collect()
    }

    fn commit(&mut self, tickets: &[u64]) {
        self.cache.commit_queries(tickets);
        for t in tickets {
            self.outer.get_mut(t).unwrap().committed = true;
        }
    }

    fn cancel(&mut self, tickets: &[u64]) {
        self.cache.cancel_queries(tickets);
        for t in tickets {
            self.outer.get_mut(t).unwrap().cancelled = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn async_cache_protocol_matches_a_serial_replay(
        (states, inputs, outputs, seed) in (1usize..6, 2usize..4, 1usize..4, any::<u64>()),
        ops in async_ops(),
        picks in prop::collection::vec(any::<usize>(), 1..16),
        final_commits in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let machine = random_machine(states, inputs, outputs, seed);
        let inner = DeferredOracle {
            machine: MachineOracle::new(machine.clone()),
            picks,
            next_pick: 0,
            queued: Vec::new(),
            submitted: BTreeSet::new(),
            released: Vec::new(),
            verdicts: BTreeMap::new(),
        };
        let mut d = AsyncHarness {
            cache: CacheOracle::new(inner),
            machine: machine.clone(),
            outer: BTreeMap::new(),
            requesters: BTreeMap::new(),
        };
        let mut next_ticket = 0u64;
        for op in ops {
            match op {
                AsyncOp::Submit(queries) => {
                    let mut batch = Vec::new();
                    for (raw, speculative) in queries {
                        let word = to_words(&machine, &[raw]).pop().unwrap();
                        d.outer.insert(next_ticket, Outer {
                            word: word.clone(),
                            speculative,
                            answered: false,
                            committed: false,
                            cancelled: false,
                        });
                        batch.push(AsyncQuery {
                            ticket: next_ticket,
                            input: word,
                            phase: QueryPhase::Construction,
                            speculative,
                        });
                        next_ticket += 1;
                    }
                    let released = d.cache.inner().released.len();
                    let answers = d.cache.submit_queries(batch);
                    d.accept(answers);
                    prop_assert_eq!(d.cache.inner().released.len(), released);
                }
                AsyncOp::Poll(wait) => d.poll(wait),
                AsyncOp::Commit(p) => {
                    let tickets = AsyncHarness::pick(d.open(true), &p);
                    d.commit(&tickets);
                }
                AsyncOp::Cancel(p) => {
                    let tickets = AsyncHarness::pick(d.open(false), &p);
                    d.cancel(&tickets);
                }
            }
        }
        // Drain, then settle every speculative ticket still open; the
        // closing commit and cancel calls run even when empty, as the
        // learner closes every suite with one.
        // A poll releases one inner answer, and there are no more inner
        // tickets than outer ones.
        for _ in 0..d.outer.len() {
            if d.cache.outstanding_queries() == 0 {
                break;
            }
            d.poll(true);
        }
        prop_assert_eq!(d.cache.outstanding_queries(), 0, "drain left answers outstanding");
        prop_assert!(d.cache.inner().queued.is_empty());
        let (mut commits, mut cancels) = (Vec::new(), Vec::new());
        for (i, ticket) in d.open(false).into_iter().enumerate() {
            if final_commits[i % final_commits.len()] {
                commits.push(ticket);
            } else {
                cancels.push(ticket);
            }
        }
        d.commit(&commits);
        d.cancel(&cancels);

        // Every ticket not cancelled got its answer.
        for (ticket, o) in &d.outer {
            prop_assert!(o.answered || o.cancelled, "ticket {} never answered", ticket);
        }
        // The trie and the fresh-symbol count are a serial run's over the
        // committed and non-speculative words.
        let mut serial = CacheOracle::new(MachineOracle::new(machine.clone()));
        for o in d.outer.values().filter(|o| !o.speculative || o.committed) {
            serial.query(&o.word);
        }
        let mut got = d.cache.trie().paths();
        let mut want = serial.trie().paths();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
        prop_assert_eq!(d.cache.fresh_symbols(), serial.fresh_symbols());
        // Each inner ticket answered for speculative requesters only hears
        // exactly one verdict: commit iff one of them was committed.  One
        // answered for a committed query hears none, and one dropped while
        // queued hears its cancel.
        let inner = d.cache.inner();
        for ticket in &inner.submitted {
            let verdicts = inner.verdicts.get(ticket).cloned().unwrap_or_default();
            match d.requesters.get(ticket) {
                Some(requesters) => {
                    let outers: Vec<&Outer> = requesters.iter().map(|t| &d.outer[t]).collect();
                    if outers.iter().all(|o| o.speculative) {
                        let committed = outers.iter().any(|o| o.committed);
                        prop_assert_eq!(verdicts, vec![committed], "inner ticket {}", ticket);
                    } else {
                        prop_assert!(verdicts.is_empty(), "inner ticket {} got {:?}", ticket, verdicts);
                    }
                }
                None => prop_assert_eq!(verdicts, vec![false], "unanswered inner ticket {}", ticket),
            }
        }
        prop_assert_eq!(d.cache.outstanding_queries(), 0);
        prop_assert!(d.cache.async_idle(), "async bookkeeping left behind");
    }
}
