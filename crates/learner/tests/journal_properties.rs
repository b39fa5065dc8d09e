//! Property and stress tests for the journaled observation store: the
//! binary record codec round-trips arbitrary consistent path sets, a
//! journal truncated mid-record (a crash's torn tail) replays to exactly
//! the records before the tear, many threads — or two processes —
//! appending through separate handles to one shared store lose no
//! observations and produce bit-identical warm tries, and a handle whose
//! store another handle rewrote re-reads it instead of appending into a
//! foreign segment.

use prognosis_automata::alphabet::Alphabet;
use prognosis_automata::word::{InputWord, OutputWord};
use prognosis_learner::cache::StoreKey;
use prognosis_learner::journal::{JournalStore, RetainPolicy};
use prognosis_learner::trie::PrefixTrie;
use proptest::prelude::*;
use std::io::{Read, Write};

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "prognosis-journal-prop-{}-{name}",
        std::process::id()
    ))
}

const SYMBOLS: [&str; 4] = ["a", "b", "c", "δ"];

/// Deterministic output for a given input prefix, so any set of words is
/// mutually consistent (the SUL-determinism precondition every real trie
/// satisfies).
fn output_for(prefix: &[usize]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &i in prefix {
        hash ^= i as u64 + 1;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("out-{}", hash % 16)
}

/// Builds a trie from index-words, deriving prefix-consistent outputs.
fn trie_from_words(words: &[Vec<usize>]) -> PrefixTrie {
    let mut trie = PrefixTrie::new();
    for word in words {
        if word.is_empty() {
            continue;
        }
        let input: InputWord = word.iter().map(|&i| SYMBOLS[i % SYMBOLS.len()]).collect();
        let output: OutputWord = (1..=word.len()).map(|n| output_for(&word[..n])).collect();
        trie.insert(&input, &output);
        trie.mark_terminal(&input);
    }
    trie
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Codec round-trip: an arbitrary consistent path set, written as
    // segment bytes and replayed, reproduces the exact paths (inputs,
    // outputs, terminal markers — including multi-byte UTF-8 symbols).
    #[test]
    fn record_codec_round_trips_arbitrary_paths(
        words in prop::collection::vec(prop::collection::vec(0usize..4, 1..12), 1..40),
        case in 0u64..u64::MAX,
    ) {
        let path = tmp_path(&format!("codec-{case}"));
        std::fs::remove_file(&path).ok();
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        let trie = trie_from_words(&words);
        JournalStore::save_merged_at(&path, &key, &trie, RetainPolicy::All).unwrap();
        let reloaded = JournalStore::load_matching(&path, &key).unwrap();
        prop_assert_eq!(reloaded.paths(), trie.paths());
        prop_assert!(JournalStore::verify(&path).unwrap().is_clean());
        std::fs::remove_file(&path).ok();
    }

    // Crash recovery: truncating the journal at an arbitrary byte offset
    // replays to exactly the observations of some append prefix — the
    // torn final record is skipped, nothing before it is lost, and the
    // next write heals the file.
    #[test]
    fn truncated_tails_recover_to_a_clean_append_prefix(
        words in prop::collection::vec(prop::collection::vec(0usize..4, 1..8), 2..12),
        cut in 0u64..10_000,
    ) {
        let path = tmp_path(&format!("torn-{cut}"));
        std::fs::remove_file(&path).ok();
        let alphabet = Alphabet::from_symbols(SYMBOLS);
        let key = StoreKey::new("sul-prop", "v1", &alphabet);
        // Append word by word, recording the file length and the expected
        // replay after each append.
        let store = JournalStore::open_or_empty(&path);
        let mut cumulative: Vec<Vec<usize>> = Vec::new();
        let mut checkpoints: Vec<(u64, PrefixTrie)> = vec![(0, PrefixTrie::new())];
        for word in &words {
            cumulative.push(word.clone());
            let trie = trie_from_words(&cumulative);
            store.save_merged(&key, &trie, RetainPolicy::All).unwrap();
            checkpoints.push((std::fs::metadata(&path).unwrap().len(), trie));
        }
        let full_len = checkpoints.last().unwrap().0;
        let cut_len = cut * full_len / 10_000;
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..cut_len as usize]).unwrap();
        // The replayed store equals the latest checkpoint at or below the
        // cut: every fully present record survives, the torn one is
        // skipped.
        let expected = checkpoints
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut_len)
            .map(|(_, trie)| trie)
            .unwrap();
        let replayed = JournalStore::load_matching(&path, &key)
            .unwrap_or_default();
        prop_assert_eq!(replayed.paths(), expected.paths());
        // A fresh write truncates the torn tail and leaves a clean store
        // holding the union.
        let full = trie_from_words(&words);
        JournalStore::save_merged_at(&path, &key, &full, RetainPolicy::All).unwrap();
        prop_assert!(JournalStore::verify(&path).unwrap().is_clean());
        let mut healed_expected = full.clone();
        healed_expected.merge_from(expected);
        let healed = JournalStore::load_matching(&path, &key).unwrap();
        prop_assert_eq!(healed.paths(), healed_expected.paths());
        std::fs::remove_file(&path).ok();
    }
}

/// 8 threads, each with its *own* handle on one shared store, appending
/// interleaved deltas — half of them under one shared key, half under
/// per-thread keys.  No observation may be lost, and the replayed warm
/// tries must be bit-identical to the expected merges.
#[test]
fn eight_thread_shared_store_loses_nothing() {
    let path = tmp_path("stress");
    std::fs::remove_file(&path).ok();
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let threads = 8;
    let rounds = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let path = &path;
            let alphabet = &alphabet;
            scope.spawn(move || {
                // Even threads share one key (their words must merge);
                // odd threads get private keys (their entries must all
                // survive side by side).
                let key = if t % 2 == 0 {
                    StoreKey::new("sul-shared", "v-shared", alphabet)
                } else {
                    StoreKey::new("sul-shared", format!("v{t}"), alphabet)
                };
                let store = JournalStore::open_or_empty(path);
                let mut words: Vec<Vec<usize>> = Vec::new();
                for r in 0..rounds {
                    words.push(vec![t % 4, (t + r) % 4, r % 4]);
                    let trie = trie_from_words(&words);
                    store
                        .save_merged(&key, &trie, RetainPolicy::All)
                        .expect("concurrent append succeeds");
                }
            });
        }
    });

    // Expected: the shared key holds the union of all even threads'
    // words; each odd thread's key holds exactly its own.
    let store = JournalStore::open(&path).unwrap();
    let shared_key = StoreKey::new("sul-shared", "v-shared", &alphabet);
    let mut shared_words: Vec<Vec<usize>> = Vec::new();
    for t in (0..threads).step_by(2) {
        for r in 0..rounds {
            shared_words.push(vec![t % 4, (t + r) % 4, r % 4]);
        }
    }
    let shared = store
        .snapshot(&shared_key)
        .expect("the shared entry survived");
    assert_eq!(
        shared.paths(),
        trie_from_words(&shared_words).paths(),
        "every even thread's observations merged bit-identically"
    );
    for t in (1..threads).step_by(2) {
        let key = StoreKey::new("sul-shared", format!("v{t}"), &alphabet);
        let words: Vec<Vec<usize>> = (0..rounds)
            .map(|r| vec![t % 4, (t + r) % 4, r % 4])
            .collect();
        let entry = store
            .snapshot(&key)
            .unwrap_or_else(|| panic!("thread {t}'s entry was clobbered"));
        assert_eq!(
            entry.paths(),
            trie_from_words(&words).paths(),
            "thread {t}'s warm trie must be bit-identical to what it wrote"
        );
    }
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

/// A handle that synced before another handle *rewrote* the store into a
/// longer file must not mistake the rewrite for appended frames.  Handle
/// A syncs a one-path `v1` store; handle B replaces it with a `v2`-only
/// journal (`RetainPolicy::OnlyThisKey` rewrites through an atomic rename)
/// whose first record is byte-identical to A's, so A's old offset lands on
/// a frame boundary of B's file; A then saves one more `v1` path.  A must
/// re-read the file, not tail-replay B's records into its stale `v1`
/// segment and append its own record inside B's `v2` segment.
#[test]
fn stale_handle_rereads_a_store_rewritten_by_another_handle() {
    let path = tmp_path("stale-handle");
    std::fs::remove_file(&path).ok();
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let v1 = StoreKey::new("sul-stale", "v1", &alphabet);
    let v2 = StoreKey::new("sul-stale", "v2", &alphabet);
    JournalStore::save_merged_at(
        &path,
        &v1,
        &trie_from_words(&[vec![0, 1]]),
        RetainPolicy::All,
    )
    .unwrap();
    let a = JournalStore::open(&path).unwrap();
    let a_len = std::fs::metadata(&path).unwrap().len();

    let b_words: Vec<Vec<usize>> = std::iter::once(vec![0, 1])
        .chain((0..32).map(|i| vec![1 + i % 3, (i / 3) % 4, i / 12]))
        .collect();
    let b_trie = trie_from_words(&b_words);
    JournalStore::open(&path)
        .unwrap()
        .save_merged(&v2, &b_trie, RetainPolicy::OnlyThisKey)
        .unwrap();
    assert!(std::fs::metadata(&path).unwrap().len() > a_len);

    let a_trie = trie_from_words(&[vec![0, 1], vec![0, 2]]);
    a.save_merged(&v1, &a_trie, RetainPolicy::All).unwrap();

    let store = JournalStore::open(&path).unwrap();
    assert_eq!(
        store.snapshot(&v1).expect("v1 survives A's save").paths(),
        a_trie.paths(),
        "v1 holds exactly both of A's paths"
    );
    assert_eq!(
        store.snapshot(&v2).expect("v2 survives A's save").paths(),
        b_trie.paths(),
        "v2 holds exactly B's paths"
    );
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}

/// Set in a child process of [`two_processes_appending_one_store_lose_nothing`]:
/// `<child index>:<store path>`.
const CHILD_ENV: &str = "PROGNOSIS_JOURNAL_TEST_CHILD";

/// The words child process `child` appends: all start with its own
/// symbol, so the two children's paths are disjoint.
fn child_words(child: usize, rounds: usize) -> Vec<Vec<usize>> {
    (0..rounds)
        .map(|r| vec![child, r % 4, (r / 4) % 4, (r / 16) % 4])
        .collect()
}

/// Two real processes append disjoint paths under one key to one store at
/// the same time, one save per word.  The test re-executes its own binary
/// with [`CHILD_ENV`] set to select the child role; both children wait
/// for a start byte on stdin, so their appends overlap.  Afterwards a replay
/// must hold every path from both processes and the journal must verify
/// clean: the writer lock holds across processes, so neither appends at a
/// stale offset over the other's records.
#[test]
fn two_processes_appending_one_store_lose_nothing() {
    const ROUNDS: usize = 48;
    let alphabet = Alphabet::from_symbols(SYMBOLS);
    let key = StoreKey::new("sul-shared", "v-shared", &alphabet);

    if let Ok(role) = std::env::var(CHILD_ENV) {
        let (child, path) = role.split_once(':').expect("child role is <index>:<path>");
        let child: usize = child.parse().expect("child index");
        std::io::stdin()
            .read_exact(&mut [0u8; 1])
            .expect("start byte from the parent");
        let store = JournalStore::open_or_empty(path);
        let words = child_words(child, ROUNDS);
        for n in 1..=words.len() {
            store
                .save_merged(&key, &trie_from_words(&words[..n]), RetainPolicy::All)
                .expect("cross-process append succeeds");
        }
        return;
    }

    let path = tmp_path("two-processes");
    std::fs::remove_file(&path).ok();
    let exe = std::env::current_exe().expect("test binary path");
    let mut children: Vec<_> = (0..2)
        .map(|child| {
            std::process::Command::new(&exe)
                .args([
                    "two_processes_appending_one_store_lose_nothing",
                    "--exact",
                    "--test-threads=1",
                ])
                .env(CHILD_ENV, format!("{child}:{}", path.display()))
                .stdin(std::process::Stdio::piped())
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn child test process")
        })
        .collect();
    for child in &mut children {
        let mut start = child.stdin.take().expect("piped stdin");
        start.write_all(b"g").expect("start the child");
    }
    for mut child in children {
        assert!(child.wait().expect("child exits").success(), "child failed");
    }

    let mut words = child_words(0, ROUNDS);
    words.extend(child_words(1, ROUNDS));
    let replayed = JournalStore::load_matching(&path, &key).expect("the entry survived");
    assert_eq!(
        replayed.paths(),
        trie_from_words(&words).paths(),
        "every path from both processes must replay"
    );
    assert!(JournalStore::verify(&path).unwrap().is_clean());
    std::fs::remove_file(&path).ok();
}
