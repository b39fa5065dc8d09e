//! The journaled observation store: an append-only binary segment log,
//! the one on-disk format for cross-run persistence.
//!
//! The paper's workloads re-learn the same protocol implementations over
//! and over; at campaign scale the observation cache holds hundreds of
//! thousands of `(input, output, terminal)` paths.  A [`JournalStore`]
//! keys its entries by `(SUL id, implementation version, alphabet hash)`
//! ([`StoreKey`]) and persists *deltas*: a save appends only the paths the
//! file does not already cover, framed in a compact binary record format,
//! instead of rewriting the whole document.
//!
//! # File layout
//!
//! ```text
//! magic  "PGNJRNL1"                                  (8 bytes)
//! frame* := tag (1 byte) | payload_len varint | payload | fnv32 (4 bytes LE)
//!
//! tag 0x01  segment header — payload:
//!     sul_id        varint len | bytes
//!     impl_version  varint len | bytes
//!     alphabet_hash u64 LE
//!     symbol_count  varint, then per symbol: varint len | bytes
//! tag 0x02  record — payload (belongs to the most recent segment header):
//!     flags         1 byte (bit0 = terminal)
//!     step_count    varint, then per step:
//!         input_symbol   varint len | bytes
//!         output_symbol  varint len | bytes
//! ```
//!
//! Varints are unsigned LEB128; `fnv32` is the low 32 bits of FNV-1a-64
//! over the payload, so every frame is independently checkable.  Replay
//! stops at the first frame that is short, unknown, or fails its checksum
//! — a torn tail from a crash mid-append costs at most the interrupted
//! record, never the store (crash-safe appends).  The next writer
//! truncates the torn tail before appending, so the file always converges
//! back to a clean frame sequence.
//!
//! # Compaction
//!
//! Appending deltas means superseded paths accumulate: a path that was
//! later extended (its terminal marker and symbols now implied by a longer
//! path) still occupies a record frame.  When the journal holds at least
//! [`COMPACT_MIN_RECORDS`] record frames *and* more than twice as many
//! frames as there are live maximal paths, the store rewrites itself: one
//! segment per key, one record per live path, swapped in by the same
//! fsync-then-rename dance every durable write in this crate uses.
//!
//! # Concurrency and determinism
//!
//! All mutation happens under the path's exclusive writer lock (an OS
//! file lock on a `<store>.lock` sidecar, so it holds across processes as
//! well as threads), and every mutating call re-syncs from the file first
//! (tail replay when it grew, full replay when it was compacted or
//! replaced — told apart by the file's identity, not by its length).
//! Many handles — one per campaign task, or one per process sharing a
//! store — append deltas without a load-merge-rewrite critical section
//! and without losing each other's observations.  Readers take no
//! lock and clone `Arc` snapshots; a warm snapshot is shared, never
//! copied.  Replayed tries depend only on file content, so warm-started
//! learns stay bit-identical to cold ones.
//!
//! # Foreign files
//!
//! [`JournalStore::open`] sniffs the magic bytes.  A file without them —
//! an old JSON cache, a corrupt or unrelated file — loads as an empty
//! store: a sound cold-start miss, since a cache must only ever accelerate
//! a run.  Pure reads never touch it, the first save replaces it with a
//! journal, and [`JournalStore::verify`] reports it as not a journal.

use crate::cache::{atomic_write_durable, CacheError, PathLock, StoreKey};
use crate::trie::{PathCoverage, PrefixTrie};
use prognosis_automata::alphabet::Symbol;
use prognosis_automata::word::{InputWord, OutputWord};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, Metadata};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Magic bytes opening every journal file; the trailing digit is the
/// journal format version.
pub const JOURNAL_MAGIC: &[u8; 8] = b"PGNJRNL1";

/// Frame tag: a segment header carrying a [`StoreKey`].
const FRAME_SEGMENT: u8 = 0x01;
/// Frame tag: one `(input, output, terminal)` observation path.
const FRAME_RECORD: u8 = 0x02;

/// Compaction never triggers below this many record frames — tiny stores
/// rewrite so fast that append-only bookkeeping isn't worth churning.
pub const COMPACT_MIN_RECORDS: usize = 1024;

/// FNV-1a-64 (same function the cache key uses for alphabets).
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The per-frame checksum: FNV-1a-64 truncated to its low 32 bits.
fn frame_checksum(payload: &[u8]) -> u32 {
    fnv1a(payload) as u32
}

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = read_varint(bytes, pos)? as usize;
    let slice = bytes.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    std::str::from_utf8(slice).ok()
}

fn push_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    out.extend_from_slice(&frame_checksum(payload).to_le_bytes());
}

fn encode_segment_header(key: &StoreKey) -> Vec<u8> {
    let mut payload = Vec::new();
    write_bytes(&mut payload, key.sul_id().as_bytes());
    write_bytes(&mut payload, key.impl_version().as_bytes());
    payload.extend_from_slice(&key.alphabet_hash().to_le_bytes());
    write_varint(&mut payload, key.alphabet().len() as u64);
    for symbol in key.alphabet() {
        write_bytes(&mut payload, symbol.as_bytes());
    }
    payload
}

fn decode_segment_header(payload: &[u8]) -> Option<StoreKey> {
    let mut pos = 0;
    let sul_id = read_str(payload, &mut pos)?.to_string();
    let impl_version = read_str(payload, &mut pos)?.to_string();
    let hash_bytes = payload.get(pos..pos + 8)?;
    let alphabet_hash = u64::from_le_bytes(hash_bytes.try_into().ok()?);
    pos += 8;
    let count = read_varint(payload, &mut pos)? as usize;
    let mut alphabet = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        alphabet.push(read_str(payload, &mut pos)?.to_string());
    }
    (pos == payload.len())
        .then(|| StoreKey::from_parts(sul_id, impl_version, alphabet, alphabet_hash))
}

fn encode_record(input: &[Symbol], output: &[Symbol], terminal: bool) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.push(u8::from(terminal));
    write_varint(&mut payload, input.len() as u64);
    for (i, o) in input.iter().zip(output.iter()) {
        write_bytes(&mut payload, i.as_str().as_bytes());
        write_bytes(&mut payload, o.as_str().as_bytes());
    }
    payload
}

/// Returns the one shared [`Symbol`] for `s`, minting it on first sight.
/// Replaying a 100k-record journal touches the same few dozen symbol
/// spellings over and over; interning makes each an `Arc` clone instead
/// of a fresh allocation.
fn intern(interner: &mut HashMap<String, Symbol>, s: &str) -> Symbol {
    if let Some(symbol) = interner.get(s) {
        return symbol.clone();
    }
    let symbol = Symbol::new(s);
    interner.insert(s.to_string(), symbol.clone());
    symbol
}

fn decode_record(
    payload: &[u8],
    interner: &mut HashMap<String, Symbol>,
) -> Option<(Vec<Symbol>, Vec<Symbol>, bool)> {
    let flags = *payload.first()?;
    if flags > 1 {
        return None;
    }
    let mut pos = 1;
    let steps = read_varint(payload, &mut pos)? as usize;
    let mut input = Vec::with_capacity(steps.min(payload.len()));
    let mut output = Vec::with_capacity(steps.min(payload.len()));
    for _ in 0..steps {
        input.push(intern(interner, read_str(payload, &mut pos)?));
        output.push(intern(interner, read_str(payload, &mut pos)?));
    }
    (pos == payload.len()).then_some((input, output, flags & 1 == 1))
}

/// Where the bytes behind a store's in-memory state came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreFormat {
    /// A binary journal (this module's only format).
    Journal,
    /// No file, or one that is not a journal — treated as absent, the
    /// universal "a cache must only ever accelerate" rule.
    Absent,
}

/// What a save keeps besides the entry it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetainPolicy {
    /// Drop every other key — the single-run pipeline semantics, where a
    /// cache file follows its run's key and a key change (new alphabet,
    /// new SUL) soundly invalidates the whole file.
    OnlyThisKey,
    /// Keep all keys side by side — the campaign semantics, where one
    /// shared store accumulates every `(SUL, version, alphabet)` cell.
    All,
}

/// In-memory replay state: the decoded entries plus enough context to
/// continue replaying appended frames later (tail replay).
struct ReplayState {
    entries: BTreeMap<StoreKey, Arc<PrefixTrie>>,
    last_header_key: Option<StoreKey>,
    record_frames: usize,
    contradictions: usize,
    interner: HashMap<String, Symbol>,
}

impl ReplayState {
    fn empty() -> Self {
        ReplayState {
            entries: BTreeMap::new(),
            last_header_key: None,
            record_frames: 0,
            contradictions: 0,
            interner: HashMap::new(),
        }
    }

    /// Replays frames from `bytes[start..]`, mutating the state, and
    /// returns the offset just past the last good frame.  Stops (without
    /// error) at the first short, unknown, or checksum-failing frame —
    /// that is the crash-safe torn-tail rule.
    fn replay_frames(&mut self, bytes: &[u8], start: usize) -> usize {
        let mut pos = start;
        loop {
            let frame_start = pos;
            let Some(&tag) = bytes.get(pos) else {
                return frame_start;
            };
            pos += 1;
            let Some(len) = read_varint(bytes, &mut pos) else {
                return frame_start;
            };
            let len = len as usize;
            let Some(payload) = pos.checked_add(len).and_then(|end| bytes.get(pos..end)) else {
                return frame_start;
            };
            pos += len;
            let Some(stored) = bytes.get(pos..pos + 4) else {
                return frame_start;
            };
            let stored = u32::from_le_bytes(stored.try_into().expect("4-byte slice"));
            pos += 4;
            if stored != frame_checksum(payload) {
                return frame_start;
            }
            match tag {
                FRAME_SEGMENT => match decode_segment_header(payload) {
                    Some(key) => self.last_header_key = Some(key),
                    None => return frame_start,
                },
                FRAME_RECORD => {
                    let Some(key) = self.last_header_key.clone() else {
                        // A record before any segment header is not a
                        // valid stream; treat it as the torn tail.
                        return frame_start;
                    };
                    let Some((input, output, terminal)) =
                        decode_record(payload, &mut self.interner)
                    else {
                        return frame_start;
                    };
                    self.record_frames += 1;
                    // Single-pass apply: classify, insert the fresh suffix
                    // and set the terminal marker in one trie walk (the old
                    // coverage/insert/mark sequence walked thrice per
                    // record).  `make_mut` is a plain deref while replay
                    // owns the entry, which it does except when a caller
                    // still holds a previously loaded snapshot.
                    let trie = Arc::make_mut(self.entries.entry(key).or_default());
                    match trie.apply_path(&input, &output, terminal) {
                        Ok(PathCoverage::Contradicts) => self.contradictions += 1,
                        Ok(_) => {}
                        Err(_) => return frame_start,
                    }
                }
                _ => return frame_start,
            }
        }
    }
}

/// The store's synced view of its file.
struct State {
    entries: BTreeMap<StoreKey, Arc<PrefixTrie>>,
    /// File length the state reflects — the offset appends continue at
    /// (everything past it is a torn tail to truncate).
    synced_len: u64,
    /// Record frames replayed (including superseded/covered ones) — the
    /// compaction trigger's numerator.
    record_frames: usize,
    /// Key of the file's most recent segment header; appending records
    /// for a different key must write a fresh header first.
    last_header_key: Option<StoreKey>,
    source: StoreFormat,
    /// The file the state was synced from, held open: appends keep its
    /// identity, a rewrite by another handle (rename over the path)
    /// replaces it, and holding it stops the OS from reusing its inode for
    /// a later file at the path.
    synced_file: Option<File>,
}

impl State {
    fn empty() -> Self {
        State {
            entries: BTreeMap::new(),
            synced_len: 0,
            record_frames: 0,
            last_header_key: None,
            source: StoreFormat::Absent,
            synced_file: None,
        }
    }

    fn live_paths(&self) -> usize {
        self.entries.values().map(|t| t.path_count()).sum()
    }
}

/// Summary counters for one keyed entry, as reported by
/// [`JournalStore::stats`].
#[derive(Clone, Debug)]
pub struct EntryStats {
    /// The entry's key.
    pub key: StoreKey,
    /// Maximal observation paths the entry replays to.
    pub paths: usize,
    /// Words recorded as full queries.
    pub terminal_words: usize,
    /// Trie nodes (cached symbols, plus the root).
    pub nodes: usize,
}

/// What [`JournalStore::stats`] reports about a store file.
#[derive(Clone, Debug)]
pub struct JournalStats {
    /// The on-disk format the file was read as.
    pub format: StoreFormat,
    /// File size in bytes (0 when absent).
    pub file_bytes: u64,
    /// Record frames in the journal (0 when absent).
    pub record_frames: usize,
    /// Live maximal paths across all entries — what a fresh compaction
    /// would write.
    pub live_paths: usize,
    /// Per-entry breakdowns, in deterministic key order.
    pub entries: Vec<EntryStats>,
}

/// What [`JournalStore::verify`] reports about a store file's integrity.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// The on-disk format the file was read as.
    pub format: StoreFormat,
    /// Bytes of well-formed frames (0 when absent).
    pub sound_bytes: u64,
    /// Bytes past the last good frame — a torn tail from an interrupted
    /// append (0 for a clean file).
    pub torn_bytes: u64,
    /// Records skipped because they contradicted earlier records under the
    /// same key (first record wins; should be 0 for stores written solely
    /// by this crate).
    pub contradictions: usize,
    /// Keys whose stored alphabet hash does not match a fresh hash of the
    /// spelled-out symbols (corrupt or hand-edited headers).
    pub inconsistent_keys: Vec<StoreKey>,
}

impl VerifyReport {
    /// Whether the store is fully sound: no torn tail, no contradictions,
    /// no inconsistent keys.
    pub fn is_clean(&self) -> bool {
        self.torn_bytes == 0 && self.contradictions == 0 && self.inconsistent_keys.is_empty()
    }
}

/// The outcome of a [`JournalStore::compact`] call.
#[derive(Clone, Copy, Debug)]
pub struct CompactOutcome {
    /// File size before compaction (0 when the file was absent).
    pub before_bytes: u64,
    /// File size after compaction.
    pub after_bytes: u64,
    /// Record frames before compaction.
    pub before_records: usize,
    /// Record frames after — exactly the live path count.
    pub after_records: usize,
}

/// A handle on a journaled observation store at one path.  Cheap to open
/// (one replay), cheap to read (snapshots are shared `Arc`s), and safe to
/// hold many of, in one process or several: every mutation re-syncs from
/// the file under the path's writer lock before appending its delta.
pub struct JournalStore {
    path: PathBuf,
    state: Mutex<State>,
}

impl JournalStore {
    /// Opens the store at `path`, replaying the journal.  A missing file
    /// or one that is not a journal is an empty store; a corrupt journal
    /// loads its sound prefix.  Pure loads never modify the file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        let path = path.as_ref().to_path_buf();
        let state = match open_existing(&path)? {
            Some(file) => replay_all(file)?,
            None => State::empty(),
        };
        Ok(JournalStore {
            path,
            state: Mutex::new(state),
        })
    }

    /// [`JournalStore::open`], degrading any read error to an empty store
    /// — the cache-must-only-accelerate rule.
    pub fn open_or_empty(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        JournalStore::open(&path).unwrap_or_else(|_| JournalStore {
            path,
            state: Mutex::new(State::empty()),
        })
    }

    /// The path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The on-disk format the store was read as.
    pub fn format(&self) -> StoreFormat {
        self.state.lock().expect("journal state poisoned").source
    }

    /// The trie cached for exactly `key`, as a shared snapshot (cloning
    /// the `Arc`, not the trie).  Reflects the file as of open / the last
    /// mutation through *this* handle.
    pub fn snapshot(&self, key: &StoreKey) -> Option<Arc<PrefixTrie>> {
        self.state
            .lock()
            .expect("journal state poisoned")
            .entries
            .get(key)
            .cloned()
    }

    /// All entries as shared snapshots, in deterministic key order — the
    /// campaign-start warm view every cell reads from.
    pub fn snapshot_entries(&self) -> BTreeMap<StoreKey, Arc<PrefixTrie>> {
        self.state
            .lock()
            .expect("journal state poisoned")
            .entries
            .clone()
    }

    /// One-shot warm-start read: the trie persisted for `key` at `path`,
    /// or `None` on any miss (no file, unreadable, no such key).
    pub fn load_matching(path: impl AsRef<Path>, key: &StoreKey) -> Option<PrefixTrie> {
        let store = JournalStore::open(path).ok()?;
        store.snapshot(key).map(|trie| (*trie).clone())
    }

    /// Persists `trie` under `key`: merges over what the file already
    /// holds for that key and appends only the *delta* — the paths the
    /// store does not cover yet.  An up-to-date store costs zero writes.
    ///
    /// Falls back to a full (atomic, durable) rewrite when appending
    /// can't express the change: a contradictory existing entry (a stale
    /// cache from before the implementation changed behaviour) is replaced
    /// wholesale by the live trie, [`RetainPolicy::OnlyThisKey`] drops
    /// other keys, an absent or foreign file is written out as a journal,
    /// and a journal past its compaction threshold is compacted on the way
    /// out.
    ///
    /// The whole resync-merge-append runs under the path's writer lock, so
    /// concurrent savers through any number of handles, in any number of
    /// processes, leave the union of their observations on disk.
    pub fn save_merged(
        &self,
        key: &StoreKey,
        trie: &PrefixTrie,
        retain: RetainPolicy,
    ) -> Result<(), CacheError> {
        let _lock = PathLock::acquire(&self.path)?;
        let mut state = self.state.lock().expect("journal state poisoned");
        resync(&mut state, &self.path)?;

        // Classify the live trie's paths against the synced snapshot.
        let snapshot = state.entries.get(key).cloned();
        let mut fresh: Vec<(Vec<Symbol>, Vec<Symbol>, bool)> = Vec::new();
        let mut contradicts = false;
        match &snapshot {
            Some(existing) => {
                trie.for_each_path(|input, output, terminal| {
                    if contradicts {
                        return;
                    }
                    match existing.coverage(input, output, terminal) {
                        PathCoverage::Covered => {}
                        PathCoverage::Fresh => {
                            fresh.push((input.to_vec(), output.to_vec(), terminal))
                        }
                        PathCoverage::Contradicts => contradicts = true,
                    }
                });
            }
            None => {
                trie.for_each_path(|input, output, terminal| {
                    fresh.push((input.to_vec(), output.to_vec(), terminal));
                });
            }
        }

        // Decide the merged entry value.
        let merged: Arc<PrefixTrie> = if contradicts {
            // The disk cache disagrees with what the SUL just answered;
            // drop it wholesale rather than persist a mixture.
            Arc::new(trie.clone())
        } else {
            match snapshot {
                Some(existing) => {
                    if fresh.is_empty() {
                        existing
                    } else {
                        let mut merged = (*existing).clone();
                        for (input, output, terminal) in &fresh {
                            let input = InputWord::from(input.clone());
                            let output = OutputWord::from(output.clone());
                            merged.insert(&input, &output);
                            if *terminal {
                                merged.mark_terminal(&input);
                            }
                        }
                        Arc::new(merged)
                    }
                }
                None => Arc::new(trie.clone()),
            }
        };

        let drops_other_keys =
            retain == RetainPolicy::OnlyThisKey && state.entries.keys().any(|k| k != key);
        let needs_rewrite = contradicts || drops_other_keys || state.source != StoreFormat::Journal;

        if needs_rewrite {
            if retain == RetainPolicy::OnlyThisKey {
                state.entries.clear();
            }
            state.entries.insert(key.clone(), merged);
            rewrite(&mut state, &self.path)?;
            return Ok(());
        }

        if fresh.is_empty() && state.entries.contains_key(key) {
            return Ok(()); // Fully covered: zero writes.
        }

        // Append the delta: a segment header when the file's current
        // segment is for a different key, then one record per fresh path.
        let mut bytes = Vec::new();
        if state.last_header_key.as_ref() != Some(key) {
            push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
        }
        for (input, output, terminal) in &fresh {
            push_frame(
                &mut bytes,
                FRAME_RECORD,
                &encode_record(input, output, *terminal),
            );
        }
        append_durable(&self.path, state.synced_len, &bytes)?;
        state.synced_len += bytes.len() as u64;
        state.record_frames += fresh.len();
        state.last_header_key = Some(key.clone());
        state.entries.insert(key.clone(), merged);

        // Threshold-triggered compaction: once superseded records
        // outnumber live paths 2:1 (and the store is big enough to care),
        // rewrite live paths into a fresh segment and swap it in.
        if state.record_frames >= COMPACT_MIN_RECORDS
            && state.record_frames > 2 * state.live_paths()
        {
            rewrite(&mut state, &self.path)?;
        }
        Ok(())
    }

    /// One-shot persistence write: open, merge, save — the single-run
    /// pipeline's persistence path.
    pub fn save_merged_at(
        path: impl AsRef<Path>,
        key: &StoreKey,
        trie: &PrefixTrie,
        retain: RetainPolicy,
    ) -> Result<(), CacheError> {
        JournalStore::open_or_empty(path).save_merged(key, trie, retain)
    }

    /// Rewrites the store as one segment per key holding only live paths,
    /// regardless of thresholds.  Returns the before/after sizes.
    pub fn compact(&self) -> Result<CompactOutcome, CacheError> {
        let _lock = PathLock::acquire(&self.path)?;
        let mut state = self.state.lock().expect("journal state poisoned");
        resync(&mut state, &self.path)?;
        let before_bytes = state.synced_len;
        let before_records = state.record_frames;
        rewrite(&mut state, &self.path)?;
        Ok(CompactOutcome {
            before_bytes,
            after_bytes: state.synced_len,
            before_records,
            after_records: state.record_frames,
        })
    }

    /// Summarizes the store: format, sizes, per-entry path counts.
    pub fn stats(&self) -> JournalStats {
        let state = self.state.lock().expect("journal state poisoned");
        JournalStats {
            format: state.source,
            file_bytes: std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0),
            record_frames: state.record_frames,
            live_paths: state.live_paths(),
            entries: state
                .entries
                .iter()
                .map(|(key, trie)| EntryStats {
                    key: key.clone(),
                    paths: trie.path_count(),
                    terminal_words: trie.terminal_words(),
                    nodes: trie.num_nodes(),
                })
                .collect(),
        }
    }

    /// Integrity-checks the file at `path` without modifying it: frame
    /// checksums, torn tail, replay contradictions, key-hash consistency.
    /// A file that is not a journal is a [`CacheError::Format`] error.
    pub fn verify(path: impl AsRef<Path>) -> Result<VerifyReport, CacheError> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(VerifyReport {
                    format: StoreFormat::Absent,
                    sound_bytes: 0,
                    torn_bytes: 0,
                    contradictions: 0,
                    inconsistent_keys: Vec::new(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        if !bytes.starts_with(JOURNAL_MAGIC) {
            return Err(CacheError::Format(
                "not a journal (no PGNJRNL1 magic)".into(),
            ));
        }
        let mut replay = ReplayState::empty();
        let good_len = replay.replay_frames(&bytes, JOURNAL_MAGIC.len());
        let inconsistent_keys = replay
            .entries
            .keys()
            .filter(|k| !k.hash_consistent())
            .cloned()
            .collect();
        Ok(VerifyReport {
            format: StoreFormat::Journal,
            sound_bytes: good_len as u64,
            torn_bytes: (bytes.len() - good_len) as u64,
            contradictions: replay.contradictions,
            inconsistent_keys,
        })
    }
}

/// Opens the file at `path` for reading, or `None` when it does not exist.
fn open_existing(path: &Path) -> Result<Option<File>, CacheError> {
    match File::open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// A full replay of `file`, which the state then holds as its synced file.
/// A file that is not a journal replays as the empty state.
fn replay_all(mut file: File) -> Result<State, CacheError> {
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if !bytes.starts_with(JOURNAL_MAGIC) {
        // Not a journal — an old JSON cache, corrupt beyond its magic,
        // hand-edited, whatever: it loads as empty and is *replaced* by
        // the first write.  A cache only ever accelerates.
        return Ok(State::empty());
    }
    let mut replay = ReplayState::empty();
    let good_len = replay.replay_frames(&bytes, JOURNAL_MAGIC.len());
    Ok(State {
        entries: replay.entries,
        synced_len: good_len as u64,
        record_frames: replay.record_frames,
        last_header_key: replay.last_header_key,
        source: StoreFormat::Journal,
        synced_file: Some(file),
    })
}

/// Whether two metadata snapshots describe the same file.  Off Unix the
/// identity is unknown, so every resync replays the whole file.
#[cfg(unix)]
fn same_file(a: &Metadata, b: &Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    a.dev() == b.dev() && a.ino() == b.ino()
}

#[cfg(not(unix))]
fn same_file(_: &Metadata, _: &Metadata) -> bool {
    false
}

/// Brings `state` up to date with the file before a mutation.  The same
/// file at a length of at least the synced one is unchanged or grew by
/// appends, which get a tail replay from the synced offset; anything else
/// — shrunk, or a different file because another handle rewrote the
/// store — gets a full replay.  Comparing identity rather than length
/// matters: tail-replaying a rewritten file would credit its frames to
/// this handle's stale segment key and append into the wrong segment.
fn resync(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let Some(mut file) = open_existing(path)? else {
        *state = State::empty();
        return Ok(());
    };
    let meta = file.metadata()?;
    let appended_only = state.source == StoreFormat::Journal
        && meta.len() >= state.synced_len
        && match &state.synced_file {
            Some(synced) => same_file(&synced.metadata()?, &meta),
            None => false,
        };
    if !appended_only {
        *state = replay_all(file)?;
    } else if meta.len() > state.synced_len {
        // The journal grew (another handle appended): replay just the
        // tail.  Frame boundaries are stable because every writer appends
        // at its synced offset under the same writer lock.
        let mut tail = Vec::new();
        file.seek(SeekFrom::Start(state.synced_len))?;
        file.read_to_end(&mut tail)?;
        let mut replay = ReplayState {
            entries: std::mem::take(&mut state.entries),
            last_header_key: state.last_header_key.take(),
            record_frames: state.record_frames,
            contradictions: 0,
            interner: HashMap::new(),
        };
        let good_len = replay.replay_frames(&tail, 0);
        state.entries = replay.entries;
        state.synced_len += good_len as u64;
        state.record_frames = replay.record_frames;
        state.last_header_key = replay.last_header_key;
    }
    Ok(())
}

/// Appends `bytes` at `offset`, truncating any torn tail past it first,
/// and fsyncs — the append half of crash-safe persistence (a crash
/// mid-append leaves a torn tail the next replay skips and the next
/// append truncates).
fn append_durable(path: &Path, offset: u64, bytes: &[u8]) -> Result<(), CacheError> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let mut file = file;
    if file.metadata()?.len() != offset {
        file.set_len(offset)?;
    }
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(())
}

/// Serializes the state's entries as a fresh journal — one segment per
/// key, one record per live path — and atomically, durably swaps it in.
/// This is both the compaction path and the key-replacement path.
fn rewrite(state: &mut State, path: &Path) -> Result<(), CacheError> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(JOURNAL_MAGIC);
    let mut records = 0;
    let mut last_key = None;
    for (key, trie) in &state.entries {
        push_frame(&mut bytes, FRAME_SEGMENT, &encode_segment_header(key));
        trie.for_each_path(|input, output, terminal| {
            push_frame(
                &mut bytes,
                FRAME_RECORD,
                &encode_record(input, output, terminal),
            );
            records += 1;
        });
        last_key = Some(key.clone());
    }
    atomic_write_durable(path, &bytes)?;
    // Under the writer lock the renamed file is this one; should reopening
    // fail, the next resync just replays the whole file.
    state.synced_file = File::open(path).ok();
    state.synced_len = bytes.len() as u64;
    state.record_frames = records;
    state.last_header_key = last_key;
    state.source = StoreFormat::Journal;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosis_automata::alphabet::Alphabet;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "prognosis-journal-test-{}-{name}",
            std::process::id()
        ))
    }

    fn key(alphabet: &Alphabet) -> StoreKey {
        StoreKey::new("sul-1", "", alphabet)
    }

    fn sample_trie() -> PrefixTrie {
        let mut trie = PrefixTrie::new();
        trie.insert(
            &InputWord::from_symbols(["a", "b"]),
            &OutputWord::from_symbols(["1", "2"]),
        );
        trie.mark_terminal(&InputWord::from_symbols(["a", "b"]));
        trie
    }

    #[test]
    fn save_and_reload_round_trips_the_trie() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("roundtrip.journal");
        let k = key(&alphabet);
        // Whatever the path holds first — nothing, an old JSON cache,
        // garbage, a future journal version — is an empty store and a
        // miss, never an error, and the first save replaces it.
        for before in [
            None,
            Some(&br#"{"version":2,"sul_id":"sul-1","entries":[]}"#[..]),
            Some(&b"{ not json"[..]),
            Some(&b"PGNJRNL2\x01\x00"[..]),
        ] {
            std::fs::remove_file(&path).ok();
            if let Some(bytes) = before {
                std::fs::write(&path, bytes).unwrap();
                assert!(
                    matches!(JournalStore::verify(&path), Err(CacheError::Format(_))),
                    "verify reports a foreign file as not a journal"
                );
            }
            let store = JournalStore::open(&path).unwrap();
            assert_eq!(store.format(), StoreFormat::Absent);
            assert!(store.snapshot_entries().is_empty());
            assert!(JournalStore::load_matching(&path, &k).is_none());
            assert_eq!(
                std::fs::read(&path).ok().as_deref(),
                before,
                "reads never write"
            );
            store
                .save_merged(&k, &sample_trie(), RetainPolicy::OnlyThisKey)
                .unwrap();
            assert!(JournalStore::verify(&path).unwrap().is_clean());
            let loaded = JournalStore::load_matching(&path, &k).unwrap();
            assert_eq!(loaded.paths(), sample_trie().paths());
        }
        // Any other SUL id, implementation version or alphabet misses.
        for other in [
            StoreKey::new("sul-2", "", &alphabet),
            StoreKey::new("sul-1", "v2", &alphabet),
            StoreKey::new("sul-1", "", &Alphabet::from_symbols(["a", "b", "c"])),
        ] {
            assert!(JournalStore::load_matching(&path, &other).is_none());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_saves_write_nothing() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("covered.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        store
            .save_merged(&k, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        store
            .save_merged(&k, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len,
            "a fully covered save must append no bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deltas_append_instead_of_rewriting() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("delta.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        store
            .save_merged(&k, &sample_trie(), RetainPolicy::All)
            .unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let mut grown = sample_trie();
        grown.insert(
            &InputWord::from_symbols(["b"]),
            &OutputWord::from_symbols(["9"]),
        );
        grown.mark_terminal(&InputWord::from_symbols(["b"]));
        store.save_merged(&k, &grown, RetainPolicy::All).unwrap();
        let grown_len = std::fs::metadata(&path).unwrap().len();
        assert!(grown_len > len, "a fresh path must append");
        // The append was a delta: no second segment header, one record.
        let reread = JournalStore::open(&path).unwrap();
        assert_eq!(
            reread.snapshot(&k).unwrap().paths(),
            grown.paths(),
            "the reread store must replay to the merged trie"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn key_mismatch_with_only_this_key_replaces_the_file() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let bigger = Alphabet::from_symbols(["a", "b", "c"]);
        let path = tmp_path("replace.journal");
        std::fs::remove_file(&path).ok();
        let k1 = key(&alphabet);
        let k2 = key(&bigger);
        JournalStore::save_merged_at(&path, &k1, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        JournalStore::save_merged_at(&path, &k2, &sample_trie(), RetainPolicy::OnlyThisKey)
            .unwrap();
        assert!(JournalStore::load_matching(&path, &k1).is_none());
        assert!(JournalStore::load_matching(&path, &k2).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retain_all_keeps_keys_side_by_side() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("retain-all.journal");
        std::fs::remove_file(&path).ok();
        let k1 = StoreKey::new("sul-1", "v1", &alphabet);
        let k2 = StoreKey::new("sul-1", "v2", &alphabet);
        // v1 answers a·b → 1·2, v2 answers a·b → 1·9.
        let mut other = PrefixTrie::new();
        other.insert(
            &InputWord::from_symbols(["a", "b"]),
            &OutputWord::from_symbols(["1", "9"]),
        );
        other.mark_terminal(&InputWord::from_symbols(["a", "b"]));
        JournalStore::save_merged_at(&path, &k1, &sample_trie(), RetainPolicy::All).unwrap();
        JournalStore::save_merged_at(&path, &k2, &other, RetainPolicy::All).unwrap();
        let store = JournalStore::open(&path).unwrap();
        let entries = store.snapshot_entries();
        assert_eq!(entries.len(), 2);
        // The replayed view does not depend on save order.
        let reversed = tmp_path("retain-all-reversed.journal");
        std::fs::remove_file(&reversed).ok();
        JournalStore::save_merged_at(&reversed, &k2, &other, RetainPolicy::All).unwrap();
        JournalStore::save_merged_at(&reversed, &k1, &sample_trie(), RetainPolicy::All).unwrap();
        let reversed_entries = JournalStore::open(&reversed).unwrap().snapshot_entries();
        assert!(entries.keys().eq(reversed_entries.keys()));
        for (a, b) in entries.values().zip(reversed_entries.values()) {
            assert_eq!(a.paths(), b.paths());
        }
        // Versions of one SUL diff from the store alone.
        let diffs = entries[&k1].divergences(&entries[&k2], 0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].input, InputWord::from_symbols(["a", "b"]));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&reversed).ok();
    }

    #[test]
    fn contradictory_existing_entry_is_replaced_wholesale() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("contradiction.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        JournalStore::save_merged_at(&path, &k, &sample_trie(), RetainPolicy::All).unwrap();
        let mut live = PrefixTrie::new();
        live.insert(
            &InputWord::from_symbols(["a", "b"]),
            &OutputWord::from_symbols(["9", "2"]),
        );
        live.mark_terminal(&InputWord::from_symbols(["a", "b"]));
        JournalStore::save_merged_at(&path, &k, &live, RetainPolicy::All).unwrap();
        let loaded = JournalStore::load_matching(&path, &k).unwrap();
        assert_eq!(
            loaded.lookup(&InputWord::from_symbols(["a", "b"])),
            Some(OutputWord::from_symbols(["9", "2"]))
        );
        assert_eq!(loaded.terminal_words(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_shrinks_and_replays_identically() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("compact.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        let store = JournalStore::open_or_empty(&path);
        // Grow one un-terminal word a symbol at a time: each round's
        // record (the trie's single maximal leaf path) supersedes the
        // previous round's shorter one, so the journal accumulates dead
        // frames while exactly one path stays live.
        let symbols: Vec<String> = (0..40).map(|i| ["a", "b"][i % 2].to_string()).collect();
        let mut trie = PrefixTrie::new();
        for n in 1..=symbols.len() {
            let input = InputWord::from_symbols(symbols[..n].iter().cloned());
            let output = OutputWord::from_symbols((0..n).map(|i| format!("o{i}")));
            trie.insert(&input, &output);
            store.save_merged(&k, &trie, RetainPolicy::All).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let outcome = store.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction must shrink ({before} -> {after})"
        );
        assert_eq!(outcome.after_bytes, after);
        assert!(outcome.after_records < outcome.before_records);
        let replayed = JournalStore::load_matching(&path, &k).unwrap();
        assert_eq!(
            replayed.paths(),
            trie.paths(),
            "the compacted store must replay to the identical trie"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_reports_clean_stores_and_torn_tails() {
        let alphabet = Alphabet::from_symbols(["a", "b"]);
        let path = tmp_path("verify.journal");
        std::fs::remove_file(&path).ok();
        let k = key(&alphabet);
        JournalStore::save_merged_at(&path, &k, &sample_trie(), RetainPolicy::All).unwrap();
        assert!(JournalStore::verify(&path).unwrap().is_clean());
        // Torn tail: chop bytes off the end.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let report = JournalStore::verify(&path).unwrap();
        assert!(!report.is_clean());
        assert!(report.torn_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn varints_round_trip() {
        for value in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, value);
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), Some(value));
            assert_eq!(pos, out.len());
        }
    }
}
