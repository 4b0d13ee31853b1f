//! Probe/result memo cache for verification probes.
//!
//! The Duoquest verifier issues enormous numbers of nearly identical
//! `SELECT … LIMIT 1` probes: sibling states in the GPQE search tree share
//! projections, predicates and join paths, so the same probe spec is executed
//! over and over. This cache memoizes each probe's answer under the question
//! it asked, so repeated probes are answered without touching the join
//! pipeline.
//!
//! A cached probe answers one of three [`Question`]s about a spec. A
//! synthesis run asks two, both yes/no: whether the spec returns any row at
//! all — the **existence** question the verifier's column-wise and row-wise
//! `LIMIT 1` probes ask, and the bulk of what a run caches
//! ([`ProbeCache::get_exists`], [`ProbeCache::insert_exists`]) — and a
//! caller's **verdict** on its rows — the sketch checks a complete candidate
//! ends its branch with, named by a caller tag
//! ([`ProbeCache::get_verdict`], [`ProbeCache::insert_verdict`]). Both keep
//! one bit. The third, the spec's complete **rows** ([`ProbeCache::get`],
//! [`ProbeCache::insert`]), backs `Database::execute_cached` and is the only
//! answer that keeps rows. No answer is cut at a row budget, so every answer
//! stored under one key is the same answer, and an insert keeps whichever
//! entry is already there.
//!
//! Design:
//!
//! * **Sharded.** Entries live in [`SHARD_COUNT`] independent `RwLock`ed
//!   shards, the shard picked by an FNV-1a hash of the entry's encoded key,
//!   so concurrent sessions on a shared database rarely contend on the same
//!   lock, and read-mostly traffic (cache hits) takes only shared locks.
//! * **Collision-safe.** An entry's key is the question's tag, the spec's
//!   exact byte encoding (`encode::encode_spec`: lengths prefixed, numbers
//!   by their folded bits — every NaN is one NaN, `-0.0` is `0.0` — text by
//!   its bytes) and, for a verdict, the caller's tag after them. Equal specs
//!   encode equally and distinct specs distinctly, and a lookup compares the
//!   whole key (hashes only pick the shard and the table slot), so two
//!   distinct specs, the three questions about one spec, or two tags can
//!   never alias an entry. A lookup encodes into a reused per-thread buffer,
//!   so a hit allocates nothing.
//! * **Packed.** A generation keeps its keys' bytes back to back in one
//!   arena of fixed 256-byte chunks, each key after its varint length, and
//!   indexes them with a power-of-two table of 12-byte records — the key's
//!   arena offset, 32 bits of its hash and the answer: a bit, a moved mark,
//!   or an index into a side table of the harness-only rows answers. So an
//!   existence or verdict entry costs its key and about one and a half
//!   records (≈ 77 B on the benchmark's Spider probes), in a handful of
//!   allocations per generation instead of two per entry. The table's hash
//!   is keyed per cache (std `RandomState`): verdict tags and literals carry
//!   values a user typed, and a keyed hash keeps crafted ones from piling
//!   into one probe sequence. An entry's estimated bytes are derived from
//!   its key's length and its answer, not stored.
//! * **Shared results.** A rows answer is an `Arc<ResultSet>` so a hit is a
//!   pointer clone, not a row copy; an existence or verdict answer is one bit
//!   and keeps no rows.
//! * **Observable.** A run's [`RunCacheCounters`] feed the engine's
//!   `EnumerationStats`, making cache effectiveness visible per synthesis run.
//! * **Segment-rotation eviction.** Each shard keeps two generations of
//!   entries, a *fresh* and a *stale* one. Inserts land in the fresh
//!   generation; a stale hit promotes the entry back to fresh (its key is
//!   copied into the fresh arena and the stale record marked moved). When an insert would push a
//!   shard's fresh payload past half its byte budget (the cache cap split
//!   evenly across shards), the shard **rotates** first: the stale
//!   generation is dropped, fresh becomes stale, and a new fresh generation
//!   starts. Entries untouched for two rotations therefore age out, while
//!   anything the workload keeps re-probing is promoted and survives
//!   indefinitely — so the hit rate stays high under churn instead of
//!   collapsing the way the previous design (stop admitting beyond the cap)
//!   did.
//!
//! **Invalidation.** A write to the database (`insert`, `insert_all`,
//! `update_cell`) drops every entry, of every question. The writer holds the
//! database exclusively, so no probe is in flight: the write's clear
//! (`clear_mut`) takes no lock but reaches each shard through
//! `RwLock::get_mut`, and leaves a shard that holds nothing untouched, so a
//! row loaded into an empty cache costs a look at each shard and no lock.
//! The shared [`ProbeCache::clear`] is the same per-shard reset under each
//! shard's write lock. Either clear discards a poisoned shard's contents and
//! heals its lock: a memo is disposable, and a panic under one shard's lock
//! must not fail every later probe of that shard.
//!
//! The byte budget defaults to [`ProbeCache::DEFAULT_MAX_BYTES`] and can be
//! tuned per cache ([`ProbeCache::set_max_bytes`], or
//! `Database::set_probe_cache_capacity`). Retention is strictly bounded by
//! the budget: each generation stays within half a shard's slice (inserts
//! rotate first, promotions that would overflow are skipped, and a result
//! too large for half a slice on its own is returned uncached). A generation
//! also stays within 4 GiB, so a budget above 128 GiB retains 128 GiB at
//! most: a record addresses its key with 32 bits.
//!
//! **Estimated bytes** — what the budget and [`CacheStats::bytes`] count —
//! are everything an entry keeps allocated: its record at the table's
//! typical occupancy, its key and length prefix in the arena, and — for a
//! rows answer — its side-table slot and the result with its column names,
//! row vector and cells (a one-bit answer keeps nothing beyond its record
//! and key). They are the sizes requested from the allocator, so they come
//! to what [`ProbeCache::clear`] frees, give or take a third (the memory gate
//! in `tests/frontier_memory.rs` holds that), not to a payload a fraction of
//! it. The key bytes of a promoted entry stay in the stale arena, uncounted,
//! until the next rotation drops it.

use crate::database::Row;
use crate::encode::encode_spec;
use crate::executor::{ExecMetrics, ResultSet};
use crate::query::SelectSpec;
use crate::types::{DataType, Value};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::mem::size_of;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, RwLock};

/// Number of independent shards; a power of two, so a shard is the top bits
/// of a key's hash.
pub const SHARD_COUNT: usize = 16;

/// Per-run hit/miss counters a caller can pass to
/// [`crate::database::Database::exists_cached_with`] and
/// [`crate::database::Database::decide_cached_with`] to attribute cache
/// traffic to one synthesis run. Cells, because a run bumps them through a
/// shared reference and only the thread holding the run touches them;
/// independent of the cache's own global counters, so concurrent runs on the
/// same database don't pollute each other's statistics.
#[derive(Debug, Default, Clone)]
pub struct RunCacheCounters {
    /// Probes this run answered from the cache.
    hits: Cell<u64>,
    /// Probes this run executed.
    misses: Cell<u64>,
    /// Executor rows scanned by this run's cache misses
    /// (see [`ExecMetrics::rows_scanned`]).
    rows_scanned: Cell<u64>,
    /// Probe-side rows the executor never pulled because a limit was already
    /// satisfied (see [`ExecMetrics::rows_short_circuited`]).
    rows_short_circuited: Cell<u64>,
    /// Secondary-index lookups this run's cache misses performed
    /// (see [`ExecMetrics::index_lookups`]).
    index_lookups: Cell<u64>,
    /// Rows served through index access paths
    /// (see [`ExecMetrics::rows_via_index`]).
    rows_via_index: Cell<u64>,
    /// Executions cut short because the planner or a join step proved the
    /// remaining work empty (see [`ExecMetrics::probes_bailed_empty`]).
    probes_bailed_empty: Cell<u64>,
}

impl RunCacheCounters {
    /// Current `(hits, misses)` totals.
    pub fn snapshot(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Current `(rows_scanned, rows_short_circuited)` totals.
    pub fn scan_snapshot(&self) -> (u64, u64) {
        (self.rows_scanned.get(), self.rows_short_circuited.get())
    }

    /// Record one lookup outcome.
    pub fn record(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.update(|n| n + 1);
    }

    /// Current `(index_lookups, rows_via_index, probes_bailed_empty)` totals.
    pub fn index_snapshot(&self) -> (u64, u64, u64) {
        (self.index_lookups.get(), self.rows_via_index.get(), self.probes_bailed_empty.get())
    }

    /// Fold one execution's scan metrics into the run totals.
    pub fn record_scan(&self, metrics: &ExecMetrics) {
        self.rows_scanned.update(|n| n + metrics.rows_scanned);
        self.rows_short_circuited.update(|n| n + metrics.rows_short_circuited);
        self.index_lookups.update(|n| n + metrics.index_lookups);
        self.rows_via_index.update(|n| n + metrics.rows_via_index);
        self.probes_bailed_empty.update(|n| n + metrics.probes_bailed_empty);
    }
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes answered from the cache.
    pub hits: u64,
    /// Probes that had to run the executor.
    pub misses: u64,
    /// Estimated bytes the cache's entries keep allocated, keys and records
    /// included (see the module docs).
    pub bytes: u64,
    /// Number of cached entries.
    pub entries: u64,
    /// Segment rotations performed (generations of entries aged out).
    pub rotations: u64,
    /// Always 0: nothing collapses concurrent misses any more. Kept only
    /// because the benchmark harness reads it as
    /// `db.cache.single_flight_hits`, until ROADMAP 1(a)(viii) drops both.
    pub single_flight_hits: u64,
}

/// The field-wise total of several caches' stats (the network front sums
/// its distinct databases' caches into one scrape).
impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            bytes: a.bytes + b.bytes,
            entries: a.entries + b.entries,
            rotations: a.rotations + b.rotations,
            single_flight_hits: 0,
        })
    }
}

/// The question a cached probe answers about its spec. It leads the entry's
/// key, so the three answers for one spec never serve each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Question {
    /// The spec's complete rows.
    Rows,
    /// Whether the spec returns any row.
    Exists,
    /// A caller's yes/no verdict on the spec's rows, named by a tag that
    /// follows the spec in the key (`Database::decide_cached_with`).
    Verdict,
}

/// What one entry answers: the spec's rows, or one bit — whether there are
/// any rows, or the verdict on them.
#[derive(Debug, Clone)]
enum Answer {
    Rows(Arc<ResultSet>),
    Bit(bool),
}

impl Answer {
    /// The rows of a rows answer.
    fn rows(self) -> Option<Arc<ResultSet>> {
        match self {
            Answer::Rows(rows) => Some(rows),
            Answer::Bit(_) => None,
        }
    }

    /// The bit of an existence or verdict answer.
    fn bit(self) -> Option<bool> {
        match self {
            Answer::Bit(bit) => Some(bit),
            Answer::Rows(_) => None,
        }
    }
}

/// Bytes per chunk of a generation's key arena.
const KEY_CHUNK: usize = 256;

/// [`Record::answer`] values below `ROWS`: the two bits, and a stale record
/// whose entry was promoted into the fresh generation. `ROWS + i` is
/// [`Generation::rows`]`[i]`, and `EMPTY` marks a free slot.
const FALSE: u32 = 0;
const TRUE: u32 = 1;
const MOVED: u32 = 2;
const ROWS: u32 = 3;
const EMPTY: u32 = u32::MAX;

/// One slot of a [`Generation`]'s table: where its entry's key sits in the
/// arena, 32 bits of the key's keyed hash (what places it in the table and
/// rejects most unequal keys without a byte compare) and its answer.
#[derive(Debug, Clone, Copy)]
struct Record {
    at: u32,
    hash: u32,
    answer: u32,
}

impl Record {
    const FREE: Record = Record { at: 0, hash: 0, answer: EMPTY };
}

/// One generation of a shard's entries. Every key's exact bytes sit back to
/// back in fixed-size chunks, each after its length as a varint (a key may
/// run across a chunk boundary), and an open-addressing table of 12-byte
/// [`Record`]s, probed linearly from the keyed hash's low bits, points at
/// them. Nothing is removed from a generation: promotion marks a stale
/// record moved, and rotation drops the generation whole.
#[derive(Default)]
struct Generation {
    /// Each `KEY_CHUNK` long, allocated once.
    chunks: Vec<Box<[u8]>>,
    /// Arena bytes written to `chunks`.
    len: usize,
    /// A power-of-two table, at most 7/8 full.
    table: Vec<Record>,
    /// Records in `table`, moved ones included.
    records: usize,
    /// Records marked [`MOVED`].
    moved: usize,
    /// The harness-only rows answers.
    rows: Vec<Arc<ResultSet>>,
    /// The estimated bytes of the live entries ([`entry_bytes`]).
    bytes: u64,
}

impl std::fmt::Debug for Generation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Generation")
            .field("entries", &self.entries())
            .field("arena_bytes", &self.len)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Generation {
    fn entries(&self) -> u64 {
        (self.records - self.moved) as u64
    }

    /// The slot of the record holding `key` (moved or not).
    fn find(&self, hash: u32, key: &[u8]) -> Option<usize> {
        let mask = self.table.len().checked_sub(1)?;
        let mut slot = hash as usize & mask;
        loop {
            let record = &self.table[slot];
            if record.answer == EMPTY {
                return None;
            }
            if record.hash == hash && self.key_is(record.at as usize, key) {
                return Some(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Whether the key stored at arena offset `at` is `key`: its length
    /// prefix, then its bytes chunk piece by chunk piece.
    fn key_is(&self, mut at: usize, mut key: &[u8]) -> bool {
        let (mut len, mut shift) = (0, 0);
        loop {
            let byte = self.chunks[at / KEY_CHUNK][at % KEY_CHUNK];
            at += 1;
            len |= usize::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
            shift += 7;
        }
        if len != key.len() {
            return false;
        }
        while !key.is_empty() {
            let offset = at % KEY_CHUNK;
            let take = key.len().min(KEY_CHUNK - offset);
            if self.chunks[at / KEY_CHUNK][offset..offset + take] != key[..take] {
                return false;
            }
            (at, key) = (at + take, &key[take..]);
        }
        true
    }

    /// The answer of the live entry under `key`, and its slot.
    fn get(&self, hash: u32, key: &[u8]) -> Option<(usize, Answer)> {
        let slot = self.find(hash, key)?;
        let answer = match self.table[slot].answer {
            MOVED => return None,
            FALSE => Answer::Bit(false),
            TRUE => Answer::Bit(true),
            rows => Answer::Rows(Arc::clone(&self.rows[(rows - ROWS) as usize])),
        };
        Some((slot, answer))
    }

    /// Add an entry for a key the generation does not hold.
    fn insert(&mut self, hash: u32, key: &[u8], answer: Answer, bytes: u64) {
        let answer = match answer {
            Answer::Bit(bit) => u32::from(bit),
            Answer::Rows(rows) => {
                self.rows.push(rows);
                ROWS + (self.rows.len() - 1) as u32
            }
        };
        let at = self.len as u32;
        let mut prefix = [0u8; 10];
        let prefix = varint(key.len(), &mut prefix);
        self.append(prefix);
        self.append(key);
        if (self.records + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
        self.place(Record { at, hash, answer });
        self.records += 1;
        self.bytes += bytes;
    }

    fn append(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let offset = self.len % KEY_CHUNK;
            if offset == 0 && self.len / KEY_CHUNK == self.chunks.len() {
                self.chunks.push(vec![0; KEY_CHUNK].into_boxed_slice());
            }
            let take = bytes.len().min(KEY_CHUNK - offset);
            let chunk = self.chunks.last_mut().expect("a chunk with room");
            chunk[offset..offset + take].copy_from_slice(&bytes[..take]);
            (self.len, bytes) = (self.len + take, &bytes[take..]);
        }
    }

    /// Double the table (16 slots at first) and re-place its records.
    fn grow(&mut self) {
        let size = (self.table.len() * 2).max(16);
        let old = std::mem::replace(&mut self.table, vec![Record::FREE; size]);
        for record in old.into_iter().filter(|r| r.answer != EMPTY) {
            self.place(record);
        }
    }

    fn place(&mut self, record: Record) {
        let mask = self.table.len() - 1;
        let mut slot = record.hash as usize & mask;
        while self.table[slot].answer != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = record;
    }

    /// Mark the record in `slot` moved: its entry now lives in the fresh
    /// generation, and its key bytes stay here until the generation drops.
    fn mark_moved(&mut self, slot: usize, bytes: u64) {
        self.table[slot].answer = MOVED;
        self.moved += 1;
        self.bytes = self.bytes.saturating_sub(bytes);
    }
}

/// Write `value` as a little-endian base-128 varint into `buf`; the bytes
/// written.
fn varint(mut value: usize, buf: &mut [u8; 10]) -> &[u8] {
    let mut n = 0;
    while value >= 0x80 {
        buf[n] = value as u8 | 0x80;
        value >>= 7;
        n += 1;
    }
    buf[n] = value as u8;
    &buf[..=n]
}

/// Two generations of memoized entries; one per shard, guarded by the
/// shard's lock.
#[derive(Debug, Default)]
struct Segments {
    fresh: Generation,
    stale: Generation,
}

impl Segments {
    fn entries(&self) -> u64 {
        self.fresh.entries() + self.stale.entries()
    }

    fn bytes(&self) -> u64 {
        self.fresh.bytes + self.stale.bytes
    }

    /// Age out the stale generation and start a new fresh one.
    fn rotate(&mut self) {
        self.stale = std::mem::take(&mut self.fresh);
    }
}

/// The sharded probe/result memo cache with segment-rotation eviction.
#[derive(Debug)]
pub struct ProbeCache {
    shards: [RwLock<Segments>; SHARD_COUNT],
    /// Keys the index hash: a value a prober cannot predict, so crafted
    /// specs cannot pile their entries into one probe sequence.
    hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    rotations: AtomicU64,
    max_bytes: AtomicU64,
}

impl Default for ProbeCache {
    fn default() -> Self {
        ProbeCache::with_max_bytes(Self::DEFAULT_MAX_BYTES)
    }
}

impl ProbeCache {
    /// Default byte budget for the cached payload (64 MiB).
    pub const DEFAULT_MAX_BYTES: u64 = 64 << 20;

    /// Create a cache with an explicit byte budget (split evenly across the
    /// shards; each shard rotates generations at half its slice, so total
    /// retention stays within the budget).
    pub fn with_max_bytes(max_bytes: u64) -> Self {
        ProbeCache {
            shards: Default::default(),
            hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            max_bytes: AtomicU64::new(max_bytes.max(1)),
        }
    }

    /// Replace the byte budget. Takes effect on subsequent inserts; a smaller
    /// budget shrinks the cache through the normal rotation churn.
    pub fn set_max_bytes(&self, max_bytes: u64) {
        self.max_bytes.store(max_bytes.max(1), Ordering::Relaxed);
    }

    /// The current byte budget.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes.load(Ordering::Relaxed)
    }

    /// The shard an encoded key lives in: the top bits of its
    /// [`key_hash`] (the map key is the whole encoding, so hash collisions
    /// are harmless).
    fn shard(&self, key: &[u8]) -> &RwLock<Segments> {
        &self.shards[(key_hash(key) >> (64 - SHARD_COUNT.trailing_zeros())) as usize]
    }

    /// The keyed hash that places `key` in a generation's index.
    fn index_hash(&self, key: &[u8]) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// A shard rotates when its fresh generation outgrows half the shard's
    /// slice of the byte budget, so fresh + stale stay within the slice. At
    /// most 4 GiB, so a generation's arena offsets fit a record's 32 bits.
    fn rotation_threshold(&self) -> u64 {
        (self.max_bytes.load(Ordering::Relaxed) / SHARD_COUNT as u64 / 2).clamp(1, u32::MAX.into())
    }

    /// Look up `spec`'s memoized rows. Counts a hit or miss; a
    /// stale-generation hit promotes the entry back into the fresh
    /// generation so entries the workload keeps re-probing survive rotation.
    pub fn get(&self, spec: &SelectSpec) -> Option<Arc<ResultSet>> {
        with_key(Question::Rows, spec, &[], |key| self.lookup(key, Answer::rows))
    }

    /// Look up a memoized answer to "does `spec` return any row?", counted
    /// and promoted like [`ProbeCache::get`]. A rows entry for the same spec
    /// does not answer it.
    pub fn get_exists(&self, spec: &SelectSpec) -> Option<bool> {
        with_key(Question::Exists, spec, &[], |key| self.lookup(key, Answer::bit))
    }

    /// Look up the memoized verdict `tag` names on `spec`'s rows, counted
    /// and promoted like [`ProbeCache::get`]. Only an entry stored
    /// under the same tag answers it.
    pub fn get_verdict(&self, spec: &SelectSpec, tag: &[u8]) -> Option<bool> {
        with_key(Question::Verdict, spec, tag, |key| self.lookup(key, Answer::bit))
    }

    /// The lookup behind every question: `serve` reads an entry's answer
    /// (`None` for an entry of another question, which its key rules out).
    fn lookup<T>(&self, key: &[u8], serve: impl Fn(Answer) -> Option<T>) -> Option<T> {
        let shard = self.shard(key);
        let hash = self.index_hash(key);
        let cost = |answer: &Answer| entry_bytes(key.len(), answer);
        {
            let segments = shard.read().expect("probe cache lock poisoned");
            if let Some(found) = segments.fresh.get(hash, key).and_then(|(_, a)| serve(a)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(found);
            }
            let stale =
                segments.stale.get(hash, key).and_then(|(_, a)| Some((cost(&a), serve(a)?)));
            match stale {
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Some((cost, found)) => {
                    // Promotion would overflow the fresh generation: serve
                    // the stale hit directly under the shared lock. A hot
                    // set too big to promote must not degrade every hit to
                    // the write lock.
                    if segments.fresh.bytes + cost > self.rotation_threshold() {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Some(found);
                    }
                }
            }
        }
        // Stale hit: promote under the write lock (re-checking, since the
        // entry may have moved or vanished between the locks). Promotion
        // copies the key into the fresh arena and marks the stale record
        // moved; it is skipped when it would push the fresh generation past
        // its half of the budget slice — the entry is still served, it just
        // stays stale — so fresh and stale each stay within half a slice and
        // retention never exceeds the configured budget. A fresh generation
        // already holding the key keeps its copy.
        let mut segments = shard.write().expect("probe cache lock poisoned");
        if let Some((at, answer)) = segments.stale.get(hash, key) {
            if let Some(found) = serve(answer.clone()) {
                let cost = cost(&answer);
                if segments.fresh.find(hash, key).is_none()
                    && segments.fresh.bytes + cost <= self.rotation_threshold()
                {
                    segments.stale.mark_moved(at, cost);
                    segments.fresh.insert(hash, key, answer, cost);
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(found);
            }
        }
        match segments.fresh.get(hash, key).and_then(|(_, a)| serve(a)) {
            Some(found) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Memoize `spec`'s complete result in the fresh generation, rotating
    /// the shard's generations first if the insert would overflow the fresh
    /// half of the shard's budget slice — so fresh + stale never exceed the
    /// slice and total retention never exceeds the configured budget. A
    /// result larger than the fresh half on its own is handed back uncached.
    /// Returns the rows that end up serving the spec: an entry already
    /// there (a racing worker's) is kept, and it holds the same rows.
    pub fn insert(&self, spec: &SelectSpec, result: ResultSet) -> Arc<ResultSet> {
        let answer = Answer::Rows(Arc::new(result));
        let stored = with_key(Question::Rows, spec, &[], |key| self.store(key, answer));
        stored.rows().expect("a rows key only ever holds rows")
    }

    /// Memoize whether `spec` returns any row, under the same generations
    /// and budget as [`ProbeCache::insert`]. The entry keeps the bit and its
    /// key, no rows.
    pub fn insert_exists(&self, spec: &SelectSpec, exists: bool) {
        with_key(Question::Exists, spec, &[], |key| self.store(key, Answer::Bit(exists)));
    }

    /// Memoize the verdict `tag` names on `spec`'s rows, like
    /// [`ProbeCache::insert_exists`]: the entry keeps the bit and its key
    /// (the tag included), no rows.
    pub fn insert_verdict(&self, spec: &SelectSpec, tag: &[u8], verdict: bool) {
        with_key(Question::Verdict, spec, tag, |key| self.store(key, Answer::Bit(verdict)));
    }

    /// The insert behind every question; returns the answer that ends up
    /// serving the key. Every answer stored under one key is the same
    /// answer, so an entry already there is kept.
    fn store(&self, key: &[u8], answer: Answer) -> Answer {
        let shard = self.shard(key);
        let hash = self.index_hash(key);
        let bytes = entry_bytes(key.len(), &answer);
        let threshold = self.rotation_threshold();
        if bytes > threshold {
            return answer; // would blow the budget by itself: don't retain
        }
        let mut segments = shard.write().expect("probe cache lock poisoned");
        // A racing worker may have inserted the same probe.
        let existing = segments.fresh.get(hash, key).or_else(|| segments.stale.get(hash, key));
        if let Some((_, existing)) = existing {
            return existing;
        }
        if segments.fresh.bytes + bytes > threshold {
            segments.rotate();
            self.rotations.fetch_add(1, Ordering::Relaxed);
        }
        segments.fresh.insert(hash, key, answer.clone(), bytes);
        answer
    }

    /// Drop every entry, through each shard's write lock: the clear a
    /// holder of a shared reference can make (a cold-cache measurement on an
    /// `Arc`-shared database). A poisoned shard is healed.
    pub fn clear(&self) {
        for shard in &self.shards {
            reset(shard.write());
            shard.clear_poison();
        }
    }

    /// Drop every entry without a lock: the invalidation of a write, which
    /// holds the database exclusively, so no probe can be in flight. A
    /// shard that holds nothing is left untouched, so a write to an empty
    /// cache (every row of a load) costs a look at each shard.
    pub(crate) fn clear_mut(&mut self) {
        for shard in &mut self.shards {
            reset(shard.get_mut());
            shard.clear_poison();
        }
    }

    /// How many shards hold at least one entry.
    #[cfg(test)]
    pub(crate) fn shards_holding_entries(&self) -> usize {
        self.shards.iter().filter(|s| s.read().unwrap().entries() > 0).count()
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        let (mut bytes, mut entries) = (0u64, 0u64);
        for shard in &self.shards {
            let segments = shard.read().expect("probe cache lock poisoned");
            bytes += segments.bytes();
            entries += segments.entries();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes,
            entries,
            rotations: self.rotations.load(Ordering::Relaxed),
            single_flight_hits: 0,
        }
    }
}

/// The one reset behind both clears: a shard that holds entries starts
/// over empty, and so does a poisoned one — a panic under its lock may have
/// left it half written, and a memo is disposable. An empty, healthy shard
/// is left as it is.
fn reset(segments: LockResult<impl DerefMut<Target = Segments>>) {
    let (poisoned, mut segments) = match segments {
        Ok(segments) => (false, segments),
        Err(poison) => (true, poison.into_inner()),
    };
    if poisoned || segments.entries() > 0 {
        *segments = Segments::default();
    }
}

/// What an entry costs besides its key: its [`Record`] at the table's
/// typical occupancy (it doubles at 7/8 full, so it holds about 3/2 slots
/// per entry).
const ENTRY_OVERHEAD: usize = size_of::<Record>() * 3 / 2;

/// The bytes one entry keeps allocated, as requested from the allocator (its
/// per-allocation overhead is not counted), derived from its key's length and
/// its answer:
///
/// * [`ENTRY_OVERHEAD`], its record;
/// * the key's bytes and length prefix in the generation's arena
///   ([`with_key`]);
/// * a rows answer's side-table slot and result: its `Arc` allocation,
///   column names and types, the row vector and every row's cells with their
///   text. A one-bit answer lives in the record.
fn entry_bytes(key_len: usize, answer: &Answer) -> u64 {
    fn text(v: &Value) -> usize {
        match v {
            Value::Text(s) => s.capacity(),
            _ => 0,
        }
    }
    let result = match answer {
        Answer::Bit(_) => 0,
        Answer::Rows(rs) => {
            size_of::<Arc<ResultSet>>() // the side-table slot
                + 2 * size_of::<usize>() // the `Arc`'s reference counts
                + size_of::<ResultSet>()
                + rs.columns.capacity() * size_of::<String>()
                + rs.columns.iter().map(String::capacity).sum::<usize>()
                + rs.types.capacity() * size_of::<DataType>()
                + rs.rows.capacity() * size_of::<Row>()
                + rs.rows
                    .iter()
                    .map(|r| {
                        r.0.capacity() * size_of::<Value>() + r.0.iter().map(text).sum::<usize>()
                    })
                    .sum::<usize>()
        }
    };
    let prefix = varint(key_len, &mut [0; 10]).len();
    (ENTRY_OVERHEAD + prefix + key_len + result) as u64
}

thread_local! {
    /// The buffer a thread encodes its cache keys into, reused across probes.
    static KEY: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the encoded key of `question` about `spec`: the question's
/// tag, the spec's exact encoding ([`encode_spec`]) and `tag` (empty but for
/// a verdict) after it. The encoding is a prefix code, so the tag needs no
/// length.
fn with_key<T>(question: Question, spec: &SelectSpec, tag: &[u8], f: impl FnOnce(&[u8]) -> T) -> T {
    KEY.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.push(question as u8);
        encode_spec(&mut buf, spec);
        buf.extend_from_slice(tag);
        f(&buf)
    })
}

/// 64-bit FNV-1a over an encoded key: what picks its shard. A function of
/// the bytes alone, so an entry lands in the same shard in every process.
fn key_hash(key: &[u8]) -> u64 {
    key.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::encode::tests::{generated_specs, twin};
    use crate::join_graph::JoinTree;
    use crate::query::{Predicate, SelectItem};
    use crate::schema::{ColumnDef, ColumnId, Schema, TableDef};
    use crate::types::Value;
    use std::collections::HashMap;

    fn db() -> Database {
        let mut s = Schema::new("t");
        s.add_table(TableDef::new(
            "items",
            vec![ColumnDef::number("id"), ColumnDef::text("name")],
            Some(0),
        ));
        let mut db = Database::new(s).unwrap();
        db.insert("items", vec![Value::int(1), Value::text("alpha")]).unwrap();
        db.insert("items", vec![Value::int(2), Value::text("beta")]).unwrap();
        db
    }

    fn spec(db: &Database) -> SelectSpec {
        SelectSpec {
            select: vec![SelectItem::column(db.schema().column_id("items", "name").unwrap())],
            join: JoinTree::single(db.schema().table_id("items").unwrap()),
            limit: Some(1),
            ..Default::default()
        }
    }

    #[test]
    fn hit_after_miss_and_counters() {
        let db = db();
        let cache = ProbeCache::default();
        let s = spec(&db);
        assert!(cache.get(&s).is_none());
        let rs = crate::executor::execute(&db, &s).unwrap();
        cache.insert(&s, rs);
        let hit = cache.get(&s).expect("hit after insert");
        assert_eq!(hit.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn distinct_specs_do_not_alias() {
        let db = db();
        let cache = ProbeCache::default();
        let a = spec(&db);
        let mut b = spec(&db);
        b.limit = Some(2);
        cache.insert(&a, crate::executor::execute(&db, &a).unwrap());
        cache.insert(&b, crate::executor::execute(&db, &b).unwrap());
        assert_eq!(cache.get(&a).unwrap().len(), 1);
        assert_eq!(cache.get(&b).unwrap().len(), 2);
    }

    #[test]
    fn clear_resets_entries_and_bytes() {
        let db = db();
        let cache = ProbeCache::default();
        let s = spec(&db);
        cache.insert(&s, crate::executor::execute(&db, &s).unwrap());
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
        assert!(cache.get(&s).is_none());
    }

    /// One panic under a shard's lock must not make every later probe of
    /// that shard panic: either clear discards the shard's (possibly half
    /// written) contents and heals it.
    #[test]
    fn a_clear_heals_a_poisoned_shard() {
        let db = db();
        let s = spec(&db);
        let mut cache = ProbeCache::default();
        for exclusive in [false, true] {
            cache.insert_exists(&s, true);
            let shard = cache.shard(&key(Question::Exists, &s));
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut segments = shard.write().unwrap();
                segments.fresh.bytes += 1_000; // a write the panic leaves half done
                panic!("a panic under a probe cache shard's write lock");
            }));
            assert!(panicked.is_err() && shard.is_poisoned());
            if exclusive {
                cache.clear_mut();
            } else {
                cache.clear();
            }
            let shard = cache.shard(&key(Question::Exists, &s));
            assert!(!shard.is_poisoned(), "exclusive: {exclusive}");
            let stats = cache.stats();
            assert_eq!((stats.entries, stats.bytes), (0, 0), "exclusive: {exclusive}");
            assert_eq!(cache.get_exists(&s), None);
            cache.insert_exists(&s, false);
            assert_eq!(cache.get_exists(&s), Some(false));
        }
    }

    #[test]
    fn key_hash_is_stable_and_key_sensitive() {
        let db = db();
        let a = key(Question::Rows, &spec(&db));
        let mut b = spec(&db);
        b.distinct = true;
        assert_eq!(key_hash(&a), key_hash(&a.clone()));
        assert_ne!(key_hash(&a), key_hash(&key(Question::Rows, &b)));
        // FNV-1a's published vector: the hash is a function of the bytes
        // alone, the same in every process.
        assert_eq!(key_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        // Generated specs spread over every shard.
        let cache = ProbeCache::default();
        let shards: std::collections::BTreeSet<_> = generated_specs(256)
            .iter()
            .map(|s| cache.shard(&key(Question::Rows, s)) as *const _ as usize)
            .collect();
        assert_eq!(shards.len(), SHARD_COUNT);
    }

    #[test]
    fn stats_sum_adds_counters() {
        let one = CacheStats {
            hits: 2,
            misses: 3,
            bytes: 10,
            entries: 1,
            rotations: 1,
            single_flight_hits: 0,
        };
        let other = CacheStats {
            hits: 7,
            misses: 4,
            bytes: 20,
            entries: 2,
            rotations: 3,
            single_flight_hits: 0,
        };
        let total: CacheStats = [one, other].into_iter().sum();
        assert_eq!(
            total,
            CacheStats {
                hits: 9,
                misses: 7,
                bytes: 30,
                entries: 3,
                rotations: 4,
                single_flight_hits: 0,
            }
        );
        assert_eq!(std::iter::empty::<CacheStats>().sum::<CacheStats>(), CacheStats::default());
    }

    /// Distinct specs (different limits) that all land in one small cache.
    fn spec_with_limit(db: &Database, limit: usize) -> SelectSpec {
        let mut s = spec(db);
        s.limit = Some(limit);
        s
    }

    #[test]
    fn rotation_evicts_cold_entries_instead_of_refusing_admission() {
        let db = db();
        // A budget small enough that a stream of distinct probes forces many
        // rotations (each cached result is a few hundred bytes).
        let cache = ProbeCache::with_max_bytes(SHARD_COUNT as u64 * 2_000);
        for limit in 1..200 {
            let s = spec_with_limit(&db, limit);
            cache.insert(&s, crate::executor::execute(&db, &s).unwrap());
        }
        let stats = cache.stats();
        assert!(stats.rotations > 0, "small budget must force rotations: {stats:?}");
        // Old entries aged out; retention stays within the budget.
        assert!(stats.bytes <= cache.max_bytes(), "{stats:?}");
        assert!(stats.entries < 199, "{stats:?}");
        // Crucially, the *latest* probes are still being cached (the old
        // admission-control design stopped caching entirely at this point).
        let last = spec_with_limit(&db, 199);
        assert!(cache.get(&last).is_some(), "fresh entries must still be admitted");
    }

    #[test]
    fn stale_hit_promotes_entry_across_rotations() {
        let db = db();
        let cache = ProbeCache::default();
        let hot = spec_with_limit(&db, 1);
        cache.insert(&hot, crate::executor::execute(&db, &hot).unwrap());
        // Force a rotation of the hot entry's shard by hand.
        let key = key(Question::Rows, &hot);
        let shard = cache.shard(&key);
        shard.write().unwrap().rotate();
        // The entry is now stale; a hit must return it and promote it back.
        assert!(cache.get(&hot).is_some(), "stale generation still serves hits");
        let hash = cache.index_hash(&key);
        let segments = shard.read().unwrap();
        assert!(segments.fresh.get(hash, &key).is_some(), "hit must promote to fresh");
        assert!(segments.stale.get(hash, &key).is_none(), "the stale record is marked moved");
        assert_eq!((segments.fresh.entries(), segments.stale.entries()), (1, 0));
        drop(segments);
        // A second hand rotation + hit keeps it alive indefinitely.
        shard.write().unwrap().rotate();
        assert!(cache.get(&hot).is_some());
    }

    #[test]
    fn oversized_results_are_served_but_not_retained() {
        let db = db();
        // Budget so small that any real result exceeds half a shard slice.
        let cache = ProbeCache::with_max_bytes(SHARD_COUNT as u64 * 4);
        let s = spec(&db);
        let arc = cache.insert(&s, crate::executor::execute(&db, &s).unwrap());
        assert_eq!(arc.len(), 1, "caller still gets the result");
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "oversized results must not be retained: {stats:?}");
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn retention_never_exceeds_the_budget_under_churn_and_promotion() {
        let db = db();
        let budget = SHARD_COUNT as u64 * 2_000;
        let cache = ProbeCache::with_max_bytes(budget);
        // Interleave a churning stream of distinct probes with re-probes of a
        // small hot set (exercising stale promotion next to rotation).
        for round in 0..5 {
            for limit in 1..150 {
                let s = spec_with_limit(&db, limit);
                if cache.get(&s).is_none() {
                    cache.insert(&s, crate::executor::execute(&db, &s).unwrap());
                }
                let hot = spec_with_limit(&db, 1 + (round % 3));
                let _ = cache.get(&hot);
                assert!(
                    cache.stats().bytes <= budget,
                    "retention exceeded the budget at round {round}, limit {limit}: {:?}",
                    cache.stats()
                );
            }
        }
    }

    #[test]
    fn set_max_bytes_takes_effect() {
        let cache = ProbeCache::default();
        assert_eq!(cache.max_bytes(), ProbeCache::DEFAULT_MAX_BYTES);
        cache.set_max_bytes(1024);
        assert_eq!(cache.max_bytes(), 1024);
        // Budget zero is clamped to one byte rather than dividing by zero.
        cache.set_max_bytes(0);
        assert_eq!(cache.max_bytes(), 1);
        assert_eq!(cache.rotation_threshold(), 1);
    }

    /// Keys are compared whole: under one shared hash, so every lookup
    /// walks the same probe sequence and the hash rejects nothing, keys of
    /// one length that differ only in their last byte, or only at a chunk
    /// boundary, and keys that are prefixes of one another each find their
    /// own answer, and a key never stored finds none.
    #[test]
    fn a_generation_tells_apart_keys_under_one_hash() {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for len in [0, 1, 2, 63, KEY_CHUNK - 1, KEY_CHUNK, KEY_CHUNK + 1, 3 * KEY_CHUNK] {
            let base: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
            keys.push(base.clone());
            for at in [len.saturating_sub(1), len / 2, KEY_CHUNK.min(len.saturating_sub(1))] {
                if at < len {
                    let mut other = base.clone();
                    other[at] ^= 0x80;
                    keys.push(other);
                }
            }
        }
        keys.sort();
        keys.dedup();
        let (stored, absent): (Vec<_>, Vec<_>) =
            keys.iter().enumerate().partition(|(i, _)| i % 3 != 2);
        let mut generation = Generation::default();
        for &(i, key) in &stored {
            generation.insert(7, key, Answer::Bit(i % 2 == 0), 1);
        }
        assert_eq!(generation.entries(), stored.len() as u64);
        for &(i, key) in &stored {
            let found = generation.get(7, key).and_then(|(_, answer)| answer.bit());
            assert_eq!(found, Some(i % 2 == 0), "key {i} ({} B)", key.len());
        }
        for &(i, key) in &absent {
            assert!(
                generation.find(7, key).is_none(),
                "key {i} ({} B) was never stored",
                key.len()
            );
        }
    }

    /// The two-map cache the arena generations replaced, for bit answers:
    /// what every lookup, insert, rotation and clear must still do.
    #[derive(Default)]
    struct TwoMaps {
        fresh: HashMap<Vec<u8>, bool>,
        stale: HashMap<Vec<u8>, bool>,
        fresh_bytes: u64,
        stale_bytes: u64,
        stats: CacheStats,
    }

    impl TwoMaps {
        fn cost(key: &[u8]) -> u64 {
            entry_bytes(key.len(), &Answer::Bit(false))
        }

        fn lookup(&mut self, key: &[u8], threshold: u64) -> Option<bool> {
            let found = self.fresh.get(key).copied().or_else(|| {
                let bit = self.stale.get(key).copied()?;
                let cost = Self::cost(key);
                if self.fresh_bytes + cost <= threshold {
                    self.stale.remove(key);
                    self.stale_bytes -= cost;
                    self.fresh.insert(key.to_vec(), bit);
                    self.fresh_bytes += cost;
                }
                Some(bit)
            });
            *(if found.is_some() { &mut self.stats.hits } else { &mut self.stats.misses }) += 1;
            found
        }

        fn store(&mut self, key: &[u8], bit: bool, threshold: u64) {
            let cost = Self::cost(key);
            if cost > threshold || self.fresh.contains_key(key) || self.stale.contains_key(key) {
                return;
            }
            if self.fresh_bytes + cost > threshold {
                self.stale = std::mem::take(&mut self.fresh);
                self.stale_bytes = std::mem::replace(&mut self.fresh_bytes, 0);
                self.stats.rotations += 1;
            }
            self.fresh.insert(key.to_vec(), bit);
            self.fresh_bytes += cost;
        }

        fn clear(&mut self) {
            (self.fresh, self.stale) = Default::default();
            (self.fresh_bytes, self.stale_bytes) = (0, 0);
        }

        fn stats(&self) -> CacheStats {
            CacheStats {
                bytes: self.fresh_bytes + self.stale_bytes,
                entries: (self.fresh.len() + self.stale.len()) as u64,
                ..self.stats
            }
        }
    }

    /// Raw keys that are all prefixes of one another, all in one shard, up
    /// to a dozen chunks long (so most run across a chunk boundary), inserted
    /// and looked up in a random order under a budget that rotates the shard
    /// every few dozen inserts: every answer, hit, miss, rotation, entry
    /// count and byte count equals the two-map model's, through stale →
    /// fresh promotions and through both clears.
    #[test]
    fn arena_generations_behave_like_two_maps() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let base: Vec<u8> = (0..3_000).map(|_| next() as u8).collect();
        let mut cache = ProbeCache::with_max_bytes(SHARD_COUNT as u64 * 2 * 40_000);
        let threshold = cache.rotation_threshold();
        let target = cache.shard(&[]) as *const _;
        let keys: Vec<&[u8]> = (0..=base.len())
            .map(|len| &base[..len])
            .filter(|key| std::ptr::eq(cache.shard(key), target))
            .collect();
        assert!(keys.len() > 100 && keys.iter().any(|k| k.len() > 2 * KEY_CHUNK), "{}", keys.len());
        let bit = |key: &[u8]| key.len().is_multiple_of(3);

        let mut model = TwoMaps::default();
        let mut promoted = 0;
        for step in 0..20_000 {
            let key = keys[next() as usize % keys.len()];
            if next() % 2 == 0 {
                let stale = model.stale.contains_key(key) && !model.fresh.contains_key(key);
                let found = cache.lookup(key, Answer::bit);
                assert_eq!(found, model.lookup(key, threshold), "step {step}");
                promoted += usize::from(stale && model.fresh.contains_key(key));
            } else {
                let stored = cache.store(key, Answer::Bit(bit(key))).bit();
                assert_eq!(stored, Some(bit(key)), "step {step}");
                model.store(key, bit(key), threshold);
            }
            if step % 5_000 == 2_499 {
                // Both clears, alternately: the shared one under the lock and
                // a write's exclusive one.
                if step % 10_000 == 2_499 {
                    cache.clear();
                } else {
                    cache.clear_mut();
                }
                model.clear();
            }
            assert_eq!(cache.stats(), model.stats(), "step {step}");
            assert!(cache.shards_holding_entries() <= 1);
        }
        let stats = cache.stats();
        assert!(stats.rotations > 50 && promoted > 50, "{stats:?}, {promoted} promotions");
        assert!(stats.entries > 0 && stats.bytes <= cache.max_bytes(), "{stats:?}");
    }

    fn key(question: Question, spec: &SelectSpec) -> Vec<u8> {
        with_key(question, spec, &[], <[u8]>::to_vec)
    }

    fn verdict_key(spec: &SelectSpec, tag: &[u8]) -> Vec<u8> {
        with_key(Question::Verdict, spec, tag, <[u8]>::to_vec)
    }

    #[test]
    fn keys_are_equal_exactly_when_specs_are() {
        let mut specs = generated_specs(1_000);
        specs.extend(specs.iter().step_by(2).map(twin).collect::<Vec<_>>());
        let keys: Vec<_> = specs.iter().map(|s| key(Question::Rows, s)).collect();
        // Verdict keys under two tags one byte apart, the second also a
        // prefix of the first: the tag follows the spec without a length.
        let tags: [&[u8]; 2] = [&[7, 0, 1], &[7, 0]];
        let verdicts: Vec<_> =
            (specs.iter().enumerate()).map(|(i, s)| verdict_key(s, tags[i % 2])).collect();
        let mut equal_pairs = 0;
        for i in 0..specs.len() {
            assert_eq!(keys[i], key(Question::Rows, &specs[i].clone()), "deterministic");
            assert_ne!(keys[i], key(Question::Exists, &specs[i]), "the question leads the key");
            assert_ne!(keys[i], verdicts[i]);
            assert_ne!(key(Question::Exists, &specs[i]), verdicts[i]);
            assert_ne!(verdicts[i], verdict_key(&specs[i], tags[(i + 1) % 2]), "the tag is keyed");
            for j in i + 1..specs.len() {
                let same = specs[i] == specs[j];
                equal_pairs += same as usize;
                assert_eq!(keys[i] == keys[j], same, "{:?}\n{:?}", specs[i], specs[j]);
                let same_verdict = same && i % 2 == j % 2;
                assert_eq!(
                    verdicts[i] == verdicts[j],
                    same_verdict,
                    "{:?}\n{:?}",
                    specs[i],
                    specs[j]
                );
            }
        }
        assert!(equal_pairs > 0, "the generator must also produce equal specs");
    }

    #[test]
    fn keys_keep_the_three_questions_and_every_tag_apart() {
        let db = db();
        let cache = ProbeCache::default();
        let s = spec(&db);
        let (tag, next) = ([1u8, 0x40, 3], [1u8, 0x40, 4]);
        cache.insert_verdict(&s, &tag, true);
        assert_eq!(cache.get_verdict(&s, &tag), Some(true));
        assert_eq!(cache.get_verdict(&s, &next), None, "a tag one byte apart is another entry");
        assert_eq!(cache.get_verdict(&s, &tag[..2]), None, "so is a prefix of the tag");
        cache.insert_verdict(&s, &next, false);
        let both = (cache.get_verdict(&s, &tag), cache.get_verdict(&s, &next));
        assert_eq!(both, (Some(true), Some(false)), "two tags, two verdicts");
        assert_eq!(cache.stats().entries, 2);

        // Neither verdict answers the rows or existence question, nor they it.
        assert!(cache.get(&s).is_none());
        assert_eq!(cache.get_exists(&s), None);
        cache.insert_exists(&s, false);
        cache.insert(&s, crate::executor::execute(&db, &s).unwrap());
        assert_eq!(cache.get_exists(&s), Some(false));
        assert_eq!(cache.get(&s).unwrap().len(), 1);
        assert_eq!(cache.get_verdict(&s, &[]), None, "the empty tag is a tag too");
        assert_eq!(cache.get_verdict(&s, &tag), Some(true));
        assert_eq!(cache.stats().entries, 4);

        // A verdict entry keeps its slot and its key, the tag included.
        let bytes = entry_bytes(verdict_key(&s, &tag).len(), &Answer::Bit(true));
        let exists = entry_bytes(key(Question::Exists, &s).len(), &Answer::Bit(true));
        assert_eq!(bytes, exists + tag.len() as u64);
    }

    #[test]
    fn keys_fold_numbers_and_delimit_every_field() {
        use crate::query::CmpOp;
        let c = ColumnId::new(0, 0);
        let with = |predicates: Vec<Predicate>, having: Vec<Predicate>, limit| SelectSpec {
            select: vec![SelectItem::column(c)],
            join: JoinTree::single(c.table),
            predicates,
            having,
            limit,
            ..Default::default()
        };
        let eq = |v: Value| Predicate::new(c, CmpOp::Eq, v);
        let same =
            |a: &SelectSpec, b: &SelectSpec| key(Question::Rows, a) == key(Question::Rows, b);
        // -0.0 is 0.0, and every NaN is one NaN.
        assert!(same(
            &with(vec![eq(Value::Number(-0.0))], vec![], None),
            &with(vec![eq(Value::Number(0.0))], vec![], None)
        ));
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 0xdead);
        assert!(other_nan.is_nan());
        assert!(same(
            &with(vec![eq(Value::Number(f64::NAN))], vec![], None),
            &with(vec![eq(Value::Number(other_nan))], vec![], None)
        ));
        // Text holding the encoder's tag bytes cannot shift the boundary
        // between two values: without the length prefixes these two encode
        // to the same bytes.
        let between = |lo: &str, hi: &str| Predicate::between(c, Value::text(lo), Value::text(hi));
        assert!(!same(
            &with(vec![between("a", "\u{1}\u{1}b")], vec![], None),
            &with(vec![between("a\u{1}\u{1}", "b")], vec![], None)
        ));
        // An element moved between adjacent vectors, one of them left empty.
        assert!(!same(
            &with(vec![eq(Value::int(1))], vec![], None),
            &with(vec![], vec![eq(Value::int(1))], None)
        ));
        // LIMIT absent is not LIMIT 0.
        assert!(!same(&with(vec![], vec![], None), &with(vec![], vec![], Some(0))));
        // BETWEEN with and without its second bound.
        let one = Value::int(1);
        let mut open = Predicate::between(c, one.clone(), one.clone());
        assert!(!same(&with(vec![open.clone()], vec![], None), &{
            open.value2 = None;
            with(vec![open], vec![], None)
        }));
    }

    #[test]
    fn rows_and_existence_answers_never_serve_each_other() {
        let db = db();
        let cache = ProbeCache::default();
        let s = spec(&db);
        cache.insert_exists(&s, true);
        assert!(cache.get(&s).is_none(), "an existence answer does not serve rows");
        assert_eq!(cache.get_exists(&s), Some(true));

        let t = spec_with_limit(&db, 2);
        cache.insert(&t, crate::executor::execute(&db, &t).unwrap());
        assert_eq!(cache.get_exists(&t), None, "a rows answer does not serve existence");
        assert_eq!(cache.get(&t).unwrap().len(), 2);

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        // An existence entry keeps its slot and key, no rows.
        let exists_bytes = entry_bytes(key(Question::Exists, &s).len(), &Answer::Bit(true));
        assert!(stats.bytes > 2 * exists_bytes);
        assert!(exists_bytes < 128, "{exists_bytes} B for one bit");
    }
}
