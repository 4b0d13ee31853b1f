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
//! * **Sharded.** Entries live in [`SHARD_COUNT`] independent `RwLock`ed hash
//!   maps, the shard picked by a hash of the entry's encoded key, so
//!   concurrent sessions on a shared database rarely contend on the same
//!   lock, and read-mostly traffic (cache hits) takes only shared locks.
//! * **Collision-safe.** The map key is the question's tag, the spec's exact
//!   byte encoding (`encode::encode_spec`: lengths prefixed, numbers
//!   by their folded bits — every NaN is one NaN, `-0.0` is `0.0` — text by
//!   its bytes) and, for a verdict, the caller's tag after them. Equal specs
//!   encode equally and distinct specs distinctly (the hash only picks the
//!   shard), so two distinct specs, the three questions about one spec, or
//!   two tags can never alias an entry. A lookup encodes into a reused
//!   per-thread buffer, so a hit allocates nothing.
//! * **Shared results.** A rows answer is an `Arc<ResultSet>` so a hit is a
//!   pointer clone, not a row copy; an existence or verdict answer is one bit
//!   and keeps no rows.
//! * **Observable.** A run's [`RunCacheCounters`] feed the engine's
//!   `EnumerationStats`, making cache effectiveness visible per synthesis run.
//! * **Segment-rotation eviction.** Each shard keeps two generations of
//!   entries, a *fresh* and a *stale* map. Inserts land in the fresh map; a
//!   stale hit promotes the entry back to fresh. When an insert would push a
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
//! too large for half a slice on its own is returned uncached).
//!
//! **Estimated bytes** — what the budget and [`CacheStats::bytes`] count —
//! are everything an entry keeps allocated: its map slot at the map's
//! typical occupancy, its encoded key's length, and — for a rows answer —
//! the result with its column names, row vector and cells (a one-bit
//! answer keeps nothing beyond its slot and key). They are the sizes
//! requested from the allocator, so they come to
//! what [`ProbeCache::clear`] frees, give or take a third (the memory gate in
//! `tests/frontier_memory.rs` holds that), not to a payload a fraction of it.

use crate::database::Row;
use crate::encode::encode_spec;
use crate::executor::{ExecMetrics, ResultSet};
use crate::query::SelectSpec;
use crate::types::{DataType, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
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
    /// Estimated bytes the cache's entries keep allocated, keys and map slots
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

/// What one entry keeps: the spec's rows, or one bit — whether there are
/// any rows, or the verdict on them.
#[derive(Debug, Clone)]
enum Answer {
    Rows(Arc<ResultSet>),
    Bit(bool),
}

/// One memoized answer and what it costs the byte budget, key included
/// ([`estimate_bytes`]).
#[derive(Debug)]
struct Entry {
    answer: Answer,
    bytes: u64,
}

impl Entry {
    /// The rows of a rows entry.
    fn rows(&self) -> Option<Arc<ResultSet>> {
        match &self.answer {
            Answer::Rows(rows) => Some(Arc::clone(rows)),
            Answer::Bit(_) => None,
        }
    }

    /// The bit of an existence or verdict entry.
    fn bit(&self) -> Option<bool> {
        match self.answer {
            Answer::Bit(bit) => Some(bit),
            Answer::Rows(_) => None,
        }
    }
}

/// Two generations of memoized entries plus their byte accounting; one per
/// shard, guarded by the shard's lock.
#[derive(Debug, Default)]
struct Segments {
    fresh: HashMap<Box<[u8]>, Entry>,
    stale: HashMap<Box<[u8]>, Entry>,
    fresh_bytes: u64,
    stale_bytes: u64,
}

impl Segments {
    fn entries(&self) -> u64 {
        (self.fresh.len() + self.stale.len()) as u64
    }

    fn bytes(&self) -> u64 {
        self.fresh_bytes + self.stale_bytes
    }

    /// Age out the stale generation and start a new fresh one.
    fn rotate(&mut self) {
        self.stale = std::mem::take(&mut self.fresh);
        self.stale_bytes = self.fresh_bytes;
        self.fresh_bytes = 0;
    }
}

/// The sharded probe/result memo cache with segment-rotation eviction.
#[derive(Debug)]
pub struct ProbeCache {
    shards: [RwLock<Segments>; SHARD_COUNT],
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

    /// A shard rotates when its fresh generation outgrows half the shard's
    /// slice of the byte budget, so fresh + stale stay within the slice.
    fn rotation_threshold(&self) -> u64 {
        (self.max_bytes.load(Ordering::Relaxed) / SHARD_COUNT as u64 / 2).max(1)
    }

    /// Look up `spec`'s memoized rows. Counts a hit or miss; a
    /// stale-generation hit promotes the entry back into the fresh
    /// generation so entries the workload keeps re-probing survive rotation.
    pub fn get(&self, spec: &SelectSpec) -> Option<Arc<ResultSet>> {
        self.lookup(Question::Rows, spec, &[], Entry::rows)
    }

    /// Look up a memoized answer to "does `spec` return any row?", counted
    /// and promoted like [`ProbeCache::get`]. A rows entry for the same spec
    /// does not answer it.
    pub fn get_exists(&self, spec: &SelectSpec) -> Option<bool> {
        self.lookup(Question::Exists, spec, &[], Entry::bit)
    }

    /// Look up the memoized verdict `tag` names on `spec`'s rows, counted
    /// and promoted like [`ProbeCache::get`]. Only an entry stored
    /// under the same tag answers it.
    pub fn get_verdict(&self, spec: &SelectSpec, tag: &[u8]) -> Option<bool> {
        self.lookup(Question::Verdict, spec, tag, Entry::bit)
    }

    /// The lookup behind every question: `serve` reads an entry's answer
    /// (`None` for an entry of another question, which its key rules out).
    fn lookup<T>(
        &self,
        question: Question,
        spec: &SelectSpec,
        tag: &[u8],
        serve: impl Fn(&Entry) -> Option<T>,
    ) -> Option<T> {
        with_key(question, spec, tag, |key| {
            let shard = self.shard(key);
            {
                let segments = shard.read().expect("probe cache lock poisoned");
                if let Some(found) = segments.fresh.get(key).and_then(&serve) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(found);
                }
                let stale = segments.stale.get(key).and_then(|e| Some((e.bytes, serve(e)?)));
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
                        if segments.fresh_bytes + cost > self.rotation_threshold() {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Some(found);
                        }
                    }
                }
            }
            // Stale hit: promote under the write lock (re-checking, since the
            // entry may have moved or vanished between the locks). Promotion
            // is skipped when it would push the fresh generation past its half
            // of the budget slice — the entry is still served, it just stays
            // stale — so fresh and stale each stay within half a slice and
            // retention never exceeds the configured budget. A fresh
            // generation already holding the key keeps its copy.
            let mut segments = shard.write().expect("probe cache lock poisoned");
            if let Some(entry) = segments.stale.get(key) {
                if let Some(found) = serve(entry) {
                    let cost = entry.bytes;
                    if !segments.fresh.contains_key(key)
                        && segments.fresh_bytes + cost <= self.rotation_threshold()
                    {
                        let (key, value) =
                            segments.stale.remove_entry(key).expect("checked under the same lock");
                        segments.stale_bytes = segments.stale_bytes.saturating_sub(cost);
                        segments.fresh.insert(key, value);
                        segments.fresh_bytes += cost;
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(found);
                }
            }
            match segments.fresh.get(key).and_then(&serve) {
                Some(found) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(found)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        })
    }

    /// Memoize `spec`'s complete result in the fresh generation, rotating
    /// the shard's generations first if the insert would overflow the fresh
    /// half of the shard's budget slice — so fresh + stale never exceed the
    /// slice and total retention never exceeds the configured budget. A
    /// result larger than the fresh half on its own is handed back uncached.
    /// Returns the rows that end up serving the spec: an entry already
    /// there (a racing worker's) is kept, and it holds the same rows.
    pub fn insert(&self, spec: &SelectSpec, result: ResultSet) -> Arc<ResultSet> {
        match self.store(Question::Rows, spec, &[], Answer::Rows(Arc::new(result))) {
            Answer::Rows(rows) => rows,
            Answer::Bit(_) => unreachable!("a rows key only ever holds rows"),
        }
    }

    /// Memoize whether `spec` returns any row, under the same generations
    /// and budget as [`ProbeCache::insert`]. The entry keeps the bit and its
    /// key, no rows.
    pub fn insert_exists(&self, spec: &SelectSpec, exists: bool) {
        self.store(Question::Exists, spec, &[], Answer::Bit(exists));
    }

    /// Memoize the verdict `tag` names on `spec`'s rows, like
    /// [`ProbeCache::insert_exists`]: the entry keeps the bit and its key
    /// (the tag included), no rows.
    pub fn insert_verdict(&self, spec: &SelectSpec, tag: &[u8], verdict: bool) {
        self.store(Question::Verdict, spec, tag, Answer::Bit(verdict));
    }

    /// The insert behind every question; returns the answer that ends up
    /// serving the key. Every answer stored under one key is the same
    /// answer, so an entry already there is kept.
    fn store(&self, question: Question, spec: &SelectSpec, tag: &[u8], answer: Answer) -> Answer {
        with_key(question, spec, tag, |key| {
            let shard = self.shard(key);
            let entry = Entry { bytes: estimate_bytes(key, &answer), answer };
            let threshold = self.rotation_threshold();
            if entry.bytes > threshold {
                return entry.answer; // would blow the budget by itself: don't retain
            }
            let mut segments = shard.write().expect("probe cache lock poisoned");
            // A racing worker may have inserted the same probe.
            if let Some(existing) = segments.fresh.get(key).or_else(|| segments.stale.get(key)) {
                return existing.answer.clone();
            }
            if segments.fresh_bytes + entry.bytes > threshold {
                segments.rotate();
                self.rotations.fetch_add(1, Ordering::Relaxed);
            }
            segments.fresh_bytes += entry.bytes;
            let answer = entry.answer.clone();
            segments.fresh.insert(Box::from(key), entry);
            answer
        })
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

/// The bytes one entry keeps allocated, as requested from the allocator (its
/// per-allocation overhead is not counted):
///
/// * its map slot — the boxed key and the [`Entry`] side by side, plus the
///   control byte — at the map's typical occupancy: a table grows by doubling
///   up to 7/8 full, so it holds about 3/2 slots per entry;
/// * the encoded key ([`with_key`]);
/// * a rows answer's result: its `Arc` allocation, column names and types,
///   the row vector and every row's cells with their text. A one-bit answer
///   keeps no result.
fn estimate_bytes(key: &[u8], answer: &Answer) -> u64 {
    fn text(v: &Value) -> usize {
        match v {
            Value::Text(s) => s.capacity(),
            _ => 0,
        }
    }
    let slot = (size_of::<(Box<[u8]>, Entry)>() + 1) * 3 / 2;
    let result = match answer {
        Answer::Bit(_) => 0,
        Answer::Rows(rs) => {
            2 * size_of::<usize>() // the `Arc`'s reference counts
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
    (slot + key.len() + result) as u64
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
        db.rebuild_index();
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
                segments.fresh_bytes += 1_000; // a write the panic leaves half done
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
        let segments = shard.read().unwrap();
        assert!(segments.fresh.contains_key(&key[..]), "hit must promote to fresh");
        assert!(!segments.stale.contains_key(&key[..]));
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
        let bytes = estimate_bytes(&verdict_key(&s, &tag), &Answer::Bit(true));
        let exists = estimate_bytes(&key(Question::Exists, &s), &Answer::Bit(true));
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
        let exists_bytes = estimate_bytes(&key(Question::Exists, &s), &Answer::Bit(true));
        assert!(stats.bytes > 2 * exists_bytes);
        assert!(exists_bytes < 128, "{exists_bytes} B for one bit");
    }
}
