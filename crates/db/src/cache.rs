//! A synthesis run's probe memo.
//!
//! The Duoquest verifier sends many nearly identical yes/no probes: sibling
//! states in the GPQE search tree share projections, predicates and join
//! paths, so one run asks the same question about the same spec over and
//! over. A run answers each repeat from its own memo, a
//! [`RunCacheCounters`], which maps a question's exact key to one bit.
//!
//! A probe asks one of two `Question`s about a spec, both yes/no: whether
//! the spec returns any row at all — the **existence** question the
//! verifier's column-wise and row-wise `LIMIT 1` probes ask
//! (`Database::exists_cached_with`) — and a caller's **verdict** on its
//! rows — the sketch checks a complete candidate ends its branch with, and
//! the row-wise global `COUNT(*)` probe, named by a caller tag
//! (`Database::decide_cached_with`). No answer is cut at a row budget the
//! tag does not name, so every answer under one key is the same answer.
//!
//! A key is the question's tag, the spec's exact byte encoding
//! (`encode::encode_spec`: lengths prefixed, numbers by their folded bits —
//! every NaN is one NaN, `-0.0` is `0.0` — text by its bytes) and, for a
//! verdict, the caller's tag after them. Equal specs encode equally and
//! distinct specs distinctly, and the memo compares whole keys, so two
//! distinct specs, the two questions about one spec, or two tags never
//! share an answer. A lookup encodes into a reused per-thread buffer, so a
//! hit allocates nothing; a miss keeps its key in the memo.
//!
//! The memo belongs to one run and is freed with it, so it needs no lock,
//! no byte budget, no eviction and no invalidation: a write to the database
//! needs `&mut Database`, so no run is in flight while one happens, and the
//! next run starts with an empty memo. A run is driven by one thread at a
//! time, which bumps the memo and its counters through a shared reference.

use crate::encode::encode_spec;
use crate::executor::ExecMetrics;
use crate::query::SelectSpec;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// One synthesis run's probe memo and its per-run counters. A caller passes
/// it to [`crate::database::Database::exists_cached_with`] and
/// [`crate::database::Database::decide_cached_with`]: each answers a
/// question the memo already holds from it, and executes and memoizes any
/// other. Cells, because a run asks through a shared reference and only the
/// thread holding the run touches them; nothing is shared with another
/// run, so concurrent runs on one database neither serve nor count each
/// other's probes.
#[derive(Default, Clone)]
pub struct RunCacheCounters {
    /// Every question this run executed, by its exact key, and its answer.
    memo: RefCell<HashMap<Box<[u8]>, bool>>,
    /// Probes this run answered from its memo.
    hits: Cell<u64>,
    /// Probes this run executed.
    misses: Cell<u64>,
    /// Executor rows scanned by this run's misses
    /// (see [`ExecMetrics::rows_scanned`]).
    rows_scanned: Cell<u64>,
    /// Probe-side rows the executor never pulled because a limit was already
    /// satisfied (see [`ExecMetrics::rows_short_circuited`]).
    rows_short_circuited: Cell<u64>,
    /// Secondary-index lookups this run's misses performed
    /// (see [`ExecMetrics::index_lookups`]).
    index_lookups: Cell<u64>,
    /// Rows served through index access paths
    /// (see [`ExecMetrics::rows_via_index`]).
    rows_via_index: Cell<u64>,
    /// Executions cut short because the planner or a join step proved the
    /// remaining work empty (see [`ExecMetrics::probes_bailed_empty`]).
    probes_bailed_empty: Cell<u64>,
}

impl std::fmt::Debug for RunCacheCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCacheCounters")
            .field("entries", &self.entries())
            .field("hits", &self.hits.get())
            .field("misses", &self.misses.get())
            .finish_non_exhaustive()
    }
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

    /// The number of answers the memo holds: the distinct questions this
    /// run executed.
    pub fn entries(&self) -> usize {
        self.memo.borrow().len()
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

    /// The memoized answer to `question` about `spec` (`tag` empty but for
    /// a verdict), or — on a miss — the key to [`RunCacheCounters::remember`]
    /// its answer under once it is decided.
    pub(crate) fn recall(
        &self,
        question: Question,
        spec: &SelectSpec,
        tag: &[u8],
    ) -> Result<bool, Box<[u8]>> {
        with_key(question, spec, tag, |key| {
            self.memo.borrow().get(key).copied().ok_or_else(|| Box::from(key))
        })
    }

    /// Memoize the answer to the question `key` encodes.
    pub(crate) fn remember(&self, key: Box<[u8]>, answer: bool) {
        self.memo.borrow_mut().insert(key, answer);
    }
}

/// A point-in-time snapshot of a database's probe totals, over every run
/// that probed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Probes answered by a run's memo.
    pub hits: u64,
    /// Probes executed.
    pub misses: u64,
    /// Always 0: no probe answer outlives its run. Kept only because the
    /// benchmark harness (`bench_report`) reads it as `db.cache.bytes`,
    /// until ROADMAP 1(a)(viii) drops both.
    pub bytes: u64,
    /// Always 0: nothing collapses concurrent misses. Kept only because the
    /// benchmark harness (`bench_report`) reads it as
    /// `db.cache.single_flight_hits`, until ROADMAP 1(a)(viii) drops both.
    pub single_flight_hits: u64,
}

/// The field-wise total of several databases' stats (the network front sums
/// its distinct databases' totals into one scrape).
impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), |a, b| CacheStats {
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            bytes: a.bytes + b.bytes,
            single_flight_hits: 0,
        })
    }
}

/// The question a probe asks about its spec. It leads the memo's key, so
/// the two answers for one spec never serve each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Question {
    /// Whether the spec returns any row.
    Exists,
    /// A caller's yes/no verdict on the spec's rows, named by a tag that
    /// follows the spec in the key (`Database::decide_cached_with`).
    Verdict,
}

thread_local! {
    /// The buffer a thread encodes its memo keys into, reused across probes.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::encode::tests::{generated_specs, twin};
    use crate::executor::Verdict;
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

    /// A verdict that answers `yes` at the end and counts the rows it saw.
    struct Count<'a>(&'a Cell<usize>, bool);

    impl Verdict for Count<'_> {
        fn row(&mut self, _row: &[Value]) -> Option<bool> {
            self.0.update(|n| n + 1);
            None
        }

        fn end(&mut self) -> bool {
            self.1
        }
    }

    #[test]
    fn a_repeat_is_a_memo_hit_and_a_new_memo_starts_cold() {
        let db = db();
        let s = spec(&db);
        let run = RunCacheCounters::default();
        assert!(db.exists_cached_with(&s, &run).unwrap());
        assert!(db.exists_cached_with(&s, &run).unwrap());
        assert_eq!((run.snapshot(), run.entries()), ((1, 1), 1));
        let (scanned, _) = run.scan_snapshot();
        assert!(scanned > 0, "the miss folded its scan in");
        assert_eq!(run.scan_snapshot().0, scanned, "the hit scanned nothing");

        let next = RunCacheCounters::default();
        assert!(db.exists_cached_with(&s, &next).unwrap());
        assert_eq!((next.snapshot(), next.entries()), ((0, 1), 1), "another run's memo");
        let stats = db.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.bytes), (1, 2, 0), "the database's totals");
    }

    #[test]
    fn stats_sum_adds_counters() {
        let one = CacheStats { hits: 2, misses: 3, bytes: 0, single_flight_hits: 0 };
        let other = CacheStats { hits: 7, misses: 4, bytes: 0, single_flight_hits: 0 };
        let total: CacheStats = [one, other].into_iter().sum();
        assert_eq!(total, CacheStats { hits: 9, misses: 7, bytes: 0, single_flight_hits: 0 });
        assert_eq!(std::iter::empty::<CacheStats>().sum::<CacheStats>(), CacheStats::default());
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
        let keys: Vec<_> = specs.iter().map(|s| key(Question::Exists, s)).collect();
        // Verdict keys under two tags one byte apart, the second also a
        // prefix of the first: the tag follows the spec without a length.
        let tags: [&[u8]; 2] = [&[7, 0, 1], &[7, 0]];
        let verdicts: Vec<_> =
            (specs.iter().enumerate()).map(|(i, s)| verdict_key(s, tags[i % 2])).collect();
        let mut equal_pairs = 0;
        for i in 0..specs.len() {
            assert_eq!(keys[i], key(Question::Exists, &specs[i].clone()), "deterministic");
            assert_ne!(keys[i], verdicts[i], "the question leads the key");
            assert_ne!(keys[i], verdict_key(&specs[i], &[]), "even under the empty tag");
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

    /// Through the memo: a verdict under one tag answers only that tag, and
    /// neither question answers the other, whatever the bits.
    #[test]
    fn the_memo_keeps_the_two_questions_and_every_tag_apart() {
        let db = db();
        let s = spec(&db);
        let run = RunCacheCounters::default();
        let seen = Cell::new(0);
        let (tag, next) = ([1u8, 0x40, 3], [1u8, 0x40, 4]);
        let decide = |tag: &[u8], answer: bool| {
            db.decide_cached_with(&s, None, tag, &run, &mut Count(&seen, answer)).unwrap()
        };
        assert!(!decide(&tag, false));
        assert!(!decide(&tag, true), "a hit keeps the first answer");
        assert!(decide(&next, true), "a tag one byte apart is another question");
        assert!(decide(&tag[..2], true), "so is a prefix of the tag");
        assert!(decide(&[], true), "and the empty tag");
        assert_eq!((run.snapshot(), run.entries()), ((1, 4), 4));
        assert_eq!(seen.get(), 4, "each miss streamed the spec's one row");
        assert!(db.exists_cached_with(&s, &run).unwrap(), "no verdict answers existence");
        assert!(!decide(&tag, true), "nor existence a verdict");
        assert_eq!((run.snapshot(), run.entries()), ((2, 5), 5));
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
            |a: &SelectSpec, b: &SelectSpec| key(Question::Exists, a) == key(Question::Exists, b);
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
}
