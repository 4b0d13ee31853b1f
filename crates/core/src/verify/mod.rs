//! Ascending-cost cascading verification (paper Algorithm 3).
//!
//! Partial queries are checked with increasingly expensive verifications:
//!
//! 1. [`clauses`] — clause presence vs the TSQ's sorting flag and limit
//!    (no database access);
//! 2. [`semantics`] — the semantic pruning rules of paper Table 4
//!    (no database access);
//! 3. [`types`] — projected column types vs the TSQ type annotations
//!    (schema access only);
//! 4. [`by_column`] — column-wise probes (`SELECT … LIMIT 1` on single tables);
//! 5. [`by_row`] — row-wise probes over the partial query's join path,
//!    guarded by the `CanCheckRows` precondition;
//! 6. [`literals`] — every tagged literal must be used (complete queries only);
//! 7. [`by_order`] — ordered satisfaction of the example tuples (complete,
//!    sorted queries with at least two example tuples).
//!
//! A stage failure prunes the partial query and, with it, every complete query
//! in that branch of the search space.
//!
//! Stages 1–4 are **join-independent**: they read the clause set, the select
//! list, the predicates and the TSQ, never `PartialQuery::join`. A child that
//! progressive join path construction splits into several join variants
//! therefore gets the same verdict from them on every variant, and the round
//! engine runs them once per child (`Verifier::verify_prefix`) and only
//! stages 5–7, which execute over the join path, once per variant
//! (`Verifier::verify_joined`). [`Verifier::verify_timed`] is the two halves
//! back to back. Stage 4 answers from the run's [`VerifyPlan`]: one verdict
//! per (example cell, column), probed on first touch.
//!
//! Database probes are yes/no questions, answered by the streaming executor
//! and memoized in the run's own probe memo, and none of them keeps rows:
//! the `LIMIT 1` probes of stages 4 and 5 ask whether a row exists
//! (`Database::exists_cached_with`, itself a verdict that answers at the
//! first row), while stage 5's global-aggregate probe and stage 7 ask for a
//! verdict on the rows (`Database::decide_cached_with`, tagged by the run's
//! [`VerifyPlan`]) — each memoized as one bit. The `LIMIT 1` probes stop
//! scanning at their first row, and a verdict at the row that decides it (at
//! the latest row `k + 1` of a TSQ with limit `k`; see `docs/EXECUTOR.md`).
//! The memo and the probes' hits, misses and scan counters are the run's
//! [`RunCacheCounters`]. Stage 4 reaches the memo on the first touch of a
//! (cell, column) pair only; stages 5 and 7 on every call.

pub mod by_column;
pub mod by_order;
pub mod by_row;
pub mod clauses;
pub mod literals;
pub mod plan;
pub mod semantics;
pub mod types;

use crate::clock::{Clock, SYSTEM_CLOCK};
use crate::tsq::TableSketchQuery;
use duoquest_db::{Database, RunCacheCounters};
use duoquest_nlq::Literal;
use duoquest_sql::PartialQuery;
pub use plan::VerifyPlan;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// The stage at which verification failed (used for pruning statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyStage {
    /// Clause presence checks.
    Clauses,
    /// Semantic pruning rules (Table 4).
    Semantics,
    /// Projected column type checks.
    ColumnTypes,
    /// Column-wise database probes.
    ByColumn,
    /// Row-wise database probes.
    ByRow,
    /// Literal-usage check on complete queries.
    Literals,
    /// Ordered tuple satisfaction on complete queries.
    ByOrder,
}

impl VerifyStage {
    /// Number of stages in the cascade.
    pub const COUNT: usize = 7;

    /// All stages, in ascending-cost cascade order.
    pub const ALL: [VerifyStage; VerifyStage::COUNT] = [
        VerifyStage::Clauses,
        VerifyStage::Semantics,
        VerifyStage::ColumnTypes,
        VerifyStage::ByColumn,
        VerifyStage::ByRow,
        VerifyStage::Literals,
        VerifyStage::ByOrder,
    ];

    /// Dense index of the stage (cascade position).
    pub fn index(self) -> usize {
        match self {
            VerifyStage::Clauses => 0,
            VerifyStage::Semantics => 1,
            VerifyStage::ColumnTypes => 2,
            VerifyStage::ByColumn => 3,
            VerifyStage::ByRow => 4,
            VerifyStage::Literals => 5,
            VerifyStage::ByOrder => 6,
        }
    }

    /// Short label used in experiment reports.
    pub fn label(self) -> &'static str {
        match self {
            VerifyStage::Clauses => "clauses",
            VerifyStage::Semantics => "semantics",
            VerifyStage::ColumnTypes => "types",
            VerifyStage::ByColumn => "by_column",
            VerifyStage::ByRow => "by_row",
            VerifyStage::Literals => "literals",
            VerifyStage::ByOrder => "by_order",
        }
    }

    /// Span name under which the stage's aggregate time appears in a request
    /// trace (`verify:` plus [`VerifyStage::label`], as a static string so
    /// span recording never allocates).
    pub fn span_name(self) -> &'static str {
        match self {
            VerifyStage::Clauses => "verify:clauses",
            VerifyStage::Semantics => "verify:semantics",
            VerifyStage::ColumnTypes => "verify:types",
            VerifyStage::ByColumn => "verify:by_column",
            VerifyStage::ByRow => "verify:by_row",
            VerifyStage::Literals => "verify:literals",
            VerifyStage::ByOrder => "verify:by_order",
        }
    }
}

/// Wall-clock time and invocation counts per verification stage, making the
/// cascade's ascending-cost ordering observable (not just its prune counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    nanos: [u64; VerifyStage::COUNT],
    calls: [u64; VerifyStage::COUNT],
}

impl StageTimings {
    /// Record one invocation of a stage.
    pub fn record(&mut self, stage: VerifyStage, elapsed: Duration) {
        self.nanos[stage.index()] += elapsed.as_nanos() as u64;
        self.calls[stage.index()] += 1;
    }

    /// Fold another timing table into this one (used to merge a round's
    /// table into the run's).
    pub fn merge(&mut self, other: &StageTimings) {
        for i in 0..VerifyStage::COUNT {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Accumulated wall-clock time of one stage.
    pub fn duration_of(&self, stage: VerifyStage) -> Duration {
        Duration::from_nanos(self.nanos[stage.index()])
    }

    /// Number of invocations of one stage.
    pub fn calls_of(&self, stage: VerifyStage) -> u64 {
        self.calls[stage.index()]
    }

    /// Total time spent in the cascade.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }
}

/// The outcome of verifying one partial query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// The partial query survives.
    Pass,
    /// The partial query is pruned at the given stage.
    Fail(VerifyStage),
}

impl VerifyOutcome {
    /// Whether the query survives verification.
    pub fn passed(&self) -> bool {
        matches!(self, VerifyOutcome::Pass)
    }
}

/// Which part of the cascade one call runs (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    /// Stages 1–4, which never read the join path.
    Prefix,
    /// Stages 5–7, over the join path.
    Joined,
    /// All seven.
    Whole,
}

/// The stage boundaries of one cascade call: a stage's end is the next
/// stage's start, and the first boundary is read when the first stage opens —
/// a call that runs no stage (the joined half of most partial queries) reads
/// no clock at all.
struct Laps<'c> {
    clock: &'c dyn Clock,
    boundary: Option<Instant>,
}

impl Laps<'_> {
    fn open(&mut self) {
        if self.boundary.is_none() {
            self.boundary = Some(self.clock.now());
        }
    }

    fn close(&mut self, stage: VerifyStage, timings: &mut StageTimings) {
        let ended = self.clock.now();
        if let Some(started) = self.boundary.replace(ended) {
            timings.record(stage, ended.saturating_duration_since(started));
        }
    }
}

/// The verifier: holds the TSQ, the tagged literals and the database.
pub struct Verifier<'a> {
    db: &'a Database,
    tsq: Option<&'a TableSketchQuery>,
    literals: &'a [Literal],
    semantic_rules: bool,
    /// Whether partial queries are verified at all (the default). Off — the
    /// NoPQ ablation, the naive chaining approach of paper §3.5 — every
    /// partial query passes unexamined and only complete ones pay the cascade.
    prune_partial: bool,
    /// The column-wise verdicts and the sketch's verdict tags of the run
    /// this verifier works for, and the run's probe memo with its counters.
    /// Borrowed from the run, so the short-lived verifiers it assembles (one
    /// per burst of rounds) all read and fill the same pair; a verifier
    /// built by [`Verifier::new`] owns a fresh one.
    plan: Cow<'a, VerifyPlan>,
    counters: Cow<'a, RunCacheCounters>,
    /// The time source of [`StageTimings`] stamps (virtualized so simulated
    /// runs record simulated durations instead of real ones).
    clock: &'a dyn Clock,
}

impl<'a> Verifier<'a> {
    /// Create a verifier with its own fresh verdicts and probe memo.
    pub fn new(
        db: &'a Database,
        tsq: Option<&'a TableSketchQuery>,
        literals: &'a [Literal],
        semantic_rules: bool,
    ) -> Self {
        let run = (Cow::Owned(VerifyPlan::new(db, tsq)), Cow::Owned(RunCacheCounters::default()));
        Verifier::for_run(db, tsq, literals, semantic_rules, run)
    }

    /// A verifier that reads and fills `plan` — built from `db` and `tsq`
    /// ([`VerifyPlan::new`]) — and asks its probes through the memo in
    /// `counters`: borrowed, they are the run's own.
    pub(crate) fn for_run(
        db: &'a Database,
        tsq: Option<&'a TableSketchQuery>,
        literals: &'a [Literal],
        semantic_rules: bool,
        (plan, counters): (Cow<'a, VerifyPlan>, Cow<'a, RunCacheCounters>),
    ) -> Self {
        Verifier {
            db,
            tsq,
            literals,
            semantic_rules,
            prune_partial: true,
            plan,
            counters,
            clock: &SYSTEM_CLOCK,
        }
    }

    /// Replace the verifier's time source (the deterministic simulation
    /// harness threads a virtual clock through here so `StageTimings` never
    /// reads the real clock).
    pub fn with_clock(mut self, clock: &'a dyn Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Whether partial queries are verified (`DuoquestConfig::prune_partial`;
    /// on unless set otherwise). Complete queries always get the full cascade.
    pub(crate) fn with_prune_partial(mut self, prune_partial: bool) -> Self {
        self.prune_partial = prune_partial;
        self
    }

    /// Whether the cascade looks at `pq` at all: always, unless partial
    /// pruning is off and `pq` is still partial.
    pub(crate) fn examines(&self, pq: &PartialQuery) -> bool {
        self.prune_partial || pq.is_complete()
    }

    /// Run the full ascending-cost cascade on a partial query.
    pub fn verify(&self, pq: &PartialQuery) -> VerifyOutcome {
        let mut scratch = StageTimings::default();
        self.verify_timed(pq, &mut scratch)
    }

    /// Run the cascade, recording per-stage wall-clock time and invocation
    /// counts into `timings`. A round keeps its own table and the driver
    /// merges it afterwards, so no synchronization happens here.
    ///
    /// The clock is read once per stage boundary: a stage's end is the next
    /// stage's start. Most stages run for a fraction of a microsecond, so a
    /// second read per stage was a measurable share of the whole cascade.
    pub fn verify_timed(&self, pq: &PartialQuery, timings: &mut StageTimings) -> VerifyOutcome {
        self.cascade(pq, timings, Part::Whole)
    }

    /// The join-independent stages (1–4) alone: what a child pays once,
    /// however many join variants it is split over.
    pub(crate) fn verify_prefix(
        &self,
        pq: &PartialQuery,
        timings: &mut StageTimings,
    ) -> VerifyOutcome {
        self.cascade(pq, timings, Part::Prefix)
    }

    /// The stages over the join path (5–7) alone, for a query whose
    /// join-independent stages already passed — on itself or on the child it
    /// is a join variant of.
    pub(crate) fn verify_joined(
        &self,
        pq: &PartialQuery,
        timings: &mut StageTimings,
    ) -> VerifyOutcome {
        self.cascade(pq, timings, Part::Joined)
    }

    fn cascade(&self, pq: &PartialQuery, timings: &mut StageTimings, part: Part) -> VerifyOutcome {
        if !self.examines(pq) {
            return VerifyOutcome::Pass;
        }
        let mut laps = Laps { clock: self.clock, boundary: None };
        macro_rules! stage {
            ($stage:expr, $check:expr) => {{
                laps.open();
                let passed = $check;
                laps.close($stage, timings);
                if !passed {
                    return VerifyOutcome::Fail($stage);
                }
            }};
        }

        if part != Part::Joined {
            if let Some(tsq) = self.tsq {
                stage!(VerifyStage::Clauses, clauses::verify_clauses(tsq, pq));
            }
            if self.semantic_rules {
                stage!(VerifyStage::Semantics, semantics::verify_semantics(self.db.schema(), pq));
            }
            if let Some(tsq) = self.tsq {
                stage!(
                    VerifyStage::ColumnTypes,
                    types::verify_column_types(self.db.schema(), tsq, pq)
                );
                stage!(
                    VerifyStage::ByColumn,
                    by_column::verify_by_column(self.db, tsq, pq, &self.plan, &self.counters)
                );
            }
        }
        if part == Part::Prefix {
            return VerifyOutcome::Pass;
        }
        if let Some(tsq) = self.tsq {
            if by_row::can_check_rows(pq) {
                stage!(VerifyStage::ByRow, by_row::verify_by_row(self.db, tsq, pq, &self.counters));
            }
        }
        if pq.is_complete() {
            stage!(VerifyStage::Literals, literals::verify_literals(pq, self.literals));
            if let Some(tsq) = self.tsq {
                if !tsq.tuples.is_empty() || tsq.limit > 0 {
                    stage!(
                        VerifyStage::ByOrder,
                        by_order::verify_complete(self.db, tsq, pq, &self.plan, &self.counters)
                    );
                }
            }
        }
        VerifyOutcome::Pass
    }
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    //! Shared fixtures for the verification stage tests: the movie database of
    //! the paper's motivating example (Example 2.1 / Table 2).

    use duoquest_db::{ColumnDef, Database, Schema, TableDef, Value};

    /// Build the motivating-example movie database.
    pub fn movie_db() -> Database {
        let mut s = Schema::new("movies");
        s.add_table(TableDef::new(
            "actor",
            vec![
                ColumnDef::number("aid"),
                ColumnDef::text("name"),
                ColumnDef::number("birth_yr"),
                ColumnDef::text("gender"),
            ],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "starring",
            vec![ColumnDef::number("aid"), ColumnDef::number("mid")],
            None,
        ));
        s.add_foreign_key("starring", "aid", "actor", "aid").unwrap();
        s.add_foreign_key("starring", "mid", "movies", "mid").unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert_all(
            "actor",
            vec![
                vec![
                    Value::int(1),
                    Value::text("Tom Hanks"),
                    Value::int(1956),
                    Value::text("male"),
                ],
                vec![
                    Value::int(2),
                    Value::text("Sandra Bullock"),
                    Value::int(1964),
                    Value::text("female"),
                ],
                vec![
                    Value::int(3),
                    Value::text("Brad Pitt"),
                    Value::int(1963),
                    Value::text("male"),
                ],
            ],
        )
        .unwrap();
        db.insert_all(
            "movies",
            vec![
                vec![Value::int(10), Value::text("Forrest Gump"), Value::int(1994)],
                vec![Value::int(11), Value::text("Gravity"), Value::int(2013)],
                vec![Value::int(12), Value::text("Fight Club"), Value::int(1999)],
            ],
        )
        .unwrap();
        db.insert_all(
            "starring",
            vec![
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(2), Value::int(11)],
                vec![Value::int(3), Value::int(12)],
            ],
        )
        .unwrap();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::movie_db;
    use super::*;
    use crate::tsq::{TableSketchQuery, TsqCell};
    use duoquest_db::{CmpOp, JoinTree, LogicalOp, Value};
    use duoquest_sql::{
        ClauseSet, PartialPredicate, PartialQuery, PartialSelectItem, SelectColumn, Slot,
    };

    /// SELECT movies.name FROM movies WHERE movies.year < 1995 (complete).
    fn complete_pq(db: &Database) -> PartialQuery {
        let s = db.schema();
        PartialQuery {
            clauses: Slot::Filled(ClauseSet { where_clause: true, ..Default::default() }),
            select: Slot::Filled(
                vec![PartialSelectItem {
                    col: Slot::Filled(SelectColumn::Column(s.column_id("movies", "name").unwrap())),
                    agg: Slot::Filled(None),
                }]
                .into(),
            ),
            distinct: false,
            join: Some(JoinTree::single(s.table_id("movies").unwrap())),
            where_predicates: Slot::Filled(
                vec![PartialPredicate {
                    col: Slot::Filled(s.column_id("movies", "year").unwrap()),
                    op: Slot::Filled(CmpOp::Lt),
                    value: Slot::Filled(Value::int(1995)),
                    value2: None,
                }]
                .into(),
            ),
            where_op: Slot::Filled(LogicalOp::And),
            group_by: Slot::Hole,
            having: Slot::Hole,
            order_by: Slot::Hole,
        }
    }

    #[test]
    fn full_cascade_passes_consistent_query() {
        let db = movie_db();
        let tsq = TableSketchQuery::with_types(vec![duoquest_db::DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let pq = complete_pq(&db);
        let literals = vec![duoquest_nlq::Literal::number(1995.0)];
        let verifier = Verifier::new(&db, Some(&tsq), &literals, true);
        assert!(verifier.verify(&pq).passed());
    }

    #[test]
    fn cascade_fails_at_clause_stage_for_unsorted_tsq() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty(); // not sorted
        let mut pq = complete_pq(&db);
        pq.clauses =
            Slot::Filled(ClauseSet { where_clause: true, order_by: true, ..Default::default() });
        let verifier = Verifier::new(&db, Some(&tsq), &[], true);
        assert_eq!(verifier.verify(&pq), VerifyOutcome::Fail(VerifyStage::Clauses));
    }

    #[test]
    fn cascade_fails_on_wrong_type_annotation() {
        let db = movie_db();
        let tsq = TableSketchQuery::with_types(vec![duoquest_db::DataType::Number]);
        let pq = complete_pq(&db);
        let verifier = Verifier::new(&db, Some(&tsq), &[], true);
        assert_eq!(verifier.verify(&pq), VerifyOutcome::Fail(VerifyStage::ColumnTypes));
    }

    #[test]
    fn cascade_fails_on_unknown_example_value() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::text("Titanic")]);
        let pq = complete_pq(&db);
        let verifier = Verifier::new(&db, Some(&tsq), &[], true);
        assert_eq!(verifier.verify(&pq), VerifyOutcome::Fail(VerifyStage::ByColumn));
    }

    #[test]
    fn cascade_fails_on_unused_literal() {
        let db = movie_db();
        let pq = complete_pq(&db);
        let literals = vec![duoquest_nlq::Literal::number(2000.0)];
        let verifier = Verifier::new(&db, None, &literals, true);
        assert_eq!(verifier.verify(&pq), VerifyOutcome::Fail(VerifyStage::Literals));
    }

    #[test]
    fn no_tsq_means_no_tsq_stages() {
        let db = movie_db();
        let pq = complete_pq(&db);
        let literals = vec![duoquest_nlq::Literal::number(1995.0)];
        let verifier = Verifier::new(&db, None, &literals, true);
        assert!(verifier.verify(&pq).passed());
    }

    /// A clock that moves 1 µs per read, so a duration counts the reads
    /// between its two ends.
    struct TickingClock {
        base: std::time::Instant,
        reads: std::sync::atomic::AtomicU64,
    }

    impl crate::clock::Clock for TickingClock {
        fn now(&self) -> std::time::Instant {
            let n = self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.base + std::time::Duration::from_micros(n)
        }
    }

    #[test]
    fn cascade_reads_the_clock_once_per_stage_boundary() {
        let db = movie_db();
        let tsq = TableSketchQuery::with_types(vec![duoquest_db::DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let pq = complete_pq(&db);
        let literals = vec![duoquest_nlq::Literal::number(1995.0)];
        let clock = TickingClock { base: std::time::Instant::now(), reads: 0.into() };
        let verifier = Verifier::new(&db, Some(&tsq), &literals, true).with_clock(&clock);

        let mut timings = StageTimings::default();
        assert!(verifier.verify_timed(&pq, &mut timings).passed());
        let stages: u64 = VerifyStage::ALL.iter().map(|s| timings.calls_of(*s)).sum();
        assert_eq!(stages, 7, "a complete query with example tuples runs every stage");
        // One read to open the cascade, one to close each stage; every stage
        // is charged exactly the one tick between its boundaries.
        assert_eq!(clock.reads.load(std::sync::atomic::Ordering::Relaxed), stages + 1);
        for stage in VerifyStage::ALL {
            assert_eq!(timings.duration_of(stage), std::time::Duration::from_micros(1));
        }

        // A failing stage is still timed, and nothing after it is.
        let wrong = TableSketchQuery::with_types(vec![duoquest_db::DataType::Number]);
        let verifier = Verifier::new(&db, Some(&wrong), &literals, true).with_clock(&clock);
        let mut timings = StageTimings::default();
        assert_eq!(
            verifier.verify_timed(&pq, &mut timings),
            VerifyOutcome::Fail(VerifyStage::ColumnTypes)
        );
        assert_eq!(timings.calls_of(VerifyStage::ColumnTypes), 1);
        assert_eq!(timings.calls_of(VerifyStage::ByColumn), 0);
        assert_eq!(timings.total(), std::time::Duration::from_micros(3));
    }

    /// The two halves of the cascade, run back to back on one query, are the
    /// whole cascade: same outcome and the same stages invoked — on every
    /// child (and join variant) of a few levels of the search, with and
    /// without partial pruning.
    #[test]
    fn split_cascade_equals_one_unsplit_pass() {
        use crate::config::DuoquestConfig;
        use crate::enumerate::enum_next_step;
        use crate::joinpath::construct_join_paths;
        use duoquest_db::JoinGraph;

        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let config = DuoquestConfig::fast();
        let nlq = duoquest_nlq::Nlq::with_literals(
            "names of movies before 1995",
            vec![duoquest_nlq::Literal::number(1995.0)],
        );
        let tsq = TableSketchQuery::with_types(vec![duoquest_db::DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let calls = |t: &StageTimings| VerifyStage::ALL.map(|stage| t.calls_of(stage));

        let (mut compared, mut outcomes) = (0, Vec::new());
        for prune_partial in [true, false] {
            let verifier = Verifier::new(&db, Some(&tsq), &nlq.literals, true)
                .with_prune_partial(prune_partial);
            let mut frontier = vec![PartialQuery::empty()];
            for _level in 0..7 {
                let mut next = Vec::new();
                for (_, child) in frontier
                    .iter()
                    .filter_map(|pq| enum_next_step(pq, &db, &nlq, &config))
                    .flatten()
                {
                    let mut variants = vec![child.clone()];
                    if !child.select.is_hole() {
                        let paths =
                            construct_join_paths(&db, &graph, &child, child.join.as_ref(), 1);
                        variants.extend(
                            paths
                                .into_iter()
                                .map(|j| PartialQuery { join: Some(j), ..child.clone() }),
                        );
                    }
                    for pq in variants {
                        let mut whole = StageTimings::default();
                        let expected = verifier.verify_timed(&pq, &mut whole);
                        let mut halves = StageTimings::default();
                        let mut got = verifier.verify_prefix(&pq, &mut halves);
                        if got.passed() {
                            got = verifier.verify_joined(&pq, &mut halves);
                        }
                        assert_eq!(got, expected, "{pq:?}");
                        assert_eq!(calls(&halves), calls(&whole), "{pq:?}");
                        assert!(
                            prune_partial || pq.is_complete() || calls(&whole) == [0; 7],
                            "NoPQ examines no partial query: {pq:?}"
                        );
                        compared += 1;
                        outcomes.push(expected);
                        if expected.passed() && (pq.select.is_hole() || pq.join.is_some()) {
                            next.push(pq);
                        }
                    }
                }
                next.truncate(40);
                frontier = next;
            }
        }
        assert!(compared > 500, "only {compared} queries compared");
        // Every stage must have decided something, or the walk proved little.
        for stage in [
            VerifyStage::Clauses,
            VerifyStage::ColumnTypes,
            VerifyStage::ByColumn,
            VerifyStage::ByRow,
        ] {
            assert!(outcomes.contains(&VerifyOutcome::Fail(stage)), "{stage:?} never failed");
        }
        assert!(outcomes.contains(&VerifyOutcome::Pass));
    }
}
