//! Ordered tuple satisfaction (`VerifyByOrder`, paper Algorithm 3 lines 11–12).
//!
//! When the TSQ is sorted and contains at least two example tuples, the
//! complete candidate query is executed and the example tuples must be
//! satisfied by result rows appearing in the same order as they were given;
//! otherwise each tuple needs a result row of its own
//! ([`verify_complete`]). Either way the result must respect the limit `k`.
//!
//! # Deciding while the rows stream
//!
//! Both checks are yes/no questions about the candidate's rows, and both are
//! decided the way a Boolean query is: without materialising the result. A
//! check is a [`Verdict`] — `InOrder` or `Matching` — that
//! [`Database::decide_cached_with`] feeds the projected rows one at a time;
//! the executor stops pulling the moment the verdict is known, and the probe
//! cache keeps the answer as one bit under the sketch's tag
//! ([`VerifyPlan::tag`]), never the rows.
//!
//! * Without a limit, the check passes on the row that completes it: the
//!   last tuple found in order, or the first perfect matching.
//! * With a limit `k`, row `k + 1` fails it, and the execution runs under a
//!   **row budget of `k + 1`**, so the streaming executor never pulls
//!   further. For sorted TSQs whose candidate `ORDER BY` the pipeline order
//!   already satisfies (a presorted probe-side column), this is an
//!   early-terminating scan.

use crate::tsq::TableSketchQuery;
use crate::verify::plan::{Decision, VerifyPlan};
use duoquest_db::{Database, RunCacheCounters, SelectSpec, Value, Verdict};
use duoquest_sql::PartialQuery;

/// The row budget for a TSQ-limit check: `k + 1` rows decide `|result| > k`.
/// (`k = usize::MAX` cannot be exceeded: the budget saturates, as if there
/// were none.)
fn limit_budget(tsq: &TableSketchQuery) -> Option<usize> {
    (tsq.limit > 0).then(|| tsq.limit.saturating_add(1))
}

/// Final soundness check for complete candidate queries (Definition 2.4): every
/// example tuple must be satisfied by a *distinct* output row, the result must
/// respect the limit `k`, and — when the TSQ is sorted and has two tuples or
/// more — the tuples must appear in order ([`Decision::InOrder`]). It closes
/// the gap left by the (intentionally superset-based) partial row-wise probes.
/// `plan` must have been built from `tsq`.
pub fn verify_complete(
    db: &Database,
    tsq: &TableSketchQuery,
    pq: &PartialQuery,
    plan: &VerifyPlan,
    counters: &RunCacheCounters,
) -> bool {
    let Ok(spec) = pq.to_spec() else { return false };
    spec_satisfies_sketch(db, tsq, &spec, plan, counters)
}

/// [`verify_complete`] on a query already compiled to its spec.
pub fn spec_satisfies_sketch(
    db: &Database,
    tsq: &TableSketchQuery,
    spec: &SelectSpec,
    plan: &VerifyPlan,
    counters: &RunCacheCounters,
) -> bool {
    let decision =
        if tsq.sorted && tsq.tuples.len() >= 2 { Decision::InOrder } else { Decision::Matching };
    decide(db, tsq, spec, plan, decision, counters)
}

/// Ask the probe cache for `decision` on `spec`'s rows, deciding it while
/// they stream on a miss.
fn decide(
    db: &Database,
    tsq: &TableSketchQuery,
    spec: &SelectSpec,
    plan: &VerifyPlan,
    decision: Decision,
    counters: &RunCacheCounters,
) -> bool {
    let (budget, tag) = (limit_budget(tsq), plan.tag(decision));
    let answer = match decision {
        Decision::InOrder => {
            db.decide_cached_with(spec, budget, tag, counters, &mut InOrder::new(tsq))
        }
        _ => db.decide_cached_with(spec, budget, tag, counters, &mut Matching::new(tsq)),
    };
    answer.unwrap_or(false)
}

/// [`Decision::InOrder`] as a row-by-row [`Verdict`]: a greedy cursor over
/// the example tuples, which each row moves past the next tuple if it
/// satisfies it. Taking the first satisfying row for each tuple leaves the
/// most rows for the tuples after it, so the cursor reaches the end exactly
/// when an in-order assignment exists.
#[derive(Debug)]
struct InOrder<'t> {
    tsq: &'t TableSketchQuery,
    /// Tuples found so far, in order.
    found: usize,
    rows: usize,
}

impl<'t> InOrder<'t> {
    /// The check of `tsq`'s tuples and limit, before any row.
    fn new(tsq: &'t TableSketchQuery) -> Self {
        InOrder { tsq, found: 0, rows: 0 }
    }
}

impl Verdict for InOrder<'_> {
    fn row(&mut self, row: &[Value]) -> Option<bool> {
        let tsq = self.tsq;
        self.rows += 1;
        if tsq.limit > 0 && self.rows > tsq.limit {
            return Some(false);
        }
        if self.found < tsq.tuples.len() && tsq.row_satisfies_tuple(self.found, row) {
            self.found += 1;
        }
        (tsq.limit == 0 && self.found == tsq.tuples.len()).then_some(true)
    }

    fn end(&mut self) -> bool {
        self.found == self.tsq.tuples.len()
    }
}

/// [`Decision::Matching`] as a row-by-row [`Verdict`]: every example tuple
/// needs a row of its own. That is a bipartite matching problem — a greedy
/// first-fit wrongly rejects a result where an early tuple takes the only row
/// a later tuple could use — solved with Kuhn's augmenting paths as the rows
/// arrive.
///
/// Only rows that satisfy some tuple are kept, and at most `T` per tuple,
/// where `T` is the tuple count: a row is kept while some tuple it satisfies
/// has fewer than `T` kept rows. By Hall's condition this loses no matching:
/// a set `S` of tuples that includes a tuple with `T ≥ |S|` kept rows has
/// enough rows, and one that does not kept every row its tuples are
/// satisfied by. So at most `T²` rows are kept, as the tuples each row
/// satisfies, and no cell.
#[derive(Debug)]
struct Matching<'t> {
    tsq: &'t TableSketchQuery,
    rows: usize,
    /// Per tuple, the kept rows (numbered in arrival order) satisfying it.
    /// Empty until the first row, so a check answered from the cache
    /// allocates nothing.
    rows_of: Vec<Vec<usize>>,
    /// Per kept row, the tuple it is matched to.
    owner: Vec<Option<usize>>,
    /// Per tuple, whether it is matched; and how many are.
    is_matched: Vec<bool>,
    matched: usize,
}

impl<'t> Matching<'t> {
    /// The check of `tsq`'s tuples and limit, before any row.
    fn new(tsq: &'t TableSketchQuery) -> Self {
        Matching {
            tsq,
            rows: 0,
            rows_of: Vec::new(),
            owner: Vec::new(),
            is_matched: Vec::new(),
            matched: 0,
        }
    }

    /// Keep `row` if a tuple it satisfies still has room, then grow the
    /// matching by the augmenting path it may open.
    fn keep(&mut self, row: &[Value]) {
        let (tsq, tuples) = (self.tsq, self.tsq.tuples.len());
        if self.rows_of.is_empty() {
            self.rows_of = vec![Vec::new(); tuples];
            self.is_matched = vec![false; tuples];
        }
        let room = |t: usize| self.rows_of[t].len() < tuples;
        if !(0..tuples).any(|t| room(t) && tsq.row_satisfies_tuple(t, row)) {
            return;
        }
        let kept = self.owner.len();
        self.owner.push(None);
        for t in (0..tuples).filter(|&t| tsq.row_satisfies_tuple(t, row)) {
            self.rows_of[t].push(kept);
        }
        // Any augmenting path now ends at the new row, and one is the most a
        // new row can add.
        for t in 0..tuples {
            if !self.is_matched[t] && self.assign(t, &mut vec![false; kept + 1]) {
                self.is_matched[t] = true;
                self.matched += 1;
                break;
            }
        }
    }

    /// Try to give tuple `t` a kept row, re-seating earlier owners along an
    /// augmenting path.
    fn assign(&mut self, t: usize, visited: &mut [bool]) -> bool {
        for i in 0..self.rows_of[t].len() {
            let r = self.rows_of[t][i];
            if std::mem::replace(&mut visited[r], true) {
                continue;
            }
            let reseated = match self.owner[r] {
                None => true,
                Some(owner) => self.assign(owner, visited),
            };
            if reseated {
                self.owner[r] = Some(t);
                return true;
            }
        }
        false
    }
}

impl Verdict for Matching<'_> {
    fn row(&mut self, row: &[Value]) -> Option<bool> {
        let (tsq, tuples) = (self.tsq, self.tsq.tuples.len());
        self.rows += 1;
        if tsq.limit > 0 && self.rows > tsq.limit {
            return Some(false);
        }
        if self.matched < tuples {
            self.keep(row);
        }
        (tsq.limit == 0 && self.matched == tuples).then_some(true)
    }

    fn end(&mut self) -> bool {
        self.matched == self.tsq.tuples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsq::TsqCell;
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::{JoinGraph, OrderKey, Value};
    use duoquest_sql::{ClauseSet, PartialOrder, PartialSelectItem, SelectColumn, Slot};

    /// SELECT movies.name, movies.year FROM movies ORDER BY movies.year ASC|DESC
    fn ordered_pq(db: &Database, desc: bool) -> PartialQuery {
        let s = db.schema();
        let graph = JoinGraph::new(s);
        let join = graph.steiner_tree(&[s.table_id("movies").unwrap()]).unwrap();
        PartialQuery {
            clauses: Slot::Filled(ClauseSet { order_by: true, ..Default::default() }),
            select: Slot::Filled(
                vec![
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(
                            s.column_id("movies", "name").unwrap(),
                        )),
                        agg: Slot::Filled(None),
                    },
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(
                            s.column_id("movies", "year").unwrap(),
                        )),
                        agg: Slot::Filled(None),
                    },
                ]
                .into(),
            ),
            join: Some(join),
            order_by: Slot::Filled(Some(
                PartialOrder {
                    key: Slot::Filled(OrderKey::Column(s.column_id("movies", "year").unwrap())),
                    desc: Slot::Filled(desc),
                    limit: Slot::Filled(None),
                }
                .into(),
            )),
            ..PartialQuery::empty()
        }
    }

    fn two_tuples_ascending() -> TableSketchQuery {
        TableSketchQuery {
            tuples: vec![
                vec![TsqCell::text("Forrest Gump"), TsqCell::Empty],
                vec![TsqCell::text("Gravity"), TsqCell::Empty],
            ],
            sorted: true,
            ..Default::default()
        }
    }

    /// [`spec_satisfies_sketch`] on the complete `pq`'s spec, with `tsq`'s
    /// own plan and fresh counters.
    fn satisfies(db: &Database, tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
        let plan = VerifyPlan::new(db, Some(tsq));
        let spec = pq.to_spec().expect("a complete query");
        spec_satisfies_sketch(db, tsq, &spec, &plan, &RunCacheCounters::default())
    }

    /// [`verify_complete`] with `tsq`'s own plan and fresh counters.
    fn complete(db: &Database, tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
        let plan = VerifyPlan::new(db, Some(tsq));
        verify_complete(db, tsq, pq, &plan, &RunCacheCounters::default())
    }

    #[test]
    fn ascending_order_matches_ascending_examples() {
        let db = movie_db();
        assert!(satisfies(&db, &two_tuples_ascending(), &ordered_pq(&db, false)));
        // Descending order puts Gravity before Forrest Gump, violating the TSQ.
        assert!(!satisfies(&db, &two_tuples_ascending(), &ordered_pq(&db, true)));
    }

    #[test]
    fn missing_tuple_fails() {
        let db = movie_db();
        let tsq = TableSketchQuery {
            tuples: vec![
                vec![TsqCell::text("Forrest Gump"), TsqCell::Empty],
                vec![TsqCell::text("Titanic"), TsqCell::Empty],
            ],
            sorted: true,
            ..Default::default()
        };
        assert!(!satisfies(&db, &tsq, &ordered_pq(&db, false)));
    }

    #[test]
    fn range_cells_participate_in_order_check() {
        let db = movie_db();
        let tsq = TableSketchQuery {
            tuples: vec![
                vec![TsqCell::Empty, TsqCell::range(1990, 1995)],
                vec![TsqCell::Empty, TsqCell::range(2010, 2017)],
            ],
            sorted: true,
            ..Default::default()
        };
        assert!(satisfies(&db, &tsq, &ordered_pq(&db, false)));
        assert!(!satisfies(&db, &tsq, &ordered_pq(&db, true)));
    }

    #[test]
    fn limit_violation_fails() {
        let db = movie_db();
        let tsq = TableSketchQuery {
            tuples: vec![vec![TsqCell::text("Forrest Gump"), TsqCell::Empty]],
            sorted: true,
            limit: 1,
            ..Default::default()
        };
        // Query returns 3 rows > limit 1.
        assert!(!satisfies(&db, &tsq, &ordered_pq(&db, false)));
        assert!(satisfies(&db, &tsq.clone().with_limit(3), &ordered_pq(&db, false)));
    }

    /// `limit + 1` must not overflow: the largest limit is "no limit" in
    /// effect, and in release builds a wrapped budget of 0 rejected every
    /// complete candidate.
    #[test]
    fn a_limit_of_usize_max_verifies_like_no_limit() {
        let db = movie_db();
        let mut pq = ordered_pq(&db, false);
        for sorted in [true, false] {
            if !sorted {
                pq.clauses = Slot::Filled(ClauseSet::default());
                pq.order_by = Slot::Hole;
            }
            for tsq in [
                two_tuples_ascending(),
                TableSketchQuery::empty()
                    .with_tuple(vec![TsqCell::text("Titanic"), TsqCell::Empty]),
            ] {
                let tsq = TableSketchQuery { sorted, ..tsq };
                let unlimited = TableSketchQuery { limit: usize::MAX, ..tsq.clone() };
                assert_eq!(limit_budget(&unlimited), Some(usize::MAX));
                assert_eq!(complete(&db, &unlimited, &pq), complete(&db, &tsq, &pq), "{tsq:?}");
            }
            assert!(complete(&db, &TableSketchQuery::empty().with_limit(usize::MAX), &pq));
        }
        assert!(satisfies(
            &db,
            &TableSketchQuery { limit: usize::MAX, ..two_tuples_ascending() },
            &ordered_pq(&db, false)
        ));
    }

    #[test]
    fn overlapping_tuples_find_distinct_rows() {
        // Regression test: tuple 1 (any year in 1990..2015) matches every
        // movie including Forrest Gump; tuple 2 matches *only* Forrest Gump.
        // The old greedy first-fit assigned Forrest Gump to tuple 1 and then
        // wrongly pruned the candidate; the matching must re-seat tuple 1
        // onto another row.
        let db = movie_db();
        let mut pq = ordered_pq(&db, false);
        pq.clauses = Slot::Filled(ClauseSet::default());
        pq.order_by = Slot::Hole;
        let tsq = TableSketchQuery {
            tuples: vec![
                vec![TsqCell::Empty, TsqCell::range(1990, 2015)],
                vec![TsqCell::text("Forrest Gump"), TsqCell::Empty],
            ],
            sorted: false,
            ..Default::default()
        };
        assert!(complete(&db, &tsq, &pq));
        // An unsatisfiable pair (two tuples, only one possible row) still fails.
        let tsq = TableSketchQuery {
            tuples: vec![
                vec![TsqCell::text("Forrest Gump"), TsqCell::Empty],
                vec![TsqCell::text("Forrest Gump"), TsqCell::Empty],
            ],
            sorted: false,
            ..Default::default()
        };
        assert!(!complete(&db, &tsq, &pq));
    }

    #[test]
    fn sorted_tsq_with_limit_short_circuits_execution() {
        // Regression test for the incremental-execution ROADMAP item: a
        // sorted TSQ with limit `k` must probe with a row budget of `k + 1`
        // instead of materializing the full result. The fixture table is
        // stored ascending by `id`, so the candidate's ORDER BY is satisfied
        // by the pipeline order and the streaming executor stops after two
        // rows — observable through the run's scan counters.
        let mut s = duoquest_db::Schema::new("events");
        s.add_table(duoquest_db::TableDef::new(
            "event",
            vec![duoquest_db::ColumnDef::number("id"), duoquest_db::ColumnDef::text("name")],
            Some(0),
        ));
        let mut db = Database::new(s).unwrap();
        let n = 1_000usize;
        db.insert_all(
            "event",
            (0..n).map(|i| vec![Value::int(i as i64), Value::text(format!("event {i}"))]),
        )
        .unwrap();
        let schema = db.schema();
        let id = schema.column_id("event", "id").unwrap();

        // SELECT event.name, event.id FROM event ORDER BY event.id ASC —
        // 1000 rows, violating the TSQ limit of 1.
        let pq = PartialQuery {
            clauses: Slot::Filled(ClauseSet { order_by: true, ..Default::default() }),
            select: Slot::Filled(
                vec![
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(
                            schema.column_id("event", "name").unwrap(),
                        )),
                        agg: Slot::Filled(None),
                    },
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(id)),
                        agg: Slot::Filled(None),
                    },
                ]
                .into(),
            ),
            join: Some(JoinGraph::new(schema).steiner_tree(&[id.table]).unwrap()),
            order_by: Slot::Filled(Some(
                PartialOrder {
                    key: Slot::Filled(OrderKey::Column(id)),
                    desc: Slot::Filled(false),
                    limit: Slot::Filled(None),
                }
                .into(),
            )),
            ..PartialQuery::empty()
        };
        let tsq = TableSketchQuery {
            tuples: vec![
                vec![TsqCell::text("event 0"), TsqCell::Empty],
                vec![TsqCell::text("event 1"), TsqCell::Empty],
            ],
            sorted: true,
            limit: 1,
            ..Default::default()
        };
        let counters = RunCacheCounters::default();
        let plan = VerifyPlan::new(&db, Some(&tsq));
        let spec = pq.to_spec().unwrap();
        assert!(
            !spec_satisfies_sketch(&db, &tsq, &spec, &plan, &counters),
            "a 1000-row result must violate the TSQ limit of 1"
        );
        let (scanned, short_circuited) = counters.scan_snapshot();
        assert!(
            scanned < (n / 10) as u64,
            "the limit check must not materialize the result: scanned {scanned} of {n} rows"
        );
        assert_eq!(
            short_circuited,
            n as u64 - scanned,
            "the saved scan must be attributed to the short-circuit counter"
        );
    }

    #[test]
    fn incomplete_query_fails_safe() {
        let db = movie_db();
        let tsq = two_tuples_ascending();
        let mut pq = ordered_pq(&db, false);
        pq.order_by = Slot::Filled(Some(
            PartialOrder { key: Slot::Hole, desc: Slot::Hole, limit: Slot::Hole }.into(),
        ));
        assert!(!complete(&db, &tsq, &pq));
    }

    /// An `n`-row table: row `i` is named `event i`, in group `i % 10`.
    fn events(n: usize) -> Database {
        let mut s = duoquest_db::Schema::new("events");
        s.add_table(duoquest_db::TableDef::new(
            "event",
            vec![
                duoquest_db::ColumnDef::number("id"),
                duoquest_db::ColumnDef::text("name"),
                duoquest_db::ColumnDef::number("grp"),
            ],
            Some(0),
        ));
        let mut db = Database::new(s).unwrap();
        let rows = (0..n).map(|i| {
            vec![Value::int(i as i64), Value::text(format!("event {i}")), Value::int(i as i64 % 10)]
        });
        db.insert_all("event", rows).unwrap();
        db
    }

    /// SELECT event.name, event.grp FROM event — no limit, no order.
    fn names_and_groups(db: &Database) -> PartialQuery {
        let s = db.schema();
        let item = |c| PartialSelectItem {
            col: Slot::Filled(SelectColumn::Column(s.column_id("event", c).unwrap())),
            agg: Slot::Filled(None),
        };
        PartialQuery {
            clauses: Slot::Filled(ClauseSet::default()),
            select: Slot::Filled(vec![item("name"), item("grp")].into()),
            join: Some(JoinGraph::new(s).steiner_tree(&[s.table_id("event").unwrap()]).unwrap()),
            ..PartialQuery::empty()
        }
    }

    /// An unlimited, unsorted candidate is not materialised for its check:
    /// the rows stream into the verdict, which stops the scan at the row that
    /// completes the matching, and the run's memo keeps one bit.
    #[test]
    fn a_complete_check_stops_at_the_row_that_decides_it() {
        let n = 1_000;
        let db = events(n);
        let pq = names_and_groups(&db);
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::Empty, TsqCell::number(3)])
            .with_tuple(vec![TsqCell::text("event 12"), TsqCell::Empty])
            .with_tuple(vec![TsqCell::Empty, TsqCell::range(2, 3)]);
        let (plan, counters) = (VerifyPlan::new(&db, Some(&tsq)), RunCacheCounters::default());
        assert!(verify_complete(&db, &tsq, &pq, &plan, &counters));
        // Row 2 holds tuple 2, row 3 tuple 0 and row 12 tuple 1: the scan
        // stops at row 12.
        assert_eq!(counters.scan_snapshot(), (13, n as u64 - 13));
        assert_eq!(counters.entries(), 1);
        assert!(verify_complete(&db, &tsq, &pq, &plan, &counters));
        assert_eq!(counters.snapshot(), (1, 1), "(hits, misses)");
        assert_eq!(counters.scan_snapshot().0, 13, "the hit scanned nothing");

        // A failing check reads the whole result, and still keeps one bit.
        let missing = tsq.clone().with_tuple(vec![TsqCell::text("event 1000"), TsqCell::Empty]);
        let plan = VerifyPlan::new(&db, Some(&missing));
        let failing = RunCacheCounters::default();
        assert!(!verify_complete(&db, &missing, &pq, &plan, &failing));
        assert_eq!((failing.entries(), failing.scan_snapshot().0), (1, n as u64));
    }

    /// Kuhn's matching over the kept rows re-seats earlier tuples, and keeps
    /// a row only while a tuple it satisfies has fewer than `T` kept rows.
    #[test]
    fn matching_reseats_tuples_and_keeps_few_rows() {
        // Any row; a 0; another 0 (duplicate tuples need distinct rows).
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::Empty])
            .with_tuple(vec![TsqCell::number(0)])
            .with_tuple(vec![TsqCell::number(0)]);
        let rows = [0, 5, 5, 5, 5, 0];
        let mut matching = Matching::new(&tsq);
        for (i, n) in rows.iter().enumerate() {
            let decided = (i == rows.len() - 1).then_some(true);
            assert_eq!(matching.row(&[Value::int(*n)]), decided, "row {i}");
        }
        // Row 0 went to tuple 0, then to tuple 1 when row 1 took tuple 0 over.
        // Row 5 completed the matching by taking tuple 1 and handing row 0
        // to tuple 2. Rows 3 and 4 satisfied only tuple 0, which had its
        // three rows.
        assert_eq!(matching.owner, [Some(2), Some(0), None, Some(1)]);

        let limited = tsq.clone().with_limit(100);
        let mut matching = Matching::new(&limited);
        for n in rows.into_iter().chain([5; 94]) {
            assert_eq!(matching.row(&[Value::int(n)]), None);
        }
        assert_eq!(matching.owner.len(), 4, "a complete matching keeps nothing more");
        assert!(matching.end());
        assert_eq!(matching.row(&[Value::int(5)]), Some(false), "row 101 exceeds the limit");
        let mut none = Matching::new(&limited);
        assert!(!none.end() && none.rows_of.capacity() == 0, "no row, no allocation");
    }

    /// Two runs whose sketches disagree on one complete candidate, through
    /// one database: each gets its own verdict, whether the two ask at the
    /// same time or one after the other, and each run's memo keeps one entry
    /// per sketch it asked about.
    #[test]
    fn two_sketches_get_their_own_verdicts_on_one_database() {
        let db = events(20_000);
        let pq = names_and_groups(&db);
        let present = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("event 19998"), TsqCell::number(8)]);
        let absent = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("event 19998"), TsqCell::number(9)]);
        let runs = [(&present, true), (&absent, false)]
            .map(|(tsq, expected)| (tsq, VerifyPlan::new(&db, Some(tsq)), expected));
        for _ in 0..20 {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for (tsq, plan, expected) in &runs {
                    let (db, pq, barrier, plan) = (&db, &pq, &barrier, plan.clone());
                    scope.spawn(move || {
                        let counters = RunCacheCounters::default();
                        barrier.wait();
                        for _ in 0..3 {
                            assert_eq!(verify_complete(db, tsq, pq, &plan, &counters), *expected);
                        }
                        assert_eq!(counters.snapshot(), (2, 1), "(hits, misses)");
                        assert_eq!(counters.entries(), 1, "one verdict for its sketch");
                    });
                }
            });
        }
        // One memo asked about both sketches keeps both verdicts apart.
        let counters = RunCacheCounters::default();
        for (tsq, plan, expected) in runs.iter().cycle().take(6) {
            assert_eq!(verify_complete(&db, tsq, &pq, plan, &counters), *expected);
        }
        assert_eq!((counters.snapshot(), counters.entries()), ((4, 2), 2), "one per sketch");
    }
}
