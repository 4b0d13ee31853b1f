//! The semi-join-reduced planner against the scan path, with no toggle to
//! flip: the scan path is the naive evaluator (`common::naive`), nested
//! loops over every row of every table in the canonical join order. Every
//! reduced plan — a restriction, a semi-join walk, a greedy reorder, an
//! ordered index scan — must return its rows in its order (the canonical
//! row order of `docs/EXECUTOR.md`), byte for byte, with and without a row
//! budget.
//!
//! * **replay** — the probes a synthesis run sends to the executor, rebuilt
//!   from the gold query and every emitted candidate of the 14 MAS study
//!   tasks and 20 generated Spider tasks;
//! * **generated** — seeded specs (`tests/common`, shared with
//!   `tests/reference.rs`) over MAS and Spider databases salted with NULL,
//!   NaN and case-varying text: join trees rooted anywhere, literals that hit
//!   and miss, AND and OR, grouping, global aggregates, ordering — over
//!   NaN-holding columns too — DISTINCT and limits;
//! * **by_row** — the row-wise stage's GROUP-BY-free existence probe against
//!   the probe as it was built before;
//! * **count gates** — exact executor counters of three fixed MAS queries, so
//!   losing the reduction (or scanning a build side again) fails on a
//!   number, not on a stopwatch.

use duoquest::core::enumerate::enum_next_step;
use duoquest::core::joinpath::construct_join_paths;
use duoquest::core::verify::by_row::{can_check_rows, verify_by_row};
use duoquest::core::{DuoquestConfig, SynthesisSession, TableSketchQuery, TsqCell};
use duoquest::db::{
    execute_with, CmpOp, ColumnId, Database, ExecMetrics, ExecOptions, ForeignKey, JoinEdge,
    JoinGraph, JoinTree, OrderKey, OrderSpec, Predicate, Row, RunCacheCounters, SelectItem,
    SelectSpec, Value,
};
use duoquest::nlq::{GuidanceContext, GuidanceModel, Nlq, NoisyOracleGuidance};
use duoquest::sql::PartialQuery;
use duoquest::workloads::{
    mas, mas_nli_tasks, mas_pbe_tasks, spider, synthesize_tsq, MasDataset, TsqDetail,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

mod common;
use common::{naive, random_spec, salted, Shapes};

/// The spec's rows in the executor's order, by the naive evaluator.
fn reference(db: &Database, spec: &SelectSpec) -> Vec<Row> {
    naive::result(db, spec).into_iter().map(|(row, _)| Row(row)).collect()
}

/// Execute `spec` under `budget` (the reduced planner), hold its rows to
/// `want` — the spec's [`reference`] rows — cut by the budget, and its
/// `exact` to whether the budget cut any; return the run's counters.
fn assert_matches(
    db: &Database,
    spec: &SelectSpec,
    want: &[Row],
    budget: Option<usize>,
    what: &str,
) -> ExecMetrics {
    let out = execute_with(db, spec, &ExecOptions { row_budget: budget })
        .unwrap_or_else(|e| panic!("{what}: execution failed ({e}) on {spec:?}"));
    let cut = &want[..want.len().min(budget.unwrap_or(usize::MAX))];
    assert_eq!(out.result.rows, cut, "{what}, budget {budget:?}: {spec:?}");
    // A streaming run that stops *at* the budget reports `exact = false`
    // without pulling on (documented on `ExecMetrics::exact`).
    let pessimist = out.metrics.streamed && Some(cut.len()) == budget;
    assert!(
        out.metrics.exact == (cut.len() == want.len()) || (!out.metrics.exact && pessimist),
        "{what}, budget {budget:?}: wrong `exact` on {spec:?}"
    );
    out.metrics
}

/// [`assert_matches`] against the spec's [`reference`] rows.
fn assert_matches_reference(
    db: &Database,
    spec: &SelectSpec,
    budget: Option<usize>,
    what: &str,
) -> ExecMetrics {
    assert_matches(db, spec, &reference(db, spec), budget, what)
}

fn column(db: &Database, table: &str, name: &str) -> ColumnId {
    db.schema().column_id(table, name).unwrap()
}

// ---------------------------------------------------------------- replay --

fn cell_predicate(col: ColumnId, cell: &TsqCell) -> Option<Predicate> {
    match cell {
        TsqCell::Empty => None,
        TsqCell::Exact(v) => Some(Predicate::new(col, CmpOp::Eq, v.clone())),
        TsqCell::Range(lo, hi) => Some(Predicate::between(col, lo.clone(), hi.clone())),
    }
}

/// The row-wise existence probes of a complete query, one per example tuple,
/// as `verify_by_row` builds them — each also in the form it had before (the
/// candidate's GROUP BY carried along) when the two differ.
fn row_probes(spec: &SelectSpec, tsq: &TableSketchQuery) -> Vec<SelectSpec> {
    let mut probes = Vec::new();
    for tuple in &tsq.tuples {
        let mut probe = SelectSpec {
            join: spec.join.clone(),
            predicates: spec.predicates.clone(),
            predicate_op: spec.predicate_op,
            group_by: spec.group_by.clone(),
            limit: Some(1),
            ..Default::default()
        };
        for (cell, item) in tuple.iter().zip(&spec.select) {
            match (item.agg, item.col) {
                (None, Some(col)) => probe.predicates.extend(cell_predicate(col, cell)),
                (Some(agg), col) => {
                    let anchor = col.unwrap_or(ColumnId::new(0, 0));
                    probe.having.extend(cell_predicate(anchor, cell).map(|p| Predicate {
                        agg: Some(agg),
                        col,
                        ..p
                    }));
                }
                (None, None) => {}
            }
        }
        probe.select = vec![if probe.group_by.is_empty() && !probe.having.is_empty() {
            SelectItem::count_star()
        } else {
            SelectItem::column(spec.referenced_columns()[0])
        }];
        if probe.having.is_empty() && !probe.group_by.is_empty() {
            probes.push(SelectSpec { group_by: Vec::new(), ..probe.clone() });
        }
        probes.push(probe);
    }
    probes
}

/// Replay one request's probe set: the gold query and every candidate under
/// the budgets `verify_complete` uses, and their row-wise probes under the
/// budgets a memoized existence probe can meet.
fn replay(db: &Database, specs: &[SelectSpec], tsq: &TableSketchQuery, task: &str) -> usize {
    let k = tsq.limit.max(specs.iter().filter_map(|s| s.limit).max().unwrap_or(1));
    let mut held = 0;
    for spec in specs {
        let want = reference(db, spec);
        for budget in [None, Some(1), Some(k + 1)] {
            assert_matches(db, spec, &want, budget, task);
            held += 1;
        }
        for probe in row_probes(spec, tsq) {
            let want = reference(db, &probe);
            for budget in [None, Some(1)] {
                assert_matches(db, &probe, &want, budget, task);
                held += 1;
            }
        }
    }
    held
}

/// Run one task and replay what it sent: its gold query (as written and
/// canonicalised) and every candidate it emitted.
fn run_and_replay(
    db: &Arc<Database>,
    nlq: &Nlq,
    task_gold: &SelectSpec,
    seed: u64,
    id: &str,
) -> usize {
    let (gold, tsq) = synthesize_tsq(db, task_gold, TsqDetail::Full, 2, seed);
    let config = DuoquestConfig {
        max_candidates: 10,
        max_expansions: 200,
        time_budget: None,
        ..Default::default()
    };
    let result = SynthesisSession::new(
        Arc::clone(db),
        nlq.clone(),
        Arc::new(NoisyOracleGuidance::new(gold.clone(), seed)),
    )
    .with_config(config)
    .with_tsq(tsq.clone())
    .run();
    let mut specs = vec![gold, task_gold.clone()];
    specs.extend(result.candidates.into_iter().map(|c| c.spec));
    replay(db, &specs, &tsq, id)
}

#[test]
fn replayed_mas_probes_equal_the_scan_path() {
    let dataset = mas::generate(42, 2.0);
    let mut tasks = mas_nli_tasks(&dataset);
    tasks.extend(mas_pbe_tasks(&dataset));
    assert_eq!(tasks.len(), 14);
    let held: usize = (tasks.iter().zip(1600..))
        .map(|(task, seed)| run_and_replay(&dataset.db, &task.nlq, &task.gold, seed, task.id))
        .sum();
    assert!(held > 400, "only {held} executions were compared");
}

#[test]
fn replayed_spider_probes_equal_the_scan_path() {
    let dataset = spider::generate("semijoin", 2, 7, 7, 6, 16);
    assert_eq!(dataset.tasks.len(), 20);
    let held: usize = (dataset.tasks.iter().zip(1600..))
        .map(|(task, seed)| {
            let db = &dataset.databases[task.db_index];
            run_and_replay(db, &task.nlq, &task.gold, seed, &task.id)
        })
        .sum();
    assert!(held > 400, "only {held} executions were compared");
}

// ------------------------------------------------------------- generated --

fn generated_specs_equal_the_scan_path(db: &Database, seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = salted(db, &mut rng);
    let mut seen = Shapes::default();
    for case in 0..cases {
        let spec = random_spec(&db, &mut rng, &mut seen);
        let want = reference(&db, &spec);
        let k = spec.limit.unwrap_or(3);
        for budget in [None, Some(1), Some(k + 1)] {
            let what = format!("seed {seed} case {case}");
            seen.note_run(&assert_matches(&db, &spec, &want, budget, &what));
        }
    }
    seen.assert_every_class_occurred(seed);
}

#[test]
fn generated_mas_specs_equal_the_scan_path() {
    generated_specs_equal_the_scan_path(&mas::generate(42, 2.0).db, 0x5E41_0001, 400);
}

#[test]
fn generated_spider_specs_equal_the_scan_path() {
    let dataset = spider::generate("semijoin-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        generated_specs_equal_the_scan_path(db, 0x5E41_0100 + i as u64, 250);
    }
}

// ------------------------------------------ several predicates, one table --

#[test]
fn predicates_on_one_table_intersect() {
    let mas = MasDataset::standard();
    let db = &*mas.db;
    let name = column(db, "conference", "name");
    let homepage = column(db, "conference", "homepage");
    let cid = column(db, "conference", "cid");
    let sigmod = Predicate::new(name, CmpOp::Eq, Value::text("SIGMOD"));
    let sigmod_page = Predicate::new(homepage, CmpOp::Eq, Value::text("http://sigmod.example.org"));
    let vldb_page = Predicate::new(homepage, CmpOp::Eq, Value::text("http://vldb.example.org"));
    let first_three = Predicate::new(cid, CmpOp::Le, Value::int(3));

    let join = JoinGraph::new(db.schema())
        .steiner_tree(&[name.table, db.schema().table_id("publication").unwrap()])
        .unwrap();
    let titles = |predicates: Vec<Predicate>| SelectSpec {
        select: vec![SelectItem::column(column(db, "publication", "title"))],
        join: join.clone(),
        predicates,
        ..Default::default()
    };

    let one = assert_matches_reference(db, &titles(vec![sigmod.clone()]), None, "one predicate");
    for preds in [
        vec![sigmod.clone(), sigmod_page.clone()],
        vec![sigmod.clone(), sigmod_page.clone(), first_three.clone()],
    ] {
        let n = preds.len();
        let metrics = assert_matches_reference(db, &titles(preds), None, "agreeing predicates");
        assert_eq!(metrics.rows_scanned, one.rows_scanned, "{n} agreeing predicates");
        assert_eq!(metrics.probes_bailed_empty, 0);
    }

    // Each list alone is non-empty; only their intersection proves the probe
    // empty, before a row is touched.
    let contradictory = vec![sigmod, vldb_page];
    let metrics =
        assert_matches_reference(db, &titles(contradictory.clone()), None, "contradiction");
    assert_eq!((metrics.probes_bailed_empty, metrics.rows_scanned), (1, 0));
    let count = SelectSpec { select: vec![SelectItem::count_star()], ..titles(contradictory) };
    let metrics = assert_matches_reference(db, &count, None, "contradiction, COUNT(*)");
    assert_eq!((metrics.probes_bailed_empty, metrics.rows_scanned), (1, 0));
    let rows = execute_with(db, &count, &ExecOptions::default()).unwrap().result.rows;
    assert_eq!(rows, vec![duoquest::db::Row(vec![Value::int(0)])]);
}

// ------------------------------------- ordered index scan, restricted -----

#[test]
fn ordered_index_scan_honours_the_first_table_restriction() {
    let mas = MasDataset::standard();
    let db = &*mas.db;
    let schema = db.schema();
    let publication = schema.table_id("publication").unwrap();
    let conference = schema.table_id("conference").unwrap();
    let year = column(db, "publication", "year");
    let name = column(db, "conference", "name");
    // `publication` first: the ORDER BY key must be a first-table column to
    // stream, and the literal then sits one join away from it.
    let edge = schema
        .foreign_keys_of(publication)
        .into_iter()
        .find(|fk| fk.to.table == conference)
        .map(|fk| JoinEdge { fk })
        .unwrap();
    let join = JoinTree { tables: [publication, conference].into(), edges: [edge].into() };
    let ordered = |pred: Predicate, desc: bool, limit: usize| SelectSpec {
        select: vec![
            SelectItem::column(column(db, "publication", "title")),
            SelectItem::column(year),
        ],
        join: join.clone(),
        predicates: vec![pred],
        order_by: Some(OrderSpec { key: OrderKey::Column(year), desc }),
        limit: Some(limit),
        ..Default::default()
    };
    let years: Vec<_> = db.column_values(year).map(Value::key).collect();
    let distinct: std::collections::HashSet<_> = years.iter().collect();
    assert!(distinct.len() < years.len(), "the sort key must have ties");

    for desc in [false, true] {
        // LIKE is not index-answerable: same rows, no restriction, so the
        // whole sorted run is walked and joined until five rows survive.
        let unfiltered = ordered(Predicate::new(name, CmpOp::Like, Value::text("SIGMOD")), desc, 5);
        let filtered = ordered(Predicate::new(name, CmpOp::Eq, Value::text("SIGMOD")), desc, 5);
        let walk = assert_matches_reference(db, &unfiltered, None, "unfiltered walk");
        let kept = assert_matches_reference(db, &filtered, None, "filtered walk");
        assert!(walk.streamed && kept.streamed);
        assert_eq!(
            execute_with(db, &filtered, &ExecOptions::default()).unwrap().result,
            execute_with(db, &unfiltered, &ExecOptions::default()).unwrap().result,
        );
        assert!(
            kept.rows_scanned < walk.rows_scanned,
            "desc={desc}: the filtered run scanned {} rows, the unfiltered one {}",
            kept.rows_scanned,
            walk.rows_scanned
        );
        // Deep enough to cross ties, and under a budget.
        assert_matches_reference(
            db,
            &ordered(filtered.predicates[0].clone(), desc, 40),
            Some(7),
            "ties",
        );
        // An emptied restriction: nothing to walk.
        let none = ordered(Predicate::new(name, CmpOp::Eq, Value::text("no such venue")), desc, 5);
        let metrics = assert_matches_reference(db, &none, None, "emptied restriction");
        assert_eq!((metrics.probes_bailed_empty, metrics.rows_scanned), (1, 0));
    }
}

// ---------------------------------------------------------------- by_row --

/// `verify_by_row` as it built its probes before: the partial query's GROUP
/// BY rides along on every probe. Kept only here, and run on the executor
/// directly, so it shares no memo with the stage it checks.
mod reference {
    use super::cell_predicate;
    use duoquest::core::TableSketchQuery;
    use duoquest::db::{
        execute, AggFunc, CmpOp, ColumnId, Database, Predicate, SelectItem, SelectSpec, Value,
    };
    use duoquest::sql::{PartialQuery, SelectColumn};

    pub fn verify_by_row(db: &Database, tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
        let Some(items) = pq.select.as_ref() else { return true };
        let Some(join) = pq.join.as_ref() else { return true };
        let mut base = SelectSpec { join: join.clone(), limit: Some(1), ..Default::default() };
        let where_complete = pq
            .where_predicates
            .as_ref()
            .map(|preds| preds.iter().all(|p| p.is_complete()))
            .unwrap_or(false);
        if where_complete {
            if let Some(preds) = pq.where_predicates.as_ref() {
                base.predicates.extend(preds.iter().filter_map(|p| p.to_predicate().ok()));
                if let Some(op) = pq.where_op.as_ref() {
                    base.predicate_op = *op;
                } else if preds.len() > 1 {
                    base.predicates.clear();
                }
            }
        }
        if let Some(group) = pq.group_by.as_ref() {
            base.group_by = group.to_vec();
        }
        for tuple in &tsq.tuples {
            let mut spec = base.clone();
            let mut constrained = false;
            for (i, cell) in tuple.iter().enumerate() {
                let Some(item) = items.get(i) else { continue };
                let Some(SelectColumn::Column(col)) = item.col.as_ref() else {
                    if let Some(Some(AggFunc::Count)) = item.agg.as_ref() {
                        if let Some(p) = cell_predicate(ColumnId::new(0, 0), cell) {
                            spec.having.push(Predicate {
                                agg: Some(AggFunc::Count),
                                col: None,
                                ..p
                            });
                            constrained = true;
                        }
                    }
                    continue;
                };
                let Some(p) = cell_predicate(*col, cell) else { continue };
                match item.agg.as_ref() {
                    None => continue,
                    Some(None) => spec.predicates.push(p),
                    Some(Some(agg)) => spec.having.push(Predicate { agg: Some(*agg), ..p }),
                }
                constrained = true;
            }
            if !constrained {
                continue;
            }
            let probe_col = pq.referenced_columns().first().copied().unwrap_or_else(|| {
                db.schema().table_columns(join.tables[0]).next().expect("table has columns")
            });
            let global = spec.group_by.is_empty() && !spec.having.is_empty();
            spec.select =
                vec![if global { SelectItem::count_star() } else { SelectItem::column(probe_col) }];
            let Ok(rs) = execute(db, &spec) else { return false };
            if rs.is_empty() {
                return false;
            }
            let zero = matches!(rs.rows[0].0.first(), Some(Value::Number(n)) if *n == 0.0);
            if global && zero && spec.having.iter().any(|h| !accepts_zero(h)) {
                return false;
            }
        }
        true
    }

    fn accepts_zero(pred: &Predicate) -> bool {
        let zero = Value::int(0);
        let number = |v: &Value| v.as_number();
        match pred.op {
            CmpOp::Eq => pred.value.sql_eq(&zero),
            CmpOp::Ne => !pred.value.sql_eq(&zero),
            CmpOp::Lt => number(&pred.value).is_some_and(|v| 0.0 < v),
            CmpOp::Le => number(&pred.value).is_some_and(|v| 0.0 <= v),
            CmpOp::Gt => number(&pred.value).is_some_and(|v| 0.0 > v),
            CmpOp::Ge => number(&pred.value).is_some_and(|v| 0.0 >= v),
            CmpOp::Between => number(&pred.value)
                .zip(pred.value2.as_ref().and_then(number))
                .is_some_and(|(lo, hi)| lo <= 0.0 && 0.0 <= hi),
            CmpOp::Like => false,
        }
    }
}

/// Walk the search tree level by level along the oracle's four best children
/// and hold the row-wise verdict of **every** child met (on each of its join
/// paths) to the reference's. Returns how many verdicts were compared, and
/// how many of them were on a grouped partial query without an aggregated
/// projection — the probes that no longer carry their GROUP BY.
fn by_row_verdicts_along_the_gold_path(mas: &MasDataset, task_id: &str) -> (usize, usize) {
    const BEAM: usize = 4;
    let db = &*mas.db;
    let graph = JoinGraph::new(db.schema());
    let config = DuoquestConfig::default();
    let mut tasks = mas_nli_tasks(mas);
    tasks.extend(mas_pbe_tasks(mas));
    let task = tasks.iter().find(|t| t.id == task_id).unwrap();
    let (gold, tsq) = synthesize_tsq(&mas.db, &task.gold, TsqDetail::Full, 2, 16);
    let oracle = NoisyOracleGuidance::new(gold, 16);
    let ctx = GuidanceContext { nlq: &task.nlq, schema: db.schema() };

    let (mut compared, mut ungrouped) = (0, 0);
    let mut frontier = vec![PartialQuery::empty()];
    for _level in 0..16 {
        let mut next: Vec<(f64, PartialQuery)> = Vec::new();
        for pq in &frontier {
            let Some(children) = enum_next_step(pq, db, &task.nlq, &config) else { continue };
            let choices: Vec<_> = children.iter().map(|(choice, _)| choice.clone()).collect();
            let scores = oracle.score(&ctx, &choices);
            for ((_, child), score) in children.into_iter().zip(scores) {
                let mut covered = child.join.is_some();
                if let Some(join) = &child.join {
                    child.for_each_referenced_column(|c| covered &= join.contains(c.table));
                }
                let variants: Vec<PartialQuery> = if child.select.is_hole() || covered {
                    vec![child]
                } else {
                    let depth = config.join_extension_depth;
                    construct_join_paths(db, &graph, &child, child.join.as_ref(), depth)
                        .into_iter()
                        .map(|join| PartialQuery { join: Some(join), ..child.clone() })
                        .collect()
                };
                for variant in variants.iter().filter(|v| can_check_rows(v)) {
                    let counters = RunCacheCounters::default();
                    assert_eq!(
                        verify_by_row(db, &tsq, variant, &counters),
                        reference::verify_by_row(db, &tsq, variant),
                        "task {task_id}: {variant:?}"
                    );
                    compared += 1;
                    let grouped = variant.group_by.as_ref().is_some_and(|g| !g.is_empty());
                    ungrouped += usize::from(grouped && !variant.has_aggregate_projection());
                }
                next.extend(variants.into_iter().next().map(|first| (score, first)));
            }
        }
        next.sort_by(|a, b| b.0.total_cmp(&a.0));
        frontier = next.into_iter().take(BEAM).map(|(_, pq)| pq).collect();
        if frontier.is_empty() {
            break;
        }
    }
    (compared, ungrouped)
}

#[test]
fn group_by_free_existence_probes_keep_every_verdict() {
    let mas = MasDataset::standard();
    let (mut compared, mut ungrouped) = (0, 0);
    for task in ["A3", "B4", "C3"] {
        let (c, u) = by_row_verdicts_along_the_gold_path(&mas, task);
        assert!(c > 0, "task {task}: no row-wise verdict was compared");
        compared += c;
        ungrouped += u;
    }
    assert!(compared >= 100, "only {compared} verdicts compared");
    assert!(ungrouped >= 10, "only {ungrouped} probes dropped a GROUP BY");
}

// ----------------------------------------------------------- count gates --

fn gold(mas: &MasDataset, id: &str) -> SelectSpec {
    let mut tasks = mas_nli_tasks(mas);
    tasks.extend(mas_pbe_tasks(mas));
    tasks.into_iter().find(|t| t.id == id).unwrap().gold
}

/// The counters of one execution that a plan change moves, printed under
/// `what`.
fn counts(m: &ExecMetrics, what: &str) -> (u64, u64, u64, u64, bool) {
    let counts =
        (m.rows_scanned, m.index_lookups, m.rows_via_index, m.probes_bailed_empty, m.streamed);
    println!("{what}: (rows_scanned, index_lookups, rows_via_index, bailed, streamed) {counts:?}");
    counts
}

#[test]
fn reduced_plans_hold_their_exact_counts() {
    let mas = MasDataset::standard();
    let db = &*mas.db;

    // C3's gold query: `author` first, the literal three joins away on
    // `conference.name`, GROUP BY / HAVING on top — drained, never streamed.
    let c3 = gold(&mas, "C3");
    let metrics = assert_matches_reference(db, &c3, None, "C3 gold");
    assert_eq!(counts(&metrics, "C3 gold"), C3_COUNTS, "C3 gold");

    // The five-table existence probe task B2 sends for a candidate over
    // conference–domain_conference–domain–domain_publication–publication:
    // two literals on the first table, one two joins away, a many-to-many
    // bridge behind it. Without a GROUP BY it streams to its first row.
    // (The tree is spelled out: over these five tables `steiner_tree` hangs
    // `publication` on `conference` through `publication.cid` — one hop, as
    // `domain_publication.pid` is, from the table that joined the tree
    // first — and this probe wants the chain.)
    let fk = |from: (&str, &str), to: (&str, &str)| JoinEdge {
        fk: ForeignKey { from: column(db, from.0, from.1), to: column(db, to.0, to.1) },
    };
    let edges = vec![
        fk(("domain_conference", "cid"), ("conference", "cid")),
        fk(("domain_conference", "did"), ("domain", "did")),
        fk(("domain_publication", "did"), ("domain", "did")),
        fk(("domain_publication", "pid"), ("publication", "pid")),
    ];
    let tables = edges.iter().flat_map(|e| [e.fk.from.table, e.fk.to.table]).collect();
    let probe = SelectSpec {
        select: vec![SelectItem::column(column(db, "conference", "name"))],
        join: JoinTree::new(tables, edges),
        predicates: vec![
            Predicate::new(column(db, "domain", "name"), CmpOp::Eq, Value::text("Databases")),
            Predicate::new(column(db, "conference", "name"), CmpOp::Eq, Value::text("SIGMOD")),
            Predicate::new(
                column(db, "conference", "homepage"),
                CmpOp::Eq,
                Value::text("http://sigmod.example.org"),
            ),
        ],
        limit: Some(1),
        ..Default::default()
    };
    assert_eq!(probe.join.tables.len(), 5);
    let metrics = assert_matches_reference(db, &probe, None, "B2 existence probe");
    assert_eq!(counts(&metrics, "B2 existence probe"), B2_PROBE_COUNTS, "B2 existence probe");

    // B4's gold query was selective before (the literal's table joins the
    // first table directly): the reduction must not make it scan more.
    let b4 = gold(&mas, "B4");
    let metrics = assert_matches_reference(db, &b4, None, "B4 gold");
    assert_eq!(counts(&metrics, "B4 gold"), B4_COUNTS, "B4 gold");
    assert!(metrics.rows_scanned <= B4_ROWS_SCANNED_BEFORE);
}

/// `(rows_scanned, index_lookups, rows_via_index, probes_bailed_empty,
/// streamed)` of the three gated executions on `MasDataset::standard()`.
const C3_COUNTS: (u64, u64, u64, u64, bool) = (228, 187, 817, 0, false);
const B2_PROBE_COUNTS: (u64, u64, u64, u64, bool) = (42, 8, 42, 0, true);
const B4_COUNTS: (u64, u64, u64, u64, bool) = (346, 212, 780, 0, false);
/// `rows_scanned` of B4's gold query before the semi-join reduction.
const B4_ROWS_SCANNED_BEFORE: u64 = 414;
