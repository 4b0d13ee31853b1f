//! The per-run verdict table (`VerifyPlan`) against the per-call probes it
//! replaced: on generated Spider tasks and the MAS study tasks, for every
//! example cell, every schema column and every aggregate choice, the
//! column-wise stage must answer exactly what it answered when it built and
//! executed a probe per call — first touch and read-back alike — and a run
//! must reach its probe memo a fixed, small number of times.

use duoquest::core::verify::by_column::verify_by_column;
use duoquest::core::{
    DuoquestConfig, SynthesisSession, TableSketchQuery, TsqCell, VerifyPlan, VerifyStage,
};
use duoquest::db::{AggFunc, ColumnId, DataType, Database, RunCacheCounters, SelectSpec, Value};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::sql::{PartialQuery, PartialSelectItem, SelectColumn, Slot};
use duoquest::workloads::{mas, mas_tasks, spider, synthesize_tsq, TsqDetail};
use std::sync::Arc;

/// The column-wise stage as it was before the plan: one `SelectSpec` built
/// per (call, cell). Kept only here, and run on the executor directly, so it
/// shares no memo with the stage it checks.
mod reference {
    use duoquest::core::{TableSketchQuery, TsqCell};
    use duoquest::db::{
        execute, AggFunc, CmpOp, ColumnId, Database, JoinTree, Predicate, SelectItem, SelectSpec,
    };
    use duoquest::sql::{PartialQuery, SelectColumn};

    pub fn verify_by_column(db: &Database, tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
        let Some(items) = pq.select.as_ref() else { return true };
        for tuple in &tsq.tuples {
            for (i, cell) in tuple.iter().enumerate() {
                if !cell.is_constrained() {
                    continue;
                }
                let Some(item) = items.get(i) else { continue };
                let Some(col_choice) = item.col.as_ref() else { continue };
                let SelectColumn::Column(col) = col_choice else { continue };
                match item.agg.as_ref() {
                    None => continue,
                    Some(Some(AggFunc::Count)) | Some(Some(AggFunc::Sum)) => continue,
                    Some(Some(AggFunc::Avg)) => {
                        if !avg_cell_possible(db, *col, cell) {
                            return false;
                        }
                    }
                    Some(Some(AggFunc::Min)) | Some(Some(AggFunc::Max)) | Some(None) => {
                        if !column_probe(db, *col, cell) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    fn column_probe(db: &Database, col: ColumnId, cell: &TsqCell) -> bool {
        if let Some(cell_type) = cell.data_type() {
            if cell_type != db.schema().column(col).dtype {
                return false;
            }
        }
        let pred = match cell {
            TsqCell::Empty => return true,
            TsqCell::Exact(v) => Predicate::new(col, CmpOp::Eq, v.clone()),
            TsqCell::Range(lo, hi) => Predicate::between(col, lo.clone(), hi.clone()),
        };
        let spec = SelectSpec {
            select: vec![SelectItem::column(col)],
            join: JoinTree::single(col.table),
            predicates: vec![pred],
            limit: Some(1),
            ..Default::default()
        };
        execute(db, &spec).map(|rs| !rs.is_empty()).unwrap_or(false)
    }

    /// The range read by a scan of the column, whatever the index says.
    fn avg_cell_possible(db: &Database, col: ColumnId, cell: &TsqCell) -> bool {
        let numbers = || db.column_values(col).filter_map(|v| v.as_number());
        if numbers().next().is_none() {
            return false;
        }
        let min = numbers().fold(f64::INFINITY, f64::min);
        let max = numbers().fold(f64::NEG_INFINITY, f64::max);
        match cell {
            TsqCell::Empty => true,
            TsqCell::Exact(v) => v.as_number().map(|n| n >= min && n <= max).unwrap_or(false),
            TsqCell::Range(lo, hi) => match (lo.as_number(), hi.as_number()) {
                (Some(lo), Some(hi)) => lo <= max && hi >= min,
                _ => false,
            },
        }
    }
}

/// Every aggregate decision a projected item can be in: undecided, plain,
/// and the five functions.
const AGGREGATES: [Slot<Option<AggFunc>>; 7] = [
    Slot::Hole,
    Slot::Filled(None),
    Slot::Filled(Some(AggFunc::Min)),
    Slot::Filled(Some(AggFunc::Max)),
    Slot::Filled(Some(AggFunc::Avg)),
    Slot::Filled(Some(AggFunc::Count)),
    Slot::Filled(Some(AggFunc::Sum)),
];

/// `tsq` with its numeric cells turned into ranges around their value (one
/// of them a range no column reaches) and one more cell left empty, so range
/// cells and empty cells between constrained ones are met too.
fn ranged(tsq: &TableSketchQuery) -> TableSketchQuery {
    let mut out = tsq.clone();
    let mut numeric = 0;
    for cell in out.tuples.iter_mut().flatten() {
        if let TsqCell::Exact(Value::Number(n)) = *cell {
            numeric += 1;
            *cell = if numeric % 3 == 0 {
                TsqCell::range(1.0e12, 2.0e12)
            } else {
                TsqCell::range(n - 0.5, n + 10.0)
            };
        }
    }
    if let Some(cell) = out.tuples.last_mut().and_then(|t| t.first_mut()) {
        *cell = TsqCell::Empty;
    }
    out
}

/// What one task's sweep met, so the test can say its inputs had the cases
/// it claims to cover.
#[derive(Default)]
struct Seen {
    compared: usize,
    passed: usize,
    failed: usize,
    range_cells: usize,
    empty_cells: usize,
    mismatched_types: usize,
    shorter_select_lists: usize,
}

/// A select list with only position `i` decided: `col` under `agg`.
fn single_item(i: usize, col: ColumnId, agg: Slot<Option<AggFunc>>) -> PartialQuery {
    let mut items = vec![PartialSelectItem { col: Slot::Hole, agg: Slot::Hole }; i];
    items.push(PartialSelectItem { col: Slot::Filled(SelectColumn::Column(col)), agg });
    PartialQuery { select: Slot::Filled(items.into()), ..PartialQuery::empty() }
}

/// Hold the plan-backed stage to the reference on every (position, column,
/// aggregate) of one TSQ, twice each (first touch, then the stored verdict),
/// and on the gold select list as a whole.
fn check_tsq(db: &Database, tsq: &TableSketchQuery, gold: &SelectSpec, seen: &mut Seen) {
    let plan = VerifyPlan::new(db, Some(tsq));
    let counters = RunCacheCounters::default();
    let cells = tsq.tuples.iter().flatten().filter(|c| c.is_constrained()).count();
    assert_eq!(plan.bytes(), cells * db.schema().column_count());
    let width = tsq.tuples.iter().map(Vec::len).max().unwrap_or(0);
    for cell in tsq.tuples.iter().flatten() {
        seen.range_cells += usize::from(matches!(cell, TsqCell::Range(..)));
        seen.empty_cells += usize::from(!cell.is_constrained());
    }

    // The reference's verdict on `pq`, after holding the plan to it twice.
    let check = |pq: &PartialQuery, what: &dyn Fn() -> String| {
        let expected = reference::verify_by_column(db, tsq, pq);
        for touch in ["first touch", "read back"] {
            let got = verify_by_column(db, tsq, pq, &plan, &counters);
            assert_eq!(got, expected, "{touch}: {} under {tsq:?}", what());
        }
        expected
    };
    let mut tally = |passed: bool| {
        seen.compared += 1;
        *(if passed { &mut seen.passed } else { &mut seen.failed }) += 1;
    };
    for i in 0..width {
        for col in db.schema().all_columns() {
            for agg in AGGREGATES {
                tally(check(&single_item(i, col, agg), &|| {
                    format!("position {i}, {col:?}, {agg:?}")
                }));
            }
        }
    }
    // Every position at once, as the search meets it.
    let items = (gold.select.iter())
        .map(|item| PartialSelectItem {
            col: Slot::Filled(item.col.map_or(SelectColumn::Star, SelectColumn::Column)),
            agg: Slot::Filled(item.agg),
        })
        .collect();
    let whole = PartialQuery { select: Slot::Filled(items), ..PartialQuery::empty() };
    tally(check(&whole, &|| "the gold select list".into()));

    for i in 0..width {
        seen.shorter_select_lists += usize::from(i + 1 < width);
        for col in db.schema().all_columns() {
            let dtype = db.schema().column(col).dtype;
            seen.mismatched_types += (tsq.tuples.iter())
                .filter_map(|t| t.get(i).and_then(TsqCell::data_type))
                .filter(|cell_type| *cell_type != dtype)
                .count();
        }
    }
    let (hits, misses) = counters.snapshot();
    assert!(
        hits + misses <= plan.bytes() as u64,
        "{} probe lookups for {} (cell, column) pairs",
        hits + misses,
        plan.bytes()
    );
}

#[test]
fn plan_verdicts_equal_the_per_call_probes() {
    let mut seen = Seen::default();
    let mut tasks = 0;

    let dataset = spider::generate("dev", 6, 60, 63, 25, 42);
    for (i, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 900 + i as u64);
        check_tsq(db, &tsq, &gold, &mut seen);
        check_tsq(db, &ranged(&tsq), &gold, &mut seen);
        tasks += 1;
    }

    let dataset = mas::generate(7, 0.05);
    let mut mas_tasks = mas_tasks::mas_nli_tasks(&dataset);
    mas_tasks.extend(mas_tasks::mas_pbe_tasks(&dataset));
    assert_eq!(mas_tasks.len(), 14);
    for (i, task) in mas_tasks.iter().enumerate() {
        let (gold, tsq) =
            synthesize_tsq(&dataset.db, &task.gold, TsqDetail::Full, 2, 70 + i as u64);
        check_tsq(&dataset.db, &tsq, &gold, &mut seen);
        check_tsq(&dataset.db, &ranged(&tsq), &gold, &mut seen);
        tasks += 1;
    }

    println!(
        "{tasks} tasks, {} select lists compared ({} pass, {} fail); {} range cells, {} empty \
         cells, {} type-mismatched (cell, column) pairs, {} select lists shorter than their tuples",
        seen.compared,
        seen.passed,
        seen.failed,
        seen.range_cells,
        seen.empty_cells,
        seen.mismatched_types,
        seen.shorter_select_lists
    );
    assert!(tasks >= 150, "only {tasks} tasks generated");
    assert!(seen.passed > 1_000 && seen.failed > 1_000, "both verdicts must be common");
    assert!(seen.range_cells > 50 && seen.empty_cells > 50 && seen.mismatched_types > 1_000);
    assert!(seen.shorter_select_lists > 50);
}

/// The plan's footprint is its verdict bytes: (constrained cells × schema
/// columns) however many tuples the sketch has, nothing for a sketch that
/// constrains no cell.
#[test]
fn plan_size_is_cells_times_columns() {
    let dataset = spider::generate("size", 1, 1, 0, 0, 5);
    let db = &dataset.databases[0];
    let columns = db.schema().column_count();

    let mut wide = TableSketchQuery::with_types(vec![DataType::Text, DataType::Number]);
    for i in 0..1_000 {
        let cells = vec![TsqCell::text(format!("value {i}")), TsqCell::number(i), TsqCell::Empty];
        wide = wide.with_tuple(cells);
    }
    assert_eq!(VerifyPlan::new(db, Some(&wide)).bytes(), 2_000 * columns);

    let type_only = TableSketchQuery::with_types(vec![DataType::Text, DataType::Number]);
    assert_eq!(VerifyPlan::new(db, Some(&type_only)).bytes(), 0);
    assert_eq!(VerifyPlan::new(db, None).bytes(), 0);
}

/// The count gate: one fixed task on a private copy of its database, one
/// worker. A run reaches its probe memo once per distinct column-wise
/// question (plus its row-wise and order probes) and runs the
/// join-independent stages once per child — losing plan coverage or running
/// the prefix per join variant again moves these counts, whatever the clock
/// says.
#[test]
fn a_run_reaches_the_cache_a_fixed_number_of_times() {
    let dataset = spider::generate("gate", 1, 0, 1, 0, 11);
    let task = &dataset.tasks[0];
    let db = Arc::new(Database::clone(dataset.database(task)));
    let (gold, tsq) = synthesize_tsq(&db, &task.gold, TsqDetail::Full, 2, 3);
    let config = DuoquestConfig {
        max_candidates: 20,
        max_expansions: 1_500,
        time_budget: None,
        ..Default::default()
    };
    let run = || {
        let model = NoisyOracleGuidance::new(gold.clone(), 3);
        let stats = SynthesisSession::new(Arc::clone(&db), task.nlq.clone(), Arc::new(model))
            .with_config(config.clone())
            .with_tsq(tsq.clone())
            .run()
            .stats;
        (
            stats.generated,
            stats.cache_hits + stats.cache_misses,
            stats.cache_misses,
            stats.stage_timings.calls_of(VerifyStage::Clauses),
            stats.stage_timings.calls_of(VerifyStage::ByColumn),
            stats.stage_timings.calls_of(VerifyStage::ByRow),
        )
    };
    let counts = run();
    assert_eq!(counts, run(), "the counts of a cold run must repeat exactly");
    let (generated, lookups, executions, clauses, by_column, by_row) = counts;
    println!(
        "generated {generated}; probe lookups {lookups}, executions {executions}; calls: clauses \
         {clauses}, by_column {by_column}, by_row {by_row}"
    );
    assert_eq!(counts, GATE, "(generated, lookups, executions, clauses, by_column, by_row)");
    assert!(clauses as usize <= generated, "the prefix runs at most once per child");
}

/// `(generated, probe lookups, probe executions, clauses calls, by_column
/// calls, by_row calls)` of the gate's run. With a probe per call and the
/// whole cascade per join variant the same run made 2 810 lookups for the
/// same 127 executions, 5 766 clauses calls, 4 254 by_column calls and 365
/// by_row calls.
const GATE: (usize, u64, u64, u64, u64, u64) = (3950, 245, 127, 3442, 1930, 257);
