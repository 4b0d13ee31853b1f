//! The executor against an evaluator that shares nothing with it.
//!
//! Every other executor test compares two of the executor's own paths (an
//! indexed database and its un-indexed twin, streaming and materializing),
//! and both run on the same joined relation of row ids, the same typed keys
//! and the same planner — a bug in any of those is invisible to them.
//! [`naive`] is the independent side: nested loops over `spec.join.tables`,
//! rows copied as `Vec<Vec<Value>>`, no index, no cache, no streaming, no
//! `Key`, equality and order written out from the value contract in
//! `docs/EXECUTOR.md`.
//!
//! Over the generated specs of `tests/common` (shared with
//! `tests/semijoin.rs`), on salted MAS and Spider databases and on their
//! un-indexed twins (`common::unindexed` — the scan path), under no budget
//! and two, every execution must agree with it: the same multiset of rows
//! without a `LIMIT`; sort keys non-decreasing under `ORDER BY` and no
//! smaller key left out; under `LIMIT k` (or a row budget) exactly
//! `min(k, |reference|)` rows, each drawn from the unlimited reference. And
//! the prefix contract: the rows under a budget `b` are the first
//! `min(b, n)` of the `n` rows without one, byte for byte. Every `LIMIT 1`
//! spec is also asked the verifier's existence question through the probe
//! cache (`Database::exists_cached_with`, decided as a verdict that answers
//! at the first row), cold and then warm, on both databases: the answer must
//! be whether the reference has a row.
//!
//! The same generated specs, with table sketches drawn from their reference
//! rows, hold the verifier's complete check — decided while the rows stream,
//! stopping at the row that decides it — to a brute-force search over the
//! naive evaluator's rows ([`brute`]): every injective assignment of tuples
//! to rows, in key order for a sorted sketch, and the limit.

use duoquest::core::verify::{by_order, VerifyPlan};
use duoquest::core::{TableSketchQuery, TsqCell};
use duoquest::db::{
    execute_with, AggFunc, CmpOp, ColumnId, Database, ExecOptions, LogicalOp, OrderKey, Predicate,
    Row, RunCacheCounters, SelectItem, SelectSpec, TableId, Value,
};
use duoquest::workloads::{mas, spider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

mod common;
use common::{gapped, random_count_spec, random_spec, salted, unindexed, CountShapes, Shapes};

// ------------------------------------------------------ the naive evaluator --

mod naive {
    use super::*;

    /// A joined row: the cells of every FROM table, copied.
    type Joined = Vec<Value>;

    /// Equality of join, GROUP BY and DISTINCT keys: numbers by value (so
    /// `-0 = 0`) with NaN equal to NaN, text up to ASCII case. NULL equals
    /// NULL when grouping (`null_matches`) and nothing when joining.
    pub fn same(a: &Value, b: &Value, null_matches: bool) -> bool {
        match (a, b) {
            (Value::Null, Value::Null) => null_matches,
            (Value::Number(x), Value::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
            (Value::Text(x), Value::Text(y)) => x.eq_ignore_ascii_case(y),
            _ => false,
        }
    }

    pub fn same_row(a: &[Value], b: &[Value]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y, true))
    }

    /// The order of `ORDER BY`, `MIN` and `MAX`: NULL, then numbers by value
    /// with NaN after all of them, then text by its bytes.
    pub fn order(a: &Value, b: &Value) -> Ordering {
        let rank = |v: &Value| match v {
            Value::Null => 0,
            Value::Number(_) => 1,
            Value::Text(_) => 2,
        };
        match (a, b) {
            (Value::Number(x), Value::Number(y)) if x.is_nan() || y.is_nan() => {
                x.is_nan().cmp(&y.is_nan())
            }
            (Value::Number(x), Value::Number(y)) => x.partial_cmp(y).expect("neither is NaN"),
            (Value::Text(x), Value::Text(y)) => x.as_bytes().cmp(y.as_bytes()),
            _ => rank(a).cmp(&rank(b)),
        }
    }

    /// One comparison of a WHERE or HAVING predicate, three-valued logic
    /// collapsed to "is it true": NULL and mixed types compare as unknown.
    fn holds(cell: &Value, pred: &Predicate) -> bool {
        let cmp = |rhs: &Value| cell.sql_cmp(rhs);
        match pred.op {
            CmpOp::Eq => cell.sql_eq(&pred.value),
            CmpOp::Ne => !cell.is_null() && !pred.value.is_null() && !cell.sql_eq(&pred.value),
            CmpOp::Lt => cmp(&pred.value) == Some(Ordering::Less),
            CmpOp::Le => matches!(cmp(&pred.value), Some(Ordering::Less | Ordering::Equal)),
            CmpOp::Gt => cmp(&pred.value) == Some(Ordering::Greater),
            CmpOp::Ge => matches!(cmp(&pred.value), Some(Ordering::Greater | Ordering::Equal)),
            CmpOp::Like => pred.value.as_text().is_some_and(|pattern| cell.sql_like(pattern)),
            CmpOp::Between => {
                let hi = pred.value2.as_ref().unwrap_or(&pred.value);
                matches!(cmp(&pred.value), Some(Ordering::Greater | Ordering::Equal))
                    && matches!(cmp(hi), Some(Ordering::Less | Ordering::Equal))
            }
        }
    }

    /// Where each FROM table's cells start in a joined row.
    struct Layout(Vec<(TableId, usize)>);

    impl Layout {
        fn at(&self, col: ColumnId) -> usize {
            let (_, start) = self.0.iter().find(|(t, _)| *t == col.table).expect("table in FROM");
            start + col.column
        }
    }

    fn aggregate(layout: &Layout, group: &[&Joined], agg: AggFunc, col: Option<ColumnId>) -> Value {
        let Some(col) = col else {
            return if agg == AggFunc::Count {
                Value::int(group.len() as i64)
            } else {
                Value::Null
            };
        };
        let cells: Vec<&Value> =
            group.iter().map(|row| &row[layout.at(col)]).filter(|v| !v.is_null()).collect();
        let numbers: Vec<f64> = cells.iter().filter_map(|v| v.as_number()).collect();
        match agg {
            AggFunc::Count => Value::int(cells.len() as i64),
            AggFunc::Sum if cells.is_empty() => Value::Null,
            AggFunc::Sum => Value::Number(numbers.iter().sum()),
            AggFunc::Avg if numbers.is_empty() => Value::Null,
            AggFunc::Avg => Value::Number(numbers.iter().sum::<f64>() / numbers.len() as f64),
            AggFunc::Min => {
                cells.into_iter().min_by(|a, b| order(a, b)).cloned().unwrap_or(Value::Null)
            }
            AggFunc::Max => {
                cells.into_iter().max_by(|a, b| order(a, b)).cloned().unwrap_or(Value::Null)
            }
        }
    }

    /// The spec's complete result before `ORDER BY` and `LIMIT`, in no
    /// particular order: each output row with its sort key (NULL without an
    /// `ORDER BY`).
    pub fn evaluate(db: &Database, spec: &SelectSpec) -> Vec<(Vec<Value>, Value)> {
        // FROM: one table at a time, every stored row against every row
        // joined so far, kept when all edges between bound tables hold.
        let mut layout = Layout(Vec::new());
        let mut joined: Vec<Joined> = vec![Vec::new()];
        let mut width = 0;
        for &table in spec.join.tables.iter() {
            layout.0.push((table, width));
            width += db.schema().table(table).columns.len();
            let bound = |t| layout.0.iter().any(|(b, _)| *b == t);
            let edges: Vec<_> = (spec.join.edges.iter())
                .filter(|e| bound(e.fk.from.table) && bound(e.fk.to.table))
                .filter(|e| e.fk.from.table == table || e.fk.to.table == table)
                .collect();
            let mut next = Vec::new();
            for left in &joined {
                for right in &db.table_data(table).rows {
                    let cell = |c: ColumnId| match c.table == table {
                        true => &right.0[c.column],
                        false => &left[layout.at(c)],
                    };
                    if edges.iter().all(|e| same(cell(e.fk.from), cell(e.fk.to), false)) {
                        next.push(left.iter().chain(&right.0).cloned().collect());
                    }
                }
            }
            joined = next;
        }

        // WHERE.
        let passes = |row: &Joined| {
            let mut verdicts = (spec.predicates.iter())
                .map(|p| holds(&row[layout.at(p.col.expect("WHERE predicate has a column"))], p));
            match spec.predicate_op {
                _ if spec.predicates.is_empty() => true,
                LogicalOp::And => verdicts.all(|v| v),
                LogicalOp::Or => verdicts.any(|v| v),
            }
        };
        let rows: Vec<&Joined> = joined.iter().filter(|row| passes(row)).collect();

        // GROUP BY: without aggregation every row is its own group; an
        // aggregate without GROUP BY makes one group, even of nothing.
        let grouping = |row: &Joined| -> Vec<Value> {
            spec.group_by.iter().map(|&c| row[layout.at(c)].clone()).collect()
        };
        let mut groups: Vec<Vec<&Joined>> = Vec::new();
        if !spec.has_aggregates() && spec.group_by.is_empty() {
            groups = rows.iter().map(|&row| vec![row]).collect();
        } else if spec.group_by.is_empty() {
            groups.push(rows);
        } else {
            for row in rows {
                let key = grouping(row);
                match groups.iter_mut().find(|g| same_row(&grouping(g[0]), &key)) {
                    Some(group) => group.push(row),
                    None => groups.push(vec![row]),
                }
            }
        }

        // HAVING, projection and the sort key, per group. A plain column of
        // a group is read off one of its rows.
        let of_group = |group: &[&Joined], item: SelectItem| match (item.agg, item.col) {
            (Some(agg), col) => aggregate(&layout, group, agg, col),
            (None, Some(col)) => {
                group.first().map_or(Value::Null, |row| row[layout.at(col)].clone())
            }
            (None, None) => Value::Null,
        };
        let mut out: Vec<(Vec<Value>, Value)> = Vec::new();
        for group in &groups {
            let having = |h: &Predicate| {
                holds(&aggregate(&layout, group, h.agg.expect("HAVING aggregates"), h.col), h)
            };
            if !spec.having.iter().all(having) {
                continue;
            }
            let projected: Vec<Value> = spec.select.iter().map(|&i| of_group(group, i)).collect();
            let key = match spec.order_by.map(|o| o.key) {
                None => Value::Null,
                Some(OrderKey::Column(col)) => of_group(group, SelectItem::column(col)),
                Some(OrderKey::Aggregate(agg, col)) => aggregate(&layout, group, agg, col),
            };
            // DISTINCT: one row per class of equal projections.
            if spec.distinct && out.iter().any(|(seen, _)| same_row(seen, &projected)) {
                continue;
            }
            out.push((projected, key));
        }
        out
    }
}

// ------------------------------------------------------------- the checks --

/// What the checks could and could not pin down.
#[derive(Default)]
struct Checked {
    executions: usize,
    /// Results compared row for row, as exact values.
    exact_multisets: usize,
    order_checked: usize,
    /// `SELECT DISTINCT … ORDER BY` a column that is not projected: which of
    /// a class's rows lends its sort key is the executor's join order, which
    /// the reference does not share. Rows and row count still hold.
    order_unpinned: usize,
    /// Results cut by a `LIMIT` or a row budget.
    cut: usize,
    /// Existence questions asked, by the answer (`[no, yes]`).
    existence: [usize; 2],
}

/// Hold one execution's rows to the reference (the spec's complete result
/// with sort keys, in no particular order).
fn check_rows(
    spec: &SelectSpec,
    rows: &[Row],
    reference: &[(Vec<Value>, Value)],
    tally: &mut Checked,
) -> Result<(), &'static str> {
    let by = |a: &Value, b: &Value| {
        let ord = naive::order(a, b);
        if spec.order_by.is_some_and(|o| o.desc) {
            ord.reverse()
        } else {
            ord
        }
    };
    // Grouped and DISTINCT rows stand for a class of equal keys, and which
    // member's spelling is shown follows the join order: compared as keys.
    let classes = spec.distinct || !spec.group_by.is_empty();
    tally.exact_multisets += usize::from(!classes && rows.len() == reference.len());
    // Where the sort key is projected, an output row carries its own.
    let shown = spec.order_by.and_then(|o| {
        let item = match o.key {
            OrderKey::Column(col) => SelectItem::column(col),
            OrderKey::Aggregate(agg, col) => SelectItem { agg: Some(agg), col },
        };
        spec.select.iter().position(|&i| i == item)
    });

    // Every row is drawn from the reference, no reference row twice. A row
    // whose key is not shown takes the smallest unused key among the
    // reference rows it equals — any valid order uses them in that order.
    let mut pool = reference.to_vec();
    pool.sort_by(|a, b| by(&a.1, &b.1));
    let mut keys: Vec<Value> = Vec::with_capacity(rows.len());
    for Row(row) in rows {
        let fits = |cand: &[Value]| if classes { naive::same_row(cand, row) } else { cand == row };
        let at = pool.iter().position(|(cand, _)| fits(cand));
        let (_, key) = pool.remove(at.ok_or("a row the reference does not have (so often)")?);
        keys.push(shown.map_or(key, |j| row[j].clone()));
    }

    if spec.order_by.is_none() {
        return Ok(());
    }
    if spec.distinct && shown.is_none() {
        tally.order_unpinned += 1;
        return Ok(());
    }
    tally.order_checked += 1;
    if !keys.windows(2).all(|w| by(&w[0], &w[1]) != Ordering::Greater) {
        return Err("sort keys out of order");
    }
    // Under a cut, nothing left behind may sort before the last row shown —
    // unless the key is a class's text, whose spelling the classes differ on.
    match keys.last() {
        Some(Value::Text(_)) if classes => Ok(()),
        Some(last) if pool.iter().any(|(_, left)| by(left, last) == Ordering::Less) => {
            Err("a row with a smaller sort key was left out")
        }
        _ => Ok(()),
    }
}

fn generated_specs_equal_the_reference(db: &Database, seed: u64, cases: usize) -> Checked {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = salted(db, &mut rng);
    let sides = [("indexed", &db), ("un-indexed", &unindexed(&db))];
    let mut seen = Shapes::default();
    let mut tally = Checked::default();
    for case in 0..cases {
        let spec = random_spec(&db, &mut rng, &mut seen);
        let reference = naive::evaluate(&db, &spec);
        let limited = reference.len().min(spec.limit.unwrap_or(usize::MAX));
        let k = spec.limit.unwrap_or(3);
        // Each side's rows without a budget: what its budgeted runs must
        // return a prefix of.
        let mut unbudgeted: [Vec<Row>; 2] = Default::default();
        for row_budget in [None, Some(1), Some(k + 1)] {
            // Rows already held to the reference under this budget: the two
            // sides return the same bytes.
            let mut held: Option<Vec<Row>> = None;
            for (side, (which, on)) in sides.iter().enumerate() {
                let out = execute_with(on, &spec, &ExecOptions { row_budget });
                let fail = |why: &str| -> ! {
                    panic!(
                        "seed {seed} case {case}: {why}\n  {which} database, budget \
                         {row_budget:?}\n  {spec:?}\n  got {out:?}\n  reference {reference:?}"
                    )
                };
                let Ok(out) = &out else { fail("execution failed") };
                tally.executions += 1;
                if side == 0 {
                    seen.note_run(&out.metrics);
                }

                // The reference cut by LIMIT, then by the budget.
                let rows = &out.result.rows;
                if rows.len() != limited.min(row_budget.unwrap_or(usize::MAX)) {
                    fail("wrong number of rows");
                }
                tally.cut += usize::from(rows.len() < reference.len());
                // `exact` says the budget cut nothing. A streaming run that
                // stops *at* its budget may say `false` without looking on
                // (documented on `ExecMetrics::exact`).
                let pessimist = out.metrics.streamed && Some(rows.len()) == row_budget;
                if out.metrics.exact != (rows.len() == limited) && (out.metrics.exact || !pessimist)
                {
                    fail("wrong `exact`");
                }
                match row_budget {
                    None => unbudgeted[side] = rows.clone(),
                    Some(_) if !unbudgeted[side].starts_with(rows) => {
                        fail("not a prefix of the rows without a budget")
                    }
                    Some(_) => {}
                }
                if held.as_ref() != Some(rows) {
                    if let Err(why) = check_rows(&spec, rows, &reference, &mut tally) {
                        fail(why);
                    }
                    held = Some(rows.clone());
                }
            }
        }
        if spec.limit == Some(1) {
            let want = !reference.is_empty();
            for (which, on) in sides {
                on.clear_probe_cache();
                let counters = RunCacheCounters::default();
                for (temperature, lookups) in [("cold", (0, 1)), ("warm", (1, 1))] {
                    let got = on.exists_cached_with(&spec, &counters);
                    assert!(
                        matches!(got, Ok(exists) if exists == want),
                        "seed {seed} case {case}: {which} database, {temperature} existence \
                         {got:?}, the reference has {} rows\n  {spec:?}",
                        reference.len()
                    );
                    assert_eq!(counters.snapshot(), lookups, "{temperature} (hits, misses)");
                    tally.existence[usize::from(want)] += 1;
                }
            }
        }
    }
    seen.assert_every_class_occurred(seed);
    tally
}

/// The checks must have had something to bite on.
fn assert_checks_bit(tally: &Checked, cases: usize) {
    assert_eq!(tally.executions, cases * 6);
    assert!(tally.exact_multisets >= cases / 4, "only {} exact multisets", tally.exact_multisets);
    assert!(tally.order_checked >= cases / 4, "only {} orders checked", tally.order_checked);
    assert!(tally.cut >= cases, "only {} cut results", tally.cut);
    let [absent, present] = tally.existence;
    assert!(
        absent >= cases / 4 && present >= cases / 4,
        "existence asked {absent} times of empty results, {present} of non-empty ones"
    );
    assert!(
        tally.order_unpinned * 5 <= tally.order_checked,
        "{} orders unpinned against {} checked",
        tally.order_unpinned,
        tally.order_checked
    );
}

#[test]
fn generated_mas_specs_equal_the_naive_reference() {
    let tally = generated_specs_equal_the_reference(&mas::generate(42, 0.5).db, 0x4EF0_0001, 300);
    assert_checks_bit(&tally, 300);
}

#[test]
fn generated_spider_specs_equal_the_naive_reference() {
    let dataset = spider::generate("reference-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        let tally = generated_specs_equal_the_reference(db, 0x4EF0_0100 + i as u64, 200);
        assert_checks_bit(&tally, 200);
    }
}

// ------------------------------------------------------- the counting arm --

/// What the counting arm ran.
#[derive(Default)]
struct Counted {
    cases: usize,
    /// Cases the counting pass answered (`ExecMetrics::counted`).
    counted: usize,
    /// Executions that proved the join empty: an emptied table or a
    /// contradiction, before the pass or within it.
    proven_empty: usize,
    /// Non-empty results.
    non_empty: usize,
}

/// Generated counting specs (`common::random_count_spec`) over gapped copies
/// of `db` (join keys duplicated, and in one of them a table emptied): every
/// execution must
/// return the naive evaluator's rows in the naive evaluator's order —
/// groups in the order their first joined row appears, then the stable
/// `ORDER BY`, then the `LIMIT`.
fn generated_counts_equal_the_reference(db: &Database, seed: u64, cases: usize) -> Counted {
    let mut rng = StdRng::seed_from_u64(seed);
    let salted = salted(db, &mut rng);
    let dbs = [gapped(&salted, &mut rng, false), gapped(&salted, &mut rng, true)];
    let mut seen = CountShapes::default();
    let mut tally = Counted::default();
    for case in 0..cases {
        // One case in four meets the emptied table, if its tree holds it.
        let db = &dbs[usize::from(case % 4 == 0)];
        let spec = random_count_spec(db, &mut rng, &mut seen);
        let mut reference = naive::evaluate(db, &spec);
        if let Some(order) = spec.order_by {
            reference.sort_by(|a, b| {
                let ord = naive::order(&a.1, &b.1);
                if order.desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        reference.truncate(spec.limit.unwrap_or(usize::MAX));
        let want: Vec<Row> = reference.into_iter().map(|(row, _)| Row(row)).collect();
        let out = execute_with(db, &spec, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} case {case}: {e}\n  {spec:?}"));
        assert_eq!(
            out.result.rows, want,
            "seed {seed} case {case}: counted {}\n  {spec:?}",
            out.metrics.counted
        );
        tally.cases += 1;
        tally.counted += usize::from(out.metrics.counted);
        tally.proven_empty += out.metrics.probes_bailed_empty as usize;
        tally.non_empty += usize::from(!want.is_empty());
    }
    seen.assert_every_class_occurred(seed);
    tally
}

/// The arm must have run inside the fragment, not only through the
/// materializing fallback, and on results with rows.
fn assert_counts_bit(tally: &Counted, what: &str) {
    println!(
        "{what}: {} counting cases, {} answered by the counting pass, {} proven empty, {} \
         non-empty",
        tally.cases, tally.counted, tally.proven_empty, tally.non_empty
    );
    assert!(
        tally.counted * 4 >= tally.cases,
        "only {} of {} cases counted",
        tally.counted,
        tally.cases
    );
    assert!(tally.non_empty * 4 >= tally.cases, "only {} non-empty results", tally.non_empty);
}

#[test]
fn generated_mas_counts_equal_the_naive_reference() {
    let tally = generated_counts_equal_the_reference(&mas::generate(42, 0.5).db, 0x4EF0_1001, 300);
    assert_counts_bit(&tally, "MAS");
}

#[test]
fn generated_spider_counts_equal_the_naive_reference() {
    let dataset = spider::generate("reference-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        let tally = generated_counts_equal_the_reference(db, 0x4EF0_1100 + i as u64, 150);
        assert_counts_bit(&tally, &format!("Spider database {i}"));
    }
}

// ------------------------------------------------------------ the verdicts --

mod brute {
    use super::*;

    /// Definition 2.3: every cell of the tuple matches the cell of the row at
    /// its position.
    pub fn holds(tuple: &[TsqCell], row: &[Value]) -> bool {
        tuple.iter().zip(row).all(|(cell, value)| cell.matches(value))
    }

    /// Whether the tuples from `next` on can each take a row of their own,
    /// no row in `used` and each one `follows` allows after the row the
    /// tuple before it took: every injective assignment, tried in turn.
    pub fn place(
        tsq: &TableSketchQuery,
        rows: &[(Vec<Value>, Value)],
        used: &mut Vec<usize>,
        follows: &dyn Fn(&Value, &Value) -> bool,
    ) -> bool {
        let Some(tuple) = tsq.tuples.get(used.len()) else { return true };
        for (r, (row, key)) in rows.iter().enumerate() {
            let after = used.last().is_none_or(|&p| follows(&rows[p].1, key));
            if used.contains(&r) || !after || !holds(tuple, row) {
                continue;
            }
            used.push(r);
            if place(tsq, rows, used, follows) {
                return true;
            }
            used.pop();
        }
        false
    }
}

/// What the verdict checks could and could not pin down.
#[derive(Default, Debug)]
struct Verdicts {
    /// Verdicts held to the brute force, by its answer.
    passed: usize,
    failed: usize,
    /// Sorted sketches whose answer depends on how equal sort keys are
    /// ordered, which is the executor's join order and not the reference's.
    unpinned: usize,
    /// Sorted sketches of two or more tuples held to a passing answer: the
    /// in-order check's own cases.
    passed_in_order: usize,
    /// Results too large to search by brute force.
    skipped: usize,
    sorted: usize,
    limited: usize,
    empty_tuples: usize,
    duplicate_tuples: usize,
    more_tuples_than_rows: usize,
    range_cells: usize,
    /// Probe-side rows the verdicts left unscanned.
    short_circuited: u64,
}

/// A cell drawn from `value` (a reference cell): empty, exact (re-cased for
/// text), a range around a number, or one nothing matches.
fn random_cell(rng: &mut StdRng, value: Option<&Value>, seen: &mut Verdicts) -> TsqCell {
    let miss = |v: Option<&Value>| match v {
        Some(Value::Number(_)) => TsqCell::range(-9e9, -8e9),
        _ => TsqCell::text("no such value"),
    };
    let Some(v) = value else {
        return if rng.gen_bool(0.5) { TsqCell::Empty } else { miss(None) };
    };
    match (rng.gen_range(0..10), v) {
        (0..=2, _) | (_, Value::Null) => TsqCell::Empty,
        (3 | 4, Value::Number(x)) => {
            seen.range_cells += 1;
            TsqCell::range(x - 2.0, x + 0.5)
        }
        (5, Value::Text(s)) => TsqCell::text(s.to_uppercase()),
        (6, _) if rng.gen_bool(0.4) => miss(Some(v)),
        _ => TsqCell::Exact(v.clone()),
    }
}

/// A sketch over a select list of `width` items drawn from its reference
/// rows: one to three tuples (two or more when sorted; one more than there
/// are rows, for some results of fewer than three), some all-empty, some
/// duplicates, and half of them limited.
fn random_sketch(
    rng: &mut StdRng,
    width: usize,
    rows: &[(Vec<Value>, Value)],
    sorted: bool,
    seen: &mut Verdicts,
) -> TableSketchQuery {
    let count = if rows.len() < 3 && rng.gen_bool(0.3) {
        seen.more_tuples_than_rows += 1;
        rows.len() + 1
    } else {
        // A sorted sketch of one tuple is checked as an unsorted one.
        rng.gen_range(if sorted { 2 } else { 1 }..=3)
    };
    // Distinct source rows for the tuples while there are enough; in key
    // order (the rows are sorted) for most sorted sketches, so that in-order
    // checks pass as well as fail.
    let mut sources: Vec<usize> = Vec::new();
    while sources.len() < count && !rows.is_empty() {
        let r = rng.gen_range(0..rows.len());
        if !sources.contains(&r) || sources.len() >= rows.len() {
            sources.push(r);
        }
    }
    if sorted && rng.gen_bool(0.75) {
        sources.sort_unstable();
    }
    let mut tuples: Vec<Vec<TsqCell>> = Vec::new();
    for t in 0..count {
        let tuple = match rng.gen_range(0..10) {
            0 => {
                seen.empty_tuples += 1;
                vec![TsqCell::Empty; width]
            }
            1 if t > 0 => {
                seen.duplicate_tuples += 1;
                tuples[rng.gen_range(0..t)].clone()
            }
            _ => {
                let source = sources.get(t).map(|&r| &rows[r].0);
                (0..width).map(|i| random_cell(rng, source.map(|row| &row[i]), seen)).collect()
            }
        };
        tuples.push(tuple);
    }
    let limit = match rng.gen_range(0..4) {
        0 | 1 => 0,
        2 => rows.len().max(1) + rng.gen_range(0..2),
        _ => rng.gen_range(1..=rows.len() + 1),
    };
    seen.limited += usize::from(limit > 0);
    seen.sorted += usize::from(sorted);
    TableSketchQuery { types: None, tuples, sorted, limit }
}

fn generated_verdicts_equal_brute_force(db: &Database, seed: u64, cases: usize) -> Verdicts {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = salted(db, &mut rng);
    let sides = [("indexed", &db), ("un-indexed", &unindexed(&db))];
    let mut seen = Verdicts::default();
    for case in 0..cases {
        // Mostly specs with a result: an empty one fails every sketch alike.
        let (mut spec, mut rows) = loop {
            let spec = random_spec(&db, &mut rng, &mut Shapes::default());
            let rows = naive::evaluate(&db, &spec);
            if !rows.is_empty() || rng.gen_bool(0.15) {
                break (spec, rows);
            }
        };
        let desc = spec.order_by.is_some_and(|o| o.desc);
        let by = |a: &Value, b: &Value| {
            let ord = naive::order(a, b);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        };
        // A row's sort key is its own unless DISTINCT merged rows that
        // differ in an unprojected key.
        let keyed = spec.order_by.is_some_and(|o| {
            let item = match o.key {
                OrderKey::Column(col) => SelectItem::column(col),
                OrderKey::Aggregate(agg, col) => SelectItem { agg: Some(agg), col },
            };
            !spec.distinct || spec.select.contains(&item)
        });
        rows.sort_by(|a, b| by(&a.1, &b.1));
        // The rows a LIMIT keeps are pinned only where it cuts between two
        // keys; elsewhere which rows survive is join order, so the limit is
        // lifted.
        if let Some(limit) = spec.limit.filter(|&l| l < rows.len()) {
            if keyed && (limit == 0 || by(&rows[limit - 1].1, &rows[limit].1) == Ordering::Less) {
                rows.truncate(limit);
            } else {
                spec.limit = None;
            }
        }
        if rows.len() > 300 {
            seen.skipped += 1;
            continue;
        }
        for sorted in [false, true].into_iter().filter(|&s| !s || keyed) {
            let tsq = random_sketch(&mut rng, spec.select.len(), &rows, sorted, &mut seen);
            let fits = tsq.limit == 0 || rows.len() <= tsq.limit;
            let any_order = |a: &Value, b: &Value| !sorted || by(a, b) != Ordering::Greater;
            let every_order = |a: &Value, b: &Value| !sorted || by(a, b) == Ordering::Less;
            let (some, all) = (
                fits && brute::place(&tsq, &rows, &mut Vec::new(), &any_order),
                fits && brute::place(&tsq, &rows, &mut Vec::new(), &every_order),
            );
            for (which, on) in sides {
                let plan = VerifyPlan::new(on, Some(&tsq));
                let counters = RunCacheCounters::default();
                let got = by_order::spec_satisfies_sketch(on, &tsq, &spec, &plan, &counters);
                let again = by_order::spec_satisfies_sketch(on, &tsq, &spec, &plan, &counters);
                assert_eq!(counters.snapshot(), (1, 1), "the second check is the cached bit");
                seen.short_circuited += counters.scan_snapshot().1;
                let context = || {
                    format!(
                        "seed {seed} case {case}, {which} database\n  {spec:?}\n  {tsq:?}\n  \
                         reference {rows:?}"
                    )
                };
                assert_eq!(got, again, "{}", context());
                if some == all {
                    assert_eq!(got, some, "{}", context());
                } else if which == "indexed" {
                    seen.unpinned += 1;
                }
            }
            if some == all {
                *(if some { &mut seen.passed } else { &mut seen.failed }) += 1;
                seen.passed_in_order += usize::from(some && sorted && tsq.tuples.len() >= 2);
            }
        }
    }
    seen
}

/// The verdict checks must have had something to bite on.
fn assert_verdicts_bit(seen: &Verdicts, cases: usize) {
    println!("{seen:?}");
    let checked = seen.passed + seen.failed;
    assert!(seen.passed >= cases / 5 && seen.failed >= cases / 5, "{seen:?}");
    assert!(seen.unpinned * 10 <= checked && seen.skipped * 10 <= cases, "{seen:?}");
    // Equal sort keys leave many in-order answers unpinned: a lower bar.
    let in_order = seen.passed_in_order;
    assert!(in_order >= cases / 30, "only {in_order} passing in-order checks: {seen:?}");
    for (what, n) in [
        ("sorted", seen.sorted),
        ("limited", seen.limited),
        ("all-empty tuples", seen.empty_tuples),
        ("duplicate tuples", seen.duplicate_tuples),
        ("more tuples than rows", seen.more_tuples_than_rows),
        ("range cells", seen.range_cells),
    ] {
        assert!(n >= cases / 20, "only {n} sketches with {what}: {seen:?}");
    }
    assert!(seen.short_circuited > 0, "no verdict stopped a scan early");
}

#[test]
fn generated_mas_verdicts_equal_brute_force() {
    let seen = generated_verdicts_equal_brute_force(&mas::generate(42, 0.5).db, 0x4EF0_0201, 300);
    assert_verdicts_bit(&seen, 300);
}

#[test]
fn generated_spider_verdicts_equal_brute_force() {
    let dataset = spider::generate("reference-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        let seen = generated_verdicts_equal_brute_force(db, 0x4EF0_0300 + i as u64, 200);
        assert_verdicts_bit(&seen, 200);
    }
}
