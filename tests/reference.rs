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
//! the contract the probe cache serves truncated entries by: the rows under
//! a budget `b` are the first `min(b, n)` of the `n` rows without one, byte
//! for byte.

use duoquest::db::{
    execute_with, AggFunc, CmpOp, ColumnId, Database, ExecOptions, LogicalOp, OrderKey, Predicate,
    Row, SelectItem, SelectSpec, TableId, Value,
};
use duoquest::workloads::{mas, spider};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Ordering;

mod common;
use common::{random_spec, salted, unindexed, Shapes};

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
