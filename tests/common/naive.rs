//! An evaluator that shares nothing with the executor: nested loops over
//! copied rows (`Vec<Vec<Value>>`), no index, no cache, no streaming, no
//! `Key`, equality and order written out from the value contract in
//! `docs/EXECUTOR.md`.
//!
//! It produces the executor's row order, as `docs/EXECUTOR.md` ("Why the row
//! order is the same everywhere") defines it, from that definition alone:
//! the loops run in the canonical join order — the first FROM table, then
//! the table each first connecting edge of `spec.join.edges` adds — each
//! over ascending row ids; groups appear in the order of their first row,
//! DISTINCT keeps the first of equal projections, and the sort is stable.

use duoquest::db::{
    AggFunc, CmpOp, ColumnId, Database, LogicalOp, OrderKey, Predicate, SelectItem, SelectSpec,
    TableId, Value,
};
use std::cmp::Ordering;

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
        return if agg == AggFunc::Count { Value::int(group.len() as i64) } else { Value::Null };
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

/// The FROM tables in the canonical join order: the first FROM table, then
/// repeatedly the table that the first edge of `spec.join.edges` joining a
/// bound table to an unbound one adds.
fn join_order(spec: &SelectSpec) -> Vec<TableId> {
    let mut bound = vec![spec.join.tables[0]];
    let mut left: Vec<_> = spec.join.edges.iter().collect();
    while let Some(at) = (left.iter())
        .position(|e| bound.contains(&e.fk.from.table) != bound.contains(&e.fk.to.table))
    {
        let fk = left.remove(at).fk;
        bound.push(if bound.contains(&fk.from.table) { fk.to.table } else { fk.from.table });
    }
    bound
}

/// The spec's complete result before `ORDER BY` and `LIMIT`, in the
/// executor's order: each output row with its sort key (NULL without an
/// `ORDER BY`).
pub fn evaluate(db: &Database, spec: &SelectSpec) -> Vec<(Vec<Value>, Value)> {
    // FROM: one table at a time, every joined row so far against every
    // stored row in ascending row id, kept when all edges between bound
    // tables hold.
    let mut layout = Layout(Vec::new());
    let mut joined: Vec<Joined> = vec![Vec::new()];
    let mut width = 0;
    for table in join_order(spec) {
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

    // GROUP BY, groups in the order of their first row: without aggregation
    // every row is its own group; an aggregate without GROUP BY makes one
    // group, even of nothing.
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

    // HAVING, projection and the sort key, per group. A plain column of a
    // group is read off its first row.
    let of_group = |group: &[&Joined], item: SelectItem| match (item.agg, item.col) {
        (Some(agg), col) => aggregate(&layout, group, agg, col),
        (None, Some(col)) => group.first().map_or(Value::Null, |row| row[layout.at(col)].clone()),
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
        // DISTINCT: the first row of each class of equal projections.
        if spec.distinct && out.iter().any(|(seen, _)| same_row(seen, &projected)) {
            continue;
        }
        out.push((projected, key));
    }
    out
}

/// [`evaluate`] sorted by a stable sort under the `ORDER BY` and cut by the
/// `LIMIT`: the spec's rows, in the executor's order.
pub fn result(db: &Database, spec: &SelectSpec) -> Vec<(Vec<Value>, Value)> {
    let mut rows = evaluate(db, spec);
    sort_and_limit(spec, &mut rows);
    rows
}

/// The tail of [`result`]: `rows` as [`evaluate`] returns them, sorted
/// stably under the `ORDER BY` and cut by the `LIMIT`.
pub fn sort_and_limit(spec: &SelectSpec, rows: &mut Vec<(Vec<Value>, Value)>) {
    if let Some(o) = spec.order_by {
        rows.sort_by(|a, b| if o.desc { order(&b.1, &a.1) } else { order(&a.1, &b.1) });
    }
    rows.truncate(spec.limit.unwrap_or(usize::MAX));
}
