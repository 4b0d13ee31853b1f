//! Semantic pruning rules (`VerifySemantics`, paper Table 4).
//!
//! These rules eliminate nonsensical or redundant yet syntactically correct
//! queries so that the produced candidates remain understandable to
//! non-technical users. They require no database access (only the schema).

use duoquest_db::{AggFunc, CmpOp, DataType, LogicalOp, OrderKey, Schema};
use duoquest_sql::{PartialPredicate, PartialQuery, PartialSelectItem, SelectColumn};

/// Apply every semantic rule; `true` means the partial query survives.
pub fn verify_semantics(schema: &Schema, pq: &PartialQuery) -> bool {
    no_inconsistent_predicates(pq)
        && no_constant_output_column(pq)
        && no_ungrouped_aggregation(pq)
        && no_singleton_groups(schema, pq)
        && no_unnecessary_group_by(pq)
        && aggregate_types_ok(schema, pq)
        && comparison_types_ok(schema, pq)
        && no_duplicate_select_items(pq)
        && no_duplicate_predicates(pq)
}

fn filled_predicates(pq: &PartialQuery) -> &[PartialPredicate] {
    pq.where_predicates.as_ref().map_or(&[], |preds| preds)
}

fn filled_select(pq: &PartialQuery) -> &[PartialSelectItem] {
    pq.select.as_ref().map_or(&[], |items| items)
}

/// Rule "Inconsistent predicates": two equality predicates on the same column
/// with different constants cannot both hold under AND.
fn no_inconsistent_predicates(pq: &PartialQuery) -> bool {
    if pq.where_op.as_ref() != Some(&LogicalOp::And) {
        return true;
    }
    let preds = filled_predicates(pq);
    for (i, a) in preds.iter().enumerate() {
        for b in preds.iter().skip(i + 1) {
            if let (Some(ca), Some(cb)) = (a.col.as_ref(), b.col.as_ref()) {
                if ca == cb
                    && a.op.as_ref() == Some(&CmpOp::Eq)
                    && b.op.as_ref() == Some(&CmpOp::Eq)
                {
                    if let (Some(va), Some(vb)) = (a.value.as_ref(), b.value.as_ref()) {
                        if !va.sql_eq(vb) {
                            return false;
                        }
                    }
                }
            }
        }
    }
    true
}

/// Rule "Constant output column": a projected column constrained by an
/// equality predicate would only ever show the constant.
fn no_constant_output_column(pq: &PartialQuery) -> bool {
    // Only applies when the predicates are conjunctive (or there is just one).
    let preds = filled_predicates(pq);
    let conjunctive = preds.len() <= 1 || pq.where_op.as_ref() == Some(&LogicalOp::And);
    if !conjunctive {
        return true;
    }
    for item in filled_select(pq) {
        let (Some(SelectColumn::Column(col)), Some(None)) = (item.col.as_ref(), item.agg.as_ref())
        else {
            continue;
        };
        for p in preds {
            if p.col.as_ref() == Some(col)
                && p.op.as_ref() == Some(&CmpOp::Eq)
                && p.value.is_filled()
            {
                return false;
            }
        }
    }
    true
}

/// Rule "Ungrouped aggregation": mixing aggregated and unaggregated projections
/// requires a GROUP BY clause.
fn no_ungrouped_aggregation(pq: &PartialQuery) -> bool {
    let Some(clauses) = pq.clauses.as_ref() else { return true };
    if clauses.group_by {
        return true;
    }
    let items = filled_select(pq);
    let has_agg = items.iter().any(|i| matches!(i.agg.as_ref(), Some(Some(_))));
    let has_plain = items.iter().any(|i| matches!(i.agg.as_ref(), Some(None)));
    !(has_agg && has_plain)
}

/// Rule "GROUP BY with singleton groups": grouping by a primary key makes every
/// group a single row, so aggregation is unnecessary.
fn no_singleton_groups(schema: &Schema, pq: &PartialQuery) -> bool {
    let Some(group) = pq.group_by.as_ref() else { return true };
    !group.iter().any(|c| schema.is_primary_key(*c))
}

/// Rule "Unnecessary GROUP BY": grouping without any aggregate in SELECT,
/// HAVING or ORDER BY is redundant. Only enforced once all of those decisions
/// have been made (otherwise an aggregate may still appear later).
fn no_unnecessary_group_by(pq: &PartialQuery) -> bool {
    let Some(clauses) = pq.clauses.as_ref() else { return true };
    if !clauses.group_by {
        return true;
    }
    let items = filled_select(pq);
    let select_decided = pq.select.is_filled() && items.iter().all(|i| i.agg.is_filled());
    if !select_decided {
        return true;
    }
    let select_has_agg = items.iter().any(|i| matches!(i.agg.as_ref(), Some(Some(_))));
    let having_decided = pq.having.is_filled();
    let having_has_agg = matches!(pq.having.as_ref(), Some(Some(_)));
    let order_decided = !clauses.order_by || pq.order_by.is_filled();
    let order_has_agg = matches!(
        pq.order_by.as_ref(),
        Some(Some(o)) if matches!(o.key.as_ref(), Some(OrderKey::Aggregate(..)))
    );
    if select_has_agg || having_has_agg || order_has_agg {
        return true;
    }
    // Every place an aggregate could appear is decided and none has one.
    !(having_decided && order_decided)
}

/// Rule "Aggregate type usage": MIN/MAX/AVG/SUM cannot be applied to text columns.
fn aggregate_types_ok(schema: &Schema, pq: &PartialQuery) -> bool {
    for item in filled_select(pq) {
        if let (Some(SelectColumn::Column(col)), Some(Some(agg))) =
            (item.col.as_ref(), item.agg.as_ref())
        {
            if !agg.allows_text_input() && schema.column(*col).dtype == DataType::Text {
                return false;
            }
        }
    }
    if let Some(Some(h)) = pq.having.as_ref() {
        if let (Some(agg), Some(Some(col))) = (h.agg.as_ref(), h.col.as_ref()) {
            if !agg.allows_text_input() && schema.column(*col).dtype == DataType::Text {
                return false;
            }
        }
    }
    if let Some(Some(o)) = pq.order_by.as_ref() {
        if let Some(OrderKey::Aggregate(agg, Some(col))) = o.key.as_ref() {
            if *agg != AggFunc::Count && schema.column(*col).dtype == DataType::Text {
                return false;
            }
        }
    }
    true
}

/// Rule "Faulty type comparison": ordering comparisons on text columns and
/// LIKE on numeric columns are rejected.
fn comparison_types_ok(schema: &Schema, pq: &PartialQuery) -> bool {
    for p in filled_predicates(pq) {
        let (Some(col), Some(op)) = (p.col.as_ref(), p.op.as_ref()) else { continue };
        let dtype = schema.column(*col).dtype;
        if op.requires_ordering() && dtype == DataType::Text {
            return false;
        }
        if *op == CmpOp::Like && dtype == DataType::Number {
            return false;
        }
        // A bound constant must match the column type.
        if let Some(value) = p.value.as_ref() {
            if let Some(vt) = value.data_type() {
                if vt != dtype && *op != CmpOp::Like {
                    return false;
                }
            }
        }
    }
    true
}

/// Reject exact duplicate projections (e.g. `SELECT name, name`).
fn no_duplicate_select_items(pq: &PartialQuery) -> bool {
    let items = filled_select(pq);
    for (i, a) in items.iter().enumerate() {
        for b in items.iter().skip(i + 1) {
            if a.col.is_filled() && a.col == b.col && a.agg.is_filled() && a.agg == b.agg {
                return false;
            }
        }
    }
    true
}

/// Reject exact duplicate predicates.
fn no_duplicate_predicates(pq: &PartialQuery) -> bool {
    let preds = filled_predicates(pq);
    for (i, a) in preds.iter().enumerate() {
        for b in preds.iter().skip(i + 1) {
            if a.col.is_filled()
                && a.col == b.col
                && a.op.is_filled()
                && a.op == b.op
                && a.value.is_filled()
                && a.value == b.value
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnDef, ColumnId, Schema, TableDef, Value};
    use duoquest_sql::{ClauseSet, PartialHaving, PartialOrder, Slot};

    fn schema() -> Schema {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "actor",
            vec![ColumnDef::number("aid"), ColumnDef::text("name"), ColumnDef::number("birth_yr")],
            Some(0),
        ));
        s
    }

    fn name_col(s: &Schema) -> ColumnId {
        s.column_id("actor", "name").unwrap()
    }

    fn year_col(s: &Schema) -> ColumnId {
        s.column_id("actor", "birth_yr").unwrap()
    }

    fn select_items(cols: &[(ColumnId, Option<AggFunc>)]) -> Vec<PartialSelectItem> {
        cols.iter()
            .map(|(c, agg)| PartialSelectItem {
                col: Slot::Filled(SelectColumn::Column(*c)),
                agg: Slot::Filled(*agg),
            })
            .collect()
    }

    fn predicate(col: ColumnId, op: CmpOp, value: Value) -> PartialPredicate {
        PartialPredicate {
            col: Slot::Filled(col),
            op: Slot::Filled(op),
            value: Slot::Filled(value),
            value2: None,
        }
    }

    #[test]
    fn inconsistent_equality_predicates_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.where_op = Slot::Filled(LogicalOp::And);
        pq.where_predicates = Slot::Filled(
            vec![
                predicate(name_col(&s), CmpOp::Eq, Value::text("Tom Hanks")),
                predicate(name_col(&s), CmpOp::Eq, Value::text("Brad Pitt")),
            ]
            .into(),
        );
        assert!(!verify_semantics(&s, &pq));
        // The same pair under OR is fine.
        pq.where_op = Slot::Filled(LogicalOp::Or);
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn constant_output_column_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.select =
            Slot::Filled(select_items(&[(name_col(&s), None), (year_col(&s), None)]).into());
        pq.where_predicates =
            Slot::Filled(vec![predicate(year_col(&s), CmpOp::Eq, Value::int(1950))].into());
        pq.where_op = Slot::Filled(LogicalOp::And);
        assert!(!verify_semantics(&s, &pq));
        // Projecting only the other column is fine.
        pq.select = Slot::Filled(select_items(&[(name_col(&s), None)]).into());
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn ungrouped_aggregation_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.clauses = Slot::Filled(ClauseSet::default());
        pq.select = Slot::Filled(
            select_items(&[(year_col(&s), None), (year_col(&s), Some(AggFunc::Count))]).into(),
        );
        assert!(!verify_semantics(&s, &pq));
        // With GROUP BY present in the clause set it is allowed.
        pq.clauses = Slot::Filled(ClauseSet { group_by: true, ..Default::default() });
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn singleton_groups_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.clauses = Slot::Filled(ClauseSet { group_by: true, ..Default::default() });
        pq.group_by = Slot::Filled(vec![s.column_id("actor", "aid").unwrap()].into());
        assert!(!verify_semantics(&s, &pq));
        pq.group_by = Slot::Filled(vec![name_col(&s)].into());
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn unnecessary_group_by_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.clauses = Slot::Filled(ClauseSet { group_by: true, ..Default::default() });
        pq.select = Slot::Filled(select_items(&[(name_col(&s), None)]).into());
        pq.group_by = Slot::Filled(vec![name_col(&s)].into());
        // HAVING not yet decided: not pruned.
        assert!(verify_semantics(&s, &pq));
        // HAVING decided to be absent and no aggregate anywhere: pruned.
        pq.having = Slot::Filled(None);
        assert!(!verify_semantics(&s, &pq));
        // A HAVING aggregate legitimizes the grouping.
        pq.having = Slot::Filled(Some(
            PartialHaving {
                agg: Slot::Filled(AggFunc::Count),
                col: Slot::Filled(None),
                op: Slot::Filled(CmpOp::Gt),
                value: Slot::Filled(Value::int(5)),
            }
            .into(),
        ));
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn aggregate_type_usage_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(select_items(&[(name_col(&s), Some(AggFunc::Avg))]).into());
        assert!(!verify_semantics(&s, &pq));
        pq.select = Slot::Filled(select_items(&[(name_col(&s), Some(AggFunc::Count))]).into());
        assert!(verify_semantics(&s, &pq));
        pq.select = Slot::Filled(select_items(&[(year_col(&s), Some(AggFunc::Avg))]).into());
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn faulty_type_comparisons_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.where_predicates =
            Slot::Filled(vec![predicate(name_col(&s), CmpOp::Ge, Value::text("Tom"))].into());
        assert!(!verify_semantics(&s, &pq));
        pq.where_predicates =
            Slot::Filled(vec![predicate(year_col(&s), CmpOp::Like, Value::text("%1956%"))].into());
        assert!(!verify_semantics(&s, &pq));
        // Value type must match column type.
        pq.where_predicates =
            Slot::Filled(vec![predicate(year_col(&s), CmpOp::Eq, Value::text("x"))].into());
        assert!(!verify_semantics(&s, &pq));
        pq.where_predicates =
            Slot::Filled(vec![predicate(year_col(&s), CmpOp::Ge, Value::int(1950))].into());
        assert!(verify_semantics(&s, &pq));
    }

    #[test]
    fn duplicates_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.select =
            Slot::Filled(select_items(&[(name_col(&s), None), (name_col(&s), None)]).into());
        assert!(!verify_semantics(&s, &pq));
        let mut pq = PartialQuery::empty();
        pq.where_predicates = Slot::Filled(
            vec![
                predicate(year_col(&s), CmpOp::Gt, Value::int(1950)),
                predicate(year_col(&s), CmpOp::Gt, Value::int(1950)),
            ]
            .into(),
        );
        assert!(!verify_semantics(&s, &pq));
    }

    #[test]
    fn order_by_aggregate_over_text_rejected() {
        let s = schema();
        let mut pq = PartialQuery::empty();
        pq.clauses =
            Slot::Filled(ClauseSet { group_by: true, order_by: true, ..Default::default() });
        pq.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(OrderKey::Aggregate(AggFunc::Max, Some(name_col(&s)))),
                desc: Slot::Filled(true),
                limit: Slot::Filled(None),
            }
            .into(),
        ));
        assert!(!verify_semantics(&s, &pq));
    }

    #[test]
    fn empty_partial_query_passes() {
        let s = schema();
        assert!(verify_semantics(&s, &PartialQuery::empty()));
    }
}
