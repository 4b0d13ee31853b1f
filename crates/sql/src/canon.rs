//! Canonical query equivalence.
//!
//! The simulation study scores a candidate as correct when it matches the gold
//! SQL. Like the Spider benchmark's "exact set matching", the comparison is
//! insensitive to the order of projections, predicates and grouping columns,
//! and to the textual case of literal values. The FROM clause is compared by
//! the *set of tables* joined (join conditions are implied by the FK-PK-only
//! join scope of the paper).

use duoquest_db::{LogicalOp, Predicate, SelectSpec, Value};

/// Whether two queries are equivalent under canonical (set-semantics) comparison.
pub fn queries_equivalent(a: &SelectSpec, b: &SelectSpec) -> bool {
    select_equiv(a, b)
        && tables_equiv(a, b)
        && predicates_equiv(a, b)
        && group_equiv(a, b)
        && having_equiv(a, b)
        && order_equiv(a, b)
        && a.limit == b.limit
}

fn select_equiv(a: &SelectSpec, b: &SelectSpec) -> bool {
    if a.select.len() != b.select.len() {
        return false;
    }
    let mut a_items: Vec<String> =
        a.select.iter().map(|i| format!("{:?}|{:?}", i.agg, i.col)).collect();
    let mut b_items: Vec<String> =
        b.select.iter().map(|i| format!("{:?}|{:?}", i.agg, i.col)).collect();
    a_items.sort();
    b_items.sort();
    a_items == b_items
}

fn tables_equiv(a: &SelectSpec, b: &SelectSpec) -> bool {
    let mut ta = a.join.tables.to_vec();
    let mut tb = b.join.tables.to_vec();
    ta.sort();
    tb.sort();
    ta == tb
}

fn value_key(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("t:{}", s.to_ascii_lowercase()),
        Value::Number(n) => format!("n:{n}"),
        Value::Null => "null".into(),
    }
}

fn predicate_key(p: &Predicate) -> String {
    format!(
        "{:?}|{:?}|{:?}|{}|{}",
        p.agg,
        p.col,
        p.op,
        value_key(&p.value),
        p.value2.as_ref().map(value_key).unwrap_or_default()
    )
}

fn predicates_equiv(a: &SelectSpec, b: &SelectSpec) -> bool {
    if a.predicates.len() != b.predicates.len() {
        return false;
    }
    // The connective only matters when there is more than one predicate.
    if a.predicates.len() > 1 {
        let op_a = a.predicate_op;
        let op_b = b.predicate_op;
        if !matches!(
            (op_a, op_b),
            (LogicalOp::And, LogicalOp::And) | (LogicalOp::Or, LogicalOp::Or)
        ) {
            return false;
        }
    }
    let mut ka: Vec<String> = a.predicates.iter().map(predicate_key).collect();
    let mut kb: Vec<String> = b.predicates.iter().map(predicate_key).collect();
    ka.sort();
    kb.sort();
    ka == kb
}

fn group_equiv(a: &SelectSpec, b: &SelectSpec) -> bool {
    let mut ga = a.group_by.clone();
    let mut gb = b.group_by.clone();
    ga.sort();
    gb.sort();
    ga == gb
}

fn having_equiv(a: &SelectSpec, b: &SelectSpec) -> bool {
    let mut ha: Vec<String> = a.having.iter().map(predicate_key).collect();
    let mut hb: Vec<String> = b.having.iter().map(predicate_key).collect();
    ha.sort();
    hb.sort();
    ha == hb
}

fn order_equiv(a: &SelectSpec, b: &SelectSpec) -> bool {
    match (&a.order_by, &b.order_by) {
        (None, None) => true,
        (Some(x), Some(y)) => x.key == y.key && x.desc == y.desc,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{
        AggFunc, CmpOp, ColumnDef, JoinTree, OrderKey, OrderSpec, Schema, SelectItem, TableDef,
    };

    fn schema() -> Schema {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s
    }

    fn base(s: &Schema) -> SelectSpec {
        SelectSpec {
            select: vec![
                SelectItem::column(s.column_id("movies", "name").unwrap()),
                SelectItem::column(s.column_id("movies", "year").unwrap()),
            ],
            join: JoinTree::single(s.table_id("movies").unwrap()),
            predicates: vec![
                Predicate::new(s.column_id("movies", "year").unwrap(), CmpOp::Lt, Value::int(1995)),
                Predicate::new(
                    s.column_id("movies", "name").unwrap(),
                    CmpOp::Eq,
                    Value::text("Gravity"),
                ),
            ],
            predicate_op: LogicalOp::And,
            ..Default::default()
        }
    }

    #[test]
    fn identical_queries_match() {
        let s = schema();
        assert!(queries_equivalent(&base(&s), &base(&s)));
    }

    #[test]
    fn projection_and_predicate_order_is_ignored() {
        let s = schema();
        let a = base(&s);
        let mut b = base(&s);
        b.select.reverse();
        b.predicates.reverse();
        assert!(queries_equivalent(&a, &b));
    }

    #[test]
    fn literal_case_is_ignored() {
        let s = schema();
        let a = base(&s);
        let mut b = base(&s);
        b.predicates[1].value = Value::text("gravity");
        assert!(queries_equivalent(&a, &b));
    }

    #[test]
    fn differing_operator_or_value_detected() {
        let s = schema();
        let a = base(&s);
        let mut b = base(&s);
        b.predicates[0].op = CmpOp::Le;
        assert!(!queries_equivalent(&a, &b));
        let mut c = base(&s);
        c.predicates[0].value = Value::int(2000);
        assert!(!queries_equivalent(&a, &c));
    }

    #[test]
    fn connective_matters_with_multiple_predicates() {
        let s = schema();
        let a = base(&s);
        let mut b = base(&s);
        b.predicate_op = LogicalOp::Or;
        assert!(!queries_equivalent(&a, &b));
    }

    #[test]
    fn order_and_limit_matter() {
        let s = schema();
        let a = base(&s);
        let mut b = base(&s);
        b.order_by = Some(OrderSpec {
            key: OrderKey::Column(s.column_id("movies", "year").unwrap()),
            desc: false,
        });
        assert!(!queries_equivalent(&a, &b));
        let mut c = base(&s);
        c.limit = Some(5);
        assert!(!queries_equivalent(&a, &c));
    }

    #[test]
    fn aggregates_in_select_compared() {
        let s = schema();
        let mut a = base(&s);
        a.select = vec![SelectItem::count_star()];
        let mut b = base(&s);
        b.select =
            vec![SelectItem::aggregate(AggFunc::Count, s.column_id("movies", "name").unwrap())];
        assert!(!queries_equivalent(&a, &b));
    }
}
