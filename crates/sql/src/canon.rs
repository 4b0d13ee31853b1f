//! Canonical query equivalence.
//!
//! The simulation study scores a candidate as correct when it matches the gold
//! SQL. Like the Spider benchmark's "exact set matching", the comparison is
//! insensitive to the order of projections, tables, predicates, grouping
//! columns and HAVING predicates, and to the ASCII case of text literals. The
//! FROM clause is compared by the *set of tables* joined (join conditions are
//! implied by the FK-PK-only join scope of the paper), so the join edges are
//! ignored, and so is `DISTINCT`. The WHERE connective matters only between
//! two or more predicates; ORDER BY and LIMIT must be equal.
//!
//! Numbers compare by their folded bits, as everywhere in the workspace:
//! every NaN is one NaN, and a `-0.0` literal is the same as `0.0`.
//!
//! Two queries are equivalent exactly when their canonical keys
//! ([`duoquest_db::canonical_key`]) are equal; a caller comparing many
//! queries against one can encode it once and compare keys.

use duoquest_db::{canonical_key, SelectSpec};

/// Whether two queries are equivalent under canonical (set-semantics) comparison.
pub fn queries_equivalent(a: &SelectSpec, b: &SelectSpec) -> bool {
    canonical_key(a) == canonical_key(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{
        AggFunc, CmpOp, ColumnDef, JoinTree, LogicalOp, OrderKey, OrderSpec, Predicate, Schema,
        SelectItem, TableDef, Value,
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
