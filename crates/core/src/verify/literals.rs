//! Literal-usage check (`VerifyLiterals`, paper Algorithm 3 line 10).
//!
//! Once a query is complete, every literal value the user tagged in the NLQ
//! must actually be used by the query — as a WHERE constant, a HAVING constant,
//! or (for integers) as the LIMIT.

use duoquest_nlq::{Literal, LiteralKind};
use duoquest_sql::PartialQuery;

/// Whether every tagged literal is used somewhere in the (complete) query.
pub fn verify_literals(pq: &PartialQuery, literals: &[Literal]) -> bool {
    literals.iter().all(|lit| literal_used(pq, lit))
}

fn literal_used(pq: &PartialQuery, lit: &Literal) -> bool {
    if let Some(preds) = pq.where_predicates.as_ref() {
        for p in preds.iter() {
            if p.value.as_ref().map(|v| v.sql_eq(&lit.value)).unwrap_or(false) {
                return true;
            }
            if p.value2.as_ref().map(|v| v.sql_eq(&lit.value)).unwrap_or(false) {
                return true;
            }
        }
    }
    if let Some(Some(h)) = pq.having.as_ref() {
        if h.value.as_ref().map(|v| v.sql_eq(&lit.value)).unwrap_or(false) {
            return true;
        }
    }
    if lit.kind == LiteralKind::Number {
        if let Some(Some(o)) = pq.order_by.as_ref() {
            if let Some(Some(limit)) = o.limit.as_ref() {
                if (*limit as f64 - lit.value.as_number().unwrap_or(f64::NAN)).abs() < f64::EPSILON
                {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{CmpOp, ColumnId, OrderKey, Value};
    use duoquest_nlq::Literal;
    use duoquest_sql::{PartialHaving, PartialOrder, PartialPredicate, Slot};

    fn pq_with_predicate(value: Value) -> PartialQuery {
        let mut pq = PartialQuery::empty();
        pq.where_predicates = Slot::Filled(
            vec![PartialPredicate {
                col: Slot::Filled(ColumnId::new(0, 0)),
                op: Slot::Filled(CmpOp::Eq),
                value: Slot::Filled(value),
                value2: None,
            }]
            .into(),
        );
        pq
    }

    #[test]
    fn used_and_unused_predicate_literals() {
        let pq = pq_with_predicate(Value::text("SIGMOD"));
        let used = vec![Literal::text("SIGMOD", Value::text("sigmod"))];
        let unused = vec![Literal::text("VLDB", Value::text("VLDB"))];
        assert!(verify_literals(&pq, &used));
        assert!(!verify_literals(&pq, &unused));
        assert!(verify_literals(&pq, &[]));
    }

    #[test]
    fn between_second_bound_counts_as_used() {
        let mut pq = pq_with_predicate(Value::int(2010));
        if let Slot::Filled(preds) = &mut pq.where_predicates {
            let preds = std::sync::Arc::make_mut(preds);
            preds[0].op = Slot::Filled(CmpOp::Between);
            preds[0].value2 = Some(Value::int(2017));
        }
        let lits = vec![Literal::number(2010.0), Literal::number(2017.0)];
        assert!(verify_literals(&pq, &lits));
    }

    #[test]
    fn having_value_counts_as_used() {
        let mut pq = PartialQuery::empty();
        pq.having = Slot::Filled(Some(
            PartialHaving {
                agg: Slot::Filled(duoquest_db::AggFunc::Count),
                col: Slot::Filled(None),
                op: Slot::Filled(CmpOp::Gt),
                value: Slot::Filled(Value::int(500)),
            }
            .into(),
        ));
        assert!(verify_literals(&pq, &[Literal::number(500.0)]));
        assert!(!verify_literals(&pq, &[Literal::number(100.0)]));
    }

    #[test]
    fn numeric_literal_as_limit_counts_as_used() {
        let mut pq = PartialQuery::empty();
        pq.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(OrderKey::Column(ColumnId::new(0, 0))),
                desc: Slot::Filled(true),
                limit: Slot::Filled(Some(10)),
            }
            .into(),
        ));
        assert!(verify_literals(&pq, &[Literal::number(10.0)]));
        assert!(!verify_literals(&pq, &[Literal::number(5.0)]));
    }
}
