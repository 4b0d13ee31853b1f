//! Clause presence checks (`VerifyClauses`, paper §3.4 / Example 3.3).
//!
//! These checks need no database access: they compare the TSQ's sorting flag
//! and limit against the clause-set decision and the ORDER BY / LIMIT decision
//! of the partial query.

use crate::tsq::TableSketchQuery;
use duoquest_sql::PartialQuery;

/// Whether the partial query's clause structure is compatible with the TSQ.
pub fn verify_clauses(tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
    if let Some(clauses) = pq.clauses.as_ref() {
        // Definition 2.4(3): a sorted TSQ requires a sorting operator; an
        // unsorted TSQ prunes queries that commit to ORDER BY (Example 3.3, CQ5).
        if tsq.sorted != clauses.order_by {
            return false;
        }
        // A top-k TSQ needs the ORDER BY clause that carries the LIMIT.
        if tsq.limit > 0 && !clauses.order_by {
            return false;
        }
    }
    // Once the DESC/ASC + LIMIT decision is made, its limit must agree with k.
    if let Some(Some(order)) = pq.order_by.as_ref() {
        if let Some(limit) = order.limit.as_ref() {
            match (tsq.limit, limit) {
                (0, Some(_)) => return false,
                (k, None) if k > 0 => return false,
                (k, Some(l)) if k > 0 && *l > k => return false,
                _ => {}
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnId, OrderKey};
    use duoquest_sql::{ClauseSet, PartialOrder, Slot};

    fn pq_with_clauses(order_by: bool) -> PartialQuery {
        PartialQuery {
            clauses: Slot::Filled(ClauseSet { order_by, ..Default::default() }),
            ..PartialQuery::empty()
        }
    }

    #[test]
    fn unsorted_tsq_rejects_order_by() {
        let tsq = TableSketchQuery::empty();
        assert!(verify_clauses(&tsq, &pq_with_clauses(false)));
        assert!(!verify_clauses(&tsq, &pq_with_clauses(true)));
    }

    #[test]
    fn sorted_tsq_requires_order_by() {
        let tsq = TableSketchQuery::empty().sorted();
        assert!(verify_clauses(&tsq, &pq_with_clauses(true)));
        assert!(!verify_clauses(&tsq, &pq_with_clauses(false)));
    }

    #[test]
    fn limit_requires_order_clause_and_matching_k() {
        let tsq = TableSketchQuery::empty().sorted().with_limit(10);
        assert!(!verify_clauses(&tsq, &pq_with_clauses(false)));
        let mut pq = pq_with_clauses(true);
        assert!(verify_clauses(&tsq, &pq));

        // LIMIT larger than k fails; LIMIT within k passes; missing LIMIT fails.
        let key = OrderKey::Column(ColumnId::new(0, 0));
        pq.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(key),
                desc: Slot::Filled(true),
                limit: Slot::Filled(Some(20)),
            }
            .into(),
        ));
        assert!(!verify_clauses(&tsq, &pq));
        pq.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(key),
                desc: Slot::Filled(true),
                limit: Slot::Filled(Some(10)),
            }
            .into(),
        ));
        assert!(verify_clauses(&tsq, &pq));
        pq.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(key),
                desc: Slot::Filled(true),
                limit: Slot::Filled(None),
            }
            .into(),
        ));
        assert!(!verify_clauses(&tsq, &pq));
    }

    #[test]
    fn no_limit_tsq_rejects_limit_queries() {
        let tsq = TableSketchQuery::empty().sorted();
        let key = OrderKey::Column(ColumnId::new(0, 0));
        let mut pq = pq_with_clauses(true);
        pq.order_by = Slot::Filled(Some(
            PartialOrder {
                key: Slot::Filled(key),
                desc: Slot::Filled(false),
                limit: Slot::Filled(Some(5)),
            }
            .into(),
        ));
        assert!(!verify_clauses(&tsq, &pq));
    }

    #[test]
    fn undecided_clauses_are_not_pruned() {
        let tsq = TableSketchQuery::empty().sorted().with_limit(3);
        assert!(verify_clauses(&tsq, &PartialQuery::empty()));
    }
}
