//! Row-wise verification probes (`VerifyByRow`, paper Example 3.6).
//!
//! Row-wise probes require the output values of a partial query to reside in
//! the *same* tuple when matched against an example tuple. They execute over
//! the partial query's join path, re-using its (completed) WHERE and GROUP BY
//! clauses, with the example cells appended to WHERE (unaggregated projections)
//! or HAVING (aggregated projections).
//!
//! A probe is an existence check: only "did a row come back" is read (the
//! global-aggregate probe reads its one row as a count, a verdict the row
//! decides: [`Decision::NonZeroCount`](crate::verify::plan::Decision)), and
//! the run's memo keeps the answer as one bit. Without
//! a HAVING constraint that answer does not depend on the GROUP BY — a group
//! exists exactly when a joined row passes WHERE — so such a probe is issued
//! without one. The executor can then stream it and stop at the first row,
//! where a grouped spec would have it materialize the whole join first; and
//! candidates that differ only in their grouping share one memoized probe.

use crate::tsq::TableSketchQuery;
use crate::verify::by_column::cell_to_predicate;
use crate::verify::plan::COUNT_TAG;
use duoquest_db::{
    AggFunc, CmpOp, Database, Predicate, RunCacheCounters, SelectItem, SelectSpec, Value, Verdict,
};
use duoquest_sql::{PartialQuery, SelectColumn};

/// `CanCheckRows` (paper §3.4): partial queries with aggregated projections may
/// only be row-checked once their WHERE and GROUP BY clauses have no holes,
/// because completing those holes could change the aggregate values.
pub fn can_check_rows(pq: &PartialQuery) -> bool {
    if pq.select.as_ref().map(|s| s.is_empty()).unwrap_or(true) {
        return false;
    }
    if pq.join.is_none() {
        return false;
    }
    // Row-wise probes are the most expensive stage of the cascade; the probe
    // result only changes once the WHERE/GROUP BY clauses gain new complete
    // predicates, so defer it until they have no holes (for aggregated
    // projections this is also required for correctness, paper §3.4).
    pq.where_and_group_complete()
}

/// Whether every example tuple is satisfiable by a single output row of the
/// (partial) query.
pub fn verify_by_row(
    db: &Database,
    tsq: &TableSketchQuery,
    pq: &PartialQuery,
    counters: &RunCacheCounters,
) -> bool {
    let Some(items) = pq.select.as_ref() else { return true };
    let Some(join) = pq.join.as_ref() else { return true };

    // Base spec: the decided parts of the partial query whose omission can only
    // enlarge the result set (so pruning stays sound).
    let mut base = SelectSpec { join: join.clone(), limit: Some(1), ..Default::default() };

    // Include the WHERE clause only when it is fully decided; a partially
    // decided conjunction could only shrink the result set further, so probing
    // the superset is sound, while a partially decided disjunction could grow
    // it, which would make pruning unsound.
    let where_complete = pq
        .where_predicates
        .as_ref()
        .map(|preds| preds.iter().all(|p| p.is_complete()))
        .unwrap_or(false);
    if where_complete {
        if let Some(preds) = pq.where_predicates.as_ref() {
            for p in preds.iter() {
                if let Ok(pred) = p.to_predicate() {
                    base.predicates.push(pred);
                }
            }
            if let Some(op) = pq.where_op.as_ref() {
                base.predicate_op = *op;
            } else if preds.len() > 1 {
                // Connective undecided: drop the predicates again (an OR could
                // only be wider than any single predicate subset).
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
            if !cell.is_constrained() {
                continue;
            }
            let Some(item) = items.get(i) else { continue };
            let Some(SelectColumn::Column(col)) = item.col.as_ref() else {
                // `COUNT(*)` cells become HAVING COUNT(*) constraints.
                if let Some(Some(AggFunc::Count)) = item.agg.as_ref() {
                    if let Some(p) = cell_to_predicate(duoquest_db::ColumnId::new(0, 0), cell) {
                        spec.having.push(Predicate {
                            agg: Some(AggFunc::Count),
                            col: None,
                            op: p.op,
                            value: p.value,
                            value2: p.value2,
                        });
                        constrained = true;
                    }
                }
                continue;
            };
            match item.agg.as_ref() {
                None => continue, // aggregate undecided: no sound constraint yet
                Some(None) => {
                    if let Some(p) = cell_to_predicate(*col, cell) {
                        spec.predicates.push(p);
                        constrained = true;
                    }
                }
                Some(Some(agg)) => {
                    if let Some(p) = cell_to_predicate(*col, cell) {
                        spec.having.push(Predicate {
                            agg: Some(*agg),
                            col: Some(*col),
                            op: p.op,
                            value: p.value,
                            value2: p.value2,
                        });
                        constrained = true;
                    }
                }
            }
        }
        if !constrained {
            continue;
        }
        if spec.having.is_empty() {
            spec.group_by.clear();
        }
        // The probe needs some projection; project the first available column of
        // the join (mirroring the paper's `SELECT 1`).
        let probe_col = pq.referenced_columns().first().copied().unwrap_or_else(|| {
            db.schema().table_columns(join.tables[0]).next().expect("table has columns")
        });
        let global = spec.group_by.is_empty() && !spec.having.is_empty();
        spec.select =
            vec![if global { SelectItem::count_star() } else { SelectItem::column(probe_col) }];
        // An added WHERE constraint on an aggregated query must not conflict
        // with grouping semantics; the executor tolerates it because grouping
        // keeps a representative row per group.
        if !global {
            // Only whether a row came back is read: the memo keeps one bit.
            if !db.exists_cached_with(&spec, counters).unwrap_or(false) {
                return false;
            }
            continue;
        }
        // A global-aggregate probe returns its single COUNT(*) row even for
        // an empty group, so it reads the count off that row: a verdict the
        // first row decides, memoized as one bit.
        let mut verdict = NonZeroCount { having: &spec.having };
        if !db.decide_cached_with(&spec, None, COUNT_TAG, counters, &mut verdict).unwrap_or(false) {
            return false;
        }
    }
    true
}

/// [`Decision::NonZeroCount`](crate::verify::plan::Decision): the global
/// `COUNT(*)` probe passes on its row unless that row is the
/// count of an empty group and some HAVING constraint rejects zero; no row
/// fails it.
struct NonZeroCount<'s> {
    having: &'s [Predicate],
}

impl Verdict for NonZeroCount<'_> {
    fn row(&mut self, row: &[Value]) -> Option<bool> {
        let zero = matches!(row.first(), Some(Value::Number(n)) if *n == 0.0);
        Some(!zero || self.having.iter().all(having_matches_zero))
    }

    fn end(&mut self) -> bool {
        false
    }
}

/// Whether a HAVING constraint would accept an aggregate value of zero — used
/// to interpret a global-aggregate probe that returned an empty group.
fn having_matches_zero(pred: &Predicate) -> bool {
    let zero = Value::int(0);
    match pred.op {
        CmpOp::Eq => pred.value.sql_eq(&zero),
        CmpOp::Ne => !pred.value.sql_eq(&zero),
        CmpOp::Lt => pred.value.as_number().map(|v| 0.0 < v).unwrap_or(false),
        CmpOp::Le => pred.value.as_number().map(|v| 0.0 <= v).unwrap_or(false),
        CmpOp::Gt => pred.value.as_number().map(|v| 0.0 > v).unwrap_or(false),
        CmpOp::Ge => pred.value.as_number().map(|v| 0.0 >= v).unwrap_or(false),
        CmpOp::Between => pred
            .value
            .as_number()
            .zip(pred.value2.as_ref().and_then(Value::as_number))
            .map(|(lo, hi)| lo <= 0.0 && 0.0 <= hi)
            .unwrap_or(false),
        CmpOp::Like => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsq::TsqCell;
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::{JoinGraph, LogicalOp};
    use duoquest_sql::{ClauseSet, PartialPredicate, PartialSelectItem, Slot};

    /// SELECT movies.name, actor.name FROM movies ⋈ starring ⋈ actor [WHERE ...]
    fn join_pq(db: &Database, with_where: Option<(&str, &str, CmpOp, Value)>) -> PartialQuery {
        let s = db.schema();
        let graph = JoinGraph::new(s);
        let join = graph
            .steiner_tree(&[s.table_id("movies").unwrap(), s.table_id("actor").unwrap()])
            .unwrap();
        let mut pq = PartialQuery {
            clauses: Slot::Filled(ClauseSet {
                where_clause: with_where.is_some(),
                ..Default::default()
            }),
            select: Slot::Filled(
                vec![
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(
                            s.column_id("movies", "name").unwrap(),
                        )),
                        agg: Slot::Filled(None),
                    },
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(
                            s.column_id("actor", "name").unwrap(),
                        )),
                        agg: Slot::Filled(None),
                    },
                ]
                .into(),
            ),
            join: Some(join),
            where_op: Slot::Filled(LogicalOp::And),
            ..PartialQuery::empty()
        };
        if let Some((t, c, op, v)) = with_where {
            pq.where_predicates = Slot::Filled(
                vec![PartialPredicate {
                    col: Slot::Filled(s.column_id(t, c).unwrap()),
                    op: Slot::Filled(op),
                    value: Slot::Filled(v),
                    value2: None,
                }]
                .into(),
            );
        }
        pq
    }

    #[test]
    fn matching_pair_passes_mismatched_pair_fails() {
        let db = movie_db();
        let pq = join_pq(&db, None);
        let good = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Forrest Gump"), TsqCell::text("Tom Hanks")]);
        assert!(verify_by_row(&db, &good, &pq, &RunCacheCounters::default()));
        // Sandra Bullock did not star in Forrest Gump.
        let bad = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Forrest Gump"), TsqCell::text("Sandra Bullock")]);
        assert!(!verify_by_row(&db, &bad, &pq, &RunCacheCounters::default()));
    }

    #[test]
    fn where_clause_participates_in_row_check() {
        let db = movie_db();
        // WHERE movies.year > 2000 excludes Forrest Gump.
        let pq = join_pq(&db, Some(("movies", "year", CmpOp::Gt, Value::int(2000))));
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Forrest Gump"), TsqCell::text("Tom Hanks")]);
        assert!(!verify_by_row(&db, &tsq, &pq, &RunCacheCounters::default()));
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Gravity"), TsqCell::text("Sandra Bullock")]);
        assert!(verify_by_row(&db, &tsq, &pq, &RunCacheCounters::default()));
    }

    #[test]
    fn aggregated_projection_goes_to_having() {
        let db = movie_db();
        let s = db.schema();
        let graph = JoinGraph::new(s);
        let join = graph
            .steiner_tree(&[s.table_id("actor").unwrap(), s.table_id("starring").unwrap()])
            .unwrap();
        // SELECT actor.name, COUNT(*) ... GROUP BY actor.name
        let pq = PartialQuery {
            clauses: Slot::Filled(ClauseSet { group_by: true, ..Default::default() }),
            select: Slot::Filled(
                vec![
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Column(
                            s.column_id("actor", "name").unwrap(),
                        )),
                        agg: Slot::Filled(None),
                    },
                    PartialSelectItem {
                        col: Slot::Filled(SelectColumn::Star),
                        agg: Slot::Filled(Some(AggFunc::Count)),
                    },
                ]
                .into(),
            ),
            join: Some(join),
            group_by: Slot::Filled(vec![s.column_id("actor", "name").unwrap()].into()),
            having: Slot::Filled(None),
            ..PartialQuery::empty()
        };
        assert!(can_check_rows(&pq));
        // Tom Hanks starred in exactly 1 movie in the fixture.
        let good = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Tom Hanks"), TsqCell::number(1)]);
        assert!(verify_by_row(&db, &good, &pq, &RunCacheCounters::default()));
        let bad = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Tom Hanks"), TsqCell::range(1950, 1960)]);
        assert!(!verify_by_row(&db, &bad, &pq, &RunCacheCounters::default()));
    }

    #[test]
    fn can_check_rows_preconditions() {
        let db = movie_db();
        let pq = PartialQuery::empty();
        assert!(!can_check_rows(&pq));
        let pq = join_pq(&db, None);
        assert!(can_check_rows(&pq));
        // Aggregated projection with an undecided WHERE clause blocks row checks.
        let s = db.schema();
        let mut pq = join_pq(&db, None);
        pq.clauses = Slot::Filled(ClauseSet { where_clause: true, ..Default::default() });
        if let Slot::Filled(items) = &mut pq.select {
            std::sync::Arc::make_mut(items)[1] = PartialSelectItem {
                col: Slot::Filled(SelectColumn::Column(s.column_id("movies", "year").unwrap())),
                agg: Slot::Filled(Some(AggFunc::Max)),
            };
        }
        assert!(!can_check_rows(&pq));
    }

    #[test]
    fn unconstrained_tuples_pass_trivially() {
        let db = movie_db();
        let pq = join_pq(&db, None);
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::Empty, TsqCell::Empty]);
        assert!(verify_by_row(&db, &tsq, &pq, &RunCacheCounters::default()));
    }
}
