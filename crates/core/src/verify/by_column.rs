//! Column-wise verification probes (`VerifyByColumn`, paper Example 3.5).
//!
//! Every constrained cell of every example tuple is checked independently
//! against the projected column at the same position — no join is required,
//! which makes this much cheaper than row-wise probes. Whether a column can
//! produce a cell depends on neither the partial query nor its siblings, so
//! the answers live in the run's [`VerifyPlan`]: the first time a (cell,
//! column) pair comes up it is decided by a cheap
//! `SELECT … FROM <column's table> WHERE <cell constraint> LIMIT 1` probe
//! (or, under `AVG`, by the column's observed range), and every later child
//! that projects the column there reads the stored verdict. The `LIMIT 1`
//! rides the streaming executor's limit pushdown (see `docs/EXECUTOR.md`):
//! on a cache miss the scan stops at the first matching row instead of
//! filtering the whole table.

use crate::tsq::{TableSketchQuery, TsqCell};
use crate::verify::plan::{Check, VerifyPlan};
use duoquest_db::{
    AggFunc, ColumnId, Database, JoinTree, Predicate, RunCacheCounters, SelectItem, SelectSpec,
};
use duoquest_sql::{PartialQuery, SelectColumn};

/// Whether every constrained example cell can be produced by the corresponding
/// projected column on its own. `plan` must have been built from `tsq` (and
/// `db`'s schema); first touches of a (cell, column) pair probe `db` and are
/// attributed to `counters`.
pub fn verify_by_column(
    db: &Database,
    tsq: &TableSketchQuery,
    pq: &PartialQuery,
    plan: &VerifyPlan,
    counters: &RunCacheCounters,
) -> bool {
    let Some(items) = pq.select.as_ref() else { return true };
    // Position of the cell among the TSQ's constrained cells: its row in the plan.
    let mut constrained = 0;
    for tuple in &tsq.tuples {
        for (i, cell) in tuple.iter().enumerate() {
            if !cell.is_constrained() {
                continue;
            }
            let slot = constrained;
            constrained += 1;
            let Some(item) = items.get(i) else { continue };
            let Some(col_choice) = item.col.as_ref() else { continue };
            let SelectColumn::Column(col) = col_choice else { continue }; // `*` carries no column
            let check = match item.agg.as_ref() {
                // Aggregate undecided: the item could still become COUNT/SUM, so
                // no sound conclusion can be drawn yet.
                None => continue,
                // COUNT and SUM projections are ignored (paper §3.4).
                Some(Some(AggFunc::Count)) | Some(Some(AggFunc::Sum)) => continue,
                // AVG: the cell must intersect the column's observed range.
                Some(Some(AggFunc::Avg)) => Check::AvgRange,
                // MIN/MAX and plain projections: the cell value must exist in the column.
                Some(Some(AggFunc::Min)) | Some(Some(AggFunc::Max)) | Some(None) => Check::Exists,
            };
            let possible = plan.verdict(check, slot, *col, || match check {
                Check::AvgRange => avg_cell_possible(db, *col, cell),
                Check::Exists => column_probe(db, *col, cell, counters),
            });
            if !possible {
                return false;
            }
        }
    }
    true
}

/// Run the single-table probe for one cell.
fn column_probe(db: &Database, col: ColumnId, cell: &TsqCell, counters: &RunCacheCounters) -> bool {
    // Type compatibility first: a number cell can never match a text column.
    if let Some(cell_type) = cell.data_type() {
        if cell_type != db.schema().column(col).dtype {
            return false;
        }
    }
    let Some(pred) = cell_predicate(col, cell) else { return true };
    let spec = SelectSpec {
        select: vec![SelectItem::column(col)],
        join: JoinTree::single(col.table),
        predicates: vec![pred],
        limit: Some(1),
        ..Default::default()
    };
    // Through the probe cache, which keeps the answer as one bit, so
    // sessions over one database share the execution; within the run the
    // plan never asks this question again.
    db.exists_cached_with(&spec, counters).unwrap_or(false)
}

/// AVG check: the observed `[min, max]` range of the column must intersect the cell.
fn avg_cell_possible(db: &Database, col: ColumnId, cell: &TsqCell) -> bool {
    let Some((min, max)) = db.numeric_range(col) else { return false };
    match cell {
        TsqCell::Empty => true,
        TsqCell::Exact(v) => v.as_number().map(|n| n >= min && n <= max).unwrap_or(false),
        TsqCell::Range(lo, hi) => match (lo.as_number(), hi.as_number()) {
            (Some(lo), Some(hi)) => lo <= max && hi >= min,
            _ => false,
        },
    }
}

/// Translate a cell into a probe predicate.
fn cell_predicate(col: ColumnId, cell: &TsqCell) -> Option<Predicate> {
    match cell {
        TsqCell::Empty => None,
        TsqCell::Exact(v) => Some(Predicate::new(col, duoquest_db::CmpOp::Eq, v.clone())),
        TsqCell::Range(lo, hi) => Some(Predicate::between(col, lo.clone(), hi.clone())),
    }
}

/// Expose the probe builder so row-wise verification can reuse the translation.
pub(crate) fn cell_to_predicate(col: ColumnId, cell: &TsqCell) -> Option<Predicate> {
    cell_predicate(col, cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::test_fixtures::movie_db;
    use duoquest_sql::{PartialSelectItem, Slot};

    /// One call against a fresh plan: every cell is a first touch.
    fn check(db: &Database, tsq: &TableSketchQuery, pq: &PartialQuery) -> bool {
        let plan = VerifyPlan::new(db, Some(tsq));
        verify_by_column(db, tsq, pq, &plan, &RunCacheCounters::default())
    }

    fn select_pq(db: &Database, items: Vec<(&str, &str, Option<AggFunc>)>) -> PartialQuery {
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(
            items
                .into_iter()
                .map(|(t, c, agg)| PartialSelectItem {
                    col: Slot::Filled(SelectColumn::Column(db.schema().column_id(t, c).unwrap())),
                    agg: Slot::Filled(agg),
                })
                .collect(),
        );
        pq
    }

    #[test]
    fn existing_value_passes_missing_value_fails() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::text("Tom Hanks")]);
        let pq = select_pq(&db, vec![("actor", "name", None)]);
        assert!(check(&db, &tsq, &pq));
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::text("Meryl Streep")]);
        assert!(!check(&db, &tsq, &pq));
    }

    #[test]
    fn range_cell_checks_example_3_5() {
        let db = movie_db();
        // χ1 = [Tom Hanks, [1950, 1960]]: birth_yr projection passes, movie
        // revenue-like projection (year) fails because no year is in range.
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Tom Hanks"), TsqCell::range(1950, 1960)]);
        let ok = select_pq(&db, vec![("actor", "name", None), ("actor", "birth_yr", None)]);
        assert!(check(&db, &tsq, &ok));
        let bad =
            select_pq(&db, vec![("actor", "name", None), ("movies", "year", Some(AggFunc::Max))]);
        assert!(!check(&db, &tsq, &bad));
    }

    #[test]
    fn count_and_sum_projections_are_ignored() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Tom Hanks"), TsqCell::range(1950, 1960)]);
        let pq =
            select_pq(&db, vec![("actor", "name", None), ("movies", "year", Some(AggFunc::Count))]);
        assert!(check(&db, &tsq, &pq));
    }

    #[test]
    fn avg_uses_range_intersection() {
        let db = movie_db();
        // movies.year spans 1994..2013.
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::range(2000, 2020)]);
        let pq = select_pq(&db, vec![("movies", "year", Some(AggFunc::Avg))]);
        assert!(check(&db, &tsq, &pq));
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::range(1900, 1950)]);
        assert!(!check(&db, &tsq, &pq));
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::number(2000)]);
        assert!(check(&db, &tsq, &pq));
    }

    #[test]
    fn type_incompatible_cell_fails() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::number(1956)]);
        let pq = select_pq(&db, vec![("actor", "name", None)]);
        assert!(!check(&db, &tsq, &pq));
    }

    #[test]
    fn undecided_items_and_empty_cells_skipped() {
        let db = movie_db();
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::Empty, TsqCell::text("No Such Movie")]);
        // Second projection still undecided: nothing to check for it.
        let mut pq = select_pq(&db, vec![("actor", "name", None)]);
        if let Slot::Filled(items) = &mut pq.select {
            let undecided = PartialSelectItem { col: Slot::Hole, agg: Slot::Hole };
            *items = items.iter().copied().chain([undecided]).collect();
        }
        assert!(check(&db, &tsq, &pq));
    }

    #[test]
    fn a_pair_reaches_the_database_once_per_plan() {
        let db = movie_db();
        // Wider than any select list below; the constrained cells of the
        // second tuple sit behind an empty one.
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![
                TsqCell::text("Tom Hanks"),
                TsqCell::range(1950, 1960),
                TsqCell::Empty,
            ])
            .with_tuple(vec![TsqCell::Empty, TsqCell::number(1964), TsqCell::text("x")]);
        let plan = VerifyPlan::new(&db, Some(&tsq));
        let counters = RunCacheCounters::default();
        let lookups = || {
            let (hits, misses) = counters.snapshot();
            hits + misses
        };
        let pq = select_pq(&db, vec![("actor", "name", None), ("actor", "birth_yr", None)]);
        assert!(verify_by_column(&db, &tsq, &pq, &plan, &counters));
        assert_eq!(lookups(), 3, "one probe per constrained cell under the select list");
        for _ in 0..3 {
            assert!(verify_by_column(&db, &tsq, &pq, &plan, &counters));
        }
        assert_eq!(lookups(), 3, "later children read the verdicts");
        // Another aggregate over the same pair is another question, asked once.
        let avg = select_pq(
            &db,
            vec![("actor", "name", None), ("actor", "birth_yr", Some(AggFunc::Avg))],
        );
        assert!(verify_by_column(&db, &tsq, &avg, &plan, &counters));
        let max =
            select_pq(&db, vec![("actor", "name", None), ("movies", "year", Some(AggFunc::Max))]);
        assert!(!verify_by_column(&db, &tsq, &max, &plan, &counters));
        assert!(!verify_by_column(&db, &tsq, &max, &plan, &counters));
        assert_eq!(lookups(), 4, "the range check reads no cache; movies.year is probed once");
    }
}
