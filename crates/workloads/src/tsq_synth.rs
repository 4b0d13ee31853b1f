//! TSQ synthesis from gold queries (paper §5.4.1 and §5.4.4).
//!
//! For the simulation study each task's TSQ is synthesized from the gold query:
//! type annotations for every projected column, two example tuples drawn at
//! random from the gold query's result set, and the sorting flag / limit of the
//! gold query. Three detail levels are used in §5.4.4: *Full* (everything),
//! *Partial* (all values of one randomly selected column erased, for tasks with
//! at least two projected columns) and *Minimal* (type annotations only).
//!
//! Enumeration produces projection lists in canonical schema order (see
//! `duoquest-core`), so the synthesizer first canonicalizes the gold query's
//! projection order and emits the TSQ in the same order.

use crate::Difficulty;
use duoquest_core::{TableSketchQuery, TsqCell};
use duoquest_db::{execute, Database, SelectSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// TSQ detail levels of paper §5.4.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsqDetail {
    /// Type annotations, two example tuples, sorting flag and limit.
    Full,
    /// Full, with every value of one randomly chosen column erased.
    Partial,
    /// Type annotations only.
    Minimal,
}

/// Reorder the projection of a query into canonical order: plain/aggregated
/// column items sorted by column id, `COUNT(*)` items last. Canonical order is
/// what the enumerator produces, and canonical equivalence ignores projection
/// order, so evaluation results are unaffected.
pub fn canonicalize_select(spec: &SelectSpec) -> SelectSpec {
    let mut out = spec.clone();
    out.select.sort_by_key(|item| match item.col {
        Some(c) => (0, c.table.0, c.column),
        None => (1, usize::MAX, usize::MAX),
    });
    out
}

/// Synthesize a TSQ for a gold query at the given detail level. Returns the
/// canonicalized gold query together with the TSQ (whose column order matches
/// it). `n_tuples` bounds the number of example tuples (the paper uses 2).
pub fn synthesize_tsq(
    db: &Database,
    gold: &SelectSpec,
    detail: TsqDetail,
    n_tuples: usize,
    seed: u64,
) -> (SelectSpec, TableSketchQuery) {
    let gold = canonicalize_select(gold);
    let result = execute(db, &gold).unwrap_or_default();
    let mut tsq = TableSketchQuery {
        types: Some(result.types.clone()),
        tuples: Vec::new(),
        sorted: gold.order_by.is_some(),
        limit: gold.limit.unwrap_or(0),
    };
    if detail == TsqDetail::Minimal || result.is_empty() {
        return (gold, tsq);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let take = n_tuples.min(result.len());
    // Sample distinct row indices and keep them in result order (Definition 2.4
    // requires example tuples of a sorted TSQ to appear in the same order).
    let mut indices: Vec<usize> = Vec::new();
    while indices.len() < take {
        let idx = rng.gen_range(0..result.len());
        if !indices.contains(&idx) {
            indices.push(idx);
        }
    }
    indices.sort_unstable();

    // For the Partial detail level, erase one randomly selected column.
    let erase_column = if detail == TsqDetail::Partial && gold.select.len() >= 2 {
        Some(rng.gen_range(0..gold.select.len()))
    } else {
        None
    };

    for idx in indices {
        let row = &result.rows[idx];
        let tuple: Vec<TsqCell> = row
            .0
            .iter()
            .enumerate()
            .map(|(ci, v)| {
                if Some(ci) == erase_column || v.is_null() {
                    TsqCell::Empty
                } else {
                    TsqCell::Exact(v.clone())
                }
            })
            .collect();
        tsq.tuples.push(tuple);
    }
    (gold, tsq)
}

/// Convenience: the example count the user studies observed (1–2 examples per
/// task, paper §5.2) scaled by difficulty — used by the simulated user.
pub fn typical_example_count(level: Difficulty) -> usize {
    match level {
        Difficulty::Easy => 1,
        Difficulty::Medium => 1,
        Difficulty::Hard => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{CmpOp, ColumnDef, DataType, Schema, TableDef, Value};
    use duoquest_sql::QueryBuilder;

    fn db() -> Database {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        let mut d = Database::new(s).unwrap();
        let movie =
            |i| vec![Value::int(i), Value::text(format!("Movie {i}")), Value::int(1990 + i)];
        d.insert_all("movies", (0..10).map(movie)).unwrap();
        d
    }

    #[test]
    fn full_tsq_has_types_tuples_and_flags() {
        let db = db();
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .select("movies.year")
            .filter("movies.year", CmpOp::Gt, 1995)
            .order_by("movies.year", false)
            .build()
            .unwrap();
        let (canonical, tsq) = synthesize_tsq(&db, &gold, TsqDetail::Full, 2, 7);
        assert_eq!(tsq.types, Some(vec![DataType::Text, DataType::Number]));
        assert_eq!(tsq.tuples.len(), 2);
        assert!(tsq.sorted);
        assert_eq!(tsq.limit, 0);
        assert!(duoquest_sql::queries_equivalent(&canonical, &gold));
        // Every exact cell comes from the gold result.
        let result = execute(&db, &canonical).unwrap();
        for tuple in &tsq.tuples {
            assert!(result
                .rows
                .iter()
                .any(|r| tuple.iter().zip(&r.0).all(|(c, v)| c.matches(v) || !c.is_constrained())));
        }
    }

    #[test]
    fn partial_erases_one_column() {
        let db = db();
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .select("movies.year")
            .build()
            .unwrap();
        let (_, tsq) = synthesize_tsq(&db, &gold, TsqDetail::Partial, 2, 11);
        let empty_per_column: Vec<usize> =
            (0..2).map(|c| tsq.tuples.iter().filter(|t| !t[c].is_constrained()).count()).collect();
        assert!(empty_per_column.contains(&2), "{empty_per_column:?}");
    }

    #[test]
    fn minimal_has_no_tuples() {
        let db = db();
        let gold = QueryBuilder::new(db.schema()).select("movies.name").build().unwrap();
        let (_, tsq) = synthesize_tsq(&db, &gold, TsqDetail::Minimal, 2, 3);
        assert!(tsq.tuples.is_empty());
        assert!(tsq.types.is_some());
    }

    #[test]
    fn canonicalization_sorts_projection() {
        let db = db();
        let gold = QueryBuilder::new(db.schema())
            .select("movies.year")
            .select("movies.name")
            .build()
            .unwrap();
        let canon = canonicalize_select(&gold);
        assert_eq!(canon.select[0].col, Some(db.schema().column_id("movies", "name").unwrap()));
        assert!(duoquest_sql::queries_equivalent(&canon, &gold));
    }

    #[test]
    fn sorted_tsq_preserves_result_order() {
        let db = db();
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .select("movies.year")
            .order_by("movies.year", true)
            .build()
            .unwrap();
        let (canonical, tsq) = synthesize_tsq(&db, &gold, TsqDetail::Full, 2, 5);
        let result = execute(&db, &canonical).unwrap();
        // Example tuple 0 must appear no later than example tuple 1.
        let pos = |tuple: &Vec<TsqCell>| {
            result
                .rows
                .iter()
                .position(|r| tuple.iter().zip(&r.0).all(|(c, v)| c.matches(v)))
                .unwrap()
        };
        assert!(pos(&tsq.tuples[0]) <= pos(&tsq.tuples[1]));
        assert_eq!(typical_example_count(Difficulty::Hard), 2);
    }
}
