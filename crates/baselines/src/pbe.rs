//! A SQuID-like programming-by-example baseline.
//!
//! SQuID (Fariha & Meliou, PVLDB 2019) abduces a query from a set of example
//! tuples: it locates the projection columns containing the examples and then
//! proposes candidate selection predicates ("filters") derived from attribute
//! values shared by all examples, including attributes reached over foreign
//! keys. The paper's simulation study (§5.4) scores PBE as *Correct* when the
//! gold query's selection predicates are a subset of the proposed candidate
//! predicates (ignoring literal differences), and counts tasks outside its
//! capability envelope (projected aggregates or numeric columns, negation or
//! `LIKE` predicates) as *Unsupported*.
//!
//! This baseline implements exactly that contract; it is not a full SQuID
//! reimplementation (see DESIGN.md §3).

use duoquest_core::{TableSketchQuery, TsqCell};
use duoquest_db::{CmpOp, ColumnId, DataType, Database, JoinGraph, SelectSpec, TableId, Value};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The outcome of running the PBE baseline on one task.
#[derive(Debug, Clone, Default)]
pub struct PbeOutcome {
    /// Columns abduced as the projection (one per example-tuple column, where found).
    pub projection: Vec<Option<ColumnId>>,
    /// Columns on which candidate selection predicates ("filters") were proposed.
    pub candidate_filter_columns: Vec<ColumnId>,
    /// Wall-clock runtime of the abduction.
    pub runtime: Duration,
}

/// The SQuID-like PBE baseline.
#[derive(Debug, Clone, Default)]
pub struct SquidPbe {
    /// How many FK hops to follow when proposing filters (SQuID's semantic
    /// property graph reaches entities over FK joins; 2 hops cover the
    /// star/snowflake schemas it targets).
    pub max_hops: usize,
}

impl SquidPbe {
    /// Create the baseline with the default 2-hop filter derivation.
    pub fn new() -> Self {
        SquidPbe { max_hops: 2 }
    }

    /// Whether a gold query lies inside the system's capability envelope
    /// (paper Table 1 and §5.4.2).
    pub fn supports(&self, db: &Database, gold: &SelectSpec) -> bool {
        let schema = db.schema();
        for item in &gold.select {
            if item.agg.is_some() {
                return false; // no projected aggregates
            }
            match item.col {
                Some(c) if schema.column(c).dtype == DataType::Text => {}
                _ => return false, // no projected numeric columns
            }
        }
        for p in &gold.predicates {
            if matches!(p.op, CmpOp::Ne | CmpOp::Like) {
                return false; // no negation or LIKE
            }
        }
        // Grouping with projected aggregates is already excluded above; sorting
        // and limits are outside the example-tuple interaction model.
        gold.order_by.is_none() && gold.limit.is_none()
    }

    /// Run abduction from the example tuples of a TSQ.
    pub fn run(&self, db: &Database, tsq: &TableSketchQuery) -> PbeOutcome {
        let start = Instant::now();
        let width = tsq.width().unwrap_or(0);
        let mut projection: Vec<Option<ColumnId>> = vec![None; width];

        // 1. Locate projection columns: for every TSQ column, the text column
        //    containing all of that column's exact example values.
        #[allow(clippy::needless_range_loop)] // indexing two parallel structures
        for col_idx in 0..width {
            let values: Vec<&str> = tsq
                .tuples
                .iter()
                .filter_map(|t| t.get(col_idx))
                .filter_map(|c| match c {
                    TsqCell::Exact(Value::Text(s)) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            if values.is_empty() {
                continue;
            }
            let mut counts: HashMap<ColumnId, usize> = HashMap::new();
            for v in &values {
                for hit in db.index().lookup(v) {
                    *counts.entry(hit.column).or_insert(0) += 1;
                }
            }
            projection[col_idx] =
                counts.into_iter().filter(|(_, n)| *n == values.len()).map(|(c, _)| c).min();
            // deterministic choice
        }

        // 2. Propose candidate filters: columns (within `max_hops` FK hops of a
        //    projection table) on which all examples share a value.
        let mut filter_columns: Vec<ColumnId> = Vec::new();
        let graph = JoinGraph::new(db.schema());
        let projection_tables: HashSet<TableId> =
            projection.iter().flatten().map(|c| c.table).collect();
        let mut reachable: HashSet<TableId> = projection_tables.clone();
        let mut frontier: Vec<TableId> = projection_tables.iter().copied().collect();
        for _ in 0..self.max_hops {
            let mut next = Vec::new();
            for t in &frontier {
                for e in graph.edges_of(*t) {
                    let o = e.other(*t).expect("consistent adjacency");
                    if reachable.insert(o) {
                        next.push(o);
                    }
                }
            }
            frontier = next;
        }
        for table in &reachable {
            for col in db.schema().table_columns(*table) {
                if projection.iter().flatten().any(|p| *p == col) {
                    continue;
                }
                if db.schema().is_key_column(col) {
                    continue;
                }
                filter_columns.push(col);
            }
        }
        filter_columns.sort();

        PbeOutcome {
            projection,
            candidate_filter_columns: filter_columns,
            runtime: start.elapsed(),
        }
    }

    /// The paper's *Correct* criterion for supported tasks: the gold query's
    /// selection predicate columns are a subset of the proposed filter columns
    /// (literal values ignored) and the projection columns were located.
    pub fn correct_for(&self, outcome: &PbeOutcome, gold: &SelectSpec) -> bool {
        let gold_projection: HashSet<ColumnId> = gold.select.iter().filter_map(|i| i.col).collect();
        let found_projection: HashSet<ColumnId> =
            outcome.projection.iter().flatten().copied().collect();
        if !gold_projection.is_subset(&found_projection) {
            return false;
        }
        let filters: HashSet<ColumnId> = outcome.candidate_filter_columns.iter().copied().collect();
        gold.predicates.iter().all(|p| p.col.map(|c| filters.contains(&c)).unwrap_or(false))
            && gold.having.iter().all(|h| h.col.map(|c| filters.contains(&c)).unwrap_or(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{AggFunc, ColumnDef, Schema, TableDef};
    use duoquest_sql::QueryBuilder;

    /// conference(cid, name) ←— publication(pid, title, year, cid)
    fn db() -> Database {
        let mut s = Schema::new("mas");
        s.add_table(TableDef::new(
            "conference",
            vec![ColumnDef::number("cid"), ColumnDef::text("name")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "publication",
            vec![
                ColumnDef::number("pid"),
                ColumnDef::text("title"),
                ColumnDef::number("year"),
                ColumnDef::number("cid"),
            ],
            Some(0),
        ));
        s.add_foreign_key("publication", "cid", "conference", "cid").unwrap();
        let mut d = Database::new(s).unwrap();
        d.insert("conference", vec![Value::int(1), Value::text("SIGMOD")]).unwrap();
        d.insert("conference", vec![Value::int(2), Value::text("VLDB")]).unwrap();
        d.insert_all(
            "publication",
            vec![
                vec![Value::int(10), Value::text("Paper A"), Value::int(2018), Value::int(1)],
                vec![Value::int(11), Value::text("Paper B"), Value::int(2019), Value::int(1)],
                vec![Value::int(12), Value::text("Paper C"), Value::int(2020), Value::int(2)],
            ],
        )
        .unwrap();
        d
    }

    #[test]
    fn capability_envelope() {
        let db = db();
        let pbe = SquidPbe::new();
        let supported = QueryBuilder::new(db.schema())
            .select("publication.title")
            .filter("conference.name", CmpOp::Eq, "SIGMOD")
            .build()
            .unwrap();
        assert!(pbe.supports(&db, &supported));
        let aggregate = QueryBuilder::new(db.schema())
            .select("conference.name")
            .select_count_star()
            .group_by("conference.name")
            .build()
            .unwrap();
        assert!(!pbe.supports(&db, &aggregate));
        let numeric = QueryBuilder::new(db.schema())
            .select("publication.title")
            .select("publication.year")
            .build()
            .unwrap();
        assert!(!pbe.supports(&db, &numeric));
        let like = QueryBuilder::new(db.schema())
            .select("publication.title")
            .filter("publication.title", CmpOp::Like, "%data%")
            .build()
            .unwrap();
        assert!(!pbe.supports(&db, &like));
        let _ = AggFunc::Count;
    }

    #[test]
    fn abduction_finds_projection_and_filters() {
        let db = db();
        let pbe = SquidPbe::new();
        let tsq = TableSketchQuery::empty()
            .with_tuple(vec![TsqCell::text("Paper A")])
            .with_tuple(vec![TsqCell::text("Paper B")]);
        let outcome = pbe.run(&db, &tsq);
        let title = db.schema().column_id("publication", "title").unwrap();
        let conf_name = db.schema().column_id("conference", "name").unwrap();
        assert_eq!(outcome.projection, vec![Some(title)]);
        assert!(outcome.candidate_filter_columns.contains(&conf_name));

        let gold = QueryBuilder::new(db.schema())
            .select("publication.title")
            .filter("conference.name", CmpOp::Eq, "SIGMOD")
            .build()
            .unwrap();
        assert!(pbe.correct_for(&outcome, &gold));
    }

    #[test]
    fn wrong_projection_is_not_correct() {
        let db = db();
        let pbe = SquidPbe::new();
        let tsq = TableSketchQuery::empty().with_tuple(vec![TsqCell::text("SIGMOD")]);
        let outcome = pbe.run(&db, &tsq);
        let gold = QueryBuilder::new(db.schema())
            .select("publication.title")
            .filter("conference.name", CmpOp::Eq, "SIGMOD")
            .build()
            .unwrap();
        assert!(!pbe.correct_for(&outcome, &gold));
    }

    #[test]
    fn empty_tsq_produces_empty_outcome() {
        let db = db();
        let pbe = SquidPbe::new();
        let outcome = pbe.run(&db, &TableSketchQuery::empty());
        assert!(outcome.projection.is_empty());
        assert!(outcome.candidate_filter_columns.is_empty());
    }
}
