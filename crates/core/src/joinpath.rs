//! Progressive join path construction (paper Algorithm 2).
//!
//! Every partial query needs an executable join path so the verifier can run
//! probes against the database. Given the tables referenced by the partial
//! query, we (1) compute a Steiner tree over the FK→PK schema graph (unit edge
//! weights), and (2) extend it with additional FK hops up to a configurable
//! depth to cover queries whose `FROM` clause mentions tables beyond the
//! referenced columns (Example 3.2 of the paper).

use duoquest_db::{Database, JoinGraph, JoinTree, TableId};
use duoquest_sql::PartialQuery;
use std::collections::HashMap;
use std::rc::Rc;

/// Produce the candidate join paths for a partial query.
///
/// * If the partial query references no table yet, every single table of the
///   database is a candidate (paper Algorithm 2, line 6), plus extensions.
/// * Otherwise the Steiner tree over the referenced tables is the base
///   candidate, plus FK extensions up to `extension_depth` hops.
///
/// When `current` is provided (the state already carries a join path), its
/// tables are kept as additional terminals so a previously chosen extension is
/// not silently dropped when later decisions reference new tables.
pub fn construct_join_paths(
    db: &Database,
    graph: &JoinGraph,
    pq: &PartialQuery,
    current: Option<&JoinTree>,
    extension_depth: usize,
) -> Vec<JoinTree> {
    paths_over(db.schema().table_count(), graph, &terminals_of(pq, current), extension_depth)
}

/// The tables a join path for `pq` must cover, sorted and distinct: those of
/// its referenced columns plus those of the join path it already carries.
fn terminals_of(pq: &PartialQuery, current: Option<&JoinTree>) -> Vec<TableId> {
    let mut terminals: Vec<TableId> = Vec::new();
    pq.for_each_referenced_column(|c| terminals.push(c.table));
    if let Some(cur) = current {
        terminals.extend(cur.tables.iter().copied());
    }
    terminals.sort();
    terminals.dedup();
    terminals
}

/// The candidate join paths over a terminal set: all of
/// [`construct_join_paths`] past reading the partial query.
fn paths_over(
    table_count: usize,
    graph: &JoinGraph,
    terminals: &[TableId],
    extension_depth: usize,
) -> Vec<JoinTree> {
    let mut bases: Vec<JoinTree> = Vec::new();
    if terminals.is_empty() {
        for t in 0..table_count {
            bases.push(JoinTree::single(TableId(t)));
        }
    } else if let Ok(tree) = graph.steiner_tree(terminals) {
        bases.push(tree);
    } else {
        // Disconnected terminals: no valid join path exists for this partial query.
        return Vec::new();
    }

    // Breadth-first FK extensions up to the requested depth.
    let mut all: Vec<JoinTree> = bases.clone();
    let mut frontier = bases;
    for _ in 0..extension_depth {
        let mut next = Vec::new();
        for tree in &frontier {
            for ext in graph.extensions(tree) {
                if !all.contains(&ext) {
                    all.push(ext.clone());
                    next.push(ext);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }

    // Prefer shorter join paths first (secondary tie-breaker of §3.3.4) and cap
    // the fan-out — beyond a few dozen join paths the extra candidates only
    // duplicate work without covering realistic queries.
    all.sort_by_key(|t| (t.join_length(), t.tables.len()));
    all.truncate(16);
    all
}

/// Join path construction for one run: the schema's join graph and the
/// run's extension depth, shared by the run's chunk workers.
pub(crate) struct JoinPlanner {
    graph: JoinGraph,
    table_count: usize,
    extension_depth: usize,
}

impl JoinPlanner {
    /// A planner over `db`'s schema.
    pub(crate) fn new(db: &Database, extension_depth: usize) -> Self {
        JoinPlanner {
            graph: JoinGraph::new(db.schema()),
            table_count: db.schema().table_count(),
            extension_depth,
        }
    }

    /// An empty memo over this planner, for one chunk of children.
    pub(crate) fn memo(&self) -> JoinPathMemo<'_> {
        JoinPathMemo { planner: self, built: HashMap::new() }
    }
}

/// The path lists one chunk of children has asked for, keyed by terminal set.
///
/// The children of a chunk come from one or a few parents and mostly share
/// their terminal sets, and a list costs a Steiner tree plus its FK
/// extensions — breadth-first searches over hash maps — to build; so a chunk
/// builds each list once and its children copy reference-counted trees out
/// of it. The memo is as short-lived as the chunk: nothing is shared between
/// workers or kept between rounds, so no lock is taken and a run allocates
/// in the pattern it always did.
///
/// It is used only where a list is a function of its terminal set: on a join
/// graph without cycles ([`JoinGraph::is_forest`] — every Spider schema).
/// With a cycle (MAS) two equally short Steiner trees can exist and
/// [`construct_join_paths`] gives each child its own draw between them; there
/// the memo builds every list afresh, exactly as before it existed.
pub(crate) struct JoinPathMemo<'a> {
    planner: &'a JoinPlanner,
    built: HashMap<Vec<TableId>, Rc<[JoinTree]>>,
}

impl JoinPathMemo<'_> {
    /// [`construct_join_paths`] for `pq` with its own join path as `current`.
    pub(crate) fn paths(&mut self, pq: &PartialQuery) -> Rc<[JoinTree]> {
        let JoinPlanner { graph, table_count, extension_depth } = self.planner;
        let terminals = terminals_of(pq, pq.join.as_ref());
        if !graph.is_forest() {
            return paths_over(*table_count, graph, &terminals, *extension_depth).into();
        }
        if let Some(paths) = self.built.get(&terminals) {
            return Rc::clone(paths);
        }
        let paths: Rc<[JoinTree]> =
            paths_over(*table_count, graph, &terminals, *extension_depth).into();
        self.built.insert(terminals, Rc::clone(&paths));
        paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{ColumnDef, Schema, TableDef, Value};
    use duoquest_sql::{PartialSelectItem, SelectColumn, Slot};

    fn movie_db() -> Database {
        let mut s = Schema::new("movies");
        s.add_table(TableDef::new(
            "actor",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "starring",
            vec![ColumnDef::number("aid"), ColumnDef::number("mid")],
            None,
        ));
        s.add_foreign_key("starring", "aid", "actor", "aid").unwrap();
        s.add_foreign_key("starring", "mid", "movies", "mid").unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert("actor", vec![Value::int(1), Value::text("Tom Hanks")]).unwrap();
        db.rebuild_index();
        db
    }

    fn pq_with_select(db: &Database, cols: &[(&str, &str)]) -> PartialQuery {
        let mut pq = PartialQuery::empty();
        pq.select = Slot::Filled(
            cols.iter()
                .map(|(t, c)| {
                    PartialSelectItem::with_column(SelectColumn::Column(
                        db.schema().column_id(t, c).unwrap(),
                    ))
                })
                .collect(),
        );
        pq
    }

    #[test]
    fn no_referenced_tables_yields_all_single_tables() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let pq = PartialQuery::empty();
        let paths = construct_join_paths(&db, &graph, &pq, None, 0);
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p.join_length() == 0));
    }

    #[test]
    fn steiner_base_plus_extensions() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let pq = pq_with_select(&db, &[("actor", "name")]);
        let paths = construct_join_paths(&db, &graph, &pq, None, 1);
        // Base: actor alone; extension: actor ⋈ starring.
        assert_eq!(paths[0].join_length(), 0);
        assert!(paths.iter().any(|p| p.join_length() == 1));
        let deeper = construct_join_paths(&db, &graph, &pq, None, 2);
        assert!(deeper.iter().any(|p| p.tables.len() == 3));
        assert!(deeper.len() > paths.len());
    }

    #[test]
    fn current_join_tables_are_preserved_as_terminals() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let starring = db.schema().table_id("starring").unwrap();
        let current = JoinTree::single(starring);
        let pq = pq_with_select(&db, &[("actor", "name")]);
        let paths = construct_join_paths(&db, &graph, &pq, Some(&current), 0);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].contains(starring));
        assert!(paths[0].contains(db.schema().table_id("actor").unwrap()));
    }

    #[test]
    fn multi_table_reference_connects_via_bridge() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let pq = pq_with_select(&db, &[("actor", "name"), ("movies", "name")]);
        let paths = construct_join_paths(&db, &graph, &pq, None, 0);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].tables.len(), 3);
        assert_eq!(paths[0].join_length(), 2);
    }

    #[test]
    fn memo_answers_as_construct_join_paths_and_builds_each_set_once() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let starring = db.schema().table_id("starring").unwrap();
        let mut carrying = pq_with_select(&db, &[("actor", "name")]);
        carrying.join = Some(JoinTree::single(starring));
        let queries = [
            PartialQuery::empty(),
            pq_with_select(&db, &[("actor", "name")]),
            pq_with_select(&db, &[("actor", "name"), ("movies", "name")]),
            carrying,
        ];
        for depth in 0..3 {
            let planner = JoinPlanner::new(&db, depth);
            let mut memo = planner.memo();
            for pq in &queries {
                let direct = construct_join_paths(&db, &graph, pq, pq.join.as_ref(), depth);
                let first = memo.paths(pq);
                assert_eq!(&*first, direct.as_slice(), "depth {depth}: {pq:?}");
                // The second request is the memo's own list, not a rebuild.
                assert!(Rc::ptr_eq(&first, &memo.paths(pq)));
            }
            // Same terminals by another route: `actor` and `starring`, once
            // as the carried join path and once as referenced columns.
            let by_columns = pq_with_select(&db, &[("actor", "name"), ("starring", "aid")]);
            assert!(Rc::ptr_eq(&memo.paths(&queries[3]), &memo.paths(&by_columns)));
            assert_eq!(memo.built.len(), 4);
        }
    }

    #[test]
    fn memo_keeps_nothing_on_a_join_graph_with_a_cycle() {
        // a - b, a - c, b - c: the tree over all three is one of two.
        let mut s = Schema::new("triangle");
        s.add_table(TableDef::new("a", vec![ColumnDef::number("id")], Some(0)));
        s.add_table(TableDef::new(
            "b",
            vec![ColumnDef::number("id"), ColumnDef::number("a")],
            Some(0),
        ));
        s.add_table(TableDef::new("c", vec![ColumnDef::number("a"), ColumnDef::number("b")], None));
        s.add_foreign_key("b", "a", "a", "id").unwrap();
        s.add_foreign_key("c", "a", "a", "id").unwrap();
        s.add_foreign_key("c", "b", "b", "id").unwrap();
        let db = Database::new(s).unwrap();
        let planner = JoinPlanner::new(&db, 0);
        let mut memo = planner.memo();

        let all = pq_with_select(&db, &[("a", "id"), ("b", "id"), ("c", "a")]);
        let pair = pq_with_select(&db, &[("a", "id"), ("b", "id")]);
        for pq in [&all, &pair, &all] {
            let paths = memo.paths(pq);
            assert_eq!(paths.len(), 1);
            assert!(paths[0].is_connected());
            assert_eq!(paths[0].join_length(), paths[0].tables.len() - 1);
        }
        assert!(memo.built.is_empty());
    }
}
