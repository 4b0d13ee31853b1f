//! Progressive join path construction (paper Algorithm 2).
//!
//! Every partial query needs an executable join path so the verifier can run
//! probes against the database. Given the tables referenced by the partial
//! query, we (1) compute a Steiner tree over the FK→PK schema graph (unit edge
//! weights), and (2) extend it with additional FK hops up to a configurable
//! depth to cover queries whose `FROM` clause mentions tables beyond the
//! referenced columns (Example 3.2 of the paper).
//!
//! The candidate list is a pure function of `(schema, terminal set, extension
//! depth)`. Where the join graph has a cycle (MAS) two equally short Steiner
//! trees can connect the same tables, and [`JoinGraph::steiner_tree`] then
//! takes the first minimum of one fixed scan — remaining terminals by
//! ascending id, tree tables in the order they joined the tree. The paper has
//! no criterion left to choose by: Algorithm 2 asks for the minimum tree and
//! §3.3.4 for the shorter path, and two trees the greedy construction ties on
//! have the same number of edges, hence of bridge tables (a tree has one
//! table more than it has edges). A rule read off table statistics would make
//! emission depend on row counts and buys nothing now that probes are
//! semi-join reduced: attach order, ascending and descending table id ran
//! `mas_cold` within 0.3 % of each other with equal gold shares (PR 18 in
//! CHANGES.md). So the rule is the scan order that needs no sort.

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
    debug_assert_eq!(graph.table_count(), db.schema().table_count(), "`graph` is `db`'s");
    let mut terminals = Vec::new();
    collect_terminals(pq, current, &mut terminals);
    paths_over(graph, &terminals, extension_depth)
}

/// Fill `terminals` with the tables a join path for `pq` must cover, sorted
/// and distinct: those of its referenced columns plus those of the join path
/// it already carries.
fn collect_terminals(pq: &PartialQuery, current: Option<&JoinTree>, terminals: &mut Vec<TableId>) {
    terminals.clear();
    pq.for_each_referenced_column(|c| terminals.push(c.table));
    if let Some(cur) = current {
        terminals.extend(cur.tables.iter().copied());
    }
    terminals.sort();
    terminals.dedup();
}

/// The candidate join paths over a terminal set: all of
/// [`construct_join_paths`] past reading the partial query.
fn paths_over(graph: &JoinGraph, terminals: &[TableId], extension_depth: usize) -> Vec<JoinTree> {
    let mut bases: Vec<JoinTree> = Vec::new();
    if terminals.is_empty() {
        for t in 0..graph.table_count() {
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
/// run's extension depth, read by every round of the run.
pub(crate) struct JoinPlanner {
    graph: JoinGraph,
    extension_depth: usize,
}

impl JoinPlanner {
    /// A planner over `db`'s schema.
    pub(crate) fn new(db: &Database, extension_depth: usize) -> Self {
        JoinPlanner { graph: JoinGraph::new(db.schema()), extension_depth }
    }

    /// An empty memo over this planner, for one round's children.
    pub(crate) fn memo(&self) -> JoinPathMemo<'_> {
        JoinPathMemo { planner: self, built: HashMap::new(), terminals: Vec::new() }
    }
}

/// The path lists one round's children have asked for, keyed by terminal set.
///
/// A candidate list is a pure function of `(schema, terminal set, extension
/// depth)` — see the tie rule in the module docs — and the children of a
/// round come from one or a few parents and mostly share their terminal
/// sets; so a round builds each list once and its children copy
/// reference-counted trees out of it. The memo is as short-lived as the
/// round: nothing is kept between rounds, so no lock is taken, and a hit
/// allocates nothing.
pub(crate) struct JoinPathMemo<'a> {
    planner: &'a JoinPlanner,
    built: HashMap<Vec<TableId>, Rc<[JoinTree]>>,
    /// The terminal set of the request at hand, cloned into a key only when
    /// its list has to be built.
    terminals: Vec<TableId>,
}

impl JoinPathMemo<'_> {
    /// [`construct_join_paths`] for `pq` with its own join path as `current`.
    pub(crate) fn paths(&mut self, pq: &PartialQuery) -> Rc<[JoinTree]> {
        collect_terminals(pq, pq.join.as_ref(), &mut self.terminals);
        if let Some(paths) = self.built.get(self.terminals.as_slice()) {
            return Rc::clone(paths);
        }
        let JoinPlanner { graph, extension_depth } = self.planner;
        let paths: Rc<[JoinTree]> = paths_over(graph, &self.terminals, *extension_depth).into();
        self.built.insert(self.terminals.clone(), Rc::clone(&paths));
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
    fn memo_answers_and_builds_once_on_a_join_graph_with_a_cycle() {
        // a - b, a - c, b - c: two equally short trees span all three, and
        // the tie rule picks one — so the memo is as sound here as on a tree.
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

        let all = pq_with_select(&db, &[("a", "id"), ("b", "id"), ("c", "a")]);
        let reordered = pq_with_select(&db, &[("c", "b"), ("a", "id"), ("b", "a"), ("c", "a")]);
        let pair = pq_with_select(&db, &[("a", "id"), ("b", "id")]);
        for depth in 0..3 {
            let planner = JoinPlanner::new(&db, depth);
            let mut memo = planner.memo();
            for pq in [&all, &pair, &reordered] {
                // A graph of its own per call: the list is a function of the schema.
                let graph = JoinGraph::new(db.schema());
                let direct = construct_join_paths(&db, &graph, pq, None, depth);
                let first = memo.paths(pq);
                assert_eq!(&*first, direct.as_slice(), "depth {depth}: {pq:?}");
                assert!(Rc::ptr_eq(&first, &memo.paths(pq)));
                assert!(first[0].is_connected());
                assert_eq!(first[0].join_length(), first[0].tables.len() - 1);
            }
            assert!(Rc::ptr_eq(&memo.paths(&all), &memo.paths(&reordered)));
            assert_eq!(memo.built.len(), 2);
        }
    }
}
