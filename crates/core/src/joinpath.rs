//! Progressive join path construction (paper Algorithm 2).
//!
//! Every partial query needs an executable join path so the verifier can run
//! probes against the database. Given the tables referenced by the partial
//! query, we (1) grow a Steiner tree over the FK→PK schema graph (unit edge
//! weights) — from the join path the query already carries, keeping every
//! table and edge of it, or from nothing — and (2) extend it with additional
//! FK hops up to a configurable depth to cover queries whose `FROM` clause
//! mentions tables beyond the referenced columns (Example 3.2 of the paper).
//!
//! The candidate list is a pure function of `(schema, current join path,
//! tables it lacks, extension depth)`. Where the join graph has a cycle (MAS)
//! two equally short trees can connect the same tables, and
//! [`JoinGraph::grow`] then takes the first minimum of one fixed scan —
//! missing terminals by ascending id, tree tables in the order they joined
//! the tree. The paper has no criterion left to choose by: Algorithm 2 asks
//! for the minimum tree and §3.3.4 for the shorter path, and two trees the
//! greedy construction ties on have the same number of edges, hence of bridge
//! tables (a tree has one table more than it has edges). A rule read off
//! table statistics would make emission depend on row counts and buys
//! nothing now that probes are semi-join reduced: attach order, ascending and
//! descending table id ran `mas_cold` within 0.3 % of each other with equal
//! gold shares (PR 18 in CHANGES.md). So the rule is the scan order that
//! needs no sort. Because a carried path is grown, never rebuilt from its
//! tables, an edge the tie rule would not pick (MAS's `cite.cited` beside the
//! first-declared `cite.citing`) survives every later decision.

use duoquest_db::{Database, JoinGraph, JoinTree, TableId};
use duoquest_sql::PartialQuery;
use std::collections::HashMap;
use std::rc::Rc;

/// Produce the candidate join paths for a partial query.
///
/// * If neither the partial query nor `current` has a table yet, every
///   single table of the database is a candidate (paper Algorithm 2, line
///   6), plus extensions.
/// * Otherwise the base candidate is `current` grown by the referenced
///   tables it lacks ([`JoinGraph::grow`]) — the Steiner tree over the
///   referenced tables when there is no `current` — plus FK extensions up to
///   `extension_depth` hops.
///
/// Every candidate keeps every table and edge of `current`, so a previously
/// chosen extension is never dropped when later decisions reference new
/// tables.
pub fn construct_join_paths(
    db: &Database,
    graph: &JoinGraph,
    pq: &PartialQuery,
    current: Option<&JoinTree>,
    extension_depth: usize,
) -> Vec<JoinTree> {
    debug_assert_eq!(graph.table_count(), db.schema().table_count(), "`graph` is `db`'s");
    let mut key = (current.cloned(), Vec::new());
    collect_terminals(pq, current, &mut key.1);
    paths_over(graph, &key, extension_depth)
}

/// Fill `missing` with the tables of `pq`'s referenced columns that
/// `current` lacks, sorted and distinct.
fn collect_terminals(pq: &PartialQuery, current: Option<&JoinTree>, missing: &mut Vec<TableId>) {
    missing.clear();
    pq.for_each_referenced_column(|c| {
        if !current.is_some_and(|cur| cur.contains(c.table)) {
            missing.push(c.table);
        }
    });
    missing.sort();
    missing.dedup();
}

/// The candidate join paths for a current join path and the tables it lacks:
/// all of [`construct_join_paths`] past reading the partial query.
fn paths_over(graph: &JoinGraph, (current, missing): &MemoKey, depth: usize) -> Vec<JoinTree> {
    // No base when the terminals are disconnected: no valid join path exists
    // for this partial query.
    let mut all: Vec<JoinTree> = match current {
        None if missing.is_empty() => {
            (0..graph.table_count()).map(|t| JoinTree::single(TableId(t))).collect()
        }
        None => graph.steiner_tree(missing).into_iter().collect(),
        Some(cur) => graph.grow(cur, missing).into_iter().collect(),
    };

    // Breadth-first FK extensions up to the requested depth; `all[level..]`
    // holds the trees the last hop added.
    let mut level = 0;
    for _ in 0..depth {
        let end = all.len();
        for i in level..end {
            for ext in graph.extensions(&all[i]) {
                if !all.contains(&ext) {
                    all.push(ext);
                }
            }
        }
        if all.len() == end {
            break;
        }
        level = end;
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
        JoinPathMemo { planner: self, built: HashMap::new(), key: (None, Vec::new()) }
    }
}

/// A request's join path and the referenced tables it lacks.
type MemoKey = (Option<JoinTree>, Vec<TableId>);

/// The path lists one round's children have asked for, keyed by the join
/// path a child carries and the tables it lacks.
///
/// A candidate list is a pure function of that key, the schema and the
/// extension depth — see the tie rule in the module docs — and the children
/// of a round come from one or a few parents and mostly share it; so a round
/// builds each list once and its children copy reference-counted trees out
/// of it. The memo is as short-lived as the round: nothing is kept between
/// rounds, so no lock is taken, and a hit allocates nothing.
pub(crate) struct JoinPathMemo<'a> {
    planner: &'a JoinPlanner,
    built: HashMap<MemoKey, Rc<[JoinTree]>>,
    /// The key of the request at hand, refilled in place and cloned only
    /// when its list has to be built.
    key: MemoKey,
}

impl JoinPathMemo<'_> {
    /// The join paths a freshly generated child has to be split over: `None`
    /// when it needs none (its projection is still open, or the join path it
    /// carries covers every table it references), otherwise
    /// [`construct_join_paths`] for `pq` with its own join path as `current`
    /// — empty when they cannot be joined, which drops the child.
    pub(crate) fn paths(&mut self, pq: &PartialQuery) -> Option<Rc<[JoinTree]>> {
        if pq.select.is_hole() {
            return None;
        }
        collect_terminals(pq, pq.join.as_ref(), &mut self.key.1);
        if pq.join.is_some() && self.key.1.is_empty() {
            return None;
        }
        self.key.0.clone_from(&pq.join);
        if let Some(paths) = self.built.get(&self.key) {
            return Some(Rc::clone(paths));
        }
        let JoinPlanner { graph, extension_depth } = self.planner;
        let paths: Rc<[JoinTree]> = paths_over(graph, &self.key, *extension_depth).into();
        self.built.insert(self.key.clone(), Rc::clone(&paths));
        Some(paths)
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
    fn current_join_is_kept_and_grown_by_the_tables_it_lacks() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let starring = db.schema().table_id("starring").unwrap();
        let current = JoinTree::single(starring);
        let pq = pq_with_select(&db, &[("actor", "name")]);
        let paths = construct_join_paths(&db, &graph, &pq, Some(&current), 0);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].contains(starring));
        assert!(paths[0].contains(db.schema().table_id("actor").unwrap()));
        // A current join that already covers the query is the base itself.
        let covered = construct_join_paths(&db, &graph, &pq, Some(&paths[0]), 0);
        assert_eq!(covered, paths);
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
    fn memo_answers_as_construct_join_paths_and_builds_each_key_once() {
        let db = movie_db();
        let graph = JoinGraph::new(db.schema());
        let starring = db.schema().table_id("starring").unwrap();
        let mut carrying = pq_with_select(&db, &[("actor", "name")]);
        carrying.join = Some(JoinTree::single(starring));
        let mut count_star = PartialQuery::empty();
        count_star.select =
            Slot::Filled(vec![PartialSelectItem::with_column(SelectColumn::Star)].into());
        let queries = [
            count_star,
            pq_with_select(&db, &[("actor", "name")]),
            pq_with_select(&db, &[("actor", "name"), ("movies", "name")]),
            carrying,
        ];
        for depth in 0..3 {
            let planner = JoinPlanner::new(&db, depth);
            let mut memo = planner.memo();
            // An open projection needs no join path yet: the memo has no
            // list for it, and `construct_join_paths` gives every table, as
            // for a projection that references none.
            let empty = PartialQuery::empty();
            assert_eq!(memo.paths(&empty), None);
            let direct = construct_join_paths(&db, &graph, &empty, None, depth);
            assert_eq!(direct, construct_join_paths(&db, &graph, &queries[0], None, depth));
            for pq in &queries {
                let direct = construct_join_paths(&db, &graph, pq, pq.join.as_ref(), depth);
                let first = memo.paths(pq).expect("the query needs a join path");
                assert_eq!(&*first, direct.as_slice(), "depth {depth}: {pq:?}");
                // The second request is the memo's own list, not a rebuild.
                assert!(Rc::ptr_eq(&first, &memo.paths(pq).unwrap()));
            }
            // Same tables by another route: `actor` and `starring`, once as
            // `starring`'s join path grown by `actor` and once as referenced
            // columns. Two keys, equal lists.
            let by_columns = pq_with_select(&db, &[("actor", "name"), ("starring", "aid")]);
            assert_eq!(memo.paths(&queries[3]), memo.paths(&by_columns));
            assert_eq!(memo.built.len(), 5);
            // A carried join path that covers every referenced table needs
            // nothing more.
            let joined = memo.paths(&by_columns).unwrap()[0].clone();
            assert_eq!(memo.paths(&PartialQuery { join: Some(joined), ..by_columns }), None);
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
                let first = memo.paths(pq).expect("the query needs a join path");
                assert_eq!(&*first, direct.as_slice(), "depth {depth}: {pq:?}");
                assert!(Rc::ptr_eq(&first, &memo.paths(pq).unwrap()));
                assert!(first[0].is_connected());
                assert_eq!(first[0].join_length(), first[0].tables.len() - 1);
            }
            assert!(Rc::ptr_eq(&memo.paths(&all).unwrap(), &memo.paths(&reordered).unwrap()));
            assert_eq!(memo.built.len(), 2);
        }
    }
}
