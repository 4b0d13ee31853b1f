//! Schema join graph and Steiner-tree join path construction.
//!
//! Duoquest's progressive join path construction (paper Algorithm 2) grows a
//! Steiner tree over the graph whose nodes are tables and whose edges are
//! foreign-key → primary-key relationships, with unit edge weights — from a
//! single table, or from the join path a partial query already carries, whose
//! edges it keeps ([`JoinGraph::grow`]) — and then extends it with additional
//! single-hop joins to cover queries that mention extra tables only in the
//! `FROM` clause. What is a function of the schema alone — a shortest path
//! between every two tables — is computed once, when the graph is built;
//! paths and trees are read off that closure in one fixed order, so they
//! depend on the schema, the tree grown and the tables asked for, nothing
//! else.

use crate::error::{DbError, DbResult};
use crate::schema::{ForeignKey, Schema, TableId};
use std::sync::Arc;

/// An undirected join edge between two tables, realised by a foreign key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    /// The foreign key realising the edge (`from` is the FK side, `to` the PK side).
    pub fk: ForeignKey,
}

impl JoinEdge {
    /// The two tables connected by this edge.
    pub fn tables(&self) -> (TableId, TableId) {
        (self.fk.from.table, self.fk.to.table)
    }

    /// The table on the other side of `t`, if `t` is an endpoint.
    pub fn other(&self, t: TableId) -> Option<TableId> {
        let (a, b) = self.tables();
        if t == a {
            Some(b)
        } else if t == b {
            Some(a)
        } else {
            None
        }
    }
}

/// A connected join tree: the set of tables in the `FROM` clause and the FK
/// edges joining them. A single-table "tree" has no edges.
///
/// Both lists are shared slices: a tree is built once and then copied into
/// every partial query, probe and candidate that joins along it, so a clone
/// is two reference counts, not two allocations.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct JoinTree {
    /// Tables in the FROM clause, sorted for canonical comparison.
    pub tables: Arc<[TableId]>,
    /// FK join edges, sorted for canonical comparison.
    pub edges: Arc<[JoinEdge]>,
}

impl JoinTree {
    /// A join tree consisting of a single table.
    pub fn single(table: TableId) -> Self {
        JoinTree { tables: Arc::new([table]), edges: Arc::default() }
    }

    /// Construct and canonicalize a join tree.
    pub fn new(mut tables: Vec<TableId>, mut edges: Vec<JoinEdge>) -> Self {
        tables.sort();
        tables.dedup();
        edges.sort_by_key(|e| (e.fk.from, e.fk.to));
        edges.dedup();
        JoinTree { tables: tables.into(), edges: edges.into() }
    }

    /// Number of joins (edges). Used as the secondary tie-breaker during
    /// enumeration: shorter join paths are preferred (paper §3.3.4).
    pub fn join_length(&self) -> usize {
        self.edges.len()
    }

    /// Whether the tree contains the given table.
    pub fn contains(&self, table: TableId) -> bool {
        self.tables.contains(&table)
    }

    /// Whether every table is reachable from the first through the edges.
    pub fn is_connected(&self) -> bool {
        if self.tables.len() <= 1 {
            return true;
        }
        let mut reached = vec![self.tables[0]];
        let mut next = 0;
        while let Some(&t) = reached.get(next) {
            next += 1;
            for o in self.edges.iter().filter_map(|e| e.other(t)) {
                if self.tables.contains(&o) && !reached.contains(&o) {
                    reached.push(o);
                }
            }
        }
        reached.len() == self.tables.len()
    }
}

/// How a breadth-first search from a root table first reached another table.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// Edges on the path from the root.
    hops: u32,
    /// The table the search came from, and which of that table's incident
    /// edges it took.
    parent: u32,
    via: u32,
}

/// The schema join graph: tables as nodes, FK→PK relationships as edges, and
/// the closure of shortest paths over them.
///
/// `new` runs one breadth-first search per table, visiting a table's edges in
/// foreign-key declaration order, and keeps per ordered pair `(root, target)`
/// the hop count and the last edge of the search tree: 16 bytes a pair, 3.5 KB
/// for the 15 tables of MAS — small enough to build per run.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// Edges incident to each table, in foreign-key declaration order.
    adjacency: Vec<Vec<JoinEdge>>,
    /// `closure[root][target]`; `None` where the search never got there.
    closure: Vec<Vec<Option<Hop>>>,
}

impl JoinGraph {
    /// Build the join graph of a schema and its shortest-path closure.
    pub fn new(schema: &Schema) -> Self {
        let n = schema.table_count();
        let narrow = |i: usize| u32::try_from(i).expect("a schema's tables and keys fit in u32");
        let mut adjacency: Vec<Vec<JoinEdge>> = vec![Vec::new(); n];
        for fk in &schema.foreign_keys {
            let edge = JoinEdge { fk: *fk };
            adjacency[fk.from.table.0].push(edge);
            adjacency[fk.to.table.0].push(edge);
        }
        let mut closure = vec![vec![None; n]; n];
        let mut queue: Vec<(usize, u32)> = Vec::with_capacity(n);
        for (root, reached) in closure.iter_mut().enumerate() {
            reached[root] = Some(Hop { hops: 0, parent: narrow(root), via: 0 });
            queue.clear();
            queue.push((root, 0));
            let mut next = 0;
            while let Some(&(t, hops)) = queue.get(next) {
                next += 1;
                for (via, edge) in adjacency[t].iter().enumerate() {
                    let o = edge.other(TableId(t)).expect("edge adjacency is consistent").0;
                    if reached[o].is_none() {
                        let (parent, via) = (narrow(t), narrow(via));
                        reached[o] = Some(Hop { hops: hops + 1, parent, via });
                        queue.push((o, hops + 1));
                    }
                }
            }
        }
        JoinGraph { adjacency, closure }
    }

    /// Edges incident to a table, none for a table the schema does not have.
    pub fn edges_of(&self, table: TableId) -> &[JoinEdge] {
        self.adjacency.get(table.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tables in the graph.
    pub fn table_count(&self) -> usize {
        self.adjacency.len()
    }

    /// The closure entry for `to` in the search rooted at `from`: `None` if
    /// `to` is unreachable or either table is not in the schema.
    fn hop(&self, from: TableId, to: TableId) -> Option<Hop> {
        *self.closure.get(from.0)?.get(to.0)?
    }

    /// Shortest path between two tables over unit-weight edges: the edges
    /// along it, or `None` if unreachable. Among equally short paths it is
    /// the one a breadth-first search from `from` over [`JoinGraph::edges_of`]
    /// finds first.
    pub fn shortest_path(&self, from: TableId, to: TableId) -> Option<Vec<JoinEdge>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut path = Vec::with_capacity(self.hop(from, to)?.hops as usize);
        let mut cur = to;
        while cur != from {
            let hop = self.hop(from, cur).expect("a search tree leads back to its root");
            cur = TableId(hop.parent as usize);
            path.push(self.adjacency[cur.0][hop.via as usize]);
        }
        path.reverse();
        Some(path)
    }

    /// Approximate minimum Steiner tree over the given terminal tables using the
    /// classic metric-closure construction (shortest paths + greedy merge).
    /// With unit edge weights and the small schemas of the workloads this gives
    /// the same trees as the paper's formulation (which follows \[2\]).
    ///
    /// It is a grow from the lowest terminal ([`JoinGraph::grow`]): the tree
    /// starts as the terminal with the lowest id and takes in the others
    /// under `grow`'s tie rule. The result is therefore a function of the
    /// schema and the *set* of terminals — not of their order or
    /// multiplicity in `terminals`, nor of the process or the call.
    pub fn steiner_tree(&self, terminals: &[TableId]) -> DbResult<JoinTree> {
        let Some(&lowest) = terminals.iter().min() else {
            return Err(DbError::InvalidQuery(
                "steiner tree requires at least one terminal".into(),
            ));
        };
        self.grow(&JoinTree::single(lowest), terminals)
    }

    /// `base` with every table of `new` it lacks attached: every table and
    /// edge of `base` is kept, so a join path never changes meaning as it
    /// gains tables (paper Algorithm 2).
    ///
    /// The tree repeatedly takes in the missing terminal closest to it, along
    /// [`JoinGraph::shortest_path`] from the tree table it is closest to.
    /// Among equally close pairs the terminal with the lower id wins, then
    /// the table that joined the tree earlier — `base`'s tables joining in id
    /// order; an empty `base` grows as [`JoinGraph::steiner_tree`] over `new`.
    /// `new`'s order and multiplicity do not matter; a table of `new` that
    /// cannot be reached from `base` is a
    /// [`DisconnectedJoin`](DbError::DisconnectedJoin).
    pub fn grow(&self, base: &JoinTree, new: &[TableId]) -> DbResult<JoinTree> {
        let mut remaining: Vec<TableId> =
            new.iter().filter(|t| !base.contains(**t)).copied().collect();
        if remaining.is_empty() {
            return Ok(base.clone());
        }
        if base.tables.is_empty() {
            return self.steiner_tree(&remaining);
        }
        remaining.sort();
        remaining.dedup();
        let mut tables = base.tables.to_vec();
        let mut edges = base.edges.to_vec();
        while !remaining.is_empty() {
            // The tie rule: least (distance, terminal id, seniority in the tree).
            let pairs = remaining
                .iter()
                .enumerate()
                .flat_map(|(ri, r)| tables.iter().enumerate().map(move |(ti, t)| (ri, *r, ti, *t)));
            let best =
                pairs.filter_map(|(ri, r, ti, t)| Some((self.hop(t, r)?.hops, ri, ti))).min();
            // Nothing left is reachable from the tree.
            let Some((_, ri, ti)) = best else {
                return Err(DbError::DisconnectedJoin(format!(
                    "table {:?} is not reachable from table {:?}",
                    remaining[0], tables[0]
                )));
            };
            let mut cur = tables[ti];
            let path = self.shortest_path(cur, remaining.remove(ri));
            // No table along it is in the tree yet: it would have been closer.
            for e in path.expect("the closure found the terminal reachable") {
                cur = e.other(cur).expect("a path is a walk");
                tables.push(cur);
                edges.push(e);
            }
        }
        Ok(JoinTree::new(tables, edges))
    }

    /// One-hop extensions of a join tree: for every FK edge with exactly one
    /// endpoint inside the tree, produce a new tree including the other table.
    /// This implements lines 10–12 of Algorithm 2.
    pub fn extensions(&self, tree: &JoinTree) -> Vec<JoinTree> {
        let mut out = Vec::new();
        for t in tree.tables.iter() {
            for e in self.edges_of(*t) {
                let o = e.other(*t).expect("consistent adjacency");
                if !tree.contains(o) {
                    let mut tables = tree.tables.to_vec();
                    tables.push(o);
                    let mut edges = tree.edges.to_vec();
                    edges.push(*e);
                    let ext = JoinTree::new(tables, edges);
                    if !out.contains(&ext) {
                        out.push(ext);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableDef};

    /// actor -- starring -- movies, plus an isolated table.
    fn schema() -> Schema {
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
        s.add_table(TableDef::new("isolated", vec![ColumnDef::text("x")], None));
        s.add_foreign_key("starring", "aid", "actor", "aid").unwrap();
        s.add_foreign_key("starring", "mid", "movies", "mid").unwrap();
        s
    }

    #[test]
    fn shortest_path_through_bridge_table() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let actor = s.table_id("actor").unwrap();
        let movies = s.table_id("movies").unwrap();
        let path = g.shortest_path(actor, movies).unwrap();
        assert_eq!(path.len(), 2);
        assert_eq!(g.shortest_path(actor, actor).unwrap().len(), 0);
        assert!(g.shortest_path(actor, s.table_id("isolated").unwrap()).is_none());
    }

    #[test]
    fn steiner_single_terminal() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let actor = s.table_id("actor").unwrap();
        let t = g.steiner_tree(&[actor]).unwrap();
        assert_eq!(*t.tables, [actor]);
        assert_eq!(t.join_length(), 0);
        assert!(t.is_connected());
    }

    #[test]
    fn steiner_connects_actor_and_movies_via_starring() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let actor = s.table_id("actor").unwrap();
        let movies = s.table_id("movies").unwrap();
        let starring = s.table_id("starring").unwrap();
        let t = g.steiner_tree(&[actor, movies]).unwrap();
        assert!(t.contains(starring));
        assert_eq!(t.join_length(), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn steiner_disconnected_errors() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let actor = s.table_id("actor").unwrap();
        let iso = s.table_id("isolated").unwrap();
        assert!(matches!(g.steiner_tree(&[actor, iso]), Err(DbError::DisconnectedJoin(_))));
    }

    #[test]
    fn extensions_add_one_table() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let actor = s.table_id("actor").unwrap();
        let base = JoinTree::single(actor);
        let exts = g.extensions(&base);
        assert_eq!(exts.len(), 1);
        assert!(exts[0].contains(s.table_id("starring").unwrap()));
        assert_eq!(exts[0].join_length(), 1);
        // Extending once more reaches movies.
        let exts2 = g.extensions(&exts[0]);
        assert!(exts2.iter().any(|t| t.contains(s.table_id("movies").unwrap())));
    }

    #[test]
    fn join_tree_connectivity_detection() {
        let s = schema();
        let actor = s.table_id("actor").unwrap();
        let movies = s.table_id("movies").unwrap();
        let broken = JoinTree::new(vec![actor, movies], vec![]);
        assert!(!broken.is_connected());
    }

    #[test]
    fn join_tree_canonicalization_dedups() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let actor = s.table_id("actor").unwrap();
        let starring = s.table_id("starring").unwrap();
        let e = g.edges_of(actor)[0];
        let t = JoinTree::new(vec![starring, actor, actor], vec![e, e]);
        assert_eq!(t.tables.len(), 2);
        assert_eq!(t.edges.len(), 1);
    }

    /// The tie rule of [`JoinGraph::steiner_tree`], by example.
    #[test]
    fn steiner_ties_go_to_the_documented_scan_order() {
        // A triangle: b -> a, c -> a, c -> b. Over {a, b, c} the tree starts
        // at `a`; `b` and `c` are both one hop away and `b` has the lower id,
        // so `b` joins first; then `c` is one hop from `a` and from `b`, and
        // `a` joined the tree earlier: {b -> a, c -> a}, never {.., c -> b}.
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
        let [a, b, c] = [TableId(0), TableId(1), TableId(2)];
        let g = JoinGraph::new(&s);
        let tree = g.steiner_tree(&[c, b, a, c]).unwrap();
        let joined: Vec<_> = tree.edges.iter().map(JoinEdge::tables).collect();
        assert_eq!(joined, [(b, a), (c, a)]);
        assert_eq!(tree, JoinGraph::new(&s).steiner_tree(&[a, b, c]).unwrap());

        // Two foreign keys between one pair of tables (MAS's `cite`): the
        // path runs through the one declared first.
        let mut s = Schema::new("cite");
        s.add_table(TableDef::new("paper", vec![ColumnDef::number("id")], Some(0)));
        s.add_table(TableDef::new(
            "cite",
            vec![ColumnDef::number("citing"), ColumnDef::number("cited")],
            None,
        ));
        s.add_foreign_key("cite", "cited", "paper", "id").unwrap();
        s.add_foreign_key("cite", "citing", "paper", "id").unwrap();
        let tree = JoinGraph::new(&s).steiner_tree(&[TableId(1), TableId(0)]).unwrap();
        assert_eq!(tree.edges.len(), 1);
        assert_eq!(s.column(tree.edges[0].fk.from).name, "cited");
    }

    #[test]
    fn grow_keeps_the_edges_of_its_base() {
        // paper -- cite over two keys, and venue <- paper: a tree joined
        // through the key declared second keeps it as it gains `venue`.
        let mut s = Schema::new("cite");
        s.add_table(TableDef::new(
            "paper",
            vec![ColumnDef::number("id"), ColumnDef::number("venue")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "cite",
            vec![ColumnDef::number("citing"), ColumnDef::number("cited")],
            None,
        ));
        s.add_table(TableDef::new("venue", vec![ColumnDef::number("id")], Some(0)));
        s.add_foreign_key("cite", "citing", "paper", "id").unwrap();
        s.add_foreign_key("cite", "cited", "paper", "id").unwrap();
        s.add_foreign_key("paper", "venue", "venue", "id").unwrap();
        let [paper, cite, venue] = [TableId(0), TableId(1), TableId(2)];
        let g = JoinGraph::new(&s);
        let cited = g.edges_of(cite)[1];
        let base = JoinTree::new(vec![paper, cite], vec![cited]);
        let grown = g.grow(&base, &[venue, paper]).unwrap();
        assert_eq!(*grown.tables, [paper, cite, venue]);
        assert!(grown.edges.contains(&cited) && grown.is_connected());
        // The set alone builds the tree through the key declared first.
        let rebuilt = g.steiner_tree(&grown.tables).unwrap();
        assert!(!rebuilt.edges.contains(&cited));
        assert_eq!(g.grow(&base, &[cite]).unwrap(), base);
        assert_eq!(g.grow(&JoinTree::default(), &[venue, cite]).unwrap(), rebuilt);
    }

    #[test]
    fn tables_the_schema_does_not_have_are_answered_not_indexed() {
        let s = schema();
        let g = JoinGraph::new(&s);
        let (actor, ghost) = (s.table_id("actor").unwrap(), TableId(s.table_count() + 3));
        assert!(g.edges_of(ghost).is_empty());
        assert_eq!(g.shortest_path(actor, ghost), None);
        assert_eq!(g.shortest_path(ghost, actor), None);
        assert!(matches!(g.steiner_tree(&[actor, ghost]), Err(DbError::DisconnectedJoin(_))));
        assert!(g.extensions(&JoinTree::single(ghost)).is_empty());
        let empty = JoinGraph::new(&Schema::new("empty"));
        assert_eq!(empty.table_count(), 0);
        assert_eq!(empty.shortest_path(TableId(0), TableId(1)), None);
        assert!(matches!(empty.steiner_tree(&[]), Err(DbError::InvalidQuery(_))));
    }
}
