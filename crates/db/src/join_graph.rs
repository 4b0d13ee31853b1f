//! Schema join graph and Steiner-tree join path construction.
//!
//! Duoquest's progressive join path construction (paper Algorithm 2) computes a
//! Steiner tree over the graph whose nodes are tables and whose edges are
//! foreign-key → primary-key relationships, with unit edge weights, and then
//! extends it with additional single-hop joins to cover queries that mention
//! extra tables only in the `FROM` clause.

use crate::error::{DbError, DbResult};
use crate::schema::{ForeignKey, Schema, TableId};
use std::collections::{HashMap, HashSet, VecDeque};
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
        let mut seen: HashSet<TableId> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(self.tables[0]);
        seen.insert(self.tables[0]);
        while let Some(t) = queue.pop_front() {
            for e in self.edges.iter() {
                if let Some(o) = e.other(t) {
                    if self.tables.contains(&o) && seen.insert(o) {
                        queue.push_back(o);
                    }
                }
            }
        }
        seen.len() == self.tables.len()
    }
}

/// The schema join graph: tables as nodes, FK→PK relationships as edges.
#[derive(Debug, Clone)]
pub struct JoinGraph {
    adjacency: HashMap<TableId, Vec<JoinEdge>>,
    table_count: usize,
    forest: bool,
}

impl JoinGraph {
    /// Build the join graph of a schema.
    pub fn new(schema: &Schema) -> Self {
        let mut adjacency: HashMap<TableId, Vec<JoinEdge>> = HashMap::new();
        for t in 0..schema.table_count() {
            adjacency.entry(TableId(t)).or_default();
        }
        // Union-find over the tables: an edge between two tables that are
        // already connected closes a cycle.
        let mut root: Vec<usize> = (0..schema.table_count()).collect();
        let find = |root: &mut Vec<usize>, mut t: usize| {
            while root[t] != t {
                root[t] = root[root[t]];
                t = root[t];
            }
            t
        };
        let mut forest = true;
        for fk in &schema.foreign_keys {
            let edge = JoinEdge { fk: *fk };
            adjacency.entry(fk.from.table).or_default().push(edge);
            adjacency.entry(fk.to.table).or_default().push(edge);
            let (a, b) = (find(&mut root, fk.from.table.0), find(&mut root, fk.to.table.0));
            forest &= a != b;
            root[a] = b;
        }
        JoinGraph { adjacency, table_count: schema.table_count(), forest }
    }

    /// Whether the graph has no cycle — a self-reference and two foreign keys
    /// between the same pair of tables count as cycles. Two tables of a
    /// forest are connected by at most one path, so the Steiner tree over a
    /// set of them is the union of those paths: one tree, whatever order it
    /// is assembled in. With a cycle, [`JoinGraph::steiner_tree`] can find a
    /// terminal equally close to two tables of the tree built so far, and
    /// which one it attaches to then follows hash iteration order.
    pub fn is_forest(&self) -> bool {
        self.forest
    }

    /// Edges incident to a table.
    pub fn edges_of(&self, table: TableId) -> &[JoinEdge] {
        self.adjacency.get(&table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of tables in the graph.
    pub fn table_count(&self) -> usize {
        self.table_count
    }

    /// Shortest path between two tables (BFS over unit-weight edges).
    /// Returns the edges along the path, or `None` if unreachable.
    pub fn shortest_path(&self, from: TableId, to: TableId) -> Option<Vec<JoinEdge>> {
        if from == to {
            return Some(Vec::new());
        }
        let mut prev: HashMap<TableId, (TableId, JoinEdge)> = HashMap::new();
        let mut queue = VecDeque::new();
        let mut seen = HashSet::new();
        queue.push_back(from);
        seen.insert(from);
        while let Some(t) = queue.pop_front() {
            for e in self.edges_of(t) {
                let o = e.other(t).expect("edge adjacency is consistent");
                if seen.insert(o) {
                    prev.insert(o, (t, *e));
                    if o == to {
                        // Reconstruct the path.
                        let mut path = Vec::new();
                        let mut cur = to;
                        while cur != from {
                            let (p, edge) = prev[&cur];
                            path.push(edge);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(o);
                }
            }
        }
        None
    }

    /// Approximate minimum Steiner tree over the given terminal tables using the
    /// classic metric-closure construction (shortest paths + greedy merge).
    /// With unit edge weights and the small schemas of the workloads this gives
    /// the same trees as the paper's formulation (which follows \[2\]).
    pub fn steiner_tree(&self, terminals: &[TableId]) -> DbResult<JoinTree> {
        let mut terms: Vec<TableId> = terminals.to_vec();
        terms.sort();
        terms.dedup();
        match terms.len() {
            0 => Err(DbError::InvalidQuery("steiner tree requires at least one terminal".into())),
            1 => Ok(JoinTree::single(terms[0])),
            _ => {
                let mut tables: HashSet<TableId> = HashSet::new();
                let mut edges: HashSet<JoinEdge> = HashSet::new();
                tables.insert(terms[0]);
                let mut remaining: Vec<TableId> = terms[1..].to_vec();
                // Greedily attach the closest remaining terminal to the tree built so far.
                while !remaining.is_empty() {
                    let mut best: Option<(usize, usize, Vec<JoinEdge>)> = None;
                    for (ri, r) in remaining.iter().enumerate() {
                        for t in &tables {
                            if let Some(path) = self.shortest_path(*t, *r) {
                                if best
                                    .as_ref()
                                    .map(|(_, len, _)| path.len() < *len)
                                    .unwrap_or(true)
                                {
                                    best = Some((ri, path.len(), path));
                                }
                            }
                        }
                    }
                    let Some((ri, _, path)) = best else {
                        return Err(DbError::DisconnectedJoin(format!(
                            "table {:?} is not reachable from the rest of the query",
                            remaining[0]
                        )));
                    };
                    for e in path {
                        let (a, b) = e.tables();
                        tables.insert(a);
                        tables.insert(b);
                        edges.insert(e);
                    }
                    tables.insert(remaining[ri]);
                    remaining.remove(ri);
                }
                Ok(JoinTree::new(tables.into_iter().collect(), edges.into_iter().collect()))
            }
        }
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

    #[test]
    fn forests_are_told_from_graphs_with_cycles() {
        // actor - starring - movies and an isolated table: a forest.
        assert!(JoinGraph::new(&schema()).is_forest());

        // A triangle a - b, a - c, b - c.
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
        assert!(JoinGraph::new(&s).is_forest());
        s.add_foreign_key("c", "b", "b", "id").unwrap();
        assert!(!JoinGraph::new(&s).is_forest());

        // Two foreign keys between one pair of tables (MAS's `cite`).
        let mut s = Schema::new("cite");
        s.add_table(TableDef::new("paper", vec![ColumnDef::number("id")], Some(0)));
        s.add_table(TableDef::new(
            "cite",
            vec![ColumnDef::number("citing"), ColumnDef::number("cited")],
            None,
        ));
        s.add_foreign_key("cite", "citing", "paper", "id").unwrap();
        assert!(JoinGraph::new(&s).is_forest());
        s.add_foreign_key("cite", "cited", "paper", "id").unwrap();
        assert!(!JoinGraph::new(&s).is_forest());
    }
}
