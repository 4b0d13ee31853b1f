//! `JoinGraph` answers shortest paths from a closure it computes once per
//! schema and grows Steiner trees under one fixed tie rule. This suite holds
//! the closure against the per-call search it replaced and the trees against
//! their contract — over MAS, the benchmark's Spider schemas and seeded
//! random graphs with cycles, two foreign keys between one pair of tables
//! (MAS's `cite`), self-references, isolated tables and no tables at all.
//!
//! It lives here, not in `join_graph.rs`: `duoquest-db` cannot see the
//! workload schemas.

use duoquest::db::{
    ColumnDef, ColumnId, DbError, ForeignKey, JoinEdge, JoinGraph, JoinTree, Schema, TableDef,
    TableId,
};
use duoquest::workloads::{mas::mas_schema, spider};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};

/// The reference: the breadth-first search `JoinGraph::shortest_path` ran on
/// every call before the closure, kept as it was (maps, sets and all).
fn reference_path(g: &JoinGraph, from: TableId, to: TableId) -> Option<Vec<JoinEdge>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut prev: HashMap<TableId, (TableId, JoinEdge)> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut seen = HashSet::new();
    queue.push_back(from);
    seen.insert(from);
    while let Some(t) = queue.pop_front() {
        for e in g.edges_of(t) {
            let o = e.other(t).expect("edge adjacency is consistent");
            if seen.insert(o) {
                prev.insert(o, (t, *e));
                if o == to {
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

/// What the graphs and terminal sets of a sweep exercised.
#[derive(Debug, Default)]
struct Seen {
    cyclic_graphs: usize,
    double_keys: usize,
    self_references: usize,
    isolated_tables: usize,
    trees: usize,
    trees_on_forests: usize,
    disconnected_sets: usize,
}

/// A schema of `n` tables (a key and four number columns each). `keys: None`
/// grows a forest — most tables reference, or are referenced by, one earlier
/// table, the rest stay isolated; `Some(m)` draws `m` foreign keys between
/// random tables, so cycles, repeated pairs and self-references all happen.
fn random_schema(rng: &mut StdRng, n: usize, keys: Option<usize>, seen: &mut Seen) -> Schema {
    let mut s = Schema::new("random");
    for t in 0..n {
        let mut columns = vec![ColumnDef::number("id")];
        columns.extend((0..4).map(|f| ColumnDef::number(format!("f{f}"))));
        s.add_table(TableDef::new(format!("t{t}"), columns, Some(0)));
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    match keys {
        None => {
            for t in 1..n {
                if rng.gen_bool(0.8) {
                    let u = rng.gen_range(0..t);
                    pairs.push(if rng.gen_bool(0.5) { (t, u) } else { (u, t) });
                }
            }
        }
        Some(m) => pairs.extend((0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))),
    }
    for (from, to) in pairs {
        let fk =
            ForeignKey { from: ColumnId::new(from, rng.gen_range(1..5)), to: ColumnId::new(to, 0) };
        seen.self_references += usize::from(from == to);
        seen.double_keys += usize::from(
            s.foreign_keys
                .iter()
                .any(|k| (k.from.table, k.to.table) == (fk.from.table, fk.to.table)),
        );
        s.foreign_keys.push(fk);
    }
    s.validate().expect("generated schemas are valid");
    s
}

/// Every check of the suite on one schema; `sets` random terminal sets.
fn check_schema(schema: &Schema, rng: &mut StdRng, sets: usize, seen: &mut Seen) {
    let n = schema.table_count();
    let g = JoinGraph::new(schema);
    assert_eq!(g.table_count(), n);
    // Two tables past the schema ride along everywhere.
    let ids: Vec<TableId> = (0..n + 2).map(TableId).collect();

    // Shortest paths: the reference's, edge for edge, and a walk.
    for &a in &ids {
        for &b in &ids {
            let path = g.shortest_path(a, b);
            assert_eq!(path, reference_path(&g, a, b), "{}: {a:?} -> {b:?}", schema.name);
            let reverse = g.shortest_path(b, a);
            assert_eq!(path.as_ref().map(Vec::len), reverse.as_ref().map(Vec::len));
            if let Some(path) = path {
                let end = path.iter().fold(a, |at, e| e.other(at).expect("a path is a walk"));
                assert_eq!(end, b);
            } else {
                assert!(a != b);
            }
        }
    }
    for past in &ids[n..] {
        assert!(g.edges_of(*past).is_empty());
        assert!(g.extensions(&JoinTree::single(*past)).is_empty());
    }
    let reachable = |a: TableId, b: TableId| reference_path(&g, a, b).is_some();
    let components = (0..n).filter(|&t| (0..t).all(|u| !reachable(TableId(u), TableId(t)))).count();
    let forest = schema.foreign_keys.len() + components == n;
    seen.cyclic_graphs += usize::from(!forest);
    seen.isolated_tables += (0..n).filter(|&t| g.edges_of(TableId(t)).is_empty()).count();

    // Steiner trees over random terminal sets, now and then with a table
    // the schema does not have.
    assert!(matches!(g.steiner_tree(&[]), Err(DbError::InvalidQuery(_))));
    for _ in 0..sets {
        let mut pool = ids.clone();
        pool.shuffle(rng);
        pool.truncate(rng.gen_range(1..=5.min(ids.len())));
        if n > 0 && rng.gen_bool(0.9) {
            pool.retain(|t| t.0 < n);
        }
        let Some(&lowest) = pool.iter().min() else { continue };
        let terminals = pool;
        let result = g.steiner_tree(&terminals);

        // Same set, other order and multiplicity, another graph: same answer.
        let mut again = terminals.clone();
        again.extend(terminals.iter().filter(|_| rng.gen_bool(0.5)).copied().collect::<Vec<_>>());
        again.shuffle(rng);
        let other = JoinGraph::new(schema).steiner_tree(&again);
        assert_eq!(format!("{result:?}"), format!("{other:?}"), "{terminals:?} vs {again:?}");

        let joinable = terminals.iter().all(|&t| reachable(lowest, t));
        match result {
            Ok(tree) => {
                assert!(joinable, "{terminals:?} cannot be joined, got {tree:?}");
                assert!(terminals.iter().all(|&t| tree.contains(t)));
                assert!(tree.is_connected());
                assert_eq!(tree.join_length(), tree.tables.len() - 1);
                if let [a, b] = terminals[..] {
                    let path = reference_path(&g, a, b).expect("joinable");
                    assert_eq!(tree.join_length(), path.len());
                }
                seen.trees += 1;
                if forest {
                    // One path between any two tables: the tree is their union.
                    let mut tables = terminals.clone();
                    let mut edges = Vec::new();
                    for &t in &terminals {
                        for e in reference_path(&g, lowest, t).expect("joinable") {
                            tables.extend([e.tables().0, e.tables().1]);
                            edges.push(e);
                        }
                    }
                    assert_eq!(tree, JoinTree::new(tables, edges), "{terminals:?}");
                    seen.trees_on_forests += usize::from(terminals.len() > 2);
                }
            }
            Err(DbError::DisconnectedJoin(message)) => {
                assert!(!joinable, "{terminals:?} can be joined: {message}");
                // "table TableId(x) is not reachable from table TableId(y)":
                // both are terminals and there is no path between them.
                let named: Vec<TableId> = message
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|digits| digits.parse().ok().map(TableId))
                    .collect();
                assert_eq!(named.len(), 2, "{message}");
                assert!(named.iter().all(|t| terminals.contains(t)), "{message}");
                assert!(!reachable(named[1], named[0]), "{message}");
                seen.disconnected_sets += 1;
            }
            Err(other) => panic!("{terminals:?}: {other}"),
        }
    }
}

#[test]
fn closure_and_trees_hold_on_mas_and_the_spider_schemas() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut seen = Seen::default();
    check_schema(&mas_schema(), &mut rng, 600, &mut seen);
    assert_eq!(seen.cyclic_graphs, 1, "MAS is the workload whose join graph has cycles");
    let dataset = spider::generate("dev", 6, 60, 63, 25, 42);
    for db in &dataset.databases {
        check_schema(db.schema(), &mut rng, 100, &mut seen);
    }
    assert_eq!(seen.cyclic_graphs, 1, "every Spider schema is a forest");
    assert!(seen.trees >= 600 && seen.trees_on_forests >= 50, "{seen:?}");
}

#[test]
fn closure_and_trees_hold_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut seen = Seen::default();
    check_schema(&Schema::new("empty"), &mut rng, 5, &mut seen);
    for case in 0..500 {
        let n = rng.gen_range(1..=10);
        let keys = (case % 3 > 0).then(|| rng.gen_range(0..=2 * n));
        let schema = random_schema(&mut rng, n, keys, &mut seen);
        check_schema(&schema, &mut rng, 25, &mut seen);
    }
    assert!(seen.cyclic_graphs >= 200, "{seen:?}");
    for (what, count) in [
        ("double keys", seen.double_keys),
        ("self-references", seen.self_references),
        ("isolated tables", seen.isolated_tables),
        ("trees", seen.trees),
        ("trees over three or more tables of a forest", seen.trees_on_forests),
        ("disconnected sets", seen.disconnected_sets),
    ] {
        assert!(count >= 50, "only {count} {what}: {seen:?}");
    }
}
