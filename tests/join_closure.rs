//! `JoinGraph` answers shortest paths from a closure it computes once per
//! schema and grows join trees under one fixed tie rule (`grow`, of which
//! `steiner_tree` is the case of a single starting table). This suite holds
//! the closure against the per-call search it replaced and the trees against
//! their contract — over MAS, the benchmark's Spider schemas and seeded
//! random graphs with cycles, two foreign keys between one pair of tables
//! (MAS's `cite`), self-references, isolated tables and no tables at all —
//! and holds a grown MAS join path to the edge it was built on.
//!
//! It lives here, not in `join_graph.rs`: `duoquest-db` cannot see the
//! workload schemas.

use duoquest::core::joinpath::construct_join_paths;
use duoquest::db::{
    ColumnDef, ColumnId, Database, DbError, ForeignKey, JoinEdge, JoinGraph, JoinTree, Schema,
    TableDef, TableId,
};
use duoquest::sql::{PartialQuery, PartialSelectItem, SelectColumn, Slot};
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
    grown: usize,
    grown_past_a_rebuild: usize,
    grown_within_base: usize,
    disconnected_growths: usize,
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
        // A Steiner tree is the lowest terminal grown by the rest.
        let grown = g.grow(&JoinTree::single(lowest), &terminals);
        assert_eq!(format!("{result:?}"), format!("{grown:?}"), "{terminals:?}");

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

    // Grown trees: a base that is a Steiner tree taken a hop or two further
    // along random foreign keys — so it can hold an edge the tie rule would
    // not pick — and random tables to add, now and then one past the schema.
    for _ in 0..if n > 0 { sets } else { 0 } {
        let mut base = g.steiner_tree(&[TableId(rng.gen_range(0..n))]).expect("one table");
        for _ in 0..rng.gen_range(0..=3) {
            let Some(wider) = g.extensions(&base).choose(rng).cloned() else { break };
            base = wider;
        }
        let mut new = ids.clone();
        new.shuffle(rng);
        new.truncate(rng.gen_range(1..=4.min(ids.len())));
        if rng.gen_bool(0.9) {
            new.retain(|t| t.0 < n);
        }
        let result = g.grow(&base, &new);

        // New tables in another order and multiplicity, another graph: same answer.
        let mut again = new.clone();
        again.extend(new.iter().filter(|_| rng.gen_bool(0.5)).copied().collect::<Vec<_>>());
        again.shuffle(rng);
        let other = JoinGraph::new(schema).grow(&base, &again);
        assert_eq!(format!("{result:?}"), format!("{other:?}"), "{new:?} vs {again:?}");

        // Tables the base already has change nothing.
        let within: Vec<TableId> =
            base.tables.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        assert_eq!(g.grow(&base, &within).as_ref(), Ok(&base), "{within:?}");
        seen.grown_within_base += 1;

        let joinable = new.iter().all(|&t| reachable(base.tables[0], t));
        match result {
            Ok(tree) => {
                assert!(joinable, "{new:?} cannot be joined to {base:?}, got {tree:?}");
                assert!(base.tables.iter().chain(&new).all(|&t| tree.contains(t)));
                assert!(base.edges.iter().all(|e| tree.edges.contains(e)), "{base:?}: {tree:?}");
                assert!(tree.is_connected());
                assert_eq!(tree.join_length(), tree.tables.len() - 1);
                seen.grown += 1;
                let rebuilt = g.steiner_tree(&tree.tables).expect("a connected set");
                seen.grown_past_a_rebuild +=
                    usize::from(base.edges.iter().any(|e| !rebuilt.edges.contains(e)));
            }
            Err(DbError::DisconnectedJoin(message)) => {
                assert!(!joinable, "{new:?} can be joined to {base:?}: {message}");
                // A new table, then a table of the base it cannot reach.
                let named: Vec<TableId> = message
                    .split(|c: char| !c.is_ascii_digit())
                    .filter_map(|digits| digits.parse().ok().map(TableId))
                    .collect();
                assert_eq!(named.len(), 2, "{message}");
                assert!(new.contains(&named[0]) && base.contains(named[1]), "{message}");
                assert!(!reachable(named[1], named[0]), "{message}");
                seen.disconnected_growths += 1;
            }
            Err(other) => panic!("{base:?} + {new:?}: {other}"),
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
    println!("{seen:?}");
    assert!(seen.grown >= 600 && seen.grown_within_base >= 600, "{seen:?}");
    assert!(seen.grown_past_a_rebuild >= 1, "MAS's `cite.cited` outlives a rebuild: {seen:?}");
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
    println!("{seen:?}");
    assert!(seen.cyclic_graphs >= 200, "{seen:?}");
    for (what, count) in [
        ("double keys", seen.double_keys),
        ("self-references", seen.self_references),
        ("isolated tables", seen.isolated_tables),
        ("trees", seen.trees),
        ("trees over three or more tables of a forest", seen.trees_on_forests),
        ("disconnected sets", seen.disconnected_sets),
        ("grown trees", seen.grown),
        ("grown trees holding an edge a rebuild drops", seen.grown_past_a_rebuild),
        ("growths by tables the base has", seen.grown_within_base),
        ("disconnected growths", seen.disconnected_growths),
    ] {
        assert!(count >= 50, "only {count} {what}: {seen:?}");
    }
}

/// A MAS join path through `cite.cited` — the second of `cite`'s two keys to
/// `publication`, one of the depth-1 paths over `publication.title` — keeps
/// that edge when a decision references `author.name`: the path is grown,
/// not rebuilt from its tables (which would go through `cite.citing`).
#[test]
fn a_mas_join_path_through_cite_cited_keeps_it_as_it_gains_author() {
    let db = Database::new(mas_schema()).expect("MAS is valid");
    let schema = db.schema();
    let graph = JoinGraph::new(schema);
    let column = |t: &str, c: &str| schema.column_id(t, c).expect("a MAS column");
    let selecting = |columns: &[ColumnId]| {
        let mut pq = PartialQuery::empty();
        let items =
            columns.iter().map(|&c| PartialSelectItem::with_column(SelectColumn::Column(c)));
        pq.select = Slot::Filled(items.collect::<Vec<_>>().into());
        pq
    };
    let cited = JoinEdge {
        fk: ForeignKey { from: column("cite", "cited"), to: column("publication", "pid") },
    };
    let title = selecting(&[column("publication", "title")]);
    let through_cited = construct_join_paths(&db, &graph, &title, None, 1)
        .into_iter()
        .find(|path| *path.edges == [cited])
        .expect("a depth-1 path over publication.title runs through cite.cited");

    let mut pq = selecting(&[column("publication", "title"), column("author", "name")]);
    pq.join = Some(through_cited.clone());
    let paths = construct_join_paths(&db, &graph, &pq, pq.join.as_ref(), 0);
    assert!(!paths.is_empty());
    for path in &paths {
        assert!(path.edges.contains(&cited), "{path:?} dropped cite.cited");
        assert!(path.contains(schema.table_id("author").unwrap()) && path.is_connected());
    }
    // The tables alone build the tree through `cite.citing`.
    let rebuilt = graph.steiner_tree(&paths[0].tables).expect("connected");
    assert!(!rebuilt.edges.contains(&cited), "{rebuilt:?}");
}
