//! Index smoke test: ordered secondary indexes end to end.
//!
//! Builds a high-fanout two-table database twice — once with its secondary
//! indexes, once without (the executor can only scan that twin) — then runs
//! each index-backed access path against the twin and asserts both that the
//! emitted rows are identical and that the index path scans measurably fewer
//! rows:
//!
//! * an equality probe served by an index point restriction;
//! * a join probed as an index-nested-loop join (no build-side hash);
//! * `ORDER BY … LIMIT k` on an indexed-but-unsorted column streaming
//!   straight off the ordered index;
//! * an impossible predicate bailing before scanning anything;
//! * a literal at a leaf of the join tree reaching the first table through
//!   the semi-join reduction, at a third of the scan path's rows or less.
//!
//! Run with: `cargo run --example index_smoke`

use duoquest::db::{
    execute_with, CmpOp, ColumnDef, Database, ExecOptions, JoinGraph, JoinTree, OrderKey,
    OrderSpec, Predicate, Schema, SelectItem, SelectSpec, TableDef, Value,
};

/// The database, with its secondary indexes built or left as loaded.
fn build_database(indexed: bool) -> Database {
    let mut schema = Schema::new("fanout");
    schema.add_table(TableDef::new(
        "category",
        vec![ColumnDef::number("cid"), ColumnDef::text("label")],
        Some(0),
    ));
    schema.add_table(TableDef::new(
        "item",
        vec![ColumnDef::number("id"), ColumnDef::number("cid"), ColumnDef::text("name")],
        Some(0),
    ));
    schema.add_foreign_key("item", "cid", "category", "cid").unwrap();
    let mut db = Database::new(schema).unwrap();
    db.insert_all(
        "category",
        (0..50).map(|i| vec![Value::int(i), Value::text(format!("category-{i:02}"))]),
    )
    .unwrap();
    // Item names are deliberately inserted out of order so no column is
    // stored sorted and ORDER BY must come from the index.
    db.insert_all(
        "item",
        (0..4000).map(|i| {
            vec![Value::int(i), Value::int(i % 50), Value::text(format!("item-{:04}", 3999 - i))]
        }),
    )
    .unwrap();
    if indexed {
        db.rebuild_index();
    }
    db
}

/// Run `spec` on the indexed database and on its un-indexed twin, assert the
/// emitted rows are byte-identical, and return the `(indexed, scan)` metrics
/// pair.
fn both_ways(
    (db, twin): (&Database, &Database),
    spec: &SelectSpec,
    what: &str,
) -> (duoquest::db::ExecMetrics, duoquest::db::ExecMetrics) {
    let indexed = execute_with(db, spec, &ExecOptions::default()).unwrap();
    let scan = execute_with(twin, spec, &ExecOptions::default()).unwrap();
    assert_eq!(indexed.result, scan.result, "{what}: index path diverged from the scan path");
    println!(
        "{what}: {} rows, scanned {} via index vs {} via scan ({} index lookups, {} rows \
         via index)",
        indexed.result.len(),
        indexed.metrics.rows_scanned,
        scan.metrics.rows_scanned,
        indexed.metrics.index_lookups,
        indexed.metrics.rows_via_index,
    );
    (indexed.metrics, scan.metrics)
}

fn main() {
    let (db, twin) = (build_database(true), build_database(false));
    let dbs = (&db, &twin);
    let schema = db.schema();
    let item = schema.table_id("item").unwrap();
    let item_name = schema.column_id("item", "name").unwrap();
    let item_cid = schema.column_id("item", "cid").unwrap();
    let label = schema.column_id("category", "label").unwrap();

    // 1. Equality probe: the point restriction reads only matching rows.
    let eq_probe = SelectSpec {
        select: vec![SelectItem::column(item_name)],
        join: JoinTree::single(item),
        predicates: vec![Predicate::new(item_name, CmpOp::Eq, Value::text("item-1234"))],
        ..Default::default()
    };
    let (indexed, scan) = both_ways(dbs, &eq_probe, "equality probe");
    assert!(indexed.rows_scanned < scan.rows_scanned, "point restriction must scan fewer rows");

    // 2. Join probe: the category side is joined index-nested-loop, so the
    //    build-side hash is never constructed.
    let join =
        JoinGraph::new(schema).steiner_tree(&[item, schema.table_id("category").unwrap()]).unwrap();
    let join_probe = SelectSpec {
        select: vec![SelectItem::column(item_name), SelectItem::column(label)],
        join: join.clone(),
        predicates: vec![Predicate::new(item_cid, CmpOp::Eq, Value::int(7))],
        ..Default::default()
    };
    let (indexed, scan) = both_ways(dbs, &join_probe, "index-nested-loop join");
    assert!(indexed.rows_scanned < scan.rows_scanned, "INLJ must skip the build side");

    // 3. ORDER BY an indexed-but-unsorted column: streams off the index.
    let ordered = SelectSpec {
        select: vec![SelectItem::column(item_name)],
        join: JoinTree::single(item),
        order_by: Some(OrderSpec { key: OrderKey::Column(item_name), desc: false }),
        limit: Some(5),
        ..Default::default()
    };
    let (indexed, _) = both_ways(dbs, &ordered, "ORDER BY … LIMIT 5");
    assert!(indexed.streamed, "ordered probe must stream from the index");
    assert!(indexed.rows_via_index > 0, "ordered probe must be served via the index");

    // 4. Impossible predicate: the planner proves emptiness and bails.
    let impossible = SelectSpec {
        select: vec![SelectItem::column(item_name)],
        join: join.clone(),
        predicates: vec![Predicate::new(item_name, CmpOp::Eq, Value::text("no such item"))],
        ..Default::default()
    };
    let (indexed, _) = both_ways(dbs, &impossible, "impossible predicate");
    assert_eq!(indexed.rows_scanned, 0, "a provably empty probe must not scan");
    assert_eq!(indexed.probes_bailed_empty, 1);

    // 5. Semi-join reduction: `item` is the first (probe-side) table and the
    //    literal sits on `category`, one join away. The planner carries it up
    //    the tree — 1 category → its 80 items — before a joined row exists.
    let reduced = SelectSpec {
        select: vec![SelectItem::column(item_name), SelectItem::column(label)],
        join: JoinTree { tables: [item, label.table].into(), edges: join.edges.clone() },
        predicates: vec![Predicate::new(label, CmpOp::Eq, Value::text("category-07"))],
        ..Default::default()
    };
    let (indexed, scan) = both_ways(dbs, &reduced, "semi-join reduction");
    println!(
        "semi-join reduction: {:.1}% of the scan path's rows",
        100.0 * indexed.rows_scanned as f64 / scan.rows_scanned as f64
    );
    assert!(3 * indexed.rows_scanned <= scan.rows_scanned, "the literal must reach the probe side");

    println!("index smoke test passed");
}
