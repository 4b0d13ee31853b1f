//! Index smoke test: ordered secondary indexes end to end.
//!
//! Loads a high-fanout two-table database — its indexes are built as it
//! loads — then runs each index-backed access path and asserts both the
//! rows it emits (written out from how the rows were generated) and its
//! exact counters, so an access path that starts reading rows it could skip
//! fails on a number:
//!
//! * an equality probe served by an index point restriction;
//! * a join probed as an index-nested-loop join (no build side);
//! * `ORDER BY … LIMIT k` on an indexed-but-unsorted column streaming
//!   straight off the ordered index;
//! * an impossible predicate bailing before scanning anything;
//! * a literal at a leaf of the join tree reaching the first table through
//!   the semi-join reduction.
//!
//! Run with: `cargo run --example index_smoke`

use duoquest::db::{
    execute_with, CmpOp, ColumnDef, Database, ExecMetrics, ExecOptions, JoinGraph, JoinTree,
    OrderKey, OrderSpec, Predicate, Row, Schema, SelectItem, SelectSpec, TableDef, Value,
};

/// Fifty categories; 4 000 items, item `i` in category `i % 50` and named
/// `item-{3999 - i}`.
fn build_database() -> Database {
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
    db.insert_all("item", (0..4000).map(|i| vec![Value::int(i), Value::int(i % 50), name(i)]))
        .unwrap();
    db
}

/// The name of item `i`.
fn name(i: i64) -> Value {
    Value::text(format!("item-{:04}", 3999 - i))
}

/// `(rows_scanned, index_lookups, rows_via_index, probes_bailed_empty)`.
type Counts = (u64, u64, u64, u64);

/// Run `spec`, assert it emits `want` and reads exactly `counts`, and return
/// its metrics.
fn check(
    db: &Database,
    spec: &SelectSpec,
    want: Vec<Vec<Value>>,
    counts: Counts,
    what: &str,
) -> ExecMetrics {
    let out = execute_with(db, spec, &ExecOptions::default()).unwrap();
    let m = out.metrics;
    println!(
        "{what}: {} rows, scanned {} ({} index lookups, {} rows via index)",
        out.result.len(),
        m.rows_scanned,
        m.index_lookups,
        m.rows_via_index,
    );
    let want: Vec<Row> = want.into_iter().map(Row).collect();
    assert_eq!(out.result.rows, want, "{what}: wrong rows");
    let got = (m.rows_scanned, m.index_lookups, m.rows_via_index, m.probes_bailed_empty);
    assert_eq!(got, counts, "{what}: (rows scanned, lookups, rows via index, bailed)");
    m
}

fn main() {
    let db = build_database();
    let schema = db.schema();
    let item = schema.table_id("item").unwrap();
    let item_name = schema.column_id("item", "name").unwrap();
    let item_cid = schema.column_id("item", "cid").unwrap();
    let label = schema.column_id("category", "label").unwrap();
    let category_07 = Value::text("category-07");
    // Category 7's items, ascending: the row order of every join below.
    let in_07: Vec<i64> = (0..4000).filter(|i| i % 50 == 7).collect();

    // 1. Equality probe: one lookup yields the one matching row of 4 000.
    let eq_probe = SelectSpec {
        select: vec![SelectItem::column(item_name)],
        join: JoinTree::single(item),
        predicates: vec![Predicate::new(item_name, CmpOp::Eq, Value::text("item-1234"))],
        ..Default::default()
    };
    check(&db, &eq_probe, vec![vec![name(2765)]], (1, 1, 1, 0), "equality probe");

    // 2. Join probe: `category` comes first, and each of its 50 rows is
    //    joined by one lookup in `item.cid`'s index, kept to category 7's 80
    //    items by the literal's restriction; no build side is read.
    let join =
        JoinGraph::new(schema).steiner_tree(&[item, schema.table_id("category").unwrap()]).unwrap();
    let join_probe = SelectSpec {
        select: vec![SelectItem::column(item_name), SelectItem::column(label)],
        join: join.clone(),
        predicates: vec![Predicate::new(item_cid, CmpOp::Eq, Value::int(7))],
        ..Default::default()
    };
    let want = in_07.iter().map(|&i| vec![name(i), category_07.clone()]).collect();
    check(&db, &join_probe, want, (130, 51, 80, 0), "index-nested-loop join");

    // 3. ORDER BY an indexed-but-unsorted column: one lookup sets up the
    //    ordered scan, which stops after the fifth of 4 000 rows.
    let ordered = SelectSpec {
        select: vec![SelectItem::column(item_name)],
        join: JoinTree::single(item),
        order_by: Some(OrderSpec { key: OrderKey::Column(item_name), desc: false }),
        limit: Some(5),
        ..Default::default()
    };
    let want = (0..5).map(|k| vec![name(3999 - k)]).collect();
    let m = check(&db, &ordered, want, (5, 1, 5, 0), "ORDER BY … LIMIT 5");
    assert!(m.streamed, "ordered probe must stream from the index");
    assert_eq!(m.rows_short_circuited, 3995);

    // 4. Impossible predicate: the planner proves emptiness and bails.
    let impossible = SelectSpec {
        select: vec![SelectItem::column(item_name)],
        join: join.clone(),
        predicates: vec![Predicate::new(item_name, CmpOp::Eq, Value::text("no such item"))],
        ..Default::default()
    };
    check(&db, &impossible, Vec::new(), (0, 1, 0, 1), "impossible predicate");

    // 5. Semi-join reduction: `item` is the first (probe-side) table and the
    //    literal sits on `category`, one join away. The planner carries it up
    //    the tree — 1 category → its 80 items, one lookup — before a joined
    //    row exists.
    let reduced = SelectSpec {
        select: vec![SelectItem::column(item_name), SelectItem::column(label)],
        join: JoinTree { tables: [item, label.table].into(), edges: join.edges.clone() },
        predicates: vec![Predicate::new(label, CmpOp::Eq, category_07.clone())],
        ..Default::default()
    };
    let want = in_07.iter().map(|&i| vec![name(i), category_07.clone()]).collect();
    check(&db, &reduced, want, (160, 82, 160, 0), "semi-join reduction");

    println!("index smoke test passed");
}
