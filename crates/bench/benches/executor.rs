//! Criterion micro-benchmark: the index-backed executor vs the pure-scan
//! streaming executor (the same spec on an un-indexed twin of the database,
//! the PR 3 baseline) vs the materializing baseline (the same spec without
//! its `LIMIT`, what the pre-streaming executor did for it) on two
//! workloads:
//!
//! * a **spider-workload probe mix** — the verifier-shaped `SELECT … WHERE
//!   col = v LIMIT 1` probes over every column of a generated Spider
//!   database, half hitting and half missing;
//! * a **large join** — a high-fanout two-table join where the joined
//!   relation dwarfs the base tables, probed with `LIMIT 1` — and drained
//!   under a `COUNT(*)`, which prices one joined row (ns per row: the one
//!   number the socket-level benchmark cannot isolate);
//!
//! plus the **semi-join reduction** on the MAS user-study database: task
//! C3's gold query (four tables, GROUP BY / HAVING, the literal at a leaf of
//! the join tree) on the indexed database — reduced — and on its twin — the
//! scan path.
//!
//! A second group times `Database::rebuild_index` on the MAS database and
//! the fan-out fixture.
//!
//! Before timing, the bench prints the rows-scanned and wall-clock ratios
//! between the strategies so the limit-pushdown, index-access and reduction
//! wins are visible without a stopwatch.

use criterion::{criterion_group, criterion_main, Criterion};
use duoquest_db::{
    execute_with, CmpOp, ColumnDef, DataType, Database, ExecOptions, JoinGraph, JoinTree,
    Predicate, Schema, SelectItem, SelectSpec, TableDef, TableId, Value,
};
use duoquest_workloads::{mas, mas_pbe_tasks, spider, MasDataset};

/// Verifier-shaped probe mix over every column of `db`: one probe for a value
/// that exists (the first row's) and one for a value that cannot.
fn probe_mix(db: &Database) -> Vec<SelectSpec> {
    let schema = db.schema();
    let mut probes = Vec::new();
    for col in schema.all_columns() {
        let data = db.table_data(col.table);
        let Some(first) = data.rows.first() else { continue };
        let hit = first.0[col.column].clone();
        let miss = match schema.column(col).dtype {
            DataType::Number => Value::Number(-1.0e12),
            DataType::Text => Value::text("no such value anywhere"),
        };
        for value in [hit, miss] {
            if value.is_null() {
                continue;
            }
            probes.push(SelectSpec {
                select: vec![SelectItem::column(col)],
                join: JoinTree::single(col.table),
                predicates: vec![Predicate::new(col, CmpOp::Eq, value)],
                limit: Some(1),
                ..Default::default()
            });
        }
    }
    probes
}

/// High-fanout fixture: `left` (4000 rows) ⋈ `right` (50 keys × 40 rows)
/// joins to 160 000 rows.
fn fanout_db() -> Database {
    let mut s = Schema::new("fanout");
    s.add_table(TableDef::new("right", vec![ColumnDef::number("k"), ColumnDef::number("v")], None));
    s.add_table(TableDef::new(
        "left",
        vec![ColumnDef::number("id"), ColumnDef::number("k")],
        Some(0),
    ));
    s.add_foreign_key("left", "k", "right", "k").unwrap();
    let mut db = Database::new(s).unwrap();
    db.insert_all("right", (0..2000).map(|i| vec![Value::int(i % 50), Value::int(i)])).unwrap();
    db.insert_all("left", (0..4000).map(|i| vec![Value::int(i), Value::int(i % 50)])).unwrap();
    db.rebuild_index();
    db
}

fn fanout_probe(db: &Database) -> SelectSpec {
    let schema = db.schema();
    let join = JoinGraph::new(schema)
        .steiner_tree(&[schema.table_id("left").unwrap(), schema.table_id("right").unwrap()])
        .unwrap();
    SelectSpec {
        select: vec![
            SelectItem::column(schema.column_id("left", "id").unwrap()),
            SelectItem::column(schema.column_id("right", "v").unwrap()),
        ],
        join,
        limit: Some(1),
        ..Default::default()
    }
}

/// `db` with no secondary index built: the executor streams there as it did
/// in PR 3 — hash joins over full scans — where on `db` itself it takes the
/// index-backed access paths (INLJ, range/point restrictions and their
/// semi-join reduction, ordered index scans).
fn unindexed(db: &Database) -> Database {
    let mut twin = Database::new(db.schema().clone()).unwrap();
    for t in (0..db.schema().table_count()).map(TableId) {
        for row in &db.table_data(t).rows {
            twin.insert_by_id(t, row.0.clone()).unwrap();
        }
    }
    twin
}

/// `spec` without its `LIMIT`: the pre-streaming executor's work for it —
/// full materialization — whatever the database has built.
fn unlimited(spec: &SelectSpec) -> SelectSpec {
    SelectSpec { limit: None, ..spec.clone() }
}

fn run(db: &Database, spec: &SelectSpec) -> duoquest_db::ExecOutcome {
    execute_with(db, spec, &ExecOptions::default()).unwrap()
}

/// Total rows scanned executing `specs` on `db`.
fn rows_scanned(db: &Database, specs: &[SelectSpec]) -> u64 {
    specs.iter().map(|s| run(db, s).metrics.rows_scanned).sum()
}

fn bench_executor(c: &mut Criterion) {
    let dataset = spider::generate("bench-exec", 1, 3, 3, 2, 42);
    let spider_db = dataset.database(&dataset.tasks[0]);
    let spider_scan = unindexed(spider_db);
    let probes = probe_mix(spider_db);
    let drained_probes: Vec<SelectSpec> = probes.iter().map(unlimited).collect();

    let fanout = fanout_db();
    let fanout_scan = unindexed(&fanout);
    let probe = fanout_probe(&fanout);
    let drained_probe = unlimited(&probe);

    // The observable win, independent of wall clock: rows-scanned ratios.
    let spider_indexed = rows_scanned(spider_db, &probes);
    let spider_streamed = rows_scanned(&spider_scan, &probes);
    let spider_materialized = rows_scanned(&spider_scan, &drained_probes);
    let join_indexed = run(&fanout, &probe).metrics.rows_scanned;
    let join_streamed = run(&fanout_scan, &probe).metrics.rows_scanned;
    let join_materialized = run(&fanout_scan, &drained_probe).metrics.rows_scanned;
    println!(
        "rows scanned, spider probe mix ({} probes): indexed {} vs streaming {} vs \
         materialized {} (index/scan ratio {:.1}%)",
        probes.len(),
        spider_indexed,
        spider_streamed,
        spider_materialized,
        100.0 * spider_indexed as f64 / spider_streamed.max(1) as f64
    );
    println!(
        "rows scanned, large-join LIMIT 1 probe: indexed {} vs streaming {} vs \
         materialized {} (index/scan ratio {:.2}%)",
        join_indexed,
        join_streamed,
        join_materialized,
        100.0 * join_indexed as f64 / join_streamed.max(1) as f64
    );
    // Wall-clock ratio of the same comparison, a single untimed pass each
    // (after one warm-up pass so neither side pays first-touch costs).
    let wall = |db: &Database| {
        rows_scanned(db, &probes);
        let start = std::time::Instant::now();
        rows_scanned(db, &probes);
        start.elapsed()
    };
    let (wall_indexed, wall_scan) = (wall(spider_db), wall(&spider_scan));
    println!(
        "wall clock, spider probe mix: indexed {wall_indexed:?} vs streaming {wall_scan:?} \
         ({:.1}%)",
        100.0 * wall_indexed.as_secs_f64() / wall_scan.as_secs_f64().max(1e-9)
    );

    // What a joined row costs when nothing stops the join early: COUNT(*)
    // drains all 160 000 joined rows and returns one. Best of five.
    let drained = SelectSpec { select: vec![SelectItem::count_star()], ..unlimited(&probe) };
    let (joined_rows, drained_wall) = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let out = run(&fanout, &drained);
            (out.result.rows[0].0[0].as_number().unwrap_or(0.0), start.elapsed())
        })
        .min_by_key(|&(_, wall)| wall)
        .expect("five runs");
    println!(
        "drained large join: {joined_rows} joined rows in {drained_wall:?} ({:.1} ns per \
         joined row)",
        drained_wall.as_nanos() as f64 / joined_rows.max(1.0)
    );

    // Semi-join reduction: the literal sits at a leaf (`conference.name`),
    // the first table (`author`) is three joins away.
    let mas = MasDataset::standard();
    let mas_scan = unindexed(&mas.db);
    let c3 = mas_pbe_tasks(&mas).into_iter().find(|t| t.id == "C3").expect("task C3").gold;
    let timed = |db: &Database| {
        run(db, &c3);
        let start = std::time::Instant::now();
        let out = run(db, &c3);
        (out.metrics.rows_scanned, start.elapsed())
    };
    let ((reduced_rows, reduced_wall), (scan_rows, scan_wall)) = (timed(&mas.db), timed(&mas_scan));
    println!(
        "MAS C3 gold query: reduced {reduced_rows} rows in {reduced_wall:?} vs scan \
         {scan_rows} rows in {scan_wall:?} (rows ratio {:.1}%)",
        100.0 * reduced_rows as f64 / scan_rows.max(1) as f64
    );

    let mut group = c.benchmark_group("executor");
    group.bench_function("spider_probe_mix_indexed", |b| {
        b.iter(|| rows_scanned(spider_db, &probes))
    });
    group.bench_function("spider_probe_mix_streaming", |b| {
        b.iter(|| rows_scanned(&spider_scan, &probes))
    });
    group.bench_function("spider_probe_mix_materialized", |b| {
        b.iter(|| rows_scanned(&spider_scan, &drained_probes))
    });
    group.bench_function("large_join_limit1_indexed", |b| {
        b.iter(|| run(&fanout, &probe).result.len())
    });
    group.bench_function("large_join_limit1_streaming", |b| {
        b.iter(|| run(&fanout_scan, &probe).result.len())
    });
    group.bench_function("large_join_limit1_materialized", |b| {
        b.iter(|| run(&fanout_scan, &drained_probe).result.len())
    });
    group.bench_function("large_join_drained_count", |b| {
        b.iter(|| run(&fanout, &drained).result.len())
    });

    group.bench_function("mas_c3_gold_reduced", |b| b.iter(|| run(&mas.db, &c3).result.len()));
    group.bench_function("mas_c3_gold_scan", |b| b.iter(|| run(&mas_scan, &c3).result.len()));
    group.finish();
}

/// `Database::rebuild_index` — every column index, which the text index is
/// a view of — on
/// the benchmark's MAS database (12 253 rows, 15 tables, mostly text) and
/// on the all-number fan-out fixture: the cold start of a loaded database.
fn bench_rebuild_index(c: &mut Criterion) {
    let mut mas_db = Database::clone(&mas::generate(42, 8.0).db);
    let mut fanout = fanout_db();
    let mut group = c.benchmark_group("rebuild_index");
    group.bench_function("mas", |b| b.iter(|| mas_db.rebuild_index()));
    group.bench_function("fanout", |b| b.iter(|| fanout.rebuild_index()));
    group.finish();
}

criterion_group!(benches, bench_executor, bench_rebuild_index);
criterion_main!(benches);
