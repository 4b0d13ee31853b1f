//! Integration tests for the streaming operator executor: limit pushdown
//! short-circuits scans, and a synthesis run surfaces its scan counters.

use duoquest::db::{
    execute_with, ColumnDef, Database, ExecOptions, JoinGraph, Schema, SelectItem, SelectSpec,
    TableDef, Value,
};

/// `left` (2000 rows) ⋈ `right` (40 keys × 25 rows): the joined relation has
/// 50 000 rows, dwarfing both base tables.
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
    db.insert_all("right", (0..1000).map(|i| vec![Value::int(i % 40), Value::int(i)])).unwrap();
    db.insert_all("left", (0..2000).map(|i| vec![Value::int(i), Value::int(i % 40)])).unwrap();
    db.rebuild_index();
    db
}

fn join_spec(db: &Database) -> SelectSpec {
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
        ..Default::default()
    }
}

#[test]
fn limit_one_probe_scans_under_ten_percent_of_materializing_executor() {
    let db = fanout_db();
    let unlimited = join_spec(&db);
    let probe = SelectSpec { limit: Some(1), ..unlimited.clone() };

    // Without a LIMIT (or a budget) the join is drained: what an executor
    // without limit pushdown does for the probe too.
    let streaming = execute_with(&db, &probe, &ExecOptions::default()).unwrap();
    let materialized = execute_with(&db, &unlimited, &ExecOptions::default()).unwrap();

    assert!(streaming.metrics.streamed && !materialized.metrics.streamed);
    assert_eq!(
        streaming.result.rows,
        materialized.result.rows[..1],
        "strategies must agree on the rows"
    );
    assert!(
        streaming.metrics.rows_scanned * 10 < materialized.metrics.rows_scanned,
        "LIMIT 1 must scan <10% of the materializing executor: {} vs {}",
        streaming.metrics.rows_scanned,
        materialized.metrics.rows_scanned
    );
}

#[test]
fn synthesis_run_surfaces_scan_counters() {
    use duoquest::core::{Duoquest, DuoquestConfig};
    use duoquest::nlq::NoisyOracleGuidance;
    use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
    use std::sync::Arc;

    let dataset = spider::generate("scan-counters", 1, 2, 2, 2, 7);
    let task = &dataset.tasks[0];
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 7);
    let model = NoisyOracleGuidance::new(gold, 7);
    let config = DuoquestConfig { max_candidates: 5, time_budget: None, ..Default::default() };
    let result = Duoquest::new(config)
        .session(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_tsq(tsq)
        .run();
    assert!(
        result.stats.rows_scanned > 0,
        "verification probes must report executor scans: {:?}",
        result.stats
    );
}
