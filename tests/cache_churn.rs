//! Churn behaviour of the probe cache's segment-rotation eviction: under a
//! byte budget far below the workload's total probe volume, the cache must
//! keep serving the hot set instead of refusing admission the way the old
//! byte-cap design did.
//!
//! A synthesis run used to be its own hot set: the verifier re-asked every
//! column-wise probe for every child, so a run's hit rate measured whether
//! re-probed entries survive rotation. Since a run answers those from its
//! `VerifyPlan` and reaches the cache once per distinct question, the runs
//! here supply the churn and the test replays the run's column-wise probe
//! specs against the database itself — as existence questions
//! (`Database::exists_cached_with`), the form the runs cache them in.

use duoquest::core::{Duoquest, DuoquestConfig, TableSketchQuery, TsqCell};
use duoquest::db::{
    CmpOp, Database, JoinTree, Predicate, RunCacheCounters, SelectItem, SelectSpec,
};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::sync::Arc;

/// Far below the pass's probe volume. Sized against the cache's byte
/// estimate, which counts keys and map slots as well as answers
/// (`tests/frontier_memory.rs` holds the estimate to what the cache frees).
/// It was 288 KiB while every entry kept a cloned spec and a full result;
/// existence probes now keep a byte-encoded key and one bit, about 0.42× the
/// bytes per entry, so the same squeeze takes 128 KiB. At 128 KiB, with
/// shards picked by the FNV-1a hash of the encoded key: 15 rotations; cold
/// pass 828 executions, replay 3 512 hits / 48 misses (98.7 %); warm pass 0
/// executions, 100 % (19 rotations and a 64-execution warm pass when a
/// `DefaultHasher` walk over the spec picked the shard).
const BUDGET: u64 = 128 * 1024;

/// The column-wise probes a run over `tsq` can send to `db`: every
/// constrained cell against every column of its type.
fn column_probes(db: &Database, tsq: &TableSketchQuery) -> Vec<SelectSpec> {
    let mut specs = Vec::new();
    for cell in tsq.tuples.iter().flatten() {
        for col in db.schema().all_columns() {
            if cell.data_type() != Some(db.schema().column(col).dtype) {
                continue;
            }
            let predicate = match cell {
                TsqCell::Empty => continue,
                TsqCell::Exact(v) => Predicate::new(col, CmpOp::Eq, v.clone()),
                TsqCell::Range(lo, hi) => Predicate::between(col, lo.clone(), hi.clone()),
            };
            specs.push(SelectSpec {
                select: vec![SelectItem::column(col)],
                join: JoinTree::single(col.table),
                predicates: vec![predicate],
                limit: Some(1),
                ..Default::default()
            });
        }
    }
    specs
}

/// Synthesis over the spider workload with a deliberately tiny cache budget:
/// the runs' working set no longer fits, so generations must rotate — and the
/// probes a task keeps re-asking must be served from the cache anyway,
/// because re-probed entries are promoted across rotations.
#[test]
fn hot_set_survives_churn_on_spider_workload() {
    let dataset = spider::generate("churn", 1, 2, 2, 2, 21);
    let config = DuoquestConfig {
        max_candidates: 20,
        max_expansions: 1_500,
        time_budget: None,
        ..Default::default()
    };
    let engine = Duoquest::new(config);

    // Squeeze the budget so the workload's probe volume forces rotations.
    for db in &dataset.databases {
        db.clear_probe_cache();
        db.set_probe_cache_capacity(BUDGET);
    }

    // One pass over the tasks: each task's run churns the cache (and executes
    // its column-wise probes once), then its column-wise probes are re-asked
    // the way every later child of the run would have. Returns the runs'
    // probe executions and the replay's hit rate.
    let pass = |label: &str| {
        let mut executions = 0u64;
        let replay = RunCacheCounters::default();
        for (i, task) in dataset.tasks.iter().enumerate() {
            let db = dataset.database(task);
            let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 50 + i as u64);
            let hot = column_probes(db, &tsq);
            assert!(!hot.is_empty(), "a full TSQ constrains at least one cell");
            let model = NoisyOracleGuidance::new(gold, 50 + i as u64);
            let result = engine
                .session(Arc::clone(db), task.nlq.clone(), Arc::new(model))
                .with_tsq(tsq)
                .run();
            executions += result.stats.cache_misses;
            for _ in 0..20 {
                for spec in &hot {
                    db.exists_cached_with(spec, &replay).expect("a column probe executes");
                }
            }
        }
        let (hits, misses) = replay.snapshot();
        let rate = hits as f64 / (hits + misses) as f64;
        println!(
            "{label}: {executions} executions by the runs; replay {hits} hits / {misses} misses \
             = {:.1}%",
            rate * 100.0
        );
        (executions, rate)
    };
    let (cold_executions, cold) = pass("cold, churning");
    let (warm_executions, warm) = pass("warm, churning");

    let stats: Vec<_> = dataset.databases.iter().map(|db| db.cache_stats()).collect();
    let rotations: u64 = stats.iter().map(|s| s.rotations).sum();
    println!("{rotations} rotations");
    assert!(
        rotations > 0,
        "the budget must be small enough to force rotation, or this test checks nothing: {stats:?}"
    );
    for s in &stats {
        assert!(s.bytes <= BUDGET, "retention must respect the budget: {s:?}");
    }

    // The regression guard: even after a run has rotated the cache many times
    // over, a task's re-probed entries are admitted and then served from it.
    // The old admission-stop design collapsed here — once the cap filled,
    // later probes were never cached again.
    assert!(
        cold > 0.9,
        "hit rate under churn fell to {:.1}% (rotation eviction regressed?)",
        cold * 100.0
    );
    assert!(warm >= cold - 0.05, "warm rerun should not be worse than the cold run");
    assert!(
        warm_executions <= cold_executions,
        "a warm cache must not make the runs execute more probes \
         ({warm_executions} > {cold_executions})"
    );
}
