//! Criterion benchmark for the parallel, cache-aware synthesis core: the
//! spider_eval workload run through `SynthesisSession`, comparing the
//! sequential seed path (one worker — the run is inline on the calling
//! thread — probe cache cleared before every run) against cached sequential
//! and parallel + cached execution (more workers — the call registers a
//! driven session on a private pool and waits for it). Cache hit/miss
//! counters from `EnumerationStats` are printed alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use duoquest_core::{Duoquest, DuoquestConfig, EmissionPolicy, EnumerationStats};
use duoquest_nlq::NoisyOracleGuidance;
use duoquest_workloads::spider::{self, SpiderDataset};
use duoquest_workloads::{synthesize_tsq, TsqDetail};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload() -> SpiderDataset {
    spider::generate("bench", 2, 4, 4, 2, 17)
}

fn config(workers: usize) -> DuoquestConfig {
    DuoquestConfig {
        max_candidates: 15,
        max_expansions: 1_500,
        time_budget: Some(Duration::from_secs(2)),
        ..Default::default()
    }
    .with_parallelism(workers, 1)
}

/// Run every task of the workload once; returns the merged stats.
fn run_workload(
    dataset: &SpiderDataset,
    cfg: &DuoquestConfig,
    clear_cache: bool,
) -> EnumerationStats {
    let engine = Duoquest::new(cfg.clone());
    let mut merged = EnumerationStats::default();
    for (i, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        if clear_cache {
            db.clear_probe_cache();
        }
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 42 + i as u64);
        let model = NoisyOracleGuidance::new(gold, 42 + i as u64);
        let result =
            engine.session(Arc::clone(db), task.nlq.clone(), Arc::new(model)).with_tsq(tsq).run();
        merged.expanded += result.stats.expanded;
        merged.emitted += result.stats.emitted;
        merged.cache_hits += result.stats.cache_hits;
        merged.cache_misses += result.stats.cache_misses;
    }
    merged
}

/// A candidate list rendered as comparable `(structure, confidence)` pairs.
type Ranking = Vec<(String, f64)>;

/// One run of every task under `emission`: per-task time to first emitted
/// candidate plus the rendered candidate ranking (for checking that any-k
/// changes *when* candidates arrive, never *what* arrives).
fn ttfc_runs(
    dataset: &SpiderDataset,
    workers: usize,
    emission: EmissionPolicy,
) -> Vec<(Option<Duration>, Ranking)> {
    let engine = Duoquest::new(config(workers).with_emission_policy(emission));
    dataset
        .tasks
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let db = dataset.database(task);
            db.clear_probe_cache();
            let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 42 + i as u64);
            let model = NoisyOracleGuidance::new(gold, 42 + i as u64);
            let started = Instant::now();
            let mut first = None;
            let result = engine
                .session(Arc::clone(db), task.nlq.clone(), Arc::new(model))
                .with_tsq(tsq)
                .run_with(|_c| {
                    first.get_or_insert_with(|| started.elapsed());
                    true
                });
            let ranking =
                result.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect();
            (first, ranking)
        })
        .collect()
}

fn fmt_ms(d: Option<Duration>) -> String {
    d.map(|d| format!("{:.2}ms", d.as_secs_f64() * 1e3)).unwrap_or_else(|| "-".into())
}

fn bench_session(c: &mut Criterion) {
    let dataset = workload();
    let parallel_workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);

    // Report the cache behaviour once, outside the timed loops.
    for db in &dataset.databases {
        db.clear_probe_cache();
    }
    let cold = run_workload(&dataset, &config(1), true);
    let warm = run_workload(&dataset, &config(1), false);
    // A run asks the cache each distinct column-wise question once (its
    // `VerifyPlan` answers the repeats), so what a warm cache saves shows in
    // the executions, not in a hit rate.
    println!(
        "spider_eval workload: {} tasks | cold run: {} cache lookups, {} probes executed | \
         warm rerun: {} lookups, {} executed",
        dataset.tasks.len(),
        cold.cache_hits + cold.cache_misses,
        cold.cache_misses,
        warm.cache_hits + warm.cache_misses,
        warm.cache_misses,
    );

    // Any-k frontier emission vs the round-barrier default, reported once
    // outside the timed loops: identical candidates, earlier first release.
    // At least 4 pool workers so verify rounds split into chunks and stream
    // chunk-by-chunk even on a 1-CPU machine; each policy gets three
    // repetitions and keeps its best per-task TTFC to damp scheduling noise.
    let ttfc_workers = parallel_workers.max(4);
    const TTFC_REPS: usize = 3;
    let mut barrier_best: Vec<Option<Duration>> = vec![None; dataset.tasks.len()];
    let mut any_k_best: Vec<Option<Duration>> = vec![None; dataset.tasks.len()];
    for _ in 0..TTFC_REPS {
        let barrier = ttfc_runs(&dataset, ttfc_workers, EmissionPolicy::RoundBarrier);
        let any_k = ttfc_runs(&dataset, ttfc_workers, EmissionPolicy::AnyK);
        let merge_min = |slot: &mut Option<Duration>, v: Option<Duration>| {
            if let Some(v) = v {
                *slot = Some(slot.map_or(v, |s| s.min(v)));
            }
        };
        for (i, ((bar_ttfc, bar_ranking), (any_ttfc, any_ranking))) in
            barrier.into_iter().zip(any_k).enumerate()
        {
            assert_eq!(bar_ranking, any_ranking, "task {i} diverged under any-k emission");
            merge_min(&mut barrier_best[i], bar_ttfc);
            merge_min(&mut any_k_best[i], any_ttfc);
        }
    }
    let earlier = barrier_best
        .iter()
        .zip(&any_k_best)
        .filter(|(b, a)| matches!((b, a), (Some(b), Some(a)) if a < b))
        .count();
    println!(
        "any-k frontier emission vs round barrier (best of {TTFC_REPS}, \
         {ttfc_workers} workers): first candidate strictly earlier on \
         {earlier}/{} tasks, candidates byte-identical on all",
        dataset.tasks.len(),
    );
    for (i, (bar, any)) in barrier_best.iter().zip(&any_k_best).enumerate() {
        println!("  task {i}: round-barrier ttfc {} | any-k ttfc {}", fmt_ms(*bar), fmt_ms(*any),);
    }

    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    // The seed path: sequential, every run pays cold probes.
    group.bench_function("sequential_cold_cache", |b| {
        b.iter(|| run_workload(&dataset, &config(1), true))
    });
    // Cache-aware sequential: identical exploration, memoized probes.
    group.bench_function("sequential_warm_cache", |b| {
        b.iter(|| run_workload(&dataset, &config(1), false))
    });
    // The full parallel + cached core.
    group.bench_function(format!("parallel{parallel_workers}_warm_cache"), |b| {
        b.iter(|| run_workload(&dataset, &config(parallel_workers), false))
    });
    // Round-barrier vs any-k frontier emission on cold probes: total run
    // time is expected to be a wash (same work, same emission sequence) —
    // the any-k win is time-to-first-candidate, reported above.
    group.bench_function(format!("parallel{parallel_workers}_round_barrier_cold"), |b| {
        b.iter(|| run_workload(&dataset, &config(parallel_workers), true))
    });
    group.bench_function(format!("parallel{parallel_workers}_any_k_cold"), |b| {
        b.iter(|| {
            run_workload(
                &dataset,
                &config(parallel_workers).with_emission_policy(EmissionPolicy::AnyK),
                true,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_session);
criterion_main!(benches);
