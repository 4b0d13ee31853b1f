//! Shared-pool vs per-session-pool benchmark for the batch session
//! scheduler: N concurrent synthesis sessions served by one
//! `SessionScheduler` (one worker pool for the whole process) against the
//! same N sessions each spinning a private pool, for N ∈ {1, 4, 8}. Also
//! reports time-to-first-candidate under contention — the interactive
//! metric the fairness queue exists for.

use criterion::{criterion_group, criterion_main, Criterion};
use duoquest_core::{DuoquestConfig, SessionScheduler, SynthesisSession};
use duoquest_nlq::NoisyOracleGuidance;
use duoquest_workloads::spider::{self, SpiderDataset};
use duoquest_workloads::{synthesize_tsq, TsqDetail};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSION_COUNTS: [usize; 3] = [1, 4, 8];

fn workload() -> SpiderDataset {
    spider::generate("sched-bench", 2, 4, 4, 2, 19)
}

fn config(workers: usize) -> DuoquestConfig {
    DuoquestConfig {
        max_candidates: 10,
        max_expansions: 800,
        time_budget: Some(Duration::from_secs(2)),
        ..Default::default()
    }
    .with_parallelism(workers, 1)
}

/// Build session `i` of `n`, cycling the workload's tasks.
fn session_for(
    dataset: &SpiderDataset,
    i: usize,
    cfg: &DuoquestConfig,
    pool: Option<&SessionScheduler>,
) -> SynthesisSession {
    let task = &dataset.tasks[i % dataset.tasks.len()];
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 90 + i as u64);
    let model = NoisyOracleGuidance::new(gold, 90 + i as u64);
    let mut session = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_tsq(tsq)
        .with_config(cfg.clone());
    if let Some(pool) = pool {
        session = session.with_scheduler(pool.handle());
    }
    session
}

/// Run `n` sessions concurrently, one waiting thread each (a blocking call on
/// a pool registers a driven session and waits for it; its callback runs on
/// the waiting thread); returns each session's time from its own start to
/// its first emitted candidate.
fn run_concurrent(
    dataset: &SpiderDataset,
    n: usize,
    cfg: &DuoquestConfig,
    pool: Option<&SessionScheduler>,
) -> Vec<Option<Duration>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let session = session_for(dataset, i, cfg, pool);
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut first: Option<Duration> = None;
                    session.run_with(|_c| {
                        first.get_or_insert_with(|| started.elapsed());
                        true
                    });
                    first
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
    })
}

fn fmt_ms(d: &Option<Duration>) -> String {
    d.map(|d| format!("{:.1}ms", d.as_secs_f64() * 1e3)).unwrap_or_else(|| "-".into())
}

/// Probe-duplication burst: `n` *identical* sessions (same task, same seed)
/// run concurrently over one shared database, each inline on its own thread,
/// so every session issues the same probe stream at the same time. A churn
/// thread clears the memo cache every 2ms for the duration — the
/// cache-pressure regime where duplicate probes cannot be absorbed by
/// memoization and only in-flight sharing can collapse them. Returns the
/// database's cache-counter delta as `(executions, routed_lookups,
/// single_flight_hits, single_flight_leaders)`, where `executions` counts
/// probes that actually ran the executor.
fn duplicate_probe_burst(
    dataset: &SpiderDataset,
    n: usize,
    single_flight: bool,
) -> (u64, u64, u64, u64, Vec<(String, f64)>) {
    let task = &dataset.tasks[0];
    let db = dataset.database(task);
    db.set_single_flight(single_flight);
    db.clear_probe_cache();
    let before = db.cache_stats();
    let done = std::sync::atomic::AtomicBool::new(false);
    let rankings: Vec<Vec<(String, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let session = session_for(dataset, 0, &config(1), None);
                scope.spawn(move || {
                    let result = session.run();
                    result
                        .candidates
                        .iter()
                        .map(|c| (format!("{:?}", c.spec), c.confidence))
                        .collect()
                })
            })
            .collect();
        scope.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                db.clear_probe_cache();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let rankings: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        rankings
    });
    // Identical sessions must emit identically — under churn, with or
    // without in-flight sharing.
    for (i, ranking) in rankings.iter().enumerate() {
        assert_eq!(
            rankings[0], *ranking,
            "session {i} diverged in a duplicate-probe burst (single-flight {single_flight})"
        );
    }
    let delta = db.cache_stats().since(&before);
    db.set_single_flight(true);
    // A single-flight hit is a miss that waited on another session's leader
    // instead of executing; everything else that missed ran the executor.
    (
        delta.misses - delta.single_flight_hits,
        delta.single_flight_lookups,
        delta.single_flight_hits,
        delta.single_flight_leaders,
        rankings.into_iter().next().unwrap_or_default(),
    )
}

fn bench_scheduler(c: &mut Criterion) {
    let dataset = workload();
    let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);

    // Time-to-first-candidate under contention, reported once outside the
    // timed loops: the shared pool bounds how long any session waits for its
    // first result; N private pools oversubscribe the machine instead.
    for n in SESSION_COUNTS {
        let pool = SessionScheduler::new(machine);
        let shared_ttfc = run_concurrent(&dataset, n, &config(1), Some(&pool));
        let private_ttfc = run_concurrent(&dataset, n, &config(machine), None);
        let worst = |v: &[Option<Duration>]| fmt_ms(&v.iter().copied().flatten().max());
        println!(
            "time-to-first-candidate, {n} concurrent session(s) on {machine} CPU(s): \
             shared pool worst {} (all: {:?}) | private pools worst {} (all: {:?})",
            worst(&shared_ttfc),
            shared_ttfc.iter().map(fmt_ms).collect::<Vec<_>>(),
            worst(&private_ttfc),
            private_ttfc.iter().map(fmt_ms).collect::<Vec<_>>(),
        );
    }

    // Cross-session single-flight probe sharing, reported once outside the
    // timed loops: N identical sessions on one shared database collapse
    // their concurrent duplicate probes onto one leader execution each.
    for n in [4usize, 8] {
        let (on_exec, on_lookups, on_hits, on_leaders, on_ranking) =
            duplicate_probe_burst(&dataset, n, true);
        let (off_exec, _, _, _, off_ranking) = duplicate_probe_burst(&dataset, n, false);
        assert_eq!(on_ranking, off_ranking, "single-flight toggle changed emitted candidates");
        let rate = if on_lookups == 0 { 0.0 } else { on_hits as f64 / on_lookups as f64 * 100.0 };
        println!(
            "single-flight, {n} identical sessions sharing one database on {machine} CPU(s): \
             on: {on_exec} probe executions ({on_leaders} leaders, {on_hits}/{on_lookups} \
             routed misses collapsed = {rate:.1}%) | off: {off_exec} probe executions, \
             candidates byte-identical",
        );
    }

    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    for n in SESSION_COUNTS {
        // One long-lived pool, sized to the machine, serving all N sessions.
        group.bench_function(format!("shared_pool_{n}_sessions"), |b| {
            let pool = SessionScheduler::new(machine);
            b.iter(|| run_concurrent(&dataset, n, &config(1), Some(&pool)))
        });
        // The pre-scheduler shape: every session spins its own machine-sized
        // pool (N×machine threads at peak).
        group.bench_function(format!("private_pools_{n}_sessions"), |b| {
            b.iter(|| run_concurrent(&dataset, n, &config(machine), None))
        });
    }
    // Duplicate-probe burst with and without cross-session single-flight
    // sharing: the on/off gap is the cost of re-executing probes that an
    // identical concurrent session already has in flight.
    for single_flight in [true, false] {
        let label = if single_flight { "on" } else { "off" };
        group.bench_function(format!("single_flight_{label}_8_identical_sessions"), |b| {
            b.iter(|| duplicate_probe_burst(&dataset, 8, single_flight))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
