//! Capacity smoke test for thread-free session driving: **512
//! mixed-priority requests** admitted live onto a **2-worker** pool — a
//! 256:1 live-session-to-thread ratio that would have required 512 driver
//! threads before the scheduler-resumable state machine. Asserts every
//! request completes, live sessions stack beyond the worker count, and
//! nothing is left behind in the pool.
//!
//! Run with: `cargo run --release --example many_sessions` (a CI smoke step).

use duoquest::core::DuoquestConfig;
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::service::{
    PriorityClass, RequestStatus, ServiceConfig, SynthesisRequest, SynthesisService,
};
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::sync::Arc;
use std::time::Instant;

const REQUESTS: usize = 512;
const WORKERS: usize = 2;

fn main() {
    let dataset = spider::generate("many-sessions", 1, 2, 2, 2, 53);
    let service = SynthesisService::new(ServiceConfig {
        workers: WORKERS,
        max_live_sessions: REQUESTS, // every request runs live, none queued
        max_queued: 16,
        ..ServiceConfig::default()
    });
    // A light engine budget: the point is concurrency scale, not search depth.
    let config = DuoquestConfig {
        max_candidates: 5,
        max_expansions: 250,
        time_budget: None,
        ..Default::default()
    };

    let started = Instant::now();
    let tickets: Vec<_> = (0..REQUESTS)
        .map(|i| {
            let task = &dataset.tasks[i % dataset.tasks.len()];
            let db = dataset.database(task);
            let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, i as u64);
            let model = NoisyOracleGuidance::new(gold, i as u64);
            let request = SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
                .with_tsq(tsq)
                .with_config(config.clone())
                .with_priority(PriorityClass::ALL[i % 3]);
            service.submit(request).expect("all requests admitted live")
        })
        .collect();
    let submitted_in = started.elapsed();

    let mid = service.stats();
    println!(
        "{REQUESTS} mixed-priority requests live on {WORKERS} pool workers \
         (submitted in {submitted_in:.1?}; live now: {})",
        mid.live_sessions,
    );

    let mut completed = 0usize;
    let mut candidates = 0usize;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait();
        assert_eq!(outcome.status, RequestStatus::Completed, "request {i} did not complete");
        assert!(!outcome.result.candidates.is_empty(), "request {i} found no candidates");
        completed += 1;
        candidates += outcome.result.candidates.len();
    }

    let stats = service.stats();
    assert_eq!(completed, REQUESTS);
    assert_eq!(stats.live_sessions, 0, "every slot must be released");
    assert_eq!(stats.scheduler.queue_depth, 0, "no units left behind");
    assert!(
        stats.live_sessions_peak > WORKERS,
        "live sessions must stack beyond the worker count (peak {})",
        stats.live_sessions_peak
    );
    println!(
        "all {completed} completed in {:.1?} ({candidates} candidates); \
         live-session peak {} on {} worker threads — capacity no longer tracks thread count",
        started.elapsed(),
        stats.live_sessions_peak,
        stats.scheduler.workers,
    );
    for class in PriorityClass::ALL {
        let cl = stats.class(class);
        println!(
            "  {:<12} completed={:<4} ttfc p50={} p95={}",
            class.label(),
            cl.completed,
            cl.ttfc.quantile_us(0.50).map(|us| format!("{us}µs")).unwrap_or_else(|| "-".into()),
            cl.ttfc.quantile_us(0.95).map(|us| format!("{us}µs")).unwrap_or_else(|| "-".into()),
        );
    }

    // All 512 requests share the workload's single database, so concurrent
    // sessions that reach the same uncached probe collapse onto one leader
    // execution via the single-flight in-flight table.
    let db_stats = dataset.databases[0].cache_stats();
    let dup_rate = if db_stats.single_flight_lookups == 0 {
        0.0
    } else {
        db_stats.single_flight_hits as f64 / db_stats.single_flight_lookups as f64 * 100.0
    };
    println!(
        "  cross-session duplicate probes: {}/{} in-flight-routed misses collapsed onto \
         another session's leader ({dup_rate:.1}%; {} leader executions)",
        db_stats.single_flight_hits, db_stats.single_flight_lookups, db_stats.single_flight_leaders,
    );
}
