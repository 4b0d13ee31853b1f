//! Observability overhead benchmark: the cost of request tracing, measured
//! where it matters — a full service wave with tracing on versus off — plus
//! the raw per-operation costs of the span recorder and the metrics
//! histogram. The tracing-off wave is the zero-cost claim's witness: with
//! `ServiceConfig::tracing` disabled no `Trace` is allocated and the only
//! residual work is a handful of `Option::None` checks on the hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use duoquest_core::DuoquestConfig;
use duoquest_nlq::NoisyOracleGuidance;
use duoquest_obs::{Histogram, Trace};
use duoquest_service::{PriorityClass, ServiceConfig, SynthesisRequest, SynthesisService};
use duoquest_workloads::spider::{self, SpiderDataset};
use duoquest_workloads::{synthesize_tsq, TsqDetail};
use std::sync::Arc;
use std::time::Duration;

fn workload() -> SpiderDataset {
    spider::generate("obs-bench", 1, 2, 2, 2, 31)
}

fn config() -> DuoquestConfig {
    DuoquestConfig {
        max_candidates: 5,
        max_expansions: 300,
        time_budget: Some(Duration::from_secs(2)),
        ..Default::default()
    }
}

fn request_for(dataset: &SpiderDataset, i: usize) -> SynthesisRequest {
    let task = &dataset.tasks[i % dataset.tasks.len()];
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 90 + i as u64);
    let model = NoisyOracleGuidance::new(gold, 90 + i as u64);
    SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_tsq(tsq)
        .with_config(config())
        .with_priority(PriorityClass::Interactive)
}

/// One wave of `n` requests through a fresh service with `tracing` set as
/// given; waits them all out.
fn run_wave(dataset: &SpiderDataset, tracing: bool, n: usize) {
    let service = SynthesisService::new(ServiceConfig {
        workers: 2,
        max_live_sessions: n,
        max_queued: n,
        tracing,
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> =
        (0..n).map(|i| service.submit(request_for(dataset, i)).expect("admitted")).collect();
    for ticket in tickets {
        let _ = ticket.wait();
    }
}

fn bench_obs(c: &mut Criterion) {
    let dataset = workload();

    // Printed once outside the timed loops: how much timeline one traced
    // request actually records — the volume the overhead buys.
    {
        let service = SynthesisService::new(ServiceConfig {
            workers: 2,
            max_live_sessions: 4,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        let ticket = service.submit(request_for(&dataset, 0)).expect("admitted");
        let id = ticket.id();
        let _ = ticket.wait();
        if let Some(trace) = service.trace(id) {
            println!(
                "one traced interactive request records {} spans and {} events",
                trace.spans().len(),
                trace.events().len()
            );
        }
    }

    let mut group = c.benchmark_group("obs");
    group.sample_size(10);
    group.bench_function("wave_8_tracing_on", |b| b.iter(|| run_wave(&dataset, true, 8)));
    group.bench_function("wave_8_tracing_off", |b| b.iter(|| run_wave(&dataset, false, 8)));

    // Raw recorder costs, far below the wave numbers: one span append under
    // the trace mutex, and one lock-free histogram record.
    let anchor = std::time::Instant::now();
    let trace = Trace::new(1, anchor);
    group.bench_function("trace_record_span", |b| {
        b.iter(|| trace.record_span("bench", anchor, anchor + Duration::from_micros(10)))
    });
    let histogram = Histogram::default();
    let mut v = 1u64;
    group.bench_function("histogram_record_us", |b| {
        b.iter(|| {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % 1_000_000;
            histogram.record_us(v)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_obs);
criterion_main!(benches);
