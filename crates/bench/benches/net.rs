//! Socket-front benchmark: submit/stream round-trips through the TCP edge.
//! Reports TTFC percentiles and shed counters for a wide concurrent wave
//! (everything admitted) and a deliberately tight admission box (socket
//! clients see HTTP 503, the front counts `admission_shed`) — the live
//! numbers `GET /stats` serves — then times single stream round-trips.

use criterion::{criterion_group, criterion_main, Criterion};
use duoquest_core::DuoquestConfig;
use duoquest_net::{client, wire, NetConfig, NetServer, TaskRegistry, TaskSpec};
use duoquest_nlq::NoisyOracleGuidance;
use duoquest_service::{PriorityClass, ServiceConfig, SynthesisService};
use duoquest_workloads::spider::{self, SpiderDataset};
use duoquest_workloads::{synthesize_tsq, TsqDetail};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn workload() -> SpiderDataset {
    spider::generate("net-bench", 1, 2, 2, 2, 53)
}

fn registry_for(dataset: &SpiderDataset) -> (TaskRegistry, Vec<String>) {
    let config = DuoquestConfig {
        max_candidates: 5,
        max_expansions: 250,
        time_budget: None,
        ..Default::default()
    };
    let mut registry = TaskRegistry::new();
    let mut names = Vec::new();
    for (index, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, index as u64);
        let model = Arc::new(NoisyOracleGuidance::new(gold, index as u64));
        let name = format!("task-{index}");
        registry.register(
            &name,
            TaskSpec {
                db: Arc::clone(db),
                nlq: task.nlq.clone(),
                model,
                tsq: Some(tsq),
                config: config.clone(),
            },
        );
        names.push(name);
    }
    (registry, names)
}

fn serve(
    dataset: &SpiderDataset,
    service_cfg: ServiceConfig,
) -> (NetServer, Arc<SynthesisService>) {
    let (registry, _) = registry_for(dataset);
    let service = Arc::new(SynthesisService::new(service_cfg));
    let server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), registry, NetConfig::default())
            .expect("bind ephemeral port");
    (server, service)
}

/// `count` concurrent socket clients, each one full submit → stream → done
/// round-trip. Returns (completed, refused-at-admission).
fn wave(server: &NetServer, names: &[String], count: usize) -> (usize, usize) {
    let addr = server.addr();
    let handles: Vec<_> = (0..count)
        .map(|i| {
            let body = wire::SubmitWire::task(&names[i % names.len()]).to_json();
            std::thread::spawn(move || {
                client::request(addr, "POST", "/submit", Some(&body), TIMEOUT)
                    .map(|r| r.status)
                    .unwrap_or(0)
            })
        })
        .collect();
    let mut completed = 0;
    let mut refused = 0;
    for handle in handles {
        match handle.join().expect("client thread") {
            200 => completed += 1,
            503 => refused += 1,
            status => panic!("unexpected status {status}"),
        }
    }
    (completed, refused)
}

fn fmt_opt(d: Option<Duration>) -> String {
    d.map(|d| format!("{:.1}ms", d.as_secs_f64() * 1e3)).unwrap_or_else(|| "-".into())
}

fn bench_net(c: &mut Criterion) {
    let dataset = workload();
    let (_, names) = registry_for(&dataset);

    // Headline 1: a wide wave — 64 concurrent socket streams, all admitted
    // live. The TTFC percentiles are the service's own (served on /stats);
    // the counters are the front's.
    {
        let (server, service) = serve(
            &dataset,
            ServiceConfig {
                workers: 2,
                max_live_sessions: 64,
                max_queued: 8,
                ..ServiceConfig::default()
            },
        );
        let started = std::time::Instant::now();
        let (completed, refused) = wave(&server, &names, 64);
        let stats = service.stats();
        let cl = stats.class(PriorityClass::Interactive);
        let m = server.metrics();
        println!(
            "wide wave: 64 socket streams, {completed} completed / {refused} refused in {:.1?} \
             — ttfc p50 {} / p95 {}; shed: admission={} overflow={} disconnects={}",
            started.elapsed(),
            fmt_opt(cl.ttfc_p50),
            fmt_opt(cl.ttfc_p95),
            m.admission_shed.load(Relaxed),
            m.overflow_shed.load(Relaxed),
            m.disconnects.load(Relaxed),
        );
        assert_eq!(completed, 64, "a wide-open box must complete everything");
    }

    // Headline 2: a tight admission box — 4 live slots, queue of 2, under
    // 16 concurrent socket clients. Excess load is refused with HTTP 503
    // and counted as `admission_shed`: backpressure reaching all the way
    // out of the socket.
    {
        let (server, service) = serve(
            &dataset,
            ServiceConfig {
                workers: 2,
                max_live_sessions: 4,
                max_queued: 2,
                ..ServiceConfig::default()
            },
        );
        let (completed, refused) = wave(&server, &names, 16);
        let m = server.metrics();
        let shed = m.admission_shed.load(Relaxed);
        let stats = service.stats();
        let cl = stats.class(PriorityClass::Interactive);
        println!(
            "tight box (4 live, queue 2): {completed} completed, {refused} refused over the \
             socket (admission_shed={shed}, shed rate {:.0}%) — ttfc p50 {} / p95 {}",
            100.0 * refused as f64 / 16.0,
            fmt_opt(cl.ttfc_p50),
            fmt_opt(cl.ttfc_p95),
        );
        assert_eq!(refused as u64, shed, "every 503 must be counted as admission shed");
        assert!(completed >= 6, "the box holds 4 live + 2 queued at minimum");
    }

    let mut group = c.benchmark_group("net");
    group.sample_size(10);

    // One full socket round-trip: connect, submit, stream every candidate
    // line, read the terminal event — against an otherwise idle front.
    {
        let (server, _service) = serve(
            &dataset,
            ServiceConfig {
                workers: 2,
                max_live_sessions: 8,
                max_queued: 8,
                ..ServiceConfig::default()
            },
        );
        let addr = server.addr();
        let body = wire::SubmitWire::task(&names[0]).to_json();
        group.bench_function("submit_stream_roundtrip", |b| {
            b.iter(|| {
                let response = client::request(addr, "POST", "/submit", Some(&body), TIMEOUT)
                    .expect("round-trip");
                assert_eq!(response.status, 200);
                response.body.len()
            });
        });
        group.bench_function("stats_scrape", |b| {
            b.iter(|| {
                client::request(addr, "GET", "/stats", None, TIMEOUT).expect("stats").body.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
