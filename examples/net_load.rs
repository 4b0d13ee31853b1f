//! Load test for the TCP serving front: **1k+ concurrent connections**
//! through the real socket path, every completed stream checked
//! byte-identical to in-process submission.
//!
//! One process hosts both sides. The server is a `NetServer` over a
//! `SynthesisService` sized to hold every request live at once; the client
//! half opens `NET_LOAD_CONNECTIONS` sockets (default 1024), proves they
//! are all **concurrently open**, then multiplexes every chunked NDJSON
//! stream from a single thread with non-blocking reads.
//!
//! Asserted:
//!
//! * all connections are concurrently open before the first submit;
//! * every request completes, and its candidate lines are byte-identical
//!   to an in-process submission of the same task;
//! * nothing is shed and no connection drops under full load;
//! * service and front drain back to idle (no leaked slot, thread or fd);
//! * after the drain, `/metrics` is well-formed and serves every series of
//!   `/stats` with the same value (`NetServer::audit_surfaces`).
//!
//! Printed: client-side TTFC percentiles, shed/disconnect tallies, and the
//! live `/stats` JSON.
//!
//! Run with: `cargo run --release --example net_load`
//! (CI runs it with `NET_LOAD_CONNECTIONS=128` as a smoke step.)

use duoquest::core::DuoquestConfig;
use duoquest::net::{client, wire, NetConfig, NetServer, TaskRegistry, TaskSpec};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::service::{ServiceConfig, SynthesisRequest, SynthesisService};
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let connections: usize =
        std::env::var("NET_LOAD_CONNECTIONS").ok().and_then(|v| v.parse().ok()).unwrap_or(1024);

    // ── server side ──────────────────────────────────────────────────────
    let dataset = spider::generate("net-load", 1, 2, 2, 2, 53);
    // A light engine budget with deterministic emission: the point is
    // connection scale and byte identity, not search depth.
    let config = DuoquestConfig {
        max_candidates: 5,
        max_expansions: 250,
        time_budget: None,
        ..Default::default()
    };
    let service = Arc::new(SynthesisService::new(ServiceConfig {
        workers: 2,
        max_live_sessions: connections, // everything live, nothing queued
        max_queued: 64,
        ..ServiceConfig::default()
    }));
    let mut registry = TaskRegistry::new();
    let mut task_names = Vec::new();
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
        task_names.push(name);
    }
    let net_cfg = NetConfig {
        // Generous read timeout: every socket is held open idle while the
        // full set connects.
        read_timeout: Duration::from_secs(120),
        ..NetConfig::default()
    };
    let mut server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), registry, net_cfg)
        .expect("bind ephemeral port");
    let addr = server.addr();

    // ── in-process references, one per task ──────────────────────────────
    let references: Vec<Vec<String>> = dataset
        .tasks
        .iter()
        .enumerate()
        .map(|(index, task)| {
            let db = dataset.database(task);
            let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, index as u64);
            let model = Arc::new(NoisyOracleGuidance::new(gold, index as u64));
            let request = SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), model)
                .with_tsq(tsq)
                .with_config(config.clone());
            let schema_db = Arc::clone(db);
            service
                .submit(request)
                .expect("reference submit")
                .enumerate()
                .map(|(k, c)| {
                    wire::candidate_line(k, &c, schema_db.schema()).trim_end().to_string()
                })
                .collect()
        })
        .collect();
    assert!(references.iter().all(|r| !r.is_empty()), "every task must emit candidates");

    // ── client side: connect everything before submitting anything ───────
    let started = Instant::now();
    let mut sockets: Vec<TcpStream> = (0..connections)
        .map(|i| {
            TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connect {i}/{connections} failed: {e}"))
        })
        .collect();
    // Every socket is open at once — wait for the acceptor to surface them
    // all, proving `connections` concurrently open connections.
    let gauge_deadline = Instant::now() + Duration::from_secs(60);
    while server.open_connections() < connections {
        assert!(
            Instant::now() < gauge_deadline,
            "only {} of {connections} connections became concurrently open",
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let peak_open = server.open_connections();
    println!(
        "{peak_open} connections concurrently open in {:.1?} (fd pressure held on both sides)",
        started.elapsed()
    );

    for (i, socket) in sockets.iter_mut().enumerate() {
        let frame = wire::SubmitWire::task(&task_names[i % task_names.len()]);
        client::send_request(socket, "POST", "/submit", Some(&frame.to_json()))
            .unwrap_or_else(|e| panic!("submit on connection {i} failed: {e}"));
        socket.set_nonblocking(true).expect("nonblocking");
    }
    let submitted_at = Instant::now();
    println!("{connections} submits in flight across {} distinct tasks", task_names.len());

    // ── single-threaded multiplexed sweep over all streams ───────────────
    struct Conn {
        socket: TcpStream,
        decoder: client::ResponseDecoder,
        lines: Vec<String>,
        ttfc: Option<Duration>,
        done: bool,
    }
    let mut conns: Vec<Conn> = sockets
        .into_iter()
        .map(|socket| Conn {
            socket,
            decoder: client::ResponseDecoder::new(),
            lines: Vec::new(),
            ttfc: None,
            done: false,
        })
        .collect();
    let mut buf = [0u8; 16 * 1024];
    let mut remaining = conns.len();
    let sweep_deadline = Instant::now() + Duration::from_secs(600);
    while remaining > 0 {
        assert!(Instant::now() < sweep_deadline, "{remaining} streams never finished");
        let mut progressed = false;
        for (i, conn) in conns.iter_mut().enumerate().filter(|(_, c)| !c.done) {
            let mut eof = false;
            loop {
                match conn.socket.read(&mut buf) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        progressed = true;
                        conn.decoder.feed(&buf[..n]);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) => panic!("stream {i} read failed: {e}"),
                }
            }
            for line in conn.decoder.take_lines() {
                if conn.ttfc.is_none() && line.contains("\"event\":\"candidate\"") {
                    conn.ttfc = Some(submitted_at.elapsed());
                }
                conn.lines.push(line);
            }
            if conn.decoder.is_done() {
                conn.done = true;
                remaining -= 1;
            } else {
                assert!(!eof, "connection {i} closed mid-stream");
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let drained_in = submitted_at.elapsed();

    // ── verify: byte identity and clean terminal events ──────────────────
    for (i, conn) in conns.iter().enumerate() {
        assert_eq!(conn.decoder.status(), Some(200), "connection {i} got a non-200");
        let lines = &conn.lines;
        assert!(lines.len() >= 2, "connection {i} stream too short: {lines:?}");
        assert!(lines[0].contains("\"event\":\"accepted\""), "connection {i}: {:?}", lines[0]);
        let done = &lines[lines.len() - 1];
        assert!(
            done.contains("\"status\":\"completed\"") && done.contains("\"shed\":false"),
            "connection {i} did not complete cleanly: {done:?}"
        );
        let reference = &references[i % references.len()];
        let candidates = &lines[1..lines.len() - 1];
        assert_eq!(
            candidates, reference,
            "connection {i}: socket stream diverged from in-process submission"
        );
    }
    println!(
        "all {connections} streams byte-identical to in-process submission \
         ({} candidate lines checked) in {drained_in:.1?}",
        conns.iter().map(|c| c.lines.len() - 2).sum::<usize>(),
    );

    // ── metrics: client-side TTFC percentiles + the server's own numbers ──
    let mut ttfc: Vec<Duration> = conns.iter().filter_map(|c| c.ttfc).collect();
    ttfc.sort_unstable();
    assert!(!ttfc.is_empty(), "no stream saw a first candidate");
    let pct = |p: usize| ttfc[(ttfc.len() - 1) * p / 100];
    println!(
        "client-side TTFC p50={:.1?} p95={:.1?} max={:.1?} ({} streams with candidates)",
        pct(50),
        pct(95),
        pct(100),
        ttfc.len()
    );

    use std::sync::atomic::Ordering::Relaxed;
    let metrics = server.metrics();
    assert_eq!(metrics.admission_shed.load(Relaxed), 0, "nothing may be shed at admission");
    assert_eq!(metrics.overflow_shed.load(Relaxed), 0, "no outbox may overflow");
    assert_eq!(metrics.disconnects.load(Relaxed), 0, "no connection may drop");
    assert_eq!(metrics.completed.load(Relaxed), connections as u64);
    println!("shed: admission=0 overflow=0 disconnects=0; peak {peak_open} open connections");

    // ── drain: no leaked slot, thread or fd ──────────────────────────────
    drop(conns);
    let idle_deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = service.stats();
        if stats.live_sessions == 0 && stats.queued_requests == 0 && server.open_connections() == 0
        {
            break;
        }
        assert!(
            Instant::now() < idle_deadline,
            "did not drain: live={} queued={} open={}",
            stats.live_sessions,
            stats.queued_requests,
            server.open_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats_body = client::request(addr, "GET", "/stats", None, Duration::from_secs(10))
        .expect("stats after load")
        .body;
    println!("live /stats after drain: {}", stats_body.trim());

    // ── scrape /metrics: well-formed, and the same series as /stats ───────
    let scrape = client::request(addr, "GET", "/metrics", None, Duration::from_secs(10))
        .expect("metrics scrape after load");
    assert_eq!(scrape.status, 200, "metrics scrape got a non-200");
    duoquest::obs::validate_exposition(&scrape.body)
        .unwrap_or_else(|e| panic!("malformed /metrics exposition: {e}"));
    while server.open_connections() > 0 {
        assert!(Instant::now() < idle_deadline, "the scrape connections did not close");
        std::thread::sleep(Duration::from_millis(10));
    }
    let series = server.audit_surfaces().unwrap_or_else(|e| panic!("surfaces disagree:\n{e}"));
    let lines = scrape.body.lines().count();
    println!("/metrics scrape valid: {lines} exposition lines; {series} series on both surfaces");

    server.shutdown(Duration::from_secs(10));
    println!(
        "drained to idle; total wall clock {:.1?} — the socket front held {connections} \
         concurrent streams with no async runtime and no per-request engine thread",
        started.elapsed()
    );
}
