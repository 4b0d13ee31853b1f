//! Socket-level lifecycle tests: the connection/session coupling contract,
//! driven through real TCP sockets against a real service.
//!
//! * streamed results are **byte-identical** to in-process submission;
//! * `/cancel`, deadlines and client disconnects all resolve the session
//!   and leave the pool idle (no leaked admission slot);
//! * a stalled client cannot block other connections;
//! * malformed input at every layer gets an HTTP error, never a panic.

use duoquest_core::DuoquestConfig;
use duoquest_db::{CmpOp, ColumnDef, Database, Schema, TableDef, Value};
use duoquest_net::json::Json;
use duoquest_net::{client, wire, NetConfig, NetServer, TaskRegistry, TaskSpec};
use duoquest_nlq::{
    Choice, GuidanceContext, GuidanceModel, Literal, Nlq, NoisyOracleGuidance, OracleConfig,
};
use duoquest_service::{ServiceConfig, SynthesisService};
use duoquest_sql::QueryBuilder;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

fn movie_db() -> Arc<Database> {
    let mut schema = Schema::new("net-test");
    schema.add_table(TableDef::new(
        "movies",
        vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
        Some(0),
    ));
    let mut db = Database::new(schema).unwrap();
    db.insert_all(
        "movies",
        vec![
            vec![Value::int(1), Value::text("Heat"), Value::int(1995)],
            vec![Value::int(2), Value::text("Forrest Gump"), Value::int(1994)],
            vec![Value::int(3), Value::text("Up"), Value::int(2009)],
        ],
    )
    .unwrap();
    db.into_shared()
}

/// A guidance wrapper that sleeps per score call — turns the tiny fixture
/// into a run long enough to cancel, expire or abandon mid-flight.
struct SlowGuidance {
    inner: Arc<dyn GuidanceModel>,
    delay: Duration,
}

impl GuidanceModel for SlowGuidance {
    fn score(&self, ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        std::thread::sleep(self.delay);
        self.inner.score(ctx, candidates)
    }

    fn name(&self) -> &str {
        "net-test-slow"
    }
}

fn task_spec(db: &Arc<Database>, slow: Option<Duration>, max_candidates: usize) -> TaskSpec {
    let gold = QueryBuilder::new(db.schema())
        .select("movies.name")
        .filter("movies.year", CmpOp::Lt, 1995)
        .build()
        .unwrap();
    let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
    let mut model: Arc<dyn GuidanceModel> =
        Arc::new(NoisyOracleGuidance::with_config(gold, 3, OracleConfig::perfect()));
    if let Some(delay) = slow {
        model = Arc::new(SlowGuidance { inner: model, delay });
    }
    let mut config = DuoquestConfig::fast();
    config.max_candidates = max_candidates;
    config.time_budget = None;
    TaskSpec { db: Arc::clone(db), nlq, model, tsq: None, config }
}

fn serve(service_cfg: ServiceConfig, net_cfg: NetConfig) -> (NetServer, Arc<SynthesisService>) {
    let db = movie_db();
    let service = Arc::new(SynthesisService::new(service_cfg));
    let mut registry = TaskRegistry::new();
    registry.register("fast", task_spec(&db, None, 6));
    registry.register("slow", task_spec(&db, Some(Duration::from_millis(10)), 500));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), registry, net_cfg)
        .expect("bind ephemeral port");
    (server, service)
}

fn wait_for_idle(service: &SynthesisService, grace: Duration) {
    let deadline = Instant::now() + grace;
    loop {
        let stats = service.stats();
        if stats.live_sessions == 0 && stats.queued_requests == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "service never drained: live={}, queued={}",
            stats.live_sessions,
            stats.queued_requests
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn event_of(line: &str) -> (String, Json) {
    let json = Json::parse(line).unwrap_or_else(|e| panic!("unparseable event {line:?}: {e}"));
    let event = json.get("event").and_then(Json::as_str).expect("event field").to_string();
    (event, json)
}

#[test]
fn streamed_results_are_byte_identical_to_in_process_submission() {
    let (server, service) = serve(ServiceConfig::default(), NetConfig::default());

    // In-process reference: same task spec, candidates rendered with the
    // same wire renderer the server uses.
    let db = movie_db();
    let spec = task_spec(&db, None, 6);
    let request = duoquest_service::SynthesisRequest::new(
        Arc::clone(&spec.db),
        spec.nlq.clone(),
        Arc::clone(&spec.model),
    )
    .with_config(spec.config.clone());
    let reference: Vec<String> = service
        .submit(request)
        .unwrap()
        .enumerate()
        .map(|(index, c)| wire::candidate_line(index, &c, spec.db.schema()).trim_end().to_string())
        .collect();
    assert!(!reference.is_empty(), "the fixture task must emit candidates");

    let body = wire::SubmitWire::task("fast").to_json();
    let response = client::request(server.addr(), "POST", "/submit", Some(&body), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let lines: Vec<&str> = response.lines().collect();
    let (first_event, first) = event_of(lines[0]);
    assert_eq!(first_event, "accepted");
    assert!(first.get("id").and_then(Json::as_u64).is_some());
    let (last_event, last) = event_of(lines[lines.len() - 1]);
    assert_eq!(last_event, "done");
    assert_eq!(last.get("status").and_then(Json::as_str), Some("completed"));
    assert_eq!(last.get("shed").and_then(Json::as_bool), Some(false));
    assert!(last.get("queue_wait_us").and_then(Json::as_u64).is_some());

    let candidates: Vec<String> = lines[1..lines.len() - 1].iter().map(|l| l.to_string()).collect();
    assert_eq!(candidates, reference, "socket stream must be byte-identical to in-process");
    assert_eq!(
        last.get("candidates").and_then(Json::as_u64),
        Some(candidates.len() as u64),
        "the done event counts the delivered candidates"
    );
    wait_for_idle(&service, TIMEOUT);
}

#[test]
fn remote_cancel_stops_a_running_request() {
    let (server, service) = serve(ServiceConfig::default(), NetConfig::default());

    // Start a slow streaming submit on a raw socket so we can observe the
    // accepted id while the run is still going.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let body = wire::SubmitWire::task("slow").to_json();
    client::send_request(&mut stream, "POST", "/submit", Some(&body)).unwrap();

    let mut decoder = client::ResponseDecoder::new();
    let mut buf = [0u8; 4096];
    let mut id = None;
    let mut done_status = None;
    while !decoder.is_done() {
        let n = stream.read(&mut buf).expect("stream read");
        assert!(n > 0 || decoder.is_done(), "server closed the stream without a terminal event");
        decoder.feed(&buf[..n]);
        for line in decoder.take_lines() {
            let (event, json) = event_of(&line);
            match event.as_str() {
                "accepted" => {
                    let accepted_id = json.get("id").and_then(Json::as_u64).unwrap();
                    id = Some(accepted_id);
                    // Cancel from a *different* connection, by id.
                    let cancel = client::request(
                        server.addr(),
                        "POST",
                        "/cancel",
                        Some(&format!("{{\"id\":{accepted_id}}}")),
                        TIMEOUT,
                    )
                    .unwrap();
                    assert_eq!(cancel.status, 200);
                    let json = Json::parse(cancel.body.trim()).unwrap();
                    assert_eq!(json.get("cancelled").and_then(Json::as_bool), Some(true));
                }
                "done" => {
                    done_status = json.get("status").and_then(Json::as_str).map(str::to_string);
                }
                _ => {}
            }
        }
    }
    assert!(id.is_some(), "never saw the accepted event");
    assert_eq!(done_status.as_deref(), Some("cancelled"));
    assert_eq!(server.metrics().remote_cancels.load(std::sync::atomic::Ordering::Relaxed), 1);
    wait_for_idle(&service, TIMEOUT);
}

#[test]
fn deadline_expires_through_the_socket() {
    let (server, service) = serve(
        ServiceConfig { workers: 1, max_live_sessions: 1, max_queued: 4, ..Default::default() },
        NetConfig::default(),
    );
    // Occupy the single live slot with a slow run (abandoned at test end),
    // then submit a queued request with a deadline far shorter than the
    // blocker: it must expire while queued and say so on the wire.
    let mut blocker = TcpStream::connect(server.addr()).unwrap();
    blocker.set_read_timeout(Some(TIMEOUT)).unwrap();
    client::send_request(
        &mut blocker,
        "POST",
        "/submit",
        Some(&wire::SubmitWire::task("slow").to_json()),
    )
    .unwrap();
    // Wait until the blocker is actually live before submitting the doomed
    // request (its accepted event proves admission).
    let mut decoder = client::ResponseDecoder::new();
    let mut buf = [0u8; 1024];
    'outer: loop {
        let n = blocker.read(&mut buf).unwrap();
        decoder.feed(&buf[..n]);
        for line in decoder.take_lines() {
            if line.contains("accepted") {
                break 'outer;
            }
        }
    }

    let mut frame = wire::SubmitWire::task("fast");
    frame.deadline_ms = Some(40);
    let response =
        client::request(server.addr(), "POST", "/submit", Some(&frame.to_json()), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let lines: Vec<&str> = response.lines().collect();
    let (event, done) = event_of(lines[lines.len() - 1]);
    assert_eq!(event, "done");
    assert_eq!(done.get("status").and_then(Json::as_str), Some("deadline_exceeded"));
    drop(blocker); // disconnect reaps the slow run
    wait_for_idle(&service, TIMEOUT);
}

#[test]
fn disconnect_reaps_the_session_and_pool_goes_idle() {
    let (server, service) = serve(ServiceConfig::default(), NetConfig::default());
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        client::send_request(
            &mut stream,
            "POST",
            "/submit",
            Some(&wire::SubmitWire::task("slow").to_json()),
        )
        .unwrap();
        // Read just the accepted event so the run is definitely live, then
        // drop the socket mid-stream.
        let mut decoder = client::ResponseDecoder::new();
        let mut buf = [0u8; 1024];
        'outer: loop {
            let n = stream.read(&mut buf).unwrap();
            decoder.feed(&buf[..n]);
            for line in decoder.take_lines() {
                if line.contains("accepted") {
                    break 'outer;
                }
            }
        }
    } // socket dropped here

    // The dead client's session must be reaped like a dropped ticket: the
    // pool drains to zero live sessions without any consumer waiting.
    wait_for_idle(&service, TIMEOUT);
    let stats = service.stats();
    let cancelled: u64 = stats.classes.iter().map(|c| c.cancelled).sum();
    assert_eq!(cancelled, 1, "the abandoned run must resolve as cancelled");

    // And the connection thread must notice and exit.
    let deadline = Instant::now() + TIMEOUT;
    while server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "connection thread leaked after disconnect");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.metrics().disconnects.load(std::sync::atomic::Ordering::Relaxed), 1);
}

#[test]
fn a_stalled_client_does_not_block_other_connections() {
    let (server, service) = serve(
        ServiceConfig { workers: 1, max_live_sessions: 8, max_queued: 8, ..Default::default() },
        NetConfig::default(),
    );
    // The staller submits a slow run and then never reads a byte.
    let mut staller = TcpStream::connect(server.addr()).unwrap();
    client::send_request(
        &mut staller,
        "POST",
        "/submit",
        Some(&wire::SubmitWire::task("slow").to_json()),
    )
    .unwrap();

    // Meanwhile three well-behaved clients complete end to end.
    for _ in 0..3 {
        let response = client::request(
            server.addr(),
            "POST",
            "/submit",
            Some(&wire::SubmitWire::task("fast").to_json()),
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(response.status, 200);
        let lines: Vec<&str> = response.lines().collect();
        let (event, done) = event_of(lines[lines.len() - 1]);
        assert_eq!(event, "done");
        assert_eq!(done.get("status").and_then(Json::as_str), Some("completed"));
    }

    // Disconnect the staller; its slot must free without it ever reading.
    drop(staller);
    wait_for_idle(&service, TIMEOUT);
    let deadline = Instant::now() + TIMEOUT;
    while server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "stalled connection leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stats_endpoint_serves_live_service_json() {
    let (server, _service) = serve(ServiceConfig::default(), NetConfig::default());
    let before = client::request(server.addr(), "GET", "/stats", None, TIMEOUT).unwrap();
    assert_eq!(before.status, 200);
    let json = Json::parse(before.body.trim()).unwrap();
    assert!(json.get("service").and_then(|s| s.get("live_sessions")).is_some());
    assert!(json.get("net").and_then(|n| n.get("open")).is_some());

    let body = wire::SubmitWire::task("fast").to_json();
    let response = client::request(server.addr(), "POST", "/submit", Some(&body), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);

    let after = client::request(server.addr(), "GET", "/stats", None, TIMEOUT).unwrap();
    let json = Json::parse(after.body.trim()).unwrap();
    let submits = json.get("net").and_then(|n| n.get("submits")).and_then(Json::as_u64);
    assert_eq!(submits, Some(1), "the stats must be live, not a bind-time snapshot");
    let completed = json
        .get("service")
        .and_then(|s| s.get("classes"))
        .and_then(|c| c.get("interactive"))
        .and_then(|i| i.get("completed"))
        .and_then(Json::as_u64);
    assert_eq!(completed, Some(1));
}

/// `GET /metrics` serves a valid Prometheus exposition reflecting live
/// counters and `GET /trace/<id>` serves a completed request's timeline;
/// both reject what they should (malformed id → 400, unknown id → 404,
/// wrong method → 405), and `/stats` and `/metrics` serve the same series
/// with the same values.
#[test]
fn metrics_and_trace_routes_serve_the_observability_surface() {
    let (server, service) = serve(ServiceConfig::default(), NetConfig::default());
    let addr = server.addr();

    // One completed request gives both surfaces something to show.
    let body = wire::SubmitWire::task("fast").to_json();
    let response = client::request(addr, "POST", "/submit", Some(&body), TIMEOUT).unwrap();
    assert_eq!(response.status, 200);
    let accepted = response.body.lines().next().expect("accepted line");
    let id = Json::parse(accepted)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .expect("accepted line carries the request id");

    let scrape = client::request(addr, "GET", "/metrics", None, TIMEOUT).unwrap();
    assert_eq!(scrape.status, 200);
    duoquest_obs::validate_exposition(&scrape.body).expect("well-formed exposition");
    assert!(
        scrape.body.contains("duoquest_requests_submitted_total{class=\"interactive\"} 1"),
        "submitted counter missing: {}",
        scrape.body
    );
    assert!(scrape.body.contains("duoquest_net_requests_total{route=\"submit\"} 1"));
    assert!(scrape.body.contains("duoquest_ttfc_us_bucket"));

    // The resolved request's timeline, served from the flight recorder.
    let trace = client::request(addr, "GET", &format!("/trace/{id}"), None, TIMEOUT).unwrap();
    assert_eq!(trace.status, 200);
    let json = Json::parse(trace.body.trim()).expect("trace JSON parses");
    assert_eq!(json.get("id").and_then(Json::as_u64), Some(id));
    assert!(trace.body.contains("\"request\""), "root span missing: {}", trace.body);
    assert!(trace.body.contains("\"deliver\""), "outbox write span missing: {}", trace.body);

    // Error paths.
    let bad = client::request(addr, "GET", "/trace/not-a-number", None, TIMEOUT).unwrap();
    assert_eq!(bad.status, 400);
    let missing = client::request(addr, "GET", "/trace/424242", None, TIMEOUT).unwrap();
    assert_eq!(missing.status, 404);
    let method = client::request(addr, "POST", "/metrics", None, TIMEOUT).unwrap();
    assert_eq!(method.status, 405);
    let method = client::request(addr, "POST", &format!("/trace/{id}"), None, TIMEOUT).unwrap();
    assert_eq!(method.status, 405);

    // Both-surfaces audit, at a quiescent point: every declared series is
    // in `/stats` and `/metrics` with the same value, and neither body holds
    // a value the other lacks. 57 series: the service's 4 gauges, 9 per
    // class (7 scalars and 2 histograms), the pool's 5, the front's 9, 6
    // routes, the uptime and the probe cache's 5.
    wait_for_idle(&service, TIMEOUT);
    let deadline = Instant::now() + TIMEOUT;
    while server.open_connections() > 0 {
        assert!(Instant::now() < deadline, "a scrape connection leaked");
        std::thread::sleep(Duration::from_millis(5));
    }
    let audited = server.audit_surfaces().unwrap_or_else(|e| panic!("surfaces disagree:\n{e}"));
    assert_eq!(audited, 57);
}

#[test]
fn malformed_input_gets_http_errors_not_panics() {
    use std::io::Write;
    let (server, service) = serve(ServiceConfig::default(), NetConfig::default());

    // Unknown path and bad method.
    let r = client::request(server.addr(), "GET", "/nope", None, TIMEOUT).unwrap();
    assert_eq!(r.status, 404);
    let r = client::request(server.addr(), "GET", "/submit", None, TIMEOUT).unwrap();
    assert_eq!(r.status, 405);

    // Broken JSON frames, deep-nesting bomb included.
    for body in ["", "{", "{\"task\":7}", "[1,", &"[".repeat(50_000)] {
        let r = client::request(server.addr(), "POST", "/submit", Some(body), TIMEOUT).unwrap();
        assert_eq!(r.status, 400, "body {:?} must 400", &body[..body.len().min(20)]);
    }

    // Unknown task.
    let r = client::request(
        server.addr(),
        "POST",
        "/submit",
        Some(&wire::SubmitWire::task("no-such-task").to_json()),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.status, 404);

    // Cancel without an id, and of an unknown id.
    let r = client::request(server.addr(), "POST", "/cancel", Some("{}"), TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    let r = client::request(server.addr(), "POST", "/cancel", Some("{\"id\":424242}"), TIMEOUT)
        .unwrap();
    assert_eq!(r.status, 200);
    let json = Json::parse(r.body.trim()).unwrap();
    assert_eq!(json.get("cancelled").and_then(Json::as_bool), Some(false));

    // Raw non-HTTP garbage on the socket.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream.write_all(b"\x00\x01\x02 utter garbage\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400"), "garbage must get a 400, got {text:?}");

    // After all that abuse the front still serves.
    let body = wire::SubmitWire::task("fast").to_json();
    let r = client::request(server.addr(), "POST", "/submit", Some(&body), TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    wait_for_idle(&service, TIMEOUT);
}
