//! # duoquest-net
//!
//! The dependency-free TCP serving front for the Duoquest synthesis
//! service: a hand-rolled HTTP/1.1 edge (no async runtime, no HTTP crate)
//! that exposes the in-process [`SynthesisService`] over real sockets with
//! **streamed** candidate delivery.
//!
//! ```text
//!  client ──POST /submit──► acceptor thread ──► connection thread
//!                                                    │ submit_with_observer
//!                                                    ▼
//!                       pool workers ──candidate──► bounded Outbox
//!                                                    │ pop + chunked write
//!                                                    ▼
//!                                     NDJSON events over one response
//! ```
//!
//! Five routes (`docs/OBSERVABILITY.md` covers the scraping surface):
//!
//! * `POST /submit` — admit a named task; the response is a chunked NDJSON
//!   stream of `accepted` / `candidate` / `done` events, candidates
//!   delivered **as they are emitted** (see [`wire`]).
//! * `POST /cancel` — cancel a request by its service id, from any
//!   connection.
//! * `GET /stats` — live [`ServiceStats`](duoquest_service::ServiceStats)
//!   JSON wrapped with the net front's own counters, per-route request
//!   counts and server uptime.
//! * `GET /metrics` — the whole stack's counters, gauges and latency
//!   histograms in the Prometheus text format.
//! * `GET /trace/<id>` — a finished request's span timeline as JSON, from
//!   the service's flight recorder.
//!
//! **Backpressure feeds admission.** Each connection owns a bounded
//! [`Outbox`](outbox::Outbox) that the engine-side observer pushes into: a
//! client that stops reading fills the kernel socket buffer, then stalls
//! the writer (bounded by a write timeout), then fills the outbox — at
//! which point the observer returns `false` and the service **cancels the
//! run** (`shed:true` on the terminal event). A disconnected client is
//! detected by write failure or an EOF probe and reaps its session exactly
//! like a dropped in-process [`Ticket`](duoquest_service::Ticket) — slots
//! free, queued work promotes, nothing leaks. `docs/NET.md` walks the full
//! contract.
//!
//! Threading: one acceptor thread plus one small-stack thread per **open
//! connection** (I/O-bound; requests themselves stay thread-free
//! scheduler-driven sessions). A thousand idle streaming connections cost
//! a thousand parked threads and zero engine threads — the load-generator
//! example (`examples/net_load.rs`) drives exactly that shape.

#![warn(missing_docs)]

pub mod client;
mod conn;
pub mod http;
pub mod outbox;
mod registry;
pub mod wire;

pub use registry::{TaskRegistry, TaskSpec};

// The wire dialect's reader/escaper, re-exported so clients of the front
// can parse event lines without depending on `duoquest-service` directly.
pub use duoquest_service::json;

use duoquest_core::SharedClock;
use duoquest_db::{CacheStats, Database};
use duoquest_obs::{Exposition, JsonObject, Reading, Series, Surface};
use duoquest_service::SynthesisService;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use Reading::{Counter, Gauge};

/// Stack size of per-connection threads. Connection threads only do I/O and
/// string shuffling, so this stays far below the Rust default thread stack —
/// what lets 1k+ concurrent connections fit comfortably.
const CONN_STACK_BYTES: usize = 128 * 1024;

/// Socket timeouts of the TCP front (deployment settings).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Socket write timeout. A write stalled this long (client wedged with
    /// full kernel buffers) counts as a disconnect and cancels the run.
    pub write_timeout: Duration,
    /// Socket read timeout while parsing a request head/body.
    pub read_timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { write_timeout: Duration::from_secs(2), read_timeout: Duration::from_secs(5) }
    }
}

/// Per-route request counters: every request whose head parses increments
/// exactly one of these, so their sum is the total routed request count.
#[derive(Debug, Default)]
pub struct RouteCounters {
    /// `GET /stats` hits.
    pub stats: AtomicU64,
    /// `POST /submit` hits (including ones later refused at admission).
    pub submit: AtomicU64,
    /// `POST /cancel` hits.
    pub cancel: AtomicU64,
    /// `GET /metrics` scrapes.
    pub metrics: AtomicU64,
    /// `GET /trace/<id>` fetches.
    pub trace: AtomicU64,
    /// Requests to unknown paths or with the wrong method (404/405).
    pub other: AtomicU64,
}

impl RouteCounters {
    /// One series per route, in a fixed order: a key of the `"routes"`
    /// object in `/stats`, and a `route` label on `duoquest_net_requests_total`
    /// in `/metrics`.
    pub fn series(&self) -> [Series<'static>; 6] {
        [
            ("stats", &self.stats),
            ("submit", &self.submit),
            ("cancel", &self.cancel),
            ("metrics", &self.metrics),
            ("trace", &self.trace),
            ("other", &self.other),
        ]
        .map(|(route, count)| {
            Series::new(
                route,
                "duoquest_net_requests_total",
                "HTTP requests by route.",
                Counter(count.load(Ordering::Relaxed)),
            )
            .labelled("route", route)
        })
    }
}

/// The net front's own counters, served alongside the service stats.
#[derive(Debug, Default)]
pub struct NetMetrics {
    /// Connections accepted since bind.
    pub accepted: AtomicU64,
    /// Currently open connections (gauge).
    pub open: AtomicUsize,
    /// Requests admitted through `/submit`.
    pub submits: AtomicU64,
    /// Submit streams that reached their terminal `done` event.
    pub completed: AtomicU64,
    /// Requests refused at admission (HTTP 503).
    pub admission_shed: AtomicU64,
    /// Runs cut because a connection's outbox overflowed (slow reader).
    pub overflow_shed: AtomicU64,
    /// Runs cut because the client disconnected or wedged mid-stream.
    pub disconnects: AtomicU64,
    /// Successful `POST /cancel` hits.
    pub remote_cancels: AtomicU64,
    /// Requests rejected before admission (bad frame, unknown task …).
    pub bad_requests: AtomicU64,
    /// Per-route request counts.
    pub routes: RouteCounters,
}

impl NetMetrics {
    /// The front's own counters as series, declared once: the `"net"`
    /// object of `/stats` and the `duoquest_net_*` families of `/metrics`.
    pub fn series(&self) -> [Series<'static>; 9] {
        let load = |count: &AtomicU64| count.load(Ordering::Relaxed);
        [
            Series::new(
                "accepted",
                "duoquest_net_connections_accepted_total",
                "Connections accepted since bind.",
                Counter(load(&self.accepted)),
            ),
            Series::new(
                "open",
                "duoquest_net_connections_open",
                "Currently open connections.",
                Gauge(self.open.load(Ordering::Relaxed) as u64),
            ),
            Series::new(
                "submits",
                "duoquest_net_submits_total",
                "Requests admitted through POST /submit.",
                Counter(load(&self.submits)),
            ),
            Series::new(
                "completed",
                "duoquest_net_streams_completed_total",
                "Submit streams that reached their terminal done event.",
                Counter(load(&self.completed)),
            ),
            Series::new(
                "admission_shed",
                "duoquest_net_admission_shed_total",
                "Requests refused at admission (HTTP 503).",
                Counter(load(&self.admission_shed)),
            ),
            Series::new(
                "overflow_shed",
                "duoquest_net_overflow_shed_total",
                "Runs cut because a connection outbox overflowed (slow reader).",
                Counter(load(&self.overflow_shed)),
            ),
            Series::new(
                "disconnects",
                "duoquest_net_disconnects_total",
                "Runs cut because the client disconnected or wedged mid-stream.",
                Counter(load(&self.disconnects)),
            ),
            Series::new(
                "remote_cancels",
                "duoquest_net_remote_cancels_total",
                "Successful POST /cancel hits.",
                Counter(load(&self.remote_cancels)),
            ),
            Series::new(
                "bad_requests",
                "duoquest_net_bad_requests_total",
                "Requests rejected before admission (bad frame, unknown task).",
                Counter(load(&self.bad_requests)),
            ),
        ]
    }
}

/// The probe-cache counters as series, declared once: the `"cache"` object
/// of `/stats` and the `duoquest_db_*` families of `/metrics`.
fn cache_series(cache: &CacheStats) -> [Series<'static>; 5] {
    [
        Series::new(
            "hits",
            "duoquest_db_probe_cache_hits_total",
            "Probes answered from the probe cache, over distinct databases.",
            Counter(cache.hits),
        ),
        Series::new(
            "misses",
            "duoquest_db_probe_cache_misses_total",
            "Probes that had to run the executor, over distinct databases.",
            Counter(cache.misses),
        ),
        Series::new(
            "bytes",
            "duoquest_db_probe_cache_bytes",
            "Estimated bytes of cached probe results currently retained.",
            Gauge(cache.bytes),
        ),
        Series::new(
            "entries",
            "duoquest_db_probe_cache_entries",
            "Cached probe entries currently retained.",
            Gauge(cache.entries),
        ),
        Series::new(
            "rotations",
            "duoquest_db_probe_cache_rotations_total",
            "Probe-cache segment rotations (generations aged out).",
            Counter(cache.rotations),
        ),
    ]
}

/// Everything a connection thread needs, shared behind one `Arc`.
pub(crate) struct ServerCtx {
    pub(crate) service: Arc<SynthesisService>,
    pub(crate) registry: TaskRegistry,
    pub(crate) cfg: NetConfig,
    pub(crate) metrics: NetMetrics,
    pub(crate) shutdown: AtomicBool,
    /// The service clock — uptime is measured on it, so a simulated run
    /// reports simulated uptime (no real-time leak into the stats surface).
    pub(crate) clock: SharedClock,
    /// The clock's reading when the server bound its listener.
    pub(crate) started: Instant,
}

impl ServerCtx {
    /// Walk every series the front serves into `surface` — `GET /stats` and
    /// `GET /metrics` both render this walk. The probe cache is summed over
    /// the registry's **distinct** databases (deduplicated by `Arc` pointer).
    pub(crate) fn render(&self, surface: &mut dyn Surface) {
        surface.open("service");
        self.service.stats().render(surface);
        surface.close();
        surface.section("net", &self.metrics.series());
        surface.section("routes", &self.metrics.routes.series());
        surface.series(&Series::new(
            "uptime_us",
            "duoquest_net_uptime_us",
            "Server uptime in microseconds, on the service clock.",
            Gauge(self.clock.now().saturating_duration_since(self.started).as_micros() as u64),
        ));
        let mut dbs: Vec<&Arc<Database>> = Vec::new();
        for spec in self.registry.specs() {
            if !dbs.iter().any(|db| Arc::ptr_eq(db, &spec.db)) {
                dbs.push(&spec.db);
            }
        }
        let cache: CacheStats = dbs.iter().map(|db| db.cache_stats()).sum();
        surface.section("cache", &cache_series(&cache));
    }

    /// The `GET /stats` body: [`ServerCtx::render`] as one JSON object.
    pub(crate) fn stats_json(&self) -> String {
        let mut json = JsonObject::default();
        self.render(&mut json);
        json.finish() + "\n"
    }

    /// The `GET /metrics` body: [`ServerCtx::render`] in the Prometheus
    /// text format.
    pub(crate) fn metrics_text(&self) -> String {
        let mut expo = Exposition::default();
        self.render(&mut expo);
        expo.finish()
    }
}

/// A bound, accepting TCP front over one [`SynthesisService`].
///
/// Bind with [`NetServer::bind`]; the acceptor runs until the server is
/// shut down (explicitly or on drop). Shutdown cancels in-flight streams'
/// runs and waits briefly for connection threads to drain.
pub struct NetServer {
    ctx: Arc<ServerCtx>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port — [`NetServer::addr`]
    /// reports the actual one) and start accepting.
    pub fn bind(
        addr: &str,
        service: Arc<SynthesisService>,
        registry: TaskRegistry,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let clock = service.clock();
        let started = clock.now();
        let ctx = Arc::new(ServerCtx {
            service,
            registry,
            cfg,
            metrics: NetMetrics::default(),
            shutdown: AtomicBool::new(false),
            clock,
            started,
        });
        let acceptor_ctx = Arc::clone(&ctx);
        let acceptor = thread::Builder::new()
            .name("duoquest-net-acceptor".into())
            .spawn(move || accept_loop(listener, acceptor_ctx))
            .expect("spawning the acceptor thread");
        Ok(NetServer { ctx, local_addr, acceptor: Some(acceptor) })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The net front's counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.ctx.metrics
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> usize {
        self.ctx.metrics.open.load(Ordering::Relaxed)
    }

    /// The `GET /stats` body, as served (for in-process scraping).
    pub fn stats_json(&self) -> String {
        self.ctx.stats_json()
    }

    /// The `GET /metrics` body, as served (Prometheus text format).
    pub fn metrics_text(&self) -> String {
        self.ctx.metrics_text()
    }

    /// Check that `GET /stats` and `GET /metrics` serve the same series with
    /// the same values, and nothing else, and that the exposition is valid;
    /// returns the number of series. Call it at a quiescent point: only the
    /// uptime may move, between the two `/stats` reads around the scrape.
    pub fn audit_surfaces(&self) -> Result<usize, String> {
        let before = self.ctx.stats_json();
        let metrics = self.ctx.metrics_text();
        let after = self.ctx.stats_json();
        audit([&before, &after], &metrics, |surface| self.ctx.render(surface))
    }

    /// Stop accepting, cancel in-flight streams, and wait up to `grace`
    /// for connection threads to drain. Idempotent.
    pub fn shutdown(&mut self, grace: Duration) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor's `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let deadline = Instant::now() + grace;
        while self.open_connections() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(5));
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.local_addr)
            .field("open_connections", &self.open_connections())
            .finish()
    }
}

/// [`NetServer::audit_surfaces`] over two `/stats` bodies and the
/// `/metrics` body scraped between them; `walk` declares the series.
fn audit(
    stats: [&str; 2],
    metrics: &str,
    walk: impl FnOnce(&mut dyn Surface),
) -> Result<usize, String> {
    let parse = |body: &str| json::Json::parse(body.trim()).map_err(|e| format!("/stats: {e}"));
    let stats = [parse(stats[0])?, parse(stats[1])?];
    duoquest_obs::validate_exposition(metrics)?;
    let samples: Vec<_> = metrics.lines().filter_map(|line| line.rsplit_once(' ')).collect();
    let samples = samples.into_iter().filter(|(name, _)| !name.starts_with('#'));
    let samples: Vec<_> = samples.map(|(name, value)| (name, value.parse().ok())).collect();
    let mut audit = Audit {
        stats: [&stats[0], &stats[1]],
        samples: samples.iter().copied().collect(),
        path: Vec::new(),
        series: 0,
        values: [0, 0],
        errors: Vec::new(),
    };
    walk(&mut audit);
    fn leaves(doc: &json::Json) -> usize {
        match doc {
            json::Json::Object(members) => members.iter().map(|(_, v)| leaves(v)).sum(),
            _ => 1,
        }
    }
    let served = [leaves(&stats[0]), samples.len()];
    if served != audit.values {
        audit.errors.push(format!(
            "/stats holds {} values and /metrics {} samples; the declared series make {:?}",
            served[0], served[1], audit.values
        ));
    }
    match audit.errors.is_empty() {
        true => Ok(audit.series),
        false => Err(audit.errors.join("\n")),
    }
}

/// The walk [`audit`] makes: each declared series looked up in the bodies.
struct Audit<'a> {
    stats: [&'a json::Json; 2],
    samples: HashMap<&'a str, Option<u64>>,
    path: Vec<String>,
    series: usize,
    /// Values the declared series put in `/stats` and samples in `/metrics`.
    values: [usize; 2],
    errors: Vec<String>,
}

impl Surface for Audit<'_> {
    fn series(&mut self, series: &Series<'_>) {
        self.series += 1;
        let label = series.label.map(|(name, value)| format!("{{{name}=\"{value}\"}}"));
        let label = label.unwrap_or_default();
        let at = format!("{}.{} vs {}{label}", self.path.join("."), series.key, series.family);
        let stats = |doc: &json::Json, key: &str| {
            self.path.iter().try_fold(doc, |at, k| at.get(k))?.get(key).cloned()
        };
        if let Reading::Histogram(_) = series.reading {
            self.values[0] += 2;
            self.values[1] += duoquest_obs::metrics::BUCKETS + 2;
            let count = self.samples.get(format!("{}_count{label}", series.family).as_str());
            for suffix in ["_p50_us", "_p95_us"] {
                let quantile = stats(self.stats[0], &format!("{}{suffix}", series.key));
                if count.is_none() || quantile.map(|q| q.is_null()) != count.map(|c| c == &Some(0))
                {
                    self.errors.push(format!("{at}: {suffix} vs _count {count:?}"));
                }
            }
            return;
        }
        self.values[0] += 1;
        self.values[1] += 1;
        let [lo, hi] = self.stats.map(|doc| stats(doc, series.key).and_then(|v| v.as_u64()));
        let sample = self.samples.get(format!("{}{label}", series.family).as_str());
        match (lo, sample.copied().flatten(), hi) {
            (Some(lo), Some(value), Some(hi)) if lo <= value && value <= hi => {}
            (lo, value, hi) => self.errors.push(format!("{at}: {lo:?}..{hi:?} vs {value:?}")),
        }
    }

    fn open(&mut self, key: &str) {
        self.path.push(key.to_string());
    }

    fn close(&mut self) {
        self.path.pop();
    }
}

fn accept_loop(listener: TcpListener, ctx: Arc<ServerCtx>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if ctx.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        ctx.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        ctx.metrics.open.fetch_add(1, Ordering::Relaxed);
        let conn_ctx = Arc::clone(&ctx);
        let spawned = thread::Builder::new()
            .name("duoquest-net-conn".into())
            .stack_size(CONN_STACK_BYTES)
            .spawn(move || {
                // The gauge decrements however the handler exits; handler
                // errors resolve into closed sockets, not unwinding, but a
                // guard keeps the gauge honest even against a bug.
                struct OpenGuard<'a>(&'a AtomicUsize);
                impl Drop for OpenGuard<'_> {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                let _guard = OpenGuard(&conn_ctx.metrics.open);
                conn::handle(stream, Arc::clone(&conn_ctx));
            });
        if spawned.is_err() {
            // Thread exhaustion: shed the connection instead of dying.
            ctx.metrics.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_obs::{Histogram, JsonObject};

    /// The audit's own oracle: bodies rendered from the declarations pass,
    /// and a value that differs, or that one surface lacks, fails.
    #[test]
    fn the_audit_rejects_a_series_served_on_one_surface_only() {
        let ttfc = Histogram::default().snapshot();
        let declared = [
            Series::new("shed", "m_shed_total", "Shed.", Counter(3)).labelled("class", "batch"),
            Series::new("ttfc", "m_ttfc_us", "TTFC.", Reading::Histogram(&ttfc)),
        ];
        let walk = |surface: &mut dyn Surface| surface.section("x", &declared);
        let mut json = JsonObject::default();
        walk(&mut json);
        let stats = json.finish();
        let mut expo = Exposition::default();
        walk(&mut expo);
        let metrics = expo.finish();
        assert_eq!(audit([&stats, &stats], &metrics, walk), Ok(2));

        let other =
            metrics.replace("m_shed_total{class=\"batch\"} 3", "m_shed_total{class=\"batch\"} 4");
        assert!(audit([&stats, &stats], &other, walk).is_err(), "a value differs");
        let extra = stats.replace("}}", "},\"y\":1}");
        assert!(audit([&extra, &extra], &metrics, walk).is_err(), "a /stats-only value");
        let extra = format!("{metrics}# HELP y Y.\n# TYPE y gauge\ny 1\n");
        assert!(audit([&stats, &stats], &extra, walk).is_err(), "a /metrics-only sample");
        let only = |surface: &mut dyn Surface| surface.section("x", &declared[1..]);
        assert!(audit([&stats, &stats], &metrics, only).is_err(), "an undeclared pair");
    }
}
