//! The per-connection handler: one short-lived thread per accepted socket
//! (sessions themselves are thread-free scheduler-driven state machines, so
//! the thread count tracks open *connections*, not running requests — and a
//! connection thread spends its life blocked on I/O, not computing).
//!
//! Routes:
//!
//! * `GET /stats` — live service + net counters as JSON.
//! * `POST /cancel` — `{"id":N}` cancels a request by service id.
//! * `POST /submit` — streams the run as chunked NDJSON (see
//!   [`crate::wire`]); the handler couples the run to the connection's
//!   lifetime: a disconnect or write stall cancels the run exactly like a
//!   dropped in-process `Ticket`.

use crate::http;
use crate::outbox::{Outbox, Popped};
use crate::wire::{self, SubmitWire};
use crate::ServerCtx;
use duoquest_core::Candidate;
use duoquest_service::json::Json;
use duoquest_service::AdmissionError;
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// How long the streaming loop waits on the outbox before re-checking the
/// run's outcome, the shutdown flag and the peer's liveness.
const POLL: Duration = Duration::from_millis(25);

/// Bound on each connection's outbox, in event lines. When a slow client
/// lets the queue hit this bound the run is shed (cancelled) rather than
/// buffered without limit.
const OUTBOX_CAPACITY: usize = 256;

/// Handle one accepted connection to completion. Never panics outward; all
/// errors resolve into an HTTP error response or a closed socket.
pub(crate) fn handle(mut stream: TcpStream, ctx: Arc<ServerCtx>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.cfg.write_timeout));

    let request = match http::read_request(&mut stream) {
        Ok(request) => request,
        Err(e) => {
            ctx.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                &mut stream,
                e.status,
                "application/json",
                &wire::error_body(&e.reason),
            );
            return;
        }
    };

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/stats") => {
            ctx.metrics.routes.stats.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(&mut stream, 200, "application/json", &ctx.stats_json());
        }
        ("GET", "/metrics") => {
            ctx.metrics.routes.metrics.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                &mut stream,
                200,
                "text/plain; version=0.0.4",
                &ctx.metrics_text(),
            );
        }
        ("GET", path) if path.starts_with("/trace/") => {
            ctx.metrics.routes.trace.fetch_add(1, Ordering::Relaxed);
            handle_trace(&mut stream, &ctx, path);
        }
        ("POST", "/cancel") => {
            ctx.metrics.routes.cancel.fetch_add(1, Ordering::Relaxed);
            handle_cancel(&mut stream, &ctx, &request.body);
        }
        ("POST", "/submit") => {
            ctx.metrics.routes.submit.fetch_add(1, Ordering::Relaxed);
            handle_submit(&mut stream, &ctx, &request.body);
        }
        (_, "/stats" | "/cancel" | "/submit" | "/metrics") => {
            ctx.metrics.routes.other.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                &mut stream,
                405,
                "application/json",
                &wire::error_body("method not allowed on this path"),
            );
        }
        (_, path) if path.starts_with("/trace/") => {
            ctx.metrics.routes.other.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                &mut stream,
                405,
                "application/json",
                &wire::error_body("method not allowed on this path"),
            );
        }
        (_, path) => {
            ctx.metrics.routes.other.fetch_add(1, Ordering::Relaxed);
            let _ = http::write_response(
                &mut stream,
                404,
                "application/json",
                &wire::error_body(&format!("no such path {path:?}")),
            );
        }
    }
}

/// `GET /trace/<id>`: serve a finished request's span timeline from the
/// service's flight recorder. 400 on a malformed id, 404 when the recorder
/// no longer (or never) retains the id — live requests are not served, a
/// trace becomes fetchable when its request resolves.
fn handle_trace(stream: &mut TcpStream, ctx: &ServerCtx, path: &str) {
    let Ok(id) = path["/trace/".len()..].parse::<u64>() else {
        ctx.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        let _ = http::write_response(
            stream,
            400,
            "application/json",
            &wire::error_body("trace path needs an integer request id"),
        );
        return;
    };
    match ctx.service.trace_json(id) {
        Some(body) => {
            let _ = http::write_response(stream, 200, "application/json", &format!("{body}\n"));
        }
        None => {
            let _ = http::write_response(
                stream,
                404,
                "application/json",
                &wire::error_body(&format!("no retained trace for request {id}")),
            );
        }
    }
}

fn handle_cancel(stream: &mut TcpStream, ctx: &ServerCtx, body: &str) {
    let id = Json::parse(body).ok().and_then(|json| json.get("id").and_then(Json::as_u64));
    let Some(id) = id else {
        ctx.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        let _ = http::write_response(
            stream,
            400,
            "application/json",
            &wire::error_body("cancel frame needs an integer \"id\" field"),
        );
        return;
    };
    let cancelled = ctx.service.cancel(id);
    if cancelled {
        ctx.metrics.remote_cancels.fetch_add(1, Ordering::Relaxed);
    }
    let _ = http::write_response(
        stream,
        200,
        "application/json",
        &format!("{{\"id\":{id},\"cancelled\":{cancelled}}}\n"),
    );
}

fn handle_submit(stream: &mut TcpStream, ctx: &ServerCtx, body: &str) {
    let frame = match SubmitWire::parse(body) {
        Ok(frame) => frame,
        Err(reason) => {
            ctx.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            let _ =
                http::write_response(stream, 400, "application/json", &wire::error_body(&reason));
            return;
        }
    };
    let Some(db) = ctx.registry.get(&frame.task).map(|spec| Arc::clone(&spec.db)) else {
        ctx.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        let _ = http::write_response(
            stream,
            404,
            "application/json",
            &wire::error_body(&format!("unknown task {:?}", frame.task)),
        );
        return;
    };
    let request = ctx.registry.build_request(&frame).expect("task resolved above");

    // The observer runs on pool workers: render the event line and push it
    // to the bounded outbox. A full outbox (client slower than the engine,
    // kernel socket buffer already full) fails the push; returning false
    // stops the run — the service resolves it as cancelled and this thread
    // reports `shed:true`.
    let outbox = Arc::new(Outbox::new(OUTBOX_CAPACITY));
    let sink = Arc::clone(&outbox);
    let mut emit_index = 0usize;
    let observer = Box::new(move |candidate: &Candidate| {
        let line = wire::candidate_line(emit_index, candidate, db.schema());
        emit_index += 1;
        sink.push(line).is_ok()
    });

    let mut ticket = match ctx.service.submit_with_observer(request, observer) {
        Ok(ticket) => ticket,
        Err(error) => {
            let status = match error {
                AdmissionError::Overloaded { .. } => {
                    ctx.metrics.admission_shed.fetch_add(1, Ordering::Relaxed);
                    503
                }
                AdmissionError::ShuttingDown => 503,
            };
            let _ = http::write_response(
                stream,
                status,
                "application/json",
                &wire::error_body(&error.to_string()),
            );
            return;
        }
    };
    ctx.metrics.submits.fetch_add(1, Ordering::Relaxed);

    if http::write_chunked_head(stream, "application/x-ndjson").is_err()
        || http::write_chunk(stream, &wire::accepted_line(ticket.id())).is_err()
    {
        // Peer vanished before the stream even started: drop the ticket,
        // which cancels the run.
        ctx.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
        return;
    }

    let mut delivered = 0usize;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            // Server going down: cancel the run, answer with a terminal
            // error line, close.
            ticket.cancel();
            let _ = http::write_chunk(stream, &wire::error_line("server shutting down"));
            let _ = http::write_chunk_end(stream);
            return;
        }
        match outbox.pop_wait(POLL) {
            Popped::Line(line) => {
                if http::write_chunk(stream, &line).is_err() {
                    // Write failed or timed out: the client is gone or
                    // wedged. Dropping the ticket cancels the run and reaps
                    // its queued pool units — a dead client behaves exactly
                    // like a dropped in-process ticket.
                    ctx.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                delivered += 1;
            }
            Popped::Empty | Popped::Closed => {
                if ticket.try_wait().is_some() {
                    break;
                }
                if client_gone(stream) {
                    ctx.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
                    return; // ticket drop cancels the run
                }
            }
        }
    }

    // The run resolved. The observer (and with it the last push) completed
    // before the outcome was delivered, so one final drain empties the
    // stream, then the terminal line reports how the run ended.
    for line in outbox.drain() {
        if http::write_chunk(stream, &line).is_err() {
            ctx.metrics.disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        delivered += 1;
    }
    let shed = outbox.overflowed();
    if shed {
        ctx.metrics.overflow_shed.fetch_add(1, Ordering::Relaxed);
    }
    let id = ticket.id();
    let outcome = ticket.try_wait().expect("outcome checked above").clone();
    ctx.metrics.completed.fetch_add(1, Ordering::Relaxed);
    let _ = http::write_chunk(stream, &wire::done_line(id, &outcome, delivered, shed));
    let _ = http::write_chunk_end(stream);
}

/// Probe whether the peer hung up while the stream is idle: a non-blocking
/// read returning 0 is EOF (client closed); `WouldBlock` means alive.
/// Anything the client pipelines after its request is read and ignored.
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 64];
    let gone = match (&*stream).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    stream.set_nonblocking(false).is_err() || gone
}
