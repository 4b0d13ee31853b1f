//! The connection-lifecycle walk: a scenario's [`NetPlan`] driven against a
//! real TCP front.
//!
//! Real sockets cannot run on the virtual clock, so — unlike the service
//! runs — the net walk states no timeline oracles. What it can and does
//! hold the front to are the content and conservation contracts:
//!
//! * a stream whose terminal event says `completed` without shed is
//!   **byte-identical** to the solo single-worker reference emission;
//! * any interrupted stream (closed socket, remote cancel, overflow shed)
//!   surfaced a strict **prefix** of the reference — never an invented or
//!   reordered candidate;
//! * the terminal event's `candidates` count matches the lines actually
//!   streamed;
//! * whatever the client did — read everything, stall, vanish mid-stream,
//!   cancel from a second connection — the front and the service drain
//!   back to zero open connections, zero live and zero queued sessions.
//!
//! Connections run sequentially so the walk itself is deterministic up to
//! scheduling; every oracle above is schedule-independent.

use crate::scenario::{ConnAction, ConnectionPlan, NetPlan, TASK_COUNT};
use crate::violation::Violation;
use duoquest_core::SynthesisSession;
use duoquest_net::json::Json;
use duoquest_net::{client, wire, NetConfig, NetServer, TaskRegistry, TaskSpec};
use duoquest_service::{ServiceConfig, SynthesisService};
use std::collections::HashMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Patience for one connection's stream and for the post-walk drain (real
/// time: harness patience, not a timeline oracle).
const GRACE: Duration = Duration::from_secs(10);

/// The solo reference emission of a task, rendered through the same wire
/// renderer the front streams with. Cached per (task, budget) across the
/// sweep, like `exec::reference_emission`.
fn reference_lines(task: u8, max_candidates: usize) -> Arc<Vec<String>> {
    type ReferenceMap = HashMap<(u8, usize), Arc<Vec<String>>>;
    static REFERENCES: OnceLock<Mutex<ReferenceMap>> = OnceLock::new();
    let references = REFERENCES.get_or_init(Default::default);
    if let Some(found) =
        references.lock().expect("net reference cache poisoned").get(&(task, max_candidates))
    {
        return Arc::clone(found);
    }
    let db = crate::exec::fixture_db();
    let (nlq, model) = crate::exec::task_model(task);
    let result = SynthesisSession::new(Arc::clone(&db), nlq, model)
        .with_config(crate::exec::engine_config(max_candidates))
        .run();
    let lines = Arc::new(
        result
            .candidates
            .iter()
            .enumerate()
            .map(|(k, c)| wire::candidate_line(k, c, db.schema()).trim_end().to_string())
            .collect::<Vec<_>>(),
    );
    references
        .lock()
        .expect("net reference cache poisoned")
        .entry((task, max_candidates))
        .or_insert(lines)
        .clone()
}

/// Drive a scenario's net plan against a freshly bound front and judge it.
/// `Ok(())` for the empty plan without binding anything.
pub fn check_net_plan(plan: &NetPlan) -> Result<(), Violation> {
    if plan.connections.is_empty() {
        return Ok(());
    }
    let service = Arc::new(SynthesisService::new(ServiceConfig {
        workers: 2,
        max_live_sessions: 4,
        max_queued: 4,
        ..ServiceConfig::default()
    }));
    let mut registry = TaskRegistry::new();
    for task in 0..TASK_COUNT {
        let (nlq, model) = crate::exec::task_model(task);
        registry.register(
            format!("t{task}"),
            TaskSpec {
                db: crate::exec::fixture_db(),
                nlq,
                model,
                tsq: None,
                config: crate::exec::engine_config(8),
            },
        );
    }
    let mut server =
        NetServer::bind("127.0.0.1:0", Arc::clone(&service), registry, NetConfig::default())
            .map_err(|e| Violation::NetStreamDiverged {
                connection: 0,
                detail: format!("front failed to bind: {e}"),
            })?;

    for (index, connection) in plan.connections.iter().enumerate() {
        run_connection(server.addr(), index, connection)?;
    }

    // Conservation: everything the walk touched must drain — no leaked
    // admission slot, no connection held open by a vanished client.
    let deadline = Instant::now() + GRACE;
    loop {
        let stats = service.stats();
        if stats.live_sessions == 0 && stats.queued_requests == 0 && server.open_connections() == 0
        {
            break;
        }
        if Instant::now() > deadline {
            return Err(Violation::NetNoQuiescence {
                live: stats.live_sessions,
                queued: stats.queued_requests,
                open: server.open_connections(),
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown(Duration::from_secs(5));
    Ok(())
}

/// An incrementally read stream on a blocking socket with a read timeout.
struct StreamReader {
    socket: TcpStream,
    decoder: client::ResponseDecoder,
    lines: Vec<String>,
}

impl StreamReader {
    fn submit(
        addr: SocketAddr,
        connection: usize,
        frame: &wire::SubmitWire,
    ) -> Result<Self, Violation> {
        let fail = |detail: String| Violation::NetStreamDiverged { connection, detail };
        let mut socket =
            TcpStream::connect(addr).map_err(|e| fail(format!("connect failed: {e}")))?;
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .map_err(|e| fail(format!("socket setup failed: {e}")))?;
        client::send_request(&mut socket, "POST", "/submit", Some(&frame.to_json()))
            .map_err(|e| fail(format!("submit write failed: {e}")))?;
        Ok(StreamReader { socket, decoder: client::ResponseDecoder::new(), lines: Vec::new() })
    }

    /// Read until `enough(lines, done)` holds or the stream ends. Timeouts
    /// inside the per-connection grace window just retry.
    fn read_until(
        &mut self,
        connection: usize,
        mut enough: impl FnMut(&[String], bool) -> bool,
    ) -> Result<(), Violation> {
        let deadline = Instant::now() + GRACE;
        let mut buf = [0u8; 4096];
        loop {
            if enough(&self.lines, self.decoder.is_done()) || self.decoder.is_done() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(Violation::NetStreamDiverged {
                    connection,
                    detail: format!(
                        "stream stalled: {} lines after the grace period",
                        self.lines.len()
                    ),
                });
            }
            match self.socket.read(&mut buf) {
                Ok(0) => {
                    // EOF: the decoder either saw the terminal chunk (done,
                    // caught next iteration) or the framing broke.
                    if !self.decoder.is_done() {
                        return Err(Violation::NetStreamDiverged {
                            connection,
                            detail: "connection closed mid-stream by the server".into(),
                        });
                    }
                }
                Ok(n) => {
                    self.decoder.feed(&buf[..n]);
                    self.lines.extend(self.decoder.take_lines());
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => {
                    return Err(Violation::NetStreamDiverged {
                        connection,
                        detail: format!("stream read failed: {e}"),
                    });
                }
            }
        }
    }
}

fn candidate_count(lines: &[String]) -> usize {
    lines.iter().filter(|l| l.contains("\"event\":\"candidate\"")).count()
}

fn run_connection(addr: SocketAddr, index: usize, plan: &ConnectionPlan) -> Result<(), Violation> {
    let task = plan.task % TASK_COUNT;
    let budget = plan.max_candidates.max(1);
    let reference = reference_lines(task, budget);
    let mut frame = wire::SubmitWire::task(format!("t{task}"));
    frame.max_candidates = Some(budget);

    match plan.action {
        ConnAction::ReadAll => {
            let mut reader = StreamReader::submit(addr, index, &frame)?;
            reader.read_until(index, |_, done| done)?;
            judge_stream(index, &reader.lines, &reference)
        }
        ConnAction::StallThenRead => {
            let mut reader = StreamReader::submit(addr, index, &frame)?;
            // Let the run emit into the outbox and kernel buffers while the
            // client reads nothing, then drain late.
            std::thread::sleep(Duration::from_millis(30));
            reader.read_until(index, |_, done| done)?;
            judge_stream(index, &reader.lines, &reference)
        }
        ConnAction::CloseAfter(k) => {
            let mut reader = StreamReader::submit(addr, index, &frame)?;
            reader.read_until(index, |lines, _| candidate_count(lines) >= k as usize)?;
            if reader.decoder.is_done() {
                // The run finished before the close could interrupt it.
                return judge_stream(index, &reader.lines, &reference);
            }
            // Drop the socket mid-stream; what was seen must already be a
            // clean prefix. The post-walk drain check proves the reap.
            let seen: Vec<&String> =
                reader.lines.iter().filter(|l| l.contains("\"event\":\"candidate\"")).collect();
            for (k, line) in seen.iter().enumerate() {
                if reference.get(k) != Some(*line) {
                    return Err(Violation::NetStreamDiverged {
                        connection: index,
                        detail: format!("pre-close candidate {k} is not the reference's: {line}"),
                    });
                }
            }
            Ok(())
        }
        ConnAction::CancelThenDrain(k) => {
            let mut reader = StreamReader::submit(addr, index, &frame)?;
            reader.read_until(index, |lines, _| {
                !lines.is_empty() && candidate_count(lines) >= k as usize
            })?;
            let id = reader
                .lines
                .first()
                .and_then(|l| Json::parse(l).ok())
                .and_then(|j| j.get("id").and_then(Json::as_u64))
                .ok_or_else(|| Violation::NetStreamDiverged {
                    connection: index,
                    detail: format!("no accepted id in first line {:?}", reader.lines.first()),
                })?;
            // Cancel from a second connection, then drain this stream to its
            // terminal event (which may still be `completed` if the run won
            // the race — judge_stream accepts either).
            client::request(addr, "POST", "/cancel", Some(&format!("{{\"id\":{id}}}")), GRACE)
                .map_err(|e| Violation::NetStreamDiverged {
                    connection: index,
                    detail: format!("cancel request failed: {e}"),
                })?;
            reader.read_until(index, |_, done| done)?;
            judge_stream(index, &reader.lines, &reference)
        }
    }
}

/// Judge one fully read stream: framing, terminal accounting, and the
/// prefix/byte-identity content contract.
fn judge_stream(index: usize, lines: &[String], reference: &[String]) -> Result<(), Violation> {
    let fail = |detail: String| Err(Violation::NetStreamDiverged { connection: index, detail });
    if lines.len() < 2 {
        return fail(format!("stream too short: {lines:?}"));
    }
    if !lines[0].contains("\"event\":\"accepted\"") {
        return fail(format!("first event is not accepted: {}", lines[0]));
    }
    let done = match Json::parse(lines.last().expect("len checked")) {
        Ok(done) => done,
        Err(e) => return fail(format!("unparseable terminal event: {e}")),
    };
    if done.get("event").and_then(Json::as_str) != Some("done") {
        return fail(format!("terminal event is not done: {}", lines[lines.len() - 1]));
    }
    let candidates = &lines[1..lines.len() - 1];
    if done.get("candidates").and_then(Json::as_u64) != Some(candidates.len() as u64) {
        return fail(format!(
            "terminal event counts {:?} candidates but {} were streamed",
            done.get("candidates").and_then(Json::as_u64),
            candidates.len()
        ));
    }
    for (k, line) in candidates.iter().enumerate() {
        if reference.get(k) != Some(line) {
            return fail(format!("candidate {k} is not the reference's: {line}"));
        }
    }
    let status = done.get("status").and_then(Json::as_str).unwrap_or("?");
    let shed = done.get("shed").and_then(Json::as_bool).unwrap_or(false);
    if status == "completed" && !shed && candidates.len() != reference.len() {
        return fail(format!(
            "completed unshed stream emitted {} of the reference's {} candidates",
            candidates.len(),
            reference.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ConnectionPlan;

    fn plan(connections: Vec<ConnectionPlan>) -> NetPlan {
        NetPlan { connections }
    }

    #[test]
    fn every_connection_action_checks_clean() {
        for action in [
            ConnAction::ReadAll,
            ConnAction::StallThenRead,
            ConnAction::CloseAfter(1),
            ConnAction::CancelThenDrain(0),
        ] {
            let result =
                check_net_plan(&plan(vec![ConnectionPlan { task: 0, max_candidates: 4, action }]));
            assert!(result.is_ok(), "{action:?}: {}", result.unwrap_err());
        }
    }

    #[test]
    fn a_mixed_walk_checks_clean() {
        let result = check_net_plan(&plan(vec![
            ConnectionPlan { task: 0, max_candidates: 3, action: ConnAction::ReadAll },
            ConnectionPlan { task: 1, max_candidates: 5, action: ConnAction::CloseAfter(0) },
            ConnectionPlan { task: 2, max_candidates: 2, action: ConnAction::CancelThenDrain(1) },
            ConnectionPlan { task: 1, max_candidates: 6, action: ConnAction::StallThenRead },
        ]));
        assert!(result.is_ok(), "{}", result.unwrap_err());
    }

    #[test]
    fn the_empty_plan_is_trivially_clean() {
        assert!(check_net_plan(&NetPlan::default()).is_ok());
    }
}
