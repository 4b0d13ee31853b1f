//! The load generator's socket client: one connection per request (the
//! front has no keep-alive), a client-side timestamp on every NDJSON line,
//! and the correctness check applied to a finished exchange.

use crate::workload::Instance;
use duoquest_net::client::{send_request, ResponseDecoder};
use duoquest_service::json::Json;
use duoquest_sql::{parse_query, queries_equivalent};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Generous: the slowest request of any workload finishes in well under a
/// second; a read that waits this long is a hung server.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// Everything the client saw of one `POST /submit`.
pub struct Exchange {
    pub status: u16,
    /// Decoded NDJSON lines with their arrival time in ns from `started`.
    pub lines: Vec<(u64, String)>,
    /// Request bytes written plus response bytes read.
    pub wire_bytes: usize,
}

/// Submit `body` and read the stream to its end. `on_line` sees each NDJSON
/// line as it arrives (the traced run records a span there; the end-to-end
/// run passes a no-op).
pub fn submit(addr: SocketAddr, body: &str, mut on_line: impl FnMut(&str)) -> io::Result<Exchange> {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    send_request(&mut stream, "POST", "/submit", Some(body))?;
    let mut decoder = ResponseDecoder::new();
    let mut lines = Vec::new();
    let mut wire_bytes = body.len();
    let mut buf = [0u8; 16 * 1024];
    while !decoder.is_done() {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        wire_bytes += n;
        decoder.feed(&buf[..n]);
        let at = started.elapsed().as_nanos() as u64;
        for line in decoder.take_lines() {
            on_line(&line);
            lines.push((at, line));
        }
    }
    Ok(Exchange { status: decoder.status().unwrap_or(0), lines, wire_bytes })
}

/// Client-side timings of one correct exchange, in ns from connect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    /// The `accepted` line.
    pub accepted_ns: u64,
    /// The first `candidate` line, if any candidate was streamed.
    pub first_candidate_ns: Option<u64>,
    /// The first candidate equivalent to the gold query, and its 0-based
    /// position in the stream.
    pub gold: Option<(usize, u64)>,
    /// The line before `done` (last candidate, or `accepted`).
    pub last_before_done_ns: u64,
    /// The `done` line.
    pub done_ns: u64,
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key).ok_or_else(|| format!("event line without {key:?}"))
}

/// Check one exchange against the protocol, the instance's schema and gold
/// query and (when given) the in-process reference stream. The error says
/// why the request counts as failed.
pub fn check(
    exchange: &Exchange,
    instance: &Instance,
    reference: Option<&[String]>,
) -> Result<Timings, String> {
    if exchange.status != 200 {
        return Err(format!("HTTP status {}", exchange.status));
    }
    let schema = instance.db.schema();
    let mut accepted_ns = None;
    let mut candidate_ns: Vec<u64> = Vec::new();
    let mut gold = None;
    let mut done = None;
    for (at, line) in &exchange.lines {
        if done.is_some() {
            return Err("line after the terminal event".into());
        }
        let json = Json::parse(line).map_err(|e| format!("unparseable event line: {e}"))?;
        match field(&json, "event")?.as_str() {
            Some("accepted") => accepted_ns = Some(*at),
            Some("candidate") => {
                let index = candidate_ns.len();
                if let Some(reference) = reference {
                    if reference.get(index).map(String::as_str) != Some(line.as_str()) {
                        return Err(format!("candidate {index} differs from the reference"));
                    }
                }
                let sql = field(&json, "sql")?.as_str().ok_or("candidate sql is not a string")?;
                let spec = parse_query(schema, sql)
                    .map_err(|e| format!("candidate {index} does not parse ({e}): {sql}"))?;
                if gold.is_none() && queries_equivalent(&spec, &instance.gold) {
                    gold = Some((index, *at));
                }
                candidate_ns.push(*at);
            }
            Some("done") => {
                let status = field(&json, "status")?.as_str();
                if status != Some("completed") {
                    return Err(format!("terminal status {status:?}"));
                }
                let reported = field(&json, "candidates")?.as_u64();
                if reported != Some(candidate_ns.len() as u64) {
                    return Err(format!(
                        "done reports {reported:?} candidates, {} lines received",
                        candidate_ns.len()
                    ));
                }
                done = Some(*at);
            }
            other => return Err(format!("unexpected event {other:?}")),
        }
    }
    let accepted_ns = accepted_ns.ok_or("no accepted line")?;
    let done_ns = done.ok_or("stream ended without a done line")?;
    if let Some(reference) = reference {
        if reference.len() != candidate_ns.len() {
            return Err(format!(
                "{} candidates streamed, the reference has {}",
                candidate_ns.len(),
                reference.len()
            ));
        }
    }
    Ok(Timings {
        accepted_ns,
        first_candidate_ns: candidate_ns.first().copied(),
        gold,
        last_before_done_ns: candidate_ns.last().copied().unwrap_or(accepted_ns),
        done_ns,
    })
}
