//! Structured per-request tracing: bounded span/event buffers anchored to
//! one instant, all offsets in microseconds.
//!
//! A trace keeps what it records as packed bytes (`TraceLog`): a span is
//! three varints — its name's index, the zigzag delta of its start from the
//! previous span's and its duration — about 3.3 bytes on the benchmark's
//! traces, and an event is its name's index, its zigzag offset delta and its
//! detail's bytes. The bytes go into fixed 256-byte blocks that never grow,
//! so a trace costs the same while its request runs and after the flight
//! recorder takes it, and what an evicted trace frees is what the next one
//! allocates. Decoding is exact: [`Trace::spans`], [`Trace::events`] and
//! [`Trace::to_json`] return what was recorded, in recording order, for any
//! offsets (a span may end before it starts or last 2^64 − 1 µs).
//!
//! Determinism contract: a [`Trace`] never influences the work it observes —
//! recording appends to a bounded buffer behind a mutex that no hot
//! emission path contends on (a run records a handful of spans per burst of
//! rounds, from the one thread it stands on), so trace content under a
//! simulated clock is fully reproducible and candidate emission is
//! byte-identical with tracing on or off.

use crate::escape_json;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span on a request's timeline, offsets in microseconds from
/// the trace anchor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name.
    pub name: &'static str,
    /// Microseconds from the trace anchor to the span's open.
    pub start_us: u64,
    /// Microseconds from the trace anchor to the span's close.
    pub end_us: u64,
}

/// A point event on a request's timeline (admission, terminal resolution…),
/// with an optional free-form detail string (a status label, a panic
/// message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Static event name.
    pub name: &'static str,
    /// Microseconds from the trace anchor.
    pub at_us: u64,
    /// Optional detail (status label, panic payload…).
    pub detail: Option<String>,
}

/// The name of the root span covering the whole request (submit →
/// resolution). Every other span on a well-formed trace nests inside it.
pub const ROOT_SPAN: &str = "request";

/// The name of the terminal event every resolved request records exactly
/// once (the DST trace-conservation oracle holds this).
pub const TERMINAL_EVENT: &str = "terminal";

/// Bytes per [`TraceLog`] block. A request with a few dozen spans holds one
/// block, a Fig. 10-sized one (≈ 300 spans) five.
const BLOCK_BYTES: usize = 256;

/// How many of a trace's most recently added names a new record's name is
/// looked up among. Real traces use a dozen distinct names, so each gets one
/// entry; a trace cycling through more may store a name twice, which costs
/// an entry and never changes what reads back.
const NAME_WINDOW: usize = 64;

/// The spans and events of one trace in recording order, as one stream of
/// bytes in fixed-size blocks that never reallocate. Each record leads with
/// a varint holding its name's index in `names` and whether it is an event
/// (the low bit); then
///
/// * a span: the zigzag varint of its start minus the previous span's
///   start, and the varint of its end minus its start (both wrapping, so a
///   span that ends before it starts, or one whose offsets are far apart,
///   reads back exactly);
/// * an event: the zigzag varint of its offset minus the previous event's,
///   the varint of its detail's length plus one (0 for none), and the
///   detail's bytes.
///
/// A record may run across a block boundary, so no block has a gap.
#[derive(Default)]
struct TraceLog {
    /// The distinct names, in first-use order; a handful per trace.
    names: Vec<&'static str>,
    /// Each `BLOCK_BYTES` long, allocated once; all full but the last.
    blocks: Vec<Box<[u8]>>,
    /// Bytes written.
    len: usize,
    spans: usize,
    events: usize,
    /// The start of the last span and the offset of the last event: what
    /// the next record's delta is taken from.
    last_start_us: u64,
    last_at_us: u64,
}

impl TraceLog {
    fn records(&self) -> usize {
        self.spans + self.events
    }

    fn push_span(&mut self, span: &SpanRecord) {
        self.header(span.name, false);
        self.varint(zigzag(span.start_us.wrapping_sub(self.last_start_us)));
        self.varint(span.end_us.wrapping_sub(span.start_us));
        self.last_start_us = span.start_us;
        self.spans += 1;
    }

    fn push_event(&mut self, name: &'static str, at_us: u64, detail: Option<&str>) {
        self.header(name, true);
        self.varint(zigzag(at_us.wrapping_sub(self.last_at_us)));
        self.varint(detail.map_or(0, |d| d.len() as u64 + 1));
        self.put(detail.unwrap_or_default().as_bytes());
        self.last_at_us = at_us;
        self.events += 1;
    }

    fn header(&mut self, name: &'static str, event: bool) {
        let recent = self.names.iter().rev().take(NAME_WINDOW).position(|n| *n == name);
        let index = match recent {
            Some(back) => self.names.len() - 1 - back,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        self.varint((index as u64) << 1 | u64::from(event));
    }

    fn varint(&mut self, mut value: u64) {
        let mut buf = [0u8; 10];
        let mut n = 0;
        while value >= 0x80 {
            buf[n] = value as u8 | 0x80;
            value >>= 7;
            n += 1;
        }
        buf[n] = value as u8;
        self.put(&buf[..=n]);
    }

    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let at = self.len % BLOCK_BYTES;
            if at == 0 && self.len / BLOCK_BYTES == self.blocks.len() {
                self.blocks.push(vec![0; BLOCK_BYTES].into_boxed_slice());
            }
            let take = bytes.len().min(BLOCK_BYTES - at);
            let block = self.blocks.last_mut().expect("a block with room");
            block[at..at + take].copy_from_slice(&bytes[..take]);
            self.len += take;
            bytes = &bytes[take..];
        }
    }

    /// Every record, in recording order.
    fn iter(&self) -> Records<'_> {
        Records { log: self, at: 0, last_start_us: 0, last_at_us: 0 }
    }

    fn spans(&self) -> impl Iterator<Item = SpanRecord> + '_ {
        self.iter().filter_map(|record| match record {
            Record::Span(span) => Some(span),
            Record::Event { .. } => None,
        })
    }

    /// The events as `(name, at_us, the detail's byte range)`.
    fn events(&self) -> impl Iterator<Item = (&'static str, u64, Option<Range<usize>>)> + '_ {
        self.iter().filter_map(|record| match record {
            Record::Event { name, at_us, detail } => Some((name, at_us, detail)),
            Record::Span(_) => None,
        })
    }

    /// The detail an event's range covers.
    fn detail(&self, range: Range<usize>) -> String {
        let bytes = range.map(|at| self.byte(at)).collect();
        String::from_utf8(bytes).expect("a detail is written from a `str`")
    }

    fn byte(&self, at: usize) -> u8 {
        self.blocks[at / BLOCK_BYTES][at % BLOCK_BYTES]
    }
}

/// The zigzag map of a wrapping difference: small moves either way become
/// small unsigned numbers (0, −1, 1, −2… → 0, 1, 2, 3…).
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(value: u64) -> u64 {
    (value >> 1) ^ (value & 1).wrapping_neg()
}

/// One decoded record; an event's detail stays in the log until asked for.
enum Record {
    Span(SpanRecord),
    Event { name: &'static str, at_us: u64, detail: Option<Range<usize>> },
}

/// A decoding pass over a [`TraceLog`].
struct Records<'a> {
    log: &'a TraceLog,
    at: usize,
    last_start_us: u64,
    last_at_us: u64,
}

impl Records<'_> {
    fn varint(&mut self) -> u64 {
        let mut value = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.log.byte(self.at);
            self.at += 1;
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                break;
            }
        }
        value
    }
}

impl Iterator for Records<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.at == self.log.len {
            return None;
        }
        let header = self.varint();
        let name = self.log.names[(header >> 1) as usize];
        if header & 1 == 0 {
            let start_us = self.last_start_us.wrapping_add(unzigzag(self.varint()));
            let end_us = start_us.wrapping_add(self.varint());
            self.last_start_us = start_us;
            return Some(Record::Span(SpanRecord { name, start_us, end_us }));
        }
        let at_us = self.last_at_us.wrapping_add(unzigzag(self.varint()));
        self.last_at_us = at_us;
        let detail = match self.varint() {
            0 => None,
            len => {
                let start = self.at;
                self.at += len as usize - 1;
                Some(start..self.at)
            }
        };
        Some(Record::Event { name, at_us, detail })
    }
}

/// One request's timeline: a bounded buffer of spans and events, anchored
/// to the instant the request was submitted. All recording APIs take
/// `Instant`s read from the **caller's** clock, so a service running on a
/// simulated clock produces traces entirely on the virtual timeline.
///
/// The buffer is bounded ([`Trace::with_capacity`]); past the bound, new
/// spans are counted in `dropped` instead of retained, so a pathological
/// request can never balloon its trace.
pub struct Trace {
    id: u64,
    anchor: Instant,
    cap: usize,
    log: Mutex<TraceLog>,
    dropped: AtomicU64,
    anomalous: AtomicBool,
}

/// Default bound on retained spans + events per trace.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Trace {
    /// A trace for request `id`, anchored at `anchor` (normally the submit
    /// instant, read from the service's clock), with the default buffer
    /// bound.
    pub fn new(id: u64, anchor: Instant) -> Self {
        Trace::with_capacity(id, anchor, DEFAULT_TRACE_CAPACITY)
    }

    /// A trace with an explicit bound on retained spans + events.
    pub fn with_capacity(id: u64, anchor: Instant, cap: usize) -> Self {
        Trace {
            id,
            anchor,
            cap: cap.max(2),
            log: Mutex::new(TraceLog::default()),
            dropped: AtomicU64::new(0),
            anomalous: AtomicBool::new(false),
        }
    }

    /// The request id this trace describes.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The anchor instant (offset 0 of the timeline).
    pub fn anchor(&self) -> Instant {
        self.anchor
    }

    /// Microseconds from the anchor to `at` (0 if `at` precedes the anchor).
    pub fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.anchor).as_micros() as u64
    }

    /// Record a completed span from absolute instants.
    pub fn record_span(&self, name: &'static str, start: Instant, end: Instant) {
        self.record_span_at(name, self.offset_us(start), self.offset_us(end));
    }

    /// Record a completed span from precomputed microsecond offsets (used
    /// when the caller synthesizes aggregate spans from stage timings).
    pub fn record_span_at(&self, name: &'static str, start_us: u64, end_us: u64) {
        let mut log = self.log();
        if log.records() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.push_span(&SpanRecord { name, start_us, end_us });
    }

    /// Record a point event.
    pub fn event(&self, name: &'static str, at: Instant, detail: Option<String>) {
        self.event_at(name, self.offset_us(at), detail.as_deref());
    }

    /// Record a point event at a microsecond offset.
    fn event_at(&self, name: &'static str, at_us: u64, detail: Option<&str>) {
        let mut log = self.log();
        // The terminal event is never dropped: conservation (exactly one
        // terminal per admitted request) must survive a full buffer.
        if name != TERMINAL_EVENT && log.records() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.push_event(name, at_us, detail);
    }

    fn log(&self) -> std::sync::MutexGuard<'_, TraceLog> {
        self.log.lock().expect("trace buffer poisoned")
    }

    /// Mark the request anomalous (panicked, shed, deadline exceeded): its
    /// JSON (`GET /trace/<id>`) carries `"anomalous":true`.
    pub fn mark_anomalous(&self) {
        self.anomalous.store(true, Ordering::Relaxed);
    }

    /// Whether the request was marked anomalous.
    pub fn is_anomalous(&self) -> bool {
        self.anomalous.load(Ordering::Relaxed)
    }

    /// Spans dropped past the buffer bound.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the recorded spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.log().spans().collect()
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        let log = self.log();
        log.events()
            .map(|(name, at_us, detail)| TraceEvent {
                name,
                at_us,
                detail: detail.map(|range| log.detail(range)),
            })
            .collect()
    }

    /// Number of terminal events recorded (exactly 1 on a well-formed
    /// resolved request — the DST conservation oracle).
    pub fn terminal_count(&self) -> usize {
        self.log().events().filter(|(name, ..)| *name == TERMINAL_EVENT).count()
    }

    /// Render the whole timeline as one JSON object (the `GET /trace/<id>`
    /// body and the flight-dump format).
    pub fn to_json(&self) -> String {
        let log = self.log();
        let mut out = format!(
            "{{\"id\":{},\"anomalous\":{},\"dropped\":{},\"spans\":[",
            self.id,
            self.is_anomalous(),
            self.dropped.load(Ordering::Relaxed),
        );
        for (i, s) in log.spans().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{comma}{{\"name\":{},\"start_us\":{},\"end_us\":{}}}",
                escape_json(s.name),
                s.start_us,
                s.end_us
            );
        }
        out.push_str("],\"events\":[");
        for (i, (name, at_us, detail)) in log.events().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let detail = match detail {
                Some(range) => escape_json(&log.detail(range)),
                None => "null".into(),
            };
            let _ = write!(
                out,
                "{comma}{{\"name\":{},\"at_us\":{at_us},\"detail\":{detail}}}",
                escape_json(name)
            );
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let log = self.log();
        f.debug_struct("Trace")
            .field("id", &self.id)
            .field("spans", &log.spans)
            .field("events", &log.events)
            .field("anomalous", &self.is_anomalous())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn offsets_are_anchored_and_saturating() {
        let anchor = Instant::now();
        let trace = Trace::new(7, anchor);
        assert_eq!(trace.offset_us(anchor), 0);
        assert_eq!(trace.offset_us(anchor + Duration::from_micros(250)), 250);
        // An instant before the anchor clamps to 0 instead of underflowing.
        assert_eq!(trace.offset_us(anchor - Duration::from_micros(5)), 0);
    }

    #[test]
    fn spans_and_events_round_trip_through_json() {
        let anchor = Instant::now();
        let trace = Trace::new(3, anchor);
        trace.record_span(ROOT_SPAN, anchor, anchor + Duration::from_micros(100));
        trace.record_span_at("rounds", 10, 40);
        trace.event(TERMINAL_EVENT, anchor + Duration::from_micros(100), Some("completed".into()));
        let json = trace.to_json();
        assert!(json.contains("\"id\":3"), "{json}");
        assert!(json.contains("\"name\":\"request\""), "{json}");
        assert!(json.contains("\"start_us\":10"), "{json}");
        assert!(json.contains("\"detail\":\"completed\""), "{json}");
        assert_eq!(trace.terminal_count(), 1);
        assert_eq!(trace.spans().len(), 2);
    }

    #[test]
    fn buffer_bound_drops_spans_but_never_the_terminal_event() {
        let anchor = Instant::now();
        let trace = Trace::with_capacity(1, anchor, 4);
        for i in 0..10 {
            trace.record_span_at("rounds", i, i + 1);
        }
        assert_eq!(trace.spans().len(), 4);
        assert_eq!(trace.dropped(), 6);
        trace.event(TERMINAL_EVENT, anchor, None);
        assert_eq!(trace.terminal_count(), 1, "terminal event survives a full buffer");
    }

    #[test]
    fn zigzag_round_trips_every_wrapping_difference() {
        for delta in [0, 1, 2, 63, 64, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            assert_eq!(unzigzag(zigzag(delta)), delta, "{delta}");
        }
        assert_eq!([0, u64::MAX, 1, u64::MAX - 1].map(zigzag), [0, 1, 2, 3]);
    }

    /// The old layout's limits (an inverted span, a duration of 2^48 µs, the
    /// 65 537th name) are ordinary records now, and a trace holds exactly
    /// the blocks its bytes fill: each is `BLOCK_BYTES` long and never grows,
    /// so what an evicted trace frees is what the next one allocates.
    #[test]
    fn spans_read_back_exactly_across_blocks_and_old_layout_limits() {
        let trace = Trace::with_capacity(5, Instant::now(), 1000);
        let mut recorded = Vec::new();
        let mut record = |name: &'static str, start_us: u64, end_us: u64| {
            trace.record_span_at(name, start_us, end_us);
            recorded.push(SpanRecord { name, start_us, end_us });
        };
        record(ROOT_SPAN, 0, 900);
        record("empty", 40, 40);
        record("late", u64::MAX - 5, u64::MAX);
        record("longest packed", 7, 7 + (1 << 48) - 1);
        record("inverted", 10, 5);
        record("too long", 0, 1 << 48);
        for i in 0..200 {
            record(if i % 2 == 0 { "rounds" } else { "resume" }, i, 3 * i);
        }
        record("inverted", 2, 1);
        assert_eq!(trace.spans(), recorded);

        let log = trace.log();
        assert_eq!(log.spans, recorded.len());
        assert_eq!(log.names.len(), 8, "one entry per distinct name");
        assert_eq!(log.blocks.len(), log.len.div_ceil(BLOCK_BYTES), "no block beyond the bytes");
        assert!(log.len < 4 * recorded.len(), "{} B for {} spans", log.len, recorded.len());
    }

    /// A tiny deterministic generator (the crate depends on nothing).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Mostly small offsets near `base`, sometimes anywhere in `u64`.
        fn offset(&mut self, base: u64) -> u64 {
            match self.next() % 8 {
                0 => self.next(),
                1 => base.wrapping_sub(self.next() % 1_000),
                2 => u64::MAX - self.next() % 3,
                _ => base.wrapping_add(self.next() % 5_000),
            }
        }
    }

    /// What `to_json` rendered when spans and events were kept as records.
    fn reference_json(trace: &Trace, spans: &[SpanRecord], events: &[TraceEvent]) -> String {
        let spans: Vec<_> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start_us\":{},\"end_us\":{}}}",
                    escape_json(s.name),
                    s.start_us,
                    s.end_us
                )
            })
            .collect();
        let events: Vec<_> = events
            .iter()
            .map(|e| {
                let detail = e.detail.as_deref().map_or("null".into(), escape_json);
                format!(
                    "{{\"name\":{},\"at_us\":{},\"detail\":{detail}}}",
                    escape_json(e.name),
                    e.at_us
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"anomalous\":{},\"dropped\":{},\"spans\":[{}],\"events\":[{}]}}",
            trace.id,
            trace.is_anomalous(),
            trace.dropped(),
            spans.join(","),
            events.join(",")
        )
    }

    /// Random spans and events — out-of-order starts, spans that end before
    /// they start, durations up to 2^64 − 1 µs, details of every length
    /// (long ones span several blocks) — read back exactly, through
    /// `spans()`, `events()` and `to_json()`, including past the cap.
    #[test]
    fn random_spans_and_events_read_back_exactly() {
        let names: [&'static str; 6] = [ROOT_SPAN, "rounds", "verify:tsq", "deliver", "q\"x", ""];
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for case in 0..64u64 {
            let cap = 2 + (rng.next() % 300) as usize;
            let trace = Trace::with_capacity(case, Instant::now(), cap);
            let (mut spans, mut events, mut dropped) = (Vec::new(), Vec::new(), 0);
            let (mut start, mut at) = (0, 0);
            for _ in 0..rng.next() % 400 {
                let name = names[(rng.next() % names.len() as u64) as usize];
                if rng.next().is_multiple_of(4) {
                    at = rng.offset(at);
                    let detail = match rng.next() % 4 {
                        0 => None,
                        1 => Some(String::new()),
                        2 => Some(format!(
                            "panicked: é\n{}",
                            "x".repeat((rng.next() % 700) as usize)
                        )),
                        _ => Some(format!("{}", rng.next())),
                    };
                    let terminal = rng.next().is_multiple_of(16);
                    let name = if terminal { TERMINAL_EVENT } else { name };
                    trace.event_at(name, at, detail.as_deref());
                    if !terminal && spans.len() + events.len() >= cap {
                        dropped += 1;
                    } else {
                        events.push(TraceEvent { name, at_us: at, detail });
                    }
                } else {
                    start = rng.offset(start);
                    let end = rng.offset(start);
                    trace.record_span_at(name, start, end);
                    if spans.len() + events.len() >= cap {
                        dropped += 1;
                    } else {
                        spans.push(SpanRecord { name, start_us: start, end_us: end });
                    }
                }
            }
            if case.is_multiple_of(3) {
                trace.mark_anomalous();
            }
            assert_eq!(trace.spans(), spans, "case {case}");
            assert_eq!(trace.events(), events, "case {case}");
            assert_eq!(trace.dropped(), dropped, "case {case}");
            let terminals = events.iter().filter(|e| e.name == TERMINAL_EVENT).count();
            assert_eq!(trace.terminal_count(), terminals, "case {case}");
            assert_eq!(trace.to_json(), reference_json(&trace, &spans, &events), "case {case}");
        }
    }

    /// More distinct names than a `u16` indexes: the name index is a varint.
    #[test]
    fn more_than_65_536_names_read_back_exactly() {
        let count = (1 << 16) + 100;
        let trace = Trace::with_capacity(1, Instant::now(), count + 1);
        let mut recorded = Vec::with_capacity(count);
        for i in 0..count as u64 {
            let name: &'static str = Box::leak(format!("span {i}").into_boxed_str());
            trace.record_span_at(name, i, i + 1);
            recorded.push(SpanRecord { name, start_us: i, end_us: i + 1 });
        }
        trace.event("after the names", Instant::now(), Some("detail".into()));
        assert_eq!(trace.dropped(), 0);
        assert_eq!(trace.spans(), recorded);
        assert_eq!(trace.events().len(), 1);
        assert_eq!(trace.log().names.len(), count + 1);
    }

    #[test]
    fn anomalous_flag_sticks() {
        let trace = Trace::new(9, Instant::now());
        assert!(!trace.is_anomalous());
        trace.mark_anomalous();
        assert!(trace.is_anomalous());
    }
}
