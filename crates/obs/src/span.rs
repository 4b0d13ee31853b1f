//! Structured per-request tracing: bounded span/event buffers anchored to
//! one instant, all offsets in microseconds.
//!
//! Determinism contract: a [`Trace`] never influences the work it observes —
//! recording appends to a bounded buffer behind a mutex that no hot
//! emission path contends on (a run records a handful of spans per burst of
//! rounds, from the one thread it stands on), so trace content under a
//! simulated clock is fully reproducible and candidate emission is
//! byte-identical with tracing on or off.

use crate::escape_json;
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

#[derive(Default)]
struct TraceInner {
    spans: SpanLog,
    events: Vec<TraceEvent>,
}

/// Spans per [`SpanLog`] block: 1 KiB of 16-byte records, so a request with
/// a handful of spans holds one small block and a block's own overhead (its
/// `Vec` header and the allocator's) stays under 5 %.
const BLOCK_SPANS: usize = 64;

/// The spans of one trace in recording order, stored the way they are
/// retained: 16 bytes each (a [`SpanRecord`] is 32) in fixed-size blocks that
/// never reallocate. A trace therefore costs `16 B × spans`, rounded up to a
/// block, both while its request runs and in the flight recorder's ring —
/// there is no growth buffer to copy out of — and because every block of
/// every trace is the same size, the blocks an evicted trace frees are
/// exactly what the next one allocates.
#[derive(Default)]
struct SpanLog {
    /// The distinct span names, in first-use order; a handful per trace.
    names: Vec<&'static str>,
    /// All full (`BLOCK_SPANS` long) except the last.
    blocks: Vec<Vec<PackedSpan>>,
    /// The spans [`PackedSpan`] cannot hold exactly, with their positions
    /// (ascending); their slots in `blocks` are placeholders.
    wide: Vec<(usize, SpanRecord)>,
}

impl SpanLog {
    fn len(&self) -> usize {
        self.blocks.last().map_or(0, |last| (self.blocks.len() - 1) * BLOCK_SPANS + last.len())
    }

    fn push(&mut self, span: SpanRecord) {
        let packed = PackedSpan::pack(&span, &mut self.names).unwrap_or_else(|| {
            self.wide.push((self.len(), span));
            PackedSpan::default()
        });
        if self.blocks.last().is_none_or(|block| block.len() == BLOCK_SPANS) {
            self.blocks.push(Vec::with_capacity(BLOCK_SPANS));
        }
        self.blocks.last_mut().expect("a block with room").push(packed);
    }

    fn iter(&self) -> impl Iterator<Item = SpanRecord> + '_ {
        let mut wide = self.wide.iter().peekable();
        self.blocks.iter().flatten().enumerate().map(move |(at, packed)| {
            match wide.next_if(|(position, _)| *position == at) {
                Some((_, span)) => span.clone(),
                None => packed.unpack(&self.names),
            }
        })
    }
}

/// A [`SpanRecord`] in 16 bytes: the start offset, and the duration (low 48
/// bits — 8.9 years of microseconds) sharing a word with the index of the
/// name in [`SpanLog::names`] (high 16 bits).
#[derive(Clone, Copy, Default)]
struct PackedSpan {
    start_us: u64,
    duration_and_name: u64,
}

impl PackedSpan {
    const DURATION_BITS: u32 = 48;

    /// `None` for a span this layout cannot hold exactly: one that ends
    /// before it starts, lasts 2^48 µs or more, or carries the 65 537th
    /// distinct name of its trace.
    fn pack(span: &SpanRecord, names: &mut Vec<&'static str>) -> Option<PackedSpan> {
        let duration = span.end_us.checked_sub(span.start_us)?;
        if duration >> Self::DURATION_BITS != 0 {
            return None;
        }
        let name = names.iter().position(|n| *n == span.name).unwrap_or_else(|| {
            names.push(span.name);
            names.len() - 1
        });
        let name = u64::from(u16::try_from(name).ok()?);
        Some(PackedSpan {
            start_us: span.start_us,
            duration_and_name: name << Self::DURATION_BITS | duration,
        })
    }

    fn unpack(self, names: &[&'static str]) -> SpanRecord {
        let duration = self.duration_and_name & ((1 << Self::DURATION_BITS) - 1);
        SpanRecord {
            name: names[(self.duration_and_name >> Self::DURATION_BITS) as usize],
            start_us: self.start_us,
            end_us: self.start_us + duration,
        }
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
    inner: Mutex<TraceInner>,
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
            inner: Mutex::new(TraceInner::default()),
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
        let mut inner = self.inner.lock().expect("trace buffer poisoned");
        if inner.spans.len() + inner.events.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.spans.push(SpanRecord { name, start_us, end_us });
    }

    /// Record a point event.
    pub fn event(&self, name: &'static str, at: Instant, detail: Option<String>) {
        let at_us = self.offset_us(at);
        let mut inner = self.inner.lock().expect("trace buffer poisoned");
        // The terminal event is never dropped: conservation (exactly one
        // terminal per admitted request) must survive a full buffer.
        if name != TERMINAL_EVENT && inner.spans.len() + inner.events.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.events.push(TraceEvent { name, at_us, detail });
    }

    /// Mark the request anomalous (panicked, shed, deadline exceeded): the
    /// flight recorder dumps anomalous traces to stderr when
    /// `DUOQUEST_FLIGHT_DUMP` is set.
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
        self.inner.lock().expect("trace buffer poisoned").spans.iter().collect()
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().expect("trace buffer poisoned").events.clone()
    }

    /// Number of terminal events recorded (exactly 1 on a well-formed
    /// resolved request — the DST conservation oracle).
    pub fn terminal_count(&self) -> usize {
        self.inner
            .lock()
            .expect("trace buffer poisoned")
            .events
            .iter()
            .filter(|e| e.name == TERMINAL_EVENT)
            .count()
    }

    /// Render the whole timeline as one JSON object (the `GET /trace/<id>`
    /// body and the flight-dump format).
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("trace buffer poisoned");
        let spans = inner
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start_us\":{},\"end_us\":{}}}",
                    escape_json(s.name),
                    s.start_us,
                    s.end_us
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let events = inner
            .events
            .iter()
            .map(|e| {
                let detail = match &e.detail {
                    Some(d) => escape_json(d),
                    None => "null".into(),
                };
                format!(
                    "{{\"name\":{},\"at_us\":{},\"detail\":{}}}",
                    escape_json(e.name),
                    e.at_us,
                    detail
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"id\":{},\"anomalous\":{},\"dropped\":{},\"spans\":[{spans}],\"events\":[{events}]}}",
            self.id,
            self.is_anomalous(),
            self.dropped.load(Ordering::Relaxed),
        )
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("trace buffer poisoned");
        f.debug_struct("Trace")
            .field("id", &self.id)
            .field("spans", &inner.spans.len())
            .field("events", &inner.events.len())
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
    fn packed_spans_are_half_a_record() {
        assert_eq!(std::mem::size_of::<PackedSpan>(), 16);
        assert_eq!(std::mem::size_of::<SpanRecord>(), 32);
    }

    #[test]
    fn spans_read_back_exactly_across_blocks_and_layout_limits() {
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
        // Neither fits the packed layout; both must still read back exactly.
        record("inverted", 10, 5);
        record("too long", 0, 1 << 48);
        for i in 0..(3 * BLOCK_SPANS as u64) {
            record(if i % 2 == 0 { "rounds" } else { "resume" }, i, 3 * i);
        }
        record("inverted", 2, 1);
        assert_eq!(trace.spans(), recorded);

        let inner = trace.inner.lock().unwrap();
        assert_eq!(inner.spans.len(), recorded.len());
        assert_eq!(inner.spans.wide.len(), 3);
        assert_eq!(inner.spans.names.len(), 6, "one entry per distinct packed name");
        assert_eq!(inner.spans.blocks.len(), 4);
        for block in &inner.spans.blocks {
            assert_eq!(block.capacity(), BLOCK_SPANS, "blocks never grow");
        }
    }

    #[test]
    fn anomalous_flag_sticks() {
        let trace = Trace::new(9, Instant::now());
        assert!(!trace.is_anomalous());
        trace.mark_anomalous();
        assert!(trace.is_anomalous());
    }
}
