//! # duoquest-obs
//!
//! The dependency-free observability substrate under the Duoquest stack:
//!
//! * [`span`] — structured request tracing: a [`Trace`] is a bounded,
//!   per-request buffer of named spans and events, all timestamps stored as
//!   microsecond offsets from one anchor instant. The crate is deliberately
//!   **clock-agnostic**: every recording API takes [`std::time::Instant`]
//!   values the *caller* read from its own clock (the core's `Clock` trait,
//!   real or simulated), so traces recorded under a simulated clock live
//!   entirely on the virtual timeline.
//! * [`metrics`] — a metrics registry built for scrape-time assembly:
//!   log-bucketed [`Histogram`]s (lock-free atomics, power-of-two
//!   microsecond buckets), the [`Series`] record each source declares once,
//!   its two renderings — a [`JsonObject`] (`/stats`) and an [`Exposition`]
//!   in the Prometheus text format (`/metrics`) — and a
//!   [`validate_exposition`] checker used by tests and the CI smoke scrape.
//! * [`flight`] — the [`FlightRecorder`]: a bounded ring of
//!   recently-completed request [`Trace`]s, queryable by request id and
//!   optionally dumped to stderr for anomalous requests (panic, shed,
//!   deadline exceeded) when `DUOQUEST_FLIGHT_DUMP` is set.
//!
//! Layering: this crate sits **below** `duoquest-core` and `duoquest-db`
//! (it depends on nothing but `std`), so every layer of the stack — engine
//! rounds, verify stages, cache probes, service admission, net outbox — can
//! record into the same trace without a dependency cycle.
//!
//! Tracing is off at run time, not at build time: the gate is an
//! `Option<Arc<Trace>>`, and a `None` costs the engine one branch per burst
//! of rounds. What a traced run costs is the benchmark's
//! `obs.traced_run_overhead_share`.

#![warn(missing_docs)]

pub mod flight;
pub mod metrics;
pub mod span;

pub use flight::FlightRecorder;
pub use metrics::{
    validate_exposition, Exposition, Histogram, HistogramSnapshot, JsonObject, Reading, Series,
    Surface,
};
pub use span::{SpanRecord, Trace, TraceEvent, ROOT_SPAN, TERMINAL_EVENT};

/// Render `s` as a JSON string literal, double quotes included: `"` and `\`
/// escaped, control characters as `\n` `\r` `\t` `\b` `\f` or `\u00XX`,
/// everything else raw UTF-8. The stack's one JSON string escaper
/// (`duoquest_service::json::escape_string` re-exports it): task names and
/// SQL text are user-reachable and can contain anything.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_handles_control_and_quote_characters() {
        assert_eq!(escape_json("plain"), "\"plain\"");
        assert_eq!(escape_json("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape_json("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape_json("\u{8}"), "\"\\b\"");
        assert_eq!(escape_json("\u{c}"), "\"\\f\"");
    }
}
