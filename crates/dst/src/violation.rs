//! What the oracles can catch, as typed, printable evidence.

use std::fmt;

/// Which of a scenario's two service runs an observation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLabel {
    /// The run shaped by [`Scenario::reference`](crate::Scenario::reference).
    Reference,
    /// The run shaped by [`Scenario::alternate`](crate::Scenario::alternate).
    Alternate,
}

impl fmt::Display for RunLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunLabel::Reference => write!(f, "reference"),
            RunLabel::Alternate => write!(f, "alternate"),
        }
    }
}

/// One oracle failure, with enough context to understand it without
/// re-running the scenario. `Display` renders a single diagnostic line;
/// the surrounding report adds the scenario and the replay command.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A completed request's emission differs from the solo single-worker
    /// reference emission for its task — the determinism contract is broken.
    EmissionMismatch {
        /// Which run emitted the divergent stream.
        run: RunLabel,
        /// Index of the request in [`Scenario::requests`](crate::Scenario::requests).
        request: usize,
        /// The run's rendered emission.
        got: Vec<String>,
        /// The solo reference emission.
        want: Vec<String>,
    },
    /// A cancelled/expired/poisoned request surfaced a candidate that the
    /// solo reference run never emits.
    StrayCandidate {
        /// Which run emitted it.
        run: RunLabel,
        /// Index of the request.
        request: usize,
        /// The rendered candidate with no reference counterpart.
        candidate: String,
    },
    /// A request completed in both runs with different emissions.
    CrossRunMismatch {
        /// Index of the request.
        request: usize,
        /// Emission under the reference service shape.
        reference: Vec<String>,
        /// Emission under the alternate service shape.
        alternate: Vec<String>,
    },
    /// Live or queued slots survived the drain: a session slot leaked.
    SlotLeak {
        /// Which run leaked.
        run: RunLabel,
        /// Live sessions still registered after every ticket resolved.
        live: usize,
        /// Requests still queued after every ticket resolved.
        queued: usize,
    },
    /// More sessions ran concurrently than admission control allows.
    AdmissionPeakExceeded {
        /// Which run overshot.
        run: RunLabel,
        /// Observed high-water mark of live sessions.
        peak: usize,
        /// The configured `max_live_sessions` bound.
        limit: usize,
    },
    /// Per-class lifecycle counters do not add up: every admitted request
    /// must end as exactly one of completed/cancelled/expired, or vanish
    /// with an observed poisoned session.
    CounterImbalance {
        /// Which run drifted.
        run: RunLabel,
        /// Priority-class label.
        class: &'static str,
        /// Requests admitted.
        submitted: u64,
        /// Requests that ran to completion.
        completed: u64,
        /// Requests cancelled.
        cancelled: u64,
        /// Requests expired at their deadline.
        expired: u64,
        /// Poisoned sessions observed via a panicking `Ticket::wait`.
        vanished: u64,
    },
    /// The shed counter disagrees with the number of submits the executor
    /// saw refused.
    ShedMismatch {
        /// Which run drifted.
        run: RunLabel,
        /// Priority-class label.
        class: &'static str,
        /// What the service counted.
        counted: u64,
        /// What the executor observed.
        observed: u64,
    },
    /// A deadline beyond the end of the virtual timeline fired anyway —
    /// real time leaked into what must be a fully simulated clock.
    DeadlineGhost {
        /// Which run fired it.
        run: RunLabel,
        /// Index of the request.
        request: usize,
        /// The deadline's position on the virtual timeline.
        deadline_us: u64,
        /// Where the virtual timeline ended.
        virtual_end_us: u64,
    },
    /// A request that expired without running reported a queue wait other
    /// than its deadline budget — its expiry was stamped when someone
    /// noticed it, not at the deadline.
    ExpiryOffDeadline {
        /// Which run reported it.
        run: RunLabel,
        /// Index of the request.
        request: usize,
        /// The request's deadline budget in microseconds.
        deadline_us: u128,
        /// The reported queue wait in microseconds.
        queue_wait_us: u128,
    },
    /// A reported latency exceeds the virtual timeline — the sample was
    /// taken from a real clock, not the simulated one.
    LatencyOffTimeline {
        /// Which run reported it.
        run: RunLabel,
        /// Index of the request.
        request: usize,
        /// Which latency (`"queue_wait"` or `"ttfc"`).
        which: &'static str,
        /// The reported value in microseconds.
        observed_us: u128,
        /// Virtual length of the run.
        virtual_end_us: u64,
    },
    /// The flight recorder retained a different number of traces than the
    /// number of submit attempts — a request resolved without leaving a
    /// trace, or left more than one.
    TraceConservation {
        /// Which run drifted.
        run: RunLabel,
        /// Submit attempts the executor made (admitted + shed).
        expected: usize,
        /// Traces the flight recorder retained after the drain.
        retained: usize,
    },
    /// A retained trace breaks the span model: not exactly one terminal
    /// event, an inverted span interval, a timestamp past the end of the
    /// virtual timeline, or a child span escaping the root `request`
    /// interval.
    TraceMalformed {
        /// Which run produced it.
        run: RunLabel,
        /// The offending trace's request id.
        trace: u64,
        /// Human-readable evidence.
        detail: String,
    },
    /// The run never drained: live/queued slots still held after the
    /// physical grace period.
    Quiescence {
        /// Which run hung.
        run: RunLabel,
        /// Live sessions at timeout.
        live: usize,
        /// Queued requests at timeout.
        queued: usize,
    },
    /// A net-walk connection's stream broke the content contract: a
    /// completed stream was not byte-identical to the solo reference, an
    /// interrupted stream was not a strict prefix of it, or the stream's
    /// framing/terminal event was malformed.
    NetStreamDiverged {
        /// Index of the connection in [`NetPlan::connections`](crate::NetPlan::connections).
        connection: usize,
        /// Human-readable evidence.
        detail: String,
    },
    /// After the net walk, the front or the service failed to drain back
    /// to idle — a connection or admission slot leaked.
    NetNoQuiescence {
        /// Live sessions at timeout.
        live: usize,
        /// Queued requests at timeout.
        queued: usize,
        /// Connections the front still held open.
        open: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::EmissionMismatch { run, request, got, want } => write!(
                f,
                "emission mismatch: {run} run, request {request}: completed with {} candidates, \
                 reference emits {} (first divergence at index {})",
                got.len(),
                want.len(),
                got.iter().zip(want).position(|(g, w)| g != w).unwrap_or(got.len().min(want.len()))
            ),
            Violation::StrayCandidate { run, request, candidate } => write!(
                f,
                "stray candidate: {run} run, request {request} surfaced `{candidate}` which the \
                 reference run never emits"
            ),
            Violation::CrossRunMismatch { request, reference, alternate } => write!(
                f,
                "cross-run mismatch: request {request} completed in both runs but emitted {} vs \
                 {} candidates",
                reference.len(),
                alternate.len()
            ),
            Violation::SlotLeak { run, live, queued } => write!(
                f,
                "slot leak: {run} run still holds {live} live / {queued} queued after every \
                 ticket resolved"
            ),
            Violation::AdmissionPeakExceeded { run, peak, limit } => {
                write!(
                    f,
                    "admission peak exceeded: {run} run peaked at {peak} live (limit {limit})"
                )
            }
            Violation::CounterImbalance {
                run,
                class,
                submitted,
                completed,
                cancelled,
                expired,
                vanished,
            } => write!(
                f,
                "counter imbalance: {run} run, class {class}: submitted {submitted} != \
                 completed {completed} + cancelled {cancelled} + expired {expired} + \
                 vanished {vanished}"
            ),
            Violation::ShedMismatch { run, class, counted, observed } => write!(
                f,
                "shed mismatch: {run} run, class {class}: service counted {counted}, executor \
                 observed {observed}"
            ),
            Violation::DeadlineGhost { run, request, deadline_us, virtual_end_us } => write!(
                f,
                "deadline ghost: {run} run, request {request} expired at virtual {deadline_us}us \
                 but the timeline only reached {virtual_end_us}us — a real clock leaked in"
            ),
            Violation::ExpiryOffDeadline { run, request, deadline_us, queue_wait_us } => write!(
                f,
                "expiry off its deadline: {run} run, request {request} expired unrun after a \
                 {queue_wait_us}us queue wait, but its deadline budget is {deadline_us}us"
            ),
            Violation::LatencyOffTimeline { run, request, which, observed_us, virtual_end_us } => {
                write!(
                    f,
                    "latency off the timeline: {run} run, request {request} reported {which} of \
                     {observed_us}us on a {virtual_end_us}us virtual timeline"
                )
            }
            Violation::TraceConservation { run, expected, retained } => write!(
                f,
                "trace conservation broken: {run} run made {expected} submit attempts but the \
                 flight recorder retained {retained} traces"
            ),
            Violation::TraceMalformed { run, trace, detail } => {
                write!(f, "trace malformed: {run} run, request {trace}: {detail}")
            }
            Violation::Quiescence { run, live, queued } => write!(
                f,
                "no quiescence: {run} run still at {live} live / {queued} queued when the \
                 physical grace period expired"
            ),
            Violation::NetStreamDiverged { connection, detail } => {
                write!(f, "net stream diverged: connection {connection}: {detail}")
            }
            Violation::NetNoQuiescence { live, queued, open } => write!(
                f,
                "net walk never drained: {live} live / {queued} queued sessions, {open} open \
                 connections after the grace period"
            ),
        }
    }
}
