//! Request-side types of the service API: priority classes, the request
//! itself, the service configuration and admission errors.

use duoquest_core::{DuoquestConfig, TableSketchQuery};
use duoquest_db::Database;
use duoquest_nlq::{GuidanceModel, Nlq};
use std::sync::Arc;
use std::time::Duration;

/// The scheduling class of a request, weighted into the shared scheduler's
/// round-robin.
///
/// Classes are *weights, not tiers*: a higher class is granted a larger share
/// of every queue rotation ([`PriorityClass::weight`]), but lower classes are
/// never starved — the fairness queue still serves every live session each
/// rotation. Admission and queue promotion do use strict class order
/// (interactive before batch before background).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PriorityClass {
    /// A user is watching: served with 16× the per-rotation share of
    /// background work.
    Interactive,
    /// Throughput-oriented work with a requester waiting on the result set:
    /// 4× the background share.
    Batch,
    /// Best-effort filler (precomputation, cache warming): weight 1.
    Background,
}

impl PriorityClass {
    /// All classes, highest priority first (the queue promotion order).
    pub const ALL: [PriorityClass; 3] =
        [PriorityClass::Interactive, PriorityClass::Batch, PriorityClass::Background];

    /// Dense index of the class (position in [`PriorityClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Batch => 1,
            PriorityClass::Background => 2,
        }
    }

    /// The session's weight in the shared scheduler's round-robin: its
    /// fairness share per rotation.
    pub fn weight(self) -> usize {
        match self {
            PriorityClass::Interactive => 16,
            PriorityClass::Batch => 4,
            PriorityClass::Background => 1,
        }
    }

    /// Lowercase label used in stats JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Batch => "batch",
            PriorityClass::Background => "background",
        }
    }
}

/// One synthesis task submitted to a [`SynthesisService`](crate::SynthesisService):
/// the dual specification plus serving metadata (priority class and an
/// optional deadline).
pub struct SynthesisRequest {
    pub(crate) db: Arc<Database>,
    pub(crate) nlq: Nlq,
    pub(crate) tsq: Option<TableSketchQuery>,
    pub(crate) model: Arc<dyn GuidanceModel>,
    pub(crate) config: DuoquestConfig,
    pub(crate) priority: PriorityClass,
    pub(crate) deadline: Option<Duration>,
}

impl SynthesisRequest {
    /// A request with the default engine configuration, no TSQ, interactive
    /// priority and no deadline.
    pub fn new(db: Arc<Database>, nlq: Nlq, model: Arc<dyn GuidanceModel>) -> Self {
        SynthesisRequest {
            db,
            nlq,
            tsq: None,
            model,
            config: DuoquestConfig::default(),
            priority: PriorityClass::Interactive,
            deadline: None,
        }
    }

    /// Attach a table sketch query (the second half of the dual specification).
    pub fn with_tsq(mut self, tsq: TableSketchQuery) -> Self {
        self.tsq = Some(tsq);
        self
    }

    /// Replace the engine configuration.
    pub fn with_config(mut self, config: DuoquestConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the request's priority class (default: interactive).
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Set a deadline, measured **from submission** — time spent waiting in
    /// the admission queue counts against it. A request past its deadline
    /// stops enumerating and returns the best candidates found so far,
    /// flagged [`RequestStatus::DeadlineExceeded`](crate::RequestStatus::DeadlineExceeded).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The request's priority class.
    pub fn priority(&self) -> PriorityClass {
        self.priority
    }
}

impl std::fmt::Debug for SynthesisRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisRequest")
            .field("nlq", &self.nlq.text)
            .field("tsq", &self.tsq.is_some())
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// Capacity limits of a [`SynthesisService`](crate::SynthesisService).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads of the shared scheduler pool (`0` = one per CPU).
    pub workers: usize,
    /// Admission control: requests beyond this many live sessions wait in
    /// the bounded queue instead of starting. Live requests are
    /// scheduler-driven sessions (state machines parked in the pool, no
    /// per-request thread), so this bound is a memory/latency knob, not a
    /// thread-count one — the default allows over a thousand concurrent
    /// live sessions on a fixed worker pool.
    pub max_live_sessions: usize,
    /// Admission control: queued requests beyond this bound are **shed** —
    /// [`SynthesisService::submit`](crate::SynthesisService::submit) returns
    /// [`AdmissionError::Overloaded`] instead of accepting unbounded backlog.
    pub max_queued: usize,
    /// Capacity of the flight recorder: how many recently finished request
    /// traces are retained for post-hoc inspection (`GET /trace/<id>` on the
    /// network front). Oldest-evicted; clamped to at least 1.
    pub flight_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 0, max_live_sessions: 1024, max_queued: 256, flight_capacity: 256 }
    }
}

/// Why [`SynthesisService::submit`](crate::SynthesisService::submit) refused
/// a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Both the live-session limit and the queue bound are exhausted; the
    /// request was shed. Back off and resubmit.
    Overloaded {
        /// Live sessions at the time of the attempt.
        live: usize,
        /// Queued requests at the time of the attempt.
        queued: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Overloaded { live, queued } => {
                write!(f, "service overloaded: {live} live sessions, {queued} queued; request shed")
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}
