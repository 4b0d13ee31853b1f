//! # duoquest-service
//!
//! The multi-tenant serving layer over the synthesis core: a
//! [`SynthesisService`] owns one shared
//! [`SessionScheduler`] pool and exposes a
//! request lifecycle shaped like a production endpoint — many users submit
//! NL+TSQ tasks concurrently, each with a priority class, an optional
//! deadline, and a cancellable ticket.
//!
//! # Request lifecycle (event-driven — no per-request threads)
//!
//! ```text
//!  submit(SynthesisRequest)
//!        │
//!        ▼                 capacity?
//!  ┌─ admission ─────────────────────────────────────────────┐
//!  │ live < max_live ──────────► start: session driven BY    │
//!  │                             the pool (no thread)        │
//!  │ else queued < max_queued ─► queue (per-class FIFO)      │
//!  │ else ─────────────────────► shed: Err(Overloaded)       │
//!  └─────────────────────────────────────────────────────────┘
//!        │ start                      ▲ a completing request
//!        ▼                            │ promotes the head of the
//!  RoundDriver state machine parked   │ highest non-empty class
//!  in the SessionScheduler; a pool    │ queue (from the worker
//!  worker resumes it for a burst of   │ that completed it)
//!  rounds at a time                   │
//!  (fairness weight = class weight)   │
//!        │ candidates stream to the Ticket as they survive
//!        ▼
//!  ServiceOutcome { result, status: Completed | Cancelled | DeadlineExceeded }
//! ```
//!
//! A live request is a **scheduler-driven session** (see `docs/DRIVER.md`):
//! its serial round loop is a state machine parked inside the pool, resumed
//! by whichever worker pops it next — `workers` sessions advance at once. The
//! service therefore spawns **zero** per-request OS threads (the
//! process-thread-count check in `tests/determinism.rs` holds the count flat
//! under 256 live sessions) and `max_live_sessions` can sit in the
//! thousands, bounded by memory rather than thread count.
//!
//! * **Priorities** ([`PriorityClass`]) weight the shared pool's round-robin:
//!   an interactive session gets 16× the per-rotation share of a background
//!   one, but nobody is starved — every live session is served each
//!   rotation.
//! * **Cancellation**: dropping (or explicitly cancelling) a [`Ticket`] fires
//!   the session's token and the run stops at its next cooperative check
//!   (a round boundary, or between a round's jobs); a request still queued
//!   resolves at once, without running. Other requests' emission order is
//!   untouched.
//! * **Deadlines** are measured from submission (queue wait counts). A
//!   request past its deadline stops enumerating and resolves with the best
//!   candidates found so far, flagged
//!   [`RequestStatus::DeadlineExceeded`]. A request whose deadline passes
//!   while still **queued** expires when someone looks — the next submit,
//!   stats snapshot, cancel or completion, or its own ticket's wait, which
//!   lasts at most until the deadline before it looks — and always **as of
//!   its deadline**: its queue wait is exactly the deadline budget, whoever
//!   noticed first. There is no timer and no housekeeper thread.
//! * **Admission control** bounds live sessions and the waiting queue;
//!   overflow is shed at submit time with [`AdmissionError::Overloaded`].
//! * **Observability**: [`SynthesisService::stats`] snapshots per-class queue
//!   depth, the time-to-first-candidate and queue-wait histograms, the
//!   cancelled/shed/expired counters, the live-session high-water mark and
//!   the flight recorder's depth. Each series is declared once
//!   ([`ServiceStats::render`]), and the network front's `GET /stats` (JSON)
//!   and `GET /metrics` (Prometheus) both render that one walk.
//!
//! Completed requests keep the engine's determinism contract: for a fixed
//! configuration the emitted candidate sequence is byte-identical to a
//! private-pool [`SynthesisSession`] run,
//! at any priority, under any concurrent load (`tests/determinism.rs`).
//!
//! # Example
//!
//! ```
//! use duoquest_core::DuoquestConfig;
//! use duoquest_db::{ColumnDef, Database, Schema, TableDef, Value};
//! use duoquest_nlq::{HeuristicGuidance, Literal, Nlq};
//! use duoquest_service::{PriorityClass, RequestStatus, ServiceConfig, SynthesisRequest,
//!     SynthesisService};
//! use std::sync::Arc;
//!
//! let mut schema = Schema::new("demo");
//! schema.add_table(TableDef::new(
//!     "movies",
//!     vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
//!     Some(0),
//! ));
//! let mut db = Database::new(schema).unwrap();
//! db.insert("movies", vec![Value::int(1), Value::text("Heat"), Value::int(1995)]).unwrap();
//! db.insert("movies", vec![Value::int(2), Value::text("Up"), Value::int(2009)]).unwrap();
//!
//! let service = SynthesisService::new(ServiceConfig {
//!     workers: 2,
//!     max_live_sessions: 4,
//!     max_queued: 16,
//!     ..ServiceConfig::default()
//! });
//! let nlq = Nlq::with_literals("movie names before 2000", vec![Literal::number(2000.0)]);
//! let request = SynthesisRequest::new(
//!     db.into_shared(),
//!     nlq,
//!     Arc::new(HeuristicGuidance::new()),
//! )
//! .with_config(DuoquestConfig::fast())
//! .with_priority(PriorityClass::Interactive);
//!
//! let ticket = service.submit(request).unwrap();
//! let outcome = ticket.wait();
//! assert_eq!(outcome.status, RequestStatus::Completed);
//! assert!(!outcome.result.candidates.is_empty());
//! assert_eq!(service.stats().class(PriorityClass::Interactive).completed, 1);
//! ```

#![warn(missing_docs)]

pub mod json;
mod request;
mod stats;
mod ticket;

pub use request::{AdmissionError, PriorityClass, ServiceConfig, SynthesisRequest};
pub use stats::{ClassStats, ServiceStats};
pub use ticket::{RequestStatus, ServiceOutcome, Ticket};

use duoquest_core::{
    system_clock, Candidate, DrivenOutcome, SchedulerHandle, SessionControl, SessionScheduler,
    SharedClock, SynthesisResult, SynthesisSession,
};
use duoquest_obs::{FlightRecorder, Histogram, Trace, ROOT_SPAN, TERMINAL_EVENT};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-class monotone counters plus lossless latency histograms. The
/// histograms are `duoquest_obs` log-bucketed atomics — unlike the sampling
/// reservoir they replaced, every request lands (no loss under load) and
/// recording is lock-free.
#[derive(Default)]
struct ClassCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    shed: AtomicU64,
    /// Time from submission to first emitted candidate.
    ttfc: Histogram,
    /// Time from submission to run start (admission queue wait).
    queue_wait: Histogram,
}

/// A streaming candidate sink attached at submit time (see
/// [`SynthesisService::submit_with_observer`]). Called on whichever pool
/// worker emits the candidate, in emission order; returning `false` stops
/// the run (it resolves as [`RequestStatus::Cancelled`]). Every request
/// has one: [`SynthesisService::submit`]'s sends into the ticket's
/// candidate channel, [`SynthesisService::submit_with_observer`] takes the
/// caller's — the ticket resolves to the full [`ServiceOutcome`] either way.
pub type CandidateObserver = Box<dyn FnMut(&Candidate) -> bool + Send>;

/// A request admitted but not yet finished: everything needed to start it
/// as a scheduler-driven session and resolve its ticket.
struct Pending {
    id: u64,
    req: SynthesisRequest,
    control: SessionControl,
    submitted: Instant,
    outcome: Sender<ServiceOutcome>,
    observer: CandidateObserver,
    /// The request's span timeline, anchored at the service's start
    /// instant, so under a simulated clock every offset lands directly on
    /// the virtual timeline.
    trace: Arc<Trace>,
}

impl Pending {
    /// Whether the request's deadline has passed at `now`.
    fn is_due(&self, now: Instant) -> bool {
        self.control.deadline().is_some_and(|deadline| now >= deadline)
    }

    /// Resolve the ticket of a request that never ran, as of `at`: count it,
    /// close out its trace (root span, terminal event, flight-recorder
    /// retention) and send its outcome, whose queue wait ends at `at`.
    fn resolve_unrun(self, status: RequestStatus, at: Instant, shared: &Shared) {
        shared.bump(self.req.priority, status);
        close_trace(&self.trace, status, self.submitted, at, shared);
        let mut result = SynthesisResult::default();
        match status {
            RequestStatus::Cancelled => result.stats.cancelled = true,
            RequestStatus::DeadlineExceeded => result.stats.deadline_exceeded = true,
            RequestStatus::Completed => {}
        }
        let _ = self.outcome.send(ServiceOutcome {
            result,
            status,
            queue_wait: at.saturating_duration_since(self.submitted),
            time_to_first_candidate: None,
        });
    }

    /// Resolve a request whose deadline passed before it ran, as of that
    /// deadline — so its outcome and trace do not depend on who noticed.
    fn expire(self, shared: &Shared) {
        let deadline = self.control.deadline().expect("only a request with a deadline expires");
        self.resolve_unrun(RequestStatus::DeadlineExceeded, deadline, shared);
    }
}

/// Admission state, guarded by one mutex: who is live and who is waiting.
/// (There are no per-request threads — and therefore no join-handle
/// bookkeeping to leak: live requests exist only as driven-session state
/// parked inside the scheduler.)
#[derive(Default)]
struct Admission {
    next_id: u64,
    live: Vec<LiveEntry>,
    queued: [VecDeque<Pending>; 3],
}

struct LiveEntry {
    id: u64,
    class: PriorityClass,
    control: SessionControl,
}

impl Admission {
    fn queued_total(&self) -> usize {
        self.queued.iter().map(|q| q.len()).sum()
    }

    /// Pop the next waiting request in strict class order (interactive before
    /// batch before background), FIFO within a class.
    fn pop_queued(&mut self) -> Option<Pending> {
        self.queued.iter_mut().find_map(|q| q.pop_front())
    }
}

/// State shared between the service handle, its tickets, and the driven
/// sessions' completion callbacks (which run on pool workers).
pub(crate) struct Shared {
    cfg: ServiceConfig,
    handle: SchedulerHandle,
    /// The pool's clock: every timestamp the service takes (submit anchors,
    /// deadline checks, queue expiry, TTFC samples) reads from here, so a
    /// simulated pool keeps the whole service on the simulated timeline.
    clock: SharedClock,
    /// The clock's reading at service construction: the anchor every request
    /// trace measures its offsets from. Under a `SimClock` built for a test
    /// run this is virtual time zero, so trace offsets equal simulated
    /// microseconds — the property the DST trace oracles check.
    started: Instant,
    state: Mutex<Admission>,
    counters: [ClassCounters; 3],
    shutdown: AtomicBool,
    /// High-water mark of concurrently live requests.
    live_peak: AtomicUsize,
    /// Bounded ring of recently finished request traces (`GET /trace/<id>`
    /// on the net front reads from here).
    flight: FlightRecorder,
}

impl Shared {
    /// Take the admission lock — the one way to it. On the way in, every
    /// queued request whose deadline has passed expires, as of its deadline:
    /// whoever looks at the queue is its timer.
    fn lock_state(&self) -> MutexGuard<'_, Admission> {
        let mut state = self.state.lock().expect("service state poisoned");
        let now = self.clock.now();
        for class_queue in &mut state.queued {
            while let Some(at) = class_queue.iter().position(|p| p.is_due(now)) {
                class_queue.remove(at).expect("position is in range").expire(self);
            }
        }
        state
    }

    /// Cancel a request by id: a queued one resolves in place, unrun; a live
    /// one has its token fired and stops at its next cooperative check.
    /// `false` when no queued or live request has this id.
    fn cancel(&self, id: u64) -> bool {
        let mut state = self.lock_state();
        for class_queue in &mut state.queued {
            if let Some(at) = class_queue.iter().position(|p| p.id == id) {
                let pending = class_queue.remove(at).expect("position is in range");
                pending.control.cancel();
                pending.resolve_unrun(RequestStatus::Cancelled, self.clock.now(), self);
                return true;
            }
        }
        let Some(live) = state.live.iter().find(|l| l.id == id) else { return false };
        live.control.cancel();
        true
    }

    fn bump(&self, class: PriorityClass, status: RequestStatus) {
        let counters = &self.counters[class.index()];
        let counter = match status {
            RequestStatus::Completed => &counters.completed,
            RequestStatus::Cancelled => &counters.cancelled,
            RequestStatus::DeadlineExceeded => &counters.expired,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Try to claim a free live slot for a request. Returns the pending
    /// request to be started (via [`Shared::start_unlocked`], **after** the
    /// admission lock is released — session setup and scheduler registration
    /// are not cheap enough to serialize every submit behind), or `None` when
    /// the request is already past its deadline, in which case it expires
    /// here without consuming the slot. Caller holds the admission lock.
    fn claim_slot_locked(&self, state: &mut Admission, pending: Pending) -> Option<Pending> {
        if pending.is_due(self.clock.now()) {
            // Never start a run the deadline already ate.
            pending.expire(self);
            return None;
        }
        let class = pending.req.priority;
        state.live.push(LiveEntry { id: pending.id, class, control: pending.control.clone() });
        self.live_peak.fetch_max(state.live.len(), Ordering::Relaxed);
        Some(pending)
    }

    /// Start a claimed request: register it with the scheduler as a
    /// **driven session** — no thread is spawned; pool workers resume its
    /// state machine. Runs with no lock held (a cancel
    /// racing in here simply stops the run at its first step).
    fn start_unlocked(self: &Arc<Self>, pending: Pending) {
        let class = pending.req.priority;
        let Pending { id, req, control, submitted, outcome, mut observer, trace } = pending;
        let started = self.clock.now();
        let queue_wait = started.saturating_duration_since(submitted);
        self.counters[class.index()].queue_wait.record(queue_wait);
        trace.record_span("queue_wait", submitted, started);
        let SynthesisRequest { db, nlq, tsq, model, config, .. } = req;
        let mut session = SynthesisSession::new(db, nlq, model)
            .with_config(config)
            .with_control(control.clone())
            .with_priority_weight(class.weight())
            .with_trace(Arc::clone(&trace));
        if let Some(tsq) = tsq {
            session = session.with_tsq(tsq);
        }

        // Time-to-first-candidate is observed by the candidate sink but
        // reported in the outcome, so the two callbacks share the slot.
        let ttfc = Arc::new(Mutex::new(None::<Duration>));
        let shared = Arc::clone(self);
        let ttfc_sink = Arc::clone(&ttfc);
        let sink_control = control.clone();
        let sink_trace = Arc::clone(&trace);
        let on_candidate = Box::new(move |candidate: &Candidate| {
            {
                let mut slot = ttfc_sink.lock().expect("ttfc slot poisoned");
                if slot.is_none() {
                    let sample = shared.clock.now().saturating_duration_since(submitted);
                    *slot = Some(sample);
                    shared.counters[class.index()].ttfc.record(sample);
                }
            }
            // Each delivery is a traced span: with the net front attached the
            // observer is its bounded outbox push, so this is the
            // outbox-write timing; otherwise it is the ticket-channel send.
            let write_started = shared.clock.now();
            let keep = observer(candidate);
            if !keep {
                // The observer declining delivery (a dropped ticket's
                // channel, a full outbox) fires the token, as the ticket's
                // Drop does, so the request resolves as cancelled.
                sink_control.cancel();
            }
            sink_trace.record_span("deliver", write_started, shared.clock.now());
            keep
        });

        let shared = Arc::clone(self);
        let on_complete = Box::new(move |delivered: DrivenOutcome| {
            // Free the live slot (promoting queued work) before resolving
            // the ticket: a consumer that observes the outcome also observes
            // the slot released. A panicked (poisoned) session frees its
            // slot too but delivers no outcome — the ticket holder's `wait`
            // reports the vanished request.
            finish(&shared, id);
            let now = shared.clock.now();
            let result = match delivered {
                DrivenOutcome::Finished(result) => result,
                DrivenOutcome::Poisoned(message) => {
                    // The panic payload lands on the trace's terminal event
                    // and in the flight recorder instead of disappearing
                    // with the pool worker that hit it.
                    trace.mark_anomalous();
                    trace.record_span(ROOT_SPAN, submitted, now);
                    let detail = match message {
                        Some(msg) => format!("panicked: {msg}"),
                        None => "panicked".to_string(),
                    };
                    trace.event(TERMINAL_EVENT, now, Some(detail));
                    shared.flight.push(trace);
                    return;
                }
            };
            let status = if result.stats.cancelled || control.is_cancelled() {
                RequestStatus::Cancelled
            } else if result.stats.deadline_exceeded && control.deadline().is_some_and(|d| now >= d)
            {
                // Only the request's own service deadline counts as expiry;
                // the engine's `time_budget` cutting the search is a normal
                // completion mode (like `max_candidates`), visible in the
                // run's stats.
                RequestStatus::DeadlineExceeded
            } else {
                RequestStatus::Completed
            };
            shared.bump(class, status);
            close_trace(&trace, status, submitted, now, &shared);
            // The candidate sink (and with it the candidate sender) was
            // dropped by the scheduler before this callback fired, so a
            // consumer draining the ticket sees the stream end first.
            let _ = outcome.send(ServiceOutcome {
                result,
                status,
                queue_wait,
                time_to_first_candidate: *ttfc.lock().expect("ttfc slot poisoned"),
            });
        });
        session.spawn_driven(&self.handle, on_candidate, on_complete);
    }
}

/// Close out a resolved request's trace: the root span from `submitted` to
/// `at`, the terminal event with the status, the anomalous flag for an
/// expiry, and retention in the flight recorder.
fn close_trace(
    trace: &Arc<Trace>,
    status: RequestStatus,
    submitted: Instant,
    at: Instant,
    shared: &Shared,
) {
    if status == RequestStatus::DeadlineExceeded {
        trace.mark_anomalous();
    }
    trace.record_span(ROOT_SPAN, submitted, at);
    trace.event(TERMINAL_EVENT, at, Some(status.label().to_string()));
    shared.flight.push(Arc::clone(trace));
}

/// Free the request's live slot and promote queued work into it. Runs on
/// whichever pool worker completed the request. Slots are claimed under the
/// admission lock; the promoted sessions are constructed and registered
/// after it drops.
fn finish(shared: &Arc<Shared>, id: u64) {
    let mut state = shared.lock_state();
    state.live.retain(|l| l.id != id);
    if shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let mut promoted = Vec::new();
    while state.live.len() < shared.cfg.max_live_sessions.max(1) {
        let Some(next) = state.pop_queued() else { break };
        // An expired candidate resolves unrun without consuming the slot;
        // the loop keeps promoting until the free slots fill or the queue
        // drains.
        promoted.extend(shared.claim_slot_locked(&mut state, next));
    }
    drop(state);
    for pending in promoted {
        shared.start_unlocked(pending);
    }
}

/// The serving endpoint: one shared scheduler pool, an admission-controlled
/// request queue, and per-request tickets (see the [module docs](self) for
/// the lifecycle). The pool's fixed workers are the **only** threads the
/// service owns — requests are scheduler-driven sessions, and a queued
/// request expires when someone looks at the queue.
///
/// Dropping the service cancels everything still live or queued and shuts
/// the scheduler pool down (which resolves any still-parked request as
/// cancelled).
pub struct SynthesisService {
    shared: Arc<Shared>,
    /// Owned pool; dropped after the explicit `Drop` body has cancelled
    /// everything, so shutdown resolves every remaining request.
    _scheduler: SessionScheduler,
}

impl SynthesisService {
    /// Spawn a service with its own scheduler pool sized per `cfg.workers`.
    pub fn new(cfg: ServiceConfig) -> Self {
        SynthesisService::with_clock(cfg, system_clock())
    }

    /// Spawn a service whose pool — and every service timestamp (submit
    /// anchors, deadlines, queue expiry, TTFC) — reads time from `clock`.
    /// With a [`SimClock`](duoquest_core::SimClock) the service runs on a
    /// fully virtual timeline: deadlines only expire when the test advances
    /// the clock. This is the entry point deterministic simulation tests use.
    pub fn with_clock(cfg: ServiceConfig, clock: SharedClock) -> Self {
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            cfg.workers
        };
        let scheduler = SessionScheduler::new_with_clock(workers, Arc::clone(&clock));
        let flight = FlightRecorder::new(cfg.flight_capacity);
        let started = clock.now();
        let shared = Arc::new(Shared {
            cfg,
            handle: scheduler.handle(),
            clock,
            started,
            state: Mutex::new(Admission::default()),
            counters: Default::default(),
            shutdown: AtomicBool::new(false),
            live_peak: AtomicUsize::new(0),
            flight,
        });
        SynthesisService { shared, _scheduler: scheduler }
    }

    /// Submit a request. Admission control applies immediately:
    ///
    /// * under `max_live_sessions` live requests, the run starts now;
    /// * otherwise, under `max_queued` waiting requests, it queues (per-class
    ///   FIFO; a finishing request promotes the highest non-empty class);
    /// * otherwise the request is **shed**: [`AdmissionError::Overloaded`],
    ///   and the per-class `shed` counter ticks.
    ///
    /// The returned [`Ticket`] streams candidates as they survive
    /// verification and resolves to a [`ServiceOutcome`]; dropping it cancels
    /// the request.
    pub fn submit(&self, req: SynthesisRequest) -> Result<Ticket, AdmissionError> {
        let (cand_tx, cand_rx) = mpsc::channel();
        // A dropped ticket's receiver fails the send, which stops the run.
        let observer = Box::new(move |c: &Candidate| cand_tx.send(c.clone()).is_ok());
        self.submit_inner(req, observer, cand_rx)
    }

    /// [`SynthesisService::submit`] with a streaming [`CandidateObserver`]
    /// attached: the observer is called on the emitting pool worker for every
    /// candidate (in emission order) **instead of** the ticket's candidate
    /// channel, which yields nothing, and returning `false` from it stops the
    /// run — the request
    /// resolves as [`RequestStatus::Cancelled`]. This is the hookup the
    /// network front uses: each connection's bounded outbox is the observer,
    /// so a slow or dead client's backpressure reaches the engine without
    /// any intermediate buffering thread.
    ///
    /// The observer must not block for long — it runs inline on a shared
    /// pool worker. Push to a bounded queue and return `false` on overflow
    /// rather than waiting for a consumer.
    pub fn submit_with_observer(
        &self,
        req: SynthesisRequest,
        observer: CandidateObserver,
    ) -> Result<Ticket, AdmissionError> {
        self.submit_inner(req, observer, mpsc::channel().1)
    }

    /// Cancel a request by its service-assigned id ([`Ticket::id`]), whether
    /// live or still queued: a queued request resolves as cancelled at once,
    /// a live one stops at its next cooperative check. Returns `false` if no
    /// live or queued request has this id (already finished, or never
    /// existed). This is the hookup for remote cancellation, where the party
    /// cancelling (a `POST /cancel` on one connection) does not hold the
    /// ticket (owned by another connection's thread).
    pub fn cancel(&self, id: u64) -> bool {
        self.shared.cancel(id)
    }

    fn submit_inner(
        &self,
        req: SynthesisRequest,
        observer: CandidateObserver,
        candidates: Receiver<Candidate>,
    ) -> Result<Ticket, AdmissionError> {
        let now = self.shared.clock.now();
        let class = req.priority;
        let mut control = SessionControl::new();
        if let Some(budget) = req.deadline {
            control = control.with_deadline(now + budget);
        }
        let (out_tx, out_rx) = mpsc::channel();
        let mut state = self.shared.lock_state();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(AdmissionError::ShuttingDown);
        }
        let id = state.next_id;
        state.next_id += 1;
        // The trace anchors at the service's start instant, not at `now`:
        // under a simulated clock that puts every offset directly on the
        // virtual timeline, and across requests all traces share one time
        // base (ids disambiguate).
        let trace = Arc::new(Trace::new(id, self.shared.started));
        trace.event("submitted", now, Some(class.label().to_string()));
        let pending = Pending {
            id,
            req,
            control: control.clone(),
            submitted: now,
            outcome: out_tx,
            observer,
            trace,
        };
        let mut to_start = None;
        if state.live.len() < self.shared.cfg.max_live_sessions.max(1) {
            to_start = self.shared.claim_slot_locked(&mut state, pending);
        } else if state.queued_total() < self.shared.cfg.max_queued {
            pending.trace.event("queued", now, None);
            state.queued[class.index()].push_back(pending);
        } else {
            self.shared.counters[class.index()].shed.fetch_add(1, Ordering::Relaxed);
            // A shed request still leaves a (terminal-only, anomalous) trace
            // in the flight recorder: overload is exactly when post-hoc
            // visibility matters most.
            pending.trace.mark_anomalous();
            pending.trace.event(TERMINAL_EVENT, now, Some("shed".to_string()));
            self.shared.flight.push(pending.trace);
            return Err(AdmissionError::Overloaded {
                live: state.live.len(),
                queued: state.queued_total(),
            });
        }
        self.shared.counters[class.index()].submitted.fetch_add(1, Ordering::Relaxed);
        drop(state);
        // Session construction and scheduler registration happen off the
        // admission lock, so concurrent submits don't serialize behind them.
        if let Some(pending) = to_start {
            self.shared.start_unlocked(pending);
        }
        Ok(Ticket {
            id,
            priority: class,
            control,
            candidates,
            outcome: out_rx,
            shared: Arc::downgrade(&self.shared),
            received: None,
        })
    }

    /// The service's clock — the same timeline the scheduler pool, every
    /// deadline check and every trace offset read from. Simulated when the
    /// service was built with [`SynthesisService::with_clock`] over a
    /// [`SimClock`](duoquest_core::SimClock).
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.shared.clock)
    }

    /// The completed-request trace with this id, if the flight recorder
    /// still retains it (bounded ring, oldest evicted; see
    /// [`ServiceConfig::flight_capacity`]). Live requests are not served —
    /// a trace becomes visible when its request resolves.
    pub fn trace(&self, id: u64) -> Option<Arc<Trace>> {
        self.shared.flight.get(id)
    }

    /// The JSON body of [`SynthesisService::trace`] (the `GET /trace/<id>`
    /// response on the network front).
    pub fn trace_json(&self, id: u64) -> Option<String> {
        self.trace(id).map(|trace| trace.to_json())
    }

    /// Ids of every trace the flight recorder currently retains, oldest
    /// first. The DST harness walks these to prove trace conservation:
    /// every admitted-or-shed request leaves exactly one retained trace.
    pub fn trace_ids(&self) -> Vec<u64> {
        self.shared.flight.ids()
    }

    /// Snapshot the service: per-class admission state, counters and
    /// latency histograms, the flight recorder's depth and the scheduler
    /// pool's load — everything `GET /stats` and `GET /metrics` serve
    /// ([`ServiceStats::render`]).
    pub fn stats(&self) -> ServiceStats {
        let state = self.shared.lock_state();
        let classes = std::array::from_fn(|i| {
            let class = PriorityClass::ALL[i];
            let counters = &self.shared.counters[i];
            ClassStats {
                class,
                queued: state.queued[i].len(),
                live: state.live.iter().filter(|l| l.class == class).count(),
                submitted: counters.submitted.load(Ordering::Relaxed),
                completed: counters.completed.load(Ordering::Relaxed),
                cancelled: counters.cancelled.load(Ordering::Relaxed),
                expired: counters.expired.load(Ordering::Relaxed),
                shed: counters.shed.load(Ordering::Relaxed),
                ttfc: counters.ttfc.snapshot(),
                queue_wait: counters.queue_wait.snapshot(),
            }
        });
        ServiceStats {
            live_sessions: state.live.len(),
            queued_requests: state.queued_total(),
            live_sessions_peak: self.shared.live_peak.load(Ordering::Relaxed),
            flight_traces: self.shared.flight.len(),
            classes,
            scheduler: self.shared.handle.stats(),
        }
    }
}

impl Drop for SynthesisService {
    /// Shut down: refuse new work, cancel everything live, resolve everything
    /// queued as cancelled (or expired, if its deadline has passed) — then
    /// the owned scheduler field drops, joining the pool's fixed workers and
    /// resolving any still-parked driven session as cancelled (its
    /// completion callback delivers the cancelled outcome through the normal
    /// path). There are no request threads or housekeeper threads to join.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut state = self.shared.lock_state();
        for live in &state.live {
            live.control.cancel();
        }
        let now = self.shared.clock.now();
        for pending in state.queued.iter_mut().flat_map(|q| q.drain(..)) {
            pending.control.cancel();
            pending.resolve_unrun(RequestStatus::Cancelled, now, &self.shared);
        }
    }
}

impl std::fmt::Debug for SynthesisService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisService").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_core::DuoquestConfig;
    use duoquest_db::{CmpOp, Database, Schema};
    use duoquest_nlq::{GuidanceModel, Literal, Nlq, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::QueryBuilder;

    fn movie_db() -> Database {
        use duoquest_db::{ColumnDef, TableDef, Value};
        let mut schema = Schema::new("movies-test");
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
        db
    }

    /// A perfect oracle for "names of movies before 1995".
    fn oracle(db: &Database) -> NoisyOracleGuidance {
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        NoisyOracleGuidance::with_config(gold, 3, OracleConfig::perfect())
    }

    fn request(db: &Arc<Database>, max_candidates: usize) -> SynthesisRequest {
        request_with(db, max_candidates, Arc::new(oracle(db)))
    }

    fn request_with(
        db: &Arc<Database>,
        max_candidates: usize,
        model: Arc<dyn GuidanceModel>,
    ) -> SynthesisRequest {
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let mut config = DuoquestConfig::fast();
        config.max_candidates = max_candidates;
        config.time_budget = None;
        SynthesisRequest::new(Arc::clone(db), nlq, model).with_config(config)
    }

    #[test]
    fn completed_request_matches_private_session() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 2,
            max_live_sessions: 2,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        let req = request(&db, 20);
        let outcome = service.submit(req).unwrap().wait();
        assert_eq!(outcome.status, RequestStatus::Completed);
        assert!(outcome.time_to_first_candidate.is_some());

        let solo_req = request(&db, 20);
        let SynthesisRequest { db, nlq, model, config, .. } = solo_req;
        let solo = SynthesisSession::new(db, nlq, model).with_config(config).run();
        let render = |r: &SynthesisResult| {
            r.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect::<Vec<_>>()
        };
        assert_eq!(render(&outcome.result), render(&solo));
    }

    #[test]
    fn queue_promotes_in_class_order_and_sheds_on_full() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 1,
            max_queued: 2,
            ..ServiceConfig::default()
        });
        // Occupy the single live slot, then fill the queue.
        let first = service.submit(request(&db, 50)).unwrap();
        let background =
            service.submit(request(&db, 5).with_priority(PriorityClass::Background)).unwrap();
        let interactive =
            service.submit(request(&db, 5).with_priority(PriorityClass::Interactive)).unwrap();
        // Queue is at its bound of 2: the next submit is shed.
        let shed = service.submit(request(&db, 5).with_priority(PriorityClass::Batch));
        assert!(matches!(shed, Err(AdmissionError::Overloaded { .. })), "{shed:?}");
        let stats = service.stats();
        assert_eq!(stats.class(PriorityClass::Batch).shed, 1);
        assert_eq!(stats.classes.iter().map(|c| c.shed).sum::<u64>(), 1);

        // The interactive request (submitted after the background one) is
        // promoted first once the live slot frees.
        let first_outcome = first.wait();
        assert_eq!(first_outcome.status, RequestStatus::Completed);
        let interactive_outcome = interactive.wait();
        let background_outcome = background.wait();
        assert_eq!(interactive_outcome.status, RequestStatus::Completed);
        assert_eq!(background_outcome.status, RequestStatus::Completed);
        assert!(
            interactive_outcome.queue_wait <= background_outcome.queue_wait,
            "interactive must leave the queue first: {:?} vs {:?}",
            interactive_outcome.queue_wait,
            background_outcome.queue_wait
        );
    }

    #[test]
    fn cancelling_a_queued_request_resolves_without_running() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 1,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        let running = service.submit(request(&db, 50)).unwrap();
        let queued = service.submit(request(&db, 50)).unwrap();
        queued.cancel();
        let queued_outcome = queued.wait();
        assert_eq!(queued_outcome.status, RequestStatus::Cancelled);
        assert!(queued_outcome.result.candidates.is_empty());
        assert!(queued_outcome.time_to_first_candidate.is_none());
        assert_eq!(running.wait().status, RequestStatus::Completed);
        let stats = service.stats();
        assert_eq!(stats.class(PriorityClass::Interactive).cancelled, 1);
        assert_eq!(stats.class(PriorityClass::Interactive).completed, 1);
    }

    #[test]
    fn zero_deadline_expires_while_queued() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 1,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        let running = service.submit(request(&db, 50)).unwrap();
        let doomed = service.submit(request(&db, 50).with_deadline(Duration::ZERO)).unwrap();
        let outcome = doomed.wait();
        assert_eq!(outcome.status, RequestStatus::DeadlineExceeded);
        assert!(outcome.result.stats.deadline_exceeded);
        assert!(outcome.result.candidates.is_empty());
        assert_eq!(running.wait().status, RequestStatus::Completed);
        assert_eq!(service.stats().class(PriorityClass::Interactive).expired, 1);
    }

    #[test]
    fn dropping_the_service_cancels_queued_requests() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 1,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        let _running = service.submit(request(&db, 50)).unwrap();
        let queued = service.submit(request(&db, 50)).unwrap();
        drop(service);
        let outcome = queued.wait();
        assert_eq!(outcome.status, RequestStatus::Cancelled);
    }

    #[test]
    fn observer_replaces_channel_delivery_and_matches_it() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 2,
            max_live_sessions: 2,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        // Reference: the same request through the plain channel path.
        let reference: Vec<String> = service
            .submit(request(&db, 10))
            .unwrap()
            .map(|c| format!("{:?}~{:016x}", c.spec, c.confidence.to_bits()))
            .collect();
        assert!(!reference.is_empty());

        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut ticket = service
            .submit_with_observer(
                request(&db, 10),
                Box::new(move |c: &Candidate| {
                    sink.lock().unwrap().push(format!(
                        "{:?}~{:016x}",
                        c.spec,
                        c.confidence.to_bits()
                    ));
                    true
                }),
            )
            .unwrap();
        // The ticket's candidate channel stays silent: the observer replaced it.
        assert!(ticket.next_timeout(Duration::from_secs(30)).is_none());
        let outcome = ticket.wait();
        assert_eq!(outcome.status, RequestStatus::Completed);
        assert!(outcome.time_to_first_candidate.is_some(), "TTFC recorded via observer");
        assert_eq!(*seen.lock().unwrap(), reference, "observer sees the same emission stream");
    }

    #[test]
    fn observer_returning_false_stops_the_run() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 1,
            max_queued: 2,
            ..ServiceConfig::default()
        });
        let count = Arc::new(Mutex::new(0usize));
        let sink = Arc::clone(&count);
        let outcome = service
            .submit_with_observer(
                request(&db, 50),
                Box::new(move |_c: &Candidate| {
                    let mut n = sink.lock().unwrap();
                    *n += 1;
                    *n < 2
                }),
            )
            .unwrap()
            .wait();
        assert_eq!(outcome.status, RequestStatus::Cancelled);
        assert_eq!(*count.lock().unwrap(), 2, "stopped right after the observer said no");
        // The slot is free again: a follow-up request runs to completion.
        assert_eq!(
            service.submit(request(&db, 5)).unwrap().wait().status,
            RequestStatus::Completed
        );
        assert_eq!(service.stats().live_sessions, 0);
    }

    /// A guidance model whose `score` blocks until its gate opens — the
    /// test drops the gate's sender — and then scores as `inner` does.
    struct Gated {
        inner: NoisyOracleGuidance,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl GuidanceModel for Gated {
        fn score(
            &self,
            ctx: &duoquest_nlq::GuidanceContext<'_>,
            candidates: &[duoquest_nlq::Choice],
        ) -> Vec<f64> {
            // Nothing is ever sent: `recv` returns once the sender is gone.
            let _ = self.gate.lock().expect("gate lock poisoned").recv();
            self.inner.score(ctx, candidates)
        }
    }

    #[test]
    fn cancel_by_id_reaps_live_and_queued_requests() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 1,
            max_queued: 4,
            ..ServiceConfig::default()
        });
        // The running request cannot finish before both cancels are sent:
        // its model blocks until the gate opens.
        let (open_gate, gate) = mpsc::channel();
        let gated = Gated { inner: oracle(&db), gate: Mutex::new(gate) };
        let running = service.submit(request_with(&db, 200, Arc::new(gated))).unwrap();
        let mut queued = service.submit(request(&db, 200)).unwrap();
        assert!(service.cancel(queued.id()), "queued request found by id");
        assert!(service.cancel(running.id()), "live request found by id");
        // The one worker is held by the gated run, and the queued request
        // has resolved all the same: its cancel resolved it in place.
        let status = queued.try_wait().map(|outcome| outcome.status);
        assert_eq!(status, Some(RequestStatus::Cancelled), "resolved before the gate opens");
        drop::<mpsc::Sender<()>>(open_gate);
        assert_eq!(queued.wait().status, RequestStatus::Cancelled);
        assert_eq!(running.wait().status, RequestStatus::Cancelled);
        assert!(!service.cancel(9999), "unknown id reports false");
        let stats = service.stats();
        assert_eq!(stats.live_sessions, 0);
        assert_eq!(stats.queued_requests, 0);
        assert_eq!(stats.class(PriorityClass::Interactive).cancelled, 2);
    }

    #[test]
    fn a_queued_deadline_expires_on_the_next_look_as_of_its_deadline() {
        let db = movie_db().into_shared();
        let clock = Arc::new(duoquest_core::SimClock::new());
        let service = SynthesisService::with_clock(
            ServiceConfig {
                workers: 1,
                max_live_sessions: 1,
                max_queued: 4,
                ..ServiceConfig::default()
            },
            Arc::clone(&clock) as SharedClock,
        );
        // The gated run holds the only live slot and the only worker.
        let (open_gate, gate) = mpsc::channel();
        let gated = Gated { inner: oracle(&db), gate: Mutex::new(gate) };
        let running = service.submit(request_with(&db, 200, Arc::new(gated))).unwrap();
        let queued =
            service.submit(request(&db, 200).with_deadline(Duration::from_millis(1))).unwrap();
        clock.advance(Duration::from_millis(5));
        // Nobody has waited on the ticket: the stats snapshot's look at the
        // queue is what expires it.
        let stats = service.stats();
        assert_eq!(stats.class(PriorityClass::Interactive).expired, 1);
        assert_eq!(stats.queued_requests, 0);
        let outcome = queued.wait();
        assert_eq!(outcome.status, RequestStatus::DeadlineExceeded);
        assert_eq!(outcome.queue_wait, Duration::from_millis(1), "expired as of its deadline");
        assert!(outcome.time_to_first_candidate.is_none());
        drop::<mpsc::Sender<()>>(open_gate);
        assert_eq!(running.wait().status, RequestStatus::Completed);
    }

    #[test]
    fn stats_json_parses_and_round_trips() {
        let db = movie_db().into_shared();
        let service = SynthesisService::new(ServiceConfig {
            workers: 1,
            max_live_sessions: 2,
            max_queued: 2,
            ..ServiceConfig::default()
        });
        let outcome =
            service.submit(request(&db, 10).with_priority(PriorityClass::Batch)).unwrap().wait();
        assert_eq!(outcome.status, RequestStatus::Completed);
        let stats = service.stats();
        let mut body = duoquest_obs::JsonObject::default();
        stats.render(&mut body);
        let parsed = json::Json::parse(&body.finish()).expect("stats JSON parses");
        let batch = parsed.get("classes").and_then(|c| c.get("batch")).expect("batch section");
        assert_eq!(batch.get("completed").and_then(json::Json::as_u64), Some(1));
        assert_eq!(batch.get("submitted").and_then(json::Json::as_u64), Some(1));
        assert_eq!(
            batch.get("ttfc_p50_us").and_then(json::Json::as_u64),
            stats.class(PriorityClass::Batch).ttfc.quantile_us(0.50)
        );
        assert_eq!(
            batch.get("queue_wait_p95_us").and_then(json::Json::as_u64),
            stats.class(PriorityClass::Batch).queue_wait.quantile_us(0.95)
        );
        assert_eq!(
            parsed.get("live_sessions").and_then(json::Json::as_u64),
            Some(stats.live_sessions as u64)
        );
        assert_eq!(
            parsed.get("flight_traces").and_then(json::Json::as_u64),
            Some(stats.flight_traces as u64)
        );
        assert_eq!(
            parsed.get("live_sessions_peak").and_then(json::Json::as_u64),
            Some(stats.live_sessions_peak as u64)
        );
        assert!(stats.live_sessions_peak >= 1, "one request ran");
        let sched = parsed.get("scheduler").expect("scheduler section");
        assert_eq!(
            sched.get("workers").and_then(json::Json::as_u64),
            Some(stats.scheduler.workers as u64)
        );
    }
}
