//! A shared batch scheduler multiplexing many
//! [`SynthesisSession`](crate::session::SynthesisSession)s over one
//! long-lived worker pool.
//!
//! The paper's interactive setting implies many users issuing
//! dual-specification synthesis tasks concurrently. Giving every
//! [`SynthesisSession`](crate::session::SynthesisSession) its own worker
//! threads (the pre-scheduler design)
//! stalls at one-pool-per-session: N concurrent sessions on a K-core box
//! fight over cores with N×K threads, and a single expensive session can
//! monopolize the machine. The [`SessionScheduler`] instead owns **one**
//! worker pool for the whole process and serves any number of sessions from
//! it:
//!
//! * Each session's serial round loop is the `RoundDriver` **state machine**
//!   of `crate::enumerate` (beam pop, child expansion and scoring, ordered
//!   merge). A **driven** session parks that driver inside the scheduler: no
//!   OS thread exists per session, and when the driver needs to run, a pool
//!   worker resumes it inline. A blocking caller
//!   ([`SynthesisSession::run`](crate::session::SynthesisSession::run)) may
//!   instead drive the same state machine on its own thread.
//! * The expensive phase — join-path construction plus the ascending-cost
//!   verification cascade — is split into chunked **work units** and
//!   submitted to the scheduler's fairness-aware queue.
//! * Workers pull units in **weighted round-robin order across live
//!   sessions** (weight = the session's beam width times its priority
//!   multiplier), so one session with a huge fan-out cannot starve the
//!   others: every queue rotation serves each session before returning to
//!   the first.
//! * When the last outstanding chunk of a driven session's round returns,
//!   **the worker that finished it resumes the session's driver inline** —
//!   merging results, emitting candidates and submitting the next round —
//!   instead of waking a parked thread. Live-session capacity is therefore
//!   bounded by memory, not by OS thread count.
//! * A session's chunk results are reassembled **in original child order**
//!   before the merge, so its candidate emission sequence is byte-identical
//!   to a single-session run on a private pool — for any pool size
//!   (`tests/determinism.rs` asserts this under interleaved sessions).
//!
//! The pool also carries a **tick hook** ([`SchedulerHandle::set_tick`]): a
//! housekeeping callback the workers invoke at its requested time (between
//! units, or from a timed wait when the pool is idle). The service layer
//! uses it for deadline expiry of queued requests — folding what used to be
//! a dedicated housekeeper thread into the scheduler's own event loop.
//!
//! Pool-wide behaviour is observable through [`SessionScheduler::stats`]
//! (queue depth, busy workers, live sessions) and per-run through the
//! [`SchedulerRunStats`] embedded in [`EnumerationStats`].
//!
//! # Example
//!
//! Two sessions sharing one pool:
//!
//! ```
//! use duoquest_core::{DuoquestConfig, SessionScheduler, SynthesisSession};
//! use duoquest_db::{ColumnDef, Database, Schema, TableDef, Value};
//! use duoquest_nlq::{HeuristicGuidance, Literal, Nlq};
//! use std::sync::Arc;
//!
//! // A tiny in-memory database: one table of movies.
//! let mut schema = Schema::new("demo");
//! schema.add_table(TableDef::new(
//!     "movies",
//!     vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
//!     Some(0),
//! ));
//! let mut db = Database::new(schema).unwrap();
//! db.insert("movies", vec![Value::int(1), Value::text("Heat"), Value::int(1995)]).unwrap();
//! db.insert("movies", vec![Value::int(2), Value::text("Up"), Value::int(2009)]).unwrap();
//! db.rebuild_index();
//! let db = db.into_shared();
//!
//! // One pool, two concurrent sessions multiplexed over it.
//! let pool = SessionScheduler::new(2);
//! let model = Arc::new(HeuristicGuidance::new());
//! let sessions: Vec<_> = ["movie names before 2000", "movie names after 2000"]
//!     .into_iter()
//!     .map(|q| {
//!         let nlq = Nlq::with_literals(q, vec![Literal::number(2000.0)]);
//!         SynthesisSession::new(Arc::clone(&db), nlq, model.clone())
//!             .with_config(DuoquestConfig::fast())
//!             .with_scheduler(pool.handle())
//!     })
//!     .collect();
//! for session in sessions {
//!     let result = session.run();
//!     assert!(!result.candidates.is_empty());
//! }
//! assert_eq!(pool.stats().live_sessions, 0);
//! ```

use crate::clock::{system_clock, SharedClock};
use crate::config::{DuoquestConfig, EmissionPolicy};
use crate::engine::{Candidate, CandidateCollector, SynthesisResult};
use crate::enumerate::{
    drive_rounds, min_deadline, process_chunk, ChildJob, ChunkResult, EnumerationStats,
    RoundDispatcher, RoundDriver, RoundEnv, StepEnv, StepOutcome, MIN_PARALLEL_JOBS,
};
use crate::joinpath::JoinPlanner;
use crate::session::SessionControl;
use crate::tsq::TableSketchQuery;
use crate::verify::{Verifier, VerifyPlan};
use duoquest_db::{Database, RunCacheCounters, SelectSpec};
use duoquest_nlq::{GuidanceModel, Literal, Nlq};
use duoquest_obs::Trace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A point-in-time snapshot of the pool, from [`SessionScheduler::stats`] or
/// [`SchedulerHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Worker threads owned by the pool.
    pub workers: usize,
    /// Workers currently executing a unit.
    pub busy_workers: usize,
    /// Work units queued and not yet picked up.
    pub queue_depth: usize,
    /// Sessions currently registered (externally driven or scheduler-driven).
    pub live_sessions: usize,
    /// Work units executed since the pool started.
    pub units_executed: u64,
}

impl SchedulerStats {
    /// Render as a JSON object for scraping (hand-rolled; the vendored
    /// `serde` derives are no-ops).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"busy_workers\":{},\"queue_depth\":{},\"live_sessions\":{},\
             \"units_executed\":{}}}",
            self.workers,
            self.busy_workers,
            self.queue_depth,
            self.live_sessions,
            self.units_executed,
        )
    }
}

/// Shared-pool observations recorded by one synthesis run, surfaced in
/// [`EnumerationStats::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerRunStats {
    /// Worker threads of the pool that served the run.
    pub pool_workers: usize,
    /// Work units this run submitted to the shared queue.
    pub units_submitted: u64,
    /// Work units this run executed inline (fan-outs too small to be worth
    /// the queue handoff) — on the driving thread for a blocking session, on
    /// the resuming pool worker for a driven one.
    pub units_inline: u64,
    /// Deepest shared queue observed while this run was submitting,
    /// including other sessions' units — a contention signal.
    pub queue_depth_peak: usize,
    /// Most busy workers observed while this run was submitting.
    pub busy_workers_peak: usize,
    /// Most live sessions observed while this run was submitting.
    pub live_sessions_peak: usize,
}

impl SchedulerRunStats {
    /// Render as a JSON object for scraping (hand-rolled; the vendored
    /// `serde` derives are no-ops).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"pool_workers\":{},\"units_submitted\":{},\"units_inline\":{},\
             \"queue_depth_peak\":{},\"busy_workers_peak\":{},\"live_sessions_peak\":{}}}",
            self.pool_workers,
            self.units_submitted,
            self.units_inline,
            self.queue_depth_peak,
            self.busy_workers_peak,
            self.live_sessions_peak,
        )
    }
}

/// Everything a pool worker needs to execute one of a session's work units,
/// owned (`'static`) so the long-lived pool can outlive any borrow of the
/// session's inputs. One context is built per synthesis run and shared by
/// `Arc` between the driving side and the workers.
struct SessionContext {
    db: Arc<Database>,
    tsq: Option<TableSketchQuery>,
    literals: Vec<Literal>,
    config: DuoquestConfig,
    /// The run's join path construction, shared by the run's chunk workers.
    joins: JoinPlanner,
    /// Per-session probe-cache attribution: the shared database's cache is hit
    /// by every live session, these counters record only this session's
    /// traffic.
    counters: Arc<RunCacheCounters>,
    /// The run's column-wise verdicts, read and filled by every chunk worker
    /// of the session and by no other session (see [`VerifyPlan`]).
    plan: Arc<VerifyPlan>,
    deadline: Option<Instant>,
    /// The session's cancellation token: workers check it between jobs, the
    /// fairness queue reaps queued units once it fires, and the driving side
    /// uses it to tell a cancellation disconnect from a pool shutdown.
    cancel: Arc<AtomicBool>,
    /// The pool's time source, shared by every session on it: deadline
    /// checks, emission timestamps and stage timings read this (virtual
    /// under the deterministic simulation harness).
    clock: SharedClock,
    /// Whether the session carries a request trace (chunk workers then record
    /// chunk spans into their local result buffers).
    trace: bool,
}

impl SessionContext {
    /// The context of one run, its plans built and its counters at zero.
    #[allow(clippy::too_many_arguments)]
    fn new(
        db: Arc<Database>,
        tsq: Option<TableSketchQuery>,
        literals: Vec<Literal>,
        config: DuoquestConfig,
        deadline: Option<Instant>,
        cancel: Arc<AtomicBool>,
        clock: SharedClock,
        trace: bool,
    ) -> Self {
        SessionContext {
            joins: JoinPlanner::new(&db, config.join_extension_depth),
            counters: Arc::new(RunCacheCounters::default()),
            plan: Arc::new(VerifyPlan::new(&db, tsq.as_ref())),
            db,
            tsq,
            literals,
            config,
            deadline,
            cancel,
            clock,
            trace,
        }
    }

    /// Run one chunk of the session's round: build a borrow-scoped verifier
    /// over the owned context (cheap — two `Arc` clones and a few references)
    /// and hand off to the engine's chunk processor.
    fn process(&self, jobs: Vec<ChildJob>) -> ChunkResult {
        let verifier =
            Verifier::new(&self.db, self.tsq.as_ref(), &self.literals, self.config.semantic_rules)
                .with_prune_partial(self.config.prune_partial)
                .with_counters(Arc::clone(&self.counters))
                .with_plan(Arc::clone(&self.plan))
                .with_clock(self.clock.as_ref());
        let env = RoundEnv {
            joins: &self.joins,
            verifier: &verifier,
            deadline: self.deadline,
            cancel: &self.cancel,
            clock: self.clock.as_ref(),
            trace: self.trace,
        };
        process_chunk(jobs, &env)
    }
}

/// One queued unit of work.
enum WorkUnit {
    /// A chunk of an **externally driven** session (a blocking caller runs
    /// the round loop on its own thread and waits on `result_tx`).
    External {
        chunk_idx: usize,
        jobs: Vec<ChildJob>,
        ctx: Arc<SessionContext>,
        result_tx: Sender<(usize, std::thread::Result<ChunkResult>)>,
    },
    /// A chunk of a **scheduler-driven** session: the result is routed back
    /// into the session's parked round assembly, and the worker that
    /// completes the round resumes the session's driver inline.
    DrivenChunk { session: u64, chunk_idx: usize, jobs: Vec<ChildJob>, ctx: Arc<SessionContext> },
    /// Resume a driven session's parked driver (its initial kick, or a round
    /// completed entirely by cancellation reaping).
    Resume { session: u64 },
}

/// How a scheduler-driven session ended: the terminal value handed to its
/// completion callback (see [`crate::SynthesisSession::spawn_driven`]).
// The value moves exactly once, into the completion callback — boxing the
// result would add an allocation per completed session for no
// retained-memory win.
#[allow(clippy::large_enum_variant)]
pub enum DrivenOutcome {
    /// The run completed (including cancellation, deadline and shutdown
    /// wind-downs — those resolve through the ranked result's stats flags).
    Finished(SynthesisResult),
    /// A `step` or chunk panicked, poisoning this session alone. Carries the
    /// panic message when one could be extracted from the payload (`&str` and
    /// `String` payloads — i.e. everything `panic!` itself produces); `None`
    /// for exotic payloads or when the callback itself had to be abandoned.
    Poisoned(Option<String>),
}

/// Extract the human-readable message from a panic payload, as captured by
/// `std::panic::catch_unwind`. Covers the payloads `panic!` produces (`&str`
/// for literal messages, `String` for formatted ones); anything else — a
/// custom `panic_any` payload — yields `None`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        return Some((*msg).to_string());
    }
    payload.downcast_ref::<String>().cloned()
}

/// The candidate sink of a driven session.
type DrivenSink = Box<dyn FnMut(&Candidate) -> bool + Send>;
/// The completion callback of a driven session, receiving how it ended.
type DrivenCompletion = Box<dyn FnOnce(DrivenOutcome) + Send>;

/// Everything a worker takes out of the slot to resume a driven session: the
/// state machine, the dedup/rank collector, the sinks' inputs and the
/// session's owned resources.
struct DrivenCore {
    driver: RoundDriver,
    collector: CandidateCollector,
    on_candidate: DrivenSink,
    ctx: Arc<SessionContext>,
    nlq: Nlq,
    model: Arc<dyn GuidanceModel>,
    run_stats: SchedulerRunStats,
    start: Instant,
}

/// The in-flight round of a parked driven session: chunk results keyed by
/// chunk index, completed when `remaining` hits zero.
struct RoundAssembly {
    results: Vec<Option<ChunkResult>>,
    remaining: usize,
    /// Streaming rounds only: the next chunk index to feed. Everything before
    /// it has already been handed to the driver and taken out of `results`.
    fed: usize,
    /// Whether this round streams contiguous chunk prefixes into the driver
    /// as they complete (any-k emission) instead of waiting for the full set.
    streaming: bool,
}

impl RoundAssembly {
    fn into_ordered_results(self) -> Vec<ChunkResult> {
        self.results.into_iter().map(|r| r.expect("every chunk reported")).collect()
    }

    /// Pull the contiguous run of completed-but-unfed chunks off a streaming
    /// round, advancing the feed cursor past them.
    fn take_contiguous(&mut self) -> Vec<ChunkResult> {
        let mut batch = Vec::new();
        while self.fed < self.results.len() {
            match self.results[self.fed].take() {
                Some(chunk) => {
                    batch.push(chunk);
                    self.fed += 1;
                }
                None => break,
            }
        }
        batch
    }
}

/// The scheduler-side state of one driven session.
struct DrivenSlot {
    /// The parked core; `None` while a worker holds it (actively stepping).
    parked: Option<DrivenCore>,
    /// The in-flight round, when chunks are outstanding.
    round: Option<RoundAssembly>,
    on_complete: Option<DrivenCompletion>,
}

/// One live session's slot in the fairness queue.
struct SessionQueue {
    id: u64,
    /// Scheduling weight — the session's beam width times its priority
    /// multiplier (interactive sessions register a larger multiplier than
    /// batch ones): units granted per round-robin rotation before the cursor
    /// moves on.
    weight: usize,
    /// Units remaining in the current rotation.
    quantum: usize,
    pending: VecDeque<WorkUnit>,
    /// The session's cancellation token: once it fires, queued units are
    /// dropped (reaped) instead of executed.
    cancel: Arc<AtomicBool>,
    /// `Some` for scheduler-driven sessions, `None` for externally driven
    /// (blocking) ones.
    driven: Option<DrivenSlot>,
}

/// The fairness-aware queue: weighted round-robin across live sessions.
#[derive(Default)]
struct QueueState {
    sessions: Vec<SessionQueue>,
    /// Rotation cursor into `sessions`.
    cursor: usize,
    /// Total queued units across all sessions.
    depth: usize,
    next_id: u64,
}

impl QueueState {
    /// The one registration path for both session kinds: allocate the next
    /// monotone id and append the slot — which is what keeps `sessions`
    /// sorted by id, the invariant [`QueueState::session_mut`]'s binary
    /// search depends on.
    fn insert_slot(
        &mut self,
        weight: usize,
        cancel: Arc<AtomicBool>,
        driven: Option<DrivenSlot>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let weight = weight.max(1);
        self.sessions.push(SessionQueue {
            id,
            weight,
            quantum: weight,
            pending: VecDeque::new(),
            cancel,
            driven,
        });
        id
    }

    /// Slot lookup by id. Ids are handed out monotonically and `sessions`
    /// only ever appends fresh ids (removals preserve order), so the vector
    /// stays sorted by id and the lookup is a binary search — every chunk
    /// completion routes through here under the pool-wide lock, so this must
    /// not be a linear scan over a thousand live sessions.
    fn session_mut(&mut self, id: u64) -> Option<&mut SessionQueue> {
        let pos = self.sessions.binary_search_by_key(&id, |s| s.id).ok()?;
        Some(&mut self.sessions[pos])
    }

    /// Remove a session's slot entirely (its queued units drop with it),
    /// returning it so driven teardown can extract the completion callback.
    fn remove_session(&mut self, id: u64) -> Option<SessionQueue> {
        let pos = self.sessions.binary_search_by_key(&id, |s| s.id).ok()?;
        let removed = self.sessions.remove(pos);
        self.depth -= removed.pending.len();
        if pos < self.cursor {
            self.cursor -= 1;
        }
        Some(removed)
    }

    /// Drop the queued units of the session at `idx` if it has been
    /// cancelled, returning how many were reaped.
    ///
    /// For an **external** session every unit is dropped; its result senders
    /// disconnect, which the blocked driver observes as the cancellation
    /// taking effect. For a **driven** session the queued chunk units are
    /// dropped and their results fabricated as cancelled into the parked
    /// round assembly; if that completes the round, a `Resume` unit is
    /// queued so a worker winds the driver down (the driver observes the
    /// cancelled chunk flags — and the token itself — and finishes).
    fn reap_slot(&mut self, idx: usize) -> usize {
        let slot = &mut self.sessions[idx];
        if slot.pending.is_empty() || !slot.cancel.load(Ordering::Acquire) {
            return 0;
        }
        match &mut slot.driven {
            None => {
                let reaped = slot.pending.len();
                slot.pending.clear();
                self.depth -= reaped;
                reaped
            }
            Some(driven) => {
                let mut fabricated = 0usize;
                let mut kept = VecDeque::new();
                while let Some(unit) = slot.pending.pop_front() {
                    match unit {
                        WorkUnit::DrivenChunk { chunk_idx, .. } => {
                            if let Some(round) = &mut driven.round {
                                round.results[chunk_idx] =
                                    Some(ChunkResult { cancelled: true, ..ChunkResult::default() });
                                round.remaining -= 1;
                            }
                            fabricated += 1;
                        }
                        other => kept.push_back(other),
                    }
                }
                slot.pending = kept;
                self.depth -= fabricated;
                let round_complete =
                    driven.round.as_ref().map(|r| r.remaining == 0).unwrap_or(false);
                if fabricated > 0 && round_complete && driven.parked.is_some() {
                    let session = slot.id;
                    slot.pending.push_back(WorkUnit::Resume { session });
                    self.depth += 1;
                }
                fabricated
            }
        }
    }

    /// Pop the next unit in weighted round-robin order: the cursor session
    /// spends one quantum per pop and yields the cursor when its quantum (or
    /// queue) is exhausted, so a session with weight *w* gets at most *w*
    /// units per rotation and an expensive session cannot starve the rest.
    ///
    /// Cancelled sessions encountered along the way have their queued units
    /// reaped (dropped, never executed) — the unit-level half of
    /// cancellation; see [`QueueState::reap_slot`].
    fn pop(&mut self) -> Option<WorkUnit> {
        if self.depth == 0 || self.sessions.is_empty() {
            return None;
        }
        let n = self.sessions.len();
        // Two full rotations suffice: the first may only refresh exhausted
        // quanta, the second must find the queued work counted in `depth`.
        for _ in 0..(2 * n) {
            self.cursor %= n;
            self.reap_slot(self.cursor);
            let slot = &mut self.sessions[self.cursor];
            if slot.pending.is_empty() || slot.quantum == 0 {
                slot.quantum = slot.weight.max(1);
                self.cursor += 1;
                continue;
            }
            slot.quantum -= 1;
            self.depth -= 1;
            return slot.pending.pop_front();
        }
        None
    }

    /// Reap the queued units of every cancelled session (see
    /// [`QueueState::reap_slot`]); returns how many were dropped.
    fn reap_cancelled(&mut self) -> usize {
        let mut reaped = 0;
        for idx in 0..self.sessions.len() {
            reaped += self.reap_slot(idx);
        }
        reaped
    }
}

/// "No tick scheduled" sentinel for [`PoolCore::next_tick_us`].
const TICK_NONE: u64 = u64::MAX;

/// The housekeeping hook run by pool workers at its requested times.
type TickHook = Arc<dyn Fn() -> Option<Instant> + Send + Sync>;

/// Pool state shared between the scheduler owner, session handles and workers.
struct PoolCore {
    queue: Mutex<QueueState>,
    work_available: Condvar,
    workers: usize,
    busy: AtomicUsize,
    units_executed: AtomicU64,
    shutdown: AtomicBool,
    /// The pool's time source ([`crate::SystemClock`] in production; the
    /// deterministic simulation harness substitutes a
    /// [`crate::SimClock`]).
    clock: SharedClock,
    /// Anchor for the tick clock (ticks are stored as µs offsets from here).
    epoch: Instant,
    /// Next tick time in µs since `epoch`; [`TICK_NONE`] when unscheduled.
    next_tick_us: AtomicU64,
    tick_hook: Mutex<Option<TickHook>>,
}

impl PoolCore {
    fn stats(&self) -> SchedulerStats {
        let queue = self.queue.lock().expect("scheduler queue poisoned");
        SchedulerStats {
            workers: self.workers,
            busy_workers: self.busy.load(Ordering::Relaxed),
            queue_depth: queue.depth,
            live_sessions: queue.sessions.len(),
            units_executed: self.units_executed.load(Ordering::Relaxed),
        }
    }

    fn register(&self, weight: usize, cancel: Arc<AtomicBool>) -> u64 {
        let mut queue = self.queue.lock().expect("scheduler queue poisoned");
        queue.insert_slot(weight, cancel, None)
    }

    fn deregister(&self, id: u64) {
        let mut queue = self.queue.lock().expect("scheduler queue poisoned");
        queue.remove_session(id);
    }

    fn submit(&self, id: u64, units: Vec<WorkUnit>) {
        let mut queue = self.queue.lock().expect("scheduler queue poisoned");
        // After shutdown no worker will ever pop again: drop the units here
        // (disconnecting their result senders) so the submitting session gets
        // a disconnect — and the documented panic — instead of a silent hang.
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        let count = units.len();
        let Some(slot) = queue.session_mut(id) else { return };
        // A cancelled session's units are dropped instead of queued: the
        // submitting driver observes the disconnected result senders and
        // winds the session down.
        if slot.cancel.load(Ordering::Acquire) {
            return;
        }
        slot.pending.extend(units);
        queue.depth += count;
        drop(queue);
        self.work_available.notify_all();
    }

    /// Drop the queued units of every cancelled session; returns how many
    /// were reaped.
    fn reap_cancelled(&self) -> usize {
        let mut queue = self.queue.lock().expect("scheduler queue poisoned");
        queue.reap_cancelled()
    }

    /// Microseconds since the pool's epoch, per the pool's clock.
    fn now_us(&self) -> u64 {
        self.clock.now().saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Claim the tick if it is due: returns the hook to run (outside the
    /// queue lock) after atomically unscheduling it, so exactly one worker
    /// runs each due tick.
    fn claim_due_tick(&self) -> Option<TickHook> {
        let next = self.next_tick_us.load(Ordering::Acquire);
        if next == TICK_NONE || next > self.now_us() {
            return None;
        }
        if self
            .next_tick_us
            .compare_exchange(next, TICK_NONE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        self.tick_hook.lock().expect("tick hook poisoned").clone()
    }

    /// Pull the next tick earlier (or schedule one): the hook will run at
    /// `at` or before. Wakes a sleeping worker so its timed wait re-anchors.
    fn request_tick(&self, at: Instant) {
        let at_us = at.saturating_duration_since(self.epoch).as_micros() as u64;
        let _ = self.next_tick_us.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            (at_us < cur).then_some(at_us)
        });
        // Take the lock so no worker can compute its wait timeout between
        // our store and the notify.
        let _guard = self.queue.lock().expect("scheduler queue poisoned");
        self.work_available.notify_all();
    }

    /// How long a sleeping worker may wait before the next tick is due.
    fn tick_timeout(&self) -> Option<Duration> {
        let next = self.next_tick_us.load(Ordering::Acquire);
        if next == TICK_NONE {
            return None;
        }
        Some(Duration::from_micros(next.saturating_sub(self.now_us())))
    }

    /// Worker side: block until a unit is available or the pool shuts down,
    /// running the housekeeping tick at its due times along the way.
    fn next_unit(&self) -> Option<WorkUnit> {
        let mut queue = self.queue.lock().expect("scheduler queue poisoned");
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            // The tick runs between units even on a saturated pool — and
            // from a timed wait on an idle one — always outside the lock.
            if let Some(hook) = self.claim_due_tick() {
                drop(queue);
                // A panicking hook must not kill a fixed-pool worker: swallow
                // the unwind (the tick just stays unscheduled until the next
                // `request_tick`).
                let next = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook()))
                    .unwrap_or(None);
                if let Some(next) = next {
                    self.request_tick(next);
                }
                queue = self.queue.lock().expect("scheduler queue poisoned");
                continue;
            }
            if let Some(unit) = queue.pop() {
                return Some(unit);
            }
            queue = match self.tick_timeout() {
                // Under a simulated clock a *timed* wait would fire ticks on
                // real time passing — meaningless in simulation, and a real
                // sleep besides. Idle workers block untimed instead; the
                // clock's `advance` fires the waker registered at pool
                // construction, which notifies `work_available` so the loop
                // re-examines `claim_due_tick` against the advanced time.
                Some(timeout) if !self.clock.is_simulated() => {
                    self.work_available
                        .wait_timeout(queue, timeout)
                        .expect("scheduler queue poisoned")
                        .0
                }
                _ => self.work_available.wait(queue).expect("scheduler queue poisoned"),
            };
        }
    }
}

/// Record the pool's current contention into a run's stats. Caller holds the
/// queue lock (the snapshot is a couple of loads).
fn observe_into(run_stats: &mut SchedulerRunStats, depth: usize, live: usize, busy: usize) {
    run_stats.queue_depth_peak = run_stats.queue_depth_peak.max(depth);
    run_stats.busy_workers_peak = run_stats.busy_workers_peak.max(busy);
    run_stats.live_sessions_peak = run_stats.live_sessions_peak.max(live);
}

fn worker_loop(core: Arc<PoolCore>) {
    while let Some(unit) = core.next_unit() {
        core.busy.fetch_add(1, Ordering::Relaxed);
        execute_unit(&core, unit);
        core.busy.fetch_sub(1, Ordering::Relaxed);
        core.units_executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run one popped unit on this worker.
fn execute_unit(core: &Arc<PoolCore>, unit: WorkUnit) {
    match unit {
        WorkUnit::External { chunk_idx, jobs, ctx, result_tx } => {
            // Catch panics so a poisoned unit kills its session (which
            // rethrows), not the shared worker serving every other session.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.process(jobs)));
            // A dropped receiver means the session abandoned the round; fine.
            let _ = result_tx.send((chunk_idx, outcome));
        }
        WorkUnit::DrivenChunk { session, chunk_idx, jobs, ctx } => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.process(jobs))) {
                Ok(result) => complete_chunk(core, session, chunk_idx, result),
                // A chunk panic poisons only its own session: the slot is
                // torn down and the completion callback observes `Poisoned`,
                // carrying the panic message for the session's post-mortem.
                Err(payload) => complete_driven(
                    core,
                    session,
                    DrivenOutcome::Poisoned(panic_message(payload.as_ref())),
                ),
            }
        }
        WorkUnit::Resume { session } => {
            let taken = {
                let mut queue = core.queue.lock().expect("scheduler queue poisoned");
                let Some(slot) = queue.session_mut(session) else { return };
                let Some(driven) = &mut slot.driven else { return };
                // A stale resume (the core is held by another worker, or the
                // round is still in flight) is dropped harmlessly.
                if driven.round.as_ref().is_some_and(|r| r.remaining > 0) {
                    return;
                }
                driven.parked.take().map(|core_state| (core_state, driven.round.take()))
            };
            if let Some((mut core_state, round)) = taken {
                if let Some(round) = round {
                    if round.streaming {
                        // A streaming round resumed here was completed by
                        // cancellation reaping: feed the unfed suffix (the
                        // fabricated cancelled chunks) so the driver observes
                        // the cancellation and winds down.
                        let fed = round.fed;
                        let batch: Vec<ChunkResult> = round
                            .results
                            .into_iter()
                            .skip(fed)
                            .map(|r| r.expect("every chunk reported"))
                            .collect();
                        if !feed_driven_checked(core, session, &mut core_state, batch, true) {
                            return;
                        }
                    } else {
                        core_state.driver.provide(round.into_ordered_results());
                    }
                }
                resume_driven(core, session, core_state);
            }
        }
    }
}

/// What [`complete_chunk`] found ready to run once the queue lock dropped.
#[allow(clippy::large_enum_variant)]
enum ChunkReady {
    /// Barrier round completed: provide the full ordered set and resume.
    Barrier(DrivenCore, RoundAssembly),
    /// Streaming round grew its contiguous fed prefix: feed the new chunks
    /// (`last` when the prefix now covers the whole round).
    Stream { core_state: DrivenCore, batch: Vec<ChunkResult>, last: bool },
}

/// Route a driven chunk's result into its session's round assembly; when the
/// round completes (barrier) or its contiguous prefix grows (streaming), this
/// worker feeds/resumes the session's driver inline.
fn complete_chunk(core: &Arc<PoolCore>, session: u64, chunk_idx: usize, result: ChunkResult) {
    let ready = {
        let mut queue = core.queue.lock().expect("scheduler queue poisoned");
        let (depth, live) = (queue.depth, queue.sessions.len());
        let busy = core.busy.load(Ordering::Relaxed);
        let Some(slot) = queue.session_mut(session) else { return };
        let Some(driven) = &mut slot.driven else { return };
        let Some(round) = &mut driven.round else { return };
        round.results[chunk_idx] = Some(result);
        round.remaining -= 1;
        if let Some(parked) = &mut driven.parked {
            // Mid-round contention sample (mirrors the blocking path's
            // per-chunk observation).
            observe_into(&mut parked.run_stats, depth, live, busy);
        }
        if round.streaming {
            // Streaming (any-k): feed the new contiguous prefix — unless
            // another worker holds the core mid-feed (`parked` empty), in
            // which case its repark loop re-checks under this lock and picks
            // the chunk up.
            if driven.parked.is_none() {
                None
            } else {
                let batch = round.take_contiguous();
                if batch.is_empty() {
                    None
                } else {
                    let last = round.fed == round.results.len();
                    let core_state = driven.parked.take().expect("checked parked above");
                    if last {
                        driven.round = None;
                    }
                    Some(ChunkReady::Stream { core_state, batch, last })
                }
            }
        } else if round.remaining == 0 {
            let core_state = driven.parked.take().expect("round in flight with no parked driver");
            let round = driven.round.take().expect("round checked above");
            Some(ChunkReady::Barrier(core_state, round))
        } else {
            None
        }
    };
    match ready {
        Some(ChunkReady::Barrier(mut core_state, round)) => {
            core_state.driver.provide(round.into_ordered_results());
            resume_driven(core, session, core_state);
        }
        Some(ChunkReady::Stream { mut core_state, batch, last }) => {
            if !feed_driven_checked(core, session, &mut core_state, batch, last) {
                return;
            }
            if last {
                resume_driven(core, session, core_state);
            } else {
                repark_after_feed(core, session, core_state);
            }
        }
        None => {}
    }
}

/// Feed a batch of streamed chunk results into a driven session's driver,
/// delivering any candidates the dominance gate releases through the
/// session's collector and sink (exactly the emission path `resume_driven`
/// uses for barrier rounds).
fn feed_driven(s: &mut DrivenCore, batch: Vec<ChunkResult>, last: bool) {
    let DrivenCore { driver, collector, on_candidate, ctx, nlq, model, .. } = s;
    let env = StepEnv {
        db: &ctx.db,
        nlq,
        model: model.as_ref(),
        config: &ctx.config,
        cancel: &ctx.cancel,
        clock: ctx.clock.as_ref(),
    };
    driver.feed(batch, last, &env, &mut |spec, confidence, emitted_at| {
        collector.offer(spec, confidence, emitted_at, on_candidate.as_mut())
    });
}

/// [`feed_driven`] under the same panic isolation as a resume: a panicking
/// consumer sink poisons only this session, never the pool worker. Returns
/// whether the session survived the feed.
fn feed_driven_checked(
    core: &Arc<PoolCore>,
    session: u64,
    s: &mut DrivenCore,
    batch: Vec<ChunkResult>,
    last: bool,
) -> bool {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| feed_driven(s, batch, last))) {
        Ok(()) => true,
        Err(payload) => {
            complete_driven(
                core,
                session,
                DrivenOutcome::Poisoned(panic_message(payload.as_ref())),
            );
            false
        }
    }
}

/// Re-park a streaming driven core after a mid-round feed — or keep feeding:
/// chunks that completed while this worker held the core were stored without
/// being fed (their workers saw `parked` empty), so re-check under the lock
/// until nothing new is waiting, then park.
fn repark_after_feed(core: &Arc<PoolCore>, session: u64, mut s: DrivenCore) {
    loop {
        let (batch, last) = {
            let mut queue = core.queue.lock().expect("scheduler queue poisoned");
            let Some(slot) = queue.session_mut(session) else {
                // The slot is gone only on teardown races; drop the session.
                return;
            };
            let Some(driven) = &mut slot.driven else { return };
            let Some(round) = &mut driven.round else {
                driven.parked = Some(s);
                return;
            };
            let batch = round.take_contiguous();
            if batch.is_empty() {
                driven.parked = Some(s);
                return;
            }
            let last = round.fed == round.results.len();
            if last {
                driven.round = None;
            }
            (batch, last)
        };
        if !feed_driven_checked(core, session, &mut s, batch, last) {
            return;
        }
        if last {
            resume_driven(core, session, s);
            return;
        }
    }
}

/// What a resume run left behind.
// Transient return value, consumed immediately by `resume_driven`'s caller —
// boxing the result would add an allocation per completed session for no
// retained-memory win.
#[allow(clippy::large_enum_variant)]
enum ResumeExit {
    /// The driver submitted a round too big to run inline: park it.
    Park(Box<DrivenCore>, Vec<ChildJob>),
    /// The resume ran [`INLINE_ROUND_YIELD`] consecutive small rounds:
    /// requeue a `Resume` and give the fairness queue (and the tick) a turn.
    Yield(Box<DrivenCore>),
    /// The run finished; the final ranked result is ready.
    Done(SynthesisResult),
}

/// Consecutive sub-[`MIN_PARALLEL_JOBS`] rounds a resume may run before it
/// must yield the worker back to the fairness queue. Without this bound, a
/// driven session whose every round is tiny would run to completion inside
/// one `Resume` unit — monopolizing a pool worker past the weighted
/// round-robin, delaying the tick hook, and (on a 1-worker pool) starving
/// every other session for its whole runtime. Yielding is pure scheduling:
/// it never changes what the session emits.
const INLINE_ROUND_YIELD: u32 = 32;

/// The shared end-of-run epilogue of every scheduled run (driven or
/// blocking): fold the session's cache/scan counters and its pool
/// observations into the engine stats. One copy, so driven-session stats
/// can never silently diverge from blocking-session stats.
fn fill_run_counters(
    stats: &mut EnumerationStats,
    ctx: &SessionContext,
    run_stats: SchedulerRunStats,
) {
    stats.record_probe_counters(&ctx.counters, &ctx.db);
    stats.scheduler = Some(run_stats);
}

/// Final stats assembly of a driven run (mirrors the blocking paths'
/// epilogue). `force_cancelled` marks runs wound down by a scheduler
/// shutdown that never reached a cooperative check.
fn finalize_driven(s: DrivenCore, force_cancelled: bool) -> SynthesisResult {
    let DrivenCore { driver, collector, ctx, run_stats, start, .. } = s;
    let mut stats = driver.into_stats();
    if force_cancelled {
        stats.cancelled = true;
    }
    stats.elapsed = ctx.clock.now().saturating_duration_since(start);
    fill_run_counters(&mut stats, &ctx, run_stats);
    collector.finish(stats)
}

/// Step a driven session's driver until it parks a round, yields the worker
/// (after [`INLINE_ROUND_YIELD`] consecutive small rounds), or finishes.
/// Candidates are delivered to the session's sink from here — i.e. on a pool
/// worker — and small fan-outs run inline without touching the queue.
fn resume_driven(core: &Arc<PoolCore>, session: u64, s: DrivenCore) {
    let exit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut s = s;
        // One `resume` span per worker occupancy: how long this worker held
        // the session's driver (stepping, emitting, running small rounds
        // inline) before parking, yielding or finishing.
        let resume_trace = s
            .driver
            .trace()
            .cloned()
            .map(|trace| (trace, s.ctx.clock.now(), Arc::clone(&s.ctx.clock)));
        let record_exit = |exit: ResumeExit| {
            if let Some((trace, started, clock)) = &resume_trace {
                trace.record_span("resume", *started, clock.now());
            }
            exit
        };
        let mut inline_streak = 0u32;
        loop {
            let action = {
                let DrivenCore { driver, collector, on_candidate, ctx, nlq, model, .. } = &mut s;
                let env = StepEnv {
                    db: &ctx.db,
                    nlq,
                    model: model.as_ref(),
                    config: &ctx.config,
                    cancel: &ctx.cancel,
                    clock: ctx.clock.as_ref(),
                };
                match driver.step(&env) {
                    StepOutcome::Emit { spec, confidence, emitted_at } => {
                        if !collector.offer(spec, confidence, emitted_at, on_candidate.as_mut()) {
                            driver.halt();
                        }
                        None
                    }
                    StepOutcome::SubmitChunks(jobs) => Some(jobs),
                    StepOutcome::Done => {
                        return record_exit(ResumeExit::Done(finalize_driven(s, false)))
                    }
                }
            };
            if let Some(jobs) = action {
                if jobs.len() < MIN_PARALLEL_JOBS {
                    s.run_stats.units_inline += 1;
                    let result = s.ctx.process(jobs);
                    s.driver.provide(vec![result]);
                    inline_streak += 1;
                    if inline_streak >= INLINE_ROUND_YIELD {
                        return record_exit(ResumeExit::Yield(Box::new(s)));
                    }
                    continue;
                }
                return record_exit(ResumeExit::Park(Box::new(s), jobs));
            }
        }
    }));
    match exit {
        Ok(ResumeExit::Park(core_state, jobs)) => park_round(core, session, *core_state, jobs),
        Ok(ResumeExit::Yield(core_state)) => yield_resume(core, session, *core_state),
        Ok(ResumeExit::Done(result)) => {
            complete_driven(core, session, DrivenOutcome::Finished(result))
        }
        // A panic inside `step` (a guidance model or consumer-sink bug)
        // poisons only this session; the worker survives. The payload's
        // message travels with the outcome so the serving layer can put it
        // in the request's terminal event.
        Err(payload) => {
            complete_driven(core, session, DrivenOutcome::Poisoned(panic_message(payload.as_ref())))
        }
    }
}

/// Split one round's jobs into the pool's contiguous scheduling chunks:
/// ~2 per worker so the fairness queue can interleave sessions mid-round.
/// Chunk size only affects scheduling granularity, never results (chunk
/// results are reassembled in job order on merge). Shared by the driven
/// ([`park_round`]) and blocking ([`dispatch_round`]) paths so their
/// scheduling behaviour cannot silently diverge.
fn chunk_jobs(jobs: Vec<ChildJob>, workers: usize) -> Vec<Vec<ChildJob>> {
    let chunk_size = jobs.len().div_ceil(workers * 2).max(MIN_PARALLEL_JOBS / 2);
    let mut chunks: Vec<Vec<ChildJob>> = Vec::new();
    let mut remaining = jobs;
    while !remaining.is_empty() {
        let tail = remaining.split_off(remaining.len().min(chunk_size));
        chunks.push(remaining);
        remaining = tail;
    }
    chunks
}

/// Park a driven session's round: chunk the jobs into the fairness queue and
/// store the driver back in its slot until the last chunk returns.
fn park_round(core: &Arc<PoolCore>, session: u64, mut s: DrivenCore, jobs: Vec<ChildJob>) {
    let chunks = chunk_jobs(jobs, core.workers);
    let sent = chunks.len();
    s.run_stats.units_submitted += sent as u64;
    if let Some(trace) = s.driver.trace() {
        trace.event("dispatch", s.ctx.clock.now(), Some(format!("chunks={sent}")));
    }

    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    let (depth, live) = (queue.depth + sent, queue.sessions.len());
    observe_into(&mut s.run_stats, depth, live, core.busy.load(Ordering::Relaxed));
    let Some(slot) = queue.session_mut(session) else {
        // The slot is gone only on teardown races; drop the round.
        return;
    };
    let ctx = Arc::clone(&s.ctx);
    slot.driven.as_mut().expect("driven slot").round = Some(RoundAssembly {
        results: (0..sent).map(|_| None).collect(),
        remaining: sent,
        fed: 0,
        streaming: ctx.config.emission == EmissionPolicy::AnyK,
    });
    for (chunk_idx, chunk_jobs) in chunks.into_iter().enumerate() {
        slot.pending.push_back(WorkUnit::DrivenChunk {
            session,
            chunk_idx,
            jobs: chunk_jobs,
            ctx: Arc::clone(&ctx),
        });
    }
    slot.driven.as_mut().expect("driven slot").parked = Some(s);
    queue.depth += sent;
    drop(queue);
    core.work_available.notify_all();
}

/// Re-park a driven session between rounds (no chunks outstanding) and
/// requeue its `Resume`, so the fairness queue decides — in weighted
/// round-robin order, alongside every other session's units — when its next
/// burst of small rounds runs. See [`INLINE_ROUND_YIELD`].
fn yield_resume(core: &Arc<PoolCore>, session: u64, s: DrivenCore) {
    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    let Some(slot) = queue.session_mut(session) else {
        // The slot is gone only on teardown races; drop the session.
        return;
    };
    let driven = slot.driven.as_mut().expect("driven slot");
    driven.parked = Some(s);
    slot.pending.push_back(WorkUnit::Resume { session });
    queue.depth += 1;
    drop(queue);
    core.work_available.notify_all();
}

/// Tear a driven session down and deliver its completion:
/// [`DrivenOutcome::Finished`] for a completed (or cancelled) run,
/// [`DrivenOutcome::Poisoned`] for a panicked one.
fn complete_driven(core: &Arc<PoolCore>, session: u64, outcome: DrivenOutcome) {
    let on_complete = {
        let mut queue = core.queue.lock().expect("scheduler queue poisoned");
        queue
            .remove_session(session)
            .and_then(|slot| slot.driven)
            .and_then(|driven| driven.on_complete)
    };
    if let Some(cb) = on_complete {
        // The completion callback is arbitrary consumer code running on a
        // fixed-pool worker: a panic in it must poison only this delivery,
        // never the worker (other sessions' parked drivers depend on it).
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(outcome)));
    }
}

/// Register a fully owned session to be driven by the pool: no OS thread is
/// created — pool workers resume the session's `RoundDriver` as its chunks
/// complete, deliver candidates through `on_candidate` (return `false` to
/// stop early) and hand the session's [`DrivenOutcome`] to `on_complete`
/// ([`DrivenOutcome::Poisoned`] if the session panicked). Called via
/// [`SynthesisSession::spawn_driven`](crate::session::SynthesisSession::spawn_driven).
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_driven_session(
    handle: &SchedulerHandle,
    db: Arc<Database>,
    nlq: Nlq,
    tsq: Option<TableSketchQuery>,
    model: Arc<dyn GuidanceModel>,
    config: DuoquestConfig,
    control: SessionControl,
    priority_weight: usize,
    trace: Option<Arc<Trace>>,
    on_candidate: DrivenSink,
    on_complete: DrivenCompletion,
) {
    let clock = Arc::clone(&handle.core.clock);
    let start = clock.now();
    let deadline =
        min_deadline(config.time_budget.map(|budget| start + budget), control.deadline());
    let weight = config.beam_width.max(1).saturating_mul(priority_weight.max(1));
    let ctx = Arc::new(SessionContext::new(
        db,
        tsq,
        nlq.literals.clone(),
        config,
        deadline,
        control.flag(),
        clock,
        trace.is_some(),
    ));
    let core_state = DrivenCore {
        driver: RoundDriver::new(start, deadline).with_trace(trace),
        collector: CandidateCollector::new(),
        on_candidate,
        ctx,
        nlq,
        model,
        run_stats: SchedulerRunStats {
            pool_workers: handle.core.workers,
            ..SchedulerRunStats::default()
        },
        start,
    };
    let core = &handle.core;
    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    if core.shutdown.load(Ordering::Acquire) {
        drop(queue);
        // The pool will never run this session: resolve it as cancelled
        // instead of stranding the completion callback.
        on_complete(DrivenOutcome::Finished(finalize_driven(core_state, true)));
        return;
    }
    let id = queue.insert_slot(
        weight,
        control.flag(),
        Some(DrivenSlot { parked: Some(core_state), round: None, on_complete: Some(on_complete) }),
    );
    let slot = queue.session_mut(id).expect("slot just inserted");
    slot.pending.push_back(WorkUnit::Resume { session: id });
    queue.depth += 1;
    drop(queue);
    core.work_available.notify_all();
}

/// A shared, long-lived worker pool serving any number of concurrent
/// [`SynthesisSession`](crate::session::SynthesisSession)s (see the
/// [module docs](self) for the design).
///
/// Dropping the scheduler shuts the pool down and joins its workers.
/// Scheduler-**driven** sessions still parked at that point are wound down
/// as cancelled (their completion callbacks fire with the candidates found
/// so far); a **blocking** session still running on the pool will panic on
/// its next round, so keep the scheduler alive for as long as any blocking
/// caller holds a [`SchedulerHandle`] to it.
pub struct SessionScheduler {
    core: Arc<PoolCore>,
    workers: Vec<JoinHandle<()>>,
}

impl SessionScheduler {
    /// Spawn a pool of `workers` threads (minimum 1). The typical process
    /// creates exactly one scheduler, sized to the machine, and hands
    /// [`SessionScheduler::handle`] clones to every session.
    pub fn new(workers: usize) -> Self {
        SessionScheduler::new_with_clock(workers, system_clock())
    }

    /// Spawn a pool whose time source is `clock` instead of the real clock.
    /// Under a simulated clock ([`crate::SimClock`]) idle workers never
    /// perform timed waits — the clock's `advance` wakes them (via a waker
    /// registered here) so due ticks run immediately in simulated time.
    pub fn new_with_clock(workers: usize, clock: SharedClock) -> Self {
        let workers = workers.max(1);
        let epoch = clock.now();
        let core = Arc::new(PoolCore {
            queue: Mutex::new(QueueState::default()),
            work_available: Condvar::new(),
            workers,
            busy: AtomicUsize::new(0),
            units_executed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            clock,
            epoch,
            next_tick_us: AtomicU64::new(TICK_NONE),
            tick_hook: Mutex::new(None),
        });
        // A simulated clock advancing may make the scheduled tick due: wake
        // the idle workers so one claims it. Weak, so the waker (owned by the
        // clock, which the pool owns) cannot keep the pool core alive.
        let waker_core = Arc::downgrade(&core);
        core.clock.register_waker(Arc::new(move || {
            if let Some(core) = waker_core.upgrade() {
                // Take the lock so no worker can compute its wait decision
                // between the clock's advance and this notify.
                let _guard = core.queue.lock().expect("scheduler queue poisoned");
                core.work_available.notify_all();
            }
        }));
        let handles = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("duoquest-pool-{i}"))
                    .spawn(move || worker_loop(core))
                    .expect("failed to spawn scheduler worker")
            })
            .collect();
        SessionScheduler { core, workers: handles }
    }

    /// Size the pool to the machine (one worker per available CPU).
    pub fn for_machine() -> Self {
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SessionScheduler::new(n)
    }

    /// A cloneable handle sessions use to submit work to this pool.
    pub fn handle(&self) -> SchedulerHandle {
        SchedulerHandle { core: Arc::clone(&self.core) }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Snapshot the pool's current load.
    pub fn stats(&self) -> SchedulerStats {
        self.core.stats()
    }
}

impl Drop for SessionScheduler {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.work_available_broadcast();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // With every worker joined, finalize what's left behind:
        //
        // * **Driven** sessions still parked are wound down as cancelled —
        //   their completion callbacks fire with the candidates found so far
        //   (the moral equivalent of joining per-session driver threads,
        //   without the threads).
        // * **External** sessions' queued units drop with their slots:
        //   dropping a unit drops its result sender, so a blocked driver
        //   observes a disconnect (and panics, per the struct docs) instead
        //   of hanging forever. Units submitted after this point are dropped
        //   by `submit` itself, which checks `shutdown` under the same lock.
        let sessions = {
            let mut queue = self.core.queue.lock().expect("scheduler queue poisoned");
            queue.depth = 0;
            std::mem::take(&mut queue.sessions)
        };
        for slot in sessions {
            let Some(mut driven) = slot.driven else { continue };
            match (driven.parked.take(), driven.on_complete.take()) {
                // A panicking completion callback must not abort the sweep
                // and strand the remaining sessions' consumers.
                (Some(core_state), Some(cb)) => {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cb(DrivenOutcome::Finished(finalize_driven(core_state, true)))
                    }));
                }
                (None, Some(cb)) => {
                    // A session mid-resume during the sweep (its core is out
                    // on a worker) has no result to deliver: resolve it as
                    // poisoned without a message.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cb(DrivenOutcome::Poisoned(None))
                    }));
                }
                _ => {}
            }
        }
    }
}

impl SessionScheduler {
    fn work_available_broadcast(&self) {
        // Take the lock so no worker can check `shutdown` and block between
        // our store and the notify.
        let _guard = self.core.queue.lock().expect("scheduler queue poisoned");
        self.core.work_available.notify_all();
    }
}

impl std::fmt::Debug for SessionScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionScheduler").field("stats", &self.stats()).finish()
    }
}

/// A cloneable handle to a [`SessionScheduler`]'s pool. Attach one to a
/// session with
/// [`SynthesisSession::with_scheduler`](crate::session::SynthesisSession::with_scheduler).
#[derive(Clone)]
pub struct SchedulerHandle {
    core: Arc<PoolCore>,
}

impl SchedulerHandle {
    /// Snapshot the pool's current load.
    pub fn stats(&self) -> SchedulerStats {
        self.core.stats()
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Eagerly reap the queued (session, round-chunk) units of every
    /// cancelled session, returning how many were dropped. Workers also reap
    /// lazily whenever they pop, so calling this is an optimization — it
    /// frees the queue immediately instead of at the next pop — not a
    /// requirement for correctness. Fired automatically when a
    /// [`CandidateStream`](crate::session::CandidateStream) is dropped.
    pub fn reap_cancelled(&self) -> usize {
        self.core.reap_cancelled()
    }

    /// Install the pool's housekeeping **tick hook**: pool workers call it
    /// at (or after) each requested time — between work units on a busy
    /// pool, from a timed wait on an idle one — with no scheduler lock held.
    /// The hook returns the next time it wants to run, or `None` to sleep
    /// until the next [`SchedulerHandle::request_tick`].
    ///
    /// One hook per pool: installing a new one replaces the previous. The
    /// serving layer uses this for deadline expiry of queued requests,
    /// folding its former housekeeper thread into the pool's event loop.
    pub fn set_tick(&self, hook: impl Fn() -> Option<Instant> + Send + Sync + 'static) {
        *self.core.tick_hook.lock().expect("tick hook poisoned") = Some(Arc::new(hook));
    }

    /// Ask the tick hook to run at `at` or earlier (monotone: an earlier
    /// pending request wins). Safe to call from any thread, including hook
    /// and sink callbacks.
    pub fn request_tick(&self, at: Instant) {
        self.core.request_tick(at);
    }

    /// The clock this pool schedules against — [`SystemClock`](crate::SystemClock)
    /// unless the pool was built with [`SessionScheduler::new_with_clock`].
    /// Layers above the pool (e.g. the serving layer) should read time from
    /// here so simulated runs stay on the simulated timeline.
    pub fn clock(&self) -> SharedClock {
        Arc::clone(&self.core.clock)
    }
}

impl std::fmt::Debug for SchedulerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerHandle").field("stats", &self.stats()).finish()
    }
}

/// Run one session's synthesis over the shared pool **from the calling
/// thread**: the round loop's state machine is driven here, phase-2 chunks
/// go through the scheduler's fairness queue, and chunk results are
/// reassembled in original child order before the merge — so emission is
/// byte-identical to a private-pool run. (Scheduler-driven sessions use
/// [`spawn_driven_session`] instead and occupy no thread at all.)
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rounds_scheduled(
    handle: &SchedulerHandle,
    db: &Arc<Database>,
    nlq: &Nlq,
    model: &dyn GuidanceModel,
    tsq: Option<&TableSketchQuery>,
    config: &DuoquestConfig,
    control: &SessionControl,
    priority_weight: usize,
    trace: Option<Arc<Trace>>,
    on_candidate: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
) -> EnumerationStats {
    let clock = Arc::clone(&handle.core.clock);
    let start = clock.now();
    let mut stats = EnumerationStats::default();
    let deadline =
        min_deadline(config.time_budget.map(|budget| start + budget), control.deadline());
    let ctx = Arc::new(SessionContext::new(
        Arc::clone(db),
        tsq.cloned(),
        nlq.literals.clone(),
        config.clone(),
        deadline,
        control.flag(),
        Arc::clone(&clock),
        trace.is_some(),
    ));

    let core = &handle.core;
    // The guard deregisters on drop, so a panicking session (e.g. a rethrown
    // worker panic) cannot leak its queue slot and distort fairness forever.
    // Fairness weight = beam width × priority multiplier: a session's share
    // of each round-robin rotation scales with both how much work a round
    // exposes and how urgent its requester is.
    let weight = config.beam_width.max(1).saturating_mul(priority_weight.max(1));
    let registration = SessionRegistration { core, id: core.register(weight, control.flag()) };
    let session_id = registration.id;
    let mut run_stats =
        SchedulerRunStats { pool_workers: core.workers, ..SchedulerRunStats::default() };

    let mut dispatcher =
        ScheduledDispatcher { core, session_id, ctx: &ctx, run_stats: &mut run_stats };
    drive_rounds(
        db,
        nlq,
        model,
        config,
        deadline,
        control.flag_ref(),
        start,
        clock.as_ref(),
        trace,
        &mut stats,
        on_candidate,
        &mut dispatcher,
    );

    drop(registration);

    stats.elapsed = clock.now().saturating_duration_since(start);
    fill_run_counters(&mut stats, &ctx, run_stats);
    stats
}

/// Deregisters a session's queue slot on drop (panic-safe).
struct SessionRegistration<'a> {
    core: &'a Arc<PoolCore>,
    id: u64,
}

impl Drop for SessionRegistration<'_> {
    fn drop(&mut self) {
        self.core.deregister(self.id);
    }
}

/// [`RoundDispatcher`] over the shared pool for a **blocking** scheduled
/// session: barrier rounds go through [`dispatch_round`], streaming (any-k)
/// rounds through [`dispatch_round_streaming`].
struct ScheduledDispatcher<'a> {
    core: &'a Arc<PoolCore>,
    session_id: u64,
    ctx: &'a Arc<SessionContext>,
    run_stats: &'a mut SchedulerRunStats,
}

impl RoundDispatcher for ScheduledDispatcher<'_> {
    fn run(&mut self, jobs: Vec<ChildJob>) -> Vec<ChunkResult> {
        dispatch_round(self.core, self.session_id, self.ctx, jobs, self.run_stats)
    }

    fn run_streaming(&mut self, jobs: Vec<ChildJob>, feed: &mut dyn FnMut(Vec<ChunkResult>, bool)) {
        dispatch_round_streaming(self.core, self.session_id, self.ctx, jobs, self.run_stats, feed)
    }
}

/// Submit one round's jobs as chunked work units and wait for every chunk,
/// returning results in original job order. Small fan-outs run inline on the
/// driving thread — the queue handoff costs more than it saves. Everything
/// else goes through the queue even on a 1-worker pool: the pool *is* the
/// process's compute budget, so heavy work must serialize through it rather
/// than spill onto N session driver threads.
fn dispatch_round(
    core: &Arc<PoolCore>,
    session_id: u64,
    ctx: &Arc<SessionContext>,
    jobs: Vec<ChildJob>,
    run_stats: &mut SchedulerRunStats,
) -> Vec<ChunkResult> {
    if jobs.len() < MIN_PARALLEL_JOBS {
        run_stats.units_inline += 1;
        return vec![ctx.process(jobs)];
    }

    let (result_tx, result_rx) = mpsc::channel();
    let units: Vec<WorkUnit> = chunk_jobs(jobs, core.workers)
        .into_iter()
        .enumerate()
        .map(|(chunk_idx, chunk)| WorkUnit::External {
            chunk_idx,
            jobs: chunk,
            ctx: Arc::clone(ctx),
            result_tx: result_tx.clone(),
        })
        .collect();
    drop(result_tx);
    let sent = units.len();
    run_stats.units_submitted += sent as u64;
    core.submit(session_id, units);

    // Observe pool-wide contention while our units are in flight: once right
    // after the submit (queue at its deepest) and once after each chunk
    // completes (workers mid-execution on the remaining chunks) — a single
    // post-submit sample would systematically read the workers as idle.
    let observe = |run_stats: &mut SchedulerRunStats| {
        let snapshot = core.stats();
        observe_into(
            run_stats,
            snapshot.queue_depth,
            snapshot.live_sessions,
            snapshot.busy_workers,
        );
    };
    observe(run_stats);

    let mut results: Vec<Option<ChunkResult>> = (0..sent).map(|_| None).collect();
    for received in 0..sent {
        let Ok((idx, outcome)) = result_rx.recv() else {
            // Every remaining sender is gone before reporting. Either the
            // session was cancelled and its queued units were reaped (their
            // senders dropped with them) — wind the round down — or the pool
            // was shut down under a live session, which is a caller bug.
            assert!(
                ctx.cancel.load(Ordering::Acquire),
                "scheduler shut down while a session was running on it"
            );
            return vec![ChunkResult { cancelled: true, ..ChunkResult::default() }];
        };
        if received + 1 < sent {
            observe(run_stats);
        }
        match outcome {
            Ok(result) => results[idx] = Some(result),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    results.into_iter().map(|r| r.expect("every chunk reported")).collect()
}

/// Streaming variant of [`dispatch_round`] for any-k emission: chunk results
/// are fed onward as contiguous job-order prefixes the moment they complete,
/// instead of waiting for the whole round. The delivered chunk sequence is
/// exactly [`dispatch_round`]'s, just incremental — emission identity is the
/// driver's dominance gate's job, not this function's.
fn dispatch_round_streaming(
    core: &Arc<PoolCore>,
    session_id: u64,
    ctx: &Arc<SessionContext>,
    jobs: Vec<ChildJob>,
    run_stats: &mut SchedulerRunStats,
    feed: &mut dyn FnMut(Vec<ChunkResult>, bool),
) {
    if jobs.len() < MIN_PARALLEL_JOBS {
        run_stats.units_inline += 1;
        feed(vec![ctx.process(jobs)], true);
        return;
    }

    let (result_tx, result_rx) = mpsc::channel();
    let units: Vec<WorkUnit> = chunk_jobs(jobs, core.workers)
        .into_iter()
        .enumerate()
        .map(|(chunk_idx, chunk)| WorkUnit::External {
            chunk_idx,
            jobs: chunk,
            ctx: Arc::clone(ctx),
            result_tx: result_tx.clone(),
        })
        .collect();
    drop(result_tx);
    let sent = units.len();
    run_stats.units_submitted += sent as u64;
    core.submit(session_id, units);

    // Same contention sampling as the barrier path (see `dispatch_round`).
    let observe = |run_stats: &mut SchedulerRunStats| {
        let snapshot = core.stats();
        observe_into(
            run_stats,
            snapshot.queue_depth,
            snapshot.live_sessions,
            snapshot.busy_workers,
        );
    };
    observe(run_stats);

    let mut results: Vec<Option<ChunkResult>> = (0..sent).map(|_| None).collect();
    let mut fed = 0usize;
    for received in 0..sent {
        let Ok((idx, outcome)) = result_rx.recv() else {
            assert!(
                ctx.cancel.load(Ordering::Acquire),
                "scheduler shut down while a session was running on it"
            );
            // Cancellation reaped the remaining chunks: a fabricated
            // cancelled chunk closes the round so the driver winds down
            // (mirrors the barrier path's single cancelled result).
            feed(vec![ChunkResult { cancelled: true, ..ChunkResult::default() }], true);
            return;
        };
        if received + 1 < sent {
            observe(run_stats);
        }
        match outcome {
            Ok(result) => results[idx] = Some(result),
            Err(panic) => std::panic::resume_unwind(panic),
        }
        let mut batch = Vec::new();
        while fed < sent {
            match results[fed].take() {
                Some(chunk) => {
                    batch.push(chunk);
                    fed += 1;
                }
                None => break,
            }
        }
        if !batch.is_empty() {
            feed(batch, fed == sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SynthesisSession;
    use crate::tsq::{TableSketchQuery, TsqCell};
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::{CmpOp, DataType};
    use duoquest_nlq::{Literal, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::QueryBuilder;

    fn fixture() -> (Arc<Database>, Nlq, Arc<dyn GuidanceModel>, duoquest_db::SelectSpec) {
        let db = movie_db().into_shared();
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let model: Arc<dyn GuidanceModel> =
            Arc::new(NoisyOracleGuidance::with_config(gold.clone(), 3, OracleConfig::perfect()));
        (db, nlq, model, gold)
    }

    #[test]
    fn weighted_round_robin_interleaves_sessions() {
        // Session A (id 0): weight 1, 4 units tagged 0..4.
        // Session B (id 1): weight 2, 4 units tagged 100..104.
        let mut queue = QueueState::default();
        let (tx, _rx) = mpsc::channel();
        let ctx = test_ctx();
        for (id, weight, tag_base) in [(0u64, 1usize, 0usize), (1, 2, 100)] {
            queue.next_id = queue.next_id.max(id + 1);
            let mut pending = VecDeque::new();
            for i in 0..4 {
                pending.push_back(WorkUnit::External {
                    chunk_idx: tag_base + i,
                    jobs: Vec::new(),
                    ctx: Arc::clone(&ctx),
                    result_tx: tx.clone(),
                });
            }
            queue.depth += pending.len();
            queue.sessions.push(SessionQueue {
                id,
                weight,
                quantum: weight,
                pending,
                cancel: Arc::new(AtomicBool::new(false)),
                driven: None,
            });
        }
        let mut order = Vec::new();
        while let Some(unit) = queue.pop() {
            let WorkUnit::External { chunk_idx, .. } = unit else { panic!("external unit") };
            order.push(chunk_idx);
        }
        assert_eq!(queue.depth, 0);
        // Weight-proportional service: one A unit, then two B units, per
        // rotation, until a side drains; then the remainder streams out.
        assert_eq!(order, vec![0, 100, 101, 1, 102, 103, 2, 3]);
    }

    fn test_ctx() -> Arc<SessionContext> {
        Arc::new(SessionContext::new(
            movie_db().into_shared(),
            None,
            Vec::new(),
            DuoquestConfig::fast(),
            None,
            Arc::new(AtomicBool::new(false)),
            system_clock(),
            false,
        ))
    }

    fn expect_finished(outcome: DrivenOutcome) -> crate::engine::SynthesisResult {
        match outcome {
            DrivenOutcome::Finished(result) => result,
            DrivenOutcome::Poisoned(msg) => panic!("session poisoned: {msg:?}"),
        }
    }

    #[test]
    fn scheduled_session_matches_private_pool_session() {
        let (db, nlq, model, _gold) = fixture();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = 30;

        let private = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model))
            .with_tsq(tsq.clone())
            .with_config(config.clone())
            .run();

        let pool = SessionScheduler::new(3);
        let shared = SynthesisSession::new(db, nlq, model)
            .with_tsq(tsq)
            .with_config(config)
            .with_scheduler(pool.handle())
            .run();

        let render = |r: &crate::engine::SynthesisResult| {
            r.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect::<Vec<_>>()
        };
        assert_eq!(render(&private), render(&shared));
        assert_eq!(private.stats.emitted, shared.stats.emitted);
        assert_eq!(private.stats.expanded, shared.stats.expanded);
        assert_eq!(private.stats.total_pruned(), shared.stats.total_pruned());
        // The shared run reports pool observations; this private run does not,
        // because `fast()` keeps `workers = 1` and the session ran inline.
        // (A private run with `workers > 1` would route through a
        // compatibility pool and also set `stats.scheduler`.)
        assert!(private.stats.scheduler.is_none());
        let run = shared.stats.scheduler.expect("shared run records scheduler stats");
        assert_eq!(run.pool_workers, 3);
        assert!(run.units_submitted + run.units_inline > 0);
    }

    /// The tentpole path: a session driven entirely by the pool (no session
    /// thread) emits byte-identically to a private blocking run.
    #[test]
    fn driven_session_matches_private_pool_session() {
        let (db, nlq, model, _gold) = fixture();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = 30;

        let private = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model))
            .with_tsq(tsq.clone())
            .with_config(config.clone())
            .run();

        for pool_workers in [1usize, 2, 4] {
            let pool = SessionScheduler::new(pool_workers);
            let (tx, rx) = mpsc::channel();
            let (seen_tx, seen_rx) = mpsc::channel();
            SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model))
                .with_tsq(tsq.clone())
                .with_config(config.clone())
                .spawn_driven(
                    &pool.handle(),
                    Box::new(move |c: &Candidate| seen_tx.send(c.clone()).is_ok()),
                    Box::new(move |result| {
                        let _ = tx.send(result);
                    }),
                );
            let result = expect_finished(
                rx.recv_timeout(Duration::from_secs(30)).expect("driven session completed"),
            );
            let render = |r: &crate::engine::SynthesisResult| {
                r.candidates
                    .iter()
                    .map(|c| (format!("{:?}", c.spec), c.confidence))
                    .collect::<Vec<_>>()
            };
            assert_eq!(render(&private), render(&result), "{pool_workers}-worker pool diverged");
            assert_eq!(private.stats.emitted, result.stats.emitted);
            assert_eq!(private.stats.expanded, result.stats.expanded);
            assert_eq!(private.stats.total_pruned(), result.stats.total_pruned());
            // Candidates streamed through the sink in emission order, and the
            // candidate channel closed before the completion fired.
            let streamed: Vec<Candidate> = seen_rx.try_iter().collect();
            assert_eq!(streamed.len(), result.candidates.len());
            let stats = pool.stats();
            assert_eq!(stats.live_sessions, 0, "driven session must deregister");
            assert_eq!(stats.queue_depth, 0, "no orphaned units");
        }
    }

    /// A driven session's sink returning `false` stops the run (the
    /// consumer-halt half of the state-machine protocol).
    #[test]
    fn driven_session_sink_can_stop_early() {
        let (db, nlq, model, _gold) = fixture();
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = 10_000;
        config.max_expansions = 1_000_000;
        let pool = SessionScheduler::new(1);
        let (tx, rx) = mpsc::channel();
        SynthesisSession::new(db, nlq, model).with_config(config).spawn_driven(
            &pool.handle(),
            Box::new(|_c: &Candidate| false), // stop at the first candidate
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        let result = expect_finished(
            rx.recv_timeout(Duration::from_secs(30)).expect("driven session completed"),
        );
        assert_eq!(result.candidates.len(), 1, "halt after the first candidate");
        assert_eq!(pool.stats().live_sessions, 0);
    }

    #[test]
    fn shutdown_disconnects_queued_units_instead_of_stranding_sessions() {
        let pool = SessionScheduler::new(1);
        let core = Arc::clone(&pool.core);
        let id = core.register(1, Arc::new(AtomicBool::new(false)));
        drop(pool); // shutdown: workers joined, queue drained
        let (tx, rx) = mpsc::channel();
        let unit =
            WorkUnit::External { chunk_idx: 0, jobs: Vec::new(), ctx: test_ctx(), result_tx: tx };
        core.submit(id, vec![unit]);
        // A post-shutdown submit must drop the unit so the session's receiver
        // disconnects (turning into the documented panic) rather than block
        // forever on a queue no worker will ever pop.
        assert!(rx.recv().is_err(), "unit must be dropped, not stranded");
        assert_eq!(core.stats().queue_depth, 0);
    }

    /// Dropping the pool under a live driven session resolves it (cancelled,
    /// best-so-far) instead of stranding its completion callback.
    #[test]
    fn shutdown_finalizes_parked_driven_sessions() {
        let (db, nlq, model, _gold) = fixture();
        let mut config = DuoquestConfig::fast();
        config.time_budget = Some(Duration::from_secs(60));
        config.max_candidates = usize::MAX;
        config.max_expansions = usize::MAX;
        let pool = SessionScheduler::new(1);
        let (tx, rx) = mpsc::channel();
        SynthesisSession::new(db, nlq, model).with_config(config).spawn_driven(
            &pool.handle(),
            Box::new(|_c: &Candidate| true),
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        );
        // Give the pool a moment to start the session, then tear it down.
        std::thread::sleep(Duration::from_millis(30));
        drop(pool);
        let result = expect_finished(
            rx.recv_timeout(Duration::from_secs(10))
                .expect("shutdown must resolve the driven session"),
        );
        assert!(result.stats.cancelled, "shutdown winds driven sessions down as cancelled");
    }

    #[test]
    fn pool_stats_track_registration() {
        let pool = SessionScheduler::new(2);
        assert_eq!(pool.workers(), 2);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.live_sessions, 0);
        assert_eq!(stats.queue_depth, 0);
        let id = pool.core.register(4, Arc::new(AtomicBool::new(false)));
        assert_eq!(pool.stats().live_sessions, 1);
        pool.core.deregister(id);
        assert_eq!(pool.stats().live_sessions, 0);
    }

    #[test]
    fn many_sessions_share_one_pool_concurrently() {
        let (db, nlq, model, gold) = fixture();
        let pool = SessionScheduler::new(2);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = SynthesisSession::new(Arc::clone(&db), nlq.clone(), model.clone())
                    .with_config(config.clone())
                    .with_scheduler(pool.handle());
                std::thread::spawn(move || session.run())
            })
            .collect();
        for handle in handles {
            let result = handle.join().expect("session thread panicked");
            assert_eq!(result.rank_of(&gold), Some(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.live_sessions, 0, "all sessions deregistered");
        assert_eq!(stats.queue_depth, 0, "no orphaned units");
    }

    /// The fairness half of the yield bound: a single long-running driven
    /// session on a 1-worker pool must not pin the worker — the tick hook
    /// still fires at (about) its requested time while the session grinds,
    /// because resumes park between rounds and yield after bursts of
    /// inline-sized rounds.
    #[test]
    fn grinding_driven_session_does_not_starve_the_tick() {
        let (db, nlq, model, _gold) = fixture();
        let mut config = DuoquestConfig::fast();
        config.time_budget = Some(Duration::from_secs(30));
        config.max_candidates = usize::MAX;
        config.max_expansions = usize::MAX;
        let pool = SessionScheduler::new(1);
        let fired = Arc::new(AtomicBool::new(false));
        let fired_hook = Arc::clone(&fired);
        pool.handle().set_tick(move || {
            fired_hook.store(true, Ordering::SeqCst);
            None
        });
        let control = SessionControl::new();
        let (tx, rx) = mpsc::channel();
        SynthesisSession::new(db, nlq, model)
            .with_config(config)
            .with_control(control.clone())
            .spawn_driven(
                &pool.handle(),
                Box::new(|_c: &Candidate| true),
                Box::new(move |result| {
                    let _ = tx.send(result);
                }),
            );
        pool.handle().request_tick(Instant::now() + Duration::from_millis(30));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fired.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "tick starved by the driven session");
            std::thread::sleep(Duration::from_millis(5));
        }
        control.cancel();
        pool.handle().reap_cancelled();
        let result = expect_finished(
            rx.recv_timeout(Duration::from_secs(10)).expect("cancelled session resolves"),
        );
        assert!(result.stats.cancelled);
        assert_eq!(pool.stats().live_sessions, 0);
    }

    /// The scheduler tick: the hook runs at its requested time on an idle
    /// pool (from a worker's timed wait) and can reschedule itself.
    #[test]
    fn tick_hook_fires_on_an_idle_pool() {
        let pool = SessionScheduler::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let fired_hook = Arc::clone(&fired);
        pool.handle().set_tick(move || {
            fired_hook.fetch_add(1, Ordering::SeqCst);
            None
        });
        pool.handle().request_tick(Instant::now() + Duration::from_millis(20));
        let deadline = Instant::now() + Duration::from_secs(5);
        while fired.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "tick never fired on the idle pool");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(fired.load(Ordering::SeqCst), 1, "one request fires one tick");
    }
}
