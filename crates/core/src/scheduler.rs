//! A shared batch scheduler multiplexing many [`SynthesisSession`]s over one
//! long-lived worker pool.
//!
//! The paper's interactive setting implies many users issuing
//! dual-specification synthesis tasks concurrently. Giving every
//! [`SynthesisSession`] its own worker threads (the pre-scheduler design)
//! stalls at one-pool-per-session: N concurrent sessions on a K-core box
//! fight over cores with N×K threads, and a single expensive session can
//! monopolize the machine. The [`SessionScheduler`] instead owns **one**
//! worker pool for the whole process and serves any number of sessions from
//! it:
//!
//! * Each session's serial round loop is the `RoundDriver` **state machine**
//!   of `crate::enumerate` (beam pop, child expansion and scoring, ordered
//!   merge). Every session on the pool is **driven**: it parks that driver
//!   inside the scheduler, no OS thread exists per session, and when the
//!   driver needs to run, a pool worker resumes it inline. A blocking caller
//!   ([`SynthesisSession::run`]) registers a driven session like any other
//!   and waits for its outcome.
//! * The expensive phase — join-path construction plus the ascending-cost
//!   verification cascade — is split into chunked **work units** and
//!   submitted to the scheduler's fairness-aware queue.
//! * Workers pull units in **weighted round-robin order across live
//!   sessions** (weight = the session's beam width times its priority
//!   multiplier), so one session with a huge fan-out cannot starve the
//!   others: every queue rotation serves each session before returning to
//!   the first.
//! * When the last outstanding chunk of a session's round returns, **the
//!   worker that finished it resumes the session's driver inline** —
//!   merging results, emitting candidates and submitting the next round —
//!   instead of waking a parked thread. Live-session capacity is therefore
//!   bounded by memory, not by OS thread count.
//! * A session's chunk results are fed to its driver **in original child
//!   order** — the whole round at once under the barrier emission policy,
//!   contiguous prefixes as they complete under any-k: one release rule —
//!   so its candidate emission sequence is byte-identical to an inline
//!   single-session run, for any pool size (`tests/determinism.rs` asserts
//!   this under interleaved sessions).
//!
//! The pool also carries a **tick hook** ([`SchedulerHandle::set_tick`]): a
//! housekeeping callback the workers invoke at its requested time (between
//! units, or from a timed wait when the pool is idle). The service layer
//! uses it for deadline expiry of queued requests — folding what used to be
//! a dedicated housekeeper thread into the scheduler's own event loop.
//!
//! Pool-wide behaviour is observable through [`SessionScheduler::stats`]
//! (queue depth, busy workers, live sessions) and per-run through the
//! [`SchedulerRunStats`] embedded in [`crate::EnumerationStats`].
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
use crate::config::EmissionPolicy;
use crate::engine::{Candidate, CandidateCollector, SynthesisResult};
use crate::enumerate::MIN_PARALLEL_JOBS;
use crate::enumerate::{Advance, ChildJob, ChunkResult, RoundDriver, RunInputs, RunPlan};
use crate::session::SynthesisSession;
use duoquest_db::SelectSpec;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// Sessions currently registered.
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
/// [`crate::EnumerationStats::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerRunStats {
    /// Worker threads of the pool that served the run.
    pub pool_workers: usize,
    /// Work units this run submitted to the shared queue.
    pub units_submitted: u64,
    /// Work units this run executed inline, on the resuming pool worker
    /// (fan-outs too small to be worth the queue handoff).
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

/// Everything a pool worker needs to run one of a session's work units,
/// owned (`'static`) so the long-lived pool can outlive any borrow: the
/// session itself (its inputs are lent to the engine call by call) and the
/// plan compiled from them. One context is built per run and shared by `Arc`
/// between the parked driver and the chunk units.
struct SessionContext {
    session: SynthesisSession,
    plan: RunPlan,
}

impl SessionContext {
    fn inputs(&self) -> RunInputs<'_> {
        self.session.inputs()
    }
}

/// One queued unit of work.
enum WorkUnit {
    /// A chunk of a session's round: the result is routed back into the
    /// session's parked round assembly, and the worker whose chunk the
    /// emission policy was waiting for feeds the session's driver inline.
    Chunk { session: u64, chunk_idx: usize, jobs: Vec<ChildJob>, ctx: Arc<SessionContext> },
    /// Resume a session's parked driver (its initial kick, a yield, or a
    /// round completed entirely by cancellation reaping).
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

/// Everything a worker takes out of the slot to resume a session: the state
/// machine, the dedup/rank collector, the consumer's sink and the session's
/// owned resources.
struct DrivenCore {
    driver: RoundDriver,
    collector: CandidateCollector,
    on_candidate: DrivenSink,
    ctx: Arc<SessionContext>,
}

impl DrivenCore {
    /// The state of `session`'s run at its root, to be driven by a pool of
    /// `workers` threads: its plan compiled, its driver ready for the first
    /// step.
    fn new(session: SynthesisSession, on_candidate: DrivenSink, workers: usize) -> Self {
        let plan = RunPlan::new(&session.inputs());
        DrivenCore {
            driver: RoundDriver::new(&plan).on_pool(workers),
            collector: CandidateCollector::new(),
            on_candidate,
            ctx: Arc::new(SessionContext { session, plan }),
        }
    }

    /// One occupancy of a pool worker: feed the driver the chunk results
    /// that woke the session, if any, and — unless its round is still in
    /// flight (`None`) — step it until it needs the pool (see
    /// [`RoundDriver::advance`]). Candidates are delivered from here, i.e.
    /// on the calling pool worker, through the session's collector and sink.
    fn resume(&mut self, fed: Option<(Vec<ChunkResult>, bool)>) -> Option<Advance> {
        let DrivenCore { driver, collector, on_candidate, ctx } = self;
        let env = ctx.inputs();
        let mut sink = |spec: SelectSpec, confidence: f64, emitted_at: Duration| {
            collector.offer(spec, confidence, emitted_at, on_candidate.as_mut())
        };
        // One `resume` span per occupancy that steps the driver: how long
        // this worker held it (merging, emitting, stepping, running small
        // rounds inline) before parking, yielding or finishing.
        let started = env.trace.map(|_| env.clock.now());
        if let Some((batch, last)) = fed {
            driver.feed(batch, last, &env, &mut sink);
            if !last {
                return None;
            }
        }
        let exit = driver.advance(&ctx.plan, &env, &mut sink);
        if let (Some(trace), Some(started)) = (env.trace, started) {
            trace.record_span("resume", started, env.clock.now());
        }
        Some(exit)
    }

    /// The ranked result of a run that is over. `force_cancelled` marks runs
    /// wound down by a scheduler shutdown that never reached a cooperative
    /// check.
    fn finish(self, force_cancelled: bool) -> SynthesisResult {
        let mut stats = self.driver.into_stats(&self.ctx.plan, &self.ctx.inputs());
        stats.cancelled |= force_cancelled;
        self.collector.finish(stats)
    }
}

/// The in-flight round of a parked session: chunk results keyed by chunk
/// index, released to the driver in job order as the session's
/// [`EmissionPolicy`](crate::EmissionPolicy) allows.
struct RoundAssembly {
    results: Vec<Option<ChunkResult>>,
    /// Chunks that have not reported yet.
    remaining: usize,
    /// The next chunk index to feed. Everything before it has already been
    /// handed to the driver and taken out of `results`.
    fed: usize,
    /// Any-k emission: contiguous chunk prefixes go to the driver as they
    /// complete. Otherwise (`RoundBarrier`) nothing goes until every chunk
    /// has reported — a gate that never opens before the input is complete.
    streaming: bool,
}

impl RoundAssembly {
    /// The one release rule: pull the contiguous run of completed-but-unfed
    /// chunks (under the barrier policy, only once the round is complete),
    /// advancing the feed cursor past them.
    fn take_ready(&mut self) -> Vec<ChunkResult> {
        let mut batch = Vec::new();
        if !self.streaming && self.remaining > 0 {
            return batch;
        }
        while let Some(chunk) = self.results.get_mut(self.fed).and_then(Option::take) {
            batch.push(chunk);
            self.fed += 1;
        }
        batch
    }

    /// Whether every chunk of the round has been handed to the driver.
    fn all_fed(&self) -> bool {
        self.fed == self.results.len()
    }
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
    /// The parked core; `None` while a worker holds it (actively stepping).
    parked: Option<DrivenCore>,
    /// The in-flight round, when chunks are outstanding.
    round: Option<RoundAssembly>,
    on_complete: Option<DrivenCompletion>,
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
    /// The one registration path: allocate the next monotone id and append
    /// the slot, its driver parked and a `Resume` queued to kick it off —
    /// appending is what keeps `sessions` sorted by id, the invariant
    /// [`QueueState::session_mut`]'s binary search depends on.
    fn insert_slot(
        &mut self,
        weight: usize,
        cancel: Arc<AtomicBool>,
        core_state: DrivenCore,
        on_complete: DrivenCompletion,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let weight = weight.max(1);
        self.sessions.push(SessionQueue {
            id,
            weight,
            quantum: weight,
            pending: VecDeque::from([WorkUnit::Resume { session: id }]),
            cancel,
            parked: Some(core_state),
            round: None,
            on_complete: Some(on_complete),
        });
        self.depth += 1;
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
    /// returning it so teardown can extract the completion callback.
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
    /// The queued chunk units are dropped and their results fabricated as
    /// cancelled into the parked round assembly; if that completes the
    /// round, a `Resume` unit is queued so a worker winds the driver down
    /// (the driver observes the cancelled chunk flags — and the token
    /// itself — and finishes).
    fn reap_slot(&mut self, idx: usize) -> usize {
        let slot = &mut self.sessions[idx];
        if slot.pending.is_empty() || !slot.cancel.load(Ordering::Acquire) {
            return 0;
        }
        let mut fabricated = 0usize;
        let mut kept = VecDeque::new();
        while let Some(unit) = slot.pending.pop_front() {
            match unit {
                WorkUnit::Chunk { chunk_idx, .. } => {
                    if let Some(round) = &mut slot.round {
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
        let round_complete = slot.round.as_ref().map(|r| r.remaining == 0).unwrap_or(false);
        if fabricated > 0 && round_complete && slot.parked.is_some() {
            let session = slot.id;
            slot.pending.push_back(WorkUnit::Resume { session });
            self.depth += 1;
        }
        fabricated
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
        WorkUnit::Chunk { session, chunk_idx, jobs, ctx } => {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.plan.process(&ctx.inputs(), jobs)
            }));
            match outcome {
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
                // A stale resume (the core is held by another worker, or the
                // round is still in flight) is dropped harmlessly.
                if slot.round.as_ref().is_some_and(|r| r.remaining > 0) {
                    return;
                }
                slot.parked.take().map(|core_state| (core_state, slot.round.take()))
            };
            if let Some((core_state, round)) = taken {
                // A round resumed here was completed by cancellation
                // reaping: feed what is unfed (the fabricated cancelled
                // chunks among it) so the driver observes the cancellation
                // and winds down.
                let fed = round.map(|mut round| (round.take_ready(), true));
                resume_driven(core, session, core_state, fed);
            }
        }
    }
}

/// Route a chunk's result into its session's round assembly; when that
/// releases chunks to the driver (the whole round under the barrier policy,
/// a grown contiguous prefix under any-k), this worker feeds them inline.
fn complete_chunk(core: &Arc<PoolCore>, session: u64, chunk_idx: usize, result: ChunkResult) {
    let (core_state, batch, last) = {
        let mut queue = core.queue.lock().expect("scheduler queue poisoned");
        let (depth, live) = (queue.depth, queue.sessions.len());
        let busy = core.busy.load(Ordering::Relaxed);
        let Some(slot) = queue.session_mut(session) else { return };
        let Some(round) = &mut slot.round else { return };
        round.results[chunk_idx] = Some(result);
        round.remaining -= 1;
        // Another worker holds the core mid-feed (`parked` empty): its
        // repark loop re-checks under this lock and picks the chunk up.
        let Some(parked) = &mut slot.parked else { return };
        // Mid-round contention sample.
        observe_into(parked.driver.pool_stats(), depth, live, busy);
        let batch = round.take_ready();
        if batch.is_empty() {
            return;
        }
        let last = round.all_fed();
        if last {
            slot.round = None;
        }
        (slot.parked.take().expect("checked parked above"), batch, last)
    };
    resume_driven(core, session, core_state, Some((batch, last)));
}

/// Re-park a core after a mid-round feed — or keep feeding: chunks that
/// completed while this worker held the core were stored without being fed
/// (their workers saw `parked` empty), so re-check under the lock and park
/// only when nothing new is waiting.
fn repark_after_feed(core: &Arc<PoolCore>, session: u64, s: DrivenCore) {
    let (batch, last) = {
        let mut queue = core.queue.lock().expect("scheduler queue poisoned");
        let Some(slot) = queue.session_mut(session) else {
            // The slot is gone only on teardown races; drop the session.
            return;
        };
        let batch = slot.round.as_mut().map(RoundAssembly::take_ready).unwrap_or_default();
        if batch.is_empty() {
            slot.parked = Some(s);
            return;
        }
        let last = slot.round.as_ref().is_some_and(RoundAssembly::all_fed);
        if last {
            slot.round = None;
        }
        (batch, last)
    };
    resume_driven(core, session, s, Some((batch, last)));
}

/// Give a session's driver this worker (see [`DrivenCore::resume`]), then do
/// what it asks for: re-park it mid-round, park its next round, requeue it
/// after a yield, or complete it.
fn resume_driven(
    core: &Arc<PoolCore>,
    session: u64,
    mut s: DrivenCore,
    fed: Option<(Vec<ChunkResult>, bool)>,
) {
    let exit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let exit = s.resume(fed);
        (s, exit)
    }));
    match exit {
        Ok((s, None)) => repark_after_feed(core, session, s),
        Ok((s, Some(Advance::Park(jobs)))) => park_round(core, session, s, jobs),
        Ok((s, Some(Advance::Yield))) => yield_resume(core, session, s),
        Ok((s, Some(Advance::Done))) => {
            complete_driven(core, session, DrivenOutcome::Finished(s.finish(false)))
        }
        // A panic in there (a guidance model or consumer-sink bug) poisons
        // only this session; the worker survives. The payload's message
        // travels with the outcome so the serving layer can put it in the
        // request's terminal event.
        Err(payload) => {
            complete_driven(core, session, DrivenOutcome::Poisoned(panic_message(payload.as_ref())))
        }
    }
}

/// Split one round's jobs into the pool's contiguous scheduling chunks:
/// ~2 per worker so the fairness queue can interleave sessions mid-round.
/// Chunk size only affects scheduling granularity, never results (chunk
/// results are reassembled in job order on merge).
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

/// Park a session's round: chunk the jobs into the fairness queue and store
/// the driver back in its slot until the emission policy releases results.
fn park_round(core: &Arc<PoolCore>, session: u64, mut s: DrivenCore, jobs: Vec<ChildJob>) {
    let chunks = chunk_jobs(jobs, core.workers);
    let sent = chunks.len();
    let env = s.ctx.inputs();
    if let Some(trace) = env.trace {
        trace.event("dispatch", env.clock.now(), Some(format!("chunks={sent}")));
    }
    let streaming = env.config.emission == EmissionPolicy::AnyK;

    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    let (depth, live) = (queue.depth + sent, queue.sessions.len());
    let run_stats = s.driver.pool_stats();
    run_stats.units_submitted += sent as u64;
    observe_into(run_stats, depth, live, core.busy.load(Ordering::Relaxed));
    let Some(slot) = queue.session_mut(session) else {
        // The slot is gone only on teardown races; drop the round.
        return;
    };
    slot.round = Some(RoundAssembly {
        results: (0..sent).map(|_| None).collect(),
        remaining: sent,
        fed: 0,
        streaming,
    });
    for (chunk_idx, jobs) in chunks.into_iter().enumerate() {
        slot.pending.push_back(WorkUnit::Chunk {
            session,
            chunk_idx,
            jobs,
            ctx: Arc::clone(&s.ctx),
        });
    }
    slot.parked = Some(s);
    queue.depth += sent;
    drop(queue);
    core.work_available.notify_all();
}

/// Re-park a session between rounds (no chunks outstanding) and requeue its
/// `Resume`, so the fairness queue decides — in weighted round-robin order,
/// alongside every other session's units — when its next burst of small
/// rounds runs.
fn yield_resume(core: &Arc<PoolCore>, session: u64, s: DrivenCore) {
    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    let Some(slot) = queue.session_mut(session) else {
        // The slot is gone only on teardown races; drop the session.
        return;
    };
    slot.parked = Some(s);
    slot.pending.push_back(WorkUnit::Resume { session });
    queue.depth += 1;
    drop(queue);
    core.work_available.notify_all();
}

/// Tear a session down and deliver its completion:
/// [`DrivenOutcome::Finished`] for a completed (or cancelled) run,
/// [`DrivenOutcome::Poisoned`] for a panicked one.
fn complete_driven(core: &Arc<PoolCore>, session: u64, outcome: DrivenOutcome) {
    let on_complete = {
        let mut queue = core.queue.lock().expect("scheduler queue poisoned");
        queue.remove_session(session).and_then(|slot| slot.on_complete)
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
/// [`SynthesisSession::spawn_driven`].
pub(crate) fn spawn_driven_session(
    handle: &SchedulerHandle,
    session: SynthesisSession,
    on_candidate: DrivenSink,
    on_complete: DrivenCompletion,
) {
    let core = &handle.core;
    // Fairness weight = beam width × priority multiplier: a session's share
    // of each round-robin rotation scales with both how much work a round
    // exposes and how urgent its requester is.
    let weight = session.config().beam_width.max(1).saturating_mul(session.priority_weight());
    let cancel = session.control().flag();
    let core_state = DrivenCore::new(session, on_candidate, core.workers);
    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    if core.shutdown.load(Ordering::Acquire) {
        drop(queue);
        // The pool will never run this session: resolve it as cancelled
        // instead of stranding the completion callback.
        on_complete(DrivenOutcome::Finished(core_state.finish(true)));
        return;
    }
    queue.insert_slot(weight, cancel, core_state, on_complete);
    drop(queue);
    core.work_available.notify_all();
}

/// A shared, long-lived worker pool serving any number of concurrent
/// [`SynthesisSession`]s (see the [module docs](self) for the design).
///
/// Dropping the scheduler shuts the pool down and joins its workers. Sessions
/// still parked at that point are wound down as cancelled: their completion
/// callbacks fire with the candidates found so far, so a caller blocked in
/// [`SynthesisSession::run`] on this pool returns that result with
/// `stats.cancelled` set, and a session spawned on a pool that is already
/// gone resolves the same way at once.
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
        // With every worker joined, wind down the sessions still parked as
        // cancelled — their completion callbacks fire with the candidates
        // found so far (the moral equivalent of joining per-session driver
        // threads, without the threads). Sessions spawned after this point
        // are resolved by `spawn_driven_session` itself, which checks
        // `shutdown` under the same lock.
        let sessions = {
            let mut queue = self.core.queue.lock().expect("scheduler queue poisoned");
            queue.depth = 0;
            std::mem::take(&mut queue.sessions)
        };
        for mut slot in sessions {
            let Some(cb) = slot.on_complete.take() else { continue };
            let outcome = match slot.parked.take() {
                Some(core_state) => DrivenOutcome::Finished(core_state.finish(true)),
                // A session mid-resume during the sweep (its core is out on
                // a worker) has no result to deliver: resolve it as poisoned
                // without a message.
                None => DrivenOutcome::Poisoned(None),
            };
            // A panicking completion callback must not abort the sweep and
            // strand the remaining sessions' consumers.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cb(outcome)));
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
/// [`SynthesisSession::with_scheduler`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DuoquestConfig;
    use crate::session::SessionControl;
    use crate::tsq::{TableSketchQuery, TsqCell};
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::{CmpOp, DataType, Database};
    use duoquest_nlq::{GuidanceModel, Literal, Nlq, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::QueryBuilder;
    use std::sync::mpsc;

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
        // Session A (id 0): weight 1, its kick-off resume then 4 chunks
        // tagged 0..4. Session B (id 1): weight 2, its resume then 4 chunks
        // tagged 100..104.
        let (db, nlq, model, _gold) = fixture();
        let mut queue = QueueState::default();
        for (weight, tag_base) in [(1usize, 0usize), (2, 100)] {
            let session = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model));
            let core_state = DrivenCore::new(session, Box::new(|_| true), 1);
            let ctx = Arc::clone(&core_state.ctx);
            let cancel = Arc::new(AtomicBool::new(false));
            let id = queue.insert_slot(weight, cancel, core_state, Box::new(|_| {}));
            let slot = queue.session_mut(id).expect("slot just inserted");
            slot.pending.extend((0..4).map(|i| WorkUnit::Chunk {
                session: id,
                chunk_idx: tag_base + i,
                jobs: Vec::new(),
                ctx: Arc::clone(&ctx),
            }));
            queue.depth += 4;
        }
        let mut order = Vec::new();
        while let Some(unit) = queue.pop() {
            order.push(match unit {
                WorkUnit::Chunk { chunk_idx, .. } => chunk_idx,
                WorkUnit::Resume { session } => 1000 + session as usize,
            });
        }
        assert_eq!(queue.depth, 0);
        // Weight-proportional service: one A unit, then two B units, per
        // rotation, until a side drains; then the remainder streams out.
        assert_eq!(order, vec![1000, 1001, 100, 0, 101, 102, 1, 103, 2, 3]);
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
        // (A private run with `workers > 1` is a driven session on a pool
        // of its own and also sets `stats.scheduler`.)
        assert!(private.stats.scheduler.is_none());
        let run = shared.stats.scheduler.expect("shared run records scheduler stats");
        assert_eq!(run.pool_workers, 3);
        assert!(run.units_submitted + run.units_inline > 0);
    }

    /// The tentpole path: a session driven entirely by the pool (no session
    /// thread) emits byte-identically to an inline run.
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
        let (db, nlq, model, _gold) = fixture();
        let pool = SessionScheduler::new(2);
        assert_eq!(pool.workers(), 2);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.live_sessions, 0);
        assert_eq!(stats.queue_depth, 0);
        // A session whose sink holds its first candidate until told to go on
        // stays registered for as long as we look.
        let (seen_tx, seen_rx) = mpsc::channel();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        SynthesisSession::new(db, nlq, model).with_config(DuoquestConfig::fast()).spawn_driven(
            &pool.handle(),
            Box::new(move |_c: &Candidate| seen_tx.send(()).is_ok() && go_rx.recv().is_ok()),
            Box::new(move |outcome| {
                let _ = done_tx.send(outcome);
            }),
        );
        seen_rx.recv_timeout(Duration::from_secs(30)).expect("first candidate emitted");
        let stats = pool.stats();
        assert_eq!(stats.live_sessions, 1);
        assert_eq!(stats.busy_workers, 1, "the worker inside the sink is busy");
        drop(go_tx); // the sink now reads "stop"
        let result = expect_finished(
            done_rx.recv_timeout(Duration::from_secs(30)).expect("stopped session completed"),
        );
        assert_eq!(result.candidates.len(), 1);
        assert_eq!(pool.stats().live_sessions, 0, "a resolved session is deregistered");
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
