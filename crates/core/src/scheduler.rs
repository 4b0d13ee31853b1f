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
//! * Each session's round loop is the `RoundDriver` **state machine** of
//!   `crate::enumerate` (pop, child expansion and scoring, verification,
//!   ordered merge). A session reaches the pool through
//!   [`SynthesisSession::spawn_driven`] — the one way onto it — and is then
//!   **driven**: it parks that driver inside the scheduler, no OS thread
//!   exists per session, and a pool worker resumes it. The session's own
//!   `run` / `run_with` / `stream` never come here: they run on the calling
//!   thread.
//! * **Sessions are the pool's only unit of parallelism.** The one kind of
//!   queued unit is a session's `Resume`; the worker that pops it runs the
//!   session's rounds on the spot, one after another — a child costs well
//!   under a microsecond to verify, less than handing it to another core
//!   would — so a pool of *n* workers advances *n* sessions at once.
//! * Workers pull resumes in **weighted round-robin order across live
//!   sessions** (weight = the session's priority multiplier). After a
//!   bounded burst of rounds the worker looks at the queue once: if another
//!   session's resume or a shutdown is waiting, it requeues its session
//!   behind the others, so one long session cannot starve the rest; if
//!   nobody waits it simply keeps going — a yield costs one uncontended
//!   lock, no requeue and no wake-up.
//! * A session's rounds run strictly in order, each merged in child order,
//!   so its candidate emission sequence is byte-identical to an inline
//!   single-session run, for any pool size (`tests/determinism.rs` asserts
//!   this under interleaved sessions).
//!
//! The pool only multiplexes sessions: it keeps no timers and runs no
//! callbacks but the sessions' own. A request that waits for a live slot is
//! the serving layer's business, and expires there when someone looks at it
//! (`docs/SERVICE.md`, "Deadlines").
//!
//! Pool-wide behaviour is observable through [`SessionScheduler::stats`]
//! (queue depth, busy workers, live sessions) and per-run through the
//! [`SchedulerRunStats`] embedded in [`crate::EnumerationStats`].
//!
//! # Example
//!
//! Two sessions sharing one pool, each waited for through a channel:
//!
//! ```
//! use duoquest_core::{DrivenOutcome, DuoquestConfig, SessionScheduler, SynthesisSession};
//! use duoquest_db::{ColumnDef, Database, Schema, TableDef, Value};
//! use duoquest_nlq::{HeuristicGuidance, Literal, Nlq};
//! use std::sync::{mpsc, Arc};
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
//! let (done_tx, done_rx) = mpsc::channel();
//! for q in ["movie names before 2000", "movie names after 2000"] {
//!     let nlq = Nlq::with_literals(q, vec![Literal::number(2000.0)]);
//!     let done_tx = done_tx.clone();
//!     SynthesisSession::new(Arc::clone(&db), nlq, model.clone())
//!         .with_config(DuoquestConfig::fast())
//!         .spawn_driven(
//!             &pool.handle(),
//!             Box::new(|_candidate| true), // keep going
//!             Box::new(move |outcome| done_tx.send(outcome).unwrap()),
//!         );
//! }
//! for _ in 0..2 {
//!     match done_rx.recv().unwrap() {
//!         DrivenOutcome::Finished(result) => assert!(!result.candidates.is_empty()),
//!         DrivenOutcome::Poisoned(message) => panic!("session panicked: {message:?}"),
//!     }
//! }
//! assert_eq!(pool.stats().live_sessions, 0);
//! ```

use crate::clock::{system_clock, SharedClock};
use crate::engine::{Candidate, SynthesisResult};
use crate::enumerate::{Advance, RoundDriver};
use crate::session::{SessionRun, SynthesisSession};
use duoquest_obs::Reading::{Counter, Gauge};
use duoquest_obs::Series;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A point-in-time snapshot of the pool, from [`SessionScheduler::stats`] or
/// [`SchedulerHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Worker threads owned by the pool.
    pub workers: usize,
    /// Workers currently holding a session.
    pub busy_workers: usize,
    /// Sessions queued for a worker and not yet picked up.
    pub queue_depth: usize,
    /// Sessions currently registered.
    pub live_sessions: usize,
    /// Resumes executed since the pool started.
    pub units_executed: u64,
}

impl SchedulerStats {
    /// The pool's load as series, declared once for both scraping surfaces
    /// (the service serves them under its `"scheduler"` object).
    pub fn series(&self) -> [Series<'static>; 5] {
        [
            Series::new(
                "workers",
                "duoquest_scheduler_workers",
                "Worker threads owned by the shared pool.",
                Gauge(self.workers as u64),
            ),
            Series::new(
                "busy_workers",
                "duoquest_scheduler_busy_workers",
                "Pool workers currently executing a unit.",
                Gauge(self.busy_workers as u64),
            ),
            Series::new(
                "queue_depth",
                "duoquest_scheduler_queue_depth",
                "Work units queued in the pool and not yet picked up.",
                Gauge(self.queue_depth as u64),
            ),
            Series::new(
                "live_sessions",
                "duoquest_scheduler_live_sessions",
                "Sessions currently registered with the pool.",
                Gauge(self.live_sessions as u64),
            ),
            Series::new(
                "units_executed",
                "duoquest_scheduler_units_executed_total",
                "Work units executed since the pool started.",
                Counter(self.units_executed),
            ),
        ]
    }
}

/// Shared-pool observations recorded by one synthesis run, surfaced in
/// [`crate::EnumerationStats::scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerRunStats {
    /// Worker threads of the pool that served the run.
    pub pool_workers: usize,
    /// `Resume` units this run queued: its kick-off plus one per yield that
    /// found somebody waiting. `1` means the run never left its worker.
    pub units_submitted: u64,
    /// Rounds this run verified (those with at least one child), each on the
    /// worker that held the session.
    pub units_inline: u64,
    /// Deepest queue observed at this run's registration and yields,
    /// including other sessions' resumes — a contention signal.
    pub queue_depth_peak: usize,
    /// Most busy workers observed at this run's registration and yields.
    pub busy_workers_peak: usize,
    /// Most live sessions observed at this run's registration and yields.
    pub live_sessions_peak: usize,
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
    /// A round panicked, poisoning this session alone. Carries the
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

/// One live session's slot in the fairness queue.
struct SessionQueue {
    id: u64,
    /// Scheduling weight — the session's priority multiplier (interactive
    /// sessions register a larger multiplier than batch ones): resumes
    /// granted per round-robin rotation before the cursor moves on.
    weight: usize,
    /// Resumes remaining in the current rotation.
    quantum: usize,
    /// Whether the session's `Resume` is queued: its kick-off, or a yield
    /// that found somebody waiting. Never set while a worker holds the run.
    queued: bool,
    /// The parked run and its consumer's sink; `None` while a worker holds
    /// them (running its rounds).
    parked: Option<(SessionRun, DrivenSink)>,
    on_complete: Option<DrivenCompletion>,
}

/// The fairness-aware queue: weighted round-robin across live sessions.
#[derive(Default)]
struct QueueState {
    sessions: Vec<SessionQueue>,
    /// Rotation cursor into `sessions`.
    cursor: usize,
    /// Sessions whose `Resume` is queued.
    depth: usize,
    next_id: u64,
}

impl QueueState {
    /// The one registration path: allocate the next monotone id and append
    /// the slot, its run parked and its `Resume` queued to kick it off —
    /// appending is what keeps `sessions` sorted by id, the invariant
    /// [`QueueState::session_mut`]'s binary search depends on.
    fn insert_slot(
        &mut self,
        weight: usize,
        parked: (SessionRun, DrivenSink),
        on_complete: DrivenCompletion,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let weight = weight.max(1);
        self.sessions.push(SessionQueue {
            id,
            weight,
            quantum: weight,
            queued: true,
            parked: Some(parked),
            on_complete: Some(on_complete),
        });
        self.depth += 1;
        id
    }

    /// Slot lookup by id. Ids are handed out monotonically and `sessions`
    /// only ever appends fresh ids (removals preserve order), so the vector
    /// stays sorted by id and the lookup is a binary search — every resume
    /// routes through here under the pool-wide lock, so this must not be a
    /// linear scan over a thousand live sessions.
    fn session_mut(&mut self, id: u64) -> Option<&mut SessionQueue> {
        let pos = self.sessions.binary_search_by_key(&id, |s| s.id).ok()?;
        Some(&mut self.sessions[pos])
    }

    /// Remove a session's slot entirely (its queued resume drops with it),
    /// returning it so teardown can extract the completion callback.
    fn remove_session(&mut self, id: u64) -> Option<SessionQueue> {
        let pos = self.sessions.binary_search_by_key(&id, |s| s.id).ok()?;
        let removed = self.sessions.remove(pos);
        self.depth -= usize::from(removed.queued);
        if pos < self.cursor {
            self.cursor -= 1;
        }
        Some(removed)
    }

    /// Pop the next queued session in weighted round-robin order: the cursor
    /// session spends one quantum per pop and yields the cursor when its
    /// quantum is exhausted or it has nothing queued, so a session with
    /// weight *w* gets at most *w* resumes per rotation and an expensive
    /// session cannot starve the rest. A cancelled session's resume is served
    /// like any other: its driver observes the token at its first check and
    /// winds down.
    fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let n = self.sessions.len();
        // Two full rotations suffice: the first may only refresh exhausted
        // quanta, the second must find the queued work counted in `depth`.
        for _ in 0..(2 * n) {
            self.cursor %= n;
            let slot = &mut self.sessions[self.cursor];
            if !slot.queued || slot.quantum == 0 {
                slot.quantum = slot.weight;
                self.cursor += 1;
                continue;
            }
            slot.quantum -= 1;
            slot.queued = false;
            self.depth -= 1;
            return Some(slot.id);
        }
        None
    }
}

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

    /// Worker side, at a yield: whether anything else wants this worker —
    /// another session's resume or a shutdown. One look at the queue under
    /// its lock, which also samples the pool's contention into the yielding
    /// run's stats.
    fn someone_waits(&self, run_stats: &mut SchedulerRunStats) -> bool {
        let queue = self.queue.lock().expect("scheduler queue poisoned");
        self.observe_into(run_stats, queue.depth, queue.sessions.len());
        queue.depth > 0 || self.shutdown.load(Ordering::Acquire)
    }

    /// Record the pool's current contention into a run's stats. Caller holds
    /// the queue lock (the snapshot is a couple of loads).
    fn observe_into(&self, run_stats: &mut SchedulerRunStats, depth: usize, live: usize) {
        run_stats.queue_depth_peak = run_stats.queue_depth_peak.max(depth);
        run_stats.busy_workers_peak =
            run_stats.busy_workers_peak.max(self.busy.load(Ordering::Relaxed));
        run_stats.live_sessions_peak = run_stats.live_sessions_peak.max(live);
    }

    /// Worker side: block until a session is queued or the pool shuts down.
    fn next_unit(&self) -> Option<u64> {
        let mut queue = self.queue.lock().expect("scheduler queue poisoned");
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(unit) = queue.pop() {
                return Some(unit);
            }
            queue = self.work_available.wait(queue).expect("scheduler queue poisoned");
        }
    }
}

fn worker_loop(core: Arc<PoolCore>) {
    while let Some(session) = core.next_unit() {
        core.busy.fetch_add(1, Ordering::Relaxed);
        resume_session(&core, session);
        core.busy.fetch_sub(1, Ordering::Relaxed);
        core.units_executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Run one popped `Resume` on this worker: take the session's parked run
/// and give it the worker (see [`occupy`]), then requeue it after a yield
/// somebody was waiting for, or complete it.
fn resume_session(core: &Arc<PoolCore>, session: u64) {
    let parked = {
        let mut queue = core.queue.lock().expect("scheduler queue poisoned");
        queue.session_mut(session).and_then(|slot| slot.parked.take())
    };
    // The slot is gone only on teardown races.
    let Some((mut run, mut on_candidate)) = parked else { return };
    let exit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let exit = occupy(core, &mut run, &mut on_candidate);
        (run, on_candidate, exit)
    }));
    match exit {
        Ok((run, on_candidate, Advance::Yield)) => yield_resume(core, session, run, on_candidate),
        Ok((mut run, _, Advance::Done)) => {
            // Complete first, free afterwards: the frontier drops with `run`,
            // once the outcome has been delivered.
            complete_driven(core, session, DrivenOutcome::Finished(run.finish(false)));
        }
        // A panic in there (a guidance model, verifier or consumer-sink bug)
        // poisons only this session; the worker survives. The payload's
        // message travels with the outcome so the serving layer can put it
        // in the request's terminal event.
        Err(payload) => {
            complete_driven(core, session, DrivenOutcome::Poisoned(panic_message(payload.as_ref())))
        }
    }
}

/// One occupancy of a pool worker: run the session's bursts of rounds on
/// the spot until the run is over or, at a yield, somebody else wants the
/// worker ([`PoolCore::someone_waits`], which samples the pool into the
/// run's observations). Candidates are delivered from here, i.e. on this
/// pool worker, through the run's collector and the consumer's sink.
fn occupy(core: &PoolCore, run: &mut SessionRun, on_candidate: &mut DrivenSink) -> Advance {
    // One `resume` span per occupancy: how long this worker held the run
    // before requeueing or finishing it.
    let started = run.trace().map(|_| core.clock.now());
    let exit = loop {
        match run.advance(on_candidate.as_mut()) {
            Advance::Yield if !core.someone_waits(run.pool_stats()) => {}
            exit => break exit,
        }
    };
    if let (Some(trace), Some(started)) = (run.trace(), started) {
        trace.record_span("resume", started, core.clock.now());
    }
    exit
}

/// Re-park a session at a yield somebody else was waiting for and requeue
/// its `Resume`, so the fairness queue decides — in weighted round-robin
/// order, alongside every other session — when its next burst of rounds
/// runs.
fn yield_resume(core: &Arc<PoolCore>, session: u64, mut run: SessionRun, on_candidate: DrivenSink) {
    run.pool_stats().units_submitted += 1;
    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    let Some(slot) = queue.session_mut(session) else {
        // The slot is gone only on teardown races; drop the session.
        return;
    };
    slot.parked = Some((run, on_candidate));
    slot.queued = true;
    queue.depth += 1;
    drop(queue);
    core.work_available.notify_one();
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
/// created — pool workers resume the session's `RoundDriver`, deliver
/// candidates through `on_candidate` (return `false` to
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
    // Fairness weight = priority multiplier: a session's share of each
    // round-robin rotation scales with how urgent its requester is.
    let weight = session.priority_weight();
    let mut run = SessionRun::new(session, RoundDriver::new().on_pool(core.workers));
    let mut queue = core.queue.lock().expect("scheduler queue poisoned");
    if core.shutdown.load(Ordering::Acquire) {
        drop(queue);
        // The pool will never run this session: resolve it as cancelled
        // instead of stranding the completion callback.
        on_complete(DrivenOutcome::Finished(run.finish(true)));
        return;
    }
    // The kick-off resume, and the run's first look at the pool (itself
    // included).
    let run_stats = run.pool_stats();
    run_stats.units_submitted = 1;
    core.observe_into(run_stats, queue.depth + 1, queue.sessions.len() + 1);
    queue.insert_slot(weight, (run, on_candidate), on_complete);
    drop(queue);
    core.work_available.notify_one();
}

/// A shared, long-lived worker pool serving any number of concurrent
/// [`SynthesisSession`]s (see the [module docs](self) for the design).
///
/// Dropping the scheduler shuts the pool down and joins its workers. Sessions
/// still parked at that point are wound down as cancelled: their completion
/// callbacks fire with the candidates found so far in a result with
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

    /// Spawn a pool whose time source is `clock` instead of the real clock:
    /// the sessions it drives and the spans it records read time from it.
    pub fn new_with_clock(workers: usize, clock: SharedClock) -> Self {
        let workers = workers.max(1);
        let core = Arc::new(PoolCore {
            queue: Mutex::new(QueueState::default()),
            work_available: Condvar::new(),
            workers,
            busy: AtomicUsize::new(0),
            units_executed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            clock,
        });
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
            let outcome = match slot.parked.as_mut() {
                Some((run, _)) => DrivenOutcome::Finished(run.finish(true)),
                // A session mid-resume during the sweep (its run is out on
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

/// A cloneable handle to a [`SessionScheduler`]'s pool. Hand one to
/// [`SynthesisSession::spawn_driven`] to run a session there.
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
    use crate::tsq::{TableSketchQuery, TsqCell};
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::{CmpOp, DataType, Database};
    use duoquest_nlq::{GuidanceModel, Literal, Nlq, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::QueryBuilder;
    use std::sync::mpsc;
    use std::time::Duration;

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
        // Session A (id 0) has weight 1, session B (id 1) weight 2; each is
        // requeued as soon as it is popped, as two endless sessions that
        // always find each other waiting would be.
        let (db, nlq, model, _gold) = fixture();
        let mut queue = QueueState::default();
        for weight in [1usize, 2] {
            let session = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model));
            let run = SessionRun::new(session, RoundDriver::new().on_pool(1));
            queue.insert_slot(weight, (run, Box::new(|_| true)), Box::new(|_| {}));
        }
        let mut order = Vec::new();
        for _ in 0..9 {
            let id = queue.pop().expect("both sessions are queued");
            order.push(id);
            queue.session_mut(id).expect("slot is live").queued = true;
            queue.depth += 1;
        }
        // Weight-proportional service: one A resume, then two B resumes,
        // per rotation.
        assert_eq!(order, vec![0, 1, 1, 0, 1, 1, 0, 1, 1]);
        // A session with nothing queued is passed over, whatever its weight.
        queue.session_mut(1).expect("slot is live").queued = false;
        queue.depth -= 1;
        assert_eq!(queue.pop(), Some(0));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.depth, 0);
    }

    fn expect_finished(outcome: DrivenOutcome) -> crate::engine::SynthesisResult {
        match outcome {
            DrivenOutcome::Finished(result) => result,
            DrivenOutcome::Poisoned(msg) => panic!("session poisoned: {msg:?}"),
        }
    }

    #[test]
    fn shared_pool_session_matches_inline_run() {
        let (db, nlq, model, _gold) = fixture();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = 30;

        let inline = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model))
            .with_tsq(tsq.clone())
            .with_config(config.clone())
            .run();

        let pool = SessionScheduler::new(3);
        let (tx, rx) = mpsc::channel();
        SynthesisSession::new(db, nlq, model).with_tsq(tsq).with_config(config).spawn_driven(
            &pool.handle(),
            Box::new(|_c: &Candidate| true),
            Box::new(move |outcome| {
                let _ = tx.send(outcome);
            }),
        );
        let shared = expect_finished(
            rx.recv_timeout(Duration::from_secs(30)).expect("driven session completed"),
        );

        let render = |r: &crate::engine::SynthesisResult| {
            r.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect::<Vec<_>>()
        };
        assert_eq!(render(&inline), render(&shared));
        assert_eq!(inline.stats.emitted, shared.stats.emitted);
        assert_eq!(inline.stats.expanded, shared.stats.expanded);
        assert_eq!(inline.stats.total_pruned(), shared.stats.total_pruned());
        // The driven run reports pool observations; the inline run does not.
        assert!(inline.stats.scheduler.is_none());
        let run = shared.stats.scheduler.expect("shared run records scheduler stats");
        assert_eq!(run.pool_workers, 3);
        assert!(run.units_submitted + run.units_inline > 0);
    }

    /// A session driven entirely by the pool (no session thread) emits
    /// byte-identically to an inline run.
    #[test]
    fn driven_session_matches_inline_run() {
        let (db, nlq, model, _gold) = fixture();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = 30;

        let inline = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model))
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
            assert_eq!(render(&inline), render(&result), "{pool_workers}-worker pool diverged");
            assert_eq!(inline.stats.emitted, result.stats.emitted);
            assert_eq!(inline.stats.expanded, result.stats.expanded);
            assert_eq!(inline.stats.total_pruned(), result.stats.total_pruned());
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
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            SynthesisSession::new(Arc::clone(&db), nlq.clone(), model.clone())
                .with_config(config.clone())
                .spawn_driven(
                    &pool.handle(),
                    Box::new(|_c: &Candidate| true),
                    Box::new(move |outcome| {
                        let _ = tx.send(outcome);
                    }),
                );
        }
        for _ in 0..4 {
            let result = expect_finished(
                rx.recv_timeout(Duration::from_secs(30)).expect("driven session completed"),
            );
            assert_eq!(result.rank_of(&gold), Some(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.live_sessions, 0, "all sessions deregistered");
        assert_eq!(stats.queue_depth, 0, "no orphaned units");
    }
}
