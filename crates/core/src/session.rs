//! Streaming synthesis sessions over a shared database.
//!
//! [`SynthesisSession`] is the owned, `Arc`-based entry point to the
//! synthesis core: it holds a cheaply shareable [`Database`], the dual
//! specification (NLQ + optional TSQ), a guidance model and a
//! [`DuoquestConfig`], and runs the round-based engine of
//! [`crate::enumerate`]. Four consumption styles are supported:
//!
//! * [`SynthesisSession::run`] — block until the run finishes, get the ranked
//!   [`SynthesisResult`];
//! * [`SynthesisSession::run_with`] — block, but observe each candidate as it
//!   is emitted (and optionally stop early);
//! * [`SynthesisSession::stream`] — hand the session to a scheduler pool to
//!   be **driven without any per-session thread** and consume candidates
//!   through a channel-backed iterator while enumeration is still in flight.
//!   The first candidate is available as soon as it survives verification,
//!   long before the run completes — this is what the paper's interactive
//!   front end needs for its "results appear as they are found" interface.
//! * [`SynthesisSession::spawn_driven`] — the primitive under all of the
//!   above whenever a pool is involved, and under the service layer:
//!   register the session with a [`SessionScheduler`] whose workers resume
//!   its round-loop state machine a burst of rounds at a time, delivering
//!   candidates and the final result through callbacks. No OS thread exists
//!   per session.
//!
//! There are two places a run can stand. **Inline**: a blocking call
//! (`run` / `run_with`) on a session with no scheduler attached runs the
//! whole search on the calling thread — no pool, no queue, the paper's
//! Algorithm 1 as written. **On a pool**: everything else is a driven
//! session; the blocking calls register one on the attached pool and wait
//! for its outcome, and a stream without an attached pool owns a one-worker
//! pool of its own. A pool's worker count is how many *sessions* advance at
//! once; a session's rounds run one after another on whichever worker holds
//! it.
//!
//! Absent a wall-clock `time_budget`, the emitted candidate set and order
//! depend only on the configuration (beam width, budgets), never on where
//! the run stands; a time budget is the one intentionally non-deterministic
//! cut-off. See the determinism notes in `crate::enumerate`.

use crate::clock::{system_clock, SharedClock};
use crate::config::DuoquestConfig;
use crate::engine::{synthesize_inline, Candidate, SynthesisResult};
use crate::enumerate::RunInputs;
use crate::scheduler::{spawn_driven_session, DrivenOutcome, SchedulerHandle, SessionScheduler};
use crate::tsq::TableSketchQuery;
use duoquest_db::Database;
use duoquest_nlq::{GuidanceModel, Nlq};
use duoquest_obs::Trace;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative controls for one synthesis run: a shared **cancellation
/// token** plus an optional absolute **deadline**.
///
/// The engine checks both at every round boundary and between a round's
/// verification jobs, so a cancellation or a deadline takes effect mid-round
/// without waiting for the round to drain. A cancelled session parked on a
/// [`SessionScheduler`] pool winds down when a worker next resumes it: its
/// first check sees the token.
///
/// Cloning shares the token: hand one clone to the consumer (to cancel) and
/// attach another to the session with
/// [`SynthesisSession::with_control`]. A run that completes without the token
/// firing is byte-identical to a run without any control attached.
///
/// The deadline is an absolute [`Instant`], so a serving layer can anchor it
/// at *submit* time — queue wait counts against the budget. A run cut by the
/// deadline keeps everything emitted so far and sets
/// [`EnumerationStats::deadline_exceeded`](crate::EnumerationStats::deadline_exceeded);
/// a cancelled run sets
/// [`EnumerationStats::cancelled`](crate::EnumerationStats::cancelled).
#[derive(Clone, Debug, Default)]
pub struct SessionControl {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl SessionControl {
    /// A fresh control: not cancelled, no deadline.
    pub fn new() -> Self {
        SessionControl::default()
    }

    /// Set an absolute deadline. The run stops enumerating once the deadline
    /// passes and returns the best candidates found so far.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Fire the cancellation token. Idempotent; takes effect at the engine's
    /// next cooperative check (round boundary or between a round's jobs).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Borrowed view of the token, for round-scoped environments.
    pub(crate) fn flag_ref(&self) -> &AtomicBool {
        &self.cancelled
    }
}

/// An owned synthesis task: shared database + dual specification + model +
/// configuration. Create one per user query; clone the `Arc`s, not the data.
///
/// # Example
///
/// Synthesize over a tiny in-memory database:
///
/// ```
/// use duoquest_core::{DuoquestConfig, SynthesisSession};
/// use duoquest_db::{ColumnDef, Database, Schema, TableDef, Value};
/// use duoquest_nlq::{HeuristicGuidance, Literal, Nlq};
/// use std::sync::Arc;
///
/// let mut schema = Schema::new("demo");
/// schema.add_table(TableDef::new(
///     "movies",
///     vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
///     Some(0),
/// ));
/// let mut db = Database::new(schema).unwrap();
/// db.insert("movies", vec![Value::int(1), Value::text("Heat"), Value::int(1995)]).unwrap();
/// db.insert("movies", vec![Value::int(2), Value::text("Up"), Value::int(2009)]).unwrap();
/// db.rebuild_index();
///
/// let nlq = Nlq::with_literals("movie names before 2000", vec![Literal::number(2000.0)]);
/// let session = SynthesisSession::new(
///     db.into_shared(),
///     nlq,
///     Arc::new(HeuristicGuidance::new()),
/// )
/// .with_config(DuoquestConfig::fast());
/// let result = session.run();
/// assert!(!result.candidates.is_empty());
/// ```
#[derive(Clone)]
pub struct SynthesisSession {
    db: Arc<Database>,
    nlq: Nlq,
    tsq: Option<TableSketchQuery>,
    model: Arc<dyn GuidanceModel>,
    config: DuoquestConfig,
    scheduler: Option<SchedulerHandle>,
    control: SessionControl,
    priority_weight: usize,
    clock: SharedClock,
    trace: Option<Arc<Trace>>,
}

impl SynthesisSession {
    /// Create a session with the default configuration and no TSQ.
    ///
    /// Without an attached [`SessionScheduler`] handle a blocking call runs
    /// inline on the calling thread. To serve many sessions from one pool,
    /// attach a shared handle with [`SynthesisSession::with_scheduler`].
    pub fn new(db: Arc<Database>, nlq: Nlq, model: Arc<dyn GuidanceModel>) -> Self {
        SynthesisSession {
            db,
            nlq,
            tsq: None,
            model,
            config: DuoquestConfig::default(),
            scheduler: None,
            control: SessionControl::new(),
            priority_weight: 1,
            clock: system_clock(),
            trace: None,
        }
    }

    /// Attach a table sketch query (the second half of the dual specification).
    pub fn with_tsq(mut self, tsq: TableSketchQuery) -> Self {
        self.tsq = Some(tsq);
        self
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: DuoquestConfig) -> Self {
        self.config = config;
        self
    }

    /// Run this session on a shared [`SessionScheduler`] pool: every run of
    /// it — blocking, streamed or spawned — is then a driven session there,
    /// instead of inline or on a private pool. The emitted candidate
    /// sequence is identical either way.
    pub fn with_scheduler(mut self, handle: SchedulerHandle) -> Self {
        self.scheduler = Some(handle);
        self
    }

    /// Attach an externally owned [`SessionControl`] so a consumer can cancel
    /// the run (or impose an absolute deadline) while it is in flight. By
    /// default every session carries a private control nobody else holds.
    pub fn with_control(mut self, control: SessionControl) -> Self {
        self.control = control;
        self
    }

    /// Scheduling priority on a shared pool: the session's share of the
    /// fairness queue's weighted round-robin is `beam_width × weight`
    /// (minimum 1), so an interactive session with weight 16 is granted 16×
    /// the units per rotation of a background session with weight 1. Has no
    /// effect on a private pool (nothing to compete with) and never changes
    /// which candidates are emitted — only when.
    pub fn with_priority_weight(mut self, weight: usize) -> Self {
        self.priority_weight = weight.max(1);
        self
    }

    /// Replace the session's time source. Deadline checks, emission
    /// timestamps and stage timings of runs driven by this session (inline,
    /// or on a private pool the session spins up itself) read this clock —
    /// the deterministic simulation harness passes a
    /// [`SimClock`](crate::SimClock). Runs submitted to a shared scheduler
    /// via [`SynthesisSession::with_scheduler`] or
    /// [`SynthesisSession::spawn_driven`] use the **pool's** clock instead,
    /// so every session multiplexed on one pool observes one time source.
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.clock = clock;
        self
    }

    /// Attach a request [`Trace`]: the engine then records a `rounds` span
    /// and its per-stage verify shares into it for every burst of up to 32
    /// rounds as the run progresses. Tracing rides entirely outside the
    /// emission path — the candidate sequence of a traced run is
    /// byte-identical to an untraced one. Without this call the engine's
    /// tracing branches are all `false` and cost one predictable branch per
    /// burst.
    pub fn with_trace(mut self, trace: Arc<Trace>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The session's configuration.
    pub fn config(&self) -> &DuoquestConfig {
        &self.config
    }

    /// The session's cooperative run control.
    pub fn control(&self) -> &SessionControl {
        &self.control
    }

    /// The session's scheduling priority multiplier (see
    /// [`SynthesisSession::with_priority_weight`]).
    pub fn priority_weight(&self) -> usize {
        self.priority_weight
    }

    /// The shared database the session probes.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared-pool handle this session submits to, if one is attached.
    pub fn scheduler(&self) -> Option<&SchedulerHandle> {
        self.scheduler.as_ref()
    }

    /// The session's inputs, lent to one engine call.
    pub(crate) fn inputs(&self) -> RunInputs<'_> {
        RunInputs {
            db: &self.db,
            nlq: &self.nlq,
            tsq: self.tsq.as_ref(),
            model: self.model.as_ref(),
            config: &self.config,
            control: &self.control,
            clock: self.clock.as_ref(),
            trace: self.trace.as_ref(),
        }
    }

    /// Run to completion and return the ranked candidates. Inline on the
    /// calling thread, or — with a scheduler attached — as a driven session
    /// this call waits for (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if the session itself panicked (a guidance-model or verifier
    /// bug), with the session's panic message — inline by unwinding through
    /// this call, on a pool by rethrowing here what poisoned the session
    /// (the pool survives).
    pub fn run(&self) -> SynthesisResult {
        if self.scheduler.is_none() {
            return synthesize_inline(&self.inputs(), |_| true);
        }
        // No callback to bring candidates to, so no rendezvous: a stream
        // nobody reads, finished.
        self.clone().stream().finish()
    }

    /// Run to completion, observing candidates in emission order. Returning
    /// `false` from the callback stops the enumeration early (the paper's
    /// front end does exactly this when the user clicks "Stop Task").
    ///
    /// The callback always runs on the calling thread. When the run is on a
    /// pool (see [`SynthesisSession::run`]) each candidate crosses to it by
    /// rendezvous — the pool worker that emitted it waits for the verdict —
    /// so `false` cuts the run at the same emission it does inline; in
    /// return the callback must not block on work that needs the same pool.
    ///
    /// # Panics
    ///
    /// Like [`SynthesisSession::run`].
    pub fn run_with<F>(&self, mut on_candidate: F) -> SynthesisResult
    where
        F: FnMut(&Candidate) -> bool,
    {
        let Some(handle) = &self.scheduler else {
            return synthesize_inline(&self.inputs(), on_candidate);
        };
        enum Progress {
            Candidate(Candidate),
            Done(DrivenOutcome),
        }
        let (progress_tx, progress_rx) = mpsc::channel();
        let (verdict_tx, verdict_rx) = mpsc::channel();
        let done_tx = progress_tx.clone();
        self.clone().spawn_driven(
            handle,
            // A caller that is gone (its callback panicked) reads as "stop".
            Box::new(move |candidate: &Candidate| {
                progress_tx.send(Progress::Candidate(candidate.clone())).is_ok()
                    && verdict_rx.recv().unwrap_or(false)
            }),
            Box::new(move |outcome| {
                let _ = done_tx.send(Progress::Done(outcome));
            }),
        );
        loop {
            match progress_rx.recv() {
                Ok(Progress::Candidate(candidate)) => {
                    let _ = verdict_tx.send(on_candidate(&candidate));
                }
                Ok(Progress::Done(outcome)) => return expect_finished(Some(outcome)),
                Err(_) => return expect_finished(None),
            }
        }
    }

    /// Hand the session to a scheduler pool to be **driven entirely by pool
    /// workers** — no per-session OS thread is created. The pool resumes the
    /// session's round-loop state machine a burst of rounds at a time;
    /// `on_candidate` observes each candidate in emission order
    /// (return `false` to stop the run early) and `on_complete` receives the
    /// session's [`DrivenOutcome`] — the final ranked result, or
    /// [`DrivenOutcome::Poisoned`] (carrying the panic message when one could
    /// be extracted) if the session panicked (a guidance model or verifier
    /// bug), which poisons that session alone.
    ///
    /// Both callbacks run on pool worker threads, so they must be `Send`,
    /// should stay cheap (push to a channel, update counters) and must not
    /// block on work that needs the same pool. One exception:
    /// if the pool has already shut down when `spawn_driven` is called, the
    /// session is resolved immediately as cancelled and `on_complete` runs
    /// synchronously on the **calling** thread — don't hold a lock (or block
    /// on a response the calling thread must produce) across this call from
    /// inside `on_complete`. This is the primitive under
    /// [`SynthesisSession::stream`], the blocking calls on a pool and the
    /// serving layer's request lifecycle; capacity for driven sessions is
    /// bounded by memory, not thread count. Any scheduler handle attached via
    /// [`SynthesisSession::with_scheduler`] is ignored in favour of `handle`,
    /// and the run reads the pool's clock.
    pub fn spawn_driven(
        mut self,
        handle: &SchedulerHandle,
        on_candidate: Box<dyn FnMut(&Candidate) -> bool + Send>,
        on_complete: Box<dyn FnOnce(DrivenOutcome) + Send>,
    ) {
        self.scheduler = None;
        self.clock = handle.clock();
        spawn_driven_session(handle, self, on_candidate, on_complete);
    }

    /// Stream candidates as they survive verification, **without spawning a
    /// per-session thread**: the session is handed to its attached
    /// [`SessionScheduler`] (or, absent one, to a one-worker pool owned by
    /// the stream, on the session's clock) and driven by pool workers.
    /// Dropping the stream before the run has resolved (or calling
    /// [`CandidateStream::stop`]) **cancels** the session — the engine stops
    /// at its next cooperative check — so an abandoned consumer never leaks
    /// enumeration work. Call [`CandidateStream::finish`] for the final
    /// ranked result.
    pub fn stream(self) -> CandidateStream {
        let control = self.control.clone();
        let (handle, pool) = match &self.scheduler {
            Some(handle) => (handle.clone(), None),
            None => {
                let pool = SessionScheduler::new_with_clock(1, Arc::clone(&self.clock));
                (pool.handle(), Some(pool))
            }
        };
        let stop_control = self.control.clone();
        let (cand_tx, cand_rx) = mpsc::channel();
        let (result_tx, result_rx) = mpsc::channel();
        self.spawn_driven(
            &handle,
            Box::new(move |candidate: &Candidate| {
                if stop_control.is_cancelled() {
                    return false;
                }
                // A dropped receiver reads as "stop": the send fails and
                // the engine winds down.
                cand_tx.send(candidate.clone()).is_ok()
            }),
            Box::new(move |outcome| {
                let _ = result_tx.send(outcome);
            }),
        );
        CandidateStream {
            rx: cand_rx,
            result: result_rx,
            outcome: RefCell::new(None),
            resolved: Cell::new(false),
            control,
            _pool: pool,
        }
    }
}

/// The result of a driven session that has resolved; a poisoned one (or one
/// whose pool dropped it unresolved, `None`) panics on the calling thread —
/// the driven-session analogue of joining a panicked thread.
fn expect_finished(outcome: Option<DrivenOutcome>) -> SynthesisResult {
    match outcome {
        Some(DrivenOutcome::Finished(result)) => result,
        Some(DrivenOutcome::Poisoned(Some(message))) => {
            panic!("synthesis session panicked: {message}")
        }
        _ => panic!("synthesis session panicked"),
    }
}

/// A live candidate stream backed by a **scheduler-driven session** — pool
/// workers resume the session's round loop; no OS thread exists for the
/// session itself.
///
/// Iterate to receive candidates in emission order while the enumeration is
/// still running; call [`CandidateStream::finish`] for the final,
/// confidence-ranked [`SynthesisResult`] (which includes the run's
/// [`crate::EnumerationStats`]).
///
/// **Dropping an unfinished stream cancels the work**: the session's
/// [`SessionControl`] token fires and the run winds down at its next
/// cooperative check, so the pool goes idle instead of grinding through
/// enumeration nobody is consuming. A stream whose run has resolved — [`CandidateStream::finish`]
/// returned, or the completion was seen by [`CandidateStream::is_finished`]
/// — leaves the token alone, so a [`SessionControl`] attached with
/// [`SynthesisSession::with_control`] can be reused for the next run.
pub struct CandidateStream {
    rx: Receiver<Candidate>,
    result: Receiver<DrivenOutcome>,
    /// The completion, once it has arrived and until `finish` takes it.
    outcome: RefCell<Option<DrivenOutcome>>,
    /// Whether the run has resolved (completed, or poisoned, or was dropped
    /// by its pool): nothing is left to cancel.
    resolved: Cell<bool>,
    control: SessionControl,
    /// The private pool driving a session that had no shared scheduler
    /// attached, kept alive for the stream's lifetime (`None` when the
    /// session rides a shared pool).
    _pool: Option<SessionScheduler>,
}

impl CandidateStream {
    /// Ask the session to stop: fires its cancellation token. Idempotent.
    pub fn stop(&self) {
        self.control.cancel();
    }

    /// Non-blockingly pull the completion, if it has arrived.
    fn poll_result(&self) {
        if self.resolved.get() {
            return;
        }
        match self.result.try_recv() {
            Ok(outcome) => *self.outcome.borrow_mut() = Some(outcome),
            // A disconnect without a value can only follow a teardown race;
            // it resolves the stream as poisoned.
            Err(TryRecvError::Disconnected) => {}
            Err(TryRecvError::Empty) => return,
        }
        self.resolved.set(true);
    }

    /// Whether the enumeration has finished.
    pub fn is_finished(&self) -> bool {
        self.poll_result();
        self.resolved.get()
    }

    /// Receive the next candidate, waiting up to `timeout`. `None` on timeout
    /// or when the stream has ended.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<Candidate> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Wait for the session to complete and return the final ranked result.
    /// Any undrained candidates are still reflected in the result's list.
    ///
    /// # Panics
    ///
    /// Panics if the session itself panicked (a guidance-model or verifier
    /// bug) — the driven-session analogue of joining a panicked thread.
    pub fn finish(self) -> SynthesisResult {
        self.poll_result();
        if !self.resolved.get() {
            *self.outcome.borrow_mut() = self.result.recv().ok();
            self.resolved.set(true);
        }
        let outcome = self.outcome.borrow_mut().take();
        expect_finished(outcome)
    }
}

impl Drop for CandidateStream {
    /// Dropping the stream cancels a session that has not resolved (see the
    /// struct docs). A session on a shared pool winds down on its own at its
    /// next cooperative check, so dropping does not wait for it; a stream
    /// that owns a private pool joins that pool's worker (quick, as the
    /// cancellation cuts the round in flight short).
    fn drop(&mut self) {
        self.poll_result();
        if !self.resolved.get() {
            self.stop();
        }
    }
}

impl Iterator for CandidateStream {
    type Item = Candidate;

    /// Blocks until the next candidate is emitted; `None` once the
    /// enumeration has completed (or was stopped).
    fn next(&mut self) -> Option<Candidate> {
        self.rx.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsq::TsqCell;
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
    fn session_run_matches_engine_results() {
        let (db, nlq, model, gold) = fixture();
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let session = SynthesisSession::new(Arc::clone(&db), nlq, model)
            .with_tsq(tsq)
            .with_config(DuoquestConfig::fast());
        let result = session.run();
        assert_eq!(result.rank_of(&gold), Some(1));
        assert!(result.stats.emitted > 0);
    }

    #[test]
    fn streaming_yields_first_candidate_before_completion() {
        let (db, nlq, model, _gold) = fixture();
        // A generous candidate budget keeps the search running well past the
        // first emission.
        let mut config = DuoquestConfig::fast();
        config.max_candidates = 200;
        config.max_expansions = 100_000;
        let session = SynthesisSession::new(db, nlq, model).with_config(config);
        let mut stream = session.stream();
        let first = stream.next_timeout(Duration::from_secs(30));
        assert!(first.is_some(), "no candidate streamed");
        // The candidate arrived while the enumeration was still running (or
        // at worst just wound down); the final result must contain strictly
        // more candidates than the one we consumed, proving emission happened
        // incrementally rather than at completion.
        let result = stream.finish();
        assert!(
            result.candidates.len() > 1,
            "stream should keep producing after the first candidate"
        );
        // Emission counts duplicates later folded by canonical dedup.
        assert!(result.stats.emitted >= result.candidates.len());
    }

    #[test]
    fn dropping_the_stream_stops_the_session() {
        let (db, nlq, model, _gold) = fixture();
        let mut config = DuoquestConfig::fast();
        config.max_candidates = 10_000;
        config.max_expansions = 1_000_000;
        config.time_budget = Some(Duration::from_secs(60));
        let session = SynthesisSession::new(db, nlq, model).with_config(config);
        let mut stream = session.stream();
        let _ = stream.next();
        stream.stop();
        let result = stream.finish();
        // Stopping early: far fewer candidates than the budget allows.
        assert!(result.candidates.len() < 10_000);
    }

    #[test]
    fn streamed_session_yields_the_same_set_as_an_inline_run() {
        let (db, nlq, model, _gold) = fixture();
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = 30;
        let sequential = SynthesisSession::new(Arc::clone(&db), nlq.clone(), Arc::clone(&model))
            .with_config(config.clone())
            .run();
        let streamed = SynthesisSession::new(db, nlq, model).with_config(config).stream().finish();
        let render = |r: &SynthesisResult| {
            r.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect::<Vec<_>>()
        };
        assert_eq!(render(&sequential), render(&streamed));
    }
}
