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
//! * [`SynthesisSession::stream`] — a [`CandidateStream`] the consumer
//!   **pulls**: each `next()` runs rounds until a candidate survives
//!   verification, so the first candidate is in hand long before the run
//!   completes — what the paper's interactive front end needs for its
//!   "results appear as they are found" interface;
//! * [`SynthesisSession::spawn_driven`] — register the session with a
//!   [`SessionScheduler`](crate::SessionScheduler) whose workers resume its
//!   round-loop state machine a burst of rounds at a time, delivering
//!   candidates and the final result through callbacks. No OS thread exists
//!   per session; the service layer serves every request this way.
//!
//! There are two places a run can stand. **Inline**: `run`, `run_with` and
//! `stream` run the search on the calling thread — no pool, no queue, no
//! other thread, the paper's Algorithm 1 as written. **On a pool**:
//! `spawn_driven` parks the session in a pool. A pool's worker count is how
//! many *sessions* advance at once; a session's rounds run one after another
//! on whichever worker holds it.
//!
//! A pulled stream differs from a run on a pool in three ways, all of them
//! because it runs where its consumer stands:
//!
//! * a panic in the run (a guidance-model or verifier bug) unwinds out of
//!   [`CandidateStream::next`] or [`CandidateStream::finish`] on the
//!   caller's thread, as it does out of `run`;
//! * a `time_budget` is wall-clock from [`SynthesisSession::stream`], so it
//!   counts the time the consumer spends between pulls;
//! * its result's `stats.scheduler` is `None`.
//!
//! Absent a wall-clock `time_budget`, the emitted candidate set and order
//! depend only on the configuration (budgets, pruning flags), never on where
//! the run stands; a time budget is the one intentionally non-deterministic
//! cut-off. See the determinism notes in `crate::enumerate`.

use crate::clock::{system_clock, SharedClock};
use crate::config::DuoquestConfig;
use crate::engine::{Candidate, CandidateCollector, SynthesisResult};
use crate::enumerate::{Advance, RoundDriver, RunInputs, RunPlan};
use crate::scheduler::{spawn_driven_session, DrivenOutcome, SchedulerHandle, SchedulerRunStats};
use crate::tsq::TableSketchQuery;
use duoquest_db::Database;
use duoquest_nlq::{GuidanceModel, Nlq};
use duoquest_obs::Trace;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative controls for one synthesis run: a shared **cancellation
/// token** plus an optional absolute **deadline**.
///
/// The engine checks both at every round boundary and between a round's
/// verification jobs, so a cancellation or a deadline takes effect mid-round
/// without waiting for the round to drain. A cancelled session parked on a
/// pool winds down when a worker next resumes it: its first check sees the
/// token.
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
    control: SessionControl,
    priority_weight: usize,
    clock: SharedClock,
    trace: Option<Arc<Trace>>,
}

impl SynthesisSession {
    /// Create a session with the default configuration and no TSQ. Its runs
    /// stand on the calling thread; [`SynthesisSession::spawn_driven`] hands
    /// it to a pool instead.
    pub fn new(db: Arc<Database>, nlq: Nlq, model: Arc<dyn GuidanceModel>) -> Self {
        SynthesisSession {
            db,
            nlq,
            tsq: None,
            model,
            config: DuoquestConfig::default(),
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

    /// Attach an externally owned [`SessionControl`] so a consumer can cancel
    /// the run (or impose an absolute deadline) while it is in flight. By
    /// default every session carries a private control nobody else holds.
    pub fn with_control(mut self, control: SessionControl) -> Self {
        self.control = control;
        self
    }

    /// Scheduling priority on a pool: the session's share of the fairness
    /// queue's weighted round-robin is `weight` (minimum 1), so an
    /// interactive session with weight 16 is granted 16× the units per
    /// rotation of a background session with weight 1. Read only by
    /// [`SynthesisSession::spawn_driven`] (a run on the calling thread has
    /// nothing to compete with) and never changes which candidates are
    /// emitted — only when.
    pub fn with_priority_weight(mut self, weight: usize) -> Self {
        self.priority_weight = weight.max(1);
        self
    }

    /// Replace the session's time source. Deadline checks, emission
    /// timestamps and stage timings of the runs this session makes on the
    /// calling thread (`run`, `run_with`, `stream`) read this clock — the
    /// deterministic simulation harness passes a
    /// [`SimClock`](crate::SimClock). A run handed to a pool with
    /// [`SynthesisSession::spawn_driven`] uses the **pool's** clock instead,
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

    /// The session's scheduling priority multiplier (see
    /// [`SynthesisSession::with_priority_weight`]).
    pub fn priority_weight(&self) -> usize {
        self.priority_weight
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

    /// Run to completion on the calling thread and return the ranked
    /// candidates.
    ///
    /// # Panics
    ///
    /// Panics if the session itself panicked (a guidance-model or verifier
    /// bug): the panic unwinds through this call.
    pub fn run(&self) -> SynthesisResult {
        self.run_with(|_| true)
    }

    /// Run to completion on the calling thread, observing candidates in
    /// emission order. Returning `false` from the callback stops the
    /// enumeration early (the paper's front end does exactly this when the
    /// user clicks "Stop Task").
    ///
    /// # Panics
    ///
    /// Like [`SynthesisSession::run`].
    pub fn run_with<F>(&self, mut on_candidate: F) -> SynthesisResult
    where
        F: FnMut(&Candidate) -> bool,
    {
        SessionRun::new(self.clone(), RoundDriver::new()).run_to_end(&mut on_candidate)
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
    /// inside `on_complete`. This is the one way onto a pool, and what the
    /// serving layer's request lifecycle is built on; capacity for driven
    /// sessions is bounded by memory, not thread count. The run reads the
    /// pool's clock.
    pub fn spawn_driven(
        mut self,
        handle: &SchedulerHandle,
        on_candidate: Box<dyn FnMut(&Candidate) -> bool + Send>,
        on_complete: Box<dyn FnOnce(DrivenOutcome) + Send>,
    ) {
        self.clock = handle.clock();
        spawn_driven_session(handle, self, on_candidate, on_complete);
    }

    /// Stream candidates as they survive verification, on the calling
    /// thread: the returned [`CandidateStream`] runs no round until it is
    /// pulled, and each pull runs rounds until a candidate is in hand (see
    /// the [module docs](self) for what this means for panics, time budgets
    /// and `stats.scheduler`). Call [`CandidateStream::finish`] for the
    /// final ranked result.
    pub fn stream(self) -> CandidateStream {
        CandidateStream { run: SessionRun::new(self, RoundDriver::new()), pending: VecDeque::new() }
    }
}

/// One run of an owned session: the session (its inputs are lent to the
/// engine call by call), the plan compiled from it, its round driver and its
/// dedup/rank collector. It borrows nothing, so it waits wherever it is held
/// — in a [`CandidateStream`] between two pulls, in a scheduler slot between
/// two resumes — and is advanced by whoever holds it.
pub(crate) struct SessionRun {
    session: SynthesisSession,
    plan: RunPlan,
    driver: RoundDriver,
    collector: CandidateCollector,
}

impl SessionRun {
    /// `session`'s run at its root, its plan compiled now. `driver` is
    /// [`RoundDriver::new`], built [`RoundDriver::on_pool`] for a run a pool
    /// serves.
    pub(crate) fn new(session: SynthesisSession, driver: RoundDriver) -> Self {
        let plan = RunPlan::new(&session.inputs());
        SessionRun { session, plan, driver, collector: CandidateCollector::new() }
    }

    /// One burst of rounds ([`RoundDriver::advance`]): every fresh candidate
    /// is offered to `on_candidate`, whose `false` stops the run.
    pub(crate) fn advance(&mut self, on_candidate: &mut dyn FnMut(&Candidate) -> bool) -> Advance {
        let SessionRun { session, plan, driver, collector } = self;
        driver.advance(plan, &session.inputs(), &mut |spec, confidence, emitted_at| {
            collector.offer(spec, confidence, emitted_at, on_candidate)
        })
    }

    /// Advance the run until it is over and return its ranked result: a
    /// blocking run's whole life, and what is left of a pulled stream's.
    fn run_to_end(mut self, on_candidate: &mut dyn FnMut(&Candidate) -> bool) -> SynthesisResult {
        while let Advance::Yield = self.advance(on_candidate) {}
        self.finish(false)
    }

    /// The ranked result of a run that is over. `force_cancelled` marks runs
    /// wound down by a scheduler shutdown that never reached a cooperative
    /// check. Leaves the frontier in place: a pool worker hands the result
    /// on first and drops the queued states afterwards.
    pub(crate) fn finish(&mut self, force_cancelled: bool) -> SynthesisResult {
        let mut stats = self.driver.take_stats(&self.plan, &self.session.inputs());
        stats.cancelled |= force_cancelled;
        std::mem::take(&mut self.collector).finish(stats)
    }

    /// The pool observations of a run a pool serves (see
    /// [`RoundDriver::pool_stats`]).
    pub(crate) fn pool_stats(&mut self) -> &mut SchedulerRunStats {
        self.driver.pool_stats()
    }

    /// The session's request trace, if it is traced.
    pub(crate) fn trace(&self) -> Option<&Arc<Trace>> {
        self.session.trace.as_ref()
    }
}

/// A live candidate stream: a session's run that the consumer **pulls** on
/// its own thread, like any other iterator.
///
/// Iterate to receive candidates in emission order while the enumeration is
/// still going on — each `next()` runs bursts of up to 32 rounds until one
/// emits, and returns `None` once the run is over; call
/// [`CandidateStream::finish`] for the final, confidence-ranked
/// [`SynthesisResult`] (which includes the run's
/// [`crate::EnumerationStats`]).
///
/// Nothing runs between pulls, so dropping a stream leaves no work behind
/// and fires no token: a [`SessionControl`] attached with
/// [`SynthesisSession::with_control`] can be reused for the next run.
pub struct CandidateStream {
    run: SessionRun,
    /// Candidates the last burst emitted after the one `next` returned.
    pending: VecDeque<Candidate>,
}

impl CandidateStream {
    /// Ask the session to stop: fires its cancellation token, so the next
    /// pull ends the run. Idempotent. The stream is `Send` but not `Sync`,
    /// so this is a call from the thread that holds it; another thread stops
    /// the run through a clone of the session's control
    /// ([`SessionControl::cancel`]).
    pub fn stop(&self) {
        self.run.session.control.cancel();
    }

    /// Run what is left of the enumeration and return the final ranked
    /// result. Candidates never pulled are still in the result's list.
    ///
    /// # Panics
    ///
    /// Panics if the session itself panicked (a guidance-model or verifier
    /// bug): the panic unwinds through this call.
    pub fn finish(self) -> SynthesisResult {
        self.run.run_to_end(&mut |_| true)
    }
}

impl Iterator for CandidateStream {
    type Item = Candidate;

    /// Runs rounds until the next candidate is emitted; `None` once the
    /// enumeration has completed (or was stopped).
    ///
    /// # Panics
    ///
    /// Like [`CandidateStream::finish`].
    fn next(&mut self) -> Option<Candidate> {
        let CandidateStream { run, pending } = self;
        while pending.is_empty() {
            let exit = run.advance(&mut |candidate| {
                pending.push_back(candidate.clone());
                true
            });
            if let Advance::Done = exit {
                break;
            }
        }
        pending.pop_front()
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

    /// A candidate budget of 0 is spent before the first pop: nothing is
    /// delivered, emitted or expanded, however the run is consumed.
    #[test]
    fn a_zero_candidate_budget_delivers_nothing() {
        let (db, nlq, model, _gold) = fixture();
        let mut config = DuoquestConfig::fast();
        config.max_candidates = 0;
        let session = SynthesisSession::new(db, nlq, model).with_config(config);
        let mut delivered = 0;
        let result = session.run_with(|_| {
            delivered += 1;
            true
        });
        assert_eq!(delivered, 0);
        assert!(result.candidates.is_empty());
        assert_eq!((result.stats.emitted, result.stats.expanded), (0, 0));
        let mut stream = session.stream();
        assert!(stream.next().is_none());
        assert_eq!(stream.finish().stats.expanded, 0);
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
        let first = stream.next();
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
