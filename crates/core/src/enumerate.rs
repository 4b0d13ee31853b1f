//! Guided partial query enumeration (GPQE, paper Algorithm 1), restructured
//! as a round-based engine with a parallel verification fan-out.
//!
//! The enumerator maintains a priority queue of [`EnumState`]s ordered by
//! confidence (the product of per-decision scores, paper §3.3.3). Each
//! **round** pops a beam of the `config.beam_width` highest-confidence states,
//! produces their candidate children (`enum_next_step`, following the module
//! order of Table 3), and fans the expensive part — progressive join path
//! construction plus the ascending-cost verification cascade — out across
//! `config.workers` threads. Survivors are merged back into the queue and
//! complete queries are emitted **in the original child order**, so for a
//! fixed configuration the emitted candidate sequence is deterministic and,
//! with `beam_width = 1`, bit-identical to the sequential Algorithm 1
//! exploration regardless of the worker count. The one exception is a
//! wall-clock `time_budget`: where the deadline cuts the search depends on
//! machine speed (and, under a pool, chunking), so budget-limited runs can
//! differ across worker counts.
//!
//! Verification probes run through the database's probe/result memo cache
//! (`Database::execute_cached`), column-wise ones once per distinct question
//! (the run's [`VerifyPlan`] answers the repeats); the per-run hit/miss
//! counters and the per-stage cascade timings are surfaced in
//! [`EnumerationStats`].

use crate::clock::{Clock, SYSTEM_CLOCK};
use crate::config::{DuoquestConfig, EmissionPolicy};
use crate::joinpath::{JoinPathMemo, JoinPlanner};
use crate::session::SessionControl;
use crate::state::EnumState;
use crate::tsq::TableSketchQuery;
use crate::verify::{StageTimings, Verifier, VerifyOutcome, VerifyPlan, VerifyStage};
use duoquest_db::{
    AggFunc, CmpOp, DataType, Database, JoinTree, LogicalOp, OrderKey, RunCacheCounters,
    SelectSpec, Value,
};
use duoquest_nlq::{
    Choice, GuidanceContext, GuidanceModel, GuidancePlan, HavingChoice, LiteralKind, Nlq,
    OrderChoice,
};
use duoquest_obs::{RawSpan, Trace};
use duoquest_sql::{
    ClauseSet, PartialHaving, PartialOrder, PartialPredicate, PartialQuery, PartialSelectItem,
    SelectColumn, Slot,
};
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters describing one enumeration run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnumerationStats {
    /// States popped from the priority queue.
    pub expanded: usize,
    /// Child states generated (before verification).
    pub generated: usize,
    /// Child states pruned per verification stage.
    pub pruned_clauses: usize,
    /// Pruned by the semantic rules.
    pub pruned_semantics: usize,
    /// Pruned by projected-type checks.
    pub pruned_types: usize,
    /// Pruned by column-wise probes.
    pub pruned_by_column: usize,
    /// Pruned by row-wise probes.
    pub pruned_by_row: usize,
    /// Complete queries rejected by the literal-usage check.
    pub pruned_literals: usize,
    /// Complete queries rejected by the order check.
    pub pruned_by_order: usize,
    /// Candidate queries emitted.
    pub emitted: usize,
    /// Synthesis rounds executed (beam pops).
    pub rounds: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Whether the search space was exhausted before hitting any budget.
    pub exhausted: bool,
    /// The run was stopped by its [`crate::SessionControl`] cancellation
    /// token (a dropped consumer, an explicit cancel, or service shutdown).
    pub cancelled: bool,
    /// The run hit a wall-clock deadline — the configuration's `time_budget`
    /// or an external [`crate::SessionControl`] deadline — and returned the
    /// best candidates found so far.
    pub deadline_exceeded: bool,
    /// Per-stage wall-clock time and call counts of the verification cascade.
    pub stage_timings: StageTimings,
    /// Probe-cache hits during this run. A run looks a column-wise question
    /// up once (its [`VerifyPlan`] holds the verdict afterwards), so hits are
    /// row-wise and order probes that repeat, and first touches that another
    /// run on the same database already executed.
    pub cache_hits: u64,
    /// Probe-cache misses during this run: the probes it executed.
    pub cache_misses: u64,
    /// Estimated bytes retained by the probe cache at the end of the run.
    pub cache_bytes: u64,
    /// Executor rows scanned by this run's probe executions (base-table rows
    /// pulled plus join rows produced; cache hits scan nothing).
    pub rows_scanned: u64,
    /// Probe-side rows the streaming executor never pulled because a limit
    /// was already satisfied — the observable win of limit pushdown.
    pub rows_short_circuited: u64,
    /// Secondary-index lookups performed by this run's probe executions
    /// (candidate computations, INLJ probes, ordered-scan setups).
    pub index_lookups: u64,
    /// Rows that entered probe pipelines through an index access path —
    /// the observable win of index-backed execution.
    pub rows_via_index: u64,
    /// Probe executions cut short because the planner or a join step proved
    /// the remaining work empty.
    pub probes_bailed_empty: u64,
    /// Probe-cache misses this run resolved by waiting on another session's
    /// identical in-flight probe instead of executing it again (single-flight
    /// collapsing on a shared database).
    pub single_flight_hits: u64,
    /// Probe-cache misses for which this run was elected the single-flight
    /// leader (it executed the probe and fanned the result out).
    pub single_flight_leaders: u64,
    /// Microseconds this run's probes spent parked waiting on another
    /// session's single-flight leader (wall-clock, observational).
    pub single_flight_wait_us: u64,
    /// Shared-pool observations, when the run was served by a
    /// [`crate::scheduler::SessionScheduler`] (`None` for runs on a private
    /// scoped pool or inline execution).
    pub scheduler: Option<crate::scheduler::SchedulerRunStats>,
}

impl EnumerationStats {
    /// Total number of pruned states.
    pub fn total_pruned(&self) -> usize {
        self.pruned_clauses
            + self.pruned_semantics
            + self.pruned_types
            + self.pruned_by_column
            + self.pruned_by_row
            + self.pruned_literals
            + self.pruned_by_order
    }

    /// Share of this run's probe-cache lookups answered without executing,
    /// in `[0, 1]` — of the lookups that reached the cache, which repeats of
    /// a column-wise question never do.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Render the stats as a JSON object for scraping, hand-rolled because
    /// the vendored `serde` derives are no-ops. Durations are integer
    /// microseconds (`*_us`); the `scheduler` member is `null` for runs that
    /// did not go through a shared pool.
    pub fn to_json(&self) -> String {
        let scheduler =
            self.scheduler.as_ref().map(|s| s.to_json()).unwrap_or_else(|| "null".into());
        format!(
            "{{\"expanded\":{},\"generated\":{},\"pruned_clauses\":{},\"pruned_semantics\":{},\
             \"pruned_types\":{},\"pruned_by_column\":{},\"pruned_by_row\":{},\
             \"pruned_literals\":{},\"pruned_by_order\":{},\"emitted\":{},\"rounds\":{},\
             \"elapsed_us\":{},\"exhausted\":{},\"cancelled\":{},\"deadline_exceeded\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_bytes\":{},\"rows_scanned\":{},\
             \"rows_short_circuited\":{},\"index_lookups\":{},\"rows_via_index\":{},\
             \"probes_bailed_empty\":{},\"single_flight_hits\":{},\
             \"single_flight_leaders\":{},\"single_flight_wait_us\":{},\
             \"stage_timings\":{},\"scheduler\":{}}}",
            self.expanded,
            self.generated,
            self.pruned_clauses,
            self.pruned_semantics,
            self.pruned_types,
            self.pruned_by_column,
            self.pruned_by_row,
            self.pruned_literals,
            self.pruned_by_order,
            self.emitted,
            self.rounds,
            self.elapsed.as_micros(),
            self.exhausted,
            self.cancelled,
            self.deadline_exceeded,
            self.cache_hits,
            self.cache_misses,
            self.cache_bytes,
            self.rows_scanned,
            self.rows_short_circuited,
            self.index_lookups,
            self.rows_via_index,
            self.probes_bailed_empty,
            self.single_flight_hits,
            self.single_flight_leaders,
            self.single_flight_wait_us,
            self.stage_timings.to_json(),
            scheduler,
        )
    }

    /// Fold a run's probe counters (and the database's retained cache bytes)
    /// into the stats: the end-of-run epilogue of every way to run a session.
    pub(crate) fn record_probe_counters(&mut self, counters: &RunCacheCounters, db: &Database) {
        (self.cache_hits, self.cache_misses) = counters.snapshot();
        self.cache_bytes = db.cache_stats().bytes;
        (self.rows_scanned, self.rows_short_circuited) = counters.scan_snapshot();
        (self.index_lookups, self.rows_via_index, self.probes_bailed_empty) =
            counters.index_snapshot();
        (self.single_flight_hits, self.single_flight_leaders, self.single_flight_wait_us) =
            counters.single_flight_snapshot();
    }

    fn record(&mut self, stage: VerifyStage, count: usize) {
        match stage {
            VerifyStage::Clauses => self.pruned_clauses += count,
            VerifyStage::Semantics => self.pruned_semantics += count,
            VerifyStage::ColumnTypes => self.pruned_types += count,
            VerifyStage::ByColumn => self.pruned_by_column += count,
            VerifyStage::ByRow => self.pruned_by_row += count,
            VerifyStage::Literals => self.pruned_literals += count,
            VerifyStage::ByOrder => self.pruned_by_order += count,
        }
    }
}

/// Run GPQE. `on_candidate` receives every emitted candidate (its partial query
/// lowered to an executable spec, its confidence and the time of emission) and
/// returns `false` to stop the enumeration early.
///
/// Parallelism and beam width come from the configuration; the default
/// (`beam_width = 1`, `workers = 1`) reproduces the sequential Algorithm 1
/// exploration exactly.
pub fn enumerate<F>(
    db: &Database,
    nlq: &Nlq,
    model: &dyn GuidanceModel,
    tsq: Option<&TableSketchQuery>,
    config: &DuoquestConfig,
    mut on_candidate: F,
) -> EnumerationStats
where
    F: FnMut(SelectSpec, f64, Duration) -> bool,
{
    run_rounds(
        db,
        nlq,
        model,
        tsq,
        config,
        &SessionControl::new(),
        &SYSTEM_CLOCK,
        None,
        &mut on_candidate,
    )
}

/// The earlier of two optional deadlines.
pub(crate) fn min_deadline(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// Everything a verification worker needs, shared by reference across the
/// pool (all fields are `Sync`; the database's probe cache handles its own
/// synchronization).
#[derive(Clone, Copy)]
pub(crate) struct RoundEnv<'a> {
    /// The run's join path construction (every chunk opens a memo over it).
    pub(crate) joins: &'a JoinPlanner,
    /// The run's verifier: its counter set and its [`crate::verify::VerifyPlan`]
    /// are the run's, whichever work unit built this instance.
    pub(crate) verifier: &'a Verifier<'a>,
    pub(crate) deadline: Option<Instant>,
    /// The session's time source; deadline checks inside chunks read this
    /// (virtual under the simulation harness, real otherwise).
    pub(crate) clock: &'a dyn Clock,
    /// The session's cancellation token, checked between chunk jobs so a
    /// cancel takes effect mid-round.
    pub(crate) cancel: &'a AtomicBool,
    /// Whether the session carries a request trace: chunk workers then
    /// record chunk spans into their local [`ChunkResult::spans`] buffer
    /// (merged deterministically by the driver). `false` costs one branch
    /// per chunk and nothing else.
    pub(crate) trace: bool,
}

/// One unit of parallel work: a freshly generated child with its confidence
/// and the beam position of its parent.
pub(crate) struct ChildJob {
    pub(crate) beam_idx: usize,
    pub(crate) confidence: f64,
    pub(crate) pq: PartialQuery,
}

/// The merged product of one worker's chunk, in original job order.
#[derive(Default)]
pub(crate) struct ChunkResult {
    /// Number of jobs this chunk was given. The any-k dominance gate uses it
    /// to advance its merged-jobs cursor into the round's suffix-maximum
    /// table; fabricated results (cancel reaping) leave it `0`, which merely
    /// makes the gate stricter — never unsound.
    pub(crate) jobs: usize,
    pub(crate) generated: usize,
    pub(crate) prunes: [usize; VerifyStage::COUNT],
    pub(crate) timings: StageTimings,
    /// Complete queries that survived the full cascade, in child order.
    pub(crate) emissions: Vec<(SelectSpec, f64)>,
    /// Partial queries to push back onto the frontier, in child order.
    pub(crate) survivors: Vec<(PartialQuery, f64, usize)>,
    /// The worker hit the wall-clock deadline and skipped its remaining jobs.
    pub(crate) timed_out: bool,
    /// The worker observed the session's cancellation token and bailed.
    pub(crate) cancelled: bool,
    /// Chunk-local trace spans (absolute instants), recorded without any
    /// shared state and merged into the session's [`Trace`] by the driver
    /// **in child order** — what keeps trace content reproducible under a
    /// simulated clock regardless of which worker ran the chunk. Empty when
    /// tracing is off.
    pub(crate) spans: Vec<RawSpan>,
    /// Microseconds this chunk's probes spent parked on single-flight waits
    /// (delta of the shared run counters across the chunk — attribution is
    /// approximate when chunks run concurrently; observational only).
    /// Recorded only when tracing is on; the driver synthesizes a
    /// `probe_wait` span from it.
    pub(crate) probe_wait_us: u64,
}

/// Fan-out threshold below which spawning workers costs more than it saves.
pub(crate) const MIN_PARALLEL_JOBS: usize = 8;

/// The round-based engine behind [`enumerate`] and (through a private pool)
/// the streaming [`crate::session::SynthesisSession`]. Runs the shared round
/// loop ([`drive_rounds`]) over a run-scoped worker pool.
///
/// Sessions attached to a shared [`crate::scheduler::SessionScheduler`] use
/// `crate::scheduler::run_rounds_scheduled` instead, which drives the same
/// loop but dispatches phase-2 chunks to the scheduler's long-lived pool.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_rounds(
    db: &Database,
    nlq: &Nlq,
    model: &dyn GuidanceModel,
    tsq: Option<&TableSketchQuery>,
    config: &DuoquestConfig,
    control: &SessionControl,
    clock: &dyn Clock,
    trace: Option<Arc<Trace>>,
    on_candidate: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
) -> EnumerationStats {
    let start = clock.now();
    let mut stats = EnumerationStats::default();
    let joins = JoinPlanner::new(db, config.join_extension_depth);

    // Partial queries are only verified when partial pruning is enabled; complete
    // queries always get the full cascade (this is what makes NoPQ equivalent to
    // the naive chaining approach of paper §3.5).
    let verifier = Verifier::new(db, tsq, &nlq.literals, config.semantic_rules)
        .with_prune_partial(config.prune_partial)
        .with_plan(Arc::new(VerifyPlan::new(db, tsq)))
        .with_clock(clock);
    let env = RoundEnv {
        joins: &joins,
        verifier: &verifier,
        deadline: min_deadline(config.time_budget.map(|budget| start + budget), control.deadline()),
        cancel: control.flag_ref(),
        clock,
        trace: trace.is_some(),
    };

    let workers = config.effective_workers();

    // The worker pool lives for the whole run (scoped threads fed per round
    // over channels), so rounds don't pay a spawn/join cycle each.
    std::thread::scope(|scope| {
        let pool = WorkerPool::start(scope, workers, &env);
        let mut dispatcher = PoolDispatcher { pool: pool.as_ref(), env: &env };
        drive_rounds(
            db,
            nlq,
            model,
            config,
            env.deadline,
            env.cancel,
            start,
            clock,
            trace,
            &mut stats,
            on_candidate,
            &mut dispatcher,
        );
    });

    stats.elapsed = clock.now().saturating_duration_since(start);
    // Per-run counters owned by this run's verifier: concurrent sessions on
    // the same shared database can't pollute each other's statistics.
    stats.record_probe_counters(verifier.counters(), db);
    stats
}

/// The borrows one [`RoundDriver::step`] needs: the session's inputs, which
/// the driver itself never owns — so the driver can be parked anywhere (a
/// blocked caller's stack, a scheduler slot) and resumed by whichever thread
/// holds the session's resources.
pub(crate) struct StepEnv<'a> {
    pub(crate) db: &'a Database,
    pub(crate) nlq: &'a Nlq,
    pub(crate) model: &'a dyn GuidanceModel,
    pub(crate) config: &'a DuoquestConfig,
    /// The session's cancellation token, checked at every round boundary —
    /// i.e. *between* `step()` calls, not only inside chunks.
    pub(crate) cancel: &'a AtomicBool,
    /// The session's time source: round-boundary deadline checks and
    /// emission timestamps read this instead of the real clock.
    pub(crate) clock: &'a dyn Clock,
}

/// Where a resumable round loop stands after one [`RoundDriver::step`].
// Transient return value, consumed immediately — boxing `Emit` would cost an
// allocation per candidate for no retained-memory win.
#[allow(clippy::large_enum_variant)]
pub(crate) enum StepOutcome {
    /// A fresh round's phase-2 jobs. The caller runs them — split into any
    /// number of contiguous chunks, on any threads — and feeds the chunk
    /// results back **in original job order** via [`RoundDriver::provide`]
    /// before stepping again. This ordering contract is the heart of the
    /// engine's determinism: emission order is a pure function of the
    /// configuration, never of the worker count, chunk size, or which pool
    /// did the work.
    SubmitChunks(Vec<ChildJob>),
    /// A complete query survived the full cascade. Deliver it to the
    /// consumer; call [`RoundDriver::halt`] before the next `step` if the
    /// consumer wants to stop.
    Emit {
        /// The candidate, lowered to an executable spec.
        spec: SelectSpec,
        /// Its confidence score.
        confidence: f64,
        /// Wall-clock offset from the run's start.
        emitted_at: Duration,
    },
    /// The run is over (exhausted, budget reached, halted, cancelled or past
    /// the deadline). Collect the counters with [`RoundDriver::into_stats`].
    Done,
}

/// Progress of the state machine between `step` calls.
enum DriverPhase {
    /// Ready to start the next round (pop a beam).
    Ready,
    /// `SubmitChunks` was returned; waiting on [`RoundDriver::provide`] (or
    /// the first [`RoundDriver::feed`] of a streamed round). Carries the
    /// decision depth of each beam slot for the merge, plus — under
    /// [`EmissionPolicy::AnyK`] — the suffix maxima of the submitted job
    /// confidences (`suffix_max[i]` bounds every child of jobs `i..`; one
    /// trailing `0.0` entry), which the dominance gate indexes by its
    /// merged-jobs cursor. Empty under `RoundBarrier`.
    Submitted { decisions: Vec<usize>, suffix_max: Vec<f64> },
    /// Chunk results are being merged; emissions drain one per `step`.
    Draining(Drain),
    /// The loop has exited; every further `step` returns `Done`.
    Finished,
}

/// The in-progress phase-3 merge of one round: chunks are consumed strictly
/// in order, and within a chunk every emission is delivered before its
/// survivors are pushed — exactly the order of the historical serial loop,
/// so an early stop (consumer halt or candidate budget) cuts the merge at
/// the same point it always did.
struct Drain {
    decisions: Vec<usize>,
    /// Suffix maxima of the round's job confidences (see
    /// [`DriverPhase::Submitted`]); empty under `RoundBarrier`.
    suffix_max: Vec<f64>,
    chunks: VecDeque<ChunkResult>,
    emissions: VecDeque<(SelectSpec, f64)>,
    survivors: Vec<(PartialQuery, f64, usize)>,
    in_chunk: bool,
    /// Jobs covered by the chunks merged so far — the dominance gate's
    /// cursor into `suffix_max`.
    merged_jobs: usize,
    /// Highest confidence among the current chunk's not-yet-pushed
    /// survivors (they are outside the heap while the chunk's emissions
    /// drain, so the gate must bound them separately).
    survivor_max: f64,
    /// Whether every chunk of the round has been provided. `provide` sets
    /// this immediately; a streamed round sets it on its `last` feed. The
    /// dominance gate only applies while `false` — once the round is
    /// complete, draining is exactly the historical barrier merge.
    complete: bool,
    timed_out: bool,
    cancelled: bool,
    just_emitted: bool,
}

/// The synthesis round loop as a **resumable state machine**: owns the
/// frontier (priority queue), the per-run statistics and the merge state of
/// the in-flight round, but none of the session's inputs (those arrive by
/// borrow in each [`StepEnv`]). The protocol:
///
/// ```text
///   loop {
///       match driver.step(&env) {
///           SubmitChunks(jobs) => {            // phase 2: run anywhere
///               let results = run(jobs);       //   (chunked, job order kept)
///               driver.provide(results);
///           }
///           Emit { .. } => deliver(..),        // optionally driver.halt()
///           Done => break,
///       }
///   }
///   let stats = driver.into_stats();
/// ```
///
/// `step` never blocks: between `SubmitChunks` and `provide` the driver is
/// inert and can be parked indefinitely — this is what lets a scheduler
/// resume thousands of live sessions from a fixed worker pool instead of
/// parking one OS thread per session. Cancellation and the deadline are
/// honored at every round boundary (between `step` calls), in addition to
/// the mid-chunk checks inside [`process_chunk`]. See `docs/DRIVER.md` for
/// the full contract.
pub(crate) struct RoundDriver {
    heap: BinaryHeap<EnumState>,
    sequence: u64,
    stats: EnumerationStats,
    start: Instant,
    deadline: Option<Instant>,
    phase: DriverPhase,
    halted: bool,
    /// The session's request trace, when observability is on. The driver owns
    /// the merge of chunk-local spans precisely because it already owns the
    /// deterministic phase-3 merge: spans land in child order, so trace
    /// content under a simulated clock is reproducible run-to-run.
    trace: Option<Arc<Trace>>,
    /// Start instant of the in-flight round's span (tracing only).
    round_started: Option<Instant>,
    /// The guidance model compiled against this run's (NLQ, schema) pair:
    /// unset until the first guided round prepares it, then `Some(None)`
    /// for a model with nothing to precompute (phase 1 calls its `score`).
    /// Owned by the driver, so it parks and resumes with it.
    plan: Option<Option<Box<dyn GuidancePlan>>>,
}

impl RoundDriver {
    /// A driver at the root state. `start` anchors emission timestamps;
    /// `deadline` is the merged wall-clock cut-off (config `time_budget` and
    /// any external [`SessionControl`] deadline).
    pub(crate) fn new(start: Instant, deadline: Option<Instant>) -> Self {
        let mut heap = BinaryHeap::new();
        heap.push(EnumState::root());
        RoundDriver {
            heap,
            sequence: 0,
            stats: EnumerationStats::default(),
            start,
            deadline,
            phase: DriverPhase::Ready,
            halted: false,
            trace: None,
            round_started: None,
            plan: None,
        }
    }

    /// Attach the session's request trace: every subsequent round records a
    /// `round` span, and chunk results feed their worker-recorded spans into
    /// it (merged in child order).
    pub(crate) fn with_trace(mut self, trace: Option<Arc<Trace>>) -> Self {
        self.trace = trace;
        self
    }

    /// The attached request trace, if any (the scheduler records dispatch and
    /// resume events against it).
    pub(crate) fn trace(&self) -> Option<&Arc<Trace>> {
        self.trace.as_ref()
    }

    /// Close the in-flight round's span, if one is open.
    fn close_round(&mut self, env: &StepEnv<'_>) {
        if let (Some(trace), Some(started)) = (self.trace.as_ref(), self.round_started.take()) {
            trace.record_span("round", started, env.clock.now());
        }
    }

    /// Ask the driver to stop: the next `step` returns `Done` without
    /// touching the frontier (the consumer's "stop" verdict — the equivalent
    /// of returning `false` from a candidate callback).
    pub(crate) fn halt(&mut self) {
        self.halted = true;
    }

    /// Feed back the chunk results of the jobs returned by the last
    /// `SubmitChunks`, in original job order.
    ///
    /// # Panics
    ///
    /// Panics if no round is outstanding (protocol violation).
    pub(crate) fn provide(&mut self, results: Vec<ChunkResult>) {
        match std::mem::replace(&mut self.phase, DriverPhase::Finished) {
            DriverPhase::Submitted { decisions, suffix_max } => {
                self.phase = DriverPhase::Draining(Drain {
                    decisions,
                    suffix_max,
                    chunks: results.into(),
                    emissions: VecDeque::new(),
                    survivors: Vec::new(),
                    in_chunk: false,
                    merged_jobs: 0,
                    survivor_max: 0.0,
                    complete: true,
                    timed_out: false,
                    cancelled: false,
                    just_emitted: false,
                });
            }
            phase => {
                self.phase = phase;
                panic!("RoundDriver::provide called with no round outstanding");
            }
        }
    }

    /// Feed a contiguous job-order prefix of the in-flight round's chunk
    /// results, draining every emission the any-k dominance gate releases
    /// straight into `sink` (the streamed counterpart of
    /// [`RoundDriver::provide`] + [`RoundDriver::step`]). `last` marks the
    /// round's final feed; until it arrives the driver may pause mid-merge
    /// (gate blocked, or chunks exhausted) and waits for the next feed. A
    /// `sink` returning `false` halts the run, exactly like returning
    /// `false` from a candidate callback.
    ///
    /// Feeding a finished driver silently drops the chunks: a halted or
    /// budget-stopped run may still have late chunks in flight, and they
    /// must be discardable.
    ///
    /// # Panics
    ///
    /// Panics if no round is outstanding (phase `Ready` — protocol
    /// violation).
    pub(crate) fn feed(
        &mut self,
        chunks: Vec<ChunkResult>,
        last: bool,
        env: &StepEnv<'_>,
        sink: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
    ) {
        match std::mem::replace(&mut self.phase, DriverPhase::Finished) {
            DriverPhase::Finished => return, // late chunks after an early stop
            DriverPhase::Submitted { decisions, suffix_max } => {
                self.phase = DriverPhase::Draining(Drain {
                    decisions,
                    suffix_max,
                    chunks: chunks.into(),
                    emissions: VecDeque::new(),
                    survivors: Vec::new(),
                    in_chunk: false,
                    merged_jobs: 0,
                    survivor_max: 0.0,
                    complete: last,
                    timed_out: false,
                    cancelled: false,
                    just_emitted: false,
                });
            }
            DriverPhase::Draining(mut d) => {
                d.chunks.extend(chunks);
                d.complete |= last;
                self.phase = DriverPhase::Draining(d);
            }
            DriverPhase::Ready => {
                self.phase = DriverPhase::Ready;
                panic!("RoundDriver::feed called with no round outstanding");
            }
        }
        loop {
            let phase = std::mem::replace(&mut self.phase, DriverPhase::Finished);
            let DriverPhase::Draining(d) = phase else {
                self.phase = phase;
                return; // the drain closed the round or finished the run
            };
            match self.drain(d, env) {
                Some(StepOutcome::Emit { spec, confidence, emitted_at }) => {
                    // A mid-round release is the observable any-k event: the
                    // frontier provably cannot beat this candidate, so it
                    // leaves before the round closes.
                    let mid_round = matches!(&self.phase, DriverPhase::Draining(d) if !d.complete);
                    let popped_at = if mid_round && self.trace.is_some() {
                        Some(env.clock.now())
                    } else {
                        None
                    };
                    let keep = sink(spec, confidence, emitted_at);
                    if let (Some(trace), Some(t0)) = (self.trace.as_ref(), popped_at) {
                        trace.record_span("frontier_pop", t0, env.clock.now());
                    }
                    if !keep {
                        self.halt();
                    }
                }
                Some(_) => unreachable!("drain only yields emissions"),
                None => return, // paused mid-round, round complete, or run over
            }
        }
    }

    /// The run's counters so far (final once `step` has returned `Done`,
    /// except for `elapsed` and the cache counters, which the wrapper fills).
    pub(crate) fn into_stats(self) -> EnumerationStats {
        self.stats
    }

    /// Advance the state machine until it has something for the caller.
    ///
    /// # Panics
    ///
    /// Panics if called while chunk results are outstanding (after a
    /// `SubmitChunks` and before the matching [`RoundDriver::provide`]).
    pub(crate) fn step(&mut self, env: &StepEnv<'_>) -> StepOutcome {
        loop {
            match std::mem::replace(&mut self.phase, DriverPhase::Finished) {
                DriverPhase::Finished => return StepOutcome::Done,
                DriverPhase::Submitted { decisions, suffix_max } => {
                    self.phase = DriverPhase::Submitted { decisions, suffix_max };
                    panic!("RoundDriver::step called while chunk results are outstanding");
                }
                DriverPhase::Draining(drain) => {
                    if let Some(outcome) = self.drain(drain, env) {
                        return outcome;
                    }
                    if matches!(self.phase, DriverPhase::Draining(_)) {
                        panic!(
                            "RoundDriver::step called while a streamed round is still in flight"
                        );
                    }
                }
                DriverPhase::Ready => {
                    if let Some(outcome) = self.begin_round(env) {
                        return outcome;
                    }
                }
            }
        }
    }

    /// Start a round: the cooperative checks, the beam pop and phase 1
    /// (serial child expansion + scoring). On entry the phase has been taken
    /// (left `Finished`); returning `None` keeps whatever phase this method
    /// set — `Finished` for every exit path, `Ready` for an empty round.
    fn begin_round(&mut self, env: &StepEnv<'_>) -> Option<StepOutcome> {
        if self.halted {
            return None; // consumer stop between rounds
        }
        if self.heap.is_empty() {
            // Natural end of the search (never reached via an early exit:
            // those leave directly from their check below).
            self.stats.exhausted = self.stats.expanded < env.config.max_expansions;
            return None;
        }
        if env.cancel.load(Ordering::SeqCst) {
            self.stats.cancelled = true;
            return None;
        }
        if self.deadline.map(|d| env.clock.now() > d).unwrap_or(false) {
            self.stats.deadline_exceeded = true;
            return None;
        }

        // Pop the beam: the top-k states by confidence, within the expansion budget.
        let beam_width = env.config.beam_width.max(1);
        let mut beam: Vec<EnumState> = Vec::with_capacity(beam_width);
        while beam.len() < beam_width && self.stats.expanded < env.config.max_expansions {
            let Some(state) = self.heap.pop() else { break };
            self.stats.expanded += 1;
            beam.push(state);
        }
        if beam.is_empty() {
            return None; // expansion budget reached with work left
        }
        self.stats.rounds += 1;
        if self.trace.is_some() {
            self.round_started = Some(env.clock.now());
        }

        // Phase 1 (serial, cheap): produce and score every child of the beam.
        let ctx = GuidanceContext { nlq: env.nlq, schema: env.db.schema() };
        let mut jobs: Vec<ChildJob> = Vec::new();
        for (beam_idx, state) in beam.iter().enumerate() {
            // A state with no decision left is complete (it was verified and
            // emitted when generated); a state with an empty child set is a
            // dead end. Both just drop out of the frontier.
            let Some(children) = enum_next_step(&state.pq, env.db, env.nlq, env.config) else {
                continue;
            };
            if children.is_empty() {
                continue;
            }
            // Split choices from children instead of cloning every `Choice`
            // for the scoring call.
            let (choices, child_pqs): (Vec<Choice>, Vec<PartialQuery>) =
                children.into_iter().unzip();
            let raw = if env.config.guided {
                // Prepared on the first round rather than at construction:
                // here a panicking model poisons only this session, and the
                // work lands on the thread that runs the round.
                match self.plan.get_or_insert_with(|| env.model.prepare(&ctx)) {
                    Some(plan) => plan.score(&choices),
                    None => env.model.score(&ctx, &choices),
                }
            } else {
                vec![1.0; choices.len()]
            };
            let scores = duoquest_nlq::guidance::normalize_scores(&raw);
            for (pq, score) in child_pqs.into_iter().zip(scores) {
                jobs.push(ChildJob { beam_idx, confidence: state.confidence * score, pq });
            }
        }
        if jobs.is_empty() {
            // Nothing to verify this round: end-of-round bookkeeping and
            // straight on to the next beam.
            self.close_round(env);
            self.bound_frontier(env.config.max_states);
            self.phase = DriverPhase::Ready;
            return None;
        }
        let decisions = beam.iter().map(|s| s.decisions).collect();
        // Under any-k, precompute the suffix maxima of the job confidences:
        // `suffix_max[i]` bounds the confidence of every child a job in
        // `jobs[i..]` can produce (a child's confidence equals its job's),
        // so the dominance gate can bound the round's unmerged remainder in
        // O(1) as chunks stream in.
        let suffix_max = if env.config.emission == EmissionPolicy::AnyK {
            let mut suffix = vec![0.0f64; jobs.len() + 1];
            for i in (0..jobs.len()).rev() {
                suffix[i] = suffix[i + 1].max(jobs[i].confidence);
            }
            suffix
        } else {
            Vec::new()
        };
        self.phase = DriverPhase::Submitted { decisions, suffix_max };
        Some(StepOutcome::SubmitChunks(jobs))
    }

    /// Phase 3 (serial): merge chunk results in original child order,
    /// draining one emission per call. Returning `None` means the merge
    /// finished; the phase is then `Ready` (round complete) or `Finished`
    /// (early exit).
    fn drain(&mut self, mut d: Drain, env: &StepEnv<'_>) -> Option<StepOutcome> {
        loop {
            if d.just_emitted {
                d.just_emitted = false;
                // The historical post-callback check: a consumer halt or the
                // candidate budget stops the run right here, skipping the
                // current chunk's survivors and every later chunk.
                if self.halted || self.stats.emitted >= env.config.max_candidates {
                    return None; // Finished
                }
            }
            if d.in_chunk {
                if let Some(&(_, confidence)) = d.emissions.front() {
                    // Any-k dominance gate (only while the round is still
                    // streaming in): release the emission only when its
                    // confidence provably beats every unexpanded state —
                    // the frontier heap's top, every child a not-yet-merged
                    // job could produce, and the current chunk's unpushed
                    // survivors. A blocked gate pauses the merge; the round's
                    // completion disables the gate, so the emitted sequence
                    // is always exactly the barrier sequence.
                    if !d.complete && !self.dominates(confidence, &d) {
                        self.phase = DriverPhase::Draining(d);
                        return None;
                    }
                    let (spec, confidence) = d.emissions.pop_front().expect("front checked above");
                    self.stats.emitted += 1;
                    d.just_emitted = true;
                    let emitted_at = env.clock.now().saturating_duration_since(self.start);
                    self.phase = DriverPhase::Draining(d);
                    return Some(StepOutcome::Emit { spec, confidence, emitted_at });
                }
                for (pq, confidence, beam_idx) in d.survivors.drain(..) {
                    self.sequence += 1;
                    self.heap.push(EnumState {
                        pq,
                        confidence,
                        decisions: d.decisions[beam_idx] + 1,
                        sequence: self.sequence,
                    });
                }
                d.in_chunk = false;
            }
            match d.chunks.pop_front() {
                Some(chunk) => {
                    self.stats.generated += chunk.generated;
                    for (idx, count) in chunk.prunes.iter().enumerate() {
                        self.stats.record(VerifyStage::ALL[idx], *count);
                    }
                    self.stats.stage_timings.merge(&chunk.timings);
                    if let Some(trace) = self.trace.as_ref() {
                        // Child-order merge: chunks arrive here in original
                        // job order, so the trace's span sequence is a pure
                        // function of the configuration — not of which worker
                        // ran which chunk.
                        trace.merge_raw(&chunk.spans);
                        // Per-stage verify spans are synthesized from the
                        // chunk's stage timings, laid out sequentially from
                        // the chunk start so they nest inside the chunk span
                        // deterministically (individual verify calls
                        // interleave across jobs and have no single
                        // interval of their own).
                        if let Some(span) = chunk.spans.first() {
                            let mut cursor = trace.offset_us(span.start);
                            for stage in VerifyStage::ALL {
                                if chunk.timings.calls_of(stage) == 0 {
                                    continue;
                                }
                                let width = chunk.timings.duration_of(stage).as_micros() as u64;
                                trace.record_span_at(stage.span_name(), cursor, cursor + width);
                                cursor += width;
                            }
                            // Single-flight park time, synthesized after the
                            // verify stages. The wait is real wall-clock
                            // even under a simulated clock, so its width is
                            // capped to the chunk span's remaining interval —
                            // a span may never escape its chunk on the
                            // (possibly virtual) timeline.
                            if chunk.probe_wait_us > 0 {
                                let chunk_end = trace.offset_us(span.end);
                                let width =
                                    chunk.probe_wait_us.min(chunk_end.saturating_sub(cursor));
                                trace.record_span_at("probe_wait", cursor, cursor + width);
                            }
                        }
                    }
                    d.merged_jobs += chunk.jobs;
                    d.survivor_max = chunk.survivors.iter().map(|&(_, c, _)| c).fold(0.0, f64::max);
                    d.timed_out |= chunk.timed_out;
                    d.cancelled |= chunk.cancelled;
                    d.emissions = chunk.emissions.into();
                    d.survivors = chunk.survivors;
                    d.in_chunk = true;
                }
                None => {
                    if !d.complete {
                        // Streamed round, chunks exhausted mid-round: pause
                        // until the next feed.
                        self.phase = DriverPhase::Draining(d);
                        return None;
                    }
                    self.close_round(env);
                    if d.cancelled {
                        self.stats.cancelled = true;
                        return None; // Finished
                    }
                    if d.timed_out {
                        self.stats.deadline_exceeded = true;
                        return None; // Finished
                    }
                    self.bound_frontier(env.config.max_states);
                    self.phase = DriverPhase::Ready;
                    return None;
                }
            }
        }
    }

    /// The any-k dominance rule: `confidence` beats the frontier heap's top,
    /// the bound on every not-yet-merged job of the in-flight round, and the
    /// current chunk's not-yet-pushed survivors. `>=` is sound because an
    /// equal-confidence future candidate is later in child order, and the
    /// final ranking breaks confidence ties by emission index — which the
    /// gate never reorders.
    fn dominates(&self, confidence: f64, d: &Drain) -> bool {
        let heap_top = self.heap.peek().map(|s| s.confidence).unwrap_or(0.0);
        let unmerged = d.suffix_max.get(d.merged_jobs).copied().unwrap_or(f64::INFINITY);
        confidence >= heap_top && confidence >= unmerged && confidence >= d.survivor_max
    }

    /// Bound the frontier size: drop the lowest-confidence states.
    fn bound_frontier(&mut self, max_states: usize) {
        if self.heap.len() > max_states {
            let mut states: Vec<EnumState> = std::mem::take(&mut self.heap).into_vec();
            states.sort_by(|a, b| b.cmp(a));
            states.truncate(max_states / 2);
            self.heap = BinaryHeap::from(states);
        }
    }
}

/// The shared round loop, expressed as a blocking drive of the
/// [`RoundDriver`] state machine: pop a beam, expand and score children
/// (phase 1, serial), hand the jobs to `dispatch` for join-path construction
/// plus the verification cascade (phase 2, wherever the dispatcher runs
/// them), then merge chunk results back **in original child order** (phase 3,
/// serial).
///
/// The dispatcher contract is the heart of the engine's determinism: it may
/// split `jobs` into any number of contiguous chunks and run them on any
/// threads, but must return the chunk results in original job order.
/// Emission order is then a pure function of the configuration — never of the
/// worker count, chunk size, or which pool (scoped or shared) did the work.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_rounds(
    db: &Database,
    nlq: &Nlq,
    model: &dyn GuidanceModel,
    config: &DuoquestConfig,
    deadline: Option<Instant>,
    cancel: &AtomicBool,
    start: Instant,
    clock: &dyn Clock,
    trace: Option<Arc<Trace>>,
    stats: &mut EnumerationStats,
    on_candidate: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
    dispatch: &mut dyn RoundDispatcher,
) {
    let env = StepEnv { db, nlq, model, config, cancel, clock };
    let streaming = config.emission == EmissionPolicy::AnyK;
    let mut driver = RoundDriver::new(start, deadline).with_trace(trace);
    loop {
        match driver.step(&env) {
            StepOutcome::SubmitChunks(jobs) => {
                if streaming {
                    // Any-k: chunk results stream back as contiguous
                    // job-order prefixes and each feed drains whatever the
                    // dominance gate releases straight into the consumer.
                    dispatch.run_streaming(jobs, &mut |chunks, last| {
                        driver.feed(chunks, last, &env, on_candidate);
                    });
                } else {
                    let results = dispatch.run(jobs);
                    driver.provide(results);
                }
            }
            StepOutcome::Emit { spec, confidence, emitted_at } => {
                if !on_candidate(spec, confidence, emitted_at) {
                    driver.halt();
                }
            }
            StepOutcome::Done => break,
        }
    }
    *stats = driver.into_stats();
}

/// Phase-2 execution strategy handed to [`drive_rounds`]: runs a round's
/// jobs — split into any number of contiguous chunks, on any threads — and
/// returns the chunk results **in original job order** (the determinism
/// contract). The streaming variant additionally delivers results
/// incrementally, as contiguous job-order prefixes complete, which is what
/// any-k emission taps for mid-round delivery.
pub(crate) trait RoundDispatcher {
    /// Run the jobs and return every chunk result, in original job order.
    fn run(&mut self, jobs: Vec<ChildJob>) -> Vec<ChunkResult>;

    /// Run the jobs, feeding chunk results as contiguous job-order prefixes
    /// complete. `feed` must be called with `last = true` exactly once, on
    /// the final delivery (which may carry an empty batch only if earlier
    /// feeds delivered everything — the default delivers everything at
    /// once).
    fn run_streaming(&mut self, jobs: Vec<ChildJob>, feed: &mut dyn FnMut(Vec<ChunkResult>, bool)) {
        let results = self.run(jobs);
        feed(results, true);
    }
}

/// Distribute the round's jobs over the persistent worker pool as contiguous
/// chunks (placing the chunk results by index restores the original job
/// order), or run inline when there is no pool or the fan-out is too small
/// to be worth the channel handoff.
fn process_jobs(
    jobs: Vec<ChildJob>,
    pool: Option<&WorkerPool>,
    env: &RoundEnv<'_>,
) -> Vec<ChunkResult> {
    match pool {
        Some(pool) if jobs.len() >= MIN_PARALLEL_JOBS => pool.dispatch(jobs),
        _ => vec![process_chunk(jobs, env)],
    }
}

/// [`RoundDispatcher`] over the run-scoped [`WorkerPool`] (or inline
/// execution when the pool is absent or a fan-out is too small).
struct PoolDispatcher<'a> {
    pool: Option<&'a WorkerPool>,
    env: &'a RoundEnv<'a>,
}

impl RoundDispatcher for PoolDispatcher<'_> {
    fn run(&mut self, jobs: Vec<ChildJob>) -> Vec<ChunkResult> {
        process_jobs(jobs, self.pool, self.env)
    }

    fn run_streaming(&mut self, jobs: Vec<ChildJob>, feed: &mut dyn FnMut(Vec<ChunkResult>, bool)) {
        match self.pool {
            Some(pool) if jobs.len() >= MIN_PARALLEL_JOBS => pool.dispatch_streaming(jobs, feed),
            _ => feed(vec![process_chunk(jobs, self.env)], true),
        }
    }
}

/// A run-scoped pool of verification workers. Threads are spawned once per
/// synthesis run (scoped, so they may borrow the run's verifiers and
/// database) and fed one chunk per round over channels — rounds never pay a
/// thread spawn/join cycle.
struct WorkerPool {
    chunk_txs: Vec<std::sync::mpsc::Sender<(usize, Vec<ChildJob>)>>,
    result_rx: std::sync::mpsc::Receiver<(usize, std::thread::Result<ChunkResult>)>,
}

impl WorkerPool {
    /// Spawn `workers` threads onto `scope`; `None` when one worker would do
    /// (the caller then processes chunks inline).
    fn start<'scope, 'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        workers: usize,
        env: &'env RoundEnv<'env>,
    ) -> Option<WorkerPool> {
        if workers <= 1 {
            return None;
        }
        let (result_tx, result_rx) = std::sync::mpsc::channel();
        let chunk_txs = (0..workers)
            .map(|_| {
                let (chunk_tx, chunk_rx) = std::sync::mpsc::channel::<(usize, Vec<ChildJob>)>();
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    while let Ok((idx, jobs)) = chunk_rx.recv() {
                        // Catch panics so a worker failure surfaces as a
                        // panic in the dispatching thread instead of a hang.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                process_chunk(jobs, env)
                            }));
                        if result_tx.send((idx, outcome)).is_err() {
                            break; // run is shutting down
                        }
                    }
                });
                chunk_tx
            })
            .collect();
        Some(WorkerPool { chunk_txs, result_rx })
    }

    /// Fan `jobs` out as one contiguous chunk per worker; returns how many
    /// chunks were sent.
    fn send_chunks(&self, jobs: Vec<ChildJob>) -> usize {
        let chunk_size = jobs.len().div_ceil(self.chunk_txs.len());
        let mut sent = 0usize;
        let mut remaining = jobs;
        while !remaining.is_empty() {
            let tail = remaining.split_off(remaining.len().min(chunk_size));
            self.chunk_txs[sent]
                .send((sent, remaining))
                .expect("synthesis worker terminated unexpectedly");
            remaining = tail;
            sent += 1;
        }
        sent
    }

    /// Split `jobs` into one contiguous chunk per worker, fan them out, and
    /// return the results in original job order.
    fn dispatch(&self, jobs: Vec<ChildJob>) -> Vec<ChunkResult> {
        let sent = self.send_chunks(jobs);
        let mut results: Vec<Option<ChunkResult>> = (0..sent).map(|_| None).collect();
        for _ in 0..sent {
            let (idx, outcome) =
                self.result_rx.recv().expect("synthesis worker terminated unexpectedly");
            match outcome {
                Ok(result) => results[idx] = Some(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        results.into_iter().map(|r| r.expect("every chunk reported")).collect()
    }

    /// Streaming fan-out for any-k emission: chunk results arrive out of
    /// order from the workers and are buffered by index; every time the
    /// contiguous job-order prefix grows, the new run is fed onward (the
    /// final feed carries `last = true`). The delivered sequence is exactly
    /// [`WorkerPool::dispatch`]'s, just incremental.
    fn dispatch_streaming(
        &self,
        jobs: Vec<ChildJob>,
        feed: &mut dyn FnMut(Vec<ChunkResult>, bool),
    ) {
        let sent = self.send_chunks(jobs);
        let mut results: Vec<Option<ChunkResult>> = (0..sent).map(|_| None).collect();
        let mut fed = 0usize;
        for _ in 0..sent {
            let (idx, outcome) =
                self.result_rx.recv().expect("synthesis worker terminated unexpectedly");
            match outcome {
                Ok(result) => results[idx] = Some(result),
                Err(panic) => std::panic::resume_unwind(panic),
            }
            let mut batch = Vec::new();
            while fed < sent && results[fed].is_some() {
                batch.push(results[fed].take().expect("checked above"));
                fed += 1;
            }
            if !batch.is_empty() {
                feed(batch, fed == sent);
            }
        }
    }
}

/// Run one worker's share of the round: per child, the join-independent
/// stages of the cascade, join path attachment, then the stages over the join
/// path per join variant.
pub(crate) fn process_chunk(jobs: Vec<ChildJob>, env: &RoundEnv<'_>) -> ChunkResult {
    let mut out = ChunkResult { jobs: jobs.len(), ..ChunkResult::default() };
    // One span per chunk, recorded into the chunk-local buffer (no shared
    // state from worker threads); the driver merges it in child order.
    let chunk_started = if env.trace { Some(env.clock.now()) } else { None };
    // Single-flight wait attribution: delta of the run's (shared) wait
    // counter across the chunk. Approximate when chunks run concurrently;
    // the driver synthesizes an observational `probe_wait` span from it.
    let wait_before = if env.trace { env.verifier.single_flight_counters().2 } else { 0 };
    let mut joins = env.joins.memo();
    for (done, job) in jobs.into_iter().enumerate() {
        // Honor cancellation between jobs (an atomic load — cheap enough per
        // job) so cancel takes effect mid-chunk, not at the next round.
        if env.cancel.load(Ordering::Relaxed) {
            out.cancelled = true;
            break;
        }
        // Honor the wall-clock budget inside large fan-outs as well.
        if done % 32 == 31 && env.deadline.map(|d| env.clock.now() > d).unwrap_or(false) {
            out.timed_out = true;
            break;
        }
        let ChildJob { beam_idx, confidence, pq } = job;
        // The clause, semantic, type and column-wise stages never read the
        // join path: they run once per child, before paying for join path
        // construction, and eliminate the bulk of the fan-out. Under NoPQ a
        // partial child is not examined at all, so a variant that its join
        // path completes still owes the whole cascade.
        let prefixed = env.verifier.examines(&pq);
        if prefixed {
            if let VerifyOutcome::Fail(stage) = env.verifier.verify_prefix(&pq, &mut out.timings) {
                out.generated += 1;
                out.prunes[stage.index()] += 1;
                continue;
            }
        }
        // Attach candidate join paths (progressive join path construction):
        // one variant per path the child still needs, the child itself when
        // its join path already covers it. Each pays the stages that execute
        // over its join path.
        let settle = |pq: PartialQuery, out: &mut ChunkResult| {
            out.generated += 1;
            let outcome = if prefixed {
                env.verifier.verify_joined(&pq, &mut out.timings)
            } else {
                env.verifier.verify_timed(&pq, &mut out.timings)
            };
            match outcome {
                VerifyOutcome::Fail(stage) => out.prunes[stage.index()] += 1,
                VerifyOutcome::Pass if pq.is_complete() => {
                    let spec = pq.to_spec().expect("complete partial query lowers");
                    out.emissions.push((spec, confidence));
                }
                VerifyOutcome::Pass => out.survivors.push((pq, confidence, beam_idx)),
            }
        };
        match missing_join_paths(&pq, &mut joins) {
            None => settle(pq, &mut out),
            Some(paths) => {
                // The child is moved into the last variant instead of cloned.
                if let Some((last_path, paths)) = paths.split_last() {
                    for join in paths {
                        settle(PartialQuery { join: Some(join.clone()), ..pq.clone() }, &mut out);
                    }
                    settle(PartialQuery { join: Some(last_path.clone()), ..pq }, &mut out);
                }
            }
        }
    }
    if let Some(started) = chunk_started {
        let wait_after = env.verifier.single_flight_counters().2;
        out.probe_wait_us = wait_after.saturating_sub(wait_before);
        out.spans.push(RawSpan { name: "chunk", start: started, end: env.clock.now() });
    }
    out
}

/// The join paths a freshly generated child has to be split over: `None` when
/// it needs none (its projection is still open, or the join path it carries
/// covers every table it references), otherwise the candidate paths over its
/// tables — empty when they cannot be joined, which drops the child.
fn missing_join_paths(pq: &PartialQuery, joins: &mut JoinPathMemo<'_>) -> Option<Rc<[JoinTree]>> {
    if pq.select.is_hole() {
        return None;
    }
    if let Some(join) = &pq.join {
        let mut covered = true;
        pq.for_each_referenced_column(|c| covered &= join.contains(c.table));
        if covered {
            return None;
        }
    }
    Some(joins.paths(pq))
}

/// `EnumNextStep`: produce the candidate children of the next inference
/// decision, following the module order of paper Table 3. Returns `None` when
/// the partial query has no remaining decision.
#[allow(clippy::type_complexity)]
pub fn enum_next_step(
    pq: &PartialQuery,
    db: &Database,
    nlq: &Nlq,
    config: &DuoquestConfig,
) -> Option<Vec<(Choice, PartialQuery)>> {
    let schema = db.schema();

    // 1. KW module: which clauses exist.
    if pq.clauses.is_hole() {
        return Some(
            ClauseSet::all()
                .into_iter()
                .map(|cs| {
                    let mut child = pq.clone();
                    child.clauses = Slot::Filled(cs);
                    (Choice::Clauses(cs), child)
                })
                .collect(),
        );
    }
    let clauses = *pq.clauses.as_ref().expect("clauses decided above");

    // 2. COL module (SELECT): the projected column list. Surrogate key columns
    // (primary keys and foreign keys) are excluded from the candidate pool —
    // mirroring what the trained COL module learns on Spider, where gold
    // queries never project join keys — which keeps the power-set expansion
    // tractable on wide schemas such as MAS.
    if pq.select.is_hole() {
        let mut options: Vec<SelectColumn> = schema
            .all_columns()
            .filter(|c| !schema.is_key_column(*c))
            .map(SelectColumn::Column)
            .collect();
        options.push(SelectColumn::Star);
        let subsets = column_subsets(&options, config.max_select_columns);
        return Some(
            subsets
                .into_iter()
                .map(|cols| {
                    let mut child = pq.clone();
                    child.select = Slot::Filled(
                        cols.iter().map(|c| PartialSelectItem::with_column(*c)).collect(),
                    );
                    (Choice::SelectColumns(cols), child)
                })
                .collect(),
        );
    }
    let select = pq.select.as_ref().expect("select decided above");

    // 3. AGG module: one aggregate decision per projected item.
    if let Some(idx) = select.iter().position(|i| i.agg.is_hole()) {
        let column = *select[idx].col.as_ref().expect("column decided before aggregate");
        let candidates: Vec<Option<AggFunc>> = match column {
            SelectColumn::Star => vec![Some(AggFunc::Count)],
            SelectColumn::Column(c) => {
                let mut v = vec![None, Some(AggFunc::Count)];
                if schema.column(c).dtype == DataType::Number {
                    v.extend([
                        Some(AggFunc::Max),
                        Some(AggFunc::Min),
                        Some(AggFunc::Sum),
                        Some(AggFunc::Avg),
                    ]);
                }
                v
            }
        };
        return Some(
            candidates
                .into_iter()
                .map(|agg| {
                    let mut child = pq.clone();
                    if let Slot::Filled(items) = &mut child.select {
                        items[idx].agg = Slot::Filled(agg);
                    }
                    (Choice::Aggregate { column, agg }, child)
                })
                .collect(),
        );
    }

    // 4. COL module (WHERE): predicate columns (key columns excluded, as above).
    // Multisets are generated — the same column may carry two predicates, as in
    // the paper's motivating example (`year < 1995 OR year > 2000`).
    if clauses.where_clause && pq.where_predicates.is_hole() {
        let options: Vec<_> = schema.all_columns().filter(|c| !schema.is_key_column(*c)).collect();
        let mut out = Vec::new();
        for size in 1..=config.max_where_predicates.min(options.len()) {
            for combo in multiset_combinations(&options, size) {
                let mut child = pq.clone();
                child.where_predicates =
                    Slot::Filled(combo.iter().map(|c| PartialPredicate::with_column(*c)).collect());
                if combo.len() <= 1 {
                    child.where_op = Slot::Filled(LogicalOp::And);
                }
                out.push((Choice::WhereColumns(combo), child));
            }
        }
        return Some(out);
    }

    // 5. OP module: one operator decision per predicate.
    if clauses.where_clause {
        if let Some(preds) = pq.where_predicates.as_ref() {
            if let Some(idx) = preds.iter().position(|p| p.op.is_hole()) {
                let col = *preds[idx].col.as_ref().expect("predicate column decided first");
                let ops: Vec<CmpOp> = match schema.column(col).dtype {
                    DataType::Number => {
                        vec![CmpOp::Eq, CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Between]
                    }
                    DataType::Text => vec![CmpOp::Eq, CmpOp::Like],
                };
                return Some(
                    ops.into_iter()
                        .map(|op| {
                            let mut child = pq.clone();
                            if let Slot::Filled(preds) = &mut child.where_predicates {
                                preds[idx].op = Slot::Filled(op);
                            }
                            (Choice::Operator { column: col, op }, child)
                        })
                        .collect(),
                );
            }
            // 6. Constant binding per predicate, from the tagged literals.
            if let Some(idx) = preds.iter().position(|p| p.value.is_hole()) {
                let col = *preds[idx].col.as_ref().expect("column decided");
                let op = *preds[idx].op.as_ref().expect("operator decided");
                let dtype = schema.column(col).dtype;
                let mut out = Vec::new();
                if op == CmpOp::Between {
                    let numbers: Vec<f64> = nlq
                        .literals
                        .iter()
                        .filter(|l| l.kind == LiteralKind::Number)
                        .filter_map(|l| l.value.as_number())
                        .collect();
                    for (i, lo) in numbers.iter().enumerate() {
                        for hi in numbers.iter().skip(i + 1) {
                            let (lo, hi) = if lo <= hi { (*lo, *hi) } else { (*hi, *lo) };
                            let mut child = pq.clone();
                            if let Slot::Filled(preds) = &mut child.where_predicates {
                                preds[idx].value = Slot::Filled(Value::Number(lo));
                                preds[idx].value2 = Some(Value::Number(hi));
                            }
                            out.push((
                                Choice::PredicateValue {
                                    column: col,
                                    op,
                                    value: Value::Number(lo),
                                    value2: Some(Value::Number(hi)),
                                },
                                child,
                            ));
                        }
                    }
                } else {
                    for lit in &nlq.literals {
                        let type_ok = match dtype {
                            DataType::Number => lit.kind == LiteralKind::Number,
                            DataType::Text => lit.kind == LiteralKind::Text,
                        };
                        if !type_ok && op != CmpOp::Like {
                            continue;
                        }
                        let value = if op == CmpOp::Like {
                            Value::text(format!("%{}%", lit.surface))
                        } else {
                            lit.value.clone()
                        };
                        let mut child = pq.clone();
                        if let Slot::Filled(preds) = &mut child.where_predicates {
                            preds[idx].value = Slot::Filled(value.clone());
                        }
                        out.push((
                            Choice::PredicateValue { column: col, op, value, value2: None },
                            child,
                        ));
                    }
                }
                return Some(out);
            }
            // 7. AND/OR module.
            if preds.len() > 1 && pq.where_op.is_hole() {
                return Some(
                    [LogicalOp::And, LogicalOp::Or]
                        .into_iter()
                        .map(|op| {
                            let mut child = pq.clone();
                            child.where_op = Slot::Filled(op);
                            (Choice::Connective(op), child)
                        })
                        .collect(),
                );
            }
        }
    }

    // 8. COL module (GROUP BY).
    if clauses.group_by && pq.group_by.is_hole() {
        let plain_select_cols: Vec<_> = select
            .iter()
            .filter(|i| matches!(i.agg.as_ref(), Some(None)))
            .filter_map(|i| match i.col.as_ref() {
                Some(SelectColumn::Column(c)) => Some(*c),
                _ => None,
            })
            .collect();
        let options: Vec<_> = if plain_select_cols.is_empty() {
            pq.join
                .as_ref()
                .map(|j| {
                    j.tables
                        .iter()
                        .flat_map(|t| schema.table_columns(*t))
                        .filter(|c| !schema.is_key_column(*c))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_else(|| {
                    schema.all_columns().filter(|c| !schema.is_key_column(*c)).collect()
                })
        } else {
            plain_select_cols
        };
        let mut out = Vec::new();
        for size in 1..=config.max_group_columns.min(options.len()) {
            for combo in combinations(&options, size) {
                let mut child = pq.clone();
                child.group_by = Slot::Filled(combo.clone());
                out.push((Choice::GroupBy(combo), child));
            }
        }
        return Some(out);
    }

    // 9. HAVING module.
    if clauses.group_by && pq.having.is_hole() {
        let mut out = Vec::new();
        // "No HAVING" candidate.
        let mut child = pq.clone();
        child.having = Slot::Filled(None);
        out.push((Choice::Having(None), child));
        let numbers: Vec<Value> = nlq
            .literals
            .iter()
            .filter(|l| l.kind == LiteralKind::Number)
            .map(|l| l.value.clone())
            .collect();
        if !numbers.is_empty() {
            // COUNT(*) plus aggregates over numeric projected columns.
            let mut agg_targets: Vec<(AggFunc, Option<duoquest_db::ColumnId>)> =
                vec![(AggFunc::Count, None)];
            for item in select {
                if let (Some(SelectColumn::Column(c)), Some(Some(agg))) =
                    (item.col.as_ref(), item.agg.as_ref())
                {
                    if *agg != AggFunc::Count {
                        agg_targets.push((*agg, Some(*c)));
                    }
                }
            }
            for (agg, col) in agg_targets {
                for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le, CmpOp::Eq] {
                    for value in &numbers {
                        let mut child = pq.clone();
                        child.having = Slot::Filled(Some(PartialHaving {
                            agg: Slot::Filled(agg),
                            col: Slot::Filled(col),
                            op: Slot::Filled(op),
                            value: Slot::Filled(value.clone()),
                        }));
                        out.push((
                            Choice::Having(Some(HavingChoice {
                                agg,
                                col,
                                op,
                                value: value.clone(),
                            })),
                            child,
                        ));
                    }
                }
            }
        }
        return Some(out);
    }

    // 10. DESC/ASC + LIMIT module.
    if clauses.order_by && pq.order_by.is_hole() {
        let mut keys: Vec<OrderKey> = Vec::new();
        for item in select {
            match (item.col.as_ref(), item.agg.as_ref()) {
                (Some(SelectColumn::Column(c)), Some(None)) => keys.push(OrderKey::Column(*c)),
                (Some(SelectColumn::Column(c)), Some(Some(agg))) => {
                    keys.push(OrderKey::Aggregate(*agg, Some(*c)))
                }
                (Some(SelectColumn::Star), Some(Some(AggFunc::Count))) => {
                    keys.push(OrderKey::Aggregate(AggFunc::Count, None))
                }
                _ => {}
            }
        }
        keys.dedup();
        let mut limits: Vec<Option<usize>> = vec![None];
        for lit in &nlq.literals {
            if lit.kind == LiteralKind::Number {
                if let Some(n) = lit.value.as_number() {
                    if n > 0.0 && n <= 1000.0 && n.fract() == 0.0 {
                        limits.push(Some(n as usize));
                    }
                }
            }
        }
        let mut out = Vec::new();
        for key in keys {
            for desc in [false, true] {
                for limit in &limits {
                    let mut child = pq.clone();
                    child.order_by = Slot::Filled(Some(PartialOrder {
                        key: Slot::Filled(key),
                        desc: Slot::Filled(desc),
                        limit: Slot::Filled(*limit),
                    }));
                    out.push((
                        Choice::OrderBy(Some(OrderChoice { key, desc, limit: *limit })),
                        child,
                    ));
                }
            }
        }
        return Some(out);
    }

    None
}

/// All subsets of `options` of size 1..=`max_size`, each subset in canonical
/// (input) order. The projection list is therefore enumerated in schema order;
/// the TSQ synthesizer aligns its column order accordingly (see DESIGN.md).
fn column_subsets(options: &[SelectColumn], max_size: usize) -> Vec<Vec<SelectColumn>> {
    let mut out = Vec::new();
    for size in 1..=max_size.min(options.len()) {
        out.extend(combinations(options, size));
    }
    out
}

/// All `size`-element combinations *with repetition* of `items`, preserving
/// input order (used for WHERE columns, where a column may carry two predicates).
fn multiset_combinations<T: Clone>(items: &[T], size: usize) -> Vec<Vec<T>> {
    if size == 0 || items.is_empty() {
        return Vec::new();
    }
    // Enumerate non-decreasing index sequences of the requested length.
    let mut out = Vec::new();
    let mut indices = vec![0usize; size];
    loop {
        out.push(indices.iter().map(|&i| items[i].clone()).collect());
        // Advance to the next non-decreasing sequence.
        let mut pos = size;
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            if indices[pos] + 1 < items.len() {
                indices[pos] += 1;
                for j in pos + 1..size {
                    indices[j] = indices[pos];
                }
                break;
            }
        }
    }
}

/// All `size`-element combinations of `items`, preserving input order.
fn combinations<T: Clone>(items: &[T], size: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    let mut indices: Vec<usize> = (0..size).collect();
    if size == 0 || size > items.len() {
        return out;
    }
    loop {
        out.push(indices.iter().map(|&i| items[i].clone()).collect());
        // Advance the combination indices.
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if indices[i] != i + items.len() - size {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        indices[i] += 1;
        for j in i + 1..size {
            indices[j] = indices[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::test_fixtures::movie_db;
    use duoquest_nlq::{HeuristicGuidance, Literal, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::QueryBuilder;

    #[test]
    fn combinations_enumerate_correctly() {
        let items = vec![1, 2, 3, 4];
        assert_eq!(combinations(&items, 1).len(), 4);
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 3).len(), 4);
        assert_eq!(combinations(&items, 4).len(), 1);
        assert_eq!(combinations(&items, 5).len(), 0);
        assert_eq!(combinations(&items, 2)[0], vec![1, 2]);
    }

    #[test]
    fn first_decision_is_the_clause_set() {
        let db = movie_db();
        let nlq = Nlq::new("movies before 1995");
        let children =
            enum_next_step(&PartialQuery::empty(), &db, &nlq, &DuoquestConfig::fast()).unwrap();
        assert_eq!(children.len(), 8);
        assert!(matches!(children[0].0, Choice::Clauses(_)));
    }

    #[test]
    fn perfect_oracle_with_tsq_finds_gold_query_first() {
        let db = movie_db();
        let schema = db.schema();
        // Gold: SELECT movies.name FROM movies WHERE movies.year < 1995
        let gold = QueryBuilder::new(schema)
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let model = NoisyOracleGuidance::with_config(gold.clone(), 1, OracleConfig::perfect());
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![crate::tsq::TsqCell::text("Forrest Gump")]);
        let mut found: Vec<SelectSpec> = Vec::new();
        let stats =
            enumerate(&db, &nlq, &model, Some(&tsq), &DuoquestConfig::fast(), |spec, _conf, _t| {
                found.push(spec);
                found.len() < 5
            });
        assert!(!found.is_empty(), "stats: {stats:?}");
        assert!(duoquest_sql::queries_equivalent(&found[0], &gold));
        assert!(stats.emitted >= 1);
        assert!(stats.expanded > 0);
        assert!(stats.rounds > 0);
        assert!(stats.total_pruned() > 0);
    }

    #[test]
    fn heuristic_guidance_also_finds_simple_query() {
        let db = movie_db();
        let schema = db.schema();
        let gold = QueryBuilder::new(schema)
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals(
            "show the names of movies from before 1995",
            vec![Literal::number(1995.0)],
        );
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![crate::tsq::TsqCell::text("Forrest Gump")]);
        let model = HeuristicGuidance::new();
        let mut matched = false;
        enumerate(&db, &nlq, &model, Some(&tsq), &DuoquestConfig::fast(), |spec, _c, _t| {
            if duoquest_sql::queries_equivalent(&spec, &gold) {
                matched = true;
                false
            } else {
                true
            }
        });
        assert!(matched);
    }

    #[test]
    fn without_tsq_more_candidates_survive() {
        let db = movie_db();
        let schema = db.schema();
        let gold = QueryBuilder::new(schema)
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let model = NoisyOracleGuidance::with_config(gold, 1, OracleConfig::perfect());
        let tsq = TableSketchQuery::with_types(vec![DataType::Text]);
        let mut config = DuoquestConfig::fast();
        config.max_candidates = 30;
        let mut with_tsq = 0usize;
        enumerate(&db, &nlq, &model, Some(&tsq), &config, |_s, _c, _t| {
            with_tsq += 1;
            true
        });
        let mut without_tsq = 0usize;
        enumerate(&db, &nlq, &model, None, &config, |_s, _c, _t| {
            without_tsq += 1;
            true
        });
        assert!(without_tsq >= with_tsq);
    }

    #[test]
    fn emitted_confidences_are_valid_probability_products() {
        let db = movie_db();
        let schema = db.schema();
        let gold = QueryBuilder::new(schema)
            .select("actor.name")
            .filter("actor.birth_yr", CmpOp::Gt, 1960)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("actors born after 1960", vec![Literal::number(1960.0)]);
        let model = NoisyOracleGuidance::new(gold, 11);
        let mut confidences: Vec<f64> = Vec::new();
        enumerate(&db, &nlq, &model, None, &DuoquestConfig::fast(), |_s, c, _t| {
            confidences.push(c);
            confidences.len() < 10
        });
        assert!(!confidences.is_empty());
        // Confidence scores are products of normalized per-decision scores, so
        // each lies in (0, 1]. Emission order follows Algorithm 1 (candidates
        // are emitted as soon as they are generated), so strict monotonicity is
        // not required — only validity of the scores.
        for c in &confidences {
            assert!(*c > 0.0 && *c <= 1.0, "invalid confidence {c}");
        }
    }

    #[test]
    fn max_candidates_budget_respected() {
        let db = movie_db();
        let schema = db.schema();
        let gold = QueryBuilder::new(schema).select("movies.name").build().unwrap();
        let nlq = Nlq::new("all movie names");
        let model = NoisyOracleGuidance::new(gold, 2);
        let mut config = DuoquestConfig::fast();
        config.max_candidates = 3;
        let mut seen = 0usize;
        let stats = enumerate(&db, &nlq, &model, None, &config, |_s, _c, _t| {
            seen += 1;
            true
        });
        assert!(seen <= 3);
        assert!(stats.emitted <= 3);
    }

    #[test]
    fn cache_counters_and_stage_timings_are_populated() {
        let db = movie_db();
        let schema = db.schema();
        let gold = QueryBuilder::new(schema)
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let model = NoisyOracleGuidance::with_config(gold, 1, OracleConfig::perfect());
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![crate::tsq::TsqCell::text("Forrest Gump")]);
        db.clear_probe_cache();
        let stats =
            enumerate(&db, &nlq, &model, Some(&tsq), &DuoquestConfig::fast(), |_s, _c, _t| true);
        // Sibling states repeat row-wise probes; the memo cache must be
        // absorbing the repeats (column-wise ones never reach it twice).
        assert!(stats.cache_misses > 0, "stats: {stats:?}");
        assert!(stats.cache_hits > 0, "stats: {stats:?}");
        assert!(stats.cache_hit_rate() > 0.0);
        // The cheap stages run at least as often as the expensive probes.
        let timings = &stats.stage_timings;
        assert!(timings.calls_of(VerifyStage::Clauses) > 0);
        assert!(timings.calls_of(VerifyStage::ByColumn) > 0);
        assert!(
            timings.calls_of(VerifyStage::Clauses) >= timings.calls_of(VerifyStage::ByRow),
            "cascade should invoke cheap stages at least as often as expensive ones: {}",
            timings.summary()
        );
        assert!(timings.total() > Duration::ZERO);
    }

    /// Satellite contract: a cancellation fires **between `step()` calls**
    /// (at the next round boundary), not only inside chunks — the driver
    /// never needs a chunk in flight to notice it.
    #[test]
    fn round_driver_honors_cancel_between_steps() {
        let db = movie_db();
        let gold = QueryBuilder::new(db.schema()).select("movies.name").build().unwrap();
        let nlq = Nlq::new("all movie names");
        let model = NoisyOracleGuidance::new(gold, 2);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        config.max_candidates = usize::MAX;
        config.max_expansions = usize::MAX;
        let cancel = AtomicBool::new(false);
        let env = StepEnv {
            db: &db,
            nlq: &nlq,
            model: &model,
            config: &config,
            cancel: &cancel,
            clock: &SYSTEM_CLOCK,
        };
        let mut driver = RoundDriver::new(Instant::now(), None);

        // Run exactly one full round (submit + provide), then fire the token
        // with the driver idle between steps.
        let mut rounds_completed = 0;
        loop {
            match driver.step(&env) {
                StepOutcome::SubmitChunks(jobs) => {
                    let joins = JoinPlanner::new(&db, config.join_extension_depth);
                    let verifier = Verifier::new(&db, None, &nlq.literals, config.semantic_rules);
                    let round_env = RoundEnv {
                        joins: &joins,
                        verifier: &verifier,
                        deadline: None,
                        cancel: &cancel,
                        clock: &SYSTEM_CLOCK,
                        trace: false,
                    };
                    driver.provide(vec![process_chunk(jobs, &round_env)]);
                    rounds_completed += 1;
                    if rounds_completed == 1 {
                        cancel.store(true, Ordering::SeqCst);
                    }
                }
                StepOutcome::Emit { .. } => {}
                StepOutcome::Done => break,
            }
        }
        let stats = driver.into_stats();
        assert!(stats.cancelled, "cancel must be observed at the next round boundary");
        assert!(!stats.exhausted);
        // One round ran; at most its drain could have submitted one more
        // beam, but the cancel fired before any further submit.
        assert!(rounds_completed <= 2, "cancel ignored for {rounds_completed} rounds");
    }

    /// Satellite contract: an external deadline in the past stops the driver
    /// at the next `step()`, before any further work is submitted.
    #[test]
    fn round_driver_honors_deadline_between_steps() {
        let db = movie_db();
        let gold = QueryBuilder::new(db.schema()).select("movies.name").build().unwrap();
        let nlq = Nlq::new("all movie names");
        let model = NoisyOracleGuidance::new(gold, 2);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        let cancel = AtomicBool::new(false);
        let env = StepEnv {
            db: &db,
            nlq: &nlq,
            model: &model,
            config: &config,
            cancel: &cancel,
            clock: &SYSTEM_CLOCK,
        };
        // A deadline that is already in the past when the first step runs.
        let start = Instant::now();
        let mut driver = RoundDriver::new(start, Some(start - Duration::from_millis(1)));
        match driver.step(&env) {
            StepOutcome::Done => {}
            _ => panic!("an expired deadline must stop the driver before any round"),
        }
        let stats = driver.into_stats();
        assert!(stats.deadline_exceeded);
        assert_eq!(stats.rounds, 0, "no round may start past the deadline");
        assert!(!stats.cancelled);
    }

    /// Protocol guard: stepping while chunk results are outstanding is a
    /// caller bug and must panic rather than corrupt the round state.
    #[test]
    fn round_driver_rejects_step_while_awaiting_results() {
        let db = movie_db();
        let gold = QueryBuilder::new(db.schema()).select("movies.name").build().unwrap();
        let nlq = Nlq::new("all movie names");
        let model = NoisyOracleGuidance::new(gold, 2);
        let config = DuoquestConfig::fast();
        let cancel = AtomicBool::new(false);
        let env = StepEnv {
            db: &db,
            nlq: &nlq,
            model: &model,
            config: &config,
            cancel: &cancel,
            clock: &SYSTEM_CLOCK,
        };
        let mut driver = RoundDriver::new(Instant::now(), None);
        let StepOutcome::SubmitChunks(_jobs) = driver.step(&env) else {
            panic!("first step submits the root expansion");
        };
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            driver.step(&env);
        }));
        assert!(panicked.is_err(), "step with an outstanding round must panic");
    }

    #[test]
    fn parallel_rounds_match_sequential_exploration() {
        let db = movie_db();
        let schema = db.schema();
        let gold = QueryBuilder::new(schema)
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let model = NoisyOracleGuidance::new(gold, 9);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None; // keep the comparison deterministic
        config.max_candidates = 25;

        let run = |config: &DuoquestConfig| {
            let mut emitted: Vec<(String, f64)> = Vec::new();
            enumerate(&db, &nlq, &model, None, config, |spec, conf, _t| {
                emitted.push((format!("{spec:?}"), conf));
                true
            });
            emitted
        };

        let sequential = run(&config);
        let parallel = run(&config.clone().with_parallelism(4, 1));
        // Same beam width ⇒ identical emission order, regardless of workers.
        assert_eq!(sequential, parallel);
        assert!(!sequential.is_empty());
    }
}
