//! Guided partial query enumeration (GPQE, paper Algorithm 1) as a
//! round-based, resumable engine.
//!
//! The enumerator maintains a priority queue of [`EnumState`]s ordered by
//! confidence (the product of per-decision scores, paper §3.3.3). Each
//! **round** pops the highest-confidence state, scores its next decisions
//! ([`next_decisions`], following the module order of Table 3), builds each
//! child as the popped state plus one decision ([`apply`]), runs progressive
//! join path construction plus the ascending-cost verification cascade over
//! them, pushes the survivors back into the queue and emits the complete
//! queries **in child order**. A round
//! runs where its driver stands — the calling thread (the inline mode,
//! [`enumerate`]) or the [`crate::scheduler::SessionScheduler`] worker that
//! holds the session — so for a fixed configuration the emitted candidate
//! sequence is deterministic: the sequential Algorithm 1 exploration. The
//! one exception is a wall-clock `time_budget`: where the deadline cuts the
//! search depends on machine speed.
//!
//! Verification probes are yes/no questions answered through the database's
//! probe memo cache (`Database::exists_cached_with`,
//! `Database::decide_cached_with`), column-wise ones once per distinct
//! question
//! (the run's [`VerifyPlan`] answers the repeats); the per-run hit/miss
//! counters and the per-stage cascade timings are surfaced in
//! [`EnumerationStats`].

use crate::clock::{Clock, SYSTEM_CLOCK};
use crate::config::DuoquestConfig;
use crate::joinpath::JoinPlanner;
use crate::scheduler::SchedulerRunStats;
use crate::session::SessionControl;
use crate::state::EnumState;
use crate::tsq::TableSketchQuery;
use crate::verify::{StageTimings, Verifier, VerifyOutcome, VerifyPlan, VerifyStage};
use duoquest_db::{
    AggFunc, CmpOp, DataType, Database, LogicalOp, OrderKey, RunCacheCounters, SelectSpec, Value,
};
use duoquest_nlq::{
    Choice, GuidanceContext, GuidanceModel, GuidancePlan, HavingChoice, LiteralKind, Nlq,
    OrderChoice,
};
use duoquest_obs::Trace;
use duoquest_sql::{
    ClauseSet, PartialHaving, PartialOrder, PartialPredicate, PartialQuery, PartialSelectItem,
    SelectColumn, Slot,
};
use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering;
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
    /// Synthesis rounds executed. A round is one pop, so this equals
    /// `expanded`.
    pub rounds: usize,
    /// The most states the frontier held after any round — what a parked
    /// session holds at worst. A function of the configuration, and never
    /// above `max_expansions + max_expansions/4 + 64`: the frontier drops
    /// every state it could not pop within the remaining budget
    /// (`docs/DRIVER.md`, "Frontier").
    pub frontier_peak: usize,
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
    /// Shared-pool observations, when the run was served by a
    /// [`crate::scheduler::SessionScheduler`] — a shared one or a session's
    /// private one (`None` for inline runs).
    pub scheduler: Option<SchedulerRunStats>,
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

    /// Fold a run's probe counters (and the database's retained cache bytes)
    /// into the stats.
    fn record_probe_counters(&mut self, counters: &RunCacheCounters, db: &Database) {
        (self.cache_hits, self.cache_misses) = counters.snapshot();
        self.cache_bytes = db.cache_stats().bytes;
        (self.rows_scanned, self.rows_short_circuited) = counters.scan_snapshot();
        (self.index_lookups, self.rows_via_index, self.probes_bailed_empty) =
            counters.index_snapshot();
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
/// The inputs are borrowed, so the run cannot be handed to a pool: it runs
/// inline on the calling thread, in the sequential Algorithm 1 exploration
/// order.
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
    let control = SessionControl::new();
    let inputs = RunInputs::borrowed(db, nlq, tsq, model, config, &control);
    run_inline(&inputs, &mut on_candidate)
}

/// The inline mode: the whole run on the calling thread — zero threads, zero
/// queue, `stats.scheduler == None`. It stands where a pool worker stands
/// ([`RoundDriver::advance`] is the one round loop), with nobody to yield
/// to.
pub(crate) fn run_inline(
    inputs: &RunInputs<'_>,
    sink: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
) -> EnumerationStats {
    let plan = RunPlan::new(inputs);
    let mut driver = RoundDriver::new();
    while let Advance::Yield = driver.advance(&plan, inputs, sink) {}
    driver.take_stats(&plan, inputs)
}

/// The inputs of one run, borrowed per call. Neither [`RunPlan`] nor
/// [`RoundDriver`] owns any of them, so the same run state serves a caller
/// holding `&Database` on its stack and a session holding `Arc<Database>` in
/// a scheduler slot — parked anywhere, resumed by whichever worker takes the
/// session next.
pub(crate) struct RunInputs<'a> {
    pub(crate) db: &'a Database,
    pub(crate) nlq: &'a Nlq,
    pub(crate) tsq: Option<&'a TableSketchQuery>,
    pub(crate) model: &'a dyn GuidanceModel,
    pub(crate) config: &'a DuoquestConfig,
    /// The session's cancellation token — checked at every round boundary
    /// and between a round's children, so a cancel takes effect mid-round —
    /// and its external deadline.
    pub(crate) control: &'a SessionControl,
    /// The session's time source: deadline checks, emission timestamps and
    /// stage timings read this instead of the real clock (virtual under the
    /// simulation harness).
    pub(crate) clock: &'a dyn Clock,
    /// The session's request trace, when observability is on: each
    /// [`RoundDriver::advance`] records its burst's `rounds` and
    /// `verify:<stage>` spans into it. `None` costs one
    /// branch per burst and nothing else.
    pub(crate) trace: Option<&'a Arc<Trace>>,
}

impl<'a> RunInputs<'a> {
    /// The inputs of a run over data the caller only borrows: on the real
    /// clock, untraced.
    pub(crate) fn borrowed(
        db: &'a Database,
        nlq: &'a Nlq,
        tsq: Option<&'a TableSketchQuery>,
        model: &'a dyn GuidanceModel,
        config: &'a DuoquestConfig,
        control: &'a SessionControl,
    ) -> Self {
        RunInputs { db, nlq, tsq, model, config, control, clock: &SYSTEM_CLOCK, trace: None }
    }
}

/// What a run compiles from its inputs, once, and every round of the run
/// reads by reference, on whichever worker holds the session — the half of a
/// run the verifier borrows while the [`RoundDriver`] mutates (only its
/// verdicts and counters change, through cells). The run's third compiled
/// input, the guidance plan, is prepared lazily by the driver and parks with
/// it.
pub(crate) struct RunPlan {
    /// The run's join path construction (every round opens a memo over it).
    joins: JoinPlanner,
    /// The run's column-wise verdicts, read and filled by every round of the
    /// run and by no other run (see [`VerifyPlan`]).
    verdicts: VerifyPlan,
    /// Per-run probe-cache attribution: the shared database's cache is hit
    /// by every live session, these counters record only this run's traffic.
    counters: RunCacheCounters,
    /// Anchor of emission timestamps and `stats.elapsed`.
    start: Instant,
    /// The merged wall-clock cut-off: the earlier of the configuration's
    /// `time_budget` and any external [`SessionControl`] deadline.
    deadline: Option<Instant>,
}

impl RunPlan {
    /// The plan of one run starting now, its verdicts unknown and its
    /// counters at zero.
    pub(crate) fn new(env: &RunInputs<'_>) -> Self {
        let start = env.clock.now();
        RunPlan {
            joins: JoinPlanner::new(env.db, env.config.join_extension_depth),
            verdicts: VerifyPlan::new(env.db, env.tsq),
            counters: RunCacheCounters::default(),
            start,
            deadline: [env.config.time_budget.map(|budget| start + budget), env.control.deadline()]
                .into_iter()
                .flatten()
                .min(),
        }
    }

    /// The run's verifier over `env`: it borrows the run's verdicts, which
    /// it answers column-wise checks from, and the run's counters, which it
    /// attributes its probes to. Assembled once per [`RoundDriver::advance`].
    pub(crate) fn verifier<'a>(&'a self, env: &RunInputs<'a>) -> Verifier<'a> {
        let run = (Cow::Borrowed(&self.verdicts), Cow::Borrowed(&self.counters));
        // Partial queries are only verified when partial pruning is enabled; complete
        // queries always get the full cascade (this is what makes NoPQ equivalent to
        // the naive chaining approach of paper §3.5).
        Verifier::for_run(env.db, env.tsq, &env.nlq.literals, env.config.semantic_rules, run)
            .with_prune_partial(env.config.prune_partial)
            .with_clock(env.clock)
    }
}

/// A scored decision of phase 1, before any child exists: the decision and
/// the child's confidence.
type Decision = (Choice, f64);

/// A child that passed verification and goes into the frontier: its query,
/// boxed once it survived, and its confidence.
type Survivor = (Box<PartialQuery>, f64);

/// Consecutive rounds one [`RoundDriver::advance`] may run before it must
/// yield. Without this bound a driven session would run to completion inside
/// one `Resume` unit — monopolizing a pool worker past the weighted
/// round-robin and (on a 1-worker pool) starving every other session for
/// its whole runtime. Yielding is pure scheduling:
/// it never changes what the session emits.
///
/// It is also the trace's granularity: a traced run records one `rounds`
/// span (with its per-stage `verify:<stage>` shares) per burst of up to this
/// many rounds, not per round.
const INLINE_ROUND_YIELD: u32 = 32;

/// Why a [`RoundDriver::advance`] returned.
pub(crate) enum Advance {
    /// [`INLINE_ROUND_YIELD`] rounds ran: give whoever else wants this
    /// thread a turn, then advance again.
    Yield,
    /// The run is over (exhausted, budget reached, stopped by its consumer,
    /// cancelled or past the deadline). Collect the counters with
    /// [`RoundDriver::take_stats`].
    Done,
}

/// Where a traced [`RoundDriver::advance`] burst began: the clock, and the
/// run's counters whose deltas across the burst become its spans.
struct BurstStart {
    at: Instant,
    rounds: usize,
    timings: StageTimings,
}

/// The synthesis round loop as a **resumable state machine**: owns the
/// frontier (priority queue), the per-run statistics and the guidance plan,
/// but none of the session's inputs (those arrive by borrow in each
/// [`RunInputs`]). A round is one call:
///
/// ```text
///   let verifier = plan.verifier(&inputs);
///   while driver.round(&plan, &inputs, &verifier, sink) {}
///   let stats = driver.take_stats(&plan, &inputs);
/// ```
///
/// [`RoundDriver::advance`] is that loop with a yield bound, and what every
/// caller runs. Between two `advance` calls the driver is inert and can be
/// parked indefinitely — this is what lets a scheduler resume thousands of
/// live sessions from a fixed worker pool instead of parking one OS thread
/// per session. Cancellation and the deadline are honored at every round
/// boundary, in addition to the checks between a round's children. See
/// `docs/DRIVER.md` for the full contract.
pub(crate) struct RoundDriver {
    /// The frontier: every queued state the run can still pop, and at most a
    /// quarter more (see [`RoundDriver::bound_frontier`]).
    heap: BinaryHeap<EnumState>,
    /// How many states the frontier would hold had it never dropped a state
    /// it could not pop: one up per push, one down per pop, `max_states / 2`
    /// when the lossy `max_states` rule fires. That rule reads this count, so
    /// it fires at the same rounds whatever the lossless cut dropped.
    queued: usize,
    sequence: u64,
    stats: EnumerationStats,
    /// The run is over. Also set for the duration of a round, so a round
    /// that panics (a guidance model, the verifier, a consumer sink) leaves
    /// the driver refusing further rounds instead of resuming without the
    /// state that round had popped.
    finished: bool,
    /// The guidance model compiled against this run's (NLQ, schema) pair:
    /// unset until the first guided round prepares it, then `Some(None)`
    /// for a model with nothing to precompute (phase 1 calls its `score`).
    /// Owned by the driver, so it parks and resumes with it.
    guidance: Option<Option<Box<dyn GuidancePlan>>>,
}

impl RoundDriver {
    /// A driver at the root state of a run.
    pub(crate) fn new() -> Self {
        let mut heap = BinaryHeap::new();
        heap.push(EnumState::root());
        RoundDriver {
            heap,
            queued: 1,
            sequence: 0,
            stats: EnumerationStats::default(),
            finished: false,
            guidance: None,
        }
    }

    /// The driver of a run served by a pool of `workers` threads: its stats
    /// carry the run's pool observations (see [`RoundDriver::pool_stats`]).
    pub(crate) fn on_pool(mut self, workers: usize) -> Self {
        self.stats.scheduler =
            Some(SchedulerRunStats { pool_workers: workers, ..SchedulerRunStats::default() });
        self
    }

    /// The pool observations of a run on a pool, for whoever parks it to
    /// record into.
    ///
    /// # Panics
    ///
    /// Panics if the driver was not built [`RoundDriver::on_pool`].
    pub(crate) fn pool_stats(&mut self) -> &mut SchedulerRunStats {
        self.stats.scheduler.as_mut().expect("a parked driver was built on_pool")
    }

    /// Run rounds on the spot until the run is over or
    /// [`INLINE_ROUND_YIELD`] of them have run. The one round loop: a pool
    /// worker holding a session and the inline caller both stand here, and
    /// the one place a run records its trace — one burst per call.
    pub(crate) fn advance(
        &mut self,
        plan: &RunPlan,
        env: &RunInputs<'_>,
        sink: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
    ) -> Advance {
        let verifier = plan.verifier(env);
        let traced = env.trace.map(|trace| {
            let start = BurstStart {
                at: env.clock.now(),
                rounds: self.stats.rounds,
                timings: self.stats.stage_timings,
            };
            (trace, start)
        });
        let mut exit = Advance::Yield;
        for _ in 0..INLINE_ROUND_YIELD {
            if !self.round(plan, env, &verifier, sink) {
                exit = Advance::Done;
                break;
            }
        }
        if let Some((trace, start)) = traced {
            self.record_burst(trace, start, env);
        }
        exit
    }

    /// Record the burst that began at `start`, if it ran a round: one
    /// `rounds` span over it, then its per-stage `verify:<stage>` shares,
    /// synthesized from the run's counters' deltas and laid out one after
    /// another from the burst's start so they nest inside it (verify calls
    /// interleave across children and rounds and have no single interval of
    /// their own).
    fn record_burst(&self, trace: &Trace, start: BurstStart, env: &RunInputs<'_>) {
        if self.stats.rounds == start.rounds {
            return;
        }
        trace.record_span("rounds", start.at, env.clock.now());
        let timings = &self.stats.stage_timings;
        let mut cursor = trace.offset_us(start.at);
        for stage in VerifyStage::ALL {
            if timings.calls_of(stage) == start.timings.calls_of(stage) {
                continue;
            }
            let width =
                (timings.duration_of(stage) - start.timings.duration_of(stage)).as_micros() as u64;
            trace.record_span_at(stage.span_name(), cursor, cursor + width);
            cursor += width;
        }
    }

    /// The run's final counters, once [`RoundDriver::round`] has returned
    /// `false`: the end-of-run epilogue of every way to run a session.
    /// Leaves the frontier where it is, so the caller can hand the result on
    /// before paying for the drop of the queued states.
    pub(crate) fn take_stats(&mut self, plan: &RunPlan, env: &RunInputs<'_>) -> EnumerationStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.elapsed = env.clock.now().saturating_duration_since(plan.start);
        // Per-run counters: concurrent sessions on the same shared database
        // can't pollute each other's statistics.
        stats.record_probe_counters(&plan.counters, env.db);
        stats
    }

    /// One round of Algorithm 1 — the cooperative checks, the pop,
    /// child expansion, verification, emission, survivors pushed — and
    /// whether the run goes on. `false` means it is over (search exhausted,
    /// a budget reached, stopped by `sink`, cancelled or past the deadline),
    /// and so does every later call.
    pub(crate) fn round(
        &mut self,
        plan: &RunPlan,
        env: &RunInputs<'_>,
        verifier: &Verifier<'_>,
        sink: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
    ) -> bool {
        // Cleared again only where this round ends with the run going on.
        if std::mem::replace(&mut self.finished, true) {
            return false;
        }
        // `queued`, not the heap: once the budget is spent the cut may have
        // emptied the heap, and the checks below must still run as they
        // would over the states it dropped.
        if self.queued == 0 {
            // Natural end of the search (never reached via an early exit:
            // those leave directly from their check below).
            self.stats.exhausted = self.stats.expanded < env.config.max_expansions;
            return false;
        }
        if env.control.is_cancelled() {
            self.stats.cancelled = true;
            return false;
        }
        if plan.deadline.map(|d| env.clock.now() > d).unwrap_or(false) {
            self.stats.deadline_exceeded = true;
            return false;
        }

        // Pop the best state, within the expansion budget.
        if self.stats.expanded >= env.config.max_expansions {
            return false; // expansion budget reached with work left
        }
        let Some(state) = self.heap.pop() else { return false };
        self.stats.expanded += 1;
        self.stats.rounds += 1;
        self.queued -= 1;

        let decisions = self.expand(&state, env);
        // With nothing to verify the round is only its bookkeeping below.
        let goes_on = decisions.is_empty()
            || self.verify_and_emit(&state, decisions, plan, env, verifier, sink);
        if goes_on {
            self.bound_frontier(env.config);
            self.finished = false;
        }
        goes_on
    }

    /// Phase 1 (cheap): produce and score every decision of the popped
    /// state. Scoring reads only the decisions, so no child is built here.
    fn expand(&mut self, state: &EnumState, env: &RunInputs<'_>) -> Vec<Decision> {
        // A state with no decision left is complete (it was verified and
        // emitted when generated); a state with an empty decision set is a
        // dead end. Both just drop out of the frontier.
        let Some(choices) = next_decisions(state.pq(), env.db, env.nlq, env.config) else {
            return Vec::new();
        };
        if choices.is_empty() {
            return Vec::new();
        }
        let raw = if env.config.guided {
            // Prepared on the first round rather than at construction: here a
            // panicking model poisons only this session, and the work lands
            // on the thread that runs the round.
            let ctx = GuidanceContext { nlq: env.nlq, schema: env.db.schema() };
            match self.guidance.get_or_insert_with(|| env.model.prepare(&ctx)) {
                Some(plan) => plan.score(&choices),
                None => env.model.score(&ctx, &choices),
            }
        } else {
            vec![1.0; choices.len()]
        };
        let scores = duoquest_nlq::guidance::normalize_scores(&raw);
        choices
            .into_iter()
            .zip(scores)
            .map(|(choice, score)| (choice, state.confidence() * score))
            .collect()
    }

    /// Phases 2 and 3, and whether the run goes on. Phase 2 verifies the
    /// round's children: per decision, the child is written into one scratch
    /// query (its parent's slots, shared, plus the decision), then come the
    /// join-independent stages of the cascade, join path attachment, and the
    /// stages over the join path per join variant. Only a survivor is boxed,
    /// by moving the scratch out. Phase 3 is the only place candidates leave
    /// the driver: every emission is delivered to `sink` in child order, then
    /// the survivors are pushed — the order of the serial Algorithm 1 loop.
    /// A `sink` returning `false` stops the run at that emission, exactly
    /// like the candidate budget: nothing more is emitted or pushed, and the
    /// round's counters are those of the whole round.
    fn verify_and_emit(
        &mut self,
        state: &EnumState,
        decisions: Vec<Decision>,
        plan: &RunPlan,
        env: &RunInputs<'_>,
        verifier: &Verifier<'_>,
        sink: &mut dyn FnMut(SelectSpec, f64, Duration) -> bool,
    ) -> bool {
        if let Some(pool) = &mut self.stats.scheduler {
            pool.units_inline += 1;
        }
        let cancel = env.control.flag_ref();
        let mut joins = plan.joins.memo();
        let mut timings = StageTimings::default();
        // Complete queries that survived the full cascade, and partial ones
        // to push back onto the frontier, both in child order.
        let mut emissions: Vec<(SelectSpec, f64)> = Vec::new();
        let mut survivors: Vec<Survivor> = Vec::new();
        let mut scratch = PartialQuery::empty();
        // The remaining children were skipped: the session's cancellation
        // token fired, or the wall-clock deadline passed.
        let (mut cancelled, mut timed_out) = (false, false);
        for (done, (choice, confidence)) in decisions.into_iter().enumerate() {
            // Honor cancellation between children (an atomic load — cheap
            // enough per child) so cancel takes effect mid-round, not at the
            // next one.
            if cancel.load(Ordering::Relaxed) {
                cancelled = true;
                break;
            }
            // Honor the wall-clock budget inside large fan-outs as well.
            if done % 32 == 31 && plan.deadline.map(|d| env.clock.now() > d).unwrap_or(false) {
                timed_out = true;
                break;
            }
            // The clause, semantic, type and column-wise stages never read the
            // join path: they run once per child, before paying for join path
            // construction, and eliminate the bulk of the fan-out. Under NoPQ a
            // partial child is not examined at all, so a variant that its join
            // path completes still owes the whole cascade.
            scratch.clone_from(state.pq());
            apply(&mut scratch, &choice);
            let prefixed = verifier.examines(&scratch);
            if prefixed {
                if let VerifyOutcome::Fail(stage) = verifier.verify_prefix(&scratch, &mut timings) {
                    self.stats.generated += 1;
                    self.stats.record(stage, 1);
                    continue;
                }
            }
            // Attach candidate join paths (progressive join path construction):
            // one variant per path the child still needs, the child itself when
            // its join path already covers it. Each pays the stages that execute
            // over its join path.
            let mut settle = |pq: PartialQuery| {
                self.stats.generated += 1;
                let outcome = if prefixed {
                    verifier.verify_joined(&pq, &mut timings)
                } else {
                    verifier.verify_timed(&pq, &mut timings)
                };
                match outcome {
                    VerifyOutcome::Fail(stage) => self.stats.record(stage, 1),
                    VerifyOutcome::Pass if pq.is_complete() => {
                        let spec = pq.to_spec().expect("complete partial query lowers");
                        emissions.push((spec, confidence));
                    }
                    VerifyOutcome::Pass => survivors.push((Box::new(pq), confidence)),
                }
            };
            if let Some(paths) = joins.paths(&scratch) {
                // No path drops the child; the last variant takes the scratch
                // instead of a clone.
                let Some((last_path, paths)) = paths.split_last() else { continue };
                for join in paths {
                    settle(PartialQuery { join: Some(join.clone()), ..scratch.clone() });
                }
                scratch.join = Some(last_path.clone());
            }
            settle(std::mem::take(&mut scratch));
        }
        self.stats.stage_timings.merge(&timings);
        for (spec, confidence) in emissions {
            self.stats.emitted += 1;
            let emitted_at = env.clock.now().saturating_duration_since(plan.start);
            // A consumer stop or the candidate budget ends the run right
            // here, skipping the round's survivors.
            if !sink(spec, confidence, emitted_at)
                || self.stats.emitted >= env.config.max_candidates
            {
                return false;
            }
        }
        // The lossless cut (see `bound_frontier`) runs as the survivors go
        // in, so a large fan-out never grows the heap past its bound.
        self.queued += survivors.len();
        let remaining = env.config.max_expansions.saturating_sub(self.stats.expanded);
        let bound = remaining.saturating_add(remaining / 4).saturating_add(64);
        for (pq, confidence) in survivors {
            self.sequence += 1;
            self.heap.push(EnumState::new(pq, confidence, self.sequence));
            if self.heap.len() > bound {
                self.keep_best(remaining);
            }
        }
        self.stats.cancelled |= cancelled;
        self.stats.deadline_exceeded |= timed_out;
        !(cancelled || timed_out)
    }

    /// Bound the frontier after a round, by two rules:
    ///
    /// * a lossless cut, applied as the survivors are pushed: past
    ///   `remaining + remaining/4 + 64` states, where `remaining` is the
    ///   expansion budget left, keep the best `remaining`. Every pop takes the
    ///   best state and a better state leaves only by being popped, so a
    ///   state with `remaining` better ones is never popped: dropping it
    ///   changes no emission and no counter (`docs/DRIVER.md`, "Frontier").
    ///   At least `remaining/4 + 64` pushes separate two cuts, each
    ///   O(1.25·remaining), so a push costs amortised O(1);
    /// * the paper's lossy one, here: past `max_states` queued, keep the best
    ///   `max_states / 2` — read through `queued`, so it fires at the rounds
    ///   it would fire without the cut.
    ///
    /// The frontier therefore never holds more than
    /// `max_expansions + max_expansions/4 + 64` states, and
    /// `stats.frontier_peak` records the most it held after a round.
    fn bound_frontier(&mut self, config: &DuoquestConfig) {
        if self.queued > config.max_states {
            self.queued = config.max_states / 2;
            self.keep_best(self.queued);
        }
        self.stats.frontier_peak = self.stats.frontier_peak.max(self.heap.len());
    }

    /// Keep the `n` best states of the frontier, in O(frontier): the order is
    /// total — ties break by `sequence` — so which `n` is never in doubt.
    fn keep_best(&mut self, n: usize) {
        if self.heap.len() <= n {
            return;
        }
        let mut states = std::mem::take(&mut self.heap).into_vec();
        if n > 0 {
            states.select_nth_unstable_by(n - 1, |a, b| b.cmp(a));
        }
        states.truncate(n);
        self.heap = BinaryHeap::from(states);
    }
}

/// `EnumNextStep`: produce the candidate children of the next inference
/// decision, following the module order of paper Table 3 — each of
/// [`next_decisions`] applied to a clone of `pq`. Returns `None` when the
/// partial query has no remaining decision.
#[allow(clippy::type_complexity)]
pub fn enum_next_step(
    pq: &PartialQuery,
    db: &Database,
    nlq: &Nlq,
    config: &DuoquestConfig,
) -> Option<Vec<(Choice, PartialQuery)>> {
    let decisions = next_decisions(pq, db, nlq, config)?;
    let children = decisions.into_iter().map(|choice| {
        let mut child = pq.clone();
        apply(&mut child, &choice);
        (choice, child)
    });
    Some(children.collect())
}

/// The candidates of `pq`'s next inference decision, in the module order of
/// paper Table 3, without building a child: [`apply`] turns one into a child.
/// Returns `None` when the partial query has no remaining decision.
pub fn next_decisions(
    pq: &PartialQuery,
    db: &Database,
    nlq: &Nlq,
    config: &DuoquestConfig,
) -> Option<Vec<Choice>> {
    let schema = db.schema();

    // 1. KW module: which clauses exist.
    if pq.clauses.is_hole() {
        return Some(ClauseSet::all().into_iter().map(Choice::Clauses).collect());
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
        return Some(subsets.into_iter().map(Choice::SelectColumns).collect());
    }
    let select = pq.select.as_ref().expect("select decided above");

    // 3. AGG module: one aggregate decision per projected item.
    if let Some(item) = select.iter().find(|i| i.agg.is_hole()) {
        let column = *item.col.as_ref().expect("column decided before aggregate");
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
        return Some(candidates.into_iter().map(|agg| Choice::Aggregate { column, agg }).collect());
    }

    // 4. COL module (WHERE): predicate columns (key columns excluded, as above).
    // Multisets are generated — the same column may carry two predicates, as in
    // the paper's motivating example (`year < 1995 OR year > 2000`).
    if clauses.where_clause && pq.where_predicates.is_hole() {
        let options: Vec<_> = schema.all_columns().filter(|c| !schema.is_key_column(*c)).collect();
        let mut out = Vec::new();
        for size in 1..=config.max_where_predicates.min(options.len()) {
            out.extend(multiset_combinations(&options, size).into_iter().map(Choice::WhereColumns));
        }
        return Some(out);
    }

    // 5. OP module: one operator decision per predicate.
    if clauses.where_clause {
        if let Some(preds) = pq.where_predicates.as_ref() {
            if let Some(pred) = preds.iter().find(|p| p.op.is_hole()) {
                let column = *pred.col.as_ref().expect("predicate column decided first");
                let ops: &[CmpOp] = match schema.column(column).dtype {
                    DataType::Number => {
                        &[CmpOp::Eq, CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Between]
                    }
                    DataType::Text => &[CmpOp::Eq, CmpOp::Like],
                };
                return Some(ops.iter().map(|&op| Choice::Operator { column, op }).collect());
            }
            // 6. Constant binding per predicate, from the tagged literals.
            if let Some(pred) = preds.iter().find(|p| p.value.is_hole()) {
                let column = *pred.col.as_ref().expect("column decided");
                let op = *pred.op.as_ref().expect("operator decided");
                let dtype = schema.column(column).dtype;
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
                            out.push(Choice::PredicateValue {
                                column,
                                op,
                                value: Value::Number(lo),
                                value2: Some(Value::Number(hi)),
                            });
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
                        out.push(Choice::PredicateValue { column, op, value, value2: None });
                    }
                }
                return Some(out);
            }
            // 7. AND/OR module.
            if preds.len() > 1 && pq.where_op.is_hole() {
                return Some(vec![
                    Choice::Connective(LogicalOp::And),
                    Choice::Connective(LogicalOp::Or),
                ]);
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
            out.extend(combinations(&options, size).into_iter().map(Choice::GroupBy));
        }
        return Some(out);
    }

    // 9. HAVING module.
    if clauses.group_by && pq.having.is_hole() {
        // "No HAVING" candidate.
        let mut out = vec![Choice::Having(None)];
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
            for item in select.iter() {
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
                        let value = value.clone();
                        out.push(Choice::Having(Some(HavingChoice { agg, col, op, value })));
                    }
                }
            }
        }
        return Some(out);
    }

    // 10. DESC/ASC + LIMIT module.
    if clauses.order_by && pq.order_by.is_hole() {
        let mut keys: Vec<OrderKey> = Vec::new();
        for item in select.iter() {
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
                for &limit in &limits {
                    out.push(Choice::OrderBy(Some(OrderChoice { key, desc, limit })));
                }
            }
        }
        return Some(out);
    }

    None
}

/// Write one decision of [`next_decisions`] into `pq`: the one place a slot
/// is filled. A per-item decision (aggregate, operator, constant) fills the
/// first hole of its list, which is the one it was generated for. Only the
/// written slot is copied out of an `Arc` it shares with siblings.
///
/// # Panics
///
/// Panics if a per-item decision finds no hole to fill: `choice` must be one
/// of `next_decisions(pq, ..)`.
pub fn apply(pq: &mut PartialQuery, choice: &Choice) {
    match choice {
        Choice::Clauses(clauses) => pq.clauses = Slot::Filled(*clauses),
        Choice::SelectColumns(cols) => {
            pq.select =
                Slot::Filled(cols.iter().map(|&c| PartialSelectItem::with_column(c)).collect())
        }
        Choice::Aggregate { agg, .. } => {
            first_hole(&mut pq.select, |i| i.agg.is_hole()).agg = Slot::Filled(*agg)
        }
        Choice::WhereColumns(cols) => {
            pq.where_predicates =
                Slot::Filled(cols.iter().map(|&c| PartialPredicate::with_column(c)).collect());
            if cols.len() <= 1 {
                pq.where_op = Slot::Filled(LogicalOp::And);
            }
        }
        Choice::Operator { op, .. } => {
            first_hole(&mut pq.where_predicates, |p| p.op.is_hole()).op = Slot::Filled(*op)
        }
        Choice::PredicateValue { value, value2, .. } => {
            let pred = first_hole(&mut pq.where_predicates, |p| p.value.is_hole());
            pred.value = Slot::Filled(value.clone());
            pred.value2 = value2.clone();
        }
        Choice::Connective(op) => pq.where_op = Slot::Filled(*op),
        Choice::GroupBy(cols) => pq.group_by = Slot::Filled(cols.as_slice().into()),
        Choice::Having(having) => {
            pq.having = Slot::Filled(having.as_ref().map(|h| {
                Arc::new(PartialHaving {
                    agg: Slot::Filled(h.agg),
                    col: Slot::Filled(h.col),
                    op: Slot::Filled(h.op),
                    value: Slot::Filled(h.value.clone()),
                })
            }))
        }
        Choice::OrderBy(order) => {
            pq.order_by = Slot::Filled(order.as_ref().map(|o| {
                Arc::new(PartialOrder {
                    key: Slot::Filled(o.key),
                    desc: Slot::Filled(o.desc),
                    limit: Slot::Filled(o.limit),
                })
            }))
        }
    }
}

/// The first item of a filled list slot that `is_hole` picks, copied out of
/// the `Arc` the slot shares with siblings first.
fn first_hole<T: Clone>(slot: &mut Slot<Arc<[T]>>, is_hole: impl Fn(&T) -> bool) -> &mut T {
    let Slot::Filled(items) = slot else { panic!("a per-item decision follows its list's") };
    let items = Arc::make_mut(items);
    let idx = items.iter().position(is_hole).expect("a per-item decision has a hole to fill");
    &mut items[idx]
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
        // The cheap stages run at least as often as the expensive probes.
        let timings = &stats.stage_timings;
        assert!(timings.calls_of(VerifyStage::Clauses) > 0);
        assert!(timings.calls_of(VerifyStage::ByColumn) > 0);
        assert!(
            timings.calls_of(VerifyStage::Clauses) >= timings.calls_of(VerifyStage::ByRow),
            "cascade should invoke cheap stages at least as often as expensive ones: {timings:?}"
        );
        assert!(timings.total() > Duration::ZERO);
    }

    /// Satellite contract: a cancellation fires **between rounds** (at the
    /// next round boundary), not only between a round's children — the
    /// driver never needs a round under way to notice it.
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
        let control = SessionControl::new();
        let env = RunInputs::borrowed(&db, &nlq, None, &model, &config, &control);
        let plan = RunPlan::new(&env);
        let verifier = plan.verifier(&env);
        let mut driver = RoundDriver::new();

        // Run exactly one full round, then fire the token with the driver
        // idle between rounds.
        let mut rounds_completed = 0;
        while driver.round(&plan, &env, &verifier, &mut |_, _, _| true) {
            rounds_completed += 1;
            if rounds_completed == 1 {
                control.cancel();
            }
        }
        let stats = driver.take_stats(&plan, &env);
        assert!(stats.cancelled, "cancel must be observed at the next round boundary");
        assert!(!stats.exhausted);
        assert_eq!(rounds_completed, 1, "cancel ignored for {rounds_completed} rounds");
    }

    /// Satellite contract: an external deadline in the past stops the driver
    /// at the next round boundary, before any further work is done.
    #[test]
    fn round_driver_honors_deadline_between_steps() {
        let db = movie_db();
        let gold = QueryBuilder::new(db.schema()).select("movies.name").build().unwrap();
        let nlq = Nlq::new("all movie names");
        let model = NoisyOracleGuidance::new(gold, 2);
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        // A deadline that is already in the past when the first round runs.
        let control =
            SessionControl::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let env = RunInputs::borrowed(&db, &nlq, None, &model, &config, &control);
        let plan = RunPlan::new(&env);
        let mut driver = RoundDriver::new();
        assert!(
            !driver.round(&plan, &env, &plan.verifier(&env), &mut |_, _, _| true),
            "an expired deadline must stop the driver before any round"
        );
        let stats = driver.take_stats(&plan, &env);
        assert!(stats.deadline_exceeded);
        assert_eq!(stats.rounds, 0, "no round may start past the deadline");
        assert!(!stats.cancelled);
    }

    /// A guidance model whose `score` panics on its `fuse`-th call.
    struct FusedGuidance {
        calls: std::sync::atomic::AtomicUsize,
        fuse: usize,
    }

    impl GuidanceModel for FusedGuidance {
        fn score(&self, _ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.fuse {
                panic!("guidance model blew its fuse");
            }
            vec![1.0; candidates.len()]
        }
    }

    /// A round that panics leaves the driver finished: whoever caught the
    /// panic cannot resume a run whose popped state was never settled, and
    /// the counters up to the panic are still there to collect.
    #[test]
    fn round_driver_is_finished_after_a_panicking_round() {
        let db = movie_db();
        let nlq = Nlq::new("all movie names");
        let model = FusedGuidance { calls: Default::default(), fuse: 3 };
        let config = DuoquestConfig::fast();
        let control = SessionControl::new();
        let env = RunInputs::borrowed(&db, &nlq, None, &model, &config, &control);
        let plan = RunPlan::new(&env);
        let verifier = plan.verifier(&env);
        let mut driver = RoundDriver::new();
        let mut sink = |_: SelectSpec, _: f64, _: Duration| true;

        assert!(driver.round(&plan, &env, &verifier, &mut sink));
        assert!(driver.round(&plan, &env, &verifier, &mut sink));
        let third = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            driver.round(&plan, &env, &verifier, &mut sink)
        }));
        assert!(third.is_err(), "the third round scores through the blown fuse");
        assert!(!driver.round(&plan, &env, &verifier, &mut sink), "a panicked run is over");
        assert_eq!(model.calls.load(Ordering::Relaxed), 3, "the refused round did no work");
        let stats = driver.take_stats(&plan, &env);
        assert_eq!(stats.rounds, 3);
        assert!(!stats.exhausted && !stats.cancelled && !stats.deadline_exceeded);
    }
}
