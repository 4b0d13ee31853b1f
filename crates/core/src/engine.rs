//! The Duoquest engine: the public entry point tying together guidance,
//! enumeration and verification.
//!
//! # Architecture: the cache-aware synthesis core
//!
//! Synthesis runs as a sequence of **rounds** over a confidence-ordered
//! frontier (see `crate::enumerate`). One state machine (`RoundDriver`) runs
//! them, from one of two places: **inline** on the calling thread
//! ([`Duoquest::synthesize`], a session's `run`, `run_with` and `stream`) or
//! **parked in a pool** whose workers resume it for a burst of rounds at a
//! time (a session handed to a [`crate::scheduler::SessionScheduler`] with
//! `spawn_driven`). A round never leaves the thread that started it:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!                    │        SynthesisSession  /  Duoquest       │
//!                    │    Database · Nlq · TSQ · model · cfg      │
//!                    └──────────────────┬─────────────────────────┘
//!                                       ▼  lent call by call (RunInputs)
//!                         run start: RunPlan (join planner, verify plan,
//!                                       │  counters, deadline), read by
//!                                       ▼  every round of the run
//!                         first round: model.prepare(nlq, schema) ──► plan
//!                                       │  (owned by the round driver; `None`
//!                                       ▼   = the model has nothing to compile)
//!   frontier (BinaryHeap) ──pop best──► phase 1: expand + score
//!                                       │  EnumNextStep of the popped state,
//!                                       │  children scored through the plan
//!                                       │  (or `model.score` without one)
//!                                       ▼
//!                          phase 2: verify, child by child
//!                          │ the join-independent stages of the
//!                          │ ascending-cost cascade (column-wise checks read
//!                          │ off the run's VerifyPlan), then join paths (one
//!                          │ list per carried join path and tables it lacks,
//!                          │ per round), then the stages over the join path
//!                          │ per variant; probes answered by Database's memo
//!                          │ cache
//!                          ▼
//!                          phase 3: merge, in child order
//!                          │ emit complete queries → stream/callback
//!                          └ push survivors → frontier
//! ```
//!
//! Three layers cooperate:
//!
//! * **db** — [`Database`] is `Send + Sync` and shared by reference (or
//!   `Arc`) across every live session; its probe/result memo cache
//!   (`duoquest_db::ProbeCache`) memoizes the verifier's repeated
//!   `SELECT … LIMIT 1` probes behind sharded locks, with hit/miss/byte
//!   counters surfaced per run in [`EnumerationStats`]. Cache misses run
//!   the streaming operator executor (see `docs/EXECUTOR.md`), whose
//!   limit pushdown stops scanning as soon as a probe's limit is
//!   satisfied — the per-run `rows_scanned`/`rows_short_circuited`
//!   counters in [`EnumerationStats`] make that win observable.
//! * **nlq** — the guidance model is asked for a score for every child of
//!   every popped state, so what it can compute from the run's fixed inputs
//!   it computes once: the driver calls
//!   [`GuidanceModel::prepare`] on its first guided round and phase 1 scores
//!   through the returned plan from then on (bit-identical to
//!   [`GuidanceModel::score`]; the plan is owned by the driver, so it parks
//!   in the scheduler and resumes on any worker with it).
//! * **core** — the round engine pops the highest-confidence state,
//!   verifies its children and merges the results **in child order**, so —
//!   absent a wall-clock `time_budget` — the emitted candidate sequence is a
//!   pure function of the configuration (never of thread scheduling): the
//!   exploration order of paper Algorithm 1.
//!   Like the guidance plan, the join paths of phase 2 are a function of
//!   fixed inputs (the schema, a child's join path and the tables it
//!   lacks), so a round builds each list once (`crate::joinpath`) and its
//!   children copy reference-counted trees out of it — on any schema: where
//!   the join graph has a cycle, one fixed tie rule keeps that function
//!   single-valued. So is "can this column produce that example cell":
//!   the run owns a [`crate::verify::VerifyPlan`] next to its `JoinPlanner`
//!   and its guidance plan, one lazily filled verdict per (cell, column),
//!   and only the first touch of a pair sends a probe to the database. The
//!   cascade's first four stages never read a child's join path, so they run
//!   once per child and only the row-wise stages once per join variant
//!   (`crate::verify`).
//! * **consumers** — [`Duoquest::synthesize`] collects a ranked
//!   [`SynthesisResult`] from borrowed inputs, always inline;
//!   [`crate::session::SynthesisSession`] owns its inputs, so it can also be
//!   handed to a pool, and additionally offers a pulled stream
//!   ([`crate::session::CandidateStream`]) whose first candidate arrives
//!   while enumeration is still in flight.
//!
//! Candidates are deduplicated under canonical equivalence (keeping the
//! highest-confidence copy) and ranked by confidence with a deterministic
//! structural tie-break, so equal-confidence candidates order identically
//! wherever the run stands.

use crate::config::DuoquestConfig;
use crate::enumerate::{run_inline, EnumerationStats, RunInputs};
use crate::tsq::TableSketchQuery;
use duoquest_db::{canonical_key, Database, SelectSpec};
use duoquest_nlq::{GuidanceModel, Nlq};
use duoquest_sql::render_sql;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Duration;

/// One candidate query returned to the user.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The executable query.
    pub spec: SelectSpec,
    /// The confidence score (product of per-decision scores).
    pub confidence: f64,
    /// Position in emission order (0 = first query found).
    pub emit_index: usize,
    /// Wall-clock time at which the candidate was emitted.
    pub emitted_at: Duration,
}

/// The result of one synthesis call.
#[derive(Debug, Clone, Default)]
pub struct SynthesisResult {
    /// Candidates, ranked from highest to lowest confidence.
    pub candidates: Vec<Candidate>,
    /// Enumeration statistics.
    pub stats: EnumerationStats,
}

impl SynthesisResult {
    /// 1-based rank of the gold query among the ranked candidates, if present.
    pub fn rank_of(&self, gold: &SelectSpec) -> Option<usize> {
        let gold = canonical_key(gold);
        self.candidates.iter().position(|c| canonical_key(&c.spec) == gold).map(|i| i + 1)
    }

    /// Whether the gold query appears within the top `k` ranked candidates.
    pub fn in_top_k(&self, gold: &SelectSpec, k: usize) -> bool {
        self.rank_of(gold).map(|r| r <= k).unwrap_or(false)
    }

    /// The time at which the gold query was first emitted, if it was found
    /// (candidates are deduplicated, so at most one is equivalent to it).
    pub fn time_to_find(&self, gold: &SelectSpec) -> Option<Duration> {
        let gold = canonical_key(gold);
        self.candidates.iter().find(|c| canonical_key(&c.spec) == gold).map(|c| c.emitted_at)
    }

    /// Render the ranked candidates as SQL strings.
    pub fn rendered(&self, db: &Database) -> Vec<String> {
        self.candidates.iter().map(|c| render_sql(&c.spec, db.schema())).collect()
    }
}

/// The inline entry behind [`Duoquest::synthesize_with`] and a
/// [`crate::session::SynthesisSession`] without a pool: run the round engine
/// on the calling thread ([`run_inline`]), deduplicate canonically equivalent
/// candidates (keeping the higher-confidence copy), then rank
/// deterministically.
pub(crate) fn synthesize_inline(
    inputs: &RunInputs<'_>,
    mut on_candidate: impl FnMut(&Candidate) -> bool,
) -> SynthesisResult {
    let mut collector = CandidateCollector::new();
    let stats = run_inline(inputs, &mut |spec, confidence, emitted_at| {
        collector.offer(spec, confidence, emitted_at, &mut on_candidate)
    });
    collector.finish(stats)
}

/// The dedup-and-rank state of one run, fed by the run's sink — on the
/// calling thread ([`synthesize_inline`], a pulled stream) or on the pool
/// worker that resumes a parked session (`crate::scheduler`): deduplicate canonically equivalent
/// candidates in emission order, then rank by confidence with a deterministic
/// tie-break. `index` maps each candidate's [`canonical_key`] to its
/// position; it is never iterated, so emission order and ranking ignore it.
#[derive(Default)]
pub(crate) struct CandidateCollector {
    candidates: Vec<Candidate>,
    index: HashMap<Box<[u8]>, usize>,
}

impl CandidateCollector {
    pub(crate) fn new() -> Self {
        CandidateCollector::default()
    }

    /// Record one engine emission, forwarding fresh candidates to the
    /// consumer callback. Returns the consumer's keep-going verdict
    /// (duplicates never stop the run).
    pub(crate) fn offer(
        &mut self,
        spec: SelectSpec,
        confidence: f64,
        emitted_at: Duration,
        on_candidate: &mut dyn FnMut(&Candidate) -> bool,
    ) -> bool {
        // De-duplicate canonically equivalent candidates, keeping the
        // higher-confidence copy.
        let emit_index = self.candidates.len();
        match self.index.entry(canonical_key(&spec)) {
            Entry::Occupied(found) => {
                let existing = &mut self.candidates[*found.get()];
                if confidence > existing.confidence {
                    existing.confidence = confidence;
                }
                return true;
            }
            Entry::Vacant(slot) => slot.insert(emit_index),
        };
        let candidate = Candidate { spec, confidence, emit_index, emitted_at };
        let keep_going = on_candidate(&candidate);
        self.candidates.push(candidate);
        keep_going
    }

    /// Rank and wrap up: by confidence, breaking exact ties by emission
    /// order (earlier-found first). Emission order is itself a pure function
    /// of the configuration — never of where the run stands — so the ranking
    /// is deterministic.
    pub(crate) fn finish(mut self, stats: EnumerationStats) -> SynthesisResult {
        self.candidates.sort_by(|a, b| {
            b.confidence.total_cmp(&a.confidence).then_with(|| a.emit_index.cmp(&b.emit_index))
        });
        SynthesisResult { candidates: self.candidates, stats }
    }
}

/// The dual-specification synthesis engine.
#[derive(Debug, Clone, Default)]
pub struct Duoquest {
    config: DuoquestConfig,
}

impl Duoquest {
    /// Create an engine with an explicit configuration.
    pub fn new(config: DuoquestConfig) -> Self {
        Duoquest { config }
    }

    /// Create an engine with the default configuration.
    pub fn with_defaults() -> Self {
        Duoquest { config: DuoquestConfig::default() }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DuoquestConfig {
        &self.config
    }

    /// Synthesize candidate queries from the dual specification: an NLQ (with
    /// tagged literals) plus an optional TSQ. Returns the ranked candidates.
    ///
    /// The inputs are borrowed, so the run cannot be handed to a worker pool:
    /// it runs inline on the calling thread.
    pub fn synthesize(
        &self,
        db: &Database,
        nlq: &Nlq,
        tsq: Option<&TableSketchQuery>,
        model: &dyn GuidanceModel,
    ) -> SynthesisResult {
        self.synthesize_with(db, nlq, tsq, model, |_c| true)
    }

    /// Streaming variant: `on_candidate` observes candidates in emission order
    /// (highest-confidence first under guided search) and may return `false` to
    /// stop the enumeration early — the paper's front end does exactly this
    /// when the user clicks "Stop Task". Inline, like [`Duoquest::synthesize`].
    pub fn synthesize_with<F>(
        &self,
        db: &Database,
        nlq: &Nlq,
        tsq: Option<&TableSketchQuery>,
        model: &dyn GuidanceModel,
        on_candidate: F,
    ) -> SynthesisResult
    where
        F: FnMut(&Candidate) -> bool,
    {
        let control = crate::session::SessionControl::new();
        let inputs = RunInputs::borrowed(db, nlq, tsq, model, &self.config, &control);
        synthesize_inline(&inputs, on_candidate)
    }

    /// Build an owned [`crate::session::SynthesisSession`] carrying this
    /// engine's configuration — the entry point for streaming consumption and
    /// cross-thread sharing.
    pub fn session(
        &self,
        db: std::sync::Arc<Database>,
        nlq: Nlq,
        model: std::sync::Arc<dyn GuidanceModel>,
    ) -> crate::session::SynthesisSession {
        crate::session::SynthesisSession::new(db, nlq, model).with_config(self.config.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsq::TsqCell;
    use crate::verify::test_fixtures::movie_db;
    use duoquest_db::{CmpOp, DataType};
    use duoquest_nlq::{Choice, GuidanceContext, Literal, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::{queries_equivalent, QueryBuilder};

    fn gold(db: &Database) -> SelectSpec {
        QueryBuilder::new(db.schema())
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap()
    }

    fn nlq() -> Nlq {
        Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)])
    }

    #[test]
    fn dual_specification_ranks_gold_first() {
        let db = movie_db();
        let gold = gold(&db);
        let model = NoisyOracleGuidance::with_config(gold.clone(), 3, OracleConfig::perfect());
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let engine = Duoquest::new(DuoquestConfig::fast());
        let result = engine.synthesize(&db, &nlq(), Some(&tsq), &model);
        assert_eq!(result.rank_of(&gold), Some(1));
        assert!(result.in_top_k(&gold, 1));
        assert!(result.time_to_find(&gold).is_some());
        assert!(!result.rendered(&db).is_empty());
    }

    #[test]
    fn streaming_early_stop() {
        let db = movie_db();
        let gold = gold(&db);
        let model = NoisyOracleGuidance::with_config(gold.clone(), 3, OracleConfig::perfect());
        let engine = Duoquest::new(DuoquestConfig::fast());
        let mut seen = 0;
        let result = engine.synthesize_with(&db, &nlq(), None, &model, |_c| {
            seen += 1;
            seen < 2
        });
        assert!(result.candidates.len() <= 2);
    }

    #[test]
    fn candidates_are_deduplicated_and_sorted() {
        let db = movie_db();
        let gold = gold(&db);
        let model = NoisyOracleGuidance::new(gold.clone(), 5);
        let engine = Duoquest::new(DuoquestConfig::fast());
        let result = engine.synthesize(&db, &nlq(), None, &model);
        for pair in result.candidates.windows(2) {
            assert!(pair[0].confidence >= pair[1].confidence);
        }
        for (i, a) in result.candidates.iter().enumerate() {
            for b in result.candidates.iter().skip(i + 1) {
                assert!(!queries_equivalent(&a.spec, &b.spec));
            }
        }
    }

    #[test]
    fn missing_gold_rank_is_none() {
        let db = movie_db();
        let gold = gold(&db);
        let other = QueryBuilder::new(db.schema()).select("actor.gender").build().unwrap();
        let model = NoisyOracleGuidance::with_config(gold, 3, OracleConfig::perfect());
        let engine = Duoquest::new(DuoquestConfig::fast());
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        let result = engine.synthesize(&db, &nlq(), Some(&tsq), &model);
        assert_eq!(result.rank_of(&other), None);
        assert!(!result.in_top_k(&other, 100));
    }

    #[test]
    fn ranking_is_deterministic_across_runs() {
        let db = movie_db();
        let gold = gold(&db);
        let model = NoisyOracleGuidance::new(gold, 13);
        let engine = Duoquest::new(DuoquestConfig::fast());
        let a = engine.synthesize(&db, &nlq(), None, &model);
        let b = engine.synthesize(&db, &nlq(), None, &model);
        let keys = |r: &SynthesisResult| {
            r.candidates.iter().map(|c| format!("{:?}", c.spec)).collect::<Vec<_>>()
        };
        assert_eq!(keys(&a), keys(&b));
    }

    /// Scores every third choice `+∞` and the rest 1.
    struct InfiniteGuidance;

    impl GuidanceModel for InfiniteGuidance {
        fn score(&self, _ctx: &GuidanceContext<'_>, choices: &[Choice]) -> Vec<f64> {
            (0..choices.len()).map(|i| if i % 3 == 0 { f64::INFINITY } else { 1.0 }).collect()
        }
    }

    /// A model scoring `+∞` never puts a NaN into the frontier's or the
    /// ranking's order: every confidence is finite and the run repeats.
    #[test]
    fn an_infinite_score_ranks_like_any_other() {
        let db = movie_db();
        let mut config = DuoquestConfig::fast();
        config.time_budget = None;
        let engine = Duoquest::new(config);
        let run = || {
            let result = engine.synthesize(&db, &nlq(), None, &InfiniteGuidance);
            assert!(!result.candidates.is_empty());
            for c in &result.candidates {
                assert!((0.0..=1.0).contains(&c.confidence), "confidence {}", c.confidence);
            }
            let candidates: Vec<_> = result
                .candidates
                .iter()
                .map(|c| (format!("{:?}", c.spec), c.confidence.to_bits(), c.emit_index))
                .collect();
            (candidates, result.stats.expanded, result.stats.generated, result.stats.rounds)
        };
        assert_eq!(run(), run());
    }
}
