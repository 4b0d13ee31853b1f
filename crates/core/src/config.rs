//! Configuration of the GPQE enumeration.

use std::time::Duration;

/// When a surviving complete query is handed to the consumer.
///
/// Both policies emit the **identical candidate sequence** (same set, same
/// order — equal-score ties pinned by child order); they differ only in when
/// within a round an emission is delivered. See `docs/DRIVER.md` for the
/// any-k frontier contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmissionPolicy {
    /// Emissions are delivered during the round's phase-3 merge, after every
    /// verification chunk of the round has completed. The historical — and
    /// byte-identical — default.
    #[default]
    RoundBarrier,
    /// Any-k frontier emission: a candidate is delivered the moment its
    /// confidence provably dominates every unexpanded state (the frontier
    /// heap's top, every not-yet-merged job of the in-flight round, and the
    /// current chunk's still-unpushed survivors) — typically mid-round, as
    /// soon as the contiguous chunk prefix containing it completes. The
    /// emitted sequence is exactly the `RoundBarrier` sequence; only the
    /// delivery time moves earlier.
    AnyK,
}

/// Tunable parameters of the Duoquest engine.
///
/// The flags `guided`, `prune_partial` and `semantic_rules` exist so the
/// ablations of the paper's §5.4.3 (NoGuide, NoPQ) and the NLI baseline can be
/// expressed as configurations of the same engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DuoquestConfig {
    /// Maximum number of states popped from the priority queue before giving up.
    pub max_expansions: usize,
    /// Maximum number of states kept in the priority queue (lowest-confidence
    /// states are evicted beyond this).
    pub max_states: usize,
    /// Stop after this many candidate queries have been emitted.
    pub max_candidates: usize,
    /// Wall-clock budget for one synthesis call (the paper uses 60 s per task).
    pub time_budget: Option<Duration>,
    /// Maximum number of projected columns considered by the COL module.
    pub max_select_columns: usize,
    /// Maximum number of WHERE predicates.
    pub max_where_predicates: usize,
    /// Maximum number of GROUP BY columns.
    pub max_group_columns: usize,
    /// Maximum recursion depth of the FK-extension step of progressive join
    /// path construction (Algorithm 2 lines 10–12).
    pub join_extension_depth: usize,
    /// Whether enumeration is guided by the model's confidence scores
    /// (disable for the NoGuide ablation).
    pub guided: bool,
    /// Whether partial queries are verified against the TSQ during enumeration
    /// (disable for the NoPQ ablation, which verifies only complete queries).
    pub prune_partial: bool,
    /// Whether the semantic pruning rules of Table 4 are applied.
    pub semantic_rules: bool,
    /// Number of top-confidence states popped per synthesis round. `1`
    /// reproduces the strictly best-first exploration order of paper
    /// Algorithm 1; larger beams expose more child-expansion work per round
    /// to the worker pool (still deterministic for a fixed value).
    pub beam_width: usize,
    /// Worker threads of the private pool a session without an attached
    /// scheduler runs on (`Duoquest::session`, `SynthesisSession`). `1` — the
    /// default — means no pool: a blocking run is inline on the calling
    /// thread; `0` means one worker per available CPU. It applies to
    /// sessions only: the borrowed entry points (`Duoquest::synthesize`,
    /// `enumerate`) cannot hand `&Database` to a pool and always run inline,
    /// and a session attached to a shared scheduler uses that pool's size.
    /// Absent a `time_budget`, the candidate set is independent of this
    /// value — workers change wall-clock, not results. (A wall-clock budget
    /// is the one intentionally non-deterministic cut-off: which children
    /// are verified before the deadline depends on machine speed, and under
    /// a pool also on chunking.)
    pub workers: usize,
    /// When emissions are delivered to the consumer (see [`EmissionPolicy`]).
    /// `RoundBarrier` is the byte-identical default; `AnyK` delivers the same
    /// sequence earlier (mid-round) and is what interactive requests opt
    /// into for time-to-first-candidate.
    pub emission: EmissionPolicy,
}

impl Default for DuoquestConfig {
    fn default() -> Self {
        DuoquestConfig {
            max_expansions: 20_000,
            max_states: 100_000,
            max_candidates: 100,
            time_budget: Some(Duration::from_secs(60)),
            max_select_columns: 3,
            max_where_predicates: 2,
            max_group_columns: 2,
            join_extension_depth: 1,
            guided: true,
            prune_partial: true,
            semantic_rules: true,
            beam_width: 1,
            workers: 1,
            emission: EmissionPolicy::RoundBarrier,
        }
    }
}

impl DuoquestConfig {
    /// A configuration suited for unit tests and examples: small budgets, fast.
    pub fn fast() -> Self {
        DuoquestConfig {
            max_expansions: 4_000,
            max_states: 20_000,
            max_candidates: 50,
            time_budget: Some(Duration::from_secs(5)),
            ..Default::default()
        }
    }

    /// The NoGuide ablation: breadth-first enumeration (uniform scores) with
    /// partial query pruning still enabled (paper §5.4.3).
    pub fn no_guide(mut self) -> Self {
        self.guided = false;
        self
    }

    /// The NoPQ ablation: guided enumeration but verification only on complete
    /// queries — equivalent to naively chaining an NLI with a PBE verifier
    /// (paper §3.5 and §5.4.3).
    pub fn no_partial_pruning(mut self) -> Self {
        self.prune_partial = false;
        self
    }

    /// Plain NLI behaviour: no TSQ-independent semantic pruning either.
    pub fn without_semantic_rules(mut self) -> Self {
        self.semantic_rules = false;
        self
    }

    /// Enable the parallel synthesis core: a beam of `beam_width` states per
    /// round, and — for sessions, see [`DuoquestConfig::workers`] — a private
    /// pool of `workers` threads (`workers = 0` sizes it to the machine).
    pub fn with_parallelism(mut self, workers: usize, beam_width: usize) -> Self {
        self.workers = workers;
        self.beam_width = beam_width.max(1);
        self
    }

    /// Opt into any-k frontier emission (see [`EmissionPolicy::AnyK`]).
    pub fn with_emission_policy(mut self, emission: EmissionPolicy) -> Self {
        self.emission = emission;
        self
    }

    /// Worker-pool size after resolving `workers = 0` to the machine size.
    pub fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_guided_and_pruning() {
        let c = DuoquestConfig::default();
        assert!(c.guided);
        assert!(c.prune_partial);
        assert!(c.semantic_rules);
        assert_eq!(c.max_select_columns, 3);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!DuoquestConfig::default().no_guide().guided);
        assert!(!DuoquestConfig::default().no_partial_pruning().prune_partial);
        assert!(!DuoquestConfig::default().without_semantic_rules().semantic_rules);
        assert!(DuoquestConfig::fast().max_expansions < DuoquestConfig::default().max_expansions);
    }

    #[test]
    fn parallelism_configuration() {
        let c = DuoquestConfig::default();
        assert_eq!(c.beam_width, 1);
        assert_eq!(c.workers, 1);
        assert_eq!(c.effective_workers(), 1);
        let p = c.with_parallelism(4, 8);
        assert_eq!(p.effective_workers(), 4);
        assert_eq!(p.beam_width, 8);
        let auto = DuoquestConfig::default().with_parallelism(0, 0);
        assert!(auto.effective_workers() >= 1);
        assert_eq!(auto.beam_width, 1);
    }
}
