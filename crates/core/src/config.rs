//! Configuration of the GPQE enumeration.

use std::time::Duration;

/// Tunable parameters of the Duoquest engine.
///
/// The flags `guided`, `prune_partial` and `semantic_rules` exist so the
/// ablations of the paper's §5.4.3 (NoGuide, NoPQ) and the NLI baseline can be
/// expressed as configurations of the same engine.
#[derive(Debug, Clone, PartialEq)]
pub struct DuoquestConfig {
    /// Maximum number of states popped from the priority queue before giving up.
    ///
    /// It also bounds the queue's memory without changing the search: a state
    /// ranked below as many others as there are pops left can never be
    /// popped, so the queue drops such states and never holds more than a
    /// quarter above the remaining budget (`remaining + remaining/4 + 64`
    /// states).
    pub max_expansions: usize,
    /// Maximum number of states kept in the priority queue: past it, only the
    /// best `max_states / 2` are kept. The one bound on the queue that can
    /// change what a run emits (the paper's); the drop of unpoppable states
    /// under [`DuoquestConfig::max_expansions`] never does, and this rule
    /// counts the states that drop removed as if they were still queued.
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
}
