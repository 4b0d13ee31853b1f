//! A parameterized simulated user.
//!
//! The paper's user studies (16 participants, 5-minute budget per task) measure
//! task success rate, time per trial and number of examples entered. Those
//! quantities are functions of (a) how many candidates the participant must
//! inspect before reaching the desired query, (b) how long it takes to type the
//! NLQ and enter examples, and (c) a patience/fatigue threshold. The simulator
//! models exactly those mechanisms; its parameters are documented here rather
//! than hidden in human variability (DESIGN.md §3).

/// Timing and patience parameters of the simulated participant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserModel {
    /// Seconds to articulate and type the NLQ.
    pub nlq_typing_secs: f64,
    /// Seconds to enter one example tuple (autocomplete-assisted).
    pub example_entry_secs: f64,
    /// Seconds to inspect one candidate query (reading the SQL and/or the
    /// 20-row result preview).
    pub candidate_inspect_secs: f64,
    /// Seconds spent reviewing the PBE system's filter checkboxes.
    pub pbe_review_secs: f64,
    /// The participant gives up after inspecting this many candidates.
    pub patience_candidates: usize,
    /// Per-trial wall-clock budget (the studies use 5 minutes).
    pub time_limit_secs: f64,
}

impl Default for UserModel {
    fn default() -> Self {
        UserModel {
            nlq_typing_secs: 30.0,
            example_entry_secs: 15.0,
            candidate_inspect_secs: 12.0,
            pbe_review_secs: 45.0,
            patience_candidates: 12,
            time_limit_secs: 300.0,
        }
    }
}

/// The outcome of one simulated trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Whether the participant selected the desired query within the budget.
    pub success: bool,
    /// Total trial time in seconds (capped at the time limit).
    pub time_secs: f64,
    /// Number of example tuples the participant entered.
    pub examples_used: usize,
}

impl UserModel {
    /// Simulate a Duoquest trial: the participant types the NLQ, enters
    /// `examples` tuples, waits for the system and inspects candidates in rank
    /// order until the desired query appears (rank is `None` when the system
    /// never produced it).
    pub fn duoquest_trial(
        &self,
        gold_rank: Option<usize>,
        system_secs: f64,
        examples: usize,
    ) -> TrialOutcome {
        let setup = self.nlq_typing_secs + examples as f64 * self.example_entry_secs + system_secs;
        self.inspect(gold_rank, setup, examples)
    }

    /// Simulate an NLI trial: NLQ typing only, then candidate inspection.
    pub fn nli_trial(&self, gold_rank: Option<usize>, system_secs: f64) -> TrialOutcome {
        let setup = self.nlq_typing_secs + system_secs;
        self.inspect(gold_rank, setup, 0)
    }

    /// Simulate a PBE trial: the participant enters examples, the system runs,
    /// and the participant reviews the proposed filters. Success requires the
    /// task to be supported and the abduced filters to cover the gold query.
    pub fn pbe_trial(
        &self,
        supported: bool,
        correct: bool,
        examples: usize,
        system_secs: f64,
    ) -> TrialOutcome {
        let time = examples as f64 * self.example_entry_secs + system_secs + self.pbe_review_secs;
        let time = time.min(self.time_limit_secs);
        TrialOutcome {
            success: supported && correct && time < self.time_limit_secs,
            time_secs: time,
            examples_used: examples,
        }
    }

    fn inspect(&self, gold_rank: Option<usize>, setup_secs: f64, examples: usize) -> TrialOutcome {
        match gold_rank {
            Some(rank) if rank <= self.patience_candidates => {
                let time = setup_secs + rank as f64 * self.candidate_inspect_secs;
                if time <= self.time_limit_secs {
                    TrialOutcome { success: true, time_secs: time, examples_used: examples }
                } else {
                    TrialOutcome {
                        success: false,
                        time_secs: self.time_limit_secs,
                        examples_used: examples,
                    }
                }
            }
            _ => {
                // The participant exhausts their patience (or the list) and gives up.
                let time = (setup_secs
                    + self.patience_candidates as f64 * self.candidate_inspect_secs)
                    .min(self.time_limit_secs);
                TrialOutcome { success: false, time_secs: time, examples_used: examples }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duoquest_trial_succeeds_on_good_rank() {
        let user = UserModel::default();
        let t = user.duoquest_trial(Some(1), 2.0, 1);
        assert!(t.success);
        assert!(t.time_secs < 120.0);
        assert_eq!(t.examples_used, 1);
    }

    #[test]
    fn deep_rank_exhausts_patience() {
        let user = UserModel::default();
        let t = user.nli_trial(Some(25), 2.0);
        assert!(!t.success);
        let t = user.nli_trial(None, 2.0);
        assert!(!t.success);
        assert!(t.time_secs <= user.time_limit_secs);
    }

    #[test]
    fn nli_trials_take_longer_for_deeper_ranks() {
        let user = UserModel::default();
        let fast = user.nli_trial(Some(1), 1.0);
        let slow = user.nli_trial(Some(10), 1.0);
        assert!(slow.time_secs > fast.time_secs);
    }

    #[test]
    fn pbe_trial_outcomes() {
        let user = UserModel::default();
        assert!(user.pbe_trial(true, true, 3, 1.0).success);
        assert!(!user.pbe_trial(true, false, 3, 1.0).success);
        assert!(!user.pbe_trial(false, true, 3, 1.0).success);
        assert_eq!(user.pbe_trial(true, true, 4, 1.0).examples_used, 4);
    }

    #[test]
    fn time_budget_is_a_hard_cap() {
        let user = UserModel { candidate_inspect_secs: 100.0, ..Default::default() };
        let t = user.duoquest_trial(Some(10), 0.0, 2);
        assert!(!t.success);
        assert!(t.time_secs <= user.time_limit_secs);
    }
}
