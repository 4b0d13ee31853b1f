//! Delta-debugging minimization of failing scenarios.
//!
//! Given a scenario that fails and a predicate that re-checks failure, the
//! shrinker greedily removes requests (largest chunks first, ddmin-style),
//! then simplifies each surviving request field by field (drop the cancel,
//! the panic, the deadline, the drop-flag; zero the submit time; shrink the
//! candidate budget), then simplifies the net walk (remove connections,
//! tame each surviving connection's action to a plain read), then
//! normalizes the scenario (collapse the alternate service shape onto the
//! reference, shrink the pools, drop the cache and net plans). Every
//! candidate mutation is kept only if the scenario *still fails*; the loop
//! runs to a fixpoint, bounded by an evaluation budget so a flaky failure
//! cannot spin forever.

use crate::scenario::{CachePlan, ConnAction, NetPlan, Scenario, ServicePlan};

/// Shrink `scenario` while `still_fails` holds, evaluating the predicate at
/// most `max_evaluations` times. Returns the smallest failing scenario
/// found (the input itself if nothing smaller still fails).
pub fn shrink<F>(scenario: Scenario, still_fails: F, max_evaluations: usize) -> Scenario
where
    F: Fn(&Scenario) -> bool,
{
    let mut best = scenario;
    let mut evaluations = 0usize;
    let accept = |candidate: &Scenario, best: &mut Scenario, evaluations: &mut usize| {
        if *evaluations >= max_evaluations || *candidate == *best {
            return false;
        }
        *evaluations += 1;
        if still_fails(candidate) {
            *best = candidate.clone();
            true
        } else {
            false
        }
    };

    loop {
        let mut progressed = false;

        // Phase 1: remove requests, halving the chunk size down to single
        // requests. Removing a chunk keeps indexes of later requests moving,
        // so retry from the same position after a successful cut.
        let mut chunk = best.requests.len().max(1).div_ceil(2);
        while chunk >= 1 {
            let mut start = 0;
            while start < best.requests.len() {
                let end = (start + chunk).min(best.requests.len());
                let mut candidate = best.clone();
                candidate.requests.drain(start..end);
                if accept(&candidate, &mut best, &mut evaluations) {
                    progressed = true;
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        // Phase 2: per-request field simplification.
        for index in 0..best.requests.len() {
            type FieldEdit = fn(&mut crate::scenario::RequestPlan);
            const EDITS: &[FieldEdit] = &[
                |r| r.cancel_at_us = None,
                |r| r.panic_after = None,
                |r| r.deadline_us = None,
                |r| r.drop_ticket = false,
                |r| r.submit_at_us = 0,
                |r| r.priority = 0,
                |r| r.task = 0,
                |r| r.max_candidates = 1,
            ];
            for edit in EDITS {
                let mut candidate = best.clone();
                edit(&mut candidate.requests[index]);
                if accept(&candidate, &mut best, &mut evaluations) {
                    progressed = true;
                }
            }
        }

        // Phase 2b: net-walk simplification — remove connections one at a
        // time, then tame surviving actions to a plain read.
        let mut index = 0;
        while index < best.net.connections.len() {
            let mut candidate = best.clone();
            candidate.net.connections.remove(index);
            if accept(&candidate, &mut best, &mut evaluations) {
                progressed = true;
            } else {
                index += 1;
            }
        }
        for index in 0..best.net.connections.len() {
            let mut candidate = best.clone();
            candidate.net.connections[index].action = ConnAction::ReadAll;
            if accept(&candidate, &mut best, &mut evaluations) {
                progressed = true;
            }
        }

        // Phase 3: scenario-level normalization.
        type ScenarioEdit = fn(&mut Scenario);
        const EDITS: &[ScenarioEdit] = &[
            |s| s.cache = CachePlan::default(),
            |s| s.net = NetPlan::default(),
            |s| s.final_advance_us = 0,
            |s| s.alternate = s.reference,
            |s| {
                s.reference = ServicePlan {
                    workers: 1,
                    max_live: s.requests.len().max(1),
                    max_queued: s.requests.len(),
                }
            },
            |s| s.alternate.workers = 1,
            |s| s.single_flight = true,
        ];
        for edit in EDITS {
            let mut candidate = best.clone();
            edit(&mut candidate);
            if accept(&candidate, &mut best, &mut evaluations) {
                progressed = true;
            }
        }

        if !progressed || evaluations >= max_evaluations {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::generate;

    /// A synthetic predicate: "fails" whenever any request has a cancel
    /// scheduled. The shrinker must converge on exactly one request whose
    /// only surviving feature is the cancel.
    #[test]
    fn converges_on_the_single_triggering_feature() {
        let mut scenario = (0..)
            .map(generate)
            .find(|s| s.requests.len() >= 4 && s.requests.iter().any(|r| r.cancel_at_us.is_some()))
            .expect("some small seed generates a multi-request scenario with a cancel");
        scenario.seed = 0;
        let fails = |s: &Scenario| s.requests.iter().any(|r| r.cancel_at_us.is_some());
        let shrunk = shrink(scenario, fails, 10_000);
        assert_eq!(shrunk.requests.len(), 1, "shrunk to {:#?}", shrunk);
        let survivor = &shrunk.requests[0];
        assert!(survivor.cancel_at_us.is_some(), "the triggering feature must survive");
        assert_eq!(survivor.panic_after, None);
        assert_eq!(survivor.deadline_us, None);
        assert!(!survivor.drop_ticket);
        assert_eq!(survivor.submit_at_us, 0);
        assert!(shrunk.cache.ops.is_empty(), "the cache plan must shrink away");
        assert_eq!(shrunk.alternate, shrunk.reference, "the alternate shape must collapse");
    }

    /// A predicate that never fails leaves the scenario untouched.
    #[test]
    fn passing_scenarios_do_not_shrink() {
        let scenario = generate(17);
        let shrunk = shrink(scenario.clone(), |_| false, 1_000);
        assert_eq!(shrunk, scenario);
    }
}
