//! Proof the harness catches what it claims to catch: deliberately break
//! the determinism contract and watch the oracles flag it and the shrinker
//! reduce the evidence to a minimal scenario.

use duoquest_dst::{
    check_scenario, shrink, CachePlan, CheckOptions, NetPlan, RequestPlan, Scenario, ServicePlan,
    Violation,
};

fn plain_request(submit_at_us: u64) -> RequestPlan {
    RequestPlan {
        task: 0,
        priority: 0,
        max_candidates: 4,
        submit_at_us,
        deadline_us: None,
        cancel_at_us: None,
        drop_ticket: false,
        panic_after: None,
    }
}

/// A busy hand-built scenario: mixed features around at least one plain
/// request that completes in both runs.
fn busy_scenario() -> Scenario {
    let requests = vec![
        RequestPlan { cancel_at_us: Some(700), ..plain_request(100) },
        RequestPlan { deadline_us: Some(1_500), ..plain_request(200) },
        plain_request(300),
        RequestPlan { panic_after: Some(3), ..plain_request(400) },
        RequestPlan { drop_ticket: true, ..plain_request(500) },
    ];
    Scenario {
        seed: 0,
        reference: ServicePlan { workers: 2, max_live: 4, max_queued: 4 },
        alternate: ServicePlan { workers: 3, max_live: 2, max_queued: 4 },
        final_advance_us: 2_000,
        requests,
        cache: CachePlan::default(),
        net: NetPlan::default(),
        single_flight: true,
    }
}

/// An intentionally-injected determinism break (the alternate run scores
/// with a different deterministic model) is caught by the emission oracles
/// and shrunk to a single plain request.
#[test]
fn injected_determinism_break_is_caught_and_shrunk_to_minimum() {
    let broken = CheckOptions { perturb_alternate: true };
    let scenario = busy_scenario();

    let violation = check_scenario(&scenario, &broken)
        .expect_err("a perturbed alternate run must violate an emission oracle");
    assert!(
        matches!(
            violation,
            Violation::EmissionMismatch { .. }
                | Violation::CrossRunMismatch { .. }
                | Violation::StrayCandidate { .. }
        ),
        "expected an emission violation, got: {violation}"
    );

    let shrunk = shrink(scenario, |candidate| check_scenario(candidate, &broken).is_err(), 400);
    assert_eq!(shrunk.requests.len(), 1, "not minimal: {shrunk:#?}");
    let survivor = &shrunk.requests[0];
    assert_eq!(survivor.cancel_at_us, None, "cancel noise survived: {shrunk:#?}");
    assert_eq!(survivor.panic_after, None, "panic noise survived: {shrunk:#?}");
    assert_eq!(survivor.deadline_us, None, "deadline noise survived: {shrunk:#?}");
    assert!(!survivor.drop_ticket, "drop noise survived: {shrunk:#?}");
    assert_eq!(survivor.submit_at_us, 0, "submit offset survived: {shrunk:#?}");
    assert!(shrunk.cache.ops.is_empty());
    // The minimal scenario must still fail, with an emission violation.
    let shrunk_violation =
        check_scenario(&shrunk, &broken).expect_err("the minimized scenario must still violate");
    assert!(
        matches!(
            shrunk_violation,
            Violation::EmissionMismatch { .. }
                | Violation::CrossRunMismatch { .. }
                | Violation::StrayCandidate { .. }
        ),
        "minimized scenario drifted to a different violation class: {shrunk_violation}"
    );
}

/// The same scenario with the fault switch off is clean — the break above
/// came from the injection, not the harness.
#[test]
fn unperturbed_busy_scenario_is_clean() {
    let scenario = busy_scenario();
    if let Err(violation) = check_scenario(&scenario, &CheckOptions::default()) {
        panic!("clean scenario flagged: {violation}");
    }
}
