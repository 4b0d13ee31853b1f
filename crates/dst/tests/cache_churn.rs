//! Probe-cache churn under simulated byte-budget pressure, driven from DST
//! scenarios: every hit answers with a bit stored for its spec since the
//! last clear, hit/miss counters are conserved across however many segment
//! rotations the churn forces, and the whole observation log is bit-for-bit
//! reproducible.
//!
//! The contracts themselves live in the harness (`check_cache_plan`); these
//! tests pin the pressure patterns that most plausibly break them.

use duoquest_dst::{check_cache_plan, generate, CacheOp, CachePlan};

/// The generator's own cache plans — the exact churn the sweep replays —
/// hold every cache contract on a page of seeds, including plenty whose
/// `SetMaxBytes` ops squeeze the budget mid-plan.
#[test]
fn generated_cache_plans_hold_every_contract() {
    let mut squeezed = 0u32;
    for seed in 0..300u64 {
        let plan = generate(seed).cache;
        if plan.ops.iter().any(|op| matches!(op, CacheOp::SetMaxBytes { bytes } if *bytes < 1024)) {
            squeezed += 1;
        }
        if let Err(violation) = check_cache_plan(&plan) {
            panic!("seed {seed} cache plan violated: {violation}");
        }
    }
    assert!(squeezed > 10, "generator no longer exercises tight budgets ({squeezed} plans)");
}

/// Targeted rotation storm: a budget small enough that every insert forces
/// segment pressure, with get-hits interleaved so the served-answer oracle
/// has observations on both sides of each rotation, and each spec's answer
/// flipping from round to round. Counters must balance at the end no matter
/// how many generations aged out.
#[test]
fn answers_and_counters_survive_a_rotation_storm() {
    let mut ops = Vec::new();
    for round in 0..8u8 {
        ops.push(CacheOp::SetMaxBytes { bytes: 256 + 128 * u32::from(round % 3) });
        for spec in 0..6u8 {
            ops.push(CacheOp::Insert { spec, exists: (spec + round) % 2 == 0 });
            ops.push(CacheOp::Get { spec });
            ops.push(CacheOp::Insert { spec, exists: (spec + round) % 2 == 1 });
            ops.push(CacheOp::Get { spec });
        }
    }
    check_cache_plan(&CachePlan { ops }).unwrap();
}

/// Clears reset what the served-answer oracle allows but never the
/// counters: lookups across clears still reconcile with hits + misses.
#[test]
fn counters_are_conserved_across_clears() {
    let mut ops = Vec::new();
    for round in 0..4u8 {
        for spec in 0..6u8 {
            ops.push(CacheOp::Insert { spec, exists: (spec + round) % 2 == 0 });
            ops.push(CacheOp::Get { spec });
        }
        ops.push(CacheOp::Clear);
        for spec in 0..6u8 {
            ops.push(CacheOp::Get { spec });
        }
    }
    check_cache_plan(&CachePlan { ops }).unwrap();
}
