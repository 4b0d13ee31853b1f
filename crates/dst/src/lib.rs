//! Deterministic simulation testing (DST) for the Duoquest serving stack.
//!
//! The whole stack — engine, scheduler pool, serving layer — reads time
//! through the [`Clock`](duoquest_core::Clock) trait, so this crate can run
//! fully randomized multi-tenant workloads on a
//! [`SimClock`](duoquest_core::SimClock) (manual-advance virtual time) and
//! hold them to oracles that real-clock
//! tests cannot state, let alone check:
//!
//! * deadlines beyond the end of the virtual timeline **never** fire, and
//!   no reported latency exceeds the timeline — real time cannot leak in;
//! * completed requests emit **byte-identically** to a solo single-worker
//!   run, whatever the pool size, priorities, admission pressure, cancel
//!   storms or injected panics around them;
//! * the service always drains back to zero live/queued slots and its
//!   lifecycle counters balance exactly.
//!
//! The pieces:
//!
//! * [`generate`] maps a `u64` seed to a [`Scenario`] — a pure function, so
//!   a seed is a complete replay token;
//! * [`check_scenario`] executes a scenario twice (reference vs alternate
//!   service shape) plus a deterministic probe-cache churn plan and a
//!   connection-lifecycle walk over the real TCP front (a [`NetPlan`]:
//!   connect / submit / stall / close / remote-cancel, held to content
//!   and conservation oracles), and returns the first [`Violation`];
//! * [`shrink`] delta-debugs a failing scenario down to a minimal one that
//!   still fails;
//! * [`check_seed`] / [`sweep`] wrap the above for the test suites: on
//!   failure they produce a [`Failure`] whose `Display` is a full report —
//!   violation, minimized scenario, and the exact replay command.
//!
//! The sweep entry point is `tests/sweep.rs`; knobs:
//!
//! * `DST_SEEDS` — seeds per round (default 200);
//! * `DST_ROUNDS` — rounds; round `r` covers seeds `r*DST_SEEDS ..`;
//! * `DST_REPLAY` — run exactly one seed, verbosely.

#![warn(missing_docs)]

mod cache;
mod exec;
mod netwalk;
mod scenario;
mod shrink;
mod violation;

pub use cache::check_cache_plan;
pub use exec::{check_scenario, CheckOptions, Observed, RunRecord};
pub use netwalk::check_net_plan;
pub use scenario::{
    generate, CacheOp, CachePlan, ConnAction, ConnectionPlan, NetPlan, RequestPlan, Scenario,
    ServicePlan, MAX_REQUESTS, TASK_COUNT,
};
pub use shrink::shrink;
pub use violation::{RunLabel, Violation};

use std::fmt;

/// Evaluation budget handed to the shrinker by [`check_seed`] — enough for
/// a fixpoint on [`MAX_REQUESTS`]-sized scenarios, small enough to keep a
/// failing sweep's runtime bounded.
pub const SHRINK_BUDGET: usize = 400;

/// A seed whose scenario violated an oracle, minimized and ready to print.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The seed that produced the failing scenario.
    pub seed: u64,
    /// The violation the *original* scenario produced.
    pub violation: Violation,
    /// The scenario as generated from the seed.
    pub scenario: Scenario,
    /// The minimized scenario (equal to `scenario` if nothing smaller
    /// still failed).
    pub shrunk: Scenario,
    /// The violation the minimized scenario produces.
    pub shrunk_violation: Violation,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DST oracle violation at seed {}", self.seed)?;
        writeln!(f, "  {}", self.violation)?;
        writeln!(
            f,
            "minimized ({} of {} requests):",
            self.shrunk.requests.len(),
            self.scenario.requests.len()
        )?;
        writeln!(f, "  {}", self.shrunk_violation)?;
        writeln!(f, "{:#?}", self.shrunk)?;
        writeln!(f, "replay: {}", replay_command(self.seed))
    }
}

/// The shell command that replays one seed verbosely.
pub fn replay_command(seed: u64) -> String {
    format!("DST_REPLAY={seed} cargo test -p duoquest-dst --test sweep -- --nocapture")
}

/// Generate, check, and — on violation — shrink one seed's scenario.
pub fn check_seed(seed: u64) -> Result<(), Box<Failure>> {
    check_seed_with(seed, &CheckOptions::default())
}

/// [`check_seed`] with explicit options (fault-injection switches).
pub fn check_seed_with(seed: u64, options: &CheckOptions) -> Result<(), Box<Failure>> {
    let scenario = generate(seed);
    let Err(violation) = check_scenario(&scenario, options) else {
        return Ok(());
    };
    let shrunk = shrink(
        scenario.clone(),
        |candidate| check_scenario(candidate, options).is_err(),
        SHRINK_BUDGET,
    );
    let shrunk_violation =
        check_scenario(&shrunk, options).err().unwrap_or_else(|| violation.clone());
    Err(Box::new(Failure { seed, violation, scenario, shrunk, shrunk_violation }))
}

/// Check a range of seeds, stopping at the first failure. Returns the
/// number of seeds that passed.
pub fn sweep(seeds: impl IntoIterator<Item = u64>) -> Result<usize, Box<Failure>> {
    let mut passed = 0;
    for seed in seeds {
        check_seed(seed)?;
        passed += 1;
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_command_embeds_the_seed() {
        assert!(replay_command(42).contains("DST_REPLAY=42"));
        assert!(replay_command(42).contains("duoquest-dst"));
    }

    #[test]
    fn a_single_seed_checks_clean() {
        assert!(check_seed(0).is_ok(), "{}", check_seed(0).unwrap_err());
    }
}
