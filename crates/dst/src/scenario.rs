//! The scenario model and its seeded generator.
//!
//! A [`Scenario`] is plain data: every choice the fuzzer makes is recorded
//! in the struct, so a failing scenario can be printed, shrunk field by
//! field, and replayed without re-deriving anything from the seed. The
//! generator ([`generate`]) is a pure function of the seed — same seed,
//! same scenario, forever — which is what makes a seed a replay token.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound on requests per generated scenario (the shrinker may go
/// lower, never higher).
pub const MAX_REQUESTS: usize = 6;

/// Number of distinct synthesis task fixtures scenarios draw from.
pub const TASK_COUNT: u8 = 3;

/// One complete randomized run description: service shapes for the two
/// runs, a submit/cancel schedule over the virtual timeline, and a
/// probe-cache churn plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The seed this scenario was generated from (0 for hand-built ones).
    pub seed: u64,
    /// Service shape of the reference run.
    pub reference: ServicePlan,
    /// Service shape of the alternate run — different pool size and
    /// admission limits. Pool knobs must never change what a completed
    /// request emits.
    pub alternate: ServicePlan,
    /// Virtual time advanced after the last submit/cancel event, before the
    /// remaining tickets are drained. Deadlines beyond the end of the
    /// timeline must never fire.
    pub final_advance_us: u64,
    /// The request schedule, in submit order.
    pub requests: Vec<RequestPlan>,
    /// Deterministic probe-cache churn (byte-budget pressure) checked
    /// alongside the service runs.
    pub cache: CachePlan,
    /// Connection-lifecycle walk over the TCP front (connect, submit,
    /// stall, close, remote-cancel) checked alongside the service runs.
    pub net: NetPlan,
    /// Whether the **alternate** run's database keeps single-flight probe
    /// sharing enabled (the reference always does). The toggle must never
    /// change results, only how many probe executions happen; the
    /// conservation oracle checks `hits + leaders == lookups` either way.
    pub single_flight: bool,
}

impl Scenario {
    /// Virtual length of the run: the last scheduled event plus the final
    /// advance. The executor never moves the clock past this point.
    pub fn virtual_end_us(&self) -> u64 {
        let last_event = self
            .requests
            .iter()
            .flat_map(|r| [Some(r.submit_at_us), r.cancel_at_us])
            .flatten()
            .max()
            .unwrap_or(0);
        last_event + self.final_advance_us
    }
}

/// The shape of one service instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServicePlan {
    /// Scheduler pool workers.
    pub workers: usize,
    /// Admission limit on concurrently live sessions.
    pub max_live: usize,
    /// Admission queue bound; beyond it requests are shed.
    pub max_queued: usize,
}

/// One request in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestPlan {
    /// Which task fixture (database + NLQ + gold guidance) to submit.
    pub task: u8,
    /// Priority class index (0 interactive, 1 batch, 2 background).
    pub priority: u8,
    /// Engine candidate budget (kept small so scenarios stay fast).
    pub max_candidates: usize,
    /// Virtual submit time.
    pub submit_at_us: u64,
    /// Service deadline relative to submission, if any.
    pub deadline_us: Option<u64>,
    /// Virtual time at which the ticket is cancelled, if any.
    pub cancel_at_us: Option<u64>,
    /// Drop the ticket unwaited after the event walk (drop-cancels-work).
    pub drop_ticket: bool,
    /// Inject a guidance-model panic after this many score calls. Never
    /// combined with `drop_ticket` so the executor can observe the poisoned
    /// session through `Ticket::wait` and keep the books balanced.
    pub panic_after: Option<u32>,
}

/// A deterministic probe-cache churn schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachePlan {
    /// Operations applied in order to one `ProbeCache`.
    pub ops: Vec<CacheOp>,
}

/// One probe-cache operation. Spec indexes address a fixed pool of distinct
/// probe specs; row counts are clamped to the fixture's result sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Memoize a (possibly truncated) result for a spec.
    Insert {
        /// Index into the fixed spec pool.
        spec: u8,
        /// Number of result rows to retain (clamped to the full result).
        rows: u8,
        /// Whether the retained rows are claimed complete.
        exact: bool,
    },
    /// Look a spec up under a row budget (`None` = need the full result).
    Get {
        /// Index into the fixed spec pool.
        spec: u8,
        /// Row budget of the lookup.
        budget: Option<u8>,
    },
    /// Re-budget the cache mid-run (byte-budget churn).
    SetMaxBytes {
        /// New byte budget.
        bytes: u32,
    },
    /// Drop every entry.
    Clear,
}

/// A connection-lifecycle schedule against a real TCP front.
///
/// Unlike the service runs, the net walk cannot live on the virtual clock —
/// it drives real sockets — so its oracles are content and conservation
/// oracles only: completed streams are byte-identical to a solo run,
/// interrupted streams are a strict prefix, and the front plus service
/// always drain back to idle whatever the client did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetPlan {
    /// Connections driven sequentially against one server.
    pub connections: Vec<ConnectionPlan>,
}

/// One client connection of a [`NetPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionPlan {
    /// Which task fixture the submit frame names.
    pub task: u8,
    /// Candidate budget carried in the submit frame.
    pub max_candidates: usize,
    /// What the client does with the stream.
    pub action: ConnAction,
}

/// Client behaviour over one submitted stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnAction {
    /// Read the stream to its terminal event like a well-behaved client.
    ReadAll,
    /// Read until this many candidate lines arrived, then drop the socket
    /// mid-stream — the disconnect-reaps-the-session path.
    CloseAfter(u8),
    /// Read until this many candidate lines arrived, `POST /cancel` the
    /// request from a second connection, then drain to the terminal event.
    CancelThenDrain(u8),
    /// Submit, stall without reading while the run emits into the outbox
    /// and kernel buffers, then read everything — the slow-reader path.
    StallThenRead,
}

/// Generate the scenario for a seed. Pure: the only entropy source is the
/// seeded [`StdRng`], so the mapping seed → scenario is stable across runs,
/// processes and machines.
pub fn generate(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let reference = ServicePlan {
        workers: rng.gen_range(1..=3),
        max_live: rng.gen_range(1..=4),
        max_queued: rng.gen_range(0..=4),
    };
    let alternate = ServicePlan {
        workers: rng.gen_range(1..=4),
        max_live: rng.gen_range(1..=4),
        max_queued: rng.gen_range(0..=4),
    };
    // This draw chose the alternate run's executor access path until the
    // executor stopped taking that instruction. It is still consumed so that
    // every later draw — and with it every pinned and swept seed — lands on
    // the scenario it always did.
    let _ = rng.gen_bool(0.5);
    let request_count = rng.gen_range(1..=MAX_REQUESTS);
    let mut at = 0u64;
    let mut requests = Vec::with_capacity(request_count);
    for _ in 0..request_count {
        at += rng.gen_range(0..=400u64);
        let task = rng.gen_range(0..TASK_COUNT);
        let priority = rng.gen_range(0..3u8);
        let max_candidates = rng.gen_range(1..=8usize);
        let deadline_us = if rng.gen_bool(0.3) { Some(rng.gen_range(0..=2_500u64)) } else { None };
        let cancel_at_us =
            if rng.gen_bool(0.25) { Some(at + rng.gen_range(0..=1_500u64)) } else { None };
        let drop_ticket = rng.gen_bool(0.12);
        let panic_after =
            if !drop_ticket && rng.gen_bool(0.12) { Some(rng.gen_range(1..=40u32)) } else { None };
        requests.push(RequestPlan {
            task,
            priority,
            max_candidates,
            submit_at_us: at,
            deadline_us,
            cancel_at_us,
            drop_ticket,
            panic_after,
        });
    }
    let final_advance_us = rng.gen_range(0..=4_000u64);
    let cache = generate_cache_plan(&mut rng);
    // Drawn after the cache plan so pre-net seeds map to the same service
    // and cache choices they always did.
    let net = generate_net_plan(&mut rng);
    // This draw chose the alternate run's emission policy until a round
    // stopped being released in parts. It is still consumed so that the next
    // draw — and with it every pinned and swept seed — lands on the scenario
    // it always did.
    let _ = rng.gen_bool(0.5);
    // Drawn after the net plan for the same reason: pre-existing seeds keep
    // their exact request, cache and net choices and only gain the toggle.
    let single_flight = rng.gen_bool(0.5);
    Scenario { seed, reference, alternate, final_advance_us, requests, cache, net, single_flight }
}

fn generate_cache_plan(rng: &mut StdRng) -> CachePlan {
    let op_count = rng.gen_range(0..=48usize);
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        let roll = rng.gen_range(0..100u32);
        ops.push(if roll < 45 {
            CacheOp::Insert {
                spec: rng.gen_range(0..6u8),
                rows: rng.gen_range(0..=3u8),
                exact: rng.gen_bool(0.5),
            }
        } else if roll < 85 {
            let budget = if rng.gen_bool(0.5) { Some(rng.gen_range(0..=3u8)) } else { None };
            CacheOp::Get { spec: rng.gen_range(0..6u8), budget }
        } else if roll < 96 {
            CacheOp::SetMaxBytes { bytes: rng.gen_range(64..=4_096u32) }
        } else {
            CacheOp::Clear
        });
    }
    CachePlan { ops }
}

fn generate_net_plan(rng: &mut StdRng) -> NetPlan {
    if !rng.gen_bool(0.4) {
        return NetPlan::default();
    }
    let connection_count = rng.gen_range(1..=3usize);
    let mut connections = Vec::with_capacity(connection_count);
    for _ in 0..connection_count {
        let task = rng.gen_range(0..TASK_COUNT);
        let max_candidates = rng.gen_range(1..=6usize);
        let roll = rng.gen_range(0..100u32);
        let action = if roll < 40 {
            ConnAction::ReadAll
        } else if roll < 65 {
            ConnAction::CloseAfter(rng.gen_range(0..=3u8))
        } else if roll < 85 {
            ConnAction::CancelThenDrain(rng.gen_range(0..=3u8))
        } else {
            ConnAction::StallThenRead
        };
        connections.push(ConnectionPlan { task, max_candidates, action });
    }
    NetPlan { connections }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for seed in 0..50 {
            assert_eq!(generate(seed), generate(seed), "seed {seed} diverged");
        }
    }

    #[test]
    fn distinct_seeds_produce_distinct_scenarios() {
        let distinct = (0..50).map(generate).collect::<Vec<_>>();
        let all_equal = distinct.windows(2).all(|w| {
            w[0].requests == w[1].requests
                && w[0].reference == w[1].reference
                && w[0].alternate == w[1].alternate
        });
        assert!(!all_equal, "seeds 0..50 all mapped to the same scenario");
    }

    #[test]
    fn panic_injection_never_combines_with_dropped_tickets() {
        for seed in 0..500 {
            for request in &generate(seed).requests {
                assert!(
                    !(request.drop_ticket && request.panic_after.is_some()),
                    "seed {seed} generated an unobservable panic"
                );
            }
        }
    }

    #[test]
    fn net_plans_appear_and_cover_every_connection_action() {
        let mut with_connections = 0usize;
        let mut seen = [false; 4];
        for seed in 0..500 {
            let plan = generate(seed).net;
            if plan.connections.is_empty() {
                continue;
            }
            with_connections += 1;
            for connection in &plan.connections {
                seen[match connection.action {
                    ConnAction::ReadAll => 0,
                    ConnAction::CloseAfter(_) => 1,
                    ConnAction::CancelThenDrain(_) => 2,
                    ConnAction::StallThenRead => 3,
                }] = true;
            }
        }
        assert!(with_connections > 100, "only {with_connections} seeds drew a net walk");
        assert_eq!(seen, [true; 4], "some connection action is never generated");
    }

    #[test]
    fn virtual_end_covers_every_scheduled_event() {
        for seed in 0..100 {
            let scenario = generate(seed);
            let end = scenario.virtual_end_us();
            for request in &scenario.requests {
                assert!(request.submit_at_us <= end);
                if let Some(cancel) = request.cancel_at_us {
                    assert!(cancel <= end);
                }
            }
        }
    }
}
