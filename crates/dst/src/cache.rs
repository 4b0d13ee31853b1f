//! Deterministic probe-cache churn: replay a [`CachePlan`] against a real
//! [`ProbeCache`] under byte-budget pressure and check its contracts.
//!
//! The cache side of a scenario is single-threaded and touches no clock, so
//! unlike the service runs its *entire observation log* must be reproducible
//! bit for bit — the plan is executed twice and the logs compared. On top of
//! determinism, every returned probe is checked against the cache's
//! documented contracts:
//!
//! * **serves-contract** — a probe returned under a row budget either
//!   carries the exact bit or covers the budget;
//! * **exactness never downgrades** — once a lookup served a spec exact,
//!   later lookups of it stay exact until a rotation or clear can have
//!   evicted the entry (retained entries are only ever replaced by
//!   at-least-as-strong ones; *insert returns* are exempt, because an entry
//!   too large for its budget slice is handed back uncached);
//! * **counters conserved** — hits + misses equals the number of lookups
//!   issued, across however many segment rotations the churn forced;
//! * **retention bounded** — resident bytes never exceed the largest byte
//!   budget in force since the last clear.

use crate::scenario::{CacheOp, CachePlan};
use crate::violation::Violation;
use duoquest_db::query::SelectSpec;
use duoquest_db::{execute, CmpOp, Database, ProbeCache, ResultSet};
use std::sync::OnceLock;

/// The fixed pool of distinct probe specs cache ops index into, with each
/// spec's full (exact) result against the fixture database.
fn spec_pool() -> &'static [(SelectSpec, ResultSet)] {
    static POOL: OnceLock<Vec<(SelectSpec, ResultSet)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let db = crate::exec::fixture_db();
        spec_pool_for(&db)
    })
}

fn spec_pool_for(db: &Database) -> Vec<(SelectSpec, ResultSet)> {
    use duoquest_sql::QueryBuilder;
    let mut pool = Vec::new();
    for year in [1990i64, 1994, 1995, 2000, 2009, 2010] {
        let spec = QueryBuilder::new(db.schema())
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, year)
            .build()
            .expect("fixture spec must build");
        let full = execute(db, &spec).expect("fixture spec must execute");
        pool.push((spec, full));
    }
    pool
}

/// Per-spec strength tracking for the exactness oracle.
#[derive(Clone, Copy, Default)]
struct SpecObservation {
    exact: bool,
    /// Rotation count at the time of the observation; a later rotation can
    /// legitimately have evicted the entry, which resets the oracle.
    rotations: u64,
    clears: u64,
    seen: bool,
}

/// Execute the plan twice and check every contract plus log determinism.
pub fn check_cache_plan(plan: &CachePlan) -> Result<(), Violation> {
    if plan.ops.is_empty() {
        return Ok(());
    }
    let first = run_once(plan)?;
    let second = run_once(plan)?;
    if first != second {
        let step = first.iter().zip(&second).position(|(a, b)| a != b).unwrap_or(first.len());
        return Err(Violation::CacheNondeterministic {
            step,
            first: first.get(step).cloned().unwrap_or_default(),
            second: second.get(step).cloned().unwrap_or_default(),
        });
    }
    Ok(())
}

fn run_once(plan: &CachePlan) -> Result<Vec<String>, Violation> {
    const INITIAL_BUDGET: u64 = 4_096;
    let pool = spec_pool();
    let cache = ProbeCache::with_max_bytes(INITIAL_BUDGET);
    let mut log = Vec::with_capacity(plan.ops.len());
    let mut lookups = 0u64;
    let mut budget_high_water = INITIAL_BUDGET;
    let mut clears = 0u64;
    let mut observed = vec![SpecObservation::default(); pool.len()];

    for (step, op) in plan.ops.iter().enumerate() {
        let rotations_before = cache.stats().rotations;
        match *op {
            CacheOp::Insert { spec, rows, exact } => {
                let (spec_key, full) = &pool[spec as usize % pool.len()];
                let keep = (rows as usize).min(full.rows.len());
                // The exact bit is a *claim of completeness*; asserting it on
                // a truncated result would lie to the cache, which would then
                // faithfully serve the lie. A complete insert with the bit
                // clear stays clear — a prefix probe that happens to cover
                // everything is still just a prefix probe to the cache.
                let exact = exact && keep == full.rows.len();
                let mut result = full.clone();
                result.rows.truncate(keep);
                let served = cache.insert_budgeted(spec_key, result, exact);
                // Insert returns are NOT strength observations: an entry too
                // large for its shard's budget slice is handed back uncached,
                // so the return can be weaker than a retained entry — only
                // get-hits observe what the cache actually serves.
                if served.exact && !exact && served.rows.len() != full.rows.len() {
                    return Err(Violation::CacheServesContract {
                        step,
                        detail: format!(
                            "insert returned an exact probe with {} of {} rows",
                            served.rows.len(),
                            full.rows.len()
                        ),
                    });
                }
                budget_high_water = budget_high_water.max(cache.max_bytes());
                log.push(format!(
                    "insert s{spec} rows={keep} exact={exact} -> exact={} rows={}",
                    served.exact,
                    served.rows.len()
                ));
            }
            CacheOp::Get { spec, budget } => {
                let (spec_key, full) = &pool[spec as usize % pool.len()];
                let budget_rows = budget.map(|b| (b as usize).min(full.rows.len()));
                lookups += 1;
                match cache.get_budgeted(spec_key, budget_rows) {
                    None => log.push(format!("get s{spec} b={budget_rows:?} -> miss")),
                    Some(probe) => {
                        if !probe.exact && budget_rows.is_none_or(|b| probe.rows.len() < b) {
                            return Err(Violation::CacheServesContract {
                                step,
                                detail: format!(
                                    "budget {budget_rows:?} answered by a truncated probe \
                                     of {} rows",
                                    probe.rows.len()
                                ),
                            });
                        }
                        check_exactness(
                            &mut observed[spec as usize % pool.len()],
                            probe.exact,
                            rotations_before,
                            clears,
                            step,
                        )?;
                        log.push(format!(
                            "get s{spec} b={budget_rows:?} -> hit exact={} rows={}",
                            probe.exact,
                            probe.rows.len()
                        ));
                    }
                }
            }
            CacheOp::SetMaxBytes { bytes } => {
                cache.set_max_bytes(bytes as u64);
                budget_high_water = budget_high_water.max(bytes as u64);
                log.push(format!("budget {bytes}"));
            }
            CacheOp::Clear => {
                cache.clear();
                clears += 1;
                budget_high_water = cache.max_bytes();
                observed.iter_mut().for_each(|o| *o = SpecObservation::default());
                log.push("clear".to_string());
            }
        }
        let stats = cache.stats();
        if stats.bytes > budget_high_water {
            return Err(Violation::CacheRetentionOverrun {
                step,
                bytes: stats.bytes,
                budget: budget_high_water,
            });
        }
        log.push(format!(
            "stats hits={} misses={} bytes={} entries={} rotations={}",
            stats.hits, stats.misses, stats.bytes, stats.entries, stats.rotations
        ));
    }

    let stats = cache.stats();
    if stats.hits + stats.misses != lookups {
        return Err(Violation::CacheCounterDrift {
            hits: stats.hits,
            misses: stats.misses,
            lookups,
        });
    }
    Ok(log)
}

/// The exactness bit of a spec's served probes is monotone between points
/// where eviction (rotation or clear) can have removed the entry.
fn check_exactness(
    observation: &mut SpecObservation,
    exact: bool,
    rotations: u64,
    clears: u64,
    step: usize,
) -> Result<(), Violation> {
    if observation.seen
        && observation.rotations == rotations
        && observation.clears == clears
        && observation.exact
        && !exact
    {
        return Err(Violation::CacheExactnessDowngrade { step });
    }
    *observation = SpecObservation { exact, rotations, clears, seen: true };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_trivially_clean() {
        assert!(check_cache_plan(&CachePlan::default()).is_ok());
    }

    #[test]
    fn exact_insert_survives_weaker_reinsertion() {
        let plan = CachePlan {
            ops: vec![
                CacheOp::Insert { spec: 4, rows: 3, exact: true },
                CacheOp::Insert { spec: 4, rows: 1, exact: false },
                CacheOp::Get { spec: 4, budget: None },
            ],
        };
        check_cache_plan(&plan).unwrap();
    }

    #[test]
    fn churn_under_tiny_budgets_stays_clean() {
        let plan = CachePlan {
            ops: (0..6u8)
                .flat_map(|s| {
                    [
                        CacheOp::SetMaxBytes { bytes: 64 + 96 * s as u32 },
                        CacheOp::Insert { spec: s, rows: 3, exact: true },
                        CacheOp::Get { spec: s, budget: Some(2) },
                        CacheOp::Insert { spec: s, rows: 1, exact: false },
                        CacheOp::Get { spec: s, budget: None },
                    ]
                })
                .collect(),
        };
        check_cache_plan(&plan).unwrap();
    }
}
