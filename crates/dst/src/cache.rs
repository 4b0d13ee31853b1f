//! Deterministic probe-cache churn: replay a [`CachePlan`] against a real
//! [`ProbeCache`] under byte-budget pressure and check its contracts.
//!
//! The plan asks the cache what synthesis runs ask it: whether a spec
//! returns any row, stored and looked up as one bit
//! ([`ProbeCache::insert_exists`], [`ProbeCache::get_exists`]). The cache
//! side of a scenario is single-threaded and touches no clock, so unlike
//! the service runs its *entire observation log* must be reproducible bit
//! for bit — the plan is executed twice and the logs compared. On top of
//! determinism, every lookup is checked against the cache's documented
//! contracts:
//!
//! * **serves what was stored** — a hit answers with a bit inserted for its
//!   spec since the last clear;
//! * **counters conserved** — hits + misses equals the number of lookups
//!   issued, across however many segment rotations the churn forced;
//! * **retention bounded** — resident bytes never exceed the largest byte
//!   budget in force since the last clear.

use crate::scenario::{CacheOp, CachePlan};
use crate::violation::Violation;
use duoquest_db::query::SelectSpec;
use duoquest_db::{CmpOp, ProbeCache};
use std::sync::OnceLock;

/// The fixed pool of distinct probe specs cache ops index into.
fn spec_pool() -> &'static [SelectSpec] {
    static POOL: OnceLock<Vec<SelectSpec>> = OnceLock::new();
    POOL.get_or_init(|| {
        use duoquest_sql::QueryBuilder;
        let db = crate::exec::fixture_db();
        [1990i64, 1994, 1995, 2000, 2009, 2010]
            .into_iter()
            .map(|year| {
                QueryBuilder::new(db.schema())
                    .select("movies.name")
                    .filter("movies.year", CmpOp::Lt, year)
                    .build()
                    .expect("fixture spec must build")
            })
            .collect()
    })
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
    // Per spec, which bits were inserted for it since the last clear.
    let mut stored = vec![[false; 2]; pool.len()];

    for (step, op) in plan.ops.iter().enumerate() {
        match *op {
            CacheOp::Insert { spec, exists } => {
                let index = spec as usize % pool.len();
                cache.insert_exists(&pool[index], exists);
                stored[index][usize::from(exists)] = true;
                budget_high_water = budget_high_water.max(cache.max_bytes());
                log.push(format!("insert s{spec} exists={exists}"));
            }
            CacheOp::Get { spec } => {
                let index = spec as usize % pool.len();
                lookups += 1;
                match cache.get_exists(&pool[index]) {
                    None => log.push(format!("get s{spec} -> miss")),
                    Some(exists) => {
                        if !stored[index][usize::from(exists)] {
                            return Err(Violation::CacheServedUnstored { step, spec, exists });
                        }
                        log.push(format!("get s{spec} -> hit exists={exists}"));
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
                budget_high_water = cache.max_bytes();
                stored.iter_mut().for_each(|bits| *bits = [false; 2]);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_trivially_clean() {
        assert!(check_cache_plan(&CachePlan::default()).is_ok());
    }

    #[test]
    fn a_second_insert_under_one_spec_serves_a_stored_bit() {
        let plan = CachePlan {
            ops: vec![
                CacheOp::Insert { spec: 4, exists: true },
                CacheOp::Insert { spec: 4, exists: false },
                CacheOp::Get { spec: 4 },
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
                        CacheOp::Insert { spec: s, exists: s % 2 == 0 },
                        CacheOp::Get { spec: s },
                        CacheOp::Insert { spec: s, exists: s % 2 == 1 },
                        CacheOp::Get { spec: s },
                    ]
                })
                .collect(),
        };
        check_cache_plan(&plan).unwrap();
    }
}
