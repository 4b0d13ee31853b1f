//! The pluggable enumeration guidance interface.
//!
//! GPQE requires a model that can score the candidate outputs of every
//! inference decision (paper Table 3 lists the SyntaxSQLNet modules: KW, COL,
//! OP, AGG, AND/OR, DESC/ASC+LIMIT, HAVING). Paper §3.3.5 explicitly makes the
//! model pluggable: anything that (1) incrementally updates executable partial
//! queries and (2) emits scores in `[0, 1]` satisfying Property 1 works.
//!
//! The enumerator (in `duoquest-core`) builds the candidate set for one
//! decision point, asks the [`GuidanceModel`] for raw scores, normalizes them
//! so they sum to 1 (which yields Property 1: the children of a state split the
//! parent's confidence mass), and multiplies each child's score into the
//! running confidence of its partial query.
//!
//! # Prepared plans
//!
//! The enumerator scores every child of every popped partial query, so a
//! model's per-candidate cost multiplies the whole search, while its inputs
//! — the NLQ and the schema — never change during a run. A model can
//! therefore pay for them once: [`GuidanceModel::prepare`] compiles the model
//! against one `(nlq, schema)` pair into a [`GuidancePlan`], which the round
//! driver builds on its first round and scores through for the rest of the
//! run. The contract of a plan:
//!
//! * it is a **pure function of `(nlq, schema)`** as they are when the run
//!   starts (`Nlq`'s fields are public and mutable, so a plan is derived per
//!   run, never cached inside the `Nlq` or the model);
//! * its scores are **bit-identical** to what [`GuidanceModel::score`]
//!   returns for the same context and candidates — emission order hangs on
//!   the exact `f64`s, so a plan is the same arithmetic in the same order,
//!   only with the per-run part done up front;
//! * it is **owned and `Send`**: it borrows nothing from the context it was
//!   built from, because the driver that holds it is parked inside the
//!   scheduler between rounds and resumed by whichever worker is free.
//!
//! The default `prepare` returns `None` ("no plan, call `score`"), which is
//! right for any model whose per-candidate work does not depend on the NLQ
//! text or the schema names (the noisy oracle compares against its gold
//! query).

use crate::tokenize::Nlq;
use duoquest_db::{AggFunc, CmpOp, ColumnId, LogicalOp, OrderKey, Schema, Value};
use duoquest_sql::{ClauseSet, SelectColumn};

/// A candidate HAVING predicate (the HAVING module's output).
#[derive(Debug, Clone, PartialEq)]
pub struct HavingChoice {
    /// Aggregate function.
    pub agg: AggFunc,
    /// Aggregated column; `None` means `COUNT(*)`.
    pub col: Option<ColumnId>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant.
    pub value: Value,
}

/// A candidate ORDER BY + LIMIT decision (the DESC/ASC module's output).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderChoice {
    /// Sort key.
    pub key: OrderKey,
    /// Direction.
    pub desc: bool,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

/// One candidate output of a single inference decision.
#[derive(Debug, Clone, PartialEq)]
pub enum Choice {
    /// KW module: which optional clauses the query has.
    Clauses(ClauseSet),
    /// COL module (SELECT position): the projected column list.
    SelectColumns(Vec<SelectColumn>),
    /// AGG module: the aggregate for one projected column.
    Aggregate {
        /// The projected column the aggregate applies to.
        column: SelectColumn,
        /// The chosen aggregate (`None` = no aggregate).
        agg: Option<AggFunc>,
    },
    /// COL module (WHERE position): the predicate column list.
    WhereColumns(Vec<ColumnId>),
    /// OP module: the operator of one predicate.
    Operator {
        /// The predicate column.
        column: ColumnId,
        /// The chosen operator.
        op: CmpOp,
    },
    /// Constant binding for one predicate (from the tagged literals).
    PredicateValue {
        /// The predicate column.
        column: ColumnId,
        /// The chosen operator (already decided).
        op: CmpOp,
        /// The bound constant.
        value: Value,
        /// Second constant for BETWEEN.
        value2: Option<Value>,
    },
    /// AND/OR module: the connective between WHERE predicates.
    Connective(LogicalOp),
    /// COL module (GROUP BY position): the grouping column list.
    GroupBy(Vec<ColumnId>),
    /// HAVING module: the optional HAVING predicate.
    Having(Option<HavingChoice>),
    /// DESC/ASC module: the optional ORDER BY + LIMIT.
    OrderBy(Option<OrderChoice>),
}

/// The inputs every module receives: the NLQ (with literals) and the schema.
#[derive(Debug, Clone, Copy)]
pub struct GuidanceContext<'a> {
    /// The natural language query with tagged literals.
    pub nlq: &'a Nlq,
    /// The database schema.
    pub schema: &'a Schema,
}

/// A guidance model scores the candidates of one inference decision.
pub trait GuidanceModel: Send + Sync {
    /// Return a non-negative raw score for every candidate. The enumerator
    /// normalizes the scores; returning all zeros is interpreted as a uniform
    /// distribution.
    fn score(&self, ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64>;

    /// Compile the model against one `(nlq, schema)` pair, once per run (see
    /// the [module docs](self#prepared-plans) for the contract). `None` —
    /// the default — means the model has nothing to precompute and the
    /// enumerator calls [`GuidanceModel::score`] for every decision.
    fn prepare(&self, _ctx: &GuidanceContext<'_>) -> Option<Box<dyn GuidancePlan>> {
        None
    }

    /// Human-readable model name (used in experiment reports).
    fn name(&self) -> &str {
        "guidance"
    }
}

/// A guidance model compiled against one `(nlq, schema)` pair by
/// [`GuidanceModel::prepare`].
pub trait GuidancePlan: Send {
    /// The raw scores [`GuidanceModel::score`] would return for these
    /// candidates under the context the plan was prepared from, bit for bit.
    fn score(&self, candidates: &[Choice]) -> Vec<f64>;
}

/// Normalize raw scores into a probability distribution (Property 1).
///
/// Negative, NaN and `-0.0` scores count as `0.0`. When no score is
/// positive the result is uniform; otherwise it keeps the ranking, however
/// small the scores. Every result is finite: when the clamped scores do not
/// sum to a finite number (a `+∞` score, or finite scores whose sum
/// overflows), they are first divided by the largest, so the largest scores
/// become 1 and every finite score beside a `+∞` becomes 0.
pub fn normalize_scores(raw: &[f64]) -> Vec<f64> {
    let mut scores: Vec<f64> = raw.iter().map(|&s| if s > 0.0 { s } else { 0.0 }).collect();
    let mut sum: f64 = scores.iter().sum();
    if !sum.is_finite() {
        let max = scores.iter().copied().fold(0.0, f64::max);
        for s in &mut scores {
            *s = if *s == max { 1.0 } else { *s / max };
        }
        sum = scores.iter().sum();
    }
    if sum == 0.0 {
        let uniform = 1.0 / raw.len().max(1) as f64;
        return vec![uniform; raw.len()];
    }
    for s in &mut scores {
        *s /= sum;
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_sums_to_one() {
        let scores = normalize_scores(&[2.0, 1.0, 1.0]);
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((scores[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_all_zero_is_uniform() {
        let scores = normalize_scores(&[0.0, 0.0, 0.0, 0.0]);
        assert_eq!(scores, vec![0.25; 4]);
    }

    #[test]
    fn normalize_keeps_the_ranking_of_tiny_scores() {
        let scores = normalize_scores(&[1e-18, 3e-18]);
        assert!((scores[0] - 0.25).abs() < 1e-12 && (scores[1] - 0.75).abs() < 1e-12);
        assert_eq!(normalize_scores(&[f64::MIN_POSITIVE / 4.0, 0.0]), vec![1.0, 0.0]);
    }

    #[test]
    fn normalize_clamps_negatives() {
        let scores = normalize_scores(&[-1.0, 1.0]);
        assert_eq!(scores, vec![0.0, 1.0]);
    }

    /// Every result is a finite, non-negative number with the bits of `+0.0`
    /// where it is zero, whatever the model returned.
    #[test]
    fn normalize_never_yields_nan_or_negative_zero() {
        let bits = |scores: Vec<f64>| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let cases: [(&[f64], &[f64]); 5] = [
            (&[f64::INFINITY, 1.0], &[1.0, 0.0]),
            (&[f64::INFINITY, f64::INFINITY, 1.0], &[0.5, 0.5, 0.0]),
            (&[f64::NAN, 1.0], &[0.0, 1.0]),
            (&[-0.0, 1.0], &[0.0, 1.0]),
            (&[f64::MAX, f64::MAX], &[0.5, 0.5]),
        ];
        for (raw, expected) in cases {
            assert_eq!(bits(normalize_scores(raw)), bits(expected.to_vec()), "raw {raw:?}");
        }
    }
}
