//! A calibrated noisy-oracle guidance model.
//!
//! The paper's prototype drives GPQE with SyntaxSQLNet, a neural model
//! pre-trained on the Spider training set. Training and running that network is
//! out of scope for this self-contained reproduction (see DESIGN.md §3), so the
//! evaluation harness substitutes this model: it knows the task's gold query
//! and, for every inference decision, ranks the gold-consistent candidate first
//! with a per-module probability (the module's "accuracy"). With the default
//! calibration the *NLI-only* baseline (no TSQ) lands in the same accuracy
//! region the paper reports for SyntaxSQLNet, and all relative comparisons
//! (Duoquest vs NLI vs PBE, ablations, TSQ detail sweeps) exercise the same
//! code paths as the original system.
//!
//! The model is deterministic: the per-decision randomness is derived from a
//! task seed plus a hash of the candidate set, so repeated runs produce
//! identical results.

use crate::guidance::{Choice, GuidanceContext, GuidanceModel, HavingChoice, OrderChoice};
use duoquest_db::{ColumnId, OrderKey, Predicate, SelectSpec};
use duoquest_sql::{ClauseSet, SelectColumn};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Per-module accuracies of the simulated guidance model.
///
/// Each field is the probability that the corresponding module ranks the
/// gold-consistent candidate first at a given decision point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleConfig {
    /// KW module (clause set).
    pub keyword: f64,
    /// COL module in SELECT position.
    pub select_columns: f64,
    /// AGG module.
    pub aggregate: f64,
    /// COL module in WHERE position.
    pub where_columns: f64,
    /// OP module.
    pub operator: f64,
    /// Constant binding.
    pub value: f64,
    /// AND/OR module.
    pub connective: f64,
    /// COL module in GROUP BY position.
    pub group_by: f64,
    /// HAVING module.
    pub having: f64,
    /// DESC/ASC + LIMIT module.
    pub order_by: f64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        // Calibrated so that the NLI-only baseline reaches roughly the paper's
        // SyntaxSQLNet accuracy band on the synthetic Spider workload
        // (~30% top-1 / ~56% top-10); see EXPERIMENTS.md.
        OracleConfig {
            keyword: 0.86,
            select_columns: 0.66,
            aggregate: 0.88,
            where_columns: 0.74,
            operator: 0.82,
            value: 0.96,
            connective: 0.92,
            group_by: 0.80,
            having: 0.84,
            order_by: 0.84,
        }
    }
}

impl OracleConfig {
    /// A perfect oracle: every module always ranks the gold candidate first.
    /// Useful in unit tests and as an upper bound in ablations.
    pub fn perfect() -> Self {
        OracleConfig {
            keyword: 1.0,
            select_columns: 1.0,
            aggregate: 1.0,
            where_columns: 1.0,
            operator: 1.0,
            value: 1.0,
            connective: 1.0,
            group_by: 1.0,
            having: 1.0,
            order_by: 1.0,
        }
    }

    /// Uniformly scale all module accuracies towards 1.0 (factor > 1) or towards
    /// chance (factor < 1). Used by ablation benches.
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |p: f64| (p * factor).clamp(0.05, 1.0);
        OracleConfig {
            keyword: scale(self.keyword),
            select_columns: scale(self.select_columns),
            aggregate: scale(self.aggregate),
            where_columns: scale(self.where_columns),
            operator: scale(self.operator),
            value: scale(self.value),
            connective: scale(self.connective),
            group_by: scale(self.group_by),
            having: scale(self.having),
            order_by: scale(self.order_by),
        }
    }
}

/// The noisy oracle guidance model for one task (one gold query).
#[derive(Debug, Clone)]
pub struct NoisyOracleGuidance {
    gold: SelectSpec,
    /// The gold projection's columns (`None` = `*`), sorted: what a
    /// `SelectColumns` choice is compared against, as a multiset.
    gold_select: Vec<Option<ColumnId>>,
    config: OracleConfig,
    seed: u64,
}

impl NoisyOracleGuidance {
    /// Create a model for a task with the default calibration.
    pub fn new(gold: SelectSpec, seed: u64) -> Self {
        NoisyOracleGuidance::with_config(gold, seed, OracleConfig::default())
    }

    /// Create a model with an explicit configuration.
    pub fn with_config(gold: SelectSpec, seed: u64, config: OracleConfig) -> Self {
        let mut gold_select: Vec<Option<ColumnId>> = gold.select.iter().map(|i| i.col).collect();
        gold_select.sort_unstable();
        NoisyOracleGuidance { gold, gold_select, config, seed }
    }

    /// The gold query the oracle is built around.
    pub fn gold(&self) -> &SelectSpec {
        &self.gold
    }

    fn module_accuracy(&self, choice: &Choice) -> f64 {
        match choice {
            Choice::Clauses(_) => self.config.keyword,
            Choice::SelectColumns(_) => self.config.select_columns,
            Choice::Aggregate { .. } => self.config.aggregate,
            Choice::WhereColumns(_) => self.config.where_columns,
            Choice::Operator { .. } => self.config.operator,
            Choice::PredicateValue { .. } => self.config.value,
            Choice::Connective(_) => self.config.connective,
            Choice::GroupBy(_) => self.config.group_by,
            Choice::Having(_) => self.config.having,
            Choice::OrderBy(_) => self.config.order_by,
        }
    }

    /// Deterministic per-decision RNG. The decision point is identified by the
    /// module (variant of the first candidate), the candidate count and a small
    /// fingerprint of the first candidate — cheap to compute even when a
    /// decision fans out into thousands of candidates.
    fn decision_rng(&self, candidates: &[Choice]) -> StdRng {
        let mut hasher = DefaultHasher::new();
        self.seed.hash(&mut hasher);
        candidates.len().hash(&mut hasher);
        if let Some(first) = candidates.first() {
            std::mem::discriminant(first).hash(&mut hasher);
            match first {
                Choice::Aggregate { column, .. } => format!("{column:?}").hash(&mut hasher),
                Choice::Operator { column, .. } => format!("{column:?}").hash(&mut hasher),
                Choice::PredicateValue { column, op, .. } => {
                    format!("{column:?}{op:?}").hash(&mut hasher)
                }
                _ => {}
            }
        }
        StdRng::seed_from_u64(hasher.finish())
    }

    /// Whether a candidate decision is consistent with the gold query.
    pub fn consistent(&self, choice: &Choice) -> bool {
        match choice {
            Choice::Clauses(cs) => *cs == gold_clauses(&self.gold),
            Choice::SelectColumns(cols) => {
                cols.len() == self.gold_select.len() && {
                    let mut got: Vec<Option<ColumnId>> =
                        cols.iter().map(select_column_key).collect();
                    got.sort_unstable();
                    got == self.gold_select
                }
            }
            Choice::Aggregate { column, agg } => self
                .gold
                .select
                .iter()
                .any(|item| item.col == select_column_key(column) && item.agg == *agg),
            Choice::WhereColumns(cols) => {
                let mut got: Vec<_> = cols.clone();
                let mut want: Vec<_> = self.gold.predicates.iter().filter_map(|p| p.col).collect();
                got.sort();
                want.sort();
                got == want
            }
            Choice::Operator { column, op } => {
                self.gold.predicates.iter().any(|p| p.col == Some(*column) && p.op == *op)
            }
            Choice::PredicateValue { column, op, value, value2 } => {
                self.gold.predicates.iter().any(|p| {
                    p.col == Some(*column)
                        && p.op == *op
                        && p.value.sql_eq(value)
                        && match (&p.value2, value2) {
                            (None, None) => true,
                            (Some(a), Some(b)) => a.sql_eq(b),
                            _ => false,
                        }
                })
            }
            Choice::Connective(op) => {
                self.gold.predicates.len() < 2 || *op == self.gold.predicate_op
            }
            Choice::GroupBy(cols) => {
                let mut got = cols.clone();
                let mut want = self.gold.group_by.clone();
                got.sort();
                want.sort();
                got == want
            }
            Choice::Having(h) => match (h, self.gold.having.first()) {
                (None, None) => true,
                (Some(h), Some(g)) => having_matches(h, g),
                _ => false,
            },
            Choice::OrderBy(o) => match (o, &self.gold.order_by) {
                (None, None) => true,
                (Some(o), Some(g)) => {
                    order_key_eq(&o.key, &g.key) && o.desc == g.desc && o.limit == self.gold.limit
                }
                _ => false,
            },
        }
    }
}

/// A projected column as a gold `SelectItem` names it: `None` is `*`.
fn select_column_key(col: &SelectColumn) -> Option<ColumnId> {
    match col {
        SelectColumn::Star => None,
        SelectColumn::Column(c) => Some(*c),
    }
}

fn having_matches(h: &HavingChoice, g: &Predicate) -> bool {
    Some(h.agg) == g.agg && h.col == g.col && h.op == g.op && h.value.sql_eq(&g.value)
}

fn order_key_eq(a: &OrderKey, b: &OrderKey) -> bool {
    a == b
}

fn gold_clauses(gold: &SelectSpec) -> ClauseSet {
    ClauseSet {
        where_clause: !gold.predicates.is_empty(),
        group_by: !gold.group_by.is_empty(),
        order_by: gold.order_by.is_some(),
    }
}

/// The optional ORDER BY choice corresponding to a gold query, convenient for tests.
pub fn gold_order_choice(gold: &SelectSpec) -> Option<OrderChoice> {
    gold.order_by.as_ref().map(|o| OrderChoice { key: o.key, desc: o.desc, limit: gold.limit })
}

impl GuidanceModel for NoisyOracleGuidance {
    fn name(&self) -> &str {
        "noisy-oracle"
    }

    fn score(&self, _ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let accuracy = self.module_accuracy(&candidates[0]);
        let consistent: Vec<bool> = candidates.iter().map(|c| self.consistent(c)).collect();
        let n_gold = consistent.iter().filter(|x| **x).count();
        let n_other = candidates.len() - n_gold;
        if n_gold == 0 || n_other == 0 {
            return vec![1.0; candidates.len()];
        }
        let mut rng = self.decision_rng(candidates);
        let confused = rng.gen::<f64>() > accuracy;
        if !confused {
            // Gold candidates get the bulk of the probability mass.
            candidates
                .iter()
                .zip(&consistent)
                .map(
                    |(_, is_gold)| {
                        if *is_gold {
                            0.75 / n_gold as f64
                        } else {
                            0.25 / n_other as f64
                        }
                    },
                )
                .collect()
        } else {
            // Mis-ranking: a random non-gold candidate is boosted above the gold
            // one, but the gold candidate keeps some mass so exhaustive
            // enumeration can still recover it (unlike beam search).
            let decoy_rank = rng.gen_range(0..n_other);
            let mut other_seen = 0usize;
            candidates
                .iter()
                .zip(&consistent)
                .map(|(_, is_gold)| {
                    if *is_gold {
                        0.2 / n_gold as f64
                    } else {
                        let score = if other_seen == decoy_rank {
                            0.6
                        } else {
                            0.2 / n_other.max(1) as f64
                        };
                        other_seen += 1;
                        score
                    }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::Nlq;
    use duoquest_db::{AggFunc, CmpOp, ColumnDef, JoinTree, Schema, SelectItem, TableDef, Value};

    fn schema() -> Schema {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s
    }

    fn gold(s: &Schema) -> SelectSpec {
        SelectSpec {
            select: vec![SelectItem::column(s.column_id("movies", "name").unwrap())],
            join: JoinTree::single(s.table_id("movies").unwrap()),
            predicates: vec![duoquest_db::Predicate::new(
                s.column_id("movies", "year").unwrap(),
                CmpOp::Lt,
                Value::int(1995),
            )],
            ..Default::default()
        }
    }

    #[test]
    fn perfect_oracle_always_ranks_gold_first() {
        let s = schema();
        let g = gold(&s);
        let oracle = NoisyOracleGuidance::with_config(g.clone(), 7, OracleConfig::perfect());
        let nlq = Nlq::new("movies before 1995");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let candidates = vec![
            Choice::Clauses(ClauseSet::default()),
            Choice::Clauses(ClauseSet { where_clause: true, ..Default::default() }),
            Choice::Clauses(ClauseSet { order_by: true, ..Default::default() }),
        ];
        let scores = oracle.score(&ctx, &candidates);
        assert!(scores[1] > scores[0]);
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn consistency_checks_cover_all_modules() {
        let s = schema();
        let g = gold(&s);
        let oracle = NoisyOracleGuidance::new(g.clone(), 1);
        let name = s.column_id("movies", "name").unwrap();
        let year = s.column_id("movies", "year").unwrap();
        assert!(oracle.consistent(&Choice::SelectColumns(vec![SelectColumn::Column(name)])));
        assert!(!oracle.consistent(&Choice::SelectColumns(vec![SelectColumn::Star])));
        assert!(
            oracle.consistent(&Choice::Aggregate { column: SelectColumn::Column(name), agg: None })
        );
        assert!(oracle.consistent(&Choice::WhereColumns(vec![year])));
        assert!(oracle.consistent(&Choice::Operator { column: year, op: CmpOp::Lt }));
        assert!(!oracle.consistent(&Choice::Operator { column: year, op: CmpOp::Gt }));
        assert!(oracle.consistent(&Choice::PredicateValue {
            column: year,
            op: CmpOp::Lt,
            value: Value::int(1995),
            value2: None
        }));
        assert!(oracle.consistent(&Choice::GroupBy(vec![])));
        assert!(oracle.consistent(&Choice::Having(None)));
        assert!(oracle.consistent(&Choice::OrderBy(None)));
        assert!(!oracle.consistent(&Choice::OrderBy(Some(OrderChoice {
            key: OrderKey::Column(year),
            desc: false,
            limit: None
        }))));
    }

    #[test]
    fn scoring_is_deterministic() {
        let s = schema();
        let g = gold(&s);
        let oracle = NoisyOracleGuidance::new(g, 42);
        let nlq = Nlq::new("movies before 1995");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let year = s.column_id("movies", "year").unwrap();
        let candidates: Vec<Choice> =
            CmpOp::ALL.iter().map(|op| Choice::Operator { column: year, op: *op }).collect();
        let a = oracle.score(&ctx, &candidates);
        let b = oracle.score(&ctx, &candidates);
        assert_eq!(a, b);
    }

    #[test]
    fn lower_accuracy_produces_more_confusions() {
        let s = schema();
        let g = gold(&s);
        let nlq = Nlq::new("movies before 1995");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let year = s.column_id("movies", "year").unwrap();
        let mut confusions_low = 0;
        let mut confusions_high = 0;
        for seed in 0..200u64 {
            let low = NoisyOracleGuidance::with_config(
                g.clone(),
                seed,
                OracleConfig::default().scaled(0.3),
            );
            let high = NoisyOracleGuidance::with_config(g.clone(), seed, OracleConfig::perfect());
            let candidates: Vec<Choice> =
                CmpOp::ALL.iter().map(|op| Choice::Operator { column: year, op: *op }).collect();
            let gold_idx =
                candidates.iter().position(|c| low.consistent(c)).expect("gold operator present");
            let ls = low.score(&ctx, &candidates);
            let hs = high.score(&ctx, &candidates);
            if ls.iter().cloned().fold(f64::MIN, f64::max) > ls[gold_idx] {
                confusions_low += 1;
            }
            if hs.iter().cloned().fold(f64::MIN, f64::max) > hs[gold_idx] {
                confusions_high += 1;
            }
        }
        assert_eq!(confusions_high, 0);
        assert!(confusions_low > 50);
    }

    #[test]
    fn config_scaling_clamps() {
        let c = OracleConfig::default().scaled(10.0);
        assert!(c.keyword <= 1.0);
        let c = OracleConfig::default().scaled(0.0);
        assert!(c.keyword >= 0.05);
    }

    /// A `SelectColumns` choice is consistent iff its columns and the gold
    /// projection's are the same multiset (`*` a member like any other),
    /// whatever order either side lists them in; an `Aggregate` choice iff
    /// the gold projects that column under that aggregate.
    #[test]
    fn select_consistency_is_multiset_equality() {
        use std::collections::HashMap;
        let s = schema();
        let table = s.table_id("movies").unwrap();
        let pool = [
            SelectColumn::Star,
            SelectColumn::Column(ColumnId { table, column: 0 }),
            SelectColumn::Column(ColumnId { table, column: 1 }),
            SelectColumn::Column(ColumnId { table, column: 2 }),
        ];
        let aggs = [None, Some(AggFunc::Count), Some(AggFunc::Max)];
        let item = |col: SelectColumn, agg| SelectItem {
            agg,
            col: match col {
                SelectColumn::Star => None,
                SelectColumn::Column(c) => Some(c),
            },
        };
        let counts = |cols: &[SelectColumn]| {
            let mut counts: HashMap<SelectColumn, usize> = HashMap::new();
            for col in cols {
                *counts.entry(*col).or_default() += 1;
            }
            counts
        };
        let mut rng = StdRng::seed_from_u64(17);
        let draw = |rng: &mut StdRng| -> Vec<SelectColumn> {
            (0..rng.gen_range(1..=3usize)).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
        };
        let (mut equal, mut unequal) = (0, 0);
        for _ in 0..2_000 {
            let gold_cols = draw(&mut rng);
            let gold_aggs: Vec<_> =
                gold_cols.iter().map(|_| aggs[rng.gen_range(0..aggs.len())]).collect();
            let gold = SelectSpec {
                select: gold_cols.iter().zip(&gold_aggs).map(|(c, a)| item(*c, *a)).collect(),
                join: JoinTree::single(table),
                ..Default::default()
            };
            let oracle = NoisyOracleGuidance::new(gold, 1);
            // Half the candidates are a shuffle of the gold columns.
            let mut cols = if rng.gen_bool(0.5) { gold_cols.clone() } else { draw(&mut rng) };
            for i in (1..cols.len()).rev() {
                cols.swap(i, rng.gen_range(0..=i));
            }
            let same = counts(&cols) == counts(&gold_cols);
            assert_eq!(
                oracle.consistent(&Choice::SelectColumns(cols.clone())),
                same,
                "{cols:?} against gold {gold_cols:?}"
            );
            if same {
                equal += 1;
            } else {
                unequal += 1;
            }
            let (column, agg) = (pool[rng.gen_range(0..pool.len())], aggs[rng.gen_range(0..3)]);
            let projected =
                gold_cols.iter().zip(&gold_aggs).any(|(c, a)| (*c, *a) == (column, agg));
            assert_eq!(
                oracle.consistent(&Choice::Aggregate { column, agg }),
                projected,
                "{column:?} under {agg:?} against gold {gold_cols:?} / {gold_aggs:?}"
            );
        }
        assert!(equal > 200 && unequal > 200, "{equal} equal, {unequal} unequal");
    }

    #[test]
    fn gold_order_choice_mirrors_gold() {
        let s = schema();
        let mut g = gold(&s);
        assert!(gold_order_choice(&g).is_none());
        g.order_by = Some(duoquest_db::OrderSpec {
            key: OrderKey::Column(s.column_id("movies", "year").unwrap()),
            desc: true,
        });
        g.limit = Some(5);
        let oc = gold_order_choice(&g).unwrap();
        assert!(oc.desc);
        assert_eq!(oc.limit, Some(5));
        let oracle = NoisyOracleGuidance::new(g, 3);
        assert!(oracle.consistent(&Choice::OrderBy(Some(oc))));
        assert_eq!(oracle.name(), "noisy-oracle");
        assert_eq!(oracle.gold().limit, Some(5));
        let _ = AggFunc::Count; // silence unused import in some cfg combinations
    }
}
