//! A purely lexical guidance model.
//!
//! This model needs no training data: it scores enumeration decisions with
//! keyword cues (e.g. "how many" → `COUNT`, "more than" → `>`) and lexical
//! similarity between NLQ tokens and schema names. It is useful for
//! self-contained demos and as a sanity baseline; the evaluation harness uses
//! the calibrated noisy oracle (see [`crate::oracle`]) as the stand-in for the
//! paper's trained SyntaxSQLNet.

use crate::guidance::{Choice, GuidanceContext, GuidanceModel, GuidancePlan};
use crate::literals::{Literal, LiteralKind};
use crate::similarity::{column_similarity, name_similarity, weigh_column_and_table};
use crate::tokenize::{any_phrase_in, Nlq};
use duoquest_db::{AggFunc, CmpOp, ColumnId, DataType, LogicalOp, OrderKey, Value};
use duoquest_sql::SelectColumn;
use std::collections::HashMap;

/// Lexical cue based guidance (no training required).
#[derive(Debug, Clone, Default)]
pub struct HeuristicGuidance;

impl HeuristicGuidance {
    /// Construct the heuristic model.
    pub fn new() -> Self {
        HeuristicGuidance
    }
}

/// Keyword cue helpers over the NLQ.
struct Cues {
    count: bool,
    max: bool,
    min: bool,
    avg: bool,
    sum: bool,
    order: bool,
    descending: bool,
    ascending: bool,
    group: bool,
    top: bool,
    greater: bool,
    less: bool,
    between: bool,
    like: bool,
    or: bool,
    has_text_literal: bool,
    has_number_literal: bool,
}

impl Cues {
    fn of(nlq: &Nlq) -> Self {
        let lower = nlq.text.to_ascii_lowercase();
        let has = |phrases: &[&str]| any_phrase_in(&lower, phrases);
        Cues {
            count: has(&["how many", "number of", "count"]),
            max: has(&["most ", "maximum", "largest", "highest", "biggest"]),
            min: has(&["least ", "minimum", "smallest", "lowest", "fewest"]),
            avg: has(&["average", "mean "]),
            sum: has(&["total", "sum of", "combined"]),
            order: has(&[
                "order",
                "sorted",
                "sort",
                "rank",
                "from earliest",
                "from most",
                "from least",
                "most recent",
                "earliest to",
                "oldest to",
                "newest",
            ]),
            descending: has(&[
                "most to least",
                "descending",
                "newest",
                "most recent first",
                "highest first",
                "from most",
            ]),
            ascending: has(&[
                "least to most",
                "ascending",
                "earliest to",
                "oldest to",
                "from earliest",
                "from oldest",
                "from least",
            ]),
            group: has(&["each", "per ", "for every", "number of", "how many"]),
            top: has(&["top ", "first ", "best "]),
            greater: has(&[
                "more than",
                "greater than",
                "over ",
                "after",
                "above",
                "at least",
                "later than",
            ]),
            less: has(&[
                "less than",
                "fewer than",
                "under ",
                "before",
                "below",
                "at most",
                "earlier than",
            ]),
            between: has(&["between", "sometime between", "from 1", "from 2"]),
            like: has(&["containing", "contains", "includes", "starting with"]),
            or: has(&[" or "]),
            has_text_literal: nlq.literals.iter().any(|l| l.kind == LiteralKind::Text),
            has_number_literal: nlq.literals.iter().any(|l| l.kind == LiteralKind::Number),
        }
    }

    /// Whether the NLQ carries a tagged literal of this data type.
    fn has_literal_of(&self, dtype: DataType) -> bool {
        match dtype {
            DataType::Text => self.has_text_literal,
            DataType::Number => self.has_number_literal,
        }
    }
}

fn clause_factor(present: bool, wanted: bool) -> f64 {
    if present == wanted {
        0.8
    } else {
        0.2
    }
}

/// Every column's data type and [`column_similarity`] to the NLQ, indexed
/// `[table][column]`.
struct ColumnTable(Vec<Vec<(DataType, f64)>>);

impl ColumnTable {
    /// Each distinct identifier (a table name, or a column name however many
    /// tables carry it) is matched against the NLQ exactly once.
    fn compile(ctx: &GuidanceContext<'_>) -> Self {
        fn name_sim<'s>(memo: &mut HashMap<&'s str, f64>, nlq: &Nlq, name: &'s str) -> f64 {
            *memo.entry(name).or_insert_with(|| name_similarity(nlq, name))
        }
        let mut memo = HashMap::new();
        let mut tables = Vec::with_capacity(ctx.schema.tables.len());
        for table in &ctx.schema.tables {
            let table_sim = name_sim(&mut memo, ctx.nlq, &table.name);
            let mut cells = Vec::with_capacity(table.columns.len());
            for col in &table.columns {
                let col_sim = name_sim(&mut memo, ctx.nlq, &col.name);
                cells.push((col.dtype, weigh_column_and_table(col_sim, table_sim)));
            }
            tables.push(cells);
        }
        ColumnTable(tables)
    }

    fn cell(&self, col: ColumnId) -> (DataType, f64) {
        self.0[col.table.0][col.column]
    }
}

/// The heuristic model compiled against one (NLQ, schema) pair: the cue
/// flags, the tagged literals and one similarity per column, so scoring a
/// candidate is a handful of table reads.
struct HeuristicPlan {
    cues: Cues,
    literals: Vec<Literal>,
    columns: ColumnTable,
}

impl GuidancePlan for HeuristicPlan {
    fn score(&self, candidates: &[Choice]) -> Vec<f64> {
        let (dtype, similarity) = (|c| self.columns.cell(c).0, |c| self.columns.cell(c).1);
        score_choices(&self.cues, &self.literals, dtype, similarity, candidates)
    }
}

impl GuidanceModel for HeuristicGuidance {
    fn name(&self) -> &str {
        "heuristic"
    }

    /// Without a plan: cues once per call, and a column's similarity on the
    /// first candidate of the call that mentions it.
    fn score(&self, ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        let mut seen: Vec<(ColumnId, f64)> = Vec::new();
        let similarity = |col| {
            if let Some(&(_, sim)) = seen.iter().find(|(seen, _)| *seen == col) {
                return sim;
            }
            let sim = column_similarity(ctx.nlq, ctx.schema, col);
            seen.push((col, sim));
            sim
        };
        let dtype = |col| ctx.schema.column(col).dtype;
        score_choices(&Cues::of(ctx.nlq), &ctx.nlq.literals, dtype, similarity, candidates)
    }

    fn prepare(&self, ctx: &GuidanceContext<'_>) -> Option<Box<dyn GuidancePlan>> {
        Some(Box::new(HeuristicPlan {
            cues: Cues::of(ctx.nlq),
            literals: ctx.nlq.literals.clone(),
            columns: ColumnTable::compile(ctx),
        }))
    }
}

/// The scoring formula: one raw score per candidate, reading a column's data
/// type and NLQ similarity through the two callbacks. `HeuristicGuidance::score`
/// and its prepared plan both run this, so their scores are the same `f64`s.
fn score_choices(
    cues: &Cues,
    literals: &[Literal],
    dtype: impl Fn(ColumnId) -> DataType,
    mut similarity: impl FnMut(ColumnId) -> f64,
    candidates: &[Choice],
) -> Vec<f64> {
    let matches_literal = |value: &Value| literals.iter().any(|l| l.value.sql_eq(value));
    candidates
        .iter()
        .map(|c| match c {
            Choice::Clauses(cs) => {
                let want_where = cues.has_text_literal
                    || cues.has_number_literal
                    || cues.greater
                    || cues.less
                    || cues.like;
                let want_group = cues.group && cues.count;
                let want_order = cues.order || cues.top;
                clause_factor(cs.where_clause, want_where)
                    * clause_factor(cs.group_by, want_group)
                    * clause_factor(cs.order_by, want_order)
            }
            Choice::SelectColumns(cols) => {
                if cols.is_empty() {
                    return 0.0;
                }
                let mut total = 0.0;
                for col in cols {
                    total += match col {
                        SelectColumn::Star => {
                            if cues.count {
                                0.6
                            } else {
                                0.05
                            }
                        }
                        SelectColumn::Column(c) => similarity(*c).max(0.02),
                    };
                }
                total / cols.len() as f64
            }
            Choice::Aggregate { column, agg } => {
                let numeric = matches!(
                    column,
                    SelectColumn::Column(c) if dtype(*c) == DataType::Number
                );
                match agg {
                    None => {
                        if cues.count || cues.max || cues.min || cues.avg || cues.sum {
                            0.35
                        } else {
                            0.8
                        }
                    }
                    Some(AggFunc::Count) => {
                        if cues.count {
                            0.7
                        } else {
                            0.08
                        }
                    }
                    Some(AggFunc::Max) => {
                        if cues.max && numeric {
                            0.6
                        } else {
                            0.05
                        }
                    }
                    Some(AggFunc::Min) => {
                        if cues.min && numeric {
                            0.6
                        } else {
                            0.05
                        }
                    }
                    Some(AggFunc::Avg) => {
                        if cues.avg && numeric {
                            0.6
                        } else {
                            0.05
                        }
                    }
                    Some(AggFunc::Sum) => {
                        if cues.sum && numeric {
                            0.6
                        } else {
                            0.05
                        }
                    }
                }
            }
            Choice::WhereColumns(cols) => {
                if cols.is_empty() {
                    return 0.05;
                }
                let mut total = 0.0;
                for c in cols {
                    let sim = similarity(*c);
                    let lit_bonus = if cues.has_literal_of(dtype(*c)) { 0.3 } else { 0.0 };
                    total += (sim + lit_bonus).clamp(0.02, 1.0);
                }
                total / cols.len() as f64
            }
            Choice::Operator { column, op } => {
                let numeric = dtype(*column) == DataType::Number;
                match op {
                    CmpOp::Eq => 0.45,
                    CmpOp::Gt | CmpOp::Ge => {
                        if cues.greater && numeric {
                            0.6
                        } else {
                            0.08
                        }
                    }
                    CmpOp::Lt | CmpOp::Le => {
                        if cues.less && numeric {
                            0.6
                        } else {
                            0.08
                        }
                    }
                    CmpOp::Between => {
                        if cues.between && numeric {
                            0.6
                        } else {
                            0.05
                        }
                    }
                    CmpOp::Like => {
                        if cues.like && !numeric {
                            0.5
                        } else {
                            0.03
                        }
                    }
                    CmpOp::Ne => 0.03,
                }
            }
            Choice::PredicateValue { column, value, value2, .. } => {
                let second_ok = value2.as_ref().map(&matches_literal).unwrap_or(true);
                let type_ok = value.data_type() == Some(dtype(*column));
                if matches_literal(value) && second_ok && type_ok {
                    1.0
                } else if type_ok {
                    0.1
                } else {
                    0.01
                }
            }
            Choice::Connective(op) => match op {
                LogicalOp::Or => {
                    if cues.or {
                        0.7
                    } else {
                        0.15
                    }
                }
                LogicalOp::And => {
                    if cues.or {
                        0.3
                    } else {
                        0.85
                    }
                }
            },
            Choice::GroupBy(cols) => {
                if cols.is_empty() {
                    return 0.05;
                }
                let sim: f64 =
                    cols.iter().map(|c| similarity(*c).max(0.02)).sum::<f64>() / cols.len() as f64;
                sim + if cues.group { 0.2 } else { 0.0 }
            }
            Choice::Having(having) => match having {
                None => {
                    if cues.greater && cues.count {
                        0.3
                    } else {
                        0.8
                    }
                }
                Some(h) => {
                    let base = if cues.count && (cues.greater || cues.less) { 0.6 } else { 0.1 };
                    if matches_literal(&h.value) {
                        base
                    } else {
                        base * 0.2
                    }
                }
            },
            Choice::OrderBy(order) => match order {
                None => {
                    if cues.order || cues.top {
                        0.2
                    } else {
                        0.85
                    }
                }
                Some(o) => {
                    let dir_score = if o.desc {
                        if cues.descending {
                            0.6
                        } else if cues.ascending {
                            0.1
                        } else {
                            0.3
                        }
                    } else if cues.ascending {
                        0.6
                    } else if cues.descending {
                        0.1
                    } else {
                        0.3
                    };
                    let key_score = match o.key {
                        OrderKey::Column(c) => similarity(c).max(0.05),
                        OrderKey::Aggregate(AggFunc::Count, _) => {
                            if cues.count {
                                0.6
                            } else {
                                0.1
                            }
                        }
                        OrderKey::Aggregate(..) => 0.1,
                    };
                    let limit_score = match (o.limit, cues.top) {
                        (Some(_), true) => 0.7,
                        (Some(_), false) => 0.1,
                        (None, true) => 0.3,
                        (None, false) => 0.8,
                    };
                    dir_score * key_score * limit_score * 4.0
                }
            },
        })
        .map(|s: f64| s.max(1e-6))
        .collect()
}

/// Convenience: score a single literal value against a candidate constant.
pub fn value_matches_literal(nlq: &Nlq, value: &Value) -> bool {
    nlq.literals.iter().any(|l| l.value.sql_eq(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guidance::{normalize_scores, OrderChoice};
    use crate::similarity::IDENTIFIER_TOKEN_CALLS;
    use duoquest_db::{ColumnDef, Schema, TableDef};
    use duoquest_sql::ClauseSet;

    fn schema() -> Schema {
        let mut s = Schema::new("mas");
        s.add_table(TableDef::new(
            "publication",
            vec![ColumnDef::number("pid"), ColumnDef::text("title"), ColumnDef::number("year")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "author",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        s
    }

    #[test]
    fn clause_scoring_prefers_where_with_literals() {
        let s = schema();
        let nlq = Nlq::with_literals(
            "List publications in \"SIGMOD\"",
            vec![Literal::text("SIGMOD", Value::text("SIGMOD"))],
        );
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let candidates = vec![
            Choice::Clauses(ClauseSet::default()),
            Choice::Clauses(ClauseSet { where_clause: true, ..Default::default() }),
        ];
        let scores = m.score(&ctx, &candidates);
        assert!(scores[1] > scores[0]);
    }

    #[test]
    fn aggregate_scoring_follows_count_cue() {
        let s = schema();
        let nlq = Nlq::new("How many publications does each author have");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let star = SelectColumn::Star;
        let scores = m.score(
            &ctx,
            &[
                Choice::Aggregate { column: star, agg: None },
                Choice::Aggregate { column: star, agg: Some(AggFunc::Count) },
                Choice::Aggregate { column: star, agg: Some(AggFunc::Max) },
            ],
        );
        assert!(scores[1] > scores[0]);
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn operator_scoring_uses_comparative_cues() {
        let s = schema();
        let year = s.column_id("publication", "year").unwrap();
        let nlq = Nlq::new("publications from before 1995");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let scores = m.score(
            &ctx,
            &[
                Choice::Operator { column: year, op: CmpOp::Eq },
                Choice::Operator { column: year, op: CmpOp::Lt },
                Choice::Operator { column: year, op: CmpOp::Gt },
            ],
        );
        assert!(scores[1] > scores[2]);
    }

    #[test]
    fn predicate_value_prefers_tagged_literal() {
        let s = schema();
        let year = s.column_id("publication", "year").unwrap();
        let nlq = Nlq::with_literals("publications before 1995", vec![Literal::number(1995.0)]);
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let scores = m.score(
            &ctx,
            &[
                Choice::PredicateValue {
                    column: year,
                    op: CmpOp::Lt,
                    value: Value::int(1995),
                    value2: None,
                },
                Choice::PredicateValue {
                    column: year,
                    op: CmpOp::Lt,
                    value: Value::int(3),
                    value2: None,
                },
            ],
        );
        assert!(scores[0] > scores[1]);
        assert!(value_matches_literal(&nlq, &Value::int(1995)));
    }

    #[test]
    fn select_columns_prefer_mentioned_names() {
        let s = schema();
        let title = s.column_id("publication", "title").unwrap();
        let name = s.column_id("author", "name").unwrap();
        let year = s.column_id("publication", "year").unwrap();
        let nlq = Nlq::new("List the titles and years of publications");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let scores = m.score(
            &ctx,
            &[
                Choice::SelectColumns(vec![
                    SelectColumn::Column(title),
                    SelectColumn::Column(year),
                ]),
                Choice::SelectColumns(vec![SelectColumn::Column(name)]),
            ],
        );
        assert!(scores[0] > scores[1]);
        let normalized = normalize_scores(&scores);
        assert!((normalized.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn connective_follows_or_cue() {
        let s = schema();
        let nlq = Nlq::new("movies from before 1995, or after 2000");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let scores =
            m.score(&ctx, &[Choice::Connective(LogicalOp::And), Choice::Connective(LogicalOp::Or)]);
        assert!(scores[1] > scores[0]);
    }

    /// Every column as a WHERE-column and an ORDER BY candidate: touches each
    /// column's data type and similarity.
    fn column_choices(s: &Schema) -> Vec<Choice> {
        s.all_columns()
            .flat_map(|c| {
                let order = OrderChoice { key: OrderKey::Column(c), desc: true, limit: None };
                [Choice::WhereColumns(vec![c]), Choice::OrderBy(Some(order))]
            })
            .collect()
    }

    #[test]
    fn plan_splits_each_distinct_identifier_once_per_run() {
        let mut s = schema();
        // A third table repeating both column names of `author`.
        s.add_table(TableDef::new(
            "editor",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        let nlq = Nlq::new("names of authors ordered by year, newest first");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let calls = || IDENTIFIER_TOKEN_CALLS.with(|c| c.get());

        let before = calls();
        let plan = HeuristicGuidance::new().prepare(&ctx).unwrap();
        // publication, author, editor + pid, title, year, aid, name.
        assert_eq!(calls() - before, 8);

        let choices = column_choices(&s);
        let first = plan.score(&choices);
        for _ in 0..50 {
            assert_eq!(plan.score(&choices), first);
        }
        assert_eq!(calls() - before, 8, "scoring through the plan never re-splits an identifier");
        assert_eq!(first, HeuristicGuidance::new().score(&ctx, &choices));
    }

    #[test]
    fn plan_is_derived_from_the_nlq_as_it_is_at_run_start() {
        let s = schema();
        let year = s.column_id("publication", "year").unwrap();
        let bind = |n: i64| Choice::PredicateValue {
            column: year,
            op: CmpOp::Lt,
            value: Value::int(n),
            value2: None,
        };
        let choices = [bind(1995), bind(3), Choice::WhereColumns(vec![year])];
        let m = HeuristicGuidance::new();

        // Tokenised first, literals attached afterwards through the public field.
        let mut nlq = Nlq::new("publications before 1995");
        let bare = m.prepare(&GuidanceContext { nlq: &nlq, schema: &s }).unwrap().score(&choices);
        nlq.literals = vec![Literal::number(1995.0)];
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let tagged = m.prepare(&ctx).unwrap().score(&choices);
        assert_eq!(tagged, m.score(&ctx, &choices));
        assert_eq!(tagged[0], 1.0, "the tagged literal binds");
        assert_eq!(bare[0], 0.1, "no literal when that plan was built");
        assert!(tagged[2] > bare[2], "a numeric literal favours numeric WHERE columns");

        let attached =
            Nlq::with_literals("publications before 1995", vec![Literal::number(1995.0)]);
        let ctx = GuidanceContext { nlq: &attached, schema: &s };
        assert_eq!(m.prepare(&ctx).unwrap().score(&choices), tagged);
    }

    #[test]
    fn scores_are_strictly_positive() {
        let s = schema();
        let nlq = Nlq::new("whatever");
        let ctx = GuidanceContext { nlq: &nlq, schema: &s };
        let m = HeuristicGuidance::new();
        let scores = m.score(&ctx, &[Choice::OrderBy(None), Choice::Having(None)]);
        assert!(scores.iter().all(|s| *s > 0.0));
        assert_eq!(m.name(), "heuristic");
    }
}
