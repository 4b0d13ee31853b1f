//! The compiled guidance plan against an independent oracle: for every
//! decision reachable in a few levels of `enum_next_step`, on generated
//! Spider tasks and the MAS study tasks, the prepared plan, the model's
//! plain `score` and the pre-plan formula must return the same `f64`s bit
//! for bit — emission order, the benchmark's byte-identity check and the
//! `fig*`/`table*` binaries all hang on the exact values.

use duoquest::core::enumerate::enum_next_step;
use duoquest::core::DuoquestConfig;
use duoquest::db::Database;
use duoquest::nlq::{Choice, GuidanceContext, GuidanceModel, HeuristicGuidance, Nlq};
use duoquest::sql::PartialQuery;
use duoquest::workloads::{mas, mas_tasks, spider};
use std::collections::BTreeSet;

fn variant(choice: &Choice) -> &'static str {
    match choice {
        Choice::Clauses(_) => "Clauses",
        Choice::SelectColumns(_) => "SelectColumns",
        Choice::Aggregate { .. } => "Aggregate",
        Choice::WhereColumns(_) => "WhereColumns",
        Choice::Operator { .. } => "Operator",
        Choice::PredicateValue { .. } => "PredicateValue",
        Choice::Connective(_) => "Connective",
        Choice::GroupBy(_) => "GroupBy",
        Choice::Having(_) => "Having",
        Choice::OrderBy(_) => "OrderBy",
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Walk a few root-to-leaf paths of one (database, NLQ) pair's decision tree
/// and hold the three scorers to each other at every decision met (on an
/// even sample of a large candidate set: candidates are scored one by one,
/// and the old formula costs tens of microseconds each). Records the
/// `Choice` variants scored and returns how many choices were.
fn check_task(db: &Database, nlq: &Nlq, seen: &mut BTreeSet<&'static str>) -> usize {
    const SAMPLE: usize = 24;
    let config = DuoquestConfig::default();
    let ctx = GuidanceContext { nlq, schema: db.schema() };
    let model = HeuristicGuidance::new();
    let plan = model.prepare(&ctx).expect("the heuristic model compiles a plan");
    // Path 0 takes the last clause set (every optional clause, so the HAVING
    // and ORDER BY decisions are reached) and the last WHERE column list whose
    // columns all have a literal of their type to bind (two predicates, so
    // the connective is reached); the other paths rotate through the
    // children. Every path steps to the first child from its pick that is not
    // an immediate dead end.
    let bindable = |choice: &Choice| match choice {
        Choice::Clauses(_) => true,
        Choice::WhereColumns(cols) => cols.iter().all(|c| {
            let dtype = db.schema().column(*c).dtype;
            nlq.literals.iter().any(|l| l.data_type() == dtype)
        }),
        _ => false,
    };
    let alive = |child: &PartialQuery| {
        enum_next_step(child, db, nlq, &config).is_none_or(|next| !next.is_empty())
    };
    let mut scored = 0;
    for path in 0..3 {
        let mut pq = PartialQuery::empty();
        for level in 0..24 {
            let Some(children) = enum_next_step(&pq, db, nlq, &config) else { break };
            if children.is_empty() {
                break;
            }
            let stride = children.len().div_ceil(SAMPLE);
            let choices: Vec<Choice> =
                children.iter().step_by(stride).map(|(choice, _)| choice.clone()).collect();
            let expected = bits(&reference::score(&ctx, &choices));
            assert_eq!(bits(&plan.score(&choices)), expected, "plan vs reference: {}", nlq.text);
            assert_eq!(bits(&model.score(&ctx, &choices)), expected, "score: {}", nlq.text);
            scored += choices.len();
            seen.extend(choices.iter().map(variant));
            let preferred = children.iter().rposition(|(choice, _)| bindable(choice));
            let pick = preferred.filter(|_| path == 0).unwrap_or(path + level);
            let order = (0..children.len()).map(|i| (pick + i) % children.len());
            let Some(chosen) = order.map(|i| &children[i].1).find(|child| alive(child)) else {
                break;
            };
            pq = chosen.clone();
        }
    }
    scored
}

const ALL_VARIANTS: [&str; 10] = [
    "Aggregate",
    "Clauses",
    "Connective",
    "GroupBy",
    "Having",
    "Operator",
    "OrderBy",
    "PredicateValue",
    "SelectColumns",
    "WhereColumns",
];

#[test]
fn plan_score_and_reference_agree_bit_for_bit_on_spider() {
    let dataset = spider::generate("dev", 6, 60, 63, 25, 42);
    let mut seen = BTreeSet::new();
    let mut scored = 0;
    for task in &dataset.tasks {
        scored += check_task(dataset.database(task), &task.nlq, &mut seen);
    }
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), ALL_VARIANTS);
    assert!(scored > 10_000, "only {scored} choices scored");
}

#[test]
fn plan_score_and_reference_agree_bit_for_bit_on_mas() {
    let dataset = mas::generate(7, 0.05);
    let mut tasks = mas_tasks::mas_nli_tasks(&dataset);
    tasks.extend(mas_tasks::mas_pbe_tasks(&dataset));
    let mut seen = BTreeSet::new();
    for task in &tasks {
        check_task(&dataset.db, &task.nlq, &mut seen);
    }
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), ALL_VARIANTS);
}

/// The heuristic formula as it stood before scoring ran through a compiled
/// plan, kept verbatim (per-call cues, per-choice similarity, one `String`
/// per trigram) as the oracle the plan is held to. Nothing outside this test
/// uses it.
mod reference {
    use duoquest::db::{AggFunc, CmpOp, ColumnId, DataType, LogicalOp, OrderKey, Schema};
    use duoquest::nlq::tokenize::normalize_token;
    use duoquest::nlq::{Choice, GuidanceContext, LiteralKind, Nlq};
    use duoquest::sql::SelectColumn;

    fn identifier_tokens(identifier: &str) -> Vec<String> {
        identifier.split(['_', ' ', '.']).filter(|s| !s.is_empty()).map(normalize_token).collect()
    }

    pub fn trigram_similarity(a: &str, b: &str) -> f64 {
        let grams = |s: &str| -> Vec<String> {
            let padded = format!("  {}  ", s.to_ascii_lowercase());
            let chars: Vec<char> = padded.chars().collect();
            chars.windows(3).map(|w| w.iter().collect()).collect()
        };
        let ga = grams(a);
        let gb = grams(b);
        if ga.is_empty() || gb.is_empty() {
            return 0.0;
        }
        let inter = ga.iter().filter(|g| gb.contains(g)).count();
        let union = ga.len() + gb.len() - inter;
        inter as f64 / union as f64
    }

    pub fn name_similarity(nlq: &Nlq, identifier: &str) -> f64 {
        let id_tokens = identifier_tokens(identifier);
        if id_tokens.is_empty() || nlq.tokens.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for idt in &id_tokens {
            let mut best: f64 = 0.0;
            for tok in &nlq.tokens {
                if tok == idt {
                    best = 1.0;
                    break;
                }
                best = best.max(trigram_similarity(tok, idt));
            }
            total += best;
        }
        total / id_tokens.len() as f64
    }

    pub fn column_similarity(nlq: &Nlq, schema: &Schema, col: ColumnId) -> f64 {
        let col_name = &schema.column(col).name;
        let table_name = &schema.table(col.table).name;
        let col_sim = name_similarity(nlq, col_name);
        let table_sim = name_similarity(nlq, table_name);
        (0.75 * col_sim + 0.25 * table_sim).clamp(0.0, 1.0)
    }

    fn contains_phrase(nlq: &Nlq, phrases: &[&str]) -> bool {
        let lower = nlq.text.to_ascii_lowercase();
        phrases.iter().any(|p| lower.contains(p))
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
            Cues {
                count: contains_phrase(nlq, &["how many", "number of", "count"]),
                max: contains_phrase(nlq, &["most ", "maximum", "largest", "highest", "biggest"]),
                min: contains_phrase(nlq, &["least ", "minimum", "smallest", "lowest", "fewest"]),
                avg: contains_phrase(nlq, &["average", "mean "]),
                sum: contains_phrase(nlq, &["total", "sum of", "combined"]),
                order: contains_phrase(
                    nlq,
                    &[
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
                    ],
                ),
                descending: contains_phrase(
                    nlq,
                    &[
                        "most to least",
                        "descending",
                        "newest",
                        "most recent first",
                        "highest first",
                        "from most",
                    ],
                ),
                ascending: contains_phrase(
                    nlq,
                    &[
                        "least to most",
                        "ascending",
                        "earliest to",
                        "oldest to",
                        "from earliest",
                        "from oldest",
                        "from least",
                    ],
                ),
                group: contains_phrase(
                    nlq,
                    &["each", "per ", "for every", "number of", "how many"],
                ),
                top: contains_phrase(nlq, &["top ", "first ", "best "]),
                greater: contains_phrase(
                    nlq,
                    &[
                        "more than",
                        "greater than",
                        "over ",
                        "after",
                        "above",
                        "at least",
                        "later than",
                    ],
                ),
                less: contains_phrase(
                    nlq,
                    &[
                        "less than",
                        "fewer than",
                        "under ",
                        "before",
                        "below",
                        "at most",
                        "earlier than",
                    ],
                ),
                between: contains_phrase(nlq, &["between", "sometime between", "from 1", "from 2"]),
                like: contains_phrase(
                    nlq,
                    &["containing", "contains", "includes", "starting with"],
                ),
                or: contains_phrase(nlq, &[" or "]),
                has_text_literal: nlq.literals.iter().any(|l| l.kind == LiteralKind::Text),
                has_number_literal: nlq.literals.iter().any(|l| l.kind == LiteralKind::Number),
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

    pub fn score(ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        let cues = Cues::of(ctx.nlq);
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
                            SelectColumn::Column(c) => {
                                column_similarity(ctx.nlq, ctx.schema, *c).max(0.02)
                            }
                        };
                    }
                    total / cols.len() as f64
                }
                Choice::Aggregate { column, agg } => {
                    let numeric = matches!(
                        column,
                        SelectColumn::Column(c) if ctx.schema.column(*c).dtype == DataType::Number
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
                        let sim = column_similarity(ctx.nlq, ctx.schema, *c);
                        let dt = ctx.schema.column(*c).dtype;
                        let lit_bonus = if ctx.nlq.literals.iter().any(|l| l.data_type() == dt) {
                            0.3
                        } else {
                            0.0
                        };
                        total += (sim + lit_bonus).clamp(0.02, 1.0);
                    }
                    total / cols.len() as f64
                }
                Choice::Operator { column, op } => {
                    let numeric = ctx.schema.column(*column).dtype == DataType::Number;
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
                    let dt = ctx.schema.column(*column).dtype;
                    let matches_literal = ctx.nlq.literals.iter().any(|l| l.value.sql_eq(value));
                    let second_ok = value2
                        .as_ref()
                        .map(|v| ctx.nlq.literals.iter().any(|l| l.value.sql_eq(v)))
                        .unwrap_or(true);
                    let type_ok = value.data_type() == Some(dt);
                    if matches_literal && second_ok && type_ok {
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
                    let sim: f64 = cols
                        .iter()
                        .map(|c| column_similarity(ctx.nlq, ctx.schema, *c).max(0.02))
                        .sum::<f64>()
                        / cols.len() as f64;
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
                        let literal_match =
                            ctx.nlq.literals.iter().any(|l| l.value.sql_eq(&h.value));
                        let base =
                            if cues.count && (cues.greater || cues.less) { 0.6 } else { 0.1 };
                        if literal_match {
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
                            OrderKey::Column(c) => {
                                column_similarity(ctx.nlq, ctx.schema, c).max(0.05)
                            }
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
}
