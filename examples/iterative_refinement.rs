//! Iterative refinement scenario (paper §2.4, Figure 1): the user first issues
//! only an NLQ, inspects the candidates, and then refines the specification by
//! adding example tuples to the TSQ until the desired query is ranked first.
//!
//! Run with: `cargo run --example iterative_refinement`

use duoquest::core::{Duoquest, DuoquestConfig, TableSketchQuery, TsqCell};
use duoquest::db::CmpOp;
use duoquest::db::DataType;
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::sql::{render_sql, QueryBuilder};
use duoquest::workloads::MasDataset;
use std::sync::Arc;

fn main() {
    let mas = MasDataset::standard();
    let schema = mas.db.schema();

    // The user's intent: publications in SIGMOD after 2010 with their years.
    let gold = QueryBuilder::new(schema)
        .select("publication.title")
        .select("publication.year")
        .filter("conference.name", CmpOp::Eq, mas.conference_c.as_str())
        .filter("publication.year", CmpOp::Gt, 2010)
        .build()
        .unwrap();
    let gold = duoquest::workloads::canonicalize_select(&gold);
    println!("Desired query: {}\n", render_sql(&gold, schema));

    let nlq = duoquest::nlq::Nlq::with_literals(
        format!("titles and years of papers in \"{}\" after 2010", mas.conference_c),
        vec![
            duoquest::nlq::Literal::text(
                mas.conference_c.clone(),
                duoquest::db::Value::text(mas.conference_c.clone()),
            ),
            duoquest::nlq::Literal::number(2010.0),
        ],
    );
    // A mediocre guidance model makes the refinement visible.
    let model: Arc<dyn duoquest::nlq::GuidanceModel> = Arc::new(NoisyOracleGuidance::with_config(
        gold.clone(),
        6,
        duoquest::nlq::OracleConfig::default().scaled(0.8),
    ));
    let config = DuoquestConfig {
        max_expansions: 12_000,
        max_candidates: 40,
        time_budget: Some(std::time::Duration::from_secs(10)),
        ..Default::default()
    };
    let engine = Duoquest::new(config);
    // Each refinement round is one synthesis session over the same shared
    // database; the probe cache warms up across rounds.
    let session = |tsq: Option<TableSketchQuery>| {
        let s = engine.session(Arc::clone(&mas.db), nlq.clone(), Arc::clone(&model));
        match tsq {
            Some(tsq) => s.with_tsq(tsq),
            None => s,
        }
    };

    // Round 1: NLQ only.
    let round1 = session(None).run();
    println!("Round 1 (NLQ only): gold rank = {:?}", round1.rank_of(&gold));

    // Round 2: add type annotations.
    let tsq = TableSketchQuery::with_types(vec![DataType::Text, DataType::Number]);
    let round2 = session(Some(tsq.clone())).run();
    println!("Round 2 (+ type annotations): gold rank = {:?}", round2.rank_of(&gold));

    // Round 3: add a half-remembered example tuple — a paper the user knows is
    // in the result, with only a rough idea of its year.
    let result = duoquest::db::execute(&mas.db, &gold).unwrap();
    let example_title = result.rows[0].0[0].as_text().unwrap_or("Paper 0019").to_string();
    let example_year = result.rows[0].0[1].as_number().unwrap_or(2015.0);
    let tsq = tsq.with_tuple(vec![
        TsqCell::text(example_title.clone()),
        TsqCell::range(example_year - 2.0, example_year + 2.0),
    ]);
    let round3 = session(Some(tsq)).run();
    println!(
        "Round 3 (+ example tuple \"{example_title}\", year in [2011, 2022]): gold rank = {:?}",
        round3.rank_of(&gold)
    );
    println!(
        "\nCandidates shrink as the specification grows: {} -> {} -> {}",
        round1.candidates.len(),
        round2.candidates.len(),
        round3.candidates.len()
    );
}
