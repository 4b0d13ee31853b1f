//! End-to-end integration tests spanning every crate: the motivating example
//! of the paper (Example 2.1/2.2) and dual-specification synthesis on the
//! MAS user-study tasks.

use duoquest::core::{DuoquestConfig, SynthesisSession, TableSketchQuery, TsqCell};
use duoquest::db::{execute, ColumnDef, DataType, Database, Schema, TableDef, Value};
use duoquest::nlq::{Literal, Nlq, NoisyOracleGuidance, OracleConfig};
use duoquest::sql::{parse_query, queries_equivalent, render_sql};
use duoquest::workloads::{mas_nli_tasks, synthesize_tsq, MasDataset, TsqDetail};
use std::sync::Arc;
use std::time::Duration;

fn movie_db() -> Database {
    let mut schema = Schema::new("movies");
    schema.add_table(TableDef::new(
        "actor",
        vec![
            ColumnDef::number("aid"),
            ColumnDef::text("name"),
            ColumnDef::number("birth_yr"),
            ColumnDef::text("gender"),
        ],
        Some(0),
    ));
    schema.add_table(TableDef::new(
        "movies",
        vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
        Some(0),
    ));
    schema.add_table(TableDef::new(
        "starring",
        vec![ColumnDef::number("aid"), ColumnDef::number("mid")],
        None,
    ));
    schema.add_foreign_key("starring", "aid", "actor", "aid").unwrap();
    schema.add_foreign_key("starring", "mid", "movies", "mid").unwrap();
    let mut db = Database::new(schema).unwrap();
    db.insert_all(
        "actor",
        vec![
            vec![Value::int(1), Value::text("Tom Hanks"), Value::int(1956), Value::text("male")],
            vec![
                Value::int(2),
                Value::text("Sandra Bullock"),
                Value::int(1964),
                Value::text("female"),
            ],
            vec![Value::int(3), Value::text("Brad Pitt"), Value::int(1963), Value::text("male")],
        ],
    )
    .unwrap();
    db.insert_all(
        "movies",
        vec![
            vec![Value::int(10), Value::text("Forrest Gump"), Value::int(1994)],
            vec![Value::int(11), Value::text("Gravity"), Value::int(2013)],
            vec![Value::int(12), Value::text("Fight Club"), Value::int(1999)],
        ],
    )
    .unwrap();
    db.insert_all(
        "starring",
        vec![
            vec![Value::int(1), Value::int(10)],
            vec![Value::int(2), Value::int(11)],
            vec![Value::int(3), Value::int(12)],
        ],
    )
    .unwrap();
    db
}

/// The paper's CQ3-style interpretation expressed against the movie schema:
/// movie names, actor names and years for movies before 1995 or after 2000.
fn motivating_gold(db: &Database) -> duoquest::db::SelectSpec {
    let sql = "SELECT movies.name, actor.name, movies.year FROM actor \
               JOIN starring ON actor.aid = starring.aid \
               JOIN movies ON starring.mid = movies.mid \
               WHERE movies.year < 1995 OR movies.year > 2000";
    duoquest::workloads::canonicalize_select(&parse_query(db.schema(), sql).unwrap())
}

#[test]
fn motivating_example_dual_specification() {
    let db = movie_db().into_shared();
    let gold = motivating_gold(&db);

    // The TSQ of Table 2 (canonical column order: actor.name, movies.name, movies.year).
    let tsq = TableSketchQuery::with_types(vec![DataType::Text, DataType::Text, DataType::Number])
        .with_tuple(vec![TsqCell::text("Tom Hanks"), TsqCell::text("Forrest Gump"), TsqCell::Empty])
        .with_tuple(vec![
            TsqCell::text("Sandra Bullock"),
            TsqCell::text("Gravity"),
            TsqCell::range(2010, 2017),
        ]);

    let nlq = Nlq::with_literals(
        "Show names of movies starring actors from before 1995, and those after 2000, \
         with corresponding actor names, and years",
        vec![Literal::number(1995.0), Literal::number(2000.0)],
    );

    let config = DuoquestConfig {
        max_expansions: 12_000,
        max_candidates: 40,
        time_budget: Some(Duration::from_secs(20)),
        ..Default::default()
    };
    let model = NoisyOracleGuidance::with_config(gold.clone(), 5, OracleConfig::perfect());

    let result = SynthesisSession::new(Arc::clone(&db), nlq, Arc::new(model))
        .with_config(config)
        .with_tsq(tsq.clone())
        .run();
    let rank = result.rank_of(&gold);
    assert!(rank.is_some(), "gold query not found; stats: {:?}", result.stats);
    assert!(rank.unwrap() <= 10, "gold rank too deep: {rank:?}");

    // The TSQ eliminates the CQ1 interpretation (gender = male), which cannot
    // produce the Sandra Bullock tuple.
    let cq1 = parse_query(
        db.schema(),
        "SELECT movies.name, actor.name, movies.year FROM actor \
         JOIN starring ON actor.aid = starring.aid JOIN movies ON starring.mid = movies.mid \
         WHERE actor.gender = 'male' AND movies.year < 1995",
    )
    .unwrap();
    assert!(result.candidates.iter().all(|c| !queries_equivalent(&c.spec, &cq1)));

    // Every returned candidate satisfies the TSQ (soundness): re-execute and check.
    for cand in &result.candidates {
        let rs = execute(&db, &cand.spec).unwrap();
        for (ti, _) in tsq.tuples.iter().enumerate() {
            assert!(
                rs.rows.iter().any(|r| tsq.row_satisfies_tuple(ti, &r.0)),
                "candidate {} violates the TSQ",
                render_sql(&cand.spec, db.schema())
            );
        }
    }
}

#[test]
fn mas_task_a1_solved_with_dual_specification_but_harder_for_nli() {
    let mas = MasDataset::standard();
    let tasks = mas_nli_tasks(&mas);
    let a1 = tasks.iter().find(|t| t.id == "A1").unwrap();

    let config = DuoquestConfig {
        max_candidates: 20,
        max_expansions: 8_000,
        time_budget: Some(Duration::from_secs(20)),
        ..Default::default()
    };

    let (gold, tsq) = synthesize_tsq(&mas.db, &a1.gold, TsqDetail::Full, 2, 3);
    let model = NoisyOracleGuidance::new(gold.clone(), 3);

    let session = SynthesisSession::new(Arc::clone(&mas.db), a1.nlq.clone(), Arc::new(model));
    let duoquest = session.clone().with_config(config.clone()).with_tsq(tsq).run();
    let nli = session.with_config(config.without_semantic_rules()).run();

    let dq_rank = duoquest.rank_of(&gold);
    assert!(dq_rank.is_some(), "Duoquest failed A1: {:?}", duoquest.stats);
    // The dual specification never ranks the gold query worse than the NLI baseline.
    if let (Some(dq), Some(nl)) = (dq_rank, nli.rank_of(&gold)) {
        assert!(dq <= nl, "dual specification rank {dq} worse than NLI rank {nl}");
    }
}

#[test]
fn tsq_detail_monotonically_helps_on_a_simple_task() {
    let mas = MasDataset::standard();
    let tasks = mas_nli_tasks(&mas);
    let b1 = tasks.iter().find(|t| t.id == "B1").unwrap();

    let config = DuoquestConfig {
        max_candidates: 30,
        max_expansions: 8_000,
        time_budget: Some(Duration::from_secs(20)),
        ..Default::default()
    };

    let mut ranks = Vec::new();
    for detail in [TsqDetail::Full, TsqDetail::Minimal] {
        let (gold, tsq) = synthesize_tsq(&mas.db, &b1.gold, detail, 2, 11);
        let model = NoisyOracleGuidance::new(gold.clone(), 11);
        let result = SynthesisSession::new(Arc::clone(&mas.db), b1.nlq.clone(), Arc::new(model))
            .with_config(config.clone())
            .with_tsq(tsq)
            .run();
        ranks.push(result.rank_of(&gold));
    }
    // The Full TSQ must find the query; the Minimal TSQ may or may not, but if
    // both find it the Full rank is at least as good.
    assert!(ranks[0].is_some());
    if let (Some(full), Some(minimal)) = (ranks[0], ranks[1]) {
        assert!(full <= minimal);
    }
}
