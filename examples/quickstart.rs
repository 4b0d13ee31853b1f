//! Quickstart: the paper's motivating example (Example 2.1 / 2.2).
//!
//! Kevin wants "names of movies starring actors from before 1995, and those
//! after 2000, with corresponding actor names and years". The NLQ alone is
//! ambiguous; adding a table sketch query with two half-remembered facts
//! (Tom Hanks starred in Forrest Gump before 1995, Sandra Bullock starred in
//! Gravity sometime between 2010 and 2017) lets Duoquest prune the wrong
//! interpretations.
//!
//! Run with: `cargo run --example quickstart`

use duoquest::core::{Duoquest, DuoquestConfig, TableSketchQuery, TsqCell};
use duoquest::db::{ColumnDef, DataType, Database, Schema, TableDef, Value};
use duoquest::nlq::{extract_literals, HeuristicGuidance, Nlq};
use duoquest::sql::render_sql;
use std::sync::Arc;

fn build_movie_database() -> Database {
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
            vec![
                Value::int(4),
                Value::text("Meryl Streep"),
                Value::int(1949),
                Value::text("female"),
            ],
        ],
    )
    .unwrap();
    db.insert_all(
        "movies",
        vec![
            vec![Value::int(10), Value::text("Forrest Gump"), Value::int(1994)],
            vec![Value::int(11), Value::text("Gravity"), Value::int(2013)],
            vec![Value::int(12), Value::text("Fight Club"), Value::int(1999)],
            vec![Value::int(13), Value::text("The Post"), Value::int(2017)],
        ],
    )
    .unwrap();
    db.insert_all(
        "starring",
        vec![
            vec![Value::int(1), Value::int(10)],
            vec![Value::int(2), Value::int(11)],
            vec![Value::int(3), Value::int(12)],
            vec![Value::int(4), Value::int(13)],
        ],
    )
    .unwrap();
    db.rebuild_index();
    db
}

fn main() {
    let db = build_movie_database().into_shared();

    // 1. The natural language query, with literal values tagged (the front end
    //    does this via the autocomplete interface; here we extract them).
    let text = "Show names of movies starring actors from before 1995, and those after 2000, \
                with corresponding actor names, and years";
    let literals = extract_literals(text, Some(&db));
    let nlq = Nlq::with_literals(text, literals);
    println!("NLQ: {text}");
    println!(
        "Tagged literals: {:?}\n",
        nlq.literals.iter().map(|l| l.surface.clone()).collect::<Vec<_>>()
    );

    // 2. The optional table sketch query (paper Table 2), in the canonical
    //    column order used by the enumerator (actor.name, movies.name, movies.year).
    let tsq = TableSketchQuery::with_types(vec![DataType::Text, DataType::Text, DataType::Number])
        .with_tuple(vec![TsqCell::text("Tom Hanks"), TsqCell::text("Forrest Gump"), TsqCell::Empty])
        .with_tuple(vec![
            TsqCell::text("Sandra Bullock"),
            TsqCell::text("Gravity"),
            TsqCell::range(2010, 2017),
        ]);
    println!("TSQ: types = [text, text, number], 2 example tuples, not sorted, no limit\n");

    // 3. Synthesize with the purely lexical guidance model (no training data),
    //    on a session streaming candidates as they survive verification —
    //    exactly what the paper's interactive front end shows.
    let engine = Duoquest::new(DuoquestConfig::fast());
    let model = Arc::new(HeuristicGuidance::new());

    println!("--- Dual specification (NLQ + TSQ), streamed ---");
    let mut stream =
        engine.session(Arc::clone(&db), nlq.clone(), model.clone()).with_tsq(tsq).stream();
    let mut streamed = 0usize;
    for cand in stream.by_ref() {
        streamed += 1;
        if streamed <= 5 {
            println!(
                "  [{:>6.1} ms] conf {:.4}: {}",
                cand.emitted_at.as_secs_f64() * 1e3,
                cand.confidence,
                render_sql(&cand.spec, db.schema())
            );
        }
    }
    let dual = stream.finish();
    println!(
        "  [{} candidates ({streamed} streamed live), {} states expanded over {} rounds, \
         {} pruned by the TSQ/semantic cascade, {} probe-cache lookups ({} executed)]\n",
        dual.candidates.len(),
        dual.stats.expanded,
        dual.stats.rounds,
        dual.stats.total_pruned(),
        dual.stats.cache_hits + dual.stats.cache_misses,
        dual.stats.cache_misses
    );

    println!("--- NLQ only (no TSQ) ---");
    let nlq_only = engine.session(Arc::clone(&db), nlq, model).run();
    println!(
        "  {} candidates survive without the TSQ (vs {} with it) — the sketch prunes the ambiguity.",
        nlq_only.candidates.len(),
        dual.candidates.len()
    );
}
