//! Academic-search scenario: run one of the paper's user-study tasks (Table 7)
//! on the synthetic MAS database with the calibrated noisy-oracle guidance
//! model, and compare the dual-specification result with the NLI-only baseline.
//!
//! Run with: `cargo run --example academic_search`

use duoquest::core::{DuoquestConfig, SynthesisSession};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::sql::render_sql;
use duoquest::workloads::{mas_nli_tasks, synthesize_tsq, MasDataset, TsqDetail};
use std::sync::Arc;

fn main() {
    let mas = MasDataset::standard();
    let tasks = mas_nli_tasks(&mas);

    // Verification fan-out sized to the machine; paper-order exploration. No
    // wall-clock budget — the one cut-off that is not a function of the
    // request — so two runs print the same thing (CI compares them).
    let config = DuoquestConfig {
        max_candidates: 20,
        max_expansions: 3_000,
        time_budget: None,
        ..Default::default()
    };
    // Task B4: "List authors from organization R with more than N publications
    // and the number of publications for each author."
    let task = tasks.iter().find(|t| t.id == "B4").expect("task B4 exists");
    println!("Task {}: {}", task.id, task.description);
    println!("Gold SQL: {}\n", render_sql(&task.gold, mas.db.schema()));

    // Synthesize the TSQ the way a study participant would supply facts:
    // two example tuples drawn from the result, types, no sorting.
    let (gold, tsq) = synthesize_tsq(&mas.db, &task.gold, TsqDetail::Full, 2, 7);
    let model = NoisyOracleGuidance::new(gold.clone(), 7);
    let session = SynthesisSession::new(Arc::clone(&mas.db), task.nlq.clone(), Arc::new(model));

    let dual = session.clone().with_config(config.clone()).with_tsq(tsq).run();
    println!("Duoquest (NLQ + TSQ):");
    match dual.rank_of(&gold) {
        Some(rank) => {
            println!("  gold query found at rank {rank} of {} candidates", dual.candidates.len())
        }
        None => println!("  gold query not found within the budget"),
    }
    for cand in dual.candidates.iter().take(3) {
        println!("    {:.4}  {}", cand.confidence, render_sql(&cand.spec, mas.db.schema()));
    }
    println!(
        "  [{} rounds, frontier peak {}, probe cache: {} lookups, {} executed]",
        dual.stats.rounds,
        dual.stats.frontier_peak,
        dual.stats.cache_hits + dual.stats.cache_misses,
        dual.stats.cache_misses
    );

    // The NLI baseline is the same engine without the TSQ and the
    // TSQ-independent semantic rules.
    let nli_result = session.with_config(config.without_semantic_rules()).run();
    println!("\nNLI baseline (NLQ only):");
    match nli_result.rank_of(&gold) {
        Some(rank) => {
            println!(
                "  gold query found at rank {rank} of {} candidates",
                nli_result.candidates.len()
            )
        }
        None => println!(
            "  gold query not found among {} candidates within the budget",
            nli_result.candidates.len()
        ),
    }

    // The autocomplete index backing the front end's literal tagging.
    println!("\nAutocomplete for \"Uni\": {:?}", mas.db.index().autocomplete("Uni", 5));
}
