//! Cross-domain benchmark scenario: generate a small synthetic Spider-like
//! split, run Duoquest, the NLI baseline and the PBE baseline on it, and print
//! a miniature version of the paper's Figure 10.
//!
//! Run with: `cargo run --example spider_benchmark`

use duoquest::baselines::SquidPbe;
use duoquest::core::{DuoquestConfig, SynthesisSession};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let dataset = spider::generate("example", 3, 12, 12, 6, 21);
    println!(
        "Generated {} databases and {} tasks ({:?} easy/medium/hard)\n",
        dataset.databases.len(),
        dataset.tasks.len(),
        dataset.difficulty_counts()
    );

    let config = DuoquestConfig {
        max_candidates: 15,
        max_expansions: 2_000,
        time_budget: Some(Duration::from_secs(2)),
        ..Default::default()
    };
    // The NLI baseline: the same engine without the TSQ and the
    // TSQ-independent semantic rules.
    let nli_config = config.clone().without_semantic_rules();
    let pbe = SquidPbe::new();

    let (mut dq_top1, mut dq_top10, mut nli_top1, mut nli_top10) = (0, 0, 0, 0);
    let (mut pbe_correct, mut pbe_unsupported) = (0, 0);
    for (i, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, i as u64);
        let model = NoisyOracleGuidance::new(gold.clone(), i as u64);
        let session = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model));

        let dq = session.clone().with_config(config.clone()).with_tsq(tsq.clone()).run();
        if dq.in_top_k(&gold, 1) {
            dq_top1 += 1;
        }
        if dq.in_top_k(&gold, 10) {
            dq_top10 += 1;
        }
        let nl = session.with_config(nli_config.clone()).run();
        if nl.in_top_k(&gold, 1) {
            nli_top1 += 1;
        }
        if nl.in_top_k(&gold, 10) {
            nli_top10 += 1;
        }
        if pbe.supports(db, &gold) {
            let outcome = pbe.run(db, &tsq);
            if pbe.correct_for(&outcome, &gold) {
                pbe_correct += 1;
            }
        } else {
            pbe_unsupported += 1;
        }
    }

    let total = dataset.tasks.len();
    let pct = |n: usize| 100.0 * n as f64 / total as f64;
    println!("System     Top-1          Top-10         Correct        Unsupported");
    println!(
        "Duoquest   {dq_top1:>3} ({:5.1}%)   {dq_top10:>3} ({:5.1}%)        -              0",
        pct(dq_top1),
        pct(dq_top10)
    );
    println!(
        "NLI        {nli_top1:>3} ({:5.1}%)   {nli_top10:>3} ({:5.1}%)        -              0",
        pct(nli_top1),
        pct(nli_top10)
    );
    println!(
        "PBE          -              -            {pbe_correct:>3} ({:5.1}%)   {pbe_unsupported:>3} ({:5.1}%)",
        pct(pbe_correct),
        pct(pbe_unsupported)
    );
    println!(
        "\n(The full evaluation lives in `cargo run -p duoquest-bench --bin run_all_experiments`.)"
    );
}
