//! The inline mode is the calling thread and nothing else. This file holds
//! one test on purpose: it counts the threads of its process, and the test
//! harness starts a thread per test.

use duoquest::core::{Duoquest, DuoquestConfig, SynthesisResult, SynthesisSession};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::sync::Arc;

fn ranking(result: &SynthesisResult) -> Vec<(String, u64)> {
    result.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence.to_bits())).collect()
}

/// Threads of this process, from the kernel's task list.
fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map(|tasks| tasks.count()).unwrap_or(0)
}

/// The thread count read inside the candidate callback — or inside the loop
/// draining a pulled stream — is the count before the run, and the result
/// carries no pool observations: for a session's `run_with` and `stream()`,
/// and for the borrowed entry points (they cannot hand `&Database` to a
/// pool); all three return the same candidates.
#[test]
fn inline_mode_spawns_no_thread() {
    let dataset = spider::generate("inline-mode", 1, 2, 2, 2, 33);
    let config = DuoquestConfig {
        max_candidates: 20,
        max_expansions: 1_500,
        time_budget: None,
        ..Default::default()
    };
    let task = &dataset.tasks[0];
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 41);
    let model = NoisyOracleGuidance::new(gold, 41);

    let before = process_threads();
    let mut during = Vec::new();
    let session = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model.clone()))
        .with_tsq(tsq.clone())
        .with_config(config.clone())
        .run_with(|_| {
            during.push(process_threads());
            true
        });
    assert!(!during.is_empty(), "the task emits candidates");
    assert!(during.iter().all(|&n| n == before), "{before} threads before, {during:?} during");
    assert!(session.stats.scheduler.is_none());

    during.clear();
    let borrowed =
        Duoquest::new(config.clone()).synthesize_with(db, &task.nlq, Some(&tsq), &model, |_| {
            during.push(process_threads());
            true
        });
    assert!(during.iter().all(|&n| n == before), "{before} threads before, {during:?} during");
    assert!(borrowed.stats.scheduler.is_none());
    assert_eq!(ranking(&session), ranking(&borrowed));

    during.clear();
    let mut stream = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_tsq(tsq)
        .with_config(config)
        .stream();
    for _candidate in stream.by_ref() {
        during.push(process_threads());
    }
    let streamed = stream.finish();
    assert!(!during.is_empty(), "the stream yields candidates");
    assert!(during.iter().all(|&n| n == before), "{before} threads before, {during:?} during");
    assert!(streamed.stats.scheduler.is_none());
    assert_eq!(ranking(&session), ranking(&streamed));
}
