//! Fairness of the shared batch session scheduler: many sessions on one
//! pool must share it in weighted round-robin order, so a cheap interactive
//! session is served while an expensive one is still grinding — one session
//! must never starve the rest — and a session nobody competes with never
//! pays for that fairness.

mod common;

use common::drive;
use duoquest::core::{
    Candidate, DrivenOutcome, DuoquestConfig, SessionControl, SessionScheduler, SynthesisResult,
    SynthesisSession,
};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Task `index` of `dataset` under a full sketch and the oracle.
fn session_for(
    dataset: &spider::SpiderDataset,
    index: usize,
    config: DuoquestConfig,
) -> SynthesisSession {
    let task = &dataset.tasks[index];
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 17);
    SynthesisSession::new(
        Arc::clone(db),
        task.nlq.clone(),
        Arc::new(NoisyOracleGuidance::new(gold, 17)),
    )
    .with_tsq(tsq)
    .with_config(config)
}

/// Drive `session` on `pool` from a thread of its own, which returns the
/// finished run; `sink` sees each candidate on the pool worker.
fn drive_in_background(
    session: SynthesisSession,
    pool: &SessionScheduler,
    sink: impl FnMut(&Candidate) -> bool + Send + 'static,
) -> JoinHandle<SynthesisResult> {
    let handle = pool.handle();
    std::thread::spawn(move || match drive(session, &handle, sink) {
        DrivenOutcome::Finished(result) => result,
        DrivenOutcome::Poisoned(message) => panic!("a session was poisoned: {message:?}"),
    })
}

/// A count gate, not a stopwatch: a driven session alone on a pool stays on
/// the worker that took it. Whatever its length it queues one unit — its
/// kick-off — and never sees a queue deeper than that: every yield finds
/// nobody waiting and costs no requeue, no wake-up and no migration.
#[test]
fn a_session_alone_on_a_pool_never_leaves_its_worker() {
    let dataset = spider::generate("alone", 1, 2, 2, 2, 7);
    let mut longest = 0;
    for index in 0..dataset.tasks.len() {
        for max_expansions in [10, 100, 1_500] {
            let config = DuoquestConfig {
                max_expansions,
                max_candidates: usize::MAX,
                time_budget: None,
                ..Default::default()
            };
            let pool = SessionScheduler::new(2);
            let outcome = drive(session_for(&dataset, index, config), &pool.handle(), |_| true);
            let DrivenOutcome::Finished(result) = outcome else { panic!("task {index} poisoned") };
            let run = result.stats.scheduler.expect("the run was on the pool");
            assert_eq!(
                run.units_submitted, 1,
                "task {index}, {max_expansions} expansions: {run:?}"
            );
            assert!(run.queue_depth_peak <= 1, "task {index}, {max_expansions}: {run:?}");
            let rounds = result.stats.rounds as u64;
            assert!(0 < run.units_inline && run.units_inline <= rounds, "{run:?} in {rounds}");
            longest = longest.max(result.stats.rounds);
        }
    }
    assert!(longest > 100, "the longest run had {longest} rounds: no yield was ever reached");
}

/// The other side of the same gate: two endless sessions on a one-worker
/// pool both advance, and both are requeued — a yield that finds the other
/// session waiting hands the worker over.
#[test]
fn two_sessions_on_one_worker_take_turns() {
    let dataset = spider::generate("turns", 1, 2, 2, 2, 7);
    let endless = DuoquestConfig {
        max_expansions: usize::MAX,
        max_candidates: usize::MAX,
        max_states: 2_000_000,
        time_budget: Some(Duration::from_secs(60)),
        ..Default::default()
    };
    let pool = SessionScheduler::new(1);
    let hardest = dataset.tasks.len() - 1;
    let control = SessionControl::new();
    let (seen_tx, seen_rx) = mpsc::channel();
    let drivers: Vec<_> = (0..2)
        .map(|id| {
            let session =
                session_for(&dataset, hardest, endless.clone()).with_control(control.clone());
            let seen_tx = seen_tx.clone();
            drive_in_background(session, &pool, move |_| {
                let _ = seen_tx.send(id);
                true
            })
        })
        .collect();
    // The second session's first candidate can only follow a hand-over.
    let mut seen = [false; 2];
    while seen != [true; 2] {
        seen[seen_rx.recv_timeout(Duration::from_secs(30)).expect("a session starved")] = true;
    }
    // Four occupancies over: each session has ended at least one of them at
    // a yield the other was waiting behind (neither run can finish).
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.stats().units_executed < 4 {
        assert!(Instant::now() < deadline, "the sessions stopped taking turns");
        std::thread::yield_now();
    }
    control.cancel();
    for driver in drivers {
        let result = driver.join().expect("a driving thread panicked");
        let run = result.stats.scheduler.expect("the run was on the pool");
        assert!(run.units_submitted > 1, "an endless session was never requeued: {run:?}");
        assert!(run.live_sessions_peak >= 2, "{run:?}");
    }
}

/// A slow session and a fast session sharing one single-worker pool: the
/// fast session's first candidate must arrive before the slow session
/// completes. (With FIFO whole-session scheduling the fast session would
/// wait behind every queued unit of the slow one.)
#[test]
fn fast_session_is_served_while_slow_session_runs() {
    let dataset = spider::generate("fairness", 1, 2, 2, 2, 7);
    // The slow session: a hard task with inflated budgets and no deadline.
    let slow_task = dataset
        .tasks
        .iter()
        .rev()
        .find(|t| t.level == duoquest::workloads::Difficulty::Hard)
        .unwrap_or_else(|| dataset.tasks.last().expect("workload has tasks"));
    // The fast session: the cheapest task with tiny budgets.
    let fast_task = dataset.tasks.first().expect("workload has tasks");

    let pool = SessionScheduler::new(1);
    let slow_control = SessionControl::new();

    let db = dataset.database(slow_task);
    let (slow_gold, slow_tsq) = synthesize_tsq(db, &slow_task.gold, TsqDetail::Full, 2, 11);
    // Effectively unbounded except for the (generous) wall-clock budget, so
    // even on much faster hardware the slow session cannot complete before
    // the fast session is served — the test's precondition.
    let slow_config = DuoquestConfig {
        max_expansions: usize::MAX,
        max_candidates: usize::MAX,
        max_states: 2_000_000,
        time_budget: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let slow_session = SynthesisSession::new(
        Arc::clone(db),
        slow_task.nlq.clone(),
        Arc::new(NoisyOracleGuidance::new(slow_gold, 11)),
    )
    .with_tsq(slow_tsq)
    .with_config(slow_config)
    .with_control(slow_control.clone());

    let fast_db = dataset.database(fast_task);
    let (fast_gold, fast_tsq) = synthesize_tsq(fast_db, &fast_task.gold, TsqDetail::Full, 2, 13);
    let mut fast_config = DuoquestConfig::fast();
    fast_config.max_candidates = 3;
    let fast_session = SynthesisSession::new(
        Arc::clone(fast_db),
        fast_task.nlq.clone(),
        Arc::new(NoisyOracleGuidance::new(fast_gold, 13)),
    )
    .with_tsq(fast_tsq)
    .with_config(fast_config);

    // Start the slow session and let it saturate the single worker. If the
    // machine is so fast that the slow session exhausts its search space
    // before contention can even be established, there is nothing to measure
    // — skip rather than report a spurious failure (on the 1-CPU reference
    // box the slow session runs for well over a second).
    let slow = drive_in_background(slow_session, &pool, |_| true);
    std::thread::sleep(Duration::from_millis(50));
    if slow.is_finished() {
        eprintln!("SKIP: slow session finished in <50ms on this machine; no contention window");
        let _ = slow.join();
        return;
    }

    // Now ask for the fast session's first candidate under contention. This
    // is the unconditional starvation check: under FIFO whole-session
    // scheduling the fast session would sit behind the slow session's entire
    // multi-second queue instead of being interleaved.
    let started = Instant::now();
    let (first_tx, first_rx) = mpsc::channel();
    let fast = drive_in_background(fast_session, &pool, move |candidate| {
        let _ = first_tx.send(candidate.clone());
        true
    });
    let first = first_rx.recv_timeout(Duration::from_secs(20)).ok();
    let time_to_first = started.elapsed();
    assert!(first.is_some(), "fast session starved: no candidate within 20s");

    // The headline fairness assertion: the fast session produced output
    // while the slow session was still running.
    assert!(
        !slow.is_finished(),
        "slow session finished (in under {time_to_first:?}) before the fast session's first \
         candidate — the workload no longer exercises contention"
    );

    let fast_result = fast.join().expect("the fast session's thread panicked");
    assert!(!fast_result.candidates.is_empty());
    // Both sessions ran on the shared pool.
    let run = fast_result.stats.scheduler.expect("fast session ran on the shared pool");
    assert_eq!(run.pool_workers, 1);
    assert!(
        run.live_sessions_peak >= 2 || run.units_submitted == 0,
        "fast session should have observed the slow session sharing the pool: {run:?}"
    );

    slow_control.cancel();
    let slow_result = slow.join().expect("the slow session's thread panicked");
    assert!(slow_result.stats.scheduler.is_some());
}
