//! Determinism of the synthesis core: for a fixed configuration the
//! candidate set and ranking must be a pure function of the inputs — never of
//! where the run stands (inline or on a pool of any size), thread scheduling,
//! hasher or process — on a fixed synthetic Spider workload and on the MAS
//! user-study requests.

mod common;

use common::drive;
use duoquest::core::{
    Candidate, DrivenOutcome, DuoquestConfig, SchedulerHandle, SessionScheduler, SynthesisResult,
    SynthesisSession, TableSketchQuery,
};
use duoquest::db::{Database, SelectSpec};
use duoquest::nlq::{GuidanceModel, HeuristicGuidance, Nlq, NoisyOracleGuidance};
use duoquest::service::{
    PriorityClass, RequestStatus, ServiceConfig, SynthesisRequest, SynthesisService,
};
use duoquest::workloads::{
    mas, mas_nli_tasks, mas_pbe_tasks, spider, synthesize_tsq, MasDataset, TsqDetail,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc};

/// A reduced, fixed workload: 1 database, 6 tasks across difficulties.
fn workload() -> spider::SpiderDataset {
    spider::generate("determinism", 1, 2, 2, 2, 33)
}

fn base_config() -> DuoquestConfig {
    DuoquestConfig {
        max_candidates: 20,
        max_expansions: 1_500,
        // No wall-clock budget: timeouts are the one intentionally
        // non-deterministic cut-off.
        time_budget: None,
        ..Default::default()
    }
}

/// Candidate list rendered as comparable `(structure, confidence)` pairs in
/// final ranking order.
fn ranking(result: &SynthesisResult) -> Vec<(String, f64)> {
    result.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect()
}

/// A driven run on a pool equals the inline (sequential Algorithm 1) run
/// of the same task.
#[test]
fn parallel_session_equals_sequential_path_per_task() {
    let dataset = workload();
    let config = base_config();
    let pool = SessionScheduler::new(4);
    for (i, task) in dataset.tasks.iter().enumerate() {
        let seq = run_task_on(&dataset, task, 100 + i as u64, &config, None);
        let par = run_task_on(&dataset, task, 100 + i as u64, &config, Some(&pool));
        assert!(seq.stats.scheduler.is_none() && par.stats.scheduler.is_some());
        assert_eq!(
            ranking(&seq),
            ranking(&par),
            "task {} diverged between the inline and the pooled session",
            task.id
        );
        assert_eq!(seq.stats.emitted, par.stats.emitted, "task {}", task.id);
        assert_eq!(seq.stats.expanded, par.stats.expanded, "task {}", task.id);
        assert_eq!(seq.stats.total_pruned(), par.stats.total_pruned(), "task {}", task.id);
    }
}

/// Run one task through a session driven on `pool`, or — `None` — inline.
fn run_task_on(
    dataset: &spider::SpiderDataset,
    task: &spider::SpiderTask,
    seed: u64,
    config: &DuoquestConfig,
    pool: Option<&SessionScheduler>,
) -> SynthesisResult {
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, seed);
    let model = NoisyOracleGuidance::new(gold, seed);
    let session = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_config(config.clone())
        .with_tsq(tsq);
    match pool {
        Some(pool) => finished(drive(session, &pool.handle(), |_| true)),
        None => session.run(),
    }
}

/// The result of a driven run that finished.
fn finished(outcome: DrivenOutcome) -> SynthesisResult {
    match outcome {
        DrivenOutcome::Finished(result) => result,
        DrivenOutcome::Poisoned(message) => panic!("the driven run was poisoned: {message:?}"),
    }
}

/// The tentpole guarantee of the shared batch scheduler: any number of
/// concurrent sessions (2–8 here) interleaved over one shared pool each emit
/// a candidate sequence identical to their single-session run, for any pool
/// worker count.
#[test]
fn interleaved_sessions_on_shared_pool_match_single_session_runs() {
    let dataset = Arc::new(workload());
    let config = base_config();
    // Ground truth: each task run alone, inline.
    let solo: Vec<_> = dataset
        .tasks
        .iter()
        .enumerate()
        .map(|(i, task)| ranking(&run_task_on(&dataset, task, 300 + i as u64, &config, None)))
        .collect();

    for pool_workers in [1usize, 2, 4] {
        for concurrency in [2usize, 4, 8] {
            let pool = Arc::new(SessionScheduler::new(pool_workers));
            // `concurrency` sessions run truly interleaved: each is a
            // driven session its own thread waits for while the pool's
            // workers serve them all (tasks are reused cyclically to reach 8
            // sessions).
            let handles: Vec<_> = (0..concurrency)
                .map(|s| {
                    let dataset = Arc::clone(&dataset);
                    let pool = Arc::clone(&pool);
                    let config = config.clone();
                    let task_idx = s % dataset.tasks.len();
                    std::thread::spawn(move || {
                        let task = &dataset.tasks[task_idx];
                        let result = run_task_on(
                            &dataset,
                            task,
                            300 + task_idx as u64,
                            &config,
                            Some(&pool),
                        );
                        (task_idx, ranking(&result))
                    })
                })
                .collect();
            for handle in handles {
                let (task_idx, shared_ranking) = handle.join().expect("session thread panicked");
                assert_eq!(
                    solo[task_idx], shared_ranking,
                    "task {task_idx} diverged with {concurrency} sessions on a \
                     {pool_workers}-worker shared pool"
                );
            }
            let stats = pool.stats();
            assert_eq!(stats.live_sessions, 0, "sessions must deregister");
            assert_eq!(stats.queue_depth, 0, "no work may be left behind");
        }
    }
}

/// What a run shows its consumer: the emission sequence as the callback or
/// the stream saw it (structure, confidence bits), the final ranking, and
/// the frontier peak and generated count with the seven per-stage prune
/// counts and the run's probe lookups. Lookups (hits plus misses) are the
/// run's own questions, asked through its own memo, so they hold the run's
/// attribution to its own counters on every way to run it.
type Observed = (Vec<(String, u64)>, Vec<(String, f64)>, [usize; 10]);

fn observe(sequence: Vec<(String, u64)>, result: &SynthesisResult) -> Observed {
    let s = &result.stats;
    let counts = [
        s.frontier_peak,
        s.generated,
        s.pruned_clauses,
        s.pruned_semantics,
        s.pruned_types,
        s.pruned_by_column,
        s.pruned_by_row,
        s.pruned_literals,
        s.pruned_by_order,
        (s.cache_hits + s.cache_misses) as usize,
    ];
    (sequence, ranking(result), counts)
}

fn emitted(c: &Candidate) -> (String, u64) {
    (format!("{:?}", c.spec), c.confidence.to_bits())
}

/// The ways a test runs a session: `run_with` on the calling thread, a
/// pulled `stream()` drained and finished, or `drive` on a pool.
#[derive(Clone, Copy)]
enum Way<'a> {
    RunWith,
    Stream,
    Drive(&'a SchedulerHandle),
}

/// Run a session one [`Way`] and observe it.
fn run_observed(session: SynthesisSession, way: Way<'_>) -> (Observed, SynthesisResult) {
    let mut sequence = Vec::new();
    let result = match way {
        Way::RunWith => session.run_with(|c| {
            sequence.push(emitted(c));
            true
        }),
        Way::Stream => {
            let mut stream = session.stream();
            sequence.extend(stream.by_ref().map(|c| emitted(&c)));
            stream.finish()
        }
        Way::Drive(handle) => {
            let (seen_tx, seen_rx) = mpsc::channel();
            let outcome = drive(session, handle, move |c| seen_tx.send(emitted(c)).is_ok());
            sequence.extend(seen_rx.try_iter());
            finished(outcome)
        }
    };
    (observe(sequence, &result), result)
}

/// Every way of running a session: **inline** `run_with` (the reference: no
/// pool, the calling thread), a **pulled stream** (inline too, so its
/// `stats.scheduler` is `None`), `drive` on **pools** of {1, 2, 4} workers,
/// and **eight sessions at once** on each pool. `session(case)` builds a
/// case's session; every way must observe exactly what inline observes, and
/// run one round per popped state.
/// Returns the inline observations and how many times a driven run was
/// requeued behind another session (its `Resume` units beyond the kick-off).
fn every_way_agrees(
    cases: usize,
    session: impl Fn(usize) -> SynthesisSession + Sync,
) -> (Vec<Observed>, u64) {
    let reference: Vec<Observed> = (0..cases)
        .map(|case| {
            let (observed, result) = run_observed(session(case), Way::RunWith);
            assert!(result.stats.scheduler.is_none(), "case {case}: inline means no pool");
            assert_eq!(result.stats.rounds, result.stats.expanded, "case {case}: inline");
            observed
        })
        .collect();
    for (case, inline) in reference.iter().enumerate() {
        let (observed, result) = run_observed(session(case), Way::Stream);
        assert_eq!(*inline, observed, "case {case}: pulled stream");
        assert!(result.stats.scheduler.is_none(), "case {case}: a pulled stream has no pool");
        assert_eq!(result.stats.rounds, result.stats.expanded, "case {case}: pulled stream");
    }

    let mut requeued = 0;
    let mut check = |case: usize, observed: Observed, result: SynthesisResult, way: &str| {
        assert_eq!(reference[case], observed, "case {case}: {way}");
        assert_eq!(result.stats.rounds, result.stats.expanded, "case {case}: {way}");
        let pool = result.stats.scheduler.expect("a driven run reports its pool");
        requeued += pool.units_submitted - 1;
    };
    for workers in [1usize, 2, 4] {
        let pool = SessionScheduler::new(workers);
        let handle = pool.handle();
        for case in 0..cases {
            let (observed, result) = run_observed(session(case), Way::Drive(&handle));
            check(case, observed, result, &format!("pool of {workers}"));
        }
        // Eight sessions at once over the one pool (and, per workload, the
        // one database), neighbours in case order side by side.
        let concurrent = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|s| {
                    let (case, session, handle) = (s % cases, &session, &handle);
                    let session = session(case);
                    scope.spawn(move || (case, run_observed(session, Way::Drive(handle))))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect::<Vec<_>>()
        });
        for (case, (observed, result)) in concurrent {
            check(case, observed, result, &format!("among 8 sessions on {workers} workers"));
        }
        let stats = pool.stats();
        assert_eq!(
            (stats.live_sessions, stats.queue_depth),
            (0, 0),
            "pool of {workers} left work behind"
        );
    }
    (reference, requeued)
}

/// The heuristic model scores through a plan its driver compiles on the first
/// round and then carries: on a type-only TSQ (where guidance, not
/// verification, decides the order) the emission sequence and every
/// confidence must be the same `f64`s whether the driver stays on one stack
/// (inline) or is parked in a scheduler at a yield and resumed by whichever
/// worker is free, at any pool size ([`every_way_agrees`]).
#[test]
fn heuristic_plan_survives_scheduler_yields() {
    let dataset = workload();
    let config = DuoquestConfig { max_candidates: 10, max_expansions: 100, ..base_config() };
    let (reference, requeued) = every_way_agrees(dataset.tasks.len(), |i| {
        let task = &dataset.tasks[i];
        let db = dataset.database(task);
        let (_, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Minimal, 2, 500 + i as u64);
        SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(HeuristicGuidance::new()))
            .with_config(config.clone())
            .with_tsq(tsq)
    });
    let emissions: usize = reference.iter().map(|observed| observed.0.len()).sum();
    // Eight sessions of up to 100 rounds on one worker: some yield finds
    // another session waiting.
    assert!(requeued > 0, "no driven run was ever parked at a yield and resumed");
    assert!(emissions >= 10, "only {emissions} candidates emitted over the whole workload");
}

/// The verify-side twin of the test above: under a full TSQ and the oracle
/// (where verification decides what survives) a run answers column-wise
/// checks from one verdict table that its rounds fill as they go and that
/// parks and resumes with the session. Emission, confidence bits and
/// the per-stage prune counts must not depend on who filled a verdict first —
/// on any way of running a session ([`every_way_agrees`]), alone or among
/// eight concurrent ones — and a session must never read verdicts another
/// session's TSQ produced over the same database.
#[test]
fn verify_plan_is_per_session_on_every_way_to_run_one() {
    let dataset = workload();
    let config = base_config();
    // Case `2 i` is task `i` under its own sketch, case `2 i + 1` the same
    // task under task `i + 1`'s: the same database, NLQ and oracle with cells
    // that mostly do not occur in the columns the oracle prefers. The eight
    // concurrent sessions are therefore tasks next to themselves under a
    // foreign sketch.
    let (reference, _) = every_way_agrees(2 * dataset.tasks.len(), |case| {
        let (i, foreign) = (case / 2, case % 2 == 1);
        let task = &dataset.tasks[i];
        let db = dataset.database(task);
        let (gold, own) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 700 + i as u64);
        let other = &dataset.tasks[(i + 1) % dataset.tasks.len()];
        let tsq = if foreign {
            synthesize_tsq(db, &other.gold, TsqDetail::Full, 2, 700 + i as u64).1
        } else {
            own
        };
        SynthesisSession::new(
            Arc::clone(db),
            task.nlq.clone(),
            Arc::new(NoisyOracleGuidance::new(gold, 7)),
        )
        .with_config(config.clone())
        .with_tsq(tsq)
    });
    let emissions: usize = reference.iter().step_by(2).map(|own| own.0.len()).sum();
    assert!(emissions >= 20, "only {emissions} candidates emitted over the whole workload");
    assert!(
        reference.chunks(2).any(|pair| pair[0].0 != pair[1].0),
        "the foreign sketches must change what is emitted, or sharing verdicts would go unseen"
    );
}

/// The serving layer inherits the engine's determinism: a request run
/// through `SynthesisService` — at any priority class, even while other
/// requests share the pool — emits candidates byte-identical to an inline
/// `SynthesisSession` run of the same task.
#[test]
fn service_requests_match_private_sessions_at_every_priority() {
    let dataset = workload();
    let config = base_config();
    let solo: Vec<_> = dataset
        .tasks
        .iter()
        .enumerate()
        .map(|(i, task)| ranking(&run_task_on(&dataset, task, 500 + i as u64, &config, None)))
        .collect();

    let service = SynthesisService::new(ServiceConfig {
        workers: 2,
        max_live_sessions: 4,
        max_queued: 32,
        ..ServiceConfig::default()
    });
    for class in PriorityClass::ALL {
        // All tasks in flight together, so runs of every class contend for
        // the shared pool while being compared against their solo rankings.
        let tickets: Vec<_> = dataset
            .tasks
            .iter()
            .enumerate()
            .map(|(i, task)| {
                let db = dataset.database(task);
                let (gold, tsq) =
                    synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 500 + i as u64);
                let model = NoisyOracleGuidance::new(gold, 500 + i as u64);
                let request =
                    SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
                        .with_tsq(tsq)
                        .with_config(config.clone())
                        .with_priority(class);
                service.submit(request).expect("admitted")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome = ticket.wait();
            assert_eq!(outcome.status, RequestStatus::Completed, "task {i} at {class:?}");
            assert_eq!(
                solo[i],
                ranking(&outcome.result),
                "task {i} diverged through the service at priority {class:?}"
            );
        }
    }
    let stats = service.stats();
    assert_eq!(stats.live_sessions, 0, "requests must release their slots");
    assert_eq!(stats.scheduler.queue_depth, 0, "no work may be left behind");
}

/// OS threads of this process (Linux). Used to prove the service spawns no
/// per-request threads; `None` where /proc is unavailable.
fn process_threads() -> Option<usize> {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("Threads:"))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|n| n.parse().ok())
    })
}

/// The tentpole guarantee of thread-free session driving: **256 concurrent
/// live sessions** on one fixed pool — far beyond any sane thread count —
/// each emit byte-identically to their solo inline runs, for pool
/// worker counts {1, 2, 4}. The service reports zero per-request driver
/// threads, and the process's real thread count stays flat while all 256
/// are live.
#[test]
fn service_drives_256_live_sessions_thread_free_and_deterministically() {
    let dataset = workload();
    // A light configuration keeps 768 runs affordable; determinism is
    // config-independent, so a small budget proves the same contract.
    let config = DuoquestConfig {
        max_candidates: 6,
        max_expansions: 300,
        time_budget: None,
        ..Default::default()
    };
    let solo: Vec<_> = dataset
        .tasks
        .iter()
        .enumerate()
        .map(|(i, task)| ranking(&run_task_on(&dataset, task, 600 + i as u64, &config, None)))
        .collect();

    for pool_workers in [1usize, 2, 4] {
        let service = SynthesisService::new(ServiceConfig {
            workers: pool_workers,
            max_live_sessions: 256,
            max_queued: 16,
            ..ServiceConfig::default()
        });
        let threads_before = process_threads();
        let tickets: Vec<_> = (0..256)
            .map(|s| {
                let task_idx = s % dataset.tasks.len();
                let task = &dataset.tasks[task_idx];
                let db = dataset.database(task);
                let seed = 600 + task_idx as u64;
                let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, seed);
                let model = NoisyOracleGuidance::new(gold, seed);
                let request =
                    SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
                        .with_tsq(tsq)
                        .with_config(config.clone())
                        .with_priority(PriorityClass::ALL[s % 3]);
                (task_idx, service.submit(request).expect("256 live slots admit all"))
            })
            .collect();

        // Every request is admitted live (none queued): the whole set is in
        // flight together on the fixed pool.
        if let (Some(before), Some(during)) = (threads_before, process_threads()) {
            // 256 live sessions in the old one-thread-per-request design
            // would add ~256 OS threads; allow generous slack for unrelated
            // concurrent test threads.
            assert!(
                during < before + 64,
                "thread count grew from {before} to {during} with 256 live sessions"
            );
        }

        for (task_idx, ticket) in tickets {
            let outcome = ticket.wait();
            assert_eq!(
                outcome.status,
                RequestStatus::Completed,
                "task {task_idx} on {pool_workers} workers"
            );
            assert_eq!(
                solo[task_idx],
                ranking(&outcome.result),
                "task {task_idx} diverged among 256 live sessions on a \
                 {pool_workers}-worker pool"
            );
        }
        let stats = service.stats();
        assert!(
            stats.live_sessions_peak >= 64,
            "live sessions should have stacked far beyond the worker count: {stats:?}"
        );
        assert_eq!(stats.live_sessions, 0, "every request released its slot");
        assert_eq!(stats.scheduler.queue_depth, 0, "no work left behind");
    }
}

/// The observability analogue of the worker-count guarantee: request
/// tracing (span recording, flight-recorder retention) must never perturb
/// emission. Every service request is traced; across pool sizes, with every
/// priority class in flight, each emits byte-identically to the untraced
/// solo inline run, and the flight recorder retains every request's trace,
/// closed by its `completed` terminal event.
#[test]
fn traced_service_runs_emit_what_untraced_inline_runs_emit() {
    let dataset = workload();
    let config = base_config();
    let solo: Vec<_> = dataset
        .tasks
        .iter()
        .enumerate()
        .map(|(i, task)| ranking(&run_task_on(&dataset, task, 800 + i as u64, &config, None)))
        .collect();

    for pool_workers in [1usize, 2] {
        let service = SynthesisService::new(ServiceConfig {
            workers: pool_workers,
            max_live_sessions: 8,
            max_queued: 32,
            ..ServiceConfig::default()
        });
        let tickets: Vec<_> = dataset
            .tasks
            .iter()
            .enumerate()
            .map(|(i, task)| {
                let db = dataset.database(task);
                let (gold, tsq) =
                    synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 800 + i as u64);
                let model = NoisyOracleGuidance::new(gold, 800 + i as u64);
                let request =
                    SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
                        .with_tsq(tsq)
                        .with_config(config.clone())
                        .with_priority(PriorityClass::ALL[i % 3]);
                service.submit(request).expect("admitted")
            })
            .collect();
        assert!(tickets.len() >= PriorityClass::ALL.len(), "every class in flight");
        let ids: Vec<u64> = tickets.iter().map(|t| t.id()).collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let outcome = ticket.wait();
            assert_eq!(outcome.status, RequestStatus::Completed, "task {i}");
            assert_eq!(
                solo[i],
                ranking(&outcome.result),
                "task {i} diverged from its inline run on {pool_workers} workers"
            );
        }
        for id in ids {
            let trace = service
                .trace(id)
                .unwrap_or_else(|| panic!("flight recorder must retain request {id}'s trace"));
            let terminal = trace.events().pop().expect("a retained trace is closed");
            assert_eq!(terminal.detail.as_deref(), Some("completed"), "request {id}");
        }
    }
}

/// A smaller expansion budget emits a prefix: the first `E` pops of a run do
/// not depend on how many pops follow, so the run with budget `E` emits the
/// first candidates of the run with `2E` — the same specs, the same
/// confidence bits, in order — and spends exactly `E` unless it ran out of
/// states first. That holds only if the frontier never drops a state it
/// could still pop (it drops every state ranked below the remaining budget,
/// `docs/DRIVER.md`, "Frontier"). Checked with the default `max_states` and
/// with 40, where the paper's lossy rule fires and
/// changes what is emitted; both models, so verification and guidance each
/// decide the order in some runs.
#[test]
fn a_smaller_expansion_budget_emits_a_prefix() {
    let dataset = workload();
    let (mut compared, mut spent, mut lossy_changed) = (0, 0, 0);
    for (i, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        for oracle in [true, false] {
            let seed = 800 + i as u64;
            let detail = if oracle { TsqDetail::Full } else { TsqDetail::Minimal };
            let (gold, tsq) = synthesize_tsq(db, &task.gold, detail, 2, seed);
            let model: Arc<dyn GuidanceModel> = if oracle {
                Arc::new(NoisyOracleGuidance::new(gold, seed))
            } else {
                Arc::new(HeuristicGuidance::new())
            };
            // The 2E-run's emissions per `max_states`.
            let mut larger = Vec::new();
            for max_states in [None, Some(40)] {
                let run = |max_expansions: usize| {
                    let mut config = DuoquestConfig {
                        max_candidates: usize::MAX,
                        max_expansions,
                        ..base_config()
                    };
                    config.max_states = max_states.unwrap_or(config.max_states);
                    let session =
                        SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::clone(&model))
                            .with_config(config)
                            .with_tsq(tsq.clone());
                    let (observed, result) = run_observed(session, Way::RunWith);
                    let stats = result.stats;
                    assert!(
                        stats.frontier_peak <= max_expansions + max_expansions / 4 + 64,
                        "{stats:?}"
                    );
                    (observed.0, stats.expanded, stats.exhausted)
                };
                for e in [40, 120] {
                    let way = format!(
                        "task {}, oracle {oracle}, max_states {max_states:?}, budget {e} vs {}",
                        task.id,
                        2 * e
                    );
                    let (small, expanded, exhausted) = run(e);
                    let (large, ..) = run(2 * e);
                    assert!(small.len() <= large.len(), "{way}: emitted more");
                    assert_eq!(small, large[..small.len()], "{way}: not a prefix");
                    if exhausted {
                        assert_eq!(small, large, "{way}: an exhausted run is the whole run");
                    } else {
                        assert_eq!(expanded, e, "{way}: the budget was not spent");
                        spent += 1;
                    }
                    compared += 1;
                    larger.push(large);
                }
            }
            lossy_changed += usize::from(larger[..2] != larger[2..]);
        }
    }
    // Both checks bite: most runs end on their budget, and the lossy rule
    // changed the emissions of some setting.
    assert!(spent > compared / 2, "{spent} of {compared} runs spent their budget");
    assert!(lossy_changed > 0, "max_states = 40 never changed what a run emits");
}

/// One request of the benchmark's `mas_cold` workload.
struct MasRequest {
    name: String,
    nlq: Nlq,
    gold: SelectSpec,
    tsq: TableSketchQuery,
    seed: u64,
}

/// `mas_cold` as `bench_report` builds it: the 14 user-study tasks over
/// MAS(42, 8.0), each under `draws` example-tuple draws (the benchmark has
/// three), full sketches and the oracle, seeded by the harness's SplitMix64
/// step of (42, index) — which is what the workspace's `StdRng` is.
fn mas_cold(draws: usize) -> (MasDataset, Vec<MasRequest>) {
    let dataset = mas::generate(42, 8.0);
    let mut tasks = mas_nli_tasks(&dataset);
    tasks.extend(mas_pbe_tasks(&dataset));
    assert_eq!(tasks.len(), 14);
    let mut requests = Vec::new();
    for draw in 0..draws {
        for (i, task) in tasks.iter().enumerate() {
            let index = (draw * tasks.len() + i) as u64;
            let seed = StdRng::seed_from_u64(42 ^ (index << 32)).next_u64();
            let (gold, tsq) = synthesize_tsq(&dataset.db, &task.gold, TsqDetail::Full, 2, seed);
            let name = format!("mas_cold-{draw}-{}", task.id);
            requests.push(MasRequest { name, nlq: task.nlq.clone(), gold, tsq, seed });
        }
    }
    (dataset, requests)
}

/// A session for `request` under the benchmark's budgets (10 candidates, 200
/// expansions, no wall-clock cut-off).
fn mas_session(db: &Arc<Database>, request: &MasRequest) -> SynthesisSession {
    let config = DuoquestConfig { max_candidates: 10, max_expansions: 200, ..base_config() };
    let model = NoisyOracleGuidance::new(request.gold.clone(), request.seed);
    SynthesisSession::new(Arc::clone(db), request.nlq.clone(), Arc::new(model))
        .with_config(config)
        .with_tsq(request.tsq.clone())
}

/// MAS's join graph has cycles, so a join path can grow by a table along two
/// equally short paths; `JoinGraph::grow` picks by one fixed rule and keeps
/// every edge the path already has, and the 14 user-study tasks observe the
/// same run inline, as a pulled stream, on pools of {1, 2, 4} and eight at a
/// time ([`every_way_agrees`]).
#[test]
fn mas_tasks_agree_on_every_way_to_run_a_session() {
    let (dataset, requests) = mas_cold(1);
    let (reference, _) =
        every_way_agrees(requests.len(), |case| mas_session(&dataset.db, &requests[case]));
    let emissions: usize = reference.iter().map(|observed| observed.0.len()).sum();
    assert!(emissions >= 50, "only {emissions} candidates emitted over the 14 tasks");
}

/// Every request run inline, as the benchmark submits it, each from an
/// empty probe memo of its own, and everything it showed, on one line each:
/// emission sequence with confidence bits, ranking, `generated` and the
/// seven prune counts, rows scanned and probe misses.
fn observe_cold(db: &Arc<Database>, requests: &[MasRequest]) -> Vec<String> {
    let observe = |request| {
        let (observed, result) = run_observed(mas_session(db, request), Way::RunWith);
        let probes = (result.stats.rows_scanned, result.stats.cache_misses);
        format!("{observed:?} {probes:?}")
    };
    requests.iter().map(observe).collect()
}

/// The same request twice in one process: same everything.
#[test]
fn mas_cold_requests_repeat_from_a_cleared_cache() {
    let (dataset, requests) = mas_cold(3);
    let (first, second) =
        (observe_cold(&dataset.db, &requests), observe_cold(&dataset.db, &requests));
    assert_eq!(requests.len(), 42);
    for ((request, a), b) in requests.iter().zip(&first).zip(&second) {
        assert_eq!(a, b, "{} differs between two runs of one process", request.name);
    }
}

/// Marks the child role of [`mas_cold_requests_repeat_across_processes`].
const OBSERVING_CHILD: &str = "DUOQUEST_TEST_OBSERVING_CHILD";

/// The same request in two fresh processes — two hasher seeds, two address
/// space layouts: same everything. The test re-runs its own executable twice
/// with [`OBSERVING_CHILD`] set; a child prints one `observed` line per
/// request and the parent compares the two listings.
#[test]
fn mas_cold_requests_repeat_across_processes() {
    const NAME: &str = "mas_cold_requests_repeat_across_processes";
    if std::env::var_os(OBSERVING_CHILD).is_some() {
        let (dataset, requests) = mas_cold(3);
        for (request, observed) in requests.iter().zip(observe_cold(&dataset.db, &requests)) {
            println!("observed {} {observed}", request.name);
        }
        return;
    }
    let exe = std::env::current_exe().expect("the test binary knows where it is");
    // Both at once: there are two cores.
    let children: Vec<_> = (0..2)
        .map(|_| {
            Command::new(&exe)
                .args(["--exact", NAME, "--nocapture"])
                .env(OBSERVING_CHILD, "1")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("the test binary runs")
        })
        .collect();
    let listings: Vec<Vec<String>> = children
        .into_iter()
        .map(|child| {
            let output = child.wait_with_output().expect("the child exits");
            assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
            let stdout = String::from_utf8(output.stdout).expect("observations are UTF-8");
            // libtest may have left its own words at the head of a line.
            let lines = stdout.lines();
            lines.filter_map(|l| Some(l[l.find("observed mas_cold-")?..].to_string())).collect()
        })
        .collect();
    assert_eq!((listings[0].len(), listings[1].len()), (42, 42), "{:?}", listings[0]);
    for (a, b) in listings[0].iter().zip(&listings[1]) {
        assert_eq!(a, b, "a request differs between two processes");
    }
}
