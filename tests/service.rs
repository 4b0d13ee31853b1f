//! The serving layer's headline guarantees, exercised at the workspace
//! level on the synthetic Spider workload:
//!
//! * **priority**: an interactive request submitted while batch requests own
//!   the pool gets its first candidate before any batch request completes;
//! * **cancellation**: cancelling one request reaps its queued scheduler
//!   units without perturbing (or dropping candidates of) uncancelled
//!   requests;
//! * **drop-cancels-work**: dropping a `Ticket` cancels the underlying
//!   session and lets the shared pool go idle; a dropped `CandidateStream`
//!   leaves no work at all, as nothing runs between its pulls;
//! * **deadlines**: a request past its deadline resolves with the best
//!   candidates found so far, flagged `deadline_exceeded`.

use duoquest::core::{DuoquestConfig, SynthesisResult, SynthesisSession};
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::service::{
    AdmissionError, PriorityClass, RequestStatus, ServiceConfig, SynthesisRequest, SynthesisService,
};
use duoquest::workloads::{spider, synthesize_tsq, Difficulty, TsqDetail};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload() -> spider::SpiderDataset {
    spider::generate("service", 1, 2, 2, 2, 7)
}

/// A heavy configuration that keeps a session grinding for (tens of)
/// seconds: effectively unbounded except for a generous wall-clock budget.
fn heavy_config() -> DuoquestConfig {
    DuoquestConfig {
        max_expansions: usize::MAX,
        max_candidates: usize::MAX,
        max_states: 2_000_000,
        time_budget: Some(Duration::from_secs(30)),
        ..Default::default()
    }
}

fn request_for(
    dataset: &spider::SpiderDataset,
    task: &spider::SpiderTask,
    seed: u64,
    config: DuoquestConfig,
) -> SynthesisRequest {
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, seed);
    let model = NoisyOracleGuidance::new(gold, seed);
    SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_tsq(tsq)
        .with_config(config)
}

/// The same task as [`request_for`], but as a session run inline — the
/// determinism ground truth.
fn session_for(
    dataset: &spider::SpiderDataset,
    task: &spider::SpiderTask,
    seed: u64,
    config: DuoquestConfig,
) -> SynthesisSession {
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, seed);
    let model = NoisyOracleGuidance::new(gold, seed);
    SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
        .with_tsq(tsq)
        .with_config(config)
}

fn hard_task(dataset: &spider::SpiderDataset) -> &spider::SpiderTask {
    dataset
        .tasks
        .iter()
        .rev()
        .find(|t| t.level == Difficulty::Hard)
        .unwrap_or_else(|| dataset.tasks.last().expect("workload has tasks"))
}

fn ranking(result: &SynthesisResult) -> Vec<(String, f64)> {
    result.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence)).collect()
}

/// The acceptance criterion: an interactive-class request submitted while 8
/// batch-class requests are live on a 1-worker pool gets its first candidate
/// before any batch request completes.
#[test]
fn interactive_first_candidate_beats_every_live_batch_completion() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let fast_task = dataset.tasks.first().expect("workload has tasks");

    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 16, // all 9 requests live simultaneously
        max_queued: 16,
        ..ServiceConfig::default()
    });

    // 8 batch requests saturate the single worker with heavy enumeration.
    let mut batch: Vec<_> = (0..8)
        .map(|i| {
            service
                .submit(
                    request_for(&dataset, hard, 11 + i, heavy_config())
                        .with_priority(PriorityClass::Batch),
                )
                .expect("admitted")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    if batch.iter_mut().any(|t| t.is_finished()) {
        // On a machine fast enough to finish the heavy search in <50ms there
        // is no contention window to measure.
        eprintln!("SKIP: a batch request finished in <50ms; no contention window");
        for t in batch {
            t.cancel();
            let _ = t.wait();
        }
        return;
    }

    let mut fast_config = DuoquestConfig::fast();
    fast_config.max_candidates = 3;
    let mut interactive =
        service.submit(request_for(&dataset, fast_task, 13, fast_config)).expect("admitted");
    let first = interactive.next_timeout(Duration::from_secs(20));
    assert!(first.is_some(), "interactive request starved: no candidate within 20s");

    // At the moment the interactive candidate arrived, no batch request may
    // have completed (their heavy searches run for much longer than the
    // interactive request's first rounds).
    for (i, ticket) in batch.iter_mut().enumerate() {
        assert!(
            ticket.try_wait().is_none(),
            "batch request {i} completed before the interactive request's first candidate"
        );
    }

    let outcome = interactive.wait();
    assert_eq!(outcome.status, RequestStatus::Completed);
    assert!(outcome.time_to_first_candidate.is_some());
    let stats = service.stats();
    assert!(stats.class(PriorityClass::Interactive).ttfc.quantile_us(0.50).is_some());
    assert_eq!(stats.class(PriorityClass::Batch).live, 8, "batch requests still grinding");

    // Wind the batch requests down (dropping the tickets cancels them).
    drop(batch);
    drop(service);
}

/// Cancelling one request must not re-order or drop candidates of a
/// concurrent uncancelled request — its emission stays byte-identical to a
/// solo inline run.
#[test]
fn cancellation_leaves_other_requests_byte_identical() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let observed_task = dataset.tasks.first().expect("workload has tasks");
    let mut config = DuoquestConfig::fast();
    config.time_budget = None;
    config.max_candidates = 20;

    // Ground truth: the observed task alone, run inline.
    let solo = session_for(&dataset, observed_task, 77, config.clone()).run();

    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 8,
        max_queued: 8,
        ..ServiceConfig::default()
    });
    let victim = service
        .submit(request_for(&dataset, hard, 31, heavy_config()).with_priority(PriorityClass::Batch))
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(30));
    let observed =
        service.submit(request_for(&dataset, observed_task, 77, config)).expect("admitted");
    // Cancel the victim while the observed request is mid-flight.
    std::thread::sleep(Duration::from_millis(20));
    victim.cancel();
    let victim_outcome = victim.wait();
    assert_eq!(victim_outcome.status, RequestStatus::Cancelled);

    let outcome = observed.wait();
    assert_eq!(outcome.status, RequestStatus::Completed);
    assert_eq!(
        ranking(&solo),
        ranking(&outcome.result),
        "cancelling a concurrent request perturbed an uncancelled request's candidates"
    );

    // The pool must drain completely once both requests resolved.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = service.stats();
        if stats.live_sessions == 0 && stats.scheduler.queue_depth == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "pool did not go idle: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(service.stats().class(PriorityClass::Batch).cancelled, 1);
}

/// Satellite regression: dropping a `Ticket` cancels its session and reaps
/// its queued scheduler units — the pool goes idle instead of grinding
/// through abandoned work.
#[test]
fn dropping_a_ticket_reaps_work_and_pool_goes_idle() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 4,
        max_queued: 4,
        ..ServiceConfig::default()
    });
    let mut ticket = service
        .submit(request_for(&dataset, hard, 43, heavy_config()).with_priority(PriorityClass::Batch))
        .expect("admitted");
    // Let it take the worker and build up queued round chunks, then abandon.
    let _ = ticket.next_timeout(Duration::from_secs(10));
    drop(ticket);

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = service.stats();
        if stats.live_sessions == 0 && stats.scheduler.queue_depth == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "dropped ticket leaked enumeration work: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(service.stats().class(PriorityClass::Batch).cancelled, 1);
}

/// A dropped `CandidateStream` leaves no work behind: nothing runs between
/// pulls, so once a stream has been pulled once and dropped, its database's
/// probe cache sees no lookup over the next 50 ms.
#[test]
fn dropping_a_candidate_stream_lets_the_pool_go_idle() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let db = dataset.database(hard);
    let (gold, tsq) = synthesize_tsq(db, &hard.gold, TsqDetail::Full, 2, 47);
    let mut stream = SynthesisSession::new(
        Arc::clone(db),
        hard.nlq.clone(),
        Arc::new(NoisyOracleGuidance::new(gold, 47)),
    )
    .with_tsq(tsq)
    .with_config(heavy_config())
    .stream();
    assert!(stream.next().is_some(), "the heavy run emits");
    drop(stream);

    let lookups = || {
        let cache = db.cache_stats();
        cache.hits + cache.misses
    };
    let after_drop = lookups();
    assert!(after_drop > 0, "the pulled rounds probed the database");
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(lookups(), after_drop, "a dropped stream kept probing its database");
}

/// A mid-run deadline resolves with the best candidates found so far,
/// flagged `deadline_exceeded` — the any-k contract.
#[test]
fn deadline_mid_run_returns_best_so_far_flagged() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 2,
        max_queued: 2,
        ..ServiceConfig::default()
    });
    let started = Instant::now();
    let ticket = service
        .submit(
            request_for(&dataset, hard, 53, heavy_config())
                .with_priority(PriorityClass::Batch)
                .with_deadline(Duration::from_millis(300)),
        )
        .expect("admitted");
    let outcome = ticket.wait();
    let elapsed = started.elapsed();
    assert_eq!(outcome.status, RequestStatus::DeadlineExceeded);
    assert!(outcome.result.stats.deadline_exceeded);
    assert!(!outcome.result.stats.cancelled);
    // The run must actually stop near the deadline, not at the 30s budget.
    assert!(elapsed < Duration::from_secs(15), "deadline did not cut the run: took {elapsed:?}");
    assert_eq!(service.stats().class(PriorityClass::Batch).expired, 1);
}

/// The engine's own `time_budget` cutting a search is a normal completion
/// mode — it must not be reported as a deadline miss (or tick `expired`)
/// for a request that set no service deadline.
#[test]
fn engine_time_budget_completes_rather_than_expires() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 2,
        max_queued: 2,
        ..ServiceConfig::default()
    });
    let mut config = heavy_config();
    config.time_budget = Some(Duration::from_millis(200)); // engine budget, no service deadline
    let outcome = service
        .submit(request_for(&dataset, hard, 59, config).with_priority(PriorityClass::Batch))
        .expect("admitted")
        .wait();
    assert_eq!(outcome.status, RequestStatus::Completed);
    assert!(outcome.result.stats.deadline_exceeded, "the engine budget did cut the run");
    let stats = service.stats();
    assert_eq!(stats.class(PriorityClass::Batch).expired, 0);
    assert_eq!(stats.class(PriorityClass::Batch).completed, 1);
}

/// A queued request's deadline is enforced while every live slot stays busy:
/// its own ticket's wait looks at the queue at the deadline and expires it
/// there (even with the pool saturated) instead of whenever a slot happens
/// to free.
#[test]
fn queued_deadline_is_enforced_while_slots_stay_busy() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 1,
        max_queued: 2,
        ..ServiceConfig::default()
    });
    // A long-running request owns the only live slot for ~30s.
    let hog = service
        .submit(request_for(&dataset, hard, 67, heavy_config()).with_priority(PriorityClass::Batch))
        .expect("admitted");
    let started = Instant::now();
    let doomed = service
        .submit(
            request_for(&dataset, hard, 68, heavy_config())
                .with_deadline(Duration::from_millis(100)),
        )
        .expect("admitted");
    let outcome = doomed.wait();
    let elapsed = started.elapsed();
    assert_eq!(outcome.status, RequestStatus::DeadlineExceeded);
    assert!(
        elapsed < Duration::from_secs(5),
        "queued deadline was only honored when the slot freed: {elapsed:?}"
    );
    assert!(outcome.time_to_first_candidate.is_none(), "the request never ran");
    hog.cancel();
    let _ = hog.wait();
}

/// Cancelling a queued ticket resolves it promptly (the cancel resolves it
/// in place), not when a live slot happens to free.
#[test]
fn cancelled_queued_ticket_resolves_promptly() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 1,
        max_queued: 2,
        ..ServiceConfig::default()
    });
    let hog = service
        .submit(request_for(&dataset, hard, 71, heavy_config()).with_priority(PriorityClass::Batch))
        .expect("admitted");
    let queued = service.submit(request_for(&dataset, hard, 72, heavy_config())).expect("admitted");
    let started = Instant::now();
    queued.cancel();
    let outcome = queued.wait();
    assert_eq!(outcome.status, RequestStatus::Cancelled);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancelled queued ticket waited for the slot: {:?}",
        started.elapsed()
    );
    hog.cancel();
    let _ = hog.wait();
}

/// A guidance model that panics mid-scoring: the panic unwinds inside a
/// `RoundDriver::step` on a pool worker, but the service must survive with
/// its capacity (and its workers) intact.
struct PanickingGuidance;

impl duoquest::nlq::GuidanceModel for PanickingGuidance {
    fn score(
        &self,
        _ctx: &duoquest::nlq::GuidanceContext<'_>,
        _candidates: &[duoquest::nlq::Choice],
    ) -> Vec<f64> {
        panic!("injected guidance failure");
    }

    fn name(&self) -> &str {
        "panicking"
    }
}

/// A panicking request must free its live slot (no capacity wedge): queued
/// work still gets promoted and later submits still complete. Its own
/// ticket's `wait` panics, per the documented contract.
#[test]
fn panicking_request_frees_its_slot() {
    let dataset = workload();
    let task = dataset.tasks.first().expect("workload has tasks");
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 1,
        max_queued: 2,
        ..ServiceConfig::default()
    });
    let db = dataset.database(task);
    let poisoned = service
        .submit(
            SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(PanickingGuidance))
                .with_config(DuoquestConfig::fast()),
        )
        .expect("admitted");
    // Queued behind the poisoned request: must be promoted once the panic
    // frees the slot, and complete normally.
    let mut config = DuoquestConfig::fast();
    config.max_candidates = 3;
    let healthy = service.submit(request_for(&dataset, task, 73, config)).expect("admitted");
    let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poisoned.wait()));
    assert!(waited.is_err(), "the poisoned request's outcome cannot be delivered");
    let outcome = healthy.wait();
    assert_eq!(outcome.status, RequestStatus::Completed);
    assert_eq!(service.stats().live_sessions, 0, "the panicked request leaked its slot");
}

/// Satellite: a worker panic's payload is captured into the poisoned
/// request's observability record — the flight-recorder trace is flagged
/// anomalous, its terminal event carries the panic message, and
/// `trace_json` (the `GET /trace/<id>` body) serves it for post-mortems.
#[test]
fn panic_payload_lands_in_the_flight_recorder() {
    let dataset = workload();
    let task = dataset.tasks.first().expect("workload has tasks");
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 2,
        max_queued: 2,
        ..ServiceConfig::default()
    });
    let db = dataset.database(task);
    let poisoned = service
        .submit(
            SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(PanickingGuidance))
                .with_config(DuoquestConfig::fast()),
        )
        .expect("admitted");
    let id = poisoned.id();
    let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poisoned.wait()));
    assert!(waited.is_err(), "the poisoned request's outcome cannot be delivered");

    // The trace is pushed before the outcome channel drops (which is what
    // wakes the panicking wait), so it is already retained here.
    let trace = service.trace(id).expect("poisoned request left no flight-recorder trace");
    assert!(trace.is_anomalous(), "a panic must flag its trace anomalous");
    let terminal = trace
        .events()
        .into_iter()
        .find(|e| e.name == duoquest::obs::TERMINAL_EVENT)
        .expect("terminal event recorded");
    let detail = terminal.detail.expect("terminal event carries the panic payload");
    assert!(
        detail.contains("injected guidance failure"),
        "panic payload missing from terminal event: {detail:?}"
    );
    let json = service.trace_json(id).expect("trace JSON served");
    assert!(json.contains("injected guidance failure"), "payload missing from trace JSON");
}

/// Satellite: a session panicking **mid-round** — the panic fires inside
/// the round-driver's phase 1, on a pool worker, not on any per-request
/// thread — poisons only itself: concurrent live sessions complete with
/// byte-identical output, the worker survives, and the admission slot frees.
#[test]
fn panic_mid_step_poisons_only_its_own_session() {
    let dataset = workload();
    let task = dataset.tasks.first().expect("workload has tasks");
    let mut config = DuoquestConfig::fast();
    config.time_budget = None;
    config.max_candidates = 20;
    let solo = session_for(&dataset, task, 79, config.clone()).run();

    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 8,
        max_queued: 8,
        ..ServiceConfig::default()
    });
    let db = dataset.database(task);
    // Three healthy sessions live alongside the poisoned one, all sharing
    // the single worker that unwinds the panic.
    let healthy: Vec<_> = (0..3)
        .map(|_| service.submit(request_for(&dataset, task, 79, config.clone())).expect("admitted"))
        .collect();
    let poisoned = service
        .submit(
            SynthesisRequest::new(Arc::clone(db), task.nlq.clone(), Arc::new(PanickingGuidance))
                .with_config(DuoquestConfig::fast()),
        )
        .expect("admitted");
    let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| poisoned.wait()));
    assert!(waited.is_err(), "the poisoned request's outcome cannot be delivered");
    for ticket in healthy {
        let outcome = ticket.wait();
        assert_eq!(outcome.status, RequestStatus::Completed);
        assert_eq!(
            ranking(&solo),
            ranking(&outcome.result),
            "a concurrent panic perturbed a healthy session's candidates"
        );
    }
    // The pool worker survived the unwind and the service is fully drained.
    let after = service.submit(request_for(&dataset, task, 79, config)).expect("admitted").wait();
    assert_eq!(after.status, RequestStatus::Completed);
    let stats = service.stats();
    assert_eq!(stats.live_sessions, 0, "the panicked session leaked its slot");
    assert_eq!(stats.scheduler.queue_depth, 0);
}

/// A paper-sized traced request (the Fig. 10 budgets: 25 candidates, 2 500
/// expansions) keeps its whole trace under the default capacity: nothing
/// dropped, its root `request` span and its one `resume` span retained, and
/// no more than nine spans per burst of 32 rounds (`rounds`, seven stage
/// shares, one spare), one `deliver` per candidate and the request's own
/// (`request`, `queue_wait`, `resume`, one spare). A count, not a stopwatch.
#[test]
fn a_paper_sized_traced_request_keeps_its_whole_trace() {
    let dataset = workload();
    let service = SynthesisService::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let config = DuoquestConfig {
        max_candidates: 25,
        max_expansions: 2_500,
        time_budget: None,
        ..Default::default()
    };
    let ticket =
        service.submit(request_for(&dataset, hard_task(&dataset), 7, config)).expect("admitted");
    let id = ticket.id();
    let stats = ticket.wait().result.stats;
    assert!(stats.rounds >= 1_024, "only {} rounds: not a paper-sized request", stats.rounds);
    assert!(stats.frontier_peak > 0, "a run that goes past its first round queues states");
    assert!(stats.index_lookups > 0, "a verifier run must exercise the index path");
    let run = stats.scheduler.expect("a run on the service's pool records scheduler stats");
    assert_eq!(run.pool_workers, 1);

    let trace = service.trace(id).expect("the resolved request's trace is retained");
    assert_eq!(trace.dropped(), 0, "the trace overflowed");
    let spans = trace.spans();
    let named = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(named(duoquest::obs::ROOT_SPAN), 1);
    assert_eq!(named("resume"), 1, "a request alone on its pool is resumed once");
    let bound = 9 * stats.rounds.div_ceil(32) + stats.emitted + 4;
    assert!(spans.len() <= bound, "{} spans, bound {bound}", spans.len());
}

/// Slot-leak edge the DST conservation oracle checks, pinned directly:
/// dropping a `Ticket` whose request is still queued *and* already past its
/// deadline frees the admission slot exactly once. Whichever path resolves
/// it first — a look at the queue or the drop — the other must be a no-op:
/// the queue gains exactly one opening, and the class records exactly one
/// resolution (expired or cancelled, never both).
#[test]
fn dropping_a_queued_past_deadline_ticket_frees_the_slot_once() {
    let dataset = workload();
    let hard = hard_task(&dataset);
    let service = SynthesisService::new(ServiceConfig {
        workers: 1,
        max_live_sessions: 1,
        max_queued: 1,
        ..ServiceConfig::default()
    });
    let hog = service
        .submit(request_for(&dataset, hard, 81, heavy_config()).with_priority(PriorityClass::Batch))
        .expect("admitted");
    let doomed = service
        .submit(
            request_for(&dataset, hard, 82, heavy_config())
                .with_priority(PriorityClass::Background)
                .with_deadline(Duration::from_millis(100)),
        )
        .expect("queued");
    // The single queue slot is occupied.
    let full = service.submit(
        request_for(&dataset, hard, 83, heavy_config()).with_priority(PriorityClass::Background),
    );
    assert!(matches!(full, Err(AdmissionError::Overloaded { .. })), "{full:?}");

    // Let the deadline lapse, then drop the ticket without ever waiting on
    // it. The drop looks at the queue before it cancels, so the request
    // expires as of its deadline and the cancel finds nothing — either
    // resolution must free the slot exactly once.
    std::thread::sleep(Duration::from_millis(400));
    drop(doomed);

    // Exactly one opening: one request gets in (dropped-ticket resolution
    // is asynchronous, so poll), the next is shed again.
    let started = Instant::now();
    let readmitted = loop {
        match service.submit(
            request_for(&dataset, hard, 84, heavy_config())
                .with_priority(PriorityClass::Background),
        ) {
            Ok(ticket) => break ticket,
            Err(AdmissionError::Overloaded { .. }) => {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "queue slot never freed after drop"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected admission error: {other:?}"),
        }
    };
    let second = service.submit(
        request_for(&dataset, hard, 85, heavy_config()).with_priority(PriorityClass::Background),
    );
    assert!(
        matches!(second, Err(AdmissionError::Overloaded { .. })),
        "slot was freed more than once: {second:?}"
    );

    // The doomed request resolved exactly once, as expired or cancelled.
    let background = |s: duoquest::service::ServiceStats| *s.class(PriorityClass::Background);
    let resolved = loop {
        let class = background(service.stats());
        if class.expired + class.cancelled >= 1 {
            break class;
        }
        assert!(started.elapsed() < Duration::from_secs(10), "doomed request never resolved");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        resolved.expired + resolved.cancelled,
        1,
        "double resolution: expired={} cancelled={}",
        resolved.expired,
        resolved.cancelled
    );

    readmitted.cancel();
    let _ = readmitted.wait();
    hog.cancel();
    let _ = hog.wait();
    let class = background(service.stats());
    assert_eq!(class.queued, 0);
    assert_eq!(class.live, 0);
}
