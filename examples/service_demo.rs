//! Service demo: mixed interactive + batch + background traffic through the
//! multi-tenant [`SynthesisService`], exercising the full request lifecycle —
//! priority classes, one explicit cancellation, one deadline miss, and
//! admission-control shedding — then printing the per-class stats snapshot.
//!
//! Run with: `cargo run --release --example service_demo`

use duoquest::core::DuoquestConfig;
use duoquest::nlq::NoisyOracleGuidance;
use duoquest::service::{
    AdmissionError, PriorityClass, ServiceConfig, ServiceOutcome, SynthesisRequest,
    SynthesisService, Ticket,
};
use duoquest::workloads::{spider, synthesize_tsq, Difficulty, TsqDetail};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn report(name: &str, started: Instant, ticket: Ticket) -> ServiceOutcome {
    let outcome = ticket.wait();
    println!(
        "  {name:<24} {:<18} candidates={:<3} ttfc={} queue_wait={:.1?} (+{:.1?} total)",
        outcome.status.label(),
        outcome.result.candidates.len(),
        outcome.time_to_first_candidate.map(|d| format!("{:.1?}", d)).unwrap_or_else(|| "-".into()),
        outcome.queue_wait,
        started.elapsed(),
    );
    outcome
}

fn main() {
    let dataset = spider::generate("service-demo", 2, 4, 4, 2, 41);
    let easy: Vec<_> = dataset.tasks.iter().filter(|t| t.level == Difficulty::Easy).collect();
    let hard = dataset
        .tasks
        .iter()
        .rev()
        .find(|t| t.level == Difficulty::Hard)
        .unwrap_or_else(|| dataset.tasks.last().expect("dataset has tasks"));

    // A small service: 2 pool workers, 2 requests live at a time, 3 queued.
    let service = SynthesisService::new(ServiceConfig {
        workers: 2,
        max_live_sessions: 2,
        max_queued: 3,
        ..ServiceConfig::default()
    });
    let started = Instant::now();

    let mut fast = DuoquestConfig::fast();
    fast.max_candidates = 10;
    // The heavy configuration keeps a long-running search alive so the demo
    // has something to cancel and a deadline to miss.
    let heavy = DuoquestConfig {
        max_expansions: usize::MAX,
        max_candidates: usize::MAX,
        max_states: 500_000,
        time_budget: Some(Duration::from_secs(10)),
        ..DuoquestConfig::default()
    };

    println!("submitting mixed traffic (2 workers, 2 live slots, queue of 3):");

    // Two batch crunchers grab the live slots...
    let batch_a = service
        .submit(request_for(&dataset, hard, 7, heavy.clone()).with_priority(PriorityClass::Batch))
        .expect("admitted");
    let to_cancel = service
        .submit(request_for(&dataset, hard, 11, heavy.clone()).with_priority(PriorityClass::Batch))
        .expect("admitted");

    // ...an interactive user and a background warming job queue behind them...
    let interactive =
        service.submit(request_for(&dataset, easy[0], 13, fast.clone())).expect("admitted");
    let background = service
        .submit(
            request_for(&dataset, easy[1 % easy.len()], 17, fast.clone())
                .with_priority(PriorityClass::Background),
        )
        .expect("admitted");

    // ...a latency-bound request whose 25ms deadline (measured from submit,
    // queue wait included) cannot be met behind two live batch crunchers...
    let doomed = service
        .submit(
            request_for(&dataset, easy[2 % easy.len()], 19, fast.clone())
                .with_deadline(Duration::from_millis(25)),
        )
        .expect("admitted");

    // ...and one more than the queue can hold: shed at admission.
    match service.submit(request_for(&dataset, easy[0], 23, fast.clone())) {
        Err(AdmissionError::Overloaded { live, queued }) => {
            println!("  overflow request shed at admission ({live} live, {queued} queued)");
        }
        other => println!("  unexpected admission result: {other:?}"),
    }

    // Cancel one batch cruncher mid-flight; its queued units are reaped.
    std::thread::sleep(Duration::from_millis(60));
    to_cancel.cancel();

    println!("outcomes:");
    report("interactive", started, interactive);
    report("background", started, background);
    let doomed = report("deadline-25ms", started, doomed);
    report("batch (cancelled)", started, to_cancel);
    batch_a.cancel(); // wind the remaining cruncher down before the snapshot
    report("batch (wound down)", started, batch_a);

    let stats = service.stats();
    println!("\nper-class service stats:");
    for class in PriorityClass::ALL {
        let c = stats.class(class);
        println!(
            "  {:<12} submitted={} completed={} cancelled={} expired={} shed={} p50_ttfc_us={:?}",
            class.label(),
            c.submitted,
            c.completed,
            c.cancelled,
            c.expired,
            c.shed,
            c.ttfc.quantile_us(0.50),
        );
    }
    let mut json = duoquest::obs::JsonObject::default();
    stats.render(&mut json);
    println!("\nstats JSON:\n{}", json.finish());

    // Smoke assertions so CI fails loudly if the lifecycle regresses.
    assert_eq!(stats.class(PriorityClass::Interactive).completed, 1);
    assert!(
        stats.class(PriorityClass::Interactive).expired >= 1,
        "the 25ms-deadline request must expire"
    );
    if doomed.result.stats.scheduler.is_none() {
        // It expired in the queue, and did so as of its deadline.
        assert_eq!(doomed.queue_wait, Duration::from_millis(25), "queued expiry off its deadline");
    }
    assert!(stats.class(PriorityClass::Batch).cancelled >= 1, "the cancelled batch must count");
    assert_eq!(stats.class(PriorityClass::Interactive).shed, 1, "the overflow must be shed");
    assert_eq!(stats.live_sessions, 0, "all requests resolved");
    println!("\nservice demo OK");
}
