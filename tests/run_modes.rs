//! The two places a run can stand — **inline** on the calling thread, or as a
//! **driven session** on a pool that a blocking caller waits for — seen from
//! the public API: an early stop cuts every run at the same point, one
//! `SessionControl` serves run after run, and the edges of the pooled path (a
//! pool dropped under a blocked caller, a panicking model, a panicking
//! callback) resolve instead of hanging. That the inline mode spawns nothing
//! is held by `tests/inline_mode.rs`, a process of its own.

use duoquest::core::{
    panic_message, DuoquestConfig, SessionControl, SessionScheduler, SynthesisResult,
    SynthesisSession, VerifyStage,
};
use duoquest::nlq::{Choice, GuidanceContext, GuidanceModel, NoisyOracleGuidance};
use duoquest::obs::{SpanRecord, Trace};
use duoquest::workloads::{spider, synthesize_tsq, TsqDetail};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn workload() -> spider::SpiderDataset {
    spider::generate("run-modes", 1, 2, 2, 2, 33)
}

fn base_config() -> DuoquestConfig {
    DuoquestConfig {
        max_candidates: 20,
        max_expansions: 1_500,
        time_budget: None,
        ..Default::default()
    }
}

/// A configuration no run finishes under before the test is done with it.
fn endless_config() -> DuoquestConfig {
    DuoquestConfig {
        max_expansions: usize::MAX,
        max_candidates: usize::MAX,
        max_states: 2_000_000,
        time_budget: Some(Duration::from_secs(60)),
        ..Default::default()
    }
}

fn session_with(
    dataset: &spider::SpiderDataset,
    task: usize,
    config: &DuoquestConfig,
    model: impl FnOnce(NoisyOracleGuidance) -> Arc<dyn GuidanceModel>,
) -> SynthesisSession {
    let task = &dataset.tasks[task];
    let db = dataset.database(task);
    let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, 41);
    SynthesisSession::new(
        Arc::clone(db),
        task.nlq.clone(),
        model(NoisyOracleGuidance::new(gold, 41)),
    )
    .with_tsq(tsq)
    .with_config(config.clone())
}

fn session(
    dataset: &spider::SpiderDataset,
    task: usize,
    config: &DuoquestConfig,
) -> SynthesisSession {
    session_with(dataset, task, config, |oracle| Arc::new(oracle))
}

fn ranking(result: &SynthesisResult) -> Vec<(String, u64)> {
    result.candidates.iter().map(|c| (format!("{:?}", c.spec), c.confidence.to_bits())).collect()
}

/// Poll `ready` until it holds (a pool winds a stopped session down on its
/// own workers, after the blocked caller has already returned).
fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::yield_now();
    }
}

/// A callback that stops after `k` candidates cuts the run at the same
/// emission, with the same counters, wherever the run stands: inline or on
/// shared pools of {1, 2, 4} workers. The beam is widened so the cut falls
/// inside rounds that carry several states' children: what the run counts is
/// the whole round.
#[test]
fn halt_cut_is_the_same_everywhere() {
    let dataset = workload();
    let pools: Vec<SessionScheduler> = [1, 2, 4].map(SessionScheduler::new).into();
    let config = base_config().with_beam_width(4);
    for task in 0..dataset.tasks.len() {
        for k in [1usize, 3] {
            let cut = |session: SynthesisSession| {
                let mut seen = 0;
                let result = session.run_with(|_| {
                    seen += 1;
                    seen < k
                });
                let s = &result.stats;
                (ranking(&result), s.emitted, s.expanded, s.generated, s.total_pruned())
            };
            let inline = cut(session(&dataset, task, &config));
            if inline.0.len() < k {
                continue; // the task emits fewer than k candidates
            }
            assert_eq!(inline.0.len(), k, "task {task}: the callback stops the run");
            for pool in &pools {
                assert_eq!(
                    inline,
                    cut(session(&dataset, task, &config).with_scheduler(pool.handle())),
                    "task {task}, stop after {k}: shared pool of {}",
                    pool.workers()
                );
            }
        }
    }
}

/// The span tree of a traced run, wherever it stands: every burst of up to 32
/// rounds (one `advance`) has its `rounds` span — the one the candidate
/// budget cuts included — recorded first, and the synthesized
/// `verify:<stage>` / `probe_wait` spans that follow lie inside it; summed
/// over the run, each stage's spans are its `StageTimings` share, losing
/// under 1 µs per burst to rounding. A pool adds `resume` spans and nothing
/// else.
#[test]
fn every_burst_of_a_traced_run_has_its_span() {
    let dataset = workload();
    let config = DuoquestConfig { max_candidates: 8, ..base_config() };
    let traced = |pool: Option<&SessionScheduler>| {
        let trace = Arc::new(Trace::with_capacity(0, Instant::now(), 1 << 20));
        let session = session(&dataset, 1, &config).with_trace(Arc::clone(&trace));
        let result = match pool {
            Some(pool) => session.with_scheduler(pool.handle()).run(),
            None => session.run(),
        };
        let stats = &result.stats;
        assert_eq!(stats.emitted, 8, "the run ends on its candidate budget");
        assert!(stats.rounds > 32 && stats.rounds % 32 != 0, "{} rounds", stats.rounds);
        assert_eq!(trace.dropped(), 0);
        let mut spans = trace.spans();
        assert_eq!(spans.iter().any(|s| s.name == "resume"), pool.is_some());
        spans.retain(|s| s.name != "resume");

        let inside = |inner: &SpanRecord, outer: &SpanRecord| {
            outer.start_us <= inner.start_us && inner.end_us <= outer.end_us
        };
        let mut widths_us = [0u64; VerifyStage::COUNT];
        let mut bursts = 0;
        let mut rest = spans.as_slice();
        while let Some((burst, tail)) = rest.split_first() {
            assert_eq!(burst.name, "rounds", "a burst opens with its `rounds` span");
            bursts += 1;
            let shares = tail.iter().take_while(|s| s.name != "rounds").count();
            for span in &tail[..shares] {
                assert!(inside(span, burst), "{span:?} outside {burst:?}");
                if span.name == "probe_wait" {
                    continue;
                }
                let stage = VerifyStage::ALL
                    .into_iter()
                    .position(|stage| stage.span_name() == span.name)
                    .unwrap_or_else(|| panic!("{span:?} is neither a stage nor `probe_wait`"));
                widths_us[stage] += span.end_us - span.start_us;
            }
            rest = &tail[shares..];
        }
        assert_eq!(bursts, stats.rounds.div_ceil(32), "one `rounds` span per burst");
        for (stage, width_us) in VerifyStage::ALL.into_iter().zip(widths_us) {
            let total_us = stats.stage_timings.duration_of(stage).as_micros() as u64;
            assert!(
                width_us <= total_us && total_us - width_us <= bursts as u64,
                "{}: spans {width_us} µs, timings {total_us} µs over {bursts} bursts",
                stage.label()
            );
        }
        spans.into_iter().map(|s| s.name).collect::<Vec<_>>()
    };
    let inline = traced(None);
    for workers in [1, 2] {
        assert_eq!(inline, traced(Some(&SessionScheduler::new(workers))), "{workers} worker(s)");
    }
}

/// One `SessionControl` reused across every way to run a session: a run that
/// completes never fires the caller's token, so the next run under the same
/// control is as complete as the first. Dropping a stream whose run has
/// *not* resolved still cancels.
#[test]
fn one_control_serves_run_after_run() {
    let dataset = workload();
    let config = base_config();
    let control = SessionControl::new();
    let controlled =
        |config: &DuoquestConfig| session(&dataset, 1, config).with_control(control.clone());
    let pool = SessionScheduler::new(2);

    let inline = controlled(&config).run();
    assert!(inline.candidates.len() >= 3, "only {} candidates", inline.candidates.len());
    let runs = [
        ("run() inline", inline.clone()),
        ("stream().finish() on a private pool", controlled(&config).stream().finish()),
        (
            "run_with on a shared pool",
            controlled(&config).with_scheduler(pool.handle()).run_with(|_| true),
        ),
        ("stream().finish()", controlled(&config).with_scheduler(pool.handle()).stream().finish()),
    ];
    for (way, result) in &runs {
        assert!(!control.is_cancelled(), "{way} fired the caller's token");
        assert!(!result.stats.cancelled, "{way} came back cancelled");
        assert_eq!(ranking(&inline), ranking(result), "{way}");
    }

    let mut stream = controlled(&endless_config()).with_scheduler(pool.handle()).stream();
    assert!(stream.next().is_some(), "the endless run emits");
    assert!(!control.is_cancelled());
    drop(stream);
    assert!(control.is_cancelled(), "dropping an unfinished stream cancels its session");
    wait_until("the cancelled session has left the pool", || pool.stats().live_sessions == 0);
}

/// Dropping the `SessionScheduler` under a caller blocked in `run_with`
/// resolves the call — cancelled, with the candidates found so far — instead
/// of panicking or hanging.
#[test]
fn dropping_the_pool_under_a_blocked_run_resolves_it_as_cancelled() {
    let dataset = workload();
    let pool = SessionScheduler::new(2);
    let session = session(&dataset, 1, &endless_config()).with_scheduler(pool.handle());
    let (first_tx, first_rx) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        session.run_with(|_| {
            let _ = first_tx.send(());
            true
        })
    });
    first_rx.recv_timeout(Duration::from_secs(30)).expect("the run is in flight and emitting");
    drop(pool);
    let result = caller.join().expect("a blocked run must resolve, not panic");
    assert!(result.stats.cancelled, "shutdown winds the run down as cancelled");
    assert!(!result.candidates.is_empty(), "with the candidates found so far");

    // A pool that is already gone resolves the next run the same way.
    let gone = SessionScheduler::new(1);
    let handle = gone.handle();
    drop(gone);
    let result = self::session(&dataset, 1, &base_config()).with_scheduler(handle).run();
    assert!(result.stats.cancelled);
    assert!(result.candidates.is_empty());
}

/// A guidance model that panics after a budget of `score` calls.
struct PanicAfter {
    inner: NoisyOracleGuidance,
    remaining: AtomicI64,
}

impl GuidanceModel for PanicAfter {
    fn score(&self, ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            panic!("guidance model exploded");
        }
        self.inner.score(ctx, candidates)
    }
}

/// A model that panics in a later round makes `run` / `run_with` on a pool
/// (and a private stream's `finish`) panic on the calling thread with the
/// model's message; the pool survives, forgets the session and serves the
/// next run.
#[test]
fn a_panicking_model_panics_the_blocked_caller_and_spares_the_pool() {
    let dataset = workload();
    let config = base_config();
    let exploding = |config: &DuoquestConfig| {
        session_with(&dataset, 1, config, |inner| {
            Arc::new(PanicAfter { inner, remaining: AtomicI64::new(3) })
        })
    };
    let message_of = |run: &dyn Fn() -> SynthesisResult| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the model's panic must reach the caller");
        panic_message(payload.as_ref()).expect("a message travels with the panic")
    };
    let pool = SessionScheduler::new(2);
    for message in [
        message_of(&|| exploding(&config).with_scheduler(pool.handle()).run()),
        message_of(&|| exploding(&config).with_scheduler(pool.handle()).run_with(|_| true)),
        message_of(&|| exploding(&config).stream().finish()),
        message_of(&|| exploding(&config).run()),
    ] {
        assert!(message.contains("guidance model exploded"), "payload: {message:?}");
    }
    assert_eq!(pool.stats().live_sessions, 0, "a poisoned session is torn down");
    let healthy = session(&dataset, 1, &config);
    assert_eq!(
        ranking(&healthy.run()),
        ranking(&healthy.clone().with_scheduler(pool.handle()).run()),
        "the pool serves the next run"
    );
}

/// A `run_with` callback that panics unwinds through the caller as any panic
/// does, and the session it left behind on the pool stops by itself: no live
/// session, no queued unit.
#[test]
fn a_panicking_callback_leaves_the_pool_idle() {
    let dataset = workload();
    let pool = SessionScheduler::new(2);
    let session = session(&dataset, 1, &endless_config()).with_scheduler(pool.handle());
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.run_with(|_| panic!("callback exploded"))
    }))
    .expect_err("the callback's panic unwinds through run_with");
    assert_eq!(panic_message(payload.as_ref()).as_deref(), Some("callback exploded"));
    wait_until("the abandoned session has left the pool", || {
        let stats = pool.stats();
        stats.live_sessions == 0 && stats.queue_depth == 0
    });
}
