//! The two places a run can stand — **inline** on the calling thread (`run`,
//! `run_with`, a pulled `stream()`), or as a **driven session** on a pool
//! (`spawn_driven`, waited for through `common::drive`) — seen from the
//! public API: an early stop cuts every run at the same point, one
//! `SessionControl` serves run after run, and the edges of the pooled path (a
//! pool dropped under a parked run, a panicking model, a panicking sink)
//! resolve instead of hanging. That the inline mode spawns nothing is held by
//! `tests/inline_mode.rs`, a process of its own.

mod common;

use common::drive;
use duoquest::core::{
    panic_message, Candidate, DrivenOutcome, DuoquestConfig, SessionControl, SessionScheduler,
    SynthesisResult, SynthesisSession, VerifyStage,
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

/// The result of a driven run that finished.
fn finished(outcome: DrivenOutcome) -> SynthesisResult {
    match outcome {
        DrivenOutcome::Finished(result) => result,
        DrivenOutcome::Poisoned(message) => panic!("the driven run was poisoned: {message:?}"),
    }
}

/// A candidate callback that stops the run at its `k`-th candidate.
fn stop_after(k: usize) -> impl FnMut(&Candidate) -> bool + Send + 'static {
    let mut seen = 0;
    move |_| {
        seen += 1;
        seen < k
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
    let cut = |result: SynthesisResult| {
        let s = &result.stats;
        (ranking(&result), s.emitted, s.expanded, s.generated, s.total_pruned())
    };
    for task in 0..dataset.tasks.len() {
        for k in [1usize, 3] {
            let inline = cut(session(&dataset, task, &config).run_with(stop_after(k)));
            if inline.0.len() < k {
                continue; // the task emits fewer than k candidates
            }
            assert_eq!(inline.0.len(), k, "task {task}: the callback stops the run");
            for pool in &pools {
                let driven = drive(session(&dataset, task, &config), &pool.handle(), stop_after(k));
                assert_eq!(
                    inline,
                    cut(finished(driven)),
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
/// `verify:<stage>` spans that follow lie inside it; summed
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
            Some(pool) => finished(drive(session, &pool.handle(), |_| true)),
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
                let stage = VerifyStage::ALL
                    .into_iter()
                    .position(|stage| stage.span_name() == span.name)
                    .unwrap_or_else(|| panic!("{span:?} is not a stage"));
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

/// One `SessionControl` reused across every way to run a session — inline
/// `run` and `run_with`, a pulled stream drained or only finished, `drive`
/// on pools of {1, 2, 4} workers and eight sessions at once on each: a run
/// that completes never fires the caller's token, so the next run under the
/// same control is as complete as the first. Nor does dropping a stream
/// that was pulled once: nothing runs between pulls, so there is nothing to
/// cancel. `stop()` is what fires it.
#[test]
fn one_control_serves_run_after_run() {
    let dataset = workload();
    let config = base_config();
    let control = SessionControl::new();
    let controlled =
        |config: &DuoquestConfig| session(&dataset, 1, config).with_control(control.clone());

    let inline = controlled(&config).run();
    assert!(inline.candidates.len() >= 3, "only {} candidates", inline.candidates.len());
    let mut runs = vec![
        ("run() inline".to_string(), inline.clone()),
        ("run_with inline".to_string(), controlled(&config).run_with(|_| true)),
        ("stream().finish()".to_string(), controlled(&config).stream().finish()),
        ("stream() drained".to_string(), {
            let mut stream = controlled(&config).stream();
            assert_eq!(stream.by_ref().count(), inline.candidates.len());
            stream.finish()
        }),
    ];
    for workers in [1, 2, 4] {
        let pool = SessionScheduler::new(workers);
        let handle = pool.handle();
        let alone = finished(drive(controlled(&config), &handle, |_| true));
        runs.push((format!("drive on {workers} workers"), alone));
        std::thread::scope(|scope| {
            let sessions: Vec<_> = (0..8)
                .map(|_| {
                    let (session, handle) = (controlled(&config), &handle);
                    scope.spawn(move || finished(drive(session, handle, |_| true)))
                })
                .collect();
            for (s, session) in sessions.into_iter().enumerate() {
                let result = session.join().expect("a driving thread panicked");
                runs.push((format!("session {s} of 8 on {workers} workers"), result));
            }
        });
    }
    for (way, result) in &runs {
        assert!(!control.is_cancelled(), "{way} fired the caller's token");
        assert!(!result.stats.cancelled, "{way} came back cancelled");
        assert_eq!(ranking(&inline), ranking(result), "{way}");
    }

    let mut stream = controlled(&endless_config()).stream();
    assert!(stream.next().is_some(), "the endless run emits");
    drop(stream);
    assert!(!control.is_cancelled(), "dropping a pulled stream leaves the token alone");
    let stream = controlled(&endless_config()).stream();
    stream.stop();
    assert!(control.is_cancelled(), "stop() fires the session's token");
    assert!(stream.finish().stats.cancelled, "and the run it would have made stops at once");
}

/// Dropping the `SessionScheduler` under a `drive` parked on it resolves the
/// run — `Finished`, cancelled, with the candidates found so far — instead of
/// stranding or poisoning it; on a pool that is already gone, at once.
#[test]
fn dropping_the_pool_under_a_blocked_run_resolves_it_as_cancelled() {
    let dataset = workload();
    let pool = SessionScheduler::new(2);
    let (handle, session) = (pool.handle(), session(&dataset, 1, &endless_config()));
    let (first_tx, first_rx) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        drive(session, &handle, move |_| {
            let _ = first_tx.send(());
            true
        })
    });
    first_rx.recv_timeout(Duration::from_secs(30)).expect("the run is in flight and emitting");
    drop(pool);
    let outcome = caller.join().expect("a parked run must resolve, not panic");
    let DrivenOutcome::Finished(result) = outcome else {
        panic!("shutdown resolves the run as finished, not poisoned")
    };
    assert!(result.stats.cancelled, "shutdown winds the run down as cancelled");
    assert!(!result.candidates.is_empty(), "with the candidates found so far");

    // A pool that is already gone resolves the next run the same way.
    let gone = SessionScheduler::new(1);
    let handle = gone.handle();
    drop(gone);
    let result = finished(drive(self::session(&dataset, 1, &base_config()), &handle, |_| true));
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

/// A model that panics in a later round carries its message to whoever
/// drives the run: an inline `run` and a pulled stream's `next()` or
/// `finish()` unwind with it on the calling thread, and `drive` resolves
/// `Poisoned` with it; the pool survives, forgets the session and serves the
/// next `drive`.
#[test]
fn a_panicking_model_panics_the_blocked_caller_and_spares_the_pool() {
    let dataset = workload();
    let config = base_config();
    let exploding = |config: &DuoquestConfig| {
        session_with(&dataset, 1, config, |inner| {
            Arc::new(PanicAfter { inner, remaining: AtomicI64::new(3) })
        })
    };
    let message_of = |run: &dyn Fn()| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("the model's panic must reach the caller");
        panic_message(payload.as_ref()).expect("a message travels with the panic")
    };
    let pool = SessionScheduler::new(2);
    let poisoned = match drive(exploding(&config), &pool.handle(), |_| true) {
        DrivenOutcome::Poisoned(Some(message)) => message,
        DrivenOutcome::Poisoned(None) => panic!("the poisoned outcome lost the model's message"),
        DrivenOutcome::Finished(_) => panic!("the model's panic must poison the driven run"),
    };
    for message in [
        message_of(&|| {
            exploding(&config).run();
        }),
        message_of(&|| {
            let mut stream = exploding(&config).stream();
            while stream.next().is_some() {}
        }),
        message_of(&|| {
            exploding(&config).stream().finish();
        }),
        poisoned,
    ] {
        assert!(message.contains("guidance model exploded"), "payload: {message:?}");
    }
    assert_eq!(pool.stats().live_sessions, 0, "a poisoned session is torn down");
    let healthy = session(&dataset, 1, &config);
    assert_eq!(
        ranking(&healthy.run()),
        ranking(&finished(drive(healthy.clone(), &pool.handle(), |_| true))),
        "the pool serves the next run"
    );
}

/// A `drive` sink that panics poisons its session with the sink's message,
/// and the pool is left idle: no live session, no queued unit.
#[test]
fn a_panicking_callback_leaves_the_pool_idle() {
    let dataset = workload();
    let pool = SessionScheduler::new(2);
    let session = session(&dataset, 1, &endless_config());
    let outcome = drive(session, &pool.handle(), |_| -> bool { panic!("callback exploded") });
    let DrivenOutcome::Poisoned(message) = outcome else {
        panic!("a panicking sink must poison the session")
    };
    assert_eq!(message.as_deref(), Some("callback exploded"));
    let stats = pool.stats();
    assert_eq!((stats.live_sessions, stats.queue_depth), (0, 0), "{stats:?}");
}
