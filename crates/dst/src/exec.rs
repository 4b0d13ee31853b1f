//! Scenario execution on a virtual clock, and the oracles that judge it.
//!
//! A scenario runs **twice**, against two differently shaped services
//! (`ServicePlan { workers, max_live, max_queued }`: pool size and admission
//! limits), both on a [`SimClock`] that only moves when the executor
//! advances it. Worker
//! threads are real, so *which* requests complete versus get cancelled or
//! expired can race — the oracles are therefore status-conditional:
//!
//! * a **completed** request must emit byte-for-byte what a solo
//!   single-worker run of the same task emits (the determinism contract:
//!   pool shape, admission limits, priorities and concurrency never change
//!   results);
//! * a cancelled/expired/poisoned request must only surface candidates the
//!   reference run emits (no invented or corrupted candidates);
//! * a request completed in **both** runs must emit identically in both;
//! * after every ticket resolves, the service must drain to zero live and
//!   zero queued slots, the live high-water mark must respect admission
//!   control, and per-class lifecycle counters must balance:
//!   `submitted == completed + cancelled + expired + vanished`
//!   (vanished = poisoned sessions observed via a panicking wait);
//! * deadlines and latency samples must live on the virtual timeline: a
//!   deadline past the end of the timeline must never fire, and no
//!   reported queue wait or TTFC can exceed the timeline's length — either
//!   failing means a real clock leaked into the service;
//! * **trace conservation**: every submit attempt (admitted or shed) must
//!   leave exactly one trace in the flight recorder, each trace must carry
//!   exactly one terminal event, every span interval must be well-formed
//!   and contained in the root `request` span, and — because traces anchor
//!   at service construction, which is virtual zero here — every recorded
//!   timestamp must sit on the virtual timeline.

use crate::scenario::{RequestPlan, Scenario, ServicePlan, TASK_COUNT};
use crate::violation::{RunLabel, Violation};
use duoquest_core::{SimClock, SynthesisSession};
use duoquest_db::{CmpOp, Database, Value};
use duoquest_nlq::{
    Choice, GuidanceContext, GuidanceModel, Literal, Nlq, NoisyOracleGuidance, OracleConfig,
};
use duoquest_obs::{Trace, ROOT_SPAN, TERMINAL_EVENT};
use duoquest_service::{
    PriorityClass, RequestStatus, ServiceConfig, SynthesisRequest, SynthesisService, Ticket,
};
use duoquest_sql::QueryBuilder;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// How executing a scenario may deviate from the straight check, used to
/// prove the harness catches what it claims to catch.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckOptions {
    /// Deliberately break determinism: the alternate run's guidance models
    /// are replaced with a different (still deterministic) scorer, so its
    /// completed requests emit something the reference never would. The
    /// oracles must flag this, and the shrinker must reduce it to a single
    /// plain request.
    pub perturb_alternate: bool,
}

/// What the executor observed for one request of one run.
#[derive(Debug, Clone, PartialEq)]
pub enum Observed {
    /// `submit` refused the request at admission.
    Shed,
    /// The ticket was dropped unwaited; the outcome was never read.
    Dropped,
    /// `Ticket::wait` panicked: the session was poisoned by an injected
    /// guidance panic and delivered no outcome.
    Vanished,
    /// The ticket resolved normally.
    Resolved {
        /// Final status of the request.
        status: RequestStatus,
        /// Rendered candidate emission (spec debug + confidence bits).
        emission: Vec<String>,
        /// Reported queue wait, in microseconds.
        queue_wait_us: u128,
        /// Reported time to first candidate, in microseconds.
        ttfc_us: Option<u128>,
        /// Whether the request's run started: only a run carries pool
        /// observations (`stats.scheduler`), an unrun outcome has none.
        started: bool,
    },
}

/// One service run's full observation record.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Which of the scenario's two shapes this run used.
    pub label: RunLabel,
    /// Per-request observations, indexed like `Scenario::requests`.
    pub observed: Vec<Observed>,
    /// Live high-water mark reported by the service.
    pub live_peak: usize,
    /// Per-class (submitted, completed, cancelled, expired, shed) counters.
    pub counters: [(u64, u64, u64, u64, u64); 3],
    /// Every trace the flight recorder retained after the drain, oldest
    /// first. The trace-conservation oracle judges these.
    pub traces: Vec<Arc<Trace>>,
}

/// Run every oracle over a scenario. `Ok(())` means both service runs and
/// the net walk were clean; the first violation found is returned.
pub fn check_scenario(scenario: &Scenario, options: &CheckOptions) -> Result<(), Violation> {
    quiet_injected_panics();
    crate::netwalk::check_net_plan(&scenario.net)?;
    let reference = run_service(scenario, &scenario.reference, RunLabel::Reference, false)?;
    let alternate =
        run_service(scenario, &scenario.alternate, RunLabel::Alternate, options.perturb_alternate)?;
    check_run(scenario, &reference)?;
    check_run(scenario, &alternate)?;
    for (index, (a, b)) in reference.observed.iter().zip(&alternate.observed).enumerate() {
        if let (
            Observed::Resolved { status: RequestStatus::Completed, emission: ref_emission, .. },
            Observed::Resolved { status: RequestStatus::Completed, emission: alt_emission, .. },
        ) = (a, b)
        {
            if ref_emission != alt_emission {
                return Err(Violation::CrossRunMismatch {
                    request: index,
                    reference: ref_emission.clone(),
                    alternate: alt_emission.clone(),
                });
            }
        }
    }
    Ok(())
}

/// The fixture database every task runs against: three movies, indexed.
pub(crate) fn fixture_db() -> Arc<Database> {
    use duoquest_db::{ColumnDef, Schema, TableDef};
    let mut schema = Schema::new("dst-movies");
    schema.add_table(TableDef::new(
        "movies",
        vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
        Some(0),
    ));
    let mut db = Database::new(schema).expect("fixture schema must build");
    db.insert_all(
        "movies",
        vec![
            vec![Value::int(1), Value::text("Heat"), Value::int(1995)],
            vec![Value::int(2), Value::text("Forrest Gump"), Value::int(1994)],
            vec![Value::int(3), Value::text("Up"), Value::int(2009)],
        ],
    )
    .expect("fixture rows must insert");
    db.into_shared()
}

/// The NLQ and gold-guided model of one task fixture.
pub(crate) fn task_model(task: u8) -> (Nlq, Arc<dyn GuidanceModel>) {
    let db = fixture_db();
    let schema = db.schema();
    let (gold, text, literals) = match task % TASK_COUNT {
        0 => (
            QueryBuilder::new(schema)
                .select("movies.name")
                .filter("movies.year", CmpOp::Lt, 1995)
                .build()
                .expect("task 0 gold must build"),
            "names of movies before 1995",
            vec![Literal::number(1995.0)],
        ),
        1 => (
            QueryBuilder::new(schema)
                .select("movies.name")
                .filter("movies.year", CmpOp::Gt, 2000)
                .build()
                .expect("task 1 gold must build"),
            "movies released after 2000",
            vec![Literal::number(2000.0)],
        ),
        _ => (
            QueryBuilder::new(schema)
                .select("movies.year")
                .build()
                .expect("task 2 gold must build"),
            "the years movies came out",
            vec![],
        ),
    };
    let nlq = Nlq::with_literals(text, literals);
    let model: Arc<dyn GuidanceModel> =
        Arc::new(NoisyOracleGuidance::with_config(gold, 3, OracleConfig::perfect()));
    (nlq, model)
}

pub(crate) fn engine_config(max_candidates: usize) -> duoquest_core::DuoquestConfig {
    let mut config = duoquest_core::DuoquestConfig::fast();
    config.max_candidates = max_candidates;
    config.time_budget = None;
    config
}

fn render(candidates: &[duoquest_core::Candidate]) -> Vec<String> {
    candidates.iter().map(|c| format!("{:?}~{:016x}", c.spec, c.confidence.to_bits())).collect()
}

/// The emission of a solo, single-worker, clockless run of a task — the
/// ground truth every service run is compared against. Cached per
/// (task, candidate budget) across the whole sweep.
fn reference_emission(task: u8, max_candidates: usize) -> Arc<Vec<String>> {
    type ReferenceMap = HashMap<(u8, usize), Arc<Vec<String>>>;
    static REFERENCES: OnceLock<Mutex<ReferenceMap>> = OnceLock::new();
    let references = REFERENCES.get_or_init(Default::default);
    if let Some(found) =
        references.lock().expect("reference cache poisoned").get(&(task, max_candidates))
    {
        return Arc::clone(found);
    }
    let (nlq, model) = task_model(task);
    let result = SynthesisSession::new(fixture_db(), nlq, model)
        .with_config(engine_config(max_candidates))
        .run();
    let emission = Arc::new(render(&result.candidates));
    references
        .lock()
        .expect("reference cache poisoned")
        .entry((task, max_candidates))
        .or_insert(emission)
        .clone()
}

/// A guidance model that panics after a budget of score calls — the
/// mid-chunk fault injection. The panic message is matched by the quiet
/// panic hook so sweeps stay readable.
struct PanicAfter {
    inner: Arc<dyn GuidanceModel>,
    remaining: AtomicI64,
}

impl GuidanceModel for PanicAfter {
    fn score(&self, ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            panic!("dst-injected guidance panic");
        }
        self.inner.score(ctx, candidates)
    }

    fn name(&self) -> &str {
        "dst-panic-after"
    }
}

/// A deterministic scorer that disagrees with the oracle guidance: scores
/// grow with candidate position, flipping every preference. Used only when
/// [`CheckOptions::perturb_alternate`] deliberately breaks determinism.
struct PerturbGuidance;

impl GuidanceModel for PerturbGuidance {
    fn score(&self, _ctx: &GuidanceContext<'_>, candidates: &[Choice]) -> Vec<f64> {
        (0..candidates.len()).map(|i| 1.0 + i as f64).collect()
    }

    fn name(&self) -> &str {
        "dst-perturb"
    }
}

/// Suppress the panic-hook output of the two panics the harness *expects*
/// (the injected guidance panic and the poisoned-session wait), so a
/// 200-seed sweep with fault injection doesn't bury real failures in noise.
/// Everything else still reaches the previous hook.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains("dst-injected") || message.contains("service driver vanished") {
                return;
            }
            previous(info);
        }));
    });
}

fn build_request(db: &Arc<Database>, plan: &RequestPlan, perturb: bool) -> SynthesisRequest {
    let (nlq, mut model) = task_model(plan.task);
    if perturb {
        model = Arc::new(PerturbGuidance);
    }
    if let Some(budget) = plan.panic_after {
        model = Arc::new(PanicAfter { inner: model, remaining: AtomicI64::new(budget as i64) });
    }
    let mut request = SynthesisRequest::new(Arc::clone(db), nlq, model)
        .with_config(engine_config(plan.max_candidates))
        .with_priority(PriorityClass::ALL[plan.priority as usize % 3]);
    if let Some(deadline) = plan.deadline_us {
        request = request.with_deadline(Duration::from_micros(deadline));
    }
    request
}

enum Event {
    Submit(usize),
    Cancel(usize),
}

/// Execute one service run of the scenario entirely on a [`SimClock`]:
/// walk the submit/cancel schedule advancing virtual time between events,
/// apply the final advance, drop the to-be-dropped tickets, wait the rest
/// (catching poisoned-session panics), then hold until the service drains
/// and its counters balance.
fn run_service(
    scenario: &Scenario,
    plan: &ServicePlan,
    label: RunLabel,
    perturb: bool,
) -> Result<RunRecord, Violation> {
    let clock = Arc::new(SimClock::new());
    let service = SynthesisService::with_clock(
        ServiceConfig {
            workers: plan.workers,
            max_live_sessions: plan.max_live,
            max_queued: plan.max_queued,
            // Conservation needs every request's trace retained: size the
            // flight ring so nothing is evicted during the run.
            flight_capacity: scenario.requests.len().max(1),
        },
        Arc::clone(&clock) as duoquest_core::SharedClock,
    );
    let db = fixture_db();

    let mut events: Vec<(u64, Event)> = Vec::new();
    for (index, request) in scenario.requests.iter().enumerate() {
        events.push((request.submit_at_us, Event::Submit(index)));
    }
    for (index, request) in scenario.requests.iter().enumerate() {
        if let Some(cancel_at) = request.cancel_at_us {
            events.push((cancel_at.max(request.submit_at_us), Event::Cancel(index)));
        }
    }
    // Stable by time: same-instant submits run before same-instant cancels,
    // each in request order — the schedule is fully deterministic.
    events.sort_by_key(|(at, _)| *at);

    let mut tickets: Vec<Option<Ticket>> = scenario.requests.iter().map(|_| None).collect();
    let mut observed: Vec<Option<Observed>> = scenario.requests.iter().map(|_| None).collect();
    let mut now_us = 0u64;
    for (at, event) in events {
        if at > now_us {
            clock.advance(Duration::from_micros(at - now_us));
            now_us = at;
        }
        match event {
            Event::Submit(index) => {
                let request = build_request(&db, &scenario.requests[index], perturb);
                match service.submit(request) {
                    Ok(ticket) => tickets[index] = Some(ticket),
                    Err(_) => observed[index] = Some(Observed::Shed),
                }
            }
            Event::Cancel(index) => {
                if let Some(ticket) = &tickets[index] {
                    ticket.cancel();
                }
            }
        }
    }
    if scenario.final_advance_us > 0 {
        clock.advance(Duration::from_micros(scenario.final_advance_us));
    }

    for (index, request) in scenario.requests.iter().enumerate() {
        if request.drop_ticket {
            if let Some(ticket) = tickets[index].take() {
                drop(ticket);
                observed[index] = Some(Observed::Dropped);
            }
        }
    }

    for (index, slot) in tickets.iter_mut().enumerate() {
        if let Some(ticket) = slot.take() {
            observed[index] = Some(match catch_unwind(AssertUnwindSafe(move || ticket.wait())) {
                Ok(outcome) => Observed::Resolved {
                    status: outcome.status,
                    emission: render(&outcome.result.candidates),
                    queue_wait_us: outcome.queue_wait.as_micros(),
                    ttfc_us: outcome.time_to_first_candidate.map(|d| d.as_micros()),
                    started: outcome.result.stats.scheduler.is_some(),
                },
                Err(_) => Observed::Vanished,
            });
        }
    }
    let observed: Vec<Observed> = observed
        .into_iter()
        .map(|o| o.expect("every request is shed, dropped or waited"))
        .collect();

    // Per-class vanished counts: poisoned sessions bump no lifecycle
    // counter, so they are the balancing term of the conservation oracle.
    let mut vanished = [0u64; 3];
    for (request, obs) in scenario.requests.iter().zip(&observed) {
        if matches!(obs, Observed::Vanished) {
            vanished[request.priority as usize % 3] += 1;
        }
    }

    // Dropped tickets resolve asynchronously on pool workers: hold (in real
    // time — this is harness patience, not service time) until the service
    // drains and every class's books balance.
    let grace_ends = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = service.stats();
        let drained = stats.live_sessions == 0 && stats.queued_requests == 0;
        let balanced = stats.classes.iter().enumerate().all(|(class, c)| {
            c.submitted == c.completed + c.cancelled + c.expired + vanished[class]
        });
        if drained && balanced {
            break stats;
        }
        if Instant::now() > grace_ends {
            if !drained {
                return Err(Violation::Quiescence {
                    run: label,
                    live: stats.live_sessions,
                    queued: stats.queued_requests,
                });
            }
            let (class, c) = stats
                .classes
                .iter()
                .enumerate()
                .find(|(class, c)| {
                    c.submitted != c.completed + c.cancelled + c.expired + vanished[*class]
                })
                .expect("not drained-and-balanced implies an unbalanced class");
            return Err(Violation::CounterImbalance {
                run: label,
                class: PriorityClass::ALL[class].label(),
                submitted: c.submitted,
                completed: c.completed,
                cancelled: c.cancelled,
                expired: c.expired,
                vanished: vanished[class],
            });
        }
        std::thread::sleep(Duration::from_micros(500));
    };

    let counters = std::array::from_fn(|class| {
        let c = &stats.classes[class];
        (c.submitted, c.completed, c.cancelled, c.expired, c.shed)
    });

    // The lifecycle counter bumps and the flight-recorder push happen a few
    // instructions apart on a pool worker, so "balanced" can be observed a
    // hair before the final trace lands: give the push its own short grace
    // window before snapshotting. The conservation oracle judges the count.
    let trace_grace_ends = Instant::now() + Duration::from_secs(10);
    let traces = loop {
        let ids = service.trace_ids();
        if ids.len() >= scenario.requests.len() || Instant::now() > trace_grace_ends {
            break ids.into_iter().filter_map(|id| service.trace(id)).collect::<Vec<_>>();
        }
        std::thread::sleep(Duration::from_micros(500));
    };

    Ok(RunRecord { label, observed, live_peak: stats.live_sessions_peak, counters, traces })
}

/// Judge one run's record against the scenario: emission determinism,
/// admission peak, shed accounting, and virtual-timeline containment.
fn check_run(scenario: &Scenario, record: &RunRecord) -> Result<(), Violation> {
    let virtual_end_us = scenario.virtual_end_us();
    let plan = match record.label {
        RunLabel::Reference => &scenario.reference,
        RunLabel::Alternate => &scenario.alternate,
    };

    if record.live_peak > plan.max_live.max(1) {
        return Err(Violation::AdmissionPeakExceeded {
            run: record.label,
            peak: record.live_peak,
            limit: plan.max_live.max(1),
        });
    }

    let mut shed_observed = [0u64; 3];
    for (request, obs) in scenario.requests.iter().zip(&record.observed) {
        if matches!(obs, Observed::Shed) {
            shed_observed[request.priority as usize % 3] += 1;
        }
    }
    for (class, &observed) in shed_observed.iter().enumerate() {
        let counted = record.counters[class].4;
        if counted != observed {
            return Err(Violation::ShedMismatch {
                run: record.label,
                class: PriorityClass::ALL[class].label(),
                counted,
                observed,
            });
        }
    }

    check_traces(scenario, record, virtual_end_us)?;

    for (index, (request, obs)) in scenario.requests.iter().zip(&record.observed).enumerate() {
        let Observed::Resolved { status, emission, queue_wait_us, ttfc_us, started } = obs else {
            continue;
        };
        if *status == RequestStatus::DeadlineExceeded {
            let ghost = match request.deadline_us {
                None => true,
                Some(deadline) => request.submit_at_us + deadline > virtual_end_us,
            };
            if ghost {
                return Err(Violation::DeadlineGhost {
                    run: record.label,
                    request: index,
                    deadline_us: request
                        .deadline_us
                        .map(|d| request.submit_at_us + d)
                        .unwrap_or(u64::MAX),
                    virtual_end_us,
                });
            }
            // A request that expired in the queue did so as of its deadline,
            // whoever noticed it and however far the clock had moved on.
            let budget = request.deadline_us.map_or(0, u128::from);
            if !started && *queue_wait_us != budget {
                return Err(Violation::ExpiryOffDeadline {
                    run: record.label,
                    request: index,
                    deadline_us: budget,
                    queue_wait_us: *queue_wait_us,
                });
            }
        }
        if *queue_wait_us > u128::from(virtual_end_us) {
            return Err(Violation::LatencyOffTimeline {
                run: record.label,
                request: index,
                which: "queue_wait",
                observed_us: *queue_wait_us,
                virtual_end_us,
            });
        }
        if let Some(ttfc) = ttfc_us {
            if *ttfc > u128::from(virtual_end_us) {
                return Err(Violation::LatencyOffTimeline {
                    run: record.label,
                    request: index,
                    which: "ttfc",
                    observed_us: *ttfc,
                    virtual_end_us,
                });
            }
        }
        let reference = reference_emission(request.task, request.max_candidates);
        if *status == RequestStatus::Completed {
            if emission != reference.as_ref() {
                return Err(Violation::EmissionMismatch {
                    run: record.label,
                    request: index,
                    got: emission.clone(),
                    want: reference.as_ref().clone(),
                });
            }
        } else {
            for candidate in emission {
                if !reference.contains(candidate) {
                    return Err(Violation::StrayCandidate {
                        run: record.label,
                        request: index,
                        candidate: candidate.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// The trace-conservation oracle: every submit attempt (admitted or shed)
/// leaves exactly one retained trace, each trace carries exactly one
/// terminal event and drops nothing past its buffer bound, every trace but a
/// shed request's has its root `request` span, every span interval is
/// well-formed and nested inside that root, and every recorded timestamp
/// sits on the virtual timeline — traces anchor at service construction,
/// which under the run's fresh [`SimClock`] is virtual zero, so a trace
/// offset past the timeline's end means a real clock leaked into the span
/// recorder.
fn check_traces(
    scenario: &Scenario,
    record: &RunRecord,
    virtual_end_us: u64,
) -> Result<(), Violation> {
    if record.traces.len() != scenario.requests.len() {
        return Err(Violation::TraceConservation {
            run: record.label,
            expected: scenario.requests.len(),
            retained: record.traces.len(),
        });
    }
    for trace in &record.traces {
        let malformed = |detail: String| Violation::TraceMalformed {
            run: record.label,
            trace: trace.id(),
            detail,
        };
        let terminals = trace.terminal_count();
        if terminals != 1 {
            return Err(malformed(format!(
                "expected exactly one terminal event, found {terminals}"
            )));
        }
        if trace.dropped() > 0 {
            return Err(malformed(format!(
                "{} spans or events dropped past the buffer bound",
                trace.dropped()
            )));
        }
        let spans = trace.spans();
        let events = trace.events();
        for span in &spans {
            if span.start_us > span.end_us {
                return Err(malformed(format!(
                    "span `{}` is inverted: starts at {}us, ends at {}us",
                    span.name, span.start_us, span.end_us
                )));
            }
            if span.end_us > virtual_end_us {
                return Err(malformed(format!(
                    "span `{}` ends at {}us, past the {}us virtual timeline",
                    span.name, span.end_us, virtual_end_us
                )));
            }
        }
        for event in &events {
            if event.at_us > virtual_end_us {
                return Err(malformed(format!(
                    "event `{}` at {}us, past the {}us virtual timeline",
                    event.name, event.at_us, virtual_end_us
                )));
            }
        }
        match spans.iter().find(|span| span.name == ROOT_SPAN) {
            Some(root) => {
                for span in &spans {
                    if span.name != ROOT_SPAN
                        && (span.start_us < root.start_us || span.end_us > root.end_us)
                    {
                        return Err(malformed(format!(
                            "span `{}` [{}, {}]us escapes the root request interval [{}, {}]us",
                            span.name, span.start_us, span.end_us, root.start_us, root.end_us
                        )));
                    }
                }
            }
            None => {
                // Only a shed request legitimately resolves without a root
                // span (it never held a request interval).
                let shed = events
                    .iter()
                    .any(|e| e.name == TERMINAL_EVENT && e.detail.as_deref() == Some("shed"));
                if !shed {
                    return Err(malformed("no root request span recorded".to_string()));
                }
            }
        }
    }
    Ok(())
}
