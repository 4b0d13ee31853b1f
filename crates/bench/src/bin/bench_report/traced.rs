//! The traced run (`--trace 1`): one pass over the workload's instances,
//! each taken through every layer by its default public entry point with a
//! harness span around every call. Nothing inside the program is
//! instrumented; counts come from what the program already returns.
//!
//! Per request, under one root span:
//!
//! 0. `socket.plain`     — a socket submit recording client timestamps only
//!    (what the end-to-end run does), the base for the tracing overhead;
//! 1. `net.submit`       — a socket submit with a span per received line,
//!    then `GET /trace/<id>`, `/metrics` and `/stats`;
//! 2. `service.submit`   — the same request through `SynthesisService::submit`;
//! 3. `core.enumerate.run` — the same request through `SynthesisSession::run_with`,
//!    then twice more on a private copy of the database with a cleared
//!    cache, to see whether the program's counts repeat;
//! 4. `goldpath`         — `enum_next_step` → `GuidanceModel::score` →
//!    `construct_join_paths` → `Verifier::verify_timed` on every child,
//!    descending along the gold query;
//! 5. `db.replay`        — the request's probe set through `execute_with`
//!    and, cold then warm, `Database::execute_cached`;
//! 6. `codec`            — the request's own wire bytes through the `net`
//!    and `sql` codecs.
//!
//! Only default-configuration entry points are called (`db.exec_options()`,
//! never a strategy toggle, a scheduler handle or a dispatcher), so later
//! changes can delete those without editing the benchmark.

use crate::client::{self, TIMEOUT};
use crate::e2e::{emitted_in_order, reference_pass, set_up, Options};
use crate::metrics::Outcome;
use crate::spans::{covered_ns, SpanLog};
use crate::stats::{percentile, process_cpu_ms, sorted};
use crate::workload::{distinct_databases, Instance, Server, Workload};
use duoquest_core::enumerate::enum_next_step;
use duoquest_core::joinpath::construct_join_paths;
use duoquest_core::{
    EnumerationStats, StageTimings, SynthesisResult, SynthesisSession, Verifier, VerifyStage,
};
use duoquest_db::{
    execute_with, CmpOp, DataType, Database, JoinGraph, JoinTree, Predicate, SelectItem,
    SelectSpec, Value,
};
use duoquest_net::client::ResponseDecoder;
use duoquest_net::wire::{self, SubmitWire};
use duoquest_net::{client::request as http_request, http};
use duoquest_nlq::guidance::normalize_scores;
use duoquest_nlq::{extract_literals, Choice, GuidanceContext, NoisyOracleGuidance};
use duoquest_obs::{Trace, ROOT_SPAN};
use duoquest_service::json::Json;
use duoquest_service::ServiceOutcome;
use duoquest_sql::{parse_query, queries_equivalent, render_sql, PartialQuery};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-request samples of one metric; reported as their median.
#[derive(Default)]
struct Samples(HashMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Nearest-rank percentile of the metric's samples; 0 when the workload
    /// never produced one (no probe on `nlq_heuristic`, say).
    fn percentile(&self, name: &str, p: f64) -> f64 {
        self.0.get(name).map(|v| percentile(&sorted(v), p)).filter(|m| m.is_finite()).unwrap_or(0.0)
    }

    fn median(&self, name: &str) -> f64 {
        self.percentile(name, 50.0)
    }
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The counts that should be a pure function of the request.
fn counts(stats: &EnumerationStats) -> [u64; 5] {
    [
        stats.expanded as u64,
        stats.generated as u64,
        stats.emitted as u64,
        stats.rows_scanned,
        stats.cache_misses,
    ]
}

fn session(instance: &Instance, db: &Arc<Database>) -> SynthesisSession {
    SynthesisSession::new(Arc::clone(db), instance.nlq.clone(), Arc::clone(&instance.model))
        .with_tsq(instance.tsq.clone())
        .with_config(instance.config.clone())
}

/// One probe that hits and one that misses per column, shaped like the
/// verifier's `col = v LIMIT 1` probes (as `benches/executor.rs` builds them).
fn column_probes(db: &Database) -> Vec<SelectSpec> {
    let schema = db.schema();
    let mut probes = Vec::new();
    for col in schema.all_columns() {
        let Some(first) = db.table_data(col.table).rows.first() else { continue };
        let miss = match schema.column(col).dtype {
            DataType::Number => Value::Number(-1.0e12),
            DataType::Text => Value::text("no such value anywhere"),
        };
        for value in [first.0[col.column].clone(), miss] {
            if !value.is_null() {
                probes.push(SelectSpec {
                    select: vec![SelectItem::column(col)],
                    join: JoinTree::single(col.table),
                    predicates: vec![Predicate::new(col, CmpOp::Eq, value)],
                    limit: Some(1),
                    ..Default::default()
                });
            }
        }
    }
    probes
}

/// What `GET /trace/<id>` says about one request.
struct ProgramTrace {
    spans: usize,
    dropped: u64,
    resumes: usize,
    resume_us: f64,
    /// Microseconds of the request covered by any span but the enclosing
    /// `request` span: what the program itself can attribute.
    attributed_us: f64,
}

fn read_program_trace(trace: &Trace) -> ProgramTrace {
    let spans = trace.spans();
    let mut resumes = 0;
    let mut resume_us = 0.0;
    let mut inner = Vec::new();
    for span in &spans {
        if span.name == "resume" {
            resumes += 1;
            resume_us += span.end_us.saturating_sub(span.start_us) as f64;
        }
        if span.name != ROOT_SPAN {
            inner.push((span.start_us, span.end_us));
        }
    }
    ProgramTrace {
        spans: spans.len(),
        dropped: trace.dropped(),
        resumes,
        resume_us,
        attributed_us: covered_ns(&mut inner, 0, u64::MAX) as f64,
    }
}

/// Span name of one streamed NDJSON line.
fn line_span(line: &str) -> &'static str {
    if line.contains("\"event\":\"candidate\"") {
        "net.line.candidate"
    } else if line.contains("\"event\":\"accepted\"") {
        "net.line.accepted"
    } else if line.contains("\"event\":\"done\"") {
        "net.line.done"
    } else {
        "net.line.other"
    }
}

struct Tracer<'a> {
    workload: &'a Workload,
    server: &'a Server,
    /// Original database → a private copy whose cache may be cleared at will.
    scratch: Vec<(Arc<Database>, Arc<Database>)>,
    log: SpanLog,
    samples: Samples,
    counts_exact: bool,
    failed: usize,
    /// Sums over all traced requests of step 3's verify time and run time:
    /// their ratio is the cascade's share of engine time (medians of the
    /// two do not divide into a share).
    verify_total_us: f64,
    run_total_us: f64,
    /// Process CPU time spent during the step-0 submits (10 ms ticks, so
    /// only their sum means anything).
    plain_cpu_ms: f64,
}

impl Tracer<'_> {
    fn scratch_of(&self, db: &Arc<Database>) -> Arc<Database> {
        let (_, copy) =
            self.scratch.iter().find(|(orig, _)| Arc::ptr_eq(orig, db)).expect("copied");
        Arc::clone(copy)
    }

    fn fail(&mut self, instance: &Instance, reason: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("FAILED {}: {reason}", instance.wire.task);
        }
    }

    fn clear_if_cold(&self, instance: &Instance) {
        if self.workload.cold {
            instance.db.clear_probe_cache();
        }
    }

    fn request(&mut self, index: u64, instance: &Instance, reference: Option<&[String]>) {
        let request = Some(index);
        let root = self.log.open("request", None, request);
        // Whichever socket submit goes second finds warmer caches and
        // branch predictors; alternating the order keeps that out of the
        // tracing-overhead estimate.
        let (plain_ttd, traced) = if index.is_multiple_of(2) {
            let plain = self.socket_plain(root, request, instance, reference);
            (plain, self.socket_traced(root, request, instance, reference))
        } else {
            let traced = self.socket_traced(root, request, instance, reference);
            (self.socket_plain(root, request, instance, reference), traced)
        };
        let in_process = self.in_process(root, request, instance);
        let (direct_us, result) = self.direct(root, request, instance);
        if let (Some(plain), Some((ttd_us, attributed_us))) = (plain_ttd, traced) {
            self.samples.push("net.ttd_us", plain);
            self.samples.push("socket.traced_ttd_us", ttd_us);
            self.samples.push("net.overhead_us", ttd_us - in_process.0);
            self.samples.push("budget.unattributed_share", (ttd_us - attributed_us) / ttd_us);
        }
        self.samples.push("service.overhead_us", in_process.0 - direct_us);
        self.gold_path(root, request, instance);
        self.replay(root, request, instance, &result);
        self.codecs(root, request, instance, &result, &in_process.1);
        self.log.close(root);
    }

    /// Step 0. Returns the time to `done` in µs when the exchange is correct.
    fn socket_plain(
        &mut self,
        root: usize,
        request: Option<u64>,
        instance: &Instance,
        reference: Option<&[String]>,
    ) -> Option<f64> {
        self.clear_if_cold(instance);
        let body = instance.wire.to_json();
        let cpu_before = process_cpu_ms();
        let span = self.log.open("socket.plain", Some(root), request);
        let exchange = client::submit(self.server.net.addr(), &body, |_| {});
        self.log.close(span);
        self.plain_cpu_ms += process_cpu_ms() - cpu_before;
        match exchange
            .map_err(|e| e.to_string())
            .and_then(|x| client::check(&x, instance, reference))
        {
            Ok(timings) => {
                // What the end-to-end run would see of this request; ttfc
                // and ttg live here since they were demoted (README.md).
                if let Some(first) = timings.first_candidate_ns {
                    self.samples.push("net.ttfc_us", us(first));
                }
                if let Some((_, at)) = timings.gold {
                    self.samples.push("net.ttg_us", us(at));
                }
                Some(us(timings.done_ns))
            }
            Err(reason) => {
                self.fail(instance, reason);
                None
            }
        }
    }

    /// Step 1. Returns (time to `done`, time the program's own trace
    /// attributes), both in µs.
    fn socket_traced(
        &mut self,
        root: usize,
        request: Option<u64>,
        instance: &Instance,
        reference: Option<&[String]>,
    ) -> Option<(f64, f64)> {
        self.clear_if_cold(instance);
        let addr = self.server.net.addr();
        let body = instance.wire.to_json();
        let span = self.log.open("net.submit", Some(root), request);
        let mut previous = self.log.now_ns();
        let log = &mut self.log;
        let exchange = client::submit(addr, &body, |line| {
            let now = log.now_ns();
            log.record(line_span(line), Some(span), request, previous, now);
            previous = now;
        });
        self.log.close(span);
        let exchange = match exchange {
            Ok(exchange) => exchange,
            Err(e) => {
                self.fail(instance, format!("socket error: {e}"));
                return None;
            }
        };
        let timings = match client::check(&exchange, instance, reference) {
            Ok(timings) => timings,
            Err(reason) => {
                self.fail(instance, reason);
                return None;
            }
        };
        self.samples.push("net.accept_us", us(timings.accepted_ns));
        self.samples.push("net.done_gap_us", us(timings.done_ns - timings.last_before_done_ns));
        self.samples.push("net.bytes_per_req", exchange.wire_bytes as f64);

        // The finished request's own timeline, from the flight recorder.
        let id = exchange
            .lines
            .first()
            .and_then(|(_, line)| Json::parse(line).ok())
            .and_then(|json| json.get("id").and_then(Json::as_u64))
            .expect("a checked exchange starts with an accepted line carrying the id");
        let (fetched, fetch_us) = self.log.time("obs.trace_fetch", Some(root), request, || {
            http_request(addr, "GET", &format!("/trace/{id}"), None, TIMEOUT)
        });
        self.samples.push("obs.trace_fetch_us", fetch_us);
        // The body is the same timeline `SynthesisService::trace` holds. It
        // is read from there: the service's JSON reader re-validates the rest
        // of the document at every string character, which makes one
        // 4 096-span body cost ~380 ms to parse (see README.md, findings).
        let served = fetched
            .is_ok_and(|r| r.status == 200 && r.body.starts_with(&format!("{{\"id\":{id},")));
        let Some(trace) = self.server.service.trace(id).filter(|_| served) else {
            self.fail(instance, format!("GET /trace/{id} did not serve the retained trace"));
            return None;
        };
        let trace = read_program_trace(&trace);
        self.samples.push("obs.spans_per_req", trace.spans as f64);
        self.samples.push("obs.dropped_per_req", trace.dropped as f64);
        self.samples.push("core.scheduler.resumes_per_req", trace.resumes as f64);
        self.samples.push("core.scheduler.resume_us", trace.resume_us);

        for (path, span_name, metric) in [
            ("/metrics", "net.scrape.metrics", "net.scrape_metrics_us"),
            ("/stats", "net.scrape.stats", "net.scrape_stats_us"),
        ] {
            let (response, scrape_us) = self.log.time(span_name, Some(root), request, || {
                http_request(addr, "GET", path, None, TIMEOUT)
            });
            if response.is_ok_and(|r| r.status == 200) {
                self.samples.push(metric, scrape_us);
            } else {
                self.fail(instance, format!("GET {path} failed"));
            }
        }
        Some((us(timings.done_ns), trace.attributed_us))
    }

    /// Step 2. Returns (submit → outcome in µs, the outcome).
    fn in_process(
        &mut self,
        root: usize,
        request: Option<u64>,
        instance: &Instance,
    ) -> (f64, ServiceOutcome) {
        self.clear_if_cold(instance);
        let built = self.server.registry.build_request(&instance.wire).expect("registered");
        let service = &self.server.service;
        let (outcome, submit_us) = self.log.time("service.submit", Some(root), request, || {
            service.submit(built).expect("an idle service admits the request").wait()
        });
        self.samples.push("service.queue_wait_us", outcome.queue_wait.as_secs_f64() * 1e6);
        if let Some(ttfc) = outcome.time_to_first_candidate {
            self.samples.push("service.ttfc_us", ttfc.as_secs_f64() * 1e6);
        }
        if let Some(scheduler) = &outcome.result.stats.scheduler {
            self.samples.push(
                "core.scheduler.units_per_req",
                (scheduler.units_submitted + scheduler.units_inline) as f64,
            );
            self.samples.push("core.scheduler.queue_depth_peak", scheduler.queue_depth_peak as f64);
        }
        (submit_us, outcome)
    }

    /// Step 3. Returns (run in µs, the result) of the run on the shared
    /// database; the two count runs use the private copy.
    fn direct(
        &mut self,
        root: usize,
        request: Option<u64>,
        instance: &Instance,
    ) -> (f64, SynthesisResult) {
        self.clear_if_cold(instance);
        let shared = session(instance, &instance.db);
        let (result, run_us) =
            self.log.time("core.enumerate.run", Some(root), request, || shared.run_with(|_| true));
        let stats = &result.stats;
        let verify_us = stats.stage_timings.total().as_secs_f64() * 1e6;
        self.samples.push("core.enumerate.run_us", run_us);
        self.samples.push("core.enumerate.self_us", run_us - verify_us);
        self.verify_total_us += verify_us;
        self.run_total_us += run_us;
        self.samples.push("core.enumerate.rounds", stats.rounds as f64);
        self.samples.push("core.enumerate.expanded", stats.expanded as f64);
        self.samples.push("core.enumerate.generated", stats.generated as f64);
        self.samples.push("core.enumerate.emitted", stats.emitted as f64);
        for stage in VerifyStage::ALL {
            let (us_name, calls_name) = stage_metrics(stage);
            self.samples.push(us_name, stats.stage_timings.duration_of(stage).as_secs_f64() * 1e6);
            self.samples.push(calls_name, stats.stage_timings.calls_of(stage) as f64);
        }
        if stats.generated > 0 {
            self.samples.push(
                "core.verify.pruned_share",
                stats.total_pruned() as f64 / stats.generated as f64,
            );
        }
        let lookups = stats.cache_hits + stats.cache_misses;
        self.samples.push("db.cache.lookups_per_req", lookups as f64);
        if lookups > 0 {
            self.samples.push("db.cache.hit_share", stats.cache_hits as f64 / lookups as f64);
        }
        self.samples.push("db.executor.rows_scanned_per_req", stats.rows_scanned as f64);
        self.samples
            .push("db.executor.rows_short_circuited_per_req", stats.rows_short_circuited as f64);
        self.samples.push("db.index.lookups_per_req", stats.index_lookups as f64);
        self.samples.push("db.index.rows_via_index_per_req", stats.rows_via_index as f64);
        self.samples.push("db.index.bailed_empty_per_req", stats.probes_bailed_empty as f64);

        // Do the program's counts repeat? Twice from a cleared cache.
        let copy = self.scratch_of(&instance.db);
        let private = session(instance, &copy);
        let mut repeats = [[0u64; 5]; 2];
        for repeat in &mut repeats {
            copy.clear_probe_cache();
            let (again, _) =
                self.log.time("harness.count_run", Some(root), request, || private.run());
            *repeat = counts(&again.stats);
        }
        if repeats[0] != repeats[1] {
            if self.counts_exact {
                eprintln!(
                    "counts differ between identical runs of {}: {:?} vs {:?} \
                     (expanded, generated, emitted, rows_scanned, cache_misses)",
                    instance.wire.task, repeats[0], repeats[1]
                );
            }
            self.counts_exact = false;
        }
        (run_us, result)
    }

    /// Step 4: walk the gold query's decisions, calling each phase of a
    /// round the way `process_chunk` does, with a span per call.
    fn gold_path(&mut self, root: usize, request: Option<u64>, instance: &Instance) {
        let db: &Database = &instance.db;
        let (nlq, config) = (&instance.nlq, &instance.config);
        let span = self.log.open("goldpath", Some(root), request);
        let parent = Some(span);
        let (_, extract_us) = self.log.time("nlq.extract_literals", parent, request, || {
            extract_literals(&nlq.text, Some(db))
        });
        self.samples.push("nlq.extract_literals_us", extract_us);

        let graph = JoinGraph::new(db.schema());
        let verifier = Verifier::new(db, Some(&instance.tsq), &nlq.literals, config.semantic_rules);
        let gold = NoisyOracleGuidance::new(instance.gold.clone(), 0);
        let ctx = GuidanceContext { nlq, schema: db.schema() };
        let mut timings = StageTimings::default();
        let (mut step_us, mut children_per_step) = (Vec::new(), Vec::new());
        let (mut score_us, mut choices_scored) = (0.0, 0usize);
        let (mut join_us, mut paths_per_call) = (Vec::new(), Vec::new());
        let mut verify_us = Vec::new();

        let mut pq = PartialQuery::empty();
        // A query has a dozen decisions at most; the bound only guards
        // against a walk that stops making progress.
        for _ in 0..64 {
            let (children, next_us) =
                self.log.time("core.enumerate.next_step", parent, request, || {
                    enum_next_step(&pq, db, nlq, config)
                });
            let Some(children) = children.filter(|c| !c.is_empty()) else { break };
            step_us.push(next_us);
            children_per_step.push(children.len() as f64);
            let (choices, child_pqs): (Vec<Choice>, Vec<PartialQuery>) =
                children.into_iter().unzip();
            let (raw, scored_us) = self
                .log
                .time("nlq.score", parent, request, || instance.model.score(&ctx, &choices));
            score_us += scored_us;
            choices_scored += choices.len();
            let scores = normalize_scores(&raw);

            // (on the gold path, score, child) of the best surviving child.
            let mut best: Option<(bool, f64, PartialQuery)> = None;
            for ((choice, child), score) in choices.iter().zip(child_pqs).zip(scores) {
                let mut verify = |log: &mut SpanLog, pq: &PartialQuery| {
                    let (outcome, call_us) = log.time("core.verify.call", parent, request, || {
                        verifier.verify_timed(pq, &mut timings)
                    });
                    verify_us.push(call_us);
                    outcome.passed()
                };
                if !child.is_complete() && !verify(&mut self.log, &child) {
                    continue;
                }
                let referenced = child.referenced_columns();
                let covered = child
                    .join
                    .as_ref()
                    .is_some_and(|join| referenced.iter().all(|c| join.contains(c.table)));
                let variants = if child.select.is_hole() || covered {
                    vec![child]
                } else {
                    let (paths, construct_us) =
                        self.log.time("core.joinpath.construct", parent, request, || {
                            construct_join_paths(
                                db,
                                &graph,
                                &child,
                                child.join.as_ref(),
                                config.join_extension_depth,
                            )
                        });
                    join_us.push(construct_us);
                    paths_per_call.push(paths.len() as f64);
                    paths
                        .into_iter()
                        .map(|join| PartialQuery { join: Some(join), ..child.clone() })
                        .collect()
                };
                let on_gold_path = gold.consistent(choice);
                for variant in variants {
                    if !verify(&mut self.log, &variant) {
                        continue;
                    }
                    let better = best.as_ref().is_none_or(|(best_gold, best_score, _)| {
                        (on_gold_path, score) > (*best_gold, *best_score)
                    });
                    if better {
                        best = Some((on_gold_path, score, variant));
                    }
                }
            }
            match best {
                Some((_, _, next)) => pq = next,
                None => break,
            }
        }
        self.log.close(span);

        for (metric, values) in [
            ("core.enumerate.next_step_us", &step_us),
            ("core.enumerate.children_per_step", &children_per_step),
            ("core.joinpath.construct_us", &join_us),
            ("core.joinpath.paths_per_call", &paths_per_call),
            ("core.verify.call_us", &verify_us),
        ] {
            if let Some(mean) = mean(values) {
                self.samples.push(metric, mean);
            }
        }
        self.samples.push("nlq.choices_per_req", choices_scored as f64);
        if choices_scored > 0 {
            self.samples.push("nlq.score_us_per_choice", score_us / choices_scored as f64);
        }
    }

    /// Step 5: the request's probe set — the gold query, every emitted
    /// candidate and a hit and a miss per column — through the executor and
    /// through the probe cache (cold, then warm, on the private copy).
    fn replay(
        &mut self,
        root: usize,
        request: Option<u64>,
        instance: &Instance,
        result: &SynthesisResult,
    ) {
        let span = self.log.open("db.replay", Some(root), request);
        let parent = Some(span);
        let mut probes = vec![instance.gold.clone()];
        probes.extend(result.candidates.iter().map(|c| c.spec.clone()));
        probes.extend(column_probes(&instance.db));

        let db: &Database = &instance.db;
        let (mut exec_us, mut rows) = (Vec::new(), Vec::new());
        for spec in &probes {
            let (outcome, probe_us) =
                self.log.time("db.executor.execute_with", parent, request, || {
                    execute_with(db, spec, &db.exec_options())
                });
            if let Ok(outcome) = outcome {
                exec_us.push(probe_us);
                rows.push(outcome.metrics.rows_scanned as f64);
            }
        }
        let copy = self.scratch_of(&instance.db);
        copy.clear_probe_cache();
        for (span_name, metric) in
            [("db.cache.miss", "db.cache.miss_us"), ("db.cache.hit", "db.cache.hit_us")]
        {
            let mut lookup_us = Vec::new();
            for spec in &probes {
                let (found, probe_us) =
                    self.log.time(span_name, parent, request, || copy.execute_cached(spec));
                if found.is_ok() {
                    lookup_us.push(probe_us);
                }
            }
            if let Some(mean) = mean(&lookup_us) {
                self.samples.push(metric, mean);
            }
        }
        self.log.close(span);
        if let (Some(exec_us), Some(rows)) = (mean(&exec_us), mean(&rows)) {
            self.samples.push("db.executor.us_per_probe", exec_us);
            self.samples.push("db.executor.rows_per_probe", rows);
        }
    }

    /// Step 6: the request's own bytes through the `net` framing and JSON
    /// codecs, and its candidates through the `sql` renderer, parser and
    /// equivalence check.
    fn codecs(
        &mut self,
        root: usize,
        request: Option<u64>,
        instance: &Instance,
        result: &SynthesisResult,
        outcome: &ServiceOutcome,
    ) {
        let span = self.log.open("codec", Some(root), request);
        let parent = Some(span);
        let schema = instance.db.schema();
        let candidates = emitted_in_order(result);

        let (decoded, net_us) = self.log.time("net.codec", parent, request, || {
            let body = instance.wire.to_json();
            let frame = SubmitWire::parse(&body).expect("own frame parses");
            let mut response = Vec::new();
            http::write_chunked_head(&mut response, "application/x-ndjson").expect("Vec write");
            http::write_chunk(&mut response, &wire::accepted_line(0)).expect("Vec write");
            for (i, candidate) in candidates.iter().enumerate() {
                let line = wire::candidate_line(i, candidate, schema);
                http::write_chunk(&mut response, &line).expect("Vec write");
            }
            let done = wire::done_line(0, outcome, candidates.len(), false);
            http::write_chunk(&mut response, &done).expect("Vec write");
            http::write_chunk_end(&mut response).expect("Vec write");
            let mut decoder = ResponseDecoder::new();
            decoder.feed(&response);
            let lines = decoder.take_lines();
            let parsed = lines.iter().filter(|line| Json::parse(line).is_ok()).count();
            (frame.task == instance.wire.task && decoder.is_done()).then_some(parsed)
        });
        self.samples.push("net.codec_us_per_req", net_us);
        if decoded != Some(candidates.len() + 2) {
            self.fail(instance, format!("codec round trip decoded {decoded:?} lines"));
        }

        let (mut render_us, mut parse_us, mut equiv_us) = (Vec::new(), Vec::new(), Vec::new());
        for candidate in &candidates {
            let (sql, rendered_us) = self
                .log
                .time("sql.render", parent, request, || render_sql(&candidate.spec, schema));
            render_us.push(rendered_us);
            let (parsed, parsed_us) =
                self.log.time("sql.parse", parent, request, || parse_query(schema, &sql));
            parse_us.push(parsed_us);
            let Ok(parsed) = parsed else {
                self.fail(instance, format!("rendered candidate does not parse: {sql}"));
                continue;
            };
            let (_, compared_us) = self
                .log
                .time("sql.equiv", parent, request, || queries_equivalent(&parsed, &instance.gold));
            equiv_us.push(compared_us);
        }
        self.log.close(span);
        for (metric, values) in [
            ("sql.render_us_per_candidate", &render_us),
            ("sql.parse_us_per_candidate", &parse_us),
            ("sql.equiv_us_per_pair", &equiv_us),
        ] {
            if let Some(mean) = mean(values) {
                self.samples.push(metric, mean);
            }
        }
    }
}

fn stage_metrics(stage: VerifyStage) -> (&'static str, &'static str) {
    match stage {
        VerifyStage::Clauses => ("core.verify.clauses_us", "core.verify.clauses_calls"),
        VerifyStage::Semantics => ("core.verify.semantics_us", "core.verify.semantics_calls"),
        VerifyStage::ColumnTypes => ("core.verify.types_us", "core.verify.types_calls"),
        VerifyStage::ByColumn => ("core.verify.by_column_us", "core.verify.by_column_calls"),
        VerifyStage::ByRow => ("core.verify.by_row_us", "core.verify.by_row_calls"),
        VerifyStage::Literals => ("core.verify.literals_us", "core.verify.literals_calls"),
        VerifyStage::ByOrder => ("core.verify.by_order_us", "core.verify.by_order_calls"),
    }
}

/// Sum of one per-class counter over the three classes of a `/stats` body.
fn class_total(stats: &Json, counter: &str) -> f64 {
    let Some(Json::Object(classes)) = stats.get("service").and_then(|s| s.get("classes")) else {
        return 0.0;
    };
    classes.iter().filter_map(|(_, class)| class.get(counter).and_then(Json::as_f64)).sum()
}

/// Trace every instance of the pass once. The set of requests is the same on
/// every seed, machine and commit, so `opts.seconds` cuts nothing here.
pub fn run(workload: &Workload, opts: &Options) -> (Outcome, SpanLog) {
    let (instances, server, _) = set_up(workload, opts, 1);
    let mut sound = true;
    let reference = if workload.byte_identical {
        let reference = reference_pass(&server, &instances, workload.clients);
        sound &= reference.is_ok();
        reference.ok()
    } else {
        None
    };

    let mut tracer = Tracer {
        workload,
        server: &server,
        scratch: Vec::new(),
        log: SpanLog::new(),
        samples: Samples::default(),
        counts_exact: true,
        failed: 0,
        verify_total_us: 0.0,
        run_total_us: 0.0,
        plain_cpu_ms: 0.0,
    };
    // A private, re-indexed copy of each database: times `rebuild_index` and
    // gives the count runs and the cold cache replay a cache they may clear.
    for db in distinct_databases(&instances) {
        let mut copy = Database::clone(&db);
        let (_, rebuild_us) =
            tracer.log.time("db.index.rebuild", None, None, || copy.rebuild_index());
        tracer.samples.push("db.index.rebuild_us", rebuild_us);
        tracer.scratch.push((db, Arc::new(copy)));
    }

    let started = Instant::now();
    for (i, instance) in instances.iter().enumerate() {
        let reference = reference.as_ref().map(|r| r[i].as_slice());
        tracer.request(i as u64, instance, reference);
    }
    let attempted = instances.len();

    let stats = Json::parse(server.net.stats_json().trim()).expect("/stats body parses");
    let Tracer {
        scratch,
        log,
        samples,
        counts_exact,
        failed,
        verify_total_us,
        run_total_us,
        plain_cpu_ms,
        ..
    } = tracer;
    let cache: Vec<_> = scratch.iter().map(|(db, _)| db.cache_stats()).collect();
    let plain = samples.median("net.ttd_us");
    let overhead =
        if plain > 0.0 { (samples.median("socket.traced_ttd_us") - plain) / plain } else { 0.0 };

    let values = crate::metrics::PER_LAYER
        .iter()
        .map(|decl| {
            let value = match decl.name {
                "service.completed" => class_total(&stats, "completed"),
                "service.shed" => class_total(&stats, "shed"),
                "service.expired" => class_total(&stats, "expired"),
                "db.cache.bytes" => cache.iter().map(|c| c.bytes as f64).sum(),
                "db.cache.single_flight_hits" => {
                    cache.iter().map(|c| c.single_flight_hits as f64).sum()
                }
                "obs.traced_run_overhead_share" => overhead,
                "net.ttd_p95_us" => samples.percentile("net.ttd_us", 95.0),
                "process.cpu_ms_per_req" => plain_cpu_ms / attempted.max(1) as f64,
                "core.verify.time_share" if run_total_us > 0.0 => verify_total_us / run_total_us,
                "harness.counts_exact" => f64::from(u8::from(counts_exact)),
                "harness.traced_requests" => attempted as f64,
                name => samples.median(name),
            };
            (decl.name, value)
        })
        .collect();
    println!(
        "{}: seed {}, traced {attempted} instances in {:.2} s, {} harness spans",
        workload.name,
        opts.seed,
        started.elapsed().as_secs_f64(),
        log.spans.len(),
    );
    println!("  counts repeat exactly: {counts_exact}");
    println!("  harness spans by self time, per traced request:");
    println!("  {:<28} {:>10} {:>14} {:>14}", "span", "calls", "total us", "self us");
    for (name, calls, total_ns, self_ns) in log.by_name() {
        let per_request = |n: u64| n as f64 / 1e3 / attempted.max(1) as f64;
        println!(
            "  {name:<28} {:>10.1} {:>14.1} {:>14.1}",
            calls as f64 / attempted.max(1) as f64,
            per_request(total_ns),
            per_request(self_ns),
        );
    }
    (Outcome { attempted, failed, sound, values }, log)
}
