//! The benchmark's declaration: every metric's name, unit, direction and
//! regression bound. `BENCHMARK.json` at the repository root says the same
//! for the driver; a unit test holds the two equal field by field.

/// How long one run measures unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees, measured with client-side clocks and no
/// tracing (`--trace 0`).
pub const END_TO_END: [Decl; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ttd_ms_p50", "ms", Better::Lower, 0.25),
    e2e("req_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
    e2e("gold_top1_share", "share", Better::Higher, 0.15),
    e2e("gold_top10_share", "share", Better::Higher, 0.15),
];

/// Single-layer metrics from the traced run (`--trace 1`), layer by layer in
/// the repository's module names.
pub const PER_LAYER: [Decl; 76] = [
    lower("net.ttfc_us", "us"),
    lower("net.ttg_us", "us"),
    lower("net.ttd_us", "us"),
    lower("net.ttd_p95_us", "us"),
    lower("process.cpu_ms_per_req", "ms"),
    lower("net.accept_us", "us"),
    lower("net.done_gap_us", "us"),
    lower("net.overhead_us", "us"),
    lower("net.codec_us_per_req", "us"),
    lower("net.bytes_per_req", "bytes"),
    lower("net.scrape_metrics_us", "us"),
    lower("net.scrape_stats_us", "us"),
    lower("service.queue_wait_us", "us"),
    lower("service.ttfc_us", "us"),
    lower("service.overhead_us", "us"),
    higher("service.completed", "count"),
    lower("service.shed", "count"),
    lower("service.expired", "count"),
    lower("core.scheduler.units_per_req", "count"),
    lower("core.scheduler.queue_depth_peak", "count"),
    lower("core.scheduler.resumes_per_req", "count"),
    lower("core.scheduler.resume_us", "us"),
    lower("core.enumerate.run_us", "us"),
    lower("core.enumerate.self_us", "us"),
    lower("core.enumerate.rounds", "count"),
    lower("core.enumerate.expanded", "count"),
    lower("core.enumerate.generated", "count"),
    higher("core.enumerate.emitted", "count"),
    lower("core.enumerate.next_step_us", "us"),
    lower("core.enumerate.children_per_step", "count"),
    lower("core.joinpath.construct_us", "us"),
    lower("core.joinpath.paths_per_call", "count"),
    lower("core.verify.clauses_us", "us"),
    lower("core.verify.clauses_calls", "count"),
    lower("core.verify.semantics_us", "us"),
    lower("core.verify.semantics_calls", "count"),
    lower("core.verify.types_us", "us"),
    lower("core.verify.types_calls", "count"),
    lower("core.verify.by_column_us", "us"),
    lower("core.verify.by_column_calls", "count"),
    lower("core.verify.by_row_us", "us"),
    lower("core.verify.by_row_calls", "count"),
    lower("core.verify.literals_us", "us"),
    lower("core.verify.literals_calls", "count"),
    lower("core.verify.by_order_us", "us"),
    lower("core.verify.by_order_calls", "count"),
    higher("core.verify.pruned_share", "share"),
    lower("core.verify.time_share", "share"),
    lower("core.verify.call_us", "us"),
    lower("nlq.score_us_per_choice", "us"),
    lower("nlq.choices_per_req", "count"),
    lower("nlq.extract_literals_us", "us"),
    lower("sql.render_us_per_candidate", "us"),
    lower("sql.parse_us_per_candidate", "us"),
    lower("sql.equiv_us_per_pair", "us"),
    lower("db.cache.lookups_per_req", "count"),
    higher("db.cache.hit_share", "share"),
    higher("db.cache.single_flight_hits", "count"),
    lower("db.cache.bytes", "bytes"),
    lower("db.cache.hit_us", "us"),
    lower("db.cache.miss_us", "us"),
    lower("db.executor.us_per_probe", "us"),
    lower("db.executor.rows_scanned_per_req", "count"),
    higher("db.executor.rows_short_circuited_per_req", "count"),
    lower("db.executor.rows_per_probe", "count"),
    lower("db.index.lookups_per_req", "count"),
    lower("db.index.rows_via_index_per_req", "count"),
    higher("db.index.bailed_empty_per_req", "count"),
    lower("db.index.rebuild_us", "us"),
    lower("obs.spans_per_req", "count"),
    lower("obs.dropped_per_req", "count"),
    lower("obs.trace_fetch_us", "us"),
    lower("obs.traced_run_overhead_share", "share"),
    lower("budget.unattributed_share", "share"),
    higher("harness.counts_exact", "count"),
    higher("harness.traced_requests", "count"),
];

/// Names are bounded by the driver's contract: a name starts with a letter
/// or digit and is at most 64 letters, digits, `_`, `.`, `-`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit is at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
#[cfg(test)]
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The result of one run of one workload: the object printed as the last
/// line of standard output.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Structural checks beyond per-request failures (scrapes answered, the
    /// reference pass completed …).
    pub sound: bool,
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.sound && self.failed == 0
    }

    /// Render against the table the run mode declares. Panics when a declared
    /// metric is missing, not finite or reported twice, or an undeclared one
    /// is present: each is a bug in the harness, not a measurement.
    pub fn to_json(&self, decls: &[Decl]) -> String {
        assert_eq!(self.values.len(), decls.len(), "one value per declared metric");
        let metrics = decls
            .iter()
            .map(|d| {
                let mut found = self.values.iter().filter(|(name, _)| *name == d.name);
                let (_, value) = found.next().unwrap_or_else(|| panic!("{} not measured", d.name));
                assert!(found.next().is_none(), "{} measured twice", d.name);
                assert!(value.is_finite(), "{} is {value}", d.name);
                format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit)
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use duoquest_service::json::Json;

    #[test]
    fn names_and_units_follow_the_contract() {
        for good in ["setup_s", "db.cache.hit_us", "9lives", "a-b.c_d", &"x".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "-x", "has space", "ttd/ms", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "MiB", "%", "req/s.core-1"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declarations_are_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_unit(d.unit), "{}", d.unit);
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the widest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.clients <= 2, "never more client threads than cores");
            assert!(!w.cold || w.clients == 1, "clearing one cache under two clients");
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_declares_what_the_tables_do() {
        let text = include_str!("../../../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let Json::Object(members) = &json else { panic!("top level is an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(json.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));

        let items = |key: &str| match json.get(key) {
            Some(Json::Array(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key).and_then(Json::as_str).expect("a string member").to_string()
        };
        let names: Vec<String> = items("workloads").iter().map(|w| text_of(w, "name")).collect();
        assert!(WORKLOADS.iter().map(|w| w.name).eq(names.iter().map(String::as_str)));
        for w in items("workloads") {
            let why = text_of(&w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared: Vec<_> = items(key)
                .iter()
                .map(|m| {
                    let better = match text_of(m, "better").as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => panic!("better: {other}"),
                    };
                    let bound = m.get("bound").and_then(Json::as_f64);
                    (text_of(m, "name"), text_of(m, "unit"), better, bound)
                })
                .collect();
            let table: Vec<_> = table
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better, d.bound))
                .collect();
            assert_eq!(declared, table, "{key}");
        }
    }

    #[test]
    fn outcome_round_trips_through_the_service_json_reader() {
        let decls = [END_TO_END[0], END_TO_END[2]];
        let outcome = Outcome {
            attempted: 296,
            failed: 0,
            sound: true,
            values: vec![("req_per_s", 28.734_501_2), ("setup_s", 0.012_345_678_9)],
        };
        let json = Json::parse(&outcome.to_json(&decls)).expect("result line parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_u64), Some(296));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = json.get("metrics").expect("metrics object");
        let setup = metrics.get("setup_s").expect("setup_s reported");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.012_345_678_9));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let rate = metrics.get("req_per_s").expect("req_per_s reported");
        assert_eq!(rate.get("value").and_then(Json::as_f64), Some(28.734_501_2));
        assert_eq!(rate.get("unit").and_then(Json::as_str), Some("1/s"));

        let failed = Outcome { attempted: 3, failed: 1, sound: true, values: outcome.values };
        assert!(!failed.correct());
    }
}
