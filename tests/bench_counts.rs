//! The benchmark's counts, committed: `BENCH_counts.json`.
//!
//! Counts are deterministic, so they need no stopwatch. This test runs the
//! request sets of the four `bench_report` workloads (`BENCHMARK.json`) in
//! process and inline, built from the generators `crates/workloads` exports
//! exactly as `crates/bench/src/bin/bench_report/workload.rs` builds them at
//! seed 7, in the harness's submission order. `mas_cold` clears the probe
//! cache before every request, as the harness does; the other three share
//! one cache per database across their requests, cleared once before the
//! workload starts.
//!
//! Per workload it records the requests; the sums of `generated`,
//! `expanded`, each verify stage's calls and prunes, cache lookups and
//! misses, rows scanned and index lookups; the largest `frontier_peak`;
//! the candidates emitted; and a 64-bit FNV-1a digest of the emission
//! sequence (every emitted spec's exact `encode_spec` bytes followed by its
//! confidence's bits). The rendering must equal the committed file byte for
//! byte. `BENCH_COUNTS_WRITE=1 cargo test --test bench_counts` rewrites it;
//! a change that moves a count says why in `CHANGES.md`, and `git log -p
//! BENCH_counts.json` is the counts' history.
//!
//! One cut keeps the test within 10 s in a debug build: `spider_full` runs
//! every fourth request of its shuffled pass (the harness's paper-sized
//! budgets, 25 candidates / 2 500 expansions, cost ≈ 10 ms a request in a
//! release build). The other three workloads run whole.

use duoquest::core::verify::VerifyStage;
use duoquest::core::{Duoquest, DuoquestConfig, TableSketchQuery};
use duoquest::db::encode::encode_spec;
use duoquest::db::Database;
use duoquest::nlq::{GuidanceModel, HeuristicGuidance, Nlq, NoisyOracleGuidance};
use duoquest::obs::escape_json;
use duoquest::workloads::{mas, mas_nli_tasks, mas_pbe_tasks, spider, synthesize_tsq, TsqDetail};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// `bench_report`'s corpus seed and example tuples per sketch.
const CORPUS_SEED: u64 = 42;
const TSQ_TUPLES: usize = 2;
/// The seed the harness's traced pass runs at: every request's example
/// tuples, oracle noise and the submission order.
const SEED: u64 = 7;
/// `spider_full` keeps every this many requests of its shuffled pass.
const SPIDER_FULL_STRIDE: usize = 4;

/// The harness's SplitMix64 (`bench_report/stats.rs`).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn mix(seed: u64, index: usize) -> u64 {
    SplitMix64(seed ^ ((index as u64) << 32)).next_u64()
}

/// One request, as the harness's `Instance` holds it.
struct Request {
    db: Arc<Database>,
    nlq: Nlq,
    tsq: TableSketchQuery,
    model: Arc<dyn GuidanceModel>,
    config: DuoquestConfig,
}

fn config(max_candidates: usize, max_expansions: usize) -> DuoquestConfig {
    DuoquestConfig { max_candidates, max_expansions, time_budget: None, ..Default::default() }
}

fn spider_requests(
    stride: usize,
    detail: TsqDetail,
    oracle: bool,
    max_candidates: usize,
    max_expansions: usize,
) -> Vec<Request> {
    let dataset = spider::generate("dev", 6, 60, 63, 25, CORPUS_SEED);
    let mut requests: Vec<Request> = (dataset.tasks.iter().enumerate().step_by(stride))
        .map(|(i, task)| {
            let db = dataset.database(task);
            let task_seed = mix(SEED, i);
            let (gold, tsq) = synthesize_tsq(db, &task.gold, detail, TSQ_TUPLES, task_seed);
            let model: Arc<dyn GuidanceModel> = if oracle {
                Arc::new(NoisyOracleGuidance::new(gold, task_seed))
            } else {
                Arc::new(HeuristicGuidance::new())
            };
            Request {
                db: Arc::clone(db),
                nlq: task.nlq.clone(),
                tsq,
                model,
                config: config(max_candidates, max_expansions),
            }
        })
        .collect();
    SplitMix64(SEED).shuffle(&mut requests);
    requests
}

fn mas_requests() -> Vec<Request> {
    let dataset = mas::generate(CORPUS_SEED, 8.0);
    let mut tasks = mas_nli_tasks(&dataset);
    tasks.extend(mas_pbe_tasks(&dataset));
    let mut requests = Vec::new();
    for variant in 0..3 {
        for (i, task) in tasks.iter().enumerate() {
            let task_seed = mix(CORPUS_SEED, variant * tasks.len() + i);
            let (gold, tsq) =
                synthesize_tsq(&dataset.db, &task.gold, TsqDetail::Full, TSQ_TUPLES, task_seed);
            requests.push(Request {
                db: Arc::clone(&dataset.db),
                nlq: task.nlq.clone(),
                tsq,
                model: Arc::new(NoisyOracleGuidance::new(gold, task_seed)),
                config: config(10, 200),
            });
        }
    }
    SplitMix64(SEED).shuffle(&mut requests);
    requests
}

/// What one workload's requests counted, summed over them.
#[derive(Default)]
struct Counts {
    requests: usize,
    generated: usize,
    expanded: usize,
    calls: [u64; VerifyStage::COUNT],
    pruned: [usize; VerifyStage::COUNT],
    cache_lookups: u64,
    cache_misses: u64,
    rows_scanned: u64,
    index_lookups: u64,
    frontier_peak_max: usize,
    emitted: usize,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Run `requests` inline, one after the other, clearing the probe cache
/// before each one when `cold`, and sum what they counted.
fn count(requests: &[Request], cold: bool) -> Counts {
    let mut counts = Counts { digest: FNV_OFFSET, ..Default::default() };
    let mut cleared: Vec<&Arc<Database>> = Vec::new();
    let mut bytes = Vec::new();
    for request in requests {
        if cold || !cleared.iter().any(|db| Arc::ptr_eq(db, &request.db)) {
            request.db.clear_probe_cache();
            cleared.push(&request.db);
        }
        let session = Duoquest::new(request.config.clone())
            .session(Arc::clone(&request.db), request.nlq.clone(), Arc::clone(&request.model))
            .with_tsq(request.tsq.clone());
        let mut digest = counts.digest;
        let result = session.run_with(|candidate| {
            bytes.clear();
            encode_spec(&mut bytes, &candidate.spec);
            bytes.extend_from_slice(&candidate.confidence.to_bits().to_le_bytes());
            digest = fnv1a(digest, &bytes);
            true
        });
        counts.digest = digest;
        let s = &result.stats;
        counts.requests += 1;
        counts.generated += s.generated;
        counts.expanded += s.expanded;
        for stage in VerifyStage::ALL {
            counts.calls[stage.index()] += s.stage_timings.calls_of(stage);
        }
        let pruned = [
            s.pruned_clauses,
            s.pruned_semantics,
            s.pruned_types,
            s.pruned_by_column,
            s.pruned_by_row,
            s.pruned_literals,
            s.pruned_by_order,
        ];
        for (sum, n) in counts.pruned.iter_mut().zip(pruned) {
            *sum += n;
        }
        counts.cache_lookups += s.cache_hits + s.cache_misses;
        counts.cache_misses += s.cache_misses;
        counts.rows_scanned += s.rows_scanned;
        counts.index_lookups += s.index_lookups;
        counts.frontier_peak_max = counts.frontier_peak_max.max(s.frontier_peak);
        counts.emitted += s.emitted;
    }
    counts
}

/// One workload's counts as a JSON object, one field a line.
fn render(name: &str, c: &Counts, out: &mut String) {
    let stages = |values: &mut dyn Iterator<Item = u64>| {
        let fields: Vec<String> = (VerifyStage::ALL.iter().zip(values))
            .map(|(stage, n)| format!("{}: {n}", escape_json(stage.label())))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let fields = [
        ("requests", c.requests.to_string()),
        ("generated", c.generated.to_string()),
        ("expanded", c.expanded.to_string()),
        ("verify_calls", stages(&mut c.calls.iter().copied())),
        ("pruned", stages(&mut c.pruned.iter().map(|&n| n as u64))),
        ("cache_lookups", c.cache_lookups.to_string()),
        ("cache_misses", c.cache_misses.to_string()),
        ("rows_scanned", c.rows_scanned.to_string()),
        ("index_lookups", c.index_lookups.to_string()),
        ("frontier_peak_max", c.frontier_peak_max.to_string()),
        ("emitted", c.emitted.to_string()),
        ("emission_digest", escape_json(&format!("{:016x}", c.digest))),
    ];
    let _ = writeln!(out, "  {}: {{", escape_json(name));
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        let _ = writeln!(out, "    {}: {value}{comma}", escape_json(key));
    }
    out.push_str("  }");
}

#[test]
fn the_benchmark_counts_equal_the_committed_file() {
    let spider_full = spider_requests(2, TsqDetail::Full, true, 25, 2500);
    let workloads: [(&str, Vec<Request>, bool); 4] = [
        ("spider_full", spider_full.into_iter().step_by(SPIDER_FULL_STRIDE).collect(), false),
        ("nlq_heuristic", spider_requests(4, TsqDetail::Minimal, false, 10, 100), false),
        ("mas_cold", mas_requests(), true),
        ("edge_tiny", spider_requests(1, TsqDetail::Full, true, 1, 40), false),
    ];
    let mut rendered = String::from("{\n");
    for (i, (name, requests, cold)) in workloads.iter().enumerate() {
        if i > 0 {
            rendered.push_str(",\n");
        }
        render(name, &count(requests, *cold), &mut rendered);
    }
    rendered.push_str("\n}\n");
    println!("{rendered}");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_counts.json");
    if std::env::var_os("BENCH_COUNTS_WRITE").is_some_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("writing BENCH_counts.json");
        return;
    }
    let committed = std::fs::read_to_string(&path).expect("BENCH_counts.json is committed");
    if committed != rendered {
        for (old, new) in committed.lines().zip(rendered.lines()) {
            if old != new {
                println!("- {old}\n+ {new}");
            }
        }
        panic!(
            "the counts differ from BENCH_counts.json (diff above); if the change is \
             intended, rerun with BENCH_COUNTS_WRITE=1 and say why in CHANGES.md"
        );
    }
}
