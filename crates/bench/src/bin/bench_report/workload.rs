//! The four workloads: what each one submits, and the server it submits to.
//!
//! The corpus — schemas, rows, gold queries and NLQs — comes from a constant
//! seed; `--seed` chooses every request's example tuples, the oracle's noise
//! and the submission order. Regenerating the corpus per seed moved
//! `ttd_ms_p50` by ±12 % and `ttd_ms_p95` by ±30 % between seeds (six
//! databases are too few to average schema shape out), wider than any
//! regression bound, so corpus shape is held constant (see README.md).

use crate::stats::SplitMix64;
use duoquest_core::{DuoquestConfig, TableSketchQuery};
use duoquest_db::{Database, SelectSpec};
use duoquest_net::wire::SubmitWire;
use duoquest_net::{NetConfig, NetServer, TaskRegistry, TaskSpec};
use duoquest_nlq::{GuidanceModel, HeuristicGuidance, Nlq, NoisyOracleGuidance};
use duoquest_service::{PriorityClass, ServiceConfig, SynthesisService};
use duoquest_workloads::{mas, mas_nli_tasks, mas_pbe_tasks, spider, synthesize_tsq, TsqDetail};
use std::sync::Arc;

/// Seed of the corpus every workload draws from.
const CORPUS_SEED: u64 = 42;
/// Example tuples per synthesized TSQ (the paper's §5.4.1 setting).
const TSQ_TUPLES: usize = 2;
/// Distinct example-tuple draws per MAS task in one pass: 14 tasks alone put
/// the tail percentiles on a step between two task classes.
const MAS_VARIANTS: usize = 3;

/// Static description of one workload.
pub struct Workload {
    pub name: &'static str,
    /// Closed-loop client threads (never more than the box's two cores).
    pub clients: usize,
    /// Clear the database's probe cache before every submit, outside every
    /// timed interval. Takes `clients == 1`.
    pub cold: bool,
    /// Emission is a pure function of the request, so every candidate line
    /// must equal the in-process reference byte for byte. Not so on MAS:
    /// `JoinGraph::steiner_tree` breaks ties by `HashSet` iteration order.
    pub byte_identical: bool,
    /// After every this many requests a client also reads `/metrics` and
    /// `/stats` (0 = never).
    pub scrape_every: usize,
    build: fn(seed: u64) -> Vec<Instance>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "spider_full",
        clients: 2,
        cold: false,
        byte_identical: true,
        scrape_every: 0,
        build: |seed| {
            spider_instances("spider_full", seed, 2, TsqDetail::Full, true, 25, 2500, false)
        },
    },
    Workload {
        name: "nlq_heuristic",
        clients: 2,
        cold: false,
        byte_identical: true,
        scrape_every: 0,
        build: |seed| {
            spider_instances("nlq_heuristic", seed, 4, TsqDetail::Minimal, false, 10, 100, false)
        },
    },
    Workload {
        name: "mas_cold",
        clients: 1,
        cold: true,
        byte_identical: false,
        scrape_every: 0,
        build: mas_instances,
    },
    Workload {
        name: "edge_tiny",
        clients: 2,
        cold: false,
        byte_identical: true,
        scrape_every: 50,
        build: |seed| spider_instances("edge_tiny", seed, 1, TsqDetail::Full, true, 1, 40, true),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// One pass of this workload for `seed`, in submission order. `limit`
    /// keeps only the first so many instances (smoke runs).
    pub fn instances(&self, seed: u64, limit: Option<usize>) -> Vec<Instance> {
        let mut instances = (self.build)(seed);
        SplitMix64(seed).shuffle(&mut instances);
        instances.truncate(limit.unwrap_or(usize::MAX));
        instances
    }
}

/// One distinct request: a registered task and everything needed to run it
/// without the server.
#[derive(Clone)]
pub struct Instance {
    pub wire: SubmitWire,
    pub db: Arc<Database>,
    pub nlq: Nlq,
    /// Canonicalized gold query.
    pub gold: SelectSpec,
    pub tsq: TableSketchQuery,
    pub model: Arc<dyn GuidanceModel>,
    pub config: DuoquestConfig,
}

/// Per-instance seed: decorrelates neighbouring `--seed`s and indexes.
fn mix(seed: u64, index: usize) -> u64 {
    SplitMix64(seed ^ ((index as u64) << 32)).next_u64()
}

fn config(max_candidates: usize, max_expansions: usize) -> DuoquestConfig {
    // No wall-clock budget: it is the one documented source of
    // non-deterministic emission.
    DuoquestConfig { max_candidates, max_expansions, time_budget: None, ..Default::default() }
}

#[allow(clippy::too_many_arguments)]
fn spider_instances(
    prefix: &str,
    seed: u64,
    stride: usize,
    detail: TsqDetail,
    oracle: bool,
    max_candidates: usize,
    max_expansions: usize,
    rotate_priority: bool,
) -> Vec<Instance> {
    let dataset = spider::generate("dev", 6, 60, 63, 25, CORPUS_SEED);
    dataset
        .tasks
        .iter()
        .enumerate()
        .step_by(stride)
        .map(|(i, task)| {
            let db = dataset.database(task);
            let task_seed = mix(seed, i);
            let (gold, tsq) = synthesize_tsq(db, &task.gold, detail, TSQ_TUPLES, task_seed);
            let model: Arc<dyn GuidanceModel> = if oracle {
                Arc::new(NoisyOracleGuidance::new(gold.clone(), task_seed))
            } else {
                Arc::new(HeuristicGuidance::new())
            };
            let mut wire = SubmitWire::task(format!("{prefix}-{i:03}"));
            if rotate_priority {
                wire.priority = Some(PriorityClass::ALL[i % PriorityClass::ALL.len()]);
            }
            Instance {
                wire,
                db: Arc::clone(db),
                nlq: task.nlq.clone(),
                gold,
                tsq,
                model,
                config: config(max_candidates, max_expansions),
            }
        })
        .collect()
}

fn mas_instances(_seed: u64) -> Vec<Instance> {
    let dataset = mas::generate(CORPUS_SEED, 8.0);
    let mut tasks = mas_nli_tasks(&dataset);
    tasks.extend(mas_pbe_tasks(&dataset));
    let mut instances = Vec::with_capacity(tasks.len() * MAS_VARIANTS);
    for variant in 0..MAS_VARIANTS {
        for (i, task) in tasks.iter().enumerate() {
            // Not from `--seed`: about one oracle draw in 500 sends a MAS
            // request through 200 expansions of million-row probes (1.4 s
            // and 100 MiB against a 30 ms median), and a pass of 42 cannot
            // average that out. Here the seed shuffles the order only.
            let task_seed = mix(CORPUS_SEED, variant * tasks.len() + i);
            let (gold, tsq) =
                synthesize_tsq(&dataset.db, &task.gold, TsqDetail::Full, TSQ_TUPLES, task_seed);
            instances.push(Instance {
                wire: SubmitWire::task(format!("mas_cold-{variant}-{}", task.id)),
                db: Arc::clone(&dataset.db),
                nlq: task.nlq.clone(),
                model: Arc::new(NoisyOracleGuidance::new(gold.clone(), task_seed)),
                gold,
                tsq,
                // The paper-sized budgets (25 / 2 500) leave single cold
                // requests of 2–20 s on some example tuples; a 20 s run
                // cannot hold a percentile steady over those.
                config: config(10, 200),
            });
        }
    }
    instances
}

/// The system under test: a `NetServer` over a `SynthesisService`, shipped
/// defaults except the worker count, which is pinned so numbers do not
/// depend on `nproc`.
pub struct Server {
    pub net: NetServer,
    pub service: Arc<SynthesisService>,
    /// The catalog the front serves, kept to build identical in-process
    /// requests.
    pub registry: TaskRegistry,
}

pub fn serve(instances: &[Instance]) -> Server {
    let mut registry = TaskRegistry::new();
    for instance in instances {
        registry.register(
            instance.wire.task.clone(),
            TaskSpec {
                db: Arc::clone(&instance.db),
                nlq: instance.nlq.clone(),
                model: Arc::clone(&instance.model),
                tsq: Some(instance.tsq.clone()),
                config: instance.config.clone(),
            },
        );
    }
    let service =
        Arc::new(SynthesisService::new(ServiceConfig { workers: 2, ..Default::default() }));
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        registry.clone(),
        NetConfig::default(),
    )
    .expect("binding an ephemeral loopback port");
    Server { net, service, registry }
}

/// The distinct databases behind a pass, in first-use order.
pub fn distinct_databases(instances: &[Instance]) -> Vec<Arc<Database>> {
    let mut out: Vec<Arc<Database>> = Vec::new();
    for instance in instances {
        if !out.iter().any(|db| Arc::ptr_eq(db, &instance.db)) {
            out.push(Arc::clone(&instance.db));
        }
    }
    out
}
