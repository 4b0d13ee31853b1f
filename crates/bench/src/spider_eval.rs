//! Simulation-study experiments on the synthetic Spider-like benchmark
//! (paper §5.4): Figure 10 (top-k accuracy), Figure 11 (difficulty breakdown),
//! Figure 12 (ablations) and Table 6 (TSQ detail sweep).

use crate::report::{header, percent};
use duoquest_baselines::{NliBaseline, NoGuide, NoPq, SquidPbe};
use duoquest_core::{Duoquest, DuoquestConfig};
use duoquest_db::SelectSpec;
use duoquest_nlq::NoisyOracleGuidance;
use duoquest_workloads::spider::{self, SpiderDataset};
use duoquest_workloads::{synthesize_tsq, Difficulty, TsqDetail};
use std::sync::Arc;
use std::time::Duration;

/// Settings shared by the simulation experiments.
#[derive(Debug, Clone)]
pub struct EvalSettings {
    /// Use the paper-sized splits (589 dev / 1247 test tasks) instead of the
    /// proportionally reduced default.
    pub full: bool,
    /// Per-task engine configuration.
    pub engine: DuoquestConfig,
    /// Random seed for dataset generation and TSQ sampling.
    pub seed: u64,
}

impl Default for EvalSettings {
    fn default() -> Self {
        // The exploration order is the sequential paper algorithm's (modulo
        // the wall-clock budget cutting the search at a
        // machine-speed-dependent point).
        let engine = DuoquestConfig {
            max_candidates: 25,
            max_expansions: 2_500,
            time_budget: Some(Duration::from_secs(3)),
            ..Default::default()
        };
        EvalSettings { full: false, engine, seed: 42 }
    }
}

impl EvalSettings {
    /// Parse `--full` from command-line arguments.
    pub fn from_args(args: &[String]) -> Self {
        let mut s = EvalSettings::default();
        if args.iter().any(|a| a == "--full") {
            s.full = true;
        }
        s
    }

    /// Generate the dev split at the configured size.
    pub fn dev(&self) -> SpiderDataset {
        if self.full {
            spider::generate_dev(self.seed)
        } else {
            // Reduced split with the paper's difficulty proportions (≈ 1/4 size).
            spider::generate("dev", 6, 60, 63, 25, self.seed)
        }
    }

    /// Generate the test split at the configured size.
    pub fn test(&self) -> SpiderDataset {
        if self.full {
            spider::generate_test(self.seed + 1)
        } else {
            spider::generate("test", 10, 105, 96, 48, self.seed + 1)
        }
    }
}

/// Per-task record of the three compared systems.
#[derive(Debug, Clone)]
pub struct SpiderRecord {
    /// Task identifier.
    pub id: String,
    /// Difficulty level.
    pub level: Difficulty,
    /// Rank of the gold query in Duoquest's candidate list.
    pub dq_rank: Option<usize>,
    /// Seconds until Duoquest emitted the gold query.
    pub dq_time: Option<f64>,
    /// Rank of the gold query in the NLI baseline's candidate list.
    pub nli_rank: Option<usize>,
    /// Whether the PBE baseline supports the task at all.
    pub pbe_supported: bool,
    /// Whether the PBE baseline's abduction covers the gold query.
    pub pbe_correct: bool,
}

/// Run Duoquest, the NLI baseline and the PBE baseline on every task of a split.
pub fn spider_accuracy_experiment(
    dataset: &SpiderDataset,
    settings: &EvalSettings,
    detail: TsqDetail,
) -> Vec<SpiderRecord> {
    let engine = Duoquest::new(settings.engine.clone());
    let nli = NliBaseline::new(settings.engine.clone());
    let pbe = SquidPbe::new();
    let mut records = Vec::with_capacity(dataset.tasks.len());
    for (i, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, detail, 2, settings.seed + i as u64);
        let model = NoisyOracleGuidance::new(gold.clone(), settings.seed + i as u64);

        // Duoquest runs as an owned session over the Arc-shared database —
        // the parallel, cache-aware path the engine uses in production.
        let dq = engine
            .session(Arc::clone(db), task.nlq.clone(), Arc::new(model.clone()))
            .with_tsq(tsq.clone())
            .run();
        let nli_result = nli.synthesize(db, &task.nlq, &model);
        let supported = pbe.supports(db, &gold);
        let pbe_correct = if supported {
            let outcome = pbe.run(db, &tsq);
            pbe.correct_for(&outcome, &gold)
        } else {
            false
        };

        records.push(SpiderRecord {
            id: task.id.clone(),
            level: task.level,
            dq_rank: dq.rank_of(&gold),
            dq_time: dq.time_to_find(&gold).map(|d| d.as_secs_f64()),
            nli_rank: nli_result.rank_of(&gold),
            pbe_supported: supported,
            pbe_correct,
        });
    }
    records
}

/// Figure 10: top-1 / top-10 accuracy for Duoquest and NLI, Correct /
/// Unsupported counts for PBE.
pub fn accuracy_table(name: &str, records: &[SpiderRecord]) -> String {
    let total = records.len();
    let top = |ranks: &dyn Fn(&SpiderRecord) -> Option<usize>, k: usize| {
        records.iter().filter(|r| ranks(r).map(|x| x <= k).unwrap_or(false)).count()
    };
    let dq_rank = |r: &SpiderRecord| r.dq_rank;
    let nli_rank = |r: &SpiderRecord| r.nli_rank;
    let pbe_correct = records.iter().filter(|r| r.pbe_correct).count();
    let pbe_unsupported = records.iter().filter(|r| !r.pbe_supported).count();
    let mut out = header(&format!("Figure 10 — {name} ({total} tasks)"));
    out.push_str("Sys   Top-1 #    %   Top-10 #    %   Correct #    %   Unsupp #    %\n");
    out.push_str(&format!(
        "Dq    {:7} {}  {:8} {}        {:>3}  {}      {:>3}  {}\n",
        top(&dq_rank, 1),
        percent(top(&dq_rank, 1), total),
        top(&dq_rank, 10),
        percent(top(&dq_rank, 10), total),
        "-",
        "  - ",
        0,
        percent(0, total)
    ));
    out.push_str(&format!(
        "NLI   {:7} {}  {:8} {}        {:>3}  {}      {:>3}  {}\n",
        top(&nli_rank, 1),
        percent(top(&nli_rank, 1), total),
        top(&nli_rank, 10),
        percent(top(&nli_rank, 10), total),
        "-",
        "  - ",
        0,
        percent(0, total)
    ));
    out.push_str(&format!(
        "PBE         -    -         -    -        {:>3}  {}      {:>3}  {}\n",
        pbe_correct,
        percent(pbe_correct, total),
        pbe_unsupported,
        percent(pbe_unsupported, total)
    ));
    out
}

/// Figure 11: correctness by difficulty level (top-10 for Dq/NLI, Correct for PBE).
pub fn difficulty_table(name: &str, records: &[SpiderRecord]) -> String {
    let mut out = header(&format!("Figure 11 — {name}"));
    out.push_str("Level   Tasks   Dq top-10 %   NLI top-10 %   PBE correct %   PBE unsupported\n");
    for level in [Difficulty::Easy, Difficulty::Medium, Difficulty::Hard] {
        let subset: Vec<&SpiderRecord> = records.iter().filter(|r| r.level == level).collect();
        let n = subset.len();
        let dq = subset.iter().filter(|r| r.dq_rank.map(|x| x <= 10).unwrap_or(false)).count();
        let nli = subset.iter().filter(|r| r.nli_rank.map(|x| x <= 10).unwrap_or(false)).count();
        let pbe = subset.iter().filter(|r| r.pbe_correct).count();
        let unsupported = subset.iter().filter(|r| !r.pbe_supported).count();
        out.push_str(&format!(
            "{:<7} {:>5}   {}         {}          {}           {:>5}\n",
            level.to_string(),
            n,
            percent(dq, n),
            percent(nli, n),
            percent(pbe, n),
            unsupported
        ));
    }
    out
}

/// Table 6: top-1 / top-10 / top-k accuracy for Full / Partial / Minimal TSQs
/// and the NLI baseline.
pub fn tsq_detail_experiment(
    dataset: &SpiderDataset,
    settings: &EvalSettings,
    max_rank: usize,
) -> String {
    let mut engine_cfg = settings.engine.clone();
    engine_cfg.max_candidates = max_rank.max(engine_cfg.max_candidates);
    let engine = Duoquest::new(engine_cfg.clone());
    let nli = NliBaseline::new(engine_cfg.clone());

    let mut out = header(&format!(
        "Table 6 — TSQ detail sweep ({} tasks, top-k up to {max_rank})",
        dataset.tasks.len()
    ));
    out.push_str(&format!(
        "{:<10} {:>7} {:>7} {:>9}\n",
        "Detail",
        "T1 %",
        "T10 %",
        &format!("T{max_rank} %")
    ));

    let details = [
        ("Full", Some(TsqDetail::Full)),
        ("Partial", Some(TsqDetail::Partial)),
        ("Minimal", Some(TsqDetail::Minimal)),
        ("NLI", None),
    ];
    for (label, detail) in details {
        let mut t1 = 0usize;
        let mut t10 = 0usize;
        let mut tk = 0usize;
        for (i, task) in dataset.tasks.iter().enumerate() {
            let db = dataset.database(task);
            let (gold, tsq) = synthesize_tsq(
                db,
                &task.gold,
                detail.unwrap_or(TsqDetail::Full),
                2,
                settings.seed + i as u64,
            );
            let model = NoisyOracleGuidance::new(gold.clone(), settings.seed + i as u64);
            let rank = match detail {
                Some(_) => engine
                    .session(Arc::clone(db), task.nlq.clone(), Arc::new(model.clone()))
                    .with_tsq(tsq.clone())
                    .run()
                    .rank_of(&gold),
                None => nli.synthesize(db, &task.nlq, &model).rank_of(&gold),
            };
            if let Some(r) = rank {
                if r <= 1 {
                    t1 += 1;
                }
                if r <= 10 {
                    t10 += 1;
                }
                if r <= max_rank {
                    tk += 1;
                }
            }
        }
        let total = dataset.tasks.len();
        out.push_str(&format!(
            "{:<10} {:>7} {:>7} {:>9}\n",
            label,
            percent(t1, total),
            percent(t10, total),
            percent(tk, total)
        ));
    }
    out
}

/// Figure 12: distribution of the time taken to synthesize the correct query
/// for Duoquest, NoPQ and NoGuide.
pub fn ablation_experiment(dataset: &SpiderDataset, settings: &EvalSettings) -> String {
    let duoquest = Duoquest::new(settings.engine.clone());
    let nopq = NoPq::new(settings.engine.clone());
    let noguide = NoGuide::new(settings.engine.clone());
    let budget = settings.engine.time_budget.unwrap_or(Duration::from_secs(3)).as_secs_f64();

    let mut times: Vec<(&str, Vec<Option<f64>>)> =
        vec![("Duoquest", Vec::new()), ("NoPQ", Vec::new()), ("NoGuide", Vec::new())];
    for (i, task) in dataset.tasks.iter().enumerate() {
        let db = dataset.database(task);
        let (gold, tsq) =
            synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, settings.seed + i as u64);
        let model = NoisyOracleGuidance::new(gold.clone(), settings.seed + i as u64);
        let dq = duoquest
            .session(Arc::clone(db), task.nlq.clone(), Arc::new(model.clone()))
            .with_tsq(tsq.clone())
            .run();
        let np = nopq.synthesize(db, &task.nlq, Some(&tsq), &model);
        let ng = noguide.synthesize(db, &task.nlq, Some(&tsq), &model);
        times[0].1.push(dq.time_to_find(&gold).map(|d| d.as_secs_f64()));
        times[1].1.push(np.time_to_find(&gold).map(|d| d.as_secs_f64()));
        times[2].1.push(ng.time_to_find(&gold).map(|d| d.as_secs_f64()));
    }

    let total = dataset.tasks.len();
    let mut out = header(&format!(
        "Figure 12 — % of tasks whose gold query was synthesized within t seconds ({total} tasks, budget {budget:.1}s)"
    ));
    let fractions = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    out.push_str(&format!("{:<10}", "System"));
    for f in fractions {
        out.push_str(&format!(" {:>7}", format!("{:.2}s", f * budget)));
    }
    out.push('\n');
    for (label, series) in &times {
        out.push_str(&format!("{label:<10}"));
        for f in fractions {
            let t = f * budget;
            let done = series.iter().filter(|x| x.map(|v| v <= t).unwrap_or(false)).count();
            out.push_str(&format!(" {:>7}", percent(done, total)));
        }
        out.push('\n');
    }
    out
}

/// Figure 5-style gold-rank helper reused by the user-study module.
pub fn gold_spec_of(task_gold: &SelectSpec) -> SelectSpec {
    duoquest_workloads::canonicalize_select(task_gold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> EvalSettings {
        let mut s = EvalSettings::default();
        s.engine.max_expansions = 1_200;
        s.engine.max_candidates = 12;
        s.engine.time_budget = Some(Duration::from_millis(800));
        s
    }

    fn tiny_dataset(seed: u64) -> SpiderDataset {
        spider::generate("tiny", 2, 4, 4, 2, seed)
    }

    #[test]
    fn accuracy_experiment_produces_a_record_per_task() {
        let settings = tiny_settings();
        let ds = tiny_dataset(5);
        let records = spider_accuracy_experiment(&ds, &settings, TsqDetail::Full);
        assert_eq!(records.len(), ds.tasks.len());
        // Duoquest should solve at least some of the tasks.
        assert!(records.iter().any(|r| r.dq_rank == Some(1)));
        let table = accuracy_table("tiny", &records);
        assert!(table.contains("Dq"));
        let by_level = difficulty_table("tiny", &records);
        assert!(by_level.contains("easy"));
    }

    #[test]
    fn ablation_and_detail_tables_render() {
        let settings = tiny_settings();
        let ds = spider::generate("tiny2", 1, 2, 2, 1, 9);
        let table = ablation_experiment(&ds, &settings);
        assert!(table.contains("NoGuide"));
        let detail = tsq_detail_experiment(&ds, &settings, 20);
        assert!(detail.contains("Minimal"));
        assert!(detail.contains("NLI"));
    }
}
