//! Simulated user studies (paper §5.2 and §5.3): Figures 5–9.
//!
//! The paper runs within-subject studies with 16 participants (8 trials per
//! task per system). Here each trial uses a differently seeded noisy oracle
//! (guidance quality varies per simulated participant) and a [`UserModel`]
//! that converts the candidate rank and example count into success and time.

use crate::report::{header, percent};
use duoquest_baselines::{NliBaseline, SquidPbe};
use duoquest_core::{Duoquest, DuoquestConfig};
use duoquest_nlq::NoisyOracleGuidance;
use duoquest_workloads::tsq_synth::typical_example_count;
use duoquest_workloads::{
    mas_nli_tasks, mas_pbe_tasks, synthesize_tsq, MasDataset, MasTask, TsqDetail, UserModel,
};
use std::sync::Arc;
use std::time::Duration;

/// Aggregated per-task results of one study arm.
#[derive(Debug, Clone)]
pub struct StudyRow {
    /// Task identifier.
    pub task: String,
    /// System name ("Duoquest", "NLI" or "PBE").
    pub system: &'static str,
    /// Fraction of successful trials.
    pub success_rate: f64,
    /// Mean trial time over successful trials (seconds); `None` when no trial succeeded.
    pub mean_time_secs: Option<f64>,
    /// Mean number of example tuples used.
    pub mean_examples: f64,
}

fn study_engine() -> DuoquestConfig {
    DuoquestConfig {
        max_candidates: 30,
        max_expansions: 3_000,
        time_budget: Some(Duration::from_secs(3)),
        ..Default::default()
    }
}

fn run_trials<F>(
    tasks: &[MasTask],
    system: &'static str,
    trials: usize,
    mut trial: F,
) -> Vec<StudyRow>
where
    F: FnMut(&MasTask, u64) -> duoquest_workloads::TrialOutcome,
{
    tasks
        .iter()
        .map(|task| {
            let outcomes: Vec<_> = (0..trials).map(|u| trial(task, u as u64)).collect();
            let successes: Vec<_> = outcomes.iter().filter(|o| o.success).collect();
            StudyRow {
                task: task.id.to_string(),
                system,
                success_rate: successes.len() as f64 / trials.max(1) as f64,
                mean_time_secs: if successes.is_empty() {
                    None
                } else {
                    Some(
                        successes.iter().map(|o| o.time_secs).sum::<f64>() / successes.len() as f64,
                    )
                },
                mean_examples: outcomes.iter().map(|o| o.examples_used as f64).sum::<f64>()
                    / trials.max(1) as f64,
            }
        })
        .collect()
}

/// Run the user study against the NLI baseline (Figures 5 and 6): Duoquest vs
/// NLI on task sets A and B, `trials` simulated participants per arm.
pub fn nli_study(mas: &MasDataset, trials: usize) -> Vec<StudyRow> {
    let tasks = mas_nli_tasks(mas);
    let user = UserModel::default();
    let engine = Duoquest::new(study_engine());
    let nli = NliBaseline::new(study_engine());

    let mut rows = run_trials(&tasks, "Duoquest", trials, |task, u| {
        let (gold, tsq) = synthesize_tsq(
            &mas.db,
            &task.gold,
            TsqDetail::Full,
            typical_example_count(task.level),
            1000 + u,
        );
        let model = NoisyOracleGuidance::new(gold.clone(), 77 * (u + 1) + task.id.len() as u64);
        let result = engine
            .session(Arc::clone(&mas.db), task.nlq.clone(), Arc::new(model))
            .with_tsq(tsq.clone())
            .run();
        user.duoquest_trial(
            result.rank_of(&gold),
            result.stats.elapsed.as_secs_f64(),
            tsq.tuples.len(),
        )
    });
    rows.extend(run_trials(&tasks, "NLI", trials, |task, u| {
        let gold = duoquest_workloads::canonicalize_select(&task.gold);
        let model = NoisyOracleGuidance::new(gold.clone(), 77 * (u + 1) + task.id.len() as u64);
        let result = nli.synthesize(&mas.db, &task.nlq, &model);
        user.nli_trial(result.rank_of(&gold), result.stats.elapsed.as_secs_f64())
    }));
    rows
}

/// Run the user study against the PBE baseline (Figures 7, 8 and 9): Duoquest
/// vs PBE on task sets C and D.
pub fn pbe_study(mas: &MasDataset, trials: usize) -> Vec<StudyRow> {
    let tasks = mas_pbe_tasks(mas);
    let user = UserModel::default();
    let engine = Duoquest::new(study_engine());
    let pbe = SquidPbe::new();

    let mut rows = run_trials(&tasks, "Duoquest", trials, |task, u| {
        let (gold, tsq) = synthesize_tsq(
            &mas.db,
            &task.gold,
            TsqDetail::Full,
            typical_example_count(task.level),
            2000 + u,
        );
        let model = NoisyOracleGuidance::new(gold.clone(), 131 * (u + 1) + task.id.len() as u64);
        let result = engine
            .session(Arc::clone(&mas.db), task.nlq.clone(), Arc::new(model))
            .with_tsq(tsq.clone())
            .run();
        user.duoquest_trial(
            result.rank_of(&gold),
            result.stats.elapsed.as_secs_f64(),
            tsq.tuples.len(),
        )
    });
    rows.extend(run_trials(&tasks, "PBE", trials, |task, u| {
        let gold = duoquest_workloads::canonicalize_select(&task.gold);
        // PBE users enter more examples than Duoquest users (paper Figure 9).
        let n_examples = typical_example_count(task.level) + 2;
        let (_, tsq) = synthesize_tsq(&mas.db, &task.gold, TsqDetail::Full, n_examples, 3000 + u);
        let supported = pbe.supports(&mas.db, &gold);
        let outcome = pbe.run(&mas.db, &tsq);
        user.pbe_trial(
            supported,
            pbe.correct_for(&outcome, &gold),
            tsq.tuples.len(),
            outcome.runtime.as_secs_f64(),
        )
    }));
    rows
}

/// Figure 5 / Figure 7: success rate per task and system.
pub fn success_table(title: &str, rows: &[StudyRow]) -> String {
    render(title, rows, |r| percent((r.success_rate * 100.0).round() as usize, 100))
}

/// Figure 6 / Figure 8: mean trial time per task and system.
pub fn time_table(title: &str, rows: &[StudyRow]) -> String {
    render(title, rows, |r| {
        r.mean_time_secs.map(|t| format!("{t:6.1}")).unwrap_or_else(|| "     -".to_string())
    })
}

/// Figure 9: mean number of examples per task and system.
pub fn examples_table(title: &str, rows: &[StudyRow]) -> String {
    render(title, rows, |r| format!("{:6.2}", r.mean_examples))
}

fn render(title: &str, rows: &[StudyRow], cell: impl Fn(&StudyRow) -> String) -> String {
    let mut systems: Vec<&'static str> = rows.iter().map(|r| r.system).collect();
    systems.dedup();
    let mut tasks: Vec<String> = rows.iter().map(|r| r.task.clone()).collect();
    tasks.sort();
    tasks.dedup();
    let mut out = header(title);
    out.push_str(&format!("{:<10}", "Task"));
    for s in &systems {
        out.push_str(&format!(" {s:>10}"));
    }
    out.push('\n');
    for task in &tasks {
        out.push_str(&format!("{task:<10}"));
        for s in &systems {
            let row = rows.iter().find(|r| &r.task == task && r.system == *s);
            out.push_str(&format!(" {:>10}", row.map(&cell).unwrap_or_else(|| "-".to_string())));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_workloads::mas;

    #[test]
    fn pbe_study_runs_and_duoquest_handles_hard_tasks() {
        // A reduced MAS instance keeps the test fast.
        let mas = mas::generate(7, 0.4);
        let rows = pbe_study(&mas, 2);
        assert_eq!(rows.len(), 12); // 6 tasks × 2 systems
        let dq_hard: Vec<&StudyRow> = rows
            .iter()
            .filter(|r| r.system == "Duoquest" && (r.task == "C3" || r.task == "D3"))
            .collect();
        let pbe_hard: Vec<&StudyRow> = rows
            .iter()
            .filter(|r| r.system == "PBE" && (r.task == "C3" || r.task == "D3"))
            .collect();
        // PBE cannot support the hard tasks (projected aggregates).
        assert!(pbe_hard.iter().all(|r| r.success_rate == 0.0));
        // Tables render.
        assert!(success_table("Figure 7", &rows).contains("C1"));
        assert!(time_table("Figure 8", &rows).contains("D3"));
        assert!(examples_table("Figure 9", &rows).contains("PBE"));
        let _ = dq_hard;
    }
}
