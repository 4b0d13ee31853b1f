//! # duoquest-bench
//!
//! The experiment harness reproducing every table and figure of the Duoquest
//! evaluation (paper §5), and the committed benchmark (`bench_report`).
//!
//! Each `src/bin/*` binary regenerates one artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table05_datasets` | Table 5 (dataset statistics) |
//! | `fig05_user_study_nli` | Figure 5 (% successful trials, NLI study) |
//! | `fig06_user_time_nli` | Figure 6 (mean trial time, NLI study) |
//! | `fig07_user_study_pbe` | Figure 7 (% successful trials, PBE study) |
//! | `fig08_user_time_pbe` | Figure 8 (mean trial time, PBE study) |
//! | `fig09_user_examples_pbe` | Figure 9 (mean #examples, PBE study) |
//! | `fig10_spider_accuracy` | Figure 10 (top-1/top-10 accuracy, Spider) |
//! | `fig11_difficulty` | Figure 11 (accuracy by difficulty) |
//! | `fig12_ablation` | Figure 12 (time-to-query distributions, ablations) |
//! | `table06_tsq_detail` | Table 6 (TSQ detail sweep) |
//! | `run_all_experiments` | everything above |
//!
//! Binaries accept `--full` to run the paper-sized splits (589 dev / 1247 test
//! tasks); the default is a proportionally reduced split so the whole suite
//! finishes in minutes on a laptop.

pub mod report;
pub mod spider_eval;
pub mod user_study;

pub use report::percent;
pub use spider_eval::{
    ablation_experiment, spider_accuracy_experiment, tsq_detail_experiment, EvalSettings,
    SpiderRecord,
};
pub use user_study::{nli_study, pbe_study, StudyRow};
