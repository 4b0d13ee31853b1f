//! # duoquest-workloads
//!
//! Synthetic workloads, task sets and simulated users for the Duoquest
//! evaluation:
//!
//! * [`mas`] — a seeded generator for a Microsoft-Academic-Search-like
//!   database (the user studies of paper §5.2/§5.3 run on MAS);
//! * [`mas_tasks`] — the 14 user-study tasks of paper Tables 7 and 8;
//! * [`spider`] — a synthetic cross-domain benchmark generator standing in for
//!   the Spider dev/test sets (paper §5.4, Table 5);
//! * [`tsq_synth`] — TSQ synthesis from gold queries at the Full / Partial /
//!   Minimal detail levels of §5.4.4;
//! * [`user_sim`] — the simulated user used to reproduce the user-study figures;
//! * [`stats`] — dataset statistics (paper Table 5).

pub mod mas;
pub mod mas_tasks;
pub mod spider;
pub mod stats;
pub mod tsq_synth;
pub mod user_sim;

pub use mas::MasDataset;
pub use mas_tasks::{mas_nli_tasks, mas_pbe_tasks, MasTask};
pub use spider::{SpiderDataset, SpiderTask};
pub use stats::DatasetStats;
pub use tsq_synth::{canonicalize_select, synthesize_tsq, TsqDetail};
pub use user_sim::{TrialOutcome, UserModel};

use duoquest_db::SelectSpec;

/// Task difficulty, following the definitions of paper Table 5: *Easy* tasks
/// are project-join queries (possibly with aggregates, sorting and limits),
/// *Medium* tasks add selection predicates, and *Hard* tasks add grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Difficulty {
    /// Project-join queries including aggregates, sorting and limit operators.
    Easy,
    /// Easy plus selection predicates.
    Medium,
    /// Medium plus grouping operators.
    Hard,
}

impl Difficulty {
    /// Classify a gold query according to the Table 5 definitions.
    pub fn classify(spec: &SelectSpec) -> Difficulty {
        if !spec.group_by.is_empty() || !spec.having.is_empty() {
            Difficulty::Hard
        } else if !spec.predicates.is_empty() {
            Difficulty::Medium
        } else {
            Difficulty::Easy
        }
    }
}

impl std::fmt::Display for Difficulty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Difficulty::Easy => write!(f, "easy"),
            Difficulty::Medium => write!(f, "medium"),
            Difficulty::Hard => write!(f, "hard"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{CmpOp, ColumnDef, Schema, TableDef};
    use duoquest_sql::QueryBuilder;

    #[test]
    fn difficulty_classification() {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "t",
            vec![ColumnDef::number("id"), ColumnDef::text("name"), ColumnDef::number("x")],
            Some(0),
        ));
        let easy = QueryBuilder::new(&s).select("t.name").build().unwrap();
        assert_eq!(Difficulty::classify(&easy), Difficulty::Easy);
        let medium =
            QueryBuilder::new(&s).select("t.name").filter("t.x", CmpOp::Gt, 3).build().unwrap();
        assert_eq!(Difficulty::classify(&medium), Difficulty::Medium);
        let hard = QueryBuilder::new(&s)
            .select("t.name")
            .select_count_star()
            .group_by("t.name")
            .build()
            .unwrap();
        assert_eq!(Difficulty::classify(&hard), Difficulty::Hard);
        assert_eq!(hard.group_by.len(), 1);
        assert_eq!(
            format!("{} {} {}", Difficulty::Easy, Difficulty::Medium, Difficulty::Hard),
            "easy medium hard"
        );
    }
}
