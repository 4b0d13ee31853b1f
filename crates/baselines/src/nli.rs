//! The NLI-only baseline.
//!
//! The paper compares Duoquest against SyntaxSQLNet used as a plain natural
//! language interface: the model enumerates candidate queries ranked by
//! confidence, with no TSQ to verify against. In this reproduction the same
//! GPQE enumerator runs with the TSQ withheld and the semantic pruning rules
//! disabled, so the candidate list reflects guidance quality alone.

use duoquest_core::{Duoquest, DuoquestConfig, SynthesisResult};
use duoquest_db::Database;
use duoquest_nlq::{GuidanceModel, Nlq};

/// NLI-only synthesis (no table sketch query).
#[derive(Debug, Clone)]
pub struct NliBaseline {
    engine: Duoquest,
}

impl NliBaseline {
    /// Create the baseline from a base configuration (the TSQ-independent
    /// semantic rules are disabled to match a plain NLI).
    pub fn new(config: DuoquestConfig) -> Self {
        NliBaseline { engine: Duoquest::new(config.without_semantic_rules()) }
    }

    /// The underlying engine configuration.
    pub fn config(&self) -> &DuoquestConfig {
        self.engine.config()
    }

    /// Produce the ranked candidate list for an NLQ.
    pub fn synthesize(
        &self,
        db: &Database,
        nlq: &Nlq,
        model: &dyn GuidanceModel,
    ) -> SynthesisResult {
        self.engine.synthesize(db, nlq, None, model)
    }
}

impl Default for NliBaseline {
    fn default() -> Self {
        NliBaseline::new(DuoquestConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_db::{CmpOp, ColumnDef, Schema, TableDef, Value};
    use duoquest_nlq::{Literal, NoisyOracleGuidance, OracleConfig};
    use duoquest_sql::QueryBuilder;

    fn db() -> Database {
        let mut s = Schema::new("m");
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        let mut d = Database::new(s).unwrap();
        d.insert("movies", vec![Value::int(1), Value::text("Forrest Gump"), Value::int(1994)])
            .unwrap();
        d.insert("movies", vec![Value::int(2), Value::text("Gravity"), Value::int(2013)]).unwrap();
        d
    }

    #[test]
    fn nli_finds_gold_but_with_more_candidates() {
        let db = db();
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let model = NoisyOracleGuidance::with_config(gold.clone(), 1, OracleConfig::perfect());
        let nlq = Nlq::with_literals("names of movies before 1995", vec![Literal::number(1995.0)]);
        let nli = NliBaseline::new(DuoquestConfig::fast());
        let result = nli.synthesize(&db, &nlq, &model);
        assert!(result.rank_of(&gold).is_some());
        assert!(result.candidates.len() > 1);
        assert!(!nli.config().semantic_rules);
    }

    #[test]
    fn default_uses_default_budgets() {
        let nli = NliBaseline::default();
        assert!(nli.config().guided);
        assert!(nli.config().prune_partial);
    }
}
