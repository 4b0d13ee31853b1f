//! The NoPQ and NoGuide ablations (paper §5.4.3).
//!
//! * **NoPQ** keeps guided enumeration but only verifies complete queries —
//!   identical to the naive chaining approach of §3.5 (NLI output piped into a
//!   PBE verifier).
//! * **NoGuide** ignores the guidance model's confidence scores (uniform
//!   scores, so the best-first search degenerates into a breadth-first,
//!   simplest-queries-first enumeration) but keeps partial query pruning.

use duoquest_core::{Duoquest, DuoquestConfig, SynthesisResult, TableSketchQuery};
use duoquest_db::Database;
use duoquest_nlq::{GuidanceModel, Nlq};

/// The NoPQ ablation: verification only on complete queries.
#[derive(Debug, Clone)]
pub struct NoPq {
    engine: Duoquest,
}

impl NoPq {
    /// Create the ablation from a base configuration.
    pub fn new(config: DuoquestConfig) -> Self {
        NoPq { engine: Duoquest::new(config.no_partial_pruning()) }
    }

    /// Synthesize with the TSQ applied only to complete queries.
    pub fn synthesize(
        &self,
        db: &Database,
        nlq: &Nlq,
        tsq: Option<&TableSketchQuery>,
        model: &dyn GuidanceModel,
    ) -> SynthesisResult {
        self.engine.synthesize(db, nlq, tsq, model)
    }
}

/// The NoGuide ablation: breadth-first enumeration with pruning.
#[derive(Debug, Clone)]
pub struct NoGuide {
    engine: Duoquest,
}

impl NoGuide {
    /// Create the ablation from a base configuration.
    pub fn new(config: DuoquestConfig) -> Self {
        NoGuide { engine: Duoquest::new(config.no_guide()) }
    }

    /// Synthesize ignoring the guidance model's scores.
    pub fn synthesize(
        &self,
        db: &Database,
        nlq: &Nlq,
        tsq: Option<&TableSketchQuery>,
        model: &dyn GuidanceModel,
    ) -> SynthesisResult {
        self.engine.synthesize(db, nlq, tsq, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duoquest_core::TsqCell;
    use duoquest_db::{CmpOp, ColumnDef, DataType, Schema, TableDef, Value};
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

    fn setup(db: &Database) -> (duoquest_db::SelectSpec, Nlq, TableSketchQuery) {
        let gold = QueryBuilder::new(db.schema())
            .select("movies.name")
            .filter("movies.year", CmpOp::Lt, 1995)
            .build()
            .unwrap();
        let nlq = Nlq::with_literals("movies before 1995", vec![Literal::number(1995.0)]);
        let tsq = TableSketchQuery::with_types(vec![DataType::Text])
            .with_tuple(vec![TsqCell::text("Forrest Gump")]);
        (gold, nlq, tsq)
    }

    #[test]
    fn nopq_still_finds_gold_but_does_more_work() {
        let db = db();
        let (gold, nlq, tsq) = setup(&db);
        let model = NoisyOracleGuidance::with_config(gold.clone(), 1, OracleConfig::perfect());
        let full = Duoquest::new(DuoquestConfig::fast()).synthesize(&db, &nlq, Some(&tsq), &model);
        let nopq = NoPq::new(DuoquestConfig::fast()).synthesize(&db, &nlq, Some(&tsq), &model);
        assert!(full.rank_of(&gold).is_some());
        assert!(nopq.rank_of(&gold).is_some());
        // Without partial pruning, the search generates at least as many states.
        assert!(nopq.stats.generated >= full.stats.generated);
    }

    #[test]
    fn noguide_finds_gold_with_pruning() {
        let db = db();
        let (gold, nlq, tsq) = setup(&db);
        let model = NoisyOracleGuidance::with_config(gold.clone(), 1, OracleConfig::perfect());
        let result = NoGuide::new(DuoquestConfig::fast()).synthesize(&db, &nlq, Some(&tsq), &model);
        assert!(result.rank_of(&gold).is_some());
    }
}
