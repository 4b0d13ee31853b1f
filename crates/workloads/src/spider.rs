//! A synthetic cross-domain benchmark standing in for Spider (paper §5.4).
//!
//! The real Spider benchmark is a human-annotated corpus; this generator
//! produces databases whose schema statistics match the paper's Table 5
//! (≈4–5 tables, ≈20 columns, ≈3–4 FK-PK relationships per database) together
//! with gold SQL queries at the paper's easy/medium/hard mix, template NLQs and
//! tagged literals. See DESIGN.md §3 for why this substitution preserves the
//! evaluated behaviour.

use crate::Difficulty;
use duoquest_db::{
    execute, AggFunc, CmpOp, ColumnDef, ColumnId, DataType, Database, Schema, SelectSpec, TableDef,
    Value,
};
use duoquest_nlq::{Literal, Nlq};
use duoquest_sql::QueryBuilder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One benchmark task: a database index, an NLQ with literals, and a gold query.
#[derive(Debug, Clone)]
pub struct SpiderTask {
    /// Task identifier.
    pub id: String,
    /// Index into [`SpiderDataset::databases`].
    pub db_index: usize,
    /// Difficulty level.
    pub level: Difficulty,
    /// The natural language query (with tagged literals).
    pub nlq: Nlq,
    /// The gold query.
    pub gold: SelectSpec,
}

/// A generated benchmark split.
#[derive(Debug, Clone)]
pub struct SpiderDataset {
    /// Split name ("dev" or "test").
    pub name: String,
    /// The generated databases, `Arc`-shared so per-task synthesis sessions
    /// can reference them without copying rows.
    pub databases: Vec<std::sync::Arc<Database>>,
    /// The generated tasks.
    pub tasks: Vec<SpiderTask>,
}

impl SpiderDataset {
    /// The database a task runs against (clone the `Arc` to share it with a
    /// synthesis session).
    pub fn database(&self, task: &SpiderTask) -> &std::sync::Arc<Database> {
        &self.databases[task.db_index]
    }

    /// Number of tasks per difficulty level.
    pub fn difficulty_counts(&self) -> (usize, usize, usize) {
        let easy = self.tasks.iter().filter(|t| t.level == Difficulty::Easy).count();
        let medium = self.tasks.iter().filter(|t| t.level == Difficulty::Medium).count();
        let hard = self.tasks.iter().filter(|t| t.level == Difficulty::Hard).count();
        (easy, medium, hard)
    }
}

/// Generate the development split (paper Table 5: 20 databases, 589 tasks —
/// 239 easy, 252 medium, 98 hard).
pub fn generate_dev(seed: u64) -> SpiderDataset {
    generate("dev", 20, 239, 252, 98, seed)
}

/// Generate the test split (paper Table 5: 40 databases, 1247 tasks —
/// 524 easy, 481 medium, 242 hard).
pub fn generate_test(seed: u64) -> SpiderDataset {
    generate("test", 40, 524, 481, 242, seed)
}

/// A reduced split for quick experiments and tests.
pub fn generate_small(seed: u64) -> SpiderDataset {
    generate("small", 4, 20, 20, 10, seed)
}

/// Generate a split with explicit sizes.
pub fn generate(
    name: &str,
    n_databases: usize,
    n_easy: usize,
    n_medium: usize,
    n_hard: usize,
    seed: u64,
) -> SpiderDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let databases: Vec<std::sync::Arc<Database>> =
        (0..n_databases).map(|i| generate_database(&mut rng, i).into_shared()).collect();
    let mut tasks = Vec::with_capacity(n_easy + n_medium + n_hard);
    let mut task_no = 0usize;
    for (level, count) in
        [(Difficulty::Easy, n_easy), (Difficulty::Medium, n_medium), (Difficulty::Hard, n_hard)]
    {
        let mut made = 0usize;
        let mut attempts = 0usize;
        while made < count && attempts < count * 60 {
            attempts += 1;
            let db_index = task_no % databases.len();
            let db = &databases[db_index];
            if let Some((gold, nlq)) = generate_task(&mut rng, db, level) {
                tasks.push(SpiderTask {
                    id: format!("{name}-{level}-{made:04}"),
                    db_index,
                    level,
                    nlq,
                    gold,
                });
                made += 1;
                task_no += 1;
            } else {
                task_no += 1; // move on to another database
            }
        }
    }
    SpiderDataset { name: name.to_string(), databases, tasks }
}

// ---------------------------------------------------------------------------
// Schema and data generation
// ---------------------------------------------------------------------------

const DOMAINS: &[(&str, &[&str], &[&str])] = &[
    // (entity, text attributes, numeric attributes)
    ("student", &["name", "major", "city"], &["age", "gpa"]),
    ("course", &["title", "department"], &["credits", "enrollment"]),
    ("employee", &["name", "city", "position"], &["salary", "age"]),
    ("department", &["name", "building"], &["budget", "staff_count"]),
    ("customer", &["name", "country", "segment"], &["credit_limit", "age"]),
    ("product", &["title", "category"], &["price", "stock"]),
    ("flight", &["origin", "destination"], &["duration", "price"]),
    ("airport", &["name", "city", "country"], &["elevation", "gates"]),
    ("singer", &["name", "country"], &["age", "net_worth"]),
    ("concert", &["title", "venue"], &["year", "attendance"]),
    ("team", &["name", "city"], &["founded_year", "wins"]),
    ("player", &["name", "position", "nationality"], &["age", "goals"]),
    ("movie", &["title", "director", "genre"], &["year", "rating"]),
    ("actor", &["name", "nationality"], &["birth_year", "awards"]),
    ("book", &["title", "publisher", "language"], &["year", "pages"]),
    ("author", &["name", "country"], &["birth_year", "works"]),
    ("hospital", &["name", "city"], &["beds", "founded_year"]),
    ("doctor", &["name", "specialty"], &["experience_years", "salary"]),
];

const TEXT_VALUES: &[&str] = &[
    "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta", "Iota", "Kappa",
    "Lambda", "Sigma", "Omega", "Aurora", "Borealis", "Cascade", "Dynamo", "Eclipse", "Fusion",
    "Granite", "Horizon", "Indigo", "Jupiter", "Krypton", "Lumen", "Meridian", "Nimbus", "Orion",
    "Pinnacle", "Quartz", "Raven", "Summit", "Tundra", "Umbra", "Vertex", "Willow", "Xenon",
    "Yonder", "Zephyr", "Amber", "Basil", "Cedar", "Dahlia", "Ember", "Fern", "Grove", "Hazel",
];

/// Generate one database: two related entity tables, a bridge table, and one or
/// two extra entity tables, matching the Table 5 schema statistics on average.
fn generate_database(rng: &mut StdRng, index: usize) -> Database {
    let mut picks: Vec<usize> = (0..DOMAINS.len()).collect();
    picks.shuffle(rng);
    let n_entities = rng.gen_range(3..=4);
    let mut schema = Schema::new(format!("spider_db_{index:03}"));

    let mut entity_tables = Vec::new();
    for &pick in picks.iter().take(n_entities) {
        let (entity, text_attrs, num_attrs) = DOMAINS[pick];
        let mut columns = vec![ColumnDef::number(format!("{entity}_id"))];
        for t in text_attrs.iter().take(rng.gen_range(2..=text_attrs.len())) {
            columns.push(ColumnDef::text(*t));
        }
        for n in num_attrs.iter().take(rng.gen_range(1..=num_attrs.len())) {
            columns.push(ColumnDef::number(*n));
        }
        let name = entity.to_string();
        schema.add_table(TableDef::new(name.clone(), columns, Some(0)));
        entity_tables.push(name);
    }

    // FK from entity 1 to entity 0 (a child-parent relationship) and a bridge
    // table linking entity 0 and the last entity.
    let child = entity_tables[1].clone();
    let parent = entity_tables[0].clone();
    let parent_fk_col = format!("{parent}_id");
    {
        // Add the FK column to the child table.
        let child_id = schema.table_id(&child).unwrap();
        schema.tables[child_id.0].columns.push(ColumnDef::number(parent_fk_col.clone()));
        schema.add_foreign_key(&child, &parent_fk_col, &parent, &parent_fk_col).unwrap();
    }
    let last = entity_tables[entity_tables.len() - 1].clone();
    let bridge_name = format!("{parent}_{last}");
    if last != parent {
        schema.add_table(TableDef::new(
            bridge_name.clone(),
            vec![
                ColumnDef::number(format!("{parent}_id")),
                ColumnDef::number(format!("{last}_id")),
            ],
            None,
        ));
        schema
            .add_foreign_key(
                &bridge_name,
                &format!("{parent}_id"),
                &parent,
                &format!("{parent}_id"),
            )
            .unwrap();
        schema
            .add_foreign_key(&bridge_name, &format!("{last}_id"), &last, &format!("{last}_id"))
            .unwrap();
    }

    let mut db = Database::new(schema).expect("generated schema is valid");

    // Populate the entity tables.
    let mut row_counts = Vec::new();
    for table_name in &entity_tables {
        let tid = db.schema().table_id(table_name).unwrap();
        let columns = db.schema().table(tid).columns.clone();
        let n_rows = rng.gen_range(30..=70);
        row_counts.push((table_name.clone(), n_rows));
        let mut rows = Vec::with_capacity(n_rows);
        for r in 0..n_rows {
            let mut row = Vec::with_capacity(columns.len());
            for (ci, col) in columns.iter().enumerate() {
                if ci == 0 {
                    row.push(Value::int(r as i64 + 1));
                } else if col.name.ends_with("_id") {
                    // FK column: point at a parent row (parent has ≥30 rows).
                    row.push(Value::int(rng.gen_range(1..=30)));
                } else {
                    match col.dtype {
                        // Low-cardinality text values so grouping produces
                        // multi-row groups (needed for HAVING tasks).
                        DataType::Text => {
                            let base = TEXT_VALUES[rng.gen_range(0..16)];
                            row.push(Value::text(base));
                        }
                        DataType::Number => row.push(Value::int(rng.gen_range(1..=250))),
                    }
                }
            }
            rows.push(row);
        }
        db.insert_all(table_name, rows).unwrap();
    }
    // Populate the bridge table.
    if last != parent {
        let n_rows = rng.gen_range(60..=120);
        let link = |_| vec![Value::int(rng.gen_range(1..=30)), Value::int(rng.gen_range(1..=30))];
        let rows: Vec<Vec<Value>> = (0..n_rows).map(link).collect();
        db.insert_all(&bridge_name, rows).unwrap();
    }
    db
}

// ---------------------------------------------------------------------------
// Task generation
// ---------------------------------------------------------------------------

/// Generate one task of the requested difficulty against a database, or `None`
/// if the sampled query shape has an empty result (the paper removed such tasks).
fn generate_task(rng: &mut StdRng, db: &Database, level: Difficulty) -> Option<(SelectSpec, Nlq)> {
    let schema = db.schema();
    // Pick a base table with at least one text and one numeric non-key column.
    let tables: Vec<_> = (0..schema.table_count())
        .map(duoquest_db::TableId)
        .filter(|t| schema.table(*t).primary_key.is_some())
        .collect();
    let base = *tables.get(rng.gen_range(0..tables.len()))?;
    let text_cols: Vec<ColumnId> = schema
        .table_columns(base)
        .filter(|c| schema.column(*c).dtype == DataType::Text && !schema.is_key_column(*c))
        .collect();
    let num_cols: Vec<ColumnId> = schema
        .table_columns(base)
        .filter(|c| schema.column(*c).dtype == DataType::Number && !schema.is_key_column(*c))
        .collect();
    if text_cols.is_empty() || num_cols.is_empty() {
        return None;
    }
    let text_col = text_cols[rng.gen_range(0..text_cols.len())];
    let num_col = num_cols[rng.gen_range(0..num_cols.len())];
    let table_name = schema.table(base).name.clone();
    let text_name = qualified(schema, text_col);
    let num_name = qualified(schema, num_col);

    let mut builder = QueryBuilder::new(schema);
    let mut text_parts: Vec<String> = Vec::new();
    let mut literals: Vec<Literal> = Vec::new();

    // Projection shape.
    let shape = rng.gen_range(0..3);
    match (level, shape) {
        (Difficulty::Hard, _) => {
            builder = builder.select(&text_name).select_count_star().group_by(&text_name);
            text_parts.push(format!(
                "how many {table_name} records are there for each {}",
                schema.column(text_col).name
            ));
        }
        (_, 0) => {
            builder = builder.select(&text_name).select(&num_name);
            text_parts.push(format!(
                "show the {} and {} of all {table_name}s",
                schema.column(text_col).name,
                schema.column(num_col).name
            ));
        }
        (_, 1) => {
            builder = builder.select(&text_name);
            text_parts
                .push(format!("list the {} of all {table_name}s", schema.column(text_col).name));
        }
        _ => {
            let agg = [AggFunc::Max, AggFunc::Min, AggFunc::Avg][rng.gen_range(0..3)];
            builder = builder.select_agg(agg, &num_name);
            text_parts.push(format!(
                "what is the {} {} of {table_name}s",
                match agg {
                    AggFunc::Max => "maximum",
                    AggFunc::Min => "minimum",
                    _ => "average",
                },
                schema.column(num_col).name
            ));
        }
    }

    // Selection predicates (medium and optionally hard).
    if level != Difficulty::Easy && (level == Difficulty::Medium || rng.gen_bool(0.5)) {
        // Value predicate over a different column than the projected text column
        // so the "constant output column" semantic rule is not violated.
        let candidates: Vec<ColumnId> =
            text_cols.iter().chain(num_cols.iter()).copied().filter(|c| *c != text_col).collect();
        let pred_col = if candidates.is_empty() {
            num_col
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        let pred_name = qualified(schema, pred_col);
        match schema.column(pred_col).dtype {
            DataType::Text => {
                let value = sample_value(rng, db, pred_col)?;
                let Value::Text(s) = &value else { return None };
                builder = builder.filter(&pred_name, CmpOp::Eq, value.clone());
                text_parts.push(format!("whose {} is \"{s}\"", schema.column(pred_col).name));
                literals.push(Literal::text(s.clone(), value.clone()));
            }
            DataType::Number => {
                let (lo, hi) = db.numeric_range(pred_col)?;
                let threshold = (lo + (hi - lo) * rng.gen_range(0.2..0.8)).round();
                let op = if rng.gen_bool(0.5) { CmpOp::Gt } else { CmpOp::Lt };
                builder = builder.filter(&pred_name, op, threshold);
                text_parts.push(format!(
                    "with {} {} than {threshold}",
                    schema.column(pred_col).name,
                    if op == CmpOp::Gt { "greater" } else { "less" }
                ));
                literals.push(Literal::number(threshold));
            }
        }
    }

    // Grouping extras for hard tasks.
    if level == Difficulty::Hard && rng.gen_bool(0.5) {
        let threshold = rng.gen_range(1..=3) as i64;
        builder = builder.having(AggFunc::Count, None, CmpOp::Gt, threshold);
        text_parts.push(format!("keeping only groups with more than {threshold} records"));
        literals.push(Literal::number(threshold as f64));
    }

    // Ordering / limit.
    let wants_order = match level {
        Difficulty::Easy => shape == 1 && rng.gen_bool(0.4),
        Difficulty::Medium => rng.gen_bool(0.25),
        Difficulty::Hard => rng.gen_bool(0.4),
    };
    if wants_order {
        let desc = rng.gen_bool(0.5);
        if level == Difficulty::Hard {
            builder = builder.order_by_agg(AggFunc::Count, None, desc);
            text_parts.push(format!(
                "ordered from {} records",
                if desc { "most to least" } else { "least to most" }
            ));
        } else {
            builder = builder.order_by(&num_name, desc);
            text_parts.push(format!(
                "ordered by {} {}",
                schema.column(num_col).name,
                if desc { "from most to least" } else { "from least to most" }
            ));
        }
        if rng.gen_bool(0.3) {
            let k = rng.gen_range(3..=10) as i64;
            builder = builder.limit(k as usize);
            text_parts.push(format!("top {k} only"));
            literals.push(Literal::number(k as f64));
        }
    }

    let gold = builder.build().ok()?;
    // The paper removed tasks whose gold SQL produces an empty result.
    let result = execute(db, &gold).ok()?;
    if result.is_empty() {
        return None;
    }
    if Difficulty::classify(&gold) != level {
        return None;
    }
    let nlq = Nlq::with_literals(text_parts.join(", "), literals);
    Some((gold, nlq))
}

fn qualified(schema: &Schema, col: ColumnId) -> String {
    schema.qualified_name(col)
}

/// Sample an existing value from a column.
fn sample_value(rng: &mut StdRng, db: &Database, col: ColumnId) -> Option<Value> {
    let values: Vec<Value> = db.column_values(col).filter(|v| !v.is_null()).cloned().collect();
    if values.is_empty() {
        None
    } else {
        Some(values[rng.gen_range(0..values.len())].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_split_generates_requested_mix() {
        let ds = generate_small(3);
        let (easy, medium, hard) = ds.difficulty_counts();
        assert_eq!(ds.databases.len(), 4);
        assert_eq!(easy, 20);
        assert_eq!(medium, 20);
        assert_eq!(hard, 10);
        assert_eq!(ds.tasks.len(), 50);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_small(9);
        let b = generate_small(9);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.id, y.id);
            assert!(duoquest_sql::queries_equivalent(&x.gold, &y.gold));
        }
    }

    #[test]
    fn every_task_has_nonempty_result_and_matching_level() {
        let ds = generate_small(11);
        for t in &ds.tasks {
            let db = ds.database(t);
            let rs = execute(db, &t.gold).unwrap();
            assert!(!rs.is_empty(), "task {} has empty result", t.id);
            assert_eq!(Difficulty::classify(&t.gold), t.level);
            // Literal set covers every predicate constant.
            for p in &t.gold.predicates {
                assert!(
                    t.nlq.literals.iter().any(|l| l.value.sql_eq(&p.value)),
                    "task {} misses literal for predicate",
                    t.id
                );
            }
        }
    }

    #[test]
    fn schema_statistics_are_in_the_table5_ballpark() {
        let ds = generate_small(5);
        let avg_tables: f64 =
            ds.databases.iter().map(|d| d.schema().table_count() as f64).sum::<f64>()
                / ds.databases.len() as f64;
        let avg_fks: f64 =
            ds.databases.iter().map(|d| d.schema().foreign_key_count() as f64).sum::<f64>()
                / ds.databases.len() as f64;
        assert!((3.0..=6.0).contains(&avg_tables), "{avg_tables}");
        assert!((2.0..=5.0).contains(&avg_fks), "{avg_fks}");
    }
}
