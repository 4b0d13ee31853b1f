//! Property-based tests on the core data structures and invariants: value
//! comparison semantics, TSQ cell matching, executor algebraic invariants,
//! canonical equivalence, and confidence-score normalization.
//!
//! Each property is exercised over a seeded stream of randomly generated
//! inputs (64 cases per property, mirroring the original proptest
//! configuration). The generator is the workspace's deterministic `StdRng`,
//! so failures are reproducible from the printed case number.

use duoquest::core::TsqCell;
use duoquest::db::{
    execute, AggFunc, CmpOp, ColumnDef, Database, JoinTree, Predicate, Schema, SelectItem,
    SelectSpec, TableDef, Value,
};
use duoquest::nlq::guidance::normalize_scores;
use duoquest::sql::queries_equivalent;
use duoquest::workloads::canonicalize_select;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// Run `body` for `CASES` seeded inputs, reporting the failing case number.
fn for_each_case(property: &str, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD00_F00D ^ (case * 2_654_435_761));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = result {
            eprintln!("property `{property}` failed on case {case}");
            std::panic::resume_unwind(panic);
        }
    }
}

fn small_db(rows: &[(String, f64)]) -> Database {
    let mut schema = Schema::new("t");
    schema.add_table(TableDef::new(
        "items",
        vec![ColumnDef::number("id"), ColumnDef::text("name"), ColumnDef::number("score")],
        Some(0),
    ));
    let mut db = Database::new(schema).unwrap();
    for (i, (name, score)) in rows.iter().enumerate() {
        db.insert(
            "items",
            vec![Value::int(i as i64), Value::text(name.clone()), Value::Number(*score)],
        )
        .unwrap();
    }
    db.rebuild_index();
    db
}

/// A short lowercase name, matching the original `[a-z]{1,8}` strategy.
fn gen_name(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=8usize);
    (0..len).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect()
}

/// 1..40 `(name, score)` rows with scores in ±1000, matching `rows_strategy`.
fn gen_rows(rng: &mut StdRng) -> Vec<(String, f64)> {
    let n = rng.gen_range(1..40usize);
    (0..n).map(|_| (gen_name(rng), rng.gen_range(-1000.0..1000.0))).collect()
}

#[test]
fn value_sql_eq_is_symmetric() {
    for_each_case("value_sql_eq_is_symmetric", |rng| {
        let (a, b) = (rng.gen_range(-1000.0..1000.0), rng.gen_range(-1000.0..1000.0));
        let (va, vb) = (Value::Number(a), Value::Number(b));
        assert_eq!(va.sql_eq(&vb), vb.sql_eq(&va));
    });
}

#[test]
fn value_total_cmp_is_antisymmetric() {
    for_each_case("value_total_cmp_is_antisymmetric", |rng| {
        let (va, vb) = (Value::text(gen_name(rng)), Value::text(gen_name(rng)));
        assert_eq!(va.total_cmp(&vb), vb.total_cmp(&va).reverse());
    });
}

#[test]
fn tsq_range_cell_contains_its_endpoints() {
    for_each_case("tsq_range_cell_contains_its_endpoints", |rng| {
        let lo = rng.gen_range(-1000.0..1000.0);
        let hi = lo + rng.gen_range(0.0..100.0);
        let cell = TsqCell::range(lo, hi);
        assert!(cell.matches(&Value::Number(lo)));
        assert!(cell.matches(&Value::Number(hi)));
        assert!(!cell.matches(&Value::Number(hi + 1.0)));
        assert!(!cell.matches(&Value::Number(lo - 1.0)));
    });
}

#[test]
fn executor_filter_never_grows_the_result() {
    for_each_case("executor_filter_never_grows_the_result", |rng| {
        let rows = gen_rows(rng);
        let threshold = rng.gen_range(-1000.0..1000.0);
        let db = small_db(&rows);
        let schema = db.schema();
        let name = schema.column_id("items", "name").unwrap();
        let score = schema.column_id("items", "score").unwrap();
        let base = SelectSpec {
            select: vec![SelectItem::column(name)],
            join: JoinTree::single(schema.table_id("items").unwrap()),
            ..Default::default()
        };
        let filtered = SelectSpec {
            predicates: vec![Predicate::new(score, CmpOp::Gt, Value::Number(threshold))],
            ..base.clone()
        };
        let all = execute(&db, &base).unwrap();
        let some = execute(&db, &filtered).unwrap();
        assert!(some.len() <= all.len());
        assert_eq!(all.len(), rows.len());
    });
}

#[test]
fn executor_limit_is_respected() {
    for_each_case("executor_limit_is_respected", |rng| {
        let rows = gen_rows(rng);
        let limit = rng.gen_range(0..50usize);
        let db = small_db(&rows);
        let schema = db.schema();
        let name = schema.column_id("items", "name").unwrap();
        let spec = SelectSpec {
            select: vec![SelectItem::column(name)],
            join: JoinTree::single(schema.table_id("items").unwrap()),
            limit: Some(limit),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert!(rs.len() <= limit);
    });
}

#[test]
fn executor_order_by_sorts() {
    for_each_case("executor_order_by_sorts", |rng| {
        let rows = gen_rows(rng);
        let desc = rng.gen::<bool>();
        let db = small_db(&rows);
        let schema = db.schema();
        let score = schema.column_id("items", "score").unwrap();
        let spec = SelectSpec {
            select: vec![SelectItem::column(score)],
            join: JoinTree::single(schema.table_id("items").unwrap()),
            order_by: Some(duoquest::db::OrderSpec {
                key: duoquest::db::OrderKey::Column(score),
                desc,
            }),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        let values: Vec<f64> = rs.rows.iter().filter_map(|r| r.0[0].as_number()).collect();
        for w in values.windows(2) {
            if desc {
                assert!(w[0] >= w[1]);
            } else {
                assert!(w[0] <= w[1]);
            }
        }
    });
}

#[test]
fn count_star_equals_row_count() {
    for_each_case("count_star_equals_row_count", |rng| {
        let rows = gen_rows(rng);
        let db = small_db(&rows);
        let schema = db.schema();
        let spec = SelectSpec {
            select: vec![SelectItem::count_star()],
            join: JoinTree::single(schema.table_id("items").unwrap()),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.rows[0].0[0].as_number(), Some(rows.len() as f64));
    });
}

#[test]
fn canonical_equivalence_is_reflexive_and_order_insensitive() {
    for_each_case("canonical_equivalence_is_reflexive_and_order_insensitive", |rng| {
        let rows = gen_rows(rng);
        let db = small_db(&rows);
        let schema = db.schema();
        let name = schema.column_id("items", "name").unwrap();
        let score = schema.column_id("items", "score").unwrap();
        let spec = SelectSpec {
            select: vec![SelectItem::column(score), SelectItem::column(name)],
            join: JoinTree::single(schema.table_id("items").unwrap()),
            predicates: vec![
                Predicate::new(score, CmpOp::Gt, Value::int(0)),
                Predicate::new(name, CmpOp::Eq, Value::text("alpha")),
            ],
            ..Default::default()
        };
        assert!(queries_equivalent(&spec, &spec));
        let mut shuffled = spec.clone();
        shuffled.select.reverse();
        shuffled.predicates.reverse();
        assert!(queries_equivalent(&spec, &shuffled));
        let canon = canonicalize_select(&spec);
        assert!(queries_equivalent(&spec, &canon));
        // A literal compares by its folded bits: `-0.0` is `0.0`, and a NaN
        // is a NaN whatever its payload — but not a zero.
        let with = |n: f64| SelectSpec {
            having: vec![Predicate::having(AggFunc::Max, Some(score), CmpOp::Ge, Value::Number(n))],
            ..spec.clone()
        };
        let nan = f64::from_bits(f64::NAN.to_bits() | rng.gen_range(1..1u64 << 20));
        assert!(queries_equivalent(&with(-0.0), &with(0.0)));
        assert!(queries_equivalent(&with(f64::NAN), &with(nan)));
        assert!(!queries_equivalent(&with(0.0), &with(nan)));
    });
}

#[test]
fn normalized_scores_form_a_distribution() {
    for_each_case("normalized_scores_form_a_distribution", |rng| {
        let n = rng.gen_range(1..20usize);
        let raw: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
        let scores = normalize_scores(&raw);
        let sum: f64 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(scores.iter().all(|s| *s >= 0.0 && *s <= 1.0 + 1e-12));
    });
}

#[test]
fn group_by_partitions_rows() {
    // Deterministic companion check: the grouped COUNT(*) values sum to the row count.
    let rows: Vec<(String, f64)> =
        ["a", "b", "a", "c", "b", "a"].iter().map(|s| (s.to_string(), 1.0)).collect();
    let db = small_db(&rows);
    let schema = db.schema();
    let name = schema.column_id("items", "name").unwrap();
    let spec = SelectSpec {
        select: vec![SelectItem::column(name), SelectItem::count_star()],
        join: JoinTree::single(schema.table_id("items").unwrap()),
        group_by: vec![name],
        ..Default::default()
    };
    let rs = execute(&db, &spec).unwrap();
    let total: f64 = rs.rows.iter().filter_map(|r| r.0[1].as_number()).sum();
    assert_eq!(total, rows.len() as f64);
    assert_eq!(rs.len(), 3);
}
