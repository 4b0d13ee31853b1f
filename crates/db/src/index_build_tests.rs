//! The indexes `Database::rebuild_index` builds and the write path
//! maintains, and the §4 text index read through them, against a naive scan
//! of the cells they index.
//!
//! The specification is written out from the contracts in `table_index.rs`
//! and `index.rs`, not from their code: two cells match when they are the
//! same number (`-0.0` is `0.0`, every NaN is one NaN) or the same text up
//! to ASCII case; the sorted run puts NULL first, then numbers ascending,
//! then NaN, then text by bytes, ties by row id. Nothing below derives a
//! [`Key`](crate::types::Key), calls `ord_cmp` or sorts through the index.
//!
//! Tables are generated from seeds and salted with what the build treats
//! specially: NULLs, NaN, `-0.0` next to `0.0`, case variants of one word
//! (one key, not adjacent in the case-sensitive order), texts that differ
//! only after a long shared prefix, duplicates, number and text cells in
//! one column, an empty table and a one-row table.

use crate::database::{Database, Row};
use crate::index::IndexHit;
use crate::schema::{ColumnDef, ColumnId, Schema, TableDef};
use crate::table_index::ColumnIndex;
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Numbers the generator draws from: NULL, both zeros, NaN with two
/// payloads, infinities, a subnormal and small duplicates.
fn numbers() -> Vec<Value> {
    [0.0, -0.0, f64::NAN, f64::from_bits(f64::NAN.to_bits() | 1), 1.0, -1.0, 2.5, 2.5]
        .into_iter()
        .chain([f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(1), -1e300])
        .map(Value::Number)
        .chain([Value::Null])
        .collect()
}

/// Texts the generator draws from: case variants of two words, the empty
/// string, prefixes of one another, and case variants of texts that differ
/// only after a shared eight-byte prefix.
fn texts() -> Vec<Value> {
    ["abc", "Abc", "ABC", "abd", "Abd", "", "a", "ab", "X y", "x Y", "zeta"]
        .into_iter()
        .chain(["abcdefgh", "abcdefgh-1", "ABCDEFGH-1", "abcdefgh-2", "abcdefgh-10"])
        .map(Value::text)
        .chain([Value::Null])
        .collect()
}

/// Values looked up but never generated.
fn absent() -> Vec<Value> {
    let texts = ["abcd", "q", "abcdefgh-0", "Abcdefgh-11", "abcdefg"].map(Value::text);
    [Value::Number(7.0), Value::Number(-2.5)].into_iter().chain(texts).collect()
}

/// A xorshift stream: `pick(k)` is uniform enough in `0..k`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d))
    }

    fn pick(&mut self, k: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % k as u64) as usize
    }

    fn cell(&mut self, pool: &[Value]) -> Value {
        pool[self.pick(pool.len())].clone()
    }
}

/// Whether two cells match under the index's equality.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::Text(x), Value::Text(y)) => x.eq_ignore_ascii_case(y),
        _ => false,
    }
}

/// The sorted run's value order: NULL < numbers < NaN < text.
fn run_order(a: &Value, b: &Value) -> Ordering {
    let class = |v: &Value| match v {
        Value::Null => 0,
        Value::Number(n) if !n.is_nan() => 1,
        Value::Number(_) => 2,
        Value::Text(_) => 3,
    };
    match (a, b) {
        (Value::Number(x), Value::Number(y)) if class(a) == 1 && class(b) == 1 => {
            if x < y {
                Ordering::Less
            } else if x > y {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        (Value::Text(x), Value::Text(y)) => x.as_bytes().cmp(y.as_bytes()),
        _ => class(a).cmp(&class(b)),
    }
}

/// Every reader of a column index against a scan of `cells`. `exact` also
/// holds the conservative bound `can_order` to the scan; an incrementally
/// maintained index only bounds it.
fn check_column(cells: &[&Value], idx: &ColumnIndex, exact: bool, what: &str) {
    let n = cells.len();
    let ordered = idx.ordered();
    assert_eq!(ordered.iter().copied().collect::<BTreeSet<_>>(), (0..n).collect(), "{what}");
    assert_eq!(ordered.len(), n, "{what}: every row once");
    for pair in ordered.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let order = run_order(cells[a], cells[b]);
        assert!(
            order == Ordering::Less || (order == Ordering::Equal && a < b),
            "{what}: row {a} ({:?}) before row {b} ({:?})",
            cells[a],
            cells[b]
        );
    }

    let matches = |v: &Value| (0..n).filter(|&i| same(cells[i], v)).collect::<Vec<_>>();
    for v in cells.iter().copied().chain(&numbers()).chain(&texts()).chain(&absent()) {
        assert_eq!(idx.lookup(v), matches(v), "{what}: lookup {v:?}");
    }
    let distinct = (0..n).filter(|&i| !cells[i].is_null() && matches(cells[i])[0] == i).count();
    assert_eq!(idx.distinct_keys(), distinct, "{what}: one list per distinct value");
    let non_null = cells.iter().filter(|v| !v.is_null()).count();
    assert_eq!(idx.mean_matches(), non_null as f64 / distinct.max(1) as f64, "{what}");

    let nan = cells.iter().any(|v| v.as_number().is_some_and(f64::is_nan));
    if exact {
        assert_eq!(idx.can_order(), !nan, "{what}: can_order");
    } else {
        assert!(!nan || !idx.can_order(), "{what}: can_order is an upper bound");
    }

    // NaN is neither below nor above anything, so a column of NaNs keeps
    // the empty interval.
    let mut range = None;
    for n in cells.iter().filter_map(|v| v.as_number()) {
        let (min, max) = range.get_or_insert((f64::INFINITY, f64::NEG_INFINITY));
        if n < *min {
            *min = n;
        }
        if n > *max {
            *max = n;
        }
    }
    let rows: Vec<Row> = cells.iter().map(|&v| Row(vec![v.clone()])).collect();
    assert_eq!(idx.numeric_range(&rows, 0), range, "{what}: numeric_range");
}

/// Every reader of the text index against a scan of `db`'s text columns.
fn check_text_index(db: &Database, what: &str) {
    let schema = db.schema();
    let text_columns: Vec<ColumnId> =
        schema.all_columns().filter(|&c| schema.column(c).dtype == DataType::Text).collect();
    let lowered = |c: ColumnId| -> BTreeSet<String> {
        db.column_values(c).filter_map(Value::as_text).map(str::to_ascii_lowercase).collect()
    };
    let index = db.index();
    for probe in texts().iter().chain(&absent()).filter_map(Value::as_text) {
        let hits: Vec<IndexHit> = text_columns
            .iter()
            .map(|&column| IndexHit {
                column,
                count: db
                    .column_values(column)
                    .filter(|v| v.as_text().is_some_and(|t| t.eq_ignore_ascii_case(probe)))
                    .count(),
            })
            .filter(|hit| hit.count > 0)
            .collect();
        assert_eq!(index.lookup(probe), hits, "{what}: lookup {probe:?}");
        assert_eq!(index.contains(probe), !hits.is_empty(), "{what}: contains {probe:?}");
    }
    let everything: BTreeSet<String> = text_columns.iter().flat_map(|&c| lowered(c)).collect();

    let complete = |values: &BTreeSet<String>, prefix: &str, limit: usize| -> Vec<String> {
        let prefix = prefix.to_ascii_lowercase();
        values.iter().filter(|v| v.starts_with(&prefix)).take(limit).cloned().collect()
    };
    for prefix in ["", "a", "AB", "abc", "x", "X Y", "q", "ABCDEFGH", "abcdefgh-1"] {
        for limit in [0, 1, 2, 100] {
            assert_eq!(
                index.autocomplete(prefix, limit),
                complete(&everything, prefix, limit),
                "{what}: autocomplete {prefix:?} {limit}"
            );
            for column in schema.all_columns() {
                let values =
                    if text_columns.contains(&column) { lowered(column) } else { BTreeSet::new() };
                assert_eq!(
                    index.autocomplete_column(column, prefix, limit),
                    complete(&values, prefix, limit),
                    "{what}: autocomplete {column:?} {prefix:?} {limit}"
                );
            }
        }
    }
}

/// Every column index of `db` (built or maintained) against the scan.
fn check_columns(db: &Database, exact: bool, what: &str) {
    for col in db.schema().all_columns() {
        let cells: Vec<&Value> = db.column_values(col).collect();
        let idx = db.column_index(col);
        check_column(&cells, idx, exact, &format!("{what}, {col:?}"));
    }
}

/// A generated database: `t` with up to 80 rows, `empty` and `one`.
fn generated(g: &mut Gen) -> Database {
    let mut s = Schema::new("generated");
    s.add_table(TableDef::new(
        "t",
        vec![ColumnDef::number("n"), ColumnDef::text("s"), ColumnDef::text("u")],
        None,
    ));
    s.add_table(TableDef::new("empty", vec![ColumnDef::number("n"), ColumnDef::text("s")], None));
    s.add_table(TableDef::new("one", vec![ColumnDef::number("n"), ColumnDef::text("s")], None));
    let mut db = Database::new(s).unwrap();
    let (numbers, texts) = (numbers(), texts());
    for _ in 0..g.pick(81) {
        let row = vec![g.cell(&numbers), g.cell(&texts), g.cell(&texts)];
        db.insert("t", row).unwrap();
    }
    db.insert("one", vec![g.cell(&numbers), g.cell(&texts)]).unwrap();
    db
}

#[test]
fn rebuilt_indexes_equal_a_scan_of_generated_tables() {
    for seed in 0..64 {
        let mut g = Gen::new(seed);
        let mut db = generated(&mut g);
        db.rebuild_index();
        check_columns(&db, true, &format!("seed {seed}"));
        check_text_index(&db, &format!("seed {seed}"));
    }
}

#[test]
fn column_indexes_over_mixed_cells_equal_a_scan() {
    let pool: Vec<Value> = numbers().into_iter().chain(texts()).collect();
    for seed in 0..64 {
        let mut g = Gen::new(seed);
        let cells: Vec<Value> = (0..g.pick(81)).map(|_| g.cell(&pool)).collect();
        let rows: Vec<Row> = cells.iter().map(|v| Row(vec![v.clone()])).collect();
        let idx = ColumnIndex::build(&rows, 0);
        check_column(&cells.iter().collect::<Vec<_>>(), &idx, true, &format!("seed {seed}"));
    }
    for cells in [vec![], vec![Value::Null], vec![Value::Number(f64::NAN)], vec![Value::text("A")]]
    {
        let rows: Vec<Row> = cells.iter().map(|v| Row(vec![v.clone()])).collect();
        let idx = ColumnIndex::build(&rows, 0);
        check_column(&cells.iter().collect::<Vec<_>>(), &idx, true, &format!("{cells:?}"));
    }
}

#[test]
fn maintained_indexes_equal_a_fresh_rebuild() {
    let (numbers, texts) = (numbers(), texts());
    let cell = |g: &mut Gen, dtype: DataType| match dtype {
        DataType::Number => g.cell(&numbers),
        DataType::Text => g.cell(&texts),
    };
    for seed in 0..64 {
        let mut g = Gen::new(seed);
        let mut db = generated(&mut g);
        db.rebuild_index();
        for _ in 0..=g.pick(40) {
            let table = ["t", "empty", "one"][g.pick(3)];
            let tid = db.schema().table_id(table).unwrap();
            let def = db.schema().table(tid).clone();
            let rows = db.table_data(tid).len();
            if rows == 0 || g.pick(3) == 0 {
                let row = def.columns.iter().map(|c| cell(&mut g, c.dtype)).collect();
                db.insert(table, row).unwrap();
            } else {
                let column = &def.columns[g.pick(def.columns.len())];
                let value = cell(&mut g, column.dtype);
                db.update_cell(table, g.pick(rows), &column.name, value).unwrap();
            }
        }
        let what = format!("seed {seed}");
        check_columns(&db, false, &format!("{what}, maintained"));
        check_text_index(&db, &format!("{what}, maintained"));

        let mut fresh = db.clone();
        fresh.rebuild_index();
        for col in db.schema().all_columns() {
            let (kept, rebuilt) = (db.column_index(col), fresh.column_index(col));
            assert_eq!(kept.ordered(), rebuilt.ordered(), "{what}, {col:?}");
            for v in db.column_values(col).chain(&numbers).chain(&texts).chain(&absent()) {
                assert_eq!(kept.lookup(v), rebuilt.lookup(v), "{what}, {col:?}: lookup {v:?}");
            }
            assert_eq!(kept.distinct_keys(), rebuilt.distinct_keys(), "{what}, {col:?}");
        }
        check_columns(&fresh, true, &format!("{what}, rebuilt"));
        check_text_index(&fresh, &format!("{what}, rebuilt"));
    }
}
