//! What the workspace tests share. `tests/semijoin.rs` (the reduced plans)
//! and `tests/reference.rs` (every executor path) hold the executor to the
//! naive evaluator ([`naive`]) in its canonical row order, over the seeded
//! `SelectSpec` generator —
//! databases salted with NULL, NaN and re-cased text, join trees rooted
//! anywhere, literals that hit and miss, AND and OR, LIKE, grouping on one
//! and two columns, HAVING, global aggregates, ordering — over NaN-holding
//! columns too — DISTINCT (ordered by a projected text column too) and
//! limits. The tests of runs on a pool share
//! [`drive`], the one way they wait for a driven session.

// Each test binary uses its own part of this module.
#![allow(dead_code)]

pub mod naive;

use duoquest::core::{Candidate, DrivenOutcome, SchedulerHandle, SynthesisSession};
use duoquest::db::{
    AggFunc, CmpOp, ColumnId, DataType, Database, ExecMetrics, JoinEdge, JoinTree, LogicalOp,
    OrderKey, OrderSpec, Predicate, SelectItem, SelectSpec, TableId, Value,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::mpsc;

/// Run `session` on `handle`'s pool and wait for how it ended:
/// [`SynthesisSession::spawn_driven`] with `sink` as its candidate callback
/// (on a pool worker; `false` stops the run) and one channel carrying the
/// outcome back to the calling thread.
pub fn drive(
    session: SynthesisSession,
    handle: &SchedulerHandle,
    sink: impl FnMut(&Candidate) -> bool + Send + 'static,
) -> DrivenOutcome {
    let (done_tx, done_rx) = mpsc::channel();
    session.spawn_driven(
        handle,
        Box::new(sink),
        Box::new(move |outcome| {
            let _ = done_tx.send(outcome);
        }),
    );
    done_rx.recv().expect("a driven session always resolves")
}

/// A copy of `db` with a NULL, a NaN and an upper-cased text planted in
/// every table that has the column for it (keys included: a NULL join key
/// matches nothing, a NaN one matches NaN, on every path).
///
/// Every text column also gets **case-variant pairs**: the upper-cased
/// text of the row holding its smallest folded key, and the lower-cased
/// text of the row holding its largest, each copied into a later row. So
/// `abc` / `ABC`, one key that sorts two ways, meets a `DISTINCT … ORDER
/// BY` of the column in either direction with the variant the sorted run
/// meets first coming second in storage order. The pairs are planted after
/// the salt, with no draw from `rng`.
pub fn salted(db: &Database, rng: &mut StdRng) -> Database {
    let mut out = db.clone();
    let schema = db.schema().clone();
    for t in 0..schema.table_count() {
        let table = schema.table(TableId(t));
        let rows = db.table_data(TableId(t)).rows.len();
        if rows == 0 {
            continue;
        }
        for (ci, def) in table.columns.iter().enumerate() {
            if table.primary_key == Some(ci) {
                continue;
            }
            let row = rng.gen_range(0..rows);
            let old = db.cell(TableId(t), row, ci).clone();
            let new = match (def.dtype, rng.gen_range(0..3)) {
                (_, 0) => Value::Null,
                (DataType::Number, _) => Value::Number(f64::NAN),
                (DataType::Text, _) => match old {
                    Value::Text(s) => Value::text(s.to_uppercase()),
                    other => other,
                },
            };
            out.update_cell(&table.name, row, &def.name, new).unwrap();
        }
    }
    let planted = plant_case_variants(&mut out);
    assert!(planted >= CASE_VARIANT_FLOOR, "only {planted} case-variant pairs planted");
    out
}

/// The fewest case-variant pairs [`salted`] must plant in a MAS or Spider
/// database (the reference and semi-join tests' databases get 10–18).
const CASE_VARIANT_FLOOR: usize = 8;

/// Plant [`salted`]'s case-variant pairs; returns how many it planted (a
/// key with no letter to re-case gets none).
fn plant_case_variants(db: &mut Database) -> usize {
    let schema = db.schema().clone();
    let mut planted = 0;
    for t in (0..schema.table_count()).map(TableId) {
        let table = schema.table(t);
        let rows = db.table_data(t).rows.len();
        if rows < 2 {
            continue;
        }
        for (ci, def) in table.columns.iter().enumerate() {
            if def.dtype != DataType::Text || table.primary_key == Some(ci) {
                continue;
            }
            // Ascending, the sorted run meets the upper-cased variant of
            // the smallest key first; descending, the lower-cased one of the
            // largest. Each goes into a row after its source, so storage
            // order meets it second.
            let mut sources = Vec::new();
            for (into, largest) in [(rows - 1, false), (rows - 2, true)] {
                let folded = (0..rows).filter_map(|ri| match db.cell(t, ri, ci) {
                    Value::Text(s) => Some((s.to_ascii_lowercase(), ri)),
                    _ => None,
                });
                let extreme = if largest { folded.max() } else { folded.min() };
                let Some((_, from)) = extreme else { continue };
                let Value::Text(text) = db.cell(t, from, ci) else { unreachable!("a text cell") };
                let variant =
                    if largest { text.to_ascii_lowercase() } else { text.to_ascii_uppercase() };
                sources.push(from);
                if variant == *text || into <= from || sources.contains(&into) {
                    continue;
                }
                db.update_cell(&table.name, into, &def.name, Value::text(variant)).unwrap();
                planted += 1;
            }
        }
    }
    planted
}

/// A copy of `db` with the gaps a counting pass must survive: in every table
/// a few rows stored twice, so join keys — primary keys included — repeat
/// and a row can match two rows of a neighbour; and, with `empty_one`, one
/// table emptied.
pub fn gapped(db: &Database, rng: &mut StdRng, empty_one: bool) -> Database {
    let schema = db.schema().clone();
    let emptied = empty_one.then(|| TableId(rng.gen_range(0..schema.table_count())));
    let mut out = Database::new(schema.clone()).unwrap();
    for t in (0..schema.table_count()).map(TableId).filter(|&t| Some(t) != emptied) {
        let rows = &db.table_data(t).rows;
        let mut copy: Vec<Vec<Value>> = rows.iter().map(|row| row.0.clone()).collect();
        for _ in 0..rows.len().min(4) {
            copy.push(rows[rng.gen_range(0..rows.len())].0.clone());
        }
        out.insert_all(&schema.table(t).name, copy).unwrap();
    }
    out
}

/// What shapes the generated counting specs had.
#[derive(Default)]
pub struct CountShapes {
    literals: Literals,
    pub global: usize,
    pub grouped: usize,
    pub grouped_by_two: usize,
    pub having: usize,
    pub ordered_by_count: usize,
    pub distinct: usize,
    pub outside: usize,
}

impl CountShapes {
    /// The run must have met the cases it is there for.
    pub fn assert_every_class_occurred(&self, seed: u64) {
        for (what, n) in [
            ("NULL literal", self.literals.null),
            ("missing literal", self.literals.miss),
            ("global COUNT(*)", self.global),
            ("GROUP BY first-table columns", self.grouped),
            ("GROUP BY two first-table columns", self.grouped_by_two),
            ("HAVING COUNT(*)", self.having),
            ("ORDER BY COUNT(*)", self.ordered_by_count),
            ("DISTINCT", self.distinct),
            ("outside the counting fragment", self.outside),
        ] {
            assert!(n >= 5, "seed {seed}: only {n} generated counting cases of {what}");
        }
    }
}

/// A counting query over an FK tree of 2–4 tables: a global `COUNT(*)`, or
/// `COUNT(*)` grouped by one or two first-table columns, with `HAVING
/// COUNT(*)`, `ORDER BY COUNT(*)` (whose small counts tie often), `DISTINCT`
/// and a `LIMIT` drawn at random over AND-combined literals, NULL ones
/// included. One case in eight leaves the counting fragment — a grouping
/// column on another table, or two predicates under OR — so the fallback
/// meets the same oracle.
pub fn random_count_spec(db: &Database, rng: &mut StdRng, seen: &mut CountShapes) -> SelectSpec {
    let join = loop {
        let size = rng.gen_range(2..=4);
        let join = random_tree(db, rng, size);
        if join.tables.len() > 1 {
            break join;
        }
    };
    let root = JoinTree::single(join.tables[0]);
    let mut spec = SelectSpec { join: join.clone(), ..Default::default() };
    for _ in 0..rng.gen_range(0..=2) {
        spec.predicates.push(random_predicate(db, &join, rng, &mut seen.literals));
    }
    let outside = rng.gen_range(0..8) == 0;
    seen.outside += usize::from(outside);
    if outside && spec.predicates.len() == 2 {
        spec.predicate_op = LogicalOp::Or;
    }
    let count = SelectItem::count_star();
    let count_having = |rng: &mut StdRng| {
        let (op, n) = match rng.gen_range(0..3) {
            0 => (CmpOp::Ge, 2),
            1 => (CmpOp::Lt, 3),
            _ => (CmpOp::Gt, 0),
        };
        Predicate::having(AggFunc::Count, None, op, Value::int(n))
    };
    if rng.gen_range(0..4) == 0 {
        seen.global += 1;
        spec.select = vec![count];
        if rng.gen_bool(0.3) {
            spec.select.push(SelectItem::column(random_column(db, &root, rng)));
        }
    } else {
        seen.grouped += 1;
        let of = if outside && spec.predicate_op == LogicalOp::And { &join } else { &root };
        spec.group_by = vec![random_column(db, of, rng)];
        if rng.gen_bool(0.3) {
            spec.group_by.push(random_column(db, &root, rng));
            seen.grouped_by_two += 1;
        }
        spec.select = spec.group_by.iter().map(|&key| SelectItem::column(key)).collect();
        spec.select.push(count);
        if rng.gen_bool(0.5) {
            let key = OrderKey::Aggregate(AggFunc::Count, None);
            spec.order_by = Some(OrderSpec { key, desc: rng.gen_bool(0.5) });
            seen.ordered_by_count += 1;
        }
        if rng.gen_bool(0.2) {
            spec.distinct = true;
            seen.distinct += 1;
        }
        if rng.gen_bool(0.3) {
            spec.limit = Some(rng.gen_range(1..4));
        }
    }
    if rng.gen_bool(0.4) {
        spec.having = vec![count_having(rng)];
        seen.having += 1;
    }
    spec
}

/// A join tree of up to `size` tables grown from a random root along random
/// foreign keys in either direction; the root is the executor's first table.
fn random_tree(db: &Database, rng: &mut StdRng, size: usize) -> JoinTree {
    let schema = db.schema();
    let mut tables = vec![TableId(rng.gen_range(0..schema.table_count()))];
    let mut edges = Vec::new();
    while tables.len() < size {
        let mut options = Vec::new();
        for &t in &tables {
            for fk in schema.foreign_keys_of(t) {
                let other = if fk.from.table == t { fk.to.table } else { fk.from.table };
                if !tables.contains(&other) {
                    options.push((fk, other));
                }
            }
        }
        if options.is_empty() {
            break;
        }
        let (fk, other) = options[rng.gen_range(0..options.len())];
        tables.push(other);
        edges.push(JoinEdge { fk });
    }
    JoinTree { tables: tables.into(), edges: edges.into() }
}

fn random_column(db: &Database, tree: &JoinTree, rng: &mut StdRng) -> ColumnId {
    let table = tree.tables[rng.gen_range(0..tree.tables.len())];
    ColumnId { table, column: rng.gen_range(0..db.schema().table(table).columns.len()) }
}

/// What kinds of literal the generated predicates carried.
#[derive(Default)]
pub struct Literals {
    hit: usize,
    miss: usize,
    null: usize,
    nan: usize,
    recased: usize,
    like: usize,
}

fn random_predicate(
    db: &Database,
    tree: &JoinTree,
    rng: &mut StdRng,
    seen: &mut Literals,
) -> Predicate {
    let col = random_column(db, tree, rng);
    let rows = &db.table_data(col.table).rows;
    let dtype = db.schema().column(col).dtype;
    let stored =
        (!rows.is_empty()).then(|| rows[rng.gen_range(0..rows.len())].0[col.column].clone());
    let value = match (rng.gen_range(0..10), stored, dtype) {
        (0, ..) => {
            seen.null += 1;
            Value::Null
        }
        (1, _, DataType::Number) => {
            seen.nan += 1;
            Value::Number(f64::NAN)
        }
        (2 | 3, _, DataType::Number) | (_, None, DataType::Number) => {
            seen.miss += 1;
            Value::Number(-7.5e9)
        }
        (1..=3, _, DataType::Text) | (_, None, DataType::Text) => {
            seen.miss += 1;
            Value::text("no such value")
        }
        (4 | 5, Some(Value::Text(s)), _) => {
            seen.recased += 1;
            Value::text(if rng.gen_bool(0.5) { s.to_uppercase() } else { s.to_lowercase() })
        }
        (_, Some(v), _) => {
            seen.hit += 1;
            v
        }
    };
    let op = match (dtype, rng.gen_range(0..10)) {
        (_, 0..=5) => CmpOp::Eq,
        (_, 6) => CmpOp::Ne,
        (DataType::Number, 7) => CmpOp::Lt,
        (DataType::Number, 8) => CmpOp::Ge,
        (DataType::Number, _) => CmpOp::Between,
        (DataType::Text, _) => CmpOp::Like,
    };
    match (op, &value) {
        (CmpOp::Between, Value::Number(n)) => {
            Predicate::between(col, Value::Number(n - 3.0), Value::Number(n + 3.0))
        }
        (CmpOp::Like, Value::Text(s)) => {
            seen.like += 1;
            let inner: String = s.chars().skip(1).take(6).collect();
            Predicate::new(col, CmpOp::Like, Value::text(format!("%{inner}%")))
        }
        (CmpOp::Between | CmpOp::Like, _) => Predicate::new(col, CmpOp::Eq, value),
        _ => Predicate::new(col, op, value),
    }
}

fn random_limit(rng: &mut StdRng) -> Option<usize> {
    match rng.gen_range(0..6) {
        0 => Some(0),
        1 | 2 => Some(1),
        3 => Some(rng.gen_range(2..8)),
        _ => None,
    }
}

/// What shapes the generated specs had, and which executor paths they took.
#[derive(Default)]
pub struct Shapes {
    literals: Literals,
    or: usize,
    grouped: usize,
    grouped_by_two: usize,
    having: usize,
    global: usize,
    ordered_first: usize,
    ordered_other: usize,
    ordered_over_nan: usize,
    distinct: usize,
    distinct_by_projected_text: usize,
    multi_table: usize,
    zero_limit: usize,
    bailed: usize,
    streamed: usize,
}

impl Shapes {
    /// Record which path the default options took for a generated spec.
    pub fn note_run(&mut self, metrics: &ExecMetrics) {
        self.bailed += metrics.probes_bailed_empty as usize;
        self.streamed += usize::from(metrics.streamed);
    }

    /// The run must have met the cases it is there for; prints what it met.
    pub fn assert_every_class_occurred(&self, seed: u64) {
        let l = &self.literals;
        let classes = [
            ("hit", l.hit),
            ("miss", l.miss),
            ("NULL", l.null),
            ("NaN", l.nan),
            ("re-cased text", l.recased),
            ("LIKE", l.like),
            ("OR", self.or),
            ("GROUP BY", self.grouped),
            ("GROUP BY two columns", self.grouped_by_two),
            ("HAVING", self.having),
            ("global aggregate", self.global),
            ("ORDER BY a first-table column", self.ordered_first),
            ("ORDER BY another table's column", self.ordered_other),
            ("ORDER BY a column holding a NaN", self.ordered_over_nan),
            ("DISTINCT", self.distinct),
            ("DISTINCT ordered by a projected text column", self.distinct_by_projected_text),
            ("joins", self.multi_table),
            ("LIMIT 0", self.zero_limit),
            ("proven-empty probes", self.bailed),
            ("streamed probes", self.streamed),
        ];
        let tally: Vec<String> = classes.iter().map(|(what, n)| format!("{what} {n}")).collect();
        println!("seed {seed}: {}", tally.join(", "));
        for (what, n) in classes {
            assert!(n >= 5, "seed {seed}: only {n} generated cases of {what}");
        }
    }
}

pub fn random_spec(db: &Database, rng: &mut StdRng, seen: &mut Shapes) -> SelectSpec {
    let size = rng.gen_range(1..=5);
    let join = random_tree(db, rng, size);
    seen.multi_table += usize::from(join.tables.len() > 1);
    let mut spec = SelectSpec { join: join.clone(), ..Default::default() };
    for _ in 0..rng.gen_range(0..=3) {
        spec.predicates.push(random_predicate(db, &join, rng, &mut seen.literals));
    }
    if spec.predicates.len() > 1 && rng.gen_bool(0.3) {
        spec.predicate_op = LogicalOp::Or;
        seen.or += 1;
    }
    spec.limit = random_limit(rng);
    seen.zero_limit += usize::from(spec.limit == Some(0));
    let count_having = |rng: &mut StdRng| {
        let (op, n) = if rng.gen_bool(0.5) { (CmpOp::Ge, 2) } else { (CmpOp::Lt, 1) };
        Predicate::having(AggFunc::Count, None, op, Value::int(n))
    };
    match rng.gen_range(0..10) {
        0..=4 => {
            for _ in 0..rng.gen_range(1..=2) {
                spec.select.push(SelectItem::column(random_column(db, &join, rng)));
            }
            if rng.gen_bool(0.25) {
                spec.distinct = true;
                seen.distinct += 1;
            }
            // DISTINCT keeps the first of equal projections, so ordering by a
            // projected column is where a streamed and a sorted DISTINCT can
            // disagree (`ABC` and `abc` are one projection but sort apart).
            // A text column is taken first: a projected one, else one of the
            // joined tables' text columns, projected for the purpose.
            if spec.distinct && rng.gen_bool(0.75) {
                let text = |col: &ColumnId| db.schema().column(*col).dtype == DataType::Text;
                let projected = spec.select.iter().filter_map(|item| item.col).find(text);
                let texts: Vec<ColumnId> = (join.tables.iter())
                    .flat_map(|&table| {
                        let width = db.schema().table(table).columns.len();
                        (0..width).map(move |column| ColumnId { table, column })
                    })
                    .filter(text)
                    .collect();
                let key = match projected {
                    Some(key) => key,
                    None if !texts.is_empty() => {
                        let key = texts[rng.gen_range(0..texts.len())];
                        spec.select.push(SelectItem::column(key));
                        key
                    }
                    None => spec.select[rng.gen_range(0..spec.select.len())].col.unwrap(),
                };
                seen.distinct_by_projected_text += usize::from(text(&key));
                spec.order_by =
                    Some(OrderSpec { key: OrderKey::Column(key), desc: rng.gen_bool(0.5) });
            } else {
                let on_first = rng.gen_bool(0.5);
                let of = if on_first { JoinTree::single(join.tables[0]) } else { join.clone() };
                let key = random_column(db, &of, rng);
                if rng.gen_bool(0.5) {
                    *(if on_first { &mut seen.ordered_first } else { &mut seen.ordered_other }) +=
                        1;
                    seen.ordered_over_nan += usize::from(!db.column_index(key).can_order());
                    spec.order_by =
                        Some(OrderSpec { key: OrderKey::Column(key), desc: rng.gen_bool(0.5) });
                }
            }
        }
        5..=7 => {
            seen.grouped += 1;
            spec.group_by = vec![random_column(db, &join, rng)];
            if rng.gen_bool(0.4) {
                spec.group_by.push(random_column(db, &join, rng));
                seen.grouped_by_two += 1;
            }
            spec.select = spec.group_by.iter().map(|&key| SelectItem::column(key)).collect();
            spec.select.push(SelectItem::count_star());
            if rng.gen_bool(0.5) {
                spec.having = vec![count_having(rng)];
                seen.having += 1;
            }
            if rng.gen_bool(0.4) {
                let key = OrderKey::Aggregate(AggFunc::Count, None);
                spec.order_by = Some(OrderSpec { key, desc: rng.gen_bool(0.5) });
            }
        }
        _ => {
            seen.global += 1;
            let col = random_column(db, &join, rng);
            spec.select = vec![SelectItem::count_star(), SelectItem::aggregate(AggFunc::Min, col)];
            if rng.gen_bool(0.3) {
                spec.having = vec![count_having(rng)];
                seen.having += 1;
            }
        }
    }
    spec
}
