//! The executor against an evaluator that shares nothing with it.
//!
//! The executor's unit tests compare it with itself (the stream and
//! collect tails, the counting pass and the join), and both sides run on
//! the same joined relation of row ids, the same typed keys and the same
//! planner — a bug in any of those is invisible to them. The naive
//! evaluator (`common::naive`, shared with `tests/semijoin.rs`) is the
//! independent side: nested loops over
//! copied rows in the canonical join order, no index, no cache, no
//! streaming, no `Key`, equality and order written out from the value
//! contract in `docs/EXECUTOR.md`.
//!
//! Over the generated specs of `tests/common` (shared with
//! `tests/semijoin.rs`), on salted MAS and Spider databases, under no budget
//! and two, every execution must return the naive evaluator's rows in its
//! order — the canonical row order of `docs/EXECUTOR.md` ("Why the row order
//! is the same everywhere"), cut by the `LIMIT` and then by the budget —
//! plain cells byte for byte, and say `exact` exactly when the budget cut
//! nothing. Every `LIMIT 1` spec is also asked the verifier's existence
//! question twice through one run's probe memo
//! (`Database::exists_cached_with`, decided as a verdict that answers at the
//! first row): the answer must be whether the reference has a row, and the
//! second ask a memo hit with the first ask's answer.
//!
//! The same generated specs, with table sketches drawn from their reference
//! rows, hold the verifier's complete check — decided while the rows stream,
//! stopping at the row that decides it — to a brute-force search over the
//! naive evaluator's rows ([`brute`]): every injective assignment of tuples
//! to rows, in key order for a sorted sketch, and the limit.

use duoquest::core::verify::{by_order, VerifyPlan};
use duoquest::core::{TableSketchQuery, TsqCell};
use duoquest::db::{
    execute_with, Database, ExecOptions, OrderKey, Row, RunCacheCounters, SelectItem, SelectSpec,
    Value,
};
use duoquest::workloads::{mas, spider};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;

mod common;
use common::{gapped, naive, random_count_spec, random_spec, salted, CountShapes, Shapes};

// ------------------------------------------------------------- the checks --

/// What the checks pinned down.
#[derive(Default)]
struct Checked {
    executions: usize,
    /// Results of exact values — no row stands for a class of equal keys —
    /// held whole.
    exact_multisets: usize,
    /// Results under an `ORDER BY`, held in order.
    order_checked: usize,
    /// Results cut by a `LIMIT` or a row budget.
    cut: usize,
    /// Existence questions asked, by the answer (`[no, yes]`).
    existence: [usize; 2],
}

/// Hold one execution's rows to the reference's (the spec's rows in the
/// executor's order, cut by the budget), position by position: plain cells
/// byte for byte, and aggregate cells as the keys they are where a row
/// stands for a class of equal keys (GROUP BY, DISTINCT).
fn check_rows(
    spec: &SelectSpec,
    rows: &[Row],
    want: &[(Vec<Value>, Value)],
    whole: usize,
    tally: &mut Checked,
) -> Result<(), &'static str> {
    if rows.len() != want.len() {
        return Err("wrong number of rows");
    }
    let classes = spec.distinct || !spec.group_by.is_empty();
    let agrees = |item: &SelectItem, got: &Value, want: &Value| match item.agg {
        Some(_) if classes => naive::same(got, want, true),
        _ => got == want,
    };
    for (Row(got), (want, _)) in rows.iter().zip(want) {
        let mut cells = spec.select.iter().zip(got.iter().zip(want));
        if got.len() != want.len() || !cells.all(|(item, (g, w))| agrees(item, g, w)) {
            return Err("a row differs from the reference's row at its position");
        }
    }
    tally.exact_multisets += usize::from(!classes && rows.len() == whole);
    tally.order_checked += usize::from(spec.order_by.is_some());
    tally.cut += usize::from(rows.len() < whole);
    Ok(())
}

fn generated_specs_equal_the_reference(db: &Database, seed: u64, cases: usize) -> Checked {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = salted(db, &mut rng);
    let mut seen = Shapes::default();
    let mut tally = Checked::default();
    for case in 0..cases {
        let spec = random_spec(&db, &mut rng, &mut seen);
        let mut reference = naive::evaluate(&db, &spec);
        let whole = reference.len();
        naive::sort_and_limit(&spec, &mut reference);
        let k = spec.limit.unwrap_or(3);
        for row_budget in [None, Some(1), Some(k + 1)] {
            let want = &reference[..reference.len().min(row_budget.unwrap_or(usize::MAX))];
            let out = execute_with(&db, &spec, &ExecOptions { row_budget });
            let fail = |why: &str| -> ! {
                panic!(
                    "seed {seed} case {case}: {why}\n  budget {row_budget:?}\n  {spec:?}\n  got \
                     {out:?}\n  reference {want:?}"
                )
            };
            let Ok(out) = &out else { fail("execution failed") };
            tally.executions += 1;
            seen.note_run(&out.metrics);
            let rows = &out.result.rows;
            if let Err(why) = check_rows(&spec, rows, want, whole, &mut tally) {
                fail(why);
            }
            // `exact` says the budget cut nothing. A streaming run that
            // stops *at* its budget may say `false` without looking on
            // (documented on `ExecMetrics::exact`).
            let pessimist = out.metrics.streamed && Some(rows.len()) == row_budget;
            if out.metrics.exact != (rows.len() == reference.len())
                && (out.metrics.exact || !pessimist)
            {
                fail("wrong `exact`");
            }
        }
        if spec.limit == Some(1) {
            let want = !reference.is_empty();
            let counters = RunCacheCounters::default();
            for (temperature, lookups) in [("cold", (0, 1)), ("warm", (1, 1))] {
                let got = db.exists_cached_with(&spec, &counters);
                assert!(
                    matches!(got, Ok(exists) if exists == want),
                    "seed {seed} case {case}: {temperature} existence {got:?}, the reference \
                     has {whole} rows\n  {spec:?}"
                );
                assert_eq!(counters.snapshot(), lookups, "{temperature} (hits, misses)");
                assert_eq!(counters.entries(), 1, "{temperature}: one bit in the memo");
                tally.existence[usize::from(want)] += 1;
            }
        }
    }
    seen.assert_every_class_occurred(seed);
    tally
}

/// The checks must have had something to bite on.
fn assert_checks_bit(tally: &Checked, cases: usize) {
    assert_eq!(tally.executions, cases * 3);
    assert!(tally.exact_multisets >= cases / 4, "only {} exact multisets", tally.exact_multisets);
    assert!(tally.order_checked >= cases / 4, "only {} orders checked", tally.order_checked);
    // One execution in six, as when each budget ran on two databases.
    assert!(tally.cut * 6 >= tally.executions, "only {} cut results", tally.cut);
    let [absent, present] = tally.existence;
    assert!(
        absent >= cases / 4 && present >= cases / 4,
        "existence asked {absent} times of empty results, {present} of non-empty ones"
    );
}

#[test]
fn generated_mas_specs_equal_the_naive_reference() {
    let tally = generated_specs_equal_the_reference(&mas::generate(42, 0.5).db, 0x4EF0_0001, 300);
    assert_checks_bit(&tally, 300);
}

#[test]
fn generated_spider_specs_equal_the_naive_reference() {
    let dataset = spider::generate("reference-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        let tally = generated_specs_equal_the_reference(db, 0x4EF0_0100 + i as u64, 200);
        assert_checks_bit(&tally, 200);
    }
}

// ------------------------------------------------------- the counting arm --

/// What the counting arm ran.
#[derive(Default)]
struct Counted {
    cases: usize,
    /// Cases the counting pass answered (`ExecMetrics::counted`).
    counted: usize,
    /// Executions that proved the join empty: an emptied table or a
    /// contradiction, before the pass or within it.
    proven_empty: usize,
    /// Non-empty results.
    non_empty: usize,
}

/// Generated counting specs (`common::random_count_spec`) over gapped copies
/// of `db` (join keys duplicated, and in one of them a table emptied): every
/// execution must return the naive evaluator's rows in its order — groups
/// in the order their first joined row appears, then the stable `ORDER BY`,
/// then the `LIMIT`.
fn generated_counts_equal_the_reference(db: &Database, seed: u64, cases: usize) -> Counted {
    let mut rng = StdRng::seed_from_u64(seed);
    let salted = salted(db, &mut rng);
    let dbs = [gapped(&salted, &mut rng, false), gapped(&salted, &mut rng, true)];
    let mut seen = CountShapes::default();
    let mut tally = Counted::default();
    for case in 0..cases {
        // One case in four meets the emptied table, if its tree holds it.
        let db = &dbs[usize::from(case % 4 == 0)];
        let spec = random_count_spec(db, &mut rng, &mut seen);
        let reference = naive::result(db, &spec);
        let want: Vec<Row> = reference.into_iter().map(|(row, _)| Row(row)).collect();
        let out = execute_with(db, &spec, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} case {case}: {e}\n  {spec:?}"));
        assert_eq!(
            out.result.rows, want,
            "seed {seed} case {case}: counted {}\n  {spec:?}",
            out.metrics.counted
        );
        tally.cases += 1;
        tally.counted += usize::from(out.metrics.counted);
        tally.proven_empty += out.metrics.probes_bailed_empty as usize;
        tally.non_empty += usize::from(!want.is_empty());
    }
    seen.assert_every_class_occurred(seed);
    tally
}

/// The arm must have run inside the fragment, not only through the join
/// walk's fallback, and on results with rows.
fn assert_counts_bit(tally: &Counted, what: &str) {
    println!(
        "{what}: {} counting cases, {} answered by the counting pass, {} proven empty, {} \
         non-empty",
        tally.cases, tally.counted, tally.proven_empty, tally.non_empty
    );
    assert!(
        tally.counted * 4 >= tally.cases,
        "only {} of {} cases counted",
        tally.counted,
        tally.cases
    );
    assert!(tally.non_empty * 4 >= tally.cases, "only {} non-empty results", tally.non_empty);
}

#[test]
fn generated_mas_counts_equal_the_naive_reference() {
    let tally = generated_counts_equal_the_reference(&mas::generate(42, 0.5).db, 0x4EF0_1001, 300);
    assert_counts_bit(&tally, "MAS");
}

#[test]
fn generated_spider_counts_equal_the_naive_reference() {
    let dataset = spider::generate("reference-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        let tally = generated_counts_equal_the_reference(db, 0x4EF0_1100 + i as u64, 150);
        assert_counts_bit(&tally, &format!("Spider database {i}"));
    }
}

// ------------------------------------------------------------ the verdicts --

mod brute {
    use super::*;

    /// Definition 2.3: every cell of the tuple matches the cell of the row at
    /// its position.
    pub fn holds(tuple: &[TsqCell], row: &[Value]) -> bool {
        tuple.iter().zip(row).all(|(cell, value)| cell.matches(value))
    }

    /// Whether the tuples from `next` on can each take a row of their own,
    /// no row in `used` and each one `follows` allows after the row the
    /// tuple before it took: every injective assignment, tried in turn.
    pub fn place(
        tsq: &TableSketchQuery,
        rows: &[(Vec<Value>, Value)],
        used: &mut Vec<usize>,
        follows: &dyn Fn(&Value, &Value) -> bool,
    ) -> bool {
        let Some(tuple) = tsq.tuples.get(used.len()) else { return true };
        for (r, (row, key)) in rows.iter().enumerate() {
            let after = used.last().is_none_or(|&p| follows(&rows[p].1, key));
            if used.contains(&r) || !after || !holds(tuple, row) {
                continue;
            }
            used.push(r);
            if place(tsq, rows, used, follows) {
                return true;
            }
            used.pop();
        }
        false
    }
}

/// What the verdict checks could and could not pin down.
#[derive(Default, Debug)]
struct Verdicts {
    /// Verdicts held to the brute force, by its answer.
    passed: usize,
    failed: usize,
    /// Sorted sketches whose answer depends on how equal sort keys are
    /// ordered, which is the executor's join order and not the reference's.
    unpinned: usize,
    /// Sorted sketches of two or more tuples held to a passing answer: the
    /// in-order check's own cases.
    passed_in_order: usize,
    /// Results too large to search by brute force.
    skipped: usize,
    sorted: usize,
    limited: usize,
    empty_tuples: usize,
    duplicate_tuples: usize,
    more_tuples_than_rows: usize,
    range_cells: usize,
    /// Probe-side rows the verdicts left unscanned.
    short_circuited: u64,
}

/// A cell drawn from `value` (a reference cell): empty, exact (re-cased for
/// text), a range around a number, or one nothing matches.
fn random_cell(rng: &mut StdRng, value: Option<&Value>, seen: &mut Verdicts) -> TsqCell {
    let miss = |v: Option<&Value>| match v {
        Some(Value::Number(_)) => TsqCell::range(-9e9, -8e9),
        _ => TsqCell::text("no such value"),
    };
    let Some(v) = value else {
        return if rng.gen_bool(0.5) { TsqCell::Empty } else { miss(None) };
    };
    match (rng.gen_range(0..10), v) {
        (0..=2, _) | (_, Value::Null) => TsqCell::Empty,
        (3 | 4, Value::Number(x)) => {
            seen.range_cells += 1;
            TsqCell::range(x - 2.0, x + 0.5)
        }
        (5, Value::Text(s)) => TsqCell::text(s.to_uppercase()),
        (6, _) if rng.gen_bool(0.4) => miss(Some(v)),
        _ => TsqCell::Exact(v.clone()),
    }
}

/// A sketch over a select list of `width` items drawn from its reference
/// rows: one to three tuples (two or more when sorted; one more than there
/// are rows, for some results of fewer than three), some all-empty, some
/// duplicates, and half of them limited.
fn random_sketch(
    rng: &mut StdRng,
    width: usize,
    rows: &[(Vec<Value>, Value)],
    sorted: bool,
    seen: &mut Verdicts,
) -> TableSketchQuery {
    let count = if rows.len() < 3 && rng.gen_bool(0.3) {
        seen.more_tuples_than_rows += 1;
        rows.len() + 1
    } else {
        // A sorted sketch of one tuple is checked as an unsorted one.
        rng.gen_range(if sorted { 2 } else { 1 }..=3)
    };
    // Distinct source rows for the tuples while there are enough; in key
    // order (the rows are sorted) for most sorted sketches, so that in-order
    // checks pass as well as fail.
    let mut sources: Vec<usize> = Vec::new();
    while sources.len() < count && !rows.is_empty() {
        let r = rng.gen_range(0..rows.len());
        if !sources.contains(&r) || sources.len() >= rows.len() {
            sources.push(r);
        }
    }
    if sorted && rng.gen_bool(0.75) {
        sources.sort_unstable();
    }
    let mut tuples: Vec<Vec<TsqCell>> = Vec::new();
    for t in 0..count {
        let tuple = match rng.gen_range(0..10) {
            0 => {
                seen.empty_tuples += 1;
                vec![TsqCell::Empty; width]
            }
            1 if t > 0 => {
                seen.duplicate_tuples += 1;
                tuples[rng.gen_range(0..t)].clone()
            }
            _ => {
                let source = sources.get(t).map(|&r| &rows[r].0);
                (0..width).map(|i| random_cell(rng, source.map(|row| &row[i]), seen)).collect()
            }
        };
        tuples.push(tuple);
    }
    let limit = match rng.gen_range(0..4) {
        0 | 1 => 0,
        2 => rows.len().max(1) + rng.gen_range(0..2),
        _ => rng.gen_range(1..=rows.len() + 1),
    };
    seen.limited += usize::from(limit > 0);
    seen.sorted += usize::from(sorted);
    TableSketchQuery { types: None, tuples, sorted, limit }
}

fn generated_verdicts_equal_brute_force(db: &Database, seed: u64, cases: usize) -> Verdicts {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = salted(db, &mut rng);
    let mut seen = Verdicts::default();
    for case in 0..cases {
        // Mostly specs with a result: an empty one fails every sketch alike.
        let (mut spec, mut rows) = loop {
            let spec = random_spec(&db, &mut rng, &mut Shapes::default());
            let rows = naive::evaluate(&db, &spec);
            if !rows.is_empty() || rng.gen_bool(0.15) {
                break (spec, rows);
            }
        };
        let desc = spec.order_by.is_some_and(|o| o.desc);
        let by = |a: &Value, b: &Value| {
            let ord = naive::order(a, b);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        };
        // A row's sort key is its own unless DISTINCT merged rows that
        // differ in an unprojected key.
        let keyed = spec.order_by.is_some_and(|o| {
            let item = match o.key {
                OrderKey::Column(col) => SelectItem::column(col),
                OrderKey::Aggregate(agg, col) => SelectItem { agg: Some(agg), col },
            };
            !spec.distinct || spec.select.contains(&item)
        });
        rows.sort_by(|a, b| by(&a.1, &b.1));
        // The rows a LIMIT keeps are pinned only where it cuts between two
        // keys; elsewhere which rows survive is join order, so the limit is
        // lifted.
        if let Some(limit) = spec.limit.filter(|&l| l < rows.len()) {
            if keyed && (limit == 0 || by(&rows[limit - 1].1, &rows[limit].1) == Ordering::Less) {
                rows.truncate(limit);
            } else {
                spec.limit = None;
            }
        }
        if rows.len() > 300 {
            seen.skipped += 1;
            continue;
        }
        for sorted in [false, true].into_iter().filter(|&s| !s || keyed) {
            let tsq = random_sketch(&mut rng, spec.select.len(), &rows, sorted, &mut seen);
            let fits = tsq.limit == 0 || rows.len() <= tsq.limit;
            let any_order = |a: &Value, b: &Value| !sorted || by(a, b) != Ordering::Greater;
            let every_order = |a: &Value, b: &Value| !sorted || by(a, b) == Ordering::Less;
            let (some, all) = (
                fits && brute::place(&tsq, &rows, &mut Vec::new(), &any_order),
                fits && brute::place(&tsq, &rows, &mut Vec::new(), &every_order),
            );
            let plan = VerifyPlan::new(&db, Some(&tsq));
            let counters = RunCacheCounters::default();
            let got = by_order::spec_satisfies_sketch(&db, &tsq, &spec, &plan, &counters);
            let again = by_order::spec_satisfies_sketch(&db, &tsq, &spec, &plan, &counters);
            assert_eq!(counters.snapshot(), (1, 1), "the second check is the memoized bit");
            seen.short_circuited += counters.scan_snapshot().1;
            let context =
                || format!("seed {seed} case {case}\n  {spec:?}\n  {tsq:?}\n  reference {rows:?}");
            assert_eq!(got, again, "{}", context());
            if some == all {
                assert_eq!(got, some, "{}", context());
            } else {
                seen.unpinned += 1;
            }
            if some == all {
                *(if some { &mut seen.passed } else { &mut seen.failed }) += 1;
                seen.passed_in_order += usize::from(some && sorted && tsq.tuples.len() >= 2);
            }
        }
    }
    seen
}

/// The verdict checks must have had something to bite on.
fn assert_verdicts_bit(seen: &Verdicts, cases: usize) {
    println!("{seen:?}");
    let checked = seen.passed + seen.failed;
    assert!(seen.passed >= cases / 5 && seen.failed >= cases / 5, "{seen:?}");
    assert!(seen.unpinned * 10 <= checked && seen.skipped * 10 <= cases, "{seen:?}");
    // Equal sort keys leave many in-order answers unpinned: a lower bar.
    let in_order = seen.passed_in_order;
    assert!(in_order >= cases / 30, "only {in_order} passing in-order checks: {seen:?}");
    for (what, n) in [
        ("sorted", seen.sorted),
        ("limited", seen.limited),
        ("all-empty tuples", seen.empty_tuples),
        ("duplicate tuples", seen.duplicate_tuples),
        ("more tuples than rows", seen.more_tuples_than_rows),
        ("range cells", seen.range_cells),
    ] {
        assert!(n >= cases / 20, "only {n} sketches with {what}: {seen:?}");
    }
    assert!(seen.short_circuited > 0, "no verdict stopped a scan early");
}

#[test]
fn generated_mas_verdicts_equal_brute_force() {
    let seen = generated_verdicts_equal_brute_force(&mas::generate(42, 0.5).db, 0x4EF0_0201, 300);
    assert_verdicts_bit(&seen, 300);
}

#[test]
fn generated_spider_verdicts_equal_brute_force() {
    let dataset = spider::generate("reference-gen", 3, 1, 1, 1, 42);
    for (i, db) in dataset.databases.iter().enumerate() {
        let seen = generated_verdicts_equal_brute_force(db, 0x4EF0_0300 + i as u64, 200);
        assert_verdicts_bit(&seen, 200);
    }
}
