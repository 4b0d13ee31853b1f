//! What an execution allocates, gated on a count instead of a stopwatch.
//!
//! The executor's joined relation is row ids and its join, group and DISTINCT
//! keys are typed (`docs/EXECUTOR.md`), so what a drained join allocates
//! follows the rows it *returns*, not the rows it joins. Building
//! intermediates out of cloned cells again, or `String` keys per probe row,
//! multiplies these counts (they were 5–13× higher when it did) and fails
//! here, on any machine, in any build profile.
//!
//! This file is its own test binary because it installs a counting global
//! allocator, and holds a single `#[test]` so no other thread allocates while
//! it counts.

use duoquest::db::{
    execute_with, CmpOp, ExecOptions, JoinGraph, JoinTree, Predicate, SelectItem, SelectSpec, Value,
};
use duoquest::workloads::{mas, mas_nli_tasks, mas_pbe_tasks};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Ordering::{Equal, Greater, Less};
use std::sync::atomic::{AtomicU64, Ordering};

/// Calls into the allocator that hand out memory (`alloc`, `realloc`).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a side
// effect on a static atomic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = work();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn executions_allocate_for_what_they_return_not_for_what_they_join() {
    // The benchmark's `mas_cold` database.
    let dataset = mas::generate(42, 8.0);
    let db = &*dataset.db;
    let mut tasks = mas_nli_tasks(&dataset);
    tasks.extend(mas_pbe_tasks(&dataset));

    // (task, ceiling): the gold queries measured 2 080, 1 302 and 492
    // allocations with the id relation and 26 951, 11 198 and 5 388 before it.
    for (id, ceiling) in [("A2", 4_000), ("C3", 2_500), ("A3", 1_000)] {
        let gold = &tasks.iter().find(|t| t.id == id).expect("a MAS study task").gold;
        let (out, n) = allocations_of(|| execute_with(db, gold, &ExecOptions::default()).unwrap());
        assert!(!out.result.is_empty(), "task {id}: the gold query returns rows");
        assert!(
            n <= ceiling,
            "task {id}: {n} allocations for {} result rows over {} scanned (ceiling {ceiling})",
            out.result.len(),
            out.metrics.rows_scanned
        );
    }

    // A numeric key is a `u64`: the lookup behind every FK join probe and
    // every semi-join walk step allocates nothing.
    let pid = db.schema().column_id("writes", "pid").unwrap();
    let index = db.column_index(pid).expect("rebuild_index ran");
    let keys: Vec<Value> = (1..=200).map(Value::int).collect();
    let (matched, n) = allocations_of(|| keys.iter().map(|k| index.lookup(k).len()).sum::<usize>());
    assert!(matched > 200, "the lookups found their rows ({matched})");
    assert_eq!(n, 0, "numeric index lookups allocated");

    // A text key is matched up to ASCII case: the lookup folds the probe's
    // bytes as it compares them with the column's sorted keys, so re-cased
    // names find their rows without a lowercased copy.
    let name = db.schema().column_id("author", "name").unwrap();
    let index = db.column_index(name).expect("rebuild_index ran");
    let names: Vec<&str> = db.column_values(name).filter_map(Value::as_text).collect();
    let keys: Vec<Value> = (0..200)
        .map(|k| {
            let name = names[k * 7 % names.len()].chars().enumerate();
            let recased = name.map(|(i, c)| match (i + k) % 2 {
                0 => c.to_ascii_uppercase(),
                _ => c.to_ascii_lowercase(),
            });
            Value::text(recased.collect::<String>())
        })
        .collect();
    let (matched, n) = allocations_of(|| keys.iter().map(|k| index.lookup(k).len()).sum::<usize>());
    assert!(matched >= 200, "the lookups found their rows ({matched})");
    assert_eq!(n, 0, "text index lookups allocated");

    // A text range compares ASCII-folded bytes in place: no comparison
    // allocates, so a range predicate over every author allocates nothing
    // per row (two lowercased copies per row while `sql_cmp` built them).
    let cells: Vec<&Value> = db.column_values(name).collect();
    let mut folded: Vec<String> = names.iter().map(|n| n.to_ascii_lowercase()).collect();
    folded.sort_unstable();
    let quartile = |q: usize| Value::text(folded[folded.len() * q / 4].to_ascii_uppercase());
    let (low, high) = (quartile(1), quartile(3));
    let (inside, n) = allocations_of(|| {
        let between = |v: &Value| {
            matches!(v.sql_cmp(&low), Some(Greater | Equal))
                && matches!(v.sql_cmp(&high), Some(Less | Equal))
        };
        cells.iter().filter(|v| between(v)).count()
    });
    assert!(inside > 0 && inside < cells.len(), "the range splits the names ({inside})");
    assert_eq!(n, 0, "text comparisons allocated");
    let spec = SelectSpec {
        select: vec![SelectItem::count_star()],
        join: JoinTree::single(name.table),
        predicates: vec![Predicate::between(name, low, high)],
        ..Default::default()
    };
    let (out, n) = allocations_of(|| execute_with(db, &spec, &ExecOptions::default()).unwrap());
    assert_eq!(out.result.rows[0].0[0], Value::int(inside as i64));
    assert!(
        n <= TEXT_RANGE_CEILING,
        "a text BETWEEN over {} rows made {n} allocations (ceiling {TEXT_RANGE_CEILING})",
        cells.len()
    );

    // `LIKE` folds the title and the pattern byte by byte as it matches: a
    // scan over every publication title allocates nothing per row it reads
    // (three allocations per row while it lowercased both sides and split
    // the pattern into a vector).
    let title = db.schema().column_id("publication", "title").unwrap();
    let titles: Vec<&Value> = db.column_values(title).collect();
    let pattern = "pA%Er 01%"; // "Paper 0100" to "Paper 0199"
    let (liked, n) = allocations_of(|| titles.iter().filter(|v| v.sql_like(pattern)).count());
    assert!(liked > 0 && liked < titles.len(), "the pattern splits the titles ({liked})");
    assert_eq!(n, 0, "LIKE comparisons allocated");
    let spec = SelectSpec {
        select: vec![SelectItem::count_star()],
        join: JoinTree::single(title.table),
        predicates: vec![Predicate::new(title, CmpOp::Like, Value::text(pattern))],
        ..Default::default()
    };
    let (out, n) = allocations_of(|| execute_with(db, &spec, &ExecOptions::default()).unwrap());
    assert_eq!(out.result.rows[0].0[0], Value::int(liked as i64));
    println!("LIKE over {} titles: {n} allocations", titles.len());
    assert!(
        n <= TEXT_RANGE_CEILING,
        "a LIKE over {} titles made {n} allocations (ceiling {TEXT_RANGE_CEILING})",
        titles.len()
    );

    // GROUP BY on two columns and DISTINCT over a join: a row whose key is
    // already numbered is matched on its cells' folded bytes, so only a new
    // group builds a key — allocations follow the groups, not the rows.
    // Every authorship, keyed by its author's organization and continent.
    let org = db.schema().column_id("organization", "name").unwrap();
    let continent = db.schema().column_id("organization", "continent").unwrap();
    let writes = db.schema().table_id("writes").unwrap();
    let join = JoinGraph::new(db.schema()).steiner_tree(&[writes, org.table]).unwrap();
    let grouped = SelectSpec {
        select: vec![SelectItem::column(org), SelectItem::column(continent)],
        join,
        group_by: vec![org, continent],
        ..Default::default()
    };
    let distinct = SelectSpec { group_by: vec![], distinct: true, ..grouped.clone() };
    for (what, spec) in [("GROUP BY", grouped), ("DISTINCT", distinct)] {
        let (out, n) = allocations_of(|| execute_with(db, &spec, &ExecOptions::default()).unwrap());
        let (groups, rows) = (out.result.len() as u64, out.metrics.rows_scanned);
        println!("{what}: {n} allocations for {groups} groups over {rows} rows");
        assert!(rows > 8 * groups, "{what}: too few rows per group to judge ({rows}, {groups})");
        let ceiling = PER_GROUP * groups + GROUPING_BASE;
        assert!(n <= ceiling, "{what}: {n} allocations for {groups} groups (ceiling {ceiling})");
    }
}

/// Allocations of a global `COUNT(*)` under a text `BETWEEN` over MAS's 320
/// authors: the execution's own vectors and its one result row (22 today),
/// none per row — a comparison that lowercased both sides added four per
/// row, two per bound. A `LIKE` count over its 1 920 titles is held to the
/// same ceiling (21 today, 5 781 while `LIKE` allocated three times a row).
const TEXT_RANGE_CEILING: u64 = 40;

/// Allocations per group of a two-column GROUP BY or DISTINCT over MAS's
/// 4 458 authorships, and what any such execution makes besides: 719 and 385
/// for 64 groups today, 8 404 and 19 338 while every row's key lowercased its
/// text cells into new strings and DISTINCT copied every joined row's cells.
const PER_GROUP: u64 = 8;
const GROUPING_BASE: u64 = 400;
