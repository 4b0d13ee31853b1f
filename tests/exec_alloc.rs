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

use duoquest::db::{execute_with, ExecOptions, JoinTree, Predicate, SelectItem, SelectSpec, Value};
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
}

/// Allocations of a global `COUNT(*)` under a text `BETWEEN` over MAS's 320
/// authors: the execution's own vectors and its one result row (22 today),
/// none per row — a comparison that lowercased both sides added four per
/// row, two per bound.
const TEXT_RANGE_CEILING: u64 = 40;
