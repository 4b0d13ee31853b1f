//! What a run and its probe memo keep allocated, gated on live bytes instead
//! of a stopwatch or an RSS reading.
//!
//! * **The frontier holds what it can still pop.** A run's frontier drops
//!   every state ranked below the remaining expansion budget
//!   (`docs/DRIVER.md`, "Frontier"), so on the benchmark's `nlq_heuristic`
//!   settings — type-only TSQs, the heuristic model, 10 candidates, 100
//!   expansions, over its 37 tasks — a run's live heap grows by under
//!   512 KiB (about 700 kB while every child was a deep copy, about 3 MiB
//!   while the frontier kept every state it generated), and `frontier_peak`
//!   stays within `100 + 100/4 + 64`.
//! * **A frontier entry is its rank and a pointer, and a child is its parent
//!   plus one decision.** An `EnumState` is at most 32 bytes and the
//!   `PartialQuery` it boxes at most 128, its list slots shared with its
//!   parent. So at the Fig. 10 settings (25 candidates, 2 500 expansions,
//!   full TSQs, the oracle) a run's live heap grows by under 1.25 MiB (up to
//!   2.3 MB while every child was a deep copy), no run allocates a single
//!   block above 192 KiB (the frontier's buffer, 246 568 B while it kept
//!   twice the remaining budget; 0.97 MiB while states held their query
//!   inline), and a generated child costs at most 5.5 allocations: a
//!   decision is written into one scratch query, and only a survivor is
//!   boxed.
//! * **A run's probes are its own.** Each run memoizes its probes' answers
//!   in a memo it owns and frees, so after a pass of Spider runs that
//!   executed thousands of probes the live heap is back within 16 KiB of
//!   where the pass started (a shared probe cache kept about 77 B for every
//!   distinct probe of the pass, over 100 kB here).
//! * **A retained trace is packed.** A Fig. 10-sized request traced as the
//!   service traces it — the engine's spans, the root span, the admission
//!   and terminal events — frees at most 8 B per span when its trace is
//!   dropped (about 5; 19.6 while a span was a 16-byte record in 1 KiB
//!   blocks and each event a record with its own detail string).
//! * **A column index is its sorted runs.** Built over the benchmark's MAS
//!   database, the column indexes keep at most 24 B per indexed cell (69 B
//!   while every distinct key owned a match list of its own in a hash map)
//!   and the build calls the allocator at most 16 times per column (about
//!   510 with the map): a run of row ids, the sort bits of its numbers, and
//!   for a text column its folded order and one arena of distinct keys.
//!
//! This file is its own test binary because it installs a counting global
//! allocator, and holds a single `#[test]` so no other thread allocates while
//! it counts.

use duoquest::core::{DuoquestConfig, EnumState, SynthesisSession};
use duoquest::db::{Database, TableId, Value};
use duoquest::nlq::{HeuristicGuidance, NoisyOracleGuidance};
use duoquest::obs::{Trace, ROOT_SPAN, TERMINAL_EVENT};
use duoquest::sql::PartialQuery;
use duoquest::workloads::{mas, spider, synthesize_tsq, TsqDetail};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Bytes handed out and not yet returned.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has reached since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations and reallocations made.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// The largest block requested since it was last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn requested(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are side
// effects on static atomics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        requested(new_size);
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most the live heap grew by while `work` ran.
fn live_growth_of<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = work();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn runs_and_their_probe_memos_keep_what_they_count() {
    let entry = std::mem::size_of::<EnumState>();
    println!("frontier entry: {entry} B");
    assert!(entry <= 32, "an EnumState is {entry} B (> 32)");
    let query = std::mem::size_of::<PartialQuery>();
    println!("partial query: {query} B");
    assert!(query <= 128, "a PartialQuery is {query} B (> 128)");

    // The column indexes of the benchmark's `mas_cold` database, built as a
    // load builds them — one `insert_all` per table into a fresh database —
    // from copies of its rows made beforehand: what the load keeps besides
    // the rows and how often it calls the allocator, transient sort buffers
    // included. The loaded table's row vector replaces the copy's, which
    // the load frees, so the rows net to nothing.
    let mas = mas::generate(42, 8.0);
    let schema = mas.db.schema();
    let mut loaded = Database::new(schema.clone()).unwrap();
    let (mut cells, mut columns) = (0, 0);
    let mut tables: Vec<(&str, Vec<Vec<Value>>)> = Vec::new();
    for t in (0..schema.table_count()).map(TableId) {
        let width = schema.table(t).columns.len();
        columns += width;
        let rows = &mas.db.table_data(t).rows;
        cells += width * rows.len();
        tables.push((&schema.table(t).name, rows.iter().map(|row| row.0.clone()).collect()));
    }
    let (live, before) = (LIVE.load(Ordering::Relaxed), ALLOCATIONS.load(Ordering::Relaxed));
    for (name, rows) in tables {
        loaded.insert_all(name, rows).unwrap();
    }
    let kept = LIVE.load(Ordering::Relaxed) - live;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let (per_cell, per_column) = (kept as f64 / cells as f64, allocations as f64 / columns as f64);
    println!(
        "mas index: {kept} B kept for {cells} cells ({per_cell:.1} B per cell); {allocations} \
         allocations over {columns} columns ({per_column:.1} per column)"
    );
    assert!(loaded.index().contains(&mas.author_a), "the text index finds a stored name");
    assert!(per_cell <= 24.0, "the index keeps {per_cell:.1} B per indexed cell (> 24)");
    assert!(per_column <= 16.0, "{per_column:.1} allocations per indexed column (> 16)");

    // The benchmark's corpus (`bench_report`'s workloads draw from it).
    let dataset = spider::generate("dev", 6, 60, 63, 25, 42);

    // `nlq_heuristic`: every fourth task.
    let config = DuoquestConfig {
        max_candidates: 10,
        max_expansions: 100,
        time_budget: None,
        ..Default::default()
    };
    let bound = config.max_expansions + config.max_expansions / 4 + 64;
    let (mut runs, mut largest, mut peak) = (0, 0, 0);
    for (i, task) in dataset.tasks.iter().enumerate().step_by(4) {
        let db = dataset.database(task);
        let (_, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Minimal, 2, i as u64);
        let session = SynthesisSession::new(
            Arc::clone(db),
            task.nlq.clone(),
            Arc::new(HeuristicGuidance::new()),
        )
        .with_config(config.clone())
        .with_tsq(tsq);
        let (result, growth) = live_growth_of(|| session.run());
        let stats = &result.stats;
        assert!(
            growth <= 512 << 10,
            "task {}: the run's live heap grew by {growth} B (> 512 KiB); frontier peak {}",
            task.id,
            stats.frontier_peak
        );
        assert!(
            stats.frontier_peak <= bound,
            "task {}: the frontier held {} states (> {bound})",
            task.id,
            stats.frontier_peak
        );
        runs += 1;
        largest = largest.max(growth);
        peak = peak.max(stats.frontier_peak);
    }
    assert_eq!(runs, 37, "the workload's task count");
    println!("nlq_heuristic: largest live-heap growth {largest} B, frontier peak {peak}");

    // A Spider pass with full TSQs and the oracle, which probes: every
    // eighth task at a reduced budget executes a few thousand probes. What
    // each run learned about its probes goes with the run.
    let config = DuoquestConfig {
        max_candidates: 25,
        max_expansions: 500,
        time_budget: None,
        ..Default::default()
    };
    let (start, mut misses) = (LIVE.load(Ordering::Relaxed), 0);
    for (i, task) in dataset.tasks.iter().enumerate().step_by(8) {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, i as u64);
        let model = NoisyOracleGuidance::new(gold, i as u64);
        let session = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), Arc::new(model))
            .with_config(config.clone());
        misses += session.with_tsq(tsq).run().stats.cache_misses;
    }
    let kept = LIVE.load(Ordering::Relaxed) as i64 - start as i64;
    println!("spider pass: {misses} probes executed, live heap {kept:+} B over the pass");
    assert!(misses > 1_000, "the pass probed too little to judge ({misses} probes)");
    assert!(kept <= 16 << 10, "the pass kept {kept} B after its runs ended (> 16 KiB)");

    // The Fig. 10 settings (`spider_full`): every twelfth task, run inline,
    // counting each run's live-heap growth, the largest block any run asked
    // for and the allocations per generated child. Each task runs twice and
    // the second run is counted, so one-time set-up is not.
    let config = DuoquestConfig {
        max_candidates: 25,
        max_expansions: 2_500,
        time_budget: None,
        ..Default::default()
    };
    let bound = config.max_expansions + config.max_expansions / 4 + 64;
    let (mut generated, mut allocations, mut largest) = (0, 0, 0);
    let (mut growths, mut peak) = (Vec::new(), 0);
    let (mut spans, mut trace_bytes) = (0, 0);
    for (i, task) in dataset.tasks.iter().enumerate().step_by(12) {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, i as u64);
        let oracle = Arc::new(NoisyOracleGuidance::new(gold, i as u64));
        let session = SynthesisSession::new(Arc::clone(db), task.nlq.clone(), oracle)
            .with_config(config.clone())
            .with_tsq(tsq);
        session.run();
        LARGEST.store(0, Ordering::Relaxed);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let (result, growth) = live_growth_of(|| session.run());
        allocations += ALLOCATIONS.load(Ordering::Relaxed) - before;
        largest = largest.max(LARGEST.load(Ordering::Relaxed));
        let stats = &result.stats;
        generated += stats.generated;
        assert!(
            growth <= 1_280 << 10,
            "task {}: the run's live heap grew by {growth} B (> 1.25 MiB); frontier peak {}",
            task.id,
            stats.frontier_peak
        );
        assert!(
            stats.frontier_peak <= bound,
            "task {}: the frontier held {} states (> {bound})",
            task.id,
            stats.frontier_peak
        );
        growths.push(growth);
        peak = peak.max(stats.frontier_peak);

        // The same request once more, traced as the service traces it: the
        // engine's spans, the admission and terminal events and the root
        // span. What dropping the trace frees is what the flight recorder
        // keeps for it.
        let anchor = Instant::now();
        let trace = Arc::new(Trace::new(i as u64, anchor));
        trace.event("submitted", anchor, Some("interactive".into()));
        session.with_trace(Arc::clone(&trace)).run();
        let end = Instant::now();
        trace.record_span(ROOT_SPAN, anchor, end);
        trace.event(TERMINAL_EVENT, end, Some("completed".into()));
        spans += trace.spans().len();
        let trace = Arc::into_inner(trace).expect("the run let go of its trace");
        let before = LIVE.load(Ordering::Relaxed);
        drop(trace);
        trace_bytes += before - LIVE.load(Ordering::Relaxed);
    }
    growths.sort_unstable();
    let per_child = allocations as f64 / generated as f64;
    println!(
        "fig10: live-heap growth p50 {} B, max {} B; frontier peak {peak}; largest allocation \
         {largest} B; {allocations} allocations over {generated} generated children \
         ({per_child:.2} per child)",
        growths[growths.len() / 2],
        growths[growths.len() - 1],
    );
    let per_span = trace_bytes as f64 / spans as f64;
    println!("fig10 traces: {trace_bytes} B freed for {spans} spans ({per_span:.1} B per span)");
    assert!(generated > 10_000, "the pass generated too little to judge ({generated} children)");
    assert!(per_span <= 8.0, "a retained trace costs {per_span:.1} B per span (> 8)");
    assert!(largest <= 192 << 10, "a run allocated a {largest} B block (> 192 KiB)");
    assert!(per_child <= 5.5, "{per_child:.2} allocations per generated child (> 5.5)");
}
