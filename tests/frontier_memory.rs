//! What a run and the probe cache keep allocated, gated on live bytes instead
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
//! * **The probe cache counts what it keeps, and keeps little.** After a
//!   pass of Spider runs, the cache's estimated bytes come within a third of
//!   what clearing it frees (they were a fifth of it while only result cells
//!   were counted), and clearing it frees at most 96 B per entry (77 today,
//!   104 while every key was boxed under a map slot of its own): every entry
//!   a run leaves is an existence probe or a verdict, a byte-encoded key in
//!   its generation's arena and one bit in a 12-byte record.
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

use duoquest::core::{Duoquest, DuoquestConfig, EnumState};
use duoquest::db::{Database, TableId};
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
fn runs_and_the_probe_cache_keep_what_they_count() {
    let entry = std::mem::size_of::<EnumState>();
    println!("frontier entry: {entry} B");
    assert!(entry <= 32, "an EnumState is {entry} B (> 32)");
    let query = std::mem::size_of::<PartialQuery>();
    println!("partial query: {query} B");
    assert!(query <= 128, "a PartialQuery is {query} B (> 128)");

    // The column indexes of the benchmark's `mas_cold` database, built on a
    // twin of its rows that has never been indexed: what the build keeps and
    // how often it calls the allocator, transient sort buffers included.
    let mas = mas::generate(42, 8.0);
    let schema = mas.db.schema();
    let mut twin = Database::new(schema.clone()).unwrap();
    let (mut cells, mut columns) = (0, 0);
    for t in (0..schema.table_count()).map(TableId) {
        let width = schema.table(t).columns.len();
        columns += width;
        for row in &mas.db.table_data(t).rows {
            twin.insert_by_id(t, row.0.clone()).unwrap();
            cells += width;
        }
    }
    let (live, before) = (LIVE.load(Ordering::Relaxed), ALLOCATIONS.load(Ordering::Relaxed));
    twin.rebuild_index();
    let kept = LIVE.load(Ordering::Relaxed) - live;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let (per_cell, per_column) = (kept as f64 / cells as f64, allocations as f64 / columns as f64);
    println!(
        "mas index: {kept} B kept for {cells} cells ({per_cell:.1} B per cell); {allocations} \
         allocations over {columns} columns ({per_column:.1} per column)"
    );
    assert!(twin.index().contains(&mas.author_a), "the text index finds a stored name");
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
    let engine = Duoquest::new(config);
    let (mut runs, mut largest, mut peak) = (0, 0, 0);
    for (i, task) in dataset.tasks.iter().enumerate().step_by(4) {
        let db = dataset.database(task);
        let (_, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Minimal, 2, i as u64);
        let session = engine
            .session(Arc::clone(db), task.nlq.clone(), Arc::new(HeuristicGuidance::new()))
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
    // eighth task at a reduced budget fills the caches with a few thousand
    // entries.
    let config = DuoquestConfig {
        max_candidates: 25,
        max_expansions: 500,
        time_budget: None,
        ..Default::default()
    };
    let engine = Duoquest::new(config);
    for (i, task) in dataset.tasks.iter().enumerate().step_by(8) {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, i as u64);
        let model = NoisyOracleGuidance::new(gold, i as u64);
        engine.session(Arc::clone(db), task.nlq.clone(), Arc::new(model)).with_tsq(tsq).run();
    }
    let (mut counted, mut entries, mut freed) = (0u64, 0u64, 0usize);
    for db in &dataset.databases {
        let stats = db.cache_stats();
        counted += stats.bytes;
        entries += stats.entries;
        let before = LIVE.load(Ordering::Relaxed);
        db.clear_probe_cache();
        freed += before - LIVE.load(Ordering::Relaxed);
    }
    assert!(entries > 1_000, "the pass cached too little to judge ({entries} entries)");
    let ratio = counted as f64 / freed as f64;
    println!(
        "probe cache: {entries} entries, {counted} B counted, {freed} B freed ({} B per entry)",
        freed as u64 / entries
    );
    assert!(
        (0.66..=1.5).contains(&ratio),
        "the probe cache counted {counted} B over {entries} entries, clearing it freed {freed} B \
         (ratio {ratio:.2})"
    );
    // An entry is its encoded question and its answer, one bit under a key
    // of a few dozen bytes: no probe a run sends keeps rows (902 B per entry
    // while every entry kept a cloned spec and a full result, about 380 B
    // while the complete checks cached theirs). Its key sits in its
    // generation's arena and its 12-byte record in the generation's table
    // (77 B per entry, arena chunk tails included; 104 B while each entry
    // was a boxed key and a map slot of its own).
    let per_entry = freed as u64 / entries;
    assert!(
        per_entry <= 96,
        "clearing the probe cache freed {per_entry} B per entry ({freed} B over {entries})"
    );

    // The Fig. 10 settings (`spider_full`): every twelfth task, run inline,
    // counting each run's live-heap growth, the largest block any run asked
    // for and the allocations per generated child. Each task runs twice and
    // the second run is counted, on a warm probe cache as the benchmark's
    // repeated requests see it, so the counts are the enumerator's and not
    // the executor's or the cache's.
    let config = DuoquestConfig {
        max_candidates: 25,
        max_expansions: 2_500,
        time_budget: None,
        ..Default::default()
    };
    let bound = config.max_expansions + config.max_expansions / 4 + 64;
    let engine = Duoquest::new(config);
    let (mut generated, mut allocations, mut largest) = (0, 0, 0);
    let (mut growths, mut peak) = (Vec::new(), 0);
    let (mut spans, mut trace_bytes) = (0, 0);
    for (i, task) in dataset.tasks.iter().enumerate().step_by(12) {
        let db = dataset.database(task);
        let (gold, tsq) = synthesize_tsq(db, &task.gold, TsqDetail::Full, 2, i as u64);
        let oracle = || Arc::new(NoisyOracleGuidance::new(gold.clone(), i as u64));
        let session =
            engine.session(Arc::clone(db), task.nlq.clone(), oracle()).with_tsq(tsq.clone());
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
        (engine.session(Arc::clone(db), task.nlq.clone(), oracle()))
            .with_tsq(tsq)
            .with_trace(Arc::clone(&trace))
            .run();
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
