//! Streaming operator execution of [`SelectSpec`] queries against a
//! [`Database`].
//!
//! # The operator pipeline
//!
//! A query runs as a pull-based pipeline of textbook SPJA operators (the full
//! prose version of this section, with the limit-pushdown rules and the
//! determinism contract, lives in `docs/EXECUTOR.md`):
//!
//! ```text
//!   COUNT(*) over an FK tree, grouped on T₀ ─► count pass ─► HAVING → π → sort
//!        (no joined row: per-row counts carried leaves first)
//!
//!   everything else, one walk:
//!   scan(T₀) ──► ⋈ index(T₁) ──► … ──► ⋈ index(Tₙ) ──► σ WHERE
//!        │ (depth first, one probe row at a time; build sides are indexes)
//!        ▼
//!   ┌─ stream tail ───────────────────┐  ┌─ collect tail ─────────────────┐
//!   │ π project → DISTINCT → LIMIT k  │  │ keep ids → γ group/agg → HAVING│
//!   │ → sink (stops the walk at k)    │  │ → π → sort → LIMIT → sink      │
//!   └─────────────────────────────────┘  └────────────────────────────────┘
//! ```
//!
//! **A joined row is one row id per joined table**, never a copy of their
//! cells: the join appends ids, WHERE, GROUP BY, aggregates and projection
//! read cells through them at `(table slot, column)` positions resolved once
//! per execution, and only the projected cells of rows that survive are ever
//! cloned. Join, GROUP BY and DISTINCT keys are the typed [`Key`]s the column
//! index already holds ([`Value::key`]), so a numeric join probe allocates
//! nothing. What a join costs follows the answer it projects, not the width
//! of the tables it crosses.
//!
//! A query whose only aggregate is `COUNT(*)`, grouped (if at all) on
//! columns of the first table, over an inner FK tree with a per-table WHERE
//! clause never builds that relation: the **counting pass** carries, for
//! every row of every joined table, how many joined rows of its subtree hold
//! it, leaves first through the column indexes' match lists, and reads each
//! group's count and cells off the first table's rows. It hands the collect
//! tail's records, in its order, to the same delivery (`docs/EXECUTOR.md`,
//! "Counting over the join tree"); outside that fragment, on a join that is
//! not a tree rooted at the first table, or when a count overflows, the walk
//! runs.
//!
//! Everything else runs **one join walk**: the first table's rows are pulled
//! one at a time, each carried depth first through the join steps (one
//! reused id buffer per depth), and every joined row that passes WHERE (and,
//! for an ungrouped spec, DISTINCT) goes to one of two tails:
//!
//! * the **stream tail** projects it and hands it to the consumer, so a
//!   `LIMIT k` query (most prominently the verifier's `SELECT … LIMIT 1`
//!   probes) stops the walk as soon as `k` output rows exist, and a
//!   [`Verdict`] stops it at the row that decides it ([`decide_with`]);
//! * the **collect tail** keeps its ids, then groups and aggregates them or
//!   sorts their records, and hands the rows in result order to the
//!   consumer.
//!
//! A spec streams if and only if it is ungrouped, has no aggregate, and has
//! either no `ORDER BY` or one the walk already yields: a column of the
//! first table whose index can walk it in order (under DISTINCT, a projected
//! one holding no text). [`execute_with`] collects the output rows into a
//! [`ResultSet`]; [`decide_with`] shows each to a verdict and drops it.
//!
//! Which tail runs, and through which access paths, is decided from the
//! spec's shape and the database's indexes — one plan per (spec, database).
//! No caller can ask for another.
//!
//! # Index access
//!
//! Every column of a database has its ordered secondary index
//! ([`crate::table_index::TableIndex`]) from the moment the database
//! exists, and the walk substitutes index structures for scans (the full
//! selection rules live in `docs/EXECUTOR.md`):
//!
//! * **Index-nested-loop joins** look each probe cell up in the build
//!   column's index; no join builds anything per execution.
//! * **Range/point restrictions** turn indexed literal predicates into
//!   candidate row lists (always supersets; the WHERE filter re-checks),
//!   intersected when several predicates restrict one table. The first
//!   table iterates its candidates; a build side keeps its index lookups
//!   and drops non-candidates from each match list as it is probed.
//! * **Semi-join reduction** carries those restrictions up the join tree,
//!   leaves first: a table whose child is restricted keeps only the rows
//!   whose join key occurs among the child's candidates, so a literal at a
//!   leaf shrinks the probe side before a joined row exists (and an emptied
//!   table proves the probe empty). It is the Boolean instance of the walk
//!   whose counting instance is the counting pass; `docs/EXECUTOR.md` has
//!   the argument.
//! * **Ordered index scans** stream `ORDER BY c` from the column's sorted
//!   run for any indexed first-table column; a first-table restriction
//!   filters the run in place.
//! * **Join steps** run in one order, the canonical one: each takes the
//!   first edge that connects a joined table to an unjoined one
//!   (`plan_joins`). The semi-join reduction has already shrunk the probe
//!   side, so no step order is chosen per spec (`docs/EXECUTOR.md`).
//!
//! An execution bails before it pulls a row when a joined table, a build
//! side or the planned probe itself is provably empty.
//!
//! # Determinism contract
//!
//! For a fixed database and spec, [`execute`] and [`execute_with`] produce
//! the same [`ResultSet`] — bit for bit — whichever tail and access paths
//! ran, and the rows under a budget `b` are the first `min(b, n)` of
//! the `n` rows without one;
//! [`decide_with`] shows its verdict a prefix of those same rows, in the
//! same order. Higher layers (candidate emission, a run's probe memo)
//! rely on this.
//!
//! # Observability
//!
//! [`execute_with`] reports [`ExecMetrics`]: `rows_scanned` counts base-table
//! rows pulled plus join rows produced, `rows_short_circuited` counts
//! probe-side rows the walk never had to pull because the limit was
//! already satisfied (or a verdict decided), and `exact` says whether the
//! produced rows are the spec's complete result (only a caller-supplied
//! [`ExecOptions::row_budget`] can truncate it); `counted` says the counting
//! pass answered, and its `rows_scanned` are the table rows it counted.
//! Index paths report `index_lookups`, `rows_via_index` and
//! `probes_bailed_empty`. The verifier aggregates these per synthesis run
//! into `EnumerationStats`.

use crate::database::{Database, Row};
use crate::error::{DbError, DbResult};
use crate::query::{AggFunc, CmpOp, LogicalOp, OrderKey, OrderSpec, Predicate, SelectSpec};
use crate::schema::{ColumnId, TableId};
use crate::table_index::{ord_cmp, ColumnIndex};
use crate::types::{canonical_bits, DataType, Key, Value};
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::ops::ControlFlow;

/// The result of executing a query: column headers plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names (qualified, e.g. `actor.name` or `COUNT(*)`).
    pub columns: Vec<String>,
    /// Output column types.
    pub types: Vec<DataType>,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Values of one output column.
    pub fn column(&self, idx: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(move |r| &r.0[idx])
    }
}

/// What a caller of [`execute_with`] may ask for beyond the spec: a row
/// budget. [`execute`] runs without one ([`Database::exec_options`]). The
/// physical plan is not the caller's to choose (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Stop producing output rows beyond this budget, even if the spec has a
    /// larger (or no) `LIMIT`. The result is then a prefix of the spec's
    /// result and [`ExecMetrics::exact`] reports `false` when rows were cut.
    pub row_budget: Option<usize>,
}

/// Observability counters for one execution (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Base-table rows pulled into the pipeline plus join rows produced
    /// (for the counting pass, which produces none: the table rows it
    /// counted).
    pub rows_scanned: u64,
    /// Probe-side rows left unscanned because the limit was already satisfied
    /// (or a verdict already decided).
    pub rows_short_circuited: u64,
    /// Whether the produced rows are known to be the spec's complete result.
    /// Only an [`ExecOptions::row_budget`] can make this `false`, and then
    /// pessimistically: a streaming run that stops *at* the budget reports
    /// `false` without checking whether the input happened to be exhausted
    /// exactly there (probing on would forfeit the early termination).
    pub exact: bool,
    /// Whether the walk ran into the stream tail (early-terminating) rather
    /// than the collect tail.
    pub streamed: bool,
    /// Whether the counting pass answered: the spec is in the counting
    /// fragment and no joined row was built (module docs).
    pub counted: bool,
    /// Secondary-index lookups performed: candidate computations for indexed
    /// literal predicates during planning, one per candidate a semi-join
    /// step reads, one per probe row of an index-nested-loop join step, one
    /// per ordered-index-scan setup, and one per row the counting pass
    /// pulls or pushes a count through (a merged edge looks nothing up).
    pub index_lookups: u64,
    /// Rows that entered the pipeline through an index access path: ordered
    /// index scans, candidate-restricted scans and builds,
    /// index-nested-loop match expansions, and the match-list rows the
    /// counting pass read.
    pub rows_via_index: u64,
    /// 1 when this execution bailed before pulling a row because the planner
    /// proved the join empty: an empty joined table, an indexed predicate
    /// with no candidates, or a build side without a key.
    pub probes_bailed_empty: u64,
}

/// A [`ResultSet`] together with the [`ExecMetrics`] of producing it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecOutcome {
    /// The produced rows.
    pub result: ResultSet,
    /// How they were produced.
    pub metrics: ExecMetrics,
}

/// A yes/no question about a query's result, decided from its rows in result
/// order without keeping them ([`decide_with`],
/// [`Database::decide_cached_with`]). The execution stops pulling rows the
/// moment [`Verdict::row`] returns an answer.
pub trait Verdict {
    /// Look at the next output row; `Some(answer)` once the rows seen so far
    /// decide the question.
    fn row(&mut self, row: &[Value]) -> Option<bool>;

    /// The answer when the result has no more rows and no row decided it.
    fn end(&mut self) -> bool;
}

/// Execute a query against a database with the database's default options.
pub fn execute(db: &Database, spec: &SelectSpec) -> DbResult<ResultSet> {
    Ok(execute_with(db, spec, &db.exec_options())?.result)
}

/// Execute a query under [`ExecOptions`], reporting [`ExecMetrics`]
/// alongside the rows.
///
/// This is the streaming entry point: a `LIMIT k` query (or an external
/// [`ExecOptions::row_budget`]) stops scanning as soon as `k` rows survive.
///
/// ```
/// use duoquest_db::{
///     execute_with, ColumnDef, Database, ExecOptions, JoinTree, Schema, SelectItem,
///     SelectSpec, TableDef, Value,
/// };
///
/// let mut schema = Schema::new("demo");
/// schema.add_table(TableDef::new("t", vec![ColumnDef::number("id")], Some(0)));
/// let mut db = Database::new(schema).unwrap();
/// db.insert_all("t", (0..100).map(|i| vec![Value::int(i)])).unwrap();
///
/// let spec = SelectSpec {
///     select: vec![SelectItem::column(db.schema().column_id("t", "id").unwrap())],
///     join: JoinTree::single(db.schema().table_id("t").unwrap()),
///     limit: Some(1),
///     ..Default::default()
/// };
/// let out = execute_with(&db, &spec, &ExecOptions::default()).unwrap();
/// assert_eq!(out.result.len(), 1);
/// assert!(out.metrics.exact, "LIMIT is the spec's own semantics");
/// assert!(out.metrics.rows_scanned < 100, "stopped after the first row");
/// assert_eq!(out.metrics.rows_short_circuited, 99);
/// ```
pub fn execute_with(db: &Database, spec: &SelectSpec, opts: &ExecOptions) -> DbResult<ExecOutcome> {
    let mut rows = Vec::new();
    let metrics = run(db, spec, opts, &mut rows)?;
    let (columns, types) = headers(db, spec)?;
    Ok(ExecOutcome { result: ResultSet { columns, types, rows }, metrics })
}

/// Decide `verdict` over the rows [`execute_with`] would return under
/// `opts`, fed to it one at a time while they stream: the execution stops
/// as soon as a row decides the answer, and keeps no row. Returns the
/// answer and the [`ExecMetrics`] of getting it.
///
/// ```
/// use duoquest_db::{
///     decide_with, ColumnDef, Database, ExecOptions, JoinTree, Schema, SelectItem, SelectSpec,
///     TableDef, Value, Verdict,
/// };
///
/// /// "Does the result hold a row above 4?"
/// struct AboveFour;
/// impl Verdict for AboveFour {
///     fn row(&mut self, row: &[Value]) -> Option<bool> {
///         (row[0].as_number() > Some(4.0)).then_some(true)
///     }
///     fn end(&mut self) -> bool {
///         false
///     }
/// }
///
/// let mut schema = Schema::new("demo");
/// schema.add_table(TableDef::new("t", vec![ColumnDef::number("id")], Some(0)));
/// let mut db = Database::new(schema).unwrap();
/// db.insert_all("t", (0..100).map(|i| vec![Value::int(i)])).unwrap();
///
/// let spec = SelectSpec {
///     select: vec![SelectItem::column(db.schema().column_id("t", "id").unwrap())],
///     join: JoinTree::single(db.schema().table_id("t").unwrap()),
///     ..Default::default()
/// };
/// let (answer, metrics) = decide_with(&db, &spec, &ExecOptions::default(), &mut AboveFour).unwrap();
/// assert!(answer);
/// assert!(metrics.streamed, "a verdict can stop an unlimited query");
/// assert_eq!(metrics.rows_scanned, 6, "row 5 decided it");
/// ```
pub fn decide_with(
    db: &Database,
    spec: &SelectSpec,
    opts: &ExecOptions,
    verdict: &mut dyn Verdict,
) -> DbResult<(bool, ExecMetrics)> {
    let mut sink = Decide { verdict, answer: None, row: Vec::new() };
    let metrics = run(db, spec, opts, &mut sink)?;
    Ok((sink.answer.unwrap_or_else(|| sink.verdict.end()), metrics))
}

/// The one pipeline behind [`execute_with`] and [`decide_with`]: plan the
/// spec, walk its join into the tail its shape picks ([`stream_order`]),
/// and hand the output rows to `sink`.
fn run(
    db: &Database,
    spec: &SelectSpec,
    opts: &ExecOptions,
    sink: &mut impl Sink,
) -> DbResult<ExecMetrics> {
    validate(db, spec)?;
    if let Some((records, metrics)) = count_over_tree(db, spec) {
        let exact = deliver(spec, distinct(spec, records), opts, sink);
        return Ok(ExecMetrics { exact, ..metrics });
    }
    let access = IndexAccess::plan(db, spec);
    let plan = plan_joins(spec)?;
    let query = Resolved::new(db, spec, &plan);
    if let Some(order) = stream_order(db, spec) {
        let cap = spec.limit.unwrap_or(usize::MAX).min(opts.row_budget.unwrap_or(usize::MAX));
        let metrics = walk(db, &query, &plan, &access, order, &mut Emit { sink, left: cap });
        // Stopping at the spec's own LIMIT is the spec's semantics; only a
        // tighter caller budget (or a sink that stopped the walk) makes the
        // result a (possibly) truncated prefix.
        let exact = metrics.exact || spec.limit == Some(cap);
        return Ok(ExecMetrics { exact, streamed: true, ..metrics });
    }
    let mut joined = Joined { ids: Vec::new(), width: plan.tables.len() };
    let metrics = walk(db, &query, &plan, &access, FirstOrder::Storage, &mut joined);
    let exact = deliver(spec, query.records_of(db, &joined), opts, sink);
    Ok(ExecMetrics { exact, ..metrics })
}

/// Where an execution's output rows go, one at a time in result order.
trait Sink {
    /// Take the next output row, given by its projected cells; `false` once
    /// the sink wants no more rows.
    fn take<'c>(&mut self, cells: impl Iterator<Item = &'c Value>) -> bool;

    /// [`Sink::take`] for a row whose cells the caller owns already.
    fn take_owned(&mut self, cells: Vec<Value>) -> bool {
        self.take(cells.iter())
    }

    /// Make room for `rows` more rows, when the caller knows how many come.
    fn reserve(&mut self, _rows: usize) {}
}

/// [`execute_with`]'s sink: every row, collected.
impl Sink for Vec<Row> {
    fn reserve(&mut self, rows: usize) {
        Vec::reserve_exact(self, rows);
    }

    fn take<'c>(&mut self, cells: impl Iterator<Item = &'c Value>) -> bool {
        self.push(Row(cells.cloned().collect()));
        true
    }

    fn take_owned(&mut self, cells: Vec<Value>) -> bool {
        self.push(Row(cells));
        true
    }
}

/// [`decide_with`]'s sink: each row is shown to the verdict in a reused
/// buffer and dropped.
struct Decide<'v> {
    verdict: &'v mut dyn Verdict,
    answer: Option<bool>,
    row: Vec<Value>,
}

impl Sink for Decide<'_> {
    fn take<'c>(&mut self, cells: impl Iterator<Item = &'c Value>) -> bool {
        self.row.clear();
        self.row.extend(cells.cloned());
        self.answer = self.verdict.row(&self.row);
        self.answer.is_none()
    }

    fn take_owned(&mut self, cells: Vec<Value>) -> bool {
        self.answer = self.verdict.row(&cells);
        self.answer.is_none()
    }
}

/// Index-derived planning facts for one execution: per-table candidate row
/// lists implied by indexed literal predicates (directly, or through the
/// join tree), and the lookups spent computing them.
#[derive(Default)]
struct IndexAccess {
    /// Table → ascending candidate row ids: a **superset** of the table's
    /// rows that can appear in a joined row passing the WHERE clause.
    /// [`Resolved::passes`] still evaluates every predicate on every surviving
    /// row, so iterating (or joining to) candidates instead of the full
    /// table is output-invariant — the index only removes rows that could
    /// never survive. Only populated when predicates combine conjunctively
    /// (AND, or a single predicate).
    restrictions: HashMap<TableId, Vec<usize>>,
    /// Index lookups performed while planning.
    lookups: u64,
}

impl IndexAccess {
    /// Derive candidate restrictions from the spec's indexed literal
    /// predicates, then carry them up the join tree ([`Self::reduce`]).
    /// Must run after [`validate`] (predicates have columns).
    fn plan(db: &Database, spec: &SelectSpec) -> IndexAccess {
        let mut access = IndexAccess::literals(db, spec);
        access.reduce(db, spec);
        access
    }

    /// The candidate restrictions the spec's indexed literal predicates
    /// imply, table by table.
    fn literals(db: &Database, spec: &SelectSpec) -> IndexAccess {
        let mut access = IndexAccess::default();
        // Under OR, a row failing one predicate may still pass another, so a
        // per-predicate candidate list restricts nothing.
        if spec.predicate_op != LogicalOp::And && spec.predicates.len() > 1 {
            return access;
        }
        for pred in &spec.predicates {
            let col = pred.col.expect("validated: WHERE predicate has a column");
            let Some(cands) = predicate_candidates(db, col, pred) else { continue };
            access.lookups += 1;
            // Under AND a surviving row passes every predicate, so the
            // intersection of the per-predicate supersets is still one.
            access.restrict(col.table, cands);
        }
        access
    }

    /// Narrow `table` to `cands` (ascending), intersecting with what it
    /// already has.
    fn restrict(&mut self, table: TableId, cands: Vec<usize>) {
        match self.restrictions.entry(table) {
            Entry::Occupied(mut e) => {
                let both = intersect_ascending(e.get(), &cands);
                e.insert(both);
            }
            Entry::Vacant(e) => {
                e.insert(cands);
            }
        }
    }

    /// Semi-join reduction, the Boolean instance of the leaves-first walk
    /// ([`leaves_first`]; [`Counts`] is the counting one): walk the join
    /// tree toward the first FROM table and, wherever a child table is
    /// restricted, restrict its parent to the rows whose join key occurs
    /// among the child's candidates ([`Self::semi_join`]).
    ///
    /// Every joined row holds exactly one row of each table (inner
    /// equi-joins along a tree), so a parent row can only appear next to a
    /// child row that is itself a candidate: the reduced list is again an
    /// ascending superset of the survivors, and the argument the
    /// [`restrictions`](Self::restrictions) rest on carries over unchanged.
    ///
    /// For the join walk only the direction toward the probe side is
    /// walked. Restricting build sides from above as well reaches
    /// the same row counts but attaches a membership filter to
    /// index-nested-loop steps that were free, and measured slower on plans
    /// that were already selective (`docs/EXECUTOR.md`); the counting pass,
    /// which has no such steps, narrows from above too ([`Self::narrow`]).
    fn reduce(&mut self, db: &Database, spec: &SelectSpec) {
        // A join that is not a tree rooted at the first table is left
        // alone: which edges the plan joins on is then decided by
        // `plan_joins`, not by shape.
        if !self.restrictions.is_empty() {
            leaves_first(db, spec, self);
        }
    }

    /// The root-first pass the counting pass runs after [`Self::reduce`]:
    /// parents before children, wherever a parent table is restricted,
    /// restrict the child to the rows its candidates' join keys reach. The
    /// reduction's argument holds in this direction too — a child row can
    /// only appear next to a parent row that is a candidate — as does its
    /// skip rule.
    fn narrow(&mut self, db: &Database, spec: &SelectSpec) {
        for edge in orient_edges(spec) {
            if self.semi_join(db, edge.parent, edge.child).is_break() {
                return;
            }
        }
    }

    /// One semi-join step of [`Self::reduce`] or [`Self::narrow`]: if
    /// `from`'s table is restricted, restrict `to`'s table to the rows whose
    /// `to` key occurs among the candidates' `from` cells — one
    /// [`ColumnIndex::lookup`] per candidate. Keys compare as in the join
    /// itself — [`Value::key`], NULLs match nothing. Skipped when it is not
    /// expected to shrink its target: |candidates| × the `to` column's mean
    /// match-list length ≥ |`to` candidates|. `Break` when `from`'s table
    /// has no candidate left ([`Self::provably_empty`] takes it from there).
    fn semi_join(&mut self, db: &Database, from: ColumnId, to: ColumnId) -> ControlFlow<()> {
        let Some(source) = self.restrictions.get(&from.table) else {
            return ControlFlow::Continue(());
        };
        if source.is_empty() {
            return ControlFlow::Break(());
        }
        let idx = db.column_index(to);
        let target_len =
            (self.restrictions.get(&to.table)).map_or(db.table_data(to.table).rows.len(), Vec::len);
        if source.len() as f64 * idx.mean_matches() >= target_len as f64 {
            return ControlFlow::Continue(());
        }
        let from_rows = &db.table_data(from.table).rows;
        let mut reached: Vec<usize> = Vec::new();
        for &ri in source {
            reached.extend_from_slice(idx.lookup(&from_rows[ri].0[from.column]));
        }
        self.lookups += source.len() as u64;
        reached.sort_unstable();
        reached.dedup();
        self.restrict(to.table, reached);
        ControlFlow::Continue(())
    }

    /// Whether the planner can prove the joined relation empty before
    /// touching any rows: a joined table has no rows, or the conjunctive
    /// indexed predicates leave some table without a candidate.
    fn provably_empty(&self, db: &Database, spec: &SelectSpec) -> bool {
        spec.join.tables.iter().any(|&t| db.table_data(t).rows.is_empty())
            || self.restrictions.values().any(|c| c.is_empty())
    }
}

impl Carry for IndexAccess {
    fn carry(&mut self, db: &Database, edge: &OrientedEdge) -> ControlFlow<()> {
        self.semi_join(db, edge.child, edge.parent)
    }
}

/// Ascending row ids of `col`'s table that over-approximate the rows
/// matching `pred`, or `None` when the predicate is not index-answerable.
///
/// Supersets, never exact sets, are required (the WHERE filter re-checks):
///
/// * Text equality is exact — [`Value::key`] lowercases ASCII exactly like
///   [`Value::sql_eq`] compares.
/// * Numeric equality is epsilon-relative in [`Value::sql_eq`], so the index
///   serves a `±δ` range with `δ = 4ε(|v|+1)`, which strictly contains the
///   sql_eq tolerance band `|a-v| < ε·max(|a|,|v|,1)` including the rounding
///   of the computed bounds.
/// * Numeric ranges use [`Predicate::numeric_range_bounds`]; NULLs sort
///   before every number, so they never enter a numeric range slice.
/// * NULL and non-finite equality constants match nothing under
///   [`Value::sql_eq`], giving an empty (still exact) candidate set.
fn predicate_candidates(db: &Database, col: ColumnId, pred: &Predicate) -> Option<Vec<usize>> {
    let idx = db.column_index(col);
    let rows = &db.table_data(col.table).rows;
    match pred.op {
        CmpOp::Eq => match &pred.value {
            Value::Text(_) => Some(idx.lookup(&pred.value).to_vec()),
            Value::Null => Some(Vec::new()),
            Value::Number(v) if !v.is_finite() => Some(Vec::new()),
            Value::Number(v) => {
                if !idx.can_order() {
                    return None;
                }
                let delta = 4.0 * f64::EPSILON * (v.abs() + 1.0);
                let mut cands = idx
                    .range(
                        rows,
                        col.column,
                        &Value::Number(v - delta),
                        true,
                        &Value::Number(v + delta),
                        true,
                    )
                    .to_vec();
                cands.sort_unstable();
                Some(cands)
            }
        },
        _ => {
            let (lo, lo_incl, hi, hi_incl) = pred.numeric_range_bounds()?;
            if !idx.can_order() {
                return None;
            }
            let mut cands = idx
                .range(rows, col.column, &Value::Number(lo), lo_incl, &Value::Number(hi), hi_incl)
                .to_vec();
            cands.sort_unstable();
            Some(cands)
        }
    }
}

/// Where a column lives in a joined row: `(table slot, column)`.
type Pos = (usize, usize);

/// The joined rows the collect tail keeps, late-materialised: a joined row is
/// one row id per joined table (`width` of them, in [`JoinPlan::tables`]
/// order), rows laid end to end in join order, only those that passed WHERE.
/// Cells are read through the ids ([`Resolved::cell`]); nothing is copied
/// until a cell of a row is projected or aggregated.
struct Joined {
    ids: Vec<usize>,
    width: usize,
}

impl Joined {
    fn len(&self) -> usize {
        self.ids.len() / self.width
    }

    fn row(&self, r: usize) -> &[usize] {
        &self.ids[r * self.width..][..self.width]
    }
}

/// One output record before distinct/sort/limit: projected values plus the sort key.
struct Record {
    projected: Vec<Value>,
    order_key: Option<Value>,
}

fn validate(db: &Database, spec: &SelectSpec) -> DbResult<()> {
    if spec.select.is_empty() {
        return Err(DbError::InvalidQuery("SELECT clause is empty".into()));
    }
    if spec.join.tables.is_empty() {
        return Err(DbError::InvalidQuery("FROM clause is empty".into()));
    }
    if !spec.join.is_connected() {
        return Err(DbError::DisconnectedJoin("join tree is not connected".into()));
    }
    for col in spec.referenced_columns() {
        if !spec.join.contains(col.table) {
            return Err(DbError::InvalidQuery(format!(
                "column {} is not covered by the FROM clause",
                db.schema().qualified_name(col)
            )));
        }
    }
    for p in &spec.predicates {
        if p.is_aggregate() {
            return Err(DbError::InvalidQuery(
                "aggregated predicate in WHERE clause (belongs in HAVING)".into(),
            ));
        }
        if p.col.is_none() {
            return Err(DbError::InvalidQuery("WHERE predicate without a column".into()));
        }
    }
    for h in &spec.having {
        if !h.is_aggregate() {
            return Err(DbError::InvalidQuery("HAVING predicate must be aggregated".into()));
        }
    }
    for item in &spec.select {
        if item.agg.is_none() && item.col.is_none() {
            return Err(DbError::InvalidQuery(
                "SELECT item with neither aggregate nor column".into(),
            ));
        }
    }
    Ok(())
}

/// One index-nested-loop step of the plan: look the joined row's cell at
/// `probe` up in the index of the column `build`, of the table it adds.
struct JoinStep {
    probe: Pos,
    build: ColumnId,
}

/// The logical join plan the walk follows, whichever tail it feeds: the
/// canonical join order of [`plan_joins`].
struct JoinPlan {
    /// Joined tables in slot order: the first FROM table, then the build
    /// table of each step.
    tables: Vec<TableId>,
    steps: Vec<JoinStep>,
}

impl JoinPlan {
    /// `(table slot, column)` of a column of an already joined table.
    fn col_pos(&self, col: ColumnId) -> Pos {
        let slot = self.tables.iter().position(|&t| t == col.table);
        (slot.expect("validated: the FROM clause covers the column"), col.column)
    }
}

/// One FK edge of the join tree, oriented away from the first FROM table:
/// `child` is the endpoint farther from it — the build side of the edge's
/// join step, whatever order the steps run in.
struct OrientedEdge {
    /// Join column on the side nearer the first table.
    parent: ColumnId,
    /// Join column on the farther side.
    child: ColumnId,
}

/// Orient the spec's join edges by flooding outward from the first FROM
/// table; a parent always precedes its children in the returned order. Edges
/// the flood cannot orient (both ends already reached, i.e. a cycle) are left
/// out, so the result is shorter than `spec.join.edges` exactly when the
/// edges are not a tree over the FROM tables.
fn orient_edges(spec: &SelectSpec) -> Vec<OrientedEdge> {
    let mut reached: Vec<TableId> = vec![spec.join.tables[0]];
    let mut done = vec![false; spec.join.edges.len()];
    let mut oriented = Vec::with_capacity(spec.join.edges.len());
    let mut progress = true;
    while progress {
        progress = false;
        for (ei, e) in spec.join.edges.iter().enumerate() {
            let (from, to) = (e.fk.from, e.fk.to);
            let from_reached = reached.contains(&from.table);
            if done[ei] || from_reached == reached.contains(&to.table) {
                continue;
            }
            let (parent, child) = if from_reached { (from, to) } else { (to, from) };
            done[ei] = true;
            reached.push(child.table);
            oriented.push(OrientedEdge { parent, child });
            progress = true;
        }
    }
    oriented
}

/// What one leaves-first walk carries up the join tree, table by table: a
/// semiring instance of the walk. [`IndexAccess`] is the Boolean one (can a
/// row appear in a joined row at all?), [`Counts`] the counting one (in how
/// many?).
trait Carry {
    /// Fold what the walk knows of `edge.child`'s table — its subtree is
    /// complete — into `edge.parent`'s. `Break` once the walk has proven the
    /// join empty.
    fn carry(&mut self, db: &Database, edge: &OrientedEdge) -> ControlFlow<()>;
}

/// The one leaves-first walk over the join tree rooted at
/// `spec.join.tables[0]`: every edge is carried after every edge below its
/// child, so a table is folded into its parent only once its own subtree is.
/// Carries nothing when the edges are not a tree rooted there.
fn leaves_first(db: &Database, spec: &SelectSpec, walk: &mut impl Carry) {
    let oriented = orient_edges(spec);
    if oriented.len() != spec.join.edges.len() {
        return;
    }
    // `orient_edges` lists a parent's edge before its children's.
    for edge in oriented.iter().rev() {
        if walk.carry(db, edge).is_break() {
            return;
        }
    }
}

/// Row ids present in both ascending lists, ascending.
fn intersect_ascending(a: &[usize], b: &[usize]) -> Vec<usize> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short.iter().copied().filter(|ri| long.binary_search(ri).is_ok()).collect()
}

/// The canonical join order: seed with the first FROM table, then
/// repeatedly take the first remaining edge that connects a joined table to
/// an unjoined one (the order `tests/common/naive.rs` defines).
fn plan_joins(spec: &SelectSpec) -> DbResult<JoinPlan> {
    let mut plan = JoinPlan { tables: vec![spec.join.tables[0]], steps: Vec::new() };
    let mut remaining_edges = spec.join.edges.to_vec();

    while plan.tables.len() < spec.join.tables.len() {
        let joined = &plan.tables;
        let Some(pos) = remaining_edges.iter().position(|e| {
            let (a, b) = e.tables();
            joined.contains(&a) != joined.contains(&b)
        }) else {
            return Err(DbError::DisconnectedJoin(
                "no join edge connects the remaining tables".into(),
            ));
        };
        let fk = remaining_edges.remove(pos).fk;
        let (probe, build) =
            if joined.contains(&fk.from.table) { (fk.from, fk.to) } else { (fk.to, fk.from) };
        plan.steps.push(JoinStep { probe: plan.col_pos(probe), build });
        plan.tables.push(build.table);
    }

    Ok(plan)
}

/// How the walk iterates the first (probe-side) table.
enum FirstOrder {
    /// Plain storage order: no ORDER BY, or one the collect tail sorts by.
    Storage,
    /// Ordered index scan: walk the column's sorted run so an `ORDER BY
    /// col` streams. The run is ordered by `(value, row id)` — exactly what
    /// the collect tail's stable sort produces — so emission is
    /// byte-identical to collect-and-sort.
    Index {
        /// The ORDER BY column (a column of the first table).
        col: ColumnId,
        /// Walk the run backwards (equal-value ties still ascend).
        desc: bool,
    },
}

/// How the first table is iterated when `spec` streams, or `None` when it
/// takes the collect tail: it is grouped or aggregated, or its `ORDER BY`
/// is one no walk of the first table yields.
fn stream_order(db: &Database, spec: &SelectSpec) -> Option<FirstOrder> {
    if spec.has_aggregates() || !spec.group_by.is_empty() {
        return None;
    }
    let Some(OrderSpec { key, desc }) = spec.order_by else { return Some(FirstOrder::Storage) };
    // The sort is a no-op exactly when the probe side is iterated in the
    // order of the sort key: join steps expand each probe row in place and
    // the final sort is stable, so the walk's order equals the sorted order
    // byte for byte. Walking the sorted run of a first-table column's index
    // is such an iteration.
    let OrderKey::Column(col) = key else { return None };
    let index = db.column_index(col);
    if col.table != spec.join.tables[0] || !index.can_order() {
        return None;
    }
    // DISTINCT keeps the first of equal projections: in walk order when
    // streaming, in join order when the collect tail dedups before it
    // sorts. The two agree only if equal projections tie on the sort key:
    // the key is itself projected, and holds no text — `abc` and `ABC` are
    // one projection but sort apart.
    if spec.distinct
        && (index.holds_text() || !spec.select.iter().any(|item| item.col == Some(col)))
    {
        return None;
    }
    Some(FirstOrder::Index { col, desc })
}

/// Composite typed keys numbered by first appearance: the one derivation
/// behind GROUP BY partitioning and DISTINCT in both tails, so they cannot
/// drift. A key holds one [`Value::key`] per value — `None` for NULL,
/// which groups with NULL. A row is matched against the keys already numbered
/// by hashing and comparing its cells' folded bytes in place, so only a new
/// key is built and stored: grouping allocates per group, not per row.
#[derive(Default)]
struct KeyIndex {
    /// A key's hash → the first slot with that hash; `next` chains the rest.
    first: HashMap<u64, usize>,
    next: Vec<usize>,
    /// Every slot's key parts, back to back; slot `s` ends at `ends[s]`.
    keys: Vec<Option<Key>>,
    ends: Vec<usize>,
    hasher: RandomState,
}

impl KeyIndex {
    /// The first-appearance number of the key of `values`, and whether this
    /// call introduced it.
    fn slot<'v>(&mut self, values: impl Iterator<Item = &'v Value> + Clone) -> (usize, bool) {
        let mut hasher = self.hasher.build_hasher();
        for value in values.clone() {
            hash_folded(value, &mut hasher);
        }
        let hash = hasher.finish();
        let mut at = self.first.get(&hash).copied();
        while let Some(slot) = at {
            let start = slot.checked_sub(1).map_or(0, |s| self.ends[s]);
            if key_is(&self.keys[start..self.ends[slot]], values.clone()) {
                return (slot, false);
            }
            at = Some(self.next[slot]).filter(|&n| n != usize::MAX);
        }
        let slot = self.ends.len();
        self.keys.extend(values.map(Value::key));
        self.ends.push(self.keys.len());
        self.next.push(self.first.insert(hash, slot).unwrap_or(usize::MAX));
        (slot, true)
    }
}

/// Feed `value`'s [`Value::key`] to `hasher` without building it: a tag, and
/// a number's canonical bits or a text's length and ASCII-folded bytes.
fn hash_folded(value: &Value, hasher: &mut impl Hasher) {
    match value {
        Value::Null => hasher.write_u8(0),
        Value::Number(n) => {
            hasher.write_u8(1);
            hasher.write_u64(canonical_bits(*n));
        }
        Value::Text(text) => {
            hasher.write_u8(2);
            hasher.write_usize(text.len());
            let mut buf = [0u8; 64];
            for piece in text.as_bytes().chunks(buf.len()) {
                let folded = &mut buf[..piece.len()];
                folded.copy_from_slice(piece);
                folded.make_ascii_lowercase();
                hasher.write(folded);
            }
        }
    }
}

/// Whether `key` is the [`Value::key`] of each of `values`, compared in place.
fn key_is<'v>(key: &[Option<Key>], mut values: impl Iterator<Item = &'v Value>) -> bool {
    let part_is = |part: &Option<Key>, value: &Value| match (part, value) {
        (None, Value::Null) => true,
        (Some(Key::Num(bits)), Value::Number(n)) => *bits == canonical_bits(*n),
        (Some(Key::Text(folded)), Value::Text(text)) => folded.eq_ignore_ascii_case(text),
        _ => false,
    };
    key.iter().all(|part| values.next().is_some_and(|value| part_is(part, value)))
        && values.next().is_none()
}

/// GROUP BY on one indexed column, numbered by first appearance like
/// [`KeyIndex`] and grouping exactly as it does: a row's key is the position
/// of its match list among the column index's lists
/// ([`ColumnIndex::keyed_lists`]; keys compare as [`Value::key`]), NULL
/// past the last, read off one walk over the lists — so grouping a row
/// hashes and allocates nothing.
struct ListGroups {
    /// Per row of the column's table: its key's position.
    key_of: Vec<usize>,
    /// Per key: its group's slot, `usize::MAX` before it appears.
    slot_of: Vec<usize>,
    slots: usize,
}

impl ListGroups {
    fn new(idx: &ColumnIndex, rows: usize) -> ListGroups {
        let mut key_of = vec![usize::MAX; rows];
        let mut keys = 0;
        for (_, list) in idx.keyed_lists() {
            for &ri in list {
                key_of[ri] = keys;
            }
            keys += 1;
        }
        for key in &mut key_of {
            *key = (*key).min(keys); // NULL
        }
        ListGroups { key_of, slot_of: vec![usize::MAX; keys + 1], slots: 0 }
    }

    /// The first-appearance number of row `ri`'s group, and whether this
    /// call introduced it.
    fn slot(&mut self, ri: usize) -> (usize, bool) {
        let slot = &mut self.slot_of[self.key_of[ri]];
        let new = *slot == usize::MAX;
        if new {
            *slot = self.slots;
            self.slots += 1;
        }
        (*slot, new)
    }
}

/// The spec resolved against its join plan, once per execution: the stored
/// rows of every joined table by slot, and the [`Pos`] of every column the
/// per-row path reads, so that path hashes no `ColumnId`.
struct Resolved<'a> {
    spec: &'a SelectSpec,
    tables: Vec<&'a [Row]>,
    /// Column of each WHERE predicate, parallel to `spec.predicates`.
    where_pos: Vec<Pos>,
    /// Column of each SELECT item (`None` for `COUNT(*)`), parallel to `spec.select`.
    select_pos: Vec<Option<Pos>>,
    group_pos: Vec<Pos>,
    /// Argument of each HAVING aggregate, parallel to `spec.having`.
    having_pos: Vec<Option<Pos>>,
    /// The ORDER BY column, or the argument of its aggregate.
    order_pos: Option<Pos>,
}

impl<'a> Resolved<'a> {
    /// Must run after [`validate`]: every referenced column is joined.
    fn new(db: &'a Database, spec: &'a SelectSpec, plan: &JoinPlan) -> Resolved<'a> {
        let pos = |col: ColumnId| plan.col_pos(col);
        let column = |p: &Predicate| pos(p.col.expect("validated: WHERE predicate has a column"));
        Resolved {
            spec,
            tables: plan.tables.iter().map(|&t| db.table_data(t).rows.as_slice()).collect(),
            where_pos: spec.predicates.iter().map(column).collect(),
            select_pos: spec.select.iter().map(|item| item.col.map(pos)).collect(),
            group_pos: spec.group_by.iter().map(|&col| pos(col)).collect(),
            having_pos: spec.having.iter().map(|h| h.col.map(pos)).collect(),
            order_pos: spec.order_by.and_then(|o| match o.key {
                OrderKey::Column(col) | OrderKey::Aggregate(_, Some(col)) => Some(pos(col)),
                OrderKey::Aggregate(_, None) => None,
            }),
        }
    }

    /// The cell at `pos` of the joined row `ids` (one row id per slot; a
    /// prefix of the slots is enough when `pos` lies within it).
    fn cell(&self, ids: &[usize], (slot, col): Pos) -> &'a Value {
        &self.tables[slot][ids[slot]].0[col]
    }

    /// Whether one joined row survives the WHERE clause.
    fn passes(&self, ids: &[usize]) -> bool {
        let mut verdicts = self
            .spec
            .predicates
            .iter()
            .zip(&self.where_pos)
            .map(|(p, &pos)| compare(self.cell(ids, pos), p.op, &p.value, p.value2.as_ref()));
        match self.spec.predicate_op {
            LogicalOp::And => verdicts.all(|v| v),
            LogicalOp::Or => self.where_pos.is_empty() || verdicts.any(|v| v),
        }
    }

    /// Compute an aggregate over the joined rows `rows` of `joined`.
    fn aggregate(&self, joined: &Joined, rows: &[usize], agg: AggFunc, pos: Option<Pos>) -> Value {
        // The argument's non-NULL cells in row order; none for `*`.
        let values = || {
            let cells = pos.into_iter().flat_map(|p| rows.iter().map(move |&r| (r, p)));
            cells.map(|(r, p)| self.cell(joined.row(r), p)).filter(|v| !v.is_null())
        };
        let numbers = || values().filter_map(Value::as_number);
        match agg {
            AggFunc::Count if pos.is_none() => Value::int(rows.len() as i64),
            AggFunc::Count => Value::int(values().count() as i64),
            AggFunc::Sum if values().next().is_none() => Value::Null,
            AggFunc::Sum => Value::Number(numbers().sum()),
            AggFunc::Avg => match numbers().count() {
                0 => Value::Null,
                n => Value::Number(numbers().sum::<f64>() / n as f64),
            },
            // Under `ord_cmp`, the order of the sort: a NaN is the largest
            // number wherever it stands among the rows.
            AggFunc::Min => values().min_by(|a, b| ord_cmp(a, b)).cloned().unwrap_or(Value::Null),
            AggFunc::Max => values().max_by(|a, b| ord_cmp(a, b)).cloned().unwrap_or(Value::Null),
        }
    }

    /// The projected cells of the joined row `ids`, when no item aggregates.
    fn projected<'s>(&'s self, ids: &'s [usize]) -> impl Iterator<Item = &'a Value> + Clone + 's {
        let pos = |pos: &Option<Pos>| pos.expect("an ungrouped spec: every item has a column");
        self.select_pos.iter().map(move |p| self.cell(ids, pos(p)))
    }

    /// Partition the rows of `joined` by the GROUP BY columns, groups in
    /// first-appearance order: by the column's index lists for one column
    /// ([`ListGroups`]), by typed keys for several.
    fn partition(&self, db: &Database, joined: &Joined) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut push = |(slot, new): (usize, bool), r: usize| {
            if new {
                groups.push(Vec::new());
            }
            groups[slot].push(r);
        };
        match (&self.spec.group_by[..], &self.group_pos[..]) {
            (&[col], &[(table, _)]) => {
                let mut index = ListGroups::new(db.column_index(col), self.tables[table].len());
                for r in 0..joined.len() {
                    push(index.slot(joined.row(r)[table]), r);
                }
            }
            _ => {
                let mut index = KeyIndex::default();
                for r in 0..joined.len() {
                    let ids = joined.row(r);
                    push(index.slot(self.group_pos.iter().map(|&pos| self.cell(ids, pos))), r);
                }
            }
        }
        groups
    }

    /// The records of the rows the collect tail kept: a record per row of
    /// an ungrouped spec (DISTINCT already applied by the walk), one for a
    /// global aggregate, one per group that passes HAVING otherwise, then
    /// DISTINCT over those.
    fn records_of(&self, db: &Database, joined: &Joined) -> Vec<Record> {
        let spec = self.spec;
        let rows = || (0..joined.len()).collect::<Vec<usize>>();
        if !spec.has_aggregates() && spec.group_by.is_empty() {
            self.records(joined, rows().chunks(1))
        } else if spec.group_by.is_empty() {
            self.records(joined, std::iter::once(rows().as_slice()))
        } else {
            let groups = self.partition(db, joined);
            distinct(spec, self.records(joined, groups.iter().map(Vec::as_slice)))
        }
    }

    /// One output record per group that passes HAVING. An ungrouped query's
    /// rows are groups of one; a plain column projects the group's first row.
    /// The global group of an aggregate query without GROUP BY may be empty
    /// and still yields a record (`COUNT(*)` of 0), as in real SQL.
    fn records<'g>(
        &self,
        joined: &Joined,
        groups: impl Iterator<Item = &'g [usize]>,
    ) -> Vec<Record> {
        let spec = self.spec;
        let first = |rows: &[usize], pos: Pos| match rows.first() {
            Some(&r) => self.cell(joined.row(r), pos).clone(),
            None => Value::Null,
        };
        let having = |rows: &[usize]| {
            spec.having.iter().zip(&self.having_pos).all(|(h, &pos)| {
                let agg = h.agg.expect("validated: HAVING predicate is aggregated");
                compare(&self.aggregate(joined, rows, agg, pos), h.op, &h.value, h.value2.as_ref())
            })
        };
        let record = |rows: &[usize]| Record {
            projected: (spec.select.iter().zip(&self.select_pos))
                .map(|(item, &pos)| match (item.agg, pos) {
                    (Some(agg), pos) => self.aggregate(joined, rows, agg, pos),
                    (None, Some(pos)) => first(rows, pos),
                    (None, None) => Value::Null,
                })
                .collect(),
            order_key: spec.order_by.map(|o| match o.key {
                OrderKey::Aggregate(agg, _) => self.aggregate(joined, rows, agg, self.order_pos),
                OrderKey::Column(_) => first(rows, self.order_pos.expect("resolved with the spec")),
            }),
        };
        groups.filter(|rows| having(rows)).map(record).collect()
    }
}

/// One join step's build side: the build column's index — one
/// [`ColumnIndex::lookup`] per probe cell (index-nested-loop join, no build
/// pass at all), key → ascending row ids with NULLs excluded — plus the
/// build table's restriction, if it has one.
///
/// A restriction never replaces the match lists: it is applied as a
/// membership filter while a list is expanded, so a restricted build side
/// costs no more to set up than an unrestricted one, and each list stays an
/// ascending subsequence of itself — dropped rows are exactly those the
/// planner proved unable to appear in a surviving joined row.
struct StepHash<'h> {
    probe: Pos,
    lists: &'h ColumnIndex,
    /// Ascending candidate row ids of the build table.
    keep: Option<&'h [usize]>,
}

impl<'h> StepHash<'h> {
    /// The build side of `step`.
    fn of(db: &'h Database, step: &JoinStep, access: &'h IndexAccess) -> StepHash<'h> {
        let keep = access.restrictions.get(&step.build.table).map(Vec::as_slice);
        StepHash { probe: step.probe, lists: db.column_index(step.build), keep }
    }

    /// Whether no probe can match: the build column holds no non-NULL key.
    fn is_empty(&self) -> bool {
        self.lists.distinct_keys() == 0
    }

    /// Append to `out` the joined row `probe` extended by each build row its
    /// join key matches (and the restriction keeps), in ascending build-row
    /// order; returns how many. The walk's one join step.
    fn expand(&self, query: &Resolved<'_>, probe: &[usize], out: &mut Vec<usize>) -> u64 {
        let mut kept = 0;
        for ri in self.lists.lookup(query.cell(probe, self.probe)) {
            if self.keep.is_none_or(|keep| keep.binary_search(ri).is_ok()) {
                out.extend_from_slice(probe);
                out.push(*ri);
                kept += 1;
            }
        }
        kept
    }
}

/// The executor's one join loop, past the first-table iteration: the join
/// steps walked depth first, then WHERE and an ungrouped DISTINCT, then the
/// tail.
struct Walk<'a, T> {
    query: &'a Resolved<'a>,
    /// The projections seen so far, when DISTINCT applies to joined rows
    /// (the spec is ungrouped).
    seen: Option<KeyIndex>,
    tail: &'a mut T,
    /// Join rows produced.
    produced: u64,
    /// Index-nested-loop probes, and the join rows they produced.
    lookups: u64,
    via_index: u64,
}

impl<T: Tail> Walk<'_, T> {
    /// Carry one joined row through the remaining join `steps`: expand it by
    /// the next step into that depth's reused buffer, then descend into each
    /// expansion before the next — so a row is expanded only when the rows
    /// before it are consumed, as a lazy iterator chain would. Returns
    /// `false` once the tail wants no more rows, and the walk must stop
    /// pulling.
    fn pull(&mut self, ids: &[usize], steps: &[StepHash<'_>], bufs: &mut [Vec<usize>]) -> bool {
        let (Some((step, steps)), Some((buf, bufs))) =
            (steps.split_first(), bufs.split_first_mut())
        else {
            return self.offer(ids);
        };
        buf.clear();
        let produced = step.expand(self.query, ids, buf);
        self.produced += produced;
        self.lookups += 1;
        self.via_index += produced;
        buf.chunks_exact(ids.len() + 1).all(|row| self.pull(row, steps, bufs))
    }

    /// Offer one fully joined row to WHERE, DISTINCT and the tail.
    fn offer(&mut self, ids: &[usize]) -> bool {
        let query = self.query;
        if !query.passes(ids) {
            return true;
        }
        if let Some(seen) = &mut self.seen {
            if !seen.slot(query.projected(ids)).1 {
                return true;
            }
        }
        self.tail.take(query, ids)
    }
}

/// Where the walk's joined rows go once they pass WHERE (and DISTINCT, for
/// an ungrouped spec).
trait Tail {
    /// Whether the tail takes a row at all (a stream capped at 0 takes none).
    fn open(&self) -> bool {
        true
    }

    /// Take the joined row `ids`; `false` once the tail wants no more rows.
    fn take(&mut self, query: &Resolved<'_>, ids: &[usize]) -> bool;
}

/// The stream tail: projection, the output cap and the sink.
struct Emit<'s, S> {
    sink: &'s mut S,
    /// Rows the cap still allows.
    left: usize,
}

impl<S: Sink> Tail for Emit<'_, S> {
    fn open(&self) -> bool {
        self.left > 0
    }

    fn take(&mut self, query: &Resolved<'_>, ids: &[usize]) -> bool {
        self.left -= 1;
        self.sink.take(query.projected(ids)) && self.left > 0
    }
}

/// The collect tail: the ids of every row, for grouping or a sort.
impl Tail for Joined {
    fn take(&mut self, _: &Resolved<'_>, ids: &[usize]) -> bool {
        self.ids.extend_from_slice(ids);
        true
    }
}

/// Walk the join of `plan` into `tail`: the first table's rows in `order`,
/// narrowed to its restriction candidates, each pulled depth first through
/// the join steps ([`Walk::pull`]). Reports what it did; `exact` is whether
/// the walk ran to the end of its input.
///
/// It bails before touching a row when the planner proves the join empty
/// ([`IndexAccess::provably_empty`]) or a build side holds no key: the tail
/// then takes nothing, so a collect tail's aggregates see the empty
/// relation — a global `COUNT(*)` of 0, NULL `MIN`/`MAX` — as SQL has it.
fn walk<T: Tail>(
    db: &Database,
    query: &Resolved<'_>,
    plan: &JoinPlan,
    access: &IndexAccess,
    order: FirstOrder,
    tail: &mut T,
) -> ExecMetrics {
    let spec = query.spec;
    let builds: Vec<StepHash<'_>> =
        plan.steps.iter().map(|s| StepHash::of(db, s, access)).collect();
    if access.provably_empty(db, spec) || builds.iter().any(StepHash::is_empty) {
        return ExecMetrics {
            exact: true,
            index_lookups: access.lookups,
            probes_bailed_empty: 1,
            ..Default::default()
        };
    }

    // First-table iteration: the ordered index scan when the ORDER BY asks
    // for it, a plain scan otherwise — either one narrowed to the ascending
    // restriction candidates when the planner pre-selected rows. Candidate
    // order equals storage order and a filtered sorted run is a subsequence
    // of the run, so emission is unchanged.
    let first_rows = query.tables[0];
    let restriction = access.restrictions.get(&plan.tables[0]);
    let first_len = restriction.map_or(first_rows.len(), Vec::len) as u64;
    // An ordered scan costs one lookup to set up.
    let setup_lookups = u64::from(matches!(order, FirstOrder::Index { .. }));
    let via_first = restriction.is_some() || setup_lookups > 0;
    let first: Box<dyn Iterator<Item = usize> + '_> = match order {
        FirstOrder::Index { col, desc } => {
            let idx = db.column_index(col);
            let run: Box<dyn Iterator<Item = usize> + '_> = if desc {
                Box::new(idx.ordered_desc(first_rows, col.column))
            } else {
                Box::new(idx.ordered().iter().copied())
            };
            match restriction {
                Some(cands) => Box::new(run.filter(|ri| cands.binary_search(ri).is_ok())),
                None => run,
            }
        }
        FirstOrder::Storage => match restriction {
            Some(cands) => Box::new(cands.iter().copied()),
            None => Box::new(0..first_rows.len()),
        },
    };

    let ungrouped = !spec.has_aggregates() && spec.group_by.is_empty();
    let mut walk = Walk {
        query,
        seen: (spec.distinct && ungrouped).then(KeyIndex::default),
        tail,
        produced: 0,
        lookups: 0,
        via_index: 0,
    };
    // One id buffer per join depth, reused for every probe row.
    let mut bufs: Vec<Vec<usize>> = vec![Vec::new(); builds.len()];
    let mut scanned: u64 = 0;
    let mut stopped = false;
    for ri in first {
        if !walk.tail.open() {
            stopped = true;
            break;
        }
        scanned += 1;
        if !walk.pull(&[ri], &builds, &mut bufs) {
            stopped = true;
            break;
        }
    }
    ExecMetrics {
        rows_scanned: scanned + walk.produced,
        rows_short_circuited: if stopped { first_len.saturating_sub(scanned) } else { 0 },
        exact: !stopped,
        streamed: false,
        counted: false,
        index_lookups: access.lookups + setup_lookups + walk.lookups,
        rows_via_index: walk.via_index + if via_first { scanned } else { 0 },
        probes_bailed_empty: 0,
    }
}

/// The end of the collect tail and of the counting pass, on records DISTINCT
/// has already deduplicated: ORDER BY and LIMIT ([`finalize`]), then the
/// budget, then the rows to `sink` until it wants no more. Returns whether
/// the budget cut nothing ([`ExecMetrics::exact`]).
fn deliver(
    spec: &SelectSpec,
    records: Vec<Record>,
    opts: &ExecOptions,
    sink: &mut impl Sink,
) -> bool {
    let mut records = finalize(spec, records);
    let exact = opts.row_budget.is_none_or(|budget| records.len() <= budget);
    records.truncate(opts.row_budget.unwrap_or(usize::MAX));
    sink.reserve(records.len());
    for record in records {
        if !sink.take_owned(record.projected) {
            break;
        }
    }
    exact
}

/// Whether `spec` lies in the counting fragment: a grouped or aggregate
/// query whose one aggregate is `COUNT(*)` — in SELECT, HAVING and ORDER BY
/// — whose GROUP BY, plain projected and ORDER BY columns are all on the
/// first FROM table, and whose WHERE clause is an AND of single-column
/// predicates (or one predicate), so that a joined row passes it exactly
/// when each of its table rows passes its own.
fn in_counting_fragment(spec: &SelectSpec) -> bool {
    let root = spec.join.tables[0];
    let on_root = |col: ColumnId| col.table == root;
    let count_star = |agg, col: Option<ColumnId>| agg == Some(AggFunc::Count) && col.is_none();
    (spec.has_aggregates() || !spec.group_by.is_empty())
        && (spec.predicate_op == LogicalOp::And || spec.predicates.len() <= 1)
        && spec.group_by.iter().all(|&col| on_root(col))
        && spec.select.iter().all(|item| match item.agg {
            None => item.col.is_some_and(on_root),
            agg => count_star(agg, item.col),
        })
        && spec.having.iter().all(|h| count_star(h.agg, h.col))
        && spec.order_by.is_none_or(|o| match o.key {
            OrderKey::Column(col) => on_root(col),
            OrderKey::Aggregate(agg, col) => count_star(Some(agg), col),
        })
}

/// Answer a spec of the counting fragment ([`in_counting_fragment`]) with
/// one counting pass over its join tree, building no joined row, or `None`
/// when the join walk must run instead: the spec is outside the fragment,
/// the join is not a tree rooted at the first table, a literal restriction
/// is already provably empty (the walk's bail answers that without a row),
/// or a count overflows.
///
/// The pass reduces the literal restrictions up the tree
/// ([`IndexAccess::reduce`]) and narrows them down from the root
/// ([`IndexAccess::narrow`]), then counts leaves first ([`Counts`]). A
/// group's record is the collect tail's, in its order: joined
/// rows come root row by root row, so the group of the first root row with
/// a non-zero count appears first, its first joined row holds that root
/// row, and a first-table cell of it is that row's cell; `COUNT(*)` is the
/// sum of its root rows' counts. `docs/EXECUTOR.md` ("Counting over the join
/// tree") has the argument in full.
fn count_over_tree(db: &Database, spec: &SelectSpec) -> Option<(Vec<Record>, ExecMetrics)> {
    if !in_counting_fragment(spec) || orient_edges(spec).len() != spec.join.edges.len() {
        return None;
    }
    let mut access = IndexAccess::literals(db, spec);
    if access.provably_empty(db, spec) {
        return None;
    }
    access.reduce(db, spec);
    access.narrow(db, spec);
    let mut counts = Counts::new(db, spec, &access);
    leaves_first(db, spec, &mut counts);
    let records = counts.records(db, spec)?;
    let metrics = ExecMetrics {
        rows_scanned: counts.scanned,
        rows_short_circuited: 0,
        exact: true,
        streamed: false,
        counted: true,
        index_lookups: access.lookups + counts.lookups,
        rows_via_index: counts.via_index,
        probes_bailed_empty: u64::from(counts.emptied),
    };
    Some((records, metrics))
}

/// How many row-to-row steps of a merge one binary-search lookup is taken
/// to cost, in [`Counts::sums`]' choice between them: about its depth on
/// the column sizes this executor serves.
const MERGE_PER_LOOKUP: usize = 8;

/// The counting instance of [`leaves_first`]: for each row of each joined
/// table, how many joined rows of the table's subtree hold it and pass the
/// WHERE clause. A row starts at 1 if it is a candidate that passes its own
/// table's predicates, 0 otherwise; each child edge then multiplies it by
/// the sum of the counts of the child rows its join key matches, read off
/// the join columns' indexes ([`Counts::sums`]). Once every edge is carried,
/// a root row's count is the number of joined rows that begin with it.
struct Counts<'a> {
    tables: &'a [TableId],
    /// Per FROM table, by row id: the row's count so far.
    counts: Vec<Vec<u64>>,
    /// Per FROM table: the rows whose count is not 0, ascending.
    live: Vec<Vec<usize>>,
    /// A table lost its last live row, so every count above it is 0.
    emptied: bool,
    /// A product or sum left `u64`.
    overflowed: bool,
    /// Rows counted, lookups made and rows their match lists held
    /// ([`ExecMetrics`]).
    scanned: u64,
    lookups: u64,
    via_index: u64,
}

impl<'a> Counts<'a> {
    /// Every FROM table's candidates (its restriction, or all its rows),
    /// kept at 1 where they pass their table's predicates.
    fn new(db: &Database, spec: &'a SelectSpec, access: &IndexAccess) -> Counts<'a> {
        let tables: &'a [TableId] = &spec.join.tables;
        let mut counts = Counts {
            tables,
            counts: Vec::with_capacity(tables.len()),
            live: Vec::with_capacity(tables.len()),
            emptied: false,
            overflowed: false,
            scanned: 0,
            lookups: 0,
            via_index: 0,
        };
        for &table in tables {
            let rows = &db.table_data(table).rows;
            let own: Vec<(usize, &Predicate)> = (spec.predicates.iter())
                .filter_map(|p| p.col.filter(|c| c.table == table).map(|c| (c.column, p)))
                .collect();
            let passes = |&ri: &usize| {
                let row = &rows[ri].0;
                own.iter().all(|&(c, p)| compare(&row[c], p.op, &p.value, p.value2.as_ref()))
            };
            let live: Vec<usize> = match access.restrictions.get(&table) {
                Some(cands) => {
                    counts.via_index += cands.len() as u64;
                    counts.scanned += cands.len() as u64;
                    cands.iter().copied().filter(passes).collect()
                }
                None => {
                    counts.scanned += rows.len() as u64;
                    (0..rows.len()).filter(passes).collect()
                }
            };
            let mut by_row = vec![0; rows.len()];
            for &ri in &live {
                by_row[ri] = 1;
            }
            counts.emptied |= live.is_empty();
            counts.counts.push(by_row);
            counts.live.push(live);
        }
        counts
    }

    /// Position of `table` among the FROM tables.
    fn slot(&self, table: TableId) -> usize {
        self.tables.iter().position(|&t| t == table).expect("validated: the FROM clause")
    }

    /// The spec's records before DISTINCT, ORDER BY and LIMIT, from the
    /// root's counts: one per group of live root rows, groups in the order
    /// of their first row, or the one global group. `None` on overflow.
    fn records(&self, db: &Database, spec: &SelectSpec) -> Option<Vec<Record>> {
        if self.overflowed {
            return None;
        }
        let root: &[usize] = if self.emptied { &[] } else { &self.live[0] };
        let (root_rows, counts) = (&db.table_data(self.tables[0]).rows, &self.counts[0]);
        // (first root row, COUNT(*)) of each group.
        let mut groups: Vec<(Option<usize>, u64)> = Vec::new();
        if spec.group_by.is_empty() {
            let total = root.iter().try_fold(0u64, |sum, &ri| sum.checked_add(counts[ri]))?;
            groups.push((root.first().copied(), total));
        } else if let [col] = spec.group_by[..] {
            let mut index = ListGroups::new(db.column_index(col), root_rows.len());
            for &ri in root {
                let (slot, new) = index.slot(ri);
                if new {
                    groups.push((Some(ri), 0));
                }
                groups[slot].1 = groups[slot].1.checked_add(counts[ri])?;
            }
        } else {
            let mut index = KeyIndex::default();
            for &ri in root {
                let key = spec.group_by.iter().map(|col| &root_rows[ri].0[col.column]);
                let (slot, new) = index.slot(key);
                if new {
                    groups.push((Some(ri), 0));
                }
                groups[slot].1 = groups[slot].1.checked_add(counts[ri])?;
            }
        }
        let cell = |first: Option<usize>, col: ColumnId| {
            first.map_or(Value::Null, |ri| root_rows[ri].0[col.column].clone())
        };
        let mut records = Vec::with_capacity(groups.len());
        for (first, n) in groups {
            let count = Value::int(i64::try_from(n).ok()?);
            if !spec.having.iter().all(|h| compare(&count, h.op, &h.value, h.value2.as_ref())) {
                continue;
            }
            let projected = (spec.select.iter())
                .map(|item| match item.agg {
                    None => cell(first, item.col.expect("validated: a plain item has a column")),
                    Some(_) => count.clone(),
                })
                .collect();
            let order_key = spec.order_by.map(|o| match o.key {
                OrderKey::Column(col) => cell(first, col),
                OrderKey::Aggregate(..) => count.clone(),
            });
            records.push(Record { projected, order_key });
        }
        Some(records)
    }

    /// Each live parent row's sum of the counts of the child rows its join
    /// key matches, by parent row id (0 for a row the walk need not ask
    /// about), read off the two join columns' match lists: merged side by
    /// side in key order when nearly every row on both sides is live, else
    /// from whichever side has fewer live rows — pulled, one lookup in the
    /// child column's index per live parent row, or pushed, one lookup in
    /// the parent column's index per live child row. `None` on overflow.
    fn sums(&mut self, db: &Database, edge: &OrientedEdge) -> Option<Vec<u64>> {
        let (parent, child) = (self.slot(edge.parent.table), self.slot(edge.child.table));
        let (parent_idx, child_idx) = (db.column_index(edge.parent), db.column_index(edge.child));
        let parent_rows = db.table_data(edge.parent.table).rows.len();
        let probes = self.live[parent].len().min(self.live[child].len());
        let both = parent_rows + db.table_data(edge.child.table).rows.len();
        if probes.saturating_mul(MERGE_PER_LOOKUP) >= both {
            // Nearly every row on both sides is asked about: walking the
            // two columns' match lists side by side in key order costs less
            // than a binary search per row.
            let below = &self.counts[child];
            let mut sums = vec![0u64; parent_rows];
            let mut lists = child_idx.keyed_lists().peekable();
            for (key, parents) in parent_idx.keyed_lists() {
                while lists.next_if(|&(k, _)| k < key).is_some() {}
                let Some((_, children)) = lists.next_if(|&(k, _)| k == key) else { continue };
                let sum = children.iter().try_fold(0u64, |sum, &c| sum.checked_add(below[c]))?;
                self.via_index += children.len() as u64;
                for &p in parents {
                    sums[p] = sum;
                }
            }
            return Some(sums);
        }
        let pull = self.live[parent].len() <= self.live[child].len();
        let (from, idx) = if pull { (edge.parent, child_idx) } else { (edge.child, parent_idx) };
        let probes = &self.live[self.slot(from.table)];
        let rows = &db.table_data(from.table).rows;
        let below = &self.counts[child];
        let mut sums = vec![0u64; parent_rows];
        for &ri in probes {
            let matches = idx.lookup(&rows[ri].0[from.column]);
            self.via_index += matches.len() as u64;
            if pull {
                sums[ri] = matches.iter().try_fold(0u64, |sum, &c| sum.checked_add(below[c]))?;
            } else {
                for &p in matches {
                    sums[p] = sums[p].checked_add(below[ri])?;
                }
            }
        }
        self.lookups += probes.len() as u64;
        Some(sums)
    }
}

impl Carry for Counts<'_> {
    /// Multiply each live parent row's count by the sum of the counts of
    /// the child rows its join key matches ([`Counts::sums`]); a row whose
    /// product is 0 leaves the live list.
    fn carry(&mut self, db: &Database, edge: &OrientedEdge) -> ControlFlow<()> {
        let Some(sums) = self.sums(db, edge) else {
            self.overflowed = true;
            return ControlFlow::Break(());
        };
        let parent = self.slot(edge.parent.table);
        let mut live = std::mem::take(&mut self.live[parent]);
        let counts = &mut self.counts[parent];
        let mut overflowed = false;
        live.retain(|&ri| {
            let product = counts[ri].checked_mul(sums[ri]);
            overflowed |= product.is_none();
            counts[ri] = product.unwrap_or(0);
            counts[ri] != 0
        });
        self.overflowed |= overflowed;
        self.emptied |= live.is_empty();
        self.live[parent] = live;
        if self.overflowed || self.emptied {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Apply a comparison operator.
fn compare(lhs: &Value, op: CmpOp, rhs: &Value, rhs2: Option<&Value>) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => lhs.sql_eq(rhs),
        CmpOp::Ne => !lhs.is_null() && !rhs.is_null() && !lhs.sql_eq(rhs),
        CmpOp::Lt => matches!(lhs.sql_cmp(rhs), Some(Less)),
        CmpOp::Le => matches!(lhs.sql_cmp(rhs), Some(Less | Equal)),
        CmpOp::Gt => matches!(lhs.sql_cmp(rhs), Some(Greater)),
        CmpOp::Ge => matches!(lhs.sql_cmp(rhs), Some(Greater | Equal)),
        CmpOp::Like => match rhs {
            Value::Text(p) => lhs.sql_like(p),
            _ => false,
        },
        CmpOp::Between => {
            let hi = rhs2.unwrap_or(rhs);
            matches!(lhs.sql_cmp(rhs), Some(Greater | Equal))
                && matches!(lhs.sql_cmp(hi), Some(Less | Equal))
        }
    }
}

/// Output column names and types of a spec.
fn headers(db: &Database, spec: &SelectSpec) -> DbResult<(Vec<String>, Vec<DataType>)> {
    let schema = db.schema();
    let mut columns = Vec::with_capacity(spec.select.len());
    let mut types = Vec::with_capacity(spec.select.len());
    for item in &spec.select {
        match (item.agg, item.col) {
            (Some(agg), Some(c)) => {
                columns.push(format!("{agg}({})", schema.qualified_name(c)));
                types.push(agg.result_type(Some(schema.column(c).dtype)));
            }
            (Some(agg), None) => {
                columns.push(format!("{agg}(*)"));
                types.push(DataType::Number);
            }
            (None, Some(c)) => {
                columns.push(schema.qualified_name(c));
                types.push(schema.column(c).dtype);
            }
            (None, None) => {
                return Err(DbError::InvalidQuery(
                    "SELECT item with neither aggregate nor column".into(),
                ))
            }
        }
    }
    Ok((columns, types))
}

/// DISTINCT over grouped records: the first of equal projections stays.
/// (Ungrouped rows are deduplicated before their records are built, and a
/// global aggregate has one record.)
fn distinct(spec: &SelectSpec, mut records: Vec<Record>) -> Vec<Record> {
    if spec.distinct {
        let mut seen = KeyIndex::default();
        records.retain(|r| seen.slot(r.projected.iter()).1);
    }
    records
}

/// Apply ORDER BY and LIMIT.
fn finalize(spec: &SelectSpec, mut records: Vec<Record>) -> Vec<Record> {
    if let Some(order) = spec.order_by {
        // `ord_cmp`, not `Value::total_cmp`: a total order even over a NaN
        // (after every number), which the standard sort insists on.
        records.sort_by(|a, b| {
            let ka = a.order_key.as_ref().unwrap_or(&Value::Null);
            let kb = b.order_key.as_ref().unwrap_or(&Value::Null);
            let ord = ord_cmp(ka, kb);
            if order.desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(limit) = spec.limit {
        records.truncate(limit);
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_graph::{JoinGraph, JoinTree};
    use crate::query::SelectItem;
    use crate::schema::{ColumnDef, Schema, TableDef};

    /// The movie database from the paper's motivating example.
    fn movie_db() -> Database {
        let mut s = Schema::new("movies");
        s.add_table(TableDef::new(
            "actor",
            vec![
                ColumnDef::number("aid"),
                ColumnDef::text("name"),
                ColumnDef::number("birth_yr"),
                ColumnDef::text("gender"),
            ],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "movies",
            vec![ColumnDef::number("mid"), ColumnDef::text("name"), ColumnDef::number("year")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "starring",
            vec![ColumnDef::number("aid"), ColumnDef::number("mid")],
            None,
        ));
        s.add_foreign_key("starring", "aid", "actor", "aid").unwrap();
        s.add_foreign_key("starring", "mid", "movies", "mid").unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert_all(
            "actor",
            vec![
                vec![
                    Value::int(1),
                    Value::text("Tom Hanks"),
                    Value::int(1956),
                    Value::text("male"),
                ],
                vec![
                    Value::int(2),
                    Value::text("Sandra Bullock"),
                    Value::int(1964),
                    Value::text("female"),
                ],
                vec![
                    Value::int(3),
                    Value::text("Brad Pitt"),
                    Value::int(1963),
                    Value::text("male"),
                ],
            ],
        )
        .unwrap();
        db.insert_all(
            "movies",
            vec![
                vec![Value::int(10), Value::text("Forrest Gump"), Value::int(1994)],
                vec![Value::int(11), Value::text("Gravity"), Value::int(2013)],
                vec![Value::int(12), Value::text("Fight Club"), Value::int(1999)],
            ],
        )
        .unwrap();
        db.insert_all(
            "starring",
            vec![
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(2), Value::int(11)],
                vec![Value::int(3), Value::int(12)],
            ],
        )
        .unwrap();
        db
    }

    fn run(db: &Database, spec: &SelectSpec) -> ExecOutcome {
        execute_with(db, spec, &ExecOptions::default()).unwrap()
    }

    fn col(db: &Database, t: &str, c: &str) -> ColumnId {
        db.schema().column_id(t, c).unwrap()
    }

    #[test]
    fn simple_projection() {
        let db = movie_db();
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "actor", "name"))],
            join: JoinTree::single(db.schema().table_id("actor").unwrap()),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.columns, vec!["actor.name".to_string()]);
        assert_eq!(rs.types, vec![DataType::Text]);
    }

    #[test]
    fn where_filter_and_or() {
        let db = movie_db();
        let year = col(&db, "movies", "year");
        let mut spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "movies", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            predicates: vec![
                Predicate::new(year, CmpOp::Lt, Value::int(1995)),
                Predicate::new(year, CmpOp::Gt, Value::int(2000)),
            ],
            predicate_op: LogicalOp::Or,
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 2); // Forrest Gump and Gravity
        spec.predicate_op = LogicalOp::And;
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 0);
    }

    #[test]
    fn three_way_join() {
        let db = movie_db();
        let schema = db.schema();
        let graph = JoinGraph::new(schema);
        let join = graph
            .steiner_tree(&[schema.table_id("actor").unwrap(), schema.table_id("movies").unwrap()])
            .unwrap();
        let spec = SelectSpec {
            select: vec![
                SelectItem::column(col(&db, "movies", "name")),
                SelectItem::column(col(&db, "actor", "name")),
            ],
            join,
            predicates: vec![Predicate::new(
                col(&db, "actor", "name"),
                CmpOp::Eq,
                Value::text("Tom Hanks"),
            )],
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].0[0], Value::text("Forrest Gump"));
    }

    #[test]
    fn group_by_with_count_and_having() {
        let db = movie_db();
        let schema = db.schema();
        let graph = JoinGraph::new(schema);
        let join = graph
            .steiner_tree(&[
                schema.table_id("actor").unwrap(),
                schema.table_id("starring").unwrap(),
            ])
            .unwrap();
        let gender = col(&db, "actor", "gender");
        let spec = SelectSpec {
            select: vec![SelectItem::column(gender), SelectItem::count_star()],
            join,
            group_by: vec![gender],
            having: vec![Predicate::having(AggFunc::Count, None, CmpOp::Ge, Value::int(2))],
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].0[0], Value::text("male"));
        assert_eq!(rs.rows[0].0[1], Value::int(2));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let db = movie_db();
        let spec = SelectSpec {
            select: vec![SelectItem::count_star()],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].0[0], Value::int(3));
    }

    #[test]
    fn order_by_and_limit() {
        let db = movie_db();
        let year = col(&db, "movies", "year");
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "movies", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            order_by: Some(OrderSpec { key: OrderKey::Column(year), desc: true }),
            limit: Some(1),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].0[0], Value::text("Gravity"));
    }

    #[test]
    fn order_by_aggregate() {
        let db = movie_db();
        let schema = db.schema();
        let graph = JoinGraph::new(schema);
        let join = graph
            .steiner_tree(&[
                schema.table_id("actor").unwrap(),
                schema.table_id("starring").unwrap(),
            ])
            .unwrap();
        let gender = col(&db, "actor", "gender");
        let spec = SelectSpec {
            select: vec![SelectItem::column(gender), SelectItem::count_star()],
            join,
            group_by: vec![gender],
            order_by: Some(OrderSpec {
                key: OrderKey::Aggregate(AggFunc::Count, None),
                desc: true,
            }),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.rows[0].0[0], Value::text("male"));
        assert_eq!(rs.rows[1].0[0], Value::text("female"));
    }

    #[test]
    fn distinct_removes_duplicates() {
        let db = movie_db();
        let gender = col(&db, "actor", "gender");
        let spec = SelectSpec {
            select: vec![SelectItem::column(gender)],
            distinct: true,
            join: JoinTree::single(db.schema().table_id("actor").unwrap()),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn aggregates_min_max_sum_avg() {
        let db = movie_db();
        let year = col(&db, "movies", "year");
        let spec = SelectSpec {
            select: vec![
                SelectItem::aggregate(AggFunc::Min, year),
                SelectItem::aggregate(AggFunc::Max, year),
                SelectItem::aggregate(AggFunc::Sum, year),
                SelectItem::aggregate(AggFunc::Avg, year),
                SelectItem::aggregate(AggFunc::Count, year),
            ],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.rows[0].0[0], Value::int(1994));
        assert_eq!(rs.rows[0].0[1], Value::int(2013));
        assert_eq!(rs.rows[0].0[2], Value::int(1994 + 2013 + 1999));
        assert_eq!(rs.rows[0].0[4], Value::int(3));
        let avg = rs.rows[0].0[3].as_number().unwrap();
        assert!((avg - 2002.0).abs() < 1.0);
    }

    #[test]
    fn between_and_like_predicates() {
        let db = movie_db();
        let year = col(&db, "movies", "year");
        let name = col(&db, "movies", "name");
        let spec = SelectSpec {
            select: vec![SelectItem::column(name)],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            predicates: vec![Predicate::between(year, Value::int(1990), Value::int(2000))],
            ..Default::default()
        };
        assert_eq!(execute(&db, &spec).unwrap().len(), 2);

        let spec = SelectSpec {
            select: vec![SelectItem::column(name)],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            predicates: vec![Predicate::new(name, CmpOp::Like, Value::text("%club%"))],
            ..Default::default()
        };
        let rs = execute(&db, &spec).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].0[0], Value::text("Fight Club"));
    }

    #[test]
    fn invalid_queries_rejected() {
        let db = movie_db();
        // Empty SELECT.
        let spec = SelectSpec {
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            ..Default::default()
        };
        assert!(execute(&db, &spec).is_err());
        // Column not covered by FROM.
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "actor", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            ..Default::default()
        };
        assert!(matches!(execute(&db, &spec), Err(DbError::InvalidQuery(_))));
    }

    /// A larger fixture for streaming tests: `left` (many rows) joins
    /// `right` with a fan-out per key, so the joined relation is much larger
    /// than either base table. `right` row `i` holds `(k, v) = (i % keys, i)`,
    /// `left` row `i` holds `(id, k) = (i, i % keys)`.
    fn fanout_db(left_rows: usize, keys: usize, fanout: usize) -> Database {
        let mut s = Schema::new("fanout");
        s.add_table(TableDef::new(
            "right",
            vec![ColumnDef::number("k"), ColumnDef::number("v")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "left",
            vec![ColumnDef::number("id"), ColumnDef::number("k")],
            Some(0),
        ));
        s.add_foreign_key("left", "k", "right", "k").unwrap();
        let mut db = Database::new(s).unwrap();
        db.insert_all(
            "right",
            (0..keys * fanout).map(|i| vec![Value::int((i % keys) as i64), Value::int(i as i64)]),
        )
        .unwrap();
        db.insert_all(
            "left",
            (0..left_rows).map(|i| vec![Value::int(i as i64), Value::int((i % keys) as i64)]),
        )
        .unwrap();
        db
    }

    fn fanout_join_spec(db: &Database) -> SelectSpec {
        let schema = db.schema();
        let graph = JoinGraph::new(schema);
        let join = graph
            .steiner_tree(&[schema.table_id("left").unwrap(), schema.table_id("right").unwrap()])
            .unwrap();
        SelectSpec {
            select: vec![
                SelectItem::column(col(db, "left", "id")),
                SelectItem::column(col(db, "right", "v")),
            ],
            join,
            ..Default::default()
        }
    }

    #[test]
    fn limit_probe_short_circuits_the_join() {
        let db = fanout_db(500, 10, 20);
        let unlimited = fanout_join_spec(&db);
        let probe = SelectSpec { limit: Some(1), ..unlimited.clone() };

        let streaming = run(&db, &probe);
        // Nothing stops the unlimited spec: it streams too, and drains the join.
        let drained = run(&db, &unlimited);

        assert_eq!(streaming.result.rows, drained.result.rows[..1], "the probe is a prefix");
        assert!(streaming.metrics.streamed && drained.metrics.streamed);
        assert!(streaming.metrics.exact && drained.metrics.exact);
        assert!(
            streaming.metrics.rows_scanned * 10 < drained.metrics.rows_scanned,
            "LIMIT 1 must scan <10% of the drained join's rows: {} vs {}",
            streaming.metrics.rows_scanned,
            drained.metrics.rows_scanned
        );
        assert!(streaming.metrics.rows_short_circuited > 0);
    }

    #[test]
    fn row_budget_truncates_and_reports_inexact() {
        let db = movie_db();
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "movies", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            ..Default::default()
        };
        let out = execute_with(&db, &spec, &ExecOptions { row_budget: Some(2) }).unwrap();
        assert_eq!(out.result.len(), 2);
        assert!(!out.metrics.exact, "budget cut a 3-row result to 2");

        let out = execute_with(&db, &spec, &ExecOptions { row_budget: Some(10) }).unwrap();
        assert_eq!(out.result.len(), 3);
        assert!(out.metrics.exact, "budget larger than the result is exact");
    }

    #[test]
    fn budget_truncation_matches_on_sorted_queries() {
        // With an ORDER BY, the budget must truncate the *sorted* output.
        let db = movie_db();
        let year = col(&db, "movies", "year");
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "movies", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            order_by: Some(OrderSpec { key: OrderKey::Column(year), desc: true }),
            ..Default::default()
        };
        let out = execute_with(&db, &spec, &ExecOptions { row_budget: Some(1) }).unwrap();
        assert_eq!(out.result.rows[0].0[0], Value::text("Gravity"));
        assert!(!out.metrics.exact);
    }

    /// `ORDER BY c LIMIT k` on a first-table column streams off the column's
    /// sorted run however the column happens to be stored — ascending,
    /// descending or neither, all with ties — and emits the first `k` rows of
    /// the materialised sort: values in order, ties in row order.
    #[test]
    fn order_by_limit_streams_from_index_whatever_the_stored_order() {
        let mut s = Schema::new("runs");
        let columns = ["id", "up", "down", "mixed"].map(ColumnDef::number).to_vec();
        s.add_table(TableDef::new("t", columns, Some(0)));
        let mut db = Database::new(s).unwrap();
        let cells = |i: i64| [i, i / 3, (11 - i) / 3, (i * 5 % 12) / 3];
        db.insert_all("t", (0..12).map(|i| cells(i).map(Value::int).to_vec())).unwrap();

        for (key, desc) in ["up", "down", "mixed"].into_iter().flat_map(|k| [(k, false), (k, true)])
        {
            let key_col = col(&db, "t", key);
            let unlimited = SelectSpec {
                select: vec![SelectItem::column(col(&db, "t", "id"))],
                join: JoinTree::single(key_col.table),
                order_by: Some(OrderSpec { key: OrderKey::Column(key_col), desc }),
                ..Default::default()
            };
            // Five rows end inside a group of three equal keys.
            let spec = SelectSpec { limit: Some(5), ..unlimited.clone() };
            let mut expected: Vec<i64> = (0..12).collect();
            expected.sort_by(|&a, &b| {
                let ord = cells(a)[key_col.column].cmp(&cells(b)[key_col.column]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
            let expected: Vec<Row> = expected.iter().map(|&i| Row(vec![Value::int(i)])).collect();

            // One lookup sets the ordered scan up; it walks the run until
            // the fifth row and leaves the other seven unpulled.
            let indexed = run(&db, &spec);
            assert!(indexed.metrics.streamed, "{key} desc={desc}: an indexed column streams");
            let m = &indexed.metrics;
            let pinned =
                (m.rows_scanned, m.index_lookups, m.rows_via_index, m.rows_short_circuited);
            assert_eq!(pinned, (5, 1, 5, 7), "{key} desc={desc}");
            assert_eq!(indexed.result.rows, expected[..5], "{key} desc={desc}");

            let sorted = run(&db, &unlimited);
            assert!(sorted.metrics.streamed, "without a LIMIT the ordered scan runs to the end");
            assert_eq!(sorted.result.rows, expected, "{key} desc={desc}");
        }
    }

    /// `(rows_scanned, index_lookups, rows_via_index, probes_bailed_empty)`
    /// of one execution: what an access-path change moves.
    fn counts(out: &ExecOutcome) -> (u64, u64, u64, u64) {
        let m = &out.metrics;
        (m.rows_scanned, m.index_lookups, m.rows_via_index, m.probes_bailed_empty)
    }

    #[test]
    fn eq_predicate_restriction_scans_less() {
        let db = fanout_db(500, 10, 20);
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "right", "v"))],
            join: JoinTree::single(db.schema().table_id("right").unwrap()),
            predicates: vec![Predicate::new(col(&db, "right", "v"), CmpOp::Eq, Value::int(137))],
            ..Default::default()
        };
        let out = run(&db, &spec);
        assert_eq!(out.result.rows, vec![Row(vec![Value::int(137)])]);
        // One lookup yields the one candidate row; a scan reads all 200.
        assert_eq!(counts(&out), (1, 1, 1, 0));
    }

    #[test]
    fn inlj_skips_build_side_construction() {
        let db = fanout_db(500, 10, 20);
        let mut probe = fanout_join_spec(&db);
        probe.limit = Some(1);
        let out = run(&db, &probe);
        assert_eq!(out.result.rows, vec![Row(vec![Value::int(0), Value::int(0)])]);
        // The first `right` row, one lookup in `left.k`'s index and the 50
        // rows it matches: none of the 500 build rows is read up front, and
        // the other 199 probe rows are never pulled.
        assert_eq!(counts(&out), (51, 1, 50, 0));
        assert_eq!(out.metrics.rows_short_circuited, 199);
    }

    #[test]
    fn impossible_predicate_bails_without_scanning() {
        let db = movie_db();
        let year = col(&db, "movies", "year");
        let mut spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "movies", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            predicates: vec![Predicate::new(year, CmpOp::Eq, Value::int(1234))],
            ..Default::default()
        };
        let out = run(&db, &spec);
        assert!(out.result.is_empty());
        assert!(out.metrics.exact);
        assert_eq!(counts(&out), (0, 1, 0, 1), "bail before touching any row");

        // Aggregate shape is preserved: COUNT(*) over the bailed probe is 0,
        // as SQL has it.
        spec.select = vec![SelectItem::count_star()];
        let counted = run(&db, &spec);
        assert_eq!(counted.result.rows, vec![Row(vec![Value::int(0)])]);
        assert_eq!(counts(&counted), (0, 1, 0, 1));
    }

    #[test]
    fn a_restricted_two_step_join_reads_one_row_per_step() {
        let db = movie_db();
        let schema = db.schema();
        let graph = JoinGraph::new(schema);
        let join = graph
            .steiner_tree(&[schema.table_id("actor").unwrap(), schema.table_id("movies").unwrap()])
            .unwrap();
        let spec = SelectSpec {
            select: vec![
                SelectItem::column(col(&db, "movies", "name")),
                SelectItem::column(col(&db, "actor", "name")),
            ],
            join,
            predicates: vec![Predicate::new(
                col(&db, "actor", "name"),
                CmpOp::Eq,
                Value::text("Brad Pitt"),
            )],
            ..Default::default()
        };
        let out = run(&db, &spec);
        let row = Row(vec![Value::text("Fight Club"), Value::text("Brad Pitt")]);
        assert_eq!(out.result.rows, vec![row]);
        // One lookup restricts `actor` to Brad Pitt's row; each join step
        // is one lookup that yields one row.
        assert_eq!(counts(&out), (3, 3, 3, 0));
    }

    #[test]
    fn range_predicate_uses_index_and_matches_scan() {
        let db = fanout_db(500, 10, 20);
        let v = col(&db, "right", "v");
        // `right.v` is the row id: each range's rows, ascending, and nothing
        // else is read.
        for (pred, values) in [
            (Predicate::new(v, CmpOp::Lt, Value::int(20)), 0..20),
            (Predicate::new(v, CmpOp::Ge, Value::int(180)), 180..200),
            (Predicate::between(v, Value::int(50), Value::int(60)), 50..61),
        ] {
            let spec = SelectSpec {
                select: vec![SelectItem::column(v)],
                join: JoinTree::single(db.schema().table_id("right").unwrap()),
                predicates: vec![pred],
                ..Default::default()
            };
            let out = run(&db, &spec);
            let want: Vec<Row> = values.clone().map(|i| Row(vec![Value::int(i)])).collect();
            assert_eq!(out.result.rows, want);
            let n = (values.end - values.start) as u64;
            assert_eq!(counts(&out), (n, 1, n, 0), "{values:?}");
        }
    }

    #[test]
    fn streaming_distinct_matches_materialized() {
        let db = fanout_db(300, 5, 4);
        let mut spec = fanout_join_spec(&db);
        spec.select = vec![SelectItem::column(col(&db, "left", "k"))];
        spec.distinct = true;
        let drained = run(&db, &spec);
        spec.limit = Some(3);
        let streaming = run(&db, &spec);
        assert!(streaming.metrics.streamed && drained.metrics.streamed);
        assert_eq!(streaming.result.rows, drained.result.rows[..3]);
    }

    /// `abc` and `ABC` are one DISTINCT projection but sort apart, so a
    /// DISTINCT ordered by a text column cannot stream off the sorted run
    /// (which meets `ABC` first); with a limit, under a budget and without
    /// either it keeps the first in join order, then sorts — and each cut is
    /// a prefix of the whole.
    #[test]
    fn distinct_ordered_by_a_text_column_keeps_the_first_in_join_order() {
        let mut s = Schema::new("cased");
        s.add_table(TableDef::new("t", vec![ColumnDef::text("c")], None));
        let mut db = Database::new(s).unwrap();
        db.insert_all("t", ["abc", "ABC", "b"].map(|c| vec![Value::text(c)])).unwrap();
        let c = col(&db, "t", "c");
        let spec = SelectSpec {
            select: vec![SelectItem::column(c)],
            join: JoinTree::single(c.table),
            distinct: true,
            order_by: Some(OrderSpec { key: OrderKey::Column(c), desc: false }),
            ..Default::default()
        };
        let rows = |spec: &SelectSpec, row_budget| {
            execute_with(&db, spec, &ExecOptions { row_budget }).unwrap().result.rows
        };
        let whole = [Row(vec![Value::text("abc")]), Row(vec![Value::text("b")])];
        assert_eq!(rows(&spec, None), whole);
        assert_eq!(rows(&SelectSpec { limit: Some(1), ..spec.clone() }, None), whole[..1]);
        assert_eq!(rows(&spec, Some(1)), whole[..1]);
    }

    /// `ORDER BY` used to sort with `Value::total_cmp`, under which a NaN
    /// equals every number — not a total order, and the standard sort panics
    /// when it notices (most tables of this size with one NaN in eight did).
    #[test]
    fn order_by_over_a_column_holding_nan_sorts_it_last() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for table in 0..300 {
            let mut s = Schema::new("nan");
            s.add_table(TableDef::new(
                "t",
                vec![ColumnDef::number("id"), ColumnDef::number("x")],
                Some(0),
            ));
            let mut db = Database::new(s).unwrap();
            let xs: Vec<f64> = (0..16 + next(40))
                .map(|_| if next(8) == 0 { f64::NAN } else { next(12) as f64 })
                .collect();
            let rows = xs.iter().enumerate().map(|(i, &x)| vec![Value::int(i as i64), x.into()]);
            db.insert_all("t", rows).unwrap();
            for desc in [false, true] {
                // Numbers ascend (or descend), NaN after (before) them, ties
                // in row order: a stable sort under "NaN is the largest".
                let mut expected: Vec<usize> = (0..xs.len()).collect();
                expected.sort_by(|&a, &b| {
                    let by_nan = xs[a].is_nan().cmp(&xs[b].is_nan());
                    let ord = by_nan.then(xs[a].partial_cmp(&xs[b]).unwrap_or(by_nan));
                    if desc {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                let expected: Vec<Row> =
                    expected.iter().map(|&i| Row(vec![Value::int(i as i64)])).collect();
                for limit in [None, Some(5)] {
                    let spec = SelectSpec {
                        select: vec![SelectItem::column(col(&db, "t", "id"))],
                        join: JoinTree::single(db.schema().table_id("t").unwrap()),
                        order_by: Some(OrderSpec {
                            key: OrderKey::Column(col(&db, "t", "x")),
                            desc,
                        }),
                        limit,
                        ..Default::default()
                    };
                    let rows = run(&db, &spec).result.rows;
                    let want = &expected[..limit.unwrap_or(expected.len())];
                    assert_eq!(rows, want, "table {table}, desc={desc}, LIMIT {limit:?}");
                }
            }
        }
    }

    #[test]
    fn zero_limit_produces_no_rows() {
        let db = movie_db();
        let spec = SelectSpec {
            select: vec![SelectItem::column(col(&db, "movies", "name"))],
            join: JoinTree::single(db.schema().table_id("movies").unwrap()),
            limit: Some(0),
            ..Default::default()
        };
        let out = execute_with(&db, &spec, &ExecOptions::default()).unwrap();
        assert!(out.result.is_empty());
        assert!(out.metrics.exact);
    }
}
