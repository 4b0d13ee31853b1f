//! Row storage and the loaded [`Database`].
//!
//! A `Database` is `Send + Sync` and designed to be shared cheaply behind an
//! `Arc` by the sessions on a pool's workers: all query entry points take
//! `&self`, and the embedded probe/result memo cache ([`ProbeCache`]) uses
//! interior mutability (sharded locks + atomic counters) so concurrent
//! readers never need an exclusive borrow.

use crate::cache::{CacheStats, ProbeCache, RunCacheCounters};
use crate::error::{DbError, DbResult};
use crate::executor::{ExecOptions, ResultSet, Verdict};
use crate::index::InvertedIndex;
use crate::query::SelectSpec;
use crate::schema::{ColumnId, Schema, TableId};
use crate::table_index::{ColumnIndex, TableIndex};
use crate::types::{DataType, Value};
use std::sync::Arc;

/// A single row of values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row(pub Vec<Value>);

impl Row {
    /// Construct a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row(values)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the row has no cells.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Access a cell.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row(values)
    }
}

/// The stored rows of one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableData {
    /// Rows in insertion order.
    pub rows: Vec<Row>,
}

impl TableData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// A schema together with its data, its column indexes (which the
/// autocomplete inverted index is a view of) and the verification-probe
/// memo cache.
#[derive(Debug)]
pub struct Database {
    schema: Schema,
    data: Vec<TableData>,
    probe_cache: ProbeCache,
    /// Per-table ordered secondary indexes (`crate::table_index`), one per
    /// table from [`Database::new`] on: [`Database::insert_all`] sorts a
    /// table's once per bulk load, and `insert` / `update_cell` maintain
    /// them in place.
    table_indexes: Vec<TableIndex>,
}

impl Clone for Database {
    /// Clones carry the schema, data and indexes; the probe cache starts
    /// empty (memoized results stay valid only for the instance that
    /// produced them).
    fn clone(&self) -> Self {
        Database {
            schema: self.schema.clone(),
            data: self.data.clone(),
            probe_cache: ProbeCache::default(),
            table_indexes: self.table_indexes.clone(),
        }
    }
}

impl Database {
    /// Create an empty database over a schema, every table with its (empty)
    /// indexes.
    pub fn new(schema: Schema) -> DbResult<Self> {
        schema.validate()?;
        let data = vec![TableData::default(); schema.table_count()];
        let table_indexes = (schema.tables.iter())
            .map(|table| TableIndex::build(&[], table.columns.len()))
            .collect();
        Ok(Database { schema, data, probe_cache: ProbeCache::default(), table_indexes })
    }

    /// Wrap a loaded database for cheap sharing across synthesis workers.
    pub fn into_shared(self) -> Arc<Database> {
        Arc::new(self)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows of a table.
    pub fn table_data(&self, table: TableId) -> &TableData {
        &self.data[table.0]
    }

    /// Total number of rows in the database.
    pub fn total_rows(&self) -> usize {
        self.data.iter().map(|d| d.len()).sum()
    }

    /// Insert a row into a table identified by name, with arity and type checks.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> DbResult<()> {
        let tid = self.schema.table_id(table)?;
        self.insert_by_id(tid, values)
    }

    /// Insert a row into a table identified by id, with arity and type checks.
    /// The table's indexes take the row in place.
    pub fn insert_by_id(&mut self, table: TableId, values: Vec<Value>) -> DbResult<()> {
        self.check_row(table, &values)?;
        let rows = &mut self.data[table.0].rows;
        rows.push(Row(values));
        self.table_indexes[table.0].insert_appended(rows, rows.len() - 1);
        self.probe_cache.clear_mut(); // memoized probe results are now stale
        Ok(())
    }

    /// The arity and type checks of every write of a row into `table`.
    fn check_row(&self, table: TableId, values: &[Value]) -> DbResult<()> {
        let def = self.schema.table(table);
        if values.len() != def.columns.len() {
            return Err(DbError::ArityMismatch {
                table: def.name.clone(),
                expected: def.columns.len(),
                got: values.len(),
            });
        }
        for (col, v) in def.columns.iter().zip(values) {
            if let Some(dt) = v.data_type() {
                if dt != col.dtype {
                    return Err(DbError::TypeMismatch {
                        table: def.name.clone(),
                        column: col.name.clone(),
                        expected: col.dtype.to_string(),
                        got: dt.to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Update one cell in place, with type checks. The column's secondary
    /// index is maintained incrementally and the probe cache is invalidated,
    /// so neither the index nor the memo path can serve the overwritten
    /// value afterwards.
    pub fn update_cell(
        &mut self,
        table: &str,
        row: usize,
        column: &str,
        value: Value,
    ) -> DbResult<()> {
        let col = self.schema.column_id(table, column)?;
        let def = self.schema.table(col.table);
        let cdef = &def.columns[col.column];
        if let Some(dt) = value.data_type() {
            if dt != cdef.dtype {
                return Err(DbError::TypeMismatch {
                    table: def.name.clone(),
                    column: cdef.name.clone(),
                    expected: cdef.dtype.to_string(),
                    got: dt.to_string(),
                });
            }
        }
        let n_rows = self.data[col.table.0].rows.len();
        if row >= n_rows {
            return Err(DbError::InvalidQuery(format!(
                "row {row} out of bounds for table {} ({n_rows} rows)",
                def.name
            )));
        }
        let old = std::mem::replace(&mut self.data[col.table.0].rows[row].0[col.column], value);
        let rows = &self.data[col.table.0].rows;
        self.table_indexes[col.table.0].update_cell(rows, col.column, row, &old);
        self.probe_cache.clear_mut(); // memoized probe results are now stale
        Ok(())
    }

    /// Bulk-insert rows into a table: the load path. Every row is checked
    /// before any is appended, so a failed call leaves the rows, the indexes
    /// and the probe cache as they were; then the table's indexes are sorted
    /// once over all its rows ([`TableIndex::build`]).
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> DbResult<()> {
        let tid = self.schema.table_id(table)?;
        let rows: Vec<Vec<Value>> = rows.into_iter().collect();
        for values in &rows {
            self.check_row(tid, values)?;
        }
        let stored = &mut self.data[tid.0].rows;
        stored.extend(rows.into_iter().map(Row));
        self.table_indexes[tid.0] = TableIndex::build(stored, self.schema.table(tid).columns.len());
        self.probe_cache.clear_mut(); // memoized probe results are now stale
        Ok(())
    }

    /// Value of a cell.
    pub fn cell(&self, table: TableId, row: usize, column: usize) -> &Value {
        &self.data[table.0].rows[row].0[column]
    }

    /// Iterate the values of one column.
    pub fn column_values(&self, col: ColumnId) -> impl Iterator<Item = &Value> {
        self.data[col.table.0].rows.iter().map(move |r| &r.0[col.column])
    }

    /// Observed minimum and maximum of a numeric column, ignoring NULLs.
    /// Used by the verifier's `AVG` range check (paper §3.4). Read off the
    /// two ends of the column index's number run.
    pub fn numeric_range(&self, col: ColumnId) -> Option<(f64, f64)> {
        self.column_index(col).numeric_range(&self.data[col.table.0].rows, col.column)
    }

    /// Re-sort every table's indexes from its rows, as [`Database::insert_all`]
    /// sorts one table's. The write path keeps them current, so nothing
    /// needs this to read the indexes; it is the full build a maintained
    /// index is compared against, and what a timing of the build runs.
    pub fn rebuild_index(&mut self) {
        self.table_indexes = self
            .data
            .iter()
            .enumerate()
            .map(|(ti, table)| {
                TableIndex::build(&table.rows, self.schema.table(TableId(ti)).columns.len())
            })
            .collect();
    }

    /// The autocomplete inverted index: a view of the text columns' indexes,
    /// current after every write.
    pub fn index(&self) -> InvertedIndex<'_> {
        InvertedIndex::new(&self.schema, &self.table_indexes)
    }

    /// The ordered secondary index of one column. The write path maintains
    /// it, so it never serves stale rows.
    pub fn column_index(&self, col: ColumnId) -> &ColumnIndex {
        self.table_indexes[col.table.0].column(col.column)
    }

    /// Data type of a column.
    pub fn column_type(&self, col: ColumnId) -> DataType {
        self.schema.column(col).dtype
    }

    /// The executor options this database runs [`crate::executor::execute`]
    /// with: no row budget.
    pub fn exec_options(&self) -> ExecOptions {
        ExecOptions::default()
    }

    /// Execute a query through the probe/result memo cache: a repeated
    /// execution of a structurally identical spec is answered from the
    /// cache, and the result is shared, not copied. No synthesis run asks
    /// for rows (its probes ask [`Database::exists_cached_with`] and
    /// [`Database::decide_cached_with`]); this serves callers that time the
    /// cache's rows path.
    pub fn execute_cached(&self, spec: &SelectSpec) -> DbResult<Arc<ResultSet>> {
        if let Some(hit) = self.probe_cache.get(spec) {
            return Ok(hit);
        }
        let out = crate::executor::execute_with(self, spec, &self.exec_options())?;
        Ok(self.probe_cache.insert(spec, out.result))
    }

    /// Whether `spec` returns any row, through the memo cache — the
    /// existence question the verifier's `LIMIT 1` probes ask, attributed
    /// to a caller-owned per-run counter set (the database's global
    /// counters are shared by every run touching this instance). A miss
    /// decides it as a verdict that answers at the first row
    /// ([`crate::executor::decide_with`]), so no row is kept, and the cache
    /// keeps the answer as one bit: a rows entry for the same spec does not
    /// answer it, nor it a rows request.
    pub fn exists_cached_with(
        &self,
        spec: &SelectSpec,
        counters: &RunCacheCounters,
    ) -> DbResult<bool> {
        if let Some(hit) = self.probe_cache.get_exists(spec) {
            counters.record(true);
            return Ok(hit);
        }
        let exists = self.decide_miss(spec, None, counters, &mut AnyRow)?;
        self.probe_cache.insert_exists(spec, exists);
        Ok(exists)
    }

    /// Decide `verdict` over `spec`'s rows under a row budget, through the
    /// memo cache — the yes/no question a complete candidate's sketch check
    /// asks. The cache keeps the answer as one bit under `tag`, which must
    /// name everything the verdict reads besides the rows (the decision and
    /// its parameters), and which budget it is asked under: entries of two
    /// tags never serve each other, nor a rows or existence entry for the
    /// same spec. A miss feeds the projected rows to the verdict one at a
    /// time as they stream ([`crate::executor::decide_with`]) and stops as
    /// soon as it answers, so no row is kept.
    pub fn decide_cached_with(
        &self,
        spec: &SelectSpec,
        budget: Option<usize>,
        tag: &[u8],
        counters: &RunCacheCounters,
        verdict: &mut dyn Verdict,
    ) -> DbResult<bool> {
        if let Some(hit) = self.probe_cache.get_verdict(spec, tag) {
            counters.record(true);
            return Ok(hit);
        }
        let answer = self.decide_miss(spec, budget, counters, verdict)?;
        self.probe_cache.insert_verdict(spec, tag, answer);
        Ok(answer)
    }

    /// The miss path of both yes/no questions: count the miss, decide
    /// `verdict` under the row budget and fold the execution's scan
    /// counters into the run's.
    fn decide_miss(
        &self,
        spec: &SelectSpec,
        budget: Option<usize>,
        counters: &RunCacheCounters,
        verdict: &mut dyn Verdict,
    ) -> DbResult<bool> {
        counters.record(false);
        let opts = ExecOptions { row_budget: budget };
        let (answer, metrics) = crate::executor::decide_with(self, spec, &opts, verdict)?;
        counters.record_scan(&metrics);
        Ok(answer)
    }

    /// Cumulative probe-cache counters for this database instance.
    pub fn cache_stats(&self) -> CacheStats {
        self.probe_cache.stats()
    }

    /// Drop all memoized probe results.
    pub fn clear_probe_cache(&self) {
        self.probe_cache.clear();
    }

    /// Replace the probe cache's byte budget (see
    /// [`crate::cache::ProbeCache::set_max_bytes`]). Shared-reference
    /// friendly, so a capacity can be tuned on an `Arc`-shared database.
    pub fn set_probe_cache_capacity(&self, max_bytes: u64) {
        self.probe_cache.set_max_bytes(max_bytes);
    }
}

/// "Does the spec return any row?" as a verdict: answered at the first row.
struct AnyRow;

impl Verdict for AnyRow {
    fn row(&mut self, _row: &[Value]) -> Option<bool> {
        Some(true)
    }

    fn end(&mut self) -> bool {
        false
    }
}

// Sessions on a pool's workers share one `Database`; keep the compiler
// holding us to that contract.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableDef};

    fn db() -> Database {
        let mut s = Schema::new("test");
        s.add_table(TableDef::new(
            "actor",
            vec![ColumnDef::number("aid"), ColumnDef::text("name"), ColumnDef::number("birth_yr")],
            Some(0),
        ));
        Database::new(s).unwrap()
    }

    #[test]
    fn insert_and_read_back() {
        let mut d = db();
        d.insert("actor", vec![Value::int(1), Value::text("Tom Hanks"), Value::int(1956)]).unwrap();
        d.insert("actor", vec![Value::int(2), Value::text("Sandra Bullock"), Value::int(1964)])
            .unwrap();
        assert_eq!(d.total_rows(), 2);
        let name_col = d.schema().column_id("actor", "name").unwrap();
        let names: Vec<_> = d.column_values(name_col).cloned().collect();
        assert_eq!(names[0], Value::text("Tom Hanks"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut d = db();
        let err = d.insert("actor", vec![Value::int(1)]);
        assert!(matches!(err, Err(DbError::ArityMismatch { .. })));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut d = db();
        let err = d.insert("actor", vec![Value::text("x"), Value::text("n"), Value::int(1)]);
        assert!(matches!(err, Err(DbError::TypeMismatch { .. })));
    }

    #[test]
    fn nulls_are_accepted_for_any_type() {
        let mut d = db();
        d.insert("actor", vec![Value::int(1), Value::Null, Value::Null]).unwrap();
        assert_eq!(d.total_rows(), 1);
    }

    #[test]
    fn numeric_range_ignores_nulls() {
        let mut d = db();
        d.insert("actor", vec![Value::int(1), Value::text("a"), Value::int(1950)]).unwrap();
        d.insert("actor", vec![Value::int(2), Value::text("b"), Value::Null]).unwrap();
        d.insert("actor", vec![Value::int(3), Value::text("c"), Value::int(1990)]).unwrap();
        let col = d.schema().column_id("actor", "birth_yr").unwrap();
        assert_eq!(d.numeric_range(col), Some((1950.0, 1990.0)));
        let name = d.schema().column_id("actor", "name").unwrap();
        assert_eq!(d.numeric_range(name), None);
    }

    /// The range read off the index must equal a scan of the column, on
    /// every column, through the write path.
    #[test]
    fn numeric_range_off_the_index_equals_the_scan() {
        fn scanned(d: &Database, col: ColumnId) -> Option<(f64, f64)> {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut seen = false;
            for v in d.column_values(col) {
                if let Value::Number(n) = v {
                    min = min.min(*n);
                    max = max.max(*n);
                    seen = true;
                }
            }
            seen.then_some((min, max))
        }
        let mut d = db();
        let agree = |d: &Database, when: &str| {
            for col in d.schema().all_columns() {
                assert_eq!(d.numeric_range(col), scanned(d, col), "{when}, {col:?}");
            }
        };
        agree(&d, "empty table");
        let rows = [
            vec![Value::int(1), Value::text("a"), Value::Null],
            vec![Value::int(2), Value::Null, Value::Number(f64::NAN)],
            vec![Value::int(3), Value::text("c"), Value::int(1990)],
            vec![Value::int(4), Value::text("d"), Value::Number(-0.5)],
        ];
        for (i, row) in rows.into_iter().enumerate() {
            d.insert("actor", row).unwrap();
            // Row 1: a single row, `birth_yr` without a number. Row 2: its
            // only number is NaN. Rows 3-4: NULL, NaN and numbers mixed.
            agree(&d, &format!("after insert {i}"));
        }
        let birth_yr = d.schema().column_id("actor", "birth_yr").unwrap();
        assert_eq!(d.numeric_range(birth_yr), Some((-0.5, 1990.0)));
        for (row, value) in [(3, Value::int(2050)), (2, Value::Null), (0, Value::int(-7))] {
            d.update_cell("actor", row, "birth_yr", value).unwrap();
            agree(&d, &format!("after update of row {row}"));
        }
        assert_eq!(d.numeric_range(birth_yr), Some((-7.0, 2050.0)));
    }

    /// A bulk load with one bad row writes nothing: not the rows before it,
    /// not the indexes, and the probe cache keeps its entries.
    #[test]
    fn insert_all_is_all_or_nothing() {
        use crate::join_graph::JoinTree;
        use crate::query::{CmpOp, Predicate, SelectItem};

        let mut d = db();
        let row =
            |aid: i64| vec![Value::int(aid), Value::text(format!("a{aid}")), Value::int(1960)];
        d.insert_all("actor", (0..3).map(row)).unwrap();
        let aid = d.schema().column_id("actor", "aid").unwrap();
        let probe = SelectSpec {
            select: vec![SelectItem::column(aid)],
            join: JoinTree::single(aid.table),
            predicates: vec![Predicate::new(aid, CmpOp::Eq, Value::int(3))],
            limit: Some(1),
            ..Default::default()
        };
        let counters = RunCacheCounters::default();
        assert!(!d.exists_cached_with(&probe, &counters).unwrap());
        let before = (d.table_data(aid.table).clone(), d.column_index(aid).ordered().to_vec());
        let entries = d.cache_stats().entries;

        let bad = [row(3), row(4), vec![Value::text("x"), Value::Null, Value::Null], row(5)];
        let err = d.insert_all("actor", bad);
        assert!(matches!(err, Err(DbError::TypeMismatch { .. })), "{err:?}");
        let short = [row(3), vec![Value::int(4)]];
        assert!(matches!(d.insert_all("actor", short), Err(DbError::ArityMismatch { .. })));

        let after = (d.table_data(aid.table).clone(), d.column_index(aid).ordered().to_vec());
        assert_eq!(after, before, "no row and no index entry of a failed load stays");
        assert!(d.column_index(aid).lookup(&Value::int(3)).is_empty());
        assert_eq!(d.cache_stats().entries, entries, "a failed load drops no probe");
        assert!(!d.exists_cached_with(&probe, &counters).unwrap());
        assert_eq!(counters.snapshot(), (1, 1), "and the probe is answered from the cache");
    }

    /// Writes must keep the secondary indexes current AND invalidate the probe cache — a stale row served through either
    /// path would silently corrupt verification.
    #[test]
    fn writes_update_indexes_and_invalidate_probe_cache() {
        use crate::executor::{execute_with, ExecOptions};
        use crate::join_graph::JoinTree;
        use crate::query::{CmpOp, Predicate, SelectItem, SelectSpec};

        let mut d = db();
        d.insert("actor", vec![Value::int(1), Value::text("Tom Hanks"), Value::int(1956)]).unwrap();
        d.insert("actor", vec![Value::int(2), Value::text("Sandra Bullock"), Value::int(1964)])
            .unwrap();

        let name = d.schema().column_id("actor", "name").unwrap();
        let actor = d.schema().table_id("actor").unwrap();
        let probe = move |value: &str| SelectSpec {
            select: vec![SelectItem::column(name)],
            join: JoinTree::single(actor),
            predicates: vec![Predicate::new(name, CmpOp::Eq, Value::text(value))],
            ..Default::default()
        };

        // Seed the probe cache with a miss.
        assert_eq!(d.execute_cached(&probe("Brad Pitt")).unwrap().len(), 0);

        // An insert must be visible through both the cache layer
        // (invalidation) and the index path itself.
        d.insert("actor", vec![Value::int(3), Value::text("Brad Pitt"), Value::int(1963)]).unwrap();
        assert_eq!(d.execute_cached(&probe("Brad Pitt")).unwrap().len(), 1, "stale cache entry");
        let indexed = execute_with(&d, &probe("Brad Pitt"), &ExecOptions::default()).unwrap();
        assert_eq!(indexed.result.len(), 1);
        assert!(indexed.metrics.rows_via_index > 0, "probe must be served via the index");

        // Same for an in-place update: the old key must vacate the index,
        // the new key must be found, and no cached probe may serve either
        // value stale.
        assert_eq!(d.execute_cached(&probe("Tom Hanks")).unwrap().len(), 1);
        d.update_cell("actor", 0, "name", Value::text("Thomas Hanks")).unwrap();
        assert_eq!(d.execute_cached(&probe("Tom Hanks")).unwrap().len(), 0, "stale old key");
        let moved = execute_with(&d, &probe("Thomas Hanks"), &ExecOptions::default()).unwrap();
        assert_eq!(moved.result.len(), 1);
        assert!(moved.metrics.rows_via_index > 0);

        // The incremental maintenance must equal a rebuild in everything the
        // executor reads off the index: the match list of every stored key,
        // the sorted run and the mean match-list length.
        let read = |d: &Database| {
            let idx = d.column_index(name);
            let lists: Vec<Vec<usize>> =
                d.column_values(name).map(|v| idx.lookup(v).to_vec()).collect();
            (lists, idx.ordered().to_vec(), idx.mean_matches())
        };
        let incremental = read(&d);
        d.rebuild_index();
        assert_eq!(incremental, read(&d));
    }

    /// The entries a synthesis run keeps — existence bits and verdicts — in
    /// every shard: each write path drops them all and the next probe is a
    /// miss that sees the written row; a write to an empty cache moves none
    /// of its counters; a clone's write leaves the original's entries alone.
    #[test]
    fn writes_drop_the_probes_a_run_keeps_and_nothing_else() {
        use crate::cache::SHARD_COUNT;
        use crate::join_graph::JoinTree;
        use crate::query::{CmpOp, Predicate, SelectItem};

        let mut d = db();
        fn row(aid: i64) -> Vec<Value> {
            vec![Value::int(aid), Value::text(format!("a{aid}")), Value::int(1960)]
        }
        d.insert_all("actor", (0..8).map(row)).unwrap();
        let aid = d.schema().column_id("actor", "aid").unwrap();
        let actor = d.schema().table_id("actor").unwrap();
        let probe = move |value: i64| SelectSpec {
            select: vec![SelectItem::column(aid)],
            join: JoinTree::single(actor),
            predicates: vec![Predicate::new(aid, CmpOp::Eq, Value::int(value))],
            limit: Some(1),
            ..Default::default()
        };
        let counters = RunCacheCounters::default();
        // Both questions about `aid = value`, and whether the probe missed.
        let ask = |d: &Database, value: i64| {
            let misses = counters.snapshot().1;
            let exists = d.exists_cached_with(&probe(value), &counters).unwrap();
            let verdict =
                d.decide_cached_with(&probe(value), None, b"any", &counters, &mut AnyRow).unwrap();
            assert_eq!(exists, verdict);
            (exists, counters.snapshot().1 - misses)
        };
        let fill = |d: &Database, asked: &[i64]| {
            for &value in asked {
                ask(d, value);
            }
            let mut value = 1_000;
            while d.probe_cache.shards_holding_entries() < SHARD_COUNT {
                ask(d, value);
                value += 1;
            }
            d.cache_stats().entries
        };

        // (what the write is, the probe it answers, its answer before and after)
        type Write = (&'static str, fn(&mut Database), i64, bool);
        let writes: [Write; 4] = [
            ("insert", |d| d.insert("actor", row(100)).unwrap(), 100, false),
            ("insert_all", |d| d.insert_all("actor", [row(101), row(102)]).unwrap(), 102, false),
            (
                "update_cell",
                |d| d.update_cell("actor", 0, "aid", Value::int(200)).unwrap(),
                200,
                false,
            ),
            (
                "update_cell, the old value",
                |d| d.update_cell("actor", 1, "aid", Value::int(201)).unwrap(),
                1,
                true,
            ),
        ];
        for (name, write, value, before) in writes {
            fill(&d, &[value]);
            assert_eq!(ask(&d, value), (before, 0), "{name}: answered from the cache");
            write(&mut d);
            assert_eq!(d.cache_stats().entries, 0, "{name}");
            assert_eq!(ask(&d, value), (!before, 2), "{name}: a miss that sees the write");
        }

        d.clear_probe_cache();
        let empty = d.cache_stats();
        assert!(empty.hits > 0 && empty.misses > 0 && empty.entries == 0, "{empty:?}");
        for (name, write, ..) in writes {
            write(&mut d);
            assert_eq!(d.cache_stats(), empty, "{name} to an empty cache");
        }

        let entries = fill(&d, &[300]);
        let mut copy = d.clone();
        assert_eq!(copy.cache_stats().entries, 0, "a clone's cache starts empty");
        copy.insert("actor", row(300)).unwrap();
        assert_eq!(d.cache_stats().entries, entries, "the original keeps its entries");
        assert_eq!(ask(&d, 300), (false, 0), "and answers from them");
    }
}
