//! Row storage and the loaded [`Database`].
//!
//! A `Database` is `Send + Sync` and designed to be shared cheaply behind an
//! `Arc` by the parallel synthesis session: all query entry points take
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
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A single row of values.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Per-table ordered secondary indexes (`crate::table_index`), built by
    /// [`Database::rebuild_index`] and maintained incrementally by the write
    /// path. Empty until the first rebuild — queries then run as scans.
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
    /// Create an empty database over a schema.
    pub fn new(schema: Schema) -> DbResult<Self> {
        schema.validate()?;
        let data = vec![TableData::default(); schema.table_count()];
        Ok(Database { schema, data, probe_cache: ProbeCache::default(), table_indexes: Vec::new() })
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
    pub fn insert_by_id(&mut self, table: TableId, values: Vec<Value>) -> DbResult<()> {
        let def = self.schema.table(table);
        if values.len() != def.columns.len() {
            return Err(DbError::ArityMismatch {
                table: def.name.clone(),
                expected: def.columns.len(),
                got: values.len(),
            });
        }
        for (col, v) in def.columns.iter().zip(&values) {
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
        self.data[table.0].rows.push(Row(values));
        let rows = &self.data[table.0].rows;
        let row_idx = rows.len() - 1;
        // Secondary indexes are maintained in place, so index-backed access
        // stays valid across appends without a rebuild.
        if let Some(tidx) = self.table_indexes.get_mut(table.0) {
            tidx.insert_appended(rows, row_idx);
        }
        self.probe_cache.clear(); // memoized probe results are now stale
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
        if let Some(tidx) = self.table_indexes.get_mut(col.table.0) {
            tidx.update_cell(rows, col.column, row, &old);
        }
        self.probe_cache.clear(); // memoized probe results are now stale
        Ok(())
    }

    /// Bulk-insert rows into a table.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> DbResult<()> {
        let tid = self.schema.table_id(table)?;
        for r in rows {
            self.insert_by_id(tid, r)?;
        }
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
    /// ordered index once [`Database::rebuild_index`] has built it; a column
    /// scan only on an unindexed database.
    pub fn numeric_range(&self, col: ColumnId) -> Option<(f64, f64)> {
        if let Some(index) = self.column_index(col) {
            return index.numeric_range(&self.data[col.table.0].rows, col.column);
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut seen = false;
        for v in self.column_values(col) {
            if let Value::Number(n) = v {
                min = min.min(*n);
                max = max.max(*n);
                seen = true;
            }
        }
        seen.then_some((min, max))
    }

    /// Rebuild the ordered secondary indexes ([`TableIndex`]) behind
    /// index-nested-loop joins, range scans, ordered index scans and the
    /// autocomplete inverted index ([`Database::index`]). The executor uses
    /// them from then on; before the first call it scans.
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
    /// current after every write. It finds nothing until the first
    /// [`Database::rebuild_index`].
    pub fn index(&self) -> InvertedIndex<'_> {
        InvertedIndex::new(&self.schema, &self.table_indexes)
    }

    /// The ordered secondary index of one column, or `None` until the first
    /// [`Database::rebuild_index`]. The write path maintains built indexes
    /// incrementally, so they never serve stale rows.
    pub fn column_index(&self, col: ColumnId) -> Option<&ColumnIndex> {
        self.table_indexes.get(col.table.0).map(|t| t.column(col.column))
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

// The parallel synthesis session shares one `Database` across its worker
// pool; keep the compiler holding us to that contract.
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

    /// The indexed range must equal the scan of an unindexed twin, on every
    /// column, through the write path.
    #[test]
    fn numeric_range_off_the_index_equals_the_scan() {
        let mut scanned = db();
        let mut indexed = db();
        indexed.rebuild_index();
        let agree = |scanned: &Database, indexed: &Database, when: &str| {
            for col in scanned.schema().all_columns() {
                assert!(scanned.column_index(col).is_none() && indexed.column_index(col).is_some());
                assert_eq!(
                    indexed.numeric_range(col),
                    scanned.numeric_range(col),
                    "{when}, {col:?}"
                );
            }
        };
        agree(&scanned, &indexed, "empty table");
        let rows = [
            vec![Value::int(1), Value::text("a"), Value::Null],
            vec![Value::int(2), Value::Null, Value::Number(f64::NAN)],
            vec![Value::int(3), Value::text("c"), Value::int(1990)],
            vec![Value::int(4), Value::text("d"), Value::Number(-0.5)],
        ];
        for (i, row) in rows.into_iter().enumerate() {
            scanned.insert("actor", row.clone()).unwrap();
            indexed.insert("actor", row).unwrap();
            // Row 1: a single row, `birth_yr` without a number. Row 2: its
            // only number is NaN. Rows 3-4: NULL, NaN and numbers mixed.
            agree(&scanned, &indexed, &format!("after insert {i}"));
        }
        let birth_yr = scanned.schema().column_id("actor", "birth_yr").unwrap();
        assert_eq!(indexed.numeric_range(birth_yr), Some((-0.5, 1990.0)));
        for (row, value) in [(3, Value::int(2050)), (2, Value::Null), (0, Value::int(-7))] {
            scanned.update_cell("actor", row, "birth_yr", value.clone()).unwrap();
            indexed.update_cell("actor", row, "birth_yr", value).unwrap();
            agree(&scanned, &indexed, &format!("after update of row {row}"));
        }
        assert_eq!(indexed.numeric_range(birth_yr), Some((-7.0, 2050.0)));
    }

    /// Writes after the index build must keep the secondary indexes current
    /// AND invalidate the probe cache — a stale row served through either
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
        d.rebuild_index();

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

        // An insert after the index build must be visible through both the
        // cache layer (invalidation) and the index path itself.
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
        // the sorted run, uniqueness and the mean match-list length.
        let read = |d: &Database| {
            let idx = d.column_index(name).unwrap();
            let lists: Vec<Vec<usize>> =
                d.column_values(name).map(|v| idx.lookup(v).to_vec()).collect();
            (lists, idx.ordered().to_vec(), idx.is_unique(), idx.mean_matches())
        };
        let incremental = read(&d);
        d.rebuild_index();
        assert_eq!(incremental, read(&d));
    }
}
