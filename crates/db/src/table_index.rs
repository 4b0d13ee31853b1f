//! Ordered secondary indexes over table columns.
//!
//! [`TableIndex`] gives every column of a table two physical access paths the
//! executor can substitute for a scan:
//!
//! * **Equality match lists** (`by_key`): a hash map from the column's typed
//!   [`Key`]s ([`Value::key`]) to the row ids holding that key, in ascending
//!   row order — exactly the structure the hash join builds on the fly, so an
//!   indexed join column turns a hash join into an **index-nested-loop join**
//!   with zero build cost, and an equality predicate into a point lookup. A
//!   number's key is its canonical bits, so a numeric lookup — every FK join
//!   probe and every semi-join walk step — allocates nothing. NULLs are
//!   excluded, mirroring the join build side.
//! * **A sorted run** (`sorted`): all row ids (NULLs included) ordered by
//!   `(value, row id)` under `ord_cmp`, the one total order the executor also
//!   sorts result sets with. Range predicates become binary-searched slices, and
//!   `ORDER BY c LIMIT k` can stream rows in index order instead of sorting —
//!   ties break by row id, which is exactly the order a stable sort of the
//!   storage leaves them in, so index-ordered emission is byte-identical to
//!   materialize-and-sort.
//!
//! Indexes are built by `Database::rebuild_index` and maintained
//! incrementally by the write path (`insert`, `update_cell`); they are never
//! consulted while absent, so a database that skips `rebuild_index` simply
//! runs every query as a scan.
//!
//! # Build
//!
//! [`ColumnIndex::build`] sorts a column once and reads both structures off
//! that one order. An all-number/NULL column sorts flat `(bits, row id)`
//! pairs, where the bits order numbers as `ord_cmp` does (`-0.0` folded
//! onto `0.0`, NaN last) and NULL below every number; any other column
//! sorts `(cell, row id)` pairs stably under `ord_cmp`. Identical cells are
//! then adjacent runs with ascending row ids, so each run derives its key
//! once — one lowercasing per distinct text, not per cell — and becomes its
//! match list whole. Runs that share a key without being adjacent are case
//! variants (`"ABC"`, `"Abc"`, `"abc"`), whose list is re-sorted as it
//! merges. The §4 text index (`crate::index`) is a view of the text
//! columns' match lists.
//!
//! # NaN caveat
//!
//! `Value::total_cmp` treats NaN as equal to every number, which is not a
//! total order; `ord_cmp` places NaN after all numbers (and equal to itself)
//! instead, and is what the sorted run, the executor's `ORDER BY` sort and
//! its `MIN`/`MAX` all use. The index also remembers (`can_order`) that the
//! column contained a NaN and then offers equality lookups only: order- and
//! range-based access stays off for such columns, a conservative gate — the
//! orders agree with or without it.

use crate::database::Row;
use crate::types::{canonical_bits, Key, Value};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The total order of the sorted run, of `ORDER BY` and of `MIN`/`MAX`:
/// [`Value::total_cmp`], except that NaN compares after every other number
/// (and equal to itself) instead of equal to everything, so binary search and
/// the standard sort stay well-defined.
pub(crate) fn ord_cmp(a: &Value, b: &Value) -> Ordering {
    if let (Value::Number(x), Value::Number(y)) = (a, b) {
        return x.partial_cmp(y).unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()));
    }
    a.total_cmp(b)
}

/// A NULL cell's [`sort_bits`]: below every number's.
const NULL_BITS: u64 = 0;

/// A number or NULL cell's position in the [`ord_cmp`] order as an unsigned
/// integer: two cells compare under `ord_cmp` as their bits do. The
/// canonical bits fold `-0.0` onto `0.0` and every NaN onto one positive
/// NaN, which then sorts after `+∞`; flipping negatives puts them below
/// positives in reverse magnitude. No number maps to [`NULL_BITS`] (only a
/// negative NaN could, and none is canonical).
fn sort_bits(v: &Value) -> u64 {
    let Some(n) = v.as_number() else { return NULL_BITS };
    let bits = canonical_bits(n);
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Split sorted `(cell, row id)` pairs, NULLs first, into the row ids and
/// the positions where each run of identical non-NULL cells starts.
fn sorted_runs<T: PartialEq>(cells: Vec<(T, usize)>, null: &T) -> (Vec<usize>, Vec<usize>) {
    let first = cells.partition_point(|(cell, _)| cell == null);
    let starts =
        (first..cells.len()).filter(|&p| p == first || cells[p - 1].0 != cells[p].0).collect();
    (cells.into_iter().map(|(_, row)| row).collect(), starts)
}

/// The ordered secondary index of one column. See the module docs for the
/// two structures and their invariants.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    /// Key → row ids in ascending order; NULL rows excluded.
    by_key: HashMap<Key, Vec<usize>>,
    /// All row ids ordered by `(ord_cmp value, row id)`.
    sorted: Vec<usize>,
    /// Rows with a non-NULL value.
    non_null: usize,
    /// Longest match list ever observed — a monotone upper bound, so a
    /// `true` [`ColumnIndex::is_unique`] can be trusted after updates
    /// (rebuilding refreshes it exactly).
    max_matches: usize,
    /// A NaN was seen in this column; order/range access is then disabled.
    has_nan: bool,
}

impl ColumnIndex {
    /// Build the index over one column of `rows`: one sort, then one key
    /// and one match list per run of identical cells (see the module docs).
    pub fn build(rows: &[Row], col: usize) -> ColumnIndex {
        let (sorted, starts) = if rows.iter().any(|r| matches!(r.0[col], Value::Text(_))) {
            // Stable, so ties keep ascending row ids.
            let mut cells: Vec<(&Value, usize)> = rows.iter().map(|r| &r.0[col]).zip(0..).collect();
            cells.sort_by(|a, b| ord_cmp(a.0, b.0));
            sorted_runs(cells, &&Value::Null)
        } else {
            // The pairs are distinct, so an unstable sort leaves the order a
            // stable one would.
            let mut cells: Vec<(u64, usize)> =
                rows.iter().map(|r| sort_bits(&r.0[col])).zip(0..).collect();
            cells.sort_unstable();
            sorted_runs(cells, &NULL_BITS)
        };
        let mut by_key: HashMap<Key, Vec<usize>> = HashMap::with_capacity(starts.len());
        let ends = starts.iter().skip(1).copied().chain([sorted.len()]);
        for (start, end) in starts.iter().copied().zip(ends) {
            let run = &sorted[start..end];
            let key = rows[run[0]].0[col].key().expect("a run holds non-NULL cells");
            match by_key.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(run.to_vec());
                }
                // A case variant of an earlier run (`"Abc"` after `"ABC"`):
                // one key, but not adjacent in the case-sensitive order. The
                // list is two ascending runs, which the stable sort merges.
                Entry::Occupied(mut slot) => {
                    let list = slot.get_mut();
                    list.extend_from_slice(run);
                    list.sort();
                }
            }
        }
        ColumnIndex {
            non_null: starts.first().map_or(0, |&first| sorted.len() - first),
            max_matches: by_key.values().map(Vec::len).max().unwrap_or(0),
            has_nan: by_key.contains_key(&Key::Num(canonical_bits(f64::NAN))),
            by_key,
            sorted,
        }
    }

    /// Index the row at `row_idx`, already present in `rows`. Used both for
    /// appends and to re-insert an updated row.
    pub(crate) fn insert_row(&mut self, rows: &[Row], col: usize, row_idx: usize) {
        let v = &rows[row_idx].0[col];
        self.has_nan |= v.as_number().is_some_and(f64::is_nan);
        let pos = self.sorted.partition_point(|&i| match ord_cmp(&rows[i].0[col], v) {
            Ordering::Less => true,
            Ordering::Equal => i < row_idx,
            Ordering::Greater => false,
        });
        self.sorted.insert(pos, row_idx);
        if let Some(key) = v.key() {
            self.non_null += 1;
            let list = self.by_key.entry(key).or_default();
            let at = list.partition_point(|&i| i < row_idx);
            list.insert(at, row_idx);
            self.max_matches = self.max_matches.max(list.len());
        }
    }

    /// Re-index the row at `row_idx` after its cell changed from `old` to
    /// the value now stored in `rows`.
    pub(crate) fn update_row(&mut self, rows: &[Row], col: usize, row_idx: usize, old: &Value) {
        // Locate the row's slot under its *old* value without ever reading
        // the (already mutated) cell: the row id itself identifies the slot
        // inside its equal-value run.
        let pos = self.sorted.partition_point(|&i| {
            i != row_idx
                && match ord_cmp(&rows[i].0[col], old) {
                    Ordering::Less => true,
                    Ordering::Equal => i < row_idx,
                    Ordering::Greater => false,
                }
        });
        debug_assert_eq!(self.sorted.get(pos), Some(&row_idx), "stale index on update");
        self.sorted.remove(pos);
        if let Some(key) = old.key() {
            self.non_null -= 1;
            if let Some(list) = self.by_key.get_mut(&key) {
                list.retain(|&i| i != row_idx);
                if list.is_empty() {
                    self.by_key.remove(&key);
                }
            }
        }
        self.insert_row(rows, col, row_idx);
    }

    /// Row ids whose value shares `value`'s [`Key`], ascending. Empty for NULL
    /// or unseen keys.
    pub fn lookup(&self, value: &Value) -> &[usize] {
        value.key().and_then(|key| self.by_key.get(&key)).map_or(&[], Vec::as_slice)
    }

    /// The full equality match-list map — the prebuilt hash-join build side.
    pub fn match_lists(&self) -> &HashMap<Key, Vec<usize>> {
        &self.by_key
    }

    /// Row ids with `lo <= value <= hi` (bounds optionally exclusive), in
    /// `(value, row id)` order. Only meaningful when [`ColumnIndex::can_order`]
    /// holds.
    pub fn range(
        &self,
        rows: &[Row],
        col: usize,
        lo: &Value,
        lo_incl: bool,
        hi: &Value,
        hi_incl: bool,
    ) -> &[usize] {
        let start = self.sorted.partition_point(|&i| {
            let o = ord_cmp(&rows[i].0[col], lo);
            o == Ordering::Less || (!lo_incl && o == Ordering::Equal)
        });
        let end = self.sorted.partition_point(|&i| {
            let o = ord_cmp(&rows[i].0[col], hi);
            o == Ordering::Less || (hi_incl && o == Ordering::Equal)
        });
        &self.sorted[start..end.max(start)]
    }

    /// All row ids in ascending `(value, row id)` order — the streaming order
    /// for `ORDER BY c ASC`.
    pub fn ordered(&self) -> &[usize] {
        &self.sorted
    }

    /// All row ids in descending value order with ties in **ascending** row
    /// order — exactly the order a stable descending sort of the storage
    /// produces, so `ORDER BY c DESC LIMIT k` can stream from it.
    pub fn ordered_desc<'a>(&'a self, rows: &'a [Row], col: usize) -> OrderedDesc<'a> {
        OrderedDesc { sorted: &self.sorted, rows, col, hi: self.sorted.len(), run: 0..0 }
    }

    /// Whether order- and range-based access is valid for this column (no
    /// NaN was ever stored; see the module docs).
    pub fn can_order(&self) -> bool {
        !self.has_nan
    }

    /// Whether every non-NULL key matches at most one row. Conservative
    /// after updates (an upper bound that never shrinks until rebuild).
    pub fn is_unique(&self) -> bool {
        self.max_matches <= 1
    }

    /// Mean match-list length over the column's distinct non-NULL keys (0
    /// for a column without one): what one [`ColumnIndex::lookup`] is
    /// expected to return.
    pub(crate) fn mean_matches(&self) -> f64 {
        self.non_null as f64 / self.by_key.len().max(1) as f64
    }

    /// Smallest and largest number stored in the column, read off the two
    /// ends of the sorted run's number segment (NULLs sort before it, NaN
    /// and text after it): two binary searches instead of a column scan.
    /// Equal to the scan in `Database::numeric_range` on every column — `None`
    /// without a number, and the scan's empty `(∞, −∞)` interval when every
    /// number is NaN.
    pub fn numeric_range(&self, rows: &[Row], col: usize) -> Option<(f64, f64)> {
        let number = |i: usize| rows[i].0[col].as_number();
        let run = &self.sorted[self.sorted.len() - self.non_null..];
        let numbers = &run[..run.partition_point(|&i| number(i).is_some())];
        let ordered =
            &numbers[..numbers.partition_point(|&i| number(i).is_some_and(|n| !n.is_nan()))];
        match (ordered.first(), ordered.last()) {
            (Some(&min), Some(&max)) => number(min).zip(number(max)),
            _ => (!numbers.is_empty()).then_some((f64::INFINITY, f64::NEG_INFINITY)),
        }
    }
}

/// Iterator behind [`ColumnIndex::ordered_desc`]: walks the sorted run from
/// the tail in runs of equal values, emitting each run in forward (ascending
/// row id) order.
#[derive(Debug)]
pub struct OrderedDesc<'a> {
    sorted: &'a [usize],
    rows: &'a [Row],
    col: usize,
    /// Upper bound (exclusive) of the not-yet-emitted region.
    hi: usize,
    /// The current equal-value run being emitted forward.
    run: std::ops::Range<usize>,
}

impl Iterator for OrderedDesc<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if let Some(p) = self.run.next() {
            return Some(self.sorted[p]);
        }
        if self.hi == 0 {
            return None;
        }
        let anchor = &self.rows[self.sorted[self.hi - 1]].0[self.col];
        let mut start = self.hi - 1;
        while start > 0
            && ord_cmp(&self.rows[self.sorted[start - 1]].0[self.col], anchor) == Ordering::Equal
        {
            start -= 1;
        }
        self.run = start..self.hi;
        self.hi = start;
        let p = self.run.next().expect("run is non-empty");
        Some(self.sorted[p])
    }
}

/// The ordered secondary indexes of all columns of one table.
#[derive(Debug, Clone, Default)]
pub struct TableIndex {
    columns: Vec<ColumnIndex>,
}

impl TableIndex {
    /// Build indexes over every column of a table.
    pub fn build(rows: &[Row], column_count: usize) -> TableIndex {
        TableIndex { columns: (0..column_count).map(|ci| ColumnIndex::build(rows, ci)).collect() }
    }

    /// The index of one column.
    pub fn column(&self, ci: usize) -> &ColumnIndex {
        &self.columns[ci]
    }

    /// Index a freshly appended row (already present in `rows`).
    pub(crate) fn insert_appended(&mut self, rows: &[Row], row_idx: usize) {
        for (ci, idx) in self.columns.iter_mut().enumerate() {
            idx.insert_row(rows, ci, row_idx);
        }
    }

    /// Re-index one cell after an in-place update.
    pub(crate) fn update_cell(&mut self, rows: &[Row], col: usize, row_idx: usize, old: &Value) {
        self.columns[col].update_row(rows, col, row_idx, old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[Value]) -> Vec<Row> {
        vals.iter().map(|v| Row(vec![v.clone()])).collect()
    }

    #[test]
    fn build_sorts_by_value_then_row_id() {
        let data = rows(&[Value::int(3), Value::int(1), Value::Null, Value::int(1), Value::int(2)]);
        let idx = ColumnIndex::build(&data, 0);
        assert_eq!(idx.ordered(), &[2, 1, 3, 4, 0], "NULL first, ties by row id");
        assert_eq!(idx.lookup(&Value::int(1)), &[1, 3]);
        assert!(idx.lookup(&Value::Null).is_empty(), "NULL never matches");
        assert_eq!(idx.mean_matches(), 4.0 / 3.0, "4 non-NULL rows over 3 distinct keys");
    }

    #[test]
    fn ordered_desc_reverses_values_but_not_ties() {
        let data = rows(&[Value::int(2), Value::int(1), Value::int(2), Value::int(1)]);
        let idx = ColumnIndex::build(&data, 0);
        let desc: Vec<usize> = idx.ordered_desc(&data, 0).collect();
        assert_eq!(desc, vec![0, 2, 1, 3], "values descend, ties stay in row order");
    }

    #[test]
    fn range_slices_binary_search_bounds() {
        let data = rows(&[Value::int(5), Value::int(1), Value::int(3), Value::int(9)]);
        let idx = ColumnIndex::build(&data, 0);
        let hits = idx.range(&data, 0, &Value::int(2), true, &Value::int(5), true);
        assert_eq!(hits, &[2, 0], "3 then 5, in value order");
        let open = idx.range(&data, 0, &Value::int(3), false, &Value::int(9), false);
        assert_eq!(open, &[0], "both bounds exclusive");
    }

    #[test]
    fn incremental_insert_and_update_match_rebuild() {
        let mut data = rows(&[Value::int(4), Value::int(2)]);
        let mut idx = ColumnIndex::build(&data, 0);

        data.push(Row(vec![Value::int(3)]));
        idx.insert_row(&data, 0, 2);
        data.push(Row(vec![Value::int(2)]));
        idx.insert_row(&data, 0, 3);
        let rebuilt = ColumnIndex::build(&data, 0);
        assert_eq!(idx.ordered(), rebuilt.ordered());
        assert_eq!(idx.lookup(&Value::int(2)), rebuilt.lookup(&Value::int(2)));

        let old = std::mem::replace(&mut data[0].0[0], Value::int(1));
        idx.update_row(&data, 0, 0, &old);
        let rebuilt = ColumnIndex::build(&data, 0);
        assert_eq!(idx.ordered(), rebuilt.ordered());
        assert!(idx.lookup(&Value::int(4)).is_empty(), "old key vacated");
        assert_eq!(idx.lookup(&Value::int(1)), &[0]);
    }

    #[test]
    fn uniqueness_is_a_monotone_upper_bound() {
        let data = rows(&[Value::int(1), Value::int(2)]);
        let mut idx = ColumnIndex::build(&data, 0);
        assert!(idx.is_unique());
        let mut data = data;
        data.push(Row(vec![Value::int(1)]));
        idx.insert_row(&data, 0, 2);
        assert!(!idx.is_unique());
        // Updating the duplicate away keeps the conservative bound...
        let old = std::mem::replace(&mut data[2].0[0], Value::int(3));
        idx.update_row(&data, 0, 2, &old);
        assert!(!idx.is_unique());
        // ...and a rebuild refreshes it exactly.
        assert!(ColumnIndex::build(&data, 0).is_unique());
    }

    #[test]
    fn nan_disables_order_access_but_not_lookups() {
        let data = rows(&[Value::Number(f64::NAN), Value::int(1)]);
        let idx = ColumnIndex::build(&data, 0);
        assert!(!idx.can_order());
        assert_eq!(idx.lookup(&Value::int(1)), &[1]);
    }
}
