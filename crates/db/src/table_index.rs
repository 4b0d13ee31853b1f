//! Ordered secondary indexes over table columns.
//!
//! [`TableIndex`] gives every column of a table the physical access paths the
//! executor can substitute for a scan, all of them slices of sorted runs of
//! row ids:
//!
//! * **The sorted run** (`sorted`): all row ids (NULLs included) ordered by
//!   `(value, row id)` under `ord_cmp`, the one total order the executor also
//!   sorts result sets with. Range predicates become binary-searched slices, and
//!   `ORDER BY c LIMIT k` can stream rows in index order instead of sorting —
//!   ties break by row id, which is exactly the order a stable sort of the
//!   storage leaves them in, so index-ordered emission is byte-identical to
//!   materialize-and-sort.
//! * **Equality match lists** ([`ColumnIndex::lookup`]): the row ids whose
//!   value shares a [`Key`](crate::types::Key) ([`Value::key`]) with the
//!   probe, ascending — what the hash join builds on the fly, so an indexed
//!   join column turns a hash join into an **index-nested-loop join** with
//!   zero build cost, and an equality predicate into a point lookup. NULLs
//!   match nothing, mirroring the join build side. A list is a run found by
//!   binary search, and no list is stored on its own:
//!   - A number's list is its equal-value run of `sorted`. The run's NULLs
//!     and numbers come first, and `bits` holds their `sort_bits`
//!     contiguously, so a numeric lookup — every FK join probe and every
//!     semi-join walk step — is two binary searches over `u64`s, for the
//!     run's start and its end, and allocates nothing.
//!   - A text's list is a run of `folded`: the column's text cells ordered by
//!     ASCII-lowercased bytes, then row id. The distinct folded texts live in
//!     ascending order in one arena (`keys`; `groups` marks where each key
//!     and its run end). A lookup binary-searches the keys, folding the
//!     probe's bytes as it compares, so it allocates nothing either.
//!
//! Indexes are built by `Database::rebuild_index` and maintained
//! incrementally by the write path (`insert`, `update_cell`), which keeps the
//! run, the bits, the folded order, the arena and the exact distinct-key
//! count in place; they are never consulted while absent, so a database that
//! skips `rebuild_index` simply runs every query as a scan.
//!
//! # Build
//!
//! [`ColumnIndex::build`] sorts a column once, and its text cells once more
//! by folded bytes. An all-number/NULL column sorts flat `(bits, row id)`
//! pairs, where the bits order numbers as `ord_cmp` does (`-0.0` folded onto
//! `0.0`, NaN last) and NULL below every number, and keeps both halves; any
//! other column sorts `(cell, row id)` pairs under `ord_cmp`. Equal keys are
//! then adjacent with ascending row ids: a number's run is its match list as
//! it stands, and each run of `folded` stores its key once — one lowercasing
//! per distinct text, not per cell. Every vector is allocated at its exact
//! length. The §4 text index (`crate::index`) is a view of the text columns'
//! folded keys and runs.
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
use crate::types::{canonical_bits, Value};
use std::cmp::Ordering;
use std::ops::Range;

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

/// `text` ASCII-lowercased byte by byte, without allocating.
pub(crate) fn fold(text: &str) -> impl Iterator<Item = u8> + Clone + '_ {
    text.bytes().map(|b| b.to_ascii_lowercase())
}

/// The first `i` in `0..len` for which `below(i)` is false, where `below`
/// holds on a prefix of `0..len`: `partition_point` over positions.
fn partition_index(len: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The key a match list of [`ColumnIndex::keyed_lists`] is filed under: a
/// number by its sort bits, a text by its lowercased bytes. Lists of two
/// columns share a key exactly when their cells share a [`Value::key`], and
/// every column lists its keys in this order, so two columns' lists merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ListKey<'a> {
    Num(u64),
    Text(&'a str),
}

/// One distinct folded text of a column: where its bytes end in
/// `ColumnIndex::keys` and its run in `ColumnIndex::folded`. Each starts
/// where the previous group's ends.
#[derive(Debug, Clone, Copy)]
struct Group {
    key_end: usize,
    run_end: usize,
}

/// The ordered secondary index of one column. See the module docs for the
/// runs and their invariants.
#[derive(Debug, Clone, Default)]
pub struct ColumnIndex {
    /// All row ids ordered by `(ord_cmp value, row id)`: NULLs, numbers,
    /// NaN, then texts.
    sorted: Vec<usize>,
    /// The [`sort_bits`] of `sorted`'s leading NULL and number cells,
    /// position for position.
    bits: Vec<u64>,
    /// The text cells' row ids ordered by (ASCII-lowercased bytes, row id).
    folded: Vec<usize>,
    /// The distinct folded texts, ascending, back to back.
    keys: String,
    /// One per distinct folded text, in `keys` order.
    groups: Vec<Group>,
    /// Distinct non-NULL keys: number runs plus groups.
    distinct: usize,
    /// Longest match list ever observed — a monotone upper bound, so a
    /// `true` [`ColumnIndex::is_unique`] can be trusted after updates
    /// (rebuilding refreshes it exactly).
    max_matches: usize,
    /// A NaN was seen in this column; order/range access is then disabled.
    has_nan: bool,
}

impl ColumnIndex {
    /// Build the index over one column of `rows`: one sort, one more over
    /// the text cells, then one arena key per run of equal folded texts (see
    /// the module docs).
    pub fn build(rows: &[Row], col: usize) -> ColumnIndex {
        let text = |i: usize| rows[i].0[col].as_text().expect("a text cell");
        let texts = rows.iter().filter(|r| matches!(r.0[col], Value::Text(_))).count();
        let (sorted, bits): (Vec<usize>, Vec<u64>) = if texts > 0 {
            let mut cells: Vec<(&Value, usize)> = rows.iter().map(|r| &r.0[col]).zip(0..).collect();
            cells.sort_unstable_by(|a, b| ord_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
            let bits = cells[..rows.len() - texts].iter().map(|&(v, _)| sort_bits(v)).collect();
            (cells.iter().map(|&(_, row)| row).collect(), bits)
        } else {
            // The pairs are distinct, so an unstable sort leaves the order a
            // stable one would.
            let mut cells: Vec<(u64, usize)> =
                rows.iter().map(|r| sort_bits(&r.0[col])).zip(0..).collect();
            cells.sort_unstable();
            (cells.iter().map(|&(_, row)| row).collect(), cells.iter().map(|&(b, _)| b).collect())
        };

        let mut folded: Vec<usize> = sorted[bits.len()..].to_vec();
        folded.sort_unstable_by(|&a, &b| fold(text(a)).cmp(fold(text(b))).then(a.cmp(&b)));
        let same = |&a: &usize, &b: &usize| text(a).eq_ignore_ascii_case(text(b));
        let (mut key_bytes, mut group_count) = (0, 0);
        for run in folded.chunk_by(same) {
            key_bytes += text(run[0]).len();
            group_count += 1;
        }
        let mut keys = String::with_capacity(key_bytes);
        let mut groups = Vec::with_capacity(group_count);
        let mut max_matches = 0;
        for run in folded.chunk_by(same) {
            keys.push_str(text(run[0]));
            let run_end = groups.last().map_or(0, |g: &Group| g.run_end) + run.len();
            groups.push(Group { key_end: keys.len(), run_end });
            max_matches = max_matches.max(run.len());
        }
        keys.make_ascii_lowercase();

        let nulls = bits.partition_point(|&b| b == NULL_BITS);
        let mut distinct = groups.len();
        for run in bits[nulls..].chunk_by(|a, b| a == b) {
            distinct += 1;
            max_matches = max_matches.max(run.len());
        }
        ColumnIndex {
            has_nan: bits.last() == Some(&sort_bits(&Value::Number(f64::NAN))),
            sorted,
            bits,
            folded,
            keys,
            groups,
            distinct,
            max_matches,
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
        let matches = match v {
            Value::Text(text) => self.insert_text(text, row_idx),
            Value::Null => {
                self.bits.insert(pos, NULL_BITS);
                0
            }
            Value::Number(_) => {
                let bits = sort_bits(v);
                self.bits.insert(pos, bits);
                let matches = self.number_run(bits).len();
                self.distinct += usize::from(matches == 1);
                matches
            }
        };
        self.max_matches = self.max_matches.max(matches);
    }

    /// File `row_idx` under its folded text, adding the text to the arena
    /// if it is new; returns the text's match-list length.
    fn insert_text(&mut self, text: &str, row_idx: usize) -> usize {
        let g = self.group_of(fold(text));
        if g == self.groups.len() || !self.key(g).eq_ignore_ascii_case(text) {
            let at = self.key_span(g).start;
            self.keys.insert_str(at, text);
            self.keys[at..at + text.len()].make_ascii_lowercase();
            let run_end = self.run_span(g).start;
            self.groups.insert(g, Group { key_end: at, run_end });
            for later in &mut self.groups[g..] {
                later.key_end += text.len();
            }
            self.distinct += 1;
        }
        let run = self.run_span(g);
        let at = run.start + self.folded[run.clone()].partition_point(|&i| i < row_idx);
        self.folded.insert(at, row_idx);
        for later in &mut self.groups[g..] {
            later.run_end += 1;
        }
        run.len() + 1
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
        match old {
            Value::Text(text) => self.remove_text(text, row_idx),
            Value::Null => {
                self.bits.remove(pos);
            }
            Value::Number(_) => {
                let bits = self.bits.remove(pos);
                self.distinct -= usize::from(self.number_run(bits).is_empty());
            }
        }
        self.insert_row(rows, col, row_idx);
    }

    /// Take `row_idx` out of its folded text's run, and the text out of the
    /// arena if that run empties.
    fn remove_text(&mut self, text: &str, row_idx: usize) {
        let g = self.group_of(fold(text));
        let run = self.run_span(g);
        let at = self.folded[run.clone()].binary_search(&row_idx).expect("stale index on update");
        self.folded.remove(run.start + at);
        for later in &mut self.groups[g..] {
            later.run_end -= 1;
        }
        if run.len() == 1 {
            let key = self.key_span(g);
            self.keys.replace_range(key.clone(), "");
            self.groups.remove(g);
            for later in &mut self.groups[g..] {
                later.key_end -= key.len();
            }
            self.distinct -= 1;
        }
    }

    /// Row ids whose value shares `value`'s key, ascending. Empty for NULL
    /// or unseen keys.
    pub fn lookup(&self, value: &Value) -> &[usize] {
        match value {
            Value::Null => &[],
            Value::Number(_) => self.number_run(sort_bits(value)),
            Value::Text(text) => self.lookup_text(text),
        }
    }

    /// Row ids of the text cells equal to `text` up to ASCII case: the
    /// text arm of [`ColumnIndex::lookup`], for a caller holding a `&str`.
    pub(crate) fn lookup_text(&self, text: &str) -> &[usize] {
        let g = self.group_of(fold(text));
        match self.groups.get(g) {
            Some(_) if self.key(g).eq_ignore_ascii_case(text) => &self.folded[self.run_span(g)],
            _ => &[],
        }
    }

    /// Every match list [`ColumnIndex::lookup`] can return, each once and
    /// under its key: the numbers' equal-value runs in value order, then the
    /// texts' folded runs in key order — ascending [`ListKey`]s. No NULL cell
    /// is in any.
    pub(crate) fn keyed_lists(&self) -> impl Iterator<Item = (ListKey<'_>, &[usize])> + '_ {
        let mut at = self.bits.partition_point(|&b| b == NULL_BITS);
        let numbers = self.bits[at..].chunk_by(|a, b| a == b).map(move |run| {
            at += run.len();
            (ListKey::Num(run[0]), &self.sorted[at - run.len()..at])
        });
        let texts = (0..self.groups.len())
            .map(|g| (ListKey::Text(self.key(g)), &self.folded[self.run_span(g)]));
        numbers.chain(texts)
    }

    /// The column's distinct folded texts that start with `prefix` up to
    /// ASCII case, ascending.
    pub(crate) fn keys_from<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let starts =
            |key: &str| key.get(..prefix.len()).is_some_and(|k| k.eq_ignore_ascii_case(prefix));
        (self.group_of(fold(prefix))..self.groups.len())
            .map(|g| self.key(g))
            .take_while(move |&key| starts(key))
    }

    /// The equal-value run of `sorted` whose cells have `bits`. A run is
    /// short next to its column, so its end is found by galloping from its
    /// start: a key column's run is settled in one comparison.
    fn number_run(&self, bits: u64) -> &[usize] {
        let start = self.bits.partition_point(|&b| b < bits);
        let rest = &self.bits[start..];
        // `rest[..step / 2]` is inside the run; the run ends before `step`.
        let mut step = 1;
        while step < rest.len() && rest[step] <= bits {
            step *= 2;
        }
        let end = step / 2 + rest[step / 2..step.min(rest.len())].partition_point(|&b| b <= bits);
        &self.sorted[start..start + end]
    }

    /// The first group whose key is not below the folded `probe`.
    fn group_of(&self, probe: impl Iterator<Item = u8> + Clone) -> usize {
        partition_index(self.groups.len(), |g| self.key(g).bytes().lt(probe.clone()))
    }

    /// Where group `g` starts and ends in `keys` (an empty span at the end
    /// for `g == groups.len()`).
    fn key_span(&self, g: usize) -> Range<usize> {
        let start = if g == 0 { 0 } else { self.groups[g - 1].key_end };
        start..self.groups.get(g).map_or(start, |group| group.key_end)
    }

    /// Where group `g` starts and ends in `folded`, like `key_span`.
    fn run_span(&self, g: usize) -> Range<usize> {
        let start = if g == 0 { 0 } else { self.groups[g - 1].run_end };
        start..self.groups.get(g).map_or(start, |group| group.run_end)
    }

    /// The folded text of group `g`.
    fn key(&self, g: usize) -> &str {
        &self.keys[self.key_span(g)]
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

    /// The number of distinct non-NULL keys in the column: how many
    /// different match lists [`ColumnIndex::lookup`] can return.
    pub(crate) fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Rows with a non-NULL value.
    fn non_null(&self) -> usize {
        self.sorted.len() - self.bits.partition_point(|&b| b == NULL_BITS)
    }

    /// Mean match-list length over the column's distinct non-NULL keys (0
    /// for a column without one): what one [`ColumnIndex::lookup`] is
    /// expected to return.
    pub(crate) fn mean_matches(&self) -> f64 {
        self.non_null() as f64 / self.distinct.max(1) as f64
    }

    /// Smallest and largest number stored in the column, read off the two
    /// ends of the sorted run's number segment (NULLs sort before it, NaN
    /// and text after it): two binary searches instead of a column scan.
    /// Equal to the scan in `Database::numeric_range` on every column — `None`
    /// without a number, and the scan's empty `(∞, −∞)` interval when every
    /// number is NaN.
    pub fn numeric_range(&self, rows: &[Row], col: usize) -> Option<(f64, f64)> {
        let number = |i: usize| rows[i].0[col].as_number();
        let run = &self.sorted[self.sorted.len() - self.non_null()..];
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
