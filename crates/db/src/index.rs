//! Master inverted column index over text columns.
//!
//! The Duoquest front end offers autocomplete over "a master inverted column
//! index containing all text columns in the database" (paper §4). The same
//! structure is used by the PBE baseline to locate candidate projection columns
//! from example cell values, and by literal tagging in the NLQ crate.
//!
//! It is not stored: [`InvertedIndex`] is a borrowed view of the column
//! indexes ([`crate::table_index`]). A text column's keys are its distinct
//! lowercased values, held sorted in its index's arena, and a key's
//! match-list length is its count in that column. A lookup binary-searches
//! each text column, folding the probe's case as it compares, so it
//! allocates nothing; autocomplete walks each column's keys from the prefix
//! on. The write path maintains the column indexes, so the view is current
//! after every `insert_all`, `insert` and `update_cell`.

use crate::schema::{ColumnId, Schema};
use crate::table_index::{ColumnIndex, TableIndex};
use crate::types::DataType;

/// A single index hit: a column containing the searched value and how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexHit {
    /// Column containing the value.
    pub column: ColumnId,
    /// Number of rows of that column holding the value.
    pub count: usize,
}

/// The inverted index from lowercase text values to the columns containing
/// them, read off the text columns' indexes ([`crate::Database::index`]).
#[derive(Debug, Clone, Copy)]
pub struct InvertedIndex<'a> {
    schema: &'a Schema,
    tables: &'a [TableIndex],
}

impl<'a> InvertedIndex<'a> {
    /// The view over `schema`'s text columns in `tables`, one per table.
    pub(crate) fn new(schema: &'a Schema, tables: &'a [TableIndex]) -> Self {
        InvertedIndex { schema, tables }
    }

    /// The indexed text columns in `(table, column)` order.
    fn text_columns(self) -> impl Iterator<Item = (ColumnId, &'a ColumnIndex)> {
        self.schema
            .all_columns()
            .filter(move |&c| self.schema.column(c).dtype == DataType::Text)
            .map(move |c| (c, self.tables[c.table.0].column(c.column)))
    }

    /// Columns containing the exact (case-insensitive) text value, in
    /// `(table, column)` order.
    pub fn lookup(&self, value: &str) -> Vec<IndexHit> {
        self.text_columns()
            .filter_map(|(column, index)| {
                let count = index.lookup_text(value).len();
                (count > 0).then_some(IndexHit { column, count })
            })
            .collect()
    }

    /// Whether any text column in the database contains the value.
    pub fn contains(&self, value: &str) -> bool {
        self.text_columns().any(|(_, index)| !index.lookup_text(value).is_empty())
    }

    /// Autocomplete: distinct values starting with the given prefix, across all
    /// text columns, lexicographically sorted and capped at `limit` entries.
    pub fn autocomplete(&self, prefix: &str, limit: usize) -> Vec<String> {
        complete(self.text_columns().map(|(_, index)| index), prefix, limit)
    }

    /// Autocomplete restricted to a single column; empty unless it is an
    /// indexed text column.
    pub fn autocomplete_column(&self, column: ColumnId, prefix: &str, limit: usize) -> Vec<String> {
        let index = self.text_columns().find(|&(c, _)| c == column);
        complete(index.map(|(_, index)| index), prefix, limit)
    }
}

/// The distinct text keys of `columns` starting with `prefix` (lowercased),
/// sorted and capped at `limit`: each column's keys are already sorted, so
/// each contributes its first `limit` from the prefix on.
fn complete<'a>(
    columns: impl IntoIterator<Item = &'a ColumnIndex>,
    prefix: &str,
    limit: usize,
) -> Vec<String> {
    let mut out: Vec<&str> =
        columns.into_iter().flat_map(|index| index.keys_from(prefix).take(limit)).collect();
    out.sort_unstable();
    out.dedup();
    out.truncate(limit);
    out.into_iter().map(str::to_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::schema::{ColumnDef, TableDef};
    use crate::types::Value;

    fn db() -> Database {
        let mut s = Schema::new("test");
        s.add_table(TableDef::new(
            "conference",
            vec![ColumnDef::number("cid"), ColumnDef::text("name")],
            Some(0),
        ));
        s.add_table(TableDef::new(
            "author",
            vec![ColumnDef::number("aid"), ColumnDef::text("name")],
            Some(0),
        ));
        let mut d = Database::new(s).unwrap();
        d.insert("conference", vec![Value::int(1), Value::text("SIGMOD")]).unwrap();
        d.insert("conference", vec![Value::int(2), Value::text("SIGIR")]).unwrap();
        d.insert("conference", vec![Value::int(3), Value::text("VLDB")]).unwrap();
        d.insert("author", vec![Value::int(1), Value::text("Sigmund Freud")]).unwrap();
        d.insert("author", vec![Value::int(2), Value::text("sigmod")]).unwrap();
        d
    }

    #[test]
    fn exact_lookup_spans_columns() {
        let d = db();
        let hits = d.index().lookup("SIGMOD");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].count, 1);
        assert!(d.index().contains("vldb"));
        assert!(!d.index().contains("ICDE"));
    }

    #[test]
    fn autocomplete_prefix() {
        let d = db();
        let opts = d.index().autocomplete("sig", 10);
        assert_eq!(
            opts,
            vec!["sigir".to_string(), "sigmod".to_string(), "sigmund freud".to_string()]
        );
        let capped = d.index().autocomplete("sig", 2);
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn autocomplete_single_column() {
        let d = db();
        let col = d.schema().column_id("conference", "name").unwrap();
        let opts = d.index().autocomplete_column(col, "sig", 10);
        assert_eq!(opts, vec!["sigir".to_string(), "sigmod".to_string()]);
    }

    #[test]
    fn numeric_columns_not_indexed() {
        let d = db();
        assert!(!d.index().contains("1"));
    }
}
