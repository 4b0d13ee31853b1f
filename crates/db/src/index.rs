//! Master inverted column index over text columns.
//!
//! The Duoquest front end offers autocomplete over "a master inverted column
//! index containing all text columns in the database" (paper §4). The same
//! structure is used by the PBE baseline to locate candidate projection columns
//! from example cell values, and by literal tagging in the NLQ crate.
//!
//! `Database::rebuild_index` builds it after the column indexes
//! ([`crate::table_index`]) and reads it off them without touching a row: a
//! text column's [`Key::Text`] keys are its distinct lowercased values, and a
//! key's match-list length is its count in that column. The write path does
//! not maintain it; `insert` and `update_cell` mark it stale
//! (`Database::index_is_dirty`) until the next rebuild.

use crate::schema::{ColumnId, Schema};
use crate::table_index::TableIndex;
use crate::types::{DataType, Key};
use std::collections::HashMap;

/// A single index hit: a column containing the searched value and how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexHit {
    /// Column containing the value.
    pub column: ColumnId,
    /// Number of rows of that column holding the value.
    pub count: usize,
}

/// Inverted index mapping lowercase text values to the columns containing them.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    /// value (lowercased) -> hits
    exact: HashMap<String, Vec<IndexHit>>,
    /// all distinct values per column, used for prefix autocomplete
    values: HashMap<ColumnId, Vec<String>>,
}

impl InvertedIndex {
    /// Read the index off the column indexes of `schema`'s tables: a text
    /// column's [`Key::Text`] keys are its distinct lowercased values, and
    /// each key's match-list length is how many rows hold it.
    pub(crate) fn build(schema: &Schema, tables: &[TableIndex]) -> Self {
        let text_columns: Vec<ColumnId> =
            schema.all_columns().filter(|&c| schema.column(c).dtype == DataType::Text).collect();
        let lists = |c: ColumnId| tables[c.table.0].column(c.column).match_lists();
        let mut exact: HashMap<String, Vec<IndexHit>> =
            HashMap::with_capacity(text_columns.iter().map(|&c| lists(c).len()).sum());
        let mut values = HashMap::with_capacity(text_columns.len());
        // Columns in `(table, column)` order, so every hit list comes out
        // sorted by column.
        for column in text_columns {
            let mut keys = Vec::with_capacity(lists(column).len());
            for (key, rows) in lists(column) {
                let Key::Text(key) = key else { continue };
                // Most values live in one column: a list of one, not of four.
                let hits = exact.entry(key.clone()).or_insert_with(|| Vec::with_capacity(1));
                hits.push(IndexHit { column, count: rows.len() });
                keys.push(key.clone());
            }
            keys.sort_unstable();
            values.insert(column, keys);
        }
        InvertedIndex { exact, values }
    }

    /// Columns containing the exact (case-insensitive) text value.
    pub fn lookup(&self, value: &str) -> &[IndexHit] {
        self.exact.get(&value.to_ascii_lowercase()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether any text column in the database contains the value.
    pub fn contains(&self, value: &str) -> bool {
        !self.lookup(value).is_empty()
    }

    /// Autocomplete: distinct values starting with the given prefix, across all
    /// text columns, lexicographically sorted and capped at `limit` entries.
    pub fn autocomplete(&self, prefix: &str, limit: usize) -> Vec<String> {
        let prefix = prefix.to_ascii_lowercase();
        let mut out: Vec<String> =
            self.values.values().flatten().filter(|v| v.starts_with(&prefix)).cloned().collect();
        out.sort_unstable();
        out.dedup();
        out.truncate(limit);
        out
    }

    /// Autocomplete restricted to a single column.
    pub fn autocomplete_column(&self, column: ColumnId, prefix: &str, limit: usize) -> Vec<String> {
        let prefix = prefix.to_ascii_lowercase();
        self.values
            .get(&column)
            .map(|vals| {
                vals.iter().filter(|v| v.starts_with(&prefix)).take(limit).cloned().collect()
            })
            .unwrap_or_default()
    }

    /// Number of distinct indexed values.
    pub fn distinct_value_count(&self) -> usize {
        self.exact.len()
    }
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
        d.rebuild_index();
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
        assert!(d.index().distinct_value_count() >= 4);
    }
}
