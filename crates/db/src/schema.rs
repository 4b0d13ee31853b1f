//! Schema model: tables, columns, primary keys and foreign-key relationships.
//!
//! Duoquest restricts joins to inner joins along explicitly declared
//! foreign-key → primary-key relationships (paper §2.5), so the schema keeps an
//! explicit FK list which later feeds the schema join graph.

use crate::error::{DbError, DbResult};
use crate::types::DataType;
use std::fmt;

/// Identifier of a table within a [`Schema`] (index into `Schema::tables`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// Identifier of a column: table index plus column index within that table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId {
    /// Owning table.
    pub table: TableId,
    /// Position of the column within the table definition.
    pub column: usize,
}

impl ColumnId {
    /// Construct a column id from raw indices.
    pub fn new(table: usize, column: usize) -> Self {
        ColumnId { table: TableId(table), column }
    }
}

impl fmt::Display for ColumnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}c{}", self.table.0, self.column)
    }
}

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (the paper recommends complete words, e.g. `author_id`).
    pub name: String,
    /// Declared data type.
    pub dtype: DataType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef { name: name.into(), dtype }
    }

    /// Text column shorthand.
    pub fn text(name: impl Into<String>) -> Self {
        Self::new(name, DataType::Text)
    }

    /// Number column shorthand.
    pub fn number(name: impl Into<String>) -> Self {
        Self::new(name, DataType::Number)
    }
}

/// Definition of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
    /// Index of the primary key column, if any.
    pub primary_key: Option<usize>,
}

impl TableDef {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<ColumnDef>,
        primary_key: Option<usize>,
    ) -> Self {
        TableDef { name: name.into(), columns, primary_key }
    }

    /// Look up a column index by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// An explicit foreign-key → primary-key relationship between two columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForeignKey {
    /// The referencing (foreign key) column.
    pub from: ColumnId,
    /// The referenced (primary key) column.
    pub to: ColumnId,
}

/// A database schema: tables plus foreign-key relationships.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    /// Human-readable schema/database name.
    pub name: String,
    /// Table definitions.
    pub tables: Vec<TableDef>,
    /// Foreign-key relationships.
    pub foreign_keys: Vec<ForeignKey>,
}

impl Schema {
    /// Create an empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Schema { name: name.into(), tables: Vec::new(), foreign_keys: Vec::new() }
    }

    /// Add a table and return its id.
    pub fn add_table(&mut self, table: TableDef) -> TableId {
        self.tables.push(table);
        TableId(self.tables.len() - 1)
    }

    /// Declare a foreign-key relationship between two columns identified by name.
    pub fn add_foreign_key(
        &mut self,
        from_table: &str,
        from_column: &str,
        to_table: &str,
        to_column: &str,
    ) -> DbResult<()> {
        let from = self.column_id(from_table, from_column)?;
        let to = self.column_id(to_table, to_column)?;
        if self.column(from).dtype != self.column(to).dtype {
            return Err(DbError::InvalidForeignKey(format!(
                "{from_table}.{from_column} and {to_table}.{to_column} have different types"
            )));
        }
        self.foreign_keys.push(ForeignKey { from, to });
        Ok(())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of columns across all tables.
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Number of declared foreign keys.
    pub fn foreign_key_count(&self) -> usize {
        self.foreign_keys.len()
    }

    /// Look up a table id by name (case-insensitive).
    pub fn table_id(&self, name: &str) -> DbResult<TableId> {
        self.tables
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(name))
            .map(TableId)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Access a table definition.
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0]
    }

    /// Look up a fully qualified column id by table and column name.
    pub fn column_id(&self, table: &str, column: &str) -> DbResult<ColumnId> {
        let tid = self.table_id(table)?;
        let cidx = self.table(tid).column_index(column).ok_or_else(|| DbError::UnknownColumn {
            table: table.to_string(),
            column: column.to_string(),
        })?;
        Ok(ColumnId { table: tid, column: cidx })
    }

    /// Access a column definition.
    pub fn column(&self, id: ColumnId) -> &ColumnDef {
        &self.tables[id.table.0].columns[id.column]
    }

    /// Fully qualified `table.column` name for display.
    pub fn qualified_name(&self, id: ColumnId) -> String {
        format!("{}.{}", self.table(id.table).name, self.column(id).name)
    }

    /// Iterate over every column id in the schema in deterministic order.
    pub fn all_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.tables.iter().enumerate().flat_map(|(ti, t)| {
            (0..t.columns.len()).map(move |ci| ColumnId { table: TableId(ti), column: ci })
        })
    }

    /// Columns of a given table.
    pub fn table_columns(&self, table: TableId) -> impl Iterator<Item = ColumnId> + '_ {
        (0..self.table(table).columns.len()).map(move |ci| ColumnId { table, column: ci })
    }

    /// Whether `col` is the primary key of its table.
    pub fn is_primary_key(&self, col: ColumnId) -> bool {
        self.table(col.table).primary_key == Some(col.column)
    }

    /// Whether `col` participates in any foreign key (either side).
    pub fn is_key_column(&self, col: ColumnId) -> bool {
        self.is_primary_key(col)
            || self.foreign_keys.iter().any(|fk| fk.from == col || fk.to == col)
    }

    /// All foreign keys touching a given table (either direction).
    pub fn foreign_keys_of(&self, table: TableId) -> Vec<ForeignKey> {
        self.foreign_keys
            .iter()
            .copied()
            .filter(|fk| fk.from.table == table || fk.to.table == table)
            .collect()
    }

    /// Basic structural validation: primary key indices in range, FK endpoints exist.
    pub fn validate(&self) -> DbResult<()> {
        for t in &self.tables {
            if let Some(pk) = t.primary_key {
                if pk >= t.columns.len() {
                    return Err(DbError::InvalidQuery(format!(
                        "primary key index {pk} out of range for table `{}`",
                        t.name
                    )));
                }
            }
        }
        for fk in &self.foreign_keys {
            for end in [fk.from, fk.to] {
                if end.table.0 >= self.tables.len()
                    || end.column >= self.tables[end.table.0].columns.len()
                {
                    return Err(DbError::InvalidForeignKey(format!(
                        "foreign key endpoint {end} out of range"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_schema() -> Schema {
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
        s
    }

    #[test]
    fn counts() {
        let s = movie_schema();
        assert_eq!(s.table_count(), 3);
        assert_eq!(s.column_count(), 9);
        assert_eq!(s.foreign_key_count(), 2);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive() {
        let s = movie_schema();
        let id = s.column_id("Actor", "NAME").unwrap();
        assert_eq!(s.qualified_name(id), "actor.name");
        assert!(s.column_id("actor", "nope").is_err());
        assert!(s.table_id("nope").is_err());
    }

    #[test]
    fn key_column_detection() {
        let s = movie_schema();
        let aid = s.column_id("actor", "aid").unwrap();
        let name = s.column_id("actor", "name").unwrap();
        let s_aid = s.column_id("starring", "aid").unwrap();
        assert!(s.is_primary_key(aid));
        assert!(s.is_key_column(aid));
        assert!(s.is_key_column(s_aid));
        assert!(!s.is_key_column(name));
    }

    #[test]
    fn foreign_key_type_check() {
        let mut s = movie_schema();
        let err = s.add_foreign_key("starring", "aid", "actor", "name");
        assert!(matches!(err, Err(DbError::InvalidForeignKey(_))));
    }

    #[test]
    fn all_columns_enumeration() {
        let s = movie_schema();
        let cols: Vec<_> = s.all_columns().collect();
        assert_eq!(cols.len(), 9);
        assert_eq!(cols[0], ColumnId::new(0, 0));
        assert_eq!(cols[8], ColumnId::new(2, 1));
    }

    #[test]
    fn foreign_keys_of_table() {
        let s = movie_schema();
        let starring = s.table_id("starring").unwrap();
        assert_eq!(s.foreign_keys_of(starring).len(), 2);
        let actor = s.table_id("actor").unwrap();
        assert_eq!(s.foreign_keys_of(actor).len(), 1);
    }

    #[test]
    fn validate_ok_and_bad_fk() {
        let mut s = movie_schema();
        assert!(s.validate().is_ok());
        s.foreign_keys.push(ForeignKey { from: ColumnId::new(9, 0), to: ColumnId::new(0, 0) });
        assert!(s.validate().is_err());
    }
}
