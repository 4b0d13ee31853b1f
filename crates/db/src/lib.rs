//! # duoquest-db
//!
//! An in-memory relational engine that serves as the database substrate for the
//! [Duoquest](https://arxiv.org/abs/2003.07438) reproduction.
//!
//! The crate provides:
//!
//! * typed values and columns ([`Value`], [`DataType`]),
//! * schemas with explicit foreign-key → primary-key relationships ([`Schema`]),
//! * row storage and a loaded [`Database`],
//! * an inverted column index used by the autocomplete interface
//!   ([`InvertedIndex`]), a borrowed view of the text columns' secondary
//!   indexes,
//! * ordered secondary indexes backing index-nested-loop joins, range scans
//!   and ordered index scans ([`TableIndex`]),
//! * a schema join graph with Steiner-tree computation ([`JoinGraph`], [`JoinTree`]),
//! * an executable select-project-join-aggregate query specification ([`SelectSpec`])
//!   together with an executor ([`execute`]).
//!
//! Higher layers (the SQL AST, the GPQE enumerator, the verifier) compile their
//! queries down to [`SelectSpec`] and run them here, exactly as the paper's
//! prototype compiled candidate queries and verification probes down to SQL
//! executed on PostgreSQL.

#![warn(missing_docs)]

pub mod cache;
pub mod database;
pub mod encode;
pub mod error;
pub mod executor;
pub mod index;
#[cfg(test)]
mod index_build_tests;
pub mod join_graph;
pub mod query;
pub mod schema;
pub mod table_index;
pub mod types;

pub use cache::{CacheStats, RunCacheCounters};
pub use database::{Database, Row, TableData};
pub use encode::canonical_key;
pub use error::DbError;
pub use executor::{
    decide_with, execute, execute_with, ExecMetrics, ExecOptions, ExecOutcome, ResultSet, Verdict,
};
pub use index::{IndexHit, InvertedIndex};
pub use join_graph::{JoinEdge, JoinGraph, JoinTree};
pub use query::{
    AggFunc, CmpOp, LogicalOp, OrderKey, OrderSpec, Predicate, SelectItem, SelectSpec,
};
pub use schema::{ColumnDef, ColumnId, ForeignKey, Schema, TableDef, TableId};
pub use table_index::{ColumnIndex, TableIndex};
pub use types::{DataType, Key, Value};
