//! # duoquest-nlq
//!
//! Natural language query handling and enumeration guidance for the Duoquest
//! reproduction.
//!
//! The crate provides:
//!
//! * [`tokenize`] — NLQ tokenization and normalization;
//! * [`literals`] — literal tagging (quoted text values and numbers), backed by
//!   the database's inverted column index as in the autocomplete interface of
//!   the paper's front end (§4);
//! * [`similarity`] — lexical similarity between NLQ tokens and schema names;
//! * [`guidance`] — the [`GuidanceModel`] trait: the
//!   pluggable enumeration guidance interface described in §3.3.5 of the paper
//!   (any model producing per-decision scores in `[0, 1]` that satisfy
//!   Property 1 can drive GPQE);
//! * [`heuristic`] — a purely lexical guidance model usable without any
//!   training data;
//! * [`oracle`] — a calibrated noisy-oracle guidance model that substitutes for
//!   the pre-trained SyntaxSQLNet network of the paper's prototype (see
//!   DESIGN.md §3 for the substitution argument).

pub mod guidance;
pub mod heuristic;
pub mod literals;
pub mod oracle;
pub mod similarity;
pub mod tokenize;

pub use guidance::{
    Choice, GuidanceContext, GuidanceModel, GuidancePlan, HavingChoice, OrderChoice,
};
pub use heuristic::HeuristicGuidance;
pub use literals::{candidate_columns, extract_literals, literal_mentioned, Literal, LiteralKind};
pub use oracle::{NoisyOracleGuidance, OracleConfig};
pub use tokenize::Nlq;
