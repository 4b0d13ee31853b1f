//! # duoquest-baselines
//!
//! The one comparison system of the Duoquest evaluation (paper §5) that is
//! not the GPQE engine: [`pbe`], a SQuID-like programming-by-example baseline
//! with the capability envelope from paper Table 1 (no projected aggregates
//! or numeric columns, no negation/LIKE predicates).
//!
//! The NLI baseline and the NoPQ and NoGuide ablations of §5.4.3 are
//! settings of the engine itself: a `duoquest_core::SynthesisSession` built
//! with the `DuoquestConfig` presets `without_semantic_rules` (and no TSQ),
//! `no_partial_pruning` and `no_guide`.

pub mod pbe;

pub use pbe::{PbeOutcome, SquidPbe};
