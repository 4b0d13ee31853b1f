//! # duoquest-core
//!
//! The primary contribution of the Duoquest paper: dual-specification SQL
//! synthesis with **guided partial query enumeration (GPQE)**.
//!
//! * [`tsq`] — the table sketch query (TSQ, paper Definitions 2.3/2.4): type
//!   annotations, example tuples with exact/empty/range cells, a sorting flag
//!   and a limit;
//! * [`enumerate`] — GPQE (Algorithm 1): best-first enumeration of partial
//!   queries driven by a pluggable guidance model, with Property-1 confidence
//!   scores (product of per-decision softmax values);
//! * [`joinpath`] — progressive join path construction (Algorithm 2): Steiner
//!   trees over the FK→PK schema graph, grown from the join path a partial
//!   query carries, plus one-hop extensions;
//! * [`verify`] — ascending-cost cascading verification (Algorithm 3): clause
//!   checks, the semantic pruning rules of Table 4, projected-type checks,
//!   column-wise and row-wise database probes, literal-usage checks and order
//!   checks;
//! * [`engine`] — the [`Duoquest`] facade that ties the
//!   pieces together and returns a ranked candidate list (see its module docs
//!   for the core architecture);
//! * [`session`] — owned [`SynthesisSession`]s
//!   over an `Arc`-shared database, with pulled candidate streaming (a
//!   stream's `next()` runs rounds on the calling thread until one emits);
//! * [`scheduler`] — the shared
//!   [`SessionScheduler`]: one long-lived worker
//!   pool multiplexing any number of concurrent sessions with weighted
//!   round-robin fairness. The round loop is a scheduler-resumable state
//!   machine (`RoundDriver`, see `docs/DRIVER.md`), so driven sessions park
//!   in the pool and cost no OS thread; a worker resumes one and runs its
//!   rounds on the spot until it finishes or yields.
//! * [`clock`] — virtual time: every wall-clock read in the stack goes
//!   through the [`Clock`] trait ([`SystemClock`] in production,
//!   [`SimClock`] under the deterministic simulation harness of
//!   `crates/dst`).

#![warn(missing_docs)]

pub mod clock;
pub mod config;
pub mod engine;
pub mod enumerate;
pub mod joinpath;
pub mod scheduler;
pub mod session;
pub mod state;
pub mod tsq;
pub mod verify;

pub use clock::{system_clock, Clock, SharedClock, SimClock, SystemClock};
pub use config::DuoquestConfig;
pub use engine::{Candidate, Duoquest, SynthesisResult};
pub use enumerate::EnumerationStats;
pub use scheduler::{
    panic_message, DrivenOutcome, SchedulerHandle, SchedulerRunStats, SchedulerStats,
    SessionScheduler,
};
pub use session::{CandidateStream, SessionControl, SynthesisSession};
pub use state::EnumState;
pub use tsq::{TableSketchQuery, TsqCell};
pub use verify::{StageTimings, Verifier, VerifyOutcome, VerifyPlan, VerifyStage};
