//! # duoquest
//!
//! Facade crate for the Duoquest reproduction: dual-specification SQL query
//! synthesis from a natural language query (NLQ) plus an optional table sketch
//! query (TSQ), using guided partial query enumeration (GPQE).
//!
//! This crate simply re-exports the workspace crates under stable names:
//!
//! * [`obs`] — tracing, metrics and flight-recorder substrate (see
//!   `docs/OBSERVABILITY.md`)
//! * [`db`] — in-memory relational engine substrate
//! * [`sql`] — SQL AST, partial queries, parser and canonical comparison
//! * [`nlq`] — natural language query handling and guidance models
//! * [`core`] — table sketch queries, GPQE and cascading verification
//! * [`service`] — multi-tenant serving layer: priorities, cancellation,
//!   deadlines and admission control over the shared session scheduler
//! * [`net`] — dependency-free TCP front over the service: hand-rolled
//!   HTTP/1.1 with chunked NDJSON candidate streaming (see `docs/NET.md`)
//! * [`baselines`] — the PBE baseline from the paper's evaluation (its NLI
//!   baseline and ablations are `core` sessions under `DuoquestConfig` presets)
//! * [`workloads`] — synthetic MAS and Spider-like workloads and simulated users
//!
//! See `examples/quickstart.rs` for a complete end-to-end walk-through.

pub use duoquest_baselines as baselines;
pub use duoquest_core as core;
pub use duoquest_db as db;
pub use duoquest_net as net;
pub use duoquest_nlq as nlq;
pub use duoquest_obs as obs;
pub use duoquest_service as service;
pub use duoquest_sql as sql;
pub use duoquest_workloads as workloads;
