//! # ilpc-lint — static legality analyzer and schedule auditor
//!
//! The static half of the workspace's correctness tooling. The guard
//! firewall (ilpc-guard) catches broken passes *dynamically*, by running
//! the reference interpreter and the simulator; this crate proves
//! properties of the artifact itself, without executing anything:
//!
//! * [`dataflow::lint_module`] — whole-module lints built on
//!   `ilpc-analysis`: the structural verifier promoted into complete
//!   located diagnostics, maybe-uninitialized reads, dead register
//!   writes, unreachable blocks, degenerate CFG edges, and malformed
//!   counted-loop shapes;
//! * [`audit::audit_schedules`] — re-derives each block's dependence DAG
//!   and re-checks every machine constraint (width, branch slots, FU
//!   limits, latencies, speculation policy) a schedule claims to satisfy;
//! * [`delta::check_step`] — before/after translation-validation rules
//!   for each pipeline pass, used by the guard as a cheap static
//!   pre-check ahead of the differential spot-check.
//!
//! Findings are [`diag::Diagnostic`]s: typed, located, deterministically
//! ordered, and serializable as JSON lines via `ilpc_testkit::json`, the
//! codec `ilpc-serve`'s wire protocol uses too.

#![forbid(unsafe_code)]

pub mod audit;
pub mod dataflow;
pub mod delta;
pub mod diag;

pub use audit::audit_schedules;
pub use dataflow::lint_module;
pub use delta::{check_step, EXPANSION_PASSES, TRIP_PRESERVING};
pub use diag::{count_severity, has_errors, sort_diagnostics, Diagnostic, Severity};
