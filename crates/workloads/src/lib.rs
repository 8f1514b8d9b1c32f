//! # ilpc-workloads — the 40 loop nests of the paper's Table 2
//!
//! Metadata ([`catalog`]) reproduces Table 2 verbatim; [`programs`]
//! synthesizes a mini-FORTRAN program for each row matching its size,
//! iteration count, nesting depth, DOALL/DOACROSS/serial classification
//! and conditional-branch structure, together with deterministic input
//! data.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod programs;

pub use catalog::{table2, LoopType, Suite, WorkloadMeta};
pub use programs::{build, build_all, check_scale, Workload, MAX_SCALE};
