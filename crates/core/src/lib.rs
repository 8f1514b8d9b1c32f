//! # ilpc-core — ILP-increasing compiler code transformations
//!
//! The paper's primary contribution: eight transformations that expose
//! instruction-level parallelism to superscalar/VLIW node processors by
//! removing dependences within and across loop iterations.
//!
//! * [`unroll`] — loop unrolling with a preconditioning loop
//! * [`rename`] — register renaming within unrolled bodies
//! * [`accum`] — accumulator variable expansion (Figure 2)
//! * [`induct`] — induction variable expansion (Figure 4)
//! * [`search`] — search variable expansion
//! * [`combine`] — operation combining
//! * [`strength`] — ILP-aware strength reduction
//! * [`threduce`] — tree height reduction
//!
//! [`level`] assembles them into the paper's cumulative configuration
//! levels Conv, Lev1..Lev4.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod accum;
pub mod chains;
pub mod combine;
pub mod induct;
pub mod level;
pub mod rename;
pub mod search;
pub mod strength;
pub mod threduce;
pub mod unroll;

pub use ablation::{apply_set, TransformSet};
pub use accum::accumulator_expand;
pub use combine::operation_combine;
pub use induct::induction_expand;
pub use level::{apply_level, Level, TransformReport};
pub use rename::rename_loops;
pub use search::search_expand;
pub use strength::strength_reduce;
pub use threduce::tree_height_reduce;
pub use unroll::{unroll_inner_loops, UnrollConfig, UnrolledLoop};
