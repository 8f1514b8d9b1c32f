//! # ilpc-analysis — program analyses for the ILPC compiler
//!
//! Dataflow and structural analyses shared by the classical optimizer
//! (`ilpc-opt`), the ILP transformations (`ilpc-core`), the superblock
//! scheduler (`ilpc-sched`) and the register usage estimator
//! (`ilpc-regalloc`): register sets, liveness, def/use summaries,
//! dominators, natural/counted loops, and intra-block dependence graphs.

#![forbid(unsafe_code)]

pub mod defuse;
pub mod deps;
pub mod dom;
pub mod liveness;
pub mod loops;
pub mod regset;

pub use defuse::{invariant_in, DefUse};
pub use deps::{build_block_deps, Dep, DepGraph, DepKind};
pub use dom::Dominators;
pub use liveness::Liveness;
pub use loops::{as_counted_loop, CountedLoop, Loop, LoopForest};
pub use regset::RegSet;
