//! # ilpc-opt — the conventional ("Conv") scalar optimizer
//!
//! Implements the paper's baseline optimization level: classical local,
//! global and loop transformations designed for scalar processors. These
//! passes produce the tight scalar loop bodies (e.g. the paper's Figures
//! 1b, 3b, 5b) from the naive IR that `ilpc-ir::lower` emits; the ILP
//! transformations of `ilpc-core` then operate on that code.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod constprop;
pub mod copyprop;
pub mod cse;
pub mod dce;
pub mod ivopts;
pub mod licm;
pub mod peephole;
pub mod pipeline;

pub use cfg::simplify_cfg;
pub use constprop::const_prop;
pub use copyprop::{coalesce_copies, copy_prop};
pub use cse::cse;
pub use dce::dce;
pub use ivopts::iv_strength_reduce;
pub use licm::{licm, promote_registers};
pub use peephole::fold_add_chains;
pub use pipeline::{cleanup, conventional};
