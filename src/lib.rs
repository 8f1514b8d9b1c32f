//! # ilp-compiler — compiler code transformations for superscalar/VLIW
//! node processors
//!
//! A full reproduction of Mahlke, Chen, Gyllenhaal, Hwu, Chang, Kiyohara,
//! *"Compiler Code Transformations for Superscalar-Based High-Performance
//! Systems"* (Supercomputing '92): a custom RISC IR and mini-FORTRAN front
//! end, the conventional scalar optimizer used as the paper's baseline, the
//! eight ILP-increasing transformations, an SLP vectorization layer over
//! the unrolled/renamed bodies (`Lev6`), superblock scheduling, a
//! parameterized in-order superscalar machine model with a configurable
//! vector length, an execution-driven cycle simulator, register-pressure
//! measurement, the 40 evaluated loop nests of Table 2, and a harness
//! regenerating every table and figure.
//!
//! ## Quick start
//!
//! ```
//! use ilp_compiler::prelude::*;
//!
//! // Pick a Table 2 loop nest, compile it at Lev4 for an issue-8 machine,
//! // simulate it, and compare against the issue-1 conventional baseline.
//! let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
//! let w = build(&meta, 0.05); // scaled-down trip counts for the doctest
//! let base = evaluate(&w, Level::Conv, &Machine::base()).unwrap();
//! let fast = evaluate(&w, Level::Lev4, &Machine::issue(8)).unwrap();
//! assert!(fast.cycles < base.cycles);
//! ```

#![forbid(unsafe_code)]

pub use ilpc_analysis as analysis;
pub use ilpc_core as core_transforms;
pub use ilpc_guard as guard;
pub use ilpc_harness as harness;
pub use ilpc_ir as ir;
pub use ilpc_lint as lint;
pub use ilpc_machine as machine;
pub use ilpc_mem as mem;
pub use ilpc_opt as opt;
pub use ilpc_regalloc as regalloc;
pub use ilpc_sched as sched;
pub use ilpc_sim as sim;
pub use ilpc_vec as vec;
pub use ilpc_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ilpc_core::level::{apply_level, Level, TransformReport};
    pub use ilpc_core::unroll::UnrollConfig;
    pub use ilpc_guard::{Guard, GuardConfig, GuardErrorKind, GuardReport, Oracle};
    pub use ilpc_harness::campaign::{run_campaign, CampaignConfig, Outcome};
    pub use ilpc_harness::compile::{compile, compile_guarded};
    pub use ilpc_harness::grid::{
        run_grid, run_grid_forkjoin, Aggregate, GridConfig, GridConfigError, Sabotage,
        SabotageMode,
    };
    pub use ilpc_harness::run::{evaluate, EvalPoint};
    pub use ilpc_harness::sweep::{run_sweep, Scenario, Sweep, SweepConfig};
    pub use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    pub use ilpc_ir::interp::{interpret, DataInit};
    pub use ilpc_ir::lower::lower;
    pub use ilpc_ir::{ArrayVal, Cond, Module, Value};
    pub use ilpc_lint::{audit_schedules, lint_module, Diagnostic, Severity};
    pub use ilpc_machine::Machine;
    pub use ilpc_mem::{CacheParams, MemConfig, MemModel, MemStats};
    pub use ilpc_vec::{slp_vectorize, SlpReport};
    pub use ilpc_workloads::{build, build_all, table2, LoopType, Workload};
}
