//! # ilpc-sched — superblock formation and list scheduling
//!
//! The code generation strategy of the paper's compiler: superblock
//! scheduling (trace selection with tail duplication) followed by
//! dependence-DAG list scheduling with critical-path priority, modeling the
//! target's in-order multi-issue constraints. List scheduling is split
//! where it first reads the issue width (see [`list`]), so one dependence
//! DAG per block serves every width.

#![forbid(unsafe_code)]

pub mod list;
pub mod modulo;
pub mod validate;
pub mod superblock;

pub use list::{
    block_dags, place, place_module, schedule_insts, schedule_module, BlockDag, BlockSchedule,
};
pub use superblock::{form_superblocks, SuperblockConfig, SuperblockReport};
pub use modulo::{modulo_schedule, pipelinable_loops, ModuloSchedule};
pub use validate::{validate_schedule, ScheduleViolation};
