//! # ilpc-sched — superblock formation and list scheduling
//!
//! The code generation strategy of the paper's compiler: superblock
//! scheduling (trace selection with tail duplication) followed by
//! dependence-DAG list scheduling with critical-path priority, modeling the
//! target's in-order multi-issue constraints.

#![forbid(unsafe_code)]

pub mod list;
pub mod modulo;
pub mod validate;
pub mod superblock;

pub use list::{schedule_insts, schedule_module, BlockSchedule};
pub use superblock::{form_superblocks, SuperblockConfig, SuperblockReport};
pub use modulo::{modulo_schedule, pipelinable_loops, ModuloSchedule};
pub use validate::{validate_schedule, ScheduleViolation};
