//! # ilpc-ir — intermediate representation for the ILPC compiler
//!
//! This crate provides the substrate everything else in the workspace is
//! built on: a typed virtual-register RISC IR modeled on the paper's
//! MIPS-R2000-like target, a control flow graph representation whose blocks
//! can carry *side exits* (so superblocks are first-class), a verifier, a
//! mini-FORTRAN AST for expressing the evaluated loop nests, a naive
//! AST-to-IR lowering, and a reference AST interpreter used as ground truth
//! by differential tests.
//!
//! Reproduction of: Mahlke, Chen, Gyllenhaal, Hwu, Chang, Kiyohara,
//! *"Compiler Code Transformations for Superscalar-Based High-Performance
//! Systems"*, Supercomputing 1992.

#![forbid(unsafe_code)]

pub mod ast;
pub mod display;
pub mod func;
pub mod inst;
pub mod interp;
pub mod lower;
pub mod op;
pub mod reg;
pub mod semantics;
pub mod sym;
pub mod text;
pub mod value;
pub mod verify;

pub use func::{Block, BlockId, Function, Module};
pub use inst::{Inst, MemLoc, Operand};
pub use op::{Cond, Opcode};
pub use reg::{Reg, RegClass};
pub use sym::{SymId, SymTab, Symbol};
pub use value::{ArrayVal, Value};
