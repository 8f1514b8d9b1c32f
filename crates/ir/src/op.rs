//! Opcodes of the RISC intermediate representation.
//!
//! The instruction set follows the paper's target ("a RISC assembly language
//! similar to the MIPS R2000 instruction set"): two-source ALU operations,
//! base+offset loads and stores, compare-and-branch instructions, and an
//! explicit halt for whole-program simulation. Latencies are *not* stored
//! here — they are a property of the machine model (`ilpc-machine`), so the
//! same IR can be timed under different processor configurations.

use crate::reg::RegClass;
use std::fmt;

/// Comparison condition used by conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Condition with the operand order swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> Cond {
        match self {
            Cond::Eq => Cond::Eq,
            Cond::Ne => Cond::Ne,
            Cond::Lt => Cond::Gt,
            Cond::Le => Cond::Ge,
            Cond::Gt => Cond::Lt,
            Cond::Ge => Cond::Le,
        }
    }

    /// Logical negation (`a < b` fails ⇔ `a >= b`).
    pub fn negated(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }

    /// Evaluate the condition over ordered operands.
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Le => a <= b,
            Cond::Gt => a > b,
            Cond::Ge => a >= b,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ge => "bge",
        }
    }
}

/// IR opcodes.
///
/// Integer ALU operations act on the integer file; `F`-prefixed operations
/// act on the floating point file. Memory operations are typed by the class
/// of the transferred value. `Br` compares two same-class operands and
/// branches to an explicit target block, falling through otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Register/immediate copy (`dst = src1`). Class given by `dst`.
    Mov,
    // --- integer ALU (latency 1 in Table 1) ---
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Arithmetic shift left by `src2`.
    Shl,
    /// Arithmetic shift right by `src2`.
    Shr,
    // --- integer multiply / divide (latency 3 / 10) ---
    Mul,
    Div,
    Rem,
    // --- floating point (latency 3, divides 10) ---
    FAdd,
    FSub,
    FMul,
    FDiv,
    /// Convert integer `src1` to floating point (FP conversion, latency 3).
    CvtIF,
    /// Convert floating point `src1` to integer (truncating).
    CvtFI,
    // --- memory (load latency 2, store latency 1) ---
    /// `dst = MEM[src1 + src2]`.
    Load,
    /// `MEM[src1 + src2] = src3`.
    Store,
    // --- vector (SLP, Lev6; lane count carried on the instruction) ---
    /// Lane-wise FP add: `dst[l] = src1[l] + src2[l]`.
    VAdd,
    /// Lane-wise FP multiply: `dst[l] = src1[l] * src2[l]`.
    VMul,
    /// Broadcast a scalar FP operand into every lane of `dst`.
    VSplat,
    /// Horizontal sum of the live lanes of `src1` into a scalar FP `dst`.
    VReduce,
    /// `dst[l] = MEM[src1 + src2 + l]` — `lanes` consecutive elements.
    VLoad,
    /// `MEM[src1 + src2 + l] = src3[l]` — `lanes` consecutive elements.
    VStore,
    // --- control (latency 1, one branch slot per cycle) ---
    /// Conditional branch: compare `src1` and `src2`, jump to `target`.
    Br(Cond),
    /// Unconditional jump to `target`.
    Jump,
    /// Terminate simulation of the function.
    Halt,
    /// No operation (used as a placeholder by some passes; removed by DCE).
    Nop,
}

impl Opcode {
    /// True for `Br`/`Jump` (instructions occupying the branch slot).
    pub fn is_branch(self) -> bool {
        matches!(self, Opcode::Br(_) | Opcode::Jump)
    }

    /// True for any control transfer including `Halt`.
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Br(_) | Opcode::Jump | Opcode::Halt)
    }

    /// True for any memory operation, scalar or vector.
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Opcode::Load | Opcode::Store | Opcode::VLoad | Opcode::VStore
        )
    }

    /// True for memory operations that read memory.
    pub fn is_mem_read(self) -> bool {
        matches!(self, Opcode::Load | Opcode::VLoad)
    }

    /// True for memory operations that write memory.
    pub fn is_mem_write(self) -> bool {
        matches!(self, Opcode::Store | Opcode::VStore)
    }

    /// Result class of a value-producing opcode, when fixed by the opcode.
    ///
    /// `Mov`/`Load` derive their class from the destination register and
    /// return `None` here.
    pub fn result_class(self) -> Option<RegClass> {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Shl | Shr | Mul | Div | Rem | CvtFI => {
                Some(RegClass::Int)
            }
            FAdd | FSub | FMul | FDiv | CvtIF | VReduce => Some(RegClass::Flt),
            VAdd | VMul | VSplat | VLoad => Some(RegClass::Vec),
            _ => None,
        }
    }

    /// True for commutative binary operations (`a op b == b op a`).
    pub fn is_commutative(self) -> bool {
        use Opcode::*;
        matches!(self, Add | Mul | And | Or | Xor | FAdd | FMul | VAdd | VMul)
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Mov => "mov",
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FDiv => "fdiv",
            CvtIF => "cvtif",
            CvtFI => "cvtfi",
            Load => "ld",
            Store => "st",
            VAdd => "vadd",
            VMul => "vmul",
            VSplat => "vsplat",
            VReduce => "vreduce",
            VLoad => "vld",
            VStore => "vst",
            Br(c) => c.mnemonic(),
            Jump => "jmp",
            Halt => "halt",
            Nop => "nop",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_swap_and_negate() {
        assert_eq!(Cond::Lt.swapped(), Cond::Gt);
        assert_eq!(Cond::Lt.negated(), Cond::Ge);
        assert_eq!(Cond::Eq.swapped(), Cond::Eq);
        for c in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(c.negated().negated(), c);
            assert_eq!(c.swapped().swapped(), c);
        }
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Lt.eval(1, 2));
        assert!(!Cond::Lt.eval(2, 2));
        assert!(Cond::Ge.eval(2.0, 2.0));
        // swapped evaluates consistently
        assert_eq!(Cond::Le.eval(3, 5), Cond::Le.swapped().eval(5, 3));
    }

    #[test]
    fn opcode_classes() {
        assert_eq!(Opcode::Add.result_class(), Some(RegClass::Int));
        assert_eq!(Opcode::FMul.result_class(), Some(RegClass::Flt));
        assert_eq!(Opcode::CvtIF.result_class(), Some(RegClass::Flt));
        assert_eq!(Opcode::Mov.result_class(), None);
        assert!(Opcode::Br(Cond::Lt).is_branch());
        assert!(Opcode::Halt.is_control());
        assert!(!Opcode::Halt.is_branch());
        assert!(Opcode::FAdd.is_commutative());
        assert!(!Opcode::FSub.is_commutative());
    }
}
