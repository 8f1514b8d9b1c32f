//! Instructions and operands.

use crate::func::BlockId;
use crate::op::{Cond, Opcode};
use crate::reg::{Reg, RegClass};
use crate::sym::SymId;
use std::fmt;

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// Unused operand slot.
    None,
    /// A virtual register.
    Reg(Reg),
    /// Integer immediate.
    ImmI(i64),
    /// Floating point immediate.
    ImmF(f64),
    /// Address of a data symbol (array base). Behaves as an integer constant
    /// whose value is assigned at link/simulation time.
    Sym(SymId),
}

impl Operand {
    /// The register, if this operand is one.
    #[inline]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// True if the slot is in use.
    pub fn is_some(self) -> bool {
        !matches!(self, Operand::None)
    }

    /// Register class this operand provides, when determinable.
    pub fn class(self) -> Option<RegClass> {
        match self {
            Operand::Reg(r) => Some(r.class),
            Operand::ImmI(_) | Operand::Sym(_) => Some(RegClass::Int),
            Operand::ImmF(_) => Some(RegClass::Flt),
            Operand::None => None,
        }
    }

    /// Bit-level identity: like `==`, except that a floating point
    /// immediate is compared by bit pattern (`0.0` and `-0.0` differ, a NaN
    /// equals itself). See [`crate::Module::identical`].
    #[inline]
    pub(crate) fn identical(self, other: Operand) -> bool {
        match (self, other) {
            (Operand::ImmF(a), Operand::ImmF(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::None => f.write_str("_"),
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::ImmI(v) => write!(f, "{v}"),
            Operand::ImmF(v) => write!(f, "{v:?}"),
            Operand::Sym(s) => write!(f, "@{}", s.0),
        }
    }
}

/// Memory disambiguation tag attached to `Load`/`Store` instructions.
///
/// The lowering front end knows which array a reference touches and how its
/// element index varies with the innermost loop's induction variable; that
/// information is preserved here so dependence analysis can disambiguate
/// references without re-deriving affine address expressions from assembly.
/// Two references **may alias** iff they touch the same symbol and either one
/// has an unknown index shape or their per-iteration coefficients are equal
/// and constant parts are equal (same element every iteration) — see
/// `MemLoc::may_alias`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLoc {
    /// Array symbol referenced.
    pub sym: SymId,
    /// Affine index shape relative to the innermost loop: `coef * iter + off`
    /// (in elements). `None` when the index is not affine in the inner loop
    /// variable (e.g. indirect access) — treated conservatively.
    pub lin: Option<(i64, i64)>,
    /// Fingerprint of the index terms contributed by *outer* loop variables.
    /// Two references are only precisely comparable when their outer
    /// contributions are structurally identical (same fingerprint); otherwise
    /// the analysis falls back to "may alias".
    pub outer: u64,
    /// Consecutive elements touched starting at the tagged address: 1 for
    /// scalar references, the lane count for vector loads/stores. Alias
    /// tests compare element *intervals*, not single offsets.
    pub width: u32,
}

impl MemLoc {
    /// Tag for a reference whose index shape is unknown.
    pub fn opaque(sym: SymId) -> MemLoc {
        MemLoc { sym, lin: None, outer: 0, width: 1 }
    }

    /// Tag for `sym[coef * i + off]` where `i` is the innermost loop counter
    /// and there are no outer-loop index terms.
    pub fn affine(sym: SymId, coef: i64, off: i64) -> MemLoc {
        MemLoc { sym, lin: Some((coef, off)), outer: 0, width: 1 }
    }

    /// Like [`MemLoc::affine`] but with a fingerprint of the outer-loop
    /// index terms.
    pub fn affine_outer(sym: SymId, coef: i64, off: i64, outer: u64) -> MemLoc {
        MemLoc { sym, lin: Some((coef, off)), outer, width: 1 }
    }

    /// This tag widened to `width` consecutive elements (vector access).
    pub fn with_width(self, width: u32) -> MemLoc {
        MemLoc { width: width.max(1), ..self }
    }

    /// Conservative same-iteration alias test (used for ordering memory
    /// operations *within* a scheduling region; loop-carried dependences are
    /// handled by the block-boundary scheduling barrier).
    pub fn may_alias(&self, other: &MemLoc) -> bool {
        if self.sym != other.sym {
            return false;
        }
        if self.outer != other.outer {
            // Index terms from outer loops differ structurally; their values
            // could coincide, so be conservative.
            return true;
        }
        match (self.lin, other.lin) {
            (Some((c1, o1)), Some((c2, o2))) => {
                if c1 == c2 {
                    // Same stride: the accesses cover the element intervals
                    // [o, o + width) each iteration; they collide iff those
                    // intervals overlap.
                    o1 < o2 + other.width as i64 && o2 < o1 + self.width as i64
                } else {
                    // Different strides into the same array: be conservative.
                    true
                }
            }
            _ => true,
        }
    }

    /// Shift the constant part by `iters` iterations (used when unrolling
    /// clones a body copy that logically executes at `iter + p`).
    pub fn shifted(self, iters: i64) -> MemLoc {
        MemLoc {
            lin: self.lin.map(|(c, o)| (c, o + c * iters)),
            ..self
        }
    }
}

/// Maximum lane count a vector instruction may carry (`lanes` field).
/// Matches the widest VLEN in the evaluation axis (VLEN ∈ {1, 2, 4, 8}).
pub const MAX_VLEN: u8 = 8;

/// A single IR instruction.
///
/// Operand conventions:
/// * ALU / `Mov`: `dst = src[0] op src[1]` (`Mov` uses only `src[0]`).
/// * `Load`: `dst = MEM[src[0] + src[1]]`.
/// * `Store`: `MEM[src[0] + src[1]] = src[2]`.
/// * `Br(c)`: branch to `target` if `src[0] c src[1]`.
/// * `Jump`: branch to `target`.
/// * Vector ops additionally carry a live lane count in `lanes`
///   (2..=[`MAX_VLEN`]); scalar instructions keep `lanes == 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    pub op: Opcode,
    pub dst: Option<Reg>,
    pub src: [Operand; 3],
    /// Branch / jump target block.
    pub target: Option<BlockId>,
    /// Memory disambiguation tag (`Load`/`Store`/`VLoad`/`VStore` only).
    pub mem: Option<MemLoc>,
    /// Probability that a conditional branch is taken, in `[0, 1]`;
    /// populated by the front end and used by superblock trace selection.
    pub prob: f32,
    /// Constant addressing displacement for `Load`/`Store`: the effective
    /// address is `src[0] + src[1] + ext` (elements). Operation combining
    /// folds `add` instructions feeding an address into this field, giving
    /// the paper's `MEM(r1i + 8)` base+displacement form.
    pub ext: i64,
    /// Live lane count for vector opcodes; always 1 for scalar opcodes.
    pub lanes: u8,
}

impl Inst {
    /// New instruction with empty operand slots.
    pub fn new(op: Opcode) -> Inst {
        Inst {
            op,
            dst: None,
            src: [Operand::None; 3],
            target: None,
            mem: None,
            prob: 0.5,
            ext: 0,
            lanes: 1,
        }
    }

    /// Two-source ALU instruction.
    pub fn alu(op: Opcode, dst: Reg, a: Operand, b: Operand) -> Inst {
        Inst { dst: Some(dst), src: [a, b, Operand::None], ..Inst::new(op) }
    }

    /// Register/immediate copy.
    pub fn mov(dst: Reg, a: Operand) -> Inst {
        Inst {
            dst: Some(dst),
            src: [a, Operand::None, Operand::None],
            ..Inst::new(Opcode::Mov)
        }
    }

    /// Load `dst = MEM[base + off]` tagged with `mem`.
    pub fn load(dst: Reg, base: Operand, off: Operand, mem: MemLoc) -> Inst {
        Inst {
            dst: Some(dst),
            src: [base, off, Operand::None],
            mem: Some(mem),
            ..Inst::new(Opcode::Load)
        }
    }

    /// Store `MEM[base + off] = val` tagged with `mem`.
    pub fn store(base: Operand, off: Operand, val: Operand, mem: MemLoc) -> Inst {
        Inst { src: [base, off, val], mem: Some(mem), ..Inst::new(Opcode::Store) }
    }

    /// Conditional branch `if a c b goto target`.
    pub fn br(c: Cond, a: Operand, b: Operand, target: BlockId) -> Inst {
        Inst {
            src: [a, b, Operand::None],
            target: Some(target),
            ..Inst::new(Opcode::Br(c))
        }
    }

    /// Unconditional jump.
    pub fn jump(target: BlockId) -> Inst {
        Inst { target: Some(target), ..Inst::new(Opcode::Jump) }
    }

    /// Program end.
    pub fn halt() -> Inst {
        Inst::new(Opcode::Halt)
    }

    /// Lane-wise vector ALU instruction (`VAdd`/`VMul`).
    pub fn vec_alu(op: Opcode, dst: Reg, a: Operand, b: Operand, lanes: u8) -> Inst {
        Inst { dst: Some(dst), src: [a, b, Operand::None], lanes, ..Inst::new(op) }
    }

    /// Broadcast a scalar FP operand into every lane of `dst`.
    pub fn vsplat(dst: Reg, a: Operand, lanes: u8) -> Inst {
        Inst {
            dst: Some(dst),
            src: [a, Operand::None, Operand::None],
            lanes,
            ..Inst::new(Opcode::VSplat)
        }
    }

    /// Horizontal sum of the live lanes of `a` into scalar FP `dst`.
    pub fn vreduce(dst: Reg, a: Operand, lanes: u8) -> Inst {
        Inst {
            dst: Some(dst),
            src: [a, Operand::None, Operand::None],
            lanes,
            ..Inst::new(Opcode::VReduce)
        }
    }

    /// Vector load `dst[l] = MEM[base + off + l]` for `lanes` consecutive
    /// elements. The alias tag is widened to cover the element interval.
    pub fn vload(dst: Reg, base: Operand, off: Operand, mem: MemLoc, lanes: u8) -> Inst {
        Inst {
            dst: Some(dst),
            src: [base, off, Operand::None],
            mem: Some(mem.with_width(lanes as u32)),
            lanes,
            ..Inst::new(Opcode::VLoad)
        }
    }

    /// Vector store `MEM[base + off + l] = val[l]` for `lanes` consecutive
    /// elements. The alias tag is widened to cover the element interval.
    pub fn vstore(base: Operand, off: Operand, val: Operand, mem: MemLoc, lanes: u8) -> Inst {
        Inst {
            src: [base, off, val],
            mem: Some(mem.with_width(lanes as u32)),
            lanes,
            ..Inst::new(Opcode::VStore)
        }
    }

    /// Bit-level identity over every field (floats by bit pattern). See
    /// [`crate::Module::identical`].
    pub(crate) fn identical(&self, other: &Inst) -> bool {
        // Destructured so that a new field cannot be left out silently.
        let Inst { op, dst, src, target, mem, prob, ext, lanes } = self;
        *op == other.op
            && *dst == other.dst
            && src.iter().zip(&other.src).all(|(a, b)| a.identical(*b))
            && *target == other.target
            && *mem == other.mem
            && prob.to_bits() == other.prob.to_bits()
            && *ext == other.ext
            && *lanes == other.lanes
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        self.src.iter().filter_map(|o| o.reg())
    }

    /// Register written by this instruction, if any.
    #[inline]
    pub fn def(&self) -> Option<Reg> {
        self.dst
    }

    /// Replace every read of register `from` with operand `to`.
    /// Returns the number of replacements.
    pub fn replace_use(&mut self, from: Reg, to: Operand) -> usize {
        let mut n = 0;
        for s in &mut self.src {
            if s.reg() == Some(from) {
                *s = to;
                n += 1;
            }
        }
        n
    }

    /// True if this instruction has side effects beyond its register result
    /// (memory writes and control flow), i.e. must not be removed by DCE.
    pub fn has_side_effects(&self) -> bool {
        matches!(self.op, Opcode::Store | Opcode::VStore) || self.op.is_control()
    }

    /// True if the instruction may be executed speculatively (hoisted above
    /// a branch it is control dependent on). Stores and control transfers
    /// never speculate; loads rely on the machine's non-excepting loads.
    pub fn can_speculate(&self, nonexcepting_loads: bool) -> bool {
        match self.op {
            Opcode::Store | Opcode::VStore | Opcode::Br(_) | Opcode::Jump | Opcode::Halt => false,
            Opcode::Load | Opcode::VLoad => nonexcepting_loads,
            // Integer divide/remainder by a non-constant could trap on real
            // hardware; the modeled machine provides non-excepting variants
            // alongside non-excepting loads.
            _ => true,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Opcode::Load => {
                write!(f, "{} = MEM({} + {}", self.dst.unwrap(), self.src[0], self.src[1])?;
                if self.ext != 0 {
                    write!(f, " + {}", self.ext)?;
                }
                f.write_str(")")
            }
            Opcode::Store => {
                write!(f, "MEM({} + {}", self.src[0], self.src[1])?;
                if self.ext != 0 {
                    write!(f, " + {}", self.ext)?;
                }
                write!(f, ") = {}", self.src[2])
            }
            Opcode::Br(c) => write!(
                f,
                "{} ({} {}) B{}",
                Opcode::Br(c),
                self.src[0],
                self.src[1],
                self.target.unwrap().0
            ),
            Opcode::Jump => write!(f, "jmp B{}", self.target.unwrap().0),
            Opcode::Halt => f.write_str("halt"),
            Opcode::Nop => f.write_str("nop"),
            Opcode::Mov => {
                write!(f, "{} = {}", self.dst.unwrap(), self.src[0])
            }
            Opcode::CvtIF | Opcode::CvtFI => {
                write!(f, "{} = {} {}", self.dst.unwrap(), self.op, self.src[0])
            }
            Opcode::VAdd | Opcode::VMul => write!(
                f,
                "{} = {} {} {} x{}",
                self.dst.unwrap(),
                self.src[0],
                self.op,
                self.src[1],
                self.lanes
            ),
            Opcode::VSplat | Opcode::VReduce => write!(
                f,
                "{} = {} {} x{}",
                self.dst.unwrap(),
                self.op,
                self.src[0],
                self.lanes
            ),
            Opcode::VLoad => {
                write!(f, "{} = MEM({} + {}", self.dst.unwrap(), self.src[0], self.src[1])?;
                if self.ext != 0 {
                    write!(f, " + {}", self.ext)?;
                }
                write!(f, ") x{}", self.lanes)
            }
            Opcode::VStore => {
                write!(f, "MEM({} + {}", self.src[0], self.src[1])?;
                if self.ext != 0 {
                    write!(f, " + {}", self.ext)?;
                }
                write!(f, ") = {} x{}", self.src[2], self.lanes)
            }
            _ => write!(
                f,
                "{} = {} {} {}",
                self.dst.unwrap(),
                self.src[0],
                self.op,
                self.src[1]
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alias_rules() {
        let a = SymId(0);
        let b = SymId(1);
        // Different arrays never alias.
        assert!(!MemLoc::affine(a, 1, 0).may_alias(&MemLoc::affine(b, 1, 0)));
        // Same array, same stride, different offsets: distinct elements.
        assert!(!MemLoc::affine(a, 1, 0).may_alias(&MemLoc::affine(a, 1, 1)));
        // Same array, same stride and offset: same element.
        assert!(MemLoc::affine(a, 2, 4).may_alias(&MemLoc::affine(a, 2, 4)));
        // Different strides: conservative.
        assert!(MemLoc::affine(a, 1, 0).may_alias(&MemLoc::affine(a, 2, 0)));
        // Opaque: conservative within the array only.
        assert!(MemLoc::opaque(a).may_alias(&MemLoc::affine(a, 1, 3)));
        assert!(!MemLoc::opaque(a).may_alias(&MemLoc::opaque(b)));
    }

    #[test]
    fn shifted_moves_offset_by_stride() {
        let m = MemLoc::affine(SymId(0), 3, 1);
        assert_eq!(m.shifted(2), MemLoc::affine(SymId(0), 3, 7));
        assert_eq!(MemLoc::opaque(SymId(0)).shifted(5), MemLoc::opaque(SymId(0)));
    }

    #[test]
    fn inst_uses_and_replace() {
        let r1 = Reg::int(1);
        let r2 = Reg::int(2);
        let r3 = Reg::int(3);
        let mut i = Inst::alu(Opcode::Add, r3, r1.into(), r1.into());
        assert_eq!(i.uses().count(), 2);
        assert_eq!(i.def(), Some(r3));
        assert_eq!(i.replace_use(r1, r2.into()), 2);
        assert_eq!(i.src[0].reg(), Some(r2));
    }

    #[test]
    fn speculation_policy() {
        let m = MemLoc::opaque(SymId(0));
        let ld = Inst::load(Reg::flt(0), Operand::Sym(SymId(0)), Operand::ImmI(0), m);
        assert!(ld.can_speculate(true));
        assert!(!ld.can_speculate(false));
        let st = Inst::store(Operand::Sym(SymId(0)), Operand::ImmI(0), Operand::ImmF(1.0), m);
        assert!(!st.can_speculate(true));
        assert!(st.has_side_effects());
    }
}
