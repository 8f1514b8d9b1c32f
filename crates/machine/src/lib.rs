//! # ilpc-machine — parameterized superscalar/VLIW processor description
//!
//! The paper's node processor model (§3.1): in-order execution with register
//! interlocks, deterministic instruction latencies (Table 1), a parameterized
//! issue rate (1/2/4/8) with *no* restriction on the combination of
//! instructions issued per cycle except a single branch slot, non-excepting
//! loads (so the compiler may schedule them above branches), and an unlimited
//! register supply.

#![forbid(unsafe_code)]

use ilpc_ir::{Inst, Opcode};
pub use ilpc_mem::{CacheGeometry, CacheParams, L2Params, MemConfig};

/// Instruction latencies — the paper's Table 1.
///
/// | Function      | Latency | | Function      | Latency |
/// |---------------|---------|-|---------------|---------|
/// | Int ALU       | 1       | | FP ALU        | 3       |
/// | Int multiply  | 3       | | FP conversion | 3       |
/// | Int divide    | 10      | | FP multiply   | 3       |
/// | branch        | 1/1 slot| | FP divide     | 10      |
/// | memory load   | 2       | | memory store  | 1       |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyTable {
    pub int_alu: u32,
    pub int_mul: u32,
    pub int_div: u32,
    pub branch: u32,
    pub load: u32,
    pub store: u32,
    pub fp_alu: u32,
    pub fp_cvt: u32,
    pub fp_mul: u32,
    pub fp_div: u32,
    /// Lane-wise vector FP add (one pipelined op regardless of lane count).
    pub vec_alu: u32,
    /// Lane-wise vector FP multiply.
    pub vec_mul: u32,
    /// Horizontal reduction of a vector register into a scalar.
    pub vec_reduce: u32,
}

/// Table 1 of the paper.
pub const TABLE1: LatencyTable = LatencyTable {
    int_alu: 1,
    int_mul: 3,
    int_div: 10,
    branch: 1,
    load: 2,
    store: 1,
    fp_alu: 3,
    fp_cvt: 3,
    fp_mul: 3,
    fp_div: 10,
    // Vector extension: lane-wise ops pipeline at the FP-ALU rate; the
    // horizontal reduce pays an extra FP-add tree (log2(MAX_VLEN) stages).
    vec_alu: 3,
    vec_mul: 3,
    vec_reduce: 6,
};

/// Typed failure for [`LatencyTable::try_of`]: the opcode has no timing
/// entry in this table. `Halt`/`Nop` are pseudo-instructions — they occupy
/// an issue slot in the simulator but have no Table-1 function row, so the
/// total lookup reports them instead of silently defaulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyError {
    /// Opcode without a latency row.
    pub op: Opcode,
}

impl std::fmt::Display for LatencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no latency table entry for opcode `{}`", self.op)
    }
}

impl std::error::Error for LatencyError {}

impl LatencyTable {
    /// Latency of one instruction under this table.
    ///
    /// Pseudo-instructions without a table row (`Halt`/`Nop`) complete in
    /// one cycle; use [`LatencyTable::try_of`] when a silent default is not
    /// acceptable.
    pub fn of(&self, inst: &Inst) -> u32 {
        self.try_of(inst).unwrap_or(1)
    }

    /// Total latency lookup over the full opcode set: every real operation
    /// maps to exactly one table row; pseudo-instructions yield a typed
    /// [`LatencyError`] instead of a panic or a hidden fallback.
    pub fn try_of(&self, inst: &Inst) -> Result<u32, LatencyError> {
        Ok(match inst.op {
            Opcode::Mov => self.int_alu, // register moves complete in 1 cycle
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr => self.int_alu,
            Opcode::Mul => self.int_mul,
            Opcode::Div | Opcode::Rem => self.int_div,
            Opcode::FAdd | Opcode::FSub => self.fp_alu,
            Opcode::FMul => self.fp_mul,
            Opcode::FDiv => self.fp_div,
            Opcode::CvtIF | Opcode::CvtFI => self.fp_cvt,
            Opcode::Load => self.load,
            Opcode::Store => self.store,
            Opcode::VAdd => self.vec_alu,
            Opcode::VMul => self.vec_mul,
            Opcode::VSplat => self.vec_alu,
            Opcode::VReduce => self.vec_reduce,
            Opcode::VLoad => self.load,
            Opcode::VStore => self.store,
            Opcode::Br(_) | Opcode::Jump => self.branch,
            Opcode::Halt | Opcode::Nop => return Err(LatencyError { op: inst.op }),
        })
    }
}

/// Functional-unit classes for issue-slot accounting.
///
/// The paper's base model places "no limitation ... on the combination of
/// instructions that can be issued in the same cycle"; it also notes that
/// under "a more restricted processor model" some transformations behave
/// differently. [`FuLimits`] makes that restricted model expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuKind {
    /// Integer ALU operations and register moves.
    IntAlu,
    /// Integer multiply / divide / remainder.
    IntMulDiv,
    /// Floating point operations and conversions.
    Fp,
    /// Memory loads and stores (vector loads/stores use one port).
    Mem,
    /// Vector (SLP) lane-wise arithmetic, splats and reductions.
    Vec,
    /// Control transfers.
    Branch,
}

/// Per-cycle issue limits per functional-unit class
/// (`u32::MAX` = unlimited, the paper's base model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuLimits {
    pub int_alu: u32,
    pub int_mul_div: u32,
    pub fp: u32,
    pub mem: u32,
    pub vec: u32,
}

impl FuLimits {
    /// No combination restrictions (the paper's evaluated model).
    pub const UNLIMITED: FuLimits = FuLimits {
        int_alu: u32::MAX,
        int_mul_div: u32::MAX,
        fp: u32::MAX,
        mem: u32::MAX,
        vec: u32::MAX,
    };

    /// Limit for one class.
    pub fn of(&self, kind: FuKind) -> u32 {
        match kind {
            FuKind::IntAlu => self.int_alu,
            FuKind::IntMulDiv => self.int_mul_div,
            FuKind::Fp => self.fp,
            FuKind::Mem => self.mem,
            FuKind::Vec => self.vec,
            FuKind::Branch => u32::MAX, // branches use `branch_slots`
        }
    }
}

/// Functional-unit class of an instruction.
pub fn fu_kind(inst: &Inst) -> FuKind {
    match inst.op {
        Opcode::Mov
        | Opcode::Add
        | Opcode::Sub
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Shl
        | Opcode::Shr => FuKind::IntAlu,
        Opcode::Mul | Opcode::Div | Opcode::Rem => FuKind::IntMulDiv,
        Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FDiv
        | Opcode::CvtIF
        | Opcode::CvtFI => FuKind::Fp,
        Opcode::Load | Opcode::Store | Opcode::VLoad | Opcode::VStore => FuKind::Mem,
        Opcode::VAdd | Opcode::VMul | Opcode::VSplat | Opcode::VReduce => FuKind::Vec,
        Opcode::Br(_) | Opcode::Jump | Opcode::Halt | Opcode::Nop => FuKind::Branch,
    }
}

/// A machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Machine {
    /// Instructions fetched/issued per cycle (`u32::MAX` = unlimited, used
    /// for the paper's worked examples which assume "infinite resources").
    pub issue_width: u32,
    /// Branches issued per cycle (the paper: "1 slot").
    pub branch_slots: u32,
    /// Per-class functional unit limits (unlimited in the paper's model).
    pub fu: FuLimits,
    /// Instruction latencies.
    pub latency: LatencyTable,
    /// Non-excepting loads: the compiler may hoist loads above branches.
    pub nonexcepting_loads: bool,
    /// Data-memory hierarchy. The default, [`MemConfig::Perfect`], is the
    /// paper's 100 %-hit model and adds zero cycles to any access; a
    /// finite cache charges extra miss cycles on top of Table-1 latencies.
    pub mem: MemConfig,
    /// Vector length: lanes per vector register available to the SLP pass
    /// (1 = scalar-only machine, no vector code generated). Codegen depends
    /// on this, so it is part of the compile key.
    pub vlen: u32,
}

impl Machine {
    /// The paper's issue-N configuration. A width of 0 is meaningless (the
    /// machine could never issue anything); it is clamped to 1.
    pub fn issue(width: u32) -> Machine {
        Machine {
            issue_width: width.max(1),
            branch_slots: 1,
            fu: FuLimits::UNLIMITED,
            latency: TABLE1,
            nonexcepting_loads: true,
            mem: MemConfig::Perfect,
            vlen: 1,
        }
    }

    /// Restrict the number of memory ports (loads+stores per cycle).
    pub fn with_mem_ports(mut self, ports: u32) -> Machine {
        self.fu.mem = ports;
        self
    }

    /// Restrict the number of floating point units.
    pub fn with_fp_units(mut self, units: u32) -> Machine {
        self.fu.fp = units;
        self
    }

    /// Replace the memory hierarchy (default: [`MemConfig::Perfect`]).
    pub fn with_mem(mut self, mem: MemConfig) -> Machine {
        self.mem = mem;
        self
    }

    /// Set the vector length (lanes per vector register; 1 = scalar only).
    pub fn with_vlen(mut self, vlen: u32) -> Machine {
        self.vlen = vlen.max(1);
        self
    }

    /// Attach a finite L1 data cache (see [`CacheParams`]).
    pub fn with_cache(self, params: CacheParams) -> Machine {
        self.with_mem(MemConfig::Cache(params))
    }

    /// Unlimited-issue configuration (used by the worked examples in §2).
    pub fn unlimited() -> Machine {
        Machine { issue_width: u32::MAX, ..Machine::issue(1) }
    }

    /// The base configuration for all speedup calculations in the paper:
    /// "an issue-1 processor with conventional compiler transformations."
    pub fn base() -> Machine {
        Machine::issue(1)
    }

    /// The projection of this configuration that the *compiler* sees.
    ///
    /// Code generation depends on issue width, FU limits, the latency
    /// table (list scheduling) and load speculativity — but never on the
    /// data-memory hierarchy, which only retimes execution, nor on a class
    /// limit at or above the issue width, which cannot bind (the issue
    /// slots run out first), so the key clamps each limit to the width.
    /// Two machines with equal compile keys are guaranteed to compile any
    /// workload to the same module, so memory-hierarchy sweeps, and
    /// restricted machines at narrow widths, share one compiled (and
    /// pre-decoded) artifact per key.
    pub fn compile_key(&self) -> Machine {
        let bind = |limit: u32| limit.min(self.issue_width);
        let fu = FuLimits {
            int_alu: bind(self.fu.int_alu),
            int_mul_div: bind(self.fu.int_mul_div),
            fp: bind(self.fu.fp),
            mem: bind(self.fu.mem),
            vec: bind(self.fu.vec),
        };
        Machine { mem: MemConfig::Perfect, fu, ..*self }
    }

    /// Stable in-process hash of [`Machine::compile_key`] — the
    /// machine-config component of the harness artifact-cache key. Not
    /// persisted anywhere, so `DefaultHasher`'s lack of cross-version
    /// stability is fine.
    pub fn compile_config_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.compile_key().hash(&mut h);
        h.finish()
    }

    /// Short display name (`issue-4`, `issue-8/mem2`, `issue-8/load4` for a
    /// load latency other than Table 1's).
    pub fn name(&self) -> String {
        let mut n = if self.issue_width == u32::MAX {
            "issue-inf".to_string()
        } else {
            format!("issue-{}", self.issue_width)
        };
        if self.fu.mem != u32::MAX {
            n.push_str(&format!("/mem{}", self.fu.mem));
        }
        if self.fu.fp != u32::MAX {
            n.push_str(&format!("/fp{}", self.fu.fp));
        }
        if self.fu.int_mul_div != u32::MAX {
            n.push_str(&format!("/mul{}", self.fu.int_mul_div));
        }
        if self.latency.load != TABLE1.load {
            n.push_str(&format!("/load{}", self.latency.load));
        }
        if self.vlen > 1 {
            n.push_str(&format!("/v{}", self.vlen));
        }
        if !self.mem.is_perfect() {
            n.push_str(&format!("/{}", self.mem.name()));
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::{Cond, Operand, Reg};

    #[test]
    fn table1_latencies() {
        let m = Machine::issue(8);
        let lat = |i: &Inst| m.latency.of(i);
        assert_eq!(lat(&Inst::alu(Opcode::Add, Reg::int(0), Operand::ImmI(1), Operand::ImmI(2))), 1);
        assert_eq!(lat(&Inst::alu(Opcode::Mul, Reg::int(0), Operand::ImmI(1), Operand::ImmI(2))), 3);
        assert_eq!(lat(&Inst::alu(Opcode::Div, Reg::int(0), Operand::ImmI(1), Operand::ImmI(2))), 10);
        assert_eq!(lat(&Inst::alu(Opcode::FAdd, Reg::flt(0), Operand::ImmF(1.0), Operand::ImmF(2.0))), 3);
        assert_eq!(lat(&Inst::alu(Opcode::FDiv, Reg::flt(0), Operand::ImmF(1.0), Operand::ImmF(2.0))), 10);
        let mem = ilpc_ir::MemLoc::affine(ilpc_ir::SymId(0), 0, 0);
        assert_eq!(lat(&Inst::load(Reg::flt(0), Operand::Sym(ilpc_ir::SymId(0)), Operand::ImmI(0), mem)), 2);
        assert_eq!(lat(&Inst::store(Operand::Sym(ilpc_ir::SymId(0)), Operand::ImmI(0), Operand::ImmF(0.0), mem)), 1);
        assert_eq!(lat(&Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), ilpc_ir::BlockId(0))), 1);
    }

    #[test]
    fn fu_limits() {
        let m = Machine::issue(8).with_mem_ports(2).with_fp_units(4);
        assert_eq!(m.fu.mem, 2);
        assert_eq!(m.fu.fp, 4);
        assert_eq!(m.fu.int_alu, u32::MAX);
        assert_eq!(m.name(), "issue-8/mem2/fp4");
        let mem = ilpc_ir::MemLoc::affine(ilpc_ir::SymId(0), 0, 0);
        let ld = Inst::load(Reg::flt(0), Operand::Sym(ilpc_ir::SymId(0)), Operand::ImmI(0), mem);
        assert_eq!(fu_kind(&ld), FuKind::Mem);
        assert_eq!(m.fu.of(FuKind::Mem), 2);
        let fmul = Inst::alu(Opcode::FMul, Reg::flt(0), Operand::ImmF(1.0), Operand::ImmF(2.0));
        assert_eq!(fu_kind(&fmul), FuKind::Fp);
        let mul = Inst::alu(Opcode::Mul, Reg::int(0), Operand::ImmI(1), Operand::ImmI(2));
        assert_eq!(fu_kind(&mul), FuKind::IntMulDiv);
        let br = Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), ilpc_ir::BlockId(0));
        assert_eq!(fu_kind(&br), FuKind::Branch);
    }

    #[test]
    fn zero_width_clamped() {
        assert_eq!(Machine::issue(0).issue_width, 1);
    }

    #[test]
    fn configs() {
        assert_eq!(Machine::issue(4).name(), "issue-4");
        let slow = Machine { latency: LatencyTable { load: 4, ..TABLE1 }, ..Machine::issue(8) };
        assert_eq!(slow.name(), "issue-8/load4");
        assert_eq!(Machine::unlimited().name(), "issue-inf");
        assert_eq!(Machine::base().issue_width, 1);
        assert_eq!(Machine::issue(8).branch_slots, 1);
        assert!(Machine::issue(2).nonexcepting_loads);
    }

    #[test]
    fn compile_key_ignores_memory_hierarchy_only() {
        let base = Machine::issue(8);
        let cached = base.with_cache(CacheParams::small());
        // The memory hierarchy never reaches the compiler…
        assert_eq!(base.compile_key(), cached.compile_key());
        assert_eq!(base.compile_config_hash(), cached.compile_config_hash());
        // …but anything codegen-relevant does.
        assert_ne!(base.compile_key(), Machine::issue(4).compile_key());
        assert_ne!(
            base.compile_config_hash(),
            base.with_mem_ports(2).compile_config_hash()
        );
        let slow_fp = Machine { latency: LatencyTable { fp_alu: 9, ..TABLE1 }, ..base };
        assert_ne!(base.compile_config_hash(), slow_fp.compile_config_hash());
    }

    #[test]
    fn compile_key_ignores_fu_limits_that_cannot_bind() {
        let base = Machine::issue(1);
        let fp_and_mul = base.with_fp_units(2);
        let fp_and_mul = Machine { fu: FuLimits { int_mul_div: 4, ..fp_and_mul.fu }, ..fp_and_mul };
        for m in [base.with_mem_ports(1), fp_and_mul] {
            assert_eq!(base.compile_key(), m.compile_key());
        }
        let (wide, narrow) = (Machine::issue(8), Machine::issue(8).with_mem_ports(2));
        assert_eq!(wide.compile_key(), wide.with_mem_ports(8).compile_key());
        assert_ne!(wide.compile_key(), narrow.compile_key());
        assert_ne!(narrow.compile_key(), narrow.with_mem_ports(1).compile_key());
    }

    #[test]
    fn vlen_is_codegen_relevant() {
        let base = Machine::issue(8);
        assert_eq!(base.vlen, 1);
        let v4 = base.with_vlen(4);
        assert_eq!(v4.name(), "issue-8/v4");
        // VLEN changes what the compiler emits, so it must split the
        // artifact-cache key.
        assert_ne!(base.compile_key(), v4.compile_key());
        assert_ne!(base.compile_config_hash(), v4.compile_config_hash());
        assert_eq!(base.with_vlen(0).vlen, 1);
    }

    #[test]
    fn latency_lookup_is_total() {
        let t = TABLE1;
        let v = Inst::vec_alu(Opcode::VAdd, ilpc_ir::Reg::vec(0), ilpc_ir::Reg::vec(1).into(), ilpc_ir::Reg::vec(2).into(), 4);
        assert_eq!(t.try_of(&v), Ok(t.vec_alu));
        assert_eq!(fu_kind(&v), FuKind::Vec);
        let r = Inst::vreduce(Reg::flt(0), ilpc_ir::Reg::vec(0).into(), 4);
        assert_eq!(t.try_of(&r), Ok(t.vec_reduce));
        // Pseudo-instructions report a typed error instead of a silent row.
        let halt = Inst::halt();
        assert_eq!(t.try_of(&halt), Err(LatencyError { op: Opcode::Halt }));
        assert_eq!(t.of(&halt), 1);
        let e = t.try_of(&Inst::new(Opcode::Nop)).unwrap_err();
        assert!(e.to_string().contains("nop"), "{e}");
    }

    #[test]
    fn memory_hierarchy_defaults_to_perfect() {
        let m = Machine::issue(8);
        assert_eq!(m.mem, MemConfig::Perfect);
        assert!(m.mem.is_perfect());
        let cached = m.with_cache(CacheParams::small());
        assert!(!cached.mem.is_perfect());
        assert_eq!(cached.name(), "issue-8/L1:4x16x2/m30");
        // Everything else is untouched by the memory swap.
        assert_eq!(cached.issue_width, m.issue_width);
        assert_eq!(cached.latency, m.latency);
        assert_eq!(cached.with_mem(MemConfig::perfect()), m);
    }
}
