//! Pre-decoded execution engine: the hot path of the simulator.
//!
//! [`decode`] lowers a [`Module`] once into a flat [`DecodedProgram`];
//! [`simulate_decoded`] then runs it with none of the per-dynamic-
//! instruction work the tree-walking interpreter pays:
//!
//! * **Operand resolution.** Every operand becomes an index into one
//!   unified 64-bit register file: integer vregs first, then float vregs,
//!   then a constant pool holding every immediate and symbol base the
//!   program mentions. Constants are ordinary file entries whose ready
//!   time is permanently 0, so the interlock loop is three array reads —
//!   no `Operand` matching, no `Option` unwrapping.
//! * **Packed records.** The per-record fields the run loop touches every
//!   dynamic instruction (dispatch kind, flags, FU class, latency, operand
//!   and destination indices, branch target) live in one 28-byte `Slot`,
//!   so fetching an instruction is a single bounds-checked load from one
//!   array instead of a dozen. Cold fields (addressing displacement,
//!   memory tags, source coordinates) stay in side arrays indexed by pc.
//! * **Fused dispatch.** The opcode is decoded all the way down: `Add` and
//!   `FMul` are distinct `DOp` variants, so executing an ALU op is one
//!   jump-table dispatch, not an opcode match nested inside a class match.
//! * **Latency and FU class.** Baked in at decode time from the machine's
//!   latency table ([`DecodedProgram`] records which table it was built
//!   for; running it under a machine with a different table is a logic
//!   error caught by a debug assertion).
//! * **Validation.** Structural errors (missing destination register,
//!   missing memory tag, wrong-class operands, out-of-range register ids)
//!   are found at decode time but reported *lazily*: a malformed
//!   instruction decodes to a trap record that returns the exact legacy
//!   [`SimError::Malformed`] when — and only when — control reaches it.
//!   Trap records keep the real operand indices, latency and FU class, so
//!   interlock timing up to the error is also bit-identical.
//! * **Control flow.** Branch targets are pre-resolved instruction
//!   indices. Each block ends in a zero-cost `Goto` (fall-through to the
//!   layout successor) or `FellOff` record, reproducing the legacy
//!   block-walking loop including detached-block dead ends.
//! * **Branch profiling.** Dense per-instruction executed/taken counter
//!   arrays indexed by pc; the `SimResult` profile map is built once at
//!   exit from the non-zero entries.
//! * **Memory hierarchy.** The run loop is generic over
//!   [`ilpc_mem::MemModel`] and monomorphized per configuration, so the
//!   perfect-memory path inlines to two counter increments instead of a
//!   virtual call per access.
//! * **Steady-state fast path.** A block of loop iterations that starts
//!   from the timing state an earlier block started from, takes the same
//!   branch path, and whose accesses return the same extra latencies,
//!   issues on the same cycles shifted by a constant. Once the arrivals at
//!   a loop header show such a block (of up to 8 iterations, so a miss
//!   every fourth one is a period), later blocks compute values only —
//!   from a replay program of 16-byte steps with constant address terms
//!   folded into displacements and each branch turned into an exit check —
//!   make their accesses through the memory model, and add the learned
//!   cycle and instruction deltas; a different path or latency is rewound
//!   — registers from a checkpoint taken once per batch of blocks, memory,
//!   cache contents and counters — and stepped (see `Steady`, and
//!   DESIGN §14).
//!
//! The legacy interpreter survives behind the `oracle` feature (off by
//! default) as `reference::simulate_limited_reference`; the differential
//! test suite proves the two engines cycle- and result-identical across
//! the full evaluation grid.

use crate::{SimError, SimLimits, SimResult};
use ilpc_ir::inst::MAX_VLEN;
use ilpc_ir::{BlockId, Cond, MemLoc, Module, Opcode, Operand, RegClass, SymId};

/// Vector register stride in the unified file (words per vector register).
const VL: u32 = MAX_VLEN as u32;
use ilpc_machine::{fu_kind, FuKind, LatencyTable, Machine, MemConfig};
use ilpc_mem::{Access, CacheMem, MemModel, MemStats, PerfectMem};
use std::collections::{HashMap, VecDeque};

// Trap reasons — the exact strings the legacy engine reports.
const R_MISSING_DST: u8 = 0;
const R_MISSING_TAG: u8 = 1;
const R_MISSING_TARGET: u8 = 2;
const R_EMPTY: u8 = 3;
const R_UNKNOWN_SYM: u8 = 4;
const R_FLT_WHERE_INT: u8 = 5;
const R_INT_WHERE_FLT: u8 = 6;
const R_WRITE_MISMATCH: u8 = 7;
const R_MIXED_BRANCH: u8 = 8;
const R_RANGE: u8 = 9;
const R_VEC_WHERE_SCALAR: u8 = 10;
const R_SCALAR_WHERE_VEC: u8 = 11;

const TRAP_REASONS: [&str; 12] = [
    "missing destination register",
    "missing memory tag",
    "missing branch target",
    "reading empty operand",
    "unknown symbol operand",
    "float operand where integer expected",
    "integer operand where float expected",
    "class mismatch on register write",
    "mixed-class branch comparison",
    "register id out of range",
    "vector register where scalar expected",
    "scalar operand where vector expected",
];

// `target` sentinels for branches whose target only matters when taken.
const TARGET_MISSING: u32 = u32::MAX;
const TARGET_OOB: u32 = u32::MAX - 1;

// Per-record flags.
const F_HAS_DST: u8 = 1 << 0;
const F_IS_BRANCH: u8 = 1 << 1;
const F_IS_LOAD: u8 = 1 << 2;

/// Dispatch kind of one decoded record. Operand classes are validated at
/// decode time, so execution needs no per-class operand checks: `Mov`,
/// `Load` and `Store` move raw 64-bit images. Arithmetic is fully fused —
/// one variant per operation — so the run loop dispatches exactly once
/// per dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DOp {
    // Two-source integer ALU ops.
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Mul,
    Div,
    Rem,
    // Two-source float ALU ops.
    FAdd,
    FSub,
    FMul,
    FDiv,
    /// Register/constant copy (classes match; a bit copy).
    Mov,
    CvtIF,
    CvtFI,
    Load,
    Store,
    // Vector (SLP) operations; the payload is the live lane count,
    // clamped to MAX_VLEN at decode time.
    VAdd(u8),
    VMul(u8),
    VSplat(u8),
    VReduce(u8),
    VLoad(u8),
    VStore(u8),
    /// Conditional branch comparing two integer-class operands.
    BrI(Cond),
    /// Conditional branch comparing two float-class operands.
    BrF(Cond),
    Jump,
    Halt,
    /// Zero-cost fall-through redirect to `target` (end of block).
    Goto,
    /// Control fell off the end of the block (no layout successor).
    FellOff,
    /// Structurally invalid instruction caught before the legacy engine's
    /// interlock stage (out-of-range register id, load without a memory
    /// tag): errors immediately when reached.
    TrapEarly(u8),
    /// Structurally invalid instruction caught at the legacy engine's
    /// execute stage: goes through interlocks, slot accounting and budget
    /// checks first, then errors — preserving error precedence.
    Trap(u8),
}

/// The hot per-record fields, packed so the run loop fetches one record
/// with one bounds check. 28 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: DOp,
    flags: u8,
    /// Functional-unit index (0 IntAlu, 1 IntMulDiv, 2 Fp, 3 Mem,
    /// 4 branch/none — slot 4 is never limited).
    fu: u8,
    lat: u32,
    a: u32,
    b: u32,
    c: u32,
    /// Destination register file index (valid when `F_HAS_DST`).
    dst: u32,
    /// Branch / jump / goto target pc (or a `TARGET_*` sentinel).
    target: u32,
}

/// A module lowered to flat array form, ready for repeated simulation.
/// Build one with [`decode`]; run it with [`simulate_decoded`]. All
/// arrays are indexed by decoded pc.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// Hot per-record fields (see [`Slot`]).
    code: Vec<Slot>,
    /// Addressing displacement for loads/stores.
    ext: Vec<i64>,
    /// Memory disambiguation tag (loads/stores; dummy elsewhere).
    tags: Vec<MemLoc>,
    /// `(block id, instruction index)` for error reports and the branch
    /// profile.
    coord: Vec<(u32, u32)>,
    /// Initial unified register file: `int vregs ++ flt vregs ++ consts`.
    file_init: Vec<u64>,
    /// Words of the file before the constant pool (the only entries a
    /// program writes).
    regs: usize,
    /// Total data-memory words (symbol-table layout size).
    mem_words: usize,
    /// Latency table the program was decoded against.
    latency: LatencyTable,
}

impl DecodedProgram {
    /// Number of decoded records (instructions + block terminators).
    pub fn num_records(&self) -> usize {
        self.code.len()
    }

    /// Size of the unified register file (vregs + constant pool).
    pub fn file_len(&self) -> usize {
        self.file_init.len()
    }

    /// The latency table baked into this program at decode time.
    pub fn latency(&self) -> &LatencyTable {
        &self.latency
    }

    fn malformed(&self, pc: usize, reason: u8) -> SimError {
        let (block, index) = self.coord[pc];
        SimError::Malformed {
            block: BlockId(block),
            index: index as usize,
            reason: TRAP_REASONS[reason as usize],
        }
    }
}

/// Constant pool interner: raw 64-bit images appended after the vregs.
struct Pool {
    map: HashMap<u64, u32>,
    vals: Vec<u64>,
    base: u32,
}

impl Pool {
    fn intern(&mut self, bits: u64) -> u32 {
        if let Some(&idx) = self.map.get(&bits) {
            return idx;
        }
        let idx = self.base + self.vals.len() as u32;
        self.vals.push(bits);
        self.map.insert(bits, idx);
        idx
    }
}

/// One resolved operand slot: a file index plus the value class it
/// provides (`None` class/`err` for unresolvable slots — empty or
/// unknown-symbol operands keep the legacy reason string).
struct Rslot {
    idx: u32,
    class: Option<RegClass>,
    err: Option<u8>,
}

fn slot_ok(s: &Rslot) -> Result<(), u8> {
    match s.err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn slot_class(s: &Rslot, want: RegClass) -> Result<(), u8> {
    slot_ok(s)?;
    if s.class == Some(want) {
        Ok(())
    } else {
        Err(match (want, s.class) {
            // Scalar accessors surface a vector register before any
            // int/float distinction — mirror the legacy reason exactly.
            (RegClass::Int | RegClass::Flt, Some(RegClass::Vec)) => R_VEC_WHERE_SCALAR,
            (RegClass::Int, _) => R_FLT_WHERE_INT,
            (RegClass::Flt, _) => R_INT_WHERE_FLT,
            (RegClass::Vec, _) => R_SCALAR_WHERE_VEC,
        })
    }
}

fn fu_idx(kind: FuKind) -> u8 {
    match kind {
        FuKind::IntAlu => 0,
        FuKind::IntMulDiv => 1,
        FuKind::Fp => 2,
        FuKind::Mem => 3,
        FuKind::Vec => 4,
        FuKind::Branch => 5,
    }
}

/// Fused [`DOp`] for a validated two-source integer ALU opcode.
fn int_dop(op: Opcode) -> DOp {
    match op {
        Opcode::Add => DOp::Add,
        Opcode::Sub => DOp::Sub,
        Opcode::And => DOp::And,
        Opcode::Or => DOp::Or,
        Opcode::Xor => DOp::Xor,
        Opcode::Shl => DOp::Shl,
        Opcode::Shr => DOp::Shr,
        Opcode::Mul => DOp::Mul,
        Opcode::Div => DOp::Div,
        Opcode::Rem => DOp::Rem,
        _ => unreachable!("int_dop on non-integer opcode {op}"),
    }
}

/// Fused [`DOp`] for a validated two-source float ALU opcode.
fn flt_dop(op: Opcode) -> DOp {
    match op {
        Opcode::FAdd => DOp::FAdd,
        Opcode::FSub => DOp::FSub,
        Opcode::FMul => DOp::FMul,
        Opcode::FDiv => DOp::FDiv,
        _ => unreachable!("flt_dop on non-float opcode {op}"),
    }
}

/// One decoded record in assembly order (split into the hot [`Slot`]
/// array and the cold side arrays at the end of [`decode`]).
struct Rec {
    op: DOp,
    flags: u8,
    fu: u8,
    lat: u32,
    dst: u32,
    target: u32,
    a: u32,
    b: u32,
    c: u32,
    ext: i64,
    tag: MemLoc,
    coord: (u32, u32),
}

/// Lower `m` into a [`DecodedProgram`] for `machine`'s latency table.
///
/// Decode never rejects a module: structurally invalid instructions
/// become trap records that reproduce the legacy engine's lazy
/// `SimError::Malformed` (an invalid instruction on a never-executed path
/// is harmless, exactly as before).
pub fn decode(m: &Module, machine: &Machine) -> DecodedProgram {
    let f = &m.func;
    let (bases, mem_words) = m.symtab.layout();
    let ni = f.vreg_count(RegClass::Int);
    let nf = f.vreg_count(RegClass::Flt);
    let nv = f.vreg_count(RegClass::Vec);
    // Vector registers occupy MAX_VLEN consecutive file words each; their
    // scoreboard entry is the first word's index.
    let base_len = ni + nf + nv * VL;
    // Panics on an empty layout, like the legacy engine's `f.entry()`.
    let entry = f.entry();

    // Decode order: layout first-occurrences (entry first), then blocks
    // outside the layout (branch targets mid-insertion / dead ends).
    let nb = f.num_blocks();
    let mut order: Vec<BlockId> = Vec::with_capacity(nb);
    let mut seen = vec![false; nb];
    for &b in f.layout_order() {
        if !seen[b.0 as usize] {
            seen[b.0 as usize] = true;
            order.push(b);
        }
    }
    for id in 0..nb {
        if !seen[id] {
            order.push(BlockId(id as u32));
        }
    }
    debug_assert_eq!(order.first(), Some(&entry));

    // Start pc of every block: live instructions + one terminator each.
    let mut start = vec![0u32; nb];
    let mut n = 0u32;
    for &b in &order {
        start[b.0 as usize] = n;
        let live = f.block(b).insts.iter().filter(|i| i.op != Opcode::Nop).count();
        n += live as u32 + 1;
    }

    let mut pool = Pool { map: HashMap::new(), vals: Vec::new(), base: base_len };
    let const0 = pool.intern(0);
    let unified = |r: ilpc_ir::Reg| -> u32 {
        match r.class {
            RegClass::Int => r.id,
            RegClass::Flt => ni + r.id,
            RegClass::Vec => ni + nf + r.id * VL,
        }
    };
    let mut resolve = |o: Operand| -> Rslot {
        match o {
            Operand::None => Rslot { idx: const0, class: None, err: Some(R_EMPTY) },
            Operand::Reg(r) => {
                // Range-checked by the caller's early stage.
                Rslot { idx: unified(r), class: Some(r.class), err: None }
            }
            Operand::ImmI(v) => {
                Rslot { idx: pool.intern(v as u64), class: Some(RegClass::Int), err: None }
            }
            Operand::ImmF(v) => {
                Rslot { idx: pool.intern(v.to_bits()), class: Some(RegClass::Flt), err: None }
            }
            Operand::Sym(s) => match bases.get(s.0 as usize) {
                Some(&b) => Rslot {
                    idx: pool.intern(b as i64 as u64),
                    class: Some(RegClass::Int),
                    err: None,
                },
                None => Rslot { idx: const0, class: None, err: Some(R_UNKNOWN_SYM) },
            },
        }
    };

    let dummy_tag = MemLoc::opaque(SymId(0));
    let mut recs: Vec<Rec> = Vec::with_capacity(n as usize);

    for &bid in &order {
        let block = f.block(bid);
        for (idx, inst) in block.insts.iter().enumerate() {
            if inst.op == Opcode::Nop {
                continue;
            }
            let mut rec = Rec {
                op: DOp::Halt, // placeholder, always overwritten below
                flags: 0,
                fu: fu_idx(fu_kind(inst)),
                lat: machine.latency.of(inst),
                dst: 0,
                target: 0,
                a: const0,
                b: const0,
                c: const0,
                ext: inst.ext,
                tag: inst.mem.unwrap_or(dummy_tag),
                coord: (bid.0, idx as u32),
            };
            if inst.op.is_branch() {
                rec.flags |= F_IS_BRANCH;
            }

            // Errors the legacy engine finds before its execute stage
            // (interlock register-range checks, a load's tag lookup for
            // the alias stall): these fire immediately on reach, before
            // slot accounting and budget checks.
            let mut early: Option<u8> = None;
            let class_count = |c: RegClass| match c {
                RegClass::Int => ni,
                RegClass::Flt => nf,
                RegClass::Vec => nv,
            };
            for o in inst.src {
                if let Operand::Reg(r) = o {
                    if r.id >= class_count(r.class) {
                        early = Some(R_RANGE);
                        break;
                    }
                }
            }
            if early.is_none() {
                if let Some(d) = inst.dst {
                    if d.id >= class_count(d.class) {
                        early = Some(R_RANGE);
                    }
                }
            }
            if early.is_none() && inst.op.is_mem_read() && inst.mem.is_none() {
                early = Some(R_MISSING_TAG);
            }
            if let Some(r) = early {
                rec.op = DOp::TrapEarly(r);
                recs.push(rec);
                continue;
            }

            // From here on every register operand is range-valid; resolve
            // all slots (trap records keep real indices so interlock and
            // WAW timing stay identical up to the error).
            if let Some(d) = inst.dst {
                rec.dst = unified(d);
                rec.flags |= F_HAS_DST;
            }
            let s0 = resolve(inst.src[0]);
            let s1 = resolve(inst.src[1]);
            let s2 = resolve(inst.src[2]);
            rec.a = s0.idx;
            rec.b = s1.idx;
            rec.c = s2.idx;
            if inst.op.is_mem_read() {
                rec.flags |= F_IS_LOAD;
            }

            // Validate in the legacy engine's execute-stage order, so a
            // multiply-malformed instruction reports the same reason.
            let lanes = inst.lanes.min(MAX_VLEN);
            let decoded: Result<DOp, u8> = (|| match inst.op {
                Opcode::Mov => {
                    slot_ok(&s0)?;
                    // The legacy scalar operand read rejects a vector
                    // register before the destination is examined.
                    if s0.class == Some(RegClass::Vec) {
                        return Err(R_VEC_WHERE_SCALAR);
                    }
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if s0.class != Some(d.class) {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::Mov)
                }
                Opcode::Add
                | Opcode::Sub
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::Shr
                | Opcode::Mul
                | Opcode::Div
                | Opcode::Rem => {
                    slot_class(&s0, RegClass::Int)?;
                    slot_class(&s1, RegClass::Int)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Int {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(int_dop(inst.op))
                }
                Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
                    slot_class(&s0, RegClass::Flt)?;
                    slot_class(&s1, RegClass::Flt)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Flt {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(flt_dop(inst.op))
                }
                Opcode::CvtIF => {
                    slot_class(&s0, RegClass::Int)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Flt {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::CvtIF)
                }
                Opcode::CvtFI => {
                    slot_class(&s0, RegClass::Flt)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Int {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::CvtFI)
                }
                Opcode::Load => {
                    // Legacy checks the destination before the address.
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    slot_class(&s0, RegClass::Int)?;
                    slot_class(&s1, RegClass::Int)?;
                    if d.class == RegClass::Vec {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::Load)
                }
                Opcode::Store => {
                    slot_class(&s0, RegClass::Int)?;
                    slot_class(&s1, RegClass::Int)?;
                    slot_ok(&s2)?;
                    if s2.class == Some(RegClass::Vec) {
                        return Err(R_VEC_WHERE_SCALAR);
                    }
                    if inst.mem.is_none() {
                        return Err(R_MISSING_TAG);
                    }
                    Ok(DOp::Store)
                }
                Opcode::Br(c) => {
                    slot_ok(&s0)?;
                    if s0.class == Some(RegClass::Vec) {
                        return Err(R_VEC_WHERE_SCALAR);
                    }
                    slot_ok(&s1)?;
                    if s1.class == Some(RegClass::Vec) {
                        return Err(R_VEC_WHERE_SCALAR);
                    }
                    match (s0.class, s1.class) {
                        (Some(RegClass::Int), Some(RegClass::Int)) => Ok(DOp::BrI(c)),
                        (Some(RegClass::Flt), Some(RegClass::Flt)) => Ok(DOp::BrF(c)),
                        _ => Err(R_MIXED_BRANCH),
                    }
                }
                Opcode::Jump => {
                    // A jump always takes its target: a missing one errors
                    // at the execute stage, like the legacy engine.
                    if inst.target.is_none() {
                        return Err(R_MISSING_TARGET);
                    }
                    Ok(DOp::Jump)
                }
                Opcode::VAdd | Opcode::VMul => {
                    slot_class(&s0, RegClass::Vec)?;
                    slot_class(&s1, RegClass::Vec)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Vec {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(if inst.op == Opcode::VAdd {
                        DOp::VAdd(lanes)
                    } else {
                        DOp::VMul(lanes)
                    })
                }
                Opcode::VSplat => {
                    slot_class(&s0, RegClass::Flt)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Vec {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::VSplat(lanes))
                }
                Opcode::VReduce => {
                    slot_class(&s0, RegClass::Vec)?;
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    if d.class != RegClass::Flt {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::VReduce(lanes))
                }
                Opcode::VLoad => {
                    let d = inst.dst.ok_or(R_MISSING_DST)?;
                    slot_class(&s0, RegClass::Int)?;
                    slot_class(&s1, RegClass::Int)?;
                    if d.class != RegClass::Vec {
                        return Err(R_WRITE_MISMATCH);
                    }
                    Ok(DOp::VLoad(lanes))
                }
                Opcode::VStore => {
                    slot_class(&s0, RegClass::Int)?;
                    slot_class(&s1, RegClass::Int)?;
                    slot_class(&s2, RegClass::Vec)?;
                    if inst.mem.is_none() {
                        return Err(R_MISSING_TAG);
                    }
                    Ok(DOp::VStore(lanes))
                }
                Opcode::Halt => Ok(DOp::Halt),
                Opcode::Nop => unreachable!("nops are skipped above"),
            })();

            if matches!(inst.op, Opcode::Br(_) | Opcode::Jump) {
                // Targets are resolved lazily at run time: a conditional
                // branch with a missing target only errors when taken.
                rec.target = match inst.target {
                    None => TARGET_MISSING,
                    Some(t) if (t.0 as usize) >= nb => TARGET_OOB,
                    Some(t) => start[t.0 as usize],
                };
            }
            rec.op = match decoded {
                Ok(op) => op,
                Err(r) => DOp::Trap(r),
            };
            recs.push(rec);
        }

        // Block terminator: fall through to the layout successor, or a
        // dead end (detached block / end of layout).
        recs.push(match f.fallthrough(bid) {
            Some(next) => Rec {
                op: DOp::Goto,
                target: start[next.0 as usize],
                flags: 0,
                fu: 4,
                lat: 0,
                dst: 0,
                a: const0,
                b: const0,
                c: const0,
                ext: 0,
                tag: dummy_tag,
                coord: (bid.0, block.insts.len() as u32),
            },
            None => Rec {
                op: DOp::FellOff,
                target: 0,
                flags: 0,
                fu: 4,
                lat: 0,
                dst: 0,
                a: const0,
                b: const0,
                c: const0,
                ext: 0,
                tag: dummy_tag,
                coord: (bid.0, block.insts.len() as u32),
            },
        });
    }
    debug_assert_eq!(recs.len(), n as usize);

    // Unified initial file: vregs all zero (0u64 is both 0i64 and 0.0f64),
    // constants after.
    let mut file_init = vec![0u64; base_len as usize];
    file_init.extend_from_slice(&pool.vals);

    let mut p = DecodedProgram {
        code: Vec::with_capacity(recs.len()),
        ext: Vec::with_capacity(recs.len()),
        tags: Vec::with_capacity(recs.len()),
        coord: Vec::with_capacity(recs.len()),
        file_init,
        regs: base_len as usize,
        mem_words,
        latency: machine.latency,
    };
    for r in recs {
        p.code.push(Slot {
            op: r.op,
            flags: r.flags,
            fu: r.fu,
            lat: r.lat,
            a: r.a,
            b: r.b,
            c: r.c,
            dst: r.dst,
            target: r.target,
        });
        p.ext.push(r.ext);
        p.tags.push(r.tag);
        p.coord.push(r.coord);
    }
    p
}

/// Execute a decoded program under explicit limits.
///
/// `machine` supplies the *runtime* parameters — issue width, branch
/// slots, FU limits and memory hierarchy; the latency table must be the
/// one the program was decoded with.
pub fn simulate_decoded(
    p: &DecodedProgram,
    machine: &Machine,
    init_mem: Vec<u64>,
    limits: SimLimits,
) -> Result<SimResult, SimError> {
    debug_assert_eq!(
        p.latency, machine.latency,
        "decoded program was built for a different latency table"
    );
    // Monomorphize per memory model: the perfect path inlines to two
    // counter bumps, the cache path skips the Box<dyn> indirection.
    match machine.mem {
        MemConfig::Perfect => run(p, machine, init_mem, limits, &mut PerfectMem::new()),
        MemConfig::Cache(params) => run(p, machine, init_mem, limits, &mut CacheMem::new(params)),
    }
}

fn run<M: MemModel>(
    p: &DecodedProgram,
    machine: &Machine,
    mem: Vec<u64>,
    limits: SimLimits,
    memsys: &mut M,
) -> Result<SimResult, SimError> {
    let issue_width = machine.issue_width.max(1);
    // Any per-class limit at or above the issue width can never bind:
    // class counts are bounded by the slot count, which stalls first. The
    // paper's base model (FuLimits::UNLIMITED) takes the specialized
    // engine with no FU accounting at all.
    let fu = [
        machine.fu.int_alu,
        machine.fu.int_mul_div,
        machine.fu.fp,
        machine.fu.mem,
        machine.fu.vec,
    ];
    if fu.iter().all(|&l| l >= issue_width) {
        engine::<M, false>(p, machine, mem, limits, memsys)
    } else {
        engine::<M, true>(p, machine, mem, limits, memsys)
    }
}

// ---- Value semantics ----------------------------------------------------
//
// What each `DOp` computes, written once: the stepping engine wraps these
// in issue timing, the steady-state fast path calls them bare (all but
// `address`: a replay step's address has its constant term folded in).
// Each takes the op as a value and is `#[inline(always)]`, so a call with a
// constant op folds to its one expression.

/// Result of a register-to-register scalar op on raw 64-bit images (the
/// one-source ops ignore `b`).
#[inline(always)]
fn scalar(op: DOp, a: u64, b: u64) -> u64 {
    let (x, y) = (f64::from_bits(a), f64::from_bits(b));
    match op {
        DOp::Add => (a as i64).wrapping_add(b as i64) as u64,
        DOp::Sub => (a as i64).wrapping_sub(b as i64) as u64,
        DOp::And => a & b,
        DOp::Or => a | b,
        DOp::Xor => a ^ b,
        DOp::Shl => (a as i64).wrapping_shl((b & 63) as u32) as u64,
        DOp::Shr => (a as i64).wrapping_shr((b & 63) as u32) as u64,
        DOp::Mul => (a as i64).wrapping_mul(b as i64) as u64,
        DOp::Div if b == 0 => 0,
        DOp::Div => (a as i64).wrapping_div(b as i64) as u64,
        DOp::Rem if b == 0 => 0,
        DOp::Rem => (a as i64).wrapping_rem(b as i64) as u64,
        DOp::FAdd => (x + y).to_bits(),
        DOp::FSub => (x - y).to_bits(),
        DOp::FMul => (x * y).to_bits(),
        DOp::FDiv => (x / y).to_bits(),
        DOp::Mov => a,
        DOp::CvtIF => ((a as i64) as f64).to_bits(),
        DOp::CvtFI => (x as i64) as u64,
        _ => unreachable!("{op:?} is not a scalar register op"),
    }
}

/// Outcome of a conditional branch on its two operand images.
#[inline(always)]
fn branch(op: DOp, a: u64, b: u64) -> bool {
    match op {
        DOp::BrI(c) => c.eval(a as i64, b as i64),
        DOp::BrF(c) => c.eval(f64::from_bits(a), f64::from_bits(b)),
        _ => unreachable!("{op:?} is not a conditional branch"),
    }
}

/// Effective word address of a memory op with displacement `ext`.
#[inline(always)]
fn address(file: &[u64], s: &Slot, ext: i64) -> i64 {
    (file[s.a as usize] as i64)
        .wrapping_add(file[s.b as usize] as i64)
        .wrapping_add(ext)
}

/// Non-excepting read: an out-of-range word reads as zero (the address
/// range check is part of the model).
#[inline(always)]
fn peek(mem: &[u64], addr: i64) -> u64 {
    if addr >= 0 && (addr as usize) < mem.len() {
        mem[addr as usize]
    } else {
        0
    }
}

/// Non-excepting write: an out-of-range word is dropped. Returns the
/// written index and the word it replaced (the fast path's undo record).
#[inline(always)]
fn poke(mem: &mut [u64], addr: i64, v: u64) -> Option<(usize, u64)> {
    let i = usize::try_from(addr).ok()?;
    Some((i, std::mem::replace(mem.get_mut(i)?, v)))
}

/// Lanes of a `VAdd` / `VMul` (of the vector registers at `a`, `b`) or a
/// `VSplat` (of the scalar at `a`); lanes past the live count are zero.
#[inline(always)]
fn vector(op: DOp, file: &[u64], a: usize, b: usize) -> [u64; VL as usize] {
    let mut out = [0u64; VL as usize];
    match op {
        DOp::VAdd(n) | DOp::VMul(n) => {
            for (l, o) in out.iter_mut().enumerate().take(n as usize) {
                let (x, y) = (f64::from_bits(file[a + l]), f64::from_bits(file[b + l]));
                *o = if matches!(op, DOp::VMul(_)) { x * y } else { x + y }.to_bits();
            }
        }
        DOp::VSplat(n) => out[..n as usize].fill(file[a]),
        _ => unreachable!("{op:?} is not a vector register op"),
    }
    out
}

/// Lane-order sum of the first `n` lanes of the vector register at `a`.
#[inline(always)]
fn reduce(file: &[u64], a: usize, n: u8) -> u64 {
    let mut acc = 0.0f64;
    for l in 0..n as usize {
        acc += f64::from_bits(file[a + l]);
    }
    acc.to_bits()
}

/// Lanes of a `VLoad` of `n` words from `addr`.
#[inline(always)]
fn vload(mem: &[u64], addr: i64, n: u8) -> [u64; VL as usize] {
    let mut out = [0u64; VL as usize];
    for (l, o) in out.iter_mut().enumerate().take(n as usize) {
        *o = peek(mem, addr.wrapping_add(l as i64));
    }
    out
}

// The issue prologue (`issue!`) updates the slot/branch accounting in every
// arm; arms that end the cycle themselves (taken branches, halt, trap) then
// overwrite or abandon those counters, which trips `unused_assignments`.
#[allow(unused_assignments)]
fn engine<M: MemModel, const FU: bool>(
    p: &DecodedProgram,
    machine: &Machine,
    mut mem: Vec<u64>,
    limits: SimLimits,
    memsys: &mut M,
) -> Result<SimResult, SimError> {
    if mem.len() < p.mem_words {
        mem.resize(p.mem_words, 0);
    }
    let max_cycles = limits.max_cycles;
    let max_dyn_insts = limits.max_dyn_insts;
    let code = &p.code[..];
    let mut file: Vec<u64> = p.file_init.clone();
    // Index-addressed scoreboard: ready time per file entry (constants
    // are never written, so theirs stays 0).
    let mut ready: Vec<u64> = vec![0; file.len()];
    let n = code.len();
    // Dense per-pc branch counters; the profile map is built once at exit.
    let mut br_exec = vec![0u64; n];
    let mut br_taken = vec![0u64; n];
    // Store history for the same-cycle alias stall, with the legacy push
    // and drain behaviour byte-for-byte. Entries are pushed at their issue
    // cycle, and the issue cursor never decreases, so timestamps are
    // non-decreasing along the vector; `rs_start` tracks where the newest
    // same-cycle run begins so a load scans only that suffix (older
    // entries can never equal a candidate cycle `t >= cursor`), and
    // `rs_last` mirrors that run's timestamp so the common no-store case
    // is one compare.
    let mut recent_stores: Vec<(MemLoc, u64)> = Vec::new();
    let mut rs_start: usize = 0;
    let mut rs_last: u64 = u64::MAX;

    let issue_width = machine.issue_width.max(1);
    let branch_slot_limit = machine.branch_slots.max(1);
    // Slot 5 (branch/none) is accounted by `branch_slots`, never here.
    let fu_limit: [u32; 6] = [
        machine.fu.int_alu,
        machine.fu.int_mul_div,
        machine.fu.fp,
        machine.fu.mem,
        machine.fu.vec,
        u32::MAX,
    ];

    let mut cursor: u64 = 0;
    let mut slots: u32 = 0;
    let mut br_used: u32 = 0;
    let mut fu_slots = [0u32; 6];
    let mut dyn_insts: u64 = 0;
    let mut pc: usize = 0;
    // Under a model that always hits, every access costs 0 extra cycles
    // and the steady state records no latencies.
    let timed = !memsys.always_hits();
    let mut steady = Steady::new(issue_width, timed);

    // Decode validated every index used below — operand and destination
    // indices are in `0..file_len()` (an out-of-range register decodes to
    // `TrapEarly`, which returns before the interlock stage), `pc` stays
    // in `0..num_records()`, and the side arrays are built in lockstep
    // with `code`. The bounds checks stay on regardless: leaving them out
    // measured under 5 % on every workload (DESIGN §14).
    loop {
        let s = code[pc];
        let lat = s.lat as u64;
        let ai = s.a as usize;
        let bi = s.b as usize;

        // Issue-stage prologue, expanded into each opcode's arm so the
        // flag tests fold to constants wherever the opcode implies them
        // (every ALU op has a destination, only loads alias-check, only
        // branches consume a branch slot). Ops whose flags are *not*
        // implied by the opcode — stores/branches/halt may carry a stray
        // destination, a `Trap` record can carry any flags — pass the
        // dynamic flag expression instead, so timing stays bit-for-bit
        // with the legacy engine on malformed input too.
        macro_rules! issue {
            ($has_dst:expr, $is_br:expr, $is_load:expr) => {{
                // 1. Earliest issue by interlocks (RAW on sources, WAW on
                //    the destination). Unused slots point at constants
                //    (ready 0).
                let mut t = cursor;
                t = t.max(ready[ai]);
                t = t.max(ready[bi]);
                t = t.max(ready[s.c as usize]);
                if $has_dst {
                    t = t.max((ready[s.dst as usize] + 1).saturating_sub(lat));
                }
                if $is_load && t == rs_last {
                    // Same-cycle aliasing store forces +1 (store visible
                    // at issue+1). Earlier-cycle stores are already
                    // visible; every stored timestamp is <= cursor <= t,
                    // so only the newest same-cycle run can match, and
                    // after one +1 nothing can: the legacy re-scan loop
                    // runs at most once.
                    let tag = &p.tags[pc];
                    if recent_stores[rs_start..].iter().any(|(stag, _)| stag.may_alias(tag)) {
                        t += 1;
                    }
                }

                // 2. Slot accounting (in-order issue, issue_width per
                //    cycle, one branch slot, per-class FU limits). On the
                //    no-FU-limit path a cycle can stall issue at most once
                //    (after a reset, `slots == br_used == 0` pass both
                //    checks), so the legacy retry loop reduces to one step.
                if t > cursor {
                    cursor = t;
                    slots = 0;
                    br_used = 0;
                    if FU {
                        fu_slots = [0; 6];
                    }
                }
                if FU {
                    let fi = s.fu as usize;
                    while slots >= issue_width
                        || ($is_br && br_used >= branch_slot_limit)
                        || fu_slots[fi] >= fu_limit[fi]
                    {
                        cursor += 1;
                        slots = 0;
                        br_used = 0;
                        fu_slots = [0; 6];
                    }
                    fu_slots[fi] += 1;
                } else if slots >= issue_width || ($is_br && br_used >= branch_slot_limit) {
                    cursor += 1;
                    slots = 0;
                    br_used = 0;
                }
                let t = cursor;
                slots += 1;
                if $is_br {
                    br_used += 1;
                }
                if t > max_cycles {
                    return Err(SimError::CycleLimit(max_cycles));
                }
                dyn_insts += 1;
                if dyn_insts > max_dyn_insts {
                    return Err(SimError::DynInstLimit(max_dyn_insts));
                }
                t
            }};
        }

        // A scalar register op: `dst = scalar(op, a, b)`.
        macro_rules! alu {
            ($op:expr) => {{
                let t = issue!(true, false, false);
                let d = s.dst as usize;
                file[d] = scalar($op, file[ai], file[bi]);
                ready[d] = t + lat;
            }};
        }

        // A whole-register vector result `v` issued at `t`.
        macro_rules! set_vector {
            ($t:expr, $v:expr) => {{
                let (d, v) = (s.dst as usize, $v);
                file[d..d + VL as usize].copy_from_slice(&v);
                ready[d] = $t + lat;
            }};
        }

        // A taken control transfer issued at `$t`: redirect, end the
        // cycle, and at a loop header (a backward target) hand over to the
        // steady-state fast path.
        macro_rules! transfer {
            ($t:expr) => {{
                let from = pc;
                pc = taken_target(p, pc, s.target)?;
                cursor = $t + lat;
                slots = 0;
                br_used = 0;
                fu_slots = [0; 6];
                if pc <= from {
                    let live = Live {
                        file: &mut file,
                        ready: &mut ready,
                        mem: &mut mem,
                        br_exec: &mut br_exec,
                        br_taken: &mut br_taken,
                        cursor: &mut cursor,
                        dyn_insts: &mut dyn_insts,
                    };
                    steady.arrive(p, pc, rs_last, memsys, limits, live);
                }
                continue;
            }};
        }

        // A conditional branch `$op` (the record's own, with its condition).
        macro_rules! cond {
            ($op:expr) => {{
                let t = issue!(s.flags & F_HAS_DST != 0, true, false);
                let taken = branch($op, file[ai], file[bi]);
                br_exec[pc] += 1;
                steady.path.push(taken);
                if taken {
                    br_taken[pc] += 1;
                    transfer!(t);
                }
            }};
        }

        // Track the newest same-cycle store run for the load-side scan;
        // push/drain thresholds are the legacy ones.
        macro_rules! record_store {
            ($t:expr) => {{
                if rs_last != $t {
                    rs_start = recent_stores.len();
                    rs_last = $t;
                }
                recent_stores.push((p.tags[pc], $t));
                if recent_stores.len() > 64 {
                    recent_stores.drain(..32);
                    rs_start = rs_start.saturating_sub(32);
                }
            }};
        }

        // One fused dispatch per record: issue timing and execute live in
        // the same arm.
        match s.op {
            DOp::Goto => {
                // Control records consume no issue resources.
                pc = s.target as usize;
                continue;
            }
            DOp::FellOff => return Err(SimError::FellOffEnd(BlockId(p.coord[pc].0))),
            DOp::TrapEarly(r) => return Err(p.malformed(pc, r)),
            DOp::Add => alu!(DOp::Add),
            DOp::Sub => alu!(DOp::Sub),
            DOp::And => alu!(DOp::And),
            DOp::Or => alu!(DOp::Or),
            DOp::Xor => alu!(DOp::Xor),
            DOp::Shl => alu!(DOp::Shl),
            DOp::Shr => alu!(DOp::Shr),
            DOp::Mul => alu!(DOp::Mul),
            DOp::Div => alu!(DOp::Div),
            DOp::Rem => alu!(DOp::Rem),
            DOp::FAdd => alu!(DOp::FAdd),
            DOp::FSub => alu!(DOp::FSub),
            DOp::FMul => alu!(DOp::FMul),
            DOp::FDiv => alu!(DOp::FDiv),
            DOp::Mov => alu!(DOp::Mov),
            DOp::CvtIF => alu!(DOp::CvtIF),
            DOp::CvtFI => alu!(DOp::CvtFI),
            DOp::Load => {
                let t = issue!(true, false, true);
                let addr = address(&file, &s, p.ext[pc]);
                // A cache miss delays only this load's result (the cache
                // is non-blocking for loads); issue continues.
                let extra = memsys.access(Access::Load, addr as u64);
                steady.latency(timed, extra);
                let d = s.dst as usize;
                file[d] = peek(&mem, addr);
                ready[d] = t + lat + extra;
            }
            DOp::Store => {
                let t = issue!(s.flags & F_HAS_DST != 0, false, false);
                let addr = address(&file, &s, p.ext[pc]);
                poke(&mut mem, addr, file[s.c as usize]);
                record_store!(t);
                // A store miss blocks in-order issue until the
                // write-allocate fill completes (extra = 0 under perfect
                // memory: bit-for-bit legacy timing).
                let extra = memsys.access(Access::Store, addr as u64);
                steady.latency(timed, extra);
                if extra > 0 {
                    cursor = t + extra;
                    slots = 0;
                    br_used = 0;
                    fu_slots = [0; 6];
                }
            }
            DOp::VAdd(_) | DOp::VMul(_) | DOp::VSplat(_) => {
                let t = issue!(true, false, false);
                set_vector!(t, vector(s.op, &file, ai, bi));
            }
            DOp::VReduce(lanes) => {
                let t = issue!(true, false, false);
                let d = s.dst as usize;
                file[d] = reduce(&file, ai, lanes);
                ready[d] = t + lat;
            }
            DOp::VLoad(lanes) => {
                let t = issue!(true, false, true);
                let addr = address(&file, &s, p.ext[pc]);
                // Per-lane accesses so MemStats count every element; the
                // widest miss delays the whole result.
                let mut extra = 0u64;
                for l in 0..lanes as i64 {
                    let lane = memsys.access(Access::Load, addr.wrapping_add(l) as u64);
                    steady.latency(timed, lane);
                    extra = extra.max(lane);
                }
                set_vector!(t + extra, vload(&mem, addr, lanes));
            }
            DOp::VStore(lanes) => {
                let t = issue!(s.flags & F_HAS_DST != 0, false, false);
                let addr = address(&file, &s, p.ext[pc]);
                let ci = s.c as usize;
                let mut extra = 0u64;
                for l in 0..lanes as usize {
                    let a = addr.wrapping_add(l as i64);
                    poke(&mut mem, a, file[ci + l]);
                    let lane = memsys.access(Access::Store, a as u64);
                    steady.latency(timed, lane);
                    extra = extra.max(lane);
                }
                record_store!(t);
                if extra > 0 {
                    cursor = t + extra;
                    slots = 0;
                    br_used = 0;
                    fu_slots = [0; 6];
                }
            }
            DOp::BrI(c) => cond!(DOp::BrI(c)),
            DOp::BrF(c) => cond!(DOp::BrF(c)),
            DOp::Jump => {
                let t = issue!(s.flags & F_HAS_DST != 0, true, false);
                steady.path.push(true);
                transfer!(t);
            }
            DOp::Halt => {
                let t = issue!(s.flags & F_HAS_DST != 0, false, false);
                dyn_insts -= 1; // halt is not work
                let mut branch_profile = HashMap::new();
                for (i, &e) in br_exec.iter().enumerate() {
                    if e > 0 {
                        let (block, index) = p.coord[i];
                        branch_profile.insert((block, index as usize), (e, br_taken[i]));
                    }
                }
                let mut stats = memsys.stats();
                if !timed {
                    stats.loads += steady.loads;
                    stats.stores += steady.stores;
                }
                return Ok(SimResult {
                    cycles: t + 1,
                    dyn_insts,
                    memory: mem,
                    branch_profile,
                    mem: stats,
                    replayed_insts: steady.insts,
                });
            }
            DOp::Trap(r) => {
                // Interlocks, slot accounting and budget checks all run
                // before the execute-stage error fires, exactly like the
                // legacy engine (CycleLimit beats Malformed).
                let _t = issue!(
                    s.flags & F_HAS_DST != 0,
                    s.flags & F_IS_BRANCH != 0,
                    s.flags & F_IS_LOAD != 0
                );
                return Err(p.malformed(pc, r));
            }
        }
        pc += 1;
    }
}

/// Resolve a taken branch's pre-decoded target into the new pc.
fn taken_target(p: &DecodedProgram, pc: usize, target: u32) -> Result<usize, SimError> {
    match target {
        TARGET_MISSING => Err(p.malformed(pc, R_MISSING_TARGET)),
        TARGET_OOB => {
            // The legacy engine indexes the block table and panics; upper
            // layers (grid, guard, campaign) contain panics per point.
            let (block, index) = p.coord[pc];
            panic!("branch target out of range at B{block}[{index}]")
        }
        t => Ok(t as usize),
    }
}

// ---- Steady-state fast path ---------------------------------------------
//
// In-order issue with fixed latencies makes a loop iteration's timing a
// function of three things: the timing state it starts from, relative to
// the cursor; the branch path it takes; and the extra latency the memory
// model returns for each of its accesses. A block of k iterations that
// starts and ends in the same relative state is a template: every later
// block along its path, whose accesses return its latencies, costs exactly
// its deltas. Those run values-only, from a replay program compiled when
// the template is learned. They still make every access, in order, and
// check each returned latency the way they check a branch outcome. DESIGN
// §14 "Steady-state fast path" has the argument.

/// The timing state at a loop-header arrival with cursor `C`: every
/// scoreboard entry still busy at `C`, as `(file index, ready − C)` in
/// index order. The slot counters are zero after a taken transfer,
/// constants are always ready, and an entry ready before `C` can delay
/// neither a read (issue is at or after `C`) nor a write (the WAW bound
/// `ready + 1 − lat` is at most `C`).
type Pending = Vec<(u32, u64)>;

/// The longest template, in loop iterations: a miss every eighth
/// iteration is the longest period a template captures.
const MAX_PERIOD: usize = 8;

/// Arrivals remembered at one header: two blocks of the longest period,
/// and the arrival they start from.
const WINDOW: usize = 2 * MAX_PERIOD + 1;

#[cfg(test)]
thread_local! {
    /// The period of every template that retired a block on this thread.
    pub(crate) static PERIODS: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The longest detection pause (see `Steady::pause`), in arrivals.
const MAX_PAUSE: u32 = 63;

/// Counters at one loop-header arrival.
#[derive(Clone, Copy, Default)]
struct Mark {
    header: usize,
    cursor: u64,
    dyn_insts: u64,
    loads: u64,
    stores: u64,
}

/// One loop-header arrival: its counters and timing state, and the branch
/// path and access latencies of the iteration that ended at it.
#[derive(Default)]
struct Arrival {
    mark: Mark,
    pending: Pending,
    path: Vec<bool>,
    lats: Vec<u64>,
}

/// Operation of one replay step: the `DOp`s a template can hold, with no
/// `Goto`, `Jump`, `Halt` or trap arm (a block's control flow is its
/// order), memory ops split by how many register terms their address
/// keeps, and each conditional branch turned into the check that leaves
/// the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rop {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Mul,
    Div,
    Rem,
    FAdd,
    FSub,
    FMul,
    FDiv,
    Mov,
    CvtIF,
    CvtFI,
    /// Address `file[a] + b`, `b` a 32-bit displacement with the constant
    /// address term folded in.
    Load,
    Store,
    VLoad(u8),
    VStore(u8),
    /// Address `file[a] + file[b]` plus the template's next displacement.
    Load2,
    Store2,
    VLoad2(u8),
    VStore2(u8),
    VAdd(u8),
    VMul(u8),
    VSplat(u8),
    VReduce(u8),
    /// Leave when the signed comparison of `file[a]` with `file[b]` holds
    /// (an integer branch's condition, negated if the template took it).
    LeaveEq,
    LeaveNe,
    LeaveLt,
    LeaveLe,
    LeaveGt,
    LeaveGe,
    /// Leave when the float comparison holds / fails (a float condition
    /// has no negation: NaN fails both `<` and `>=`).
    LeaveIf(Cond),
    LeaveUnless(Cond),
}

/// One step of a replay program: only what replay reads. 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: Rop,
    /// Source words; a memory op's register address terms (or its folded
    /// displacement in `b`).
    a: u32,
    b: u32,
    /// Destination word; a store's value word.
    d: u32,
}

const _: () = assert!(std::mem::size_of::<Step>() == 16);

/// Steps a batch of replayed blocks spans at most (or one block). The
/// words a template writes are checkpointed once per batch, and a block
/// that leaves re-runs the blocks before it in its batch; a batch also
/// holds at most a sixteenth of the blocks its fast-forward has retired,
/// so a loop that runs briefly re-runs little.
const BATCH_STEPS: usize = 4096;

/// The replay step of the record at `pc` (which went `taken` if it is a
/// conditional branch), pushing a two-term memory op's displacement to
/// `disps`. An address term in the constant pool (a file index of `regs`
/// or more, never written) is added to the displacement here: wrapping
/// adds commute, so the address is the stepping engine's.
fn compile_step(p: &DecodedProgram, pc: usize, taken: bool, disps: &mut Vec<i64>) -> Step {
    let s = p.code[pc];
    let (mut a, mut b) = (s.a, s.b);
    // Fold a constant term (the second if both are) into the displacement,
    // kept in `b` if it fits 32 bits; otherwise both terms stay, and the
    // displacement goes to `disps`. True for the one-term form.
    let mut fold = || {
        let constant = |x: u32| p.file_init.get(x as usize).filter(|_| x as usize >= p.regs);
        let term = match (constant(s.a), constant(s.b)) {
            (_, Some(&k)) => Some((s.a, k)),
            (Some(&k), None) => Some((s.b, k)),
            (None, None) => None,
        };
        let disp = |(x, k): (u32, u64)| {
            Some((x, i32::try_from(p.ext[pc].wrapping_add(k as i64)).ok()?))
        };
        match term.and_then(disp) {
            Some((x, d)) => {
                (a, b) = (x, d as u32);
                true
            }
            None => {
                disps.push(p.ext[pc]);
                false
            }
        }
    };
    let leave = |c: Cond| match if taken { c.negated() } else { c } {
        Cond::Eq => Rop::LeaveEq,
        Cond::Ne => Rop::LeaveNe,
        Cond::Lt => Rop::LeaveLt,
        Cond::Le => Rop::LeaveLe,
        Cond::Gt => Rop::LeaveGt,
        Cond::Ge => Rop::LeaveGe,
    };
    let op = match s.op {
        DOp::Add => Rop::Add,
        DOp::Sub => Rop::Sub,
        DOp::And => Rop::And,
        DOp::Or => Rop::Or,
        DOp::Xor => Rop::Xor,
        DOp::Shl => Rop::Shl,
        DOp::Shr => Rop::Shr,
        DOp::Mul => Rop::Mul,
        DOp::Div => Rop::Div,
        DOp::Rem => Rop::Rem,
        DOp::FAdd => Rop::FAdd,
        DOp::FSub => Rop::FSub,
        DOp::FMul => Rop::FMul,
        DOp::FDiv => Rop::FDiv,
        DOp::Mov => Rop::Mov,
        DOp::CvtIF => Rop::CvtIF,
        DOp::CvtFI => Rop::CvtFI,
        DOp::Load if fold() => Rop::Load,
        DOp::Load => Rop::Load2,
        DOp::Store if fold() => Rop::Store,
        DOp::Store => Rop::Store2,
        DOp::VLoad(n) if fold() => Rop::VLoad(n),
        DOp::VLoad(n) => Rop::VLoad2(n),
        DOp::VStore(n) if fold() => Rop::VStore(n),
        DOp::VStore(n) => Rop::VStore2(n),
        DOp::VAdd(n) => Rop::VAdd(n),
        DOp::VMul(n) => Rop::VMul(n),
        DOp::VSplat(n) => Rop::VSplat(n),
        DOp::VReduce(n) => Rop::VReduce(n),
        DOp::BrI(c) => leave(c),
        DOp::BrF(c) if taken => Rop::LeaveUnless(c),
        DOp::BrF(c) => Rop::LeaveIf(c),
        DOp::Jump | DOp::Goto | DOp::Halt | DOp::FellOff | DOp::Trap(_) | DOp::TrapEarly(_) => {
            unreachable!("{:?} is never a template op", s.op)
        }
    };
    let d = if matches!(s.op, DOp::Store | DOp::VStore(_)) { s.c } else { s.dst };
    Step { op, a, b, d }
}

/// A block of iterations from `header` back to `header` that starts and
/// ends in the state `pending`: every block along the same path whose
/// accesses return the same latencies costs the same.
struct Template {
    header: usize,
    pending: Pending,
    /// The block's replay program: its value-carrying records and
    /// conditional branches (gotos and jumps are implied by the order).
    steps: Vec<Step>,
    /// The displacement of each two-term memory step, in order.
    disps: Vec<i64>,
    /// The distinct register words the block writes, ascending.
    writes: Vec<u32>,
    /// `(pc, taken)` of each conditional branch on the path (the profile;
    /// jumps are not profiled).
    branches: Vec<(usize, bool)>,
    /// The extra latency of each access, in order (empty under a memory
    /// model that always hits).
    lats: Vec<u64>,
    /// Iterations per block (the tests read it).
    #[cfg(test)]
    period: usize,
    cycles: u64,
    insts: u64,
    loads: u64,
    stores: u64,
}

/// Why a fast-forward stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// No room in the budgets for another block.
    Budget,
    /// A branch left the template's path.
    Path,
    /// An access returned a latency other than the template's.
    Latency,
}

/// What a fast-forward reads and advances, borrowed from the stepping loop.
struct Live<'a> {
    file: &'a mut [u64],
    ready: &'a mut [u64],
    mem: &'a mut [u64],
    br_exec: &'a mut [u64],
    br_taken: &'a mut [u64],
    cursor: &'a mut u64,
    dyn_insts: &'a mut u64,
}

/// Steady-state detection and the values-only fast path.
#[derive(Default)]
struct Steady {
    /// The store-alias history drains its 32 oldest entries past 64, which
    /// cuts into a same-cycle run longer than 32 and makes its timing
    /// depend on the history's length. A run is bounded by the issue width
    /// and by a block's stores, so past 32 of both no template forms.
    wide: bool,
    /// The memory model returns latencies: they are recorded, and even
    /// period 1 needs two blocks to show them repeat.
    timed: bool,
    /// The last arrivals at one header, oldest first. The first one's
    /// `path` and `lats` belong to no iteration of the window.
    window: VecDeque<Arrival>,
    /// Arrivals that left the window, kept for their buffers.
    spare: Vec<Arrival>,
    /// Outcome of every branch and jump, and the extra latency of every
    /// access, stepped since the last arrival.
    path: Vec<bool>,
    lats: Vec<u64>,
    template: Option<Template>,
    /// Arrivals to let pass before detecting again, and the pause the next
    /// unproductive fast-forward sets. One that retires under two blocks
    /// and leaves on a branch (a data-dependent path, a loop about to exit)
    /// cost more in learning and rewinding than it saved: each doubles the
    /// pause, up to `MAX_PAUSE`, and a productive one clears it.
    pause: u32,
    next_pause: u32,
    /// The header the pause applies to.
    paused: usize,
    /// The current batch's checkpoint of the template's `writes`, and the
    /// memory words its stores replaced, oldest first.
    saved: Vec<u64>,
    replaced: Vec<(usize, u64)>,
    /// Totals retired by the fast path (`SimResult::replayed_insts`, and
    /// the loads and stores a model that always hits never saw).
    insts: u64,
    loads: u64,
    stores: u64,
}

impl Steady {
    fn new(issue_width: u32, timed: bool) -> Steady {
        Steady { wide: issue_width > 32, timed, ..Steady::default() }
    }

    /// Record one access's extra latency: a path outcome like a branch's,
    /// and always 0 (so not recorded) when the model is not `timed`.
    #[inline(always)]
    fn latency(&mut self, timed: bool, extra: u64) {
        if timed {
            self.lats.push(extra);
        }
    }

    /// Forget the window and the iteration in progress.
    fn forget(&mut self) {
        self.spare.extend(self.window.drain(..));
        self.path.clear();
        self.lats.clear();
    }

    /// A taken branch or jump arrived at `header` from at or after it.
    /// Remember this arrival, learn a template if the window shows a
    /// period, and run the template while it holds.
    #[inline(never)]
    fn arrive<M: MemModel>(
        &mut self,
        p: &DecodedProgram,
        header: usize,
        rs_last: u64,
        memsys: &mut M,
        limits: SimLimits,
        mut live: Live<'_>,
    ) {
        let c = *live.cursor;
        let pausing = self.paused == header && self.pause > 0;
        if pausing || rs_last == c {
            // Paused; or a store in the back-edge cycle (branch latency 0)
            // is still visible to the next iteration's loads, timing state
            // outside the scoreboard: this arrival starts nothing.
            self.pause -= pausing as u32;
            self.forget();
            return;
        }
        if self.window.front().is_some_and(|a| a.mark.header != header) {
            self.forget();
        }
        let mut a = self.spare.pop().unwrap_or_default();
        let MemStats { loads, stores, .. } = memsys.stats();
        a.mark = Mark { header, cursor: c, dyn_insts: *live.dyn_insts, loads, stores };
        a.pending.clear();
        let busy = live.ready[..p.regs].iter().enumerate().filter(|&(_, &r)| r >= c);
        a.pending.extend(busy.map(|(x, &r)| (x as u32, r - c)));
        std::mem::swap(&mut a.path, &mut self.path);
        std::mem::swap(&mut a.lats, &mut self.lats);
        self.path.clear();
        self.lats.clear();
        if self.window.len() == WINDOW {
            self.spare.extend(self.window.pop_front());
        }
        self.window.push_back(a);

        if let Some(t) = self.period().and_then(|k| self.learn(p, k)) {
            self.template = Some(t);
        }
        let Some(t) = self.template.take() else { return };
        if t.header != header || self.window.back().is_some_and(|a| a.pending != t.pending) {
            self.template = Some(t);
            return;
        }
        let (n, stop) = self.fast_forward(&t, memsys, limits, &mut live);
        #[cfg(test)]
        if n > 0 {
            PERIODS.with_borrow_mut(|v| v.push(t.period));
        }
        if n >= 2 {
            if self.paused == header {
                self.next_pause = 0;
            }
            self.template = Some(t);
        } else if stop == Stop::Latency {
            // The miss pattern moved (a new row, a conflict): the template
            // is dropped, for its state recurs at other phases of the new
            // pattern, where it would fail again.
        } else {
            if self.paused != header {
                (self.paused, self.next_pause) = (header, 0);
            }
            self.pause = self.next_pause;
            self.next_pause = (2 * self.next_pause + 1).min(MAX_PAUSE);
            self.template = Some(t);
        }
        if n > 0 {
            // The blocks it retired were never stepped: the window restarts
            // at this arrival.
            let mut a = self.window.pop_back().expect("this arrival");
            self.forget();
            let MemStats { loads, stores, .. } = memsys.stats();
            a.mark = Mark { cursor: *live.cursor, dyn_insts: *live.dyn_insts, loads, stores, header };
            self.window.push_back(a);
        }
    }

    /// The smallest period `k` the window shows, if any:
    /// - the arrival `k` back found this arrival's state, so the `k`
    ///   iterations between them form a template (the exactness condition);
    /// - the latencies repeat every `k` iterations across the whole window,
    ///   so that, once the window has seen a miss, the all-hit iterations
    ///   between misses every fourth (say) do not pass for period 1;
    /// - the window holds two blocks, which agree in state and path. Under
    ///   a model that always hits there are no latencies, and one repeat of
    ///   the state is evidence enough for `k = 1`.
    fn period(&self) -> Option<usize> {
        let w = &self.window;
        let m = w.len() - 1;
        (1..=m.min(MAX_PERIOD)).find(|&k| {
            w[m - k].pending == w[m].pending
                && (k == 1 && !self.timed
                    || m >= 2 * k
                        && (1..=k).all(|j| w[m - k - j].pending == w[m - j].pending)
                        && (0..k).all(|j| w[m - k - j].path == w[m - j].path))
                && (k + 1..=m).all(|i| w[i].lats == w[i - k].lats)
        })
    }

    /// The block of the window's last `k` iterations, rebuilt from their
    /// paths by walking the code from the header.
    fn learn(&self, p: &DecodedProgram, k: usize) -> Option<Template> {
        let w = &self.window;
        let m = w.len() - 1;
        let (from, to) = (w[m - k].mark, w[m].mark);
        let stores = to.stores - from.stores;
        if self.wide && stores > 32 {
            return None;
        }
        let block = w.range(m + 1 - k..);
        let insts = to.dyn_insts - from.dyn_insts;
        let mut steps = Vec::with_capacity(insts as usize);
        let (mut disps, mut writes, mut branches) = (Vec::new(), Vec::new(), Vec::new());
        let path: Vec<bool> = block.clone().flat_map(|a| a.path.iter().copied()).collect();
        let mut outcomes = path.iter();
        let mut pc = from.header;
        while outcomes.len() > 0 {
            let s = *p.code.get(pc)?;
            pc = match s.op {
                DOp::Goto => s.target as usize,
                DOp::BrI(_) | DOp::BrF(_) | DOp::Jump => {
                    let taken = *outcomes.next()?;
                    if s.op != DOp::Jump {
                        steps.push(compile_step(p, pc, taken, &mut disps));
                        branches.push((pc, taken));
                    }
                    if taken {
                        s.target as usize
                    } else {
                        pc + 1
                    }
                }
                // A stepped iteration cannot have passed these.
                DOp::Halt | DOp::FellOff | DOp::Trap(_) | DOp::TrapEarly(_) => return None,
                _ => {
                    let step = compile_step(p, pc, false, &mut disps);
                    match step.op {
                        Rop::Store | Rop::Store2 | Rop::VStore(_) | Rop::VStore2(_) => {}
                        Rop::VAdd(_)
                        | Rop::VMul(_)
                        | Rop::VSplat(_)
                        | Rop::VLoad(_)
                        | Rop::VLoad2(_) => writes.extend(step.d..step.d + VL),
                        _ => writes.push(step.d),
                    }
                    steps.push(step);
                    pc + 1
                }
            };
        }
        writes.sort_unstable();
        writes.dedup();
        (pc == from.header).then(|| Template {
            header: from.header,
            pending: w[m].pending.clone(),
            steps,
            disps,
            writes,
            branches,
            lats: block.flat_map(|a| a.lats.iter().copied()).collect(),
            #[cfg(test)]
            period: k,
            cycles: to.cursor - from.cursor,
            insts,
            loads: to.loads - from.loads,
            stores,
        })
    }

    /// Run whole blocks of `t` values-only while they follow its path, the
    /// memory model returns its latencies, and the budgets have room for
    /// one more; then stepping resumes at the header in exactly the state
    /// it would have reached. Errors and the loop's exit thus still come
    /// from the stepping engine.
    ///
    /// Blocks run in batches (see `BATCH_STEPS`). A batch first
    /// checkpoints the words the template writes, and the model opens an
    /// undoable span; a block that leaves rewinds the whole batch
    /// (registers from the checkpoint, memory words from the replaced-word
    /// log, newest first, the model by `undo`) and re-runs the batch's
    /// completed blocks.
    fn fast_forward<M: MemModel>(
        &mut self,
        t: &Template,
        memsys: &mut M,
        limits: SimLimits,
        live: &mut Live<'_>,
    ) -> (u64, Stop) {
        // Blocks that fit: each ends at most `cycles` and `insts` later,
        // and every issue inside it is no later than its end.
        let room = |left: u64, per: u64| left.checked_div(per).unwrap_or(u64::MAX);
        let fit = room(limits.max_cycles.saturating_sub(*live.cursor), t.cycles)
            .min(room(limits.max_dyn_insts.saturating_sub(*live.dyn_insts), t.insts));
        let (mut n, mut stop) = (0u64, Stop::Budget);
        self.saved.resize(t.writes.len(), 0);
        let most = (BATCH_STEPS / t.steps.len().max(1)).max(1) as u64;
        let log = most.min(fit) as usize * t.stores as usize;
        if self.replaced.len() < log {
            self.replaced.resize(log, (0, 0));
        }
        while n < fit {
            let blocks = (n / 16).clamp(1, most).min(fit - n);
            memsys.begin();
            for (w, &x) in self.saved.iter_mut().zip(&t.writes) {
                *w = live.file[x as usize];
            }
            match replay(t, blocks, live.file, live.mem, &mut self.replaced, memsys) {
                Ok(()) => n += blocks,
                Err((done, logged, why)) => {
                    for &(x, w) in self.replaced[..logged].iter().rev() {
                        live.mem[x] = w;
                    }
                    for (&x, &w) in t.writes.iter().zip(&self.saved) {
                        live.file[x as usize] = w;
                    }
                    memsys.undo();
                    if done > 0 {
                        let replaced = &mut self.replaced;
                        let again = replay(t, done, live.file, live.mem, replaced, memsys);
                        debug_assert!(again.is_ok(), "a replayed block is a function of its state");
                        n += done;
                    }
                    stop = why;
                    break;
                }
            }
        }
        if n == 0 {
            return (0, stop);
        }
        *live.cursor += n * t.cycles;
        *live.dyn_insts += n * t.insts;
        for &(pc, taken) in &t.branches {
            live.br_exec[pc] += n;
            if taken {
                live.br_taken[pc] += n;
            }
        }
        for &(x, rel) in &t.pending {
            live.ready[x as usize] = *live.cursor + rel;
        }
        self.insts += n * t.insts;
        self.loads += n * t.loads;
        self.stores += n * t.stores;
        (n, stop)
    }
}

/// Run `blocks` blocks of `t`'s replay program, values only, making their
/// accesses through `memsys` and logging each memory word a store replaces
/// to `replaced`. At a step that leaves the path, or an access whose
/// latency differs from the template's, it stops and returns the blocks
/// completed before it, the entries logged and which it was; it undoes
/// nothing.
fn replay<M: MemModel>(
    t: &Template,
    blocks: u64,
    file: &mut [u64],
    mem: &mut [u64],
    replaced: &mut [(usize, u64)],
    memsys: &mut M,
) -> Result<(), (u64, usize, Stop)> {
    let timed = !memsys.always_hits();
    let mut logged = 0;
    for done in 0..blocks {
        let mut lats = t.lats.iter();
        let mut disps = t.disps.iter();
        macro_rules! leave {
            ($why:expr) => {
                return Err((done, logged, $why))
            };
        }
        // The real access; its latency is checked like a branch outcome.
        macro_rules! access {
            ($kind:expr, $addr:expr) => {
                if timed && lats.next() != Some(&memsys.access_undoable($kind, $addr as u64)) {
                    leave!(Stop::Latency);
                }
            };
        }
        // A store of `$v` at `$addr`, logging the word it replaces.
        macro_rules! store {
            ($addr:expr, $v:expr) => {{
                let addr = $addr;
                if let Some(old) = poke(mem, addr, $v) {
                    replaced[logged] = old;
                    logged += 1;
                }
                access!(Access::Store, addr);
            }};
        }
        for s in &t.steps {
            let (a, b, d) = (s.a as usize, s.b as usize, s.d as usize);
            // A memory step's address: one register term and the
            // displacement in `b`, or two and the next of `disps`.
            macro_rules! at {
                () => {
                    (file[a] as i64).wrapping_add(s.b as i32 as i64)
                };
                (2) => {
                    (file[a] as i64)
                        .wrapping_add(file[b] as i64)
                        .wrapping_add(disps.next().copied().unwrap_or(0))
                };
            }
            macro_rules! alu {
                ($op:expr) => {
                    file[d] = scalar($op, file[a], file[b])
                };
            }
            // A whole-register vector result.
            macro_rules! set_vector {
                ($v:expr) => {{
                    let v = $v;
                    file[d..d + VL as usize].copy_from_slice(&v);
                }};
            }
            macro_rules! vload {
                ($addr:expr, $n:expr) => {{
                    let (addr, n) = ($addr, $n);
                    for l in 0..n as i64 {
                        access!(Access::Load, addr.wrapping_add(l));
                    }
                    set_vector!(vload(mem, addr, n));
                }};
            }
            macro_rules! vstore {
                ($addr:expr, $n:expr) => {{
                    let addr = $addr;
                    for l in 0..$n as usize {
                        store!(addr.wrapping_add(l as i64), file[d + l]);
                    }
                }};
            }
            macro_rules! leave_if {
                ($cmp:tt) => {
                    if (file[a] as i64) $cmp (file[b] as i64) {
                        leave!(Stop::Path);
                    }
                };
            }
            match s.op {
                Rop::Add => alu!(DOp::Add),
                Rop::Sub => alu!(DOp::Sub),
                Rop::And => alu!(DOp::And),
                Rop::Or => alu!(DOp::Or),
                Rop::Xor => alu!(DOp::Xor),
                Rop::Shl => alu!(DOp::Shl),
                Rop::Shr => alu!(DOp::Shr),
                Rop::Mul => alu!(DOp::Mul),
                Rop::Div => alu!(DOp::Div),
                Rop::Rem => alu!(DOp::Rem),
                Rop::FAdd => alu!(DOp::FAdd),
                Rop::FSub => alu!(DOp::FSub),
                Rop::FMul => alu!(DOp::FMul),
                Rop::FDiv => alu!(DOp::FDiv),
                Rop::Mov => alu!(DOp::Mov),
                Rop::CvtIF => alu!(DOp::CvtIF),
                Rop::CvtFI => alu!(DOp::CvtFI),
                Rop::Load => {
                    let addr = at!();
                    access!(Access::Load, addr);
                    file[d] = peek(mem, addr);
                }
                Rop::Load2 => {
                    let addr = at!(2);
                    access!(Access::Load, addr);
                    file[d] = peek(mem, addr);
                }
                Rop::Store => store!(at!(), file[d]),
                Rop::Store2 => store!(at!(2), file[d]),
                Rop::VLoad(n) => vload!(at!(), n),
                Rop::VLoad2(n) => vload!(at!(2), n),
                Rop::VStore(n) => vstore!(at!(), n),
                Rop::VStore2(n) => vstore!(at!(2), n),
                Rop::VAdd(n) => set_vector!(vector(DOp::VAdd(n), file, a, b)),
                Rop::VMul(n) => set_vector!(vector(DOp::VMul(n), file, a, b)),
                Rop::VSplat(n) => set_vector!(vector(DOp::VSplat(n), file, a, b)),
                Rop::VReduce(n) => file[d] = reduce(file, a, n),
                Rop::LeaveEq => leave_if!(==),
                Rop::LeaveNe => leave_if!(!=),
                Rop::LeaveLt => leave_if!(<),
                Rop::LeaveLe => leave_if!(<=),
                Rop::LeaveGt => leave_if!(>),
                Rop::LeaveGe => leave_if!(>=),
                Rop::LeaveIf(c) => {
                    if branch(DOp::BrF(c), file[a], file[b]) {
                        leave!(Stop::Path);
                    }
                }
                Rop::LeaveUnless(c) => {
                    if !branch(DOp::BrF(c), file[a], file[b]) {
                        leave!(Stop::Path);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_limited_reference;
    use ilpc_ir::inst::Inst;
    use ilpc_ir::{Cond, MemLoc, Opcode, Operand, RegClass};
    use ilpc_mem::CacheParams;

    /// A cache that checks, at every undoable access, that its journal
    /// holds no more entries than the span has made accesses.
    struct Watch {
        cache: CacheMem,
        span: usize,
        within: bool,
    }

    impl MemModel for Watch {
        fn access(&mut self, kind: Access, addr: u64) -> u64 {
            self.cache.access(kind, addr)
        }
        fn stats(&self) -> MemStats {
            self.cache.stats()
        }
        fn begin(&mut self) {
            self.span = 0;
            self.cache.begin();
        }
        fn access_undoable(&mut self, kind: Access, addr: u64) -> u64 {
            self.span += 1;
            let extra = self.cache.access_undoable(kind, addr);
            self.within &= self.cache.journal_len() <= self.span;
            extra
        }
        fn undo(&mut self) {
            self.cache.undo();
        }
        fn reset(&mut self) {
            self.cache.reset();
        }
        fn name(&self) -> String {
            self.cache.name()
        }
    }

    /// The largest associativity a client may configure, in one set of
    /// 2^16 ways, through the engine: a streamed array misses into the
    /// set's front every fourth iteration and a scalar's line is pulled
    /// back from way 1 every iteration. Blocks are replayed and the loop's
    /// exit undone, every observable equals the oracle's, and the journal
    /// never outgrows the accesses of one block.
    #[test]
    fn steady_state_cache_journal_stays_per_access_in_a_2_to_the_16_way_set() {
        let n = 512;
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", n, RegClass::Int);
        let b = m.symtab.declare("B", 1, RegClass::Int);
        let f = &mut m.func;
        let [i, x, y] = [(); 3].map(|_| f.new_reg(RegClass::Int));
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.push(Inst::mov(i, Operand::ImmI(0)));
        f.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::load(y, Operand::Sym(b), Operand::ImmI(0), MemLoc::affine(b, 0, 0)),
            Inst::alu(Opcode::Add, y, y.into(), x.into()),
            Inst::store(Operand::Sym(b), Operand::ImmI(0), y.into(), MemLoc::affine(b, 0, 0)),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(n as i64), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        let params = CacheParams::new(4, 1, 1 << 16, 30, 10);
        let machine = Machine::issue(4).with_cache(params);
        let mem: Vec<u64> = (0..=n as u64).collect();
        let limits = SimLimits::cycles(1_000_000);
        let mut watch = Watch { cache: CacheMem::new(params), span: 0, within: true };
        let fast = run(&decode(&m, &machine), &machine, mem.clone(), limits, &mut watch).unwrap();
        let oracle = simulate_limited_reference(&m, &machine, mem, limits).unwrap();
        assert_eq!(
            (fast.cycles, fast.dyn_insts, &fast.memory, &fast.branch_profile, fast.mem),
            (oracle.cycles, oracle.dyn_insts, &oracle.memory, &oracle.branch_profile, oracle.mem)
        );
        assert!(fast.replayed_insts * 2 > fast.dyn_insts, "{fast:?}");
        assert!(watch.within, "the journal outgrew a block's accesses");
    }

    /// The engine's `scalar` computes on raw register images with its own
    /// copy of the machine's arithmetic; it must agree with the shared
    /// definition (`ilpc_ir::semantics`) the constant folder and the
    /// reference oracle use, on every opcode that definition accepts and
    /// at the operands where conventions differ: x/0, x%0, `MIN / -1`,
    /// shift counts past 63, NaN, the infinities and a signed zero.
    #[test]
    fn scalar_arithmetic_is_the_shared_semantics() {
        use ilpc_ir::semantics::{eval_flt, eval_int};
        let ints = [0, 1, -1, 2, -7, 63, 64, 65, 127, i64::MAX, i64::MIN, 0x5555_5555_5555_5555];
        let int_ops = [
            Opcode::Add,
            Opcode::Sub,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Shl,
            Opcode::Shr,
            Opcode::Mul,
            Opcode::Div,
            Opcode::Rem,
        ];
        for op in int_ops {
            for a in ints {
                for b in ints {
                    let got = scalar(int_dop(op), a as u64, b as u64) as i64;
                    assert_eq!(got, eval_int(op, a, b), "{op} {a} {b}");
                }
            }
        }
        let flts = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for op in [Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv] {
            for a in flts {
                for b in flts {
                    let got = scalar(flt_dop(op), a.to_bits(), b.to_bits());
                    assert_eq!(got, eval_flt(op, a, b).to_bits(), "{op} {a:?} {b:?}");
                }
            }
        }
    }
}
