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
//!   dynamic instruction (dispatch kind, FU class, latency, operand and
//!   destination indices, branch target) live in one 28-byte `Slot`, so
//!   fetching an instruction is a single bounds-checked load from one
//!   array instead of a dozen. Cold fields (addressing displacement,
//!   memory tags, source coordinates) stay in side arrays indexed by pc.
//! * **Fused dispatch.** The opcode is decoded all the way down: `Add` and
//!   `FMul` are distinct `DOp` variants, so executing an ALU op is one
//!   jump-table dispatch, not an opcode match nested inside a class match.
//! * **Latency and FU class.** Baked in at decode time from the machine's
//!   latency table ([`DecodedProgram`] records which table it was built
//!   for; running it under a machine with a different table is a logic
//!   error caught by a debug assertion).
//! * **Validation.** None of its own: [`decode`] runs the IR verifier
//!   ([`verify_module`]) once, and a module it rejects decodes to a program
//!   whose every run returns the verifier's first error as
//!   [`SimError::Malformed`] before any cycle. In a verified module every
//!   register id, symbol, memory tag and branch target is in range and
//!   every operand has the class its opcode reads, so the engine has
//!   nothing left to check.
//! * **Control flow.** The layout is decoded in order, so falling through
//!   to the next layout block is falling through to the next record.
//!   Branch targets are pre-resolved record indices; a verified layout's
//!   last block ends in a jump or halt, so control never runs off the end.
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
//!   cycle and instruction deltas. Every block of a batch but its last runs
//!   the program pruned of the steps the next block cannot observe (dead
//!   values, stores a later store of the block overwrites; under a cache a
//!   dead load or store keeps its accesses), so each batch ends in the
//!   stepping engine's state. A different path or latency is rewound —
//!   registers from a checkpoint taken once per batch, memory, cache
//!   contents and counters — and stepped (see `Steady`, and DESIGN §14).
//!
//! The legacy interpreter survives behind the `oracle` feature (off by
//! default) as `reference::simulate_limited_reference`; the differential
//! test suite proves the two engines cycle- and result-identical across
//! the full evaluation grid.

use crate::{SimError, SimLimits, SimResult};
use ilpc_ir::inst::{Inst, MAX_VLEN};
use ilpc_ir::verify::verify_module;
use ilpc_ir::{Cond, MemLoc, Module, Opcode, Operand, RegClass, SymId};

/// Vector register stride in the unified file (words per vector register).
const VL: u32 = MAX_VLEN as u32;
use ilpc_machine::{fu_kind, FuKind, LatencyTable, Machine, MemConfig};
use ilpc_mem::{Access, CacheMem, MemModel, MemStats, PerfectMem};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// Dispatch kind of one decoded record. The verifier holds every operand
/// to the class its opcode reads, so execution needs no per-class operand
/// checks: `Mov`, `Load` and `Store` move raw 64-bit images. Arithmetic is
/// fully fused — one variant per operation — so the run loop dispatches
/// exactly once per dynamic instruction.
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
    // Vector (SLP) operations; the payload is the live lane count.
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
}

/// The hot per-record fields, packed so the run loop fetches one record
/// with one bounds check. 28 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    op: DOp,
    /// Functional-unit index (0 IntAlu, 1 IntMulDiv, 2 Fp, 3 Mem, 4 Vec,
    /// 5 branch/none — slot 5 is never limited).
    fu: u8,
    lat: u32,
    a: u32,
    b: u32,
    c: u32,
    /// Destination register file index (0 for an op without one).
    dst: u32,
    /// Branch / jump target pc.
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
    /// `(block id, instruction index)` of each record, for the branch
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
    /// The verifier's first error, for a module it rejects (whose program
    /// has no records): every run returns it before any cycle.
    malformed: Option<SimError>,
}

impl DecodedProgram {
    /// Number of decoded records (one per non-`nop` instruction).
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

/// The fused [`DOp`] of a verified instruction other than `nop`.
fn dop(inst: &Inst) -> DOp {
    let n = inst.lanes;
    match inst.op {
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
        Opcode::FAdd => DOp::FAdd,
        Opcode::FSub => DOp::FSub,
        Opcode::FMul => DOp::FMul,
        Opcode::FDiv => DOp::FDiv,
        Opcode::Mov => DOp::Mov,
        Opcode::CvtIF => DOp::CvtIF,
        Opcode::CvtFI => DOp::CvtFI,
        Opcode::Load => DOp::Load,
        Opcode::Store => DOp::Store,
        Opcode::VAdd => DOp::VAdd(n),
        Opcode::VMul => DOp::VMul(n),
        Opcode::VSplat => DOp::VSplat(n),
        Opcode::VReduce => DOp::VReduce(n),
        Opcode::VLoad => DOp::VLoad(n),
        Opcode::VStore => DOp::VStore(n),
        // The verifier holds both compared operands to one scalar class.
        Opcode::Br(c) if inst.src[0].class() == Some(RegClass::Flt) => DOp::BrF(c),
        Opcode::Br(c) => DOp::BrI(c),
        Opcode::Jump => DOp::Jump,
        Opcode::Halt => DOp::Halt,
        Opcode::Nop => unreachable!("decode skips nops"),
    }
}

/// Lower `m` into a [`DecodedProgram`] for `machine`'s latency table.
///
/// A module [`verify_module`] rejects decodes to a program with no
/// records that carries the verifier's first error: [`simulate_decoded`]
/// returns it as [`SimError::Malformed`] (the verifier's `code` as the
/// reason) before any cycle. Decode itself checks nothing. Only the
/// layout is decoded: a verified module's branches target layout blocks,
/// so a block outside it is never reached.
pub fn decode(m: &Module, machine: &Machine) -> DecodedProgram {
    let (bases, mem_words) = m.symtab.layout();
    let mut p = DecodedProgram {
        code: Vec::new(),
        ext: Vec::new(),
        tags: Vec::new(),
        coord: Vec::new(),
        file_init: Vec::new(),
        regs: 0,
        mem_words,
        latency: machine.latency,
        malformed: None,
    };
    if let Err(e) = verify_module(m) {
        p.malformed = Some(SimError::Malformed { block: e.block, index: e.index, reason: e.code });
        return p;
    }
    let f = &m.func;
    let ni = f.vreg_count(RegClass::Int);
    let nf = f.vreg_count(RegClass::Flt);
    let nv = f.vreg_count(RegClass::Vec);
    // Vector registers occupy MAX_VLEN consecutive file words each; their
    // scoreboard entry is the first word's index.
    p.regs = (ni + nf + nv * VL) as usize;

    // Start pc of every layout block (the entry's is 0): one record per
    // live instruction.
    let mut start = vec![0u32; f.num_blocks()];
    let mut n = 0u32;
    for &b in f.layout_order() {
        start[b.0 as usize] = n;
        n += f.block(b).insts.iter().filter(|i| i.op != Opcode::Nop).count() as u32;
    }

    let mut pool = Pool { map: HashMap::new(), vals: Vec::new(), base: p.regs as u32 };
    let const0 = pool.intern(0);
    let unified = |r: ilpc_ir::Reg| -> u32 {
        match r.class {
            RegClass::Int => r.id,
            RegClass::Flt => ni + r.id,
            RegClass::Vec => ni + nf + r.id * VL,
        }
    };
    // An unused operand slot reads the constant 0 (ready at cycle 0).
    let mut resolve = |o: Operand| -> u32 {
        match o {
            Operand::None => const0,
            Operand::Reg(r) => unified(r),
            Operand::ImmI(v) => pool.intern(v as u64),
            Operand::ImmF(v) => pool.intern(v.to_bits()),
            Operand::Sym(s) => pool.intern(bases[s.0 as usize] as i64 as u64),
        }
    };

    let dummy_tag = MemLoc::opaque(SymId(0));
    p.code.reserve(n as usize);
    p.ext.reserve(n as usize);
    p.tags.reserve(n as usize);
    p.coord.reserve(n as usize);
    for &bid in f.layout_order() {
        for (idx, inst) in f.block(bid).insts.iter().enumerate() {
            if inst.op == Opcode::Nop {
                continue;
            }
            p.code.push(Slot {
                op: dop(inst),
                fu: fu_idx(fu_kind(inst)),
                lat: machine.latency.of(inst),
                a: resolve(inst.src[0]),
                b: resolve(inst.src[1]),
                c: resolve(inst.src[2]),
                dst: inst.dst.map_or(0, unified),
                target: inst.target.map_or(0, |t| start[t.0 as usize]),
            });
            p.ext.push(inst.ext);
            p.tags.push(inst.mem.unwrap_or(dummy_tag));
            p.coord.push((bid.0, idx as u32));
        }
    }
    debug_assert_eq!(p.code.len(), n as usize);

    // Unified initial file: vregs all zero (0u64 is both 0i64 and 0.0f64),
    // constants after.
    p.file_init = vec![0u64; p.regs];
    p.file_init.extend_from_slice(&pool.vals);
    p
}

/// Execute a decoded program under explicit limits.
///
/// `machine` supplies the *runtime* parameters — issue width, branch
/// slots, FU limits and memory hierarchy; the latency table must be the
/// one the program was decoded with. A program decoded from a module the
/// verifier rejects returns its error before any cycle.
pub fn simulate_decoded(
    p: &DecodedProgram,
    machine: &Machine,
    init_mem: Vec<u64>,
    limits: SimLimits,
) -> Result<SimResult, SimError> {
    if let Some(e) = &p.malformed {
        return Err(e.clone());
    }
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
// arm; arms that end the cycle themselves (taken branches, halt) then
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
    // The tags of the stores issued in cycle `rs_last`, for the same-cycle
    // alias stall. The issue cursor never decreases, so a load (issued at
    // or after the cursor) can only meet the newest cycle's stores: a
    // store in a new cycle clears the set, and the common no-store case is
    // one compare.
    let mut recent_stores: Vec<MemLoc> = Vec::new();
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
    let mut steady = Steady { timed, ..Steady::default() };

    // The verifier checked every index used below — operand and
    // destination indices are in `0..file_len()`, `pc` stays in
    // `0..num_records()` (the last layout block ends in a jump or halt),
    // and the side arrays are built in lockstep with `code`. The bounds
    // checks stay on regardless: leaving them out measured under 5 % on
    // every workload (DESIGN §14).
    loop {
        let s = code[pc];
        let lat = s.lat as u64;
        let ai = s.a as usize;
        let bi = s.b as usize;

        // Issue-stage prologue, expanded into each opcode's arm so its
        // flags are constants: whether the op writes a register (the
        // verifier leaves no destination on a store, branch, jump or
        // halt), alias-checks as a load, or takes a branch slot.
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
                    if recent_stores.iter().any(|stag| stag.may_alias(tag)) {
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
                pc = s.target as usize;
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
                let t = issue!(false, true, false);
                let taken = branch($op, file[ai], file[bi]);
                br_exec[pc] += 1;
                steady.path.push(taken);
                if taken {
                    br_taken[pc] += 1;
                    transfer!(t);
                }
            }};
        }

        // Add this store to the cycle's set, opening the set for a new
        // cycle.
        macro_rules! record_store {
            ($t:expr) => {{
                if rs_last != $t {
                    recent_stores.clear();
                    rs_last = $t;
                }
                recent_stores.push(p.tags[pc]);
            }};
        }

        // One fused dispatch per record: issue timing and execute live in
        // the same arm.
        match s.op {
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
                let t = issue!(false, false, false);
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
                let t = issue!(false, false, false);
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
                let t = issue!(false, true, false);
                steady.path.push(true);
                transfer!(t);
            }
            DOp::Halt => {
                let t = issue!(false, false, false);
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
                    elided_insts: steady.elided,
                });
            }
        }
        pc += 1;
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
/// `Jump` or `Halt` arm (a block's control flow is its order), memory ops
/// split by how many register terms their address keeps, and each
/// conditional branch turned into the check that leaves the block.
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
    /// The `n` accesses alone of a load or store whose value is dead (a
    /// pruned program's, under a model that returns latencies), from the
    /// address `Load` / `Load2` would compute.
    LoadAccess(u8),
    LoadAccess2(u8),
    StoreAccess(u8),
    StoreAccess2(u8),
}

impl Rop {
    /// A memory op's access kind, lanes and whether its address keeps two
    /// register terms.
    fn memory(self) -> Option<(Access, u8, bool)> {
        Some(match self {
            Rop::Load => (Access::Load, 1, false),
            Rop::Load2 => (Access::Load, 1, true),
            Rop::VLoad(n) | Rop::LoadAccess(n) => (Access::Load, n, false),
            Rop::VLoad2(n) | Rop::LoadAccess2(n) => (Access::Load, n, true),
            Rop::Store => (Access::Store, 1, false),
            Rop::Store2 => (Access::Store, 1, true),
            Rop::VStore(n) | Rop::StoreAccess(n) => (Access::Store, n, false),
            Rop::VStore2(n) | Rop::StoreAccess2(n) => (Access::Store, n, true),
            _ => return None,
        })
    }
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

impl Step {
    /// The words the step reads, up to three runs of the file (a memory
    /// op's register address terms first, a store's value last), and the
    /// words it writes (a vector result: all `MAX_VLEN`; none for a store,
    /// an access alone or an exit check). One match: the pruning pass
    /// calls it on every step.
    fn words(&self) -> ([Range<u32>; 3], Range<u32>) {
        let (a, b, d) = (self.a, self.b, self.d);
        const NONE: Range<u32> = 0..0;
        let (one, lanes) = (|x: u32| x..x + 1, |x: u32, n: u8| x..x + n as u32);
        let vector = d..d + VL;
        match self.op {
            Rop::Load => ([one(a), NONE, NONE], one(d)),
            Rop::Load2 => ([one(a), one(b), NONE], one(d)),
            Rop::VLoad(_) | Rop::VSplat(_) => ([one(a), NONE, NONE], vector),
            Rop::VLoad2(_) => ([one(a), one(b), NONE], vector),
            Rop::LoadAccess(_) | Rop::StoreAccess(_) => ([one(a), NONE, NONE], NONE),
            Rop::LoadAccess2(_) | Rop::StoreAccess2(_) => ([one(a), one(b), NONE], NONE),
            Rop::Store => ([one(a), NONE, one(d)], NONE),
            Rop::Store2 => ([one(a), one(b), one(d)], NONE),
            Rop::VStore(n) => ([one(a), NONE, lanes(d, n)], NONE),
            Rop::VStore2(n) => ([one(a), one(b), lanes(d, n)], NONE),
            Rop::VAdd(n) | Rop::VMul(n) => ([lanes(a, n), lanes(b, n), NONE], vector),
            Rop::VReduce(n) => ([lanes(a, n), NONE, NONE], one(d)),
            Rop::LeaveEq
            | Rop::LeaveNe
            | Rop::LeaveLt
            | Rop::LeaveLe
            | Rop::LeaveGt
            | Rop::LeaveGe
            | Rop::LeaveIf(_)
            | Rop::LeaveUnless(_) => ([one(a), one(b), NONE], NONE),
            // Scalar ops (a one-source op's unused `b` too).
            _ => ([one(a), one(b), NONE], one(d)),
        }
    }
}

/// A replay program: the steps of one block, in path order, and the
/// displacement of each two-term memory step among them, in order.
struct Program {
    steps: Vec<Step>,
    disps: Vec<i64>,
    /// Steps of the template's full program this one leaves out or runs
    /// as accesses alone (0 for the full program).
    elided: u64,
}

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
        DOp::Jump | DOp::Halt => unreachable!("{:?} is never a template op", s.op),
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
    full: Program,
    /// `full` without the steps the next block cannot observe (see
    /// `prune`), derived when the template first runs a batch of more than
    /// one block; every block of a batch but the last runs it.
    pruned: Option<Program>,
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
    /// Totals retired by the fast path (`SimResult::replayed_insts` and
    /// `elided_insts`, and the loads and stores a model that always hits
    /// never saw).
    insts: u64,
    elided: u64,
    loads: u64,
    stores: u64,
}

impl Steady {
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
        let Some(mut t) = self.template.take() else { return };
        if t.header != header || self.window.back().is_some_and(|a| a.pending != t.pending) {
            self.template = Some(t);
            return;
        }
        let (n, stop) = self.fast_forward(&mut t, memsys, limits, &mut live);
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
                DOp::Halt => return None,
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
            full: Program { steps, disps, elided: 0 },
            pruned: None,
            writes,
            branches,
            lats: block.flat_map(|a| a.lats.iter().copied()).collect(),
            #[cfg(test)]
            period: k,
            cycles: to.cursor - from.cursor,
            insts,
            loads: to.loads - from.loads,
            stores: to.stores - from.stores,
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
    /// completed blocks. Every block of a batch but its last runs the
    /// pruned program, so the state at each batch boundary, where a rewind
    /// re-runs from and stepping resumes, is the stepping engine's.
    fn fast_forward<M: MemModel>(
        &mut self,
        t: &mut Template,
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
        let most = (BATCH_STEPS / t.full.steps.len().max(1)).max(1) as u64;
        let log = most.min(fit) as usize * t.stores as usize;
        if self.replaced.len() < log {
            self.replaced.resize(log, (0, 0));
        }
        while n < fit {
            let blocks = (n / 16).clamp(1, most).min(fit - n);
            if blocks > 1 && t.pruned.is_none() {
                t.pruned = Some(prune(&t.full, &t.writes, self.timed));
            }
            memsys.begin();
            for (w, &x) in self.saved.iter_mut().zip(&t.writes) {
                *w = live.file[x as usize];
            }
            let outcome = replay(t, blocks, live.file, live.mem, &mut self.replaced, memsys);
            let (done, left) = match outcome {
                Ok(()) => (blocks, None),
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
                    }
                    (done, Some(why))
                }
            };
            n += done;
            // Every block of a batch but its last ran the pruned program.
            self.elided += done.saturating_sub(1) * t.pruned.as_ref().map_or(0, |p| p.elided);
            if let Some(why) = left {
                stop = why;
                break;
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

/// `full` without the steps whose results the next block cannot observe,
/// found in a forward and a backward pass over the block:
/// - live-out is the words the block reads before it writes them: the
///   next block's live-in, whichever program it runs;
/// - a store is dead when later stores of the block write every word it
///   writes and no live load between them may read one. Two addresses are
///   the same word when their register terms are the same words, written
///   as often in the block before each, and their displacements agree; a
///   load through any other terms may alias;
/// - a load, scalar or vector op is dead when none of the words it writes
///   is live; an exit check never is.
///
/// Under a `timed` model a dead load or store keeps its accesses, so the
/// model sees the same ones in the same order, and its address terms stay
/// live. Only the words the block writes are tracked: any other, a
/// constant-pool word included, holds one value throughout the block.
fn prune(full: &Program, writes: &[u32], timed: bool) -> Program {
    /// A memory step's address: its register terms, each with the number
    /// of earlier writes to it in the block (a one-term address's second
    /// is unused), and its displacement.
    type Addr = ([(u32, u32); 2], i64);
    let lanes = |&(terms, disp): &Addr, n: u8| {
        (0..n as i64).map(move |l| (terms, disp.wrapping_add(l)))
    };
    let top = writes.last().map_or(0, |&x| x as usize + 1);
    let tracked = |x: &u32| (*x as usize) < top;
    // Forward: the live-out, and each memory step's address.
    let (mut defs, mut live) = (vec![0u32; top], vec![false; top]);
    let (mut disps, mut addrs) = (full.disps.iter(), Vec::new());
    for s in &full.steps {
        let (reads, wrote) = s.words();
        for r in reads {
            for x in r.filter(tracked) {
                live[x as usize] |= defs[x as usize] == 0;
            }
        }
        if let Some((_, _, two)) = s.op.memory() {
            let term = |x: u32| (x, defs.get(x as usize).copied().unwrap_or(0));
            addrs.push(match two {
                true => ([term(s.a), term(s.b)], disps.next().copied().unwrap_or(0)),
                false => ([term(s.a), (u32::MAX, 0)], s.b as i32 as i64),
            });
        }
        for x in wrote {
            defs[x as usize] += 1;
        }
    }
    // Backward: the kept steps, and the words later kept stores write
    // that no live load since may read.
    let mut overwritten: Vec<Addr> = Vec::new();
    let (mut steps, mut kept_disps, mut elided) = (Vec::new(), Vec::new(), 0);
    for s in full.steps.iter().rev() {
        let (reads, wrote) = s.words();
        let memory = s.op.memory().map(|(kind, n, two)| {
            (kind, n, two, addrs.pop().unwrap_or_default())
        });
        let dead = match memory {
            Some((Access::Store, n, _, addr)) => {
                lanes(&addr, n).all(|w| overwritten.contains(&w))
            }
            // An exit check writes nothing and is never dead.
            _ => !wrote.is_empty() && !wrote.clone().any(|x| live[x as usize]),
        };
        let mut step = *s;
        let reads = if dead {
            elided += 1;
            let Some((kind, n, two, _)) = memory.filter(|_| timed) else {
                continue;
            };
            step.op = match (kind, two) {
                (Access::Load, false) => Rop::LoadAccess(n),
                (Access::Load, true) => Rop::LoadAccess2(n),
                (Access::Store, false) => Rop::StoreAccess(n),
                (Access::Store, true) => Rop::StoreAccess2(n),
            };
            // Its address terms alone.
            &reads[..2]
        } else {
            for x in wrote {
                live[x as usize] = false;
            }
            match memory {
                // It may read any word but those its own terms name at
                // other displacements.
                Some((Access::Load, n, _, addr)) => {
                    overwritten.retain(|w| w.0 == addr.0 && !lanes(&addr, n).any(|v| v == *w))
                }
                Some((Access::Store, n, _, addr)) => {
                    for w in lanes(&addr, n) {
                        if !overwritten.contains(&w) {
                            overwritten.push(w);
                        }
                    }
                }
                _ => {}
            }
            &reads[..]
        };
        for r in reads {
            for x in r.clone().filter(tracked) {
                live[x as usize] = true;
            }
        }
        if let Some((_, _, true, (_, disp))) = memory {
            kept_disps.push(disp);
        }
        steps.push(step);
    }
    steps.reverse();
    kept_disps.reverse();
    Program { steps, disps: kept_disps, elided }
}

/// Run `blocks` blocks of `t`'s replay program, values only, making their
/// accesses through `memsys` and logging each memory word a store replaces
/// to `replaced`: the pruned program, if the template has one, but for the
/// last block, which runs the full one. At a step that leaves the path, or
/// an access whose latency differs from the template's, it stops and
/// returns the blocks completed before it, the entries logged and which it
/// was; it undoes nothing.
fn replay<M: MemModel>(
    t: &Template,
    blocks: u64,
    file: &mut [u64],
    mem: &mut [u64],
    replaced: &mut [(usize, u64)],
    memsys: &mut M,
) -> Result<(), (u64, usize, Stop)> {
    let timed = !memsys.always_hits();
    let pruned = t.pruned.as_ref().unwrap_or(&t.full);
    let mut logged = 0;
    for done in 0..blocks {
        let program = if done + 1 < blocks { pruned } else { &t.full };
        let mut lats = t.lats.iter();
        let mut disps = program.disps.iter();
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
        for s in &program.steps {
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
            // The accesses of `$n` lanes from `$addr`.
            macro_rules! lanes {
                ($kind:expr, $addr:expr, $n:expr) => {{
                    let addr = $addr;
                    for l in 0..$n as i64 {
                        access!($kind, addr.wrapping_add(l));
                    }
                }};
            }
            macro_rules! vload {
                ($addr:expr, $n:expr) => {{
                    let (addr, n) = ($addr, $n);
                    lanes!(Access::Load, addr, n);
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
                Rop::LoadAccess(n) => lanes!(Access::Load, at!(), n),
                Rop::LoadAccess2(n) => lanes!(Access::Load, at!(2), n),
                Rop::StoreAccess(n) => lanes!(Access::Store, at!(), n),
                Rop::StoreAccess2(n) => lanes!(Access::Store, at!(2), n),
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
                    let got = scalar(dop(&Inst::new(op)), a as u64, b as u64) as i64;
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
                    let got = scalar(dop(&Inst::new(op)), a.to_bits(), b.to_bits());
                    assert_eq!(got, eval_flt(op, a, b).to_bits(), "{op} {a:?} {b:?}");
                }
            }
        }
    }
}
