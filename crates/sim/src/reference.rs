//! # Legacy tree-walking interpreter — the differential oracle
//!
//! The original cycle simulator: it walks the nested `Block`/`Inst` IR per
//! dynamic instruction, resolving operands, latencies and structural
//! validity on every visit. Superseded as the default engine by the
//! pre-decoded engine in [`crate::decoded`] (~10× faster on the grid hot
//! path), it is kept — feature-gated behind `oracle`, off by default — as
//! the executable specification: the differential suite
//! (`tests/engine_differential.rs` at the workspace root) asserts the two
//! engines agree cycle-for-cycle and result-for-result across the full
//! evaluation grid under both perfect and cached memory.
//!
//! The issue model is documented at the crate root. This file is
//! intentionally boring and changes only when the *specification* changes;
//! the one post-freeze optimization is the dense per-branch counter array
//! (replacing a per-branch `HashMap` in the hot loop), which is invisible
//! in the profile the caller receives.

use crate::{SimError, SimLimits, SimResult};
use ilpc_ir::semantics::{eval_flt, eval_int};
use ilpc_ir::value::Value;
use ilpc_ir::inst::MAX_VLEN;
use ilpc_ir::{BlockId, Inst, MemLoc, Module, Opcode, Operand, Reg, RegClass};
use ilpc_machine::{fu_kind, FuKind, Machine};
use ilpc_mem::Access;
use std::collections::HashMap;

struct Cpu {
    int: Vec<i64>,
    flt: Vec<f64>,
    vec: Vec<[f64; MAX_VLEN as usize]>,
    ready: [Vec<u64>; 3],
    bases: Vec<usize>,
    mem: Vec<u64>,
    /// The stores of the newest cycle that issued one: `(tag, issue_time)`.
    recent_stores: Vec<(MemLoc, u64)>,
    cycles: u64,
    dyn_insts: u64,
}

impl Cpu {
    // Every accessor is total: a malformed module (empty operand slot,
    // out-of-range register id, wrong-class operand) surfaces as a reason
    // string that the interpreter wraps into `SimError::Malformed` with the
    // instruction's coordinates, never as a panic.
    fn reg_value(&self, r: Reg) -> Result<Value, &'static str> {
        match r.class {
            RegClass::Int => {
                self.int.get(r.id as usize).map(|&v| Value::I(v)).ok_or("register id out of range")
            }
            RegClass::Flt => {
                self.flt.get(r.id as usize).map(|&v| Value::F(v)).ok_or("register id out of range")
            }
            RegClass::Vec => Err("vector register where scalar expected"),
        }
    }

    fn vec_operand(&self, o: Operand) -> Result<[f64; MAX_VLEN as usize], &'static str> {
        match o {
            Operand::Reg(r) if r.class == RegClass::Vec => self
                .vec
                .get(r.id as usize)
                .copied()
                .ok_or("register id out of range"),
            Operand::None => Err("reading empty operand"),
            _ => Err("scalar operand where vector expected"),
        }
    }

    fn write_vec(
        &mut self,
        r: Reg,
        v: [f64; MAX_VLEN as usize],
        ready_at: u64,
    ) -> Result<(), &'static str> {
        if r.class != RegClass::Vec {
            return Err("class mismatch on register write");
        }
        *self.vec.get_mut(r.id as usize).ok_or("register id out of range")? = v;
        self.ready[r.class.index()][r.id as usize] = ready_at;
        Ok(())
    }

    fn operand(&self, o: Operand) -> Result<Value, &'static str> {
        match o {
            Operand::Reg(r) => self.reg_value(r),
            Operand::ImmI(v) => Ok(Value::I(v)),
            Operand::ImmF(v) => Ok(Value::F(v)),
            Operand::Sym(s) => self
                .bases
                .get(s.0 as usize)
                .map(|&b| Value::I(b as i64))
                .ok_or("unknown symbol operand"),
            Operand::None => Err("reading empty operand"),
        }
    }

    fn int_operand(&self, o: Operand) -> Result<i64, &'static str> {
        match self.operand(o)? {
            Value::I(v) => Ok(v),
            Value::F(_) => Err("float operand where integer expected"),
        }
    }

    fn flt_operand(&self, o: Operand) -> Result<f64, &'static str> {
        match self.operand(o)? {
            Value::F(v) => Ok(v),
            Value::I(_) => Err("integer operand where float expected"),
        }
    }

    fn write(&mut self, r: Reg, v: Value, ready_at: u64) -> Result<(), &'static str> {
        match (r.class, v) {
            (RegClass::Int, Value::I(x)) => {
                *self.int.get_mut(r.id as usize).ok_or("register id out of range")? = x;
            }
            (RegClass::Flt, Value::F(x)) => {
                *self.flt.get_mut(r.id as usize).ok_or("register id out of range")? = x;
            }
            _ => return Err("class mismatch on register write"),
        }
        self.ready[r.class.index()][r.id as usize] = ready_at;
        Ok(())
    }

    fn ready_at(&self, r: Reg) -> Result<u64, &'static str> {
        self.ready[r.class.index()]
            .get(r.id as usize)
            .copied()
            .ok_or("register id out of range")
    }

    /// Add a store issued at `t` to the stores of its cycle: issue never
    /// goes back, so no later load can meet an earlier cycle's store.
    fn record_store(&mut self, tag: MemLoc, t: u64) {
        if self.recent_stores.last().is_some_and(|&(_, ts)| ts != t) {
            self.recent_stores.clear();
        }
        self.recent_stores.push((tag, t));
    }

    /// Effective address of a memory instruction.
    fn address(&self, inst: &Inst) -> Result<i64, &'static str> {
        let base = self.int_operand(inst.src[0])?;
        let off = self.int_operand(inst.src[1])?;
        Ok(base.wrapping_add(off).wrapping_add(inst.ext))
    }
}

/// Execute `m` with the legacy interpreter under explicit limits.
pub fn simulate_limited_reference(
    m: &Module,
    machine: &Machine,
    init_mem: Vec<u64>,
    limits: SimLimits,
) -> Result<SimResult, SimError> {
    let max_cycles = limits.max_cycles;
    let f = &m.func;
    let (bases, total) = m.symtab.layout();
    let mut init_mem = init_mem;
    if init_mem.len() < total {
        init_mem.resize(total, 0);
    }
    let mut cpu = Cpu {
        int: vec![0; f.vreg_count(RegClass::Int) as usize],
        flt: vec![0.0; f.vreg_count(RegClass::Flt) as usize],
        vec: vec![[0.0; MAX_VLEN as usize]; f.vreg_count(RegClass::Vec) as usize],
        ready: [
            vec![0; f.vreg_count(RegClass::Int) as usize],
            vec![0; f.vreg_count(RegClass::Flt) as usize],
            vec![0; f.vreg_count(RegClass::Vec) as usize],
        ],
        bases,
        mem: init_mem,
        recent_stores: Vec::new(),
        cycles: 0,
        dyn_insts: 0,
    };

    let mut cur = f.entry();
    // The data-memory hierarchy (perfect by default — zero extra cycles).
    let mut memsys = machine.mem.build();
    // Guard against degenerate machines built by hand (pub fields).
    let issue_width = machine.issue_width.max(1);
    let branch_slot_limit = machine.branch_slots.max(1);
    // Issue bookkeeping: cursor cycle + slots consumed within it.
    let mut cursor: u64 = 0;
    let mut slots: u32 = 0;
    let mut branch_slots: u32 = 0;
    let mut fu_slots = [0u32; 5]; // IntAlu, IntMulDiv, Fp, Mem, Vec
    let fu_index = |k: FuKind| match k {
        FuKind::IntAlu => Some(0usize),
        FuKind::IntMulDiv => Some(1),
        FuKind::Fp => Some(2),
        FuKind::Mem => Some(3),
        FuKind::Vec => Some(4),
        FuKind::Branch => None,
    };

    // Dense per-instruction branch counters (`(executed, taken)` indexed by
    // flat instruction position); the profile map the caller sees is built
    // once at exit from the non-zero entries.
    let nb = f.num_blocks();
    let mut br_off = vec![0usize; nb + 1];
    for id in 0..nb {
        br_off[id + 1] = br_off[id] + f.block(BlockId(id as u32)).insts.len();
    }
    let mut br_counts = vec![(0u64, 0u64); br_off[nb]];

    'blocks: loop {
        let block = f.block(cur);
        for (inst_idx, inst) in block.insts.iter().enumerate() {
            if inst.op == Opcode::Nop {
                continue;
            }
            // Structured errors for malformed modules (hand-edited or
            // truncated `.ilpc` input) instead of panics.
            let malformed = move |reason: &'static str| SimError::Malformed {
                block: cur,
                index: inst_idx,
                reason,
            };
            let dst =
                || inst.dst.ok_or_else(|| malformed("missing destination register"));
            let mem_tag = || inst.mem.ok_or_else(|| malformed("missing memory tag"));
            let target =
                || inst.target.ok_or_else(|| malformed("missing branch target"));
            let lat = machine.latency.of(inst) as u64;

            // Earliest issue by interlocks.
            let mut t = cursor;
            for r in inst.uses() {
                t = t.max(cpu.ready_at(r).map_err(malformed)?);
            }
            if let Some(d) = inst.def() {
                // WAW: completion order (t + lat >= prev_ready + 1).
                t = t.max((cpu.ready_at(d).map_err(malformed)? + 1).saturating_sub(lat));
            }
            if inst.op.is_mem_read() {
                // Same-cycle aliasing store forces +1 (store visible at
                // issue+1). Earlier-cycle stores are already visible.
                let tag = mem_tag()?;
                while cpu
                    .recent_stores
                    .iter()
                    .any(|(s, ts)| *ts == t && s.may_alias(&tag))
                {
                    t += 1;
                }
            }

            // Slot accounting (in-order issue, issue_width per cycle,
            // one branch slot, per-class functional unit limits).
            if t > cursor {
                cursor = t;
                slots = 0;
                branch_slots = 0;
                fu_slots = [0; 5];
            }
            let kind = fu_kind(inst);
            loop {
                let slot_full = slots >= issue_width;
                let branch_full =
                    inst.op.is_branch() && branch_slots >= branch_slot_limit;
                let fu_full = fu_index(kind)
                    .is_some_and(|fi| fu_slots[fi] >= machine.fu.of(kind));
                if slot_full || branch_full || fu_full {
                    cursor += 1;
                    slots = 0;
                    branch_slots = 0;
                    fu_slots = [0; 5];
                } else {
                    break;
                }
            }
            let t = cursor;
            slots += 1;
            if inst.op.is_branch() {
                branch_slots += 1;
            }
            if let Some(fi) = fu_index(kind) {
                fu_slots[fi] += 1;
            }
            if t > max_cycles {
                return Err(SimError::CycleLimit(max_cycles));
            }
            cpu.dyn_insts += 1;
            if cpu.dyn_insts > limits.max_dyn_insts {
                return Err(SimError::DynInstLimit(limits.max_dyn_insts));
            }

            // Execute.
            match inst.op {
                Opcode::Mov => {
                    let v = cpu.operand(inst.src[0]).map_err(malformed)?;
                    cpu.write(dst()?, v, t + lat).map_err(malformed)?;
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
                    let a = cpu.int_operand(inst.src[0]).map_err(malformed)?;
                    let b = cpu.int_operand(inst.src[1]).map_err(malformed)?;
                    cpu.write(dst()?, Value::I(eval_int(inst.op, a, b)), t + lat)
                        .map_err(malformed)?;
                }
                Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
                    let a = cpu.flt_operand(inst.src[0]).map_err(malformed)?;
                    let b = cpu.flt_operand(inst.src[1]).map_err(malformed)?;
                    cpu.write(dst()?, Value::F(eval_flt(inst.op, a, b)), t + lat)
                        .map_err(malformed)?;
                }
                Opcode::CvtIF => {
                    let a = cpu.int_operand(inst.src[0]).map_err(malformed)?;
                    cpu.write(dst()?, Value::F(a as f64), t + lat).map_err(malformed)?;
                }
                Opcode::CvtFI => {
                    let a = cpu.flt_operand(inst.src[0]).map_err(malformed)?;
                    cpu.write(dst()?, Value::I(a as i64), t + lat).map_err(malformed)?;
                }
                Opcode::Load => {
                    let d = dst()?;
                    let addr = cpu.address(inst).map_err(malformed)?;
                    // Non-excepting: out-of-range reads return zero.
                    let bits = if addr >= 0 && (addr as usize) < cpu.mem.len() {
                        cpu.mem[addr as usize]
                    } else {
                        0
                    };
                    // A cache miss delays only this load's result (the
                    // cache is non-blocking for loads); issue continues.
                    let extra = memsys.access(Access::Load, addr as u64);
                    cpu.write(d, Value::from_bits(bits, d.class), t + lat + extra)
                        .map_err(malformed)?;
                }
                Opcode::Store => {
                    let addr = cpu.address(inst).map_err(malformed)?;
                    let val = cpu.operand(inst.src[2]).map_err(malformed)?;
                    if addr >= 0 && (addr as usize) < cpu.mem.len() {
                        cpu.mem[addr as usize] = val.to_bits();
                    }
                    let tag = mem_tag()?;
                    cpu.record_store(tag, t);
                    // A store miss blocks in-order issue until the
                    // write-allocate fill completes (extra = 0 under
                    // perfect memory: bit-for-bit legacy timing).
                    let extra = memsys.access(Access::Store, addr as u64);
                    if extra > 0 {
                        cursor = t + extra;
                        slots = 0;
                        branch_slots = 0;
                        fu_slots = [0; 5];
                    }
                }
                Opcode::VAdd | Opcode::VMul => {
                    let a = cpu.vec_operand(inst.src[0]).map_err(malformed)?;
                    let b = cpu.vec_operand(inst.src[1]).map_err(malformed)?;
                    let scalar_op = if inst.op == Opcode::VAdd {
                        Opcode::FAdd
                    } else {
                        Opcode::FMul
                    };
                    let mut out = [0.0; MAX_VLEN as usize];
                    for l in 0..(inst.lanes as usize).min(MAX_VLEN as usize) {
                        out[l] = eval_flt(scalar_op, a[l], b[l]);
                    }
                    cpu.write_vec(dst()?, out, t + lat).map_err(malformed)?;
                }
                Opcode::VSplat => {
                    let v = cpu.flt_operand(inst.src[0]).map_err(malformed)?;
                    let mut out = [0.0; MAX_VLEN as usize];
                    for l in 0..(inst.lanes as usize).min(MAX_VLEN as usize) {
                        out[l] = v;
                    }
                    cpu.write_vec(dst()?, out, t + lat).map_err(malformed)?;
                }
                Opcode::VReduce => {
                    let a = cpu.vec_operand(inst.src[0]).map_err(malformed)?;
                    // Lane-order summation: the packs being reduced were
                    // adjacent statements, so this matches their source order.
                    let mut acc = 0.0;
                    for l in 0..(inst.lanes as usize).min(MAX_VLEN as usize) {
                        acc = eval_flt(Opcode::FAdd, acc, a[l]);
                    }
                    cpu.write(dst()?, Value::F(acc), t + lat).map_err(malformed)?;
                }
                Opcode::VLoad => {
                    let d = dst()?;
                    let addr = cpu.address(inst).map_err(malformed)?;
                    let mut out = [0.0; MAX_VLEN as usize];
                    // Each lane is a full per-word access so MemStats count
                    // every element; the widest miss delays the whole result.
                    let mut extra = 0u64;
                    for l in 0..(inst.lanes as usize).min(MAX_VLEN as usize) {
                        let a = addr.wrapping_add(l as i64);
                        let bits = if a >= 0 && (a as usize) < cpu.mem.len() {
                            cpu.mem[a as usize]
                        } else {
                            0
                        };
                        out[l] = f64::from_bits(bits);
                        extra = extra.max(memsys.access(Access::Load, a as u64));
                    }
                    cpu.write_vec(d, out, t + lat + extra).map_err(malformed)?;
                }
                Opcode::VStore => {
                    let addr = cpu.address(inst).map_err(malformed)?;
                    let val = cpu.vec_operand(inst.src[2]).map_err(malformed)?;
                    let mut extra = 0u64;
                    for l in 0..(inst.lanes as usize).min(MAX_VLEN as usize) {
                        let a = addr.wrapping_add(l as i64);
                        if a >= 0 && (a as usize) < cpu.mem.len() {
                            cpu.mem[a as usize] = val[l].to_bits();
                        }
                        extra = extra.max(memsys.access(Access::Store, a as u64));
                    }
                    let tag = mem_tag()?;
                    cpu.record_store(tag, t);
                    if extra > 0 {
                        cursor = t + extra;
                        slots = 0;
                        branch_slots = 0;
                        fu_slots = [0; 5];
                    }
                }
                Opcode::Br(c) => {
                    let lhs = cpu.operand(inst.src[0]).map_err(malformed)?;
                    let rhs = cpu.operand(inst.src[1]).map_err(malformed)?;
                    let taken = match (lhs, rhs) {
                        (Value::I(a), Value::I(b)) => c.eval(a, b),
                        (Value::F(a), Value::F(b)) => c.eval(a, b),
                        _ => return Err(malformed("mixed-class branch comparison")),
                    };
                    {
                        let e = &mut br_counts[br_off[cur.0 as usize] + inst_idx];
                        e.0 += 1;
                        if taken {
                            e.1 += 1;
                        }
                    }
                    if taken {
                        cur = target()?;
                        cursor = t + lat;
                        slots = 0;
                        branch_slots = 0;
                        fu_slots = [0; 5];
                        continue 'blocks;
                    }
                }
                Opcode::Jump => {
                    cur = target()?;
                    cursor = t + lat;
                    slots = 0;
                    branch_slots = 0;
                    fu_slots = [0; 5];
                    continue 'blocks;
                }
                Opcode::Halt => {
                    cpu.dyn_insts -= 1; // halt is not work
                    cpu.cycles = t + 1;
                    let mut branch_profile = HashMap::new();
                    for id in 0..nb {
                        let base = br_off[id];
                        for (idx, &(e, tk)) in
                            br_counts[base..br_off[id + 1]].iter().enumerate()
                        {
                            if e > 0 {
                                branch_profile.insert((id as u32, idx), (e, tk));
                            }
                        }
                    }
                    return Ok(SimResult {
                        cycles: cpu.cycles,
                        dyn_insts: cpu.dyn_insts,
                        memory: cpu.mem,
                        branch_profile,
                        mem: memsys.stats(),
                        replayed_insts: 0,
                        elided_insts: 0,
                    });
                }
                Opcode::Nop => unreachable!(),
            }
        }
        // Fall through to the next layout block.
        match f.fallthrough(cur) {
            Some(next) => cur = next,
            None => return Err(SimError::FellOffEnd(cur)),
        }
    }
}
