//! List scheduling of (super)blocks.
//!
//! Standard cycle-driven list scheduling over the dependence DAG of
//! `ilpc-analysis::deps`, with critical-path priority. The scheduler models
//! the same machine constraints the simulator enforces (issue width, one
//! branch slot per cycle, RAW/WAW/memory delays), so the issue times it
//! predicts are the times the execution-driven simulation realizes on the
//! fall-through path.
//!
//! Speculation policy: an instruction may be hoisted above an earlier
//! branch (or sunk below it) iff it has no side effects, is non-excepting
//! under the machine (loads), and its destination is not live into the
//! branch target.

use ilpc_analysis::{build_block_deps, DepGraph, Liveness};
use ilpc_ir::{BlockId, Inst, Module};
use ilpc_machine::{fu_kind, FuKind, Machine};

/// Result of scheduling one block: the new instruction order plus the issue
/// time of each instruction (parallel arrays).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSchedule {
    pub insts: Vec<Inst>,
    pub times: Vec<u32>,
    /// For each scheduled position, the index of that instruction in the
    /// original program order (used by the schedule validator).
    pub perm: Vec<usize>,
}

impl BlockSchedule {
    /// Schedule length in cycles (last issue + 1).
    pub fn length(&self) -> u32 {
        self.times.last().map_or(0, |t| t + 1)
    }

    /// Block completion time: `max(issue + latency)` over all instructions.
    /// This is the paper's per-body "cycles / N iterations" metric for the
    /// worked examples of §2 (e.g. Figure 3b's 8 cycles are the issue-5
    /// accumulate plus its 3-cycle FP latency).
    pub fn completion(&self, machine: &Machine) -> u32 {
        self.insts
            .iter()
            .zip(&self.times)
            .map(|(i, t)| t + machine.latency.of(i))
            .max()
            .unwrap_or(0)
    }
}

/// Schedule the instructions of one block for `machine`.
pub fn schedule_insts(
    insts: &[Inst],
    machine: &Machine,
    live_in_target: &dyn Fn(BlockId) -> ilpc_analysis::RegSet,
) -> BlockSchedule {
    let lat = |i: &Inst| machine.latency.of(i);
    let can_cross = |branch: &Inst, later: &Inst| -> bool {
        if !later.can_speculate(machine.nonexcepting_loads) {
            return false;
        }
        match (later.def(), branch.target) {
            (Some(d), Some(t)) => !live_in_target(t).contains(d),
            _ => true,
        }
    };
    let g: DepGraph = build_block_deps(insts, &lat, &can_cross);
    let height = g.critical_path(|i| lat(&insts[i]));
    // Guard against degenerate machines built by hand (pub fields): a
    // 0-wide machine would never issue anything and loop forever.
    let issue_width = machine.issue_width.max(1);
    let branch_slots = machine.branch_slots.max(1);

    let n = insts.len();
    let mut time = vec![0u32; n];
    let mut done = vec![false; n];
    let mut preds_left: Vec<usize> = (0..n).map(|i| g.preds[i].len()).collect();
    let mut earliest = vec![0u32; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);

    let mut cycle: u32 = 0;
    let mut slots_used: u32 = 0;
    let mut branches_used: u32 = 0;
    // Per-functional-unit slot accounting (restricted machine models).
    let mut fu_used = [0u32; 5]; // IntAlu, IntMulDiv, Fp, Mem, Vec
    let fu_index = |k: FuKind| match k {
        FuKind::IntAlu => Some(0),
        FuKind::IntMulDiv => Some(1),
        FuKind::Fp => Some(2),
        FuKind::Mem => Some(3),
        FuKind::Vec => Some(4),
        FuKind::Branch => None,
    };
    let mut scheduled = 0usize;

    while scheduled < n {
        // Ready nodes: all predecessors scheduled and earliest <= cycle.
        let mut best: Option<usize> = None;
        for i in 0..n {
            if done[i] || preds_left[i] != 0 || earliest[i] > cycle {
                continue;
            }
            if insts[i].op.is_branch() && branches_used >= branch_slots {
                continue;
            }
            let kind = fu_kind(&insts[i]);
            if let Some(fi) = fu_index(kind) {
                if fu_used[fi] >= machine.fu.of(kind) {
                    continue;
                }
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    // Critical path first; ties broken by program order
                    // (keeps memory order edges' same-cycle sequencing).
                    if height[i] > height[b] {
                        best = Some(i);
                    }
                }
            }
        }
        match best {
            Some(i) if slots_used < issue_width => {
                done[i] = true;
                time[i] = cycle;
                order.push(i);
                scheduled += 1;
                slots_used += 1;
                if insts[i].op.is_branch() {
                    branches_used += 1;
                }
                if let Some(fi) = fu_index(fu_kind(&insts[i])) {
                    fu_used[fi] += 1;
                }
                for &e in &g.succs[i] {
                    let d = &g.edges[e];
                    preds_left[d.to] -= 1;
                    earliest[d.to] = earliest[d.to].max(cycle + d.min_delay);
                }
            }
            _ => {
                // Advance to the next cycle with something to do.
                let next = (0..n)
                    .filter(|&i| !done[i] && preds_left[i] == 0)
                    .map(|i| earliest[i])
                    .min()
                    .unwrap_or(cycle + 1)
                    .max(cycle + 1);
                cycle = next;
                slots_used = 0;
                branches_used = 0;
                fu_used = [0; 5];
            }
        }
    }

    BlockSchedule {
        insts: order.iter().map(|&i| insts[i].clone()).collect(),
        times: order.iter().map(|&i| time[i]).collect(),
        perm: order,
    }
}

/// Schedule every block of `m` in place; returns per-block schedules
/// (indexed by `BlockId.0`).
pub fn schedule_module(m: &mut Module, machine: &Machine) -> Vec<Option<BlockSchedule>> {
    let lv = Liveness::compute(&m.func);
    let mut out: Vec<Option<BlockSchedule>> = vec![None; m.func.num_blocks()];
    let blocks: Vec<BlockId> = m.func.layout_order().to_vec();
    for b in blocks {
        let insts = m.func.block(b).insts.clone();
        let sched = schedule_insts(&insts, machine, &|t: BlockId| {
            lv.live_in(t).clone()
        });
        m.func.block_mut(b).insts = sched.insts.clone();
        out[b.0 as usize] = Some(sched);
    }
    debug_assert!(
        ilpc_ir::verify::verify_module(m).is_ok(),
        "scheduling broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::MemLoc;
    use ilpc_ir::{Cond, Opcode, Operand, Reg, SymId};

    fn live_none(_: BlockId) -> ilpc_analysis::RegSet {
        ilpc_analysis::RegSet::new()
    }

    /// The paper's Figure 1b body on an unlimited machine: 7 cycles.
    #[test]
    fn fig1b_is_seven_cycles() {
        let a = SymId(0);
        let b = SymId(1);
        let c = SymId(2);
        let r1 = Reg::int(1);
        let r5 = Reg::int(5);
        let r2 = Reg::flt(2);
        let r3 = Reg::flt(3);
        let r4 = Reg::flt(4);
        let body = vec![
            Inst::load(r2, Operand::Sym(a), r1.into(), MemLoc::affine(a, 1, 0)),
            Inst::load(r3, Operand::Sym(b), r1.into(), MemLoc::affine(b, 1, 0)),
            Inst::alu(Opcode::FAdd, r4, r2.into(), r3.into()),
            Inst::store(Operand::Sym(c), r1.into(), r4.into(), MemLoc::affine(c, 1, 0)),
            Inst::alu(Opcode::Add, r1, r1.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, r1.into(), r5.into(), BlockId(0)),
        ];
        let s = schedule_insts(&body, &Machine::unlimited(), &live_none);
        // Issue times: loads 0, fadd 2, store 5, add 5, blt 6 → length 7.
        assert_eq!(s.length(), 7, "times: {:?}", s.times);
    }

    /// Issue-width limits force serialization.
    #[test]
    fn issue_width_one_serializes() {
        let r: Vec<Reg> = (0..4).map(Reg::int).collect();
        let body: Vec<Inst> = (0..4)
            .map(|i| Inst::mov(r[i], Operand::ImmI(i as i64)))
            .chain([Inst::halt()])
            .collect();
        let s = schedule_insts(&body, &Machine::issue(1), &live_none);
        assert_eq!(s.times, vec![0, 1, 2, 3, 4]);
        let s = schedule_insts(&body, &Machine::issue(4), &live_none);
        assert_eq!(s.times[..4], [0, 0, 0, 0]);
    }

    /// Memory-port limits serialize independent loads.
    #[test]
    fn fu_limits_restrict_memory_ports() {
        let a = SymId(0);
        let body: Vec<Inst> = (0..4)
            .map(|k| {
                Inst::load(
                    Reg::flt(k),
                    Operand::Sym(a),
                    Operand::ImmI(k as i64),
                    MemLoc::affine(a, 0, k as i64),
                )
            })
            .chain([Inst::halt()])
            .collect();
        let s = schedule_insts(&body, &Machine::issue(8), &live_none);
        assert_eq!(s.times[..4], [0, 0, 0, 0]);
        let m = Machine::issue(8).with_mem_ports(2);
        let s = schedule_insts(&body, &m, &live_none);
        assert_eq!(s.times[..4], [0, 0, 1, 1]);
        let m = Machine::issue(8).with_mem_ports(1);
        let s = schedule_insts(&body, &m, &live_none);
        assert_eq!(s.times[..4], [0, 1, 2, 3]);
    }

    /// Only one branch can issue per cycle.
    #[test]
    fn branch_slot_limit() {
        let body = vec![
            Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), BlockId(0)),
            Inst::br(Cond::Lt, Operand::ImmI(2), Operand::ImmI(1), BlockId(0)),
        ];
        let s = schedule_insts(&body, &Machine::issue(8), &live_none);
        assert_eq!(s.times, vec![0, 1]);
    }

    /// Speculation: loads may hoist above a branch when their target is not
    /// live at the branch target; stores never do.
    #[test]
    fn load_hoists_store_does_not() {
        let a = SymId(0);
        let v = Reg::flt(0);
        let body = vec![
            Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), BlockId(0)),
            Inst::load(v, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 0, 0)),
            Inst::store(Operand::Sym(a), Operand::ImmI(1), v.into(), MemLoc::affine(a, 0, 1)),
        ];
        let s = schedule_insts(&body, &Machine::issue(8), &live_none);
        // The load issues with (or before) the branch; order places it
        // by priority. The store waits for the load (flow) but also must
        // not precede the branch in linear order.
        let load_pos = s.insts.iter().position(|i| i.op == Opcode::Load).unwrap();
        let br_pos = s.insts.iter().position(|i| i.op.is_branch()).unwrap();
        let store_pos = s.insts.iter().position(|i| i.op == Opcode::Store).unwrap();
        assert!(load_pos < br_pos, "load speculated above branch");
        assert!(store_pos > br_pos, "store pinned after branch");
    }

    /// Same test with the destination live at the branch target: no hoist.
    #[test]
    fn no_speculation_when_dest_live_at_target() {
        let a = SymId(0);
        let v = Reg::flt(0);
        let body = vec![
            Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), BlockId(0)),
            Inst::load(v, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 0, 0)),
        ];
        let live = |_: BlockId| -> ilpc_analysis::RegSet {
            [v].into_iter().collect()
        };
        let s = schedule_insts(&body, &Machine::issue(8), &live);
        let load_pos = s.insts.iter().position(|i| i.op == Opcode::Load).unwrap();
        let br_pos = s.insts.iter().position(|i| i.op.is_branch()).unwrap();
        assert!(load_pos > br_pos);
    }

    /// Figure 1d: unrolled + renamed body schedules to 8 cycles.
    #[test]
    fn fig1d_is_eight_cycles() {
        let a = SymId(0);
        let bs = SymId(1);
        let c = SymId(2);
        // Registers: induction chain r11,r12,r13; per-body floats.
        let r11 = Reg::int(11);
        let r12 = Reg::int(12);
        let r13 = Reg::int(13);
        let r5 = Reg::int(5);
        let f = |i: u32| Reg::flt(i);
        let body = vec![
            Inst::load(f(21), Operand::Sym(a), r11.into(), MemLoc::affine(a, 1, 0)),
            Inst::load(f(31), Operand::Sym(bs), r11.into(), MemLoc::affine(bs, 1, 0)),
            Inst::alu(Opcode::FAdd, f(41), f(21).into(), f(31).into()),
            Inst::store(Operand::Sym(c), r11.into(), f(41).into(), MemLoc::affine(c, 1, 0)),
            Inst::alu(Opcode::Add, r12, r11.into(), Operand::ImmI(1)),
            Inst::load(f(22), Operand::Sym(a), r12.into(), MemLoc::affine(a, 1, 1)),
            Inst::load(f(32), Operand::Sym(bs), r12.into(), MemLoc::affine(bs, 1, 1)),
            Inst::alu(Opcode::FAdd, f(42), f(22).into(), f(32).into()),
            Inst::store(Operand::Sym(c), r12.into(), f(42).into(), MemLoc::affine(c, 1, 1)),
            Inst::alu(Opcode::Add, r13, r12.into(), Operand::ImmI(1)),
            Inst::load(f(23), Operand::Sym(a), r13.into(), MemLoc::affine(a, 1, 2)),
            Inst::load(f(33), Operand::Sym(bs), r13.into(), MemLoc::affine(bs, 1, 2)),
            Inst::alu(Opcode::FAdd, f(43), f(23).into(), f(33).into()),
            Inst::store(Operand::Sym(c), r13.into(), f(43).into(), MemLoc::affine(c, 1, 2)),
            Inst::alu(Opcode::Add, r11, r13.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, r11.into(), r5.into(), BlockId(0)),
        ];
        let s = schedule_insts(&body, &Machine::unlimited(), &live_none);
        // Paper: 8 cycles / 3 iterations.
        assert_eq!(s.length(), 8, "times: {:?}", s.times);
    }
}
