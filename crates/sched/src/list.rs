//! List scheduling of (super)blocks.
//!
//! Standard cycle-driven list scheduling over the dependence DAG of
//! `ilpc-analysis::deps`, with critical-path priority. The scheduler models
//! the same machine constraints the simulator enforces (issue width, one
//! branch slot per cycle, RAW/WAW/memory delays), so the issue times it
//! predicts are the times the execution-driven simulation realizes on the
//! fall-through path.
//!
//! Scheduling a block is two steps, split where the issue width is first
//! read. [`BlockDag::build`] computes the dependence edges and
//! critical-path heights; it reads only the latency table and
//! `nonexcepting_loads`, so one DAG serves every issue width, FU limit and
//! branch-slot count. [`place`] does the cycle-driven placement for one
//! machine. [`schedule_insts`] and [`schedule_module`] are "build, then
//! place", one block at a time; [`block_dags`] and [`place_module`] are the
//! same two steps with the DAGs kept, for a caller that places one module
//! for several machines.
//!
//! Speculation policy: an instruction may be hoisted above an earlier
//! branch (or sunk below it) iff it has no side effects, is non-excepting
//! under the machine (loads), and its destination is not live into the
//! branch target.

use ilpc_analysis::{build_block_deps, Liveness, RegSet};
use ilpc_ir::{BlockId, Inst, Module};
use ilpc_machine::{fu_kind, FuKind, Machine};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The width-independent half of scheduling one block: its dependence DAG
/// (in successor-list form) and each node's critical-path height.
#[derive(Debug, Clone)]
pub struct BlockDag {
    /// Incoming edges per node.
    pred_counts: Vec<u32>,
    /// Node `i`'s outgoing edges are `succs[succ_start[i]..succ_start[i + 1]]`,
    /// each `(to, min_delay)`.
    succ_start: Vec<u32>,
    succs: Vec<(u32, u32)>,
    height: Vec<u32>,
}

impl BlockDag {
    /// Build the DAG of `insts` under `machine`'s latency table and load
    /// speculativity (nothing else of the machine is read). `live_in`
    /// answers the speculation policy's question "what is live into this
    /// branch target?".
    pub fn build<'a>(
        insts: &[Inst],
        machine: &Machine,
        live_in: &dyn Fn(BlockId) -> &'a RegSet,
    ) -> BlockDag {
        let lat = |i: &Inst| machine.latency.of(i);
        let can_cross = |branch: &Inst, later: &Inst| -> bool {
            if !later.can_speculate(machine.nonexcepting_loads) {
                return false;
            }
            match (later.def(), branch.target) {
                (Some(d), Some(t)) => !live_in(t).contains(d),
                _ => true,
            }
        };
        let g = build_block_deps(insts, &lat, &can_cross);
        let height = g.critical_path(|i| lat(&insts[i]));
        let mut succ_start = Vec::with_capacity(g.n + 1);
        let mut succs = Vec::with_capacity(g.edges.len());
        succ_start.push(0);
        for out in &g.succs {
            succs.extend(out.iter().map(|&e| (g.edges[e].to as u32, g.edges[e].min_delay)));
            succ_start.push(succs.len() as u32);
        }
        let pred_counts = g.preds.iter().map(|p| p.len() as u32).collect();
        BlockDag { pred_counts, succ_start, succs, height }
    }

    /// Number of incoming edges of node `i`.
    pub fn num_preds(&self, i: usize) -> usize {
        self.pred_counts[i] as usize
    }

    /// Outgoing edges of node `i`, as `(to, min_delay)`.
    pub fn succs(&self, i: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let span = self.succ_start[i] as usize..self.succ_start[i + 1] as usize;
        self.succs[span].iter().map(|&(to, delay)| (to as usize, delay))
    }

    /// Critical-path height of every node: the list-scheduling priority.
    pub fn heights(&self) -> &[u32] {
        &self.height
    }
}

/// Slot counter of an instruction's functional-unit class (`None` for the
/// branch class, which the branch-slot limit covers).
fn fu_index(k: FuKind) -> Option<usize> {
    match k {
        FuKind::IntAlu => Some(0),
        FuKind::IntMulDiv => Some(1),
        FuKind::Fp => Some(2),
        FuKind::Mem => Some(3),
        FuKind::Vec => Some(4),
        FuKind::Branch => None,
    }
}

/// Place the instructions of one block for `machine`, cycle by cycle, over
/// its DAG (built from the same `insts`).
///
/// Each pick takes the highest node that may issue this cycle, ties going
/// to the lower program index. Candidates are kept in two queues, so no pick
/// and no cycle advance rescans the block: `ready` (every predecessor
/// placed and the earliest start reached) in pick order, and `waiting`
/// (every predecessor placed, earliest start still ahead) by earliest start.
pub fn place(insts: &[Inst], dag: &BlockDag, machine: &Machine) -> BlockSchedule {
    let n = insts.len();
    debug_assert_eq!(dag.height.len(), n, "a DAG of another block");
    // Guard against degenerate machines built by hand (pub fields): a
    // 0-wide machine would never issue anything and loop forever.
    let issue_width = machine.issue_width.max(1);
    let branch_slots = machine.branch_slots.max(1);
    let is_branch: Vec<bool> = insts.iter().map(|i| i.op.is_branch()).collect();
    let fu: Vec<Option<usize>> = insts.iter().map(|i| fu_index(fu_kind(i))).collect();
    let fu_limit = [FuKind::IntAlu, FuKind::IntMulDiv, FuKind::Fp, FuKind::Mem, FuKind::Vec]
        .map(|k| machine.fu.of(k));
    let height = dag.heights();
    // Pick order: critical path first; ties broken by program order (keeps
    // memory order edges' same-cycle sequencing).
    let rank = |i: usize| (Reverse(height[i]), i);
    let enqueue = |ready: &mut Vec<usize>, i: usize| {
        let at = ready.partition_point(|&j| rank(j) < rank(i));
        ready.insert(at, i);
    };

    let mut time = vec![0u32; n];
    let mut preds_left = dag.pred_counts.clone();
    let mut earliest = vec![0u32; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| preds_left[i] == 0).collect();
    ready.sort_unstable_by_key(|&i| rank(i));
    let mut waiting: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();

    let mut cycle: u32 = 0;
    let mut slots_used: u32 = 0;
    let mut branches_used: u32 = 0;
    // Per-functional-unit slot accounting (restricted machine models).
    let mut fu_used = [0u32; 5]; // IntAlu, IntMulDiv, Fp, Mem, Vec

    while order.len() < n {
        let pick = if slots_used < issue_width {
            ready.iter().position(|&i| {
                !(is_branch[i] && branches_used >= branch_slots)
                    && fu[i].is_none_or(|f| fu_used[f] < fu_limit[f])
            })
        } else {
            None
        };
        match pick {
            Some(at) => {
                let i = ready.remove(at);
                time[i] = cycle;
                order.push(i);
                slots_used += 1;
                if is_branch[i] {
                    branches_used += 1;
                }
                if let Some(f) = fu[i] {
                    fu_used[f] += 1;
                }
                for (to, delay) in dag.succs(i) {
                    preds_left[to] -= 1;
                    earliest[to] = earliest[to].max(cycle + delay);
                    if preds_left[to] == 0 {
                        if earliest[to] <= cycle {
                            enqueue(&mut ready, to);
                        } else {
                            waiting.push(Reverse((earliest[to], to)));
                        }
                    }
                }
            }
            None => {
                // Advance to the next cycle with something to do.
                cycle = match waiting.peek() {
                    Some(&Reverse((start, _))) if ready.is_empty() => start.max(cycle + 1),
                    _ => cycle + 1,
                };
                while let Some(&Reverse((start, i))) = waiting.peek() {
                    if start > cycle {
                        break;
                    }
                    waiting.pop();
                    enqueue(&mut ready, i);
                }
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

/// Schedule the instructions of one block for `machine`: build its DAG,
/// then place it.
pub fn schedule_insts(
    insts: &[Inst],
    machine: &Machine,
    live_in_target: &dyn Fn(BlockId) -> RegSet,
) -> BlockSchedule {
    // Ask once per distinct branch target, then lend the sets to the DAG.
    let mut targets: Vec<(BlockId, RegSet)> = Vec::new();
    for t in insts.iter().filter_map(|i| i.target) {
        if !targets.iter().any(|&(b, _)| b == t) {
            targets.push((t, live_in_target(t)));
        }
    }
    let live_in =
        |t: BlockId| &targets.iter().find(|&&(b, _)| b == t).expect("every target looked up").1;
    place(insts, &BlockDag::build(insts, machine, &live_in), machine)
}

/// Schedule every block of `m` in place; returns per-block schedules
/// (indexed by `BlockId.0`). Each block's DAG is built, placed and dropped
/// in turn.
pub fn schedule_module(m: &mut Module, machine: &Machine) -> Vec<Option<BlockSchedule>> {
    let lv = Liveness::compute(&m.func);
    place_blocks(m, machine, |_, insts| BlockDag::build(insts, machine, &|t| lv.live_in(t)))
}

/// The DAG of every laid-out block of `m` (indexed by `BlockId.0`), for
/// [`place_module`] to place under any machine with `machine`'s latency
/// table and load speculativity.
pub fn block_dags(m: &Module, machine: &Machine) -> Vec<Option<BlockDag>> {
    let lv = Liveness::compute(&m.func);
    let mut dags = vec![None; m.func.num_blocks()];
    for &b in m.func.layout_order() {
        let insts = &m.func.block(b).insts;
        dags[b.0 as usize] = Some(BlockDag::build(insts, machine, &|t| lv.live_in(t)));
    }
    dags
}

/// [`schedule_module`] over DAGs [`block_dags`] built from this same
/// module: equal to it for any machine whose latency table and load
/// speculativity are the DAGs'.
pub fn place_module(
    m: &mut Module,
    dags: &[Option<BlockDag>],
    machine: &Machine,
) -> Vec<Option<BlockSchedule>> {
    place_blocks(m, machine, |b, _| {
        dags[b.0 as usize].as_ref().expect("a DAG for every laid-out block")
    })
}

/// Place every laid-out block of `m` over the DAG `dag_of` gives for it,
/// writing the new order back.
fn place_blocks<D: Borrow<BlockDag>>(
    m: &mut Module,
    machine: &Machine,
    mut dag_of: impl FnMut(BlockId, &[Inst]) -> D,
) -> Vec<Option<BlockSchedule>> {
    let mut out: Vec<Option<BlockSchedule>> = vec![None; m.func.num_blocks()];
    let blocks: Vec<BlockId> = m.func.layout_order().to_vec();
    for b in blocks {
        let insts = std::mem::take(&mut m.func.block_mut(b).insts);
        let sched = place(&insts, dag_of(b, &insts).borrow(), machine);
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

    /// Equal heights go to the lower program index, however late the lower
    /// index became ready: node 1 waits on node 0 while nodes 2 and 3 are
    /// ready from the start, yet it issues before both once it is ready.
    #[test]
    fn equal_heights_issue_in_program_order() {
        let r: Vec<Reg> = (0..4).map(Reg::int).collect();
        let body = vec![
            Inst::mov(r[0], Operand::ImmI(1)),
            Inst::alu(Opcode::Add, r[1], r[0].into(), Operand::ImmI(1)),
            Inst::mov(r[2], Operand::ImmI(2)),
            Inst::mov(r[3], Operand::ImmI(3)),
        ];
        let lv = ilpc_analysis::RegSet::new();
        let dag = BlockDag::build(&body, &Machine::issue(1), &|_| &lv);
        assert_eq!(dag.heights(), [2, 1, 1, 1]);
        let s = place(&body, &dag, &Machine::issue(1));
        assert_eq!(s.perm, vec![0, 1, 2, 3]);
        assert_eq!(s.times, vec![0, 1, 2, 3]);
        assert_eq!(s, schedule_insts(&body, &Machine::issue(1), &live_none));
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
