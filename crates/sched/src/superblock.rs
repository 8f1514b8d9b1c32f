//! Superblock formation.
//!
//! Superblock scheduling (Hwu et al.) schedules a *trace with a single entry
//! and multiple side exits* as one unit. After lowering and CFG
//! simplification, a loop body with conditionals has the shape
//!
//! ```text
//! H : [... br c0 → E0 ; <then0>]      ; triangle guard + update
//! E0: [... br c1 → E1 ; <then1>]
//! E1: [latch: iv update ; backedge]
//! ```
//!
//! where each rejoin block `E_p` is reached only from its predecessor (by
//! fall-through *and* by the guard branch). Formation proceeds bottom-up:
//! each rejoin block is merged into its predecessor, and the guard branch is
//! retargeted to a **tail duplicate** — a clone of the merged continuation
//! placed after the function body, ending with the back edge and an explicit
//! jump to the loop exit. The result is one superblock covering the entire
//! likely path, with side exits to the (cold) duplicates; this removes the
//! "side entrance" bookkeeping exactly as the superblock paper prescribes.

use ilpc_analysis::LoopForest;
use ilpc_ir::{BlockId, Function, Inst, Module, Opcode};

/// Configuration for superblock formation.
#[derive(Debug, Clone, Copy)]
pub struct SuperblockConfig {
    /// Cap on total instructions added by tail duplication per function.
    pub max_duplicated_insts: usize,
}

impl Default for SuperblockConfig {
    fn default() -> SuperblockConfig {
        SuperblockConfig { max_duplicated_insts: 4096 }
    }
}

/// Count of blocks merged during formation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperblockReport {
    pub merges: usize,
    pub duplicated_insts: usize,
}

/// Merge `x` (layout successor of `p`, reached only from `p`) into `p`.
///
/// Trace selection is probability-aware:
///
/// * If the guard `p → x` is *unlikely* taken (the fall-through path is
///   hot), the guard becomes a side exit to a **tail duplicate** of `x`.
/// * If the guard is *likely* taken (e.g. a rarely-true update skipped by
///   a 90 %-taken branch), the guard is **inverted**: the hot path falls
///   straight into `x`'s instructions, and the rarely-executed tail of `p`
///   moves to a cold block that re-executes a duplicate of `x` before
///   rejoining. This keeps the frequent path inside one superblock instead
///   of bouncing through duplicates every iteration.
fn merge_with_tail_dup(
    f: &mut Function,
    p: BlockId,
    x: BlockId,
    rep: &mut SuperblockReport,
) {
    // The duplicate: clone of x's instructions plus an explicit jump to x's
    // fall-through continuation (if x does not already end in a transfer).
    let mut x_dup: Vec<Inst> = f.block(x).insts.clone();
    if !f.block(x).ends_in_transfer() {
        let cont = f
            .fallthrough(x)
            .expect("mergeable block must have a continuation");
        x_dup.push(Inst::jump(cont));
    }

    // Likely-taken single conditional guard → invert the trace.
    let guards: Vec<usize> = f
        .block(p)
        .insts
        .iter()
        .enumerate()
        .filter(|(_, i)| i.target == Some(x))
        .map(|(k, _)| k)
        .collect();
    let invertible = guards.len() == 1 && {
        let g = &f.block(p).insts[guards[0]];
        matches!(g.op, Opcode::Br(_)) && g.prob > 0.5
    };

    if invertible {
        let gi = guards[0];
        // Cold block: the skipped tail of `p`, then the duplicate of `x`.
        let mut cold_insts: Vec<Inst> = f.block_mut(p).insts.split_off(gi + 1);
        cold_insts.extend(x_dup.iter().cloned());
        rep.duplicated_insts += cold_insts.len();
        let cold = f.add_block_detached(&format!("cold.{}", f.block(x).label));
        f.block_mut(cold).insts = cold_insts;
        f.layout.push(cold);
        // Invert the guard: fall through into `x`'s content when taken
        // before, jump to the cold path otherwise.
        let guard = f.block_mut(p).insts.last_mut().expect("guard");
        if let Opcode::Br(c) = guard.op {
            guard.op = Opcode::Br(c.negated());
            guard.prob = 1.0 - guard.prob;
            guard.target = Some(cold);
        }
        let moved = std::mem::take(&mut f.block_mut(x).insts);
        f.block_mut(p).insts.extend(moved);
        let pos = f.layout_pos(x).expect("x in layout");
        f.layout.remove(pos);
        rep.merges += 1;
        return;
    }

    rep.duplicated_insts += x_dup.len();
    let dup = f.add_block_detached(&format!("tail.{}", f.block(x).label));
    f.block_mut(dup).insts = x_dup;
    // Place the duplicate at the end of the layout (cold code).
    f.layout.push(dup);

    // Retarget branches p → x to the duplicate, then merge x into p.
    for inst in &mut f.block_mut(p).insts {
        if inst.target == Some(x) {
            inst.target = Some(dup);
        }
    }
    let moved = std::mem::take(&mut f.block_mut(x).insts);
    f.block_mut(p).insts.extend(moved);
    let pos = f.layout_pos(x).expect("x in layout");
    f.layout.remove(pos);
    rep.merges += 1;
}

/// Form superblocks in every loop of `m`.
pub fn form_superblocks(m: &mut Module, cfg: &SuperblockConfig) -> SuperblockReport {
    let mut rep = SuperblockReport::default();
    loop {
        let f = &mut m.func;
        let forest = LoopForest::compute(f);
        let preds = f.preds();

        // Find the latest mergeable (p, x) pair in layout order, so the
        // formation runs bottom-up and tail duplicates nest correctly.
        let mut pick: Option<(BlockId, BlockId)> = None;
        for lp in &forest.loops {
            for &x in &lp.blocks {
                if x == lp.header {
                    continue;
                }
                let Some(xpos) = f.layout_pos(x) else { continue };
                if xpos == 0 {
                    continue;
                }
                let p = f.layout[xpos - 1];
                if !lp.contains(p) {
                    continue;
                }
                // x reached only from p (fall-through and/or p's branches):
                // `preds` holds every branch target of a layout block, so
                // no other block's branch targets x.
                let xpreds = &preds[x.0 as usize];
                if !(xpreds.len() == 1 && xpreds[0] == p) {
                    continue;
                }
                if f.block(p).ends_in_transfer() {
                    continue;
                }
                // The continuation after x must be out-of-loop or x must end
                // in a transfer, so the tail duplicate's continuation jump
                // leaves the duplicated region.
                let ok_cont = f.block(x).ends_in_transfer()
                    || f.fallthrough(x).is_some_and(|c| !lp.contains(c));
                if !ok_cont {
                    continue;
                }
                if pick.is_none_or(|(_, px)| {
                    f.layout_pos(px).unwrap_or(0) < xpos
                }) {
                    pick = Some((p, x));
                }
            }
        }

        let Some((p, x)) = pick else { break };
        if rep.duplicated_insts + f.block(x).insts.len() + 1
            > cfg.max_duplicated_insts
        {
            break;
        }
        merge_with_tail_dup(f, p, x, &mut rep);
    }
    debug_assert!(
        ilpc_ir::verify::verify_module(m).is_ok(),
        "superblock formation broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::MemLoc;
    use ilpc_ir::{Cond, Operand, RegClass};

    /// 2×-unrolled guarded-update loop (maxval shape).
    fn guarded_loop() -> (Module, BlockId, BlockId) {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let x0 = f.new_reg(RegClass::Flt);
        let x1 = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let h = f.add_block("h");
        let e0 = f.add_block("e0");
        let e1 = f.add_block("e1");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(-1e300)),
        ]);
        f.block_mut(h).insts.extend([
            Inst::load(x0, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::br(Cond::Le, x0.into(), s.into(), e0),
            Inst::mov(s, x0.into()),
        ]);
        f.block_mut(e0).insts.extend([
            Inst::load(x1, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 1)),
            Inst::br(Cond::Le, x1.into(), s.into(), e1),
            Inst::mov(s, x1.into()),
        ]);
        f.block_mut(e1).insts.extend([
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(2)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(8), h),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        (m, h, exit)
    }

    #[test]
    fn forms_single_superblock_with_tail_duplicates() {
        let (mut m, h, exit) = guarded_loop();
        let rep = form_superblocks(&mut m, &SuperblockConfig::default());
        assert_eq!(rep.merges, 2);
        let f = &m.func;
        // The hot path is one block: loads, guards, movs, latch, backedge.
        let insts = &f.block(h).insts;
        assert_eq!(insts.len(), 8, "{insts:#?}");
        assert!(insts.last().unwrap().op.is_branch());
        // Side exits now target tail duplicates, not the old rejoins.
        let side_targets: Vec<BlockId> = insts
            .iter()
            .filter(|i| i.op.is_branch() && i.target != Some(h))
            .map(|i| i.target.unwrap())
            .collect();
        assert_eq!(side_targets.len(), 2);
        for t in &side_targets {
            assert!(f.block(*t).label.starts_with("tail."));
        }
        // Duplicates end with a control transfer (backedge + jump exit).
        for t in side_targets {
            let d = f.block(t);
            assert!(d.ends_in_transfer() || d.insts.last().unwrap().op.is_branch());
        }
        // The hot block falls through to the exit.
        assert_eq!(f.fallthrough(h), Some(exit));
    }

    #[test]
    fn duplication_budget_respected() {
        let (mut m, _, _) = guarded_loop();
        let rep = form_superblocks(
            &mut m,
            &SuperblockConfig { max_duplicated_insts: 3 },
        );
        // First merge would duplicate 2-3 instructions; budget limits total.
        assert!(rep.duplicated_insts <= 3);
    }
}
