//! Search variable expansion.
//!
//! "Within an unrolled loop body, the chain of flow dependences between
//! successive tests and updates of a search variable often defines a
//! critical path. [...] search variable expansion eliminates this chain by
//! creating k temporary search variables. [...] When the loop is exited,
//! the value of the original search variable is obtained by comparing the
//! values of all temporary search variables."
//!
//! After unrolling and CFG simplification, each body copy's conditional
//! update appears as a *guarded move*:
//!
//! ```text
//! br c (x_p, s) NEXT_p      ; skip the update (e.g. ble x, s for a max)
//! s = x_p                   ; last instruction, falls into NEXT_p
//! ```
//!
//! The transformation gives copy `p` its own search register `t_p` (seeded
//! with `s`), and rebuilds `s = best(t_1..t_k)` with a chain of guarded
//! moves at the loop exit.

use ilpc_analysis::{Liveness, Loop, LoopForest};
use ilpc_ir::{BlockId, Cond, Function, Inst, Module, Opcode, Reg};

/// One detected guarded update of the search variable.
#[derive(Debug, Clone)]
struct Update {
    block: BlockId,
    /// Index of the guard branch (the mov is at `guard + 1`).
    guard: usize,
    /// Guard condition (branch taken ⇒ update skipped).
    cond: Cond,
    /// Which guard operand slot holds the search variable.
    s_slot: usize,
}

/// Try to detect the guarded-update pattern for carried register `s`.
/// Returns the updates in linear (layout) order, or `None` if any def/use
/// of `s` in the loop falls outside the pattern.
fn detect_updates(f: &Function, lp: &Loop, s: Reg) -> Option<Vec<Update>> {
    // Loop blocks in layout order.
    let mut blocks: Vec<BlockId> = lp.blocks.clone();
    blocks.sort_by_key(|b| f.layout_pos(*b).unwrap_or(usize::MAX));

    let mut updates = Vec::new();
    for &b in &blocks {
        let insts = &f.block(b).insts;
        for (idx, inst) in insts.iter().enumerate() {
            if inst.def() != Some(s) {
                continue;
            }
            // Must be a mov guarded by the immediately preceding branch.
            if inst.op != Opcode::Mov || idx == 0 {
                return None;
            }
            let guard = &insts[idx - 1];
            let Opcode::Br(cond) = guard.op else { return None };
            // The guard must jump over exactly this mov: the mov is the
            // block's last instruction and the guard targets the layout
            // successor.
            if idx != insts.len() - 1 {
                return None;
            }
            if guard.target != f.fallthrough(b) {
                return None;
            }
            // Guard compares s against the moved value.
            let x = inst.src[0];
            let s_slot = if guard.src[0].reg() == Some(s) && guard.src[1] == x {
                0
            } else if guard.src[1].reg() == Some(s) && guard.src[0] == x {
                1
            } else {
                return None;
            };
            updates.push(Update { block: b, guard: idx - 1, cond, s_slot });
        }
    }
    if updates.len() < 2 {
        return None;
    }
    // Every use of s in the loop must be inside an identified guard or the
    // value moved by an update (the guards read s; the movs read x).
    for &b in &blocks {
        for (idx, inst) in f.block(b).insts.iter().enumerate() {
            if inst.uses().all(|u| u != s) {
                continue;
            }
            let sanctioned = updates
                .iter()
                .any(|u| u.block == b && (idx == u.guard || idx == u.guard + 1));
            if !sanctioned {
                return None;
            }
        }
    }
    Some(updates)
}

/// Expand one search variable; assumes `detect_updates` succeeded.
///
/// `reduction_entry` is where control currently flows after the loop
/// (initially the loop exit; after a previous expansion, that chain's first
/// reduction block). The new chain is spliced *in front of* it so multiple
/// expanded search variables in one loop each get their reduction executed.
fn expand(
    f: &mut Function,
    lp: &Loop,
    s: Reg,
    updates: &[Update],
    reduction_entry: &mut BlockId,
) {
    let k = updates.len();
    let temps: Vec<Reg> = (0..k).map(|_| f.new_reg(s.class)).collect();

    // Preheader: every temp starts at the incoming search value.
    let ph = lp.preheader(f).expect("checked by caller");
    let at = f.block(ph).insert_point();
    for (p, &t) in temps.iter().enumerate() {
        f.block_mut(ph).insts.insert(at + p, Inst::mov(t, s.into()));
    }

    // Rewrite update p to use its own temp: the guard compare and the mov.
    for (p, u) in updates.iter().enumerate() {
        let insts = &mut f.block_mut(u.block).insts;
        insts[u.guard].src[u.s_slot] = temps[p].into();
        insts[u.guard + 1].dst = Some(temps[p]);
    }

    // Exit reduction: a chain of guarded moves folding temps into s.
    // G_p: br cond(t_p ? s) -> G_{p+1}; s = t_p
    let cont = *reduction_entry;
    let cont_pos = f.layout_pos(cont).expect("continuation in layout");
    let g_blocks: Vec<BlockId> = (0..k)
        .map(|p| f.add_block_detached(&format!("search.red{p}")))
        .collect();
    for (p, &g) in g_blocks.iter().enumerate() {
        let next = if p + 1 < k { g_blocks[p + 1] } else { cont };
        let u = &updates[p];
        let mut br = Inst::new(Opcode::Br(u.cond));
        br.src[u.s_slot] = s.into();
        br.src[1 - u.s_slot] = temps[p].into();
        br.target = Some(next);
        br.prob = 0.5;
        f.block_mut(g).insts.push(br);
        f.block_mut(g).insts.push(Inst::mov(s, temps[p].into()));
    }
    for (p, &g) in g_blocks.iter().enumerate() {
        f.layout.insert(cont_pos + p, g);
    }
    *reduction_entry = g_blocks[0];
}

/// Apply search variable expansion to every inner loop of `m`.
/// Returns the number of variables expanded.
pub fn search_expand(m: &mut Module) -> usize {
    let forest = LoopForest::compute(&m.func);
    let inner: Vec<Loop> = forest.inner_loops().into_iter().cloned().collect();
    let mut count = 0;
    for lp in &inner {
        if lp.preheader(&m.func).is_none() || lp.exits.len() != 1 {
            continue;
        }
        let lv = Liveness::compute(&m.func);
        // Candidate carried registers: live into the header and defined
        // in the loop.
        let mut cands: Vec<Reg> = lv.live_in(lp.header).iter().collect();
        cands.retain(|r| {
            lp.blocks.iter().any(|&b| {
                m.func.block(b).insts.iter().any(|i| i.def() == Some(*r))
            })
        });
        let mut reduction_entry = lp.exits[0];
        for s in cands {
            if let Some(updates) = detect_updates(&m.func, lp, s) {
                expand(&mut m.func, lp, s, &updates, &mut reduction_entry);
                count += 1;
            }
        }
    }
    debug_assert!(
        ilpc_ir::verify::verify_module(m).is_ok(),
        "search expansion broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::MemLoc;
    use ilpc_ir::{Operand, RegClass};

    /// 2×-unrolled max search with guarded moves:
    /// body0: [ld x0; ble x0,s -> B1; s = x0]  B1: [ld x1; ble x1,s -> L;
    /// s = x1]  L: [i += 2; blt i,8 -> body0]  exit.
    fn maxval_module() -> (Module, Vec<BlockId>, Reg) {
        let mut m = Module::new("maxval");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let x0 = f.new_reg(RegClass::Flt);
        let x1 = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let b0 = f.add_block("body0");
        let b1 = f.add_block("body1");
        let latch = f.add_block("latch");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(f64::MIN)),
        ]);
        f.block_mut(b0).insts.extend([
            Inst::load(x0, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::br(Cond::Le, x0.into(), s.into(), b1),
            Inst::mov(s, x0.into()),
        ]);
        f.block_mut(b1).insts.extend([
            Inst::load(x1, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 1)),
            Inst::br(Cond::Le, x1.into(), s.into(), latch),
            Inst::mov(s, x1.into()),
        ]);
        f.block_mut(latch).insts.extend([
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(2)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(8), b0),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        (m, vec![b0, b1, latch, exit], s)
    }

    #[test]
    fn expands_guarded_max_updates() {
        let (mut m, blocks, s) = maxval_module();
        assert_eq!(search_expand(&mut m), 1);
        let f = &m.func;
        let (b0, b1, _latch, exit) = (blocks[0], blocks[1], blocks[2], blocks[3]);
        // The two updates now write distinct temps and compare against them.
        let g0 = &f.block(b0).insts[1];
        let g1 = &f.block(b1).insts[1];
        let t0 = f.block(b0).insts[2].dst.unwrap();
        let t1 = f.block(b1).insts[2].dst.unwrap();
        assert_ne!(t0, t1);
        assert_ne!(t0, s);
        assert_eq!(g0.src[1].reg(), Some(t0));
        assert_eq!(g1.src[1].reg(), Some(t1));
        // Reduction blocks precede the exit in layout and rebuild s.
        let exit_pos = f.layout_pos(exit).unwrap();
        let red1 = f.layout_order()[exit_pos - 1];
        let red0 = f.layout_order()[exit_pos - 2];
        assert!(f.block(red0).insts[0].op.is_branch());
        assert_eq!(f.block(red0).insts[1].dst, Some(s));
        assert_eq!(f.block(red1).insts[1].dst, Some(s));
        // Preheader seeds both temps with s.
        let seeds = f
            .block(f.entry())
            .insts
            .iter()
            .filter(|i| i.op == Opcode::Mov && i.src[0].reg() == Some(s))
            .count();
        assert_eq!(seeds, 2);
        ilpc_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_unguarded_definition() {
        // s also assigned unconditionally -> not a search variable.
        let (mut m, blocks, s) = maxval_module();
        let latch = blocks[2];
        m.func
            .block_mut(latch)
            .insts
            .insert(0, Inst::mov(s, Operand::ImmF(0.0)));
        assert_eq!(search_expand(&mut m), 0);
    }
}
