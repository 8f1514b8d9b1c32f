//! Induction variable expansion (paper Figure 4).
//!
//! "Induction variable expansion eliminates flow, anti, and output
//! dependences between definitions of induction variables and their uses
//! within an unrolled loop body by creating k temporary induction variables.
//! [...] the increments of each temporary induction variable are moved to
//! the end of the unrolled loop body."
//!
//! On the renamed chain `v1 = v0+m; v2 = v1+m; v0 = v2+m` this produces
//! exactly the paper's Figure 5d: the chain registers become `k`
//! *independent* induction variables initialized to `v0 + p·m` in the loop
//! preheader and all incremented by `k·m` right before the back edge.

use crate::chains::{find_chains, Chain, ChainKind};
use ilpc_analysis::{invariant_in, DefUse, Liveness, Loop, LoopForest};
use ilpc_ir::{BlockId, Function, Inst, Module, Opcode, Operand, Reg, RegClass};

/// Additional legality for induction expansion (paper Figure 4):
/// the increment is the same loop-invariant value in every link.
fn induct_conditions(f: &Function, lp: &Loop, c: &Chain) -> Option<Operand> {
    if c.kind != ChainKind::IntAdd {
        return None;
    }
    // All links must be `add` (no mixed sub) with one common increment.
    for &d in &c.defs {
        if f.block(c.block).insts[d].op != Opcode::Add {
            return None;
        }
    }
    let m0 = c.increments[0];
    if !c.increments.iter().all(|i| *i == m0) {
        return None;
    }
    match m0 {
        Operand::ImmI(_) => Some(m0),
        Operand::Reg(r) if invariant_in(f, &lp.blocks, r) => Some(m0),
        _ => None,
    }
}

/// Uses of `r` in `b` strictly after instruction `idx`, excluding branches.
fn nonbranch_uses_after(f: &Function, b: BlockId, idx: usize, r: Reg) -> usize {
    f.block(b).insts[idx + 1..]
        .iter()
        .filter(|i| !i.op.is_branch() && i.uses().any(|u| u == r))
        .count()
}

/// Expand one induction chain.
fn expand_chain(f: &mut Function, lp: &Loop, c: &Chain, m_op: Operand) {
    let k = c.len();
    let ph = lp.preheader(f).expect("checked by caller");

    // Preheader: v_p = v0 + p·m (p = 1..k-1) and z = k·m.
    let at = f.block(ph).insert_point();
    let mut init: Vec<Inst> = Vec::new();
    let z_op: Operand = match m_op {
        Operand::ImmI(mc) => {
            for p in 1..k {
                init.push(Inst::alu(
                    Opcode::Add,
                    c.regs[p],
                    c.carried.into(),
                    Operand::ImmI(mc * p as i64),
                ));
            }
            Operand::ImmI(mc * k as i64)
        }
        Operand::Reg(mr) => {
            // Chained adds: v_p = v_{p-1} + m; z = m * k.
            for p in 1..k {
                init.push(Inst::alu(
                    Opcode::Add,
                    c.regs[p],
                    c.regs[p - 1].into(),
                    mr.into(),
                ));
            }
            let z = f.new_reg(RegClass::Int);
            init.push(Inst::alu(Opcode::Mul, z, mr.into(), Operand::ImmI(k as i64)));
            Operand::Reg(z)
        }
        _ => unreachable!(),
    };
    for (i, inst) in init.into_iter().enumerate() {
        f.block_mut(ph).insts.insert(at + i, inst);
    }

    // Remove the chain definitions from the block (descending order).
    let mut defs = c.defs.clone();
    defs.sort_unstable_by(|a, b| b.cmp(a));
    for d in defs {
        f.block_mut(c.block).insts.remove(d);
    }

    // Increment every temporary right before the block's trailing branch.
    let at = f.block(c.block).insert_point();
    for (i, &r) in c.regs.iter().enumerate() {
        f.block_mut(c.block)
            .insts
            .insert(at + i, Inst::alu(Opcode::Add, r, r.into(), z_op));
    }
}

/// Apply induction variable expansion to every inner loop of `m`.
/// Returns the number of chains expanded.
pub fn induction_expand(m: &mut Module) -> usize {
    let forest = LoopForest::compute(&m.func);
    let inner: Vec<Loop> = forest.inner_loops().into_iter().cloned().collect();
    let mut count = 0;
    for lp in &inner {
        if lp.preheader(&m.func).is_none() {
            continue;
        }
        loop {
            let lv = Liveness::compute(&m.func);
            let du = DefUse::compute(&m.func);
            let mut applied = false;
            for &b in &lp.blocks {
                // Only expand in the block that ends with the back edge —
                // the increments move before that branch, so the chain must
                // live in the latch block.
                let is_latch = m
                    .func
                    .block(b)
                    .insts
                    .last()
                    .is_some_and(|i| i.op.is_branch() && i.target == Some(lp.header));
                if !is_latch {
                    continue;
                }
                let chains = find_chains(&m.func, &lp.blocks, b, &lv, &du);
                let pick = chains.iter().find_map(|c| {
                    let m_op = induct_conditions(&m.func, lp, c)?;
                    let close = *c.defs.last().unwrap();
                    // After the closing def, chain registers may only be
                    // read by the trailing back-edge branch: other reads
                    // would observe the moved increments at the wrong time.
                    for &r in &c.regs {
                        if nonbranch_uses_after(&m.func, b, close, r) > 0 {
                            return None;
                        }
                    }
                    // If the back-edge branch reads an *intermediate* chain
                    // register (operation combining can retarget the compare
                    // onto one), the comparison bound must be adjusted by z
                    // after the increments move before the branch — only an
                    // immediate bound can absorb that.
                    let br = m.func.block(b).insts.last().unwrap();
                    let needs_adjust = br
                        .uses()
                        .any(|u| c.regs[1..].contains(&u));
                    if needs_adjust {
                        let imm_bound = br
                            .src
                            .iter()
                            .any(|s| matches!(s, Operand::ImmI(_)));
                        let imm_step = matches!(m_op, Operand::ImmI(_));
                        if !imm_bound || !imm_step {
                            return None;
                        }
                    }
                    Some((c.clone(), m_op, needs_adjust))
                });
                if let Some((c, m_op, needs_adjust)) = pick {
                    expand_chain(&mut m.func, lp, &c, m_op);
                    if needs_adjust {
                        let z = match m_op {
                            Operand::ImmI(mc) => mc * c.len() as i64,
                            _ => unreachable!(),
                        };
                        let br =
                            m.func.block_mut(b).insts.last_mut().unwrap();
                        for s in &mut br.src {
                            if let Operand::ImmI(v) = *s {
                                *s = Operand::ImmI(v + z);
                            }
                        }
                    }
                    count += 1;
                    applied = true;
                    break;
                }
            }
            if !applied {
                break;
            }
        }
    }
    debug_assert!(
        ilpc_ir::verify::verify_module(m).is_ok(),
        "induction expansion broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::MemLoc;
    use ilpc_ir::Cond;

    /// Renamed 3×-unrolled strided loop like the paper's Figure 5c:
    /// r21 chain incremented by the invariant register r7.
    fn fig5_module() -> (Module, BlockId, Reg, Reg, Reg) {
        let mut m = Module::new("fig5");
        let a = m.symtab.declare("A", 64, RegClass::Flt);
        let c = m.symtab.declare("C", 64, RegClass::Flt);
        let f = &mut m.func;
        let r1 = f.new_reg(RegClass::Int); // counter
        let r7 = f.new_reg(RegClass::Int); // invariant stride K
        let r21 = f.new_reg(RegClass::Int); // strided induction (carried)
        let r22 = f.new_reg(RegClass::Int);
        let r23 = f.new_reg(RegClass::Int);
        let v: Vec<Reg> = (0..3).map(|_| f.new_reg(RegClass::Flt)).collect();
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(r1, Operand::ImmI(0)),
            Inst::mov(r7, Operand::ImmI(2)),
            Inst::mov(r21, Operand::ImmI(0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(v[0], Operand::Sym(a), r21.into(), MemLoc::opaque(a)),
            Inst::store(Operand::Sym(c), r21.into(), v[0].into(), MemLoc::opaque(c)),
            Inst::alu(Opcode::Add, r22, r21.into(), r7.into()),
            Inst::load(v[1], Operand::Sym(a), r22.into(), MemLoc::opaque(a)),
            Inst::store(Operand::Sym(c), r22.into(), v[1].into(), MemLoc::opaque(c)),
            Inst::alu(Opcode::Add, r23, r22.into(), r7.into()),
            Inst::load(v[2], Operand::Sym(a), r23.into(), MemLoc::opaque(a)),
            Inst::store(Operand::Sym(c), r23.into(), v[2].into(), MemLoc::opaque(c)),
            Inst::alu(Opcode::Add, r21, r23.into(), r7.into()),
            Inst::alu(Opcode::Add, r1, r1.into(), Operand::ImmI(3)),
            Inst::br(Cond::Lt, r1.into(), Operand::ImmI(12), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        (m, body, r21, r22, r23)
    }

    #[test]
    fn expands_fig5_chain_to_independent_increments() {
        let (mut m, body, r21, r22, r23) = fig5_module();
        assert_eq!(induction_expand(&mut m), 1);
        let f = &m.func;
        let insts = &f.block(body).insts;
        // Chain defs removed; three independent increments before the
        // branch, each register incremented by z (= r7 * 3).
        let n = insts.len();
        assert!(insts[n - 1].op.is_branch());
        let incs: Vec<&Inst> = insts[..n - 1]
            .iter()
            .filter(|i| {
                i.op == Opcode::Add && i.def() == i.src[0].reg().map(Some).flatten()
            })
            .collect();
        let inc_dsts: Vec<Reg> = incs
            .iter()
            .filter(|i| i.src[1].reg().is_some())
            .map(|i| i.dst.unwrap())
            .collect();
        // The three chain registers each get a self-increment by z.
        for r in [r21, r22, r23] {
            assert!(inc_dsts.contains(&r), "{r} not incremented by z");
        }
        // No instruction defines r22/r23 except their z-increments.
        let defs_r22 = insts.iter().filter(|i| i.def() == Some(r22)).count();
        assert_eq!(defs_r22, 1);
        // Preheader contains z = r7 * 3.
        let entry = f.entry();
        assert!(f.block(entry).insts.iter().any(|i| {
            i.op == Opcode::Mul && i.src[1] == Operand::ImmI(3)
        }));
    }

    #[test]
    fn constant_step_chain_uses_immediates() {
        // i1 = i+1 (used); i = i1+1 ; with loads using both.
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let i1 = f.new_reg(RegClass::Int);
        let v0 = f.new_reg(RegClass::Flt);
        let v1 = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.push(Inst::mov(i, Operand::ImmI(0)));
        f.block_mut(body).insts.extend([
            Inst::load(v0, Operand::Sym(a), i.into(), MemLoc::affine(a, 2, 0)),
            Inst::store(Operand::Sym(a), i.into(), v0.into(), MemLoc::affine(a, 2, 0)),
            Inst::alu(Opcode::Add, i1, i.into(), Operand::ImmI(1)),
            Inst::load(v1, Operand::Sym(a), i1.into(), MemLoc::affine(a, 2, 1)),
            Inst::store(Operand::Sym(a), i1.into(), v1.into(), MemLoc::affine(a, 2, 1)),
            Inst::alu(Opcode::Add, i, i1.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(14), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        assert_eq!(induction_expand(&mut m), 1);
        let insts = &m.func.block(body).insts;
        // Increments by 2 before the branch.
        let n = insts.len();
        assert_eq!(insts[n - 2].src[1], Operand::ImmI(2));
        assert_eq!(insts[n - 3].src[1], Operand::ImmI(2));
        // Preheader: i1 = i + 1.
        assert!(m.func.block(m.func.entry()).insts.iter().any(|x| {
            x.op == Opcode::Add && x.dst == Some(i1) && x.src[1] == Operand::ImmI(1)
        }));
        ilpc_ir::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn rejects_varying_increment() {
        // i = i + x where x changes per link.
        let mut m = Module::new("t");
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let i1 = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Int);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(x, Operand::ImmI(1)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::alu(Opcode::Add, i1, i.into(), x.into()),
            Inst::alu(Opcode::Add, x, x.into(), Operand::ImmI(1)), // x varies!
            Inst::alu(Opcode::Add, i, i1.into(), x.into()),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(100), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        assert_eq!(induction_expand(&mut m), 0);
    }
}
