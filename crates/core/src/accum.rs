//! Accumulator variable expansion (paper Figure 2).
//!
//! "Accumulator variable expansion eliminates redefinitions of an
//! accumulator variable within an unrolled loop by creating k temporary
//! accumulators. [...] To recover the value of the original accumulator
//! variable, the temporary accumulators are summed at all exit points of
//! the loop."
//!
//! Operates on the renamed update chain found by [`crate::chains`]:
//! the chain through `v0` becomes `k` independent accumulators `t_p`, with
//! `t_0` seeded from `v0` and the rest from the identity, each chain link
//! rewritten to update its own accumulator, and a reduction inserted at
//! every loop exit. Sum *and product* accumulators are supported
//! (the paper: "accumulates a sum or product in each iteration").

use crate::chains::{find_chains, Chain};
use ilpc_analysis::{DefUse, Liveness, Loop, LoopForest};
use ilpc_ir::{Function, Inst, Module, Reg};

/// Additional legality for accumulator expansion: the carried value may be
/// referenced *only* by the chain itself inside the loop (paper condition 2:
/// "V is only referenced in the above inc/dec instructions").
fn accum_conditions(f: &Function, lp: &Loop, c: &Chain, du: &DefUse) -> bool {
    // Intermediates: exactly one use (the next link).
    for r in &c.regs[1..] {
        if du.num_uses(*r) != 1 {
            return false;
        }
    }
    // v0: inside the loop, used once (chain start).
    let uses_in_loop: usize = lp
        .blocks
        .iter()
        .map(|&b| {
            f.block(b)
                .insts
                .iter()
                .flat_map(|i| i.uses())
                .filter(|u| *u == c.carried)
                .count()
        })
        .sum();
    uses_in_loop == 1
}

/// Expand one chain; assumes conditions hold.
fn expand_chain(f: &mut Function, lp: &Loop, c: &Chain) {
    let k = c.len();
    let temps: Vec<Reg> = (0..k).map(|_| f.new_reg(c.kind.class())).collect();

    // Preheader seeding: t0 = v0, t_p = identity.
    let ph = lp.preheader(f).expect("checked by caller");
    let at = f.block(ph).insert_point();
    let mut seed = vec![Inst::mov(temps[0], c.carried.into())];
    for &t in &temps[1..] {
        seed.push(Inst::mov(t, c.kind.identity()));
    }
    for (i, inst) in seed.into_iter().enumerate() {
        f.block_mut(ph).insts.insert(at + i, inst);
    }

    // Rewrite links: link p (def index c.defs[p]) becomes
    // `t_p = op(t_p, x_{p+1})`.
    for (p, &didx) in c.defs.iter().enumerate() {
        let inst = &mut f.block_mut(c.block).insts[didx];
        inst.dst = Some(temps[p]);
        // The chain-continuation operand becomes t_p; keep the increment.
        let chain_reg = c.regs[p]; // v_{p} feeds link p+1... regs[p] feeds def p.
        let replaced = inst.replace_use(chain_reg, temps[p].into());
        debug_assert!(replaced > 0, "chain operand not found");
    }

    // Exit reductions: t0 = combine(t0, t_p); v0 = t0.
    for &e in &lp.exits {
        let mut red = Vec::with_capacity(k);
        for &t in &temps[1..] {
            red.push(Inst::alu(c.kind.combine_op(), temps[0], temps[0].into(), t.into()));
        }
        red.push(Inst::mov(c.carried, temps[0].into()));
        for (i, inst) in red.into_iter().enumerate() {
            f.block_mut(e).insts.insert(i, inst);
        }
    }
}

/// Apply accumulator variable expansion to every inner loop of `m`.
/// Returns the number of chains expanded.
pub fn accumulator_expand(m: &mut Module) -> usize {
    let forest = LoopForest::compute(&m.func);
    let inner: Vec<Loop> = forest.inner_loops().into_iter().cloned().collect();
    let mut count = 0;
    for lp in &inner {
        if lp.preheader(&m.func).is_none() || lp.exits.len() != 1 {
            continue;
        }
        // Re-derive analyses per loop (previous expansions change code).
        loop {
            let lv = Liveness::compute(&m.func);
            let du = DefUse::compute(&m.func);
            let mut applied = false;
            for &b in &lp.blocks {
                let chains = find_chains(&m.func, &lp.blocks, b, &lv, &du);
                if let Some(c) = chains
                    .iter()
                    .find(|c| accum_conditions(&m.func, lp, c, &du))
                {
                    expand_chain(&mut m.func, lp, c);
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
        "accumulator expansion broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::MemLoc;
    use ilpc_ir::{BlockId, Cond, Opcode, Operand, RegClass};

    /// Renamed, 3×-unrolled dot-product-like accumulation.
    fn accum_module() -> (Module, BlockId, BlockId, Reg) {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let s1 = f.new_reg(RegClass::Flt);
        let s2 = f.new_reg(RegClass::Flt);
        let x: Vec<Reg> = (0..3).map(|_| f.new_reg(RegClass::Flt)).collect();
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(x[0], Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FAdd, s1, s.into(), x[0].into()),
            Inst::load(x[1], Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 1)),
            Inst::alu(Opcode::FAdd, s2, s1.into(), x[1].into()),
            Inst::load(x[2], Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 2)),
            Inst::alu(Opcode::FAdd, s, s2.into(), x[2].into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(3)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(12), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        (m, body, exit, s)
    }

    #[test]
    fn expands_accumulator_like_fig3d() {
        let (mut m, body, exit, s) = accum_module();
        assert_eq!(accumulator_expand(&mut m), 1);
        let f = &m.func;
        // The three FAdds in the body now write three distinct registers,
        // each reading only itself + a load (no inter-add dependence).
        let fadds: Vec<&Inst> = f
            .block(body)
            .insts
            .iter()
            .filter(|i| i.op == Opcode::FAdd)
            .collect();
        assert_eq!(fadds.len(), 3);
        let dsts: Vec<Reg> = fadds.iter().map(|i| i.dst.unwrap()).collect();
        assert!(dsts[0] != dsts[1] && dsts[1] != dsts[2] && dsts[0] != dsts[2]);
        for add in &fadds {
            assert_eq!(add.src[0].reg(), add.def(), "self-accumulation only");
        }
        // Exit block: two combining adds then mov s, t0, before the store.
        let einsts = &f.block(exit).insts;
        assert_eq!(einsts[0].op, Opcode::FAdd);
        assert_eq!(einsts[1].op, Opcode::FAdd);
        assert_eq!(einsts[2].op, Opcode::Mov);
        assert_eq!(einsts[2].dst, Some(s));
        assert_eq!(einsts[3].op, Opcode::Store);
    }

    #[test]
    fn rejects_accumulator_read_in_loop() {
        // Body also stores s each iteration -> condition 2 violated.
        let (mut m, body, _, s) = accum_module();
        let a = ilpc_ir::SymId(0);
        m.func.block_mut(body).insts.insert(
            6,
            Inst::store(Operand::Sym(a), Operand::ImmI(5), s.into(), MemLoc::affine(a, 0, 5)),
        );
        assert_eq!(accumulator_expand(&mut m), 0);
    }

    #[test]
    fn expands_product_accumulator() {
        // Product chain with FMul links.
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let s1 = f.new_reg(RegClass::Flt);
        let x0 = f.new_reg(RegClass::Flt);
        let x1 = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(1.0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(x0, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FMul, s1, s.into(), x0.into()),
            Inst::load(x1, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 1)),
            Inst::alu(Opcode::FMul, s, s1.into(), x1.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(2)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(8), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        assert_eq!(accumulator_expand(&mut m), 1);
        // Second temp seeded with 1.0.
        let ph = m.func.block(m.func.entry());
        assert!(ph
            .insts
            .iter()
            .any(|i| i.op == Opcode::Mov && i.src[0] == Operand::ImmF(1.0)));
        // Exit combines with FMul.
        assert_eq!(m.func.block(exit).insts[0].op, Opcode::FMul);
    }
}
