//! Induction-variable strength reduction.
//!
//! Rewrites `t = iv * #c` inside a counted loop (where `iv` is the loop's
//! induction register) into a new register that is initialized to
//! `iv₀ * c` in the preheader and incremented by `step * c` at the latch.
//! This is the classical "loop induction variable strength reduction" the
//! paper lists among its conventional optimizations; it removes the 3-cycle
//! multiply from array address computation and creates the derived
//! induction variables that induction variable *expansion* (Lev4) later
//! operates on.

use ilpc_analysis::{as_counted_loop, LoopForest};
use ilpc_ir::{BlockId, Function, Inst, Opcode, Operand};
use std::collections::HashMap;

/// Apply strength reduction to every counted loop; returns true on change.
pub fn iv_strength_reduce(f: &mut Function) -> bool {
    let forest = LoopForest::compute(f);
    let mut changed = false;

    for lp in &forest.loops {
        let Some(cl) = as_counted_loop(f, lp) else { continue };
        let Some(ph) = lp.preheader(f) else { continue };

        // Collect eligible multiplies: `t = mul iv, #c` (either operand
        // order), positioned before the iv update when inside the latch.
        let mut sites: Vec<(BlockId, usize, i64)> = Vec::new();
        for &b in &cl.blocks {
            for (idx, inst) in f.block(b).insts.iter().enumerate() {
                if b == cl.latch && idx >= cl.iv_update {
                    break;
                }
                if inst.op != Opcode::Mul {
                    continue;
                }
                let c = match (inst.src[0], inst.src[1]) {
                    (Operand::Reg(r), Operand::ImmI(c)) if r == cl.iv => Some(c),
                    (Operand::ImmI(c), Operand::Reg(r)) if r == cl.iv => Some(c),
                    _ => None,
                };
                if let Some(c) = c {
                    sites.push((b, idx, c));
                }
            }
        }
        if sites.is_empty() {
            continue;
        }

        // One reduced register per distinct coefficient.
        let mut reduced: HashMap<i64, ilpc_ir::Reg> = HashMap::new();
        for &(b, idx, c) in &sites {
            let tr = *reduced
                .entry(c)
                .or_insert_with(|| f.new_reg(ilpc_ir::RegClass::Int));
            let t = f.block(b).insts[idx].dst.unwrap();
            f.block_mut(b).insts[idx] = Inst::mov(t, tr.into());
        }

        // Preheader initialization (iv holds its initial value there).
        let at = f.block(ph).insert_point();
        let mut coefs: Vec<i64> = reduced.keys().copied().collect();
        coefs.sort_unstable();
        for (k, &c) in coefs.iter().enumerate() {
            let tr = reduced[&c];
            f.block_mut(ph).insts.insert(
                at + k,
                Inst::alu(Opcode::Mul, tr, cl.iv.into(), Operand::ImmI(c)),
            );
        }

        // Latch increments, inserted right after the iv update.
        let mut pos = cl.iv_update + 1;
        for &c in &coefs {
            let tr = reduced[&c];
            f.block_mut(cl.latch).insts.insert(
                pos,
                Inst::alu(
                    Opcode::Add,
                    tr,
                    tr.into(),
                    Operand::ImmI(cl.step.wrapping_mul(c)),
                ),
            );
            pos += 1;
        }
        changed = true;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::lower::lower;
    use ilpc_ir::verify::verify_module;

    #[test]
    fn removes_address_multiplies_from_loop_body() {
        // do j: A(j*4) = A(j*4) + 1.0  — the j*4 multiply becomes an add.
        let mut p = Program::new("t");
        let j = p.int_var("j");
        let a = p.flt_arr("A", 64);
        p.body = vec![Stmt::For {
            var: j,
            lo: Bound::Const(0),
            hi: Bound::Const(15),
            body: vec![Stmt::SetArr(
                a,
                Index::default().plus(j, 4),
                Expr::add(Expr::at(a, Index::default().plus(j, 4)), Expr::Cf(1.0)),
            )],
        }];
        let mut l = lower(&p);
        assert!(iv_strength_reduce(&mut l.module.func));
        verify_module(&l.module).unwrap();
        let f = &l.module.func;
        let forest = LoopForest::compute(f);
        let lp = forest.inner_loops()[0].clone();
        // No multiply inside the loop body anymore.
        for &b in &lp.blocks {
            for inst in &f.block(b).insts {
                assert_ne!(inst.op, Opcode::Mul);
            }
        }
        // Exactly one `add tr, tr, #4` at the latch beyond the iv update.
        let adds: Vec<_> = f
            .block(lp.latch)
            .insts
            .iter()
            .filter(|i| i.op == Opcode::Add && i.src[1] == Operand::ImmI(4))
            .collect();
        assert_eq!(adds.len(), 1);
    }

    #[test]
    fn semantics_preserved_under_interpreter_check() {
        use ilpc_ir::interp::{interpret, DataInit};
        // Compare AST result before/after (the IR-level check happens in
        // the cross-crate differential tests; here we sanity check shape).
        let mut p = Program::new("t");
        let j = p.int_var("j");
        let a = p.flt_arr("A", 64);
        p.body = vec![Stmt::For {
            var: j,
            lo: Bound::Const(0),
            hi: Bound::Const(15),
            body: vec![Stmt::SetArr(a, Index::default().plus(j, 2), Expr::Cf(7.0))],
        }];
        let st = interpret(&p, &DataInit::new());
        // Elements 0,2,4,... set to 7.
        if let ilpc_ir::ArrayVal::F(v) = &st.arrays[0] {
            assert_eq!(v[0], 7.0);
            assert_eq!(v[2], 7.0);
            assert_eq!(v[1], 0.0);
            assert_eq!(v[30], 7.0);
        } else {
            panic!()
        }
        let mut l = lower(&p);
        assert!(iv_strength_reduce(&mut l.module.func));
        verify_module(&l.module).unwrap();
    }
}
