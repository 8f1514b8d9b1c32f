//! The paper's §2 worked examples (Figures 1, 3, 5, 6, 7), reproduced with
//! the real transformation passes and the real scheduler.
//!
//! Each example builds the paper's "before" kernel as IR, applies the
//! transformation under discussion (register renaming, accumulator
//! expansion, induction variable expansion, operation combining, tree
//! height reduction), schedules the loop body on the unlimited-issue
//! machine the paper's examples assume, and reports the block completion
//! time — the paper's "N cycles / M iterations" metric.
//!
//! Expected values (from the paper):
//!
//! | Example | before | after |
//! |---------|--------|-------|
//! | Fig. 1 unroll 3 | 7 (1 iter) → 19 (3 iters) | renamed: 8 (3 iters) |
//! | Fig. 3 matmul   | 8 (1 iter) → 14 (3 iters) | accum-expanded: 10    |
//! | Fig. 5 strided  | 6 (1 iter) → 8 (3 iters)  | induction-expanded: 6 |
//! | Fig. 6 combine  | 7                          | 5                     |
//! | Fig. 7 threduce | 22                         | 13                    |

use ilpc_core::{
    accumulator_expand, induction_expand, operation_combine, rename_loops,
    tree_height_reduce,
};
use ilpc_ir::inst::MemLoc;
use ilpc_ir::{BlockId, Cond, Inst, Module, Opcode, Operand, Reg, RegClass};
use ilpc_machine::Machine;
use ilpc_sched::{schedule_insts, BlockSchedule};

/// One worked example: name, module, loop-body block, paper's cycle counts.
pub struct PaperExample {
    pub name: &'static str,
    pub description: &'static str,
    pub module: Module,
    pub body: BlockId,
    /// Paper's cycles for this kernel.
    pub paper_cycles: u32,
    /// Iterations covered by the body (unroll factor).
    pub iterations: u32,
}

/// The example's loop body scheduled on the unlimited machine.
pub fn schedule(e: &PaperExample) -> BlockSchedule {
    let lv = ilpc_analysis::Liveness::compute(&e.module.func);
    schedule_insts(&e.module.func.block(e.body).insts, &Machine::unlimited(), &|t| {
        lv.live_in(t).clone()
    })
}

/// Completion cycles of that schedule.
pub fn measure(e: &PaperExample) -> u32 {
    schedule(e).completion(&Machine::unlimited())
}

/// Figure 1's vector-add loop: `do j: C(j) = A(j) + B(j)`.
///
/// `unroll`=1 builds Figure 1b, `unroll`=3 builds Figure 1c; pass the
/// result of 1c through [`rename_loops`] for Figure 1d.
fn fig1_module(unroll: usize) -> (Module, BlockId) {
    let mut m = Module::new("fig1");
    let a = m.symtab.declare("A", 64, RegClass::Flt);
    let b = m.symtab.declare("B", 64, RegClass::Flt);
    let c = m.symtab.declare("C", 64, RegClass::Flt);
    let f = &mut m.func;
    let r1 = f.new_reg(RegClass::Int);
    let r5 = f.new_reg(RegClass::Int);
    let r2 = f.new_reg(RegClass::Flt);
    let r3 = f.new_reg(RegClass::Flt);
    let r4 = f.new_reg(RegClass::Flt);
    let entry = f.add_block("entry");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    f.block_mut(entry).insts.extend([
        Inst::mov(r1, Operand::ImmI(0)),
        Inst::mov(r5, Operand::ImmI(60)),
    ]);
    let mut insts = Vec::new();
    for p in 0..unroll as i64 {
        insts.push(Inst::load(r2, Operand::Sym(a), r1.into(), MemLoc::affine(a, 1, p)));
        insts.push(Inst::load(r3, Operand::Sym(b), r1.into(), MemLoc::affine(b, 1, p)));
        insts.push(Inst::alu(Opcode::FAdd, r4, r2.into(), r3.into()));
        insts.push(Inst::store(Operand::Sym(c), r1.into(), r4.into(), MemLoc::affine(c, 1, p)));
        insts.push(Inst::alu(Opcode::Add, r1, r1.into(), Operand::ImmI(1)));
    }
    insts.push(Inst::br(Cond::Lt, r1.into(), r5.into(), body));
    f.block_mut(body).insts = insts;
    f.block_mut(exit).insts.push(Inst::halt());
    (m, body)
}

/// Figure 3's matrix-multiply inner loop after register promotion:
/// `r1 += A(k)*B(k)` with two induction chains (already renamed for the
/// 3×-unrolled variant, exactly as Figure 3c shows).
fn fig3_module(unroll: usize, renamed: bool) -> (Module, BlockId) {
    let mut m = Module::new("fig3");
    let a = m.symtab.declare("A", 64, RegClass::Flt);
    let b = m.symtab.declare("B", 64, RegClass::Flt);
    let cc = m.symtab.declare("C", 4, RegClass::Flt);
    let f = &mut m.func;
    let acc = f.new_reg(RegClass::Flt); // r1f
    let r4 = f.new_reg(RegClass::Int); // A index
    let r6 = f.new_reg(RegClass::Int); // B index
    let r8 = f.new_reg(RegClass::Int); // B stride
    let r9 = f.new_reg(RegClass::Int); // bound
    let entry = f.add_block("entry");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    f.block_mut(entry).insts.extend([
        Inst::mov(r4, Operand::ImmI(0)),
        Inst::mov(r6, Operand::ImmI(0)),
        Inst::mov(r8, Operand::ImmI(1)),
        Inst::mov(r9, Operand::ImmI(60)),
        Inst::load(acc, Operand::Sym(cc), Operand::ImmI(0), MemLoc::affine(cc, 0, 0)),
    ]);
    let f = &mut m.func;
    let mut insts = Vec::new();
    let mut a_idx = r4;
    let mut b_idx = r6;
    for p in 0..unroll as i64 {
        let last = p + 1 == unroll as i64;
        let (ld_a, ld_b, prod) = (
            f.new_reg(RegClass::Flt),
            f.new_reg(RegClass::Flt),
            f.new_reg(RegClass::Flt),
        );
        insts.push(Inst::load(ld_a, Operand::Sym(a), a_idx.into(), MemLoc::affine(a, 1, p)));
        insts.push(Inst::load(ld_b, Operand::Sym(b), b_idx.into(), MemLoc::affine(b, 1, p)));
        insts.push(Inst::alu(Opcode::FMul, prod, ld_a.into(), ld_b.into()));
        insts.push(Inst::alu(Opcode::FAdd, acc, acc.into(), prod.into()));
        if renamed {
            let na = if last { r4 } else { f.new_reg(RegClass::Int) };
            let nb = if last { r6 } else { f.new_reg(RegClass::Int) };
            insts.push(Inst::alu(Opcode::Add, na, a_idx.into(), Operand::ImmI(1)));
            insts.push(Inst::alu(Opcode::Add, nb, b_idx.into(), r8.into()));
            a_idx = na;
            b_idx = nb;
        } else {
            insts.push(Inst::alu(Opcode::Add, r4, r4.into(), Operand::ImmI(1)));
            insts.push(Inst::alu(Opcode::Add, r6, r6.into(), r8.into()));
        }
    }
    insts.push(Inst::br(Cond::Lt, r4.into(), r9.into(), body));
    f.block_mut(body).insts = insts;
    f.block_mut(exit).insts.extend([
        Inst::store(Operand::Sym(cc), Operand::ImmI(0), acc.into(), MemLoc::affine(cc, 0, 0)),
        Inst::halt(),
    ]);
    (m, body)
}

/// The accumulator chain in Figure 3c threads *renamed* intermediate names;
/// building it faithfully requires running the renamer over the shared-name
/// form, which `fig3(renamed=false→rename_loops)` does.
fn fig3c() -> (Module, BlockId) {
    let (mut m, body) = fig3_module(3, false);
    rename_loops(&mut m);
    (m, body)
}

/// Figure 5: `C(j) = A(j)*B(j); j += K` unrolled 3× and renamed (5c).
fn fig5_module(unroll: usize) -> (Module, BlockId) {
    let mut m = Module::new("fig5");
    let a = m.symtab.declare("A", 80, RegClass::Flt);
    let b = m.symtab.declare("B", 80, RegClass::Flt);
    let cc = m.symtab.declare("C", 80, RegClass::Flt);
    let f = &mut m.func;
    let r1 = f.new_reg(RegClass::Int); // counter
    let r6 = f.new_reg(RegClass::Int); // bound
    let r7 = f.new_reg(RegClass::Int); // stride K
    let r2 = f.new_reg(RegClass::Int); // strided index (carried)
    let entry = f.add_block("entry");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    f.block_mut(entry).insts.extend([
        Inst::mov(r1, Operand::ImmI(0)),
        Inst::mov(r6, Operand::ImmI(24)),
        Inst::mov(r7, Operand::ImmI(2)),
        Inst::mov(r2, Operand::ImmI(0)),
    ]);
    let f = &mut m.func;
    let mut insts = Vec::new();
    let mut idx = r2;
    for p in 0..unroll {
        let last = p + 1 == unroll;
        let (va, vb, vp) = (
            f.new_reg(RegClass::Flt),
            f.new_reg(RegClass::Flt),
            f.new_reg(RegClass::Flt),
        );
        insts.push(Inst::load(va, Operand::Sym(a), idx.into(), MemLoc::opaque(a)));
        insts.push(Inst::load(vb, Operand::Sym(b), idx.into(), MemLoc::opaque(b)));
        insts.push(Inst::alu(Opcode::FMul, vp, va.into(), vb.into()));
        insts.push(Inst::store(Operand::Sym(cc), idx.into(), vp.into(), MemLoc::opaque(cc)));
        let next = if last { r2 } else { f.new_reg(RegClass::Int) };
        insts.push(Inst::alu(Opcode::Add, next, idx.into(), r7.into()));
        idx = next;
    }
    insts.push(Inst::alu(Opcode::Add, r1, r1.into(), Operand::ImmI(unroll as i64)));
    insts.push(Inst::br(Cond::Lt, r1.into(), r6.into(), body));
    f.block_mut(body).insts = insts;
    f.block_mut(exit).insts.push(Inst::halt());
    (m, body)
}

/// Figure 6: `i++; t = A(i+2) - 3.2; if (t < 10.0) continue`.
fn fig6_module() -> (Module, BlockId) {
    let mut m = Module::new("fig6");
    let a = m.symtab.declare("A", 64, RegClass::Flt);
    let f = &mut m.func;
    let r1 = f.new_reg(RegClass::Int);
    let r2 = f.new_reg(RegClass::Flt);
    let r3 = f.new_reg(RegClass::Flt);
    let entry = f.add_block("entry");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    f.block_mut(entry).insts.push(Inst::mov(r1, Operand::ImmI(0)));
    let mut ld = Inst::load(r2, Operand::Sym(a), r1.into(), MemLoc::opaque(a));
    ld.ext = 8;
    f.block_mut(body).insts.extend([
        Inst::alu(Opcode::Add, r1, r1.into(), Operand::ImmI(4)),
        ld,
        Inst::alu(Opcode::FSub, r3, r2.into(), Operand::ImmF(3.2)),
        Inst::br(Cond::Lt, r3.into(), Operand::ImmF(10.0), body),
    ]);
    f.block_mut(exit).insts.push(Inst::halt());
    (m, body)
}

/// Figure 7: `A = B * (C + D) * E * F / G`, left-associated.
fn fig7_module() -> (Module, BlockId) {
    let mut m = Module::new("fig7");
    let sym = m.symtab.declare("A", 8, RegClass::Flt);
    let f = &mut m.func;
    let regs: Vec<Reg> = (0..6).map(|_| f.new_reg(RegClass::Flt)).collect();
    let t1 = f.new_reg(RegClass::Flt);
    let t2 = f.new_reg(RegClass::Flt);
    let t3 = f.new_reg(RegClass::Flt);
    let t4 = f.new_reg(RegClass::Flt);
    let res = f.new_reg(RegClass::Flt);
    let entry = f.add_block("entry");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    // Inputs loaded in the entry block, the store of the result in the exit
    // block: the example counts only the expression computation.
    for (k, &r) in regs.iter().enumerate() {
        let ld = Inst::load(r, Operand::Sym(sym), Operand::ImmI(k as i64), MemLoc::affine(sym, 0, k as i64));
        f.block_mut(entry).insts.push(ld);
    }
    f.block_mut(body).insts.extend([
        Inst::alu(Opcode::FAdd, t1, regs[1].into(), regs[2].into()),
        Inst::alu(Opcode::FMul, t2, t1.into(), regs[0].into()),
        Inst::alu(Opcode::FMul, t3, t2.into(), regs[3].into()),
        Inst::alu(Opcode::FMul, t4, t3.into(), regs[4].into()),
        Inst::alu(Opcode::FDiv, res, t4.into(), regs[5].into()),
    ]);
    f.block_mut(exit).insts.extend([
        Inst::store(Operand::Sym(sym), Operand::ImmI(7), res.into(), MemLoc::affine(sym, 0, 7)),
        Inst::halt(),
    ]);
    (m, body)
}

/// Build every worked example, before and after its transformation.
pub fn all_examples() -> Vec<PaperExample> {
    let mut out = Vec::new();

    let (m, b) = fig1_module(1);
    out.push(PaperExample {
        name: "fig1b",
        description: "vector add, conventional (7 cycles / 1 iteration)",
        module: m,
        body: b,
        paper_cycles: 7,
        iterations: 1,
    });
    let (m, b) = fig1_module(3);
    out.push(PaperExample {
        name: "fig1c",
        description: "unrolled 3x, shared registers (19 cycles / 3 iterations)",
        module: m,
        body: b,
        paper_cycles: 19,
        iterations: 3,
    });
    let (mut m, b) = fig1_module(3);
    rename_loops(&mut m);
    out.push(PaperExample {
        name: "fig1d",
        description: "unrolled 3x + register renaming (8 cycles / 3 iterations)",
        module: m,
        body: b,
        paper_cycles: 8,
        iterations: 3,
    });

    let (m, b) = fig3_module(1, false);
    out.push(PaperExample {
        name: "fig3b",
        description: "matmul inner loop, conventional (8 cycles / 1 iteration)",
        module: m,
        body: b,
        paper_cycles: 8,
        iterations: 1,
    });
    let (m, b) = fig3c();
    out.push(PaperExample {
        name: "fig3c",
        description: "unrolled 3x + renaming (14 cycles / 3 iterations)",
        module: m,
        body: b,
        paper_cycles: 14,
        iterations: 3,
    });
    let (mut m, b) = fig3c();
    let n = accumulator_expand(&mut m);
    assert_eq!(n, 1, "fig3d accumulator must expand");
    out.push(PaperExample {
        name: "fig3d",
        description: "+ accumulator variable expansion (10 cycles / 3 iterations)",
        module: m,
        body: b,
        paper_cycles: 10,
        iterations: 3,
    });

    let (m, b) = fig5_module(1);
    out.push(PaperExample {
        name: "fig5b",
        description: "strided loop, conventional (6 cycles / 1 iteration)",
        module: m,
        body: b,
        paper_cycles: 6,
        iterations: 1,
    });
    let (m, b) = fig5_module(3);
    out.push(PaperExample {
        name: "fig5c",
        description: "unrolled 3x + renaming (8 cycles / 3 iterations)",
        module: m,
        body: b,
        paper_cycles: 8,
        iterations: 3,
    });
    let (mut m, b) = fig5_module(3);
    let n = induction_expand(&mut m);
    assert_eq!(n, 1, "fig5d induction chain must expand");
    out.push(PaperExample {
        name: "fig5d",
        description: "+ induction variable expansion (6 cycles / 3 iterations)",
        module: m,
        body: b,
        paper_cycles: 6,
        iterations: 3,
    });

    let (m, b) = fig6_module();
    out.push(PaperExample {
        name: "fig6b",
        description: "guarded search kernel before combining (7 cycles)",
        module: m,
        body: b,
        paper_cycles: 7,
        iterations: 1,
    });
    let (mut m, b) = fig6_module();
    let n = operation_combine(&mut m);
    assert!(n >= 2, "fig6 needs both combinations, got {n}");
    out.push(PaperExample {
        name: "fig6c",
        description: "after operation combining (5 cycles)",
        module: m,
        body: b,
        paper_cycles: 5,
        iterations: 1,
    });

    let (m, b) = fig7_module();
    out.push(PaperExample {
        name: "fig7b",
        description: "A = B*(C+D)*E*F/G, conventional (22 cycles)",
        module: m,
        body: b,
        paper_cycles: 22,
        iterations: 1,
    });
    let (mut m, b) = fig7_module();
    let n = tree_height_reduce(&mut m);
    assert_eq!(n, 1, "fig7 chain must rebalance");
    out.push(PaperExample {
        name: "fig7c",
        description: "after tree height reduction (13 cycles)",
        module: m,
        body: b,
        paper_cycles: 13,
        iterations: 1,
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every §2 worked example reproduces the paper's cycle count exactly.
    #[test]
    fn paper_cycle_counts_reproduced() {
        for e in all_examples() {
            let got = measure(&e);
            assert_eq!(
                got, e.paper_cycles,
                "{}: {} — got {got}, paper says {}",
                e.name, e.description, e.paper_cycles
            );
        }
    }
}
