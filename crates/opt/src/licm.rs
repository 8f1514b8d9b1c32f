//! Loop-invariant code motion and register promotion.
//!
//! * **LICM** hoists pure computations (and provably unclobbered loads)
//!   whose operands do not vary in the loop into the loop preheader. The
//!   modeled machine's non-excepting loads and divides make speculative
//!   hoisting past the zero-trip guard safe.
//! * **Register promotion** (scalar replacement) rewrites loads/stores of a
//!   loop-invariant memory location into register movs, loading the
//!   location once in the preheader and storing it back at every loop exit
//!   — this is what turns the paper's Figure 3a accumulation into the
//!   Figure 3b shape (`r1f = MEM(C+r2i)` before the loop, the store after).

use ilpc_analysis::{invariant_in, Liveness, Loop, LoopForest};
use ilpc_ir::{BlockId, Function, Inst, Opcode, Reg};
use std::collections::{HashMap, HashSet};

/// Number of defs of each register within the loop.
fn defs_in_loop(f: &Function, lp: &Loop) -> HashMap<Reg, u32> {
    let mut m = HashMap::new();
    for &b in &lp.blocks {
        for i in &f.block(b).insts {
            if let Some(d) = i.def() {
                *m.entry(d).or_insert(0) += 1;
            }
        }
    }
    m
}

/// Hoist invariant code out of every loop; returns true on change.
pub fn licm(f: &mut Function) -> bool {
    let forest = LoopForest::compute(f);
    // Innermost first (fewest blocks first).
    let mut loops = forest.loops.clone();
    loops.sort_by_key(|l| l.blocks.len());

    let mut changed = false;
    for lp in &loops {
        let Some(ph) = lp.preheader(f) else { continue };
        let lv = Liveness::compute(f);
        let defs = defs_in_loop(f, lp);

        // Any store in the loop poisons loads of aliasing locations.
        let stores: Vec<ilpc_ir::MemLoc> = lp
            .blocks
            .iter()
            .flat_map(|&b| f.block(b).insts.iter())
            .filter(|i| i.op == Opcode::Store)
            .map(|i| i.mem.unwrap())
            .collect();

        // Fixpoint marking of invariant instructions.
        let mut inv: HashSet<Reg> = HashSet::new();
        let mut marked: HashSet<(BlockId, usize)> = HashSet::new();
        loop {
            let mut grew = false;
            for &b in &lp.blocks {
                for (idx, inst) in f.block(b).insts.iter().enumerate() {
                    if marked.contains(&(b, idx)) {
                        continue;
                    }
                    let pure = matches!(
                        inst.op,
                        Opcode::Mov
                            | Opcode::Add
                            | Opcode::Sub
                            | Opcode::And
                            | Opcode::Or
                            | Opcode::Xor
                            | Opcode::Shl
                            | Opcode::Shr
                            | Opcode::Mul
                            | Opcode::Div
                            | Opcode::Rem
                            | Opcode::FAdd
                            | Opcode::FSub
                            | Opcode::FMul
                            | Opcode::FDiv
                            | Opcode::CvtIF
                            | Opcode::CvtFI
                    );
                    let loadable = inst.op == Opcode::Load
                        && !stores.iter().any(|s| s.may_alias(&inst.mem.unwrap()));
                    if !pure && !loadable {
                        continue;
                    }
                    let Some(d) = inst.def() else { continue };
                    // Single def in the loop, not loop-carried.
                    if defs.get(&d).copied().unwrap_or(0) != 1
                        || lv.live_in(lp.header).contains(d)
                    {
                        continue;
                    }
                    let ops_inv = inst.uses().all(|u| {
                        inv.contains(&u) || invariant_in(f, &lp.blocks, u)
                    });
                    if ops_inv {
                        marked.insert((b, idx));
                        inv.insert(d);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }

        if marked.is_empty() {
            continue;
        }

        // Move marked instructions to the preheader, preserving their
        // relative order (layout order, then index order).
        let mut order: Vec<(BlockId, usize)> = marked.iter().copied().collect();
        let pos_of = |b: BlockId| f.layout_pos(b).unwrap_or(usize::MAX);
        order.sort_by_key(|(b, i)| (pos_of(*b), *i));
        let mut moved: Vec<Inst> = Vec::with_capacity(order.len());
        // Remove from the back so indices stay valid.
        let mut by_block: HashMap<BlockId, Vec<usize>> = HashMap::new();
        for (b, i) in &order {
            by_block.entry(*b).or_default().push(*i);
        }
        let mut removed: HashMap<(BlockId, usize), Inst> = HashMap::new();
        for (b, mut idxs) in by_block {
            idxs.sort_unstable_by(|a, c| c.cmp(a));
            for i in idxs {
                removed.insert((b, i), f.block_mut(b).insts.remove(i));
            }
        }
        for key in &order {
            moved.push(removed.remove(key).unwrap());
        }
        let at = f.block(ph).insert_point();
        let ph_insts = &mut f.block_mut(ph).insts;
        for (k, inst) in moved.into_iter().enumerate() {
            ph_insts.insert(at + k, inst);
        }
        changed = true;
    }
    changed
}

/// Promote loop-invariant memory locations to registers in inner loops;
/// returns true on change.
pub fn promote_registers(f: &mut Function) -> bool {
    let forest = LoopForest::compute(f);
    let inner: Vec<Loop> = forest.inner_loops().into_iter().cloned().collect();
    let mut changed = false;

    for lp in &inner {
        let Some(ph) = lp.preheader(f) else { continue };
        // Exit blocks must only be reachable from this loop or its preheader.
        let preds = f.preds();
        let exits_ok = lp.exits.iter().all(|e| {
            preds[e.0 as usize]
                .iter()
                .all(|p| lp.contains(*p) || *p == ph)
        });
        if !exits_ok {
            continue;
        }

        // Group memory references by exact tag; promotion candidates are
        // per-iteration-invariant locations (coef 0 with known shape).
        #[derive(PartialEq)]
        struct Ref {
            block: BlockId,
            idx: usize,
        }
        let mut groups: HashMap<(u32, i64, i64, u64), Vec<Ref>> = HashMap::new();
        let mut all_mem: Vec<ilpc_ir::MemLoc> = Vec::new();
        for &b in &lp.blocks {
            for (idx, inst) in f.block(b).insts.iter().enumerate() {
                if !inst.op.is_mem() {
                    continue;
                }
                let m = inst.mem.unwrap();
                all_mem.push(m);
                if let Some((coef, off)) = m.lin {
                    if coef == 0 {
                        groups
                            .entry((m.sym.0, coef, off, m.outer))
                            .or_default()
                            .push(Ref { block: b, idx });
                    }
                }
            }
        }

        for ((sym, coef, off, outer), refs) in groups {
            let tag = ilpc_ir::MemLoc {
                sym: ilpc_ir::SymId(sym),
                lin: Some((coef, off)),
                outer,
                width: 1,
            };
            // No other reference in the loop may alias this location.
            let conflict = all_mem
                .iter()
                .filter(|m| **m != tag)
                .any(|m| m.may_alias(&tag));
            if conflict {
                continue;
            }
            // All refs must share identical, loop-invariant address operands.
            let first = {
                let r = &refs[0];
                f.block(r.block).insts[r.idx].clone()
            };
            let (base, offop) = (first.src[0], first.src[1]);
            let addr_ok = refs.iter().all(|r| {
                let i = &f.block(r.block).insts[r.idx];
                i.src[0] == base && i.src[1] == offop
            }) && [base, offop].iter().all(|o| match o.reg() {
                Some(r) => invariant_in(f, &lp.blocks, r),
                None => true,
            });
            if !addr_ok {
                continue;
            }

            let class = f.block(refs[0].block).insts[refs[0].idx]
                .mem
                .map(|_| match first.op {
                    Opcode::Load => first.dst.unwrap().class,
                    _ => first.src[2].class().unwrap(),
                })
                .unwrap();
            let p = f.new_reg(class);

            // Rewrite references.
            for r in &refs {
                let inst = &mut f.block_mut(r.block).insts[r.idx];
                *inst = match inst.op {
                    Opcode::Load => Inst::mov(inst.dst.unwrap(), p.into()),
                    Opcode::Store => Inst::mov(p, inst.src[2]),
                    _ => unreachable!(),
                };
            }
            // Preheader load.
            let at = f.block(ph).insert_point();
            f.block_mut(ph)
                .insts
                .insert(at, Inst::load(p, base, offop, tag));
            // Store back at every exit.
            for &e in &lp.exits {
                f.block_mut(e)
                    .insts
                    .insert(0, Inst::store(base, offop, p.into(), tag));
            }
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::lower::lower;
    use ilpc_ir::verify::verify_module;

    /// Inner-loop matmul accumulation: C(i,j) += A(i,k)*B(k,j), with the
    /// C reference invariant in the k loop.
    fn matmul_inner() -> Program {
        let mut p = Program::new("mm");
        let k = p.int_var("k");
        let a = p.flt_arr("A", 64);
        let b = p.flt_arr("B", 64);
        let c = p.flt_arr("C", 64);
        p.body = vec![Stmt::For {
            var: k,
            lo: Bound::Const(0),
            hi: Bound::Const(7),
            body: vec![Stmt::SetArr(
                c,
                Index::at(3),
                Expr::add(
                    Expr::at(c, Index::at(3)),
                    Expr::mul(Expr::at(a, Index::var(k)), Expr::at(b, Index::var(k).offset(8))),
                ),
            )],
        }];
        p
    }

    #[test]
    fn promotes_accumulator_location() {
        let mut l = lower(&matmul_inner());
        // Loads/stores of C(3) should become register traffic.
        assert!(promote_registers(&mut l.module.func));
        verify_module(&l.module).unwrap();
        let f = &l.module.func;
        let forest = LoopForest::compute(f);
        let lp = forest.inner_loops()[0].clone();
        // No memory reference to C (sym id 2) remains inside the loop.
        for &b in &lp.blocks {
            for i in &f.block(b).insts {
                if let Some(m) = i.mem {
                    assert_ne!(m.sym.0, 2, "C reference left in loop: {i}");
                }
            }
        }
        // And a store-back exists at the exit.
        let has_storeback = lp.exits.iter().any(|&e| {
            f.block(e)
                .insts
                .iter()
                .any(|i| i.op == Opcode::Store && i.mem.unwrap().sym.0 == 2)
        });
        assert!(has_storeback);
    }

    #[test]
    fn hoists_invariant_address_mul() {
        // do i: do j: A(j + i*8) = A(j + i*8) + 1.0
        // After LICM, the i*8 multiply lives in the inner preheader.
        let mut p = Program::new("t");
        let i = p.int_var("i");
        let j = p.int_var("j");
        let a = p.flt_arr("A", 64);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(7),
            body: vec![Stmt::For {
                var: j,
                lo: Bound::Const(0),
                hi: Bound::Const(7),
                body: vec![Stmt::SetArr(
                    a,
                    Index::var(j).plus(i, 8),
                    Expr::add(Expr::at(a, Index::var(j).plus(i, 8)), Expr::Cf(1.0)),
                )],
            }],
        }];
        let mut l = lower(&p);
        assert!(licm(&mut l.module.func));
        verify_module(&l.module).unwrap();
        let f = &l.module.func;
        let forest = LoopForest::compute(f);
        let lp = forest.inner_loops()[0].clone();
        // No multiply remains in the inner loop.
        for &b in &lp.blocks {
            for inst in &f.block(b).insts {
                assert_ne!(inst.op, Opcode::Mul, "invariant mul left in loop");
            }
        }
    }

    #[test]
    fn does_not_hoist_variant_or_carried_values() {
        // s = s + A(i): the accumulator must stay in the loop.
        let mut p = Program::new("t");
        let i = p.int_var("i");
        let s = p.flt_var("s");
        let a = p.flt_arr("A", 16);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(15),
            body: vec![Stmt::SetScalar(
                s,
                Expr::add(Expr::Var(s), Expr::at(a, Index::var(i))),
            )],
        }];
        let mut l = lower(&p);
        licm(&mut l.module.func);
        verify_module(&l.module).unwrap();
        let f = &l.module.func;
        let forest = LoopForest::compute(f);
        let lp = forest.inner_loops()[0].clone();
        let has_fadd = lp
            .blocks
            .iter()
            .any(|&b| f.block(b).insts.iter().any(|x| x.op == Opcode::FAdd));
        assert!(has_fadd, "accumulation must remain in loop");
    }
}
