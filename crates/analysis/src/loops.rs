//! Natural loop detection and counted-loop derivation.
//!
//! The ILP transformations all operate on *inner loops* (the paper's
//! execution model exploits multiprocessor parallelism in outer loops and
//! ILP in inner loops). This module finds natural loops from back edges,
//! nests them, and — for the loops the unroller can handle — derives the
//! *counted loop* shape: a single induction register stepped by a constant
//! and compared against a loop-invariant bound by a bottom-test branch.

use crate::dom::Dominators;
use ilpc_ir::{BlockId, Cond, Function, Opcode, Operand, Reg};
use std::collections::BTreeSet;

/// A natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Loop header (target of the back edge).
    pub header: BlockId,
    /// Block containing the back edge branch (assumed unique; lowering
    /// produces single-latch loops and all passes preserve that shape).
    pub latch: BlockId,
    /// All blocks in the loop (header and latch included), sorted.
    pub blocks: Vec<BlockId>,
    /// Blocks outside the loop targeted by branches inside it.
    pub exits: Vec<BlockId>,
}

impl Loop {
    /// True if `b` is inside the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// The unique predecessor of the loop header outside the loop, if any.
    pub fn preheader(&self, f: &Function) -> Option<BlockId> {
        let preds = f.preds();
        let mut outside = preds[self.header.0 as usize].iter().filter(|p| !self.contains(**p));
        let ph = *outside.next()?;
        if outside.next().is_some() {
            return None;
        }
        Some(ph)
    }
}

/// All natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    /// Loops, outermost-first within each nest.
    pub loops: Vec<Loop>,
}

impl LoopForest {
    /// Detect natural loops of `f`.
    pub fn compute(f: &Function) -> LoopForest {
        let dom = Dominators::compute(f);
        let preds = f.preds();
        let mut loops: Vec<Loop> = Vec::new();

        for &b in f.layout_order() {
            if !dom.is_reachable(b) {
                continue;
            }
            for s in f.succs(b) {
                if dom.dominates(s, b) {
                    // Back edge b -> s. Collect the natural loop of (b, s).
                    let header = s;
                    let latch = b;
                    let mut body: BTreeSet<BlockId> = BTreeSet::new();
                    body.insert(header);
                    body.insert(latch);
                    let mut stack = vec![latch];
                    while let Some(x) = stack.pop() {
                        if x == header {
                            continue;
                        }
                        for &p in &preds[x.0 as usize] {
                            if dom.is_reachable(p) && body.insert(p) {
                                stack.push(p);
                            }
                        }
                    }
                    let blocks: Vec<BlockId> = body.iter().copied().collect();
                    let mut exits: Vec<BlockId> = Vec::new();
                    for &lb in &blocks {
                        for t in f.succs(lb) {
                            if !body.contains(&t) && !exits.contains(&t) {
                                exits.push(t);
                            }
                        }
                    }
                    loops.push(Loop { header, latch, blocks, exits });
                }
            }
        }

        // Merge loops sharing a header (multiple back edges): union bodies.
        loops.sort_by_key(|l| (l.header, l.latch));
        let mut merged: Vec<Loop> = Vec::new();
        for l in loops {
            if let Some(prev) = merged.last_mut() {
                if prev.header == l.header {
                    let mut set: BTreeSet<BlockId> =
                        prev.blocks.iter().copied().collect();
                    set.extend(l.blocks.iter().copied());
                    prev.blocks = set.into_iter().collect();
                    for e in l.exits {
                        if !prev.exits.contains(&e) {
                            prev.exits.push(e);
                        }
                    }
                    continue;
                }
            }
            merged.push(l);
        }
        // Sort outer loops before inner ones (more blocks first).
        merged.sort_by_key(|l| std::cmp::Reverse(l.blocks.len()));
        LoopForest { loops: merged }
    }

    /// Inner loops: loops containing no other loop's header.
    pub fn inner_loops(&self) -> Vec<&Loop> {
        self.loops
            .iter()
            .filter(|l| {
                !self
                    .loops
                    .iter()
                    .any(|o| o.header != l.header && l.contains(o.header))
            })
            .collect()
    }
}

/// A loop in canonical counted form, eligible for unrolling with a
/// preconditioning loop (the paper: "If the iteration count is known on loop
/// entry ... a preconditioning loop executes the first Mod N iterations").
#[derive(Debug, Clone)]
pub struct CountedLoop {
    /// The underlying natural loop.
    pub header: BlockId,
    pub latch: BlockId,
    pub blocks: Vec<BlockId>,
    /// Induction register tested by the back edge.
    pub iv: Reg,
    /// Constant step added to `iv` once per iteration.
    pub step: i64,
    /// Index (block, inst) of the `iv = iv + step` instruction.
    pub iv_update: usize,
    /// Loop-invariant bound operand of the back-edge compare.
    pub bound: Operand,
    /// Back-edge condition (`iv cond bound` continues the loop).
    pub cond: Cond,
    /// The block the back edge falls through to when the loop exits.
    pub exit: BlockId,
}

/// Try to put `lp` into counted form.
///
/// Requirements (all guaranteed by lowering and preserved by the classical
/// passes for the loops we unroll):
/// * the latch's final instruction is `br cond (iv, bound) header`;
/// * `iv` is an integer register defined exactly once in the loop, by an
///   `add iv, iv, #step` in the latch *before* the branch;
/// * `bound` is an immediate or a register with no definitions in the loop;
/// * the branch falls through to the loop exit.
pub fn as_counted_loop(f: &Function, lp: &Loop) -> Option<CountedLoop> {
    let latch_insts = &f.block(lp.latch).insts;
    let br = latch_insts.last()?;
    let (cond, target) = match (br.op, br.target) {
        (Opcode::Br(c), Some(t)) => (c, t),
        _ => return None,
    };
    if target != lp.header {
        return None;
    }
    let iv = br.src[0].reg()?;
    if !iv.is_int() {
        return None;
    }
    let bound = br.src[1];
    // Bound must be loop-invariant.
    if let Some(r) = bound.reg() {
        for &b in &lp.blocks {
            if f.block(b).insts.iter().any(|i| i.def() == Some(r)) {
                return None;
            }
        }
    }
    // iv defined exactly once in the loop: `add iv, iv, #step` in the latch.
    let mut defs = 0usize;
    for &b in &lp.blocks {
        for i in &f.block(b).insts {
            if i.def() == Some(iv) {
                defs += 1;
            }
        }
    }
    if defs != 1 {
        return None;
    }
    let (iv_update, step) = latch_insts.iter().enumerate().find_map(|(idx, i)| {
        if i.def() == Some(iv) && i.op == Opcode::Add && i.src[0].reg() == Some(iv) {
            if let Operand::ImmI(s) = i.src[1] {
                return Some((idx, s));
            }
        }
        None
    })?;
    if step == 0 {
        return None;
    }
    // The exit is the fall-through of the latch.
    let exit = f.fallthrough(lp.latch)?;
    if lp.contains(exit) {
        return None;
    }
    Some(CountedLoop {
        header: lp.header,
        latch: lp.latch,
        blocks: lp.blocks.clone(),
        iv,
        step,
        iv_update,
        bound,
        cond,
        exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::lower::lower;

    fn two_level_nest() -> Program {
        let mut p = Program::new("nest");
        let i = p.int_var("i");
        let j = p.int_var("j");
        let a = p.flt_arr("A", 64);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(3),
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
        p
    }

    #[test]
    fn finds_nested_loops_and_inner() {
        let l = lower(&two_level_nest());
        let forest = LoopForest::compute(&l.module.func);
        assert_eq!(forest.loops.len(), 2);
        let inner = forest.inner_loops();
        assert_eq!(inner.len(), 1);
        // Inner loop is strictly contained in the outer loop.
        let outer = &forest.loops[0];
        assert!(outer.blocks.len() > inner[0].blocks.len());
        for b in &inner[0].blocks {
            assert!(outer.contains(*b));
        }
    }

    #[test]
    fn derives_counted_form() {
        let l = lower(&two_level_nest());
        let forest = LoopForest::compute(&l.module.func);
        let inner = forest.inner_loops()[0].clone();
        let counted = as_counted_loop(&l.module.func, &inner).expect("counted");
        assert_eq!(counted.step, 1);
        assert_eq!(counted.cond, Cond::Le);
        assert_eq!(counted.bound, Operand::ImmI(7));
        assert_eq!(counted.header, counted.latch); // single-block body
    }

    #[test]
    fn non_invariant_bound_rejected() {
        // do i: n = n + 1; A(i) = 0  with bound n  (bound varies)
        let mut p = Program::new("t");
        let i = p.int_var("i");
        let n = p.int_var("n");
        let a = p.flt_arr("A", 64);
        p.body = vec![
            Stmt::SetScalar(n, Expr::Ci(10)),
            Stmt::For {
                var: i,
                lo: Bound::Const(0),
                hi: Bound::Var(n),
                body: vec![
                    Stmt::SetScalar(n, Expr::sub(Expr::Var(n), Expr::Ci(0))),
                    Stmt::SetArr(a, Index::var(i), Expr::Cf(0.0)),
                ],
            },
        ];
        let l = lower(&p);
        let forest = LoopForest::compute(&l.module.func);
        let inner = forest.inner_loops()[0].clone();
        assert!(as_counted_loop(&l.module.func, &inner).is_none());
    }
}
