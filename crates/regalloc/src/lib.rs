//! # ilpc-regalloc — register usage measurement
//!
//! The paper's processor has "an unlimited supply of registers, however the
//! register allocator attempts to utilize the least number of registers
//! required for a given loop. Therefore, registers are reused as soon as
//! they become available." (§3.1)
//!
//! With reuse-as-soon-as-available allocation, the number of physical
//! registers a loop needs equals the maximum number of *simultaneously
//! live* virtual registers at any program point (MAXLIVE), computed here
//! per register class with precise per-instruction liveness. Figure 11/13/15
//! report the sum of the integer and floating point counts.

#![forbid(unsafe_code)]

use ilpc_analysis::{Liveness, RegSet};
use ilpc_ir::{Function, Operand, Reg};
use std::collections::{HashMap, HashSet};

/// Register usage of a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegUsage {
    /// Peak simultaneously-live integer registers.
    pub int: u32,
    /// Peak simultaneously-live floating point registers.
    pub flt: u32,
    /// Peak simultaneously-live vector registers (zero for scalar code).
    pub vec: u32,
}

impl RegUsage {
    /// Total registers (the paper's reported metric; vector registers are
    /// counted once each regardless of lane width).
    pub fn total(self) -> u32 {
        self.int + self.flt + self.vec
    }
}

fn count_classes(set: &RegSet) -> [u32; 3] {
    let mut n = [0u32; 3];
    for r in set.iter() {
        n[r.class.index()] += 1;
    }
    n
}

/// Measure peak register pressure over the whole function.
///
/// Each block is walked backwards from its live-out set. A branch adds
/// what is live into its target, so a value live only into a side exit
/// counts up to that exit. The per-class counts follow the set: only the
/// registers an instruction adds or removes change them.
pub fn measure(f: &Function) -> RegUsage {
    let lv = Liveness::compute(f);
    let mut peak = [0u32; 3];
    for &bid in f.layout_order() {
        let mut live = lv.live_out(bid).clone();
        let mut count = count_classes(&live);
        let mut record = |count: &[u32; 3]| {
            for (p, &c) in peak.iter_mut().zip(count) {
                *p = (*p).max(c);
            }
        };
        record(&count);
        for inst in f.block(bid).insts.iter().rev() {
            if let Some(t) = inst.target {
                for r in lv.live_in(t).iter() {
                    if live.insert(r) {
                        count[r.class.index()] += 1;
                    }
                }
            }
            if let Some(d) = inst.def() {
                if live.remove(d) {
                    count[d.class.index()] -= 1;
                }
            }
            for u in inst.uses() {
                if live.insert(u) {
                    count[u.class.index()] += 1;
                }
            }
            record(&count);
        }
    }
    let [int, flt, vec] = peak;
    RegUsage { int, flt, vec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::{Inst, MemLoc};
    use ilpc_ir::{Cond, Module, Opcode, Operand, Reg, RegClass, SymId};

    #[test]
    fn straight_line_pressure() {
        let mut f = Function::new("t");
        let a = f.new_reg(RegClass::Int);
        let b = f.new_reg(RegClass::Int);
        let c = f.new_reg(RegClass::Int);
        let out = SymId(0);
        let blk = f.add_block("b");
        f.block_mut(blk).insts.extend([
            Inst::mov(a, Operand::ImmI(1)),
            Inst::mov(b, Operand::ImmI(2)),
            Inst::alu(Opcode::Add, c, a.into(), b.into()),
            Inst::store(Operand::Sym(out), Operand::ImmI(0), c.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let u = measure(&f);
        assert_eq!(u.int, 2);
        assert_eq!(u.flt, 0);
        assert_eq!(u.total(), 2);
    }

    #[test]
    fn sequential_reuse_counts_once() {
        // Two values never live simultaneously need one register's worth.
        let mut f = Function::new("t");
        let a = f.new_reg(RegClass::Int);
        let b = f.new_reg(RegClass::Int);
        let out = SymId(0);
        let blk = f.add_block("b");
        f.block_mut(blk).insts.extend([
            Inst::mov(a, Operand::ImmI(1)),
            Inst::store(Operand::Sym(out), Operand::ImmI(0), a.into(), MemLoc::affine(out, 0, 0)),
            Inst::mov(b, Operand::ImmI(2)),
            Inst::store(Operand::Sym(out), Operand::ImmI(1), b.into(), MemLoc::affine(out, 0, 1)),
            Inst::halt(),
        ]);
        assert_eq!(measure(&f).int, 1);
    }

    #[test]
    fn loop_carried_values_counted_through_loop() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let t = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(t, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FAdd, s, s.into(), t.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(8), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(a), Operand::ImmI(0), s.into(), MemLoc::affine(a, 0, 0)),
            Inst::halt(),
        ]);
        let u = measure(&m.func);
        // i carried, s carried, t transient: peak 1 int + 2 flt.
        assert_eq!(u.int, 1);
        assert_eq!(u.flt, 2);
        assert_eq!(u.total(), 3);
    }

    #[test]
    fn disjoint_temporaries_need_distinct_registers() {
        // 3 float temps live across a fadd chain need 3 registers at peak.
        let mut f = Function::new("t");
        let a = SymId(0);
        let regs: Vec<Reg> = (0..3).map(|_| f.new_reg(RegClass::Flt)).collect();
        let acc = f.new_reg(RegClass::Flt);
        let blk = f.add_block("b");
        let mut insts: Vec<Inst> = regs
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                Inst::load(r, Operand::Sym(a), Operand::ImmI(k as i64), MemLoc::affine(a, 0, k as i64))
            })
            .collect();
        insts.push(Inst::alu(Opcode::FAdd, acc, regs[0].into(), regs[1].into()));
        insts.push(Inst::alu(Opcode::FAdd, acc, acc.into(), regs[2].into()));
        insts.push(Inst::store(Operand::Sym(a), Operand::ImmI(7), acc.into(), MemLoc::affine(a, 0, 7)));
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;
        assert_eq!(measure(&f).flt, 3);
    }
}

/// A physical register assignment: virtual register → color, per class.
#[derive(Debug, Clone)]
pub struct Assignment {
    colors: [HashMap<u32, u32>; 3],
    /// Colors used per class.
    pub used: RegUsage,
}

impl Assignment {
    /// Physical register for a virtual register.
    pub fn color(&self, r: Reg) -> Reg {
        Reg {
            id: self.colors[r.class.index()][&r.id],
            class: r.class,
        }
    }
}

/// Build the interference graph with precise per-point liveness and color
/// it greedily (highest-degree-first), the "graph-coloring-based register
/// allocation" of the paper's code generator. The machine has unlimited
/// registers, so no spilling is ever needed; the allocator's job is to
/// *minimize* the count ("the register allocator attempts to utilize the
/// least number of registers required").
pub fn color(f: &Function) -> Assignment {
    let lv = Liveness::compute(f);
    let mut interf: [HashMap<u32, HashSet<u32>>; 3] =
        [HashMap::new(), HashMap::new(), HashMap::new()];
    let mut seen: [HashSet<u32>; 3] = Default::default();

    let mut note = |r: Reg| {
        seen[r.class.index()].insert(r.id);
    };
    let mut edge = |a: Reg, b: Reg| {
        if a.class != b.class || a.id == b.id {
            return;
        }
        let g = &mut interf[a.class.index()];
        g.entry(a.id).or_default().insert(b.id);
        g.entry(b.id).or_default().insert(a.id);
    };

    for &bid in f.layout_order() {
        let mut live = lv.live_out(bid).clone();
        for inst in f.block(bid).insts.iter().rev() {
            // A side exit: what is live into its target is live here too.
            if let Some(t) = inst.target {
                live.union_with(lv.live_in(t));
            }
            if let Some(d) = inst.def() {
                note(d);
                // The def interferes with everything live across it.
                for l in live.iter() {
                    edge(d, l);
                }
                live.remove(d);
            }
            for u in inst.uses() {
                note(u);
                live.insert(u);
            }
        }
    }

    // Definition order (first def point in layout order): live ranges are
    // near-intervals, so coloring in definition order approaches the
    // perfect-elimination behavior of interval graphs (loop-carried ranges
    // wrap around the back edge and can cost a small excess).
    let mut def_pos: [HashMap<u32, usize>; 3] = Default::default();
    let mut pos = 0usize;
    for &bid in f.layout_order() {
        for inst in &f.block(bid).insts {
            if let Some(d) = inst.def() {
                def_pos[d.class.index()].entry(d.id).or_insert(pos);
            }
            pos += 1;
        }
    }

    let mut colors: [HashMap<u32, u32>; 3] = Default::default();
    let mut used = RegUsage::default();
    for ci in 0..3 {
        let mut order: Vec<u32> = seen[ci].iter().copied().collect();
        order.sort_by_key(|id| def_pos[ci].get(id).copied().unwrap_or(usize::MAX));
        let mut max_color = 0u32;
        for id in order {
            let neighbors = interf[ci].get(&id);
            let taken: HashSet<u32> = neighbors
                .map(|ns| {
                    ns.iter().filter_map(|n| colors[ci].get(n).copied()).collect()
                })
                .unwrap_or_default();
            let mut c = 0u32;
            while taken.contains(&c) {
                c += 1;
            }
            colors[ci].insert(id, c);
            max_color = max_color.max(c + 1);
        }
        match ci {
            0 => used.int = max_color,
            1 => used.flt = max_color,
            _ => used.vec = max_color,
        }
    }
    Assignment { colors, used }
}

/// Rewrite `f` onto the colored physical registers. Returns the register
/// usage. The rewritten function computes exactly the same results (the
/// coloring respects every interference); tests verify by simulation.
pub fn assign_registers(f: &mut Function) -> RegUsage {
    let a = color(f);
    let blocks: Vec<_> = f.layout_order().to_vec();
    for bid in blocks {
        for inst in &mut f.block_mut(bid).insts {
            if let Some(d) = inst.dst {
                inst.dst = Some(a.color(d));
            }
            for s in &mut inst.src {
                if let Operand::Reg(r) = *s {
                    *s = Operand::Reg(a.color(r));
                }
            }
        }
    }
    a.used
}

#[cfg(test)]
mod color_tests {
    use super::*;
    use ilpc_ir::inst::{Inst, MemLoc};
    use ilpc_ir::{Cond, Module, Opcode, Operand, RegClass, SymId};

    /// Coloring of a straight-line block equals MAXLIVE.
    #[test]
    fn coloring_matches_maxlive_on_straight_line() {
        let mut f = Function::new("t");
        let out = SymId(0);
        let regs: Vec<Reg> = (0..5).map(|_| f.new_reg(RegClass::Int)).collect();
        let blk = f.add_block("b");
        let mut insts: Vec<Inst> = regs
            .iter()
            .enumerate()
            .map(|(k, &r)| Inst::mov(r, Operand::ImmI(k as i64)))
            .collect();
        for &r in &regs {
            insts.push(Inst::store(
                Operand::Sym(out),
                r.into(),
                r.into(),
                MemLoc::opaque(out),
            ));
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;
        let m = measure(&f);
        let a = color(&f);
        assert_eq!(a.used.int, m.int);
        assert_eq!(a.used.int, 5);
    }

    /// Rewriting onto physical registers preserves simulated results.
    #[test]
    fn assignment_preserves_semantics() {
        let mut m = Module::new("t");
        let arr = m.symtab.declare("A", 8, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let x = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(arr), i.into(), MemLoc::affine(arr, 1, 0)),
            Inst::alu(Opcode::FAdd, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(8), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        // (Simulation-based equivalence is covered by the cross-crate
        // integration tests; here check the rewrite is complete and legal.)
        let before_usage = measure(&m.func);
        let usage = assign_registers(&mut m.func);
        assert_eq!(usage.total(), before_usage.total());
        ilpc_ir::verify::verify_module(&m).unwrap();
        // All register ids now < colors used.
        for (_, inst) in m.func.insts() {
            for r in inst.uses().chain(inst.def()) {
                let lim = if r.is_int() { usage.int } else { usage.flt };
                assert!(r.id < lim, "{r} >= {lim}");
            }
        }
    }
}
