//! Pass-delta translation-validation lints.
//!
//! Cheap static before/after rules checked for every guarded pipeline
//! step, *before* the guard's differential spot-check gets to run the
//! interpreter and the simulator. Each rule is a one-sided invariant —
//! properties of the "after" module must stay within those of the
//! "before" module — so a rule can reject a broken delta but never a
//! healthy one:
//!
//! * `delta-undef-use` — the set of registers that are used but defined
//!   nowhere in the function must not grow;
//! * `delta-entry-live-in` — the set of registers live into the entry
//!   block (i.e. readable before any definition) must not grow. The
//!   expansion passes ([`EXPANSION_PASSES`]) are exempt: their partial
//!   accumulators are initialized in the loop preheader, which the
//!   trip-count-zero bypass path skips, so the register legitimately
//!   becomes entry-live (and reads zero from the seeded register file);
//! * `delta-reg-alloc` — the per-class register allocation counters never
//!   shrink (passes allocate registers, nothing recycles ids);
//! * `delta-counted-loops` — for passes that preserve iteration counts
//!   ([`TRIP_PRESERVING`]), the multiset of inner-loop back-edge
//!   signatures (continue condition, operand shapes, net per-iteration
//!   step of the tested register) is unchanged.

use crate::diag::{sort_diagnostics, Diagnostic, Severity};
use ilpc_analysis::{Liveness, Loop, LoopForest, RegSet};
use ilpc_ir::{Function, Inst, Module, Opcode, Operand, Reg, RegClass};

/// Passes that split loop-carried dependences into parallel partial
/// accumulators. They may legitimately grow the entry-live-in set (see
/// the module docs), so `delta-entry-live-in` skips them.
/// `slp-vectorize` belongs here for the same measured reason: it folds
/// the expanded partial accumulators into one vector register whose
/// `vsplat` initializer lives in the loop preheader, so the vector
/// register becomes entry-live exactly like the scalar partials it
/// replaces (and reads zero from the seeded vector file on the bypass
/// path).
pub const EXPANSION_PASSES: &[&str] =
    &["accumulator-expand", "induction-expand", "search-expand", "slp-vectorize"];

/// Pipeline steps known to preserve the trip counts (and thus the counted
/// signatures) of every counted inner loop. Unrolling and induction
/// rewrites legitimately change loop shape and are deliberately absent;
/// the grid calibration test keeps this list honest in both directions.
pub const TRIP_PRESERVING: &[&str] = &[
    "rename",
    "rename-dce",
    "lev3-dce",
    "accumulator-expand",
    "search-expand",
    "expand-dce",
    "lev4-dce",
    "slp-vectorize",
    "slp-dce",
    "list-schedule",
];

/// Check one pipeline step's before/after pair. Every returned diagnostic
/// is error-severity; an empty vec means the delta passed all rules.
pub fn check_step(before: &Module, after: &Module, pass: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let name = &after.func.name;
    let mk = |id: &'static str, msg: String| Diagnostic::new(id, Severity::Error, name, msg);

    // Register allocation counters only move forward.
    for class in RegClass::ALL {
        let (b, a) = (before.func.vreg_count(class), after.func.vreg_count(class));
        if a < b {
            out.push(mk(
                "delta-reg-alloc",
                format!("pass {pass} shrank the {class} register counter from {b} to {a}"),
            ));
        }
    }

    // Used-but-never-defined registers: after ⊆ before.
    let undef_b = undefined_uses(&before.func);
    let undef_a = undefined_uses(&after.func);
    for r in undef_a.iter() {
        if !undef_b.contains(r) {
            out.push(mk(
                "delta-undef-use",
                format!("pass {pass} introduced a use of {r}, which no instruction defines"),
            ));
        }
    }

    // Entry live-in (read-before-any-def from function start): after ⊆ before.
    if !EXPANSION_PASSES.contains(&pass)
        && !before.func.layout_order().is_empty()
        && !after.func.layout_order().is_empty()
    {
        let lv_b = Liveness::compute(&before.func);
        let lv_a = Liveness::compute(&after.func);
        let in_b = lv_b.live_in(before.func.entry());
        for r in lv_a.live_in(after.func.entry()).iter() {
            if !in_b.contains(r) {
                out.push(mk(
                    "delta-entry-live-in",
                    format!("pass {pass} made {r} live into the entry block"),
                ));
            }
        }
    }

    // Loop back-edge signatures, for trip-preserving passes.
    if TRIP_PRESERVING.contains(&pass) {
        let sig_b = back_edge_signatures(&before.func);
        let sig_a = back_edge_signatures(&after.func);
        if sig_b != sig_a {
            out.push(mk(
                "delta-counted-loops",
                format!(
                    "pass {pass} changed inner-loop back edges: [{}] became [{}]",
                    sig_b.join(", "),
                    sig_a.join(", ")
                ),
            ));
        }
    }

    sort_diagnostics(&mut out);
    out
}

/// Registers used somewhere in the layout but defined nowhere in it.
fn undefined_uses(f: &Function) -> RegSet {
    let mut used = RegSet::new();
    let mut defined = RegSet::new();
    for &b in f.layout_order() {
        for inst in &f.block(b).insts {
            for r in inst.uses() {
                used.insert(r);
            }
            if let Some(d) = inst.def() {
                defined.insert(d);
            }
        }
    }
    for r in defined.iter() {
        used.remove(r);
    }
    used
}

/// Sorted multiset of inner-loop back-edge signatures. A signature is
/// derived from the latch's closing conditional branch back to the loop
/// header: the continue condition, the shape of each compared operand
/// (immediates keep their value — that is what pins the trip count —
/// while registers are reduced to a marker so renaming stays invisible),
/// and the net per-iteration step of the tested register, recovered by
/// walking its add/sub-immediate update web inside the loop. This form
/// survives unrolling (several self-updates sum) and renaming (the
/// single-def chain folds to the same net step), which is what gives the
/// rule teeth on mid-pipeline artifacts where the strict counted-loop
/// canonicalizer no longer matches.
fn back_edge_signatures(f: &Function) -> Vec<String> {
    if f.layout_order().is_empty() {
        return Vec::new();
    }
    let forest = LoopForest::compute(f);
    let mut sigs = Vec::new();
    for lp in forest.inner_loops() {
        let br = match f.block(lp.latch).insts.last() {
            Some(i) => i,
            None => continue,
        };
        let cond = match br.op {
            Opcode::Br(c) => c,
            _ => continue,
        };
        if br.target != Some(lp.header) {
            continue;
        }
        let shape = |o: &Operand| match o {
            Operand::ImmI(v) => format!("#{v}"),
            Operand::ImmF(v) => format!("#{v}"),
            _ => "r".to_string(),
        };
        let step = match br.src[0].reg() {
            Some(r) if r.is_int() => match loop_step(f, lp, r) {
                Some(n) => n.to_string(),
                None => "?".to_string(),
            },
            _ => "-".to_string(),
        };
        sigs.push(format!(
            "{:?} ({} {}) step {step}",
            cond,
            shape(&br.src[0]),
            shape(&br.src[1])
        ));
    }
    sigs.sort();
    sigs
}

/// Net per-iteration immediate step of `x` within loop `lp`, or `None`
/// when its update web is not a pure add/sub-immediate form. Two shapes
/// are recognized: the pre-rename form where every in-loop def of `x` is
/// a self-update `x = x ± imm` (unrolled bodies carry several; they
/// sum), and the post-rename form where the defs make a single chain
/// `x = tₙ ± imm, …, t₁ = x ± imm` threading the loop-carried value
/// once around.
fn loop_step(f: &Function, lp: &Loop, x: Reg) -> Option<i64> {
    let defs_of = |r: Reg| -> Vec<&Inst> {
        let mut v = Vec::new();
        for &b in &lp.blocks {
            for inst in &f.block(b).insts {
                if inst.def() == Some(r) {
                    v.push(inst);
                }
            }
        }
        v
    };
    // One `dst = src ± #imm` link of the update web.
    let link = |inst: &Inst| -> Option<(Reg, i64)> {
        let v = match (inst.op, inst.src[1]) {
            (Opcode::Add, Operand::ImmI(v)) => v,
            (Opcode::Sub, Operand::ImmI(v)) => -v,
            _ => return None,
        };
        let src = inst.src[0].reg()?;
        if !src.is_int() {
            return None;
        }
        Some((src, v))
    };
    let xdefs = defs_of(x);
    if xdefs.is_empty() {
        return Some(0); // loop-invariant test register
    }
    if xdefs
        .iter()
        .all(|i| matches!(link(i), Some((s, _)) if s == x))
    {
        return Some(xdefs.iter().filter_map(|i| link(i)).map(|(_, v)| v).sum());
    }
    let mut net = 0i64;
    let mut cur = x;
    for _ in 0..4096 {
        let d = defs_of(cur);
        if d.len() != 1 {
            return None;
        }
        let (src, v) = link(d[0])?;
        net += v;
        cur = src;
        if cur == x {
            return Some(net);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::{Inst, MemLoc};
    use ilpc_ir::{BlockId, Cond, Opcode, Reg};

    fn counted_module() -> Module {
        let mut m = Module::new("delta");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let entry = m.func.add_block("entry");
        let body = m.func.add_block("body");
        let exit = m.func.add_block("exit");
        let i = m.func.new_reg(RegClass::Int);
        let s = m.func.new_reg(RegClass::Flt);
        let x = m.func.new_reg(RegClass::Flt);
        m.func.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        m.func.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FAdd, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(8), body),
        ]);
        m.func.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(a), Operand::ImmI(0), s.into(), MemLoc::affine(a, 0, 0)),
            Inst::halt(),
        ]);
        m
    }

    #[test]
    fn identity_delta_is_clean_for_every_rule() {
        let m = counted_module();
        for pass in ["rename", "unroll", "list-schedule", "combine"] {
            let diags = check_step(&m, &m, pass);
            assert!(diags.is_empty(), "{pass}: {diags:?}");
        }
    }

    #[test]
    fn negated_loop_condition_is_rejected_on_trip_preserving_pass() {
        let before = counted_module();
        let mut after = before.clone();
        let body = BlockId(1);
        // The OpcodeFlip fault on the back edge: Br(Lt) → Br(Ge).
        after.func.block_mut(body).insts[3].op = Opcode::Br(Cond::Lt.negated());
        let diags = check_step(&before, &after, "rename");
        assert!(
            diags.iter().any(|d| d.lint_id == "delta-counted-loops"),
            "{diags:?}"
        );
        // The same corruption under a non-trip-preserving pass is out of
        // this rule's jurisdiction.
        assert!(check_step(&before, &after, "unroll").is_empty());
    }

    #[test]
    fn deleted_back_edge_is_rejected() {
        let before = counted_module();
        let mut after = before.clone();
        let body = BlockId(1);
        // The DropEdge "branch deleted" fault: the back edge becomes a nop
        // and the loop vanishes (body now falls through to exit, so the
        // module stays verifier-clean).
        after.func.block_mut(body).insts[3] = Inst::new(Opcode::Nop);
        let diags = check_step(&before, &after, "lev4-dce");
        assert!(
            diags.iter().any(|d| d.lint_id == "delta-counted-loops"),
            "{diags:?}"
        );
    }

    #[test]
    fn skewed_step_is_rejected() {
        let before = counted_module();
        let mut after = before.clone();
        let body = BlockId(1);
        // Add→Sub on the induction update flips the step sign.
        after.func.block_mut(body).insts[2].op = Opcode::Sub;
        let diags = check_step(&before, &after, "list-schedule");
        assert!(
            diags.iter().any(|d| d.lint_id == "delta-counted-loops"),
            "{diags:?}"
        );
    }

    #[test]
    fn new_undefined_use_is_rejected_for_any_pass() {
        let before = counted_module();
        let mut after = before.clone();
        let body = BlockId(1);
        let ghost = Reg::flt(after.func.vreg_count(RegClass::Flt));
        // Make room in the counter so the structural verifier would accept
        // it — the delta rule still must not.
        let _ = after.func.new_reg(RegClass::Flt);
        after.func.block_mut(body).insts[1].src[1] = ghost.into();
        let diags = check_step(&before, &after, "unroll");
        assert!(
            diags.iter().any(|d| d.lint_id == "delta-undef-use"),
            "{diags:?}"
        );
    }

    #[test]
    fn shrunk_register_counter_is_rejected() {
        let mut before = counted_module();
        let _ = before.func.new_reg(RegClass::Int);
        let after = counted_module();
        let diags = check_step(&before, &after, "combine");
        assert!(
            diags.iter().any(|d| d.lint_id == "delta-reg-alloc"),
            "{diags:?}"
        );
    }
}
