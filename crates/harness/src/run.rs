//! Execution-driven evaluation of one (workload, level, machine) point,
//! with differential verification against the AST interpreter.

use crate::artifact::Artifact;
use crate::compile::{compile, Compiled};
use ilpc_core::level::Level;
use ilpc_ir::ast::VarId;
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_ir::value::{rel_diff, ArrayVal, Value};
use ilpc_ir::{RegClass, SymId, SymTab};
use ilpc_machine::Machine;
use ilpc_mem::MemStats;
use ilpc_regalloc::RegUsage;
use ilpc_sim::{memory_from_init, simulate_decoded, SimLimits};
use ilpc_workloads::Workload;
use std::collections::HashMap;

/// Relative tolerance for floating point result comparison. Expansion
/// transformations reassociate reductions (exactly as the paper's do), so
/// results differ in low-order bits.
pub const FLT_TOL: f64 = 1e-9;

/// Simulation cycle budget for a reference execution of `stmts_executed`
/// statements. Generous — issue-1 naive code runs well under 100
/// cycles/instruction — and saturating, so huge `GridConfig::scale`
/// values cannot wrap the budget around to a tiny number.
pub fn cycle_budget(stmts_executed: u64) -> u64 {
    stmts_executed.saturating_mul(4000).max(2_000_000)
}

/// One measured grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalPoint {
    pub cycles: u64,
    pub dyn_insts: u64,
    pub regs: RegUsage,
    pub static_insts: usize,
    /// Memory-hierarchy statistics (all hits under perfect memory).
    pub mem: MemStats,
}

/// Differentially verify a simulated memory image against the AST
/// interpreter's reference execution: every array, and every assigned
/// scalar via its shadow symbol.
pub fn verify_against_reference(
    w: &Workload,
    compiled: &Compiled,
    reference: &ExecState,
    memory: &[u64],
) -> Result<(), String> {
    verify_memory(w, &compiled.module.symtab, &compiled.shadow, reference, memory)
}

/// [`verify_against_reference`] on the two things it reads of a
/// compilation: where the symbols lie in `memory`, and which of them
/// shadow an assigned scalar.
///
/// Words are compared where they lie in `memory`, against the layout
/// computed once; a symbol whose class or size no longer matches the
/// reference (a miscompile) is an `Err` naming it, never a panic.
fn verify_memory(
    w: &Workload,
    symtab: &SymTab,
    shadow: &HashMap<VarId, SymId>,
    reference: &ExecState,
    memory: &[u64],
) -> Result<(), String> {
    let (bases, _) = symtab.layout();
    let name = w.meta.name;
    // The words of `sym`, provided it still holds `len` elements of `class`.
    let words = |sym: SymId, class: RegClass, len: usize, what: &dyn Fn() -> String| {
        let k = sym.0 as usize;
        (k < symtab.len())
            .then(|| symtab.get(sym))
            .filter(|s| s.class == class && s.elems == len)
            .and_then(|_| memory.get(bases[k]..bases[k] + len))
            .ok_or_else(|| format!("{name}: {} is not {len} {class:?} words", what()))
    };
    // Differential check: arrays...
    for (k, want) in reference.arrays.iter().enumerate() {
        let what = || format!("array {}", w.program.arrays[k].name);
        let got = words(SymId(k as u32), want.class(), want.len(), &what)?;
        let diff = match want {
            ArrayVal::I(v) => {
                if v.iter().zip(got).all(|(&x, &g)| x as u64 == g) { 0.0 } else { 1.0 }
            }
            ArrayVal::F(v) => {
                // Most arrays are bit-equal (only reassociated reductions are
                // not): one branch-free pass, which vectorizes, settles those.
                let exact = v.iter().zip(got).fold(true, |eq, (x, &g)| eq & (x.to_bits() == g));
                let diffs = v.iter().zip(got).map(|(&x, &g)| rel_diff(f64::from_bits(g), x));
                if exact { 0.0 } else { diffs.fold(0.0, f64::max) }
            }
        };
        if diff > FLT_TOL {
            return Err(format!("{name}: {} differs by {diff:.2e}", what()));
        }
    }
    // ... and assigned scalars via their shadow symbols.
    for (var, sym) in shadow {
        let what = || format!("scalar {}", w.program.vars[var.0 as usize].name);
        let want = reference.scalars[var.0 as usize];
        let got = Value::from_bits(words(*sym, want.class(), 1, &what)?[0], want.class());
        let ok = match (got, want) {
            (Value::F(g), Value::F(x)) => rel_diff(g, x) <= FLT_TOL,
            _ => got == want,
        };
        if !ok {
            return Err(format!("{name}: {} = {got:?}, expected {want:?}", what()));
        }
    }
    Ok(())
}

/// Simulate `artifact` under `machine` and check its results against
/// `reference`: the one simulate-and-verify tail, shared by the
/// compile-per-point path ([`run_compiled`]) and the artifact-cache path
/// (`crate::artifact::ArtifactCache::evaluate`).
pub(crate) fn run_decoded(
    w: &Workload,
    artifact: &Artifact,
    reference: &ExecState,
    machine: &Machine,
) -> Result<EvalPoint, String> {
    let mem = memory_from_init(&artifact.symtab, &w.init);
    // Explicit budgets: the cycle limit bounds wall-clock, the derived
    // dynamic-instruction watchdog catches runaway wide-issue work that
    // burns few cycles but unbounded instructions.
    let limits = SimLimits::cycles(cycle_budget(reference.stmts_executed));
    let res = simulate_decoded(&artifact.decoded, machine, mem, limits)
        .map_err(|e| format!("{}: {e}", w.meta.name))?;

    verify_memory(w, &artifact.symtab, &artifact.shadow, reference, &res.memory)?;

    Ok(EvalPoint {
        cycles: res.cycles,
        dyn_insts: res.dyn_insts,
        regs: artifact.regs,
        static_insts: artifact.static_insts,
        mem: res.mem,
    })
}

/// Simulate `compiled` and check its results against the interpreter.
pub fn run_compiled(
    w: &Workload,
    compiled: &Compiled,
    machine: &Machine,
) -> Result<EvalPoint, String> {
    let artifact = Artifact::new(compiled, machine);
    run_decoded(w, &artifact, &interpret(&w.program, &w.init), machine)
}

/// Compile + simulate + verify one ablation point.
pub fn evaluate_set(
    w: &Workload,
    set: &ilpc_core::ablation::TransformSet,
    machine: &Machine,
) -> Result<EvalPoint, String> {
    let compiled = crate::compile::compile_set(w, set, machine);
    run_compiled(w, &compiled, machine)
}

/// Compile + simulate + verify one grid point.
pub fn evaluate(
    w: &Workload,
    level: Level,
    machine: &Machine,
) -> Result<EvalPoint, String> {
    let compiled = compile(w, level, machine);
    run_compiled(w, &compiled, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_workloads::{build, table2};

    /// The core differential guarantee, exercised on a fast subset here;
    /// the full 40-loop × 5-level × 3-width sweep runs in the integration
    /// test suite.
    #[test]
    fn representative_loops_correct_at_all_levels() {
        // Collect every failing point instead of aborting on the first —
        // one broken configuration shouldn't hide the rest of the matrix.
        let mut failures = Vec::new();
        for name in ["add", "dotprod", "maxval", "merge", "LWS-1", "SDS-4"] {
            let meta = table2().into_iter().find(|m| m.name == name).unwrap();
            let w = build(&meta, 0.04);
            for level in Level::ALL {
                for width in [1, 4] {
                    if let Err(e) = evaluate(&w, level, &Machine::issue(width)) {
                        failures.push(format!("{name} {level} issue-{width}: {e}"));
                    }
                }
            }
        }
        assert!(failures.is_empty(), "{} failing points:\n{}", failures.len(), failures.join("\n"));
    }

    /// The budget never wraps, no matter how large the reference
    /// execution (e.g. an extreme `GridConfig::scale`).
    #[test]
    fn cycle_budget_saturates_instead_of_wrapping() {
        assert_eq!(cycle_budget(0), 2_000_000);
        assert_eq!(cycle_budget(1000), 4_000_000);
        for huge in [u64::MAX, u64::MAX / 2, u64::MAX / 4000 + 1] {
            assert_eq!(cycle_budget(huge), u64::MAX, "stmts = {huge}");
        }
        // Monotone around the saturation knee.
        let knee = u64::MAX / 4000;
        assert!(cycle_budget(knee) <= cycle_budget(knee + 1));
    }

    /// A budget-exceeded simulation surfaces as a clean `Err` from the
    /// differential runner, not a wrap-around or a panic.
    #[test]
    fn budget_exceeded_surfaces_as_clean_err() {
        let meta = table2().into_iter().find(|m| m.name == "add").unwrap();
        let w = build(&meta, 0.04);
        let machine = Machine::issue(1);
        let mut compiled = crate::compile::compile(&w, Level::Conv, &machine);
        // Tamper the compiled module into a runaway loop, the shape a
        // miscompile (or hand-edited `.ilpc`) would produce.
        let entry = compiled.module.func.entry();
        compiled.module.func.block_mut(entry).insts =
            vec![ilpc_ir::inst::Inst::jump(entry)];
        let err = run_compiled(&w, &compiled, &machine)
            .expect_err("runaway loop must not verify");
        assert!(err.contains("cycle limit"), "{err}");
    }

    /// A NaN where the reference holds a number fails verification, and a
    /// symbol whose class no longer matches the reference is an `Err`
    /// naming it rather than a panic.
    #[test]
    fn verify_memory_rejects_nan_and_shape_changes() {
        let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
        let w = build(&meta, 0.04);
        let machine = Machine::issue(4);
        let compiled = compile(&w, Level::Lev2, &machine);
        let reference = interpret(&w.program, &w.init);
        let symtab = &compiled.module.symtab;
        let mem = memory_from_init(symtab, &w.init);
        let limits = SimLimits::cycles(cycle_budget(reference.stmts_executed));
        let image = ilpc_sim::simulate_limited(&compiled.module, &machine, mem, limits)
            .unwrap()
            .memory;
        let verify = |symtab: &SymTab, image: &[u64]| {
            verify_memory(&w, symtab, &compiled.shadow, &reference, image)
        };
        assert_eq!(verify(symtab, &image), Ok(()));

        let (bases, _) = symtab.layout();
        let (&var, &shadow) = compiled.shadow.iter().next().expect("dotprod assigns a scalar");
        let k = reference.arrays.iter().position(|a| a.class() == RegClass::Flt).unwrap();
        for (word, what) in [
            (bases[k], format!("array {}", w.program.arrays[k].name)),
            (bases[shadow.0 as usize], format!("scalar {}", w.program.vars[var.0 as usize].name)),
        ] {
            let mut bad = image.clone();
            bad[word] = f64::NAN.to_bits();
            let err = verify(symtab, &bad).unwrap_err();
            assert!(err.contains(&what), "{err}");
        }

        let mut retyped = SymTab::new();
        for (id, s) in symtab.iter() {
            let class = match s.class {
                RegClass::Int if id.0 == 0 => RegClass::Flt,
                _ if id.0 == 0 => RegClass::Int,
                class => class,
            };
            retyped.declare(&s.name, s.elems, class);
        }
        let err = verify(&retyped, &image).unwrap_err();
        assert!(err.contains(&format!("array {} is not", w.program.arrays[0].name)), "{err}");
    }

    /// Speedups behave sanely: higher level + wider issue never makes the
    /// canonical DOALL loop slower.
    #[test]
    fn add_speedup_monotone_in_level() {
        let meta = table2().into_iter().find(|m| m.name == "add").unwrap();
        let w = build(&meta, 0.2);
        let base = evaluate(&w, Level::Conv, &Machine::base()).unwrap().cycles;
        let conv8 = evaluate(&w, Level::Conv, &Machine::issue(8)).unwrap().cycles;
        let lev2 = evaluate(&w, Level::Lev2, &Machine::issue(8)).unwrap().cycles;
        let lev4 = evaluate(&w, Level::Lev4, &Machine::issue(8)).unwrap().cycles;
        assert!(conv8 <= base);
        assert!(lev2 < conv8, "renaming must speed up the DOALL loop");
        assert!(lev4 <= lev2 + lev2 / 10);
        // Lev2 on issue-8 should be several times faster than base.
        let speedup = base as f64 / lev2 as f64;
        assert!(speedup > 3.0, "speedup {speedup:.2}");
    }
}
