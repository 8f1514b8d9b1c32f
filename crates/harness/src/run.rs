//! Execution-driven evaluation of one (workload, level, machine) point,
//! with differential verification against the AST interpreter: the one
//! comparator, `ExecState::compare`, worded as an error naming the result.

use crate::artifact::Artifact;
use crate::compile::{compile, Compiled};
use ilpc_core::level::Level;
use ilpc_ir::ast::VarId;
use ilpc_ir::interp::{interpret, Checked, ExecState, Wrong};
use ilpc_ir::{SymId, SymTab};
use ilpc_machine::Machine;
use ilpc_mem::MemStats;
use ilpc_regalloc::RegUsage;
pub use ilpc_sim::cycle_budget;
use ilpc_sim::{memory_from_init, simulate_decoded, SimLimits};
use ilpc_workloads::Workload;

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
fn verify_memory(
    w: &Workload,
    symtab: &SymTab,
    shadow: &[(VarId, SymId)],
    reference: &ExecState,
    memory: &[u64],
) -> Result<(), String> {
    let Err(m) = reference.compare(symtab, memory, shadow) else { return Ok(()) };
    let name = w.meta.name;
    let what = match m.checked {
        Checked::Array(a) => format!("array {}", w.program.arrays[a.0 as usize].name),
        Checked::Scalar(v) => format!("scalar {}", w.program.vars[v.0 as usize].name),
    };
    Err(match (m.wrong, m.checked) {
        (Wrong::Class | Wrong::Size, _) => {
            let (class, len) = reference.expected(m.checked);
            format!("{name}: {what} is not {len} {class:?} words")
        }
        (Wrong::Value { diff, .. }, Checked::Array(_)) => {
            format!("{name}: {what} differs by {diff:.2e}")
        }
        (Wrong::Value { got, .. }, Checked::Scalar(v)) => {
            let want = reference.scalars[v.0 as usize];
            format!("{name}: {what} = {got:?}, expected {want:?}")
        }
    })
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
    use ilpc_ir::RegClass;
    use ilpc_workloads::{build, table2};

    /// The core differential guarantee, exercised on a fast subset here;
    /// the full 40-loop × 6-level × 3-width sweep runs in the integration
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
    /// execution (e.g. an extreme `SweepConfig::scale`).
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
        let &(var, shadow) = compiled.shadow.first().expect("dotprod assigns a scalar");
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

    /// One table of verdicts, driven through the comparator and all three
    /// of its callers: point verification (`verify_memory`), the guard's
    /// spot-check (`Oracle::check`) and the fault campaign's ground truth
    /// (`campaign::classify`). Each case edits the reference, so the image
    /// a clean compile leaves is held to a wrong or a near expectation.
    #[test]
    fn one_comparator_gives_every_caller_the_same_verdict() {
        use crate::campaign::{classify, Outcome};
        use crate::compile::{compile_guarded, workload_oracle};
        use ilpc_guard::{GuardConfig, GuardErrorKind};
        use ilpc_ir::ast::{Expr, Index, Program, Stmt};
        use ilpc_ir::interp::DataInit;
        use ilpc_ir::lower::lower;
        use ilpc_ir::{ArrayVal, Value};

        let mut p = Program::new("cases");
        let n = p.int_arr("N", 1);
        let f = p.flt_arr("F", 4);
        let s = p.flt_var("s");
        p.body = vec![Stmt::SetScalar(s, Expr::at(f, Index::at(3)))];
        let init = DataInit::new()
            .with_array(n, ArrayVal::I(vec![5]))
            .with_array(f, ArrayVal::F(vec![1.0, f64::NAN, -0.0, 2.5]));
        let mut meta = table2()[0].clone();
        meta.name = "cases";
        let w = Workload { meta, program: p, init };

        let machine = Machine::issue(4);
        let gc = compile_guarded(&w, Level::Conv, &machine, GuardConfig::default(), None);
        assert!(gc.guard.clean(), "{:#?}", gc.guard.incidents);
        let module = &gc.compiled.module;
        let shadow = &gc.compiled.shadow;
        let clean = workload_oracle(&w, &lower(&w.program));
        let limits = clean.limits;
        let image = ilpc_sim::simulate_limited(module, &machine, clean.init_mem.clone(), limits)
            .unwrap()
            .memory;

        let edit_f = |k: usize, x: f64| {
            move |r: &mut ExecState| {
                let ArrayVal::F(v) = &mut r.arrays[1] else { unreachable!() };
                v[k] = x;
            }
        };
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        // (case, edit of the reference, verdict: the result and what is wrong)
        type Case = (&'static str, Box<dyn Fn(&mut ExecState)>, Option<(Checked, &'static str)>);
        let cases: Vec<Case> = vec![
            ("integer equal", Box::new(|_: &mut ExecState| {}), None),
            (
                "integer off by one",
                Box::new(|r: &mut ExecState| r.arrays[0] = ArrayVal::I(vec![6])),
                Some((Checked::Array(n), "value")),
            ),
            ("float within 1e-9", Box::new(edit_f(0, 1.0 + 5e-10)), None),
            ("float at 1e-8", Box::new(edit_f(0, 1.0 + 1e-8)), Some((Checked::Array(f), "value"))),
            ("NaN against NaN", Box::new(edit_f(1, other_nan)), None),
            ("NaN against 1.0", Box::new(edit_f(1, 1.0)), Some((Checked::Array(f), "value"))),
            ("-0.0 against +0.0", Box::new(edit_f(2, 0.0)), None),
            (
                "one element short",
                Box::new(|r: &mut ExecState| r.arrays[1] = ArrayVal::F(vec![1.0; 5])),
                Some((Checked::Array(f), "size")),
            ),
            (
                "class changed",
                Box::new(|r: &mut ExecState| r.arrays[0] = ArrayVal::F(vec![5.0])),
                Some((Checked::Array(n), "class")),
            ),
            (
                "wrong shadowed scalar",
                Box::new(move |r: &mut ExecState| r.scalars[s.0 as usize] = Value::F(2.0)),
                Some((Checked::Scalar(s), "value")),
            ),
        ];
        for (case, edit, want) in cases {
            let mut oracle = clean.clone();
            edit(&mut oracle.reference);
            let reference = &oracle.reference;

            // The comparator itself.
            let got = reference.compare(&module.symtab, &image, shadow).err().map(|m| {
                let kind = match m.wrong {
                    Wrong::Class => "class",
                    Wrong::Size => "size",
                    Wrong::Value { .. } => "value",
                };
                (m.checked, kind)
            });
            assert_eq!(got, want, "{case}: comparator");

            // Point verification: the error names the result.
            let verified = verify_memory(&w, &module.symtab, shadow, reference, &image);
            let spot = oracle.check(module);
            let outcome = classify(&gc, &machine, &oracle);
            let Some((checked, kind)) = want else {
                assert_eq!(verified, Ok(()), "{case}: verify_memory");
                assert!(spot.is_ok(), "{case}: Oracle::check: {spot:?}");
                assert_eq!(outcome, Outcome::Tolerated, "{case}: classify");
                continue;
            };
            let (what, sym) = match checked {
                Checked::Array(a) => {
                    (format!("array {}", w.program.arrays[a.0 as usize].name), a.0)
                }
                Checked::Scalar(v) => {
                    let &(_, sym) = shadow.iter().find(|(x, _)| *x == v).unwrap();
                    (format!("scalar {}", w.program.vars[v.0 as usize].name), sym.0)
                }
            };
            let (text, detail) = match (kind, checked) {
                ("value", Checked::Array(_)) => ("differs by", "differs from reference by"),
                ("value", Checked::Scalar(_)) => ("=", "differs from reference by"),
                ("class", _) => ("is not", "changed class"),
                _ => ("is not", "changed size"),
            };
            let err = verified.expect_err(case);
            assert!(err.starts_with(&format!("cases: {what} {text} ")), "{case}: {err}");
            let err = spot.expect_err(case);
            assert_eq!(err.kind, GuardErrorKind::DifferentialMismatch, "{case}");
            assert!(err.detail.starts_with(&format!("symbol @{sym} {detail}")), "{case}: {err}");
            assert_eq!(outcome, Outcome::SilentEscape, "{case}: classify");
        }
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
