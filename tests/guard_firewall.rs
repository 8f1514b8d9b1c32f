//! Integration tests for the transformation firewall (`ilpc-guard`).
//!
//! Four system-level guarantees:
//!
//! 1. **Invisible on healthy input**: a guarded compile of unfaulted
//!    IR is byte-identical to the bare pipeline — the firewall changes
//!    nothing unless something is wrong.
//! 1b. **Pays per change, not per step**: a step whose output is
//!    bit-identical to an already-checked module is kept unchecked (exact
//!    counts pinned below), and that shortcut never lets a fault through.
//! 2. **Grid isolation**: one deliberately-faulted point in the full
//!    720-point evaluation grid degrades to a typed error while the other
//!    719 points complete.
//! 3. **No silent escapes**: a deterministic seeded fault campaign never
//!    produces wrong architectural results without a flag.

use ilp_compiler::core_transforms::level::passes;
use ilp_compiler::guard::{GuardConfig, StepHook};
use ilp_compiler::harness::campaign::{run_campaign, CampaignConfig};
use ilp_compiler::harness::compile::{
    compile, compile_guarded, guarded_step_count, workload_oracle,
};
use ilp_compiler::harness::grid::{PointError, Sabotage, SabotageMode};
use ilp_compiler::ir::text::serialize;
use ilp_compiler::ir::{Opcode, SymTab};
use ilp_compiler::prelude::*;
use ilp_compiler::sched::{form_superblocks, schedule_module, SuperblockConfig};

fn workload(name: &str, scale: f64) -> Workload {
    let meta = table2().into_iter().find(|m| m.name == name).unwrap();
    build(&meta, scale)
}

/// Position of `pass` among the guarded steps of a `level` compile.
fn step_of(level: Level, pass: &str) -> usize {
    passes(level).position(|p| p.name == pass).unwrap()
}

/// Structurally valid, architecturally wrong: every `FAdd` becomes `FSub`.
fn flip_fadds(m: &mut Module) {
    let mut flipped = 0;
    for b in m.func.layout_order().to_vec() {
        for inst in &mut m.func.block_mut(b).insts {
            if inst.op == Opcode::FAdd {
                inst.op = Opcode::FSub;
                flipped += 1;
            }
        }
    }
    assert!(flipped > 0, "no FAdd to corrupt");
}

/// Guarding an unfaulted compilation is invisible: same module bytes,
/// same transformation counts, registers, code size and schedules, clean
/// report — on every nest at every level, scalar and vectorized. (Debug
/// builds also re-run the checks on every step the guard keeps unchecked
/// and assert that they pass, so this loop re-proves the shortcut 480
/// times over.)
#[test]
fn guarded_compile_is_byte_identical_on_healthy_input() {
    for meta in table2() {
        let name = meta.name;
        let w = build(&meta, 0.04);
        for level in Level::ALL {
            for vlen in [1u32, 4] {
                let machine = Machine::issue(8).with_vlen(vlen);
                let plain = compile(&w, level, &machine);
                let guarded =
                    compile_guarded(&w, level, &machine, GuardConfig::default(), None);
                let at = format!("{name} {level} vlen {vlen}");
                assert!(guarded.guard.clean(), "{at}: {:#?}", guarded.guard.incidents);
                assert_eq!(guarded.guard.achieved, Some(level), "{at}");
                assert_eq!(guarded.guard.steps_attempted, guarded_step_count(level), "{at}");
                assert_eq!(guarded.guard.steps_kept, guarded_step_count(level), "{at}");
                assert_eq!(
                    serialize(&guarded.compiled.module),
                    serialize(&plain.module),
                    "{at}: guarded module diverged"
                );
                assert_eq!(guarded.compiled.report, plain.report, "{at}");
                assert_eq!(guarded.compiled.regs, plain.regs, "{at}");
                assert_eq!(guarded.compiled.static_insts, plain.static_insts, "{at}");
                assert_eq!(guarded.compiled.schedules, plain.schedules, "{at}");
            }
        }
    }
}

/// The deterministic gate on the record: how many steps the guard kept
/// without re-checking, over the ledger's `compile_guarded` request set
/// (40 nests × 6 levels, `vlen` 4, scale 0.25, issue 8). A guard that
/// re-checked every step would read 0; one that skipped a step it should
/// not have would read more (and trip the debug assertion first).
#[test]
fn unchanged_steps_are_counted_exactly() {
    let machine = Machine::issue(8).with_vlen(4);
    let (mut attempted, mut unchanged) = (0, 0);
    for meta in table2() {
        let w = build(&meta, 0.25);
        for level in Level::ALL {
            let g = compile_guarded(&w, level, &machine, GuardConfig::default(), None);
            assert!(g.guard.clean(), "{} {level}: {:#?}", meta.name, g.guard.incidents);
            attempted += g.guard.steps_attempted;
            unchanged += g.guard.steps_unchanged;
        }
    }
    assert_eq!(attempted, 2_560);
    assert_eq!(unchanged, 1_012);
}

/// Which steps those are, for one nest: `add` is a DOALL loop with no
/// reduction or search to expand and no arithmetic tree to rebalance, so
/// the rows that look for one — and the cleanups that follow them — leave
/// the module as it was, and its single-block body has no trace to merge.
#[test]
fn unchanged_steps_of_add_at_lev6_by_name() {
    let w = workload("add", 0.25);
    let machine = Machine::issue(8).with_vlen(4);
    let lowered = lower(&w.program);
    let oracle = workload_oracle(&w, &lowered);
    let mut guard = Guard::new(GuardConfig::default(), Some(&oracle));
    let mut module = lowered.module;
    let ucfg = UnrollConfig { vlen: machine.vlen, ..Default::default() };
    let mut report = TransformReport::default();

    let mut unchanged = Vec::new();
    let mut step = |guard: &mut Guard, m: &mut Module, name, body: &mut dyn FnMut(&mut Module)| {
        let before = guard.report.steps_unchanged;
        assert!(guard.step(m, name, body), "{name}");
        if guard.report.steps_unchanged > before {
            unchanged.push(name);
        }
    };
    for pass in passes(Level::Lev6) {
        step(&mut guard, &mut module, pass.name, &mut |m| pass.execute(m, &ucfg, &mut report));
    }
    step(&mut guard, &mut module, "superblock-formation", &mut |m| {
        form_superblocks(m, &SuperblockConfig::default());
    });
    step(&mut guard, &mut module, "list-schedule", &mut |m| {
        schedule_module(m, &machine);
    });
    assert_eq!(guard.report.steps_attempted, guarded_step_count(Level::Lev6));
    assert_eq!(
        unchanged,
        [
            "rename-dce",
            "strength-reduce",
            "tree-height-reduce",
            "accumulator-expand",
            "search-expand",
            "expand-dce",
            "re-combine",
            "re-tree-height-reduce",
            "lev4-dce",
            "slp-dce",
            "superblock-formation",
        ]
    );
}

/// The shortcut is keyed on the module, not on the pass: a fault injected
/// into a step whose pass did nothing (`strength-reduce` finds nothing to
/// reduce in `add`) is caught and rolled back all the same, and a hook that
/// touches nothing leaves the step kept and unchecked.
#[test]
fn fault_in_a_no_op_step_is_still_caught() {
    let w = workload("add", 0.04);
    let machine = Machine::issue(8);
    let at_step = step_of(Level::Lev4, "strength-reduce");
    let healthy = compile_guarded(&w, Level::Lev4, &machine, GuardConfig::default(), None);

    let hook = StepHook { at_step, action: Box::new(flip_fadds) };
    let faulted = compile_guarded(&w, Level::Lev4, &machine, GuardConfig::default(), Some(hook));
    let incidents = &faulted.guard.incidents;
    assert_eq!(incidents.len(), 1, "{incidents:#?}");
    assert_eq!((incidents[0].step, incidents[0].pass), (at_step, "strength-reduce"));
    assert_eq!(incidents[0].error.kind, GuardErrorKind::DifferentialMismatch);
    assert_eq!(faulted.guard.achieved, Some(Level::Lev2));
    // Rolling back a step that did nothing loses nothing.
    assert_eq!(serialize(&faulted.compiled.module), serialize(&healthy.compiled.module));
    assert_eq!(faulted.guard.steps_unchanged, healthy.guard.steps_unchanged - 1);

    let hook = StepHook { at_step, action: Box::new(|_| {}) };
    let identity = compile_guarded(&w, Level::Lev4, &machine, GuardConfig::default(), Some(hook));
    assert!(identity.guard.clean(), "{:#?}", identity.guard.incidents);
    assert_eq!(identity.guard.steps_unchanged, healthy.guard.steps_unchanged);
}

/// The record is compared with the caller's module on entry: an edit made
/// *between* two steps is checked at the next one even though that step's
/// body changes nothing.
#[test]
fn edit_between_steps_is_caught_at_the_next_step() {
    let w = workload("dotprod", 0.04);
    let lowered = lower(&w.program);
    let oracle = workload_oracle(&w, &lowered);
    let mut guard = Guard::new(GuardConfig::default(), Some(&oracle));
    let mut module = lowered.module;

    assert!(guard.step(&mut module, "first", |_| {}));
    assert!(guard.step(&mut module, "second", |_| {}));
    assert_eq!(guard.report.steps_unchanged, 1, "the second step re-proved nothing");

    flip_fadds(&mut module);
    assert!(!guard.step(&mut module, "third", |_| {}));
    let incidents = &guard.report.incidents;
    assert_eq!(incidents.len(), 1, "{incidents:#?}");
    assert_eq!(incidents[0].error.kind, GuardErrorKind::DifferentialMismatch);
    assert_eq!(guard.report.steps_unchanged, 1);
}

/// A check that panics is contained like a pass that panics. The hook
/// re-declares every data symbol one element short: the verifier has no
/// rule against it, and the spot-check used to trip an `assert_eq!` on
/// the array lengths and unwind through `compile_guarded`.
#[test]
fn resized_symbol_is_an_incident_not_a_panic() {
    let w = workload("dotprod", 0.04);
    let machine = Machine::issue(8);
    let hook = StepHook {
        at_step: 1,
        action: Box::new(|m: &mut Module| {
            let mut short = SymTab::new();
            for (_, s) in m.symtab.iter() {
                short.declare(&s.name, s.elems - 1, s.class);
            }
            m.symtab = short;
        }),
    };
    let g = compile_guarded(&w, Level::Lev2, &machine, GuardConfig::default(), Some(hook));
    let incidents = &g.guard.incidents;
    assert_eq!(incidents.len(), 1, "{incidents:#?}");
    assert_eq!((incidents[0].step, incidents[0].pass), (1, "unroll"));
    assert_eq!(incidents[0].error.kind, GuardErrorKind::DifferentialMismatch);
    assert!(incidents[0].error.detail.contains("changed size"), "{}", incidents[0].error);
    // Rolled back: the table is whole again and the rest of the compile ran.
    assert_eq!(g.guard.steps_attempted, guarded_step_count(Level::Lev2));
    assert_eq!(g.guard.achieved, Some(Level::Conv));
    let plain = compile(&w, Level::Lev2, &machine);
    assert_eq!(g.compiled.module.symtab, plain.module.symtab);
    ilp_compiler::ir::verify::verify_module(&g.compiled.module).unwrap();
}

/// The full 40 × 6 × 3 = 720-point grid with one sabotaged point: the
/// fault becomes a typed error and the remaining 719 points complete.
#[test]
fn full_grid_survives_a_faulted_point() {
    let levels = Level::ALL.to_vec();
    let widths = vec![1u32, 4, 8];
    let cfg = SweepConfig {
        scale: 0.02,
        levels: levels.clone(),
        widths: widths.clone(),
        sabotage: Some(Sabotage {
            workload: "dotprod".to_string(),
            level: Level::Lev3,
            width: 4,
            mode: SabotageMode::Panic,
        }),
        ..SweepConfig::default()
    };
    let sweep = run_sweep(&cfg).expect("grid config rejected");
    let grid = &sweep.grids[0];
    assert_eq!(grid.meta.len(), 40);

    // Exactly one typed failure, at the sabotaged coordinates.
    assert_eq!(grid.errors.len(), 1, "{:#?}", grid.errors);
    let err = &grid.errors[0];
    assert_eq!(err.workload, "dotprod");
    assert_eq!((err.level, err.width), (Level::Lev3, 4));
    assert!(
        matches!(&err.error, PointError::Panic(msg) if msg.contains("sabotaged")),
        "{err}"
    );

    // The other 719 points all completed.
    let mut present = 0;
    for m in &grid.meta {
        for &level in &levels {
            for &width in &widths {
                present += grid.point(m.name, level, width).is_some() as usize;
            }
        }
    }
    assert_eq!(present, 40 * levels.len() * widths.len() - 1);
    assert!(grid.point("dotprod", Level::Lev3, 4).is_none());

    // Aggregations see the hole instead of passing for complete: the
    // sabotaged point punches a visible 39/40 coverage hole in the
    // all-loops mean at exactly (Lev3, issue-4).
    let names: Vec<&str> = grid.meta.iter().map(|m| m.name).collect();
    let agg = grid.mean_speedup(names.iter().copied(), Level::Lev3, 4);
    assert_eq!(agg.requested(), names.len());
    assert_eq!(agg.covered(), names.len() - 1);
    assert!(!agg.is_complete());
    assert_eq!(agg.complete(), None);
    assert!(agg.partial().unwrap() > 1.0);
    // Any other coordinate is untouched and aggregates completely — as
    // does the DOALL subset, which the Serial dotprod never belonged to.
    assert!(grid.mean_speedup(names.iter().copied(), Level::Lev3, 8).is_complete());
    let doall: Vec<&str> =
        grid.meta.iter().filter(|m| m.ltype.is_doall()).map(|m| m.name).collect();
    assert!(grid.mean_speedup(doall.iter().copied(), Level::Lev3, 4).is_complete());
}

/// A seeded campaign across all fault classes: deterministic and free of
/// silent escapes. (The `fault-campaign` binary runs the full ≥500-fault
/// version; this keeps debug-build test time bounded.)
#[test]
fn fault_campaign_never_escapes_silently() {
    let cfg = CampaignConfig { faults: 96, seed: 0xDEC0DE, ..CampaignConfig::default() };
    let report = run_campaign(&cfg);
    assert_eq!(report.records.len(), 96);
    assert_eq!(report.silent_escapes(), 0, "\n{}", report.render());

    // Determinism: identical reruns, fault for fault.
    let again = run_campaign(&cfg);
    assert_eq!(report.render(), again.render());
    for (a, b) in report.records.iter().zip(&again.records) {
        assert_eq!(
            (a.workload, a.kind, a.step, &a.fault, a.outcome),
            (b.workload, b.kind, b.step, &b.fault, b.outcome)
        );
    }

    // Breadth: every fault class was exercised.
    for kind in ilp_compiler::guard::inject::FaultKind::ALL {
        assert!(
            report.records.iter().any(|r| r.kind == kind.name()),
            "fault class {kind} never drawn — seed/count too small"
        );
    }
    assert!(report.records.iter().any(|r| r.kind == "latency"));
}
