//! The full compilation pipeline: lower → transformation passes →
//! superblock formation → list scheduling → register measurement.
//!
//! One driver, two step policies. `pipeline` is the only place the
//! sequence is written, as its two halves: `run_rows` (the middle end:
//! rows of `ilpc_core::level::PASSES`, which read nothing of the machine
//! but `vlen`) and `backend` (superblocks, list schedule, register
//! measurement, for one machine). Every public entry point picks *which*
//! rows run and *how* each step (pass or backend stage) is run. [`compile`]
//! and [`compile_set`] run steps directly; [`compile_guarded`] hands each
//! one to `Guard::step`, which checks it and rolls back on failure, so a
//! faulty step degrades and is reported instead of miscompiling;
//! `crate::profile::compile_with_profile` runs steps directly and annotates
//! branch probabilities after the first. Because the routes share the
//! driver, they cannot drift apart on healthy input. All four start from
//! freshly lowered IR. `crate::artifact::ArtifactCache` calls the two
//! halves separately, to run the middle end once per workload and the
//! backend once per machine; through it `crate::sweep` hands the backend
//! a `Front` slot, so superblock formation and the dependence DAGs run
//! once for all the widths of a work item. `crate::profile::collect_profile`
//! runs the Conv rows alone for its unscheduled training module.

use crate::run::{cycle_budget, FLT_TOL};
use ilpc_core::ablation::TransformSet;
use ilpc_core::level::{passes, Level, Pass, TransformReport};
use ilpc_core::unroll::UnrollConfig;
use ilpc_guard::{Guard, GuardConfig, GuardReport, Oracle, StepHook};
use ilpc_ir::ast::VarId;
use ilpc_ir::interp::interpret;
use ilpc_ir::lower::{lower, Lowered};
use ilpc_ir::value::{ArrayVal, Value};
use ilpc_ir::{Module, SymId};
use ilpc_machine::{LatencyTable, Machine};
use ilpc_regalloc::RegUsage;
use ilpc_sched::{
    block_dags, form_superblocks, place_module, schedule_module, BlockDag, BlockSchedule,
    SuperblockConfig, SuperblockReport,
};
use ilpc_sim::{memory_from_init, SimLimits};
use ilpc_workloads::Workload;
use std::collections::HashMap;

/// A compiled workload ready for simulation.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub module: Module,
    /// Assigned scalar → shadow output symbol (for result comparison).
    pub shadow: HashMap<VarId, SymId>,
    /// Transformation application counts.
    pub report: TransformReport,
    /// Superblock formation counts.
    pub superblocks: SuperblockReport,
    /// Peak register usage of the scheduled code.
    pub regs: RegUsage,
    /// Static instruction count after compilation.
    pub static_insts: usize,
    /// Per-block issue schedules from list scheduling, indexed like the
    /// function's block table (`None` for unscheduled/detached blocks, or
    /// everywhere when a guarded backend step was rolled back). Kept so
    /// `ilpc-lint`'s schedule auditor can re-validate them against the
    /// machine model without re-running the scheduler.
    pub schedules: Vec<Option<BlockSchedule>>,
}

/// How a step (a `PASSES` row or a backend stage) is run: called as
/// `step(module, name, body)`, it must either run `body` and return `true`,
/// or leave the module as it was on entry and return `false`; the driver
/// then discards whatever that step reported (counts, superblocks,
/// schedules).
pub(crate) trait Step: FnMut(&mut Module, &'static str, &mut dyn FnMut(&mut Module)) -> bool {}
impl<F: FnMut(&mut Module, &'static str, &mut dyn FnMut(&mut Module)) -> bool> Step for F {}

/// The pipeline driver: [`run_rows`] then [`backend`] over freshly lowered
/// IR, each step through `step`.
pub(crate) fn pipeline(
    lowered: Lowered,
    passes: impl Iterator<Item = &'static Pass>,
    machine: &Machine,
    mut step: impl Step,
) -> Compiled {
    let Lowered { mut module, shadow_syms: shadow, .. } = lowered;
    let mut report = TransformReport::default();
    run_rows(&mut module, &mut report, passes, machine.vlen, &mut step);
    backend(|_| Middle { module, shadow, report }, machine, &mut step, None)
}

/// The middle end: run `rows` of the pass table over `module`, adding what
/// each kept step counted to `report`. Reads nothing of the machine but
/// `vlen`, which is what lets `crate::artifact` share its output across
/// issue widths and latency tables.
pub(crate) fn run_rows(
    module: &mut Module,
    report: &mut TransformReport,
    rows: impl Iterator<Item = &'static Pass>,
    vlen: u32,
    step: &mut impl Step,
) {
    let ucfg = UnrollConfig { vlen, ..Default::default() };
    for pass in rows {
        let mut counted = report.clone();
        if step(module, pass.name, &mut |m| pass.execute(m, &ucfg, &mut counted)) {
            *report = counted;
        }
    }
}

/// What the middle end hands the backend.
pub(crate) struct Middle {
    pub(crate) module: Module,
    pub(crate) shadow: HashMap<VarId, SymId>,
    pub(crate) report: TransformReport,
}

/// The backend's work before it first reads the issue width: the
/// post-superblock module, what superblock formation did, and the block
/// DAGs for one latency table and load speculativity. `crate::sweep` keeps
/// one per work item (scenario, workload, level) while it places that
/// item's widths, and drops it with the item.
pub(crate) struct Front {
    /// The two machine fields [`BlockDag::build`] reads.
    key: (LatencyTable, bool),
    module: Module,
    shadow: HashMap<VarId, SymId>,
    report: TransformReport,
    superblocks: SuperblockReport,
    dags: Vec<Option<BlockDag>>,
}

impl Front {
    /// Whether this front's DAGs are the ones `machine` would build.
    pub(crate) fn serves(&self, machine: &Machine) -> bool {
        self.key == (machine.latency, machine.nonexcepting_loads)
    }
}

/// The backend: superblock formation, list scheduling and register
/// measurement of the module `middle` yields.
///
/// With no `front`, the module goes through superblock formation and is
/// scheduled block by block for `machine`, each block's DAG dropped once
/// it is placed. With a front slot, a front that [`Front::serves`]
/// `machine` is reused and `middle` is never called; otherwise a new one
/// is built in its place. Either way a copy of the front's module is
/// placed for `machine`. The two give equal compilations.
pub(crate) fn backend<S: Step>(
    middle: impl FnOnce(&mut S) -> Middle,
    machine: &Machine,
    step: &mut S,
    front: Option<&mut Option<Front>>,
) -> Compiled {
    let form = |step: &mut S| {
        let Middle { mut module, shadow, report } = middle(step);
        let mut superblocks = SuperblockReport::default();
        if !step(&mut module, "superblock-formation", &mut |m| {
            superblocks = form_superblocks(m, &SuperblockConfig::default());
        }) {
            superblocks = SuperblockReport::default();
        }
        (module, shadow, report, superblocks)
    };
    let (mut module, shadow, report, superblocks, dags) = match front {
        None => {
            let (module, shadow, report, superblocks) = form(step);
            (module, shadow, report, superblocks, None)
        }
        Some(slot) => {
            if !slot.as_ref().is_some_and(|f| f.serves(machine)) {
                let (module, shadow, report, superblocks) = form(step);
                let dags = block_dags(&module, machine);
                let key = (machine.latency, machine.nonexcepting_loads);
                *slot = Some(Front { key, module, shadow, report, superblocks, dags });
            }
            let f = slot.as_ref().expect("a front was built above");
            (f.module.clone(), f.shadow.clone(), f.report.clone(), f.superblocks, Some(&f.dags))
        }
    };
    let mut schedules = Vec::new();
    if !step(&mut module, "list-schedule", &mut |m| {
        schedules = match dags {
            Some(dags) => place_module(m, dags, machine),
            None => schedule_module(m, machine),
        }
    }) {
        schedules = Vec::new();
    }
    let regs = ilpc_regalloc::measure(&module.func);
    let static_insts = module.func.num_insts();
    Compiled { module, shadow, report, superblocks, regs, static_insts, schedules }
}

/// The unguarded step policy: run the step and keep its output.
pub(crate) fn direct(m: &mut Module, _: &'static str, body: &mut dyn FnMut(&mut Module)) -> bool {
    body(m);
    true
}

/// Compile `w` at `level` for `machine`.
pub fn compile(w: &Workload, level: Level, machine: &Machine) -> Compiled {
    pipeline(lower(&w.program), passes(level), machine, direct)
}

/// Compile `w` with an arbitrary transformation subset (ablation studies).
pub fn compile_set(w: &Workload, set: &TransformSet, machine: &Machine) -> Compiled {
    pipeline(lower(&w.program), set.passes(), machine, direct)
}

/// Differential-spot-check oracle for `w`: the AST interpreter's final
/// arrays plus every assigned scalar's shadow symbol, with the workload's
/// own initial data. Any corrupted module whose architectural results
/// diverge from this reference is rejected by the firewall.
pub fn workload_oracle(w: &Workload, lowered: &Lowered) -> Oracle {
    let reference = interpret(&w.program, &w.init);
    let mut expect: Vec<(SymId, ArrayVal)> = reference
        .arrays
        .iter()
        .enumerate()
        .map(|(k, v)| (SymId(k as u32), v.clone()))
        .collect();
    let mut shadows: Vec<_> = lowered.shadow_syms.iter().collect();
    shadows.sort_by_key(|(_, sym)| sym.0);
    for (var, sym) in shadows {
        let want = match reference.scalars[var.0 as usize] {
            Value::I(x) => ArrayVal::I(vec![x]),
            Value::F(x) => ArrayVal::F(vec![x]),
        };
        expect.push((*sym, want));
    }
    Oracle {
        // Architectural results are width-independent; spot-check on a
        // fixed narrow machine regardless of the compilation target.
        machine: Machine::issue(4),
        init_mem: memory_from_init(&lowered.module.symtab, &w.init),
        expect,
        tol: FLT_TOL,
        limits: SimLimits::cycles(cycle_budget(reference.stmts_executed)),
    }
}

/// A guarded compilation: the surviving code plus the firewall's account
/// of what happened.
#[derive(Debug)]
pub struct GuardedCompile {
    pub compiled: Compiled,
    pub guard: GuardReport,
}

/// Number of guarded steps [`compile_guarded`] runs at `level`: every
/// level-pipeline pass plus the two backend steps.
pub fn guarded_step_count(level: Level) -> usize {
    passes(level).count() + 2
}

/// Compile `w` at `level` through the transformation firewall.
///
/// Every level-pipeline pass runs as a guarded step, and so do superblock
/// formation and list scheduling: a corrupted alias tag is architecturally
/// invisible until the scheduler trusts it to reorder memory operations,
/// so the backend must sit inside the firewall too. A failed backend step
/// rolls back to the unscheduled module — a pure performance (never
/// correctness) loss.
///
/// `hook` optionally corrupts the module inside a chosen step, exactly
/// where a buggy pass would strike; the fault-injection campaign drives
/// it. Production callers pass `None`.
pub fn compile_guarded(
    w: &Workload,
    level: Level,
    machine: &Machine,
    cfg: GuardConfig,
    hook: Option<StepHook<'_>>,
) -> GuardedCompile {
    let lowered = lower(&w.program);
    let oracle = workload_oracle(w, &lowered);
    let mut guard = Guard::new(cfg, Some(&oracle));
    if let Some(h) = hook {
        guard = guard.with_hook(h);
    }
    let compiled =
        pipeline(lowered, passes(level), machine, |m, name, body| guard.step(m, name, body));
    guard.report.settle_level(level);
    GuardedCompile { compiled, guard: guard.report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_workloads::{build, table2};

    #[test]
    fn compiles_dotprod_across_levels() {
        let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
        let w = build(&meta, 0.05);
        let mut prev_regs = 0;
        for level in Level::ALL {
            let c = compile(&w, level, &Machine::issue(8));
            ilpc_ir::verify::verify_module(&c.module).unwrap();
            // Register usage grows (weakly) with transformation level.
            assert!(
                c.regs.total() + 4 >= prev_regs,
                "{level}: regs {} < prev {prev_regs}",
                c.regs.total()
            );
            prev_regs = c.regs.total();
            if level == Level::Lev4 {
                assert!(c.report.accumulators_expanded >= 1);
            }
        }
    }

    #[test]
    fn maxval_gets_search_expansion_and_superblocks() {
        let meta = table2().into_iter().find(|m| m.name == "maxval").unwrap();
        let w = build(&meta, 0.05);
        let c = compile(&w, Level::Lev4, &Machine::issue(8));
        assert!(c.superblocks.merges > 0, "{:?}", c.superblocks);
        assert!(
            c.report.searches_expanded >= 1,
            "search expansion expected: {:?}",
            c.report
        );
    }
}
