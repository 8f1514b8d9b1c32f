//! The full compilation pipeline: lower → transformation passes →
//! superblock formation → list scheduling → register measurement.
//!
//! One driver, two step policies. `pipeline` is the only place the
//! sequence is written, as its two halves: `ilpc_core::level::run_rows`
//! (the middle end, and the only row driver: the rows of
//! `ilpc_core::level::PASSES` a `Rows` mask selects, which read nothing of
//! the machine but `vlen`) and `backend` (superblocks, list schedule,
//! register measurement, for one machine). Every public entry point picks
//! *which* rows run — a `Level` or an ablation `TransformSet`, both a
//! `Rows` mask — and *how* each step (pass or backend stage) is run.
//! [`compile`] runs steps directly; [`compile_guarded`] hands each one to
//! `Guard::step`, which checks it and rolls back on failure, so a faulty
//! step degrades and is reported instead of miscompiling;
//! `crate::profile::compile_with_profile` runs steps directly and annotates
//! branch probabilities after the first. Because the routes share the
//! driver, they cannot drift apart on healthy input. All three start from
//! freshly lowered IR. `crate::artifact::ArtifactCache` calls the two
//! halves separately, to run each level's rows of a mask once per workload
//! (its trie) and the backend once per machine; through it `crate::sweep`
//! hands the backend a `Front` slot, so superblock formation and the
//! dependence DAGs run once for all the widths of a work item.
//! `crate::profile::collect_profile` runs the Conv rows alone for its
//! unscheduled training module. The guard's spot-check ([`workload_oracle`])
//! uses the comparator `crate::run` does, `ExecState::compare`.

use ilpc_core::level::{direct, passes, run_rows, Level, Rows, Step, TransformReport};
use ilpc_guard::{Guard, GuardConfig, GuardReport, Oracle, StepHook};
use ilpc_ir::ast::VarId;
use ilpc_ir::lower::{lower, Lowered};
use ilpc_ir::{Module, SymId};
use ilpc_machine::{LatencyTable, Machine};
use ilpc_regalloc::RegUsage;
use ilpc_sched::{
    block_dags, form_superblocks, place_module, schedule_module, BlockDag, BlockSchedule,
    SuperblockConfig, SuperblockReport,
};
use ilpc_workloads::Workload;

/// A compiled workload ready for simulation.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub module: Module,
    /// Assigned scalar → shadow output symbol, in `SymId` order (for
    /// result comparison).
    pub shadow: Vec<(VarId, SymId)>,
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

/// The pipeline driver: [`run_rows`] then [`backend`] over freshly lowered
/// IR, each step through `step`.
pub(crate) fn pipeline(
    lowered: Lowered,
    rows: Rows,
    machine: &Machine,
    mut step: impl Step,
) -> Compiled {
    let Lowered { mut module, shadow_syms: shadow, .. } = lowered;
    let mut report = TransformReport::default();
    run_rows(&mut module, &mut report, rows, machine.vlen, &mut step);
    backend(|_| Middle { module, shadow, report }, machine, &mut step, None)
}

/// What the middle end hands the backend.
#[derive(Clone)]
pub(crate) struct Middle {
    pub(crate) module: Module,
    pub(crate) shadow: Vec<(VarId, SymId)>,
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
    shadow: Vec<(VarId, SymId)>,
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

/// Compile `w` for `machine` from freshly lowered IR, running the rows
/// `sel` selects: a [`Level`] or an ablation
/// [`TransformSet`](ilpc_core::ablation::TransformSet).
pub fn compile(w: &Workload, sel: impl Into<Rows>, machine: &Machine) -> Compiled {
    pipeline(lower(&w.program), sel.into(), machine, direct)
}

/// Differential-spot-check oracle for `w` ([`Oracle::new`] on its
/// program and initial data). Any corrupted module whose architectural
/// results diverge from the interpreter's is rejected by the firewall.
pub fn workload_oracle(w: &Workload, lowered: &Lowered) -> Oracle {
    Oracle::new(&w.program, &w.init, lowered)
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
        pipeline(lowered, level.rows(), machine, |m, name, body| guard.step(m, name, body));
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
