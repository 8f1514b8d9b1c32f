//! Profile-driven compilation.
//!
//! IMPACT's superblock formation is profile-based: traces follow the
//! branch directions observed in a profiling run, not static estimates.
//! This module reproduces that flow: compile at Conv / issue-1, simulate
//! once on training data collecting per-branch taken frequencies, map the
//! frequencies back onto the *unoptimized* IR's branches (by stable block
//! id + occurrence), and re-run the full pipeline with measured
//! probabilities replacing the front end's estimates.
//!
//! Because every transformation clones or moves branches *with* their
//! `prob` field, profiling the Conv-level code is enough: unrolled copies
//! and tail duplicates inherit the measured probability of the branch they
//! were cloned from.

use crate::compile::{direct, pipeline, run_rows, Compiled};
use crate::run::run_compiled;
use ilpc_core::level::{passes, Level, TransformReport, PASSES};
use ilpc_ir::lower::lower;
use ilpc_ir::{Module, Opcode};
use ilpc_machine::Machine;
use ilpc_sim::{memory_from_init, simulate};
use ilpc_workloads::Workload;
use std::collections::HashMap;

/// Measured taken-probabilities, keyed by `(block id, branch occurrence
/// within the block)`. Occurrence (rather than instruction index) survives
/// the optimizer inserting/deleting non-branch instructions around the
/// branch.
pub type BranchProfile = HashMap<(u32, usize), f32>;

/// Occurrence-keyed branch positions of a function.
fn branch_keys(m: &Module) -> HashMap<(u32, usize), (u32, usize)> {
    // (block, inst idx) -> (block, occurrence)
    let mut map = HashMap::new();
    for &bid in m.func.layout_order() {
        let mut occ = 0usize;
        for (idx, inst) in m.func.block(bid).insts.iter().enumerate() {
            if matches!(inst.op, Opcode::Br(_)) {
                map.insert((bid.0, idx), (bid.0, occ));
                occ += 1;
            }
        }
    }
    map
}

/// Run a Conv / issue-1 training simulation and return the measured
/// per-branch taken probabilities of the *Conv-compiled* module.
pub fn collect_profile(w: &Workload) -> Result<(Module, BranchProfile), String> {
    let machine = Machine::base();
    let mut module = lower(&w.program).module;
    run_rows(&mut module, &mut TransformReport::default(), passes(Level::Conv), 1, &mut direct);
    // NOTE: profiling runs unscheduled code — branch semantics are
    // position-independent, so the profile transfers.
    let mem = memory_from_init(&module.symtab, &w.init);
    let res = simulate(&module, &machine, mem, 4_000_000_000)
        .map_err(|e| format!("{}: training run: {e}", w.meta.name))?;
    let keys = branch_keys(&module);
    let mut profile = BranchProfile::new();
    for ((bid, idx), (executed, taken)) in res.branch_profile {
        if executed == 0 {
            continue;
        }
        if let Some(&key) = keys.get(&(bid, idx)) {
            profile.insert(key, taken as f32 / executed as f32);
        }
    }
    Ok((module, profile))
}

/// Apply a measured profile to a module's branches (by occurrence key).
pub fn apply_profile(m: &mut Module, profile: &BranchProfile) {
    let blocks: Vec<_> = m.func.layout_order().to_vec();
    for bid in blocks {
        let mut occ = 0usize;
        for inst in &mut m.func.block_mut(bid).insts {
            if matches!(inst.op, Opcode::Br(_)) {
                if let Some(&p) = profile.get(&(bid.0, occ)) {
                    inst.prob = p;
                }
                occ += 1;
            }
        }
    }
}

/// Full profile-driven compilation: train at Conv/issue-1, then compile at
/// `level` with the measured branch probabilities steering superblock
/// formation. The profile is applied right after the first table pass
/// (`conventional`: block ids at that point match the training module's),
/// before the ILP transformations clone the branches.
pub fn compile_with_profile(
    w: &Workload,
    level: Level,
    machine: &Machine,
) -> Result<(Compiled, BranchProfile), String> {
    let (_, profile) = collect_profile(w)?;
    let compiled = pipeline(lower(&w.program), passes(level), machine, |m, name, body| {
        body(m);
        if name == PASSES[0].name {
            apply_profile(m, &profile);
        }
        true
    });
    Ok((compiled, profile))
}

/// Evaluate a workload with profile-driven compilation.
pub fn evaluate_with_profile(
    w: &Workload,
    level: Level,
    machine: &Machine,
) -> Result<crate::run::EvalPoint, String> {
    let (compiled, _) = compile_with_profile(w, level, machine)?;
    run_compiled(w, &compiled, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::evaluate;
    use ilpc_workloads::{build, table2};

    #[test]
    fn profile_matches_data_not_estimates() {
        // merge's front-end estimate is 0.5; feed data where A < B is
        // rare and verify the measured probability reflects the data.
        let meta = table2().into_iter().find(|m| m.name == "merge").unwrap();
        let mut w = build(&meta, 0.05);
        // Bias the data: A mostly larger than B.
        use ilpc_ir::ArrayVal;
        if let Some(Some(ArrayVal::F(a))) = w.init.arrays.get_mut(1) {
            for v in a.iter_mut() {
                *v += 10.0;
            }
        }
        let (_, profile) = collect_profile(&w).unwrap();
        // Some branch in the profile should be strongly biased.
        let biased = profile.values().any(|&p| p > 0.9 || p < 0.1);
        assert!(biased, "profile: {profile:?}");
    }

    #[test]
    fn profile_driven_compile_is_correct_and_competitive() {
        for name in ["maxval", "merge", "tomcatv-2", "CSS-1"] {
            let meta = table2().into_iter().find(|m| m.name == name).unwrap();
            let w = build(&meta, 0.05);
            let machine = Machine::issue(8);
            let prof = evaluate_with_profile(&w, Level::Lev4, &machine)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let stat = evaluate(&w, Level::Lev4, &machine).unwrap();
            // Correctness is already asserted inside evaluate_*; the
            // profile-driven build should be in the same performance
            // ballpark (and usually equal or better).
            let ratio = prof.cycles as f64 / stat.cycles as f64;
            assert!(
                ratio < 1.3,
                "{name}: profiled {} vs static {}",
                prof.cycles,
                stat.cycles
            );
        }
        // The profile route is the shared pipeline: it honours
        // `machine.vlen` and reaches the SLP rows at Lev6 like `compile`.
        let meta = table2().into_iter().find(|m| m.name == "add").unwrap();
        let w = build(&meta, 0.05);
        let machine = Machine::issue(8).with_vlen(4);
        let (compiled, _) = compile_with_profile(&w, Level::Lev6, &machine).unwrap();
        assert!(compiled.report.packs_formed > 0, "{:?}", compiled.report);
        run_compiled(&w, &compiled, &machine).unwrap();
    }
}
