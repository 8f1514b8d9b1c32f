//! Differential guarantee for the pre-decoded execution engine.
//!
//! The fast engine (`ilpc_sim::decoded`, the default behind
//! `simulate_limited`) must be indistinguishable from the legacy
//! tree-walking interpreter (`ilpc_sim::reference`, the executable
//! specification) on *every observable*: cycle count, dynamic instruction
//! count, final memory image, branch profile, and memory-hierarchy
//! statistics — across the full 40-workload × 6-level × 3-width grid plus
//! `Lev6` at VLEN 4 (840 points), under perfect memory and under a finite
//! cache (whose extra-latency callbacks are order-sensitive, so cycle
//! identity here also proves the engines issue accesses in the same
//! order). Under perfect memory most of that work is retired by the
//! steady-state fast path, so the grid holds it to the oracle too; under
//! the cache the fast path never runs. Structural corruption must produce
//! the *same typed error* from both engines, coordinates included.

use ilp_compiler::harness::compile::compile;
use ilp_compiler::harness::run::cycle_budget;
use ilp_compiler::prelude::*;
use ilp_compiler::sim::reference::simulate_limited_reference;
use ilp_compiler::sim::{memory_from_init, simulate_limited, SimLimits};

/// Checks every point and returns the dynamic instructions the fast path
/// retired, summed over the grid.
fn assert_engines_agree_on_grid(mem_cfg: MemConfig) -> u64 {
    let workloads = build_all(0.04);
    assert_eq!(workloads.len(), 40);
    let mut checked = 0usize;
    let mut replayed = 0u64;
    // Every level on scalar machines, and Lev6 on VLEN-4 ones: the only
    // points whose code holds the six vector opcodes.
    let points = Level::ALL.iter().map(|&l| (l, 1)).chain([(Level::Lev6, 4)]);
    for w in &workloads {
        let reference_exec = interpret(&w.program, &w.init);
        let limits = SimLimits::cycles(cycle_budget(reference_exec.stmts_executed));
        for (level, vlen) in points.clone() {
            for width in [1u32, 4, 8] {
                let machine = Machine::issue(width).with_vlen(vlen).with_mem(mem_cfg);
                let compiled = compile(w, level, &machine);
                let mem = memory_from_init(&compiled.module.symtab, &w.init);
                let fast = simulate_limited(&compiled.module, &machine, mem.clone(), limits)
                    .unwrap_or_else(|e| {
                        panic!("{} {level} issue-{width} (fast): {e}", w.meta.name)
                    });
                let oracle =
                    simulate_limited_reference(&compiled.module, &machine, mem, limits)
                        .unwrap_or_else(|e| {
                            panic!("{} {level} issue-{width} (oracle): {e}", w.meta.name)
                        });
                let tag = format!("{} {level} vlen-{vlen} issue-{width}", w.meta.name);
                assert_eq!(fast.cycles, oracle.cycles, "{tag}: cycles");
                assert_eq!(fast.dyn_insts, oracle.dyn_insts, "{tag}: dyn_insts");
                assert_eq!(fast.memory, oracle.memory, "{tag}: memory image");
                assert_eq!(fast.branch_profile, oracle.branch_profile, "{tag}: profile");
                assert_eq!(fast.mem, oracle.mem, "{tag}: mem stats");
                assert!(fast.replayed_insts <= fast.dyn_insts, "{tag}: replayed");
                replayed += fast.replayed_insts;
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 40 * (Level::ALL.len() + 1) * 3);
    replayed
}

#[test]
fn engines_identical_on_full_grid_under_perfect_memory() {
    let replayed = assert_engines_agree_on_grid(MemConfig::Perfect);
    assert!(replayed > 0, "the steady-state fast path never ran");
}

#[test]
fn engines_identical_on_full_grid_under_finite_cache() {
    // A small cache with asymmetric penalties: load misses retime results,
    // store misses stall issue — both paths must interleave identically.
    let replayed =
        assert_engines_agree_on_grid(MemConfig::cache(CacheParams::new(4, 8, 2, 30, 10)));
    assert_eq!(replayed, 0, "the fast path ran under a cache");
}

/// Structural corruption (the decode-time trap path of the fast engine)
/// yields the same `SimError` — reason string *and* coordinates — as the
/// legacy engine's lazy per-instruction checks.
#[test]
fn engines_report_identical_errors_on_corrupted_modules() {
    use ilp_compiler::ir::inst::Inst;
    use ilp_compiler::ir::Opcode;

    let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
    let w = build(&meta, 0.04);
    let machine = Machine::issue(4);
    let tampers: [(&str, fn(&mut Inst) -> bool); 5] = [
        ("strip load dst", |i| {
            (i.op == Opcode::Load && i.dst.is_some()) && {
                i.dst = None;
                true
            }
        }),
        ("strip mem tags", |i| {
            (i.mem.is_some()) && {
                i.mem = None;
                true
            }
        }),
        ("strip branch targets", |i| {
            (i.target.is_some()) && {
                i.target = None;
                true
            }
        }),
        ("empty ALU operand", |i| {
            (i.op == Opcode::Add) && {
                i.src[0] = ilp_compiler::ir::Operand::None;
                true
            }
        }),
        ("out-of-range register", |i| {
            (i.op == Opcode::Add && i.dst.is_some()) && {
                i.dst = Some(ilp_compiler::ir::Reg::int(1 << 20));
                true
            }
        }),
    ];
    for level in [Level::Conv, Level::Lev2, Level::Lev4] {
        for (name, tamper) in tampers {
            let mut compiled = compile(&w, level, &machine);
            let mut hits = 0usize;
            let blocks: Vec<_> = compiled.module.func.layout_order().to_vec();
            for b in blocks {
                for inst in &mut compiled.module.func.block_mut(b).insts {
                    hits += tamper(inst) as usize;
                }
            }
            assert!(hits > 0, "{level}/{name}: tamper matched nothing");
            let mem = memory_from_init(&compiled.module.symtab, &w.init);
            let limits = SimLimits::cycles(2_000_000);
            let fast = simulate_limited(&compiled.module, &machine, mem.clone(), limits);
            let oracle =
                simulate_limited_reference(&compiled.module, &machine, mem, limits);
            let fast = fast.expect_err(name);
            let oracle = oracle.expect_err(name);
            assert_eq!(fast, oracle, "{level}/{name}");
        }
    }
}
