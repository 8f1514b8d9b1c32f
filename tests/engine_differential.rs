//! Differential guarantee for the pre-decoded execution engine.
//!
//! The fast engine (`ilpc_sim::decoded`, the default behind
//! `simulate_limited`) must be indistinguishable from the legacy
//! tree-walking interpreter (`ilpc_sim::reference`, the executable
//! specification) on *every observable*: cycle count, dynamic instruction
//! count, final memory image, branch profile, and memory-hierarchy
//! statistics — across the full 40-workload × 6-level × 3-width grid plus
//! `Lev6` at VLEN 4 (840 points), under perfect memory and under three
//! finite caches: the two `pool_simulate_cachemem` configurations and one
//! with an L2 (the models' latencies are order-sensitive, so cycle
//! identity here also proves the engines issue accesses in the same
//! order). Under every memory model most of that work is retired by the
//! steady-state fast path, which under a cache makes each access itself
//! and rewinds the cache when a latency differs from its template's, so
//! the grid holds the fast path to the oracle too. Structural corruption
//! is an error from both engines; the fast engine's is the IR verifier's
//! first error, coordinates included, before any cycle.

use ilp_compiler::harness::compile::compile;
use ilp_compiler::harness::run::cycle_budget;
use ilp_compiler::prelude::*;
use ilp_compiler::sim::reference::simulate_limited_reference;
use ilp_compiler::ir::verify::verify_module;
use ilp_compiler::sim::{memory_from_init, simulate_limited, SimError, SimLimits};

/// Checks every point under each of `mems` and returns, per memory
/// configuration, the dynamic instructions the fast path retired, summed
/// over the grid.
fn assert_engines_agree_on_grid(mems: &[MemConfig]) -> Vec<u64> {
    let workloads = build_all(0.04);
    assert_eq!(workloads.len(), 40);
    let mut checked = 0usize;
    let mut replayed = vec![0u64; mems.len()];
    // Every level on scalar machines, and Lev6 on VLEN-4 ones: the only
    // points whose code holds the six vector opcodes.
    let points = Level::ALL.iter().map(|&l| (l, 1)).chain([(Level::Lev6, 4)]);
    for w in &workloads {
        let reference_exec = interpret(&w.program, &w.init);
        let limits = SimLimits::cycles(cycle_budget(reference_exec.stmts_executed));
        for (level, vlen) in points.clone() {
            for width in [1u32, 4, 8] {
                // The memory model is a simulator-side knob: one compile
                // serves every configuration.
                let compiled = compile(w, level, &Machine::issue(width).with_vlen(vlen));
                let mem = memory_from_init(&compiled.module.symtab, &w.init);
                for (k, &mem_cfg) in mems.iter().enumerate() {
                    let machine = Machine::issue(width).with_vlen(vlen).with_mem(mem_cfg);
                    let tag =
                        format!("{} {level} vlen-{vlen} issue-{width} {}", w.meta.name, mem_cfg.name());
                    let fast = simulate_limited(&compiled.module, &machine, mem.clone(), limits)
                        .unwrap_or_else(|e| panic!("{tag} (fast): {e}"));
                    let oracle =
                        simulate_limited_reference(&compiled.module, &machine, mem.clone(), limits)
                            .unwrap_or_else(|e| panic!("{tag} (oracle): {e}"));
                    assert_eq!(fast.cycles, oracle.cycles, "{tag}: cycles");
                    assert_eq!(fast.dyn_insts, oracle.dyn_insts, "{tag}: dyn_insts");
                    assert_eq!(fast.memory, oracle.memory, "{tag}: memory image");
                    assert_eq!(fast.branch_profile, oracle.branch_profile, "{tag}: profile");
                    assert_eq!(fast.mem, oracle.mem, "{tag}: mem stats");
                    assert!(fast.replayed_insts <= fast.dyn_insts, "{tag}: replayed");
                    replayed[k] += fast.replayed_insts;
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 40 * (Level::ALL.len() + 1) * 3 * mems.len());
    replayed
}

#[test]
fn engines_identical_on_full_grid_under_perfect_memory() {
    let replayed = assert_engines_agree_on_grid(&[MemConfig::Perfect]);
    assert!(replayed[0] > 0, "the steady-state fast path never ran");
}

#[test]
fn engines_identical_on_full_grid_under_finite_cache() {
    // `pool_simulate_cachemem`'s small slow and larger faster L1s, and a
    // small L1 with asymmetric penalties behind an L2: load misses retime
    // results, store misses stall issue, dirty victims land in the L2 —
    // both engines must interleave all of it identically.
    let mems = [
        MemConfig::cache(CacheParams::new(4, 16, 2, 30, 30)),
        MemConfig::cache(CacheParams::new(4, 64, 4, 12, 12)),
        MemConfig::cache(CacheParams::new(4, 8, 2, 30, 10).with_l2(8, 32, 2, 6)),
    ];
    for (mem, replayed) in mems.iter().zip(assert_engines_agree_on_grid(&mems)) {
        assert!(replayed > 0, "{}: the fast path never ran", mem.name());
    }
}

/// The fast path's share under `pool_simulate_cachemem`'s 16 × 2, 30-cycle
/// cache at scale 1.0, over a fixed handful of nests whose steady state
/// has a miss pattern of period 1 to 4: a change that silently stopped
/// replaying under a cache would fail here, not just run slower.
#[test]
fn steady_state_share_under_the_pool_cache() {
    let mem = MemConfig::cache(CacheParams::new(4, 16, 2, 30, 30));
    let (mut replayed, mut work) = (0u64, 0u64);
    for name in ["NAS-4", "APS-3", "add", "dotprod", "sum"] {
        let meta = table2().into_iter().find(|m| m.name == name).unwrap();
        let w = build(&meta, 1.0);
        let limits = SimLimits::cycles(cycle_budget(interpret(&w.program, &w.init).stmts_executed));
        for level in Level::ALL {
            for width in [1u32, 8] {
                let machine = Machine::issue(width).with_mem(mem);
                let compiled = compile(&w, level, &machine);
                let init = memory_from_init(&compiled.module.symtab, &w.init);
                let r = simulate_limited(&compiled.module, &machine, init, limits).unwrap();
                (replayed, work) = (replayed + r.replayed_insts, work + r.dyn_insts);
            }
        }
    }
    assert!(replayed * 10 >= work * 9, "replayed {replayed} of {work}");
}

/// Structural corruption of compiled code is an error in both engines,
/// and the decoded engine's is the IR verifier's, identical in reason
/// (the verifier's code) and coordinates, returned before any cycle: with
/// no budget for a single instruction it is still that error. The
/// reference interpreter, the oracle for verified modules only, names
/// what it trips on as it runs.
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
            let e = verify_module(&compiled.module).expect_err(name);
            let want = SimError::Malformed { block: e.block, index: e.index, reason: e.code };
            let nothing = SimLimits { max_cycles: 0, max_dyn_insts: 0 };
            for limits in [limits, nothing] {
                let fast = simulate_limited(&compiled.module, &machine, mem.clone(), limits);
                assert_eq!(fast.expect_err(name), want, "{level}/{name}");
            }
            let oracle =
                simulate_limited_reference(&compiled.module, &machine, mem, limits);
            assert!(oracle.is_err(), "{level}/{name}: the reference ran a corrupted module");
        }
    }
}
