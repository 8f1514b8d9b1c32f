//! What the steady-state fast path retires, pinned exactly.
//!
//! `SimResult::replayed_insts` summed over the `simulate_warm` point set
//! at scale 1.0 (40 nests × 6 levels × issue widths {1, 8}, Lev6 at
//! VLEN 4): a change to how templates are learned or replayed may neither
//! shrink nor inflate it. Of those, `SimResult::elided_insts` (the dead
//! steps the pruned replay program left out) is pinned the same way, and
//! so is `SimResult::moved_accesses`, the accesses the fast path moved the
//! cache over instead of making (none under perfect memory). The
//! engines' agreement on every other observable is
//! `tests/engine_differential.rs`'s job; this file holds the shares.

use ilp_compiler::harness::compile::compile;
use ilp_compiler::harness::run::cycle_budget;
use ilp_compiler::prelude::*;
use ilp_compiler::sim::{memory_from_init, simulate_limited, SimLimits};

#[test]
fn replayed_instructions_over_the_simulate_warm_points_are_pinned() {
    let mems = [MemConfig::Perfect, MemConfig::cache(CacheParams::small())];
    let (mut replayed, mut elided, mut work) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    let mut moved = [0u64; 2];
    for w in build_all(1.0) {
        let limits = SimLimits::cycles(cycle_budget(interpret(&w.program, &w.init).stmts_executed));
        for level in Level::ALL {
            let vlen = if level == Level::Lev6 { 4 } else { 1 };
            for width in [1u32, 8] {
                let machine = Machine::issue(width).with_vlen(vlen);
                let compiled = compile(&w, level, &machine);
                let init = memory_from_init(&compiled.module.symtab, &w.init);
                for (k, &mem) in mems.iter().enumerate() {
                    let machine = machine.with_mem(mem);
                    let r = simulate_limited(&compiled.module, &machine, init.clone(), limits)
                        .unwrap_or_else(|e| panic!("{} {level} issue-{width}: {e}", w.meta.name));
                    replayed[k] += r.replayed_insts;
                    elided[k] += r.elided_insts;
                    moved[k] += r.moved_accesses;
                    work[k] += r.dyn_insts;
                }
            }
        }
    }
    assert_eq!(work, [19_407_833; 2], "dynamic instructions");
    assert_eq!(replayed[0], 18_855_587, "replayed under perfect memory");
    assert_eq!(replayed[1], 18_371_080, "replayed under {}", mems[1].name());
    assert_eq!(elided[0], 7_853_068, "elided under perfect memory");
    assert_eq!(elided[1], 5_796_653, "elided under {}", mems[1].name());
    assert_eq!(moved[0], 0, "moved over under perfect memory");
    // Of 8,541,292 accesses.
    assert_eq!(moved[1], 7_888_920, "moved over under {}", mems[1].name());
}
