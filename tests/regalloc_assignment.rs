//! Graph-coloring register assignment, validated on real compiled code:
//! rewriting every workload onto physical registers must preserve simulated
//! results and cycle counts exactly, and the color count must match the
//! MAXLIVE bound the figures report (greedy coloring on these interference
//! graphs achieves the lower bound; a regression here means the allocator
//! started wasting registers).

use ilp_compiler::harness::compile::compile;
use ilp_compiler::prelude::*;
use ilp_compiler::regalloc::{assign_registers, measure};
use ilp_compiler::sim::{memory_from_init, simulate};

#[test]
fn physical_assignment_preserves_results_and_timing() {
    for w in build_all(0.04) {
        let machine = Machine::issue(8);
        let compiled = compile(&w, Level::Lev4, &machine);
        let mem = memory_from_init(&compiled.module.symtab, &w.init);
        let before = simulate(&compiled.module, &machine, mem.clone(), 50_000_000)
            .unwrap();

        let mut phys = compiled.module.clone();
        let usage = assign_registers(&mut phys.func);
        ilp_compiler::ir::verify::verify_module(&phys)
            .unwrap_or_else(|e| panic!("{}: {e}", w.meta.name));

        let after = simulate(&phys, &machine, mem, 50_000_000).unwrap();
        assert_eq!(before.memory, after.memory, "{}", w.meta.name);
        assert_eq!(before.cycles, after.cycles, "{}", w.meta.name);
        assert_eq!(before.dyn_insts, after.dyn_insts, "{}", w.meta.name);

        // Colors stay close to the MAXLIVE lower bound (loop-carried
        // ranges wrap the back edge, so the graph is not a pure interval
        // graph; allow a small slack and flag anything worse).
        let bound = measure(&compiled.module.func);
        let slack = |b: u32| b + 2 + b / 8;
        assert!(
            usage.int <= slack(bound.int) && usage.flt <= slack(bound.flt),
            "{}: colored {usage:?} vs maxlive {bound:?}",
            w.meta.name
        );
        // And the physical code's own MAXLIVE equals its register count.
        let phys_bound = measure(&phys.func);
        assert!(phys_bound.total() <= usage.total(), "{}", w.meta.name);
    }
}

#[test]
fn assignment_is_idempotent() {
    let meta = table2().into_iter().find(|m| m.name == "dotprod").unwrap();
    let w = build(&meta, 0.05);
    let compiled = compile(&w, Level::Lev4, &Machine::issue(8));
    let mut once = compiled.module.clone();
    let u1 = assign_registers(&mut once.func);
    let mut twice = once.clone();
    let u2 = assign_registers(&mut twice.func);
    assert_eq!(u1.total(), u2.total());
}

/// A value live only into a side exit, and redefined after it, is live at
/// the branch: `r0i` (5) must survive `blt` into `B1` while `r1i` (7) is
/// live too. Both register walks add the branch target's live-in set, so
/// MAXLIVE counts 2 and the colouring keeps the two apart.
#[test]
fn side_exit_liveness_counts_and_colours() {
    let text = "\
.module sideexit
.sym out int 2
.func sideexit
.block B0 entry
    mov r0i, #5
    mov r1i, #7
    st @0, #1, r1i, tag=0:0:1:0
    blt r1i, #100, ->B1
    mov r0i, #9
    st @0, #0, r0i, tag=0:0:0:0
    halt
.block B1 exit
    st @0, #0, r0i, tag=0:0:0:0
    halt
";
    let module = ilp_compiler::ir::text::parse(text).unwrap();
    assert_eq!(measure(&module.func).int, 2);

    let machine = Machine::issue(1);
    let mut phys = module.clone();
    let usage = assign_registers(&mut phys.func);
    assert_eq!(usage.int, 2);
    for m in [&module, &phys] {
        let r = simulate(m, &machine, vec![0, 0], 1_000).unwrap();
        assert_eq!(r.memory, vec![5, 7]);
    }
}
