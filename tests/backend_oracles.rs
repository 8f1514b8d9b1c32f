//! Oracles for the two per-width backend kernels that run incrementally.
//!
//! List-scheduling placement keeps a ready list instead of rescanning the
//! block for every pick and every cycle advance, and `regalloc::measure`
//! keeps per-class counts instead of recounting the live set after every
//! instruction. Each is held here to its full-rescan form, on every
//! post-superblock block of the 40 nests × 6 levels × VLEN {1, 4}, under
//! issue 1, 2, 4 and 8, one and two memory ports, and a latency table that
//! is not Table 1's.

use ilp_compiler::analysis::{Liveness, RegSet};
use ilp_compiler::core_transforms::level::{Level, TransformReport, PASSES};
use ilp_compiler::core_transforms::unroll::UnrollConfig;
use ilp_compiler::ir::lower::lower;
use ilp_compiler::ir::{Function, Inst};
use ilp_compiler::machine::{fu_kind, FuKind, LatencyTable, Machine, TABLE1};
use ilp_compiler::regalloc::{measure, RegUsage};
use ilp_compiler::sched::{
    block_dags, form_superblocks, place, place_module, BlockDag, BlockSchedule, SuperblockConfig,
};
use ilp_compiler::workloads::build_all;

/// Placement with a full rescan: every pick scans all `n` nodes, and so
/// does every cycle advance. This is the placement loop from before the
/// ready list, reading the DAG through [`BlockDag`]'s accessors.
fn rescan_place(insts: &[Inst], dag: &BlockDag, machine: &Machine) -> BlockSchedule {
    let height = dag.heights();
    let issue_width = machine.issue_width.max(1);
    let branch_slots = machine.branch_slots.max(1);

    let n = insts.len();
    let mut time = vec![0u32; n];
    let mut done = vec![false; n];
    let mut preds_left: Vec<usize> = (0..n).map(|i| dag.num_preds(i)).collect();
    let mut earliest = vec![0u32; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);

    let mut cycle: u32 = 0;
    let mut slots_used: u32 = 0;
    let mut branches_used: u32 = 0;
    let mut fu_used = [0u32; 5]; // IntAlu, IntMulDiv, Fp, Mem, Vec
    let fu_index = |k: FuKind| match k {
        FuKind::IntAlu => Some(0),
        FuKind::IntMulDiv => Some(1),
        FuKind::Fp => Some(2),
        FuKind::Mem => Some(3),
        FuKind::Vec => Some(4),
        FuKind::Branch => None,
    };
    let mut scheduled = 0usize;

    while scheduled < n {
        let mut best: Option<usize> = None;
        for i in 0..n {
            if done[i] || preds_left[i] != 0 || earliest[i] > cycle {
                continue;
            }
            if insts[i].op.is_branch() && branches_used >= branch_slots {
                continue;
            }
            let kind = fu_kind(&insts[i]);
            if let Some(fi) = fu_index(kind) {
                if fu_used[fi] >= machine.fu.of(kind) {
                    continue;
                }
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if height[i] > height[b] {
                        best = Some(i);
                    }
                }
            }
        }
        match best {
            Some(i) if slots_used < issue_width => {
                done[i] = true;
                time[i] = cycle;
                order.push(i);
                scheduled += 1;
                slots_used += 1;
                if insts[i].op.is_branch() {
                    branches_used += 1;
                }
                if let Some(fi) = fu_index(fu_kind(&insts[i])) {
                    fu_used[fi] += 1;
                }
                for (to, min_delay) in dag.succs(i) {
                    preds_left[to] -= 1;
                    earliest[to] = earliest[to].max(cycle + min_delay);
                }
            }
            _ => {
                let next = (0..n)
                    .filter(|&i| !done[i] && preds_left[i] == 0)
                    .map(|i| earliest[i])
                    .min()
                    .unwrap_or(cycle + 1)
                    .max(cycle + 1);
                cycle = next;
                slots_used = 0;
                branches_used = 0;
                fu_used = [0; 5];
            }
        }
    }

    BlockSchedule {
        insts: order.iter().map(|&i| insts[i].clone()).collect(),
        times: order.iter().map(|&i| time[i]).collect(),
        perm: order,
    }
}

/// Peak per-class register pressure, counting the whole live set after
/// every instruction (and after each side exit's live-in set joins it).
fn recount(f: &Function) -> RegUsage {
    let count = |set: &RegSet| {
        let mut n = [0u32; 3];
        for r in set.iter() {
            n[r.class.index()] += 1;
        }
        n
    };
    let lv = Liveness::compute(f);
    let mut peak = [0u32; 3];
    let mut record = |set: &RegSet| {
        for (p, c) in peak.iter_mut().zip(count(set)) {
            *p = (*p).max(c);
        }
    };
    for &bid in f.layout_order() {
        let mut live = lv.live_out(bid).clone();
        record(&live);
        for inst in f.block(bid).insts.iter().rev() {
            if let Some(t) = inst.target {
                live.union_with(lv.live_in(t));
                record(&live);
            }
            if let Some(d) = inst.def() {
                live.remove(d);
            }
            for u in inst.uses() {
                live.insert(u);
            }
            record(&live);
        }
    }
    RegUsage { int: peak[0], flt: peak[1], vec: peak[2] }
}

/// Hold `place` and `measure` to their rescans on every post-superblock
/// block at VLEN `vlen`.
fn check_kernels(vlen: u32) {
    let table1 = [
        Machine::issue(1),
        Machine::issue(2),
        Machine::issue(4),
        Machine::issue(8),
        Machine::issue(8).with_mem_ports(1),
        Machine::issue(8).with_mem_ports(2),
    ];
    let other = [Machine {
        latency: LatencyTable { fp_alu: 9, load: 4, int_mul: 5, ..TABLE1 },
        ..Machine::issue(4)
    }];
    let mut blocks = 0usize;
    for w in build_all(0.05) {
        {
            // Climb the level ladder once, as the artifact cache does.
            let mut module = lower(&w.program).module;
            let mut report = TransformReport::default();
            let ucfg = UnrollConfig { vlen, ..Default::default() };
            for level in Level::ALL {
                for pass in PASSES.iter().filter(|p| p.level == level) {
                    pass.execute(&mut module, &ucfg, &mut report);
                }
                let mut formed = module.clone();
                form_superblocks(&mut formed, &SuperblockConfig::default());
                for machines in [&table1[..], &other[..]] {
                    let dags = block_dags(&formed, &machines[0]);
                    for machine in machines {
                        let tag = format!("{} {level} v{vlen} {}", w.meta.name, machine.name());
                        for &b in formed.func.layout_order() {
                            let insts = &formed.func.block(b).insts;
                            let dag = dags[b.0 as usize].as_ref().expect("a DAG per block");
                            let want = rescan_place(insts, dag, machine);
                            assert_eq!(place(insts, dag, machine), want, "{tag} B{}", b.0);
                            blocks += 1;
                        }
                        let mut scheduled = formed.clone();
                        place_module(&mut scheduled, &dags, machine);
                        assert_eq!(measure(&scheduled.func), recount(&scheduled.func), "{tag}");
                    }
                }
            }
        }
    }
    assert!(blocks > 40 * 6 * 7, "{blocks} blocks placed");
}

#[test]
fn incremental_kernels_equal_their_rescans_scalar() {
    check_kernels(1);
}

#[test]
fn incremental_kernels_equal_their_rescans_vlen4() {
    check_kernels(4);
}
