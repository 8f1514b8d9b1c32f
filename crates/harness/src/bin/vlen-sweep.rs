//! VLEN × issue-width sweep for the SLP vectorization subsystem (Lev6).
//!
//! Crosses the 40-loop grid with vector lengths {1, 2, 4, 8} and issue
//! widths {1, 4, 8} on one work-stealing pool (one scenario per VLEN —
//! VLEN is compile-relevant, so each gets its own artifact-cache keys).
//! Reports, per loop: the Lev4 scalar speedup and the Lev6 speedup at
//! every VLEN (issue-8, over the issue-1 Conv base), plus the number of
//! SLP packs formed. Then checks the subsystem's two structural
//! invariants on the measured data:
//!
//! * **VLEN = 1 is Lev4**: at vector length 1 the SLP pass must be a
//!   structural no-op, so Lev6 cycle counts equal Lev4's on every
//!   (loop, width) point.
//! * **Vectorization never miscompiles**: every point already passed the
//!   differential check against the AST interpreter inside `evaluate`
//!   (a failure would surface as a grid error, and any error aborts).
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin vlen-sweep \
//!     [-- --scale 0.25] [--quick]
//! ```
//!
//! `--quick` shrinks the sweep (VLEN {1, 4}, widths {1, 8}, scale 0.05)
//! for smoke runs; `scripts/verify.sh` runs it that way. Output is
//! deterministic for a given argument set.

use ilpc_core::level::Level;
use ilpc_harness::compile::compile;
use ilpc_harness::sweep::{run_sweep, Scenario, Sweep, SweepConfig};
use ilpc_machine::Machine;
use ilpc_testkit::cli::Args;
use ilpc_workloads::build_all;

fn main() {
    let mut args = Args::from_env("vlen-sweep", "vlen-sweep [--scale F] [--quick]");
    let quick = args.switch("--quick");
    let scale: f64 = args.opt("--scale").unwrap_or(if quick { 0.05 } else { 0.25 });
    args.finish();
    let vlens: Vec<u32> = if quick { vec![1, 4] } else { vec![1, 2, 4, 8] };
    let widths: Vec<u32> = if quick { vec![1, 8] } else { vec![1, 4, 8] };
    let levels = vec![Level::Conv, Level::Lev4, Level::Lev6];

    eprintln!(
        "sweeping {} loops x VLEN {vlens:?} x width {widths:?} (scale {scale})...",
        40
    );
    let sweep: Sweep = run_sweep(&SweepConfig {
        scale,
        levels,
        widths: widths.clone(),
        scenarios: vlens.iter().map(|&v| Scenario::vlen(v)).collect(),
        ..SweepConfig::default()
    })
    .expect("sweep config rejected");
    for (s, g) in sweep.scenarios.iter().zip(&sweep.grids) {
        assert!(g.errors.is_empty(), "scenario {}: {:#?}", s.label, g.errors);
    }

    // Pack census is width-independent: one compile per (loop, VLEN).
    let workloads = build_all(scale);
    let packs: Vec<Vec<usize>> = workloads
        .iter()
        .map(|w| {
            vlens
                .iter()
                .map(|&v| {
                    compile(w, Level::Lev6, &Machine::issue(8).with_vlen(v))
                        .report
                        .packs_formed
                })
                .collect()
        })
        .collect();

    // Per-loop table: issue-8 speedups over the scenario's own issue-1
    // Conv base (Conv is VLEN-insensitive, so the bases agree).
    let w8 = *widths.last().unwrap();
    print!("{:<10} {:>9}", "loop", format!("Lev4/w{w8}"));
    for &v in &vlens {
        print!(" {:>9}", format!("Lev6/v{v}"));
    }
    println!(" {:>6}", "packs");
    let mut vectorized = 0usize;
    for (wi, w) in workloads.iter().enumerate() {
        let g0 = &sweep.grids[0];
        print!(
            "{:<10} {:>8.2}x",
            w.meta.name,
            g0.speedup(w.meta.name, Level::Lev4, w8).unwrap()
        );
        for (si, _) in vlens.iter().enumerate() {
            let s = sweep.grids[si].speedup(w.meta.name, Level::Lev6, w8).unwrap();
            print!(" {:>8.2}x", s);
        }
        let max_packs = *packs[wi].iter().max().unwrap();
        println!(" {:>6}", max_packs);
        if max_packs > 0 {
            vectorized += 1;
        }
    }

    println!();
    for (si, &v) in vlens.iter().enumerate() {
        let g = &sweep.grids[si];
        let names = workloads.iter().map(|w| w.meta.name);
        let mean = g.mean_speedup(names, Level::Lev6, w8);
        println!(
            "VLEN {v}: issue-{w8} mean Lev6 speedup = {:.2}x",
            mean.complete().expect("full coverage")
        );
    }
    println!("{vectorized}/40 loops form at least one SLP pack");

    // Invariant: VLEN = 1 is cycle-identical to Lev4 at every width.
    let v1 = vlens.iter().position(|&v| v == 1).expect("VLEN 1 in sweep");
    let mut mismatches = 0usize;
    for w in &workloads {
        for &width in &widths {
            let c4 = sweep.grids[v1].point(w.meta.name, Level::Lev4, width).unwrap().cycles;
            let c6 = sweep.grids[v1].point(w.meta.name, Level::Lev6, width).unwrap().cycles;
            if c4 != c6 {
                eprintln!(
                    "MISMATCH {} w{width}: Lev4 {c4} cycles, Lev6/v1 {c6} cycles",
                    w.meta.name
                );
                mismatches += 1;
            }
        }
    }
    assert_eq!(mismatches, 0, "VLEN=1 must be cycle-identical to Lev4");
    println!("VLEN=1 cycle-identical to Lev4 on all {} points", 40 * widths.len());
    println!(
        "artifact cache: {} compiles, {} hits; {} steals",
        sweep.cache.compiles, sweep.cache.hits, sweep.steals.steals
    );
}
