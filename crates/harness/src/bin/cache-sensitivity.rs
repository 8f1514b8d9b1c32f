//! Cache sensitivity study: how much of the Lev1–Lev4 transformation gains
//! survive a finite memory hierarchy.
//!
//! The paper's node processor (§3.1) assumes a 100 % data-cache hit rate,
//! so every headline speedup is an upper bound. This study sweeps L1
//! capacity × miss latency over the 40-workload grid at Conv..Lev4 and
//! reports, per (level, width): the mean speedup over the issue-1 Conv
//! *perfect-memory* baseline, the aggregate L1 hit rate, and the fraction
//! of the perfect-memory speedup retained.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin cache-sensitivity \
//!     [-- --scale 0.25] [--quick]
//! ```
//!
//! `--quick` shrinks the sweep (fewer cache points, levels and widths) for
//! smoke runs; `scripts/verify.sh` runs it with `--scale 0.02 --quick`.
//! Output is deterministic for a given argument set.

use ilpc_core::level::Level;
use ilpc_harness::artifact::ArtifactCache;
use ilpc_harness::grid::Grid;
use ilpc_harness::sweep::{run_sweep, Scenario, SweepConfig};
use ilpc_machine::{CacheParams, MemConfig};
use ilpc_testkit::cli::Args;
use std::sync::Arc;

/// Acceptance invariants of one scenario's grid: no failed point, and
/// consistent cache statistics on every point.
fn check_grid(grid: &Grid, levels: &[Level], widths: &[u32]) {
    assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
    for m in &grid.meta {
        for &level in levels {
            for &width in widths {
                let s = grid.point(m.name, level, width).unwrap().mem;
                assert_eq!(
                    s.accesses(),
                    s.hits() + s.misses(),
                    "{} {level} issue-{width}: inconsistent stats {s:?}",
                    m.name
                );
            }
        }
    }
}

/// Mean speedup of `(level, width)` in `g` over the shared perfect-memory
/// issue-1 Conv baseline.
fn mean_speedup(g: &Grid, base: &Grid, level: Level, width: u32) -> f64 {
    let mut sum = 0.0;
    for m in &g.meta {
        let b = base.point(m.name, Level::Conv, 1).unwrap().cycles as f64;
        let c = g.point(m.name, level, width).unwrap().cycles as f64;
        sum += b / c;
    }
    sum / g.meta.len() as f64
}

fn main() {
    let mut args = Args::from_env("cache-sensitivity", "cache-sensitivity [--scale F] [--quick]");
    let scale: f64 = args.opt("--scale").unwrap_or(0.25);
    let quick = args.switch("--quick");
    args.finish();

    let levels: Vec<Level> = if quick {
        vec![Level::Conv, Level::Lev2, Level::Lev4]
    } else {
        Level::ALL.to_vec()
    };
    let widths: Vec<u32> = if quick { vec![8] } else { vec![4, 8] };

    // L1 capacity sweep (4-word = 32-byte lines, 2-way): 0.5 KiB .. 32 KiB.
    let sizes: &[(&str, u32)] = if quick {
        &[("0.5KiB", 8), ("8KiB", 128)]
    } else {
        &[("0.5KiB", 8), ("2KiB", 32), ("8KiB", 128), ("32KiB", 512)]
    };
    let miss_lats: &[u32] = if quick { &[30] } else { &[10, 30, 100] };

    println!("cache-sensitivity: transformation gains under a finite memory hierarchy");
    println!("baseline: issue-1 Conv, perfect memory; scale {scale}");
    println!();

    // Every grid carries the (Conv, issue-1) baseline axes: `run_sweep`
    // validates them, and self-contained grids are what give the shared
    // artifact cache a clean invariant.
    let mut eval_widths = widths.clone();
    if !eval_widths.contains(&1) {
        eval_widths.push(1);
    }
    let mut eval_levels = levels.clone();
    if !eval_levels.contains(&Level::Conv) {
        eval_levels.push(Level::Conv);
    }
    // One sweep over every memory configuration, perfect memory first:
    // one work-stealing pool without a barrier per configuration, and one
    // artifact cache — compilation depends only on the machine's compile
    // key, so the cached configurations reuse what the first one built.
    let params = |sets: u32, lat: u32| CacheParams::new(4, sets, 2, lat, lat);
    let cached = sizes.iter().flat_map(|&(_, sets)| {
        miss_lats.iter().map(move |&lat| MemConfig::Cache(params(sets, lat)))
    });
    let artifacts = Arc::new(ArtifactCache::new());
    let sweep = run_sweep(&SweepConfig {
        scale,
        levels: eval_levels.clone(),
        widths: eval_widths.clone(),
        scenarios: std::iter::once(MemConfig::Perfect).chain(cached).map(Scenario::mem).collect(),
        artifacts: Some(Arc::clone(&artifacts)),
        ..SweepConfig::default()
    })
    .expect("sweep config rejected");
    for grid in &sweep.grids {
        check_grid(grid, &eval_levels, &eval_widths);
    }
    let (perfect, mut cached_grids) = (&sweep.grids[0], sweep.grids[1..].iter());

    let header = |tag: &str| {
        print!("{:<30} {:>5} {:>7}", tag, "width", "hit%");
        for &level in &levels {
            print!(" {:>7}", format!("{level}"));
        }
        println!("   (retained at top level)");
    };
    header("configuration");
    for &width in &widths {
        print!("{:<30} {:>5} {:>7}", "perfect (upper bound)", width, "100.0");
        for &level in &levels {
            print!(" {:>6.2}x", mean_speedup(perfect, perfect, level, width));
        }
        println!();
    }
    println!();

    for &(size_name, sets) in sizes {
        for &lat in miss_lats {
            let g = cached_grids.next().expect("one grid per memory configuration");
            let tag = format!("L1 {size_name} ({}) m{lat}", params(sets, lat).name());
            for &width in &widths {
                let hit = g
                    .hit_rate(g.meta.iter().map(|m| m.name), *levels.last().unwrap(), width)
                    .complete()
                    .expect("clean grid must aggregate completely");
                print!("{:<30} {:>5} {:>7.1}", tag, width, hit * 100.0);
                for &level in &levels {
                    print!(" {:>6.2}x", mean_speedup(g, perfect, level, width));
                }
                let top = *levels.last().unwrap();
                let retained = mean_speedup(g, perfect, top, width)
                    / mean_speedup(perfect, perfect, top, width);
                println!("   ({:.0}%)", retained * 100.0);
            }
        }
        println!();
    }

    // The sweep varied only the memory hierarchy, so every (workload,
    // level, width) must have been compiled exactly once — the remaining
    // grid passes are pure artifact-cache hits. This is the acceptance
    // invariant for the compile-artifact cache; fail loudly if it slips.
    let c = artifacts.counters();
    let distinct = 40 * eval_levels.len() * eval_widths.len();
    println!(
        "artifact cache: {} compiles / {} hits ({} distinct artifacts), \
reference interp: {} runs / {} hits",
        c.compiles, c.hits, artifacts.distinct_artifacts(), c.ref_runs, c.ref_hits
    );
    assert_eq!(
        c.compiles as usize, distinct,
        "memory-config sweep must compile once per (workload, level, width)"
    );
    assert_eq!(artifacts.distinct_artifacts(), distinct);
    assert_eq!(c.ref_runs, 40, "one reference interpretation per workload");
    println!();

    println!("speedup = mean over the 40 loops vs the issue-1 Conv perfect-memory");
    println!("baseline; hit% = aggregate L1 hit rate at the highest level shown.");
    println!("Where hit rates fall, unrolling+expansion gains collapse toward the");
    println!("memory bound — the part of the paper's story the 100%-hit model hides.");
}
