//! Differential guarantee for the work-stealing grid engine.
//!
//! `run_grid` (per-worker deques, steal-half) replaced the fork-join
//! atomic-counter loop as the default engine; `run_grid_forkjoin` stays as
//! the executable oracle. The two must be indistinguishable on every
//! observable — the deterministic `(name, level, width)` point stream, the
//! measured [`EvalPoint`]s, the typed per-point error list, and every
//! coverage-carrying aggregate — across the full grid
//! (40 workloads × every level × widths {1, 4, 8}), under perfect memory,
//! under a finite cache, and with a sabotaged point degrading both engines
//! identically. One shared [`ArtifactCache`] feeds all six runs, so this
//! suite also proves scheduling order never leaks into compile artifacts.

use ilp_compiler::harness::{ArtifactCache, Grid};
use ilp_compiler::prelude::*;
use std::sync::Arc;

const SCALE: f64 = 0.02;
const WIDTHS: [u32; 3] = [1, 4, 8];
const POINTS: usize = 40 * Level::ALL.len() * 3;

fn full_cfg(
    mem: MemConfig,
    sabotage: Option<Sabotage>,
    cache: &Arc<ArtifactCache>,
) -> GridConfig {
    GridConfig {
        scale: SCALE,
        levels: Level::ALL.to_vec(),
        widths: WIDTHS.to_vec(),
        threads: 4,
        mem,
        sabotage,
        artifacts: Some(Arc::clone(cache)),
    }
}

/// Every observable of the two grids must match exactly.
fn assert_grids_identical(tag: &str, ws: &Grid, fj: &Grid) {
    assert_eq!(ws.levels, fj.levels, "{tag}: levels");
    assert_eq!(ws.widths, fj.widths, "{tag}: widths");
    assert_eq!(ws.completed(), fj.completed(), "{tag}: completed count");

    let ws_points: Vec<_> = ws.iter_points().collect();
    let fj_points: Vec<_> = fj.iter_points().collect();
    assert_eq!(ws_points.len(), fj_points.len(), "{tag}: point stream length");
    for (a, b) in ws_points.iter().zip(&fj_points) {
        assert_eq!(a, b, "{tag}: point stream diverged");
    }

    let sort_key =
        |e: &ilp_compiler::harness::grid::GridError| (e.workload.clone(), e.level, e.width);
    let mut ws_errors = ws.errors.clone();
    let mut fj_errors = fj.errors.clone();
    ws_errors.sort_by_key(sort_key);
    fj_errors.sort_by_key(sort_key);
    assert_eq!(ws_errors, fj_errors, "{tag}: typed error list");

    // Aggregates (value AND coverage) agree at every coordinate.
    let names: Vec<&str> = ws.meta.iter().map(|m| m.name).collect();
    for &level in Level::ALL.iter() {
        for width in WIDTHS {
            assert_eq!(
                ws.mean_speedup(names.iter().copied(), level, width),
                fj.mean_speedup(names.iter().copied(), level, width),
                "{tag}: mean_speedup at ({level}, issue-{width})"
            );
            assert_eq!(
                ws.mean_regs(names.iter().copied(), level, width),
                fj.mean_regs(names.iter().copied(), level, width),
                "{tag}: mean_regs at ({level}, issue-{width})"
            );
        }
    }
}

/// The one differential drive: six full grids (work-stealing and fork-join
/// under perfect memory, a finite cache, and panic sabotage) off a single
/// shared artifact cache. Sequential on purpose — sharing the cache across
/// all runs is itself under test.
#[test]
fn worksteal_equals_forkjoin_on_full_grid() {
    let cache = Arc::new(ArtifactCache::new());

    // Perfect memory: the paper's model.
    let cfg = full_cfg(MemConfig::Perfect, None, &cache);
    let ws = run_grid(&cfg).expect("valid config");
    let fj = run_grid_forkjoin(&cfg).expect("valid config");
    assert_eq!(ws.completed(), POINTS, "perfect: full grid completes");
    assert!(ws.errors.is_empty(), "perfect: {:?}", ws.errors);
    assert_grids_identical("perfect", &ws, &fj);

    // Finite cache: miss latencies perturb every cycle count, and the
    // engines must still agree point for point.
    let cfg = full_cfg(MemConfig::Cache(CacheParams::small()), None, &cache);
    let ws = run_grid(&cfg).expect("valid config");
    let fj = run_grid_forkjoin(&cfg).expect("valid config");
    assert_eq!(ws.completed(), POINTS, "cached: full grid completes");
    assert!(ws.errors.is_empty(), "cached: {:?}", ws.errors);
    assert_grids_identical("cached", &ws, &fj);
    // Memory hierarchy is not compile-relevant, so the cached grids reuse
    // the perfect grids' artifacts instead of recompiling.
    let counters = cache.counters();
    assert!(
        counters.hits >= counters.compiles,
        "cross-run artifact reuse missing: {counters:?}"
    );
    // Nor is issue width: every level of every nest was climbed once.
    assert_eq!(counters.rungs, (40 * Level::ALL.len()) as u64, "{counters:?}");

    // A sabotaged point must degrade both engines to the same typed error
    // while every other point stays identical.
    let sabotage = Sabotage {
        workload: "dotprod".to_string(),
        level: Level::Lev3,
        width: 8,
        mode: SabotageMode::Panic,
    };
    let cfg = full_cfg(MemConfig::Perfect, Some(sabotage), &cache);
    let ws = run_grid(&cfg).expect("valid config");
    let fj = run_grid_forkjoin(&cfg).expect("valid config");
    assert_eq!(ws.completed(), POINTS - 1, "sabotage: one hole");
    assert_eq!(ws.errors.len(), 1);
    assert_eq!(ws.errors[0].workload, "dotprod");
    assert!(matches!(
        ws.errors[0].error,
        ilp_compiler::harness::grid::PointError::Panic(_)
    ));
    assert_grids_identical("sabotaged", &ws, &fj);
    assert!(ws.point("dotprod", Level::Lev3, 8).is_none());
    // Coverage accounting carries the hole identically in both engines.
    let names: Vec<&str> = ws.meta.iter().map(|m| m.name).collect();
    let agg = ws.mean_speedup(names.iter().copied(), Level::Lev3, 8);
    assert_eq!((agg.covered(), agg.requested()), (39, 40));
}
