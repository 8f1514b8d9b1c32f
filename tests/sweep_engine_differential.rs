//! Differential guarantee for the work-stealing sweep engine.
//!
//! `run_sweep` (per-worker deques, steal-half) is the harness's only way
//! to run grid points. Its oracle lives here, in test code: a sequential
//! reference that enumerates the same (workload, level, width) items and
//! evaluates them one by one, in order, on the test thread. The two must
//! be indistinguishable on every observable — the deterministic
//! `(name, level, width)` point stream, the measured [`EvalPoint`]s, the
//! typed per-point error list, and every coverage-carrying aggregate —
//! across the full grid (40 workloads × every level × widths {1, 4, 8}),
//! under perfect memory, under a finite cache, and with a sabotaged point.
//! One shared [`ArtifactCache`] feeds all six runs, so this suite also
//! proves scheduling order never leaks into compile artifacts; a mini grid
//! compiled from scratch proves the cache's trie does not either.

use ilp_compiler::harness::{ArtifactCache, Grid, GridError, PointError};
use ilp_compiler::machine::{LatencyTable, TABLE1};
use ilp_compiler::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const SCALE: f64 = 0.02;
const WIDTHS: [u32; 3] = [1, 4, 8];
const POINTS: usize = 40 * Level::ALL.len() * 3;

type Key = (String, Level, u32);
type Outcome = Result<EvalPoint, PointError>;

/// The sweep's one grid over every level × [`WIDTHS`] under `mem`.
fn sweep(mem: MemConfig, sabotage: Option<Sabotage>, cache: &Arc<ArtifactCache>) -> Grid {
    let sweep = run_sweep(&SweepConfig {
        scale: SCALE,
        levels: Level::ALL.to_vec(),
        widths: WIDTHS.to_vec(),
        threads: 4,
        scenarios: vec![Scenario::mem(mem)],
        sabotage,
        artifacts: Some(Arc::clone(cache)),
    })
    .expect("valid config");
    sweep.grids.into_iter().next().expect("one scenario yields one grid")
}

/// The sequential reference: every (workload, level, width) in catalog ×
/// level × width order, evaluated on this thread through `cache`. The
/// sabotaged point is the contained panic the sweep must report.
fn reference(
    workloads: &[Workload],
    mem: MemConfig,
    sabotage: Option<&Sabotage>,
    cache: &ArtifactCache,
) -> Vec<(Key, Outcome)> {
    let mut out = Vec::with_capacity(POINTS);
    for w in workloads {
        let name = w.meta.name;
        for level in Level::ALL {
            for width in WIDTHS {
                let hit = sabotage
                    .is_some_and(|s| s.workload == name && s.level == level && s.width == width);
                let r = if hit {
                    let msg = format!("sabotaged grid point: {name} {level} issue-{width}");
                    Err(PointError::Panic(msg))
                } else {
                    let machine = Machine::issue(width).with_mem(mem);
                    cache.evaluate(w, level, &machine).map_err(PointError::Eval)
                };
                out.push(((name.to_string(), level, width), r));
            }
        }
    }
    out
}

/// Every observable of `grid` must equal the reference's.
fn assert_matches_reference(tag: &str, grid: &Grid, reference: &[(Key, Outcome)]) {
    assert_eq!(grid.levels, Level::ALL, "{tag}: levels");
    assert_eq!(grid.widths, WIDTHS, "{tag}: widths");

    let mut want: Vec<(Key, EvalPoint)> =
        reference.iter().filter_map(|(k, r)| Some((k.clone(), *r.as_ref().ok()?))).collect();
    want.sort_by(|a, b| a.0.cmp(&b.0));
    let got: Vec<(Key, EvalPoint)> =
        grid.iter_points().map(|(n, l, w, p)| ((n.to_string(), l, w), *p)).collect();
    assert_eq!(got.len(), want.len(), "{tag}: point stream length");
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(a, b, "{tag}: point stream diverged");
    }

    let sort_key = |e: &GridError| (e.workload.clone(), e.level, e.width);
    let mut got_errors = grid.errors.clone();
    got_errors.sort_by_key(sort_key);
    let mut want_errors: Vec<GridError> = reference
        .iter()
        .filter_map(|((workload, level, width), r)| {
            let error = r.as_ref().err()?.clone();
            Some(GridError { workload: workload.clone(), level: *level, width: *width, error })
        })
        .collect();
    want_errors.sort_by_key(sort_key);
    assert_eq!(got_errors, want_errors, "{tag}: typed error list");

    // Aggregates (value AND coverage) agree at every coordinate, summed in
    // catalog order as the grid sums them.
    let points: HashMap<(&str, Level, u32), &EvalPoint> = want
        .iter()
        .map(|((n, l, w), p)| ((n.as_str(), *l, *w), p))
        .collect();
    let names: Vec<&str> = grid.meta.iter().map(|m| m.name).collect();
    for level in Level::ALL {
        for width in WIDTHS {
            let (mut speedups, mut regs, mut covered_s, mut covered_r) = (0.0, 0u64, 0, 0);
            for &n in &names {
                let this = points.get(&(n, level, width));
                if let (Some(base), Some(this)) = (points.get(&(n, Level::Conv, 1)), this) {
                    speedups += base.cycles as f64 / this.cycles as f64;
                    covered_s += 1;
                }
                if let Some(this) = this {
                    regs += this.regs.total() as u64;
                    covered_r += 1;
                }
            }
            let agg = grid.mean_speedup(names.iter().copied(), level, width);
            assert_eq!(
                (agg.covered(), agg.requested(), agg.partial()),
                (covered_s, names.len(), (covered_s > 0).then(|| speedups / covered_s as f64)),
                "{tag}: mean_speedup at ({level}, issue-{width})"
            );
            let agg = grid.mean_regs(names.iter().copied(), level, width);
            assert_eq!(
                (agg.covered(), agg.requested(), agg.partial()),
                (covered_r, names.len(), (covered_r > 0).then(|| regs as f64 / covered_r as f64)),
                "{tag}: mean_regs at ({level}, issue-{width})"
            );
        }
    }
}

/// The full-grid drive: three sweeps (perfect memory, a finite cache, and
/// panic sabotage), each held to the sequential reference, all off a
/// single shared artifact cache. Sequential on purpose — sharing the cache
/// across all runs is itself under test.
#[test]
fn sweep_equals_sequential_reference_on_full_grid() {
    let cache = Arc::new(ArtifactCache::new());
    let workloads = build_all(SCALE);

    // Perfect memory: the paper's model.
    let perfect = sweep(MemConfig::Perfect, None, &cache);
    assert_eq!(perfect.completed(), POINTS, "perfect: full grid completes");
    assert!(perfect.errors.is_empty(), "perfect: {:?}", perfect.errors);
    let want = reference(&workloads, MemConfig::Perfect, None, &cache);
    assert_matches_reference("perfect", &perfect, &want);

    // Finite cache: miss latencies perturb every cycle count, and the
    // sweep must still match the reference point for point.
    let small = MemConfig::Cache(CacheParams::small());
    let cached = sweep(small, None, &cache);
    assert_eq!(cached.completed(), POINTS, "cached: full grid completes");
    assert!(cached.errors.is_empty(), "cached: {:?}", cached.errors);
    assert_matches_reference("cached", &cached, &reference(&workloads, small, None, &cache));
    // Memory hierarchy is not compile-relevant, so every run after the
    // first reused the first one's artifacts instead of recompiling.
    let counters = cache.counters();
    assert_eq!(counters.compiles, POINTS as u64, "{counters:?}");
    assert_eq!(counters.hits, 3 * POINTS as u64, "{counters:?}");
    // Nor is issue width: every level of every nest was climbed once.
    assert_eq!(counters.rungs, (40 * Level::ALL.len()) as u64, "{counters:?}");
    // The perfect-memory sweep's 240 work items (nest, level) each built
    // one backend front for all three widths; the cached sweep compiled
    // nothing, so it built none.
    assert_eq!(counters.fronts, (40 * Level::ALL.len()) as u64, "{counters:?}");

    // A sabotaged point degrades to one contained panic while every
    // other point stays identical — to the reference and to the clean run.
    let sabotage = Sabotage {
        workload: "dotprod".to_string(),
        level: Level::Lev3,
        width: 8,
        mode: SabotageMode::Panic,
    };
    let sabotaged = sweep(MemConfig::Perfect, Some(sabotage.clone()), &cache);
    let want = reference(&workloads, MemConfig::Perfect, Some(&sabotage), &cache);
    assert_matches_reference("sabotaged", &sabotaged, &want);
    assert_eq!(sabotaged.completed(), POINTS - 1, "sabotage: one hole");
    assert_eq!(sabotaged.errors.len(), 1);
    assert_eq!(sabotaged.errors[0].workload, "dotprod");
    assert!(matches!(sabotaged.errors[0].error, PointError::Panic(_)));
    let clean: Vec<_> = perfect
        .iter_points()
        .filter(|&(n, l, w, _)| (n, l, w) != ("dotprod", Level::Lev3, 8))
        .collect();
    assert_eq!(sabotaged.iter_points().collect::<Vec<_>>(), clean);
    let names: Vec<&str> = sabotaged.meta.iter().map(|m| m.name).collect();
    let agg = sabotaged.mean_speedup(names.iter().copied(), Level::Lev3, 8);
    assert_eq!((agg.covered(), agg.requested()), (39, 40));
}

/// The sweep climbs each nest's level ladder once and places every width's
/// artifact from one backend front per (nest, level); compiling each point
/// from scratch with [`evaluate`] must give bit-equal points. Then the
/// same for scenarios that share a front across FU limits and memory, and
/// for a latency table and a `vlen` that each need a front of their own.
#[test]
fn sweep_equals_compile_from_scratch_on_mini_grid() {
    let (levels, widths) = (vec![Level::Conv, Level::Lev2], vec![1u32, 8]);
    let sweep = run_sweep(&SweepConfig {
        scale: SCALE,
        levels: levels.clone(),
        widths: widths.clone(),
        threads: 4,
        ..SweepConfig::default()
    })
    .expect("valid config");
    let grid = &sweep.grids[0];
    assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
    // One front per work item (nest, level), serving both widths.
    assert_eq!(sweep.cache.fronts, (40 * levels.len()) as u64, "{:?}", sweep.cache);
    assert_eq!(grid.completed(), 40 * levels.len() * widths.len());
    for w in build_all(SCALE) {
        for &level in &levels {
            for &width in &widths {
                let scratch = evaluate(&w, level, &Machine::issue(width)).expect("clean point");
                let got = grid.point(w.meta.name, level, width);
                assert_eq!(got, Some(&scratch), "{} {level} issue-{width}", w.meta.name);
            }
        }
    }

    // Five machines in one sweep. The paper's machine and one memory port
    // form one front group; two FP units behind a finite cache, load
    // latency 4 and vlen 4 are a group each, the first for its memory
    // alone. Lev6 is where vlen changes the code, so a front shared across
    // vlens would place scalar code for the vlen-4 points. The vlen-4
    // scenario sits between members of the first group: a grouping that
    // ignored it would rebuild the front twice per item, and the front
    // count below would show it.
    let with = |label: &str, machine: Machine| Scenario { label: label.to_string(), machine };
    let load4 = LatencyTable { load: 4, ..TABLE1 };
    let scenarios = vec![
        Scenario::mem(MemConfig::Perfect),
        Scenario::vlen(4),
        with("mem1", Machine::base().with_mem_ports(1)),
        with("load4", Machine { latency: load4, ..Machine::base() }),
        with("fp2/small", Machine::base().with_fp_units(2).with_cache(CacheParams::small())),
    ];
    let levels = vec![Level::Conv, Level::Lev6];
    let sweep = run_sweep(&SweepConfig {
        scale: SCALE,
        levels: levels.clone(),
        widths: widths.clone(),
        threads: 4,
        scenarios: scenarios.clone(),
        ..SweepConfig::default()
    })
    .expect("valid config");
    let workloads = build_all(SCALE);
    for (s, grid) in scenarios.iter().zip(&sweep.grids) {
        assert!(grid.errors.is_empty(), "{}: {:#?}", s.label, grid.errors);
        assert_eq!(grid.completed(), 40 * levels.len() * widths.len(), "{}", s.label);
        for w in &workloads {
            for &level in &levels {
                for &width in &widths {
                    let machine = Machine { issue_width: width, ..s.machine };
                    let scratch = evaluate(w, level, &machine).expect("clean point");
                    let got = grid.point(w.meta.name, level, width);
                    let at = format!("{} {} {level} issue-{width}", s.label, w.meta.name);
                    assert_eq!(got, Some(&scratch), "{at}");
                }
            }
        }
    }
    // One front per work item (front group, nest, level).
    assert_eq!(sweep.cache.fronts, (4 * 40 * levels.len()) as u64, "{:?}", sweep.cache);
}
