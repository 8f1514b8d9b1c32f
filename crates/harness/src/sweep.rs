//! Multi-scenario parameter sweeps on one work-stealing pool — the
//! harness's one way to run grid points.
//!
//! A **sweep** crosses the evaluation grid (40 loops × levels × widths)
//! with N *scenarios* — memory configurations and/or latency tables — in
//! one call; the paper's grid is the one-scenario case (the
//! [`SweepConfig`] defaults: every level, widths 1/2/4/8, perfect memory).
//! Compared with one call per scenario it differs in two ways that matter
//! at scale:
//!
//! * **one scheduler, no barriers**: every (scenario, loop, level, width)
//!   point goes into a single work-stealing pool, so a scenario whose
//!   points are expensive (a cold cache, a slow latency table) is drained
//!   by workers that finished a cheap scenario early, instead of
//!   serializing behind a per-grid barrier;
//! * **one artifact cache**: compilation depends only on the machine's
//!   compile key, so all memory-config scenarios share compiled and
//!   pre-decoded artifacts (latency-table scenarios get their own keys
//!   automatically — the table is compile-relevant).
//!
//! The result splits back into one observably ordinary [`Grid`] per
//! scenario, so every aggregation, figure and report works on sweep
//! output. Scenarios never interact, so a sweep also equals its scenarios
//! run one by one — the equivalence the `ilpc-serve` pool's per-scenario
//! sharding rests on.

use crate::artifact::{ArtifactCache, CacheCounters};
use crate::compile::Front;
use crate::grid::{collect_grid, Grid, GridConfigError, PointError, Sabotage, SabotageMode};
use crate::run::EvalPoint;
use crate::steal::{self, StealStats};
use ilpc_core::level::Level;
use ilpc_guard::panic_message;
use ilpc_ir::{Module, Opcode};
use ilpc_machine::{LatencyTable, Machine, MemConfig, TABLE1};
use ilpc_workloads::{build_all, check_scale, Workload, WorkloadMeta};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One scenario of a sweep: a memory hierarchy, a latency table, and a
/// vector length for the SLP subsystem.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label (defaults to the memory config's name).
    pub label: String,
    pub mem: MemConfig,
    pub latency: LatencyTable,
    /// Vector length handed to the machine (`1` = scalar; only `Lev6`
    /// reacts to it). Compile-relevant, so each VLEN gets its own
    /// artifact-cache keys automatically.
    pub vlen: u32,
}

impl Scenario {
    /// A scenario varying only the memory hierarchy (Table 1 latencies).
    pub fn mem(mem: MemConfig) -> Scenario {
        Scenario { label: mem.name(), mem, latency: TABLE1, vlen: 1 }
    }

    /// A scenario with an explicit latency table.
    pub fn with_latency(label: impl Into<String>, mem: MemConfig, latency: LatencyTable) -> Scenario {
        Scenario { label: label.into(), mem, latency, vlen: 1 }
    }

    /// A scenario varying only the vector length (perfect memory,
    /// Table 1 latencies) — the axis the `vlen-sweep` harness crosses
    /// with issue width.
    pub fn vlen(vlen: u32) -> Scenario {
        Scenario { label: format!("v{vlen}"), mem: MemConfig::Perfect, latency: TABLE1, vlen }
    }
}

/// Sweep configuration: the grid axes plus the scenario list.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Trip-count scale (1.0 = the paper's Table 2 counts).
    pub scale: f64,
    /// Levels to evaluate. [`Level::Conv`] is required: it anchors the
    /// speedup baseline. Duplicates are deduplicated up front.
    pub levels: Vec<Level>,
    /// Issue widths to evaluate (must include the base width 1).
    pub widths: Vec<u32>,
    /// Worker threads for the shared pool.
    pub threads: usize,
    /// Scenarios to cross with the grid. Must be non-empty.
    pub scenarios: Vec<Scenario>,
    /// Deliberately break matching points (fault drills and tests only).
    /// A sabotage directive matches its (workload, level, width) in
    /// *every* scenario.
    pub sabotage: Option<Sabotage>,
    /// Shared compile-artifact cache. `None` (the default) creates a
    /// fresh cache for this sweep; pass `Some` to share artifacts across
    /// sweeps of the same catalog and scale (see [`ArtifactCache`]).
    pub artifacts: Option<Arc<ArtifactCache>>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            scale: 1.0,
            levels: Level::ALL.to_vec(),
            widths: vec![1, 2, 4, 8],
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            scenarios: vec![Scenario::mem(MemConfig::Perfect)],
            sabotage: None,
            artifacts: None,
        }
    }
}

/// Results of a sweep: one [`Grid`] per scenario (parallel vectors), plus
/// scheduler and cache observability.
#[derive(Debug)]
pub struct Sweep {
    pub scenarios: Vec<Scenario>,
    pub grids: Vec<Grid>,
    /// Artifact-cache counters after the sweep (hits/compiles across all
    /// scenarios — the dedup the shared cache bought).
    pub cache: CacheCounters,
    /// Work-stealing scheduler counters.
    pub steals: StealStats,
}

impl Sweep {
    /// Total failed points across all scenarios.
    pub fn total_errors(&self) -> usize {
        self.grids.iter().map(|g| g.errors.len()).sum()
    }
}

/// Run a multi-scenario sweep on one work-stealing pool with one shared
/// artifact cache. Rejects invalid axes with a typed error before any
/// point runs.
pub fn run_sweep(cfg: &SweepConfig) -> Result<Sweep, GridConfigError> {
    let (levels, widths) = validate_axes(cfg.scale, &cfg.levels, &cfg.widths)?;
    if cfg.scenarios.is_empty() {
        return Err(GridConfigError::NoScenarios);
    }
    let workloads: Vec<Workload> = build_all(cfg.scale);
    let meta: Vec<WorkloadMeta> = workloads.iter().map(|w| w.meta.clone()).collect();
    let artifacts: Arc<ArtifactCache> =
        cfg.artifacts.clone().unwrap_or_else(|| Arc::new(ArtifactCache::new()));

    // Work items: (scenario, workload, level), each evaluating every width
    // in order — scenario-major so early scenarios warm the artifact cache
    // for later ones. An item owns the backend front its widths share:
    // superblock formation and the dependence DAGs run once for all of
    // them, and the front is dropped with the item.
    let mut items: Vec<(usize, usize, Level)> = Vec::new();
    for (si, _) in cfg.scenarios.iter().enumerate() {
        for (wi, _) in workloads.iter().enumerate() {
            for &level in &levels {
                items.push((si, wi, level));
            }
        }
    }

    let (results, steals) = steal::execute(&items, cfg.threads.max(1), |_, &(si, wi, level)| {
        let scenario = &cfg.scenarios[si];
        let w = &workloads[wi];
        let mut front = None;
        widths
            .iter()
            .map(|&width| {
                let machine = Machine {
                    latency: scenario.latency,
                    ..Machine::issue(width).with_mem(scenario.mem).with_vlen(scenario.vlen)
                };
                let sabotage = cfg.sabotage.as_ref();
                let r = eval_point(w, level, width, &machine, sabotage, &artifacts, &mut front);
                (si, (w.meta.name.to_string(), level, width), r)
            })
            .collect::<Vec<_>>()
    });

    // Split per scenario, preserving engine-observable ordering.
    let mut buckets: Vec<Vec<_>> = cfg.scenarios.iter().map(|_| Vec::new()).collect();
    for (si, key, r) in results.into_iter().flatten() {
        buckets[si].push((key, r));
    }
    let grids = buckets
        .into_iter()
        .map(|b| collect_grid(meta.clone(), levels.clone(), widths.clone(), b))
        .collect();

    Ok(Sweep {
        scenarios: cfg.scenarios.clone(),
        grids,
        cache: artifacts.counters(),
        steals,
    })
}

/// Validate grid axes: returns the deduplicated (order-preserving) levels
/// and widths, or the first typed configuration error.
pub(crate) fn validate_axes(
    scale: f64,
    levels: &[Level],
    widths: &[u32],
) -> Result<(Vec<Level>, Vec<u32>), GridConfigError> {
    check_scale(scale).map_err(|_| GridConfigError::BadScale(scale))?;
    if levels.is_empty() {
        return Err(GridConfigError::NoLevels);
    }
    if widths.is_empty() {
        return Err(GridConfigError::NoWidths);
    }
    if widths.contains(&0) {
        return Err(GridConfigError::ZeroWidth);
    }
    if !widths.contains(&1) {
        return Err(GridConfigError::MissingBaseWidth);
    }
    if !levels.contains(&Level::Conv) {
        return Err(GridConfigError::MissingBaseLevel);
    }
    // Dedupe preserving first-occurrence order: duplicates would
    // double-evaluate points and silently overwrite map entries.
    fn dedup<T: Copy + PartialEq>(xs: &[T]) -> Vec<T> {
        let mut seen = Vec::new();
        for &x in xs {
            if !seen.contains(&x) {
                seen.push(x);
            }
        }
        seen
    }
    Ok((dedup(levels), dedup(widths)))
}

/// Flip every addition to a subtraction — the kind of systematic
/// miscompile a corrupted pass would produce. Guaranteed to be caught by
/// the differential check (or the simulator) on any workload that
/// computes anything.
fn corrupt_arithmetic(m: &mut Module) {
    let blocks: Vec<_> = m.func.layout_order().to_vec();
    for b in blocks {
        for inst in &mut m.func.block_mut(b).insts {
            match inst.op {
                Opcode::Add => inst.op = Opcode::Sub,
                Opcode::FAdd => inst.op = Opcode::FSub,
                _ => {}
            }
        }
    }
}

/// Evaluate one point through the artifact cache and the work item's
/// backend `front`, honouring a matching sabotage directive, with any panic
/// of the point contained.
fn eval_point(
    w: &Workload,
    level: Level,
    width: u32,
    machine: &Machine,
    sabotage: Option<&Sabotage>,
    artifacts: &ArtifactCache,
    front: &mut Option<Front>,
) -> Result<EvalPoint, PointError> {
    let hit =
        sabotage.filter(|s| s.workload == w.meta.name && s.level == level && s.width == width);
    let eval = || match hit.map(|s| s.mode) {
        Some(SabotageMode::Panic) => {
            panic!("sabotaged grid point: {} {level} issue-{width}", w.meta.name)
        }
        Some(SabotageMode::Corrupt) => {
            // Sabotage must never pollute (or be masked by) the shared
            // cache: compile privately and corrupt that.
            let mut c = crate::compile::compile(w, level, machine);
            corrupt_arithmetic(&mut c.module);
            crate::run::run_compiled(w, &c, machine)
        }
        None => artifacts.evaluate_in(w, level, machine, Some(front)),
    };
    match catch_unwind(AssertUnwindSafe(eval)) {
        Ok(r) => r.map_err(PointError::Eval),
        Err(payload) => Err(PointError::Panic(panic_message(payload))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_machine::CacheParams;

    /// A mini two-scenario sweep: Conv/Lev2 × widths {1, 8}, perfect
    /// memory and the small cache, on four threads and a fresh cache.
    fn two_scenarios() -> SweepConfig {
        SweepConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 4,
            scenarios: vec![
                Scenario::mem(MemConfig::Perfect),
                Scenario::mem(MemConfig::Cache(CacheParams::small())),
            ],
            sabotage: None,
            artifacts: None,
        }
    }

    /// A two-scenario sweep equals each scenario swept alone on one thread,
    /// while compiling each (workload, level, width) exactly once across
    /// both scenarios.
    #[test]
    fn sweep_matches_independent_grids_and_shares_artifacts() {
        let cfg = two_scenarios();
        let sweep = run_sweep(&cfg).unwrap();
        assert_eq!(sweep.grids.len(), 2);
        assert_eq!(sweep.total_errors(), 0);

        let shared = Arc::new(ArtifactCache::new());
        for (i, scenario) in cfg.scenarios.iter().enumerate() {
            let alone = run_sweep(&SweepConfig {
                threads: 1,
                scenarios: vec![scenario.clone()],
                artifacts: Some(Arc::clone(&shared)),
                ..cfg.clone()
            })
            .unwrap();
            let got: Vec<_> = sweep.grids[i].iter_points().collect();
            let want: Vec<_> = alone.grids[0].iter_points().collect();
            assert_eq!(got, want, "scenario {}", scenario.label);
            assert_eq!(sweep.grids[i].completed(), alone.grids[0].completed());
        }

        // One compile per (workload, level, width): the cached scenario
        // reused every artifact (memory config is not compile-relevant).
        let distinct = (40 * cfg.levels.len() * cfg.widths.len()) as u64;
        assert_eq!(sweep.cache.compiles, distinct, "{:?}", sweep.cache);
        assert_eq!(sweep.cache.hits, distinct, "{:?}", sweep.cache);
    }

    /// Sweeping each scenario alone, each on a fresh cache, and
    /// concatenating the grids reproduces the whole sweep exactly — the
    /// equivalence the pool supervisor's per-scenario sharding rests on
    /// (each worker process holds its own cache).
    #[test]
    fn split_per_scenario_is_equivalent_to_the_whole() {
        let cfg = two_scenarios();
        let whole = run_sweep(&cfg).unwrap();
        for (i, scenario) in cfg.scenarios.iter().enumerate() {
            let part =
                run_sweep(&SweepConfig { scenarios: vec![scenario.clone()], ..cfg.clone() })
                    .unwrap();
            assert_eq!(part.grids.len(), 1);
            let got: Vec<_> = part.grids[0].iter_points().collect();
            let want: Vec<_> = whole.grids[i].iter_points().collect();
            assert_eq!(got, want, "split {i} diverged from the unsplit sweep");
            assert_eq!(part.grids[0].completed(), whole.grids[i].completed());
            assert_eq!(part.grids[0].errors, whole.grids[i].errors);
        }
    }

    /// A latency-table scenario gets its own compile keys: the table is
    /// compile-relevant (list scheduling reads it), so artifacts must NOT
    /// be shared across tables — and results must differ.
    #[test]
    fn latency_scenarios_do_not_share_artifacts() {
        let slow_fp = LatencyTable { fp_alu: 9, ..TABLE1 };
        let sweep = run_sweep(&SweepConfig {
            scenarios: vec![
                Scenario::mem(MemConfig::Perfect),
                Scenario::with_latency("slow-fp", MemConfig::Perfect, slow_fp),
            ],
            ..two_scenarios()
        })
        .unwrap();
        assert_eq!(sweep.total_errors(), 0);
        // Two latency tables → two compile keys per (workload, level, width).
        assert_eq!(sweep.cache.compiles, 2 * 40 * 2 * 2, "{:?}", sweep.cache);
        assert_eq!(sweep.cache.hits, 0, "{:?}", sweep.cache);
        // The table forks artifacts, not rungs — no pass row reads it: Conv,
        // Lev1 and Lev2 of each nest are built once and serve both tables.
        assert_eq!(sweep.cache.rungs, 40 * 3, "{:?}", sweep.cache);
        // Slower FP must cost cycles somewhere (dotprod is FP-bound).
        let fast = sweep.grids[0].point("dotprod", Level::Lev2, 8).unwrap().cycles;
        let slow = sweep.grids[1].point("dotprod", Level::Lev2, 8).unwrap().cycles;
        assert!(slow > fast, "slow-fp {slow} vs table1 {fast}");
    }

    /// A cold full-ladder sweep lowers each loop nest and runs each pass row
    /// over it exactly once, whatever the pool's interleaving: 480 artifacts
    /// are cut from 240 rungs, and each of the 240 work items (nest, level)
    /// builds one backend front for both its widths.
    #[test]
    fn cold_sweep_climbs_each_ladder_once() {
        let sweep = run_sweep(&SweepConfig {
            scale: 0.02,
            widths: vec![1, 8],
            threads: 4,
            ..SweepConfig::default()
        })
        .unwrap();
        assert_eq!(sweep.total_errors(), 0);
        let c = sweep.cache;
        assert_eq!((c.compiles, c.hits, c.rungs, c.ref_runs), (480, 0, 240, 40), "{c:?}");
        assert_eq!(c.fronts, 240, "{c:?}");
    }

    /// A sabotaged point degrades in every scenario it matches, for both
    /// failure shapes, while the rest of the sweep completes — per-scenario
    /// typed errors and visibly partial aggregates, no abort.
    #[test]
    fn sabotage_degrades_per_scenario() {
        for mode in [SabotageMode::Panic, SabotageMode::Corrupt] {
            let sweep = run_sweep(&SweepConfig {
                sabotage: Some(Sabotage {
                    workload: "dotprod".to_string(),
                    level: Level::Lev2,
                    width: 8,
                    mode,
                }),
                ..two_scenarios()
            })
            .unwrap();
            assert_eq!(sweep.grids.len(), 2);
            assert_eq!(sweep.total_errors(), 2, "{mode:?}");
            for g in &sweep.grids {
                assert_eq!(g.errors.len(), 1, "{mode:?}: {:#?}", g.errors);
                let err = &g.errors[0];
                assert_eq!(err.workload, "dotprod");
                assert_eq!((err.level, err.width), (Level::Lev2, 8));
                match (mode, &err.error) {
                    (SabotageMode::Panic, PointError::Panic(msg)) => {
                        assert!(msg.contains("sabotaged grid point"), "{msg}");
                    }
                    (SabotageMode::Corrupt, PointError::Eval(_)) => {}
                    other => panic!("wrong error shape: {other:?}"),
                }
                assert!(g.point("dotprod", Level::Lev2, 8).is_none());
                assert_eq!(g.completed(), 40 * 2 * 2 - 1, "{mode:?}");
                let agg = g.mean_speedup(g.meta.iter().map(|m| m.name), Level::Lev2, 8);
                assert_eq!((agg.covered(), agg.requested()), (39, 40), "{mode:?}");
                assert_eq!(agg.complete(), None);
                assert!(agg.partial().unwrap() > 1.0);
            }
        }
    }

    /// Sweep validation reuses the grid's typed errors — in every scenario
    /// of a multi-scenario sweep — and adds its own.
    #[test]
    fn sweep_validation_is_typed() {
        let bad = SweepConfig { widths: vec![2, 8], ..two_scenarios() };
        assert_eq!(run_sweep(&bad).unwrap_err(), GridConfigError::MissingBaseWidth);
        let big = SweepConfig { scale: 1e12, ..two_scenarios() };
        assert_eq!(run_sweep(&big).unwrap_err(), GridConfigError::BadScale(1e12));
        let none = SweepConfig { scenarios: vec![], ..two_scenarios() };
        assert_eq!(run_sweep(&none).unwrap_err(), GridConfigError::NoScenarios);
    }
}
