//! Multi-scenario parameter sweeps on one work-stealing pool.
//!
//! A **sweep** crosses the evaluation grid (40 loops × levels × widths)
//! with N *scenarios* — memory configurations and/or latency tables — in
//! one call ([`crate::grid::run_grid`] is the one-scenario case). Compared
//! with one call per scenario it differs in two ways that matter at scale:
//!
//! * **one scheduler, no barriers**: every (scenario, loop, level, width)
//!   point goes into a single work-stealing pool, so a scenario whose
//!   points are expensive (a cold cache, a slow latency table) is drained
//!   by workers that finished a cheap scenario early, instead of
//!   serializing behind a per-grid fork-join barrier;
//! * **one artifact cache**: compilation depends only on the machine's
//!   compile key, so all memory-config scenarios share compiled and
//!   pre-decoded artifacts (latency-table scenarios get their own keys
//!   automatically — the table is compile-relevant).
//!
//! The result splits back into one observably ordinary [`Grid`] per
//! scenario, so every existing aggregation, figure and report works
//! unchanged on sweep output.

use crate::artifact::{ArtifactCache, CacheCounters};
use crate::grid::{
    collect_grid, eval_point_contained, validate_axes, Grid, GridConfigError, Sabotage,
};
use crate::steal::{self, StealStats};
use ilpc_core::level::Level;
use ilpc_machine::{LatencyTable, Machine, MemConfig, TABLE1};
use ilpc_workloads::{build_all, Workload, WorkloadMeta};
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

impl SweepConfig {
    /// Split into one single-scenario config per scenario — the shard
    /// unit the `ilpc-serve` pool supervisor distributes across worker
    /// processes. Each split shares this config's artifact cache handle
    /// (within one process; across processes each worker holds its own),
    /// keeps the axes and sabotage directive verbatim, and is therefore
    /// equivalent to the original: running the splits and concatenating
    /// their grids in order yields exactly `run_sweep(self)`'s grids,
    /// because scenarios never interact — only the stealing pool and the
    /// cache are shared, and neither changes results.
    pub fn split_per_scenario(&self) -> Vec<SweepConfig> {
        self.scenarios
            .iter()
            .map(|s| SweepConfig { scenarios: vec![s.clone()], ..self.clone() })
            .collect()
    }
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
    /// The grid for the scenario labelled `label`, if any.
    pub fn grid(&self, label: &str) -> Option<&Grid> {
        self.scenarios
            .iter()
            .position(|s| s.label == label)
            .map(|i| &self.grids[i])
    }

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

    // Work items: (scenario, workload, level, width) — scenario-major so
    // early scenarios warm the artifact cache for later ones.
    let mut items: Vec<(usize, usize, Level, u32)> = Vec::new();
    for (si, _) in cfg.scenarios.iter().enumerate() {
        for (wi, _) in workloads.iter().enumerate() {
            for &level in &levels {
                for &width in &widths {
                    items.push((si, wi, level, width));
                }
            }
        }
    }

    let (results, steals) =
        steal::execute(&items, cfg.threads.max(1), |_, &(si, wi, level, width)| {
            let scenario = &cfg.scenarios[si];
            let w = &workloads[wi];
            let machine = Machine {
                latency: scenario.latency,
                ..Machine::issue(width).with_mem(scenario.mem).with_vlen(scenario.vlen)
            };
            let r = eval_point_contained(
                w,
                level,
                width,
                &machine,
                cfg.sabotage.as_ref(),
                Some(&artifacts),
            );
            (si, (w.meta.name.to_string(), level, width), r)
        });

    // Split per scenario, preserving engine-observable ordering.
    let mut buckets: Vec<Vec<_>> = cfg.scenarios.iter().map(|_| Vec::new()).collect();
    for (si, key, r) in results {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_grid_forkjoin, GridConfig, PointError, SabotageMode};
    use ilpc_machine::CacheParams;

    fn mini_axes() -> (Vec<Level>, Vec<u32>) {
        (vec![Level::Conv, Level::Lev2], vec![1, 8])
    }

    /// A two-scenario sweep equals two independent runs of the fork-join
    /// oracle, while compiling each (workload, level, width) exactly once
    /// across both.
    #[test]
    fn sweep_matches_independent_grids_and_shares_artifacts() {
        let (levels, widths) = mini_axes();
        let scenarios = vec![
            Scenario::mem(MemConfig::Perfect),
            Scenario::mem(MemConfig::Cache(CacheParams::small())),
        ];
        let sweep = run_sweep(&SweepConfig {
            scale: 0.02,
            levels: levels.clone(),
            widths: widths.clone(),
            threads: 4,
            scenarios: scenarios.clone(),
            sabotage: None,
            artifacts: None,
        })
        .unwrap();
        assert_eq!(sweep.grids.len(), 2);
        assert_eq!(sweep.total_errors(), 0);

        for (i, scenario) in scenarios.iter().enumerate() {
            let alone = run_grid_forkjoin(&GridConfig {
                scale: 0.02,
                levels: levels.clone(),
                widths: widths.clone(),
                threads: 4,
                mem: scenario.mem,
                sabotage: None,
                artifacts: None,
            })
            .unwrap();
            let got: Vec<_> = sweep.grids[i].iter_points().collect();
            let want: Vec<_> = alone.iter_points().collect();
            assert_eq!(got, want, "scenario {}", scenario.label);
            assert_eq!(sweep.grid(&scenario.label).unwrap().completed(), alone.completed());
        }

        // One compile per (workload, level, width): the cached scenario
        // reused every artifact (memory config is not compile-relevant).
        let distinct = (40 * levels.len() * widths.len()) as u64;
        assert_eq!(sweep.cache.compiles, distinct, "{:?}", sweep.cache);
        assert_eq!(sweep.cache.hits, distinct, "{:?}", sweep.cache);
    }

    /// Splitting a sweep per scenario and concatenating the split grids
    /// reproduces the unsplit sweep exactly — the equivalence the pool
    /// supervisor's sweep sharding rests on.
    #[test]
    fn split_per_scenario_is_equivalent_to_the_whole() {
        let (levels, widths) = mini_axes();
        let cfg = SweepConfig {
            scale: 0.02,
            levels,
            widths,
            threads: 4,
            scenarios: vec![
                Scenario::mem(MemConfig::Perfect),
                Scenario::mem(MemConfig::Cache(CacheParams::small())),
            ],
            sabotage: None,
            artifacts: None,
        };
        let whole = run_sweep(&cfg).unwrap();

        let splits = cfg.split_per_scenario();
        assert_eq!(splits.len(), 2);
        for (i, split) in splits.iter().enumerate() {
            assert_eq!(split.scenarios.len(), 1);
            assert_eq!(split.scenarios[0].label, cfg.scenarios[i].label);
            assert_eq!(split.scale, cfg.scale);
            assert_eq!(split.levels, cfg.levels);
            assert_eq!(split.widths, cfg.widths);
            let part = run_sweep(split).unwrap();
            assert_eq!(part.grids.len(), 1);
            let got: Vec<_> = part.grids[0].iter_points().collect();
            let want: Vec<_> = whole.grids[i].iter_points().collect();
            assert_eq!(got, want, "split {i} diverged from the unsplit sweep");
            assert_eq!(part.grids[0].completed(), whole.grids[i].completed());
            assert_eq!(part.grids[0].errors.len(), whole.grids[i].errors.len());
        }
    }

    /// A latency-table scenario gets its own compile keys: the table is
    /// compile-relevant (list scheduling reads it), so artifacts must NOT
    /// be shared across tables — and results must differ.
    #[test]
    fn latency_scenarios_do_not_share_artifacts() {
        let (levels, widths) = mini_axes();
        let slow_fp = LatencyTable { fp_alu: 9, ..TABLE1 };
        let sweep = run_sweep(&SweepConfig {
            scale: 0.02,
            levels,
            widths,
            threads: 4,
            scenarios: vec![
                Scenario::mem(MemConfig::Perfect),
                Scenario::with_latency("slow-fp", MemConfig::Perfect, slow_fp),
            ],
            sabotage: None,
            artifacts: None,
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
    /// are cut from 240 rungs.
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
    }

    /// A sabotaged point degrades in every scenario it matches while the
    /// rest of the sweep completes — per-scenario typed errors, no abort.
    #[test]
    fn sabotage_degrades_per_scenario() {
        let (levels, widths) = mini_axes();
        let sweep = run_sweep(&SweepConfig {
            scale: 0.02,
            levels,
            widths,
            threads: 4,
            scenarios: vec![
                Scenario::mem(MemConfig::Perfect),
                Scenario::mem(MemConfig::Cache(CacheParams::small())),
            ],
            sabotage: Some(Sabotage {
                workload: "dotprod".to_string(),
                level: Level::Lev2,
                width: 8,
                mode: SabotageMode::Panic,
            }),
            artifacts: None,
        })
        .unwrap();
        for g in &sweep.grids {
            assert_eq!(g.errors.len(), 1, "{:#?}", g.errors);
            assert!(matches!(&g.errors[0].error, PointError::Panic(m) if m.contains("sabotaged")));
            assert_eq!(g.completed(), 40 * 2 * 2 - 1);
        }
    }

    /// Sweep validation reuses the grid's typed errors and adds its own.
    #[test]
    fn sweep_validation_is_typed() {
        let bad = SweepConfig {
            scale: 0.02,
            widths: vec![2, 8],
            ..SweepConfig::default()
        };
        assert_eq!(run_sweep(&bad).unwrap_err(), GridConfigError::MissingBaseWidth);
        let none = SweepConfig { scale: 0.02, scenarios: vec![], ..SweepConfig::default() };
        assert_eq!(run_sweep(&none).unwrap_err(), GridConfigError::NoScenarios);
    }
}
