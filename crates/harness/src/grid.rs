//! The evaluation grid: every (loop, level, issue width) combination.
//!
//! A [`Grid`] is what one scenario of a sweep returns: the only runner is
//! [`crate::sweep::run_sweep`], and the paper's grid is its one-scenario
//! case under perfect memory. Each point is **fault-isolated** there: a
//! panic inside one point's compile/simulate path is contained with
//! `catch_unwind` and becomes a typed [`GridError`] here, so one bad point
//! can never take down the other 719 of the full grid or abort the sweep.
//!
//! Aggregations over the grid ([`Grid::mean_speedup`], [`Grid::mem_stats`],
//! [`Grid::mean_regs`], [`Grid::hit_rate`]) return an [`Aggregate`] that
//! carries the covered/requested point counts, so a grid with holes (failed
//! points in [`Grid::errors`], or a subset the grid never evaluated) can
//! never be mistaken for a complete one: callers choose
//! [`Aggregate::complete`] (value only at full coverage) or
//! [`Aggregate::partial`] (best-effort value plus visible coverage).

use crate::run::EvalPoint;
use ilpc_core::level::Level;
use ilpc_mem::MemStats;
use ilpc_workloads::{WorkloadMeta, MAX_SCALE};
use std::collections::HashMap;
use std::fmt;

/// Why a sweep configuration was rejected before any point ran. Surfaced
/// by [`crate::sweep::run_sweep`] instead of silently producing a grid
/// whose aggregations are meaningless.
#[derive(Debug, Clone, PartialEq)]
pub enum GridConfigError {
    /// `levels` is empty.
    NoLevels,
    /// `widths` is empty.
    NoWidths,
    /// `widths` lacks the required base width 1 — without it every
    /// `speedup()` is `None` and mean speedups would quietly aggregate
    /// nothing.
    MissingBaseWidth,
    /// `levels` lacks [`Level::Conv`] — the other half of the (Conv,
    /// issue-1) speedup baseline.
    MissingBaseLevel,
    /// A width of 0: `Machine::issue` would silently clamp it to 1,
    /// aliasing the base configuration under a different key.
    ZeroWidth,
    /// `scale` is not a finite positive number, or exceeds
    /// [`MAX_SCALE`] (see [`ilpc_workloads::check_scale`]).
    BadScale(f64),
    /// A sweep was configured with an empty scenario list.
    NoScenarios,
}

impl fmt::Display for GridConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridConfigError::NoLevels => write!(f, "config: `levels` is empty"),
            GridConfigError::NoWidths => write!(f, "config: `widths` is empty"),
            GridConfigError::MissingBaseWidth => {
                write!(f, "config: `widths` must include the base width 1 (speedup baseline)")
            }
            GridConfigError::MissingBaseLevel => {
                write!(f, "config: `levels` must include Conv (speedup baseline)")
            }
            GridConfigError::ZeroWidth => {
                write!(f, "config: width 0 is invalid (it would alias the base width 1)")
            }
            GridConfigError::BadScale(s) if s.is_finite() && *s > 0.0 => {
                write!(f, "config: scale {s} must be <= {MAX_SCALE}")
            }
            GridConfigError::BadScale(s) => {
                write!(f, "config: scale {s} must be finite and > 0")
            }
            GridConfigError::NoScenarios => {
                write!(f, "config: sweep has no scenarios")
            }
        }
    }
}

impl std::error::Error for GridConfigError {}

/// Deliberate sabotage of one grid point. Used by tests and fault drills
/// to prove the isolation property: the matching point degrades to a
/// typed [`GridError`] while every other point completes normally.
#[derive(Debug, Clone)]
pub struct Sabotage {
    pub workload: String,
    pub level: Level,
    pub width: u32,
    pub mode: SabotageMode,
}

/// How a sabotaged point fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SabotageMode {
    /// The point's evaluation panics mid-flight; per-point `catch_unwind`
    /// must contain it.
    Panic,
    /// The compiled module's arithmetic is corrupted before execution; the
    /// differential check must flag it.
    Corrupt,
}

/// Why one grid point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// The differential evaluation rejected the point (wrong results,
    /// simulator rejection, budget exhaustion).
    Eval(String),
    /// The point's compile/simulate path panicked; the panic was contained.
    Panic(String),
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Eval(e) => write!(f, "evaluation failed: {e}"),
            PointError::Panic(e) => write!(f, "panicked (contained): {e}"),
        }
    }
}

/// A typed per-point failure in an otherwise-complete grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    pub workload: String,
    pub level: Level,
    pub width: u32,
    pub error: PointError,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} issue-{}: {}", self.workload, self.level, self.width, self.error)
    }
}

/// An aggregation result that cannot hide holes: the value travels with
/// how many of the requested points actually contributed.
///
/// Produced by [`Grid::mean_speedup`], [`Grid::mem_stats`],
/// [`Grid::mean_regs`] and [`Grid::hit_rate`]. A partial grid (failed
/// points, or a name subset the grid never contained) yields
/// `covered < requested`; an empty subset yields `covered == 0` instead of
/// a fabricated `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate<T> {
    covered: usize,
    requested: usize,
    value: T,
}

impl<T> Aggregate<T> {
    fn new(covered: usize, requested: usize, value: T) -> Aggregate<T> {
        Aggregate { covered, requested, value }
    }

    /// Points that contributed to the value.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Points the caller asked to aggregate over.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// True when every requested point contributed (and there was at
    /// least one).
    pub fn is_complete(&self) -> bool {
        self.covered == self.requested && self.covered > 0
    }

    /// The value, only when coverage is complete — the safe default for
    /// reports that must not average over holes.
    pub fn complete(self) -> Option<T> {
        if self.is_complete() {
            Some(self.value)
        } else {
            None
        }
    }

    /// The best-effort value over whatever was covered; `None` when
    /// nothing was. Callers that accept partial coverage must surface
    /// [`Aggregate::covered`]/[`Aggregate::requested`] alongside it.
    pub fn partial(self) -> Option<T> {
        if self.covered > 0 {
            Some(self.value)
        } else {
            None
        }
    }
}

impl<T: fmt::Display> fmt::Display for Aggregate<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.covered == 0 {
            write!(f, "n/a (0/{} points)", self.requested)
        } else if self.is_complete() {
            self.value.fmt(f)
        } else {
            self.value.fmt(f)?;
            write!(f, " ({}/{} points)", self.covered, self.requested)
        }
    }
}

/// Results over the grid.
#[derive(Debug)]
pub struct Grid {
    pub meta: Vec<WorkloadMeta>,
    /// Levels evaluated (validated, deduplicated, in request order).
    pub levels: Vec<Level>,
    /// Widths evaluated (validated, deduplicated, in request order).
    pub widths: Vec<u32>,
    /// Workload name → completed points. Two-level map so lookups borrow
    /// the caller's `&str` instead of allocating a fresh `String` per
    /// probe (the lookup sits inside the figure bins' loops).
    points: HashMap<String, HashMap<(Level, u32), EvalPoint>>,
    /// Per-point failures, if any (fail loudly in reports). The grid
    /// itself always completes: failed points are typed entries here, not
    /// aborts.
    pub errors: Vec<GridError>,
}

impl Grid {
    /// Measured point for `(loop, level, width)`. Borrows `name` — no
    /// allocation per lookup.
    pub fn point(&self, name: &str, level: Level, width: u32) -> Option<&EvalPoint> {
        self.points.get(name)?.get(&(level, width))
    }

    /// Completed points in deterministic (name, level, width) order —
    /// the observable the engine-differential suite compares.
    pub fn iter_points(
        &self,
    ) -> impl Iterator<Item = (&str, Level, u32, &EvalPoint)> + '_ {
        let mut names: Vec<&String> = self.points.keys().collect();
        names.sort();
        names.into_iter().flat_map(move |name| {
            let inner = &self.points[name];
            let mut keys: Vec<&(Level, u32)> = inner.keys().collect();
            keys.sort();
            keys.into_iter()
                .map(move |k| (name.as_str(), k.0, k.1, &inner[k]))
        })
    }

    /// Number of completed points.
    pub fn completed(&self) -> usize {
        self.points.values().map(|m| m.len()).sum()
    }

    /// Speedup of `(level, width)` over the paper's base configuration
    /// (issue-1, Conv) for one loop.
    pub fn speedup(&self, name: &str, level: Level, width: u32) -> Option<f64> {
        let base = self.point(name, Level::Conv, 1)?.cycles as f64;
        let this = self.point(name, level, width)?.cycles as f64;
        Some(base / this)
    }

    /// Arithmetic-mean speedup over a subset of loops. A loop covers the
    /// aggregate only if both its base point (Conv, issue-1) and the
    /// requested point completed.
    pub fn mean_speedup<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<f64> {
        let mut sum = 0.0;
        let mut covered = 0usize;
        let mut requested = 0usize;
        for name in names {
            requested += 1;
            if let Some(s) = self.speedup(name, level, width) {
                sum += s;
                covered += 1;
            }
        }
        let value = if covered == 0 { 0.0 } else { sum / covered as f64 };
        Aggregate::new(covered, requested, value)
    }

    /// Aggregate memory-hierarchy counters over a subset of loops.
    pub fn mem_stats<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<MemStats> {
        let mut sum = MemStats::default();
        let mut covered = 0usize;
        let mut requested = 0usize;
        for name in names {
            requested += 1;
            if let Some(p) = self.point(name, level, width) {
                sum.merge(&p.mem);
                covered += 1;
            }
        }
        Aggregate::new(covered, requested, sum)
    }

    /// Aggregate L1 hit rate over a subset of loops (1.0 when perfect).
    pub fn hit_rate<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<f64> {
        let stats = self.mem_stats(names, level, width);
        Aggregate::new(stats.covered, stats.requested, stats.value.hit_rate())
    }

    /// Mean total register usage over a subset of loops.
    pub fn mean_regs<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
        level: Level,
        width: u32,
    ) -> Aggregate<f64> {
        let mut sum = 0u64;
        let mut covered = 0usize;
        let mut requested = 0usize;
        for name in names {
            requested += 1;
            if let Some(p) = self.point(name, level, width) {
                sum += p.regs.total() as u64;
                covered += 1;
            }
        }
        let value = if covered == 0 { 0.0 } else { sum as f64 / covered as f64 };
        Aggregate::new(covered, requested, value)
    }
}

/// Assemble a [`Grid`] from per-point outcomes.
pub(crate) fn collect_grid(
    meta: Vec<WorkloadMeta>,
    levels: Vec<Level>,
    widths: Vec<u32>,
    outcomes: impl IntoIterator<Item = ((String, Level, u32), Result<EvalPoint, PointError>)>,
) -> Grid {
    let mut points: HashMap<String, HashMap<(Level, u32), EvalPoint>> = HashMap::new();
    let mut errors = Vec::new();
    for ((workload, level, width), r) in outcomes {
        match r {
            Ok(p) => {
                points.entry(workload).or_default().insert((level, width), p);
            }
            Err(error) => errors.push(GridError { workload, level, width, error }),
        }
    }
    Grid { meta, levels, widths, points, errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_sweep, Scenario, SweepConfig};
    use ilpc_machine::{CacheParams, MemConfig};

    /// The grid of a one-scenario sweep over `levels` × widths {1, 8} at
    /// scale 0.02.
    fn mini(levels: &[Level], mem: MemConfig) -> Grid {
        let sweep = run_sweep(&SweepConfig {
            scale: 0.02,
            levels: levels.to_vec(),
            widths: vec![1, 8],
            threads: 4,
            scenarios: vec![Scenario::mem(mem)],
            ..SweepConfig::default()
        })
        .unwrap();
        sweep.grids.into_iter().next().unwrap()
    }

    /// A miniature grid end-to-end; the full-scale grid runs in integration
    /// tests and the figure binaries.
    #[test]
    fn mini_grid_runs_clean() {
        let grid = mini(&[Level::Conv, Level::Lev2], MemConfig::Perfect);
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        assert_eq!(grid.meta.len(), 40);
        // Every point present.
        for m in &grid.meta {
            for level in [Level::Conv, Level::Lev2] {
                for width in [1u32, 8] {
                    assert!(
                        grid.point(m.name, level, width).is_some(),
                        "missing {} {level} issue-{width}",
                        m.name
                    );
                }
            }
        }
        assert_eq!(grid.completed(), 40 * 2 * 2);
        // Speedups of Lev2/issue-8 exceed 1 for most DOALL loops.
        let fast = grid
            .meta
            .iter()
            .filter(|m| m.ltype.is_doall())
            .filter(|m| grid.speedup(m.name, Level::Lev2, 8).unwrap() > 1.5)
            .count();
        assert!(fast >= 10, "only {fast} DOALL loops sped up");
        // Perfect memory: every access a hit on every point.
        let stats = grid
            .mem_stats(grid.meta.iter().map(|m| m.name), Level::Lev2, 8)
            .complete()
            .expect("clean grid must aggregate completely");
        assert!(stats.accesses() > 0);
        assert_eq!(stats.misses(), 0);
        let hit = grid.hit_rate(grid.meta.iter().map(|m| m.name), Level::Lev2, 8);
        assert!(hit.is_complete());
        assert_eq!(hit.complete(), Some(1.0));
    }

    /// Duplicate levels/widths are deduplicated up front: each point is
    /// evaluated once and the grid's axes record the deduplicated shape.
    #[test]
    fn duplicate_axes_are_deduplicated() {
        let sweep = run_sweep(&SweepConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2, Level::Conv],
            widths: vec![1, 8, 1, 8],
            threads: 2,
            ..SweepConfig::default()
        })
        .unwrap();
        let grid = &sweep.grids[0];
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        assert_eq!(grid.levels, vec![Level::Conv, Level::Lev2]);
        assert_eq!(grid.widths, vec![1, 8]);
        assert_eq!(grid.completed(), 40 * 2 * 2);
    }

    /// The aggregate of an empty subset is visibly empty, not 0.0.
    #[test]
    fn empty_subset_aggregates_are_not_zero() {
        let grid = mini(&[Level::Conv, Level::Lev2], MemConfig::Perfect);
        let none = grid.mean_speedup(std::iter::empty(), Level::Lev2, 8);
        assert_eq!(none.covered(), 0);
        assert_eq!(none.requested(), 0);
        assert!(!none.is_complete());
        assert_eq!(none.complete(), None);
        assert_eq!(none.partial(), None);
        assert!(format!("{none}").contains("n/a"));
        // A subset of unknown names is counted as requested-but-uncovered.
        let ghost = grid.mean_speedup(["no-such-loop"].into_iter(), Level::Lev2, 8);
        assert_eq!((ghost.covered(), ghost.requested()), (0, 1));
        assert_eq!(ghost.partial(), None);
        // A width the grid never evaluated is likewise visible.
        let missing = grid.mean_speedup(grid.meta.iter().map(|m| m.name), Level::Lev2, 4);
        assert_eq!(missing.covered(), 0);
        assert_eq!(missing.requested(), 40);
        assert_eq!(missing.complete(), None);
    }

    /// Invalid grid axes and scales are rejected with typed errors before
    /// any point runs — the fail-silent `mean_speedup == 0.0` trap is gone.
    #[test]
    fn invalid_configs_are_typed_errors() {
        let base = SweepConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 2,
            ..SweepConfig::default()
        };
        let cases: Vec<(SweepConfig, GridConfigError)> = vec![
            (SweepConfig { widths: vec![2, 8], ..base.clone() }, GridConfigError::MissingBaseWidth),
            (
                SweepConfig { levels: vec![Level::Lev2], ..base.clone() },
                GridConfigError::MissingBaseLevel,
            ),
            (SweepConfig { widths: vec![], ..base.clone() }, GridConfigError::NoWidths),
            (SweepConfig { levels: vec![], ..base.clone() }, GridConfigError::NoLevels),
            (SweepConfig { widths: vec![1, 0], ..base.clone() }, GridConfigError::ZeroWidth),
            (SweepConfig { scale: 0.0, ..base.clone() }, GridConfigError::BadScale(0.0)),
            (SweepConfig { scale: -1.0, ..base.clone() }, GridConfigError::BadScale(-1.0)),
            (SweepConfig { scale: 1e12, ..base.clone() }, GridConfigError::BadScale(1e12)),
        ];
        for (cfg, want) in cases {
            assert_eq!(run_sweep(&cfg).unwrap_err(), want);
        }
        // NaN != NaN, so compare the discriminant.
        let nan = run_sweep(&SweepConfig { scale: f64::NAN, ..base }).unwrap_err();
        assert!(matches!(nan, GridConfigError::BadScale(s) if s.is_nan()), "{nan}");
        // Each text names the bound that was broken.
        assert_eq!(nan.to_string(), "config: scale NaN must be finite and > 0");
        assert_eq!(
            GridConfigError::BadScale(1e12).to_string(),
            "config: scale 1000000000000 must be <= 64"
        );
    }

    /// One sabotaged point must degrade to a typed error while every
    /// other point completes — for both failure shapes (contained panic
    /// and corrupted-output rejection) — and partial aggregates must say
    /// so instead of passing for complete.
    #[test]
    fn sabotaged_point_is_isolated_and_typed() {
        for mode in [SabotageMode::Panic, SabotageMode::Corrupt] {
            let sweep = run_sweep(&SweepConfig {
                scale: 0.02,
                levels: vec![Level::Conv, Level::Lev2],
                widths: vec![1, 8],
                threads: 4,
                scenarios: vec![Scenario::mem(MemConfig::Perfect)],
                sabotage: Some(Sabotage {
                    workload: "dotprod".to_string(),
                    level: Level::Lev2,
                    width: 8,
                    mode,
                }),
                artifacts: None,
            })
            .unwrap();
            let grid = &sweep.grids[0];
            assert_eq!(grid.errors.len(), 1, "{mode:?}: {:#?}", grid.errors);
            let err = &grid.errors[0];
            assert_eq!(err.workload, "dotprod");
            assert_eq!((err.level, err.width), (Level::Lev2, 8));
            match (mode, &err.error) {
                (SabotageMode::Panic, PointError::Panic(msg)) => {
                    assert!(msg.contains("sabotaged grid point"), "{msg}");
                }
                (SabotageMode::Corrupt, PointError::Eval(_)) => {}
                other => panic!("wrong error shape: {other:?}"),
            }
            // The sabotaged point is absent; every other point completed.
            assert!(grid.point("dotprod", Level::Lev2, 8).is_none());
            assert_eq!(grid.completed(), 40 * 2 * 2 - 1, "{mode:?}");
            // The holed aggregate is visibly partial: it cannot pass for a
            // complete mean any more.
            let agg = grid.mean_speedup(grid.meta.iter().map(|m| m.name), Level::Lev2, 8);
            assert_eq!((agg.covered(), agg.requested()), (39, 40), "{mode:?}");
            assert!(!agg.is_complete());
            assert_eq!(agg.complete(), None);
            assert!(agg.partial().unwrap() > 1.0);
            assert!(format!("{agg}").contains("39/40"), "{agg}");
        }
    }

    /// The grid under a finite cache: still differentially correct, with
    /// consistent per-point cache statistics.
    #[test]
    fn cached_mini_grid_is_correct_with_consistent_stats() {
        let grid = mini(&[Level::Conv, Level::Lev4], MemConfig::Cache(CacheParams::small()));
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        let mut missed_somewhere = false;
        for m in &grid.meta {
            for level in [Level::Conv, Level::Lev4] {
                for width in [1u32, 8] {
                    let p = grid.point(m.name, level, width).unwrap();
                    let s = &p.mem;
                    assert_eq!(
                        s.accesses(),
                        s.hits() + s.misses(),
                        "{} {level} issue-{width}",
                        m.name
                    );
                    assert!(s.accesses() > 0, "{} executes no memory ops?", m.name);
                    missed_somewhere |= s.misses() > 0;
                }
            }
        }
        assert!(missed_somewhere, "a 1 KiB cache must miss somewhere");
    }
}
