//! The evaluation grid: every (loop, level, issue width) combination.
//!
//! A grid is the one-scenario case of a sweep: [`run_grid`] is a thin call
//! into [`crate::sweep::run_sweep`], whose work-stealing pool
//! ([`crate::steal`]: per-worker deques, steal-half) handles the skewed
//! per-point costs of multi-configuration sweeps. The original fork-join
//! engine (one shared atomic counter) is retained as [`run_grid_forkjoin`],
//! the scheduling oracle the differential suite compares against. Both
//! engines produce an observably identical [`Grid`]: same points, same
//! cycles, same memory statistics, same typed errors.
//!
//! Each point is additionally **fault-isolated**: a panic inside one
//! point's compile/simulate path is contained with `catch_unwind` and
//! becomes a typed [`GridError`] in the report, and the result merge
//! recovers from poisoning — one bad point can never take down the other
//! 599 or abort the whole sweep.
//!
//! Aggregations over the grid ([`Grid::mean_speedup`], [`Grid::mem_stats`],
//! [`Grid::mean_regs`], [`Grid::hit_rate`]) return an [`Aggregate`] that
//! carries the covered/requested point counts, so a grid with holes (failed
//! points in [`Grid::errors`], or a subset the grid never evaluated) can
//! never be mistaken for a complete one: callers choose
//! [`Aggregate::complete`] (value only at full coverage) or
//! [`Aggregate::partial`] (best-effort value plus visible coverage).

use crate::artifact::ArtifactCache;
use crate::run::{evaluate, EvalPoint};
use crate::sweep::{run_sweep, Scenario, SweepConfig};
use ilpc_core::level::Level;
use ilpc_guard::panic_message;
use ilpc_ir::{Module, Opcode};
use ilpc_machine::{Machine, MemConfig};
use ilpc_mem::MemStats;
use ilpc_workloads::{build_all, Workload, WorkloadMeta};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Trip-count scale (1.0 = the paper's Table 2 counts).
    pub scale: f64,
    /// Levels to evaluate. [`Level::Conv`] is required: it anchors the
    /// speedup baseline. Duplicates are deduplicated up front.
    pub levels: Vec<Level>,
    /// Issue widths to evaluate. Width 1 is required: it is the speedup
    /// base. Duplicates are deduplicated up front.
    pub widths: Vec<u32>,
    /// Worker threads.
    pub threads: usize,
    /// Memory hierarchy applied to every machine in the grid (perfect by
    /// default — the paper's model).
    pub mem: MemConfig,
    /// Deliberately break one point (fault drills and tests only).
    pub sabotage: Option<Sabotage>,
    /// Shared compile-artifact cache. `Some` reuses compiled + pre-decoded
    /// artifacts and reference executions across grids of one catalog and
    /// scale (the cache's workload-name keying binds it to both, see
    /// [`ArtifactCache`]). With `None` (the default) [`run_grid`] uses a
    /// cache private to the call and [`run_grid_forkjoin`] compiles per
    /// point. Sabotaged points bypass the cache entirely.
    pub artifacts: Option<Arc<ArtifactCache>>,
}

impl Default for GridConfig {
    /// The [`SweepConfig`] defaults, under perfect memory.
    fn default() -> GridConfig {
        let SweepConfig { scale, levels, widths, threads, sabotage, artifacts, .. } =
            SweepConfig::default();
        GridConfig { scale, levels, widths, threads, mem: MemConfig::Perfect, sabotage, artifacts }
    }
}

/// Why a [`GridConfig`] (or sweep configuration) was rejected before any
/// point ran. Surfaced by [`run_grid`] instead of silently producing a
/// grid whose aggregations are meaningless.
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
    /// `scale` is not a finite positive number.
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

/// Validate grid axes for the sweep engine and [`run_grid_forkjoin`]:
/// returns the deduplicated (order-preserving) levels and widths, or the
/// first typed configuration error.
pub(crate) fn validate_axes(
    scale: f64,
    levels: &[Level],
    widths: &[u32],
) -> Result<(Vec<Level>, Vec<u32>), GridConfigError> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(GridConfigError::BadScale(scale));
    }
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

/// Evaluate one point, honouring a matching sabotage directive.
pub(crate) fn eval_point(
    w: &Workload,
    level: Level,
    width: u32,
    machine: &Machine,
    sabotage: Option<&Sabotage>,
    artifacts: Option<&ArtifactCache>,
) -> Result<EvalPoint, String> {
    if let Some(s) = sabotage {
        if s.workload == w.meta.name && s.level == level && s.width == width {
            match s.mode {
                SabotageMode::Panic => {
                    panic!("sabotaged grid point: {} {level} issue-{width}", w.meta.name)
                }
                SabotageMode::Corrupt => {
                    // Sabotage must never pollute (or be masked by) the
                    // shared cache: compile privately and corrupt that.
                    let mut c = crate::compile::compile(w, level, machine);
                    corrupt_arithmetic(&mut c.module);
                    return crate::run::run_compiled(w, &c, machine);
                }
            }
        }
    }
    match artifacts {
        Some(cache) => cache.evaluate(w, level, machine),
        None => evaluate(w, level, machine),
    }
}

/// Evaluate one point with per-point panic containment: the shared
/// fault-isolation wrapper of both engines and the sweep.
pub(crate) fn eval_point_contained(
    w: &Workload,
    level: Level,
    width: u32,
    machine: &Machine,
    sabotage: Option<&Sabotage>,
    artifacts: Option<&ArtifactCache>,
) -> Result<EvalPoint, PointError> {
    match catch_unwind(AssertUnwindSafe(|| {
        eval_point(w, level, width, machine, sabotage, artifacts)
    })) {
        Ok(Ok(p)) => Ok(p),
        Ok(Err(e)) => Err(PointError::Eval(e)),
        Err(payload) => Err(PointError::Panic(panic_message(payload))),
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

/// Run the grid on the work-stealing engine: a one-scenario [`run_sweep`].
pub fn run_grid(cfg: &GridConfig) -> Result<Grid, GridConfigError> {
    let sweep = run_sweep(&SweepConfig {
        scale: cfg.scale,
        levels: cfg.levels.clone(),
        widths: cfg.widths.clone(),
        threads: cfg.threads,
        scenarios: vec![Scenario::mem(cfg.mem)],
        sabotage: cfg.sabotage.clone(),
        artifacts: cfg.artifacts.clone(),
    })?;
    Ok(sweep.grids.into_iter().next().expect("one scenario yields one grid"))
}

/// Run the grid on the original fork-join engine (one shared atomic work
/// counter, one item per claim). Retained as the scheduling oracle: the
/// differential suite proves the work-stealing engine's [`Grid`] is
/// observably identical to this one.
pub fn run_grid_forkjoin(cfg: &GridConfig) -> Result<Grid, GridConfigError> {
    let (levels, widths) = validate_axes(cfg.scale, &cfg.levels, &cfg.widths)?;
    let workloads: Vec<Workload> = build_all(cfg.scale);
    let meta: Vec<WorkloadMeta> = workloads.iter().map(|w| w.meta.clone()).collect();

    let mut items: Vec<(usize, Level, u32)> = Vec::new();
    for (i, _) in workloads.iter().enumerate() {
        for &level in &levels {
            for &width in &widths {
                items.push((i, level, width));
            }
        }
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<((String, Level, u32), Result<EvalPoint, PointError>)>> =
        Mutex::new(Vec::with_capacity(items.len()));

    std::thread::scope(|scope| {
        for _ in 0..cfg.threads.max(1) {
            scope.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= items.len() {
                        break;
                    }
                    let (wi, level, width) = items[k];
                    let w = &workloads[wi];
                    let machine = Machine::issue(width).with_mem(cfg.mem);
                    let r = eval_point_contained(
                        w,
                        level,
                        width,
                        &machine,
                        cfg.sabotage.as_ref(),
                        cfg.artifacts.as_deref(),
                    );
                    local.push(((w.meta.name.to_string(), level, width), r));
                }
                // A sibling worker that panicked outside the contained
                // region poisons the mutex; the data is still consistent
                // (extend is all-or-nothing per point list), so recover.
                results
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend(local);
            });
        }
    });

    let collected =
        results.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
    Ok(collect_grid(meta, levels, widths, collected))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature grid end-to-end; the full-scale grid runs in integration
    /// tests and the figure binaries.
    #[test]
    fn mini_grid_runs_clean() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 4,
            mem: MemConfig::Perfect,
            sabotage: None,
            artifacts: None,
        };
        let grid = run_grid(&cfg).unwrap();
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

    /// Invalid configurations are rejected with typed errors before any
    /// point runs — the fail-silent `mean_speedup == 0.0` trap is gone.
    #[test]
    fn invalid_configs_are_typed_errors() {
        let base = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 2,
            ..GridConfig::default()
        };
        let cases: Vec<(GridConfig, GridConfigError)> = vec![
            (
                GridConfig { widths: vec![2, 8], ..base.clone() },
                GridConfigError::MissingBaseWidth,
            ),
            (
                GridConfig { levels: vec![Level::Lev2], ..base.clone() },
                GridConfigError::MissingBaseLevel,
            ),
            (GridConfig { widths: vec![], ..base.clone() }, GridConfigError::NoWidths),
            (GridConfig { levels: vec![], ..base.clone() }, GridConfigError::NoLevels),
            (
                GridConfig { widths: vec![1, 0], ..base.clone() },
                GridConfigError::ZeroWidth,
            ),
            (
                GridConfig { scale: 0.0, ..base.clone() },
                GridConfigError::BadScale(0.0),
            ),
            (
                GridConfig { scale: f64::NAN, ..base.clone() },
                GridConfigError::BadScale(f64::NAN),
            ),
        ];
        for (cfg, want) in cases {
            let got = run_grid(&cfg).expect_err("config must be rejected");
            // NaN != NaN, so compare the discriminant via Display.
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{got} vs {want}"
            );
            // Both engines agree on validation.
            let fj = run_grid_forkjoin(&cfg).expect_err("fork-join must also reject");
            assert_eq!(std::mem::discriminant(&fj), std::mem::discriminant(&want));
        }
    }

    /// Duplicate levels/widths are deduplicated up front: each point is
    /// evaluated once and the grid's axes record the deduplicated shape.
    #[test]
    fn duplicate_axes_are_deduplicated() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2, Level::Conv],
            widths: vec![1, 8, 1, 8],
            threads: 2,
            ..GridConfig::default()
        };
        let grid = run_grid(&cfg).unwrap();
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        assert_eq!(grid.levels, vec![Level::Conv, Level::Lev2]);
        assert_eq!(grid.widths, vec![1, 8]);
        assert_eq!(grid.completed(), 40 * 2 * 2);
    }

    /// The aggregate of an empty subset is visibly empty, not 0.0.
    #[test]
    fn empty_subset_aggregates_are_not_zero() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 4,
            ..GridConfig::default()
        };
        let grid = run_grid(&cfg).unwrap();
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

    /// One sabotaged point must degrade to a typed error while every
    /// other point completes — for both failure shapes (contained panic
    /// and corrupted-output rejection) — and partial aggregates must say
    /// so instead of passing for complete.
    #[test]
    fn sabotaged_point_is_isolated_and_typed() {
        for mode in [SabotageMode::Panic, SabotageMode::Corrupt] {
            let cfg = GridConfig {
                scale: 0.02,
                levels: vec![Level::Conv, Level::Lev2],
                widths: vec![1, 8],
                threads: 4,
                mem: MemConfig::Perfect,
                sabotage: Some(Sabotage {
                    workload: "dotprod".to_string(),
                    level: Level::Lev2,
                    width: 8,
                    mode,
                }),
                artifacts: None,
            };
            let grid = run_grid(&cfg).unwrap();
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
        use ilpc_machine::CacheParams;
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev4],
            widths: vec![1, 8],
            threads: 4,
            mem: MemConfig::Cache(CacheParams::small()),
            sabotage: None,
            artifacts: None,
        };
        let grid = run_grid(&cfg).unwrap();
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

    /// Both engines produce observably identical grids on a mini grid;
    /// the full 600-point differential runs in the integration suite.
    #[test]
    fn engines_agree_on_mini_grid() {
        let cfg = GridConfig {
            scale: 0.02,
            levels: vec![Level::Conv, Level::Lev2],
            widths: vec![1, 8],
            threads: 4,
            ..GridConfig::default()
        };
        let ws = run_grid(&cfg).unwrap();
        let fj = run_grid_forkjoin(&cfg).unwrap();
        let a: Vec<_> = ws.iter_points().map(|(n, l, w, p)| (n.to_string(), l, w, *p)).collect();
        let b: Vec<_> = fj.iter_points().map(|(n, l, w, p)| (n.to_string(), l, w, *p)).collect();
        assert_eq!(a.len(), 160);
        assert_eq!(a, b);
        assert_eq!(ws.errors, fj.errors);
    }
}
