//! The studies EXPERIMENTS.md reports beyond the paper's own sections.
//!
//! [`STUDIES`] is to them what [`crate::figures::FIGURES`] is to the
//! paper's figures: the one table a result is declared in. `report --only
//! <id>` runs one row over a [`StudyCtx`] — the parsed flags, the catalog,
//! one artifact cache and the issue-1 Conv baseline, each built once — and
//! prints the text its `run` returns. A study's self-checks are part of
//! the study: a failed one is an `Err`, and `report` exits nonzero.

use crate::artifact::ArtifactCache;
use crate::campaign::{run_campaign, CampaignConfig};
use crate::compile::{compile, compile_set};
use crate::examples_paper::{all_examples, measure, schedule};
use crate::grid::{Grid, GridConfigError};
use crate::profile::evaluate_with_profile;
use crate::run::{evaluate, evaluate_set, run_compiled};
use crate::sweep::{run_sweep, validate_axes, Scenario, Sweep, SweepConfig};
use ilpc_analysis::{Liveness, LoopForest};
use ilpc_core::ablation::TransformSet;
use ilpc_core::level::{Level, TransformReport};
use ilpc_lint::{audit_schedules, count_severity, lint_module, sort_diagnostics, Severity};
use ilpc_machine::{CacheParams, Machine, MemConfig};
use ilpc_sched::modulo::{modulo_schedule, pipelinable_loops};
use ilpc_sched::schedule_insts;
use ilpc_workloads::{build_all, Workload};
use std::cell::OnceCell;
use std::fmt::Write;
use std::sync::Arc;

/// One study `report --only` can select.
pub struct Study {
    /// Selector for `report --only`.
    pub id: &'static str,
    /// What the study measures, for `report`'s progress line.
    pub title: &'static str,
    /// `--scale` when none is given.
    pub scale: f64,
    /// `--scale` when none is given under `--quick`; `None` for a study
    /// that has no quick mode (`--quick` is then rejected).
    pub quick_scale: Option<f64>,
    /// Whether the study reads `--verbose` (rejected otherwise).
    pub verbose: bool,
    /// The study's stdout, or why one of its self-checks failed.
    pub run: fn(&StudyCtx) -> Result<String, String>,
}

/// Every study: the §2 examples, then the extensions.
pub const STUDIES: &[Study] = &[
    Study {
        id: "paper-examples",
        title: "the paper's §2 worked examples, measured vs printed cycle counts",
        scale: 1.0,
        quick_scale: None,
        verbose: true,
        run: paper_examples,
    },
    Study {
        id: "ablation",
        title: "per-transformation ablation at issue-8",
        scale: 1.0,
        quick_scale: None,
        verbose: false,
        run: ablation,
    },
    Study {
        id: "sensitivity",
        title: "the levels on machines with restricted functional units",
        scale: 1.0,
        quick_scale: None,
        verbose: false,
        run: sensitivity,
    },
    Study {
        id: "cache-sensitivity",
        title: "transformation gains under a finite memory hierarchy",
        scale: 0.25,
        quick_scale: Some(0.25),
        verbose: false,
        run: cache_sensitivity,
    },
    Study {
        id: "vlen-sweep",
        title: "SLP vectorization (Lev6) across VLEN x issue width",
        scale: 0.25,
        quick_scale: Some(0.05),
        verbose: false,
        run: vlen_sweep,
    },
    Study {
        id: "profile-study",
        title: "static-estimate vs profile-driven superblock formation",
        scale: 1.0,
        quick_scale: None,
        verbose: false,
        run: profile_study,
    },
    Study {
        id: "swp",
        title: "software pipelining vs superblock-scheduled unrolling",
        scale: 1.0,
        quick_scale: None,
        verbose: false,
        run: swp,
    },
    Study {
        id: "fault-campaign",
        title: "seeded faults against the transformation firewall",
        scale: 0.02,
        quick_scale: Some(0.02),
        verbose: false,
        run: fault_campaign,
    },
    Study {
        id: "lint",
        title: "static legality audit of the compiled grid",
        scale: 0.02,
        quick_scale: Some(0.02),
        verbose: true,
        run: lint,
    },
];

/// What every study starts from.
pub struct StudyCtx {
    pub scale: f64,
    /// Worker threads of the studies that run a sweep.
    pub threads: usize,
    pub quick: bool,
    pub verbose: bool,
    /// The 40-loop catalog at `scale`.
    pub workloads: Vec<Workload>,
    /// Bound to `workloads` (it keys by workload name).
    pub cache: Arc<ArtifactCache>,
    bases: OnceCell<Vec<u64>>,
}

impl StudyCtx {
    /// The context `study.run` takes; `scale` defaults per study and mode.
    pub fn new(
        study: &Study,
        scale: Option<f64>,
        threads: usize,
        quick: bool,
        verbose: bool,
    ) -> Result<StudyCtx, GridConfigError> {
        let default = if quick { study.quick_scale } else { None }.unwrap_or(study.scale);
        let scale = scale.unwrap_or(default);
        validate_axes(scale, &[Level::Conv], &[1])?;
        Ok(StudyCtx {
            scale,
            threads,
            quick,
            verbose,
            workloads: build_all(scale),
            cache: Arc::new(ArtifactCache::new()),
            bases: OnceCell::new(),
        })
    }

    /// Cycles of every workload, in catalog order, on the base of all the
    /// paper's speedups: Conv on the issue-1 perfect-memory machine.
    /// Measured on first use, through `cache`.
    pub fn bases(&self) -> Result<&[u64], String> {
        if self.bases.get().is_none() {
            let measured: Result<Vec<u64>, String> = self
                .workloads
                .iter()
                .map(|w| Ok(self.cache.evaluate(w, Level::Conv, &Machine::base())?.cycles))
                .collect();
            let _ = self.bases.set(measured?);
        }
        Ok(self.bases.get().expect("just set"))
    }

    /// Mean over the catalog of base cycles ÷ `cycles(workload)`.
    pub fn mean_speedup(
        &self,
        mut cycles: impl FnMut(&Workload) -> Result<u64, String>,
    ) -> Result<f64, String> {
        let mut sum = 0.0;
        for (w, &base) in self.workloads.iter().zip(self.bases()?) {
            sum += base as f64 / cycles(w)? as f64;
        }
        Ok(sum / self.workloads.len() as f64)
    }

    /// Sweep this context's catalog on its threads and cache; a failed
    /// point fails the study.
    fn sweep(
        &self,
        levels: &[Level],
        widths: &[u32],
        scenarios: Vec<Scenario>,
    ) -> Result<Sweep, String> {
        let sweep = run_sweep(&SweepConfig {
            scale: self.scale,
            levels: levels.to_vec(),
            widths: widths.to_vec(),
            threads: self.threads,
            scenarios,
            artifacts: Some(Arc::clone(&self.cache)),
            ..SweepConfig::default()
        })
        .map_err(|e| e.to_string())?;
        match sweep.grids.iter().zip(&sweep.scenarios).find(|(g, _)| !g.errors.is_empty()) {
            Some((g, s)) => Err(format!("scenario {}: {:#?}", s.label, g.errors)),
            None => Ok(sweep),
        }
    }
}

/// Reproduce the paper's §2 worked examples (Figures 1, 3, 5, 6, 7):
/// build each kernel, run the real transformation pass, schedule on the
/// unlimited-issue machine, and print measured vs paper cycle counts
/// (`--verbose`: with each body's issue times). Any difference from the
/// paper fails the study.
fn paper_examples(ctx: &StudyCtx) -> Result<String, String> {
    let mut out = String::new();
    out.push_str("example  measured    paper  iters  description\n");
    for e in all_examples() {
        let got = measure(&e);
        let _ = writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>6}  {}",
            e.name, got, e.paper_cycles, e.iterations, e.description
        );
        if ctx.verbose {
            let sched = schedule(&e);
            for (inst, t) in sched.insts.iter().zip(&sched.times) {
                let _ = writeln!(out, "    IT {t:>3}  {inst}");
            }
        }
        if got != e.paper_cycles {
            return Err(format!("{} diverges from the paper's {} cycles", e.name, e.paper_cycles));
        }
    }
    let _ = writeln!(out, "\nall worked examples match the paper");
    Ok(out)
}

/// Whether the transformation `name` (one of [`TransformSet::NAMES`])
/// applied at least once.
fn fired(name: &str, r: &TransformReport) -> bool {
    let count = match name {
        "combine" => r.combines,
        "strength" => r.strength_reductions,
        "threduce" => r.trees_reduced,
        "accum" => r.accumulators_expanded,
        "induct" => r.inductions_expanded,
        "search" => r.searches_expanded,
        _ => unreachable!("not in TransformSet::NAMES: {name}"),
    };
    count > 0
}

/// Per-transformation ablation study (the paper's §3.2 narrative, made
/// quantitative): for each advanced transformation, measure issue-8 mean
/// speedup with it *removed from Lev4* (leave-one-out) and with it as the
/// *only addition to Lev2* (only-one). Also counts how many loops each
/// transformation fires in — read off the Lev4 column's own 40 compiles —
/// reproducing "induction variable expansion is the most often applied
/// transformation".
fn ablation(ctx: &StudyCtx) -> Result<String, String> {
    let machine = Machine::issue(8);
    let mean = |set: TransformSet| {
        ctx.mean_speedup(|w| Ok(evaluate_set(w, &set, &machine)?.cycles))
    };
    let lev2 = mean(TransformSet::of_level(Level::Lev2))?;
    let mut reports = Vec::new();
    let lev4 = ctx.mean_speedup(|w| {
        let compiled = compile_set(w, &TransformSet::all(), &machine);
        let cycles = run_compiled(w, &compiled, &machine)?.cycles;
        reports.push(compiled.report);
        Ok(cycles)
    })?;

    let mut out = String::new();
    let _ = writeln!(out, "issue-8 mean speedup:  Lev2 = {lev2:.2}x   Lev4 = {lev4:.2}x");
    let _ = writeln!(out);
    out.push_str("transform   Lev4 without   Lev2 + only     fires in\n");
    for name in TransformSet::NAMES {
        let without = mean(TransformSet::all_but(name))?;
        let only = mean(TransformSet::lev2_plus(name))?;
        let fires = reports.iter().filter(|r| fired(name, r)).count();
        let _ = writeln!(out, "{name:<10} {without:>12.2}x {only:>12.2}x {fires:>9}/40");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "reading: 'Lev4 without' below Lev4 ({lev4:.2}x) = the");
    let _ = writeln!(out, "transformation contributes; 'Lev2 + only' above Lev2");
    let _ = writeln!(out, "({lev2:.2}x) = it helps even alone.");
    Ok(out)
}

/// Machine sensitivity study: how the transformation levels behave when the
/// issue-8 processor's functional units are restricted — the "more
/// restricted processor model" the paper alludes to when discussing
/// strength reduction. Memory ports are the binding resource for the
/// unrolled DOALL loops; FP units bind the expanded reductions.
fn sensitivity(ctx: &StudyCtx) -> Result<String, String> {
    let slow_loads = |cycles: u32| {
        let mut m = Machine::issue(8);
        m.latency.load = cycles;
        m
    };
    let machines = [
        Machine::issue(8),
        Machine::issue(8).with_mem_ports(4),
        Machine::issue(8).with_mem_ports(2),
        Machine::issue(8).with_mem_ports(1),
        Machine::issue(8).with_fp_units(2),
        Machine::issue(8).with_mem_ports(2).with_fp_units(2),
        slow_loads(4),
        slow_loads(8),
    ];

    let mut out = String::new();
    out.push_str("machine                   Conv    Lev2    Lev4\n");
    for machine in &machines {
        let label = if machine.latency.load != 2 {
            format!("issue-8/load{}", machine.latency.load)
        } else {
            machine.name()
        };
        let _ = write!(out, "{label:<22}");
        for level in [Level::Conv, Level::Lev2, Level::Lev4] {
            let mean = ctx.mean_speedup(|w| Ok(ctx.cache.evaluate(w, level, machine)?.cycles))?;
            let _ = write!(out, " {mean:>6.2}x");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "mean issue-8 speedup over the issue-1 Conv baseline; the");
    let _ = writeln!(out, "transformed code's appetite for memory ports and FP units is");
    let _ = writeln!(out, "what the unrestricted model hides.");
    Ok(out)
}

/// Cache sensitivity study: how much of the transformation gains survive a
/// finite memory hierarchy.
///
/// The paper's node processor (§3.1) assumes a 100 % data-cache hit rate,
/// so every headline speedup is an upper bound. This study sweeps L1
/// capacity × miss latency over the 40-workload grid at every level (Conv,
/// Lev2 and Lev4 under `--quick`) and reports, per (level, width): the
/// mean speedup over the issue-1 Conv *perfect-memory* baseline, the
/// aggregate L1 hit rate, and the fraction of the perfect-memory speedup
/// retained.
///
/// `--quick` shrinks the sweep (fewer cache points, levels and widths) for
/// smoke runs; `scripts/verify.sh` runs it with `--scale 0.02 --quick`.
/// Output is deterministic for a given argument set.
fn cache_sensitivity(ctx: &StudyCtx) -> Result<String, String> {
    let levels: Vec<Level> = if ctx.quick {
        vec![Level::Conv, Level::Lev2, Level::Lev4]
    } else {
        Level::ALL.to_vec()
    };
    let top = *levels.last().expect("levels is not empty");
    let widths: Vec<u32> = if ctx.quick { vec![8] } else { vec![4, 8] };

    // L1 capacity sweep (4-word = 32-byte lines, 2-way): 0.5 KiB .. 32 KiB.
    let sizes: &[(&str, u32)] = if ctx.quick {
        &[("0.5KiB", 8), ("8KiB", 128)]
    } else {
        &[("0.5KiB", 8), ("2KiB", 32), ("8KiB", 128), ("32KiB", 512)]
    };
    let miss_lats: &[u32] = if ctx.quick { &[30] } else { &[10, 30, 100] };

    // Every grid carries the (Conv, issue-1) baseline axes: `run_sweep`
    // validates them, and self-contained grids are what give the shared
    // artifact cache a clean invariant.
    let mut eval_widths = widths.clone();
    eval_widths.push(1);
    // One sweep over every memory configuration, perfect memory first:
    // one work-stealing pool without a barrier per configuration, and one
    // artifact cache — compilation depends only on the machine's compile
    // key, so the cached configurations reuse what the first one built.
    let params = |sets: u32, lat: u32| CacheParams::new(4, sets, 2, lat, lat);
    let cached = sizes.iter().flat_map(|&(_, sets)| {
        miss_lats.iter().map(move |&lat| MemConfig::Cache(params(sets, lat)))
    });
    let scenarios = std::iter::once(MemConfig::Perfect).chain(cached).map(Scenario::mem).collect();
    let sweep = ctx.sweep(&levels, &eval_widths, scenarios)?;
    // The sweep varied only the memory hierarchy, so every (workload,
    // level, width) must have been compiled exactly once — the remaining
    // grid passes are pure artifact-cache hits. This is the acceptance
    // invariant for the compile-artifact cache; fail loudly if it slips.
    let c = sweep.cache;
    let distinct = 40 * levels.len() * eval_widths.len();
    let built = (c.compiles as usize, ctx.cache.distinct_artifacts(), c.ref_runs);
    if built != (distinct, distinct, 40) {
        return Err(format!(
            "memory-config sweep must compile once per (workload, level, width) and \
             interpret once per workload: {distinct} artifacts wanted, {c:?}"
        ));
    }
    for (name, level, width, p) in sweep.grids.iter().flat_map(Grid::iter_points) {
        if p.mem.accesses() != p.mem.hits() + p.mem.misses() {
            return Err(format!("{name} {level} issue-{width}: inconsistent stats {:?}", p.mem));
        }
    }
    let (perfect, mut cached_grids) = (&sweep.grids[0], sweep.grids[1..].iter());
    let mean = |g: &Grid, level: Level, width: u32| {
        ctx.mean_speedup(|w| {
            let point = g.point(w.meta.name, level, width).expect("clean grid has every point");
            Ok(point.cycles)
        })
    };

    let mut out = String::new();
    out.push_str("cache-sensitivity: transformation gains under a finite memory hierarchy\n");
    let _ = writeln!(out, "baseline: issue-1 Conv, perfect memory; scale {}", ctx.scale);
    let _ = writeln!(out);
    let _ = write!(out, "{:<30} {:>5} {:>7}", "configuration", "width", "hit%");
    for &level in &levels {
        let _ = write!(out, " {:>7}", format!("{level}"));
    }
    let _ = writeln!(out, "   (retained at top level)");
    for &width in &widths {
        let _ = write!(out, "{:<30} {:>5} {:>7}", "perfect (upper bound)", width, "100.0");
        for &level in &levels {
            let _ = write!(out, " {:>6.2}x", mean(perfect, level, width)?);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);

    for &(size_name, sets) in sizes {
        for &lat in miss_lats {
            let g = cached_grids.next().expect("one grid per memory configuration");
            let tag = format!("L1 {size_name} ({}) m{lat}", params(sets, lat).name());
            for &width in &widths {
                let hit = g
                    .hit_rate(g.meta.iter().map(|m| m.name), top, width)
                    .complete()
                    .expect("clean grid must aggregate completely");
                let _ = write!(out, "{:<30} {:>5} {:>7.1}", tag, width, hit * 100.0);
                for &level in &levels {
                    let _ = write!(out, " {:>6.2}x", mean(g, level, width)?);
                }
                let retained = mean(g, top, width)? / mean(perfect, top, width)?;
                let _ = writeln!(out, "   ({:.0}%)", retained * 100.0);
            }
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "artifact cache: {} compiles / {} hits ({} distinct artifacts), \
reference interp: {} runs / {} hits",
        c.compiles, c.hits, distinct, c.ref_runs, c.ref_hits
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "speedup = mean over the 40 loops vs the issue-1 Conv perfect-memory");
    let _ = writeln!(out, "baseline; hit% = aggregate L1 hit rate at the highest level shown.");
    let _ = writeln!(out, "Where hit rates fall, unrolling+expansion gains collapse toward the");
    let _ = writeln!(out, "memory bound — the part of the paper's story the 100%-hit model hides.");
    Ok(out)
}

/// VLEN × issue-width sweep for the SLP vectorization subsystem (Lev6).
///
/// Crosses the 40-loop grid with vector lengths {1, 2, 4, 8} and issue
/// widths {1, 4, 8} on one work-stealing pool (one scenario per VLEN —
/// VLEN is compile-relevant, so each gets its own artifact-cache keys).
/// Reports, per loop: the Lev4 scalar speedup and the Lev6 speedup at
/// every VLEN (issue-8, over the issue-1 Conv base), plus the number of
/// SLP packs formed. Then checks the subsystem's two structural
/// invariants on the measured data:
///
/// * **VLEN = 1 is Lev4**: at vector length 1 the SLP pass must be a
///   structural no-op, so Lev6 cycle counts equal Lev4's on every
///   (loop, width) point.
/// * **Vectorization never miscompiles**: every point already passed the
///   differential check against the AST interpreter inside `evaluate`
///   (a failure would surface as a grid error, and any error fails the
///   study).
///
/// `--quick` shrinks the sweep (VLEN {1, 4}, widths {1, 8}, scale 0.05)
/// for smoke runs; `scripts/verify.sh` runs it that way. Output is
/// deterministic for a given argument set: the one number that depends on
/// thread scheduling, the pool's steal count, goes to stderr.
fn vlen_sweep(ctx: &StudyCtx) -> Result<String, String> {
    let vlens: Vec<u32> = if ctx.quick { vec![1, 4] } else { vec![1, 2, 4, 8] };
    let widths: Vec<u32> = if ctx.quick { vec![1, 8] } else { vec![1, 4, 8] };
    let levels = [Level::Conv, Level::Lev4, Level::Lev6];
    let scenarios = vlens.iter().map(|&v| Scenario::vlen(v)).collect();
    let sweep = ctx.sweep(&levels, &widths, scenarios)?;

    // Pack census is width-independent: one compile per (loop, VLEN).
    let max_packs = |w: &Workload| {
        let packs = |&v: &u32| {
            compile(w, Level::Lev6, &Machine::issue(8).with_vlen(v)).report.packs_formed
        };
        vlens.iter().map(packs).max().expect("vlens is not empty")
    };

    // Per-loop table: issue-8 speedups over the scenario's own issue-1
    // Conv base (Conv is VLEN-insensitive, so the bases agree).
    let w8 = *widths.last().expect("widths is not empty");
    let speedup = |g: &Grid, w: &Workload, level| {
        g.speedup(w.meta.name, level, w8).expect("clean grid has every point")
    };
    let mut out = String::new();
    let _ = write!(out, "{:<10} {:>9}", "loop", format!("Lev4/w{w8}"));
    for &v in &vlens {
        let _ = write!(out, " {:>9}", format!("Lev6/v{v}"));
    }
    let _ = writeln!(out, " {:>6}", "packs");
    let mut vectorized = 0usize;
    for w in &ctx.workloads {
        let lev4 = speedup(&sweep.grids[0], w, Level::Lev4);
        let _ = write!(out, "{:<10} {:>8.2}x", w.meta.name, lev4);
        for g in &sweep.grids {
            let _ = write!(out, " {:>8.2}x", speedup(g, w, Level::Lev6));
        }
        let packs = max_packs(w);
        let _ = writeln!(out, " {packs:>6}");
        if packs > 0 {
            vectorized += 1;
        }
    }

    let _ = writeln!(out);
    for (&v, g) in vlens.iter().zip(&sweep.grids) {
        let names = ctx.workloads.iter().map(|w| w.meta.name);
        let mean = g.mean_speedup(names, Level::Lev6, w8);
        let _ = writeln!(
            out,
            "VLEN {v}: issue-{w8} mean Lev6 speedup = {:.2}x",
            mean.complete().expect("full coverage")
        );
    }
    let _ = writeln!(out, "{vectorized}/40 loops form at least one SLP pack");

    // Invariant: VLEN = 1 is cycle-identical to Lev4 at every width.
    let v1 = &sweep.grids[vlens.iter().position(|&v| v == 1).expect("VLEN 1 in sweep")];
    let mut mismatches = Vec::new();
    for w in &ctx.workloads {
        for &width in &widths {
            let cycles = |level| v1.point(w.meta.name, level, width).map(|p| p.cycles);
            let (c4, c6) = (cycles(Level::Lev4), cycles(Level::Lev6));
            if c4 != c6 {
                mismatches.push(format!("{} w{width}: Lev4 {c4:?}, Lev6/v1 {c6:?}", w.meta.name));
            }
        }
    }
    if !mismatches.is_empty() {
        return Err(format!("VLEN=1 must be cycle-identical to Lev4:\n{}", mismatches.join("\n")));
    }
    let _ = writeln!(out, "VLEN=1 cycle-identical to Lev4 on all {} points", 40 * widths.len());
    let c = sweep.cache;
    let _ = writeln!(out, "artifact cache: {} compiles, {} hits", c.compiles, c.hits);
    eprintln!("{} steals", sweep.steals.steals);
    Ok(out)
}

/// Static-estimate vs profile-driven superblock formation (IMPACT used
/// execution profiles to select traces; our front end only estimates
/// branch probabilities). Reported for the loops with conditionals —
/// the only ones where trace selection matters.
fn profile_study(ctx: &StudyCtx) -> Result<String, String> {
    let machine = Machine::issue(8);
    let mut out = String::new();
    out.push_str("loop             static   profiled    ratio\n");
    for w in ctx.workloads.iter().filter(|w| w.meta.conds) {
        let stat = evaluate(w, Level::Lev4, &machine)?;
        let prof = evaluate_with_profile(w, Level::Lev4, &machine)?;
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>8.3}",
            w.meta.name,
            stat.cycles,
            prof.cycles,
            prof.cycles as f64 / stat.cycles as f64
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "cycles at Lev4/issue-8; ratio < 1 means the measured profile");
    let _ = writeln!(out, "beat the front end's static estimates. Both runs are verified");
    let _ = writeln!(out, "against the interpreter.");
    Ok(out)
}

/// Software pipelining vs. superblock-scheduled unrolling — the comparison
/// the paper leaves open ("[software pipelining] methods also benefit from
/// dependence elimination but the effect of the transformations on these
/// methods is not evaluated in this study").
///
/// For every inner loop that is a single block without internal control
/// flow, this study reports:
///
/// * `swp II` — the initiation interval iterative modulo scheduling
///   achieves on the *conventional* (not unrolled) loop body, i.e. the
///   steady-state cycles/iteration of software pipelining;
/// * `resMII` / `recMII` — its resource and recurrence lower bounds;
/// * `unroll c/i` — cycles per original iteration of the Lev4-transformed,
///   unrolled, superblock-scheduled main loop (schedule length divided by
///   the unroll factor).
fn swp(ctx: &StudyCtx) -> Result<String, String> {
    let machine = Machine::issue(8);
    let mut out = String::new();
    out.push_str("loop            swp II  resMII  recMII  unroll c/i    winner\n");
    let mut swp_wins = 0usize;
    let mut unroll_wins = 0usize;
    let mut ties = 0usize;

    for w in &ctx.workloads {
        // Software pipelining candidate: the Conv-level inner loop body.
        let conv = compile(w, Level::Conv, &machine);
        let bodies = pipelinable_loops(&conv.module);
        let Some((insts, carried)) = bodies.into_iter().next() else {
            continue;
        };
        let Some(swp) = modulo_schedule(&insts, &machine, &carried) else {
            continue;
        };

        // Unrolled + Lev4 + superblock comparison point.
        let lev4 = compile(w, Level::Lev4, &machine);
        let factor = if lev4.report.loops_unrolled > 0 {
            lev4.report.unroll_factor_total as f64 / lev4.report.loops_unrolled as f64
        } else {
            1.0
        };
        // Largest inner-loop block = the unrolled main body.
        let func = &lev4.module.func;
        let forest = LoopForest::compute(func);
        let lv = Liveness::compute(func);
        let main_len = forest
            .inner_loops()
            .into_iter()
            .filter(|lp| lp.blocks.len() == 1 && func.block(lp.blocks[0]).insts.len() > 4)
            .map(|lp| {
                let body = &func.block(lp.blocks[0]).insts;
                schedule_insts(body, &machine, &|t| lv.live_in(t).clone()).length()
            })
            .max();
        let Some(main_len) = main_len else { continue };
        let unroll_rate = main_len as f64 / factor;

        let winner = if (swp.ii as f64) < unroll_rate * 0.95 {
            swp_wins += 1;
            "swp"
        } else if unroll_rate < swp.ii as f64 * 0.95 {
            unroll_wins += 1;
            "unroll"
        } else {
            ties += 1;
            "tie"
        };
        let _ = writeln!(
            out,
            "{:<14}{:>8}{:>8}{:>8}{:>12.2}{:>10}",
            w.meta.name, swp.ii, swp.res_mii, swp.rec_mii, unroll_rate, winner
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "software pipelining wins {swp_wins}, unrolling+Lev4 wins \
         {unroll_wins}, ties {ties}"
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "note: swp II is measured on the CONVENTIONAL body — it needs no");
    let _ = writeln!(out, "unrolling or renaming, but its recurrence bound contains exactly");
    let _ = writeln!(out, "the chains that accumulator/induction expansion break, so the");
    let _ = writeln!(out, "Lev4 expansions would lower recMII for software pipelining too,");
    let _ = writeln!(out, "confirming the paper's conjecture.");
    Ok(out)
}

/// Seeded fault-injection campaign against the transformation firewall
/// (`crate::campaign`): 500 faults (120 under `--quick`) at seed 7, each
/// classified by the layer that flagged it. Fails on any silent escape —
/// wrong architectural results with nothing flagged.
fn fault_campaign(ctx: &StudyCtx) -> Result<String, String> {
    let faults = if ctx.quick { 120 } else { 500 };
    let cfg = CampaignConfig { faults, seed: 7, scale: ctx.scale, ..CampaignConfig::default() };
    let report = run_campaign(&cfg);
    let table = report.render();
    match report.silent_escapes() {
        0 => Ok(table + "OK: zero silent escapes\n"),
        n => Err(format!("{n} silent escape(s)\n{table}")),
    }
}

/// Static legality audit of the compiled grid: all 40 workloads at every
/// level for issue widths 1, 4 and 8 (width 4 only under `--quick`), each
/// artifact through the `ilpc-lint` dataflow lints and the schedule
/// auditor. Prints the per-severity summary (`--verbose`: every
/// diagnostic before it). The healthy pipeline is lint-clean, so any
/// error-severity diagnostic fails the study.
fn lint(ctx: &StudyCtx) -> Result<String, String> {
    let widths: &[u32] = if ctx.quick { &[4] } else { &[1, 4, 8] };
    let mut out = String::new();
    let mut errors = String::new();
    let mut artifacts = 0usize;
    let mut totals = [0usize; 3]; // note, warning, error
    for w in &ctx.workloads {
        for level in Level::ALL {
            for &width in widths {
                let machine = Machine::issue(width);
                let c = compile(w, level, &machine);
                let mut diags = lint_module(&c.module);
                diags.extend(audit_schedules(&c.module, &c.schedules, &machine));
                sort_diagnostics(&mut diags);
                artifacts += 1;
                let severities = [Severity::Note, Severity::Warning, Severity::Error];
                for (total, severity) in totals.iter_mut().zip(severities) {
                    *total += count_severity(&diags, severity);
                }
                for d in &diags {
                    let line = format!("{}/{level}/w{width}: {d}\n", w.meta.name);
                    if d.severity == Severity::Error {
                        errors.push_str(&line);
                    }
                    if ctx.verbose {
                        out.push_str(&line);
                    }
                }
            }
        }
    }
    let [notes, warnings, errs] = totals;
    let _ = writeln!(
        out,
        "{artifacts} artifacts audited: {errs} error(s), {warnings} warning(s), {notes} note(s)"
    );
    match errs {
        0 => Ok(out),
        n => Err(format!("{n} error-severity diagnostic(s)\n{errors}")),
    }
}
