//! Compile-artifact cache for parameter sweeps.
//!
//! A sweep point is (workload, level, machine) — but compilation only
//! depends on the machine's *compile key* ([`Machine::compile_key`]: issue
//! width, FU limits, latency table, load speculativity), never on the
//! memory hierarchy, which retimes execution without changing code. A
//! cache-sensitivity sweep over N memory configurations therefore
//! re-compiles (and re-decodes, and re-interprets the reference program
//! for) every grid point N times for byte-identical artifacts.
//!
//! [`ArtifactCache`] deduplicates that work across concurrent grid
//! workers: one entry per `(workload, level, compile-config hash)` holding
//! what evaluating a point reads of the compilation — see [`Artifact`] —
//! plus one reference interpreter execution per workload. Exactly-once
//! construction under concurrency comes from a per-key `OnceLock` fetched
//! under a brief map lock: the first thread to arrive compiles while the
//! map stays unlocked, later threads (and blocked racers) reuse the filled
//! cell and count a hit.
//!
//! ## The level ladder
//!
//! The middle end is shared further. The levels are cumulative — the rows
//! `passes(level)` selects from the sorted `PASSES` table are a prefix of
//! the next level's — and no row reads anything of the machine except
//! `vlen`. So per `(workload, vlen)` the cache keeps one `Ladder`: the
//! module after each level's last row (a *rung*), each built from the rung
//! below by running only that level's rows. An artifact is a clone of its
//! level's rung taken through the backend for its machine; `lower` and
//! every pass row run once per workload however many levels, widths and
//! latency tables are asked for. This is the cache's only route to an
//! artifact; `crate::compile::compile`, which starts from lowered IR every
//! time, is the oracle the tests below hold it to.
//!
//! ## Contract
//!
//! A cache is bound to one workload catalog at one trip-count scale:
//! entries are keyed by workload *name*, so sharing a cache between grids
//! built with different `scale` values would silently mix trip counts.
//! Build one `Arc<ArtifactCache>` per sweep (one scale, many memory
//! configurations) and drop it with the sweep.

use crate::compile::{backend, direct, run_rows, Compiled, Step};
use crate::run::{run_decoded, EvalPoint};
use ilpc_core::level::{Level, TransformReport, PASSES};
use ilpc_ir::ast::{Program, VarId};
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_ir::lower::lower;
use ilpc_ir::{Module, SymId, SymTab};
use ilpc_machine::Machine;
use ilpc_regalloc::RegUsage;
use ilpc_sim::{decode, DecodedProgram};
use ilpc_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What evaluating a point reads of one compilation: the symbol table and
/// shadow map (memory image layout and result comparison), the two code
/// metrics, and the pre-decoded simulator program. The scheduled function
/// body and its per-block schedules are dropped once [`decode`] has read
/// them — the decoded program is the code from then on, and they were more
/// than half of a cold sweep's resident memory.
pub struct Artifact {
    pub symtab: SymTab,
    /// Assigned scalar → shadow output symbol (for result comparison).
    pub shadow: HashMap<VarId, SymId>,
    pub regs: RegUsage,
    pub static_insts: usize,
    pub decoded: DecodedProgram,
}

impl Artifact {
    /// Decode `compiled` for `machine` and keep what evaluation reads.
    pub(crate) fn new(compiled: &Compiled, machine: &Machine) -> Artifact {
        Artifact {
            symtab: compiled.module.symtab.clone(),
            shadow: compiled.shadow.clone(),
            regs: compiled.regs,
            static_insts: compiled.static_insts,
            decoded: decode(&compiled.module, machine),
        }
    }
}

/// One level of a [`Ladder`]: the module and the application counts after
/// that level's last `PASSES` row, before the backend.
struct Rung {
    module: Module,
    report: TransformReport,
}

/// The middle end of one workload at one `vlen`, memoised level by level.
/// `rungs[i]` belongs to `Level::ALL[i]`, the level with discriminant `i`.
#[derive(Default)]
struct Ladder {
    /// Assigned scalar → shadow output symbol, from the one lowering.
    shadow: HashMap<VarId, SymId>,
    rungs: Vec<Rung>,
}

impl Ladder {
    /// Build the next rung: lower `program` if there is no rung yet, else
    /// copy the highest one, and run the next level's rows. Nothing is
    /// published until the rows have returned, so a panic inside one
    /// (contained further up) leaves the ladder as it was.
    fn extend(&mut self, program: &Program, vlen: u32, step: &mut impl Step) {
        let next = Level::ALL[self.rungs.len()];
        let (mut module, mut report, shadow) = match self.rungs.last() {
            Some(top) => (top.module.clone(), top.report.clone(), None),
            None => {
                let lowered = lower(program);
                (lowered.module, TransformReport::default(), Some(lowered.shadow_syms))
            }
        };
        let rows = PASSES.iter().filter(|p| p.level == next);
        run_rows(&mut module, &mut report, rows, vlen, step);
        if let Some(shadow) = shadow {
            self.shadow = shadow;
        }
        self.rungs.push(Rung { module, report });
    }
}

/// Cumulative counter snapshot of one cache (see [`ArtifactCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Artifact lookups served from an already-built entry.
    pub hits: u64,
    /// Artifact lookups that compiled (exactly one per distinct key).
    pub compiles: u64,
    /// Ladder rungs built: one per (workload, vlen, level climbed), however
    /// many artifacts were cut from it.
    pub rungs: u64,
    /// Reference-interpreter lookups served from cache.
    pub ref_hits: u64,
    /// Reference-interpreter executions (exactly one per workload).
    pub ref_runs: u64,
}

/// Concurrency-safe compile-artifact + reference-execution cache.
pub struct ArtifactCache {
    artifacts: Mutex<HashMap<(String, Level, u64), Arc<OnceLock<Arc<Artifact>>>>>,
    ladders: Mutex<HashMap<(String, u32), Arc<Mutex<Ladder>>>>,
    refs: Mutex<HashMap<String, Arc<OnceLock<Arc<ExecState>>>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
    rungs: AtomicU64,
    ref_hits: AtomicU64,
    ref_runs: AtomicU64,
}

impl Default for ArtifactCache {
    fn default() -> ArtifactCache {
        ArtifactCache::new()
    }
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.counters();
        f.debug_struct("ArtifactCache")
            .field("hits", &c.hits)
            .field("compiles", &c.compiles)
            .field("rungs", &c.rungs)
            .field("ref_hits", &c.ref_hits)
            .field("ref_runs", &c.ref_runs)
            .finish()
    }
}

impl ArtifactCache {
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            artifacts: Mutex::new(HashMap::new()),
            ladders: Mutex::new(HashMap::new()),
            refs: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            rungs: AtomicU64::new(0),
            ref_hits: AtomicU64::new(0),
            ref_runs: AtomicU64::new(0),
        }
    }

    /// Counter snapshot (consistent enough for reporting; each counter is
    /// individually exact).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            rungs: self.rungs.load(Ordering::Relaxed),
            ref_hits: self.ref_hits.load(Ordering::Relaxed),
            ref_runs: self.ref_runs.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct artifacts built so far.
    pub fn distinct_artifacts(&self) -> usize {
        self.artifacts.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The artifact for `(w, level, machine.compile_key())`, compiling at
    /// most once per key no matter how many threads race here.
    pub fn artifact(&self, w: &Workload, level: Level, machine: &Machine) -> Arc<Artifact> {
        let key = (w.meta.name.to_string(), level, machine.compile_config_hash());
        // Fetch (or plant) the per-key cell under a brief map lock, then
        // build outside it: concurrent misses on *different* keys compile
        // in parallel, racers on the same key block only on that key.
        let cell = {
            let mut map = self.artifacts.lock().unwrap_or_else(|p| p.into_inner());
            map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())).clone()
        };
        let mut built = false;
        let artifact = cell
            .get_or_init(|| {
                built = true;
                self.compiles.fetch_add(1, Ordering::Relaxed);
                let compiled = self.compile_from_rung(w, level, machine, &mut direct);
                Arc::new(Artifact::new(&compiled, machine))
            })
            .clone();
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        artifact
    }

    /// `compile(w, level, machine)` by way of the ladder: climb to `level`
    /// if no rung is there yet, then take a copy of the rung through the
    /// backend. The ladder's lock is held while extending and copying only,
    /// so artifacts of one level for several machines schedule in parallel.
    fn compile_from_rung(
        &self,
        w: &Workload,
        level: Level,
        machine: &Machine,
        step: &mut impl Step,
    ) -> Compiled {
        let ladder = {
            let mut map = self.ladders.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry((w.meta.name.to_string(), machine.vlen)).or_default())
        };
        let (module, shadow, report) = {
            // A row that panicked under this lock poisoned it, but a rung
            // is pushed only after its rows returned: what is there is whole.
            let mut ladder = ladder.lock().unwrap_or_else(|p| p.into_inner());
            while ladder.rungs.len() <= level as usize {
                ladder.extend(&w.program, machine.vlen, step);
                self.rungs.fetch_add(1, Ordering::Relaxed);
            }
            let rung = &ladder.rungs[level as usize];
            (rung.module.clone(), ladder.shadow.clone(), rung.report.clone())
        };
        backend(module, shadow, report, machine, step)
    }

    /// The reference interpreter execution for `w`, run at most once.
    pub fn reference(&self, w: &Workload) -> Arc<ExecState> {
        let cell = {
            let mut map = self.refs.lock().unwrap_or_else(|p| p.into_inner());
            map.entry(w.meta.name.to_string())
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        let mut ran = false;
        let state = cell
            .get_or_init(|| {
                ran = true;
                self.ref_runs.fetch_add(1, Ordering::Relaxed);
                Arc::new(interpret(&w.program, &w.init))
            })
            .clone();
        if !ran {
            self.ref_hits.fetch_add(1, Ordering::Relaxed);
        }
        state
    }

    /// Cache-aware equivalent of [`crate::run::evaluate`]: compile/decode
    /// and the reference execution come from the cache, the simulation
    /// runs the pre-decoded engine under this point's (possibly
    /// cache-laden) `machine`, and the result is differentially verified
    /// exactly like the uncached path.
    pub fn evaluate(
        &self,
        w: &Workload,
        level: Level,
        machine: &Machine,
    ) -> Result<EvalPoint, String> {
        let artifact = self.artifact(w, level, machine);
        let reference = self.reference(w);
        run_decoded(w, &artifact, &reference, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::evaluate;
    use ilpc_mem::{CacheParams, MemConfig};
    use ilpc_workloads::{build, table2};

    fn workload(name: &str) -> Workload {
        let meta = table2().into_iter().find(|m| m.name == name).unwrap();
        build(&meta, 0.04)
    }

    /// Cached evaluation is bit-identical to the uncached path, and a
    /// memory-config sweep compiles each (workload, level, key) once.
    #[test]
    fn cached_evaluation_matches_uncached_and_compiles_once() {
        let cache = ArtifactCache::new();
        let w = workload("dotprod");
        let mems = [
            MemConfig::Perfect,
            MemConfig::Cache(CacheParams::small()),
            MemConfig::Cache(CacheParams::new(4, 8, 2, 30, 10)),
        ];
        for level in [Level::Conv, Level::Lev4] {
            for mem in mems {
                let machine = Machine::issue(8).with_mem(mem);
                let cached = cache.evaluate(&w, level, &machine).unwrap();
                let direct = evaluate(&w, level, &machine).unwrap();
                assert_eq!(cached.cycles, direct.cycles);
                assert_eq!(cached.dyn_insts, direct.dyn_insts);
                assert_eq!(cached.mem, direct.mem);
                assert_eq!(cached.static_insts, direct.static_insts);
            }
        }
        let c = cache.counters();
        // 2 levels × 3 memory configs = 6 lookups, 2 distinct compile keys.
        assert_eq!(c.compiles, 2, "{c:?}");
        assert_eq!(c.hits, 4, "{c:?}");
        assert_eq!(cache.distinct_artifacts(), 2);
        // One reference interpretation serves all 6 points.
        assert_eq!(c.ref_runs, 1, "{c:?}");
        assert_eq!(c.ref_hits, 5, "{c:?}");
    }

    /// Eight threads racing over the six levels of one workload build each
    /// artifact and each rung exactly once.
    #[test]
    fn concurrent_lookups_compile_exactly_once() {
        let cache = ArtifactCache::new();
        let w = workload("add");
        let machine = Machine::issue(4);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for k in 0..8 {
                let (cache, w, machine, start) = (&cache, &w, &machine, &start);
                s.spawn(move || {
                    start.wait();
                    // Each thread enters the ladder at a different level.
                    for i in 0..Level::ALL.len() {
                        let level = Level::ALL[(i + k) % Level::ALL.len()];
                        cache.evaluate(w, level, machine).unwrap();
                    }
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.compiles, 6, "{c:?}");
        assert_eq!(c.hits, 42, "{c:?}");
        assert_eq!(c.rungs, 6, "{c:?}");
        assert_eq!(c.ref_runs, 1, "{c:?}");
    }

    fn assert_same_compilation(tag: &str, got: &Compiled, want: &Compiled) {
        use ilpc_ir::text::serialize;
        assert_eq!(serialize(&got.module), serialize(&want.module), "{tag}: module");
        assert_eq!(got.shadow, want.shadow, "{tag}: shadow");
        assert_eq!(got.report, want.report, "{tag}: report");
        assert_eq!(got.superblocks, want.superblocks, "{tag}: superblocks");
        assert_eq!(got.regs, want.regs, "{tag}: regs");
        assert_eq!(got.static_insts, want.static_insts, "{tag}: static_insts");
        assert_eq!(got.schedules, want.schedules, "{tag}: schedules");
    }

    /// The ladder is held to its oracle: whatever order levels are asked
    /// for, the compilation cut from a rung equals `compile` from scratch,
    /// on every workload, with and without the SLP rows doing work.
    #[test]
    fn compiling_from_a_rung_equals_compiling_from_scratch() {
        let cache = ArtifactCache::new();
        let down_then_up = (0..Level::ALL.len()).rev().chain(0..Level::ALL.len());
        for w in ilpc_workloads::build_all(0.05) {
            for vlen in [1, 4] {
                for width in [1, 8] {
                    let machine = Machine::issue(width).with_vlen(vlen);
                    let want = Level::ALL.map(|level| crate::compile::compile(&w, level, &machine));
                    for i in down_then_up.clone() {
                        let level = Level::ALL[i];
                        let got = cache.compile_from_rung(&w, level, &machine, &mut direct);
                        let tag = format!("{} {level} issue-{width} vlen-{vlen}", w.meta.name);
                        assert_same_compilation(&tag, &got, &want[i]);
                    }
                }
            }
        }
        // `lower` and every pass row ran once per (workload, vlen).
        assert_eq!(cache.counters().rungs, 40 * 2 * 6);
    }

    /// A row that panics mid-climb (the grid contains such panics per
    /// point) costs only the rung it was building: the rungs below answer
    /// as before, and the climb succeeds when retried.
    #[test]
    fn a_panicking_row_leaves_the_published_rungs_intact() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = ArtifactCache::new();
        let w = workload("dotprod");
        let machine = Machine::issue(8);
        let mut bomb = |m: &mut Module, name: &'static str, body: &mut dyn FnMut(&mut Module)| {
            assert_ne!(name, "tree-height-reduce", "injected fault");
            body(m);
            true
        };
        let first = catch_unwind(AssertUnwindSafe(|| {
            cache.compile_from_rung(&w, Level::Lev3, &machine, &mut bomb)
        }));
        assert!(first.is_err(), "the injected fault must surface");
        assert_eq!(cache.counters().rungs, 3, "Conv, Lev1 and Lev2 were published");

        for (level, rungs) in [(Level::Lev2, 3), (Level::Lev3, 4)] {
            let got = cache.compile_from_rung(&w, level, &machine, &mut direct);
            let want = crate::compile::compile(&w, level, &machine);
            assert_same_compilation(level.name(), &got, &want);
            assert_eq!(cache.counters().rungs, rungs, "after {level}");
        }
    }
}
