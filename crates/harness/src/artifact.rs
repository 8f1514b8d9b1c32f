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
//! workers: one entry per `(workload, rows, compile-config hash)` holding
//! what evaluating a point reads of the compilation — see [`Artifact`] —
//! plus one reference interpreter execution per workload. `rows` is the
//! point's mask of `PASSES` rows, so a `Level` and the ablation
//! `TransformSet` equal to it share an artifact. Exactly-once
//! construction under concurrency comes from a per-key `OnceLock` fetched
//! under a brief map lock: the first thread to arrive compiles while the
//! map stays unlocked, later threads (and blocked racers) reuse the filled
//! cell and count a hit.
//!
//! ## The trie
//!
//! The middle end is shared further. `PASSES` is sorted by level and no
//! row reads anything of the machine except `vlen`, so per `(workload,
//! vlen)` the cache keeps one trie of modules cut at level boundaries: a
//! selection's node at level L is keyed by its rows up to L, and built
//! from its node at the level below by running only its rows at L. The
//! levels are one path through it; an ablation set branches off where it
//! first differs. An artifact is a clone of its selection's node taken
//! through the backend for its machine; `lower` and every row run once per
//! node however many selections, widths and latency tables are asked for.
//! This is the cache's only route to an artifact; `crate::compile::compile`,
//! which starts from lowered IR every time, is the oracle the tests below
//! hold it to.
//!
//! ## The backend front
//!
//! Of the backend, only list-scheduling placement reads the issue width.
//! A lookup may bring a slot for a backend *front* (see
//! `crate::compile::backend`): the trie node's module after superblock
//! formation plus its block dependence DAGs for one latency table. A
//! missing artifact is then placed from the front in the slot, or from a
//! new front built in it. `crate::sweep` passes one slot per work item, so
//! the widths of a (scenario, workload, level) share one front that is
//! dropped with the item. The trie never holds a front: kept for every
//! node of a sweep, they would double its resident memory.
//!
//! ## Contract
//!
//! A cache is bound to one workload catalog at one trip-count scale:
//! entries are keyed by workload *name*, so sharing a cache between grids
//! built with different `scale` values would silently mix trip counts.
//! Build one `Arc<ArtifactCache>` per sweep (one scale, many memory
//! configurations) and drop it with the sweep.

use crate::compile::{backend, Compiled, Front, Middle};
use crate::run::{run_decoded, EvalPoint};
use ilpc_core::level::{direct, run_rows, Level, Rows, Step, TransformReport};
use ilpc_ir::ast::VarId;
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_ir::lower::lower;
use ilpc_ir::{SymId, SymTab};
use ilpc_machine::Machine;
use ilpc_regalloc::RegUsage;
use ilpc_sim::{decode, DecodedProgram};
use ilpc_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What evaluating a point reads of one compilation: the symbol table and
/// shadow map (memory image layout and result comparison), the code
/// metrics, and the pre-decoded simulator program. The scheduled function
/// body and its per-block schedules are dropped once [`decode`] has read
/// them — the decoded program is the code from then on, and they were more
/// than half of a cold sweep's resident memory.
pub struct Artifact {
    pub symtab: SymTab,
    /// Assigned scalar → shadow output symbol, in `SymId` order (for
    /// result comparison).
    pub shadow: Vec<(VarId, SymId)>,
    /// Transformation application counts of the trie node it was cut from.
    pub report: TransformReport,
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
            report: compiled.report.clone(),
            regs: compiled.regs,
            static_insts: compiled.static_insts,
            decoded: decode(&compiled.module, machine),
        }
    }
}

/// The middle end of one workload at one `vlen`, memoised at level
/// boundaries: each node is the module, shadow map and application counts
/// after the rows it is keyed by, before the backend.
type Trie = HashMap<Rows, Middle>;

/// Cumulative counter snapshot of one cache (see [`ArtifactCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Artifact lookups served from an already-built entry.
    pub hits: u64,
    /// Artifact lookups that compiled (exactly one per distinct key).
    pub compiles: u64,
    /// Trie nodes built: one per (workload, vlen, rows up to a level) a
    /// selection reached, however many artifacts were cut from it. A
    /// sweep over levels builds one per (workload, vlen, level).
    pub rungs: u64,
    /// Backend fronts built (see `crate::compile::backend`): one per sweep
    /// work item that compiled anything, plus one per change of latency
    /// table inside an item. Lookups made without a front slot build none.
    pub fronts: u64,
    /// Reference-interpreter lookups served from cache.
    pub ref_hits: u64,
    /// Reference-interpreter executions (exactly one per workload).
    pub ref_runs: u64,
}

/// Concurrency-safe compile-artifact + reference-execution cache.
pub struct ArtifactCache {
    artifacts: Mutex<HashMap<(String, Rows, u64), Arc<OnceLock<Arc<Artifact>>>>>,
    tries: Mutex<HashMap<(String, u32), Arc<Mutex<Trie>>>>,
    refs: Mutex<HashMap<String, Arc<OnceLock<Arc<ExecState>>>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
    rungs: AtomicU64,
    fronts: AtomicU64,
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
            .field("fronts", &c.fronts)
            .field("ref_hits", &c.ref_hits)
            .field("ref_runs", &c.ref_runs)
            .finish()
    }
}

impl ArtifactCache {
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            artifacts: Mutex::new(HashMap::new()),
            tries: Mutex::new(HashMap::new()),
            refs: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            rungs: AtomicU64::new(0),
            fronts: AtomicU64::new(0),
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
            fronts: self.fronts.load(Ordering::Relaxed),
            ref_hits: self.ref_hits.load(Ordering::Relaxed),
            ref_runs: self.ref_runs.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct artifacts built so far.
    pub fn distinct_artifacts(&self) -> usize {
        self.artifacts.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The artifact for `(w, sel, machine.compile_key())`, compiling at
    /// most once per key no matter how many threads race here. `sel` is a
    /// `Level` or an ablation `TransformSet`.
    pub fn artifact(&self, w: &Workload, sel: impl Into<Rows>, machine: &Machine) -> Arc<Artifact> {
        self.artifact_in(w, sel.into(), machine, None)
    }

    /// [`ArtifactCache::artifact`], compiling through `front` if the key
    /// is missing (see `crate::compile::backend`).
    fn artifact_in(
        &self,
        w: &Workload,
        sel: Rows,
        machine: &Machine,
        front: Option<&mut Option<Front>>,
    ) -> Arc<Artifact> {
        let key = (w.meta.name.to_string(), sel, machine.compile_config_hash());
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
                let compiled = self.compile_from_rung(w, sel, machine, &mut direct, front);
                Arc::new(Artifact::new(&compiled, machine))
            })
            .clone();
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        artifact
    }

    /// `compile(w, sel, machine)` by way of the trie and, when given, a
    /// front slot: if the slot holds no front that serves `machine`, climb
    /// to `sel`'s node and take a copy of it through the backend's front;
    /// then place for `machine`. The trie's lock is held while growing and
    /// copying only, so artifacts of one selection for several machines
    /// schedule in parallel.
    fn compile_from_rung(
        &self,
        w: &Workload,
        sel: Rows,
        machine: &Machine,
        step: &mut impl Step,
        front: Option<&mut Option<Front>>,
    ) -> Compiled {
        let builds_front =
            front.as_deref().is_some_and(|f| !f.as_ref().is_some_and(|f| f.serves(machine)));
        let compiled = backend(|step| self.climb(w, sel, machine.vlen, step), machine, step, front);
        if builds_front {
            self.fronts.fetch_add(1, Ordering::Relaxed);
        }
        compiled
    }

    /// A copy of `w`'s node for `sel` at `vlen`, growing the nodes on its
    /// path, level by level, that are not built yet.
    fn climb(&self, w: &Workload, sel: Rows, vlen: u32, step: &mut impl Step) -> Middle {
        let trie = {
            let mut map = self.tries.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry((w.meta.name.to_string(), vlen)).or_default())
        };
        // A row that panicked under this lock poisoned it, but a node is
        // published only after its rows returned: what is there is whole.
        let mut trie = trie.lock().unwrap_or_else(|p| p.into_inner());
        // Walk `sel`'s nodes level by level; where it has no rows at a
        // level, the node is its parent's.
        let mut node = Rows::default();
        for level in Level::ALL {
            let (parent, rows) = (node, sel.at(level));
            node = node | rows;
            if trie.contains_key(&node) {
                continue;
            }
            let mut middle = trie.get(&parent).cloned().unwrap_or_else(|| {
                let lowered = lower(&w.program);
                let report = TransformReport::default();
                Middle { module: lowered.module, shadow: lowered.shadow_syms, report }
            });
            run_rows(&mut middle.module, &mut middle.report, rows, vlen, step);
            trie.insert(node, middle);
            self.rungs.fetch_add(1, Ordering::Relaxed);
        }
        trie[&node].clone()
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
        sel: impl Into<Rows>,
        machine: &Machine,
    ) -> Result<EvalPoint, String> {
        self.evaluate_in(w, sel, machine, None)
    }

    /// [`ArtifactCache::evaluate`], compiling a missing artifact through
    /// `front`: `crate::sweep` passes one slot for all the widths of a
    /// work item.
    pub(crate) fn evaluate_in(
        &self,
        w: &Workload,
        sel: impl Into<Rows>,
        machine: &Machine,
        front: Option<&mut Option<Front>>,
    ) -> Result<EvalPoint, String> {
        let artifact = self.artifact_in(w, sel.into(), machine, front);
        let reference = self.reference(w);
        run_decoded(w, &artifact, &reference, machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::evaluate;
    use ilpc_core::ablation::TransformSet;
    use ilpc_ir::Module;
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
                    for level in Level::ALL.into_iter().cycle().skip(k).take(Level::ALL.len()) {
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

    /// The 14 selections of the ablation study.
    fn ablation_sets() -> Vec<TransformSet> {
        let mut sets = vec![TransformSet::of_level(Level::Lev2), TransformSet::all()];
        sets.extend(TransformSet::NAMES.map(TransformSet::all_but));
        sets.extend(TransformSet::NAMES.map(TransformSet::lev2_plus));
        sets
    }

    /// The trie and the backend front are held to their oracle: whatever
    /// order selections are asked for, the compilation cut from a node
    /// equals `compile` from scratch, on every workload, with and without
    /// the SLP rows doing work. At VLEN 1 the ablation's 14 sets come
    /// first at issue 8, largest selection first and then smallest first,
    /// so the levels then climb through nodes those sets built. Down the
    /// ladder issue 1 and 8 compile without a front; up the ladder one
    /// front per level serves issue 1, 2, 4 and 8, and a different latency
    /// table then gets a fresh front.
    #[test]
    fn compiling_from_a_rung_equals_compiling_from_scratch() {
        use ilpc_machine::{LatencyTable, TABLE1};
        let cache = ArtifactCache::new();
        let slow = LatencyTable { fp_alu: 9, load: 4, ..TABLE1 };
        let mut sets = ablation_sets();
        sets.sort_by_key(|s| std::cmp::Reverse(s.rows().passes().count()));
        for w in ilpc_workloads::build_all(0.05) {
            for vlen in [1, 4] {
                let machines: Vec<Machine> = [1, 8, 2, 4]
                    .map(|width| Machine::issue(width).with_vlen(vlen))
                    .into_iter()
                    .chain([Machine { latency: slow, ..Machine::issue(8).with_vlen(vlen) }])
                    .collect();
                let tag = |sel: &dyn fmt::Debug, m: &Machine| {
                    format!("{} {sel:?} {} fp-{}", w.meta.name, m.name(), m.latency.fp_alu)
                };
                if vlen == 1 {
                    let m = &machines[1];
                    let want: Vec<_> =
                        sets.iter().map(|&set| crate::compile::compile(&w, set, m)).collect();
                    for (set, want) in sets.iter().zip(&want).chain(sets.iter().zip(&want).rev()) {
                        let got = cache.compile_from_rung(&w, set.rows(), m, &mut direct, None);
                        assert_same_compilation(&tag(set, m), &got, want);
                    }
                }
                let want: Vec<_> = machines
                    .iter()
                    .map(|m| Level::ALL.map(|level| crate::compile::compile(&w, level, m)))
                    .collect();
                for (i, level) in Level::ALL.into_iter().enumerate().rev() {
                    for (m, want) in machines.iter().zip(&want).take(2) {
                        let got = cache.compile_from_rung(&w, level.rows(), m, &mut direct, None);
                        assert_same_compilation(&tag(&level, m), &got, &want[i]);
                    }
                }
                for (i, level) in Level::ALL.into_iter().enumerate() {
                    let mut front = None;
                    for (m, want) in machines.iter().zip(&want) {
                        let got = cache.compile_from_rung(
                            &w,
                            level.rows(),
                            m,
                            &mut direct,
                            Some(&mut front),
                        );
                        assert_same_compilation(&tag(&level, m), &got, &want[i]);
                    }
                }
            }
        }
        let c = cache.counters();
        // `lower` and every row ran once per node: 6 levels per (workload,
        // vlen), and at VLEN 1 the ablation's 15 nodes off the level path
        // (6 at Lev3, 9 at Lev4).
        assert_eq!(c.rungs, 40 * 2 * 6 + 40 * 15, "{c:?}");
        // Per (workload, vlen, level): one front for Table 1, one for `slow`.
        assert_eq!(c.fronts, 40 * 2 * 6 * 2, "{c:?}");
    }

    /// A step policy that panics at the row named `at`.
    fn bomb(at: &'static str) -> impl Step {
        move |m: &mut Module, name: &'static str, body: &mut dyn FnMut(&mut Module)| {
            assert_ne!(name, at, "injected fault");
            body(m);
            true
        }
    }

    /// A row that panics mid-climb (the grid contains such panics per
    /// point) costs only the node it was building: the nodes below answer
    /// as before, and the climb succeeds when retried. A Lev4 row of a
    /// leave-one-out set that panics leaves the Lev3 node it shares with
    /// the levels intact.
    #[test]
    fn a_panicking_row_leaves_the_published_rungs_intact() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache = ArtifactCache::new();
        let w = workload("dotprod");
        let machine = Machine::issue(8);
        let explode = |sel: Rows, at| {
            let r = catch_unwind(AssertUnwindSafe(|| {
                cache.compile_from_rung(&w, sel, &machine, &mut bomb(at), None)
            }));
            assert!(r.is_err(), "the injected fault at {at} must surface");
        };
        let answer = |sel: Rows, rungs| {
            let got = cache.compile_from_rung(&w, sel, &machine, &mut direct, None);
            let want = crate::compile::compile(&w, sel, &machine);
            assert_same_compilation(&format!("{sel:?}"), &got, &want);
            assert_eq!(cache.counters().rungs, rungs, "after {sel:?}");
        };
        explode(Level::Lev3.rows(), "tree-height-reduce");
        assert_eq!(cache.counters().rungs, 3, "Conv, Lev1 and Lev2 were published");
        answer(Level::Lev2.rows(), 3);
        answer(Level::Lev3.rows(), 4);

        let no_accum = TransformSet::all_but("accum").rows();
        explode(no_accum, "induction-expand");
        assert_eq!(cache.counters().rungs, 4, "the shared Lev3 node stays, nothing is added");
        answer(Level::Lev3.rows(), 4);
        answer(no_accum, 5);
    }
}
