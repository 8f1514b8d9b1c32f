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
//! the compiled module *and* its pre-decoded program
//! ([`ilpc_sim::DecodedProgram`]), plus one reference interpreter
//! execution per workload. Exactly-once construction under concurrency
//! comes from a per-key `OnceLock` fetched under a brief map lock: the
//! first thread to arrive compiles while the map stays unlocked, later
//! threads (and blocked racers) reuse the filled cell and count a hit.
//!
//! ## Contract
//!
//! A cache is bound to one workload catalog at one trip-count scale:
//! entries are keyed by workload *name*, so sharing a cache between grids
//! built with different `scale` values would silently mix trip counts.
//! Build one `Arc<ArtifactCache>` per sweep (one scale, many memory
//! configurations) and drop it with the sweep.

use crate::compile::{compile, Compiled};
use crate::run::{run_decoded, EvalPoint};
use ilpc_core::level::Level;
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_machine::Machine;
use ilpc_sim::{decode, DecodedProgram};
use ilpc_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cached compilation product: the compiled module (register usage,
/// static counts, shadow symbols for verification) and its pre-decoded
/// simulator program.
pub struct Artifact {
    pub compiled: Compiled,
    pub decoded: DecodedProgram,
    /// The machine projection the artifact was built for.
    pub compile_key: Machine,
}

/// Cumulative counter snapshot of one cache (see [`ArtifactCache`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Artifact lookups served from an already-built entry.
    pub hits: u64,
    /// Artifact lookups that compiled (exactly one per distinct key).
    pub compiles: u64,
    /// Reference-interpreter lookups served from cache.
    pub ref_hits: u64,
    /// Reference-interpreter executions (exactly one per workload).
    pub ref_runs: u64,
}

/// Concurrency-safe compile-artifact + reference-execution cache.
pub struct ArtifactCache {
    artifacts: Mutex<HashMap<(String, Level, u64), Arc<OnceLock<Arc<Artifact>>>>>,
    refs: Mutex<HashMap<String, Arc<OnceLock<Arc<ExecState>>>>>,
    hits: AtomicU64,
    compiles: AtomicU64,
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
            .field("ref_hits", &c.ref_hits)
            .field("ref_runs", &c.ref_runs)
            .finish()
    }
}

impl ArtifactCache {
    pub fn new() -> ArtifactCache {
        ArtifactCache {
            artifacts: Mutex::new(HashMap::new()),
            refs: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
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
                let compiled = compile(w, level, machine);
                let decoded = decode(&compiled.module, machine);
                Arc::new(Artifact { compiled, decoded, compile_key: machine.compile_key() })
            })
            .clone();
        if !built {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        artifact
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
        run_decoded(w, &artifact.compiled, &artifact.decoded, &reference, machine)
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

    /// Concurrent lookups of the same key build exactly one artifact.
    #[test]
    fn concurrent_lookups_compile_exactly_once() {
        let cache = ArtifactCache::new();
        let w = workload("add");
        let machine = Machine::issue(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.evaluate(&w, Level::Lev2, &machine).unwrap();
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.compiles, 1, "{c:?}");
        assert_eq!(c.hits, 7, "{c:?}");
        assert_eq!(c.ref_runs, 1, "{c:?}");
    }
}
