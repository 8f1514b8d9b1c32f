//! # ilpc-mem — pluggable memory-hierarchy model for the cycle simulator
//!
//! The paper's node processor (§3.1) assumes a 100 % data-cache hit rate, so
//! every speedup the reproduction reports is an upper bound that ignores the
//! memory system. This crate makes the memory system a first-class,
//! swappable component: the simulator asks a [`MemModel`] for the *extra*
//! stall cycles of every load and store, beyond the pipeline latencies of
//! Table 1.
//!
//! Two models ship in-tree:
//!
//! * [`PerfectMem`] — every access hits; zero extra cycles. Bit-for-bit
//!   identical timing to the simulator before this subsystem existed (the
//!   paper's evaluated model, and the default).
//! * [`CacheMem`] — a parameterized set-associative write-back,
//!   write-allocate L1 data cache (configurable line size, sets, ways, LRU
//!   replacement, load-/store-miss latencies) with an optional unified L2.
//!
//! Everything is deterministic: model state is a pure function of the
//! access sequence, so simulation results are reproducible across runs and
//! platforms. Addresses are *word* addresses — the simulator's memory is a
//! flat `Vec<u64>` of words, so a "line" of `line_words = 4` covers 32
//! bytes of a 64-bit machine.
//!
//! The configuration type [`MemConfig`] is plain copyable data; it lives on
//! `ilpc_machine::Machine` so a machine description fully determines
//! timing. [`MemConfig::build`] instantiates the model it describes.

#![forbid(unsafe_code)]

pub mod cache;
pub mod stats;

pub use cache::{CacheGeometry, CacheMem, CacheParams, L2Params};
pub use stats::MemStats;

/// Kind of one data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Load,
    Store,
}

/// A deterministic memory-hierarchy timing model.
///
/// The simulator calls [`MemModel::access`] once per executed load/store
/// with the effective *word* address; the model returns the extra stall
/// cycles that access suffers beyond the pipeline latency (0 = hit in the
/// first-level cache / perfect memory). Models keep their own statistics.
pub trait MemModel {
    /// Extra stall cycles for one access at word address `addr`.
    fn access(&mut self, kind: Access, addr: u64) -> u64;

    /// Statistics accumulated since construction (or [`MemModel::reset`]).
    fn stats(&self) -> MemStats;

    /// True when every access costs 0 extra cycles whatever came before
    /// it: a simulator may then skip a span's accesses and credit its
    /// loads and stores in bulk.
    fn always_hits(&self) -> bool {
        false
    }

    /// Open an undoable span: [`MemModel::undo`] takes back every
    /// [`MemModel::access_undoable`] made after this call (and before the
    /// next `begin`).
    fn begin(&mut self);

    /// [`MemModel::access`], journaled so [`MemModel::undo`] can take it
    /// back.
    fn access_undoable(&mut self, kind: Access, addr: u64) -> u64;

    /// Restore contents and statistics to what they were at the last
    /// [`MemModel::begin`].
    fn undo(&mut self);

    /// Clear statistics and cache contents.
    fn reset(&mut self);

    /// Short display name (`perfect`, `L1:64x2x4+l2`).
    fn name(&self) -> String;
}

/// The paper's §3.1 memory system: a 100 % data-cache hit rate.
///
/// Every access costs zero extra cycles, so a simulator wired through this
/// model reproduces the pre-`ilpc-mem` simulator cycle-for-cycle.
#[derive(Debug, Default, Clone)]
pub struct PerfectMem {
    stats: MemStats,
}

impl PerfectMem {
    pub fn new() -> PerfectMem {
        PerfectMem::default()
    }
}

impl MemModel for PerfectMem {
    #[inline]
    fn access(&mut self, kind: Access, _addr: u64) -> u64 {
        match kind {
            Access::Load => self.stats.loads += 1,
            Access::Store => self.stats.stores += 1,
        }
        0
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn always_hits(&self) -> bool {
        true
    }

    // Nothing to journal: the simulator skips the accesses of a span it
    // may undo and credits them itself (see `always_hits`).
    fn begin(&mut self) {}

    fn access_undoable(&mut self, _kind: Access, _addr: u64) -> u64 {
        0
    }

    fn undo(&mut self) {}

    fn reset(&mut self) {
        self.stats = MemStats::default();
    }

    fn name(&self) -> String {
        "perfect".to_string()
    }
}

/// Memory-hierarchy configuration carried by a machine description.
///
/// Plain copyable data (so `Machine` stays `Copy + Eq`); [`MemConfig::build`]
/// turns it into a live [`MemModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemConfig {
    /// 100 % hit rate — the paper's evaluated model (the default).
    Perfect,
    /// Set-associative write-back L1 (+ optional unified L2).
    Cache(CacheParams),
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::Perfect
    }
}

impl MemConfig {
    /// The paper's 100 %-hit memory system.
    pub fn perfect() -> MemConfig {
        MemConfig::Perfect
    }

    /// A finite L1 cache (see [`CacheParams`]).
    pub fn cache(params: CacheParams) -> MemConfig {
        MemConfig::Cache(params)
    }

    /// Instantiate the model this configuration describes.
    pub fn build(&self) -> Box<dyn MemModel> {
        match self {
            MemConfig::Perfect => Box::new(PerfectMem::new()),
            MemConfig::Cache(p) => Box::new(CacheMem::new(*p)),
        }
    }

    /// Short display name (`perfect`, `L1:64x2x4/m30`).
    pub fn name(&self) -> String {
        match self {
            MemConfig::Perfect => "perfect".to_string(),
            MemConfig::Cache(p) => p.name(),
        }
    }

    /// True for the default 100 %-hit configuration.
    pub fn is_perfect(&self) -> bool {
        matches!(self, MemConfig::Perfect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_mem_never_stalls_and_counts_accesses() {
        let mut m = PerfectMem::new();
        for a in 0..100u64 {
            assert_eq!(m.access(Access::Load, a * 17), 0);
        }
        for a in 0..40u64 {
            assert_eq!(m.access(Access::Store, a), 0);
        }
        let s = m.stats();
        assert_eq!(s.loads, 100);
        assert_eq!(s.stores, 40);
        assert_eq!(s.accesses(), 140);
        assert_eq!(s.hits(), 140);
        assert_eq!(s.misses(), 0);
        assert_eq!(s.miss_cycles, 0);
        assert_eq!(s.accesses(), s.hits() + s.misses());
        m.reset();
        assert_eq!(m.stats().accesses(), 0);
    }

    #[test]
    fn config_is_copy_eq_and_builds_the_right_model() {
        let p = MemConfig::perfect();
        let c = MemConfig::cache(CacheParams::small());
        assert_eq!(p, MemConfig::default());
        assert!(p.is_perfect());
        assert!(!c.is_perfect());
        assert_ne!(p, c);
        let copy = c; // Copy
        assert_eq!(copy, c);
        assert_eq!(p.build().name(), "perfect");
        assert_eq!(c.build().name(), c.name());
    }
}
