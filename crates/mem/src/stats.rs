//! Per-run memory-hierarchy statistics.

/// Counters accumulated by a [`crate::MemModel`] over one simulation.
///
/// The structural invariant `accesses() == hits() + misses()` holds by
/// construction: hits are derived, never counted independently.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Executed loads routed through the model.
    pub loads: u64,
    /// Executed stores routed through the model.
    pub stores: u64,
    /// Loads that missed the first-level cache.
    pub load_misses: u64,
    /// Stores that missed the first-level cache.
    pub store_misses: u64,
    /// Valid lines displaced from the L1 by a fill.
    pub evictions: u64,
    /// Dirty lines written back (L1 and L2) on displacement.
    pub writebacks: u64,
    /// Total extra stall cycles charged to misses.
    pub miss_cycles: u64,
    /// L1-miss accesses that probed the L2 (0 when no L2 is configured).
    pub l2_accesses: u64,
    /// L2 probes that missed (went to memory).
    pub l2_misses: u64,
}

impl MemStats {
    /// Total accesses (loads + stores).
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// First-level misses (load + store misses).
    pub fn misses(&self) -> u64 {
        self.load_misses + self.store_misses
    }

    /// First-level hits (`accesses - misses`).
    pub fn hits(&self) -> u64 {
        self.accesses() - self.misses()
    }

    /// First-level hit rate in [0, 1]; 1.0 for an access-free run.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }

    /// Merge another run's counters into this one (grid aggregation).
    pub fn merge(&mut self, other: &MemStats) {
        self.merge_times(other, 1);
    }

    /// Add `times` copies of `other`'s counters to these.
    pub fn merge_times(&mut self, other: &MemStats, times: u64) {
        *self = self.zip(other, |a, b| a + b * times);
    }

    /// The counters gained since `earlier`, a snapshot of the same run.
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        self.zip(earlier, |a, b| a - b)
    }

    /// `f` applied field by field.
    fn zip(&self, other: &MemStats, f: impl Fn(u64, u64) -> u64) -> MemStats {
        MemStats {
            loads: f(self.loads, other.loads),
            stores: f(self.stores, other.stores),
            load_misses: f(self.load_misses, other.load_misses),
            store_misses: f(self.store_misses, other.store_misses),
            evictions: f(self.evictions, other.evictions),
            writebacks: f(self.writebacks, other.writebacks),
            miss_cycles: f(self.miss_cycles, other.miss_cycles),
            l2_accesses: f(self.l2_accesses, other.l2_accesses),
            l2_misses: f(self.l2_misses, other.l2_misses),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_counters_and_merge() {
        let a = MemStats { loads: 10, stores: 5, load_misses: 3, store_misses: 1, ..Default::default() };
        assert_eq!(a.accesses(), 15);
        assert_eq!(a.misses(), 4);
        assert_eq!(a.hits(), 11);
        assert_eq!(a.accesses(), a.hits() + a.misses());
        assert!((a.hit_rate() - 11.0 / 15.0).abs() < 1e-12);

        let mut sum = MemStats::default();
        assert_eq!(sum.hit_rate(), 1.0, "empty run counts as all-hit");
        sum.merge(&a);
        sum.merge(&a);
        assert_eq!(sum.accesses(), 30);
        assert_eq!(sum.misses(), 8);
        let mut thrice = a;
        thrice.merge_times(&a, 2);
        assert_eq!(thrice.since(&a), sum);
        assert_eq!(sum.since(&sum), MemStats::default());
    }
}
