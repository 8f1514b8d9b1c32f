//! Set-associative write-back, write-allocate cache model (L1 + optional
//! unified L2), LRU replacement, deterministic by construction.
//!
//! Geometry is given in *words* (the simulator's memory is word-addressed):
//! a line of `line_words = 4` is 32 bytes on a 64-bit machine. All geometry
//! fields are normalized to powers of two and clamped to at least 1 — a
//! "zero-way" or "zero-set" cache is meaningless, not a crash.

use crate::stats::MemStats;
use crate::{Access, MemModel};

/// Geometry of one cache level: `line_words × sets × ways`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Words per line (rounded up to a power of two, min 1).
    pub line_words: u32,
    /// Number of sets (rounded up to a power of two, min 1).
    pub sets: u32,
    /// Associativity (clamped to min 1 — the "zero-way clamp").
    pub ways: u32,
}

impl CacheGeometry {
    pub fn new(line_words: u32, sets: u32, ways: u32) -> CacheGeometry {
        CacheGeometry { line_words, sets, ways }
    }

    /// Power-of-two / non-zero normalization applied before use.
    ///
    /// # Panics
    /// If `line_words` or `sets` is above 2³¹ (no `u32` power of two holds
    /// it) — a caller's bug, never a silently different cache.
    pub fn normalized(self) -> CacheGeometry {
        let pow2 = |n: u32| {
            n.max(1)
                .checked_next_power_of_two()
                .unwrap_or_else(|| panic!("{self:?}: no u32 power of two holds {n}"))
        };
        CacheGeometry {
            line_words: pow2(self.line_words),
            sets: pow2(self.sets),
            ways: self.ways.max(1),
        }
    }

    /// Total capacity in words (after normalization); panics past `u64`.
    pub fn size_words(&self) -> u64 {
        let g = self.normalized();
        (u64::from(g.line_words) * u64::from(g.sets))
            .checked_mul(u64::from(g.ways))
            .unwrap_or_else(|| panic!("{g:?}: capacity overflows u64"))
    }
}

/// Parameters for [`CacheMem`]: L1 geometry, miss latencies, optional L2.
///
/// Miss latencies are the *extra* cycles an access stalls beyond its
/// pipeline latency when serviced from main memory. An access that misses
/// L1 but hits a configured L2 pays [`L2Params::hit_latency`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    pub l1: CacheGeometry,
    /// Extra cycles for a load serviced from memory.
    pub load_miss_latency: u32,
    /// Extra cycles for a store serviced from memory (write-allocate).
    pub store_miss_latency: u32,
    /// Optional unified second-level cache.
    pub l2: Option<L2Params>,
}

/// Unified L2: geometry plus the (cheaper) L1-miss/L2-hit latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L2Params {
    pub geom: CacheGeometry,
    /// Extra cycles for an access that misses L1 but hits L2.
    pub hit_latency: u32,
}

impl CacheParams {
    pub fn new(
        line_words: u32,
        sets: u32,
        ways: u32,
        load_miss_latency: u32,
        store_miss_latency: u32,
    ) -> CacheParams {
        CacheParams {
            l1: CacheGeometry::new(line_words, sets, ways),
            load_miss_latency,
            store_miss_latency,
            l2: None,
        }
    }

    /// Add a unified L2 behind the L1.
    pub fn with_l2(mut self, line_words: u32, sets: u32, ways: u32, hit_latency: u32) -> CacheParams {
        self.l2 = Some(L2Params { geom: CacheGeometry::new(line_words, sets, ways), hit_latency });
        self
    }

    /// A small L1: 4-word lines × 16 sets × 2 ways = 128 words (1 KiB),
    /// 30-cycle load miss / 10-cycle store miss.
    pub fn small() -> CacheParams {
        CacheParams::new(4, 16, 2, 30, 10)
    }

    /// Lines over both levels (sets × ways each, after normalization).
    pub fn lines(&self) -> u64 {
        let lines = |g: CacheGeometry| {
            let g = g.normalized();
            u64::from(g.sets) * u64::from(g.ways)
        };
        lines(self.l1) + self.l2.map_or(0, |l2| lines(l2.geom))
    }

    /// Short display name (`L1:4x16x2/m30` or `...+L2:8x64x4/h8`).
    pub fn name(&self) -> String {
        let g = self.l1.normalized();
        let mut n = format!("L1:{}x{}x{}/m{}", g.line_words, g.sets, g.ways, self.load_miss_latency);
        if let Some(l2) = self.l2 {
            let g2 = l2.geom.normalized();
            n.push_str(&format!("+L2:{}x{}x{}/h{}", g2.line_words, g2.sets, g2.ways, l2.hit_latency));
        }
        n
    }
}

/// One cache line's bookkeeping (the model stores no data — the simulator's
/// flat memory is always architecturally current). Recency is positional:
/// within a set, way 0 is the most recently used and the last way the
/// least, so no per-line timestamp is needed.
///
/// The flags are `u32` 0/1 rather than `bool` so a line has no padding: a
/// padded line was moved field by field through the stack whenever ways
/// shift, which showed in every cached simulation.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// Full line address (`word_addr >> line_shift`) — unambiguous tag.
    tag: u64,
    valid: u32,
    dirty: u32,
}

/// What one level did with an access: enough to take it back.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// The line was at `way` with dirty bit `dirty`; it is now at way 0.
    Hit { way: usize, dirty: bool },
    /// The line was absent: the set's last way, `victim`, was displaced
    /// and the line inserted at way 0.
    Miss { victim: Line },
}

/// The inverse of one level access, kept while a span is undoable: O(1)
/// memory however many ways the set has.
#[derive(Debug, Clone, Copy)]
struct Undo {
    l2: bool,
    /// Index of the set's way 0 in `Level::lines`.
    set: usize,
    fill: Fill,
}

/// One set-associative level.
#[derive(Debug, Clone)]
struct Level {
    line_shift: u32,
    set_mask: u64,
    ways: usize,
    lines: Vec<Line>,
}

impl Level {
    fn new(geom: CacheGeometry) -> Level {
        let g = geom.normalized();
        let lines = (g.sets as usize)
            .checked_mul(g.ways as usize)
            .unwrap_or_else(|| panic!("{g:?}: line count overflows usize"));
        Level {
            line_shift: g.line_words.trailing_zeros(),
            set_mask: (g.sets - 1) as u64,
            ways: g.ways as usize,
            lines: vec![Line::default(); lines],
        }
    }

    fn clear(&mut self) {
        self.lines.fill(Line::default());
    }

    /// Index of way 0 of the set holding word `addr`.
    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize * self.ways
    }

    /// Whether `addr` hits the front way of its set, which already holds
    /// the dirty bit an access with `dirty` would leave.
    #[inline(always)]
    fn front_hit(&self, addr: u64, dirty: bool) -> bool {
        let l = self.lines[self.set_of(addr)];
        l.valid != 0 && l.tag == addr >> self.line_shift && (l.dirty != 0 || !dirty)
    }

    /// Probe for `addr`; on miss, allocate (write-allocate) via LRU.
    ///
    /// Each set keeps its ways in recency order (way 0 = most recently
    /// used), which is observably identical to timestamp LRU: valid lines
    /// stay contiguous at the front, so "first invalid way, else the
    /// least-recently-used" is always the last way, and a hit is usually
    /// one compare against the front way.
    #[inline]
    fn access(&mut self, addr: u64, dirty: bool) -> Fill {
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        let slots = &mut self.lines[set..set + self.ways];
        // Front-way hit: already most recently used, nothing moves.
        if slots[0].valid != 0 && slots[0].tag == tag {
            let was = slots[0].dirty != 0;
            slots[0].dirty |= dirty as u32;
            return Fill::Hit { way: 0, dirty: was };
        }
        // A hit moves its line to the front; a miss inserts it there and
        // the last way (an invalid one if the set is not yet full, else
        // the least recently used) falls out. Either way, the ways in
        // front of it move down one.
        let hit = (1..slots.len()).find(|&k| slots[k].valid != 0 && slots[k].tag == tag);
        let end = hit.unwrap_or(slots.len() - 1);
        let front = match hit {
            Some(k) => Line { dirty: slots[k].dirty | dirty as u32, ..slots[k] },
            None => Line { valid: 1, dirty: dirty as u32, tag },
        };
        let out = shift_in(&mut slots[..=end], front);
        match hit {
            Some(k) => Fill::Hit { way: k, dirty: out.dirty != 0 },
            None => Fill::Miss { victim: out },
        }
    }

    /// Take back the access that returned `fill` on the set at `set`,
    /// given that nothing has touched the set since.
    fn revert(&mut self, set: usize, fill: Fill) {
        let slots = &mut self.lines[set..set + self.ways];
        let (end, back) = match fill {
            Fill::Hit { way, dirty } => (way, Line { dirty: dirty as u32, ..slots[0] }),
            Fill::Miss { victim } => (slots.len() - 1, victim),
        };
        let mut carry = back;
        for s in slots[..=end].iter_mut().rev() {
            carry = std::mem::replace(s, carry);
        }
    }

    /// Word address of the first word of a displaced line.
    fn line_base(&self, l: Line) -> u64 {
        l.tag << self.line_shift
    }

    /// The lines a move of `delta` words is, if it is a whole number of
    /// them (as a wrapping count: only its low `64 − line_shift` bits
    /// matter).
    fn lines_in(&self, delta: u64) -> Option<u64> {
        let whole = delta & ((1 << self.line_shift) - 1) == 0;
        whole.then_some(((delta as i64) >> self.line_shift) as u64)
    }

    /// Where the line `l` is `k` lines on: a tag is a line address, so it
    /// moves modulo the tag width, `64 − line_shift` bits, as the word
    /// addresses it stands for wrap past 2⁶⁴.
    fn moved(&self, l: Line, k: u64) -> Line {
        Line { tag: l.tag.wrapping_add(k) & (u64::MAX >> self.line_shift), ..l }
    }

    /// Lines of `lines` the sets of a move of `k` lines rotate by: a tag's
    /// set is its low bits, so set `s` moves to set `s + k mod sets`, its
    /// ways in the same order.
    fn rotation(&self, k: u64) -> usize {
        (k & self.set_mask) as usize * self.ways
    }

    /// Whether the contents are `before` moved `k` lines on. Lines are
    /// equal when both are invalid (an invalid line's tag and dirty bit
    /// are never read), or both valid with the same tag and dirty bit.
    fn is_moved(&self, before: &[Line], k: u64) -> bool {
        let r = self.rotation(k);
        let now = self.lines[r..].iter().chain(&self.lines[..r]);
        before.len() == self.lines.len()
            && now.zip(before).all(|(n, &b)| {
                let b = self.moved(b, k);
                n.valid == b.valid && (b.valid == 0 || (n.tag == b.tag && n.dirty == b.dirty))
            })
    }

    /// Move the contents `k` lines on.
    fn shift(&mut self, k: u64) {
        let r = self.rotation(k);
        self.lines.rotate_right(r);
        for i in 0..self.lines.len() {
            self.lines[i] = self.moved(self.lines[i], k);
        }
    }
}

/// Put `front` at way 0 of `slots`, moving every way down one; returns the
/// way that falls off the end. (A loop, not `copy_within`: sets are
/// usually a few ways, where a `memmove` call costs more than the move.)
#[inline]
fn shift_in(slots: &mut [Line], front: Line) -> Line {
    let mut carry = front;
    for s in slots {
        carry = std::mem::replace(s, carry);
    }
    carry
}

impl Fill {
    /// The valid line the access displaced, if any.
    fn displaced(self) -> Option<Line> {
        match self {
            Fill::Miss { victim } if victim.valid != 0 => Some(victim),
            _ => None,
        }
    }

    /// Whether taking the access back needs a journal entry: a front-way
    /// hit that did not newly dirty its line changed nothing but counters.
    fn moved(self, dirty: bool) -> bool {
        !matches!(self, Fill::Hit { way: 0, dirty: was } if was || !dirty)
    }
}

/// Set-associative write-back L1 data cache with an optional unified L2.
#[derive(Debug, Clone)]
pub struct CacheMem {
    params: CacheParams,
    l1: Level,
    l2: Option<Level>,
    stats: MemStats,
    /// Inverses of the undoable span's accesses, oldest first, and the
    /// statistics when it began.
    journal: Vec<Undo>,
    begun: MemStats,
    marked: Marked,
}

/// What [`MemModel::mark`] kept and [`MemModel::repeats`] found.
#[derive(Debug, Clone, Default)]
struct Marked {
    /// The L1's lines, then the L2's (empty before the first mark).
    lines: Vec<Line>,
    stats: MemStats,
    /// The move that repeated, and the statistics gained by the accesses
    /// between the mark and the repeat.
    delta: u64,
    gained: MemStats,
}

impl CacheMem {
    pub fn new(params: CacheParams) -> CacheMem {
        CacheMem {
            params,
            l1: Level::new(params.l1),
            l2: params.l2.map(|p| Level::new(p.geom)),
            stats: MemStats::default(),
            journal: Vec::new(),
            begun: MemStats::default(),
            marked: Marked::default(),
        }
    }

    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Entries the undoable span holds: at most three per access (the L1
    /// set, the L2 set a dirty victim lands in, the L2 probe).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// One access; with `JOURNAL`, every set change is journaled.
    #[inline(always)]
    fn access_with<const JOURNAL: bool>(&mut self, kind: Access, addr: u64) -> u64 {
        match kind {
            Access::Load => self.stats.loads += 1,
            Access::Store => self.stats.stores += 1,
        }
        // The common case inline: a front-way hit that leaves its line's
        // dirty bit as it was changes nothing but the counter above.
        if self.l1.front_hit(addr, kind == Access::Store) {
            return 0;
        }
        self.access_rest::<JOURNAL>(kind, addr)
    }

    /// Every access but an unchanged front-way hit, out of line so the hit
    /// path stays small wherever it is inlined.
    #[inline(never)]
    fn access_rest<const JOURNAL: bool>(&mut self, kind: Access, addr: u64) -> u64 {
        let is_store = kind == Access::Store;
        let fill = self.l1.access(addr, is_store);
        if JOURNAL && fill.moved(is_store) {
            self.journal.push(Undo { l2: false, set: self.l1.set_of(addr), fill });
        }
        if let Fill::Hit { .. } = fill {
            return 0;
        }
        match kind {
            Access::Load => self.stats.load_misses += 1,
            Access::Store => self.stats.store_misses += 1,
        }
        let victim = fill.displaced();
        if victim.is_some() {
            self.stats.evictions += 1;
        }
        if victim.is_some_and(|v| v.dirty != 0) {
            self.stats.writebacks += 1;
        }
        let memory_latency = if is_store {
            self.params.store_miss_latency
        } else {
            self.params.load_miss_latency
        } as u64;
        let extra = match (&mut self.l2, self.params.l2) {
            (Some(l2), Some(p)) => {
                self.stats.l2_accesses += 1;
                // A dirty L1 victim lands in the L2 (buffered, no stall);
                // if that displaces a dirty L2 line it goes to memory.
                if let Some(v) = victim.filter(|v| v.dirty != 0) {
                    let at = self.l1.line_base(v);
                    let f = l2.access(at, true);
                    if JOURNAL && f.moved(true) {
                        self.journal.push(Undo { l2: true, set: l2.set_of(at), fill: f });
                    }
                    if f.displaced().is_some_and(|l| l.dirty != 0) {
                        self.stats.writebacks += 1;
                    }
                }
                let f2 = l2.access(addr, false);
                if JOURNAL && f2.moved(false) {
                    self.journal.push(Undo { l2: true, set: l2.set_of(addr), fill: f2 });
                }
                match f2 {
                    Fill::Hit { .. } => p.hit_latency as u64,
                    Fill::Miss { .. } => {
                        self.stats.l2_misses += 1;
                        if f2.displaced().is_some_and(|l| l.dirty != 0) {
                            self.stats.writebacks += 1;
                        }
                        memory_latency
                    }
                }
            }
            _ => memory_latency,
        };
        self.stats.miss_cycles += extra;
        extra
    }
}

impl MemModel for CacheMem {
    #[inline]
    fn access(&mut self, kind: Access, addr: u64) -> u64 {
        self.access_with::<false>(kind, addr)
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn begin(&mut self) {
        self.journal.clear();
        self.begun = self.stats;
    }

    #[inline]
    fn access_undoable(&mut self, kind: Access, addr: u64) -> u64 {
        self.access_with::<true>(kind, addr)
    }

    fn undo(&mut self) {
        for u in self.journal.drain(..).rev() {
            match (u.l2, &mut self.l2) {
                (true, Some(l2)) => l2.revert(u.set, u.fill),
                _ => self.l1.revert(u.set, u.fill),
            }
        }
        self.stats = self.begun;
    }

    fn mark(&mut self) {
        let m = &mut self.marked;
        m.lines.clear();
        m.lines.extend_from_slice(&self.l1.lines);
        if let Some(l2) = &self.l2 {
            m.lines.extend_from_slice(&l2.lines);
        }
        m.stats = self.stats;
    }

    fn repeats(&mut self, delta: u64) -> bool {
        let m = &mut self.marked;
        let (b1, b2) = m.lines.split_at(self.l1.lines.len().min(m.lines.len()));
        let level = |l: &Level, before: &[Line]| {
            l.lines_in(delta).is_some_and(|k| l.is_moved(before, k))
        };
        let held =
            level(&self.l1, b1) && self.l2.as_ref().map_or(b2.is_empty(), |l2| level(l2, b2));
        if held {
            m.delta = delta;
            m.gained = self.stats.since(&m.stats);
        }
        held
    }

    fn advance(&mut self, blocks: u64) {
        let delta = blocks.wrapping_mul(self.marked.delta);
        for l in std::iter::once(&mut self.l1).chain(&mut self.l2) {
            l.shift(l.lines_in(delta).expect("a repeat moves whole lines"));
        }
        self.stats.merge_times(&self.marked.gained, blocks);
    }

    fn reset(&mut self) {
        self.stats = MemStats::default();
        self.journal.clear();
        self.marked = Marked::default();
        self.l1.clear();
        if let Some(l2) = &mut self.l2 {
            l2.clear();
        }
    }

    fn name(&self) -> String {
        self.params.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(c: &mut CacheMem, addrs: &[u64]) -> Vec<u64> {
        addrs.iter().map(|&a| c.access(Access::Load, a)).collect()
    }

    #[test]
    fn cold_miss_then_hits_within_a_line() {
        // 4-word lines: addr 0..=3 share a line, addr 4 crosses into the
        // next line (the "line-crossing" edge case).
        let mut c = CacheMem::new(CacheParams::new(4, 8, 1, 30, 10));
        assert_eq!(loads(&mut c, &[0, 1, 2, 3, 4]), vec![30, 0, 0, 0, 30]);
        let s = c.stats();
        assert_eq!(s.accesses(), 5);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.hits(), 3);
        assert_eq!(s.miss_cycles, 60);
        assert_eq!(s.accesses(), s.hits() + s.misses());
    }

    #[test]
    fn aliasing_sets_conflict_in_direct_mapped() {
        // Direct-mapped, 8 sets × 4-word lines: addresses 32 words apart
        // alias to the same set and evict each other forever.
        let mut c = CacheMem::new(CacheParams::new(4, 8, 1, 30, 10));
        assert_eq!(loads(&mut c, &[0, 32, 0, 32]), vec![30, 30, 30, 30]);
        assert_eq!(c.stats().evictions, 3); // all but the cold fill displace
        // The same pattern in a 2-way cache coexists.
        let mut c2 = CacheMem::new(CacheParams::new(4, 8, 2, 30, 10));
        assert_eq!(loads(&mut c2, &[0, 32, 0, 32]), vec![30, 30, 0, 0]);
        assert_eq!(c2.stats().evictions, 0);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_way() {
        // 1 set × 2 ways, 1-word lines: A, B fill; touching A makes B the
        // LRU victim when C arrives; A (recently used) survives, B is gone.
        let mut c = CacheMem::new(CacheParams::new(1, 1, 2, 30, 10));
        assert_eq!(loads(&mut c, &[10, 20, 10, 30]), vec![30, 30, 0, 30]);
        assert_eq!(loads(&mut c, &[10, 20]), vec![0, 30]);
    }

    #[test]
    fn zero_geometry_is_clamped_not_a_crash() {
        let g = CacheGeometry::new(0, 0, 0).normalized();
        assert_eq!((g.line_words, g.sets, g.ways), (1, 1, 1));
        let mut c = CacheMem::new(CacheParams::new(0, 0, 0, 5, 5));
        // A 1×1×1 cache: repeated same-word access hits, alternation misses.
        assert_eq!(loads(&mut c, &[7, 7, 8, 7]), vec![5, 0, 5, 5]);
        // Non-power-of-two geometry rounds up.
        let g = CacheGeometry::new(3, 12, 2).normalized();
        assert_eq!((g.line_words, g.sets, g.ways), (4, 16, 2));
        assert_eq!(CacheGeometry::new(3, 12, 2).size_words(), 128);
        // In-range powers of two are taken as given.
        let g = CacheGeometry::new(4, 16, 2);
        assert_eq!(g.normalized(), g);
        assert_eq!(CacheParams::small().l1.normalized(), g);
        // The largest geometry `ilpc-serve` admits (`proto::MAX_CACHE_*`).
        let mut c = CacheMem::new(CacheParams::new(1 << 10, 1 << 20, 1, 30, 10));
        assert_eq!(loads(&mut c, &[0, 1023, 1024, 0]), vec![30, 0, 30, 0]);
    }

    #[test]
    #[should_panic(expected = "no u32 power of two holds 4294967295")]
    fn geometry_past_the_last_power_of_two_panics_instead_of_wrapping() {
        CacheMem::new(CacheParams::new(4, u32::MAX, 2, 30, 10));
    }

    #[test]
    fn write_back_counts_writebacks_only_for_dirty_victims() {
        // Direct-mapped 1-set cache: store to A (dirty), load B evicts A
        // → writeback; load A evicts clean B → eviction, no writeback.
        let mut c = CacheMem::new(CacheParams::new(1, 1, 1, 30, 10));
        assert_eq!(c.access(Access::Store, 0), 10); // write-allocate miss
        assert_eq!(c.access(Access::Load, 1), 30);
        assert_eq!(c.access(Access::Load, 0), 30);
        let s = c.stats();
        assert_eq!(s.store_misses, 1);
        assert_eq!(s.load_misses, 2);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.writebacks, 1);
        // A load hit on a dirty line keeps it dirty.
        let mut c = CacheMem::new(CacheParams::new(1, 1, 1, 30, 10));
        c.access(Access::Store, 0);
        c.access(Access::Load, 0);
        c.access(Access::Load, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn l2_serves_l1_misses_cheaper_than_memory() {
        // Tiny L1 (1 line), big L2: the second touch of a line misses L1
        // (displaced) but hits L2 at the cheaper latency.
        let p = CacheParams::new(1, 1, 1, 100, 100).with_l2(1, 64, 4, 8);
        let mut c = CacheMem::new(p);
        assert_eq!(c.access(Access::Load, 0), 100); // cold: L1 miss, L2 miss
        assert_eq!(c.access(Access::Load, 1), 100);
        assert_eq!(c.access(Access::Load, 0), 8); // L1 victim, but L2 hit
        let s = c.stats();
        assert_eq!(s.l2_accesses, 3);
        assert_eq!(s.l2_misses, 2);
        assert_eq!(s.miss_cycles, 208);
        assert_eq!(s.accesses(), s.hits() + s.misses());
    }

    #[test]
    fn dirty_l1_victim_lands_in_l2() {
        // Store A (dirty in L1), touch B (displaces A's dirty line into
        // L2), reload A: L2 hit — the write-back was absorbed, and no
        // memory writeback happened.
        let p = CacheParams::new(1, 1, 1, 100, 100).with_l2(1, 64, 4, 8);
        let mut c = CacheMem::new(p);
        assert_eq!(c.access(Access::Store, 0), 100);
        // B was never touched: the write-back installs A's line, not B's,
        // so B's L2 probe misses and goes to memory.
        assert_eq!(c.access(Access::Load, 1), 100);
        assert_eq!(c.stats().l2_misses, 2);
        assert_eq!(c.access(Access::Load, 0), 8);
        let s = c.stats();
        assert_eq!(s.writebacks, 1); // L1→L2 transfer counted once
        assert_eq!((s.l2_accesses, s.l2_misses), (3, 2));
    }

    #[test]
    fn dirty_victim_lands_in_l2_after_its_own_fill_was_evicted() {
        // L1: 1 set × 2 ways of 1-word lines. L2: 4 direct-mapped sets of
        // 2-word lines, so words 8 and 0 share L2 set 0 and word 2 maps to
        // set 1. Store 8 (dirty in L1), load 0 (evicts 8's line from the
        // L2 only), load 2 (8 is the L1 victim: its write-back re-installs
        // L2 line 4), load 9: served by that line at L2 speed.
        let p = CacheParams::new(1, 1, 2, 100, 100).with_l2(2, 4, 1, 8);
        let mut c = CacheMem::new(p);
        assert_eq!(c.access(Access::Store, 8), 100);
        assert_eq!(c.access(Access::Load, 0), 100);
        assert_eq!(c.access(Access::Load, 2), 100);
        assert_eq!(c.access(Access::Load, 9), 8);
        let s = c.stats();
        assert_eq!((s.l2_accesses, s.l2_misses, s.writebacks), (4, 3, 1));
    }

    #[test]
    fn undo_restores_sets_and_stats_after_hits_moves_and_misses() {
        // 1 set × 4 ways: a span with a front-way hit, a deep hit that
        // moves a line to the front and dirties it, and a miss that evicts
        // the LRU way; undo makes the cache answer as it did before.
        let mut c = CacheMem::new(CacheParams::new(1, 1, 4, 30, 10));
        loads(&mut c, &[1, 2, 3, 4]); // recency 4 3 2 1
        let before = c.clone();
        c.begin();
        assert_eq!(c.access_undoable(Access::Load, 4), 0); // front way
        assert_eq!(c.journal_len(), 0, "a front-way hit changes only counters");
        assert_eq!(c.access_undoable(Access::Store, 1), 0); // deep, dirties
        assert_eq!(c.access_undoable(Access::Load, 5), 30); // evicts 2
        assert_eq!(c.journal_len(), 2);
        c.undo();
        assert_eq!(c.journal_len(), 0);
        assert_eq!(c.stats(), before.stats());
        let mut want = before;
        for a in [5, 1, 2, 6, 3, 4] {
            assert_eq!(c.access(Access::Load, a), want.access(Access::Load, a), "addr {a}");
        }
        assert_eq!(c.stats(), want.stats());
    }

    #[test]
    fn reset_clears_contents_and_stats() {
        let mut c = CacheMem::new(CacheParams::small());
        loads(&mut c, &[0, 0, 64, 128]);
        assert!(c.stats().accesses() > 0);
        c.reset();
        assert_eq!(c.stats(), MemStats::default());
        assert_eq!(c.access(Access::Load, 0), 30, "cache is cold again");
    }

    #[test]
    fn determinism_same_sequence_same_stats() {
        let addrs: Vec<u64> = (0..500u64).map(|k| (k * 37) % 271).collect();
        let run = || {
            let mut c = CacheMem::new(CacheParams::small().with_l2(8, 32, 2, 6));
            for (k, &a) in addrs.iter().enumerate() {
                let kind = if k % 3 == 0 { Access::Store } else { Access::Load };
                c.access(kind, a);
            }
            c.stats()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.accesses(), a.hits() + a.misses());
    }
}
