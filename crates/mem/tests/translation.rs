//! Moving a cache is exact: once `repeats(Δ)` says a cache holds what it
//! held at its last `mark` moved Δ words on, `advance(n)` leaves it as
//! making the block of accesses between the two, moved Δ, 2Δ, …, nΔ
//! further on, would: every later access returns the same latency and the
//! statistics agree. And the test says no wherever contents differ, a
//! dirty bit or an L2 line included, or Δ is not a whole line at every
//! level.

use ilpc_mem::{Access, CacheMem, CacheParams, MemModel};
use ilpc_testkit::prop::{check, Config, Source};
use std::cell::Cell;

/// A geometry: direct-mapped, fully associative 1×64, or random, each
/// with or without an L2 behind it; lines of 1, 2 or 4 words.
fn params(src: &mut Source) -> CacheParams {
    let pow2 = |src: &mut Source, max: u32| 1u32 << src.range_u32(0, max + 1);
    let (line, load, store) = (pow2(src, 2), src.range_u32(0, 40), src.range_u32(0, 40));
    let p = match src.weighted(&[1, 1, 2]) {
        0 => CacheParams::new(line, pow2(src, 4), 1, load, store),
        1 => CacheParams::new(line, 1, 64, load, store),
        _ => CacheParams::new(line, pow2(src, 3), src.range_u32(1, 5), load, store),
    };
    if src.flag() {
        p.with_l2(pow2(src, 2), pow2(src, 3), src.range_u32(1, 5), src.range_u32(0, 12))
    } else {
        p
    }
}

/// One block of accesses, as offsets from the block's base.
fn block(src: &mut Source, span: i64) -> Vec<(Access, u64)> {
    src.vec_of(1, 12, |src| {
        let kind = if src.weighted(&[3, 1]) == 0 { Access::Load } else { Access::Store };
        (kind, src.range_i64(0, span) as u64)
    })
}

/// The latencies of `block` moved to `base`.
fn run(c: &mut CacheMem, block: &[(Access, u64)], base: u64) -> Vec<u64> {
    block.iter().map(|&(kind, off)| c.access(kind, base.wrapping_add(off))).collect()
}

fn same_future(a: &mut CacheMem, b: &mut CacheMem, future: &[(Access, u64)]) -> Result<(), String> {
    if a.stats() != b.stats() {
        return Err(format!("stats {:?} != {:?}", a.stats(), b.stats()));
    }
    for (k, &(kind, addr)) in future.iter().enumerate() {
        let (x, y) = (a.access(kind, addr), b.access(kind, addr));
        if x != y {
            return Err(format!("later access {k} ({kind:?} {addr:#x}): {x} != {y}"));
        }
    }
    if a.stats() != b.stats() {
        return Err(format!("stats after {:?} != {:?}", a.stats(), b.stats()));
    }
    Ok(())
}

/// A block streamed Δ on per repeat from a base near 0, near 2⁶⁴ or
/// anywhere (so addresses wrap both ways), Δ a whole number of the larger
/// line, positive, negative or 0. After some blocks the cache is marked,
/// one more runs, and the next one's Δ is tested; where the repeat holds,
/// moving n blocks on equals making them.
#[test]
fn moving_a_repeating_cache_equals_making_its_accesses() {
    let (cases, repeated) = (Cell::new(0u32), Cell::new(0u32));
    check("moving_a_repeating_cache_equals_making_its_accesses", &Config::cases(400), |src| {
        let p = params(src);
        let l2_line = p.l2.map_or(1, |l2| l2.geom.normalized().line_words);
        let line = p.l1.normalized().line_words.max(l2_line);
        let k = src.range_i64(0, 5) * if src.flag() { -1 } else { 1 };
        let delta = (k * line as i64) as u64;
        let base = match src.weighted(&[1, 1, 1]) {
            0 => src.range_i64(0, 64) as u64,
            1 => u64::MAX - src.range_i64(0, 64) as u64,
            _ => src.next_u64(),
        };
        let accesses = block(src, 3 * line as i64 * k.abs().max(1));
        let at = |j: u64| base.wrapping_add(j.wrapping_mul(delta));
        let mut c = CacheMem::new(p);
        let warm = src.range_usize(0, 48) as u64;
        for j in 0..warm {
            run(&mut c, &accesses, at(j));
        }
        c.mark();
        let reference = run(&mut c, &accesses, at(warm));
        let held = c.repeats(delta);
        if delta != 0 {
            cases.set(cases.get() + 1);
            repeated.set(repeated.get() + held as u32);
        }
        if !held {
            return Ok(());
        }
        let n = src.range_usize(1, 24) as u64;
        let mut stepped = c.clone();
        for j in 1..=n {
            let lats = run(&mut stepped, &accesses, at(warm + j));
            if lats != reference {
                return Err(format!("moved block {j}: latencies {lats:?} != {reference:?}"));
            }
        }
        c.advance(n);
        // Three more moved blocks, then loads around the last one.
        let moved = |j: u64| accesses.iter().map(move |&(kind, off)| (kind, at(j).wrapping_add(off)));
        let mut future: Vec<(Access, u64)> = (1..=3).flat_map(|j| moved(warm + n + j)).collect();
        let near = |src: &mut Source| at(warm + n).wrapping_add(src.range_i64(-64, 64) as u64);
        future.extend(src.vec_of(0, 40, |src| (Access::Load, near(src))));
        same_future(&mut c, &mut stepped, &future)
    });
    // The property is vacuous where no move repeats.
    let (repeated, cases) = (repeated.get(), cases.get());
    assert!(repeated * 4 > cases, "{repeated} of {cases} moves repeated");
}

/// A 1-line cache holds word 0 clean at the mark; a load of word 1 leaves
/// it holding word 1 clean, the mark moved one word on, but a store
/// leaves it dirty: no repeat.
#[test]
fn a_dirty_bit_alone_breaks_the_repeat() {
    for (kind, repeats) in [(Access::Load, true), (Access::Store, false)] {
        let mut c = CacheMem::new(CacheParams::new(1, 1, 1, 30, 10));
        c.access(Access::Load, 0);
        c.mark();
        c.access(kind, 1);
        assert_eq!(c.repeats(1), repeats, "{kind:?}");
    }
}

/// Word 0, then word 1, through a 1-line L1: the L1 alone repeats moved
/// one word on, but an L2 behind it still holds word 0's line as well.
#[test]
fn an_l2_line_alone_breaks_the_repeat() {
    let l1 = CacheParams::new(1, 1, 1, 30, 10);
    for (p, repeats) in [(l1, true), (l1.with_l2(1, 4, 1, 6), false)] {
        let mut c = CacheMem::new(p);
        c.access(Access::Load, 0);
        c.mark();
        c.access(Access::Load, 1);
        assert_eq!(c.repeats(1), repeats, "{}", p.name());
    }
}

/// One word is a whole L1 line but half an L2 line: the move is refused
/// whatever the contents, for word 1 shares word 0's L2 line.
#[test]
fn a_move_that_splits_an_l2_line_never_repeats() {
    let l1 = CacheParams::new(1, 1, 1, 30, 10);
    let l2s = [(l1, true), (l1.with_l2(2, 1, 1, 6), false), (l1.with_l2(1, 1, 1, 6), true)];
    for (p, repeats) in l2s {
        let mut c = CacheMem::new(p);
        c.access(Access::Load, 0);
        c.mark();
        c.access(Access::Load, 1);
        assert_eq!(c.repeats(1), repeats, "{}", p.name());
    }
}

/// Lines at the top of the address space move past 2⁶⁴ to the bottom,
/// and back: a 4-word-line cache streaming down from word 8 repeats at
/// Δ = −4 across the wrap, and moving it on equals making the accesses.
#[test]
fn a_move_wraps_past_zero() {
    let p = CacheParams::new(4, 4, 2, 30, 10);
    let mut c = CacheMem::new(p);
    let at = |j: u64| 8u64.wrapping_sub(4 * j);
    for j in 0..16 {
        c.access(Access::Store, at(j));
    }
    c.mark();
    c.access(Access::Store, at(16));
    assert!(c.repeats(at(17).wrapping_sub(at(16))));
    let mut stepped = c.clone();
    for j in 17..40 {
        stepped.access(Access::Store, at(j));
    }
    c.advance(23);
    let future: Vec<(Access, u64)> = (0..48).map(|j| (Access::Load, at(j))).collect();
    same_future(&mut c, &mut stepped, &future).unwrap();
}
