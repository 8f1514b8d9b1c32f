//! The undo journal is an exact inverse: after `begin`, any accesses and
//! `undo`, a cache answers every later access sequence with the latencies
//! and statistics of a clone taken before `begin`.

use ilpc_mem::{Access, CacheMem, CacheParams, MemModel};
use ilpc_testkit::prop::{check, Config, Source};

/// A geometry: direct-mapped, fully associative 1×64, or random, each
/// with or without an L2 behind it.
fn params(src: &mut Source) -> CacheParams {
    let pow2 = |src: &mut Source, max: u32| 1u32 << src.range_u32(0, max + 1);
    let (line, load, store) = (pow2(src, 2), src.range_u32(0, 40), src.range_u32(0, 40));
    let p = match src.weighted(&[1, 1, 2]) {
        0 => CacheParams::new(line, pow2(src, 4), 1, load, store),
        1 => CacheParams::new(line, 1, 64, load, store),
        _ => CacheParams::new(line, pow2(src, 3), src.range_u32(1, 5), load, store),
    };
    if src.flag() {
        p.with_l2(pow2(src, 3), pow2(src, 3), src.range_u32(1, 5), src.range_u32(0, 12))
    } else {
        p
    }
}

/// Accesses over a small address range, so hits, moves and evictions mix.
fn accesses(src: &mut Source, max: usize) -> Vec<(Access, u64)> {
    src.vec_of(0, max, |src| {
        let kind = if src.weighted(&[3, 1]) == 0 { Access::Load } else { Access::Store };
        (kind, src.range_i64(0, 160) as u64)
    })
}

fn same_future(a: &mut CacheMem, b: &mut CacheMem, future: &[(Access, u64)]) -> Result<(), String> {
    if a.stats() != b.stats() {
        return Err(format!("stats {:?} != {:?}", a.stats(), b.stats()));
    }
    for (k, &(kind, addr)) in future.iter().enumerate() {
        let (x, y) = (a.access(kind, addr), b.access(kind, addr));
        if x != y {
            return Err(format!("later access {k} ({kind:?} {addr}): {x} != {y}"));
        }
    }
    if a.stats() != b.stats() {
        return Err(format!("stats after {:?} != {:?}", a.stats(), b.stats()));
    }
    Ok(())
}

#[test]
fn undo_journal_is_an_exact_inverse() {
    check("undo_journal_is_an_exact_inverse", &Config::cases(300), |src| {
        let p = params(src);
        let mut c = CacheMem::new(p);
        for (kind, addr) in accesses(src, 120) {
            c.access(kind, addr);
        }
        // Spans that commit (the next `begin` drops their journal) ...
        for _ in 0..src.range_usize(0, 3) {
            c.begin();
            for (kind, addr) in accesses(src, 20) {
                c.access_undoable(kind, addr);
            }
        }
        // ... then one that is undone.
        let mut before = c.clone();
        c.begin();
        let span = accesses(src, 60);
        for &(kind, addr) in &span {
            c.access_undoable(kind, addr);
        }
        let per_access = if p.l2.is_some() { 3 } else { 1 };
        if c.journal_len() > per_access * span.len() {
            return Err(format!("journal {} for {} accesses", c.journal_len(), span.len()));
        }
        c.undo();
        if c.journal_len() != 0 {
            return Err("undo left journal entries".into());
        }
        same_future(&mut c, &mut before, &accesses(src, 200))
    });
}

/// The largest associativity a client may configure, in one set: the
/// journal still holds one entry per access, never a copy of the set.
#[test]
fn undo_in_a_2_to_the_16_way_set_journals_per_access() {
    let mut c = CacheMem::new(CacheParams::new(4, 1, 1 << 16, 30, 10));
    for a in 0..300u64 {
        c.access(if a % 3 == 0 { Access::Store } else { Access::Load }, a * 5);
    }
    let mut before = c.clone();
    c.begin();
    let span: Vec<u64> = (0..64u64).map(|k| (k * 37) % 2000).collect();
    for (k, &a) in span.iter().enumerate() {
        c.access_undoable(if k % 2 == 0 { Access::Store } else { Access::Load }, a);
        assert!(c.journal_len() <= k + 1);
    }
    c.undo();
    let future: Vec<(Access, u64)> = (0..400u64).map(|k| (Access::Load, (k * 13) % 2400)).collect();
    same_future(&mut c, &mut before, &future).unwrap();
}
