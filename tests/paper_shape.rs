//! Qualitative reproduction of the paper's §3.2 findings on a scaled grid.
//!
//! The absolute numbers depend on the synthesized loop bodies; these tests
//! pin the *shape* of the results — which configuration wins, where the
//! gains come from, and how register pressure moves — which is what the
//! paper's conclusions rest on.

use ilp_compiler::harness::grid::Grid;
use ilp_compiler::prelude::*;

/// The paper's grid (every level, widths 1/2/4/8, perfect memory) at
/// scale 0.15.
fn grid() -> Grid {
    let sweep = run_sweep(&SweepConfig { scale: 0.15, ..SweepConfig::default() })
        .expect("grid config rejected");
    let g = sweep.grids.into_iter().next().expect("one scenario yields one grid");
    assert!(g.errors.is_empty(), "{:#?}", g.errors);
    g
}

fn mean<'a>(
    g: &Grid,
    names: impl Iterator<Item = &'a str>,
    level: Level,
    width: u32,
) -> f64 {
    g.mean_speedup(names, level, width)
        .complete()
        .expect("clean grid must aggregate completely")
}

#[test]
fn paper_findings_hold() {
    let g = grid();
    let all = || g.meta.iter().map(|m| m.name);
    let doall = || g.meta.iter().filter(|m| m.ltype.is_doall()).map(|m| m.name);
    let nondoall =
        || g.meta.iter().filter(|m| !m.ltype.is_doall()).map(|m| m.name);

    // 1. "Increasing execution resources yields little performance
    //    improvement unless loop unrolling and register renaming are
    //    applied": Conv on issue-8 gains far less than Lev2 on issue-8.
    let conv8 = mean(&g, all(), Level::Conv, 8);
    let lev2_8 = mean(&g, all(), Level::Lev2, 8);
    assert!(
        lev2_8 > conv8 * 1.6,
        "Lev2 {lev2_8:.2} should far exceed Conv {conv8:.2} on issue-8"
    );

    // 2. "These two transformations are sufficient for DOALL loops":
    //    Lev4 adds little over Lev2 for DOALL...
    let d2 = mean(&g, doall(), Level::Lev2, 8);
    let d4 = mean(&g, doall(), Level::Lev4, 8);
    assert!(d4 <= d2 * 1.45, "DOALL Lev2 {d2:.2} -> Lev4 {d4:.2}");
    // ... and DOALL loops approach the issue-8 bound with Lev2 alone.
    assert!(d2 > 4.0, "DOALL Lev2 speedup {d2:.2}");

    // 3. "More advanced transformations are required in order for serial
    //    and DOACROSS loops to fully benefit": Lev4 gives non-DOALL loops a
    //    much bigger relative boost over Lev2 than it gives DOALL loops.
    let n2 = mean(&g, nondoall(), Level::Lev2, 8);
    let n4 = mean(&g, nondoall(), Level::Lev4, 8);
    assert!(
        n4 / n2 > 1.25,
        "non-DOALL Lev4/{n4:.2} over Lev2/{n2:.2} should exceed 1.25x"
    );
    // DOALL still beats non-DOALL at every level (paper Figures 12 vs 14).
    assert!(d2 > n2 && d4 > n4);

    // 4. Levels are cumulative on average: each adds (or at least does not
    //    lose) performance at issue-8.
    let means: Vec<f64> = Level::ALL
        .iter()
        .map(|&l| mean(&g, all(), l, 8))
        .collect();
    for pair in means.windows(2) {
        assert!(pair[1] >= pair[0] * 0.97, "level means {means:?}");
    }

    // 5. "The need for higher levels of transformations increases as the
    //    processor issue rate increases": the Lev4-over-Lev2 gain grows
    //    with width.
    let gain = |w: u32| mean(&g, all(), Level::Lev4, w) / mean(&g, all(), Level::Lev2, w);
    assert!(
        gain(8) > gain(2) * 0.98,
        "lev4 gain at 8 ({:.2}) vs at 2 ({:.2})",
        gain(8),
        gain(2)
    );

    // 6. "The largest increase [in register usage] is due to register
    //    renaming" — the Lev1 -> Lev2 jump dominates all others.
    let regs: Vec<f64> = Level::ALL
        .iter()
        .map(|&l| g.mean_regs(all(), l, 8).complete().expect("complete grid"))
        .collect();
    let jumps: Vec<f64> = regs.windows(2).map(|w| w[1] - w[0]).collect();
    let lev2_jump = jumps[1];
    assert!(
        jumps.iter().all(|&j| j <= lev2_jump),
        "renaming jump should dominate: regs {regs:?}"
    );
    // Overall growth is in the paper's ~2-3.5x band.
    let growth = regs[4] / regs[0];
    assert!(
        (1.8..=4.0).contains(&growth),
        "register growth {growth:.2}x out of band"
    );

    // 7. Register usage stays practical (paper: 37/40 under 128 total).
    let under128 = g
        .meta
        .iter()
        .filter(|m| {
            g.point(m.name, Level::Lev4, 8)
                .map(|p| p.regs.total() < 128)
                .unwrap_or(false)
        })
        .count();
    assert!(under128 >= 36, "only {under128}/40 loops under 128 registers");

    // 8. Unbreakable recurrences stay slow even at Lev4 (LWS-2 is the
    //    first-order linear recurrence): ILP transformations cannot break
    //    true dependences.
    let lws2 = g.speedup("LWS-2", Level::Lev4, 8).unwrap();
    assert!(lws2 < 3.0, "LWS-2 should stay recurrence-bound, got {lws2:.2}");

    // 9. The expansion transformations rescue reductions: dotprod gains a
    //    lot from Lev4 relative to Lev2.
    let dp2 = g.speedup("dotprod", Level::Lev2, 8).unwrap();
    let dp4 = g.speedup("dotprod", Level::Lev4, 8).unwrap();
    assert!(dp4 > dp2 * 1.5, "dotprod {dp2:.2} -> {dp4:.2}");
}
