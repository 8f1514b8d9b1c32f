//! One benchmark per paper table/figure: each regenerates its artifact
//! end-to-end (grid slice → histogram/table text). Run with
//!
//! ```text
//! cargo bench -p ilpc-bench --bench figures
//! ```
//!
//! The *measured* quantity is regeneration wall time; the regenerated
//! content itself (the paper's rows/series) is printed once per benchmark
//! at full fidelity by the `report` binary and asserted by the integration
//! tests. Grid slices here run at reduced trip-count scale so the whole
//! suite stays in benchmark-friendly time. Results land in
//! `BENCH_figures.json`.

use ilpc_core::level::Level;
use ilpc_harness::figures::{render_summary, render_table1, render_table2, FIGURES};
use ilpc_harness::grid::{run_grid, Grid, GridConfig};
use ilpc_testkit::bench::Harness;
use std::sync::OnceLock;

/// One shared reduced-scale grid; each figure bench re-renders from it,
/// plus a `grid/rebuild_small_grid` bench measuring the compile+simulate
/// sweep.
fn shared_grid() -> &'static Grid {
    static GRID: OnceLock<Grid> = OnceLock::new();
    GRID.get_or_init(|| {
        let grid = run_grid(&GridConfig { scale: 0.1, ..GridConfig::default() })
            .expect("grid config rejected");
        assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
        grid
    })
}

fn bench_tables(h: &mut Harness) {
    h.bench("table1_latencies", render_table1);
    h.bench("table2_loop_nests", render_table2);
}

fn bench_figures(h: &mut Harness) {
    let grid = shared_grid();
    for fig in FIGURES {
        h.bench(&format!("figures/{}", fig.id), || fig.render(grid));
    }
    h.bench("figures/summary_statistics", || render_summary(grid));
}

fn bench_grid_rebuild(h: &mut Harness) {
    // The end-to-end sweep behind every figure: 40 loops × 5 levels ×
    // {1,8}, compiled, scheduled, simulated and verified.
    h.bench_n("grid/rebuild_small_grid", 10, || {
        let grid = run_grid(&GridConfig {
            scale: 0.02,
            levels: Level::ALL.to_vec(),
            widths: vec![1, 8],
            threads: 4,
            ..GridConfig::default()
        })
        .expect("grid config rejected");
        assert!(grid.errors.is_empty());
        grid
    });
}

fn main() {
    let mut h = Harness::new("figures");
    bench_tables(&mut h);
    bench_figures(&mut h);
    bench_grid_rebuild(&mut h);
    h.finish();
}
