//! The one binary that prints a result: every table and figure of the
//! paper in one run, or with `--only <id>` one of them or one of the
//! studies of `ilpc_harness::studies`.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin report [-- --scale 1.0 --threads N --only fig10]
//! cargo run --release -p ilpc-harness --bin report -- --only cache-sensitivity --quick
//! ```

use ilpc_harness::figures::{render_report, render_section, section_ids};
use ilpc_harness::grid::{run_grid, Grid, GridConfig};
use ilpc_harness::studies::{StudyCtx, STUDIES};
use ilpc_testkit::cli::Args;
use std::cell::OnceCell;

fn run_or_exit(cfg: &GridConfig) -> Grid {
    eprintln!(
        "running grid: 40 loops x {} levels x {:?} (scale {})...",
        cfg.levels.len(),
        cfg.widths,
        cfg.scale
    );
    let grid = run_grid(cfg).unwrap_or_else(|e| {
        eprintln!("CONFIG ERROR: {e}");
        std::process::exit(2)
    });
    if !grid.errors.is_empty() {
        eprintln!("EVALUATION ERRORS:");
        for e in &grid.errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    grid
}

fn main() {
    let mut cfg = GridConfig::default();
    let ids = section_ids().collect::<Vec<_>>().join(" ");
    let mut args = Args::from_env(
        "report",
        format!("report [--scale F] [--threads N] [--only ID] [--quick] [--verbose]\n  ID: {ids}"),
    );
    let scale: Option<f64> = args.opt("--scale");
    args.set("--threads", &mut cfg.threads);
    let only: Option<String> = args.opt("--only");
    let quick = args.switch("--quick");
    let verbose = args.switch("--verbose");
    args.finish();
    if let Some(id) = only.as_deref().filter(|id| !section_ids().any(|s| s == *id)) {
        args.fail(&format!("unknown section `{id}`"));
    }
    // A switch is an error wherever nothing reads it.
    let study = STUDIES.iter().find(|s| Some(s.id) == only.as_deref());
    if quick && study.is_none_or(|s| s.quick_scale.is_none()) {
        args.fail("--quick is not read by what was selected");
    }
    if verbose && study.is_none_or(|s| !s.verbose) {
        args.fail("--verbose is not read by what was selected");
    }

    if let Some(study) = study {
        let ctx = StudyCtx::new(study, scale, cfg.threads, quick, verbose)
            .unwrap_or_else(|e| args.fail(&e.to_string()));
        eprintln!("{}: {} (scale {})...", study.id, study.title, ctx.scale);
        match (study.run)(&ctx) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("{} FAILED: {e}", study.id);
                std::process::exit(1);
            }
        }
        return;
    }
    cfg.scale = scale.unwrap_or(cfg.scale);
    let cell = OnceCell::new();
    let grid = || cell.get_or_init(|| run_or_exit(&cfg));
    match only {
        Some(id) => println!("{}", render_section(&id, grid).expect("id was validated")),
        None => print!("{}", render_report(grid())),
    }
}
