//! Full evaluation report: every table and figure of the paper in one run,
//! or one of them with `--only <id>`.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin report [-- --scale 1.0 --threads N --only fig10]
//! ```

use ilpc_harness::figures::{render_report, render_section, section_ids};
use ilpc_harness::grid::{run_grid, Grid, GridConfig};
use ilpc_testkit::cli::Args;
use std::cell::OnceCell;

fn parse_args() -> (GridConfig, Option<String>) {
    let mut cfg = GridConfig::default();
    let ids = section_ids().collect::<Vec<_>>().join(" ");
    let mut args = Args::from_env(
        "report",
        format!("report [--scale F] [--threads N] [--only ID]\n  ID: {ids}"),
    );
    args.set("--scale", &mut cfg.scale);
    args.set("--threads", &mut cfg.threads);
    let only: Option<String> = args.opt("--only");
    if let Some(id) = only.as_deref().filter(|id| !section_ids().any(|s| s == *id)) {
        args.fail(&format!("unknown section `{id}`"));
    }
    args.finish();
    (cfg, only)
}

fn run_or_exit(cfg: &GridConfig) -> Grid {
    eprintln!(
        "running grid: 40 loops x {} levels x {:?} (scale {})...",
        cfg.levels.len(),
        cfg.widths,
        cfg.scale
    );
    let grid = match run_grid(cfg) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("CONFIG ERROR: {e}");
            std::process::exit(2);
        }
    };
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
    let (cfg, only) = parse_args();
    let cell = OnceCell::new();
    let grid = || cell.get_or_init(|| run_or_exit(&cfg));
    match only {
        Some(id) => println!("{}", render_section(&id, grid).expect("id was validated")),
        None => print!("{}", render_report(grid())),
    }
}
