//! Full evaluation report: every table and figure of the paper in one run,
//! or one of them with `--only <id>`.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin report [-- --scale 1.0 --threads N --only fig10]
//! ```

use ilpc_harness::figures::{render_report, render_section, section_ids};
use ilpc_harness::grid::{run_grid, Grid, GridConfig};
use std::cell::OnceCell;

/// Reject the command line: one `report:` line plus usage, exit status 2.
fn usage(problem: &str) -> ! {
    eprintln!("report: {problem}");
    eprintln!("usage: report [--scale F] [--threads N] [--only ID]");
    eprintln!("  ID: {}", section_ids().collect::<Vec<_>>().join(" "));
    std::process::exit(2);
}

fn parse_args() -> (GridConfig, Option<String>) {
    let mut cfg = GridConfig::default();
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--scale" => {
                cfg.scale = value().parse().unwrap_or_else(|_| usage("--scale takes a number"))
            }
            "--threads" => {
                cfg.threads = value().parse().unwrap_or_else(|_| usage("--threads takes a count"))
            }
            "--only" => {
                let id = value();
                if !section_ids().any(|s| s == id) {
                    usage(&format!("unknown section `{id}`"));
                }
                only = Some(id);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
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
