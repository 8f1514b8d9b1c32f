//! The one binary that prints a result: every table and figure of the
//! paper in one run, or with `--only <id>` one of them or one of the
//! studies of `ilpc_harness::studies`.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin report [-- --scale 1.0 --threads N --only fig10]
//! cargo run --release -p ilpc-harness --bin report -- --only cache-sensitivity --quick
//! ```
//!
//! `--threads` above `ilpc_harness::steal::MAX_THREADS` (256) is a usage
//! error.

use ilpc_harness::figures::{render_report, render_section, section_ids};
use ilpc_harness::steal::MAX_THREADS;
use ilpc_harness::studies::{StudyCtx, STUDIES};
use ilpc_harness::sweep::{run_sweep, SweepConfig};
use ilpc_testkit::cli::Args;
use ilpc_workloads::check_scale;
use std::cell::OnceCell;

fn main() {
    let mut cfg = SweepConfig::default();
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
    if let Some(Err(e)) = scale.map(check_scale) {
        args.fail(&e);
    }
    if cfg.threads > MAX_THREADS {
        args.fail(&format!("--threads {} is above the limit of {MAX_THREADS}", cfg.threads));
    }
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
    let grid = || {
        cell.get_or_init(|| {
            eprintln!(
                "running grid: 40 loops x {} levels x {:?} (scale {})...",
                cfg.levels.len(),
                cfg.widths,
                cfg.scale
            );
            let sweep = run_sweep(&cfg).unwrap_or_else(|e| args.fail(&e.to_string()));
            let grid = sweep.grids.into_iter().next().expect("one scenario yields one grid");
            if !grid.errors.is_empty() {
                eprintln!("EVALUATION ERRORS:");
                for e in &grid.errors {
                    eprintln!("  {e}");
                }
                std::process::exit(1);
            }
            grid
        })
    };
    match only {
        Some(id) => println!("{}", render_section(&id, grid).expect("id was validated")),
        None => print!("{}", render_report(grid())),
    }
}
