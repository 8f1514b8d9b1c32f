//! Static legality audit of the full compiled grid.
//!
//! Usage: ilpc-lint [--quick] [--json] [--verbose] [--scale F]
//!
//! Compiles all 40 workloads at every transformation level for issue
//! widths 1, 4 and 8 (40 × 6 × 3 = 720 artifacts at full size), then runs
//! the `ilpc-lint` dataflow lints on each compiled module and the static
//! schedule auditor on its retained list schedules. Every diagnostic is
//! printed — as text lines, or as JSON lines with `--json` — followed by
//! a per-severity summary. Exits 1 if any error-severity diagnostic
//! appears anywhere in the grid: the healthy pipeline is expected to be
//! lint-clean, so a nonzero exit means a pass or the scheduler produced
//! statically illegal code.
//!
//! `--quick` audits issue width 4 only (240 artifacts) for CI smoke use.
//! Text mode prints errors only unless `--verbose`; JSON mode always
//! emits every diagnostic.

use ilpc_core::level::Level;
use ilpc_harness::compile::compile;
use ilpc_testkit::json::{obj, Json};
use ilpc_lint::{audit_schedules, count_severity, lint_module, sort_diagnostics, Severity};
use ilpc_machine::Machine;
use ilpc_testkit::cli::Args;
use ilpc_workloads::{build_all, check_scale};

fn main() {
    let mut args =
        Args::from_env("ilpc-lint", "ilpc-lint [--quick] [--json] [--verbose] [--scale F]");
    let scale: f64 = args.opt("--scale").unwrap_or(0.02);
    let quick = args.switch("--quick");
    let json = args.switch("--json");
    let verbose = args.switch("--verbose");
    args.finish();
    check_scale(scale).unwrap_or_else(|e| args.fail(&e));

    let widths: &[u32] = if quick { &[4] } else { &[1, 4, 8] };
    let workloads = build_all(scale);

    let mut artifacts = 0usize;
    let mut totals = [0usize; 3]; // note, warning, error
    for w in &workloads {
        for level in Level::ALL {
            for &width in widths {
                let machine = Machine::issue(width);
                let c = compile(w, level, &machine);
                let mut diags = lint_module(&c.module);
                diags.extend(audit_schedules(&c.module, &c.schedules, &machine));
                sort_diagnostics(&mut diags);
                artifacts += 1;
                totals[0] += count_severity(&diags, Severity::Note);
                totals[1] += count_severity(&diags, Severity::Warning);
                totals[2] += count_severity(&diags, Severity::Error);
                for d in &diags {
                    if json {
                        println!(
                            "{}",
                            obj([
                                ("workload", Json::str(w.meta.name)),
                                ("level", Json::str(level.to_string())),
                                ("width", Json::num(width)),
                                ("diag", d.to_json()),
                            ])
                        );
                    } else if verbose || d.severity == Severity::Error {
                        println!("{}/{level}/w{width}: {d}", w.meta.name);
                    }
                }
            }
        }
    }

    let line = format!(
        "{artifacts} artifacts audited: {} error(s), {} warning(s), {} note(s)",
        totals[2], totals[1], totals[0]
    );
    if json {
        println!(
            "{}",
            obj([
                ("artifacts", Json::num(artifacts as f64)),
                ("errors", Json::num(totals[2] as f64)),
                ("warnings", Json::num(totals[1] as f64)),
                ("notes", Json::num(totals[0] as f64)),
            ])
        );
    } else {
        println!("{line}");
    }
    if totals[2] > 0 {
        eprintln!("FAIL: {} error-severity diagnostic(s)", totals[2]);
        std::process::exit(1);
    }
}
