//! Seeded fault-injection campaign against the transformation firewall.
//!
//! Usage: fault-campaign [--quick] [--faults N] [--seed S] [--scale F]
//!
//! Injects N deterministic faults (IR corruptions inside guarded
//! compilation steps, plus machine latency-table corruptions) across the
//! 40 workloads, classifies every outcome, and prints the summary table.
//! Exits nonzero if any fault silently escapes — wrong architectural
//! results with nothing flagged.

use ilpc_harness::campaign::{run_campaign, CampaignConfig};
use ilpc_testkit::cli::Args;

fn main() {
    let mut cfg = CampaignConfig::default();
    let mut args = Args::from_env(
        "fault-campaign",
        "fault-campaign [--quick] [--faults N] [--seed S] [--scale F]",
    );
    if args.switch("--quick") {
        cfg.faults = 120;
    }
    args.set("--faults", &mut cfg.faults);
    args.set("--seed", &mut cfg.seed);
    args.set("--scale", &mut cfg.scale);
    args.finish();

    let report = run_campaign(&cfg);
    print!("{}", report.render());

    let escapes = report.silent_escapes();
    if escapes > 0 {
        eprintln!("FAIL: {escapes} silent escape(s)");
        std::process::exit(1);
    }
    println!("OK: zero silent escapes");
}
