//! Static-estimate vs profile-driven superblock formation (IMPACT used
//! execution profiles to select traces; our front end only estimates
//! branch probabilities). Reported for the loops with conditionals —
//! the only ones where trace selection matters.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin profile-study [-- --scale 0.5]
//! ```

use ilpc_core::level::Level;
use ilpc_harness::profile::evaluate_with_profile;
use ilpc_harness::run::evaluate;
use ilpc_machine::Machine;
use ilpc_testkit::cli::Args;
use ilpc_workloads::build_all;

fn main() {
    let mut args = Args::from_env("profile-study", "profile-study [--scale F]");
    let scale: f64 = args.opt("--scale").unwrap_or(1.0);
    args.finish();
    let machine = Machine::issue(8);

    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "loop", "static", "profiled", "ratio"
    );
    for w in build_all(scale) {
        if !w.meta.conds {
            continue;
        }
        let stat = evaluate(&w, Level::Lev4, &machine)
            .unwrap_or_else(|e| panic!("{e}"));
        let prof = evaluate_with_profile(&w, Level::Lev4, &machine)
            .unwrap_or_else(|e| panic!("{e}"));
        println!(
            "{:<12} {:>10} {:>10} {:>8.3}",
            w.meta.name,
            stat.cycles,
            prof.cycles,
            prof.cycles as f64 / stat.cycles as f64
        );
    }
    println!();
    println!("cycles at Lev4/issue-8; ratio < 1 means the measured profile");
    println!("beat the front end's static estimates. Both runs are verified");
    println!("against the interpreter.");
}
