//! Per-transformation ablation study (the paper's §3.2 narrative, made
//! quantitative): for each advanced transformation, measure issue-8 mean
//! speedup with it *removed from Lev4* (leave-one-out) and with it as the
//! *only addition to Lev2* (only-one). Also counts how many loops each
//! transformation fires in, reproducing "induction variable expansion is
//! the most often applied transformation".
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin ablation [-- --scale 0.5]
//! ```

use ilpc_core::ablation::TransformSet;
use ilpc_core::level::Level;
use ilpc_harness::compile::compile_set;
use ilpc_harness::run::{evaluate_set, run_compiled};
use ilpc_machine::Machine;
use ilpc_testkit::cli::Args;
use ilpc_workloads::{build_all, Workload};

fn mean_speedup(workloads: &[Workload], bases: &[u64], set: &TransformSet) -> f64 {
    let machine = Machine::issue(8);
    let mut sum = 0.0;
    for (w, &base) in workloads.iter().zip(bases) {
        let p = evaluate_set(w, set, &machine)
            .unwrap_or_else(|e| panic!("{}: {e}", w.meta.name));
        sum += base as f64 / p.cycles as f64;
    }
    sum / workloads.len() as f64
}

fn main() {
    let mut args = Args::from_env("ablation", "ablation [--scale F]");
    let scale: f64 = args.opt("--scale").unwrap_or(1.0);
    args.finish();
    let workloads = build_all(scale);
    eprintln!("measuring baselines...");
    let machine1 = Machine::base();
    let bases: Vec<u64> = workloads
        .iter()
        .map(|w| {
            evaluate_set(w, &TransformSet::none(), &machine1)
                .unwrap_or_else(|e| panic!("{}: {e}", w.meta.name))
                .cycles
        })
        .collect();

    let lev2 = mean_speedup(&workloads, &bases, &TransformSet::of_level(Level::Lev2));
    let lev4 = mean_speedup(&workloads, &bases, &TransformSet::all());
    println!("issue-8 mean speedup:  Lev2 = {lev2:.2}x   Lev4 = {lev4:.2}x");
    println!();
    println!(
        "{:<10} {:>13} {:>13} {:>12}",
        "transform", "Lev4 without", "Lev2 + only", "fires in"
    );
    for name in TransformSet::NAMES {
        let without = mean_speedup(&workloads, &bases, &TransformSet::all_but(name));
        let only = mean_speedup(&workloads, &bases, &TransformSet::lev2_plus(name));
        // Application counts at Lev4.
        let machine = Machine::issue(8);
        let fires = workloads
            .iter()
            .filter(|w| {
                let c = compile_set(w, &TransformSet::all(), &machine);
                // Validate while we are here.
                run_compiled(w, &c, &machine).unwrap();
                let r = &c.report;
                match name {
                    "combine" => r.combines > 0,
                    "strength" => r.strength_reductions > 0,
                    "threduce" => r.trees_reduced > 0,
                    "accum" => r.accumulators_expanded > 0,
                    "induct" => r.inductions_expanded > 0,
                    "search" => r.searches_expanded > 0,
                    _ => unreachable!(),
                }
            })
            .count();
        println!(
            "{:<10} {:>12.2}x {:>12.2}x {:>9}/40",
            name, without, only, fires
        );
    }
    println!();
    println!("reading: 'Lev4 without' below Lev4 ({lev4:.2}x) = the");
    println!("transformation contributes; 'Lev2 + only' above Lev2");
    println!("({lev2:.2}x) = it helps even alone.");
}
