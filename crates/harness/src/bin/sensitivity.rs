//! Machine sensitivity study: how the transformation levels behave when the
//! issue-8 processor's functional units are restricted — the "more
//! restricted processor model" the paper alludes to when discussing
//! strength reduction. Memory ports are the binding resource for the
//! unrolled DOALL loops; FP units bind the expanded reductions.
//!
//! ```text
//! cargo run --release -p ilpc-harness --bin sensitivity [-- --scale 0.5]
//! ```

use ilpc_core::level::Level;
use ilpc_harness::run::evaluate;
use ilpc_machine::Machine;
use ilpc_testkit::cli::Args;
use ilpc_workloads::build_all;

fn main() {
    let mut args = Args::from_env("sensitivity", "sensitivity [--scale F]");
    let scale: f64 = args.opt("--scale").unwrap_or(1.0);
    args.finish();
    let workloads = build_all(scale);

    let slow_loads = |cycles: u32| {
        let mut m = Machine::issue(8);
        m.latency.load = cycles;
        m
    };
    let machines = [
        Machine::issue(8),
        Machine::issue(8).with_mem_ports(4),
        Machine::issue(8).with_mem_ports(2),
        Machine::issue(8).with_mem_ports(1),
        Machine::issue(8).with_fp_units(2),
        Machine::issue(8).with_mem_ports(2).with_fp_units(2),
        slow_loads(4),
        slow_loads(8),
    ];

    eprintln!("measuring baselines...");
    let bases: Vec<u64> = workloads
        .iter()
        .map(|w| {
            evaluate(w, Level::Conv, &Machine::base())
                .unwrap_or_else(|e| panic!("{e}"))
                .cycles
        })
        .collect();

    println!(
        "{:<22} {:>7} {:>7} {:>7}",
        "machine", "Conv", "Lev2", "Lev4"
    );
    for machine in &machines {
        let label = if machine.latency.load != 2 {
            format!("issue-8/load{}", machine.latency.load)
        } else {
            machine.name()
        };
        print!("{label:<22}");
        for level in [Level::Conv, Level::Lev2, Level::Lev4] {
            let mut sum = 0.0;
            for (w, &base) in workloads.iter().zip(&bases) {
                let p = evaluate(w, level, machine)
                    .unwrap_or_else(|e| panic!("{}: {e}", machine.name()));
                sum += base as f64 / p.cycles as f64;
            }
            print!(" {:>6.2}x", sum / workloads.len() as f64);
        }
        println!();
    }
    println!();
    println!("mean issue-8 speedup over the issue-1 Conv baseline; the");
    println!("transformed code's appetite for memory ports and FP units is");
    println!("what the unrestricted model hides.");
}
