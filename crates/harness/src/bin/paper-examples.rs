//! Reproduce the paper's §2 worked examples (Figures 1, 3, 5, 6, 7):
//! build each kernel, run the real transformation pass, schedule on the
//! unlimited-issue machine, and print measured vs paper cycle counts.

use ilpc_harness::examples_paper::{all_examples, measure};
use ilpc_machine::Machine;
use ilpc_sched::schedule_insts;
use ilpc_testkit::cli::Args;

fn main() {
    let mut args = Args::from_env("paper-examples", "paper-examples [--verbose]");
    let verbose = args.switch("--verbose");
    args.finish();
    println!(
        "{:<8} {:>8} {:>8} {:>6}  description",
        "example", "measured", "paper", "iters"
    );
    for e in all_examples() {
        let got = measure(&e);
        println!(
            "{:<8} {:>8} {:>8} {:>6}  {}",
            e.name, got, e.paper_cycles, e.iterations, e.description
        );
        if verbose {
            let machine = Machine::unlimited();
            let lv = ilpc_analysis::Liveness::compute(&e.module.func);
            let sched = schedule_insts(
                &e.module.func.block(e.body).insts,
                &machine,
                &|t| lv.live_in(t).clone(),
            );
            for (inst, t) in sched.insts.iter().zip(&sched.times) {
                println!("    IT {t:>3}  {inst}");
            }
        }
        assert_eq!(got, e.paper_cycles, "{} diverges from the paper", e.name);
    }
    println!("\nall worked examples match the paper");
}
