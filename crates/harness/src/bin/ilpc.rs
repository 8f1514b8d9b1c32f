//! `ilpc` — command-line driver for the ILPC compiler.
//!
//! ```text
//! ilpc list                                 # Table 2 workload catalog
//! ilpc emit  <loop> [--level L] [--scale S] # compiled code (text format)
//! ilpc run   <loop> [--level L] [--width W] # compile + simulate + verify
//! ilpc trace <loop> [--level L] [--width W] # per-instruction issue times
//! ilpc exec  <file.ilpc> [--width W]        # simulate a text-format module
//!
//! `--level lev6 --vlen N` compiles through the SLP vectorizer.
//! ```
//!
//! The `emit`/`exec` pair round-trips through the stable text format of
//! `ilpc_ir::text`, so compiled code can be inspected, edited and re-run.

use ilpc_core::level::Level;
use ilpc_harness::compile::compile;
use ilpc_harness::run::run_compiled;
use ilpc_machine::Machine;
use ilpc_sched::schedule_insts;
use ilpc_sim::simulate;
use ilpc_testkit::cli;
use ilpc_workloads::{build, check_scale, table2};

struct Args {
    cmd: String,
    target: Option<String>,
    level: Level,
    width: u32,
    vlen: u32,
    scale: f64,
}

/// Parse the command line; the cursor comes back too so `main` can reject
/// a missing target or an unknown command the same way.
fn parse_args() -> (Args, cli::Args) {
    let mut cli = cli::Args::from_env(
        "ilpc",
        "ilpc <list|emit|run|trace|exec> [target] \
         [--level conv|lev1..lev4|lev6] [--width N] [--vlen N] [--scale S]",
    );
    let level = match cli.opt::<String>("--level") {
        None => Level::Lev4,
        Some(name) => Level::from_name(&name)
            .unwrap_or_else(|| cli.fail(&format!("unknown level {name}"))),
    };
    let width = cli.opt("--width").unwrap_or(8);
    if width == 0 {
        cli.fail("width must be at least 1");
    }
    let vlen = cli.opt("--vlen").unwrap_or(1);
    if vlen == 0 {
        cli.fail("vlen must be at least 1");
    }
    let scale = cli.opt("--scale").unwrap_or(1.0);
    check_scale(scale).unwrap_or_else(|e| cli.fail(&e));
    let cmd = cli.positional().unwrap_or_else(|| cli.fail("missing command"));
    let target = cli.positional();
    cli.finish();
    (Args { cmd, target, level, width, vlen, scale }, cli)
}

fn die(msg: &str) -> ! {
    eprintln!("ilpc: {msg}");
    std::process::exit(2);
}

fn workload(args: &Args, cli: &cli::Args) -> ilpc_workloads::Workload {
    let name = args.target.as_deref().unwrap_or_else(|| cli.fail("missing loop nest name"));
    let meta = table2()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| die(&format!("unknown loop nest {name}; try `ilpc list`")));
    build(&meta, args.scale)
}

fn main() {
    let (args, cli) = parse_args();
    let machine = Machine::issue(args.width).with_vlen(args.vlen);
    match args.cmd.as_str() {
        "list" => {
            println!(
                "{:<14}{:<9}{:>6}{:>8}{:>6}  {:<10}{:>6}",
                "name", "suite", "size", "iters", "nest", "type", "conds"
            );
            for m in table2() {
                println!(
                    "{:<14}{:<9}{:>6}{:>8}{:>6}  {:<10}{:>6}",
                    m.name,
                    m.suite.to_string(),
                    m.size,
                    m.iters,
                    m.nest,
                    m.ltype.name(),
                    if m.conds { "yes" } else { "no" }
                );
            }
        }
        "emit" => {
            let w = workload(&args, &cli);
            let c = compile(&w, args.level, &machine);
            print!("{}", ilpc_ir::text::serialize(&c.module));
        }
        "run" => {
            let w = workload(&args, &cli);
            let c = compile(&w, args.level, &machine);
            match run_compiled(&w, &c, &machine) {
                Ok(p) => {
                    println!("loop:          {}", w.meta.name);
                    println!("level/machine: {} on {}", args.level, machine.name());
                    println!("cycles:        {}", p.cycles);
                    println!("dyn insts:     {}", p.dyn_insts);
                    println!("ipc:           {:.2}", p.dyn_insts as f64 / p.cycles as f64);
                    println!("registers:     {} ({} int + {} flt + {} vec)",
                        p.regs.total(), p.regs.int, p.regs.flt, p.regs.vec);
                    println!("static insts:  {}", p.static_insts);
                    println!("transforms:    {:?}", c.report);
                    println!("verified:      results match the AST interpreter");
                }
                Err(e) => die(&format!("verification failed: {e}")),
            }
        }
        "trace" => {
            let w = workload(&args, &cli);
            let c = compile(&w, args.level, &machine);
            let lv = ilpc_analysis::Liveness::compute(&c.module.func);
            for &bid in c.module.func.layout_order() {
                let b = c.module.func.block(bid);
                println!("B{} ({}):", bid.0, b.label);
                let sched =
                    schedule_insts(&b.insts, &machine, &|t| lv.live_in(t).clone());
                for (inst, t) in sched.insts.iter().zip(&sched.times) {
                    println!("  IT {t:>4}  {inst}");
                }
            }
        }
        "exec" => {
            let path = args.target.as_deref().unwrap_or_else(|| cli.fail("missing file"));
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            let module = ilpc_ir::text::parse(&text)
                .unwrap_or_else(|e| die(&format!("{path}: {e}")));
            ilpc_ir::verify::verify_module(&module)
                .unwrap_or_else(|e| die(&format!("{path}: invalid module: {e}")));
            let (_, total) = module.symtab.layout();
            match simulate(&module, &machine, vec![0; total], 1_000_000_000) {
                Ok(r) => {
                    println!("cycles:    {}", r.cycles);
                    println!("dyn insts: {}", r.dyn_insts);
                    for (id, s) in module.symtab.iter() {
                        let v = ilpc_sim::read_symbol(&module.symtab, &r.memory, id);
                        println!("{}: {v:?}", s.name);
                    }
                }
                Err(e) => die(&format!("simulation failed: {e}")),
            }
        }
        other => cli.fail(&format!("unknown command {other}")),
    }
}
