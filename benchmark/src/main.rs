//! `ilpc-benchmark` — the ILPC ledger.
//!
//! ```text
//! # one workload, the driver's contract (last stdout line = result JSON):
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload simulate_warm --seed 7 --seconds 15 --trace 0
//!
//! # every workload, end-to-end and per-layer tables:
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seed 7
//!
//! # A/A: two sets of runs of one commit held against the bounds:
//! benchmark/aa.sh
//! ```
//!
//! Run it from the repository root. See `benchmark/README.md`.

mod expect;
mod front;
mod layers;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workload;

use expect::Reference;
use metrics::Metric;
use std::path::Path;
use std::process::ExitCode;
use workload::{Spec, DEFAULT_SEED, SPECS};

/// Timed seconds per run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Runs per set of an A/A, as many as the driver makes.
const AA_RUNS: usize = 10;

/// With `--trace 1` the real server is measured for this share of
/// `--seconds`; the in-process replays take the rest.
const TRACED_E2E_SHARE: f64 = 0.4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: ilpc-benchmark [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--aa]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.quick {
        args.seconds = 1.0;
    }
    Ok(args)
}

/// `--quick`: the same code paths on a fraction of the work. Timed phases
/// stop after about a second wherever they are, one set-up, an eighth of
/// the replay — so nothing it prints compares with a full run. The point
/// set is not cut (a sweep always covers all 40 loop nests, and the
/// expected totals are those of the whole set), so the reference, one
/// set-up and the probe still cost what they cost in a full run.
fn quick(spec: &Spec) -> Spec {
    Spec {
        round: 1,
        setups: 1,
        replay_requests: (spec.replay_requests / 8).max(1),
        ..*spec
    }
}

/// The end-to-end metrics of one run, in `BENCHMARK.json` order.
fn end_to_end_metrics(e2e: &run::E2e, points: u64) -> Vec<Metric> {
    let n = e2e.latencies_ms.len() as u64;
    let value = |name: &str| match name {
        "throughput_ops_s" => (e2e.throughput_ops_s(), n),
        "latency_p50_ms" => (e2e.latency_p50_ms(), n),
        "setup_s" => (
            stats::median(&e2e.setup_samples_s),
            e2e.setup_samples_s.len() as u64,
        ),
        "peak_rss_mb" => (e2e.peak_rss_mb, 1),
        "model_cycles_total" => (e2e.totals.cycles_total as f64, points),
        "model_speedup_w8" => (e2e.totals.speedup_w8, points / 12),
        "code_static_insts_total" => (e2e.totals.static_insts_total as f64, points),
        "code_regs_total" => (e2e.totals.regs_total as f64, points),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    metrics::end_to_end()
        .into_iter()
        .map(|d| {
            let (value, samples) = value(&d.name);
            Metric {
                name: d.name,
                value,
                unit: d.unit,
                samples,
            }
        })
        .collect()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<40} {:>18.6} {:<10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Option<Vec<Metric>>,
}

/// Run one workload: the real server (always), the traced replay when
/// `trace`. `full_e2e` measures the server for all of `seconds` with every
/// set-up; otherwise for its traced share with one.
fn run_workload(
    exe: &Path,
    spec: &Spec,
    reference: &Reference,
    seed: u64,
    seconds: f64,
    trace: bool,
    full_e2e: bool,
) -> Result<Outcome, String> {
    // From here on one CPU, unless the server computes on more
    // (`sweep_cold` sweeps on two threads).
    let pinned = (spec.server_threads() == 1)
        .then(front::Pinned::acquire)
        .flatten();
    if spec.server_threads() == 1 && pinned.is_none() {
        println!(
            "{}: no `taskset` here: generator and server run unpinned",
            spec.name
        );
    }
    let (e2e_seconds, setups) = if full_e2e {
        (seconds, spec.setups)
    } else {
        (seconds * TRACED_E2E_SHARE, 1)
    };
    let e2e = run::run_e2e(exe, spec, reference, seed, e2e_seconds, setups)?;
    println!("{}: {}", spec.name, spec.why);
    println!(
        "{}: seed {seed}, stream fingerprint {:016x}, {} timed requests in {:.2} s, {} attempted, {} failed",
        spec.name,
        e2e.fingerprint,
        e2e.latencies_ms.len(),
        e2e.timed_wall_s,
        e2e.attempted,
        e2e.failed
    );
    for problem in &e2e.problems {
        println!("  FAILED {problem}");
    }
    let mut correct = e2e.failed == 0;
    if e2e.totals != reference.totals() {
        println!("  FAILED the probe's model totals differ from the in-process reference");
        correct = false;
    }
    let end_to_end = end_to_end_metrics(&e2e, reference.points.len() as u64);
    if end_to_end
        .iter()
        .any(|m| !m.value.is_finite() || m.value <= 0.0)
    {
        println!("  FAILED an end-to-end metric is not a positive number");
        correct = false;
    }

    let per_layer = if trace {
        let traced = layers::traced_run(spec, reference, seed, &e2e)?;
        for problem in &traced.problems {
            println!("  FAILED {problem}");
        }
        correct &= traced.problems.is_empty();
        write_trace(spec, &traced.spans)?;
        Some(traced.metrics)
    } else {
        None
    };
    Ok(Outcome {
        correct,
        attempted: e2e.attempted,
        failed: e2e.failed,
        end_to_end,
        per_layer,
    })
}

/// Spans go to `benchmark/out/trace_<workload>.jsonl` when the run ends.
fn write_trace(spec: &Spec, spans: &[trace::Span]) -> Result<(), String> {
    let dir = Path::new("benchmark/out");
    let path = dir.join(format!("trace_{}.jsonl", spec.name));
    std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| trace::write_jsonl(spans, &mut std::io::BufWriter::new(f)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  {} spans written to {}", spans.len(), path.display());
    Ok(())
}

/// The driver's contract: one workload, one result line.
fn driver_mode(exe: &Path, spec: &Spec, args: &Args) -> Result<bool, String> {
    let reference = Reference::compute(spec)?;
    let out = run_workload(
        exe,
        spec,
        &reference,
        args.seed,
        args.seconds,
        args.trace,
        !args.trace,
    )?;
    let metrics = match &out.per_layer {
        Some(per_layer) => per_layer,
        None => &out.end_to_end,
    };
    print_table(
        if args.trace {
            "per-layer (traced in-process replay):"
        } else {
            "end-to-end (tracing off):"
        },
        metrics,
    );
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, metrics)
    );
    Ok(out.correct)
}

/// Every workload, both tables.
fn summary_mode(exe: &Path, args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    if args.quick {
        println!("QUICK MODE: a fraction of the work; these numbers compare with nothing.");
    }
    for spec in &SPECS {
        let spec = if args.quick { quick(spec) } else { *spec };
        let reference = Reference::compute(&spec)?;
        let out = run_workload(exe, &spec, &reference, args.seed, args.seconds, true, true)?;
        print_table("  end-to-end (tracing off):", &out.end_to_end);
        print_table(
            "  per-layer (traced in-process replay):",
            out.per_layer.as_deref().unwrap_or(&[]),
        );
        println!(
            "  failed_share {} ({} of {} attempted) -> {}",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted,
            if out.correct { "correct" } else { "WRONG" }
        );
        all_correct &= out.correct;
    }
    println!(
        "{}",
        if all_correct {
            "all workloads correct"
        } else {
            "SOME WORKLOADS FAILED"
        }
    );
    Ok(all_correct)
}

/// A/A: two sets of [`AA_RUNS`] runs per workload on this one build, seeds
/// `seed`, `seed+1`, …; each end-to-end metric's quartile spread and the
/// shift of its median between the sets are held against its bound, as
/// the driver does. Exact metrics must not differ at all.
fn aa_mode(exe: &Path, args: &Args) -> Result<bool, String> {
    let defs = metrics::end_to_end();
    let mut pass = true;
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); defs.len()]; SPECS.len()]; 2];
    for (set, per_set) in values.iter_mut().enumerate() {
        for (spec, per_spec) in SPECS.iter().zip(per_set.iter_mut()) {
            // The expected answers do not depend on the seed: once per set.
            let reference = Reference::compute(spec)?;
            for r in 0..AA_RUNS {
                let seed = args.seed + r as u64;
                let out = run_workload(exe, spec, &reference, seed, args.seconds, false, true)?;
                pass &= out.correct;
                for (m, column) in out.end_to_end.iter().zip(per_spec.iter_mut()) {
                    column.push(m.value);
                }
                println!(
                    "  set {} run {}: {}",
                    set + 1,
                    r + 1,
                    metrics::result_line(out.correct, out.attempted, out.failed, &out.end_to_end)
                );
            }
        }
    }
    println!(
        "\nA/A of {AA_RUNS} runs per set (spread = (Q3-Q1)/median; shift = worsening of the 2nd median):"
    );
    println!(
        "{:<24} {:<24} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "shift", "bound"
    );
    for (w, spec) in SPECS.iter().enumerate() {
        for (m, def) in defs.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let (spread_a, spread_b) = (stats::iqr_share(a), stats::iqr_share(b));
            let worse = if def.better == "lower" {
                med_b - med_a
            } else {
                med_a - med_b
            };
            let shift = worse / med_a;
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let exact = bound == metrics::EXACT;
            let ok = if exact {
                a.iter().chain(b).all(|v| *v == a[0])
            } else {
                shift <= bound && (def.name == "setup_s" || spread_a.max(spread_b) <= bound)
            };
            pass &= ok;
            println!(
                "{:<24} {:<24} {:>14.6} {:>14.6} {:>9.4} {:>9.4} {:>9.4} {:>7} {}",
                spec.name,
                def.name,
                med_a,
                med_b,
                spread_a,
                spread_b,
                shift,
                if exact {
                    "exact".to_string()
                } else {
                    bound.to_string()
                },
                if ok { " ok" } else { " MISSED" }
            );
        }
    }
    println!(
        "{}",
        if pass {
            "A/A passed: every metric within its bound"
        } else {
            "A/A FAILED"
        }
    );
    Ok(pass)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = match &args.workload {
            Some(name) => Some(
                workload::spec(name)
                    .ok_or_else(|| format!("unknown workload {name:?}\n{}", usage()))?,
            ),
            None => None,
        };
        let exe = front::ensure_server_built()?;
        match spec {
            _ if args.aa => aa_mode(&exe, &args),
            Some(spec) if args.quick => driver_mode(&exe, &quick(spec), &args),
            Some(spec) => driver_mode(&exe, spec, &args),
            None => summary_mode(&exe, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ilpc-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
