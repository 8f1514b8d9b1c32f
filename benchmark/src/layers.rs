//! The traced run: replays one workload's request stream in-process and
//! turns spans and counts into the per-layer metrics.
//!
//! Three in-process passes over the same fixed request list:
//!
//! * **traced** and **untraced** replays ([`Replayer`]), interleaved
//!   request by request and compared request by request, so a noisy
//!   moment on the host spoils one pair and not the figure — their
//!   difference is the tracing overhead, and the traced self times must
//!   add up to the untraced wall;
//! * an in-process [`ilpc_serve::Server`] answering the same lines through
//!   its real queue and worker thread — the round trip the transport
//!   figures are measured against, and the replies the replay must match.

use crate::expect::Reference;
use crate::metrics::Metric;
use crate::replay::{same_reply, Counters, Replayer, CORE_PASSES};
use crate::run::{E2e, ERROR_KINDS};
use crate::stats;
use crate::trace::{self, Span};
use crate::workload::{request_lines, Kind, Spec};
use ilpc_guard::GuardConfig;
use ilpc_harness::sweep::{run_sweep, Scenario, SweepConfig};
use ilpc_machine::MemConfig;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Instant;

/// Requests of `compile_guarded` re-run under each `GuardConfig` toggle
/// (five compiles apiece, so fewer than the replay itself).
const TOGGLE_REQUESTS: usize = 96;

/// What the traced run produced besides metrics.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Failed reconciliations and replay/server disagreements.
    pub problems: Vec<String>,
}

/// Host milliseconds of the guarded compile of the first requests, and of
/// the same compiles with the guard off or one of its checks off.
struct GuardSplit {
    n: usize,
    unguarded_ms: f64,
    guarded_ms: f64,
    without_verify_ms: f64,
    without_static_lints_ms: f64,
    without_differential_ms: f64,
}

fn guard_split(spec: &Spec, reference: &Reference, order: &[usize]) -> GuardSplit {
    let workloads = ilpc_workloads::build_all(spec.scale);
    let all = GuardConfig::default();
    let variants = [
        all,
        GuardConfig {
            verify: false,
            ..all
        },
        GuardConfig {
            static_lints: false,
            ..all
        },
        GuardConfig {
            differential: false,
            ..all
        },
    ];
    let mut guarded = [0.0f64; 4];
    let mut unguarded = 0.0;
    let picked = &order[..order.len().min(TOGGLE_REQUESTS)];
    for &k in picked {
        let p = &reference.points[k];
        let (w, machine) = (&workloads[p.loop_idx], p.machine());
        let t = Instant::now();
        std::hint::black_box(ilpc_harness::compile(w, p.level, &machine));
        unguarded += t.elapsed().as_secs_f64() * 1e3;
        for (cfg, total) in variants.iter().zip(&mut guarded) {
            let t = Instant::now();
            std::hint::black_box(ilpc_harness::compile_guarded(
                w, p.level, &machine, *cfg, None,
            ));
            *total += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    GuardSplit {
        n: picked.len(),
        unguarded_ms: unguarded,
        guarded_ms: guarded[0],
        without_verify_ms: guarded[1],
        without_static_lints_ms: guarded[2],
        without_differential_ms: guarded[3],
    }
}

/// `run_sweep` in-process on a fresh cache with 1 and 2 threads.
struct SweepProbe {
    t1_ms: f64,
    t2_ms: f64,
    steals: u64,
    stolen_items: u64,
    points: usize,
}

fn sweep_probe(spec: &Spec) -> Result<SweepProbe, String> {
    let cfg = |threads| SweepConfig {
        scale: spec.scale,
        widths: crate::workload::WIDTHS.to_vec(),
        threads,
        scenarios: vec![Scenario::mem(MemConfig::Perfect)],
        ..SweepConfig::default()
    };
    let timed = |threads| {
        let t = Instant::now();
        let sweep = run_sweep(&cfg(threads)).map_err(|e| format!("in-process run_sweep: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if sweep.total_errors() > 0 {
            return Err(format!(
                "in-process run_sweep: {} failed points",
                sweep.total_errors()
            ));
        }
        Ok((ms, sweep))
    };
    let (t1_ms, _) = timed(1)?;
    let (t2_ms, two) = timed(2)?;
    Ok(SweepProbe {
        t1_ms,
        t2_ms,
        steals: two.steals.steals,
        stolen_items: two.steals.stolen_items,
        points: two.grids[0].completed(),
    })
}

/// Replay `spec`'s stream in-process and compute every per-layer metric.
/// `e2e` is this run's (untraced) end-to-end observation of the real
/// server, which the serve-layer latency figures come from.
pub fn traced_run(
    spec: &Spec,
    reference: &Reference,
    seed: u64,
    e2e: &E2e,
) -> Result<Traced, String> {
    let mut problems = Vec::new();
    let lines = request_lines(spec, seed, spec.replay_requests);
    // Warm-up for the simulate workloads: one simulate per grid point under
    // the first memory configuration compiles every artifact the replayed
    // requests need (the compile key ignores the memory hierarchy).
    let warm_up =
        (spec.kind == Kind::Simulate).then(|| spec.probe_line(1, &reference.points[..480]));

    // Passes A (traced) and B (untraced), interleaved per request. Both
    // start from the same warm caches.
    let mut a = Replayer::new(false);
    if let Some(line) = &warm_up {
        a.handle_line(0, line);
    }
    let mut b = a.fork();
    a.start_measuring(true);
    b.start_measuring(false);
    let (mut wall_a, mut wall_b) = (Vec::new(), Vec::new());
    let mut replies = Vec::with_capacity(lines.len());
    for (k, line) in lines.iter().enumerate() {
        let timed = |r: &mut Replayer, wall: &mut Vec<f64>| {
            if spec.kind == Kind::SweepCold {
                // Every sweep of this workload meets a fresh server.
                r.forget_caches();
            }
            let t = Instant::now();
            let reply = r.handle_line(k as u32, line);
            wall.push(t.elapsed().as_secs_f64() * 1e3);
            reply
        };
        let (ra, rb) = if k % 2 == 0 {
            let ra = timed(&mut a, &mut wall_a);
            (ra, timed(&mut b, &mut wall_b))
        } else {
            let rb = timed(&mut b, &mut wall_b);
            (timed(&mut a, &mut wall_a), rb)
        };
        if ra != rb {
            problems.push(format!("request {k}: traced and untraced replays disagree"));
        }
        replies.push(ra);
    }
    if a.counts != b.counts {
        problems.push("traced and untraced replays counted different work".to_string());
    }

    // Pass C: the same lines through an in-process Server (a fresh one per
    // line on `sweep_cold`, whose every request meets a fresh server).
    let cfg = ilpc_serve::ServeConfig {
        workers: 1,
        queue: 64,
        sweep_threads: spec.server_threads(),
        chaos: None,
    };
    let (tx, rx) = mpsc::channel::<String>();
    let ask = |server: &ilpc_serve::Server, line: &str| {
        server.submit_line(line, &tx);
        rx.recv()
            .map_err(|_| "in-process server dropped a reply".to_string())
    };
    let mut server = ilpc_serve::Server::start(&cfg);
    if let Some(line) = &warm_up {
        ask(&server, line)?;
    }
    let mut inproc_us = Vec::with_capacity(lines.len());
    for (k, (line, replayed)) in lines.iter().zip(&replies).enumerate() {
        if spec.kind == Kind::SweepCold && k > 0 {
            std::mem::replace(&mut server, ilpc_serve::Server::start(&cfg)).shutdown();
        }
        let t = Instant::now();
        let served = ask(&server, line)?;
        inproc_us.push(t.elapsed().as_secs_f64() * 1e6);
        if !same_reply(&served, replayed) && problems.len() < 8 {
            problems.push(format!(
                "request {k}: replay says {replayed} but the server says {served}"
            ));
        }
    }
    server.shutdown();

    let guard = (spec.kind == Kind::Compile).then(|| {
        let order: Vec<usize> = crate::workload::Stream::new(seed, reference.points.len())
            .take(lines.len())
            .collect();
        guard_split(spec, reference, &order)
    });
    let sweep = if spec.kind == Kind::SweepCold {
        Some(sweep_probe(spec)?)
    } else {
        None
    };

    let spans = std::mem::take(&mut a.rec.spans);
    let c = &a.counts;
    let n = c.requests.max(1) as f64;
    let self_ns = trace::self_ns_by_name(&spans);
    let span_count: BTreeMap<&str, u64> = spans.iter().fold(BTreeMap::new(), |mut m, s| {
        *m.entry(s.name).or_insert(0) += 1;
        m
    });
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let count = |name: &str| span_count.get(name).copied().unwrap_or(0);

    // Reported in the order metrics.rs defines them, which has the units.
    let defs = crate::metrics::per_layer();
    let mut metrics: Vec<Metric> = Vec::with_capacity(defs.len());
    let mut put = |name: &str, value: f64, samples: u64| {
        let def = &defs[metrics.len()];
        assert_eq!(def.name, name, "per-layer metrics out of metrics.rs order");
        metrics.push(Metric {
            name: def.name.clone(),
            value,
            unit: def.unit,
            samples,
        });
    };
    // Self time of a span name, summed over the run, per request.
    let per_request_us = |name: &str| ns(name) / 1e3 / n;
    let per_request_ms = |name: &str| ns(name) / 1e6 / n;

    // ---- serve -----------------------------------------------------------
    put(
        "serve.json_parse_us",
        per_request_us("serve.json_parse"),
        count("serve.json_parse"),
    );
    put(
        "serve.parse_request_us",
        per_request_us("serve.parse_request"),
        count("serve.parse_request"),
    );
    put(
        "serve.reply_encode_us",
        per_request_us("serve.reply_encode"),
        count("serve.reply_encode"),
    );
    put("serve.request_bytes", c.request_bytes as f64, c.requests);
    put("serve.reply_bytes", c.reply_bytes as f64, c.requests);
    let inproc_p50 = stats::median(&inproc_us);
    // Request k took inproc_us[k] through the queue and its handler spans
    // took handler_ns[k] without one: the pair's difference is the hand-off.
    let handler_ns = trace::root_ns_by_request(&spans);
    let handoff_us: Vec<f64> = inproc_us
        .iter()
        .zip(handler_ns.values())
        .map(|(through, &ns)| through - ns as f64 / 1e3)
        .collect();
    let e2e_p50_us = stats::median(&e2e.latencies_ms) * 1e3;
    put(
        "serve.inproc_roundtrip_us_p50",
        inproc_p50,
        inproc_us.len() as u64,
    );
    put(
        "serve.queue_handoff_us_p50",
        stats::median(&handoff_us),
        handoff_us.len() as u64,
    );
    put(
        "serve.transport_us_p50",
        e2e_p50_us - inproc_p50,
        e2e.latencies_ms.len() as u64,
    );
    let mut sorted = e2e.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let samples = sorted.len() as u64;
    let tail_pct = stats::highest_supported_percentile(sorted.len());
    put(
        "serve.latency_tail_ms",
        tail_pct.map_or(0.0, |p| stats::percentile_sorted(&sorted, p)),
        samples,
    );
    put("serve.latency_tail_pct", tail_pct.unwrap_or(0.0), samples);
    put(
        "serve.latency_max_ms",
        sorted.last().copied().unwrap_or(0.0),
        samples,
    );
    put("serve.latency_samples", samples as f64, samples);
    for kind in ERROR_KINDS {
        let errors = e2e.errors_by_kind.get(kind.name()).copied().unwrap_or(0);
        put(
            &format!("serve.errors_by_kind.{kind}"),
            errors as f64,
            e2e.attempted,
        );
    }
    put(
        "serve.pool_restarts",
        e2e.pool.restarts as f64,
        e2e.attempted,
    );
    put("serve.pool_retries", e2e.pool.retries as f64, e2e.attempted);
    put(
        "serve.pool_shard0_share",
        e2e.pool.shard0_share,
        e2e.attempted,
    );

    // ---- compile layers --------------------------------------------------
    put(
        "workloads.build_us",
        per_request_us("workloads.build"),
        count("workloads.build"),
    );
    put("ir.lower_us", per_request_us("ir.lower"), count("ir.lower"));
    put(
        "ir.interp_us",
        per_request_us("ir.interp"),
        count("ir.interp"),
    );
    put(
        "ir.insts_after_lower",
        c.insts_after_lower as f64,
        c.compiles,
    );
    put(
        "opt.conventional_ms",
        per_request_ms("opt.conventional"),
        count("opt.conventional"),
    );
    put(
        "opt.insts_after",
        c.insts_after_conventional as f64,
        c.compiles,
    );
    let core_ns: f64 = CORE_PASSES
        .iter()
        .map(|p| ns(&format!("core.pass.{p}")))
        .sum();
    let core_spans: u64 = CORE_PASSES
        .iter()
        .map(|p| count(&format!("core.pass.{p}")))
        .sum();
    put("core.passes_ms", core_ns / 1e6 / n, core_spans);
    for pass in CORE_PASSES {
        let span = format!("core.pass.{pass}");
        put(
            &format!("core.pass.{pass}_ms"),
            per_request_ms(&span),
            count(&span),
        );
    }
    let t = &c.transforms;
    put("core.loops_unrolled", t.loops_unrolled as f64, c.compiles);
    put("core.defs_renamed", t.defs_renamed as f64, c.compiles);
    put("core.combines", t.combines as f64, c.compiles);
    put(
        "core.strength_reductions",
        t.strength_reductions as f64,
        c.compiles,
    );
    put("core.trees_reduced", t.trees_reduced as f64, c.compiles);
    put(
        "core.accumulators_expanded",
        t.accumulators_expanded as f64,
        c.compiles,
    );
    put(
        "core.inductions_expanded",
        t.inductions_expanded as f64,
        c.compiles,
    );
    put(
        "core.searches_expanded",
        t.searches_expanded as f64,
        c.compiles,
    );
    put("vec.slp_ms", per_request_ms("vec.slp"), count("vec.slp"));
    put("vec.packs_formed", t.packs_formed as f64, c.compiles);
    put(
        "vec.stmts_vectorized",
        t.stmts_vectorized as f64,
        c.compiles,
    );
    put(
        "sched.superblock_ms",
        per_request_ms("sched.superblock"),
        count("sched.superblock"),
    );
    put(
        "sched.list_ms",
        per_request_ms("sched.list"),
        count("sched.list"),
    );
    put(
        "sched.superblock_merges",
        c.superblock_merges as f64,
        c.compiles,
    );
    put(
        "sched.duplicated_insts",
        c.duplicated_insts as f64,
        c.compiles,
    );
    put(
        "regalloc.measure_ms",
        per_request_ms("regalloc.measure"),
        count("regalloc.measure"),
    );
    put(
        "regalloc.regs_mean",
        c.regs_total as f64 / c.compiles.max(1) as f64,
        c.compiles,
    );

    // ---- guard, lint -----------------------------------------------------
    let per_compile = |total_ms: f64, g: &GuardSplit| (g.guarded_ms - total_ms) / g.n.max(1) as f64;
    let g_n = guard.as_ref().map_or(0, |g| g.n as u64);
    put(
        "guard.overhead_ms",
        guard
            .as_ref()
            .map_or(0.0, |g| per_compile(g.unguarded_ms, g)),
        g_n,
    );
    put(
        "guard.verify_ms",
        guard
            .as_ref()
            .map_or(0.0, |g| per_compile(g.without_verify_ms, g)),
        g_n,
    );
    put(
        "guard.static_lints_ms",
        guard
            .as_ref()
            .map_or(0.0, |g| per_compile(g.without_static_lints_ms, g)),
        g_n,
    );
    put(
        "guard.differential_ms",
        guard
            .as_ref()
            .map_or(0.0, |g| per_compile(g.without_differential_ms, g)),
        g_n,
    );
    put("guard.steps_attempted", c.guard_steps as f64, c.compiles);
    put("guard.incidents", c.guard_incidents as f64, c.guard_steps);
    put(
        "lint.module_ms",
        per_request_ms("lint.module"),
        count("lint.module"),
    );
    put(
        "lint.audit_ms",
        per_request_ms("lint.audit"),
        count("lint.audit"),
    );
    put(
        "lint.diags_total",
        c.lint_diags as f64,
        count("lint.module"),
    );

    // ---- sim, mem ----------------------------------------------------------
    let sim_s = ns("sim.simulate") / 1e9;
    let per_sim_s = |x: u64| if sim_s > 0.0 { x as f64 / sim_s } else { 0.0 };
    put(
        "sim.decode_us",
        per_request_us("sim.decode"),
        count("sim.decode"),
    );
    put(
        "sim.decoded_records",
        c.decoded_records as f64,
        count("sim.decode"),
    );
    put(
        "sim.mem_init_us",
        per_request_us("sim.mem_init"),
        count("sim.mem_init"),
    );
    put(
        "sim.simulate_ms",
        per_request_ms("sim.simulate"),
        c.simulations,
    );
    put(
        "sim.mcycles_per_s",
        per_sim_s(c.cycles) / 1e6,
        c.simulations,
    );
    put(
        "sim.minsts_per_s",
        per_sim_s(c.dyn_insts) / 1e6,
        c.simulations,
    );
    put(
        "sim.ns_per_dyn_inst",
        ns("sim.simulate") / c.dyn_insts.max(1) as f64,
        c.simulations,
    );
    put("sim.cycles_total", c.cycles as f64, c.simulations);
    put("sim.dyn_insts_total", c.dyn_insts as f64, c.simulations);
    put("mem.accesses_total", c.mem_accesses as f64, c.simulations);
    put("mem.hits_total", c.mem_hits as f64, c.simulations);
    put("mem.misses_total", c.mem_misses as f64, c.simulations);
    let hit_rate = if c.mem_accesses == 0 {
        1.0
    } else {
        c.mem_hits as f64 / c.mem_accesses as f64
    };
    put("mem.hit_rate", hit_rate, c.simulations);
    put(
        "mem.sim_ns_per_access",
        ns("sim.simulate") / c.mem_accesses.max(1) as f64,
        c.simulations,
    );

    // ---- harness -----------------------------------------------------------
    let lookups = c.cache_compiles + c.cache_hits;
    put(
        "harness.verify_us",
        per_request_us("harness.verify"),
        count("harness.verify"),
    );
    put("harness.cache_compiles", c.cache_compiles as f64, lookups);
    put("harness.cache_hits", c.cache_hits as f64, lookups);
    put(
        "harness.cache_hit_share",
        c.cache_hits as f64 / lookups.max(1) as f64,
        lookups,
    );
    let layer_sum_ms = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        / 1e6;
    let sw = sweep.as_ref();
    let sw_n = sw.map_or(0, |s| s.points as u64);
    put(
        "harness.sweep_inproc_t1_ms",
        sw.map_or(0.0, |s| s.t1_ms),
        sw_n,
    );
    put(
        "harness.sweep_inproc_t2_ms",
        sw.map_or(0.0, |s| s.t2_ms),
        sw_n,
    );
    put(
        "harness.parallel_efficiency",
        sw.map_or(0.0, |s| s.t1_ms / (2.0 * s.t2_ms)),
        sw_n,
    );
    put("harness.steals", sw.map_or(0.0, |s| s.steals as f64), sw_n);
    put(
        "harness.stolen_items",
        sw.map_or(0.0, |s| s.stolen_items as f64),
        sw_n,
    );
    put(
        "harness.points_per_s",
        sw.map_or(0.0, |s| s.points as f64 / (s.t2_ms / 1e3)),
        sw_n,
    );
    put(
        "harness.residual_ms",
        sw.map_or(0.0, |s| s.t1_ms - layer_sum_ms / n),
        sw_n,
    );

    // ---- reconciliation ----------------------------------------------------
    // Request by request, so that a noisy moment on the host spoils one
    // pair and not the figure: the traced replay's spans (and its wall)
    // over the untraced replay's wall of the same request, then the median.
    let span_share: Vec<f64> = handler_ns
        .values()
        .zip(&wall_b)
        .map(|(&ns, untraced_ms)| ns as f64 / 1e6 / untraced_ms)
        .collect();
    let wall_ratio: Vec<f64> = wall_a
        .iter()
        .zip(&wall_b)
        .map(|(traced, untraced)| traced / untraced)
        .collect();
    let layer_sum_share = stats::median(&span_share);
    put("trace.layer_sum_share", layer_sum_share, spans.len() as u64);
    put(
        "trace.overhead_share",
        stats::median(&wall_ratio) - 1.0,
        c.requests,
    );
    put("trace.spans", spans.len() as f64, c.requests);

    if !(0.9..=1.1).contains(&layer_sum_share) {
        problems.push(format!(
            "a request's layer self times sum to {layer_sum_share:.3} of its untraced in-process wall (want 0.9..1.1)"
        ));
    }
    check_totals(spec, reference, c, &mut problems);
    assert_eq!(metrics.len(), defs.len(), "a per-layer metric is missing");
    Ok(Traced {
        metrics,
        spans,
        problems,
    })
}

/// Wherever the replay simulated whole rounds of the point set, its cycle
/// total must be that many times the workload's `model_cycles_total`.
fn check_totals(spec: &Spec, reference: &Reference, c: &Counters, problems: &mut Vec<String>) {
    let points = reference.points.len() as u64;
    if c.simulations == 0 || !c.simulations.is_multiple_of(points) {
        return;
    }
    let want = reference.totals().cycles_total * (c.simulations / points);
    if c.cycles != want {
        problems.push(format!(
            "{}: sim.cycles_total {} but {} rounds of model_cycles_total make {want}",
            spec.name,
            c.cycles,
            c.simulations / points
        ));
    }
}
