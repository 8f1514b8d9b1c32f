//! `pool-chaos` — deterministic chaos campaign against the shard pool.
//!
//! Builds a seeded request script, runs it twice — once through a plain
//! single-process server (ground truth), once through a supervised pool
//! whose workers are armed with a seeded [`ilpc_serve::chaos`] plan
//! (kills, stalls, garbage lines, torn partial writes, silent drops) —
//! and asserts the supervision contract:
//!
//! * **zero lost replies**: every request id gets exactly one reply;
//! * **zero duplicated replies**: no id is answered twice;
//! * **agreement**: every `ok` reply matches the undisturbed run
//!   byte-for-byte (sweep replies compare per-scenario aggregates, since
//!   cache/steal counters legitimately differ across process splits);
//! * **typed failure**: every non-`ok` reply is `timeout`/`unavailable`
//!   (`overloaded` when the campaign oversubscribes the queue) — never a
//!   raw line, a hang, or a process exit;
//! * **visibility**: injected faults show up as shard incidents in the
//!   final `status` reply.
//!
//! Exit status 0 = contract held; 1 = violation (printed); 2 = bad usage.
//!
//! ```text
//! pool-chaos --quick                 # CI smoke (seconds)
//! pool-chaos --shards 4 --requests 120 --seed 7
//! ```

use ilpc_serve::json::{parse, Json};
use ilpc_serve::{pool_lines, serve_script, PoolConfig, ServeConfig};
use ilpc_testkit::cli;
use ilpc_testkit::stream::{ChannelReader, SharedBuf};
use ilpc_testkit::TestRng;
use std::collections::BTreeMap;
use std::io::BufReader;

struct Args {
    shards: usize,
    requests: usize,
    seed: u64,
    scale: f64,
    deadline_ms: u64,
}

fn main() {
    let mut a = Args { shards: 3, requests: 60, seed: 42, scale: 0.02, deadline_ms: 20_000 };
    let mut cli = cli::Args::from_env(
        "pool-chaos",
        "pool-chaos [--quick] [--shards N] [--requests N] [--seed S] \
         [--scale F] [--deadline-ms MS]",
    );
    if cli.switch("--quick") {
        a.requests = 24;
    }
    cli.set("--shards", &mut a.shards);
    cli.set("--requests", &mut a.requests);
    cli.set("--seed", &mut a.seed);
    cli.set("--scale", &mut a.scale);
    cli.set("--deadline-ms", &mut a.deadline_ms);
    cli.finish();

    let script = build_script(&a);
    let ids = a.requests + 2; // + sweep + status

    eprintln!(
        "pool-chaos: {} requests, {} shards, seed {} — ground-truth run...",
        ids, a.shards, a.seed
    );
    let truth = serve_script(
        &ServeConfig { workers: 2, queue: ids.max(64), ..Default::default() },
        &script,
    );
    let truth_by_id = index_by_id("truth", &truth);

    let chaos = format!(
        "seed={},kill=0.08,stall=0.05,garbage=0.08,partial=0.04,drop=0.05,salt={{shard}}g{{gen}}",
        a.seed
    );
    eprintln!("pool-chaos: chaos run ({chaos})...");
    let cfg = PoolConfig {
        shards: a.shards,
        worker_args: vec![
            "--workers".into(),
            "2".into(),
            "--queue".into(),
            ids.max(64).to_string(),
            "--sweep-threads".into(),
            "1".into(),
            "--chaos".into(),
            chaos,
        ],
        queue: ids + 8,
        deadline_ms: a.deadline_ms,
        ping_interval_ms: 200,
        ping_misses: 3,
        max_attempts: 2,
        tick_ms: 10,
        ..Default::default()
    };
    // Drive the pool interactively: fire the whole workload, wait for
    // every reply, and only then probe `status` — so the incident ring it
    // reports has actually witnessed the campaign's faults.
    let (line_tx, reader) = ChannelReader::new();
    let out = SharedBuf::new();
    let pool_thread = {
        let cfg = cfg.clone();
        let mut out = out.clone();
        std::thread::spawn(move || {
            let mut input = BufReader::new(reader);
            pool_lines(&cfg, &mut input, &mut out).expect("pool run");
        })
    };
    line_tx.send(script.into_bytes()).expect("pool alive");
    let workload_ids = ids - 1; // status is sent separately below
    let deadline = std::time::Instant::now()
        + std::time::Duration::from_millis(a.deadline_ms * 4 + 60_000);
    while out.lines().len() < workload_ids {
        if std::time::Instant::now() > deadline {
            eprintln!(
                "pool-chaos: VIOLATION: pool produced {} of {workload_ids} replies before \
                 the campaign deadline (lost replies or a wedged pool)",
                out.lines().len()
            );
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    line_tx
        .send(format!("{{\"id\":{},\"op\":\"status\"}}\n", ids - 1).into_bytes())
        .expect("pool alive");
    drop(line_tx);
    pool_thread.join().expect("pool thread");
    let chaotic = out.lines();
    let chaotic_by_id = index_by_id("pool", &chaotic);

    let mut violations: Vec<String> = Vec::new();
    let mut ok_count = 0usize;
    let mut fault_count = 0usize;

    // Lost / duplicated replies.
    for id in 0..ids {
        let key = id.to_string();
        match chaotic_by_id.get(&key).map(Vec::len) {
            None => violations.push(format!("id {key}: reply LOST")),
            Some(1) => {}
            Some(n) => violations.push(format!("id {key}: {n} replies (DUPLICATED)")),
        }
    }

    // Agreement + typed failure.
    for (key, replies) in &chaotic_by_id {
        let Some(reply) = replies.first() else { continue };
        let v = parse(reply).expect("indexed replies parse");
        if v.get("ok") == Some(&Json::Bool(true)) {
            ok_count += 1;
            if *key == (ids - 1).to_string() {
                continue; // status: pool-side, no ground-truth counterpart
            }
            let truth_line = truth_by_id.get(key).and_then(|t| t.first());
            match truth_line {
                None => violations.push(format!("id {key}: ok reply but no ground truth")),
                Some(t) => check_agreement(key, reply, t, &mut violations),
            }
        } else {
            fault_count += 1;
            let kind = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            if !matches!(kind.as_str(), "timeout" | "unavailable" | "overloaded") {
                violations.push(format!("id {key}: untyped chaos failure kind {kind:?}"));
            }
        }
    }

    // Visibility: the status reply (last id) must expose shard incidents
    // whenever any fault reply occurred. (A lucky seed can draw no
    // faults; then zero incidents is legitimate.)
    let status_id = (ids - 1).to_string();
    let incidents_total = chaotic_by_id
        .get(&status_id)
        .and_then(|r| r.first())
        .and_then(|l| parse(l).ok())
        .and_then(|v| {
            v.get("result").and_then(|r| r.get("incidents_total")).and_then(Json::as_f64)
        })
        .unwrap_or(-1.0);
    if incidents_total < 0.0 {
        violations.push("status reply missing incidents_total".to_string());
    } else if fault_count > 0 && incidents_total == 0.0 {
        violations.push(format!(
            "{fault_count} fault replies but zero shard incidents recorded"
        ));
    }

    eprintln!(
        "pool-chaos: {ok_count} ok, {fault_count} typed-fault replies, \
         {incidents_total} shard incidents"
    );
    if violations.is_empty() {
        eprintln!("pool-chaos: PASS — no lost or duplicated replies, contract held");
        return;
    }
    for v in &violations {
        eprintln!("pool-chaos: VIOLATION: {v}");
    }
    std::process::exit(1);
}

/// Seeded request script: a mix of simulate/compile points, one
/// multi-scenario sweep mid-stream, and a final `status`. Ids are
/// 0..n+1, each used exactly once.
fn build_script(a: &Args) -> String {
    let mut rng = TestRng::seed_from_u64(a.seed);
    let workloads =
        ["add", "dotprod", "sum", "maxval", "merge", "APS-2", "SDS-1", "MTS-2"];
    let levels = ["Conv", "Lev1", "Lev2", "Lev3", "Lev4"];
    let mut lines = Vec::new();
    for id in 0..a.requests {
        let w = workloads[rng.gen_range(0..workloads.len() as u64) as usize];
        let l = levels[rng.gen_range(0..levels.len() as u64) as usize];
        let width = [1u32, 2, 4, 8][rng.gen_range(0..4u64) as usize];
        let line = if rng.gen_range(0..3u64) == 0 {
            format!(
                r#"{{"id":{id},"op":"compile","workload":"{w}","level":"{l}","width":{width},"scale":{}}}"#,
                a.scale
            )
        } else {
            format!(
                r#"{{"id":{id},"op":"simulate","workload":"{w}","level":"{l}","width":{width},"scale":{}}}"#,
                a.scale
            )
        };
        lines.push(line);
    }
    lines.push(format!(
        r#"{{"id":{},"op":"sweep","scale":{},"levels":["Conv","Lev2"],"widths":[1,8],"mems":[{{"kind":"perfect"}},{{"kind":"cache","sets":16}}]}}"#,
        a.requests, a.scale
    ));
    lines.join("\n") + "\n"
}

/// Group reply lines by their id rendered as a string.
fn index_by_id(tag: &str, replies: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in replies {
        let Ok(v) = parse(line) else {
            eprintln!("pool-chaos: {tag}: unparseable reply line {line:?}");
            continue;
        };
        let id = match v.get("id") {
            Some(Json::Num(n)) => format!("{n}"),
            Some(Json::Str(s)) => s.clone(),
            _ => "null".to_string(),
        };
        map.entry(id).or_default().push(line.clone());
    }
    map
}

/// An `ok` pool reply must agree with ground truth. Point requests
/// (simulate/compile) are deterministic → byte equality. Sweep replies
/// carry machinery counters (cache hits, steals) that differ across
/// process splits → compare per-scenario aggregates and coverage. The
/// status op is pool-side, never compared.
fn check_agreement(id: &str, got: &str, want: &str, violations: &mut Vec<String>) {
    let g = parse(got).expect("got parses");
    let w = parse(want).expect("want parses");
    let g_res = g.get("result");
    let w_res = w.get("result");
    if g_res.and_then(|r| r.get("role")).is_some() {
        return; // status reply: pool-side, shape differs by design
    }
    let g_scen = g_res.and_then(|r| r.get("scenarios")).and_then(Json::as_arr);
    let w_scen = w_res.and_then(|r| r.get("scenarios")).and_then(Json::as_arr);
    match (g_scen, w_scen) {
        (Some(gs), Some(ws)) => {
            if gs.len() != ws.len() {
                violations.push(format!(
                    "id {id}: sweep scenario count {} != truth {}",
                    gs.len(),
                    ws.len()
                ));
                return;
            }
            for (k, (gsc, wsc)) in gs.iter().zip(ws).enumerate() {
                if gsc.get("shard_error").is_some() {
                    continue; // typed partial coverage, not a mismatch
                }
                let pick = |v: &Json, key: &str| v.get(key).cloned().unwrap_or(Json::Null);
                for key in ["label", "completed", "mean_speedup"] {
                    if pick(gsc, key) != pick(wsc, key) {
                        violations.push(format!(
                            "id {id}: sweep scenario {k} field {key:?} diverges from truth"
                        ));
                    }
                }
            }
        }
        _ => {
            if got != want {
                violations.push(format!("id {id}: reply diverges from ground truth"));
            }
        }
    }
}
