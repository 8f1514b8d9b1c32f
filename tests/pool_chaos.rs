//! End-to-end supervision tests: a real `ilpc-pool` supervisor driving
//! real `ilpc-serve` worker *processes* armed with deterministic chaos
//! plans. These are the top-of-the-stack robustness checks for DESIGN.md
//! §18 — everything below (protocol, chaos plan, supervisor state
//! machine) has unit coverage in `crates/serve`; here we assert the
//! whole-system contract: one typed reply per request, no matter what
//! the workers do.
//!
//! The worker binary is `target/<profile>/ilpc-serve`; if the test
//! harness didn't build it (root `cargo test` only builds the root
//! package), we build it once via `cargo build -p ilpc-serve`.

#[path = "../crates/serve/tests/contract/mod.rs"]
mod contract;

use ilpc_serve::json::{parse, Json};
use ilpc_serve::{pool_lines, pool_script, serve_script, BackoffCfg, PoolConfig, ServeConfig};
use ilpc_testkit::{ChannelReader, SharedBuf, TestRng};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::Once;
use std::time::{Duration, Instant};

/// Make sure the `ilpc-serve` worker binary exists next to the test
/// profile dir, building it on first use. `PoolConfig::default()`
/// discovers it from there (`default_worker_exe`).
fn ensure_worker_built() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let exe = std::env::current_exe().expect("test exe path");
        // target/<profile>/deps/<test-bin> -> target/<profile>
        let profile_dir: PathBuf =
            exe.parent().and_then(|d| d.parent()).expect("target profile dir").to_path_buf();
        let worker = profile_dir.join("ilpc-serve");
        if worker.exists() {
            return;
        }
        let mut cmd = std::process::Command::new(env!("CARGO"));
        cmd.args(["build", "-p", "ilpc-serve", "--bin", "ilpc-serve", "--offline", "--quiet"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo build ilpc-serve");
        assert!(status.success(), "building the ilpc-serve worker binary failed");
        assert!(worker.exists(), "worker binary missing after build: {}", worker.display());
    });
}

/// Fast supervision timings for tests: tight ticks and pings, near-zero
/// backoff so respawns don't dominate wall-clock.
fn fast_cfg() -> PoolConfig {
    PoolConfig {
        ping_interval_ms: 50,
        ping_misses: 2,
        tick_ms: 5,
        backoff: BackoffCfg { base_ms: 10, max_ms: 50, jitter_ms: 5, seed: 0x5EED },
        ..Default::default()
    }
}

fn index_by_id(replies: &[String]) -> BTreeMap<String, Vec<Json>> {
    let mut map: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for line in replies {
        let v = parse(line).unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"));
        let id = match v.get("id") {
            Some(Json::Num(n)) => format!("{n}"),
            Some(Json::Str(s)) => s.clone(),
            _ => "null".to_string(),
        };
        map.entry(id).or_default().push(v);
    }
    map
}

fn error_kind(v: &Json) -> Option<String> {
    v.get("error")?.get("kind")?.as_str().map(str::to_string)
}

/// Drive a pool interactively: send `script`, wait (at most `wait`) until
/// it has answered `replies` lines, and only then probe `status` as id
/// `status_id` — so the incident ring it reports has witnessed the
/// campaign (batch input would answer it at admission). Returns every
/// reply, indexed by id.
fn drive(
    cfg: &PoolConfig,
    script: String,
    replies: usize,
    status_id: usize,
    wait: Duration,
) -> BTreeMap<String, Vec<Json>> {
    let (tx, reader) = ChannelReader::new();
    let out = SharedBuf::new();
    let pool = {
        let cfg = cfg.clone();
        let mut sink = out.clone();
        std::thread::spawn(move || {
            let mut input = BufReader::new(reader);
            pool_lines(&cfg, &mut input, &mut sink).expect("pool run");
        })
    };
    tx.send(script.into_bytes()).expect("pool alive");
    let deadline = Instant::now() + wait;
    while out.lines().len() < replies {
        assert!(
            Instant::now() < deadline,
            "pool produced {}/{replies} replies before the test deadline (lost replies \
             or a wedged pool)",
            out.lines().len()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    tx.send(format!("{{\"id\":{status_id},\"op\":\"status\"}}\n").into_bytes())
        .expect("pool alive");
    drop(tx);
    pool.join().expect("pool thread");
    index_by_id(&out.lines())
}

/// The reply contract every chaos campaign must hold: ids `0..=status_id`
/// are each answered exactly once, every failure is a typed pool failure,
/// and the `status` reply's incident count — returned — is present.
fn assert_contract(by_id: &BTreeMap<String, Vec<Json>>, status_id: usize) -> f64 {
    for id in 0..=status_id {
        let replies = by_id.get(&id.to_string()).map_or(0, Vec::len);
        assert_eq!(replies, 1, "id {id}: expected exactly one reply, got {replies}");
    }
    for (id, replies) in by_id {
        let v = &replies[0];
        if v.get("ok") != Some(&Json::Bool(true)) {
            let kind = error_kind(v).unwrap_or_default();
            assert!(
                matches!(kind.as_str(), "timeout" | "unavailable" | "overloaded"),
                "id {id}: chaos must surface as a typed pool failure, got kind {kind:?}"
            );
        }
    }
    by_id[&status_id.to_string()][0]
        .get("result")
        .and_then(|r| r.get("incidents_total"))
        .and_then(Json::as_f64)
        .expect("status carries incidents_total")
}

/// Deterministic kill campaign: every worker generation aborts while
/// handling its 3rd request. With 12 requests over 3 shards at least one
/// generation reaches its kill point, and retries land on other workers
/// — yet every id must get exactly one reply, every failure typed.
#[test]
fn kill_campaign_never_loses_or_duplicates_replies() {
    ensure_worker_built();
    let requests = 12usize;
    let cfg = PoolConfig {
        shards: 3,
        worker_args: vec![
            "--workers".into(),
            "1".into(),
            "--queue".into(),
            "32".into(),
            "--chaos".into(),
            "kill-nth=3,salt={shard}g{gen}".into(),
        ],
        queue: requests + 4,
        deadline_ms: 60_000,
        max_attempts: 2,
        ..fast_cfg()
    };

    let mut script = String::new();
    for id in 0..requests {
        let w = ["add", "sum", "dotprod", "maxval"][id % 4];
        script.push_str(&format!(
            "{{\"id\":{id},\"op\":\"simulate\",\"workload\":\"{w}\",\"level\":\"Lev2\",\"width\":4,\"scale\":0.02}}\n"
        ));
    }
    let by_id = drive(&cfg, script, requests, requests, Duration::from_secs(120));
    // Visibility: at least one shard saw 3 eligible requests (pigeonhole
    // over 12 requests / 3 shards), so at least one crash was recorded.
    let incidents = assert_contract(&by_id, requests);
    assert!(incidents >= 1.0, "kill campaign recorded no shard incidents");
}

/// The seeded chaos campaign: 24 seeded simulate/compile points, one
/// two-scenario sweep and a final `status` through a 3-shard pool whose
/// workers kill themselves, stall, write garbage and torn lines and drop
/// replies under one seeded plan, against a ground-truth run of the same
/// script on one undisturbed process. Beyond the reply contract, every
/// `ok` reply agrees with the truth (a sweep by its per-scenario
/// aggregates: cache and steal counters differ across process splits),
/// and any fault reply shows up as a shard incident in `status`.
#[test]
fn seeded_chaos_campaign_holds_the_reply_contract() {
    ensure_worker_built();
    let (seed, requests, scale) = (42u64, 24usize, 0.02);
    let mut rng = TestRng::seed_from_u64(seed);
    let workloads = ["add", "dotprod", "sum", "maxval", "merge", "APS-2", "SDS-1", "MTS-2"];
    let levels = ["Conv", "Lev1", "Lev2", "Lev3", "Lev4"];
    let mut script = String::new();
    for id in 0..requests {
        let w = workloads[rng.gen_range(0..workloads.len() as u64) as usize];
        let l = levels[rng.gen_range(0..levels.len() as u64) as usize];
        let width = [1u32, 2, 4, 8][rng.gen_range(0..4u64) as usize];
        let op = if rng.gen_range(0..3u64) == 0 { "compile" } else { "simulate" };
        script += &format!(r#"{{"id":{id},"op":"{op}","workload":"{w}","level":"{l}","#);
        script += &format!(r#""width":{width},"scale":{scale}}}"#);
        script.push('\n');
    }
    script += &format!(r#"{{"id":{requests},"op":"sweep","scale":{scale},"#);
    script += r#""levels":["Conv","Lev2"],"widths":[1,8],"#;
    script += r#""mems":[{"kind":"perfect"},{"kind":"cache","sets":16}]}"#;
    script.push('\n');
    let status_id = requests + 1;
    let queue = (status_id + 1).max(64);

    let truth = ServeConfig { workers: 2, queue, ..Default::default() };
    let truth = index_by_id(&serve_script(&truth, &script));
    let chaos = format!(
        "seed={seed},kill=0.08,stall=0.05,garbage=0.08,partial=0.04,drop=0.05,\
         salt={{shard}}g{{gen}}"
    );
    let cfg = PoolConfig {
        shards: 3,
        worker_args: [
            "--workers",
            "2",
            "--queue",
            &queue.to_string(),
            "--sweep-threads",
            "1",
            "--chaos",
            &chaos,
        ]
        .map(String::from)
        .to_vec(),
        queue: status_id + 9,
        deadline_ms: 5_000,
        ping_interval_ms: 200,
        ping_misses: 3,
        max_attempts: 2,
        tick_ms: 10,
        ..Default::default()
    };
    let by_id = drive(&cfg, script, status_id, status_id, Duration::from_secs(80));
    let incidents = assert_contract(&by_id, status_id);

    let mut faults = 0usize;
    for id in 0..status_id {
        let key = id.to_string();
        let got = &by_id[&key][0];
        if got.get("ok") != Some(&Json::Bool(true)) {
            faults += 1;
            continue;
        }
        let want = &truth.get(&key).unwrap_or_else(|| panic!("id {id}: no ground truth"))[0];
        fn scenarios(v: &Json) -> Option<&[Json]> {
            v.get("result")?.get("scenarios")?.as_arr()
        }
        match (scenarios(got), scenarios(want)) {
            (Some(gs), Some(ws)) => {
                assert_eq!(gs.len(), ws.len(), "id {id}: sweep scenario count");
                // A scenario with a `shard_error` is typed partial coverage.
                for (k, (g, w)) in gs.iter().zip(ws).enumerate() {
                    if g.get("shard_error").is_none() {
                        for field in ["label", "completed", "mean_speedup"] {
                            assert_eq!(g.get(field), w.get(field), "id {id}: scenario {k} {field}");
                        }
                    }
                }
            }
            _ => assert_eq!(got, want, "id {id}: reply diverges from ground truth"),
        }
    }
    // A lucky seed could draw no fault at all; then zero incidents is fine.
    assert!(
        faults == 0 || incidents > 0.0,
        "{faults} fault replies but zero shard incidents recorded"
    );
}

/// A stalled worker (stops reading input, stops ponging — the SIGSTOP
/// analogue) must be detected by missed pings and its requests answered
/// with typed `timeout`/`unavailable`; the pool must still terminate.
#[test]
fn stalled_worker_is_detected_and_requests_fail_typed() {
    ensure_worker_built();
    let cfg = PoolConfig {
        shards: 1,
        worker_args: vec![
            "--workers".into(),
            "1".into(),
            "--queue".into(),
            "8".into(),
            "--chaos".into(),
            "stall=1.0".into(),
        ],
        queue: 8,
        deadline_ms: 1_500,
        max_attempts: 2,
        ..fast_cfg()
    };
    let script = concat!(
        r#"{"id":0,"op":"simulate","workload":"add","level":"Lev2","width":4,"scale":0.02}"#,
        "\n",
        r#"{"id":1,"op":"simulate","workload":"sum","level":"Lev2","width":4,"scale":0.02}"#,
        "\n",
    );
    let replies = pool_script(&cfg, script);
    let by_id = index_by_id(&replies);
    for id in 0..2 {
        let replies = by_id.get(&id.to_string()).map_or(0, Vec::len);
        assert_eq!(replies, 1, "id {id}: expected exactly one reply");
        let v = &by_id[&id.to_string()][0];
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "id {id}: stall cannot produce ok");
        let kind = error_kind(v).unwrap_or_default();
        assert!(
            matches!(kind.as_str(), "timeout" | "unavailable"),
            "id {id}: expected timeout/unavailable, got {kind:?}"
        );
    }
}

/// Per-shard chaos arming: shard 1 kills itself on any sweep scenario,
/// and with the retry budget at 1 the split sweep must still merge —
/// with `shards:{covered:1,requested:2}` and a typed `shard_error` on
/// the lost scenario instead of a silently shrunken reply.
#[test]
fn sweep_on_a_dying_shard_degrades_to_partial_coverage() {
    ensure_worker_built();
    let cfg = PoolConfig {
        shards: 2,
        worker_args: vec!["--workers".into(), "1".into(), "--queue".into(), "8".into()],
        worker_extra: vec![Vec::new(), vec!["--chaos".into(), "kill-op=sweep".into()]],
        queue: 8,
        deadline_ms: 60_000,
        max_attempts: 1,
        ..fast_cfg()
    };
    let script = concat!(
        r#"{"id":7,"op":"sweep","scale":0.02,"levels":["Conv","Lev2"],"widths":[1,4],"#,
        r#""mems":[{"kind":"perfect"},{"kind":"cache","sets":16}]}"#,
        "\n",
    );
    let replies = pool_script(&cfg, script);
    let by_id = index_by_id(&replies);
    assert_eq!(by_id.get("7").map_or(0, Vec::len), 1, "split sweep must merge to one reply");
    let v = &by_id["7"][0];
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "degraded sweep still answers ok");
    let result = v.get("result").expect("sweep result");
    let coverage = result.get("shards").expect("coverage object");
    assert_eq!(coverage.get("covered").and_then(Json::as_f64), Some(1.0));
    assert_eq!(coverage.get("requested").and_then(Json::as_f64), Some(2.0));
    let scenarios = result.get("scenarios").and_then(Json::as_arr).expect("scenarios");
    assert_eq!(scenarios.len(), 2, "both scenario slots present even when one shard died");
    let errored: Vec<&Json> =
        scenarios.iter().filter(|s| s.get("shard_error").is_some()).collect();
    assert_eq!(errored.len(), 1, "exactly one scenario lost to the dying shard");
    let kind = errored[0]
        .get("shard_error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("");
    assert_eq!(kind, "unavailable", "past the retry budget the scenario is unavailable");
    let healthy = scenarios.iter().find(|s| s.get("shard_error").is_none()).expect("one ok part");
    assert!(healthy.get("label").is_some(), "surviving scenario carries real sweep data");
}

/// `status` is answered by the pool itself and reports supervision
/// state: role, per-shard phase/generation, healthy count.
#[test]
fn status_reports_pool_role_and_shard_states() {
    ensure_worker_built();
    let cfg = PoolConfig {
        shards: 2,
        worker_args: vec!["--workers".into(), "1".into(), "--queue".into(), "8".into()],
        ..fast_cfg()
    };
    let replies =
        pool_script(&cfg, "{\"id\":0,\"op\":\"ping\"}\n{\"id\":1,\"op\":\"status\"}\n");
    let by_id = index_by_id(&replies);
    let pong = &by_id["0"][0];
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    let status = &by_id["1"][0];
    let result = status.get("result").expect("status result");
    assert_eq!(result.get("role").and_then(Json::as_str), Some("pool"));
    let shards = result.get("shards").and_then(Json::as_arr).expect("shards array");
    assert_eq!(shards.len(), 2);
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.get("shard").and_then(Json::as_f64), Some(i as f64));
        assert_eq!(s.get("phase").and_then(Json::as_str), Some("up"), "shard {i} is up");
        assert!(s.get("generation").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    }
    assert_eq!(result.get("healthy").and_then(Json::as_f64), Some(2.0));
}

/// Unparseable client lines get a typed `bad-request` reply from the
/// pool itself — they never reach (or crash) a worker.
#[test]
fn garbage_client_line_gets_a_typed_bad_request() {
    ensure_worker_built();
    let cfg = PoolConfig {
        shards: 1,
        worker_args: vec!["--workers".into(), "1".into(), "--queue".into(), "8".into()],
        ..fast_cfg()
    };
    let replies = pool_script(&cfg, "this is not json\n{\"id\":9,\"op\":\"ping\"}\n");
    let by_id = index_by_id(&replies);
    let bad = &by_id["null"][0];
    assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_kind(bad).as_deref(), Some("bad-request"));
    assert_eq!(by_id["9"][0].get("ok"), Some(&Json::Bool(true)), "pool keeps serving after");
}

/// One contract, the third front door: the table `serve_protocol.rs` runs
/// over stdin and TCP draws the same reply lines from the pool — its own
/// admission (garbage, oversized, blank, `ping`) and the worker round trip
/// with every id shape rewritten and restored.
#[test]
fn pool_answers_the_contract_table_like_a_single_process() {
    ensure_worker_built();
    let cfg = PoolConfig {
        shards: 2,
        worker_args: vec!["--workers".into(), "1".into(), "--queue".into(), "8".into()],
        ..fast_cfg()
    };
    let pool = contract::sorted(pool_script(&cfg, &contract::script()));
    contract::assert_answers_table("pool", &pool);
    let single = ServeConfig { workers: 1, queue: 32, sweep_threads: 1, ..Default::default() };
    assert_eq!(pool, contract::sorted(serve_script(&single, &contract::script())));
}
