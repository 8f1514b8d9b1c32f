//! System tests for `ilpc-serve`: the service must answer every input —
//! well-formed, malformed, hostile or overloading — with a typed JSON
//! reply, and must never die or cross-deliver between clients.

mod contract;

use ilpc_serve::server::MAX_SCALES;
use ilpc_serve::{
    parse, pool_lines, pool_script, serve_lines, serve_script, serve_tcp, Json, PoolConfig,
    ServeConfig,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex};

fn cfg_small() -> ServeConfig {
    ServeConfig { workers: 2, queue: 8, sweep_threads: 4, ..Default::default() }
}

/// Reply lines all parse, and each maps id → (ok, payload).
fn index_replies(lines: &[String]) -> Vec<(Json, bool, Json)> {
    lines
        .iter()
        .map(|l| {
            let v = parse(l).unwrap_or_else(|e| panic!("unparseable reply {l:?}: {e}"));
            let id = v.get("id").cloned().unwrap_or(Json::Null);
            let ok = v.get("ok") == Some(&Json::Bool(true));
            let payload = if ok {
                v.get("result").cloned().unwrap()
            } else {
                v.get("error").cloned().unwrap()
            };
            (id, ok, payload)
        })
        .collect()
}

fn error_kind(payload: &Json) -> String {
    payload.get("kind").and_then(Json::as_str).unwrap_or("<none>").to_string()
}

/// Malformed JSON, malformed requests and unknown names produce typed
/// error replies — and the server keeps serving afterwards.
#[test]
fn malformed_input_yields_typed_errors_not_a_crash() {
    let script = [
        "not json at all",
        r#"{"id":1,"op":"warp"}"#,
        r#"{"id":2,"op":"compile","workload":"no-such-loop","level":"Lev2","width":8}"#,
        r#"{"id":3,"op":"compile","workload":"add","level":"Lev2","width":8,"scale":-1}"#,
        r#"{"id":4,"op":"sweep","scale":0.02,"widths":[8]}"#,
        r#"{"id":5,"op":"compile","workload":"add","level":"Conv","width":1,"scale":0.02}"#,
    ]
    .join("\n");
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    assert_eq!(replies.len(), 6);

    let by_id = |want: &Json| {
        replies
            .iter()
            .find(|(id, _, _)| id == want)
            .unwrap_or_else(|| panic!("no reply for id {want:?}"))
    };
    let (_, ok, e) = by_id(&Json::Null);
    assert!(!ok);
    assert_eq!(error_kind(e), "bad-request");
    assert_eq!(error_kind(&by_id(&Json::Num(1.0)).2), "bad-request");
    assert_eq!(error_kind(&by_id(&Json::Num(2.0)).2), "bad-config");
    assert_eq!(error_kind(&by_id(&Json::Num(3.0)).2), "bad-config");
    // Sweep axes are validated by the grid's typed validation (missing
    // base width 1).
    let (_, ok, e) = by_id(&Json::Num(4.0));
    assert!(!ok);
    assert_eq!(error_kind(e), "bad-config");
    assert!(e.get("detail").and_then(Json::as_str).unwrap().contains("base width"));
    // The request *after* all the garbage still succeeds: nothing died.
    let (_, ok, r) = by_id(&Json::Num(5.0));
    assert!(ok, "{r:?}");
    assert_eq!(r.get("achieved").and_then(Json::as_str), Some("Conv"));
}

/// `scale` sizes every array a workload allocates, so a hostile one is an
/// allocator abort no `catch_unwind` contains: it must be refused before
/// anything is built. All three ops that take one, then a compile through
/// the same queue and workers (`ping` bypasses both and would prove
/// nothing).
#[test]
fn absurd_scale_is_refused_and_the_server_lives() {
    let script = [
        r#"{"id":1,"op":"compile","workload":"add","level":"Conv","width":1,"scale":1e12}"#,
        r#"{"id":2,"op":"simulate","workload":"add","level":"Conv","width":1,"scale":1e12}"#,
        r#"{"id":3,"op":"sweep","scale":1e12,"levels":["Conv"],"widths":[1]}"#,
        r#"{"id":4,"op":"compile","workload":"add","level":"Conv","width":1,"scale":64.5}"#,
        r#"{"id":5,"op":"compile","workload":"add","level":"Conv","width":1,"scale":0.02}"#,
    ]
    .join("\n");
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    assert_eq!(replies.len(), 5);
    for (id, ok, payload) in &replies {
        if *id == Json::Num(5.0) {
            assert!(ok, "{payload:?}");
            assert_eq!(payload.get("achieved").and_then(Json::as_str), Some("Conv"));
        } else {
            assert!(!ok, "{id:?}: {payload:?}");
            assert_eq!(error_kind(payload), "bad-config", "{id:?}");
            let detail = payload.get("detail").and_then(Json::as_str).unwrap();
            assert!(detail.contains("<= 64"), "{id:?}: {detail}");
        }
    }
}

/// Cache geometry sizes the model's line array, so a hostile one is the
/// same allocator abort as a hostile `scale` — or, wrapping in `u32`, a
/// cache that is not the one asked for. Each is refused at admission
/// (`mem` and every entry of `mems`), single-process and through the pool
/// router, and the simulate queued behind each is still served.
#[test]
fn absurd_cache_geometry_is_refused_and_the_server_lives() {
    let sim = r#""op":"simulate","workload":"add","level":"Conv","width":1,"scale":0.02"#;
    let mem = |geom: &str| format!(r#"{sim},"mem":{{"kind":"cache",{geom}}}"#);
    let hostile = [
        mem(r#""sets":1073741824,"ways":3"#),
        mem(r#""sets":65536,"ways":65536"#),
        mem(r#""sets":4294967295"#),
        mem(r#""line_words":4294967295"#),
        r#""op":"sweep","scale":0.02,"levels":["Conv"],"widths":[1],"mems":[{"kind":"perfect"},{"kind":"cache","sets":1073741824,"ways":3}]"#.to_string(),
    ];
    // Even ids must be refused; the odd id behind each is a plain simulate
    // through the same queue and workers (`ping` bypasses both and would
    // prove nothing).
    let script: String = hostile
        .iter()
        .enumerate()
        .map(|(k, body)| format!("{{\"id\":{},{body}}}\n{{\"id\":{},{sim}}}\n", 2 * k, 2 * k + 1))
        .collect();

    let pool = PoolConfig {
        shards: 1,
        worker_exe: env!("CARGO_BIN_EXE_ilpc-serve").into(),
        ..Default::default()
    };
    for (door, lines) in [
        ("stdin", serve_script(&cfg_small(), &script)),
        ("pool", pool_script(&pool, &script)),
    ] {
        let replies = index_replies(&lines);
        assert_eq!(replies.len(), 10, "{door}");
        for (id, ok, payload) in &replies {
            let served = matches!(id, Json::Num(n) if *n as u64 % 2 == 1);
            assert_eq!(*ok, served, "{door} {id:?}: {payload:?}");
            if !served {
                assert_eq!(error_kind(payload), "bad-config", "{door} {id:?}: {payload:?}");
            }
        }
    }
}

/// The pool adds the deadline to its clock with a saturating add: at
/// `u64::MAX` a request gets its normal reply, not an overflow panic
/// (debug) or a wrapped deadline that times every request out (release).
/// The request arrives 20 ms after the pool starts, so its clock is past 0.
#[test]
fn pool_deadline_at_u64_max_serves_the_request() {
    struct Late(std::io::Cursor<&'static [u8]>, bool);
    impl std::io::Read for Late {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.1, true) {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            self.0.read(buf)
        }
    }
    let pool = PoolConfig {
        shards: 1,
        worker_exe: env!("CARGO_BIN_EXE_ilpc-serve").into(),
        deadline_ms: u64::MAX,
        ..Default::default()
    };
    let sim = br#"{"id":1,"op":"simulate","workload":"add","level":"Conv","width":1,"scale":0.02}"#;
    let mut out = Vec::new();
    let mut input = BufReader::new(Late(std::io::Cursor::new(sim), false));
    pool_lines(&pool, &mut input, &mut out).unwrap();
    let lines: Vec<String> = String::from_utf8(out).unwrap().lines().map(str::to_string).collect();
    let replies = index_replies(&lines);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let (id, ok, payload) = &replies[0];
    assert_eq!((id, *ok), (&Json::num(1.0), true), "{payload:?}");
    assert!(payload.get("cycles").and_then(Json::as_f64).is_some_and(|c| c > 0.0), "{payload:?}");
}

/// An oversized request line is rejected with a typed error and bounded
/// memory; the next line is served normally.
#[test]
fn oversized_line_is_rejected_and_stream_continues() {
    let huge = format!("{{\"id\":9,\"junk\":\"{}\"}}", "x".repeat(2 * 1024 * 1024));
    let script = format!(
        "{huge}\n{}",
        r#"{"id":10,"op":"compile","workload":"add","level":"Conv","width":1,"scale":0.02}"#
    );
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    assert_eq!(replies.len(), 2);
    let (id, ok, e) = &replies.iter().find(|(_, ok, _)| !ok).unwrap();
    assert_eq!(*id, Json::Null);
    assert!(!ok);
    assert_eq!(error_kind(e), "bad-request");
    assert!(e.get("detail").and_then(Json::as_str).unwrap().contains("exceeds"));
    let (_, ok, _) = replies.iter().find(|(id, _, _)| *id == Json::Num(10.0)).unwrap();
    assert!(ok, "the line after the oversized one must still be served");
}

/// Filling the bounded queue yields `overloaded` backpressure replies —
/// admission is rejected, nothing buffers without bound, nothing dies.
#[test]
fn queue_overflow_produces_backpressure_replies() {
    // One worker, one queue slot. The first job is a slow sweep that
    // occupies the worker, so the flood behind it must overflow.
    let cfg = ServeConfig { workers: 1, queue: 1, sweep_threads: 2, ..Default::default() };
    let slow =
        r#"{"id":"slow","op":"sweep","scale":0.02,"levels":["Conv","Lev2"],"widths":[1,8]}"#;
    let fast =
        r#"{"id":"fastN","op":"compile","workload":"add","level":"Conv","width":1,"scale":0.02}"#;
    let mut script = vec![slow.to_string()];
    for k in 0..4 {
        script.push(fast.replace("fastN", &format!("fast{k}")));
    }
    let replies = index_replies(&serve_script(&cfg, &script.join("\n")));
    assert_eq!(replies.len(), 5, "every request gets exactly one reply");

    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("slow")).unwrap();
    assert!(ok, "the admitted sweep must complete: {r:?}");
    let overloaded: Vec<_> = replies
        .iter()
        .filter(|(_, ok, e)| !ok && error_kind(e) == "overloaded")
        .collect();
    let served = replies.iter().filter(|(_, ok, _)| *ok).count();
    // The worker is busy with the sweep, so at most one follower fits the
    // queue slot; at least three of four must be rejected with the typed
    // backpressure error.
    assert!(overloaded.len() >= 3, "got {} overloaded replies", overloaded.len());
    assert_eq!(served + overloaded.len(), 5);
    for (_, _, e) in &overloaded {
        assert!(e.get("detail").and_then(Json::as_str).unwrap().contains("queue full"));
    }
}

/// A sabotaged point inside a served sweep degrades that request only:
/// typed per-point errors in the reply, coverage visibly partial, and the
/// server healthy for the next request.
#[test]
fn sabotaged_sweep_degrades_per_request() {
    let script = [
        r#"{"id":"s","op":"sweep","scale":0.02,"levels":["Conv","Lev2"],"widths":[1,8],
            "mems":[{"kind":"perfect"},{"kind":"cache","sets":8}],
            "sabotage":{"workload":"dotprod","level":"Lev2","width":8,"mode":"panic"}}"#
            .replace('\n', " "),
        r#"{"id":"after","op":"simulate","workload":"dotprod","level":"Lev2","width":8,"scale":0.02}"#
            .to_string(),
    ]
    .join("\n");
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    assert_eq!(replies.len(), 2);

    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("s")).unwrap();
    assert!(ok, "a sweep with a broken point still replies ok: {r:?}");
    let scenarios = r.get("scenarios").and_then(Json::as_arr).unwrap();
    assert_eq!(scenarios.len(), 2);
    for s in scenarios {
        let errors = s.get("errors").and_then(Json::as_arr).unwrap();
        assert_eq!(errors.len(), 1, "{s:?}");
        assert_eq!(errors[0].get("workload").and_then(Json::as_str), Some("dotprod"));
        assert_eq!(errors[0].get("kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(s.get("completed").and_then(Json::as_u64), Some(40 * 2 * 2 - 1));
        // Aggregate coverage carries the hole: 39/40 at (Lev2, 8).
        let mean = s.get("mean_speedup").unwrap();
        assert_eq!(mean.get("covered").and_then(Json::as_u64), Some(39));
        assert_eq!(mean.get("requested").and_then(Json::as_u64), Some(40));
    }
    // The very point that was sabotaged in the sweep works fine in the
    // next request — the degradation was strictly per-request.
    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("after")).unwrap();
    assert!(ok, "{r:?}");
    assert!(r.get("cycles").and_then(Json::as_u64).unwrap() > 0);
}

/// Batch: one line in, one line out, per-request envelopes inside —
/// including a failing request that doesn't poison its siblings.
#[test]
fn batch_requests_reply_in_order_with_isolated_failures() {
    let script = r#"{"id":"b","op":"batch","requests":[
        {"id":"b1","op":"compile","workload":"add","level":"Conv","width":1,"scale":0.02},
        {"id":"b2","op":"compile","workload":"no-such","level":"Conv","width":1},
        {"id":"b3","op":"simulate","workload":"add","level":"Lev2","width":8,"scale":0.02}]}"#
        .replace('\n', " ");
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    assert_eq!(replies.len(), 1);
    let (id, ok, r) = &replies[0];
    assert_eq!(*id, Json::str("b"));
    assert!(ok);
    let inner = r.get("replies").and_then(Json::as_arr).unwrap();
    assert_eq!(inner.len(), 3);
    assert_eq!(inner[0].get("id"), Some(&Json::str("b1")));
    assert_eq!(inner[0].get("ok"), Some(&Json::Bool(true)));
    assert_eq!(inner[1].get("id"), Some(&Json::str("b2")));
    assert_eq!(inner[1].get("ok"), Some(&Json::Bool(false)));
    assert_eq!(
        inner[1].get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("bad-config")
    );
    assert_eq!(inner[2].get("id"), Some(&Json::str("b3")));
    assert_eq!(inner[2].get("ok"), Some(&Json::Bool(true)));
}

/// `compile` with `"lint": true` attaches the static audit to the reply;
/// a healthy point is free of error-severity findings, and without the
/// flag the reply shape is unchanged.
#[test]
fn compile_with_lint_attaches_clean_audit() {
    let script = [
        r#"{"id":"l","op":"compile","workload":"dotprod","level":"Lev4","width":8,"scale":0.02,"lint":true}"#,
        r#"{"id":"n","op":"compile","workload":"dotprod","level":"Lev4","width":8,"scale":0.02}"#,
    ]
    .join("\n");
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    assert_eq!(replies.len(), 2);

    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("l")).unwrap();
    assert!(ok, "{r:?}");
    assert_eq!(r.get("achieved").and_then(Json::as_str), Some("Lev4"));
    let lint = r.get("lint").expect("lint audit attached");
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0), "{lint:?}");
    let diags = lint.get("diags").and_then(Json::as_arr).unwrap();
    let warnings = lint.get("warnings").and_then(Json::as_u64).unwrap();
    let notes = lint.get("notes").and_then(Json::as_u64).unwrap();
    assert_eq!(diags.len() as u64, warnings + notes);
    for d in diags {
        assert!(d.get("lint").and_then(Json::as_str).is_some(), "{d:?}");
        assert!(d.get("severity").and_then(Json::as_str).is_some(), "{d:?}");
    }

    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("n")).unwrap();
    assert!(ok, "{r:?}");
    assert!(r.get("lint").is_none(), "lint must be opt-in: {r:?}");
}

/// The reply `id` is the request `id` echoed **verbatim** — numbers,
/// strings, even structured values, and absent ids come back as `null`.
/// The pool router relies on this contract for correlation: it rewrites
/// client ids to internal ones and must get exactly those bytes back.
#[test]
fn reply_id_is_echoed_verbatim_for_every_json_shape() {
    let script = [
        r#"{"id":7,"op":"ping"}"#,
        r#"{"id":7.5,"op":"ping"}"#,
        r#"{"id":"seven","op":"ping"}"#,
        r#"{"id":[7,"x"],"op":"ping"}"#,
        r#"{"id":{"client":"a","seq":7},"op":"ping"}"#,
        r#"{"id":null,"op":"ping"}"#,
        r#"{"op":"ping"}"#,
        r#"{"id":{"client":"a","seq":8},"op":"warp"}"#,
    ]
    .join("\n");
    let replies = serve_script(&cfg_small(), &script);
    assert_eq!(replies.len(), 8);
    let ids: Vec<Json> =
        replies.iter().map(|l| parse(l).unwrap().get("id").cloned().unwrap()).collect();
    assert!(ids.contains(&Json::Num(7.0)));
    assert!(ids.contains(&Json::Num(7.5)));
    assert!(ids.contains(&Json::str("seven")));
    assert!(ids.contains(&Json::Arr(vec![Json::Num(7.0), Json::str("x")])));
    // Structured ids are echoed on ok replies AND on typed errors.
    let structured = |seq: f64| {
        ids.iter()
            .filter(|id| {
                id.get("client").and_then(Json::as_str) == Some("a")
                    && id.get("seq").and_then(Json::as_f64) == Some(seq)
            })
            .count()
    };
    assert_eq!(structured(7.0), 1);
    assert_eq!(structured(8.0), 1, "error replies echo structured ids too");
    assert_eq!(ids.iter().filter(|id| **id == Json::Null).count(), 2);
}

/// `ping` and `status` answer immediately even when the queue is
/// saturated — health probes must not bounce off a full queue.
#[test]
fn ping_and_status_bypass_a_full_queue() {
    let cfg = ServeConfig { workers: 1, queue: 1, sweep_threads: 2, ..Default::default() };
    let slow =
        r#"{"id":"slow","op":"sweep","scale":0.02,"levels":["Conv","Lev2"],"widths":[1,8]}"#;
    let script = [
        slow,
        slow, // fills the single queue slot (or rejects — either way busy)
        r#"{"id":"hb","op":"ping"}"#,
        r#"{"id":"st","op":"status"}"#,
    ]
    .join("\n");
    let replies = index_replies(&serve_script(&cfg, &script));
    assert_eq!(replies.len(), 4);
    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("hb")).unwrap();
    assert!(ok, "{r:?}");
    assert_eq!(r.get("pong"), Some(&Json::Bool(true)));
    let (_, ok, r) = replies.iter().find(|(id, _, _)| *id == Json::str("st")).unwrap();
    assert!(ok, "{r:?}");
    assert_eq!(r.get("role").and_then(Json::as_str), Some("single"));
    assert_eq!(r.get("queue_cap").and_then(Json::as_u64), Some(1));
    assert!(r.get("queue_depth").and_then(Json::as_u64).is_some());
}

/// `scale` is client input: a client cycling through distinct values must
/// not grow the server without bound. The engine keeps state for at most
/// `MAX_SCALES` of them, `status` says how many, and an evicted scale is
/// simply rebuilt when asked for again.
#[test]
fn per_scale_state_is_bounded() {
    let sim = |k: usize| {
        format!(
            r#"{{"id":{k},"op":"simulate","workload":"add","level":"Lev2","width":4,"scale":{}}}"#,
            0.02 + k as f64 * 1e-4
        )
    };
    // One batch is one job: its requests run in order, `status` last.
    let mut reqs: Vec<String> = (0..MAX_SCALES + 2).map(sim).collect();
    reqs.push(r#"{"id":"st","op":"status"}"#.to_string());
    reqs.push(sim(0));
    reqs.push(r#"{"id":"st2","op":"status"}"#.to_string());
    let script = format!(r#"{{"id":"b","op":"batch","requests":[{}]}}"#, reqs.join(","));
    let replies = index_replies(&serve_script(&cfg_small(), &script));
    let inner = replies[0].2.get("replies").and_then(Json::as_arr).unwrap();
    assert_eq!(inner.len(), MAX_SCALES + 5);
    let result = |k: usize| {
        assert_eq!(inner[k].get("ok"), Some(&Json::Bool(true)), "{:?}", inner[k]);
        inner[k].get("result").unwrap()
    };
    let scales = |k: usize| result(k).get("scales").and_then(Json::as_u64);
    assert_eq!(scales(MAX_SCALES + 2), Some(MAX_SCALES as u64));
    assert_eq!(result(MAX_SCALES + 3).get("cycles"), result(0).get("cycles"));
    assert_eq!(scales(MAX_SCALES + 4), Some(MAX_SCALES as u64));
}

/// A TCP client that dies mid-line (unterminated final fragment, then
/// reset) is a clean end of session: the fragment is not answered, the
/// connection closes without error, and the server serves the next
/// client untouched.
#[test]
fn tcp_mid_line_disconnect_closes_cleanly() {
    let cfg = ServeConfig { workers: 1, queue: 4, sweep_threads: 1, ..Default::default() };
    let (addr, accept_loop) = serve_tcp(&cfg, "127.0.0.1:0", Some(2)).unwrap();

    // Client 1: one good request, then half a request and a hard reset.
    {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(writer, r#"{{"id":"good","op":"ping"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = parse(line.trim()).unwrap();
        assert_eq!(v.get("id"), Some(&Json::str("good")));
        // Unterminated fragment, then the socket just goes away.
        writer.write_all(br#"{"id":"torn","op":"comp"#).unwrap();
        writer.flush().unwrap();
        drop(writer);
        drop(stream);
    }

    // Client 2 is served normally after the messy disconnect; it also
    // proves the torn fragment produced no stray reply (fresh channel
    // per connection — nothing rides over).
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(
        writer,
        r#"{{"id":"after","op":"simulate","workload":"add","level":"Lev2","width":8,"scale":0.02}}"#
    )
    .unwrap();
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut lines = Vec::new();
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        lines.push(line.trim().to_string());
        line.clear();
    }
    assert_eq!(lines.len(), 1, "exactly one reply, no torn-request error: {lines:?}");
    let v = parse(&lines[0]).unwrap();
    assert_eq!(v.get("id"), Some(&Json::str("after")));
    assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    accept_loop.join().unwrap();
}

/// Two concurrent TCP clients with interleaved traffic: each receives
/// exactly the replies to its own requests.
#[test]
fn concurrent_tcp_clients_are_isolated() {
    let cfg = ServeConfig { workers: 2, queue: 16, sweep_threads: 2, ..Default::default() };
    let (addr, accept_loop) = serve_tcp(&cfg, "127.0.0.1:0", Some(2)).unwrap();

    let client = |tag: &'static str, n: usize| {
        std::thread::spawn(move || -> Vec<(Json, bool, Json)> {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            for k in 0..n {
                writeln!(
                    writer,
                    r#"{{"id":"{tag}-{k}","op":"simulate","workload":"add","level":"Lev2","width":8,"scale":0.02}}"#
                )
                .unwrap();
            }
            writer.shutdown(std::net::Shutdown::Write).unwrap();
            let mut lines = Vec::new();
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                lines.push(line.trim().to_string());
                line.clear();
                if lines.len() == n {
                    break;
                }
            }
            index_replies(&lines)
        })
    };

    let a = client("alpha", 5);
    let b = client("beta", 5);
    let got_a = a.join().unwrap();
    let got_b = b.join().unwrap();

    for (tag, got) in [("alpha", got_a), ("beta", got_b)] {
        assert_eq!(got.len(), 5, "{tag}");
        for (k, (id, ok, r)) in got.iter().enumerate() {
            // Replies may arrive out of submission order (ids pair them),
            // but every id must belong to THIS client.
            let id = id.as_str().unwrap();
            assert!(id.starts_with(tag), "{tag} received foreign reply {id}");
            assert!(ok, "{tag} request {k}: {r:?}");
            assert!(r.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        }
        // All five distinct ids came back.
        let mut ids: Vec<&str> = got.iter().map(|(id, _, _)| id.as_str().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "{tag}");
    }
    accept_loop.join().unwrap();
}

/// One contract, two of the three front doors (the pool's turn is in the
/// root `tests/pool_chaos.rs`): the table of `contract` — valid, garbage,
/// oversized, blank, `ping`, ids of every shape — draws the same reply
/// lines over one TCP connection as over stdin.
#[test]
fn stdin_and_tcp_answer_the_contract_table_identically() {
    let cfg = ServeConfig { workers: 1, queue: 32, sweep_threads: 1, ..Default::default() };
    let stdin = contract::sorted(serve_script(&cfg, &contract::script()));
    contract::assert_answers_table("stdin", &stdin);

    let (addr, accept_loop) = serve_tcp(&cfg, "127.0.0.1:0", Some(1)).unwrap();
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // Sent from a second thread: a megabyte of input must not wait on
    // replies nobody is reading yet.
    let sender = std::thread::spawn(move || {
        writer.write_all(contract::script().as_bytes()).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
    });
    let tcp: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
    sender.join().unwrap();
    accept_loop.join().unwrap();
    assert_eq!(contract::sorted(tcp), stdin);
}

/// A `Write` that records every `write` call it receives.
#[derive(Clone, Default)]
struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every reply leaves as exactly ONE write ending in its newline. Payload
/// and newline as two writes on an unbuffered socket meet Nagle and
/// delayed ACK (~40 ms per reply); TCP and the pool send through the same
/// `wire::write_line`, so this pins that stall with no socket or clock.
#[test]
fn every_reply_is_a_single_write_ending_in_a_newline() {
    let script = [
        r#"{"id":1,"op":"ping"}"#,
        "not json",
        r#"{"id":2,"op":"simulate","workload":"add","level":"Lev2","width":4,"scale":0.02}"#,
        r#"{"id":3,"op":"status"}"#,
    ]
    .join("\n");
    let log = WriteLog::default();
    let mut input = std::io::Cursor::new(script.as_bytes());
    serve_lines(&cfg_small(), &mut input, &mut log.clone()).unwrap();
    let writes = log.0.lock().unwrap();
    assert_eq!(writes.len(), 4, "one write per reply");
    for w in writes.iter() {
        let text = String::from_utf8_lossy(w);
        assert!(text.ends_with('\n') && text.matches('\n').count() == 1, "torn reply: {text:?}");
        parse(text.trim_end()).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    }
}

/// The crate's binary rejects a bad command line with one `ilpc-serve: …`
/// line, the usage and exit status 2 — never a panic (status 101).
#[test]
fn binaries_reject_bad_command_lines_with_usage() {
    let serve = env!("CARGO_BIN_EXE_ilpc-serve");
    for args in [
        &["--workers"][..],
        &["--queue", "8", "--tcp"],
        &["--pool", "two"],
        &["--bogus"],
        // Supervision tuning is `PoolConfig::default()`, not a flag.
        &["--pool", "2", "--retry", "3"],
        &["--seed", "7"],
        // One past each bound, rejected before anything is spawned.
        &["--workers", "257"],
        &["--sweep-threads", "257"],
        &["--pool", "65"],
        &["--pool", "2", "--workers", "257"],
    ] {
        ilpc_testkit::cli::assert_rejected("ilpc-serve", serve, args);
    }
}
