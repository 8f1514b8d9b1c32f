//! One protocol contract, one table: the lines every front door — stdin,
//! TCP, the `--pool` router — must answer identically. Shared by
//! `serve_protocol.rs` (stdin vs TCP) and the root `tests/pool_chaos.rs`
//! (stdin vs pool, which needs the built worker binary).

use ilpc_serve::{parse, Json, MAX_LINE_BYTES};

/// The simulate every valid row runs (cheap: scale 0.02, one artifact).
fn simulate(id: &str) -> String {
    let id = if id.is_empty() { String::new() } else { format!(r#""id":{id},"#) };
    format!(r#"{{{id}"op":"simulate","workload":"add","level":"Lev2","width":4,"scale":0.02}}"#)
}

/// The table: each input line with the reply it must draw — `None` for no
/// reply at all, `Some("ok")`, or `Some(<error kind>)`.
pub fn table() -> Vec<(String, Option<&'static str>)> {
    let mut rows = vec![
        (simulate("1"), Some("ok")),
        ("this is not json".to_string(), Some("bad-request")),
        (r#"{"id":2}"#.to_string(), Some("bad-request")),
        (r#"{"id":3,"op":"warp"}"#.to_string(), Some("bad-request")),
        // One byte past the cap, then a valid line: the stream resyncs.
        ("x".repeat(MAX_LINE_BYTES + 1), Some("bad-request")),
        (simulate("4"), Some("ok")),
        ("   ".to_string(), None),
        (String::new(), None),
        (r#"{"id":5,"op":"ping"}"#.to_string(), Some("ok")),
        // Width 0 would alias width 1 under a key of its own.
        (
            r#"{"id":6,"op":"compile","workload":"add","level":"Lev2","width":0,"scale":0.02}"#
                .to_string(),
            Some("bad-request"),
        ),
    ];
    // An id of every JSON shape, echoed verbatim — through the pool that
    // means rewritten to an internal id and restored on the way out.
    for id in ["7.5", r#""seven""#, r#"[7,"x"]"#, r#"{"client":"a","seq":7}"#, "null", ""] {
        rows.push((simulate(id), Some("ok")));
    }
    rows
}

/// The table as one input script.
pub fn script() -> String {
    table().into_iter().map(|(line, _)| line + "\n").collect()
}

/// Reply lines in a canonical order: replies answered at admission may
/// overtake queued ones, so front doors are compared as sorted sets.
pub fn sorted(mut replies: Vec<String>) -> Vec<String> {
    replies.sort();
    replies
}

/// `replies` answers the table: one typed reply per expecting row, the
/// outcomes matching as a multiset.
pub fn assert_answers_table(door: &str, replies: &[String]) {
    let outcome = |line: &String| {
        let v = parse(line).unwrap_or_else(|e| panic!("{door}: unparseable reply {line:?}: {e}"));
        if v.get("ok") == Some(&Json::Bool(true)) {
            return "ok".to_string();
        }
        let kind = v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        kind.unwrap_or_else(|| panic!("{door}: untyped reply {line:?}")).to_string()
    };
    let mut got: Vec<String> = replies.iter().map(outcome).collect();
    let mut want: Vec<String> =
        table().into_iter().filter_map(|(_, o)| o.map(str::to_string)).collect();
    got.sort();
    want.sort();
    assert_eq!(got, want, "{door}: outcomes differ from the table");
}
