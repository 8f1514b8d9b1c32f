//! The `ilpc-serve` wire protocol: JSON-lines requests and replies.
//!
//! One request object per line. Every request carries a caller-chosen
//! `id` that is echoed verbatim in the reply, so clients can pipeline
//! requests and match replies out of order:
//!
//! ```text
//! {"id":1,"op":"compile","workload":"dotprod","level":"Lev4","width":8}
//! {"id":1,"op":"compile","workload":"dotprod","level":"Lev6","width":8,"vlen":4}
//! {"id":2,"op":"simulate","workload":"add","level":"Lev2","width":4,
//!  "mem":{"kind":"cache","line_words":4,"sets":16,"ways":2,
//!         "load_miss":30,"store_miss":30}}
//! {"id":3,"op":"sweep","scale":0.02,"levels":["Conv","Lev2"],
//!  "widths":[1,8],"mems":[{"kind":"perfect"},{"kind":"cache","sets":16}]}
//! {"id":4,"op":"batch","requests":[{...},{...}]}
//! {"id":5,"op":"ping"}
//! {"id":6,"op":"status"}
//! ```
//!
//! A key the op does not read (`"mems"` on a `simulate`, `"scael"`) is a
//! `bad-request` naming it, in a batch's sub-requests too: a misspelt
//! field must not be served as if it had been left out.
//!
//! `ping` and `status` are answered immediately without queue admission
//! (a health probe must not bounce off a full queue); the pool front end
//! (`--pool N`) answers them itself with per-shard supervision state.
//!
//! Replies are `{"id":…,"ok":true,"result":{…}}` or
//! `{"id":…,"ok":false,"error":{"kind":"<kind>","detail":"…"}}` with one
//! of the typed kinds in [`ErrorKind`]. A request the server cannot even
//! parse is answered with `id: null` and `kind: "bad-request"` — the
//! process never exits on bad input.

use crate::json::{obj, parse, Json};
use crate::wire::MAX_LINE_BYTES;
use ilpc_core::level::Level;
use ilpc_guard::IncidentRecord;
use ilpc_harness::grid::{Sabotage, SabotageMode};
use ilpc_machine::{CacheParams, MemConfig};
use std::fmt;

/// Typed error taxonomy of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON, or not a valid request shape.
    BadRequest,
    /// The bounded queue is full; retry later (backpressure, never OOM).
    Overloaded,
    /// The evaluation itself failed (differential mismatch, budget,
    /// contained panic) — reported per request, the server keeps serving.
    EvalFailed,
    /// A structurally valid request with rejected semantics (unknown
    /// workload/level, invalid grid axes, bad scale).
    BadConfig,
    /// A contained internal failure (a panic inside the handler).
    Internal,
    /// The request's per-request deadline expired before a worker shard
    /// produced a reply (pool mode). The evaluation may still be running
    /// or its shard may have been reaped — the *reply* is authoritative:
    /// exactly one per request, and this one says "gave up waiting".
    Timeout,
    /// No shard could complete the request: every attempt landed on a
    /// worker that died, or all shards are circuit-open (pool mode).
    Unavailable,
}

impl ErrorKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::EvalFailed => "eval-failed",
            ErrorKind::BadConfig => "bad-config",
            ErrorKind::Internal => "internal",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Unavailable => "unavailable",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed request error: kind plus human-readable detail.
pub type ReqError = (ErrorKind, String);

fn bad(detail: impl Into<String>) -> ReqError {
    (ErrorKind::BadRequest, detail.into())
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Echoed verbatim in the reply (`null` if absent).
    pub id: Json,
    pub op: Op,
}

/// Request operations.
#[derive(Debug, Clone)]
pub enum Op {
    /// Compile one (workload, level, width) point under the guard and
    /// report achieved level + typed incidents. With `lint`, the reply
    /// also carries the `ilpc-lint` audit of the compiled artifact.
    Compile { workload: String, level: Level, width: u32, vlen: u32, scale: f64, lint: bool },
    /// Compile + simulate + differentially verify one point.
    Simulate { workload: String, level: Level, width: u32, vlen: u32, scale: f64, mem: MemConfig },
    /// Multi-scenario sweep over the whole catalog on the work-stealing
    /// pool (see `ilpc_harness::sweep`).
    Sweep {
        scale: f64,
        levels: Vec<Level>,
        widths: Vec<u32>,
        mems: Vec<MemConfig>,
        sabotage: Option<Sabotage>,
    },
    /// Several requests executed as one job; replies come back as one
    /// array in submission order.
    Batch(Vec<Request>),
    /// Health probe: answered immediately, *bypassing* the bounded queue,
    /// so a busy-but-alive process still pongs. The pool supervisor
    /// drives its hang detection off this op.
    Ping,
    /// Service introspection: queue depth and worker count for a single
    /// process; per-shard supervision state when answered by a pool.
    Status,
}

impl Request {
    /// Whether re-executing this request is observably identical to
    /// executing it once. Every current op is a pure evaluation (compile,
    /// simulate, sweep and their batches mutate nothing but caches), so
    /// the pool may re-dispatch it after a worker crash. Any future
    /// mutating op must return `false` here to opt out of retry.
    pub fn is_idempotent(&self) -> bool {
        match &self.op {
            Op::Compile { .. } | Op::Simulate { .. } | Op::Sweep { .. } => true,
            Op::Ping | Op::Status => true,
            Op::Batch(reqs) => reqs.iter().all(Request::is_idempotent),
        }
    }
}

/// Parse one request line (already validated as JSON by the caller).
pub fn parse_request(v: &Json) -> Result<Request, ReqError> {
    parse_request_inner(v, false)
}

fn parse_request_inner(v: &Json, in_batch: bool) -> Result<Request, ReqError> {
    let id = v.get("id").cloned().unwrap_or(Json::Null);
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string \"op\""))?;
    let op = match op {
        "compile" => {
            let known = ["id", "op", "workload", "level", "width", "vlen", "scale", "lint"];
            known_keys(v, "request", &known)?;
            let (workload, level, width, vlen, scale) = point_fields(v)?;
            let lint = match v.get("lint") {
                None => false,
                Some(l) => l
                    .as_bool()
                    .ok_or_else(|| bad("\"lint\" must be a boolean"))?,
            };
            Op::Compile { workload, level, width, vlen, scale, lint }
        }
        "simulate" => {
            let known = ["id", "op", "workload", "level", "width", "vlen", "scale", "mem"];
            known_keys(v, "request", &known)?;
            let (workload, level, width, vlen, scale) = point_fields(v)?;
            let mem = match v.get("mem") {
                None => MemConfig::Perfect,
                Some(m) => parse_mem(m)?,
            };
            Op::Simulate { workload, level, width, vlen, scale, mem }
        }
        "sweep" => {
            let known = ["id", "op", "scale", "levels", "widths", "mems", "sabotage"];
            known_keys(v, "request", &known)?;
            let scale = opt_f64(v, "scale")?.unwrap_or(0.05);
            let levels = match v.get("levels") {
                None => Level::ALL.to_vec(),
                Some(l) => l
                    .as_arr()
                    .ok_or_else(|| bad("\"levels\" must be an array"))?
                    .iter()
                    .map(parse_level)
                    .collect::<Result<_, _>>()?,
            };
            let widths = match v.get("widths") {
                None => vec![1, 8],
                Some(w) => w
                    .as_arr()
                    .ok_or_else(|| bad("\"widths\" must be an array"))?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(|| bad("widths must be non-negative integers"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            let mems = match v.get("mems") {
                None => vec![MemConfig::Perfect],
                Some(m) => m
                    .as_arr()
                    .ok_or_else(|| bad("\"mems\" must be an array"))?
                    .iter()
                    .map(parse_mem)
                    .collect::<Result<_, _>>()?,
            };
            let sabotage = match v.get("sabotage") {
                None => None,
                Some(s) => Some(parse_sabotage(s)?),
            };
            Op::Sweep { scale, levels, widths, mems, sabotage }
        }
        "ping" => {
            known_keys(v, "request", &["id", "op"])?;
            Op::Ping
        }
        "status" => {
            known_keys(v, "request", &["id", "op"])?;
            Op::Status
        }
        "batch" => {
            known_keys(v, "request", &["id", "op", "requests"])?;
            if in_batch {
                return Err(bad("nested \"batch\" requests are not allowed"));
            }
            let reqs = v
                .get("requests")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("\"batch\" needs a \"requests\" array"))?;
            if reqs.is_empty() {
                return Err(bad("\"batch\" with no requests"));
            }
            let parsed = reqs
                .iter()
                .map(|r| parse_request_inner(r, true))
                .collect::<Result<Vec<_>, _>>()?;
            Op::Batch(parsed)
        }
        other => return Err(bad(format!("unknown op {other:?}"))),
    };
    Ok(Request { id, op })
}

fn point_fields(v: &Json) -> Result<(String, Level, u32, u32, f64), ReqError> {
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string \"workload\""))?
        .to_string();
    let level = parse_level(
        v.get("level").ok_or_else(|| bad("missing \"level\""))?,
    )?;
    let width = v
        .get("width")
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| bad("missing or invalid \"width\""))?;
    if width == 0 {
        // `Machine::issue` would clamp it to 1 under a key of its own, as
        // `sweep` refuses for the same reason (`GridConfigError::ZeroWidth`).
        return Err(bad("width 0 is invalid (it would alias the base width 1)"));
    }
    // Optional vector length for Lev6 points (1 = scalar machine; the
    // SLP pass itself clamps to the IR's MAX_VLEN).
    let vlen = match v.get("vlen") {
        None => 1,
        Some(n) => n
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| bad("\"vlen\" must be a positive integer"))?,
    };
    let scale = opt_f64(v, "scale")?.unwrap_or(0.05);
    Ok((workload, level, width, vlen, scale))
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, ReqError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_f64()
            .map(Some)
            .ok_or_else(|| bad(format!("\"{key}\" must be a number"))),
    }
}

fn parse_level(v: &Json) -> Result<Level, ReqError> {
    let s = v.as_str().ok_or_else(|| bad("level must be a string"))?;
    Level::from_name(s)
        .ok_or_else(|| bad(format!("unknown level {s:?} (Conv, Lev1..Lev4, Lev6)")))
}

/// Largest cache a request may describe, in lines (`sets × ways`): a
/// thousand times the 1 024 lines of the largest geometry any harness
/// binary, test or ledger workload builds. The geometry is client input
/// and the model allocates one record per line — an unbounded one asks
/// the allocator for gigabytes, which aborts the process where no
/// `catch_unwind` can answer for it.
pub const MAX_CACHE_LINES: u32 = 1 << 20;

/// Largest `line_words` a request may ask for.
pub const MAX_CACHE_LINE_WORDS: u32 = 1 << 10;

/// Reject a key of object `v` that is not in `known`: a misspelt or
/// unsupported field must not be served as if it had been left out.
fn known_keys(v: &Json, what: &str, known: &[&str]) -> Result<(), ReqError> {
    let Json::Obj(fields) = v else { return Ok(()) };
    match fields.keys().find(|k| !known.contains(&k.as_str())) {
        Some(k) => Err(bad(format!("unknown {what} key {k:?}"))),
        None => Ok(()),
    }
}

fn parse_mem(v: &Json) -> Result<MemConfig, ReqError> {
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("mem config needs a \"kind\""))?;
    match kind {
        "perfect" => {
            known_keys(v, "mem", &["kind"])?;
            Ok(MemConfig::Perfect)
        }
        "cache" => {
            known_keys(
                v,
                "mem",
                &["kind", "line_words", "sets", "ways", "load_miss", "store_miss"],
            )?;
            let field = |key: &str, default: u32| -> Result<u32, ReqError> {
                match v.get(key) {
                    None => Ok(default),
                    Some(x) => x
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| bad(format!("cache \"{key}\" must be an integer"))),
                }
            };
            let (line_words, sets, ways) =
                (field("line_words", 4)?, field("sets", 16)?, field("ways", 2)?);
            // `max(1)`, as the model clamps: a zero must not hide its factor.
            let lines = u64::from(sets.max(1)) * u64::from(ways.max(1));
            if line_words > MAX_CACHE_LINE_WORDS || lines > u64::from(MAX_CACHE_LINES) {
                return Err((
                    ErrorKind::BadConfig,
                    format!(
                        "cache {line_words}x{sets}x{ways} out of range: line_words <= \
                         {MAX_CACHE_LINE_WORDS}, sets x ways <= {MAX_CACHE_LINES}"
                    ),
                ));
            }
            Ok(MemConfig::Cache(CacheParams::new(
                line_words,
                sets,
                ways,
                field("load_miss", 30)?,
                field("store_miss", 30)?,
            )))
        }
        other => Err(bad(format!("unknown mem kind {other:?}"))),
    }
}

fn parse_sabotage(v: &Json) -> Result<Sabotage, ReqError> {
    known_keys(v, "sabotage", &["workload", "level", "width", "mode"])?;
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("sabotage needs \"workload\""))?
        .to_string();
    let level = parse_level(v.get("level").ok_or_else(|| bad("sabotage needs \"level\""))?)?;
    let width = v
        .get("width")
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| bad("sabotage needs an integer \"width\""))?;
    let mode = match v.get("mode").and_then(Json::as_str) {
        None | Some("panic") => SabotageMode::Panic,
        Some("corrupt") => SabotageMode::Corrupt,
        Some(other) => return Err(bad(format!("unknown sabotage mode {other:?}"))),
    };
    Ok(Sabotage { workload, level, width, mode })
}

/// What one raw input line turns into before anything is queued.
pub(crate) enum Admission {
    /// A blank line: no request, no reply.
    Blank,
    /// Answered on the spot: a typed rejection, or a `ping`'s pong.
    Reply(String),
    /// A well-formed request, with the JSON it was parsed from (the pool
    /// re-serializes that, id rewritten, for its workers).
    Request(Request, Json),
}

/// The one admission point: every front end hands its raw lines here, so
/// garbage is rejected with the same typed reply whichever door it came
/// through. `ping` is answered here as well — a health probe must work
/// with a full queue and with every shard down.
pub(crate) fn admit(line: &str) -> Admission {
    let line = line.trim();
    if line.is_empty() {
        return Admission::Blank;
    }
    let parsed = match parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Admission::Reply(err_reply(
                &Json::Null,
                ErrorKind::BadRequest,
                &format!("invalid JSON: {e}"),
            ))
        }
    };
    match parse_request(&parsed) {
        Ok(Request { id, op: Op::Ping }) => Admission::Reply(ok_reply(&id, pong())),
        Ok(req) => Admission::Request(req, parsed),
        Err((kind, detail)) => {
            let id = parsed.get("id").unwrap_or(&Json::Null);
            Admission::Reply(err_reply(id, kind, &detail))
        }
    }
}

/// The reply to a line past [`MAX_LINE_BYTES`] (its id was never read).
pub(crate) fn oversized_reply() -> String {
    err_reply(
        &Json::Null,
        ErrorKind::BadRequest,
        &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
    )
}

/// Result of a `ping`.
pub(crate) fn pong() -> Json {
    obj([("pong", Json::Bool(true))])
}

/// Wire shape of one guard or shard incident.
pub(crate) fn incident_json(r: &IncidentRecord) -> Json {
    obj([
        ("step", Json::num(r.step as f64)),
        ("pass", Json::str(r.pass.as_str())),
        ("kind", Json::str(r.kind.as_str())),
        ("detail", Json::str(r.detail.as_str())),
    ])
}

/// Success reply object.
pub(crate) fn ok_json(id: &Json, result: Json) -> Json {
    obj([("id", id.clone()), ("ok", Json::Bool(true)), ("result", result)])
}

/// Typed error reply object.
pub(crate) fn err_json(id: &Json, kind: ErrorKind, detail: &str) -> Json {
    obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        (
            "error",
            obj([("kind", Json::str(kind.name())), ("detail", Json::str(detail))]),
        ),
    ])
}

/// Success reply line.
pub fn ok_reply(id: &Json, result: Json) -> String {
    ok_json(id, result).to_string()
}

/// Typed error reply line.
pub fn err_reply(id: &Json, kind: ErrorKind, detail: &str) -> String {
    err_json(id, kind, detail).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_ops_and_batch() {
        let r = parse_request(
            &parse(r#"{"id":1,"op":"compile","workload":"dotprod","level":"Lev4","width":8}"#)
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(r.op, Op::Compile { ref workload, level: Level::Lev4, width: 8, vlen: 1, .. }
            if workload == "dotprod"));

        let r = parse_request(
            &parse(r#"{"id":2,"op":"compile","workload":"dotprod","level":"Lev6","width":8,"vlen":4}"#)
                .unwrap(),
        )
        .unwrap();
        assert!(matches!(r.op, Op::Compile { level: Level::Lev6, width: 8, vlen: 4, .. }));

        let r = parse_request(
            &parse(
                r#"{"op":"simulate","workload":"add","level":"conv","width":1,
                   "mem":{"kind":"cache","sets":8}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(r.id, Json::Null);
        assert!(matches!(r.op, Op::Simulate { level: Level::Conv, mem: MemConfig::Cache(_), .. }));

        let r = parse_request(
            &parse(
                r#"{"id":"s","op":"sweep","scale":0.02,"levels":["Conv","Lev2"],
                   "widths":[1,8],"mems":[{"kind":"perfect"}],
                   "sabotage":{"workload":"add","level":"Lev2","width":8}}"#,
            )
            .unwrap(),
        )
        .unwrap();
        match r.op {
            Op::Sweep { scale, levels, widths, mems, sabotage } => {
                assert_eq!(scale, 0.02);
                assert_eq!(levels, vec![Level::Conv, Level::Lev2]);
                assert_eq!(widths, vec![1, 8]);
                assert_eq!(mems.len(), 1);
                assert_eq!(sabotage.unwrap().mode, SabotageMode::Panic);
            }
            other => panic!("{other:?}"),
        }

        let r = parse_request(
            &parse(
                r#"{"id":9,"op":"batch","requests":[
                    {"id":"a","op":"compile","workload":"add","level":"Conv","width":1},
                    {"id":"b","op":"compile","workload":"add","level":"Lev2","width":8}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(matches!(r.op, Op::Batch(ref v) if v.len() == 2));
    }

    #[test]
    fn ping_and_status_parse_and_are_idempotent() {
        let r = parse_request(&parse(r#"{"id":"p","op":"ping"}"#).unwrap()).unwrap();
        assert!(matches!(r.op, Op::Ping));
        assert!(r.is_idempotent());
        let r = parse_request(&parse(r#"{"op":"status"}"#).unwrap()).unwrap();
        assert!(matches!(r.op, Op::Status));
        // A batch of pure evaluations is idempotent as a whole — the
        // property the pool's crash-retry rule keys on.
        let r = parse_request(
            &parse(
                r#"{"op":"batch","requests":[{"op":"ping"},
                    {"op":"compile","workload":"add","level":"Conv","width":1}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(r.is_idempotent());
    }

    #[test]
    fn pool_error_kinds_have_stable_names() {
        assert_eq!(ErrorKind::Timeout.name(), "timeout");
        assert_eq!(ErrorKind::Unavailable.name(), "unavailable");
    }

    #[test]
    fn typed_rejections() {
        for (line, needle) in [
            (r#"{"id":1}"#, "op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"compile","workload":"add","level":"Lev9","width":8}"#, "unknown level"),
            (r#"{"op":"compile","workload":"add","level":"Lev2"}"#, "width"),
            (r#"{"op":"simulate","workload":"add","level":"Lev2","width":0}"#, "width 0"),
            (r#"{"op":"compile","workload":"add","level":"Lev6","width":8,"vlen":0}"#, "vlen"),
            (r#"{"op":"compile","level":"Lev2","width":8}"#, "workload"),
            (r#"{"op":"sweep","mems":[{"kind":"quantum"}]}"#, "mem kind"),
            (
                r#"{"op":"simulate","workload":"add","level":"Lev2","width":4,
                    "mem":{"kind":"cache","miss_latency":99}}"#,
                "unknown mem key \"miss_latency\"",
            ),
            (r#"{"op":"sweep","mems":[{"kind":"perfect","sets":16}]}"#, "unknown mem key \"sets\""),
            (
                r#"{"op":"sweep","sabotage":{"workload":"add","level":"Lev2","width":8,
                    "modes":"corrupt"}}"#,
                "unknown sabotage key \"modes\"",
            ),
            (r#"{"op":"sweep","widths":[1,-8]}"#, "widths"),
            (r#"{"op":"batch","requests":[]}"#, "no requests"),
            (
                r#"{"op":"batch","requests":[{"op":"batch","requests":[
                    {"op":"compile","workload":"a","level":"Conv","width":1}]}]}"#,
                "nested",
            ),
        ] {
            let (kind, detail) = parse_request(&parse(line).unwrap()).unwrap_err();
            assert_eq!(kind, ErrorKind::BadRequest, "{line}");
            assert!(detail.contains(needle), "{line}: {detail}");
        }
    }

    /// A key outside its op's list is rejected by name, one misspelling
    /// per op and one inside a batch; the request shapes the ledger sends
    /// (`benchmark/src/workload.rs`) still parse.
    #[test]
    fn unknown_request_keys_are_rejected() {
        let point = r#""workload":"add","level":"Lev2","width":4"#;
        let sim = format!(r#""op":"simulate",{point}"#);
        for (line, key) in [
            (format!(r#"{{"op":"compile",{point},"lnit":true}}"#), "lnit"),
            (format!(r#"{{{sim},"mems":[{{"kind":"perfect"}}]}}"#), "mems"),
            (r#"{"op":"sweep","scael":1.0}"#.to_string(), "scael"),
            (r#"{"op":"ping","ids":1}"#.to_string(), "ids"),
            (r#"{"op":"status","verbose":true}"#.to_string(), "verbose"),
            (format!(r#"{{"op":"batch","requests":[{{{sim}}}],"deadline":9}}"#), "deadline"),
            (format!(r#"{{"op":"batch","requests":[{{{sim},"scael":1.0}}]}}"#), "scael"),
        ] {
            let (kind, detail) = parse_request(&parse(&line).unwrap()).unwrap_err();
            assert_eq!(kind, ErrorKind::BadRequest, "{line}");
            assert_eq!(detail, format!("unknown request key {key:?}"), "{line}");
        }

        let levels = r#""levels":["Conv","Lev1","Lev2","Lev3","Lev4","Lev6"]"#;
        let mems = r#""mems":[{"kind":"perfect"}]"#;
        let cache = r#""kind":"cache","line_words":4,"sets":16,"ways":2,"load_miss":30"#;
        let sub = format!(r#"{{"id":0,{sim},"scale":0.05}}"#);
        for line in [
            format!(r#"{{"id":1,"op":"sweep","scale":1,{levels},"widths":[1,8],{mems}}}"#),
            format!(r#"{{"id":2,{sim},"vlen":4,"scale":4,"mem":{{{cache},"store_miss":30}}}}"#),
            format!(r#"{{"id":3,"op":"compile",{point},"scale":0.25,"lint":true}}"#),
            format!(r#"{{"id":4,"op":"batch","requests":[{sub}]}}"#),
        ] {
            parse_request(&parse(&line).unwrap()).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }

    #[test]
    fn replies_are_single_parseable_lines() {
        let ok = ok_reply(&Json::num(3.0), obj([("cycles", Json::num(12.0))]));
        assert!(!ok.contains('\n'));
        let v = parse(&ok).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("result").and_then(|r| r.get("cycles")), Some(&Json::Num(12.0)));

        let err = err_reply(&Json::Null, ErrorKind::Overloaded, "queue full (4 jobs)");
        let v = parse(&err).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("overloaded")
        );
    }
}
