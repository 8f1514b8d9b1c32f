//! The correctness gate: what every reply must say.
//!
//! Expected answers come from an in-process
//! [`ArtifactCache::evaluate`](ilpc_harness::ArtifactCache::evaluate) of
//! each point — itself differentially verified against the AST
//! interpreter — never from the server under test. Every reply is parsed
//! and held against them; a reply that is an error, echoes the wrong id,
//! or differs in any modelled number is a failed request.

use crate::workload::{Point, Spec};
use ilpc_core::level::Level;
use ilpc_harness::{ArtifactCache, EvalPoint};
use ilpc_serve::{parse, Json};

/// The exact, host-time-free answers of one workload's point set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelTotals {
    /// Σ simulated cycles over the point set.
    pub cycles_total: u64,
    /// Mean over loops (and memory configurations) of
    /// cycles(Conv, issue-1) ÷ cycles(Lev6, issue-8).
    pub speedup_w8: f64,
    /// Σ static instructions of the compiled code over the point set.
    pub static_insts_total: u64,
    /// Σ registers used by the compiled code over the point set.
    pub regs_total: u64,
}

/// Totals of per-point `(cycles, static_insts, regs)` in `points` order.
pub fn model_totals(points: &[Point], answers: &[(u64, u64, u64)]) -> ModelTotals {
    assert_eq!(points.len(), answers.len());
    // Points are memory-major, then 12 per loop: level-major, width-minor.
    let per_loop = Level::ALL.len() * crate::workload::WIDTHS.len();
    let mut speedups = 0.0;
    let mut loops = 0usize;
    for (pts, ans) in points.chunks(per_loop).zip(answers.chunks(per_loop)) {
        let at = |level: Level, width: u32| {
            let k = pts
                .iter()
                .position(|p| p.level == level && p.width == width);
            ans[k.expect("every loop has every (level, width)")].0 as f64
        };
        speedups += at(Level::Conv, 1) / at(Level::Lev6, 8);
        loops += 1;
    }
    ModelTotals {
        cycles_total: answers.iter().map(|a| a.0).sum(),
        speedup_w8: speedups / loops as f64,
        static_insts_total: answers.iter().map(|a| a.1).sum(),
        regs_total: answers.iter().map(|a| a.2).sum(),
    }
}

/// Expected answers for a workload: one [`EvalPoint`] per point.
pub struct Reference {
    pub points: Vec<Point>,
    pub evals: Vec<EvalPoint>,
}

impl Reference {
    /// Evaluate every point of `spec` in-process (two threads: the host's
    /// two cores, and nothing else is running yet).
    pub fn compute(spec: &Spec) -> Result<Reference, String> {
        let points = spec.points();
        let workloads = ilpc_workloads::build_all(spec.scale);
        let cache = ArtifactCache::new();
        let (results, _) = ilpc_harness::steal::execute(&points, 2, |_, p| {
            cache.evaluate(&workloads[p.loop_idx], p.level, &p.machine())
        });
        let evals = results
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("in-process reference evaluation failed: {e}"))?;
        Ok(Reference { points, evals })
    }

    pub fn totals(&self) -> ModelTotals {
        let answers: Vec<_> = self
            .evals
            .iter()
            .map(|e| (e.cycles, e.static_insts as u64, u64::from(e.regs.total())))
            .collect();
        model_totals(&self.points, &answers)
    }
}

fn field<'a>(v: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("reply lacks \"{}\"", path.join(".")))?;
    }
    Ok(cur)
}

fn num(v: &Json, path: &[&str]) -> Result<u64, String> {
    field(v, path)?
        .as_u64()
        .ok_or_else(|| format!("\"{}\" is not a whole number", path.join(".")))
}

fn want(what: &str, got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what} = {got}, expected {expected}"))
    }
}

/// The wire name of a failed reply's error kind, for the per-kind counts.
pub fn error_kind(reply: &str) -> Option<String> {
    let v = parse(reply.trim()).ok()?;
    Some(v.get("error")?.get("kind")?.as_str()?.to_string())
}

/// Parse a reply line, check the envelope (`id` echoed, `ok: true`) and
/// return its `result`.
pub fn ok_result(reply: &str, id: u64) -> Result<Json, String> {
    let v = parse(reply.trim()).map_err(|e| format!("reply is not JSON: {e}"))?;
    if field(&v, &["id"])?.as_u64() != Some(id) {
        return Err(format!(
            "reply echoes id {}, sent {id}",
            field(&v, &["id"])?
        ));
    }
    if field(&v, &["ok"])?.as_bool() != Some(true) {
        return Err(format!(
            "error reply: {}",
            v.get("error").unwrap_or(&Json::Null)
        ));
    }
    field(&v, &["result"]).cloned()
}

/// A `simulate` result must equal the reference in every modelled number.
pub fn check_simulate(result: &Json, p: &Point, e: &EvalPoint) -> Result<(), String> {
    if field(result, &["workload"])?.as_str() != Some(p.name) {
        return Err(format!("reply is for another workload than {}", p.name));
    }
    want("cycles", num(result, &["cycles"])?, e.cycles)?;
    want("dyn_insts", num(result, &["dyn_insts"])?, e.dyn_insts)?;
    want(
        "static_insts",
        num(result, &["static_insts"])?,
        e.static_insts as u64,
    )?;
    want("regs", num(result, &["regs"])?, u64::from(e.regs.total()))?;
    want(
        "mem.accesses",
        num(result, &["mem", "accesses"])?,
        e.mem.accesses(),
    )?;
    want("mem.hits", num(result, &["mem", "hits"])?, e.mem.hits())?;
    want(
        "mem.misses",
        num(result, &["mem", "misses"])?,
        e.mem.misses(),
    )
}

/// A `compile` result must be clean, reach the requested level, and
/// produce the reference's code size and register count.
pub fn check_compile(result: &Json, p: &Point, e: &EvalPoint) -> Result<(), String> {
    want(
        "static_insts",
        num(result, &["static_insts"])?,
        e.static_insts as u64,
    )?;
    want("regs", num(result, &["regs"])?, u64::from(e.regs.total()))?;
    if field(result, &["clean"])?.as_bool() != Some(true) {
        return Err("compile was not clean".to_string());
    }
    if field(result, &["incidents"])?.as_arr().map(<[Json]>::len) != Some(0) {
        return Err(format!(
            "guard incidents: {}",
            field(result, &["incidents"])?
        ));
    }
    if field(result, &["achieved"])?.as_str() != Some(p.level.name()) {
        return Err(format!(
            "achieved {} instead of {}",
            field(result, &["achieved"])?,
            p.level
        ));
    }
    match (p.lint, result.get("lint")) {
        (true, Some(_)) => want("lint.errors", num(result, &["lint", "errors"])?, 0),
        (true, None) => Err("lint audit requested but missing".to_string()),
        (false, Some(_)) => Err("lint audit present but not requested".to_string()),
        (false, None) => Ok(()),
    }
}

/// A cold `sweep` result: all 480 points completed, none failed, nothing
/// was cached, and the mean speedup is the reference's.
pub fn check_sweep(result: &Json, totals: &ModelTotals, points: usize) -> Result<(), String> {
    let scenarios = field(result, &["scenarios"])?.as_arr().unwrap_or(&[]);
    let [s] = scenarios else {
        return Err(format!(
            "{} scenarios in the reply, expected 1",
            scenarios.len()
        ));
    };
    want("completed", num(s, &["completed"])?, points as u64)?;
    if field(s, &["errors"])?.as_arr().map(<[Json]>::len) != Some(0) {
        return Err(format!("sweep errors: {}", field(s, &["errors"])?));
    }
    want(
        "mean_speedup.covered",
        num(s, &["mean_speedup", "covered"])?,
        40,
    )?;
    want(
        "mean_speedup.requested",
        num(s, &["mean_speedup", "requested"])?,
        40,
    )?;
    if field(s, &["mean_speedup", "level"])?.as_str() != Some("Lev6") {
        return Err("mean speedup is not at the top level".to_string());
    }
    want("mean_speedup.width", num(s, &["mean_speedup", "width"])?, 8)?;
    let value = field(s, &["mean_speedup", "value"])?
        .as_f64()
        .unwrap_or(f64::NAN);
    // A missing value is NaN, which must fail too.
    let off = (value - totals.speedup_w8).abs();
    if off.is_nan() || off > 1e-12 * totals.speedup_w8 {
        return Err(format!(
            "mean speedup {value}, expected {}",
            totals.speedup_w8
        ));
    }
    want(
        "cache.compiles",
        num(result, &["cache", "compiles"])?,
        points as u64,
    )?;
    want("cache.hits", num(result, &["cache", "hits"])?, 0)
}

/// The probe's `batch` result: sub-reply `k` answers point `k`. Returns
/// the model totals *as the replies state them*, plus one message per
/// sub-reply that failed its check.
pub fn check_probe(
    result: &Json,
    reference: &Reference,
) -> Result<(ModelTotals, Vec<String>), String> {
    let replies = field(result, &["replies"])?.as_arr().unwrap_or(&[]);
    if replies.len() != reference.points.len() {
        return Err(format!(
            "batch returned {} replies for {} requests",
            replies.len(),
            reference.points.len()
        ));
    }
    let mut answers = Vec::with_capacity(replies.len());
    let mut wrong = Vec::new();
    for (k, (reply, (p, e))) in replies
        .iter()
        .zip(reference.points.iter().zip(&reference.evals))
        .enumerate()
    {
        let checked = ok_result(&reply.to_string(), k as u64).and_then(|r| {
            check_simulate(&r, p, e)?;
            Ok((
                num(&r, &["cycles"])?,
                num(&r, &["static_insts"])?,
                num(&r, &["regs"])?,
            ))
        });
        match checked {
            Ok(a) => answers.push(a),
            Err(msg) => {
                wrong.push(format!(
                    "probe[{k}] {} {} w{}: {msg}",
                    p.name, p.level, p.width
                ));
                answers.push((e.cycles, e.static_insts as u64, u64::from(e.regs.total())));
            }
        }
    }
    Ok((model_totals(&reference.points, &answers), wrong))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    #[test]
    fn envelope_checks_id_and_ok() {
        assert!(ok_result(r#"{"id":3,"ok":true,"result":{"x":1}}"#, 3).is_ok());
        assert!(ok_result(r#"{"id":4,"ok":true,"result":{}}"#, 3)
            .unwrap_err()
            .contains("echoes id"));
        let err = r#"{"id":3,"ok":false,"error":{"kind":"overloaded","detail":"full"}}"#;
        assert!(ok_result(err, 3).unwrap_err().contains("overloaded"));
        assert_eq!(error_kind(err).as_deref(), Some("overloaded"));
        assert!(ok_result("not json", 3).is_err());
    }

    #[test]
    fn totals_sum_answers_and_average_speedups_per_loop_and_memory() {
        // pool_simulate_cachemem: 2 memory configurations × 40 loops.
        let points = SPECS[4].points();
        // cycles: 800 at (Conv, 1), 100 at (Lev6, 8) under the first
        // memory and 200 under the second, 400 elsewhere.
        let answers: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(k, p)| {
                let cycles = match (p.level, p.width) {
                    (Level::Conv, 1) => 800,
                    (Level::Lev6, 8) if k < 480 => 100,
                    (Level::Lev6, 8) => 200,
                    _ => 400,
                };
                (cycles, 10, 3)
            })
            .collect();
        let t = model_totals(&points, &answers);
        assert_eq!(t.speedup_w8, 6.0); // mean of 8× and 4×
        assert_eq!(t.static_insts_total, 9600);
        assert_eq!(t.regs_total, 2880);
        assert_eq!(
            t.cycles_total,
            40 * (800 + 100 + 10 * 400) + 40 * (800 + 200 + 10 * 400)
        );
    }
}
