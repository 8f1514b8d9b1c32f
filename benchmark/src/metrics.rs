//! The fixed vocabulary: every metric the benchmark reports, by name, with
//! its unit and direction. `BENCHMARK.json` lists exactly these (a unit
//! test holds the two together).

use crate::replay::CORE_PASSES;
use crate::run::ERROR_KINDS;

/// Definition of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (requests, spans, set-ups…) the value was computed from.
    pub samples: u64,
}

/// Bound for the exact, host-time-free metrics: they repeat bit for bit,
/// so any change at all exceeds it.
pub const EXACT: f64 = 1e-9;

/// The end-to-end metrics, the same on every workload.
pub fn end_to_end() -> Vec<Def> {
    let def = |name: &str, unit, better, bound| Def {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        def("throughput_ops_s", "requests/s", "higher", 0.25),
        def("latency_p50_ms", "ms", "lower", 0.25),
        def("setup_s", "s", "lower", 0.25),
        def("peak_rss_mb", "MiB", "lower", 0.15),
        def("model_cycles_total", "cycles", "lower", EXACT),
        def("model_speedup_w8", "x", "higher", EXACT),
        def("code_static_insts_total", "insts", "lower", EXACT),
        def("code_regs_total", "regs", "lower", EXACT),
    ]
}

/// The per-layer metrics of the traced run (layer = crate name).
pub fn per_layer() -> Vec<Def> {
    let mut out: Vec<Def> = Vec::new();
    let mut def = |name: &str, unit: &'static str, better: &'static str| {
        out.push(Def {
            name: name.to_string(),
            unit,
            better,
            bound: None,
        });
    };
    def("serve.json_parse_us", "us", "lower");
    def("serve.parse_request_us", "us", "lower");
    def("serve.reply_encode_us", "us", "lower");
    def("serve.request_bytes", "bytes", "lower");
    def("serve.reply_bytes", "bytes", "lower");
    def("serve.inproc_roundtrip_us_p50", "us", "lower");
    def("serve.queue_handoff_us_p50", "us", "lower");
    def("serve.transport_us_p50", "us", "lower");
    def("serve.latency_tail_ms", "ms", "lower");
    def("serve.latency_tail_pct", "%", "higher");
    def("serve.latency_max_ms", "ms", "lower");
    def("serve.latency_samples", "count", "higher");
    for kind in ERROR_KINDS {
        def(&format!("serve.errors_by_kind.{kind}"), "count", "lower");
    }
    def("serve.pool_restarts", "count", "lower");
    def("serve.pool_retries", "count", "lower");
    def("serve.pool_shard0_share", "ratio", "lower");
    def("workloads.build_us", "us", "lower");
    def("ir.lower_us", "us", "lower");
    def("ir.interp_us", "us", "lower");
    def("ir.insts_after_lower", "insts", "lower");
    def("opt.conventional_ms", "ms", "lower");
    def("opt.insts_after", "insts", "lower");
    def("core.passes_ms", "ms", "lower");
    for pass in CORE_PASSES {
        def(&format!("core.pass.{pass}_ms"), "ms", "lower");
    }
    def("core.loops_unrolled", "count", "higher");
    def("core.defs_renamed", "count", "higher");
    def("core.combines", "count", "higher");
    def("core.strength_reductions", "count", "higher");
    def("core.trees_reduced", "count", "higher");
    def("core.accumulators_expanded", "count", "higher");
    def("core.inductions_expanded", "count", "higher");
    def("core.searches_expanded", "count", "higher");
    def("vec.slp_ms", "ms", "lower");
    def("vec.packs_formed", "count", "higher");
    def("vec.stmts_vectorized", "count", "higher");
    def("sched.superblock_ms", "ms", "lower");
    def("sched.list_ms", "ms", "lower");
    def("sched.superblock_merges", "count", "higher");
    def("sched.duplicated_insts", "insts", "lower");
    def("regalloc.measure_ms", "ms", "lower");
    def("regalloc.regs_mean", "regs", "lower");
    def("guard.overhead_ms", "ms", "lower");
    def("guard.verify_ms", "ms", "lower");
    def("guard.static_lints_ms", "ms", "lower");
    def("guard.differential_ms", "ms", "lower");
    def("guard.steps_attempted", "count", "lower");
    def("guard.incidents", "count", "lower");
    def("lint.module_ms", "ms", "lower");
    def("lint.audit_ms", "ms", "lower");
    def("lint.diags_total", "count", "lower");
    def("sim.decode_us", "us", "lower");
    def("sim.decoded_records", "count", "lower");
    def("sim.mem_init_us", "us", "lower");
    def("sim.simulate_ms", "ms", "lower");
    def("sim.mcycles_per_s", "Mcycles/s", "higher");
    def("sim.minsts_per_s", "Minsts/s", "higher");
    def("sim.ns_per_dyn_inst", "ns", "lower");
    def("sim.cycles_total", "cycles", "lower");
    def("sim.dyn_insts_total", "insts", "lower");
    def("mem.accesses_total", "count", "lower");
    def("mem.hits_total", "count", "higher");
    def("mem.misses_total", "count", "lower");
    def("mem.hit_rate", "ratio", "higher");
    def("mem.sim_ns_per_access", "ns", "lower");
    def("harness.verify_us", "us", "lower");
    def("harness.cache_compiles", "count", "lower");
    def("harness.cache_hits", "count", "higher");
    def("harness.cache_hit_share", "ratio", "higher");
    def("harness.sweep_inproc_t1_ms", "ms", "lower");
    def("harness.sweep_inproc_t2_ms", "ms", "lower");
    def("harness.parallel_efficiency", "ratio", "higher");
    def("harness.steals", "count", "lower");
    def("harness.stolen_items", "count", "lower");
    def("harness.points_per_s", "points/s", "higher");
    def("harness.residual_ms", "ms", "lower");
    def("trace.layer_sum_share", "ratio", "higher");
    def("trace.overhead_share", "ratio", "lower");
    def("trace.spans", "count", "lower");
    out
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_serve::{parse, Json};

    fn json_defs(list: &Json, with_bound: bool) -> Vec<Def> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
                Def {
                    name: text("name"),
                    unit: leak(text("unit")),
                    better: leak(text("better")),
                    bound: with_bound.then(|| m.get("bound").and_then(Json::as_f64).unwrap()),
                }
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_of_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            json_defs(file.get("end_to_end").unwrap(), true),
            end_to_end()
        );
        assert_eq!(
            json_defs(file.get("per_layer").unwrap(), false),
            per_layer()
        );
        let workloads: Vec<(String, String)> = file
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let text = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (text("name"), text("why"))
            })
            .collect();
        let specs: Vec<(String, String)> = crate::workload::SPECS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, specs);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        for d in &all {
            assert!(ok_name(&d.name), "{}", d.name);
            assert!(ok_unit(d.unit), "{} {}", d.name, d.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are used once");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(end_to_end()
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        assert!(crate::workload::SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && ok_name(s.name)));
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Metric {
                name: "latency_p50_ms".into(),
                value: 1.25,
                unit: "ms",
                samples: 10,
            }],
        );
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
