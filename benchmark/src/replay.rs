//! The traced in-process replay.
//!
//! Each request line is performed as the explicit sequence of public
//! calls `ilpc-serve` makes for it — `json::parse` → `parse_request` →
//! `table2` + `build` → `lower` → each `passes(level)` entry's
//! `Pass::execute` → `form_superblocks` → `schedule_module` →
//! `regalloc::measure` → `decode` → `interpret` → `memory_from_init` →
//! `simulate_decoded` → `verify_against_reference` → `ok_reply` — with one
//! span recorded around each call and the layers' own reports read as work
//! counts at the same boundaries. The artifact cache is mirrored by a map
//! with the server's key, so hits and compiles are counted where they
//! happen. Every reply the replay produces is compared with the reply of
//! an in-process [`ilpc_serve::Server`] to the same line, so a replay that
//! drifts from the server's real call sequence fails the run.

use crate::trace::Recorder;
use ilpc_core::level::{passes, Level, TransformReport};
use ilpc_core::unroll::UnrollConfig;
use ilpc_guard::{Guard, GuardConfig};
use ilpc_harness::compile::workload_oracle;
use ilpc_harness::run::{cycle_budget, verify_against_reference};
use ilpc_harness::{Compiled, EvalPoint};
use ilpc_ir::interp::{interpret, ExecState};
use ilpc_ir::lower::lower;
use ilpc_machine::{Machine, MemConfig, TABLE1};
use ilpc_sched::{form_superblocks, schedule_module, SuperblockConfig};
use ilpc_serve::{err_reply, obj, ok_reply, parse, parse_request, ErrorKind, Json, Op};
use ilpc_sim::{decode, memory_from_init, simulate_decoded, DecodedProgram, SimLimits};
use ilpc_workloads::{build, build_all, table2, Workload};
use std::collections::HashMap;
use std::rc::Rc;

/// The 15 level-pipeline passes that belong to `ilpc-core` (everything in
/// `PASSES` but `conventional`, which is `ilpc-opt`, and the two `slp-*`
/// passes, which are `ilpc-vec`).
pub const CORE_PASSES: [&str; 15] = [
    "unroll",
    "post-unroll-cleanup",
    "rename",
    "rename-dce",
    "combine",
    "strength-reduce",
    "tree-height-reduce",
    "lev3-dce",
    "accumulator-expand",
    "induction-expand",
    "search-expand",
    "expand-dce",
    "re-combine",
    "re-tree-height-reduce",
    "lev4-dce",
];

/// Span name for a `PASSES` entry: its layer (crate) and pass.
pub fn pass_span(pass: &str) -> &'static str {
    match pass {
        "conventional" => "opt.conventional",
        "unroll" => "core.pass.unroll",
        "post-unroll-cleanup" => "core.pass.post-unroll-cleanup",
        "rename" => "core.pass.rename",
        "rename-dce" => "core.pass.rename-dce",
        "combine" => "core.pass.combine",
        "strength-reduce" => "core.pass.strength-reduce",
        "tree-height-reduce" => "core.pass.tree-height-reduce",
        "lev3-dce" => "core.pass.lev3-dce",
        "accumulator-expand" => "core.pass.accumulator-expand",
        "induction-expand" => "core.pass.induction-expand",
        "search-expand" => "core.pass.search-expand",
        "expand-dce" => "core.pass.expand-dce",
        "re-combine" => "core.pass.re-combine",
        "re-tree-height-reduce" => "core.pass.re-tree-height-reduce",
        "lev4-dce" => "core.pass.lev4-dce",
        "slp-vectorize" | "slp-dce" => "vec.slp",
        other => panic!("pass {other:?} is not in the benchmark's span table; add it"),
    }
}

/// Work counts read at the layer boundaries during a replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub requests: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub compiles: u64,
    pub insts_after_lower: u64,
    pub insts_after_conventional: u64,
    pub transforms: TransformReport,
    pub superblock_merges: u64,
    pub duplicated_insts: u64,
    pub regs_total: u64,
    pub guard_steps: u64,
    pub guard_incidents: u64,
    pub lint_diags: u64,
    pub decoded_records: u64,
    pub simulations: u64,
    pub cycles: u64,
    pub dyn_insts: u64,
    pub mem_accesses: u64,
    pub mem_hits: u64,
    pub mem_misses: u64,
    pub cache_compiles: u64,
    pub cache_hits: u64,
}

struct Artifact {
    compiled: Compiled,
    decoded: DecodedProgram,
}

/// One replaying "server": its mirrored caches, its recorder, its counts.
pub struct Replayer {
    pub rec: Recorder,
    pub counts: Counters,
    /// Mirrors `Engine::caches`: one artifact cache per trip-count scale,
    /// keyed like `ArtifactCache` (workload, level, compile-config hash).
    artifacts: HashMap<(u64, String, Level, u64), Rc<Artifact>>,
    references: HashMap<(u64, String), Rc<ExecState>>,
}

type Failure = (ErrorKind, String);

fn add(total: &mut TransformReport, r: &TransformReport) {
    total.loops_unrolled += r.loops_unrolled;
    total.unroll_factor_total += r.unroll_factor_total;
    total.defs_renamed += r.defs_renamed;
    total.combines += r.combines;
    total.strength_reductions += r.strength_reductions;
    total.trees_reduced += r.trees_reduced;
    total.accumulators_expanded += r.accumulators_expanded;
    total.inductions_expanded += r.inductions_expanded;
    total.searches_expanded += r.searches_expanded;
    total.packs_formed += r.packs_formed;
    total.stmts_vectorized += r.stmts_vectorized;
}

impl Replayer {
    pub fn new(traced: bool) -> Replayer {
        Replayer {
            rec: Recorder::new(traced),
            counts: Counters::default(),
            artifacts: HashMap::new(),
            references: HashMap::new(),
        }
    }

    /// A second replayer holding the same cached artifacts (shared, not
    /// recompiled) and nothing else.
    pub fn fork(&self) -> Replayer {
        Replayer {
            artifacts: self.artifacts.clone(),
            references: self.references.clone(),
            ..Replayer::new(false)
        }
    }

    /// Forget the spans and counts so far (the warm-up's), keep the caches.
    pub fn start_measuring(&mut self, traced: bool) {
        self.rec = Recorder::new(traced);
        self.counts = Counters::default();
    }

    /// Drop every cached artifact and reference execution: the next
    /// request meets the state of a freshly started server.
    pub fn forget_caches(&mut self) {
        self.artifacts.clear();
        self.references.clear();
    }

    /// Perform one request line and return its reply line — the mirror of
    /// `Server::submit_line` + `handle_job` without the queue.
    pub fn handle_line(&mut self, request_id: u32, line: &str) -> String {
        self.rec.begin_request(request_id);
        self.counts.requests += 1;
        self.counts.request_bytes += line.len() as u64 + 1;
        let parsed = match self.rec.span("serve.json_parse", || parse(line.trim())) {
            Ok(v) => v,
            Err(e) => {
                return err_reply(
                    &Json::Null,
                    ErrorKind::BadRequest,
                    &format!("invalid JSON: {e}"),
                )
            }
        };
        let req = match self
            .rec
            .span("serve.parse_request", || parse_request(&parsed))
        {
            Ok(r) => r,
            Err((kind, detail)) => {
                return err_reply(
                    &parsed.get("id").cloned().unwrap_or(Json::Null),
                    kind,
                    &detail,
                )
            }
        };
        let result = self.handle_op(&req.op);
        let open = self.rec.enter("serve.reply_encode");
        let reply = match result {
            Ok(result) => ok_reply(&req.id, result),
            Err((kind, detail)) => err_reply(&req.id, kind, &detail),
        };
        self.rec.exit(open);
        self.counts.reply_bytes += reply.len() as u64 + 1;
        reply
    }

    fn handle_op(&mut self, op: &Op) -> Result<Json, Failure> {
        match op {
            Op::Simulate {
                workload,
                level,
                width,
                vlen,
                scale,
                mem,
            } => {
                let w = self.find_workload(workload, *scale)?;
                let machine = Machine::issue(*width).with_mem(*mem).with_vlen(*vlen);
                let p = self
                    .evaluate(*scale, &w, *level, &machine)
                    .map_err(|e| (ErrorKind::EvalFailed, e))?;
                let open = self.rec.enter("serve.reply_encode");
                let result = simulate_result(workload, *level, *width, &p);
                self.rec.exit(open);
                Ok(result)
            }
            Op::Compile {
                workload,
                level,
                width,
                vlen,
                scale,
                lint,
            } => {
                let w = self.find_workload(workload, *scale)?;
                let machine = Machine::issue(*width).with_vlen(*vlen);
                Ok(self.compile_guarded(&w, *level, &machine, *lint))
            }
            Op::Sweep {
                scale,
                levels,
                widths,
                mems,
                ..
            } => self.sweep(*scale, levels, widths, mems),
            Op::Batch(reqs) => {
                let replies: Vec<Json> = reqs
                    .iter()
                    .map(|r| {
                        let line = match self.handle_op(&r.op) {
                            Ok(result) => ok_reply(&r.id, result),
                            Err((kind, detail)) => err_reply(&r.id, kind, &detail),
                        };
                        parse(&line).expect("replies are valid JSON")
                    })
                    .collect();
                Ok(obj([("replies", Json::Arr(replies))]))
            }
            Op::Ping => Ok(obj([("pong", Json::Bool(true))])),
            Op::Status => Err((ErrorKind::BadConfig, "status is not replayed".to_string())),
        }
    }

    /// `server::find_workload`: the catalog is rebuilt and the workload
    /// regenerated on every request.
    fn find_workload(&mut self, name: &str, scale: f64) -> Result<Workload, Failure> {
        self.rec
            .span("workloads.build", || {
                table2()
                    .into_iter()
                    .find(|m| m.name == name)
                    .map(|m| build(&m, scale))
            })
            .ok_or_else(|| {
                (
                    ErrorKind::BadConfig,
                    format!("unknown workload {name:?} (see Table 2)"),
                )
            })
    }

    /// `harness::compile`: lower → level pipeline → superblocks → list
    /// schedule → register measurement, one span per call.
    fn compile(&mut self, w: &Workload, level: Level, machine: &Machine) -> Compiled {
        let lowered = self.rec.span("ir.lower", || lower(&w.program));
        let mut module = lowered.module;
        self.counts.compiles += 1;
        self.counts.insts_after_lower += module.func.num_insts() as u64;
        let ucfg = UnrollConfig {
            vlen: machine.vlen,
            ..Default::default()
        };
        let mut report = TransformReport::default();
        for pass in passes(level) {
            self.rec.span(pass_span(pass.name), || {
                pass.execute(&mut module, &ucfg, &mut report)
            });
            if pass.name == "conventional" {
                self.counts.insts_after_conventional += module.func.num_insts() as u64;
            }
        }
        let superblocks = self.rec.span("sched.superblock", || {
            form_superblocks(&mut module, &SuperblockConfig::default())
        });
        let schedules = self
            .rec
            .span("sched.list", || schedule_module(&mut module, machine));
        let regs = self
            .rec
            .span("regalloc.measure", || ilpc_regalloc::measure(&module.func));
        add(&mut self.counts.transforms, &report);
        self.counts.superblock_merges += superblocks.merges as u64;
        self.counts.duplicated_insts += superblocks.duplicated_insts as u64;
        self.counts.regs_total += u64::from(regs.total());
        let static_insts = module.func.num_insts();
        Compiled {
            module,
            shadow: lowered.shadow_syms,
            report,
            superblocks,
            regs,
            static_insts,
            schedules,
        }
    }

    /// `ArtifactCache::evaluate` with the cache mirrored by two maps.
    fn evaluate(
        &mut self,
        scale: f64,
        w: &Workload,
        level: Level,
        machine: &Machine,
    ) -> Result<EvalPoint, String> {
        let open = self.rec.enter("harness.cache_lookup");
        let key = (
            scale.to_bits(),
            w.meta.name.to_string(),
            level,
            machine.compile_config_hash(),
        );
        let cached = self.artifacts.get(&key).cloned();
        self.rec.exit(open);
        let artifact = match cached {
            Some(a) => {
                self.counts.cache_hits += 1;
                a
            }
            None => {
                self.counts.cache_compiles += 1;
                let compiled = self.compile(w, level, machine);
                let decoded = self
                    .rec
                    .span("sim.decode", || decode(&compiled.module, machine));
                self.counts.decoded_records += decoded.num_records() as u64;
                let a = Rc::new(Artifact { compiled, decoded });
                self.artifacts.insert(key, Rc::clone(&a));
                a
            }
        };
        let ref_key = (scale.to_bits(), w.meta.name.to_string());
        let reference = match self.references.get(&ref_key) {
            Some(r) => Rc::clone(r),
            None => {
                let r = Rc::new(
                    self.rec
                        .span("ir.interp", || interpret(&w.program, &w.init)),
                );
                self.references.insert(ref_key, Rc::clone(&r));
                r
            }
        };
        let mem = self.rec.span("sim.mem_init", || {
            memory_from_init(&artifact.compiled.module.symtab, &w.init)
        });
        let limits = SimLimits::cycles(cycle_budget(reference.stmts_executed));
        let res = self
            .rec
            .span("sim.simulate", || {
                simulate_decoded(&artifact.decoded, machine, mem, limits)
            })
            .map_err(|e| format!("{}: {e}", w.meta.name))?;
        self.rec.span("harness.verify", || {
            verify_against_reference(w, &artifact.compiled, &reference, &res.memory)
        })?;
        self.counts.simulations += 1;
        self.counts.cycles += res.cycles;
        self.counts.dyn_insts += res.dyn_insts;
        self.counts.mem_accesses += res.mem.accesses();
        self.counts.mem_hits += res.mem.hits();
        self.counts.mem_misses += res.mem.misses();
        Ok(EvalPoint {
            cycles: res.cycles,
            dyn_insts: res.dyn_insts,
            regs: artifact.compiled.regs,
            static_insts: artifact.compiled.static_insts,
            mem: res.mem,
        })
    }

    /// `harness::compile_guarded` + the `compile` handler's reply: every
    /// pass and both backend steps run as `Guard::step`s. The step's span
    /// is `guard.step` and the pass's own span nests inside it, so the
    /// guard's self time is exactly what guarding adds.
    fn compile_guarded(
        &mut self,
        w: &Workload,
        level: Level,
        machine: &Machine,
        lint: bool,
    ) -> Json {
        let rec = &mut self.rec;
        let lowered = rec.span("ir.lower", || lower(&w.program));
        self.counts.compiles += 1;
        self.counts.insts_after_lower += lowered.module.func.num_insts() as u64;
        let oracle = rec.span("guard.oracle", || workload_oracle(w, &lowered));
        let mut guard = Guard::new(GuardConfig::default(), Some(&oracle));
        let mut module = lowered.module;
        let ucfg = UnrollConfig {
            vlen: machine.vlen,
            ..Default::default()
        };

        guard.report.requested = Some(level);
        let mut report = TransformReport::default();
        let mut skipped: Vec<&'static str> = Vec::new();
        for pass in passes(level) {
            let saved = report.clone();
            let step = rec.enter("guard.step");
            let kept = guard.step(&mut module, pass.name, |m| {
                let open = rec.enter(pass_span(pass.name));
                pass.execute(m, &ucfg, &mut report);
                rec.exit(open);
            });
            rec.exit(step);
            if !kept {
                report = saved;
                skipped.push(pass.name);
            }
            if pass.name == "conventional" {
                self.counts.insts_after_conventional += module.func.num_insts() as u64;
            }
        }
        // Highest level all of whose passes ran clean (guarded_apply_level).
        let mut achieved = None;
        'levels: for l in Level::ALL.into_iter().take_while(|l| *l <= level) {
            for pass in passes(level).filter(|p| p.level == l) {
                if skipped.contains(&pass.name) {
                    break 'levels;
                }
            }
            achieved = Some(l);
        }
        guard.report.achieved = achieved;

        let mut superblocks = Default::default();
        let step = rec.enter("guard.step");
        let kept = guard.step(&mut module, "superblock-formation", |m| {
            let open = rec.enter("sched.superblock");
            superblocks = form_superblocks(m, &SuperblockConfig::default());
            rec.exit(open);
        });
        rec.exit(step);
        if !kept {
            superblocks = Default::default();
        }
        let mut schedules = Vec::new();
        let step = rec.enter("guard.step");
        let kept = guard.step(&mut module, "list-schedule", |m| {
            let open = rec.enter("sched.list");
            schedules = schedule_module(m, machine);
            rec.exit(open);
        });
        rec.exit(step);
        if !kept {
            schedules = Vec::new();
        }
        let regs = rec.span("regalloc.measure", || ilpc_regalloc::measure(&module.func));
        let static_insts = module.func.num_insts();

        add(&mut self.counts.transforms, &report);
        self.counts.superblock_merges += superblocks.merges as u64;
        self.counts.duplicated_insts += superblocks.duplicated_insts as u64;
        self.counts.regs_total += u64::from(regs.total());
        self.counts.guard_steps += guard.report.steps_attempted as u64;
        self.counts.guard_incidents += guard.report.incidents.len() as u64;

        let diags = lint.then(|| {
            let mut diags = rec.span("lint.module", || ilpc_lint::lint_module(&module));
            diags.extend(rec.span("lint.audit", || {
                ilpc_lint::audit_schedules(&module, &schedules, machine)
            }));
            self.counts.lint_diags += diags.len() as u64;
            diags
        });

        let open = rec.enter("serve.reply_encode");
        let incidents: Vec<Json> = guard
            .report
            .records()
            .into_iter()
            .map(|r| {
                obj([
                    ("step", Json::num(r.step as f64)),
                    ("pass", Json::str(r.pass)),
                    ("kind", Json::str(r.kind)),
                    ("detail", Json::str(r.detail)),
                ])
            })
            .collect();
        let mut reply = obj([
            ("workload", Json::str(w.meta.name)),
            ("level", Json::str(level.name())),
            ("width", Json::num(machine.issue_width)),
            ("static_insts", Json::num(static_insts as f64)),
            ("regs", Json::num(regs.total())),
            (
                "achieved",
                guard
                    .report
                    .achieved
                    .map(|l| Json::str(l.name()))
                    .unwrap_or(Json::Null),
            ),
            ("clean", Json::Bool(guard.report.clean())),
            ("incidents", Json::Arr(incidents)),
        ]);
        if let Some(mut diags) = diags {
            ilpc_lint::sort_diagnostics(&mut diags);
            let count = |s| ilpc_lint::count_severity(&diags, s) as f64;
            let audit = obj([
                ("errors", Json::num(count(ilpc_lint::Severity::Error))),
                ("warnings", Json::num(count(ilpc_lint::Severity::Warning))),
                ("notes", Json::num(count(ilpc_lint::Severity::Note))),
                (
                    "diags",
                    Json::Arr(diags.iter().map(|d| d.to_json()).collect()),
                ),
            ]);
            if let Json::Obj(fields) = &mut reply {
                fields.insert("lint".to_string(), audit);
            }
        }
        rec.exit(open);
        reply
    }

    /// `run_sweep` on one thread, point by point, plus the sweep handler's
    /// aggregation. Scheduling, `Grid` assembly and thread start-up are
    /// what the real `run_sweep` adds on top (`harness.residual_ms`).
    fn sweep(
        &mut self,
        scale: f64,
        levels: &[Level],
        widths: &[u32],
        mems: &[MemConfig],
    ) -> Result<Json, Failure> {
        let workloads = self.rec.span("workloads.build", || build_all(scale));
        let top = *levels.last().expect("sweep levels");
        let wide = *widths.iter().max().expect("sweep widths");
        let mut scenarios = Vec::new();
        let before = (self.counts.cache_compiles, self.counts.cache_hits);
        for mem in mems {
            let mut completed = 0u64;
            let mut speedups = 0.0;
            for w in &workloads {
                let mut base = None;
                let mut this = None;
                for &level in levels {
                    for &width in widths {
                        let machine = Machine {
                            latency: TABLE1,
                            ..Machine::issue(width).with_mem(*mem).with_vlen(1)
                        };
                        let p = self
                            .evaluate(scale, w, level, &machine)
                            .map_err(|e| (ErrorKind::EvalFailed, e))?;
                        completed += 1;
                        if (level, width) == (Level::Conv, 1) {
                            base = Some(p.cycles as f64);
                        }
                        if (level, width) == (top, wide) {
                            this = Some(p.cycles as f64);
                        }
                    }
                }
                speedups += base.expect("base point") / this.expect("top point");
            }
            let open = self.rec.enter("harness.aggregate");
            scenarios.push(obj([
                ("label", Json::str(mem.name())),
                ("completed", Json::num(completed as f64)),
                ("errors", Json::Arr(Vec::new())),
                (
                    "mean_speedup",
                    obj([
                        ("value", Json::Num(speedups / workloads.len() as f64)),
                        ("level", Json::str(top.name())),
                        ("width", Json::num(wide)),
                        ("covered", Json::num(workloads.len() as f64)),
                        ("requested", Json::num(workloads.len() as f64)),
                    ]),
                ),
            ]));
            self.rec.exit(open);
        }
        Ok(obj([
            ("scenarios", Json::Arr(scenarios)),
            (
                "cache",
                obj([
                    (
                        "compiles",
                        Json::num((self.counts.cache_compiles - before.0) as f64),
                    ),
                    (
                        "hits",
                        Json::num((self.counts.cache_hits - before.1) as f64),
                    ),
                ]),
            ),
            (
                "steals",
                obj([("steals", Json::num(0.0)), ("stolen_items", Json::num(0.0))]),
            ),
        ]))
    }
}

/// The `simulate` handler's result object.
fn simulate_result(workload: &str, level: Level, width: u32, p: &EvalPoint) -> Json {
    obj([
        ("workload", Json::str(workload)),
        ("level", Json::str(level.name())),
        ("width", Json::num(width)),
        ("cycles", Json::num(p.cycles as f64)),
        ("dyn_insts", Json::num(p.dyn_insts as f64)),
        ("static_insts", Json::num(p.static_insts as f64)),
        ("regs", Json::num(p.regs.total())),
        (
            "mem",
            obj([
                ("accesses", Json::num(p.mem.accesses() as f64)),
                ("hits", Json::num(p.mem.hits() as f64)),
                ("misses", Json::num(p.mem.misses() as f64)),
            ]),
        ),
    ])
}

/// Two reply lines say the same thing: identical, except that a sweep's
/// `steals` counters depend on thread scheduling and are left out.
pub fn same_reply(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let strip = |line: &str| {
        let mut v = parse(line).ok()?;
        if let Some(Json::Obj(result)) = match &mut v {
            Json::Obj(m) => m.get_mut("result"),
            _ => None,
        } {
            result.remove("steals");
        }
        Some(v.to_string())
    };
    matches!((strip(a), strip(b)), (Some(x), Some(y)) if x == y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_core::level::PASSES;

    #[test]
    fn every_pass_of_the_pipeline_has_a_span_name() {
        let mut core = Vec::new();
        for pass in PASSES {
            let span = pass_span(pass.name);
            if let Some(name) = span.strip_prefix("core.pass.") {
                assert_eq!(name, pass.name);
                core.push(pass.name);
            }
        }
        assert_eq!(core, CORE_PASSES);
    }

    #[test]
    fn replies_compare_modulo_steal_counters() {
        let a = r#"{"id":1,"ok":true,"result":{"cache":{"compiles":2},"steals":{"steals":5,"stolen_items":70}}}"#;
        let b = r#"{"id":1,"ok":true,"result":{"cache":{"compiles":2},"steals":{"steals":0,"stolen_items":0}}}"#;
        let c = r#"{"id":1,"ok":true,"result":{"cache":{"compiles":3},"steals":{"steals":0,"stolen_items":0}}}"#;
        assert!(same_reply(a, b));
        assert!(!same_reply(a, c));
        assert!(!same_reply(a, "garbage"));
    }

    #[test]
    fn replay_answers_like_the_server_and_counts_cache_traffic() {
        let cfg = ilpc_serve::ServeConfig {
            workers: 1,
            queue: 8,
            sweep_threads: 1,
            chaos: None,
        };
        let lines = [
            r#"{"id":1,"op":"simulate","workload":"dotprod","level":"Lev6","width":8,"vlen":4,"scale":0.05}"#,
            r#"{"id":2,"op":"simulate","workload":"dotprod","level":"Lev6","width":8,"vlen":4,"scale":0.05,"mem":{"kind":"cache","sets":16}}"#,
            r#"{"id":3,"op":"compile","workload":"maxval","level":"Lev4","width":8,"scale":0.05,"lint":true}"#,
            r#"{"id":4,"op":"sweep","scale":0.02,"levels":["Conv","Lev2"],"widths":[1,8]}"#,
            r#"{"id":5,"op":"simulate","workload":"nope","level":"Conv","width":1}"#,
        ];
        let served = ilpc_serve::serve_script(&cfg, &lines.join("\n"));
        let mut replayer = Replayer::new(true);
        for (k, (line, want)) in lines.iter().zip(&served).enumerate() {
            let got = replayer.handle_line(k as u32, line);
            assert!(
                same_reply(&got, want),
                "line {k}:\n replay {got}\n server {want}"
            );
        }
        // Two simulates of one point under two memories: one compile, one hit;
        // the sweep adds 40 loops × 2 levels × 2 widths cold points.
        assert_eq!(replayer.counts.cache_compiles, 1 + 160);
        assert_eq!(replayer.counts.cache_hits, 1);
        assert_eq!(replayer.counts.simulations, 2 + 160);
        assert!(replayer.counts.guard_steps > 0 && replayer.counts.guard_incidents == 0);
        assert!(replayer.rec.spans.iter().any(|s| s.name == "guard.step"));
        assert!(replayer
            .rec
            .spans
            .iter()
            .any(|s| s.name == "core.pass.unroll" && s.parent.is_some()));
    }
}
