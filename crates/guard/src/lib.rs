//! # ilpc-guard — the transformation firewall
//!
//! The paper's whole premise is that the Lev1–Lev4 transformations preserve
//! semantics while exposing ILP (§2); a single buggy or corrupted pass that
//! silently produces wrong architectural results would invalidate every
//! number downstream. This crate makes per-transformation validation a
//! first-class subsystem: a [`Guard`] wraps every step of the compilation
//! pipeline. It keeps a **record** of the last good module and, after each
//! step,
//!
//! 1. runs the [`ilpc_ir::verify`] verifier — in release builds too (the
//!    bare pipeline only verifies under `debug_assertions`),
//! 2. runs the **static pass-delta lints** (`ilpc_lint::delta`) over the
//!    record/output pair — translation-validation rules that need no
//!    execution at all,
//! 3. **spot-checks architectural results** against a reference oracle
//!    (the AST interpreter's output) by executing the module on the cycle
//!    simulator, and
//! 4. isolates **panics** — of the pass and of the checks themselves —
//!    with `catch_unwind`.
//!
//! On any failure the guard rolls the module back to the record, records a
//! typed incident, and the driver continues with the remaining passes —
//! graceful degradation to the highest achievable transformation level
//! instead of a crashed or silently-wrong run. A kept step refreshes the
//! record; a step whose output is bit-identical to a record that already
//! passed the checks is kept without running them again (see
//! [`Guard::step`]).
//!
//! The error taxonomy ([`GuardErrorKind`]) is deliberately small:
//!
//! * [`VerifierReject`](GuardErrorKind::VerifierReject) — structurally
//!   malformed IR (wrong operand arity/class, dangling target, …);
//! * [`StaticLintReject`](GuardErrorKind::StaticLintReject) — well-formed
//!   IR whose before/after delta breaks a translation-validation rule
//!   (`ilpc_lint::delta`), caught statically before anything executes;
//! * [`DifferentialMismatch`](GuardErrorKind::DifferentialMismatch) —
//!   well-formed IR that computes the wrong answer, or IR the simulator
//!   rejects at execution time;
//! * [`PassPanic`](GuardErrorKind::PassPanic) — the pass itself panicked;
//! * [`BudgetExceeded`](GuardErrorKind::BudgetExceeded) — runaway code
//!   growth, cycle budget or dynamic-instruction watchdog exhaustion.
//!
//! [`inject`] pairs the guard with a deterministic fault-injection engine
//! (seeded by the `ilpc-testkit` PRNG) used by the harness's fault
//! campaign (`report --only fault-campaign`) to demonstrate the headline invariant: **zero silent escapes**
//! — no corrupted run reports a wrong architectural result unflagged.

#![forbid(unsafe_code)]

pub mod inject;

use ilpc_core::level::{passes, Level};
use ilpc_ir::value::ArrayVal;
use ilpc_ir::verify::verify_module;
use ilpc_ir::{Module, SymId};
use ilpc_machine::Machine;
use ilpc_sim::{read_symbol, simulate_limited, SimError, SimLimits};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Classification of a guarded-step failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GuardErrorKind {
    /// The IR verifier rejected the pass output.
    VerifierReject,
    /// A static translation-validation lint rejected the pass's
    /// before/after delta (no execution involved).
    StaticLintReject,
    /// The pass output computes wrong architectural results (or the
    /// simulator rejected it at execution time).
    DifferentialMismatch,
    /// The pass — or a check of its output — panicked; the panic was
    /// contained by the firewall.
    PassPanic,
    /// A resource budget was exhausted: runaway code growth, the cycle
    /// budget, or the dynamic-instruction watchdog.
    BudgetExceeded,
}

impl GuardErrorKind {
    /// Stable name used in reports and campaign tables.
    pub fn name(self) -> &'static str {
        match self {
            GuardErrorKind::VerifierReject => "VerifierReject",
            GuardErrorKind::StaticLintReject => "StaticLintReject",
            GuardErrorKind::DifferentialMismatch => "DifferentialMismatch",
            GuardErrorKind::PassPanic => "PassPanic",
            GuardErrorKind::BudgetExceeded => "BudgetExceeded",
        }
    }
}

impl fmt::Display for GuardErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed guarded-step failure.
#[derive(Debug, Clone)]
pub struct GuardError {
    pub kind: GuardErrorKind,
    /// Human-readable detail (verifier message, mismatch magnitude, panic
    /// payload, …).
    pub detail: String,
}

impl GuardError {
    fn new(kind: GuardErrorKind, detail: impl Into<String>) -> GuardError {
        GuardError { kind, detail: detail.into() }
    }
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl std::error::Error for GuardError {}

/// One contained failure: which step failed, and how.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Zero-based index of the step in the guarded sequence.
    pub step: usize,
    /// Step name (a `ilpc_core::level` pass name, or a backend step such
    /// as `"superblock-formation"` / `"list-schedule"`).
    pub pass: &'static str,
    pub error: GuardError,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step {} ({}): {}", self.step, self.pass, self.error)
    }
}

/// Outcome summary of a guarded pipeline run.
#[derive(Debug, Clone, Default)]
pub struct GuardReport {
    /// Steps attempted (passes + backend steps).
    pub steps_attempted: usize,
    /// Steps whose output was kept.
    pub steps_kept: usize,
    /// Kept steps whose output was bit-identical to a module that had
    /// already passed every check, and so were not checked again.
    pub steps_unchanged: usize,
    /// Contained failures, in execution order. Empty on a healthy run.
    pub incidents: Vec<Incident>,
    /// Level the driver asked for (set by [`GuardReport::settle_level`]).
    pub requested: Option<Level>,
    /// Highest level whose passes all ran clean — `None` if even the
    /// baseline conventional optimization had to be rolled back.
    pub achieved: Option<Level>,
}

impl GuardReport {
    /// True if every step was kept.
    pub fn clean(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Names of the steps that were rolled back.
    pub fn skipped(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.incidents.iter().map(|i| i.pass)
    }

    /// Record that the driver asked for `level`, and derive the level it
    /// achieved: the highest one all of whose passes (at that and lower
    /// levels) ran clean. A skipped Conv pass means not even the baseline
    /// held. Call once every pass of the level pipeline has been stepped.
    pub fn settle_level(&mut self, level: Level) {
        self.requested = Some(level);
        self.achieved = Level::ALL
            .into_iter()
            .take_while(|l| *l <= level)
            .take_while(|l| {
                !passes(level).any(|p| p.level == *l && self.skipped().any(|s| s == p.name))
            })
            .last();
    }

    /// Flat, owned incident records for wire formats and logs (the
    /// `ilpc-serve` protocol reports these per request).
    pub fn records(&self) -> Vec<IncidentRecord> {
        self.incidents.iter().map(IncidentRecord::from).collect()
    }
}

/// A flattened [`Incident`] for transport: plain owned fields, stable
/// [`GuardErrorKind::name`] string, no lifetimes — what a serving layer
/// puts on the wire per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentRecord {
    pub step: usize,
    pub pass: String,
    pub kind: String,
    pub detail: String,
}

impl From<&Incident> for IncidentRecord {
    fn from(i: &Incident) -> IncidentRecord {
        IncidentRecord {
            step: i.step,
            pass: i.pass.to_string(),
            kind: i.error.kind.name().to_string(),
            detail: i.error.detail.clone(),
        }
    }
}

/// Supervision-level incident taxonomy for multi-process serving: what a
/// pool supervisor observed about a worker *shard* (as opposed to the
/// in-process pass incidents above). Same [`IncidentRecord`] transport, so
/// shard incidents ride the same wire shape as pass incidents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardIncidentKind {
    /// The worker process exited or its pipe closed unexpectedly.
    Crash,
    /// The worker stopped answering health pings (or sat on a request past
    /// its deadline) and was reaped.
    Hang,
    /// Spawning the worker process failed outright.
    SpawnFailed,
    /// The worker emitted a line that was not a valid reply.
    Garbage,
    /// The supervisor respawned the worker (follows a crash/hang).
    Restart,
    /// The shard's restart-storm circuit breaker opened.
    CircuitOpen,
}

impl ShardIncidentKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            ShardIncidentKind::Crash => "shard-crash",
            ShardIncidentKind::Hang => "shard-hang",
            ShardIncidentKind::SpawnFailed => "shard-spawn-failed",
            ShardIncidentKind::Garbage => "shard-garbage",
            ShardIncidentKind::Restart => "shard-restart",
            ShardIncidentKind::CircuitOpen => "shard-circuit-open",
        }
    }
}

impl IncidentRecord {
    /// A supervision incident for worker shard `shard`. `step` carries the
    /// shard index so existing record consumers sort/group sensibly.
    pub fn shard(shard: usize, kind: ShardIncidentKind, detail: impl Into<String>) -> IncidentRecord {
        IncidentRecord {
            step: shard,
            pass: format!("shard-{shard}"),
            kind: kind.name().to_string(),
            detail: detail.into(),
        }
    }
}

/// Architectural-result oracle for differential spot-checks.
///
/// Holds everything needed to execute a module under guard and compare its
/// results against ground truth (in practice: the AST interpreter's output
/// for the workload being compiled). Timing is irrelevant here — any
/// machine width yields the same architectural results — so `machine` can
/// be a fixed narrow configuration regardless of the compilation target.
///
/// Spot-checks execute via `ilpc_sim::simulate_limited` and therefore ride
/// the pre-decoded fast engine; its cycle-for-cycle equivalence to the
/// legacy interpreter (proved by the engine differential suite) keeps
/// guard verdicts — including budget-exceeded classifications, which *do*
/// depend on exact cycle counts — byte-identical to the pre-engine ones.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Machine to execute the spot-check on.
    pub machine: Machine,
    /// Initial flat memory image for the module.
    pub init_mem: Vec<u64>,
    /// Expected final contents per checked symbol (arrays and scalar
    /// shadow symbols).
    pub expect: Vec<(SymId, ArrayVal)>,
    /// Relative FP tolerance (expansion transformations reassociate
    /// reductions, exactly as the paper's do).
    pub tol: f64,
    /// Simulation budgets for one spot-check execution.
    pub limits: SimLimits,
}

impl Oracle {
    /// Execute `m` and compare its architectural results against the
    /// expectations. `Ok(())` means every checked symbol matched.
    pub fn check(&self, m: &Module) -> Result<(), GuardError> {
        let res = match simulate_limited(m, &self.machine, self.init_mem.clone(), self.limits)
        {
            Ok(res) => res,
            Err(e @ (SimError::CycleLimit(_) | SimError::DynInstLimit(_))) => {
                return Err(GuardError::new(
                    GuardErrorKind::BudgetExceeded,
                    format!("spot-check {e}"),
                ))
            }
            Err(e) => {
                return Err(GuardError::new(
                    GuardErrorKind::DifferentialMismatch,
                    format!("spot-check simulation rejected the module: {e}"),
                ))
            }
        };
        for (sym, want) in &self.expect {
            let got = read_symbol(&m.symtab, &res.memory, *sym);
            if got.class() != want.class() {
                return Err(GuardError::new(
                    GuardErrorKind::DifferentialMismatch,
                    format!("symbol @{} changed class", sym.0),
                ));
            }
            if got.len() != want.len() {
                return Err(GuardError::new(
                    GuardErrorKind::DifferentialMismatch,
                    format!("symbol @{} changed size", sym.0),
                ));
            }
            let diff = got.max_rel_diff(want);
            if !(diff <= self.tol) {
                return Err(GuardError::new(
                    GuardErrorKind::DifferentialMismatch,
                    format!("symbol @{} differs from reference by {diff:.2e}", sym.0),
                ));
            }
        }
        Ok(())
    }
}

/// Firewall configuration. The default enables every protection.
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Run the IR verifier after every step (release builds included).
    pub verify: bool,
    /// Spot-check architectural results after every step (requires an
    /// [`Oracle`]).
    pub differential: bool,
    /// Run the static pass-delta lints (`ilpc_lint::delta`) after every
    /// step, before the differential spot-check.
    pub static_lints: bool,
    /// Contain pass panics with `catch_unwind`. Disable to let panics
    /// propagate (useful under a debugger).
    pub catch_panics: bool,
    /// Maximum static instructions a step may leave behind; exceeding it is
    /// a [`BudgetExceeded`](GuardErrorKind::BudgetExceeded) failure
    /// (catches runaway unrolling/expansion before it eats the machine).
    pub max_insts: usize,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            verify: true,
            differential: true,
            static_lints: true,
            catch_panics: true,
            max_insts: 1 << 20,
        }
    }
}

/// Best-effort string form of a `catch_unwind` payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A sabotage hook: corrupt the module right after step `at_step` runs,
/// *inside* the guarded region — exactly where a buggy pass would strike.
/// Used by the fault-injection campaign; never set in production.
pub struct StepHook<'a> {
    pub at_step: usize,
    pub action: Box<dyn FnMut(&mut Module) + 'a>,
}

/// The transformation firewall. Drive it with [`Guard::step`] around every
/// mutation of the module; it checks, rolls back and records.
pub struct Guard<'a> {
    cfg: GuardConfig,
    oracle: Option<&'a Oracle>,
    hook: Option<StepHook<'a>>,
    pub report: GuardReport,
    /// The last good module: what a failed step is rolled back to, and the
    /// "before" side of the delta lints. Filled with `clone_from`, so a
    /// guard allocates one snapshot in its lifetime, not one per step.
    record: Module,
    /// True once `record` has passed every enabled check.
    record_checked: bool,
}

impl<'a> Guard<'a> {
    /// New firewall. Without an oracle the differential spot-check is
    /// skipped (the verifier, panic containment and budgets still apply).
    pub fn new(cfg: GuardConfig, oracle: Option<&'a Oracle>) -> Guard<'a> {
        Guard {
            cfg,
            oracle,
            hook: None,
            report: GuardReport::default(),
            record: Module::new(""),
            record_checked: false,
        }
    }

    /// Install a fault-injection hook (see [`StepHook`]).
    pub fn with_hook(mut self, hook: StepHook<'a>) -> Guard<'a> {
        self.hook = Some(hook);
        self
    }

    /// Run one guarded step. Returns `true` if the step's output was kept,
    /// `false` if it failed a check and the module was rolled back to its
    /// state on entry.
    ///
    /// The module on entry is compared with the record and, where they
    /// differ (the first step, or a caller that edited the module between
    /// steps), becomes the new, unchecked record. An output bit-identical
    /// ([`Module::identical`]) to a checked record is kept as it is: the
    /// verifier and the spot-check are deterministic functions of the
    /// module alone, and every delta lint is an "after ⊆ before" relation
    /// that a module satisfies against itself. Debug builds run the checks
    /// on such a step all the same and assert that they pass.
    pub fn step(
        &mut self,
        m: &mut Module,
        name: &'static str,
        f: impl FnOnce(&mut Module),
    ) -> bool {
        let idx = self.report.steps_attempted;
        self.report.steps_attempted += 1;
        if !m.identical(&self.record) {
            self.record.clone_from(m);
            self.record_checked = false;
        }

        let hook = match &mut self.hook {
            Some(h) if h.at_step == idx => Some(&mut h.action),
            _ => None,
        };
        let (cfg, oracle, record, record_checked) =
            (self.cfg, self.oracle, &self.record, self.record_checked);
        // Set when the output is the checked record again, bit for bit.
        let mut unchanged = false;
        // The checks run under the same containment as the body: a
        // corrupted module can panic the simulator or a lint, and that is
        // an incident like any other.
        let run = |m: &mut Module| {
            f(m);
            if let Some(action) = hook {
                action(m);
            }
            unchanged = record_checked && m.identical(record);
            if unchanged {
                None
            } else {
                check(&cfg, oracle, m, record, name)
            }
        };
        let error = if cfg.catch_panics {
            catch_unwind(AssertUnwindSafe(|| run(m))).unwrap_or_else(|payload| {
                Some(GuardError::new(GuardErrorKind::PassPanic, panic_message(payload)))
            })
        } else {
            run(m)
        };

        match error {
            None => {
                if unchanged {
                    self.report.steps_unchanged += 1;
                    debug_assert!(
                        check(&cfg, oracle, m, &self.record, name).is_none(),
                        "step {idx} ({name}): a module identical to the checked record fails a check"
                    );
                } else {
                    self.record.clone_from(m);
                    self.record_checked = true;
                }
                self.report.steps_kept += 1;
                true
            }
            Some(error) => {
                m.clone_from(&self.record);
                self.report.incidents.push(Incident { step: idx, pass: name, error });
                false
            }
        }
    }
}

/// Post-step checks, in escalating cost order: growth budget, then the
/// verifier, then the static pass-delta lints against the `before` module,
/// then the differential spot-check — the only one that has to execute
/// anything.
fn check(
    cfg: &GuardConfig,
    oracle: Option<&Oracle>,
    m: &Module,
    before: &Module,
    pass: &'static str,
) -> Option<GuardError> {
    let insts = m.func.num_insts();
    if insts > cfg.max_insts {
        return Some(GuardError::new(
            GuardErrorKind::BudgetExceeded,
            format!("module grew to {insts} instructions (budget {})", cfg.max_insts),
        ));
    }
    if cfg.verify {
        if let Err(e) = verify_module(m) {
            return Some(GuardError::new(GuardErrorKind::VerifierReject, e.to_string()));
        }
    }
    if cfg.static_lints {
        let diags = ilpc_lint::delta::check_step(before, m, pass);
        if let Some(d) = diags.first() {
            return Some(GuardError::new(GuardErrorKind::StaticLintReject, d.to_string()));
        }
    }
    if cfg.differential {
        if let Some(oracle) = oracle {
            if let Err(e) = oracle.check(m) {
                return Some(e);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_core::level::{direct, run_rows, TransformReport};
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::interp::{interpret, DataInit};
    use ilpc_ir::lower::lower;
    use ilpc_ir::text::serialize;
    use ilpc_ir::value::Value;
    use ilpc_ir::Opcode;
    use ilpc_sim::memory_from_init;

    fn dotprod() -> (Program, DataInit) {
        let mut p = Program::new("dotprod");
        let i = p.int_var("i");
        let s = p.flt_var("s");
        let a = p.flt_arr("A", 32);
        let b = p.flt_arr("B", 32);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(31),
            body: vec![Stmt::SetScalar(
                s,
                Expr::add(
                    Expr::Var(s),
                    Expr::mul(Expr::at(a, Index::var(i)), Expr::at(b, Index::var(i))),
                ),
            )],
        }];
        // Nonzero, varied data: an all-zero environment would mask
        // value-corrupting faults (e.g. FAdd vs FSub of zeros agree).
        let init = DataInit::new()
            .with_array(a, ArrayVal::F((0..32).map(|k| 0.5 + k as f64).collect()))
            .with_array(b, ArrayVal::F((0..32).map(|k| 1.25 - k as f64 * 0.125).collect()));
        (p, init)
    }

    /// Oracle for the dotprod program: all arrays plus shadow scalars.
    fn oracle_for(p: &Program, init: &DataInit, l: &ilpc_ir::lower::Lowered) -> Oracle {
        let reference = interpret(p, init);
        let mut expect: Vec<(SymId, ArrayVal)> = reference
            .arrays
            .iter()
            .enumerate()
            .map(|(k, v)| (SymId(k as u32), v.clone()))
            .collect();
        let mut shadows: Vec<_> = l.shadow_syms.iter().collect();
        shadows.sort_by_key(|(_, sym)| sym.0);
        for (var, sym) in shadows {
            let want = match reference.scalars[var.0 as usize] {
                Value::I(x) => ArrayVal::I(vec![x]),
                Value::F(x) => ArrayVal::F(vec![x]),
            };
            expect.push((*sym, want));
        }
        Oracle {
            machine: Machine::issue(4),
            init_mem: memory_from_init(&l.module.symtab, init),
            expect,
            tol: 1e-9,
            limits: SimLimits::cycles(1_000_000),
        }
    }

    #[test]
    fn clean_run_is_bit_identical_to_unguarded() {
        let (p, init) = dotprod();
        let mut plain = lower(&p);
        let mut plain_rep = TransformReport::default();
        run_rows(&mut plain.module, &mut plain_rep, Level::Lev4.rows(), 1, &mut direct);

        let mut guarded = lower(&p);
        let oracle = oracle_for(&p, &init, &guarded);
        let mut guard = Guard::new(GuardConfig::default(), Some(&oracle));
        let mut rep = TransformReport::default();
        let rows = Level::Lev4.rows();
        run_rows(&mut guarded.module, &mut rep, rows, 1, &mut |m, n, b| guard.step(m, n, b));
        guard.report.settle_level(Level::Lev4);

        assert!(guard.report.clean(), "{:#?}", guard.report.incidents);
        assert_eq!(guard.report.requested, Some(Level::Lev4));
        assert_eq!(guard.report.achieved, Some(Level::Lev4));
        assert_eq!(guard.report.steps_kept, guard.report.steps_attempted);
        assert_eq!(rep, plain_rep);
        assert_eq!(serialize(&guarded.module), serialize(&plain.module));
    }

    #[test]
    fn panicking_pass_is_contained_rolled_back_and_skipped() {
        let (p, init) = dotprod();
        let mut l = lower(&p);
        let oracle = oracle_for(&p, &init, &l);
        // Sabotage step 3 ("rename") with a panic.
        let mut guard = Guard::new(GuardConfig::default(), Some(&oracle)).with_hook(StepHook {
            at_step: 3,
            action: Box::new(|_| panic!("injected pass bug")),
        });
        let mut rep = TransformReport::default();
        let rows = Level::Lev4.rows();
        run_rows(&mut l.module, &mut rep, rows, 1, &mut |m, n, b| guard.step(m, n, b));
        guard.report.settle_level(Level::Lev4);
        let incidents = &guard.report.incidents;
        assert_eq!(incidents.len(), 1, "{incidents:#?}");
        assert_eq!(incidents[0].error.kind, GuardErrorKind::PassPanic);
        assert_eq!(incidents[0].pass, "rename");
        assert!(incidents[0].error.detail.contains("injected pass bug"));
        // Degraded below Lev2 (rename is the Lev2 pass), but Lev3/Lev4
        // passes still ran on the rolled-back module.
        assert_eq!(guard.report.achieved, Some(Level::Lev1));
        assert_eq!(rep.defs_renamed, 0);
        assert!(rep.combines >= 1, "later passes should still run: {rep:?}");
        // The surviving module is verifiable and architecturally correct.
        verify_module(&l.module).unwrap();
        oracle.check(&l.module).unwrap();
    }

    #[test]
    fn panicking_check_is_contained_like_a_panicking_pass() {
        let (p, init) = dotprod();
        let mut l = lower(&p);
        let mut oracle = oracle_for(&p, &init, &l);
        // An expectation for a symbol no module declares: the spot-check
        // itself panics (an out-of-range index in `read_symbol`), on every
        // step, whatever the pass did.
        oracle.expect.push((SymId(99), ArrayVal::I(vec![0])));
        let lowered = serialize(&l.module);
        let mut guard = Guard::new(GuardConfig::default(), Some(&oracle));
        let mut rep = TransformReport::default();
        let rows = Level::Lev1.rows();
        run_rows(&mut l.module, &mut rep, rows, 1, &mut |m, n, b| guard.step(m, n, b));
        guard.report.settle_level(Level::Lev1);
        let incidents = &guard.report.incidents;
        assert_eq!(incidents.len(), guard.report.steps_attempted, "{incidents:#?}");
        assert!(incidents.iter().all(|i| i.error.kind == GuardErrorKind::PassPanic));
        assert!(incidents[0].error.detail.contains("index out of bounds"), "{}", incidents[0]);
        assert_eq!(guard.report.steps_unchanged, 0, "nothing was ever proved");
        assert_eq!(guard.report.achieved, None);
        assert_eq!(rep, TransformReport::default());
        assert_eq!(serialize(&l.module), lowered);
    }

    #[test]
    fn corrupting_pass_output_is_flagged_and_rolled_back() {
        let (p, init) = dotprod();
        let mut l = lower(&p);
        let oracle = oracle_for(&p, &init, &l);
        // Corrupt the module right after the unroll pass (step 1): flip
        // every FAdd to FSub — structurally valid, architecturally wrong.
        // (All of them: after unrolling, one FAdd lives in a remainder loop
        // that executes zero iterations for this trip count, so flipping
        // only the first in layout order can be architecturally invisible.)
        let mut guard = Guard::new(GuardConfig::default(), Some(&oracle)).with_hook(StepHook {
            at_step: 1,
            action: Box::new(|m: &mut Module| {
                let mut flipped = 0;
                let blocks: Vec<_> = m.func.layout_order().to_vec();
                for b in blocks {
                    for inst in &mut m.func.block_mut(b).insts {
                        if inst.op == Opcode::FAdd {
                            inst.op = Opcode::FSub;
                            flipped += 1;
                        }
                    }
                }
                assert!(flipped > 0, "no FAdd to corrupt");
            }),
        });
        let (rows, mut rep) = (Level::Lev4.rows(), TransformReport::default());
        run_rows(&mut l.module, &mut rep, rows, 1, &mut |m, n, b| guard.step(m, n, b));
        guard.report.settle_level(Level::Lev4);
        assert_eq!(guard.report.incidents.len(), 1, "{:#?}", guard.report.incidents);
        let inc = &guard.report.incidents[0];
        assert_eq!(inc.error.kind, GuardErrorKind::DifferentialMismatch);
        assert_eq!(inc.pass, "unroll");
        assert_eq!(guard.report.achieved, Some(Level::Conv));
        oracle.check(&l.module).unwrap();
    }

    #[test]
    fn trip_count_corruption_is_caught_statically() {
        let (p, init) = dotprod();
        let mut l = lower(&p);
        let oracle = oracle_for(&p, &init, &l);
        // Corrupt the module right after "rename" (step 3, trip-preserving):
        // negate every conditional branch. Structurally valid — only the
        // static delta lints or the differential can catch it, and the
        // static check runs first.
        let mut guard = Guard::new(GuardConfig::default(), Some(&oracle)).with_hook(StepHook {
            at_step: 3,
            action: Box::new(|m: &mut Module| {
                let blocks: Vec<_> = m.func.layout_order().to_vec();
                for b in blocks {
                    for inst in &mut m.func.block_mut(b).insts {
                        if let Opcode::Br(c) = inst.op {
                            inst.op = Opcode::Br(c.negated());
                        }
                    }
                }
            }),
        });
        let (rows, mut rep) = (Level::Lev4.rows(), TransformReport::default());
        run_rows(&mut l.module, &mut rep, rows, 1, &mut |m, n, b| guard.step(m, n, b));
        assert_eq!(guard.report.incidents.len(), 1, "{:#?}", guard.report.incidents);
        let inc = &guard.report.incidents[0];
        assert_eq!(inc.error.kind, GuardErrorKind::StaticLintReject);
        assert_eq!(inc.pass, "rename");
        assert!(inc.error.detail.contains("delta-counted-loops"), "{}", inc.error.detail);
        // Rolled back: the surviving module is still correct.
        oracle.check(&l.module).unwrap();
    }

    #[test]
    fn growth_budget_rejects_runaway_pass() {
        let (p, _) = dotprod();
        let mut l = lower(&p);
        let cfg = GuardConfig { max_insts: 8, ..GuardConfig::default() };
        let mut guard = Guard::new(cfg, None);
        let (rows, mut rep) = (Level::Lev1.rows(), TransformReport::default());
        run_rows(&mut l.module, &mut rep, rows, 1, &mut |m, n, b| guard.step(m, n, b));
        assert!(
            guard
                .report
                .incidents
                .iter()
                .any(|i| i.error.kind == GuardErrorKind::BudgetExceeded),
            "{:#?}",
            guard.report.incidents
        );
    }
}
