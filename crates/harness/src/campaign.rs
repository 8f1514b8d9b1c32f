//! Deterministic fault-injection campaign.
//!
//! Injects seeded faults ([`ilpc_guard::inject`]) into random steps of
//! guarded compilations across the 40 workloads — plus machine
//! latency-table corruptions — and classifies every outcome. The headline
//! invariant the campaign demonstrates is **zero silent escapes**: no
//! fault may produce wrong architectural results without some layer of
//! the firewall (verifier, differential spot-check, panic containment,
//! budget watchdog, or the simulator itself) flagging it. An unflagged
//! fault's verdict is `Oracle::run` on the target machine: the firewall's
//! comparator, `ExecState::compare`, on the full simulation.
//!
//! Everything is driven by one `ilpc-testkit` PRNG seed: the same
//! `(seed, faults, scale, level, width)` configuration always yields the
//! same fault sites and the same outcome counts.

use crate::compile::{compile_guarded, guarded_step_count, workload_oracle, GuardedCompile};
use ilpc_core::level::Level;
use ilpc_guard::inject::{inject, Fault, FaultKind};
use ilpc_guard::{GuardConfig, GuardErrorKind, Oracle, StepHook};
use ilpc_ir::lower::lower;
use ilpc_machine::Machine;
use ilpc_sim::SimError;
use ilpc_testkit::TestRng;
use ilpc_workloads::{build_all, Workload};
use std::cell::RefCell;
use std::fmt;

/// Classification of one injected fault's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// The IR verifier rejected the faulted step.
    FlaggedVerifier,
    /// A static pass-delta lint (`ilpc-lint`) rejected the faulted step —
    /// caught without executing anything.
    FlaggedLint,
    /// The per-step differential spot-check rejected the faulted step.
    FlaggedDifferential,
    /// The fault made a pass panic; the firewall contained it.
    FlaggedPanic,
    /// A growth/cycle/dynamic-instruction budget flagged the fault.
    FlaggedBudget,
    /// The final full simulation rejected the module at execution time.
    FlaggedSim,
    /// The fault was architecturally harmless (dead code, commutative
    /// swap, metadata-only) — results stayed correct.
    Tolerated,
    /// **The failure mode that must never happen**: wrong architectural
    /// results and nothing flagged anything.
    SilentEscape,
}

impl Outcome {
    /// Every outcome, flagged classes first.
    pub const ALL: [Outcome; 8] = [
        Outcome::FlaggedVerifier,
        Outcome::FlaggedLint,
        Outcome::FlaggedDifferential,
        Outcome::FlaggedPanic,
        Outcome::FlaggedBudget,
        Outcome::FlaggedSim,
        Outcome::Tolerated,
        Outcome::SilentEscape,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Outcome::FlaggedVerifier => "flagged-verifier",
            Outcome::FlaggedLint => "flagged-lint",
            Outcome::FlaggedDifferential => "flagged-differential",
            Outcome::FlaggedPanic => "flagged-panic",
            Outcome::FlaggedBudget => "flagged-budget",
            Outcome::FlaggedSim => "flagged-sim",
            Outcome::Tolerated => "tolerated",
            Outcome::SilentEscape => "SILENT-ESCAPE",
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Faults to inject.
    pub faults: usize,
    /// PRNG seed; fixes every site choice.
    pub seed: u64,
    /// Workload trip-count scale (small keeps spot-checks fast).
    pub scale: f64,
    /// Transformation level compiled under guard.
    pub level: Level,
    /// Issue width of the target machine.
    pub width: u32,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { faults: 500, seed: 0xC0FFEE, scale: 0.02, level: Level::Lev4, width: 8 }
    }
}

/// One trial's record.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    pub workload: &'static str,
    /// Fault class name (`operand-swap`, …, or `latency`).
    pub kind: &'static str,
    /// Guarded step the fault was injected into (`None` for latency
    /// faults, which corrupt the machine description, not a step).
    pub step: Option<usize>,
    /// Site description, or why nothing was injected.
    pub fault: String,
    /// Whether the module/machine was actually mutated.
    pub injected: bool,
    pub outcome: Outcome,
}

/// Full campaign results.
#[derive(Debug)]
pub struct CampaignReport {
    pub cfg: CampaignConfig,
    pub records: Vec<FaultRecord>,
}

impl CampaignReport {
    pub fn count(&self, o: Outcome) -> usize {
        self.records.iter().filter(|r| r.outcome == o).count()
    }

    /// The number that must be zero.
    pub fn silent_escapes(&self) -> usize {
        self.count(Outcome::SilentEscape)
    }

    /// Trials where a fault was actually injected (some classes find no
    /// eligible site in some modules).
    pub fn injected(&self) -> usize {
        self.records.iter().filter(|r| r.injected).count()
    }

    /// Static-vs-dynamic catch breakdown over injected faults:
    /// `(static, verifier, dynamic)` counts, where *static* is the
    /// pass-delta lints, *verifier* the structural IR verifier (also
    /// static, but a separate layer), and *dynamic* everything that had to
    /// execute the module (differential, sim, budgets, panics are counted
    /// with the dynamic side since containment happens at run time).
    pub fn static_catch(&self) -> (usize, usize, usize) {
        let lint = self.count(Outcome::FlaggedLint);
        let verifier = self.count(Outcome::FlaggedVerifier);
        let dynamic = [
            Outcome::FlaggedDifferential,
            Outcome::FlaggedPanic,
            Outcome::FlaggedBudget,
            Outcome::FlaggedSim,
        ]
        .into_iter()
        .map(|o| self.count(o))
        .sum();
        (lint, verifier, dynamic)
    }

    /// Render the outcome × fault-class summary table.
    pub fn render(&self) -> String {
        let mut kinds: Vec<&'static str> =
            FaultKind::ALL.iter().map(|k| k.name()).collect();
        kinds.push("latency");
        let mut out = String::new();
        out.push_str(&format!(
            "fault campaign: {} faults, seed {:#x}, {} issue-{}, scale {}\n\n",
            self.cfg.faults, self.cfg.seed, self.cfg.level, self.cfg.width, self.cfg.scale
        ));
        out.push_str(&format!("{:<22}", "outcome"));
        for k in &kinds {
            out.push_str(&format!("{k:>15}"));
        }
        out.push_str(&format!("{:>8}\n", "total"));
        for o in Outcome::ALL {
            out.push_str(&format!("{:<22}", o.name()));
            for k in &kinds {
                let n = self
                    .records
                    .iter()
                    .filter(|r| r.outcome == o && r.kind == *k)
                    .count();
                out.push_str(&format!("{n:>15}"));
            }
            out.push_str(&format!("{:>8}\n", self.count(o)));
        }
        out.push_str(&format!(
            "\ninjected: {} / {} trials; silent escapes: {}\n",
            self.injected(),
            self.records.len(),
            self.silent_escapes()
        ));
        let (lint, verifier, dynamic) = self.static_catch();
        out.push_str(&format!(
            "static catch rate: {lint} lint + {verifier} verifier static, {dynamic} dynamic\n"
        ));
        out
    }
}

/// Classify one guarded compile: incidents first, then the full end-to-end
/// execution as ground truth, held to `oracle` by the one comparator.
pub(crate) fn classify(gc: &GuardedCompile, machine: &Machine, oracle: &Oracle) -> Outcome {
    if let Some(inc) = gc.guard.incidents.first() {
        return match inc.error.kind {
            GuardErrorKind::VerifierReject => Outcome::FlaggedVerifier,
            GuardErrorKind::StaticLintReject => Outcome::FlaggedLint,
            GuardErrorKind::DifferentialMismatch => Outcome::FlaggedDifferential,
            GuardErrorKind::PassPanic => Outcome::FlaggedPanic,
            GuardErrorKind::BudgetExceeded => Outcome::FlaggedBudget,
        };
    }
    // Nothing flagged during compilation: execute the surviving module on
    // the *target* machine and compare against the reference.
    match oracle.run(&gc.compiled.module, machine) {
        Err(SimError::CycleLimit(_) | SimError::DynInstLimit(_)) => Outcome::FlaggedBudget,
        Err(_) => Outcome::FlaggedSim,
        Ok(Ok(())) => Outcome::Tolerated,
        Ok(Err(_)) => Outcome::SilentEscape,
    }
}

/// Corrupt one random latency-table entry (metadata corruption: changes
/// scheduling and timing, never architectural results).
fn perturb_latency(machine: &mut Machine, rng: &mut TestRng) -> String {
    let delta = rng.gen_range(1u32..8);
    let lat = &mut machine.latency;
    let slot = rng.gen_range(0usize..10);
    let (name, field): (&str, &mut u32) = match slot {
        0 => ("int_alu", &mut lat.int_alu),
        1 => ("int_mul", &mut lat.int_mul),
        2 => ("int_div", &mut lat.int_div),
        3 => ("branch", &mut lat.branch),
        4 => ("load", &mut lat.load),
        5 => ("store", &mut lat.store),
        6 => ("fp_alu", &mut lat.fp_alu),
        7 => ("fp_cvt", &mut lat.fp_cvt),
        8 => ("fp_mul", &mut lat.fp_mul),
        _ => ("fp_div", &mut lat.fp_div),
    };
    *field += delta;
    format!("latency {name} skewed by +{delta}")
}

/// Run the campaign. Single-threaded by design: the PRNG stream, and
/// therefore every fault site and count, is a pure function of the seed.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let workloads: Vec<Workload> = build_all(cfg.scale);
    let oracles: Vec<Oracle> =
        workloads.iter().map(|w| workload_oracle(w, &lower(&w.program))).collect();
    let mut rng = TestRng::seed_from_u64(cfg.seed);
    let mut records = Vec::with_capacity(cfg.faults);

    for _ in 0..cfg.faults {
        let k = rng.gen_range(0..workloads.len());
        let (w, oracle) = (&workloads[k], &oracles[k]);
        let choice = rng.gen_range(0..FaultKind::ALL.len() + 1);

        let record = if choice == FaultKind::ALL.len() {
            // Machine-description fault.
            let mut machine = Machine::issue(cfg.width);
            let desc = perturb_latency(&mut machine, &mut rng);
            let gc = compile_guarded(w, cfg.level, &machine, GuardConfig::default(), None);
            let outcome = classify(&gc, &machine, oracle);
            FaultRecord {
                workload: w.meta.name,
                kind: "latency",
                step: None,
                fault: desc,
                injected: true,
                outcome,
            }
        } else {
            // IR fault inside a random guarded step.
            let kind = FaultKind::ALL[choice];
            let at_step = rng.gen_range(0..guarded_step_count(cfg.level));
            let mut hook_rng = TestRng::seed_from_u64(rng.next_u64());
            let injected: RefCell<Option<Fault>> = RefCell::new(None);
            let machine = Machine::issue(cfg.width);
            let hook = StepHook {
                at_step,
                action: Box::new(|m| {
                    *injected.borrow_mut() = inject(m, kind, &mut hook_rng);
                }),
            };
            let gc = compile_guarded(w, cfg.level, &machine, GuardConfig::default(), Some(hook));
            let outcome = classify(&gc, &machine, oracle);
            let injected = injected.into_inner();
            FaultRecord {
                workload: w.meta.name,
                kind: kind.name(),
                step: Some(at_step),
                fault: injected
                    .as_ref()
                    .map(|f| f.to_string())
                    .unwrap_or_else(|| "no eligible site".to_string()),
                injected: injected.is_some(),
                outcome,
            }
        };
        records.push(record);
    }

    CampaignReport { cfg: cfg.clone(), records }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small campaign: deterministic, broad, and — the invariant — free
    /// of silent escapes. The full 500-fault campaign is the
    /// `fault-campaign` study (`report --only fault-campaign`).
    #[test]
    fn mini_campaign_has_zero_silent_escapes() {
        let cfg = CampaignConfig { faults: 48, seed: 7, ..CampaignConfig::default() };
        let report = run_campaign(&cfg);
        assert_eq!(report.records.len(), 48);
        assert_eq!(report.silent_escapes(), 0, "\n{}", report.render());
        // The campaign must actually inject most of the time, and at
        // least some faults must be flagged (an all-tolerated campaign
        // would mean the detectors never fired).
        assert!(report.injected() >= 40, "\n{}", report.render());
        let flagged: usize = [
            Outcome::FlaggedVerifier,
            Outcome::FlaggedLint,
            Outcome::FlaggedDifferential,
            Outcome::FlaggedPanic,
            Outcome::FlaggedBudget,
            Outcome::FlaggedSim,
        ]
        .into_iter()
        .map(|o| report.count(o))
        .sum();
        assert!(flagged >= 10, "only {flagged} flagged:\n{}", report.render());
    }

    /// The static pre-check must actually catch faults — a nonzero lint
    /// share of the catch-rate breakdown, deterministically per seed.
    #[test]
    fn static_lints_catch_some_faults() {
        let cfg = CampaignConfig { faults: 120, seed: 7, ..CampaignConfig::default() };
        let report = run_campaign(&cfg);
        let (lint, verifier, dynamic) = report.static_catch();
        assert!(
            lint > 0,
            "static lints caught nothing (verifier {verifier}, dynamic {dynamic}):\n{}",
            report.render()
        );
        assert_eq!(report.silent_escapes(), 0, "\n{}", report.render());
    }

    /// Same seed → byte-identical records.
    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig { faults: 16, seed: 99, ..CampaignConfig::default() };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.step, y.step);
            assert_eq!(x.fault, y.fault);
            assert_eq!(x.outcome, y.outcome);
        }
        assert_eq!(a.render(), b.render());
    }
}
