//! # ilpc-sim — execution-driven cycle simulator
//!
//! Models the paper's node processor (§3.1): in-order multi-issue with
//! register interlocks, deterministic Table-1 latencies, one branch slot per
//! cycle, non-excepting loads, and a taken-branch redirect of one cycle.
//! The simulator *executes* the compiled module on real data — trip counts,
//! preconditioning loops and side exits all run — and reports total cycles
//! and dynamic instructions. Architectural results live in a flat
//! word-addressed memory that tests compare against the AST interpreter.
//!
//! Data-memory timing is delegated to the machine's pluggable
//! [`ilpc_mem::MemModel`] (`Machine::mem`). The default,
//! `MemConfig::Perfect`, is the paper's 100 % cache hit rate and charges
//! zero extra cycles, reproducing the original simulator cycle-for-cycle.
//! A finite cache charges extra miss cycles: a missing load's result is
//! simply ready later (non-blocking loads, in the spirit of the paper's
//! non-excepting speculative loads), while a missing store stalls issue
//! until the write-allocate fill completes (blocking, in-order).
//!
//! ## Issue model
//!
//! Instructions issue strictly in scheduled order, up to `issue_width` per
//! cycle (one branch). An instruction stalls until:
//!
//! * every source register is ready (`RAW`, ready = producer issue +
//!   latency);
//! * its own write would not complete before a pending earlier write to the
//!   same register (`WAW` interlock);
//! * no may-aliasing store issued in the same cycle (stores become visible
//!   at issue+1).
//!
//! `WAR` needs no interlock: registers are read at issue and issue is in
//! order. A taken branch redirects fetch to its target starting the next
//! cycle; instructions after it in the block are squashed (never executed —
//! speculation legality is the scheduler's responsibility).
//!
//! ## Two engines, one specification
//!
//! [`simulate_limited`] runs the pre-decoded engine ([`decoded`]): a
//! one-time [`decode`] pass runs the IR verifier
//! (`ilpc_ir::verify::verify_module`) and lowers the module to flat
//! struct-of-arrays records with pre-resolved operand indices, latencies
//! and FU classes, and the hot loop runs over those with index-addressed
//! scoreboards; loop iterations in a timing steady state run through its
//! values-only fast path. A module the verifier rejects is a
//! [`SimError::Malformed`] before any cycle. The original tree-walking
//! interpreter survives in `reference` (compiled for this crate's tests
//! and under cargo feature `oracle`, off by default) as the executable
//! specification for verified modules; the differential suite proves both
//! engines cycle- and result-identical across the full evaluation grid.

#![forbid(unsafe_code)]

use ilpc_ir::interp::DataInit;
use ilpc_ir::value::ArrayVal;
use ilpc_ir::{BlockId, Module, RegClass, SymId, SymTab};
use ilpc_machine::Machine;
use ilpc_mem::MemStats;

/// Simulation statistics and final state.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total execution cycles (issue time of `halt` + 1).
    pub cycles: u64,
    /// Dynamically executed instructions (excluding `halt`).
    pub dyn_insts: u64,
    /// Final memory image (words).
    pub memory: Vec<u64>,
    /// Per-branch execution profile: `(block, inst index) -> (executed,
    /// taken)` counts for every conditional branch, in a dense map keyed by
    /// `(BlockId.0, index)`. Drives profile-based superblock formation.
    pub branch_profile: std::collections::HashMap<(u32, usize), (u64, u64)>,
    /// Memory-hierarchy statistics from the machine's `MemModel` (all-hit
    /// counters under the default perfect memory).
    pub mem: MemStats,
    /// Of `dyn_insts`, those retired by the decoded engine's steady-state
    /// fast path (always 0 from `reference`).
    pub replayed_insts: u64,
    /// Of `replayed_insts`, those whose values the fast path left
    /// uncomputed: the dead steps of a pruned replay program, which run
    /// as their accesses alone under a cache (always 0 from `reference`).
    pub elided_insts: u64,
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget was exhausted (runaway loop — a compiler bug).
    CycleLimit(u64),
    /// The dynamic-instruction watchdog fired: the program executed more
    /// instructions than any legitimate compilation could need (a runaway
    /// wide-issue loop whose cycle count stays deceptively low).
    DynInstLimit(u64),
    /// Control fell off the end of a block with no fall-through.
    FellOffEnd(BlockId),
    /// The module fails the IR verifier (e.g. a hand-edited or truncated
    /// `.ilpc` module, or a corrupted pass output): its first error's
    /// coordinates, with the verifier's `code` (`reg-range`,
    /// `operand-shape`, `class-mismatch`, `mem-tag`, ...) as the reason.
    /// [`simulate_decoded`] returns it before any cycle.
    Malformed {
        block: BlockId,
        index: usize,
        reason: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit(n) => write!(f, "cycle limit {n} exhausted"),
            SimError::DynInstLimit(n) => {
                write!(f, "dynamic instruction limit {n} exhausted")
            }
            SimError::FellOffEnd(b) => write!(f, "fell off the end of {b}"),
            SimError::Malformed { block, index, reason } => {
                write!(f, "malformed instruction {block}[{index}]: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Execution budgets for one simulation.
///
/// The cycle limit catches runaway loops; the dynamic-instruction watchdog
/// additionally bounds total *work*, which matters on wide machines where a
/// runaway straight-line region can execute many instructions per cycle and
/// ride under a pure cycle budget for a long time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLimits {
    pub max_cycles: u64,
    pub max_dyn_insts: u64,
}

impl SimLimits {
    /// Limits derived from a cycle budget alone: the watchdog allows up to
    /// 16 executed instructions per budgeted cycle, far above any
    /// legitimate sustained IPC of the modeled machines.
    pub fn cycles(max_cycles: u64) -> SimLimits {
        SimLimits { max_cycles, max_dyn_insts: max_cycles.saturating_mul(16) }
    }
}

/// Simulation cycle budget for a reference execution of `stmts_executed`
/// statements. Generous — issue-1 naive code runs well under 100
/// cycles/instruction — and saturating, so huge trip-count scales cannot
/// wrap the budget around to a tiny number.
pub fn cycle_budget(stmts_executed: u64) -> u64 {
    stmts_executed.saturating_mul(4000).max(2_000_000)
}

/// Build the initial flat memory for `symtab` from `init` (arrays are the
/// leading symbols in declaration order; all other symbols start zeroed).
pub fn memory_from_init(symtab: &SymTab, init: &DataInit) -> Vec<u64> {
    let (bases, total) = symtab.layout();
    let mut mem = vec![0u64; total];
    for (k, arr) in init.arrays.iter().enumerate() {
        let Some(arr) = arr else { continue };
        let sym = SymId(k as u32);
        let decl = symtab.get(sym);
        assert_eq!(decl.elems, arr.len(), "init size for {}", decl.name);
        assert_eq!(decl.class, arr.class(), "init class for {}", decl.name);
        let base = bases[k];
        for i in 0..arr.len() {
            mem[base + i] = arr.get(i as i64).to_bits();
        }
    }
    mem
}

/// Read back one symbol's contents from a memory image.
pub fn read_symbol(symtab: &SymTab, memory: &[u64], sym: SymId) -> ArrayVal {
    let (bases, _) = symtab.layout();
    let decl = symtab.get(sym);
    let base = bases[sym.0 as usize];
    match decl.class {
        RegClass::Int => ArrayVal::I(
            memory[base..base + decl.elems].iter().map(|&w| w as i64).collect(),
        ),
        RegClass::Flt => ArrayVal::F(
            memory[base..base + decl.elems]
                .iter()
                .map(|&w| f64::from_bits(w))
                .collect(),
        ),
        RegClass::Vec => panic!("arrays have no vector element class"),
    }
}

pub mod decoded;
#[cfg(any(test, feature = "oracle"))]
pub mod reference;

pub use decoded::{decode, simulate_decoded, DecodedProgram};

/// Execute `m` on `machine` starting from `init_mem`, with a cycle budget
/// and the default work watchdog (see [`SimLimits::cycles`]).
pub fn simulate(
    m: &Module,
    machine: &Machine,
    init_mem: Vec<u64>,
    max_cycles: u64,
) -> Result<SimResult, SimError> {
    simulate_limited(m, machine, init_mem, SimLimits::cycles(max_cycles))
}

/// Execute `m` on `machine` starting from `init_mem` under explicit limits.
///
/// Decodes `m` once ([`decode`]) and runs the pre-decoded engine over it
/// ([`simulate_decoded`]). Callers that simulate the same compiled module
/// many times (parameter sweeps varying only simulator-side knobs) should
/// decode once and call [`simulate_decoded`] per point; the harness
/// artifact cache does exactly that.
pub fn simulate_limited(
    m: &Module,
    machine: &Machine,
    init_mem: Vec<u64>,
    limits: SimLimits,
) -> Result<SimResult, SimError> {
    let program = decoded::decode(m, machine);
    decoded::simulate_decoded(&program, machine, init_mem, limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::inst::Inst;
    use ilpc_ir::{Cond, MemLoc, Opcode, Operand, Reg};
    use ilpc_machine::CacheParams;

    /// Figure 1b loop: each iteration takes 7 cycles on the unlimited
    /// machine (loads 0, fadd 2, store 5, add 5, blt 6, redirect 7).
    #[test]
    fn fig1b_steady_state_is_seven_cycles_per_iteration() {
        let mut m = Module::new("fig1b");
        let a = m.symtab.declare("A", 16, RegClass::Flt);
        let b = m.symtab.declare("B", 16, RegClass::Flt);
        let c = m.symtab.declare("C", 16, RegClass::Flt);
        let f = &mut m.func;
        let r1 = f.new_reg(RegClass::Int);
        let r5 = f.new_reg(RegClass::Int);
        let r2 = f.new_reg(RegClass::Flt);
        let r3 = f.new_reg(RegClass::Flt);
        let r4 = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(r1, Operand::ImmI(0)),
            Inst::mov(r5, Operand::ImmI(8)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(r2, Operand::Sym(a), r1.into(), MemLoc::affine(a, 1, 0)),
            Inst::load(r3, Operand::Sym(b), r1.into(), MemLoc::affine(b, 1, 0)),
            Inst::alu(Opcode::FAdd, r4, r2.into(), r3.into()),
            Inst::store(Operand::Sym(c), r1.into(), r4.into(), MemLoc::affine(c, 1, 0)),
            Inst::alu(Opcode::Add, r1, r1.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, r1.into(), r5.into(), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());

        let mem = vec![0u64; 48];
        let res = simulate(&m, &Machine::unlimited(), mem, 10_000).unwrap();
        // entry: 2 movs at cycle 0; loop body starts at cycle 0 (fall
        // through, r1 ready at 1...). Just assert steady state: 8
        // iterations at 7 cycles each dominate.
        assert!(res.cycles >= 8 * 7, "cycles = {}", res.cycles);
        assert!(res.cycles <= 8 * 7 + 6, "cycles = {}", res.cycles);
        assert_eq!(res.dyn_insts, 2 + 8 * 6 + 0);
    }

    #[test]
    fn executes_and_stores_correct_values() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 4, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let x = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FAdd, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(4), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let init = DataInit::new();
        let mut mem = memory_from_init(&m.symtab, &init);
        for (k, v) in [1.5f64, 2.5, 3.0, -1.0].iter().enumerate() {
            mem[k] = v.to_bits();
        }
        let res = simulate(&m, &Machine::issue(2), mem, 10_000).unwrap();
        let out_val = read_symbol(&m.symtab, &res.memory, out);
        assert_eq!(out_val, ArrayVal::F(vec![6.0]));
    }

    #[test]
    fn issue_width_changes_cycles_not_results() {
        // Independent movs: 8-wide finishes faster than 1-wide.
        let mut m = Module::new("t");
        let out = m.symtab.declare("out", 8, RegClass::Int);
        let f = &mut m.func;
        let regs: Vec<Reg> = (0..8).map(|_| f.new_reg(RegClass::Int)).collect();
        let blk = f.add_block("b");
        let mut insts: Vec<Inst> = regs
            .iter()
            .enumerate()
            .map(|(k, &r)| Inst::mov(r, Operand::ImmI(k as i64 * 3)))
            .collect();
        for (k, &r) in regs.iter().enumerate() {
            insts.push(Inst::store(
                Operand::Sym(out),
                Operand::ImmI(k as i64),
                r.into(),
                MemLoc::affine(out, 0, k as i64),
            ));
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;

        let r1 = simulate(&m, &Machine::issue(1), vec![0; 8], 1000).unwrap();
        let r8 = simulate(&m, &Machine::issue(8), vec![0; 8], 1000).unwrap();
        assert!(r8.cycles < r1.cycles);
        assert_eq!(r1.memory, r8.memory);
        assert_eq!(read_symbol(&m.symtab, &r8.memory, out), ArrayVal::I(vec![0, 3, 6, 9, 12, 15, 18, 21]));
    }

    #[test]
    fn taken_branch_costs_a_cycle_and_squashes() {
        // br taken at 0; the mov after it must not execute.
        let mut m = Module::new("t");
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let x = f.new_reg(RegClass::Int);
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        f.block_mut(b0).insts.extend([
            Inst::br(Cond::Eq, Operand::ImmI(0), Operand::ImmI(0), b1),
            Inst::mov(x, Operand::ImmI(99)), // squashed
        ]);
        f.block_mut(b1).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), x.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let res = simulate(&m, &Machine::issue(8), vec![0], 100).unwrap();
        assert_eq!(read_symbol(&m.symtab, &res.memory, out), ArrayVal::I(vec![0]));
        // br at 0, store at 1, halt at 1 → 2 cycles.
        assert_eq!(res.cycles, 2);
        assert_eq!(res.dyn_insts, 2);
    }

    #[test]
    fn nonexcepting_oob_load_reads_zero() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 2, RegClass::Int);
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let v = f.new_reg(RegClass::Int);
        let blk = f.add_block("b");
        f.block_mut(blk).insts.extend([
            Inst::load(v, Operand::Sym(a), Operand::ImmI(999_999), MemLoc::opaque(a)),
            Inst::store(Operand::Sym(out), Operand::ImmI(0), v.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let res = simulate(&m, &Machine::issue(1), vec![7, 7, 42], 100).unwrap();
        assert_eq!(read_symbol(&m.symtab, &res.memory, out), ArrayVal::I(vec![0]));
    }

    #[test]
    fn memory_port_limit_slows_but_preserves_results() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 8, RegClass::Flt);
        let out = m.symtab.declare("out", 8, RegClass::Flt);
        let f = &mut m.func;
        let regs: Vec<Reg> = (0..8).map(|_| f.new_reg(RegClass::Flt)).collect();
        let blk = f.add_block("b");
        let mut insts: Vec<Inst> = regs
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                Inst::load(r, Operand::Sym(a), Operand::ImmI(k as i64), MemLoc::affine(a, 0, k as i64))
            })
            .collect();
        for (k, &r) in regs.iter().enumerate() {
            insts.push(Inst::store(
                Operand::Sym(out),
                Operand::ImmI(k as i64),
                r.into(),
                MemLoc::affine(out, 0, k as i64),
            ));
        }
        insts.push(Inst::halt());
        f.block_mut(blk).insts = insts;
        let mem: Vec<u64> = (0..16).map(|k| (k as f64).to_bits()).collect();
        let wide = simulate(&m, &Machine::issue(8), mem.clone(), 1000).unwrap();
        let narrow =
            simulate(&m, &Machine::issue(8).with_mem_ports(1), mem, 1000).unwrap();
        assert!(narrow.cycles > wide.cycles);
        assert_eq!(narrow.memory, wide.memory);
    }

    #[test]
    fn runaway_loop_hits_cycle_limit() {
        let mut m = Module::new("t");
        let f = &mut m.func;
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        f.block_mut(b0).insts.push(Inst::jump(b0));
        f.block_mut(b1).insts.push(Inst::halt());
        match simulate(&m, &Machine::issue(1), vec![], 100) {
            Err(SimError::CycleLimit(100)) => {}
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }

    /// A hand-edited/truncated module (missing dst, memory tag or branch
    /// target) surfaces as the verifier's `SimError::Malformed`, with the
    /// coordinates and code of its first fault, not a panic.
    #[test]
    fn malformed_module_is_a_structured_error() {
        let build = |tamper: fn(&mut Inst)| {
            let mut m = Module::new("t");
            let a = m.symtab.declare("A", 4, RegClass::Flt);
            let f = &mut m.func;
            let x = f.new_reg(RegClass::Flt);
            let blk = f.add_block("b");
            let mut insts = vec![
                Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 1, 0)),
                Inst::alu(Opcode::FAdd, x, x.into(), x.into()),
                Inst::br(Cond::Lt, Operand::ImmI(0), Operand::ImmI(1), blk),
                Inst::halt(),
            ];
            tamper(&mut insts[0]);
            tamper(&mut insts[1]);
            tamper(&mut insts[2]);
            f.block_mut(blk).insts = insts;
            m
        };
        let cases: [(fn(&mut Inst), usize, &str); 3] = [
            (|i| i.dst = None, 0, "operand-shape"),
            (|i| i.mem = None, 0, "mem-tag"),
            (|i| i.target = None, 2, "target-shape"),
        ];
        for (tamper, index, reason) in cases {
            let m = build(tamper);
            let err = simulate(&m, &Machine::issue(2), vec![0; 8], 1000).unwrap_err();
            assert_eq!(err, SimError::Malformed { block: BlockId(0), index, reason });
        }
    }

    /// The watchdog catches runaway *work* under a generous cycle budget:
    /// a wide machine retiring many instructions per cycle trips the
    /// dynamic-instruction limit long before the cycle limit.
    #[test]
    fn dyn_inst_watchdog_fires_on_runaway_wide_loop() {
        let mut m = Module::new("t");
        let f = &mut m.func;
        let regs: Vec<Reg> = (0..16).map(|_| f.new_reg(RegClass::Int)).collect();
        let b0 = f.add_block("b0");
        let mut insts: Vec<Inst> =
            regs.iter().map(|&r| Inst::mov(r, Operand::ImmI(1))).collect();
        insts.push(Inst::jump(b0));
        f.block_mut(b0).insts = insts;
        let limits = SimLimits { max_cycles: 1_000_000, max_dyn_insts: 1_000 };
        match simulate_limited(&m, &Machine::unlimited(), vec![], limits) {
            Err(SimError::DynInstLimit(1_000)) => {}
            other => panic!("expected dyn-inst limit, got {other:?}"),
        }
        // The default derived watchdog never fires on a legitimate run.
        assert_eq!(SimLimits::cycles(100).max_dyn_insts, 1_600);
        assert_eq!(SimLimits::cycles(u64::MAX).max_dyn_insts, u64::MAX);
    }

    /// Wrong-class and empty operands surface as the verifier's
    /// `SimError::Malformed` (once panics): an empty ALU slot, a float
    /// register fed to an integer add, a class-mismatched write, a
    /// mixed-class branch compare, and an out-of-range register id.
    #[test]
    fn operand_and_class_corruption_is_a_structured_error() {
        let run = |edit: fn(&mut Inst, Reg, Reg)| {
            let mut m = Module::new("t");
            let out = m.symtab.declare("out", 1, RegClass::Int);
            let f = &mut m.func;
            let ri = f.new_reg(RegClass::Int);
            let rf = f.new_reg(RegClass::Flt);
            let blk = f.add_block("b");
            let mut insts = vec![
                Inst::mov(ri, Operand::ImmI(3)),
                Inst::mov(rf, Operand::ImmF(1.5)),
                Inst::alu(Opcode::Add, ri, ri.into(), Operand::ImmI(1)),
                Inst::br(Cond::Lt, ri.into(), Operand::ImmI(0), blk),
                Inst::store(
                    Operand::Sym(out),
                    Operand::ImmI(0),
                    ri.into(),
                    MemLoc::affine(out, 0, 0),
                ),
                Inst::halt(),
            ];
            edit(&mut insts[2], ri, rf);
            edit(&mut insts[3], ri, rf);
            f.block_mut(blk).insts = insts;
            simulate(&m, &Machine::issue(2), vec![0], 1000)
        };
        let cases: [(fn(&mut Inst, Reg, Reg), usize, &str); 5] = [
            (|i, _, _| i.src[0] = Operand::None, 2, "operand-shape"),
            (
                |i, _, rf| {
                    if i.op == Opcode::Add {
                        i.src[0] = rf.into();
                    }
                },
                2,
                "class-mismatch",
            ),
            (
                |i, _, rf| {
                    if i.op == Opcode::Add {
                        i.dst = Some(rf);
                    }
                },
                2,
                "class-mismatch",
            ),
            (
                |i, _, rf| {
                    if i.op.is_branch() {
                        i.src[0] = rf.into();
                    }
                },
                3,
                "class-mismatch",
            ),
            (
                |i, _, _| {
                    if i.op == Opcode::Add {
                        i.dst = Some(Reg::int(4096));
                    }
                },
                2,
                "reg-range",
            ),
        ];
        for (edit, index, reason) in cases {
            let err = run(edit).unwrap_err();
            assert_eq!(err, SimError::Malformed { block: BlockId(0), index, reason });
        }
    }

    /// Every way a module could once trap in the engine — one case per
    /// reason the decoder used to record — plus a branch to a block that
    /// does not exist and a function with no layout (both panics once) is
    /// rejected by the verifier before any cycle, through all three entry
    /// points, with the fault's coordinates and the verifier's code.
    #[test]
    fn malformed_modules_are_rejected_before_any_cycle() {
        let build = || {
            let mut m = Module::new("t");
            let a = m.symtab.declare("A", 8, RegClass::Flt);
            let out = m.symtab.declare("out", 1, RegClass::Int);
            let f = &mut m.func;
            let (ri, rf, rv) =
                (f.new_reg(RegClass::Int), f.new_reg(RegClass::Flt), f.new_reg(RegClass::Vec));
            let b = f.add_block("b");
            f.block_mut(b).insts = vec![
                Inst::mov(ri, Operand::ImmI(3)),
                Inst::mov(rf, Operand::ImmF(1.5)),
                Inst::alu(Opcode::Add, ri, ri.into(), Operand::ImmI(1)),
                Inst::alu(Opcode::FAdd, rf, rf.into(), rf.into()),
                Inst::load(rf, Operand::Sym(a), Operand::ImmI(0), MemLoc::affine(a, 1, 0)),
                Inst::vsplat(rv, rf.into(), 4),
                Inst::vec_alu(Opcode::VAdd, rv, rv.into(), rv.into(), 4),
                Inst::br(Cond::Lt, ri.into(), Operand::ImmI(0), b),
                Inst::store(Operand::Sym(out), Operand::ImmI(0), ri.into(), MemLoc::affine(out, 0, 0)),
                Inst::halt(),
            ];
            m
        };
        let machine = Machine::issue(2);
        let healthy = simulate(&build(), &machine, vec![0; 9], 1000).unwrap();
        assert_eq!(healthy.memory[8], 4);
        type Corrupt = fn(&mut [Inst]);
        let cases: [(&str, Corrupt, usize, &str); 13] = [
            ("missing destination", |i| i[2].dst = None, 2, "operand-shape"),
            ("missing memory tag", |i| i[4].mem = None, 4, "mem-tag"),
            ("missing branch target", |i| i[7].target = None, 7, "target-shape"),
            ("empty operand", |i| i[3].src[1] = Operand::None, 3, "operand-shape"),
            ("unknown symbol", |i| i[4].src[0] = Operand::Sym(SymId(9)), 4, "unknown-sym"),
            ("float where integer", |i| i[2].src[1] = Operand::ImmF(1.0), 2, "class-mismatch"),
            ("integer where float", |i| i[3].src[1] = Operand::ImmI(1), 3, "class-mismatch"),
            ("write class", |i| i[2].dst = i[1].dst, 2, "class-mismatch"),
            ("mixed branch", |i| i[7].src[1] = Operand::ImmF(0.0), 7, "class-mismatch"),
            ("register range", |i| i[2].src[0] = Reg::int(4096).into(), 2, "reg-range"),
            ("vector where scalar", |i| i[0] = Inst::mov(i[5].dst.unwrap(), i[6].src[0]), 0, "class-mismatch"),
            ("scalar where vector", |i| i[6].src[1] = i[3].src[0], 6, "class-mismatch"),
            ("target out of range", |i| i[7].target = Some(BlockId(7)), 7, "dangling-target"),
        ];
        let mut modules: Vec<(&str, Module, SimError)> = cases
            .into_iter()
            .map(|(what, corrupt, index, reason)| {
                let mut m = build();
                corrupt(&mut m.func.block_mut(BlockId(0)).insts);
                (what, m, SimError::Malformed { block: BlockId(0), index, reason })
            })
            .collect();
        let mut empty = build();
        empty.func.layout.clear();
        let no_entry = SimError::Malformed { block: BlockId(0), index: 0, reason: "no-entry" };
        modules.push(("empty layout", empty, no_entry));
        let limits = SimLimits::cycles(1000);
        for (what, m, want) in modules {
            let program = decode(&m, &machine);
            assert_eq!(program.num_records(), 0, "{what}");
            let runs = [
                simulate(&m, &machine, vec![0; 9], 1000),
                simulate_limited(&m, &machine, vec![0; 9], limits),
                simulate_decoded(&program, &machine, vec![0; 9], limits),
            ];
            for run in runs {
                assert_eq!(run.unwrap_err(), want, "{what}");
            }
        }
    }

    /// Only the stores of a load's own cycle can delay it, all of them. On
    /// a 128-wide machine 65 independent stores and then a load issue in
    /// cycle 0; the load aliases the first store alone, so both engines
    /// hold it to cycle 1 however many stores followed that one. Run 50
    /// times in a loop, the same block is a steady-state template of 66
    /// stores, replayed and equal to the oracle.
    #[test]
    fn a_load_meets_every_store_of_its_cycle() {
        let build = |looped: bool| {
            let mut m = Module::new("t");
            let a = m.symtab.declare("A", 66, RegClass::Int);
            let f = &mut m.func;
            let (i, x) = (f.new_reg(RegClass::Int), f.new_reg(RegClass::Int));
            let entry = f.add_block("entry");
            let body = f.add_block("body");
            let exit = f.add_block("exit");
            f.block_mut(entry).insts.push(Inst::mov(i, Operand::ImmI(0)));
            let at = |k: i64| (Operand::Sym(a), Operand::ImmI(k), MemLoc::affine(a, 0, k));
            let store = |k: i64, v: Operand| {
                let (base, off, tag) = at(k);
                Inst::store(base, off, v, tag)
            };
            let (base, off, tag) = at(0);
            let insts = &mut f.block_mut(body).insts;
            insts.extend((0..65).map(|k| store(k, Operand::ImmI(k + 1))));
            insts.push(Inst::load(x, base, off, tag));
            insts.push(store(65, x.into()));
            if looped {
                insts.push(Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)));
                insts.push(Inst::br(Cond::Lt, i.into(), Operand::ImmI(50), body));
            }
            f.block_mut(exit).insts.push(Inst::halt());
            m
        };
        let machine = Machine::issue(128);
        let limits = SimLimits::cycles(10_000);
        let once = agree(&build(false), &machine, vec![0; 66], limits).unwrap();
        // The load at cycle 1 reads the first store; its use waits a load
        // latency more.
        assert_eq!(once.memory[65], 1);
        let load = machine.latency.load as u64;
        assert_eq!(once.cycles, 1 + load + 1);
        let looped = agree(&build(true), &machine, vec![0; 66], limits).unwrap();
        assert!(looped.replayed_insts > 0, "{looped:?}");
    }

    /// A streaming-sum module over `A[0..n]` (serial FP accumulation).
    fn sum_module(n: usize) -> (Module, ilpc_ir::SymId) {
        let mut m = Module::new("sum");
        let a = m.symtab.declare("A", n, RegClass::Flt);
        let out = m.symtab.declare("out", 1, RegClass::Flt);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let s = f.new_reg(RegClass::Flt);
        let x = f.new_reg(RegClass::Flt);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmF(0.0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::alu(Opcode::FAdd, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(n as i64), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        (m, out)
    }

    #[test]
    fn cache_misses_slow_timing_but_never_change_results() {
        use ilpc_machine::CacheParams;
        let n = 64usize;
        let (m, out) = sum_module(n);
        let mut mem = vec![0u64; n + 1];
        for (k, w) in mem.iter_mut().enumerate().take(n) {
            *w = (k as f64).to_bits();
        }
        let perfect = simulate(&m, &Machine::issue(4), mem.clone(), 1_000_000).unwrap();
        // A 4-word-line cache streams A with one miss per line.
        let cached_machine =
            Machine::issue(4).with_cache(CacheParams::new(4, 4, 1, 20, 20));
        let cached = simulate(&m, &cached_machine, mem, 1_000_000).unwrap();

        assert_eq!(perfect.memory, cached.memory, "timing must not change results");
        assert_eq!(perfect.dyn_insts, cached.dyn_insts);
        assert_eq!(
            read_symbol(&m.symtab, &cached.memory, out),
            ArrayVal::F(vec![(0..n).map(|k| k as f64).sum()]),
        );
        // Perfect memory: every access is a hit, zero stall cycles.
        assert_eq!(perfect.mem.loads, n as u64);
        assert_eq!(perfect.mem.stores, 1);
        assert_eq!(perfect.mem.misses(), 0);
        assert_eq!(perfect.mem.miss_cycles, 0);
        // Finite cache: 16 cold line fills for A + the store miss.
        assert_eq!(cached.mem.load_misses, 16);
        assert_eq!(cached.mem.store_misses, 1);
        assert_eq!(cached.mem.miss_cycles, 17 * 20);
        assert_eq!(cached.mem.accesses(), cached.mem.hits() + cached.mem.misses());
        // The serial sum chains load→fadd, so miss cycles surface in time.
        assert!(
            cached.cycles > perfect.cycles,
            "{} !> {}",
            cached.cycles,
            perfect.cycles
        );
    }

    #[test]
    fn store_miss_blocks_in_order_issue() {
        use ilpc_machine::CacheParams;
        let mut m = Module::new("t");
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let blk = f.add_block("b");
        f.block_mut(blk).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), Operand::ImmI(9), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let perfect = simulate(&m, &Machine::issue(8), vec![0], 100).unwrap();
        let machine = Machine::issue(8).with_cache(CacheParams::new(1, 1, 1, 30, 10));
        let cached = simulate(&m, &machine, vec![0], 100).unwrap();
        // store at 0; halt co-issues at 0 → 1 cycle. The 10-cycle store
        // miss stalls issue: halt at 10 → 11 cycles.
        assert_eq!(perfect.cycles, 1);
        assert_eq!(cached.cycles, 11);
        assert_eq!(read_symbol(&m.symtab, &cached.memory, out), ArrayVal::I(vec![9]));
        assert_eq!(cached.mem.store_misses, 1);
        assert_eq!(cached.mem.miss_cycles, 10);
    }

    #[test]
    fn store_load_forwarding_delay() {
        // A load aliasing a same-cycle store is pushed one cycle.
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 2, RegClass::Int);
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let v = f.new_reg(RegClass::Int);
        let blk = f.add_block("b");
        let tag = MemLoc::affine(a, 0, 0);
        f.block_mut(blk).insts.extend([
            Inst::store(Operand::Sym(a), Operand::ImmI(0), Operand::ImmI(5), tag),
            Inst::load(v, Operand::Sym(a), Operand::ImmI(0), tag),
            Inst::store(Operand::Sym(out), Operand::ImmI(0), v.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let res = simulate(&m, &Machine::issue(8), vec![0; 3], 100).unwrap();
        assert_eq!(read_symbol(&m.symtab, &res.memory, out), ArrayVal::I(vec![5]));
        // store at 0; load pushed to 1, ready 3; store out at 3; halt 3 → 4.
        assert_eq!(res.cycles, 4);
    }

    /// The pre-decoded engine and the legacy oracle agree on every
    /// observable — cycles, work, memory image, branch profile, memory
    /// stats — under perfect and cached memory alike. (The exhaustive
    /// version of this check runs over the full grid in
    /// `tests/engine_differential.rs`.)
    #[test]
    fn decoded_engine_matches_reference_oracle() {
        use ilpc_machine::CacheParams;
        let n = 64usize;
        let (m, _) = sum_module(n);
        let mut mem = vec![0u64; n + 1];
        for (k, w) in mem.iter_mut().enumerate().take(n) {
            *w = (k as f64 * 0.5).to_bits();
        }
        for machine in [
            Machine::issue(1),
            Machine::issue(4),
            Machine::unlimited(),
            Machine::issue(4).with_cache(CacheParams::new(4, 4, 1, 20, 20)),
        ] {
            let fast = agree(&m, &machine, mem.clone(), SimLimits::cycles(1_000_000)).unwrap();
            // The 64-iteration loop reaches its steady state, under the
            // cache too (a miss every fourth iteration).
            assert!(fast.replayed_insts > 0, "{machine:?}");
        }
    }

    /// Run `m` on both engines and assert they agree on every observable,
    /// or on the error; returns the decoded engine's outcome.
    fn agree(
        m: &Module,
        machine: &Machine,
        mem: Vec<u64>,
        limits: SimLimits,
    ) -> Result<SimResult, SimError> {
        let fast = simulate_limited(m, machine, mem.clone(), limits);
        let oracle = reference::simulate_limited_reference(m, machine, mem, limits);
        match (&fast, &oracle) {
            (Ok(f), Ok(o)) => {
                assert_eq!(f.cycles, o.cycles, "cycles");
                assert_eq!(f.dyn_insts, o.dyn_insts, "dyn_insts");
                assert_eq!(f.memory, o.memory, "memory image");
                assert_eq!(f.branch_profile, o.branch_profile, "branch profile");
                assert_eq!(f.mem, o.mem, "mem stats");
                assert_eq!((o.replayed_insts, o.elided_insts), (0, 0));
                assert!(f.elided_insts <= f.replayed_insts && f.replayed_insts <= f.dyn_insts);
            }
            (Err(f), Err(o)) => assert_eq!(f, o),
            _ => panic!("engines disagree: {fast:?} vs {oracle:?}"),
        }
        fast
    }

    /// Loops that never exit end in the stepping engine's budget errors:
    /// the fast path stops while a whole iteration still fits the budget.
    #[test]
    fn steady_state_runaway_loops_end_in_the_same_limit() {
        let mut m = Module::new("t");
        let f = &mut m.func;
        let regs: Vec<Reg> = (0..12).map(|_| f.new_reg(RegClass::Int)).collect();
        let b0 = f.add_block("b0");
        let mut insts: Vec<Inst> =
            regs.iter().map(|&r| Inst::alu(Opcode::Add, r, r.into(), Operand::ImmI(1))).collect();
        insts.push(Inst::jump(b0));
        f.block_mut(b0).insts = insts;
        for (machine, limits, want) in [
            (Machine::issue(2), SimLimits::cycles(10_007), SimError::CycleLimit(10_007)),
            (
                Machine::issue(8),
                SimLimits { max_cycles: 1_000_000, max_dyn_insts: 20_011 },
                SimError::DynInstLimit(20_011),
            ),
        ] {
            assert_eq!(agree(&m, &machine, vec![], limits).unwrap_err(), want);
        }
    }

    /// A counted loop whose body branches to `side` when `i == 77` and
    /// leaves after 100 iterations: returns the module and `side`.
    fn loop_with_late_side_exit() -> (Module, BlockId) {
        let mut m = Module::new("t");
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let side = f.add_block("side");
        f.block_mut(entry).insts.push(Inst::mov(i, Operand::ImmI(0)));
        f.block_mut(body).insts.extend([
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Eq, i.into(), Operand::ImmI(77), side),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(100), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        f.block_mut(side).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), i.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        (m, side)
    }

    /// A malformed record on a path first taken in iteration 77 is
    /// rejected before the first cycle, not when control reaches it: the
    /// run that would replay 76 iterations first returns the verifier's
    /// error even with no budget for a single instruction.
    #[test]
    fn steady_state_leaves_for_a_late_trap() {
        let (mut m, side) = loop_with_late_side_exit();
        let machine = Machine::issue(4);
        let healthy = agree(&m, &machine, vec![0], SimLimits::cycles(10_000)).unwrap();
        assert_eq!(healthy.memory, vec![77]);
        assert!(healthy.replayed_insts > 0);
        let nothing = SimLimits { max_cycles: 0, max_dyn_insts: 0 };
        let starved = simulate_limited(&m, &machine, vec![0], nothing).unwrap_err();
        assert_eq!(starved, SimError::DynInstLimit(0));
        m.func.block_mut(side).insts[0].mem = None;
        let want = SimError::Malformed { block: side, index: 0, reason: "mem-tag" };
        for limits in [SimLimits::cycles(10_000), nothing] {
            assert_eq!(simulate_limited(&m, &machine, vec![0], limits).unwrap_err(), want);
        }
    }

    /// A search loop leaving mid-body on a match at element 200: results,
    /// cycles, profile and memory counters equal the oracle's, and most of
    /// the scan ran on the fast path.
    #[test]
    fn steady_state_search_loop_exits_mid_body() {
        let n = 256;
        let mut m = Module::new("search");
        let a = m.symtab.declare("A", n, RegClass::Int);
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let x = f.new_reg(RegClass::Int);
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let rest = f.add_block("rest");
        let miss = f.add_block("miss");
        let hit = f.add_block("hit");
        f.block_mut(entry).insts.push(Inst::mov(i, Operand::ImmI(0)));
        f.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::br(Cond::Eq, x.into(), Operand::ImmI(-5), hit),
        ]);
        f.block_mut(rest).insts.extend([
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(n as i64), body),
        ]);
        f.block_mut(miss).insts.extend([Inst::mov(i, Operand::ImmI(-1)), Inst::jump(hit)]);
        f.block_mut(hit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), i.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        let mut mem: Vec<u64> = (0..=n as u64).collect();
        mem[200] = -5i64 as u64;
        for machine in [Machine::issue(1), Machine::issue(8)] {
            let r = agree(&m, &machine, mem.clone(), SimLimits::cycles(100_000)).unwrap();
            assert_eq!(r.memory[n], 200);
            assert!(r.replayed_insts * 10 > r.dyn_insts * 9, "{r:?}");
        }
    }

    /// FU limits leave slot state mid-cycle everywhere but at a taken
    /// transfer, where the fast path starts: a one-port machine still
    /// fast-forwards, exactly.
    #[test]
    fn steady_state_on_an_fu_limited_machine() {
        let (m, _) = sum_module(64);
        let mem: Vec<u64> = (0..65).map(|k| (k as f64).to_bits()).collect();
        for machine in [Machine::issue(4).with_mem_ports(1), Machine::issue(2).with_fp_units(1)] {
            let r = agree(&m, &machine, mem.clone(), SimLimits::cycles(100_000)).unwrap();
            assert!(r.replayed_insts > 0, "{machine:?}");
        }
    }

    /// With branch latency 0 the next iteration starts in the back-edge
    /// cycle, where a store issued beside the branch still delays an
    /// aliasing load: such an arrival is refused, one whose store issued a
    /// cycle earlier is not.
    #[test]
    fn steady_state_with_zero_latency_branches() {
        let machine = Machine {
            latency: ilpc_machine::LatencyTable { branch: 0, ..ilpc_machine::TABLE1 },
            ..Machine::issue(4)
        };
        let store_index = |in_branch_cycle: bool| {
            let mut m = Module::new("t");
            let a = m.symtab.declare("A", 64, RegClass::Int);
            let f = &mut m.func;
            let i = f.new_reg(RegClass::Int);
            let x = f.new_reg(RegClass::Int);
            let entry = f.add_block("entry");
            let body = f.add_block("body");
            let exit = f.add_block("exit");
            f.block_mut(entry).insts.push(Inst::mov(i, Operand::ImmI(0)));
            // The store's index is `i` (ready with the branch's operand) or
            // a constant (ready at once).
            let at = if in_branch_cycle { i.into() } else { Operand::ImmI(63) };
            f.block_mut(body).insts.extend([
                Inst::load(x, Operand::Sym(a), Operand::ImmI(0), MemLoc::opaque(a)),
                Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
                Inst::store(Operand::Sym(a), at, Operand::ImmI(9), MemLoc::opaque(a)),
                Inst::br(Cond::Lt, i.into(), Operand::ImmI(48), body),
            ]);
            f.block_mut(exit).insts.push(Inst::halt());
            agree(&m, &machine, vec![7; 64], SimLimits::cycles(100_000)).unwrap()
        };
        assert_eq!(store_index(true).replayed_insts, 0);
        assert!(store_index(false).replayed_insts > 0);
    }

    /// The periods of the templates that retired blocks in the last run on
    /// this thread.
    fn periods() -> Vec<usize> {
        decoded::PERIODS.take()
    }

    /// `out[0] = Σ A[r·cols + c]` over `rows × cols`, as a two-deep nest
    /// whose inner loop loads one element (and, when `write`, stores each
    /// running sum to `D[r·cols + c]`, declared between `A` and `out`).
    fn nest_module(rows: usize, cols: usize, write: bool) -> Module {
        let mut m = Module::new("nest");
        let a = m.symtab.declare("A", rows * cols, RegClass::Int);
        let d = m.symtab.declare("D", if write { rows * cols } else { 0 }, RegClass::Int);
        let out = m.symtab.declare("out", 1, RegClass::Int);
        let f = &mut m.func;
        let [r, c, row, x, s] = [(); 5].map(|_| f.new_reg(RegClass::Int));
        let entry = f.add_block("entry");
        let outer = f.add_block("outer");
        let inner = f.add_block("inner");
        let next = f.add_block("next");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(r, Operand::ImmI(0)),
            Inst::mov(row, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmI(0)),
        ]);
        f.block_mut(outer).insts.push(Inst::mov(c, Operand::ImmI(0)));
        let elem = MemLoc::affine(a, 1, 0);
        let mut body = vec![
            Inst::alu(Opcode::Add, x, row.into(), c.into()),
            Inst::load(x, Operand::Sym(a), x.into(), elem),
            Inst::alu(Opcode::Add, s, s.into(), x.into()),
        ];
        if write {
            body.push(Inst::alu(Opcode::Add, x, row.into(), c.into()));
            body.push(Inst::store(Operand::Sym(d), x.into(), s.into(), MemLoc::affine(d, 1, 0)));
        }
        body.push(Inst::alu(Opcode::Add, c, c.into(), Operand::ImmI(1)));
        body.push(Inst::br(Cond::Lt, c.into(), Operand::ImmI(cols as i64), inner));
        f.block_mut(inner).insts = body;
        f.block_mut(next).insts.extend([
            Inst::alu(Opcode::Add, row, row.into(), Operand::ImmI(cols as i64)),
            Inst::alu(Opcode::Add, r, r.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, r.into(), Operand::ImmI(rows as i64), outer),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(out), Operand::ImmI(0), s.into(), MemLoc::affine(out, 0, 0)),
            Inst::halt(),
        ]);
        m
    }

    /// 4-word lines give a streaming loop a miss every fourth iteration:
    /// the fast path learns a four-iteration block and replays it, exactly.
    #[test]
    fn steady_state_cache_period_four_miss_pattern() {
        let (m, _) = sum_module(256);
        let mem: Vec<u64> = (0..257).map(|k| (k as f64).to_bits()).collect();
        for width in [1, 8] {
            let machine = Machine::issue(width).with_cache(CacheParams::new(4, 16, 2, 30, 10));
            let r = agree(&m, &machine, mem.clone(), SimLimits::cycles(100_000)).unwrap();
            assert_eq!(r.mem.load_misses, 64);
            assert!(r.replayed_insts * 10 > r.dyn_insts * 8, "{r:?}");
            // Two all-hit iterations may pass for period 1 before the
            // window has seen a miss; the loop is replayed in fours.
            assert_eq!(periods().last(), Some(&4), "issue {width}");
        }
    }

    /// Direct-mapped, 8 sets of 4 words: `A[i]` shares B's set once every
    /// 32 iterations, where the two lines evict each other. Each conflict
    /// hits a replayed block mid-way; the block is rewound, cache contents
    /// and counters included, and the loop is learned again after it.
    #[test]
    fn steady_state_cache_conflict_miss_rewinds_the_cache() {
        let n = 256;
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", n, RegClass::Int);
        let b = m.symtab.declare("B", 1, RegClass::Int);
        let f = &mut m.func;
        let [i, x, y, s] = [(); 4].map(|_| f.new_reg(RegClass::Int));
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(s, Operand::ImmI(0)),
        ]);
        f.block_mut(body).insts.extend([
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            Inst::load(y, Operand::Sym(b), Operand::ImmI(0), MemLoc::affine(b, 0, 0)),
            Inst::alu(Opcode::Add, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, s, s.into(), y.into()),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(n as i64), body),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(Operand::Sym(b), Operand::ImmI(0), s.into(), MemLoc::affine(b, 0, 0)),
            Inst::halt(),
        ]);
        let machine = Machine::issue(4).with_cache(CacheParams::new(4, 8, 1, 30, 10));
        let r = agree(&m, &machine, (0..=n as u64).collect(), SimLimits::cycles(100_000)).unwrap();
        assert!(r.mem.evictions > 2 * (n as u64 / 32), "B's line is evicted every round: {r:?}");
        assert!(r.replayed_insts * 5 > r.dyn_insts * 2, "{r:?}");
        let fours = periods().into_iter().filter(|&k| k == 4).count();
        assert_eq!(fours, 8, "learned again after each of the 8 conflicts");
    }

    /// A store miss blocks issue until its fill completes; with a store to
    /// each element the stall falls inside every fourth iteration of the
    /// template, and replays exactly. A dirty victim leaves through an L2.
    #[test]
    fn steady_state_cache_store_miss_stalls_inside_a_template() {
        let m = nest_module(1, 400, true);
        // With 8-word L2 lines, every other L1 miss also misses the L2: the
        // latencies repeat every eight iterations.
        for (params, period) in [
            (CacheParams::new(4, 16, 2, 30, 10), 4),
            (CacheParams::new(4, 16, 2, 30, 10).with_l2(8, 32, 2, 6), 8),
        ] {
            let machine = Machine::issue(4).with_cache(params);
            let r = agree(&m, &machine, (0..801).collect(), SimLimits::cycles(100_000)).unwrap();
            assert_eq!(r.mem.store_misses, 101, "{r:?}");
            assert!(r.replayed_insts * 10 > r.dyn_insts * 8, "{r:?}");
            assert_eq!(periods().last(), Some(&period), "{params:?}");
        }
    }

    /// A runaway loop streaming through the cache ends in the stepping
    /// engine's budget errors, after fast-forwards that stopped while a
    /// whole block still fit the budget.
    #[test]
    fn steady_state_cache_limits_inside_a_fast_forward() {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 256, RegClass::Int);
        let f = &mut m.func;
        let [i, j, x] = [(); 3].map(|_| f.new_reg(RegClass::Int));
        let b0 = f.add_block("b0");
        f.block_mut(b0).insts.extend([
            Inst::alu(Opcode::And, j, i.into(), Operand::ImmI(255)),
            Inst::load(x, Operand::Sym(a), j.into(), MemLoc::opaque(a)),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::jump(b0),
        ]);
        let machine = Machine::issue(2).with_cache(CacheParams::new(4, 4, 2, 30, 10));
        for (limits, want) in [
            (SimLimits::cycles(50_007), SimError::CycleLimit(50_007)),
            (
                SimLimits { max_cycles: 1_000_000, max_dyn_insts: 20_011 },
                SimError::DynInstLimit(20_011),
            ),
        ] {
            assert_eq!(agree(&m, &machine, vec![3; 256], limits).unwrap_err(), want);
            assert!(!periods().is_empty(), "{want:?}: no block was replayed");
        }
    }

    /// The NAS-5 shape: a two-deep nest whose rows are 37 words long, so
    /// each row starts at a different offset in a line and its miss phase
    /// shifts. A template from one row does not fit the next; it is
    /// dropped and the row learns its own.
    #[test]
    fn steady_state_cache_nest_with_a_shifting_miss_phase() {
        let m = nest_module(12, 37, false);
        let machine = Machine::issue(4).with_cache(CacheParams::new(4, 16, 2, 30, 10));
        let mem = (0..12 * 37 + 1).collect();
        let r = agree(&m, &machine, mem, SimLimits::cycles(100_000)).unwrap();
        assert_eq!(r.memory[12 * 37], (0..12 * 37).sum::<u64>());
        assert!(r.replayed_insts * 2 > r.dyn_insts, "{r:?}");
        assert!(periods().len() >= 12, "every row replays");
    }

    /// A loop whose path alternates (odd iterations run a multiply the
    /// even ones branch around), so its blocks are two iterations long or
    /// more. Every iteration writes `s` and adds it to `A[i]` in memory
    /// (storing the word twice), and the last one leaves at the back edge
    /// after its stores: each trip
    /// count puts that exit at another point of a block and of a checkpoint
    /// batch, and the stepped iteration that follows the rewind must see
    /// its registers and the word it loads as they were before it.
    #[test]
    fn steady_state_rewinds_a_multi_iteration_block_left_after_a_store() {
        let module = |n: usize| {
            let mut m = Module::new("t");
            let a = m.symtab.declare("A", n, RegClass::Int);
            let f = &mut m.func;
            let [i, s, t, p, x] = [(); 5].map(|_| f.new_reg(RegClass::Int));
            let entry = f.add_block("entry");
            let body = f.add_block("body");
            let odd = f.add_block("odd");
            let latch = f.add_block("latch");
            let exit = f.add_block("exit");
            f.block_mut(entry).insts.extend([
                Inst::mov(i, Operand::ImmI(0)),
                Inst::mov(s, Operand::ImmI(0)),
            ]);
            f.block_mut(body).insts.extend([
                Inst::alu(Opcode::And, t, i.into(), Operand::ImmI(1)),
                Inst::alu(Opcode::Add, s, s.into(), i.into()),
                Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
                Inst::alu(Opcode::Add, x, x.into(), s.into()),
                Inst::store(Operand::Sym(a), i.into(), x.into(), MemLoc::affine(a, 1, 0)),
                Inst::alu(Opcode::Add, x, x.into(), Operand::ImmI(1)),
                Inst::store(Operand::Sym(a), i.into(), x.into(), MemLoc::affine(a, 1, 0)),
                Inst::br(Cond::Eq, t.into(), Operand::ImmI(0), latch),
            ]);
            f.block_mut(odd).insts.push(Inst::alu(Opcode::Mul, p, i.into(), Operand::ImmI(3)));
            f.block_mut(latch).insts.extend([
                Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
                Inst::br(Cond::Lt, i.into(), Operand::ImmI(n as i64), body),
            ]);
            f.block_mut(exit).insts.push(Inst::halt());
            m
        };
        let cache = CacheParams::small();
        for machine in [Machine::issue(4), Machine::issue(1), Machine::issue(4).with_cache(cache)] {
            for n in 150..158 {
                let limits = SimLimits::cycles(100_000);
                let r = agree(&module(n), &machine, vec![7; n], limits).unwrap();
                assert_eq!(r.memory[n - 1], 8 + (0..n as u64).sum::<u64>());
                assert!(r.replayed_insts * 10 > r.dyn_insts * 8, "{machine:?} n={n}: {r:?}");
                let periods = periods();
                assert!(!periods.is_empty() && periods.iter().all(|&k| k >= 2), "{periods:?}");
            }
        }
    }

    /// Loads and stores whose constant term (a symbol base or an
    /// immediate) sits in either address operand, or in neither, and
    /// addresses whose folded displacement lands past either end of
    /// memory: such a load reads 0 and such a store is dropped, in
    /// replayed blocks as in stepped ones.
    #[test]
    fn steady_state_folds_constant_address_terms_in_either_operand() {
        let n = 96usize;
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", n + 1, RegClass::Int);
        let b = m.symtab.declare("B", 2 * n, RegClass::Int);
        let f = &mut m.func;
        let [i, base, x, y, z, u, v, w, s] = [(); 9].map(|_| f.new_reg(RegClass::Int));
        let entry = f.add_block("entry");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        // Past the end (as a 32-bit displacement, and beyond one), and
        // below address 0.
        let (past, far) = (Operand::ImmI(1 << 12), Operand::ImmI(1 << 40));
        let below = Operand::ImmI(-(1 << 20));
        let with_ext = |mut inst: Inst, ext: i64| {
            inst.ext = ext;
            inst
        };
        f.block_mut(entry).insts.extend([
            Inst::mov(i, Operand::ImmI(0)),
            Inst::mov(base, Operand::Sym(b)),
        ]);
        f.block_mut(body).insts.extend([
            // A[i], A[i + 1], B[n + i] (a two-register address), then
            // words past the end and below address 0: all three read 0.
            Inst::load(x, Operand::Sym(a), i.into(), MemLoc::affine(a, 1, 0)),
            with_ext(Inst::load(y, i.into(), Operand::Sym(a), MemLoc::affine(a, 1, 1)), 1),
            with_ext(Inst::load(z, base.into(), i.into(), MemLoc::opaque(b)), n as i64),
            Inst::load(u, far, i.into(), MemLoc::opaque(a)),
            Inst::load(v, i.into(), below, MemLoc::opaque(a)),
            Inst::load(w, past, i.into(), MemLoc::opaque(a)),
            Inst::alu(Opcode::Add, s, x.into(), y.into()),
            Inst::alu(Opcode::Add, s, s.into(), z.into()),
            Inst::alu(Opcode::Add, s, s.into(), u.into()),
            Inst::alu(Opcode::Add, s, s.into(), v.into()),
            Inst::alu(Opcode::Add, s, s.into(), w.into()),
            // B[i] = s, B[n + i] = x, A[1] = s (both terms constant), and
            // three stores that fall outside memory and are dropped.
            Inst::store(Operand::Sym(b), i.into(), s.into(), MemLoc::affine(b, 1, 0)),
            with_ext(Inst::store(i.into(), base.into(), x.into(), MemLoc::opaque(b)), n as i64),
            Inst::store(Operand::Sym(a), Operand::ImmI(1), s.into(), MemLoc::affine(a, 0, 1)),
            Inst::store(i.into(), far, s.into(), MemLoc::opaque(b)),
            Inst::store(below, i.into(), s.into(), MemLoc::opaque(b)),
            Inst::store(i.into(), past, s.into(), MemLoc::opaque(b)),
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::br(Cond::Lt, i.into(), Operand::ImmI(n as i64), body),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        let init: Vec<u64> = (0..3 * n as u64 + 1).map(|k| 3 * k + 1).collect();
        let cache = CacheParams::new(4, 64, 4, 12, 12);
        for machine in [Machine::issue(1), Machine::issue(8), Machine::issue(4).with_cache(cache)] {
            let r = agree(&m, &machine, init.clone(), SimLimits::cycles(100_000)).unwrap();
            assert!(r.replayed_insts * 10 > r.dyn_insts * 8, "{machine:?}: {r:?}");
            assert_eq!(r.memory.len(), init.len(), "a store past the end grew memory");
            // The last iteration stored its sum to B[n - 1] and A[1], and
            // the A[n - 1] it loaded to B[2n - 1].
            let last = n - 1;
            let b0 = n + 1;
            assert_eq!(r.memory[b0 + n + last], r.memory[last]);
            assert_eq!(r.memory[1], r.memory[b0 + last]);
        }
    }

    /// Run `m` from `mem` on both engines and hold them equal (`agree`):
    /// under perfect memory and a direct-mapped cache of 64 four-word
    /// lines, each with room to spare (the loop leaves on its exit branch)
    /// and with either budget at exactly what the run needs (the last
    /// fast-forward stops on the budget, a block short of the exit). A word
    /// loaded every iteration from past a 1000-word array shares a line's
    /// set with the array every 256 iterations, where a replayed block
    /// leaves on a latency. Returns the roomy runs' results.
    fn every_way_of_leaving(m: &Module, mem: Vec<u64>) -> [SimResult; 2] {
        let cache = CacheParams::new(4, 64, 1, 30, 10);
        [Machine::issue(4), Machine::issue(4).with_cache(cache)].map(|machine| {
            let roomy = SimLimits::cycles(1_000_000);
            let r = agree(m, &machine, mem.clone(), roomy).unwrap();
            for tight in [
                SimLimits {
                    max_cycles: r.cycles - 1,
                    ..roomy
                },
                // Halt is checked against the budget before it is uncounted.
                SimLimits {
                    max_dyn_insts: r.dyn_insts + 1,
                    ..roomy
                },
            ] {
                agree(m, &machine, mem.clone(), tight).unwrap();
            }
            r
        })
    }

    /// A top-tested loop over a 1000-word array `A` followed by the word
    /// `K`, whose `body` the caller fills; it then steps `i` and jumps back
    /// to the exit check. Returns the module, `body`, `exit` and `[i, A, K]`
    /// with `A` and `K` as operands.
    fn top_tested_loop() -> (Module, BlockId, BlockId, Reg, [Operand; 2]) {
        let mut m = Module::new("t");
        let a = m.symtab.declare("A", 1000, RegClass::Int);
        let k = m.symtab.declare("K", 1, RegClass::Int);
        m.symtab.declare("OUT", 1, RegClass::Int);
        let f = &mut m.func;
        let i = f.new_reg(RegClass::Int);
        let entry = f.add_block("entry");
        let head = f.add_block("head");
        let body = f.add_block("body");
        let step = f.add_block("step");
        let exit = f.add_block("exit");
        f.block_mut(entry)
            .insts
            .push(Inst::mov(i, Operand::ImmI(0)));
        f.block_mut(head)
            .insts
            .push(Inst::br(Cond::Ge, i.into(), Operand::ImmI(1000), exit));
        f.block_mut(step).insts.extend([
            Inst::alu(Opcode::Add, i, i.into(), Operand::ImmI(1)),
            Inst::jump(head),
        ]);
        (m, body, exit, i, [Operand::Sym(a), Operand::Sym(k)])
    }

    /// A batch's last block runs the full replay program: `t = A[i] · K`
    /// is written before it is read, never stored in the loop and stored to
    /// `OUT` after it, so every block but a batch's last leaves it out. The
    /// loop tests its exit first, so the value `OUT` gets is the one the
    /// last replayed block left, not one a stepped iteration recomputed.
    #[test]
    fn steady_state_pruned_blocks_end_each_batch_on_the_full_program() {
        let (mut m, body, exit, i, [a, k]) = top_tested_loop();
        let out = Operand::Sym(SymId(2));
        let f = &mut m.func;
        let [t, x] = [(); 2].map(|_| f.new_reg(RegClass::Int));
        f.block_mut(body).insts.extend([
            Inst::load(t, a, i.into(), MemLoc::affine(SymId(0), 1, 0)),
            Inst::load(x, k, Operand::ImmI(0), MemLoc::affine(SymId(1), 0, 0)),
            Inst::alu(Opcode::Mul, t, t.into(), x.into()),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(
                out,
                Operand::ImmI(0),
                t.into(),
                MemLoc::affine(SymId(2), 0, 0),
            ),
            Inst::halt(),
        ]);
        let mem: Vec<u64> = (0..1000).chain([3, 0]).collect();
        for r in every_way_of_leaving(&m, mem) {
            assert_eq!(r.memory[1001], 999 * 3);
            assert!(
                r.replayed_insts * 10 > r.dyn_insts * 8 && r.elided_insts > 0,
                "{r:?}"
            );
        }
    }

    /// A store is left out only if no live load before the store that
    /// overwrites it may read its word: `A[i] = 0` is left out, but
    /// `A[i] = i`, overwritten by `A[i] = s`, is kept, for the load between
    /// them reads it through `p`, another register holding the same
    /// address.
    #[test]
    fn steady_state_keeps_a_store_a_load_through_another_register_reads() {
        let (mut m, body, exit, i, [a, k]) = top_tested_loop();
        let f = &mut m.func;
        let [p, x, y, s] = [(); 4].map(|_| f.new_reg(RegClass::Int));
        let elem = MemLoc::affine(SymId(0), 1, 0);
        f.block_mut(body).insts.extend([
            Inst::alu(Opcode::Add, p, a, i.into()),
            Inst::store(a, i.into(), Operand::ImmI(0), elem),
            Inst::store(a, i.into(), i.into(), elem),
            Inst::load(x, p.into(), Operand::ImmI(0), MemLoc::opaque(SymId(0))),
            Inst::load(y, k, Operand::ImmI(0), MemLoc::affine(SymId(1), 0, 0)),
            Inst::alu(Opcode::Add, s, s.into(), x.into()),
            Inst::alu(Opcode::Add, s, s.into(), y.into()),
            Inst::store(a, i.into(), s.into(), elem),
        ]);
        f.block_mut(exit).insts.push(Inst::halt());
        let mem: Vec<u64> = (0..1000).map(|w| 7 * w + 1).chain([2, 0]).collect();
        for r in every_way_of_leaving(&m, mem) {
            // s = Σ (j + 2) over j ≤ 999.
            assert_eq!(r.memory[999], (0..1000).map(|j| j + 2).sum::<u64>());
            assert!(
                r.replayed_insts * 10 > r.dyn_insts * 8 && r.elided_insts > 0,
                "{r:?}"
            );
        }
    }

    /// Under a cache a dead load still makes its access, so the register
    /// its address comes from stays live: here `q = i + 8`, computed for a
    /// load of `A[q]` whose value nothing reads and nowhere else. (A dead
    /// store's address terms are those of the store that overwrites it,
    /// which keeps them live anyway.) Were `q` left stale, the access
    /// would hit where the template missed, and the fast path would leave
    /// each block it replays on that latency instead of retiring it.
    #[test]
    fn steady_state_keeps_the_address_of_a_dead_access() {
        let (mut m, body, exit, i, [a, _]) = top_tested_loop();
        let out = Operand::Sym(SymId(2));
        let f = &mut m.func;
        let [q, junk, x, s] = [(); 4].map(|_| f.new_reg(RegClass::Int));
        f.block_mut(body).insts.extend([
            Inst::alu(Opcode::Add, q, i.into(), Operand::ImmI(8)),
            Inst::load(junk, a, q.into(), MemLoc::affine(SymId(0), 1, 8)),
            Inst::load(x, a, i.into(), MemLoc::affine(SymId(0), 1, 0)),
            Inst::alu(Opcode::Add, s, s.into(), x.into()),
        ]);
        f.block_mut(exit).insts.extend([
            Inst::store(
                out,
                Operand::ImmI(0),
                s.into(),
                MemLoc::affine(SymId(2), 0, 0),
            ),
            Inst::halt(),
        ]);
        let mem: Vec<u64> = (0..1002).collect();
        for r in every_way_of_leaving(&m, mem) {
            assert_eq!(r.memory[1001], (0..1000).sum::<u64>());
            assert!(
                r.replayed_insts * 10 > r.dyn_insts * 8 && r.elided_insts > 0,
                "{r:?}"
            );
        }
    }

    /// Decode-once reuse: one `DecodedProgram` serves repeated simulations
    /// (what the harness artifact cache does across sweep points).
    #[test]
    fn decoded_program_is_reusable_across_runs() {
        let (m, out) = sum_module(16);
        let machine = Machine::issue(4);
        let program = decode(&m, &machine);
        assert!(program.num_records() > 0);
        assert_eq!(program.latency(), &machine.latency);
        let mut mem = vec![0u64; 17];
        for (k, w) in mem.iter_mut().enumerate().take(16) {
            *w = (k as f64).to_bits();
        }
        let limits = SimLimits::cycles(10_000);
        let r1 = simulate_decoded(&program, &machine, mem.clone(), limits).unwrap();
        let r2 = simulate_decoded(&program, &machine, mem, limits).unwrap();
        assert_eq!(r1.cycles, r2.cycles);
        assert_eq!(r1.memory, r2.memory);
        assert_eq!(
            read_symbol(&m.symtab, &r1.memory, out),
            ArrayVal::F(vec![(0..16).map(|k| k as f64).sum()]),
        );
    }
}
