//! Transformation levels (the paper's §3.2 configurations).
//!
//! * **Conv** — conventional scalar optimizations only (`ilpc-opt`).
//! * **Lev1** — Conv + loop unrolling (max 8×, body-size capped).
//! * **Lev2** — Lev1 + register renaming.
//! * **Lev3** — Lev2 + operation combining, strength reduction, tree height
//!   reduction.
//! * **Lev4** — Lev3 + accumulator / induction / search variable expansion.
//! * **Lev6** — Lev4 + SLP vectorization (`ilpc-vec`). The `Lev5` name is
//!   reserved for software pipelining per the roadmap; the vector level
//!   keeps its roadmap designation so grid artifacts stay comparable.
//!
//! "Each successive level includes all transformations from previous
//! levels."

use crate::ablation::TransformSet;
use crate::accum::accumulator_expand;
use crate::combine::operation_combine;
use crate::induct::induction_expand;
use crate::rename::rename_loops;
use crate::search::search_expand;
use crate::strength::strength_reduce;
use crate::threduce::tree_height_reduce;
use crate::unroll::{unroll_inner_loops, UnrollConfig};
use ilpc_ir::Module;
use ilpc_opt::{cleanup, conventional, dce, fold_add_chains, simplify_cfg};
use std::fmt;

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    Conv,
    Lev1,
    Lev2,
    Lev3,
    Lev4,
    Lev6,
}

impl Level {
    /// All levels, in increasing order.
    pub const ALL: [Level; 6] = [
        Level::Conv,
        Level::Lev1,
        Level::Lev2,
        Level::Lev3,
        Level::Lev4,
        Level::Lev6,
    ];

    /// Paper-style short name.
    pub fn name(self) -> &'static str {
        match self {
            Level::Conv => "Conv",
            Level::Lev1 => "Lev1",
            Level::Lev2 => "Lev2",
            Level::Lev3 => "Lev3",
            Level::Lev4 => "Lev4",
            Level::Lev6 => "Lev6",
        }
    }

    /// The level with this [`Level::name`], ASCII case ignored.
    pub fn from_name(name: &str) -> Option<Level> {
        Level::ALL.into_iter().find(|l| l.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Counts of transformation applications (reported by the harness and used
/// by tests; mirrors the paper's discussion of which transformations fire).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformReport {
    pub loops_unrolled: usize,
    pub unroll_factor_total: usize,
    pub defs_renamed: usize,
    pub combines: usize,
    pub strength_reductions: usize,
    pub trees_reduced: usize,
    pub accumulators_expanded: usize,
    pub inductions_expanded: usize,
    pub searches_expanded: usize,
    pub packs_formed: usize,
    pub stmts_vectorized: usize,
}

/// One named step of the level pipeline.
///
/// The pipeline is expressed as data so external drivers — most notably the
/// `ilpc-guard` transformation firewall — can interpose snapshotting,
/// verification and rollback around every individual pass. Every route
/// ([`apply_level`], [`crate::ablation::apply_set`], the harness pipeline,
/// the guard) iterates this one table, selecting rows by `level` or by
/// `enabled`; none writes pass order down again.
pub struct Pass {
    /// Stable pass name (used in guard reports and fault-campaign output).
    pub name: &'static str,
    /// Lowest level whose pipeline includes this pass.
    pub level: Level,
    /// Whether an ablation [`TransformSet`] runs this pass: a
    /// transformation row follows its own toggle, a cleanup or re-run row
    /// follows the toggles of the transformations it tidies up after.
    pub(crate) enabled: fn(&TransformSet) -> bool,
    run: fn(&mut Module, &UnrollConfig, &mut TransformReport),
}

impl Pass {
    /// Run the pass, accumulating application counts into `rep`.
    pub fn execute(&self, m: &mut Module, ucfg: &UnrollConfig, rep: &mut TransformReport) {
        (self.run)(m, ucfg, rep)
    }
}

/// The cleanup the `*-dce` rows share: sweep up what the rows before left dead.
fn run_dce(m: &mut Module, _: &UnrollConfig, _: &mut TransformReport) {
    dce(&mut m.func);
}

/// The complete Lev6 pipeline, in execution order. Counters are accumulated
/// with `+=` so a pass stays well-defined if a driver re-runs or skips it.
pub const PASSES: &[Pass] = &[
    // Conventional optimization is the baseline for every level.
    Pass {
        name: "conventional",
        level: Level::Conv,
        enabled: |_| true,
        run: |m, _, _| { conventional(m); },
    },
    Pass {
        name: "unroll",
        level: Level::Lev1,
        enabled: |s| s.unroll,
        run: |m, ucfg, rep| {
            let unrolled = unroll_inner_loops(m, ucfg);
            rep.loops_unrolled += unrolled.len();
            rep.unroll_factor_total += unrolled.iter().map(|u| u.factor).sum::<usize>();
        },
    },
    // Post-unroll cleanup: collapse use-free counter chains (classical
    // induction variable elimination, Figure 5c), fold constants in the
    // preconditioning code, merge straight-line copies into superblock
    // seeds.
    Pass {
        name: "post-unroll-cleanup",
        level: Level::Lev1,
        enabled: |s| s.unroll,
        run: |m, _, _| {
            fold_add_chains(&mut m.func);
            dce(&mut m.func);
            simplify_cfg(&mut m.func);
            cleanup(&mut m.func);
        },
    },
    Pass {
        name: "rename",
        level: Level::Lev2,
        enabled: |s| s.rename,
        run: |m, _, rep| rep.defs_renamed += rename_loops(m),
    },
    // Renaming introduces no new redundancy; a DCE pass tidies up any
    // now-unused restored names.
    Pass { name: "rename-dce", level: Level::Lev2, enabled: |s| s.rename, run: run_dce },
    Pass {
        name: "combine",
        level: Level::Lev3,
        enabled: |s| s.combine,
        run: |m, _, rep| rep.combines += operation_combine(m),
    },
    Pass {
        name: "strength-reduce",
        level: Level::Lev3,
        enabled: |s| s.strength,
        run: |m, _, rep| rep.strength_reductions += strength_reduce(m),
    },
    Pass {
        name: "tree-height-reduce",
        level: Level::Lev3,
        enabled: |s| s.threduce,
        run: |m, _, rep| rep.trees_reduced += tree_height_reduce(m),
    },
    Pass {
        name: "lev3-dce",
        level: Level::Lev3,
        enabled: |s| s.combine || s.strength || s.threduce,
        run: run_dce,
    },
    Pass {
        name: "accumulator-expand",
        level: Level::Lev4,
        enabled: |s| s.accum,
        run: |m, _, rep| rep.accumulators_expanded += accumulator_expand(m),
    },
    Pass {
        name: "induction-expand",
        level: Level::Lev4,
        enabled: |s| s.induct,
        run: |m, _, rep| rep.inductions_expanded += induction_expand(m),
    },
    Pass {
        name: "search-expand",
        level: Level::Lev4,
        enabled: |s| s.search,
        run: |m, _, rep| rep.searches_expanded += search_expand(m),
    },
    Pass { name: "expand-dce", level: Level::Lev4, enabled: TransformSet::expands, run: run_dce },
    // Expansion exposes more combinable pairs (paper §3.2: "the
    // effectiveness of other transformations ... becomes more apparent
    // with fewer dependences present").
    Pass {
        name: "re-combine",
        level: Level::Lev4,
        enabled: |s| s.expands() && s.combine,
        run: |m, _, rep| rep.combines += operation_combine(m),
    },
    Pass {
        name: "re-tree-height-reduce",
        level: Level::Lev4,
        enabled: |s| s.expands() && s.threduce,
        run: |m, _, rep| rep.trees_reduced += tree_height_reduce(m),
    },
    Pass { name: "lev4-dce", level: Level::Lev4, enabled: TransformSet::expands, run: run_dce },
    // SLP vectorization packs the isomorphic statement groups the unroll +
    // rename + expansion ladder manufactures. A no-op when `ucfg.vlen <= 1`,
    // which keeps Lev6/VLEN=1 bit-identical to Lev4. Not one of the paper's
    // eight transformations, so no ablation set reaches it.
    Pass {
        name: "slp-vectorize",
        level: Level::Lev6,
        enabled: |_| false,
        run: |m, ucfg, rep| {
            let r = ilpc_vec::slp_vectorize(m, ucfg.vlen);
            rep.packs_formed += r.packs_formed;
            rep.stmts_vectorized += r.stmts_vectorized;
        },
    },
    Pass { name: "slp-dce", level: Level::Lev6, enabled: |_| false, run: run_dce },
];

/// The passes `level` runs, in execution order.
pub fn passes(level: Level) -> impl Iterator<Item = &'static Pass> {
    PASSES.iter().filter(move |p| level >= p.level)
}

/// Apply `level` to `m` (which must be freshly lowered, unoptimized IR).
pub fn apply_level(m: &mut Module, level: Level, ucfg: &UnrollConfig) -> TransformReport {
    let mut rep = TransformReport::default();
    for pass in passes(level) {
        pass.execute(m, ucfg, &mut rep);
    }
    debug_assert!(
        ilpc_ir::verify::verify_module(m).is_ok(),
        "level pipeline broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::lower::lower;
    use ilpc_ir::Opcode;

    fn dotprod() -> Program {
        let mut p = Program::new("dotprod");
        let i = p.int_var("i");
        let s = p.flt_var("s");
        let a = p.flt_arr("A", 64);
        let b = p.flt_arr("B", 64);
        p.body = vec![Stmt::For {
            var: i,
            lo: Bound::Const(0),
            hi: Bound::Const(63),
            body: vec![Stmt::SetScalar(
                s,
                Expr::add(
                    Expr::Var(s),
                    Expr::mul(Expr::at(a, Index::var(i)), Expr::at(b, Index::var(i))),
                ),
            )],
        }];
        p
    }

    #[test]
    fn levels_are_cumulative_and_verify() {
        assert_eq!(Level::from_name("Lev5"), None);
        for level in Level::ALL {
            assert_eq!(Level::from_name(&level.name().to_lowercase()), Some(level));
            let mut l = lower(&dotprod());
            let rep = apply_level(&mut l.module, level, &UnrollConfig::default());
            ilpc_ir::verify::verify_module(&l.module).unwrap();
            match level {
                Level::Conv => assert_eq!(rep.loops_unrolled, 0),
                Level::Lev1 => {
                    assert_eq!(rep.loops_unrolled, 1);
                    assert_eq!(rep.defs_renamed, 0);
                }
                Level::Lev2 => assert!(rep.defs_renamed > 0),
                Level::Lev3 => assert!(rep.defs_renamed > 0),
                Level::Lev4 | Level::Lev6 => {
                    assert!(
                        rep.accumulators_expanded >= 1,
                        "dot product accumulator must expand: {rep:?}"
                    );
                    assert!(
                        rep.inductions_expanded >= 1,
                        "unrolled index chain must expand: {rep:?}"
                    );
                    if level == Level::Lev6 {
                        // Default config has vlen=1: SLP must stay silent.
                        assert_eq!(rep.packs_formed, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn lev4_dotprod_has_independent_multiply_accumulates() {
        let mut l = lower(&dotprod());
        apply_level(&mut l.module, Level::Lev4, &UnrollConfig::default());
        let f = &l.module.func;
        // Find the main unrolled loop: the biggest block with a backedge.
        let forest = ilpc_analysis::LoopForest::compute(f);
        let mut best: Option<(usize, Vec<Opcode>)> = None;
        for lp in forest.inner_loops() {
            let insts: Vec<Opcode> = lp
                .blocks
                .iter()
                .flat_map(|&b| f.block(b).insts.iter().map(|i| i.op))
                .collect();
            if best.as_ref().is_none_or(|(n, _)| insts.len() > *n) {
                best = Some((insts.len(), insts));
            }
        }
        let (_, ops) = best.unwrap();
        let fadds = ops.iter().filter(|o| **o == Opcode::FAdd).count();
        let fmuls = ops.iter().filter(|o| **o == Opcode::FMul).count();
        assert_eq!(fadds, fmuls, "one accumulate per product");
        assert!(fadds >= 4, "unrolled at least 4x, got {fadds}");
    }

    #[test]
    fn pass_table_is_cumulative_and_matches_apply_level() {
        // Each successive level strictly extends the previous one's plan.
        let mut prev = 0;
        for level in Level::ALL {
            let n = passes(level).count();
            assert!(n > prev, "{level}: {n} passes, previous level had {prev}");
            prev = n;
        }
        assert_eq!(passes(Level::Lev6).count(), PASSES.len());
        // The table is sorted by level, so a level's plan is the previous
        // level's followed by its own rows: drivers may run the table one
        // level's rows at a time and resume from where a lower level ended.
        assert!(PASSES.windows(2).all(|p| p[0].level <= p[1].level));
        // Driving the pass table by hand reproduces apply_level exactly.
        let mut via_table = lower(&dotprod());
        let mut rep_table = TransformReport::default();
        for pass in passes(Level::Lev4) {
            pass.execute(&mut via_table.module, &UnrollConfig::default(), &mut rep_table);
        }
        let mut via_apply = lower(&dotprod());
        let rep_apply =
            apply_level(&mut via_apply.module, Level::Lev4, &UnrollConfig::default());
        assert_eq!(rep_table, rep_apply);
        assert_eq!(
            ilpc_ir::text::serialize(&via_table.module),
            ilpc_ir::text::serialize(&via_apply.module)
        );
    }

    #[test]
    fn every_pass_leaves_verifiable_ir() {
        // The guard verifies after *every* pass, so no pass may leave even a
        // transiently malformed module.
        let mut l = lower(&dotprod());
        let mut rep = TransformReport::default();
        for pass in passes(Level::Lev4) {
            pass.execute(&mut l.module, &UnrollConfig::default(), &mut rep);
            ilpc_ir::verify::verify_module(&l.module)
                .unwrap_or_else(|e| panic!("after {}: {e}", pass.name));
        }
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Conv < Level::Lev1);
        assert!(Level::Lev3 < Level::Lev4);
        assert!(Level::Lev4 < Level::Lev6);
        // `ALL` lists every level at the index of its discriminant.
        assert!(Level::ALL.iter().enumerate().all(|(i, &l)| l as usize == i));
        assert_eq!(Level::Lev2.name(), "Lev2");
        assert_eq!(Level::Lev6.name(), "Lev6");
    }
}
