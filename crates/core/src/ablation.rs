//! Ablation configuration: toggle each of the eight transformations
//! independently.
//!
//! The paper's §3.2 discusses the *individual* contribution of each
//! transformation ("induction variable expansion is the most often applied
//! transformation", "accumulator ... and search variable expansion result
//! in the largest speedup increases beyond unrolling and renaming",
//! "strength reduction is the least effective"). The level pipeline only
//! exposes the cumulative Lev1..Lev4 configurations; this module exposes an
//! arbitrary subset so the harness can regenerate those per-transformation
//! claims as leave-one-out and only-one ablations.

use crate::level::{Level, Pass, TransformReport, PASSES};
use crate::unroll::UnrollConfig;
use ilpc_ir::Module;

/// Which transformations to run (conventional optimization always runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformSet {
    pub unroll: bool,
    pub rename: bool,
    pub combine: bool,
    pub strength: bool,
    pub threduce: bool,
    pub accum: bool,
    pub induct: bool,
    pub search: bool,
}

impl TransformSet {
    /// Nothing beyond conventional optimization.
    pub fn none() -> TransformSet {
        TransformSet {
            unroll: false,
            rename: false,
            combine: false,
            strength: false,
            threduce: false,
            accum: false,
            induct: false,
            search: false,
        }
    }

    /// Everything (equivalent to Lev4).
    pub fn all() -> TransformSet {
        TransformSet {
            unroll: true,
            rename: true,
            combine: true,
            strength: true,
            threduce: true,
            accum: true,
            induct: true,
            search: true,
        }
    }

    /// The cumulative set of a paper level, capped at Lev4: the set spans
    /// the paper's eight transformations, so `of_level(Lev6)` equals
    /// `of_level(Lev4)`. SLP vectorization is reached through
    /// [`crate::level::passes`] only.
    pub fn of_level(level: Level) -> TransformSet {
        let mut s = TransformSet::none();
        if level >= Level::Lev1 {
            s.unroll = true;
        }
        if level >= Level::Lev2 {
            s.rename = true;
        }
        if level >= Level::Lev3 {
            s.combine = true;
            s.strength = true;
            s.threduce = true;
        }
        if level >= Level::Lev4 {
            s.accum = true;
            s.induct = true;
            s.search = true;
        }
        s
    }

    /// Lev4 with one transformation disabled (leave-one-out ablation).
    /// `name` must be one of the [`TransformSet::NAMES`].
    pub fn all_but(name: &str) -> TransformSet {
        let mut s = TransformSet::all();
        *s.field_mut(name) = false;
        s
    }

    /// Lev2 (unroll+rename) plus exactly one advanced transformation
    /// (only-one ablation).
    pub fn lev2_plus(name: &str) -> TransformSet {
        let mut s = TransformSet::of_level(Level::Lev2);
        *s.field_mut(name) = true;
        s
    }

    /// The toggleable advanced transformations.
    pub const NAMES: [&'static str; 6] =
        ["combine", "strength", "threduce", "accum", "induct", "search"];

    /// True if any of the three Lev4 expansions is on — the condition for
    /// the cleanup and re-run rows that follow them in [`PASSES`].
    pub(crate) fn expands(&self) -> bool {
        self.accum || self.induct || self.search
    }

    /// The rows of [`PASSES`] this set enables, in table order.
    pub fn passes(self) -> impl Iterator<Item = &'static Pass> {
        PASSES.iter().filter(move |p| (p.enabled)(&self))
    }

    fn field_mut(&mut self, name: &str) -> &mut bool {
        match name {
            "unroll" => &mut self.unroll,
            "rename" => &mut self.rename,
            "combine" => &mut self.combine,
            "strength" => &mut self.strength,
            "threduce" => &mut self.threduce,
            "accum" => &mut self.accum,
            "induct" => &mut self.induct,
            "search" => &mut self.search,
            other => panic!("unknown transformation {other}"),
        }
    }
}

/// Apply an arbitrary transformation subset to freshly lowered IR: the
/// enabled rows of [`PASSES`], in table order.
pub fn apply_set(
    m: &mut Module,
    set: &TransformSet,
    ucfg: &UnrollConfig,
) -> TransformReport {
    let mut rep = TransformReport::default();
    for pass in set.passes() {
        pass.execute(m, ucfg, &mut rep);
    }
    debug_assert!(
        ilpc_ir::verify::verify_module(m).is_ok(),
        "ablation pipeline broke the IR: {:?}",
        ilpc_ir::verify::verify_module(m)
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::apply_level;
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::lower::lower;

    fn dotprod() -> Program {
        let mut p = Program::new("dot");
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
    fn of_level_matches_level_pipeline() {
        for vlen in [1, 4] {
            let ucfg = UnrollConfig { vlen, ..UnrollConfig::default() };
            // The set is capped at Lev4, so Lev6 matches it only while the
            // SLP rows are no-ops (VLEN 1).
            for level in Level::ALL.into_iter().filter(|l| vlen == 1 || *l <= Level::Lev4) {
                let mut via_level = lower(&dotprod()).module;
                let r1 = apply_level(&mut via_level, level, &ucfg);
                let mut via_set = lower(&dotprod()).module;
                let r2 = apply_set(&mut via_set, &TransformSet::of_level(level), &ucfg);
                assert_eq!(r1, r2, "{level} vlen {vlen}");
                assert_eq!(
                    format!("{}", via_level.func),
                    format!("{}", via_set.func),
                    "{level} vlen {vlen}: code differs"
                );
            }
        }
    }

    #[test]
    fn leave_one_out_disables_exactly_one() {
        let mut m = lower(&dotprod()).module;
        let rep = apply_set(
            &mut m,
            &TransformSet::all_but("accum"),
            &UnrollConfig::default(),
        );
        assert_eq!(rep.accumulators_expanded, 0);
        assert!(rep.inductions_expanded >= 1);

        let mut m = lower(&dotprod()).module;
        let rep = apply_set(
            &mut m,
            &TransformSet::all_but("induct"),
            &UnrollConfig::default(),
        );
        assert!(rep.accumulators_expanded >= 1);
        assert_eq!(rep.inductions_expanded, 0);
    }

    #[test]
    fn only_one_enables_exactly_one() {
        let mut m = lower(&dotprod()).module;
        let rep = apply_set(
            &mut m,
            &TransformSet::lev2_plus("accum"),
            &UnrollConfig::default(),
        );
        assert!(rep.accumulators_expanded >= 1);
        assert_eq!(rep.combines, 0);
        assert_eq!(rep.trees_reduced, 0);
    }

    #[test]
    #[should_panic(expected = "unknown transformation")]
    fn unknown_name_panics() {
        TransformSet::all_but("vectorize");
    }
}
