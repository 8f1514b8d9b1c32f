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

use crate::level::{Level, Rows};

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
    /// Nothing beyond conventional optimization (Conv).
    pub fn none() -> TransformSet {
        TransformSet::of_level(Level::Conv)
    }

    /// Everything (Lev4).
    pub fn all() -> TransformSet {
        TransformSet::of_level(Level::Lev4)
    }

    /// The cumulative set of a paper level, capped at Lev4: the set spans
    /// the paper's eight transformations, so `of_level(Lev6)` equals
    /// `of_level(Lev4)`. SLP vectorization is reached through
    /// [`crate::level::passes`] only.
    pub fn of_level(level: Level) -> TransformSet {
        let from = |l: Level| level >= l;
        TransformSet {
            unroll: from(Level::Lev1),
            rename: from(Level::Lev2),
            combine: from(Level::Lev3),
            strength: from(Level::Lev3),
            threduce: from(Level::Lev3),
            accum: from(Level::Lev4),
            induct: from(Level::Lev4),
            search: from(Level::Lev4),
        }
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
    /// the cleanup and re-run rows that follow them in
    /// [`PASSES`](crate::level::PASSES).
    pub(crate) fn expands(&self) -> bool {
        self.accum || self.induct || self.search
    }

    /// The rows of [`PASSES`](crate::level::PASSES) this set enables.
    pub fn rows(self) -> Rows {
        Rows::of(|p| (p.enabled)(&self))
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

impl From<TransformSet> for Rows {
    fn from(set: TransformSet) -> Rows {
        set.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::{direct, run_rows, TransformReport};
    use ilpc_ir::ast::{Bound, Expr, Index, Program, Stmt};
    use ilpc_ir::lower::lower;
    use ilpc_ir::Module;

    /// `dotprod` lowered, then `rows` run over it at `vlen`.
    fn apply(rows: Rows, vlen: u32) -> (Module, TransformReport) {
        let mut m = lower(&dotprod()).module;
        let mut rep = TransformReport::default();
        run_rows(&mut m, &mut rep, rows, vlen, &mut direct);
        (m, rep)
    }

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
        // The set is capped at Lev4: up to there it selects exactly the
        // level's rows, above it Lev4's.
        for level in Level::ALL {
            assert_eq!(TransformSet::of_level(level).rows(), level.min(Level::Lev4).rows());
        }
        for vlen in [1, 4] {
            // So Lev6 matches it only while the SLP rows are no-ops (VLEN 1).
            for level in Level::ALL.into_iter().filter(|l| vlen == 1 || *l <= Level::Lev4) {
                let (via_level, r1) = apply(level.rows(), vlen);
                let (via_set, r2) = apply(TransformSet::of_level(level).rows(), vlen);
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
        let (_, rep) = apply(TransformSet::all_but("accum").rows(), 1);
        assert_eq!(rep.accumulators_expanded, 0);
        assert!(rep.inductions_expanded >= 1);

        let (_, rep) = apply(TransformSet::all_but("induct").rows(), 1);
        assert!(rep.accumulators_expanded >= 1);
        assert_eq!(rep.inductions_expanded, 0);
    }

    #[test]
    fn only_one_enables_exactly_one() {
        let (_, rep) = apply(TransformSet::lev2_plus("accum").rows(), 1);
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
