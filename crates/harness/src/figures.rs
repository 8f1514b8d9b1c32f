//! Rendering of the paper's tables and figures as text.
//!
//! Each figure in the paper is a histogram: the number of loops whose
//! speedup (or register usage) falls into each range, with one series per
//! transformation level. [`FIGURES`] is the one place their titles, bins
//! and loop subsets are written; the `report` binary prints every section
//! (or one, with `--only <id>` — which also selects the
//! [`crate::studies`]). The integration tests assert the figures'
//! qualitative shape.

use crate::grid::Grid;
use crate::run::EvalPoint;
use crate::studies::STUDIES;
use ilpc_core::level::Level;
use ilpc_workloads::WorkloadMeta;
use std::fmt::Write;

/// Bin edges for a histogram; bin `k` covers `[edges[k], edges[k+1])`, the
/// last bin is open-ended.
#[derive(Debug, Clone)]
pub struct Bins {
    pub edges: Vec<f64>,
    pub labels: Vec<String>,
}

impl Bins {
    fn from_edges(edges: Vec<f64>, fmt1: impl Fn(f64, f64) -> String) -> Bins {
        let mut labels = Vec::new();
        for k in 0..edges.len() {
            if k + 1 < edges.len() {
                labels.push(fmt1(edges[k], edges[k + 1]));
            } else {
                labels.push(format!("{:.2}+", edges[k]));
            }
        }
        Bins { edges, labels }
    }

    /// Speedup bins of Figure 8 (issue-2).
    pub fn fig8() -> Bins {
        Bins::from_edges(
            vec![0.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0],
            |a, b| format!("{a:.2}-{:.2}", b - 0.01),
        )
    }

    /// Speedup bins of Figure 9 (issue-4).
    pub fn fig9() -> Bins {
        Bins::from_edges(
            vec![0.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0],
            |a, b| format!("{a:.2}-{:.2}", b - 0.01),
        )
    }

    /// Speedup bins of Figure 10 (issue-8; also Figures 12 and 14).
    pub fn fig10() -> Bins {
        Bins::from_edges(
            vec![0.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            |a, b| format!("{a:.2}-{:.2}", b - 0.01),
        )
    }

    /// Register usage bins of Figure 11 (also Figures 13 and 15).
    pub fn fig11() -> Bins {
        Bins {
            edges: vec![0.0, 16.0, 32.0, 48.0, 64.0, 96.0, 128.0],
            labels: vec![
                "0-15".into(),
                "16-31".into(),
                "32-47".into(),
                "48-63".into(),
                "64-95".into(),
                "96-127".into(),
                "128+".into(),
            ],
        }
    }

    /// Index of the bin containing `v`.
    pub fn bin_of(&self, v: f64) -> usize {
        let mut k = 0;
        while k + 1 < self.edges.len() && v >= self.edges[k + 1] {
            k += 1;
        }
        k
    }
}

/// Loop subset selector for Figures 12-15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subset {
    All,
    Doall,
    NonDoall,
}

impl Subset {
    pub fn includes(self, m: &WorkloadMeta) -> bool {
        match self {
            Subset::All => true,
            Subset::Doall => m.ltype.is_doall(),
            Subset::NonDoall => !m.ltype.is_doall(),
        }
    }
}

/// Histogram counts: `counts[level][bin]`.
pub struct Histogram {
    pub bins: Bins,
    pub levels: Vec<Level>,
    pub counts: Vec<Vec<usize>>,
}

/// What a figure counts per loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Speedup over the issue-1 Conv base configuration.
    Speedup,
    /// Total registers used by the scheduled code.
    Registers,
}

/// One of the paper's distribution figures.
pub struct Figure {
    /// Selector for `report --only`.
    pub id: &'static str,
    pub title: &'static str,
    /// Issue width the figure is drawn for.
    pub width: u32,
    pub metric: Metric,
    pub bins: fn() -> Bins,
    pub subset: Subset,
}

/// Figures 8-15, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig08",
        title: "Figure 8: speedup distribution, issue-2",
        width: 2,
        metric: Metric::Speedup,
        bins: Bins::fig8,
        subset: Subset::All,
    },
    Figure {
        id: "fig09",
        title: "Figure 9: speedup distribution, issue-4",
        width: 4,
        metric: Metric::Speedup,
        bins: Bins::fig9,
        subset: Subset::All,
    },
    Figure {
        id: "fig10",
        title: "Figure 10: speedup distribution, issue-8",
        width: 8,
        metric: Metric::Speedup,
        bins: Bins::fig10,
        subset: Subset::All,
    },
    Figure {
        id: "fig11",
        title: "Figure 11: register usage distribution, issue-8",
        width: 8,
        metric: Metric::Registers,
        bins: Bins::fig11,
        subset: Subset::All,
    },
    Figure {
        id: "fig12",
        title: "Figure 12: speedup distribution, DOALL loops, issue-8",
        width: 8,
        metric: Metric::Speedup,
        bins: Bins::fig10,
        subset: Subset::Doall,
    },
    Figure {
        id: "fig13",
        title: "Figure 13: register usage, DOALL loops, issue-8",
        width: 8,
        metric: Metric::Registers,
        bins: Bins::fig11,
        subset: Subset::Doall,
    },
    Figure {
        id: "fig14",
        title: "Figure 14: speedup distribution, non-DOALL loops, issue-8",
        width: 8,
        metric: Metric::Speedup,
        bins: Bins::fig10,
        subset: Subset::NonDoall,
    },
    Figure {
        id: "fig15",
        title: "Figure 15: register usage, non-DOALL loops, issue-8",
        width: 8,
        metric: Metric::Registers,
        bins: Bins::fig11,
        subset: Subset::NonDoall,
    },
];

impl Figure {
    /// Count the figure's loops into its bins, one series per level.
    pub fn histogram(&self, grid: &Grid) -> Histogram {
        let bins = (self.bins)();
        let levels = Level::ALL.to_vec();
        let mut counts = vec![vec![0usize; bins.labels.len()]; levels.len()];
        for m in grid.meta.iter().filter(|m| self.subset.includes(m)) {
            for (li, &level) in levels.iter().enumerate() {
                let value = match self.metric {
                    Metric::Speedup => grid.speedup(m.name, level, self.width),
                    Metric::Registers => grid
                        .point(m.name, level, self.width)
                        .map(|p| p.regs.total() as f64),
                };
                if let Some(v) = value {
                    counts[li][bins.bin_of(v)] += 1;
                }
            }
        }
        Histogram { bins, levels, counts }
    }

    /// The figure as a text table.
    pub fn render(&self, grid: &Grid) -> String {
        render_histogram(self.title, &self.histogram(grid))
    }
}

/// Ids of the paper's own sections — what `report` prints without
/// `--only` — in report order.
pub fn paper_ids() -> impl Iterator<Item = &'static str> {
    ["table1", "table2"].into_iter().chain(FIGURES.iter().map(|f| f.id)).chain(["summary"])
}

/// Every id `report --only` can select: the paper's sections, then the
/// [`STUDIES`].
pub fn section_ids() -> impl Iterator<Item = &'static str> {
    paper_ids().chain(STUDIES.iter().map(|s| s.id))
}

/// Render the paper section `id`, or `None` for any other id. `grid` is
/// only called by sections that plot measurements, so selecting a static
/// table never runs one.
pub fn render_section<'g>(id: &str, grid: impl FnOnce() -> &'g Grid) -> Option<String> {
    Some(match id {
        "table1" => render_table1(),
        "table2" => render_table2(),
        "summary" => render_summary(grid()),
        _ => FIGURES.iter().find(|f| f.id == id)?.render(grid()),
    })
}

/// Render a histogram as a text table (ranges as rows, levels as columns).
pub fn render_histogram(title: &str, h: &Histogram) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<14}", "range");
    for l in &h.levels {
        let _ = write!(out, "{:>6}", l.name());
    }
    let _ = writeln!(out);
    for (bi, label) in h.bins.labels.iter().enumerate() {
        let _ = write!(out, "{label:<14}");
        for (li, _) in h.levels.iter().enumerate() {
            let _ = write!(out, "{:>6}", h.counts[li][bi]);
        }
        let _ = writeln!(out);
    }
    out
}

/// The whole report: every section in order, then the per-loop dump.
pub fn render_report(grid: &Grid) -> String {
    let mut out = String::new();
    for id in paper_ids() {
        let section = render_section(id, || grid).expect("id comes from paper_ids");
        let _ = writeln!(out, "{section}");
    }
    let _ = writeln!(out, "== Per-loop speedups (issue-8) ==");
    let _ = writeln!(out, "{}", render_per_loop(grid, 8));
    out
}

/// Per-loop speedup/register dump (useful for EXPERIMENTS.md appendices).
pub fn render_per_loop(grid: &Grid, width: u32) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<12} {:>9} {:>6} |", "loop", "type", "conds");
    for level in Level::ALL {
        let _ = write!(out, " {:>7}", level.name());
    }
    let _ = writeln!(out, " | {:>5}", "regs4");
    for m in &grid.meta {
        let _ = write!(
            out,
            "{:<12} {:>9} {:>6} |",
            m.name,
            m.ltype.name(),
            if m.conds { "yes" } else { "no" }
        );
        for level in Level::ALL {
            let s = grid.speedup(m.name, level, width).unwrap_or(f64::NAN);
            let _ = write!(out, " {s:>7.2}");
        }
        let regs = grid
            .point(m.name, Level::Lev4, width)
            .map(|p| p.regs.total())
            .unwrap_or(0);
        let _ = writeln!(out, " | {regs:>5}");
    }
    out
}

/// The paper's §3.2/§4 summary statistics.
pub fn render_summary(grid: &Grid) -> String {
    let mut out = String::new();
    let names = |subset: Subset| {
        grid.meta.iter().filter(move |m| subset.includes(m)).map(|m| m.name)
    };
    let all = || names(Subset::All);

    let _ = writeln!(out, "== Average speedups over issue-1 Conv ==");
    let _ = write!(out, "{:<8}", "config");
    for level in Level::ALL {
        let _ = write!(out, " {:>7}", level.name());
    }
    let _ = writeln!(out);
    for width in [2u32, 4, 8] {
        let _ = write!(out, "issue-{width:<2}");
        for level in Level::ALL {
            let _ = write!(out, " {:>7.2}", grid.mean_speedup(all(), level, width));
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "\n== Issue-8 by loop class (paper §4) ==");
    for (label, subset) in [("DOALL", Subset::Doall), ("non-DOALL", Subset::NonDoall)] {
        let _ = write!(out, "{label:<10}");
        for level in Level::ALL {
            let _ = write!(out, " {:>7.2}", grid.mean_speedup(names(subset), level, 8));
        }
        let _ = writeln!(out);
    }

    // Transformation cost: dynamic and static instruction overhead.
    let _ = writeln!(out, "\n== Instruction overhead vs Conv (issue-8) ==");
    let _ = writeln!(out, "{:<5} {:>10} {:>10}", "level", "dyn", "static");
    let total = |level, insts: fn(&EvalPoint) -> f64| -> f64 {
        grid.meta.iter().filter_map(|m| grid.point(m.name, level, 8)).map(insts).sum()
    };
    let dyn_insts: fn(&EvalPoint) -> f64 = |p| p.dyn_insts as f64;
    let static_insts: fn(&EvalPoint) -> f64 = |p| p.static_insts as f64;
    let conv_dyn = total(Level::Conv, dyn_insts);
    let conv_static = total(Level::Conv, static_insts);
    for level in Level::ALL {
        let (dynsum, stsum) = (total(level, dyn_insts), total(level, static_insts));
        let _ = writeln!(
            out,
            "{:<5} {:>9.2}x {:>9.2}x",
            level.name(),
            dynsum / conv_dyn.max(1.0),
            stsum / conv_static.max(1.0)
        );
    }

    let _ = writeln!(out, "\n== Average registers (issue-8) ==");
    for level in Level::ALL {
        let _ = writeln!(
            out,
            "{:<5} {:>7.1}",
            level.name(),
            grid.mean_regs(all(), level, 8)
        );
    }
    // Register growth only over full coverage: a ratio of two partial
    // means (different holes in each) would be meaningless.
    let conv = grid.mean_regs(all(), Level::Conv, 8).complete();
    let lev4 = grid.mean_regs(all(), Level::Lev4, 8).complete();
    match (conv, lev4) {
        (Some(c), Some(l)) if c > 0.0 => {
            let _ = writeln!(out, "register growth Conv -> Lev4: {:.2}x", l / c);
        }
        _ => {
            let _ = writeln!(out, "register growth Conv -> Lev4: n/a (incomplete grid)");
        }
    }
    let under128 = grid
        .meta
        .iter()
        .filter(|m| {
            grid.point(m.name, Level::Lev4, 8)
                .map(|p| p.regs.total() < 128)
                .unwrap_or(false)
        })
        .count();
    let _ = writeln!(out, "loops under 128 registers at Lev4: {under128} / 40");
    out
}

/// The paper's Table 1 (instruction latencies) from the machine model.
pub fn render_table1() -> String {
    let t = ilpc_machine::TABLE1;
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: Instruction latencies");
    let rows = [
        ("Int ALU", t.int_alu.to_string(), "FP ALU", t.fp_alu.to_string()),
        ("Int multiply", t.int_mul.to_string(), "FP conversion", t.fp_cvt.to_string()),
        ("Int divide", t.int_div.to_string(), "FP multiply", t.fp_mul.to_string()),
        ("branch", format!("{} / 1 slot", t.branch), "FP divide", t.fp_div.to_string()),
        ("memory load", t.load.to_string(), "memory store", t.store.to_string()),
    ];
    for (a, av, b, bv) in rows {
        let _ = writeln!(out, "{a:<14}{av:<12}{b:<15}{bv}");
    }
    out
}

/// The paper's Table 2 (loop nest descriptions) from the catalog.
pub fn render_table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2: Description of loop nests");
    let _ = writeln!(
        out,
        "{:<14}{:>6}{:>8}{:>6}  {:<10}{:>6}",
        "Name", "Size", "Iters", "Nest", "Type", "Conds"
    );
    for m in ilpc_workloads::table2() {
        let _ = writeln!(
            out,
            "{:<14}{:>6}{:>8}{:>6}  {:<10}{:>6}",
            m.name,
            m.size,
            m.iters,
            m.nest,
            m.ltype.name(),
            if m.conds { "yes" } else { "no" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_indexing() {
        let b = Bins::fig10();
        assert_eq!(b.bin_of(0.5), 0);
        assert_eq!(b.bin_of(2.0), 1);
        assert_eq!(b.bin_of(2.49), 1);
        assert_eq!(b.bin_of(7.2), 7);
        assert_eq!(b.bin_of(100.0), 8);
        assert_eq!(b.labels.len(), 9);
        let r = Bins::fig11();
        assert_eq!(r.bin_of(15.0), 0);
        assert_eq!(r.bin_of(16.0), 1);
        assert_eq!(r.bin_of(130.0), 6);
    }

    #[test]
    fn subset_filters() {
        let t = ilpc_workloads::table2();
        let doall = t.iter().filter(|m| Subset::Doall.includes(m)).count();
        let non = t.iter().filter(|m| Subset::NonDoall.includes(m)).count();
        assert_eq!(doall + non, 40);
        assert_eq!(doall, 18);
        assert!(t.iter().all(|m| Subset::All.includes(m)));
    }
}
