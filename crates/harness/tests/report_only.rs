//! `report --only <id>` prints exactly the section the full report prints,
//! or exactly the study the golden under `tests/golden/` records.

use ilpc_harness::figures::{paper_ids, render_report, render_section, section_ids, FIGURES};
use ilpc_harness::studies::{StudyCtx, STUDIES};
use ilpc_harness::sweep::{run_sweep, SweepConfig};
use ilpc_testkit::cli::assert_rejected;
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("spawn report")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// On one grid: the full report is the `--only` renderings of the paper's
/// sections back to back (each followed by the blank line `println!`
/// adds), then the per-loop dump — so no id can drift from its section of
/// the full text, no study is appended to it, and the text is the one the
/// parent of the `STUDIES` table printed.
#[test]
fn only_sections_tile_the_full_report() {
    let sweep = run_sweep(&SweepConfig { scale: 0.05, ..SweepConfig::default() }).unwrap();
    let grid = &sweep.grids[0];
    assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
    let ids: Vec<&str> = paper_ids().collect();
    for wanted in FIGURES.iter().map(|f| f.id).chain(["table1", "table2", "summary"]) {
        assert!(ids.contains(&wanted), "{wanted} is not selectable");
    }
    let full = render_report(grid);
    assert_eq!(full, golden("report"), "report --scale 0.05");
    let mut rest = full.as_str();
    for id in ids {
        let only = render_section(id, || grid).unwrap() + "\n";
        rest = rest
            .strip_prefix(only.as_str())
            .unwrap_or_else(|| panic!("--only {id} differs from its section:\n{only}\nvs\n{rest}"));
    }
    assert!(rest.starts_with("== Per-loop speedups (issue-8) =="), "{rest}");
    let per_loop = rest.lines().count();
    assert_eq!(per_loop, 1 + 1 + 40 + 1, "something follows the per-loop dump:\n{rest}");
}

/// Every `STUDIES` row prints what the binary of its name printed before
/// the table existed (goldens captured from those binaries: `lint`'s from
/// `ilpc-lint --quick --scale 0.02`, `fault-campaign`'s at `--seed 7`,
/// `vlen-sweep`'s without the scheduling-dependent steal count, which left
/// stdout).
#[test]
fn every_study_matches_its_golden() {
    // (id, --scale, --quick, --verbose, golden)
    let runs = [
        ("paper-examples", None, false, false, "paper-examples"),
        ("paper-examples", None, false, true, "paper-examples_verbose"),
        ("ablation", Some(0.05), false, false, "ablation"),
        ("sensitivity", Some(0.05), false, false, "sensitivity"),
        ("cache-sensitivity", Some(0.02), true, false, "cache-sensitivity_quick"),
        ("vlen-sweep", None, true, false, "vlen-sweep_quick"),
        ("profile-study", Some(0.05), false, false, "profile-study"),
        ("swp", Some(0.05), false, false, "swp"),
        ("fault-campaign", None, true, false, "fault-campaign_quick"),
        ("lint", None, true, false, "lint_quick"),
    ];
    for s in STUDIES {
        assert!(runs.iter().any(|r| r.0 == s.id), "study `{}` has no golden", s.id);
    }
    for (id, scale, quick, verbose, name) in runs {
        let study = STUDIES.iter().find(|s| s.id == id).unwrap_or_else(|| panic!("no study `{id}`"));
        let ctx = StudyCtx::new(study, scale, 2, quick, verbose).unwrap();
        let text = (study.run)(&ctx).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(text, golden(name), "{id} (golden {name})");
        if id == "ablation" {
            // The base and the 14 sets climb one trie per nest, 20 nodes:
            // Conv, Lev1, Lev2; at Lev3 all of it, or it minus one of its
            // three transformations, or one of them alone (7); at Lev4 10
            // distinct masks. The reference interpreter runs once per nest.
            let c = ctx.cache.counters();
            assert_eq!((c.rungs, c.ref_runs), (40 * 20, 40), "{c:?}");
        }
        if id == "sensitivity" {
            // One sweep: 8 machines x {Conv, Lev2, Lev4} x widths {1, 8},
            // then the 40 issue-1 Conv bases, which hit. At issue 1 no FU
            // limit binds, so the five restricted Table-1 machines' points
            // there take the paper machine's results without a lookup: 11
            // compiles per (nest, level). The six machines with Table 1
            // latencies share one backend front per (nest, level); the two
            // slow-load tables have one each: 3 x 40 x 3 fronts. Each
            // nest's ladder is climbed once, Conv to Lev4: 5 nodes.
            let c = ctx.cache.counters();
            let counts = (c.compiles, c.hits, c.fronts, c.rungs, c.ref_runs);
            assert_eq!(counts, (11 * 120, 40, 360, 40 * 5, 40), "{c:?}");
        }
    }
}

/// The binaries' argument handling: bad input is a typed exit-2 rejection
/// (never a panic) — `report`'s in detail, `ilpc`'s by table — a static
/// table prints without running a grid, and a study selected through the
/// binary prints its in-process rendering.
#[test]
fn cli_rejects_bad_arguments_and_selects_sections() {
    let unknown = report(&["--only", "fig99"]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("unknown section `fig99`"), "{stderr}");
    let selectable: Vec<&str> = section_ids().collect();
    for id in paper_ids().chain(STUDIES.iter().map(|s| s.id)) {
        assert!(selectable.contains(&id), "{id} is not selectable");
        assert!(stderr.contains(id), "usage must list {id}: {stderr}");
    }
    assert_eq!(selectable.len(), paper_ids().count() + 9);
    assert!(unknown.stdout.is_empty());

    for trailing in ["--only", "--scale", "--threads"] {
        let out = report(&[trailing]);
        assert_eq!(out.status.code(), Some(2), "trailing {trailing}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
    }
    let exe = env!("CARGO_BIN_EXE_report");
    assert_rejected("report", exe, &["--scale", "fast"]);
    assert_rejected("report", exe, &["--bogus"]);
    // A switch is rejected wherever nothing reads it.
    assert_rejected("report", exe, &["--quick"]);
    assert_rejected("report", exe, &["--only", "fig10", "--quick"]);
    assert_rejected("report", exe, &["--only", "ablation", "--quick"]);
    assert_rejected("report", exe, &["--only", "summary", "--verbose"]);
    assert_rejected("report", exe, &["--only", "vlen-sweep", "--quick", "--verbose"]);
    assert_rejected("report", exe, &["--only", "fault-campaign", "--verbose"]);
    assert_rejected("report", exe, &["--only", "swp", "--scale", "-1"]);
    assert_rejected("report", exe, &["--only", "summary", "--scale", "1e12"]);
    // One past the bound: a larger thread count is a typo, not a request.
    assert_rejected("report", exe, &["--only", "sensitivity", "--threads", "257"]);

    // The crate's other binary rejects a trailing value-taking flag, an
    // unparsable value and an unknown flag the same way: one `ilpc: …`
    // line, the usage, exit status 2 — never a panic (101).
    let ilpc = env!("CARGO_BIN_EXE_ilpc");
    for args in [
        &["--scale"][..],
        &["--scale", "fast"],
        &["--scal", "0.1"],
        &["--scale", "1e12"],
        &["--scale", "nan"],
        &["run", "dotprod", "--width"],
    ] {
        assert_rejected("ilpc", ilpc, args);
    }
    // A module `ilpc exec` cannot run is one `ilpc: …` line and exit
    // status 2: no allocator abort (134), no panic (101).
    let path = format!("{}/malformed.ilpc", env!("CARGO_TARGET_TMPDIR"));
    for module in [
        ".module x\n.sym A flt 99999999999999\n.func x\n.block B0 b\n    halt\n",
        ".module x\n.func x\n.block B0 b\n    mov r4000000000f, #f0\n    halt\n",
        ".module x\n.func x\n",
        ".module x\n.func x\n.block B0 b\n    mov r0i, #5\n.block B0 c\n    halt\n",
    ] {
        std::fs::write(&path, module).unwrap();
        let out = Command::new(ilpc).args(["exec", &path]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{module}: {stderr}");
        assert!(stderr.starts_with("ilpc: ") && stderr.lines().count() == 1, "{stderr}");
    }

    let table1 = report(&["--only", "table1"]);
    assert!(table1.status.success());
    let expected = render_section("table1", || unreachable!("table1 needs no grid")).unwrap();
    assert_eq!(String::from_utf8_lossy(&table1.stdout), expected + "\n");
    assert!(table1.stderr.is_empty(), "no grid should have run");

    let examples = report(&["--only", "paper-examples", "--verbose"]);
    assert!(examples.status.success(), "{}", String::from_utf8_lossy(&examples.stderr));
    assert_eq!(String::from_utf8_lossy(&examples.stdout), golden("paper-examples_verbose"));
}
