//! `report --only <id>` prints exactly the section the full report prints.

use ilpc_harness::figures::{render_report, render_section, section_ids, FIGURES};
use ilpc_harness::grid::{run_grid, GridConfig};
use ilpc_testkit::cli::assert_rejected;
use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report")).args(args).output().expect("spawn report")
}

/// On one grid: the full report is the `--only` renderings back to back
/// (each followed by the blank line `println!` adds), then the per-loop
/// dump — so no id can drift from its section of the full text.
#[test]
fn only_sections_tile_the_full_report() {
    let grid = run_grid(&GridConfig { scale: 0.05, ..GridConfig::default() }).unwrap();
    assert!(grid.errors.is_empty(), "{:#?}", grid.errors);
    let ids: Vec<&str> = section_ids().collect();
    for wanted in FIGURES.iter().map(|f| f.id).chain(["table1", "table2", "summary"]) {
        assert!(ids.contains(&wanted), "{wanted} is not selectable");
    }
    let full = render_report(&grid);
    let mut rest = full.as_str();
    for id in ids {
        let only = render_section(id, || &grid).unwrap() + "\n";
        rest = rest
            .strip_prefix(only.as_str())
            .unwrap_or_else(|| panic!("--only {id} differs from its section:\n{only}\nvs\n{rest}"));
    }
    assert!(rest.starts_with("== Per-loop speedups (issue-8) =="), "{rest}");
}

/// The binaries' argument handling: bad input is a typed exit-2 rejection
/// (never a panic) — `report`'s in detail, every other binary of the crate
/// by table — and a static table prints without running a grid.
#[test]
fn cli_rejects_bad_arguments_and_selects_sections() {
    let unknown = report(&["--only", "fig99"]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(stderr.contains("unknown section `fig99`"), "{stderr}");
    for id in section_ids() {
        assert!(stderr.contains(id), "usage must list {id}: {stderr}");
    }
    assert!(unknown.stdout.is_empty());

    for trailing in ["--only", "--scale", "--threads"] {
        let out = report(&[trailing]);
        assert_eq!(out.status.code(), Some(2), "trailing {trailing}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("needs a value"));
    }
    assert_eq!(report(&["--scale", "fast"]).status.code(), Some(2));
    assert_eq!(report(&["--bogus"]).status.code(), Some(2));

    // Every other binary of this crate rejects a trailing value-taking
    // flag, an unparsable value and an unknown flag the same way: one
    // `<bin>: …` line, the usage, exit status 2 — never a panic (101).
    // (To `paper-examples`, which takes no value, all three are unknown.)
    let bins = [
        ("ablation", env!("CARGO_BIN_EXE_ablation")),
        ("cache-sensitivity", env!("CARGO_BIN_EXE_cache-sensitivity")),
        ("fault-campaign", env!("CARGO_BIN_EXE_fault-campaign")),
        ("ilpc", env!("CARGO_BIN_EXE_ilpc")),
        ("ilpc-lint", env!("CARGO_BIN_EXE_ilpc-lint")),
        ("paper-examples", env!("CARGO_BIN_EXE_paper-examples")),
        ("profile-study", env!("CARGO_BIN_EXE_profile-study")),
        ("sensitivity", env!("CARGO_BIN_EXE_sensitivity")),
        ("swp", env!("CARGO_BIN_EXE_swp")),
        ("vlen-sweep", env!("CARGO_BIN_EXE_vlen-sweep")),
    ];
    for (name, exe) in bins {
        for args in [&["--scale"][..], &["--scale", "fast"], &["--scal", "0.1"]] {
            assert_rejected(name, exe, args);
        }
    }
    assert_rejected("ilpc", env!("CARGO_BIN_EXE_ilpc"), &["run", "dotprod", "--width"]);

    let table1 = report(&["--only", "table1"]);
    assert!(table1.status.success());
    let expected = render_section("table1", || unreachable!("table1 needs no grid")).unwrap();
    assert_eq!(String::from_utf8_lossy(&table1.stdout), expected + "\n");
    assert!(table1.stderr.is_empty(), "no grid should have run");
}
