//! # ilpc-harness — experimental evaluation harness
//!
//! Drives the full pipeline over the paper's evaluation grid
//! ({Conv..Lev4} × {issue-1,2,4,8} × 40 loop nests), verifies every run
//! against the AST interpreter, and renders each of the paper's tables and
//! figures (Tables 1-2, Figures 8-15, the §3.2/§4 summary statistics, and
//! the §2 worked examples).

#![forbid(unsafe_code)]

pub mod artifact;
pub mod campaign;
pub mod compile;
pub mod examples_paper;
pub mod figures;
pub mod grid;
pub mod profile;
pub mod run;
pub mod steal;
pub mod studies;
pub mod sweep;

pub use artifact::{Artifact, ArtifactCache, CacheCounters};
pub use campaign::{run_campaign, CampaignConfig, CampaignReport, Outcome};
pub use compile::{compile, compile_guarded, compile_set, Compiled, GuardedCompile};
pub use grid::{
    run_grid, run_grid_forkjoin, Aggregate, Grid, GridConfig, GridConfigError, GridError,
    PointError, Sabotage, SabotageMode,
};
pub use profile::{compile_with_profile, evaluate_with_profile};
pub use run::{evaluate, evaluate_set, run_compiled, EvalPoint};
pub use steal::StealStats;
pub use sweep::{run_sweep, Scenario, Sweep, SweepConfig};
