//! # ilpc-testkit — hermetic, std-only testing infrastructure
//!
//! The workspace builds and tests with **zero external crates** so the
//! tier-1 verify (`cargo build --release --offline && cargo test -q
//! --offline`) works in fully sandboxed environments. This crate vendors
//! the two pieces of infrastructure that used to come from crates.io,
//! and three the workspace's binaries and service tests share:
//!
//! * [`rng`] — a deterministic, seedable SplitMix64/xoshiro256++ PRNG
//!   replacing `rand::StdRng` for workload data synthesis. Output is
//!   pinned by golden-value tests so the generated inputs are identical
//!   across platforms and Rust versions.
//! * [`prop`] — a minimal property-testing framework (generator
//!   combinators over a recorded choice sequence, bounded shrinking,
//!   seed reporting on failure) replacing `proptest` for the random
//!   differential and scheduler suites.
//! * [`stream`] — channel-backed `Read`/`Write` streams for driving
//!   line-protocol services interactively (pace requests off replies).
//! * [`cli`] — the one command-line cursor every binary parses its flags
//!   with (bad flags exit 2 with usage, never a panic).
//! * [`json`] — the minimal JSON codec of the lint diagnostics writer and
//!   the `ilpc-serve` wire protocol.

#![forbid(unsafe_code)]

pub mod cli;
pub mod json;
pub mod prop;
pub mod rng;
pub mod stream;

pub use rng::TestRng;
pub use stream::{ChannelReader, SharedBuf};
