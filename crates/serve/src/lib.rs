//! # ilpc-serve — long-running evaluation service
//!
//! Turns the harness into a service: JSON-lines requests (`compile`,
//! `simulate`, `sweep`, `batch`) over stdin or TCP, executed by a worker
//! pool behind a bounded queue with reject-on-full backpressure. Sweeps
//! run on the work-stealing engine (`ilpc_harness::sweep`) and share
//! per-scale compile-artifact caches across requests; guard incidents ride
//! each `compile` reply as typed records.
//!
//! `--pool N` runs the [`pool`] supervisor instead: N worker *processes*
//! behind a router that holds the reply contract through crashes, hangs
//! and garbage (deadlines, health pings, seeded backoff + circuit
//! breaker, bounded retry), verified by the seeded [`chaos`] harness
//! (the root crate's `tests/pool_chaos.rs`).
//!
//! All three front doors — stdin, TCP, the pool router — share one
//! framing module ([`wire`]: line cap, one write per reply), one admission
//! function (`proto::admit`) and one session loop (`server::session`).
//!
//! See `crates/serve/src/proto.rs` for the wire format and DESIGN.md §15
//! (protocol) / §18 (pool supervision) for the full contract.

#![forbid(unsafe_code)]

pub use ilpc_testkit::json;
pub mod chaos;
pub mod pool;
pub mod proto;
pub mod server;
pub mod supervisor;
pub mod wire;

pub use chaos::{ChaosPlan, ChaosVerdict};
pub use json::{obj, parse, Json};
pub use pool::{pool_lines, pool_script, PoolConfig};
pub use proto::{err_reply, ok_reply, parse_request, ErrorKind, Op, Request};
pub use server::{serve_lines, serve_script, serve_tcp, ServeConfig, Server};
pub use supervisor::{BackoffCfg, BreakerCfg, ShardPhase, ShardSupervisor};
pub use wire::MAX_LINE_BYTES;
