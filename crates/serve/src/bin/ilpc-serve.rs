//! `ilpc-serve` — the long-running evaluation service.
//!
//! ```text
//! # JSON-lines over stdin/stdout (default):
//! printf '%s\n' \
//!   '{"id":1,"op":"simulate","workload":"dotprod","level":"Lev4","width":8}' \
//!   | cargo run --release -p ilpc-serve --bin ilpc-serve
//!
//! # TCP mode:
//! cargo run --release -p ilpc-serve --bin ilpc-serve -- --tcp 127.0.0.1:7199
//!
//! # Supervised multi-process pool (N worker shards over stdin/stdout):
//! cargo run --release -p ilpc-serve --bin ilpc-serve -- --pool 4
//! ```
//!
//! Flags (all seven): `--workers N` (job workers, default 2), `--queue N`
//! (bounded queue capacity, default 64), `--sweep-threads N` (stealing
//! pool per sweep, default = cores), `--tcp ADDR` (serve TCP instead of
//! stdin), `--pool N` (below), `--deadline-ms N` (pool per-request
//! deadline), `--chaos SPEC` (seeded fault injection, stdin worker mode
//! only — see `ilpc_serve::chaos`). `--workers` and `--sweep-threads`
//! above `ilpc_harness::steal::MAX_THREADS` (256) and `--pool` above
//! `ilpc_serve::pool::MAX_SHARDS` (64) are usage errors, rejected before
//! anything is spawned.
//!
//! Pool mode (`--pool N`) re-execs this binary N times as worker shards
//! and supervises them: health pings, per-request deadlines (typed
//! `timeout` replies), crash respawn under seeded exponential backoff
//! with a restart-storm circuit breaker, and bounded retry of idempotent
//! requests on a different worker — all at `PoolConfig::default()`'s
//! values except the deadline, which depends on what the operator serves.
//! With `--chaos`, the spec is forwarded to every worker with
//! `salt={shard}g{gen}` appended, so each worker generation draws its own
//! deterministic fault stream.
//!
//! The process never exits on bad input: malformed lines, invalid configs
//! and failed evaluations come back as typed error replies, and a full
//! queue rejects with `overloaded` instead of buffering without bound.

use ilpc_harness::steal::MAX_THREADS;
use ilpc_serve::pool::MAX_SHARDS;
use ilpc_serve::{pool_lines, serve_lines, serve_tcp, ChaosPlan, PoolConfig, ServeConfig};
use ilpc_testkit::cli::Args;

fn main() {
    let mut cfg = ServeConfig::default();
    let mut pool = PoolConfig::default();
    let mut args = Args::from_env(
        "ilpc-serve",
        "ilpc-serve [--workers N] [--queue N] [--sweep-threads N] \
         [--tcp ADDR] [--chaos SPEC] [--pool N [--deadline-ms N]]",
    );
    args.set("--workers", &mut cfg.workers);
    args.set("--queue", &mut cfg.queue);
    args.set("--sweep-threads", &mut cfg.sweep_threads);
    let tcp: Option<String> = args.opt("--tcp");
    let shards: Option<usize> = args.opt("--pool");
    let chaos: Option<String> = args.opt("--chaos");
    args.set("--deadline-ms", &mut pool.deadline_ms);
    args.finish();
    let limits = [
        ("--workers", cfg.workers, MAX_THREADS),
        ("--sweep-threads", cfg.sweep_threads, MAX_THREADS),
        ("--pool", shards.unwrap_or(0), MAX_SHARDS),
    ];
    for (flag, n, max) in limits {
        if n > max {
            args.fail(&format!("{flag} {n} is above the limit of {max}"));
        }
    }

    match (tcp, shards) {
        (Some(_), Some(_)) => args.fail("--tcp and --pool are mutually exclusive"),
        (Some(addr), None) => {
            if chaos.is_some() {
                args.fail("--chaos is a stdin-mode flag (workers and pool drills), not TCP");
            }
            let (local, accept_loop) = serve_tcp(&cfg, &addr, None).expect("bind TCP listener");
            eprintln!("ilpc-serve listening on {local}");
            accept_loop.join().expect("accept loop");
        }
        (None, Some(shards)) => {
            pool.shards = shards;
            pool.worker_exe =
                std::env::current_exe().expect("current_exe for worker re-exec");
            pool.worker_args = vec![
                "--workers".into(),
                cfg.workers.to_string(),
                "--queue".into(),
                cfg.queue.to_string(),
                "--sweep-threads".into(),
                cfg.sweep_threads.to_string(),
            ];
            if let Some(spec) = &chaos {
                // Validate here so a typo'd spec fails fast instead of
                // crash-looping every worker it is forwarded to.
                if let Err(e) = ChaosPlan::parse(spec) {
                    args.fail(&e);
                }
                pool.worker_args.push("--chaos".into());
                pool.worker_args.push(format!("{spec},salt={{shard}}g{{gen}}"));
            }
            pool.log_incidents = true;
            let mut input = std::io::BufReader::new(std::io::stdin());
            if let Err(e) = pool_lines(&pool, &mut input, &mut std::io::stdout()) {
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    return;
                }
                eprintln!("ilpc-serve --pool: {e}");
                std::process::exit(1);
            }
        }
        (None, None) => {
            if let Some(spec) = chaos {
                cfg.chaos = Some(ChaosPlan::parse(&spec).unwrap_or_else(|e| args.fail(&e)));
            }
            let stdin = std::io::stdin();
            let mut input = stdin.lock();
            if let Err(e) = serve_lines(&cfg, &mut input, &mut std::io::stdout()) {
                // A reader that hangs up early (head, a dead pipe) is a
                // normal way for a stream session to end, not a failure.
                if e.kind() == std::io::ErrorKind::BrokenPipe {
                    return;
                }
                eprintln!("ilpc-serve: {e}");
                std::process::exit(1);
            }
        }
    }
}
