//! The end-to-end run of one workload against the real server, tracing
//! off: set-up samples, the closed-loop timed phase (one request in
//! flight), the model probe, memory, and the pool's final status.

use crate::expect::{self, ModelTotals, Reference};
use crate::front::Server;
use crate::stats;
use crate::workload::{Front, Kind, Spec, Stream};
use ilpc_serve::{ErrorKind, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The protocol's typed error kinds, in declaration order (their wire
/// names, `ErrorKind::name`, key the per-kind counts).
pub const ERROR_KINDS: [ErrorKind; 7] = [
    ErrorKind::BadRequest,
    ErrorKind::Overloaded,
    ErrorKind::EvalFailed,
    ErrorKind::BadConfig,
    ErrorKind::Internal,
    ErrorKind::Timeout,
    ErrorKind::Unavailable,
];

/// What the pool's final `status` showed.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStatus {
    /// Σ (spawns − 1) over shards.
    pub restarts: u64,
    /// Σ (failures + hangs) over shards: each lost worker re-dispatches
    /// its in-flight request at most once (status has no retry counter).
    pub retries: u64,
    /// Share of worker CPU time spent by shard 0.
    pub shard0_share: f64,
}

/// Everything one end-to-end run observed.
pub struct E2e {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human reader.
    pub problems: Vec<String>,
    pub errors_by_kind: BTreeMap<String, u64>,
    /// Request-written → reply-line-read, per timed request.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the timed phase.
    pub timed_wall_s: f64,
    /// Verified-ok replies ÷ wall seconds of each round of the timed phase:
    /// a round's work is the same in every round and for every seed.
    pub round_rates: Vec<f64>,
    /// Server spawn → end of warm-up, one sample per set-up.
    pub setup_samples_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Model totals as the probe's replies stated them.
    pub totals: ModelTotals,
    pub pool: PoolStatus,
    pub fingerprint: u64,
}

impl E2e {
    /// Verified-ok replies per second: the median over rounds, which one
    /// disturbed stretch of the run does not move.
    pub fn throughput_ops_s(&self) -> f64 {
        stats::median(&self.round_rates)
    }

    /// Median request latency.
    pub fn latency_p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// Record one exchange's outcome; `Ok` carries the checked result.
    fn settle(
        &mut self,
        reply: Result<String, String>,
        check: impl FnOnce(&str) -> Result<(), String>,
    ) -> bool {
        self.attempted += 1;
        let outcome = reply.and_then(|line| {
            check(&line).inspect_err(|_| {
                if let Some(kind) = expect::error_kind(&line) {
                    *self.errors_by_kind.entry(kind).or_insert(0) += 1;
                }
            })
        });
        match outcome {
            Ok(()) => true,
            Err(msg) => {
                self.fail(msg);
                false
            }
        }
    }
}

/// Spawn a server and bring it to the state the timed phase starts from:
/// answered a `ping`, and on the simulate workloads answered the probe
/// batch, which fills the artifact cache with every point. Returns the
/// server and the seconds this took.
fn set_up(
    exe: &Path,
    spec: &Spec,
    reference: &Reference,
    run: &mut E2e,
) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let mut server = Server::spawn(exe, spec)?;
    let pong = server.ask("{\"id\":0,\"op\":\"ping\"}");
    run.settle(pong, |line| expect::ok_result(line, 0).map(drop));
    if spec.kind == Kind::Simulate {
        probe(&mut server, spec, reference, run);
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// [`set_up`], its seconds recorded as a set-up sample.
fn set_up_sampled(
    exe: &Path,
    spec: &Spec,
    reference: &Reference,
    run: &mut E2e,
) -> Result<Server, String> {
    let (server, took_s) = set_up(exe, spec, reference, run)?;
    run.setup_samples_s.push(took_s);
    Ok(server)
}

/// Send the probe batch (every point simulated once) and read the model
/// totals off its reply. Counts one attempt per point.
fn probe(server: &mut Server, spec: &Spec, reference: &Reference, run: &mut E2e) {
    let n = reference.points.len() as u64;
    run.attempted += n;
    let checked = server
        .ask(&spec.probe_line(1, &reference.points))
        .and_then(|line| expect::ok_result(&line, 1))
        .and_then(|result| expect::check_probe(&result, reference));
    match checked {
        Ok((totals, wrong)) => {
            run.totals = totals;
            wrong.into_iter().for_each(|msg| run.fail(msg));
        }
        Err(msg) => {
            run.failed += n - 1;
            run.fail(format!("probe batch: {msg}"));
        }
    }
}

/// Run `spec` for about `seconds` of timed requests (`setups` set-ups
/// first). `Err` means the run itself could not be carried out; wrong or
/// failed replies are counted in the returned [`E2e`] instead.
pub fn run_e2e(
    exe: &Path,
    spec: &Spec,
    reference: &Reference,
    seed: u64,
    seconds: f64,
    setups: usize,
) -> Result<E2e, String> {
    let mut run = E2e {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        errors_by_kind: BTreeMap::new(),
        latencies_ms: Vec::new(),
        timed_wall_s: 0.0,
        round_rates: Vec::new(),
        setup_samples_s: Vec::new(),
        peak_rss_mb: 0.0,
        totals: reference.totals(),
        pool: PoolStatus::default(),
        fingerprint: crate::workload::stream_fingerprint(spec, seed),
    };

    if spec.kind == Kind::SweepCold {
        sweep_cold(exe, spec, reference, seconds, &mut run)?;
        return Ok(run);
    }

    // Set up `setups` times; the last server stays for the timed phase.
    let mut server = set_up_sampled(exe, spec, reference, &mut run)?;
    for _ in 1..setups {
        server.shutdown()?;
        server = set_up_sampled(exe, spec, reference, &mut run)?;
    }

    // Timed phase: closed loop, one in flight, whole rounds.
    let mut order = Stream::new(seed, reference.points.len());
    let t0 = Instant::now();
    let mut id = 2u64;
    while t0.elapsed().as_secs_f64() < seconds {
        let round_t0 = Instant::now();
        let mut ok = 0;
        for _ in 0..spec.round {
            let k = order.next().expect("the stream is endless");
            let (p, e) = (&reference.points[k], &reference.evals[k]);
            let line = spec.request_line(id, p);
            let sent_at = Instant::now();
            // A server that stops answering ends the run: looping on a dead
            // pipe would only count the same failure a million times.
            let reply = server
                .ask(&line)
                .map_err(|e| format!("request {id}: {e}"))?;
            run.latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
            ok += u64::from(run.settle(Ok(reply), |line| {
                let result = expect::ok_result(line, id)?;
                match spec.kind {
                    Kind::Compile => expect::check_compile(&result, p, e),
                    _ => expect::check_simulate(&result, p, e),
                }
            }));
            id += 1;
        }
        run.round_rates
            .push(ok as f64 / round_t0.elapsed().as_secs_f64());
    }
    run.timed_wall_s = t0.elapsed().as_secs_f64();

    if spec.front == Front::Pool {
        pool_status(&mut server, &mut run);
    }
    // Memory is read before the compile workload's probe, whose simulate
    // requests fill an artifact cache the timed requests never touch.
    run.peak_rss_mb = server.peak_rss_mb();
    if spec.kind == Kind::Compile {
        probe(&mut server, spec, reference, &mut run);
    }
    server.shutdown()?;
    Ok(run)
}

/// `sweep_cold`: every round spawns a fresh server, sends one sweep, reads
/// the reply and sends EOF. The round's wall covers all of it, spawn and
/// exit included — the researcher pays for both.
fn sweep_cold(
    exe: &Path,
    spec: &Spec,
    reference: &Reference,
    seconds: f64,
    run: &mut E2e,
) -> Result<(), String> {
    let totals = reference.totals();
    let t0 = Instant::now();
    let mut id = 2u64;
    while t0.elapsed().as_secs_f64() < seconds {
        let (mut server, set_up_s) = set_up(exe, spec, reference, run)?;
        let work_t0 = Instant::now();
        let line = spec.sweep_line(id);
        let reply = server.ask(&line).map_err(|e| format!("sweep {id}: {e}"))?;
        run.latencies_ms.push(work_t0.elapsed().as_secs_f64() * 1e3);
        let ok = run.settle(Ok(reply), |line| {
            expect::check_sweep(
                &expect::ok_result(line, id)?,
                &totals,
                reference.points.len(),
            )
        });
        id += 1;
        run.peak_rss_mb = run.peak_rss_mb.max(server.peak_rss_mb());
        server.shutdown()?;
        run.setup_samples_s.push(set_up_s);
        run.round_rates
            .push(f64::from(u8::from(ok)) / (set_up_s + work_t0.elapsed().as_secs_f64()));
    }
    run.timed_wall_s = t0.elapsed().as_secs_f64();
    // The probe runs on one more server, after the clock has stopped.
    let mut server = Server::spawn(exe, spec)?;
    probe(&mut server, spec, reference, run);
    server.shutdown()
}

/// Read the pool's final `status`: any restart, lost worker or shard
/// incident is a failure of the run, and shard CPU shares are recorded.
fn pool_status(server: &mut Server, run: &mut E2e) {
    let reply = server.ask("{\"id\":1,\"op\":\"status\"}");
    let cpu = server.worker_cpu_ticks();
    let mut pool = PoolStatus::default();
    run.settle(reply, |line| {
        let status = expect::ok_result(line, 1)?;
        let count = |shard: &Json, key: &str| shard.get(key).and_then(Json::as_u64).unwrap_or(0);
        let shards = status.get("shards").and_then(Json::as_arr).unwrap_or(&[]);
        if shards.len() != 2 {
            return Err(format!("status lists {} shards, expected 2", shards.len()));
        }
        for s in shards {
            pool.restarts += count(s, "spawns").saturating_sub(1);
            pool.retries += count(s, "failures") + count(s, "hangs");
        }
        let incidents = count(&status, "incidents_total");
        if pool.restarts + pool.retries + incidents > 0 {
            return Err(format!(
                "pool was not quiet: {} restarts, {} lost workers, {incidents} incidents",
                pool.restarts, pool.retries
            ));
        }
        Ok(())
    });
    let total: u64 = cpu.iter().sum();
    pool.shard0_share = if total == 0 {
        0.0
    } else {
        cpu[0] as f64 / total as f64
    };
    run.pool = pool;
}
