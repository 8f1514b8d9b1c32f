//! `ilpc-pool` — supervised multi-process shard pool.
//!
//! One supervisor process, N `ilpc-serve` worker processes speaking the
//! JSON-lines protocol over piped stdin/stdout. The supervisor is a pure
//! router: it never evaluates anything itself, it keeps the *pool*
//! healthy and the reply contract intact:
//!
//! * **exactly one reply per request** — client ids are rewritten to
//!   internal ids for correlation and restored on the way out; a retry is
//!   re-issued under a *fresh* internal id, so a straggler reply from a
//!   reaped worker can never produce a duplicate;
//! * **per-request deadlines** — a request that outlives its deadline is
//!   answered with a typed `timeout` reply, and the shard sitting on it
//!   is reaped (the reply is authoritative; late results are discarded);
//! * **health probes** — idle or not, every worker is pinged on an
//!   interval; a worker that misses `ping_misses` pongs in a row is
//!   declared hung and reaped exactly like a crash;
//! * **crash recovery** — worker death (pipe EOF, failed write) triggers
//!   respawn under seeded-deterministic exponential backoff
//!   ([`crate::supervisor`]), with a restart-storm circuit breaker so a
//!   crash-looping binary cannot fork-bomb the host;
//! * **bounded retry** — an in-flight request on a dead worker is retried
//!   at most `max_attempts` times total, only if idempotent
//!   ([`crate::proto::Request::is_idempotent`]), and only on a *different*
//!   worker (a different shard, or a later generation of the same shard);
//!   past the budget it is answered `unavailable`;
//! * **graceful degradation** — multi-scenario sweeps are split into
//!   per-scenario shard jobs and re-merged; if a shard dies past its
//!   retry budget the merged reply still arrives, carrying
//!   `shards:{covered,requested}` coverage and a typed per-scenario
//!   `shard_error` instead of silently dropping scenarios.
//!
//! `ping` and `status` are answered by the pool itself: `status` reports
//! per-shard supervision state (phase, generation, restart/crash/hang
//! counters) plus the recent shard incident ring
//! ([`ilpc_guard::IncidentRecord::shard`]).
//!
//! Everything is event-driven around one mpsc channel: a stdin reader
//! thread, a ticker thread, and one reader thread per live worker
//! generation all feed [`Event`]s to a single-threaded router that owns
//! all state — no locks, no reply interleaving hazards.

use crate::json::{obj, parse, Json};
use crate::proto::{
    admit, err_reply, incident_json, ok_reply, oversized_reply, Admission, ErrorKind, Op,
};
use crate::supervisor::{BackoffCfg, BreakerCfg, ShardPhase, ShardSupervisor};
use crate::wire::{frames, is_disconnect, write_line, Frame};
use ilpc_guard::{IncidentRecord, ShardIncidentKind};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker shard processes.
    pub shards: usize,
    /// Worker executable (default: `ilpc-serve` next to the current exe).
    pub worker_exe: PathBuf,
    /// Worker argv; `{shard}` and `{gen}` are substituted at spawn time
    /// (e.g. a chaos salt of `{shard}g{gen}` gives each worker generation
    /// its own deterministic fault stream).
    pub worker_args: Vec<String>,
    /// Extra per-shard argv appended after `worker_args` (index = shard);
    /// lets tests arm chaos on one shard only.
    pub worker_extra: Vec<Vec<String>>,
    /// Max outstanding requests (pending + in flight); beyond it new
    /// requests are rejected `overloaded`.
    pub queue: usize,
    /// Per-request deadline; expiry produces a typed `timeout` reply.
    pub deadline_ms: u64,
    /// Interval between health pings per worker.
    pub ping_interval_ms: u64,
    /// Consecutive unanswered pings before a worker is declared hung.
    pub ping_misses: u32,
    /// Total dispatch attempts per request (1 = no retry).
    pub max_attempts: u32,
    pub backoff: BackoffCfg,
    pub breaker: BreakerCfg,
    /// Supervision timer granularity.
    pub tick_ms: u64,
    /// Log shard incidents to stderr as they happen.
    pub log_incidents: bool,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            shards: 2,
            worker_exe: default_worker_exe(),
            worker_args: vec![
                "--workers".into(),
                "2".into(),
                "--queue".into(),
                "64".into(),
            ],
            worker_extra: Vec::new(),
            queue: 128,
            deadline_ms: 30_000,
            ping_interval_ms: 500,
            ping_misses: 4,
            max_attempts: 2,
            backoff: BackoffCfg::default(),
            breaker: BreakerCfg::default(),
            tick_ms: 20,
            log_incidents: false,
        }
    }
}

/// The `ilpc-serve` binary expected to sit next to the running
/// executable (release bin layout), or one directory up (test binaries
/// live in `target/<profile>/deps/`).
pub fn default_worker_exe() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let dir = exe.parent().map(PathBuf::from).unwrap_or_default();
    let sibling = dir.join("ilpc-serve");
    if sibling.exists() {
        return sibling;
    }
    dir.parent()
        .map(|p| p.join("ilpc-serve"))
        .filter(|p| p.exists())
        .unwrap_or(sibling)
}

/// Everything that can wake the router.
enum Event {
    /// One frame from the client: a request line, or the marker of a line
    /// past the size cap (already drained).
    Client(Frame),
    /// Client input ended.
    ClientEof,
    /// One frame from worker `shard`'s stdout, tagged with the generation
    /// whose reader produced it (stale generations are ignored).
    Worker(usize, u64, Frame),
    /// Worker `shard`'s stdout closed (process death), same tagging.
    WorkerGone(usize, u64),
    /// Supervision timer.
    Tick,
}

/// What a finished job does with its reply.
enum JobKind {
    /// Forward to the client with its original id restored.
    Direct,
    /// One scenario of a split sweep: fold into the parent aggregate.
    SweepShard { parent: u64, idx: usize },
}

/// One outstanding request (pending or in flight).
struct PoolJob {
    client_id: Json,
    /// Request object with the *internal* id installed; re-serialized at
    /// each dispatch (a retry rewrites the id first).
    body: Json,
    deadline_ms: u64,
    idempotent: bool,
    attempts: u32,
    /// (shard, generation) pairs already attempted — a retry must go
    /// somewhere else.
    tried: Vec<(usize, u64)>,
    /// Shard currently executing it, if dispatched.
    shard: Option<usize>,
    kind: JobKind,
}

/// A split sweep being re-merged.
struct SweepParent {
    client_id: Json,
    total: usize,
    parts: Vec<Option<Json>>,
    covered: usize,
    done: usize,
    cache_compiles: f64,
    cache_hits: f64,
    steals: f64,
    stolen_items: f64,
}

/// One worker shard: process handles + supervision state.
struct WorkerSlot {
    sup: ShardSupervisor,
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    generation: u64,
    busy: Option<u64>,
    pings_outstanding: u32,
    last_ping_ms: u64,
    hangs: u64,
    garbage: u64,
}

const PING_LINE: &str = r#"{"id":"hb","op":"ping"}"#;
const INCIDENT_RING: usize = 64;

struct Pool {
    cfg: PoolConfig,
    slots: Vec<WorkerSlot>,
    jobs: HashMap<u64, PoolJob>,
    pending: VecDeque<u64>,
    sweeps: HashMap<u64, SweepParent>,
    incidents: VecDeque<IncidentRecord>,
    incidents_total: u64,
    next_internal: u64,
    next_sweep: u64,
    requested: u64,
    client_eof: bool,
    outbox: Vec<String>,
    started: Instant,
    tx: mpsc::Sender<Event>,
}

impl Pool {
    fn new(cfg: PoolConfig, tx: mpsc::Sender<Event>) -> Pool {
        let slots = (0..cfg.shards.max(1))
            .map(|shard| WorkerSlot {
                sup: ShardSupervisor::new(shard, cfg.backoff.clone(), cfg.breaker.clone()),
                child: None,
                stdin: None,
                generation: 0,
                busy: None,
                pings_outstanding: 0,
                last_ping_ms: 0,
                hangs: 0,
                garbage: 0,
            })
            .collect();
        Pool {
            cfg,
            slots,
            jobs: HashMap::new(),
            pending: VecDeque::new(),
            sweeps: HashMap::new(),
            incidents: VecDeque::new(),
            incidents_total: 0,
            next_internal: 1,
            next_sweep: 1,
            requested: 0,
            client_eof: false,
            outbox: Vec::new(),
            started: Instant::now(),
            tx,
        }
    }

    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn emit(&mut self, line: String) {
        self.outbox.push(line);
    }

    fn incident(&mut self, shard: usize, kind: ShardIncidentKind, detail: &str) {
        if self.cfg.log_incidents {
            eprintln!("[ilpc-pool] shard {shard} {}: {detail}", kind.name());
        }
        if self.incidents.len() == INCIDENT_RING {
            self.incidents.pop_front();
        }
        self.incidents.push_back(IncidentRecord::shard(shard, kind, detail));
        self.incidents_total += 1;
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_internal;
        self.next_internal += 1;
        id
    }

    // ---- admission ------------------------------------------------------

    fn admit_line(&mut self, line: &str) {
        let (req, parsed) = match admit(line) {
            Admission::Blank => return,
            Admission::Reply(line) => {
                self.requested += 1;
                return self.emit(line);
            }
            Admission::Request(req, parsed) => (req, parsed),
        };
        self.requested += 1;
        // The pool answers introspection itself, like `ping`: it must
        // work even with every shard down — that is precisely when the
        // operator needs it.
        if matches!(req.op, Op::Status) {
            let status = self.build_status();
            return self.emit(ok_reply(&req.id, status));
        }
        if self
            .slots
            .iter()
            .all(|s| matches!(s.sup.phase(), ShardPhase::Open { .. }))
        {
            self.emit(err_reply(
                &req.id,
                ErrorKind::Unavailable,
                "all shards circuit-open (restart storm); retry after cooloff",
            ));
            return;
        }
        // Split a multi-scenario sweep into one job per scenario so it
        // spans shards and degrades per scenario instead of whole-hog.
        let mems = parsed
            .get("mems")
            .and_then(Json::as_arr)
            .filter(|m| m.len() > 1 && matches!(req.op, Op::Sweep { .. }))
            .map(|m| m.to_vec());
        if let Some(mems) = mems {
            if self.jobs.len() + mems.len() > self.cfg.queue {
                return self.overloaded(&req.id);
            }
            let parent = self.next_sweep;
            self.next_sweep += 1;
            self.sweeps.insert(
                parent,
                SweepParent {
                    client_id: req.id.clone(),
                    total: mems.len(),
                    parts: (0..mems.len()).map(|_| None).collect(),
                    covered: 0,
                    done: 0,
                    cache_compiles: 0.0,
                    cache_hits: 0.0,
                    steals: 0.0,
                    stolen_items: 0.0,
                },
            );
            for (idx, mem) in mems.into_iter().enumerate() {
                let mut body = parsed.clone();
                if let Json::Obj(m) = &mut body {
                    m.insert("mems".to_string(), Json::Arr(vec![mem]));
                }
                self.enqueue(req.id.clone(), body, true, JobKind::SweepShard { parent, idx });
            }
        } else {
            if self.jobs.len() >= self.cfg.queue {
                return self.overloaded(&req.id);
            }
            let idempotent = req.is_idempotent();
            self.enqueue(req.id, parsed, idempotent, JobKind::Direct);
        }
        self.dispatch();
    }

    /// Backpressure by rejection: the pool's memory stays bounded.
    fn overloaded(&mut self, id: &Json) {
        self.emit(err_reply(
            id,
            ErrorKind::Overloaded,
            &format!(
                "pool queue full ({} outstanding, cap {}); retry later",
                self.jobs.len(),
                self.cfg.queue
            ),
        ));
    }

    fn enqueue(&mut self, client_id: Json, mut body: Json, idempotent: bool, kind: JobKind) {
        let internal = self.next_id();
        if let Json::Obj(m) = &mut body {
            m.insert("id".to_string(), Json::num(internal as f64));
        }
        let deadline_ms = self.now_ms() + self.cfg.deadline_ms;
        self.jobs.insert(
            internal,
            PoolJob {
                client_id,
                body,
                deadline_ms,
                idempotent,
                attempts: 0,
                tried: Vec::new(),
                shard: None,
                kind,
            },
        );
        self.pending.push_back(internal);
    }

    // ---- dispatch -------------------------------------------------------

    fn dispatch(&mut self) {
        loop {
            let next = self
                .pending
                .iter()
                .copied()
                .find_map(|jid| self.pick_shard(jid).map(|s| (jid, s)));
            let Some((jid, shard)) = next else { break };
            self.pending.retain(|&p| p != jid);
            self.send_job(jid, shard);
        }
    }

    /// An idle healthy shard this job has not yet tried in its current
    /// generation — the "retry on a different worker" rule.
    fn pick_shard(&self, jid: u64) -> Option<usize> {
        let job = self.jobs.get(&jid)?;
        self.slots.iter().enumerate().find_map(|(i, s)| {
            let idle = matches!(s.sup.phase(), ShardPhase::Up)
                && s.stdin.is_some()
                && s.busy.is_none();
            let fresh = !job.tried.iter().any(|&(sh, g)| sh == i && g == s.generation);
            (idle && fresh).then_some(i)
        })
    }

    fn send_job(&mut self, jid: u64, shard: usize) {
        let gen = self.slots[shard].generation;
        let line = {
            let Some(job) = self.jobs.get_mut(&jid) else { return };
            job.attempts += 1;
            job.tried.push((shard, gen));
            job.shard = Some(shard);
            job.body.to_string()
        };
        self.slots[shard].busy = Some(jid);
        let stdin = self.slots[shard].stdin.as_mut().expect("picked shard has stdin");
        if write_line(stdin, line).is_err() {
            // The busy job (this one) is requeued or failed by the
            // crash path; its attempt is already counted.
            self.fail_worker(shard, ShardIncidentKind::Crash, "write to worker stdin failed");
        }
    }

    // ---- worker events --------------------------------------------------

    fn worker_line(&mut self, shard: usize, gen: u64, frame: Frame) {
        if self.slots[shard].generation != gen {
            return; // stale reader of a reaped generation
        }
        let line = match &frame {
            Frame::Line(line) => line.trim(),
            Frame::Oversized => "",
        };
        if line.is_empty() {
            return self.garbage(shard, "empty or oversized reply line");
        }
        let Ok(reply) = parse(line) else {
            let head: String = line.chars().take(80).collect();
            return self.garbage(shard, &format!("unparseable reply line: {head:?}"));
        };
        match reply.get("id") {
            Some(Json::Str(s)) if s == "hb" => {
                self.slots[shard].pings_outstanding = 0;
                self.slots[shard].sup.on_healthy();
            }
            Some(Json::Num(_)) => {
                let jid = reply.get("id").and_then(Json::as_u64).unwrap_or(0);
                if self.slots[shard].busy == Some(jid) {
                    self.slots[shard].busy = None;
                }
                // A reply for an id we no longer track is a straggler
                // from a request already answered `timeout` — discarded,
                // because the client already has its one reply.
                if self.jobs.contains_key(&jid) {
                    self.slots[shard].sup.on_healthy();
                    self.deliver(jid, reply);
                }
            }
            _ => self.garbage(shard, "reply with missing or foreign id"),
        }
    }

    fn garbage(&mut self, shard: usize, detail: &str) {
        self.slots[shard].garbage += 1;
        self.incident(shard, ShardIncidentKind::Garbage, detail);
    }

    fn deliver(&mut self, jid: u64, mut reply: Json) {
        let Some(job) = self.remove_job(jid) else { return };
        match job.kind {
            JobKind::Direct => {
                if let Json::Obj(m) = &mut reply {
                    m.insert("id".to_string(), job.client_id.clone());
                }
                self.emit(reply.to_string());
            }
            JobKind::SweepShard { parent, idx } => {
                let outcome = if reply.get("ok") == Some(&Json::Bool(true)) {
                    match reply
                        .get("result")
                        .and_then(|r| r.get("scenarios"))
                        .and_then(Json::as_arr)
                        .and_then(|a| a.first())
                    {
                        Some(scenario) => Ok((scenario.clone(), reply.clone())),
                        None => Err((
                            ErrorKind::Internal.name().to_string(),
                            "malformed sweep shard reply".to_string(),
                        )),
                    }
                } else {
                    let kind = reply
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap_or("internal")
                        .to_string();
                    let detail = reply
                        .get("error")
                        .and_then(|e| e.get("detail"))
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    Err((kind, detail))
                };
                self.sweep_part(parent, idx, outcome);
            }
        }
        self.dispatch();
    }

    /// Fold one scenario outcome into its parent sweep; emit the merged
    /// reply when the last part lands. `Ok` carries (scenario object,
    /// full shard reply — for the cache/steal counters); `Err` carries a
    /// typed (kind, detail).
    fn sweep_part(
        &mut self,
        parent: u64,
        idx: usize,
        outcome: Result<(Json, Json), (String, String)>,
    ) {
        let Some(sw) = self.sweeps.get_mut(&parent) else { return };
        if sw.parts[idx].is_some() {
            return; // already resolved (defensive; ids make this unreachable)
        }
        match outcome {
            Ok((scenario, full)) => {
                sw.covered += 1;
                let counter = |path: [&str; 2]| {
                    full.get("result")
                        .and_then(|r| r.get(path[0]))
                        .and_then(|c| c.get(path[1]))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                sw.cache_compiles += counter(["cache", "compiles"]);
                sw.cache_hits += counter(["cache", "hits"]);
                sw.steals += counter(["steals", "steals"]);
                sw.stolen_items += counter(["steals", "stolen_items"]);
                sw.parts[idx] = Some(scenario);
            }
            Err((kind, detail)) => {
                sw.parts[idx] = Some(obj([
                    ("scenario_index", Json::num(idx as f64)),
                    (
                        "shard_error",
                        obj([("kind", Json::str(&kind)), ("detail", Json::str(&detail))]),
                    ),
                ]));
            }
        }
        sw.done += 1;
        if sw.done == sw.total {
            let sw = self.sweeps.remove(&parent).expect("parent present");
            let scenarios: Vec<Json> =
                sw.parts.into_iter().map(|p| p.unwrap_or(Json::Null)).collect();
            let result = obj([
                ("scenarios", Json::Arr(scenarios)),
                (
                    "cache",
                    obj([
                        ("compiles", Json::num(sw.cache_compiles)),
                        ("hits", Json::num(sw.cache_hits)),
                    ]),
                ),
                (
                    "steals",
                    obj([
                        ("steals", Json::num(sw.steals)),
                        ("stolen_items", Json::num(sw.stolen_items)),
                    ]),
                ),
                (
                    "shards",
                    obj([
                        ("covered", Json::num(sw.covered as f64)),
                        ("requested", Json::num(sw.total as f64)),
                    ]),
                ),
            ]);
            self.emit(ok_reply(&sw.client_id, result));
        }
    }

    fn worker_gone(&mut self, shard: usize, gen: u64) {
        if self.slots[shard].generation != gen || self.slots[shard].child.is_none() {
            return; // stale notification, or already reaped proactively
        }
        self.fail_worker(shard, ShardIncidentKind::Crash, "worker stdout closed (process died)");
        self.dispatch();
    }

    /// Reap a worker (crash observed or hang declared): kill + wait the
    /// process, record the failure with the supervisor, and requeue or
    /// fail its in-flight job.
    fn fail_worker(&mut self, shard: usize, kind: ShardIncidentKind, detail: &str) {
        let now = self.now_ms();
        let (phase, busy) = {
            let slot = &mut self.slots[shard];
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.stdin = None;
            slot.pings_outstanding = 0;
            if kind == ShardIncidentKind::Hang {
                slot.hangs += 1;
            }
            (slot.sup.on_failure(now), slot.busy.take())
        };
        self.incident(shard, kind, detail);
        if let ShardPhase::Open { until_ms } = phase {
            self.incident(
                shard,
                ShardIncidentKind::CircuitOpen,
                &format!("restart storm; circuit open until t+{}ms", until_ms.saturating_sub(now)),
            );
        }
        if let Some(jid) = busy {
            self.requeue_or_fail(jid);
        }
    }

    /// A dispatched job lost its worker. Retry it under a fresh internal
    /// id (straggler replies to the old id can then never duplicate), or
    /// answer `unavailable` when out of budget.
    fn requeue_or_fail(&mut self, jid: u64) {
        let now = self.now_ms();
        let Some(mut job) = self.remove_job(jid) else { return };
        if job.idempotent && job.attempts < self.cfg.max_attempts && now < job.deadline_ms {
            job.shard = None;
            let fresh = self.next_id();
            if let Json::Obj(m) = &mut job.body {
                m.insert("id".to_string(), Json::num(fresh as f64));
            }
            self.jobs.insert(fresh, job);
            self.pending.push_front(fresh);
            return;
        }
        let detail = format!(
            "worker died with the request in flight ({} of {} attempts used{})",
            job.attempts,
            self.cfg.max_attempts,
            if job.idempotent { "" } else { "; op is not idempotent" },
        );
        self.fail_job(&job, ErrorKind::Unavailable, detail);
    }

    /// Answer a job the pool gave up on: a typed error reply to the
    /// client, or a typed `shard_error` part of the sweep it belongs to.
    fn fail_job(&mut self, job: &PoolJob, kind: ErrorKind, detail: String) {
        match job.kind {
            JobKind::Direct => self.emit(err_reply(&job.client_id, kind, &detail)),
            JobKind::SweepShard { parent, idx } => {
                self.sweep_part(parent, idx, Err((kind.name().into(), detail)))
            }
        }
    }

    /// Remove a job from every index (jobs map, pending queue, the busy
    /// marker of whichever slot holds it).
    fn remove_job(&mut self, jid: u64) -> Option<PoolJob> {
        let job = self.jobs.remove(&jid)?;
        self.pending.retain(|&p| p != jid);
        if let Some(shard) = job.shard {
            if self.slots[shard].busy == Some(jid) {
                self.slots[shard].busy = None;
            }
        }
        Some(job)
    }

    // ---- supervision timer ----------------------------------------------

    fn tick(&mut self) {
        let now = self.now_ms();

        // Deadlines: the authoritative `timeout` reply, then reap the
        // shard still sitting on the request (it is wedged or crawling;
        // either way its eventual output is already worthless).
        let expired: Vec<u64> = self
            .jobs
            .iter()
            .filter(|(_, j)| now >= j.deadline_ms)
            .map(|(&k, _)| k)
            .collect();
        for jid in expired {
            let Some(job) = self.remove_job(jid) else { continue };
            let detail = format!(
                "deadline {}ms expired after {} attempt(s)",
                self.cfg.deadline_ms, job.attempts
            );
            self.fail_job(&job, ErrorKind::Timeout, detail);
            if let Some(shard) = job.shard {
                if self.slots[shard].child.is_some() {
                    self.fail_worker(
                        shard,
                        ShardIncidentKind::Hang,
                        "request deadline expired in flight; reaping worker",
                    );
                }
            }
        }

        // Health pings: probe every live worker; reap after ping_misses
        // consecutive silences.
        for shard in 0..self.slots.len() {
            let due = {
                let s = &self.slots[shard];
                s.stdin.is_some()
                    && now.saturating_sub(s.last_ping_ms) >= self.cfg.ping_interval_ms
            };
            if !due {
                continue;
            }
            if self.slots[shard].pings_outstanding >= self.cfg.ping_misses {
                let misses = self.slots[shard].pings_outstanding;
                self.fail_worker(
                    shard,
                    ShardIncidentKind::Hang,
                    &format!("{misses} consecutive pings unanswered; reaping worker"),
                );
                continue;
            }
            let stdin = self.slots[shard].stdin.as_mut().expect("due shard has stdin");
            if write_line(stdin, PING_LINE.to_string()).is_ok() {
                self.slots[shard].pings_outstanding += 1;
                self.slots[shard].last_ping_ms = now;
            } else {
                self.fail_worker(shard, ShardIncidentKind::Crash, "ping write failed");
            }
        }

        self.spawn_ready();
        self.dispatch();
    }

    fn spawn_ready(&mut self) {
        let now = self.now_ms();
        for shard in 0..self.slots.len() {
            if self.slots[shard].child.is_none() && self.slots[shard].sup.ready_to_spawn(now) {
                self.spawn_shard(shard);
            }
        }
    }

    fn spawn_shard(&mut self, shard: usize) {
        let now = self.now_ms();
        self.slots[shard].generation += 1;
        let gen = self.slots[shard].generation;
        let subst = |a: &String| {
            a.replace("{shard}", &shard.to_string()).replace("{gen}", &gen.to_string())
        };
        let mut cmd = Command::new(&self.cfg.worker_exe);
        cmd.args(self.cfg.worker_args.iter().map(subst));
        if let Some(extra) = self.cfg.worker_extra.get(shard) {
            cmd.args(extra.iter().map(subst));
        }
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::null());
        match cmd.spawn() {
            Ok(mut child) => {
                let stdin = child.stdin.take().expect("piped stdin");
                let stdout = child.stdout.take().expect("piped stdout");
                // Detached (not scoped): it parks in a blocking read on
                // the child pipe and exits on EOF — which the router
                // forces by killing the child.
                let tx = self.tx.clone();
                std::thread::spawn(move || {
                    let mut stdout = std::io::BufReader::new(stdout);
                    let event = move |frame| Event::Worker(shard, gen, frame);
                    pump(&mut stdout, &tx, event, Event::WorkerGone(shard, gen));
                });
                let respawn = {
                    let s = &mut self.slots[shard];
                    s.child = Some(child);
                    s.stdin = Some(stdin);
                    s.busy = None;
                    s.pings_outstanding = 0;
                    s.last_ping_ms = now;
                    s.sup.on_spawned();
                    s.sup.spawns > 1
                };
                if respawn {
                    self.incident(
                        shard,
                        ShardIncidentKind::Restart,
                        &format!("respawned as generation {gen}"),
                    );
                }
            }
            Err(e) => {
                let phase = self.slots[shard].sup.on_failure(now);
                self.incident(
                    shard,
                    ShardIncidentKind::SpawnFailed,
                    &format!("spawn {:?} failed: {e}", self.cfg.worker_exe),
                );
                if let ShardPhase::Open { .. } = phase {
                    self.incident(
                        shard,
                        ShardIncidentKind::CircuitOpen,
                        "restart storm while spawning; circuit open",
                    );
                }
            }
        }
    }

    // ---- introspection --------------------------------------------------

    fn build_status(&self) -> Json {
        let shards: Vec<Json> = self
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("shard", Json::num(i as f64)),
                    ("phase", Json::str(s.sup.phase().name())),
                    ("generation", Json::num(s.generation as f64)),
                    ("busy", Json::Bool(s.busy.is_some())),
                    ("spawns", Json::num(s.sup.spawns as f64)),
                    ("failures", Json::num(s.sup.failures as f64)),
                    ("hangs", Json::num(s.hangs as f64)),
                    ("garbage", Json::num(s.garbage as f64)),
                    ("circuit_opens", Json::num(s.sup.circuit_opens as f64)),
                ])
            })
            .collect();
        let healthy =
            self.slots.iter().filter(|s| matches!(s.sup.phase(), ShardPhase::Up)).count();
        let inflight = self.slots.iter().filter(|s| s.busy.is_some()).count();
        let incidents: Vec<Json> = self.incidents.iter().map(incident_json).collect();
        obj([
            ("role", Json::str("pool")),
            ("shards", Json::Arr(shards)),
            ("healthy", Json::num(healthy as f64)),
            ("pending", Json::num(self.pending.len() as f64)),
            ("inflight", Json::num(inflight as f64)),
            ("queue_cap", Json::num(self.cfg.queue as f64)),
            ("requested", Json::num(self.requested as f64)),
            ("incidents_total", Json::num(self.incidents_total as f64)),
            ("incidents", Json::Arr(incidents)),
        ])
    }

    fn finished(&self) -> bool {
        self.client_eof && self.jobs.is_empty() && self.sweeps.is_empty()
    }

    fn kill_all(&mut self) {
        for slot in &mut self.slots {
            slot.stdin = None;
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Pump the frames of one stream into the router, then `eof` — the reader
/// loop of the client side and of every worker generation's stdout.
fn pump(
    input: &mut impl BufRead,
    tx: &mpsc::Sender<Event>,
    event: impl Fn(Frame) -> Event,
    eof: Event,
) {
    for frame in frames(input, false) {
        let Ok(frame) = frame else { break };
        if tx.send(event(frame)).is_err() {
            return;
        }
    }
    let _ = tx.send(eof);
}

/// Run the supervised pool over arbitrary client streams (the `--pool`
/// mode of the binary, and directly testable). Returns after client EOF
/// once every outstanding request has its reply.
pub fn pool_lines(
    cfg: &PoolConfig,
    input: &mut (impl BufRead + Send),
    output: &mut impl Write,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<Event>();
    let mut pool = Pool::new(cfg.clone(), tx.clone());
    let tick_ms = cfg.tick_ms.clamp(1, 1_000);

    std::thread::scope(|scope| -> std::io::Result<()> {
        let tick_tx = tx.clone();
        scope.spawn(move || loop {
            std::thread::sleep(Duration::from_millis(tick_ms));
            if tick_tx.send(Event::Tick).is_err() {
                return;
            }
        });
        scope.spawn(move || pump(input, &tx, Event::Client, Event::ClientEof));

        pool.spawn_ready();
        let mut write_err: Option<std::io::Error> = None;
        let mut client_gone = false;
        for ev in &rx {
            match ev {
                Event::Client(Frame::Line(line)) => pool.admit_line(&line),
                Event::Client(Frame::Oversized) => pool.emit(oversized_reply()),
                Event::ClientEof => pool.client_eof = true,
                Event::Worker(shard, gen, line) => pool.worker_line(shard, gen, line),
                Event::WorkerGone(shard, gen) => pool.worker_gone(shard, gen),
                Event::Tick => pool.tick(),
            }
            for line in pool.outbox.drain(..) {
                if client_gone {
                    continue;
                }
                if let Err(e) = write_line(output, line) {
                    // A vanished client stops replies, not supervision:
                    // outstanding work still drains so workers end clean.
                    client_gone = true;
                    if !is_disconnect(e.kind()) {
                        write_err = Some(e);
                    }
                }
            }
            if pool.finished() {
                break;
            }
        }
        pool.kill_all();
        drop(rx); // ticker notices within one tick and exits
        match write_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

/// Convenience for tests: run one batch of lines through a fresh pool and
/// return every reply line.
pub fn pool_script(cfg: &PoolConfig, script: &str) -> Vec<String> {
    let mut out: Vec<u8> = Vec::new();
    let mut input = std::io::Cursor::new(script.as_bytes().to_vec());
    pool_lines(cfg, &mut input, &mut out).expect("in-memory pool serving cannot fail");
    String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
}
