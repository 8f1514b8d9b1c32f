//! The serving engine: a bounded job queue, a worker pool, and the
//! request handlers.
//!
//! Three invariants a long-running evaluation service must keep:
//!
//! * **never exit on input**: malformed lines, invalid configs and failed
//!   evaluations all become typed error replies ([`crate::proto::ErrorKind`]);
//!   handler panics are contained with `catch_unwind` and reported as
//!   `internal`;
//! * **never OOM**: admission happens through a bounded queue — when it is
//!   full the request is *rejected immediately* with an `overloaded`
//!   reply (backpressure by rejection, not by buffering), and incoming
//!   lines are length-capped ([`crate::wire::MAX_LINE_BYTES`]) with the
//!   oversized remainder drained, not stored;
//! * **reuse work**: one [`ArtifactCache`] per trip-count scale, shared by
//!   every worker, so repeated `simulate`/`sweep` requests against the
//!   same scale skip recompilation entirely (the cache's contract binds it
//!   to one catalog + scale — hence one entry per scale, which also keeps
//!   the workloads built at that scale). At most [`MAX_SCALES`] entries are
//!   kept, least recently used out first: `scale` is client input, and an
//!   entry per value ever sent would be the unbounded buffer the first two
//!   invariants rule out.

use crate::chaos::{ChaosPlan, ChaosVerdict};
use crate::json::{obj, parse, Json};
use crate::proto::{
    admit, err_json, err_reply, incident_json, ok_json, oversized_reply, pong, Admission,
    ErrorKind, Op, Request,
};
use crate::wire::{frames, write_line, Frame};
use ilpc_guard::GuardConfig;
use ilpc_harness::grid::PointError;
use ilpc_harness::sweep::{run_sweep, Scenario, SweepConfig};
use ilpc_harness::ArtifactCache;
use ilpc_machine::Machine;
use ilpc_workloads::{build, check_scale, table2, Workload};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// `overloaded`.
    pub queue: usize,
    /// Worker threads available to each sweep job's stealing pool.
    pub sweep_threads: usize,
    /// Seeded fault injection for chaos drills (stdin mode only); `None`
    /// in production. See [`crate::chaos`].
    pub chaos: Option<ChaosPlan>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let sweep_threads = ilpc_harness::steal::default_threads();
        ServeConfig { workers: 2, queue: 64, sweep_threads, chaos: None }
    }
}

/// One queued job: a parsed request plus where its reply goes.
struct Job {
    req: Request,
    reply: mpsc::Sender<String>,
}

/// Bounded MPMC queue: reject-on-full admission, blocking removal.
struct BoundedQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl BoundedQueue {
    fn new(cap: usize) -> BoundedQueue {
        BoundedQueue {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admit a job, or reject it immediately when the queue is full —
    /// the backpressure contract: the caller replies `overloaded` and the
    /// server's memory use stays bounded no matter how fast clients push.
    fn push(&self, job: Job) -> Result<(), Job> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.jobs.len() >= self.cap {
            return Err(job);
        }
        st.jobs.push_back(job);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking removal; `None` once closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).jobs.len()
    }
}

/// How many trip-count scales the engine keeps state for at once. Clients
/// use a handful (the paper's 1.0, a few reduced ones for smoke runs); the
/// bound is what matters, not its value.
pub const MAX_SCALES: usize = 8;

/// `scale` as a request may use it: [`check_scale`]d, so finite, positive
/// and at most [`ilpc_workloads::MAX_SCALE`] — `scale` is client input and
/// sizes every array of a workload. Each op resolves its scale through
/// here before anything is sized by it.
fn checked_scale(scale: f64) -> Result<f64, (ErrorKind, String)> {
    check_scale(scale).map_err(|e| (ErrorKind::BadConfig, e))
}

/// Everything the engine keeps for one trip-count scale: the artifact cache
/// (bound by its contract to one catalog at one scale) and the catalog's
/// workloads at that scale, each built on first use.
struct ScaleState {
    scale: f64,
    artifacts: Arc<ArtifactCache>,
    workloads: Mutex<HashMap<&'static str, Arc<Workload>>>,
}

impl ScaleState {
    fn workload(&self, name: &str) -> Result<Arc<Workload>, (ErrorKind, String)> {
        let mut built = self.workloads.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(w) = built.get(name) {
            return Ok(Arc::clone(w));
        }
        let w = Arc::new(find_workload(name, self.scale)?);
        built.insert(w.meta.name, Arc::clone(&w));
        Ok(w)
    }
}

/// Shared evaluation state.
struct Engine {
    sweep_threads: usize,
    workers: usize,
    /// Back-reference to the admission queue so `status` can report
    /// depth/capacity (introspection only — the queue owns admission).
    queue: Arc<BoundedQueue>,
    /// Per-scale state, most recently used first, at most [`MAX_SCALES`].
    scales: Mutex<Vec<Arc<ScaleState>>>,
}

impl Engine {
    /// The state for `scale`, created on first use. A request in flight
    /// holds its own handle, so evicting an entry never pulls state from
    /// under it.
    fn scale(&self, scale: f64) -> Arc<ScaleState> {
        let mut scales = self.scales.lock().unwrap_or_else(|p| p.into_inner());
        let state = match scales.iter().position(|s| s.scale.to_bits() == scale.to_bits()) {
            Some(k) => scales.remove(k),
            None => Arc::new(ScaleState {
                scale,
                artifacts: Arc::new(ArtifactCache::new()),
                workloads: Mutex::new(HashMap::new()),
            }),
        };
        scales.insert(0, Arc::clone(&state));
        scales.truncate(MAX_SCALES);
        state
    }
}

/// The server: worker pool + bounded queue. Front ends ([`serve_lines`],
/// [`serve_tcp`]) feed it request lines and forward its replies.
pub struct Server {
    queue: Arc<BoundedQueue>,
    engine: Arc<Engine>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    pub fn start(cfg: &ServeConfig) -> Server {
        let queue = Arc::new(BoundedQueue::new(cfg.queue));
        let engine = Arc::new(Engine {
            sweep_threads: cfg.sweep_threads.max(1),
            workers: cfg.workers.max(1),
            queue: Arc::clone(&queue),
            scales: Mutex::new(Vec::new()),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        let reply = handle_job(&engine, &job.req);
                        // A gone receiver means the client hung up; drop
                        // the reply and keep serving.
                        let _ = job.reply.send(reply.to_string());
                    }
                })
            })
            .collect();
        Server { queue, engine, workers }
    }

    /// Handle one raw request line: parse, admit, or reply immediately
    /// with a typed error. Replies (including the typed rejections
    /// produced here) arrive on `reply`.
    pub fn submit_line(&self, line: &str, reply: &mpsc::Sender<String>) {
        let req = match admit(line) {
            Admission::Blank => return,
            Admission::Reply(line) => {
                let _ = reply.send(line);
                return;
            }
            Admission::Request(req, _) => req,
        };
        // Introspection bypasses the bounded queue like `ping` does: it
        // must not bounce off a full queue with `overloaded`, and its
        // handler is O(1).
        if matches!(req.op, Op::Status) {
            let _ = reply.send(handle_job(&self.engine, &req).to_string());
            return;
        }
        if let Err(job) = self.queue.push(Job { req, reply: reply.clone() }) {
            let _ = job.reply.send(err_reply(
                &job.req.id,
                ErrorKind::Overloaded,
                &format!("queue full ({} jobs); retry later", self.queue.len()),
            ));
        }
    }

    /// Close admission and wait for queued jobs to finish.
    pub fn shutdown(self) {
        self.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Execute one request with panic containment: a crash in a handler becomes
/// a typed `internal` reply, never a dead worker or a dead process.
fn handle_job(engine: &Engine, req: &Request) -> Json {
    match catch_unwind(AssertUnwindSafe(|| handle_op(engine, &req.op))) {
        Ok(Ok(result)) => ok_json(&req.id, result),
        Ok(Err((kind, detail))) => err_json(&req.id, kind, &detail),
        Err(payload) => err_json(
            &req.id,
            ErrorKind::Internal,
            &format!("handler panicked (contained): {}", ilpc_guard::panic_message(payload)),
        ),
    }
}

fn handle_op(engine: &Engine, op: &Op) -> Result<Json, (ErrorKind, String)> {
    match op {
        Op::Compile { workload, level, width, vlen, scale, lint } => {
            let w = find_workload(workload, checked_scale(*scale)?)?;
            let machine = Machine::issue(*width).with_vlen(*vlen);
            let g = ilpc_harness::compile_guarded(
                &w,
                *level,
                &machine,
                GuardConfig::default(),
                None,
            );
            // Per-request incident reporting: every contained firewall
            // incident rides the reply as a typed record.
            let incidents: Vec<Json> = g.guard.records().iter().map(incident_json).collect();
            let mut reply = obj([
                ("workload", Json::str(workload.as_str())),
                ("level", Json::str(level.name())),
                ("width", Json::num(*width)),
                ("static_insts", Json::num(g.compiled.static_insts as f64)),
                ("regs", Json::num(g.compiled.regs.total())),
                (
                    "achieved",
                    g.guard
                        .achieved
                        .map(|l| Json::str(l.name()))
                        .unwrap_or(Json::Null),
                ),
                ("clean", Json::Bool(g.guard.clean())),
                ("incidents", Json::Arr(incidents)),
            ]);
            if *lint {
                let mut diags = ilpc_lint::lint_module(&g.compiled.module);
                diags.extend(ilpc_lint::audit_schedules(
                    &g.compiled.module,
                    &g.compiled.schedules,
                    &machine,
                ));
                ilpc_lint::sort_diagnostics(&mut diags);
                let count = |s| ilpc_lint::count_severity(&diags, s) as f64;
                let audit = obj([
                    ("errors", Json::num(count(ilpc_lint::Severity::Error))),
                    ("warnings", Json::num(count(ilpc_lint::Severity::Warning))),
                    ("notes", Json::num(count(ilpc_lint::Severity::Note))),
                    (
                        "diags",
                        Json::Arr(diags.iter().map(|d| d.to_json()).collect()),
                    ),
                ]);
                if let Json::Obj(fields) = &mut reply {
                    fields.insert("lint".to_string(), audit);
                }
            }
            Ok(reply)
        }
        Op::Simulate { workload, level, width, vlen, scale, mem } => {
            let state = engine.scale(checked_scale(*scale)?);
            let w = state.workload(workload)?;
            let machine = Machine::issue(*width).with_mem(*mem).with_vlen(*vlen);
            let p = state
                .artifacts
                .evaluate(&w, *level, &machine)
                .map_err(|e| (ErrorKind::EvalFailed, e))?;
            Ok(obj([
                ("workload", Json::str(workload.as_str())),
                ("level", Json::str(level.name())),
                ("width", Json::num(*width)),
                ("cycles", Json::num(p.cycles as f64)),
                ("dyn_insts", Json::num(p.dyn_insts as f64)),
                ("static_insts", Json::num(p.static_insts as f64)),
                ("regs", Json::num(p.regs.total())),
                (
                    "mem",
                    obj([
                        ("accesses", Json::num(p.mem.accesses() as f64)),
                        ("hits", Json::num(p.mem.hits() as f64)),
                        ("misses", Json::num(p.mem.misses() as f64)),
                    ]),
                ),
            ]))
        }
        Op::Sweep { scale, levels, widths, mems, sabotage } => {
            let scale = checked_scale(*scale)?;
            let cfg = SweepConfig {
                scale,
                levels: levels.clone(),
                widths: widths.clone(),
                threads: engine.sweep_threads,
                scenarios: mems.iter().copied().map(Scenario::mem).collect(),
                sabotage: sabotage.clone(),
                artifacts: Some(Arc::clone(&engine.scale(scale).artifacts)),
            };
            let sweep =
                run_sweep(&cfg).map_err(|e| (ErrorKind::BadConfig, e.to_string()))?;
            let scenarios: Vec<Json> = sweep
                .scenarios
                .iter()
                .zip(&sweep.grids)
                .map(|(s, g)| {
                    let all = || g.meta.iter().map(|m| m.name);
                    let top = *g.levels.last().unwrap();
                    let wide = *g.widths.iter().max().unwrap();
                    let mean = g.mean_speedup(all(), top, wide);
                    let errors: Vec<Json> = g
                        .errors
                        .iter()
                        .map(|e| {
                            let kind = match &e.error {
                                PointError::Eval(_) => "eval",
                                PointError::Panic(_) => "panic",
                            };
                            obj([
                                ("workload", Json::str(e.workload.as_str())),
                                ("level", Json::str(e.level.name())),
                                ("width", Json::num(e.width)),
                                ("kind", Json::str(kind)),
                                ("detail", Json::str(e.error.to_string())),
                            ])
                        })
                        .collect();
                    obj([
                        ("label", Json::str(s.label.as_str())),
                        ("completed", Json::num(g.completed() as f64)),
                        ("errors", Json::Arr(errors)),
                        (
                            "mean_speedup",
                            obj([
                                (
                                    "value",
                                    mean.partial().map(Json::Num).unwrap_or(Json::Null),
                                ),
                                ("level", Json::str(top.name())),
                                ("width", Json::num(wide)),
                                ("covered", Json::num(mean.covered() as f64)),
                                ("requested", Json::num(mean.requested() as f64)),
                            ]),
                        ),
                    ])
                })
                .collect();
            Ok(obj([
                ("scenarios", Json::Arr(scenarios)),
                (
                    "cache",
                    obj([
                        ("compiles", Json::num(sweep.cache.compiles as f64)),
                        ("hits", Json::num(sweep.cache.hits as f64)),
                    ]),
                ),
                (
                    "steals",
                    obj([
                        ("steals", Json::num(sweep.steals.steals as f64)),
                        ("stolen_items", Json::num(sweep.steals.stolen_items as f64)),
                    ]),
                ),
            ]))
        }
        Op::Ping => Ok(pong()),
        Op::Status => Ok(obj([
            ("role", Json::str("single")),
            ("workers", Json::num(engine.workers as f64)),
            ("queue_depth", Json::num(engine.queue.len() as f64)),
            ("queue_cap", Json::num(engine.queue.cap as f64)),
            (
                "scales",
                Json::num(engine.scales.lock().unwrap_or_else(|p| p.into_inner()).len() as f64),
            ),
        ])),
        // One job, several requests: replies in submission order, each
        // with its own id and ok/error envelope.
        Op::Batch(reqs) => {
            Ok(obj([("replies", Json::Arr(reqs.iter().map(|r| handle_job(engine, r)).collect()))]))
        }
    }
}

/// Build Table 2 nest `name` at an already [`checked_scale`].
fn find_workload(name: &str, scale: f64) -> Result<Workload, (ErrorKind, String)> {
    table2()
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| build(&m, scale))
        .ok_or_else(|| {
            (ErrorKind::BadConfig, format!("unknown workload {name:?} (see Table 2)"))
        })
}

/// Private sentinel prefix carried over the reply channel for the chaos
/// `partial` verdict: the writer thread emits the payload *without* a
/// newline, flushes the torn bytes, then aborts the process.
const CHAOS_PARTIAL_MARK: &str = "\u{1}chaos-partial\u{1}";

/// One client session, the same for every transport: read frames off
/// `input` and submit them, while a dedicated writer thread sends each
/// reply the moment it completes — a one-in-flight client paces requests
/// off replies, so holding a reply until the next input line would
/// deadlock it. After EOF (or a read error) the writer drains: it ends
/// when the last queued job of this session has dropped its reply sender.
/// Isolation is by channel — a reply can only reach the session whose
/// request produced it.
fn session(
    server: &Server,
    input: &mut impl BufRead,
    output: &mut (impl Write + Send),
    strict_eol: bool,
    mut chaos: Option<ChaosPlan>,
) -> std::io::Result<()> {
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            for line in rx {
                if let Some(torn) = line.strip_prefix(CHAOS_PARTIAL_MARK) {
                    let _ = output.write_all(torn.as_bytes());
                    let _ = output.flush();
                    std::process::abort();
                }
                write_line(output, line)?;
            }
            Ok(())
        });

        let read_result = frames(input, strict_eol).try_for_each(|frame| {
            match frame? {
                Frame::Oversized => {
                    let _ = tx.send(oversized_reply());
                }
                Frame::Line(line) => match chaos_verdict(&mut chaos, &line) {
                    ChaosVerdict::Forward => server.submit_line(&line, &tx),
                    ChaosVerdict::Kill => std::process::abort(),
                    ChaosVerdict::Stall => loop {
                        // The SIGSTOP analogue: stop reading forever.
                        // Pongs cease with everything else; only the
                        // supervisor can recover this process.
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    },
                    ChaosVerdict::Garbage => {
                        let _ = tx.send("#chaos garbage {{{not json".to_string());
                    }
                    ChaosVerdict::Partial => {
                        let _ = tx.send(format!("{CHAOS_PARTIAL_MARK}{{\"id\":4242,\"ok\":tru"));
                    }
                    ChaosVerdict::Drop => {}
                },
            }
            Ok(())
        });

        drop(tx);
        let write_result = writer.join().expect("reply writer thread");
        read_result.and(write_result)
    })
}

/// Consult the chaos plan for one raw request line, if a plan is armed.
fn chaos_verdict(chaos: &mut Option<ChaosPlan>, line: &str) -> ChaosVerdict {
    match chaos {
        None => ChaosVerdict::Forward,
        Some(plan) => {
            let parsed = parse(line).ok();
            let op = parsed.as_ref().and_then(|v| v.get("op")).and_then(Json::as_str);
            plan.decide(op)
        }
    }
}

/// Serve JSON-lines over arbitrary reader/writer streams (the stdin mode
/// of the binary, and directly testable): one `session` on a server of
/// its own, with `cfg.chaos` armed. Returns once every reply is written.
pub fn serve_lines(
    cfg: &ServeConfig,
    input: &mut impl BufRead,
    output: &mut (impl Write + Send),
) -> std::io::Result<()> {
    let server = Server::start(cfg);
    let result = session(&server, input, output, false, cfg.chaos.clone());
    server.shutdown();
    result
}

/// How long the accept loop sleeps after a failed `accept`: a persistent
/// failure (EMFILE) must not turn the loop into a busy spin.
const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);

/// Serve JSON-lines over TCP: one `session` per connection, all feeding
/// one shared server. Returns the bound address; serving continues on
/// background threads for `conn_limit` connections (`None` = forever —
/// the binary's mode), after which the server is shut down.
///
/// A client that goes away is a normal end of its session, not a failure:
/// EOF, a mid-line disconnect (unterminated final fragment — `strict_eol`)
/// and reset/abort errors all close the connection with no error reply
/// attempted at the dead socket, and there is nobody to report them to.
pub fn serve_tcp(
    cfg: &ServeConfig,
    addr: &str,
    conn_limit: Option<usize>,
) -> std::io::Result<(std::net::SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = std::net::TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let cfg = cfg.clone();
    let accept_loop = std::thread::spawn(move || {
        let server = Server::start(&cfg);
        // Scoped threads: a finished connection frees its own bookkeeping
        // (a listener that runs forever keeps no handle per connection),
        // and the scope joins the ones still open before shutdown.
        std::thread::scope(|scope| {
            let mut accepted = 0usize;
            for stream in listener.incoming() {
                let Ok(stream) = stream else {
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                };
                accepted += 1;
                let server = &server;
                scope.spawn(move || {
                    let mut input = std::io::BufReader::new(&stream);
                    let _ = session(server, &mut input, &mut &stream, true, None);
                });
                if conn_limit.is_some_and(|n| accepted >= n) {
                    break;
                }
            }
        });
        server.shutdown();
    });
    Ok((local, accept_loop))
}

/// Convenience for tests: run one batch of lines through a fresh server
/// and return every reply line.
pub fn serve_script(cfg: &ServeConfig, script: &str) -> Vec<String> {
    let mut out: Vec<u8> = Vec::new();
    let mut input = std::io::Cursor::new(script.as_bytes());
    serve_lines(cfg, &mut input, &mut out).expect("in-memory serving cannot fail");
    String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
}
