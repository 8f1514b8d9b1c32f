//! The five workloads: their point sets and seeded request streams.
//!
//! Every workload draws from the same 480 grid points (40 loop nests ×
//! 6 levels × issue widths {1, 8}). The *set* of requests a workload
//! sends is fixed; `--seed` decides their order: the stream is a
//! concatenation of rounds, each round one seeded permutation of the
//! whole set. Timed phases end on a round boundary, so the work measured
//! is the same for every seed and only its order differs — which is what
//! keeps throughput comparable across seeds even though single requests
//! differ in cost by two orders of magnitude.

use ilpc_core::level::Level;
use ilpc_machine::{CacheParams, Machine, MemConfig};
use ilpc_testkit::TestRng;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1992;

/// Issue widths of the point set: the paper's base machine and its widest.
pub const WIDTHS: [u32; 2] = [1, 8];

/// How the server is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `ilpc-serve --workers 1` over stdin/stdout pipes.
    Stdin,
    /// `ilpc-serve --tcp 127.0.0.1:0 --workers 1`, one connection.
    Tcp,
    /// `ilpc-serve --pool 2 --workers 1 --sweep-threads 1` over pipes.
    Pool,
}

/// What the timed requests ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fresh server per request, one 480-point `sweep` each.
    SweepCold,
    /// Warm `simulate` requests (artifact cache filled by the warm-up).
    Simulate,
    /// `compile` requests under the guard; nothing is cached on this op.
    Compile,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub front: Front,
    pub kind: Kind,
    /// Trip-count scale of every request.
    pub scale: f64,
    /// Vector length requested at `Lev6` (the sweep op has no vlen axis).
    pub lev6_vlen: u32,
    /// Memory configurations crossed with the points.
    pub mems: &'static [MemConfig],
    /// Requests per round of the timed phase, which measures whole rounds:
    /// the whole point set where request costs differ, 1 where every
    /// request costs the same.
    pub round: usize,
    /// Server spawns whose set-up time is sampled per run.
    pub setups: usize,
    /// Requests the traced in-process replay performs: fixed, so its work
    /// counters repeat exactly, and one whole round on the simulate
    /// workloads, so its cycle total equals `model_cycles_total`.
    pub replay_requests: usize,
}

const PERFECT: &[MemConfig] = &[MemConfig::Perfect];

/// The two finite caches of `pool_simulate_cachemem`: a small slow one and
/// a larger faster one (line 4 words; sets / ways / miss cycles differ).
pub const POOL_MEMS: &[MemConfig] = &[
    MemConfig::Cache(CacheParams {
        l1: ilpc_machine::CacheGeometry {
            line_words: 4,
            sets: 16,
            ways: 2,
        },
        load_miss_latency: 30,
        store_miss_latency: 30,
        l2: None,
    }),
    MemConfig::Cache(CacheParams {
        l1: ilpc_machine::CacheGeometry {
            line_words: 4,
            sets: 64,
            ways: 4,
        },
        load_miss_latency: 12,
        store_miss_latency: 12,
        l2: None,
    }),
];

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "sweep_cold",
        why: "researcher's path: fresh server, one cold 480-point sweep at scale 1.0; the compile layers and harness::steal do the work",
        front: Front::Stdin,
        kind: Kind::SweepCold,
        scale: 1.0,
        lev6_vlen: 1,
        mems: PERFECT,
        round: 1,
        setups: 0,
        replay_requests: 4,
    },
    Spec {
        name: "simulate_warm",
        why: "service hot path over stdin: 100% artifact-cache hits at scale 4.0, so sim.simulate and per-request fixed costs do all the work",
        front: Front::Stdin,
        kind: Kind::Simulate,
        scale: 4.0,
        lev6_vlen: 4,
        mems: PERFECT,
        round: 480,
        setups: 3,
        replay_requests: 480,
    },
    Spec {
        name: "simulate_tcp",
        why: "same requests at scale 0.05 over one TCP connection: every layer nearly idle, so transport cost is the whole number",
        front: Front::Tcp,
        kind: Kind::Simulate,
        scale: 0.05,
        lev6_vlen: 4,
        mems: PERFECT,
        round: 1,
        setups: 3,
        replay_requests: 480,
    },
    Spec {
        name: "compile_guarded",
        why: "uncached guarded compile at scale 0.25, lint on half: the only workload where guard and lint work; sim runs short and decode-bound",
        front: Front::Stdin,
        kind: Kind::Compile,
        scale: 0.25,
        lev6_vlen: 4,
        mems: PERFECT,
        round: 480,
        setups: 15,
        replay_requests: 240,
    },
    Spec {
        name: "pool_simulate_cachemem",
        why: "operator's path: --pool 2 router hop and worker pipe on top of warm simulate, with two finite CacheMem configs instead of PerfectMem",
        front: Front::Pool,
        kind: Kind::Simulate,
        scale: 4.0,
        lev6_vlen: 4,
        mems: POOL_MEMS,
        round: 960,
        setups: 2,
        replay_requests: 960,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One request's subject: a grid point under one memory configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Index into `table2()`.
    pub loop_idx: usize,
    pub name: &'static str,
    pub level: Level,
    pub width: u32,
    pub vlen: u32,
    pub mem: MemConfig,
    /// `compile` requests carry `lint: true` on a checkerboard of the
    /// (loop, level, width) axes — every second point along each axis.
    pub lint: bool,
}

impl Point {
    pub fn machine(&self) -> Machine {
        Machine::issue(self.width)
            .with_mem(self.mem)
            .with_vlen(self.vlen)
    }
}

impl Spec {
    /// The workload's point set, memory-major then table-2 order: the same
    /// for every seed.
    pub fn points(&self) -> Vec<Point> {
        let metas = ilpc_workloads::table2();
        let mut out = Vec::with_capacity(self.mems.len() * metas.len() * 12);
        for &mem in self.mems {
            for (loop_idx, meta) in metas.iter().enumerate() {
                for (li, level) in Level::ALL.into_iter().enumerate() {
                    for (wi, width) in WIDTHS.into_iter().enumerate() {
                        out.push(Point {
                            loop_idx,
                            name: meta.name,
                            level,
                            width,
                            vlen: if level == Level::Lev6 {
                                self.lev6_vlen
                            } else {
                                1
                            },
                            mem,
                            lint: (loop_idx + li + wi) % 2 == 1,
                        });
                    }
                }
            }
        }
        out
    }

    /// Threads the server computes a timed request on: `--sweep-threads`
    /// for a sweep, else the one worker.
    pub fn server_threads(&self) -> usize {
        match self.kind {
            Kind::SweepCold => 2,
            Kind::Simulate | Kind::Compile => 1,
        }
    }

    /// Server argv for this workload's front door.
    pub fn server_args(&self) -> Vec<&'static str> {
        match (self.front, self.kind) {
            (Front::Stdin, Kind::SweepCold) => vec!["--workers", "1", "--sweep-threads", "2"],
            (Front::Stdin, _) => vec!["--workers", "1"],
            (Front::Tcp, _) => vec!["--tcp", "127.0.0.1:0", "--workers", "1"],
            (Front::Pool, _) => vec!["--pool", "2", "--workers", "1", "--sweep-threads", "1"],
        }
    }

    /// The one request line of `sweep_cold` (all 6 levels, widths [1, 8],
    /// perfect memory = 480 points).
    pub fn sweep_line(&self, id: u64) -> String {
        let levels: Vec<String> = Level::ALL
            .iter()
            .map(|l| format!("\"{}\"", l.name()))
            .collect();
        format!(
            "{{\"id\":{id},\"op\":\"sweep\",\"scale\":{},\"levels\":[{}],\"widths\":[1,8],\"mems\":[{{\"kind\":\"perfect\"}}]}}",
            self.scale,
            levels.join(",")
        )
    }

    /// Body (no `id`) of the request for `p`: `simulate`, or `compile` when
    /// `compile` is set.
    fn body(&self, p: &Point, compile: bool) -> String {
        let mut s = format!(
            "\"op\":\"{}\",\"workload\":\"{}\",\"level\":\"{}\",\"width\":{}",
            if compile { "compile" } else { "simulate" },
            p.name,
            p.level.name(),
            p.width
        );
        if p.vlen != 1 {
            s.push_str(&format!(",\"vlen\":{}", p.vlen));
        }
        s.push_str(&format!(",\"scale\":{}", self.scale));
        if compile {
            if p.lint {
                s.push_str(",\"lint\":true");
            }
        } else if let MemConfig::Cache(c) = p.mem {
            s.push_str(&format!(
                ",\"mem\":{{\"kind\":\"cache\",\"line_words\":{},\"sets\":{},\"ways\":{},\"load_miss\":{},\"store_miss\":{}}}",
                c.l1.line_words, c.l1.sets, c.l1.ways, c.load_miss_latency, c.store_miss_latency
            ));
        }
        s
    }

    /// The timed request line for `p`.
    pub fn request_line(&self, id: u64, p: &Point) -> String {
        format!(
            "{{\"id\":{id},{}}}",
            self.body(p, self.kind == Kind::Compile)
        )
    }

    /// One `batch` line simulating every point once, sub-request `k`
    /// carrying id `k`. On the simulate workloads this is the warm-up; on
    /// every workload its reply is where the exact model metrics are read.
    pub fn probe_line(&self, id: u64, points: &[Point]) -> String {
        let subs: Vec<String> = points
            .iter()
            .enumerate()
            .map(|(k, p)| format!("{{\"id\":{k},{}}}", self.body(p, false)))
            .collect();
        format!(
            "{{\"id\":{id},\"op\":\"batch\",\"requests\":[{}]}}",
            subs.join(",")
        )
    }
}

/// The seeded order of requests: point indices, round after round, each
/// round a fresh Fisher–Yates permutation of `0..n`.
pub struct Stream {
    rng: TestRng,
    n: usize,
    round: Vec<usize>,
    next: usize,
}

impl Stream {
    pub fn new(seed: u64, n: usize) -> Stream {
        Stream {
            rng: TestRng::seed_from_u64(seed),
            n,
            round: Vec::new(),
            next: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.round.len() {
            self.round = (0..self.n).collect();
            for i in (1..self.n).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.round.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        Some(self.round[self.next - 1])
    }
}

/// The first `count` request lines of a workload's stream for `seed`
/// (ids count from 0). `sweep_cold` sends the same line every time: its
/// input has nothing to permute.
pub fn request_lines(spec: &Spec, seed: u64, count: usize) -> Vec<String> {
    if spec.kind == Kind::SweepCold {
        return (0..count as u64).map(|id| spec.sweep_line(id)).collect();
    }
    let points = spec.points();
    Stream::new(seed, points.len())
        .take(count)
        .enumerate()
        .map(|(id, k)| spec.request_line(id as u64, &points[k]))
        .collect()
}

/// 64-bit FNV-1a over the request lines, newline-terminated: the
/// fingerprint printed per workload so two runs can show they sent the
/// same bytes.
pub fn fingerprint(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the first two rounds of a workload's stream.
pub fn stream_fingerprint(spec: &Spec, seed: u64) -> u64 {
    let n = if spec.kind == Kind::SweepCold {
        2
    } else {
        2 * spec.points().len()
    };
    fingerprint(&request_lines(spec, seed, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilpc_serve::{parse, parse_request, Op};

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for spec in &SPECS {
            let a = request_lines(spec, 7, 1000);
            let b = request_lines(spec, 7, 1000);
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(stream_fingerprint(spec, 7), stream_fingerprint(spec, 7));
            if spec.kind != Kind::SweepCold {
                assert_ne!(
                    stream_fingerprint(spec, 7),
                    stream_fingerprint(spec, 8),
                    "{}: a different seed must reorder the stream",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_round_is_a_permutation_of_the_point_set() {
        let n = 480;
        let order: Vec<usize> = Stream::new(3, n).take(3 * n).collect();
        for round in order.chunks(n) {
            let mut seen = round.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
        assert_ne!(order[..n], order[n..2 * n]);
    }

    #[test]
    fn point_sets_have_the_documented_sizes() {
        for spec in &SPECS {
            let pts = spec.points();
            assert_eq!(pts.len(), 480 * spec.mems.len(), "{}", spec.name);
            assert_eq!(pts.iter().filter(|p| p.lint).count(), pts.len() / 2);
            if spec.round > 1 {
                assert_eq!(spec.round, pts.len(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn generated_lines_parse_as_the_intended_requests() {
        for spec in &SPECS {
            let pts = spec.points();
            let line = match spec.kind {
                Kind::SweepCold => spec.sweep_line(1),
                _ => spec.request_line(1, pts.last().unwrap()),
            };
            let req = parse_request(&parse(&line).unwrap()).unwrap();
            match (spec.kind, req.op) {
                (
                    Kind::SweepCold,
                    Op::Sweep {
                        scale,
                        levels,
                        widths,
                        mems,
                        ..
                    },
                ) => {
                    assert_eq!(
                        (scale, levels.len(), widths, mems.len()),
                        (1.0, 6, vec![1, 8], 1)
                    );
                }
                (
                    Kind::Simulate,
                    Op::Simulate {
                        level,
                        width,
                        vlen,
                        scale,
                        mem,
                        ..
                    },
                ) => {
                    assert_eq!((level, width, vlen, scale), (Level::Lev6, 8, 4, spec.scale));
                    assert_eq!(mem, *spec.mems.last().unwrap());
                }
                (
                    Kind::Compile,
                    Op::Compile {
                        vlen, scale, lint, ..
                    },
                ) => {
                    assert_eq!((vlen, scale, lint), (4, 0.25, pts.last().unwrap().lint));
                }
                (k, op) => panic!("{k:?} produced {op:?}"),
            }
            let probe = parse_request(&parse(&spec.probe_line(9, &pts)).unwrap()).unwrap();
            assert!(matches!(probe.op, Op::Batch(ref v) if v.len() == pts.len()));
        }
    }
}
