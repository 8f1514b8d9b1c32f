//! Deterministic chaos injection for the serving layer.
//!
//! A [`ChaosPlan`] makes an `ilpc-serve` worker process misbehave on a
//! seeded PRNG schedule — the service-layer analogue of the guard's
//! fault-injection campaign (`ilpc_guard::inject`). The pool supervisor
//! is the system under test: a chaotic worker may crash mid-request,
//! stall like a `SIGSTOP`'d process, write garbage or half a reply line —
//! and the pool must still deliver exactly one typed reply per client
//! request.
//!
//! The plan is parsed from a compact spec string (the `--chaos` flag):
//!
//! ```text
//! seed=42,kill=0.05,stall=0.02,garbage=0.1,partial=0.02,drop=0.05
//! kill-op=sweep,kill-nth=2,salt=0g1
//! ```
//!
//! * `kill=P` — abort the process *instead of* handling a request
//!   (crash mid-request; the reply never happens);
//! * `stall=P` — stop reading input forever (the `SIGSTOP` analogue:
//!   in-flight work and health pongs both cease; only the supervisor's
//!   ping timeout can recover the shard);
//! * `garbage=P` — emit a non-JSON line instead of handling the request;
//! * `partial=P` — write half a reply line, flush, then abort (a torn
//!   write followed by process death);
//! * `drop=P` — silently discard the request (never reply, but keep
//!   ponging: the hardest fault to tell from "just slow");
//! * `kill-op=OP` / `kill-nth=N` — deterministic rules for tests: abort
//!   while handling the `N`-th request whose op is `OP` (any op if
//!   `kill-op` is absent; every matching request if `kill-nth` absent).
//!   `OP` is one of `compile`, `simulate`, `sweep`, `batch`: any other
//!   value, a health probe or a typo, could never fire and is an error;
//! * `seed=S`, `salt=TEXT` — PRNG seeding; `salt` is hashed into the
//!   seed so a pool can give each (shard, generation) its own stream via
//!   `{shard}`/`{gen}` argv templates without computing seeds itself.
//!
//! `ping`/`status` requests are never chaos-eligible: health probes are
//! disturbed only by whole-process faults (kill/stall), exactly like a
//! real crash or freeze.

use ilpc_testkit::rng::splitmix64;

/// What to do with one incoming request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// Handle the request normally.
    Forward,
    /// Abort the process now (crash mid-request).
    Kill,
    /// Stop reading input forever (freeze; pongs cease).
    Stall,
    /// Emit a non-JSON garbage line instead of a reply.
    Garbage,
    /// Write a torn half-reply, flush, then abort.
    Partial,
    /// Discard the request silently (never reply, keep ponging).
    Drop,
}

/// A seeded chaos schedule for one worker process.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// The spec this plan was parsed from (for logs).
    pub spec: String,
    rng: ilpc_testkit::TestRng,
    kill: f64,
    stall: f64,
    garbage: f64,
    partial: f64,
    drop: f64,
    kill_op: Option<String>,
    kill_nth: Option<u64>,
    eligible_seen: u64,
}

/// FNV-1a over the salt text: cheap, stable, endian-free — folds the
/// pool's `{shard}`/`{gen}` template into the PRNG seed.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ChaosPlan {
    /// Parse a `key=value,key=value` spec. Unknown keys are errors —
    /// a typo'd chaos campaign must not silently test nothing.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut seed: u64 = 0;
        let mut salt: Option<String> = None;
        let (mut kill, mut stall, mut garbage, mut partial, mut drop) = (0.0, 0.0, 0.0, 0.0, 0.0);
        let mut kill_op = None;
        let mut kill_nth = None;
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec entry {part:?} is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                v.parse::<f64>()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| format!("chaos {key}={v:?} must be a probability in [0,1]"))
            };
            match key {
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("chaos seed={value:?} must be a u64"))?
                }
                "salt" => salt = Some(value.to_string()),
                "kill" => kill = prob(value)?,
                "stall" => stall = prob(value)?,
                "garbage" => garbage = prob(value)?,
                "partial" => partial = prob(value)?,
                "drop" => drop = prob(value)?,
                "kill-op" if matches!(value, "compile" | "simulate" | "sweep" | "batch") => {
                    kill_op = Some(value.to_string())
                }
                "kill-op" => return Err(format!("chaos kill-op={value:?} is no killable op")),
                "kill-nth" => {
                    kill_nth = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| format!("chaos kill-nth={value:?} must be >= 1"))?,
                    )
                }
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        if kill + stall + garbage + partial + drop > 1.0 {
            return Err("chaos probabilities sum past 1.0".to_string());
        }
        if let Some(s) = &salt {
            seed ^= fnv1a(s);
        }
        Ok(ChaosPlan {
            spec: spec.to_string(),
            rng: ilpc_testkit::TestRng::seed_from_u64(splitmix64(&mut { seed })),
            kill,
            stall,
            garbage,
            partial,
            drop,
            kill_op,
            kill_nth,
            eligible_seen: 0,
        })
    }

    /// Decide the fate of one request. `op` is the request's `"op"`
    /// field when the line parsed as a request (`None` for unparseable
    /// lines, which are always forwarded — the typed `bad-request` reply
    /// is itself behavior under test).
    pub fn decide(&mut self, op: Option<&str>) -> ChaosVerdict {
        let Some(op) = op else { return ChaosVerdict::Forward };
        if op == "ping" || op == "status" {
            return ChaosVerdict::Forward;
        }
        // Deterministic kill rules first: they don't consume PRNG output,
        // so `kill-nth` schedules are exact regardless of probabilities.
        if self.kill_op.as_deref().is_none_or(|k| k == op) {
            self.eligible_seen += 1;
            match self.kill_nth {
                Some(n) if self.eligible_seen == n => return ChaosVerdict::Kill,
                None if self.kill_op.is_some() => return ChaosVerdict::Kill,
                _ => {}
            }
        }
        let r = self.rng.next_f64();
        let mut edge = self.kill;
        if r < edge {
            return ChaosVerdict::Kill;
        }
        edge += self.stall;
        if r < edge {
            return ChaosVerdict::Stall;
        }
        edge += self.garbage;
        if r < edge {
            return ChaosVerdict::Garbage;
        }
        edge += self.partial;
        if r < edge {
            return ChaosVerdict::Partial;
        }
        edge += self.drop;
        if r < edge {
            return ChaosVerdict::Drop;
        }
        ChaosVerdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_and_rejects_typos() {
        let p = ChaosPlan::parse("seed=7,kill=0.1,stall=0.05,garbage=0.1,partial=0.05,drop=0.1")
            .unwrap();
        assert_eq!(p.kill, 0.1);
        assert_eq!(p.drop, 0.1);
        assert!(ChaosPlan::parse("kil=0.1").is_err(), "typo'd keys must not pass");
        assert!(ChaosPlan::parse("kill=1.5").is_err());
        assert!(ChaosPlan::parse("kill=0.9,stall=0.9").is_err(), "probabilities must fit");
        assert!(ChaosPlan::parse("kill-nth=0").is_err());
    }

    #[test]
    fn kill_op_names_a_killable_op() {
        for op in ["compile", "simulate", "sweep", "batch"] {
            let mut p = ChaosPlan::parse(&format!("kill-op={op}")).unwrap();
            assert_eq!(p.decide(Some(op)), ChaosVerdict::Kill, "{op}");
        }
        for op in ["simulte", "ping", "status", "", "Compile"] {
            let err = ChaosPlan::parse(&format!("kill-op={op}")).err();
            let err = err.unwrap_or_else(|| panic!("kill-op={op:?} must be rejected"));
            assert!(err.contains("kill-op"), "{err}");
        }
    }

    #[test]
    fn kill_nth_is_exact_and_op_filtered() {
        let mut p = ChaosPlan::parse("kill-op=sweep,kill-nth=2").unwrap();
        assert_eq!(p.decide(Some("sweep")), ChaosVerdict::Forward);
        assert_eq!(p.decide(Some("compile")), ChaosVerdict::Forward);
        assert_eq!(p.decide(Some("ping")), ChaosVerdict::Forward);
        assert_eq!(p.decide(Some("sweep")), ChaosVerdict::Kill);
        // Past the nth: no further kills from the deterministic rule.
        assert_eq!(p.decide(Some("sweep")), ChaosVerdict::Forward);

        // kill-op without kill-nth: every matching request dies.
        let mut p = ChaosPlan::parse("kill-op=sweep").unwrap();
        assert_eq!(p.decide(Some("compile")), ChaosVerdict::Forward);
        assert_eq!(p.decide(Some("sweep")), ChaosVerdict::Kill);
        assert_eq!(p.decide(Some("sweep")), ChaosVerdict::Kill);
    }

    #[test]
    fn probability_stream_is_seed_deterministic_and_salted() {
        let run = |spec: &str| -> Vec<ChaosVerdict> {
            let mut p = ChaosPlan::parse(spec).unwrap();
            (0..64).map(|_| p.decide(Some("simulate"))).collect()
        };
        let spec = "seed=42,kill=0.2,garbage=0.2,drop=0.2";
        assert_eq!(run(spec), run(spec), "same seed, same schedule");
        assert_ne!(run(spec), run("seed=43,kill=0.2,garbage=0.2,drop=0.2"));
        assert_ne!(
            run("seed=42,salt=0g1,kill=0.2,garbage=0.2,drop=0.2"),
            run("seed=42,salt=0g2,kill=0.2,garbage=0.2,drop=0.2"),
            "salt must fork the stream"
        );
        let got = run(spec);
        assert!(got.iter().any(|v| *v != ChaosVerdict::Forward), "faults do occur");
        assert!(got.iter().any(|v| *v == ChaosVerdict::Forward), "not everything faults");
    }

    #[test]
    fn health_probes_are_never_eligible() {
        let mut p = ChaosPlan::parse("kill=1.0").unwrap();
        assert_eq!(p.decide(Some("ping")), ChaosVerdict::Forward);
        assert_eq!(p.decide(Some("status")), ChaosVerdict::Forward);
        assert_eq!(p.decide(None), ChaosVerdict::Forward);
        assert_eq!(p.decide(Some("simulate")), ChaosVerdict::Kill);
    }
}
