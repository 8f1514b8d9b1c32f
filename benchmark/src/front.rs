//! Driving the real `ilpc-serve` binary through its front doors.
//!
//! The benchmark builds the server from the checkout it runs in (a no-op
//! when it is fresh, so it can never measure a stale binary), spawns it
//! with pipes or TCP, and talks JSON lines to it with one request in
//! flight. Memory and CPU figures are read from `/proc` before shutdown.

use crate::workload::{Front, Spec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The build the runner performs (and names when it fails).
pub const BUILD_COMMAND: &str = "cargo build --release --offline -p ilpc-serve --bin ilpc-serve";

/// Build `ilpc-serve` in the checkout at the current directory and return
/// the binary's path. The benchmark is run from the root of a checkout;
/// anywhere else there is no server to measure, which is an error.
pub fn ensure_server_built() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    if !root.join("crates/serve/Cargo.toml").is_file() {
        return Err(format!(
            "{} is not the root of an ilp-compiler checkout (no crates/serve); \
             run the benchmark from the repository root",
            root.display()
        ));
    }
    let status = Command::new("cargo")
        .args(BUILD_COMMAND.split(' ').skip(1))
        .arg("--quiet")
        .current_dir(&root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run `{BUILD_COMMAND}`: {e}"))?;
    if !status.success() {
        return Err(format!("`{BUILD_COMMAND}` failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let exe = target.join("release/ilpc-serve");
    if !exe.is_file() {
        return Err(format!(
            "{} is missing after `{BUILD_COMMAND}`",
            exe.display()
        ));
    }
    Ok(exe)
}

/// The load generator's thread (and with it every server it spawns from
/// then on, and their workers, which all inherit the mask) pinned to one
/// CPU; dropping it restores the mask it found.
///
/// With one request in flight every step is serial, so one CPU is enough,
/// and on it a wake-up is a context switch. Left to the scheduler, the
/// threads of a request's path land on two CPUs in ever-changing ways and
/// each hop then wakes an idle virtual CPU — 50 to 500 µs apiece on this
/// host, in modes that last for seconds: unpinned, the pool's p50 read
/// 0.36 / 0.85 / 0.68 / 0.70 ms in four consecutive quiet runs; pinned,
/// 0.40 / 0.42 / 0.39 / 0.39.
///
/// Rust's standard library cannot set a CPU mask, so this shells out to
/// util-linux `taskset`; where there is none the run goes unpinned and
/// says so.
pub struct Pinned {
    allowed: String,
}

impl Pinned {
    /// Pin the calling thread — which must be the main thread, whose id is
    /// the process id `taskset -p` takes — to the last CPU it may use.
    pub fn acquire() -> Option<Pinned> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = parse_cpus_allowed_list(&status)?.to_string();
        let last = allowed.rsplit([',', '-']).next()?.to_string();
        set_affinity(&last).then_some(Pinned { allowed })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_affinity(&self.allowed);
    }
}

fn set_affinity(cpu_list: &str) -> bool {
    Command::new("taskset")
        .args(["-cp", cpu_list, &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// `Cpus_allowed_list` (e.g. `0-1` or `0,2-3`) from `/proc/self/status`.
pub fn parse_cpus_allowed_list(status: &str) -> Option<&str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(str::trim)
}

enum Wire {
    Pipes {
        tx: ChildStdin,
        rx: BufReader<ChildStdout>,
    },
    Tcp {
        tx: TcpStream,
        rx: BufReader<TcpStream>,
    },
}

/// One running server and the single connection to it.
pub struct Server {
    child: Child,
    wire: Option<Wire>,
    front: Front,
    /// TCP only: the thread draining the server's stderr.
    stderr_drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn the server for `spec`'s front door and connect to it.
    pub fn spawn(exe: &Path, spec: &Spec) -> Result<Server, String> {
        let mut cmd = Command::new(exe);
        cmd.args(spec.server_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if spec.front == Front::Tcp {
            // The bound address is announced on stderr.
            cmd.stderr(Stdio::piped());
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let mut stderr_drain = None;
        let wire = match spec.front {
            Front::Stdin | Front::Pool => Wire::Pipes {
                tx: child.stdin.take().expect("piped stdin"),
                rx: BufReader::new(child.stdout.take().expect("piped stdout")),
            },
            Front::Tcp => {
                let mut banner = String::new();
                let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
                let addr = match stderr.read_line(&mut banner) {
                    Ok(n) if n > 0 => banner.trim().rsplit(' ').next().unwrap_or("").to_string(),
                    _ => String::new(),
                };
                // Keep draining stderr so the server can never block on
                // it; the thread ends at EOF, when the server is gone.
                stderr_drain = Some(std::thread::spawn(move || {
                    let mut sink = String::new();
                    while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                        sink.clear();
                    }
                }));
                let connect = TcpStream::connect(&addr).and_then(|s| {
                    s.set_nodelay(true)?;
                    Ok((s.try_clone()?, s))
                });
                match connect {
                    Ok((tx, rx)) => Wire::Tcp {
                        tx,
                        rx: BufReader::new(rx),
                    },
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        stderr_drain.take().map(std::thread::JoinHandle::join);
                        return Err(format!(
                            "cannot connect to {addr:?} ({}): {e}",
                            banner.trim()
                        ));
                    }
                }
            }
        };
        Ok(Server {
            child,
            wire: Some(wire),
            front: spec.front,
            stderr_drain,
        })
    }

    /// Send one request line and block for one reply line.
    pub fn ask(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        let mut reply = String::new();
        let n = match self.wire.as_mut().expect("server already shut down") {
            Wire::Pipes { tx, rx } => tx
                .write_all(framed.as_bytes())
                .and_then(|_| tx.flush())
                .and_then(|_| rx.read_line(&mut reply)),
            Wire::Tcp { tx, rx } => tx
                .write_all(framed.as_bytes())
                .and_then(|_| rx.read_line(&mut reply)),
        }
        .map_err(|e| format!("server i/o failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection before replying".to_string());
        }
        Ok(reply)
    }

    /// Process ids of the server and the worker processes it spawned.
    pub fn pids(&self) -> Vec<u32> {
        let me = self.child.id();
        let mut pids = vec![me];
        pids.extend(children_of(me));
        pids
    }

    /// Σ `VmHWM` (peak resident set) over the server and its workers, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = self
            .pids()
            .iter()
            .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
            .filter_map(|s| parse_vm_hwm_kb(&s))
            .sum();
        kb as f64 / 1024.0
    }

    /// CPU time (user + system, clock ticks) of each worker process,
    /// oldest first — shard 0 is spawned first.
    pub fn worker_cpu_ticks(&self) -> Vec<u64> {
        let mut workers: Vec<(u64, u64)> = children_of(self.child.id())
            .iter()
            .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/stat")).ok())
            .filter_map(|s| parse_stat(&s))
            .map(|st| (st.start_ticks, st.utime_ticks + st.stime_ticks))
            .collect();
        workers.sort_by_key(|w| w.0);
        workers.into_iter().map(|w| w.1).collect()
    }

    /// Close the connection, let the server finish (pipes: EOF ends it;
    /// TCP: it serves forever, so it is killed) and reap it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.wire = None; // drops stdin / the socket: EOF for the server
        if self.front == Front::Tcp {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.stderr_drain.take().map(std::thread::JoinHandle::join);
            return Ok(());
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => return Err("server did not exit within 20 s of EOF".to_string()),
                Err(e) => return Err(format!("waiting for the server failed: {e}")),
            }
        }
    }
}

impl Drop for Server {
    /// Whatever path a run takes, no server process outlives it.
    fn drop(&mut self) {
        self.wire = None;
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.stderr_drain.take().map(std::thread::JoinHandle::join);
    }
}

/// Direct children of `pid`, by scanning `/proc/*/stat` for its ppid.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|child| {
            std::fs::read_to_string(format!("/proc/{child}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s))
                .is_some_and(|st| st.ppid == pid)
        })
        .collect()
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The fields of `/proc/<pid>/stat` the benchmark reads.
#[derive(Debug, PartialEq, Eq)]
pub struct ProcStat {
    pub ppid: u32,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    pub start_ticks: u64,
}

/// Parse `/proc/<pid>/stat`. The command name (field 2) may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<ProcStat> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest = " S ppid pgrp ..."; field 3 (state) is index 0 here.
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    Some(ProcStat {
        ppid: f.get(1)?.parse().ok()?,
        utime_ticks: f.get(11)?.parse().ok()?,
        stime_ticks: f.get(12)?.parse().ok()?,
        start_ticks: f.get(19)?.parse().ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status =
            "Name:\tilpc-serve\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tkthreadd\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots\n"), None);
    }

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "4242 (ilpc) serve) x) S 77 4242 4242 0 -1 4194304 150 0 0 0 31 9 0 0 20 0 3 0 987654 1000000 200 18446744073709551615";
        assert_eq!(
            parse_stat(stat),
            Some(ProcStat {
                ppid: 77,
                utime_ticks: 31,
                stime_ticks: 9,
                start_ticks: 987654
            })
        );
        assert_eq!(parse_stat("1 (init"), None);
    }

    #[test]
    fn cpu_list_is_read_from_status_text() {
        let status = "Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\nMems_allowed:\t1\n";
        assert_eq!(parse_cpus_allowed_list(status), Some("0-1"));
        assert_eq!("0,2-3".rsplit([',', '-']).next(), Some("3"));
        assert_eq!("5".rsplit([',', '-']).next(), Some("5"));
        assert_eq!(parse_cpus_allowed_list("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_visible_in_proc() {
        let me = std::process::id();
        let status = std::fs::read_to_string(format!("/proc/{me}/status")).unwrap();
        assert!(parse_vm_hwm_kb(&status).unwrap() > 0);
        let stat = std::fs::read_to_string(format!("/proc/{me}/stat")).unwrap();
        assert!(parse_stat(&stat).is_some());
    }
}
