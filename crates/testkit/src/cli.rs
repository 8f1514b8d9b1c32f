//! The command-line cursor of the workspace's binaries.
//!
//! A binary takes the flags it knows out of its argument list, then calls
//! [`Args::finish`]; whatever is still there was not understood. A bad
//! command line is always rejected the same way — one `<bin>: <problem>`
//! line, the usage text, exit status 2 — and never by a panic: a trailing
//! `--scale` is a typo, not a bug in the program.

use std::str::FromStr;

/// The arguments of one invocation not yet taken.
pub struct Args {
    bin: &'static str,
    usage: String,
    rest: Vec<String>,
}

impl Args {
    /// The process's arguments. `usage` is what follows `usage: ` when the
    /// command line is rejected, starting with the binary's name.
    pub fn from_env(bin: &'static str, usage: impl Into<String>) -> Args {
        Args { bin, usage: usage.into(), rest: std::env::args().skip(1).collect() }
    }

    /// Take the valueless flag `name`; whether it was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|k| self.rest.remove(k)).is_some()
    }

    /// Take `name` and the value after it, if given. A missing or
    /// unparsable value rejects the command line.
    pub fn opt<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let k = self.rest.iter().position(|a| a == name)?;
        if k + 1 == self.rest.len() {
            self.fail(&format!("{name} needs a value"));
        }
        let raw = self.rest.remove(k + 1);
        self.rest.remove(k);
        Some(raw.parse().unwrap_or_else(|_| self.fail(&format!("{name}: cannot parse `{raw}`"))))
    }

    /// [`Args::opt`] into a variable that already holds the default.
    pub fn set<T: FromStr>(&mut self, name: &str, target: &mut T) {
        if let Some(value) = self.opt(name) {
            *target = value;
        }
    }

    /// Take the first argument that is not a `--flag`.
    pub fn positional(&mut self) -> Option<String> {
        let at = self.rest.iter().position(|a| !a.starts_with("--"));
        at.map(|k| self.rest.remove(k))
    }

    /// Every known flag has been taken: anything left rejects the command
    /// line.
    pub fn finish(&self) {
        if let Some(extra) = self.rest.first() {
            self.fail(&format!("unknown or repeated argument {extra}"));
        }
    }

    /// Reject the command line: the problem, the usage, exit status 2.
    pub fn fail(&self, problem: &str) -> ! {
        eprintln!("{}: {problem}", self.bin);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2)
    }
}

/// For the binaries' tests: running `exe` (the binary named `bin`) with
/// `args` must end the way [`Args::fail`] ends — nothing on stdout, a
/// `<bin>: …` line and the usage on stderr, exit status 2 (a panic is 101).
pub fn assert_rejected(bin: &str, exe: &str, args: &[&str]) {
    let out = std::process::Command::new(exe).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with(&format!("{bin}: ")), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("\nusage: "), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?}");
}
