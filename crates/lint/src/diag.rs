//! Typed lint diagnostics.
//!
//! Every lint in this crate reports through [`Diagnostic`]: a stable lint
//! id, a severity, precise function/block/instruction coordinates and a
//! human-readable message. Diagnostics order deterministically (location
//! first, then lint id, then message), so a lint run over the same module
//! always renders byte-identical output — the property the grid auditor
//! and the guard firewall both rely on.

use ilpc_testkit::json::{obj, Json};
use ilpc_ir::BlockId;
use std::fmt;

/// How bad a finding is.
///
/// * `Error` — the artifact is illegal or semantics-breaking; the
///   grid audit (`report --only lint`) fails and the guard firewall
///   rejects the step. Healthy pipeline output must never produce one.
/// * `Warning` — suspicious but not illegal (dead stores, unreachable
///   blocks); healthy output may carry a few.
/// * `Note` — shape observations (e.g. an inner loop that is not in
///   canonical counted form), useful when diffing artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl Severity {
    /// Stable name used in reports and JSON lines.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint finding with coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable lint identifier (kebab-case, e.g. `uninit-read`).
    pub lint_id: &'static str,
    pub severity: Severity,
    /// Function the finding is in (the workload id).
    pub function: String,
    /// Block coordinate, when the finding is block- or inst-local.
    pub block: Option<BlockId>,
    /// Instruction index within the block, when inst-local.
    pub inst: Option<usize>,
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        lint_id: &'static str,
        severity: Severity,
        function: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            lint_id,
            severity,
            function: function.into(),
            block: None,
            inst: None,
            message: message.into(),
        }
    }

    /// Attach a block coordinate.
    pub fn at_block(mut self, b: BlockId) -> Diagnostic {
        self.block = Some(b);
        self
    }

    /// Attach block + instruction coordinates.
    pub fn at_inst(mut self, b: BlockId, i: usize) -> Diagnostic {
        self.block = Some(b);
        self.inst = Some(i);
        self
    }

    /// Deterministic ordering key: location first, then lint id/message.
    fn key(&self) -> (&str, u32, usize, &'static str, &str) {
        (
            &self.function,
            self.block.map_or(u32::MAX, |b| b.0),
            self.inst.unwrap_or(usize::MAX),
            self.lint_id,
            &self.message,
        )
    }

    /// One JSON object (an entry of the `lint` field of `ilpc-serve`
    /// compile replies).
    pub fn to_json(&self) -> Json {
        obj([
            ("lint", Json::str(self.lint_id)),
            ("severity", Json::str(self.severity.name())),
            ("function", Json::str(self.function.as_str())),
            (
                "block",
                self.block.map(|b| Json::str(b.to_string())).unwrap_or(Json::Null),
            ),
            (
                "inst",
                self.inst.map(|i| Json::num(i as f64)).unwrap_or(Json::Null),
            ),
            ("message", Json::str(self.message.as_str())),
        ])
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.severity, self.lint_id, self.function)?;
        if let Some(b) = self.block {
            write!(f, " {b}")?;
            if let Some(i) = self.inst {
                write!(f, " inst {i}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// Sort into the deterministic reporting order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.key().cmp(&b.key()));
}

/// Count findings at exactly `sev`.
pub fn count_severity(diags: &[Diagnostic], sev: Severity) -> usize {
    diags.iter().filter(|d| d.severity == sev).count()
}

/// True if any finding is error-severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_deterministic_and_location_first() {
        let mut v = vec![
            Diagnostic::new("zz", Severity::Error, "f", "late block").at_block(BlockId(3)),
            Diagnostic::new("aa", Severity::Warning, "f", "early inst").at_inst(BlockId(1), 2),
            Diagnostic::new("mm", Severity::Note, "f", "function-level"),
            Diagnostic::new("aa", Severity::Warning, "f", "earlier inst").at_inst(BlockId(1), 0),
        ];
        sort_diagnostics(&mut v);
        let ids: Vec<(Option<u32>, Option<usize>)> =
            v.iter().map(|d| (d.block.map(|b| b.0), d.inst)).collect();
        assert_eq!(
            ids,
            vec![(Some(1), Some(0)), (Some(1), Some(2)), (Some(3), None), (None, None)]
        );
        // Same input, same order — byte-identical rendering.
        let mut w = v.clone();
        sort_diagnostics(&mut w);
        assert_eq!(v, w);
    }

    #[test]
    fn json_line_roundtrips() {
        let d = Diagnostic::new("uninit-read", Severity::Error, "dotprod", "r3 read before init")
            .at_inst(BlockId(2), 5);
        let line = d.to_json().to_string();
        let v = ilpc_testkit::json::parse(&line).unwrap();
        assert_eq!(v.get("lint").and_then(Json::as_str), Some("uninit-read"));
        assert_eq!(v.get("severity").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("block").and_then(Json::as_str), Some("B2"));
        assert_eq!(v.get("inst").and_then(Json::as_u64), Some(5));
    }

    #[test]
    fn severity_counts() {
        let v = vec![
            Diagnostic::new("a", Severity::Error, "f", "x"),
            Diagnostic::new("b", Severity::Warning, "f", "y"),
            Diagnostic::new("c", Severity::Warning, "f", "z"),
        ];
        assert!(has_errors(&v));
        assert_eq!(count_severity(&v, Severity::Warning), 2);
        assert_eq!(count_severity(&v, Severity::Note), 0);
        assert!(!has_errors(&v[1..]));
    }
}
