//! In-memory span recorder for the traced in-process replay.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer's public functions — nothing inside the program is instrumented.
//! A span's *layer* is the part of its name before the first dot (the
//! crate name), and a layer's self time is its spans' durations minus the
//! part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. `parent` indexes [`Recorder::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. A disabled recorder records nothing and reads no clock,
/// so the same replay code runs traced and untraced.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u32,
}

/// Handle for an open span; pass it back to [`Recorder::exit`].
#[must_use]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn begin_request(&mut self, id: u32) {
        self.request_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id: self.request_id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx as usize].end_ns = end_ns;
    }

    /// Record a span around `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time in nanoseconds per span name.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// Summed duration of the root spans of each request, in request order:
/// the handler time of that request as the trace saw it.
pub fn root_ns_by_request(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut by_req = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        *by_req.entry(s.request_id).or_insert(0) += s.dur_ns();
    }
    by_req
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `request_id`), one object per line. Span names never need escaping.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.request_id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, req: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: req,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // guard.step [0,100) > core.pass.unroll [10,60) > opt.inner [20,30)
        // and a sibling guard.step child [60,70).
        let spans = vec![
            span("guard.step", 0, 100, None, 1),
            span("core.pass.unroll", 10, 60, Some(0), 1),
            span("opt.inner", 20, 30, Some(1), 1),
            span("sim.decode", 60, 70, Some(0), 1),
            span("serve.reply_encode", 100, 110, None, 1),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10, 10]);
        let by = self_ns_by_name(&spans);
        assert_eq!(by["guard.step"], 40);
        assert_eq!(by["core.pass.unroll"], 40);
        // Self times partition the root spans' wall exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 110);
        assert_eq!(root_ns_by_request(&spans)[&1], 110);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_is_silent() {
        let mut rec = Recorder::new(true);
        rec.begin_request(7);
        let outer = rec.enter("guard.step");
        rec.span("core.pass.rename", || std::hint::black_box(1 + 1));
        rec.exit(outer);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].request_id, 7);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);

        let mut off = Recorder::new(false);
        let o = off.enter("x.y");
        off.exit(o);
        assert!(off.spans.is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![
            span("ir.lower", 5, 9, None, 3),
            span("opt.conventional", 6, 8, Some(0), 3),
        ];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"name\":\"ir.lower\",\"start_ns\":5,\"end_ns\":9,\"parent\":null,\"request_id\":3}\n\
             {\"name\":\"opt.conventional\",\"start_ns\":6,\"end_ns\":8,\"parent\":0,\"request_id\":3}\n"
        );
    }
}
