//! The wire: the only code that touches a protocol stream.
//!
//! Every front end — stdin, a TCP connection, the pool's client side and
//! the pool's worker pipes — reads through `frames` and writes through
//! `write_line`, so the framing rules hold everywhere at once:
//!
//! * a line is at most [`MAX_LINE_BYTES`]; a longer one is drained without
//!   being stored and surfaces as `Frame::Oversized`;
//! * a reply leaves as **one** `write` of `line + '\n'` followed by one
//!   flush. Two writes (payload, then newline) on an unbuffered socket
//!   meet Nagle and delayed ACK and cost a ~40 ms stall per reply.

use std::io::{BufRead, Read, Write};

/// Hard cap on one request line. A line larger than this is answered with
/// a typed `bad-request` and drained from the stream without buffering.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One unit read off a protocol stream.
pub(crate) enum Frame {
    /// An in-budget line (terminator included, lossily decoded as UTF-8).
    Line(String),
    /// A line past [`MAX_LINE_BYTES`], already drained and discarded.
    Oversized,
}

/// The frames of `r` until EOF or the first read error.
///
/// With `strict_eol`, a final line with no terminating newline is treated
/// as a mid-line disconnect and *discarded* (clean EOF, no reply): that is
/// the TCP contract, where a client dying halfway through a request must
/// not be answered with a `bad-request` fired into a dead socket. Stream
/// mode keeps `strict_eol` off so a trailing unterminated request typed at
/// an interactive stdin still gets served.
pub(crate) fn frames<'r>(
    r: &'r mut impl BufRead,
    strict_eol: bool,
) -> impl Iterator<Item = std::io::Result<Frame>> + 'r {
    std::iter::from_fn(move || read_line_capped(r, strict_eol).transpose())
}

/// Read one frame; `Ok(None)` at EOF. An oversized line's remainder is
/// drained in bounded chunks and discarded, so a hostile multi-gigabyte
/// line costs O(chunk) memory, never an allocation proportional to it.
fn read_line_capped(r: &mut impl BufRead, strict_eol: bool) -> std::io::Result<Option<Frame>> {
    let mut buf: Vec<u8> = Vec::new();
    let n = r.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.len() > MAX_LINE_BYTES && !buf.ends_with(b"\n") {
        // Drain to the newline in fixed-size bites; `read_until` through
        // a `take` stops exactly at the newline, never consuming the
        // start of the next line.
        loop {
            let mut junk: Vec<u8> = Vec::new();
            let k = r.by_ref().take(8192).read_until(b'\n', &mut junk)?;
            if k == 0 || junk.ends_with(b"\n") {
                break;
            }
        }
        return Ok(Some(Frame::Oversized));
    }
    if strict_eol && !buf.ends_with(b"\n") {
        return Ok(None);
    }
    Ok(Some(Frame::Line(String::from_utf8_lossy(&buf).into_owned())))
}

/// Send one protocol line: the newline is appended to the payload so the
/// whole line is a single `write_all`, then the stream is flushed — a
/// one-in-flight client paces its next request off this reply.
pub(crate) fn write_line(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// True for the error kinds a peer produces by going away: these end a
/// session cleanly instead of surfacing as an internal error.
pub(crate) fn is_disconnect(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind::*;
    matches!(kind, ConnectionReset | ConnectionAborted | BrokenPipe | UnexpectedEof)
}
