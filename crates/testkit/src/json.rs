//! Minimal JSON shared by the lint diagnostics writer and the serve
//! protocol — the workspace is hermetic (no serde), and both consumers
//! need only objects, arrays, strings, numbers, booleans and null.
//! (`ilpc-serve` re-exports this module; it lives in the std-only leaf
//! crate so both depend on a codec, not on each other.)
//!
//! The parser is recursive-descent with a hard depth limit (a hostile
//! `[[[[…` line must not blow the stack of a serving process) and
//! rejects trailing garbage. The writer escapes control characters and
//! emits numbers in Rust's shortest-roundtrip form.

use std::collections::BTreeMap;
use std::fmt;

/// Nesting depth cap for incoming documents. Far above anything the
/// protocol produces, far below stack-overflow territory.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects use a `BTreeMap` so serialization is
/// deterministic — replies with the same content are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Object field, if this is an object and the field is present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Number as a u64, rejecting negatives, non-integers and NaN.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Builder for an object literal: `obj([("a", Json::num(1.0)), …])`.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; null is the conventional fallback.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(v) => {
                f.write_str("[")?;
                for (k, x) in v.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    x.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(m) => {
                f.write_str("{")?;
                for (k, (key, x)) in m.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    x.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { s: input.as_bytes(), k: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.k != p.s.len() {
        return Err(format!("trailing garbage at byte {}", p.k));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    k: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&c) = self.s.get(self.k) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.k += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.k).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.k += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.k))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.k..].starts_with(word.as_bytes()) {
            self.k += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.k))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.k += 1;
                let mut v = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.k += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    self.skip_ws();
                    v.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.k += 1,
                        Some(b']') => {
                            self.k += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.k)),
                    }
                }
            }
            Some(b'{') => {
                self.k += 1;
                let mut m = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.k += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    m.insert(key, val);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.k += 1,
                        Some(b'}') => {
                            self.k += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.k)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte '{}' at {}", c as char, self.k)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.k += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.k += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.k + 1..self.k + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogates are replaced, not paired — the
                            // protocol never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.k += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.k)),
                    }
                    self.k += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input came from &str, so
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&self.s[self.k..])
                        .map_err(|_| "invalid UTF-8")?;
                    let c = rest.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control byte in string at {}", self.k));
                    }
                    out.push(c);
                    self.k += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.k;
        if self.peek() == Some(b'-') {
            self.k += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-'
            {
                self.k += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.s[start..self.k]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for s in [
            "null",
            "true",
            "false",
            "0",
            "-12.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,\"x\"]}",
            "{\"nested\":{\"deep\":[{\"k\":null}]}}",
        ] {
            let v = parse(s).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{s}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::str("line\nquote\"back\\slash\ttab\u{1}");
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v, "{text}");
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "", "{", "}", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "[1] x",
            "nan", "{'a':1}",
        ] {
            assert!(parse(s).is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn accessors() {
        let v = parse("{\"op\":\"sweep\",\"n\":3,\"xs\":[1,2]}").unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("sweep"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(2));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
    }
}
