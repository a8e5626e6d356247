//! A minimal JSON layer for the trace format: enough to write one event
//! per line and read it back, with no external crates (the workspace
//! depends on none).
//!
//! The writer produces flat objects of scalars (`ObjWriter`); the parser
//! accepts exactly that shape. Field order is preserved on write so the
//! golden-file test can compare byte-for-byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A scalar JSON value as found in a trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonScalar {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// Append `s` to `out` as a JSON string literal (with quotes).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` in the canonical number format used throughout the trace:
/// Rust's shortest round-trip `Display` (so `0.5` stays `0.5` and whole
/// numbers print without a fractional part).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        // JSON has no Infinity/NaN; clamp to null like most emitters
        out.push_str("null");
    }
}

/// Builds one flat JSON object, preserving insertion order.
#[derive(Debug)]
pub struct ObjWriter {
    out: String,
    first: bool,
}

impl ObjWriter {
    pub fn new() -> ObjWriter {
        ObjWriter {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(&mut self.out, k);
        self.out.push(':');
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        write_escaped(&mut self.out, v);
        self
    }

    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        write_f64(&mut self.out, v);
        self
    }

    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.out, "{v}");
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

impl Default for ObjWriter {
    fn default() -> Self {
        ObjWriter::new()
    }
}

/// Why a trace line failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    pub at: usize,
    pub what: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.pos, what }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(code).ok_or_else(|| self.err("bad code point"))?);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // multi-byte UTF-8 sequences pass through untouched
                    let rest = &self.bytes[self.pos..];
                    let s_rest =
                        std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s_rest.chars().next().expect("non-empty");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<JsonScalar, JsonError> {
        match self.peek() {
            Some(b'"') => Ok(JsonScalar::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonScalar::Bool(true)),
            Some(b'f') => self.literal("false", JsonScalar::Bool(false)),
            Some(b'n') => self.literal("null", JsonScalar::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("bad number"))?;
                text.parse::<f64>()
                    .map(JsonScalar::Num)
                    .map_err(|_| self.err("bad number"))
            }
            _ => Err(self.err("expected scalar value")),
        }
    }

    fn literal(&mut self, word: &'static str, v: JsonScalar) -> Result<JsonScalar, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }
}

/// Parse one flat JSON object (`{"k": scalar, ...}`) — the shape every
/// trace line has. Nested objects/arrays are rejected.
pub fn parse_object(line: &str) -> Result<BTreeMap<String, JsonScalar>, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{', "expected object")?;
    let mut map = BTreeMap::new();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            let key = p.string()?;
            p.expect(b':', "expected ':'")?;
            let value = p.scalar()?;
            map.insert(key, value);
            match p.peek() {
                Some(b',') => {
                    p.pos += 1;
                }
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return Err(p.err("expected ',' or '}'")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_flat_objects() {
        let mut w = ObjWriter::new();
        w.f64("t", 0.5)
            .u64("n", 42)
            .str("kind", "x\"y\\z")
            .bool("ok", true);
        let line = w.finish();
        assert_eq!(line, r#"{"t":0.5,"n":42,"kind":"x\"y\\z","ok":true}"#);
        let m = parse_object(&line).unwrap();
        assert_eq!(m["t"], JsonScalar::Num(0.5));
        assert_eq!(m["n"], JsonScalar::Num(42.0));
        assert_eq!(m["kind"], JsonScalar::Str("x\"y\\z".into()));
        assert_eq!(m["ok"], JsonScalar::Bool(true));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_object("").is_err());
        assert!(parse_object("{").is_err());
        assert!(parse_object(r#"{"a":}"#).is_err());
        assert!(parse_object(r#"{"a":1} extra"#).is_err());
        assert!(parse_object(r#"{"a":{"nested":1}}"#).is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_object("{}").unwrap().is_empty());
        assert!(parse_object("{ }").unwrap().is_empty());
    }

    #[test]
    fn numbers_round_trip_shortest_form() {
        for v in [0.0, 0.5, 1.0, 12.25, 1e-6, 1234567.875, -3.5] {
            let mut out = String::new();
            write_f64(&mut out, v);
            let back: f64 = out.parse().unwrap();
            assert_eq!(back, v, "{out}");
        }
        let mut out = String::new();
        write_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        let mut out = String::new();
        write_escaped(&mut out, "a\u{1}b");
        assert_eq!(out, "\"a\\u0001b\"");
        let m = parse_object(&format!("{{{out}:1}}")).unwrap();
        assert!(m.contains_key("a\u{1}b"));
    }
}
