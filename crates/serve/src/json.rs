//! Minimal JSON: a recursive-descent parser for request bodies and an
//! escape helper for responses. Hand-rolled because the workspace takes
//! no external dependencies; covers the full value grammar (objects,
//! arrays, strings with escapes, numbers, booleans, null) so malformed
//! bodies fail with a message instead of a panic.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`Json::parse`] accepts. Request bodies
/// are flat objects; the bound keeps the recursive parser, and the drop
/// of the value it builds, within a connection thread's stack.
pub const MAX_NESTING: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; request fields we read are small).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, key-sorted for deterministic iteration.
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one JSON document; trailing non-whitespace and nesting
    /// deeper than [`MAX_NESTING`] are errors.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a JSON string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a whole JSON number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", want as char, self.pos))
        }
    }

    fn eat_word(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_NESTING {
                    return Err(format!("nesting deeper than {MAX_NESTING} at byte {}", self.pos));
                }
                self.depth += 1;
                let nested = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.eat_word("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_word("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat_word("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogate pairs are not needed by any caller;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar: the cursor only ever moves
                    // past whole scalars, so it sits on a char boundary.
                    let rest = self.text.get(self.pos..).ok_or("invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-utf-8 number at byte {start}"))?;
        text.parse::<f64>().map(Json::Number).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

pub use sxv_xml::json_escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_shapes() {
        let v = Json::parse(
            r#"{"role": "nurse", "doc": "d1", "query": "//patient/name", "timeout_ms": 250}"#,
        )
        .unwrap();
        assert_eq!(v.get("role").and_then(Json::as_str), Some("nurse"));
        assert_eq!(v.get("timeout_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nested_and_escapes() {
        let v = Json::parse(r#"{"a": [1, true, null, "x\"y\n"], "b": {"c": -2.5}}"#).unwrap();
        match v.get("a") {
            Some(Json::Array(items)) => {
                assert_eq!(items.len(), 4);
                assert_eq!(items[3], Json::String("x\"y\n".into()));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Number(-2.5)));
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "{\"a\":1} x", "\"unterminated", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn malformed_numbers_error_instead_of_panicking() {
        for bad in ["-", "1.2.3", "1e", "--5", "-e3"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let raw = "line\n\"quoted\"\tand \\ backslash";
        let parsed = Json::parse(&format!("\"{}\"", json_escape(raw))).unwrap();
        assert_eq!(parsed, Json::String(raw.into()));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        let objects = format!("{}1{}", "{\"a\": ".repeat(MAX_NESTING), "}".repeat(MAX_NESTING));
        assert!(Json::parse(&objects).is_ok());
        for deep in [nested(MAX_NESTING + 1), "[".repeat(200_000), format!("{{\"a\": {objects}}}")]
        {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting deeper than 64"), "{err}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // One megabyte of multi-byte text: a quadratic rescan of the rest
        // of the input per character would take minutes.
        let text = "é".repeat(500_000);
        assert_eq!(Json::parse(&format!("\"{text}\"")).unwrap(), Json::String(text));
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo ✓\"").unwrap();
        assert_eq!(v, Json::String("héllo ✓".into()));
    }
}
