//! Hand-rolled JSON input/output shared across the workspace.
//!
//! The workspace is dependency-free, so every component that speaks JSON —
//! the `gss` CLI's explain output ([`crate::explain::explain_json`]), the
//! benchmark artifacts, and the `gss-server` wire protocol and its answer
//! documents ([`crate::explain::to_json`]) — goes through this module
//! instead of growing its own ad-hoc serializer.
//!
//! Two halves:
//!
//! * **Output** — [`escape`] (string escaping) and the compact writer
//!   [`Value::to_compact`]. Numbers are written with Rust's shortest
//!   round-trip `Display` for `f64`, so parsing a document and re-writing
//!   it compactly is byte-stable for every number this workspace produces
//!   (`4` stays `4`, `0.9167` stays `0.9167`).
//! * **Input** — [`Value::parse`], the minimal recursive-descent parser
//!   the `gss-server` newline-delimited protocol needs: the full JSON
//!   value grammar (objects, arrays, strings with `\uXXXX` escapes and
//!   surrogate pairs, numbers, booleans, null) with precise error
//!   offsets, a nesting-depth limit, and a trailing-garbage check.
//!
//! Object member order is preserved (a `Vec` of pairs, not a map): the
//! writer re-emits members in parse order, and duplicate keys are kept
//! verbatim ([`Value::get`] returns the first).

use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes). Control characters become `\u00XX`; `"` and `\` are escaped;
/// everything else passes through verbatim (JSON strings are UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in member order. Duplicate keys are preserved.
    Object(Vec<(String, Value)>),
}

/// A parse failure: the byte offset it was detected at and a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts. Protocol documents are a
/// handful of levels deep; the cap exists so adversarial input cannot
/// overflow the stack of a long-lived server.
const MAX_DEPTH: usize = 128;

impl Value {
    /// Parses one JSON document; the entire input must be consumed
    /// (surrounding whitespace allowed).
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Serializes compactly (no whitespace), suitable for one-line wire
    /// protocols. Non-finite numbers serialize as `null` (JSON has no
    /// representation for them).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Value::String(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// First member with the given key, for objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character {:?}", c as char))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key string"));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(self.err("truncated \\u escape"));
        };
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let code = u16::from_str_radix(s, 16).map_err(|_| self.err("invalid hex in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one slice.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so byte runs are valid UTF-8 as long
                // as they end on a boundary — '"' and '\\' are ASCII, so
                // they always do.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos]).expect("UTF-8 input"),
                );
            }
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let n = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(n)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(u32::from(hi)).expect("BMP scalar")
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the escape
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        token
            .parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Value::Number)
            .ok_or_else(|| JsonError {
                offset: start,
                message: format!("invalid number {token:?}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("héllo✓"), "héllo✓", "non-ASCII passes through");
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab\rand\u{1}control",
            "unicode: héllo ✓ 🦀",
            "",
            "trailing backslash \\",
        ] {
            let doc = format!("\"{}\"", escape(s));
            let v = Value::parse(&doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            assert_eq!(v, Value::String(s.to_owned()), "{s:?}");
            // And the writer agrees with the escaper.
            assert_eq!(Value::String(s.to_owned()).to_compact(), doc);
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(Value::parse("-0.5").unwrap(), Value::Number(-0.5));
        assert_eq!(Value::parse("1e3").unwrap(), Value::Number(1000.0));
        assert_eq!(Value::parse("2.5E-2").unwrap(), Value::Number(0.025));
        assert_eq!(
            Value::parse("\"hi\"").unwrap(),
            Value::String("hi".to_owned())
        );
    }

    #[test]
    fn parses_containers_preserving_order() {
        let v = Value::parse(r#"{"b": [1, {"x": null}], "a": "s", "b": 2}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members.len(), 3);
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(members[2].0, "b");
        // get() returns the first duplicate.
        assert!(matches!(v.get("b"), Some(Value::Array(_))));
        assert_eq!(v.get("a").and_then(Value::as_str), Some("s"));
        assert_eq!(v.get("missing"), None);
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("x"), Some(&Value::Null));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        assert_eq!(
            Value::parse(r#""Aé""#).unwrap(),
            Value::String("Aé".to_owned())
        );
        assert_eq!(
            Value::parse(r#""🦀""#).unwrap(),
            Value::String("🦀".to_owned())
        );
        for bad in [r#""\ud83e""#, r#""\ud83ex""#, r#""\udd80""#, r#""\uZZZZ""#] {
            assert!(Value::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_inputs_fail_with_offsets() {
        for (doc, what) in [
            ("", "empty"),
            ("{", "unterminated object"),
            ("[1, 2", "unterminated array"),
            ("[1 2]", "missing comma"),
            (r#"{"a" 1}"#, "missing colon"),
            (r#"{"a": 1,}"#, "trailing comma"),
            (r#"{a: 1}"#, "unquoted key"),
            ("\"abc", "unterminated string"),
            ("\"a\u{1}b\"", "raw control char"),
            (r#""\q""#, "bad escape"),
            ("truthy", "trailing after literal"),
            ("1.2.3", "double dot"),
            ("nul", "truncated literal"),
            ("[] []", "two documents"),
            ("1e999", "overflowing number"),
        ] {
            let err = Value::parse(doc).expect_err(what);
            assert!(err.offset <= doc.len(), "{what}: offset in range");
            assert!(!err.message.is_empty(), "{what}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashed() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        // …while reasonable nesting parses fine.
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn compact_write_parse_round_trip_is_byte_stable() {
        // The formats this workspace emits: integers, short decimals,
        // fixed-precision rates, strings with escapes, nested containers.
        for doc in [
            r#"{"a":1,"b":[1.5,0.9167,"x\ny"],"c":{"d":null,"e":true},"f":-0.125}"#,
            r#"[0,4,0.3333333333333333,1e-7]"#,
            r#""just a string""#,
        ] {
            let v = Value::parse(doc).unwrap();
            let written = v.to_compact();
            assert_eq!(Value::parse(&written).unwrap(), v);
            // Byte stability after one normalization pass.
            assert_eq!(Value::parse(&written).unwrap().to_compact(), written);
        }
    }

    #[test]
    fn pretty_documents_compact_losslessly() {
        // A pretty document in the explain style compacts without changing
        // any token.
        let pretty = "{\n  \"measures\": [\"DistEd\"],\n  \"rate\": 0.9167,\n  \"n\": 120\n}\n";
        let v = Value::parse(pretty).unwrap();
        assert_eq!(
            v.to_compact(),
            r#"{"measures":["DistEd"],"rate":0.9167,"n":120}"#
        );
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Value::Number(f64::NAN).to_compact(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_compact(), "null");
    }
}
