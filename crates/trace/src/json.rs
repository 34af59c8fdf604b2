//! A minimal JSON reader and writer, just big enough for the journal,
//! checkpoint, session and protocol formats.
//!
//! The build environment has no crates.io access, so (like the in-tree
//! `rand`/`rayon` subsets) this module stands in for `serde_json`. Three design
//! points matter for the formats built on it:
//!
//! * **Numbers keep their raw token.** `u64` bit patterns of `f64` values
//!   round-trip exactly — a checkpoint can pin floating-point state
//!   bit-for-bit (`2^64 − 1` does not fit an `f64`, so parsing eagerly into
//!   `f64` would corrupt it).
//! * **Objects keep insertion order**, so serializing is deterministic and
//!   schema tests can pin exact byte output.
//! * **One writer, one layout.** Every document the optimizer and the daemon
//!   write goes through [`JsonWriter`], which streams values into one
//!   `String` with no whitespace and no intermediate [`JsonValue`] tree. The
//!   parser accepts any whitespace, so files written in an older, indented
//!   layout still load.
//!
//! # Examples
//!
//! ```
//! use cmmf_trace::json::{parse, JsonValue, JsonWriter};
//!
//! let v = parse(r#"{"step": 3, "hv": [0.5, 1.25], "done": false}"#).unwrap();
//! assert_eq!(v.get("step").and_then(JsonValue::as_u64), Some(3));
//! assert_eq!(v.get("hv").unwrap().as_array().unwrap().len(), 2);
//! assert_eq!(v.get("done").and_then(JsonValue::as_bool), Some(false));
//!
//! let mut w = JsonWriter::new();
//! w.begin_object()
//!     .key("step").usize(3)
//!     .key("hv").f64s(&[0.5, 1.25])
//!     .key("done").bool(false)
//!     .end_object();
//! assert_eq!(w.finish(), r#"{"step":3,"hv":[0.5,1.25],"done":false}"#);
//! ```

use std::fmt::{self, Write as _};

/// A parsed JSON value. Numbers keep their raw source token (see the module
/// docs for why).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token (e.g. `"-1.5e3"`, `"18446744073709551615"`).
    Number(String),
    /// A string (already unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key of an object; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integral number token in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is an integral number token in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (`None` for non-numbers or unparsable tokens).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// [`JsonError`] with the byte offset of the first offending character.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            reason: reason.into(),
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("malformed number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("malformed exponent"));
            }
        }
        // The scanned range is ASCII digits/sign/dot/exponent by
        // construction, but degrade to a parse error rather than panic.
        let tok = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-ascii bytes in number"))?;
        Ok(JsonValue::Number(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by our formats;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // step. Both are ASCII, so the run ends on a char
                    // boundary, and the input is already a `&str`: nothing
                    // is re-validated, and parsing stays linear in the input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let Some(text) = self.input.get(self.pos..self.pos + run) else {
                        return Err(self.err("invalid utf-8"));
                    };
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut kv = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(kv));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            kv.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(kv));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// A compact, streaming JSON writer: the one way the optimizer and the daemon
/// write JSON.
///
/// Values are appended to one `String` as they are written, with no
/// whitespace and no intermediate tree; object keys appear in the order they
/// are written. Separators are placed automatically. Nesting is the
/// caller's: every `begin_*` needs its `end_*`, and inside an object every
/// value follows a [`JsonWriter::key`]. Every method returns `&mut Self`, so
/// fields chain.
///
/// Numbers: integers are written exactly; finite `f64`s use Rust's shortest
/// round-trip formatting (always with a `.` or an exponent), and non-finite
/// ones — which JSON cannot represent — become `null`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a `,` before it.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer whose buffer holds `bytes` before it reallocates.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts a value: the separator from the previous sibling, if any.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.value().push('{');
        self.comma = false;
        self
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.out.push('}');
        self.comma = true;
        self
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.value().push('[');
        self.comma = false;
        self
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.out.push(']');
        self.comma = true;
        self
    }

    /// Writes an object key; the next value written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        escape(out, key);
        out.push_str("\":");
        self.comma = false;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        let out = self.value();
        out.push('"');
        escape(out, s);
        out.push('"');
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        // Writing into a `String` cannot fail.
        let _ = write!(self.value(), "{v}");
        self
    }

    /// Writes an unsigned integer value.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        let _ = write!(self.value(), "{v}");
        self
    }

    /// Writes a floating-point value (`null` when not finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        num(self.value(), v);
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// Writes an array of unsigned integers.
    pub fn u64s(&mut self, values: &[u64]) -> &mut Self {
        self.begin_array();
        for &v in values {
            self.u64(v);
        }
        self.end_array()
    }

    /// Writes an array of unsigned integers.
    pub fn usizes(&mut self, values: &[usize]) -> &mut Self {
        self.begin_array();
        for &v in values {
            self.usize(v);
        }
        self.end_array()
    }

    /// Writes an array of floating-point values (`null` for non-finite ones).
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.begin_array();
        for &v in values {
            self.f64(v);
        }
        self.end_array()
    }
}

/// Appends `s` escaped for the inside of a JSON string literal (no quotes).
fn escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// Appends `v` as a JSON number token: Rust's shortest round-trip
/// formatting for finite values, `null` otherwise.
fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, -2.5e1, "x\ny"], "b": null, "c": true}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("b"), Some(&JsonValue::Null));
        assert_eq!(v.get("c").and_then(JsonValue::as_bool), Some(true));
    }

    #[test]
    fn u64_bit_patterns_round_trip_exactly() {
        let pi_bits = std::f64::consts::PI.to_bits();
        for bits in [0u64, 1, u64::MAX, pi_bits, 0x7FF0_0000_0000_0001] {
            let v = parse(&format!("{{\"bits\": {bits}}}")).unwrap();
            assert_eq!(v.get("bits").and_then(JsonValue::as_u64), Some(bits));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escaped_strings_round_trip_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}\u{1f}é — ✓";
        let mut w = JsonWriter::new();
        w.begin_object().key(nasty).str(nasty).end_object();
        let doc = w.finish();
        assert_eq!(doc, "{\"a\\\"b\\\\c\\nd\\te\\u0001\\u001fé — ✓\":\"a\\\"b\\\\c\\nd\\te\\u0001\\u001fé — ✓\"}");
        let v = parse(&doc).unwrap();
        assert_eq!(v.get(nasty).and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn floats_round_trip_and_non_finite_ones_are_null() {
        let xs = [0.0, -0.0, -1.5, 1.0 / 3.0, 1e300, f64::MIN_POSITIVE];
        let mut w = JsonWriter::new();
        w.f64s(&xs);
        let v = parse(&w.finish()).unwrap();
        let back: Vec<u64> = v
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap().to_bits())
            .collect();
        assert_eq!(back, xs.map(f64::to_bits));
        let mut w = JsonWriter::new();
        w.f64s(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0]);
        assert_eq!(w.finish(), "[null,null,null,1.0]");
    }

    #[test]
    fn writer_places_separators_in_the_compact_layout() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("empty_object")
            .begin_object()
            .end_object()
            .key("empty_array")
            .begin_array()
            .end_array()
            .key("nested")
            .begin_array()
            .u64s(&[u64::MAX, 0])
            .usizes(&[])
            .begin_object()
            .key("k")
            .null()
            .end_object()
            .end_array()
            .key("flags")
            .begin_array()
            .bool(true)
            .bool(false)
            .end_array()
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"empty_object":{},"empty_array":[],"nested":[[18446744073709551615,0],[],{"k":null}],"flags":[true,false]}"#
        );
        // Top-level scalars and arrays are documents too.
        let mut w = JsonWriter::new();
        w.str("x");
        assert_eq!(w.finish(), r#""x""#);
    }

    #[test]
    fn parsing_is_linear_in_the_document() {
        // The daemon parses request lines of any length, so parsing must be
        // linear in the document: re-scanning the rest of the input for each
        // character would take minutes on this 2 MB string, and as long on
        // many short strings of the same total size, so both shapes are timed.
        let long = "x".repeat(2 << 20);
        let mut w = JsonWriter::with_capacity(long.len() + 16);
        w.begin_object().key("s").str(&long).end_object();
        let one_string = w.finish();
        let mut w = JsonWriter::new();
        w.begin_array();
        for i in 0..200_000 {
            w.str(if i % 2 == 0 { "ab" } else { "é\"" });
        }
        w.end_array();
        let many_strings = w.finish();
        let clock = crate::Stopwatch::start();
        let v = parse(&one_string).unwrap();
        assert_eq!(
            v.get("s").and_then(JsonValue::as_str).map(str::len),
            Some(2 << 20)
        );
        let v = parse(&many_strings).unwrap();
        assert_eq!(v.as_array().map(<[JsonValue]>::len), Some(200_000));
        let seconds = clock.seconds();
        assert!(seconds < 1.0, "parsing took {seconds} s");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        match v {
            JsonValue::Object(kv) => {
                assert_eq!(kv[0].0, "z");
                assert_eq!(kv[1].0, "a");
            }
            _ => panic!("not an object"),
        }
    }
}
