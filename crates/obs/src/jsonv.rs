//! A minimal JSON reader for the workspace's own artifacts.
//!
//! The workspace writes all JSON through [`crate::json`] (no serde);
//! `perf-diff` and the exporter round-trip tests need to *read* it back. This is a
//! strict recursive-descent parser over the JSON grammar — objects,
//! arrays, strings (with `\uXXXX` escapes and surrogate pairs),
//! numbers, booleans, null — with object key order preserved so
//! re-rendering comparisons stay stable. It is a validator too: CI
//! smoke jobs accept a file iff [`parse`] does.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source key order (duplicate keys rejected).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Flattens every numeric leaf to `path → value`, joining object
    /// keys with `.` and indexing arrays — except that an array element
    /// carrying a string member named `name`, `path`, `label`, or
    /// `fleet` is keyed by that member's value instead of its index, so
    /// rows match across files whose orderings differ. A value repeated
    /// within one array keys its later rows by occurrence (`label#2`,
    /// `label#3`, …), so no row overwrites another. Used by `perf-diff`.
    pub fn flatten_numbers(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        self.flatten_into("", &mut out);
        out
    }

    fn flatten_into(&self, prefix: &str, out: &mut BTreeMap<String, f64>) {
        match self {
            Value::Num(n) => {
                out.insert(prefix.to_string(), *n);
            }
            Value::Obj(members) => {
                for (k, v) in members {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    v.flatten_into(&path, out);
                }
            }
            Value::Arr(items) => {
                let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
                for (i, v) in items.iter().enumerate() {
                    let label = ["name", "path", "label", "fleet"]
                        .iter()
                        .find_map(|k| v.get(k).and_then(Value::as_str));
                    let key = match label {
                        Some(label) => {
                            let n = seen.entry(label).or_insert(0);
                            *n += 1;
                            if *n == 1 {
                                label.to_string()
                            } else {
                                format!("{label}#{n}")
                            }
                        }
                        None => i.to_string(),
                    };
                    let path = if prefix.is_empty() {
                        key
                    } else {
                        format!("{prefix}.{key}")
                    };
                    v.flatten_into(&path, out);
                }
            }
            Value::Null | Value::Bool(_) | Value::Str(_) => {}
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// workspace's deepest artifact nests 6 levels (serve report → `obs` →
/// `sketches` → entry → `buckets` → pair); the cap turns a hostile
/// file's unbounded recursion into a [`ParseError`] rather than a
/// stack overflow.
pub const MAX_DEPTH: usize = 128;

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')
                                    .map_err(|_| self.err("lone high surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code).ok_or_else(|| self.err("bad surrogate"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| self.err("bad \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so this
                    // slice boundary is always valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": 1, "b": [true, null, -2.5e3], "s": "x\ny", "nested": {"k": "v"}}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        let b = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(b[0], Value::Bool(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_f64(), Some(-2500.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\ny"));
        assert_eq!(
            v.get("nested").unwrap().get("k").unwrap().as_str(),
            Some("v")
        );
    }

    #[test]
    fn unescapes_unicode_including_surrogate_pairs() {
        let v = parse(r#""café 😀 \"q\\""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀 \"q\\"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": 1,}",
            "{\"a\": 1} extra",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
            "01e",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn caps_nesting_depth() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert!(e.message.contains("nesting"), "{e}");
        // Deep enough to overflow the stack without the cap.
        assert!(parse(&nest(200_000)).is_err());
        let objects = "{\"a\": ".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn reports_error_offsets() {
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.at, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn flatten_prefers_name_keys_over_indices() {
        let v = parse(
            r#"{"experiments": [
                {"name": "grid", "runs": [{"threads": 1, "wall_ms": 10.5}]},
                {"name": "analog_conv", "serial_wall_ms": 7.25}
            ], "total": {"best_speedup": 3.5}}"#,
        )
        .unwrap();
        let flat = v.flatten_numbers();
        assert_eq!(flat["experiments.grid.runs.0.wall_ms"], 10.5);
        assert_eq!(flat["experiments.analog_conv.serial_wall_ms"], 7.25);
        assert_eq!(flat["total.best_speedup"], 3.5);
    }

    #[test]
    fn flatten_keys_repeated_labels_by_occurrence() {
        let v = parse(
            r#"{"runs": [
                {"fleet": "albireo_9+albireo_27", "p99_ms": 1.5},
                {"fleet": "albireo_9+albireo_27", "p99_ms": 2.5},
                {"fleet": "albireo_9", "p99_ms": 3.5}
            ]}"#,
        )
        .unwrap();
        let flat = v.flatten_numbers();
        assert_eq!(flat.len(), 3, "{flat:?}");
        assert_eq!(flat["runs.albireo_9+albireo_27.p99_ms"], 1.5);
        assert_eq!(flat["runs.albireo_9+albireo_27#2.p99_ms"], 2.5);
        assert_eq!(flat["runs.albireo_9.p99_ms"], 3.5);
    }

    #[test]
    fn round_trips_workspace_artifacts() {
        // The obs snapshot JSON and profile report must parse.
        let reg = crate::Registry::new();
        reg.counter("ops").add(3);
        reg.gauge("g").set(1.5e-4);
        reg.sketch("s").observe(2.0);
        let snap_json = reg.snapshot().to_json();
        let v = parse(&snap_json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters").unwrap().get("ops").unwrap().as_f64(),
            Some(3.0)
        );
    }
}
