//! The workspace's one JSON writer.
//!
//! Every machine-readable artifact — serve and plan reports, metrics
//! snapshots, trace exports, profile reports and the `BENCH_*.json`
//! files — renders through this module, so quoting, escaping, number
//! formats, separators and indentation are decided here once. The
//! build has no serde; [`crate::jsonv`] is the matching reader.
//!
//! * [`ToJson`] renders one value. Strings are always escaped to
//!   printable ASCII; integers and bools print as themselves; `None` is
//!   `null`; slices and pairs are `[a, b]` arrays. A bare `f64` is not
//!   a [`ToJson`]: a float names its format through [`Fixed`] (`{:.N}`),
//!   [`Sci`] (`{:.6e}`) or [`num`] (`Fixed(v, 6)`), and all three print
//!   a non-finite value as `null`.
//! * [`Obj`] is one object on one line: `{"k": v, "k2": v2}`.
//! * [`Doc`] is an object with one member per line. A nested
//!   [`Doc::doc`] and the rows of [`Doc::rows`] sit two spaces deeper
//!   than the member that holds them. An empty `Doc` renders `{}`; an
//!   empty row array renders `[`, a newline, the indent, then `]`.
//!
//! Builders escape and format straight into their buffer, so no string
//! is allocated per field, and a nested `Doc` writes into its parent's.
//!
//! ```
//! use albireo_obs::json::{num, Doc, Obj};
//!
//! let text = Doc::new()
//!     .field("schema", "demo/v1")
//!     .doc("latency_ms", |d| d.field("p50", num(0.25)))
//!     .rows("classes", ["a\"b", "c"].map(|n| Obj::new().field("name", n)))
//!     .finish();
//! assert_eq!(
//!     text,
//!     "{\n  \"schema\": \"demo/v1\",\n  \"latency_ms\": {\n    \"p50\": 0.250000\n  },\n  \
//!      \"classes\": [\n    {\"name\": \"a\\\"b\"},\n    {\"name\": \"c\"}\n  ]\n}"
//! );
//! ```

use std::fmt::{self, Write as _};

/// Escapes `s` for use inside a JSON string literal (without the
/// quotes). ASCII printables pass through; `"`, `\` and controls take
/// the short escapes or `\uXXXX`; everything past `~` is
/// `\uXXXX`-escaped (surrogate pairs beyond the BMP), so the result is
/// pure ASCII whatever `s` holds.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    let mut plain_from = 0;
    let mut i = 0;
    while let Some(&b) = s.as_bytes().get(i) {
        if (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\' {
            i += 1;
            continue;
        }
        out.push_str(&s[plain_from..i]);
        let c = s[i..].chars().next().expect("`i` is a char boundary");
        i += c.len_utf8();
        plain_from = i;
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => {
                for unit in c.encode_utf16(&mut [0u16; 2]) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push_str(&s[plain_from..]);
}

/// A value with a JSON rendering.
pub trait ToJson {
    /// Appends the rendering to `out`.
    fn write_json(&self, out: &mut String);
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integer_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
integer_to_json!(u16, u32, u64, usize, i32, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push_str(", ");
        self.1.write_json(out);
        out.push(']');
    }
}

/// A float with a fixed number of decimals (`{:.N}`); non-finite
/// values print as `null`. Also a [`fmt::Display`], for CSV columns
/// that share the JSON number format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

/// A float in scientific notation with six mantissa decimals
/// (`{:.6e}`), for values that span many decades; non-finite values
/// print as `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sci(pub f64);

/// The workspace's default float format: six decimals.
pub fn num(v: f64) -> Fixed {
    Fixed(v, 6)
}

/// Writes `v` as `{:.digits}`, or `{:.6e}` when `digits` is `None`;
/// `null` when `v` is not finite.
fn write_float(w: &mut impl fmt::Write, v: f64, digits: Option<usize>) -> fmt::Result {
    match digits {
        _ if !v.is_finite() => w.write_str("null"),
        Some(d) => write!(w, "{v:.d$}"),
        None => write!(w, "{v:.6e}"),
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_float(f, self.0, Some(self.1))
    }
}

impl ToJson for Fixed {
    fn write_json(&self, out: &mut String) {
        let _ = write_float(out, self.0, Some(self.1));
    }
}

impl ToJson for Sci {
    fn write_json(&self, out: &mut String) {
        let _ = write_float(out, self.0, None);
    }
}

fn indent(out: &mut String, width: usize) {
    out.extend(std::iter::repeat_n(' ', width));
}

/// `[`, then each row on its own line `depth + 2` spaces deep,
/// `,`-separated, then a newline, `depth` spaces and `]` — also when
/// there are no rows.
fn write_rows<T: ToJson>(out: &mut String, depth: usize, rows: impl IntoIterator<Item = T>) {
    out.push('[');
    for (i, row) in rows.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        indent(out, depth + 2);
        row.write_json(out);
    }
    out.push('\n');
    indent(out, depth);
    out.push(']');
}

/// One JSON object on one line: `{"k": v, "k2": v2}`.
#[derive(Debug, Clone)]
pub struct Obj {
    /// The rendering so far: `{` and the members, not yet closed.
    buf: String,
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

impl Obj {
    /// An object with no members.
    pub fn new() -> Obj {
        // Room for a whole report row: growing the buffer field by field
        // costs more than the unused bytes of a short object.
        let mut buf = String::with_capacity(512);
        buf.push('{');
        Obj { buf }
    }

    /// Appends the member `"key": value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Obj {
        if self.buf.len() > 1 {
            self.buf.push_str(", ");
        }
        key.write_json(&mut self.buf);
        self.buf.push_str(": ");
        value.write_json(&mut self.buf);
        self
    }

    /// The finished object.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl ToJson for Obj {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.buf);
        out.push('}');
    }
}

/// A JSON object with one member per line, indented two spaces per
/// level (see the module docs for the layout).
#[derive(Debug)]
pub struct Doc {
    out: String,
    /// Indent of the object's closing brace; members sit two deeper.
    depth: usize,
    /// Whether the innermost open object has no members yet.
    empty: bool,
}

impl Default for Doc {
    fn default() -> Doc {
        Doc::new()
    }
}

impl Doc {
    /// A top-level document with no members.
    pub fn new() -> Doc {
        let mut out = String::with_capacity(1024);
        out.push('{');
        Doc {
            out,
            depth: 0,
            empty: true,
        }
    }

    fn key(&mut self, key: &str) {
        self.out.push_str(if self.empty { "\n" } else { ",\n" });
        self.empty = false;
        indent(&mut self.out, self.depth + 2);
        key.write_json(&mut self.out);
        self.out.push_str(": ");
    }

    fn close(&mut self) {
        if !self.empty {
            self.out.push('\n');
            indent(&mut self.out, self.depth);
        }
        self.out.push('}');
    }

    /// Appends the member `"key": value` on its own line.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Doc {
        self.key(key);
        value.write_json(&mut self.out);
        self
    }

    /// Appends the member `"key": {...}`, a nested document whose
    /// members `members` adds.
    pub fn doc(mut self, key: &str, members: impl FnOnce(Doc) -> Doc) -> Doc {
        self.key(key);
        self.out.push('{');
        self.depth += 2;
        self.empty = true;
        let mut inner = members(self);
        inner.close();
        inner.depth -= 2;
        inner.empty = false;
        inner
    }

    /// Appends the member `"key": [...]` with one row per line.
    pub fn rows<T: ToJson>(mut self, key: &str, rows: impl IntoIterator<Item = T>) -> Doc {
        self.key(key);
        write_rows(&mut self.out, self.depth + 2, rows);
        self
    }

    /// The finished document, without a trailing newline.
    pub fn finish(mut self) -> String {
        self.close();
        self.out
    }
}

/// A top-level array with one row per line: `[`, the rows two spaces
/// deep, `]`.
pub fn rows<T: ToJson>(rows: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    write_rows(&mut out, 0, rows);
    out
}

/// A top-level array of whole documents, each starting flush left on
/// its own line: `[`, the documents separated by `,`, `]`.
pub fn docs(docs: impl IntoIterator<Item = Doc>) -> String {
    let mut out = String::from("[");
    for (i, doc) in docs.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&doc.finish());
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: impl ToJson) -> String {
        let mut out = String::new();
        v.write_json(&mut out);
        out
    }

    #[test]
    fn escapes_to_ascii() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("\n\t\r\u{1}\u{7f}"), "\\n\\t\\r\\u0001\\u007f");
        assert_eq!(json_escape("µ😀"), "\\u00b5\\ud83d\\ude00");
        assert_eq!(render("q\""), "\"q\\\"\"");
    }

    #[test]
    fn scalars_options_and_arrays() {
        assert_eq!(render(42u64), "42");
        assert_eq!(render(-3i64), "-3");
        assert_eq!(render(true), "true");
        assert_eq!(render(None::<u64>), "null");
        assert_eq!(render(Some(num(1.5))), "1.500000");
        assert_eq!(render([1usize, 2, 8].as_slice()), "[1, 2, 8]");
        assert_eq!(render(Vec::<usize>::new()), "[]");
        assert_eq!(render(vec![(-3i32, 7u64), (1, 2)]), "[[-3, 7], [1, 2]]");
    }

    #[test]
    fn float_formats_print_non_finite_as_null() {
        assert_eq!(num(1.25).to_string(), "1.250000");
        assert_eq!(num(0.0).to_string(), "0.000000");
        assert_eq!(Fixed(2000.0, 0).to_string(), "2000");
        assert_eq!(Fixed(0.1234567891, 9).to_string(), "0.123456789");
        assert_eq!(render(Sci(1.5e-4)), "1.500000e-4");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(render(num(v)), "null");
            assert_eq!(Fixed(v, 3).to_string(), "null");
            assert_eq!(render(Sci(v)), "null");
        }
    }

    #[test]
    fn obj_is_one_line() {
        assert_eq!(Obj::new().finish(), "{}");
        let o = Obj::new()
            .field("a", 1u64)
            .field("b\"", "x")
            .field("c", Obj::new());
        assert_eq!(o.finish(), "{\"a\": 1, \"b\\\"\": \"x\", \"c\": {}}");
    }

    #[test]
    fn empty_docs_are_braces_and_empty_rows_keep_the_closing_indent() {
        assert_eq!(Doc::new().finish(), "{}");
        let d = Doc::new().doc("counters", |d| d).field("n", 1u64);
        assert_eq!(d.finish(), "{\n  \"counters\": {},\n  \"n\": 1\n}");
        let d = Doc::new().rows("classes", Vec::<Obj>::new());
        assert_eq!(d.finish(), "{\n  \"classes\": [\n  ]\n}");
        let d = Doc::new().doc("alerts", |d| d.rows("events", Vec::<Obj>::new()));
        assert_eq!(
            d.finish(),
            "{\n  \"alerts\": {\n    \"events\": [\n    ]\n  }\n}"
        );
        assert_eq!(rows(Vec::<Obj>::new()), "[\n]");
    }

    #[test]
    fn nested_docs_and_rows_indent_two_spaces_per_level() {
        let d = Doc::new()
            .field("schema", "s")
            .doc("outer", |d| {
                d.field("a", 1u64)
                    .doc("inner", |d| d.field("b", 2u64))
                    .rows("r", [Obj::new().field("c", 3u64)])
            })
            .field("digest", "ff");
        assert_eq!(
            d.finish(),
            "{\n  \"schema\": \"s\",\n  \"outer\": {\n    \"a\": 1,\n    \"inner\": {\n      \
             \"b\": 2\n    },\n    \"r\": [\n      {\"c\": 3}\n    ]\n  },\n  \"digest\": \"ff\"\n}"
        );
    }

    #[test]
    fn top_level_arrays() {
        let one = |v: u64| Obj::new().field("v", v);
        assert_eq!(rows([one(1), one(2)]), "[\n  {\"v\": 1},\n  {\"v\": 2}\n]");
        let doc = |v: u64| Doc::new().field("v", v);
        assert_eq!(
            docs([doc(1), doc(2)]),
            "[\n{\n  \"v\": 1\n},\n{\n  \"v\": 2\n}\n]"
        );
    }
}
