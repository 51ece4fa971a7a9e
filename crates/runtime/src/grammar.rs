//! The one lexer every spec grammar reads its fields through.
//!
//! Every configuration the serving stack accepts is typed as a one-line
//! spec — fleets, batching and autoscaling policies, fault scenarios,
//! tenant classes, arrival processes, the planner's SLO and plan lines.
//! The `tag value` lines of a checkpoint record are read through the same
//! lexer. [`Lexer`] splits one line into borrowed, trimmed tokens, parses
//! fields through [`FromStr`], range-checks them, and reports a bad field
//! in a single format:
//!
//! ```text
//! <grammar> `<input>`: expected <what> at byte <n>
//! ```
//!
//! where `<n>` is the byte offset of the offending token in `<input>`
//! (the read position when a field is missing). Semantic rejections
//! (duplicates, unknown keys) use the same frame with their own message
//! in place of `expected <what>`. Error strings are built only on the
//! failure path, so a successful parse allocates nothing here. DESIGN.md
//! §16 lists the grammars and why errors stay `String`.

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over one spec line: yields the trimmed tokens between
/// separators as slices of the original input. [`Lexer::to`] switches
/// the separator for one read, so mixed-separator clauses such as
/// `thermal:A-B@T1-T2:N` stay one left-to-right scan.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    grammar: &'static str,
    input: &'a str,
    rest: &'a str,
    sep: char,
    next_sep: Option<char>,
    done: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer over `input` splitting on `sep`. Like `str::split`, an
    /// empty input yields one empty token.
    pub fn new(grammar: &'static str, input: &'a str, sep: char) -> Lexer<'a> {
        Lexer {
            grammar,
            input,
            rest: input,
            sep,
            next_sep: None,
            done: false,
        }
    }

    /// A lexer over `token` — a slice of this lexer's input — splitting
    /// on `sep` and reporting byte offsets in the whole input.
    pub fn split(&self, token: &'a str, sep: char) -> Lexer<'a> {
        Lexer {
            rest: token,
            ..Lexer::new(self.grammar, self.input, sep)
        }
    }

    /// Splits the next read on `sep` instead of the default separator.
    pub fn to(&mut self, sep: char) -> &mut Lexer<'a> {
        self.next_sep = Some(sep);
        self
    }

    /// Whether every token has been read.
    pub fn at_end(&self) -> bool {
        self.done
    }

    /// The required next token.
    pub fn token(&mut self, what: impl Display) -> Result<&'a str, String> {
        self.next().ok_or_else(|| self.missing(what))
    }

    /// The next token parsed as a `T`.
    pub fn field<T: FromStr>(&mut self, what: impl Display) -> Result<T, String> {
        self.field_where(what, |_| true)
    }

    /// The next token parsed as a `T` that satisfies `ok`.
    pub fn field_where<T: FromStr>(
        &mut self,
        what: impl Display,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        match self.next() {
            Some(token) => self.parse_where(token, what, ok),
            None => Err(self.missing(what)),
        }
    }

    /// The next token as a finite `f64` above zero.
    pub fn positive(&mut self, what: &str) -> Result<f64, String> {
        let ok = |v: &f64| v.is_finite() && *v > 0.0;
        self.field_where(format_args!("finite {what} > 0"), ok)
    }

    /// The next token as a finite `f64` at or above zero.
    pub fn non_negative(&mut self, what: &str) -> Result<f64, String> {
        let ok = |v: &f64| v.is_finite() && *v >= 0.0;
        self.field_where(format_args!("finite {what} >= 0"), ok)
    }

    /// The next token as a count of at least one.
    pub fn nonzero(&mut self, what: &str) -> Result<usize, String> {
        self.field_where(format_args!("{what} >= 1"), |n: &usize| *n >= 1)
    }

    /// The next token as a hexadecimal `u64` (snapshot fields).
    pub fn hex(&mut self, what: &str) -> Result<u64, String> {
        let token = self.token(what)?;
        let hex = u64::from_str_radix(token, 16);
        hex.map_err(|_| self.expected(token, format_args!("hex {what}")))
    }

    /// Reads the token before the next `sep` if the unread input has
    /// one (the `alias` of `alias=chip`); otherwise reads nothing.
    pub fn prefix(&mut self, sep: char) -> Option<&'a str> {
        match self.done || !self.rest.contains(sep) {
            true => None,
            false => self.to(sep).next(),
        }
    }

    /// The unread input, untrimmed, consuming it.
    pub fn rest(&mut self, what: &str) -> Result<&'a str, String> {
        if self.done {
            return Err(self.missing(what));
        }
        self.done = true;
        let (rest, end) = self.rest.split_at(self.rest.len());
        self.rest = end;
        Ok(rest)
    }

    /// Rejects trailing fields.
    pub fn end(&self) -> Result<(), String> {
        match self.done {
            true => Ok(()),
            false => Err(self.expected(self.rest, "end of input")),
        }
    }

    /// Parses `token` (a slice of this lexer's input) as a `T`.
    pub fn parse<T: FromStr>(&self, token: &'a str, what: impl Display) -> Result<T, String> {
        self.parse_where(token, what, |_| true)
    }

    /// Parses `token` as a `T` that satisfies `ok`.
    pub fn parse_where<T: FromStr>(
        &self,
        token: &'a str,
        what: impl Display,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        match token.trim().parse() {
            Ok(v) if ok(&v) => Ok(v),
            _ => Err(self.expected(token, what)),
        }
    }

    /// ``<grammar> `<input>`: expected <what> at byte <n>`` at `token`.
    pub fn expected(&self, token: &str, what: impl Display) -> String {
        self.reject(token, format_args!("expected {what}"))
    }

    /// `expected <what>` at the read position: a missing field.
    pub fn missing(&self, what: impl Display) -> String {
        self.expected(self.rest, what)
    }

    /// The error frame with a free-form message, positioned at `token`
    /// (clamped to the input's end for slices from elsewhere, such as a
    /// grammar's default value).
    pub fn reject(&self, token: &str, message: impl Display) -> String {
        let at = (token.as_ptr() as usize).wrapping_sub(self.input.as_ptr() as usize);
        let (grammar, input) = (self.grammar, self.input);
        format!(
            "{grammar} `{input}`: {message} at byte {}",
            at.min(input.len())
        )
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = &'a str;

    /// The next token, trimmed; `None` once the input is consumed.
    fn next(&mut self) -> Option<&'a str> {
        if self.done {
            return None;
        }
        let sep = self.next_sep.take().unwrap_or(self.sep);
        let (token, rest) = match self.rest.find(sep) {
            Some(i) => (&self.rest[..i], &self.rest[i + sep.len_utf8()..]),
            None => {
                self.done = true;
                self.rest.split_at(self.rest.len())
            }
        };
        self.rest = rest;
        Some(token.trim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_trimmed_slices_with_offsets() {
        let mut lx = Lexer::new("demo", " a : 12 :x", ':');
        assert_eq!(lx.token("a").unwrap(), "a");
        assert_eq!(lx.field::<u32>("n").unwrap(), 12);
        let err = lx.field::<u32>("count").unwrap_err();
        assert_eq!(err, "demo ` a : 12 :x`: expected count at byte 9");
        assert!(lx.at_end());
        assert!(lx.token("more").unwrap_err().ends_with("at byte 10"));
    }

    #[test]
    fn separators_can_change_per_read() {
        let mut lx = Lexer::new("fault", "0-3@0.5-0.75:2", ':');
        assert_eq!(lx.to('-').field::<usize>("from").unwrap(), 0);
        assert_eq!(lx.to('@').field::<usize>("to").unwrap(), 3);
        assert_eq!(lx.to('-').non_negative("start").unwrap(), 0.5);
        assert_eq!(lx.to(':').non_negative("end").unwrap(), 0.75);
        assert_eq!(lx.nonzero("count").unwrap(), 2);
        assert!(lx.end().is_ok());
    }

    #[test]
    fn range_checks_reject_non_finite_and_out_of_range() {
        for (text, ok) in [
            ("1", true),
            ("0", false),
            ("-1", false),
            ("nan", false),
            ("inf", false),
        ] {
            assert_eq!(
                Lexer::new("g", text, ':').positive("x").is_ok(),
                ok,
                "{text}"
            );
        }
        assert!(Lexer::new("g", "0", ':').non_negative("x").is_ok());
        assert!(Lexer::new("g", "-0.1", ':').non_negative("x").is_err());
        assert!(Lexer::new("g", "0", ':').nonzero("x").is_err());
        let mut lx = Lexer::new("policy", "deadline:nan", ':');
        lx.token("kind").unwrap();
        assert_eq!(
            lx.positive("deadline").unwrap_err(),
            "policy `deadline:nan`: expected finite deadline > 0 at byte 9"
        );
    }

    #[test]
    fn end_rejects_trailing_fields() {
        let mut lx = Lexer::new("g", "1:2", ':');
        lx.field::<u8>("a").unwrap();
        assert_eq!(
            lx.end().unwrap_err(),
            "g `1:2`: expected end of input at byte 2"
        );
        let mut empty_tail = Lexer::new("g", "1:", ':');
        empty_tail.field::<u8>("a").unwrap();
        assert!(empty_tail.end().is_err());
    }

    #[test]
    fn space_separated_fields_end_in_a_raw_rest() {
        let mut lx = Lexer::new("snapshot", "class 1 ff - my name", ' ');
        assert_eq!(lx.token("tag").unwrap(), "class");
        assert_eq!(lx.field::<u64>("n").unwrap(), 1);
        assert_eq!(lx.hex("x").unwrap(), 0xff);
        assert_eq!(lx.token("slo").unwrap(), "-");
        assert_eq!(lx.rest("name").unwrap(), "my name");
        assert!(lx.end().is_ok());
        assert!(lx.rest("more").is_err());
    }

    #[test]
    fn prefix_reads_only_when_the_separator_is_present() {
        let mut aliased = Lexer::new("fleet", "edge = albireo_9:C", ':');
        assert_eq!(aliased.prefix('='), Some("edge"));
        assert_eq!(aliased.token("chip").unwrap(), "albireo_9");
        let mut bare = Lexer::new("fleet", "albireo_9:C", ':');
        assert_eq!(bare.prefix('='), None);
        assert_eq!(bare.token("chip").unwrap(), "albireo_9");
    }

    #[test]
    fn sub_lexers_report_offsets_in_the_whole_input() {
        let outer = Lexer::new("plan spec", "rate=1;mix=0:x", ';');
        let value = &outer.input[11..];
        let mut inner = outer.split(value, ':');
        inner.field::<usize>("idx").unwrap();
        assert!(inner
            .field::<f64>("weight")
            .unwrap_err()
            .ends_with("at byte 13"));
    }
}
