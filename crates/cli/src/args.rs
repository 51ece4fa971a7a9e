//! Minimal dependency-free argument parsing: `--key value` flags and
//! positional arguments.

use std::collections::BTreeMap;

/// Parsed command-line arguments: positionals in order plus `--key value`
/// options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors produced while parsing or reading arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--key` was given without a value.
    MissingValue(String),
    /// A required option was not provided.
    MissingOption(String),
    /// A value failed to parse.
    Invalid {
        /// The option name.
        option: String,
        /// The rejected value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} requires a value"),
            ArgError::MissingOption(k) => write!(f, "missing required option --{k}"),
            ArgError::Invalid {
                option,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for --{option}: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

/// Boolean flags recognized without values.
const BOOL_FLAGS: &[&str] = &[
    "no-stride-penalty",
    "compensate",
    "help",
    "json",
    "wall-clock",
    "exhaustive",
];

impl Args {
    /// Parses a raw argument list (excluding the program/subcommand names).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                    out.options.insert(key.to_string(), value);
                }
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A parsed numeric option with a default.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        Ok(self.get_where(name, expected, |_| true)?.unwrap_or(default))
    }

    /// An optional parsed option that must satisfy `ok`; a value that
    /// does not parse, or parses outside `ok`, is reported as
    /// `Invalid` with the `expected` description.
    pub fn get_where<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, ArgError> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        match raw.parse() {
            Ok(v) if ok(&v) => Ok(Some(v)),
            _ => Err(ArgError::Invalid {
                option: name.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }

    /// A comma-separated list of parsed values.
    pub fn get_list<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<Vec<T>>, ArgError> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|piece| {
                    piece.trim().parse().map_err(|_| ArgError::Invalid {
                        option: name.to_string(),
                        value: piece.to_string(),
                        expected,
                    })
                })
                .collect::<Result<Vec<T>, ArgError>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse(&["vgg16", "--estimate", "moderate", "--ng", "27"]);
        assert_eq!(a.positionals(), &["vgg16".to_string()]);
        assert_eq!(a.get("estimate"), Some("moderate"));
        assert_eq!(a.get_parsed_or("ng", 9usize, "int").unwrap(), 27);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_or("estimate", "conservative"), "conservative");
        assert_eq!(a.get_parsed_or("ng", 9usize, "int").unwrap(), 9);
    }

    #[test]
    fn bool_flags() {
        let a = parse(&["--no-stride-penalty", "--k2", "0.02"]);
        assert!(a.flag("no-stride-penalty"));
        assert!(!a.flag("compensate"));
        assert_eq!(a.get("k2"), Some("0.02"));
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["--values", "3, 9,27"]);
        let v: Vec<usize> = a.get_list("values", "ints").unwrap().unwrap();
        assert_eq!(v, vec![3, 9, 27]);
    }

    #[test]
    fn missing_value_is_error() {
        let err = Args::parse(["--ng".to_string()]).unwrap_err();
        assert!(matches!(err, ArgError::MissingValue(k) if k == "ng"));
    }

    #[test]
    fn invalid_value_is_error() {
        let a = parse(&["--ng", "lots"]);
        let err = a
            .get_parsed_or("ng", 9usize, "a positive integer")
            .unwrap_err();
        assert!(err.to_string().contains("lots"));
    }
}
