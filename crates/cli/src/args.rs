//! Minimal dependency-free argument parsing: `--key value` options,
//! `--switch` flags and positionals, each declared by the command's row
//! of [`COMMANDS`](crate::commands::COMMANDS) or by the global set. An
//! undeclared option or switch, or a surplus positional, is a usage
//! error.

use crate::commands::{CliError, Command};
use std::collections::BTreeMap;

/// Value options every command accepts: `--threads N`, `--profile FILE`.
pub const GLOBAL_OPTIONS: &str = "threads profile";

/// Switches every command accepts: `--help` prints the command's usage
/// instead of running it, `--wall-clock` stamps trace events with wall
/// time.
pub const GLOBAL_SWITCHES: &str = "help wall-clock";

/// Whether the space-separated flag `list` names `key`.
fn declares(list: &str, key: &str) -> bool {
    list.split_whitespace().any(|flag| flag == key)
}

/// One command line parsed against its command's row: positionals in
/// order, `--key value` options and `--switch` flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

fn invalid(option: &str, value: &str, expected: &str) -> CliError {
    CliError::Usage(format!(
        "invalid value `{value}` for --{option}: expected {expected}"
    ))
}

impl Args {
    /// Parses the arguments after the command name against `command`'s
    /// declared options, switches and positional arity.
    pub fn parse<I: IntoIterator<Item = String>>(
        command: &Command,
        args: I,
    ) -> Result<Args, CliError> {
        let name = command.name;
        let mut out = Args::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                out.positionals.push(arg);
                continue;
            };
            if declares(command.switches, key) || declares(GLOBAL_SWITCHES, key) {
                out.switches.push(key.to_string());
            } else if declares(command.options, key) || declares(GLOBAL_OPTIONS, key) {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("option --{key} requires a value")))?;
                out.options.insert(key.to_string(), value);
            } else {
                return Err(CliError::Usage(format!("`{name}` has no option --{key}")));
            }
        }
        let (min, max) = command.positionals;
        if let Some(extra) = out.positionals.get(max) {
            return Err(CliError::Usage(format!(
                "unexpected argument `{extra}`: `{name}` takes at most {max}"
            )));
        }
        if out.positionals.len() < min && !out.flag("help") {
            return Err(CliError::Usage(format!(
                "`{name}` needs {min} argument(s), got {}",
                out.positionals.len()
            )));
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a switch was given.
    pub fn flag(&self, name: &str) -> bool {
        self.switches.iter().any(|f| f == name)
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A required string option.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| CliError::Usage(format!("missing required option --{name}")))
    }

    /// A parsed numeric option with a default.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, CliError> {
        Ok(self.get_where(name, expected, |_| true)?.unwrap_or(default))
    }

    /// An optional parsed option that must satisfy `ok`; a value that
    /// does not parse, or parses outside `ok`, is a usage error naming
    /// the `expected` description.
    pub fn get_where<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        match raw.parse() {
            Ok(v) if ok(&v) => Ok(Some(v)),
            _ => Err(invalid(name, raw, expected)),
        }
    }

    /// A comma-separated list of parsed values.
    pub fn get_list<T: std::str::FromStr>(
        &self,
        name: &str,
        expected: &'static str,
    ) -> Result<Option<Vec<T>>, CliError> {
        let Some(raw) = self.get(name) else {
            return Ok(None);
        };
        raw.split(',')
            .map(|piece| {
                piece
                    .trim()
                    .parse()
                    .map_err(|_| invalid(name, piece, expected))
            })
            .collect::<Result<Vec<T>, CliError>>()
            .map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_run(_: &Args) -> Result<String, CliError> {
        Ok(String::new())
    }

    const ROW: Command = Command {
        name: "demo",
        usage: "",
        positionals: (0, 1),
        options: "estimate ng k2 values",
        switches: "no-stride-penalty",
        run: no_run,
    };

    fn parse(args: &[&str]) -> Args {
        Args::parse(&ROW, args.iter().map(|s| s.to_string())).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        Args::parse(&ROW, args.iter().map(|s| s.to_string()))
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse(&["vgg16", "--estimate", "moderate", "--ng", "27"]);
        assert_eq!(a.positionals(), &["vgg16".to_string()]);
        assert_eq!(a.get("estimate"), Some("moderate"));
        assert_eq!(a.get_parsed_or("ng", 9usize, "int").unwrap(), 27);
        let err = parse_err(&["vgg16", "resnet18"]);
        assert!(err.contains("`resnet18`"), "{err}");
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_or("estimate", "conservative"), "conservative");
        assert_eq!(a.get_parsed_or("ng", 9usize, "int").unwrap(), 9);
    }

    #[test]
    fn bool_flags() {
        let a = parse(&["--no-stride-penalty", "--k2", "0.02", "--wall-clock"]);
        assert!(a.flag("no-stride-penalty"));
        assert!(a.flag("wall-clock"));
        assert!(!a.flag("help"));
        assert_eq!(a.get("k2"), Some("0.02"));
        // A switch the row does not declare is refused, not swallowed.
        let err = parse_err(&["--compensate"]);
        assert!(err.contains("`demo` has no option --compensate"), "{err}");
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["--values", "3, 9,27"]);
        let v: Vec<usize> = a.get_list("values", "ints").unwrap().unwrap();
        assert_eq!(v, vec![3, 9, 27]);
    }

    #[test]
    fn missing_value_is_error() {
        let err = parse_err(&["--ng"]);
        assert!(err.contains("option --ng requires a value"), "{err}");
    }

    #[test]
    fn invalid_value_is_error() {
        let a = parse(&["--ng", "lots"]);
        let err = a
            .get_parsed_or("ng", 9usize, "a positive integer")
            .unwrap_err();
        assert!(err.to_string().contains("lots"));
        assert_eq!(err.exit_code(), 2);
    }
}
