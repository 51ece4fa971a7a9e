//! The benchmark of record for the Albireo simulator: five fixed
//! workloads, each timed end to end and layer by layer, with every
//! output checked. See README.md for the workloads, metrics and bounds.
//!
//! ```text
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (or, with
//! `--trace 1`, the per-layer ones). `--out` also writes the full
//! report: host facts, every check, and each metric's sample count and
//! quartiles. The process exits non-zero when any check fails.

mod analog;
mod harness;
mod planner;
mod report;
mod serve;
mod stats;

use albireo::parallel::Parallelism;
use harness::{Setup, DEFAULT_SEED};
use report::{RunFacts, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Every workload, by the name `--workload` takes.
const WORKLOADS: &[(&str, Setup)] = &[
    ("analog_nets", analog::nets),
    ("analog_faults", analog::faults),
    ("serve_steady", serve::steady),
    ("serve_tenants", serve::tenants),
    ("plan_wide", planner::wide),
];

const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--out FILE]\nworkloads: analog_nets, analog_faults, serve_steady, \
                     serve_tenants, plan_wide";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => parsed.out = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, setup)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("error: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    // Library calls that take the process-wide default (the reference
    // convolution) run on one thread; the planner passes its own.
    Parallelism::set_global(Parallelism::serial());

    let outcome = match harness::run(setup, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let facts = RunFacts {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: harness::THREADS,
        timed_units: outcome.timed_units,
        traced_units: outcome.traced_units,
    };
    for check in &outcome.checks {
        eprintln!(
            "{} {}: {}",
            if check.ok { "ok  " } else { "FAIL" },
            check.name,
            check.detail
        );
    }
    eprintln!(
        "{}: seed {}, {} timed units ({} traced), nproc {}, {} thread(s), {} build",
        facts.workload,
        facts.seed,
        facts.timed_units,
        facts.traced_units,
        facts.nproc,
        facts.threads,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
    if let Some(path) = &args.out {
        let full = report::full_report(
            &facts,
            &outcome.metrics,
            &outcome.checks,
            outcome.attempted,
            outcome.failed,
        );
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        report::result_line(&outcome.metrics, names, outcome.attempted, outcome.failed)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_and_bad_values_are_refused() {
        let a = args(&[
            "--workload",
            "plan_wide",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("plan_wide", 7, 2.0, true)
        );
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus"]).is_err());
    }

    /// A one-unit run of every workload at the default seed passes every
    /// check, including its pinned digests.
    #[test]
    fn every_workload_passes_its_checks() {
        Parallelism::set_global(Parallelism::serial());
        for &(name, setup) in WORKLOADS {
            let outcome = harness::run(setup, DEFAULT_SEED, 1e-3, false).expect(name);
            for check in &outcome.checks {
                assert!(check.ok, "{name}: {} — {}", check.name, check.detail);
            }
            assert_eq!(outcome.failed, 0, "{name}");
            for (metric, _) in END_TO_END {
                let value = outcome.metrics.value(metric).unwrap_or(0.0);
                assert!(value > 0.0, "{name}: {metric} = {value}");
            }
        }
    }

    /// The metric lists the binary prints are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn benchmark_json_declares_every_printed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = albireo_obs::jsonv::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = json
                .get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(|v| v.as_arr())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(workloads, known);
    }
}
