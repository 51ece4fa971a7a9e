//! CLI subcommands. One [`COMMANDS`] table declares every command: its
//! name, usage block, positional arity, value options, switches and run
//! function. The parser checks a command line against its row, `help`
//! renders its COMMANDS section from the rows, and every command returns
//! its output as a `String` so the table stays testable.

mod bench;
mod model;
mod plan;
mod serve;
#[cfg(test)]
mod tests;

use crate::args::Args;
use albireo_parallel::Parallelism;
use std::fmt;
use std::path::Path;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// A malformed command line or input: an unknown command, network or
    /// flag, a bad value, a spec that does not parse. Exit 2, followed by
    /// the usage hint.
    Usage(String),
    /// A file could not be read or written. Exit 1.
    Io(String),
    /// A quality gate tripped (`perf-diff` found a regression,
    /// `validate-oracles` a failed paper anchor). The command itself ran
    /// fine; the check failed. Exit 3 keeps the verdict distinguishable
    /// from I/O (1) and usage (2) failures in CI scripts.
    Gate(String),
}

impl CliError {
    /// Process exit code: usage errors exit 2, I/O failures 1, tripped
    /// gates 3.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 1,
            CliError::Gate(_) => 3,
        }
    }

    /// Whether the error should be followed by the usage hint.
    pub fn is_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Io(msg) | CliError::Gate(msg) => write!(f, "{msg}"),
        }
    }
}

/// Spec-grammar and library errors are `String`s; all are usage errors.
impl From<String> for CliError {
    fn from(e: String) -> CliError {
        CliError::Usage(e)
    }
}

/// One row of [`COMMANDS`]: everything the parser and `help` know about
/// a subcommand.
pub struct Command {
    /// The name typed after `albireo`.
    pub name: &'static str,
    /// The usage block: one line under COMMANDS in `help`, plus its
    /// indented continuation lines; `<name> --help` prints it alone.
    pub usage: &'static str,
    /// How many positionals the command takes: `(required, at most)`.
    pub positionals: (usize, usize),
    /// The `--key value` options it reads beyond the global ones,
    /// space-separated.
    pub options: &'static str,
    /// The `--switch` flags it reads beyond the global ones,
    /// space-separated.
    pub switches: &'static str,
    /// Runs the command on arguments parsed against this row.
    pub run: fn(&Args) -> Result<String, CliError>,
}

const USAGE_HEADER: &str = "\
albireo — silicon-photonic CNN accelerator simulator (ISCA 2021 reproduction)

USAGE:
    albireo <command> [options]

COMMANDS:
";

const USAGE_FOOTER: &str = "
GLOBAL OPTIONS:
    --threads N    worker threads for parallel regions (0 = one per core)
    --wall-clock   stamp trace events with wall-clock ns (diagnostic only;
                   excluded from digests, traces stay seed-deterministic)
    --profile FILE write an albireo.profile/v1 wall-clock phase report for
                   the command (host-clock timings; never touches digests)

TRACING:
    --trace-out FILE writes a Chrome trace_event JSON of the run on the
    virtual clock — open it at https://ui.perfetto.dev or chrome://tracing.
    --events-out FILE writes the same stream as JSONL. Fixed seed ⇒
    byte-identical files at any --threads value.

FLEET CHIP KINDS (serve --fleet, plan --chips):
    albireo_9, albireo_27      direct Albireo dataflow
    winograd[_9|_27]           F(2x2,3x3) transform-domain convolution
                               (stride-1 3x3 layers; direct fallback else)
    gemm[_9|_27]               incoherent weight-stationary GEMM; serves
                               dense/pointwise networks only
    pixel, deap, ngN           photonic baselines / custom PLCG count
    eyeriss, envision, unpu    reported numbers (no estimate tag)
    Entries are `[alias=]kind[:C|M|A]`, joined with commas.

CHECKPOINTING (serve):
    --checkpoint-every S snapshots the simulation every S simulated
    seconds to --checkpoint-out FILE (overwritten each time) and/or
    appends one progress line per checkpoint to --report-jsonl FILE.
    --halt-after-checkpoints N stops cleanly after the Nth snapshot;
    --resume FILE restarts from a snapshot and produces a report
    byte-identical to the uninterrupted run (digests match).

METRICS & ALERTS (serve):
    --metrics-out FILE writes an OpenMetrics text export: one snapshot
    for a plain run, a per-checkpoint time series with --checkpoint-every.
    SLO classes (--classes name:w:slo_ms or --slo) are watched by
    deterministic multi-window burn-rate rules (fast 5m/1h, slow 6h/3d
    on the virtual clock) against the --slo-target objective; alert
    fire/resolve transitions stream to --report-jsonl as
    albireo.serve.alert/v1 lines and summarize in the serve report.
";

/// What a row declares unless it says otherwise: no positionals, no
/// options, no switches.
const BARE: Command = Command {
    name: "",
    usage: "",
    positionals: (0, 0),
    options: "",
    switches: "",
    run: help,
};

/// Every subcommand, in `help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "networks",
        usage: "    networks                          list the serving model zoo\n",
        run: model::networks,
        ..BARE
    },
    Command {
        name: "evaluate",
        usage: "    evaluate <network>                run a network on the chip model
        --estimate C|M|A  --ng N  [--no-stride-penalty]  [--per-layer N]
        [--trace-out FILE]            per-layer Chrome/Perfetto trace
                                      (plus a depth-first vs weight-stationary
                                      dataflow diagnostic table)
",
        positionals: (1, 1),
        options: "estimate ng per-layer trace-out events-out metrics-out",
        switches: "no-stride-penalty",
        run: model::evaluate,
    },
    Command {
        name: "power",
        usage: "    power      [--ng N] [--estimate C|M|A]    Table III power breakdown\n",
        options: "ng estimate",
        switches: "no-stride-penalty",
        run: model::power,
        ..BARE
    },
    Command {
        name: "area",
        usage: "    area       [--ng N]                       Fig. 9 area breakdown\n",
        options: "ng",
        switches: "no-stride-penalty",
        run: model::area,
        ..BARE
    },
    Command {
        name: "precision",
        usage: "    precision  [--k2 X] [--wavelengths N] [--laser-mw P]   Figs. 3/4 analysis\n",
        options: "k2 wavelengths laser-mw",
        run: model::precision,
        ..BARE
    },
    Command {
        name: "trace",
        usage: "    trace      [--rows R] [--cols C] [--channels Z]        Fig. 7 dataflow\n",
        options: "rows cols channels ng",
        switches: "no-stride-penalty",
        run: model::trace,
        ..BARE
    },
    Command {
        name: "sweep",
        usage: "    sweep      --param ng|nd|nu --values A,B,C [--network NAME] [--json]\n",
        options: "param values network estimate",
        switches: "json",
        run: model::sweep,
        ..BARE
    },
    Command {
        name: "compare",
        usage: "    compare    [--network NAME]               baselines + winograd/gemm modes\n",
        options: "network",
        run: model::compare,
        ..BARE
    },
    Command {
        name: "faults",
        usage: "    faults     [--dead-ring R,C,O] [--dead-channel C] [--stuck-mzm R,C,W]\n",
        options: "dead-ring dead-channel stuck-mzm ng",
        switches: "no-stride-penalty",
        run: model::faults,
        ..BARE
    },
    Command {
        name: "experiment",
        usage: "    experiment <name>|all                     regenerate a paper experiment\n",
        positionals: (0, 1),
        run: model::experiment,
        ..BARE
    },
    Command {
        name: "bench",
        usage: "    bench      [--thread-counts A,B,C] [--target-ms N] [--out FILE]
                                              parallel-scaling benchmark (JSON)
",
        options: "thread-counts target-ms out",
        run: bench::bench,
        ..BARE
    },
    Command {
        name: "serve",
        usage: "    serve      [--requests N] [--seed S] [--rate RPS]
        [--arrival poisson|bursty|diurnal|flash] [--trace-jsonl FILE]
        [--amplitude A] [--period S] [--spike X] [--spike-at T] [--spike-decay S]
        [--classes NAME:WEIGHT[:SLO_MS],...] [--slo MS] [--record-cap N]
        [--fleet SPEC] [--policy immediate|size:N|deadline:USEC[:MAX]]
        [--queue-cap N] [--networks A,B] [--replicas R] [--json] [--out FILE]
        [--faults SPEC]                   correlated scenario: fail:C@T, recover:C@T,
                                          degrade:C@T:N, rack:A-B@T,
                                          thermal:A-B@T1-T2:N, crews:K:MEAN_S:SEED
        [--checkpoint-every SIM_S] [--checkpoint-out FILE] [--resume FILE]
        [--halt-after-checkpoints N] [--report-jsonl FILE]
        [--trace-out FILE] [--events-out FILE] [--metrics-out FILE]
        [--slo-target FRACTION]           burn-rate alert objective (default 0.999)
                                              multi-chip serving simulation
",
        options: "requests seed rate arrival trace-jsonl burst amplitude period spike \
                  spike-at spike-decay classes slo record-cap fleet policy queue-cap \
                  networks replicas out faults autoscale checkpoint-every checkpoint-out \
                  resume halt-after-checkpoints report-jsonl trace-out events-out \
                  metrics-out slo-target",
        switches: "json",
        run: serve::serve,
        ..BARE
    },
    Command {
        name: "plan",
        usage: "    plan       --slo \"p99<MS[,attain>=A][,shed<=S]\" [--rate RPS]
        [--chips ENTRY,...] [--max-chips N] [--networks A,B]
        [--arrival poisson|bursty|diurnal|flash] [--burst X] [--amplitude A]
        [--period S] [--spike X] [--spike-at T] [--spike-decay S]
        [--classes NAME:WEIGHT[:SLO_MS],...] [--requests N]
        [--screen-requests N] [--seed S] [--replicas R]
        [--policies immediate|size:N|deadline:USEC[:MAX],...]
        [--queue-cap N] [--autoscale none|static|elastic:UP:WARM[:MIN],...]
        [--faults SPEC]                   score candidates under a fault scenario
        [--spec LINE] [--exhaustive] [--json] [--out FILE] [--csv-out FILE]
                                              capacity planner / fleet optimizer
",
        options: "slo rate chips max-chips networks arrival trace-jsonl burst amplitude \
                  period spike spike-at spike-decay classes requests screen-requests \
                  seed replicas policies queue-cap autoscale faults spec out csv-out",
        switches: "exhaustive json",
        run: plan::plan,
        ..BARE
    },
    Command {
        name: "perf-diff",
        usage: "    perf-diff <old.json> <new.json> [--threshold PCT]
                                              perf-regression gate: compares
                                              BENCH_*.json or profile reports;
                                              exit 3 on regression (default 10%)
",
        positionals: (2, 2),
        options: "threshold",
        run: bench::perf_diff,
        ..BARE
    },
    Command {
        name: "export-csv",
        usage: "    export-csv                                write every results/*.csv artifact
",
        run: bench::export_csv,
        ..BARE
    },
    Command {
        name: "validate-oracles",
        usage: "    validate-oracles [--tol-scale X]          paper-anchor PASS/FAIL checklist;
                                              exit 3 when an oracle fails
",
        options: "tol-scale",
        run: bench::validate_oracles,
        ..BARE
    },
    Command {
        name: "serving-study",
        usage: "    serving-study [--out PATH]                serving study digests and timings
                                              (default BENCH_serving.json)
",
        options: "out",
        run: bench::serving_study,
        ..BARE
    },
    Command {
        name: "plan-search",
        usage: "    plan-search [--out PATH]                  planner throughput benchmark
                                              (default BENCH_plan.json)
",
        options: "out",
        run: bench::plan_search,
        ..BARE
    },
    Command {
        name: "help",
        usage: "    help                                      show this message\n",
        run: help,
        ..BARE
    },
];

/// `albireo help`: the full usage text, its COMMANDS section rendered
/// from the rows.
fn help(_: &Args) -> Result<String, CliError> {
    let rows: String = COMMANDS.iter().map(|c| c.usage).collect();
    Ok(format!("{USAGE_HEADER}{rows}{USAGE_FOOTER}"))
}

/// Looks the command named by `argv[0]` up in [`COMMANDS`] and parses
/// the rest of `argv` against its row. No command at all is `help`.
pub fn parse(argv: &[String]) -> Result<(&'static Command, Args), CliError> {
    let name = match argv.first().map(String::as_str) {
        None | Some("--help" | "-h") => "help",
        Some(name) => name,
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{name}`; run `albireo help`")))?;
    let args = Args::parse(command, argv.iter().skip(1).cloned())?;
    Ok((command, args))
}

/// Runs a parsed command under the global options: `--help` prints the
/// row's usage block instead, `--threads N` sets the process-wide
/// parallelism, and `--profile FILE` writes the `albireo.profile/v1`
/// wall-clock phase report of a successful run. The profiler reads the
/// host clock, so its report is not deterministic — but it never touches
/// simulation state, digests, or the command's own output.
pub fn run(command: &Command, args: &Args) -> Result<String, CliError> {
    if args.flag("help") {
        return Ok(command.usage.to_string());
    }
    if let Some(threads) = args.get_where("threads", "a thread count (0 = auto)", |_| true)? {
        Parallelism::set_global(Parallelism::with_threads(threads));
    }
    let Some(path) = args.get("profile") else {
        return (command.run)(args);
    };
    albireo_obs::profile::reset();
    albireo_obs::profile::set_enabled(true);
    let result = (command.run)(args);
    albireo_obs::profile::set_enabled(false);
    let report = albireo_obs::profile::take_report();
    if result.is_ok() {
        write_file(path, report.to_json())?;
    }
    result
}

/// Writes `contents` to `path`: the one way a command writes a whole
/// file. A failure is [`CliError::Io`] naming the path.
fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    let path = path.as_ref();
    std::fs::write(path, contents)
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))
}

/// Reads the file at `path`; a failure is [`CliError::Io`] naming it.
fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
}

/// A finite positive float flag value.
fn positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

/// A count flag value of at least one.
fn at_least_one(n: &usize) -> bool {
    *n >= 1
}

/// An `Obs` handle for a command run: enabled only when a trace export
/// or an OpenMetrics export was requested, with wall-clock stamping
/// behind `--wall-clock`.
fn trace_obs(args: &Args) -> albireo_obs::Obs {
    let enabled = args.get("trace-out").is_some()
        || args.get("events-out").is_some()
        || args.get("metrics-out").is_some();
    let obs = albireo_obs::Obs::new(enabled);
    if args.flag("wall-clock") {
        obs.set_wall_clock(true);
    }
    obs
}

/// Writes the `--metrics-out` OpenMetrics text export from an enabled
/// `Obs`, returning a note line (empty when the flag is absent).
fn write_metrics_out(args: &Args, obs: &albireo_obs::Obs) -> Result<String, CliError> {
    let Some(path) = args.get("metrics-out") else {
        return Ok(String::new());
    };
    let snapshot = obs.snapshot();
    write_file(path, albireo_obs::openmetrics::render(&snapshot))?;
    let digest = snapshot.digest();
    Ok(format!(
        "wrote {path}: OpenMetrics snapshot, digest {digest:016x}\n"
    ))
}

/// Drains `obs` and writes the requested trace exports (`--trace-out`
/// Chrome JSON, `--events-out` JSONL), returning one note line per file
/// written (empty when no export was requested).
fn write_trace_outputs(
    args: &Args,
    obs: &albireo_obs::Obs,
    track_names: &[(u32, String)],
) -> Result<String, CliError> {
    let mut note = String::new();
    if args.get("trace-out").is_none() && args.get("events-out").is_none() {
        return Ok(note);
    }
    let events = obs.drain_events();
    let digest = albireo_obs::events_digest(&events);
    // The per-track rings keep only the newest events: say how many
    // older ones a long run lost.
    let dropped = match obs.dropped_events() {
        0 => String::new(),
        n => format!(", {n} older events dropped (trace ring buffers full)"),
    };
    let n = events.len();
    if let Some(path) = args.get("trace-out") {
        write_file(path, albireo_obs::to_chrome_trace(&events, track_names))?;
        note += &format!("wrote {path}: {n} trace events, digest {digest:016x}{dropped}\n");
    }
    if let Some(path) = args.get("events-out") {
        write_file(path, albireo_obs::to_jsonl(&events))?;
        note += &format!("wrote {path}: {n} events (JSONL), digest {digest:016x}{dropped}\n");
    }
    Ok(note)
}

/// Writes the command's report to `--out` and returns `note`, or returns
/// the report itself when no `--out` was given.
fn to_out(
    args: &Args,
    report: String,
    note: impl FnOnce(&str) -> String,
) -> Result<String, CliError> {
    match args.get("out") {
        Some(path) => {
            write_file(path, &report)?;
            Ok(note(path))
        }
        None => Ok(report),
    }
}
