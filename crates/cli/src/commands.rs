//! CLI subcommand implementations. Each command returns its output as a
//! `String` so the dispatch layer stays testable.

use crate::args::{ArgError, Args};
use albireo_core::ablation::{sweep_nd, sweep_ng, sweep_nu};
use albireo_core::area::AreaBreakdown;
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::power::PowerBreakdown;
use albireo_core::report::{format_joules, format_seconds, format_table, format_watts};
use albireo_core::trace::{summarize, trace_kernel};
use albireo_nn::{zoo, Model};
use albireo_obs::json::{self, num, Fixed, Obj};
use albireo_parallel::Parallelism;
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::OpticalParams;
use std::error::Error;
use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// Unknown subcommand or entity name.
    Unknown(String),
    /// An output file could not be written.
    Io(String),
    /// A quality gate tripped (`perf-diff` found a regression). The
    /// command itself ran fine; the comparison failed. Exit 3 keeps the
    /// verdict distinguishable from I/O (1) and usage (2) failures in
    /// CI scripts.
    Gate(String),
}

impl CliError {
    /// Process exit code: usage-class errors exit 2 (and print a usage
    /// hint), runtime I/O failures exit 1, tripped gates exit 3.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Args(_) | CliError::Unknown(_) => 2,
            CliError::Io(_) => 1,
            CliError::Gate(_) => 3,
        }
    }

    /// Whether the error should be followed by the usage hint.
    pub fn is_usage(&self) -> bool {
        matches!(self, CliError::Args(_) | CliError::Unknown(_))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Unknown(msg) => write!(f, "{msg}"),
            CliError::Io(msg) => write!(f, "{msg}"),
            CliError::Gate(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::Args(e)
    }
}

/// Spec-grammar and library errors are `String`s; all are usage errors.
impl From<String> for CliError {
    fn from(e: String) -> CliError {
        CliError::Unknown(e)
    }
}

/// The top-level usage text.
pub const USAGE: &str = "\
albireo — silicon-photonic CNN accelerator simulator (ISCA 2021 reproduction)

USAGE:
    albireo <command> [options]

COMMANDS:
    networks                          list the serving model zoo
    evaluate <network>                run a network on the chip model
        --estimate C|M|A  --ng N  [--no-stride-penalty]  [--per-layer N]
        [--trace-out FILE]            per-layer Chrome/Perfetto trace
                                      (plus a depth-first vs weight-stationary
                                      dataflow diagnostic table)
    power      [--ng N] [--estimate C|M|A]    Table III power breakdown
    area       [--ng N]                       Fig. 9 area breakdown
    precision  [--k2 X] [--wavelengths N] [--laser-mw P]   Figs. 3/4 analysis
    trace      [--rows R] [--cols C] [--channels Z]        Fig. 7 dataflow
    sweep      --param ng|nd|nu --values A,B,C [--network NAME] [--json]
    compare    [--network NAME]               baselines + winograd/gemm modes
    faults     [--dead-ring R,C,O] [--dead-channel C] [--stuck-mzm R,C,W]
    experiment <name>|all                     regenerate a paper experiment
    bench      [--thread-counts A,B,C] [--target-ms N] [--out FILE]
                                              parallel-scaling benchmark (JSON)
    serve      [--requests N] [--seed S] [--rate RPS]
        [--arrival poisson|bursty|diurnal|flash] [--trace-jsonl FILE]
        [--amplitude A] [--period S] [--spike X] [--spike-at T] [--spike-decay S]
        [--classes NAME:WEIGHT[:SLO_MS],...] [--slo MS] [--record-cap N]
        [--fleet SPEC] [--policy immediate|size:N|deadline:USEC[:MAX]]
        [--queue-cap N] [--networks A,B] [--replicas R] [--json] [--out FILE]
        [--fail CHIP@T,...] [--degrade CHIP:K@T,...] [--recover CHIP@T,...]
        [--faults SPEC]                   correlated scenario: fail:C@T, recover:C@T,
                                          degrade:C@T:N, rack:A-B@T,
                                          thermal:A-B@T1-T2:N, crews:K:MEAN_S:SEED
        [--checkpoint-every SIM_S] [--checkpoint-out FILE] [--resume FILE]
        [--halt-after-checkpoints N] [--report-jsonl FILE]
        [--trace-out FILE] [--events-out FILE] [--metrics-out FILE]
        [--slo-target FRACTION]           burn-rate alert objective (default 0.999)
                                              multi-chip serving simulation
    plan       --slo \"p99<MS[,attain>=A][,shed<=S]\" [--rate RPS]
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
    perf-diff <old.json> <new.json> [--threshold PCT]
                                              perf-regression gate: compares
                                              BENCH_*.json or profile reports;
                                              exit 3 on regression (default 10%)
    help                                      show this message

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

fn parse_network(name: &str) -> Result<Model, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Ok(zoo::alexnet()),
        "vgg16" | "vgg" => Ok(zoo::vgg16()),
        "resnet18" | "resnet" => Ok(zoo::resnet18()),
        "mobilenet" => Ok(zoo::mobilenet()),
        "vgg19" => Ok(zoo::vgg19()),
        "resnet34" => Ok(zoo::resnet34()),
        "mobilenet-0.5" | "mobilenet_half" => Ok(zoo::mobilenet_half()),
        "mlp-mixer" | "mlp_mixer" | "mixer" => Ok(zoo::mlp_mixer()),
        "transformer" | "transformer-enc" | "transformer_encoder_block" => {
            Ok(zoo::transformer_encoder_block())
        }
        "tiny" => Ok(zoo::tiny()),
        other => Err(CliError::Unknown(format!(
            "unknown network `{other}` (try: alexnet, vgg16, resnet18, mobilenet, \
             vgg19, resnet34, mobilenet-0.5, mlp-mixer, transformer, tiny)"
        ))),
    }
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
    std::fs::write(path, albireo_obs::openmetrics::render(&snapshot))
        .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    Ok(format!(
        "wrote {path}: OpenMetrics snapshot, digest {:016x}\n",
        snapshot.digest()
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
    if let Some(path) = args.get("trace-out") {
        let trace = albireo_obs::to_chrome_trace(&events, track_names);
        std::fs::write(path, trace)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        note.push_str(&format!(
            "wrote {path}: {} trace events, digest {digest:016x}\n",
            events.len()
        ));
    }
    if let Some(path) = args.get("events-out") {
        let jsonl = albireo_obs::to_jsonl(&events);
        std::fs::write(path, jsonl)
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        note.push_str(&format!(
            "wrote {path}: {} events (JSONL), digest {digest:016x}\n",
            events.len()
        ));
    }
    Ok(note)
}

fn chip_from(args: &Args) -> Result<ChipConfig, CliError> {
    let ng = args
        .get_where("ng", "a positive integer", at_least_one)?
        .unwrap_or(9);
    let mut chip = ChipConfig::with_ng(ng);
    if args.flag("no-stride-penalty") {
        chip.model_stride_penalty = false;
    }
    Ok(chip)
}

/// `albireo networks`
pub fn networks() -> String {
    let rows: Vec<Vec<String>> = zoo::serving_models()
        .iter()
        .map(|m| {
            vec![
                m.name().to_string(),
                m.layers().len().to_string(),
                format!("{:.2}", m.total_macs() as f64 / 1e9),
                format!("{:.1}", m.total_params() as f64 / 1e6),
                m.input_shape().to_string(),
            ]
        })
        .collect();
    format_table(&["network", "layers", "GMACs", "Mparams", "input"], &rows)
}

/// `albireo evaluate <network> [...]`
pub fn evaluate(args: &Args) -> Result<String, CliError> {
    let name = args
        .positionals()
        .first()
        .ok_or_else(|| CliError::Unknown("evaluate needs a network name".into()))?;
    let model = parse_network(name)?;
    let estimate = args.get_parsed_or("estimate", TechnologyEstimate::Conservative, "C, M or A")?;
    let chip = chip_from(args)?;
    let obs = trace_obs(args);
    let eval =
        NetworkEvaluation::evaluate_observed(&chip, estimate, &model, Parallelism::default(), &obs);
    let mut out = format!(
        "{} on Albireo-{} (Ng={}):\n  latency {}  energy {}  EDP {:.3} mJ·ms\n  power {}  {:.0} GOPS  {:.1} GOPS/mm² ({:.0} active)  utilization {:.1}%\n",
        eval.network,
        estimate.suffix(),
        chip.ng,
        format_seconds(eval.latency_s),
        format_joules(eval.energy_j),
        eval.edp_mj_ms(),
        format_watts(eval.power_w),
        eval.gops(),
        eval.gops_per_mm2(),
        eval.gops_per_mm2_active(),
        eval.mean_utilization() * 100.0,
    );
    let show = args.get_parsed_or("per-layer", 0usize, "a count")?;
    if show > 0 {
        let mut layers: Vec<_> = eval.per_layer.iter().filter(|l| l.cycles > 0).collect();
        layers.sort_by_key(|l| std::cmp::Reverse(l.cycles));
        let rows: Vec<Vec<String>> = layers
            .iter()
            .take(show)
            .map(|l| {
                vec![
                    l.name.clone(),
                    l.cycles.to_string(),
                    format_seconds(l.latency_s),
                    format!("{:.1}%", l.utilization * 100.0),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &["layer", "cycles", "latency", "utilization"],
            &rows,
        ));
    }
    // Dataflow diagnostic: the depth-first schedule the paper argues for
    // vs a weight-stationary alternative, in converter updates and
    // partial-sum traffic (see core::dataflow_alt).
    let (df, ws) = albireo_core::dataflow_alt::compare_dataflows(&chip, estimate, &model);
    let dataflow_rows = vec![
        vec![
            "depth-first".to_string(),
            df.weight_dac_updates.to_string(),
            df.input_dac_updates.to_string(),
            df.partial_bytes.to_string(),
            format_joules(df.energy_j),
        ],
        vec![
            "weight-stationary".to_string(),
            ws.weight_dac_updates.to_string(),
            ws.input_dac_updates.to_string(),
            ws.partial_bytes.to_string(),
            format_joules(ws.energy_j),
        ],
    ];
    out.push_str("\nDataflow comparison (converter + partial-sum traffic):\n");
    out.push_str(&format_table(
        &[
            "dataflow",
            "weight DAC updates",
            "input DAC updates",
            "partial bytes",
            "energy",
        ],
        &dataflow_rows,
    ));
    out.push_str(&format!(
        "  weight-stationary energy delta: {:+.1}% vs depth-first\n",
        (ws.energy_j - df.energy_j) / df.energy_j * 100.0
    ));
    out.push_str(&write_trace_outputs(
        args,
        &obs,
        &[(albireo_obs::track::ENGINE, "engine".to_string())],
    )?);
    out.push_str(&write_metrics_out(args, &obs)?);
    Ok(out)
}

/// `albireo power [...]`
pub fn power(args: &Args) -> Result<String, CliError> {
    let chip = chip_from(args)?;
    let estimate = args.get_parsed_or("estimate", TechnologyEstimate::Conservative, "C, M or A")?;
    let b = PowerBreakdown::for_chip(&chip, estimate);
    let rows: Vec<Vec<String>> = b
        .rows()
        .into_iter()
        .map(|(name, w, portion)| {
            vec![
                name.to_string(),
                format_watts(w),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    Ok(format!(
        "{}\nTotal: {}\n",
        format_table(&["device", "power", "portion"], &rows),
        format_watts(b.total_w())
    ))
}

/// `albireo area [...]`
pub fn area(args: &Args) -> Result<String, CliError> {
    let chip = chip_from(args)?;
    let a = AreaBreakdown::for_chip(&chip);
    let rows: Vec<Vec<String>> = a
        .rows()
        .into_iter()
        .map(|(name, mm2, portion)| {
            vec![
                name.to_string(),
                format!("{mm2:.3} mm²"),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    Ok(format!(
        "{}\nTotal: {:.1} mm² (active {:.1} mm²)\n",
        format_table(&["component", "area", "portion"], &rows),
        a.total_mm2(),
        a.active_mm2()
    ))
}

/// `albireo precision [...]`
pub fn precision(args: &Args) -> Result<String, CliError> {
    let coupling = |k: &f64| *k > 0.0 && *k < 1.0;
    let k2 = args.get_where("k2", "a coupling coefficient in (0,1)", coupling)?;
    let k2 = k2.unwrap_or(0.03);
    let n = args
        .get_where("wavelengths", "a wavelength count >= 1", at_least_one)?
        .unwrap_or(21);
    let laser_mw = args.get_parsed_or("laser-mw", 2.0f64, "a power in mW")?;
    let params = OpticalParams::paper();
    let ring = Microring::with_k2(&params, k2);
    let model = PrecisionModel::paper();
    let noise_bits = model.noise_limited_bits(n, laser_mw * 1e-3);
    let xtalk = model.crosstalk_limited_levels(&ring, n);
    let combined = model.combined_levels(&ring, n, laser_mw * 1e-3);
    Ok(format!(
        "ring: k²={k2}, FSR {:.2} nm, FWHM {:.3} nm, finesse {:.0}, bandwidth {:.1} GHz\n\
         at {n} wavelengths, {laser_mw} mW/channel at the PD:\n\
           noise-limited:     {:.2} bits\n\
           crosstalk-limited: {:.2} bits ({:.2} with negative rail)\n\
           combined:          {:.2} bits ({:.2} with negative rail)\n",
        ring.fsr() * 1e9,
        ring.fwhm() * 1e9,
        ring.finesse(),
        ring.bandwidth_hz() / 1e9,
        noise_bits,
        xtalk.log2(),
        PrecisionModel::with_negative_rail(xtalk).log2(),
        combined.log2(),
        PrecisionModel::with_negative_rail(combined).log2(),
    ))
}

/// `albireo trace [...]`
pub fn trace(args: &Args) -> Result<String, CliError> {
    let dim = |name, default| -> Result<usize, ArgError> {
        Ok(args
            .get_where(name, "a positive count", at_least_one)?
            .unwrap_or(default))
    };
    let (rows, cols, channels) = (dim("rows", 1)?, dim("cols", 12)?, dim("channels", 9)?);
    let chip = chip_from(args)?;
    let cycles = trace_kernel(&chip, 0, rows, cols, channels);
    let mut out = String::new();
    for c in cycles.iter().take(24) {
        out.push_str(&format!("{c}\n"));
    }
    if cycles.len() > 24 {
        out.push_str(&format!("... ({} more cycles)\n", cycles.len() - 24));
    }
    let s = summarize(&cycles);
    out.push_str(&format!(
        "{} cycles, {} outputs, {} partial updates, {} writebacks\n",
        s.cycles, s.outputs_written, s.partial_updates, s.writebacks
    ));
    Ok(out)
}

/// `albireo sweep --param ... --values ...`
pub fn sweep(args: &Args) -> Result<String, CliError> {
    let param = args
        .get("param")
        .ok_or(ArgError::MissingOption("param".into()))?;
    let values: Vec<usize> = args
        .get_list("values", "comma-separated integers")?
        .ok_or(ArgError::MissingOption("values".into()))?;
    let network = parse_network(args.get_or("network", "vgg16"))?;
    let estimate = args.get_parsed_or("estimate", TechnologyEstimate::Conservative, "C, M or A")?;
    let points = match param {
        "ng" => sweep_ng(&values, estimate, &network),
        "nd" => sweep_nd(&values, estimate, &network),
        "nu" => sweep_nu(&values, estimate, &network),
        other => {
            return Err(CliError::Unknown(format!(
                "unknown sweep parameter `{other}` (try: ng, nd, nu)"
            )))
        }
    };
    if args.flag("json") {
        let rows = points.iter().map(|p| {
            Obj::new()
                .field("design", &p.label)
                .field("power_w", num(p.power_w))
                .field("area_mm2", num(p.area_mm2))
                .field("latency_s", Fixed(p.latency_s, 9))
                .field("edp_mj_ms", num(p.edp_mj_ms))
                .field("precision_bits", num(p.precision_bits))
        });
        return Ok(json::rows(rows) + "\n");
    }
    let rows: Vec<Vec<String>> = points
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{:.2}", p.power_w),
                format!("{:.0}", p.area_mm2),
                format_seconds(p.latency_s),
                format!("{:.2}", p.edp_mj_ms),
                format!("{:.2}", p.precision_bits),
            ]
        })
        .collect();
    Ok(format_table(
        &[
            "design",
            "power (W)",
            "area (mm²)",
            "latency",
            "EDP (mJ·ms)",
            "bits",
        ],
        &rows,
    ))
}

/// `albireo bench [--thread-counts A,B,C] [--target-ms N] [--out FILE]` —
/// the parallel-scaling benchmark; emits the `BENCH_parallel.json` schema.
pub fn bench(args: &Args) -> Result<String, CliError> {
    use albireo_bench::sweep::{run_parallel_sweep, SweepOptions};
    let mut options = SweepOptions::default();
    if let Some(counts) = args.get_list::<usize>("thread-counts", "comma-separated integers")? {
        if counts.is_empty() {
            return Err(CliError::Unknown(
                "--thread-counts must not be empty".into(),
            ));
        }
        options.thread_counts = counts;
    }
    options.target_ms = args.get_parsed_or("target-ms", options.target_ms, "a duration in ms")?;
    let report = run_parallel_sweep(&options);
    let json = report.to_json();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "wrote {path}: best whole-sweep speedup {:.2}x, deterministic: {}\n",
                report.best_total_speedup(),
                report.all_deterministic()
            ))
        }
        None => Ok(json),
    }
}

/// The `--networks` list as an equal-weight mix over `models`, matched
/// by name ignoring case; `accept` vets each network against the mix so
/// far (`serve` checks fleet support, `plan` rejects repeats).
fn network_mix(
    args: &Args,
    models: &[Model],
    accept: impl Fn(&str, usize, &[(usize, f64)]) -> Result<(), CliError>,
) -> Result<Vec<(usize, f64)>, CliError> {
    let mut mix = Vec::new();
    for name in args.get_or("networks", "alexnet").split(',').map(str::trim) {
        if name.is_empty() {
            continue;
        }
        let Some(idx) = models
            .iter()
            .position(|m| m.name().eq_ignore_ascii_case(name))
        else {
            let offered: Vec<&str> = models.iter().map(Model::name).collect();
            return Err(CliError::Unknown(format!(
                "unknown network `{name}` (try: {})",
                offered.join(", ")
            )));
        };
        accept(name, idx, &mix)?;
        mix.push((idx, 1.0));
    }
    if mix.is_empty() {
        return Err(CliError::Unknown("--networks names no network".into()));
    }
    Ok(mix)
}

/// Parses the shared arrival-process flags — `--arrival` plus its
/// shape parameters (`--burst`, `--amplitude`/`--period`,
/// `--spike*`) or `--trace-jsonl` — used by both `serve` and `plan`.
fn parse_arrival(args: &Args, rate: f64) -> Result<albireo_runtime::ArrivalProcess, CliError> {
    use albireo_runtime::ArrivalProcess;

    if let Some(path) = args.get("trace-jsonl") {
        if !std::path::Path::new(path).is_file() {
            return Err(CliError::Unknown(format!(
                "--trace-jsonl file `{path}` does not exist"
            )));
        }
        return Ok(ArrivalProcess::TraceFile { path: path.into() });
    }
    let shape = |name: &str, default: f64| args.get_parsed_or(name, default, "a number");
    let process = match args.get_or("arrival", "poisson") {
        "poisson" => ArrivalProcess::Poisson { rate_rps: rate },
        "bursty" => ArrivalProcess::Bursty {
            rate_rps: rate,
            burst: shape("burst", 4.0)?,
            on_s: 0.01,
            off_s: 0.04,
        },
        "diurnal" => ArrivalProcess::Diurnal {
            rate_rps: rate,
            amplitude: shape("amplitude", 0.5)?,
            period_s: shape("period", 1.0)?,
        },
        "flash" => ArrivalProcess::FlashCrowd {
            rate_rps: rate,
            spike: shape("spike", 8.0)?,
            at_s: shape("spike-at", 0.05)?,
            decay_s: shape("spike-decay", 0.1)?,
        },
        other => {
            return Err(CliError::Unknown(format!(
                "unknown arrival process `{other}` (try: poisson, bursty, diurnal, flash)"
            )))
        }
    };
    process.validate()?;
    Ok(process)
}

/// `albireo serve [...]` — run the multi-chip serving simulation.
pub fn serve(args: &Args) -> Result<String, CliError> {
    use albireo_runtime::{
        replicate, resume_checkpointed, simulate_checkpointed, simulate_observed,
        trace_track_names, AdmissionControl, AlertPolicy, AutoscalePolicy, BatchPolicy, ClassSpec,
        FaultSpec, FleetConfig, ServeConfig, ServeOutcome, SimSnapshot, Workload,
    };

    let requests = args
        .get_where("requests", "a request count >= 1", at_least_one)?
        .unwrap_or(1000);
    let seed = args.get_parsed_or("seed", 42u64, "a seed")?;
    let rate = args
        .get_where("rate", "a positive rate in requests/s", positive)?
        .unwrap_or(2000.0);
    let replicas = args
        .get_where("replicas", "a replica count >= 1", at_least_one)?
        .unwrap_or(1);

    // The serving model table: the paper's four benchmarks at indices
    // 0–3 (so existing mixes, goldens, and digests are unchanged) plus
    // the dense extension workloads the winograd/gemm chips open up.
    let models = zoo::serving_models();
    let fleet = FleetConfig::parse(args.get_or("fleet", "albireo_9:C,albireo_27:C"), models)?;
    let mix = network_mix(args, &fleet.models, |name, idx, _| {
        if fleet.supports(&fleet.models[idx]) {
            return Ok(());
        }
        Err(CliError::Unknown(format!(
            "no chip in fleet `{}` supports network `{name}` \
             (reported-number chips only serve their published benchmarks; \
             gemm chips only serve dense/pointwise networks)",
            fleet.label()
        )))
    })?;

    // Multi-tenant request classes: `--classes name:weight[:slo_ms],...`
    // plus `--slo MS` as the default target (alone it wraps all traffic
    // in one `default` class).
    let default_slo = args.get_where("slo", "a positive latency in ms", positive)?;
    let classes = match args.get("classes") {
        Some(list) => ClassSpec::parse_list(list, default_slo)?,
        None => match default_slo {
            Some(slo) => vec![ClassSpec::with_slo("default", 1.0, slo)],
            None => Vec::new(),
        },
    };

    // The per-chip flags are `fail:`/`recover:`/`degrade:` clauses of
    // the fault grammar, naming chips of this concrete fleet.
    let mut legacy = FaultSpec::none();
    for flag in ["--fail", "--recover", "--degrade"] {
        if let Some(list) = args.get(&flag[2..]) {
            legacy = legacy.with_flag(flag, list, fleet.chips.len())?;
        }
    }
    // `--faults` takes the full correlated-scenario grammar (rack
    // groups, thermal epochs, repair crews) and merges with the legacy
    // per-chip flags above.
    let correlated = args
        .get("faults")
        .map_or(Ok(FaultSpec::none()), FaultSpec::parse)?;
    let faults = legacy
        .compile(fleet.chips.len())
        .merged(correlated.compile(fleet.chips.len()));

    // Burn-rate alerting objective: `--slo-target 0.999` (the default)
    // sets the per-class SLO objective the in-sim alert rules burn
    // against; inert unless the workload defines SLO classes.
    let target = |t: &f64| (0.0..1.0).contains(t);
    let target = args.get_where("slo-target", "a fraction in [0, 1), e.g. 0.999", target)?;

    let cfg = ServeConfig {
        workload: Workload {
            process: parse_arrival(args, rate)?,
            mix,
            classes,
        },
        requests,
        seed,
        policy: BatchPolicy::parse(args.get_or("policy", "immediate"))?,
        admission: match args.get_parsed_or("queue-cap", 64, "a capacity (0 = unbounded)")? {
            0 => AdmissionControl::unbounded(),
            cap => AdmissionControl::bounded(cap),
        },
        faults,
        record_cap: args.get_parsed_or("record-cap", 0, "a per-request record cap (0 = none)")?,
        autoscale: AutoscalePolicy::parse(args.get_or("autoscale", "none"))?,
        alert: target.map_or_else(AlertPolicy::standard, AlertPolicy::with_target),
    };
    // Checkpoint/resume flags. `--checkpoint-every` runs the single
    // simulation through the checkpoint-boundary machinery; `--resume`
    // restarts one from a snapshot file written by `--checkpoint-out`.
    let checkpoint_every = args.get_where(
        "checkpoint-every",
        "a positive simulated-seconds interval",
        positive,
    )?;
    let resume_path = args.get("resume");
    let checkpoint_out = args.get("checkpoint-out");
    let report_jsonl = args.get("report-jsonl");
    let metrics_out = args.get("metrics-out");
    // Self-describing diagnostic header for traced/exported runs: the
    // full `ServeConfig` display line plus the checkpoint cadence,
    // which is a CLI-level knob living outside the config proper.
    let config_header = match checkpoint_every {
        Some(every) => format!("config: {cfg}, checkpoint every {every}s\n"),
        None => format!("config: {cfg}\n"),
    };
    let halt_after = args.get_parsed_or("halt-after-checkpoints", 0u64, "a checkpoint count")?;
    let checkpointing = checkpoint_every.is_some() || resume_path.is_some();
    if checkpointing {
        if replicas != 1 {
            return Err(CliError::Unknown(
                "checkpoint/resume drives a single simulation; drop --replicas".into(),
            ));
        }
        if args.get("trace-out").is_some() || args.get("events-out").is_some() {
            return Err(CliError::Unknown(
                "trace capture re-runs the whole simulation and cannot cross a checkpoint \
                 boundary; drop --trace-out/--events-out"
                    .into(),
            ));
        }
    } else {
        for (flag, present) in [
            ("checkpoint-out", checkpoint_out.is_some()),
            ("report-jsonl", report_jsonl.is_some()),
            ("halt-after-checkpoints", halt_after > 0),
        ] {
            if present {
                return Err(CliError::Unknown(format!(
                    "--{flag} needs --checkpoint-every (or --resume)"
                )));
            }
        }
    }

    let (reports, trace_note) = if checkpointing {
        use std::io::Write as _;
        let mut jsonl = match report_jsonl {
            Some(path) => {
                // A resumed run appends: the stream is the continuation
                // of the interrupted run's progress log.
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(resume_path.is_some())
                    .truncate(resume_path.is_none())
                    .write(true)
                    .open(path)
                    .map_err(|e| CliError::Io(format!("cannot open {path}: {e}")))?;
                Some(file)
            }
            None => None,
        };
        // Resume snapshots are parsed before the checkpoint callback is
        // built: the alert-transition JSONL stream must continue from
        // the count already written by the interrupted run, not replay
        // the log from the top.
        let resume_snapshot = match resume_path {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
                Some(SimSnapshot::parse(&text)?)
            }
            None => None,
        };
        let mut alerts_written = resume_snapshot
            .as_ref()
            .map_or(0, |s| s.alert_events().len());
        let mut metric_points: Vec<(f64, albireo_obs::MetricsSnapshot)> = Vec::new();
        let want_metrics = metrics_out.is_some();
        let mut io_err: Option<String> = None;
        let on_checkpoint = |snap: &SimSnapshot| -> bool {
            if let Some(path) = checkpoint_out {
                if let Err(e) = std::fs::write(path, snap.to_text()) {
                    io_err = Some(format!("cannot write {path}: {e}"));
                    return false;
                }
            }
            if let Some(file) = jsonl.as_mut() {
                if let Err(e) = writeln!(file, "{}", snap.progress_json()) {
                    io_err = Some(format!("cannot write progress line: {e}"));
                    return false;
                }
                for line in snap.alert_json_lines(alerts_written) {
                    if let Err(e) = writeln!(file, "{line}") {
                        io_err = Some(format!("cannot write alert line: {e}"));
                        return false;
                    }
                }
            }
            alerts_written = snap.alert_events().len();
            if want_metrics {
                metric_points.push((snap.at_s(), snap.metrics_snapshot()));
            }
            halt_after == 0 || snap.checkpoints() < halt_after
        };
        let outcome = match &resume_snapshot {
            Some(snapshot) => resume_checkpointed(
                &fleet,
                &cfg,
                snapshot,
                checkpoint_every.unwrap_or(0.0),
                on_checkpoint,
            )?,
            None => simulate_checkpointed(
                &fleet,
                &cfg,
                checkpoint_every.expect("checkpointing implies an interval"),
                on_checkpoint,
            ),
        };
        if let Some(msg) = io_err {
            return Err(CliError::Io(msg));
        }
        let metrics_note = match metrics_out {
            Some(path) => {
                std::fs::write(
                    path,
                    albireo_obs::openmetrics::render_series(&metric_points),
                )
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
                Some((
                    format!(
                        "{config_header}wrote {path}: OpenMetrics series, {} point(s)\n",
                        metric_points.len()
                    ),
                    metric_points
                        .last()
                        .map(|(_, s)| s.clone())
                        .unwrap_or_default(),
                ))
            }
            None => None,
        };
        match outcome {
            ServeOutcome::Completed(report) => (vec![*report], metrics_note),
            ServeOutcome::Halted { checkpoints, at_s } => {
                let note = checkpoint_out
                    .map(|p| format!("; resume with --resume {p}"))
                    .unwrap_or_default();
                return Ok(format!(
                    "{config_header}halted after checkpoint {checkpoints} (t={at_s}s){note}\n"
                ));
            }
        }
    } else {
        let reports = replicate(&fleet, &cfg, replicas, Parallelism::default());

        // Trace capture re-runs replica 0 (same seed, same pure function)
        // under an enabled Obs, so the replicated reports above stay
        // byte-for-byte what an untraced run produces.
        let obs = trace_obs(args);
        let trace_note = if obs.is_enabled() {
            simulate_observed(&fleet, &cfg, &obs);
            let snapshot = obs.snapshot();
            let mut note = config_header.clone();
            note.push_str(&write_trace_outputs(
                args,
                &obs,
                &trace_track_names(&fleet),
            )?);
            note.push_str(&write_metrics_out(args, &obs)?);
            Some((note, snapshot))
        } else {
            None
        };
        (reports, trace_note)
    };

    let out = if args.flag("json") {
        if reports.len() == 1 {
            match &trace_note {
                Some((_, snapshot)) => reports[0].to_json_with_metrics(snapshot),
                None => reports[0].to_json(),
            }
        } else {
            albireo_runtime::ServiceReport::to_json_array(&reports)
        }
    } else {
        let mut s = String::new();
        for (i, r) in reports.iter().enumerate() {
            if reports.len() > 1 {
                s.push_str(&format!("replica {i} (seed {}):\n", r.seed));
            }
            s.push_str(&r.render_text());
        }
        if reports.len() > 1 {
            let combined = reports
                .iter()
                .fold(0xC0FF_EE00u64, |acc, r| acc.rotate_left(13) ^ r.digest());
            s.push_str(&format!("combined digest {combined:016x}\n"));
        }
        if let Some((note, _)) = &trace_note {
            s.push_str(note);
        }
        s
    };
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &out)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "wrote {path}: {} replica(s), digest {}\n",
                reports.len(),
                reports[0].digest_hex()
            ))
        }
        None => Ok(out),
    }
}

/// `albireo plan [...]` — the capacity planner: searches chip mixes,
/// batching policies, and autoscaling policies for the minimum-energy
/// fleet that meets an SLO, scoring every candidate with the serving
/// simulator. Deterministic at any `--threads` value; `--spec` replays
/// a plan from its canonical one-line echo.
pub fn plan(args: &Args) -> Result<String, CliError> {
    use albireo_obs::Obs;
    use albireo_plan::{PlanSpec, SloSpec};
    use albireo_runtime::{AutoscalePolicy, BatchPolicy, ClassSpec, FaultSpec, Workload};

    let spec = match args.get("spec") {
        Some(line) => {
            // The spec line fixes the whole plan; mixing it with shape
            // flags would silently ignore one side.
            let shape_flags = [
                "rate",
                "slo",
                "chips",
                "max-chips",
                "networks",
                "arrival",
                "burst",
                "amplitude",
                "period",
                "spike",
                "spike-at",
                "spike-decay",
                "classes",
                "requests",
                "screen-requests",
                "seed",
                "replicas",
                "policies",
                "queue-cap",
                "autoscale",
                "faults",
            ];
            if let Some(conflict) = shape_flags.iter().find(|f| args.get(f).is_some()) {
                return Err(CliError::Unknown(format!(
                    "--spec already fixes the whole plan; drop --{conflict}"
                )));
            }
            PlanSpec::parse(line)?
        }
        None => {
            let rate = args
                .get_where("rate", "a positive rate in requests/s", positive)?
                .unwrap_or(2000.0);
            let missing_slo = || ArgError::MissingOption("slo".into());
            let slo = SloSpec::parse(args.get("slo").ok_or_else(missing_slo)?)?;
            let requests = args
                .get_where("requests", "a request count >= 1", at_least_one)?
                .unwrap_or(2000);
            // The fleet varies per candidate, so unsupported networks
            // surface as infeasible candidates, not errors.
            let mix = network_mix(args, &zoo::serving_models(), |name, idx, mix| {
                match mix.iter().any(|&(seen, _)| seen == idx) {
                    true => Err(CliError::Unknown(format!(
                        "network `{name}` appears twice in --networks"
                    ))),
                    false => Ok(()),
                }
            })?;
            // Search-axis lists take `|` or `,` between entries.
            let list = |flag: &str, default: &'static str| {
                let raw = args.get(flag).unwrap_or(default);
                raw.split(['|', ','])
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
            };
            let spec = PlanSpec {
                workload: Workload {
                    process: parse_arrival(args, rate)?,
                    mix,
                    classes: match args.get("classes") {
                        Some(list) => ClassSpec::parse_list(list, None)?,
                        None => Vec::new(),
                    },
                },
                requests,
                screen_requests: args.get_parsed_or(
                    "screen-requests",
                    requests.min(300),
                    "a screening run length",
                )?,
                seed: args.get_parsed_or("seed", 42u64, "a seed")?,
                replicas: args.get_parsed_or("replicas", 1usize, "a replica count")?,
                slo,
                chip_kinds: list("chips", "albireo_9:C").map(str::to_string).collect(),
                max_chips: args.get_parsed_or("max-chips", 3usize, "a fleet size")?,
                policies: list("policies", "immediate")
                    .map(BatchPolicy::parse)
                    .collect::<Result<_, _>>()?,
                queue_capacity: match args.get_parsed_or(
                    "queue-cap",
                    64,
                    "a capacity (0 = unbounded)",
                )? {
                    0 => usize::MAX,
                    cap => cap,
                },
                autoscale: list("autoscale", "static")
                    .map(AutoscalePolicy::parse)
                    .collect::<Result<_, _>>()?,
                faults: args
                    .get("faults")
                    .map_or(Ok(FaultSpec::none()), FaultSpec::parse)?,
            };
            spec.validate()?;
            spec
        }
    };

    let report = albireo_plan::plan(
        &spec,
        Parallelism::global(),
        &Obs::disabled(),
        args.flag("exhaustive"),
    )?;

    if let Some(path) = args.get("csv-out") {
        std::fs::write(path, report.to_csv())
            .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
    }
    let out = if args.flag("json") {
        report.to_json()
    } else {
        report.render_text()
    };
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &out)
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "wrote {path}: {} candidate(s), {} feasible, digest {}\n",
                report.candidates_total,
                report.frontier.len(),
                report.digest_hex()
            ))
        }
        None => Ok(out),
    }
}

/// `albireo compare [...]` — every backend flows through the same
/// [`Accelerator`](albireo_baselines::Accelerator) trait, so adding a
/// backend adds a row here for free.
pub fn compare(args: &Args) -> Result<String, CliError> {
    use albireo_baselines::{reported_accelerators, Accelerator, DeapCnn, Pixel};
    use albireo_core::accel::AlbireoAccelerator;
    use albireo_modes::{GemmMode, WinogradAccelerator};

    let network = parse_network(args.get_or("network", "vgg16"))?;
    let mut accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(Pixel::paper_60w()),
        Box::new(DeapCnn::paper_60w()),
        Box::new(AlbireoAccelerator::albireo_27(
            TechnologyEstimate::Conservative,
        )),
        Box::new(WinogradAccelerator::winograd_27(
            TechnologyEstimate::Conservative,
        )),
        Box::new(GemmMode::gemm_27(TechnologyEstimate::Conservative)),
    ];
    for acc in reported_accelerators() {
        accels.push(Box::new(acc));
    }
    let rows: Vec<Vec<String>> = accels
        .iter()
        .filter(|a| a.supports(&network))
        .map(|a| {
            let c = a.cost(&network);
            vec![
                a.description(),
                format_seconds(c.latency_s),
                format_joules(c.energy_j),
                format!("{:.3}", c.edp_mj_ms()),
            ]
        })
        .collect();
    Ok(format!(
        "{}:\n{}",
        network.name(),
        format_table(&["accelerator", "latency", "energy", "EDP (mJ·ms)"], &rows)
    ))
}

/// `albireo faults [...]` — inject hardware faults into the analog engine
/// and report the error impact on a reference convolution.
pub fn faults(args: &Args) -> Result<String, CliError> {
    use albireo_core::analog::{AnalogEngine, AnalogSimConfig, Fault, FaultSet};
    use albireo_runtime::grammar::Lexer;
    use albireo_tensor::conv::{conv2d, ConvSpec};
    use albireo_tensor::{Tensor3, Tensor4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut set = FaultSet::new();
    if let Some(raw) = args.get("dead-ring") {
        let mut lx = Lexer::new("--dead-ring", raw, ',');
        set.push(Fault::DeadRing {
            row: lx.field("row R")?,
            col: lx.field("column C")?,
            output: lx.field("output O")?,
        });
        lx.end()?;
    }
    if let Some(column) = args.get_where("dead-channel", "a column index", |_| true)? {
        set.push(Fault::DeadChannel { column });
    }
    if let Some(raw) = args.get("stuck-mzm") {
        let mut lx = Lexer::new("--stuck-mzm", raw, ',');
        set.push(Fault::StuckMzm {
            row: lx.field("row R")?,
            col: lx.field("column C")?,
            weight: lx.field("weight W")?,
        });
        lx.end()?;
    }

    let chip = chip_from(args)?;
    let mut rng = StdRng::seed_from_u64(1550);
    let input = Tensor3::random_uniform(3, 12, 12, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &kernels, &spec);
    let fs = input.max_abs() * kernels.max_abs() * 27.0;

    let healthy = {
        let mut e = AnalogEngine::new(&chip, AnalogSimConfig::default());
        e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
    };
    let faulty = {
        let mut e = AnalogEngine::new(&chip, AnalogSimConfig::default());
        let n = set.len();
        e.inject_faults(set);
        let err = e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs;
        (err, n)
    };
    Ok(format!(
        "reference 3x3x3 convolution, {} fault(s) injected:\n  healthy error: {:.3e} of full scale ({:.1} effective bits)\n  faulty  error: {:.3e} of full scale ({:.1} effective bits)\n  degradation:   {:.1}x\n",
        faulty.1,
        healthy,
        -healthy.log2(),
        faulty.0,
        -faulty.0.log2(),
        faulty.0 / healthy,
    ))
}

/// `albireo experiment <name>|all`
pub fn experiment(args: &Args) -> Result<String, CliError> {
    let name = args
        .positionals()
        .first()
        .map(String::as_str)
        .unwrap_or("all");
    if name == "all" {
        return Ok(albireo_bench::all_experiments());
    }
    match albireo_bench::EXPERIMENTS.iter().find(|e| e.0 == name) {
        Some((_, _, run)) => Ok(run()),
        None => Err(CliError::Unknown(format!(
            "unknown experiment `{name}` (try: all, {})",
            albireo_bench::EXPERIMENTS
                .iter()
                .map(|e| e.0)
                .collect::<Vec<&str>>()
                .join(", ")
        ))),
    }
}

/// Dispatches a subcommand, returning its printable output.
/// `albireo perf-diff <old.json> <new.json> [--threshold PCT]` — the
/// perf-regression gate: compares two performance JSON files
/// (`BENCH_*.json` or `albireo.profile/v1` reports) metric by metric
/// and exits 3 when any directional metric regresses past the
/// threshold (default 10%).
pub fn perf_diff(args: &Args) -> Result<String, CliError> {
    let pos = args.positionals();
    let [old_path, new_path] = pos else {
        return Err(CliError::Unknown(
            "perf-diff needs exactly two files: <old.json> <new.json>".into(),
        ));
    };
    let threshold: f64 = args
        .get_or("threshold", "10")
        .parse()
        .map_err(|_| CliError::Unknown("--threshold needs a percentage".into()))?;
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))
    };
    let diff =
        albireo_bench::perfdiff::PerfDiff::compare(&read(old_path)?, &read(new_path)?, threshold)?;
    if diff.rows.is_empty() {
        return Err(CliError::Unknown(format!(
            "no comparable performance metrics between {old_path} and {new_path}"
        )));
    }
    let text = diff.render_text();
    if diff.regressions().next().is_some() {
        return Err(CliError::Gate(format!(
            "performance regression: {old_path} -> {new_path}\n{text}"
        )));
    }
    Ok(text)
}

pub fn dispatch(command: &str, args: &Args) -> Result<String, CliError> {
    if args.get("threads").is_some() {
        let threads = args.get_parsed_or("threads", 0usize, "a thread count (0 = auto)")?;
        Parallelism::set_global(Parallelism::with_threads(threads));
    }
    // `--profile <path>` wraps any command in the wall-clock profiler
    // and writes the `albireo.profile/v1` phase report on success. The
    // profiler reads the host clock, so the report itself is not
    // deterministic — but it never touches simulation state, digests,
    // or the command's own output.
    let profile_out = args.get("profile").map(str::to_string);
    if profile_out.is_some() {
        albireo_obs::profile::reset();
        albireo_obs::profile::set_enabled(true);
    }
    let result = dispatch_inner(command, args);
    if let Some(path) = profile_out {
        albireo_obs::profile::set_enabled(false);
        let report = albireo_obs::profile::take_report();
        if result.is_ok() {
            std::fs::write(&path, report.to_json())
                .map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))?;
        }
    }
    result
}

fn dispatch_inner(command: &str, args: &Args) -> Result<String, CliError> {
    match command {
        "networks" => Ok(networks()),
        "evaluate" => evaluate(args),
        "power" => power(args),
        "area" => area(args),
        "precision" => precision(args),
        "trace" => trace(args),
        "sweep" => sweep(args),
        "compare" => compare(args),
        "faults" => faults(args),
        "experiment" => experiment(args),
        "bench" => bench(args),
        "serve" => serve(args),
        "plan" => plan(args),
        "perf-diff" => perf_diff(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Unknown(format!(
            "unknown command `{other}`; run `albireo help`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::parse(list.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn networks_lists_all_four() {
        let out = networks();
        for name in ["AlexNet", "VGG16", "ResNet18", "MobileNet"] {
            assert!(out.contains(name));
        }
    }

    #[test]
    fn networks_lists_dense_extensions() {
        let out = networks();
        assert!(out.contains("MLP-Mixer"), "{out}");
        assert!(out.contains("Transformer-Enc"), "{out}");
    }

    #[test]
    fn evaluate_prints_dataflow_comparison() {
        let out = evaluate(&args(&["alexnet"])).unwrap();
        assert!(out.contains("Dataflow comparison"), "{out}");
        assert!(out.contains("depth-first"), "{out}");
        assert!(out.contains("weight-stationary"), "{out}");
        assert!(out.contains("energy delta"), "{out}");
    }

    #[test]
    fn evaluate_resolves_dense_network_aliases() {
        for name in ["mlp-mixer", "mixer", "transformer", "transformer-enc"] {
            let out = evaluate(&args(&[name])).unwrap();
            assert!(out.contains("latency"), "{name}: {out}");
        }
    }

    #[test]
    fn evaluate_happy_path() {
        let out = evaluate(&args(&["vgg16", "--estimate", "m", "--ng", "27"])).unwrap();
        assert!(out.contains("VGG16"));
        assert!(out.contains("Albireo-M"));
        assert!(out.contains("Ng=27"));
    }

    #[test]
    fn evaluate_per_layer_listing() {
        let out = evaluate(&args(&["alexnet", "--per-layer", "3"])).unwrap();
        assert!(out.contains("layer"));
        assert!(out.lines().count() > 5);
    }

    #[test]
    fn evaluate_unknown_network() {
        let err = evaluate(&args(&["lenet"])).unwrap_err();
        assert!(err.to_string().contains("lenet"));
    }

    #[test]
    fn power_reports_total() {
        let out = power(&args(&["--estimate", "conservative"])).unwrap();
        assert!(out.contains("22.7"), "{out}");
    }

    #[test]
    fn area_reports_total() {
        let out = area(&args(&[])).unwrap();
        assert!(out.contains("125.1"), "{out}");
    }

    #[test]
    fn precision_defaults_to_paper_point() {
        let out = precision(&args(&[])).unwrap();
        assert!(out.contains("k²=0.03"));
        assert!(out.contains("crosstalk-limited"));
    }

    #[test]
    fn precision_rejects_bad_k2() {
        assert!(precision(&args(&["--k2", "2.0"])).is_err());
        assert!(precision(&args(&["--wavelengths", "0"])).is_err());
    }

    #[test]
    fn trace_shows_writebacks() {
        let out = trace(&args(&["--rows", "1", "--cols", "5", "--channels", "9"])).unwrap();
        assert!(out.contains("write"));
        assert!(out.contains("3 cycles"));
    }

    #[test]
    fn sweep_requires_param_and_values() {
        assert!(sweep(&args(&["--values", "3,9"])).is_err());
        assert!(sweep(&args(&["--param", "ng"])).is_err());
        let out = sweep(&args(&["--param", "ng", "--values", "3,9"])).unwrap();
        assert!(out.contains("Ng=3"));
        assert!(out.contains("Ng=9"));
    }

    #[test]
    fn sweep_rejects_unknown_param() {
        let err = sweep(&args(&["--param", "nz", "--values", "1"])).unwrap_err();
        assert!(err.to_string().contains("nz"));
    }

    #[test]
    fn compare_includes_all_baselines() {
        let out = compare(&args(&["--network", "alexnet"])).unwrap();
        for name in [
            "PIXEL",
            "DEAP-CNN",
            "Albireo-27",
            "Eyeriss",
            "ENVISION",
            "UNPU",
        ] {
            assert!(out.contains(name), "missing {name} in {out}");
        }
    }

    #[test]
    fn compare_includes_operating_modes() {
        // Winograd supports every network (direct fallback); the GEMM
        // mode only appears for dense/pointwise networks — compare's
        // supports() filter hides it on spatial CNNs.
        let cnn = compare(&args(&["--network", "vgg16"])).unwrap();
        assert!(cnn.contains("Winograd"), "{cnn}");
        assert!(!cnn.contains("GEMM"), "{cnn}");
        let dense = compare(&args(&["--network", "mlp-mixer"])).unwrap();
        assert!(dense.contains("GEMM"), "{dense}");
        assert!(dense.contains("Winograd"), "{dense}");
    }

    #[test]
    fn serve_rejects_fleet_that_cannot_serve_the_mix() {
        // A gemm-only fleet has no chip that can schedule AlexNet's
        // spatial convolutions: a typed usage error (exit 2), no panic.
        let err = serve(&args(&[
            "--fleet",
            "gemm:C",
            "--networks",
            "alexnet",
            "--requests",
            "10",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("supports network"), "{err}");
    }

    #[test]
    fn serve_heterogeneous_mode_fleet_serves_mixed_networks() {
        let out = serve(&args(&[
            "--fleet",
            "albireo_9:C,winograd:C,gemm:C",
            "--networks",
            "vgg16,mlp-mixer",
            "--requests",
            "60",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("goodput"), "{out}");
    }

    #[test]
    fn experiment_dispatch() {
        let out = experiment(&args(&["fig9"])).unwrap();
        assert!(out.contains("area breakdown"));
        let err = experiment(&args(&["nonsense"])).unwrap_err().to_string();
        // The hint lists every registered name, in section order.
        assert!(err.contains("try: all, table1, table2, fig3"), "{err}");
        assert!(err.ends_with("fidelity, summary)"), "{err}");
    }

    #[test]
    fn dispatch_routes_and_rejects() {
        assert!(dispatch("networks", &args(&[])).is_ok());
        assert!(dispatch("help", &args(&[])).unwrap().contains("USAGE"));
        assert!(dispatch("frobnicate", &args(&[])).is_err());
    }

    #[test]
    fn faults_command_reports_degradation() {
        let healthy = faults(&args(&[])).unwrap();
        assert!(healthy.contains("0 fault(s)"));
        let broken = faults(&args(&["--dead-channel", "1"])).unwrap();
        assert!(broken.contains("1 fault(s)"));
        assert!(broken.contains("degradation"));
    }

    #[test]
    fn faults_command_validates_triples() {
        assert!(faults(&args(&["--dead-ring", "1,2"])).is_err());
        assert!(faults(&args(&["--stuck-mzm", "1,2"])).is_err());
        assert!(faults(&args(&["--dead-ring", "1,2,3"])).is_ok());
        assert!(faults(&args(&["--stuck-mzm", "0,0,0.5"])).is_ok());
    }

    #[test]
    fn faults_command_rejects_bad_dead_channel() {
        let err = faults(&args(&["--dead-channel", "broken"])).unwrap_err();
        assert!(err.to_string().contains("dead-channel"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn errors_carry_exit_codes() {
        let usage = CliError::Unknown("nope".into());
        assert_eq!(usage.exit_code(), 2);
        assert!(usage.is_usage());
        let io = CliError::Io("cannot write /nope: denied".into());
        assert_eq!(io.exit_code(), 1);
        assert!(!io.is_usage());
    }

    #[test]
    fn extension_networks_evaluate() {
        for name in ["vgg19", "resnet34", "mobilenet-0.5", "tiny"] {
            let out = evaluate(&args(&[name])).unwrap();
            assert!(out.contains("latency"), "{name}: {out}");
        }
    }

    #[test]
    fn stride_penalty_flag_changes_result() {
        let with = evaluate(&args(&["alexnet"])).unwrap();
        let without = evaluate(&args(&["alexnet", "--no-stride-penalty"])).unwrap();
        assert_ne!(with, without);
    }

    #[test]
    fn sweep_json_emits_machine_readable_points() {
        let out = sweep(&args(&["--param", "ng", "--values", "3,9", "--json"])).unwrap();
        assert!(out.trim_start().starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        for key in [
            "\"design\"",
            "\"power_w\"",
            "\"latency_s\"",
            "\"edp_mj_ms\"",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert_eq!(out.matches("\"design\"").count(), 2);
    }

    #[test]
    fn bench_command_emits_report_schema() {
        let out = bench(&args(&["--thread-counts", "1,2", "--target-ms", "1"])).unwrap();
        for key in [
            "albireo.bench.parallel/v1",
            "\"paper_grid\"",
            "\"speedup\"",
            "\"deterministic\": true",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        assert!(bench(&args(&["--thread-counts", ""])).is_err());
    }

    #[test]
    fn serve_reports_service_metrics() {
        let out = serve(&args(&["--requests", "150", "--seed", "7"])).unwrap();
        for key in [
            "p50",
            "p95",
            "p99",
            "shed",
            "goodput",
            "mJ/request",
            "util",
            "digest",
            "albireo_9",
            "albireo_27",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // Same seed, same report.
        assert_eq!(
            out,
            serve(&args(&["--requests", "150", "--seed", "7"])).unwrap()
        );
    }

    #[test]
    fn serve_json_carries_schema_and_digest() {
        let out = serve(&args(&["--requests", "80", "--json"])).unwrap();
        assert!(out.contains("albireo.bench.serving/v4"));
        assert!(out.contains("\"digest\""));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }

    #[test]
    fn serve_survives_chip_failure_mid_run() {
        let out = serve(&args(&[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--fail",
            "1@0.005",
            "--degrade",
            "0:4@0.002",
        ]))
        .unwrap();
        assert!(out.contains("OFFLINE"), "{out}");
        assert!(out.contains("PLCGs down"), "{out}");
        assert!(
            !out.contains("completed 0 "),
            "goodput must be nonzero: {out}"
        );
    }

    #[test]
    fn serve_validates_inputs() {
        assert!(serve(&args(&["--policy", "fifo"])).is_err());
        assert!(serve(&args(&["--fleet", "tpu"])).is_err());
        assert!(serve(&args(&["--networks", "lenet"])).is_err());
        assert!(serve(&args(&["--rate", "0"])).is_err());
        assert!(serve(&args(&["--fail", "7@0.1"])).is_err());
        assert!(serve(&args(&["--fail", "0"])).is_err());
        assert!(serve(&args(&["--degrade", "0:0@0.1"])).is_err());
        assert!(serve(&args(&["--arrival", "fractal"])).is_err());
        assert!(serve(&args(&["--arrival", "diurnal", "--amplitude", "1.5"])).is_err());
        assert!(serve(&args(&["--arrival", "flash", "--spike", "0.5"])).is_err());
        assert!(serve(&args(&["--trace-jsonl", "/no/such/file.jsonl"])).is_err());
        assert!(serve(&args(&["--classes", "vip"])).is_err());
        assert!(serve(&args(&["--classes", "vip:-1"])).is_err());
        assert!(serve(&args(&["--classes", "vip:1:0"])).is_err());
        assert!(serve(&args(&["--slo", "-3"])).is_err());
        // A fleet of reported-number chips cannot serve a network outside
        // their published benchmark set.
        let err = serve(&args(&["--fleet", "eyeriss", "--networks", "resnet18"])).unwrap_err();
        assert!(err.to_string().contains("resnet18"), "{err}");
    }

    #[test]
    fn serve_production_arrival_shapes_run() {
        for extra in [
            &[
                "--arrival",
                "diurnal",
                "--amplitude",
                "0.8",
                "--period",
                "0.5",
            ][..],
            &["--arrival", "flash", "--spike", "6", "--spike-at", "0.02"][..],
        ] {
            let mut argv = vec!["--requests", "200", "--seed", "3", "--json"];
            argv.extend_from_slice(extra);
            let out = serve(&args(&argv)).unwrap();
            assert!(out.contains("\"offered\": 200"), "{out}");
            // Same seed reproduces byte-for-byte.
            assert_eq!(out, serve(&args(&argv)).unwrap());
        }
    }

    #[test]
    fn serve_classes_report_slo_attainment() {
        let argv = [
            "--requests",
            "300",
            "--rate",
            "4000",
            "--classes",
            "interactive:3:5,batch:1",
            "--json",
        ];
        let out = serve(&args(&argv)).unwrap();
        assert!(out.contains("\"interactive\""), "{out}");
        assert!(out.contains("\"batch\""), "{out}");
        assert!(out.contains("\"slo_attainment\""), "{out}");
        // Best-effort classes report null SLO fields.
        assert!(out.contains("\"slo_ms\": null"), "{out}");
        // --slo alone wraps all traffic in one `default` class.
        let out = serve(&args(&["--requests", "100", "--slo", "5", "--json"])).unwrap();
        assert!(out.contains("\"default\""), "{out}");
    }

    #[test]
    fn serve_trace_jsonl_replays_a_file() {
        let path =
            std::env::temp_dir().join(format!("albireo_cli_trace_{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"arrival_s\": 0.001}\n{\"arrival_s\": 0.002, \"network\": 0}\n{\"arrival_s\": 0.004}\n",
        )
        .unwrap();
        let path_s = path.to_str().unwrap().to_string();
        let out = serve(&args(&[
            "--trace-jsonl",
            &path_s,
            "--requests",
            "3",
            "--json",
        ]))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("\"offered\": 3"), "{out}");
        assert!(out.contains("trace_file"), "{out}");
    }

    #[test]
    fn serve_record_cap_does_not_change_output() {
        // Reports never render the record sample, so capping it must be
        // invisible to every rendering — text and JSON alike.
        let full = serve(&args(&["--requests", "120", "--json"])).unwrap();
        let capped = serve(&args(&["--requests", "120", "--record-cap", "5", "--json"])).unwrap();
        assert_eq!(full, capped);
    }

    #[test]
    fn serve_heterogeneous_fleet_end_to_end() {
        let run = |extra: &[&str]| {
            let mut argv = vec![
                "--fleet",
                "albireo_27:A, deap:M, eyeriss",
                "--networks",
                "alexnet,vgg16",
                "--requests",
                "200",
                "--seed",
                "11",
            ];
            argv.extend_from_slice(extra);
            serve(&args(&argv)).unwrap()
        };
        let out = run(&[]);
        for key in ["albireo_27_A", "deap_M", "eyeriss", "digest"] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // Deterministic across repeat runs.
        assert_eq!(out, run(&[]));
        let json = run(&["--json"]);
        assert!(json.contains("albireo.bench.serving/v4"));
    }

    #[test]
    fn serve_replicas_and_policies_run() {
        let out = serve(&args(&[
            "--requests",
            "60",
            "--replicas",
            "2",
            "--policy",
            "size:4",
            "--networks",
            "alexnet,vgg16",
        ]))
        .unwrap();
        assert!(out.contains("replica 0"));
        assert!(out.contains("replica 1"));
        assert!(out.contains("combined digest"));
        assert!(out.contains("size4"));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("albireo_cli_trace_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn serve_trace_out_writes_deterministic_chrome_trace() {
        let path = temp_path("serve_trace.json");
        let path_str = path.to_str().unwrap().to_string();
        let run = || {
            let out = serve(&args(&[
                "--requests",
                "120",
                "--seed",
                "7",
                "--trace-out",
                &path_str,
            ]))
            .unwrap();
            assert!(out.contains("trace events"), "{out}");
            assert!(out.contains("digest"), "{out}");
            std::fs::read_to_string(&path).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give byte-identical traces");
        assert!(a.starts_with("{\"traceEvents\": ["));
        assert!(a.contains("\"ph\": \"X\""), "needs complete events");
        assert!(a.contains("\"thread_name\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_events_out_writes_jsonl_stream() {
        let path = temp_path("serve_events.jsonl");
        let path_str = path.to_str().unwrap().to_string();
        let out = serve(&args(&[
            "--requests",
            "100",
            "--seed",
            "9",
            "--events-out",
            &path_str,
        ]))
        .unwrap();
        assert!(out.contains("JSONL"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 0);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"phase\": \"B\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_json_with_trace_embeds_metrics_snapshot() {
        let path = temp_path("serve_trace_json.json");
        let path_str = path.to_str().unwrap().to_string();
        let out = serve(&args(&[
            "--requests",
            "80",
            "--json",
            "--trace-out",
            &path_str,
        ]))
        .unwrap();
        assert!(out.contains("\"obs\": {"), "{out}");
        assert!(out.contains("albireo.obs/v1"));
        assert!(out.contains("serve.completed"));
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        // Without the trace flag the JSON stays unchanged.
        let plain = serve(&args(&["--requests", "80", "--json"])).unwrap();
        assert!(!plain.contains("\"obs\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_wall_clock_flag_keeps_trace_digest_stable() {
        let path = temp_path("serve_wall.json");
        let path_str = path.to_str().unwrap().to_string();
        let digest_line = |extra: &[&str]| {
            let mut argv = vec!["--requests", "60", "--seed", "3", "--trace-out", &path_str];
            argv.extend_from_slice(extra);
            let out = serve(&args(&argv)).unwrap();
            let line = out
                .lines()
                .find(|l| l.contains("trace events"))
                .unwrap()
                .to_string();
            line.split("digest ").nth(1).unwrap().to_string()
        };
        assert_eq!(digest_line(&[]), digest_line(&["--wall-clock"]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evaluate_trace_out_writes_per_layer_spans() {
        let path = temp_path("evaluate_trace.json");
        let path_str = path.to_str().unwrap().to_string();
        let out = evaluate(&args(&["alexnet", "--trace-out", &path_str])).unwrap();
        assert!(out.contains("trace events"), "{out}");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("\"layer\""));
        assert!(trace.contains("\"name\": \"engine\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn threads_option_sets_global_parallelism() {
        dispatch("networks", &args(&["--threads", "3"])).unwrap();
        assert_eq!(Parallelism::global().resolved_threads(), 3);
        Parallelism::set_global(Parallelism::auto());
        let err = dispatch("networks", &args(&["--threads", "many"])).unwrap_err();
        assert!(err.to_string().contains("many"));
    }

    #[test]
    fn plan_reports_winner_and_frontier() {
        let out = plan(&args(&[
            "--slo",
            "p99<5ms",
            "--rate",
            "8000",
            "--requests",
            "500",
            "--screen-requests",
            "120",
        ]))
        .unwrap();
        for key in ["winner:", "rank", "mJ/req", "pareto", "feasible"] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // The 8000 rps AlexNet stream needs two Albireo-9 chips; three
        // only add idle power.
        assert!(out.contains("albireo_9_C+albireo_9_C "), "{out}");
    }

    #[test]
    fn plan_json_carries_schema_and_digest() {
        let argv = [
            "--slo",
            "p99<5ms",
            "--rate",
            "8000",
            "--requests",
            "400",
            "--screen-requests",
            "100",
            "--json",
        ];
        let out = plan(&args(&argv)).unwrap();
        assert!(out.contains("albireo.plan/v1"), "{out}");
        assert!(out.contains("\"digest\""), "{out}");
        assert!(out.contains("\"frontier\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        // Same flags, same plan, byte-for-byte.
        assert_eq!(out, plan(&args(&argv)).unwrap());
    }

    #[test]
    fn plan_spec_flag_replays_the_canonical_echo() {
        let flags = plan(&args(&[
            "--slo",
            "p99<6ms",
            "--rate",
            "7000",
            "--requests",
            "300",
            "--screen-requests",
            "80",
            "--json",
        ]))
        .unwrap();
        // The emitted spec line reproduces the identical plan via --spec.
        let spec_line = flags
            .lines()
            .find(|l| l.contains("\"spec\""))
            .and_then(|l| l.split('"').nth(3))
            .unwrap()
            .to_string();
        let replay = plan(&args(&["--spec", &spec_line, "--json"])).unwrap();
        assert_eq!(flags, replay);
    }

    #[test]
    fn plan_spec_conflicts_with_shape_flags() {
        let err = plan(&args(&["--spec", "slo=p99<5ms", "--rate", "9000"])).unwrap_err();
        assert!(err.to_string().contains("drop --rate"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn plan_validates_inputs() {
        // --slo is mandatory: a planner without a target has no feasible set.
        let err = plan(&args(&[])).unwrap_err();
        assert!(err.to_string().contains("--slo"), "{err}");
        assert!(plan(&args(&["--slo", "p99<5ms", "--rate", "0"])).is_err());
        assert!(plan(&args(&["--slo", "p99<5ms", "--networks", "lenet"])).is_err());
        assert!(plan(&args(&[
            "--slo",
            "p99<5ms",
            "--networks",
            "alexnet,alexnet"
        ]))
        .is_err());
        assert!(plan(&args(&["--slo", "p99<5ms", "--chips", "tpu"])).is_err());
        assert!(plan(&args(&["--slo", "p99<5ms", "--autoscale", "magic"])).is_err());
        assert!(plan(&args(&["--slo", "p99<5ms", "--policies", "fifo"])).is_err());
        assert!(plan(&args(&["--slo", "p99<5ms", "--requests", "0"])).is_err());
        // Aliased chip kinds cannot be repeated into multiset fleets.
        let err = plan(&args(&["--slo", "p99<5ms", "--chips", "edge=albireo_9:C"])).unwrap_err();
        assert!(err.to_string().contains("alias"), "{err}");
    }

    #[test]
    fn serve_checkpoint_resume_reproduces_the_report() {
        let ckpt = temp_path("serve_ckpt.snapshot");
        let ckpt_s = ckpt.to_str().unwrap().to_string();
        let base = [
            "--requests",
            "300",
            "--rate",
            "4000",
            "--seed",
            "7",
            "--fail",
            "1@0.01",
            "--json",
        ];
        let baseline = serve(&args(&base)).unwrap();
        // Checkpointing to completion changes nothing in the report.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--checkpoint-every", "0.01", "--checkpoint-out", &ckpt_s]);
        assert_eq!(baseline, serve(&args(&argv)).unwrap());
        // Halt mid-run, then resume from the snapshot: byte-identical.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&[
            "--checkpoint-every",
            "0.01",
            "--checkpoint-out",
            &ckpt_s,
            "--halt-after-checkpoints",
            "2",
        ]);
        let halted = serve(&args(&argv)).unwrap();
        assert!(halted.contains("halted after checkpoint 2"), "{halted}");
        assert!(halted.contains("--resume"), "{halted}");
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--resume", &ckpt_s]);
        assert_eq!(baseline, serve(&args(&argv)).unwrap());
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn serve_report_jsonl_streams_progress() {
        let path = temp_path("serve_progress.jsonl");
        let p = path.to_str().unwrap().to_string();
        serve(&args(&[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--checkpoint-every",
            "0.01",
            "--report-jsonl",
            &p,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() >= 2, "{text}");
        for line in text.lines() {
            assert!(line.contains("albireo.serve.progress/v1"), "{line}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"offered\""), "{line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_faults_spec_matches_the_legacy_flags() {
        let legacy = serve(&args(&[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--fail",
            "1@0.005",
            "--degrade",
            "0:4@0.002",
            "--json",
        ]))
        .unwrap();
        let spec = serve(&args(&[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--faults",
            "fail:1@0.005,degrade:0@0.002:4",
            "--json",
        ]))
        .unwrap();
        assert_eq!(legacy, spec);
        // Correlated clauses (rack + repair crews) run end to end.
        let out = serve(&args(&[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--faults",
            "rack:0-1@0.005,crews:1:0.01:7",
            "--json",
        ]))
        .unwrap();
        assert!(out.contains("\"offered\": 200"), "{out}");
    }

    #[test]
    fn serve_checkpoint_flags_validate() {
        assert!(serve(&args(&["--checkpoint-every", "0"])).is_err());
        assert!(serve(&args(&["--checkpoint-every", "0.01", "--replicas", "2"])).is_err());
        // The dependent flags are rejected without a checkpoint cadence.
        assert!(serve(&args(&["--checkpoint-out", "/tmp/x"])).is_err());
        assert!(serve(&args(&["--report-jsonl", "/tmp/x"])).is_err());
        assert!(serve(&args(&["--halt-after-checkpoints", "1"])).is_err());
        assert!(serve(&args(&["--resume", "/no/such/snapshot"])).is_err());
        assert!(serve(&args(&["--faults", "melt:0@1"])).is_err());
        let tr = temp_path("ckpt_trace.json");
        let trs = tr.to_str().unwrap().to_string();
        assert!(serve(&args(&["--checkpoint-every", "0.01", "--trace-out", &trs])).is_err());
    }

    #[test]
    fn plan_faults_flag_threads_into_the_spec() {
        let out = plan(&args(&[
            "--slo",
            "p99<5ms",
            "--rate",
            "8000",
            "--requests",
            "600",
            "--screen-requests",
            "150",
            "--faults",
            "fail:0@0",
            "--json",
        ]))
        .unwrap();
        assert!(out.contains(";faults=fail:0@0\""), "{out}");
        let err = plan(&args(&["--spec", "slo=p99<5ms", "--faults", "fail:0@0"])).unwrap_err();
        assert!(err.to_string().contains("drop --faults"), "{err}");
        assert!(plan(&args(&["--slo", "p99<5ms", "--faults", "melt:0@1"])).is_err());
    }

    #[test]
    fn serve_rejects_duplicate_aliases_and_class_names() {
        let err = serve(&args(&["--fleet", "edge=albireo_9:C,edge=albireo_27:C"])).unwrap_err();
        assert!(err.to_string().contains("duplicate chip alias"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = serve(&args(&["--classes", "vip:2:5,vip:1"])).unwrap_err();
        assert!(err.to_string().contains("duplicate class name"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn serve_slo_target_validates_and_reports_alerts() {
        for bad in ["1.0", "-0.1", "nan", "many"] {
            let err = serve(&args(&["--slo-target", bad])).unwrap_err();
            assert!(err.to_string().contains("--slo-target"), "{err}");
        }
        // An overloaded bounded queue sheds SLO traffic: alerts fire and
        // the v4 report carries the transition log.
        let argv = [
            "--requests",
            "600",
            "--rate",
            "60000",
            "--seed",
            "7",
            "--queue-cap",
            "16",
            "--classes",
            "vip:3:5,batch:1",
            "--json",
        ];
        let out = serve(&args(&argv)).unwrap();
        assert!(out.contains("\"alerts\": {"), "{out}");
        assert!(out.contains("\"type\": \"fire\""), "{out}");
        assert!(out.contains("\"alerts_fired\""), "{out}");
        // The alert objective never moves the run digest.
        let digest_of = |extra: &[&str]| {
            let mut v = argv.to_vec();
            v.extend_from_slice(extra);
            let out = serve(&args(&v)).unwrap();
            let at = out.find("\"digest\"").unwrap();
            out[at..].lines().next().unwrap().to_string()
        };
        assert_eq!(digest_of(&[]), digest_of(&["--slo-target", "0.9"]));
    }

    #[test]
    fn serve_report_jsonl_streams_alert_transitions_once() {
        let path = temp_path("serve_alerts.jsonl");
        let p = path.to_str().unwrap().to_string();
        serve(&args(&[
            "--requests",
            "600",
            "--rate",
            "60000",
            "--seed",
            "7",
            "--queue-cap",
            "16",
            "--classes",
            "vip:3:5,batch:1",
            "--checkpoint-every",
            "0.002",
            "--report-jsonl",
            &p,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let alert_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("albireo.serve.alert/v1"))
            .collect();
        assert!(!alert_lines.is_empty(), "{text}");
        assert!(alert_lines[0].contains("\"class\": \"vip\""), "{text}");
        assert!(alert_lines[0].contains("\"type\": \"fire\""), "{text}");
        // Each transition appears exactly once even though every
        // snapshot carries the full log.
        let mut seen = std::collections::HashSet::new();
        for line in &alert_lines {
            let key = line.split("\"checkpoint\"").nth(1).map(|rest| {
                let tail = rest.split_once(',').map(|(_, t)| t).unwrap_or(rest);
                tail.to_string()
            });
            assert!(seen.insert(key), "duplicate transition: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_metrics_out_writes_openmetrics() {
        let path = temp_path("serve_metrics.txt");
        let p = path.to_str().unwrap().to_string();
        let base = ["--requests", "200", "--rate", "4000", "--seed", "7"];
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--metrics-out", &p]);
        let out = serve(&args(&argv)).unwrap();
        assert!(out.contains("config: poisson arrivals"), "{out}");
        assert!(out.contains("OpenMetrics"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE serve_completed counter"), "{text}");
        assert!(text.ends_with("# EOF\n"), "{text}");
        // The exported file never perturbs the report itself.
        let baseline = serve(&args(&base)).unwrap();
        let again = serve(&args(&argv)).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("config:") && !l.starts_with("wrote "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&baseline), strip(&again));
        // Checkpointed runs export a timestamped series instead.
        let mut argv = base.to_vec();
        argv.extend_from_slice(&["--checkpoint-every", "0.01", "--metrics-out", &p]);
        let out = serve(&args(&argv)).unwrap();
        assert!(out.contains("OpenMetrics series"), "{out}");
        assert!(out.contains("checkpoint every 0.01s"), "{out}");
        let series = std::fs::read_to_string(&path).unwrap();
        assert!(series.contains("serve_offered_total"), "{series}");
        // Timestamped samples: `name value ts` triplets.
        assert!(
            series
                .lines()
                .any(|l| l.starts_with("serve_offered_total ")
                    && l.split_whitespace().count() == 3),
            "{series}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_flag_writes_wall_clock_report() {
        let path = temp_path("evaluate_profile.json");
        let p = path.to_str().unwrap().to_string();
        let out = dispatch(
            "evaluate",
            &args(&["tiny", "--profile", &p, "--threads", "2"]),
        )
        .unwrap();
        assert!(out.contains("on Albireo"), "{out}");
        let report = std::fs::read_to_string(&path).unwrap();
        assert!(
            report.contains("\"schema\": \"albireo.profile/v1\""),
            "{report}"
        );
        assert!(report.contains("\"attributed_fraction\""), "{report}");
        // The analytic evaluate path runs through the instrumented
        // parallel fan-out (tensor/photonics phases belong to the
        // numeric bench workloads, not this command).
        assert!(report.contains("parallel."), "{report}");
        // Profiling never changes the command's own output.
        let plain = dispatch("evaluate", &args(&["tiny", "--threads", "2"])).unwrap();
        assert_eq!(out, plain);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perf_diff_exit_code_contract() {
        let old = temp_path("perf_old.json");
        let new = temp_path("perf_new.json");
        let o = old.to_str().unwrap().to_string();
        let n = new.to_str().unwrap().to_string();
        let row = |wall: f64| {
            format!(
                "{{\"rows\": [{{\"name\": \"analog_conv\", \"wall_ms\": {wall}, \
                 \"speedup\": 3.0}}]}}"
            )
        };
        std::fs::write(&old, row(100.0)).unwrap();
        std::fs::write(&new, row(100.0)).unwrap();
        // Identical inputs pass (exit 0).
        let out = perf_diff(&args(&[&o, &n])).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");
        // A 2x slowdown trips the gate with exit code 3.
        std::fs::write(&new, row(200.0)).unwrap();
        let err = perf_diff(&args(&[&o, &n, "--threshold", "25"])).unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(!err.is_usage());
        assert!(err.to_string().contains("REGRESSION"), "{err}");
        assert!(err.to_string().contains("wall_ms"), "{err}");
        // Usage and I/O failures stay distinguishable.
        assert_eq!(perf_diff(&args(&[&o])).unwrap_err().exit_code(), 2);
        assert_eq!(
            perf_diff(&args(&[&o, "/nonexistent/x.json"]))
                .unwrap_err()
                .exit_code(),
            1
        );
        std::fs::write(&new, "{}").unwrap();
        assert_eq!(perf_diff(&args(&[&o, &n])).unwrap_err().exit_code(), 2);
        std::fs::remove_file(&old).ok();
        std::fs::remove_file(&new).ok();
    }
}
