//! `albireo serve`: the multi-chip serving simulation, plus the
//! workload options it shares with `plan`.

use super::{
    at_least_one, positive, read_file, to_out, trace_obs, write_file, write_metrics_out,
    write_trace_outputs, CliError,
};
use crate::args::Args;
use albireo_nn::{zoo, Model};
use albireo_parallel::Parallelism;

/// The `--networks` list as an equal-weight mix over `models`, matched
/// by name ignoring case; `accept` vets each network against the mix so
/// far (`serve` checks fleet support, `plan` rejects repeats).
pub(super) fn network_mix(
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
            return Err(CliError::Usage(format!(
                "unknown network `{name}` (try: {})",
                offered.join(", ")
            )));
        };
        accept(name, idx, &mix)?;
        mix.push((idx, 1.0));
    }
    if mix.is_empty() {
        return Err(CliError::Usage("--networks names no network".into()));
    }
    Ok(mix)
}

/// Parses the shared arrival-process flags — `--arrival` plus its
/// shape parameters (`--burst`, `--amplitude`/`--period`,
/// `--spike*`) or `--trace-jsonl` — used by both `serve` and `plan`.
pub(super) fn parse_arrival(
    args: &Args,
    rate: f64,
) -> Result<albireo_runtime::ArrivalProcess, CliError> {
    use albireo_runtime::ArrivalProcess;

    // `serve` reads the file up front (`Workload::check_trace_file`).
    if let Some(path) = args.get("trace-jsonl") {
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
            return Err(CliError::Usage(format!(
                "unknown arrival process `{other}` (try: poisson, bursty, diurnal, flash)"
            )))
        }
    };
    process.validate()?;
    Ok(process)
}

/// `albireo serve [...]` — run the multi-chip serving simulation.
pub(super) fn serve(args: &Args) -> Result<String, CliError> {
    use albireo_runtime::{
        replicate, resume_checkpointed, simulate_checkpointed, trace_track_names, AdmissionControl,
        AlertPolicy, AutoscalePolicy, BatchPolicy, Checkpoint, ClassSpec, FaultSpec, FleetConfig,
        ServeConfig, ServeOutcome, SimSnapshot, Workload,
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
        Err(CliError::Usage(format!(
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

    // `--faults` takes the correlated-scenario grammar (per-chip
    // fail/recover/degrade, rack groups, thermal epochs, repair crews).
    // A planner clips clauses to each candidate fleet; here the fleet is
    // fixed, so a clause naming none of its chips is a typo.
    let faults = args
        .get("faults")
        .map_or(Ok(FaultSpec::none()), FaultSpec::parse)?;
    faults.check_fleet(fleet.chips.len())?;
    let faults = faults.compile(fleet.chips.len());

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
    // A trace file is read once up front, so a bad line exits 2 here
    // instead of panicking mid-run.
    cfg.workload
        .check_trace_file(requests, fleet.models.len())?;
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
            return Err(CliError::Usage(
                "checkpoint/resume drives a single simulation; drop --replicas".into(),
            ));
        }
        if args.get("trace-out").is_some() || args.get("events-out").is_some() {
            return Err(CliError::Usage(
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
                return Err(CliError::Usage(format!(
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
                Some((path, file))
            }
            None => None,
        };
        // Resume snapshots are parsed before the checkpoint callback is
        // built: the alert-transition JSONL stream must continue from
        // the count already written by the interrupted run, not replay
        // the log from the top.
        let resume_snapshot = match resume_path {
            Some(path) => Some(Checkpoint::parse(&read_file(path)?)?),
            None => None,
        };
        let mut alerts_written = resume_snapshot.as_ref().map_or(0, Checkpoint::alerts);
        let mut metric_points: Vec<(f64, albireo_obs::MetricsSnapshot)> = Vec::new();
        let want_metrics = metrics_out.is_some();
        let mut io_err: Option<CliError> = None;
        let on_checkpoint = |snap: &SimSnapshot| -> bool {
            if let Some(path) = checkpoint_out {
                if let Err(e) = write_file(path, snap.to_text()) {
                    io_err = Some(e);
                    return false;
                }
            }
            if let Some((path, file)) = jsonl.as_mut() {
                let mut lines = std::iter::once(snap.progress_json())
                    .chain(snap.alert_json_lines(alerts_written));
                if let Err(e) = lines.try_for_each(|line| writeln!(file, "{line}")) {
                    io_err = Some(CliError::Io(format!("cannot write {path}: {e}")));
                    return false;
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
        if let Some(e) = io_err {
            return Err(e);
        }
        let metrics_note = match metrics_out {
            Some(path) => {
                write_file(
                    path,
                    albireo_obs::openmetrics::render_series(&metric_points),
                )?;
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
        // Replica 0 records into the trace handle; recording does not change
        // its report, so every report stays byte-for-byte what an untraced
        // run produces.
        let obs = trace_obs(args);
        let reports = replicate(&fleet, &cfg, replicas, Parallelism::default(), &obs);
        let trace_note = if obs.is_enabled() {
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
    to_out(args, out, |path| {
        format!(
            "wrote {path}: {} replica(s), digest {}\n",
            reports.len(),
            reports[0].digest_hex()
        )
    })
}
