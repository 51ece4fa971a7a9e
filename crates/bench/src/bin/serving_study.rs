//! Runs the serving studies and writes their three artifacts:
//!
//! * `results/serving_study.csv` — one row per (cell × replica), covering
//!   the pinned golden grid ([`StudyOptions::golden`]) followed by the
//!   mixed photonic/electronic grid ([`StudyOptions::heterogeneous`]);
//! * `results/golden_serving_metrics.csv` — the golden grid alone,
//!   compared byte-exactly by `tests/serving_golden.rs`;
//! * `BENCH_serving.json` — the machine-readable study digest over both
//!   grids (schema `albireo.bench.serving_study/v1`).
//!
//! ```text
//! cargo run --release -p albireo-bench --bin serving_study -- \
//!     [--out-dir results] [--json PATH] [--threads N]
//! ```
//!
//! The study is bit-deterministic at any `--threads` value; the combined
//! digest printed at the end is the value to compare across runs.

use albireo_obs::json::{num, Fixed, Obj};
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_runtime::{
    run_serving_study, simulate, simulate_observed, ArrivalProcess, FaultScenario, FaultSpec,
    ServeConfig, StudyOptions, Workload,
};

/// Wall-clock medians for one serving scenario run with observability
/// disabled (the default path — one relaxed atomic load per site) and
/// fully enabled (spans + metrics recorded).
struct ObsOverhead {
    reps: usize,
    disabled_ms: f64,
    enabled_ms: f64,
    trace_events: usize,
}

impl ObsOverhead {
    fn ratio(&self) -> f64 {
        self.enabled_ms / self.disabled_ms
    }
}

/// Times the golden grid's heaviest cell (paper fleet, top offered rate,
/// deadline batching) with instrumentation off and on. Medians over odd
/// `reps` keep scheduler noise out of the row.
fn measure_obs_overhead(options: &StudyOptions) -> ObsOverhead {
    let fleet = &options.fleets[0];
    let cfg = ServeConfig {
        workload: Workload {
            process: ArrivalProcess::Poisson {
                rate_rps: options.rates_rps.iter().copied().fold(0.0, f64::max),
            },
            mix: options.mix.clone(),
            classes: Vec::new(),
        },
        requests: options.requests,
        seed: options.base_seed,
        policy: *options.policies.last().expect("golden grid has policies"),
        admission: options.admission,
        faults: FaultScenario::none(),
        record_cap: usize::MAX,
        autoscale: albireo_runtime::AutoscalePolicy::None,
        alert: albireo_runtime::AlertPolicy::standard(),
    };
    let reps = 9;
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let time_ms = |f: &dyn Fn()| {
        let t0 = std::time::Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e3
    };
    let disabled_ms = median(
        (0..reps)
            .map(|_| time_ms(&|| drop(simulate(fleet, &cfg))))
            .collect(),
    );
    let obs = Obs::enabled();
    let enabled_ms = median(
        (0..reps)
            .map(|_| time_ms(&|| drop(simulate_observed(fleet, &cfg, &obs))))
            .collect(),
    );
    let trace_events = obs.drain_events().len() / reps;
    ObsOverhead {
        reps,
        disabled_ms,
        enabled_ms,
        trace_events,
    }
}

/// One million-request run on the paper fleet, proving the streamed
/// engine's scale contract: bounded event-queue depth, O(1)-memory
/// percentiles, and a wall clock in seconds.
struct ServingScale {
    requests: usize,
    completed: u64,
    shed: u64,
    wall_ms: f64,
    sim_requests_per_s: f64,
    peak_event_queue: usize,
    sketch_buckets: usize,
    p50_ms: f64,
    p999_ms: f64,
    digest_hex: String,
}

fn measure_serving_scale(options: &StudyOptions) -> ServingScale {
    let fleet = &options.fleets[0];
    let mut cfg = ServeConfig::poisson(4000.0, 1_000_000, options.base_seed, 0);
    cfg.workload.mix = options.mix.clone();
    cfg.record_cap = 0;
    let t0 = std::time::Instant::now();
    let report = simulate(fleet, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ServingScale {
        requests: cfg.requests,
        completed: report.completed,
        shed: report.shed,
        wall_ms,
        sim_requests_per_s: cfg.requests as f64 / (wall_ms / 1e3),
        peak_event_queue: report.peak_event_queue,
        sketch_buckets: report.sketch_buckets,
        p50_ms: report.p50_ms,
        p999_ms: report.p999_ms,
        digest_hex: report.digest_hex(),
    }
}

/// The correlated-fault scenario the fault-scale row runs under: a rack
/// outage at t=30 s, a thermal epoch halving chip throughput over
/// t=60..90 s, and two repair crews with a 20 s mean time-to-repair.
/// Ranges are written generously and clipped to the fleet at compile
/// time, so the clause string is fleet-size independent.
const FAULT_SCALE_SPEC: &str = "rack:0-0@30,thermal:0-3@60-90:2,crews:2:20:11";

/// One million requests through the correlated-fault scenario above —
/// the availability row: what fraction of offered load completes when
/// chips fail and recover mid-run, and what the tail looks like while
/// the fleet is degraded. The offered rate is one the healthy fleet can
/// sustain (unlike the throughput-oriented scale row, which runs into
/// overload on purpose), so the availability loss here is attributable
/// to the fault scenario; the healthy run at the same rate is reported
/// alongside as the baseline. Memory stays bounded exactly as in the
/// healthy scale row (the event queue also carries the fault events,
/// whose count is fixed up front).
struct FaultScale {
    requests: usize,
    rate_rps: f64,
    fault_events: usize,
    completed: u64,
    shed: u64,
    availability: f64,
    healthy_availability: f64,
    wall_ms: f64,
    peak_event_queue: usize,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    healthy_p99_ms: f64,
    digest_hex: String,
}

fn measure_fault_scale(options: &StudyOptions) -> FaultScale {
    let fleet = &options.fleets[0];
    let rate_rps = 2000.0;
    let mut cfg = ServeConfig::poisson(rate_rps, 1_000_000, options.base_seed, 0);
    cfg.workload.mix = options.mix.clone();
    cfg.record_cap = 0;
    let healthy = simulate(fleet, &cfg);
    let spec = FaultSpec::parse(FAULT_SCALE_SPEC).expect("fault-scale spec parses");
    cfg.faults = spec.compile(fleet.chips.len());
    let fault_events = cfg.faults.events().len();
    let t0 = std::time::Instant::now();
    let report = simulate(fleet, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    FaultScale {
        requests: cfg.requests,
        rate_rps,
        fault_events,
        completed: report.completed,
        shed: report.shed,
        availability: report.completed as f64 / cfg.requests as f64,
        healthy_availability: healthy.completed as f64 / cfg.requests as f64,
        wall_ms,
        peak_event_queue: report.peak_event_queue,
        p50_ms: report.p50_ms,
        p99_ms: report.p99_ms,
        p999_ms: report.p999_ms,
        healthy_p99_ms: healthy.p99_ms,
        digest_hex: report.digest_hex(),
    }
}

fn main() {
    let mut out_dir = "results".to_string();
    let mut json_path = "BENCH_serving.json".to_string();
    let mut par = Parallelism::auto();
    let mut profile_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out-dir" => out_dir = value("--out-dir"),
            "--json" => json_path = value("--json"),
            "--profile" => profile_path = Some(value("--profile")),
            "--threads" => {
                let threads: usize = value("--threads").parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --threads value");
                    std::process::exit(2);
                });
                par = Parallelism::with_threads(threads);
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: serving_study [--out-dir DIR] [--json PATH] [--threads N] \
                     [--profile PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    if profile_path.is_some() {
        albireo_obs::profile::reset();
        albireo_obs::profile::set_enabled(true);
    }

    let golden_options = StudyOptions::golden();
    let golden = run_serving_study(&golden_options, par);
    let hetero_options = StudyOptions::heterogeneous();
    let hetero = run_serving_study(&hetero_options, par);

    // The combined report: golden rows first (so the pinned artifact is a
    // prefix of the full study), then the mixed-backend rows.
    let mut runs = golden.runs.clone();
    runs.extend(hetero.runs.iter().cloned());
    let study = albireo_runtime::ServingStudyReport {
        replicas: golden.replicas,
        runs,
    };

    // The before/after instrumentation row: disabled observability is the
    // default serve path, enabled adds span/metric recording on top.
    let overhead = measure_obs_overhead(&golden_options);

    // The scale row: one million requests through the streamed engine.
    let scale = measure_serving_scale(&golden_options);

    // The availability row: the same million requests under correlated
    // faults with repair crews.
    let fault_scale = measure_fault_scale(&golden_options);

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let study_csv = format!("{out_dir}/serving_study.csv");
    let golden_csv = format!("{out_dir}/golden_serving_metrics.csv");
    std::fs::write(&study_csv, study.to_csv()).expect("write serving_study.csv");
    std::fs::write(&golden_csv, golden.to_csv()).expect("write golden_serving_metrics.csv");
    let json = study.to_json_with(|d| {
        d.field(
            "obs_overhead",
            Obj::new()
                .field("reps", overhead.reps)
                .field("disabled_ms", Fixed(overhead.disabled_ms, 3))
                .field("enabled_ms", Fixed(overhead.enabled_ms, 3))
                .field("enabled_over_disabled", Fixed(overhead.ratio(), 4))
                .field("trace_events_per_run", overhead.trace_events),
        )
        .field(
            "serving_scale",
            Obj::new()
                .field("requests", scale.requests)
                .field("completed", scale.completed)
                .field("shed", scale.shed)
                .field("wall_ms", Fixed(scale.wall_ms, 1))
                .field("sim_requests_per_s", Fixed(scale.sim_requests_per_s, 0))
                .field("peak_event_queue", scale.peak_event_queue)
                .field("sketch_buckets", scale.sketch_buckets)
                .field("p50_ms", Fixed(scale.p50_ms, 4))
                .field("p999_ms", Fixed(scale.p999_ms, 4))
                .field("digest", &scale.digest_hex),
        )
        .field(
            "fault_scale",
            Obj::new()
                .field("requests", fault_scale.requests)
                .field("rate_rps", Fixed(fault_scale.rate_rps, 0))
                .field("faults", FAULT_SCALE_SPEC)
                .field("fault_events", fault_scale.fault_events)
                .field("completed", fault_scale.completed)
                .field("shed", fault_scale.shed)
                .field("availability", num(fault_scale.availability))
                .field(
                    "healthy_availability",
                    num(fault_scale.healthy_availability),
                )
                .field("wall_ms", Fixed(fault_scale.wall_ms, 1))
                .field("peak_event_queue", fault_scale.peak_event_queue)
                .field("p50_ms", Fixed(fault_scale.p50_ms, 4))
                .field("p99_ms", Fixed(fault_scale.p99_ms, 4))
                .field("p999_ms", Fixed(fault_scale.p999_ms, 4))
                .field("healthy_p99_ms", Fixed(fault_scale.healthy_p99_ms, 4))
                .field("digest", &fault_scale.digest_hex),
        )
    });
    std::fs::write(&json_path, json).expect("write BENCH_serving.json");

    if let Some(path) = &profile_path {
        albireo_obs::profile::set_enabled(false);
        let profile = albireo_obs::profile::take_report();
        std::fs::write(path, profile.to_json()).expect("write profile report");
        eprintln!(
            "profile: {path} attributes {:.1}% of wall time to named phases",
            profile.attributed_fraction() * 100.0
        );
    }

    println!(
        "serving study: {} golden + {} heterogeneous runs = {} total",
        golden.runs.len(),
        hetero.runs.len(),
        study.runs.len()
    );
    for run in &study.runs {
        let r = &run.report;
        println!(
            "  {:<28} {:>6.0} rps {:<16} replica {}  p50 {:.4} ms  p99 {:.4} ms  shed {:.1}%  {:.3} mJ/req",
            r.fleet_label,
            r.offered_rate_rps,
            r.policy_label,
            run.replica,
            r.p50_ms,
            r.p99_ms,
            r.shed_rate * 100.0,
            r.energy_per_request_j * 1e3
        );
    }
    println!(
        "obs overhead: disabled {:.3} ms, enabled {:.3} ms ({:.2}x, {} trace events/run, median of {})",
        overhead.disabled_ms,
        overhead.enabled_ms,
        overhead.ratio(),
        overhead.trace_events,
        overhead.reps
    );
    println!(
        "serving scale: {} requests in {:.1} ms ({:.0} req/s sim), peak event queue {}, \
         sketch buckets {}, digest {}",
        scale.requests,
        scale.wall_ms,
        scale.sim_requests_per_s,
        scale.peak_event_queue,
        scale.sketch_buckets,
        scale.digest_hex
    );
    println!(
        "fault scale: {} requests at {} rps under `{}` ({} fault events) in {:.1} ms — \
         availability {:.4} (healthy {:.4}), shed {}, p99 {:.4} ms (healthy {:.4}), \
         peak event queue {}, digest {}",
        fault_scale.requests,
        fault_scale.rate_rps,
        FAULT_SCALE_SPEC,
        fault_scale.fault_events,
        fault_scale.wall_ms,
        fault_scale.availability,
        fault_scale.healthy_availability,
        fault_scale.shed,
        fault_scale.p99_ms,
        fault_scale.healthy_p99_ms,
        fault_scale.peak_event_queue,
        fault_scale.digest_hex
    );
    println!("wrote {study_csv}, {golden_csv}, {json_path}");
    println!("combined digest {}", study.combined_digest_hex());
}
