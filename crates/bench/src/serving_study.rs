//! The serving benchmark behind `albireo serving-study`: the whole
//! serving study ([`run_full_serving_study`]: the pinned golden grid
//! followed by the mixed photonic/electronic grid) rendered as the
//! machine-readable digest `BENCH_serving.json` (schema
//! `albireo.bench.serving_study/v1`), plus the observability-overhead,
//! million-request scale and fault-scale rows. The study's CSVs are
//! committed artifacts, written by `albireo export-csv`.
//!
//! The study is bit-deterministic at any thread count; the combined
//! digest is the value to compare across runs.

use albireo_obs::json::{num, Fixed, Obj};
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_runtime::{
    run_full_serving_study, simulate, simulate_observed, ArrivalProcess, FaultScenario, FaultSpec,
    ServeConfig, StudyOptions, Workload,
};

/// One measured row: its JSON object and its summary line.
type Row = (Obj, String);

/// Times the golden grid's heaviest cell (paper fleet, top offered rate,
/// deadline batching) with observability disabled (the default path —
/// one relaxed atomic load per site) and fully enabled (spans + metrics
/// recorded). Medians over odd `reps` keep scheduler noise out of the
/// row.
fn obs_overhead(options: &StudyOptions) -> Row {
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
    let ratio = enabled_ms / disabled_ms;
    let json = Obj::new()
        .field("reps", reps)
        .field("disabled_ms", Fixed(disabled_ms, 3))
        .field("enabled_ms", Fixed(enabled_ms, 3))
        .field("enabled_over_disabled", Fixed(ratio, 4))
        .field("trace_events_per_run", trace_events);
    let line = format!(
        "obs overhead: disabled {disabled_ms:.3} ms, enabled {enabled_ms:.3} ms ({ratio:.2}x, \
         {trace_events} trace events/run, median of {reps})\n"
    );
    (json, line)
}

/// One million-request run on the paper fleet, proving the streamed
/// engine's scale contract: bounded event-queue depth, O(1)-memory
/// percentiles, and a wall clock in seconds.
fn serving_scale(options: &StudyOptions) -> Row {
    let fleet = &options.fleets[0];
    let mut cfg = ServeConfig::poisson(4000.0, 1_000_000, options.base_seed, 0);
    cfg.workload.mix = options.mix.clone();
    cfg.record_cap = 0;
    let t0 = std::time::Instant::now();
    let r = simulate(fleet, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let per_s = cfg.requests as f64 / (wall_ms / 1e3);
    let json = Obj::new()
        .field("requests", cfg.requests)
        .field("completed", r.completed)
        .field("shed", r.shed)
        .field("wall_ms", Fixed(wall_ms, 1))
        .field("sim_requests_per_s", Fixed(per_s, 0))
        .field("peak_event_queue", r.peak_event_queue)
        .field("sketch_buckets", r.sketch_buckets)
        .field("p50_ms", Fixed(r.p50_ms, 4))
        .field("p999_ms", Fixed(r.p999_ms, 4))
        .field("digest", r.digest_hex());
    let line = format!(
        "serving scale: {} requests in {wall_ms:.1} ms ({per_s:.0} req/s sim), peak event queue {}, \
         sketch buckets {}, digest {}\n",
        cfg.requests,
        r.peak_event_queue,
        r.sketch_buckets,
        r.digest_hex()
    );
    (json, line)
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
fn fault_scale(options: &StudyOptions) -> Row {
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
    let r = simulate(fleet, &cfg);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let availability = r.completed as f64 / cfg.requests as f64;
    let healthy_availability = healthy.completed as f64 / cfg.requests as f64;
    let json = Obj::new()
        .field("requests", cfg.requests)
        .field("rate_rps", Fixed(rate_rps, 0))
        .field("faults", FAULT_SCALE_SPEC)
        .field("fault_events", fault_events)
        .field("completed", r.completed)
        .field("shed", r.shed)
        .field("availability", num(availability))
        .field("healthy_availability", num(healthy_availability))
        .field("wall_ms", Fixed(wall_ms, 1))
        .field("peak_event_queue", r.peak_event_queue)
        .field("p50_ms", Fixed(r.p50_ms, 4))
        .field("p99_ms", Fixed(r.p99_ms, 4))
        .field("p999_ms", Fixed(r.p999_ms, 4))
        .field("healthy_p99_ms", Fixed(healthy.p99_ms, 4))
        .field("digest", r.digest_hex());
    let line = format!(
        "fault scale: {} requests at {rate_rps} rps under `{FAULT_SCALE_SPEC}` ({fault_events} \
         fault events) in {wall_ms:.1} ms — availability {availability:.4} (healthy \
         {healthy_availability:.4}), shed {}, p99 {:.4} ms (healthy {:.4}), peak event queue \
         {}, digest {}\n",
        cfg.requests,
        r.shed,
        r.p99_ms,
        healthy.p99_ms,
        r.peak_event_queue,
        r.digest_hex()
    );
    (json, line)
}

/// Runs the serving study with `par`, then the overhead, scale and
/// fault-scale rows. Returns the `BENCH_serving.json` document and the
/// summary printed beside it: one line per study run, one per row, and
/// the study's combined digest.
pub fn run(par: Parallelism) -> (String, String) {
    let golden = StudyOptions::golden();
    let study = run_full_serving_study(par);
    let rows = [
        ("obs_overhead", obs_overhead(&golden)),
        ("serving_scale", serving_scale(&golden)),
        ("fault_scale", fault_scale(&golden)),
    ];
    let golden_runs = golden.cells() * golden.replicas;
    let mut summary = format!(
        "serving study: {golden_runs} golden + {} heterogeneous runs = {} total\n",
        study.runs.len() - golden_runs,
        study.runs.len()
    );
    for run in &study.runs {
        let r = &run.report;
        summary += &format!(
            "  {:<28} {:>6.0} rps {:<16} replica {}  p50 {:.4} ms  p99 {:.4} ms  shed {:.1}%  \
             {:.3} mJ/req\n",
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
    for (_, (_, line)) in &rows {
        summary += line;
    }
    summary += &format!("combined digest {}\n", study.combined_digest_hex());
    let json = study.to_json_with(|doc| {
        rows.into_iter()
            .fold(doc, |doc, (key, (row, _))| doc.field(key, row))
    });
    (json, summary)
}
