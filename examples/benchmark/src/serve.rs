//! The serving workloads: whole `runtime::simulate` runs, one per unit,
//! cycling through [`SEEDS`] consecutive seeds from the run seed.

use crate::harness::{After, Spans, Workload};
use crate::report::Metrics;
use albireo::nn::zoo;
use albireo::runtime::{
    simulate, ArrivalProcess, BatchPolicy, ClassSpec, FaultSpec, FleetConfig, ServeConfig,
    ServiceReport,
};
use albireo_obs::ProfileReport;
use std::time::Instant;

/// Distinct seeds the units cycle through: unit `i` simulates seed
/// `S + i % SEEDS`, so every later unit repeats an earlier run and must
/// reproduce its digest.
const SEEDS: usize = 10;

/// `serve_steady` at the default seed: `BENCH_serving.json`'s
/// `serving_scale` digest.
const STEADY_DIGEST: u64 = 0x6f3e_124e_1271_b373;
/// `serve_tenants` at the default seed.
const TENANTS_DIGEST: u64 = 0xa5c1_b790_8bc6_9dd1;

/// One serving workload: the fleet, the run configuration (its seed is
/// the run seed), and the report of input 0.
pub struct Serve {
    fleet: FleetConfig,
    cfg: ServeConfig,
    pinned: u64,
    first: Option<ServiceReport>,
}

fn parsed_fleet(spec: Option<&str>, metrics: &mut Metrics) -> Result<FleetConfig, String> {
    let t0 = Instant::now();
    let fleet = match spec {
        Some(spec) => FleetConfig::parse(spec, zoo::serving_models())?,
        None => FleetConfig::paper_pair(),
    };
    metrics.push("runtime.fleet.parse_s", t0.elapsed().as_secs_f64());
    Ok(fleet)
}

/// `serve_steady`: the paper pair under the golden AlexNet + VGG16 mix,
/// Poisson at 4000 rps (about 39% over capacity), immediate dispatch,
/// 10⁶ requests. Event queue, dispatch and sketch dominate; no faults,
/// no classes, so alerts are inert.
pub fn steady(seed: u64, metrics: &mut Metrics) -> Result<Box<dyn Workload>, String> {
    let fleet = parsed_fleet(None, metrics)?;
    let mut cfg = ServeConfig::poisson(4000.0, 1_000_000, seed, 0);
    // The serving study's golden mix: AlexNet and VGG16, equal weight.
    cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
    cfg.record_cap = 0;
    Ok(Box::new(Serve {
        fleet,
        cfg,
        pinned: STEADY_DIGEST,
        first: None,
    }))
}

/// `serve_tenants`: a four-chip mixed-mode fleet under diurnal
/// multi-tenant traffic with deadline batching, burn-rate alerts and
/// correlated faults — the timer, batching, thinning, class-draw, alert
/// and fault-event paths `serve_steady` skips.
pub fn tenants(seed: u64, metrics: &mut Metrics) -> Result<Box<dyn Workload>, String> {
    let fleet = parsed_fleet(
        Some("albireo_9:C, albireo_27:C, albireo_9:M, winograd_9:C"),
        metrics,
    )?;
    let mut cfg = ServeConfig::poisson(6000.0, 250_000, seed, 0);
    cfg.workload.process = ArrivalProcess::Diurnal {
        rate_rps: 6000.0,
        amplitude: 0.8,
        period_s: 20.0,
    };
    cfg.workload.mix = vec![(0, 2.0), (1, 1.0), (3, 2.0)];
    cfg.workload.classes = ClassSpec::parse_list("interactive:3:5,batch:1", None)?;
    cfg.policy = BatchPolicy::parse("deadline:200:8")?;
    cfg.faults = FaultSpec::parse("rack:0-0@10,thermal:0-3@20-30:2,crews:2:5:11")?
        .compile(fleet.chips.len());
    cfg.record_cap = 0;
    Ok(Box::new(Serve {
        fleet,
        cfg,
        pinned: TENANTS_DIGEST,
        first: None,
    }))
}

impl Workload for Serve {
    fn items_per_unit(&self) -> f64 {
        self.cfg.requests as f64
    }

    fn input_cycle(&self) -> usize {
        SEEDS
    }

    fn unit(&mut self, i: usize, spans: &mut Spans<'_>) -> Result<u64, String> {
        let mut cfg = self.cfg.clone();
        cfg.seed = self.cfg.seed.wrapping_add((i % SEEDS) as u64);
        let report = spans.time(&["runtime.sim.simulate_s"], || simulate(&self.fleet, &cfg));
        if report.completed + report.shed != report.offered {
            return Err(format!(
                "seed {}: completed {} + shed {} != offered {}",
                cfg.seed, report.completed, report.shed, report.offered
            ));
        }
        let digest = report.digest();
        // The first unit a run makes is unit 0, on input 0.
        self.first.get_or_insert(report);
        Ok(digest)
    }

    fn pinned_digest(&self) -> u64 {
        self.pinned
    }

    fn after(&mut self, ctx: &mut After<'_>) {
        let report = self.first.as_ref().expect("input 0 ran");
        let counts = [
            ("runtime.sim.offered", report.offered as f64),
            ("runtime.sim.completed", report.completed as f64),
            ("runtime.sim.shed", report.shed as f64),
            (
                "runtime.sim.batches",
                report.per_chip.iter().map(|c| c.batches).sum::<u64>() as f64,
            ),
            (
                "runtime.sim.peak_event_queue",
                report.peak_event_queue as f64,
            ),
            ("runtime.sim.sketch_buckets", report.sketch_buckets as f64),
            ("runtime.sim.alert_events", report.alert_events.len() as f64),
            ("runtime.sim.fault_events", self.cfg.faults.len() as f64),
        ];
        for (name, value) in counts {
            ctx.metrics.push(name, value);
        }
        let to_json = ctx
            .clock
            .median_of(|| drop(std::hint::black_box(report.to_json())));
        ctx.metrics.push("runtime.report.to_json_s", to_json);
        let simulate = ctx
            .metrics
            .value("runtime.sim.simulate_s")
            .expect("timed units ran");
        ctx.metrics.push(
            "runtime.sim.ns_per_request",
            simulate / self.cfg.requests as f64 * 1e9,
        );
        if ctx.trace {
            // The arrival stream alone, drained without the DES.
            let workload = &self.cfg.workload;
            let stream = ctx.clock.median_of(|| {
                std::hint::black_box(workload.stream(self.cfg.requests, self.cfg.seed).count());
            });
            ctx.metrics.push("runtime.workload.stream_s", stream);
            ctx.metrics.push("runtime.sim.des_s", simulate - stream);
        }
    }

    fn profiled(&self, i: usize, profile: &ProfileReport, scale: f64, metrics: &mut Metrics) {
        let stat = |leaf: &str| {
            profile
                .phases
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
                .fold((0u64, 0u64), |(calls, ns), (_, s)| {
                    (calls + s.calls, ns + s.self_ns)
                })
        };
        let (push_calls, push_ns) = stat("runtime.queue.push");
        let (pop_calls, pop_ns) = stat("runtime.queue.pop");
        metrics.push("runtime.queue.push.self_s", push_ns as f64 * 1e-9 * scale);
        metrics.push("runtime.queue.pop.self_s", pop_ns as f64 * 1e-9 * scale);
        // Calls repeat exactly only per input; record input 0's.
        if i == 0 {
            metrics.push("runtime.queue.calls", (push_calls + pop_calls) as f64);
        }
    }
}
