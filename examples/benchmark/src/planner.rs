//! The planning workload: `albireo_plan::plan` over a ~200-candidate
//! search, one plan per unit.

use crate::harness::{After, Spans, Workload};
use crate::report::Metrics;
use albireo::parallel::Parallelism;
use albireo::plan::{plan, PlanReport, PlanSpec};
use albireo_obs::Obs;
use std::time::Instant;

/// `BENCH_plan.json`'s "wide" spec line, which must still plan to
/// [`WIDE_DIGEST`].
const WIDE_SPEC: &str = "arrival=poisson;rate=12000;mix=0:1;requests=400;screen=150;seed=42;\
     replicas=1;slo=p99<5ms;chips=albireo_9:C|albireo_27:C|albireo_9:A;max-chips=4;\
     policies=immediate|size:4|deadline_s:0.0002:8;queue-cap=32;autoscale=static|elastic:8:0.001:1";
const WIDE_DIGEST: u64 = 0x78b0_188f_e2b6_570c;

/// `plan_wide` at the default seed.
const PLAN_DIGEST: u64 = 0x97ea_1692_c48d_28ab;

/// The benchmarked spec: the "wide" search with scoring runs long
/// enough (6000 requests) that screening stays on, two scoring
/// replicas, and the run seed.
fn spec_line(seed: u64) -> String {
    format!(
        "arrival=poisson;rate=12000;mix=0:1;requests=6000;screen=600;seed={seed};replicas=2;\
         slo=p99<5ms;chips=albireo_9:C|albireo_27:C|albireo_9:A;max-chips=4;\
         policies=immediate|size:4|deadline_s:0.0002:8;queue-cap=32;\
         autoscale=static|elastic:8:0.001:1"
    )
}

pub struct Plan {
    spec: PlanSpec,
    first: Option<PlanReport>,
}

/// `plan_wide`: many short simulations per call, so per-candidate
/// set-up and screening matter rather than long event loops.
///
/// The timed plans run on one thread ([`crate::harness::THREADS`]): a
/// two-thread plan's run-to-run spread was 13% even in reference
/// seconds, more than a third of any bound the benchmark may set. The
/// traced run times the `albireo-parallel` fan-out instead, as
/// `parallel.plan_speedup`.
pub fn wide(seed: u64, metrics: &mut Metrics) -> Result<Box<dyn Workload>, String> {
    let line = spec_line(seed);
    let t0 = Instant::now();
    let spec = PlanSpec::parse(&line)?;
    metrics.push("plan.spec.parse_s", t0.elapsed().as_secs_f64());
    Ok(Box::new(Plan { spec, first: None }))
}

impl Workload for Plan {
    fn items_per_unit(&self) -> f64 {
        self.first
            .as_ref()
            .map_or(0.0, |r| r.candidates_total as f64)
    }

    fn unit(&mut self, _i: usize, spans: &mut Spans<'_>) -> Result<u64, String> {
        let report = spans.time(&["plan.search.plan_s"], || {
            plan(&self.spec, Parallelism::serial(), &Obs::disabled(), false)
        })?;
        let digest = report.digest();
        self.first.get_or_insert(report);
        Ok(digest)
    }

    fn pinned_digest(&self) -> u64 {
        PLAN_DIGEST
    }

    fn after(&mut self, ctx: &mut After<'_>) {
        let report = self.first.as_ref().expect("a plan ran");
        let counts = [
            ("plan.candidates", report.candidates_total),
            ("plan.screened", report.screened),
            ("plan.pruned", report.pruned),
            ("plan.scored", report.scored),
            ("plan.feasible", report.frontier.len()),
        ];
        for (name, value) in counts {
            ctx.metrics.push(name, value as f64);
        }
        if report.screened > 0 {
            ctx.metrics.push(
                "plan.pruned_ratio",
                report.pruned as f64 / report.screened as f64,
            );
        }
        let plan_s = ctx
            .metrics
            .value("plan.search.plan_s")
            .expect("timed units ran");
        let sims = report.screened + report.scored * report.replicas;
        ctx.metrics
            .push("plan.search.s_per_sim", plan_s / sims as f64);
        let to_json = ctx
            .clock
            .median_of(|| drop(std::hint::black_box(report.to_json())));
        ctx.metrics.push("plan.report.to_json_s", to_json);

        let wide = PlanSpec::parse(WIDE_SPEC)
            .and_then(|spec| plan(&spec, Parallelism::serial(), &Obs::disabled(), false));
        let (ok, detail) = match wide {
            Ok(r) => (
                r.digest() == WIDE_DIGEST,
                format!("{} (pinned 0x{WIDE_DIGEST:016x})", r.digest_hex()),
            ),
            Err(e) => (false, e),
        };
        ctx.check("bench_plan_wide_digest", ok, detail);

        if ctx.trace {
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
            let par = Parallelism::with_threads(nproc.min(2));
            let mut digest = None;
            let parallel = ctx.clock.median_of(|| {
                let r = plan(&self.spec, par, &Obs::disabled(), false);
                digest = r.map(|r| r.digest()).ok();
            });
            ctx.metrics.push("parallel.plan_speedup", plan_s / parallel);
            ctx.check(
                "plan_thread_invariant",
                digest == Some(report.digest()),
                format!(
                    "plan at {} threads: {:016x?} (1 thread: {:016x})",
                    par.resolved_threads(),
                    digest,
                    report.digest()
                ),
            );
        }
    }
}
