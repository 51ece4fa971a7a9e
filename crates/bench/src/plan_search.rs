//! The planner benchmark behind `albireo plan-search`: renders
//! `BENCH_plan.json` (schema `albireo.bench.plan/v1`) from the golden
//! planning scenario ([`albireo_plan::GOLDEN_PLAN_SPEC`], whose frontier
//! `albireo export-csv` commits as `results/golden_plan_frontier.csv`)
//! timed once, and planner throughput over a ~200-candidate search
//! (three chip kinds × fleets up to four chips × three batching
//! policies × static/elastic provisioning), with candidates/sec for
//! the pruned and exhaustive passes. Two variants of the search run:
//! the `wide` one keeps scoring runs short (400 requests), where the
//! coarse screen exceeds `requests/4` and the planner auto-disables it
//! — both passes are exhaustive and the speedup sits at ~1.0x by
//! construction; the `deep` one scores 3200 requests per candidate at
//! an offered rate that overloads most fleets, where screening pays and
//! the speedup is real (~2x). Both are recorded so the regression is
//! visible either way.
//!
//! Both searches are bit-deterministic at any `--threads` value; the
//! digests printed at the end are the values to compare across runs.

use albireo_obs::json::{Doc, Fixed, Obj};
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_plan::{plan, PlanReport, PlanSpec, GOLDEN_PLAN_SPEC};

/// The throughput scenario: a search wide enough (~200 candidates) that
/// candidates/sec is a stable figure, but with runs short enough that
/// the whole sweep stays in benchmark territory. At 400 requests the
/// 150-request screen fails the `screen * 4 <= requests` worthwhileness
/// test, so the planner auto-disables screening and both timed passes
/// below are exhaustive — that degenerate case is recorded on purpose.
const WIDE_PLAN_SPEC: &str = "rate=12000;requests=400;screen=150;slo=p99<5ms;queue-cap=32;\
     chips=albireo_9:C|albireo_27:C|albireo_9:A;max-chips=4;\
     policies=immediate|size:4|deadline_s:0.0002:8;autoscale=static|elastic:8:0.001:1";

/// A variant tuned so screening genuinely pays: scoring runs are 8× the
/// screen, and the policy/autoscale axes are pinned to immediate/static
/// (batching and elastic scaling would rescue overloaded fleets out of
/// the prune rules). Every chip kind sustains ~15.5k rps, so at
/// 50000 rps all but the 4-chip fleets are under-provisioned and trip
/// the shed-rate prune rule inside the screen window (30 of 34
/// candidates pruned, ~2x measured speedup). No candidate meets the
/// zero-shed SLO at this rate — the deep variant measures search
/// throughput, not a deployable frontier (the golden variant covers
/// that).
const DEEP_PLAN_SPEC: &str = "rate=50000;requests=3200;screen=400;slo=p99<5ms;\
     chips=albireo_9:C|albireo_27:C|albireo_9:A;max-chips=4;\
     policies=immediate;autoscale=static";

struct TimedPlan {
    report: PlanReport,
    wall_ms: f64,
}

fn timed_plan(spec: &PlanSpec, par: Parallelism, exhaustive: bool) -> TimedPlan {
    let t0 = std::time::Instant::now();
    let report = plan(spec, par, &Obs::disabled(), exhaustive).expect("plan runs");
    TimedPlan {
        report,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn candidates_per_s(t: &TimedPlan) -> f64 {
    t.report.candidates_total as f64 / (t.wall_ms / 1e3)
}

/// Runs one throughput variant both ways, asserts the plans agree, and
/// returns `(pruned, exhaustive)`.
fn run_variant(spec_line: &str, par: Parallelism, label: &str) -> (TimedPlan, TimedPlan) {
    let spec = PlanSpec::parse(spec_line).expect("variant spec parses");
    let pruned = timed_plan(&spec, par, false);
    let exhaustive = timed_plan(&spec, par, true);
    assert_eq!(
        pruned.report.to_json(),
        exhaustive.report.to_json(),
        "{label}: pruned and exhaustive searches must emit the same plan"
    );
    (pruned, exhaustive)
}

/// The JSON object for one throughput variant. Field paths under
/// `pruned`/`exhaustive` are consumed by CI's plan-smoke job — keep
/// `pruned.candidates_per_s` and `exhaustive.candidates_per_s` stable.
fn variant_json(pruned: &TimedPlan, exhaustive: &TimedPlan) -> Obj {
    Obj::new()
        .field("spec", &pruned.report.spec_line)
        .field("candidates", pruned.report.candidates_total)
        .field("feasible", pruned.report.frontier.len())
        .field("screen_auto_disabled", pruned.report.screen_auto_disabled)
        .field(
            "pruned",
            Obj::new()
                .field("pruned", pruned.report.pruned)
                .field("scored", pruned.report.scored)
                .field("wall_ms", Fixed(pruned.wall_ms, 1))
                .field("candidates_per_s", Fixed(candidates_per_s(pruned), 1)),
        )
        .field(
            "exhaustive",
            Obj::new()
                .field("scored", exhaustive.report.scored)
                .field("wall_ms", Fixed(exhaustive.wall_ms, 1))
                .field("candidates_per_s", Fixed(candidates_per_s(exhaustive), 1)),
        )
        .field("speedup", Fixed(exhaustive.wall_ms / pruned.wall_ms, 3))
        .field("digest", pruned.report.digest_hex())
}

fn variant_line(label: &str, pruned: &TimedPlan, exhaustive: &TimedPlan) -> String {
    format!(
        "{label} search: {} candidates — pruned {:.1} ms ({:.1} cand/s, {} pruned / {} scored{}), \
         exhaustive {:.1} ms ({:.1} cand/s), speedup {:.2}x, digest {}\n",
        pruned.report.candidates_total,
        pruned.wall_ms,
        candidates_per_s(pruned),
        pruned.report.pruned,
        pruned.report.scored,
        if pruned.report.screen_auto_disabled {
            ", screening auto-disabled"
        } else {
            ""
        },
        exhaustive.wall_ms,
        candidates_per_s(exhaustive),
        exhaustive.wall_ms / pruned.wall_ms,
        pruned.report.digest_hex()
    )
}

/// Times the golden plan and both throughput variants with `par`.
/// Returns the `BENCH_plan.json` document and the summary printed beside
/// it: the golden, wide and deep lines with their digests.
pub fn run(par: Parallelism) -> (String, String) {
    // The golden scenario, whose frontier is a committed artifact.
    let golden_spec = PlanSpec::parse(GOLDEN_PLAN_SPEC).expect("golden spec parses");
    let golden = timed_plan(&golden_spec, par, false);

    // The wide search (screen auto-disabled — both passes exhaustive)
    // and the deep search (screening pays), each pruned vs exhaustive.
    let (wide_pruned, wide_exhaustive) = run_variant(WIDE_PLAN_SPEC, par, "wide");
    let (deep_pruned, deep_exhaustive) = run_variant(DEEP_PLAN_SPEC, par, "deep");
    assert!(
        wide_pruned.report.screen_auto_disabled,
        "wide spec is built to trip the screening worthwhileness test"
    );
    assert!(
        !deep_pruned.report.screen_auto_disabled,
        "deep spec is built to keep screening enabled"
    );

    let json = Doc::new()
        .field("schema", "albireo.bench.plan/v1")
        .field(
            "golden",
            Obj::new()
                .field("spec", &golden.report.spec_line)
                .field("candidates", golden.report.candidates_total)
                .field("feasible", golden.report.frontier.len())
                .field("wall_ms", Fixed(golden.wall_ms, 1))
                .field("digest", golden.report.digest_hex()),
        )
        .field("wide", variant_json(&wide_pruned, &wide_exhaustive))
        .field("deep", variant_json(&deep_pruned, &deep_exhaustive))
        .finish()
        + "\n";
    let mut summary = format!(
        "golden plan: {} candidates, {} feasible, {:.1} ms, digest {}\n",
        golden.report.candidates_total,
        golden.report.frontier.len(),
        golden.wall_ms,
        golden.report.digest_hex()
    );
    if let Some(w) = golden.report.winner() {
        summary += &format!(
            "  winner: {} ({} chip(s), {}, {}) — {:.3} mJ/req, p99 {:.4} ms\n",
            w.fleet_label,
            w.chips,
            w.policy_label,
            w.autoscale_label,
            w.energy_per_request_mj(),
            w.p99_ms
        );
    }
    summary += &variant_line("wide", &wide_pruned, &wide_exhaustive);
    summary += &variant_line("deep", &deep_pruned, &deep_exhaustive);
    (json, summary)
}
