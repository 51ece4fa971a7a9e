//! The deterministic coarse-to-fine search over candidate fleets.
//!
//! ## Candidate space
//!
//! A candidate is (chip multiset, batching policy, autoscale policy):
//! every multiset of the spec's chip kinds with 1..=`max_chips` chips,
//! crossed with every policy and autoscale entry. Multisets (not
//! sequences) because the serving engine dispatches to the first free
//! chip — chip order within a fleet does not change the run. Elastic
//! autoscaling whose floor covers the whole fleet is skipped: it
//! degenerates to `static` and would duplicate that candidate.
//!
//! ## Coarse-to-fine pruning
//!
//! Scoring every candidate with full-length replica runs is the
//! dominant cost, so the search first runs a short **screening**
//! simulation per candidate: the first `screen` arrivals of scoring
//! replica 0 — same workload, same seed, fewer requests — so its
//! metrics are the real run's opening window, not a noisy proxy. Only
//! the arrivals are a prefix: the screen run drains after its last
//! arrival, so a size-gated policy flushes a partial batch at that
//! instant where the scoring run would wait for more. A candidate is
//! pruned without scoring when that window already misses the SLO by a
//! wide margin:
//!
//! * screening p99 above `4×` the target, or
//! * screening shed rate above `max(5%, 2×shed_budget + 2%)`.
//!
//! The slack absorbs small-sample noise and arrival nonstationarity
//! (a screening window that happens to cover a burst). The shed rule is
//! *exactly* sound for admission sheds when the spec's shed budget is
//! zero: each is decided at an arrival, and up to its last arrival the
//! screen run makes the scoring run's decisions, so a screen that sheds
//! on admission proves the full run sheds too. The latency rule is an engineering bound, not a theorem —
//! `exhaustive: true` scores everything, and the planner's determinism
//! tests assert that pruned and exhaustive searches produce
//! byte-identical plan JSON on the golden spec (pruning only ever
//! removes candidates that full scoring would also call infeasible).
//!
//! Screening also **auto-disables** when `screen × 4 > requests`: below
//! that gap the screen pass costs nearly as much as the scoring it
//! hopes to skip, and measured candidate throughput on the pruned path
//! falls *below* exhaustive. The report's `screen_auto_disabled` flag
//! (text rendering only) records when this fired.
//!
//! ## Fault-aware planning
//!
//! A spec may carry a `faults=` scenario ([`albireo_runtime::FaultSpec`]
//! grammar). It compiles once per fleet *size* — rack/thermal ranges
//! clip to the candidate's fleet — and every screen and scoring run
//! executes under it, so the frontier ranks candidates by how they
//! serve *through* the outage, not in a healthy vacuum. Screening
//! soundness is unchanged: the screen run still replays a prefix of
//! scoring replica 0's arrivals, under the same faults.
//!
//! ## Determinism
//!
//! The plan is a pure function of the spec. All candidates share the
//! same replica seeds (replica 0 = the spec seed, replica `r` =
//! `split_seed(seed, stream_id(PLAN_PASS, 0, r))`), so candidates are
//! compared on identical arrival sequences. Each replica's `requests`
//! arrivals are generated once per plan, into one buffer of `requests ×
//! replicas` entries reserved before any simulation runs, and every
//! simulation replays them through [`simulate_replay`]: a scoring run
//! its replica's whole list, a screening run the first `screen` entries
//! of replica 0's. The first k requests of a stream do not depend on its
//! length, so each replay is byte-identical to streaming the workload.
//! A `requests × replicas` too large to reserve is an error, not an
//! abort. Fan-out goes through
//! [`Parallelism::map_indexed`], which preserves index order at any
//! thread count, and candidates are aggregated in enumeration order —
//! the report is byte-identical from `--threads 1` to `--threads N`.

use crate::report::{CandidateOutcome, PlanReport};
use crate::spec::PlanSpec;
use albireo_nn::zoo;
use albireo_obs::Obs;
use albireo_parallel::{split_seed, stream_id, Parallelism};
use albireo_runtime::{
    simulate_replay, AdmissionControl, AutoscalePolicy, BatchPolicy, FaultScenario, FleetConfig,
    Request, ServeConfig, ServiceReport,
};

/// Seed-split pass id for planner replicas (serving studies use
/// `0xA1B`; workload streams use `0x5E1..0x5E3`).
pub const PLAN_PASS: u64 = 0xA1C;

/// One point in the search space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Candidate {
    /// Comma-joined fleet spec, parseable by [`FleetConfig::parse`].
    pub fleet_spec: String,
    /// Fleet size.
    pub chips: usize,
    /// Batching policy.
    pub policy: BatchPolicy,
    /// Autoscale policy.
    pub autoscale: AutoscalePolicy,
}

/// Enumerates chip multisets as nondecreasing index sequences, depth
/// first — `[0] [0,0] [0,0,1] [0,1] [1] ...` for two kinds — so the
/// candidate order is a pure function of the spec.
fn multisets(kinds: usize, max_chips: usize) -> Vec<Vec<usize>> {
    fn rec(
        kinds: usize,
        max: usize,
        start: usize,
        cur: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if !cur.is_empty() {
            out.push(cur.clone());
        }
        if cur.len() == max {
            return;
        }
        for k in start..kinds {
            cur.push(k);
            rec(kinds, max, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(kinds, max_chips, 0, &mut Vec::new(), &mut out);
    out
}

pub(crate) fn enumerate(spec: &PlanSpec) -> Vec<Candidate> {
    let mut out = Vec::new();
    for fleet in multisets(spec.chip_kinds.len(), spec.max_chips) {
        let fleet_spec = fleet
            .iter()
            .map(|&k| spec.chip_kinds[k].as_str())
            .collect::<Vec<_>>()
            .join(",");
        for &policy in &spec.policies {
            for &autoscale in &spec.autoscale {
                if let AutoscalePolicy::Elastic { min_chips, .. } = autoscale {
                    // A floor covering the whole fleet never parks a
                    // chip — identical to `static`, so skip the dup.
                    if min_chips >= fleet.len() {
                        continue;
                    }
                }
                out.push(Candidate {
                    fleet_spec: fleet_spec.clone(),
                    chips: fleet.len(),
                    policy,
                    autoscale,
                });
            }
        }
    }
    out
}

/// Replica `r`'s seed: the spec seed for replica 0, a split of it for
/// the others.
fn replica_seed(spec: &PlanSpec, r: usize) -> u64 {
    if r == 0 {
        spec.seed
    } else {
        split_seed(spec.seed, stream_id(PLAN_PASS, 0, r as u64))
    }
}

/// Simulates `candidate` over the first `requests` of `arrivals`, the
/// pre-generated stream of replica seed `seed`.
fn run_candidate(
    spec: &PlanSpec,
    candidate: &Candidate,
    fleet: &FleetConfig,
    faults: &FaultScenario,
    requests: usize,
    seed: u64,
    arrivals: &[Request],
) -> ServiceReport {
    let cfg = ServeConfig {
        workload: spec.workload.clone(),
        requests,
        seed,
        policy: candidate.policy,
        admission: if spec.queue_capacity == usize::MAX {
            AdmissionControl::unbounded()
        } else {
            AdmissionControl::bounded(spec.queue_capacity)
        },
        faults: faults.clone(),
        record_cap: 0,
        autoscale: candidate.autoscale,
        alert: albireo_runtime::AlertPolicy::standard(),
    };
    simulate_replay(fleet, &cfg, arrivals)
}

/// The per-replica numbers a candidate is judged and ranked on.
#[derive(Debug, Clone, Copy)]
struct RunStats {
    p99_ms: f64,
    shed_rate: f64,
    attainment: f64,
    energy_total_j: f64,
    energy_per_request_j: f64,
    goodput_rps: f64,
    spin_ups: u64,
    digest: u64,
}

fn run_stats(report: &ServiceReport) -> RunStats {
    RunStats {
        p99_ms: report.p99_ms,
        shed_rate: report.shed_rate,
        // The floor over SLO-carrying classes; 1.0 when the workload
        // declares none (the clause is then vacuous).
        attainment: report
            .classes
            .iter()
            .filter_map(|c| c.slo_attainment)
            .fold(1.0, f64::min),
        energy_total_j: report.energy_total_j,
        energy_per_request_j: report.energy_per_request_j,
        goodput_rps: report.goodput_rps,
        spin_ups: report.per_chip.iter().map(|c| c.spin_ups).sum(),
        digest: report.digest(),
    }
}

fn screen_survives(spec: &PlanSpec, report: &ServiceReport) -> bool {
    let shed_ceiling = (2.0 * spec.slo.max_shed_rate + 0.02).max(0.05);
    report.p99_ms <= 4.0 * spec.slo.p99_ms && report.shed_rate <= shed_ceiling
}

/// Runs the full planner search and returns the ranked plan.
///
/// `exhaustive: false` screens-then-scores (the default);
/// `exhaustive: true` skips screening and scores every candidate. Both
/// modes produce byte-identical plan JSON whenever pruning removes only
/// candidates that scoring would call infeasible — the mode only shows
/// up in the report's search counters (text rendering and obs metrics).
///
/// Obs counters: `plan.candidates`, `plan.screened`, `plan.pruned`,
/// `plan.scored`, `plan.feasible`.
pub fn plan(
    spec: &PlanSpec,
    par: Parallelism,
    obs: &Obs,
    exhaustive: bool,
) -> Result<PlanReport, String> {
    spec.validate()?;
    // The serving model table: the paper's four benchmarks at indices
    // 0–3 plus the dense extension workloads, so mixes can name
    // MLP-Mixer/Transformer-Enc and chip kinds can include the
    // winograd/gemm operating modes.
    let models = zoo::serving_models();
    for &(network, _) in &spec.workload.mix {
        if network >= models.len() {
            return Err(format!(
                "mix names network {network} but the model zoo has {} entries",
                models.len()
            ));
        }
    }
    for kind in &spec.chip_kinds {
        FleetConfig::parse(kind, zoo::serving_models())
            .map_err(|e| format!("chip kind `{kind}`: {e}"))?;
    }

    let candidates = enumerate(spec);
    // Parse each candidate's fleet exactly once, up front. Re-parsing
    // inside `run_candidate` charged every screen run, every scoring
    // replica, *and* the label lookup for a spec parse apiece — pure
    // overhead that dominated short-screen searches.
    let fleets: Vec<FleetConfig> = candidates
        .iter()
        .map(|c| {
            FleetConfig::parse(&c.fleet_spec, models.clone())
                .expect("candidate fleet specs are built from validated chip kinds")
        })
        .collect();
    // Operating-mode chips are partial: a gemm-only candidate fleet
    // cannot serve a CNN mix at all (support-aware dispatch would have
    // no chip to route to). Such candidates are infeasible by
    // construction and are dropped before any simulation — they can
    // never reach the frontier, so pruned and exhaustive searches still
    // agree byte for byte.
    let supported: Vec<bool> = fleets
        .iter()
        .map(|fleet| {
            spec.workload
                .mix
                .iter()
                .all(|&(network, _)| fleet.supports(&models[network]))
        })
        .collect();
    // The spec's fault scenario clips rack/thermal ranges to the fleet,
    // so it compiles per fleet *size* — once per size, shared by every
    // candidate of that size.
    let scenarios: Vec<FaultScenario> = (0..=spec.max_chips)
        .map(|size| spec.faults.compile(size))
        .collect();
    // Every candidate runs on the same replica streams, so each replica's
    // arrivals are generated once into one buffer — replica r's list is
    // `replay(r)` — and replayed by every simulation. The buffer is
    // reserved fallibly, before any simulation runs, so a request or
    // replica count too large to hold is refused rather than aborting.
    let mut arrivals: Vec<Request> = Vec::new();
    let reserved = spec
        .requests
        .checked_mul(spec.replicas)
        .is_some_and(|total| arrivals.try_reserve_exact(total).is_ok());
    if !reserved {
        let size = std::mem::size_of::<Request>();
        let bytes = spec.requests as f64 * spec.replicas as f64 * size as f64;
        return Err(format!(
            "cannot reserve the plan's arrivals: {} requests × {} replica(s) × {size} bytes \
             = {bytes:.3e} bytes",
            spec.requests, spec.replicas
        ));
    }
    for r in 0..spec.replicas {
        arrivals.extend(spec.workload.stream(spec.requests, replica_seed(spec, r)));
    }
    let replay = |r: usize| &arrivals[r * spec.requests..][..spec.requests];

    // Phase 1 — screening. Short runs over a prefix of replica 0's
    // arrivals cut hopeless candidates before the expensive scoring
    // fan-out. The survivor list is a pure function of the spec
    // (map_indexed is order-preserving), so the scoring phase below sees
    // the same jobs in the same order at any thread count.
    // Screening only pays when the screen run is much shorter than the
    // scoring run: below a 4x gap the screen pass costs nearly as much
    // as the scoring it hopes to skip, and the measured throughput of
    // the pruned path drops *below* exhaustive (the screen runs are
    // pure overhead for every survivor). Auto-disable it there.
    let screen_worthwhile = spec.screen_requests * 4 <= spec.requests;
    let screen_everything = exhaustive || !screen_worthwhile;
    let (survivors, screened) = if screen_everything {
        ((0..candidates.len()).filter(|&i| supported[i]).collect(), 0)
    } else {
        let flags = par.map_indexed(candidates.len(), |i| {
            if !supported[i] {
                return false;
            }
            let report = run_candidate(
                spec,
                &candidates[i],
                &fleets[i],
                &scenarios[candidates[i].chips],
                spec.screen_requests,
                spec.seed,
                replay(0),
            );
            screen_survives(spec, &report)
        });
        let survivors: Vec<usize> = (0..candidates.len()).filter(|&i| flags[i]).collect();
        (survivors, candidates.len())
    };
    let pruned = candidates.len() - survivors.len();

    // Phase 2 — scoring. Full-length runs, `replicas` per survivor, all
    // candidates on the same replica seeds so they are compared on
    // identical arrival sequences.
    let stats = par.map_indexed(survivors.len() * spec.replicas, |j| {
        let index = survivors[j / spec.replicas];
        let candidate = &candidates[index];
        let replica = j % spec.replicas;
        run_stats(&run_candidate(
            spec,
            candidate,
            &fleets[index],
            &scenarios[candidate.chips],
            spec.requests,
            replica_seed(spec, replica),
            replay(replica),
        ))
    });

    // Aggregate replicas conservatively: worst-case latency/shed/
    // attainment across replicas gate feasibility; energy and goodput
    // average. A candidate is feasible only if every replica is.
    let mut outcomes: Vec<CandidateOutcome> = Vec::new();
    for (s, &index) in survivors.iter().enumerate() {
        let candidate = &candidates[index];
        let runs = &stats[s * spec.replicas..(s + 1) * spec.replicas];
        let n = runs.len() as f64;
        let fleet_label = fleets[index].label();
        let mut digest = 0u64;
        for r in runs {
            digest = digest.rotate_left(13) ^ r.digest;
        }
        let p99_ms = runs.iter().map(|r| r.p99_ms).fold(0.0, f64::max);
        let shed_rate = runs.iter().map(|r| r.shed_rate).fold(0.0, f64::max);
        let attainment = runs.iter().map(|r| r.attainment).fold(1.0, f64::min);
        let feasible = p99_ms <= spec.slo.p99_ms
            && shed_rate <= spec.slo.max_shed_rate
            && spec
                .slo
                .min_attainment
                .is_none_or(|floor| attainment >= floor);
        outcomes.push(CandidateOutcome {
            fleet_spec: candidate.fleet_spec.clone(),
            fleet_label,
            chips: candidate.chips,
            policy_label: candidate.policy.label(),
            autoscale_label: candidate.autoscale.to_string(),
            p99_ms,
            shed_rate,
            attainment,
            energy_total_j: runs.iter().map(|r| r.energy_total_j).sum::<f64>() / n,
            energy_per_request_j: runs.iter().map(|r| r.energy_per_request_j).sum::<f64>() / n,
            goodput_rps: runs.iter().map(|r| r.goodput_rps).sum::<f64>() / n,
            spin_ups: runs.iter().map(|r| r.spin_ups).sum(),
            feasible,
            pareto: false,
            digest,
        });
    }

    // Rank the feasible set by mean energy per request (the objective),
    // tie-broken on latency then labels so the order is total.
    let mut frontier: Vec<CandidateOutcome> =
        outcomes.iter().filter(|o| o.feasible).cloned().collect();
    frontier.sort_by(|a, b| {
        a.energy_per_request_j
            .total_cmp(&b.energy_per_request_j)
            .then(a.p99_ms.total_cmp(&b.p99_ms))
            .then(a.fleet_spec.cmp(&b.fleet_spec))
            .then(a.policy_label.cmp(&b.policy_label))
            .then(a.autoscale_label.cmp(&b.autoscale_label))
    });
    for i in 0..frontier.len() {
        let dominated = frontier.iter().any(|other| {
            other.energy_per_request_j <= frontier[i].energy_per_request_j
                && other.p99_ms <= frontier[i].p99_ms
                && (other.energy_per_request_j < frontier[i].energy_per_request_j
                    || other.p99_ms < frontier[i].p99_ms)
        });
        frontier[i].pareto = !dominated;
    }

    let scored = survivors.len();
    let feasible = frontier.len();
    obs.counter("plan.candidates").add(candidates.len() as u64);
    obs.counter("plan.screened").add(screened as u64);
    obs.counter("plan.pruned").add(pruned as u64);
    obs.counter("plan.scored").add(scored as u64);
    obs.counter("plan.feasible").add(feasible as u64);

    Ok(PlanReport {
        spec_line: spec.to_string(),
        slo_line: spec.slo.to_string(),
        exhaustive: screen_everything,
        screen_auto_disabled: !exhaustive && !screen_worthwhile,
        candidates_total: candidates.len(),
        screened,
        pruned,
        scored,
        replicas: spec.replicas,
        frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_runtime::FaultSpec;

    #[test]
    fn multisets_enumerate_nondecreasing_sequences() {
        let sets = multisets(2, 2);
        assert_eq!(
            sets,
            vec![vec![0], vec![0, 0], vec![0, 1], vec![1], vec![1, 1],]
        );
        // Sanity: C(kinds + size - 1, size) summed over sizes.
        assert_eq!(multisets(3, 3).len(), 3 + 6 + 10);
    }

    #[test]
    fn candidate_count_matches_the_enumeration() {
        let kinds = ["albireo_9:C", "albireo_27:C", "winograd_9:C"];
        let elastic = |min_chips| AutoscalePolicy::Elastic {
            up_depth: 8,
            warmup_s: 0.002,
            min_chips,
        };
        for k in 1..=kinds.len() {
            for max_chips in 1..=6 {
                let mut spec = PlanSpec::poisson(1000.0, 5.0, kinds[0], max_chips);
                spec.chip_kinds = kinds[..k].iter().map(|s| s.to_string()).collect();
                spec.policies = vec![BatchPolicy::Immediate, BatchPolicy::SizeN { size: 4 }];
                spec.autoscale = vec![AutoscalePolicy::Static, elastic(1), elastic(3)];
                assert_eq!(
                    spec.candidate_count(),
                    Some(enumerate(&spec).len()),
                    "{k} kind(s), max-chips {max_chips}"
                );
            }
        }
    }

    #[test]
    fn enumerate_skips_degenerate_elastic_candidates() {
        let mut spec = PlanSpec::poisson(1000.0, 5.0, "albireo_9:C", 2);
        spec.autoscale = vec![
            AutoscalePolicy::Static,
            AutoscalePolicy::Elastic {
                up_depth: 8,
                warmup_s: 0.002,
                min_chips: 1,
            },
        ];
        let candidates = enumerate(&spec);
        // Size-1 fleets: static only (elastic floor covers the fleet).
        // Size-2 fleet: static + elastic.
        assert_eq!(candidates.len(), 3);
        assert!(candidates
            .iter()
            .all(|c| c.chips == 2 || c.autoscale == AutoscalePolicy::Static));
    }

    #[test]
    fn planner_finds_the_minimum_feasible_fleet() {
        // 8000 rps of AlexNet against a ~4500 rps chip: one chip is
        // overloaded, two chips are the minimum feasible fleet, three
        // meet the SLO too but pay an extra chip's idle power. The
        // winner must be the pair — under the default `static` idle
        // accounting, extra capacity costs energy.
        let spec = PlanSpec::parse(
            "rate=8000;requests=600;screen=150;slo=p99<5ms;chips=albireo_9:C;max-chips=3",
        )
        .unwrap();
        let report = plan(&spec, Parallelism::serial(), &Obs::disabled(), false).unwrap();
        assert_eq!(report.candidates_total, 3);
        assert_eq!(report.frontier.len(), 2, "two and three chips are feasible");
        let winner = report.winner().expect("a feasible fleet exists");
        assert_eq!(winner.chips, 2);
        assert!(winner.p99_ms <= 5.0);
        assert_eq!(winner.shed_rate, 0.0);
        assert!(
            winner.energy_per_request_j < report.frontier[1].energy_per_request_j,
            "the 3-chip fleet must pay for its idle chip"
        );
    }

    #[test]
    fn pruned_and_exhaustive_searches_agree() {
        // At 10000 rps the 1-chip fleet sheds hard inside the screening
        // window and is pruned; the scored sets differ between modes but
        // the feasible frontier (and thus JSON and digest) must not.
        let spec = PlanSpec::parse(
            "rate=10000;requests=600;screen=150;slo=p99<5ms;chips=albireo_9:C;max-chips=3",
        )
        .unwrap();
        let obs = Obs::disabled();
        let pruned = plan(&spec, Parallelism::serial(), &obs, false).unwrap();
        let exhaustive = plan(&spec, Parallelism::serial(), &obs, true).unwrap();
        assert!(pruned.pruned >= 1, "screening should cut the 1-chip fleet");
        assert!(pruned.scored < exhaustive.scored);
        assert_eq!(pruned.frontier, exhaustive.frontier);
        assert_eq!(pruned.to_json(), exhaustive.to_json());
        assert_eq!(pruned.digest(), exhaustive.digest());
    }

    #[test]
    fn screening_auto_disables_when_the_screen_is_too_long() {
        // screen*4 > requests: the screen pass would cost nearly as
        // much as scoring, so the search scores everything and says so.
        let spec = PlanSpec::parse(
            "rate=8000;requests=400;screen=150;slo=p99<5ms;chips=albireo_9:C;max-chips=2",
        )
        .unwrap();
        let obs = Obs::disabled();
        let auto = plan(&spec, Parallelism::serial(), &obs, false).unwrap();
        assert!(auto.exhaustive, "auto-disable must imply exhaustive");
        assert!(auto.screen_auto_disabled);
        assert_eq!((auto.screened, auto.pruned), (0, 0));
        assert!(auto.render_text().contains("screening auto-disabled"));
        // An explicit exhaustive run is byte-identical and not blamed
        // on the auto-disable rule.
        let explicit = plan(&spec, Parallelism::serial(), &obs, true).unwrap();
        assert!(!explicit.screen_auto_disabled);
        assert_eq!(auto.to_json(), explicit.to_json());
    }

    #[test]
    fn spec_faults_shift_the_winner_to_a_larger_fleet() {
        // Healthy, two chips suffice at 8000 rps (see the minimum-fleet
        // test). With chip 0 failed at t=0 and never repaired, every
        // fleet runs one chip short — the planner must spend a third
        // chip to stay feasible.
        let healthy = PlanSpec::parse(
            "rate=8000;requests=600;screen=150;slo=p99<5ms;chips=albireo_9:C;max-chips=3",
        )
        .unwrap();
        let mut faulty = healthy.clone();
        faulty.faults = FaultSpec::parse("fail:0@0").unwrap();
        let obs = Obs::disabled();
        let base = plan(&healthy, Parallelism::serial(), &obs, false).unwrap();
        let degraded = plan(&faulty, Parallelism::serial(), &obs, false).unwrap();
        assert_eq!(base.winner().expect("healthy winner").chips, 2);
        assert_eq!(degraded.winner().expect("degraded winner").chips, 3);
        assert!(
            degraded.spec_line.ends_with(";faults=fail:0@0"),
            "spec echo must carry the scenario: {}",
            degraded.spec_line
        );
    }

    #[test]
    fn plans_are_identical_at_any_thread_count() {
        let spec = PlanSpec::parse(
            "rate=1800;requests=400;screen=100;replicas=2;slo=p99<6ms;\
             chips=albireo_9:C|albireo_27:C;max-chips=2;autoscale=none|static",
        )
        .unwrap();
        let obs = Obs::disabled();
        let serial = plan(&spec, Parallelism::serial(), &obs, false).unwrap();
        for threads in [2, 5] {
            let parallel = plan(&spec, Parallelism::with_threads(threads), &obs, false).unwrap();
            assert_eq!(serial.to_json(), parallel.to_json());
            assert_eq!(serial.to_csv(), parallel.to_csv());
        }
    }

    #[test]
    fn mixed_mode_fleets_reach_the_frontier_on_cnn_plus_dense_mixes() {
        // A mixed CNN + dense workload: VGG16 (index 1) and MLP-Mixer
        // (index 4) in equal parts, with all three operating modes as
        // candidate chip kinds. gemm-only fleets cannot serve VGG16 and
        // must be dropped before simulation (never panicking the
        // engine); heterogeneous fleets mixing modes are admitted, and
        // at least one lands on the (energy, p99) frontier.
        let spec = PlanSpec::parse(
            "rate=800;requests=600;screen=100;slo=p99<8ms;mix=1:1,4:1;\
             chips=albireo_9:C|winograd_9:C|gemm_9:C;max-chips=2",
        )
        .unwrap();
        let report = plan(&spec, Parallelism::serial(), &Obs::disabled(), false).unwrap();
        // 3 singletons + 6 unordered pairs of the 3 kinds.
        assert_eq!(report.candidates_total, 9);
        assert!(!report.frontier.is_empty(), "no feasible fleet found");
        // The gemm-only fleets (gemm, gemm+gemm) never reach the
        // frontier — they cannot serve half the mix.
        for entry in &report.frontier {
            assert!(
                entry.fleet_label.contains("albireo") || entry.fleet_label.contains("winograd"),
                "gemm-only fleet `{}` should have been dropped",
                entry.fleet_label
            );
        }
        // Both new modes are admitted as frontier citizens, and at
        // least one frontier fleet mixes two different operating modes.
        let labels: Vec<&str> = report
            .frontier
            .iter()
            .map(|e| e.fleet_label.as_str())
            .collect();
        assert!(
            labels.iter().any(|l| l.contains("winograd")),
            "no winograd fleet on the frontier: {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.contains("gemm")),
            "no gemm fleet on the frontier: {labels:?}"
        );
        let kinds = |label: &str| {
            let mut k: Vec<&str> = label
                .split('+')
                .map(|c| c.split('_').next().unwrap_or(c))
                .collect();
            k.sort_unstable();
            k.dedup();
            k.len()
        };
        assert!(
            labels.iter().any(|l| kinds(l) >= 2),
            "no mixed-mode fleet on the frontier: {labels:?}"
        );
    }

    #[test]
    fn invalid_plans_are_rejected_before_the_fan_out() {
        let mut spec = PlanSpec::poisson(1000.0, 5.0, "albireo_9:C", 1);
        spec.workload.mix = vec![(99, 1.0)];
        let err = plan(&spec, Parallelism::serial(), &Obs::disabled(), false).unwrap_err();
        assert!(err.contains("model zoo"), "got: {err}");

        let bad_chip = PlanSpec::poisson(1000.0, 5.0, "warp_drive", 1);
        let err = plan(&bad_chip, Parallelism::serial(), &Obs::disabled(), false).unwrap_err();
        assert!(err.contains("warp_drive"), "got: {err}");
    }
}
