//! The serving study: a (fleet × arrival rate × batching policy) sweep
//! with replicated runs, fanned out through `albireo-parallel`.
//!
//! Each simulation run is single-threaded and pure (see [`crate::sim`]);
//! parallelism lives entirely here, as a deterministic `map_indexed` over
//! the flattened `(cell, replica)` grid. Replica seeds are derived with
//! [`split_seed`]`(base, `[`stream_id`]`(SERVE_PASS, cell, replica))`, a
//! function of the run's *coordinates* — never of which thread executes
//! it — so the whole study is bit-identical at any thread count.

use crate::fleet::FleetConfig;
use crate::policy::{AdmissionControl, BatchPolicy};
use crate::report::ServiceReport;
use crate::sim::{simulate, simulate_observed, ServeConfig};
use crate::workload::{ArrivalProcess, Workload};
use albireo_nn::zoo;
use albireo_obs::json::{num, Doc, Fixed, Obj};
use albireo_obs::Obs;
use albireo_parallel::{split_seed, stream_id, Parallelism};

/// Stream-id pass tag for serving replica seeds (shared by
/// [`replicate`] and [`run_serving_study`]).
pub const SERVE_PASS: u64 = 0xA1B;

/// Runs `replicas` seeded copies of one configuration in parallel.
///
/// Replica 0 uses `cfg.seed` itself (so a one-replica call reproduces the
/// plain [`simulate`] run byte-for-byte) and records into `obs`
/// ([`simulate_observed`]; its report is the same either way); replica
/// `r > 0` uses the derived seed
/// `split_seed(cfg.seed, stream_id(SERVE_PASS, 0, r))` and records nothing.
pub fn replicate(
    fleet: &FleetConfig,
    cfg: &ServeConfig,
    replicas: usize,
    par: Parallelism,
    obs: &Obs,
) -> Vec<ServiceReport> {
    par.map_indexed(replicas, |r| {
        if r == 0 {
            return simulate_observed(fleet, cfg, obs);
        }
        let mut run = cfg.clone();
        run.seed = split_seed(cfg.seed, stream_id(SERVE_PASS, 0, r as u64));
        simulate(fleet, &run)
    })
}

/// What the serving study sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOptions {
    /// Fleets to serve on.
    pub fleets: Vec<FleetConfig>,
    /// Mean Poisson arrival rates, requests/s.
    pub rates_rps: Vec<f64>,
    /// Batching policies.
    pub policies: Vec<BatchPolicy>,
    /// Network mix (index, weight) offered to every cell.
    pub mix: Vec<(usize, f64)>,
    /// Requests offered per run.
    pub requests: usize,
    /// Seeded replicas per cell.
    pub replicas: usize,
    /// Base seed replica seeds derive from.
    pub base_seed: u64,
    /// Queue capacity shared by every cell.
    pub admission: AdmissionControl,
}

impl StudyOptions {
    /// The pinned grid behind `results/golden_serving_metrics.csv` and
    /// `BENCH_serving.json`: two fleets (the paper pair and a lone
    /// Albireo-9), two offered rates bracketing the lone chip's capacity,
    /// three policies, two replicas, AlexNet/VGG16 mix, seed 42.
    pub fn golden() -> StudyOptions {
        StudyOptions {
            fleets: vec![
                FleetConfig::paper_pair(),
                FleetConfig::parse("albireo_9:C", zoo::all_benchmarks())
                    .expect("static fleet spec parses"),
            ],
            rates_rps: vec![1000.0, 4000.0],
            policies: vec![
                BatchPolicy::Immediate,
                BatchPolicy::SizeN { size: 4 },
                BatchPolicy::Deadline {
                    max_wait_s: 200e-6,
                    max_size: 8,
                },
            ],
            mix: vec![(0, 1.0), (1, 1.0)],
            requests: 300,
            replicas: 2,
            base_seed: 42,
            admission: AdmissionControl::default(),
        }
    }

    /// The mixed-backend grid behind the heterogeneous rows of
    /// `BENCH_serving.json`: an Albireo-27 flanked by the DEAP-CNN and
    /// PIXEL photonic baselines, and an Albireo-9 paired with the
    /// reported Eyeriss (which only serves its published networks —
    /// exercising support-aware dispatch), over the AlexNet/VGG16 mix.
    pub fn heterogeneous() -> StudyOptions {
        StudyOptions {
            fleets: vec![
                FleetConfig::parse("albireo_27:C, deap:C, pixel:C", zoo::all_benchmarks())
                    .expect("static fleet spec parses"),
                FleetConfig::parse("albireo_9:C, eyeriss", zoo::all_benchmarks())
                    .expect("static fleet spec parses"),
            ],
            rates_rps: vec![1000.0],
            policies: vec![BatchPolicy::Immediate, BatchPolicy::SizeN { size: 4 }],
            mix: vec![(0, 1.0), (1, 1.0)],
            requests: 200,
            replicas: 2,
            base_seed: 42,
            admission: AdmissionControl::default(),
        }
    }

    /// Cells in the sweep (fleet × rate × policy).
    pub fn cells(&self) -> usize {
        self.fleets.len() * self.rates_rps.len() * self.policies.len()
    }
}

/// One run of the study: its replica index plus the full report (runs
/// are stored cell by cell).
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRun {
    /// Replica index within the cell.
    pub replica: usize,
    /// The run's service report.
    pub report: ServiceReport,
}

/// The study's results, in deterministic `(cell, replica)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStudyReport {
    /// Replicas per cell.
    pub replicas: usize,
    /// All runs.
    pub runs: Vec<StudyRun>,
}

impl ServingStudyReport {
    /// Order-sensitive digest over every run's digest — one value that
    /// certifies the entire study reproduced.
    pub fn combined_digest(&self) -> u64 {
        self.runs.iter().fold(0xC0FF_EE00u64, |acc, r| {
            acc.rotate_left(13) ^ r.report.digest()
        })
    }

    /// The combined digest as fixed-width hex.
    pub fn combined_digest_hex(&self) -> String {
        format!("{:016x}", self.combined_digest())
    }

    /// The study CSV: a `replica` column plus one [`ServiceReport`] row
    /// per run.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("replica,");
        out.push_str(ServiceReport::csv_header());
        out.push('\n');
        for run in &self.runs {
            out.push_str(&format!("{},{}\n", run.replica, run.report.csv_row()));
        }
        out
    }

    /// JSON for `BENCH_serving.json` (schema
    /// `albireo.bench.serving_study/v1`, documented in DESIGN.md §8).
    pub fn to_json(&self) -> String {
        self.to_json_with(|d| d)
    }

    /// [`to_json`](ServingStudyReport::to_json) with the members `extra`
    /// appends between the runs and the closing combined digest.
    pub fn to_json_with(&self, extra: impl FnOnce(Doc) -> Doc) -> String {
        let runs = self.runs.iter().map(|run| {
            let r = &run.report;
            Obj::new()
                .field("fleet", &r.fleet_label)
                .field("policy", &r.policy_label)
                .field("rate_rps", Fixed(r.offered_rate_rps, 3))
                .field("replica", run.replica)
                .field("seed", r.seed)
                .field("completed", r.completed)
                .field("shed", r.shed)
                .field("p50_ms", num(r.p50_ms))
                .field("p95_ms", num(r.p95_ms))
                .field("p99_ms", num(r.p99_ms))
                .field("p999_ms", num(r.p999_ms))
                .field("goodput_rps", num(r.goodput_rps))
                .field("energy_per_request_mj", num(r.energy_per_request_j * 1e3))
                .field("mean_batch_size", num(r.mean_batch_size))
                .field("digest", r.digest_hex())
        });
        let doc = Doc::new()
            .field("schema", "albireo.bench.serving_study/v1")
            .field("replicas", self.replicas)
            .rows("runs", runs);
        extra(doc)
            .field("combined_digest", self.combined_digest_hex())
            .finish()
            + "\n"
    }
}

/// The whole serving study behind `results/serving_study.csv` and
/// `BENCH_serving.json`: the golden grid's runs
/// ([`StudyOptions::golden`]) followed by the heterogeneous grid's
/// ([`StudyOptions::heterogeneous`]), so the pinned golden artifact is a
/// prefix of it.
pub fn run_full_serving_study(par: Parallelism) -> ServingStudyReport {
    let golden = run_serving_study(&StudyOptions::golden(), par);
    let mut runs = golden.runs;
    runs.extend(run_serving_study(&StudyOptions::heterogeneous(), par).runs);
    ServingStudyReport {
        replicas: golden.replicas,
        runs,
    }
}

/// Runs the study `options` describes under `par`. Bit-identical at any
/// thread count (see module docs).
pub fn run_serving_study(options: &StudyOptions, par: Parallelism) -> ServingStudyReport {
    assert!(options.replicas > 0, "study needs at least one replica");
    let cells: Vec<(usize, f64, BatchPolicy)> = options
        .fleets
        .iter()
        .enumerate()
        .flat_map(|(fi, _)| {
            options.rates_rps.iter().flat_map(move |&rate| {
                options
                    .policies
                    .iter()
                    .map(move |&policy| (fi, rate, policy))
            })
        })
        .collect();
    let total = cells.len() * options.replicas;
    let runs = par.map_indexed(total, |i| {
        let cell = i / options.replicas;
        let replica = i % options.replicas;
        let (fleet_idx, rate, policy) = cells[cell];
        let cfg = ServeConfig {
            workload: Workload {
                process: ArrivalProcess::Poisson { rate_rps: rate },
                mix: options.mix.clone(),
                classes: Vec::new(),
            },
            requests: options.requests,
            seed: split_seed(
                options.base_seed,
                stream_id(SERVE_PASS, cell as u64, replica as u64),
            ),
            policy,
            admission: options.admission,
            faults: crate::fault::FaultScenario::none(),
            record_cap: usize::MAX,
            autoscale: crate::autoscale::AutoscalePolicy::None,
            alert: crate::alerts::AlertPolicy::standard(),
        };
        StudyRun {
            replica,
            report: simulate(&options.fleets[fleet_idx], &cfg),
        }
    });
    ServingStudyReport {
        replicas: options.replicas,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> StudyOptions {
        let mut o = StudyOptions::golden();
        o.fleets.truncate(1);
        o.rates_rps = vec![2000.0];
        o.requests = 120;
        o
    }

    #[test]
    fn study_is_deterministic_at_any_thread_count() {
        let options = quick_options();
        let serial = run_serving_study(&options, Parallelism::serial());
        let wide = run_serving_study(&options, Parallelism::with_threads(8));
        assert_eq!(serial, wide);
        assert_eq!(serial.combined_digest(), wide.combined_digest());
        assert_eq!(serial.runs.len(), options.cells() * options.replicas);
    }

    #[test]
    fn replicas_draw_distinct_workloads() {
        let options = quick_options();
        let study = run_serving_study(&options, Parallelism::serial());
        let a = &study.runs[0];
        let b = &study.runs[1];
        // Runs are stored cell by cell: the first two are replicas 0 and
        // 1 of cell 0.
        assert_eq!((a.replica, b.replica), (0, 1));
        assert_ne!(a.report.seed, b.report.seed);
        assert_ne!(a.report.digest(), b.report.digest());
    }

    #[test]
    fn replicate_preserves_the_base_run() {
        let fleet = FleetConfig::paper_pair();
        let cfg = ServeConfig::poisson(2000.0, 100, 5, 0);
        let base = simulate(&fleet, &cfg);
        let reps = replicate(
            &fleet,
            &cfg,
            3,
            Parallelism::with_threads(4),
            &Obs::disabled(),
        );
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0], base, "replica 0 is the base run");
        assert_ne!(reps[1].digest(), reps[0].digest());
        assert_ne!(reps[2].digest(), reps[1].digest());
    }

    #[test]
    fn heterogeneous_grid_is_deterministic_and_mixed() {
        let mut options = StudyOptions::heterogeneous();
        options.requests = 80;
        let serial = run_serving_study(&options, Parallelism::serial());
        let wide = run_serving_study(&options, Parallelism::with_threads(8));
        assert_eq!(serial, wide);
        assert_eq!(serial.runs.len(), options.cells() * options.replicas);
        let labels: Vec<&str> = serial
            .runs
            .iter()
            .map(|r| r.report.fleet_label.as_str())
            .collect();
        assert!(labels.contains(&"albireo_27_C+deap_C+pixel_C"));
        assert!(labels.contains(&"albireo_9_C+eyeriss"));
        for run in &serial.runs {
            assert!(run.report.completed > 0, "every cell must make progress");
        }
    }

    #[test]
    fn csv_and_json_cover_every_run() {
        let options = quick_options();
        let study = run_serving_study(&options, Parallelism::serial());
        let csv = study.to_csv();
        assert_eq!(csv.lines().count(), study.runs.len() + 1);
        assert!(csv.starts_with("replica,fleet,"));
        let json = study.to_json();
        assert!(json.contains("albireo.bench.serving_study/v1"));
        assert!(json.contains(&study.combined_digest_hex()));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
