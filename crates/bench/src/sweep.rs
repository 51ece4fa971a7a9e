//! The parallel sweep driver: fans the paper's full evaluation grid plus
//! the Fig. 3/4 device sweeps across threads and reports wall time and
//! speedup versus serial execution, machine-readably.
//!
//! Three workloads are timed, chosen to cover every parallel region of the
//! workspace:
//!
//! * `paper_grid` — the (chip × estimate × network) grid behind
//!   Tables II/IV, fanned per grid point through
//!   [`albireo_core::engine::EvalEngine`];
//! * `device_sweeps` — the Fig. 3 noise-precision and Fig. 4c
//!   crosstalk-precision sweeps, fanned per laser power / per `k²`;
//! * `analog_conv` — a stochastic analog convolution, fanned per output
//!   kernel inside [`albireo_core::analog::AnalogEngine`].
//!
//! Each workload is run once serially and once per requested thread count;
//! every run folds its numeric results into a digest so the report can
//! assert bit-identical output at every thread count (the determinism
//! contract of `albireo-parallel`). Timings are rep-averaged: the rep count
//! is calibrated against a target budget so that short workloads are not
//! measured at the granularity of a single thread-pool spawn.

use std::time::Instant;

use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
use albireo_core::config::ChipConfig;
use albireo_core::engine::{paper_grid, EvalEngine};
use albireo_obs::json::{num, Doc, Obj};
use albireo_parallel::Parallelism;
use albireo_photonics::precision::{fig3_noise_sweep, fig4c_crosstalk_sweep, PrecisionModel};
use albireo_photonics::OpticalParams;
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{FIG3_LASER_POWERS_W, FIG4_K2_VALUES};

/// What to sweep and how long to spend measuring it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Thread counts to benchmark (a serial baseline is always measured;
    /// `1` entries report the baseline itself).
    pub thread_counts: Vec<usize>,
    /// Per-(workload × thread count) measurement budget, ms. Rep counts
    /// are calibrated so each measurement spends roughly this long.
    pub target_ms: f64,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            thread_counts: default_thread_counts(),
            target_ms: 60.0,
        }
    }
}

/// `[1, 2, 4, …, cores]`: powers of two up to the host's core count, plus
/// the core count itself.
pub fn default_thread_counts() -> Vec<usize> {
    let cores = Parallelism::auto().resolved_threads();
    let mut counts = vec![1usize];
    let mut t = 2;
    while t < cores {
        counts.push(t);
        t *= 2;
    }
    if cores > 1 {
        counts.push(cores);
    }
    counts
}

/// One workload measured at one thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRun {
    /// Requested worker count.
    pub threads: usize,
    /// Rep-averaged wall time, ms.
    pub wall_ms: f64,
    /// Serial wall time over this run's wall time.
    pub speedup: f64,
    /// Whether the run's result digest matched the serial baseline's.
    pub deterministic: bool,
}

/// One workload's full measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Workload name.
    pub name: String,
    /// Independent work items the workload fans out.
    pub items: usize,
    /// Reps averaged per measurement.
    pub reps: u32,
    /// Serial baseline wall time, ms.
    pub serial_wall_ms: f64,
    /// Per-thread-count measurements.
    pub runs: Vec<ThreadRun>,
}

/// The full sweep report behind `BENCH_parallel.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Host core count.
    pub available_parallelism: usize,
    /// Thread counts benchmarked.
    pub thread_counts: Vec<usize>,
    /// Per-workload measurements.
    pub experiments: Vec<ExperimentReport>,
}

impl SweepReport {
    /// Whether every run at every thread count reproduced the serial
    /// digest bit-for-bit.
    pub fn all_deterministic(&self) -> bool {
        self.experiments
            .iter()
            .all(|e| e.runs.iter().all(|r| r.deterministic))
    }

    /// Summed serial wall time across workloads, ms.
    pub fn total_serial_wall_ms(&self) -> f64 {
        self.experiments.iter().map(|e| e.serial_wall_ms).sum()
    }

    /// The best whole-sweep speedup achieved at any benchmarked thread
    /// count (total serial time over total parallel time).
    pub fn best_total_speedup(&self) -> f64 {
        self.thread_counts
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let wall: f64 = self.experiments.iter().map(|e| e.runs[i].wall_ms).sum();
                self.total_serial_wall_ms() / wall.max(f64::MIN_POSITIVE)
            })
            .fold(0.0, f64::max)
    }

    /// Serializes the report as JSON, one experiment per line.
    pub fn to_json(&self) -> String {
        let experiments = self.experiments.iter().map(|e| {
            let runs: Vec<Obj> = e
                .runs
                .iter()
                .map(|r| {
                    Obj::new()
                        .field("threads", r.threads)
                        .field("wall_ms", num(r.wall_ms))
                        .field("speedup", num(r.speedup))
                        .field("deterministic", r.deterministic)
                })
                .collect();
            Obj::new()
                .field("name", &e.name)
                .field("items", e.items)
                .field("reps", e.reps)
                .field("serial_wall_ms", num(e.serial_wall_ms))
                .field("runs", runs)
        });
        Doc::new()
            .field("schema", "albireo.bench.parallel/v1")
            .field("available_parallelism", self.available_parallelism)
            .field("thread_counts", &self.thread_counts)
            .rows("experiments", experiments)
            .field(
                "total",
                Obj::new()
                    .field("serial_wall_ms", num(self.total_serial_wall_ms()))
                    .field("best_speedup", num(self.best_total_speedup()))
                    .field("deterministic", self.all_deterministic()),
            )
            .finish()
            + "\n"
    }
}

/// Folds one value into a result digest (order-sensitive, so it also
/// catches results landing in the wrong slots).
fn fold(digest: u64, v: f64) -> u64 {
    digest.rotate_left(7) ^ v.to_bits()
}

/// One benchmarkable workload: a name, its fan-out width, and a runner
/// returning a digest of every numeric result it produced.
struct Workload {
    name: &'static str,
    items: usize,
    run: Box<dyn Fn(Parallelism) -> u64 + Sync>,
}

/// Grid replicas per timed run: one (chip × estimate × network) point is
/// microsecond-scale arithmetic, far below the cost of spawning a thread
/// pool, so the four benchmark networks are replicated to give the pool a
/// fan-out wide enough to measure scaling rather than spawn overhead.
const GRID_BATCH: usize = 64;

/// The (chip × estimate × network) evaluation grid (Tables II/IV),
/// replicated [`GRID_BATCH`]× per timed run.
fn grid_workload() -> Workload {
    let (chips, estimates, mut models) = paper_grid();
    let base = models.clone();
    for _ in 1..GRID_BATCH {
        models.extend(base.iter().cloned());
    }
    let items = chips.len() * estimates.len() * models.len();
    Workload {
        name: "paper_grid",
        items,
        run: Box::new(move |par| {
            let grid = EvalEngine::new(par).evaluate_grid(&chips, &estimates, &models);
            let mut d = 0u64;
            for g in &grid {
                d = fold(d, g.evaluation.latency_s);
                d = fold(d, g.evaluation.energy_j);
                d = fold(d, g.evaluation.edp_mj_ms());
                for l in &g.evaluation.per_layer {
                    d = fold(d, l.cycles as f64);
                }
            }
            d
        }),
    }
}

/// The Fig. 3 (noise) and Fig. 4c (crosstalk) precision sweeps, one work
/// item per laser power / per ring coupling.
fn device_sweep_workload() -> Workload {
    let items = FIG3_LASER_POWERS_W.len() + FIG4_K2_VALUES.len();
    Workload {
        name: "device_sweeps",
        items,
        run: Box::new(move |par| {
            let digests = par.map_indexed(items, |i| {
                let model = PrecisionModel::paper();
                let mut d = 0u64;
                if i < FIG3_LASER_POWERS_W.len() {
                    let sweep = &fig3_noise_sweep(&model, &[FIG3_LASER_POWERS_W[i]], 64)[0];
                    for (_, bits) in &sweep.series {
                        d = fold(d, *bits);
                    }
                } else {
                    let params = OpticalParams::paper();
                    let k2 = FIG4_K2_VALUES[i - FIG3_LASER_POWERS_W.len()];
                    let sweep = &fig4c_crosstalk_sweep(&model, &params, &[k2], 64)[0];
                    for (_, bits) in &sweep.series {
                        d = fold(d, *bits);
                    }
                }
                d
            });
            digests
                .into_iter()
                .fold(0u64, |acc, d| acc.rotate_left(13) ^ d)
        }),
    }
}

/// A stochastic analog convolution (noise + crosstalk on), fanned per
/// output kernel inside the analog engine.
fn analog_conv_workload() -> Workload {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let input = Tensor3::random_uniform(6, 20, 20, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(16, 6, 3, 3, 0.3, &mut rng);
    let chip = ChipConfig::albireo_9();
    Workload {
        name: "analog_conv",
        items: 16,
        run: Box::new(move |par| {
            let mut engine = {
                let _setup = albireo_obs::profile::scope("bench.setup");
                AnalogEngine::new(&chip, AnalogSimConfig::default()).with_parallelism(par)
            };
            let out = engine.conv2d(&input, &kernels, &ConvSpec::unit());
            out.as_slice().iter().fold(0u64, |d, &v| fold(d, v))
        }),
    }
}

/// Times `reps` runs of `workload` under `par`, returning the averaged
/// wall time in ms and the (rep-invariant) result digest. Each rep runs
/// under a root profiler scope named after the workload, so `--profile`
/// attributes the sweep's wall time per workload phase tree.
fn measure(workload: &Workload, par: Parallelism, reps: u32) -> (f64, u64) {
    let mut digest = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        let _root = albireo_obs::profile::scope(workload.name);
        digest = (workload.run)(par);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3 / reps as f64;
    (wall_ms, digest)
}

/// Picks a rep count so `reps × once_ms ≈ target_ms`, clamped to keep
/// both fast machines honest and slow workloads bounded.
fn calibrate_reps(once_ms: f64, target_ms: f64) -> u32 {
    ((target_ms / once_ms.max(1e-6)).ceil() as u32).clamp(2, 2_000)
}

/// Runs the full parallel sweep: every workload at serial and at each
/// requested thread count.
pub fn run_parallel_sweep(options: &SweepOptions) -> SweepReport {
    let workloads = [
        grid_workload(),
        device_sweep_workload(),
        analog_conv_workload(),
    ];
    let experiments = workloads
        .iter()
        .map(|w| {
            let (once_ms, _) = measure(w, Parallelism::serial(), 1);
            let reps = calibrate_reps(once_ms, options.target_ms);
            let (serial_wall_ms, serial_digest) = measure(w, Parallelism::serial(), reps);
            let runs = options
                .thread_counts
                .iter()
                .map(|&threads| {
                    let (wall_ms, digest) = measure(w, Parallelism::with_threads(threads), reps);
                    ThreadRun {
                        threads,
                        wall_ms,
                        speedup: serial_wall_ms / wall_ms.max(f64::MIN_POSITIVE),
                        deterministic: digest == serial_digest,
                    }
                })
                .collect();
            ExperimentReport {
                name: w.name.to_string(),
                items: w.items,
                reps,
                serial_wall_ms,
                runs,
            }
        })
        .collect();
    SweepReport {
        available_parallelism: Parallelism::auto().resolved_threads(),
        thread_counts: options.thread_counts.clone(),
        experiments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_options() -> SweepOptions {
        SweepOptions {
            thread_counts: vec![1, 2, 8],
            target_ms: 2.0,
        }
    }

    #[test]
    fn sweep_is_deterministic_at_every_thread_count() {
        let report = run_parallel_sweep(&quick_options());
        assert_eq!(report.experiments.len(), 3);
        for e in &report.experiments {
            assert_eq!(e.runs.len(), 3, "{}", e.name);
            for r in &e.runs {
                assert!(
                    r.deterministic,
                    "{} diverged from serial at {} threads",
                    e.name, r.threads
                );
                assert!(r.wall_ms > 0.0 && r.speedup > 0.0);
            }
        }
        assert!(report.all_deterministic());
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = run_parallel_sweep(&SweepOptions {
            thread_counts: vec![1, 2],
            target_ms: 1.0,
        });
        let json = report.to_json();
        for key in [
            "\"schema\"",
            "\"albireo.bench.parallel/v1\"",
            "\"thread_counts\"",
            "\"experiments\"",
            "\"paper_grid\"",
            "\"device_sweeps\"",
            "\"analog_conv\"",
            "\"wall_ms\"",
            "\"speedup\"",
            "\"deterministic\"",
            "\"total\"",
            "\"best_speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("null"));
    }

    #[test]
    fn default_thread_counts_start_at_one() {
        let counts = default_thread_counts();
        assert_eq!(counts[0], 1);
        assert!(counts.iter().all(|&t| t >= 1));
        let cores = Parallelism::auto().resolved_threads();
        assert_eq!(*counts.last().unwrap(), cores.max(1));
    }
}
