//! Capacity planning for Albireo serving fleets.
//!
//! Given a [`PlanSpec`] — a workload shape (arrival process, network
//! mix, tenant classes), an [`SloSpec`] (`p99<5ms`, optional per-class
//! attainment floor and shed budget), and a search space (chip kinds,
//! maximum fleet size, batching policies, [autoscaling]
//! policies) — [`plan`] searches every candidate fleet, scores each by
//! running the serving simulator, and returns a [`PlanReport`]: the
//! minimum-energy feasible fleet plus the full ranked
//! (energy, SLO-attainment) frontier.
//!
//! The search is **coarse-to-fine**: short screening simulations (exact
//! prefixes of the scoring runs, not separate approximations) prune
//! candidates that miss the SLO by a wide margin before the full-length
//! replica runs are spent; `exhaustive` mode scores everything. Both
//! modes emit byte-identical plan JSON — the report exposes only
//! mode-independent fields, and pruning only removes candidates scoring
//! would also reject.
//!
//! The whole search is deterministic: candidates share split-seed
//! replica streams (see [`PLAN_PASS`]), fan-out goes through
//! [`albireo_parallel::Parallelism::map_indexed`], and the resulting
//! plan is byte-identical at any thread count.
//!
//! ```
//! use albireo_obs::Obs;
//! use albireo_parallel::Parallelism;
//! use albireo_plan::{plan, PlanSpec};
//!
//! // 8000 rps of AlexNet under a 5 ms p99: how many Albireo-9 chips?
//! let spec = PlanSpec::parse(
//!     "rate=8000;requests=400;screen=100;slo=p99<5ms;chips=albireo_9:C;max-chips=3",
//! )
//! .unwrap();
//! let report = plan(&spec, Parallelism::serial(), &Obs::disabled(), false).unwrap();
//! let winner = report.winner().expect("a feasible fleet exists");
//! assert_eq!(winner.chips, 2); // one chip saturates; three waste idle energy
//! ```
//!
//! [autoscaling]: albireo_runtime::AutoscalePolicy

pub mod report;
pub mod search;
pub mod spec;

pub use report::{CandidateOutcome, PlanReport};
pub use search::{plan, PLAN_PASS};
pub use spec::{PlanSpec, SloSpec};

/// The golden planning scenario: bursty arrivals (4x bursts, 10 ms on /
/// 40 ms off) of a mixed AlexNet + MobileNet request stream against
/// Albireo-9 fleets, static vs elastic provisioning. This is the
/// scenario where elastic autoscaling beats every static fleet on
/// energy while holding `p99<5ms` — pinned byte-exactly by
/// `results/golden_plan_frontier.csv` (one of the `ARTIFACTS` that
/// `cargo run --release -p albireo-bench --bin export_csv` regenerates)
/// and by the planner's determinism tests.
pub const GOLDEN_PLAN_SPEC: &str = "arrival=bursty:4:0.01:0.04;rate=3000;mix=0:3,3:1;\
     requests=900;screen=200;seed=11;slo=p99<5ms;chips=albireo_9:C;max-chips=3;\
     autoscale=static|elastic:6:0.001:1";
