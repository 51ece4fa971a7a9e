//! Experiment-regeneration harness: one function per table/figure of the
//! paper's evaluation.
//!
//! Each function returns the formatted experiment output as a `String`;
//! the [`EXPERIMENTS`] registry names them for `albireo experiment`, the
//! integration tests assert on their contents, and EXPERIMENTS.md records
//! the paper-vs-measured diff. [`ARTIFACTS`] names every committed
//! `results/*.csv` and the function rendering it (`albireo export-csv`
//! writes them), [`oracles::ORACLES`] holds the paper anchors
//! `albireo validate-oracles` checks, and [`serving_study`] and
//! [`plan_search`] time `BENCH_serving.json` and `BENCH_plan.json`.
//! Run one experiment, or everything, with:
//!
//! ```text
//! cargo run -p albireo-cli -- experiment fig3
//! cargo run -p albireo-cli -- experiment all
//! ```

pub mod experiments;
pub mod oracles;
pub mod perfdiff;
pub mod plan_search;
pub mod serving_study;
pub mod sweep;

pub use experiments::*;
