//! Determinism of the serving study: the golden grid behind
//! `results/golden_serving_metrics.csv` (pinned byte for byte by
//! `crates/bench/tests/artifacts.rs`) reproduces bit for bit at any
//! thread count.

use albireo_parallel::Parallelism;
use albireo_runtime::{run_serving_study, StudyOptions};

#[test]
fn study_digests_are_identical_at_one_and_eight_threads() {
    let options = StudyOptions::golden();
    let one = run_serving_study(&options, Parallelism::with_threads(1));
    let eight = run_serving_study(&options, Parallelism::with_threads(8));
    assert_eq!(
        one.combined_digest(),
        eight.combined_digest(),
        "serving study must be bit-deterministic at any thread count"
    );
    assert_eq!(one, eight);
    assert_eq!(one.to_json(), eight.to_json());
}
