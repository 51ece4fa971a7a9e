//! The service-time oracle evaluates its cost models serially: a run
//! must not fan network scheduling out over the global thread pool, even
//! when the process-wide policy asks for several threads. This is its
//! own test binary because it sets the process-wide obs handle and
//! thread policy.

use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_parallel::Parallelism;
use albireo_runtime::{simulate, FleetConfig, ServeConfig};

#[test]
fn simulate_records_no_parallel_merges() {
    let obs = albireo_obs::global();
    obs.set_enabled(true);
    Parallelism::set_global(Parallelism::with_threads(4));
    let merges = || obs.counter("parallel.merges").get();

    // A mixed-network run dispatches to both chips, so every chip costs
    // both networks it serves.
    let fleet = FleetConfig::paper_pair();
    let mut cfg = ServeConfig::poisson(3000.0, 300, 7, 0);
    cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
    let before = merges();
    let report = simulate(&fleet, &cfg);
    assert!(report.per_chip.iter().all(|c| c.batches > 0), "{report:?}");
    assert_eq!(merges(), before, "simulate fanned out over the thread pool");

    // The same evaluation under the global policy does fan out, so the
    // counter would have caught it.
    let before = merges();
    NetworkEvaluation::evaluate(
        &ChipConfig::albireo_9(),
        TechnologyEstimate::Conservative,
        &fleet.models[0],
    );
    assert!(merges() > before, "the global policy no longer fans out");
}
