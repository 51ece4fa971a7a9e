//! The service-time oracle evaluates its cost models serially: a run
//! must not fan network scheduling out over the global thread pool, even
//! when the process-wide policy asks for several threads. The wall-clock
//! profiler is the probe: every region that fans out records a
//! `parallel.join` phase. This is its own test binary because it sets
//! the process-wide profiler and thread policy.

use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_obs::profile;
use albireo_parallel::Parallelism;
use albireo_runtime::{simulate, FleetConfig, ServeConfig};

/// `parallel.join` calls recorded since the last report, at any depth.
fn joins() -> u64 {
    profile::take_report()
        .phases
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some("parallel.join"))
        .map(|(_, stat)| stat.calls)
        .sum()
}

#[test]
fn simulate_records_no_parallel_merges() {
    profile::set_enabled(true);
    Parallelism::set_global(Parallelism::with_threads(4));

    // A mixed-network run dispatches to both chips, so every chip costs
    // both networks it serves.
    let fleet = FleetConfig::paper_pair();
    let mut cfg = ServeConfig::poisson(3000.0, 300, 7, 0);
    cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
    profile::reset();
    let report = simulate(&fleet, &cfg);
    assert!(report.per_chip.iter().all(|c| c.batches > 0), "{report:?}");
    assert_eq!(joins(), 0, "simulate fanned out over the thread pool");

    // Evaluating the same networks across the global policy does fan
    // out, so the probe would have caught it.
    Parallelism::global().map_indexed(fleet.models.len(), |i| {
        NetworkEvaluation::evaluate(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            &fleet.models[i],
        )
    });
    assert!(joins() > 0, "the global policy no longer fans out");
}
