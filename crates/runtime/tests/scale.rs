//! Bounded-memory regression tests for the streamed serving engine.
//!
//! The scale contract (DESIGN.md §11): a run's resident state is
//! O(fleet + in-flight work), never O(requests). The observable proxies
//! are exact and deterministic — `peak_event_queue` is the event queue's
//! high-water mark (one completion or warm-up per chip, the scheduled
//! faults and at most one `deadline` timer, whatever the rate or
//! `max_wait`), `sketch_buckets` the quantile sketch's occupied bucket
//! count (bounded by `MAX_BUCKETS` for any stream), and `record_cap: 0`
//! keeps the per-request record sample empty. The default tests prove
//! the bounds at 10⁵ requests, under immediate dispatch and under
//! `deadline` batching; the `#[ignore]`d one is the full 10⁶-request
//! smoke CI runs in release mode.

use albireo_runtime::{
    simulate, AdmissionControl, BatchPolicy, ClassSpec, FleetConfig, ServeConfig,
};

/// Queue-depth ceiling: a completion per chip, a deadline timer and the
/// scheduled faults — far below any O(requests) regression.
const PEAK_EVENT_CAP: usize = 64;

fn scale_cfg(requests: usize) -> ServeConfig {
    let mut cfg = ServeConfig::poisson(5000.0, requests, 42, 0);
    cfg.admission = AdmissionControl::bounded(64);
    cfg.record_cap = 0;
    cfg
}

fn assert_bounded(report: &albireo_runtime::ServiceReport, requests: usize) {
    assert_eq!(report.offered, requests as u64);
    assert_eq!(report.completed + report.shed, requests as u64);
    assert!(report.completed > 0);
    assert!(
        report.peak_event_queue <= PEAK_EVENT_CAP,
        "peak event queue {} scales with requests",
        report.peak_event_queue
    );
    assert!(
        report.sketch_buckets <= albireo_obs::sketch::MAX_BUCKETS,
        "sketch buckets {} exceed the fixed bucket space",
        report.sketch_buckets
    );
    assert!(
        report.records.is_empty(),
        "record_cap 0 must retain nothing"
    );
    assert!(report.p50_ms > 0.0 && report.p999_ms >= report.p99_ms);
}

#[test]
fn hundred_thousand_requests_run_in_bounded_memory() {
    let fleet = FleetConfig::paper_pair();
    let requests = 100_000;
    // Under deadline batching, a timer per admitted request would keep
    // about rate × max_wait = 500 of them pending at once.
    for policy in ["immediate", "deadline_s:0.1:8"] {
        let mut cfg = scale_cfg(requests);
        cfg.policy = BatchPolicy::parse(policy).unwrap();
        let report = simulate(&fleet, &cfg);
        assert_bounded(&report, requests);
        // Determinism holds at scale: a second run is byte-identical.
        assert_eq!(report, simulate(&fleet, &cfg), "{policy}");
    }
}

#[test]
fn per_class_accounting_stays_bounded_at_scale() {
    let fleet = FleetConfig::paper_pair();
    let requests = 50_000;
    let mut cfg = scale_cfg(requests);
    cfg.workload = cfg.workload.with_classes(vec![
        ClassSpec::with_slo("interactive", 3.0, 5.0),
        ClassSpec::best_effort("batch", 1.0),
    ]);
    let report = simulate(&fleet, &cfg);
    assert_bounded(&report, requests);
    assert_eq!(report.classes.len(), 2);
    let covered: u64 = report.classes.iter().map(|c| c.completed + c.shed).sum();
    assert_eq!(covered, requests as u64, "classes partition all traffic");
    assert!(report.classes[0].slo_attainment.is_some());
}

/// The full million-request smoke (`cargo test --release -- --ignored`).
/// Debug builds take minutes here; release finishes in well under a
/// second, which is what the CI serving-scale job asserts with a
/// timeout.
#[test]
#[ignore = "million-request smoke; run in release builds (CI serving-scale job)"]
fn million_requests_run_in_bounded_memory() {
    let fleet = FleetConfig::paper_pair();
    let requests = 1_000_000;
    let report = simulate(&fleet, &scale_cfg(requests));
    assert_bounded(&report, requests);
}
