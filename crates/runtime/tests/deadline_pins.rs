//! Pins of `deadline`-policy runs. Each case's report digest, completed
//! and shed counts and per-chip batch counts must match the recorded
//! ones, and one checkpointed case also pins a fold of every checkpoint
//! record it emits.
//!
//! The cases cross the paths a deadline timer meets: Poisson, bursty,
//! diurnal and flash-crowd arrivals and a trace with same-instant
//! arrivals; a `max_wait` below a batch's service time and one far above
//! it; `max_size` 1, 8 and 64; queue caps of 1, 16, 64 and unbounded;
//! faults that strand the queue and faults that are repaired; elastic
//! warm-ups; SLO classes; and a mixed-mode fleet. A change to when the engine arms or fires its
//! timers that moves a single dispatch fails here; a mismatch prints the
//! replacement lines.

use albireo_nn::zoo;
use albireo_obs::{fnv1a, fold};
use albireo_runtime::{
    simulate, simulate_checkpointed, AdmissionControl, ArrivalProcess, AutoscalePolicy,
    BatchPolicy, ClassSpec, FaultSpec, FleetConfig, ServeConfig, ServeOutcome,
};
use std::fmt::Write as _;

/// `(label, digest, completed, shed, batches per chip)`. Waits run from
/// 50 µs, below every request's service time (AlexNet on Albireo-27
/// takes about 72 µs), to 50 ms, above a full batch of eight VGG16
/// requests on either chip (about 23 ms on Albireo-9).
type Pin = (&'static str, u64, u64, u64, &'static [u64]);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("poisson short-wait max8 cap64", 0x7434073bab57457e, 2637, 363, &[94, 266]),
    ("poisson long-wait max64 uncapped", 0x90c71c46d58976dd, 3000, 0, &[25, 50]),
    ("bursty long-wait max8 uncapped", 0x2c15060ea579973a, 3000, 0, &[127, 280]),
    ("diurnal short-wait max64 cap64", 0xc91fc59ba8691212, 1941, 1059, &[19, 53]),
    ("flash short-wait max1 cap1", 0x39b92dbf7e5ef57f, 2068, 932, &[750, 1318]),
    ("flash long-wait max8 cap64", 0xffc5184a1969d26a, 2613, 387, &[101, 226]),
    ("trace same-instant max8 uncapped", 0x7ac5d3d507c2211c, 900, 0, &[30, 87]),
    ("stranding faults max8 uncapped", 0xa2e7a1f1d9d1b8de, 765, 1235, &[34, 77]),
    ("repaired faults max8 cap64", 0x0c7190c9b3afee62, 1517, 483, &[44, 147]),
    ("elastic warm-ups max8 uncapped", 0x0b87190615dc12e5, 3000, 0, &[756, 395]),
    ("slo classes max8 cap16", 0x0e740e9549598bfa, 401, 2599, &[15, 39]),
    ("mixed-mode fleet max8 cap64", 0x5f09a632cc6ba4b4, 3839, 161, &[376, 539, 206, 256]),
];

/// The checkpointed case's record count and the fold of every record's
/// text, in emission order.
const CHECKPOINT_PIN: (usize, u64) = (31, 0xed884487f32ebf3f);

fn deadline(max_wait_s: f64, max_size: usize) -> BatchPolicy {
    BatchPolicy::Deadline {
        max_wait_s,
        max_size,
    }
}

/// A run on the paper pair serving AlexNet and VGG16 in equal shares.
fn pair_run(
    process: ArrivalProcess,
    requests: usize,
    seed: u64,
    policy: BatchPolicy,
    queue_capacity: usize,
) -> ServeConfig {
    let mut cfg = ServeConfig::poisson(process.mean_rate_rps(), requests, seed, 0);
    cfg.workload.process = process;
    cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
    cfg.policy = policy;
    cfg.admission = AdmissionControl { queue_capacity };
    cfg.record_cap = 0;
    cfg
}

/// A JSONL trace of `groups` instants 0.4 ms apart, each carrying three
/// same-instant arrivals of alternating networks and classes.
fn same_instant_trace(groups: usize) -> String {
    let path = std::env::temp_dir().join(format!(
        "albireo_deadline_pins_{}.jsonl",
        std::process::id()
    ));
    let mut text = String::new();
    for g in 0..groups {
        for k in 0..3 {
            let _ = writeln!(
                text,
                "{{\"arrival_s\": {}, \"network\": {}, \"class\": {}}}",
                g as f64 * 4e-4,
                (g + k) % 2,
                k % 2
            );
        }
    }
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec::with_slo("interactive", 3.0, 5.0),
        ClassSpec::best_effort("batch", 1.0),
    ]
}

/// Every pinned case, with the trace file the trace case reads.
fn cases(trace: &str) -> Vec<(&'static str, FleetConfig, ServeConfig)> {
    let pair = FleetConfig::paper_pair;
    let poisson = |rate_rps| ArrivalProcess::Poisson { rate_rps };
    let mut cases = vec![
        (
            "poisson short-wait max8 cap64",
            pair(),
            pair_run(poisson(3000.0), 3000, 1, deadline(50e-6, 8), 64),
        ),
        (
            "poisson long-wait max64 uncapped",
            pair(),
            pair_run(poisson(2500.0), 3000, 2, deadline(0.02, 64), usize::MAX),
        ),
        (
            "bursty long-wait max8 uncapped",
            pair(),
            pair_run(
                ArrivalProcess::Bursty {
                    rate_rps: 2000.0,
                    burst: 4.0,
                    on_s: 0.01,
                    off_s: 0.03,
                },
                3000,
                3,
                deadline(5e-3, 8),
                usize::MAX,
            ),
        ),
        (
            "diurnal short-wait max64 cap64",
            pair(),
            pair_run(
                ArrivalProcess::Diurnal {
                    rate_rps: 4000.0,
                    amplitude: 0.8,
                    period_s: 0.05,
                },
                3000,
                4,
                deadline(200e-6, 64),
                64,
            ),
        ),
        (
            "flash short-wait max1 cap1",
            pair(),
            pair_run(
                ArrivalProcess::FlashCrowd {
                    rate_rps: 1500.0,
                    spike: 6.0,
                    at_s: 0.2,
                    decay_s: 0.1,
                },
                3000,
                5,
                deadline(100e-6, 1),
                1,
            ),
        ),
        (
            "flash long-wait max8 cap64",
            pair(),
            pair_run(
                ArrivalProcess::FlashCrowd {
                    rate_rps: 1500.0,
                    spike: 6.0,
                    at_s: 0.2,
                    decay_s: 0.1,
                },
                3000,
                6,
                deadline(0.05, 8),
                64,
            ),
        ),
    ];
    let mut traced = pair_run(poisson(1.0), 900, 7, deadline(300e-6, 8), usize::MAX);
    traced.workload.process = ArrivalProcess::TraceFile {
        path: trace.to_string(),
    };
    traced.workload.classes = classes();
    cases.push(("trace same-instant max8 uncapped", pair(), traced));
    // Both chips fail with no repair crew: the queue strands, and every
    // later arrival waits until the stream ends.
    let mut stranded = pair_run(poisson(3000.0), 2000, 8, deadline(500e-6, 8), usize::MAX);
    stranded.faults = FaultSpec::parse("rack:0-1@0.3").unwrap().compile(2);
    cases.push(("stranding faults max8 uncapped", pair(), stranded));
    let mut repaired = pair_run(poisson(3000.0), 2000, 9, deadline(2e-3, 8), 64);
    repaired.faults = FaultSpec::parse("rack:0-1@0.1,degrade:0@0.3:4,crews:1:0.05:3")
        .unwrap()
        .compile(2);
    cases.push(("repaired faults max8 cap64", pair(), repaired));
    let mut elastic = pair_run(poisson(5000.0), 3000, 10, deadline(300e-6, 8), usize::MAX);
    elastic.workload.mix = vec![(0, 1.0)];
    elastic.autoscale = AutoscalePolicy::Elastic {
        up_depth: 4,
        warmup_s: 200e-6,
        min_chips: 1,
    };
    cases.push(("elastic warm-ups max8 uncapped", pair(), elastic));
    let mut slo = pair_run(poisson(20_000.0), 3000, 11, deadline(200e-6, 8), 16);
    slo.workload.classes = classes();
    cases.push(("slo classes max8 cap16", pair(), slo));
    let mixed = FleetConfig::parse(
        "albireo_9:C, albireo_27:C, albireo_9:M, winograd_9:C",
        zoo::serving_models(),
    )
    .unwrap();
    let mut tenants = pair_run(
        ArrivalProcess::Diurnal {
            rate_rps: 6000.0,
            amplitude: 0.8,
            period_s: 0.2,
        },
        4000,
        12,
        deadline(200e-6, 8),
        64,
    );
    tenants.workload.mix = vec![(0, 2.0), (1, 1.0), (3, 2.0)];
    tenants.workload.classes = classes();
    tenants.faults = FaultSpec::parse("rack:0-0@0.1,thermal:0-3@0.2-0.3:2,crews:2:0.05:11")
        .unwrap()
        .compile(mixed.chips.len());
    cases.push(("mixed-mode fleet max8 cap64", mixed, tenants));
    cases
}

#[test]
fn deadline_runs_match_the_pinned_reports() {
    let trace = same_instant_trace(300);
    let cases = cases(&trace);
    let mut lines = Vec::new();
    let mut moved = 0;
    for (label, fleet, cfg) in &cases {
        let r = simulate(fleet, cfg);
        assert_eq!(r.completed + r.shed, r.offered, "{label}");
        let batches: Vec<u64> = r.per_chip.iter().map(|c| c.batches).collect();
        let got = (r.digest(), r.completed, r.shed, batches.as_slice());
        let pinned = PINNED.iter().find(|p| p.0 == *label);
        if pinned.map(|p| (p.1, p.2, p.3, p.4)) != Some(got) {
            moved += 1;
        }
        lines.push(format!(
            "    (\"{label}\", 0x{:016x}, {}, {}, &{batches:?}),",
            got.0, got.1, got.2
        ));
    }
    std::fs::remove_file(&trace).ok();
    assert!(
        moved == 0 && PINNED.len() == cases.len(),
        "{moved} of {} cases moved; the table at this build is:\n{}",
        cases.len(),
        lines.join("\n")
    );
}

/// The overloaded queue drains long after the last deadline, so the
/// series ends at a boundary a completion crosses.
#[test]
fn a_checkpointed_deadline_run_matches_its_pinned_records() {
    let (_, fleet, cfg) = cases("unused")
        .into_iter()
        .find(|c| c.0 == "slo classes max8 cap16")
        .unwrap();
    let mut records = 0;
    let mut folded = 0;
    let out = simulate_checkpointed(&fleet, &cfg, 0.005, |snap| {
        records += 1;
        folded = fold(folded, fnv1a(snap.to_text().as_bytes()));
        true
    });
    assert!(matches!(out, ServeOutcome::Completed(r) if *r == simulate(&fleet, &cfg)));
    assert_eq!(
        (records, folded),
        CHECKPOINT_PIN,
        "pin: const CHECKPOINT_PIN: (usize, u64) = ({records}, 0x{folded:016x});"
    );
}
