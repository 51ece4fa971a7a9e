//! Property tests pinning the planner grammar's round-trip contract:
//! for every [`PlanSpec`], [`SloSpec`], and
//! [`AutoscalePolicy`](albireo_runtime::AutoscalePolicy) the canonical
//! `Display` form parses back to the *identical* value — including
//! every `f64` bit, because `Display` uses `{}` (Rust's shortest
//! round-trip float representation) throughout. This is what makes a
//! plan reproducible from its one-line spec echo alone.
//!
//! The never-panic half damages those canonical lines — and a real
//! resume snapshot — and requires every grammar to return rather than
//! panic: an `Ok` must be a value whose canonical form parses back to
//! itself with every time finite, and a damaged snapshot must be an
//! `Err`. A snapshot re-digested around a rewritten chip, network or
//! class index must resume or be refused — refused whenever the index
//! is out of range. CI runs it at `PROPTEST_CASES=2048`.

use albireo_nn::zoo;
use albireo_plan::{PlanSpec, SloSpec};
use albireo_runtime::{
    resume_checkpointed, simulate_checkpointed, ArrivalProcess, AutoscalePolicy, BatchPolicy,
    ClassSpec, FaultSpec, FleetConfig, ServeConfig, SimSnapshot, Workload,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::fmt::Debug;
use std::sync::OnceLock;

fn slo_strategy() -> impl Strategy<Value = SloSpec> {
    (
        0.05f64..100.0,
        prop_oneof![1 => Just(None), 2 => (0.5f64..1.0).prop_map(Some)],
        prop_oneof![1 => Just(0.0f64), 2 => 1e-4f64..0.5],
    )
        .prop_map(|(p99_ms, min_attainment, max_shed_rate)| SloSpec {
            p99_ms,
            min_attainment,
            max_shed_rate,
        })
}

fn autoscale_strategy() -> impl Strategy<Value = AutoscalePolicy> {
    prop_oneof![
        1 => Just(AutoscalePolicy::None),
        1 => Just(AutoscalePolicy::Static),
        3 => (1usize..64, 0.0f64..0.05, 1usize..8).prop_map(|(up_depth, warmup_s, min_chips)| {
            AutoscalePolicy::Elastic { up_depth, warmup_s, min_chips }
        }),
    ]
}

fn arrival_strategy() -> impl Strategy<Value = ArrivalProcess> {
    let rate = 1.0f64..20_000.0;
    prop_oneof![
        2 => rate.clone().prop_map(|rate_rps| ArrivalProcess::Poisson { rate_rps }),
        1 => (rate.clone(), 1.001f64..20.0, 1e-3f64..0.1, 1e-3f64..0.5).prop_map(
            |(rate_rps, burst, on_s, off_s)| ArrivalProcess::Bursty { rate_rps, burst, on_s, off_s }
        ),
        1 => (rate.clone(), 1e-3f64..1.0, 0.01f64..100.0).prop_map(
            |(rate_rps, amplitude, period_s)| ArrivalProcess::Diurnal { rate_rps, amplitude, period_s }
        ),
        1 => (rate, 1.001f64..20.0, 0.0f64..1.0, 1e-3f64..1.0).prop_map(
            |(rate_rps, spike, at_s, decay_s)| ArrivalProcess::FlashCrowd { rate_rps, spike, at_s, decay_s }
        ),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        arrival_strategy(),
        prop::collection::vec(0.001f64..100.0, 1..4),
        prop::collection::vec(
            (
                0.001f64..100.0,
                prop_oneof![1 => Just(None), 1 => (0.1f64..50.0).prop_map(Some)],
            ),
            0..3,
        ),
    )
        .prop_map(|(process, mix_weights, class_params)| {
            let names = ["interactive", "batch", "bulk"];
            Workload {
                process,
                mix: mix_weights.into_iter().enumerate().collect(),
                classes: class_params
                    .into_iter()
                    .enumerate()
                    .map(|(i, (weight, slo_ms))| match slo_ms {
                        Some(slo) => ClassSpec::with_slo(names[i], weight, slo),
                        None => ClassSpec::best_effort(names[i], weight),
                    })
                    .collect(),
            }
        })
}

/// Fault scenarios built from generated clause strings (the grammar is
/// the canonical form, so parse(join(clauses)) both constructs the spec
/// and exercises the parser). Times render via `{}` — bit-exact through
/// a Display/parse cycle like every other float in the spec line.
fn faults_strategy() -> impl Strategy<Value = FaultSpec> {
    let clause = prop_oneof![
        (0usize..8, 0.0f64..5.0).prop_map(|(c, t)| format!("fail:{c}@{t}")),
        (0usize..8, 0.0f64..5.0).prop_map(|(c, t)| format!("recover:{c}@{t}")),
        (0usize..8, 0.0f64..5.0, 1usize..4).prop_map(|(c, t, n)| format!("degrade:{c}@{t}:{n}")),
        (0usize..4, 0usize..4, 0.0f64..5.0)
            .prop_map(|(a, b, t)| { format!("rack:{}-{}@{t}", a.min(b), a.max(b)) }),
        (0usize..4, 0usize..4, 0.0f64..5.0, 1e-3f64..5.0, 1usize..4).prop_map(
            |(a, b, start, len, n)| {
                format!(
                    "thermal:{}-{}@{start}-{}:{n}",
                    a.min(b),
                    a.max(b),
                    start + len
                )
            }
        ),
    ];
    (
        prop::collection::vec(clause, 0..4),
        prop_oneof![
            2 => Just(None),
            1 => (1usize..4, 1e-3f64..1.0, 0u64..1_000_000).prop_map(Some),
        ],
    )
        .prop_map(|(mut clauses, crews)| {
            if let Some((k, mean_s, seed)) = crews {
                clauses.push(format!("crews:{k}:{mean_s}:{seed}"));
            }
            if clauses.is_empty() {
                FaultSpec::none()
            } else {
                FaultSpec::parse(&clauses.join(",")).expect("generated clauses are valid")
            }
        })
}

fn plan_strategy() -> impl Strategy<Value = PlanSpec> {
    let search_axes = (
        // (kinds bitmask over 3 choices, max_chips)
        (1usize..8, 1usize..5),
        // policies: immediate always; optionally size:N and deadline
        (
            prop::bool::ANY,
            2usize..16,
            prop::bool::ANY,
            (1e-6f64..1e-2, 1usize..16),
        ),
        // autoscale: static always; optionally none and elastic
        (
            prop::bool::ANY,
            prop::bool::ANY,
            (1usize..32, 0.0f64..0.01, 1usize..4),
        ),
        // queue capacity
        prop_oneof![3 => (1usize..4096).prop_map(Some), 1 => Just(None)],
    );
    let run_shape = (
        10usize..2000,
        0.0f64..1.0, // screen fraction of requests
        0u64..u64::MAX,
        1usize..4,
    );
    (
        workload_strategy(),
        slo_strategy(),
        search_axes,
        run_shape,
        faults_strategy(),
    )
        .prop_map(|(workload, slo, axes, shape, faults)| {
            let ((kind_mask, max_chips), policy_axes, scale_axes, queue) = axes;
            let (requests, screen_frac, seed, replicas) = shape;
            let all_kinds = ["albireo_9:C", "albireo_27:C", "albireo_9:A"];
            let chip_kinds: Vec<String> = all_kinds
                .iter()
                .enumerate()
                .filter(|(i, _)| kind_mask & (1 << i) != 0)
                .map(|(_, k)| k.to_string())
                .collect();
            let (with_size, size, with_deadline, (max_wait_s, max_size)) = policy_axes;
            let mut policies = vec![BatchPolicy::Immediate];
            if with_size {
                policies.push(BatchPolicy::SizeN { size });
            }
            if with_deadline {
                policies.push(BatchPolicy::Deadline {
                    max_wait_s,
                    max_size,
                });
            }
            let (with_none, with_elastic, (up_depth, warmup_s, min_chips)) = scale_axes;
            let mut autoscale = vec![AutoscalePolicy::Static];
            if with_none {
                autoscale.push(AutoscalePolicy::None);
            }
            if with_elastic {
                autoscale.push(AutoscalePolicy::Elastic {
                    up_depth,
                    warmup_s,
                    min_chips,
                });
            }
            let screen_requests = 1 + (screen_frac * (requests - 1) as f64) as usize;
            PlanSpec {
                workload,
                requests,
                screen_requests: screen_requests.min(requests),
                seed,
                replicas,
                slo,
                chip_kinds,
                max_chips,
                policies,
                queue_capacity: queue.unwrap_or(usize::MAX),
                autoscale,
                faults,
            }
        })
}

proptest! {
    /// `SloSpec`: parse(display(x)) == x, bit-exact.
    #[test]
    fn slo_round_trips(slo in slo_strategy()) {
        let line = slo.to_string();
        let back = SloSpec::parse(&line).unwrap();
        prop_assert_eq!(back, slo);
    }

    /// `AutoscalePolicy`: parse(display(x)) == x, bit-exact (warm-up
    /// seconds are stored and rendered in the same unit, so no
    /// conversion can lose bits).
    #[test]
    fn autoscale_round_trips(policy in autoscale_strategy()) {
        let line = policy.to_string();
        let back = AutoscalePolicy::parse(&line).unwrap();
        prop_assert_eq!(back, policy);
    }

    /// `PlanSpec`: the full grammar — workload, SLO, and every search
    /// axis — survives a Display/parse cycle exactly.
    #[test]
    fn plan_spec_round_trips(spec in plan_strategy()) {
        prop_assert!(spec.validate().is_ok());
        let line = spec.to_string();
        let back = PlanSpec::parse(&line).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// The canonical form is a fixed point: display(parse(display(x)))
    /// == display(x).
    #[test]
    fn display_is_canonical(spec in plan_strategy()) {
        let line = spec.to_string();
        let reparsed = PlanSpec::parse(&line).unwrap();
        prop_assert_eq!(reparsed.to_string(), line);
    }
}

/// Bytes a mutation may overwrite with: every separator the grammars use.
const SEPARATORS: &[u8] = b":;,|@-=.";
/// Values a mutation may splice over a field.
const SPLICES: &[&str] = &["nan", "inf", "-1", "18446744073709551616"];

/// One damage to a canonical line, at a position taken modulo its length.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `at` bytes.
    Truncate(usize),
    /// Overwrite one byte with a separator.
    Overwrite(usize, u8),
    /// Replace the field (run of `[A-Za-z0-9_.]`) around a byte with a
    /// hostile value.
    Splice(usize, &'static str),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..4096).prop_map(Mutation::Truncate),
        (0usize..4096, 0..SEPARATORS.len())
            .prop_map(|(at, i)| Mutation::Overwrite(at, SEPARATORS[i])),
        (0usize..4096, 0..SPLICES.len()).prop_map(|(at, i)| Mutation::Splice(at, SPLICES[i])),
    ]
}

fn mutate(line: &str, mutation: &Mutation) -> String {
    let mut bytes = line.as_bytes().to_vec();
    match *mutation {
        Mutation::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
        Mutation::Overwrite(_, _) if bytes.is_empty() => {}
        Mutation::Overwrite(at, b) => {
            let at = at % bytes.len();
            bytes[at] = b;
        }
        Mutation::Splice(at, value) => {
            let word = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'.';
            let at = at % (bytes.len() + 1);
            let start = bytes[..at]
                .iter()
                .rposition(|b| !word(b))
                .map_or(0, |i| i + 1);
            let end = bytes[at..]
                .iter()
                .position(|b| !word(b))
                .map_or(bytes.len(), |i| at + i);
            bytes.splice(start..end, value.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `line`; an `Ok` must render to a line that parses back to the
/// same value, with every float `finite` returns finite.
fn reparses<T: PartialEq + Debug>(
    line: &str,
    parse: impl Fn(&str) -> Result<T, String>,
    render: impl Fn(&T) -> String,
    floats: impl Fn(&T) -> Vec<f64>,
) -> Result<(), TestCaseError> {
    if let Ok(value) = parse(line) {
        let canonical = render(&value);
        let back = parse(&canonical);
        prop_assert!(
            back.as_ref() == Ok(&value),
            "`{line}` -> `{canonical}` -> {back:?}"
        );
        let floats = floats(&value);
        prop_assert!(floats.iter().all(|f| f.is_finite()), "`{line}`: {floats:?}");
    }
    Ok(())
}

fn arrival_floats(p: &ArrivalProcess) -> Vec<f64> {
    match *p {
        ArrivalProcess::Poisson { rate_rps } => vec![rate_rps],
        ArrivalProcess::Bursty {
            rate_rps,
            burst,
            on_s,
            off_s,
        } => vec![rate_rps, burst, on_s, off_s],
        ArrivalProcess::Diurnal {
            rate_rps,
            amplitude,
            period_s,
        } => vec![rate_rps, amplitude, period_s],
        ArrivalProcess::FlashCrowd {
            rate_rps,
            spike,
            at_s,
            decay_s,
        } => vec![rate_rps, spike, at_s, decay_s],
        _ => Vec::new(),
    }
}

fn policy_floats(p: &BatchPolicy) -> Vec<f64> {
    match *p {
        BatchPolicy::Deadline { max_wait_s, .. } => vec![max_wait_s],
        _ => Vec::new(),
    }
}

fn autoscale_floats(p: &AutoscalePolicy) -> Vec<f64> {
    match *p {
        AutoscalePolicy::Elastic { warmup_s, .. } => vec![warmup_s],
        _ => Vec::new(),
    }
}

fn class_floats(classes: &[ClassSpec]) -> Vec<f64> {
    classes
        .iter()
        .flat_map(|c| [c.weight, c.slo_ms.unwrap_or(1.0)])
        .collect()
}

fn slo_floats(s: &SloSpec) -> Vec<f64> {
    vec![s.p99_ms, s.min_attainment.unwrap_or(1.0), s.max_shed_rate]
}

/// Compiling a fault spec asserts every event time is finite and
/// non-negative, so the compiled event times stand in for the clauses'.
fn fault_floats(f: &FaultSpec) -> Vec<f64> {
    f.compile(8).events().iter().map(|e| e.at_s).collect()
}

fn plan_floats(p: &PlanSpec) -> Vec<f64> {
    let mut floats = arrival_floats(&p.workload.process);
    floats.extend(p.workload.mix.iter().map(|&(_, w)| w));
    floats.extend(class_floats(&p.workload.classes));
    floats.extend(slo_floats(&p.slo));
    floats.extend(p.policies.iter().flat_map(policy_floats));
    floats.extend(p.autoscale.iter().flat_map(autoscale_floats));
    floats.extend(fault_floats(&p.faults));
    floats
}

fn render_classes(classes: &[ClassSpec]) -> String {
    let entry = |c: &ClassSpec| match c.slo_ms {
        Some(slo) => format!("{}:{}:{slo}", c.name, c.weight),
        None => format!("{}:{}", c.name, c.weight),
    };
    classes.iter().map(entry).collect::<Vec<_>>().join(",")
}

fn fleet_strategy() -> impl Strategy<Value = String> {
    let kinds = [
        "albireo_9",
        "albireo_27",
        "winograd",
        "gemm_27",
        "deap",
        "pixel",
        "ng4",
        "eyeriss",
    ];
    let entry = (0..kinds.len(), 0usize..4, prop::bool::ANY);
    prop::collection::vec(entry, 1..4).prop_map(move |entries| {
        let line = entries.iter().enumerate().map(|(i, &(k, est, alias))| {
            let tag = match (kinds[k], est) {
                ("eyeriss", _) | (_, 0) => String::new(),
                (_, e) => format!(":{}", ["C", "M", "A"][e - 1]),
            };
            let alias = if alias {
                format!("chip{i}=")
            } else {
                String::new()
            };
            format!("{alias}{}{tag}", kinds[k])
        });
        line.collect::<Vec<_>>().join(", ")
    })
}

/// One real resume snapshot: a faulted, multi-tenant run with SLO
/// classes, so the optional alert section is present too.
fn snapshot_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let fleet = FleetConfig::paper_pair();
        let mut cfg = ServeConfig::poisson(6000.0, 400, 9, 0);
        cfg.workload.classes = ClassSpec::parse_list("vip:3:2,batch:1", None).unwrap();
        cfg.faults = FaultSpec::parse("thermal:0-1@0.01-0.03:2")
            .unwrap()
            .compile(2);
        let mut text = String::new();
        simulate_checkpointed(&fleet, &cfg, 0.02, |snap| {
            text = snap.to_text();
            false
        });
        assert!(SimSnapshot::parse(&text).is_ok());
        text
    })
}

/// An overloaded two-class run: its snapshot holds queued requests and
/// in-flight batches, so every index a snapshot carries is present.
fn busy_run() -> (FleetConfig, ServeConfig) {
    let mut cfg = ServeConfig::poisson(40_000.0, 600, 9, 0);
    cfg.workload.mix = vec![(0, 1.0), (1, 1.0)];
    cfg.workload.classes = ClassSpec::parse_list("vip:3:2,batch:1", None).unwrap();
    (FleetConfig::paper_pair(), cfg)
}

/// The snapshot of [`busy_run`] at its first checkpoint.
fn busy_snapshot_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let (fleet, cfg) = busy_run();
        let mut text = String::new();
        simulate_checkpointed(&fleet, &cfg, 0.005, |snap| {
            text = snap.to_text();
            false
        });
        text
    })
}

proptest! {
    /// Every grammar returns on damaged canonical lines, and whatever
    /// it still accepts re-renders and re-parses to itself.
    #[test]
    fn damaged_spec_lines_never_panic(
        spec in plan_strategy(),
        m in mutation_strategy(),
        m2 in mutation_strategy(),
    ) {
        reparses(&mutate(&spec.to_string(), &m), PlanSpec::parse, PlanSpec::to_string, plan_floats)?;
        let line = mutate(&mutate(&spec.to_string(), &m), &m2);
        reparses(&line, PlanSpec::parse, PlanSpec::to_string, plan_floats)?;
        reparses(&mutate(&spec.slo.to_string(), &m), SloSpec::parse, SloSpec::to_string, slo_floats)?;
        reparses(&mutate(&spec.faults.to_string(), &m), FaultSpec::parse, FaultSpec::to_string, fault_floats)?;
        let classes = render_classes(&spec.workload.classes);
        let parse_classes = |l: &str| ClassSpec::parse_list(l, None);
        reparses(&mutate(&classes, &m), parse_classes, |c| render_classes(c), |c| class_floats(c))?;
        let rate = spec.workload.process.mean_rate_rps();
        let parse_arrival = |l: &str| ArrivalProcess::parse(l, rate);
        reparses(&mutate(&spec.workload.process.spec(), &m), parse_arrival, ArrivalProcess::spec, arrival_floats)?;
        for policy in &spec.policies {
            reparses(&mutate(&policy.to_string(), &m), BatchPolicy::parse, BatchPolicy::to_string, policy_floats)?;
            let us = |p: &BatchPolicy| match *p {
                BatchPolicy::Deadline { max_wait_s, max_size } => format!("deadline:{}:{max_size}", max_wait_s * 1e6),
                _ => p.to_string(),
            };
            prop_assert!(BatchPolicy::parse(&mutate(&us(policy), &m)).map_or(true, |p| policy_floats(&p)[..].iter().all(|f| f.is_finite() && *f > 0.0)));
        }
        for policy in &spec.autoscale {
            reparses(&mutate(&policy.to_string(), &m), AutoscalePolicy::parse, AutoscalePolicy::to_string, autoscale_floats)?;
        }
    }

    /// A damaged fleet line is a fleet or an error, never a panic.
    #[test]
    fn damaged_fleet_lines_never_panic(line in fleet_strategy(), m in mutation_strategy()) {
        prop_assert!(FleetConfig::parse(&line, zoo::serving_models()).is_ok(), "{line}");
        if let Ok(fleet) = FleetConfig::parse(&mutate(&line, &m), zoo::serving_models()) {
            prop_assert!(!fleet.chips.is_empty());
        }
    }

    /// Any truncation, flipped bit or separator splice of a snapshot is
    /// refused, by the self-digest or by the line grammar.
    #[test]
    fn damaged_snapshots_are_refused(
        at in 0usize..1_000_000,
        bit in 0u32..8,
        m in mutation_strategy(),
    ) {
        let text = snapshot_text();
        let cut = at % text.len();
        prop_assert!(SimSnapshot::parse(&text[..cut]).is_err(), "truncated at {cut}");
        let mut flipped = text.as_bytes().to_vec();
        flipped[cut] ^= 1 << bit;
        if let Ok(flipped) = String::from_utf8(flipped) {
            prop_assert!(SimSnapshot::parse(&flipped).is_err(), "bit {bit} of byte {cut}");
        }
        let mutated = mutate(text, &m);
        prop_assert!(mutated == text || SimSnapshot::parse(&mutated).is_err(), "{m:?}");
    }

    /// A re-digested snapshot whose chip, network or class index was
    /// rewritten to anything still parses, and resuming it returns
    /// rather than panics — with an error whenever the index falls
    /// outside the fleet or the class table.
    #[test]
    fn redigested_indices_resume_or_are_refused(
        pick in 0usize..1024,
        warmed in prop::bool::ANY,
        value in prop_oneof![4 => 0usize..6, 1 => Just(usize::MAX)],
    ) {
        let (fleet, cfg) = busy_run();
        let (body, _) = busy_snapshot_text().rsplit_once("digest ").unwrap();
        let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
        // Every (line, field, table size) that holds an index: a request's
        // network and class, a completion's chip.
        let mut sites = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields[0] {
                "next_arrival" | "req" if fields.len() == 5 => {
                    sites.push((i, 3, fleet.models.len()));
                    sites.push((i, 4, cfg.workload.classes.len()));
                }
                "event" if fields[4] == "completion" => sites.push((i, 5, fleet.chips.len())),
                _ => {}
            }
        }
        prop_assert!(sites.len() >= 6, "the snapshot should hold requests and completions");
        let (line, field, size) = sites[pick % sites.len()];
        let mut fields: Vec<String> = lines[line].split(' ').map(str::to_string).collect();
        fields[field] = value.to_string();
        if field == 5 && warmed {
            fields[4] = "warmed".to_string();
        }
        lines[line] = fields.join(" ");
        let forged = lines.join("\n") + "\n";
        let forged = format!("{forged}digest {:016x}\n", albireo_obs::fnv1a(forged.as_bytes()));
        let snap = SimSnapshot::parse(&forged).map_err(TestCaseError::fail)?;
        let resumed = resume_checkpointed(&fleet, &cfg, &snap, 0.0, |_| true);
        if value >= size {
            prop_assert!(resumed.is_err(), "index {value} of {size} at `{}`", lines[line]);
        }
    }
}
