//! The fault layer: timed availability events applied to the fleet
//! mid-run, for graceful-degradation studies.
//!
//! Two granularities are modelled, mirroring the core engine's analog
//! fault injection:
//!
//! * **chip-level** — a chip goes offline (and may later return): it
//!   finishes its in-flight batch but accepts no new work;
//! * **PLCG-level** — `count` of a chip's PLCGs are retired: the chip
//!   keeps serving from a `ChipConfig` with fewer groups, so service
//!   times degrade per the dataflow model (`⌈Wm/Ng⌉` grows).
//!
//! On top of independent events, [`FaultSpec`] describes **correlated**
//! scenarios in a fleet-size-generic grammar — rack-scoped failure
//! groups (`rack:A-B@T`), thermal-drift epochs that degrade a chip range
//! together and recalibrate at the epoch end
//! (`thermal:A-B@T1-T2:N`, via [`FaultKind::PlcgRestore`]), and a
//! repair-crew model (`crews:K:MEAN_S:SEED`) with bounded concurrent
//! repairs and a deterministic repair-time RNG stream — compiled per
//! fleet into a plain [`FaultScenario`]. DESIGN.md §13 documents the
//! model.

use crate::grammar::Lexer;
use albireo_parallel::{split_seed, stream_id};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Stream-id pass tag for repair-crew duration draws (workload streams
/// use `0x5E1..0x5E3`).
const REPAIR_PASS: u64 = 0x5E4;

/// What a fault event does to the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The chip stops accepting work (in-flight batch completes).
    ChipOffline {
        /// Fleet chip index.
        chip: usize,
    },
    /// A previously offline chip returns to service (fully healed: all
    /// PLCGs restored).
    ChipOnline {
        /// Fleet chip index.
        chip: usize,
    },
    /// `count` additional PLCGs of the chip are retired. If every PLCG is
    /// gone the chip behaves as offline.
    PlcgOffline {
        /// Fleet chip index.
        chip: usize,
        /// PLCGs newly retired.
        count: usize,
    },
    /// `count` previously retired PLCGs of the chip return to service
    /// (the end of a thermal-drift epoch: recalibration recovers the
    /// drifted groups without a full chip drain).
    PlcgRestore {
        /// Fleet chip index.
        chip: usize,
        /// PLCGs restored (clamped to the number currently down).
        count: usize,
    },
}

impl FaultKind {
    /// The fleet chip index this event targets.
    pub fn chip(&self) -> usize {
        match *self {
            FaultKind::ChipOffline { chip }
            | FaultKind::ChipOnline { chip }
            | FaultKind::PlcgOffline { chip, .. }
            | FaultKind::PlcgRestore { chip, .. } => chip,
        }
    }

    /// Same-instant ordering rank: capacity-removing events apply before
    /// capacity-restoring ones, so a chip that fails and is repaired at
    /// the same instant ends the instant online.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::ChipOffline { .. } => 0,
            FaultKind::PlcgOffline { .. } => 1,
            FaultKind::PlcgRestore { .. } => 2,
            FaultKind::ChipOnline { .. } => 3,
        }
    }

    /// PLCG count for the total order (0 for whole-chip events).
    fn count(&self) -> usize {
        match *self {
            FaultKind::PlcgOffline { count, .. } | FaultKind::PlcgRestore { count, .. } => count,
            _ => 0,
        }
    }
}

/// A fault event at an instant on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the event fires, s.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A timed fault scenario: the events applied during one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScenario {
    events: Vec<FaultEvent>,
}

impl FaultScenario {
    /// The healthy scenario (no faults).
    pub fn none() -> FaultScenario {
        FaultScenario::default()
    }

    /// Adds an event (builder style).
    pub fn with(mut self, at_s: f64, kind: FaultKind) -> FaultScenario {
        assert!(
            at_s >= 0.0 && at_s.is_finite(),
            "fault time must be finite and non-negative"
        );
        self.events.push(FaultEvent { at_s, kind });
        self
    }

    /// The events in the scenario's **total** order: by time, then kind
    /// rank (offline before restore before online at the same instant),
    /// then chip, then PLCG count. The order is independent of insertion
    /// order, so any permutation of the same event multiset drives the
    /// simulation identically — scenario construction order can never
    /// leak into a run digest.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| {
            (
                e.at_s.to_bits(),
                e.kind.rank(),
                e.kind.chip(),
                e.kind.count(),
            )
        });
        events
    }

    /// The events in insertion order (unsorted).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the scenario is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// One clause of a correlated-fault specification ([`FaultSpec`]).
#[derive(Debug, Clone, PartialEq)]
enum FaultClause {
    /// `fail:CHIP@T` — chip goes offline at `T`.
    Fail { chip: usize, at_s: f64 },
    /// `recover:CHIP@T` — chip returns (fully healed) at `T`.
    Recover { chip: usize, at_s: f64 },
    /// `degrade:CHIP@T:N` — `N` of the chip's PLCGs retire at `T`.
    Degrade {
        chip: usize,
        at_s: f64,
        count: usize,
    },
    /// `rack:A-B@T` — chips `A..=B` all go offline at `T` (rack loss).
    Rack { from: usize, to: usize, at_s: f64 },
    /// `thermal:A-B@T1-T2:N` — a thermal-drift epoch: chips `A..=B` each
    /// lose `N` PLCGs at `T1` and regain them at `T2` (recalibration).
    Thermal {
        from: usize,
        to: usize,
        start_s: f64,
        end_s: f64,
        count: usize,
    },
    /// `crews:K:MEAN_S:SEED` — `K` repair crews with exponential repair
    /// times (mean `MEAN_S` seconds, deterministic RNG stream from
    /// `SEED`) bring every failed chip back online.
    Crews {
        crews: usize,
        mean_s: f64,
        seed: u64,
    },
}

/// A correlated-fault scenario specification: comma-joined clauses that
/// [`FaultSpec::compile`] expands against a concrete fleet size into a
/// plain [`FaultScenario`].
///
/// Unlike [`FaultScenario`] — whose events name absolute chip indices of
/// one fleet — a spec is fleet-size-generic: the planner attaches one
/// spec to every candidate and compiles it per fleet, with out-of-range
/// chips skipped (a 2-chip candidate under `rack:0-7@0.01` simply loses
/// both chips). Compilation is a pure function of `(spec, fleet_size)`:
/// the repair-crew model draws from its own seeded stream, so the
/// scenario — and every run under it — is deterministic.
///
/// Grammar (`parse`/`Display` round-trip):
///
/// ```text
/// fail:CHIP@T             chip offline at T seconds
/// recover:CHIP@T          chip back online at T
/// degrade:CHIP@T:N        N PLCGs of the chip retire at T
/// rack:A-B@T              chips A..=B offline at T (rack-scoped loss)
/// thermal:A-B@T1-T2:N     chips A..=B each lose N PLCGs over [T1, T2)
/// crews:K:MEAN_S:SEED     K crews repair failed chips, exp(MEAN_S) each
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    clauses: Vec<FaultClause>,
}

impl FaultSpec {
    /// The empty spec (compiles to [`FaultScenario::none`]).
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// Whether the spec has no clauses.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Parses a comma-joined clause list (see the type docs for the
    /// grammar). An empty string is the empty spec.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let mut list = Lexer::new("fault spec", s, ',');
        let mut clauses = Vec::new();
        while let Some(clause) = list.next() {
            if clause.is_empty() {
                continue;
            }
            let clause = parse_clause(list.split(clause, ':'))?;
            let crews = |c: &FaultClause| matches!(c, FaultClause::Crews { .. });
            if crews(&clause) && clauses.iter().any(crews) {
                return Err(list.missing("at most one crews: clause"));
            }
            clauses.push(clause);
        }
        Ok(FaultSpec { clauses })
    }

    /// Refuses a clause that names no chip of a `fleet_size`-chip fleet:
    /// a single-chip clause at or past `fleet_size`, or a `rack:` or
    /// `thermal:` range that starts past it. A range overlapping the
    /// fleet passes, since [`FaultSpec::compile`] clips it; `crews:`
    /// names no chip.
    pub fn check_fleet(&self, fleet_size: usize) -> Result<(), String> {
        for clause in &self.clauses {
            let first = match *clause {
                FaultClause::Fail { chip, .. }
                | FaultClause::Recover { chip, .. }
                | FaultClause::Degrade { chip, .. } => chip,
                FaultClause::Rack { from, .. } | FaultClause::Thermal { from, .. } => from,
                FaultClause::Crews { .. } => continue,
            };
            if first >= fleet_size {
                let clause = FaultSpec {
                    clauses: vec![clause.clone()],
                };
                return Err(format!(
                    "fault clause `{clause}` names no chip of the {fleet_size}-chip fleet \
                     (chip indices are < {fleet_size})"
                ));
            }
        }
        Ok(())
    }

    /// Expands the spec against a concrete fleet of `fleet_size` chips.
    ///
    /// Clauses naming chips `>= fleet_size` contribute nothing (ranges
    /// are clipped). If a `crews:` clause is present, every compiled
    /// [`FaultKind::ChipOffline`] event is assigned — in the scenario's
    /// total event order — to the crew free earliest (ties to the lowest
    /// crew index); the repair completes an `exp(mean)` interval after
    /// the crew starts, and the chip returns via
    /// [`FaultKind::ChipOnline`]. Repair durations come from one
    /// `StdRng` seeded via the workspace split-seed contract, so the
    /// compiled scenario is a pure function of `(spec, fleet_size)`.
    pub fn compile(&self, fleet_size: usize) -> FaultScenario {
        let mut scenario = FaultScenario::none();
        let clip = |from: usize, to: usize| from..to.saturating_add(1).min(fleet_size);
        for clause in &self.clauses {
            match *clause {
                FaultClause::Fail { chip, at_s } if chip < fleet_size => {
                    scenario = scenario.with(at_s, FaultKind::ChipOffline { chip });
                }
                FaultClause::Recover { chip, at_s } if chip < fleet_size => {
                    scenario = scenario.with(at_s, FaultKind::ChipOnline { chip });
                }
                FaultClause::Degrade { chip, at_s, count } if chip < fleet_size => {
                    scenario = scenario.with(at_s, FaultKind::PlcgOffline { chip, count });
                }
                FaultClause::Rack { from, to, at_s } => {
                    for chip in clip(from, to) {
                        scenario = scenario.with(at_s, FaultKind::ChipOffline { chip });
                    }
                }
                FaultClause::Thermal {
                    from,
                    to,
                    start_s,
                    end_s,
                    count,
                } => {
                    for chip in clip(from, to) {
                        scenario = scenario
                            .with(start_s, FaultKind::PlcgOffline { chip, count })
                            .with(end_s, FaultKind::PlcgRestore { chip, count });
                    }
                }
                _ => {}
            }
        }
        if let Some(&FaultClause::Crews {
            crews,
            mean_s,
            seed,
        }) = self
            .clauses
            .iter()
            .find(|c| matches!(c, FaultClause::Crews { .. }))
        {
            scenario = dispatch_crews(scenario, crews, mean_s, seed);
        }
        scenario
    }
}

/// Assigns every chip failure in `scenario` to one of `crews` repair
/// crews and appends the resulting [`FaultKind::ChipOnline`] events. A
/// repair whose end rounds to +∞ (a mean the grammar accepts, such as
/// `1e308`) schedules no event: its chip stays down and its crew stays
/// busy, as a repair that never ends would leave them.
fn dispatch_crews(scenario: FaultScenario, crews: usize, mean_s: f64, seed: u64) -> FaultScenario {
    let mut rng = StdRng::seed_from_u64(split_seed(seed, stream_id(REPAIR_PASS, 0, 0)));
    // `free_at[i]` = when crew `i` can start its next repair.
    let mut free_at = vec![0.0f64; crews];
    let mut out = scenario.clone();
    // Walk failures in the scenario's total order so crew assignment —
    // and therefore every RNG draw — is permutation-invariant.
    for event in scenario.sorted_events() {
        let FaultKind::ChipOffline { chip } = event.kind else {
            continue;
        };
        let crew = (0..crews)
            .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
            .expect("crews >= 1");
        let start_s = free_at[crew].max(event.at_s);
        // Inverse-CDF exponential repair time; 1 - u ∈ (0, 1].
        let u: f64 = rng.random();
        let done_s = start_s + -(1.0 - u).ln() * mean_s;
        free_at[crew] = done_s;
        if done_s.is_finite() {
            out = out.with(done_s, FaultKind::ChipOnline { chip });
        }
    }
    out
}

/// Parses one `kind:args` clause from a `:`-splitting lexer over it.
fn parse_clause(mut lx: Lexer<'_>) -> Result<FaultClause, String> {
    let kind = lx.token("fault clause kind")?;
    // `A-B@`: a chip range whose start does not exceed its end.
    let range = |lx: &mut Lexer<'_>| -> Result<(usize, usize), String> {
        let from = lx.to('-').field("range start")?;
        let to = lx
            .to('@')
            .field_where("range end >= start", |to: &usize| *to >= from)?;
        Ok((from, to))
    };
    let clause = match kind {
        "fail" => FaultClause::Fail {
            chip: lx.to('@').field("chip index")?,
            at_s: lx.non_negative("time in s")?,
        },
        "recover" => FaultClause::Recover {
            chip: lx.to('@').field("chip index")?,
            at_s: lx.non_negative("time in s")?,
        },
        "degrade" => FaultClause::Degrade {
            chip: lx.to('@').field("chip index")?,
            at_s: lx.non_negative("time in s")?,
            count: lx.nonzero("PLCG count")?,
        },
        "rack" => {
            let (from, to) = range(&mut lx)?;
            FaultClause::Rack {
                from,
                to,
                at_s: lx.non_negative("time in s")?,
            }
        }
        "thermal" => {
            let (from, to) = range(&mut lx)?;
            let start_s = lx.to('-').non_negative("epoch start in s")?;
            FaultClause::Thermal {
                from,
                to,
                start_s,
                end_s: lx.field_where("epoch end after its start", |end: &f64| {
                    end.is_finite() && *end > start_s
                })?,
                count: lx.nonzero("PLCG count")?,
            }
        }
        "crews" => FaultClause::Crews {
            crews: lx.nonzero("crew count")?,
            mean_s: lx.positive("mean repair time in s")?,
            seed: lx.field("crew seed")?,
        },
        _ => {
            return Err(lx.expected(
                kind,
                "fault clause kind (fail, recover, degrade, rack, thermal, crews)",
            ))
        }
    };
    lx.end()?;
    Ok(clause)
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, clause) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match *clause {
                FaultClause::Fail { chip, at_s } => write!(f, "fail:{chip}@{at_s}")?,
                FaultClause::Recover { chip, at_s } => write!(f, "recover:{chip}@{at_s}")?,
                FaultClause::Degrade { chip, at_s, count } => {
                    write!(f, "degrade:{chip}@{at_s}:{count}")?
                }
                FaultClause::Rack { from, to, at_s } => write!(f, "rack:{from}-{to}@{at_s}")?,
                FaultClause::Thermal {
                    from,
                    to,
                    start_s,
                    end_s,
                    count,
                } => write!(f, "thermal:{from}-{to}@{start_s}-{end_s}:{count}")?,
                FaultClause::Crews {
                    crews,
                    mean_s,
                    seed,
                } => write!(f, "crews:{crews}:{mean_s}:{seed}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_sorts_by_time() {
        let s = FaultScenario::none()
            .with(2.0, FaultKind::ChipOnline { chip: 0 })
            .with(1.0, FaultKind::ChipOffline { chip: 0 });
        let events = s.sorted_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, FaultKind::ChipOffline { chip: 0 });
        assert!(!s.is_empty());
        assert!(FaultScenario::none().is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_fault_time_rejected() {
        let _ = FaultScenario::none().with(-1.0, FaultKind::ChipOffline { chip: 0 });
    }

    #[test]
    fn equal_time_events_sort_by_rank_then_chip_then_count() {
        let t = 0.5;
        let s = FaultScenario::none()
            .with(t, FaultKind::ChipOnline { chip: 0 })
            .with(t, FaultKind::PlcgRestore { chip: 1, count: 2 })
            .with(t, FaultKind::PlcgOffline { chip: 1, count: 1 })
            .with(t, FaultKind::ChipOffline { chip: 2 })
            .with(t, FaultKind::ChipOffline { chip: 0 });
        let kinds: Vec<FaultKind> = s.sorted_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::ChipOffline { chip: 0 },
                FaultKind::ChipOffline { chip: 2 },
                FaultKind::PlcgOffline { chip: 1, count: 1 },
                FaultKind::PlcgRestore { chip: 1, count: 2 },
                FaultKind::ChipOnline { chip: 0 },
            ]
        );
    }

    #[test]
    fn sorted_events_are_permutation_invariant() {
        let events = [
            (0.5, FaultKind::ChipOffline { chip: 1 }),
            (0.5, FaultKind::ChipOnline { chip: 1 }),
            (0.1, FaultKind::PlcgOffline { chip: 0, count: 3 }),
            (0.5, FaultKind::PlcgOffline { chip: 0, count: 1 }),
        ];
        let forward = events
            .iter()
            .fold(FaultScenario::none(), |s, &(t, k)| s.with(t, k));
        let backward = events
            .iter()
            .rev()
            .fold(FaultScenario::none(), |s, &(t, k)| s.with(t, k));
        assert_eq!(forward.sorted_events(), backward.sorted_events());
    }

    #[test]
    fn fault_spec_round_trips_through_display() {
        let text = "fail:2@0.01,recover:2@0.05,degrade:0@0.02:3,rack:4-7@0.03,\
                    thermal:0-3@0.01-0.04:2,crews:2:0.5:99";
        let spec = FaultSpec::parse(text).unwrap();
        assert_eq!(spec.to_string(), text);
        assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert_eq!(FaultSpec::none().to_string(), "");
    }

    #[test]
    fn fault_spec_rejects_malformed_clauses() {
        for bad in [
            "explode:1@0.1",
            "fail:1",
            "fail:x@0.1",
            "fail:1@-2",
            "fail:1@inf",
            "degrade:1@0.1:0",
            "rack:5-2@0.1",
            "thermal:0-1@0.5-0.2:1",
            "crews:0:0.5:1",
            "crews:2:0:1",
            "crews:2:0.5",
            "crews:1:0.5:7,crews:2:0.5:8",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn check_fleet_refuses_clauses_naming_no_chip() {
        let check = |spec: &str| FaultSpec::parse(spec).unwrap().check_fleet(2);
        let err = check("fail:7@0.1").unwrap_err();
        assert!(
            err.contains("`fail:7@0.1` names no chip of the 2-chip fleet"),
            "{err}"
        );
        for bad in [
            "fail:2@0",
            "recover:2@0.1",
            "degrade:5@0.1:1",
            "rack:2-5@0",
            "thermal:3-4@0-1:2",
            "crews:1:0.5:7,fail:9@0",
        ] {
            assert!(check(bad).is_err(), "accepted `{bad}`");
        }
        // Ranges overlapping the fleet are clipped by `compile` instead.
        for ok in [
            "fail:1@0",
            "rack:1-7@0",
            "thermal:0-3@60-90:2",
            "crews:2:20:11",
            "",
        ] {
            assert_eq!(check(ok), Ok(()), "{ok}");
        }
    }

    #[test]
    fn compile_clips_out_of_range_chips() {
        let spec = FaultSpec::parse("rack:0-7@0.01,fail:9@0.02,degrade:1@0.03:2").unwrap();
        let scenario = spec.compile(3);
        // Rack clipped to chips 0..=2, fail:9 dropped, degrade kept.
        assert_eq!(scenario.len(), 4);
        assert!(
            scenario.events().iter().all(|e| e.kind.chip() < 3),
            "{:?}",
            scenario.events()
        );
        assert!(spec.compile(0).is_empty());
    }

    #[test]
    fn thermal_epoch_degrades_then_restores_each_chip() {
        let scenario = FaultSpec::parse("thermal:0-1@0.1-0.4:2")
            .unwrap()
            .compile(4);
        let events = scenario.sorted_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, FaultKind::PlcgOffline { chip: 0, count: 2 });
        assert_eq!(events[0].at_s, 0.1);
        assert_eq!(events[3].kind, FaultKind::PlcgRestore { chip: 1, count: 2 });
        assert_eq!(events[3].at_s, 0.4);
    }

    #[test]
    fn crews_repair_every_failure_deterministically() {
        let spec = FaultSpec::parse("rack:0-2@0.01,crews:1:0.5:42").unwrap();
        let a = spec.compile(4);
        let b = spec.compile(4);
        assert_eq!(a, b, "crew dispatch must be deterministic");
        let repairs: Vec<&FaultEvent> = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::ChipOnline { .. }))
            .collect();
        assert_eq!(repairs.len(), 3, "every failed chip gets repaired");
        // One crew: repairs are strictly sequential (no overlap), so the
        // completion times are distinct and increasing in dispatch order.
        let mut times: Vec<f64> = repairs.iter().map(|e| e.at_s).collect();
        let sorted = {
            let mut t = times.clone();
            t.sort_by(f64::total_cmp);
            t
        };
        assert_eq!(times, sorted);
        times.dedup();
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t > 0.01));
        // More crews finish the fleet repair no later.
        let fast = FaultSpec::parse("rack:0-2@0.01,crews:3:0.5:42")
            .unwrap()
            .compile(4);
        let last = |s: &FaultScenario| {
            s.events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::ChipOnline { .. }))
                .map(|e| e.at_s)
                .fold(0.0, f64::max)
        };
        assert!(last(&fast) <= last(&a));
    }

    #[test]
    fn a_repair_that_never_ends_leaves_its_chip_down_and_its_crew_busy() {
        // At a 1e308 s mean, a repair ends past f64::MAX whenever its
        // exponential draw exceeds about 1.8, as seed 6's first does.
        let down = FaultSpec::parse("fail:0@0.001,crews:1:1e308:6")
            .unwrap()
            .compile(2);
        assert_eq!(down.events().len(), 1, "no repair event: {down:?}");
        // One crew works three failures in chip order; after a repair
        // that never ends it starts no other, so the repaired chips are a
        // prefix of the three, each at a finite time.
        let mut prefixes = Vec::new();
        for seed in 1..=12 {
            let scenario = FaultSpec::parse(&format!("rack:0-2@0.01,crews:1:1e308:{seed}"))
                .unwrap()
                .compile(4);
            let repaired: Vec<usize> = scenario
                .sorted_events()
                .iter()
                .filter_map(|e| match e.kind {
                    FaultKind::ChipOnline { chip } => {
                        assert!(e.at_s.is_finite(), "seed {seed}: {e:?}");
                        Some(chip)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                repaired,
                (0..repaired.len()).collect::<Vec<_>>(),
                "seed {seed}"
            );
            prefixes.push(repaired.len());
        }
        // Seeds whose first, second or third repair never ends, and one
        // whose three repairs all end.
        assert_eq!(prefixes, [2, 2, 2, 1, 1, 0, 1, 3, 2, 0, 1, 1]);
    }
}
