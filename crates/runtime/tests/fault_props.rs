//! Property tests pinning the fault layer's permutation invariance: a
//! [`FaultScenario`] is a *set* of timed events, so the order clauses
//! were written in — by a user, the `FaultSpec` compiler, or the
//! repair-crew dispatcher — must never leak into the sorted event order
//! or, transitively, into a run digest. This is what makes fault specs
//! safely composable (clauses compiled in any order, planner-attached
//! specs) without re-auditing determinism at every call site.

use albireo_runtime::{simulate, FaultKind, FaultScenario, FleetConfig, ServeConfig};
use proptest::prelude::*;

/// Arbitrary fault events over a 2-chip fleet: times draw from a small
/// pool so same-instant ties are common, and every `FaultKind` variant
/// appears.
fn events() -> impl Strategy<Value = Vec<(f64, FaultKind)>> {
    prop::collection::vec(
        (
            (0u32..8).prop_map(|t| t as f64 * 0.01),
            (0usize..2, 0u8..4, 1usize..4).prop_map(|(chip, kind, count)| match kind {
                0 => FaultKind::ChipOffline { chip },
                1 => FaultKind::ChipOnline { chip },
                2 => FaultKind::PlcgOffline { chip, count },
                _ => FaultKind::PlcgRestore { chip, count },
            }),
        ),
        0..12,
    )
}

/// A permutation of `0..n` derived from a shuffle seed.
fn permute<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out: Vec<T> = items.to_vec();
    // Deterministic Fisher–Yates driven by a splitmix-style sequence.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for i in (1..out.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.swap(i, (state % (i as u64 + 1)) as usize);
    }
    out
}

proptest! {
    /// Any permutation of the same event multiset sorts identically.
    #[test]
    fn sorted_events_ignore_insertion_order(evs in events(), seed in 0u64..u64::MAX) {
        let forward = evs
            .iter()
            .fold(FaultScenario::none(), |s, &(t, k)| s.with(t, k));
        let shuffled = permute(&evs, seed)
            .iter()
            .fold(FaultScenario::none(), |s, &(t, k)| s.with(t, k));
        prop_assert_eq!(forward.sorted_events(), shuffled.sorted_events());
    }

    /// Any permutation of the same scenario drives the simulation to a
    /// byte-identical report (same digest, same JSON).
    #[test]
    fn run_digest_ignores_scenario_insertion_order(evs in events(), seed in 0u64..u64::MAX) {
        let fleet = FleetConfig::paper_pair();
        let mut cfg = ServeConfig::poisson(3000.0, 120, 42, 0);
        cfg.faults = evs
            .iter()
            .fold(FaultScenario::none(), |s, &(t, k)| s.with(t, k));
        let a = simulate(&fleet, &cfg);
        cfg.faults = permute(&evs, seed)
            .iter()
            .fold(FaultScenario::none(), |s, &(t, k)| s.with(t, k));
        let b = simulate(&fleet, &cfg);
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.to_json(), b.to_json());
    }
}
