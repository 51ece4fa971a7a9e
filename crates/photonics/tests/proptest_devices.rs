//! Property-based tests on the photonic device models: passivity,
//! monotonicity, and reciprocity invariants that must hold for any
//! physically meaningful parameterization.

use albireo_photonics::link::LinkBudget;
use albireo_photonics::mrr::Microring;
use albireo_photonics::noise::NoiseParams;
use albireo_photonics::photodiode::BalancedPd;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::thermal::ThermalModel;
use albireo_photonics::units::Db;
use albireo_photonics::ybranch::{BroadcastTree, YBranch};
use albireo_photonics::OpticalParams;
use proptest::prelude::*;

proptest! {
    /// Turning a ring off (detuning it half an FSR) always reduces its drop
    /// transmission and increases its through transmission.
    #[test]
    fn ring_off_state_is_transparent(k2 in 0.01f64..0.3) {
        let ring = Microring::with_k2(&OpticalParams::paper(), k2);
        let off = ring.fsr() / 2.0;
        prop_assert!(ring.drop_transmission(off) < ring.drop_transmission(0.0));
        prop_assert!(ring.through_transmission(off) > ring.through_transmission(0.0));
    }

    /// FWHM from Eq. 9 matches the −3 dB width observed in the computed
    /// spectrum to within a few percent, for any coupling.
    #[test]
    fn fwhm_consistent_with_spectrum(k2 in 0.01f64..0.2) {
        let ring = Microring::with_k2(&OpticalParams::paper(), k2);
        let half = ring.drop_transmission(ring.fwhm() / 2.0);
        let rel = (half - ring.drop_peak() / 2.0).abs() / ring.drop_peak();
        prop_assert!(rel < 0.06, "k²={k2}: rel={rel}");
    }

    /// Finesse increases monotonically as coupling weakens.
    #[test]
    fn finesse_monotone_in_coupling(k2 in 0.02f64..0.3) {
        let p = OpticalParams::paper();
        let weak = Microring::with_k2(&p, k2 / 2.0);
        let strong = Microring::with_k2(&p, k2);
        prop_assert!(weak.finesse() > strong.finesse());
    }

    /// Broadcast trees: per-output power × fanout never exceeds the input.
    #[test]
    fn broadcast_tree_passivity(fanout in 1usize..64) {
        let tree = BroadcastTree::new(YBranch::from_params(&OpticalParams::paper()), fanout);
        let per_output = tree.per_output_transfer().linear();
        prop_assert!(per_output * fanout as f64 <= 1.0 + 1e-12);
    }

    /// Balanced detection is antisymmetric: swapping the rails flips the
    /// sign of the output current.
    #[test]
    fn balanced_pd_antisymmetry(p_pos in 0.0f64..1e-2, p_neg in 0.0f64..1e-2) {
        let pd = BalancedPd::from_params(&OpticalParams::paper());
        let forward = pd.output_current_total(p_pos, p_neg);
        let swapped = pd.output_current_total(p_neg, p_pos);
        prop_assert!((forward + swapped).abs() < 1e-15);
    }

    /// Total noise grows with bandwidth for any operating point.
    #[test]
    fn noise_monotone_in_bandwidth(i_pd in 1e-9f64..1e-2, n in 1usize..64) {
        let narrow = NoiseParams::paper();
        let wide = NoiseParams::paper().with_bandwidth(8e9);
        prop_assert!(wide.total_sigma(i_pd, n) > narrow.total_sigma(i_pd, n));
    }

    /// The combined precision never exceeds either individual limit.
    #[test]
    fn combined_precision_bounded(n in 2usize..64, p_mw in 0.1f64..4.0) {
        let model = PrecisionModel::paper();
        let ring = Microring::from_params(&OpticalParams::paper());
        let combined = model.combined_levels(&ring, n, p_mw * 1e-3);
        prop_assert!(combined <= model.noise_limited_levels(n, p_mw * 1e-3) + 1e-9);
        prop_assert!(combined <= model.crosstalk_limited_levels(&ring, n) + 1e-9);
        prop_assert!(combined >= 1.0);
    }

    /// Loss composition in dB equals multiplication in linear domain over
    /// arbitrary chains.
    #[test]
    fn loss_chain_composition(losses in proptest::collection::vec(0.0f64..10.0, 1..10)) {
        let total_db: Db = losses.iter().map(|&l| Db::loss(l)).sum();
        let product: f64 = losses.iter().map(|&l| Db::loss(l).linear()).product();
        prop_assert!((total_db.linear() - product).abs() / product < 1e-9);
    }

    /// Thermal drift penalty is symmetric in the sign of the excursion and
    /// monotone in its magnitude.
    #[test]
    fn thermal_penalty_symmetric_monotone(dt in 0.01f64..5.0) {
        let t = ThermalModel::silicon();
        let ring = Microring::from_params(&OpticalParams::paper());
        let plus = t.drift_penalty(&ring, dt);
        let minus = t.drift_penalty(&ring, -dt);
        prop_assert!((plus - minus).abs() < 1e-9);
        prop_assert!(t.drift_penalty(&ring, dt * 2.0) <= plus + 1e-12);
    }

    /// Link budgets compose and never amplify, at any chip geometry:
    /// output power is linear in input power, every stage of the chip
    /// path (including the AWG, star-coupler and MZM losses) has transfer
    /// ≤ 0 dB, and the power profile never rises.
    #[test]
    fn link_budget_linearity(
        p in 1e-6f64..1.0,
        scale in 0.1f64..10.0,
        ng in 1usize..=64,
        wx in 1usize..=11,
        nd in 1usize..=10,
    ) {
        let b = LinkBudget::albireo_chip(&OpticalParams::paper(), ng, wx, nd, 10);
        let base = b.output_power(p);
        let scaled = b.output_power(p * scale);
        prop_assert!((scaled - base * scale).abs() / scaled < 1e-12);
        for stage in b.stages() {
            prop_assert!(stage.transfer.db() <= 0.0, "{}: {:?}", stage.name, stage.transfer);
        }
        let mut prev = p;
        for (name, power) in b.power_profile(p) {
            prop_assert!(power <= prev, "{name}: {power} > {prev}");
            prev = power;
        }
    }
}
