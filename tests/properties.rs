//! Cross-crate property-based tests (proptest) on the simulator's
//! physical and architectural invariants.

use albireo::core::config::{ChipConfig, PlcuConfig, TechnologyEstimate};
use albireo::core::energy::NetworkEvaluation;
use albireo::core::power::PowerBreakdown;
use albireo::core::sched::total_cycles;
use albireo::nn::{LayerKind, Model, VolumeShape};
use albireo::photonics::mrr::Microring;
use albireo::photonics::precision::PrecisionModel;
use albireo::photonics::units::Db;
use albireo::photonics::OpticalParams;
use albireo::tensor::conv::{conv2d, ConvSpec};
use albireo::tensor::{Tensor3, Tensor4};
use proptest::prelude::*;

proptest! {
    /// A microring is passive at every detuning and coupling: the drop and
    /// through ports never carry more than the input power combined.
    #[test]
    fn mrr_is_passive(k2 in 0.005f64..0.5, detuning_frac in -0.5f64..0.5) {
        let ring = Microring::with_k2(&OpticalParams::paper(), k2);
        let d = detuning_frac * ring.fsr();
        let total = ring.drop_transmission(d) + ring.through_transmission(d);
        prop_assert!(total <= 1.0 + 1e-9, "total = {total}");
        prop_assert!(ring.drop_transmission(d) >= 0.0);
    }

    /// Drop transmission peaks on resonance for any coupling.
    #[test]
    fn mrr_peaks_on_resonance(k2 in 0.005f64..0.5, detuning_frac in 1e-3f64..0.5) {
        let ring = Microring::with_k2(&OpticalParams::paper(), k2);
        let d = detuning_frac * ring.fsr();
        prop_assert!(ring.drop_transmission(0.0) >= ring.drop_transmission(d));
    }

    /// dB conversions round-trip and compose multiplicatively.
    #[test]
    fn db_round_trip_and_compose(a in -40.0f64..20.0, b in -40.0f64..20.0) {
        let da = Db::new(a);
        let db = Db::new(b);
        let combined = (da + db).linear();
        prop_assert!((combined - da.linear() * db.linear()).abs() / combined < 1e-9);
        let back = Db::from_linear(da.linear()).db();
        prop_assert!((back - a).abs() < 1e-9);
    }

    /// More wavelengths never increase crosstalk-limited precision.
    #[test]
    fn precision_monotone_in_wavelengths(n in 2usize..60) {
        let model = PrecisionModel::paper();
        let ring = Microring::from_params(&OpticalParams::paper());
        let here = model.crosstalk_limited_bits(&ring, n);
        let more = model.crosstalk_limited_bits(&ring, n + 4);
        prop_assert!(more <= here + 1e-9);
    }

    /// More laser power never decreases noise-limited precision.
    #[test]
    fn precision_monotone_in_power(p_mw in 0.05f64..5.0) {
        let model = PrecisionModel::paper();
        let low = model.noise_limited_bits(20, p_mw * 1e-3);
        let high = model.noise_limited_bits(20, p_mw * 2e-3);
        prop_assert!(high >= low - 1e-9);
    }

    /// Convolution is linear: conv(αA, W) = α·conv(A, W).
    #[test]
    fn conv_linearity(seed in 0u64..1000, alpha in 0.1f64..4.0) {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let input = Tensor3::random_uniform(2, 5, 5, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 3, 3, 0.5, &mut rng);
        let base = conv2d(&input, &kernels, &ConvSpec::unit());
        let mut scaled_input = input.clone();
        scaled_input.map_inplace(|v| alpha * v);
        let scaled = conv2d(&scaled_input, &kernels, &ConvSpec::unit());
        let mut expected = base.clone();
        expected.map_inplace(|v| alpha * v);
        prop_assert!(scaled.max_abs_diff(&expected) < 1e-9 * alpha.max(1.0) * 100.0);
    }

    /// Scheduling is monotone in the PLCG count: more groups never means
    /// more cycles, for arbitrary conv layers.
    #[test]
    fn schedule_monotone_in_groups(
        kernels in 1usize..128,
        channels in 1usize..128,
        extent in 4usize..40,
    ) {
        let mut b = Model::builder("prop", VolumeShape::new(channels, extent, extent));
        b.push("conv", LayerKind::conv(kernels, 3, 1, 1)).unwrap();
        let model = b.build().unwrap();
        let c9 = total_cycles(&ChipConfig::with_ng(9), &model);
        let c27 = total_cycles(&ChipConfig::with_ng(27), &model);
        prop_assert!(c27 <= c9);
        prop_assert!(c27 >= 1);
    }

    /// Cycle counts give at least enough MAC slots for the layer's work.
    #[test]
    fn schedule_covers_macs(
        kernels in 1usize..64,
        channels in 1usize..64,
        extent in 4usize..24,
    ) {
        let chip = ChipConfig::albireo_9();
        let mut b = Model::builder("prop", VolumeShape::new(channels, extent, extent));
        b.push("conv", LayerKind::conv(kernels, 3, 1, 1)).unwrap();
        let model = b.build().unwrap();
        let cycles = total_cycles(&chip, &model);
        let capacity = cycles * chip.peak_macs_per_cycle();
        prop_assert!(capacity >= model.total_macs(),
            "capacity {capacity} < macs {}", model.total_macs());
    }

    /// Power scales strictly with the PLCG count for every estimate.
    #[test]
    fn power_monotone_in_groups(ng in 1usize..40) {
        for estimate in TechnologyEstimate::all() {
            let small = PowerBreakdown::for_chip(&ChipConfig::with_ng(ng), estimate).total_w();
            let large = PowerBreakdown::for_chip(&ChipConfig::with_ng(ng + 1), estimate).total_w();
            prop_assert!(large > small);
        }
    }

    /// EDP is consistent with latency × energy for arbitrary small nets.
    #[test]
    fn edp_consistency(kernels in 1usize..32, extent in 6usize..32) {
        let mut b = Model::builder("prop", VolumeShape::new(3, extent, extent));
        b.push("conv", LayerKind::conv(kernels, 3, 1, 1)).unwrap();
        let model = b.build().unwrap();
        let e = NetworkEvaluation::evaluate(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            &model,
        );
        let expected = e.energy_j * 1e3 * e.latency_s * 1e3;
        prop_assert!((e.edp_mj_ms() - expected).abs() < 1e-9);
        prop_assert!(e.latency_s > 0.0);
    }

    /// Bigger PLCUs (more output columns) never slow a stride-1 network
    /// down.
    #[test]
    fn more_output_columns_never_slower(nd in 2usize..10) {
        let mut chip_small = ChipConfig::albireo_9();
        chip_small.plcu = PlcuConfig { nm: 9, nd };
        let mut chip_big = chip_small;
        chip_big.plcu = PlcuConfig { nm: 9, nd: nd + 1 };
        let mut b = Model::builder("prop", VolumeShape::new(16, 28, 28));
        b.push("conv", LayerKind::conv(32, 3, 1, 1)).unwrap();
        let model = b.build().unwrap();
        prop_assert!(total_cycles(&chip_big, &model) <= total_cycles(&chip_small, &model));
    }
}
