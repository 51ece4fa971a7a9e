//! Property-based tests on the architecture models: scheduling coverage,
//! power/area composition, trace semantics, and analog-engine sanity for
//! arbitrary configurations.

use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
use albireo_core::area::AreaBreakdown;
use albireo_core::config::{ChipConfig, PlcuConfig, TechnologyEstimate};
use albireo_core::inventory::DeviceInventory;
use albireo_core::power::PowerBreakdown;
use albireo_core::sched::layer_cycles;
use albireo_core::trace::{summarize, trace_kernel};
use albireo_nn::layer::{LayerInstance, LayerKind, VolumeShape};
use albireo_tensor::conv::{conv2d_grouped, ConvSpec};
use albireo_tensor::{output_extent, Tensor3, Tensor4};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn conv_instance(kernels: usize, channels: usize, extent: usize, stride: usize) -> LayerInstance {
    let out = output_extent(extent, 3, 1, stride);
    LayerInstance {
        name: "conv".into(),
        kind: LayerKind::conv(kernels, 3, stride, 1),
        input: VolumeShape::new(channels, extent, extent),
        output: VolumeShape::new(kernels, out, out),
        is_branch: false,
    }
}

proptest! {
    /// The scheduler always provisions at least as many MAC slots as the
    /// layer needs, for arbitrary geometry and chip configuration.
    #[test]
    fn schedule_capacity_covers_work(
        kernels in 1usize..96,
        channels in 1usize..96,
        extent in 3usize..32,
        stride in 1usize..3,
        ng in 1usize..16,
    ) {
        let chip = ChipConfig::with_ng(ng);
        let layer = conv_instance(kernels, channels, extent, stride);
        let cycles = layer_cycles(&chip, &layer);
        prop_assert!(cycles > 0);
        prop_assert!(
            cycles * chip.peak_macs_per_cycle() >= layer.macs(),
            "cycles {cycles} × {} < macs {}",
            chip.peak_macs_per_cycle(),
            layer.macs()
        );
    }

    /// Cycle counts shrink monotonically (or stay flat) along every
    /// parallelism axis.
    #[test]
    fn schedule_monotone_in_each_axis(
        kernels in 1usize..64,
        channels in 1usize..64,
        extent in 4usize..24,
    ) {
        let layer = conv_instance(kernels, channels, extent, 1);
        let base = ChipConfig::albireo_9();
        let c_base = layer_cycles(&base, &layer);

        let mut more_ng = base;
        more_ng.ng += 1;
        prop_assert!(layer_cycles(&more_ng, &layer) <= c_base);

        let mut more_nu = base;
        more_nu.nu += 1;
        prop_assert!(layer_cycles(&more_nu, &layer) <= c_base);

        let mut more_nd = base;
        more_nd.plcu = PlcuConfig { nm: 9, nd: base.plcu.nd + 1 };
        prop_assert!(layer_cycles(&more_nd, &layer) <= c_base);
    }

    /// Power and area totals equal the sum of their reported rows for any
    /// group count and estimate.
    #[test]
    fn power_area_rows_compose(ng in 1usize..40) {
        let chip = ChipConfig::with_ng(ng);
        for estimate in TechnologyEstimate::all() {
            let p = PowerBreakdown::for_chip(&chip, estimate);
            let row_sum: f64 = p.rows().iter().map(|r| r.1).sum();
            prop_assert!((row_sum - p.total_w()).abs() < 1e-9);
        }
        let a = AreaBreakdown::for_chip(&chip);
        let row_sum_mm2: f64 = a.rows().iter().map(|r| r.1).sum();
        prop_assert!((row_sum_mm2 - a.total_mm2()).abs() < 1e-6);
        prop_assert!(a.active_mm2() < a.total_mm2());
    }

    /// Device counts scale exactly linearly in the group count except the
    /// shared input bank.
    #[test]
    fn inventory_scaling(ng in 1usize..30) {
        let base = DeviceInventory::for_chip(&ChipConfig::with_ng(1));
        let scaled = DeviceInventory::for_chip(&ChipConfig::with_ng(ng));
        prop_assert_eq!(scaled.switching_mrrs, base.switching_mrrs * ng);
        prop_assert_eq!(scaled.weight_mzms, base.weight_mzms * ng);
        prop_assert_eq!(scaled.tias, base.tias * ng);
        prop_assert_eq!(scaled.awgs, ng);
        // The laser/modulator bank is broadcast-shared.
        prop_assert_eq!(scaled.lasers, base.lasers);
        prop_assert_eq!(scaled.input_modulators, base.input_modulators);
    }

    /// Every trace covers each output exactly once and completes each
    /// block with a writeback.
    #[test]
    fn trace_covers_outputs(
        out_y in 1usize..10,
        out_x in 1usize..20,
        channels in 1usize..40,
    ) {
        let chip = ChipConfig::albireo_9();
        let trace = trace_kernel(&chip, 0, out_y, out_x, channels);
        let summary = summarize(&trace);
        prop_assert_eq!(summary.outputs_written, (out_y * out_x) as u64);
        let groups = channels.div_ceil(chip.nu) as u64;
        let blocks = out_y as u64 * (out_x.div_ceil(chip.plcu.nd)) as u64;
        prop_assert_eq!(summary.cycles, blocks * groups);
        prop_assert_eq!(summary.writebacks, blocks);
    }

    /// The analog engine, with ideal settings, reproduces the independent
    /// digital reference for random layer shapes: kernels from 1×1 to
    /// 11×11 (decomposed above `Nm`), strides 1–4, padding 0–2, one to
    /// three groups, depthwise included. The only error left is the ADC's
    /// half-LSB per detection, summed over the `⌈Wz/Nu⌉` cycles of every
    /// decomposition pass.
    #[test]
    fn analog_ideal_matches_reference(
        seed in 0u64..200,
        wz in 1usize..5,
        groups in 1usize..4,
        per_group in 1usize..3,
        ky in 1usize..=11,
        kx in 1usize..=11,
        stride in 1usize..=4,
        padding in 0usize..=2,
        extra_y in 0usize..7,
        extra_x in 0usize..12,
    ) {
        let chip = ChipConfig::albireo_9();
        let cfg = AnalogSimConfig::ideal();
        let mut rng = StdRng::seed_from_u64(seed);
        let extent = |k: usize, extra: usize| (k + extra).saturating_sub(2 * padding).max(1);
        let (ay, ax) = (extent(ky, extra_y), extent(kx, extra_x));
        let input = Tensor3::random_uniform(wz * groups, ay, ax, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(per_group * groups, wz, ky, kx, 0.4, &mut rng);
        let spec = ConvSpec::new(stride, padding);
        let reference = conv2d_grouped(&input, &kernels, &spec, groups);
        let mut engine = AnalogEngine::new(&chip, cfg);
        let analog = engine.conv2d_grouped(&input, &kernels, &spec, groups);
        // Decomposition passes and the MZM capacity each pass assumes.
        let (nm, nu) = (chip.plcu.nm, chip.nu);
        let (passes, nm_cap) = if ky * kx <= nm {
            (1, nm)
        } else if kx <= nm {
            (ky.div_ceil(nm / kx), ky * kx)
        } else {
            (ky * kx.div_ceil(nm), ky * kx)
        };
        let max_code = ((1u64 << (cfg.adc_bits - 1)) - 1) as f64;
        let half_lsb = 0.5 * (nm_cap * nu) as f64 / max_code;
        let detections = (passes * wz.div_ceil(nu)) as f64;
        let bound = input.max_abs() * kernels.max_abs() * detections * half_lsb;
        let err = analog.max_abs_diff(&reference);
        prop_assert!(
            err <= bound * (1.0 + 1e-9),
            "error {err} above {detections} half-LSBs = {bound} for input {ay}x{ax}"
        );
    }

    /// The analog engine never produces non-finite outputs under any
    /// effect combination.
    #[test]
    fn analog_outputs_finite(
        seed in 0u64..200,
        noise in proptest::bool::ANY,
        crosstalk in proptest::bool::ANY,
    ) {
        let chip = ChipConfig::albireo_9();
        let cfg = AnalogSimConfig {
            enable_noise: noise,
            enable_crosstalk: crosstalk,
            ..AnalogSimConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(2, 5, 5, 0.0, 1.0, &mut rng);
        let kernels = Tensor4::random_gaussian(2, 2, 3, 3, 0.4, &mut rng);
        let mut engine = AnalogEngine::new(&chip, cfg);
        let out = engine.conv2d(&input, &kernels, &ConvSpec::unit());
        prop_assert!(out.iter().all(|v| v.is_finite()));
    }
}
