//! Integration tests for the extension subsystems: timing closure, power
//! delivery, thermal sensitivity, weight-distribution headroom, fault
//! injection, crosstalk compensation, and the extension networks.

use albireo::core::ablation::plcu_precision_bits;
use albireo::core::analog::{AnalogEngine, AnalogSimConfig, Fault, FaultSet};
use albireo::core::config::{ChipConfig, TechnologyEstimate};
use albireo::core::energy::NetworkEvaluation;
use albireo::core::power_delivery::PowerDelivery;
use albireo::core::timing::{analyze, max_clock_hz};
use albireo::nn::zoo;
use albireo::photonics::mrr::Microring;
use albireo::photonics::precision::PrecisionModel;
use albireo::photonics::thermal::ThermalModel;
use albireo::photonics::OpticalParams;
use albireo::tensor::conv::{conv2d, ConvSpec};
use albireo::tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn the_paper_design_point_is_self_consistent() {
    // One test tying the whole design story together: the k² = 0.03,
    // 21-wavelength, Nu = 3, 5 GHz design simultaneously (a) fits the
    // 64-channel distribution network, (b) closes timing, (c) clears
    // ~7 bits of precision, and (d) is deliverable by the conservative
    // laser.
    let chip = ChipConfig::albireo_9();
    let params = OpticalParams::paper();
    let ring = Microring::from_params(&params);

    // (a) wavelength plan fits: one AWG port per wavelength, and the Nu
    // ring-FSR windows inside the AWG's own FSR.
    assert!(chip.wavelengths_per_plcg() <= params.awg.channels);
    assert!(chip.nu as f64 * ring.fsr() < params.awg.fsr);

    // (b) timing closes at 5 GHz.
    let report = analyze(&chip, TechnologyEstimate::Conservative, 0.03);
    assert!(report.closes_timing);

    // (c) ~7-bit precision.
    let bits = plcu_precision_bits(&chip);
    assert!((6.5..7.2).contains(&bits), "bits = {bits}");

    // (d) conservative laser sustains the noise floor.
    let delivery = PowerDelivery::new(&chip);
    assert!(delivery.noise_bits(37.5e-3) >= 8.0);
}

#[test]
fn no_better_single_axis_move_exists_from_the_paper_point() {
    // The paper's Nd = 5 and Nu = 3 are on the Pareto frontier: pushing
    // either up breaks a constraint (precision / wavelength budget).
    let params = OpticalParams::paper();
    let ring = Microring::from_params(&params);
    let model = PrecisionModel::paper();

    // Nd = 7 ⇒ 27 λ per PLCU ⇒ below the ~7-bit target.
    let bits_27 = PrecisionModel::with_negative_rail(model.crosstalk_limited_levels(&ring, 27));
    assert!(bits_27.log2() < 6.5, "{}", bits_27.log2());

    // Nu = 4 ⇒ 84 λ per group > the 64-channel network.
    let mut chip = ChipConfig::albireo_9();
    chip.nu = 4;
    assert!(chip.wavelengths_per_plcg() > params.awg.channels);
}

#[test]
fn thermal_budget_is_consistent_with_mrr_power_row() {
    // Holding all rings against a ±5 K ambient swing costs less than the
    // conservative MRR drive budget — i.e. Table I's 3.1 mW/ring
    // plausibly covers drive + tuning.
    let thermal = ThermalModel::silicon();
    let rings = 2430;
    let tuning = thermal.chip_tuning_power(rings, 5.0);
    let drive_budget = rings as f64 * 3.1e-3;
    assert!(tuning < drive_budget, "{tuning} vs {drive_budget}");
}

#[test]
fn clock_choices_match_ring_limits() {
    // 5 GHz (C/M) and 8 GHz (A) both sit under the k² = 0.03 ring's
    // ~10 GHz limit, while 8 GHz would NOT be feasible at k² = 0.02 —
    // the quantitative version of the paper's Fig. 4b argument.
    let limit_003 = max_clock_hz(0.03);
    let limit_002 = max_clock_hz(0.02);
    assert!(limit_003 > 8e9);
    assert!(limit_002 < 8e9);
    assert!(limit_002 > 5e9);
}

#[test]
fn compensation_and_faults_compose() {
    // Crosstalk compensation corrects interference but cannot mask a
    // hardware fault.
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(77);
    let input = Tensor3::random_uniform(3, 8, 8, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &kernels, &spec);
    let fs = input.max_abs() * kernels.max_abs() * 27.0;
    let cfg = AnalogSimConfig {
        enable_noise: false,
        adc_bits: 16,
        crosstalk_compensation: true,
        ..AnalogSimConfig::default()
    };
    let healthy_err = {
        let e = AnalogEngine::new(&chip, cfg);
        e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
    };
    let faulty_err = {
        let mut e = AnalogEngine::new(&chip, cfg);
        let mut faults = FaultSet::new();
        faults.push(Fault::DeadChannel { column: 1 });
        e.inject_faults(faults);
        e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
    };
    assert!(healthy_err < 1e-3, "healthy: {healthy_err}");
    assert!(faulty_err > 10.0 * healthy_err, "faulty: {faulty_err}");
}

#[test]
fn extension_networks_run_the_full_pipeline() {
    let chip = ChipConfig::albireo_9();
    for model in [
        zoo::vgg19(),
        zoo::resnet34(),
        zoo::mobilenet_half(),
        zoo::tiny(),
    ] {
        let e = NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &model);
        assert!(e.latency_s > 0.0, "{}", model.name());
        assert!(e.gops() > 0.0);
    }
    // Scaling sanity: VGG19 is slower than VGG16; MobileNet-0.5 is faster
    // than MobileNet.
    let lat = |m: &albireo::nn::Model| {
        NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, m).latency_s
    };
    assert!(lat(&zoo::vgg19()) > lat(&zoo::vgg16()));
    assert!(lat(&zoo::mobilenet_half()) < lat(&zoo::mobilenet()));
    assert!(lat(&zoo::resnet34()) > lat(&zoo::resnet18()));
}

#[test]
fn power_delivery_scales_with_broadcast_fanout() {
    let d9 = PowerDelivery::new(&ChipConfig::albireo_9());
    let d27 = PowerDelivery::new(&ChipConfig::albireo_27());
    // 3× the fanout costs ~log2(3) extra split levels ≈ 3–5 dB.
    let delta = d27.link_loss_db() - d9.link_loss_db();
    assert!((2.0..7.0).contains(&delta), "delta = {delta} dB");
    // Same laser ⇒ fewer delivered bits on the bigger chip.
    assert!(d27.delivered_bits(2e-3) <= d9.delivered_bits(2e-3));
}

#[test]
fn weight_distribution_headroom_is_about_one_bit() {
    let ring = Microring::from_params(&OpticalParams::paper());
    let model = PrecisionModel::paper();
    let uniform = model.crosstalk_limited_levels(&ring, 21).log2();
    let trained = model
        .crosstalk_limited_levels_with_weight_rms(&ring, 21, 0.15)
        .log2();
    assert!((0.5..1.5).contains(&(trained - uniform)));
}
