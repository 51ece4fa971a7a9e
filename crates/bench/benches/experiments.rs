//! Criterion benches — one group per paper experiment, measuring the
//! simulator kernels that regenerate each table/figure.

use albireo_baselines::{Accelerator, DeapCnn, Pixel};
use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
use albireo_core::area::AreaBreakdown;
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::power::PowerBreakdown;
use albireo_core::sched::total_cycles;
use albireo_nn::zoo;
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::OpticalParams;
use albireo_tensor::conv::{conv2d, ConvSpec};
use albireo_tensor::{Tensor3, Tensor4};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Fig. 3 kernel: noise-limited precision integral.
fn bench_noise_precision(c: &mut Criterion) {
    let model = PrecisionModel::paper();
    c.bench_function("fig3/noise_limited_bits_20wl_2mW", |b| {
        b.iter(|| model.noise_limited_bits(black_box(20), black_box(2e-3)))
    });
}

/// Fig. 4 kernels: spectrum, temporal response, crosstalk precision.
fn bench_mrr_models(c: &mut Criterion) {
    let params = OpticalParams::paper();
    let ring = Microring::from_params(&params);
    let model = PrecisionModel::paper();
    c.bench_function("fig4a/drop_spectrum_1001pts", |b| {
        b.iter(|| ring.drop_spectrum(black_box(ring.fsr() / 4.0), 1001))
    });
    c.bench_function("fig4b/step_response", |b| {
        b.iter(|| ring.step_response(black_box(50e-12)))
    });
    c.bench_function("fig4c/crosstalk_limited_bits_64wl", |b| {
        b.iter(|| model.crosstalk_limited_bits(black_box(&ring), black_box(64)))
    });
}

/// Table III / Fig. 9 kernels: power and area derivation.
fn bench_power_area(c: &mut Criterion) {
    let chip = ChipConfig::albireo_9();
    c.bench_function("table3/power_breakdown", |b| {
        b.iter(|| PowerBreakdown::for_chip(black_box(&chip), TechnologyEstimate::Conservative))
    });
    c.bench_function("fig9/area_breakdown", |b| {
        b.iter(|| AreaBreakdown::for_chip(black_box(&chip)))
    });
}

/// Fig. 8 / Table IV kernels: full-network evaluation on Albireo and the
/// photonic baselines.
fn bench_network_evaluation(c: &mut Criterion) {
    let chip = ChipConfig::albireo_9();
    let vgg = zoo::vgg16();
    let mobilenet = zoo::mobilenet();
    c.bench_function("table4/evaluate_vgg16_albireo9", |b| {
        b.iter(|| {
            NetworkEvaluation::evaluate(
                black_box(&chip),
                TechnologyEstimate::Conservative,
                black_box(&vgg),
            )
        })
    });
    c.bench_function("fig8/schedule_mobilenet_cycles", |b| {
        b.iter(|| total_cycles(black_box(&chip), black_box(&mobilenet)))
    });
    let pixel = Pixel::paper_60w();
    let deap = DeapCnn::paper_60w();
    c.bench_function("fig8/pixel_vgg16", |b| {
        b.iter(|| pixel.cost(black_box(&vgg)))
    });
    c.bench_function("fig8/deap_vgg16", |b| b.iter(|| deap.cost(black_box(&vgg))));
}

/// Analog-simulation kernels: the functional photonic conv vs the digital
/// golden model.
fn bench_analog(c: &mut Criterion) {
    let chip = ChipConfig::albireo_9();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let input = Tensor3::random_uniform(6, 12, 12, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(4, 6, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    c.bench_function("analog/digital_reference_conv", |b| {
        b.iter(|| conv2d(black_box(&input), black_box(&kernels), &spec))
    });
    c.bench_function("analog/photonic_conv", |b| {
        b.iter(|| {
            let engine = AnalogEngine::new(&chip, AnalogSimConfig::default());
            engine.conv2d(black_box(&input), black_box(&kernels), &spec)
        })
    });
}

/// Extension-study kernels: thermal drift, timing closure, power
/// delivery, dataflow tracing.
fn bench_extensions(c: &mut Criterion) {
    use albireo_core::power_delivery::PowerDelivery;
    use albireo_core::timing::analyze;
    use albireo_core::trace::trace_kernel;
    use albireo_photonics::thermal::ThermalModel;
    let chip = ChipConfig::albireo_9();
    let params = OpticalParams::paper();
    let ring = Microring::from_params(&params);
    let thermal = ThermalModel::silicon();
    let model = PrecisionModel::paper();
    c.bench_function("thermal/drifted_precision", |b| {
        b.iter(|| {
            model.crosstalk_limited_levels_with_drift(
                black_box(&ring),
                21,
                black_box(thermal.drift(1.0)),
            )
        })
    });
    c.bench_function("timing/analyze_5ghz", |b| {
        b.iter(|| {
            analyze(
                black_box(&chip),
                TechnologyEstimate::Conservative,
                black_box(0.03),
            )
        })
    });
    let delivery = PowerDelivery::new(&chip);
    c.bench_function("power_delivery/min_laser_bisection", |b| {
        b.iter(|| delivery.min_laser_power_for_noise_bits(black_box(8.0)))
    });
    c.bench_function("fig7/trace_56x56x64", |b| {
        b.iter(|| trace_kernel(black_box(&chip), 0, 56, 56, 64))
    });
}

criterion_group!(
    benches,
    bench_noise_precision,
    bench_mrr_models,
    bench_power_area,
    bench_network_evaluation,
    bench_analog,
    bench_extensions
);
criterion_main!(benches);
