//! Integration tests validating the functional analog simulation against
//! the digital golden model across shapes, seeds, and effect toggles.

use albireo::core::analog::{AnalogEngine, AnalogSimConfig};
use albireo::core::config::ChipConfig;
use albireo::tensor::conv::{conv2d, conv2d_grouped, ConvSpec};
use albireo::tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn relative_error(analog: &Tensor3, reference: &Tensor3, full_scale: f64) -> f64 {
    analog.max_abs_diff(reference) / full_scale
}

#[test]
fn analog_matches_digital_across_shapes() {
    let chip = ChipConfig::albireo_9();
    for (seed, z, n, kernels) in [
        (1u64, 1usize, 6usize, 1usize),
        (2, 3, 8, 2),
        (3, 7, 10, 4),
        (4, 12, 6, 3),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor3::random_uniform(z, n, n, 0.0, 1.0, &mut rng);
        let weights = Tensor4::random_gaussian(kernels, z, 3, 3, 0.3, &mut rng);
        let spec = ConvSpec::unit();
        let reference = conv2d(&input, &weights, &spec);
        let engine = AnalogEngine::new(&chip, AnalogSimConfig::default());
        let analog = engine.conv2d(&input, &weights, &spec);
        let fs = input.max_abs() * weights.max_abs() * 27.0;
        let err = relative_error(&analog, &reference, fs);
        // 8-bit ADC + ~6.7 analog bits, accumulated over channel groups.
        let groups = z.div_ceil(3) as f64;
        assert!(
            err < groups * 0.02,
            "seed {seed}: relative error {err} over {groups} groups"
        );
    }
}

#[test]
fn error_decomposition_is_monotone() {
    // Adding an effect never reduces the worst-case error (statistically;
    // checked with a fixed seed).
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(42);
    let input = Tensor3::random_uniform(6, 12, 12, 0.0, 1.0, &mut rng);
    let weights = Tensor4::random_gaussian(3, 6, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &weights, &spec);
    let fs = input.max_abs() * weights.max_abs() * 27.0;

    let run = |cfg: AnalogSimConfig| {
        let engine = AnalogEngine::new(&chip, cfg);
        relative_error(&engine.conv2d(&input, &weights, &spec), &reference, fs)
    };
    let ideal = run(AnalogSimConfig::ideal());
    let full = run(AnalogSimConfig::default());
    assert!(ideal < 1e-3, "ideal error {ideal}");
    assert!(
        full > ideal,
        "full error {full} should exceed ideal {ideal}"
    );
    assert!(full < 0.1, "full error {full} stays within analog budget");
}

#[test]
fn analog_respects_8bit_quantized_network_semantics() {
    // Quantize weights to 8 bits first (the paper's deployment model) and
    // check the analog path reproduces the quantized reference within the
    // analog noise budget.
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(7);
    let input = Tensor3::random_uniform(3, 10, 10, 0.0, 1.0, &mut rng);
    let mut weights = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
    // Symmetric 8-bit: 127 codes on each side of zero, step = max|w|/127.
    let step = weights.max_abs() / 127.0;
    for w in weights.as_mut_slice() {
        *w = (*w / step).round() * step;
    }

    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &weights, &spec);
    let engine = AnalogEngine::new(&chip, AnalogSimConfig::default());
    let analog = engine.conv2d(&input, &weights, &spec);
    let fs = input.max_abs() * weights.max_abs() * 27.0;
    assert!(relative_error(&analog, &reference, fs) < 0.02);
}

#[test]
fn depthwise_separable_block_through_analog_engine() {
    // MobileNet-style block: depthwise (one PLCU per channel, no
    // cross-channel aggregation) then pointwise, both via the analog conv
    // as grouped standard convolutions (depthwise = one group per channel).
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(21);
    let input = Tensor3::random_uniform(3, 8, 8, 0.0, 1.0, &mut rng);
    let dw = Tensor4::random_gaussian(3, 1, 3, 3, 0.3, &mut rng);
    let pw = Tensor4::random_gaussian(2, 3, 1, 1, 0.3, &mut rng);

    let spec = ConvSpec::same_padding(3, 1);
    let dw_ref = conv2d_grouped(&input, &dw, &spec, 3);
    let engine = AnalogEngine::new(&chip, AnalogSimConfig::ideal());
    let dw_analog = engine.conv2d_grouped(&input, &dw, &spec, 3);
    let fs_dw = input.max_abs() * dw.max_abs() * 27.0;
    assert!(relative_error(&dw_analog, &dw_ref, fs_dw) < 1e-3);

    // Pointwise on the (ReLU'd, hence non-negative) depthwise output.
    let mut activated = dw_ref.clone();
    activated.relu_inplace();
    let pw_ref = conv2d(&activated, &pw, &ConvSpec::unit());
    let pw_analog = engine.conv2d(&activated, &pw, &ConvSpec::unit());
    let fs_pw = activated.max_abs() * pw.max_abs() * 27.0;
    assert!(relative_error(&pw_analog, &pw_ref, fs_pw) < 1e-3);
}

#[test]
fn measured_effective_bits_consistent_with_prediction() {
    // The analog engine's measured error should correspond to within ~2
    // bits of the precision model's prediction.
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(33);
    let input = Tensor3::random_uniform(3, 16, 16, 0.0, 1.0, &mut rng);
    let weights = Tensor4::random_gaussian(4, 3, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &weights, &spec);
    let engine = AnalogEngine::new(&chip, AnalogSimConfig::default());
    let predicted = engine.expected_bits();
    let analog = engine.conv2d(&input, &weights, &spec);
    let fs = input.max_abs() * weights.max_abs() * 27.0;
    let err = relative_error(&analog, &reference, fs);
    let measured_bits = -err.log2();
    assert!(
        (measured_bits - predicted).abs() < 2.5,
        "measured {measured_bits} vs predicted {predicted}"
    );
}

#[test]
fn fc_dot_large_vector() {
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(55);
    let a: Vec<f64> = (0..1000)
        .map(|_| rand::Rng::random::<f64>(&mut rng))
        .collect();
    let w: Vec<f64> = (0..1000)
        .map(|_| rand::Rng::random::<f64>(&mut rng) - 0.5)
        .collect();
    let reference: f64 = a.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
    let engine = AnalogEngine::new(&chip, AnalogSimConfig::default());
    let analog = engine.dot(&a, &w);
    let a_max = a.iter().cloned().fold(0.0_f64, f64::max);
    let w_max = w.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    // 1000 terms = 38 cycles of 27-term chunks; errors accumulate as ~√38.
    let budget = 38.0_f64.sqrt() * a_max * w_max * 27.0 / 2f64.powi(6);
    assert!(
        (analog - reference).abs() < budget,
        "analog {analog} vs reference {reference} (budget {budget})"
    );
}
