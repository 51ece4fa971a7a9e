//! Functional analog simulation: run a convolution through the photonic
//! signal chain (MZM multiply, MRR switching with crosstalk, balanced
//! detection with noise, 8-bit ADC) and compare against the exact digital
//! reference.
//!
//! ```text
//! cargo run --example functional_conv
//! ```

use albireo::core::analog::{AnalogEngine, AnalogSimConfig};
use albireo::core::config::ChipConfig;
use albireo::core::report::format_table;
use albireo::tensor::conv::{conv2d, ConvSpec};
use albireo::tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(2021);

    // A small convolution layer: 6-channel 16×16 input (e.g. post-ReLU
    // activations, so non-negative), 4 kernels of 3×3×6 with the
    // bell-shaped weight distribution of a trained CNN.
    let input = Tensor3::random_uniform(6, 16, 16, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(4, 6, 3, 3, 0.25, &mut rng);
    let spec = ConvSpec::same_padding(3, 1);
    let reference = conv2d(&input, &kernels, &spec);
    let full_scale = input.max_abs() * kernels.max_abs() * 27.0;

    println!("analog vs digital convolution (4 kernels of 3x3x6 on 6x16x16):\n");
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("ideal (16-bit ADC only)", AnalogSimConfig::ideal()),
        (
            "crosstalk only",
            AnalogSimConfig {
                enable_noise: false,
                adc_bits: 16,
                ..AnalogSimConfig::default()
            },
        ),
        (
            "noise only",
            AnalogSimConfig {
                enable_crosstalk: false,
                adc_bits: 16,
                ..AnalogSimConfig::default()
            },
        ),
        (
            "full (noise+crosstalk, 8-bit ADC)",
            AnalogSimConfig::default(),
        ),
    ] {
        let engine = AnalogEngine::new(&chip, cfg);
        let analog = engine.conv2d(&input, &kernels, &spec);
        let max_err = analog.max_abs_diff(&reference);
        let rms: f64 = {
            let n = reference.len() as f64;
            let sum: f64 = analog
                .as_slice()
                .iter()
                .zip(reference.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            (sum / n).sqrt()
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.3e}", max_err / full_scale),
            format!("{:.3e}", rms / full_scale),
            format!("{:.2}", -(max_err / full_scale).log2()),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "configuration",
                "max err (rel FS)",
                "RMS err (rel FS)",
                "effective bits"
            ],
            &rows
        )
    );

    let engine = AnalogEngine::new(&chip, AnalogSimConfig::default());
    println!(
        "\npredicted subsystem precision: {:.2} bits (paper target: 7 bits worst-case)",
        engine.expected_bits()
    );
    println!(
        "per-wavelength power at the photodiodes: {:.1} µW (2 mW laser through the chip's link budget)",
        engine.channel_power_w() * 1e6
    );
}
