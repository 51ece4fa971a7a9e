//! End-to-end analog inference: run a small CNN (conv → ReLU → pool →
//! conv → ReLU → FC) entirely through the photonic analog engine and
//! compare the class scores and decisions against the exact digital
//! pipeline — including the crosstalk-compensation extension and a
//! fault-injection study.
//!
//! ```text
//! cargo run --example analog_network
//! ```

use albireo::core::analog::{AnalogEngine, AnalogSimConfig, Fault, FaultSet};
use albireo::core::config::ChipConfig;
use albireo::core::report::format_table;
use albireo::tensor::conv::{conv2d, fully_connected, max_pool, relu, ConvSpec};
use albireo::tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct TinyCnn {
    conv1: Tensor4,
    conv2: Tensor4,
    fc: Vec<Vec<f64>>,
}

impl TinyCnn {
    fn random(rng: &mut StdRng) -> TinyCnn {
        let conv1 = Tensor4::random_gaussian(4, 1, 3, 3, 0.4, rng);
        let conv2 = Tensor4::random_gaussian(6, 4, 3, 3, 0.3, rng);
        // 12×12 input → conv 10×10 → pool 5×5 → conv 3×3: 6·3·3 = 54 features → 5 classes.
        let fc = (0..5)
            .map(|_| {
                (0..54)
                    .map(|_| 0.3 * tensor_normal(rng))
                    .collect::<Vec<f64>>()
            })
            .collect();
        TinyCnn { conv1, conv2, fc }
    }

    /// Exact digital forward pass.
    fn forward_digital(&self, image: &Tensor3) -> Vec<f64> {
        let x = relu(&conv2d(image, &self.conv1, &ConvSpec::unit()));
        let x = max_pool(&x, 2, 2);
        let x = relu(&conv2d(&x, &self.conv2, &ConvSpec::unit()));
        fully_connected(&x.flatten(), &self.fc)
    }

    /// Forward pass with every MAC on the photonic datapath.
    fn forward_analog(&self, image: &Tensor3, engine: &AnalogEngine) -> Vec<f64> {
        let mut x = engine.conv2d(image, &self.conv1, &ConvSpec::unit());
        x.relu_inplace();
        let x = max_pool(&x, 2, 2);
        let mut x = engine.conv2d(&x, &self.conv2, &ConvSpec::unit());
        x.relu_inplace();
        let flat = x.flatten();
        self.fc.iter().map(|row| engine.dot(&flat, row)).collect()
    }
}

fn tensor_normal(rng: &mut StdRng) -> f64 {
    use rand::Rng;
    let u1: f64 = rng.random();
    let u2: f64 = rng.random();
    (-2.0 * u1.max(f64::MIN_POSITIVE).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

fn main() {
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(1550);
    let net = TinyCnn::random(&mut rng);

    // A batch of 20 random 1×12×12 "images" (non-negative: optical powers).
    let images: Vec<Tensor3> = (0..20)
        .map(|_| Tensor3::random_uniform(1, 12, 12, 0.0, 1.0, &mut rng))
        .collect();
    let digital: Vec<Vec<f64>> = images.iter().map(|im| net.forward_digital(im)).collect();

    let mut rows = Vec::new();
    for (label, cfg, faults) in [
        (
            "full analog (8-bit ADC)",
            AnalogSimConfig::default(),
            FaultSet::new(),
        ),
        (
            "with crosstalk compensation",
            AnalogSimConfig {
                crosstalk_compensation: true,
                ..AnalogSimConfig::default()
            },
            FaultSet::new(),
        ),
        ("one dead ring", AnalogSimConfig::default(), {
            let mut f = FaultSet::new();
            f.push(Fault::DeadRing {
                row: 1,
                col: 1,
                output: 0,
            });
            f
        }),
        ("one dead channel", AnalogSimConfig::default(), {
            let mut f = FaultSet::new();
            f.push(Fault::DeadChannel { column: 2 });
            f
        }),
    ] {
        let mut engine = AnalogEngine::new(&chip, cfg);
        engine.inject_faults(faults);
        let mut agree = 0usize;
        let mut score_err = 0.0f64;
        for (im, dig) in images.iter().zip(&digital) {
            let ana = net.forward_analog(im, &engine);
            if argmax(&ana) == argmax(dig) {
                agree += 1;
            }
            let scale = dig.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
            let err = ana
                .iter()
                .zip(dig.iter())
                .fold(0.0f64, |m, (a, d)| m.max((a - d).abs()))
                / scale;
            score_err = score_err.max(err);
        }
        rows.push(vec![
            label.to_string(),
            format!("{agree}/20"),
            format!("{score_err:.3}"),
        ]);
    }

    println!("Tiny CNN inference: photonic analog datapath vs exact digital pipeline\n");
    println!(
        "{}",
        format_table(
            &[
                "configuration",
                "decision agreement",
                "max score error (rel)"
            ],
            &rows
        )
    );
    println!(
        "The analog pipeline preserves classification decisions at ~7-bit\n\
         analog precision; compensation tightens scores, and injected\n\
         hardware faults visibly degrade them — the reliability argument\n\
         for per-ring health monitoring."
    );
}
