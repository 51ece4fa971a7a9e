//! Bit-exact pins of the analog convolution kernel. Every output of
//! `AnalogEngine::conv2d_grouped` over a fixed set of layer shapes is
//! folded as f64 bits into one digest per engine configuration, and each
//! digest must match the recorded one at one and at two threads.
//!
//! The grid crosses channel allocation, crosstalk compensation, noise,
//! crosstalk and the three-fault set with shapes that cover strides 1, 2
//! and 4, padding 0 to 2, kernels from 1×1 to 11×11 (so both row-band and
//! column-chunk decomposition run) and 1, 2 and depthwise groups. A kernel
//! change that moves a single output bit on any branch fails here.

use albireo_core::analog::{AnalogEngine, AnalogSimConfig, ChannelAllocation, Fault, FaultSet};
use albireo_core::config::ChipConfig;
use albireo_obs::fold;
use albireo_parallel::Parallelism;
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One grouped convolution of the grid.
struct Shape {
    depth: usize,
    height: usize,
    width: usize,
    kernels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    groups: usize,
}

const fn shape(
    (depth, height, width): (usize, usize, usize),
    kernels: usize,
    kernel: usize,
    (stride, padding, groups): (usize, usize, usize),
) -> Shape {
    Shape {
        depth,
        height,
        width,
        kernels,
        kernel,
        stride,
        padding,
        groups,
    }
}

const SHAPES: [Shape; 8] = [
    // Pointwise, over three Nu groups.
    shape((6, 5, 7), 3, 1, (1, 0, 1)),
    // Dense 3×3: two full Nd blocks and a short one, uneven Nu groups.
    shape((5, 6, 12), 2, 3, (1, 1, 1)),
    // Strided 3×3 in two groups.
    shape((4, 7, 9), 4, 3, (2, 1, 2)),
    // Depthwise 3×3.
    shape((3, 6, 8), 3, 3, (1, 1, 3)),
    // 5×5: decomposed into single-row bands.
    shape((2, 7, 8), 2, 5, (1, 2, 1)),
    // 7×7 strided in two groups: row bands again.
    shape((2, 11, 11), 2, 7, (2, 2, 2)),
    // AlexNet conv1: rows wider than Nm, decomposed into column chunks.
    shape((3, 19, 19), 2, 11, (4, 0, 1)),
    // Depthwise at stride 4 with padding 2.
    shape((4, 9, 9), 4, 3, (4, 2, 4)),
];

/// The operands of every shape, drawn from a fixed per-shape stream.
fn cases() -> Vec<(Tensor3, Tensor4, ConvSpec, usize)> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut rng = StdRng::seed_from_u64(0xB175 + i as u64);
            let input = Tensor3::random_uniform(s.depth, s.height, s.width, 0.0, 1.0, &mut rng);
            let kernels = Tensor4::random_gaussian(
                s.kernels,
                s.depth / s.groups,
                s.kernel,
                s.kernel,
                0.3,
                &mut rng,
            );
            (input, kernels, ConvSpec::new(s.stride, s.padding), s.groups)
        })
        .collect()
}

/// The benchmark's fault set: one dead ring, one stuck MZM, one dead
/// channel.
fn three_faults() -> FaultSet {
    let mut set = FaultSet::new();
    set.push(Fault::DeadRing {
        row: 1,
        col: 1,
        output: 2,
    })
    .push(Fault::StuckMzm {
        row: 0,
        col: 2,
        weight: 0.5,
    })
    .push(Fault::DeadChannel { column: 3 });
    set
}

/// Every configuration of the grid, labelled `<allocation> a<ADC bits>
/// c<compensation> n<noise> x<crosstalk> f<faults>` with each switch 0
/// or 1. Besides the paper's 8-bit converter, a 63-bit one quantizes
/// finely enough that a change in the last bit of a rail power reaches
/// the output.
fn grid() -> Vec<(String, AnalogSimConfig, FaultSet)> {
    let mut out = Vec::new();
    for (name, allocation) in [
        ("contiguous", ChannelAllocation::Contiguous),
        ("interleaved", ChannelAllocation::RowInterleaved),
    ] {
        for adc_bits in [8, 63] {
            for compensation in [false, true] {
                for noise in [false, true] {
                    for crosstalk in [false, true] {
                        for faulty in [false, true] {
                            let cfg = AnalogSimConfig {
                                adc_bits,
                                enable_noise: noise,
                                enable_crosstalk: crosstalk,
                                allocation,
                                crosstalk_compensation: compensation,
                                ..AnalogSimConfig::default()
                            };
                            let faults = if faulty {
                                three_faults()
                            } else {
                                FaultSet::new()
                            };
                            let label = format!(
                                "{name} a{adc_bits} c{} n{} x{} f{}",
                                u8::from(compensation),
                                u8::from(noise),
                                u8::from(crosstalk),
                                u8::from(faulty),
                            );
                            out.push((label, cfg, faults));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Fold of every output bit of every shape, per configuration, recorded
/// from the per-element rail kernel. Without crosstalk, allocation and
/// compensation are inert, so those rows repeat in fours.
const PINNED: &[(&str, u64)] = &[
    ("contiguous a8 c0 n0 x0 f0", 0x39b187e73f4d5153),
    ("contiguous a8 c0 n0 x0 f1", 0x11e0fb6b1736b7fc),
    ("contiguous a8 c0 n0 x1 f0", 0xcc8b63a15e0ee1fd),
    ("contiguous a8 c0 n0 x1 f1", 0x92bd5457df1a08b5),
    ("contiguous a8 c0 n1 x0 f0", 0x9d6fd0ada181ed9e),
    ("contiguous a8 c0 n1 x0 f1", 0x52b3aa4a0954b531),
    ("contiguous a8 c0 n1 x1 f0", 0x8b0f1f8ce7944076),
    ("contiguous a8 c0 n1 x1 f1", 0x65c66db93a89318e),
    ("contiguous a8 c1 n0 x0 f0", 0x39b187e73f4d5153),
    ("contiguous a8 c1 n0 x0 f1", 0x11e0fb6b1736b7fc),
    ("contiguous a8 c1 n0 x1 f0", 0xcfb3294401e2657f),
    ("contiguous a8 c1 n0 x1 f1", 0x0a832fb60ea130b1),
    ("contiguous a8 c1 n1 x0 f0", 0x9d6fd0ada181ed9e),
    ("contiguous a8 c1 n1 x0 f1", 0x52b3aa4a0954b531),
    ("contiguous a8 c1 n1 x1 f0", 0xcdd14a46a0f12872),
    ("contiguous a8 c1 n1 x1 f1", 0xc14e19570bedf28a),
    ("contiguous a63 c0 n0 x0 f0", 0xb54c64f5359bd9ea),
    ("contiguous a63 c0 n0 x0 f1", 0x6964a43e820f785d),
    ("contiguous a63 c0 n0 x1 f0", 0x807752e4a8c0a9cf),
    ("contiguous a63 c0 n0 x1 f1", 0xd705869202a7efbc),
    ("contiguous a63 c0 n1 x0 f0", 0xc9b33023148b6b73),
    ("contiguous a63 c0 n1 x0 f1", 0xb63da5b1ebb59f1a),
    ("contiguous a63 c0 n1 x1 f0", 0xf80317a1667e9e9d),
    ("contiguous a63 c0 n1 x1 f1", 0x508e692e2f001a46),
    ("contiguous a63 c1 n0 x0 f0", 0xb54c64f5359bd9ea),
    ("contiguous a63 c1 n0 x0 f1", 0x6964a43e820f785d),
    ("contiguous a63 c1 n0 x1 f0", 0xcc484ff6a15fccf7),
    ("contiguous a63 c1 n0 x1 f1", 0x30163abf49348bb4),
    ("contiguous a63 c1 n1 x0 f0", 0xc9b33023148b6b73),
    ("contiguous a63 c1 n1 x0 f1", 0xb63da5b1ebb59f1a),
    ("contiguous a63 c1 n1 x1 f0", 0xaa393ddb9179f667),
    ("contiguous a63 c1 n1 x1 f1", 0x06376e13b59e3c4c),
    ("interleaved a8 c0 n0 x0 f0", 0x39b187e73f4d5153),
    ("interleaved a8 c0 n0 x0 f1", 0x11e0fb6b1736b7fc),
    ("interleaved a8 c0 n0 x1 f0", 0xc6ba99239cf0f37d),
    ("interleaved a8 c0 n0 x1 f1", 0x1578fec4c451fb73),
    ("interleaved a8 c0 n1 x0 f0", 0x9d6fd0ada181ed9e),
    ("interleaved a8 c0 n1 x0 f1", 0x52b3aa4a0954b531),
    ("interleaved a8 c0 n1 x1 f0", 0x9ce46baa2432d33b),
    ("interleaved a8 c0 n1 x1 f1", 0x92452125eac8fac6),
    ("interleaved a8 c1 n0 x0 f0", 0x39b187e73f4d5153),
    ("interleaved a8 c1 n0 x0 f1", 0x11e0fb6b1736b7fc),
    ("interleaved a8 c1 n0 x1 f0", 0x76ab6024dac70329),
    ("interleaved a8 c1 n0 x1 f1", 0xd37112114a16c968),
    ("interleaved a8 c1 n1 x0 f0", 0x9d6fd0ada181ed9e),
    ("interleaved a8 c1 n1 x0 f1", 0x52b3aa4a0954b531),
    ("interleaved a8 c1 n1 x1 f0", 0x17930a5f9134d1d3),
    ("interleaved a8 c1 n1 x1 f1", 0xdd75b2ce4d0c2cbe),
    ("interleaved a63 c0 n0 x0 f0", 0xb54c64f5359bd9ea),
    ("interleaved a63 c0 n0 x0 f1", 0x6964a43e820f785d),
    ("interleaved a63 c0 n0 x1 f0", 0xb5d8b484545abfb5),
    ("interleaved a63 c0 n0 x1 f1", 0xbcb725395ab9601e),
    ("interleaved a63 c0 n1 x0 f0", 0xc9b33023148b6b73),
    ("interleaved a63 c0 n1 x0 f1", 0xb63da5b1ebb59f1a),
    ("interleaved a63 c0 n1 x1 f0", 0x4b69d3fc7d028eb6),
    ("interleaved a63 c0 n1 x1 f1", 0xecad8efed90dcf72),
    ("interleaved a63 c1 n0 x0 f0", 0xb54c64f5359bd9ea),
    ("interleaved a63 c1 n0 x0 f1", 0x6964a43e820f785d),
    ("interleaved a63 c1 n0 x1 f0", 0x2028d678e37dd167),
    ("interleaved a63 c1 n0 x1 f1", 0xd0b429e59d79e357),
    ("interleaved a63 c1 n1 x0 f0", 0xc9b33023148b6b73),
    ("interleaved a63 c1 n1 x0 f1", 0xb63da5b1ebb59f1a),
    ("interleaved a63 c1 n1 x1 f0", 0xcd2652faa0e00449),
    ("interleaved a63 c1 n1 x1 f1", 0x23267c2681d159bc),
];

#[test]
fn conv2d_grouped_bits_match_the_pinned_digests() {
    let chip = ChipConfig::albireo_9();
    let cases = cases();
    let grid = grid();
    let configurations = grid.len();
    let mut mismatches = Vec::new();
    for (label, cfg, faults) in grid {
        let digests: Vec<u64> = [1, 2]
            .into_iter()
            .map(|threads| {
                let mut engine = AnalogEngine::new(&chip, cfg)
                    .with_parallelism(Parallelism::with_threads(threads));
                engine.inject_faults(faults.clone());
                cases
                    .iter()
                    .fold(0xA11A_B175_u64, |d, (input, kernels, spec, groups)| {
                        let out = engine.conv2d_grouped(input, kernels, spec, *groups);
                        out.iter().fold(d, |d, v| fold(d, v.to_bits()))
                    })
            })
            .collect();
        let pinned = PINNED.iter().find(|(l, _)| *l == label).map(|p| p.1);
        if digests.iter().any(|&d| Some(d) != pinned) {
            mismatches.push(format!(
                "    (\"{label}\", 0x{:016x}), // at 1 and 2 threads: {digests:016x?}, pinned {pinned:016x?}",
                digests[0]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {configurations} configurations moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(PINNED.len(), configurations, "one pinned digest each");
}
