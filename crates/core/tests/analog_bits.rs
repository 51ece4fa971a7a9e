//! Bit-exact pins of the analog convolution kernel. Every output of
//! `AnalogEngine::conv2d_grouped` over a fixed set of layer shapes is
//! folded as f64 bits into one digest per engine configuration, and each
//! digest must match the recorded one at one and at two threads.
//!
//! The grid crosses channel allocation, crosstalk compensation, noise,
//! crosstalk and the three-fault set with shapes that cover strides 1, 2
//! and 4, padding 0 to 2, kernels from 1×1 to 11×11 (so both row-band and
//! column-chunk decomposition run) and 1, 2 and depthwise groups. A second
//! shape list pins the edges of the output tiling — a single output row, a
//! block narrower than Nd under a tall tile — and exact `±0.0` weights. A
//! third pins how one call's groups and decomposition passes meet: an
//! all-zero group input, a pass whose kernel band is all zero under a stuck
//! MZM, column chunks in several groups, and a 40-channel depthwise layer.
//! A kernel change that moves a single output bit on any branch fails here.
//!
//! A fourth table pins the FC path, `AnalogEngine::dot`, the same way:
//! lengths around Albireo-9's `Nm·Nu = 27`-term chunk and one of 4,096,
//! signed weights, an all-zero weight row and an all-negative one, under
//! noise and crosstalk at three converter widths.
//!
//! Two more tables run the eight shapes under a stuck MZM and a dead
//! channel: one with every switching ring live, and one with a dead ring
//! over a column the dead channel leaves live, so the ring mask is pinned
//! with crosstalk off too.

use albireo_core::analog::{AnalogEngine, AnalogSimConfig, ChannelAllocation, Fault, FaultSet};
use albireo_core::config::ChipConfig;
use albireo_obs::fold;
use albireo_parallel::Parallelism;
use albireo_tensor::conv::ConvSpec;
use albireo_tensor::{Tensor3, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One grouped convolution of the grid.
struct Shape {
    depth: usize,
    height: usize,
    width: usize,
    kernels: usize,
    kernel: usize,
    /// Kernel rows; `kernel` unless a shape overrides it.
    kernel_rows: usize,
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
        kernel_rows: kernel,
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

/// Shapes at the edges of the rail kernel's output tiling, all dense 3×3
/// at stride 1 in one group.
const EDGE_SHAPES: [Shape; 3] = [
    // One output row (`by = 1`) and a short last Nd block.
    shape((4, 3, 11), 3, 3, (1, 0, 1)),
    // One block narrower than Nd (`bx = 3`) under a tall tile (`by = 8`).
    shape((4, 8, 3), 2, 3, (1, 1, 1)),
    // Two full Nd blocks and a short one; `edge_cases` plants exact
    // zero weights in it.
    shape((5, 6, 12), 2, 3, (1, 1, 1)),
];

/// The operands of [`EDGE_SHAPES`]. The last shape's kernels get signed
/// zeros outside any decomposition mask: every 4th weight becomes `0.0`
/// and every 7th of the rest `-0.0`.
fn edge_cases() -> Vec<(Tensor3, Tensor4, ConvSpec, usize)> {
    let mut cases = cases(&EDGE_SHAPES, 0xED6E);
    let kernels = &mut cases[2].1;
    let mut rest = 0;
    for (i, w) in kernels.as_mut_slice().iter_mut().enumerate() {
        if i % 4 == 3 {
            *w = 0.0;
        } else {
            rest += 1;
            if rest % 7 == 0 {
                *w = -0.0;
            }
        }
    }
    cases
}

/// Shapes where one call spans several groups or decomposition passes.
const GROUP_SHAPES: [Shape; 4] = [
    // Two groups; `group_cases` zeroes the second group's input.
    shape((4, 6, 8), 4, 3, (1, 1, 2)),
    // 5×5 in two groups, decomposed into single-row bands; `group_cases`
    // zeroes row 0 of group 0's kernels, where the stuck MZM (0, 2) sits.
    shape((4, 8, 9), 4, 5, (1, 2, 2)),
    // 1×11 in three groups at stride 2: two column chunks per group.
    Shape {
        kernel_rows: 1,
        ..shape((6, 4, 27), 6, 11, (2, 0, 3))
    },
    // Depthwise over 40 channels.
    shape((40, 5, 6), 40, 3, (1, 1, 40)),
];

/// The operands of [`GROUP_SHAPES`], with the first shape's second group
/// given an all-zero input and row 0 of the second shape's group-0
/// kernels set to zero.
fn group_cases() -> Vec<(Tensor3, Tensor4, ConvSpec, usize)> {
    let mut cases = cases(&GROUP_SHAPES, 0x6A0B);
    let input = &mut cases[0].0;
    let half = input.len() / 2;
    input.as_mut_slice()[half..].fill(0.0);
    let kernels = &mut cases[1].1;
    let (wm, wz, _, wx) = kernels.dims();
    for m in 0..wm / 2 {
        for z in 0..wz {
            for k in 0..wx {
                kernels.set(m, z, 0, k, 0.0);
            }
        }
    }
    cases
}

/// The operands of every shape, drawn from a fixed per-shape stream
/// seeded at `seed + i`.
fn cases(shapes: &[Shape], seed: u64) -> Vec<(Tensor3, Tensor4, ConvSpec, usize)> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut rng = StdRng::seed_from_u64(seed + i as u64);
            let input = Tensor3::random_uniform(s.depth, s.height, s.width, 0.0, 1.0, &mut rng);
            let kernels = Tensor4::random_gaussian(
                s.kernels,
                s.depth / s.groups,
                s.kernel_rows,
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

/// [`three_faults`] less its dead ring: every switching ring stays live.
fn live_ring_faults() -> FaultSet {
    let mut set = FaultSet::new();
    set.push(Fault::StuckMzm {
        row: 0,
        col: 2,
        weight: 0.5,
    })
    .push(Fault::DeadChannel { column: 3 });
    set
}

/// [`live_ring_faults`] plus a dead ring on multicast column 1 (output 0
/// and kernel column 1), which the dead channel leaves live. The
/// benchmark's dead ring sits on column 3, which its own dead channel
/// already zeroes, so only this set pins the ring mask with crosstalk
/// off.
fn live_column_ring_faults() -> FaultSet {
    let mut set = live_ring_faults();
    set.push(Fault::DeadRing {
        row: 1,
        col: 1,
        output: 0,
    });
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

/// The contiguous allocation under `faults`, labelled `a<ADC bits>
/// c<compensation> n<noise> x<crosstalk>`.
fn live_ring_grid(faults: FaultSet) -> Vec<(String, AnalogSimConfig, FaultSet)> {
    let mut out = Vec::new();
    for adc_bits in [8, 63] {
        for compensation in [false, true] {
            for noise in [false, true] {
                for crosstalk in [false, true] {
                    let cfg = AnalogSimConfig {
                        adc_bits,
                        enable_noise: noise,
                        enable_crosstalk: crosstalk,
                        crosstalk_compensation: compensation,
                        ..AnalogSimConfig::default()
                    };
                    let label = format!(
                        "a{adc_bits} c{} n{} x{}",
                        u8::from(compensation),
                        u8::from(noise),
                        u8::from(crosstalk),
                    );
                    out.push((label, cfg, faults.clone()));
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

/// The same fold over [`edge_cases`], recorded from the per-cycle rail
/// kernel.
const EDGE_PINNED: &[(&str, u64)] = &[
    ("contiguous a8 c0 n0 x0 f0", 0xffb7a9cec0e4032e),
    ("contiguous a8 c0 n0 x0 f1", 0x3caace6015fe4934),
    ("contiguous a8 c0 n0 x1 f0", 0x9fd77c93c4a92cc7),
    ("contiguous a8 c0 n0 x1 f1", 0x3511cf7d9dd31cb7),
    ("contiguous a8 c0 n1 x0 f0", 0xec6bfe8d737a64df),
    ("contiguous a8 c0 n1 x0 f1", 0x5fe856aab775dbed),
    ("contiguous a8 c0 n1 x1 f0", 0x30a709f97827b7e7),
    ("contiguous a8 c0 n1 x1 f1", 0x752d7d773a61577e),
    ("contiguous a8 c1 n0 x0 f0", 0xffb7a9cec0e4032e),
    ("contiguous a8 c1 n0 x0 f1", 0x3caace6015fe4934),
    ("contiguous a8 c1 n0 x1 f0", 0x59e1a2cb45e8bb9d),
    ("contiguous a8 c1 n0 x1 f1", 0xe18973141b32820c),
    ("contiguous a8 c1 n1 x0 f0", 0xec6bfe8d737a64df),
    ("contiguous a8 c1 n1 x0 f1", 0x5fe856aab775dbed),
    ("contiguous a8 c1 n1 x1 f0", 0x8d8f720db2ef1c4c),
    ("contiguous a8 c1 n1 x1 f1", 0x89370cf2c8820f6c),
    ("contiguous a63 c0 n0 x0 f0", 0x122c48c298514298),
    ("contiguous a63 c0 n0 x0 f1", 0x64ad82001f33da9d),
    ("contiguous a63 c0 n0 x1 f0", 0x63b60c619a14a7f0),
    ("contiguous a63 c0 n0 x1 f1", 0xb56e50f4af9e5d8e),
    ("contiguous a63 c0 n1 x0 f0", 0xe06b7eaca4f34b4c),
    ("contiguous a63 c0 n1 x0 f1", 0x9a7044c1fe17a742),
    ("contiguous a63 c0 n1 x1 f0", 0xff9df4350ee66ce4),
    ("contiguous a63 c0 n1 x1 f1", 0x7814bf4920158939),
    ("contiguous a63 c1 n0 x0 f0", 0x122c48c298514298),
    ("contiguous a63 c1 n0 x0 f1", 0x64ad82001f33da9d),
    ("contiguous a63 c1 n0 x1 f0", 0x6969063f3fa93304),
    ("contiguous a63 c1 n0 x1 f1", 0x604a95883a235803),
    ("contiguous a63 c1 n1 x0 f0", 0xe06b7eaca4f34b4c),
    ("contiguous a63 c1 n1 x0 f1", 0x9a7044c1fe17a742),
    ("contiguous a63 c1 n1 x1 f0", 0x13b7a0623e7e38e0),
    ("contiguous a63 c1 n1 x1 f1", 0xb1c36e49db24de3c),
    ("interleaved a8 c0 n0 x0 f0", 0xffb7a9cec0e4032e),
    ("interleaved a8 c0 n0 x0 f1", 0x3caace6015fe4934),
    ("interleaved a8 c0 n0 x1 f0", 0xc9e01f9d8e1f09c5),
    ("interleaved a8 c0 n0 x1 f1", 0x658567642a0e1ac8),
    ("interleaved a8 c0 n1 x0 f0", 0xec6bfe8d737a64df),
    ("interleaved a8 c0 n1 x0 f1", 0x5fe856aab775dbed),
    ("interleaved a8 c0 n1 x1 f0", 0xeb2470542a97db3f),
    ("interleaved a8 c0 n1 x1 f1", 0x5fe856aab775dbed),
    ("interleaved a8 c1 n0 x0 f0", 0xffb7a9cec0e4032e),
    ("interleaved a8 c1 n0 x0 f1", 0x3caace6015fe4934),
    ("interleaved a8 c1 n0 x1 f0", 0x76c5a0482bfaf23d),
    ("interleaved a8 c1 n0 x1 f1", 0x8b922671c55fd103),
    ("interleaved a8 c1 n1 x0 f0", 0xec6bfe8d737a64df),
    ("interleaved a8 c1 n1 x0 f1", 0x5fe856aab775dbed),
    ("interleaved a8 c1 n1 x1 f0", 0x2f40541b430ff15e),
    ("interleaved a8 c1 n1 x1 f1", 0xc4ad1052e8773467),
    ("interleaved a63 c0 n0 x0 f0", 0x122c48c298514298),
    ("interleaved a63 c0 n0 x0 f1", 0x64ad82001f33da9d),
    ("interleaved a63 c0 n0 x1 f0", 0xe6683e5562854a3d),
    ("interleaved a63 c0 n0 x1 f1", 0x518c251fd8935e36),
    ("interleaved a63 c0 n1 x0 f0", 0xe06b7eaca4f34b4c),
    ("interleaved a63 c0 n1 x0 f1", 0x9a7044c1fe17a742),
    ("interleaved a63 c0 n1 x1 f0", 0x78cd3aedccc2ca69),
    ("interleaved a63 c0 n1 x1 f1", 0x30d1815ba20777ac),
    ("interleaved a63 c1 n0 x0 f0", 0x122c48c298514298),
    ("interleaved a63 c1 n0 x0 f1", 0x64ad82001f33da9d),
    ("interleaved a63 c1 n0 x1 f0", 0x8bb988573ed86a5f),
    ("interleaved a63 c1 n0 x1 f1", 0x31b100ea169f1536),
    ("interleaved a63 c1 n1 x0 f0", 0xe06b7eaca4f34b4c),
    ("interleaved a63 c1 n1 x0 f1", 0x9a7044c1fe17a742),
    ("interleaved a63 c1 n1 x1 f0", 0x214697fad736570a),
    ("interleaved a63 c1 n1 x1 f1", 0x9b16f45ec3e9d6bc),
];

/// The same fold over [`group_cases`], recorded from the per-group,
/// per-pass tensor copies.
const GROUP_PINNED: &[(&str, u64)] = &[
    ("contiguous a8 c0 n0 x0 f0", 0xa7e89903f8d8c689),
    ("contiguous a8 c0 n0 x0 f1", 0x35c9c24a7739720f),
    ("contiguous a8 c0 n0 x1 f0", 0x446fd644acc896a9),
    ("contiguous a8 c0 n0 x1 f1", 0xfad43df6b27b77ee),
    ("contiguous a8 c0 n1 x0 f0", 0x770fa135754b4984),
    ("contiguous a8 c0 n1 x0 f1", 0x21398d7473f679b8),
    ("contiguous a8 c0 n1 x1 f0", 0x54e66a990b985eb3),
    ("contiguous a8 c0 n1 x1 f1", 0x33317933efe8974d),
    ("contiguous a8 c1 n0 x0 f0", 0xa7e89903f8d8c689),
    ("contiguous a8 c1 n0 x0 f1", 0x35c9c24a7739720f),
    ("contiguous a8 c1 n0 x1 f0", 0x4979634037a07952),
    ("contiguous a8 c1 n0 x1 f1", 0xd739ae45b202ce0e),
    ("contiguous a8 c1 n1 x0 f0", 0x770fa135754b4984),
    ("contiguous a8 c1 n1 x0 f1", 0x21398d7473f679b8),
    ("contiguous a8 c1 n1 x1 f0", 0xe7abd01c6eddcf78),
    ("contiguous a8 c1 n1 x1 f1", 0x19155e430c27809c),
    ("contiguous a63 c0 n0 x0 f0", 0x108cfd3cf818b6ed),
    ("contiguous a63 c0 n0 x0 f1", 0x3a9f856869d2a889),
    ("contiguous a63 c0 n0 x1 f0", 0x4fcd955ee71bf7ed),
    ("contiguous a63 c0 n0 x1 f1", 0x767b6559ea51c6ac),
    ("contiguous a63 c0 n1 x0 f0", 0x3d8cdf4e7e46d734),
    ("contiguous a63 c0 n1 x0 f1", 0x76e48060b3d366fa),
    ("contiguous a63 c0 n1 x1 f0", 0x0a4b605f6bf86100),
    ("contiguous a63 c0 n1 x1 f1", 0x163443f2b29ea1bc),
    ("contiguous a63 c1 n0 x0 f0", 0x108cfd3cf818b6ed),
    ("contiguous a63 c1 n0 x0 f1", 0x3a9f856869d2a889),
    ("contiguous a63 c1 n0 x1 f0", 0x18390007899c78c9),
    ("contiguous a63 c1 n0 x1 f1", 0xe2fd8a006fd2b0c8),
    ("contiguous a63 c1 n1 x0 f0", 0x3d8cdf4e7e46d734),
    ("contiguous a63 c1 n1 x0 f1", 0x76e48060b3d366fa),
    ("contiguous a63 c1 n1 x1 f0", 0x353ffa3dbf931466),
    ("contiguous a63 c1 n1 x1 f1", 0x0d75426bad6867da),
    ("interleaved a8 c0 n0 x0 f0", 0xa7e89903f8d8c689),
    ("interleaved a8 c0 n0 x0 f1", 0x35c9c24a7739720f),
    ("interleaved a8 c0 n0 x1 f0", 0x29bfeb7e5c758e38),
    ("interleaved a8 c0 n0 x1 f1", 0xcf92f09e47efaecf),
    ("interleaved a8 c0 n1 x0 f0", 0x770fa135754b4984),
    ("interleaved a8 c0 n1 x0 f1", 0x21398d7473f679b8),
    ("interleaved a8 c0 n1 x1 f0", 0xae297335736f718d),
    ("interleaved a8 c0 n1 x1 f1", 0x19c1f697bb4f3115),
    ("interleaved a8 c1 n0 x0 f0", 0xa7e89903f8d8c689),
    ("interleaved a8 c1 n0 x0 f1", 0x35c9c24a7739720f),
    ("interleaved a8 c1 n0 x1 f0", 0x9b56bd54e74c46bd),
    ("interleaved a8 c1 n0 x1 f1", 0xad507748d51bb9c6),
    ("interleaved a8 c1 n1 x0 f0", 0x770fa135754b4984),
    ("interleaved a8 c1 n1 x0 f1", 0x21398d7473f679b8),
    ("interleaved a8 c1 n1 x1 f0", 0x4a6751c2471d2a82),
    ("interleaved a8 c1 n1 x1 f1", 0xe552ca8d5a52f855),
    ("interleaved a63 c0 n0 x0 f0", 0x108cfd3cf818b6ed),
    ("interleaved a63 c0 n0 x0 f1", 0x3a9f856869d2a889),
    ("interleaved a63 c0 n0 x1 f0", 0xd79765ca483dca9d),
    ("interleaved a63 c0 n0 x1 f1", 0xee540bb083bd2c5e),
    ("interleaved a63 c0 n1 x0 f0", 0x3d8cdf4e7e46d734),
    ("interleaved a63 c0 n1 x0 f1", 0x76e48060b3d366fa),
    ("interleaved a63 c0 n1 x1 f0", 0xa3ef6a8a87698fdc),
    ("interleaved a63 c0 n1 x1 f1", 0x19524fb3b2550274),
    ("interleaved a63 c1 n0 x0 f0", 0x108cfd3cf818b6ed),
    ("interleaved a63 c1 n0 x0 f1", 0x3a9f856869d2a889),
    ("interleaved a63 c1 n0 x1 f0", 0xfd4082d76b79818a),
    ("interleaved a63 c1 n0 x1 f1", 0xd42f0b564a5def89),
    ("interleaved a63 c1 n1 x0 f0", 0x3d8cdf4e7e46d734),
    ("interleaved a63 c1 n1 x0 f1", 0x76e48060b3d366fa),
    ("interleaved a63 c1 n1 x1 f0", 0x3d843719f1119b64),
    ("interleaved a63 c1 n1 x1 f1", 0x1c70f0368e32ba62),
];

/// The fold of [`cases`] over [`SHAPES`] under [`live_ring_grid`] of
/// [`live_ring_faults`], recorded from the kernel that multiplied every
/// rail term by its ring's `1.0`/`0.0` factor.
const LIVE_RING_PINNED: &[(&str, u64)] = &[
    ("a8 c0 n0 x0", 0x11e0fb6b1736b7fc),
    ("a8 c0 n0 x1", 0x92cd4b5371832bd5),
    ("a8 c0 n1 x0", 0x52b3aa4a0954b531),
    ("a8 c0 n1 x1", 0x5868df09fd8dba71),
    ("a8 c1 n0 x0", 0x11e0fb6b1736b7fc),
    ("a8 c1 n0 x1", 0x8b6863b77c39cfa9),
    ("a8 c1 n1 x0", 0x52b3aa4a0954b531),
    ("a8 c1 n1 x1", 0x06846b81fd12ceef),
    ("a63 c0 n0 x0", 0x6964a43e820f785d),
    ("a63 c0 n0 x1", 0x4be89848caeb46a3),
    ("a63 c0 n1 x0", 0xb63da5b1ebb59f1a),
    ("a63 c0 n1 x1", 0x3313da04a431dbd8),
    ("a63 c1 n0 x0", 0x6964a43e820f785d),
    ("a63 c1 n0 x1", 0x767e7bf5303ea296),
    ("a63 c1 n1 x0", 0xb63da5b1ebb59f1a),
    ("a63 c1 n1 x1", 0xbbbb4b5832501a10),
];

/// The fold of [`cases`] over [`SHAPES`] under [`live_ring_grid`] of
/// [`live_column_ring_faults`], recorded from the kernel with the
/// mask-free sweep.
const LIVE_COLUMN_RING_PINNED: &[(&str, u64)] = &[
    ("a8 c0 n0 x0", 0x9e420bace83dd710),
    ("a8 c0 n0 x1", 0x371395b6f9db52b3),
    ("a8 c0 n1 x0", 0xbb17b9af477b2108),
    ("a8 c0 n1 x1", 0x953fd8be9107b8ce),
    ("a8 c1 n0 x0", 0x9e420bace83dd710),
    ("a8 c1 n0 x1", 0xe9cefbc2eb4eb72f),
    ("a8 c1 n1 x0", 0xbb17b9af477b2108),
    ("a8 c1 n1 x1", 0x522fb993476e878f),
    ("a63 c0 n0 x0", 0x410a32b51afa17e1),
    ("a63 c0 n0 x1", 0x5850e5b761f357cc),
    ("a63 c0 n1 x0", 0x8541135dd3a3fe81),
    ("a63 c0 n1 x1", 0xcf38bad4619b0a7f),
    ("a63 c1 n0 x0", 0x410a32b51afa17e1),
    ("a63 c1 n0 x1", 0x7849c4d379ba25db),
    ("a63 c1 n1 x0", 0x8541135dd3a3fe81),
    ("a63 c1 n1 x1", 0x3c0afaf0a14603ed),
];

/// Folds every output bit of `cases` under each configuration of
/// `grid`, at one and at two threads, and asserts each digest equals its
/// `pinned` entry; a mismatch prints the replacement lines.
fn check_digests(
    cases: &[(Tensor3, Tensor4, ConvSpec, usize)],
    grid: Vec<(String, AnalogSimConfig, FaultSet)>,
    pinned: &[(&str, u64)],
) {
    let chip = ChipConfig::albireo_9();
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
        let pinned = pinned.iter().find(|(l, _)| *l == label).map(|p| p.1);
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
    assert_eq!(pinned.len(), configurations, "one pinned digest each");
}

#[test]
fn conv2d_grouped_bits_match_the_pinned_digests() {
    check_digests(&cases(&SHAPES, 0xB175), grid(), PINNED);
}

#[test]
fn edge_shape_bits_match_the_pinned_digests() {
    check_digests(&edge_cases(), grid(), EDGE_PINNED);
}

#[test]
fn group_and_pass_bits_match_the_pinned_digests() {
    check_digests(&group_cases(), grid(), GROUP_PINNED);
}

#[test]
fn live_ring_fault_bits_match_the_pinned_digests() {
    let grid = live_ring_grid(live_ring_faults());
    check_digests(&cases(&SHAPES, 0xB175), grid, LIVE_RING_PINNED);
}

#[test]
fn a_dead_ring_on_a_live_column_moves_the_bits_without_crosstalk() {
    let grid = live_ring_grid(live_column_ring_faults());
    check_digests(&cases(&SHAPES, 0xB175), grid, LIVE_COLUMN_RING_PINNED);
    for (label, digest) in LIVE_COLUMN_RING_PINNED {
        if label.ends_with("x0") {
            let without_ring = LIVE_RING_PINNED.iter().find(|(l, _)| l == label);
            assert_ne!(Some(digest), without_ring.map(|(_, d)| d), "{label}");
        }
    }
}

/// The operands of the `dot` pins: signed weights at lengths 1, 26, 27,
/// 28 and 4,096 (a chunk less one term, one chunk, a chunk and one
/// term, and 152 chunks, the last short), then an all-zero weight row
/// and an all-negative one of 28 terms.
fn dot_cases() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut rng = StdRng::seed_from_u64(0xD07);
    let mut draw = |n: usize, w: fn(f64) -> f64| -> (Vec<f64>, Vec<f64>) {
        let a = (0..n).map(|_| rng.random::<f64>()).collect();
        let w = (0..n).map(|_| w(rng.random::<f64>())).collect();
        (a, w)
    };
    let mut cases: Vec<_> = [1, 26, 27, 28, 4096]
        .into_iter()
        .map(|n| draw(n, |u| 2.0 * u - 1.0))
        .collect();
    cases.push(draw(27, |_| 0.0));
    cases.push(draw(28, |u| -u));
    cases
}

/// Fold of every [`dot_cases`] result, per `a<ADC bits> n<noise>
/// x<crosstalk>`; recorded from the per-detection Box–Muller transform.
/// Allocation and compensation do not reach the FC path.
const DOT_PINNED: &[(&str, u64)] = &[
    ("a8 n0 x0", 0xe7fdb9330968cdf2),
    ("a8 n0 x1", 0xe7c203b9768d10cb),
    ("a8 n1 x0", 0xd174d24c11d7b4b9),
    ("a8 n1 x1", 0x0b11fd8554ac34b9),
    ("a16 n0 x0", 0x66dcb59afc82b186),
    ("a16 n0 x1", 0xf89800acb87ab9d1),
    ("a16 n1 x0", 0x5243421ef12ab347),
    ("a16 n1 x1", 0x524343ea4a306661),
    ("a63 n0 x0", 0xc7416192ef634609),
    ("a63 n0 x1", 0xb978ce4a27aa5019),
    ("a63 n1 x0", 0x98f413b9456383fe),
    ("a63 n1 x1", 0x7d7299f436cb0bec),
];

#[test]
fn dot_bits_match_the_pinned_digests() {
    let chip = ChipConfig::albireo_9();
    let cases = dot_cases();
    let mut configurations = 0;
    let mut mismatches = Vec::new();
    for adc_bits in [8, 16, 63] {
        for noise in [false, true] {
            for crosstalk in [false, true] {
                configurations += 1;
                let cfg = AnalogSimConfig {
                    adc_bits,
                    enable_noise: noise,
                    enable_crosstalk: crosstalk,
                    ..AnalogSimConfig::default()
                };
                let engine = AnalogEngine::new(&chip, cfg);
                let digest = cases.iter().fold(0xD07_B175_u64, |d, (a, w)| {
                    fold(d, engine.dot(a, w).to_bits())
                });
                let label = format!("a{adc_bits} n{} x{}", u8::from(noise), u8::from(crosstalk));
                let pinned = DOT_PINNED.iter().find(|(l, _)| *l == label).map(|p| p.1);
                if Some(digest) != pinned {
                    mismatches.push(format!(
                        "    (\"{label}\", 0x{digest:016x}), // pinned {pinned:016x?}"
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {configurations} configurations moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(DOT_PINNED.len(), configurations, "one pinned digest each");
}
