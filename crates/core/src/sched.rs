//! Dataflow scheduling — paper Algorithm 2 and the §III-C layer mappings.
//!
//! Albireo's dataflow is depth-first: for each group of `Nd` output
//! positions, partial sums are aggregated across all `⌈Wz/Nu⌉` channel
//! groups before the kernel moves (no partial-sum writes to memory). The
//! cycle count of a standard convolution is therefore
//!
//! ```text
//! cycles = ⌈Wm/Ng⌉ · By · ⌈Bx/Nd⌉ · ⌈Wz/Nu⌉ · ⌈Wx·Wy/Nm⌉
//! ```
//!
//! with the §III-C variants for FC, depthwise and pointwise layers.
//!
//! Strided convolutions: the PLCU's multicast width is fixed at
//! `Nd + Wx − 1` input columns, which fits only
//! `⌊(Nd − 1)/S⌋ + 1` stride-`S` receptive fields. The paper does not state
//! its treatment of strides; this penalty is modelled by default and can be
//! disabled via [`crate::config::ChipConfig::model_stride_penalty`].

use crate::config::ChipConfig;
use albireo_nn::layer::{LayerInstance, LayerKind};
use albireo_nn::Model;

/// Ceiling division of two positive integers.
fn ceil_div(a: usize, b: usize) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b) as u64
}

/// Cycle count and utilization for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSchedule {
    /// Layer name.
    pub name: String,
    /// Cycles spent in the photonic datapath.
    pub cycles: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Fraction of the chip's peak MACs/cycle actually used.
    pub utilization: f64,
}

/// Schedules one layer on the chip, returning its cycle count
/// (0 for pooling layers, which run in the digital aggregation path).
pub fn layer_cycles(chip: &ChipConfig, layer: &LayerInstance) -> u64 {
    let nm = chip.plcu.nm;
    let nd = chip.plcu.nd;
    let nu = chip.nu;
    let ng = chip.ng;
    match layer.kind {
        LayerKind::Conv {
            kernels,
            kernel_y,
            kernel_x,
            stride,
            groups,
            ..
        } => {
            let nd_eff = effective_nd(chip, stride);
            let depth = layer.input.z / groups;
            // All kernels (across all groups) are distributed over the Ng
            // PLCGs; each kernel's dot products span its group's channels.
            ceil_div(kernels, ng)
                * layer.output.y as u64
                * ceil_div(layer.output.x, nd_eff)
                * ceil_div(depth, nu)
                * ceil_div(kernel_y * kernel_x, nm)
        }
        LayerKind::Depthwise { kernel, stride, .. } => {
            let nd_eff = effective_nd(chip, stride);
            // Each PLCU applies one depthwise kernel; no cross-channel
            // aggregation, so Nu·Ng channels run concurrently (§III-C).
            ceil_div(layer.input.z, nu * ng)
                * layer.output.y as u64
                * ceil_div(layer.output.x, nd_eff)
                * ceil_div(kernel * kernel, nm)
        }
        LayerKind::Pointwise { kernels } => {
            // Each MZM holds one channel of the 1×1 kernel: Nm·Nu channels
            // aggregate per cycle per group; Nd receptive fields per PLCU.
            ceil_div(kernels, ng)
                * layer.output.y as u64
                * ceil_div(layer.output.x, nd)
                * ceil_div(layer.input.z, nm * nu)
        }
        LayerKind::FullyConnected { outputs } => {
            // One kernel per output; only one PD column is used (no
            // parameter sharing), aggregation across the group's PLCUs
            // still applies: Nm·Nu MACs per cycle per group.
            ceil_div(outputs, ng) * ceil_div(layer.input.elements(), nm * nu)
        }
        LayerKind::MaxPool { .. } | LayerKind::AvgPool { .. } => 0,
    }
}

/// Receptive fields that fit the fixed multicast width at stride `S`.
fn effective_nd(chip: &ChipConfig, stride: usize) -> usize {
    let nd = chip.plcu.nd;
    if !chip.model_stride_penalty || stride <= 1 {
        nd
    } else {
        (nd - 1) / stride + 1
    }
}

/// Schedules every layer of a network.
pub fn schedule_model(chip: &ChipConfig, model: &Model) -> Vec<LayerSchedule> {
    let peak = chip.peak_macs_per_cycle();
    model
        .layers()
        .iter()
        .map(|layer| {
            let cycles = layer_cycles(chip, layer);
            let macs = layer.macs();
            let utilization = if cycles == 0 {
                0.0
            } else {
                macs as f64 / (cycles as f64 * peak as f64)
            };
            LayerSchedule {
                name: layer.name.clone(),
                cycles,
                macs,
                utilization,
            }
        })
        .collect()
}

/// Total cycles for a network.
pub fn total_cycles(chip: &ChipConfig, model: &Model) -> u64 {
    model
        .layers()
        .iter()
        .map(|layer| layer_cycles(chip, layer))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_nn::layer::VolumeShape;
    use albireo_nn::zoo;

    fn conv_instance(
        kernels: usize,
        kernel: usize,
        stride: usize,
        in_shape: VolumeShape,
        out_shape: VolumeShape,
    ) -> LayerInstance {
        LayerInstance {
            name: "conv".into(),
            kind: LayerKind::conv(kernels, kernel, stride, 0),
            input: in_shape,
            output: out_shape,
            is_branch: false,
        }
    }

    #[test]
    fn unit_conv_formula() {
        // 64 kernels of 3×3×64 over a 56×56 output on Albireo-9:
        // ⌈64/9⌉·56·⌈56/5⌉·⌈64/3⌉·⌈9/9⌉ = 8·56·12·22·1.
        let chip = ChipConfig::albireo_9();
        let li = conv_instance(
            64,
            3,
            1,
            VolumeShape::new(64, 58, 58),
            VolumeShape::new(64, 56, 56),
        );
        assert_eq!(layer_cycles(&chip, &li), 8 * 56 * 12 * 22);
    }

    #[test]
    fn large_kernel_needs_extra_passes() {
        let chip = ChipConfig::albireo_9();
        let small = conv_instance(
            9,
            3,
            1,
            VolumeShape::new(3, 10, 10),
            VolumeShape::new(9, 8, 8),
        );
        let large = conv_instance(
            9,
            5,
            1,
            VolumeShape::new(3, 12, 12),
            VolumeShape::new(9, 8, 8),
        );
        // 5×5 = 25 weights ⇒ ⌈25/9⌉ = 3 passes vs 1.
        assert_eq!(layer_cycles(&chip, &large), 3 * layer_cycles(&chip, &small));
    }

    #[test]
    fn stride_penalty_reduces_parallelism() {
        let mut chip = ChipConfig::albireo_9();
        let li = conv_instance(
            9,
            3,
            2,
            VolumeShape::new(3, 21, 21),
            VolumeShape::new(9, 10, 10),
        );
        let with_penalty = layer_cycles(&chip, &li);
        chip.model_stride_penalty = false;
        let without = layer_cycles(&chip, &li);
        // stride 2: Nd_eff = 3 ⇒ ⌈10/3⌉ = 4 vs ⌈10/5⌉ = 2 column groups.
        assert_eq!(with_penalty, 2 * without);
    }

    #[test]
    fn more_groups_never_slower() {
        let chip9 = ChipConfig::albireo_9();
        let chip27 = ChipConfig::albireo_27();
        for model in zoo::all_benchmarks() {
            let c9 = total_cycles(&chip9, &model);
            let c27 = total_cycles(&chip27, &model);
            assert!(c27 <= c9, "{}: {c27} > {c9}", model.name());
            assert!(c27 > 0);
        }
    }

    #[test]
    fn vgg16_latency_anchor() {
        // Paper Table IV: VGG16 on Albireo-C is 2.55 ms at 5 GHz
        // (12.75 M cycles). The reproduced dataflow lands within ~20%.
        let chip = ChipConfig::albireo_9();
        let cycles = total_cycles(&chip, &zoo::vgg16());
        let ms = cycles as f64 / 5e9 * 1e3;
        assert!((2.0..3.5).contains(&ms), "VGG16 latency = {ms} ms");
    }

    #[test]
    fn alexnet_latency_anchor() {
        // Paper: 0.13 ms. The reproduced model (with the stride penalty on
        // conv1) lands within ~2×; the shape (sub-ms, ~20× faster than
        // VGG16) holds.
        let chip = ChipConfig::albireo_9();
        let cycles = total_cycles(&chip, &zoo::alexnet());
        let ms = cycles as f64 / 5e9 * 1e3;
        assert!((0.05..0.3).contains(&ms), "AlexNet latency = {ms} ms");
    }

    #[test]
    fn fc_layer_cycles() {
        let chip = ChipConfig::albireo_9();
        let li = LayerInstance {
            name: "fc".into(),
            kind: LayerKind::FullyConnected { outputs: 4096 },
            input: VolumeShape::new(256, 6, 6),
            output: VolumeShape::new(4096, 1, 1),
            is_branch: false,
        };
        // ⌈4096/9⌉·⌈9216/27⌉ = 456·342.
        assert_eq!(layer_cycles(&chip, &li), 456 * 342);
    }

    #[test]
    fn pointwise_cycles() {
        let chip = ChipConfig::albireo_9();
        let li = LayerInstance {
            name: "pw".into(),
            kind: LayerKind::Pointwise { kernels: 64 },
            input: VolumeShape::new(32, 112, 112),
            output: VolumeShape::new(64, 112, 112),
            is_branch: false,
        };
        // ⌈64/9⌉·112·⌈112/5⌉·⌈32/27⌉ = 8·112·23·2.
        assert_eq!(layer_cycles(&chip, &li), 8 * 112 * 23 * 2);
    }

    #[test]
    fn depthwise_cycles() {
        let chip = ChipConfig::albireo_9();
        let li = LayerInstance {
            name: "dw".into(),
            kind: LayerKind::Depthwise {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            input: VolumeShape::new(64, 56, 56),
            output: VolumeShape::new(64, 56, 56),
            is_branch: false,
        };
        // ⌈64/27⌉·56·⌈56/5⌉·1 = 3·56·12.
        assert_eq!(layer_cycles(&chip, &li), 3 * 56 * 12);
    }

    #[test]
    fn pooling_is_free() {
        let chip = ChipConfig::albireo_9();
        let li = LayerInstance {
            name: "pool".into(),
            kind: LayerKind::MaxPool {
                window: 2,
                stride: 2,
            },
            input: VolumeShape::new(64, 112, 112),
            output: VolumeShape::new(64, 56, 56),
            is_branch: false,
        };
        assert_eq!(layer_cycles(&chip, &li), 0);
    }

    #[test]
    fn utilization_is_bounded() {
        let chip = ChipConfig::albireo_9();
        for model in zoo::all_benchmarks() {
            for s in schedule_model(&chip, &model) {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&s.utilization),
                    "{}: utilization {}",
                    s.name,
                    s.utilization
                );
            }
        }
    }

    #[test]
    fn schedule_covers_all_layers() {
        let chip = ChipConfig::albireo_9();
        let model = zoo::mobilenet();
        let sched = schedule_model(&chip, &model);
        assert_eq!(sched.len(), model.layers().len());
        let total: u64 = sched.iter().map(|s| s.cycles).sum();
        assert_eq!(total, total_cycles(&chip, &model));
    }
}
