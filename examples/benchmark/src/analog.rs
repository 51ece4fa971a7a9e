//! The analog workloads: every compute layer of the paper's four
//! networks, cut to a slice, through the functional analog engine on
//! one thread.
//!
//! A slice keeps a layer's kernel size, stride, padding, groups and
//! input depth — the parameters the engine's work per output depends
//! on — and cuts the rest: at most [`MAX_KERNELS`] kernels (a depthwise
//! layer keeps every channel, since each is its own group), and an
//! output of at most [`MAX_OUT_Y`]×[`MAX_OUT_X`]. A fully-connected
//! layer keeps its whole input and its first [`MAX_KERNELS`] outputs.

use crate::harness::{After, Spans, Workload};
use crate::report::Metrics;
use albireo::core::analog::{AnalogEngine, AnalogSimConfig, ChannelAllocation, Fault, FaultSet};
use albireo::core::ChipConfig;
use albireo::nn::{zoo, LayerInstance, LayerKind, Model, VolumeShape};
use albireo::parallel::{split_seed, stream_id, Parallelism};
use albireo::tensor::conv::{conv2d_grouped, ConvSpec};
use albireo::tensor::{output_extent, Tensor3, Tensor4};
use albireo_obs::{fold, ProfileReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Kernels (or FC outputs) a slice keeps.
pub const MAX_KERNELS: usize = 8;
/// Output rows a slice keeps.
pub const MAX_OUT_Y: usize = 4;
/// Output columns a slice keeps: two of the Albireo-9 PLCU's `Nd = 5`
/// overlapping receptive fields.
pub const MAX_OUT_X: usize = 10;

/// The largest analog-vs-reference error, as a share of full scale,
/// `analog_nets` accepts.
const MAX_ERR_FS: f64 = 0.05;

/// Fold of every output of one `analog_nets` unit at the default seed.
const NETS_DIGEST: u64 = 0x6897_ee27_cd49_c085;
/// Fold of every output of one `analog_faults` unit at the default seed.
const FAULTS_DIGEST: u64 = 0xa584_408f_9864_d989;

/// The layer families whose kernel cost differs, each with its own span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Stride 1, kernel within the PLCU's MZMs: `Nd` overlapping fields
    /// share every row.
    DenseS1,
    /// Stride above 1: one field per PLCU cycle.
    Strided,
    /// Kernel larger than the PLCU's MZMs: decomposed into passes.
    LargeKernel,
    /// One group per channel: per-group copies in `conv2d_grouped`.
    Depthwise,
    /// 1×1 kernels.
    Pointwise,
    /// Fully connected: `AnalogEngine::dot` per output.
    FullyConnected,
}

impl Family {
    fn of(kind: &LayerKind, nm: usize) -> Family {
        match *kind {
            LayerKind::Depthwise { .. } => Family::Depthwise,
            LayerKind::Pointwise { .. } => Family::Pointwise,
            LayerKind::FullyConnected { .. } => Family::FullyConnected,
            LayerKind::Conv {
                kernel_y, kernel_x, ..
            } if kernel_y * kernel_x > nm => Family::LargeKernel,
            LayerKind::Conv { stride, .. } if stride > 1 => Family::Strided,
            _ => Family::DenseS1,
        }
    }

    fn span(self) -> &'static str {
        match self {
            Family::DenseS1 => "core.analog.kind.dense_s1_s",
            Family::Strided => "core.analog.kind.strided_s",
            Family::LargeKernel => "core.analog.kind.large_kernel_s",
            Family::Depthwise => "core.analog.kind.depthwise_s",
            Family::Pointwise => "core.analog.kind.pointwise_s",
            Family::FullyConnected => "core.analog.dot_s",
        }
    }
}

fn net_span(model: &Model) -> &'static str {
    match model.name() {
        "AlexNet" => "core.analog.net.AlexNet_s",
        "VGG16" => "core.analog.net.VGG16_s",
        "ResNet18" => "core.analog.net.ResNet18_s",
        "MobileNet" => "core.analog.net.MobileNet_s",
        other => panic!("no span for network {other}"),
    }
}

/// The slice of a compute layer (`None` for pooling layers): the same
/// operator with the kernel count and output cut as the module docs
/// describe, and the input extent that yields exactly that output.
pub fn slice_instance(li: &LayerInstance) -> Option<LayerInstance> {
    let (oy, ox) = (li.output.y.min(MAX_OUT_Y), li.output.x.min(MAX_OUT_X));
    // The input extent whose convolution output is exactly `o` (Eq. 1).
    let extent = |o: usize, k: usize, s: usize, p: usize| ((o - 1) * s + k - 2 * p).max(1);
    let (kind, out_z, ay, ax) = match li.kind {
        LayerKind::Conv {
            kernels,
            kernel_y,
            kernel_x,
            stride,
            padding,
            groups,
        } => {
            let kernels = kernels.min(MAX_KERNELS).max(groups) / groups * groups;
            let kind = LayerKind::Conv {
                kernels,
                kernel_y,
                kernel_x,
                stride,
                padding,
                groups,
            };
            let ay = extent(oy, kernel_y, stride, padding);
            (kind, kernels, ay, extent(ox, kernel_x, stride, padding))
        }
        LayerKind::Depthwise {
            kernel,
            stride,
            padding,
        } => {
            let ay = extent(oy, kernel, stride, padding);
            (li.kind, li.input.z, ay, extent(ox, kernel, stride, padding))
        }
        LayerKind::Pointwise { kernels } => {
            let kernels = kernels.min(MAX_KERNELS);
            (LayerKind::Pointwise { kernels }, kernels, oy, ox)
        }
        LayerKind::FullyConnected { outputs } => {
            let outputs = outputs.min(MAX_KERNELS);
            let kind = LayerKind::FullyConnected { outputs };
            return Some(LayerInstance {
                kind,
                output: VolumeShape::new(outputs, 1, 1),
                ..li.clone()
            });
        }
        LayerKind::MaxPool { .. } | LayerKind::AvgPool { .. } => return None,
    };
    Some(LayerInstance {
        kind,
        input: VolumeShape::new(li.input.z, ay, ax),
        output: VolumeShape::new(out_z, oy, ox),
        ..li.clone()
    })
}

/// The operands of one slice, generated from the run seed.
pub enum Operands {
    Conv {
        input: Tensor3,
        kernels: Tensor4,
        spec: ConvSpec,
        groups: usize,
    },
    Fc {
        input: Vec<f64>,
        rows: Vec<Vec<f64>>,
    },
}

/// One slice ready to run.
pub struct Slice {
    pub name: String,
    pub net_span: &'static str,
    pub family: Family,
    pub operands: Operands,
}

impl Slice {
    /// Builds the slice of layer `layer` of `model` (network `net` of
    /// [`zoo::all_benchmarks`]), drawing its operands from a stream of
    /// `seed` keyed to that layer, so a layer's operands are the same in
    /// every workload that runs it.
    pub fn new(net: usize, model: &Model, layer: usize, seed: u64, nm: usize) -> Option<Slice> {
        let li = &model.layers()[layer];
        let shape = slice_instance(li)?;
        let stream = stream_id(net as u64, layer as u64, 0);
        let mut rng = StdRng::seed_from_u64(split_seed(seed, stream));
        let (z, y, x) = (shape.input.z, shape.input.y, shape.input.x);
        let operands = match shape.kind {
            LayerKind::FullyConnected { outputs } => {
                let n = shape.input.elements();
                let input = (0..n).map(|_| rng.random::<f64>()).collect();
                let rows = (0..outputs)
                    .map(|_| (0..n).map(|_| rng.random::<f64>() - 0.5).collect())
                    .collect();
                Operands::Fc { input, rows }
            }
            kind => {
                let (m, wz, wy, wx, spec, groups) = match kind {
                    LayerKind::Conv {
                        kernels,
                        kernel_y,
                        kernel_x,
                        stride,
                        padding,
                        groups,
                    } => (
                        kernels,
                        z / groups,
                        kernel_y,
                        kernel_x,
                        ConvSpec::new(stride, padding),
                        groups,
                    ),
                    LayerKind::Depthwise {
                        kernel,
                        stride,
                        padding,
                    } => (z, 1, kernel, kernel, ConvSpec::new(stride, padding), z),
                    LayerKind::Pointwise { kernels } => (kernels, z, 1, 1, ConvSpec::unit(), 1),
                    _ => unreachable!("slice_instance keeps only compute layers"),
                };
                Operands::Conv {
                    input: Tensor3::random_uniform(z, y, x, 0.0, 1.0, &mut rng),
                    kernels: Tensor4::random_gaussian(m, wz, wy, wx, 0.3, &mut rng),
                    spec,
                    groups,
                }
            }
        };
        Some(Slice {
            name: format!("{}/{}", model.name(), li.name),
            net_span: net_span(model),
            family: Family::of(&li.kind, nm),
            operands,
        })
    }

    /// MACs the slice's operands imply: outputs × weights per output.
    pub fn operand_macs(&self) -> u64 {
        match &self.operands {
            Operands::Conv {
                input,
                kernels,
                spec,
                ..
            } => {
                let (m, wz, wy, wx) = kernels.dims();
                let (_, ay, ax) = input.dims();
                let by = output_extent(ay, wy, spec.padding, spec.stride);
                let bx = output_extent(ax, wx, spec.padding, spec.stride);
                (m * by * bx * wz * wy * wx) as u64
            }
            Operands::Fc { input, rows } => (rows.len() * input.len()) as u64,
        }
    }
}

/// Every compute-layer slice of the paper networks named in `networks`,
/// in zoo order.
pub fn slices(networks: &[&str], seed: u64, convs_only: bool) -> Vec<Slice> {
    let nm = ChipConfig::albireo_9().plcu.nm;
    let models = zoo::all_benchmarks();
    let mut out = Vec::new();
    for (net, model) in models.iter().enumerate() {
        if !networks.contains(&model.name()) {
            continue;
        }
        for layer in 0..model.layers().len() {
            out.extend(Slice::new(net, model, layer, seed, nm));
        }
    }
    out.retain(|s| !convs_only || s.family != Family::FullyConnected);
    out
}

/// One analog workload: the slices, the engine, and the outputs of the
/// first unit (kept for the reference check).
pub struct Analog {
    slices: Vec<Slice>,
    engine: AnalogEngine,
    pinned: u64,
    check_reference: bool,
    first_outputs: Vec<Tensor3>,
}

/// A one-thread Albireo-9 engine with `faults` injected.
fn engine(cfg: AnalogSimConfig, faults: FaultSet, metrics: &mut Metrics) -> AnalogEngine {
    let t0 = Instant::now();
    let engine = AnalogEngine::new(&ChipConfig::albireo_9(), cfg);
    metrics.push("core.analog.engine_new_s", t0.elapsed().as_secs_f64());
    let mut engine = engine.with_parallelism(Parallelism::serial());
    engine.inject_faults(faults);
    engine
}

/// `analog_nets`: all four networks, convolutions and FC rows, with the
/// default configuration (noise and crosstalk on).
pub fn nets(seed: u64, metrics: &mut Metrics) -> Result<Box<dyn Workload>, String> {
    let engine = engine(AnalogSimConfig::default(), FaultSet::new(), metrics);
    Ok(Box::new(Analog {
        slices: slices(&["AlexNet", "VGG16", "ResNet18", "MobileNet"], seed, false),
        engine,
        pinned: NETS_DIGEST,
        check_reference: true,
        first_outputs: Vec::new(),
    }))
}

/// `analog_faults`: the VGG16 and MobileNet convolutions through every
/// non-default branch — crosstalk compensation (a second rail pass),
/// row-interleaved channels, and three injected faults.
pub fn faults(seed: u64, metrics: &mut Metrics) -> Result<Box<dyn Workload>, String> {
    let cfg = AnalogSimConfig {
        crosstalk_compensation: true,
        allocation: ChannelAllocation::RowInterleaved,
        ..AnalogSimConfig::default()
    };
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
    let engine = engine(cfg, set, metrics);
    Ok(Box::new(Analog {
        slices: slices(&["VGG16", "MobileNet"], seed, true),
        engine,
        pinned: FAULTS_DIGEST,
        check_reference: false,
        first_outputs: Vec::new(),
    }))
}

impl Analog {
    fn macs(&self, convs_only: bool) -> u64 {
        self.slices
            .iter()
            .filter(|s| !convs_only || s.family != Family::FullyConnected)
            .map(Slice::operand_macs)
            .sum()
    }
}

impl Workload for Analog {
    fn items_per_unit(&self) -> f64 {
        self.macs(false) as f64
    }

    fn unit(&mut self, _i: usize, spans: &mut Spans<'_>) -> Result<u64, String> {
        let keep = self.first_outputs.is_empty();
        let mut digest = 0xA11A_1061_u64;
        for slice in &self.slices {
            match &slice.operands {
                Operands::Conv {
                    input,
                    kernels,
                    spec,
                    groups,
                } => {
                    let names = ["core.analog.conv2d_s", slice.family.span(), slice.net_span];
                    let out = spans.time(&names, || {
                        self.engine.conv2d_grouped(input, kernels, spec, *groups)
                    });
                    digest = out.iter().fold(digest, |d, v| fold(d, v.to_bits()));
                    if keep {
                        self.first_outputs.push(out);
                    }
                }
                Operands::Fc { input, rows } => {
                    let names = ["core.analog.dot_s", slice.net_span];
                    let outs: Vec<f64> = spans.time(&names, || {
                        rows.iter().map(|row| self.engine.dot(input, row)).collect()
                    });
                    digest = outs.iter().fold(digest, |d, v| fold(d, v.to_bits()));
                }
            }
        }
        Ok(digest)
    }

    fn pinned_digest(&self) -> u64 {
        self.pinned
    }

    fn after(&mut self, ctx: &mut After<'_>) {
        let conv_macs = self.macs(true) as f64;
        if let Some(conv) = ctx.metrics.value("core.analog.conv2d_s") {
            ctx.metrics
                .push("core.analog.ns_per_mac", conv / conv_macs * 1e9);
        }
        ctx.metrics
            .push("core.analog.macs", self.macs(false) as f64);
        let calls: usize = self
            .slices
            .iter()
            .map(|s| match &s.operands {
                Operands::Conv { .. } => 1,
                Operands::Fc { rows, .. } => rows.len(),
            })
            .sum();
        ctx.metrics.push("core.analog.calls", calls as f64);
        if !self.check_reference {
            return;
        }
        // The independent reference: the digital grouped convolution.
        let mut reference_s = 0.0;
        let mut worst = (0.0_f64, String::new());
        let convs = self
            .slices
            .iter()
            .filter(|s| matches!(s.operands, Operands::Conv { .. }));
        for (slice, analog) in convs.zip(&self.first_outputs) {
            let Operands::Conv {
                input,
                kernels,
                spec,
                groups,
            } = &slice.operands
            else {
                unreachable!("filtered to convolutions")
            };
            let (reference, _, secs) = ctx
                .clock
                .measure(|| conv2d_grouped(input, kernels, spec, *groups));
            reference_s += secs;
            let (_, wz, wy, wx) = kernels.dims();
            let full_scale = input.max_abs() * kernels.max_abs() * (wz * wy * wx) as f64;
            let err = analog.max_abs_diff(&reference) / full_scale;
            if err > worst.0 {
                worst = (err, slice.name.clone());
            }
        }
        ctx.metrics.push("tensor.conv2d_grouped_s", reference_s);
        ctx.metrics.push("core.analog.err_fs", worst.0);
        ctx.check(
            "analog_err_fs",
            worst.0 <= MAX_ERR_FS,
            format!(
                "max |analog - reference| / full scale = {:.4e} at {} (limit {MAX_ERR_FS})",
                worst.0, worst.1
            ),
        );
    }

    fn profiled(&self, _i: usize, profile: &ProfileReport, scale: f64, metrics: &mut Metrics) {
        let sum = |leaf: &str, total: bool| -> f64 {
            profile
                .phases
                .iter()
                .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
                .map(|(_, s)| if total { s.total_ns } else { s.self_ns } as f64 * 1e-9 * scale)
                .sum()
        };
        metrics.push("analog.rails.self_s", sum("analog.rails", false));
        metrics.push("analog.detect.self_s", sum("analog.detect", false));
        let conv = sum("analog.conv2d", true);
        if conv > 0.0 {
            metrics.push("analog.rails_share", sum("analog.rails", true) / conv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_compute_layer_has_a_small_slice_with_matching_macs() {
        let nm = ChipConfig::albireo_9().plcu.nm;
        let (mut convs, mut fcs) = (0, 0);
        for (net, model) in zoo::all_benchmarks().iter().enumerate() {
            for (layer, li) in model.layers().iter().enumerate() {
                let Some(slice) = Slice::new(net, model, layer, 7, nm) else {
                    assert!(!li.is_compute(), "{} has no slice", li.name);
                    continue;
                };
                let name = &slice.name;
                let shape = slice_instance(li).expect("compute layer");
                assert_eq!(shape.macs(), slice.operand_macs(), "{name}: MACs");
                let Operands::Conv {
                    input,
                    kernels,
                    spec,
                    groups,
                } = &slice.operands
                else {
                    fcs += 1;
                    continue;
                };
                convs += 1;
                let (m, _, wy, wx) = kernels.dims();
                let by = output_extent(input.height(), wy, spec.padding, spec.stride);
                let bx = output_extent(input.width(), wx, spec.padding, spec.stride);
                assert_eq!(by, li.output.y.min(MAX_OUT_Y), "{name}: output rows");
                assert_eq!(bx, li.output.x.min(MAX_OUT_X), "{name}: output columns");
                assert_eq!(input.depth(), li.input.z, "{name}: input depth kept");
                match li.kind {
                    LayerKind::Conv {
                        kernel_y,
                        kernel_x,
                        stride,
                        padding,
                        groups: g,
                        ..
                    } => {
                        assert_eq!(
                            (wy, wx, spec.stride, spec.padding),
                            (kernel_y, kernel_x, stride, padding)
                        );
                        assert_eq!(*groups, g, "{name}: groups kept");
                        assert!(m <= MAX_KERNELS, "{name}: {m} kernels");
                    }
                    LayerKind::Depthwise { .. } => {
                        assert_eq!((m, *groups), (li.output.z, li.input.z), "{name}")
                    }
                    _ => assert!(m <= MAX_KERNELS, "{name}: {m} kernels"),
                }
            }
        }
        assert_eq!(
            convs, 65,
            "conv, depthwise and pointwise layers of the four networks"
        );
        assert_eq!(fcs, 8, "FC layers of the four networks");
    }
}
