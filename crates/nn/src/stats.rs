//! Workload statistics: memory traffic and the
//! data-movement profile that motivates Albireo's depth-first dataflow
//! (paper §III-B: "data movement can consume magnitudes more energy than
//! computation").

use crate::layer::{LayerInstance, LayerKind};
use crate::model::Model;

/// Per-layer data-movement accounting (8-bit elements, the paper's
/// quantization level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTraffic {
    /// Bytes of input activations read (each input element read once; the
    /// photonic broadcast provides the reuse).
    pub input_bytes: u64,
    /// Bytes of weights read (each weight loaded once into the MZMs per
    /// kernel application batch).
    pub weight_bytes: u64,
    /// Bytes of output activations written.
    pub output_bytes: u64,
    /// Partial-sum bytes written back to memory. Albireo's depth-first
    /// aggregation keeps this zero for every layer (paper §III-B); a
    /// non-depth-first dataflow would spill `output × ⌈Wz/Nu⌉` partials.
    pub partial_sum_bytes: u64,
}

impl LayerTraffic {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.input_bytes + self.weight_bytes + self.output_bytes + self.partial_sum_bytes
    }
}

/// Computes the traffic of one layer under Albireo's dataflow.
pub fn layer_traffic(layer: &LayerInstance) -> LayerTraffic {
    let input_bytes = layer.input.elements() as u64;
    let output_bytes = layer.output.elements() as u64;
    let weight_bytes = layer.params();
    match layer.kind {
        LayerKind::MaxPool { .. } | LayerKind::AvgPool { .. } => LayerTraffic {
            input_bytes,
            weight_bytes: 0,
            output_bytes,
            partial_sum_bytes: 0,
        },
        _ => LayerTraffic {
            input_bytes,
            weight_bytes,
            output_bytes,
            partial_sum_bytes: 0,
        },
    }
}

/// Partial-sum traffic a *non*-depth-first dataflow would generate for the
/// same layer, for the ablation comparison: every output element spills and
/// reloads one partial per channel group beyond the first.
pub fn partial_sum_spill_bytes(layer: &LayerInstance, nu: usize) -> u64 {
    match layer.kind {
        LayerKind::Conv { groups, .. } => {
            let channel_groups = (layer.input.z / groups).div_ceil(nu) as u64;
            // Spill + reload = 2 transfers per intermediate partial.
            2 * layer.output.elements() as u64 * channel_groups.saturating_sub(1)
        }
        LayerKind::Pointwise { .. } => {
            let channel_groups = layer.input.z.div_ceil(nu) as u64;
            2 * layer.output.elements() as u64 * channel_groups.saturating_sub(1)
        }
        LayerKind::FullyConnected { .. } => {
            let chunks = layer.input.elements().div_ceil(nu * 9) as u64;
            2 * layer.output.elements() as u64 * chunks.saturating_sub(1)
        }
        _ => 0,
    }
}

/// Network-level workload statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadStats {
    /// Total bytes moved under Albireo's dataflow.
    pub traffic_bytes: u64,
    /// Partial-sum bytes a non-depth-first dataflow would add.
    pub avoided_partial_bytes: u64,
}

/// Computes workload statistics for a network under Albireo's dataflow
/// with `nu` channels aggregated per cycle.
pub fn workload_stats(model: &Model, nu: usize) -> WorkloadStats {
    let mut traffic = 0u64;
    let mut avoided = 0u64;
    for layer in model.layers() {
        traffic += layer_traffic(layer).total_bytes();
        avoided += partial_sum_spill_bytes(layer, nu);
    }
    WorkloadStats {
        traffic_bytes: traffic,
        avoided_partial_bytes: avoided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::VolumeShape;
    use crate::zoo;

    #[test]
    fn conv_layer_traffic() {
        let model = zoo::vgg16();
        let conv1 = &model.layers()[0];
        let t = layer_traffic(conv1);
        assert_eq!(t.input_bytes, 3 * 224 * 224);
        assert_eq!(t.output_bytes, 64 * 224 * 224);
        assert_eq!(t.weight_bytes, 64 * 3 * 9);
        assert_eq!(t.partial_sum_bytes, 0, "depth-first: no partial spills");
    }

    #[test]
    fn pooling_moves_no_weights() {
        let model = zoo::vgg16();
        let pool = model
            .layers()
            .iter()
            .find(|l| l.name.starts_with("pool"))
            .unwrap();
        assert_eq!(layer_traffic(pool).weight_bytes, 0);
    }

    #[test]
    fn avoided_partials_grow_with_depth() {
        let mut shallow = crate::Model::builder("s", VolumeShape::new(3, 8, 8));
        shallow
            .push("c", crate::LayerKind::conv(4, 3, 1, 1))
            .unwrap();
        let mut deep = crate::Model::builder("d", VolumeShape::new(300, 8, 8));
        deep.push("c", crate::LayerKind::conv(4, 3, 1, 1)).unwrap();
        let s = partial_sum_spill_bytes(&shallow.build().unwrap().layers()[0], 3);
        let d = partial_sum_spill_bytes(&deep.build().unwrap().layers()[0], 3);
        assert_eq!(s, 0, "3 channels fit one Nu=3 group");
        assert!(d > 0);
    }

    /// Arithmetic intensity: MACs per byte of `traffic_bytes`.
    fn macs_per_byte(model: &Model) -> f64 {
        model.total_macs() as f64 / workload_stats(model, 3).traffic_bytes as f64
    }

    #[test]
    fn vgg_arithmetic_intensity_is_high() {
        let model = zoo::vgg16();
        // VGG16 reuses each byte ~100× — the parameter-sharing headroom
        // Albireo's broadcast exploits.
        let intensity = macs_per_byte(&model);
        assert!(intensity > 50.0, "{intensity}");
        assert!(workload_stats(&model, 3).avoided_partial_bytes > 100_000_000);
    }

    #[test]
    fn mobilenet_intensity_lower_than_vgg() {
        assert!(macs_per_byte(&zoo::mobilenet()) < macs_per_byte(&zoo::vgg16()));
    }

    #[test]
    fn alexnet_fc_dominates_traffic() {
        let model = zoo::alexnet();
        let fc_traffic: u64 = model
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::FullyConnected { .. }))
            .map(|l| layer_traffic(l).total_bytes())
            .sum();
        let total = workload_stats(&model, 3).traffic_bytes;
        assert!(fc_traffic * 2 > total);
    }
}
