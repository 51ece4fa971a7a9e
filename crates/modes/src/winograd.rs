//! Winograd F(2×2, 3×3) transform-domain convolution on the Albireo
//! analog model.
//!
//! The minimal-filtering algorithm computes a 2×2 patch of outputs from
//! a 4×4 input tile with 16 element-wise multiplies in the transform
//! domain, where the direct method needs 2×2×9 = 36 — a 2.25× multiply
//! reduction at the price of cheap add-only transforms:
//!
//! ```text
//! Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A
//! ```
//!
//! Mapped onto Albireo (after Mehrabian et al., arXiv:1906.10487):
//!
//! * The 16 Hadamard multiplies of a tile take the place of the 3×3
//!   kernel dot product in the PLCU: the `Nm` MZM segments hold
//!   transform-domain weight elements, so a tile needs `⌈16/Nm⌉`
//!   passes (2 on the paper's `Nm = 9` PLCU). Channel aggregation is
//!   unchanged — transform and summation commute, so the analog
//!   accumulation across `Nu` PLCUs and `⌈Wz/Nu⌉` channel groups is
//!   identical to the direct dataflow.
//! * The `Nd` output columns of a PLCU each process one 2×2 output
//!   *tile* instead of one output element, so a row of tiles covers
//!   twice the image width per pass.
//! * `Bᵀ d B` (32 adds per input tile per channel) and `Aᵀ m A`
//!   (24 adds per tile per kernel) are pure add networks, charged to
//!   the electronic side at [`ADD_ENERGY_J`] per add; they pipeline
//!   with the photonic array and add no latency term.
//! * `G g Gᵀ` is a weight-side transform, folded into the one-time
//!   weight-programming setup: a 3×3 filter becomes 16 transform-domain
//!   values, so eligible layers program 16/9× the DAC words.
//!
//! Only stride-1 3×3 convolutions are transformable; every other layer
//! (strided stems, 11×11/7×7/5×5 convs, depthwise, pointwise, FC) falls
//! back to the direct schedule so whole networks still evaluate. The
//! consequence the goldens pin: VGG-class networks (all-3×3 trunks)
//! shift the latency/energy frontier by ~2×, while MobileNet (no
//! eligible layer at all) is byte-identical to the direct chip.

use albireo_core::accel::{Accelerator, LayerCost, NetworkCost};
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::inventory::DeviceInventory;
use albireo_core::power::PowerBreakdown;
use albireo_core::sched;
use albireo_nn::layer::{LayerInstance, LayerKind};
use albireo_nn::Model;

/// Photonic multiplies per 2×2 output tile (the 4×4 Hadamard product).
pub const TILE_MULTIPLIES: usize = 16;

/// Adds in one `Bᵀ d B` input-tile transform (two 1-D passes of 4×4).
pub const INPUT_TRANSFORM_ADDS: usize = 32;

/// Adds in one `Aᵀ m A` output-tile transform.
pub const OUTPUT_TRANSFORM_ADDS: usize = 24;

/// Energy of one electronic accumulator add, J (32-bit integer add in a
/// ~45 nm node, Horowitz ISSCC 2014 — the same technology vintage as the
/// paper's converter numbers).
pub const ADD_ENERGY_J: f64 = 0.1e-12;

/// Whether a layer can run in the Winograd F(2×2, 3×3) transform domain:
/// a stride-1 convolution with a 3×3 kernel (grouped convs qualify; the
/// transform is per-group).
pub fn winograd_eligible(kind: &LayerKind) -> bool {
    matches!(
        kind,
        LayerKind::Conv {
            kernel_y: 3,
            kernel_x: 3,
            stride: 1,
            ..
        }
    )
}

fn ceil_div(a: usize, b: usize) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b) as u64
}

/// The Albireo chip running the Winograd transform-domain dataflow on
/// every eligible layer, direct on the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct WinogradAccelerator {
    /// Display name (e.g. `winograd_9`).
    pub name: String,
    /// Chip geometry (shared with the direct-dataflow chip).
    pub chip: ChipConfig,
    /// Device-technology estimate (sets clock and power).
    pub estimate: TechnologyEstimate,
}

impl WinogradAccelerator {
    /// A Winograd-mode chip with an explicit name.
    pub fn new(name: impl Into<String>, chip: ChipConfig, estimate: TechnologyEstimate) -> Self {
        WinogradAccelerator {
            name: name.into(),
            chip,
            estimate,
        }
    }

    /// The 9-PLCG chip in Winograd mode.
    pub fn winograd_9(estimate: TechnologyEstimate) -> Self {
        Self::new("winograd_9", ChipConfig::albireo_9(), estimate)
    }

    /// The 27-PLCG chip in Winograd mode.
    pub fn winograd_27(estimate: TechnologyEstimate) -> Self {
        Self::new("winograd_27", ChipConfig::albireo_27(), estimate)
    }

    /// Cycles of one eligible layer in the transform domain.
    fn winograd_cycles(chip: &ChipConfig, layer: &LayerInstance) -> u64 {
        let LayerKind::Conv {
            kernels, groups, ..
        } = layer.kind
        else {
            unreachable!("winograd_cycles requires an eligible conv layer");
        };
        let depth = layer.input.z / groups;
        let tiles_y = ceil_div(layer.output.y, 2);
        let tiles_x = layer.output.x.div_ceil(2);
        // Like the direct formula, with tile rows/columns in place of
        // output rows/columns and ⌈16/Nm⌉ transform-domain passes in
        // place of ⌈9/Nm⌉ kernel passes. No stride penalty: eligibility
        // already requires stride 1.
        ceil_div(kernels, chip.ng)
            * tiles_y
            * ceil_div(tiles_x, chip.plcu.nd)
            * ceil_div(depth, chip.nu)
            * ceil_div(TILE_MULTIPLIES, chip.plcu.nm)
    }

    /// Photonic multiplies of one eligible layer: 16 per tile per
    /// (kernel, channel) pair — the quantity the MAC-reduction claim is
    /// about.
    fn winograd_macs(layer: &LayerInstance) -> u64 {
        let LayerKind::Conv {
            kernels, groups, ..
        } = layer.kind
        else {
            unreachable!("winograd_macs requires an eligible conv layer");
        };
        let depth = (layer.input.z / groups) as u64;
        let tiles = ceil_div(layer.output.y, 2) * ceil_div(layer.output.x, 2);
        tiles * TILE_MULTIPLIES as u64 * depth * kernels as u64
    }

    /// Electronic transform energy of one eligible layer, J: input-tile
    /// transforms once per (tile, input channel), output-tile transforms
    /// once per (tile, kernel).
    fn transform_energy_j(layer: &LayerInstance) -> f64 {
        let LayerKind::Conv { kernels, .. } = layer.kind else {
            unreachable!("transform_energy_j requires an eligible conv layer");
        };
        let tiles = ceil_div(layer.output.y, 2) * ceil_div(layer.output.x, 2);
        let input_adds = tiles * layer.input.z as u64 * INPUT_TRANSFORM_ADDS as u64;
        let output_adds = tiles * kernels as u64 * OUTPUT_TRANSFORM_ADDS as u64;
        (input_adds + output_adds) as f64 * ADD_ENERGY_J
    }

    /// DAC words programmed during setup: eligible layers hold 16
    /// transform-domain values per 3×3 filter slice (16/9× the direct
    /// parameter count); everything else programs its direct weights.
    fn setup_words(model: &Model) -> u64 {
        model
            .layers()
            .iter()
            .map(|layer| {
                if winograd_eligible(&layer.kind) {
                    (layer.params() * TILE_MULTIPLIES as u64) / 9
                } else {
                    layer.params()
                }
            })
            .sum()
    }
}

impl Accelerator for WinogradAccelerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> String {
        format!(
            "Albireo-{} Winograd F(2x2,3x3) ({} est.)",
            self.chip.ng,
            self.estimate.suffix()
        )
    }

    fn compute_groups(&self) -> usize {
        self.chip.ng
    }

    /// Same always-on photonic floor as the direct chip: the silicon is
    /// identical, only the schedule differs.
    fn idle_power_w(&self) -> f64 {
        let b = PowerBreakdown::for_chip(&self.chip, self.estimate);
        b.laser_w + b.mrr_w
    }

    fn cost_with_groups(&self, model: &Model, active_groups: usize) -> NetworkCost {
        assert!(
            active_groups > 0 && active_groups <= self.chip.ng,
            "{}: active groups {active_groups} outside 1..={}",
            self.name,
            self.chip.ng
        );
        let mut chip = self.chip;
        chip.ng = active_groups;
        let clock = self.estimate.clock_hz();
        let power = PowerBreakdown::for_chip(&chip, self.estimate).total_w();
        let peak = chip.peak_macs_per_cycle() as f64;
        let per_layer: Vec<LayerCost> = model
            .layers()
            .iter()
            .map(|layer| {
                let eligible = winograd_eligible(&layer.kind);
                let (cycles, macs, transform_j) = if eligible {
                    (
                        Self::winograd_cycles(&chip, layer),
                        Self::winograd_macs(layer),
                        Self::transform_energy_j(layer),
                    )
                } else {
                    (sched::layer_cycles(&chip, layer), layer.macs(), 0.0)
                };
                let latency_s = cycles as f64 / clock;
                let utilization = if cycles == 0 {
                    0.0
                } else {
                    macs as f64 / (cycles as f64 * peak)
                };
                LayerCost {
                    name: layer.name.clone(),
                    cycles,
                    latency_s,
                    energy_j: power * latency_s + transform_j,
                    macs,
                    utilization,
                }
            })
            .collect();
        let latency_s: f64 = per_layer.iter().map(|l| l.latency_s).sum();
        let energy_j: f64 = per_layer.iter().map(|l| l.energy_j).sum();
        let inv = DeviceInventory::for_chip(&chip);
        let setup_s = Self::setup_words(model) as f64 / (inv.dacs as f64 * clock);
        NetworkCost {
            accelerator: self.name.clone(),
            network: model.name().to_string(),
            cycles: per_layer.iter().map(|l| l.cycles).sum(),
            latency_s,
            energy_j,
            power_w: power,
            wavelengths: chip.wavelengths_per_plcg(),
            setup_s,
            setup_energy_j: power * setup_s,
            per_layer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_core::accel::AlbireoAccelerator;
    use albireo_nn::layer::VolumeShape;
    use albireo_nn::zoo;

    fn direct() -> AlbireoAccelerator {
        AlbireoAccelerator::albireo_9(TechnologyEstimate::Conservative)
    }

    fn winograd() -> WinogradAccelerator {
        WinogradAccelerator::winograd_9(TechnologyEstimate::Conservative)
    }

    #[test]
    fn eligibility_is_stride_1_3x3_conv_only() {
        assert!(winograd_eligible(&LayerKind::conv(64, 3, 1, 1)));
        assert!(winograd_eligible(&LayerKind::conv_grouped(384, 3, 1, 1, 2)));
        assert!(!winograd_eligible(&LayerKind::conv(64, 3, 2, 0)));
        assert!(!winograd_eligible(&LayerKind::conv(96, 11, 4, 0)));
        assert!(!winograd_eligible(&LayerKind::Depthwise {
            kernel: 3,
            stride: 1,
            padding: 1,
        }));
        assert!(!winograd_eligible(&LayerKind::Pointwise { kernels: 64 }));
        assert!(!winograd_eligible(&LayerKind::FullyConnected {
            outputs: 1000
        }));
    }

    #[test]
    fn unit_tile_formula() {
        // 64 kernels of 3×3×64 over a 56×56 output on Albireo-9:
        // ⌈64/9⌉ · ⌈56/2⌉ · ⌈28/5⌉ · ⌈64/3⌉ · ⌈16/9⌉ = 8·28·6·22·2,
        // exactly half the direct layer's 8·56·12·22·1 cycles.
        let chip = ChipConfig::albireo_9();
        let li = LayerInstance {
            name: "conv".into(),
            kind: LayerKind::conv(64, 3, 1, 1),
            input: VolumeShape::new(64, 56, 56),
            output: VolumeShape::new(64, 56, 56),
            is_branch: false,
        };
        assert_eq!(
            WinogradAccelerator::winograd_cycles(&chip, &li),
            8 * 28 * 6 * 22 * 2
        );
        assert_eq!(sched::layer_cycles(&chip, &li), 8 * 56 * 12 * 22);
    }

    #[test]
    fn mac_reduction_is_2_25x_on_even_tiles() {
        // 36 direct multiplies per 2×2 tile vs 16 transform-domain.
        let li = LayerInstance {
            name: "conv".into(),
            kind: LayerKind::conv(64, 3, 1, 1),
            input: VolumeShape::new(64, 56, 56),
            output: VolumeShape::new(64, 56, 56),
            is_branch: false,
        };
        let ratio = li.macs() as f64 / WinogradAccelerator::winograd_macs(&li) as f64;
        assert!((ratio - 2.25).abs() < 1e-12, "ratio = {ratio}");
    }

    #[test]
    fn vgg16_shifts_the_frontier() {
        let d = direct().cost(&zoo::vgg16());
        let w = winograd().cost(&zoo::vgg16());
        // All thirteen 3×3 convs transform; latency and energy drop
        // substantially (the FC tail is unchanged).
        assert!(
            w.latency_s < 0.6 * d.latency_s,
            "{} vs {}",
            w.latency_s,
            d.latency_s
        );
        assert!(w.energy_j < 0.6 * d.energy_j);
        // Photonic multiplies drop on the conv trunk.
        let d_macs: u64 = d.per_layer.iter().map(|l| l.macs).sum();
        let w_macs: u64 = w.per_layer.iter().map(|l| l.macs).sum();
        assert!(w_macs < d_macs);
    }

    #[test]
    fn mobilenet_is_untouched() {
        // MobileNet has zero eligible layers (stride-2 stem, then
        // depthwise/pointwise blocks): the fallback path must reproduce
        // the direct chip bit for bit.
        let d = direct().cost(&zoo::mobilenet());
        let w = winograd().cost(&zoo::mobilenet());
        assert_eq!(w.latency_s.to_bits(), d.latency_s.to_bits());
        assert_eq!(w.cycles, d.cycles);
        let d_macs: u64 = d.per_layer.iter().map(|l| l.macs).sum();
        let w_macs: u64 = w.per_layer.iter().map(|l| l.macs).sum();
        assert_eq!(w_macs, d_macs);
    }

    #[test]
    fn transform_energy_is_charged_but_small() {
        let w = winograd().cost(&zoo::vgg16());
        let photonic: f64 = w.per_layer.iter().map(|l| w.power_w * l.latency_s).sum();
        let adds = w.energy_j - photonic;
        assert!(adds > 0.0, "eligible layers must charge transform adds");
        assert!(
            adds < 0.01 * w.energy_j,
            "adds are electronic noise: {adds}"
        );
    }

    #[test]
    fn transform_domain_weights_inflate_setup() {
        // VGG16's trunk is all eligible: setup words grow toward 16/9×.
        let d = direct().cost(&zoo::vgg16());
        let w = winograd().cost(&zoo::vgg16());
        assert!(w.setup_s > d.setup_s);
        assert!(w.setup_s < d.setup_s * 16.0 / 9.0 + 1e-12);
        // MobileNet programs its direct weights.
        let dm = direct().cost(&zoo::mobilenet());
        let wm = winograd().cost(&zoo::mobilenet());
        assert_eq!(wm.setup_s.to_bits(), dm.setup_s.to_bits());
    }

    #[test]
    fn degradation_follows_the_group_count() {
        let w = winograd();
        let healthy = w.cost(&zoo::vgg16());
        let degraded = w.cost_with_groups(&zoo::vgg16(), 5);
        assert!(degraded.latency_s > healthy.latency_s);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_groups_rejected() {
        let _ = winograd().cost_with_groups(&zoo::tiny(), 0);
    }

    #[test]
    fn utilization_is_bounded() {
        for model in zoo::all_benchmarks() {
            for l in winograd().cost(&model).per_layer {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(&l.utilization),
                    "{}: {}",
                    l.name,
                    l.utilization
                );
            }
        }
    }

    #[test]
    fn idle_floor_matches_the_direct_chip() {
        assert_eq!(winograd().idle_power_w(), direct().idle_power_w());
    }
}
