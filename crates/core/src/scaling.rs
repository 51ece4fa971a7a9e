//! Technology-scaling analysis: how much must photonic devices improve?
//!
//! The paper frames Albireo-M as "a target performance for photonic device
//! engineers to pursue" — the device powers at which Albireo matches
//! state-of-the-art electronic accelerator energy. This module computes
//! that target directly: the uniform factor by which the conservative
//! device powers must shrink for Albireo's inference energy to match a
//! given electronic baseline, and the per-device improvement factors the
//! paper's moderate/aggressive columns actually assume.

use crate::config::{ChipConfig, TechnologyEstimate};
use crate::energy::NetworkEvaluation;
use crate::memory::MemoryModel;
use crate::power::PowerBreakdown;
use albireo_nn::Model;

/// The uniform device-power reduction factor (> 1 = devices must get that
/// many times cheaper) for Albireo on `chip` to match `target_energy_j`
/// on `model`, starting from the conservative devices. The memory power
/// is held fixed (it is already 7 nm digital).
///
/// Returns `None` if the target is unreachable even with free photonics
/// (i.e. the cache power alone exceeds the target budget).
pub fn uniform_scaling_to_match_energy(
    chip: &ChipConfig,
    model: &Model,
    target_energy_j: f64,
) -> Option<f64> {
    let eval = NetworkEvaluation::evaluate(chip, TechnologyEstimate::Conservative, model);
    let cache_w = MemoryModel::paper().static_power_w(chip);
    let device_w = eval.power_w - cache_w;
    // energy = (device_w / f + cache_w) · latency  ⇒  solve for f.
    let target_power = target_energy_j / eval.latency_s;
    let budget_for_devices = target_power - cache_w;
    if budget_for_devices <= 0.0 {
        return None;
    }
    Some(device_w / budget_for_devices)
}

/// Per-device improvement factors between two estimates (how many times
/// cheaper each device class must get).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprovementFactors {
    /// MRR drive power factor.
    pub mrr: f64,
    /// MZM drive power factor.
    pub mzm: f64,
    /// Laser power factor.
    pub laser: f64,
    /// TIA power factor.
    pub tia: f64,
    /// ADC power factor.
    pub adc: f64,
    /// DAC power factor.
    pub dac: f64,
}

impl ImprovementFactors {
    /// Factors from one estimate's devices to another's.
    pub fn between(from: TechnologyEstimate, to: TechnologyEstimate) -> ImprovementFactors {
        let a = from.device_powers();
        let b = to.device_powers();
        ImprovementFactors {
            mrr: a.mrr_w / b.mrr_w,
            mzm: a.mzm_w / b.mzm_w,
            laser: a.laser_w / b.laser_w,
            tia: a.tia_w / b.tia_w,
            adc: a.adc_w / b.adc_w,
            dac: a.dac_w / b.dac_w,
        }
    }

    /// The largest single-device factor — the hardest engineering ask.
    pub fn max(&self) -> f64 {
        [self.mrr, self.mzm, self.laser, self.tia, self.adc, self.dac]
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// The smallest factor — the easiest ask.
    pub fn min(&self) -> f64 {
        [self.mrr, self.mzm, self.laser, self.tia, self.adc, self.dac]
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }
}

/// One point on a device-scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Uniform device-power reduction factor relative to conservative.
    pub factor: f64,
    /// Chip power at that scaling, W.
    pub power_w: f64,
    /// Network energy, J.
    pub energy_j: f64,
    /// Network EDP, mJ·ms.
    pub edp_mj_ms: f64,
}

/// Sweeps uniform device-power scaling factors and reports the resulting
/// power/energy/EDP for a network (latency is unchanged: the clock stays
/// at 5 GHz).
pub fn scaling_curve(chip: &ChipConfig, model: &Model, factors: &[f64]) -> Vec<ScalingPoint> {
    let eval = NetworkEvaluation::evaluate(chip, TechnologyEstimate::Conservative, model);
    let cache_w = MemoryModel::paper().static_power_w(chip);
    let device_w =
        PowerBreakdown::for_chip(chip, TechnologyEstimate::Conservative).total_w() - cache_w;
    factors
        .iter()
        .map(|&factor| {
            assert!(factor > 0.0, "scaling factor must be positive");
            let power = device_w / factor + cache_w;
            let energy = power * eval.latency_s;
            ScalingPoint {
                factor,
                power_w: power,
                energy_j: energy,
                edp_mj_ms: energy * 1e3 * eval.latency_s * 1e3,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_nn::zoo;

    #[test]
    fn matching_envision_needs_single_digit_scaling() {
        // Paper: "Albireo-M consumes roughly equal energy to both ENVISION
        // and UNPU". ENVISION's AlexNet energy is 0.94 mJ; the uniform
        // factor to reach it should be near the 3.7× overall power ratio
        // between Albireo-C (22.7 W) and Albireo-M (6.19 W).
        let chip = ChipConfig::albireo_9();
        let f =
            uniform_scaling_to_match_energy(&chip, &zoo::alexnet(), 0.94e-3).expect("reachable");
        assert!((2.0..15.0).contains(&f), "factor = {f}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        let chip = ChipConfig::albireo_9();
        // 1 nJ for an AlexNet inference is below even the cache energy.
        assert!(uniform_scaling_to_match_energy(&chip, &zoo::alexnet(), 1e-9).is_none());
    }

    #[test]
    fn scaling_factor_one_reproduces_conservative() {
        let chip = ChipConfig::albireo_9();
        let model = zoo::vgg16();
        let curve = scaling_curve(&chip, &model, &[1.0]);
        let eval = NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &model);
        assert!((curve[0].power_w - eval.power_w).abs() < 1e-9);
        assert!((curve[0].energy_j - eval.energy_j).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_in_factor() {
        let chip = ChipConfig::albireo_9();
        let curve = scaling_curve(&chip, &zoo::alexnet(), &[1.0, 2.0, 4.0, 8.0, 16.0]);
        for pair in curve.windows(2) {
            assert!(pair[1].power_w < pair[0].power_w);
            assert!(pair[1].edp_mj_ms < pair[0].edp_mj_ms);
        }
        // Cache power is the floor.
        let floor = MemoryModel::paper().static_power_w(&chip);
        assert!(curve.last().unwrap().power_w > floor);
    }

    #[test]
    fn paper_moderate_factors() {
        // Table I's implied per-device asks for the moderate column:
        // MRR 8×, MZM 8×, laser 27×, TIA 2×, ADC 2×, DAC 2×.
        let f = ImprovementFactors::between(
            TechnologyEstimate::Conservative,
            TechnologyEstimate::Moderate,
        );
        assert!((7.0..9.0).contains(&f.mrr), "{}", f.mrr);
        assert!((7.0..9.0).contains(&f.mzm), "{}", f.mzm);
        assert!((25.0..29.0).contains(&f.laser), "{}", f.laser);
        assert!((1.8..2.2).contains(&f.dac), "{}", f.dac);
        assert!(f.max() >= f.min());
        // The laser is the hardest ask of the moderate column.
        assert!((f.max() - f.laser).abs() < 1e-9);
    }

    #[test]
    fn aggressive_factors_are_larger_except_laser() {
        let m = ImprovementFactors::between(
            TechnologyEstimate::Conservative,
            TechnologyEstimate::Moderate,
        );
        let a = ImprovementFactors::between(
            TechnologyEstimate::Conservative,
            TechnologyEstimate::Aggressive,
        );
        assert!(a.mrr > m.mrr);
        assert!(a.dac > m.dac);
        // The aggressive laser is *less* aggressive than moderate's (it
        // must hold precision at 8 GS/s) — the Table I/III subtlety.
        assert!(a.laser < m.laser);
    }
}
