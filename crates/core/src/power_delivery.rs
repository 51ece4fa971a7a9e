//! Optical power delivery: how much laser power does each precision
//! target actually require?
//!
//! This closes the loop between Fig. 3 (precision vs laser power at the
//! detector) and Table I (per-laser electrical powers): starting from the
//! chip's link budget, it computes the per-channel power reaching the
//! photodiodes for a given laser, the resulting noise-limited precision,
//! and — inverted — the minimum laser power for a bit target. It verifies
//! that the conservative 37.5 mW laser sustains the 8-bit deployment
//! target through the full Albireo-9 link.

use crate::config::ChipConfig;
use albireo_photonics::link::LinkBudget;
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::OpticalParams;

/// Power-delivery analysis for one chip configuration.
#[derive(Debug, Clone)]
pub struct PowerDelivery {
    chip: ChipConfig,
    budget: LinkBudget,
    model: PrecisionModel,
    ring: Microring,
}

impl PowerDelivery {
    /// Builds the analysis for a chip, using the paper's optical
    /// parameters and ~1 cm of on-chip routing.
    pub fn new(chip: &ChipConfig) -> PowerDelivery {
        let params = OpticalParams::paper();
        PowerDelivery {
            chip: *chip,
            budget: LinkBudget::albireo_chip(&params, chip.ng, chip.kernel_x, chip.plcu.nd, 10),
            model: PrecisionModel::paper(),
            ring: Microring::from_params(&params),
        }
    }

    /// The end-to-end link loss, dB.
    pub fn link_loss_db(&self) -> f64 {
        self.budget.total_loss_db()
    }

    /// Per-channel power at the photodiodes for a given laser power, W.
    pub fn power_at_pd(&self, laser_power_w: f64) -> f64 {
        self.budget.output_power(laser_power_w)
    }

    /// Noise-limited precision (bits) delivered by a laser power through
    /// the link, at the chip's per-PLCU wavelength count.
    pub fn noise_bits(&self, laser_power_w: f64) -> f64 {
        self.model.noise_limited_bits(
            self.chip.wavelengths_per_plcu(),
            self.power_at_pd(laser_power_w),
        )
    }

    /// Combined (noise + crosstalk) precision in bits, negative rail
    /// included — the deliverable analog precision of the deployed chip.
    pub fn delivered_bits(&self, laser_power_w: f64) -> f64 {
        let n = self.chip.wavelengths_per_plcu();
        let levels = self
            .model
            .combined_levels(&self.ring, n, self.power_at_pd(laser_power_w));
        PrecisionModel::with_negative_rail(levels).log2()
    }

    /// Minimum laser power (W) whose *noise-limited* precision reaches
    /// `bits`, found by bisection. Returns `None` if even 1 W falls short
    /// (e.g. a crosstalk-limited target).
    pub fn min_laser_power_for_noise_bits(&self, bits: f64) -> Option<f64> {
        let mut lo = 1e-6;
        let mut hi = 1.0;
        if self.noise_bits(hi) < bits {
            return None;
        }
        if self.noise_bits(lo) >= bits {
            return Some(lo);
        }
        for _ in 0..60 {
            let mid = (lo * hi).sqrt();
            if self.noise_bits(mid) >= bits {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery() -> PowerDelivery {
        PowerDelivery::new(&ChipConfig::albireo_9())
    }

    #[test]
    fn link_loss_is_tens_of_db() {
        let d = delivery();
        assert!(
            (20.0..30.0).contains(&d.link_loss_db()),
            "{}",
            d.link_loss_db()
        );
    }

    #[test]
    fn conservative_laser_delivers_8_noise_bits() {
        // The 37.5 mW conservative laser must sustain the 8-bit deployment
        // target at the noise floor through the full chip link.
        let d = delivery();
        let bits = d.noise_bits(37.5e-3);
        assert!(bits >= 8.0, "bits = {bits}");
    }

    #[test]
    fn delivered_bits_are_crosstalk_limited_at_high_power() {
        // Past a few mW, the 21-λ crosstalk floor (≈6.8 bits with the
        // negative rail) dominates — more laser power stops helping.
        let d = delivery();
        let at_10mw = d.delivered_bits(10e-3);
        let at_40mw = d.delivered_bits(37.5e-3);
        assert!((at_40mw - at_10mw) < 0.3, "{at_10mw} -> {at_40mw}");
        assert!((6.0..7.2).contains(&at_40mw), "{at_40mw}");
    }

    #[test]
    fn min_power_bisection_is_consistent() {
        let d = delivery();
        let p = d
            .min_laser_power_for_noise_bits(8.0)
            .expect("8 bits reachable");
        assert!(d.noise_bits(p) >= 8.0);
        assert!(d.noise_bits(p * 0.5) < 8.0);
        // The requirement sits below the conservative 37.5 mW device.
        assert!(p < 37.5e-3, "p = {p}");
    }

    #[test]
    fn unreachable_target_returns_none() {
        let d = delivery();
        assert!(d.min_laser_power_for_noise_bits(20.0).is_none());
    }

    #[test]
    fn bigger_chips_need_more_laser_power() {
        // Broadcasting to 27 groups costs ~4.8 dB more than 9 groups.
        let d9 = PowerDelivery::new(&ChipConfig::albireo_9());
        let d27 = PowerDelivery::new(&ChipConfig::albireo_27());
        assert!(d27.link_loss_db() > d9.link_loss_db());
        let p9 = d9.min_laser_power_for_noise_bits(8.0).unwrap();
        let p27 = d27.min_laser_power_for_noise_bits(8.0).unwrap();
        assert!(p27 > p9);
    }
}
