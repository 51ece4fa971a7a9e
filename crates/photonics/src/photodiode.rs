//! PIN photodiodes and balanced detection (paper §II-B2/B3).
//!
//! Photodiodes convert the total incident optical power across all
//! wavelengths into a proportional current; a balanced pair subtracts the
//! negative-rail current from the positive-rail current to complete the
//! signed dot product (Eq. 4):
//!
//! ```text
//! Iout = R0·Σ P⁺ − R1·Σ P⁻
//! ```

use crate::params::PhotodiodeParams;
use crate::{OpticalParams, Result};

/// A single PIN photodiode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Photodiode {
    params: PhotodiodeParams,
}

impl Photodiode {
    /// Builds a photodiode from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the responsivity is non-positive.
    pub fn new(params: PhotodiodeParams) -> Result<Photodiode> {
        crate::check_positive("responsivity", params.responsivity)?;
        Ok(Photodiode { params })
    }

    /// Builds the paper's photodiode (R = 1.1 A/W, 25 pA dark current).
    pub fn from_params(params: &OpticalParams) -> Photodiode {
        Photodiode {
            params: params.photodiode,
        }
    }

    /// Responsivity, A/W.
    pub fn responsivity(&self) -> f64 {
        self.params.responsivity
    }

    /// Dark current, A.
    pub fn dark_current(&self) -> f64 {
        self.params.dark_current
    }

    /// Photocurrent for the *total* incident optical power (W) summed over
    /// all wavelengths: the PD integrates across wavelengths, so combining
    /// signals on one waveguide *is* the addition.
    pub fn detect_total(&self, total_power_w: f64) -> f64 {
        self.params.responsivity * total_power_w + self.params.dark_current
    }
}

/// A balanced photodiode pair implementing signed accumulation (Fig. 2d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancedPd {
    positive: Photodiode,
    negative: Photodiode,
}

impl BalancedPd {
    /// Builds a balanced pair from two photodiodes. The paper uses
    /// `R0 = R1` in all designs, but the model permits mismatch for
    /// sensitivity studies.
    pub fn new(positive: Photodiode, negative: Photodiode) -> BalancedPd {
        BalancedPd { positive, negative }
    }

    /// Builds a matched balanced pair from the paper's photodiode.
    pub fn from_params(params: &OpticalParams) -> BalancedPd {
        let pd = Photodiode::from_params(params);
        BalancedPd {
            positive: pd,
            negative: pd,
        }
    }

    /// The positive-rail photodiode.
    pub fn positive(&self) -> &Photodiode {
        &self.positive
    }

    /// The negative-rail photodiode.
    pub fn negative(&self) -> &Photodiode {
        &self.negative
    }

    /// Computes `Iout = R0·Σ P⁺ − R1·Σ P⁻` (Eq. 4) from pre-summed rail
    /// powers. Dark currents cancel for a matched pair.
    pub fn output_current_total(&self, p_pos: f64, p_neg: f64) -> f64 {
        self.positive.detect_total(p_pos) - self.negative.detect_total(p_neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pd() -> Photodiode {
        Photodiode::from_params(&OpticalParams::paper())
    }

    #[test]
    fn detection_is_linear_in_power() {
        let d = pd();
        let i1 = d.detect_total(1e-3) - d.dark_current();
        let i2 = d.detect_total(2e-3) - d.dark_current();
        assert!((i2 - 2.0 * i1).abs() < 1e-15);
        assert!((i1 - 1.1e-3).abs() < 1e-12);
    }

    #[test]
    fn detect_sums_wavelengths() {
        // One detection of the summed power is the per-wavelength
        // photocurrents added, counting the dark current once.
        let d = pd();
        let per_wavelength: f64 = [1e-3, 2e-3, 3e-3]
            .iter()
            .map(|&p| d.detect_total(p) - d.dark_current())
            .sum();
        let total = d.detect_total(6e-3) - d.dark_current();
        assert!((total - per_wavelength).abs() < 1e-18);
    }

    #[test]
    fn balanced_pair_subtracts() {
        let b = BalancedPd::from_params(&OpticalParams::paper());
        let i = b.output_current_total(2e-3, 0.5e-3);
        assert!((i - 1.1 * 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn matched_pair_cancels_dark_current() {
        let b = BalancedPd::from_params(&OpticalParams::paper());
        let i = b.output_current_total(0.0, 0.0);
        assert!(i.abs() < 1e-18);
    }

    #[test]
    fn negative_rail_dominance_gives_negative_current() {
        let b = BalancedPd::from_params(&OpticalParams::paper());
        assert!(b.output_current_total(1e-4, 1e-3) < 0.0);
    }

    #[test]
    fn balanced_is_linear() {
        let b = BalancedPd::from_params(&OpticalParams::paper());
        let a = b.output_current_total(3e-3, 1e-3);
        let c = b.output_current_total(6e-3, 2e-3);
        assert!((c - 2.0 * a).abs() < 1e-15);
    }

    #[test]
    fn invalid_responsivity_rejected() {
        let mut p = OpticalParams::paper().photodiode;
        p.responsivity = 0.0;
        assert!(Photodiode::new(p).is_err());
    }
}
