//! Silicon strip waveguide propagation model.

use crate::params::WaveguideParams;
use crate::units::Db;
use crate::{check_positive, Result};

/// A silicon waveguide segment with a fixed geometry and loss profile.
///
/// ```
/// use albireo_photonics::waveguide::Waveguide;
/// use albireo_photonics::params::OpticalParams;
///
/// let wg = Waveguide::from_params(&OpticalParams::paper());
/// // 1 cm of straight waveguide loses 1.5 dB.
/// let loss = wg.straight_loss(0.01);
/// assert!((loss.loss_db() - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waveguide {
    params: WaveguideParams,
    wavelength: f64,
}

impl Waveguide {
    /// Builds a waveguide from explicit parameters at a design wavelength.
    ///
    /// # Errors
    ///
    /// Returns an error if the wavelength or indices are non-positive.
    pub fn new(params: WaveguideParams, wavelength: f64) -> Result<Waveguide> {
        check_positive("wavelength", wavelength)?;
        check_positive("n_eff", params.n_eff)?;
        check_positive("n_group", params.n_group)?;
        Ok(Waveguide { params, wavelength })
    }

    /// Builds the paper's waveguide from a full parameter set.
    pub fn from_params(params: &crate::OpticalParams) -> Waveguide {
        Waveguide {
            params: params.waveguide,
            wavelength: params.wavelength,
        }
    }

    /// The underlying parameters.
    pub fn params(&self) -> &WaveguideParams {
        &self.params
    }

    /// Design wavelength, m.
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    /// Propagation constant β = 2π·n_eff/λ, rad/m.
    pub fn beta(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.params.n_eff / self.wavelength
    }

    /// Phase accumulated over `length` meters, rad.
    pub fn phase(&self, length: f64) -> f64 {
        self.beta() * length
    }

    /// Group velocity, m/s.
    pub fn group_velocity(&self) -> f64 {
        crate::constants::SPEED_OF_LIGHT / self.params.n_group
    }

    /// Propagation delay over `length` meters, s.
    pub fn delay(&self, length: f64) -> f64 {
        length / self.group_velocity()
    }

    /// Loss of a straight segment of `length` meters.
    pub fn straight_loss(&self, length: f64) -> Db {
        Db::loss(self.params.straight_loss_db_per_cm * length * 100.0)
    }

    /// Power loss coefficient α for bent waveguide, 1/m, such that the
    /// power transmission over length L is `exp(-α·L)`.
    pub fn bent_alpha_per_m(&self) -> f64 {
        // dB/cm → 1/m:  T = 10^(-dB/10) = e^(-αL)  ⇒  α = ln(10)/10 · dB/m
        self.params.bent_loss_db_per_cm * 100.0 * std::f64::consts::LN_10 / 10.0
    }

    /// Single-pass amplitude transmission `a` around a ring of circumference
    /// `length` (so that the power transmission is `a²`).
    pub fn ring_amplitude_transmission(&self, length: f64) -> f64 {
        (-self.bent_alpha_per_m() * length / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpticalParams;

    fn wg() -> Waveguide {
        Waveguide::from_params(&OpticalParams::paper())
    }

    #[test]
    fn beta_matches_definition() {
        let w = wg();
        let expected = 2.0 * std::f64::consts::PI * 2.33 / 1550e-9;
        assert!((w.beta() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn group_velocity_is_c_over_ng() {
        let w = wg();
        let v = w.group_velocity();
        assert!((v - 299_792_458.0 / 4.68).abs() < 1.0);
    }

    #[test]
    fn delay_scales_linearly() {
        let w = wg();
        let d1 = w.delay(1e-3);
        let d2 = w.delay(2e-3);
        assert!((d2 - 2.0 * d1).abs() < 1e-18);
    }

    #[test]
    fn bent_loss_exceeds_straight_loss() {
        // The ring's bent-waveguide power transmission is below a straight
        // segment's over the same length.
        let w = wg();
        let l = 0.005;
        let ring = w.ring_amplitude_transmission(l).powi(2);
        assert!(ring < w.straight_loss(l).linear());
    }

    #[test]
    fn alpha_consistent_with_db_loss() {
        let w = wg();
        let length = 0.01; // 1 cm
        let via_alpha = (-w.bent_alpha_per_m() * length).exp();
        let db_per_cm = OpticalParams::paper().waveguide.bent_loss_db_per_cm;
        let via_db = Db::loss(db_per_cm * length * 100.0).linear();
        assert!((via_alpha - via_db).abs() < 1e-12);
    }

    #[test]
    fn ring_amplitude_near_unity_for_small_ring() {
        let w = wg();
        let circumference = 2.0 * std::f64::consts::PI * 5e-6;
        let a = w.ring_amplitude_transmission(circumference);
        assert!(a > 0.99 && a < 1.0, "a = {a}");
    }

    #[test]
    fn invalid_wavelength_rejected() {
        let p = OpticalParams::paper();
        assert!(Waveguide::new(p.waveguide, 0.0).is_err());
        assert!(Waveguide::new(p.waveguide, -1e-6).is_err());
    }
}
