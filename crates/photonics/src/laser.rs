//! Laser source model.
//!
//! Table I quotes the *electrical* power of the heterogeneously-integrated
//! DBR laser (37.5 mW at 20 °C, paper ref. \[15\]); the optical power
//! launched into the chip is that times the wall-plug efficiency. The
//! paper does not state an efficiency — its Fig. 3 reasons directly in
//! optical power — so this model makes the conversion explicit and lets
//! the power-delivery analysis report how much efficiency the conservative
//! device must achieve.

use crate::{check_positive, check_unit_interval, Result};

/// A laser source: electrical drive power and wall-plug efficiency. Its
/// RIN is a noise term ([`crate::noise::NoiseParams`]) and its footprint
/// an area input (`OpticalParams::laser`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laser {
    /// Electrical drive power, W.
    electrical_w: f64,
    /// Wall-plug (electrical→optical) efficiency, in `(0, 1]`.
    wall_plug_efficiency: f64,
}

impl Laser {
    /// Builds a laser.
    ///
    /// # Errors
    ///
    /// Returns an error if the drive power is non-positive or the
    /// efficiency is outside `(0, 1]`.
    pub fn new(electrical_w: f64, wall_plug_efficiency: f64) -> Result<Laser> {
        check_positive("electrical_w", electrical_w)?;
        check_unit_interval("wall_plug_efficiency", wall_plug_efficiency)?;
        check_positive("wall_plug_efficiency", wall_plug_efficiency)?;
        Ok(Laser {
            electrical_w,
            wall_plug_efficiency,
        })
    }

    /// The paper's conservative device at a given wall-plug efficiency.
    ///
    /// # Errors
    ///
    /// Returns an error if `wall_plug_efficiency` is outside `(0, 1]`.
    pub fn conservative(wall_plug_efficiency: f64) -> Result<Laser> {
        Laser::new(37.5e-3, wall_plug_efficiency)
    }

    /// Electrical drive power, W.
    pub fn electrical_w(&self) -> f64 {
        self.electrical_w
    }

    /// Optical output power, W.
    pub fn optical_w(&self) -> f64 {
        self.electrical_w * self.wall_plug_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optical_is_electrical_times_efficiency() {
        let l = Laser::conservative(0.2).unwrap();
        assert!((l.optical_w() - 7.5e-3).abs() < 1e-12);
        assert_eq!(l.electrical_w(), 37.5e-3);
    }

    #[test]
    fn unity_efficiency_is_the_paper_reading() {
        // The reproduction's link budgets treat the Table I laser power as
        // optical; that corresponds to η = 1.
        let l = Laser::conservative(1.0).unwrap();
        assert_eq!(l.optical_w(), l.electrical_w());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Laser::conservative(0.0).is_err());
        assert!(Laser::conservative(1.5).is_err());
        assert!(Laser::new(0.0, 0.5).is_err());
    }
}
