//! Physical constants used throughout the photonic models.
//!
//! All values are CODATA 2018 in SI units.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Elementary charge, C.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Planck constant, J·s.
pub const PLANCK: f64 = 6.626_070_15e-34;

/// Photon energy at a given vacuum wavelength (meters), in joules.
///
/// ```
/// use albireo_photonics::constants::photon_energy;
/// // 1550 nm photons carry ~0.8 eV.
/// let ev = photon_energy(1550e-9) / 1.602e-19;
/// assert!((ev - 0.8).abs() < 0.01);
/// ```
pub fn photon_energy(wavelength_m: f64) -> f64 {
    PLANCK * SPEED_OF_LIGHT / wavelength_m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photon_energy_positive_and_decreasing_with_wavelength() {
        assert!(photon_energy(1310e-9) > photon_energy(1550e-9));
        assert!(photon_energy(1550e-9) > 0.0);
    }
}
