//! Physical constants used throughout the photonic models.
//!
//! All values are CODATA 2018 in SI units.

/// Speed of light in vacuum, m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Elementary charge, C.
pub const ELEMENTARY_CHARGE: f64 = 1.602_176_634e-19;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;
