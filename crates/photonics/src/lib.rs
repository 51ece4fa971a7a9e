//! Silicon-photonic device models for the Albireo CNN accelerator.
//!
//! This crate is the *physics substrate* of the Albireo reproduction. It
//! provides analytical models for every optical device the paper's
//! architecture is built from, replacing the Lumerical INTERCONNECT
//! simulations used by the authors:
//!
//! * [`mrr`] — double-bus microring resonators used as wavelength-selective
//!   switches and accumulators, including free-spectral range (Eq. 7),
//!   finesse (Eq. 8), FWHM (Eq. 9), drop/through-port spectra (Fig. 4a) and
//!   photon-lifetime-limited temporal response (Fig. 4b).
//! * [`photodiode`] — PIN photodiodes and the balanced-detector subtraction
//!   producing `Iout = R0·ΣP⁺ − R1·ΣP⁻` (Eq. 4).
//! * [`noise`] — relative intensity noise, shot noise (Eq. 5) and
//!   Johnson–Nyquist thermal noise (Eq. 6).
//! * [`precision`] — the separable-level analysis that converts noise and
//!   inter-channel crosstalk into "bits of precision" (Figs. 3 and 4c).
//! * [`link`] — end-to-end optical link budgets through the Albireo chip.
//!
//! # Example
//!
//! Compute the free spectral range of the paper's 5 µm-radius ring and check
//! it against the 16.1 nm reported in Table II:
//!
//! ```
//! use albireo_photonics::mrr::Microring;
//! use albireo_photonics::params::OpticalParams;
//!
//! let ring = Microring::from_params(&OpticalParams::paper());
//! let fsr_nm = ring.fsr() * 1e9;
//! assert!((fsr_nm - 16.1).abs() < 0.5, "fsr was {fsr_nm} nm");
//! ```

pub mod constants;
pub mod laser;
pub mod link;
pub mod mrr;
pub mod noise;
pub mod params;
pub mod photodiode;
pub mod precision;
pub mod thermal;
pub mod units;
pub mod waveguide;
pub mod ybranch;

pub use params::OpticalParams;
pub use units::Db;

use std::error::Error;
use std::fmt;

/// Errors produced by photonic device model construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PhotonicsError {
    /// A parameter that must lie in `[0, 1]` (coupling coefficient, weight,
    /// transmission) was outside that interval.
    OutOfUnitInterval {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A parameter that must be strictly positive was zero or negative.
    NonPositive {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for PhotonicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhotonicsError::OutOfUnitInterval { name, value } => {
                write!(f, "parameter `{name}` must be in [0, 1], got {value}")
            }
            PhotonicsError::NonPositive { name, value } => {
                write!(f, "parameter `{name}` must be positive, got {value}")
            }
        }
    }
}

impl Error for PhotonicsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, PhotonicsError>;

pub(crate) fn check_unit_interval(name: &'static str, value: f64) -> Result<f64> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(PhotonicsError::OutOfUnitInterval { name, value })
    }
}

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        Err(PhotonicsError::NonPositive { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let err = PhotonicsError::OutOfUnitInterval {
            name: "k2",
            value: 1.5,
        };
        let msg = err.to_string();
        assert!(msg.contains("k2"));
        assert!(msg.contains("1.5"));
    }

    #[test]
    fn check_unit_interval_accepts_bounds() {
        assert_eq!(check_unit_interval("x", 0.0), Ok(0.0));
        assert_eq!(check_unit_interval("x", 1.0), Ok(1.0));
        assert!(check_unit_interval("x", -0.1).is_err());
        assert!(check_unit_interval("x", 1.1).is_err());
    }

    #[test]
    fn check_positive_rejects_zero_and_nan() {
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", f64::NAN).is_err());
        assert!(check_positive("x", f64::INFINITY).is_err());
        assert_eq!(check_positive("x", 2.0), Ok(2.0));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PhotonicsError>();
    }
}
