//! Optical device parameters (paper Table II).
//!
//! [`OpticalParams::paper`] returns the exact values from Table II of the
//! Albireo paper, which are shared by all three technology estimates
//! (conservative / moderate / aggressive); only the *electrical* device
//! powers differ between estimates and those live in `albireo-core`.

use crate::units::Db;

/// Silicon strip waveguide parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveguideParams {
    /// Cross-section width, m (Table II: 500 nm).
    pub width: f64,
    /// Cross-section height, m (Table II: 220 nm).
    pub height: f64,
    /// Effective refractive index at the design wavelength.
    pub n_eff: f64,
    /// Group refractive index at the design wavelength.
    pub n_group: f64,
    /// Propagation loss of straight sections, dB/cm.
    pub straight_loss_db_per_cm: f64,
    /// Propagation loss of bent sections, dB/cm.
    pub bent_loss_db_per_cm: f64,
}

/// Y-branch splitter parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YBranchParams {
    /// Insertion loss per branch, dB.
    pub loss_db: f64,
    /// Device footprint, m².
    pub area_m2: f64,
}

/// Double-bus microring resonator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrrParams {
    /// Ring radius, m (Table II: 5 µm).
    pub radius: f64,
    /// Drop-port insertion loss, dB (Table II: 0.39 dB).
    pub drop_loss_db: f64,
    /// Power cross-coupling coefficient k² (Table II: 0.03).
    pub k2: f64,
    /// Device footprint, m² (Table II: 20×20 µm²).
    pub area_m2: f64,
}

/// Mach-Zehnder modulator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MzmParams {
    /// Insertion loss, dB (Table II: 1.2 dB).
    pub loss_db: f64,
    /// Device footprint, m² (Table II: 300×50 µm²).
    pub area_m2: f64,
}

/// Star coupler parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarCouplerParams {
    /// Insertion loss, dB (Table II: 1.3 dB).
    pub loss_db: f64,
    /// Device footprint, m² (Table II: 750×350 µm²).
    pub area_m2: f64,
}

/// Arrayed waveguide grating parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AwgParams {
    /// Number of demultiplexed channels (Table II: 64).
    pub channels: usize,
    /// Insertion loss, dB (Table II: 2.0 dB).
    pub loss_db: f64,
    /// Inter-channel crosstalk, dB (Table II: −34 dB).
    pub crosstalk_db: f64,
    /// Free spectral range, m (Table II: 70 nm).
    pub fsr: f64,
    /// Device footprint, m² (Table II: 5×2 mm²).
    pub area_m2: f64,
}

/// Laser source parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserParams {
    /// Relative intensity noise power spectral density, dBc/Hz.
    pub rin_dbc_per_hz: f64,
    /// Device footprint, m² (Table II: 400×300 µm²).
    pub area_m2: f64,
}

/// PIN photodiode parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotodiodeParams {
    /// Responsivity, A/W (Table II: 1.1 A/W).
    pub responsivity: f64,
    /// Dark current, A (Table II: 25 pA at 1 V).
    pub dark_current: f64,
    /// Device footprint, m² (Table II: 40×40 µm²).
    pub area_m2: f64,
}

/// The complete set of optical device parameters from paper Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpticalParams {
    /// Design wavelength, m (1550 nm C-band).
    pub wavelength: f64,
    /// Waveguide parameters.
    pub waveguide: WaveguideParams,
    /// Y-branch parameters.
    pub ybranch: YBranchParams,
    /// Microring parameters.
    pub mrr: MrrParams,
    /// Mach-Zehnder modulator parameters.
    pub mzm: MzmParams,
    /// Star coupler parameters.
    pub star_coupler: StarCouplerParams,
    /// Arrayed waveguide grating parameters.
    pub awg: AwgParams,
    /// Laser parameters.
    pub laser: LaserParams,
    /// Photodiode parameters.
    pub photodiode: PhotodiodeParams,
}

impl OpticalParams {
    /// The exact parameter set from Table II of the paper.
    pub fn paper() -> OpticalParams {
        OpticalParams {
            wavelength: 1550e-9,
            waveguide: WaveguideParams {
                width: 500e-9,
                height: 220e-9,
                n_eff: 2.33,
                n_group: 4.68,
                straight_loss_db_per_cm: 1.5,
                bent_loss_db_per_cm: 3.8,
            },
            ybranch: YBranchParams {
                loss_db: 0.3,
                area_m2: 1.2e-6 * 2.2e-6,
            },
            mrr: MrrParams {
                radius: 5e-6,
                drop_loss_db: 0.39,
                k2: 0.03,
                area_m2: 20e-6 * 20e-6,
            },
            mzm: MzmParams {
                loss_db: 1.2,
                area_m2: 300e-6 * 50e-6,
            },
            star_coupler: StarCouplerParams {
                loss_db: 1.3,
                area_m2: 750e-6 * 350e-6,
            },
            awg: AwgParams {
                channels: 64,
                loss_db: 2.0,
                crosstalk_db: -34.0,
                fsr: 70e-9,
                area_m2: 5e-3 * 2e-3,
            },
            laser: LaserParams {
                rin_dbc_per_hz: -140.0,
                area_m2: 400e-6 * 300e-6,
            },
            photodiode: PhotodiodeParams {
                responsivity: 1.1,
                dark_current: 25e-12,
                area_m2: 40e-6 * 40e-6,
            },
        }
    }

    /// Insertion loss of the microring drop path as a [`Db`].
    pub fn mrr_drop_loss(&self) -> Db {
        Db::loss(self.mrr.drop_loss_db)
    }

    /// Insertion loss of an MZM as a [`Db`].
    pub fn mzm_loss(&self) -> Db {
        Db::loss(self.mzm.loss_db)
    }

    /// Insertion loss of a star coupler as a [`Db`].
    pub fn star_coupler_loss(&self) -> Db {
        Db::loss(self.star_coupler.loss_db)
    }

    /// Insertion loss of the AWG as a [`Db`].
    pub fn awg_loss(&self) -> Db {
        Db::loss(self.awg.loss_db)
    }
}

impl Default for OpticalParams {
    fn default() -> OpticalParams {
        OpticalParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table_ii() {
        let p = OpticalParams::paper();
        assert_eq!(p.wavelength, 1550e-9);
        assert_eq!(p.waveguide.n_eff, 2.33);
        assert_eq!(p.waveguide.n_group, 4.68);
        assert_eq!(p.mrr.k2, 0.03);
        assert_eq!(p.mrr.radius, 5e-6);
        assert_eq!(p.awg.channels, 64);
        assert_eq!(p.photodiode.responsivity, 1.1);
        assert_eq!(p.laser.rin_dbc_per_hz, -140.0);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(OpticalParams::default(), OpticalParams::paper());
    }

    #[test]
    fn areas_are_positive() {
        let p = OpticalParams::paper();
        for a in [
            p.ybranch.area_m2,
            p.mrr.area_m2,
            p.mzm.area_m2,
            p.star_coupler.area_m2,
            p.awg.area_m2,
            p.laser.area_m2,
            p.photodiode.area_m2,
        ] {
            assert!(a > 0.0);
        }
    }

    #[test]
    fn awg_is_10_mm2() {
        let p = OpticalParams::paper();
        assert!((p.awg.area_m2 - 10e-6).abs() < 1e-12);
    }

    #[test]
    fn loss_accessors_are_losses() {
        let p = OpticalParams::paper();
        assert!(p.mzm_loss().db() < 0.0);
        assert!(p.awg_loss().db() < 0.0);
        assert!(p.star_coupler_loss().db() < 0.0);
        assert!(p.mrr_drop_loss().db() < 0.0);
    }
}
