//! Noise sources of the photonic dot product (paper §II-C1).
//!
//! Three sources limit the number of discernible output levels:
//!
//! * **RIN** — relative intensity noise of the lasers, a power-proportional
//!   fluctuation with PSD given in dBc/Hz. With one independent laser per
//!   wavelength, the per-channel fluctuations add in variance, so for a total
//!   photocurrent `I` spread over `N` channels the RIN variance is
//!   `I²·rin·Δf/N`.
//! * **Shot noise** (Eq. 5) — `σ² = 2·qe·I_PD·Δf`.
//! * **Thermal (Johnson–Nyquist) noise** (Eq. 6) — `σ² = 4·kB·T·Δf/Rf`,
//!   where `Rf` is the TIA feedback resistance.
//!
//! The paper's parameters are `Δf = 5 GHz`, `T = 300 K`, `RIN = −140 dBc/Hz`.
//! `Rf` is not given in the paper; the default of 5 kΩ is a typical value
//! for 5 GHz silicon-photonic receiver TIAs and is recorded as an assumption
//! in EXPERIMENTS.md.

use crate::constants::{BOLTZMANN, ELEMENTARY_CHARGE};
use crate::units::rin_dbc_to_linear;

/// Parameters of the receiver noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseParams {
    /// Detection bandwidth Δf, Hz (paper: 5 GHz).
    pub bandwidth_hz: f64,
    /// Temperature, K (paper: 300 K).
    pub temperature_k: f64,
    /// Laser RIN PSD, dBc/Hz (paper: −140 dBc/Hz).
    pub rin_dbc_per_hz: f64,
    /// TIA feedback resistance, Ω (assumed 5 kΩ; see module docs).
    pub tia_feedback_ohms: f64,
}

impl NoiseParams {
    /// The paper's §II-C1 noise parameters.
    pub fn paper() -> NoiseParams {
        NoiseParams {
            bandwidth_hz: 5e9,
            temperature_k: 300.0,
            rin_dbc_per_hz: -140.0,
            tia_feedback_ohms: 5e3,
        }
    }

    /// Same parameters at a different detection bandwidth (the aggressive
    /// estimate runs converters at 8 GS/s).
    pub fn with_bandwidth(self, bandwidth_hz: f64) -> NoiseParams {
        NoiseParams {
            bandwidth_hz,
            ..self
        }
    }

    /// Shot-noise current variance (A²) at photocurrent `i_pd` (Eq. 5).
    #[inline]
    pub fn shot_variance(&self, i_pd: f64) -> f64 {
        2.0 * ELEMENTARY_CHARGE * i_pd.abs() * self.bandwidth_hz
    }

    /// Thermal-noise current variance (A²) (Eq. 6).
    pub fn thermal_variance(&self) -> f64 {
        4.0 * BOLTZMANN * self.temperature_k * self.bandwidth_hz / self.tia_feedback_ohms
    }

    /// RIN current variance (A²) for total photocurrent `i_pd` carried on
    /// `n_channels` wavelengths from independent lasers.
    ///
    /// # Panics
    ///
    /// Panics if `n_channels` is zero.
    pub fn rin_variance(&self, i_pd: f64, n_channels: usize) -> f64 {
        self.prepared().rin_variance(i_pd, n_channels)
    }

    /// Total noise standard deviation (A) at photocurrent `i_pd` on
    /// `n_channels` wavelengths: the three sources are independent, so the
    /// variances add.
    pub fn total_sigma(&self, i_pd: f64, n_channels: usize) -> f64 {
        self.prepared().total_sigma(i_pd, n_channels)
    }

    /// These parameters with the terms that do not depend on the
    /// photocurrent (the thermal variance and the linear RIN) evaluated
    /// once, for callers that sample noise per detection.
    pub fn prepared(&self) -> PreparedNoise {
        PreparedNoise {
            params: *self,
            thermal_variance: self.thermal_variance(),
            rin_linear: rin_dbc_to_linear(self.rin_dbc_per_hz),
        }
    }

    /// Breakdown of noise standard deviations `(rin, shot, thermal)` in A,
    /// useful for reproducing the "RIN contributes the least" observation.
    pub fn sigma_breakdown(&self, i_pd: f64, n_channels: usize) -> (f64, f64, f64) {
        (
            self.rin_variance(i_pd, n_channels).sqrt(),
            self.shot_variance(i_pd).sqrt(),
            self.thermal_variance().sqrt(),
        )
    }
}

impl Default for NoiseParams {
    fn default() -> NoiseParams {
        NoiseParams::paper()
    }
}

/// [`NoiseParams`] with the photocurrent-independent terms precomputed
/// (see [`NoiseParams::prepared`]). Values are bit-identical to the
/// unprepared methods, which delegate here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedNoise {
    params: NoiseParams,
    thermal_variance: f64,
    rin_linear: f64,
}

impl PreparedNoise {
    /// RIN current variance (A²); see [`NoiseParams::rin_variance`].
    ///
    /// # Panics
    ///
    /// Panics if `n_channels` is zero.
    #[inline]
    pub fn rin_variance(&self, i_pd: f64, n_channels: usize) -> f64 {
        assert!(n_channels > 0, "need at least one wavelength channel");
        i_pd * i_pd * self.rin_linear * self.params.bandwidth_hz / n_channels as f64
    }

    /// Total noise variance (A²): the three sources' variances, summed in
    /// the order [`PreparedNoise::total_sigma`] takes its root of.
    /// Inlined: the analog engine evaluates it once per detection.
    #[inline]
    pub fn total_variance(&self, i_pd: f64, n_channels: usize) -> f64 {
        self.params.shot_variance(i_pd)
            + self.thermal_variance
            + self.rin_variance(i_pd, n_channels)
    }

    /// Total noise standard deviation (A); see
    /// [`NoiseParams::total_sigma`].
    pub fn total_sigma(&self, i_pd: f64, n_channels: usize) -> f64 {
        self.total_variance(i_pd, n_channels).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_variance_matches_eq5() {
        let n = NoiseParams::paper();
        let v = n.shot_variance(1e-3);
        let expected = 2.0 * 1.602_176_634e-19 * 1e-3 * 5e9;
        assert!((v - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn thermal_variance_matches_eq6() {
        let n = NoiseParams::paper();
        let v = n.thermal_variance();
        let expected = 4.0 * 1.380_649e-23 * 300.0 * 5e9 / 5e3;
        assert!((v - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn rin_variance_scales_with_current_squared() {
        let n = NoiseParams::paper();
        let v1 = n.rin_variance(1e-3, 10);
        let v2 = n.rin_variance(2e-3, 10);
        assert!((v2 - 4.0 * v1).abs() / v2 < 1e-12);
    }

    #[test]
    fn rin_averages_down_with_channel_count() {
        let n = NoiseParams::paper();
        assert!(n.rin_variance(1e-3, 40) < n.rin_variance(1e-3, 10));
    }

    #[test]
    fn total_sigma_dominated_by_largest_term() {
        let n = NoiseParams::paper();
        // At very small currents thermal noise dominates.
        let (rin, shot, thermal) = n.sigma_breakdown(1e-9, 20);
        assert!(thermal > shot && thermal > rin);
        // At very large currents RIN dominates (it grows ∝ I).
        let (rin, shot, thermal) = n.sigma_breakdown(0.1, 20);
        assert!(rin > shot && rin > thermal);
    }

    #[test]
    fn rin_least_at_typical_circuit_powers() {
        // Paper §II-C1: "RIN contributes the least to the total noise with
        // typical photonic circuit laser powers" — at tens of µW per channel.
        let n = NoiseParams::paper();
        let i_pd = 1.1 * 20.0 * 10e-6; // 20 channels × 10 µW × 1.1 A/W
        let (rin, shot, _thermal) = n.sigma_breakdown(i_pd, 20);
        assert!(rin < shot, "rin {rin} should be below shot {shot}");
    }

    #[test]
    fn prepared_sigma_is_the_bitwise_variance_sum() {
        let n = NoiseParams::paper().with_bandwidth(8e9);
        let prepared = n.prepared();
        for i_pd in [0.0, 1e-9, 3.7e-6, 2.2e-4, 0.1] {
            let variance = n.shot_variance(i_pd) + n.thermal_variance() + n.rin_variance(i_pd, 21);
            assert_eq!(
                prepared.total_variance(i_pd, 21).to_bits(),
                variance.to_bits()
            );
            assert_eq!(
                prepared.total_sigma(i_pd, 21).to_bits(),
                variance.sqrt().to_bits()
            );
        }
    }

    #[test]
    fn bandwidth_scaling() {
        let n5 = NoiseParams::paper();
        let n8 = NoiseParams::paper().with_bandwidth(8e9);
        assert!(n8.shot_variance(1e-3) > n5.shot_variance(1e-3));
        assert!((n8.shot_variance(1e-3) / n5.shot_variance(1e-3) - 1.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one wavelength")]
    fn zero_channels_panics() {
        let n = NoiseParams::paper();
        let _ = n.rin_variance(1e-3, 0);
    }
}
