//! Double-bus microring resonator (paper §II-B2, §II-C2).
//!
//! MRRs are the wavelength filters Albireo uses for optical accumulation:
//! each ring demultiplexes its resonant wavelength onto a shared combination
//! waveguide (positive or negative rail, Fig. 2d). The model implements:
//!
//! * free spectral range `FSR = λ²res/(n_g·L)` (Eq. 7),
//! * finesse `FSR/FWHM` (Eq. 8),
//! * FWHM of the double-bus ring (Eq. 9),
//! * drop/through-port power transfer vs. detuning (Fig. 4a), from the
//!   standard coupled-mode treatment of Bogaerts et al. (paper ref. \[6\]),
//! * photon-lifetime-limited temporal response (Fig. 4b).

use crate::waveguide::Waveguide;
use crate::{check_positive, check_unit_interval, OpticalParams, Result};
use std::f64::consts::PI;

/// A double-bus microring resonator.
///
/// ```
/// use albireo_photonics::mrr::Microring;
/// use albireo_photonics::params::OpticalParams;
///
/// let ring = Microring::from_params(&OpticalParams::paper());
/// // Table II: FSR = 16.1 nm, k² = 0.03.
/// assert!((ring.fsr() * 1e9 - 16.1).abs() < 0.5);
/// // On resonance, nearly all power reaches the drop port.
/// assert!(ring.drop_transmission(0.0) > 0.9);
/// // Far off resonance, nearly nothing does.
/// assert!(ring.drop_transmission(ring.fsr() / 2.0) < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Microring {
    /// Ring circumference L, m.
    circumference: f64,
    /// Power cross-coupling coefficient of the input coupler, k₁².
    k1_sq: f64,
    /// Power cross-coupling coefficient of the drop coupler, k₂².
    k2_sq: f64,
    /// Single-pass amplitude transmission `a` (power transmission `a²`).
    single_pass_a: f64,
    /// Design wavelength, m.
    wavelength: f64,
    /// Group index of the ring waveguide.
    n_group: f64,
}

impl Microring {
    /// Builds a ring with symmetric coupling (`k₁² = k₂² = k2`), the critical
    /// coupling criterion used throughout the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if `radius`, `wavelength` or the group index is
    /// non-positive, or if `k2` is outside `(0, 1)`.
    pub fn symmetric(
        radius: f64,
        k2: f64,
        wavelength: f64,
        n_group: f64,
        single_pass_a: f64,
    ) -> Result<Microring> {
        check_positive("radius", radius)?;
        check_positive("wavelength", wavelength)?;
        check_positive("n_group", n_group)?;
        check_unit_interval("k2", k2)?;
        check_unit_interval("single_pass_a", single_pass_a)?;
        if k2 == 0.0 {
            return Err(crate::PhotonicsError::NonPositive {
                name: "k2",
                value: k2,
            });
        }
        Ok(Microring {
            circumference: 2.0 * PI * radius,
            k1_sq: k2,
            k2_sq: k2,
            single_pass_a,
            wavelength,
            n_group,
        })
    }

    /// Builds the paper's ring (r = 5 µm, k² = 0.03, bent-waveguide loss)
    /// from a full parameter set.
    pub fn from_params(params: &OpticalParams) -> Microring {
        Microring::with_k2(params, params.mrr.k2)
    }

    /// Builds the paper's ring but with an explicit coupling coefficient —
    /// the Fig. 4 design-space exploration sweeps `k²`.
    ///
    /// # Panics
    ///
    /// Panics if `k2` is outside `(0, 1]`; the Table II geometry is otherwise
    /// always valid.
    pub fn with_k2(params: &OpticalParams, k2: f64) -> Microring {
        let wg = Waveguide::from_params(params);
        let circumference = 2.0 * PI * params.mrr.radius;
        let a = wg.ring_amplitude_transmission(circumference);
        Microring::symmetric(
            params.mrr.radius,
            k2,
            params.wavelength,
            params.waveguide.n_group,
            a,
        )
        .expect("Table II ring geometry is valid")
    }

    /// Ring circumference L, m.
    pub fn circumference(&self) -> f64 {
        self.circumference
    }

    /// Power cross-coupling coefficient k² (symmetric couplers).
    pub fn k2(&self) -> f64 {
        self.k2_sq
    }

    /// Single-pass amplitude transmission `a`.
    pub fn single_pass_a(&self) -> f64 {
        self.single_pass_a
    }

    /// Free spectral range, m (Eq. 7).
    pub fn fsr(&self) -> f64 {
        self.wavelength * self.wavelength / (self.n_group * self.circumference)
    }

    /// Full width at half maximum of the drop resonance, m (Eq. 9).
    pub fn fwhm(&self) -> f64 {
        let t1t2a = self.t1() * self.t2() * self.single_pass_a;
        (1.0 - t1t2a) * self.wavelength * self.wavelength
            / (PI * self.n_group * self.circumference * t1t2a.sqrt())
    }

    /// Finesse = FSR / FWHM (Eq. 8).
    pub fn finesse(&self) -> f64 {
        self.fsr() / self.fwhm()
    }

    /// Optical 3 dB bandwidth of the resonance, Hz.
    pub fn bandwidth_hz(&self) -> f64 {
        crate::constants::SPEED_OF_LIGHT * self.fwhm() / (self.wavelength * self.wavelength)
    }

    /// Photon-lifetime time constant of the loaded ring, s.
    ///
    /// The Lorentzian resonance of full width `Δν` behaves as a single-pole
    /// low-pass filter with pole at `Δν/2`, i.e. `τ = 1/(π·Δν)`.
    pub fn time_constant(&self) -> f64 {
        1.0 / (PI * self.bandwidth_hz())
    }

    fn t1(&self) -> f64 {
        (1.0 - self.k1_sq).sqrt()
    }

    fn t2(&self) -> f64 {
        (1.0 - self.k2_sq).sqrt()
    }

    /// Round-trip phase detuning (rad) corresponding to a wavelength detuning
    /// from resonance (m). One FSR of detuning maps to 2π.
    pub fn phase_detuning(&self, delta_lambda: f64) -> f64 {
        2.0 * PI * delta_lambda / self.fsr()
    }

    /// Drop-port power transmission at a wavelength detuning `Δλ` (m) from
    /// resonance.
    ///
    /// A ring is "turned off" (paper §II-B2) by detuning it half an FSR, to
    /// its anti-resonance point, so the nominal wavelength passes to the
    /// through port: the analog engine's off-ring leakage is
    /// `drop_transmission(fsr() / 2.0)`.
    pub fn drop_transmission(&self, delta_lambda: f64) -> f64 {
        self.drop_at_phase(self.phase_detuning(delta_lambda))
    }

    /// Through-port power transmission at a wavelength detuning `Δλ` (m).
    pub fn through_transmission(&self, delta_lambda: f64) -> f64 {
        self.through_at_phase(self.phase_detuning(delta_lambda))
    }

    /// Drop-port power transmission at a round-trip phase detuning (rad).
    pub fn drop_at_phase(&self, phi: f64) -> f64 {
        let t1 = self.t1();
        let t2 = self.t2();
        let a = self.single_pass_a;
        let num = self.k1_sq * self.k2_sq * a;
        let t1t2a = t1 * t2 * a;
        let den = 1.0 - 2.0 * t1t2a * phi.cos() + t1t2a * t1t2a;
        num / den
    }

    /// Through-port power transmission at a round-trip phase detuning (rad).
    pub fn through_at_phase(&self, phi: f64) -> f64 {
        let t1 = self.t1();
        let t2 = self.t2();
        let a = self.single_pass_a;
        let t1t2a = t1 * t2 * a;
        let num = t2 * t2 * a * a - 2.0 * t1t2a * phi.cos() + t1 * t1;
        let den = 1.0 - 2.0 * t1t2a * phi.cos() + t1t2a * t1t2a;
        num / den
    }

    /// Drop-port transmission exactly on resonance.
    pub fn drop_peak(&self) -> f64 {
        self.drop_at_phase(0.0)
    }

    /// Power transfer of the drop port at a given intensity-modulation
    /// frequency (Hz), relative to DC, from the single-pole equivalent.
    pub fn modulation_response(&self, f_mod_hz: f64) -> f64 {
        let x = 2.0 * f_mod_hz / self.bandwidth_hz();
        1.0 / (1.0 + x * x)
    }

    /// Normalized drop-port power during a step of input power applied at
    /// `t = 0` (Fig. 4b): the ring charges with its photon lifetime.
    ///
    /// Returns a value in `[0, drop_peak()]`.
    pub fn step_response(&self, t_seconds: f64) -> f64 {
        if t_seconds <= 0.0 {
            return 0.0;
        }
        self.drop_peak() * (1.0 - (-t_seconds / self.time_constant()).exp())
    }

    /// Samples the drop-port spectrum over ±`span` (m) around resonance
    /// with `points` samples. Returns `(detuning_m, transmission)` pairs.
    ///
    /// This regenerates Fig. 4a.
    pub fn drop_spectrum(&self, span: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two sample points");
        let _prof = albireo_obs::profile::scope("photonics.mrr.spectrum");
        (0..points)
            .map(|i| {
                let frac = i as f64 / (points - 1) as f64;
                let d = -span + 2.0 * span * frac;
                (d, self.drop_transmission(d))
            })
            .collect()
    }

    /// Worst-case aggregate crosstalk seen by one ring from `n − 1` foreign
    /// channels uniformly spaced across one FSR: `Σ_j T_drop(j·FSR/n)`.
    pub fn aggregate_crosstalk(&self, n_channels: usize) -> f64 {
        if n_channels < 2 {
            return 0.0;
        }
        let _prof = albireo_obs::profile::scope("photonics.mrr.crosstalk");
        let spacing = self.fsr() / n_channels as f64;
        (1..n_channels)
            .map(|j| self.drop_at_phase(self.phase_detuning(j as f64 * spacing)))
            .sum()
    }

    /// RMS crosstalk (standard deviation of the interference) assuming the
    /// foreign channels carry independent data uniform in `[0, 1]`:
    /// `sqrt(Σ_j T_j² / 12)`.
    pub fn rms_crosstalk(&self, n_channels: usize) -> f64 {
        self.rms_crosstalk_with_variance(n_channels, 1.0 / 12.0)
    }

    /// RMS crosstalk for foreign channels carrying data with an arbitrary
    /// variance (uniform `[0,1]` data has variance 1/12). The paper
    /// observes (§II-C2) that trained kernel weights are bell-shaped, which
    /// lowers the interference variance and lets the accumulator support
    /// more levels.
    pub fn rms_crosstalk_with_variance(&self, n_channels: usize, data_variance: f64) -> f64 {
        if n_channels < 2 {
            return 0.0;
        }
        let spacing = self.fsr() / n_channels as f64;
        let sum_sq: f64 = (1..n_channels)
            .map(|j| {
                let t = self.drop_at_phase(self.phase_detuning(j as f64 * spacing));
                t * t
            })
            .sum();
        (sum_sq * data_variance).sqrt()
    }

    /// RMS crosstalk when this ring's resonance has drifted by `drift`
    /// meters off its grid slot (e.g. thermally): the interference is the
    /// foreign-channel pickup *relative to the (reduced) main signal*.
    pub fn rms_crosstalk_with_drift(&self, n_channels: usize, drift: f64) -> f64 {
        if n_channels < 2 {
            return 0.0;
        }
        let spacing = self.fsr() / n_channels as f64;
        let main = self.drop_transmission(drift).max(f64::MIN_POSITIVE);
        let sum_sq: f64 = (1..n_channels)
            .flat_map(|j| {
                // Foreign channels on both sides, now asymmetric.
                let up = self.drop_transmission(j as f64 * spacing - drift);
                let down = self.drop_transmission(-(j as f64) * spacing - drift);
                [up, down]
            })
            .map(|t| t * t)
            .sum::<f64>()
            / 2.0; // the symmetric baseline counts each spacing once
        ((sum_sq / 12.0).sqrt()) * (self.drop_peak() / main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> Microring {
        Microring::from_params(&OpticalParams::paper())
    }

    #[test]
    fn fsr_matches_table_ii() {
        let fsr_nm = ring().fsr() * 1e9;
        assert!((fsr_nm - 16.1).abs() < 0.4, "fsr = {fsr_nm} nm");
    }

    #[test]
    fn near_critical_coupling_drop_peak_is_high() {
        let r = ring();
        assert!(r.drop_peak() > 0.9, "peak = {}", r.drop_peak());
        assert!(r.drop_peak() <= 1.0);
    }

    #[test]
    fn finesse_is_fsr_over_fwhm() {
        let r = ring();
        assert!((r.finesse() - r.fsr() / r.fwhm()).abs() < 1e-9);
        // k² = 0.03 gives a finesse near 100.
        assert!(r.finesse() > 60.0 && r.finesse() < 140.0, "{}", r.finesse());
    }

    #[test]
    fn lower_k2_narrows_fwhm_and_raises_finesse() {
        let p = OpticalParams::paper();
        let r02 = Microring::with_k2(&p, 0.02);
        let r03 = Microring::with_k2(&p, 0.03);
        let r10 = Microring::with_k2(&p, 0.10);
        assert!(r02.fwhm() < r03.fwhm());
        assert!(r03.fwhm() < r10.fwhm());
        assert!(r02.finesse() > r03.finesse());
        // FSR is independent of k².
        assert!((r02.fsr() - r10.fsr()).abs() < 1e-18);
    }

    #[test]
    fn passivity_drop_plus_through_at_most_one() {
        let r = ring();
        for i in 0..200 {
            let d = (i as f64 / 199.0 - 0.5) * r.fsr();
            let total = r.drop_transmission(d) + r.through_transmission(d);
            assert!(total <= 1.0 + 1e-9, "total {total} at detuning {d}");
            assert!(total >= 0.0);
        }
    }

    #[test]
    fn spectrum_is_symmetric_and_peaked_at_zero() {
        let r = ring();
        let spec = r.drop_spectrum(r.fsr() / 4.0, 101);
        let peak = spec
            .iter()
            .cloned()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(peak.0.abs() < r.fsr() / 100.0, "peak at {}", peak.0);
        // symmetry
        for i in 0..50 {
            let lo = spec[i].1;
            let hi = spec[100 - i].1;
            assert!((lo - hi).abs() < 1e-9);
        }
    }

    #[test]
    fn fwhm_consistent_with_spectrum() {
        let r = ring();
        // Transmission at ±FWHM/2 should be close to half the peak.
        let half = r.drop_transmission(r.fwhm() / 2.0);
        assert!(
            (half - r.drop_peak() / 2.0).abs() / r.drop_peak() < 0.05,
            "half-power point off: {half} vs peak {}",
            r.drop_peak()
        );
    }

    #[test]
    fn off_state_passes_signal() {
        // Off is a half-FSR detuning: the nominal wavelength passes.
        let r = ring();
        let off = r.fsr() / 2.0;
        assert!(r.drop_transmission(off) < 0.01);
        assert!(r.through_transmission(off) > 0.9);
    }

    #[test]
    fn temporal_response_monotonic_and_bounded() {
        let r = ring();
        let tau = r.time_constant();
        let mut prev = 0.0;
        for i in 1..=10 {
            let v = r.step_response(i as f64 * tau / 2.0);
            assert!(v >= prev);
            assert!(v <= r.drop_peak() + 1e-12);
            prev = v;
        }
        assert!((r.step_response(20.0 * tau) - r.drop_peak()).abs() < 1e-6);
        assert_eq!(r.step_response(-1e-12), 0.0);
    }

    #[test]
    fn lower_k2_is_slower() {
        let p = OpticalParams::paper();
        let r02 = Microring::with_k2(&p, 0.02);
        let r05 = Microring::with_k2(&p, 0.05);
        assert!(r02.time_constant() > r05.time_constant());
        assert!(r02.modulation_response(5e9) < r05.modulation_response(5e9));
    }

    #[test]
    fn bandwidth_for_k2_003_supports_5ghz() {
        // The paper picks k² = 0.03 for "temporal performance" at 5 GHz.
        let r = ring();
        assert!(
            r.bandwidth_hz() > 10e9,
            "bw = {} GHz",
            r.bandwidth_hz() / 1e9
        );
        assert!(r.modulation_response(5e9) > 0.5);
    }

    #[test]
    fn crosstalk_grows_with_channel_count() {
        let r = ring();
        let x8 = r.aggregate_crosstalk(8);
        let x20 = r.aggregate_crosstalk(20);
        let x40 = r.aggregate_crosstalk(40);
        assert!(x8 < x20 && x20 < x40);
        assert_eq!(r.aggregate_crosstalk(1), 0.0);
    }

    #[test]
    fn lower_k2_has_less_crosstalk() {
        let p = OpticalParams::paper();
        let r02 = Microring::with_k2(&p, 0.02);
        let r05 = Microring::with_k2(&p, 0.05);
        assert!(r02.rms_crosstalk(20) < r05.rms_crosstalk(20));
    }

    #[test]
    fn crosstalk_magnitude_anchor() {
        // Analytical anchor from the design doc: k² = 0.03, 20 channels
        // ⇒ nearest-neighbour drop ≈ −20 dB, aggregate ≈ 0.031.
        let r = ring();
        let x = r.aggregate_crosstalk(20);
        assert!((0.02..0.045).contains(&x), "aggregate crosstalk {x}");
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(Microring::symmetric(0.0, 0.03, 1550e-9, 4.68, 1.0).is_err());
        assert!(Microring::symmetric(5e-6, 0.0, 1550e-9, 4.68, 1.0).is_err());
        assert!(Microring::symmetric(5e-6, 1.5, 1550e-9, 4.68, 1.0).is_err());
    }
}
