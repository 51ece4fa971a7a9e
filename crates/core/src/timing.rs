//! Cycle-timing feasibility: can the photonic datapath actually close
//! timing at the converter-limited clock?
//!
//! The paper fixes the clock at the DAC/ADC sampling rate (5 GS/s for
//! C/M, 8 GS/s for A) and separately shows (Fig. 4b) that small ring
//! couplings are too slow. This module combines the two: it walks the
//! signal path — DAC settling, MZM/MRR modulation, optical time of flight,
//! ring charging, photodetection, TIA settling, ADC sampling — and reports
//! whether each stage supports the target cycle time, reproducing the
//! paper's conclusion that `k² = 0.03` closes 5 GHz while `k² = 0.02`
//! does not comfortably.

use crate::config::{ChipConfig, TechnologyEstimate};
use albireo_photonics::mrr::Microring;
use albireo_photonics::waveguide::Waveguide;
use albireo_photonics::OpticalParams;

/// Power-response threshold for a stage to be considered "closing" timing
/// at the clock: the ring must pass at least this fraction of its DC
/// response at the modulation frequency (3 dB = 0.5).
pub const RESPONSE_THRESHOLD: f64 = 0.5;

/// One stage of the per-cycle signal path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingStage {
    /// Stage name.
    pub name: &'static str,
    /// Stage delay or settling time, s.
    pub time_s: f64,
    /// Whether the stage is pipelined (overlaps with other cycles) rather
    /// than part of the per-cycle settling budget.
    pub pipelined: bool,
}

/// A full timing report for one configuration and estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Target cycle time, s.
    pub cycle_time_s: f64,
    /// The stages in path order.
    pub stages: Vec<TimingStage>,
    /// Ring power response at the modulation rate.
    pub ring_response: f64,
    /// Whether the non-pipelined stages fit the cycle and the ring
    /// response clears [`RESPONSE_THRESHOLD`].
    pub closes_timing: bool,
}

impl TimingReport {
    /// Total non-pipelined settling time per cycle, s.
    pub fn settling_time_s(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| !s.pipelined)
            .map(|s| s.time_s)
            .sum()
    }
}

/// Analyzes the timing of a chip at an estimate's clock with a given ring
/// coupling.
pub fn analyze(chip: &ChipConfig, estimate: TechnologyEstimate, k2: f64) -> TimingReport {
    let params = OpticalParams::paper();
    let ring = Microring::with_k2(&params, k2);
    let wg = Waveguide::from_params(&params);
    let clock = estimate.clock_hz();
    let cycle = 1.0 / clock;

    // Converter settling: modelled as half a sample period each (they are
    // specified at the sampling rate, so by construction they fit; the
    // margin is what matters).
    let dac_settle = 0.5 * cycle;
    let adc_sample = 0.5 * cycle;
    // Ring charge time to 90% of steady state: 2.3 time constants.
    let ring_charge = 2.3 * ring.time_constant();
    // Time of flight across the chip (~1 cm of routing + distribution) is
    // pipelined: it delays the answer but does not limit the rate.
    let flight = wg.delay(0.01) * f64::from(chip.ng.max(1) as u32).log2().max(1.0);
    // TIA settling at its bandwidth (assume matched to the clock).
    let tia_settle = 0.35 / (0.7 * clock); // 0.35/BW rise time at 0.7×clock BW

    let stages = vec![
        TimingStage {
            name: "DAC settle",
            time_s: dac_settle,
            pipelined: false,
        },
        TimingStage {
            name: "MRR charge (switch fabric)",
            time_s: ring_charge,
            pipelined: false,
        },
        TimingStage {
            name: "time of flight",
            time_s: flight,
            pipelined: true,
        },
        TimingStage {
            name: "TIA settle",
            time_s: tia_settle,
            pipelined: false,
        },
        TimingStage {
            name: "ADC sample",
            time_s: adc_sample,
            pipelined: true,
        },
    ];
    let ring_response = ring.modulation_response(clock);
    let settling: f64 = stages
        .iter()
        .filter(|s| !s.pipelined)
        .map(|s| s.time_s)
        .sum();
    TimingReport {
        cycle_time_s: cycle,
        closes_timing: settling <= cycle * 1.5 && ring_response >= RESPONSE_THRESHOLD,
        stages,
        ring_response,
    }
}

/// The fastest clock (Hz) a ring coupling supports at the response
/// threshold.
pub fn max_clock_hz(k2: f64) -> f64 {
    let ring = Microring::with_k2(&OpticalParams::paper(), k2);
    // |H(f)|² = 1/(1+(2f/Δν)²) = 0.5  ⇒  f = Δν/2.
    ring.bandwidth_hz() / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_closes_5ghz() {
        let report = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.03,
        );
        assert!(report.closes_timing, "k²=0.03 must close 5 GHz: {report:?}");
        assert!(report.ring_response >= RESPONSE_THRESHOLD);
    }

    #[test]
    fn k2_002_is_marginal_at_5ghz() {
        // Fig. 4b's conclusion: k² = 0.02 has poor temporal response; its
        // margin at 5 GHz is visibly worse than k² = 0.03's.
        let strong = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.03,
        );
        let weak = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.02,
        );
        assert!(weak.ring_response < strong.ring_response);
        assert!(max_clock_hz(0.02) < max_clock_hz(0.03));
    }

    #[test]
    fn aggressive_8ghz_is_tighter() {
        let c5 = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.03,
        );
        let a8 = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Aggressive,
            0.03,
        );
        assert!(a8.cycle_time_s < c5.cycle_time_s);
        assert!(a8.ring_response < c5.ring_response);
        // The k² = 0.03 ring still clears 8 GHz (bandwidth ≈ 20.7 GHz).
        assert!(a8.closes_timing);
    }

    #[test]
    fn max_clock_scales_with_bandwidth() {
        // k² = 0.03 ⇒ Δν ≈ 20.7 GHz ⇒ max clock ≈ 10.3 GHz.
        let f = max_clock_hz(0.03);
        assert!((9e9..12e9).contains(&f), "{f}");
        let f2 = max_clock_hz(0.02);
        assert!((6e9..8e9).contains(&f2), "{f2}");
    }

    #[test]
    fn settling_and_fill_decompose() {
        let report = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.03,
        );
        let total: f64 = report.stages.iter().map(|s| s.time_s).sum();
        let fill: f64 = report
            .stages
            .iter()
            .filter(|s| s.pipelined)
            .map(|s| s.time_s)
            .sum();
        assert!((report.settling_time_s() + fill - total).abs() < 1e-18);
        assert!(fill > 0.0);
    }

    #[test]
    fn time_of_flight_is_pipelined_not_rate_limiting() {
        let report = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.03,
        );
        let flight = report
            .stages
            .iter()
            .find(|s| s.name == "time of flight")
            .unwrap();
        assert!(flight.pipelined);
        // ~1 cm at c/4.68 ≈ 156 ps ≫ the 200 ps cycle would be a problem
        // if it were not pipelined.
        assert!(flight.time_s > 0.5 / 5e9);
    }

    #[test]
    fn very_weak_coupling_fails_timing() {
        let report = analyze(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            0.005,
        );
        assert!(!report.closes_timing, "k²=0.005 cannot close 5 GHz");
    }
}
