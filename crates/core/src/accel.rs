//! The unified accelerator cost-model abstraction.
//!
//! The paper's evaluation (§IV–VI) is a *cross-accelerator* comparison:
//! Albireo against the photonic PIXEL and DEAP-CNN designs and the
//! reported electronic accelerators. Every one of those cost models is a
//! function from a network to latency/energy, so they all implement one
//! trait, [`Accelerator`], and speak one vocabulary, [`NetworkCost`] /
//! [`LayerCost`]. Everything downstream — the Fig. 8 comparison tables,
//! the CLI `compare` command, and the multi-chip serving simulator in
//! `albireo-runtime` — consumes `dyn Accelerator`, so adding a backend is
//! one trait impl, visible everywhere at once.
//!
//! Implementations in the workspace:
//!
//! * [`AlbireoAccelerator`] (here) — wraps the validated
//!   [`NetworkEvaluation`] dataflow/power models and the weight-DAC
//!   programming setup term used by the serving simulator.
//! * `Pixel` and `DeapCnn` in `albireo-baselines` — the analytic photonic
//!   baselines at the shared 60 W budget.
//! * `ReportedAccelerator` in `albireo-baselines` — published electronic
//!   results (Eyeriss, ENVISION, UNPU); supports only the networks the
//!   papers report.

use crate::config::{ChipConfig, TechnologyEstimate};
use crate::energy::NetworkEvaluation;
use crate::inventory::DeviceInventory;
use albireo_nn::Model;
use albireo_parallel::Parallelism;

/// Per-layer cost of one inference. This is the canonical per-layer
/// vocabulary; `energy::LayerEvaluation` is an alias of it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Layer name.
    pub name: String,
    /// Cycles.
    pub cycles: u64,
    /// Latency, s.
    pub latency_s: f64,
    /// Energy, J.
    pub energy_j: f64,
    /// MACs performed.
    pub macs: u64,
    /// Datapath utilization.
    pub utilization: f64,
}

/// Whole-network cost of one inference on some accelerator — the common
/// currency every [`Accelerator`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCost {
    /// Accelerator name (e.g. `albireo_9`, `PIXEL`).
    pub accelerator: String,
    /// Network name.
    pub network: String,
    /// Total compute cycles (0 where the model has no cycle notion, e.g.
    /// reported electronic results).
    pub cycles: u64,
    /// Inference latency, s.
    pub latency_s: f64,
    /// Inference energy, J.
    pub energy_j: f64,
    /// Power while running, W.
    pub power_w: f64,
    /// Wavelengths used for computation (the paper's WDM-efficiency
    /// denominator; 0 for electronic designs).
    pub wavelengths: usize,
    /// One-time per-batch setup (weight programming), s.
    pub setup_s: f64,
    /// Energy of the setup pass, J.
    pub setup_energy_j: f64,
    /// Per-layer costs (empty where the model has no layer resolution).
    pub per_layer: Vec<LayerCost>,
}

impl NetworkCost {
    /// Energy-delay product in the paper's units, mJ·ms.
    pub fn edp_mj_ms(&self) -> f64 {
        (self.energy_j * 1e3) * (self.latency_s * 1e3)
    }

    /// The paper's WDM efficiency metric (§IV-B): energy per wavelength
    /// used, J. Designs that report zero wavelengths (electronic) divide
    /// by one.
    pub fn energy_per_wavelength(&self) -> f64 {
        self.energy_j / self.wavelengths.max(1) as f64
    }

    /// Achieved throughput, GOPS (one operation per MAC, the paper's
    /// Table IV convention). Zero where the model has no cycle/MAC
    /// notion.
    pub fn gops(&self) -> f64 {
        if self.latency_s > 0.0 {
            self.per_layer.iter().map(|l| l.macs).sum::<u64>() as f64 / self.latency_s / 1e9
        } else {
            0.0
        }
    }
}

/// A CNN accelerator cost model.
///
/// The trait is object-safe: the serving fleet holds `Arc<dyn
/// Accelerator>` and the comparison harnesses iterate over `Box<dyn
/// Accelerator>`.
///
/// # Degradation
///
/// Every accelerator exposes a count of interchangeable *compute groups*
/// — PLCGs for Albireo, OO MAC units for PIXEL, engines for DEAP-CNN —
/// and costs an inference for any active subset via
/// [`cost_with_groups`](Accelerator::cost_with_groups). The serving
/// simulator retires groups through its fault scenarios and re-costs work
/// from the surviving fraction, so degradation follows each design's own
/// scaling law rather than an ad-hoc slowdown factor.
pub trait Accelerator: Send + Sync {
    /// Short machine-friendly name (used in fleet labels and CSV rows).
    fn name(&self) -> &str;

    /// Human-facing description for comparison tables (defaults to
    /// [`name`](Accelerator::name)).
    fn description(&self) -> String {
        self.name().to_string()
    }

    /// Number of interchangeable compute groups the design is built from.
    fn compute_groups(&self) -> usize;

    /// Whether this accelerator can run `model` at all. Analytic models
    /// accept everything; reported-number models accept only the networks
    /// their papers measured.
    fn supports(&self, model: &Model) -> bool {
        let _ = model;
        true
    }

    /// Cost of one inference with `active_groups` of the design's compute
    /// groups healthy.
    ///
    /// # Panics
    ///
    /// Panics if `active_groups` is zero or exceeds
    /// [`compute_groups`](Accelerator::compute_groups), or if the model is
    /// not [`supports`](Accelerator::supports)ed.
    fn cost_with_groups(&self, model: &Model, active_groups: usize) -> NetworkCost;

    /// Cost of one inference on the healthy design.
    fn cost(&self, model: &Model) -> NetworkCost {
        self.cost_with_groups(model, self.compute_groups())
    }

    /// Power the chip draws while provisioned but not serving, W.
    ///
    /// Photonic accelerators cannot power-gate to zero: the laser must
    /// stay locked and the microring resonators thermally tuned to their
    /// resonances, or the chip pays a (multi-ms) re-lock penalty that
    /// would dwarf any serving-scale warm-up. Electronic designs clock-
    /// and power-gate aggressively, so the default is 0 W. The serving
    /// simulator charges this for every provisioned-but-idle second when
    /// an autoscaling policy enables idle accounting.
    fn idle_power_w(&self) -> f64 {
        0.0
    }
}

/// The Albireo chip as an [`Accelerator`]: a [`ChipConfig`] under a
/// [`TechnologyEstimate`], costed through the validated
/// [`NetworkEvaluation`] dataflow/power models.
///
/// The serving-specific setup term models Albireo's depth-first dataflow
/// reprogramming every weight DAC once per inference: consecutive
/// same-network inferences in a micro-batch share one weight-programming
/// pass of `total_params / (dacs × clock)` seconds at chip power.
#[derive(Debug, Clone, PartialEq)]
pub struct AlbireoAccelerator {
    /// Display name (e.g. `albireo_9`).
    pub name: String,
    /// Chip geometry.
    pub chip: ChipConfig,
    /// Device-technology estimate (sets clock and power).
    pub estimate: TechnologyEstimate,
}

impl AlbireoAccelerator {
    /// An Albireo chip with an explicit name.
    pub fn new(name: impl Into<String>, chip: ChipConfig, estimate: TechnologyEstimate) -> Self {
        AlbireoAccelerator {
            name: name.into(),
            chip,
            estimate,
        }
    }

    /// The paper's 9-PLCG chip under an estimate.
    pub fn albireo_9(estimate: TechnologyEstimate) -> Self {
        Self::new("albireo_9", ChipConfig::albireo_9(), estimate)
    }

    /// The paper's 27-PLCG chip under an estimate.
    pub fn albireo_27(estimate: TechnologyEstimate) -> Self {
        Self::new("albireo_27", ChipConfig::albireo_27(), estimate)
    }
}

impl Accelerator for AlbireoAccelerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> String {
        format!("Albireo-{} ({} est.)", self.chip.ng, self.estimate.suffix())
    }

    fn compute_groups(&self) -> usize {
        self.chip.ng
    }

    /// The always-on photonic floor: laser plus MRR thermal tuning from
    /// the Table III breakdown. These stay powered while the chip idles
    /// (losing thermal lock costs far more than it saves at serving
    /// timescales); DACs, ADCs, TIAs, and modulators gate off with the
    /// datapath.
    fn idle_power_w(&self) -> f64 {
        let b = crate::power::PowerBreakdown::for_chip(&self.chip, self.estimate);
        b.laser_w + b.mrr_w
    }

    fn cost_with_groups(&self, model: &Model, active_groups: usize) -> NetworkCost {
        assert!(
            active_groups > 0 && active_groups <= self.chip.ng,
            "{}: active groups {active_groups} outside 1..={}",
            self.name,
            self.chip.ng
        );
        let mut chip = self.chip;
        chip.ng = active_groups;
        // Serial: a handful of layers never repays waking the thread pool,
        // and the evaluation is identical at any thread count.
        let eval =
            NetworkEvaluation::evaluate_with(&chip, self.estimate, model, Parallelism::serial());
        let inv = DeviceInventory::for_chip(&chip);
        let clock = self.estimate.clock_hz();
        let setup_s = model.total_params() as f64 / (inv.dacs as f64 * clock);
        NetworkCost {
            accelerator: self.name.clone(),
            network: eval.network,
            cycles: eval.per_layer.iter().map(|l| l.cycles).sum(),
            latency_s: eval.latency_s,
            energy_j: eval.energy_j,
            power_w: eval.power_w,
            wavelengths: chip.wavelengths_per_plcg(),
            setup_s,
            setup_energy_j: eval.power_w * setup_s,
            per_layer: eval.per_layer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_nn::zoo;

    #[test]
    fn albireo_cost_matches_network_evaluation_bit_for_bit() {
        let accel = AlbireoAccelerator::albireo_9(TechnologyEstimate::Conservative);
        for model in zoo::all_benchmarks() {
            let cost = accel.cost(&model);
            let eval = NetworkEvaluation::evaluate(
                &ChipConfig::albireo_9(),
                TechnologyEstimate::Conservative,
                &model,
            );
            assert_eq!(cost.latency_s.to_bits(), eval.latency_s.to_bits());
            assert_eq!(cost.energy_j.to_bits(), eval.energy_j.to_bits());
            assert_eq!(cost.power_w.to_bits(), eval.power_w.to_bits());
            assert_eq!(cost.per_layer, eval.per_layer);
            assert_eq!(cost.edp_mj_ms().to_bits(), eval.edp_mj_ms().to_bits());
        }
    }

    #[test]
    fn setup_term_matches_the_serving_model() {
        let accel = AlbireoAccelerator::albireo_9(TechnologyEstimate::Conservative);
        let model = zoo::alexnet();
        let cost = accel.cost(&model);
        let inv = DeviceInventory::for_chip(&ChipConfig::albireo_9());
        let clock = TechnologyEstimate::Conservative.clock_hz();
        let expected = model.total_params() as f64 / (inv.dacs as f64 * clock);
        assert_eq!(cost.setup_s.to_bits(), expected.to_bits());
        assert_eq!(
            cost.setup_energy_j.to_bits(),
            (cost.power_w * expected).to_bits()
        );
        // §Serving: AlexNet's setup is a material fraction of its latency.
        assert!(cost.setup_s / cost.latency_s > 0.1);
    }

    #[test]
    fn degraded_chip_costs_more() {
        let accel = AlbireoAccelerator::albireo_9(TechnologyEstimate::Conservative);
        let model = zoo::vgg16();
        let healthy = accel.cost(&model);
        let degraded = accel.cost_with_groups(&model, 5);
        assert!(degraded.latency_s > healthy.latency_s);
        assert_eq!(healthy.accelerator, "albireo_9");
    }

    #[test]
    fn trait_objects_are_usable() {
        let accels: Vec<Box<dyn Accelerator>> = vec![
            Box::new(AlbireoAccelerator::albireo_9(
                TechnologyEstimate::Conservative,
            )),
            Box::new(AlbireoAccelerator::albireo_27(
                TechnologyEstimate::Aggressive,
            )),
        ];
        let model = zoo::mobilenet();
        for a in &accels {
            assert!(a.supports(&model));
            let c = a.cost(&model);
            assert!(c.latency_s > 0.0 && c.energy_j > 0.0);
            assert_eq!(c.network, "MobileNet");
            assert!(c.gops() > 0.0);
        }
        assert!(accels[1].cost(&model).latency_s < accels[0].cost(&model).latency_s);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn zero_groups_rejected() {
        let accel = AlbireoAccelerator::albireo_9(TechnologyEstimate::Conservative);
        let _ = accel.cost_with_groups(&zoo::tiny(), 0);
    }

    #[test]
    fn idle_power_is_the_laser_plus_mrr_floor() {
        let accel = AlbireoAccelerator::albireo_9(TechnologyEstimate::Conservative);
        let b = crate::power::PowerBreakdown::for_chip(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
        );
        assert_eq!(accel.idle_power_w(), b.laser_w + b.mrr_w);
        // Table III: laser 2.36 W + MRR 7.52 W ≈ 9.9 W of 22.7 W total —
        // idle is material but well below running power.
        assert!(accel.idle_power_w() > 5.0);
        let running = accel.cost(&zoo::alexnet()).power_w;
        assert!(accel.idle_power_w() < running);
    }

    #[test]
    fn wdm_metric_uses_the_chip_wavelength_count() {
        let accel = AlbireoAccelerator::albireo_27(TechnologyEstimate::Conservative);
        let c = accel.cost(&zoo::alexnet());
        assert_eq!(
            c.wavelengths,
            ChipConfig::albireo_27().wavelengths_per_plcg()
        );
        let expected = c.energy_j / c.wavelengths as f64;
        assert!((c.energy_per_wavelength() - expected).abs() < 1e-18);
    }
}
