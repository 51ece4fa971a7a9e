//! Latency, energy, EDP, and throughput metrics (paper Table IV / Fig. 8).
//!
//! Energy is computed as the paper does: the chip's device power total
//! (Table III) integrated over the inference latency, with the memory
//! subsystem's static power included in that total. Per-layer access
//! energies are also surfaced for finer studies.

use crate::area::AreaBreakdown;
use crate::config::{ChipConfig, TechnologyEstimate};
use crate::memory::MemoryModel;
use crate::power::PowerBreakdown;
use crate::sched::{schedule_model_with, LayerSchedule};
use albireo_nn::stats::workload_stats;
use albireo_nn::Model;
use albireo_parallel::Parallelism;

/// Per-layer evaluation result — the canonical
/// [`LayerCost`](crate::accel::LayerCost) under its historical name.
pub type LayerEvaluation = crate::accel::LayerCost;

/// Whole-network evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkEvaluation {
    /// Network name.
    pub network: String,
    /// Estimate used.
    pub estimate: TechnologyEstimate,
    /// Total inference latency, s.
    pub latency_s: f64,
    /// Total inference energy, J.
    pub energy_j: f64,
    /// Chip power while running, W.
    pub power_w: f64,
    /// Total MACs.
    pub total_macs: u64,
    /// Total operations (2 per MAC).
    pub total_ops: u64,
    /// Chip area, mm².
    pub area_mm2: f64,
    /// Active area (excl. passive distribution), mm².
    pub active_area_mm2: f64,
    /// Dynamic SRAM energy for the network's data movement, J. The paper's
    /// Table III folds memory into a static power term; this field exposes
    /// the per-access model separately (it is ~0.1% of device energy,
    /// confirming the paper's treatment).
    pub memory_dynamic_energy_j: f64,
    /// Per-layer results.
    pub per_layer: Vec<LayerEvaluation>,
}

impl NetworkEvaluation {
    /// Evaluates a network on a chip under an estimate.
    pub fn evaluate(chip: &ChipConfig, estimate: TechnologyEstimate, model: &Model) -> Self {
        Self::evaluate_with(chip, estimate, model, Parallelism::default())
    }

    /// [`evaluate`](NetworkEvaluation::evaluate) under an explicit
    /// [`Parallelism`] policy (applied to the per-layer scheduling). The
    /// evaluation is pure arithmetic, so the result is identical at any
    /// thread count.
    pub fn evaluate_with(
        chip: &ChipConfig,
        estimate: TechnologyEstimate,
        model: &Model,
        par: Parallelism,
    ) -> Self {
        let clock = estimate.clock_hz();
        let power = PowerBreakdown::for_chip(chip, estimate).total_w();
        let area = AreaBreakdown::for_chip(chip);
        let schedules: Vec<LayerSchedule> = schedule_model_with(chip, model, par);
        let per_layer: Vec<LayerEvaluation> = schedules
            .into_iter()
            .map(|s| {
                let latency = s.cycles as f64 / clock;
                LayerEvaluation {
                    name: s.name,
                    cycles: s.cycles,
                    latency_s: latency,
                    energy_j: power * latency,
                    macs: s.macs,
                    utilization: s.utilization,
                }
            })
            .collect();
        let latency_s: f64 = per_layer.iter().map(|l| l.latency_s).sum();
        let mem = MemoryModel::paper();
        let stats = workload_stats(model, chip.nu);
        NetworkEvaluation {
            network: model.name().to_string(),
            estimate,
            latency_s,
            energy_j: power * latency_s,
            power_w: power,
            total_macs: model.total_macs(),
            total_ops: model.total_ops(),
            area_mm2: area.total_mm2(),
            active_area_mm2: area.active_mm2(),
            memory_dynamic_energy_j: mem.buffer_access_energy_j(stats.traffic_bytes),
            per_layer,
        }
    }

    /// [`evaluate_with`](NetworkEvaluation::evaluate_with), recording the
    /// run into `obs`: one span per layer on the engine track (virtual
    /// timestamps from the cumulative-latency clock, so traces are
    /// byte-reproducible at any thread count) plus per-device energy
    /// counters for the signal-chain stages the paper prices separately
    /// (DAC, ADC, laser). Energy counters are integer nanojoules so
    /// parallel accumulation stays exact.
    ///
    /// When `obs` is disabled this costs one branch over
    /// `evaluate_with`; the returned evaluation is identical either way.
    pub fn evaluate_observed(
        chip: &ChipConfig,
        estimate: TechnologyEstimate,
        model: &Model,
        par: Parallelism,
        obs: &albireo_obs::Obs,
    ) -> Self {
        let eval = Self::evaluate_with(chip, estimate, model, par);
        if !obs.is_enabled() {
            return eval;
        }
        let power = PowerBreakdown::for_chip(chip, estimate);
        let total_w = power.total_w();
        let mut clock_s = 0.0f64;
        for (idx, layer) in eval.per_layer.iter().enumerate() {
            let end = clock_s + layer.latency_s;
            albireo_obs::span!(
                obs,
                track = albireo_obs::track::ENGINE,
                begin = clock_s,
                end = end,
                "layer",
                idx = idx,
                cycles = layer.cycles,
                macs = layer.macs,
            );
            clock_s = end;
        }
        obs.counter("engine.layers")
            .add(eval.per_layer.len() as u64);
        obs.counter("engine.cycles")
            .add(eval.per_layer.iter().map(|l| l.cycles).sum());
        obs.counter("engine.macs").add(eval.total_macs);
        for (label, watts, _) in power.rows() {
            let key = match label {
                "DAC" => "engine.energy.dac_nj",
                "ADC" => "engine.energy.adc_nj",
                "Laser" => "engine.energy.laser_nj",
                _ => continue,
            };
            obs.counter(key)
                .add((watts * eval.latency_s * 1e9).round() as u64);
        }
        obs.counter("engine.energy.total_nj")
            .add((total_w * eval.latency_s * 1e9).round() as u64);
        eval
    }

    /// Total inference energy including the dynamic SRAM traffic, J.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j + self.memory_dynamic_energy_j
    }

    /// Energy-delay product in the paper's units, mJ·ms.
    pub fn edp_mj_ms(&self) -> f64 {
        (self.energy_j * 1e3) * (self.latency_s * 1e3)
    }

    /// Achieved throughput, GOPS. The paper's GOPS figures count one
    /// operation per MAC (Table IV is internally consistent only under
    /// that convention), so this does too; `total_ops` (2 per MAC) is
    /// still available for cross-paper comparisons.
    pub fn gops(&self) -> f64 {
        self.total_macs as f64 / self.latency_s / 1e9
    }

    /// Area efficiency over the full chip, GOPS/mm².
    pub fn gops_per_mm2(&self) -> f64 {
        self.gops() / self.area_mm2
    }

    /// Area efficiency over the active area only, GOPS/mm².
    pub fn gops_per_mm2_active(&self) -> f64 {
        self.gops() / self.active_area_mm2
    }

    /// Energy-area efficiency, GOPS/W/mm² (full chip).
    pub fn gops_per_w_per_mm2(&self) -> f64 {
        self.gops() / self.power_w / self.area_mm2
    }

    /// Energy-area efficiency over active area, GOPS/W/mm².
    pub fn gops_per_w_per_mm2_active(&self) -> f64 {
        self.gops() / self.power_w / self.active_area_mm2
    }

    /// Mean datapath utilization across compute cycles.
    pub fn mean_utilization(&self) -> f64 {
        let cycles: u64 = self.per_layer.iter().map(|l| l.cycles).sum();
        if cycles == 0 {
            return 0.0;
        }
        self.per_layer
            .iter()
            .map(|l| l.utilization * l.cycles as f64)
            .sum::<f64>()
            / cycles as f64
    }

    /// Inference throughput, inferences per second (the architecture has
    /// no batching: one inference occupies the whole chip).
    pub fn inferences_per_second(&self) -> f64 {
        1.0 / self.latency_s
    }

    /// Energy efficiency, inferences per joule.
    pub fn inferences_per_joule(&self) -> f64 {
        1.0 / self.energy_j
    }

    /// Energy per wavelength used — the paper's WDM-efficiency metric
    /// (§IV-B), J per wavelength.
    pub fn energy_per_wavelength(&self, wavelengths: usize) -> f64 {
        assert!(wavelengths > 0, "need at least one wavelength");
        self.energy_j / wavelengths as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albireo_nn::zoo;

    fn eval(estimate: TechnologyEstimate, model: &Model) -> NetworkEvaluation {
        NetworkEvaluation::evaluate(&ChipConfig::albireo_9(), estimate, model)
    }

    #[test]
    fn vgg16_conservative_anchor() {
        // Paper Table IV: 2.55 ms, 58.1 mJ, 148.2 mJ·ms.
        let e = eval(TechnologyEstimate::Conservative, &zoo::vgg16());
        let ms = e.latency_s * 1e3;
        let mj = e.energy_j * 1e3;
        assert!((2.0..3.5).contains(&ms), "latency = {ms} ms");
        assert!((45.0..80.0).contains(&mj), "energy = {mj} mJ");
        assert!(
            (90.0..280.0).contains(&e.edp_mj_ms()),
            "edp = {}",
            e.edp_mj_ms()
        );
    }

    #[test]
    fn latency_is_scheduler_cycles_over_clock() {
        // No hidden terms between the scheduler's cycle count and the
        // reported latency, for every network under every clock.
        let chip = ChipConfig::albireo_9();
        for model in zoo::all_benchmarks() {
            let cycles = crate::sched::total_cycles(&chip, &model);
            for estimate in TechnologyEstimate::all() {
                let exact = cycles as f64 / estimate.clock_hz();
                let latency = eval(estimate, &model).latency_s;
                assert!(
                    (latency - exact).abs() / exact < 1e-9,
                    "{}/{}: latency {latency} vs {exact}",
                    model.name(),
                    estimate.suffix()
                );
            }
        }
    }

    #[test]
    fn moderate_same_latency_lower_energy() {
        // Albireo-M runs at the same 5 GHz clock: latency equal, energy
        // scaled by the power ratio (22.7 → 6.19 W).
        let c = eval(TechnologyEstimate::Conservative, &zoo::vgg16());
        let m = eval(TechnologyEstimate::Moderate, &zoo::vgg16());
        assert!((c.latency_s - m.latency_s).abs() < 1e-12);
        let ratio = c.energy_j / m.energy_j;
        assert!((3.5..3.9).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn aggressive_is_faster_and_cheaper() {
        let c = eval(TechnologyEstimate::Conservative, &zoo::alexnet());
        let a = eval(TechnologyEstimate::Aggressive, &zoo::alexnet());
        // 8 GHz vs 5 GHz clock.
        assert!((c.latency_s / a.latency_s - 1.6).abs() < 1e-9);
        // Paper: AlexNet EDP improves 0.37 → 0.010 mJ·ms (~37×).
        let edp_ratio = c.edp_mj_ms() / a.edp_mj_ms();
        assert!((20.0..50.0).contains(&edp_ratio), "edp ratio = {edp_ratio}");
    }

    #[test]
    fn gops_in_table_iv_range() {
        // Paper: VGG16 Albireo-C = 48.8 GOPS/mm² total, 431 active.
        let e = eval(TechnologyEstimate::Conservative, &zoo::vgg16());
        let g = e.gops_per_mm2();
        assert!((30.0..70.0).contains(&g), "gops/mm² = {g}");
        let ga = e.gops_per_mm2_active();
        assert!((250.0..600.0).contains(&ga), "active gops/mm² = {ga}");
        // Active/total ratio ≈ 8.8×.
        let ratio = ga / g;
        assert!((8.0..10.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn gops_per_w_matches_paper_order() {
        // Paper: VGG16 Albireo-C 2.14 GOPS/W/mm²; Albireo-A 48.6.
        let c = eval(TechnologyEstimate::Conservative, &zoo::vgg16());
        let a = eval(TechnologyEstimate::Aggressive, &zoo::vgg16());
        assert!(
            (1.0..4.0).contains(&c.gops_per_w_per_mm2()),
            "{}",
            c.gops_per_w_per_mm2()
        );
        assert!(a.gops_per_w_per_mm2() > 10.0 * c.gops_per_w_per_mm2());
    }

    #[test]
    fn per_layer_sums_match_totals() {
        let e = eval(TechnologyEstimate::Conservative, &zoo::resnet18());
        let lat: f64 = e.per_layer.iter().map(|l| l.latency_s).sum();
        let energy: f64 = e.per_layer.iter().map(|l| l.energy_j).sum();
        assert!((lat - e.latency_s).abs() < 1e-12);
        assert!((energy - e.energy_j).abs() < 1e-9);
    }

    #[test]
    fn utilization_below_one() {
        for model in zoo::all_benchmarks() {
            let e = eval(TechnologyEstimate::Conservative, &model);
            let u = e.mean_utilization();
            assert!((0.0..=1.0).contains(&u), "{}: {u}", model.name());
        }
    }

    #[test]
    fn throughput_metrics_are_reciprocal() {
        let e = eval(TechnologyEstimate::Conservative, &zoo::alexnet());
        assert!((e.inferences_per_second() * e.latency_s - 1.0).abs() < 1e-12);
        assert!((e.inferences_per_joule() * e.energy_j - 1.0).abs() < 1e-12);
        // AlexNet at 0.2 ms ⇒ ~5k inferences/s.
        assert!((3000.0..10000.0).contains(&e.inferences_per_second()));
    }

    #[test]
    fn memory_energy_is_negligible_vs_device_energy() {
        // Validates the paper's choice to fold memory into static power:
        // dynamic SRAM traffic is well under 1% of device energy.
        let e = eval(TechnologyEstimate::Conservative, &zoo::vgg16());
        assert!(e.memory_dynamic_energy_j > 0.0);
        assert!(e.memory_dynamic_energy_j < 0.01 * e.energy_j);
        assert!((e.total_energy_j() - e.energy_j - e.memory_dynamic_energy_j).abs() < 1e-12);
    }

    #[test]
    fn energy_per_wavelength_metric() {
        let e = eval(TechnologyEstimate::Conservative, &zoo::alexnet());
        let w = e.energy_per_wavelength(63);
        assert!((w - e.energy_j / 63.0).abs() < 1e-18);
    }

    #[test]
    fn observed_evaluation_matches_plain_and_traces_every_layer() {
        let chip = ChipConfig::albireo_9();
        let model = zoo::alexnet();
        let obs = albireo_obs::Obs::enabled();
        let observed = NetworkEvaluation::evaluate_observed(
            &chip,
            TechnologyEstimate::Conservative,
            &model,
            Parallelism::serial(),
            &obs,
        );
        let plain = NetworkEvaluation::evaluate(&chip, TechnologyEstimate::Conservative, &model);
        assert_eq!(observed, plain, "instrumentation must not change results");
        let events = obs.drain_events();
        // One Begin + one End per layer, non-decreasing virtual time.
        assert_eq!(events.len(), 2 * plain.per_layer.len());
        assert!(events.windows(2).all(|w| w[0].ts_s <= w[1].ts_s));
        // Device energy counters land in the right order of magnitude:
        // counters are nJ, evaluation energies are J.
        let snap = obs.snapshot();
        let total_nj = snap
            .counters
            .iter()
            .find(|(name, _)| name == "engine.energy.total_nj")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((total_nj as f64 / 1e9 - plain.energy_j).abs() < 1e-6 * plain.energy_j.max(1e-9));
        for key in [
            "engine.energy.dac_nj",
            "engine.energy.adc_nj",
            "engine.energy.laser_nj",
        ] {
            let v = snap
                .counters
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, v)| *v)
                .unwrap();
            assert!(v > 0, "{key} should be nonzero");
            assert!(v < total_nj, "{key} is a component of the total");
        }
    }

    #[test]
    fn observed_evaluation_with_disabled_obs_records_nothing() {
        let obs = albireo_obs::Obs::disabled();
        NetworkEvaluation::evaluate_observed(
            &ChipConfig::albireo_9(),
            TechnologyEstimate::Conservative,
            &zoo::alexnet(),
            Parallelism::serial(),
            &obs,
        );
        assert!(obs.drain_events().is_empty());
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn mobilenet_is_fastest_network() {
        // MobileNet has the fewest MACs; it should finish fastest.
        let evals: Vec<NetworkEvaluation> = zoo::all_benchmarks()
            .iter()
            .map(|m| eval(TechnologyEstimate::Conservative, m))
            .collect();
        let mobilenet = evals.iter().find(|e| e.network == "MobileNet").unwrap();
        let vgg = evals.iter().find(|e| e.network == "VGG16").unwrap();
        assert!(mobilenet.latency_s < vgg.latency_s / 5.0);
    }
}
