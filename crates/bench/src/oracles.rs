//! The numbers the paper itself reports, as one checklist. [`ORACLES`]
//! is the table `albireo validate-oracles` prints (via [`checklist`])
//! and the tier-1 test `every_oracle_holds` asserts, so both check the
//! same anchors with the same bounds.

use albireo_baselines::{reported_accelerators, Accelerator, DeapCnn, Pixel};
use albireo_core::area::AreaBreakdown;
use albireo_core::config::ChipConfig;
use albireo_core::config::TechnologyEstimate::{self, Aggressive, Conservative, Moderate};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::inventory::DeviceInventory;
use albireo_core::power::PowerBreakdown;
use albireo_nn::{zoo, Model};
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::OpticalParams;

/// How an oracle judges the reproduction.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// The measured value must lie within `below` under and `above` over
    /// the paper's value; a tolerance scale multiplies both deviations.
    Near {
        /// The paper's value.
        paper: f64,
        /// Allowed shortfall.
        below: f64,
        /// Allowed excess.
        above: f64,
        /// Unit suffix printed after both values.
        unit: &'static str,
        /// The reproduction's value.
        measure: fn() -> f64,
    },
    /// A claim that holds or not, with nothing to scale.
    Claim(fn() -> bool),
}

impl Check {
    /// Runs the check with both deviations scaled by `tol_scale`:
    /// whether it passed, a printable paper-vs-measured line, and for
    /// [`Check::Near`] rows the relative error.
    pub fn run(&self, tol_scale: f64) -> (bool, String, Option<f64>) {
        match *self {
            Check::Near {
                paper,
                below,
                above,
                unit,
                measure,
            } => {
                let m = measure();
                let (lo, hi) = (paper - below * tol_scale, paper + above * tol_scale);
                let detail = format!(
                    "paper {paper}{unit}, measured {m:.4}{unit}, accepts {lo:.4}..={hi:.4}"
                );
                let rel_error = (m - paper).abs() / paper.abs();
                ((lo..=hi).contains(&m), detail, Some(rel_error))
            }
            Check::Claim(holds) => {
                let passed = holds();
                (
                    passed,
                    if passed { "holds" } else { "violated" }.into(),
                    None,
                )
            }
        }
    }
}

/// A paper anchor: its name and how it is checked.
pub type Oracle = (&'static str, Check);

/// Within `tol × paper` of `paper`.
const fn rel(paper: f64, tol: f64, unit: &'static str, measure: fn() -> f64) -> Check {
    abs(paper, tol * paper, unit, measure)
}

/// Within `tol` of `paper`.
const fn abs(paper: f64, tol: f64, unit: &'static str, measure: fn() -> f64) -> Check {
    Check::Near {
        paper,
        below: tol,
        above: tol,
        unit,
        measure,
    }
}

/// Inside `[lo, hi]`, around the paper's `paper`.
const fn range(paper: f64, lo: f64, hi: f64, unit: &'static str, measure: fn() -> f64) -> Check {
    let (below, above) = (paper - lo, hi - paper);
    Check::Near {
        paper,
        below,
        above,
        unit,
        measure,
    }
}

fn ring() -> Microring {
    Microring::from_params(&OpticalParams::paper())
}

fn crosstalk_levels() -> f64 {
    PrecisionModel::paper().crosstalk_limited_levels(&ring(), 20)
}

/// §IV-B: one MZM multiplies one input at 5 GHz in its footprint.
fn mzm_gops_per_mm2() -> f64 {
    5e9 / 1e9 / (OpticalParams::paper().mzm.area_m2 * 1e6)
}

fn inventory() -> DeviceInventory {
    DeviceInventory::for_chip(&ChipConfig::albireo_9())
}

fn albireo_9_w(estimate: TechnologyEstimate) -> f64 {
    PowerBreakdown::for_chip(&ChipConfig::albireo_9(), estimate).total_w()
}

fn albireo_27_w() -> f64 {
    PowerBreakdown::for_chip(&ChipConfig::albireo_27(), Conservative).total_w()
}

/// A component's share of the Albireo-9 area.
fn area_share(part: fn(&AreaBreakdown) -> f64) -> f64 {
    let area = area();
    part(&area) / area.total_m2()
}

fn area() -> AreaBreakdown {
    AreaBreakdown::for_chip(&ChipConfig::albireo_9())
}

fn albireo_9(estimate: TechnologyEstimate, model: &Model) -> NetworkEvaluation {
    NetworkEvaluation::evaluate(&ChipConfig::albireo_9(), estimate, model)
}

fn vgg16_c() -> NetworkEvaluation {
    albireo_9(Conservative, &zoo::vgg16())
}

fn alexnet_c() -> NetworkEvaluation {
    albireo_9(Conservative, &zoo::alexnet())
}

/// Mean over Table IV's (network, electronic design) pairs of
/// `gain(electronic, Albireo-C)`, each given as (latency s, EDP mJ·ms).
fn mean_gain(gain: fn((f64, f64), (f64, f64)) -> f64) -> f64 {
    let mut gains = Vec::new();
    for model in [zoo::alexnet(), zoo::vgg16()] {
        let c = albireo_9(Conservative, &model);
        for acc in reported_accelerators() {
            let r = acc.results[model.name()];
            gains.push(gain(
                (r.latency_s, r.edp_mj_ms()),
                (c.latency_s, c.edp_mj_ms()),
            ));
        }
    }
    gains.iter().sum::<f64>() / gains.len() as f64
}

/// Whether every Albireo-9 estimate beats every reported electronic
/// latency on both Table IV networks.
fn beats_every_electronic_latency() -> bool {
    [zoo::alexnet(), zoo::vgg16()].iter().all(|model| {
        TechnologyEstimate::all().into_iter().all(|estimate| {
            let latency_s = albireo_9(estimate, model).latency_s;
            reported_accelerators()
                .iter()
                .all(|acc| latency_s < acc.results[model.name()].latency_s)
        })
    })
}

/// Fig. 8's ordering PIXEL > DEAP-CNN > Albireo-27 on every benchmark
/// network, under `metric(latency, energy)`.
fn fig8_orders(metric: fn(f64, f64) -> f64) -> bool {
    let (pixel, deap) = (Pixel::paper_60w(), DeapCnn::paper_60w());
    let a27 = ChipConfig::albireo_27();
    zoo::all_benchmarks().iter().all(|model| {
        let (p, d) = (pixel.cost(model), deap.cost(model));
        let a = NetworkEvaluation::evaluate(&a27, Conservative, model);
        metric(p.latency_s, p.energy_j) > metric(d.latency_s, d.energy_j)
            && metric(d.latency_s, d.energy_j) > metric(a.latency_s, a.energy_j)
    })
}

/// Every paper anchor the reproduction is held to, one per row.
#[rustfmt::skip]
pub const ORACLES: &[Oracle] = &[
    ("Table II FSR", abs(16.1, 0.4, " nm", || ring().fsr() * 1e9)),
    ("Fig. 3: bits @ 2 mW / 20 λ",
        rel(10.0, 0.10, " bits", || PrecisionModel::paper().noise_limited_bits(20, 2e-3))),
    ("§II-C2: crosstalk bits @ k²=0.03 / 20 λ",
        range(6.0, 5.5, 6.6, " bits", || crosstalk_levels().log2())),
    ("§II-C2: bits with negative rail", range(7.0, 6.5, 7.6, " bits", || {
        PrecisionModel::with_negative_rail(crosstalk_levels()).log2()
    })),
    ("§IV-B: MZM area efficiency", rel(333.0, 0.01, " GOPS/mm²", mzm_gops_per_mm2)),
    ("§IV-B: MZM vs 7.3 GOPS/mm² electronic multiplier",
        abs(46.0, 1.0, "x", || mzm_gops_per_mm2() / 7.3)),
    ("§V: DAC count", abs(306.0, 0.0, "", || inventory().dacs as f64)),
    ("§V: TIA count", abs(45.0, 0.0, "", || inventory().tias as f64)),
    ("§V: DEAP-CNN's 2034 DACs over Albireo's",
        abs(6.6, 0.1, "x", || 2034.0 / inventory().dacs as f64)),
    ("Table III total, Albireo-C", rel(22.7, 0.02, " W", || albireo_9_w(Conservative))),
    ("Table III total, Albireo-M", rel(6.19, 0.02, " W", || albireo_9_w(Moderate))),
    ("Table III total, Albireo-A", rel(1.64, 0.02, " W", || albireo_9_w(Aggressive))),
    ("§IV-B: Albireo-27 power", abs(58.8, 0.6, " W", albireo_27_w)),
    ("§IV-B: every Fig. 8 design within 60 W", Check::Claim(|| {
        let baselines = [Pixel::paper_60w().power_w, DeapCnn::paper_60w().power_w];
        baselines.into_iter().chain([albireo_27_w()]).all(|w| w <= 60.0)
    })),
    ("Fig. 9 total area", rel(124.6, 0.01, " mm²", || area().total_mm2())),
    ("Fig. 9 AWG share", abs(0.72, 0.02, "", || area_share(|a| a.awg_m2))),
    ("Fig. 9 star coupler share", rel(0.17, 0.03, "", || area_share(|a| a.star_coupler_m2))),
    ("Fig. 9 MZM share", abs(0.037, 0.003, "", || area_share(|a| a.mzm_m2))),
    ("Table IV VGG16 latency (C)", rel(2.55, 0.35, " ms", || vgg16_c().latency_s * 1e3)),
    ("Table IV VGG16 energy (C)", rel(58.1, 0.35, " mJ", || vgg16_c().energy_j * 1e3)),
    ("Table IV AlexNet latency (C)", rel(0.13, 1.0, " ms", || alexnet_c().latency_s * 1e3)),
    ("Table IV VGG16 / AlexNet latency (C)",
        range(19.6, 10.0, 25.0, "x", || vgg16_c().latency_s / alexnet_c().latency_s)),
    ("Table IV: every Albireo estimate beats every electronic latency",
        Check::Claim(beats_every_electronic_latency)),
    ("Abstract: mean latency gain of Albireo-C vs electronic",
        range(110.0, 40.0, 400.0, "x", || mean_gain(|r, c| r.0 / c.0))),
    ("Abstract: mean EDP gain of Albireo-C vs electronic",
        range(74.2, 30.0, f64::INFINITY, "x", || mean_gain(|r, c| r.1 / c.1))),
    ("Fig. 8 latency ordering (PIXEL > DEAP-CNN > Albireo-27)",
        Check::Claim(|| fig8_orders(|latency, _| latency))),
    ("Fig. 8 EDP ordering (PIXEL > DEAP-CNN > Albireo-27)",
        Check::Claim(|| fig8_orders(|latency, energy| latency * energy))),
];

/// Oracle names become metric names: lowercase, non-alphanumerics
/// collapsed to single underscores.
fn metric_slug(name: &str) -> String {
    let words = name.split(|c: char| !c.is_ascii_alphanumeric());
    let words: Vec<&str> = words.filter(|w| !w.is_empty()).collect();
    words.join("_").to_ascii_lowercase()
}

/// Runs every oracle with both deviations scaled by `tol_scale` and
/// renders the PASS/FAIL checklist, a metrics snapshot holding each
/// relative error as a gauge (so tolerance drift shows long before a
/// check flips to FAIL) and the tally. Returns it with the number of
/// failed rows.
pub fn checklist(tol_scale: f64) -> (String, u64) {
    let metrics = albireo_obs::metrics::Registry::new();
    let mut out = String::new();
    let mut failed = 0u64;
    for (name, check) in ORACLES {
        let (passed, detail, rel_error) = check.run(tol_scale);
        if let Some(rel_error) = rel_error {
            metrics
                .gauge(&format!("oracle.{}.rel_error", metric_slug(name)))
                .set(rel_error);
        }
        failed += u64::from(!passed);
        let verdict = if passed { "PASS" } else { "FAIL" };
        out.push_str(&format!("[{verdict}] {name}: {detail}\n"));
    }
    let passed = ORACLES.len() as u64 - failed;
    metrics.counter("oracle.checks.passed").add(passed);
    metrics.counter("oracle.checks.failed").add(failed);
    out.push_str(&format!(
        "\nmetrics snapshot ({}):\n{}\n",
        albireo_obs::SCHEMA,
        metrics.snapshot().to_json()
    ));
    out.push_str(&format!("\n{passed} passed, {failed} failed\n"));
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_oracle_holds() {
        let failed: Vec<String> = ORACLES
            .iter()
            .filter_map(|(name, check)| match check.run(1.0) {
                (true, ..) => None,
                (false, detail, _) => Some(format!("{name}: {detail}")),
            })
            .collect();
        assert!(
            failed.is_empty(),
            "paper oracles failed:\n{}",
            failed.join("\n")
        );
    }
}
