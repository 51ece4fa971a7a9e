//! The experiments of the paper's evaluation section, one function per
//! table/figure, and the committed `results/*.csv` artifacts
//! ([`ARTIFACTS`]), one rendering function each.

use albireo_baselines::{Accelerator, DeapCnn, Pixel, ReportedResult};
use albireo_core::accel::{AlbireoAccelerator, NetworkCost};
use albireo_core::area::AreaBreakdown;
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::power::PowerBreakdown;
use albireo_core::report::{format_ratio, format_table, format_watts, to_csv};
use albireo_nn::{zoo, Model};
use albireo_obs::Obs;
use albireo_parallel::Parallelism;
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::{fig3_noise_sweep, fig4c_crosstalk_sweep, PrecisionModel};
use albireo_photonics::OpticalParams;
use albireo_plan::{plan, PlanSpec, GOLDEN_PLAN_SPEC};
use albireo_runtime::{run_full_serving_study, run_serving_study, StudyOptions};

/// Laser powers swept in Fig. 3, W.
pub const FIG3_LASER_POWERS_W: [f64; 4] = [0.5e-3, 1e-3, 2e-3, 4e-3];

/// Coupling coefficients swept in Fig. 4.
pub const FIG4_K2_VALUES: [f64; 4] = [0.02, 0.03, 0.05, 0.10];

/// The Fig. 4 rings, one per swept k².
fn fig4_rings() -> Vec<Microring> {
    let params = OpticalParams::paper();
    FIG4_K2_VALUES
        .iter()
        .map(|&k2| Microring::with_k2(&params, k2))
        .collect()
}

/// Fig. 3 — noise-limited precision vs. wavelength count per laser power.
pub fn fig3_noise_precision() -> String {
    let sweeps = fig3_noise_sweep(&PrecisionModel::paper(), &FIG3_LASER_POWERS_W, 64);
    let series: Vec<_> = sweeps.iter().map(|s| s.series.as_slice()).collect();
    let rows = bits_rows(&series, &[1, 2, 4, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64]);
    let mut out = String::from(
        "Figure 3: noise-limited precision (bits) vs wavelengths, per laser power\n\
         (paper anchor: 10 bits @ 2 mW, 20 wavelengths)\n\n",
    );
    out.push_str(&format_table(
        &["wavelengths", "0.5 mW", "1 mW", "2 mW", "4 mW"],
        &rows,
    ));
    out
}

/// Table rows of precision sweeps, one per wavelength count in `counts`:
/// the count, then each `(wavelengths, bits)` series' bits there (NaN
/// where a series lacks the count).
fn bits_rows(series: &[&[(usize, f64)]], counts: &[usize]) -> Vec<Vec<String>> {
    counts
        .iter()
        .map(|&n| {
            let mut row = vec![n.to_string()];
            for s in series {
                let bits = s
                    .iter()
                    .find(|(count, _)| *count == n)
                    .map_or(f64::NAN, |p| p.1);
                row.push(format!("{bits:.2}"));
            }
            row
        })
        .collect()
}

/// Fig. 4a — MRR drop-port spectrum per k².
pub fn fig4a_spectrum() -> String {
    let rings = fig4_rings();
    let span = rings[0].fsr() / 8.0;
    let points = 33;
    let mut rows = Vec::new();
    for i in 0..points {
        let frac = i as f64 / (points - 1) as f64;
        let detuning = -span + 2.0 * span * frac;
        let mut row = vec![format!("{:+.3}", detuning * 1e9)];
        for ring in &rings {
            row.push(format!("{:.4}", ring.drop_transmission(detuning)));
        }
        rows.push(row);
    }
    let mut out =
        String::from("Figure 4a: MRR drop-port power transmission vs detuning (nm), per k²\n\n");
    out.push_str(&format_table(
        &["detuning (nm)", "k²=0.02", "k²=0.03", "k²=0.05", "k²=0.10"],
        &rows,
    ));
    out.push_str(&format!(
        "\nFSR = {:.2} nm (paper Table II: 16.1 nm)\n",
        rings[0].fsr() * 1e9
    ));
    out
}

/// Fig. 4b — MRR temporal step response per k².
pub fn fig4b_temporal() -> String {
    let rings = fig4_rings();
    let mut rows = Vec::new();
    for ps in (0..=200).step_by(10) {
        let t = ps as f64 * 1e-12;
        let mut row = vec![ps.to_string()];
        for ring in &rings {
            row.push(format!("{:.4}", ring.step_response(t)));
        }
        rows.push(row);
    }
    let mut out = String::from(
        "Figure 4b: MRR drop-port temporal step response (normalized power) vs time (ps)\n\n",
    );
    out.push_str(&format_table(
        &["time (ps)", "k²=0.02", "k²=0.03", "k²=0.05", "k²=0.10"],
        &rows,
    ));
    out.push_str("\n5 GHz modulation response (relative power):\n");
    for (k2, ring) in FIG4_K2_VALUES.iter().zip(rings.iter()) {
        out.push_str(&format!(
            "  k²={k2}: bandwidth {:.1} GHz, response at 5 GHz = {:.3}\n",
            ring.bandwidth_hz() / 1e9,
            ring.modulation_response(5e9)
        ));
    }
    out
}

/// Fig. 4c — crosstalk-limited precision vs. wavelength count per k².
pub fn fig4c_crosstalk_precision() -> String {
    let model = PrecisionModel::paper();
    let params = OpticalParams::paper();
    let sweeps = fig4c_crosstalk_sweep(&model, &params, &FIG4_K2_VALUES, 64);
    let series: Vec<_> = sweeps.iter().map(|s| s.series.as_slice()).collect();
    let rows = bits_rows(&series, &[4, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64]);
    let mut out = String::from(
        "Figure 4c: crosstalk-limited precision (bits) vs wavelengths, per k²\n\
         (paper anchors: 6 bits positive-only / 7 bits with negative rail at k²=0.03, 20 λ)\n\n",
    );
    out.push_str(&format_table(
        &["wavelengths", "k²=0.02", "k²=0.03", "k²=0.05", "k²=0.10"],
        &rows,
    ));
    let ring = Microring::from_params(&params);
    let pos = model.crosstalk_limited_levels(&ring, 20);
    let neg = PrecisionModel::with_negative_rail(pos);
    out.push_str(&format!(
        "\nk²=0.03 @ 20 λ: {:.2} bits positive-only, {:.2} bits with negative rail\n",
        pos.log2(),
        neg.log2()
    ));
    out
}

/// Table I — per-device power estimates for the three configurations.
pub fn table1_device_powers() -> String {
    type PowerField = fn(&albireo_core::config::DevicePowers) -> f64;
    let fields: [(&str, PowerField); 6] = [
        ("MRR", |p| p.mrr_w),
        ("MZM", |p| p.mzm_w),
        ("Laser", |p| p.laser_w),
        ("TIA", |p| p.tia_w),
        ("ADC", |p| p.adc_w),
        ("DAC", |p| p.dac_w),
    ];
    let rows: Vec<Vec<String>> = fields
        .into_iter()
        .map(|(name, f)| {
            let mut row = vec![name.to_string()];
            for est in TechnologyEstimate::all() {
                row.push(format_watts(f(&est.device_powers())));
            }
            row
        })
        .collect();
    let mut out = String::from("Table I: device power estimates\n\n");
    out.push_str(&format_table(
        &["Device", "Conservative", "Moderate", "Aggressive"],
        &rows,
    ));
    out.push_str("\nConverter rates: 5 GS/s (C, M), 8 GS/s (A)\n");
    out
}

/// Table II — optical device parameters.
pub fn table2_optical_params() -> String {
    let p = OpticalParams::paper();
    let ring = Microring::from_params(&p);
    let rows = vec![
        vec![
            "waveguide n_eff / n_g".into(),
            format!("{} / {}", p.waveguide.n_eff, p.waveguide.n_group),
        ],
        vec![
            "waveguide loss".into(),
            format!(
                "{} dB/cm straight, {} dB/cm bent",
                p.waveguide.straight_loss_db_per_cm, p.waveguide.bent_loss_db_per_cm
            ),
        ],
        vec!["Y-branch loss".into(), format!("{} dB", p.ybranch.loss_db)],
        vec![
            "MRR radius / k² / loss".into(),
            format!(
                "{} µm / {} / {} dB",
                p.mrr.radius * 1e6,
                p.mrr.k2,
                p.mrr.drop_loss_db
            ),
        ],
        vec![
            "MRR FSR (derived)".into(),
            format!("{:.2} nm (paper: 16.1 nm)", ring.fsr() * 1e9),
        ],
        vec![
            "MRR finesse (derived)".into(),
            format!("{:.1}", ring.finesse()),
        ],
        vec!["MZM loss".into(), format!("{} dB", p.mzm.loss_db)],
        vec![
            "star coupler loss".into(),
            format!("{} dB", p.star_coupler.loss_db),
        ],
        vec![
            "AWG channels / loss / crosstalk".into(),
            format!(
                "{} / {} dB / {} dB",
                p.awg.channels, p.awg.loss_db, p.awg.crosstalk_db
            ),
        ],
        vec![
            "laser RIN".into(),
            format!("{} dBc/Hz", p.laser.rin_dbc_per_hz),
        ],
        vec![
            "PD responsivity / dark current".into(),
            format!(
                "{} A/W / {} pA",
                p.photodiode.responsivity,
                p.photodiode.dark_current * 1e12
            ),
        ],
    ];
    let mut out = String::from("Table II: optical device parameters\n\n");
    out.push_str(&format_table(&["Parameter", "Value"], &rows));
    out
}

/// Table III — device power breakdown per estimate for Albireo-9.
pub fn table3_power_breakdown() -> String {
    let chip = ChipConfig::albireo_9();
    let breakdowns: Vec<PowerBreakdown> = TechnologyEstimate::all()
        .iter()
        .map(|&e| PowerBreakdown::for_chip(&chip, e))
        .collect();
    let labels = ["MRR", "MZI", "Laser", "TIA", "DAC", "ADC", "Cache"];
    let mut rows = Vec::new();
    for (i, label) in labels.iter().enumerate() {
        let mut row = vec![label.to_string()];
        for b in &breakdowns {
            let (_, w, portion) = b.rows()[i];
            row.push(format!("{w:.2} W ({:.1}%)", portion * 100.0));
        }
        rows.push(row);
    }
    rows.push(vec![
        "Total".into(),
        format!("{:.1} W", breakdowns[0].total_w()),
        format!("{:.2} W", breakdowns[1].total_w()),
        format!("{:.2} W", breakdowns[2].total_w()),
    ]);
    let mut out = String::from(
        "Table III: device power breakdown (Albireo-9)\n\
         (paper totals: 22.7 W / 6.19 W / 1.64 W)\n\n",
    );
    out.push_str(&format_table(
        &["Device", "Albireo-C", "Albireo-M", "Albireo-A"],
        &rows,
    ));
    out
}

/// Structured data behind Fig. 8: photonic accelerator comparison at 60 W.
/// Every column is produced through the shared [`Accelerator`] trait, so
/// Albireo and the baselines flow through identical code.
pub fn photonic_comparison_data() -> (
    Vec<NetworkCost>,
    Vec<NetworkCost>,
    Vec<NetworkCost>,
    Vec<NetworkCost>,
) {
    let networks = zoo::all_benchmarks();
    let costs = |accel: &dyn Accelerator| -> Vec<NetworkCost> {
        networks.iter().map(|m| accel.cost(m)).collect()
    };
    (
        costs(&AlbireoAccelerator::albireo_9(
            TechnologyEstimate::Conservative,
        )),
        costs(&AlbireoAccelerator::albireo_27(
            TechnologyEstimate::Conservative,
        )),
        costs(&Pixel::paper_60w()),
        costs(&DeapCnn::paper_60w()),
    )
}

/// A metric read off a [`NetworkCost`].
type CostMetric = fn(&NetworkCost) -> f64;

/// Fig. 8's three panels, one metric extractor each — the trait's
/// canonical [`NetworkCost`] lets Albireo and baseline columns share it.
const FIG8_PANELS: [(&str, CostMetric); 3] = [
    ("(a) latency (ms)", |e| e.latency_s * 1e3),
    ("(b) energy (mJ)", |e| e.energy_j * 1e3),
    ("(c) EDP (mJ·ms)", |e| e.edp_mj_ms()),
];

/// Fig. 8 — latency / energy / EDP vs PIXEL and DEAP-CNN at the 60 W
/// budget, conservative devices.
pub fn fig8_photonic_comparison() -> String {
    let (a9, a27, pixel, deap) = photonic_comparison_data();
    let mut out = String::from(
        "Figure 8: photonic accelerator comparison (conservative devices, 60 W budget)\n\n",
    );
    for (metric, f) in FIG8_PANELS {
        let mut rows = Vec::new();
        for i in 0..a9.len() {
            rows.push(vec![
                a9[i].network.clone(),
                format!("{:.4}", f(&pixel[i])),
                format!("{:.4}", f(&deap[i])),
                format!("{:.4}", f(&a9[i])),
                format!("{:.4}", f(&a27[i])),
            ]);
        }
        out.push_str(&format!("{metric}\n"));
        out.push_str(&format_table(
            &["network", "PIXEL", "DEAP-CNN", "Albireo-9", "Albireo-27"],
            &rows,
        ));
        out.push('\n');
    }

    // Average improvement ratios, as the paper reports them.
    let avg =
        |f: &dyn Fn(usize) -> f64| -> f64 { (0..a9.len()).map(f).sum::<f64>() / a9.len() as f64 };
    let lat9_pixel = avg(&|i| pixel[i].latency_s / a9[i].latency_s);
    let lat9_deap = avg(&|i| deap[i].latency_s / a9[i].latency_s);
    let lat27_pixel = avg(&|i| pixel[i].latency_s / a27[i].latency_s);
    let lat27_deap = avg(&|i| deap[i].latency_s / a27[i].latency_s);
    let e27_pixel = avg(&|i| pixel[i].energy_j / a27[i].energy_j);
    let e27_deap = avg(&|i| deap[i].energy_j / a27[i].energy_j);
    let edp27_pixel = avg(&|i| pixel[i].edp_mj_ms() / a27[i].edp_mj_ms());
    let edp27_deap = avg(&|i| deap[i].edp_mj_ms() / a27[i].edp_mj_ms());
    out.push_str("average improvements (paper values in parentheses):\n");
    out.push_str(&format!(
        "  Albireo-9  latency vs PIXEL: {} (79.5 X), vs DEAP-CNN: {} (1.7 X)\n",
        format_ratio(lat9_pixel),
        format_ratio(lat9_deap)
    ));
    out.push_str(&format!(
        "  Albireo-27 latency vs PIXEL: {} (225 X), vs DEAP-CNN: {} (4.8 X)\n",
        format_ratio(lat27_pixel),
        format_ratio(lat27_deap)
    ));
    out.push_str(&format!(
        "  Albireo-27 energy  vs PIXEL: {} (226 X), vs DEAP-CNN: {} (4.9 X)\n",
        format_ratio(e27_pixel),
        format_ratio(e27_deap)
    ));
    out.push_str(&format!(
        "  Albireo-27 EDP     vs PIXEL: {} (50,957 X), vs DEAP-CNN: {} (23.9 X)\n",
        format_ratio(edp27_pixel),
        format_ratio(edp27_deap)
    ));
    out
}

/// Fig. 9 — chip area breakdown by component.
pub fn fig9_area_breakdown() -> String {
    let area = AreaBreakdown::for_chip(&ChipConfig::albireo_9());
    let rows: Vec<Vec<String>> = area
        .rows()
        .into_iter()
        .map(|(name, mm2, portion)| {
            vec![
                name.to_string(),
                format!("{mm2:.3}"),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    let mut out = String::from(
        "Figure 9: Albireo-9 chip area breakdown\n\
         (paper: 124.6 mm² total; AWG 72%, star couplers 17%, MZM 3.7%)\n\n",
    );
    out.push_str(&format_table(&["Component", "mm²", "portion"], &rows));
    out.push_str(&format!(
        "\nTotal: {:.1} mm²; active (excl. passive distribution): {:.1} mm²\n",
        area.total_mm2(),
        area.active_mm2()
    ));
    out
}

/// Structured data behind Table IV.
pub fn electronic_comparison_data() -> Vec<(String, Vec<NetworkEvaluation>)> {
    let chip = ChipConfig::albireo_9();
    [zoo::alexnet(), zoo::vgg16()]
        .into_iter()
        .map(|model: Model| {
            let evals = TechnologyEstimate::all()
                .iter()
                .map(|&e| NetworkEvaluation::evaluate(&chip, e, &model))
                .collect();
            (model.name().to_string(), evals)
        })
        .collect()
}

/// Table IV — comparison with Eyeriss, ENVISION, and UNPU on AlexNet and
/// VGG16.
pub fn table4_electronic_comparison() -> String {
    let electronic = albireo_baselines::reported_accelerators();
    let albireo = electronic_comparison_data();
    let mut out = String::from("Table IV: comparison with electronic accelerators\n\n");
    for (network, evals) in &albireo {
        let mut rows = Vec::new();
        let mut header: Vec<String> = vec!["metric".into()];
        for acc in &electronic {
            header.push(format!("{} ({} nm)", acc.name, acc.technology_nm));
        }
        for e in evals {
            header.push(format!("Albireo-{}", e.estimate.suffix()));
        }
        let reported: Vec<_> = electronic
            .iter()
            .map(|a| a.results[network.as_str()])
            .collect();
        // Each metric as read off a reported design and an Albireo
        // evaluation.
        type Reported = fn(&ReportedResult) -> f64;
        type Modelled = fn(&NetworkEvaluation) -> f64;
        let metrics: [(&str, Reported, Modelled); 7] = [
            ("latency (ms)", |r| r.latency_s * 1e3, |e| e.latency_s * 1e3),
            ("energy (mJ)", |r| r.energy_j * 1e3, |e| e.energy_j * 1e3),
            ("EDP (mJ·ms)", |r| r.edp_mj_ms(), |e| e.edp_mj_ms()),
            ("GOPS/mm²", |r| r.gops_per_mm2, |e| e.gops_per_mm2()),
            (
                "GOPS/mm² (active)",
                |r| r.gops_per_mm2,
                |e| e.gops_per_mm2_active(),
            ),
            (
                "GOPS/W/mm²",
                |r| r.gops_per_w_per_mm2,
                |e| e.gops_per_w_per_mm2(),
            ),
            (
                "GOPS/W/mm² (active)",
                |r| r.gops_per_w_per_mm2,
                |e| e.gops_per_w_per_mm2_active(),
            ),
        ];
        for (name, of_reported, of_albireo) in metrics {
            let values = reported
                .iter()
                .map(of_reported)
                .chain(evals.iter().map(of_albireo));
            let mut row = vec![name.to_string()];
            row.extend(values.map(|v| {
                if v >= 1000.0 {
                    format!("{v:.0}")
                } else if v >= 10.0 {
                    format!("{v:.1}")
                } else {
                    format!("{v:.3}")
                }
            }));
            rows.push(row);
        }
        out.push_str(&format!("{network}\n"));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        out.push_str(&format_table(&header_refs, &rows));
        out.push('\n');
    }
    out.push_str(
        "note: electronic GOPS rows are reported full-die values from the\n\
         original publications; Albireo 'active' rows exclude its passive\n\
         optical distribution area, as in the paper.\n",
    );
    out
}

/// WDM efficiency — energy per wavelength used (§IV-B).
pub fn wdm_efficiency() -> String {
    let (_, a27, pixel, deap) = photonic_comparison_data();
    let mut rows = Vec::new();
    let mut pixel_ratio_sum = 0.0;
    let mut deap_ratio_sum = 0.0;
    for i in 0..a27.len() {
        // Each NetworkCost carries its design's computation wavelengths,
        // so the metric needs no side-channel chip knowledge.
        let albireo_epw = a27[i].energy_per_wavelength();
        let pixel_epw = pixel[i].energy_per_wavelength();
        let deap_epw = deap[i].energy_per_wavelength();
        pixel_ratio_sum += pixel_epw / albireo_epw;
        deap_ratio_sum += deap_epw / albireo_epw;
        rows.push(vec![
            a27[i].network.clone(),
            format!("{:.4}", albireo_epw * 1e3),
            format!("{:.4}", pixel_epw * 1e3),
            format!("{:.4}", deap_epw * 1e3),
        ]);
    }
    let n = a27.len() as f64;
    let mut out =
        String::from("WDM efficiency: energy per wavelength used (mJ/λ), 60 W designs\n\n");
    out.push_str(&format_table(
        &["network", "Albireo-27", "PIXEL", "DEAP-CNN"],
        &rows,
    ));
    out.push_str(&format!(
        "\naverage Albireo WDM-efficiency advantage: {} vs PIXEL (paper: 1680 X), {} vs DEAP-CNN (paper: 30.9 X)\n",
        format_ratio(pixel_ratio_sum / n),
        format_ratio(deap_ratio_sum / n)
    ));
    out
}

/// Headline improvement ratios (abstract / §IV-B).
pub fn summary_ratios() -> String {
    let electronic = albireo_baselines::reported_accelerators();
    let albireo = electronic_comparison_data();
    let mut lat_c = Vec::new();
    let mut edp_c = Vec::new();
    let mut edp_m_no_eyeriss = Vec::new();
    let mut edp_a_no_eyeriss = Vec::new();
    let mut lat_a = Vec::new();
    for (network, evals) in &albireo {
        let c = &evals[0];
        let m = &evals[1];
        let a = &evals[2];
        for acc in &electronic {
            let r = acc.results[network.as_str()];
            lat_c.push(r.latency_s / c.latency_s);
            edp_c.push(r.edp_mj_ms() / c.edp_mj_ms());
            lat_a.push(r.latency_s / a.latency_s);
            if acc.name != "Eyeriss" {
                edp_m_no_eyeriss.push(r.edp_mj_ms() / m.edp_mj_ms());
                edp_a_no_eyeriss.push(r.edp_mj_ms() / a.edp_mj_ms());
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut out =
        String::from("Headline ratios vs electronic accelerators (paper values in parentheses):\n");
    out.push_str(&format!(
        "  Albireo-C latency improvement: avg {} (110 X), min {} (20 X)\n",
        format_ratio(mean(&lat_c)),
        format_ratio(min(&lat_c))
    ));
    out.push_str(&format!(
        "  Albireo-C EDP improvement: avg {} (74.2 X)\n",
        format_ratio(mean(&edp_c))
    ));
    out.push_str(&format!(
        "  Albireo-M EDP improvement (excl. Eyeriss): avg {} (275 X*)\n",
        format_ratio(mean(&edp_m_no_eyeriss))
    ));
    out.push_str(&format!(
        "  Albireo-A latency improvement: avg {} (177 X)\n",
        format_ratio(mean(&lat_a))
    ));
    out.push_str(&format!(
        "  Albireo-A EDP improvement (excl. Eyeriss): avg {} (min 229 X, avg 690 X incl. Eyeriss)\n",
        format_ratio(mean(&edp_a_no_eyeriss))
    ));
    out.push_str(
        "  (* paper's 275 X averages UNPU 23.1 X and ENVISION 216 X with Eyeriss excluded)\n",
    );
    out
}

/// A paper experiment: its `albireo experiment` name, its section
/// title in [`all_experiments`], and the function producing its output.
pub type Experiment = (&'static str, &'static str, fn() -> String);

/// Every experiment, in [`all_experiments`] section order: the one
/// table behind `albireo experiment <name>`, `experiment all`, and the
/// unknown-name hint.
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", "TABLE I", table1_device_powers),
    ("table2", "TABLE II", table2_optical_params),
    ("fig3", "FIGURE 3", fig3_noise_precision),
    ("fig4a", "FIGURE 4a", fig4a_spectrum),
    ("fig4b", "FIGURE 4b", fig4b_temporal),
    ("fig4c", "FIGURE 4c", fig4c_crosstalk_precision),
    ("table3", "TABLE III", table3_power_breakdown),
    ("fig7", "FIGURE 7", fig7_dataflow_trace),
    ("fig8", "FIGURE 8", fig8_photonic_comparison),
    ("fig9", "FIGURE 9", fig9_area_breakdown),
    ("table4", "TABLE IV", table4_electronic_comparison),
    ("wdm", "WDM EFFICIENCY", wdm_efficiency),
    ("ablations", "ABLATIONS", ablation_report),
    ("thermal", "THERMAL", thermal_sensitivity),
    ("timing", "TIMING", timing_closure),
    ("power-delivery", "POWER DELIVERY", power_delivery_study),
    ("weights", "WEIGHT DISTRIBUTION", weight_distribution_study),
    ("scaling", "SCALING", scaling_study),
    ("dataflow", "DATAFLOW", dataflow_alternatives),
    ("allocation", "ALLOCATION", allocation_study),
    ("fidelity", "FIDELITY", inference_fidelity),
    ("summary", "SUMMARY", summary_ratios),
];

/// A committed artifact: its file name under `results/` and the
/// function rendering its exact contents.
pub type Artifact = (&'static str, fn() -> String);

/// Every committed `results/` artifact, in write order: the one table
/// behind `albireo export-csv` and the byte-exact check in
/// `crates/bench/tests/artifacts.rs`.
pub const ARTIFACTS: &[Artifact] = &[
    ("fig3_noise_precision.csv", fig3_noise_precision_csv),
    ("fig4a_spectrum.csv", fig4a_spectrum_csv),
    ("fig4b_temporal.csv", fig4b_temporal_csv),
    (
        "fig4c_crosstalk_precision.csv",
        fig4c_crosstalk_precision_csv,
    ),
    ("fig8_photonic_comparison.csv", fig8_photonic_comparison_csv),
    ("fig9_area_breakdown.csv", fig9_area_breakdown_csv),
    ("table3_power_breakdown.csv", table3_power_breakdown_csv),
    (
        "table4_electronic_comparison.csv",
        table4_electronic_comparison_csv,
    ),
    ("golden_network_metrics.csv", golden_network_metrics_csv),
    ("golden_baseline_metrics.csv", golden_baseline_metrics_csv),
    ("golden_modes_metrics.csv", golden_modes_metrics_csv),
    ("golden_serving_metrics.csv", golden_serving_metrics_csv),
    ("serving_study.csv", serving_study_csv),
    ("golden_plan_frontier.csv", golden_plan_frontier_csv),
];

/// Runs every experiment and concatenates the outputs.
pub fn all_experiments() -> String {
    let mut out = String::new();
    for (_, title, run) in EXPERIMENTS {
        out.push_str(&format!("================ {title} ================\n\n"));
        out.push_str(&run());
        out.push('\n');
    }
    out
}

/// Fig. 7 — the depth-first PLCG dataflow trace for the paper's running
/// example (one kernel, Wz = 9 channels, Nu = 3).
pub fn fig7_dataflow_trace() -> String {
    use albireo_core::trace::{summarize, trace_kernel};
    let chip = ChipConfig::albireo_9();
    let trace = trace_kernel(&chip, 0, 2, 12, 9);
    let mut out = String::from(
        "Figure 7: PLCG dataflow trace (1 kernel, 9 channels, Nu = 3, Nd = 5)\n\
         Each block of Nd outputs aggregates ceil(Wz/Nu) = 3 channel groups\n\
         depth-first before the kernel moves; partials never leave the chip.\n\n",
    );
    for cycle in trace.iter().take(18) {
        out.push_str(&format!("{cycle}\n"));
    }
    if trace.len() > 18 {
        out.push_str(&format!("... ({} more cycles)\n", trace.len() - 18));
    }
    let s = summarize(&trace);
    out.push_str(&format!(
        "\nsummary: {} cycles, {} outputs written, {} on-chip partial updates, {} writebacks, 0 partial-sum spills\n",
        s.cycles, s.outputs_written, s.partial_updates, s.writebacks
    ));
    out
}

/// Ablation study — the design-choice sensitivity analysis (stride model,
/// depth-first dataflow, and the Ng/Nd/Nu sweeps).
pub fn ablation_report() -> String {
    use albireo_core::ablation::{
        dataflow_ablation, stride_ablation, sweep_nd, sweep_ng, sweep_nu,
    };
    let estimate = TechnologyEstimate::Conservative;
    let vgg = zoo::vgg16();
    let mut out = String::from("Ablation studies (conservative devices, VGG16 unless noted)\n\n");

    out.push_str("1. PLCG count (Ng):\n");
    let rows: Vec<Vec<String>> = sweep_ng(&[1, 3, 9, 18, 27], estimate, &vgg)
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{:.1}", p.power_w),
                format!("{:.0}", p.area_mm2),
                format!("{:.2}", p.latency_s * 1e3),
                format!("{:.1}", p.edp_mj_ms),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &[
            "design",
            "power (W)",
            "area (mm²)",
            "latency (ms)",
            "EDP (mJ·ms)",
        ],
        &rows,
    ));

    out.push_str("\n2. PLCU outputs (Nd) — parallelism vs precision:\n");
    let rows: Vec<Vec<String>> = sweep_nd(&[2, 3, 5, 7, 10], estimate, &vgg)
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{}", p.chip.wavelengths_per_plcu()),
                format!("{:.2}", p.precision_bits),
                format!("{:.2}", p.latency_s * 1e3),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["design", "λ/PLCU", "bits", "latency (ms)"],
        &rows,
    ));

    out.push_str("\n3. PLCUs per group (Nu) — bounded by the 64-λ network:\n");
    let rows: Vec<Vec<String>> = sweep_nu(&[1, 2, 3, 4], estimate, &vgg)
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{}", p.chip.wavelengths_per_plcg()),
                if p.chip.wavelengths_per_plcg() <= 64 {
                    "yes"
                } else {
                    "NO"
                }
                .into(),
                format!("{:.2}", p.latency_s * 1e3),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["design", "λ/PLCG", "fits 64-λ", "latency (ms)"],
        &rows,
    ));

    out.push_str("\n4. Stride model (cycles with / without the multicast-width penalty):\n");
    let rows: Vec<Vec<String>> = zoo::all_benchmarks()
        .iter()
        .map(|m| {
            let a = stride_ablation(m);
            vec![
                m.name().to_string(),
                a.with_penalty.to_string(),
                a.without_penalty.to_string(),
                format!("{:.3}", a.slowdown()),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["network", "with penalty", "without", "slowdown"],
        &rows,
    ));

    out.push_str("\n5. Depth-first dataflow (partial-sum traffic avoided):\n");
    let chip = ChipConfig::albireo_9();
    let rows: Vec<Vec<String>> = zoo::all_benchmarks()
        .iter()
        .map(|m| {
            let a = dataflow_ablation(m, &chip);
            vec![
                m.name().to_string(),
                format!("{:.1}", a.depth_first_bytes as f64 / 1e6),
                format!("{:.1}", a.spilling_bytes as f64 / 1e6),
                format!("{:.3}", a.extra_energy_j * 1e3),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &[
            "network",
            "depth-first (MB)",
            "spilling (MB)",
            "extra energy (mJ)",
        ],
        &rows,
    ));
    out
}

/// Thermal sensitivity study — resonance drift vs precision and the ring
/// tuning budget (extension; the paper's device powers implicitly include
/// tuning).
pub fn thermal_sensitivity() -> String {
    use albireo_photonics::thermal::ThermalModel;
    let params = OpticalParams::paper();
    let ring = Microring::from_params(&params);
    let model = PrecisionModel::paper();
    let thermal = ThermalModel::silicon();
    let mut rows = Vec::new();
    for dt in [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0] {
        let drift = thermal.drift(dt);
        let bits = model
            .crosstalk_limited_levels_with_drift(&ring, 21, drift)
            .log2();
        rows.push(vec![
            format!("{dt:.2}"),
            format!("{:.1}", drift * 1e12),
            format!("{:.3}", thermal.drift_penalty(&ring, dt)),
            format!("{bits:.2}"),
        ]);
    }
    let mut out =
        String::from("Thermal sensitivity (k² = 0.03, 21 λ): uncorrected resonance drift\n\n");
    out.push_str(&format_table(
        &["ΔT (K)", "drift (pm)", "signal penalty", "bits"],
        &rows,
    ));
    out.push_str(&format!(
        "\nHalf-power excursion: {:.2} K. Holding 2430 switching rings against\n\
         ±5 K costs {:.2} W of heater power (vs the 7.53 W conservative MRR\n\
         drive budget) — why dense-WDM rings need active tuning.\n",
        thermal.half_power_excursion(&ring),
        thermal.chip_tuning_power(2430, 5.0)
    ));
    out
}

/// Timing-closure study — per-stage cycle budget at each estimate's clock
/// (combines Fig. 4b's temporal analysis with the §IV-A converter limits).
pub fn timing_closure() -> String {
    use albireo_core::timing::{analyze, max_clock_hz};
    let chip = ChipConfig::albireo_9();
    let mut out = String::from("Timing closure at the converter-limited clocks\n\n");
    for (estimate, k2) in [
        (TechnologyEstimate::Conservative, 0.02),
        (TechnologyEstimate::Conservative, 0.03),
        (TechnologyEstimate::Aggressive, 0.03),
    ] {
        let r = analyze(&chip, estimate, k2);
        out.push_str(&format!(
            "Albireo-{} @ {:.0} GHz, k² = {k2}: ring response {:.3}, settling {:.1} ps / {:.1} ps cycle  -> {}\n",
            estimate.suffix(),
            estimate.clock_hz() / 1e9,
            r.ring_response,
            r.settling_time_s() * 1e12,
            r.cycle_time_s * 1e12,
            if r.closes_timing { "CLOSES" } else { "FAILS" },
        ));
    }
    out.push_str("\nMaximum ring-limited clock by coupling:\n");
    let rows: Vec<Vec<String>> = [0.01, 0.02, 0.03, 0.05, 0.10]
        .iter()
        .map(|&k2| vec![format!("{k2}"), format!("{:.1}", max_clock_hz(k2) / 1e9)])
        .collect();
    out.push_str(&format_table(&["k²", "max clock (GHz)"], &rows));
    out
}

/// Power-delivery study — laser power vs delivered precision through the
/// chip link (closes the loop between Fig. 3 and Table I).
pub fn power_delivery_study() -> String {
    use albireo_core::power_delivery::PowerDelivery;
    let d9 = PowerDelivery::new(&ChipConfig::albireo_9());
    let d27 = PowerDelivery::new(&ChipConfig::albireo_27());
    let mut out =
        String::from("Optical power delivery (per-channel laser power through the chip link)\n\n");
    out.push_str(&format!(
        "link loss: Albireo-9 {:.1} dB, Albireo-27 {:.1} dB\n\n",
        d9.link_loss_db(),
        d27.link_loss_db()
    ));
    let rows: Vec<Vec<String>> = [0.5e-3, 1e-3, 2e-3, 5e-3, 10e-3, 37.5e-3]
        .iter()
        .map(|&p| {
            vec![
                format!("{:.1}", p * 1e3),
                format!("{:.1}", d9.power_at_pd(p) * 1e6),
                format!("{:.2}", d9.noise_bits(p)),
                format!("{:.2}", d9.delivered_bits(p)),
            ]
        })
        .collect();
    out.push_str(&format_table(
        &["laser (mW)", "at PD (µW)", "noise bits", "delivered bits"],
        &rows,
    ));
    if let Some(p) = d9.min_laser_power_for_noise_bits(8.0) {
        out.push_str(&format!(
            "\nminimum laser for 8 noise-limited bits: {:.2} mW optical (conservative device: 37.5 mW electrical)\n",
            p * 1e3
        ));
        let min_eta = p / 37.5e-3;
        out.push_str(&format!(
            "=> the conservative DBR laser needs a wall-plug efficiency of at least {:.0}%\n",
            min_eta * 100.0
        ));
        use albireo_photonics::laser::Laser;
        for eta in [1.0, 0.3, 0.1] {
            let laser = Laser::conservative(eta).expect("valid efficiency");
            out.push_str(&format!(
                "   at {:.0}% efficiency: {:.1} mW optical -> {:.2} delivered bits\n",
                eta * 100.0,
                laser.optical_w() * 1e3,
                d9.delivered_bits(laser.optical_w())
            ));
        }
    }
    out
}

/// Weight-distribution study — the paper's §II-C2 observation that
/// bell-shaped trained weights leave crosstalk headroom.
pub fn weight_distribution_study() -> String {
    let params = OpticalParams::paper();
    let ring = Microring::from_params(&params);
    let model = PrecisionModel::paper();
    let uniform_rms = (1.0f64 / 12.0).sqrt();
    let mut rows = Vec::new();
    for (label, rms) in [
        ("uniform [0,1] (worst-case analysis)", uniform_rms),
        ("Gaussian σ=0.25 of full scale", 0.25),
        ("Gaussian σ=0.15 (typical trained CNN)", 0.15),
        ("Gaussian σ=0.10 (heavily regularized)", 0.10),
    ] {
        let levels = model.crosstalk_limited_levels_with_weight_rms(&ring, 21, rms);
        let with_rail = PrecisionModel::with_negative_rail(levels);
        rows.push(vec![
            label.to_string(),
            format!("{rms:.3}"),
            format!("{:.2}", levels.log2()),
            format!("{:.2}", with_rail.log2()),
        ]);
    }
    let mut out = String::from(
        "Crosstalk vs weight distribution (k² = 0.03, 21 λ) — §II-C2's\n\
         bell-shaped-weights headroom, quantified:\n\n",
    );
    out.push_str(&format_table(
        &["weight distribution", "RMS", "bits", "bits (+neg rail)"],
        &rows,
    ));
    out
}

/// Fig. 3 artifact: wavelengths × laser powers → noise-limited bits.
pub fn fig3_noise_precision_csv() -> String {
    let sweeps = fig3_noise_sweep(&PrecisionModel::paper(), &FIG3_LASER_POWERS_W, 64);
    let series: Vec<_> = sweeps.iter().map(|s| s.series.as_slice()).collect();
    let header = [
        "wavelengths",
        "bits_0p5mW",
        "bits_1mW",
        "bits_2mW",
        "bits_4mW",
    ];
    bits_csv(&header, &series)
}

/// A precision-sweep artifact: one row per wavelength count the
/// `(wavelengths, bits)` series share, then each series' bits.
fn bits_csv(header: &[&str], series: &[&[(usize, f64)]]) -> String {
    let rows: Vec<Vec<String>> = (0..series[0].len())
        .map(|i| {
            let mut row = vec![series[0][i].0.to_string()];
            row.extend(series.iter().map(|s| format!("{:.4}", s[i].1)));
            row
        })
        .collect();
    to_csv(header, &rows)
}

/// Fig. 4a artifact: detuning × k² → drop-port transmission.
pub fn fig4a_spectrum_csv() -> String {
    let rings = fig4_rings();
    let span = rings[0].fsr() / 8.0;
    let rows: Vec<Vec<String>> = (0..201)
        .map(|i| {
            let d = -span + 2.0 * span * i as f64 / 200.0;
            let mut row = vec![format!("{:.5}", d * 1e9)];
            for ring in &rings {
                row.push(format!("{:.6}", ring.drop_transmission(d)));
            }
            row
        })
        .collect();
    to_csv(
        &["detuning_nm", "k2_0p02", "k2_0p03", "k2_0p05", "k2_0p10"],
        &rows,
    )
}

/// Fig. 4b artifact: time × k² → normalized step response.
pub fn fig4b_temporal_csv() -> String {
    let rings = fig4_rings();
    let rows: Vec<Vec<String>> = (0..=200)
        .map(|ps| {
            let t = ps as f64 * 1e-12;
            let mut row = vec![ps.to_string()];
            for ring in &rings {
                row.push(format!("{:.6}", ring.step_response(t)));
            }
            row
        })
        .collect();
    to_csv(
        &["time_ps", "k2_0p02", "k2_0p03", "k2_0p05", "k2_0p10"],
        &rows,
    )
}

/// Fig. 4c artifact: wavelengths × k² → crosstalk-limited bits.
pub fn fig4c_crosstalk_precision_csv() -> String {
    let (model, params) = (PrecisionModel::paper(), OpticalParams::paper());
    let sweeps = fig4c_crosstalk_sweep(&model, &params, &FIG4_K2_VALUES, 64);
    let series: Vec<_> = sweeps.iter().map(|s| s.series.as_slice()).collect();
    let header = ["wavelengths", "k2_0p02", "k2_0p03", "k2_0p05", "k2_0p10"];
    bits_csv(&header, &series)
}

/// Fig. 8 artifact: network × accelerator → latency, energy and EDP.
pub fn fig8_photonic_comparison_csv() -> String {
    let (a9, a27, pixel, deap) = photonic_comparison_data();
    let rows: Vec<Vec<String>> = (0..a9.len())
        .map(|i| {
            let mut row = vec![a9[i].network.clone()];
            for (_, metric) in FIG8_PANELS {
                for design in [&pixel, &deap, &a9, &a27] {
                    row.push(format!("{:.6}", metric(&design[i])));
                }
            }
            row
        })
        .collect();
    to_csv(
        &[
            "network",
            "pixel_latency_ms",
            "deap_latency_ms",
            "albireo9_latency_ms",
            "albireo27_latency_ms",
            "pixel_energy_mj",
            "deap_energy_mj",
            "albireo9_energy_mj",
            "albireo27_energy_mj",
            "pixel_edp",
            "deap_edp",
            "albireo9_edp",
            "albireo27_edp",
        ],
        &rows,
    )
}

/// Fig. 9 artifact: component areas of Albireo-9.
pub fn fig9_area_breakdown_csv() -> String {
    let rows: Vec<Vec<String>> = AreaBreakdown::for_chip(&ChipConfig::albireo_9())
        .rows()
        .into_iter()
        .map(|(name, mm2, portion)| {
            vec![
                name.to_string(),
                format!("{mm2:.4}"),
                format!("{portion:.5}"),
            ]
        })
        .collect();
    to_csv(&["component", "mm2", "portion"], &rows)
}

/// Table III artifact: Albireo-9 device powers per estimate.
pub fn table3_power_breakdown_csv() -> String {
    let chip = ChipConfig::albireo_9();
    let breakdowns: Vec<PowerBreakdown> = TechnologyEstimate::all()
        .iter()
        .map(|&e| PowerBreakdown::for_chip(&chip, e))
        .collect();
    let rows: Vec<Vec<String>> = (0..7)
        .map(|i| {
            let mut row = vec![breakdowns[0].rows()[i].0.to_string()];
            for b in &breakdowns {
                row.push(format!("{:.4}", b.rows()[i].1));
            }
            row
        })
        .collect();
    to_csv(
        &["device", "conservative_w", "moderate_w", "aggressive_w"],
        &rows,
    )
}

/// Table IV artifact: Albireo under every estimate next to the reported
/// electronic accelerators, on AlexNet and VGG16.
pub fn table4_electronic_comparison_csv() -> String {
    let mut rows = Vec::new();
    for (network, evals) in electronic_comparison_data() {
        for e in evals {
            rows.push(vec![
                network.clone(),
                format!("albireo_{}", e.estimate.suffix()),
                format!("{:.6}", e.latency_s * 1e3),
                format!("{:.6}", e.energy_j * 1e3),
                format!("{:.6}", e.edp_mj_ms()),
                format!("{:.4}", e.gops_per_mm2()),
                format!("{:.4}", e.gops_per_mm2_active()),
            ]);
        }
        for acc in albireo_baselines::reported_accelerators() {
            let r = acc.results[network.as_str()];
            rows.push(vec![
                network.clone(),
                acc.name.to_lowercase(),
                format!("{:.6}", r.latency_s * 1e3),
                format!("{:.6}", r.energy_j * 1e3),
                format!("{:.6}", r.edp_mj_ms()),
                format!("{:.4}", r.gops_per_mm2),
                String::new(),
            ]);
        }
    }
    to_csv(
        &[
            "network",
            "accelerator",
            "latency_ms",
            "energy_mj",
            "edp_mj_ms",
            "gops_per_mm2",
            "gops_per_mm2_active",
        ],
        &rows,
    )
}

/// The serving golden: the full service report of every run of the
/// pinned golden grid ([`StudyOptions::golden`]), digests included.
pub fn golden_serving_metrics_csv() -> String {
    run_serving_study(&StudyOptions::golden(), Parallelism::default()).to_csv()
}

/// The whole serving study: the golden grid's rows followed by the
/// mixed photonic/electronic grid's ([`run_full_serving_study`]).
pub fn serving_study_csv() -> String {
    run_full_serving_study(Parallelism::default()).to_csv()
}

/// The planner golden: the ranked feasible frontier of
/// [`GOLDEN_PLAN_SPEC`] (static vs elastic Albireo-9 fleets under
/// `p99<5ms`).
pub fn golden_plan_frontier_csv() -> String {
    let spec = PlanSpec::parse(GOLDEN_PLAN_SPEC).expect("golden plan spec parses");
    plan(&spec, Parallelism::default(), &Obs::disabled(), false)
        .expect("golden plan runs")
        .to_csv()
}

/// The baseline golden: PIXEL, DEAP-CNN, and the three reported
/// electronic designs costed through the [`Accelerator`] trait on every
/// benchmark network they support.
pub fn golden_baseline_metrics_csv() -> String {
    let mut accels: Vec<Box<dyn Accelerator>> =
        vec![Box::new(Pixel::paper_60w()), Box::new(DeapCnn::paper_60w())];
    for reported in albireo_baselines::reported_accelerators() {
        accels.push(Box::new(reported));
    }
    cost_golden_csv(&zoo::all_benchmarks(), &accels, false)
}

/// The operating-mode golden: the direct Albireo dataflow next to the
/// Winograd F(2×2,3×3) and incoherent-GEMM modes on every serving-zoo
/// network each one supports, costed through the shared [`Accelerator`]
/// trait, with each row's MAC count.
pub fn golden_modes_metrics_csv() -> String {
    use albireo_modes::{GemmMode, WinogradAccelerator};
    let c = TechnologyEstimate::Conservative;
    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(AlbireoAccelerator::albireo_9(c)),
        Box::new(AlbireoAccelerator::albireo_27(c)),
        Box::new(WinogradAccelerator::winograd_9(c)),
        Box::new(WinogradAccelerator::winograd_27(c)),
        Box::new(GemmMode::gemm_9(c)),
        Box::new(GemmMode::gemm_27(c)),
    ];
    cost_golden_csv(&zoo::serving_models(), &accels, true)
}

/// One row per (model, accelerator) pair the accelerator supports, in
/// model-major order: identity, cycles, the MAC count when `macs`, then
/// latency, energy, EDP, set-up time and wavelengths.
fn cost_golden_csv(models: &[Model], accels: &[Box<dyn Accelerator>], macs: bool) -> String {
    let mut rows = Vec::new();
    for model in models {
        for accel in accels.iter().filter(|a| a.supports(model)) {
            let c = accel.cost(model);
            let mut row = vec![
                c.network.clone(),
                c.accelerator.clone(),
                c.cycles.to_string(),
            ];
            if macs {
                row.push(c.per_layer.iter().map(|l| l.macs).sum::<u64>().to_string());
            }
            let metrics = [
                c.latency_s * 1e3,
                c.energy_j * 1e3,
                c.edp_mj_ms(),
                c.setup_s * 1e3,
            ];
            row.extend(metrics.map(|v| format!("{v:.6}")));
            row.push(c.wavelengths.to_string());
            rows.push(row);
        }
    }
    let mut header = vec!["network", "accelerator", "cycles"];
    if macs {
        header.push("macs");
    }
    header.extend([
        "latency_ms",
        "energy_mj",
        "edp_mj_ms",
        "setup_ms",
        "wavelengths",
    ]);
    to_csv(&header, &rows)
}

/// The network golden: every (chip × estimate × network) grid point's
/// scheduler cycle count and headline metrics, produced through the
/// parallel evaluation engine.
pub fn golden_network_metrics_csv() -> String {
    use albireo_core::engine::{paper_grid, EvalEngine};
    let (chips, estimates, models) = paper_grid();
    let grid = EvalEngine::default().evaluate_grid(&chips, &estimates, &models);
    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|g| {
            let cycles: u64 = g.evaluation.per_layer.iter().map(|l| l.cycles).sum();
            vec![
                g.evaluation.network.clone(),
                g.chip_name.clone(),
                format!("albireo_{}", g.estimate.suffix()),
                cycles.to_string(),
                format!("{:.6}", g.evaluation.latency_s * 1e3),
                format!("{:.6}", g.evaluation.energy_j * 1e3),
                format!("{:.6}", g.evaluation.edp_mj_ms()),
            ]
        })
        .collect();
    to_csv(
        &[
            "network",
            "chip",
            "estimate",
            "cycles",
            "latency_ms",
            "energy_mj",
            "edp_mj_ms",
        ],
        &rows,
    )
}

/// Technology-scaling study — the quantitative version of the paper's
/// "Albireo-M sets a target for photonic device engineers".
pub fn scaling_study() -> String {
    use albireo_core::scaling::{
        scaling_curve, uniform_scaling_to_match_energy, ImprovementFactors,
    };
    let chip = ChipConfig::albireo_9();
    let mut out = String::from(
        "Technology scaling: device improvement needed to match electronic energy\n\n",
    );
    for (network, model) in [("AlexNet", zoo::alexnet()), ("VGG16", zoo::vgg16())] {
        for acc in albireo_baselines::reported_accelerators() {
            if let Some(r) = acc.results.get(network) {
                match uniform_scaling_to_match_energy(&chip, &model, r.energy_j) {
                    Some(f) => out.push_str(&format!(
                        "  match {} on {network}: devices must get {} cheaper\n",
                        acc.name,
                        format_ratio(f)
                    )),
                    None => out.push_str(&format!(
                        "  match {} on {network}: unreachable (below the cache floor)\n",
                        acc.name
                    )),
                }
            }
        }
    }
    let m = ImprovementFactors::between(
        TechnologyEstimate::Conservative,
        TechnologyEstimate::Moderate,
    );
    let a = ImprovementFactors::between(
        TechnologyEstimate::Conservative,
        TechnologyEstimate::Aggressive,
    );
    out.push_str(&format!(
        "\nTable I's actual per-device asks (C -> M): MRR {:.1}x, MZM {:.1}x, laser {:.0}x, TIA {:.0}x, ADC {:.0}x, DAC {:.0}x\n",
        m.mrr, m.mzm, m.laser, m.tia, m.adc, m.dac
    ));
    out.push_str(&format!(
        "Table I's actual per-device asks (C -> A): MRR {:.0}x, MZM {:.0}x, laser {:.0}x, TIA {:.0}x, ADC {:.0}x, DAC {:.0}x\n",
        a.mrr, a.mzm, a.laser, a.tia, a.adc, a.dac
    ));
    out.push_str("\nUniform-scaling EDP curve (VGG16):\n");
    let rows: Vec<Vec<String>> =
        scaling_curve(&chip, &zoo::vgg16(), &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
            .into_iter()
            .map(|p| {
                vec![
                    format!("{:.0}x", p.factor),
                    format!("{:.2}", p.power_w),
                    format!("{:.2}", p.energy_j * 1e3),
                    format!("{:.1}", p.edp_mj_ms),
                ]
            })
            .collect();
    out.push_str(&format_table(
        &["device scaling", "power (W)", "energy (mJ)", "EDP (mJ·ms)"],
        &rows,
    ));
    out
}

/// Monte-Carlo inference-fidelity study: decision agreement between the
/// analog datapath and the exact digital pipeline across random tiny
/// networks, under each effect configuration.
pub fn inference_fidelity() -> String {
    use albireo_core::analog::{AnalogEngine, AnalogSimConfig};
    use albireo_tensor::conv::{conv2d, fully_connected, max_pool, relu, ConvSpec};
    use albireo_tensor::{Tensor3, Tensor4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let chip = ChipConfig::albireo_9();
    let nets = 8usize;
    let inputs_per_net = 12usize;

    let digital_forward = |c1: &Tensor4, c2: &Tensor4, fc: &[Vec<f64>], im: &Tensor3| {
        let x = relu(&conv2d(im, c1, &ConvSpec::unit()));
        let x = max_pool(&x, 2, 2);
        let x = relu(&conv2d(&x, c2, &ConvSpec::unit()));
        fully_connected(&x.flatten(), fc)
    };
    let argmax = |scores: &[f64]| {
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };

    let configs: [(&str, AnalogSimConfig); 4] = [
        ("ideal", AnalogSimConfig::ideal()),
        ("full analog, 8-bit ADC", AnalogSimConfig::default()),
        (
            "with crosstalk compensation",
            AnalogSimConfig {
                crosstalk_compensation: true,
                ..AnalogSimConfig::default()
            },
        ),
        (
            "low laser power (0.25 mW)",
            AnalogSimConfig {
                laser_power_w: 0.25e-3,
                ..AnalogSimConfig::default()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, cfg) in configs {
        let mut agree = 0usize;
        let mut total = 0usize;
        for net_seed in 0..nets as u64 {
            let mut rng = StdRng::seed_from_u64(9000 + net_seed);
            let c1 = Tensor4::random_gaussian(4, 1, 3, 3, 0.4, &mut rng);
            let c2 = Tensor4::random_gaussian(6, 4, 3, 3, 0.3, &mut rng);
            let fc: Vec<Vec<f64>> = (0..5)
                .map(|_| {
                    (0..54)
                        .map(|_| {
                            use rand::Rng;
                            0.3 * (rng.random::<f64>() - 0.5)
                        })
                        .collect()
                })
                .collect();
            let mut engine = AnalogEngine::new(&chip, cfg);
            for _ in 0..inputs_per_net {
                let im = Tensor3::random_uniform(1, 12, 12, 0.0, 1.0, &mut rng);
                let dig = digital_forward(&c1, &c2, &fc, &im);
                let mut x = engine.conv2d(&im, &c1, &ConvSpec::unit());
                x.relu_inplace();
                let x = max_pool(&x, 2, 2);
                let mut x = engine.conv2d(&x, &c2, &ConvSpec::unit());
                x.relu_inplace();
                let flat = x.flatten();
                let ana: Vec<f64> = fc.iter().map(|row| engine.dot(&flat, row)).collect();
                if argmax(&ana) == argmax(&dig) {
                    agree += 1;
                }
                total += 1;
            }
        }
        rows.push(vec![
            label.to_string(),
            format!("{agree}/{total}"),
            format!("{:.1}%", 100.0 * agree as f64 / total as f64),
        ]);
    }
    let mut out =
        String::from("Inference fidelity: analog vs digital decisions over random tiny CNNs\n\n");
    out.push_str(&format_table(
        &["configuration", "agreement", "rate"],
        &rows,
    ));
    out.push_str(
        "\nAt the paper's 7-bit analog operating point, classification\n\
         decisions are preserved at high rates; starving the laser power\n\
         (noise floor) degrades them.\n",
    );
    out
}

/// Dataflow-alternatives study: depth-first (the paper) vs
/// weight-stationary — converter updates against partial-sum traffic.
pub fn dataflow_alternatives() -> String {
    use albireo_core::dataflow_alt::{compare_dataflows, dac_update_energy_j};
    let chip = ChipConfig::albireo_9();
    let estimate = TechnologyEstimate::Conservative;
    let mut out =
        String::from("Dataflow alternatives: depth-first (paper) vs weight-stationary\n\n");
    out.push_str(&format!(
        "per-DAC-update energy: {:.1} pJ; per-buffer-byte energy: 0.2 pJ\n\n",
        dac_update_energy_j(estimate) * 1e12
    ));
    let mut rows = Vec::new();
    for model in zoo::all_benchmarks() {
        let (df, ws) = compare_dataflows(&chip, estimate, &model);
        rows.push(vec![
            model.name().to_string(),
            format!("{:.2}", df.weight_dac_updates as f64 / 1e9),
            format!("{:.3}", ws.weight_dac_updates as f64 / 1e9),
            format!("{:.0}", ws.partial_bytes as f64 / 1e6),
            format!("{:.2}", df.energy_j * 1e3),
            format!("{:.2}", ws.energy_j * 1e3),
        ]);
    }
    out.push_str(&format_table(
        &[
            "network",
            "DF weight updates (G)",
            "WS weight updates (G)",
            "WS partial traffic (MB)",
            "DF dyn. energy (mJ)",
            "WS dyn. energy (mJ)",
        ],
        &rows,
    ));
    out.push_str(
        "\nWeight-stationary wins on dynamic converter energy; the paper's\n\
         depth-first choice buys zero partial-sum memory bandwidth and a\n\
         simpler aggregation unit instead — the DACs are provisioned to run\n\
         at line rate either way (Table III).\n",
    );
    out
}

/// Channel-allocation study: contiguous rows (the paper's Fig. 5 layout)
/// vs row-interleaved wavelength assignment.
pub fn allocation_study() -> String {
    use albireo_core::analog::{AnalogEngine, AnalogSimConfig, ChannelAllocation};
    use albireo_tensor::conv::{conv2d, ConvSpec};
    use albireo_tensor::{Tensor3, Tensor4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let chip = ChipConfig::albireo_9();
    let mut rng = StdRng::seed_from_u64(4242);
    let input = Tensor3::random_uniform(6, 12, 12, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(3, 6, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &kernels, &spec);
    let fs = input.max_abs() * kernels.max_abs() * 27.0;
    let mut rows = Vec::new();
    for (label, allocation) in [
        ("contiguous (paper Fig. 5)", ChannelAllocation::Contiguous),
        (
            "row-interleaved (extension)",
            ChannelAllocation::RowInterleaved,
        ),
    ] {
        let cfg = AnalogSimConfig {
            enable_noise: false,
            adc_bits: 16,
            allocation,
            ..AnalogSimConfig::default()
        };
        let mut engine = AnalogEngine::new(&chip, cfg);
        let err = engine
            .conv2d(&input, &kernels, &spec)
            .max_abs_diff(&reference)
            / fs;
        rows.push(vec![
            label.to_string(),
            format!("{err:.2e}"),
            format!("{:.2}", -err.log2()),
        ]);
    }
    let mut out = String::from("Wavelength allocation: crosstalk error of a 3x3x6 convolution\n\n");
    out.push_str(&format_table(
        &["allocation", "max error (rel FS)", "effective bits"],
        &rows,
    ));
    out.push_str(
        "\nInterleaving rows across the FSR multiplies each ring's\n\
         nearest-neighbour detuning by Wy = 3, buying ~2 extra crosstalk\n\
         bits for free (the AWG routing is passive either way).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_output() {
        for (name, _, run) in EXPERIMENTS {
            let body = run();
            assert!(body.lines().count() > 3, "{name} output too short: {body}");
        }
    }

    #[test]
    fn fig8_orders_accelerators_correctly() {
        let (a9, a27, pixel, deap) = photonic_comparison_data();
        for i in 0..a9.len() {
            // Paper Fig. 8 shape: PIXEL slowest, Albireo-27 fastest.
            assert!(pixel[i].latency_s > deap[i].latency_s, "{}", a9[i].network);
            assert!(deap[i].latency_s > a27[i].latency_s, "{}", a9[i].network);
            assert!(a9[i].latency_s > a27[i].latency_s);
        }
    }

    #[test]
    fn fig8_ratios_near_paper() {
        let (a9, a27, pixel, deap) = photonic_comparison_data();
        let n = a9.len() as f64;
        let lat9_pixel: f64 = (0..a9.len())
            .map(|i| pixel[i].latency_s / a9[i].latency_s)
            .sum::<f64>()
            / n;
        // Paper: 79.5 X. Accept the same order of magnitude.
        assert!((30.0..200.0).contains(&lat9_pixel), "ratio = {lat9_pixel}");
        let lat27_deap: f64 = (0..a27.len())
            .map(|i| deap[i].latency_s / a27[i].latency_s)
            .sum::<f64>()
            / n;
        // Paper: 4.8 X.
        assert!((2.0..12.0).contains(&lat27_deap), "ratio = {lat27_deap}");
    }

    #[test]
    fn summary_headline_ratios_in_range() {
        let electronic = albireo_baselines::reported_accelerators();
        let albireo = electronic_comparison_data();
        let mut lat_c = Vec::new();
        for (network, evals) in &albireo {
            for acc in &electronic {
                lat_c.push(acc.results[network.as_str()].latency_s / evals[0].latency_s);
            }
        }
        let mean = lat_c.iter().sum::<f64>() / lat_c.len() as f64;
        // Paper: 110 X average latency improvement for Albireo-C.
        assert!((50.0..250.0).contains(&mean), "mean = {mean}");
        // Every electronic accelerator is slower than Albireo-C.
        assert!(lat_c.iter().all(|&r| r > 1.0));
    }

    #[test]
    fn table4_mentions_all_accelerators() {
        let t = table4_electronic_comparison();
        for name in [
            "Eyeriss",
            "ENVISION",
            "UNPU",
            "Albireo-C",
            "Albireo-M",
            "Albireo-A",
        ] {
            assert!(t.contains(name), "missing {name}");
        }
    }

    #[test]
    fn wdm_efficiency_favors_albireo() {
        let (_, a27, pixel, deap) = photonic_comparison_data();
        assert_eq!(
            a27[0].wavelengths,
            ChipConfig::albireo_27().wavelengths_per_plcg()
        );
        for i in 0..a27.len() {
            let albireo = a27[i].energy_per_wavelength();
            assert!(pixel[i].energy_per_wavelength() > albireo);
            assert!(deap[i].energy_per_wavelength() > albireo);
        }
    }

    #[test]
    fn all_experiments_is_complete() {
        let all = all_experiments();
        for title in [
            "TABLE I",
            "TABLE II",
            "FIGURE 3",
            "FIGURE 4a",
            "FIGURE 4b",
            "FIGURE 4c",
            "TABLE III",
            "FIGURE 8",
            "FIGURE 9",
            "TABLE IV",
            "WDM EFFICIENCY",
            "SUMMARY",
        ] {
            assert!(all.contains(title), "missing {title}");
        }
        for (i, (name, title, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i]
                    .iter()
                    .all(|e| e.0 != *name && e.1 != *title),
                "duplicate experiment {name} / {title}"
            );
        }
    }
}
