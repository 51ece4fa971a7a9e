//! The chip-model commands: `networks`, `evaluate`, `power`, `area`,
//! `precision`, `trace`, `sweep`, `compare`, `faults` and `experiment`.

use super::{at_least_one, trace_obs, write_metrics_out, write_trace_outputs, CliError};
use crate::args::Args;
use albireo_core::ablation::{sweep_nd, sweep_ng, sweep_nu};
use albireo_core::area::AreaBreakdown;
use albireo_core::config::{ChipConfig, TechnologyEstimate};
use albireo_core::energy::NetworkEvaluation;
use albireo_core::power::PowerBreakdown;
use albireo_core::report::{format_joules, format_seconds, format_table, format_watts};
use albireo_core::trace::{summarize, trace_kernel};
use albireo_nn::{zoo, Model};
use albireo_obs::json::{self, num, Fixed, Obj};
use albireo_photonics::mrr::Microring;
use albireo_photonics::precision::PrecisionModel;
use albireo_photonics::OpticalParams;

fn parse_network(name: &str) -> Result<Model, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "alexnet" => Ok(zoo::alexnet()),
        "vgg16" | "vgg" => Ok(zoo::vgg16()),
        "resnet18" | "resnet" => Ok(zoo::resnet18()),
        "mobilenet" => Ok(zoo::mobilenet()),
        "vgg19" => Ok(zoo::vgg19()),
        "resnet34" => Ok(zoo::resnet34()),
        "mobilenet-0.5" | "mobilenet_half" => Ok(zoo::mobilenet_half()),
        "mlp-mixer" | "mlp_mixer" | "mixer" => Ok(zoo::mlp_mixer()),
        "transformer" | "transformer-enc" | "transformer_encoder_block" => {
            Ok(zoo::transformer_encoder_block())
        }
        "tiny" => Ok(zoo::tiny()),
        other => Err(CliError::Usage(format!(
            "unknown network `{other}` (try: alexnet, vgg16, resnet18, mobilenet, \
             vgg19, resnet34, mobilenet-0.5, mlp-mixer, transformer, tiny)"
        ))),
    }
}

fn chip_from(args: &Args) -> Result<ChipConfig, CliError> {
    let ng = args
        .get_where("ng", "a positive integer", at_least_one)?
        .unwrap_or(9);
    let mut chip = ChipConfig::with_ng(ng);
    if args.flag("no-stride-penalty") {
        chip.model_stride_penalty = false;
    }
    Ok(chip)
}

/// `albireo networks`
pub(super) fn networks(_: &Args) -> Result<String, CliError> {
    let rows: Vec<Vec<String>> = zoo::serving_models()
        .iter()
        .map(|m| {
            vec![
                m.name().to_string(),
                m.layers().len().to_string(),
                format!("{:.2}", m.total_macs() as f64 / 1e9),
                format!("{:.1}", m.total_params() as f64 / 1e6),
                m.input_shape().to_string(),
            ]
        })
        .collect();
    Ok(format_table(
        &["network", "layers", "GMACs", "Mparams", "input"],
        &rows,
    ))
}

/// `albireo evaluate <network> [...]`
pub(super) fn evaluate(args: &Args) -> Result<String, CliError> {
    let model = parse_network(&args.positionals()[0])?;
    let estimate = args.get_parsed_or("estimate", TechnologyEstimate::Conservative, "C, M or A")?;
    let chip = chip_from(args)?;
    let obs = trace_obs(args);
    let eval = NetworkEvaluation::evaluate_observed(&chip, estimate, &model, &obs);
    let mut out = format!(
        "{} on Albireo-{} (Ng={}):\n  latency {}  energy {}  EDP {:.3} mJ·ms\n  power {}  {:.0} GOPS  {:.1} GOPS/mm² ({:.0} active)  utilization {:.1}%\n",
        eval.network,
        estimate.suffix(),
        chip.ng,
        format_seconds(eval.latency_s),
        format_joules(eval.energy_j),
        eval.edp_mj_ms(),
        format_watts(eval.power_w),
        eval.gops(),
        eval.gops_per_mm2(),
        eval.gops_per_mm2_active(),
        eval.mean_utilization() * 100.0,
    );
    let show = args.get_parsed_or("per-layer", 0usize, "a count")?;
    if show > 0 {
        let mut layers: Vec<_> = eval.per_layer.iter().filter(|l| l.cycles > 0).collect();
        layers.sort_by_key(|l| std::cmp::Reverse(l.cycles));
        let rows: Vec<Vec<String>> = layers
            .iter()
            .take(show)
            .map(|l| {
                vec![
                    l.name.clone(),
                    l.cycles.to_string(),
                    format_seconds(l.latency_s),
                    format!("{:.1}%", l.utilization * 100.0),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &["layer", "cycles", "latency", "utilization"],
            &rows,
        ));
    }
    // Dataflow diagnostic: the depth-first schedule the paper argues for
    // vs a weight-stationary alternative, in converter updates and
    // partial-sum traffic (see core::dataflow_alt).
    let (df, ws) = albireo_core::dataflow_alt::compare_dataflows(&chip, estimate, &model);
    let dataflow_rows = vec![
        vec![
            "depth-first".to_string(),
            df.weight_dac_updates.to_string(),
            df.input_dac_updates.to_string(),
            df.partial_bytes.to_string(),
            format_joules(df.energy_j),
        ],
        vec![
            "weight-stationary".to_string(),
            ws.weight_dac_updates.to_string(),
            ws.input_dac_updates.to_string(),
            ws.partial_bytes.to_string(),
            format_joules(ws.energy_j),
        ],
    ];
    out.push_str("\nDataflow comparison (converter + partial-sum traffic):\n");
    out.push_str(&format_table(
        &[
            "dataflow",
            "weight DAC updates",
            "input DAC updates",
            "partial bytes",
            "energy",
        ],
        &dataflow_rows,
    ));
    out.push_str(&format!(
        "  weight-stationary energy delta: {:+.1}% vs depth-first\n",
        (ws.energy_j - df.energy_j) / df.energy_j * 100.0
    ));
    out.push_str(&write_trace_outputs(
        args,
        &obs,
        &[(albireo_obs::track::ENGINE, "engine".to_string())],
    )?);
    out.push_str(&write_metrics_out(args, &obs)?);
    Ok(out)
}

/// `albireo power [...]`
pub(super) fn power(args: &Args) -> Result<String, CliError> {
    let chip = chip_from(args)?;
    let estimate = args.get_parsed_or("estimate", TechnologyEstimate::Conservative, "C, M or A")?;
    let b = PowerBreakdown::for_chip(&chip, estimate);
    let rows: Vec<Vec<String>> = b
        .rows()
        .into_iter()
        .map(|(name, w, portion)| {
            vec![
                name.to_string(),
                format_watts(w),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    Ok(format!(
        "{}\nTotal: {}\n",
        format_table(&["device", "power", "portion"], &rows),
        format_watts(b.total_w())
    ))
}

/// `albireo area [...]`
pub(super) fn area(args: &Args) -> Result<String, CliError> {
    let chip = chip_from(args)?;
    let a = AreaBreakdown::for_chip(&chip);
    let rows: Vec<Vec<String>> = a
        .rows()
        .into_iter()
        .map(|(name, mm2, portion)| {
            vec![
                name.to_string(),
                format!("{mm2:.3} mm²"),
                format!("{:.1}%", portion * 100.0),
            ]
        })
        .collect();
    Ok(format!(
        "{}\nTotal: {:.1} mm² (active {:.1} mm²)\n",
        format_table(&["component", "area", "portion"], &rows),
        a.total_mm2(),
        a.active_mm2()
    ))
}

/// `albireo precision [...]`
pub(super) fn precision(args: &Args) -> Result<String, CliError> {
    let coupling = |k: &f64| *k > 0.0 && *k < 1.0;
    let k2 = args.get_where("k2", "a coupling coefficient in (0,1)", coupling)?;
    let k2 = k2.unwrap_or(0.03);
    let n = args
        .get_where("wavelengths", "a wavelength count >= 1", at_least_one)?
        .unwrap_or(21);
    let laser_mw = args.get_parsed_or("laser-mw", 2.0f64, "a power in mW")?;
    let params = OpticalParams::paper();
    let ring = Microring::with_k2(&params, k2);
    let model = PrecisionModel::paper();
    let noise_bits = model.noise_limited_bits(n, laser_mw * 1e-3);
    let xtalk = model.crosstalk_limited_levels(&ring, n);
    let combined = model.combined_levels(&ring, n, laser_mw * 1e-3);
    Ok(format!(
        "ring: k²={k2}, FSR {:.2} nm, FWHM {:.3} nm, finesse {:.0}, bandwidth {:.1} GHz\n\
         at {n} wavelengths, {laser_mw} mW/channel at the PD:\n\
           noise-limited:     {:.2} bits\n\
           crosstalk-limited: {:.2} bits ({:.2} with negative rail)\n\
           combined:          {:.2} bits ({:.2} with negative rail)\n",
        ring.fsr() * 1e9,
        ring.fwhm() * 1e9,
        ring.finesse(),
        ring.bandwidth_hz() / 1e9,
        noise_bits,
        xtalk.log2(),
        PrecisionModel::with_negative_rail(xtalk).log2(),
        combined.log2(),
        PrecisionModel::with_negative_rail(combined).log2(),
    ))
}

/// `albireo trace [...]`
pub(super) fn trace(args: &Args) -> Result<String, CliError> {
    let dim = |name, default| -> Result<usize, CliError> {
        Ok(args
            .get_where(name, "a positive count", at_least_one)?
            .unwrap_or(default))
    };
    let (rows, cols, channels) = (dim("rows", 1)?, dim("cols", 12)?, dim("channels", 9)?);
    let chip = chip_from(args)?;
    let cycles = trace_kernel(&chip, 0, rows, cols, channels);
    let mut out = String::new();
    for c in cycles.iter().take(24) {
        out.push_str(&format!("{c}\n"));
    }
    if cycles.len() > 24 {
        out.push_str(&format!("... ({} more cycles)\n", cycles.len() - 24));
    }
    let s = summarize(&cycles);
    out.push_str(&format!(
        "{} cycles, {} outputs, {} partial updates, {} writebacks\n",
        s.cycles, s.outputs_written, s.partial_updates, s.writebacks
    ));
    Ok(out)
}

/// `albireo sweep --param ... --values ...`
pub(super) fn sweep(args: &Args) -> Result<String, CliError> {
    let param = args.require("param")?;
    let values: Vec<usize> = args
        .get_list("values", "comma-separated integers")?
        .ok_or_else(|| CliError::Usage("missing required option --values".into()))?;
    let network = parse_network(args.get_or("network", "vgg16"))?;
    let estimate = args.get_parsed_or("estimate", TechnologyEstimate::Conservative, "C, M or A")?;
    let points = match param {
        "ng" => sweep_ng(&values, estimate, &network),
        "nd" => sweep_nd(&values, estimate, &network),
        "nu" => sweep_nu(&values, estimate, &network),
        other => {
            return Err(CliError::Usage(format!(
                "unknown sweep parameter `{other}` (try: ng, nd, nu)"
            )))
        }
    };
    if args.flag("json") {
        let rows = points.iter().map(|p| {
            Obj::new()
                .field("design", &p.label)
                .field("power_w", num(p.power_w))
                .field("area_mm2", num(p.area_mm2))
                .field("latency_s", Fixed(p.latency_s, 9))
                .field("edp_mj_ms", num(p.edp_mj_ms))
                .field("precision_bits", num(p.precision_bits))
        });
        return Ok(json::rows(rows) + "\n");
    }
    let rows: Vec<Vec<String>> = points
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{:.2}", p.power_w),
                format!("{:.0}", p.area_mm2),
                format_seconds(p.latency_s),
                format!("{:.2}", p.edp_mj_ms),
                format!("{:.2}", p.precision_bits),
            ]
        })
        .collect();
    Ok(format_table(
        &[
            "design",
            "power (W)",
            "area (mm²)",
            "latency",
            "EDP (mJ·ms)",
            "bits",
        ],
        &rows,
    ))
}

/// `albireo compare [...]` — every backend flows through the same
/// [`Accelerator`](albireo_baselines::Accelerator) trait, so adding a
/// backend adds a row here for free.
pub(super) fn compare(args: &Args) -> Result<String, CliError> {
    use albireo_baselines::{reported_accelerators, Accelerator, DeapCnn, Pixel};
    use albireo_core::accel::AlbireoAccelerator;
    use albireo_modes::{GemmMode, WinogradAccelerator};

    let network = parse_network(args.get_or("network", "vgg16"))?;
    let mut accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(Pixel::paper_60w()),
        Box::new(DeapCnn::paper_60w()),
        Box::new(AlbireoAccelerator::albireo_27(
            TechnologyEstimate::Conservative,
        )),
        Box::new(WinogradAccelerator::winograd_27(
            TechnologyEstimate::Conservative,
        )),
        Box::new(GemmMode::gemm_27(TechnologyEstimate::Conservative)),
    ];
    for acc in reported_accelerators() {
        accels.push(Box::new(acc));
    }
    let rows: Vec<Vec<String>> = accels
        .iter()
        .filter(|a| a.supports(&network))
        .map(|a| {
            let c = a.cost(&network);
            vec![
                a.description(),
                format_seconds(c.latency_s),
                format_joules(c.energy_j),
                format!("{:.3}", c.edp_mj_ms()),
            ]
        })
        .collect();
    Ok(format!(
        "{}:\n{}",
        network.name(),
        format_table(&["accelerator", "latency", "energy", "EDP (mJ·ms)"], &rows)
    ))
}

/// `albireo faults [...]` — inject hardware faults into the analog engine
/// and report the error impact on a reference convolution. Every fault
/// must name a device of that 3x3 convolution on the `--ng` chip.
pub(super) fn faults(args: &Args) -> Result<String, CliError> {
    use albireo_core::analog::{AnalogEngine, AnalogSimConfig, Fault, FaultSet};
    use albireo_runtime::grammar::Lexer;
    use albireo_tensor::conv::{conv2d, ConvSpec};
    use albireo_tensor::{Tensor3, Tensor4};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let chip = chip_from(args)?;
    let nd = chip.plcu.nd;
    let bound = |flag: &str, ok: bool, what: &str| {
        let raw = args.get_or(flag, "");
        match ok {
            true => Ok(()),
            false => Err(CliError::Usage(format!("--{flag} `{raw}`: {what}"))),
        }
    };
    let in_kernel = "kernel row and column must be < 3 (the reference kernel is 3x3)";
    let in_outputs = format!("output must be < Nd = {nd}");
    let in_unit = "weight must be a finite value in [-1, 1]";
    let mut set = FaultSet::new();
    if let Some(raw) = args.get("dead-ring") {
        let mut lx = Lexer::new("--dead-ring", raw, ',');
        let (row, col, output) = (
            lx.field("row R")?,
            lx.field("column C")?,
            lx.field("output O")?,
        );
        lx.end()?;
        bound("dead-ring", row < 3 && col < 3, in_kernel)?;
        bound("dead-ring", output < nd, &in_outputs)?;
        set.push(Fault::DeadRing { row, col, output });
    }
    if let Some(column) = args.get_where("dead-channel", "a column index", |_: &usize| true)? {
        let what = format!("multicast column must be < Nd + 2 = {}", nd + 2);
        bound("dead-channel", column < nd + 2, &what)?;
        set.push(Fault::DeadChannel { column });
    }
    if let Some(raw) = args.get("stuck-mzm") {
        let mut lx = Lexer::new("--stuck-mzm", raw, ',');
        let (row, col, weight) = (
            lx.field("row R")?,
            lx.field("column C")?,
            lx.field("weight W")?,
        );
        lx.end()?;
        bound("stuck-mzm", row < 3 && col < 3, in_kernel)?;
        bound("stuck-mzm", (-1.0..=1.0).contains(&weight), in_unit)?;
        set.push(Fault::StuckMzm { row, col, weight });
    }

    let mut rng = StdRng::seed_from_u64(1550);
    let input = Tensor3::random_uniform(3, 12, 12, 0.0, 1.0, &mut rng);
    let kernels = Tensor4::random_gaussian(2, 3, 3, 3, 0.3, &mut rng);
    let spec = ConvSpec::unit();
    let reference = conv2d(&input, &kernels, &spec);
    let fs = input.max_abs() * kernels.max_abs() * 27.0;

    let healthy = {
        let e = AnalogEngine::new(&chip, AnalogSimConfig::default());
        e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs
    };
    let faulty = {
        let mut e = AnalogEngine::new(&chip, AnalogSimConfig::default());
        let n = set.len();
        e.inject_faults(set);
        let err = e.conv2d(&input, &kernels, &spec).max_abs_diff(&reference) / fs;
        (err, n)
    };
    Ok(format!(
        "reference 3x3x3 convolution, {} fault(s) injected:\n  healthy error: {:.3e} of full scale ({:.1} effective bits)\n  faulty  error: {:.3e} of full scale ({:.1} effective bits)\n  degradation:   {:.1}x\n",
        faulty.1,
        healthy,
        -healthy.log2(),
        faulty.0,
        -faulty.0.log2(),
        faulty.0 / healthy,
    ))
}

/// `albireo experiment <name>|all`
pub(super) fn experiment(args: &Args) -> Result<String, CliError> {
    let name = args
        .positionals()
        .first()
        .map(String::as_str)
        .unwrap_or("all");
    if name == "all" {
        return Ok(albireo_bench::all_experiments());
    }
    match albireo_bench::EXPERIMENTS.iter().find(|e| e.0 == name) {
        Some((_, _, run)) => Ok(run()),
        None => Err(CliError::Usage(format!(
            "unknown experiment `{name}` (try: all, {})",
            albireo_bench::EXPERIMENTS
                .iter()
                .map(|e| e.0)
                .collect::<Vec<&str>>()
                .join(", ")
        ))),
    }
}
