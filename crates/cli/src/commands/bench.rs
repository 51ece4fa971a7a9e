//! The measurement and artifact commands: `bench`, `perf-diff`,
//! `export-csv`, `validate-oracles`, `serving-study` and `plan-search`.

use super::{read_file, to_out, write_file, CliError};
use crate::args::Args;
use albireo_parallel::Parallelism;

/// `albireo bench [--thread-counts A,B,C] [--target-ms N] [--out FILE]` —
/// the parallel-scaling benchmark; emits the `BENCH_parallel.json` schema.
pub(super) fn bench(args: &Args) -> Result<String, CliError> {
    use albireo_bench::sweep::{run_parallel_sweep, SweepOptions};
    let mut options = SweepOptions::default();
    if let Some(counts) = args.get_list::<usize>("thread-counts", "comma-separated integers")? {
        if counts.is_empty() {
            return Err(CliError::Usage("--thread-counts must not be empty".into()));
        }
        options.thread_counts = counts;
    }
    options.target_ms = args.get_parsed_or("target-ms", options.target_ms, "a duration in ms")?;
    let report = run_parallel_sweep(&options);
    to_out(args, report.to_json(), |path| {
        // One core cannot show scaling: say so before anyone compares
        // the speedups across machines.
        let caveat = if report.available_parallelism <= 1 {
            " (single core: speedups sit at ~1.0x; the sweep shows determinism, \
             not scaling)"
        } else {
            ""
        };
        format!(
            "wrote {path}: best whole-sweep speedup {:.2}x, deterministic: {}{caveat}\n",
            report.best_total_speedup(),
            report.all_deterministic()
        )
    })
}

/// `albireo perf-diff <old.json> <new.json> [--threshold PCT]` — the
/// perf-regression gate: compares two performance JSON files
/// (`BENCH_*.json` or `albireo.profile/v1` reports) metric by metric
/// and exits 3 when any wall-clock metric regresses past the threshold
/// (default 10%). A changed virtual-clock leaf prints a `model output
/// changed` line and never trips the gate.
pub(super) fn perf_diff(args: &Args) -> Result<String, CliError> {
    let [old_path, new_path] = args.positionals() else {
        unreachable!("the perf-diff row takes exactly two positionals");
    };
    let threshold: f64 = args
        .get_or("threshold", "10")
        .parse()
        .map_err(|_| CliError::Usage("--threshold needs a percentage".into()))?;
    let diff = albireo_bench::perfdiff::PerfDiff::compare(
        &read_file(old_path)?,
        &read_file(new_path)?,
        threshold,
    )?;
    if diff.rows.is_empty() {
        return Err(CliError::Usage(format!(
            "no comparable performance metrics between {old_path} and {new_path}"
        )));
    }
    let text = diff.render_text();
    if diff.regressions().next().is_some() {
        return Err(CliError::Gate(format!(
            "performance regression: {old_path} -> {new_path}\n{text}"
        )));
    }
    Ok(text)
}

/// `albireo export-csv` — writes every [`albireo_bench::ARTIFACTS`]
/// entry to `./results`: the one way `results/*.csv` are made.
pub(super) fn export_csv(_: &Args) -> Result<String, CliError> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;
    let mut listing = String::new();
    for (name, render) in albireo_bench::ARTIFACTS {
        let path = dir.join(name);
        write_file(&path, render())?;
        listing.push_str(&format!("  {}\n", path.display()));
    }
    Ok(format!(
        "wrote {} files:\n{listing}",
        albireo_bench::ARTIFACTS.len()
    ))
}

/// `albireo validate-oracles [--tol-scale X]` — the
/// [`ORACLES`](albireo_bench::oracles::ORACLES) checklist. A failed
/// paper anchor trips the gate (exit 3) with the checklist in the error.
/// `--tol-scale` multiplies every tolerance: values above 1 loosen the
/// checklist, values near 0 force failures against the real oracle set.
pub(super) fn validate_oracles(args: &Args) -> Result<String, CliError> {
    let scale = |v: &f64| v.is_finite() && *v >= 0.0;
    let tol_scale = args
        .get_where("tol-scale", "a non-negative number", scale)?
        .unwrap_or(1.0);
    let (checklist, failed) = albireo_bench::oracles::checklist(tol_scale);
    if failed > 0 {
        return Err(CliError::Gate(format!(
            "{failed} paper oracle(s) failed\n{checklist}"
        )));
    }
    Ok(checklist)
}

/// `albireo serving-study [--out PATH]` — the serving studies, timed;
/// writes `BENCH_serving.json` and prints the combined digest, the value
/// to compare across runs (bit-identical at any `--threads`).
pub(super) fn serving_study(args: &Args) -> Result<String, CliError> {
    let path = args.get_or("out", "BENCH_serving.json");
    let (json, summary) = albireo_bench::serving_study::run(Parallelism::global());
    write_file(path, json)?;
    Ok(format!("{summary}wrote {path}\n"))
}

/// `albireo plan-search [--out PATH]` — planner throughput; writes
/// `BENCH_plan.json` and prints the golden, wide and deep digests.
pub(super) fn plan_search(args: &Args) -> Result<String, CliError> {
    let path = args.get_or("out", "BENCH_plan.json");
    let (json, summary) = albireo_bench::plan_search::run(Parallelism::global());
    write_file(path, json)?;
    Ok(format!("{summary}wrote {path}\n"))
}
