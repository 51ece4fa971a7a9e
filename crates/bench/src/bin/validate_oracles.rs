//! Validates the reproduction against every number the paper reports,
//! printing the [`ORACLES`] table as a PASS/FAIL checklist. Exits
//! nonzero if any oracle fails, so CI can gate on it.
//!
//! `--tol-scale X` multiplies every tolerance by `X`: values above 1
//! loosen the checklist, values near 0 force failures (used by the
//! exit-code integration test to exercise the failing path against the
//! real oracle set).

use albireo_bench::oracles::ORACLES;

/// Oracle names become metric names: lowercase, non-alphanumerics
/// collapsed to single underscores.
fn metric_slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

fn main() {
    let mut tol_scale = 1.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tol-scale" => {
                tol_scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|v: &f64| v.is_finite() && *v >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("error: --tol-scale needs a non-negative number");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: validate_oracles [--tol-scale X]");
                std::process::exit(2);
            }
        }
    }
    // Per-oracle relative errors land here as gauges so tolerance drift
    // is visible in CI logs long before a check actually flips to FAIL.
    let metrics = albireo_obs::metrics::Registry::new();
    let mut failed = 0u64;
    for (name, check) in ORACLES {
        let (passed, detail, rel_error) = check.run(tol_scale);
        if let Some(rel_error) = rel_error {
            metrics
                .gauge(&format!("oracle.{}.rel_error", metric_slug(name)))
                .set(rel_error);
        }
        failed += u64::from(!passed);
        println!(
            "[{}] {name}: {detail}",
            if passed { "PASS" } else { "FAIL" }
        );
    }
    let passed = ORACLES.len() as u64 - failed;
    metrics.counter("oracle.checks.passed").add(passed);
    metrics.counter("oracle.checks.failed").add(failed);
    println!("\nmetrics snapshot ({}):", albireo_obs::SCHEMA);
    println!("{}", metrics.snapshot().to_json());
    println!("\n{passed} passed, {failed} failed");
    if failed > 0 {
        std::process::exit(1);
    }
}
