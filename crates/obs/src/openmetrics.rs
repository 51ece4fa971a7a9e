//! OpenMetrics / Prometheus text exposition for the metrics registry.
//!
//! Renders a [`MetricsSnapshot`] — counters, gauges and quantile
//! sketches — in the OpenMetrics text format, so a run's metrics can be
//! scraped, diffed, or loaded into any Prometheus-compatible tooling:
//!
//! * counters become `<name>_total` samples of type `counter`;
//! * gauges stay plain samples of type `gauge`;
//! * quantile sketches become `summary` families with
//!   `quantile="0.5|0.95|0.99|0.999"` samples, `_count`, and a
//!   bucket-midpoint `_sum` estimate.
//!
//! [`render_series`] takes `(virtual_seconds, snapshot)` points — one
//! per checkpoint boundary of a long `serve --checkpoint-every` run —
//! and emits every point as a timestamped sample under a single
//! `# TYPE` header per family, leaving a scrape-able time series in one
//! file. Metric names are sanitized to the OpenMetrics charset
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`; the registry's `.` separators become
//! `_`). Output is a pure function of the snapshots: byte-identical
//! across thread counts and across interrupt+resume.

use crate::metrics::MetricsSnapshot;
use crate::sketch::{bucket_bounds, QuantileSketch};

/// Quantiles exposed for each sketch family (matches
/// [`QuantileSketch::to_json_fragment`]).
pub const SUMMARY_QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// A registry metric name, folded into the OpenMetrics charset.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Deterministic sample-value rendering: integers stay integral,
/// everything else uses Rust's shortest round-trip float form.
fn num(v: f64) -> String {
    if !v.is_finite() {
        if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn ts_suffix(ts: Option<f64>) -> String {
    match ts {
        Some(t) => format!(" {t:.3}"),
        None => String::new(),
    }
}

/// Geometric-midpoint estimate of the sum over a sketch's samples
/// (zeros contribute zero), for the summary `_sum` line.
fn sketch_sum_estimate(s: &QuantileSketch) -> f64 {
    s.nonzero_buckets()
        .iter()
        .map(|&(i, c)| {
            let (lo, hi) = bucket_bounds(i);
            c as f64 * (lo * hi).sqrt()
        })
        .sum()
}

struct Writer {
    out: String,
}

impl Writer {
    fn family(&mut self, name: &str, kind: &str) {
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    fn sample(&mut self, name: &str, labels: &str, value: &str, ts: Option<f64>) {
        self.out
            .push_str(&format!("{name}{labels} {value}{}\n", ts_suffix(ts)));
    }
}

fn union_names<'a, T>(
    points: &'a [(Option<f64>, &MetricsSnapshot)],
    pick: impl Fn(&'a MetricsSnapshot) -> &'a [(String, T)],
) -> Vec<&'a str>
where
    T: 'a,
{
    let mut names: Vec<&str> = Vec::new();
    for (_, snap) in points {
        for (name, _) in pick(snap) {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    names.sort_unstable();
    names
}

fn lookup<'a, T>(list: &'a [(String, T)], name: &str) -> Option<&'a T> {
    list.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn render_points(points: &[(Option<f64>, &MetricsSnapshot)]) -> String {
    let mut w = Writer { out: String::new() };
    for name in union_names(points, |s| s.counters.as_slice()) {
        let m = sanitize_name(name);
        w.family(&m, "counter");
        for (ts, snap) in points {
            if let Some(v) = lookup(&snap.counters, name) {
                w.sample(&format!("{m}_total"), "", &v.to_string(), *ts);
            }
        }
    }
    for name in union_names(points, |s| s.gauges.as_slice()) {
        let m = sanitize_name(name);
        w.family(&m, "gauge");
        for (ts, snap) in points {
            if let Some(v) = lookup(&snap.gauges, name) {
                w.sample(&m, "", &num(*v), *ts);
            }
        }
    }
    for name in union_names(points, |s| s.sketches.as_slice()) {
        let m = sanitize_name(name);
        w.family(&m, "summary");
        for (ts, snap) in points {
            let Some(s) = lookup(&snap.sketches, name) else {
                continue;
            };
            for q in SUMMARY_QUANTILES {
                w.sample(
                    &m,
                    &format!("{{quantile=\"{}\"}}", num(q)),
                    &num(s.quantile(q)),
                    *ts,
                );
            }
            w.sample(&format!("{m}_count"), "", &s.count().to_string(), *ts);
            w.sample(&format!("{m}_sum"), "", &num(sketch_sum_estimate(s)), *ts);
        }
    }
    w.out.push_str("# EOF\n");
    w.out
}

/// One snapshot, no timestamps.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    render_points(&[(None, snapshot)])
}

/// A time series of `(virtual_seconds, snapshot)` points — typically
/// one per checkpoint boundary, last point the end of run. Each family
/// gets one `# TYPE` header and one timestamped sample per point.
pub fn render_series(points: &[(f64, MetricsSnapshot)]) -> String {
    let refs: Vec<(Option<f64>, &MetricsSnapshot)> =
        points.iter().map(|(t, s)| (Some(*t), s)).collect();
    render_points(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("serve.offered").add(100);
        r.counter("serve.shed").add(3);
        r.gauge("fleet.chips").set(4.0);
        r.sketch("latency_ms").observe(1.0);
        r.sketch("latency_ms").observe(8.0);
        r
    }

    #[test]
    fn renders_every_kind_with_eof() {
        let text = render(&sample_registry().snapshot());
        assert!(text.contains("# TYPE serve_offered counter\n"));
        assert!(text.contains("serve_offered_total 100\n"));
        assert!(text.contains("# TYPE fleet_chips gauge\n"));
        assert!(text.contains("fleet_chips 4\n"));
        assert!(text.contains("# TYPE latency_ms summary\n"));
        assert!(text.contains("latency_ms{quantile=\"0.5\"}"));
        assert!(text.contains("latency_ms_count 2\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn series_emits_one_header_and_timestamped_samples() {
        let r = Registry::new();
        r.counter("reqs").add(10);
        let early = r.snapshot();
        r.counter("reqs").add(5);
        let late = r.snapshot();
        let text = render_series(&[(60.0, early), (120.0, late)]);
        assert_eq!(text.matches("# TYPE reqs counter").count(), 1);
        assert!(text.contains("reqs_total 10 60.000\n"));
        assert!(text.contains("reqs_total 15 120.000\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn names_are_sanitized_to_the_openmetrics_charset() {
        assert_eq!(sanitize_name("serve.class[a].p99"), "serve_class_a__p99");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_name("µops"), "_ops");
        let r = Registry::new();
        r.counter("weird.name with spaces").add(1);
        let text = render(&r.snapshot());
        assert!(text.contains("weird_name_with_spaces_total 1\n"));
    }

    #[test]
    fn empty_snapshot_renders_bare_eof() {
        assert_eq!(render(&MetricsSnapshot::default()), "# EOF\n");
    }

    #[test]
    fn output_is_deterministic() {
        let a = render(&sample_registry().snapshot());
        let b = render(&sample_registry().snapshot());
        assert_eq!(a, b);
    }
}
