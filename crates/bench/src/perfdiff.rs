//! The perf-regression gate behind `albireo perf-diff`.
//!
//! Compares two performance JSON files — `BENCH_*.json` reports or
//! `albireo.profile/v1` phase trees — metric by metric, and flags
//! regressions beyond a relative threshold. Both files are flattened
//! with [`albireo_obs::jsonv::Value::flatten_numbers`], which keys array
//! rows by their `name`/`path`/`label`/`fleet` member, so rows still
//! match when the two files order their entries differently; rows that
//! share a member are keyed by occurrence, so none is dropped.
//!
//! Each leaf is classified by clock (DESIGN.md §15). Only wall-clock
//! leaves participate in the gate: times regress upward, throughput and
//! speedup regress downward. A profile phase's `total_ns` and `self_ns`
//! sum over its `calls`, and two runs make different numbers of calls,
//! so the gate compares them per call. Virtual-clock leaves — the
//! serving DES's latency quantiles and goodput, which digests already
//! pin — are model outputs: a difference is reported as `model output
//! changed`, never as a regression. Everything else (counts, digests,
//! energy models, configuration echoes) is ignored — the gate judges
//! measured performance, not simulated physics.

use albireo_obs::jsonv;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Wall-clock leaf names (the last `.`-separated path segment) where
/// larger is slower: run times and a phase's time per call.
const LOWER_IS_BETTER: &[&str] = &[
    "wall_ms",
    "serial_wall_ms",
    "disabled_ms",
    "enabled_ms",
    "total_ns_per_call",
    "self_ns_per_call",
];

/// Leaves that sum over their row's `calls`: gated only as
/// `<leaf>_per_call`, which [`per_call`] derives. A row without `calls`
/// (a profile's `roots`, which repeat their phase rows) leaves them
/// ungated. A phase's `min_ns` and `max_ns` time single calls, which one
/// preemption moves, so they are not gated either.
const PER_CALL: &[&str] = &["total_ns", "self_ns"];

/// Wall-clock leaf names where larger is faster: throughput and speedup.
const HIGHER_IS_BETTER: &[&str] = &["speedup", "candidates_per_s", "sim_requests_per_s"];

/// Virtual-clock leaf names: the serving DES's outputs, never gated.
const VIRTUAL_CLOCK: &[&str] = &[
    "p50_ms",
    "p90_ms",
    "p95_ms",
    "p99_ms",
    "p999_ms",
    "healthy_p99_ms",
    "mean_latency_ms",
    "mean_wait_ms",
    "goodput_rps",
];

/// One metric present in both files, with the gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Flattened metric path, e.g. `phases.sim.engine.total_ns`.
    pub metric: String,
    /// Value in the old (baseline) file.
    pub old: f64,
    /// Value in the new (candidate) file.
    pub new: f64,
    /// `new / old` (∞ when old is 0 and new is not).
    pub ratio: f64,
    /// Whether the change crosses the threshold in the slow direction.
    pub regression: bool,
}

/// The comparison of two performance files.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDiff {
    /// Every wall-clock metric present in both files, path order.
    pub rows: Vec<DiffRow>,
    /// Virtual-clock metrics present in both files whose value differs:
    /// model outputs, never regressions.
    pub model_changes: Vec<DiffRow>,
    /// The relative threshold, percent.
    pub threshold_pct: f64,
    /// Classified metrics only the old file has (renamed or removed).
    pub only_old: Vec<String>,
    /// Classified metrics only the new file has.
    pub only_new: Vec<String>,
}

/// The clock a leaf is measured on, and for wall-clock leaves which way
/// it regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    /// Wall clock, larger is slower.
    WallLowerIsBetter,
    /// Wall clock, larger is faster.
    WallHigherIsBetter,
    /// Virtual clock: a model output.
    Virtual,
}

/// The clock class of a flattened path, if its leaf is classified.
fn clock(path: &str) -> Option<Clock> {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if LOWER_IS_BETTER.contains(&leaf) {
        Some(Clock::WallLowerIsBetter)
    } else if HIGHER_IS_BETTER.contains(&leaf) {
        Some(Clock::WallHigherIsBetter)
    } else if VIRTUAL_CLOCK.contains(&leaf) {
        Some(Clock::Virtual)
    } else {
        None
    }
}

/// `values` plus `<row>.<leaf>_per_call` for every [`PER_CALL`] leaf
/// whose row has a positive `calls`.
fn per_call(mut values: BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let derived: Vec<(String, f64)> = values
        .iter()
        .filter_map(|(path, &sum)| {
            let (row, leaf) = path.rsplit_once('.')?;
            let calls = *values.get(&format!("{row}.calls"))?;
            (PER_CALL.contains(&leaf) && calls > 0.0)
                .then(|| (format!("{path}_per_call"), sum / calls))
        })
        .collect();
    values.extend(derived);
    values
}

fn classified(values: BTreeMap<String, f64>) -> BTreeMap<String, (f64, Clock)> {
    values
        .into_iter()
        .filter_map(|(path, v)| clock(&path).map(|c| (path, (v, c))))
        .collect()
}

impl PerfDiff {
    /// Parses and compares two performance JSON texts. `threshold_pct`
    /// is the relative slack: a lower-is-better metric regresses when
    /// `new > old * (1 + pct/100)`, a higher-is-better one when
    /// `new < old * (1 - pct/100)`.
    pub fn compare(old: &str, new: &str, threshold_pct: f64) -> Result<PerfDiff, String> {
        if !(threshold_pct.is_finite() && threshold_pct >= 0.0) {
            return Err("threshold must be a non-negative percentage".into());
        }
        let old = jsonv::parse(old).map_err(|e| format!("old file: {e}"))?;
        let new = jsonv::parse(new).map_err(|e| format!("new file: {e}"))?;
        let old = classified(per_call(old.flatten_numbers()));
        let mut new = classified(per_call(new.flatten_numbers()));
        let slack = threshold_pct / 100.0;
        let mut rows = Vec::new();
        let mut model_changes = Vec::new();
        let mut only_old = Vec::new();
        for (path, (o, clock)) in old {
            let Some((n, _)) = new.remove(&path) else {
                only_old.push(path);
                continue;
            };
            let ratio = if o == 0.0 {
                if n == 0.0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                n / o
            };
            let mut row = DiffRow {
                metric: path,
                old: o,
                new: n,
                ratio,
                regression: false,
            };
            match clock {
                Clock::WallLowerIsBetter => {
                    row.regression = n > o * (1.0 + slack) + f64::EPSILON;
                    rows.push(row);
                }
                Clock::WallHigherIsBetter => {
                    row.regression = n < o * (1.0 - slack) - f64::EPSILON;
                    rows.push(row);
                }
                Clock::Virtual if o != n => model_changes.push(row),
                Clock::Virtual => {}
            }
        }
        Ok(PerfDiff {
            rows,
            model_changes,
            threshold_pct,
            only_old,
            only_new: new.into_keys().collect(),
        })
    }

    /// The rows that crossed the threshold in the slow direction.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regression)
    }

    /// Human-readable verdict: every regression with its ratio, every
    /// changed model output, any metrics present in only one file, and
    /// a summary count line.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let regressed: Vec<&DiffRow> = self.regressions().collect();
        for r in &regressed {
            let _ = writeln!(
                s,
                "REGRESSION {}  {:.6} -> {:.6}  ({:+.1}%)",
                r.metric,
                r.old,
                r.new,
                (r.ratio - 1.0) * 100.0
            );
        }
        for r in &self.model_changes {
            let _ = writeln!(
                s,
                "model output changed: {} {:.6} -> {:.6}",
                r.metric, r.old, r.new
            );
        }
        for path in &self.only_old {
            let _ = writeln!(s, "missing in new: {path}");
        }
        for path in &self.only_new {
            let _ = writeln!(s, "only in new: {path}");
        }
        let _ = writeln!(
            s,
            "{} metric(s) compared, {} regression(s) at threshold {}%",
            self.rows.len(),
            regressed.len(),
            self.threshold_pct
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
        "schema": "albireo.bench.parallel_sweep/v1",
        "rows": [
            {"name": "analog_conv", "wall_ms": 100.0, "speedup": 3.5, "digest": 12345},
            {"name": "gemm", "wall_ms": 50.0, "speedup": 2.0, "digest": 999}
        ],
        "combined_digest": 42
    }"#;

    fn with_wall(name_ms: &[(&str, f64, f64)]) -> String {
        let rows: Vec<String> = name_ms
            .iter()
            .map(|(n, w, s)| {
                format!("{{\"name\": \"{n}\", \"wall_ms\": {w}, \"speedup\": {s}, \"digest\": 1}}")
            })
            .collect();
        format!("{{\"rows\": [{}]}}", rows.join(", "))
    }

    #[test]
    fn identical_inputs_pass() {
        let d = PerfDiff::compare(OLD, OLD, 10.0).unwrap();
        assert_eq!(d.regressions().count(), 0);
        assert_eq!(d.rows.len(), 4, "two directional metrics per row");
        assert!(d.only_old.is_empty() && d.only_new.is_empty());
        assert!(d.render_text().contains("0 regression(s)"));
    }

    #[test]
    fn two_x_slowdown_regresses() {
        let new = with_wall(&[("analog_conv", 200.0, 3.5), ("gemm", 50.0, 2.0)]);
        let d = PerfDiff::compare(OLD, &new, 25.0).unwrap();
        let reg: Vec<&DiffRow> = d.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].metric, "rows.analog_conv.wall_ms");
        assert!((reg[0].ratio - 2.0).abs() < 1e-12);
        assert!(d
            .render_text()
            .contains("REGRESSION rows.analog_conv.wall_ms"));
    }

    #[test]
    fn speedup_drop_regresses_downward() {
        let new = with_wall(&[("analog_conv", 100.0, 1.0), ("gemm", 50.0, 2.0)]);
        let d = PerfDiff::compare(OLD, &new, 10.0).unwrap();
        let reg: Vec<&DiffRow> = d.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg[0].metric, "rows.analog_conv.speedup");
    }

    #[test]
    fn threshold_gives_slack() {
        let new = with_wall(&[("analog_conv", 108.0, 3.5), ("gemm", 50.0, 2.0)]);
        assert_eq!(
            PerfDiff::compare(OLD, &new, 10.0)
                .unwrap()
                .regressions()
                .count(),
            0
        );
        assert_eq!(
            PerfDiff::compare(OLD, &new, 5.0)
                .unwrap()
                .regressions()
                .count(),
            1
        );
    }

    #[test]
    fn neutral_metrics_are_ignored() {
        // Digest changes are not performance regressions.
        let new = OLD
            .replace("12345", "54321")
            .replace("\"combined_digest\": 42", "\"combined_digest\": 43");
        assert_eq!(
            PerfDiff::compare(OLD, &new, 0.0)
                .unwrap()
                .regressions()
                .count(),
            0
        );
    }

    #[test]
    fn renamed_rows_are_reported_not_gated() {
        let new = with_wall(&[("analog_conv2", 100.0, 3.5), ("gemm", 50.0, 2.0)]);
        let d = PerfDiff::compare(OLD, &new, 10.0).unwrap();
        assert_eq!(d.regressions().count(), 0);
        assert_eq!(
            d.only_old,
            vec![
                "rows.analog_conv.speedup".to_string(),
                "rows.analog_conv.wall_ms".to_string(),
            ]
        );
        assert_eq!(d.only_new.len(), 2);
        assert!(d.render_text().contains("missing in new"));
    }

    #[test]
    fn profile_reports_compare_phase_by_phase() {
        let old = r#"{
            "schema": "albireo.profile/v1",
            "attributed_fraction": 0.97,
            "roots": [{"name": "evaluate", "total_ns": 1000000, "self_ns": 5000, "coverage": 0.99}],
            "phases": [
                {"path": "evaluate", "calls": 1, "total_ns": 1000000, "self_ns": 5000, "min_ns": 1000000, "max_ns": 1000000},
                {"path": "evaluate.tensor.im2col", "calls": 8, "total_ns": 400000, "self_ns": 400000, "min_ns": 10, "max_ns": 90000}
            ]
        }"#;
        let slow = old.replace("\"total_ns\": 400000", "\"total_ns\": 900000");
        let d = PerfDiff::compare(old, &slow, 25.0).unwrap();
        let reg: Vec<&DiffRow> = d.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert_eq!(
            reg[0].metric,
            "phases.evaluate.tensor.im2col.total_ns_per_call"
        );
        assert_eq!(
            PerfDiff::compare(old, old, 0.0)
                .unwrap()
                .regressions()
                .count(),
            0
        );
    }

    /// Two profiles of the same code: the committed `BENCH_profile.json`
    /// rows of `analog.plan` and `analog.detect` before and after a change
    /// that sped detection up, where the faster build ran more calls in
    /// the same time target.
    fn profile(plan: (u64, u64), detect: (u64, u64, u64)) -> String {
        format!(
            r#"{{"schema": "albireo.profile/v1",
            "roots": [{{"name": "analog_conv", "total_ns": {root}, "self_ns": 800024, "coverage": 0.99}}],
            "phases": [
                {{"path": "analog_conv/analog.conv2d/analog.plan", "calls": {}, "total_ns": {}, "self_ns": {}, "min_ns": 30852, "max_ns": 46503}},
                {{"path": "analog_conv/analog.conv2d/analog.detect", "calls": {}, "total_ns": {}, "self_ns": {}, "min_ns": 935, "max_ns": {}}}
            ]}}"#,
            plan.0,
            plan.1,
            plan.1,
            detect.0,
            detect.1,
            detect.1,
            detect.2,
            root = plan.1 + detect.1,
        )
    }

    #[test]
    fn profile_phases_are_compared_per_call() {
        let old = profile((119, 4_754_106), (15_232, 63_168_184, 70_550));
        let new = profile((175, 5_610_541), (22_400, 43_235_871, 1_530_435));
        let d = PerfDiff::compare(&old, &new, 10.0).unwrap();
        assert_eq!(d.regressions().count(), 0, "{}", d.render_text());
        let plan = d
            .rows
            .iter()
            .find(|r| r.metric == "phases.analog_conv/analog.conv2d/analog.plan.total_ns_per_call")
            .expect("plan time per call is gated");
        assert!((plan.old - 39_950.5).abs() < 0.1 && (plan.new - 32_060.2).abs() < 0.1);
        // Sums, single-call extremes and the roots' totals are not gated.
        assert!(d.rows.iter().all(|r| r.metric.ends_with("_ns_per_call")));
        assert_eq!(d.rows.len(), 4);
        // The same runs with twice the calls compare equal; twice the time
        // in as many calls regresses.
        let doubled = profile((238, 9_508_212), (30_464, 126_336_368, 70_550));
        let d = PerfDiff::compare(&old, &doubled, 0.0).unwrap();
        assert_eq!(d.regressions().count(), 0, "{}", d.render_text());
        let slower = profile((119, 9_508_212), (15_232, 126_336_368, 70_550));
        let d = PerfDiff::compare(&old, &slower, 25.0).unwrap();
        assert_eq!(d.regressions().count(), 4);
    }

    #[test]
    fn a_change_in_a_repeated_row_is_reported() {
        let old = r#"{"runs": [
            {"fleet": "albireo_9+albireo_27", "rate_rps": 1000, "wall_ms": 2.0},
            {"fleet": "albireo_9+albireo_27", "rate_rps": 4000, "wall_ms": 5.0}
        ]}"#;
        for (from, to, metric) in [
            ("5.0", "6.5", "runs.albireo_9+albireo_27#2.wall_ms"),
            ("2.0", "2.6", "runs.albireo_9+albireo_27.wall_ms"),
        ] {
            let new = old.replace(
                &format!("\"wall_ms\": {from}"),
                &format!("\"wall_ms\": {to}"),
            );
            let d = PerfDiff::compare(old, &new, 10.0).unwrap();
            assert_eq!(d.rows.len(), 2, "both runs compared");
            let reg: Vec<&DiffRow> = d.regressions().collect();
            assert_eq!(reg.len(), 1, "{metric}");
            assert_eq!(reg[0].metric, metric);
            assert!((reg[0].ratio - 1.3).abs() < 1e-12);
        }
    }

    #[test]
    fn a_virtual_clock_change_is_reported_not_gated() {
        let old = r#"{"runs": [
            {"fleet": "albireo_9+albireo_27", "p50_ms": 1.0, "p99_ms": 2.0, "goodput_rps": 900.0}
        ], "serving_scale": {"wall_ms": 80.0, "sim_requests_per_s": 1.0e7}}"#;
        let new = old.replace("\"p99_ms\": 2.0", "\"p99_ms\": 2.6");
        let d = PerfDiff::compare(old, &new, 10.0).unwrap();
        assert_eq!(d.regressions().count(), 0);
        assert_eq!(d.rows.len(), 2, "only the wall-clock leaves are gated");
        let text = d.render_text();
        let changed: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("model output changed"))
            .collect();
        assert_eq!(
            changed,
            ["model output changed: runs.albireo_9+albireo_27.p99_ms 2.000000 -> 2.600000"]
        );
        assert!(text.contains("0 regression(s)"), "{text}");
    }

    #[test]
    fn bad_inputs_error() {
        assert!(PerfDiff::compare("not json", OLD, 10.0).is_err());
        assert!(PerfDiff::compare(OLD, "{", 10.0).is_err());
        assert!(PerfDiff::compare(OLD, OLD, -1.0).is_err());
        assert!(PerfDiff::compare(OLD, OLD, f64::NAN).is_err());
    }
}
