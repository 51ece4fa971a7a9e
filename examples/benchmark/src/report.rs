//! The metrics a run collects and the two renderings of them: the
//! one-line result every run ends with, and the full report `--out`
//! writes.

use crate::stats;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.analog.conv2d_s", "s"),
    ("core.analog.net.AlexNet_s", "s"),
    ("core.analog.net.VGG16_s", "s"),
    ("core.analog.net.ResNet18_s", "s"),
    ("core.analog.net.MobileNet_s", "s"),
    ("core.analog.kind.dense_s1_s", "s"),
    ("core.analog.kind.strided_s", "s"),
    ("core.analog.kind.large_kernel_s", "s"),
    ("core.analog.kind.depthwise_s", "s"),
    ("core.analog.kind.pointwise_s", "s"),
    ("core.analog.ns_per_mac", "ns"),
    ("core.analog.dot_s", "s"),
    ("core.analog.engine_new_s", "s"),
    ("core.analog.macs", "count"),
    ("core.analog.calls", "count"),
    ("core.analog.err_fs", "ratio"),
    ("tensor.conv2d_grouped_s", "s"),
    ("analog.rails.self_s", "s"),
    ("analog.detect.self_s", "s"),
    ("analog.rails_share", "ratio"),
    ("runtime.sim.simulate_s", "s"),
    ("runtime.sim.ns_per_request", "ns"),
    ("runtime.workload.stream_s", "s"),
    ("runtime.sim.des_s", "s"),
    ("runtime.fleet.parse_s", "s"),
    ("runtime.report.to_json_s", "s"),
    ("runtime.sim.offered", "count"),
    ("runtime.sim.completed", "count"),
    ("runtime.sim.shed", "count"),
    ("runtime.sim.batches", "count"),
    ("runtime.sim.peak_event_queue", "count"),
    ("runtime.sim.sketch_buckets", "count"),
    ("runtime.sim.alert_events", "count"),
    ("runtime.sim.fault_events", "count"),
    ("runtime.queue.push.self_s", "s"),
    ("runtime.queue.pop.self_s", "s"),
    ("runtime.queue.calls", "count"),
    ("plan.search.plan_s", "s"),
    ("plan.search.s_per_sim", "s"),
    ("plan.spec.parse_s", "s"),
    ("plan.report.to_json_s", "s"),
    ("plan.candidates", "count"),
    ("plan.screened", "count"),
    ("plan.pruned", "count"),
    ("plan.scored", "count"),
    ("plan.feasible", "count"),
    ("plan.pruned_ratio", "ratio"),
    ("parallel.plan_speedup", "ratio"),
    ("bench.warmup_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.wall_s_q1", "s"),
    ("bench.wall_s_q3", "s"),
    ("bench.wall_s_p90", "s"),
    ("bench.raw_wall_s", "s"),
    ("bench.host_speed", "ratio"),
];

/// The unit of a metric named in [`END_TO_END`] or [`PER_LAYER`].
///
/// # Panics
///
/// Panics on a name in neither list: every metric a workload records
/// must be declared, so the lists stay the single source of names.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"))
}

/// Samples per metric name; a metric's value is the median of its
/// samples.
#[derive(Debug, Default)]
pub struct Metrics {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Metrics {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds, for every metric in `batch`, its median times `scale`.
    pub fn push_medians(&mut self, batch: &Metrics, scale: f64) {
        for (&name, samples) in &batch.samples {
            let median = stats::median(samples).expect("recorded metrics have samples");
            self.push(name, median * scale);
        }
    }

    /// The samples recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median of `name`'s samples.
    pub fn value(&self, name: &str) -> Option<f64> {
        stats::median(self.samples(name))
    }
}

/// One named output check.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Facts about the host and the run, recorded in the full report.
#[derive(Debug)]
pub struct RunFacts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    pub threads: usize,
    pub timed_units: usize,
    pub traced_units: usize,
}

/// Renders a number for JSON: full precision, and 0 for a value JSON
/// cannot carry (no metric a run records is legitimately non-finite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    albireo_obs::json_escape(s)
}

/// The result line: `correct`, `attempted`, `failed`, and the value and
/// unit of every metric in `names`.
pub fn result_line(
    metrics: &Metrics,
    names: &[(&str, &str)],
    attempted: usize,
    failed: usize,
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(metrics.value(name).unwrap_or(0.0))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The full report: run and host facts, every check, and every recorded
/// metric with its sample count and quartiles.
pub fn full_report(
    facts: &RunFacts,
    metrics: &Metrics,
    checks: &[Check],
    attempted: usize,
    failed: usize,
) -> String {
    let mut s = String::from("{\n  \"schema\": \"albireo.benchmark/v1\",\n");
    s.push_str(&format!(
        "  \"run\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"timed_units\": {}, \"traced_units\": {}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"correct\": {}}},\n",
        escape(&facts.workload),
        facts.seed,
        num(facts.seconds),
        facts.trace,
        facts.timed_units,
        facts.traced_units,
        failed == 0
    ));
    s.push_str(&format!(
        "  \"host\": {{\"nproc\": {}, \"threads\": {}, \"build\": \"{}\", \"os\": \"{}\", \
         \"arch\": \"{}\"}},\n",
        facts.nproc,
        facts.threads,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        std::env::consts::OS,
        std::env::consts::ARCH
    ));
    s.push_str("  \"checks\": [");
    for (i, c) in checks.iter().enumerate() {
        s.push_str(&format!(
            "{}\n    {{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
            if i == 0 { "" } else { "," },
            escape(&c.name),
            c.ok,
            escape(&c.detail)
        ));
    }
    s.push_str(if checks.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"metrics\": {");
    let mut first = true;
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let samples = metrics.samples(name);
        let Some((q1, med, q3)) = stats::quartiles(samples) else {
            continue;
        };
        s.push_str(&format!(
            "{}\n    \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"samples\": {}, \
             \"q1\": {}, \"median\": {}, \"q3\": {}}}",
            if first { "" } else { "," },
            num(med),
            samples.len(),
            num(q1),
            num(med),
            num(q3)
        ));
        first = false;
    }
    s.push_str(if first { "}\n" } else { "\n  }\n" });
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "duplicate metric {name}");
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_line_carries_every_named_metric() {
        let mut m = Metrics::default();
        m.push("wall_s", 2.0);
        m.push("wall_s", 1.0);
        m.push("wall_s", 3.0);
        let line = result_line(&m, END_TO_END, 4, 0);
        let v = albireo_obs::jsonv::parse(&line).expect("valid JSON");
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(4.0));
        let metrics = v.get("metrics").unwrap();
        let wall = metrics.get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(2.0));
        assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("s"));
        assert_eq!(metrics.as_obj().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_rejected() {
        Metrics::default().push("no.such.metric", 1.0);
    }
}
