//! End-to-end tests of the `albireo` binary itself (spawned as a real
//! process, exercising argument parsing, exit codes, and output).

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_arguments_prints_usage() {
    let (stdout, _, ok) = run(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("COMMANDS"));
}

#[test]
fn evaluate_outputs_metrics() {
    let (stdout, _, ok) = run(&["evaluate", "alexnet", "--estimate", "c"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("AlexNet"));
    assert!(stdout.contains("latency"));
    assert!(stdout.contains("EDP"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("frobnicate"));
}

#[test]
fn unknown_network_fails_cleanly() {
    let (_, stderr, ok) = run(&["evaluate", "lenet"]);
    assert!(!ok);
    assert!(stderr.contains("lenet"));
}

#[test]
fn missing_option_value_is_a_parse_error() {
    let (_, stderr, ok) = run(&["evaluate", "vgg16", "--ng"]);
    assert!(!ok);
    assert!(stderr.contains("requires a value"));
}

#[test]
fn power_matches_table_iii() {
    let (stdout, _, ok) = run(&["power"]);
    assert!(ok);
    assert!(stdout.contains("22.7"), "{stdout}");
}

#[test]
fn sweep_end_to_end() {
    let (stdout, _, ok) = run(&[
        "sweep",
        "--param",
        "ng",
        "--values",
        "9,27",
        "--network",
        "alexnet",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Ng=9"));
    assert!(stdout.contains("Ng=27"));
}

#[test]
fn experiment_fig9_end_to_end() {
    let (stdout, _, ok) = run(&["experiment", "fig9"]);
    assert!(ok);
    assert!(stdout.contains("AWG"));
    assert!(stdout.contains("124") || stdout.contains("125"));
}

#[test]
fn precision_end_to_end() {
    let (stdout, _, ok) = run(&["precision", "--k2", "0.03", "--wavelengths", "20"]);
    assert!(ok);
    assert!(stdout.contains("crosstalk-limited"));
}

#[test]
fn threads_flag_is_accepted_everywhere() {
    let (stdout, _, ok) = run(&["evaluate", "vgg16", "--threads", "4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("VGG16"));
}

#[test]
fn threads_flag_rejects_garbage() {
    let (_, stderr, ok) = run(&["evaluate", "vgg16", "--threads", "many"]);
    assert!(!ok);
    assert!(stderr.contains("many"));
}

#[test]
fn output_is_identical_at_any_thread_count() {
    let (serial, _, ok) = run(&["evaluate", "vgg16", "--per-layer", "99", "--threads", "1"]);
    assert!(ok);
    for threads in ["2", "8"] {
        let (parallel, _, ok) = run(&[
            "evaluate",
            "vgg16",
            "--per-layer",
            "99",
            "--threads",
            threads,
        ]);
        assert!(ok);
        assert_eq!(parallel, serial, "output diverged at {threads} threads");
    }
}

#[test]
fn sweep_json_end_to_end() {
    let (stdout, _, ok) = run(&[
        "sweep",
        "--param",
        "ng",
        "--values",
        "9,27",
        "--json",
        "--network",
        "alexnet",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.trim_start().starts_with('['));
    assert!(stdout.trim_end().ends_with(']'));
    for key in [
        "\"design\"",
        "\"power_w\"",
        "\"area_mm2\"",
        "\"latency_s\"",
        "\"edp_mj_ms\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn bench_end_to_end_emits_schema() {
    let (stdout, _, ok) = run(&["bench", "--thread-counts", "1,2", "--target-ms", "1"]);
    assert!(ok, "{stdout}");
    for key in [
        "\"schema\": \"albireo.bench.parallel/v1\"",
        "\"thread_counts\": [1, 2]",
        "\"experiments\"",
        "\"paper_grid\"",
        "\"device_sweeps\"",
        "\"analog_conv\"",
        "\"wall_ms\"",
        "\"speedup\"",
        "\"total\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    assert!(stdout.contains("\"deterministic\": true"));
    assert!(!stdout.contains("\"deterministic\": false"));
}

#[test]
fn serve_end_to_end_prints_service_report() {
    let (stdout, _, ok) = run(&["serve", "--requests", "200", "--seed", "7"]);
    assert!(ok, "{stdout}");
    for key in [
        "serving report",
        "p50",
        "p95",
        "p99",
        "shed",
        "goodput",
        "mJ/request",
        "util",
        "albireo_9",
        "albireo_27",
        "digest",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
}

#[test]
fn serve_same_seed_is_byte_identical_at_any_thread_count() {
    let (baseline, _, ok) = run(&[
        "serve",
        "--requests",
        "200",
        "--seed",
        "7",
        "--threads",
        "1",
    ]);
    assert!(ok, "{baseline}");
    for threads in ["2", "8"] {
        let (other, _, ok) = run(&[
            "serve",
            "--requests",
            "200",
            "--seed",
            "7",
            "--threads",
            threads,
        ]);
        assert!(ok);
        assert_eq!(other, baseline, "serve diverged at {threads} threads");
    }
    // Replicated runs must also be thread-count invariant.
    let (rep1, _, ok1) = run(&[
        "serve",
        "--requests",
        "120",
        "--replicas",
        "3",
        "--threads",
        "1",
    ]);
    let (rep8, _, ok8) = run(&[
        "serve",
        "--requests",
        "120",
        "--replicas",
        "3",
        "--threads",
        "8",
    ]);
    assert!(ok1 && ok8);
    assert_eq!(rep1, rep8);
}

#[test]
fn serve_trace_is_byte_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join("albireo_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_for = |threads: &str| {
        let path = dir.join(format!("trace_t{threads}.json"));
        let path_str = path.to_str().unwrap().to_string();
        let (stdout, _, ok) = run(&[
            "serve",
            "--requests",
            "200",
            "--seed",
            "7",
            "--threads",
            threads,
            "--trace-out",
            &path_str,
        ]);
        assert!(ok, "{stdout}");
        let digest = stdout
            .lines()
            .find(|l| l.contains("trace events"))
            .and_then(|l| l.split("digest ").nth(1))
            .expect("digest note in output")
            .trim()
            .to_string();
        let trace = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (trace, digest)
    };
    let (baseline, base_digest) = trace_for("1");
    assert!(baseline.contains("\"traceEvents\""));
    assert!(baseline.contains("\"ph\": \"X\""), "no complete events");
    for threads in ["2", "4", "8"] {
        let (trace, digest) = trace_for(threads);
        assert_eq!(trace, baseline, "trace diverged at {threads} threads");
        assert_eq!(digest, base_digest, "digest diverged at {threads} threads");
    }
}

/// Tenant class names that need every kind of JSON escape: a quote, a
/// backslash, a control character and non-ASCII.
const HOSTILE_CLASSES: [&str; 3] = ["q\"uote", "back\\slash", "t\tab µs"];

#[test]
fn serve_json_end_to_end() {
    use albireo_obs::jsonv::{parse, Value};
    let jsonl = std::env::temp_dir().join(format!("albireo_serve_{}.jsonl", std::process::id()));
    let classes = format!(
        "{}:3:5,{}:1,{}:1:2",
        HOSTILE_CLASSES[0], HOSTILE_CLASSES[1], HOSTILE_CLASSES[2]
    );
    let (stdout, stderr, ok) = run(&[
        "serve",
        "--requests",
        "2000",
        "--rate",
        "60000",
        "--seed",
        "7",
        "--queue-cap",
        "16",
        "--classes",
        &classes,
        "--checkpoint-every",
        "0.005",
        "--report-jsonl",
        jsonl.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{stderr}");
    for key in [
        "\"schema\": \"albireo.bench.serving/v4\"",
        "\"latency_ms\"",
        "\"goodput_rps\"",
        "\"energy_per_request_mj\"",
        "\"chips\"",
        "\"digest\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    let report = parse(&stdout).expect("serve --json is valid JSON");
    let names: Vec<&str> = report
        .get("classes")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, HOSTILE_CLASSES);
    let alerts = report
        .get("alerts")
        .and_then(|a| a.get("events"))
        .and_then(Value::as_arr)
        .unwrap();
    assert!(!alerts.is_empty(), "this overload must fire alerts");
    for e in alerts {
        let class = e.get("class").and_then(Value::as_str).unwrap();
        assert!(HOSTILE_CLASSES.contains(&class), "{class:?}");
    }
    let text = std::fs::read_to_string(&jsonl).unwrap();
    std::fs::remove_file(&jsonl).ok();
    let mut alert_lines = 0;
    for line in text.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        if let Some(class) = v.get("class").and_then(Value::as_str) {
            assert!(HOSTILE_CLASSES.contains(&class), "{class:?}");
            alert_lines += 1;
        }
    }
    assert_eq!(alert_lines, alerts.len(), "{text}");
}

#[test]
fn serve_chip_failure_degrades_without_error() {
    let (stdout, _, ok) = run(&[
        "serve",
        "--requests",
        "300",
        "--rate",
        "4000",
        "--faults",
        "fail:1@0.01",
    ]);
    assert!(ok, "a mid-run chip failure must not error: {stdout}");
    assert!(stdout.contains("OFFLINE"), "{stdout}");
    assert!(!stdout.contains("completed 0 "), "{stdout}");
}

#[test]
fn plan_end_to_end_is_thread_count_invariant() {
    let run_at = |threads: &str| {
        run(&[
            "plan",
            "--slo",
            "p99<5ms",
            "--rate",
            "8000",
            "--requests",
            "400",
            "--screen-requests",
            "100",
            "--json",
            "--threads",
            threads,
        ])
    };
    let (baseline, _, ok) = run_at("1");
    assert!(ok, "{baseline}");
    for key in [
        "\"schema\": \"albireo.plan/v1\"",
        "\"winner\"",
        "\"frontier\"",
        "\"energy_per_request_mj\"",
        "\"digest\"",
    ] {
        assert!(baseline.contains(key), "missing {key} in {baseline}");
    }
    for threads in ["2", "8"] {
        let (other, _, ok) = run_at(threads);
        assert!(ok);
        assert_eq!(other, baseline, "plan diverged at {threads} threads");
    }
}

#[test]
fn plan_writes_report_and_frontier_csv() {
    let dir = std::env::temp_dir().join("albireo_plan_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("plan.json");
    let csv_path = dir.join("frontier.csv");
    let classes = format!(
        "{}:3,{}:1,{}:1",
        HOSTILE_CLASSES[0], HOSTILE_CLASSES[1], HOSTILE_CLASSES[2]
    );
    let (stdout, _, ok) = run(&[
        "plan",
        "--slo",
        "p99<5ms",
        "--rate",
        "8000",
        "--requests",
        "400",
        "--screen-requests",
        "100",
        "--classes",
        &classes,
        "--json",
        "--out",
        json_path.to_str().unwrap(),
        "--csv-out",
        csv_path.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(stdout.contains("digest"), "{stdout}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("albireo.plan/v1"));
    let plan = albireo_obs::jsonv::parse(&json).expect("plan --json is valid JSON");
    let spec = plan.get("spec").and_then(|s| s.as_str()).unwrap();
    assert!(spec.contains(&format!("classes={classes}")), "{spec}");
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(
        csv.starts_with("rank,fleet,chips,policy,autoscale,"),
        "{csv}"
    );
    assert!(csv.lines().count() >= 2, "{csv}");
    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn plan_without_slo_fails_with_usage_error() {
    let (_, stderr, ok) = run(&["plan"]);
    assert!(!ok);
    assert!(stderr.contains("--slo"), "{stderr}");
}

#[test]
fn bench_writes_json_file() {
    let dir = std::env::temp_dir().join("albireo_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_parallel.json");
    let path_str = path.to_str().unwrap();
    let (stdout, _, ok) = run(&[
        "bench",
        "--thread-counts",
        "1",
        "--target-ms",
        "1",
        "--out",
        path_str,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("wrote"));
    let written = std::fs::read_to_string(&path).unwrap();
    assert!(written.contains("albireo.bench.parallel/v1"));
    std::fs::remove_file(&path).ok();
}

/// Exit code and stderr of a run expected to fail.
fn run_failing(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(args)
        .output()
        .expect("binary runs");
    let code = out.status.code().expect("exited, not killed by a signal");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn perf_diff_rejects_deeply_nested_json_with_exit_2() {
    let path = std::env::temp_dir().join(format!("albireo_deep_{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000) + &"]".repeat(200_000)).unwrap();
    let deep = path.to_str().unwrap();
    let (code, stderr) = run_failing(&["perf-diff", deep, deep]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn non_finite_batching_policies_exit_2() {
    for policy in ["deadline:nan", "deadline:inf:4", "deadline:100:6:99"] {
        let (code, stderr) = run_failing(&["serve", "--requests", "50", "--policy", policy]);
        assert_eq!(code, 2, "{policy}: {stderr}");
        assert!(stderr.contains(&format!("policy `{policy}`")), "{stderr}");
    }
    let spec = "rate=2000;slo=p99<5ms;chips=albireo_9:C;requests=50;screen=10;\
                policies=immediate|deadline:nan";
    let (code, stderr) = run_failing(&["plan", "--spec", spec]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("expected finite deadline"), "{stderr}");
}

/// `text` with its `tag` line's value replaced by `value`, re-digested
/// so that only the resume checks can refuse it.
fn redigested(text: &str, tag: &str, value: &str) -> String {
    let (body, _) = text.rsplit_once("digest ").unwrap();
    let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
    let line = lines.iter_mut().find(|l| l.split(' ').next() == Some(tag));
    *line.expect("the tag has a line") = format!("{tag} {value}");
    let body = lines.join("\n") + "\n";
    format!(
        "{body}digest {:016x}\n",
        albireo_obs::fnv1a(body.as_bytes())
    )
}

#[test]
fn resume_with_a_wrong_offered_count_exits_2() {
    let path = std::env::temp_dir().join(format!("albireo_offered_{}.snap", std::process::id()));
    let snap = path.to_str().unwrap();
    let base = [
        "serve",
        "--requests",
        "2000",
        "--rate",
        "60000",
        "--seed",
        "7",
        "--checkpoint-every",
        "0.005",
    ];
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--checkpoint-out", snap, "--halt-after-checkpoints", "1"]);
    let (_, stderr, ok) = run(&argv);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).unwrap();
    let offered: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("offered "))
        .and_then(|v| v.parse().ok())
        .expect("an offered line");
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--resume", snap]);
    // One fewer offered still passes the reader's range checks; only
    // the replay at the checkpoint can refuse it.
    std::fs::write(
        &path,
        redigested(&text, "offered", &(offered - 1).to_string()),
    )
    .unwrap();
    let (code, stderr) = run_failing(&argv);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("diverges from the snapshot at checkpoint 1"),
        "{stderr}"
    );
    // Past the request count, the reader refuses it before any replay.
    std::fs::write(&path, redigested(&text, "offered", "2001")).unwrap();
    let (code, stderr) = run_failing(&argv);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("offered 2001 of 2000"), "{stderr}");
}

#[test]
fn resume_from_a_v1_snapshot_exits_2() {
    let path = std::env::temp_dir().join(format!("albireo_v1_{}.snap", std::process::id()));
    let snap = path.to_str().unwrap();
    // The head of an engine-state snapshot, correctly self-digested.
    let body = "albireo.snapshot/v1\nfingerprint 0123456789abcdef\nrequests 2000\nseed 7\n";
    let digest = albireo_obs::fnv1a(body.as_bytes());
    std::fs::write(&path, format!("{body}digest {digest:016x}\n")).unwrap();
    let (code, stderr) = run_failing(&["serve", "--requests", "2000", "--resume", snap]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("unsupported snapshot schema `albireo.snapshot/v1`"),
        "{stderr}"
    );
}

#[test]
fn resume_after_the_trace_changed_exits_2() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!("albireo_resume_trace_{}.jsonl", std::process::id()));
    let snap_path = dir.join(format!("albireo_resume_trace_{}.snap", std::process::id()));
    let (trace, snap) = (trace_path.to_str().unwrap(), snap_path.to_str().unwrap());
    let write_trace = |first_s: &str| {
        let rest: String = (1..300)
            .map(|i| format!("{{\"arrival_s\": {}}}\n", i as f64 * 1e-4))
            .collect();
        std::fs::write(&trace_path, format!("{{\"arrival_s\": {first_s}}}\n{rest}")).unwrap();
    };
    write_trace("0");
    let base = [
        "serve",
        "--trace-jsonl",
        trace,
        "--requests",
        "300",
        "--checkpoint-every",
        "0.01",
    ];
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--checkpoint-out", snap, "--halt-after-checkpoints", "2"]);
    let (_, stderr, ok) = run(&argv);
    assert!(ok, "{stderr}");
    // Edit the first arrival, long before the boundary: the arrival
    // after it is unchanged, but the replayed run is not the same.
    write_trace("0.00005");
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--resume", snap]);
    let (code, stderr) = run_failing(&argv);
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&snap_path).ok();
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("diverges from the snapshot at checkpoint 2"),
        "{stderr}"
    );
}

#[test]
fn resume_after_a_queued_request_changed_exits_2() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!(
        "albireo_resume_queued_{}.jsonl",
        std::process::id()
    ));
    let snap_path = dir.join(format!("albireo_resume_queued_{}.snap", std::process::id()));
    let (trace, snap) = (trace_path.to_str().unwrap(), snap_path.to_str().unwrap());
    // 100,000 rps alternating the two networks; `edited` flips line
    // `edited + 1`'s network.
    let write_trace = |edited: Option<usize>| {
        let text: String = (0..300)
            .map(|i| {
                let network = (i + usize::from(edited == Some(i))) % 2;
                format!(
                    "{{\"arrival_s\": {}, \"network\": {network}}}\n",
                    i as f64 * 1e-5
                )
            })
            .collect();
        std::fs::write(&trace_path, text).unwrap();
    };
    write_trace(None);
    let base = [
        "serve",
        "--trace-jsonl",
        trace,
        "--requests",
        "300",
        "--networks",
        "alexnet,vgg16",
        "--checkpoint-every",
        "0.001",
    ];
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--checkpoint-out", snap, "--halt-after-checkpoints", "1"]);
    let (_, stderr, ok) = run(&argv);
    assert!(ok, "{stderr}");
    // Line 51 is queued at checkpoint 1 (100 offered, 4 completed, 32
    // shed): no count or completed record covers it yet.
    write_trace(Some(50));
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--resume", snap]);
    let (code, stderr) = run_failing(&argv);
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&snap_path).ok();
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("diverges from the snapshot at checkpoint 1"),
        "{stderr}"
    );
    assert!(stderr.contains("arrival_fold"), "{stderr}");
}

#[test]
fn plan_with_a_huge_max_chips_exits_2() {
    for max in ["2000", "100000", "18446744073709551615"] {
        let started = std::time::Instant::now();
        let (code, stderr) = run_failing(&["plan", "--slo", "p99<5ms", "--max-chips", max]);
        assert_eq!(code, 2, "--max-chips {max}: {stderr}");
        assert!(stderr.contains("max-chips"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "--max-chips {max} took {:?}",
            started.elapsed()
        );
    }
}

#[test]
fn malformed_trace_jsonl_lines_exit_2_naming_file_and_line() {
    let path = std::env::temp_dir().join(format!("albireo_bad_trace_{}.jsonl", std::process::id()));
    let trace = path.to_str().unwrap();
    for (second_line, classes, expected) in [
        (r#"{"arrival_s": "later"}"#, None, "\"arrival_s\" must be"),
        (
            r#"{"arrival_s": 0.0005}"#,
            None,
            "must be sorted by arrival_s",
        ),
        (
            r#"{"arrival_s": 0.002, "network": 99}"#,
            None,
            "\"network\" 99",
        ),
        (
            r#"{"arrival_s": 0.002, "class": 7}"#,
            Some("vip:3:5,batch:1"),
            "\"class\" 7",
        ),
    ] {
        std::fs::write(&path, format!("{{\"arrival_s\": 0.001}}\n{second_line}\n")).unwrap();
        let mut argv = vec!["serve", "--trace-jsonl", trace, "--requests", "5"];
        if let Some(classes) = classes {
            argv.extend_from_slice(&["--classes", classes]);
        }
        let (code, stderr) = run_failing(&argv);
        assert_eq!(code, 2, "{second_line}: {stderr}");
        assert!(stderr.contains(&format!("{trace}:2: ")), "{stderr}");
        assert!(stderr.contains(expected), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// The command names in the COMMANDS section of `albireo help`: the
/// lines indented by exactly four spaces.
fn command_names() -> Vec<String> {
    let (help, _, ok) = run(&["help"]);
    assert!(ok);
    let section = help.split("COMMANDS:\n").nth(1).unwrap();
    let section = section.split("\n\n").next().unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| !l.starts_with(' '))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect()
}

#[test]
fn every_command_refuses_an_undeclared_option() {
    let names = command_names();
    assert_eq!(names.len(), 19, "{names:?}");
    for name in names {
        let (code, stderr) = run_failing(&[&name, "--bogus", "1"]);
        assert_eq!(code, 2, "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("`{name}` has no option --bogus")),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn misspelled_flags_and_surplus_positionals_exit_2() {
    for argv in [
        &["serve", "--reqests", "5"][..],
        &["serve", "--jsno", "--requests", "5"],
        &["evaluate", "vgg16", "resnet18"],
        &["perf-diff", "a", "b", "c"],
        &["networks", "x"],
        &["evaluate"],
    ] {
        let (code, stderr) = run_failing(argv);
        assert_eq!(code, 2, "{argv:?}: {stderr}");
    }
    let (_, stderr) = run_failing(&["evaluate", "vgg16", "resnet18"]);
    assert!(
        stderr.contains("unexpected argument `resnet18`"),
        "{stderr}"
    );
}

#[test]
fn command_help_prints_usage_and_runs_nothing() {
    let out = std::env::temp_dir().join(format!("albireo_help_{}.txt", std::process::id()));
    let path = out.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["serve", "--help", "--out", path]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("    serve      [--requests N]"), "{stdout}");
    assert!(stdout.contains("[--faults SPEC]"), "{stdout}");
    assert!(!stdout.contains("COMMANDS"), "only the serve row: {stdout}");
    assert!(!out.exists(), "--help must not run the command");
    for name in command_names() {
        let (stdout, stderr, ok) = run(&[&name, "--help"]);
        assert!(ok, "{name}: {stderr}");
        assert!(
            stdout.starts_with(&format!("    {name} ")),
            "{name}: {stdout}"
        );
    }
}

#[test]
fn plan_spec_refuses_every_shape_option() {
    let spec = "rate=2000;slo=p99<5ms;chips=albireo_9:C;requests=50;screen=10";
    let (code, stderr) = run_failing(&["plan", "--spec", spec, "--trace-jsonl", "t.jsonl"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("drop --trace-jsonl"), "{stderr}");
}

#[test]
fn serve_refuses_a_fault_clause_naming_no_chip() {
    let (code, stderr) = run_failing(&["serve", "--requests", "5", "--faults", "fail:7@0"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("names no chip of the 2-chip fleet"),
        "{stderr}"
    );
}

#[test]
fn plan_refuses_arrivals_it_cannot_hold_with_exit_2() {
    let max = usize::MAX.to_string();
    for (flag, requests, replicas) in [
        ("--replicas", "2000", max.as_str()),
        ("--requests", max.as_str(), "1"),
    ] {
        let (code, stderr) = run_failing(&["plan", "--slo", "p99<5ms", flag, &max]);
        assert_eq!(code, 2, "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{requests} requests × {replicas} replica(s) × 32 bytes = "
            )),
            "{flag}: {stderr}"
        );
    }
}

/// Spawns the binary with `args`, its stdout written to `stdout`, and
/// kills it if it has not exited after `seconds`: `None` then.
fn run_killed_after(
    args: &[&str],
    stdout: &std::path::Path,
    seconds: u64,
) -> Option<std::process::ExitStatus> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_albireo"))
        .args(args)
        .stdout(std::fs::File::create(stdout).unwrap())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");
    let started = std::time::Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        if started.elapsed() > std::time::Duration::from_secs(seconds) {
            child.kill().ok();
            child.wait().ok();
            return None;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

#[test]
fn a_deadline_that_rounds_to_infinity_still_finishes() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path = dir.join(format!("albireo_inf_deadline_{pid}.jsonl"));
    let progress_path = dir.join(format!("albireo_inf_deadline_{pid}.progress.jsonl"));
    let stdout_path = dir.join(format!("albireo_inf_deadline_{pid}.out"));
    // The first request's deadline, 1e308 + 1e308, rounds to +∞; the
    // second arrival ends the stream, which flushes the queue.
    std::fs::write(
        &trace_path,
        "{\"arrival_s\": 1e308}\n{\"arrival_s\": 1.5e308}\n",
    )
    .unwrap();
    let status = run_killed_after(
        &[
            "serve",
            "--trace-jsonl",
            trace_path.to_str().unwrap(),
            "--requests",
            "2",
            "--policy",
            "deadline_s:1e308:8",
            "--checkpoint-every",
            "1e306",
            "--report-jsonl",
            progress_path.to_str().unwrap(),
        ],
        &stdout_path,
        60,
    );
    let progress = std::fs::read_to_string(&progress_path).unwrap_or_default();
    let stdout = std::fs::read_to_string(&stdout_path).unwrap_or_default();
    for path in [&trace_path, &progress_path, &stdout_path] {
        std::fs::remove_file(path).ok();
    }
    let status = status.expect("the run ends within a minute");
    assert!(status.success(), "{status}: {stdout}");
    assert!(stdout.contains("completed 2  shed 0"), "{stdout}");
    // One line before each arrival: the last boundaries before 1e308 s
    // and 1.5e308 s.
    assert_eq!(progress.lines().count(), 2);
}

#[test]
fn a_warm_up_that_rounds_to_infinity_still_finishes() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace_path = dir.join(format!("albireo_inf_warmup_{pid}.jsonl"));
    let progress_path = dir.join(format!("albireo_inf_warmup_{pid}.progress.jsonl"));
    let stdout_path = dir.join(format!("albireo_inf_warmup_{pid}.out"));
    // Chip 0 serves all five requests; the queue spins chip 1 up, whose
    // warm-up, from 1e308 s plus 1e308 s, never ends.
    let arrivals: String = ["1e308", "1.1e308", "1.2e308", "1.3e308", "1.4e308"]
        .iter()
        .map(|t| format!("{{\"arrival_s\": {t}}}\n"))
        .collect();
    std::fs::write(&trace_path, arrivals).unwrap();
    let status = run_killed_after(
        &[
            "serve",
            "--trace-jsonl",
            trace_path.to_str().unwrap(),
            "--requests",
            "5",
            "--autoscale",
            "elastic:1:1e308:1",
            "--checkpoint-every",
            "1e306",
            "--report-jsonl",
            progress_path.to_str().unwrap(),
        ],
        &stdout_path,
        20,
    );
    let progress = std::fs::read_to_string(&progress_path).unwrap_or_default();
    let stdout = std::fs::read_to_string(&stdout_path).unwrap_or_default();
    for path in [&trace_path, &progress_path, &stdout_path] {
        std::fs::remove_file(path).ok();
    }
    let status = status.expect("the run ends within 20 s");
    assert!(status.success(), "{status}: {stdout}");
    assert!(stdout.contains("completed 5  shed 0"), "{stdout}");
    // One line before each of the five arrivals.
    assert_eq!(progress.lines().count(), 5);
}

/// Writes `arrivals` as a JSONL trace under a per-process name.
fn trace_file(name: &str, arrivals: &[&str]) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("albireo_{name}_{}.jsonl", std::process::id()));
    let text: String = arrivals
        .iter()
        .map(|t| format!("{{\"arrival_s\": {t}}}\n"))
        .collect();
    std::fs::write(&path, text).unwrap();
    path
}

/// A per-process scratch path for one output of the test `name`.
fn out_path(name: &str, what: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("albireo_{name}_{}.{what}", std::process::id()))
}

#[test]
fn an_idle_gap_writes_one_checkpoint_line() {
    // 10⁹ s at 1 ms per checkpoint is 10¹² boundaries with no event
    // between them; only the last one before the second arrival is
    // written.
    let trace = trace_file("idle_gap", &["0", "1e9"]);
    let (progress, stdout) = (
        out_path("idle_gap", "progress"),
        out_path("idle_gap", "out"),
    );
    let status = run_killed_after(
        &[
            "serve",
            "--trace-jsonl",
            trace.to_str().unwrap(),
            "--requests",
            "2",
            "--checkpoint-every",
            "0.001",
            "--report-jsonl",
            progress.to_str().unwrap(),
        ],
        &stdout,
        10,
    );
    let lines = std::fs::read_to_string(&progress).unwrap_or_default();
    let out = std::fs::read_to_string(&stdout).unwrap_or_default();
    for path in [&trace, &progress, &stdout] {
        std::fs::remove_file(path).ok();
    }
    let status = status.expect("the run ends within 10 s");
    assert!(status.success(), "{status}: {out}");
    assert!(out.contains("completed 2  shed 0"), "{out}");
    assert_eq!(lines.lines().count(), 1, "{lines}");
    assert!(lines.contains("\"checkpoint\": 1000000000000,"), "{lines}");
}

#[test]
fn a_halt_and_resume_across_idle_gaps_reproduce_the_run() {
    // Ten arrivals with gaps of up to 3.8 s: at 1 ms per checkpoint the
    // run crosses 7,000 boundaries, most of them idle. The halt asks for
    // checkpoint 700, which the gap before 1.0 s skips, so the run stops
    // at the first one after it.
    let arrivals = [
        "0", "0.25", "0.6", "1.0", "1.05", "1.9", "2.4", "2.45", "3.2", "7.0",
    ];
    let trace = trace_file("gap_resume", &arrivals);
    let paths = ["whole", "split", "snapshot", "a", "b", "c"].map(|w| out_path("gap_resume", w));
    let [whole, split, snapshot, out_a, out_b, out_c] =
        paths.each_ref().map(|p| p.to_str().unwrap());
    let serve = |extra: &[&str], stdout: &str| {
        let mut argv = vec![
            "serve",
            "--trace-jsonl",
            trace.to_str().unwrap(),
            "--requests",
            "10",
            "--checkpoint-every",
            "0.001",
        ];
        argv.extend_from_slice(extra);
        let status = run_killed_after(&argv, std::path::Path::new(stdout), 10);
        assert!(
            status.expect("the run ends within 10 s").success(),
            "{argv:?}"
        );
        std::fs::read_to_string(stdout).unwrap()
    };
    let report = serve(&["--report-jsonl", whole, "--json"], out_a);
    let halted = serve(
        &[
            "--report-jsonl",
            split,
            "--checkpoint-out",
            snapshot,
            "--halt-after-checkpoints",
            "700",
        ],
        out_b,
    );
    let resumed = serve(
        &["--report-jsonl", split, "--resume", snapshot, "--json"],
        out_c,
    );
    let (whole_lines, split_lines) = (
        std::fs::read_to_string(whole).unwrap(),
        std::fs::read_to_string(split).unwrap(),
    );
    for path in paths.iter().chain([&trace]) {
        std::fs::remove_file(path).ok();
    }
    assert!(
        halted.contains("halted after checkpoint 1000 (t=1s)"),
        "{halted}"
    );
    assert_eq!(report, resumed);
    assert_eq!(whole_lines, split_lines);
    // One line per arrival after a gap. Completions end 0.25 ms after
    // their arrivals and cross no boundary, except at 1.9 s: boundary
    // 1900 rounds to 1.9000000000000001 s, past that arrival.
    assert_eq!(whole_lines.lines().count(), 10, "{whole_lines}");
}

#[test]
fn a_checkpoint_interval_past_u64_ordinals_still_finishes() {
    // The first arrival sits on boundary 202 of 5e-324 s; the boundary
    // before its completion, 0.25 ms later, would be about the 5·10²⁰th,
    // past any u64 ordinal, so the series ends there.
    let trace = trace_file("tiny_every", &["1e-321", "1"]);
    let (progress, stdout) = (
        out_path("tiny_every", "progress"),
        out_path("tiny_every", "out"),
    );
    let status = run_killed_after(
        &[
            "serve",
            "--trace-jsonl",
            trace.to_str().unwrap(),
            "--requests",
            "2",
            "--checkpoint-every",
            "5e-324",
            "--report-jsonl",
            progress.to_str().unwrap(),
        ],
        &stdout,
        10,
    );
    let lines = std::fs::read_to_string(&progress).unwrap_or_default();
    let out = std::fs::read_to_string(&stdout).unwrap_or_default();
    for path in [&trace, &progress, &stdout] {
        std::fs::remove_file(path).ok();
    }
    let status = status.expect("the run ends within 10 s");
    assert!(status.success(), "{status}: {out}");
    assert!(out.contains("completed 2  shed 0"), "{out}");
    assert!(lines.lines().count() <= 1, "{lines}");
}

#[test]
fn a_repair_that_rounds_to_infinity_leaves_its_chip_down() {
    // Seed 6's one repair, at a 1e308 s mean, ends past f64::MAX.
    let faults = "fail:0@0.001,crews:1:1e308:6";
    let (stdout, stderr, ok) = run(&["serve", "--requests", "200", "--faults", faults]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("OFFLINE"), "{stdout}");
    assert!(stdout.contains("completed 200  shed 0"), "{stdout}");
    let (stdout, stderr, ok) = run(&[
        "plan",
        "--slo",
        "p99<5",
        "--requests",
        "200",
        "--max-chips",
        "2",
        "--faults",
        faults,
    ]);
    assert!(ok, "{stderr}");
    assert!(!stdout.is_empty());
}
