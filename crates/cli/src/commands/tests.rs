//! Unit tests of every command. Each runs through [`parse`] and
//! [`run`] as `main` does, so every flag a test passes is checked
//! against its command's row.

use super::*;
use crate::args::{GLOBAL_OPTIONS, GLOBAL_SWITCHES};

/// Runs `albireo <command> <argv...>`.
fn exec(command: &str, argv: &[&str]) -> Result<String, CliError> {
    let argv: Vec<String> = std::iter::once(command)
        .chain(argv.iter().copied())
        .map(String::from)
        .collect();
    let (command, args) = parse(&argv)?;
    run(command, &args)
}

#[test]
fn networks_lists_all_four() {
    let out = exec("networks", &[]).unwrap();
    for name in ["AlexNet", "VGG16", "ResNet18", "MobileNet"] {
        assert!(out.contains(name));
    }
}

#[test]
fn networks_lists_dense_extensions() {
    let out = exec("networks", &[]).unwrap();
    assert!(out.contains("MLP-Mixer"), "{out}");
    assert!(out.contains("Transformer-Enc"), "{out}");
}

#[test]
fn evaluate_prints_dataflow_comparison() {
    let out = exec("evaluate", &["alexnet"]).unwrap();
    assert!(out.contains("Dataflow comparison"), "{out}");
    assert!(out.contains("depth-first"), "{out}");
    assert!(out.contains("weight-stationary"), "{out}");
    assert!(out.contains("energy delta"), "{out}");
}

#[test]
fn evaluate_resolves_dense_network_aliases() {
    for name in ["mlp-mixer", "mixer", "transformer", "transformer-enc"] {
        let out = exec("evaluate", &[name]).unwrap();
        assert!(out.contains("latency"), "{name}: {out}");
    }
}

#[test]
fn evaluate_happy_path() {
    let out = exec("evaluate", &["vgg16", "--estimate", "m", "--ng", "27"]).unwrap();
    assert!(out.contains("VGG16"));
    assert!(out.contains("Albireo-M"));
    assert!(out.contains("Ng=27"));
}

#[test]
fn evaluate_per_layer_listing() {
    let out = exec("evaluate", &["alexnet", "--per-layer", "3"]).unwrap();
    assert!(out.contains("layer"));
    assert!(out.lines().count() > 5);
}

#[test]
fn evaluate_unknown_network() {
    let err = exec("evaluate", &["lenet"]).unwrap_err();
    assert!(err.to_string().contains("lenet"));
}

#[test]
fn power_reports_total() {
    let out = exec("power", &["--estimate", "conservative"]).unwrap();
    assert!(out.contains("22.7"), "{out}");
}

#[test]
fn area_reports_total() {
    let out = exec("area", &[]).unwrap();
    assert!(out.contains("125.1"), "{out}");
}

#[test]
fn precision_defaults_to_paper_point() {
    let out = exec("precision", &[]).unwrap();
    assert!(out.contains("k²=0.03"));
    assert!(out.contains("crosstalk-limited"));
}

#[test]
fn precision_rejects_bad_k2() {
    assert!(exec("precision", &["--k2", "2.0"]).is_err());
    assert!(exec("precision", &["--wavelengths", "0"]).is_err());
}

#[test]
fn trace_shows_writebacks() {
    let out = exec("trace", &["--rows", "1", "--cols", "5", "--channels", "9"]).unwrap();
    assert!(out.contains("write"));
    assert!(out.contains("3 cycles"));
}

#[test]
fn sweep_requires_param_and_values() {
    assert!(exec("sweep", &["--values", "3,9"]).is_err());
    assert!(exec("sweep", &["--param", "ng"]).is_err());
    let out = exec("sweep", &["--param", "ng", "--values", "3,9"]).unwrap();
    assert!(out.contains("Ng=3"));
    assert!(out.contains("Ng=9"));
}

#[test]
fn sweep_rejects_unknown_param() {
    let err = exec("sweep", &["--param", "nz", "--values", "1"]).unwrap_err();
    assert!(err.to_string().contains("nz"));
}

#[test]
fn compare_includes_all_baselines() {
    let out = exec("compare", &["--network", "alexnet"]).unwrap();
    for name in [
        "PIXEL",
        "DEAP-CNN",
        "Albireo-27",
        "Eyeriss",
        "ENVISION",
        "UNPU",
    ] {
        assert!(out.contains(name), "missing {name} in {out}");
    }
}

#[test]
fn compare_includes_operating_modes() {
    // Winograd supports every network (direct fallback); the GEMM
    // mode only appears for dense/pointwise networks — compare's
    // supports() filter hides it on spatial CNNs.
    let cnn = exec("compare", &["--network", "vgg16"]).unwrap();
    assert!(cnn.contains("Winograd"), "{cnn}");
    assert!(!cnn.contains("GEMM"), "{cnn}");
    let dense = exec("compare", &["--network", "mlp-mixer"]).unwrap();
    assert!(dense.contains("GEMM"), "{dense}");
    assert!(dense.contains("Winograd"), "{dense}");
}

#[test]
fn serve_rejects_fleet_that_cannot_serve_the_mix() {
    // A gemm-only fleet has no chip that can schedule AlexNet's
    // spatial convolutions: a typed usage error (exit 2), no panic.
    let err = exec(
        "serve",
        &[
            "--fleet",
            "gemm:C",
            "--networks",
            "alexnet",
            "--requests",
            "10",
        ],
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("supports network"), "{err}");
}

#[test]
fn serve_heterogeneous_mode_fleet_serves_mixed_networks() {
    let out = exec(
        "serve",
        &[
            "--fleet",
            "albireo_9:C,winograd:C,gemm:C",
            "--networks",
            "vgg16,mlp-mixer",
            "--requests",
            "60",
            "--seed",
            "7",
        ],
    )
    .unwrap();
    assert!(out.contains("goodput"), "{out}");
}

#[test]
fn experiment_dispatch() {
    let out = exec("experiment", &["fig9"]).unwrap();
    assert!(out.contains("area breakdown"));
    let err = exec("experiment", &["nonsense"]).unwrap_err().to_string();
    // The hint lists every registered name, in section order.
    assert!(err.contains("try: all, table1, table2, fig3"), "{err}");
    assert!(err.ends_with("fidelity, summary)"), "{err}");
}

#[test]
fn dispatch_routes_and_rejects() {
    assert!(exec("networks", &[]).is_ok());
    assert!(exec("help", &[]).unwrap().contains("USAGE"));
    assert!(exec("frobnicate", &[]).is_err());
}

#[test]
fn faults_command_reports_degradation() {
    let healthy = exec("faults", &[]).unwrap();
    assert!(healthy.contains("0 fault(s)"));
    let broken = exec("faults", &["--dead-channel", "1"]).unwrap();
    assert!(broken.contains("1 fault(s)"));
    assert!(broken.contains("degradation"));
}

#[test]
fn faults_command_validates_triples() {
    assert!(exec("faults", &["--dead-ring", "1,2"]).is_err());
    assert!(exec("faults", &["--stuck-mzm", "1,2"]).is_err());
    assert!(exec("faults", &["--dead-ring", "1,2,3"]).is_ok());
    assert!(exec("faults", &["--stuck-mzm", "0,0,0.5"]).is_ok());
    assert!(exec("faults", &["--stuck-mzm", "2,2,-1", "--dead-channel", "6"]).is_ok());
    // Every fault must name a device of the 3x3 reference convolution on
    // the Nd = 5 chip; the error names the bound.
    for (flag, value, bound) in [
        ("--dead-ring", "3,0,0", "must be < 3"),
        ("--dead-ring", "0,99,0", "must be < 3"),
        ("--dead-ring", "0,0,5", "output must be < Nd = 5"),
        ("--stuck-mzm", "50,50,0.5", "must be < 3"),
        ("--dead-channel", "7", "must be < Nd + 2 = 7"),
        ("--dead-channel", "99", "must be < Nd + 2 = 7"),
    ] {
        let err = exec("faults", &[flag, value]).unwrap_err();
        assert!(err.to_string().contains(bound), "{flag} {value}: {err}");
        assert_eq!(err.exit_code(), 2);
    }
    for weight in ["nan", "inf", "5", "-7", "1.0001"] {
        let err = exec("faults", &["--stuck-mzm", &format!("0,0,{weight}")]).unwrap_err();
        assert!(err.to_string().contains("in [-1, 1]"), "{weight}: {err}");
    }
}

#[test]
fn faults_command_rejects_bad_dead_channel() {
    let err = exec("faults", &["--dead-channel", "broken"]).unwrap_err();
    assert!(err.to_string().contains("dead-channel"), "{err}");
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn errors_carry_exit_codes() {
    let usage = CliError::Usage("nope".into());
    assert_eq!(usage.exit_code(), 2);
    assert!(usage.is_usage());
    let io = CliError::Io("cannot write /nope: denied".into());
    assert_eq!(io.exit_code(), 1);
    assert!(!io.is_usage());
}

#[test]
fn extension_networks_evaluate() {
    for name in ["vgg19", "resnet34", "mobilenet-0.5", "tiny"] {
        let out = exec("evaluate", &[name]).unwrap();
        assert!(out.contains("latency"), "{name}: {out}");
    }
}

#[test]
fn stride_penalty_flag_changes_result() {
    let with = exec("evaluate", &["alexnet"]).unwrap();
    let without = exec("evaluate", &["alexnet", "--no-stride-penalty"]).unwrap();
    assert_ne!(with, without);
}

#[test]
fn sweep_json_emits_machine_readable_points() {
    let out = exec("sweep", &["--param", "ng", "--values", "3,9", "--json"]).unwrap();
    assert!(out.trim_start().starts_with('['));
    assert!(out.trim_end().ends_with(']'));
    for key in [
        "\"design\"",
        "\"power_w\"",
        "\"latency_s\"",
        "\"edp_mj_ms\"",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    assert_eq!(out.matches("\"design\"").count(), 2);
}

#[test]
fn bench_command_emits_report_schema() {
    let out = exec("bench", &["--thread-counts", "1,2", "--target-ms", "1"]).unwrap();
    for key in [
        "albireo.bench.parallel/v1",
        "\"paper_grid\"",
        "\"speedup\"",
        "\"deterministic\": true",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    assert!(exec("bench", &["--thread-counts", ""]).is_err());
}

#[test]
fn serve_reports_service_metrics() {
    let out = exec("serve", &["--requests", "150", "--seed", "7"]).unwrap();
    for key in [
        "p50",
        "p95",
        "p99",
        "shed",
        "goodput",
        "mJ/request",
        "util",
        "digest",
        "albireo_9",
        "albireo_27",
    ] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    // Same seed, same report.
    assert_eq!(
        out,
        exec("serve", &["--requests", "150", "--seed", "7"]).unwrap()
    );
}

#[test]
fn serve_json_carries_schema_and_digest() {
    let out = exec("serve", &["--requests", "80", "--json"]).unwrap();
    assert!(out.contains("albireo.bench.serving/v4"));
    assert!(out.contains("\"digest\""));
    assert_eq!(out.matches('{').count(), out.matches('}').count());
}

#[test]
fn serve_survives_chip_failure_mid_run() {
    let out = exec(
        "serve",
        &[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--faults",
            "fail:1@0.005,degrade:0@0.002:4",
        ],
    )
    .unwrap();
    assert!(out.contains("OFFLINE"), "{out}");
    assert!(out.contains("PLCGs down"), "{out}");
    assert!(
        !out.contains("completed 0 "),
        "goodput must be nonzero: {out}"
    );
}

#[test]
fn serve_validates_inputs() {
    assert!(exec("serve", &["--policy", "fifo"]).is_err());
    assert!(exec("serve", &["--fleet", "tpu"]).is_err());
    assert!(exec("serve", &["--networks", "lenet"]).is_err());
    assert!(exec("serve", &["--rate", "0"]).is_err());
    assert!(exec("serve", &["--faults", "fail:0"]).is_err());
    assert!(exec("serve", &["--faults", "degrade:0@0.1:0"]).is_err());
    // The fleet is fixed: a clause naming none of its chips is refused,
    // while a range overlapping it is clipped.
    for bad in [
        "fail:7@0",
        "recover:2@0.1",
        "rack:2-5@0",
        "thermal:2-3@0-1:1",
    ] {
        let err = exec("serve", &["--faults", bad]).unwrap_err();
        assert!(err.to_string().contains("2-chip fleet"), "{bad}: {err}");
        assert_eq!(err.exit_code(), 2);
    }
    assert!(exec("serve", &["--requests", "20", "--faults", "rack:1-7@0"]).is_ok());
    assert!(exec("serve", &["--arrival", "fractal"]).is_err());
    assert!(exec("serve", &["--arrival", "diurnal", "--amplitude", "1.5"]).is_err());
    assert!(exec("serve", &["--arrival", "flash", "--spike", "0.5"]).is_err());
    assert!(exec("serve", &["--trace-jsonl", "/no/such/file.jsonl"]).is_err());
    assert!(exec("serve", &["--classes", "vip"]).is_err());
    assert!(exec("serve", &["--classes", "vip:-1"]).is_err());
    assert!(exec("serve", &["--classes", "vip:1:0"]).is_err());
    assert!(exec("serve", &["--slo", "-3"]).is_err());
    // A fleet of reported-number chips cannot serve a network outside
    // their published benchmark set.
    let err = exec("serve", &["--fleet", "eyeriss", "--networks", "resnet18"]).unwrap_err();
    assert!(err.to_string().contains("resnet18"), "{err}");
}

#[test]
fn serve_production_arrival_shapes_run() {
    for extra in [
        &[
            "--arrival",
            "diurnal",
            "--amplitude",
            "0.8",
            "--period",
            "0.5",
        ][..],
        &["--arrival", "flash", "--spike", "6", "--spike-at", "0.02"][..],
    ] {
        let mut argv = vec!["--requests", "200", "--seed", "3", "--json"];
        argv.extend_from_slice(extra);
        let out = exec("serve", &argv).unwrap();
        assert!(out.contains("\"offered\": 200"), "{out}");
        // Same seed reproduces byte-for-byte.
        assert_eq!(out, exec("serve", &argv).unwrap());
    }
}

#[test]
fn serve_classes_report_slo_attainment() {
    let argv = [
        "--requests",
        "300",
        "--rate",
        "4000",
        "--classes",
        "interactive:3:5,batch:1",
        "--json",
    ];
    let out = exec("serve", &argv).unwrap();
    assert!(out.contains("\"interactive\""), "{out}");
    assert!(out.contains("\"batch\""), "{out}");
    assert!(out.contains("\"slo_attainment\""), "{out}");
    // Best-effort classes report null SLO fields.
    assert!(out.contains("\"slo_ms\": null"), "{out}");
    // --slo alone wraps all traffic in one `default` class.
    let out = exec("serve", &["--requests", "100", "--slo", "5", "--json"]).unwrap();
    assert!(out.contains("\"default\""), "{out}");
}

#[test]
fn serve_trace_jsonl_replays_a_file() {
    let path = std::env::temp_dir().join(format!("albireo_cli_trace_{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"arrival_s\": 0.001}\n{\"arrival_s\": 0.002, \"network\": 0}\n{\"arrival_s\": 0.004}\n",
    )
    .unwrap();
    let path_s = path.to_str().unwrap().to_string();
    let out = exec(
        "serve",
        &["--trace-jsonl", &path_s, "--requests", "3", "--json"],
    )
    .unwrap();
    std::fs::remove_file(&path).ok();
    assert!(out.contains("\"offered\": 3"), "{out}");
    assert!(out.contains("trace_file"), "{out}");
}

#[test]
fn serve_record_cap_does_not_change_output() {
    // Reports never render the record sample, so capping it must be
    // invisible to every rendering — text and JSON alike.
    let full = exec("serve", &["--requests", "120", "--json"]).unwrap();
    let capped = exec(
        "serve",
        &["--requests", "120", "--record-cap", "5", "--json"],
    )
    .unwrap();
    assert_eq!(full, capped);
}

#[test]
fn serve_heterogeneous_fleet_end_to_end() {
    let run = |extra: &[&str]| {
        let mut argv = vec![
            "--fleet",
            "albireo_27:A, deap:M, eyeriss",
            "--networks",
            "alexnet,vgg16",
            "--requests",
            "200",
            "--seed",
            "11",
        ];
        argv.extend_from_slice(extra);
        exec("serve", &argv).unwrap()
    };
    let out = run(&[]);
    for key in ["albireo_27_A", "deap_M", "eyeriss", "digest"] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    // Deterministic across repeat runs.
    assert_eq!(out, run(&[]));
    let json = run(&["--json"]);
    assert!(json.contains("albireo.bench.serving/v4"));
}

#[test]
fn serve_replicas_and_policies_run() {
    let out = exec(
        "serve",
        &[
            "--requests",
            "60",
            "--replicas",
            "2",
            "--policy",
            "size:4",
            "--networks",
            "alexnet,vgg16",
        ],
    )
    .unwrap();
    assert!(out.contains("replica 0"));
    assert!(out.contains("replica 1"));
    assert!(out.contains("combined digest"));
    assert!(out.contains("size4"));
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("albireo_cli_trace_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn serve_trace_out_writes_deterministic_chrome_trace() {
    let path = temp_path("serve_trace.json");
    let path_str = path.to_str().unwrap().to_string();
    let run = || {
        let out = exec(
            "serve",
            &["--requests", "120", "--seed", "7", "--trace-out", &path_str],
        )
        .unwrap();
        assert!(out.contains("trace events"), "{out}");
        assert!(out.contains("digest"), "{out}");
        std::fs::read_to_string(&path).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give byte-identical traces");
    assert!(a.starts_with("{\"traceEvents\": ["));
    assert!(a.contains("\"ph\": \"X\""), "needs complete events");
    assert!(a.contains("\"thread_name\""));
    assert_eq!(a.matches('{').count(), a.matches('}').count());
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_events_out_writes_jsonl_stream() {
    let path = temp_path("serve_events.jsonl");
    let path_str = path.to_str().unwrap().to_string();
    let out = exec(
        "serve",
        &[
            "--requests",
            "100",
            "--seed",
            "9",
            "--events-out",
            &path_str,
        ],
    )
    .unwrap();
    assert!(out.contains("JSONL"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().count() > 0);
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    assert!(text.contains("\"phase\": \"B\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_notes_report_events_dropped_at_the_ring_bound() {
    // 5000 requests overflow a 16,384-event trace shard; 200 do not,
    // and their note lines stay as they were.
    let (trace, events) = (temp_path("dropped.json"), temp_path("dropped.jsonl"));
    let (trace, events) = (trace.to_str().unwrap(), events.to_str().unwrap());
    let notes = |requests| {
        let argv = [
            "--requests",
            requests,
            "--trace-out",
            trace,
            "--events-out",
            events,
        ];
        let out = exec("serve", &argv).unwrap();
        let notes: Vec<String> = out
            .lines()
            .filter(|l| l.starts_with("wrote "))
            .map(String::from)
            .collect();
        assert_eq!(notes.len(), 2, "{out}");
        notes
    };
    assert!(notes("200").iter().all(|l| !l.contains("events dropped")));
    for line in notes("5000") {
        let dropped = " older events dropped (trace ring buffers full)";
        assert!(line.ends_with(dropped), "{line}");
    }
    std::fs::remove_file(trace).ok();
    std::fs::remove_file(events).ok();
}

#[test]
fn serve_json_with_trace_embeds_metrics_snapshot() {
    let path = temp_path("serve_trace_json.json");
    let path_str = path.to_str().unwrap().to_string();
    let out = exec(
        "serve",
        &["--requests", "80", "--json", "--trace-out", &path_str],
    )
    .unwrap();
    assert!(out.contains("\"obs\": {"), "{out}");
    assert!(out.contains("albireo.obs/v1"));
    assert!(out.contains("serve.completed"));
    let report = albireo_obs::jsonv::parse(&out).expect("serve JSON parses");
    let obs = report.get("obs").expect("embedded obs snapshot");
    assert!(obs.get("histograms").is_none(), "{out}");
    let sketches = obs.get("sketches").expect("sketches member");
    for name in ["serve.wait_s", "serve.chip_utilization"] {
        assert!(sketches.get(name).is_some(), "{name}: {out}");
    }
    // Without the trace flag the JSON stays unchanged.
    let plain = exec("serve", &["--requests", "80", "--json"]).unwrap();
    assert!(!plain.contains("\"obs\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_trace_out_reports_the_plain_run() {
    let path = temp_path("serve_trace_plain.json");
    let path_str = path.to_str().unwrap().to_string();
    for replicas in ["1", "3"] {
        let base = ["--requests", "90", "--seed", "7", "--replicas", replicas];
        let plain = exec("serve", &base).unwrap();
        let traced = exec("serve", &[&base[..], &["--trace-out", &path_str]].concat()).unwrap();
        // The report, then the trace note lines.
        let note = traced.strip_prefix(plain.as_str()).expect("report first");
        assert!(note.contains("trace events"), "{note}");
    }
    let base = ["--requests", "90", "--seed", "7", "--json"];
    let plain = exec("serve", &base).unwrap();
    let traced = exec("serve", &[&base[..], &["--trace-out", &path_str]].concat()).unwrap();
    // The traced JSON is the plain JSON plus its `obs` member.
    let start = traced.find("  \"obs\": {").expect("obs member");
    let len = traced[start..].find("\n  },\n").expect("obs member end") + "\n  },\n".len();
    let without_obs = format!("{}{}", &traced[..start], &traced[start + len..]);
    assert_eq!(without_obs, plain);
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_wall_clock_flag_keeps_trace_digest_stable() {
    let path = temp_path("serve_wall.json");
    let path_str = path.to_str().unwrap().to_string();
    let digest_line = |extra: &[&str]| {
        let mut argv = vec!["--requests", "60", "--seed", "3", "--trace-out", &path_str];
        argv.extend_from_slice(extra);
        let out = exec("serve", &argv).unwrap();
        let line = out
            .lines()
            .find(|l| l.contains("trace events"))
            .unwrap()
            .to_string();
        line.split("digest ").nth(1).unwrap().to_string()
    };
    assert_eq!(digest_line(&[]), digest_line(&["--wall-clock"]));
    std::fs::remove_file(&path).ok();
}

#[test]
fn evaluate_trace_out_writes_per_layer_spans() {
    let path = temp_path("evaluate_trace.json");
    let path_str = path.to_str().unwrap().to_string();
    let out = exec("evaluate", &["alexnet", "--trace-out", &path_str]).unwrap();
    assert!(out.contains("trace events"), "{out}");
    let trace = std::fs::read_to_string(&path).unwrap();
    assert!(trace.contains("\"ph\": \"X\""));
    assert!(trace.contains("\"layer\""));
    assert!(trace.contains("\"name\": \"engine\""));
    std::fs::remove_file(&path).ok();
}

#[test]
fn threads_option_sets_global_parallelism() {
    exec("networks", &["--threads", "3"]).unwrap();
    assert_eq!(Parallelism::global().resolved_threads(), 3);
    Parallelism::set_global(Parallelism::auto());
    let err = exec("networks", &["--threads", "many"]).unwrap_err();
    assert!(err.to_string().contains("many"));
}

#[test]
fn plan_reports_winner_and_frontier() {
    let out = exec(
        "plan",
        &[
            "--slo",
            "p99<5ms",
            "--rate",
            "8000",
            "--requests",
            "500",
            "--screen-requests",
            "120",
        ],
    )
    .unwrap();
    for key in ["winner:", "rank", "mJ/req", "pareto", "feasible"] {
        assert!(out.contains(key), "missing {key} in {out}");
    }
    // The 8000 rps AlexNet stream needs two Albireo-9 chips; three
    // only add idle power.
    assert!(out.contains("albireo_9_C+albireo_9_C "), "{out}");
}

#[test]
fn plan_json_carries_schema_and_digest() {
    let argv = [
        "--slo",
        "p99<5ms",
        "--rate",
        "8000",
        "--requests",
        "400",
        "--screen-requests",
        "100",
        "--json",
    ];
    let out = exec("plan", &argv).unwrap();
    assert!(out.contains("albireo.plan/v1"), "{out}");
    assert!(out.contains("\"digest\""), "{out}");
    assert!(out.contains("\"frontier\""), "{out}");
    assert_eq!(out.matches('{').count(), out.matches('}').count());
    // Same flags, same plan, byte-for-byte.
    assert_eq!(out, exec("plan", &argv).unwrap());
}

#[test]
fn plan_spec_flag_replays_the_canonical_echo() {
    let flags = exec(
        "plan",
        &[
            "--slo",
            "p99<6ms",
            "--rate",
            "7000",
            "--requests",
            "300",
            "--screen-requests",
            "80",
            "--json",
        ],
    )
    .unwrap();
    // The emitted spec line reproduces the identical plan via --spec.
    let spec_line = flags
        .lines()
        .find(|l| l.contains("\"spec\""))
        .and_then(|l| l.split('"').nth(3))
        .unwrap()
        .to_string();
    let replay = exec("plan", &["--spec", &spec_line, "--json"]).unwrap();
    assert_eq!(flags, replay);
}

#[test]
fn plan_spec_conflicts_with_shape_flags() {
    let err = exec("plan", &["--spec", "slo=p99<5ms", "--rate", "9000"]).unwrap_err();
    assert!(err.to_string().contains("drop --rate"), "{err}");
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn plan_validates_inputs() {
    // --slo is mandatory: a planner without a target has no feasible set.
    let err = exec("plan", &[]).unwrap_err();
    assert!(err.to_string().contains("--slo"), "{err}");
    assert!(exec("plan", &["--slo", "p99<5ms", "--rate", "0"]).is_err());
    assert!(exec("plan", &["--slo", "p99<5ms", "--networks", "lenet"]).is_err());
    assert!(exec(
        "plan",
        &["--slo", "p99<5ms", "--networks", "alexnet,alexnet"]
    )
    .is_err());
    assert!(exec("plan", &["--slo", "p99<5ms", "--chips", "tpu"]).is_err());
    assert!(exec("plan", &["--slo", "p99<5ms", "--autoscale", "magic"]).is_err());
    assert!(exec("plan", &["--slo", "p99<5ms", "--policies", "fifo"]).is_err());
    assert!(exec("plan", &["--slo", "p99<5ms", "--requests", "0"]).is_err());
    // Aliased chip kinds cannot be repeated into multiset fleets.
    let err = exec("plan", &["--slo", "p99<5ms", "--chips", "edge=albireo_9:C"]).unwrap_err();
    assert!(err.to_string().contains("alias"), "{err}");
}

#[test]
fn serve_checkpoint_resume_reproduces_the_report() {
    let ckpt = temp_path("serve_ckpt.snapshot");
    let ckpt_s = ckpt.to_str().unwrap().to_string();
    let base = [
        "--requests",
        "300",
        "--rate",
        "4000",
        "--seed",
        "7",
        "--faults",
        "fail:1@0.01",
        "--json",
    ];
    let baseline = exec("serve", &base).unwrap();
    // Checkpointing to completion changes nothing in the report.
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--checkpoint-every", "0.01", "--checkpoint-out", &ckpt_s]);
    assert_eq!(baseline, exec("serve", &argv).unwrap());
    // Halt mid-run, then resume from the snapshot: byte-identical.
    let mut argv = base.to_vec();
    argv.extend_from_slice(&[
        "--checkpoint-every",
        "0.01",
        "--checkpoint-out",
        &ckpt_s,
        "--halt-after-checkpoints",
        "2",
    ]);
    let halted = exec("serve", &argv).unwrap();
    assert!(halted.contains("halted after checkpoint 2"), "{halted}");
    assert!(halted.contains("--resume"), "{halted}");
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--resume", &ckpt_s]);
    assert_eq!(baseline, exec("serve", &argv).unwrap());
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn serve_report_jsonl_streams_progress() {
    let path = temp_path("serve_progress.jsonl");
    let p = path.to_str().unwrap().to_string();
    exec(
        "serve",
        &[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--checkpoint-every",
            "0.01",
            "--report-jsonl",
            &p,
        ],
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.lines().count() >= 2, "{text}");
    for line in text.lines() {
        assert!(line.contains("albireo.serve.progress/v1"), "{line}");
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"offered\""), "{line}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_faults_spec_matches_the_legacy_flags() {
    // `--fail 1@0.005 --degrade 0:4@0.002`, the per-chip flags `--faults`
    // replaced, reported digest 579f126839b4e403 on this run.
    let spec = exec(
        "serve",
        &[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--faults",
            "fail:1@0.005,degrade:0@0.002:4",
            "--json",
        ],
    )
    .unwrap();
    assert!(spec.contains("\"digest\": \"579f126839b4e403\""), "{spec}");
    // Correlated clauses (rack + repair crews) run end to end.
    let out = exec(
        "serve",
        &[
            "--requests",
            "200",
            "--rate",
            "4000",
            "--faults",
            "rack:0-1@0.005,crews:1:0.01:7",
            "--json",
        ],
    )
    .unwrap();
    assert!(out.contains("\"offered\": 200"), "{out}");
}

#[test]
fn serve_checkpoint_flags_validate() {
    assert!(exec("serve", &["--checkpoint-every", "0"]).is_err());
    assert!(exec("serve", &["--checkpoint-every", "0.01", "--replicas", "2"]).is_err());
    // The dependent flags are rejected without a checkpoint cadence.
    assert!(exec("serve", &["--checkpoint-out", "/tmp/x"]).is_err());
    assert!(exec("serve", &["--report-jsonl", "/tmp/x"]).is_err());
    assert!(exec("serve", &["--halt-after-checkpoints", "1"]).is_err());
    assert!(exec("serve", &["--resume", "/no/such/snapshot"]).is_err());
    assert!(exec("serve", &["--faults", "melt:0@1"]).is_err());
    let tr = temp_path("ckpt_trace.json");
    let trs = tr.to_str().unwrap().to_string();
    assert!(exec(
        "serve",
        &["--checkpoint-every", "0.01", "--trace-out", &trs]
    )
    .is_err());
}

#[test]
fn plan_faults_flag_threads_into_the_spec() {
    let out = exec(
        "plan",
        &[
            "--slo",
            "p99<5ms",
            "--rate",
            "8000",
            "--requests",
            "600",
            "--screen-requests",
            "150",
            "--faults",
            "fail:0@0",
            "--json",
        ],
    )
    .unwrap();
    assert!(out.contains(";faults=fail:0@0\""), "{out}");
    let err = exec("plan", &["--spec", "slo=p99<5ms", "--faults", "fail:0@0"]).unwrap_err();
    assert!(err.to_string().contains("drop --faults"), "{err}");
    assert!(exec("plan", &["--slo", "p99<5ms", "--faults", "melt:0@1"]).is_err());
}

#[test]
fn serve_rejects_duplicate_aliases_and_class_names() {
    let err = exec("serve", &["--fleet", "edge=albireo_9:C,edge=albireo_27:C"]).unwrap_err();
    assert!(err.to_string().contains("duplicate chip alias"), "{err}");
    assert_eq!(err.exit_code(), 2);
    let err = exec("serve", &["--classes", "vip:2:5,vip:1"]).unwrap_err();
    assert!(err.to_string().contains("duplicate class name"), "{err}");
    assert_eq!(err.exit_code(), 2);
}

#[test]
fn serve_slo_target_validates_and_reports_alerts() {
    for bad in ["1.0", "-0.1", "nan", "many"] {
        let err = exec("serve", &["--slo-target", bad]).unwrap_err();
        assert!(err.to_string().contains("--slo-target"), "{err}");
    }
    // An overloaded bounded queue sheds SLO traffic: alerts fire and
    // the v4 report carries the transition log.
    let argv = [
        "--requests",
        "600",
        "--rate",
        "60000",
        "--seed",
        "7",
        "--queue-cap",
        "16",
        "--classes",
        "vip:3:5,batch:1",
        "--json",
    ];
    let out = exec("serve", &argv).unwrap();
    assert!(out.contains("\"alerts\": {"), "{out}");
    assert!(out.contains("\"type\": \"fire\""), "{out}");
    assert!(out.contains("\"alerts_fired\""), "{out}");
    // The alert objective never moves the run digest.
    let digest_of = |extra: &[&str]| {
        let mut v = argv.to_vec();
        v.extend_from_slice(extra);
        let out = exec("serve", &v).unwrap();
        let at = out.find("\"digest\"").unwrap();
        out[at..].lines().next().unwrap().to_string()
    };
    assert_eq!(digest_of(&[]), digest_of(&["--slo-target", "0.9"]));
}

#[test]
fn serve_report_jsonl_streams_alert_transitions_once() {
    let path = temp_path("serve_alerts.jsonl");
    let p = path.to_str().unwrap().to_string();
    exec(
        "serve",
        &[
            "--requests",
            "600",
            "--rate",
            "60000",
            "--seed",
            "7",
            "--queue-cap",
            "16",
            "--classes",
            "vip:3:5,batch:1",
            "--checkpoint-every",
            "0.002",
            "--report-jsonl",
            &p,
        ],
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let alert_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("albireo.serve.alert/v1"))
        .collect();
    assert!(!alert_lines.is_empty(), "{text}");
    assert!(alert_lines[0].contains("\"class\": \"vip\""), "{text}");
    assert!(alert_lines[0].contains("\"type\": \"fire\""), "{text}");
    // Each transition appears exactly once even though every
    // snapshot carries the full log.
    let mut seen = std::collections::HashSet::new();
    for line in &alert_lines {
        let key = line.split("\"checkpoint\"").nth(1).map(|rest| {
            let tail = rest.split_once(',').map(|(_, t)| t).unwrap_or(rest);
            tail.to_string()
        });
        assert!(seen.insert(key), "duplicate transition: {line}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_report_jsonl_is_exactly_once_across_a_resume() {
    let (whole, split, ckpt) = (
        temp_path("once_whole.jsonl"),
        temp_path("once_split.jsonl"),
        temp_path("once.snapshot"),
    );
    let paths = [&whole, &split, &ckpt].map(|p| p.to_str().unwrap().to_string());
    let base = [
        "--requests",
        "2000",
        "--rate",
        "60000",
        "--seed",
        "7",
        "--queue-cap",
        "16",
        "--classes",
        "vip:3:5,batch:1",
        "--checkpoint-every",
        "0.005",
        "--json",
    ];
    let with = |extra: &[&str]| {
        let mut argv = base.to_vec();
        argv.extend_from_slice(extra);
        exec("serve", &argv).unwrap()
    };
    let report = with(&["--report-jsonl", &paths[0]]);
    let halted = with(&[
        "--report-jsonl",
        &paths[1],
        "--checkpoint-out",
        &paths[2],
        "--halt-after-checkpoints",
        "2",
    ]);
    assert!(halted.contains("halted after checkpoint 2"), "{halted}");
    let before = std::fs::read_to_string(&split).unwrap();
    assert!(before.contains("albireo.serve.alert/v1"), "{before}");
    assert_eq!(
        report,
        with(&["--report-jsonl", &paths[1], "--resume", &paths[2]])
    );
    // The alert lines written before the halt are not written again.
    let text = std::fs::read_to_string(&whole).unwrap();
    assert_eq!(text, std::fs::read_to_string(&split).unwrap());
    for p in [&whole, &split, &ckpt] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn serve_metrics_out_writes_openmetrics() {
    let path = temp_path("serve_metrics.txt");
    let p = path.to_str().unwrap().to_string();
    let base = ["--requests", "200", "--rate", "4000", "--seed", "7"];
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--metrics-out", &p]);
    let out = exec("serve", &argv).unwrap();
    assert!(out.contains("config: poisson arrivals"), "{out}");
    assert!(out.contains("OpenMetrics"), "{out}");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("# TYPE serve_completed counter"), "{text}");
    assert!(text.contains("# TYPE serve_wait_s summary\n"), "{text}");
    assert!(text.contains("serve_wait_s{quantile=\"0.99\"} "), "{text}");
    assert!(text.ends_with("# EOF\n"), "{text}");
    // The exported file never perturbs the report itself.
    let baseline = exec("serve", &base).unwrap();
    let again = exec("serve", &argv).unwrap();
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("config:") && !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&baseline), strip(&again));
    // Checkpointed runs export a timestamped series instead.
    let mut argv = base.to_vec();
    argv.extend_from_slice(&["--checkpoint-every", "0.01", "--metrics-out", &p]);
    let out = exec("serve", &argv).unwrap();
    assert!(out.contains("OpenMetrics series"), "{out}");
    assert!(out.contains("checkpoint every 0.01s"), "{out}");
    let series = std::fs::read_to_string(&path).unwrap();
    assert!(series.contains("serve_offered_total"), "{series}");
    // Timestamped samples: `name value ts` triplets.
    assert!(
        series
            .lines()
            .any(|l| l.starts_with("serve_offered_total ") && l.split_whitespace().count() == 3),
        "{series}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn profile_flag_writes_wall_clock_report() {
    let path = temp_path("faults_profile.json");
    let p = path.to_str().unwrap().to_string();
    let out = exec("faults", &["--profile", &p, "--threads", "2"]).unwrap();
    assert!(out.contains("healthy error"), "{out}");
    let report = std::fs::read_to_string(&path).unwrap();
    assert!(
        report.contains("\"schema\": \"albireo.profile/v1\""),
        "{report}"
    );
    assert!(report.contains("\"attributed_fraction\""), "{report}");
    // The analog convolutions behind `faults` are attributed to the
    // kernel's own scope.
    assert!(report.contains("analog.conv2d"), "{report}");
    // Profiling never changes the command's own output.
    let plain = exec("faults", &["--threads", "2"]).unwrap();
    assert_eq!(out, plain);
    std::fs::remove_file(&path).ok();
}

#[test]
fn perf_diff_exit_code_contract() {
    let old = temp_path("perf_old.json");
    let new = temp_path("perf_new.json");
    let o = old.to_str().unwrap().to_string();
    let n = new.to_str().unwrap().to_string();
    let row = |wall: f64| {
        format!(
            "{{\"rows\": [{{\"name\": \"analog_conv\", \"wall_ms\": {wall}, \
             \"speedup\": 3.0}}]}}"
        )
    };
    std::fs::write(&old, row(100.0)).unwrap();
    std::fs::write(&new, row(100.0)).unwrap();
    // Identical inputs pass (exit 0).
    let out = exec("perf-diff", &[&o, &n]).unwrap();
    assert!(out.contains("0 regression(s)"), "{out}");
    // A 2x slowdown trips the gate with exit code 3.
    std::fs::write(&new, row(200.0)).unwrap();
    let err = exec("perf-diff", &[&o, &n, "--threshold", "25"]).unwrap_err();
    assert_eq!(err.exit_code(), 3);
    assert!(!err.is_usage());
    assert!(err.to_string().contains("REGRESSION"), "{err}");
    assert!(err.to_string().contains("wall_ms"), "{err}");
    // Usage and I/O failures stay distinguishable.
    assert_eq!(exec("perf-diff", &[&o]).unwrap_err().exit_code(), 2);
    assert_eq!(
        exec("perf-diff", &[&o, "/nonexistent/x.json"])
            .unwrap_err()
            .exit_code(),
        1
    );
    std::fs::write(&new, "{}").unwrap();
    assert_eq!(exec("perf-diff", &[&o, &n]).unwrap_err().exit_code(), 2);
    std::fs::remove_file(&old).ok();
    std::fs::remove_file(&new).ok();
}

#[test]
fn every_row_is_well_formed() {
    let help = exec("help", &[]).unwrap();
    for (i, row) in COMMANDS.iter().enumerate() {
        assert!(
            row.usage.starts_with(&format!("    {} ", row.name)) && row.usage.ends_with('\n'),
            "{}: {:?}",
            row.name,
            row.usage
        );
        assert!(help.contains(row.usage), "help lacks the {} row", row.name);
        assert_eq!(exec(row.name, &["--help"]).unwrap(), row.usage);
        assert!(
            COMMANDS[..i].iter().all(|c| c.name != row.name),
            "{}",
            row.name
        );
        let declared: Vec<&str> = [row.options, row.switches, GLOBAL_OPTIONS, GLOBAL_SWITCHES]
            .iter()
            .flat_map(|list| list.split_whitespace())
            .collect();
        for (j, flag) in declared.iter().enumerate() {
            assert!(
                !declared[..j].contains(flag),
                "{}: --{flag} twice",
                row.name
            );
        }
    }
}

#[test]
fn write_failures_are_io_errors_naming_the_path() {
    let path = "/nonexistent-albireo-dir/out.json";
    let err = write_file(path, "{}").unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(!err.is_usage());
    assert!(err.to_string().contains(path), "{err}");
    let err = exec("networks", &["--profile", path]).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains(path), "{err}");
}

/// Every `albireo` invocation in a markdown document, split into shell
/// words: `\` continuations are joined, and each invocation runs from
/// `albireo-cli -- ` or `target/release/albireo ` to the end of its line
/// or the first unquoted comment, pipe, redirect or backtick.
fn documented_invocations(doc: &str) -> Vec<Vec<String>> {
    let joined = doc.replace("\\\n", " ");
    let mut invocations = Vec::new();
    for line in joined.lines() {
        for prefix in ["albireo-cli -- ", "target/release/albireo "] {
            for (at, _) in line.match_indices(prefix) {
                invocations.push(shell_words(&line[at + prefix.len()..]));
            }
        }
    }
    invocations
}

/// Splits `line` into shell words, honouring double and single quotes.
fn shell_words(line: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut word: Option<String> = None;
    let mut quote: Option<char> = None;
    for c in line.chars() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => word.get_or_insert_with(String::new).push(c),
            (None, '"' | '\'') => {
                quote = Some(c);
                word.get_or_insert_with(String::new);
            }
            (None, '|' | '>' | '<' | '&' | ';' | '`') => break,
            (None, '#') if word.is_none() => break,
            (None, c) if c.is_whitespace() => words.extend(word.take()),
            (None, c) => word.get_or_insert_with(String::new).push(c),
        }
    }
    words.extend(word);
    words
}

#[test]
fn documented_invocations_parse_against_the_table() {
    let words = shell_words(r#"serve --classes "a:1,b:2" --x 'p99<5ms' # note"#);
    assert_eq!(words, ["serve", "--classes", "a:1,b:2", "--x", "p99<5ms"]);
    for (doc, text, at_least) in [
        ("README.md", include_str!("../../../../README.md"), 30),
        (
            ".claude/skills/verify/SKILL.md",
            include_str!("../../../../.claude/skills/verify/SKILL.md"),
            8,
        ),
    ] {
        let invocations = documented_invocations(text);
        assert!(invocations.len() >= at_least, "{doc}: {invocations:?}");
        for argv in invocations {
            if let Err(e) = parse(&argv) {
                panic!("{doc}: `albireo {}`: {e}", argv.join(" "));
            }
        }
    }
}
