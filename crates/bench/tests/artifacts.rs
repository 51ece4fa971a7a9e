//! The committed artifacts: every `results/*.csv` regenerates byte for
//! byte from its [`ARTIFACTS`] entry, `results/` holds no other CSV, and
//! the headline claims each golden carries hold in the committed copy.
//! Any model, cost, serving or planner change that shifts a number fails
//! here and names the file. Regenerate with:
//!
//! ```text
//! cargo run --release -p albireo-cli -- export-csv
//! ```

use albireo_baselines::{reported_accelerators, Accelerator};
use albireo_bench::ARTIFACTS;
use albireo_nn::zoo;
use albireo_runtime::StudyOptions;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The committed copy of artifact `name`: the one reader every test
/// below goes through.
fn committed(name: &str) -> String {
    let path = results_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn every_artifact_regenerates_byte_exactly() {
    let stale: Vec<String> = ARTIFACTS
        .iter()
        .filter_map(|&(name, render)| {
            let (fresh, kept) = (render(), committed(name));
            let line = fresh.lines().zip(kept.lines()).position(|(a, b)| a != b);
            (fresh != kept).then(|| match line {
                Some(i) => format!("{name} (first difference on line {})", i + 1),
                None => format!("{name} (line count differs)"),
            })
        })
        .collect();
    assert!(
        stale.is_empty(),
        "diverged from results/: {}; if the change is intentional, regenerate with \
         `cargo run --release -p albireo-cli -- export-csv`",
        stale.join(", ")
    );
}

#[test]
fn results_holds_exactly_the_registered_artifacts() {
    let mut on_disk: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".csv"))
        .collect();
    on_disk.sort();
    let mut registered: Vec<String> = ARTIFACTS.iter().map(|(n, _)| n.to_string()).collect();
    registered.sort();
    assert_eq!(on_disk, registered, "results/ and ARTIFACTS disagree");
}

#[test]
fn golden_frontier_pins_the_elastic_headline() {
    // Rank 1 is an elastic fleet that spun up during the run, and every
    // static row costs more energy per request.
    let csv = committed("golden_plan_frontier.csv");
    let mut rows = csv.lines();
    let header = rows.next().expect("header row");
    assert!(header.starts_with("rank,fleet,chips,policy,autoscale,"));
    let parsed: Vec<Vec<&str>> = rows.map(|r| r.split(',').collect()).collect();
    assert!(!parsed.is_empty(), "golden frontier is empty");
    let energy = |row: &[&str]| row[9].parse::<f64>().expect("energy column");
    let winner = &parsed[0];
    assert!(winner[4].starts_with("elastic"), "rank 1 must be elastic");
    assert!(
        winner[11].parse::<u64>().unwrap() > 0,
        "winner never spun up"
    );
    for row in parsed.iter().filter(|r| r[4] == "static") {
        assert!(
            energy(winner) < energy(row),
            "elastic winner must beat static fleet {} on energy",
            row[1]
        );
    }
}

/// The committed operating-mode rows, split into fields.
fn mode_rows() -> Vec<Vec<String>> {
    let csv = committed("golden_modes_metrics.csv");
    let fields = |line: &str| line.split(',').map(String::from).collect();
    csv.lines().skip(1).map(fields).collect()
}

/// Column `col` (2 = cycles, 3 = MACs, 4 = latency ms) of the row that
/// costs `network` on `accel`, or `None` when there is no such row.
fn mode(rows: &[Vec<String>], network: &str, accel: &str, col: usize) -> Option<f64> {
    let row = rows.iter().find(|r| r[0] == network && r[1] == accel)?;
    Some(row[col].parse().unwrap())
}

#[test]
fn winograd_reduces_macs_and_latency_on_vgg_class_nets() {
    let rows = mode_rows();
    let at = |network, accel, col| mode(&rows, network, accel, col).unwrap();
    for network in ["VGG16", "AlexNet", "ResNet18"] {
        for (col, what) in [(3, "MAC count"), (4, "latency")] {
            let (direct, wino) = (
                at(network, "albireo_9", col),
                at(network, "winograd_9", col),
            );
            assert!(wino < direct, "{network}: Winograd should cut {what}");
        }
    }
    // VGG16 is dominated by stride-1 3×3 convs: the transform-domain
    // schedule must shift the frontier, not shave an epsilon.
    let ratio = at("VGG16", "winograd_9", 4) / at("VGG16", "albireo_9", 4);
    assert!(
        ratio < 0.6,
        "VGG16 Winograd latency ratio {ratio:.3} >= 0.6"
    );
}

#[test]
fn winograd_leaves_mobilenet_untouched() {
    // MobileNet has no stride-1 3×3 standard conv, so every layer takes
    // the direct fallback: cycles, MACs, and latency are identical.
    let rows = mode_rows();
    for col in 2..5 {
        let direct = mode(&rows, "MobileNet", "albireo_9", col);
        assert!(direct.is_some());
        assert_eq!(
            direct,
            mode(&rows, "MobileNet", "winograd_9", col),
            "column {col}"
        );
    }
}

#[test]
fn gemm_rows_exist_only_for_dense_networks() {
    let rows = mode_rows();
    for dense in ["MLP-Mixer", "Transformer-Enc"] {
        assert!(
            mode(&rows, dense, "gemm_9", 4).is_some(),
            "missing gemm_9 row for {dense}"
        );
    }
    for cnn in ["AlexNet", "VGG16", "ResNet18", "MobileNet"] {
        let costed = mode(&rows, cnn, "gemm_9", 4).is_some();
        assert!(!costed, "gemm_9 must not cost spatial CNN {cnn}");
    }
}

#[test]
fn gemm_beats_direct_on_dense_workloads() {
    let rows = mode_rows();
    for dense in ["MLP-Mixer", "Transformer-Enc"] {
        let direct = mode(&rows, dense, "albireo_9", 4).unwrap();
        let gemm = mode(&rows, dense, "gemm_9", 4).unwrap();
        assert!(
            gemm < direct,
            "{dense}: GEMM mode should beat the direct schedule ({gemm} vs {direct})"
        );
    }
}

#[test]
fn golden_covers_every_baseline_and_supported_network() {
    let csv = committed("golden_baseline_metrics.csv");
    for name in ["PIXEL", "DEAP-CNN", "Eyeriss", "ENVISION", "UNPU"] {
        assert!(csv.contains(name), "golden CSV lost {name}");
    }
    // Photonic baselines cost all four benchmarks; reported electronic
    // designs only the two they publish numbers for.
    let rows = csv.lines().count() - 1;
    let photonic = 2 * zoo::all_benchmarks().len();
    let reported: usize = reported_accelerators()
        .iter()
        .map(|a| {
            zoo::all_benchmarks()
                .iter()
                .filter(|m| a.supports(m))
                .count()
        })
        .sum();
    assert_eq!(rows, photonic + reported);
}

#[test]
fn golden_grid_covers_both_fleets_and_all_policies() {
    let csv = committed("golden_serving_metrics.csv");
    let options = StudyOptions::golden();
    assert_eq!(
        csv.lines().count(),
        options.cells() * options.replicas + 1,
        "row count must match the golden grid"
    );
    for key in [
        "albireo_9+albireo_27",
        "albireo_9_C",
        "immediate",
        "size4",
        "deadline200us_max8",
    ] {
        assert!(csv.contains(key), "golden CSV lost {key}");
    }
}
