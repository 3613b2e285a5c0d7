//! Smoke test of the benchmark itself: a short run of every workload, both
//! untraced and traced, must pass its output checks and print exactly the
//! metrics `BENCHMARK.json` declares, with the declared units.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use dimmunix_core::json::{parse, JsonValue};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "fastpath_mix",
    "fleet_nested",
    "async_inversions",
    "phone_apps",
];

/// The end-to-end metrics every workload reports.
const END_TO_END: [&str; 7] = [
    "throughput_ops_s",
    "op_p50_us",
    "op_p99_us",
    "overhead_vs_bare",
    "ops_ok_ratio",
    "setup_s",
    "immune_memory_mb",
];

fn manifest() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) pairs of one metric list of `BENCHMARK.json`.
fn declared(manifest: &JsonValue, key: &str) -> Vec<(String, String)> {
    manifest
        .get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one short benchmark and returns (stamp line, result object). The
/// traced run gets three seconds: its reconciliation check compares round
/// pairs, and a one-second run of `fleet_nested` holds about six, too few
/// to tell the tracing overhead (about 5% of an op) from host noise.
fn run(workload: &str, trace: u8) -> (JsonValue, JsonValue) {
    let seconds = if trace == 1 { "3" } else { "1" };
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", seconds])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "a stamp line and a result line: {stdout}");
    let stamp = parse(lines[lines.len() - 2]).expect("the stamp is JSON");
    let result = parse(lines[lines.len() - 1]).expect("the result is JSON");
    (stamp, result)
}

fn metric_names_and_units(result: &JsonValue) -> Vec<(String, String)> {
    let JsonValue::Object(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} is finite");
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_workload_reports_the_declared_metrics_and_passes_its_checks() {
    let manifest = manifest();
    let end_to_end = declared(&manifest, "end_to_end");
    let per_layer = declared(&manifest, "per_layer");
    let names: Vec<&str> = end_to_end.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names, END_TO_END,
        "BENCHMARK.json declares the benchmark's end-to-end set"
    );
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    for workload in WORKLOADS {
        for (trace, table) in [(0u8, &end_to_end), (1, &per_layer)] {
            let (stamp, result) = run(workload, trace);
            assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))));
            assert!(
                result
                    .get("attempted")
                    .and_then(JsonValue::as_u64)
                    .expect("attempted")
                    >= 1
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert_eq!(
                sorted(metric_names_and_units(&result)),
                sorted(table.clone()),
                "{workload} --trace {trace}"
            );
            let stamp = stamp.get("stamp").expect("stamp object");
            for key in [
                "cpus",
                "shard_count",
                "seed",
                "estimator",
                "samples",
                "commit",
            ] {
                assert!(stamp.get(key).is_some(), "stamp names {key}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
