//! Runs every workload in short mode, untraced and traced, and checks the
//! result line against the metric names `BENCHMARK.json` declares.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "serve-zipf",
    "serve-uniform",
    "edit-churn",
    "design",
    "fleet",
];

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_fw-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", trace, "--short"])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(line: &str, names: &[String], workload: &str) {
    assert!(
        line.starts_with("{\"correct\":true,") && line.contains("\"failed\":0,"),
        "{workload}: {line}"
    );
    let metrics = &line[line.find("\"metrics\":").expect("metrics")..];
    let printed = metrics.matches("{\"value\":").count();
    assert_eq!(printed, names.len(), "{workload}: metric count");
    for name in names {
        assert!(
            metrics.contains(&format!("\"{name}\":{{\"value\":")),
            "{workload}: {name} missing"
        );
    }
}

#[test]
fn every_workload_runs_short_and_prints_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        check(&run(w, "0"), &end_to_end, w);
        check(&run(w, "1"), &per_layer, w);
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let end_to_end = declared("end_to_end");
    for w in WORKLOADS {
        let line = run(w, "0");
        for name in &end_to_end {
            let at = line
                .find(&format!("\"{name}\":{{\"value\":"))
                .expect("metric");
            let rest = &line[at + name.len() + 12..];
            let value: f64 = rest[..rest.find(',').expect("value ends")]
                .parse()
                .expect("numeric value");
            assert!(value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_fw-perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
