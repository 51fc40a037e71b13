//! Runs the built binary the way the contract in `BENCHMARK.json` does and
//! holds what it prints against what the contract declares.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Pull `"name": "<x>"` values out of the named top-level list of the
/// contract, without a JSON dependency: the file is machine-written, one
/// key per line.
fn declared(list: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text.find(&format!("\"{list}\": [")).expect("list in BENCHMARK.json");
    let body = &text[start..];
    let end = body.find("\n  ]").expect("end of list");
    body[..end]
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"name\": \""))
        .map(|rest| rest.trim_end_matches(['"', ',']).to_string())
        .collect()
}

/// Metric names in the last stdout line of a `run --workload … --trace N`.
fn emitted(workload: &str, trace: &str) -> (BTreeSet<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ft-benchmark"))
        .args(["run", "--quick", "--workload", workload, "--seed", "7", "--trace", trace])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        out.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(last.starts_with("{\"correct\":true,\"attempted\":"), "unexpected result line: {last}");
    let metrics = last.split("\"metrics\":{").nth(1).expect("metrics object");
    // Every metric is `"<name>":{"value":…,"unit":"…"}`.
    let names = metrics
        .split("\":{\"value\":")
        .filter_map(|chunk| chunk.rsplit('"').next())
        .filter(|n| !n.is_empty() && !n.contains('}'))
        .map(String::from)
        .collect();
    (names, last)
}

#[test]
fn a_quick_untraced_run_emits_exactly_the_declared_end_to_end_metrics() {
    let (names, line) = emitted("cr-latency", "0");
    assert_eq!(names, declared("end_to_end"), "{line}");
    assert!(line.contains("\"failed\":0,"), "{line}");
}

#[test]
fn a_quick_traced_run_emits_exactly_the_declared_per_layer_metrics() {
    let (names, line) = emitted("cr-latency", "1");
    assert_eq!(names, declared("per_layer"), "{line}");
    let trace = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-cr-latency.json");
    let text = std::fs::read_to_string(trace).expect("the traced pass writes its trace file");
    assert!(text.starts_with("{\"traceEvents\":["));
    assert!(text.contains("\"name\":\"step\"") && text.contains("\"name\":\"gaspi.allreduce\""));
}

#[test]
fn a_run_that_cannot_start_prints_no_result_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_ft-benchmark"))
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
