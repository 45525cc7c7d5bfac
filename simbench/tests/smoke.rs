//! Smoke test of the benchmark command: every workload in `--smoke` mode
//! (short simulated windows) on a seed the benchmark is not tuned on,
//! end-to-end and traced. Each run must pass its correctness checks and
//! emit exactly the metrics `BENCHMARK.json` names, each with its unit.
//!
//! Run with `cargo test --release` from this directory; a debug build
//! works but the 100,000-station workload then takes minutes.

use std::path::Path;
use std::process::Command;

use serde_json::Json;

const SEED: &str = "2";

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(spec: &'a Json, key: &str) -> Vec<(&'a str, &'a str)> {
    spec.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit strings")
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke benchmark and returns its parsed last stdout line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("spawn simbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let spec = benchmark_json();
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    for w in workloads {
        let workload = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let ctx = format!("{workload} --trace {trace}");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{ctx}: not correct"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{ctx}: failed repetitions"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64) >= Some(1),
                "{ctx}: nothing attempted"
            );
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object");
            let expected = names(&spec, key);
            assert_eq!(metrics.len(), expected.len(), "{ctx}: metric count");
            for (name, unit) in expected {
                let m = result
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .unwrap_or_else(|| panic!("{ctx}: missing {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{ctx}: unit of {name}"
                );
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{ctx}: value of {name}");
            }
        }
    }
}
