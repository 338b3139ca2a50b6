//! Smoke test: every workload once on tiny inputs with tracing on.
//!
//! Asserts that each run is correct, that it prints every per-layer
//! metric `BENCHMARK.json` names with that metric's unit, and that the
//! count half is identical between two invocations.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["record-s1", "simulate-s1", "reproduce-tiny", "serve-tiny"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

/// The `(name, unit)` pairs of `BENCHMARK.json`'s `per_layer` list.
fn per_layer_metrics() -> Vec<(String, String)> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let list = &json[json.find("\"per_layer\"").expect("per_layer key")..];
    let list = &list[..list.find(']').expect("per_layer is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("name and unit fields")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs `workload` in smoke mode with tracing on; returns the result
/// line and the count half.
fn run(workload: &str, counts: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_jrt-perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .arg("--smoke")
        .arg("--counts")
        .arg(counts)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 result");
    let line = stdout.lines().last().expect("a result line").to_string();
    let counts = std::fs::read_to_string(counts).expect("count half written");
    (line, counts)
}

#[test]
fn every_workload_prints_every_per_layer_metric_and_repeats_its_counts() {
    let metrics = per_layer_metrics();
    assert!(metrics.len() > 40, "per_layer list parsed: {metrics:?}");
    let dir = repo_root().join(".bench_work/smoke");
    std::fs::create_dir_all(&dir).expect("smoke scratch dir");
    for workload in WORKLOADS {
        let (line, first) = run(workload, &dir.join(format!("{workload}-1.txt")));
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
        for (name, unit) in &metrics {
            let at = line
                .find(&format!("\"{name}\": {{\"value\": "))
                .unwrap_or_else(|| panic!("{workload} does not print {name}: {line}"));
            let entry = &line[at..at + line[at..].find('}').expect("metric object closes")];
            assert!(
                entry.ends_with(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} should be in {unit}: {entry}"
            );
        }
        let (_, second) = run(workload, &dir.join(format!("{workload}-2.txt")));
        assert!(!first.is_empty(), "{workload}: empty count half");
        assert_eq!(first, second, "{workload}: count half differs between runs");
    }
}
