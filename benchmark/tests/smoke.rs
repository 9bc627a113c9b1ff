//! End-to-end smoke test: every workload, untraced and traced, at the
//! `--quick` size. Run with `cargo test --release`; an unoptimised build
//! of the stack is several times slower.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["c_read", "a_update", "e_scan", "b_cluster"];

/// Runs the benchmark binary from cargo's per-target scratch directory
/// (the traced run writes `benchmark/out/` under its working directory)
/// and returns the last line of its standard output.
fn last_line(args: &[&str]) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_elsm-benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{args:?} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The names of the metrics in a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    // Every piece but the last ends with the opening quote and the name
    // of the metric whose value follows.
    let mut pieces: Vec<&str> = metrics.split("\": {\"value\"").collect();
    pieces.pop();
    pieces.iter().map(|piece| piece.rsplit_once('"').expect("quoted name").1.to_string()).collect()
}

fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text.split_once(&format!("\"{section}\": [")).expect("section").1;
    let body = body.split_once("\n  ]").expect("section end").0;
    body.lines()
        .filter_map(|line| line.split_once("\"name\": \"").map(|(_, rest)| rest))
        .map(|rest| rest.split_once('"').expect("closing quote").0.to_string())
        .collect()
}

#[test]
fn quick_runs_report_every_end_to_end_metric_and_pass_their_oracle() {
    for workload in WORKLOADS {
        let line = last_line(&["--workload", workload, "--seed", "7", "--trace", "0", "--quick"]);
        assert!(line.starts_with("{\"correct\": true, "), "{workload}: {line}");
        assert!(line.contains("\"failed\": 0, "), "{workload}: {line}");
        assert_eq!(metric_names(&line), listed("end_to_end"), "{workload}");
    }
}

#[test]
fn quick_traced_runs_report_every_per_layer_metric() {
    for workload in WORKLOADS {
        let line = last_line(&["--workload", workload, "--seed", "7", "--trace", "1", "--quick"]);
        assert!(line.starts_with("{\"correct\": true, "), "{workload}: {line}");
        assert_eq!(metric_names(&line), listed("per_layer"), "{workload}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{workload}: {line}");
    }
}

#[test]
fn readme_names_every_metric_and_workload() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("benchmark/README.md");
    let names =
        listed("end_to_end").into_iter().chain(listed("per_layer")).chain(listed("workloads"));
    for name in names {
        assert!(readme.contains(&format!("`{name}`")), "README.md does not document `{name}`");
    }
}

#[test]
fn unknown_workload_is_refused() {
    let output = Command::new(env!("CARGO_BIN_EXE_elsm-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
