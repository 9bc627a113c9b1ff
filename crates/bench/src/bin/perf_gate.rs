//! CI perf-regression gate: diffs a freshly regenerated
//! `BENCH_results.json` against the committed baseline and fails (exit
//! code 1) when any configuration's throughput dropped below the
//! tolerance band. Because throughput is measured on the deterministic
//! virtual clock, any drop is a real code-path change, not noise — the
//! tolerance only absorbs intentional small shifts (e.g. a few extra
//! charged bytes on a wire format).
//!
//! Usage:
//! `perf_gate --baseline BENCH_baseline.json --fresh BENCH_results.json
//! [--tolerance 0.05]`

use std::collections::BTreeMap;

/// One measured row, keyed by (figure, config, workload).
type Key = (String, String, String);

fn usage_and_exit(problem: &str) -> ! {
    eprintln!("{problem}\nusage: perf_gate --baseline <path> --fresh <path> [--tolerance 0.05]");
    std::process::exit(2);
}

/// Pulls the string value of `"field": "..."` out of a results row line.
fn str_field(line: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Pulls the numeric value of `"field": 123.4` out of a results row line.
fn num_field(line: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\": ");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Line-oriented parse of the results JSON `elsm-bench` writes: one row
/// object per line, known field order. Duplicated keys keep the last row
/// (the writer never emits duplicates; a hand-edited file is on its own).
fn parse_results(path: &str) -> BTreeMap<Key, f64> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => usage_and_exit(&format!("could not read {path}: {e}")),
    };
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let (Some(figure), Some(config), Some(workload), Some(ops)) = (
            str_field(line, "figure"),
            str_field(line, "config"),
            str_field(line, "workload"),
            num_field(line, "ops_per_sec"),
        ) else {
            continue;
        };
        rows.insert((figure, config, workload), ops);
    }
    if rows.is_empty() {
        usage_and_exit(&format!("{path} contains no result rows"));
    }
    rows
}

fn main() {
    let mut baseline_path = None;
    let mut fresh_path = None;
    let mut tolerance = 0.05f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| usage_and_exit(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = Some(value("--baseline")),
            "--fresh" => fresh_path = Some(value("--fresh")),
            "--tolerance" => {
                tolerance = value("--tolerance")
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("--tolerance must be a number"));
            }
            other => usage_and_exit(&format!("unknown flag `{other}`")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| usage_and_exit("--baseline is required"));
    let fresh_path = fresh_path.unwrap_or_else(|| usage_and_exit("--fresh is required"));
    if !(0.0..1.0).contains(&tolerance) {
        usage_and_exit("--tolerance must be in [0, 1)");
    }

    let baseline = parse_results(&baseline_path);
    let fresh = parse_results(&fresh_path);

    // Every baseline row must still exist and hold its throughput. A row
    // vanishing is a failure too: a silently dropped measurement would
    // let a regression hide by deleting its own evidence.
    let mut deltas: Vec<(f64, Key, f64, f64)> = Vec::new();
    let mut missing = Vec::new();
    for (key, &base_ops) in &baseline {
        match fresh.get(key) {
            None => missing.push(key.clone()),
            Some(&fresh_ops) => {
                let rel = if base_ops > 0.0 { fresh_ops / base_ops - 1.0 } else { 0.0 };
                deltas.push((rel, key.clone(), base_ops, fresh_ops));
            }
        }
    }
    deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite deltas"));

    let mut failed = !missing.is_empty();
    for key in &missing {
        println!("MISSING  {}/{} [{}]: row absent from {fresh_path}", key.0, key.1, key.2);
    }
    println!(
        "perf gate: {} rows compared, tolerance -{:.1}%; worst deltas first:",
        deltas.len(),
        tolerance * 100.0
    );
    for (rel, key, base, freshv) in deltas.iter().take(10) {
        let verdict = if *rel < -tolerance {
            failed = true;
            "FAIL"
        } else {
            "ok  "
        };
        println!(
            "{verdict} {:+7.2}%  {}/{} [{}]: {base:.1} -> {freshv:.1} ops/s",
            rel * 100.0,
            key.0,
            key.1,
            key.2
        );
    }
    let new_rows = fresh.keys().filter(|k| !baseline.contains_key(*k)).count();
    if new_rows > 0 {
        println!("({new_rows} new rows in {fresh_path} not present in baseline — not gated)");
    }
    if failed {
        println!("perf gate FAILED: throughput regressed beyond tolerance (or rows vanished)");
        std::process::exit(1);
    }
    println!("perf gate passed");
}
