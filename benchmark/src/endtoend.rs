//! The end-to-end metrics, computed from R repetitions.

use crate::estimator::{percentile, repeat_min, repeat_min_phase_ns, TooFewSamples};
use crate::run::RepData;
use crate::workloads::Plan;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Name, unit, better direction and bound of every end-to-end metric, in
/// reporting order. `BENCHMARK.json` is generated from this table and the
/// README defines each metric. No wall-clock bound is wider than 0.15;
/// the A/A record (`AA.md`) shows the run-to-run spreads they cover.
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.15),
    ("wall_kops_per_s", "kops/s", "higher", 0.15),
    ("read_p50_us", "us", "lower", 0.15),
    ("read_p99_us", "us", "lower", 0.15),
    ("sim_kops_per_s", "kops/s", "higher", 0.01),
    ("sim_read_mean_us", "us", "lower", 0.01),
    ("disk_kib_per_op", "KiB", "lower", 0.01),
    ("space_amp", "count", "lower", 0.01),
    ("allocs_per_op", "count", "lower", 0.02),
    ("peak_rss_mib", "MiB", "lower", 0.1),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().find(|m| m.0 == name).map(|m| m.1).expect("known end-to-end metric")
}

/// Sorted per-op repeat-min latencies of the read-class ops.
fn read_latencies(plan: &Plan, per_op: &[u64]) -> Vec<u64> {
    let mut reads: Vec<u64> =
        plan.ops.iter().zip(per_op).filter(|(op, _)| op.is_read()).map(|(_, &t)| t).collect();
    reads.sort_unstable();
    reads
}

/// `VmHWM` from /proc/self/status, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Repeat-min wall time of building one store, in nanoseconds.
pub fn setup_ns(reps: &[RepData]) -> u64 {
    let finish = reps.iter().map(|r| r.finish_ns).min().unwrap_or(0);
    repeat_min_phase_ns(reps.iter().map(|r| &r.load_ns[..])) + finish
}

/// Repeat-min wall time of the measured phase, in nanoseconds.
pub fn measured_ns(reps: &[RepData]) -> u64 {
    repeat_min_phase_ns(reps.iter().map(|r| &r.op_ns[..]))
}

/// Per-op repeat-min wall latencies of the measured phase.
pub fn per_op_min(reps: &[RepData]) -> Vec<u64> {
    repeat_min(reps.iter().map(|r| &r.op_ns[..]))
}

/// Computes every end-to-end metric. The model-clock and counter metrics
/// come from the first repetition: the determinism check has already
/// established that all repetitions agree on them.
pub fn metrics(plan: &Plan, reps: &[RepData]) -> Result<Vec<Metric>, TooFewSamples> {
    let first = &reps[0];
    let n = plan.ops.len() as f64;
    let wall_reads = read_latencies(plan, &per_op_min(reps));
    let sim_reads = read_latencies(plan, &first.op_sim_ns);
    let sim_ns: u64 = first.sim_ns_by_platform.iter().sum();
    // Read and write amplification at the device over the whole
    // repetition: a read-only measured phase on warm files moves no disk
    // bytes at all, and a metric that is 0 can show no regression ratio.
    let disk_bytes = first.load_counters["disk_bytes"] + first.counters["disk_bytes"];
    let calls = plan.load.len() + plan.warm.len() + plan.ops.len();
    let values = [
        ("setup_s", setup_ns(reps) as f64 / 1e9),
        ("wall_kops_per_s", n / (measured_ns(reps) as f64 / 1e9) / 1e3),
        ("read_p50_us", percentile(&wall_reads, 0.50)? as f64 / 1e3),
        ("read_p99_us", percentile(&wall_reads, 0.99)? as f64 / 1e3),
        ("sim_kops_per_s", n / (sim_ns as f64 / 1e9) / 1e3),
        ("sim_read_mean_us", sim_reads.iter().sum::<u64>() as f64 / sim_reads.len() as f64 / 1e3),
        ("disk_kib_per_op", disk_bytes as f64 / 1024.0 / calls as f64),
        ("space_amp", first.end.fs_bytes as f64 / plan.live_user_bytes() as f64),
        ("allocs_per_op", reps.iter().map(|r| r.allocs).min().unwrap_or(0) as f64 / n),
        ("peak_rss_mib", peak_rss_mib()),
    ];
    Ok(values.iter().map(|&(name, value)| Metric { name, unit: unit_of(name), value }).collect())
}

/// Number of read-class samples and how many lie beyond the p99.
pub fn read_sample_counts(plan: &Plan) -> (usize, usize) {
    let reads = plan.ops.iter().filter(|op| op.is_read()).count();
    (reads, reads - (0.99 * reads as f64).ceil() as usize)
}
