//! Machine-readable benchmark results.
//!
//! Every YCSB measurement the figure functions take is also recorded here
//! and written by `run_all` — the full sweep to `BENCH_results.json`, a
//! `--only` subset to one `BENCH_results.<figure>.json` per figure — so
//! the performance trajectory of the repository is tracked by commits and
//! CI artifacts rather than by eyeballing text tables. The committed
//! `BENCH_results.json` at the repository root is the `--smoke` sweep,
//! byte for byte: the virtual clock is deterministic, so regenerate it and
//! `git diff` before landing a change.

use std::fmt::Write as _;
use std::sync::Mutex;

use telemetry::export::json_escape;
use ycsb::RunReport;

/// One measured configuration.
#[derive(Debug, Clone)]
struct ResultEntry {
    /// Figure/ablation the measurement belongs to.
    pub figure: String,
    /// Configuration label (deterministic per figure: the n-th measurement
    /// of a figure is always the same configuration for a given mode).
    pub config: String,
    /// Workload name.
    pub workload: String,
    /// Throughput in operations per simulated second.
    pub ops_per_sec: f64,
    /// Median per-operation latency (simulated µs).
    pub p50_us: f64,
    /// 99th-percentile per-operation latency (simulated µs).
    pub p99_us: f64,
    /// 99.9th-percentile per-operation latency (simulated µs).
    pub p999_us: f64,
    /// Named gauges recorded with the entry (e.g. `debt_bytes`,
    /// `pending_jobs`, `vlog_bytes`, `cache_hits`), rendered verbatim
    /// and in order into the results JSON. How fig7 records compaction
    /// debt and fig14 tracks value-log residency and verified-cache hit
    /// ratios next to the throughput they explain.
    pub gauges: Vec<(String, u64)>,
    /// A closed-loop (multi-client) row's two measures of the work behind
    /// its throughput: the charged time per op and the mean client finish
    /// (µs), rendered after the gauges. Single-client rows have none.
    pub closed_loop: Option<(f64, f64)>,
}

struct Sink {
    figure: String,
    seq: u64,
    entries: Vec<ResultEntry>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink { figure: String::new(), seq: 0, entries: Vec::new() });

/// Declares the figure subsequent [`note_run`] calls belong to.
pub fn set_figure(name: &str) {
    let mut s = SINK.lock().unwrap();
    s.figure = name.to_string();
    s.seq = 0;
}

/// Records a single-client latency measurement under the current figure,
/// labeled by its position in the figure; throughput is the reciprocal of
/// the mean latency.
pub fn note_run(report: &RunReport) {
    note_run_gauges(report, &[]);
}

/// [`note_run`] plus extra named gauges (value-log residency, cache
/// hit/miss counters, …) attached to the same entry.
pub fn note_run_gauges(report: &RunReport, gauges: &[(&str, u64)]) {
    let ops_per_sec = if report.overall.mean_us > 0.0 { 1e6 / report.overall.mean_us } else { 0.0 };
    push_entry(None, report, ops_per_sec, gauges, None);
}

/// Records a multi-client scaling measurement under the current figure,
/// labeled with the system under test and the client count; throughput is
/// operations over the phase's makespan. The row also carries the charged
/// time per op and the mean client finish, which tell a change in the
/// work from a change in how the closed loop scheduled it.
pub fn note_concurrent(system: &str, report: &RunReport) {
    note_concurrent_gauges(system, report, &[]);
}

/// [`note_concurrent`] plus extra named gauges — how the fig7 sweep
/// records the store's end-of-phase compaction debt next to the
/// throughput it explains.
pub fn note_concurrent_gauges(system: &str, report: &RunReport, gauges: &[(&str, u64)]) {
    let config = format!("{system}@{}threads", report.clients);
    let closed_loop = Some((report.charged_us_per_op, report.mean_finish_us));
    push_entry(Some(config), report, report.kops_per_sec * 1_000.0, gauges, closed_loop);
}

/// The one entry-recording path every `note_*` helper funnels through.
/// `config` is used verbatim when given; single-threaded runs pass
/// `None` and get the figure's sequence-numbered label.
fn push_entry(
    config: Option<String>,
    report: &RunReport,
    ops_per_sec: f64,
    gauges: &[(&str, u64)],
    closed_loop: Option<(f64, f64)>,
) {
    let mut s = SINK.lock().unwrap();
    let config = config.unwrap_or_else(|| {
        let c = format!("{}#{}", s.figure, s.seq);
        s.seq += 1;
        c
    });
    let figure = s.figure.clone();
    s.entries.push(ResultEntry {
        figure,
        config,
        workload: report.workload.clone(),
        ops_per_sec,
        p50_us: report.overall.p50_us,
        p99_us: report.overall.p99_us,
        p999_us: report.overall.p999_us,
        gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        closed_loop,
    });
}

/// Renders recorded entries from index `start` on as a JSON document.
fn render_json(mode: &str, start: usize) -> String {
    let s = SINK.lock().unwrap();
    let entries = s.entries.get(start..).unwrap_or(&[]);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"generated_by\": \"elsm-bench\",");
    let _ = writeln!(out, "  \"mode\": \"{}\",", json_escape(mode));
    let _ = writeln!(out, "  \"results\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let mut gauges = String::new();
        for (name, value) in &e.gauges {
            let _ = write!(gauges, ", \"{}\": {value}", json_escape(name));
        }
        if let Some((charged, finish)) = e.closed_loop {
            let _ = write!(
                gauges,
                ", \"charged_us_per_op\": {charged:.4}, \"mean_finish_us\": {finish:.3}"
            );
        }
        let _ = writeln!(
            out,
            "    {{\"figure\": \"{}\", \"config\": \"{}\", \"workload\": \"{}\", \
             \"ops_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": \
             {:.3}{}}}{}",
            json_escape(&e.figure),
            json_escape(&e.config),
            json_escape(&e.workload),
            e.ops_per_sec,
            e.p50_us,
            e.p99_us,
            e.p999_us,
            gauges,
            comma
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes the entries recorded from index `start` on to `path`: 0 for
/// the whole sweep; `run_all --only fig11,fig12` snapshots [`len`] before
/// each figure and writes that figure's slice to its own file. Errors are
/// reported, not fatal — result tracking must never fail a benchmark run.
pub fn write_results(path: &str, mode: &str, start: usize) {
    if let Err(e) = std::fs::write(path, render_json(mode, start)) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("(machine-readable results written to {path})");
    }
}

/// Number of entries currently recorded.
pub fn len() -> usize {
    SINK.lock().unwrap().entries.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::LatencySummary;

    fn report(workload: &str, clients: usize) -> RunReport {
        RunReport {
            workload: workload.into(),
            clients,
            ops: 10,
            elapsed_us: 1.0,
            kops_per_sec: 5.0,
            overall: LatencySummary {
                count: 10,
                mean_us: 2.0,
                p50_us: 1.5,
                p95_us: 3.0,
                p99_us: 4.0,
                p999_us: 4.5,
                max_us: 5.0,
            },
            reads: LatencySummary::default(),
            writes: LatencySummary::default(),
            read_hit_rate: 1.0,
            serial_fraction: 0.1,
            charged_us_per_op: 1.25,
            mean_finish_us: 0.75,
        }
    }

    // One test: the sink is process-global, so two tests would race on
    // the current figure.
    #[test]
    fn rows_render_by_kind() {
        // Single-client rows are positional and use the mean latency.
        set_figure("figX");
        note_run(&report("C", 1));
        let json = render_json("test", 0);
        assert!(json.contains("\"figure\": \"figX\""));
        assert!(json.contains("\"config\": \"figX#0\""));
        assert!(json.contains("\"ops_per_sec\": 500000.0"));
        assert!(len() >= 1);

        // Multi-client rows are labeled and use makespan throughput.
        set_figure("figY");
        note_concurrent_gauges("p2", &report("A", 8), &[("debt_bytes", 4096), ("cache_hits", 77)]);
        let json = render_json("test", 0);
        assert!(json.contains("\"config\": \"p2@8threads\""));
        assert!(json.contains("\"ops_per_sec\": 5000.0"));
        assert!(json.contains(
            "\"debt_bytes\": 4096, \"cache_hits\": 77, \"charged_us_per_op\": 1.2500, \
             \"mean_finish_us\": 0.750}"
        ));
        assert!(json.contains("\"p999_us\": 4.500},"), "a single-client row ends at its latencies");
    }

    // Explicit config labels only: this test must not move the shared
    // sink's figure or sequence number under `rows_render_by_kind`.
    #[test]
    fn labels_render_escaped() {
        note_concurrent_gauges("a\nb\rc\"d", &report("A", 2), &[("x\ny", 1)]);
        let json = render_json("test", 0);
        assert!(json.contains("\"config\": \"a\\nb\\rc\\\"d@2threads\""), "{json}");
        assert!(json.contains("\"x\\ny\": 1"), "{json}");
        assert!(!json.contains("a\nb"), "no raw newline inside a JSON string");
    }
}
