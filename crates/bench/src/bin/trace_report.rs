//! Renders a request-tracing report for a small sharded + replicated
//! cluster: per-op-class latency distributions (p50/p99/p999 with
//! exemplar trace ids), the slow-op sampler, the critical path of the
//! slowest sampled trace, and a folded-stack (flamegraph-compatible)
//! critical-path breakdown aggregated across every trace in the ring.
//!
//! All durations are simulated nanoseconds on the virtual clock, so the
//! report is bit-identical run to run.

use std::collections::BTreeMap;

use elsm::{AuthenticatedKv, P2Options};
use elsm_shard::{ShardedKv, ShardedOptions};
use sgx_sim::Platform;
use telemetry::trace::analyze;

fn main() {
    let tel = elsm_bench::telemetry::begin_figure();
    let options = P2Options { telemetry: tel.clone(), ..Default::default() };
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(2, options).with_replicas(2),
    )
    .expect("open sharded replicated cluster");

    // A small mixed workload: loads, skewed point reads, cross-shard
    // scans. Every op is verified end to end and mints one trace tree.
    for i in 0..256u32 {
        let key = format!("user{i:06}");
        cluster.put(key.as_bytes(), &[0xabu8; 64]).expect("put");
    }
    for i in 0..256u32 {
        let key = format!("user{:06}", (i * 37) % 256);
        cluster.get(key.as_bytes()).expect("get");
    }
    for i in 0..16u32 {
        let from = format!("user{:06}", i * 8);
        let to = format!("user{:06}", i * 8 + 32);
        cluster.scan(from.as_bytes(), to.as_bytes()).expect("scan");
    }

    println!("== op classes (virtual ns) ==");
    for c in tel.op_class_stats() {
        let exemplar =
            c.exemplar_at(0.999).map(|e| e.trace_id.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "{:<10} n={:<6} p50={:<10} p99={:<10} p999={:<10} outlier_exemplar_trace={exemplar}",
            c.op_class,
            c.durations.count(),
            c.durations.quantile(0.50),
            c.durations.quantile(0.99),
            c.durations.quantile(0.999),
        );
    }

    let (top, reservoir) = tel.slow_traces();
    println!("\n== slow ops (top-{} exact, {} reservoir) ==", top.len(), reservoir.len());
    for s in &top {
        println!("trace={:<6} class={:<10} duration={}ns", s.trace_id, s.op_class, s.duration_ns);
    }

    let records = tel.trace_records();
    let trees = analyze::build_trees(&records);
    println!(
        "\n{} spans in ring across {} trace trees ({} dropped)",
        records.len(),
        trees.len(),
        tel.dropped_spans()
    );

    // The slowest sampled trace still resident in the ring gets its full
    // critical path rendered span by span.
    if let Some(slowest) = top.iter().find_map(|s| trees.iter().find(|t| t.trace_id == s.trace_id))
    {
        println!("\n== critical path of slowest resident trace (trace {}) ==", slowest.trace_id);
        print!("{}", analyze::render_critical_path(slowest));
    }

    // Folded stacks, aggregated by stack across every tree — pipe
    // straight into flamegraph.pl / inferno.
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for tree in &trees {
        for (stack, ns) in tree.folded_stacks() {
            *folded.entry(stack).or_insert(0) += ns;
        }
    }
    println!("\n== folded critical-path stacks (flamegraph-compatible) ==");
    for (stack, ns) in &folded {
        println!("{stack} {ns}");
    }
}
