//! Per-figure telemetry registries.
//!
//! Every store a figure builds, and every YCSB phase it runs, reports
//! into the **current** registry ([`current`]), and `run_all` rotates it
//! with [`begin_figure`] before each figure so figures don't bleed into
//! each other. After a figure runs, [`write_dumps`] dumps the
//! registry — the enclave/host virtual-time split and ecall/ocall
//! transition counts of every platform the figure's stores attached,
//! plus all `db.*` / `cache.*` / `commit.*` / `ycsb.*` series — to
//! `TELEMETRY.<figure>.json`, and its span records to
//! `TRACES.<figure>.json`, next to the figure's `BENCH_results*.json`.
//!
//! The registry is process-global for the same reason the results sink
//! is: figure functions build stores many layers below the binary that
//! knows which figure is running, and threading a handle through every
//! build helper would couple every figure signature to observability.

use std::sync::Mutex;

use telemetry::Telemetry;

static CURRENT: Mutex<Option<Telemetry>> = Mutex::new(None);

/// Starts a fresh enabled registry; subsequent [`current`] callers (all
/// stores built after this) report into it. Returns the new registry.
pub fn begin_figure() -> Telemetry {
    let tel = Telemetry::new();
    *CURRENT.lock().unwrap() = Some(tel.clone());
    tel
}

/// The registry of the figure currently running, lazily created enabled
/// on first use, so a figure function called outside `run_all` still gets
/// instrumented stores.
pub fn current() -> Telemetry {
    CURRENT.lock().unwrap().get_or_insert_with(Telemetry::new).clone()
}

/// Writes the current registry's two dumps beside the figure's results:
/// the JSON snapshot to `TELEMETRY.<figure>.json` and the trace dump
/// (op-class latency distributions with exemplar trace ids, the slow-op
/// sampler, and the span ring) to `TRACES.<figure>.json`. Errors are
/// reported, not fatal — like the results sink, observability must never
/// fail a benchmark run.
pub fn write_dumps(figure: &str) {
    let tel = current();
    for (kind, body) in [("TELEMETRY", tel.to_json()), ("TRACES", tel.traces_to_json())] {
        let path = format!("{kind}.{figure}.json");
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("({path} written)"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_rotates_the_current_registry() {
        let a = begin_figure();
        a.counter("x").inc();
        assert_eq!(current().counter_value("x"), 1);
        let b = begin_figure();
        assert_eq!(b.counter_value("x"), 0, "fresh registry per figure");
        assert_eq!(current().counter_value("x"), 0);
        assert_eq!(a.counter_value("x"), 1, "old figure keeps its data");
    }
}
