//! # elsm-telemetry
//!
//! Unified observability for the eLSM stack: a lock-free metrics registry,
//! one span system that attributes virtual time to **enclave vs host**
//! and links requests into causal trace trees, and a structured security
//! **audit stream**.
//!
//! One [`Telemetry`] handle is threaded through a store's options and
//! shared (cheaply, via `Arc`) by every layer that instruments itself:
//!
//! * **Counters / gauges** ([`Counter`], [`Gauge`]) are always live — the
//!   store's own bookkeeping (`DbStats`, cache hit/miss) is expressed over
//!   them, so there is exactly one copy of every count and no second
//!   bookkeeping path to drift from. Counters are sharded atomics; an
//!   increment costs the same as the plain `AtomicU64` it replaces.
//! * **Spans / histograms** ([`Span`], [`Histogram`]) are the tracing
//!   layer and obey the enabled gate: a disabled registry reduces them to
//!   a branch on a cached bool, and they charge *zero virtual time*
//!   either way — telemetry never perturbs the simulation. A span is
//!   recorded once; its per-name aggregate, its place in a causal trace
//!   tree and its op class's latency distribution all derive from that
//!   record (see [`trace`]).
//! * **The audit stream** ([`AuditEvent`]) records every verification
//!   failure with epoch/shard/replica context in one registry-wide ring
//!   with per-kind counters.
//!
//! Snapshots export as JSON ([`Telemetry::to_json`]), the one export
//! format: the bench harness writes one `TELEMETRY.<figure>.json` and one
//! `TRACES.<figure>.json` ([`Telemetry::traces_to_json`]) per figure.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::Platform;
//!
//! let tel = telemetry::Telemetry::new();
//! let platform = Platform::with_defaults();
//! tel.attach_platform("store", &platform);
//!
//! let puts = tel.counter("db.puts");
//! let put = tel.span("op.put", "put");
//! let commit = tel.span("commit.group", "commit");
//! {
//!     let _request = put.start();
//!     let _group = commit.start();
//!     platform.ecall(|| puts.inc());
//! }
//! assert_eq!(puts.value(), 1);
//! assert_eq!(commit.stats().charges.ecalls, 1);
//! let records = tel.trace_records();
//! assert_eq!(records[0].parent_span, records[1].span_id, "one tree: op.put > commit.group");
//! assert!(tel.to_json().contains("\"db.puts\": 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod export;
pub mod metrics;
pub mod trace;

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use sgx_sim::Platform;

pub use audit::{AuditEvent, AUDIT_RING_CAPACITY};
pub use export::{PlatformSnapshot, Snapshot};
pub use metrics::{Buckets, Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use trace::{
    ActiveSpan, OpClassStats, SlowSample, Span, SpanRecord, SpanStats, TraceContext,
    SLOW_RESERVOIR, SLOW_TOP_K, TRACE_RING_CAPACITY,
};

use audit::AuditStream;
use trace::Tracer;

#[derive(Debug, Default)]
struct Registry {
    enabled: bool,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, Span>>,
    platforms: Mutex<Vec<(String, Arc<Platform>)>>,
    audit: AuditStream,
    tracer: Arc<Tracer>,
}

/// A handle onto one telemetry registry.
///
/// Cheap to clone; [`Telemetry::scoped`] derives a handle that prefixes
/// every metric name (how a sharded store keeps `shard0.db.puts` and
/// `shard1.db.puts` apart while sharing one registry). The default handle
/// is *disabled*: counters and the audit stream still work (they are the
/// store's only bookkeeping), but spans and histograms record nothing and
/// platforms are not retained.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Arc<Registry>,
    prefix: String,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    fn with_tracing(enabled: bool) -> Self {
        let registry = Registry { enabled, ..Default::default() };
        Telemetry { inner: Arc::new(registry), prefix: String::new() }
    }

    /// A fresh registry with tracing enabled.
    pub fn new() -> Self {
        Telemetry::with_tracing(true)
    }

    /// A fresh registry with tracing disabled: counters, gauges and audit
    /// events still record (they are primary bookkeeping), spans and
    /// histograms become no-ops.
    pub fn disabled() -> Self {
        Telemetry::with_tracing(false)
    }

    /// Whether tracing (spans, histograms, platform retention) is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// A handle onto the same registry that prefixes every metric name
    /// with `scope` + `"."`.
    pub fn scoped(&self, scope: &str) -> Telemetry {
        Telemetry { inner: self.inner.clone(), prefix: format!("{}{scope}.", self.prefix) }
    }

    fn name(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }

    /// Registers (or finds) the counter `name` under this handle's scope.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner.counters.lock().entry(self.name(name)).or_default().clone()
    }

    /// Registers (or finds) the gauge `name` under this handle's scope.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.gauges.lock().entry(self.name(name)).or_default().clone()
    }

    /// Registers (or finds) the histogram `name` under this handle's
    /// scope.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .entry(self.name(name))
            .or_insert_with(|| Histogram { enabled: self.inner.enabled, buckets: Arc::default() })
            .clone()
    }

    /// Registers (or finds) the span `name` under this handle's scope, in
    /// operation class `op_class` (what a root activation's latency is
    /// aggregated under; the first registration of a name decides it).
    /// The scoped name is resolved here, once — starting the span
    /// allocates nothing.
    pub fn span(&self, name: &str, op_class: &'static str) -> Span {
        let registry = &self.inner;
        let mut spans = registry.spans.lock();
        let span = spans.entry(self.name(name)).or_insert_with_key(|scoped| {
            Span::new(registry.enabled, &registry.tracer, scoped, op_class)
        });
        span.clone()
    }

    /// Retains `platform` so snapshots report its clock, enclave/host time
    /// split and event counters under `label` (scoped, deduplicated with a
    /// `#n` suffix). No-op when tracing is disabled — a disabled registry
    /// must not extend platform lifetimes.
    pub fn attach_platform(&self, label: &str, platform: &Arc<Platform>) {
        if !self.inner.enabled {
            return;
        }
        let mut platforms = self.inner.platforms.lock();
        let base = self.name(label);
        let mut unique = base.clone();
        let mut n = 1;
        while platforms.iter().any(|(l, _)| *l == unique) {
            unique = format!("{base}#{n}");
            n += 1;
        }
        platforms.push((unique, platform.clone()));
    }

    /// Finished spans currently held in the bounded trace ring (oldest
    /// first).
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        self.inner.tracer.records()
    }

    /// Spans dropped from the trace ring since creation.
    pub fn dropped_spans(&self) -> u64 {
        self.inner.tracer.dropped()
    }

    /// Per-op-class latency distributions over root spans, with exemplar
    /// trace ids.
    pub fn op_class_stats(&self) -> Vec<OpClassStats> {
        self.inner.tracer.op_classes()
    }

    /// The slow-op sampler's state: `(top-K by duration, reservoir)`.
    pub fn slow_traces(&self) -> (Vec<SlowSample>, Vec<SlowSample>) {
        self.inner.tracer.slow_samples()
    }

    /// Renders the tracer's state (op-class distributions, slow samples,
    /// span ring) as a JSON document — what the bench harness writes to
    /// `TRACES.<figure>.json`.
    pub fn traces_to_json(&self) -> String {
        trace::to_json(&self.inner.tracer)
    }

    /// Records an event on the audit stream (always live; the scope prefix
    /// does not apply — the stream is registry-wide by design, so an
    /// auditor consumes one stream however many shards feed it).
    pub fn audit(&self, event: AuditEvent) {
        self.inner.audit.record(event);
    }

    /// Recent audit events (bounded ring; see [`AUDIT_RING_CAPACITY`]).
    pub fn audit_events(&self) -> Vec<AuditEvent> {
        self.inner.audit.events()
    }

    /// Total events ever recorded of `kind` (unbounded, survives ring
    /// wrap).
    pub fn audit_count(&self, kind: &str) -> u64 {
        self.inner.audit.count(kind)
    }

    /// Total events ever recorded.
    pub fn audit_total(&self) -> u64 {
        self.inner.audit.total()
    }

    /// Convenience: current value of counter `name` under this scope
    /// (zero if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.counters.lock().get(&self.name(name)).map(|c| c.value()).unwrap_or(0)
    }

    /// Point-in-time snapshot of the whole registry (ignores scoping:
    /// all metrics, spans, platforms and audit state).
    pub fn snapshot(&self) -> Snapshot {
        let counters =
            self.inner.counters.lock().iter().map(|(k, c)| (k.clone(), c.value())).collect();
        let gauges = self.inner.gauges.lock().iter().map(|(k, g)| (k.clone(), g.value())).collect();
        let histograms =
            self.inner.histograms.lock().iter().map(|(k, h)| (k.clone(), (**h).clone())).collect();
        let spans = self.inner.spans.lock().iter().map(|(k, s)| (k.clone(), s.stats())).collect();
        let platforms = self
            .inner
            .platforms
            .lock()
            .iter()
            .map(|(label, p)| PlatformSnapshot::capture(label, p))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
            spans,
            platforms,
            audit_total: self.inner.audit.total(),
            audit_dropped: self.inner.audit.dropped(),
            trace_dropped: self.inner.tracer.dropped(),
            audit_by_kind: self
                .inner
                .audit
                .by_kind()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            audit_events: self.inner.audit.events(),
        }
    }

    /// Renders a snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_handles_share_a_registry_but_not_names() {
        let tel = Telemetry::new();
        let s0 = tel.scoped("shard0");
        let s1 = tel.scoped("shard1");
        s0.counter("db.puts").add(3);
        s1.counter("db.puts").add(5);
        assert_eq!(tel.counter_value("shard0.db.puts"), 3);
        assert_eq!(s0.counter_value("db.puts"), 3);
        assert_eq!(s1.counter_value("db.puts"), 5);
        let snap = tel.snapshot();
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn default_is_disabled_but_counts() {
        let tel = Telemetry::default();
        assert!(!tel.is_enabled());
        tel.counter("c").inc();
        assert_eq!(tel.counter_value("c"), 1);
        let span = tel.span("s", "op");
        drop(span.start());
        assert_eq!(span.stats().count, 0, "disabled spans record nothing");
        let p = Platform::with_defaults();
        tel.attach_platform("p", &p);
        assert!(tel.snapshot().platforms.is_empty(), "disabled registries drop platforms");
        tel.audit(AuditEvent::new("ForgedRecord", "test"));
        assert_eq!(tel.audit_count("ForgedRecord"), 1, "audit is always live");
    }

    #[test]
    fn platform_labels_deduplicate() {
        let tel = Telemetry::new();
        let p = Platform::with_defaults();
        tel.attach_platform("store", &p);
        tel.attach_platform("store", &p);
        let labels: Vec<String> = tel.snapshot().platforms.into_iter().map(|p| p.label).collect();
        assert_eq!(labels, vec!["store".to_string(), "store#1".to_string()]);
    }
}
