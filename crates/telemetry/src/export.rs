//! Snapshot assembly and rendering: JSON and Prometheus text format.
//!
//! The JSON document is what the bench harness writes as
//! `TELEMETRY.<figure>.json`; the Prometheus rendering is the scrape
//! surface the future network front-end will expose. Both are hand-rolled
//! (the workspace is offline; no serde) and deterministic: maps are
//! B-tree-ordered and histogram buckets with zero counts are elided.

use std::fmt::Write as _;
use std::sync::Arc;

use sgx_sim::{Platform, StatsSnapshot, ThreadCharges, TimeSplit};

use crate::audit::AuditEvent;
use crate::metrics::Buckets;
use crate::trace::SpanStats;

/// Point-in-time capture of one attached platform.
#[derive(Debug, Clone)]
pub struct PlatformSnapshot {
    /// Label given at attach time.
    pub label: String,
    /// The platform's virtual clock.
    pub clock_ns: u64,
    /// Virtual time split by world (enclave / host / boundary).
    pub time: TimeSplit,
    /// The platform's event counters.
    pub stats: StatsSnapshot,
}

impl PlatformSnapshot {
    pub(crate) fn capture(label: &str, p: &Arc<Platform>) -> Self {
        PlatformSnapshot {
            label: label.to_string(),
            clock_ns: p.clock().now_ns(),
            time: p.time_split(),
            stats: p.stats(),
        }
    }

    /// Every field, named as both renderers print it.
    fn fields(&self) -> [(&'static str, u64); 13] {
        let (time, stats) = (&self.time, &self.stats);
        [
            ("clock_ns", self.clock_ns),
            ("enclave_ns", time.enclave_ns),
            ("host_ns", time.host_ns),
            ("boundary_ns", time.boundary_ns),
            ("ecalls", stats.ecalls),
            ("ocalls", stats.ocalls),
            ("epc_page_ins", stats.epc_page_ins),
            ("epc_page_outs", stats.epc_page_outs),
            ("cross_copy_bytes", stats.cross_copy_bytes),
            ("disk_seeks", stats.disk_seeks),
            ("disk_bytes", stats.disk_bytes),
            ("hash_blocks", stats.hash_blocks),
            ("counter_writes", stats.counter_writes),
        ]
    }
}

/// A full registry capture (see [`crate::Telemetry::snapshot`]).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All counters, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// All gauges, name-ordered.
    pub gauges: Vec<(String, u64)>,
    /// All histograms, name-ordered, each a point-in-time copy.
    pub histograms: Vec<(String, Buckets)>,
    /// All spans, name-ordered.
    pub spans: Vec<(String, SpanStats)>,
    /// All attached platforms, in attach order.
    pub platforms: Vec<PlatformSnapshot>,
    /// Total audit events ever recorded.
    pub audit_total: u64,
    /// Audit events evicted from the bounded ring.
    pub audit_dropped: u64,
    /// Per-kind audit counts (unbounded).
    pub audit_by_kind: Vec<(String, u64)>,
    /// Recent audit events (bounded ring).
    pub audit_events: Vec<AuditEvent>,
    /// Trace spans evicted from the bounded trace ring.
    pub trace_dropped: u64,
}

/// Escapes a string for embedding in a JSON string or Prometheus label
/// value: backslashes, double quotes, and newlines (both bare `\n` and
/// `\r`) — per the Prometheus exposition format, which would otherwise
/// break line-oriented parsers on a raw newline.
pub(crate) fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n").replace('\r', "\\r")
}

/// The charge fields of a span, named as every renderer prints them
/// (snapshot JSON, Prometheus, trace JSON).
fn charge_fields(c: &ThreadCharges) -> [(&'static str, u64); 7] {
    [
        ("total_ns", c.ns),
        ("enclave_ns", c.enclave_ns),
        ("host_ns", c.host_ns),
        ("boundary_ns", c.boundary_ns),
        ("ecalls", c.ecalls),
        ("ocalls", c.ocalls),
        ("cross_copy_bytes", c.cross_copy_bytes),
    ]
}

/// `"a": 1, "b": 2, ...` — the body of a JSON object of numeric fields.
fn json_fields<const N: usize>(fields: [(&'static str, u64); N]) -> String {
    fields.map(|(field, v)| format!("\"{field}\": {v}")).join(", ")
}

/// A span's charge fields as the body of a JSON object.
pub(crate) fn charges_json(c: &ThreadCharges) -> String {
    json_fields(charge_fields(c))
}

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

impl Snapshot {
    /// Renders the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"generated_by\": \"elsm-telemetry\",\n");
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = write!(out, "\n    \"{}\": {v}{comma}", esc(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            let _ = write!(out, "\n    \"{}\": {v}{comma}", esc(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() { "," } else { "" };
            let buckets: Vec<String> =
                h.nonzero().iter().map(|(le, c)| format!("[{le}, {c}]")).collect();
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [{}]}}{comma}",
                esc(name),
                h.count(),
                h.sum(),
                buckets.join(", ")
            );
        }
        out.push_str("\n  },\n  \"spans\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, {}}}{comma}",
                esc(name),
                s.count,
                charges_json(&s.charges)
            );
        }
        out.push_str("\n  },\n  \"platforms\": {");
        for (i, p) in self.platforms.iter().enumerate() {
            let comma = if i + 1 < self.platforms.len() { "," } else { "" };
            let fields = json_fields(p.fields());
            let _ = write!(out, "\n    \"{}\": {{{fields}}}{comma}", esc(&p.label));
        }
        let _ = write!(
            out,
            "\n  }},\n  \"trace\": {{\"dropped_spans\": {}}},\n  \"audit\": {{\n    \"total\": \
             {},\n    \"dropped\": {},\n    \"by_kind\": {{",
            self.trace_dropped, self.audit_total, self.audit_dropped
        );
        for (i, (kind, v)) in self.audit_by_kind.iter().enumerate() {
            let comma = if i + 1 < self.audit_by_kind.len() { "," } else { "" };
            let _ = write!(out, "\n      \"{}\": {v}{comma}", esc(kind));
        }
        out.push_str("\n    },\n    \"events\": [");
        for (i, e) in self.audit_events.iter().enumerate() {
            let comma = if i + 1 < self.audit_events.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n      {{\"seq\": {}, \"at_ns\": {}, \"kind\": \"{}\", \"component\": \
                 \"{}\", \"detail\": \"{}\", \"epoch\": {}, \"shard\": {}, \"replica\": \
                 {}}}{comma}",
                e.seq,
                e.at_ns,
                esc(e.kind),
                esc(e.component),
                esc(&e.detail),
                opt(e.epoch),
                opt(e.shard.map(u64::from)),
                opt(e.replica.map(u64::from))
            );
        }
        out.push_str("\n    ]\n  }\n}\n");
        out
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`elsm_` prefix, metric names with dots mapped to underscores).
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE elsm_{n}_total counter\nelsm_{n}_total {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE elsm_{n} gauge\nelsm_{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE elsm_{n} histogram");
            let mut cumulative = 0u64;
            for (le, c) in h.nonzero() {
                cumulative += c;
                let _ = writeln!(out, "elsm_{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "elsm_{n}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "elsm_{n}_sum {}\nelsm_{n}_count {}", h.sum(), h.count());
        }
        for (name, s) in &self.spans {
            let label = esc(name);
            let _ = writeln!(out, "elsm_span_count{{span=\"{label}\"}} {}", s.count);
            for (field, v) in charge_fields(&s.charges) {
                let _ = writeln!(out, "elsm_span_{field}{{span=\"{label}\"}} {v}");
            }
        }
        for p in &self.platforms {
            let label = esc(&p.label);
            for (field, v) in p.fields() {
                let _ = writeln!(out, "elsm_platform_{field}{{platform=\"{label}\"}} {v}");
            }
        }
        let _ = writeln!(out, "# TYPE elsm_audit_events_total counter");
        for (kind, v) in &self.audit_by_kind {
            let _ = writeln!(out, "elsm_audit_events_total{{kind=\"{}\"}} {v}", esc(kind));
        }
        let _ = writeln!(
            out,
            "# TYPE elsm_audit_events_dropped_total counter\nelsm_audit_events_dropped_total {}",
            self.audit_dropped
        );
        let _ = writeln!(
            out,
            "# TYPE elsm_trace_spans_dropped_total counter\nelsm_trace_spans_dropped_total {}",
            self.trace_dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{AuditEvent, Telemetry};
    use sgx_sim::Platform;

    fn populated() -> Telemetry {
        let tel = Telemetry::new();
        let p = Platform::with_defaults();
        tel.attach_platform("store", &p);
        tel.counter("db.puts").add(7);
        tel.gauge("compaction.debt_bytes").set(4096);
        tel.histogram("commit.batches_per_group").observe(3);
        let span = tel.span("flush.merge", "flush");
        p.ecall(|| {
            let _g = span.start();
            p.charge_hash(64);
        });
        tel.audit(AuditEvent::new("HiddenLevel", "core.scan").epoch(3).detail("level 2 hidden"));
        tel
    }

    #[test]
    fn json_contains_all_sections() {
        let json = populated().to_json();
        for needle in [
            "\"db.puts\": 7",
            "\"compaction.debt_bytes\": 4096",
            "\"commit.batches_per_group\"",
            "\"flush.merge\"",
            "\"enclave_ns\"",
            "\"store\"",
            "\"kind\": \"HiddenLevel\"",
            "\"epoch\": 3",
            "\"shard\": null",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let text = populated().to_prometheus();
        assert!(text.contains("elsm_db_puts_total 7"));
        assert!(text.contains("elsm_compaction_debt_bytes 4096"));
        assert!(text.contains("elsm_commit_batches_per_group_bucket{le=\"3\"} 1"));
        assert!(text.contains("elsm_commit_batches_per_group_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("elsm_span_enclave_ns{span=\"flush.merge\"}"));
        assert!(text.contains("elsm_platform_ecalls{platform=\"store\"} 1"));
        assert!(text.contains("# TYPE elsm_audit_events_total counter"));
        assert!(text.contains("elsm_audit_events_total{kind=\"HiddenLevel\"} 1"));
        assert!(text.contains("elsm_audit_events_dropped_total 0"));
        assert!(text.contains("elsm_trace_spans_dropped_total 0"));
    }

    #[test]
    fn label_values_escape_newlines_quotes_and_backslashes() {
        let tel = Telemetry::new();
        tel.audit(
            AuditEvent::new("ForgedRecord", "core.get").detail("line1\nline2 \"x\" a\\b\rend"),
        );
        drop(tel.scoped("a\"b\nc").span("op.get", "get").start());
        for json in [tel.to_json(), tel.traces_to_json()] {
            assert!(json.contains("a\\\"b\\nc.op.get"), "scoped span name escaped in:\n{json}");
            assert!(!json.contains("a\"b"), "no raw quote inside a JSON string");
            assert!(!json.contains("b\nc"), "no raw newline inside a JSON string");
        }
        let json = tel.to_json();
        assert!(json.contains("line1\\nline2 \\\"x\\\" a\\\\b\\rend"));
        assert!(!json.contains("line1\nline2"), "no raw newline inside a JSON string");
        assert_eq!(super::esc("a\\b\"c\nd\re"), "a\\\\b\\\"c\\nd\\re");
        let prom = tel.to_prometheus();
        assert!(prom.contains("kind=\"ForgedRecord\""));
        assert!(prom.contains("elsm_span_count{span=\"a\\\"b\\nc.op.get\"} 1"));
    }
}
