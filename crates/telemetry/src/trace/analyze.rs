//! Trace-tree analysis: critical paths, world-split partitions, folded
//! stacks.
//!
//! Works over the flat [`SpanRecord`] list the tracer ring holds. The key
//! invariant this module leans on: a span's `charges` cover everything its
//! thread charged while the span was open, and `enclosed_by` names the
//! span physically enclosing it on the same thread. So a span's
//! **exclusive** charges are its own minus the sum of spans it enclosed —
//! and summing exclusive charges over *all* spans equals the sum over
//! top-level (`enclosed_by == 0`) spans, which is exactly what the
//! platform clock advanced while traced code ran. That is the
//! partition-sum identity the integration tests pin against
//! [`sgx_sim::Platform::time_split`](sgx_sim::Platform).

use std::collections::BTreeMap;

use sgx_sim::{ThreadCharges, TimeSplit};

use super::SpanRecord;

/// One reassembled trace tree.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The tree's id (equal to the root span's id).
    pub trace_id: u64,
    /// Every span of the trace present in the ring, ordered by span id.
    pub spans: Vec<SpanRecord>,
}

impl TraceTree {
    /// The root span (`parent_span == 0`). Panics only if constructed
    /// outside [`build_trees`], which guarantees exactly one root.
    pub fn root(&self) -> &SpanRecord {
        self.spans.iter().find(|s| s.is_root()).expect("build_trees guarantees a root")
    }

    /// Causal children of `span_id`, in span-id order.
    fn children_of(&self, span_id: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent_span == span_id).collect()
    }

    /// Whether every parent edge goes to an older (smaller) span id —
    /// true for tracer-minted ids, so any walk terminates.
    pub fn is_acyclic(&self) -> bool {
        self.spans.iter().all(|s| s.is_root() || s.parent_span < s.span_id)
    }

    /// Charges exclusive to `span`: its own minus everything it
    /// physically enclosed (saturating, per field).
    pub fn exclusive(&self, span: &SpanRecord) -> ThreadCharges {
        let enclosed = self
            .spans
            .iter()
            .filter(|c| c.enclosed_by == span.span_id)
            .fold(ThreadCharges::default(), |acc, c| acc.plus(&c.charges));
        span.charges.since(&enclosed)
    }

    /// The tree's enclave/host/boundary partition: summed exclusive
    /// charges of every span, as a [`TimeSplit`].
    pub fn partition(&self) -> TimeSplit {
        self.spans
            .iter()
            .fold(ThreadCharges::default(), |acc, s| acc.plus(&self.exclusive(s)))
            .split()
    }

    /// The critical path: from the root, repeatedly descend into the
    /// causal child with the largest total charge (ties to the oldest
    /// span). Always non-empty — it contains at least the root.
    pub fn critical_path(&self) -> Vec<&SpanRecord> {
        let mut path = vec![self.root()];
        loop {
            let current = path[path.len() - 1];
            let next = self
                .children_of(current.span_id)
                .into_iter()
                .max_by(|a, b| a.charges.ns.cmp(&b.charges.ns).then(b.span_id.cmp(&a.span_id)));
            match next {
                Some(c) => path.push(c),
                None => return path,
            }
        }
    }

    /// Folded-stack lines (`root;child;grandchild exclusive_ns`), one per
    /// span, flamegraph-compatible: semicolon-joined names down the
    /// causal path, weighted by the span's exclusive virtual time.
    pub fn folded_stacks(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut stack: Vec<(u64, String)> =
            vec![(self.root().span_id, self.root().name.to_string())];
        self.fold_into(&mut out, &mut stack);
        out
    }

    fn fold_into(&self, out: &mut Vec<(String, u64)>, stack: &mut Vec<(u64, String)>) {
        let (span_id, path) = stack.last().cloned().expect("fold stack never empty");
        let span = self
            .spans
            .iter()
            .find(|s| s.span_id == span_id)
            .expect("fold visits only spans in the tree");
        out.push((path.clone(), self.exclusive(span).ns));
        for child in self.children_of(span_id) {
            stack.push((child.span_id, format!("{path};{}", child.name)));
            self.fold_into(out, stack);
            stack.pop();
        }
    }
}

/// Groups span records into trace trees. Only traces whose root span is
/// present are returned (a ring wrap can orphan a tree's tail); trees
/// come back in trace-id order, spans within a tree in span-id order.
pub fn build_trees(records: &[SpanRecord]) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for r in records {
        by_trace.entry(r.trace_id).or_default().push(r.clone());
    }
    by_trace
        .into_iter()
        .filter(|(_, spans)| spans.iter().any(|s| s.is_root()))
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| s.span_id);
            TraceTree { trace_id, spans }
        })
        .collect()
}

/// The run-level partition: summed charges of all top-level spans
/// (`enclosed_by == 0`), i.e. everything any traced thread charged while
/// inside traced code. For a run whose every platform charge happens
/// under some traced op, this equals the platform's
/// [`TimeSplit`] advance exactly.
pub fn run_partition(records: &[SpanRecord]) -> TimeSplit {
    records
        .iter()
        .filter(|r| r.enclosed_by == 0)
        .fold(ThreadCharges::default(), |acc, r| acc.plus(&r.charges))
        .split()
}

/// Renders one tree's critical path, one span per line with its
/// exclusive world split.
pub fn render_critical_path(tree: &TraceTree) -> String {
    let mut out = String::new();
    for (depth, span) in tree.critical_path().iter().enumerate() {
        let ex = tree.exclusive(span);
        out.push_str(&format!(
            "{:indent$}{} total={}ns exclusive={}ns (enclave={} host={} boundary={}){}{}\n",
            "",
            span.name,
            span.charges.ns,
            ex.ns,
            ex.enclave_ns,
            ex.host_ns,
            ex.boundary_ns,
            if span.remote { " [remote]" } else { "" },
            if span.links.is_empty() {
                String::new()
            } else {
                format!(" links={}", span.links.len())
            },
            indent = depth * 2,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::TraceContext;
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, enclosed: u64, name: &str, ns: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span: parent,
            enclosed_by: enclosed,
            name: name.into(),
            op_class: "op",
            remote: false,
            charges: ThreadCharges { ns, enclave_ns: ns, ..Default::default() },
            links: Vec::new(),
        }
    }

    #[test]
    fn trees_group_and_exclude_orphans() {
        let records = vec![
            span(1, 1, 0, 0, "root", 10),
            span(1, 2, 1, 1, "child", 4),
            span(9, 10, 9, 9, "orphan-child", 3), // root 9 fell off the ring
        ];
        let trees = build_trees(&records);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].trace_id, 1);
        assert!(trees[0].is_acyclic());
    }

    #[test]
    fn exclusive_subtracts_enclosed_children() {
        let records = vec![span(1, 1, 0, 0, "root", 10), span(1, 2, 1, 1, "child", 4)];
        let trees = build_trees(&records);
        let tree = &trees[0];
        assert_eq!(tree.exclusive(tree.root()).ns, 6);
        let part = tree.partition();
        assert_eq!(part.enclave_ns, 10, "exclusive sums reproduce the root's window");
        assert_eq!(run_partition(&records).enclave_ns, 10);
    }

    #[test]
    fn critical_path_follows_heaviest_child() {
        let records = vec![
            span(1, 1, 0, 0, "root", 10),
            span(1, 2, 1, 1, "light", 2),
            span(1, 3, 1, 1, "heavy", 7),
            span(1, 4, 3, 3, "leaf", 5),
        ];
        let trees = build_trees(&records);
        let path: Vec<&str> = trees[0].critical_path().iter().map(|s| &*s.name).collect();
        assert_eq!(path, vec!["root", "heavy", "leaf"]);
        let rendered = render_critical_path(&trees[0]);
        assert!(rendered.contains("root"));
        assert!(rendered.contains("  heavy"));
    }

    #[test]
    fn folded_stacks_weight_by_exclusive_time() {
        let records = vec![span(1, 1, 0, 0, "root", 10), span(1, 2, 1, 1, "child", 4)];
        let trees = build_trees(&records);
        let folded = trees[0].folded_stacks();
        assert_eq!(folded, [("root".to_string(), 6), ("root;child".to_string(), 4)]);
    }

    #[test]
    fn remote_spans_do_not_double_count() {
        // A replica replay span joins the tree causally but was not
        // enclosed by the primary-side root; run_partition counts both.
        let mut replay = span(1, 5, 1, 0, "replay.frame", 3);
        replay.remote = true;
        replay.links.push(TraceContext { trace_id: 1, span_id: 1 });
        let records = vec![span(1, 1, 0, 0, "root", 10), replay];
        assert_eq!(run_partition(&records).enclave_ns, 13);
        let trees = build_trees(&records);
        assert_eq!(trees[0].partition().enclave_ns, 13);
    }
}
