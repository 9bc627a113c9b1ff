//! The one span system: named regions whose virtual-time charges are
//! attributed to enclave / host / boundary, aggregated per name, and
//! linked into causal trace trees across group-commit, shards and replicas.
//!
//! A [`Span`] is registered once ([`Telemetry::span`](crate::Telemetry::span):
//! scoped name and op class resolved there). Starting it snapshots the
//! calling thread's cumulative platform charges
//! ([`sgx_sim::thread_charges`]); when the [`ActiveSpan`] guard drops, the
//! **one** delta is folded into the span's aggregate ([`SpanStats`]),
//! pushed on the bounded ring as a [`SpanRecord`], and — for a root —
//! folded into its op class ([`OpClassStats`]) and the slow-op sampler.
//! So every aggregate is derived from the records: `SpanStats` is the sum
//! of the records of that name, `OpClassStats` the fold of the root
//! records of that class. A disabled registry reduces `start()` to a
//! branch on a cached bool; an enabled one charges zero virtual time.
//!
//! A [`TraceContext`] names one request tree (`trace_id`) and one position
//! inside it (`span_id`). Ids come from a single atomic sequence on the
//! owning registry — deterministic under a deterministic schedule, and
//! entirely free of wall-clock input.
//!
//! Propagation has two flavours:
//!
//! * **Thread-local nesting.** [`Span::start`] opens a child of whatever
//!   span is already active on the calling thread, or a root when none is
//!   (a shard store's `op.put` nests under the router's `router.op.put`,
//!   and a flush under the `op.put` that crossed the write buffer, for
//!   free).
//! * **Explicit causal edges.** When work crosses a thread, queue or wire
//!   boundary, the producer captures [`current_context`] (16 bytes,
//!   [`TraceContext::encode`]) and the consumer opens a *remote* child
//!   with [`Span::start_child_of`]: replica replay and worker-thread
//!   merges join the request's tree this way. A batched boundary that
//!   serves *many* requests (one group commit for N followers) instead
//!   records **span links**: each follower's span links to the one shared
//!   commit span via [`link_current`].
//!
//! `parent_span` is the *causal* parent; `enclosed_by` is the span that
//! physically enclosed this one on the same thread (zero when none) — the
//! latter is what makes exclusive-time partitions sum exactly to the
//! platform clock (see [`analyze`]).
//!
//! Storage is bounded: a fixed ring of finished spans (drops counted), a
//! per-op-class [`Buckets`] distribution with max-duration exemplar trace
//! ids per bucket, and a bounded slow-op sampler (top-K by duration plus
//! a deterministic reservoir of the rest).

pub mod analyze;

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sgx_sim::ThreadCharges;

use crate::export::{charges_json, json_escape};
use crate::metrics::Buckets;

/// Capacity of the finished-span ring. Older spans are dropped (and
/// counted) so week-long runs cannot grow registry memory without bound.
pub const TRACE_RING_CAPACITY: usize = 8192;

/// How many slowest root spans the sampler keeps exactly.
pub const SLOW_TOP_K: usize = 16;

/// Size of the deterministic reservoir sampling the remaining roots.
pub const SLOW_RESERVOIR: usize = 64;

/// A position in one trace tree: which tree (`trace_id`) and which span
/// within it (`span_id`). Copyable, 16 bytes on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Id of the trace tree (the root span's id; zero = untraced).
    pub trace_id: u64,
    /// Id of the span this context points at.
    pub span_id: u64,
}

impl TraceContext {
    /// The absent context: carried on the wire when tracing is off so
    /// envelope sizes (and therefore per-byte charges) never depend on
    /// whether tracing is enabled.
    pub const NONE: TraceContext = TraceContext { trace_id: 0, span_id: 0 };

    /// Whether this is the absent context.
    pub fn is_none(&self) -> bool {
        self.trace_id == 0
    }

    /// Fixed-width wire encoding: `trace_id` then `span_id`, little
    /// endian. Always 16 bytes, even for [`TraceContext::NONE`].
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.span_id.to_le_bytes());
        out
    }

    /// Decodes a context from exactly 16 bytes (`None` otherwise).
    pub fn decode(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() != 16 {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_le_bytes(bytes[..8].try_into().ok()?),
            span_id: u64::from_le_bytes(bytes[8..].try_into().ok()?),
        })
    }
}

/// One finished span, as stored in the trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace tree this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique across the registry; greater than its
    /// causal parent's id, which makes trees acyclic by construction).
    pub span_id: u64,
    /// Causal parent span id (zero for a root).
    pub parent_span: u64,
    /// Span that physically enclosed this one on the same thread when it
    /// started (zero when none). Equal to `parent_span` for nested
    /// children; may differ for remote children that happen to run inside
    /// an unrelated active span.
    pub enclosed_by: u64,
    /// Scope-prefixed span name (e.g. `shard0.replica1.op.scan`), shared
    /// with the [`Span`] that produced the record.
    pub name: Arc<str>,
    /// Operation class for latency aggregation (e.g. `"put"`, `"scan"`).
    pub op_class: &'static str,
    /// Whether the causal parent lives on the far side of a thread, wire
    /// or queue boundary (replica replay joining the primary's tree).
    pub remote: bool,
    /// Platform charges attributed to this span's thread while it was
    /// open (total plus enclave/host/boundary split, ecalls, ocalls,
    /// cross-boundary bytes).
    pub charges: ThreadCharges,
    /// Span links: shared work this span waited on without owning it
    /// (a follower write links the leader's group-commit span).
    pub links: Vec<TraceContext>,
}

impl SpanRecord {
    /// This span's position as a [`TraceContext`].
    pub fn ctx(&self) -> TraceContext {
        TraceContext { trace_id: self.trace_id, span_id: self.span_id }
    }

    /// Whether this span is the root of its trace tree.
    pub fn is_root(&self) -> bool {
        self.parent_span == 0
    }
}

/// Aggregate over a span's completed activations: the field-wise sum of
/// the [`SpanRecord::charges`] of every record of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed activations.
    pub count: u64,
    /// Summed charges: total virtual time, its enclave / host / boundary
    /// split, ecall / ocall transitions and cross-boundary bytes.
    pub charges: ThreadCharges,
}

/// One entry in the slow-op sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowSample {
    /// Trace id of the sampled root span.
    pub trace_id: u64,
    /// Operation class of the root.
    pub op_class: &'static str,
    /// Total virtual nanoseconds the root span charged.
    pub duration_ns: u64,
}

/// An exemplar trace id attached to one duration bucket: the slowest
/// root observed in that bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id of the exemplar root span.
    pub trace_id: u64,
    /// Its duration in virtual nanoseconds.
    pub duration_ns: u64,
}

/// Latency distribution of one operation class over root spans, with
/// per-bucket exemplar trace ids.
#[derive(Debug, Clone)]
pub struct OpClassStats {
    /// The operation class (`"put"`, `"get"`, `"scan"`, ...).
    pub op_class: &'static str,
    /// Root durations in virtual ns: count, sum and quantiles.
    pub durations: Buckets,
    /// The slowest root of each non-empty bucket, keyed by the bucket's
    /// inclusive upper bound ([`Buckets::bound_of`]).
    pub exemplars: BTreeMap<u64, Exemplar>,
}

impl OpClassStats {
    fn new(op_class: &'static str) -> Self {
        OpClassStats { op_class, durations: Buckets::default(), exemplars: BTreeMap::new() }
    }

    fn observe(&mut self, duration_ns: u64, trace_id: u64) {
        self.durations.observe(duration_ns);
        let fresh = Exemplar { trace_id, duration_ns };
        let kept = self.exemplars.entry(Buckets::bound_of(duration_ns)).or_insert(fresh);
        if duration_ns > kept.duration_ns {
            *kept = fresh;
        }
    }

    /// The exemplar attached to the bucket at or above quantile `q` — the
    /// trace id an operator drills into for an outlier bucket.
    pub fn exemplar_at(&self, q: f64) -> Option<Exemplar> {
        self.exemplars.range(self.durations.quantile(q)..).next().map(|(_, e)| *e)
    }
}

#[derive(Debug, Default)]
struct TracerState {
    ring: VecDeque<SpanRecord>,
    dropped: u64,
    classes: BTreeMap<&'static str, OpClassStats>,
    top: Vec<SlowSample>,
    reservoir: Vec<SlowSample>,
    roots_seen: u64,
    rng: u64,
}

impl TracerState {
    fn note_root(&mut self, sample: SlowSample) {
        // Exact top-K by duration, slowest first (earlier trace wins ties).
        let faster = |s: &SlowSample| s.duration_ns < sample.duration_ns;
        let at = self.top.iter().position(faster).unwrap_or(self.top.len());
        if at < SLOW_TOP_K {
            self.top.insert(at, sample);
            self.top.truncate(SLOW_TOP_K);
        }
        // Deterministic reservoir over *all* roots (LCG, no wall clock).
        self.roots_seen += 1;
        if self.reservoir.len() < SLOW_RESERVOIR {
            self.reservoir.push(sample);
        } else {
            self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (self.rng >> 33) % self.roots_seen;
            if (j as usize) < SLOW_RESERVOIR {
                self.reservoir[j as usize] = sample;
            }
        }
    }
}

/// The per-registry span collector: the id sequence, the bounded ring,
/// the op-class distributions and the slow-op sampler. Private to the
/// crate; reached through [`crate::Telemetry`] and [`Span`].
#[derive(Debug)]
pub(crate) struct Tracer {
    next_id: AtomicU64,
    state: Mutex<TracerState>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            // Id 0 is reserved for "no trace".
            next_id: AtomicU64::new(1),
            state: Mutex::new(TracerState { rng: 0x9E3779B97F4A7C15, ..Default::default() }),
        }
    }
}

impl Tracer {
    fn record(&self, rec: SpanRecord) {
        let s = &mut *self.state.lock();
        if rec.is_root() {
            let class = rec.op_class;
            let stats = s.classes.entry(class).or_insert_with(|| OpClassStats::new(class));
            stats.observe(rec.charges.ns, rec.trace_id);
            s.note_root(SlowSample {
                trace_id: rec.trace_id,
                op_class: class,
                duration_ns: rec.charges.ns,
            });
        }
        if s.ring.len() >= TRACE_RING_CAPACITY {
            s.ring.pop_front();
            s.dropped += 1;
        }
        s.ring.push_back(rec);
    }

    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        self.state.lock().ring.iter().cloned().collect()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    pub(crate) fn op_classes(&self) -> Vec<OpClassStats> {
        self.state.lock().classes.values().cloned().collect()
    }

    pub(crate) fn slow_samples(&self) -> (Vec<SlowSample>, Vec<SlowSample>) {
        let s = self.state.lock();
        (s.top.clone(), s.reservoir.clone())
    }
}

#[derive(Debug)]
struct SpanInner {
    enabled: bool,
    tracer: Arc<Tracer>,
    name: Arc<str>,
    op_class: &'static str,
    /// Per-activation total virtual ns: the aggregate's count and
    /// distribution.
    durations: Buckets,
    totals: Mutex<ThreadCharges>,
}

/// A registered, named span (see the [module docs](self)). Cheap to
/// clone; [`Span::start`] returns the RAII guard of one activation.
#[derive(Debug, Clone)]
pub struct Span {
    inner: Arc<SpanInner>,
}

impl Span {
    pub(crate) fn new(
        enabled: bool,
        tracer: &Arc<Tracer>,
        name: &str,
        op_class: &'static str,
    ) -> Span {
        Span {
            inner: Arc::new(SpanInner {
                enabled,
                tracer: tracer.clone(),
                name: name.into(),
                op_class,
                durations: Buckets::default(),
                totals: Mutex::default(),
            }),
        }
    }

    /// Opens one activation on the calling thread: a nested child of the
    /// innermost span of this registry active there, the root of a fresh
    /// trace tree when there is none. Inert on a disabled registry.
    #[inline]
    pub fn start(&self) -> ActiveSpan {
        if !self.inner.enabled {
            return ActiveSpan::inert();
        }
        let enclosing = self.enclosing();
        let span_id = self.next_id();
        let (trace_id, parent) = enclosing.map_or((span_id, 0), |c| (c.trace_id, c.span_id));
        self.open(trace_id, span_id, parent, parent, false)
    }

    /// Opens one activation as a *remote* child of `ctx` — a causal
    /// parent carried across a thread, wire or queue boundary (replica
    /// replay joining the primary's tree, a worker-thread merge joining
    /// the request that triggered it). With [`TraceContext::NONE`] there
    /// is no such parent and this is [`Span::start`].
    pub fn start_child_of(&self, ctx: TraceContext) -> ActiveSpan {
        if !self.inner.enabled || ctx.is_none() {
            return self.start();
        }
        let enclosed_by = self.enclosing().map_or(0, |c| c.span_id);
        self.open(ctx.trace_id, self.next_id(), ctx.span_id, enclosed_by, true)
    }

    /// Aggregate of all completed activations.
    pub fn stats(&self) -> SpanStats {
        let totals = self.inner.totals.lock();
        SpanStats { count: self.inner.durations.count(), charges: *totals }
    }

    fn next_id(&self) -> u64 {
        self.inner.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// What tells this registry's frames on the thread-local stack from
    /// another registry's.
    fn registry(&self) -> usize {
        Arc::as_ptr(&self.inner.tracer) as usize
    }

    /// The innermost active span, if it belongs to this registry.
    fn enclosing(&self) -> Option<TraceContext> {
        let registry = self.registry();
        ACTIVE.with(|stack| stack.borrow().last().filter(|f| f.registry == registry).map(|f| f.ctx))
    }

    fn open(
        &self,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
        enclosed_by: u64,
        remote: bool,
    ) -> ActiveSpan {
        let ctx = TraceContext { trace_id, span_id };
        let frame = ActiveFrame { registry: self.registry(), ctx, links: Vec::new() };
        ACTIVE.with(|stack| stack.borrow_mut().push(frame));
        let record = SpanRecord {
            trace_id,
            span_id,
            parent_span,
            enclosed_by,
            name: self.inner.name.clone(),
            op_class: self.inner.op_class,
            remote,
            // Until the guard drops: the thread's cumulative charges at start.
            charges: sgx_sim::thread_charges(),
            links: Vec::new(),
        };
        ActiveSpan { active: Some((self.clone(), record)), _not_send: PhantomData }
    }
}

struct ActiveFrame {
    registry: usize,
    ctx: TraceContext,
    links: Vec<TraceContext>,
}

thread_local! {
    static ACTIVE: RefCell<Vec<ActiveFrame>> = const { RefCell::new(Vec::new()) };
}

/// The [`TraceContext`] of the innermost span active on the calling
/// thread, or [`TraceContext::NONE`]. This is what producers stamp onto
/// wire envelopes and queue entries.
pub fn current_context() -> TraceContext {
    ACTIVE.with(|stack| stack.borrow().last().map_or(TraceContext::NONE, |f| f.ctx))
}

/// Records a span link from the innermost active span to `ctx`: shared
/// work (one group commit serving many requests) the current request
/// waited on. No-op when `ctx` is absent or no span is active.
pub fn link_current(ctx: TraceContext) {
    if ctx.is_none() {
        return;
    }
    ACTIVE.with(|stack| {
        if let Some(f) = stack.borrow_mut().last_mut() {
            if f.ctx.span_id != ctx.span_id && !f.links.contains(&ctx) {
                f.links.push(ctx);
            }
        }
    });
}

/// RAII guard for one span activation (see [`Span::start`]).
///
/// Not `Send`: the charge delta and the propagation stack are
/// thread-local, so a guard must drop on the thread that opened it.
#[derive(Debug)]
pub struct ActiveSpan {
    active: Option<(Span, SpanRecord)>,
    _not_send: PhantomData<*const ()>,
}

impl ActiveSpan {
    fn inert() -> ActiveSpan {
        ActiveSpan { active: None, _not_send: PhantomData }
    }

    /// This span's context, for stamping onto queue entries or wire
    /// envelopes. [`TraceContext::NONE`] when inert.
    pub fn ctx(&self) -> TraceContext {
        self.active.as_ref().map_or(TraceContext::NONE, |(_, record)| record.ctx())
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        let Some((span, mut record)) = self.active.take() else {
            return;
        };
        record.links = ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally ours is the top frame; search defensively so an
            // out-of-order drop cannot corrupt unrelated frames.
            let idx = stack.iter().rposition(|f| f.ctx == record.ctx());
            idx.map(|i| stack.remove(i).links).unwrap_or_default()
        });
        // The one delta, folded once into each place that reads it.
        record.charges = sgx_sim::thread_charges().since(&record.charges);
        {
            let mut totals = span.inner.totals.lock();
            *totals = totals.plus(&record.charges);
            span.inner.durations.observe(record.charges.ns);
        }
        span.inner.tracer.record(record);
    }
}

/// Renders the tracer's state as a JSON document (what the bench harness
/// writes to `TRACES.<figure>.json`).
pub(crate) fn to_json(tracer: &Tracer) -> String {
    use std::fmt::Write as _;
    let records = tracer.records();
    let classes = tracer.op_classes();
    let (top, reservoir) = tracer.slow_samples();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"dropped_spans\": {},", tracer.dropped());
    out.push_str("  \"op_classes\": {\n");
    for (ci, c) in classes.iter().enumerate() {
        let comma = if ci + 1 == classes.len() { "" } else { "," };
        // Every non-empty bucket keeps an exemplar, in the same order.
        let buckets: Vec<String> = (c.durations.nonzero().iter().zip(c.exemplars.values()))
            .map(|((le, count), e)| {
                format!("{{\"le\": {le}, \"count\": {count}, \"exemplar_trace\": {}}}", e.trace_id)
            })
            .collect();
        let _ = writeln!(
            out,
            "    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"buckets\": [{}]}}{comma}",
            json_escape(c.op_class),
            c.durations.count(),
            c.durations.sum(),
            c.durations.quantile(0.50),
            c.durations.quantile(0.99),
            c.durations.quantile(0.999),
            buckets.join(", "),
        );
    }
    out.push_str("  },\n");
    let render_samples = |out: &mut String, samples: &[SlowSample]| {
        for (i, s) in samples.iter().enumerate() {
            let comma = if i + 1 == samples.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "      {{\"trace_id\": {}, \"op_class\": \"{}\", \"duration_ns\": {}}}{comma}",
                s.trace_id,
                json_escape(s.op_class),
                s.duration_ns
            );
        }
    };
    out.push_str("  \"slow\": {\n    \"top\": [\n");
    render_samples(&mut out, &top);
    out.push_str("    ],\n    \"reservoir\": [\n");
    render_samples(&mut out, &reservoir);
    out.push_str("    ]\n  },\n");
    out.push_str("  \"spans\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let links: Vec<String> =
            r.links.iter().map(|l| format!("[{}, {}]", l.trace_id, l.span_id)).collect();
        let _ = writeln!(
            out,
            "    {{\"trace_id\": {}, \"span_id\": {}, \"parent_span\": {}, \"enclosed_by\": {}, \"name\": \"{}\", \"op_class\": \"{}\", \"remote\": {}, {}, \"links\": [{}]}}{comma}",
            r.trace_id,
            r.span_id,
            r.parent_span,
            r.enclosed_by,
            json_escape(&r.name),
            json_escape(r.op_class),
            r.remote,
            charges_json(&r.charges),
            links.join(", ")
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use proptest::prelude::*;

    impl Span {
        /// Distribution of per-activation total virtual ns.
        fn durations(&self) -> &Buckets {
            &self.inner.durations
        }
    }

    /// Runs one thread's script of `(op, pick, amount)` steps: open a
    /// nested span, open a remote child of a context seen earlier, close
    /// the innermost span, charge the platform (bare or under an ecall),
    /// or link a context seen earlier. Whatever is still open closes
    /// innermost-first.
    fn run_script(
        script: &[(u8, u8, u16)],
        spans: &[Span],
        platform: &sgx_sim::Platform,
        seed: TraceContext,
    ) {
        let mut seen = vec![seed];
        let mut open: Vec<ActiveSpan> = Vec::new();
        for &(op, pick, amount) in script {
            let span = &spans[pick as usize % spans.len()];
            let ctx = seen[pick as usize % seen.len()];
            match op {
                0 => open.push(span.start()),
                1 => open.push(span.start_child_of(ctx)),
                2 => drop(open.pop()),
                3 => platform.charge_hash(amount as usize),
                4 => platform.ecall(|| platform.charge_hash(amount as usize)),
                _ => link_current(ctx),
            }
            seen.extend(open.last().map(ActiveSpan::ctx));
        }
        while open.pop().is_some() {}
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// "Derived" is true: with no ring drops, every span's aggregate
        /// is the sum of the ring's records of its name, and every op
        /// class is the fold of the ring's root records of that class —
        /// for any interleaving of nested, remote and linked spans on one
        /// to three threads.
        #[test]
        fn aggregates_are_the_fold_of_the_records(
            scripts in prop::collection::vec(
                prop::collection::vec((0u8..6, any::<u8>(), 1u16..400), 0..40),
                1..4,
            ),
        ) {
            let tel = Telemetry::new();
            let platform = sgx_sim::Platform::with_defaults();
            let spans = [
                tel.span("op.put", "put"),
                tel.span("op.get", "get"),
                tel.scoped("shard0").span("op.put", "put"),
                tel.span("commit.group", "commit"),
                tel.span("flush.merge", "flush"),
            ];
            let seed = spans[0].start().ctx();
            std::thread::scope(|s| {
                for script in &scripts {
                    s.spawn(|| run_script(script, &spans, &platform, seed));
                }
            });

            let records = tel.trace_records();
            prop_assert_eq!(tel.dropped_spans(), 0);
            for span in &spans {
                let name = &span.inner.name;
                let folded = records.iter().filter(|r| r.name == *name).fold(
                    SpanStats::default(),
                    |acc, r| SpanStats { count: acc.count + 1, charges: acc.charges.plus(&r.charges) },
                );
                prop_assert_eq!(span.stats(), folded, "aggregate of {}", name);
                prop_assert_eq!(span.durations().sum(), folded.charges.ns);
            }
            let mut folded: BTreeMap<&str, OpClassStats> = BTreeMap::new();
            for r in records.iter().filter(|r| r.is_root()) {
                let class = folded.entry(r.op_class).or_insert_with(|| OpClassStats::new(r.op_class));
                class.observe(r.charges.ns, r.trace_id);
            }
            let view = |c: &OpClassStats| {
                (c.op_class, c.durations.count(), c.durations.sum(), c.durations.nonzero(), c.exemplars.clone())
            };
            prop_assert_eq!(
                tel.op_class_stats().iter().map(view).collect::<Vec<_>>(),
                folded.values().map(view).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn context_round_trips_and_none_is_zero() {
        let ctx = TraceContext { trace_id: 7, span_id: 9 };
        assert_eq!(TraceContext::decode(&ctx.encode()), Some(ctx));
        assert_eq!(TraceContext::decode(&TraceContext::NONE.encode()), Some(TraceContext::NONE));
        assert!(TraceContext::NONE.is_none());
        assert!(TraceContext::decode(&[0u8; 15]).is_none());
    }

    #[test]
    fn span_attributes_thread_work() {
        let p = sgx_sim::Platform::with_defaults();
        let span = Telemetry::new().span("commit.group", "commit");
        {
            let _g = span.start();
            p.ecall(|| p.charge_hash(128));
        }
        let SpanStats { count, charges } = span.stats();
        assert_eq!((count, charges.ecalls), (1, 1));
        assert_eq!(charges.ns, charges.enclave_ns + charges.host_ns + charges.boundary_ns);
        assert_eq!(charges.enclave_ns, p.cost().hash_cost(128));
        assert_eq!(charges.boundary_ns, p.cost().ecall_ns);
        assert_eq!(span.durations().sum(), charges.ns);
    }

    #[test]
    fn nesting_builds_a_tree() {
        let t = Telemetry::new();
        let (put, commit) = (t.span("op.put", "put"), t.span("commit.group", "commit"));
        {
            let root = put.start();
            let child = commit.start();
            assert_eq!(child.ctx().trace_id, root.ctx().trace_id);
            drop(child);
        }
        let recs = t.trace_records();
        assert_eq!(recs.len(), 2);
        let child = &recs[0];
        let root = &recs[1];
        assert_eq!(root.parent_span, 0);
        assert_eq!(child.parent_span, root.span_id);
        assert_eq!(child.enclosed_by, root.span_id);
        assert_eq!(child.trace_id, root.trace_id);
        assert!(child.span_id > root.span_id, "child ids exceed parents: acyclic");
        let classes: Vec<_> = t.op_class_stats().iter().map(|c| c.op_class).collect();
        assert_eq!(classes, ["put"], "only roots fold into an op class");
    }

    #[test]
    fn remote_children_join_the_parents_tree() {
        let t = Telemetry::new();
        let ctx = t.span("op.put", "put").start().ctx();
        let replay = t.span("replay.frame", "replay");
        drop(replay.start_child_of(ctx));
        drop(replay.start_child_of(TraceContext::NONE));
        let recs = t.trace_records();
        let joined = &recs[1];
        assert_eq!(&*joined.name, "replay.frame");
        assert_eq!((joined.trace_id, joined.parent_span), (ctx.trace_id, ctx.span_id));
        assert_eq!(joined.enclosed_by, 0, "no physical enclosure");
        assert!(joined.remote);
        assert!(recs[2].is_root() && !recs[2].remote, "no parent to join: an ordinary root");
        assert_eq!(replay.stats().count, 2);
    }

    #[test]
    fn links_record_on_the_active_frame() {
        let t = Telemetry::new();
        let commit_ctx = TraceContext { trace_id: 42, span_id: 42 };
        {
            let _g = t.span("op.put", "put").start();
            link_current(commit_ctx);
            link_current(commit_ctx); // deduplicated
        }
        assert_eq!(t.trace_records()[0].links, vec![commit_ctx]);
    }

    #[test]
    fn current_context_tracks_the_stack() {
        let t = Telemetry::new();
        assert!(current_context().is_none());
        {
            let g = t.span("op.put", "put").start();
            assert_eq!(current_context(), g.ctx());
        }
        assert!(current_context().is_none());
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let t = Telemetry::new();
        let get = t.span("op.get", "get");
        for _ in 0..(TRACE_RING_CAPACITY + 10) {
            drop(get.start());
        }
        assert_eq!(t.trace_records().len(), TRACE_RING_CAPACITY);
        assert_eq!(t.dropped_spans(), 10);
        assert_eq!(
            get.stats().count,
            TRACE_RING_CAPACITY as u64 + 10,
            "aggregates outlive the ring"
        );
    }

    #[test]
    fn op_class_quantiles_and_exemplars() {
        let mut agg = OpClassStats::new("get");
        assert_eq!(agg.exemplar_at(0.5), None);
        for (d, id) in [(1u64, 1u64), (1, 2), (1, 3), (1000, 9)] {
            agg.observe(d, id);
        }
        assert_eq!(agg.durations.count(), 4);
        assert_eq!(agg.durations.quantile(0.50), Buckets::bound_of(1));
        assert_eq!(agg.durations.quantile(0.999), Buckets::bound_of(1000));
        assert_eq!(agg.exemplar_at(0.50).unwrap().trace_id, 1, "first of equals is kept");
        let ex = agg.exemplar_at(0.999).unwrap();
        assert_eq!(ex.trace_id, 9, "outlier bucket carries its exemplar trace id");
    }

    #[test]
    fn slow_sampler_keeps_top_k_exactly() {
        let t = Tracer::default();
        let mut s = t.state.lock();
        for i in 0..200u64 {
            s.note_root(SlowSample { trace_id: i, op_class: "put", duration_ns: i });
        }
        assert_eq!(s.top.len(), SLOW_TOP_K);
        assert_eq!(s.top[0].duration_ns, 199);
        assert_eq!(s.top[SLOW_TOP_K - 1].duration_ns, 199 - (SLOW_TOP_K as u64 - 1));
        assert_eq!(s.reservoir.len(), SLOW_RESERVOIR);
    }

    #[test]
    fn disabled_span_records_nothing() {
        let p = sgx_sim::Platform::with_defaults();
        let t = Telemetry::disabled();
        let span = t.span("op.put", "put");
        let g = span.start();
        p.charge_hash(128);
        assert!(g.ctx().is_none());
        assert!(current_context().is_none());
        drop(g);
        drop(span.start_child_of(TraceContext { trace_id: 1, span_id: 1 }));
        assert!(t.trace_records().is_empty());
        assert_eq!(span.stats(), SpanStats::default());
    }
}
