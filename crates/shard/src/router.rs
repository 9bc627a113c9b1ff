//! The sharded cluster router and its trusted stitching checks.
//!
//! [`ShardedKv`] implements the paper's authenticated interface
//! ([`AuthenticatedKv`]) over N independent eLSM-P2 partitions, each with
//! its own [`Platform`] enclave, trusted state and simulated filesystem —
//! the LSKV-style scale-out deployment. The router itself is split the
//! same way the paper splits a single store:
//!
//! * **trusted**: the deterministic partitioner and the stitching checks
//!   ([`ShardedKv::check_owned`]) — which shard owns a key, and whether
//!   every record of a routed answer belongs to the shard that returned
//!   it; each shard's own enclave verifies the answer against its
//!   commitments;
//! * **untrusted**: the transport between router and shards — which is
//!   exactly what a malicious host controls, so rerouting a query to the
//!   wrong (honest, verifying!) shard or swapping per-shard answers must
//!   be detected by the trusted checks, not assumed away. The detection
//!   is [`VerificationFailure::WrongShard`].

use std::sync::Arc;

use elsm::{AuthenticatedKv, ElsmError, ElsmP2, OpSpans, P2Options};
use elsm::{VerificationFailure, Verified, VerifiedRecord, WRONG_SHARD_UNSHARDED};
use elsm_replica::{ReplicationGroup, ReplicationOptions};
use lsm_store::{GetTrace, ScanTrace, Timestamp};
use sgx_sim::Platform;
use sim_disk::SimFs;

use crate::partition::Partitioner;
use crate::stitch;

/// Configuration of a sharded cluster.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Number of shards the keys hash over.
    pub shards: usize,
    /// Per-shard store configuration (`shard_id` is overwritten per
    /// shard by the router).
    pub store: P2Options,
    /// Replicas behind each partition's primary (0 = unreplicated, the
    /// pre-replication deployment). With replicas, each partition is a
    /// full [`ReplicationGroup`]: writes go to the partition's primary,
    /// verified reads are served by its replicas round-robin.
    pub replicas: usize,
}

impl ShardedOptions {
    /// Hash partitioning over `shards` shards with per-shard options.
    pub fn hash(shards: usize, store: P2Options) -> Self {
        ShardedOptions { shards, store, replicas: 0 }
    }

    /// Turns every partition into a replication group of `replicas`
    /// replicas behind its primary.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Shard `id`'s store options: bound to its shard id, and reporting
    /// into the caller's registry under its own scope so per-store series
    /// stay isolated per partition.
    fn shard_store(&self, id: usize) -> P2Options {
        P2Options {
            shard_id: Some(id as u32),
            telemetry: self.store.telemetry.scoped(&format!("shard{id}")),
            ..self.store.clone()
        }
    }
}

/// One shard: an eLSM-P2 primary on its own platform enclave, optionally
/// fronting a replication group (each replica again on its own platform).
#[derive(Debug)]
struct Shard {
    /// The partition's primary store (the group's primary when
    /// replicated).
    store: Arc<ElsmP2>,
    /// The partition's replication group, when `replicas > 0`.
    group: Option<ReplicationGroup>,
}

impl Shard {
    /// The surface operations go through: the group when replicated
    /// (writes fence + ship, reads round-robin to replicas), the bare
    /// store otherwise.
    fn target(&self) -> &dyn AuthenticatedKv {
        match &self.group {
            Some(group) => group,
            None => self.store.as_ref(),
        }
    }
}

/// Registry-backed routing metrics (the `router.*` series).
#[derive(Debug)]
struct RouterMetrics {
    /// Route decisions made (one per keyed operation or batched record).
    routed_ops: telemetry::Counter,
    /// Per-shard scan segments collected for stitching.
    scan_segments: telemetry::Counter,
    /// Records stitched into cross-shard scan results.
    stitched_records: telemetry::Counter,
    /// The trusted stitching phase (ownership checks + merge): a child
    /// span, so a scan's critical path tells shard time from merge time.
    stitch: telemetry::Span,
    /// The request roots (`router.op.*`); the owning shard's own
    /// entry-point span nests beneath on the same thread.
    ops: OpSpans,
}

impl RouterMetrics {
    fn new(telemetry: &telemetry::Telemetry) -> Self {
        RouterMetrics {
            routed_ops: telemetry.counter("router.routed_ops"),
            scan_segments: telemetry.counter("router.scan_segments"),
            stitched_records: telemetry.counter("router.stitched_records"),
            stitch: telemetry.span("router.stitch", "stitch"),
            ops: OpSpans::new("router.op", telemetry),
        }
    }
}

/// A sharded authenticated key-value cluster over N eLSM-P2 partitions.
///
/// Writes route to the owning shard (batches split per shard and ride
/// one enclave transition per shard per group); point reads route and
/// verify against the owning shard's commitments; cross-shard scans
/// k-way merge per-shard verified range results into one totally-ordered
/// result, with every stitched record checked to belong to the shard that
/// returned it.
///
/// Timestamps are per-shard: each shard's enclave runs its own timestamp
/// manager, so cross-shard timestamp comparisons are meaningless (the
/// verified order within any one key is what the protocol guarantees).
///
/// With [`ShardedOptions::with_replicas`], every partition becomes a
/// [`ReplicationGroup`]: writes go to the partition's primary (which
/// ships them over the authenticated channel before acknowledging) and
/// verified reads round-robin across its replicas — each a full
/// eLSM-P2 store on its own platform, answering from replayed,
/// cross-checked local state. All `WrongShard` checks apply unchanged:
/// replicas inherit the partition's shard binding.
///
/// # Examples
///
/// ```
/// use elsm::AuthenticatedKv;
/// use elsm_shard::{ShardedKv, ShardedOptions};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), elsm::ElsmError> {
/// let cluster =
///     ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(4, Default::default()))?;
/// cluster.put(b"k", b"v")?;
/// assert_eq!(cluster.get(b"k")?.expect("present").value(), b"v");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedKv {
    router: Arc<Platform>,
    /// The trusted router's partitioner: which shard owns a key.
    partitioner: Partitioner,
    shards: Vec<Shard>,
    /// Registered on the root (unscoped) registry handle.
    metrics: RouterMetrics,
    /// The root registry handle routing refusals are audited on.
    telemetry: telemetry::Telemetry,
}

impl ShardedKv {
    /// Opens a fresh cluster: one new platform, filesystem and enclave
    /// per shard, each bound to its shard id. `router` is the trusted
    /// router's own platform; partitioning and stitching costs are
    /// charged there.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open(router: Arc<Platform>, options: ShardedOptions) -> Result<Self, ElsmError> {
        let partitioner = Partitioner::new(options.shards);
        let n = partitioner.shards();
        let mut stores = Vec::with_capacity(n);
        for id in 0..n {
            let platform = Platform::new(router.cost().clone());
            let store_options = options.shard_store(id);
            let shard = if options.replicas > 0 {
                let group = ReplicationGroup::open(
                    platform,
                    store_options,
                    ReplicationOptions { replicas: options.replicas, ..Default::default() },
                )?;
                Shard { store: group.primary_store(), group: Some(group) }
            } else {
                Shard { store: Arc::new(ElsmP2::open(platform, store_options)?), group: None }
            };
            stores.push(shard);
        }
        Ok(Self::assemble(router, partitioner, stores, options.store.telemetry.clone()))
    }

    /// Re-opens a cluster on existing per-shard filesystems (one per
    /// shard, in shard order) — the restart path. Each shard's enclave
    /// unseals its state and checks its shard binding, so per-shard state
    /// swapped between directories by the host fails recovery with
    /// [`VerificationFailure::WrongShard`].
    ///
    /// Recovery is **unreplicated**: a replica joining a non-empty
    /// primary needs state transfer (snapshot + catch-up), which this
    /// layer does not implement yet, so a recovered cluster must be
    /// opened with `replicas: 0` — silently downgrading the requested
    /// replication factor would drop freshness and failover guarantees
    /// without a trace.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or failed recovery
    /// verification.
    ///
    /// # Panics
    ///
    /// Panics when `filesystems.len()` does not match the shard count,
    /// or when `options.replicas` is non-zero (see above).
    pub fn open_with(
        router: Arc<Platform>,
        filesystems: Vec<Arc<SimFs>>,
        options: ShardedOptions,
    ) -> Result<Self, ElsmError> {
        let partitioner = Partitioner::new(options.shards);
        assert_eq!(filesystems.len(), partitioner.shards(), "one filesystem per shard");
        assert_eq!(
            options.replicas, 0,
            "cluster recovery is unreplicated (replica bootstrap needs state transfer); \
             re-open with replicas: 0"
        );
        let mut stores = Vec::with_capacity(filesystems.len());
        for (id, fs) in filesystems.into_iter().enumerate() {
            let platform = Platform::new(router.cost().clone());
            stores.push(Shard {
                store: Arc::new(ElsmP2::open_with(platform, fs, options.shard_store(id), None)?),
                group: None,
            });
        }
        Ok(Self::assemble(router, partitioner, stores, options.store.telemetry.clone()))
    }

    fn assemble(
        router: Arc<Platform>,
        partitioner: Partitioner,
        shards: Vec<Shard>,
        telemetry: telemetry::Telemetry,
    ) -> Self {
        telemetry.attach_platform("router", &router);
        let metrics = RouterMetrics::new(&telemetry);
        ShardedKv { router, partitioner, shards, metrics, telemetry }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router's platform.
    pub fn router_platform(&self) -> &Arc<Platform> {
        &self.router
    }

    /// Shard `i`'s store (exposed for tests, benchmarks and statistics).
    pub fn shard(&self, i: usize) -> &ElsmP2 {
        &self.shards[i].store
    }

    /// Shard `i`'s platform.
    pub fn shard_platform(&self, i: usize) -> &Arc<Platform> {
        self.shards[i].store.platform()
    }

    /// The shard owning `key` (deterministic, trusted).
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.partitioner.shard_of(key)
    }

    /// Flushes every shard's memtable (shard-parallel maintenance in the
    /// real deployment; sequential here, each on its own virtual clock).
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn flush(&self) -> Result<(), ElsmError> {
        for shard in &self.shards {
            match &shard.group {
                Some(group) => group.flush()?,
                None => shard.store.db().flush()?,
            }
        }
        Ok(())
    }

    /// Shard `i`'s replication group, when the cluster was opened with
    /// replicas.
    pub fn replication_group(&self, i: usize) -> Option<&ReplicationGroup> {
        self.shards[i].group.as_ref()
    }

    /// Seals every shard's enclave state — the clean-shutdown path that
    /// makes restart verification (and shard-binding checks) possible.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn close(&self) -> Result<(), ElsmError> {
        for shard in &self.shards {
            match &shard.group {
                Some(group) => group.close()?,
                None => shard.store.close()?,
            }
        }
        Ok(())
    }

    /// Charges the trusted router's key-routing work: the partitioner's
    /// hash of the key.
    fn charge_route(&self, key: &[u8]) {
        self.metrics.routed_ops.inc();
        self.router.charge_hash(key.len());
    }

    /// Checks that `key` is owned by `shard` — the core anti-swap rule:
    /// a record (or an absence claim) presented by a shard that does not
    /// own its key is a routed-answer forgery however well it verifies
    /// against that shard's own commitments. A refusal is audited as the
    /// `"router"`'s, stamped with the owner.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::WrongShard`] naming the owner.
    pub fn check_owned(&self, shard: usize, key: &[u8]) -> Result<(), VerificationFailure> {
        let owner = self.shard_of(key);
        if owner != shard {
            let failure = VerificationFailure::WrongShard {
                expected: owner as u32,
                got: shard.try_into().unwrap_or(WRONG_SHARD_UNSHARDED),
            };
            self.telemetry.audit(
                telemetry::AuditEvent::new(failure.kind(), "router")
                    .detail(failure.to_string())
                    .shard(owner as u32),
            );
            return Err(failure);
        }
        Ok(())
    }

    /// Verifies a routed GET answer: the claimed shard must own the key,
    /// and the trace must verify through that shard's own store (which
    /// audits its refusals); hands back the answer that shard's verifier
    /// hands back. This is the entry the adversary suite drives; the
    /// honest router routes by the same partitioner, so the first check
    /// only fires when the host substituted another shard's answer.
    ///
    /// # Errors
    ///
    /// Returns the [`VerificationFailure`] naming the detected attack.
    pub fn verify_routed_get<'t>(
        &self,
        key: &[u8],
        claimed_shard: usize,
        trace: &'t GetTrace,
    ) -> Result<Option<Verified<'t>>, VerificationFailure> {
        self.check_owned(claimed_shard, key)?;
        self.shards[claimed_shard].store.verify_get_trace(key, trace)
    }

    /// Verifies a routed SCAN answer segment claimed to come from
    /// `claimed_shard`: the trace must verify against that shard's
    /// commitments, and every record of the result its
    /// verifier hands back — the segment the stitcher would take — must be
    /// owned by that shard. Adversary-suite entry point.
    ///
    /// # Errors
    ///
    /// Returns the [`VerificationFailure`] naming the detected attack.
    pub fn verify_routed_scan<'t>(
        &self,
        from: &[u8],
        to: &[u8],
        claimed_shard: usize,
        trace: &'t ScanTrace,
    ) -> Result<Vec<Verified<'t>>, VerificationFailure> {
        let segment = self.shards[claimed_shard].store.verify_scan_trace(from, to, trace)?;
        for verified in &segment {
            self.check_owned(claimed_shard, &verified.record.key)?;
        }
        Ok(segment)
    }

    /// Stitches per-shard verified scan segments into one totally-ordered
    /// result by a k-way merge, checking per-record shard ownership.
    /// Stitching runs in the trusted router; its copy cost is charged to
    /// the router platform.
    fn stitch(
        &self,
        segments: Vec<(usize, Vec<VerifiedRecord>)>,
    ) -> Result<Vec<VerifiedRecord>, ElsmError> {
        let _span = self.metrics.stitch.start();
        self.metrics.scan_segments.add(segments.len() as u64);
        let total: usize = segments.iter().map(|(_, s)| s.len()).sum();
        self.metrics.stitched_records.add(total as u64);
        let mut bytes = 0usize;
        for (shard, segment) in &segments {
            for record in segment {
                self.check_owned(*shard, record.key()).map_err(ElsmError::Verification)?;
                self.charge_route(record.key());
                bytes += record.key().len() + record.value().len();
            }
        }
        self.router.dram_access(bytes);
        // Ownership checking above guarantees key-disjoint segments (each
        // key has one owner).
        Ok(stitch::merge_by_key(segments.into_iter().map(|(_, s)| s).collect(), |r| r.key()))
    }
}

impl AuthenticatedKv for ShardedKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError> {
        // The router opens the request's *root* span; the owning shard's
        // own entry-point span (and, under replication, the replica read
        // path) nests beneath it on this thread.
        let _span = self.metrics.ops.put.start();
        self.charge_route(key);
        self.shards[self.shard_of(key)].target().put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError> {
        let _span = self.metrics.ops.delete.start();
        self.charge_route(key);
        self.shards[self.shard_of(key)].target().delete(key)
    }

    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        let _span = self.metrics.ops.get.start();
        self.charge_route(key);
        self.shards[self.shard_of(key)].target().get(key)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        // One root span for the fan-out; each shard's verified scan runs
        // as its own child span (opened at the shard store's entry
        // point), and the stitch-back is a further child below.
        let _span = self.metrics.ops.scan.start();
        // Each shard proves completeness of its own slice against its own
        // epoch snapshot.
        let mut segments = Vec::with_capacity(self.shards.len());
        for (id, shard) in self.shards.iter().enumerate() {
            segments.push((id, shard.target().scan(from, to)?));
        }
        self.stitch(segments)
    }

    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError> {
        let _span = self.metrics.ops.put_batch.start();
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // Split the batch per owning shard, preserving in-shard order;
        // each shard's sub-batch rides one enclave transition and one WAL
        // frame (`ElsmP2::put_batch`), then timestamps scatter back into
        // the caller's order.
        for (key, _) in items {
            self.charge_route(key);
        }
        let per_shard = self.partitioner.split_indices(items.iter().map(|(key, _)| *key));
        stitch::run_sharded_batches(&per_shard, items.len(), |shard, indexes| {
            let sub: Vec<(&[u8], &[u8])> = indexes.iter().map(|&i| items[i]).collect();
            self.shards[shard].target().put_batch(&sub)
        })
    }

    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError> {
        let _span = self.metrics.ops.delete_batch.start();
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        for key in keys {
            self.charge_route(key);
        }
        let per_shard = self.partitioner.split_indices(keys.iter().copied());
        stitch::run_sharded_batches(&per_shard, keys.len(), |shard, indexes| {
            let sub: Vec<&[u8]> = indexes.iter().map(|&i| keys[i]).collect();
            self.shards[shard].target().delete_batch(&sub)
        })
    }
}
