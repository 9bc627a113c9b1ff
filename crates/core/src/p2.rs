//! eLSM-P2: the paper's primary design (§5).
//!
//! Code inside the enclave; read buffers, SSTables and WAL outside,
//! protected by the per-level Merkle forest. Reads verify membership /
//! non-membership / freshness against in-enclave commitments with early
//! stop; compactions are authenticated through the listener; an optional
//! trusted monotonic counter defends rollback across power cycles
//! (§5.6.1).

use std::sync::Arc;

use bytes::Bytes;
use lsm_store::{Db, GetTrace, Options, ReadMode, ScanTrace, StorageEnv, Timestamp, ValueKind};
use sgx_sim::{BufferedCounter, MonotonicCounter, Platform};
use sim_disk::{FsError, SimDisk, SimFs};

use crate::api::{AuthenticatedKv, OpSpans, VerifiedRecord};
use crate::cache::{CacheStats, Lookup, VerifiedCache};
use crate::envelope::{append_canonical, open_record, plain_record};
use crate::error::{ElsmError, VerificationFailure};
use crate::listener::{vlog_entry_mac, AuthListener, SealedState};
use crate::trusted::{TrustedState, Verified, VerifyStats};

/// Configuration of an eLSM-P2 store.
#[derive(Debug, Clone)]
pub struct P2Options {
    /// Read path (mmap is the paper's fastest configuration; a buffered
    /// read path carries its block-cache size).
    pub read_mode: ReadMode,
    /// Memtable size triggering a flush.
    pub write_buffer_bytes: usize,
    /// Level-1 size budget (levels grow geometrically above it).
    pub level1_max_bytes: u64,
    /// Geometric level growth factor.
    pub level_multiplier: u64,
    /// Number of on-disk levels.
    pub max_levels: usize,
    /// Target SSTable file size within a run.
    pub target_file_bytes: u64,
    /// SSTable block size.
    pub block_size: usize,
    /// Bloom-filter bits per key (0 disables).
    pub bloom_bits_per_key: usize,
    /// Automatic size-triggered compaction.
    pub compaction_enabled: bool,
    /// Which compaction strategy schedules merges (leveled rolling
    /// merges, or size-tiered stacking — the write/read amplification
    /// trade Figure 7 sweeps). Ignored while `compaction_enabled` is
    /// false.
    pub compaction_strategy: lsm_store::CompactionStrategyKind,
    /// Concurrent merge jobs per scheduler wave (1 = the serial
    /// pre-subsystem behavior; up to 4 worker slots exist).
    pub compaction_parallelism: usize,
    /// Charge a compaction output record whose key chain one input level
    /// holds whole (and whose value and older versions the merge kept) a
    /// 32-byte digest move instead of a rehash inside the enclave — the
    /// incremental integrity-metadata maintenance lever. The code carries
    /// such digests over in either mode; this selects only the charged
    /// cost, and commitments and proofs are identical either way.
    pub incremental_commitments: bool,
    /// State updates batched per write of the trusted monotonic counter
    /// (the paper's tunable counter write buffer, §5.6.1). Read only when
    /// [`ElsmP2::open_with`] binds a counter.
    pub counter_write_buffer: usize,
    /// When acknowledged writes reach the host-side WAL: one policy,
    /// [`lsm_store::WalSyncPolicy::Always`]. The field stays because
    /// `benchmark/` names it.
    pub wal_sync: lsm_store::WalSyncPolicy,
    /// Shard this store's enclave is bound to when it serves as one
    /// partition of a sharded cluster (`None` for a standalone store).
    /// The id is folded into the trusted state's commitment domain and
    /// carried inside the sealed enclave state, so a host that swaps two
    /// shards' persistent state is detected at recovery
    /// ([`VerificationFailure::WrongShard`]).
    pub shard_id: Option<u32>,
    /// Key-value separation: values at or above the threshold move to an
    /// authenticated value log at flush time; levels keep MAC-carrying
    /// pointer records (`None` disables separation). See
    /// [`lsm_store::VlogConfig`].
    pub vlog: Option<lsm_store::VlogConfig>,
    /// Byte budget of the verified read cache (0 disables). Hot verified
    /// GETs answer from enclave-checked cached entries, skipping disk reads
    /// and proof re-verification; an entry answers until its key is written
    /// again. See [`crate::cache::VerifiedCache`].
    pub verified_cache_bytes: usize,
    /// Telemetry registry the store's metrics, spans and audit events
    /// live in. The default handle is disabled (counters still count —
    /// they are the store's bookkeeping — but spans, histograms and
    /// platform snapshots are no-ops). Pass a
    /// [scoped](telemetry::Telemetry::scoped) handle to share one
    /// registry across shards or replicas without name collisions.
    pub telemetry: telemetry::Telemetry,
}

impl Default for P2Options {
    fn default() -> Self {
        P2Options {
            read_mode: ReadMode::Mmap,
            write_buffer_bytes: 64 * 1024,
            level1_max_bytes: 256 * 1024,
            level_multiplier: 10,
            max_levels: 7,
            target_file_bytes: 128 * 1024,
            block_size: 4096,
            bloom_bits_per_key: 10,
            compaction_enabled: true,
            compaction_strategy: lsm_store::CompactionStrategyKind::Leveled,
            compaction_parallelism: 1,
            incremental_commitments: false,
            counter_write_buffer: 512,
            wal_sync: lsm_store::WalSyncPolicy::Always,
            shard_id: None,
            vlog: None,
            verified_cache_bytes: 0,
            telemetry: telemetry::Telemetry::default(),
        }
    }
}

/// The eLSM-P2 authenticated key-value store.
///
/// # Examples
///
/// ```
/// use elsm::{AuthenticatedKv, ElsmP2, P2Options};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), elsm::ElsmError> {
/// let store = ElsmP2::open(Platform::with_defaults(), P2Options::default())?;
/// store.put(b"certificate/example.org", b"cert-hash")?;
/// let rec = store.get(b"certificate/example.org")?.expect("present");
/// assert_eq!(rec.value(), b"cert-hash");
/// assert!(store.get(b"absent")?.is_none()); // verified non-membership
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ElsmP2 {
    spans: OpSpans,
    platform: Arc<Platform>,
    fs: Arc<SimFs>,
    db: Arc<Db>,
    trusted: Arc<TrustedState>,
    counter: Option<Arc<BufferedCounter>>,
    cache: Option<Arc<VerifiedCache>>,
    options: P2Options,
}

impl ElsmP2 {
    /// Opens a fresh store on a new simulated filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open(platform: Arc<Platform>, options: P2Options) -> Result<Self, ElsmError> {
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        Self::open_with(platform, fs, options, None)
    }

    /// Opens (or re-opens) a store on an existing filesystem, optionally
    /// bound to a trusted monotonic counter (required for rollback
    /// protection to survive power cycles).
    ///
    /// On re-open the enclave unseals the state the manifest carries,
    /// re-derives the WAL digest from the logs the host presents, and —
    /// when a counter is bound — checks the dataset digest against the
    /// counter's current epoch (`DESIGN.md` §8 lists what recovery checks,
    /// in order).
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::SealBroken`] when the sealed state is
    /// missing or fails to unseal, [`VerificationFailure::WalMismatch`] when
    /// the logs do not fold to the sealed WAL digest, and
    /// [`VerificationFailure::RolledBack`] when the on-disk state is an
    /// older (but authentic) version than the counter epoch — a fresh
    /// store's included.
    pub fn open_with(
        platform: Arc<Platform>,
        fs: Arc<SimFs>,
        options: P2Options,
        counter: Option<Arc<MonotonicCounter>>,
    ) -> Result<Self, ElsmError> {
        options.telemetry.attach_platform("platform", &platform);
        let trusted = TrustedState::with_telemetry(
            platform.clone(),
            options.max_levels,
            options.shard_id,
            &options.telemetry,
        );
        let cache = (options.verified_cache_bytes > 0).then(|| {
            VerifiedCache::with_telemetry(
                platform.clone(),
                options.verified_cache_bytes,
                &options.telemetry,
            )
        });
        let listener = AuthListener::new(
            platform.clone(),
            trusted.clone(),
            options.incremental_commitments,
            cache.clone(),
            &options.telemetry,
        );
        let env = StorageEnv::new(
            platform.clone(),
            fs.clone(),
            options.read_mode.env(true, options.block_size * 2),
            None,
        );
        // Embedded proofs inflate stored records: a key's newest version
        // carries an audit path (57 + 32·depth bytes, ~6x a 100-byte value
        // in a 2^15-leaf level), every older version a 57-byte chain link
        // (~1.5x). Level budgets are configured in *logical* bytes, so
        // physical budgets scale by the newest-version factor — otherwise
        // proof bytes would trigger spurious cascades; update-heavy levels
        // simply sit below budget for longer.
        const PROOF_INFLATION: u64 = 6;
        let db_options = Options {
            wal_sync: options.wal_sync,
            env: env.config().clone(),
            table: lsm_store::TableOptions {
                block_size: options.block_size,
                bloom_bits_per_key: options.bloom_bits_per_key,
            },
            write_buffer_bytes: options.write_buffer_bytes,
            target_file_bytes: options.target_file_bytes * PROOF_INFLATION,
            level1_max_bytes: options.level1_max_bytes * PROOF_INFLATION,
            level_multiplier: options.level_multiplier,
            max_levels: options.max_levels,
            compaction_enabled: options.compaction_enabled,
            compaction: lsm_store::CompactionConfig {
                strategy: options.compaction_strategy.clone(),
                parallelism: options.compaction_parallelism,
            },
            keep_old_versions: true,
            vlog: options.vlog,
            telemetry: options.telemetry.clone(),
        };
        let db = match Db::open(env, db_options, Some(listener.clone())) {
            Ok(db) => Arc::new(db),
            // A store's files, and no manifest to name them — nor the
            // sealed state it carries.
            Err(FsError::NotFound(name)) if name == lsm_store::MANIFEST => {
                let failure = VerificationFailure::SealBroken;
                audit(&platform, &options.telemetry, options.shard_id, Some(0), &failure);
                return Err(failure.into());
            }
            Err(error) => return Err(error.into()),
        };
        let counter =
            counter.map(|c| Arc::new(BufferedCounter::new(c, options.counter_write_buffer)));
        // The verifier expects levels in the order the store searches them.
        trusted.set_stacked(db.stacked_reads());
        let spans = OpSpans::new("op", &options.telemetry);
        let store = ElsmP2 { spans, platform, fs, db, trusted, counter, cache, options };
        let recovery = match listener.take_recovered() {
            Some(sealed) => sealed.map_err(Into::into).and_then(|s| store.recover_trusted_state(s)),
            // A fresh store is the genesis state, which a counter that has
            // moved no longer binds: the host wiped a store that had data.
            None if store.counter.as_ref().is_some_and(|c| c.counter().read().0 > 0) => {
                Err(VerificationFailure::RolledBack.into())
            }
            None => Ok(()),
        };
        store.audited(recovery)?;
        Ok(store)
    }

    /// Restores enclave state after a power cycle from the `state` the
    /// manifest carried: check its shard binding, compare the WAL digest the log
    /// replay arrived at with the sealed one, adopt the commitments, check
    /// the monotonic counter, and re-derive the crowns from the level
    /// contents.
    fn recover_trusted_state(&self, state: SealedState) -> Result<(), ElsmError> {
        let SealedState { commitments, wal_digest, shard: sealed_shard, .. } = state;
        // Shard binding: sealed state from another shard's enclave is
        // authentic (it unseals) but belongs to a different commitment
        // domain — a host swapping per-shard state across a restart.
        if sealed_shard != self.options.shard_id {
            let unsharded = crate::error::WRONG_SHARD_UNSHARDED;
            return Err(VerificationFailure::WrongShard {
                expected: self.options.shard_id.unwrap_or(unsharded),
                got: sealed_shard.unwrap_or(unsharded),
            }
            .into());
        }
        // The memtable was rebuilt from the logs the host presented, and
        // the replay folded every record of them from the sealed base on
        // (`Db::open`, through the listener). Anything but the sealed
        // digest means a frame was forged, dropped, reordered or cut off —
        // or written after the state was sealed.
        if self.trusted.wal_digest() != wal_digest {
            return Err(VerificationFailure::WalMismatch.into());
        }
        self.trusted.restore_commitments(commitments);
        // Rollback check: the dataset digest must match the counter epoch.
        if let Some(counter) = &self.counter {
            let digest = self.trusted.dataset_digest();
            if !counter.counter().verify_current(&digest) {
                return Err(VerificationFailure::RolledBack.into());
            }
        }
        self.rederive_crowns()
    }

    /// Re-derives each level's crown — never sealed — from the stored
    /// level: its records stream, table by table, through a digest builder
    /// (nothing of a level is resident but the table being read and the
    /// tree being built), and only a rebuilt tree whose root is the
    /// unsealed one gives its top rows and its fence to the enclave. If the
    /// host tampered with a level it gets no crown and no fence: its proofs
    /// fail against the restored commitment at query time, and a read may
    /// not pass it over. Every level of the recovered version is rebuilt,
    /// including those a store without compaction stacked past
    /// `max_levels`. A level whose records the host stored out of key
    /// order is no tree at all: it keeps its root alone, and the refusal
    /// is audited. The tree is dropped level by
    /// level: every proof it could give is in the stored records.
    fn rederive_crowns(&self) -> Result<(), ElsmError> {
        let version = self.db.current_version();
        let mut canonical = Vec::new();
        for level in 1..version.levels().len() {
            let Some(run) = version.level(level) else { continue };
            let level = level as u32;
            let mut builder = merkle::LevelDigestBuilder::new(level);
            let mut in_order = true;
            run.for_each_record(|record| {
                if let (true, Ok(opened)) = (in_order, open_record(record, level)) {
                    canonical.clear();
                    append_canonical(record, opened.value, &mut canonical);
                    in_order = builder.add(record.key, &canonical).is_ok();
                }
            })?;
            if !in_order {
                let reason = crate::listener::OUT_OF_ORDER;
                self.audit_failure(&VerificationFailure::IncompleteRange { level, reason });
            } else if builder.record_count() > 0 {
                let digest = builder.finish();
                let crown = digest.crown(self.trusted.crown_row_max());
                self.trusted.adopt_crown(&digest.commitment(), crown);
            }
        }
        Ok(())
    }

    /// The clean shutdown: rewrites the manifest — whose sealed state then
    /// covers every acknowledged write, each already on the host, so the
    /// store reopens on its logs — and flushes the rollback counter.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn close(&self) -> Result<(), ElsmError> {
        self.db.close()?;
        if let Some(counter) = &self.counter {
            counter.update(self.trusted.dataset_digest());
            counter.flush();
        }
        Ok(())
    }

    /// The platform (clock, stats) this store charges against.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The simulated filesystem (exposed for restart/adversary tests).
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.fs
    }

    /// The underlying vanilla store (exposed for benchmarks/statistics).
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// The enclave state (exposed for adversary unit tests).
    pub fn trusted(&self) -> &Arc<TrustedState> {
        &self.trusted
    }

    /// Verification-work counters.
    pub fn verify_stats(&self) -> VerifyStats {
        self.trusted.verify_stats()
    }

    /// Options this store was opened with.
    pub fn options(&self) -> &P2Options {
        &self.options
    }

    /// Telemetry handle this store's metrics and audit events report
    /// into (the one passed via [`P2Options::telemetry`]).
    pub fn telemetry(&self) -> &telemetry::Telemetry {
        &self.options.telemetry
    }

    /// Records a verification failure on the audit stream (see [`audit`]),
    /// at the current commitment epoch.
    fn audit_failure(&self, failure: &VerificationFailure) {
        let (telemetry, shard) = (&self.options.telemetry, self.options.shard_id);
        audit(&self.platform, telemetry, shard, Some(self.db.current_epoch()), failure);
    }

    /// Passes `result` through, recording any verification failure it
    /// carries on the audit stream first.
    fn audited<T>(&self, result: Result<T, ElsmError>) -> Result<T, ElsmError> {
        if let Err(ElsmError::Verification(failure)) = &result {
            self.audit_failure(failure);
        }
        result
    }

    fn ensure_healthy(&self) -> Result<(), ElsmError> {
        if self.trusted.is_poisoned() {
            Err(ElsmError::Poisoned)
        } else {
            Ok(())
        }
    }

    fn after_write(&self) {
        if let Some(counter) = &self.counter {
            counter.update(self.trusted.dataset_digest());
        }
    }

    /// Assembles the reply for one record the verifier handed back,
    /// resolving a key-value-separated pointer record through the
    /// authenticated value log. The value is a view of the stored bytes;
    /// the envelope was opened once, by the verifier.
    fn reply(
        &self,
        verified: Verified<'_>,
        levels_checked: usize,
    ) -> Result<VerifiedRecord, ElsmError> {
        let record = verified.record;
        let value = verified.value();
        let value = if record.kind == ValueKind::VlogPut {
            self.resolve_vlog_value(record, &value)?
        } else {
            value
        };
        Ok(VerifiedRecord::new(
            record.key.clone(),
            value,
            record.ts,
            verified.proof_bytes,
            levels_checked,
        ))
    }

    /// Follows a verified pointer record into the authenticated value
    /// log: read the entry bound to the record's key and timestamp from
    /// the host, check it against the MAC the level commitment vouches for,
    /// and unwrap the payload's envelope. Any mismatch is the host swapping,
    /// truncating or staling the separated value —
    /// [`VerificationFailure::VlogEntryTampered`].
    fn resolve_vlog_value(
        &self,
        record: &lsm_store::Record,
        pointer: &[u8],
    ) -> Result<Bytes, ElsmError> {
        let Some((ptr, mac)) = lsm_store::vlog::decode_pointer(pointer) else {
            return Err(VerificationFailure::VlogEntryTampered {
                file_no: 0,
                reason: "malformed pointer record",
            }
            .into());
        };
        let tamper = |reason| {
            ElsmError::Verification(VerificationFailure::VlogEntryTampered {
                file_no: ptr.file_no,
                reason,
            })
        };
        let vlog = self.db.vlog().ok_or_else(|| tamper("store holds no value log"))?;
        let payload = vlog
            .read(ptr, &record.key, record.ts)?
            .ok_or_else(|| tamper("entry missing, unreadable or bound to another record"))?;
        if vlog_entry_mac(&self.platform, &record.key, record.ts, &payload) != mac {
            return Err(tamper("entry digest does not match the committed MAC"));
        }
        let opened =
            crate::envelope::open(&payload).ok_or_else(|| tamper("entry envelope malformed"))?;
        Ok(payload.slice(opened.value_range()))
    }

    /// Verified-cache counters (zeroed stats when caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The verified read cache, when enabled (exposed for adversary
    /// tests that scribble over entries).
    pub fn verified_cache(&self) -> Option<&Arc<VerifiedCache>> {
        self.cache.as_ref()
    }
}

impl AuthenticatedKv for ElsmP2 {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError> {
        // Every public entry point opens a trace span: the root of a
        // fresh trace tree for a direct caller, a nested child when a
        // router or replica span is already active on this thread. The
        // guard drops after `after_write`, so the whole request —
        // including any flush it triggers — lands in one span window.
        let _span = self.spans.put.start();
        self.ensure_healthy()?;
        // The YCSB driver wraps each operation in an ECall (§6.1),
        // marshalling the record across the boundary.
        let ts = self.platform.ecall_with_payload(key.len() + value.len(), || {
            let (key, stored) = plain_record(key, value);
            self.db.put_bytes(key, stored)
        })?;
        self.after_write();
        Ok(ts)
    }

    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError> {
        let _span = self.spans.delete.start();
        self.ensure_healthy()?;
        let ts = self.platform.ecall_with_payload(key.len(), || self.db.delete(key))?;
        self.after_write();
        Ok(ts)
    }

    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError> {
        let _span = self.spans.put_batch.start();
        self.ensure_healthy()?;
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // One enclave transition carries the whole batch (plus per-record
        // marshalling); the envelope layer wraps every value in bulk inside,
        // the store group-commits the batch as one WAL frame, and the
        // trusted state (WAL digest, rollback counter) updates once.
        // Marshalling covers the *argument* bytes — the envelope is added
        // inside the enclave, so the batch's own payload_bytes (enveloped)
        // is deliberately not the number charged here.
        let payload: usize = items.iter().map(|(k, v)| k.len() + v.len()).sum();
        let timestamps = self.platform.ecall_with_payload(payload, || {
            let mut batch = lsm_store::WriteBatch::with_capacity(items.len());
            for (key, value) in items {
                let (key, stored) = plain_record(key, value);
                batch.put(key, stored);
            }
            self.db.write_batch(batch)
        })?;
        self.after_write();
        Ok(timestamps)
    }

    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError> {
        let _span = self.spans.delete_batch.start();
        self.ensure_healthy()?;
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = lsm_store::WriteBatch::with_capacity(keys.len());
        for key in keys {
            batch.delete(Bytes::copy_from_slice(key));
        }
        let timestamps = self
            .platform
            .ecall_with_payload(batch.payload_bytes(), || self.db.write_batch(batch))?;
        self.after_write();
        Ok(timestamps)
    }

    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        let _span = self.spans.get.start();
        self.ensure_healthy()?;
        let result = self.get_inner(key);
        self.audited(result)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        let _span = self.spans.scan.start();
        self.ensure_healthy()?;
        let result = self.scan_inner(from, to);
        self.audited(result)
    }
}

impl ElsmP2 {
    fn get_inner(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        // The trace is collected against a pinned version snapshot and
        // verified against the commitment set published for that
        // snapshot's epoch. Concurrent flush/compaction installs replace
        // neither — readers never serialize behind them, yet verification
        // always sees exactly the roots the trace was collected under
        // (the §5.5.2 guarantee, lock-free).
        self.platform.ecall(|| {
            // Verified-cache fast path: an entry no write has superseded
            // answers without touching the host at all. A miss stamps the
            // answer before the trace is captured; a tampered entry is
            // detected, discarded and the query falls back to the verified
            // disk path below — never served.
            let stamp = match self.cache.as_ref().map(|cache| cache.lookup_record(key)) {
                Some(Ok(Lookup::Hit(ts, value))) => {
                    let key = Bytes::copy_from_slice(key);
                    return Ok(Some(VerifiedRecord::new(key, value, ts, 0, 0)));
                }
                Some(Ok(Lookup::Miss(stamp))) => Some(stamp),
                _ => None,
            };
            self.db.get_with_trace(key, |trace| {
                // A verified tombstone reads as absent.
                let Some(hit) =
                    self.trusted.verify_get(key, trace)?.filter(|v| v.record.kind.is_value())
                else {
                    return Ok(None);
                };
                let answer = self.reply(hit, trace.levels.len())?;
                if let (Some(cache), Some(stamp)) = (&self.cache, stamp) {
                    let value = Bytes::copy_from_slice(answer.value());
                    cache.insert_record(key, stamp, answer.ts(), value);
                }
                Ok(Some(answer))
            })?
        })
    }

    fn scan_inner(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        self.platform.ecall(|| {
            if from > to {
                // No key lies in an inverted range: the answer is empty by
                // the query alone, with nothing to ask the host or prove.
                return Ok(Ok(Vec::new()));
            }
            self.db.scan_with_trace(from, to, |trace| {
                let verified = self.trusted.verify_scan(from, to, trace)?;
                let mut out = Vec::with_capacity(verified.len());
                for record in verified {
                    out.push(self.reply(record, trace.levels.len())?);
                }
                Ok(out)
            })
        })?
    }
}

/// Exposes trace-level entry points so adversary tests can feed tampered
/// traces directly into the verifier.
impl ElsmP2 {
    /// Runs the GET verifier on an externally supplied trace and hands
    /// back what it hands `get`: the verified answer.
    ///
    /// # Errors
    ///
    /// Returns the detected [`VerificationFailure`].
    pub fn verify_get_trace<'t>(
        &self,
        key: &[u8],
        trace: &'t GetTrace,
    ) -> Result<Option<Verified<'t>>, VerificationFailure> {
        let verdict = self.trusted.verify_get(key, trace);
        if let Err(failure) = &verdict {
            self.audit_failure(failure);
        }
        verdict
    }

    /// Runs the SCAN verifier on an externally supplied trace and hands
    /// back what it hands `scan`: the verified result.
    ///
    /// # Errors
    ///
    /// Returns the detected [`VerificationFailure`].
    pub fn verify_scan_trace<'t>(
        &self,
        from: &[u8],
        to: &[u8],
        trace: &'t ScanTrace,
    ) -> Result<Vec<Verified<'t>>, VerificationFailure> {
        let verdict = self.trusted.verify_scan(from, to, trace);
        if let Err(failure) = &verdict {
            self.audit_failure(failure);
        }
        verdict
    }

    /// Produces a raw (unverified) trace — adversary tests tamper with
    /// this before feeding it back to the verifier.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Io`] on storage errors.
    pub fn raw_get_trace(&self, key: &[u8]) -> Result<GetTrace, ElsmError> {
        Ok(self.db.get_with_trace(key, GetTrace::clone)?)
    }

    /// Produces a raw (unverified) scan trace.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Io`] on storage errors.
    pub fn raw_scan_trace(&self, from: &[u8], to: &[u8]) -> Result<ScanTrace, ElsmError> {
        Ok(self.db.scan_with_trace(from, to, ScanTrace::clone)?)
    }
}

/// Records a failure the store's enclave detected (component `"p2"`) on
/// `telemetry`'s audit stream, stamped with the failure's own shard and
/// epoch context, else with `shard` and `epoch`.
pub(crate) fn audit(
    platform: &Platform,
    telemetry: &telemetry::Telemetry,
    shard: Option<u32>,
    epoch: Option<u64>,
    failure: &VerificationFailure,
) {
    let mut event = telemetry::AuditEvent::new(failure.kind(), "p2")
        .detail(failure.to_string())
        .at_ns(platform.clock().now_ns());
    if let Some(epoch) = failure.epoch_context().or(epoch) {
        event = event.epoch(epoch);
    }
    if let Some(shard) = failure.shard_context().or(shard) {
        event = event.shard(shard);
    }
    telemetry.audit(event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_store::CompactionStrategyKind;
    use std::collections::BTreeMap;

    /// Deterministic 64-bit LCG (MMIX constants) — no RNG crates in-tree.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }

    fn small_options(strategy: CompactionStrategyKind, parallelism: usize) -> P2Options {
        P2Options {
            write_buffer_bytes: 4 * 1024,
            level1_max_bytes: 8 * 1024,
            level_multiplier: 4,
            max_levels: 4,
            target_file_bytes: 8 * 1024,
            compaction_strategy: strategy,
            compaction_parallelism: parallelism,
            incremental_commitments: true,
            ..P2Options::default()
        }
    }

    /// Property: whatever the strategy and scheduler parallelism, the
    /// store is observationally one key-value map. A random workload of
    /// puts and deletes — sized to force many flushes and compaction
    /// waves — must leave every configuration agreeing with a model
    /// oracle on verified point reads and on one totally-ordered,
    /// completeness-verified scan.
    #[test]
    fn compaction_strategy_matches_oracle() {
        let configs = [
            (CompactionStrategyKind::Leveled, 1),
            (CompactionStrategyKind::Leveled, 4),
            (CompactionStrategyKind::Tiered, 1),
            (CompactionStrategyKind::Tiered, 4),
        ];
        let stores: Vec<ElsmP2> = configs
            .iter()
            .map(|(strategy, parallelism)| {
                ElsmP2::open(
                    Platform::with_defaults(),
                    small_options(strategy.clone(), *parallelism),
                )
                .expect("open")
            })
            .collect();
        let mut oracle: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut rng = Lcg(0xe15a_c0de);
        for step in 0..700u64 {
            let key = format!("key{:04}", rng.next() % 160).into_bytes();
            if rng.next() % 5 == 0 {
                for store in &stores {
                    store.delete(&key).expect("delete");
                }
                oracle.insert(key, None);
            } else {
                let value = format!("val-{step}-{:08}", rng.next() % 100_000_000).into_bytes();
                for store in &stores {
                    store.put(&key, &value).expect("put");
                }
                oracle.insert(key, Some(value));
            }
        }
        for store in &stores {
            let stats = store.db().stats();
            assert!(stats.flushes > 0, "workload must trigger flushes");
        }
        // Verified point reads over the whole keyspace (plus never-written
        // keys: verified non-membership).
        for k in 0..170u64 {
            let key = format!("key{k:04}").into_bytes();
            let expect = oracle.get(&key).and_then(Clone::clone);
            for (store, (strategy, parallelism)) in stores.iter().zip(&configs) {
                let got = store.get(&key).expect("verified get").map(|r| r.value().to_vec());
                assert_eq!(
                    got, expect,
                    "{strategy:?}/par{parallelism} diverged from oracle on {key:?}"
                );
            }
        }
        // One totally-ordered, completeness-verified scan per store.
        let expect_scan: Vec<(Vec<u8>, Vec<u8>)> =
            oracle.iter().filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v))).collect();
        for (store, (strategy, parallelism)) in stores.iter().zip(&configs) {
            let got: Vec<(Vec<u8>, Vec<u8>)> = store
                .scan(b"key0000", b"key9999")
                .expect("verified scan")
                .iter()
                .map(|r| (r.key().to_vec(), r.value().to_vec()))
                .collect();
            assert_eq!(got, expect_scan, "{strategy:?}/par{parallelism} scan diverged");
        }
    }

    /// A verified answer is cached once, as the answer: a separated value
    /// takes no second entry of its own. A budget that fits `K` answers but
    /// not `2K` serves a second pass over `K` keys from the cache alone.
    #[test]
    fn the_cache_stores_each_answer_once() {
        const K: usize = 16;
        let (key, value) = (|i: usize| format!("key{i:02}"), [7u8; 1024]);
        let entry = key(0).len() + value.len() + 64;
        let budget = K * entry + entry / 2;
        let store = ElsmP2::open(
            Platform::with_defaults(),
            P2Options {
                vlog: Some(lsm_store::VlogConfig {
                    value_threshold: 128,
                    ..lsm_store::VlogConfig::default()
                }),
                verified_cache_bytes: budget,
                ..P2Options::default()
            },
        )
        .unwrap();
        for i in 0..K {
            store.put(key(i).as_bytes(), &value).unwrap();
        }
        store.db().flush().unwrap();
        assert!(store.db().stats().vlog_bytes > 0, "the values are separated");
        let read_all = || {
            for i in 0..K {
                let answer = store.get(key(i).as_bytes()).unwrap().expect("present");
                assert_eq!(answer.value(), &value[..]);
            }
        };
        read_all();
        let first = store.cache_stats();
        assert_eq!((first.record_hits, first.record_misses), (0, K as u64));
        read_all();
        let second = store.cache_stats();
        assert_eq!(second.record_hits, K as u64, "{second:?}");
        assert_eq!(second.record_misses, K as u64, "{second:?}");
        assert!(store.verified_cache().unwrap().bytes() <= budget);
    }
}
