//! The authenticated-compaction listener: eLSM as a store add-on.
//!
//! This is the paper's Figure 4 realized through `lsm-store`'s RocksDB-style
//! callbacks, with **zero changes** to the storage engine. Each merge (flush,
//! compaction or value-log GC) is one job, [`AuthListener`]'s
//! `begin_merge`, which owns everything eLSM derives for it:
//!
//! * `input` ↔ `auth_filter`: rebuilds each input level's Merkle tree
//!   incrementally (`MHT_add`), folding each key's chain as the next key
//!   arrives,
//! * `observe` → `seal` ↔ `auth_onTableFileCreated`, pass 1: builds the
//!   output level's digest from the surviving records — a record whose
//!   chain below it is the one its input level had takes that level's chain
//!   digest over, every other record is hashed,
//! * `write_value`, pass 2: appends `envelope ‖ proof` for each record
//!   straight into the table block being built — no output record is ever
//!   materialised,
//! * `finish` (merging thread, possibly a scheduler worker, so the digest
//!   work overlaps across a wave's jobs): checks the rebuilt input roots
//!   against the enclave's commitments and stages the job's
//!   [`CompactionDelta`] — the output commitment with the crown (top rows)
//!   of the tree just built, which is dropped here: every proof it can give
//!   is in the records by now,
//! * `install` (store write lock, deterministic job order): folds the delta
//!   into the enclave's *working* vector
//!   ([`TrustedState::apply_compaction_delta`]) — O(levels-in-job), not a
//!   full recompute — and, for a flush, drops the frozen log's part of the
//!   WAL chain,
//! * `fail`: refuses further service,
//! * `on_version_install`: publishes the working commitments as the
//!   immutable snapshot for the installing version's epoch — the §5.5.2
//!   root replacement, made atomic by versioning instead of a store-wide
//!   mutex,
//! * `on_versions_retired`: prunes snapshots whose readers drained,
//! * `on_wal_append_batch`: maintains the in-enclave WAL digest (step w1);
//!   `on_wal_rotate` and a flush's install keep the chain value the oldest
//!   live log starts from, which recovery folds the logs from,
//! * `manifest_state`: seals the trusted state into every manifest the
//!   store writes, bound to the manifest's other bytes, and
//!   `recover_manifest_state` unseals it at restart, before the logs replay
//!   (`DESIGN.md` §8).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::sync::Arc;

use elsm_crypto::Digest;
use lsm_store::{InputPosition, MergeJob, Record, RecordView, StoreListener};
use merkle::{Folded, LevelCommitment, LevelDigest, LevelDigestBuilder};
use parking_lot::Mutex;
use sgx_sim::{Platform, SealedBlob, Sealer};

use crate::cache::VerifiedCache;
use crate::envelope::{append_canonical, append_with_proof, open_record, wrap_plain};
use crate::error::{VerificationFailure, WRONG_SHARD_UNSHARDED};
use crate::trusted::{CompactionDelta, TrustedState};

/// Why a level whose stored records are out of key order is refused.
pub(crate) const OUT_OF_ORDER: &str = "stored records out of key order";

/// eLSM's authentication layer, attached to the vanilla store as a
/// listener.
#[derive(Debug)]
pub struct AuthListener {
    platform: Arc<Platform>,
    trusted: Arc<TrustedState>,
    /// Which cost the enclave is charged for a compaction output record
    /// whose key chain one input level holds whole (no version dropped or
    /// added) and whose value and older versions the merge kept: a 32-byte
    /// digest move (`true`) or a rehash of its canonical bytes (`false`,
    /// the paper's baseline). The digest is carried over in both modes —
    /// this selects only the charge.
    incremental: bool,
    /// Verified read cache whose keys each folded write invalidates
    /// (`None`: caching disabled).
    cache: Option<Arc<VerifiedCache>>,
    /// Output records whose chain digest a merge carried over from its
    /// input level instead of hashing (`core.compaction.leaves_reused`).
    leaves_reused: telemetry::Counter,
    /// Chain links merges hashed, input and output levels together
    /// (`core.compaction.links_hashed`).
    links_hashed: telemetry::Counter,
    /// The audit stream a refused merge input is recorded on.
    telemetry: telemetry::Telemetry,
    /// Seals the trusted state into the manifest, under the enclave's key.
    sealer: Sealer,
    /// What the manifest a restart recovers from unsealed to, until the
    /// store takes it to check the replay against.
    recovered: Mutex<Option<Result<SealedState, VerificationFailure>>>,
}

impl AuthListener {
    /// Builds the listener around the enclave state. `incremental` selects
    /// the charge for carried-over compaction outputs (see the field); a
    /// `cache` sees every folded write's key, and nothing else. The merge
    /// counters are registered in `telemetry`.
    pub fn new(
        platform: Arc<Platform>,
        trusted: Arc<TrustedState>,
        incremental: bool,
        cache: Option<Arc<VerifiedCache>>,
        telemetry: &telemetry::Telemetry,
    ) -> Arc<Self> {
        Arc::new(AuthListener {
            platform,
            trusted,
            incremental,
            cache,
            leaves_reused: telemetry.counter("core.compaction.leaves_reused"),
            links_hashed: telemetry.counter("core.compaction.links_hashed"),
            telemetry: telemetry.clone(),
            sealer: Sealer::new(elsm_crypto::sha256(b"elsm-p2 enclave v1"), b"machine-0"),
            recovered: Mutex::new(None),
        })
    }

    /// The sealed state the store recovered from, unsealed — `None` for a
    /// fresh store, `SealBroken` for a section that does not unseal
    /// against the manifest it ends. Taken once.
    pub(crate) fn take_recovered(&self) -> Option<Result<SealedState, VerificationFailure>> {
        self.recovered.lock().take()
    }

    /// Refuses further service for `failure`, which a merge input showed,
    /// and records it on the audit stream.
    fn refuse(&self, failure: VerificationFailure) {
        self.trusted.poison();
        let shard = self.trusted.shard_id();
        crate::p2::audit(&self.platform, &self.telemetry, shard, None, &failure);
    }

    /// The state of a new merge of `input_levels` into `output_level`.
    fn job(&self, input_levels: &[usize], output_level: usize) -> AuthJob<'_> {
        AuthJob {
            listener: self,
            inputs: input_levels.iter().map(|&level| (level, None)).collect(),
            output_level,
            canonical: Vec::new(),
            output: LevelDigestBuilder::new(output_level as u32),
            chain_key: Vec::new(),
            chain: Vec::new(),
            refused: false,
            digest: None,
            leaf_idx: 0,
            version_idx: 0,
            delta: None,
        }
    }
}

/// One merge's authentication state, from its first input record to its
/// install. Nothing of it is shared with another job.
struct AuthJob<'a> {
    listener: &'a AuthListener,
    /// The job's input levels, each with the tree rebuilt from the records
    /// streamed from it (`None` before the first, and always for level 0:
    /// the memtable is enclave memory, never streamed), until `finish`.
    inputs: Vec<(usize, Option<LevelDigestBuilder>)>,
    output_level: usize,
    /// Reused buffer for a record's canonical bytes.
    canonical: Vec<u8>,
    /// Pass 1: the output level's digest, built from the surviving records
    /// as the merge hands them over. Each record offers the builder what
    /// its input level folded for it; the builder takes it over where the
    /// record's chain below it is unchanged, and hashes the rest — so a
    /// merge hashes each stored record once, as an input.
    output: LevelDigestBuilder,
    /// The key of the chain being observed, and what is charged for it.
    chain_key: Vec<u8>,
    chain: Vec<Observed>,
    /// An output record's envelope did not open: nothing this job produces
    /// may be signed.
    refused: bool,
    /// Pass 2: the finished output tree (from `seal` to `finish`), and the
    /// position of the next record in it: leaf (distinct key) and version
    /// within the leaf's chain.
    digest: Option<LevelDigest>,
    leaf_idx: usize,
    version_idx: usize,
    /// What `finish` staged for `install`.
    delta: Option<CompactionDelta>,
}

/// What pass 1 knows of one record of the chain being observed.
struct Observed {
    /// Canonical length: what a rehash is charged for.
    len: usize,
    /// The merge rewrote its value.
    rewritten: bool,
    /// The input level it was read from, and what that level folded for it.
    folded: Option<(usize, Folded)>,
}

impl AuthJob<'_> {
    /// What input level `at.level` folded for its record `at.ordinal`.
    fn folded(&mut self, at: InputPosition) -> Option<(usize, Folded)> {
        let (_, builder) = self.inputs.iter_mut().find(|(level, _)| *level == at.level)?;
        let builder = builder.as_mut()?;
        // The merge has read every input by now, so the last chain can fold.
        builder.end_chain();
        Some((at.level, builder.folded(at.ordinal)?))
    }

    /// Charges the observed chain, as the enclave is modelled to pay for
    /// it whatever the code hashed: in incremental mode a record of a
    /// chain one input level holds whole pays a 32-byte digest move when
    /// neither it nor an older version was rewritten; every other record
    /// pays a rehash of its canonical bytes.
    fn charge_chain(&mut self) {
        let whole = self.listener.incremental && held_whole(&self.chain);
        // Past the last rewritten record, none is rewritten at or below.
        let kept_from = self.chain.iter().rposition(|r| r.rewritten).map_or(0, |last| last + 1);
        for (i, record) in self.chain.iter().enumerate() {
            if whole && i >= kept_from {
                self.listener.platform.dram_access(32);
            } else {
                self.listener.platform.charge_hash(record.len);
            }
        }
        self.chain.clear();
    }
}

/// Whether one input level holds the observed chain whole: every record
/// the merge read as it was is version `i` of that level's chain for the
/// key, and that chain has exactly as many versions. (A rewritten record
/// keeps its place: a merge rewrites values, it never moves a version.)
fn held_whole(chain: &[Observed]) -> bool {
    let mut held_by = None;
    for (i, record) in chain.iter().enumerate() {
        if record.rewritten {
            continue;
        }
        let Some((level, folded)) = record.folded else { return false };
        if folded.version != i
            || folded.versions != chain.len()
            || held_by.is_some_and(|l| l != level)
        {
            return false;
        }
        held_by = Some(level);
    }
    held_by.is_some()
}

impl MergeJob for AuthJob<'_> {
    fn input(&mut self, level: usize, record: RecordView<'_>) {
        // Rebuild the source level's tree from the streamed records
        // (Figure 4, auth_filter → MHT_add on the input trees).
        let _world = sgx_sim::enclave_scope();
        self.canonical.clear();
        match open_record(record, level as u32) {
            Ok(opened) => {
                append_canonical(record, opened.value, &mut self.canonical);
                self.listener.platform.charge_hash(self.canonical.len());
            }
            Err(_) => {
                // Malformed envelope in an input: the level can never
                // match. The record still takes its place in the level's
                // stream, so the positions of the records after it hold.
                self.listener.trusted.poison();
                append_canonical(record, record.value, &mut self.canonical);
            }
        }
        if let Some((_, builder)) = self.inputs.iter_mut().find(|(l, _)| *l == level) {
            let builder = builder.get_or_insert_with(|| LevelDigestBuilder::new(level as u32));
            if builder.add(record.key, &self.canonical).is_err() {
                // The host's table holds its records out of key order: the
                // level is no level the enclave committed to.
                self.listener.refuse(VerificationFailure::IncompleteRange {
                    level: level as u32,
                    reason: OUT_OF_ORDER,
                });
            }
        }
    }

    fn observe(&mut self, record: RecordView<'_>, from: Option<InputPosition>) {
        if self.refused {
            return;
        }
        // Trusted-side work on a flush/compaction worker thread: attribute
        // the hashing to the enclave in the platform's time split.
        let _world = sgx_sim::enclave_scope();
        let Ok(opened) = open_record(record, self.output_level as u32) else {
            // A malformed envelope among the outputs. The records are
            // stored as they are; with no output tree `finish` clears the
            // level instead of committing it.
            self.listener.trusted.poison();
            self.refused = true;
            return;
        };
        if self.chain_key != record.key {
            self.charge_chain();
            self.chain_key.clear();
            self.chain_key.extend_from_slice(record.key);
        }
        self.canonical.clear();
        append_canonical(record, opened.value, &mut self.canonical);
        // The record's old proof was validated in place by `open_record`
        // and is dropped.
        let folded = from.and_then(|at| self.folded(at));
        if self.output.add_carried(record.key, &self.canonical, folded.map(|(_, f)| f)).is_err() {
            // The merge hands its survivors over strictly ascending; an
            // output out of order is refused like a malformed one.
            self.listener.trusted.poison();
            self.refused = true;
            return;
        }
        self.chain.push(Observed { len: self.canonical.len(), rewritten: from.is_none(), folded });
    }

    fn seal(&mut self) {
        let mut output = std::mem::take(&mut self.output);
        if self.refused {
            return;
        }
        {
            let _world = sgx_sim::enclave_scope();
            self.charge_chain();
            output.end_chain();
        }
        self.listener.leaves_reused.add(output.links_carried());
        self.listener.links_hashed.add(output.links_hashed());
        self.digest = Some(output.finish());
    }

    /// Embeds a fresh proof in every output record
    /// (`auth_onTableFileCreated`), in the order pass 1 saw them; a
    /// refused job stores them as they are.
    fn write_value(&mut self, record: RecordView<'_>, out: &mut Vec<u8>) {
        let Some(digest) = &self.digest else {
            return out.extend_from_slice(record.value);
        };
        let _world = sgx_sim::enclave_scope();
        let Some(opened) = crate::envelope::open(record.value) else {
            // Pass 1 opened these very bytes. Were they to change, the
            // job is refused as `observe` refuses a malformed output.
            self.listener.trusted.poison();
            self.digest = None;
            return out.extend_from_slice(record.value);
        };
        let (leaf_idx, version_idx) = (self.leaf_idx, self.version_idx);
        self.version_idx += 1;
        if self.version_idx == digest.chain_len(leaf_idx) {
            self.leaf_idx += 1;
            self.version_idx = 0;
        }
        // Proof material was already hashed while building the tree;
        // serialization is a plain memory copy, written once, straight
        // after the value into the table block.
        self.listener.platform.dram_access(digest.proof_encoded_len(leaf_idx, version_idx));
        append_with_proof(out, opened.value, |buf| {
            digest.encode_proof_into(leaf_idx, version_idx, buf)
        });
    }

    fn finish(&mut self) {
        let _world = sgx_sim::enclave_scope();
        let trusted = &self.listener.trusted;
        // 1. Verify every input level's rebuilt root against the enclave
        //    commitment (Figure 4 lines 31-33). A level no record was
        //    streamed from is only legal when the enclave also believes it
        //    empty — otherwise the host hid an input level's records.
        for (level, builder) in &mut self.inputs {
            if *level == 0 {
                continue; // memtable: trusted enclave memory
            }
            let committed = trusted.commitment(*level as u32);
            match builder.take() {
                Some(mut builder) => {
                    builder.end_chain();
                    self.listener.links_hashed.add(builder.links_hashed());
                    if builder.finish().commitment() != committed {
                        trusted.poison();
                    }
                }
                None if !committed.is_empty() => trusted.poison(),
                None => {}
            }
        }
        // 2. Stage the job's delta. Refuse to sign when poisoned (the
        //    paper's "if the equality check passes, the Merkle root hash
        //    for the output file takes effect").
        let mut delta = CompactionDelta::default();
        match self.digest.take() {
            Some(digest) if !trusted.is_poisoned() && digest.leaf_count() > 0 => {
                // Root, leaf count, crown and fence are read off the one
                // tree the transform built inside the enclave; the tree goes.
                let crown = digest.crown(trusted.crown_row_max());
                delta.runs_added.push((digest.commitment(), crown));
            }
            _ => delta.runs_removed.push(self.output_level as u32),
        }
        for &(level, _) in &self.inputs {
            if level >= 1 && level != self.output_level {
                delta.runs_removed.push(level as u32);
            }
        }
        self.delta = Some(delta);
    }

    fn install(&mut self) {
        let _world = sgx_sim::enclave_scope();
        if self.inputs.iter().any(|&(level, _)| level == 0) {
            // A flush: the log that covered the frozen memtable goes.
            self.listener.trusted.wal_truncated();
        }
        if let Some(delta) = self.delta.take() {
            self.listener.trusted.apply_compaction_delta(delta);
        }
    }

    fn fail(&mut self) {
        // The host served an input that does not decode, or refused an
        // output file: refuse service. What the job built goes with it.
        self.listener.trusted.poison();
    }
}

impl StoreListener for AuthListener {
    fn begin_merge(&self, input_levels: &[usize], output_level: usize) -> Box<dyn MergeJob + '_> {
        Box::new(self.job(input_levels, output_level))
    }

    fn on_wal_append_batch(&self, records: &[Record]) {
        // One digest-lock acquisition folds the whole commit group, in
        // commit order (the store's leader serializes groups). Records
        // enter the WAL with a plain envelope; the digest is over bare
        // bytes. A value that is no envelope — only a log the host rewrote
        // can present one, at replay — is folded as it stands: every
        // record the store takes in moves the digest.
        self.trusted.absorb_wal_batch(records, |record, canonical| {
            let bare = crate::envelope::open(&record.value).map_or(&record.value[..], |o| o.value);
            append_canonical(record.view(), bare, canonical);
        });
        if let Some(cache) = &self.cache {
            for record in records {
                cache.invalidate_key(&record.key);
            }
        }
    }

    fn on_wal_rotate(&self) {
        self.trusted.wal_rotated();
    }

    fn vlog_mac(&self, record: &Record) -> [u8; lsm_store::vlog::MAC_BYTES] {
        vlog_entry_mac(&self.platform, &record.key, record.ts, &record.value)
    }

    fn wrap_vlog_pointer(&self, pointer: Vec<u8>) -> bytes::Bytes {
        // Pointer records flow through the same envelope as plain values,
        // so compaction proofs embed identically.
        wrap_plain(&pointer)
    }

    fn unwrap_vlog_pointer(&self, stored: &[u8]) -> Option<bytes::Bytes> {
        crate::envelope::open(stored).map(|opened| bytes::Bytes::copy_from_slice(opened.value))
    }

    fn on_version_install(&self, epoch: u64) {
        self.trusted.publish_epoch(epoch);
    }

    fn on_versions_retired(&self, live_epochs: &[u64]) {
        self.trusted.prune_epochs(live_epochs);
    }

    fn manifest_state(&self, manifest: &[u8]) -> Vec<u8> {
        let plain = encode_state(&SealedState {
            commitments: self.trusted.commitments(),
            wal_base: self.trusted.wal_base(),
            wal_digest: self.trusted.wal_digest(),
            shard: self.trusted.shard_id(),
        });
        self.sealer.seal(&state_aad(manifest), &plain).to_bytes()
    }

    fn recover_manifest_state(&self, manifest: &[u8], state: &[u8]) {
        let unsealed = SealedBlob::from_bytes(state)
            .ok()
            .and_then(|blob| self.sealer.unseal(&state_aad(manifest), &blob).ok())
            .and_then(|plain| decode_state(&plain));
        // The replay that follows folds the logs from the sealed base on.
        if let Some(state) = &unsealed {
            self.trusted.restore_wal_base(state.wal_base);
        }
        *self.recovered.lock() = Some(unsealed.ok_or(VerificationFailure::SealBroken));
    }
}

/// The seal's associated data: its domain, then the manifest bytes it ends
/// — a section moved onto another manifest does not unseal.
fn state_aad(manifest: &[u8]) -> Vec<u8> {
    [b"elsm-p2/state", manifest].concat()
}

/// What every manifest carries sealed, and a restart unseals.
#[derive(Debug)]
pub(crate) struct SealedState {
    pub(crate) commitments: Vec<LevelCommitment>,
    /// The WAL chain value the oldest live log starts from …
    pub(crate) wal_base: Digest,
    /// … and the one the live logs, replayed, must arrive at.
    pub(crate) wal_digest: Digest,
    pub(crate) shard: Option<u32>,
}

fn encode_state(state: &SealedState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(state.commitments.len() as u32).to_le_bytes());
    for c in &state.commitments {
        out.extend_from_slice(&c.level.to_le_bytes());
        out.extend_from_slice(c.root.as_bytes());
        out.extend_from_slice(&c.leaf_count.to_le_bytes());
    }
    out.extend_from_slice(state.wal_base.as_bytes());
    out.extend_from_slice(state.wal_digest.as_bytes());
    let shard = state.shard.unwrap_or(WRONG_SHARD_UNSHARDED);
    out.extend_from_slice(&shard.to_le_bytes());
    out
}

/// Parses [`encode_state`]'s bytes; `None` unless they are exactly one
/// state. The commitment count is checked against the bytes left to hold
/// it before anything is sized by it.
fn decode_state(buf: &[u8]) -> Option<SealedState> {
    const COMMITMENT_BYTES: usize = 4 + 32 + 8;
    let n = u32::from_le_bytes(buf.get(0..4)?.try_into().ok()?) as usize;
    if n > (buf.len() - 4) / COMMITMENT_BYTES {
        return None;
    }
    let mut pos = 4;
    let digest = |pos: &mut usize| {
        let bytes: [u8; 32] = buf.get(*pos..*pos + 32)?.try_into().ok()?;
        *pos += 32;
        Some(Digest::from_bytes(bytes))
    };
    let mut commitments = Vec::with_capacity(n);
    for _ in 0..n {
        let level = u32::from_le_bytes(buf.get(pos..pos + 4)?.try_into().ok()?);
        pos += 4;
        let root = digest(&mut pos)?;
        let leaf_count = u64::from_le_bytes(buf.get(pos..pos + 8)?.try_into().ok()?);
        pos += 8;
        commitments.push(LevelCommitment { level, root, leaf_count });
    }
    let wal_base = digest(&mut pos)?;
    let wal_digest = digest(&mut pos)?;
    let shard = u32::from_le_bytes(buf.get(pos..)?.try_into().ok()?);
    let shard = (shard != WRONG_SHARD_UNSHARDED).then_some(shard);
    Some(SealedState { commitments, wal_base, wal_digest, shard })
}

/// The authenticated value log's entry digest: binds key ‖ ts ‖ stored
/// (enveloped) value. Deliberately a *keyless* domain-tagged hash:
/// replicas re-derive pointer records during replayed flushes, and a
/// node-local key would make their level commitments diverge from the
/// primary's. The digest rides inside the pointer record, which the
/// per-level Merkle commitment covers — the commitment supplies the
/// authenticity, the hash supplies the binding to the log entry.
pub fn vlog_entry_mac(
    platform: &Platform,
    key: &[u8],
    ts: u64,
    stored_value: &[u8],
) -> [u8; lsm_store::vlog::MAC_BYTES] {
    platform.charge_hash(key.len() + stored_value.len() + 16);
    let mac = elsm_crypto::sha256_concat(&[
        b"elsm/vlog-entry v1",
        &(key.len() as u64).to_le_bytes(),
        key,
        &ts.to_le_bytes(),
        stored_value,
    ]);
    *mac.as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::wrap_plain;
    use bytes::Bytes;

    fn record(key: &str, ts: u64, value: &str) -> Record {
        Record::put(Bytes::copy_from_slice(key.as_bytes()), wrap_plain(value.as_bytes()), ts)
    }

    fn setup() -> (Arc<AuthListener>, Arc<TrustedState>) {
        setup_on(Platform::with_defaults(), false)
    }

    fn setup_on(
        platform: Arc<Platform>,
        incremental: bool,
    ) -> (Arc<AuthListener>, Arc<TrustedState>) {
        let trusted = TrustedState::new(platform.clone(), 4);
        let telemetry = telemetry::Telemetry::disabled();
        (AuthListener::new(platform, trusted.clone(), incremental, None, &telemetry), trusted)
    }

    /// Whether a job holds no tree: no input tree, no output tree.
    fn holds_no_tree(job: &AuthJob<'_>) -> bool {
        job.inputs.iter().all(|(_, builder)| builder.is_none()) && job.digest.is_none()
    }

    /// Streams `level`'s stored records into `job` as its input; returns
    /// where the merge read each.
    fn feed(job: &mut AuthJob<'_>, level: usize, records: &[Record]) -> Vec<Option<InputPosition>> {
        for r in records {
            job.input(level, r.view());
        }
        (0..records.len()).map(|ordinal| Some(InputPosition { level, ordinal })).collect()
    }

    /// Drives a job's output the way a merge does: every record observed,
    /// sealed, then every stored value written. `from` may be shorter than
    /// `records` (a missing position reads as a memtable record).
    fn write(
        job: &mut AuthJob<'_>,
        records: Vec<Record>,
        from: &[Option<InputPosition>],
    ) -> Vec<Record> {
        for (i, r) in records.iter().enumerate() {
            let memtable = Some(InputPosition { level: 0, ordinal: i });
            job.observe(r.view(), from.get(i).copied().unwrap_or(memtable));
        }
        job.seal();
        records
            .iter()
            .map(|r| {
                let mut stored = Vec::new();
                job.write_value(r.view(), &mut stored);
                Record { value: Bytes::from(stored), ..r.clone() }
            })
            .collect()
    }

    /// A whole flush of `records` into `level`: merged, finished, installed.
    fn flush(listener: &AuthListener, level: usize, records: Vec<Record>) -> Vec<Record> {
        let mut job = listener.job(&[0], level);
        let out = write(&mut job, records, &[]);
        job.finish();
        job.install();
        out
    }

    #[test]
    fn flush_installs_level_commitment() {
        let (listener, trusted) = setup();
        let mut job = listener.job(&[0], 1);
        let out = write(&mut job, vec![record("a", 2, "va"), record("b", 1, "vb")], &[]);
        job.finish();
        job.install();
        assert!(!trusted.commitment(1).is_empty());
        assert_eq!(trusted.commitment(1).leaf_count, 2);
        assert!(holds_no_tree(&job), "the output tree went with the job");
        // Output records now carry proofs.
        for r in &out {
            assert!(open_record(r.view(), 1).unwrap().proof.is_some());
        }
        assert!(!trusted.is_poisoned());
    }

    #[test]
    fn staged_delta_commits_only_at_install() {
        let (listener, trusted) = setup();
        let mut job = listener.job(&[0], 1);
        write(&mut job, vec![record("a", 2, "va")], &[]);
        job.finish();
        // Merge done, not yet installed: readers still see the old state,
        // and the output tree is gone already — only its delta waits.
        assert!(trusted.commitment(1).is_empty());
        assert!(holds_no_tree(&job));
        job.install();
        assert!(!trusted.commitment(1).is_empty());
    }

    #[test]
    fn matching_input_roots_keep_store_healthy() {
        let (listener, trusted) = setup();
        // First "flush" installs level 1.
        let out1 = flush(&listener, 1, vec![record("a", 2, "va"), record("b", 1, "vb")]);
        // Now compact level 1 → 2, replaying the honest level-1 records.
        let mut job = listener.job(&[1, 2], 2);
        feed(&mut job, 1, &out1);
        write(&mut job, out1.clone(), &[]);
        job.finish();
        job.install();
        assert!(!trusted.is_poisoned());
        assert!(trusted.commitment(1).is_empty(), "input level emptied");
        assert!(!trusted.commitment(2).is_empty());
    }

    #[test]
    fn tampered_input_poisons_store() {
        let (listener, trusted) = setup();
        let out1 = flush(&listener, 1, vec![record("a", 2, "va"), record("b", 1, "vb")]);
        // Adversary feeds a modified record stream into the compaction.
        let mut tampered = out1.clone();
        tampered[0] = record("a", 2, "EVIL");
        let mut job = listener.job(&[1, 2], 2);
        feed(&mut job, 1, &tampered);
        write(&mut job, tampered, &[]);
        job.finish();
        assert!(trusted.is_poisoned(), "input digest mismatch must poison");
    }

    #[test]
    fn hidden_input_level_poisons_store() {
        let (listener, trusted) = setup();
        flush(&listener, 1, vec![record("a", 2, "va")]);
        // The host claims to compact level 1 but streams none of its
        // records — the silent-drop attack.
        let mut job = listener.job(&[1, 2], 2);
        write(&mut job, Vec::new(), &[]);
        job.finish();
        assert!(trusted.is_poisoned(), "hiding a non-empty input level must poison");
    }

    /// A malformed envelope among a job's outputs poisons the store and is
    /// handed back untouched — it must not reach the proof-embedding loop,
    /// whose leaf positions assume every record entered the digest.
    #[test]
    fn malformed_output_record_poisons_without_panicking() {
        let (listener, trusted) = setup();
        let garbage =
            Record::put(Bytes::from_static(b"z"), Bytes::from_static(b"\x07not an envelope"), 9);
        let records = vec![record("a", 2, "va"), garbage.clone()];
        let mut job = listener.job(&[0], 1);
        let out = write(&mut job, records.clone(), &[]);
        assert!(trusted.is_poisoned());
        assert_eq!(out, records, "nothing is signed once an output failed to open");
        job.finish();
        job.install();
        assert!(trusted.commitment(1).is_empty(), "a poisoned job commits no level");
    }

    #[test]
    fn wal_digest_changes_per_append() {
        let (listener, trusted) = setup();
        let d0 = trusted.wal_digest();
        listener.on_wal_append_batch(&[record("k", 1, "v")]);
        let d1 = trusted.wal_digest();
        listener.on_wal_append_batch(&[record("k", 2, "v2")]);
        let d2 = trusted.wal_digest();
        assert_ne!(d0, d1);
        assert_ne!(d1, d2);
        // A value that is no envelope (a rewritten log, at replay) moves
        // the digest too: nothing enters the memtable unfolded.
        listener.on_wal_append_batch(&[Record::put(b"k".as_slice(), b"\x07raw".as_slice(), 3)]);
        assert_ne!(trusted.wal_digest(), d2);
    }

    /// The base follows the oldest live log: it moves to where the active
    /// log started when — and only when — a flush installs.
    #[test]
    fn wal_base_moves_when_a_flush_installs() {
        let (listener, trusted) = setup();
        listener.on_wal_append_batch(&[record("a", 1, "v")]);
        let at_rotation = trusted.wal_digest();
        listener.on_wal_rotate();
        listener.on_wal_append_batch(&[record("b", 2, "v")]);
        assert_eq!(trusted.wal_base(), Digest::ZERO, "the frozen log is still live");
        // A compaction's install leaves the logs alone.
        listener.job(&[1], 2).install();
        assert_eq!(trusted.wal_base(), Digest::ZERO);
        listener.job(&[0, 1], 1).install();
        assert_eq!(trusted.wal_base(), at_rotation);
        // Recovery restarts the chain there; replaying the live log's one
        // record arrives at the digest.
        let sealed = trusted.wal_digest();
        trusted.restore_wal_base(at_rotation);
        assert_eq!(trusted.wal_digest(), at_rotation);
        listener.on_wal_append_batch(&[record("b", 2, "v")]);
        assert_eq!(trusted.wal_digest(), sealed);
    }

    #[test]
    fn empty_output_clears_level() {
        let (listener, trusted) = setup();
        let out1 = flush(&listener, 1, vec![record("a", 1, "v")]);
        // A later compaction reads the level honestly but drops everything
        // (e.g. tombstone purge).
        let mut job = listener.job(&[1, 2], 2);
        feed(&mut job, 1, &out1);
        let out = write(&mut job, Vec::new(), &[]);
        assert!(out.is_empty());
        job.finish();
        job.install();
        assert!(!trusted.is_poisoned());
        assert!(trusted.commitment(2).is_empty());
        assert!(trusted.commitment(1).is_empty());
    }

    /// A merge that fails after pass 1 sealed its output tree (the host
    /// refused an output file, say) poisons the store, and reaches into no
    /// other job: what a sibling of its wave staged is the sibling's own.
    #[test]
    fn a_failed_job_poisons_and_leaves_its_siblings_alone() {
        let (listener, trusted) = setup();
        let level1 = flush(&listener, 1, vec![record("a", 2, "va"), record("b", 1, "vb")]);
        // A compaction streams its input, observes its output and seals ...
        let mut failing = listener.job(&[1, 2], 2);
        let from = feed(&mut failing, 1, &level1);
        for (r, at) in level1.iter().zip(from) {
            failing.observe(r.view(), at);
        }
        failing.seal();
        assert!(!holds_no_tree(&failing));
        // ... a sibling job of its wave finishes; then pass 2 fails.
        let mut sibling = listener.job(&[3], 3);
        write(&mut sibling, vec![record("z", 3, "vz")], &[]);
        sibling.finish();
        failing.fail();
        drop(failing);
        assert!(trusted.is_poisoned());
        sibling.install();
        assert_eq!(trusted.commitment(3).leaf_count, 1, "the sibling installs what it staged");
    }

    /// Incremental and full-rehash listeners must produce identical
    /// commitments and proofs — the mode changes what the enclave is
    /// *charged*, never what it commits to — and both carry every digest
    /// of a level compacted whole.
    #[test]
    fn incremental_mode_produces_identical_digests_for_less_work() {
        let records: Vec<Record> =
            (0..64).map(|i| record(&format!("key{i:03}"), i + 1, "value-payload")).collect();
        let mut outputs = Vec::new();
        let mut commitments = Vec::new();
        let mut hashed = Vec::new();
        for incremental in [false, true] {
            let platform = Platform::with_defaults();
            let telemetry = telemetry::Telemetry::disabled();
            let trusted = TrustedState::new(platform.clone(), 4);
            let listener =
                AuthListener::new(platform.clone(), trusted.clone(), incremental, None, &telemetry);
            let level1 = flush(&listener, 1, records.clone());
            let mut job = listener.job(&[1, 2], 2);
            let from = feed(&mut job, 1, &level1);
            let before = platform.stats().hash_blocks;
            let out = write(&mut job, level1, &from);
            hashed.push(platform.stats().hash_blocks - before);
            job.finish();
            job.install();
            assert!(!trusted.is_poisoned());
            assert_eq!(telemetry.counter("core.compaction.leaves_reused").value(), 64);
            outputs.push(out);
            commitments.push(trusted.commitment(2));
        }
        assert_eq!(outputs[0], outputs[1], "proof-carrying outputs must match");
        assert_eq!(commitments[0], commitments[1], "commitments must match");
        assert!(hashed[1] < hashed[0], "incremental mode must be charged less ({hashed:?})");
    }

    /// Value-log GC rewrites the middle version of a three-version chain.
    /// The two newest versions fold over a changed chain and are charged a
    /// rehash; only the oldest is charged a digest move — and the
    /// commitment is the digest of the records as stored.
    #[test]
    fn a_rewritten_version_changes_every_newer_one() {
        let platform = Platform::with_defaults();
        let (listener, trusted) = setup_on(platform.clone(), true);
        let chain = vec![record("k", 3, "v3"), record("k", 2, "v2"), record("k", 1, "v1")];
        let level1 = flush(&listener, 1, chain);
        let mut job = listener.job(&[1, 2], 2);
        let mut from = feed(&mut job, 1, &level1);
        let mut output = level1.clone();
        output[1] = record("k", 2, "re-homed");
        from[1] = None;
        let canonical = |r: &Record| {
            let mut out = Vec::new();
            append_canonical(r.view(), open_record(r.view(), 2).unwrap().value, &mut out);
            out
        };
        let (before, dram_before) = (platform.stats().hash_blocks, platform.stats().dram_bytes);
        let stored = write(&mut job, output.clone(), &from);
        let rehash: u64 = output[..2].iter().map(|r| canonical(r).len() as u64 / 64 + 1).sum();
        assert_eq!(platform.stats().hash_blocks - before, rehash, "the two newest are rehashed");
        job.finish();
        job.install();
        assert!(platform.stats().dram_bytes - dram_before >= 32, "the oldest is moved");
        let reference =
            LevelDigest::from_records(2, output.iter().map(|r| (&r.key[..], canonical(r))));
        assert_eq!(trusted.commitment(2), reference.commitment());
        assert!(!trusted.is_poisoned());
        for (version, r) in stored.iter().enumerate() {
            let proof = open_record(r.view(), 2).unwrap().proof.unwrap().to_owned();
            assert_eq!(proof, reference.prove_version(0, version));
        }
    }

    /// The state sealed into a manifest unseals against that manifest's
    /// bytes, restarting the WAL chain at the sealed base — and against no
    /// other manifest's.
    #[test]
    fn sealed_state_is_bound_to_its_manifest() {
        let (listener, trusted) = setup();
        listener.on_wal_append_batch(&[record("a", 1, "va")]);
        listener.on_wal_rotate();
        listener.on_wal_append_batch(&[record("b", 2, "vb")]);
        flush(&listener, 1, vec![record("a", 1, "va")]);
        assert_ne!(trusted.wal_base(), Digest::ZERO);
        let sealed = listener.manifest_state(b"manifest body");

        let (restarted, after) = setup();
        restarted.recover_manifest_state(b"manifest bodY", &sealed);
        assert!(matches!(restarted.take_recovered(), Some(Err(VerificationFailure::SealBroken))));
        restarted.recover_manifest_state(b"manifest body", &sealed);
        let state = restarted.take_recovered().unwrap().unwrap();
        assert!(restarted.take_recovered().is_none(), "taken once");
        assert_eq!(state.commitments, trusted.commitments());
        assert_eq!((state.wal_base, state.wal_digest), (trusted.wal_base(), trusted.wal_digest()));
        assert_eq!(after.wal_digest(), trusted.wal_base(), "the replay starts at the base");
    }

    /// The sealed state's decoder, on plaintext (what a host that forged a
    /// sealing key, or found a bug in the seal, could present): any edit of
    /// an honest encoding — half of them with the commitment count forged —
    /// decodes or not without panic, reserves no more than a constant times
    /// its input, and an accepted state re-encodes to the input itself.
    #[test]
    fn sealed_state_decodes_in_bounds() {
        let state = |n: u32, shard| SealedState {
            commitments: (0..n)
                .map(|level| LevelCommitment {
                    level,
                    root: Digest::from_bytes([level as u8; 32]),
                    leaf_count: u64::from(level) * 7,
                })
                .collect(),
            wal_base: Digest::from_bytes([0xb0; 32]),
            wal_digest: Digest::from_bytes([0xd0; 32]),
            shard,
        };
        let encodings: Vec<Vec<u8>> = [(0, None), (1, Some(3)), (5, None), (7, Some(0))]
            .map(|(n, s)| encode_state(&state(n, s)))
            .into();
        // A 64-bit LCG (MMIX constants).
        let mut seed = 0x5ea1_ed00u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 16
        };
        for (i, base) in encodings.iter().enumerate() {
            let again = decode_state(base).map(|decoded| encode_state(&decoded));
            assert_eq!(again.as_ref(), Some(base), "an honest state round-trips");
            assert!(decode_state(&[&base[..], &[0]].concat()).is_none(), "trailing bytes");
            let other = &encodings[(i + 1) % encodings.len()];
            for _ in 0..2000 {
                let mut buf = base.clone();
                let at = next() as usize % buf.len();
                match next() % 5 {
                    0 => buf[at] = next() as u8,
                    1 => buf.truncate(at),
                    2 => buf.extend_from_slice(&other[..at.min(other.len())]),
                    3 => buf
                        .splice(at.., other[at.min(other.len())..].iter().copied())
                        .for_each(drop),
                    _ => buf[at..(at + 4).min(base.len())].fill(0xff),
                }
                if next() % 2 == 0 && buf.len() >= 4 {
                    let forged = u32::MAX >> (next() % 32);
                    buf[..4].copy_from_slice(&forged.to_le_bytes());
                }
                let Some(decoded) = decode_state(&buf) else { continue };
                let reserved = decoded.commitments.capacity() * size_of::<LevelCommitment>();
                assert!(reserved <= 2 * buf.len(), "{reserved} B for {} B", buf.len());
                assert_eq!(encode_state(&decoded), buf, "an accepted state is its encoding");
            }
        }
    }
}
