//! The authenticated-compaction listener: eLSM as a store add-on.
//!
//! This is the paper's Figure 4 realized through `lsm-store`'s RocksDB-style
//! callbacks, with **zero changes** to the storage engine:
//!
//! * `on_compaction_input` ↔ `auth_filter`: rebuilds each input level's
//!   Merkle tree incrementally (`MHT_add`), folding each key's chain as the
//!   next key arrives,
//! * `begin_output` ↔ `auth_onTableFileCreated`, in the two passes a
//!   proof forces: the observer builds the output level's digest from the
//!   merge's surviving records as they stream by — a record whose chain
//!   below it is the one its input level had takes that level's chain
//!   digest over, every other record is hashed — then seals into the
//!   writer that appends `envelope ‖ proof` for each record straight into
//!   the table block being built — no output record is ever materialised,
//! * `on_compaction_end` (merging thread, possibly a scheduler worker):
//!   checks the rebuilt input roots against the enclave's commitments and
//!   **stages** the job's [`CompactionDelta`] — the output commitment with
//!   the crown (top rows) of the tree just built, which is dropped here:
//!   every proof it can give is in the records by now — keyed by output
//!   level: a parallel wave's jobs never share a level, so staging is
//!   race-free and the expensive digest work overlaps across jobs,
//! * `on_compaction_install` (store write lock, deterministic job order):
//!   folds the staged delta into the enclave's *working* vector
//!   ([`TrustedState::apply_compaction_delta`]) — O(levels-in-job), not a
//!   full recompute,
//! * `on_version_install`: publishes the working commitments as
//!   the immutable snapshot for the installing version's epoch — the
//!   §5.5.2 root replacement, made atomic by versioning instead of a
//!   store-wide mutex,
//! * `on_versions_retired`: prunes snapshots whose readers drained,
//! * `on_wal_append_batch`: maintains the in-enclave WAL digest (step w1);
//!   `on_wal_rotate` and a flush's install keep the chain value the oldest
//!   live log starts from, which recovery folds the logs from.

use std::collections::HashMap;
use std::sync::Arc;

use lsm_store::{
    CompactionInfo, InputPosition, OutputObserver, OutputWriter, Record, RecordSource, RecordView,
    StoreListener, Verbatim,
};
use merkle::{Folded, LevelDigest, LevelDigestBuilder};
use parking_lot::Mutex;
use sgx_sim::Platform;

use crate::cache::VerifiedCache;
use crate::envelope::{append_canonical, append_with_proof, open_record, wrap_plain};
use crate::trusted::{CompactionDelta, TrustedState};

#[derive(Debug, Default)]
struct Scratch {
    /// Input-tree builders keyed by source level. Concurrent jobs of a
    /// wave never share a level, so per-level keying is race-free. While
    /// a job's output is observed (pass 1) its observer holds the builders
    /// of the levels its records were read from.
    input_builders: HashMap<u32, LevelDigestBuilder>,
    /// Output digests built by the output observer, keyed by output
    /// level, consumed by `on_compaction_end` (the proof writer of the
    /// same job shares the tree until its last table is written).
    pending_outputs: HashMap<usize, Arc<LevelDigest>>,
    /// Deltas staged by `on_compaction_end`, keyed by output level and
    /// committed at install (under the store's write lock, in job order).
    staged: HashMap<usize, CompactionDelta>,
    /// Reused buffer for an input record's canonical bytes (the builders
    /// copy out of it).
    canonical: Vec<u8>,
}

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
    scratch: Mutex<Scratch>,
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
            scratch: Mutex::new(Scratch::default()),
        })
    }
}

/// Pass 1 of a job's output: the output level's digest, built from the
/// surviving records as the merge hands them over. Each record offers the
/// digest builder what its input level folded for it; the builder takes it
/// over where the record's chain below it is unchanged, and hashes the
/// rest — so a merge hashes each stored record once, as an input.
struct OutputDigest<'a> {
    listener: &'a AuthListener,
    output_level: usize,
    builder: LevelDigestBuilder,
    /// Builders of the input levels this job's records were read from,
    /// taken out of the scratch for pass 1 (`None`: the level has no
    /// builder — the memtable never has one).
    inputs: Vec<(usize, Option<LevelDigestBuilder>)>,
    /// Reused buffer for a record's canonical bytes.
    canonical: Vec<u8>,
    /// The key of the chain being observed, and what is charged for it.
    chain_key: Vec<u8>,
    chain: Vec<Observed>,
    /// An output record's envelope did not open: nothing this job produces
    /// may be signed.
    refused: bool,
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

impl OutputDigest<'_> {
    /// What input level `at.level` folded for its record `at.ordinal`. The
    /// level's builder leaves the scratch the first time it is asked for:
    /// the merge has read every input by now, so its last chain can fold.
    fn folded(&mut self, at: InputPosition) -> Option<(usize, Folded)> {
        let i = match self.inputs.iter().position(|(level, _)| *level == at.level) {
            Some(i) => i,
            None => {
                let builder = u32::try_from(at.level)
                    .ok()
                    .and_then(|level| self.listener.scratch.lock().input_builders.remove(&level))
                    .map(|mut builder| {
                        builder.end_chain();
                        builder
                    });
                self.inputs.push((at.level, builder));
                self.inputs.len() - 1
            }
        };
        let folded = self.inputs[i].1.as_ref()?.folded(at.ordinal)?;
        Some((at.level, folded))
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

impl OutputObserver for OutputDigest<'_> {
    fn observe(&mut self, record: RecordView<'_>, from: Option<InputPosition>) {
        if self.refused {
            return;
        }
        // Trusted-side work on a flush/compaction worker thread: attribute
        // the hashing to the enclave in the platform's time split.
        let _world = sgx_sim::enclave_scope();
        let Ok(opened) = open_record(record, self.output_level as u32) else {
            // A malformed envelope among the outputs. The records are
            // stored as they are; with no pending digest
            // `on_compaction_end` clears the level instead of committing
            // it.
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
        self.builder.add_carried(record.key, &self.canonical, folded.map(|(_, f)| f));
        self.chain.push(Observed { len: self.canonical.len(), rewritten: from.is_none(), folded });
    }

    fn seal<'a>(mut self: Box<Self>) -> Box<dyn OutputWriter + 'a>
    where
        Self: 'a,
    {
        if !self.refused {
            let _world = sgx_sim::enclave_scope();
            self.charge_chain();
            self.builder.end_chain();
        }
        let OutputDigest { listener, output_level, builder, inputs, refused, .. } = *self;
        // Pass 1 is over: the input builders go back for the root check.
        let returned = inputs.into_iter().filter_map(|(level, b)| Some((level as u32, b?)));
        listener.scratch.lock().input_builders.extend(returned);
        if refused {
            return Box::new(Verbatim);
        }
        listener.leaves_reused.add(builder.links_carried());
        listener.links_hashed.add(builder.links_hashed());
        let digest = Arc::new(builder.finish());
        listener.scratch.lock().pending_outputs.insert(output_level, digest.clone());
        Box::new(ProofWriter { platform: &listener.platform, digest, leaf_idx: 0, version_idx: 0 })
    }
}

/// Pass 2 of a job's output: embeds a fresh proof in every output record
/// (`auth_onTableFileCreated`), in the order pass 1 saw them.
struct ProofWriter<'a> {
    platform: &'a Platform,
    digest: Arc<LevelDigest>,
    /// Position of the next record: leaf (distinct key) and version
    /// within the leaf's chain.
    leaf_idx: usize,
    version_idx: usize,
}

impl OutputWriter for ProofWriter<'_> {
    fn write_value(&mut self, record: RecordView<'_>, out: &mut Vec<u8>) {
        let _world = sgx_sim::enclave_scope();
        let (leaf_idx, version_idx) = (self.leaf_idx, self.version_idx);
        self.version_idx += 1;
        if self.version_idx == self.digest.chain_len(leaf_idx) {
            self.leaf_idx += 1;
            self.version_idx = 0;
        }
        let opened = crate::envelope::open(record.value).expect("opened when it was observed");
        // Proof material was already hashed while building the tree;
        // serialization is a plain memory copy, written once, straight
        // after the value into the table block.
        self.platform.dram_access(self.digest.proof_encoded_len(leaf_idx, version_idx));
        append_with_proof(out, opened.value, |buf| {
            self.digest.encode_proof_into(leaf_idx, version_idx, buf)
        });
    }
}

impl StoreListener for AuthListener {
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

    fn on_compaction_input(&self, source: RecordSource, record: RecordView<'_>) {
        // Rebuild the source level's tree from the streamed records
        // (Figure 4, auth_filter → MHT_add on the input trees).
        let _world = sgx_sim::enclave_scope();
        let level = source.level as u32;
        let mut scratch = self.scratch.lock();
        let Scratch { input_builders, canonical, .. } = &mut *scratch;
        canonical.clear();
        match open_record(record, level) {
            Ok(opened) => {
                append_canonical(record, opened.value, canonical);
                self.platform.charge_hash(canonical.len());
            }
            Err(_) => {
                // Malformed envelope in an input: the level can never
                // match. The record still takes its place in the level's
                // stream, so the positions of the records after it hold.
                self.trusted.poison();
                append_canonical(record, record.value, canonical);
            }
        }
        input_builders
            .entry(level)
            .or_insert_with(|| LevelDigestBuilder::new(level))
            .add(record.key, canonical);
    }

    fn begin_output(&self, output_level: usize) -> Box<dyn OutputObserver + '_> {
        Box::new(OutputDigest {
            listener: self,
            output_level,
            builder: LevelDigestBuilder::new(output_level as u32),
            inputs: Vec::new(),
            canonical: Vec::new(),
            chain_key: Vec::new(),
            chain: Vec::new(),
            refused: false,
        })
    }

    fn on_compaction_end(&self, info: &CompactionInfo) {
        let _world = sgx_sim::enclave_scope();
        let mut scratch = self.scratch.lock();
        // 1. Verify every input level's rebuilt root against the enclave
        //    commitment (Figure 4 lines 31-33). A missing builder is only
        //    legal when the enclave also believes the level is empty —
        //    otherwise the host hid an input level's records.
        for &level in &info.input_levels {
            if level == 0 {
                continue; // memtable: trusted enclave memory
            }
            let level = level as u32;
            match scratch.input_builders.remove(&level) {
                Some(mut builder) => {
                    builder.end_chain();
                    self.links_hashed.add(builder.links_hashed());
                    let rebuilt = builder.finish().commitment();
                    if rebuilt != self.trusted.commitment(level) {
                        self.trusted.poison();
                    }
                }
                None => {
                    if !self.trusted.commitment(level).is_empty() {
                        self.trusted.poison();
                    }
                }
            }
        }
        // 2. Stage the job's delta. Refuse to sign when poisoned (the
        //    paper's "if the equality check passes, the Merkle root hash
        //    for the output file takes effect").
        let output_level = info.output_level as u32;
        let mut delta = CompactionDelta::default();
        match scratch.pending_outputs.remove(&info.output_level) {
            Some(digest) if !self.trusted.is_poisoned() && digest.leaf_count() > 0 => {
                // Root, leaf count and crown are read off the one tree the
                // transform built inside the enclave; the tree goes.
                let crown = digest.crown(self.trusted.crown_row_max());
                delta.runs_added.push((digest.commitment(), crown));
            }
            _ => delta.runs_removed.push(output_level),
        }
        for &level in &info.input_levels {
            if level >= 1 && level != info.output_level {
                delta.runs_removed.push(level as u32);
            }
        }
        scratch.staged.insert(info.output_level, delta);
    }

    fn on_merge_failed(&self) {
        // The host served an input that does not decode, or refused an
        // output file: refuse service. What the job left behind goes too —
        // part-built input trees (a retry streams its levels from the
        // start), an output tree sealed before pass 2 failed, a delta that
        // will never install. (A wave's other jobs lose theirs as well and
        // fail their root check, in a store that is poisoned already.)
        self.trusted.poison();
        let mut scratch = self.scratch.lock();
        scratch.input_builders.clear();
        scratch.pending_outputs.clear();
        scratch.staged.clear();
    }

    fn on_compaction_install(&self, info: &CompactionInfo) {
        let _world = sgx_sim::enclave_scope();
        if info.input_levels.contains(&0) {
            // A flush: the log that covered the frozen memtable goes.
            self.trusted.wal_truncated();
        }
        // Commit under the store's write lock, in deterministic job
        // order: the incremental delta fold replaces the full recompute.
        if let Some(delta) = self.scratch.lock().staged.remove(&info.output_level) {
            self.trusted.apply_compaction_delta(delta);
        }
    }

    fn on_version_install(&self, epoch: u64) {
        self.trusted.publish_epoch(epoch);
    }

    fn on_versions_retired(&self, live_epochs: &[u64]) {
        self.trusted.prune_epochs(live_epochs);
    }
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
    use elsm_crypto::Digest;

    fn record(key: &str, ts: u64, value: &str) -> Record {
        Record::put(Bytes::copy_from_slice(key.as_bytes()), wrap_plain(value.as_bytes()), ts)
    }

    fn info(input_levels: Vec<usize>, output_level: usize, records: u64) -> CompactionInfo {
        CompactionInfo {
            input_levels,
            output_level,
            input_records: records,
            output_records: records,
            output_files: if records > 0 { vec![1] } else { vec![] },
        }
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

    /// Whether the listener holds nothing of any job: no part-built input
    /// tree, no output tree, no staged delta.
    fn holds_nothing(listener: &AuthListener) -> bool {
        let scratch = listener.scratch.lock();
        scratch.input_builders.is_empty()
            && scratch.pending_outputs.is_empty()
            && scratch.staged.is_empty()
    }

    /// Drives the output seam the way a merge does: every record observed,
    /// then every stored value written. `from` may be shorter than
    /// `records` (a missing position reads as a memtable record).
    fn transform_from(
        listener: &AuthListener,
        output_level: usize,
        records: Vec<Record>,
        from: &[Option<InputPosition>],
    ) -> Vec<Record> {
        let mut observer = listener.begin_output(output_level);
        for (i, r) in records.iter().enumerate() {
            let memtable = Some(InputPosition { level: 0, ordinal: i });
            observer.observe(r.view(), from.get(i).copied().unwrap_or(memtable));
        }
        let mut writer = observer.seal();
        records
            .iter()
            .map(|r| {
                let mut stored = Vec::new();
                writer.write_value(r.view(), &mut stored);
                Record { value: Bytes::from(stored), ..r.clone() }
            })
            .collect()
    }

    fn transform(
        listener: &AuthListener,
        output_level: usize,
        records: Vec<Record>,
    ) -> Vec<Record> {
        transform_from(listener, output_level, records, &[])
    }

    /// Runs the end→install pair the way the store does.
    fn finish(listener: &AuthListener, info: &CompactionInfo) {
        listener.on_compaction_end(info);
        listener.on_compaction_install(info);
    }

    #[test]
    fn flush_installs_level_commitment() {
        let (listener, trusted) = setup();
        let records = vec![record("a", 2, "va"), record("b", 1, "vb")];
        let out = transform(&listener, 1, records);
        finish(&listener, &info(vec![0], 1, 2));
        assert!(!trusted.commitment(1).is_empty());
        assert_eq!(trusted.commitment(1).leaf_count, 2);
        assert!(holds_nothing(&listener), "the output tree went with the job");
        // Output records now carry proofs.
        for r in &out {
            assert!(open_record(r.view(), 1).unwrap().proof.is_some());
        }
        assert!(!trusted.is_poisoned());
    }

    #[test]
    fn staged_delta_commits_only_at_install() {
        let (listener, trusted) = setup();
        transform(&listener, 1, vec![record("a", 2, "va")]);
        let job = info(vec![0], 1, 1);
        listener.on_compaction_end(&job);
        // Merge done, not yet installed: readers still see the old state,
        // and the output tree is gone already — only its delta waits.
        assert!(trusted.commitment(1).is_empty());
        assert!(listener.scratch.lock().pending_outputs.is_empty());
        listener.on_compaction_install(&job);
        assert!(!trusted.commitment(1).is_empty());
        assert!(holds_nothing(&listener));
    }

    #[test]
    fn matching_input_roots_keep_store_healthy() {
        let (listener, trusted) = setup();
        // First "flush" installs level 1.
        let out1 = transform(&listener, 1, vec![record("a", 2, "va"), record("b", 1, "vb")]);
        finish(&listener, &info(vec![0], 1, 2));
        // Now compact level 1 → 2, replaying the honest level-1 records.
        for r in &out1 {
            listener.on_compaction_input(RecordSource { level: 1, file_no: 1 }, r.view());
        }
        let _out2 = transform(&listener, 2, out1.clone());
        finish(&listener, &info(vec![1, 2], 2, 2));
        assert!(!trusted.is_poisoned());
        assert!(trusted.commitment(1).is_empty(), "input level emptied");
        assert!(!trusted.commitment(2).is_empty());
    }

    #[test]
    fn tampered_input_poisons_store() {
        let (listener, trusted) = setup();
        let out1 = transform(&listener, 1, vec![record("a", 2, "va"), record("b", 1, "vb")]);
        finish(&listener, &info(vec![0], 1, 2));
        // Adversary feeds a modified record stream into the compaction.
        let mut tampered = out1.clone();
        tampered[0] = record("a", 2, "EVIL");
        for r in &tampered {
            listener.on_compaction_input(RecordSource { level: 1, file_no: 1 }, r.view());
        }
        transform(&listener, 2, tampered);
        listener.on_compaction_end(&info(vec![1, 2], 2, 2));
        assert!(trusted.is_poisoned(), "input digest mismatch must poison");
    }

    #[test]
    fn hidden_input_level_poisons_store() {
        let (listener, trusted) = setup();
        transform(&listener, 1, vec![record("a", 2, "va")]);
        finish(&listener, &info(vec![0], 1, 1));
        // The host claims to compact level 1 but streams none of its
        // records — the silent-drop attack.
        transform(&listener, 2, Vec::new());
        listener.on_compaction_end(&info(vec![1, 2], 2, 0));
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
        let out = transform(&listener, 1, records.clone());
        assert!(trusted.is_poisoned());
        assert_eq!(out, records, "nothing is signed once an output failed to open");
        finish(&listener, &info(vec![0], 1, 2));
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
        listener.on_compaction_install(&info(vec![1], 2, 0));
        assert_eq!(trusted.wal_base(), Digest::ZERO);
        listener.on_compaction_install(&info(vec![0, 1], 1, 0));
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
        let out1 = transform(&listener, 1, vec![record("a", 1, "v")]);
        finish(&listener, &info(vec![0], 1, 1));
        // A later compaction reads the level honestly but drops everything
        // (e.g. tombstone purge).
        for r in &out1 {
            listener.on_compaction_input(RecordSource { level: 1, file_no: 1 }, r.view());
        }
        let out = transform(&listener, 2, Vec::new());
        assert!(out.is_empty());
        finish(
            &listener,
            &CompactionInfo {
                input_levels: vec![1, 2],
                output_level: 2,
                input_records: 1,
                output_records: 0,
                output_files: vec![],
            },
        );
        assert!(!trusted.is_poisoned());
        assert!(trusted.commitment(2).is_empty());
        assert!(trusted.commitment(1).is_empty());
    }

    /// A merge that fails after pass 1 sealed its output tree (the host
    /// refused an output file, say) leaves nothing resident: a poisoned
    /// store lives on, and would otherwise carry a whole level's tree.
    #[test]
    fn failed_merge_lets_go_of_everything() {
        let (listener, trusted) = setup();
        let level1 = transform(&listener, 1, vec![record("a", 2, "va"), record("b", 1, "vb")]);
        finish(&listener, &info(vec![0], 1, 2));
        // A compaction streams its input, observes its output and seals ...
        for r in &level1 {
            listener.on_compaction_input(RecordSource { level: 1, file_no: 1 }, r.view());
        }
        let mut observer = listener.begin_output(2);
        for (ordinal, r) in level1.iter().enumerate() {
            observer.observe(r.view(), Some(InputPosition { level: 1, ordinal }));
        }
        let writer = observer.seal();
        assert!(!holds_nothing(&listener));
        // ... a sibling job of its wave has staged its delta; then pass 2
        // fails.
        transform(&listener, 3, vec![record("z", 3, "vz")]);
        listener.on_compaction_end(&info(vec![3], 3, 1));
        drop(writer);
        listener.on_merge_failed();
        assert!(trusted.is_poisoned());
        assert!(holds_nothing(&listener));
    }

    /// Streams `level`'s stored records into a compaction as its input.
    fn feed(
        listener: &AuthListener,
        level: usize,
        records: &[Record],
    ) -> Vec<Option<InputPosition>> {
        let source = RecordSource { level, file_no: level as u64 };
        for r in records {
            listener.on_compaction_input(source, r.view());
        }
        (0..records.len()).map(|ordinal| Some(InputPosition { level, ordinal })).collect()
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
            let level1 = transform(&listener, 1, records.clone());
            finish(&listener, &info(vec![0], 1, 64));
            let from = feed(&listener, 1, &level1);
            let before = platform.stats().hash_blocks;
            let out = transform_from(&listener, 2, level1, &from);
            hashed.push(platform.stats().hash_blocks - before);
            finish(&listener, &info(vec![1, 2], 2, 64));
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
        let level1 = transform(&listener, 1, chain);
        finish(&listener, &info(vec![0], 1, 3));
        let mut from = feed(&listener, 1, &level1);
        let mut output = level1.clone();
        output[1] = record("k", 2, "re-homed");
        from[1] = None;
        let canonical = |r: &Record| {
            let mut out = Vec::new();
            append_canonical(r.view(), open_record(r.view(), 2).unwrap().value, &mut out);
            out
        };
        let (before, dram_before) = (platform.stats().hash_blocks, platform.stats().dram_bytes);
        let stored = transform_from(&listener, 2, output.clone(), &from);
        let rehash: u64 = output[..2].iter().map(|r| canonical(r).len() as u64 / 64 + 1).sum();
        assert_eq!(platform.stats().hash_blocks - before, rehash, "the two newest are rehashed");
        finish(&listener, &info(vec![1, 2], 2, 3));
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
}
