//! The enclave-resident trusted state and the VRFY algorithms (§5.3).
//!
//! [`TrustedState`] holds exactly what the paper keeps inside the enclave:
//! one Merkle commitment per LSM level (root + leaf count), the running
//! WAL digest, and the poisoned flag set when a compaction's inputs fail
//! digest verification.
//!
//! # Epoch-versioned commitments
//!
//! The paper's §5.5.2 serializes reads against compaction installs with a
//! mutex. This implementation keeps the *guarantee* — a trace is always
//! verified against the exact commitments it was collected under — without
//! the lock: every store version install publishes an immutable snapshot
//! of the commitment vector tagged with the version's **epoch**
//! ([`TrustedState::publish_epoch`]), and [`TrustedState::verify_get`] /
//! [`TrustedState::verify_scan`] look the snapshot up by the trace's
//! epoch. Snapshots are pruned once their readers drain
//! ([`TrustedState::prune_epochs`]); a trace naming an unknown epoch is
//! rejected ([`VerificationFailure::UnknownEpoch`]), so the host cannot
//! replay arbitrarily old views.
//!
//! [`TrustedState::verify_get`] implements the GET verification of
//! Theorem 5.3: membership + freshness at the hit level, non-membership at
//! every earlier level, early stop justified by Lemma 5.4.
//! [`TrustedState::verify_scan`] implements the §5.4 range completeness
//! check using segment-tree range proofs.
//!
//! # Version chains
//!
//! Only the newest version of a key at a level (the chain head) stores an
//! audit path; every older version stores a fixed-size chain link
//! ([`merkle::proof`]). Three rules follow, one place each:
//!
//! * a GET answered with a link is a stale answer *by its own claim* —
//!   rejected before anything is hashed; the same record relabelled as a
//!   head fails its audit path (`verify_hit`);
//! * a scan presents every version of every in-range key, so after a
//!   key's head the older versions are walked down the chain, one hash
//!   each ([`merkle::ChainWalk`]): the accepted versions are a prefix of
//!   the committed chain, in order (`verify_level_range`);
//! * a non-membership neighbour or a range boundary must be a chain head:
//!   a link offered as either is rejected (`verify_non_membership`,
//!   `leaf_from_record`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use elsm_crypto::{sha256_concat, Digest};
use lsm_store::{GetTrace, LevelOutcome, Record, ScanTrace};
use merkle::{verify_range, LevelCommitment, RangeProof, RecordProofRef};
use parking_lot::Mutex;
use sgx_sim::Platform;

use crate::envelope::{append_canonical, open_record, Opened};
use crate::error::VerificationFailure;

/// Supplies range proofs for a level — implemented by the untrusted host's
/// digest store ([`crate::digests::UntrustedDigests`]).
pub trait RangeProver {
    /// Produces the proof for leaves `lo..=hi` of `level` as of `epoch`,
    /// or `None` if the host cannot (treated as a completeness failure).
    fn prove_range(&self, epoch: u64, level: u32, lo: u64, hi: u64) -> Option<RangeProof>;
}

/// The commitment-vector mutation one compaction job induces, expressed
/// as a delta instead of a full recompute: the runs the job consumed
/// (their levels' commitments clear) and the runs it produced (their
/// commitments install). Applying the delta touches only the changed
/// slots of the working vector — O(levels-in-job) enclave work instead of
/// O(max-levels) — and is charged under its own serial class
/// ([`sgx_sim::SerialClass::DeltaFold`]) so concurrent jobs' folds
/// exclude each other without riding the store's maintenance section.
///
/// The resulting vector — and therefore every published
/// [`TrustedState::snapshot_digest`] — is **bit-identical** to the full
/// set/clear recompute path (pinned by a unit test).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionDelta {
    /// Levels whose runs the job consumed; their commitments clear.
    pub runs_removed: Vec<u32>,
    /// Commitments of the runs the job produced (installed after the
    /// removals, so a level appearing in both ends up installed).
    pub runs_added: Vec<LevelCommitment>,
}

impl CompactionDelta {
    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.runs_removed.is_empty() && self.runs_added.is_empty()
    }

    /// Number of commitment slots the delta touches.
    pub fn touched_levels(&self) -> usize {
        self.runs_removed.len() + self.runs_added.len()
    }
}

/// Counters describing verification work (proof-size ablations read these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Individual record proofs verified.
    pub proofs_verified: u64,
    /// Total serialized proof bytes inspected.
    pub proof_bytes: u64,
    /// Levels checked across all queries (proof-size proxy: the early stop
    /// keeps this small).
    pub levels_checked: u64,
}

/// What [`TrustedState::verify_get`] learned about the record a disk-level
/// hit answered with: where the application value sits inside the stored
/// value and how large its proof was. The caller assembles the reply from
/// this instead of opening the envelope a second time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedHit {
    /// Range of the bare application value within the hit record's stored
    /// value.
    pub value: std::ops::Range<usize>,
    /// Encoded size of the proof that was checked.
    pub proof_bytes: usize,
}

/// The commitment vector plus its epoch-tagged published snapshots.
#[derive(Debug)]
struct CommitmentStore {
    /// The working vector compactions mutate before their install.
    current: Vec<LevelCommitment>,
    /// Published snapshots, oldest first; verification reads these.
    epochs: VecDeque<(u64, Arc<[LevelCommitment]>)>,
}

/// Enclave-held state of an eLSM-P2 store.
#[derive(Debug)]
pub struct TrustedState {
    platform: Arc<Platform>,
    max_levels: usize,
    /// Shard this enclave's commitment domain is bound to (`None` for a
    /// standalone store). Folded into [`TrustedState::dataset_digest`], so
    /// the same data committed by two different shards yields two
    /// different domains — a host cannot swap one shard's state for
    /// another's.
    shard: Option<u32>,
    commitments: Mutex<CommitmentStore>,
    wal_digest: Mutex<Digest>,
    /// Stacked-run mode (compaction disabled): freshness order is highest
    /// level first, and GET traces arrive in that order.
    stacked: AtomicBool,
    poisoned: AtomicBool,
    proofs_verified: AtomicU64,
    proof_bytes: AtomicU64,
    levels_checked: AtomicU64,
}

impl TrustedState {
    /// Fresh state with empty commitments for levels `1..=max_levels`,
    /// published as the snapshot for epoch 0.
    pub fn new(platform: Arc<Platform>, max_levels: usize) -> Arc<Self> {
        Self::new_in_domain(platform, max_levels, None)
    }

    /// Fresh state whose commitment domain is bound to `shard` (see the
    /// `shard` field); `None` gives the standalone domain of
    /// [`TrustedState::new`].
    pub fn new_in_domain(
        platform: Arc<Platform>,
        max_levels: usize,
        shard: Option<u32>,
    ) -> Arc<Self> {
        let current: Vec<LevelCommitment> =
            (0..=max_levels as u32).map(LevelCommitment::empty).collect();
        let mut epochs = VecDeque::new();
        epochs.push_back((0, Arc::from(current.as_slice())));
        Arc::new(TrustedState {
            platform,
            max_levels,
            shard,
            commitments: Mutex::new(CommitmentStore { current, epochs }),
            wal_digest: Mutex::new(Digest::ZERO),
            stacked: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            proofs_verified: AtomicU64::new(0),
            proof_bytes: AtomicU64::new(0),
            levels_checked: AtomicU64::new(0),
        })
    }

    /// Number of on-disk levels currently tracked (grows when the store
    /// stacks runs with compaction disabled).
    pub fn max_levels(&self) -> usize {
        self.commitments.lock().current.len().saturating_sub(1).max(self.max_levels)
    }

    /// The *working* commitment for `level` (empty for levels never
    /// installed). Compaction input checks read this; trace verification
    /// reads epoch snapshots instead.
    pub fn commitment(&self, level: u32) -> LevelCommitment {
        let c = self.commitments.lock();
        c.current.get(level as usize).copied().unwrap_or_else(|| LevelCommitment::empty(level))
    }

    /// Installs a commitment into the working vector (the
    /// compaction-completion ECall of §5.5.2), growing the level table if
    /// needed. It becomes visible to verification when the owning store
    /// version's epoch is published.
    pub fn set_commitment(&self, commitment: LevelCommitment) {
        let mut c = self.commitments.lock();
        Self::set_commitment_locked(&mut c, commitment);
    }

    /// Clears a level's commitment (its run was consumed by compaction).
    pub fn clear_commitment(&self, level: u32) {
        self.set_commitment(LevelCommitment::empty(level));
    }

    /// Folds one compaction job's [`CompactionDelta`] into the working
    /// vector: removals clear, then additions install — one lock
    /// acquisition, touching only the job's levels. The enclave work is
    /// charged per touched slot (a 32-byte root move each) under
    /// [`sgx_sim::SerialClass::DeltaFold`], the incremental-recomputation
    /// class, so concurrent jobs' folds serialize against each other but
    /// overlap with query verification and WAL folding.
    pub fn apply_compaction_delta(&self, delta: &CompactionDelta) {
        if delta.is_empty() {
            return;
        }
        let _serial = self.platform.serial_section(sgx_sim::SerialClass::DeltaFold);
        self.platform.charge_hash(32 * delta.touched_levels());
        let mut c = self.commitments.lock();
        for &level in &delta.runs_removed {
            Self::set_commitment_locked(&mut c, LevelCommitment::empty(level));
        }
        for commitment in &delta.runs_added {
            Self::set_commitment_locked(&mut c, *commitment);
        }
    }

    fn set_commitment_locked(c: &mut CommitmentStore, commitment: LevelCommitment) {
        let idx = commitment.level as usize;
        while c.current.len() <= idx {
            let next = c.current.len() as u32;
            c.current.push(LevelCommitment::empty(next));
        }
        c.current[idx] = commitment;
    }

    /// All working commitments (for sealing).
    pub fn commitments(&self) -> Vec<LevelCommitment> {
        self.commitments.lock().current.clone()
    }

    /// Restores commitments from sealed state, re-publishing the newest
    /// epoch snapshot so recovered traces verify against the restored
    /// roots.
    pub fn restore_commitments(&self, commitments: Vec<LevelCommitment>) {
        let mut c = self.commitments.lock();
        let snapshot: Arc<[LevelCommitment]> = Arc::from(commitments.as_slice());
        c.current = commitments;
        match c.epochs.back_mut() {
            Some(back) => back.1 = snapshot,
            None => c.epochs.push_back((0, snapshot)),
        }
    }

    /// Publishes the working commitment vector as the snapshot for
    /// `epoch` (called under the store's write lock, *before* the version
    /// becomes visible — no reader can name an epoch without a snapshot).
    pub fn publish_epoch(&self, epoch: u64) {
        let mut c = self.commitments.lock();
        let snapshot: Arc<[LevelCommitment]> = Arc::from(c.current.as_slice());
        match c.epochs.back_mut() {
            Some(back) if back.0 == epoch => back.1 = snapshot,
            _ => c.epochs.push_back((epoch, snapshot)),
        }
    }

    /// Drops snapshots for epochs no longer in the live set (their
    /// readers have drained) — interior drained epochs included, so one
    /// long-pinned old snapshot cannot make the history grow without
    /// bound. The newest snapshot always survives.
    pub fn prune_epochs(&self, live_epochs: &[u64]) {
        let mut c = self.commitments.lock();
        let newest = c.epochs.back().map(|(e, _)| *e);
        c.epochs.retain(|(e, _)| Some(*e) == newest || live_epochs.contains(e));
    }

    /// Number of epoch snapshots currently held (diagnostics/tests).
    pub fn epochs_tracked(&self) -> usize {
        self.commitments.lock().epochs.len()
    }

    /// The commitment snapshot published for `epoch`, if still held.
    fn commitments_at(&self, epoch: u64) -> Option<Arc<[LevelCommitment]>> {
        let c = self.commitments.lock();
        c.epochs.iter().find(|(e, _)| *e == epoch).map(|(_, s)| s.clone())
    }

    /// Digest over the commitment snapshot published for `epoch`, or
    /// `None` if that snapshot drained. This is what a version-install
    /// [`Announcement`](crate::replication::Announcement) binds: a
    /// replica that replayed the primary's frame stream honestly derives
    /// the same snapshot for the same epoch, so digest equality is the
    /// cross-check — and inequality is a fork. The shard binding is
    /// folded in, exactly as in [`TrustedState::dataset_digest`].
    pub fn snapshot_digest(&self, epoch: u64) -> Option<Digest> {
        let snapshot = self.commitments_at(epoch)?;
        let digests: Vec<Digest> = snapshot.iter().map(|c| c.digest()).collect();
        let shard_tag = self.shard.map(|id| id.to_le_bytes());
        let epoch_le = epoch.to_le_bytes();
        let mut parts: Vec<&[u8]> = vec![&[0x09], &epoch_le];
        if let Some(tag) = &shard_tag {
            parts.push(&[0x08]);
            parts.push(tag);
        }
        for d in &digests {
            parts.push(d.as_bytes());
        }
        self.platform.charge_hash(parts.iter().map(|p| p.len()).sum());
        Some(sha256_concat(&parts))
    }

    /// Folds a WAL append into the running digest (§5.3, step w1).
    pub fn absorb_wal(&self, record_bytes: &[u8]) {
        self.absorb_wal_batch(std::iter::once(record_bytes));
    }

    /// Folds a whole commit group into the running digest with one lock
    /// acquisition. The digest *value* — and the hashing work charged — is
    /// identical to folding record by record: batching changes who pays
    /// the synchronization, never what the enclave commits to, which is
    /// what keeps batched and singleton writes bit-for-bit comparable.
    ///
    /// The fold is charged to
    /// [`sgx_sim::SerialClass::TrustedFold`]: it happens off the store's
    /// write lock (the committer's leader ordering keeps it sequential),
    /// but concurrent writers' folds still exclude each other.
    pub fn absorb_wal_batch<'a>(&self, records: impl IntoIterator<Item = &'a [u8]>) {
        let _serial = self.platform.serial_section(sgx_sim::SerialClass::TrustedFold);
        let mut dig = self.wal_digest.lock();
        for record_bytes in records {
            // Each chain step is its own SHA-256 invocation with its own
            // finalization, exactly as in the singleton path.
            self.platform.charge_hash(record_bytes.len() + 32);
            *dig = sha256_concat(&[&[0x05], record_bytes, dig.as_bytes()]);
        }
    }

    /// Current WAL digest.
    pub fn wal_digest(&self) -> Digest {
        *self.wal_digest.lock()
    }

    /// Overwrites the WAL digest (recovery from sealed state).
    pub fn restore_wal_digest(&self, digest: Digest) {
        *self.wal_digest.lock() = digest;
    }

    /// The shard id this state's commitment domain is bound to, if any.
    pub fn shard_id(&self) -> Option<u32> {
        self.shard
    }

    /// Digest of the whole dataset: all level commitments plus the WAL
    /// digest — what the rollback counter binds (§5.6.1). A sharded
    /// domain additionally folds the shard id in, so identical data in
    /// two shards never shares a dataset digest.
    pub fn dataset_digest(&self) -> Digest {
        let commitments = self.commitments.lock();
        let digests: Vec<Digest> = commitments.current.iter().map(|c| c.digest()).collect();
        let wal = self.wal_digest.lock();
        let shard_tag = self.shard.map(|id| id.to_le_bytes());
        let mut parts: Vec<&[u8]> = vec![&[0x06]];
        if let Some(tag) = &shard_tag {
            parts.push(&[0x08]);
            parts.push(tag);
        }
        for d in &digests {
            parts.push(d.as_bytes());
        }
        parts.push(wal.as_bytes());
        self.platform.charge_hash(parts.iter().map(|p| p.len()).sum());
        sha256_concat(&parts)
    }

    /// Switches the verifier to stacked-run order (compaction disabled).
    pub fn set_stacked(&self, stacked: bool) {
        self.stacked.store(stacked, Ordering::SeqCst);
    }

    /// Whether stacked-run order is in effect.
    pub fn is_stacked(&self) -> bool {
        self.stacked.load(Ordering::SeqCst)
    }

    /// Marks the store poisoned: a compaction input failed verification.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// Whether authenticated service is refused.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Verification-work counters.
    pub fn verify_stats(&self) -> VerifyStats {
        VerifyStats {
            proofs_verified: self.proofs_verified.load(Ordering::Relaxed),
            proof_bytes: self.proof_bytes.load(Ordering::Relaxed),
            levels_checked: self.levels_checked.load(Ordering::Relaxed),
        }
    }

    fn count_proof(&self, proof: &RecordProofRef<'_>) {
        self.proofs_verified.fetch_add(1, Ordering::Relaxed);
        self.proof_bytes.fetch_add(proof.encoded_len() as u64, Ordering::Relaxed);
    }

    /// Verifies one chain-head proof against a level commitment, charging
    /// the hashing work. A link is not a head: it fails as
    /// [`merkle::VerifyError::NotChainHead`].
    fn check_proof(
        &self,
        commitment: &LevelCommitment,
        proof: &RecordProofRef<'_>,
        canonical: &[u8],
    ) -> Result<(), VerificationFailure> {
        self.platform.charge_hash(canonical.len() + 64 * proof.audit_path_len());
        self.count_proof(proof);
        proof
            .verify(commitment, canonical)
            .map_err(|source| VerificationFailure::ForgedRecord { level: commitment.level, source })
    }

    /// [`open_proved`], then checks the proof against `commitment`: what a
    /// non-membership neighbour must pass, so a neighbour is a chain head.
    fn open_and_check<'r>(
        &self,
        commitment: &LevelCommitment,
        record: &'r Record,
        canonical: &mut Vec<u8>,
    ) -> Result<RecordProofRef<'r>, VerificationFailure> {
        let (_, proof) = open_proved(commitment.level, record, canonical)?;
        self.check_proof(commitment, &proof, canonical)?;
        Ok(proof)
    }

    // ----- GET verification (Theorem 5.3) ---------------------------------

    /// Verifies a traced point query for `key` against the commitment
    /// snapshot of the trace's epoch. On success, says where the verified
    /// answer's value sits when a disk level supplied it (`None`: served
    /// from the memtable, or verified absent).
    ///
    /// # Errors
    ///
    /// Returns the [`VerificationFailure`] naming the attack detected.
    pub fn verify_get(
        &self,
        key: &[u8],
        trace: &GetTrace,
    ) -> Result<Option<VerifiedHit>, VerificationFailure> {
        if trace.memtable.is_some() {
            // Served from trusted enclave memory; nothing to verify.
            return Ok(None);
        }
        let snapshot = self
            .commitments_at(trace.epoch)
            .ok_or(VerificationFailure::UnknownEpoch { epoch: trace.epoch })?;
        let commitment_at = |level: u32| {
            snapshot.get(level as usize).copied().unwrap_or_else(|| LevelCommitment::empty(level))
        };
        let epoch_levels = snapshot.len().saturating_sub(1).max(self.max_levels);
        self.levels_checked.fetch_add(trace.levels.len() as u64, Ordering::Relaxed);
        // Expected search order: ascending with compaction (lower =
        // fresher, Lemma 5.4), descending in stacked-run mode (later run =
        // fresher).
        let stacked = self.is_stacked();
        let mut expected: i64 = if stacked { epoch_levels as i64 } else { 1 };
        let step: i64 = if stacked { -1 } else { 1 };
        let mut hit = None;
        // One buffer for every record's canonical bytes in this query.
        let mut canonical = Vec::new();
        for search in &trace.levels {
            if search.level as i64 != expected {
                return Err(VerificationFailure::LevelSkipped { expected: expected.max(0) as u32 });
            }
            if hit.is_some() {
                // Nothing may follow the hit level (early stop).
                return Err(VerificationFailure::LevelSkipped { expected: expected.max(0) as u32 });
            }
            let commitment = commitment_at(expected as u32);
            match &search.outcome {
                LevelOutcome::Empty => {
                    if !commitment.is_empty() {
                        return Err(VerificationFailure::HiddenLevel { level: expected as u32 });
                    }
                }
                LevelOutcome::Miss { left, right } => {
                    self.verify_non_membership(
                        &commitment,
                        key,
                        left.as_ref(),
                        right.as_ref(),
                        &mut canonical,
                    )?;
                }
                LevelOutcome::Hit(record) => {
                    hit = Some(self.verify_hit(&commitment, key, record, &mut canonical)?);
                }
            }
            expected += step;
        }
        let exhausted = if stacked { expected < 1 } else { expected as usize > epoch_levels };
        if hit.is_none() && !exhausted {
            // The store must account for every level when nothing is found.
            return Err(VerificationFailure::LevelSkipped { expected: expected.max(0) as u32 });
        }
        Ok(hit)
    }

    fn verify_hit(
        &self,
        commitment: &LevelCommitment,
        key: &[u8],
        record: &Record,
        canonical: &mut Vec<u8>,
    ) -> Result<VerifiedHit, VerificationFailure> {
        let level = commitment.level;
        if record.key != key {
            return Err(VerificationFailure::BadNonMembership {
                level,
                reason: "hit record key differs from query",
            });
        }
        let (opened, proof) = open_proved(level, record, canonical)?;
        // Freshness: the answer must be the newest version at its level
        // (the paper's ⟨Z,6⟩/⟨Z,7⟩ detection). A link says how many newer
        // versions it sits below, so it is stale by its own claim; had the
        // host relabelled it as the newest, the audit path below would not
        // reach the root.
        require_newest(level, &proof)?;
        self.check_proof(commitment, &proof, canonical)?;
        Ok(VerifiedHit { value: opened.value_range(), proof_bytes: proof.encoded_len() })
    }

    fn verify_non_membership(
        &self,
        commitment: &LevelCommitment,
        key: &[u8],
        left: Option<&Record>,
        right: Option<&Record>,
        canonical: &mut Vec<u8>,
    ) -> Result<(), VerificationFailure> {
        let level = commitment.level;
        if commitment.is_empty() {
            return if left.is_none() && right.is_none() {
                Ok(())
            } else {
                Err(VerificationFailure::BadNonMembership {
                    level,
                    reason: "neighbors presented for an empty level",
                })
            };
        }
        let left_proof = match left {
            Some(rec) => {
                if rec.key[..] >= *key {
                    return Err(VerificationFailure::BadNonMembership {
                        level,
                        reason: "left neighbor not below query key",
                    });
                }
                Some(self.open_and_check(commitment, rec, canonical)?)
            }
            None => None,
        };
        let right_proof = match right {
            Some(rec) => {
                if rec.key[..] <= *key {
                    return Err(VerificationFailure::BadNonMembership {
                        level,
                        reason: "right neighbor not above query key",
                    });
                }
                Some(self.open_and_check(commitment, rec, canonical)?)
            }
            None => None,
        };
        match (left_proof, right_proof) {
            (Some(l), Some(r)) => {
                if r.leaf_index != l.leaf_index + 1 {
                    return Err(VerificationFailure::BadNonMembership {
                        level,
                        reason: "neighbors are not adjacent leaves",
                    });
                }
            }
            (None, Some(r)) => {
                if r.leaf_index != 0 {
                    return Err(VerificationFailure::BadNonMembership {
                        level,
                        reason: "right neighbor is not the first leaf",
                    });
                }
            }
            (Some(l), None) => {
                if l.leaf_index + 1 != commitment.leaf_count {
                    return Err(VerificationFailure::BadNonMembership {
                        level,
                        reason: "left neighbor is not the last leaf",
                    });
                }
            }
            (None, None) => {
                return Err(VerificationFailure::BadNonMembership {
                    level,
                    reason: "no neighbors for a non-empty level",
                });
            }
        }
        Ok(())
    }

    // ----- SCAN verification (§5.4) ----------------------------------------

    /// Verifies a traced range query over `[from, to]`.
    ///
    /// # Errors
    ///
    /// Returns the [`VerificationFailure`] naming the attack detected.
    pub fn verify_scan(
        &self,
        from: &[u8],
        to: &[u8],
        trace: &ScanTrace,
        prover: &dyn RangeProver,
    ) -> Result<(), VerificationFailure> {
        let snapshot = self
            .commitments_at(trace.epoch)
            .ok_or(VerificationFailure::UnknownEpoch { epoch: trace.epoch })?;
        let epoch_levels = snapshot.len().saturating_sub(1).max(self.max_levels);
        let mut expected: u32 = 1;
        for range in &trace.levels {
            if range.level as u32 != expected {
                return Err(VerificationFailure::LevelSkipped { expected });
            }
            let commitment = snapshot
                .get(expected as usize)
                .copied()
                .unwrap_or_else(|| LevelCommitment::empty(expected));
            self.levels_checked.fetch_add(1, Ordering::Relaxed);
            if range.empty {
                if !commitment.is_empty() {
                    return Err(VerificationFailure::HiddenLevel { level: expected });
                }
                expected += 1;
                continue;
            }
            self.verify_level_range(&commitment, trace.epoch, from, to, range, prover)?;
            expected += 1;
        }
        if (expected as usize) <= epoch_levels {
            return Err(VerificationFailure::LevelSkipped { expected });
        }
        Ok(())
    }

    /// The leaf (chain head) a range-query record hashes to, charging the
    /// record's hash. The record must claim to be its key's newest version
    /// — in-range group heads and both boundaries alike; a link is stale by
    /// its own claim. The leaf's path to the root is the range proof's
    /// business, so the audit path is not walked here.
    fn leaf_from_record<'r>(
        &self,
        level: u32,
        record: &'r Record,
        canonical: &mut Vec<u8>,
    ) -> Result<(RecordProofRef<'r>, Digest), VerificationFailure> {
        let (_, proof) = open_proved(level, record, canonical)?;
        require_newest(level, &proof)?;
        self.platform.charge_hash(canonical.len());
        Ok((proof, proof.suffix_digest(canonical)))
    }

    fn verify_level_range(
        &self,
        commitment: &LevelCommitment,
        epoch: u64,
        from: &[u8],
        to: &[u8],
        range: &lsm_store::LevelRange,
        prover: &dyn RangeProver,
    ) -> Result<(), VerificationFailure> {
        let level = commitment.level;
        let fail = |reason: &'static str| VerificationFailure::IncompleteRange { level, reason };

        // Group in-range records by key; compute each group's leaf hash
        // from the newest version, then walk the older versions down its
        // chain. The range proof below authenticates the leaves, and with
        // them everything the walks accepted.
        let mut leaf_seq: Vec<(u64, Digest)> = Vec::new();
        let mut canonical = Vec::new();
        let mut idx = 0usize;
        while idx < range.records.len() {
            let newest = &range.records[idx];
            if newest.key[..] < *from || newest.key[..] > *to {
                return Err(fail("record outside the queried range"));
            }
            let (proof, leaf_hash) = self.leaf_from_record(level, newest, &mut canonical)?;
            if proof.leaf_count != commitment.leaf_count {
                return Err(fail("proof leaf count mismatch"));
            }
            leaf_seq.push((proof.leaf_index, leaf_hash));
            let mut walk = proof
                .walk()
                .map_err(|source| VerificationFailure::ForgedRecord { level, source })?;
            let mut j = idx + 1;
            while j < range.records.len() && range.records[j].key == newest.key {
                let older = &range.records[j];
                if older.ts >= range.records[j - 1].ts {
                    return Err(fail("versions not in descending timestamp order"));
                }
                let (_, link) = open_proved(level, older, &mut canonical)?;
                self.platform.charge_hash(canonical.len() + 32);
                self.count_proof(&link);
                walk.step(&link, &canonical)
                    .map_err(|source| VerificationFailure::ForgedRecord { level, source })?;
                j += 1;
            }
            if j < range.records.len() && range.records[j].key < newest.key {
                return Err(fail("records not in ascending key order"));
            }
            idx = j;
        }

        // Boundary neighbors extend the proven leaf run by one on each side.
        if let Some(rec) = &range.left {
            if rec.key[..] >= *from {
                return Err(fail("left boundary not below range"));
            }
            let (proof, leaf_hash) = self.leaf_from_record(level, rec, &mut canonical)?;
            leaf_seq.insert(0, (proof.leaf_index, leaf_hash));
        }
        if let Some(rec) = &range.right {
            if rec.key[..] <= *to {
                return Err(fail("right boundary not above range"));
            }
            let (proof, leaf_hash) = self.leaf_from_record(level, rec, &mut canonical)?;
            leaf_seq.push((proof.leaf_index, leaf_hash));
        }

        if leaf_seq.is_empty() {
            return Err(fail("no leaves presented for a non-empty level"));
        }
        // Leaf indices must be one consecutive run.
        for w in leaf_seq.windows(2) {
            if w[1].0 != w[0].0 + 1 {
                return Err(fail("leaf indices not consecutive"));
            }
        }
        let lo = leaf_seq[0].0;
        let hi = leaf_seq[leaf_seq.len() - 1].0;
        // Edges: no left boundary means the run starts at leaf 0; no right
        // boundary means it ends at the last leaf.
        if range.left.is_none() && lo != 0 {
            return Err(fail("range start not anchored at the first leaf"));
        }
        if range.right.is_none() && hi + 1 != commitment.leaf_count {
            return Err(fail("range end not anchored at the last leaf"));
        }
        let proof = prover
            .prove_range(epoch, level, lo, hi)
            .ok_or(fail("host failed to produce a range proof"))?;
        let leaves: Vec<Digest> = leaf_seq.iter().map(|(_, d)| *d).collect();
        self.platform.charge_hash(64 * (leaves.len() + proof.len()));
        if !verify_range(
            commitment.root,
            commitment.leaf_count as usize,
            lo as usize,
            &leaves,
            &proof,
        ) {
            return Err(fail("range proof does not reach the committed root"));
        }
        Ok(())
    }
}

/// Opens a level record's envelope in place and requires the embedded
/// proof every flushed or compacted record carries; `canonical` is
/// replaced with the record's canonical bytes.
fn open_proved<'r>(
    level: u32,
    record: &'r Record,
    canonical: &mut Vec<u8>,
) -> Result<(Opened<'r>, RecordProofRef<'r>), VerificationFailure> {
    let opened = open_record(record, level)?;
    let proof = opened.proof.ok_or(VerificationFailure::MissingProof { level })?;
    canonical.clear();
    append_canonical(record, opened.value, canonical);
    Ok((opened, proof))
}

/// Refuses a proof that is a chain link: by its own claim its record sits
/// below `position` newer versions of the key at `level`.
fn require_newest(level: u32, proof: &RecordProofRef<'_>) -> Result<(), VerificationFailure> {
    match proof.link_position() {
        None => Ok(()),
        Some(position) => {
            Err(VerificationFailure::StaleRecord { level, newer_versions: position as usize })
        }
    }
}

/// Convenience: interprets a verified GET trace as the final user-visible
/// answer (tombstones hide).
pub fn visible_result(trace: &GetTrace) -> Option<&Record> {
    let r = trace.memtable.as_ref().or(trace.result.as_ref())?;
    r.kind.is_value().then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commitment(level: u32, seed: u8, leaves: u64) -> LevelCommitment {
        LevelCommitment {
            level,
            root: elsm_crypto::sha256(&[seed, level as u8]),
            leaf_count: leaves,
        }
    }

    /// The incremental path must be indistinguishable from the full
    /// set/clear recompute — the snapshot digest (what replication
    /// announcements bind) is compared bit for bit.
    #[test]
    fn compaction_delta_matches_full_recompute_bit_identically() {
        let platform = Platform::with_defaults();
        let full = TrustedState::new(platform.clone(), 7);
        let delta = TrustedState::new(platform.clone(), 7);
        // Seed both with the same pre-compaction shape.
        for state in [&full, &delta] {
            state.set_commitment(commitment(1, 1, 10));
            state.set_commitment(commitment(2, 2, 100));
            state.set_commitment(commitment(3, 3, 1000));
            state.publish_epoch(1);
        }
        assert_eq!(full.snapshot_digest(1), delta.snapshot_digest(1));
        // One job merges levels 1+2 into 2, another rewrites level 3.
        let out2 = commitment(2, 9, 110);
        let out3 = commitment(3, 8, 1000);
        full.clear_commitment(1);
        full.set_commitment(out2);
        full.set_commitment(out3);
        full.publish_epoch(2);
        delta.apply_compaction_delta(&CompactionDelta {
            runs_removed: vec![1],
            runs_added: vec![out2],
        });
        delta.apply_compaction_delta(&CompactionDelta {
            runs_removed: vec![],
            runs_added: vec![out3],
        });
        delta.publish_epoch(2);
        let d_full = full.snapshot_digest(2).unwrap();
        let d_delta = delta.snapshot_digest(2).unwrap();
        assert_eq!(d_full, d_delta, "delta fold must be bit-identical to full recompute");
        assert_eq!(full.commitments(), delta.commitments());
        assert_eq!(full.dataset_digest(), delta.dataset_digest());
    }

    /// A delta that clears the output (empty merge result) and one that
    /// grows the level table behave like their set/clear counterparts.
    #[test]
    fn compaction_delta_clears_and_grows_like_setters() {
        let platform = Platform::with_defaults();
        let state = TrustedState::new(platform, 2);
        state.set_commitment(commitment(1, 1, 4));
        state.apply_compaction_delta(&CompactionDelta {
            runs_removed: vec![1],
            runs_added: vec![commitment(5, 2, 4)],
        });
        assert!(state.commitment(1).is_empty());
        assert_eq!(state.commitment(5).leaf_count, 4);
        assert!(state.commitment(3).is_empty(), "intermediate slots fill with empties");
        assert_eq!(state.max_levels(), 5);
        // An empty delta is free and changes nothing.
        let before = state.commitments();
        state.apply_compaction_delta(&CompactionDelta::default());
        assert_eq!(state.commitments(), before);
    }
}
