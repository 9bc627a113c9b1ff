//! The enclave-resident trusted state and the VRFY algorithms (§5.3).
//!
//! [`TrustedState`] holds what the paper keeps inside the enclave — one
//! Merkle commitment per LSM level (root + leaf count), the running WAL
//! digest with the chain value the oldest live log started at, and the
//! poisoned flag set when a compaction's inputs fail
//! digest verification — plus, beside every commitment, the level's
//! **crown**: the top rows of the tree the root commits to
//! ([`merkle::crown`]). A stored proof stops at the crown's lowest row: it
//! is hashed up to that row and the node reached is compared with the
//! crown's, so a verified read hashes only the rows below it, and a level
//! whose crown is not the one its proofs were cut for verifies nothing.
//! Crowns are derived state: they enter no digest and are never sealed (see
//! `DESIGN.md`, trusted-state inventory).
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
//! check. Both go through one per-level check, for a GET the range
//! `[key, key]`: a hit is a one-record run, a miss an empty run between its
//! neighbours, and one walk proves the run (`verify_level_range`).
//!
//! # Fences
//!
//! A crown the enclave took from a tree it built also holds that tree's
//! first and last leaf key ([`Crown::excludes`]). A level whose fence
//! excludes the query's range has nothing in it to find or prove, so the
//! trace carries no entry for it, and an entry presented there anyway is a
//! level out of order (`LevelSkipped`). A level known by its root alone —
//! restored from sealed state and not re-derived, or never installed — is
//! unfenced, and is checked as before.
//!
//! # Version chains
//!
//! Only the newest version of a key at a level (the chain head) stores an
//! audit path; every older version stores a fixed-size chain link
//! ([`merkle::proof`]). Two rules follow, one place each:
//!
//! * every record a level's run is built from — a GET's hit or neighbour, a
//!   scan's in-range head or boundary — must claim to be its key's newest
//!   version: a link is a stale answer *by its own claim*, rejected before
//!   anything is hashed, and the same record relabelled as a head fails the
//!   walk (`push_head`);
//! * a scan presents every version of every in-range key, so after a
//!   key's head the older versions are walked down the chain, one hash
//!   each ([`merkle::ChainWalk`]): the accepted versions are a prefix of
//!   the committed chain, in order (`verify_level_range`).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use elsm_crypto::{sha256_concat, sha256_joined, Digest};
use lsm_boundary::{EncodedParts, GetTrace, LevelOutcome, Record, ScanTrace};
use merkle::{
    verify_run_anchored, Crown, LevelCommitment, RecordProofRef, VerifyError, Work, CROWN_ROW_MAX,
};
use parking_lot::Mutex;
use sgx_sim::{CostModel, EnclaveRegion, Platform};
use telemetry::{Counter, Gauge, Telemetry};

use crate::envelope::{canonical_parts, open_record, Opened};
use crate::failure::VerificationFailure;

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
    /// Commitments of the runs the job produced, each with the crown of
    /// the tree the enclave built it from (installed after the removals,
    /// so a level appearing in both ends up installed).
    pub runs_added: Vec<(LevelCommitment, Crown)>,
}

impl CompactionDelta {
    /// True when the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.runs_removed.is_empty() && self.runs_added.is_empty()
    }

    /// Number of commitment slots the delta touches.
    fn touched_levels(&self) -> usize {
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
    /// Levels a query passed over because their fence excludes its range:
    /// the level checks the fences removed.
    pub levels_fenced: u64,
    /// Interior Merkle nodes computed by hashing (the rows of audit paths
    /// and range proofs below the crowns).
    pub nodes_hashed: u64,
    /// Nodes compared against crown nodes: those of the anchor row each
    /// walk reaches.
    pub nodes_compared: u64,
}

/// One record of a verified answer, as [`TrustedState::verify_get`] and
/// [`TrustedState::verify_scan`] hand it back: the very record of the trace
/// that was checked — membership and freshness against its level's
/// commitment, or trusted enclave memory for a memtable record — with the
/// envelope already opened. A reply is assembled from this and from nothing
/// else, so what is served is what was verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verified<'t> {
    /// The record the verifier checked (a tombstone is an answer too: the
    /// key is verifiably absent).
    pub record: &'t Record,
    /// Range of the bare application value within `record.value`.
    pub value_range: Range<usize>,
    /// Encoded size of the proof that was checked (0 for a memtable
    /// record).
    pub proof_bytes: usize,
}

impl<'t> Verified<'t> {
    /// Opens the envelope of a record out of trusted memory (the memtable,
    /// level 0): vouched for without a proof.
    fn open(record: &'t Record) -> Result<Self, VerificationFailure> {
        Ok(Self::opened(record, &open_record(record.view(), 0)?))
    }

    /// `record`, whose envelope is `opened`.
    fn opened(record: &'t Record, opened: &Opened<'_>) -> Self {
        Verified { record, value_range: opened.value_range(), proof_bytes: opened.proof_bytes() }
    }

    /// The bare application value: a view of the stored bytes.
    pub fn value(&self) -> bytes::Bytes {
        self.record.value.slice(self.value_range.clone())
    }
}

/// The share of the EPC one level's crown may take: 1/2048, which on the
/// paper's 128 MB is the 64 KiB of a [`CROWN_ROW_MAX`]-wide crown. An
/// enclave with less EPC keeps proportionally fewer rows (a crown that
/// does not stay resident costs a 30 µs page fault to save 160 ns hashes);
/// one with more keeps no more than `CROWN_ROW_MAX`.
const CROWN_EPC_SHARE: usize = 2048;

/// A crown held in enclave memory: the rows and the EPC region that
/// models them. Immutable once built and shared by `Arc` between the
/// working vector and every epoch snapshot that keeps the level, so
/// lock-free readers only ever read it; the region is freed with the last
/// snapshot that names it.
#[derive(Debug)]
struct ResidentCrown {
    crown: Crown,
    /// `None` for the one-row crown: the root is the commitment's own
    /// field, which the enclave held — uncharged — before crowns existed.
    region: Option<EnclaveRegion>,
    platform: Arc<Platform>,
}

impl ResidentCrown {
    fn new(platform: &Arc<Platform>, crown: Crown) -> Arc<Self> {
        let region = (crown.node_count() > 1).then(|| platform.enclave_alloc(crown.byte_len()));
        Arc::new(ResidentCrown { crown, region, platform: platform.clone() })
    }
}

impl Drop for ResidentCrown {
    fn drop(&mut self) {
        if let Some(region) = self.region {
            self.platform.enclave_free(region);
        }
    }
}

/// One slot of the commitment vector: what is sealed, digested and
/// announced (`commitment`), and what verification additionally reads
/// (`crown`, always of the tree `commitment.root` is the root of — the
/// one-row crown when nothing more was derived).
#[derive(Debug, Clone)]
struct TrustedLevel {
    commitment: LevelCommitment,
    crown: Arc<ResidentCrown>,
}

impl TrustedLevel {
    /// `commitment` with the one-row crown: its root and nothing else.
    fn root_only(platform: &Arc<Platform>, commitment: LevelCommitment) -> Self {
        let crown = Crown::root_only(commitment.root, commitment.leaf_count as usize);
        TrustedLevel { commitment, crown: ResidentCrown::new(platform, crown) }
    }
}

/// The commitment vector plus its epoch-tagged published snapshots.
#[derive(Debug)]
struct CommitmentStore {
    /// The working vector compactions mutate before their install.
    current: Vec<TrustedLevel>,
    /// Published snapshots, oldest first; verification reads these.
    epochs: VecDeque<(u64, Arc<[TrustedLevel]>)>,
}

impl CommitmentStore {
    /// Bytes of every distinct crown held, working vector and snapshots.
    fn crown_bytes(&self) -> u64 {
        let held = self.epochs.iter().flat_map(|(_, s)| s.iter()).chain(&self.current);
        let mut distinct: Vec<&Arc<ResidentCrown>> = Vec::new();
        for level in held {
            if !distinct.iter().any(|seen| Arc::ptr_eq(seen, &level.crown)) {
                distinct.push(&level.crown);
            }
        }
        distinct.iter().map(|c| c.crown.byte_len() as u64).sum()
    }
}

/// The WAL hash chain (§5.3, step w1): every record ever logged, in order.
/// The logs still on disk hold only a suffix of them, so recovery can
/// recompute `digest` from the logs only if it knows where that suffix
/// starts: `base`.
#[derive(Debug)]
struct WalChain {
    /// The chain over every record so far.
    digest: Digest,
    /// The chain value before the first record of the oldest live log.
    base: Digest,
    /// The chain value before the first record of the active log — what
    /// `base` becomes when the flush that rotated to it installs and the
    /// logs before it go.
    active_from: Digest,
    /// Where each folded record's canonical bytes are written: one buffer,
    /// kept from one commit group to the next.
    canonical: Vec<u8>,
}

impl WalChain {
    fn starting_at(base: Digest) -> Self {
        WalChain { digest: base, base, active_from: base, canonical: Vec::new() }
    }
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
    wal: Mutex<WalChain>,
    /// Stacked-run mode (compaction disabled): freshness order is highest
    /// level first, and GET traces arrive in that order.
    stacked: AtomicBool,
    poisoned: AtomicBool,
    proofs_verified: AtomicU64,
    proof_bytes: AtomicU64,
    levels_checked: AtomicU64,
    /// `core.verify.levels_fenced`.
    levels_fenced: Counter,
    /// `core.verify.nodes_hashed` / `core.verify.nodes_compared`.
    nodes_hashed: Counter,
    nodes_compared: Counter,
    /// `core.trusted.crown_bytes`: bytes of every distinct crown held.
    crown_bytes: Gauge,
}

impl TrustedState {
    /// Fresh state with empty commitments for levels `1..=max_levels`,
    /// published as the snapshot for epoch 0, its commitment domain bound
    /// to `shard` (see the field), and its `core.verify.*` counters and the
    /// `core.trusted.crown_bytes` gauge registered in `telemetry`.
    pub fn with_telemetry(
        platform: Arc<Platform>,
        max_levels: usize,
        shard: Option<u32>,
        telemetry: &Telemetry,
    ) -> Arc<Self> {
        let current: Vec<TrustedLevel> = (0..=max_levels as u32)
            .map(|level| TrustedLevel::root_only(&platform, LevelCommitment::empty(level)))
            .collect();
        let mut epochs = VecDeque::new();
        epochs.push_back((0, Arc::from(current.as_slice())));
        let state = TrustedState {
            platform,
            max_levels,
            shard,
            commitments: Mutex::new(CommitmentStore { current, epochs }),
            wal: Mutex::new(WalChain::starting_at(Digest::ZERO)),
            stacked: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            proofs_verified: AtomicU64::new(0),
            proof_bytes: AtomicU64::new(0),
            levels_checked: AtomicU64::new(0),
            levels_fenced: telemetry.counter("core.verify.levels_fenced"),
            nodes_hashed: telemetry.counter("core.verify.nodes_hashed"),
            nodes_compared: telemetry.counter("core.verify.nodes_compared"),
            crown_bytes: telemetry.gauge("core.trusted.crown_bytes"),
        };
        state.crown_bytes.set(state.commitments.lock().crown_bytes());
        Arc::new(state)
    }

    /// Widest crown row this enclave keeps per level: what 1/2048 of its
    /// EPC holds (`CROWN_EPC_SHARE`; a crown is under 64 bytes per node of
    /// its widest row), at most [`CROWN_ROW_MAX`]. Whoever builds
    /// a level's tree inside the enclave takes the crown with this.
    pub fn crown_row_max(&self) -> usize {
        (self.platform.cost().epc_bytes / CROWN_EPC_SHARE / 64).min(CROWN_ROW_MAX)
    }

    /// Number of on-disk levels currently tracked (grows when the store
    /// stacks runs with compaction disabled). Only tests read it, to walk
    /// every level the enclave tracks.
    pub fn max_levels(&self) -> usize {
        self.commitments.lock().current.len().saturating_sub(1).max(self.max_levels)
    }

    /// The *working* commitment for `level` (empty for levels never
    /// installed). Compaction input checks read this; trace verification
    /// reads epoch snapshots instead.
    pub fn commitment(&self, level: u32) -> LevelCommitment {
        let c = self.commitments.lock();
        c.current
            .get(level as usize)
            .map_or_else(|| LevelCommitment::empty(level), |l| l.commitment)
    }

    /// Folds one compaction job's [`CompactionDelta`] into the working
    /// vector: removals clear, then additions install — commitment and
    /// crown together — under one lock acquisition, touching only the
    /// job's levels. The enclave work is charged per touched slot (a
    /// 32-byte root move each; a crown's rows were hashed, and charged,
    /// when the job built the tree) under
    /// [`sgx_sim::SerialClass::DeltaFold`], the incremental-recomputation
    /// class, so concurrent jobs' folds serialize against each other but
    /// overlap with query verification and WAL folding.
    ///
    /// # Panics
    ///
    /// Panics if an added crown's root is not its commitment's: both come
    /// from the one tree the enclave built, so a mismatch is a bug here,
    /// never something the host can cause.
    pub fn apply_compaction_delta(&self, delta: CompactionDelta) {
        if delta.is_empty() {
            return;
        }
        let _serial = self.platform.serial_section(sgx_sim::SerialClass::DeltaFold);
        self.platform.charge_hash(32 * delta.touched_levels());
        let mut c = self.commitments.lock();
        for level in delta.runs_removed {
            let cleared = TrustedLevel::root_only(&self.platform, LevelCommitment::empty(level));
            self.set_level_locked(&mut c, cleared);
        }
        for (commitment, crown) in delta.runs_added {
            assert_eq!(crown.root(), commitment.root, "a crown is of its commitment's tree");
            let crown = ResidentCrown::new(&self.platform, crown);
            self.set_level_locked(&mut c, TrustedLevel { commitment, crown });
        }
    }

    fn set_level_locked(&self, c: &mut CommitmentStore, level: TrustedLevel) {
        let idx = level.commitment.level as usize;
        while c.current.len() <= idx {
            let next = LevelCommitment::empty(c.current.len() as u32);
            c.current.push(TrustedLevel::root_only(&self.platform, next));
        }
        c.current[idx] = level;
    }

    /// All working commitments (for sealing).
    pub fn commitments(&self) -> Vec<LevelCommitment> {
        self.commitments.lock().current.iter().map(|l| l.commitment).collect()
    }

    /// Restores commitments from sealed state, re-publishing the newest
    /// epoch snapshot so recovered traces verify against the restored
    /// roots. Sealed state holds no crowns: every level restarts with its
    /// root alone until [`TrustedState::adopt_crown`] re-derives more.
    pub fn restore_commitments(&self, commitments: Vec<LevelCommitment>) {
        let mut c = self.commitments.lock();
        c.current =
            commitments.into_iter().map(|c| TrustedLevel::root_only(&self.platform, c)).collect();
        self.republish_newest_locked(&mut c);
    }

    /// Recovery: adopts `crown` — the top rows of a tree the enclave just
    /// rebuilt from the host's copy of `commitment.level` — if and only if
    /// that tree is the one the working commitment names (same root, same
    /// leaf count), and re-publishes the newest snapshot with it. The
    /// rebuilt rows hash to the rebuilt root by construction, so equal
    /// roots mean equal rows unless SHA-256 collides; a level the host
    /// tampered with rebuilds to another root and keeps the one-row crown,
    /// against which every read of it fails: its stored paths stop below
    /// the root. Says whether the crown was adopted.
    pub fn adopt_crown(&self, commitment: &LevelCommitment, crown: Crown) -> bool {
        let mut c = self.commitments.lock();
        let adopt = crown.root() == commitment.root
            && c.current.get(commitment.level as usize).map(|l| &l.commitment) == Some(commitment);
        if adopt {
            c.current[commitment.level as usize].crown = ResidentCrown::new(&self.platform, crown);
            self.republish_newest_locked(&mut c);
        }
        adopt
    }

    /// Replaces the newest snapshot with the working vector.
    fn republish_newest_locked(&self, c: &mut CommitmentStore) {
        let newest = c.epochs.back().map_or(0, |(epoch, _)| *epoch);
        self.publish_locked(c, newest);
    }

    /// Publishes the working commitment vector as the snapshot for
    /// `epoch` (called under the store's write lock, *before* the version
    /// becomes visible — no reader can name an epoch without a snapshot).
    /// Levels the install did not touch share their crown with the
    /// previous snapshot.
    pub fn publish_epoch(&self, epoch: u64) {
        self.publish_locked(&mut self.commitments.lock(), epoch);
    }

    fn publish_locked(&self, c: &mut CommitmentStore, epoch: u64) {
        let snapshot: Arc<[TrustedLevel]> = Arc::from(c.current.as_slice());
        match c.epochs.back_mut() {
            Some(back) if back.0 == epoch => back.1 = snapshot,
            _ => c.epochs.push_back((epoch, snapshot)),
        }
        self.crown_bytes.set(c.crown_bytes());
    }

    /// Drops snapshots for epochs no longer in the live set (their
    /// readers have drained) — interior drained epochs included, so one
    /// long-pinned old snapshot cannot make the history grow without
    /// bound. The newest snapshot always survives. A crown goes with the
    /// last snapshot that holds it.
    pub fn prune_epochs(&self, live_epochs: &[u64]) {
        let mut c = self.commitments.lock();
        let newest = c.epochs.back().map(|(e, _)| *e);
        c.epochs.retain(|(e, _)| Some(*e) == newest || live_epochs.contains(e));
        self.crown_bytes.set(c.crown_bytes());
    }

    /// Digests in the working crown of `level`, all rows together: 1 when
    /// the level holds its root alone, 0 for a level never installed. Only
    /// tests read it: the crown a restart adopted shows nowhere else.
    pub fn crown_nodes(&self, level: u32) -> usize {
        let c = self.commitments.lock();
        c.current.get(level as usize).map_or(0, |l| l.crown.crown.node_count())
    }

    /// The snapshot published for `epoch`, if still held.
    fn levels_at(&self, epoch: u64) -> Option<Arc<[TrustedLevel]>> {
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
        let snapshot = self.levels_at(epoch)?;
        Some(self.shard_bound_digest(&[&[0x09], &epoch.to_le_bytes()], &snapshot, None))
    }

    /// SHA-256 over `head`, the shard binding (`0x08` and the shard id)
    /// when the domain has one, each of `levels`' commitment digests and
    /// `tail`, charged as one hash: the layout [`TrustedState::snapshot_digest`]
    /// and [`TrustedState::dataset_digest`] share.
    fn shard_bound_digest(
        &self,
        head: &[&[u8]],
        levels: &[TrustedLevel],
        tail: Option<&[u8]>,
    ) -> Digest {
        let digests: Vec<Digest> = levels.iter().map(|l| l.commitment.digest()).collect();
        let shard_tag = self.shard.map(|id| id.to_le_bytes());
        let parts = head
            .iter()
            .copied()
            .chain(shard_tag.iter().flat_map(|tag| [&[0x08][..], tag]))
            .chain(digests.iter().map(|d| &d.as_bytes()[..]))
            .chain(tail);
        self.platform.charge_hash(parts.clone().map(<[u8]>::len).sum());
        sha256_joined(parts)
    }

    /// Folds a whole commit group into the running WAL digest (§5.3, step
    /// w1) with one lock acquisition. The digest *value* — and the hashing work charged — is
    /// identical to folding record by record: batching changes who pays
    /// the synchronization, never what the enclave commits to, which is
    /// what keeps batched and singleton writes bit-for-bit comparable.
    ///
    /// The fold is charged to
    /// [`sgx_sim::SerialClass::TrustedFold`]: it happens off the store's
    /// write lock (the committer's leader ordering keeps it sequential),
    /// but concurrent writers' folds still exclude each other.
    ///
    /// `canonical` appends a record's canonical bytes to the buffer it is
    /// lent — the chain's own, reused record to record and group to group.
    pub fn absorb_wal_batch<R>(
        &self,
        records: impl IntoIterator<Item = R>,
        mut canonical: impl FnMut(R, &mut Vec<u8>),
    ) {
        let _serial = self.platform.serial_section(sgx_sim::SerialClass::TrustedFold);
        let mut wal = self.wal.lock();
        let WalChain { digest, canonical: buf, .. } = &mut *wal;
        for record in records {
            buf.clear();
            canonical(record, buf);
            // Each chain step is its own SHA-256 invocation with its own
            // finalization, exactly as in the singleton path.
            self.platform.charge_hash(buf.len() + 32);
            *digest = sha256_concat(&[&[0x05], buf, digest.as_bytes()]);
        }
    }

    /// Current WAL digest.
    pub fn wal_digest(&self) -> Digest {
        self.wal.lock().digest
    }

    /// The WAL digest as it stood before the first record of the oldest
    /// live log: sealed beside the digest, it is where recovery starts
    /// folding the logs the host presents.
    pub fn wal_base(&self) -> Digest {
        self.wal.lock().base
    }

    /// The log rotated (a flush froze the memtable): the active log starts
    /// at the current digest.
    pub fn wal_rotated(&self) {
        let mut wal = self.wal.lock();
        wal.active_from = wal.digest;
    }

    /// A flush installed: the logs before the active one are gone, and the
    /// oldest live log is the active one.
    pub fn wal_truncated(&self) {
        let mut wal = self.wal.lock();
        wal.base = wal.active_from;
    }

    /// Recovery: restarts the chain at the sealed `base`. Replaying the
    /// live logs must bring [`TrustedState::wal_digest`] to the digest
    /// sealed with it.
    pub fn restore_wal_base(&self, base: Digest) {
        *self.wal.lock() = WalChain::starting_at(base);
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
        let wal = self.wal_digest();
        self.shard_bound_digest(&[&[0x06]], &commitments.current, Some(wal.as_bytes()))
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
            levels_fenced: self.levels_fenced.value(),
            nodes_hashed: self.nodes_hashed.value(),
            nodes_compared: self.nodes_compared.value(),
        }
    }

    /// Settles what one query's verification tallied: its hashing on the
    /// model clock in one charge — the same clock and `hash_blocks` as a
    /// charge per hash, the price being linear in blocks — and its counts.
    fn settle(&self, tally: &Tally) {
        if tally.hash_blocks > 0 {
            self.platform.charge_hash_blocks(tally.hash_blocks);
        }
        if tally.proofs > 0 {
            self.proofs_verified.fetch_add(tally.proofs, Ordering::Relaxed);
            self.proof_bytes.fetch_add(tally.proof_bytes, Ordering::Relaxed);
        }
        if tally.levels_checked > 0 {
            self.levels_checked.fetch_add(tally.levels_checked, Ordering::Relaxed);
        }
        for (counter, n) in [
            (&self.levels_fenced, tally.levels_fenced),
            (&self.nodes_hashed, tally.nodes_hashed),
            (&self.nodes_compared, tally.nodes_compared),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Tallies one anchored tree walk for what it did: the SHA-256 of
    /// `hashed_bytes` (a record's canonical bytes, or none) plus the
    /// interior nodes hashed below the crown; and touches the crown nodes
    /// compared, in one batch anchored at node `anchor_node` of the crown's
    /// lowest row, the way bloom and index probes charge their metadata.
    fn charge_walk(
        &self,
        level: &TrustedLevel,
        hashed_bytes: usize,
        anchor_node: u64,
        work: Work,
        tally: &mut Tally,
    ) {
        tally.hash(hashed_bytes + 64 * work.hashed);
        if let Some(region) = &level.crown.region {
            let len = (32 * work.compared).min(region.len());
            let offset = (anchor_node as usize).saturating_mul(32).min(region.len() - len);
            self.platform.enclave_touch(region, offset, len);
        }
        tally.nodes_hashed += work.hashed as u64;
        tally.nodes_compared += work.compared as u64;
    }

    // ----- GET verification (Theorem 5.3) ---------------------------------

    /// Verifies a traced point query for `key` against the commitment
    /// snapshot of the trace's epoch and hands back the answer it verified:
    /// the memtable's record (trusted enclave memory), the hit level's, or
    /// `None` once every level proved the key absent. Each level searched
    /// answers the range `[key, key]` ([`TrustedState::verify_scan`]'s
    /// per-level check): a hit is a one-record run, a miss an empty run
    /// between its neighbours. A level whose fence excludes the key is
    /// passed over and must not appear in the trace. A tombstone comes back
    /// like any record; the caller reads it as absent.
    ///
    /// # Errors
    ///
    /// Returns the [`VerificationFailure`] naming the attack detected.
    pub fn verify_get<'t>(
        &self,
        key: &[u8],
        trace: &'t GetTrace,
    ) -> Result<Option<Verified<'t>>, VerificationFailure> {
        if let Some(record) = &trace.memtable {
            // Served from trusted enclave memory; nothing to verify.
            return Verified::open(record).map(Some);
        }
        // A GET level's run is at most its two neighbours.
        let mut leaves = [Digest::ZERO; 2];
        let mut scratch = Scratch { leaves: &mut leaves, tally: Tally::default() };
        let verdict = self.check_get(key, trace, &mut scratch);
        self.settle(&scratch.tally);
        verdict
    }

    /// [`TrustedState::verify_get`]'s check of the levels.
    fn check_get<'t>(
        &self,
        key: &[u8],
        trace: &'t GetTrace,
        scratch: &mut Scratch<'_>,
    ) -> Result<Option<Verified<'t>>, VerificationFailure> {
        let snapshot = self
            .levels_at(trace.epoch)
            .ok_or(VerificationFailure::UnknownEpoch { epoch: trace.epoch })?;
        let epoch_levels = snapshot.len().saturating_sub(1).max(self.max_levels);
        scratch.tally.levels_checked += trace.levels.len() as u64;
        // Expected search order: ascending with compaction (lower =
        // fresher, Lemma 5.4), descending in stacked-run mode (later run =
        // fresher).
        let stacked = self.is_stacked();
        let mut expected: i64 = if stacked { epoch_levels as i64 } else { 1 };
        let step: i64 = if stacked { -1 } else { 1 };
        let mut hit = None;
        let range = (key, key);
        let skipped = |expected| VerificationFailure::LevelSkipped { expected };
        for search in &trace.levels {
            // Nothing after the hit level (early stop), levels in order, and
            // none whose fence excludes the key.
            if hit.is_some() {
                return Err(skipped(expected.max(0) as u32));
            }
            expected = pass_fenced(&snapshot, range, expected, step, &mut scratch.tally);
            if search.level as i64 != expected {
                return Err(skipped(expected.max(0) as u32));
            }
            let level = self.level_of(&snapshot, expected as u32);
            match &search.outcome {
                LevelOutcome::Empty => {
                    if !level.commitment.is_empty() {
                        return Err(VerificationFailure::HiddenLevel { level: expected as u32 });
                    }
                }
                LevelOutcome::Miss { left, right } => {
                    let (left, right) = (left.as_ref(), right.as_ref());
                    self.verify_level_range(&level, range, &[], left, right, scratch, |_| {})?;
                }
                LevelOutcome::Hit(record) => {
                    let records = std::slice::from_ref(record);
                    let answer = |verified| hit = Some(verified);
                    self.verify_level_range(&level, range, records, None, None, scratch, answer)?;
                }
            }
            expected += step;
        }
        if hit.is_none() {
            // The store must account for every level when nothing is found.
            expected = pass_fenced(&snapshot, range, expected, step, &mut scratch.tally);
            let exhausted = if stacked { expected < 1 } else { expected as usize > epoch_levels };
            if !exhausted {
                return Err(skipped(expected.max(0) as u32));
            }
        }
        Ok(hit)
    }

    /// Slot `level` of `snapshot` (the empty level beyond its end).
    fn level_of<'s>(&self, snapshot: &'s [TrustedLevel], level: u32) -> Cow<'s, TrustedLevel> {
        match snapshot.get(level as usize) {
            Some(slot) => Cow::Borrowed(slot),
            None => {
                Cow::Owned(TrustedLevel::root_only(&self.platform, LevelCommitment::empty(level)))
            }
        }
    }

    // ----- SCAN verification (§5.4) ----------------------------------------

    /// Verifies a traced range query over `[from, to]` — every level
    /// complete (a level whose fence excludes the range is passed over, and
    /// must not appear), each level's range proved by one walk read off the audit
    /// paths its run's two end records store — and hands back the result it
    /// verified: the newest version of each key the trace presents,
    /// tombstones and what they hide left out (what [`ScanTrace::merged`]
    /// selects), each with its envelope opened. Every record is opened and
    /// hashed once; the result is drawn from the memtable's records and the
    /// levels' chain heads as they were checked.
    ///
    /// # Errors
    ///
    /// Returns the [`VerificationFailure`] naming the attack detected.
    pub fn verify_scan<'t>(
        &self,
        from: &[u8],
        to: &[u8],
        trace: &'t ScanTrace,
    ) -> Result<Vec<Verified<'t>>, VerificationFailure> {
        // A level's run is at most a leaf per record and its two boundaries.
        let widest = trace.levels.iter().map(|range| range.records.len() + 2).max().unwrap_or(0);
        let mut leaves = vec![Digest::ZERO; widest];
        let mut scratch = Scratch { leaves: &mut leaves, tally: Tally::default() };
        let verdict = self.check_scan(from, to, trace, &mut scratch);
        self.settle(&scratch.tally);
        verdict
    }

    /// [`TrustedState::verify_scan`]'s check of the levels, and the merge
    /// of what they and the memtable answer.
    fn check_scan<'t>(
        &self,
        from: &[u8],
        to: &[u8],
        trace: &'t ScanTrace,
        scratch: &mut Scratch<'_>,
    ) -> Result<Vec<Verified<'t>>, VerificationFailure> {
        let snapshot = self
            .levels_at(trace.epoch)
            .ok_or(VerificationFailure::UnknownEpoch { epoch: trace.epoch })?;
        let epoch_levels = snapshot.len().saturating_sub(1).max(self.max_levels);
        // Room for every record presented: the answers are among them.
        let presented = trace.levels.iter().map(|range| range.records.len()).sum::<usize>();
        let mut answers = Vec::with_capacity(trace.memtable.len() + presented);
        // Trusted enclave memory, first: it wins a tie, as in `merged`.
        for record in &trace.memtable {
            answers.push(Verified::open(record)?);
        }
        let mut expected: u32 = 1;
        for range in &trace.levels {
            expected =
                pass_fenced(&snapshot, (from, to), expected.into(), 1, &mut scratch.tally) as u32;
            if range.level as u32 != expected {
                return Err(VerificationFailure::LevelSkipped { expected });
            }
            let level = self.level_of(&snapshot, expected);
            scratch.tally.levels_checked += 1;
            if range.empty {
                if !level.commitment.is_empty() {
                    return Err(VerificationFailure::HiddenLevel { level: expected });
                }
            } else {
                let (left, right) = (range.left.as_ref(), range.right.as_ref());
                let (records, answer) = (&range.records, |verified| answers.push(verified));
                self.verify_level_range(&level, (from, to), records, left, right, scratch, answer)?;
            }
            expected += 1;
        }
        expected =
            pass_fenced(&snapshot, (from, to), expected.into(), 1, &mut scratch.tally) as u32;
        if (expected as usize) <= epoch_levels {
            return Err(VerificationFailure::LevelSkipped { expected });
        }
        // The newest version of each key, then only the live ones.
        answers.sort_by(|a, b| a.record.key.cmp(&b.record.key).then(b.record.ts.cmp(&a.record.ts)));
        answers.dedup_by(|later, first| later.record.key == first.record.key);
        answers.retain(|verified| verified.record.kind.is_value());
        Ok(answers)
    }

    /// Verifies what the host presents at one level for the key range
    /// `[from, to]` — a SCAN's level, or a GET's as the range `[key, key]`.
    /// `records` are every version of every in-range key the level holds
    /// (key order, newest first within a key), `left` and `right` the chain
    /// heads of the keys just outside the range. The chain heads must be one
    /// run of consecutive leaves whose ends are each anchored — by a
    /// boundary, by the tree's edge, or by a record whose key is that end of
    /// the range, so a hit needs no neighbours — and one walk proves the
    /// run, its boundary siblings read off the audit paths of its two end
    /// records. Older versions are walked down their head's chain, one hash
    /// each ([`merkle::ChainWalk`]): the run's walk authenticates the heads
    /// and with them everything the chain walks accepted.
    ///
    /// A walk that does not reach the committed root (or crown) is a forged
    /// record, a broken shape (order, adjacency, anchoring, a record out of
    /// range) an incomplete range, a link where a head belongs a stale
    /// record. The walk is tallied once, with the first leaf's bytes, so a
    /// one-leaf run costs what one audit path always did. Each in-range
    /// chain head goes to `answer` as it is checked, its envelope opened —
    /// the level's candidates for the query's answer, which stand only if
    /// the whole level verifies.
    #[allow(clippy::too_many_arguments)]
    fn verify_level_range<'r>(
        &self,
        trusted: &TrustedLevel,
        (from, to): (&[u8], &[u8]),
        records: &'r [Record],
        left: Option<&Record>,
        right: Option<&Record>,
        scratch: &mut Scratch<'_>,
        mut answer: impl FnMut(Verified<'r>),
    ) -> Result<(), VerificationFailure> {
        let commitment = &trusted.commitment;
        let level = commitment.level;
        let fail = |reason| Err(VerificationFailure::IncompleteRange { level, reason });
        let forged = |source| VerificationFailure::ForgedRecord { level, source };
        if commitment.is_empty() {
            return match (records, left, right) {
                ([], None, None) => Ok(()),
                _ => fail("records presented for an empty level"),
            };
        }
        if left.is_some_and(|rec| rec.key[..] >= *from) {
            return fail("left boundary not below range");
        }
        if right.is_some_and(|rec| rec.key[..] <= *to) {
            return fail("right boundary not above range");
        }
        let mut run = Run::default();
        if let Some(rec) = left {
            self.push_head(commitment, rec, scratch, &mut run)?;
        }
        let mut idx = 0usize;
        while idx < records.len() {
            let newest = &records[idx];
            if newest.key[..] < *from || newest.key[..] > *to {
                return fail("record outside the queried range");
            }
            let (opened, head) = self.push_head(commitment, newest, scratch, &mut run)?;
            answer(Verified::opened(newest, &opened));
            let mut walk = head.walk().map_err(forged)?;
            let mut j = idx + 1;
            while j < records.len() && records[j].key == newest.key {
                let older = &records[j];
                if older.ts >= records[j - 1].ts {
                    return fail("versions not in descending timestamp order");
                }
                let (_, link, canonical) = open_proved(level, older)?;
                scratch.tally.hash(canonical.encoded_len() + 32);
                scratch.tally.proof(&link);
                walk.step(&link, &canonical.slices()).map_err(forged)?;
                j += 1;
            }
            if j < records.len() && records[j].key < newest.key {
                return fail("records not in ascending key order");
            }
            idx = j;
        }
        if let Some(rec) = right {
            self.push_head(commitment, rec, scratch, &mut run)?;
        }

        let (Some((first, first_bytes)), Some(last)) = (run.first, run.last) else {
            return fail("no leaves presented for a non-empty level");
        };
        // No leaf of the level lies between an anchored end and the range.
        let is_end =
            |record: Option<&Record>, end: &[u8]| record.is_some_and(|r| r.key[..] == *end);
        if left.is_none() && first.leaf_index != 0 && !is_end(records.first(), from) {
            return fail("range start not anchored");
        }
        let last_leaf = commitment.leaf_count - 1;
        if right.is_none() && last.leaf_index != last_leaf && !is_end(records.last(), to) {
            return fail("range end not anchored");
        }
        let crown = &trusted.crown.crown;
        let work = verify_run_anchored(
            crown.anchor(),
            commitment.leaf_count as usize,
            first.leaf_index as usize,
            &mut scratch.leaves[..run.len],
            first.siblings(),
            last.siblings(),
        )
        .ok_or(forged(VerifyError::BadAuditPath))?;
        let anchor_node = first.leaf_index >> crown.base_height();
        self.charge_walk(trusted, first_bytes, anchor_node, work, &mut scratch.tally);
        Ok(())
    }

    /// Adds `record` to `run` as its next chain head: the newest version of
    /// its key by its own claim (a link is stale by that claim, refused
    /// before anything is hashed), of this level's tree, at the leaf after
    /// the run's last. Its leaf is hashed, straight from the record's
    /// canonical pieces, into `scratch.leaves`, and its bytes are tallied
    /// now — unless it opens the run, whose bytes are tallied with the
    /// walk. Hands back its opened envelope and proof.
    fn push_head<'r>(
        &self,
        commitment: &LevelCommitment,
        record: &'r Record,
        scratch: &mut Scratch<'_>,
        run: &mut Run<'r>,
    ) -> Result<(Opened<'r>, RecordProofRef<'r>), VerificationFailure> {
        let level = commitment.level;
        let (opened, proof, canonical) = open_proved(level, record)?;
        require_newest(level, &proof)?;
        scratch.tally.proof(&proof);
        let header = if proof.level != level {
            Some(VerifyError::LevelMismatch)
        } else {
            (proof.leaf_count != commitment.leaf_count).then_some(VerifyError::LeafCountMismatch)
        };
        if let Some(source) = header {
            return Err(VerificationFailure::ForgedRecord { level, source });
        }
        let bytes = canonical.encoded_len();
        match run.last {
            None => run.first = Some((proof, bytes)),
            Some(last) if last.leaf_index.checked_add(1) == Some(proof.leaf_index) => {
                scratch.tally.hash(bytes);
            }
            Some(_) => {
                let reason = "leaf indices not consecutive";
                return Err(VerificationFailure::IncompleteRange { level, reason });
            }
        }
        run.last = Some(proof);
        scratch.leaves[run.len] = proof.suffix_digest(&canonical.slices());
        run.len += 1;
        Ok((opened, proof))
    }
}

/// The first level from `expected` on, stepping by `step`, whose fence in
/// `snapshot` does not exclude `[from, to]`; tallies the levels passed
/// over.
fn pass_fenced(
    snapshot: &[TrustedLevel],
    (from, to): (&[u8], &[u8]),
    mut expected: i64,
    step: i64,
    tally: &mut Tally,
) -> i64 {
    let fenced = |level: i64| {
        let slot = usize::try_from(level).ok().and_then(|level| snapshot.get(level));
        slot.is_some_and(|slot| slot.crown.crown.excludes(from, to))
    };
    while fenced(expected) {
        tally.levels_fenced += 1;
        expected += step;
    }
    expected
}

/// What one query's verification owes the model clock and the verifier's
/// counters, tallied as it goes and settled once when the query ends,
/// passed or refused (`TrustedState::settle`).
#[derive(Debug, Default)]
struct Tally {
    /// SHA-256 blocks, summed hash by hash ([`CostModel::hash_blocks`]).
    hash_blocks: u64,
    proofs: u64,
    proof_bytes: u64,
    levels_checked: u64,
    levels_fenced: u64,
    nodes_hashed: u64,
    nodes_compared: u64,
}

impl Tally {
    /// One SHA-256 of `len` bytes.
    fn hash(&mut self, len: usize) {
        self.hash_blocks += CostModel::hash_blocks(len);
    }

    /// One record proof inspected.
    fn proof(&mut self, proof: &RecordProofRef<'_>) {
        self.proofs += 1;
        self.proof_bytes += proof.encoded_len() as u64;
    }
}

/// What one query reuses from level to level.
#[derive(Debug)]
struct Scratch<'l> {
    /// The level run's leaves, in leaf order, folded in place by its walk:
    /// room for every head the query's widest level can present.
    leaves: &'l mut [Digest],
    /// The query's charges and counts so far.
    tally: Tally,
}

/// The chain heads one level presents, added in leaf order.
#[derive(Debug, Default)]
struct Run<'r> {
    /// The first head's proof, and its canonical byte count (tallied with
    /// the walk).
    first: Option<(RecordProofRef<'r>, usize)>,
    /// The last head's proof.
    last: Option<RecordProofRef<'r>>,
    /// Heads so far: their leaves are `Scratch::leaves[..len]`.
    len: usize,
}

/// Opens a level record's envelope in place and requires the embedded
/// proof every flushed or compacted record carries; hands back the
/// envelope, the proof and the record's canonical bytes as the pieces they
/// join.
fn open_proved(
    level: u32,
    record: &Record,
) -> Result<(Opened<'_>, RecordProofRef<'_>, EncodedParts<'_>), VerificationFailure> {
    let opened = open_record(record.view(), level)?;
    let proof = opened.proof.ok_or(VerificationFailure::MissingProof { level })?;
    Ok((opened, proof, canonical_parts(record.view(), opened.value)))
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

#[cfg(test)]
mod tests {
    use super::*;

    impl TrustedState {
        /// Fresh unsharded state, its counters unregistered.
        pub(crate) fn new(platform: Arc<Platform>, max_levels: usize) -> Arc<Self> {
            Self::new_in_domain(platform, max_levels, None)
        }

        /// Fresh state bound to `shard`, its counters unregistered.
        pub(crate) fn new_in_domain(
            platform: Arc<Platform>,
            max_levels: usize,
            shard: Option<u32>,
        ) -> Arc<Self> {
            Self::with_telemetry(platform, max_levels, shard, &Telemetry::default())
        }

        /// Installs a commitment into the working vector (the
        /// compaction-completion ECall of §5.5.2), growing the level table
        /// if needed, with the one-row crown — its root: the full-recompute
        /// path [`TrustedState::apply_compaction_delta`] is checked against.
        fn set_commitment(&self, commitment: LevelCommitment) {
            let level = TrustedLevel::root_only(&self.platform, commitment);
            self.set_level_locked(&mut self.commitments.lock(), level);
        }

        /// Clears a level's commitment (its run was consumed by compaction).
        fn clear_commitment(&self, level: u32) {
            self.set_commitment(LevelCommitment::empty(level));
        }

        /// Number of epoch snapshots currently held.
        fn epochs_tracked(&self) -> usize {
            self.commitments.lock().epochs.len()
        }
    }

    fn commitment(level: u32, seed: u8, leaves: u64) -> LevelCommitment {
        LevelCommitment {
            level,
            root: elsm_crypto::sha256(&[seed, level as u8]),
            leaf_count: leaves,
        }
    }

    /// A made-up commitment as a delta carries it: with its one-row crown.
    fn added(c: LevelCommitment) -> (LevelCommitment, Crown) {
        (c, Crown::root_only(c.root, c.leaf_count as usize))
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
        delta.apply_compaction_delta(CompactionDelta {
            runs_removed: vec![1],
            runs_added: vec![added(out2)],
        });
        delta.apply_compaction_delta(CompactionDelta {
            runs_removed: vec![],
            runs_added: vec![added(out3)],
        });
        delta.publish_epoch(2);
        let d_full = full.snapshot_digest(2).unwrap();
        let d_delta = delta.snapshot_digest(2).unwrap();
        assert_eq!(d_full, d_delta, "delta fold must be bit-identical to full recompute");
        assert_eq!(full.commitments(), delta.commitments());
        assert_eq!(full.dataset_digest(), delta.dataset_digest());
    }

    /// The shard-bound digests hash and charge exactly the parts they
    /// bound when each built its own parts vector, sharded or not.
    #[test]
    fn shard_bound_digests_keep_their_parts_and_charge() {
        for shard in [None, Some(3)] {
            let platform = Platform::with_defaults();
            let state = TrustedState::new_in_domain(platform.clone(), 3, shard);
            state.set_commitment(commitment(1, 1, 10));
            state.set_commitment(commitment(3, 3, 1000));
            state.publish_epoch(1);
            state.absorb_wal_batch([b"record".as_slice()], |r, buf| buf.extend_from_slice(r));
            let digests: Vec<Digest> =
                state.commitments().iter().map(LevelCommitment::digest).collect();
            let shard_tag = shard.map(|id| id.to_le_bytes());
            let wal = state.wal_digest();
            let epoch_le = 1u64.to_le_bytes();
            let expected = |head: &[&[u8]], tail: Option<&[u8]>| {
                let mut parts: Vec<&[u8]> = head.to_vec();
                if let Some(tag) = &shard_tag {
                    parts.extend([&[0x08][..], tag]);
                }
                parts.extend(digests.iter().map(|d| &d.as_bytes()[..]));
                parts.extend(tail);
                let len: usize = parts.iter().map(|p| p.len()).sum();
                (sha256_concat(&parts), sgx_sim::CostModel::hash_blocks(len))
            };
            let charged = |digest: &dyn Fn() -> Digest| {
                let before = platform.stats().hash_blocks;
                let d = digest();
                (d, platform.stats().hash_blocks - before)
            };
            assert_eq!(
                charged(&|| state.snapshot_digest(1).unwrap()),
                expected(&[&[0x09], &epoch_le], None),
                "{shard:?}"
            );
            assert_eq!(
                charged(&|| state.dataset_digest()),
                expected(&[&[0x06]], Some(wal.as_bytes())),
                "{shard:?}"
            );
        }
    }

    /// A delta that clears the output (empty merge result) and one that
    /// grows the level table behave like their set/clear counterparts.
    #[test]
    fn compaction_delta_clears_and_grows_like_setters() {
        let platform = Platform::with_defaults();
        let state = TrustedState::new(platform, 2);
        state.set_commitment(commitment(1, 1, 4));
        state.apply_compaction_delta(CompactionDelta {
            runs_removed: vec![1],
            runs_added: vec![added(commitment(5, 2, 4))],
        });
        assert!(state.commitment(1).is_empty());
        assert_eq!(state.commitment(5).leaf_count, 4);
        assert!(state.commitment(3).is_empty(), "intermediate slots fill with empties");
        assert_eq!(state.max_levels(), 5);
        // An empty delta is free and changes nothing.
        let before = state.commitments();
        state.apply_compaction_delta(CompactionDelta::default());
        assert_eq!(state.commitments(), before);
    }

    /// A real level: `n` single-version keys, as a delta carries it.
    fn real_level(level: u32, n: usize) -> (LevelCommitment, Crown) {
        let keys: Vec<Vec<u8>> = (0..n).map(|i| format!("k{i:06}").into_bytes()).collect();
        let records = keys.iter().map(|k| (k.as_slice(), k.clone()));
        let digest = merkle::LevelDigest::from_records(level, records);
        (digest.commitment(), digest.crown(CROWN_ROW_MAX))
    }

    fn install(state: &TrustedState, run: (LevelCommitment, Crown), epoch: u64) {
        state.apply_compaction_delta(CompactionDelta {
            runs_removed: vec![],
            runs_added: vec![run],
        });
        state.publish_epoch(epoch);
    }

    fn crown_at(state: &TrustedState, epoch: u64, level: usize) -> Arc<ResidentCrown> {
        state.levels_at(epoch).expect("epoch held")[level].crown.clone()
    }

    /// Crowns are shared, not copied, by the epochs that keep a level, and
    /// go — EPC region included — with the last epoch that holds them.
    #[test]
    fn crowns_are_shared_across_epochs_and_dropped_with_them() {
        let platform = Platform::with_defaults();
        let state = TrustedState::new(platform.clone(), 3);
        let idle = platform.enclave_allocated_bytes();
        install(&state, real_level(2, 3000), 1);
        let l2 = crown_at(&state, 1, 2);
        let l2_bytes = l2.crown.byte_len() as u64;
        assert!(l2.crown.node_count() > 1000 && l2_bytes <= 64 * 1024);
        assert_eq!(state.crown_nodes(2), l2.crown.node_count());
        // Two installs that leave level 2 alone: three snapshots, one crown.
        install(&state, real_level(1, 40), 2);
        install(&state, real_level(1, 50), 3);
        assert_eq!(state.epochs_tracked(), 4);
        for epoch in [2, 3] {
            assert!(Arc::ptr_eq(&l2, &crown_at(&state, epoch, 2)), "epoch {epoch} shares L2");
        }
        assert!(!Arc::ptr_eq(&crown_at(&state, 2, 1), &crown_at(&state, 3, 1)));
        // Counted once however many snapshots hold it.
        let l1_bytes = |epoch| crown_at(&state, epoch, 1).crown.byte_len() as u64;
        let root_only = 32;
        assert_eq!(
            state.crown_bytes.value(),
            l2_bytes + l1_bytes(2) + l1_bytes(3) + 4 * root_only,
            "L2 once, both L1s, the empty levels 0..=3 of epoch 0 (L0 and L3 still shared)"
        );
        // Level 2 is replaced; the old crown lives while epoch 3 does.
        install(&state, real_level(2, 10), 4);
        let weak = Arc::downgrade(&l2);
        drop(l2);
        state.prune_epochs(&[3]);
        assert_eq!(state.epochs_tracked(), 2);
        assert!(weak.upgrade().is_some(), "epoch 3 still verifies against the old L2 crown");
        let with_old = platform.enclave_allocated_bytes();
        state.prune_epochs(&[]);
        assert_eq!(state.epochs_tracked(), 1);
        assert!(weak.upgrade().is_none(), "the crown went with its last epoch");
        assert!(platform.enclave_allocated_bytes() + l2_bytes <= with_old, "its region too");
        assert!(platform.enclave_allocated_bytes() > idle);
        // Whole trees of 10 and 50 leaves (21 and 102 nodes) and two roots.
        assert_eq!(state.crown_bytes.value(), (21 + 102) * 32 + 2 * root_only);
    }

    /// A crown is sized to the enclave's EPC, and the root alone occupies
    /// none of it.
    #[test]
    fn crown_width_follows_the_epc() {
        use sgx_sim::CostModel;
        let with_epc = |bytes| Platform::new(CostModel::paper_defaults().with_epc_bytes(bytes));
        let row_max = |bytes| TrustedState::new(with_epc(bytes), 2).crown_row_max();
        assert_eq!(row_max(128 << 20), CROWN_ROW_MAX, "the paper's EPC: 64 KiB per level");
        assert_eq!(row_max(1 << 30), CROWN_ROW_MAX, "never wider");
        assert_eq!(row_max(16 << 20), 128);
        assert_eq!(row_max(128 << 10), 1, "the figures' scaled EPC of 32 pages: roots only");
        assert_eq!(row_max(4096), 0, "which `crown` also reads as the root alone");

        let platform = with_epc(128 << 10);
        let state = TrustedState::new(platform.clone(), 2);
        let digest = merkle::LevelDigest::from_records(1, [(&b"a"[..], vec![1]), (b"b", vec![2])]);
        let run = (digest.commitment(), digest.crown(state.crown_row_max()));
        install(&state, run, 1);
        assert_eq!(state.crown_nodes(1), 1);
        assert_eq!(platform.enclave_allocated_bytes(), 0, "no region for a root");
    }

    /// Recovery adopts a rebuilt crown only for the very tree the unsealed
    /// commitment names.
    #[test]
    fn adopt_crown_requires_the_committed_tree() {
        let state = TrustedState::new(Platform::with_defaults(), 3);
        let (c2, crown2) = real_level(2, 2500);
        let (other, other_crown) = real_level(2, 2501);
        state.restore_commitments(vec![
            LevelCommitment::empty(0),
            LevelCommitment::empty(1),
            c2,
            LevelCommitment::empty(3),
        ]);
        assert_eq!(state.crown_nodes(2), 1, "sealed state holds roots only");
        // Another tree of the level; the right rows under a wrong leaf
        // count or level; a tree for a level the state does not have.
        assert!(!state.adopt_crown(&other, other_crown.clone()));
        assert!(!state.adopt_crown(&LevelCommitment { leaf_count: 2501, ..c2 }, crown2.clone()));
        assert!(!state.adopt_crown(&LevelCommitment { level: 3, ..c2 }, crown2.clone()));
        assert!(!state.adopt_crown(&LevelCommitment { level: 9, ..c2 }, crown2.clone()));
        // The committed root claimed over another tree's rows.
        assert!(!state.adopt_crown(&c2, other_crown));
        assert_eq!(state.crown_nodes(2), 1);
        assert!(state.adopt_crown(&c2, crown2.clone()));
        assert_eq!(state.crown_nodes(2), crown2.node_count());
        assert_eq!(crown_at(&state, 0, 2).crown, crown2, "the newest snapshot has it too");
        assert_eq!(state.commitments()[2], c2);
    }
}
