//! The untrusted host's prover material: full per-level digests.
//!
//! The untrusted world stores the complete Merkle trees (it stores all the
//! data anyway) and uses them to answer proof requests — here, segment-tree
//! range proofs for SCAN completeness (§5.4). Nothing in this module is
//! trusted: a tampered digest store simply produces proofs that fail
//! against the enclave's commitments.
//!
//! Like the enclave's [`TrustedState`](crate::TrustedState), the digest
//! store is **epoch-versioned**: each store version install publishes an
//! immutable snapshot of the level→digest map, so a scan collected against
//! an older version gets range proofs from the trees its trace (and the
//! enclave's matching commitment snapshot) actually describe, even while
//! concurrent compactions replace the current trees.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use merkle::{LevelDigest, RangeProof};
use parking_lot::Mutex;
use sgx_sim::Platform;

#[derive(Debug)]
struct DigestsInner {
    /// The working map compactions mutate before their install.
    current: HashMap<u32, Arc<LevelDigest>>,
    /// Published snapshots, oldest first (digest trees shared by `Arc`).
    epochs: VecDeque<(u64, HashMap<u32, Arc<LevelDigest>>)>,
}

/// Host-side map from level number to its full digest structure.
#[derive(Debug)]
pub struct UntrustedDigests {
    platform: Arc<Platform>,
    levels: Mutex<DigestsInner>,
}

impl UntrustedDigests {
    /// Creates an empty digest store with an (empty) snapshot for epoch 0.
    pub fn new(platform: Arc<Platform>) -> Arc<Self> {
        let mut epochs = VecDeque::new();
        epochs.push_back((0, HashMap::new()));
        Arc::new(UntrustedDigests {
            platform,
            levels: Mutex::new(DigestsInner { current: HashMap::new(), epochs }),
        })
    }

    /// Installs the digest for a level into the working map (after a
    /// compaction builds it). Visible to provers once the owning epoch is
    /// published.
    pub fn install(&self, digest: Arc<LevelDigest>) {
        self.levels.lock().current.insert(digest.level(), digest);
    }

    /// Removes a level's digest from the working map (its run was
    /// consumed).
    pub fn clear(&self, level: u32) {
        self.levels.lock().current.remove(&level);
    }

    /// Publishes the working map as the snapshot for `epoch`.
    pub fn publish_epoch(&self, epoch: u64) {
        let mut inner = self.levels.lock();
        let snapshot = inner.current.clone();
        match inner.epochs.back_mut() {
            Some(back) if back.0 == epoch => back.1 = snapshot,
            _ => inner.epochs.push_back((epoch, snapshot)),
        }
    }

    /// Drops snapshots for epochs not in the live set (interior drained
    /// epochs included); the newest always survives.
    pub fn prune_epochs(&self, live_epochs: &[u64]) {
        let mut inner = self.levels.lock();
        let newest = inner.epochs.back().map(|(e, _)| *e);
        inner.epochs.retain(|(e, _)| Some(*e) == newest || live_epochs.contains(e));
    }

    /// Number of epoch snapshots currently held (diagnostics/tests).
    pub fn epochs_tracked(&self) -> usize {
        self.levels.lock().epochs.len()
    }

    /// Runs `f` over the working digest of `level`, if present.
    pub fn with_level<T>(&self, level: u32, f: impl FnOnce(&LevelDigest) -> T) -> Option<T> {
        self.levels.lock().current.get(&level).map(|d| f(d))
    }

    /// Number of levels with working digests.
    pub fn len(&self) -> usize {
        self.levels.lock().current.len()
    }

    /// Whether no working digests are stored.
    pub fn is_empty(&self) -> bool {
        self.levels.lock().current.is_empty()
    }
}

impl UntrustedDigests {
    /// Produces the proof for leaves `lo..=hi` of `level` as of `epoch`,
    /// or `None` if the host cannot (treated as a completeness failure).
    pub fn prove_range(&self, epoch: u64, level: u32, lo: u64, hi: u64) -> Option<RangeProof> {
        let digest = {
            let inner = self.levels.lock();
            let (_, snapshot) = inner.epochs.iter().find(|(e, _)| *e == epoch)?;
            snapshot.get(&level)?.clone()
        };
        if hi < lo || hi as usize >= digest.leaf_count() {
            return None;
        }
        // Reading tree nodes from untrusted memory.
        self.platform.dram_access(64 * ((hi - lo + 1) as usize).max(1));
        Some(digest.prove_leaf_range(lo as usize, hi as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use merkle::LevelDigest;

    fn digest(level: u32) -> Arc<LevelDigest> {
        Arc::new(LevelDigest::from_records(
            level,
            vec![
                (b"a".as_slice(), b"a1".to_vec()),
                (b"b".as_slice(), b"b1".to_vec()),
                (b"c".as_slice(), b"c1".to_vec()),
            ],
        ))
    }

    #[test]
    fn install_publish_and_prove() {
        let d = UntrustedDigests::new(Platform::with_defaults());
        d.install(digest(1));
        assert!(d.prove_range(0, 1, 0, 2).is_none(), "not yet published for epoch 0");
        d.publish_epoch(0);
        assert!(d.prove_range(0, 1, 0, 2).is_some());
        assert!(d.prove_range(0, 1, 0, 3).is_none(), "out of bounds");
        assert!(d.prove_range(0, 2, 0, 0).is_none(), "unknown level");
        assert!(d.prove_range(7, 1, 0, 0).is_none(), "unknown epoch");
    }

    #[test]
    fn old_epochs_keep_old_trees() {
        let d = UntrustedDigests::new(Platform::with_defaults());
        d.install(digest(1));
        d.publish_epoch(1);
        // A compaction replaces level 1 with a single-leaf tree at epoch 2.
        let single = LevelDigest::from_records(1, vec![(b"x".as_slice(), b"x1".to_vec())]);
        d.install(Arc::new(single));
        d.publish_epoch(2);
        // Epoch 1 still proves over the 3-leaf tree; epoch 2 over 1 leaf.
        assert!(d.prove_range(1, 1, 0, 2).is_some());
        assert!(d.prove_range(2, 1, 0, 0).is_some());
        assert!(d.prove_range(2, 1, 0, 2).is_none());
        // Pruning drops epoch 1 once its readers drained.
        d.prune_epochs(&[2]);
        assert!(d.prove_range(1, 1, 0, 2).is_none());
        assert_eq!(d.epochs_tracked(), 1, "only the newest snapshot survives");
    }

    #[test]
    fn clear_removes() {
        let d = UntrustedDigests::new(Platform::with_defaults());
        d.install(digest(1));
        d.clear(1);
        d.publish_epoch(0);
        assert!(d.is_empty());
        assert!(d.prove_range(0, 1, 0, 0).is_none());
    }

    #[test]
    fn reinstall_replaces() {
        let d = UntrustedDigests::new(Platform::with_defaults());
        d.install(digest(1));
        let single = LevelDigest::from_records(1, vec![(b"x".as_slice(), b"x1".to_vec())]);
        d.install(Arc::new(single));
        assert_eq!(d.with_level(1, |l| l.leaf_count()), Some(1));
    }
}
