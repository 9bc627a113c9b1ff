//! Update-in-place authenticated store: the conventional ADS baseline
//! (§3.4).
//!
//! A Merkle B-tree whose node digests live "on disk": every update rewrites
//! the digests along the root path, each a random-access disk write. This
//! is the design the paper's intro claims eLSM beats "by more than one
//! order of magnitude" on write-intensive workloads; the
//! `ablation_update_in_place` bench reproduces that comparison.

use std::sync::Arc;

use parking_lot::Mutex;
use sgx_sim::Platform;

use crate::mbt::{MerkleBTree, UpdateStats};

/// Approximate on-disk size of one B-tree node (keys + hashes).
const NODE_BYTES: usize = 4096;
/// Hot nodes a read finds in memory; the rest of its path is on disk.
const CACHED_NODES: usize = 8;

/// An authenticated dictionary with disk-resident update-in-place digests.
///
/// # Examples
///
/// ```
/// use elsm_baselines::MbtStore;
/// use sgx_sim::Platform;
///
/// let store = MbtStore::new(Platform::with_defaults());
/// store.put(b"k".to_vec(), b"v".to_vec());
/// assert_eq!(store.get(b"k"), Some(b"v".to_vec()));
/// ```
#[derive(Debug)]
pub struct MbtStore {
    platform: Arc<Platform>,
    tree: Mutex<MerkleBTree>,
}

impl MbtStore {
    /// Creates an empty store with a small node cache.
    pub fn new(platform: Arc<Platform>) -> Self {
        MbtStore { platform, tree: Mutex::new(MerkleBTree::new()) }
    }

    /// Current root digest (what a verifier would pin).
    pub fn root(&self) -> elsm_crypto::Digest {
        self.tree.lock().root()
    }

    fn charge_update(&self, stats: UpdateStats) {
        // Each rewritten node: one random disk write of the node, plus
        // recomputing its digest.
        for _ in 0..stats.nodes_rewritten {
            self.platform.charge_disk_seek();
            self.platform.charge_disk_transfer(NODE_BYTES);
            self.platform.charge_hash(NODE_BYTES / 8);
        }
    }

    fn charge_read(&self, depth: usize) {
        // Nodes beyond the small hot cache come from disk.
        let cold = depth.saturating_sub(CACHED_NODES.min(depth));
        for _ in 0..cold.max(1) {
            self.platform.charge_disk_seek();
            self.platform.charge_disk_transfer(NODE_BYTES);
        }
    }

    /// Inserts or updates a key, charging the update-in-place IO.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) {
        let mut tree = self.tree.lock();
        let stats = tree.insert(key, value);
        drop(tree);
        self.charge_update(stats);
    }

    /// Inserts a whole batch (same surface as the LSM stores' batch APIs).
    ///
    /// An update-in-place Merkle B-tree rewrites and re-hashes the
    /// root-to-leaf path for *every* record — there is no commit group to
    /// amortize, which is the §3.4 motivation for the LSM design. The loop
    /// here is the honest model of that.
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) {
        for (key, value) in items {
            self.put(key.to_vec(), value.to_vec());
        }
    }

    /// Looks up a key, charging path reads.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let tree = self.tree.lock();
        let depth = tree.depth();
        let out = tree.get(key);
        drop(tree);
        self.charge_read(depth);
        out
    }

    /// Range query.
    pub fn range(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let tree = self.tree.lock();
        let depth = tree.depth();
        let out = tree.range(from, to);
        drop(tree);
        self.charge_read(depth + out.len() / 8);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let s = MbtStore::new(Platform::with_defaults());
        for i in 0..300 {
            s.put(format!("k{i:04}").into_bytes(), format!("v{i}").into_bytes());
        }
        for i in (0..300).step_by(13) {
            assert_eq!(s.get(format!("k{i:04}").as_bytes()), Some(format!("v{i}").into_bytes()));
        }
    }

    #[test]
    fn writes_cost_random_io() {
        let p = Platform::with_defaults();
        let s = MbtStore::new(p.clone());
        for i in 0..500 {
            s.put(format!("k{i:05}").into_bytes(), b"v".to_vec());
        }
        let stats = p.stats();
        assert!(
            stats.disk_seeks as usize > 500,
            "update-in-place digests must seek more than once per write: {}",
            stats.disk_seeks
        );
    }

    #[test]
    fn root_changes_with_updates() {
        let s = MbtStore::new(Platform::with_defaults());
        s.put(b"a".to_vec(), b"1".to_vec());
        let r1 = s.root();
        s.put(b"a".to_vec(), b"2".to_vec());
        assert_ne!(s.root(), r1);
    }

    #[test]
    fn write_cost_exceeds_lsm_append() {
        // The motivating comparison of §3.4: per-write disk seeks for the
        // update-in-place ADS vs. sequential appends for the LSM.
        let p_mbt = Platform::with_defaults();
        let mbt = MbtStore::new(p_mbt.clone());
        for i in 0..300 {
            mbt.put(format!("k{i:05}").into_bytes(), vec![0u8; 64]);
        }

        let p_lsm = Platform::with_defaults();
        let lsm = crate::unsecured::open_unsecured(
            p_lsm.clone(),
            crate::unsecured::UnsecuredOptions::default(),
        )
        .unwrap();
        for i in 0..300 {
            lsm.put(format!("k{i:05}").as_bytes(), &[0u8; 64]).unwrap();
        }
        assert!(
            p_mbt.clock().now_ns() > 5 * p_lsm.clock().now_ns(),
            "update-in-place should be much slower: {} vs {}",
            p_mbt.clock().now_ns(),
            p_lsm.clock().now_ns()
        );
    }
}
