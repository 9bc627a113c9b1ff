//! Merkle hash trees with RFC 6962 structure.
//!
//! The tree over `n` leaves splits at the largest power of two below `n`
//! (equivalently: built bottom-up, pairing nodes and promoting an unpaired
//! trailing node). Domain separation follows RFC 6962: leaves hash with a
//! `0x00` prefix and interior nodes with `0x01`, preventing leaf/node
//! confusion attacks. This is the same structure Certificate Transparency
//! uses — fitting, since CT is the paper's §5.7 case study.

use elsm_crypto::{sha256_concat, Digest};

use crate::crown::{Anchor, Crown, Work};

/// Hashes leaf data with domain separation.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_concat(&[&[0x00], data])
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[&[0x01], left.as_bytes(), right.as_bytes()])
}

/// An immutable Merkle tree storing every internal level.
///
/// # Examples
///
/// ```
/// use merkle::tree::{leaf_hash, MerkleTree};
///
/// let leaves: Vec<_> = (0..5u8).map(|i| leaf_hash(&[i])).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// let path = tree.audit_path(3);
/// assert!(MerkleTree::verify(tree.root(), 5, 3, leaves[3], &path));
/// assert!(!MerkleTree::verify(tree.root(), 5, 2, leaves[3], &path));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` = leaves; each higher level pairs the one below,
    /// promoting an unpaired last node.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree over the given leaf digests. An empty input yields the
    /// designated empty root ([`Digest::ZERO`]).
    pub fn from_leaves(leaves: Vec<Digest>) -> Self {
        let mut levels = vec![leaves];
        while let Some(below) = levels.last().filter(|row| row.len() > 1) {
            let mut above = Vec::with_capacity(below.len().div_ceil(2));
            for pair in below.chunks(2) {
                match pair {
                    [l, r] => above.push(node_hash(l, r)),
                    [promoted] => above.push(*promoted),
                    _ => unreachable!("chunks(2)"),
                }
            }
            levels.push(above);
        }
        MerkleTree { levels }
    }

    /// The root digest ([`Digest::ZERO`] for an empty tree).
    pub fn root(&self) -> Digest {
        self.levels.last().and_then(|l| l.first()).copied().unwrap_or(Digest::ZERO)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaf_count() == 0
    }

    /// The leaf digests.
    pub fn leaves(&self) -> &[Digest] {
        &self.levels[0]
    }

    /// Audit path (Merkle authentication path) for the leaf at `index`:
    /// the sibling hashes from bottom to top, skipping levels where the
    /// node is promoted unpaired.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn audit_path(&self, index: usize) -> Vec<Digest> {
        self.siblings(index).copied().collect()
    }

    /// The audit path of [`MerkleTree::audit_path`], borrowed from the
    /// tree node by node (proof encoders write it out without collecting).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn siblings(&self, index: usize) -> impl Iterator<Item = &Digest> + Clone + '_ {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let below_root = &self.levels[..self.levels.len().saturating_sub(1)];
        below_root
            .iter()
            .enumerate()
            .filter_map(move |(height, level)| level.get((index >> height) ^ 1))
    }

    /// The tree's crown: its rows from the root down to the widest row of
    /// at most `row_max` nodes (the root alone when that is below two) — a
    /// copy of nodes already computed. [`crate::CROWN_ROW_MAX`] is the widest
    /// a verifier asks for.
    pub fn crown(&self, row_max: usize) -> Crown {
        // The top row holds at most one node, so the search always stops.
        let base = self.levels.iter().position(|row| row.len() <= row_max.max(1));
        self.crown_from(base.unwrap_or(self.levels.len() - 1) as u32)
    }

    /// The crown whose lowest row sits `base_height` rows above the leaves.
    pub(crate) fn crown_from(&self, base_height: u32) -> Crown {
        Crown::from_rows(base_height, &self.levels[base_height as usize..])
    }

    /// Verifies an audit path: does `leaf` at `index` (of `leaf_count`
    /// leaves) hash up to `root` through `path`?
    pub fn verify(
        root: Digest,
        leaf_count: usize,
        index: usize,
        leaf: Digest,
        path: &[Digest],
    ) -> bool {
        let anchor = Anchor::root(&root, leaf_count);
        Self::verify_siblings(anchor, leaf_count, index, leaf, path.iter().copied()).is_some()
    }

    /// The path walk: does `leaf` at `index` (of `leaf_count` leaves)
    /// belong to the tree `anchor` holds the top rows of? `path` is hashed
    /// up to the anchor row, the node reached must be the trusted one, and
    /// every sibling left over must equal the trusted node beside the path
    /// in its row — all of `path` is checked, and nothing after it may
    /// remain. Any source of sibling digests serves (a borrowed proof reads
    /// them straight out of the stored bytes). `None` rejects.
    pub(crate) fn verify_siblings(
        anchor: Anchor<'_>,
        leaf_count: usize,
        index: usize,
        leaf: Digest,
        mut path: impl Iterator<Item = Digest>,
    ) -> Option<Work> {
        if index >= leaf_count {
            return None;
        }
        let mut work = Work::default();
        let mut h = leaf;
        let mut idx = index;
        let mut count = leaf_count;
        for _ in 0..anchor.base_height {
            if idx ^ 1 < count {
                let sib = path.next()?;
                h = if idx % 2 == 0 { node_hash(&h, &sib) } else { node_hash(&sib, &h) };
                work.hashed += 1;
            }
            idx /= 2;
            count = count.div_ceil(2);
        }
        let mut row = anchor.nodes;
        if *row.get(idx)? != h {
            return None;
        }
        work.compared += 1;
        while count > 1 {
            if idx ^ 1 < count {
                if *row.get(idx ^ 1)? != path.next()? {
                    return None;
                }
                work.compared += 1;
            }
            row = row.get(count..)?;
            idx /= 2;
            count = count.div_ceil(2);
        }
        path.next().is_none().then_some(work)
    }

    /// Internal levels (used by range proofs).
    pub(crate) fn levels(&self) -> &[Vec<Digest>] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| leaf_hash(format!("leaf-{i}").as_bytes())).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let t = MerkleTree::from_leaves(Vec::new());
        assert!(t.root().is_zero());
        assert!(t.is_empty());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let t = MerkleTree::from_leaves(l.clone());
        assert_eq!(t.root(), l[0]);
        assert!(MerkleTree::verify(t.root(), 1, 0, l[0], &t.audit_path(0)));
    }

    #[test]
    fn audit_paths_verify_for_all_sizes() {
        for n in 1..=33 {
            let l = leaves(n);
            let t = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let path = t.audit_path(i);
                assert!(MerkleTree::verify(t.root(), n, i, *leaf, &path), "n={n}, i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let l = leaves(10);
        let t = MerkleTree::from_leaves(l.clone());
        let path = t.audit_path(4);
        assert!(!MerkleTree::verify(t.root(), 10, 4, leaf_hash(b"forged"), &path));
    }

    #[test]
    fn wrong_index_fails() {
        let l = leaves(10);
        let t = MerkleTree::from_leaves(l.clone());
        let path = t.audit_path(4);
        assert!(!MerkleTree::verify(t.root(), 10, 5, l[4], &path));
        assert!(!MerkleTree::verify(t.root(), 10, 12, l[4], &path));
    }

    #[test]
    fn structurally_wrong_count_fails() {
        // A claimed count that changes the path shape is rejected. (Counts
        // that leave the shape identical — e.g. 10 vs 11 at index 4 — are
        // indistinguishable to an audit path; binding the exact count is
        // the LevelCommitment's job, enforced in proof::RecordProof.)
        let l = leaves(10);
        let t = MerkleTree::from_leaves(l.clone());
        let path = t.audit_path(4);
        assert!(!MerkleTree::verify(t.root(), 32, 4, l[4], &path));
        assert!(!MerkleTree::verify(t.root(), 5, 4, l[4], &path));
        assert!(!MerkleTree::verify(t.root(), 3, 4, l[4], &path));
    }

    #[test]
    fn truncated_or_padded_path_fails() {
        let l = leaves(16);
        let t = MerkleTree::from_leaves(l.clone());
        let mut path = t.audit_path(7);
        let extra = path.clone();
        path.pop();
        assert!(!MerkleTree::verify(t.root(), 16, 7, l[7], &path));
        let mut padded = extra;
        padded.push(leaf_hash(b"pad"));
        assert!(!MerkleTree::verify(t.root(), 16, 7, l[7], &padded));
    }

    #[test]
    fn domain_separation_prevents_node_as_leaf() {
        // An interior node presented as a leaf must not verify.
        let l = leaves(4);
        let t = MerkleTree::from_leaves(l.clone());
        let interior = node_hash(&l[0], &l[1]);
        // A 2-leaf tree whose first "leaf" is that interior node:
        let forged = MerkleTree::from_leaves(vec![interior, l[2]]);
        assert_ne!(forged.root(), t.root());
    }

    #[test]
    fn order_matters() {
        let l = leaves(4);
        let mut rev = l.clone();
        rev.reverse();
        assert_ne!(MerkleTree::from_leaves(l).root(), MerkleTree::from_leaves(rev).root());
    }

    #[test]
    fn rfc6962_promote_structure() {
        // n=3: root = H(H(l0,l1), l2) — the promoted leaf pairs at the top.
        let l = leaves(3);
        let t = MerkleTree::from_leaves(l.clone());
        assert_eq!(t.root(), node_hash(&node_hash(&l[0], &l[1]), &l[2]));
        // n=7: root = H(H(H(01),H(23)), H(H(45),6))
        let l = leaves(7);
        let t = MerkleTree::from_leaves(l.clone());
        let left = node_hash(&node_hash(&l[0], &l[1]), &node_hash(&l[2], &l[3]));
        let right = node_hash(&node_hash(&l[4], &l[5]), &l[6]);
        assert_eq!(t.root(), node_hash(&left, &right));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn audit_path_out_of_range_panics() {
        MerkleTree::from_leaves(leaves(3)).audit_path(3);
    }
}
