//! Merkle hash trees with RFC 6962's shape, not its node hash.
//!
//! The tree over `n` leaves splits at the largest power of two below `n`
//! (equivalently: built bottom-up, pairing nodes and promoting an unpaired
//! trailing node) — the shape Certificate Transparency uses, fitting since
//! CT is the paper's §5.7 case study. [`leaf_hash`] keeps RFC 6962's
//! `SHA-256(0x00 ‖ data)`. An interior node is not RFC 6962's
//! `SHA-256(0x01 ‖ left ‖ right)`, whose 65-byte preimage pads into a second
//! block: [`node_hash`] is one SHA-256 compression of `left ‖ right` from a
//! node IV of its own. Leaf and node need no prefix to stay apart: the leaf
//! count a verifier trusts fixes every position as one or the other
//! (DESIGN.md §5). Nothing here interoperates with RFC 6962 logs.

use elsm_crypto::{sha256, sha256_concat, Digest};

use crate::crown::{Anchor, Crown, Work};

/// Hashes leaf data with domain separation.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_concat(&[&[0x00], data])
}

/// Hashes two child digests into their parent: one SHA-256 compression of
/// `left ‖ right` from the node IV ([`sha256::NODE_IV`]) — exactly one
/// block, so nothing is padded (DESIGN.md §5 has why that is sound).
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(left.as_bytes());
    block[32..].copy_from_slice(right.as_bytes());
    sha256::compress(&sha256::NODE_IV, &block)
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

    /// Audit path (Merkle authentication path) for the leaf at `index`:
    /// the sibling hashes from bottom to top, skipping levels where the
    /// node is promoted unpaired.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn audit_path(&self, index: usize) -> Vec<Digest> {
        self.siblings(index, u32::MAX).copied().collect()
    }

    /// The part of [`MerkleTree::audit_path`] in the rows below height
    /// `below` (the whole path when `below` is at or above the root),
    /// borrowed from the tree node by node: proof encoders write it out
    /// without collecting.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn siblings(
        &self,
        index: usize,
        below: u32,
    ) -> impl Iterator<Item = &Digest> + Clone + '_ {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let rows = (self.levels.len() - 1).min(below as usize);
        self.levels[..rows]
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
    /// belong to the tree `anchor` holds the top rows of? `path` holds the
    /// siblings below the anchor row, one per row the path's node is paired
    /// in; it is hashed up to that row, and the node reached must be the
    /// trusted one. A path that ends early, or runs on past the anchor row,
    /// rejects. Any source of sibling digests serves (a borrowed proof
    /// reads them straight out of the stored bytes). `None` rejects.
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
        let mut hashed = 0;
        let (mut h, mut idx, mut count) = (leaf, index, leaf_count);
        for _ in 0..anchor.base_height {
            if idx ^ 1 < count {
                let sib = path.next()?;
                h = if idx % 2 == 0 { node_hash(&h, &sib) } else { node_hash(&sib, &h) };
                hashed += 1;
            }
            idx /= 2;
            count = count.div_ceil(2);
        }
        let anchored = *anchor.nodes.get(idx)? == h && path.next().is_none();
        anchored.then_some(Work { hashed, compared: 1 })
    }

    /// Internal levels (used by range proofs).
    pub(crate) fn levels(&self) -> &[Vec<Digest>] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MerkleTree {
        /// The leaf digests.
        pub(crate) fn leaves(&self) -> &[Digest] {
            &self.levels[0]
        }
    }

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| leaf_hash(format!("leaf-{i}").as_bytes())).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let t = MerkleTree::from_leaves(Vec::new());
        assert_eq!(t.root(), Digest::ZERO);
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

    /// A known answer, so a change of node IV or node function fails here:
    /// the children are `SHA-256("left")` and `SHA-256("right")`.
    #[test]
    fn node_hash_known_answer() {
        let (left, right) = (elsm_crypto::sha256(b"left"), elsm_crypto::sha256(b"right"));
        assert_eq!(
            node_hash(&left, &right).to_hex(),
            "14e82c3cead6e8cf038fca3e24e8576dff488fec66856abc4dafe182ba6a1b37"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn audit_path_out_of_range_panics() {
        MerkleTree::from_leaves(leaves(3)).audit_path(3);
    }
}
