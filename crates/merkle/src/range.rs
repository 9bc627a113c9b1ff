//! Range (completeness) proofs over a Merkle tree (§5.4).
//!
//! The paper views the per-level Merkle tree as a segment tree: a queried
//! key range maps to a contiguous run of leaves `[lo, hi]`, and the proof
//! consists of the sibling hashes bounding that run — `O(log n)` hashes
//! regardless of the range width. The verifier reconstructs the root from
//! the in-range leaf hashes (computed from the returned records) plus the
//! boundary hashes, which proves no leaf inside the range was withheld.

use elsm_crypto::Digest;

use crate::crown::{Anchor, Work};
use crate::tree::{node_hash, MerkleTree};

/// Boundary hashes proving a contiguous leaf range.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeProof {
    /// Left-boundary siblings, bottom-up.
    pub left: Vec<Digest>,
    /// Right-boundary siblings, bottom-up.
    pub right: Vec<Digest>,
}

impl RangeProof {
    /// Total number of hashes in the proof.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Whether the proof carries no hashes (full-tree range).
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }
}

/// Produces the range proof for leaves `lo..=hi` of `tree`.
///
/// # Panics
///
/// Panics if the range is empty or out of bounds.
pub fn prove_range(tree: &MerkleTree, lo: usize, hi: usize) -> RangeProof {
    assert!(lo <= hi && hi < tree.leaf_count(), "invalid leaf range {lo}..={hi}");
    let mut proof = RangeProof::default();
    let mut a = lo;
    let mut b = hi;
    let levels = tree.levels();
    for level in &levels[..levels.len().saturating_sub(1)] {
        if a % 2 == 1 {
            proof.left.push(level[a - 1]);
        }
        if b % 2 == 0 && b + 1 < level.len() {
            proof.right.push(level[b + 1]);
        }
        a /= 2;
        b /= 2;
    }
    proof
}

/// Verifies that `leaves` are exactly the leaves `lo..=lo+leaves.len()-1`
/// of the tree with the given `root` and `leaf_count`.
pub fn verify_range(
    root: Digest,
    leaf_count: usize,
    lo: usize,
    leaves: &[Digest],
    proof: &RangeProof,
) -> bool {
    let anchor = Anchor::root(&root, leaf_count);
    verify_range_anchored(anchor, leaf_count, lo, &mut leaves.to_vec(), proof).is_some()
}

/// The range walk: are `known` exactly the leaves `lo..lo+known.len()` of
/// the tree (of `leaf_count` leaves) `anchor` holds the top rows of? The
/// run is folded upward in place, row by row, taking a boundary sibling
/// from `proof` wherever an end of the run lacks its pair; at the anchor
/// row the whole run must equal the trusted nodes, and above it every
/// sibling left in `proof` must equal the trusted node bounding the run —
/// all of `proof` is checked, and nothing of it may remain. `known` is
/// consumed as scratch. `None` rejects.
pub fn verify_range_anchored(
    anchor: Anchor<'_>,
    leaf_count: usize,
    lo: usize,
    known: &mut Vec<Digest>,
    proof: &RangeProof,
) -> Option<Work> {
    let end = lo.checked_add(known.len())?;
    if known.is_empty() || end > leaf_count {
        return None;
    }
    let mut work = Work::default();
    // The run covers nodes `a..=b` of a row `count` wide.
    let (mut a, mut b, mut count) = (lo, end - 1, leaf_count);
    let mut left = proof.left.iter();
    let mut right = proof.right.iter();
    for _ in 0..anchor.base_height {
        let (mut read, mut write) = (0, 0);
        if a % 2 == 1 {
            known[0] = node_hash(left.next()?, &known[0]);
            (read, write) = (1, 1);
        }
        while read + 1 < known.len() {
            known[write] = node_hash(&known[read], &known[read + 1]);
            (read, write) = (read + 2, write + 1);
        }
        work.hashed += write;
        if read < known.len() {
            // The run ends on a left child: pair it with the boundary
            // sibling, or promote it when it is its row's unpaired last.
            if b + 1 < count {
                known[write] = node_hash(&known[read], right.next()?);
                work.hashed += 1;
            } else {
                known[write] = known[read];
            }
            write += 1;
        }
        known.truncate(write);
        (a, b, count) = (a / 2, b / 2, count.div_ceil(2));
    }
    let mut row = anchor.nodes;
    if row.get(a..=b)? != known.as_slice() {
        return None;
    }
    work.compared += known.len();
    while count > 1 {
        if a % 2 == 1 {
            if row.get(a - 1)? != left.next()? {
                return None;
            }
            work.compared += 1;
        }
        if b % 2 == 0 && b + 1 < count {
            if row.get(b + 1)? != right.next()? {
                return None;
            }
            work.compared += 1;
        }
        row = row.get(count..)?;
        (a, b, count) = (a / 2, b / 2, count.div_ceil(2));
    }
    (left.next().is_none() && right.next().is_none()).then_some(work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::leaf_hash;

    fn tree(n: usize) -> (MerkleTree, Vec<Digest>) {
        let leaves: Vec<Digest> = (0..n).map(|i| leaf_hash(format!("L{i}").as_bytes())).collect();
        (MerkleTree::from_leaves(leaves.clone()), leaves)
    }

    #[test]
    fn all_ranges_of_all_small_trees_verify() {
        for n in 1..=17 {
            let (t, l) = tree(n);
            for lo in 0..n {
                for hi in lo..n {
                    let p = prove_range(&t, lo, hi);
                    assert!(
                        verify_range(t.root(), n, lo, &l[lo..=hi], &p),
                        "n={n} range={lo}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn withheld_leaf_fails() {
        let (t, l) = tree(10);
        let p = prove_range(&t, 2, 6);
        // Drop leaf 4 from the presented range: wrong.
        let mut partial = l[2..=6].to_vec();
        partial.remove(2);
        assert!(!verify_range(t.root(), 10, 2, &partial, &p));
    }

    #[test]
    fn shifted_range_fails() {
        let (t, l) = tree(10);
        let p = prove_range(&t, 2, 6);
        assert!(!verify_range(t.root(), 10, 3, &l[2..=6], &p));
        assert!(!verify_range(t.root(), 10, 1, &l[2..=6], &p));
    }

    #[test]
    fn substituted_leaf_fails() {
        let (t, l) = tree(10);
        let p = prove_range(&t, 2, 6);
        let mut forged = l[2..=6].to_vec();
        forged[1] = leaf_hash(b"forged");
        assert!(!verify_range(t.root(), 10, 2, &forged, &p));
    }

    #[test]
    fn full_range_needs_no_proof() {
        let (t, l) = tree(8);
        let p = prove_range(&t, 0, 7);
        assert!(p.is_empty());
        assert!(verify_range(t.root(), 8, 0, &l, &p));
    }

    #[test]
    fn proof_is_logarithmic() {
        let (t, _) = tree(1024);
        let p = prove_range(&t, 400, 420);
        assert!(p.len() <= 2 * 10, "range proof should be O(log n), got {}", p.len());
    }

    #[test]
    fn single_leaf_range_matches_audit_path_size() {
        let (t, l) = tree(64);
        let p = prove_range(&t, 10, 10);
        assert!(verify_range(t.root(), 64, 10, &l[10..=10], &p));
        assert_eq!(p.len(), t.audit_path(10).len());
    }

    #[test]
    fn empty_leaves_rejected() {
        let (t, _) = tree(4);
        assert!(!verify_range(t.root(), 4, 0, &[], &RangeProof::default()));
    }

    #[test]
    #[should_panic(expected = "invalid leaf range")]
    fn out_of_bounds_prove_panics() {
        let (t, _) = tree(4);
        prove_range(&t, 2, 4);
    }
}
