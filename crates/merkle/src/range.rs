//! Range (completeness) proofs over a Merkle tree (§5.4).
//!
//! The paper views the per-level Merkle tree as a segment tree: a queried
//! key range maps to a contiguous run of leaves `[lo, hi]`, and the proof
//! consists of the sibling hashes bounding that run — `O(log n)` hashes
//! regardless of the range width. The verifier reconstructs the root from
//! the in-range leaf hashes (computed from the returned records) plus the
//! boundary hashes, which proves no leaf inside the range was withheld.

use elsm_crypto::Digest;

use crate::crown::{tree_height, Anchor, Work};
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

    /// The proof for leaves `lo..=hi` of a tree of `leaf_count` leaves,
    /// read off the audit paths of the run's two end leaves:
    /// [`prove_range`] emits, row by row, the left sibling of the run's
    /// first node where that node is a right child and the right sibling
    /// of its last node where that node is a paired left child — entries
    /// of `lo`'s and `hi`'s audit paths, and nothing else. The other
    /// siblings of the two paths (and anything after the rows a path
    /// needs) are not read. `None` when the range is empty or out of
    /// bounds, or a path is shorter than its position needs.
    ///
    /// Nothing is trusted here: the result proves something only once
    /// [`verify_range_anchored`] has accepted it.
    pub fn from_audit_paths(
        leaf_count: usize,
        lo: usize,
        lo_path: impl IntoIterator<Item = Digest>,
        hi: usize,
        hi_path: impl IntoIterator<Item = Digest>,
    ) -> Option<RangeProof> {
        if lo > hi || hi >= leaf_count {
            return None;
        }
        let (mut lo_path, mut hi_path) = (lo_path.into_iter(), hi_path.into_iter());
        // At most one sibling per row on each side.
        let height = tree_height(leaf_count) as usize;
        let mut proof =
            RangeProof { left: Vec::with_capacity(height), right: Vec::with_capacity(height) };
        let (mut a, mut b, mut count) = (lo, hi, leaf_count);
        while count > 1 {
            // A path has an entry for every row its node is paired in.
            if a ^ 1 < count {
                let sibling = lo_path.next()?;
                if a % 2 == 1 {
                    proof.left.push(sibling);
                }
            }
            if b ^ 1 < count {
                let sibling = hi_path.next()?;
                if b % 2 == 0 {
                    proof.right.push(sibling);
                }
            }
            (a, b, count) = (a / 2, b / 2, count.div_ceil(2));
        }
        Some(proof)
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

    /// The proof read off the two end leaves' audit paths is the one the
    /// tree's owner would have produced — every range of every tree up to
    /// 130 leaves (odd rows, promoted last nodes, single leaves) — and a
    /// path that stops one digest early derives nothing.
    #[test]
    fn derived_from_end_paths_equals_proved() {
        for n in 1..=130 {
            let (t, _) = tree(n);
            let paths: Vec<Vec<Digest>> = (0..n).map(|i| t.audit_path(i)).collect();
            for lo in 0..n {
                for hi in lo..n {
                    let derive = |lo_path: &[Digest], hi_path: &[Digest]| {
                        RangeProof::from_audit_paths(
                            n,
                            lo,
                            lo_path.iter().copied(),
                            hi,
                            hi_path.iter().copied(),
                        )
                    };
                    let (lo_path, hi_path) = (&paths[lo][..], &paths[hi][..]);
                    assert_eq!(
                        derive(lo_path, hi_path),
                        Some(prove_range(&t, lo, hi)),
                        "n={n} range={lo}..={hi}"
                    );
                    if let Some((_, short)) = lo_path.split_last() {
                        assert_eq!(derive(short, hi_path), None, "n={n} lo={lo}: short path");
                    }
                    if let Some((_, short)) = hi_path.split_last() {
                        assert_eq!(derive(lo_path, short), None, "n={n} hi={hi}: short path");
                    }
                }
            }
            assert_eq!(RangeProof::from_audit_paths(n, 0, None, n, None), None, "out of bounds");
        }
        assert_eq!(RangeProof::from_audit_paths(4, 2, None, 1, None), None, "empty range");
    }

    /// Whatever rows the verifier holds, it accepts the derived proof and
    /// does for it exactly the work it does for the proved one.
    #[test]
    fn derived_proof_verifies_under_every_crown_height() {
        for n in [1, 2, 3, 7, 8, 9, 33, 130] {
            let (t, l) = tree(n);
            // Every range of the small trees, a grid over the large one.
            let step = if n > 33 { 7 } else { 1 };
            for lo in (0..n).step_by(step) {
                for hi in (lo..n).step_by(step) {
                    let proved = prove_range(&t, lo, hi);
                    let derived =
                        RangeProof::from_audit_paths(n, lo, t.audit_path(lo), hi, t.audit_path(hi))
                            .expect("full paths");
                    for height in 0..=crate::crown::tree_height(n) {
                        let crown = t.crown_from(height);
                        let verify = |proof: &RangeProof| {
                            let mut known = l[lo..=hi].to_vec();
                            verify_range_anchored(crown.anchor(), n, lo, &mut known, proof)
                        };
                        let work = verify(&derived);
                        assert!(work.is_some(), "n={n} range={lo}..={hi} crown={height}");
                        assert_eq!(work, verify(&proved));
                    }
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
