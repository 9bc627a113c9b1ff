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

/// Produces the range proof for leaves `lo..=hi` of `tree`.
///
/// # Panics
///
/// Panics if the range is empty or out of bounds.
pub fn prove_range(tree: &MerkleTree, lo: usize, hi: usize) -> RangeProof {
    prove_range_below(tree, lo, hi, u32::MAX)
}

/// The rows of [`prove_range`]'s proof below height `below`: what a
/// verifier holding the tree's rows from `below` up reads.
///
/// # Panics
///
/// As [`prove_range`].
pub(crate) fn prove_range_below(tree: &MerkleTree, lo: usize, hi: usize, below: u32) -> RangeProof {
    assert!(lo <= hi && hi < tree.leaf_count(), "invalid leaf range {lo}..={hi}");
    let mut proof = RangeProof::default();
    let mut a = lo;
    let mut b = hi;
    let levels = tree.levels();
    for level in &levels[..(levels.len() - 1).min(below as usize)] {
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

/// The range walk over a proof: [`verify_run_anchored`] with the boundary
/// siblings taken from `proof`, all of which must be read — the rows below
/// `anchor`'s anchor row of what [`prove_range`] emits (all of it for
/// [`Anchor::root`]).
pub fn verify_range_anchored(
    anchor: Anchor<'_>,
    leaf_count: usize,
    lo: usize,
    known: &mut [Digest],
    proof: &RangeProof,
) -> Option<Work> {
    let (mut left, mut right) = (proof.left.iter().copied(), proof.right.iter().copied());
    let work = walk_run(anchor, leaf_count, lo, known, |a, b, count| {
        let left = if a % 2 == 1 { Some(left.next()?) } else { None };
        let right = if b % 2 == 0 && b + 1 < count { Some(right.next()?) } else { None };
        Some((left, right))
    })?;
    (left.next().is_none() && right.next().is_none()).then_some(work)
}

/// The range walk: are `known` exactly the leaves `lo..lo+known.len()` of
/// the tree (of `leaf_count` leaves) `anchor` holds the top rows of? The
/// siblings bounding the run are read in place off the audit paths of its
/// two end leaves, `lo_path` of the first and `hi_path` of the last, each
/// stopping at the anchor row: [`prove_range`] emits, row by row, the left
/// sibling of the run's first node where that node is a right child and the
/// right sibling of its last node where that node is a paired left child —
/// entries of those two paths and nothing else. Each path must hold exactly
/// one sibling per row below the anchor row its leaf is paired in; the
/// entries off the run's boundary are not read, so no value of theirs can
/// change what is hashed or compared. A one-leaf run is one audit path: it
/// is walked as [`MerkleTree::verify`] walks `lo_path`, and `hi_path`, the
/// same leaf's, is not read. `known` is consumed as scratch. `None`
/// rejects.
pub fn verify_run_anchored(
    anchor: Anchor<'_>,
    leaf_count: usize,
    lo: usize,
    known: &mut [Digest],
    mut lo_path: impl Iterator<Item = Digest>,
    mut hi_path: impl Iterator<Item = Digest>,
) -> Option<Work> {
    if let [leaf] = known {
        return MerkleTree::verify_siblings(anchor, leaf_count, lo, *leaf, lo_path);
    }
    let work = walk_run(anchor, leaf_count, lo, known, |a, b, count| {
        end_path_bounds(&mut lo_path, &mut hi_path, a, b, count)
    })?;
    (lo_path.next().is_none() && hi_path.next().is_none()).then_some(work)
}

/// The boundary siblings of the run's nodes `a..=b` in a row `count` wide,
/// read off the next entries of its end paths: a path has an entry for
/// every row its node is paired in, and the entry is a boundary sibling
/// exactly when [`prove_range`] emits it. `None` when a path runs out.
fn end_path_bounds(
    lo_path: &mut impl Iterator<Item = Digest>,
    hi_path: &mut impl Iterator<Item = Digest>,
    a: usize,
    b: usize,
    count: usize,
) -> Option<(Option<Digest>, Option<Digest>)> {
    let left = if a ^ 1 < count { Some(lo_path.next()?).filter(|_| a % 2 == 1) } else { None };
    let right = if b ^ 1 < count { Some(hi_path.next()?).filter(|_| b % 2 == 0) } else { None };
    Some((left, right))
}

/// The one range walk. The run is folded upward in place, row by row up to
/// the anchor row, pairing an end of the run that lacks its pair with the
/// boundary sibling `bounds(a, b, count)` gives for the run's nodes `a..=b`
/// of a row `count` wide — the left one exactly when `a` is a right child,
/// the right one exactly when `b` is a paired left child; at the anchor row
/// the whole run must equal the trusted nodes. `bounds` is asked once per
/// row below the anchor row.
fn walk_run(
    anchor: Anchor<'_>,
    leaf_count: usize,
    lo: usize,
    known: &mut [Digest],
    mut bounds: impl FnMut(usize, usize, usize) -> Option<(Option<Digest>, Option<Digest>)>,
) -> Option<Work> {
    let end = lo.checked_add(known.len())?;
    if known.is_empty() || end > leaf_count {
        return None;
    }
    let mut hashed = 0;
    // The run covers nodes `a..=b` of a row `count` wide, `known[..len]`.
    let (mut a, mut b, mut count, mut len) = (lo, end - 1, leaf_count, known.len());
    for _ in 0..anchor.base_height {
        let (left, right) = bounds(a, b, count)?;
        let (mut read, mut write) = (0, 0);
        if let Some(left) = left {
            known[0] = node_hash(&left, &known[0]);
            (read, write) = (1, 1);
        }
        while read + 1 < len {
            known[write] = node_hash(&known[read], &known[read + 1]);
            (read, write) = (read + 2, write + 1);
        }
        hashed += write;
        if read < len {
            // The run ends on a left child: pair it with the boundary
            // sibling, or promote it when it is its row's unpaired last.
            known[write] = match right {
                Some(right) => {
                    hashed += 1;
                    node_hash(&known[read], &right)
                }
                None => known[read],
            };
            write += 1;
        }
        len = write;
        (a, b, count) = (a / 2, b / 2, count.div_ceil(2));
    }
    (anchor.nodes.get(a..=b)? == &known[..len]).then_some(Work { hashed, compared: len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::leaf_hash;

    impl RangeProof {
        /// Total number of hashes in the proof.
        fn len(&self) -> usize {
            self.left.len() + self.right.len()
        }

        /// Whether the proof carries no hashes (full-tree range).
        fn is_empty(&self) -> bool {
            self.left.is_empty() && self.right.is_empty()
        }
    }

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

    /// The run's walk over `lo`'s and `hi`'s audit paths, anchored at
    /// `anchor`, over the honest leaves.
    fn walk_paths(
        anchor: Anchor<'_>,
        leaves: &[Digest],
        (lo, hi): (usize, usize),
        lo_path: &[Digest],
        hi_path: &[Digest],
    ) -> Option<Work> {
        let (lo_path, hi_path) = (lo_path.iter().copied(), hi_path.iter().copied());
        let mut known = leaves[lo..=hi].to_vec();
        verify_run_anchored(anchor, leaves.len(), lo, &mut known, lo_path, hi_path)
    }

    /// Checks, for the run `lo..=hi` of `t` (leaves `l`, audit paths
    /// `paths`, cut at `anchor`'s anchor row), that the walk over the two
    /// end paths anchored at `anchor` is the walk over the proof the tree's
    /// owner would have produced — same verdict, same work — and that a
    /// path one digest short or long proves nothing. A lone leaf's second path is the same path and is
    /// not read.
    fn check_end_paths(
        anchor: Anchor<'_>,
        (t, l, paths): (&MerkleTree, &[Digest], &[Vec<Digest>]),
        (lo, hi): (usize, usize),
    ) {
        let n = l.len();
        let longer = |path: &[Digest]| [path, &[leaf_hash(b"extra")]].concat();
        let (lo_path, hi_path) = (&paths[lo][..], &paths[hi][..]);
        let walk = |lo_path: &[Digest], hi_path: &[Digest]| {
            walk_paths(anchor, l, (lo, hi), lo_path, hi_path)
        };
        let work = walk(lo_path, hi_path);
        let mut known = l[lo..=hi].to_vec();
        let proof = prove_range_below(t, lo, hi, anchor.base_height);
        let by_proof = verify_range_anchored(anchor, n, lo, &mut known, &proof);
        assert!(work.is_some() && work == by_proof, "n={n} {lo}..={hi}");
        let mut broken = vec![(longer(lo_path), hi_path.to_vec())];
        broken.extend(lo_path.split_last().map(|(_, short)| (short.to_vec(), hi_path.to_vec())));
        if lo == hi {
            assert_eq!(walk(lo_path, &[]), work, "n={n} leaf {lo}");
        } else {
            broken.push((lo_path.to_vec(), longer(hi_path)));
            broken
                .extend(hi_path.split_last().map(|(_, short)| (lo_path.to_vec(), short.to_vec())));
        }
        for (lo_path, hi_path) in broken {
            assert_eq!(walk(&lo_path, &hi_path), None, "n={n} {lo}..={hi}");
        }
    }

    /// The siblings the walk reads off the two end paths, row by row, are
    /// the ones [`prove_range`] emits — every range of every tree up to 130
    /// leaves (odd rows, promoted last nodes, single leaves) — and each path
    /// is read to its end: one digest short, a row finds no sibling; one
    /// digest long, a digest is left unread. The rows are the walk's, below
    /// the root; nothing is hashed, so every build runs the whole sweep.
    #[test]
    fn end_paths_yield_the_proved_siblings() {
        for n in 1..=130 {
            let (t, _) = tree(n);
            let paths: Vec<Vec<Digest>> = (0..n).map(|i| t.audit_path(i)).collect();
            let longer = |path: &[Digest]| [path, &[leaf_hash(b"extra")]].concat();
            for lo in 0..n {
                for hi in lo..n {
                    let read = |lo_path: &[Digest], hi_path: &[Digest]| {
                        let (mut lo_path, mut hi_path) =
                            (lo_path.iter().copied(), hi_path.iter().copied());
                        let mut read = RangeProof::default();
                        let (mut a, mut b, mut count) = (lo, hi, n);
                        while count > 1 {
                            let (left, right) =
                                end_path_bounds(&mut lo_path, &mut hi_path, a, b, count)?;
                            read.left.extend(left);
                            read.right.extend(right);
                            (a, b, count) = (a / 2, b / 2, count.div_ceil(2));
                        }
                        Some((read, lo_path.next().is_none() && hi_path.next().is_none()))
                    };
                    let (lo_path, hi_path) = (&paths[lo][..], &paths[hi][..]);
                    let proved = prove_range(&t, lo, hi);
                    assert_eq!(read(lo_path, hi_path), Some((proved, true)), "n={n} {lo}..={hi}");
                    for (lo_path, hi_path) in
                        [(longer(lo_path), hi_path.to_vec()), (lo_path.to_vec(), longer(hi_path))]
                    {
                        let unread = read(&lo_path, &hi_path).map(|(_, read_all)| !read_all);
                        assert_eq!(unread, Some(true), "n={n} {lo}..={hi}: long path");
                    }
                    if let Some((_, short)) = lo_path.split_last() {
                        assert_eq!(read(short, hi_path), None, "n={n} lo={lo}: short path");
                    }
                    if let Some((_, short)) = hi_path.split_last() {
                        assert_eq!(read(lo_path, short), None, "n={n} hi={hi}: short path");
                    }
                }
            }
        }
    }

    /// Root-anchored, the end-path walk is the proved range's walk for
    /// every range of every tree up to 130 leaves (33 in debug builds, whose
    /// SHA-256 is ~20x slower; the siblings it reads are checked to 130 in
    /// every build above).
    #[test]
    fn end_paths_walk_as_the_proved_range() {
        let largest = if cfg!(debug_assertions) { 33 } else { 130 };
        for n in 1..=largest {
            let (t, l) = tree(n);
            let paths: Vec<Vec<Digest>> = (0..n).map(|i| t.audit_path(i)).collect();
            let root = t.root();
            for lo in 0..n {
                for hi in lo..n {
                    check_end_paths(Anchor::root(&root, n), (&t, &l, &paths), (lo, hi));
                }
            }
        }
    }

    /// Whatever rows the verifier holds, the end-path walk over paths cut
    /// at its anchor row is the proved range's walk: every crown height,
    /// every range of the small trees and a grid over larger ones.
    #[test]
    fn end_paths_walk_as_the_proved_range_under_every_crown() {
        for n in [1, 2, 3, 7, 8, 9, 33, 64, 65, 130] {
            let (t, l) = tree(n);
            let step = if n > 33 { 7 } else { 1 };
            for height in 0..=crate::crown::tree_height(n) {
                let crown = t.crown_from(height);
                let paths: Vec<Vec<Digest>> =
                    (0..n).map(|i| t.siblings(i, height).copied().collect()).collect();
                for lo in (0..n).step_by(step) {
                    for hi in (lo..n).step_by(step) {
                        check_end_paths(crown.anchor(), (&t, &l, &paths), (lo, hi));
                    }
                }
            }
        }
    }

    /// Below the root, a run's end path that runs one honest sibling past
    /// the anchor row proves nothing.
    #[test]
    fn an_end_path_past_the_anchor_row_is_refused() {
        let (t, l) = tree(130);
        for height in 0..crate::crown::tree_height(130) {
            let crown = t.crown_from(height);
            for (lo, hi) in [(0, 0), (5, 5), (3, 90), (64, 129)] {
                let (lo_path, hi_path) = (t.audit_path(lo), t.audit_path(hi));
                let (lo_cut, hi_cut) =
                    (t.siblings(lo, height).count(), t.siblings(hi, height).count());
                let honest = (&lo_path[..lo_cut], &hi_path[..hi_cut]);
                let walk = |lo_path: &[Digest], hi_path: &[Digest]| {
                    walk_paths(crown.anchor(), &l, (lo, hi), lo_path, hi_path)
                };
                assert!(walk(honest.0, honest.1).is_some(), "height {height} {lo}..={hi}");
                if lo_cut < lo_path.len() {
                    assert_eq!(walk(&lo_path[..lo_cut + 1], honest.1), None, "height {height}");
                }
                if lo != hi && hi_cut < hi_path.len() {
                    assert_eq!(walk(honest.0, &hi_path[..hi_cut + 1]), None, "height {height}");
                }
            }
        }
    }

    /// A flipped sibling of an end path is refused exactly when it is one of
    /// the run's boundary siblings — the proved range's, and every sibling of
    /// a lone leaf's path — and harmless otherwise: the walk does not read it.
    #[test]
    fn only_the_boundary_siblings_of_the_end_paths_are_read() {
        let flipped = |path: &[Digest], i: usize| {
            let mut path = path.to_vec();
            let mut bytes = *path[i].as_bytes();
            bytes[i % 32] ^= 0x40;
            path[i] = Digest::from_bytes(bytes);
            path
        };
        for n in [2, 7, 8, 13, 33] {
            let (t, l) = tree(n);
            let root = t.root();
            for lo in 0..n {
                for hi in lo..n {
                    let proved = prove_range(&t, lo, hi);
                    let (lo_path, hi_path) = (t.audit_path(lo), t.audit_path(hi));
                    let walk = |lo_path: &[Digest], hi_path: &[Digest]| {
                        walk_paths(Anchor::root(&root, n), &l, (lo, hi), lo_path, hi_path).is_some()
                    };
                    for (i, sibling) in lo_path.iter().enumerate() {
                        let read = lo == hi || proved.left.contains(sibling);
                        assert_eq!(
                            walk(&flipped(&lo_path, i), &hi_path),
                            !read,
                            "n={n} {lo}..={hi}"
                        );
                    }
                    for (i, sibling) in hi_path.iter().enumerate() {
                        let read = lo != hi && proved.right.contains(sibling);
                        assert_eq!(
                            walk(&lo_path, &flipped(&hi_path, i)),
                            !read,
                            "n={n} {lo}..={hi}"
                        );
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
