//! Crowns: the trusted top rows of a Merkle tree.
//!
//! The paper keeps one root per LSM level in the enclave and hashes every
//! audit path all the way up to it. The top rows of those paths are the
//! same few nodes on every read, so the enclave can keep them too: a
//! [`Crown`] is the tree's rows from the root down to the widest row of at
//! most [`CROWN_ROW_MAX`] nodes. A proof then stops at the crown's lowest
//! row (the **anchor row**): it holds the siblings below it, a verifier
//! hashes them up to that row and compares the node it reached with the
//! trusted one. The siblings above the anchor row are the crown's own
//! nodes; a proof does not repeat them, and one that does is refused.
//!
//! Why the accept set is the root walk's: the crown is a copy of rows of
//! the very tree the root commits to. Below the anchor row the walk is the
//! old one. At the anchor row, a node that equals the trusted one is the
//! node that hashes up to the root through the crown's rows — two different
//! values there that both reach the root would be a SHA-256 collision. So a
//! path cut at the anchor row is accepted exactly when, completed with the
//! crown's siblings above it, it would reach the root. The root alone is the
//! one-row crown ([`Anchor::root`]), whose anchor row is the root: there the
//! path is the whole path, and the root-only walk is the same code.
//!
//! # Fences
//!
//! A crown taken from a level's digest also holds the tree's **fence**:
//! the first and last key of its leaves, read off the record stream the
//! enclave hashed into that very tree. No key outside the fence has a leaf,
//! so a query range the fence excludes ([`Crown::excludes`]) has nothing at
//! the level to prove. The one-row crown of a bare root has no fence and
//! excludes nothing.

use elsm_crypto::Digest;

/// Widest row a crown holds. With every narrower row above it a crown is
/// at most `2 * CROWN_ROW_MAX - 1` digests — under 64 KiB of enclave
/// memory per level.
pub const CROWN_ROW_MAX: usize = 1024;

/// Number of rows above the leaves in a tree of `leaf_count` leaves: the
/// height of its root.
pub(crate) fn tree_height(leaf_count: usize) -> u32 {
    match leaf_count {
        0 | 1 => 0,
        n => usize::BITS - (n - 1).leading_zeros(),
    }
}

/// The top rows of one Merkle tree, owned (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crown {
    /// Height above the leaves of the lowest row held.
    base_height: u32,
    /// The rows back to back, lowest (widest) first, the root last.
    nodes: Vec<Digest>,
    /// Set when the crown was taken from a digest that knew its keys (see
    /// the module docs).
    fence: Option<Fence>,
}

/// A tree's first and last leaf key.
pub(crate) type Fence = (Vec<u8>, Vec<u8>);

impl Crown {
    /// Copies `rows` (lowest first, the root row last), the lowest of
    /// which sits `base_height` rows above the leaves.
    pub(crate) fn from_rows(base_height: u32, rows: &[Vec<Digest>]) -> Self {
        Crown { base_height, nodes: rows.concat(), fence: None }
    }

    /// This crown with `fence` (`None`: unfenced).
    pub(crate) fn with_fence(self, fence: Option<Fence>) -> Self {
        Crown { fence, ..self }
    }

    /// The one-row crown: what a verifier holds that was given only the
    /// root of a tree of `leaf_count` leaves. It has no fence.
    pub fn root_only(root: Digest, leaf_count: usize) -> Self {
        Crown { base_height: tree_height(leaf_count), nodes: vec![root], fence: None }
    }

    /// Whether the fence shows that no leaf's key lies in `[from, to]`. A
    /// crown without a fence excludes nothing.
    pub fn excludes(&self, from: &[u8], to: &[u8]) -> bool {
        self.fence.as_ref().is_some_and(|(first, last)| to < &first[..] || from > &last[..])
    }

    /// The borrowed view the verifiers take.
    pub fn anchor(&self) -> Anchor<'_> {
        Anchor { base_height: self.base_height, nodes: &self.nodes }
    }

    /// The tree's root ([`Digest::ZERO`] for the crown of an empty tree).
    pub fn root(&self) -> Digest {
        self.nodes.last().copied().unwrap_or(Digest::ZERO)
    }

    /// Height above the leaves of the anchor row (0: the crown holds the
    /// leaf row itself and verification hashes no interior node).
    pub fn base_height(&self) -> u32 {
        self.base_height
    }

    /// Number of digests held, all rows together.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes of digests held (the fence is not counted).
    pub fn byte_len(&self) -> usize {
        self.nodes.len() * 32
    }
}

/// Trusted rows a proof is verified against: a [`Crown`], borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Anchor<'a> {
    pub(crate) base_height: u32,
    /// Rows back to back, the anchor row first. Row widths follow from the
    /// leaf count the verifier is given; a slice that does not match it
    /// fails verification, it is never indexed out of bounds.
    pub(crate) nodes: &'a [Digest],
}

impl<'a> Anchor<'a> {
    /// The one-row crown over a borrowed root (see [`Crown::root_only`]).
    pub fn root(root: &'a Digest, leaf_count: usize) -> Self {
        Anchor { base_height: tree_height(leaf_count), nodes: std::slice::from_ref(root) }
    }
}

/// What one anchored verification did, for cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Interior nodes computed by hashing (rows below the anchor row).
    pub hashed: usize,
    /// Nodes compared against trusted crown nodes.
    pub compared: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::{
        prove_range, prove_range_below, verify_range, verify_range_anchored, RangeProof,
    };
    use crate::tree::{leaf_hash, node_hash, MerkleTree};

    /// The root-only path walk as it stood before anchors existed, kept as
    /// the reference the one walk is compared against.
    fn reference_verify(
        root: Digest,
        leaf_count: usize,
        index: usize,
        leaf: Digest,
        path: &[Digest],
    ) -> bool {
        if index >= leaf_count || leaf_count == 0 {
            return false;
        }
        let mut path = path.iter();
        let (mut h, mut idx, mut count) = (leaf, index, leaf_count);
        while count > 1 {
            if idx ^ 1 < count {
                let Some(sib) = path.next() else { return false };
                h = if idx % 2 == 0 { node_hash(&h, sib) } else { node_hash(sib, &h) };
            }
            idx /= 2;
            count = count.div_ceil(2);
        }
        path.next().is_none() && h == root
    }

    /// The root-only range walk as it stood before anchors existed.
    fn reference_verify_range(
        root: Digest,
        leaf_count: usize,
        lo: usize,
        leaves: &[Digest],
        proof: &RangeProof,
    ) -> bool {
        if leaves.is_empty() || lo + leaves.len() > leaf_count {
            return false;
        }
        let (mut a, mut count, mut known) = (lo, leaf_count, leaves.to_vec());
        let (mut li, mut ri) = (proof.left.iter(), proof.right.iter());
        while count > 1 {
            let mut b = a + known.len() - 1;
            if a % 2 == 1 {
                let Some(h) = li.next() else { return false };
                known.insert(0, *h);
                a -= 1;
            }
            if b % 2 == 0 && b + 1 < count {
                let Some(h) = ri.next() else { return false };
                known.push(*h);
                b += 1;
            }
            let mut next = Vec::with_capacity(known.len() / 2 + 1);
            for pair in known.chunks(2) {
                match pair {
                    [l, r] => next.push(node_hash(l, r)),
                    [promoted] if b == count - 1 => next.push(*promoted),
                    _ => return false,
                }
            }
            known = next;
            a /= 2;
            count = count.div_ceil(2);
        }
        li.next().is_none() && ri.next().is_none() && known.len() == 1 && known[0] == root
    }

    fn tree(n: usize) -> (MerkleTree, Vec<Digest>) {
        let leaves: Vec<Digest> = (0..n).map(|i| leaf_hash(format!("c{i}").as_bytes())).collect();
        (MerkleTree::from_leaves(leaves.clone()), leaves)
    }

    /// Crowns of `t` anchored at every row, leaf row to root.
    fn crowns(t: &MerkleTree) -> Vec<Crown> {
        (0..=tree_height(t.leaf_count())).map(|h| t.crown_from(h)).collect()
    }

    /// Every way to damage a digest list that the tests try: the honest
    /// list, one flipped byte per position in `flips`, every truncation
    /// and one extension.
    fn damaged(honest: &[Digest], flips: impl Fn(usize) -> Vec<usize>) -> Vec<Vec<Digest>> {
        let mut out = vec![honest.to_vec()];
        for i in 0..honest.len() {
            for byte in flips(i) {
                let mut bytes = *honest[i].as_bytes();
                bytes[byte] ^= 0x40;
                let mut list = honest.to_vec();
                list[i] = Digest::from_bytes(bytes);
                out.push(list);
            }
        }
        for cut in 0..honest.len() {
            out.push(honest[..cut].to_vec());
        }
        let mut longer = honest.to_vec();
        longer.push(leaf_hash(b"extension"));
        out.push(longer);
        out
    }

    fn every_byte(_: usize) -> Vec<usize> {
        (0..32).collect()
    }

    fn one_byte(i: usize) -> Vec<usize> {
        vec![(i * 7 + 3) % 32]
    }

    /// Unoptimised SHA-256 is ~20x slower: debug runs cover every shape on
    /// a smaller sweep, `cargo test --release` (CI) runs all of it.
    const FULL_SWEEP: bool = !cfg!(debug_assertions);

    /// The audit path of leaf `i` split at `crown`'s anchor row: the
    /// siblings a stored proof holds, and those the crown holds.
    fn split_path(t: &MerkleTree, crown: &Crown, i: usize) -> (Vec<Digest>, Vec<Digest>) {
        let mut lower = t.audit_path(i);
        let upper = lower.split_off(t.siblings(i, crown.base_height()).count());
        (lower, upper)
    }

    /// Anchored at `crown`, the walk of leaf `i` over `lower` accepts
    /// exactly when the root walk accepts `lower` completed with the
    /// crown's siblings above the anchor row; an accepted walk hashed every
    /// sibling it was given and compared one node. Root-anchored, it is
    /// [`MerkleTree::verify`].
    fn assert_path_equivalent(t: &MerkleTree, crown: &Crown, i: usize, lower: &[Digest]) {
        let (n, leaf) = (t.leaf_count(), t.leaves()[i]);
        let upper = split_path(t, crown, i).1;
        let by_root = reference_verify(t.root(), n, i, leaf, &[lower, &upper].concat());
        let work = MerkleTree::verify_siblings(crown.anchor(), n, i, leaf, lower.iter().copied());
        let at = crown.base_height();
        assert_eq!(work.is_some(), by_root, "n={n} leaf={i} anchor={at}");
        if let Some(work) = work {
            assert_eq!(work, Work { hashed: lower.len(), compared: 1 });
        }
        if at == tree_height(n) {
            assert_eq!(MerkleTree::verify(t.root(), n, i, leaf, lower), by_root, "n={n} leaf={i}");
        }
    }

    /// Every damaged form of leaf `i`'s path cut at `crown`'s anchor row
    /// is judged as the root walk judges it completed; the uncut path and
    /// the cut one one sibling further are refused below the root, and the
    /// right path under the wrong leaf or index is refused at every height.
    fn assert_paths_equivalent_under_damage(
        t: &MerkleTree,
        crown: &Crown,
        i: usize,
        flips: fn(usize) -> Vec<usize>,
    ) {
        let (n, leaf_i) = (t.leaf_count(), t.leaves()[i]);
        let (lower, upper) = split_path(t, crown, i);
        for path in damaged(&lower, flips) {
            assert_path_equivalent(t, crown, i, &path);
        }
        let verify = |idx, leaf, path: &[Digest]| {
            MerkleTree::verify_siblings(crown.anchor(), n, idx, leaf, path.iter().copied())
        };
        if let Some(&past) = upper.first() {
            let at = crown.base_height();
            assert!(verify(i, leaf_i, &[&lower[..], &[past]].concat()).is_none(), "anchor={at}");
            assert!(verify(i, leaf_i, &t.audit_path(i)).is_none(), "n={n} anchor={at}");
        }
        assert!(verify(i, leaf_hash(b"forged"), &lower).is_none());
        assert!(verify(n, leaf_i, &lower).is_none());
        if n > 1 {
            assert!(verify((i + 1) % n, leaf_i, &lower).is_none());
        }
    }

    #[test]
    fn anchored_paths_equal_root_paths_small_trees_exhaustive() {
        for n in 1..=33 {
            let (t, _) = tree(n);
            let flips = if FULL_SWEEP || n <= 16 { every_byte } else { one_byte };
            for crown in crowns(&t) {
                for i in 0..n {
                    assert_paths_equivalent_under_damage(&t, &crown, i, flips);
                }
            }
        }
    }

    #[test]
    fn anchored_paths_equal_root_paths_large_trees() {
        for n in [1000, 4097] {
            let (t, _) = tree(n);
            // The edges, the promoted nodes' neighbourhood and a spread.
            let mut picks = vec![0, 1, 2, n / 2 - 1, n / 2, n - 3, n - 2, n - 1];
            picks.extend((0..24).map(|k| (k * 2_654_435_761usize) % n));
            for crown in crowns(&t) {
                for &i in &picks {
                    assert_paths_equivalent_under_damage(&t, &crown, i, one_byte);
                }
            }
        }
    }

    /// `proof` — a candidate for the rows of a range proof below `crown`'s
    /// anchor row — completed with the rows above it of the honest proof of
    /// `lo..=hi`: what the root walk is asked to accept.
    fn completed(
        t: &MerkleTree,
        crown: &Crown,
        (lo, hi): (usize, usize),
        proof: &RangeProof,
    ) -> RangeProof {
        let (full, lower) =
            (prove_range(t, lo, hi), prove_range_below(t, lo, hi, crown.base_height()));
        RangeProof {
            left: [&proof.left[..], &full.left[lower.left.len()..]].concat(),
            right: [&proof.right[..], &full.right[lower.right.len()..]].concat(),
        }
    }

    /// Anchored at `crown`, the range walk over leaves `lo..` and `proof`
    /// accepts exactly when the root walk accepts `proof` completed with
    /// the crown's rows (`completed`, for the honest run `run`).
    fn assert_range_equivalent(
        t: &MerkleTree,
        crown: &Crown,
        run: (usize, usize),
        (lo, leaves): (usize, &[Digest]),
        proof: &RangeProof,
    ) {
        let n = t.leaf_count();
        let whole = completed(t, crown, run, proof);
        let by_root = reference_verify_range(t.root(), n, lo, leaves, &whole);
        let mut known = leaves.to_vec();
        let work = verify_range_anchored(crown.anchor(), n, lo, &mut known, proof);
        let at = crown.base_height();
        assert_eq!(work.is_some(), by_root, "n={n} lo={lo} len={} anchor={at}", leaves.len());
        if at == tree_height(n) {
            assert_eq!(verify_range(t.root(), n, lo, leaves, proof), by_root, "n={n} lo={lo}");
        }
    }

    fn assert_range_equivalent_under_damage(
        t: &MerkleTree,
        crown: &Crown,
        (lo, hi): (usize, usize),
        flips: fn(usize) -> Vec<usize>,
    ) {
        let leaves = &t.leaves()[lo..=hi];
        let honest = prove_range_below(t, lo, hi, crown.base_height());
        let check = |at: (usize, &[Digest]), proof: &RangeProof| {
            assert_range_equivalent(t, crown, (lo, hi), at, proof)
        };
        for left in damaged(&honest.left, flips) {
            check((lo, leaves), &RangeProof { left, right: honest.right.clone() });
        }
        for right in damaged(&honest.right, flips) {
            check((lo, leaves), &RangeProof { left: honest.left.clone(), right });
        }
        // A sibling moved from one side to the other.
        if let Some((moved, rest)) = honest.left.split_last() {
            let right = [&honest.right[..], &[*moved]].concat();
            check((lo, leaves), &RangeProof { left: rest.to_vec(), right });
        }
        // The honest proof under damaged, withheld or shifted leaves.
        let mut forged = leaves.to_vec();
        forged[(lo + hi) % leaves.len()] = leaf_hash(b"forged");
        check((lo, &forged), &honest);
        check((lo, &leaves[1..]), &honest);
        check((lo + 1, leaves), &honest);
        if lo > 0 {
            check((lo - 1, leaves), &honest);
        }
        // Below the root, the uncut proof is refused.
        let full = prove_range(t, lo, hi);
        if full != honest {
            let mut known = leaves.to_vec();
            let uncut =
                verify_range_anchored(crown.anchor(), t.leaf_count(), lo, &mut known, &full);
            assert!(uncut.is_none(), "{lo}..={hi} anchor={}", crown.base_height());
        }
    }

    #[test]
    fn anchored_ranges_equal_root_ranges_small_trees_exhaustive() {
        for n in 1..=if FULL_SWEEP { 33 } else { 19 } {
            let (t, _) = tree(n);
            // Every byte of every sibling on the smallest trees, one byte
            // of every sibling on the rest.
            let flips = if n <= 9 { every_byte } else { one_byte };
            for crown in crowns(&t) {
                for lo in 0..n {
                    for hi in lo..n {
                        assert_range_equivalent_under_damage(&t, &crown, (lo, hi), flips);
                    }
                }
            }
        }
    }

    #[test]
    fn anchored_ranges_equal_root_ranges_large_trees() {
        for n in [1000, 4097] {
            let (t, _) = tree(n);
            let mut ranges = vec![(0, 0), (0, n - 1), (n - 1, n - 1), (n - 2, n - 1), (0, 1)];
            for k in 0..if FULL_SWEEP { 16usize } else { 4 } {
                let lo = (k * 2_654_435_761) % n;
                ranges.push((lo, (lo + 1 + k * k).min(n - 1)));
            }
            for crown in crowns(&t) {
                for &range in &ranges {
                    assert_range_equivalent_under_damage(&t, &crown, range, one_byte);
                }
            }
        }
    }

    /// A tree no wider than the crown's widest row is held whole: a proof
    /// holds no sibling, and the verifier hashes the record into its leaf
    /// and compares.
    #[test]
    fn short_tree_degenerates_to_hash_the_leaf_and_compare() {
        for n in [1, 2, 5, 700, CROWN_ROW_MAX] {
            let (t, leaves) = tree(n);
            let crown = t.crown(CROWN_ROW_MAX);
            assert_eq!(crown.base_height(), 0);
            assert_eq!(crown.root(), t.root());
            let i = n / 2;
            assert_eq!(t.siblings(i, crown.base_height()).count(), 0);
            let verify = |path: &[Digest]| {
                MerkleTree::verify_siblings(crown.anchor(), n, i, leaves[i], path.iter().copied())
            };
            assert_eq!(verify(&[]), Some(Work { hashed: 0, compared: 1 }));
            if n > 1 {
                assert_eq!(verify(&t.audit_path(i)), None, "the whole path runs past the leaves");
            }
        }
    }

    #[test]
    fn crown_stops_at_the_widest_row_that_fits() {
        let (t, leaves) = tree(CROWN_ROW_MAX + 1);
        let crown = t.crown(CROWN_ROW_MAX);
        assert_eq!(crown.base_height(), 1);
        assert_eq!(crown.node_count(), 513 + 257 + 129 + 65 + 33 + 17 + 9 + 5 + 3 + 2 + 1);
        let path: Vec<Digest> = t.siblings(7, crown.base_height()).copied().collect();
        assert_eq!(path, t.audit_path(7)[..1]);
        let work = MerkleTree::verify_siblings(
            crown.anchor(),
            t.leaf_count(),
            7,
            leaves[7],
            path.iter().copied(),
        )
        .expect("honest");
        assert_eq!(work, Work { hashed: 1, compared: 1 });
        let (t, _) = tree(40_000);
        let crown = t.crown(CROWN_ROW_MAX);
        assert_eq!(crown.base_height(), 6, "40 000 leaves: rows of 625 and narrower");
        assert!(crown.byte_len() <= 64 * 1024);
        assert_eq!(crown.root(), t.root());
    }

    #[test]
    fn root_only_crown_is_the_root_walk() {
        let (t, leaves) = tree(21);
        let crown = Crown::root_only(t.root(), 21);
        assert_eq!((crown.node_count(), crown.base_height()), (1, 5));
        let path = t.audit_path(20);
        let work =
            MerkleTree::verify_siblings(crown.anchor(), 21, 20, leaves[20], path.iter().copied())
                .expect("honest");
        assert_eq!(work, Work { hashed: path.len(), compared: 1 });
        assert_eq!(tree_height(0), 0);
        assert_eq!(tree_height(1), 0);
        assert_eq!(tree_height(2), 1);
        assert_eq!(tree_height(3), 2);
        assert_eq!(tree_height(1024), 10);
        assert_eq!(tree_height(1025), 11);
    }

    /// A crown that does not belong to the claimed leaf count rejects; it
    /// does not index out of bounds.
    #[test]
    fn mismatched_crown_rejects() {
        let (t, leaves) = tree(64);
        let (other, _) = tree(9);
        let path = t.audit_path(40);
        for crown in crowns(&other) {
            let got = MerkleTree::verify_siblings(
                crown.anchor(),
                64,
                40,
                leaves[40],
                path.iter().copied(),
            );
            assert!(got.is_none());
            let mut known = leaves[30..50].to_vec();
            let proof = prove_range(&t, 30, 49);
            assert!(verify_range_anchored(crown.anchor(), 64, 30, &mut known, &proof).is_none());
        }
        let empty = MerkleTree::from_leaves(Vec::new()).crown(CROWN_ROW_MAX);
        assert_eq!((empty.node_count(), empty.root()), (0, Digest::ZERO));
        assert!(
            MerkleTree::verify_siblings(empty.anchor(), 0, 0, leaves[0], [].into_iter()).is_none()
        );
    }
}
