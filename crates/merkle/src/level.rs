//! Per-level digests: the eLSM digest structure (§5.2).
//!
//! One LSM level digests as a Merkle tree whose leaves are, in key order,
//! the *chain heads* of each distinct user key (records of the same key
//! form a temporal hash chain, newest outermost). The
//! [`LevelDigestBuilder`] consumes the level's records in exactly the
//! order a compaction emits them — key ascending, timestamp descending —
//! which is the paper's streaming `MHT_add` construction (Figure 4).
//!
//! # Streaming
//!
//! A chain folds oldest version first, so the builder gathers one key's
//! records and folds them when the next key arrives: what it holds of the
//! level's record bytes is one chain's, never the level's. Every fold step
//! yields a record's *suffix digest* — the chain digest of that record and
//! every older version of its key — and the builder keeps them all; a
//! record's [`Folded`] (its suffix digest, the one below it, and its place
//! in its chain) can be read back by its position in the stream.
//!
//! That is what lets a merge hash each stored record once. A record that a
//! merge carries from an input level into its output, over exactly the
//! older versions it had there, has the same suffix digest in both:
//! [`LevelDigestBuilder::add_carried`] takes the input's over instead of
//! hashing, and checks the condition on digests — the input's digest below
//! the record must be the one the output folded below it.
//!
//! # Layout
//!
//! A [`LevelDigest`] is what a flush or compaction holds of its output
//! level between its two passes — built from the surviving records in the
//! first, read by the proof writer in the second, dropped when the job's
//! commitment is staged — and can cover millions of records, so it is
//! stored flat: the tree, the first record index of every leaf, and **one
//! suffix digest per record**. Those are all a proof needs from the chain
//! (`older_digest` of version *v* is the suffix digest of version *v + 1*),
//! so the record bytes themselves are dropped once hashed, and of the keys
//! only the first and last are kept, for the crown's fence
//! ([`crate::crown`]): a proof is asked for by position, in the order the
//! records arrived.
//! [`LevelDigest::encode_proof_into`] writes a proof's wire bytes straight
//! from these tables: the audit path for a key's newest version, a
//! fixed-size link ([`crate::proof::LINK_LEN`]) for every older one —
//! a level's stored proof bytes are linear in its record count.

use elsm_crypto::Digest;

use crate::chain::{chain_link, ChainPosition};
use crate::crown::{Crown, Fence};
use crate::proof::{encode_parts, head_encoded_len, LevelCommitment, RecordProof, LINK_LEN};
use crate::tree::MerkleTree;

/// What a builder folded for one record. A later digest of the same record
/// bytes over the same older versions folds the same `suffix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folded {
    /// Chain digest of the record and every older version of its key.
    pub suffix: Digest,
    /// Chain digest of the strictly older versions (zero for the oldest).
    pub older: Digest,
    /// The record's version in its chain (0 = newest).
    pub version: usize,
    /// How many versions its chain has.
    pub versions: usize,
}

/// A record a [`LevelDigestBuilder`] refused: the stream it was fed is not
/// a level in compaction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder;

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("level records out of ascending key order")
    }
}

impl std::error::Error for OutOfOrder {}

/// One record of the chain a builder is gathering.
#[derive(Debug)]
struct Gathered {
    /// Where its bytes end in [`LevelDigestBuilder::chain`].
    end: usize,
    /// What an earlier digest folded for it, if the caller knows.
    carried: Option<Folded>,
}

/// Streaming builder for a level digest (the paper's `MHT_add`).
#[derive(Debug, Default)]
pub struct LevelDigestBuilder {
    level: u32,
    /// Key of the record added first.
    first_key: Vec<u8>,
    /// Key of the record added last.
    key: Vec<u8>,
    /// The bytes of the chain being gathered, back to back, newest first.
    chain: Vec<u8>,
    gathered: Vec<Gathered>,
    /// Index of each leaf's newest record.
    leaf_first: Vec<usize>,
    /// Suffix digest of every record of a folded chain.
    suffix_digests: Vec<Digest>,
    /// Chain head of every folded chain.
    leaves: Vec<Digest>,
    links_hashed: u64,
    links_carried: u64,
}

impl LevelDigestBuilder {
    /// Starts building the digest of `level`.
    pub fn new(level: u32) -> Self {
        LevelDigestBuilder { level, ..Default::default() }
    }

    /// Adds the next record of the sorted stream. The bytes are copied
    /// until its chain folds, so the caller may reuse its buffer.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfOrder`], and takes nothing of the record, if its key
    /// sorts before the previous record's, if it repeats the previous
    /// record's bytes, or if its key arrives again after
    /// [`LevelDigestBuilder::end_chain`] folded its chain. The stored bytes
    /// a level is rebuilt from are the host's, so this is the host's
    /// ordering, not a bug of the caller.
    pub fn add(&mut self, user_key: &[u8], record_bytes: &[u8]) -> Result<(), OutOfOrder> {
        self.add_carried(user_key, record_bytes, None)
    }

    /// Adds the next record together with what an earlier digest folded
    /// for the same bytes (`carried`). When its chain folds, the record
    /// takes over `carried.suffix` instead of hashing if the versions
    /// below it folded to `carried.older` — the same bytes over the same
    /// chain, so the same link; otherwise it is hashed like any record.
    /// The caller vouches only that `record_bytes` are the bytes `carried`
    /// was folded from.
    ///
    /// # Errors
    ///
    /// As [`LevelDigestBuilder::add`].
    pub fn add_carried(
        &mut self,
        user_key: &[u8],
        record_bytes: &[u8],
        carried: Option<Folded>,
    ) -> Result<(), OutOfOrder> {
        let first = self.record_count() == 0;
        let new_key = first || self.key != user_key;
        // A key's versions are distinct records: the same bytes again (one
        // stored record copied over the next) are refused as out of order.
        if !first
            && (user_key < &self.key[..]
                || !new_key && self.last_gathered().map_or(true, |last| last == record_bytes))
        {
            return Err(OutOfOrder);
        }
        if first {
            self.first_key.extend_from_slice(user_key);
        }
        if new_key {
            self.end_chain();
            self.key.clear();
            self.key.extend_from_slice(user_key);
            self.leaf_first.push(self.record_count());
        }
        self.chain.extend_from_slice(record_bytes);
        self.gathered.push(Gathered { end: self.chain.len(), carried });
        Ok(())
    }

    /// The bytes of the record added last, while its chain is gathered.
    fn last_gathered(&self) -> Option<&[u8]> {
        let last = self.gathered.last()?;
        let start = self.gathered.len().checked_sub(2).map_or(0, |prev| self.gathered[prev].end);
        Some(&self.chain[start..last.end])
    }

    /// Folds the chain gathered so far, oldest version first; `add` does
    /// it when the next key arrives and `finish` at the end. A reader of
    /// [`LevelDigestBuilder::folded`] calls it once the stream has ended.
    pub fn end_chain(&mut self) {
        if self.gathered.is_empty() {
            return;
        }
        let base = self.suffix_digests.len();
        self.suffix_digests.resize(base + self.gathered.len(), Digest::ZERO);
        let mut below = Digest::ZERO;
        for (i, record) in self.gathered.iter().enumerate().rev() {
            below = match record.carried {
                Some(carried) if carried.older == below => {
                    self.links_carried += 1;
                    carried.suffix
                }
                _ => {
                    let start = i.checked_sub(1).map_or(0, |prev| self.gathered[prev].end);
                    self.links_hashed += 1;
                    chain_link(&self.chain[start..record.end], &below)
                }
            };
            self.suffix_digests[base + i] = below;
        }
        self.leaves.push(below);
        self.gathered.clear();
        self.chain.clear();
    }

    /// Number of records added so far.
    pub fn record_count(&self) -> usize {
        self.suffix_digests.len() + self.gathered.len()
    }

    /// What was folded for the `index`-th record added; `None` past the
    /// last folded chain.
    pub fn folded(&self, index: usize) -> Option<Folded> {
        let suffix = *self.suffix_digests.get(index)?;
        // The leaf holding `index` is the last to start at or before it.
        let leaf = self.leaf_first.partition_point(|&first| first <= index) - 1;
        let start = self.leaf_first[leaf];
        let end = self.leaf_first.get(leaf + 1).copied().unwrap_or(self.suffix_digests.len());
        let older = if index + 1 < end { self.suffix_digests[index + 1] } else { Digest::ZERO };
        Some(Folded { suffix, older, version: index - start, versions: end - start })
    }

    /// Chain links hashed so far.
    pub fn links_hashed(&self) -> u64 {
        self.links_hashed
    }

    /// Records whose suffix digest was carried over instead of hashed.
    pub fn links_carried(&self) -> u64 {
        self.links_carried
    }

    /// Finishes the digest: folds the last chain and builds the tree over
    /// the chain heads.
    pub fn finish(mut self) -> LevelDigest {
        self.end_chain();
        self.leaf_first.push(self.suffix_digests.len());
        let fence = (!self.leaves.is_empty()).then_some((self.first_key, self.key));
        LevelDigest {
            level: self.level,
            tree: MerkleTree::from_leaves(self.leaves),
            leaf_first: self.leaf_first,
            suffix_digests: self.suffix_digests,
            fence,
        }
    }
}

/// The digest of one LSM level: its tree, and per record the chain digest
/// a stored proof is written from. See the module docs for the layout.
#[derive(Debug, Clone)]
pub struct LevelDigest {
    level: u32,
    tree: MerkleTree,
    /// `leaf_first[i]..leaf_first[i + 1]` are leaf `i`'s records, newest
    /// first (one trailing sentinel).
    leaf_first: Vec<usize>,
    /// `suffix_digests[r]` = chain digest of record `r` and all older
    /// versions of its key; a leaf's first entry is its chain head.
    suffix_digests: Vec<Digest>,
    /// The first and last leaf's key (`None` for an empty level).
    fence: Option<Fence>,
}

impl LevelDigest {
    /// Builds a digest in one shot from `(key, record_bytes)` pairs in
    /// compaction order.
    ///
    /// # Panics
    ///
    /// Panics if the pairs are not in that order: this is for callers that
    /// hold the records themselves. Bytes read back from the host go
    /// through [`LevelDigestBuilder::add`], which refuses such a stream.
    // Host bytes never reach this: the enclave's merges and recovery feed
    // `LevelDigestBuilder::add` and refuse what it refuses.
    #[allow(clippy::expect_used)]
    pub fn from_records<'a>(
        level: u32,
        records: impl IntoIterator<Item = (&'a [u8], Vec<u8>)>,
    ) -> Self {
        let mut b = LevelDigestBuilder::new(level);
        for (k, r) in records {
            b.add(k, &r).expect("records in ascending key order");
        }
        b.finish()
    }

    /// The commitment the enclave stores for this level.
    pub fn commitment(&self) -> LevelCommitment {
        LevelCommitment {
            level: self.level,
            root: self.tree.root(),
            leaf_count: self.tree.leaf_count() as u64,
        }
    }

    /// The crown the enclave keeps beside the commitment: the tree's top
    /// rows down to the widest of at most `row_max` nodes, copied, and
    /// fenced by the first and last key (see [`crate::crown`]).
    pub fn crown(&self, row_max: usize) -> Crown {
        self.tree.crown(row_max).with_fence(self.fence.clone())
    }

    /// Number of distinct keys (leaves).
    pub fn leaf_count(&self) -> usize {
        self.tree.leaf_count()
    }

    /// Number of versions leaf `leaf_idx` holds.
    pub fn chain_len(&self, leaf_idx: usize) -> usize {
        self.leaf_first[leaf_idx + 1] - self.leaf_first[leaf_idx]
    }

    /// What version `version_idx` (0 = newest) of leaf `leaf_idx` stores
    /// about its chain: `None` for the head, its position for a link; and
    /// the chain digest of the strictly older versions — the next record's
    /// suffix digest, or the empty chain's for the oldest version.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    fn chain_parts(&self, leaf_idx: usize, version_idx: usize) -> (Option<u32>, &Digest) {
        assert!(version_idx < self.chain_len(leaf_idx), "version index out of range");
        let r = self.leaf_first[leaf_idx] + version_idx;
        let older_digest = if r + 1 < self.leaf_first[leaf_idx + 1] {
            &self.suffix_digests[r + 1]
        } else {
            &Digest::ZERO
        };
        // A chain of 2^32 versions would hold 128 GiB of suffix digests in
        // this digest's own memory: no byte string the host sends gets here.
        #[allow(clippy::expect_used)]
        let link_position = (version_idx > 0)
            .then(|| u32::try_from(version_idx).expect("a chain holds fewer than 2^32 versions"));
        (link_position, older_digest)
    }

    fn header(&self, leaf_idx: usize) -> (u32, u64, u64) {
        (self.level, leaf_idx as u64, self.tree.leaf_count() as u64)
    }

    /// Proof for the version at `version_idx` (0 = newest) of leaf
    /// `leaf_idx`, in owned form: the audit path for the newest version,
    /// the chain link for every other.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn prove_version(&self, leaf_idx: usize, version_idx: usize) -> RecordProof {
        let (link_position, &older_digest) = self.chain_parts(leaf_idx, version_idx);
        let chain = match link_position {
            None => {
                ChainPosition::Newest { older_digest, audit_path: self.tree.audit_path(leaf_idx) }
            }
            Some(position) => ChainPosition::Link { position, older_digest },
        };
        let (level, leaf_index, leaf_count) = self.header(leaf_idx);
        RecordProof { level, leaf_index, leaf_count, chain }
    }

    /// Proof for the newest version of leaf `leaf_idx` — the one proof of
    /// a chain that verifies on its own.
    pub fn prove_newest(&self, leaf_idx: usize) -> RecordProof {
        self.prove_version(leaf_idx, 0)
    }

    /// Appends the wire encoding of the proof for `(leaf_idx,
    /// version_idx)` to `out` — byte for byte
    /// `prove_version(..).encode()`, written once from the digest's own
    /// tables with no intermediate proof object.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn encode_proof_into(&self, leaf_idx: usize, version_idx: usize, out: &mut Vec<u8>) {
        let (link_position, older_digest) = self.chain_parts(leaf_idx, version_idx);
        encode_parts(
            out,
            self.header(leaf_idx),
            link_position,
            older_digest,
            self.tree.siblings(leaf_idx),
        );
    }

    /// Exactly the number of bytes [`LevelDigest::encode_proof_into`]
    /// appends for `(leaf_idx, version_idx)`, by arithmetic.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn proof_encoded_len(&self, leaf_idx: usize, version_idx: usize) -> usize {
        match self.chain_parts(leaf_idx, version_idx).0 {
            None => head_encoded_len(self.tree.siblings(leaf_idx).count()),
            Some(_) => LINK_LEN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crown::Anchor;
    use crate::proof::{RecordProofRef, VerifyError};
    use crate::range::verify_run_anchored;

    /// The paper's Figure 3 example: level L2 = [⟨T,4⟩, ⟨Z,7⟩, ⟨Z,6⟩],
    /// level L3 = [⟨A,2⟩, ⟨T,0⟩, ⟨Y,3⟩, ⟨Z,1⟩].
    fn level2() -> LevelDigest {
        LevelDigest::from_records(
            2,
            vec![
                (b"T".as_slice(), b"T,4".to_vec()),
                (b"Z".as_slice(), b"Z,7".to_vec()),
                (b"Z".as_slice(), b"Z,6".to_vec()),
            ],
        )
    }

    fn level3() -> LevelDigest {
        LevelDigest::from_records(
            3,
            vec![
                (b"A".as_slice(), b"A,2".to_vec()),
                (b"T".as_slice(), b"T,0".to_vec()),
                (b"Y".as_slice(), b"Y,3".to_vec()),
                (b"Z".as_slice(), b"Z,1".to_vec()),
            ],
        )
    }

    #[test]
    fn leaf_count_is_distinct_keys() {
        assert_eq!(level2().leaf_count(), 2, "T and Z chains");
        assert_eq!(level3().leaf_count(), 4);
    }

    #[test]
    fn newest_version_proof_verifies() {
        let l2 = level2();
        let c = l2.commitment();
        let proof = l2.prove_newest(1); // leaves in key order: T, Z
        assert_eq!(proof.verify(&c, b"Z,7"), Ok(()));
    }

    #[test]
    fn stale_version_cannot_claim_newest() {
        let l2 = level2();
        let c = l2.commitment();
        // Leaves are in key order: T, Z.
        let index = 1;
        // What Z,6 stores is its link: no copy of Z,7, no path, and no
        // proof of anything on its own.
        let honest = l2.prove_version(index, 1);
        assert_eq!(honest.chain, ChainPosition::Link { position: 1, older_digest: Digest::ZERO });
        assert_eq!(honest.verify(&c, b"Z,6"), Err(VerifyError::NotChainHead));
        assert_eq!(l2.proof_encoded_len(index, 1), LINK_LEN);
        // Z,6 verifies by walking down from Z,7 ...
        let (head, link) = (l2.prove_newest(index).encode(), honest.encode());
        let head = RecordProofRef::parse(&head).unwrap();
        assert_eq!(head.verify(&c, b"Z,7"), Ok(()));
        let mut walk = head.walk().unwrap();
        assert_eq!(walk.step(&RecordProofRef::parse(&link).unwrap(), &[b"Z,6"]), Ok(()));
        // ... and a "Newest" claim for it fails.
        let ChainPosition::Newest { audit_path, .. } = l2.prove_newest(index).chain else {
            unreachable!()
        };
        let lying = RecordProof {
            chain: ChainPosition::Newest { older_digest: Digest::ZERO, audit_path },
            ..honest
        };
        assert_eq!(lying.verify(&c, b"Z,6"), Err(VerifyError::BadAuditPath));
    }

    #[test]
    fn adjacent_leaf_proofs_support_non_membership() {
        // Non-membership of "B" at L3: neighbors A (leaf 0) and T (leaf 1).
        let l3 = level3();
        let c = l3.commitment();
        let pa = l3.prove_newest(0);
        let pt = l3.prove_newest(1);
        assert_eq!(pa.verify(&c, b"A,2"), Ok(()));
        assert_eq!(pt.verify(&c, b"T,0"), Ok(()));
        assert_eq!(pa.leaf_index + 1, pt.leaf_index, "adjacency check");
    }

    #[test]
    fn range_proof_over_level_verifies() {
        // SCAN([S,U]) against L3 covers leaf T (the paper's §5.4 example
        // plus boundaries): the run T..Y is proved from what its two end
        // records store.
        let l3 = level3();
        let c = l3.commitment();
        let (t, y) = (l3.prove_newest(1), l3.prove_newest(2));
        let path = |p: &RecordProof| match &p.chain {
            ChainPosition::Newest { audit_path, .. } => audit_path.clone(),
            ChainPosition::Link { .. } => unreachable!("a newest-version proof"),
        };
        let mut leaves = [t.chain.suffix_digest(b"T,0"), y.chain.suffix_digest(b"Y,3")];
        let anchor = Anchor::root(&c.root, 4);
        let (t_path, y_path) = (path(&t).into_iter(), path(&y).into_iter());
        assert!(verify_run_anchored(anchor, 4, 1, &mut leaves, t_path, y_path).is_some());
    }

    /// A level's crown is fenced by its first and last key: it excludes a
    /// range wholly before the first or after the last, and no gap between
    /// leaves. The bare root, and an empty level's crown, exclude nothing.
    #[test]
    fn crown_fence_is_the_first_and_last_key() {
        let l3 = level3(); // A, T, Y, Z
        let bare = Crown::root_only(l3.commitment().root, l3.leaf_count());
        assert!(!bare.excludes(b"0", b"9"));
        let crown = l3.crown(crate::CROWN_ROW_MAX);
        let excludes = |from: &[u8], to: &[u8]| crown.excludes(from, to);
        assert!(excludes(b"0", b"9") && excludes(b"0", b"@") && excludes(b"Z\0", b"zz"));
        assert!(!excludes(b"0", b"A") && !excludes(b"Z", b"zz") && !excludes(b"B", b"S"));
        assert!(!excludes(b"A", b"Z") && !excludes(b"0", b"zz"));
        let empty = LevelDigestBuilder::new(3).finish().crown(crate::CROWN_ROW_MAX);
        assert!(!empty.excludes(b"0", b"9"));
    }

    #[test]
    fn builder_rejects_unsorted_keys() {
        let mut b = LevelDigestBuilder::new(1);
        b.add(b"b", b"1").unwrap();
        assert_eq!(b.add(b"a", b"2"), Err(OutOfOrder));
        assert_eq!(b.add(b"b", b"1"), Err(OutOfOrder), "the same record twice");
        // The refused record left nothing behind.
        let took = LevelDigest::from_records(1, [(&b"b"[..], b"1".to_vec())]);
        assert_eq!(b.finish().commitment(), took.commitment());
    }

    #[test]
    fn empty_level_commitment() {
        let d = LevelDigestBuilder::new(5).finish();
        let c = d.commitment();
        assert!(c.is_empty());
        assert_eq!(c.root, Digest::ZERO);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let records = vec![
            (b"a".as_slice(), b"a9".to_vec()),
            (b"a".as_slice(), b"a3".to_vec()),
            (b"b".as_slice(), b"b1".to_vec()),
            (b"c".as_slice(), b"c7".to_vec()),
            (b"c".as_slice(), b"c5".to_vec()),
            (b"c".as_slice(), b"c2".to_vec()),
        ];
        let one_shot = LevelDigest::from_records(1, records.clone());
        let mut b = LevelDigestBuilder::new(1);
        for (k, r) in records {
            b.add(k, &r).unwrap();
        }
        let streamed = b.finish();
        assert_eq!(one_shot.commitment(), streamed.commitment());
    }

    /// The Figure 3 level L2 as `(key, bytes)` pairs.
    fn l2_records() -> Vec<(&'static [u8], Vec<u8>)> {
        vec![(b"T", b"T,4".to_vec()), (b"Z", b"Z,7".to_vec()), (b"Z", b"Z,6".to_vec())]
    }

    #[test]
    fn folded_records_name_their_chain() {
        let mut b = LevelDigestBuilder::new(2);
        for (k, r) in l2_records() {
            b.add(k, &r).unwrap();
        }
        assert_eq!(b.folded(1), None, "Z's chain still gathers");
        b.end_chain();
        let z6 = b.folded(2).unwrap();
        let z7 = b.folded(1).unwrap();
        assert_eq!((z7.version, z7.versions, z6.version, z6.versions), (0, 2, 1, 2));
        assert_eq!(z6.older, Digest::ZERO);
        assert_eq!(z7.older, z6.suffix);
        assert_eq!(z7.suffix, crate::chain::chain_digest(&[b"Z,7", b"Z,6"]));
        assert_eq!(b.folded(0).unwrap().versions, 1);
        assert_eq!(b.folded(3), None);
        assert_eq!(b.finish().commitment(), level2().commitment());
    }

    #[test]
    fn a_folded_key_cannot_come_back() {
        let mut b = LevelDigestBuilder::new(1);
        b.add(b"k", b"1").unwrap();
        b.end_chain();
        assert_eq!(b.add(b"k", b"2"), Err(OutOfOrder));
    }

    /// A carried digest is taken over exactly when the versions below the
    /// record folded to what they were below it before; the result is the
    /// digest of the records, however it was reached.
    #[test]
    fn carried_digests_are_taken_over_only_over_the_same_chain() {
        let mut input = LevelDigestBuilder::new(3);
        let old: Vec<(&[u8], &[u8])> =
            vec![(b"a", b"a5"), (b"a", b"a2"), (b"b", b"b4"), (b"c", b"c1")];
        for (k, r) in &old {
            input.add(k, r).unwrap();
        }
        input.end_chain();
        // The output: a fresh newer version of `a` over its carried chain,
        // `b` carried whole, and `c` over an older version it did not have
        // before.
        let out: Vec<(&[u8], &[u8], Option<usize>)> = vec![
            (b"a", b"a9", None),
            (b"a", b"a5", Some(0)),
            (b"a", b"a2", Some(1)),
            (b"b", b"b4", Some(2)),
            (b"c", b"c1", Some(3)),
            (b"c", b"c0", None),
        ];
        let mut output = LevelDigestBuilder::new(4);
        for (k, r, from) in &out {
            output.add_carried(k, r, from.and_then(|i| input.folded(i))).unwrap();
        }
        output.end_chain();
        assert_eq!(output.links_carried(), 3, "a5, a2 and b4");
        assert_eq!(output.links_hashed(), 3, "a9, c1 (its chain grew below it) and c0");
        let reference = LevelDigest::from_records(4, out.iter().map(|(k, r, _)| (*k, r.to_vec())));
        let built = output.finish();
        assert_eq!(built.commitment(), reference.commitment());
        for leaf in 0..built.leaf_count() {
            for version in 0..built.chain_len(leaf) {
                assert_eq!(
                    built.prove_version(leaf, version),
                    reference.prove_version(leaf, version)
                );
            }
        }
    }

    #[test]
    fn different_levels_different_commitments() {
        let a = LevelDigest::from_records(1, vec![(b"k".as_slice(), b"v".to_vec())]);
        let b = LevelDigest::from_records(2, vec![(b"k".as_slice(), b"v".to_vec())]);
        assert_eq!(a.commitment().root, b.commitment().root);
        assert_ne!(a.commitment().digest(), b.commitment().digest());
    }
}
