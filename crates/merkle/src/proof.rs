//! Record proofs and level commitments.
//!
//! A [`LevelCommitment`] is what the enclave keeps per LSM level: the
//! Merkle root, the leaf count (needed for boundary non-membership) and
//! the level number. A [`RecordProof`] is what travels *embedded inside a
//! record's value* (§5.2: "each record ⟨k, v‖πᵢ⟩ is augmented with its
//! proof"), encoded compactly:
//!
//! ```text
//! [varint level][varint leaf index][varint leaf count][tag]
//!   tag bit 0: the proof is a chain link
//!   tag bit 1: the older digest is all zeros and not stored
//! newest version  [older digest 32 unless bit 1][varint n][n × sibling 32]
//! older version   [varint position ≥ 1][older digest 32 unless bit 1]
//! ```
//!
//! In a 2¹⁵-key level a key's only version stores at most 9 + 32·n bytes,
//! an older version at most 41 and the oldest of several at most 9.
//!
//! The newest version of a key — the chain head — carries the audit path
//! from its chain head up to the anchor row of the level's crown
//! ([`crate::crown`]): `n` is the number of rows below that row the path is
//! paired in, 0 when the crown holds the whole tree. It verifies on its own
//! against that crown (`merkle::verify_run_anchored`); against a bare root
//! ([`RecordProofRef::verify`]) only when the crown is the root alone and the
//! path is whole. Every older version stores one **link**: where it sits
//! in the chain and the digest of what is older still. A link names no
//! newer record and has no path; alone it proves nothing
//! ([`VerifyError::NotChainHead`]). Older versions verify by *walking*:
//! [`RecordProofRef::walk`] starts at an authenticated head and
//! [`ChainWalk::step`] checks, one hash per version, that each presented
//! record is the next one the chain committed to. A key's stored proof
//! bytes are therefore linear in its version count.
//!
//! Each proof has exactly one encoding: varints are minimal and fit their
//! field, no unknown tag bit is set, and bit 1 is set exactly when the
//! older digest is zero, so a stored all-zero digest is refused. The
//! encoding hashes nothing and moves no hashed byte: every field keeps its
//! value. A host that sets bit 1 on a record with older versions makes the
//! verifier hash a zero older digest, which fails as a stored zero digest
//! would.

use elsm_crypto::{sha256_concat, Digest};

use crate::chain::{chain_link_parts, ChainPosition};
use crate::crown::Anchor;
use crate::tree::MerkleTree;

/// What the enclave stores per level: `(level, root, leaf_count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCommitment {
    /// LSM level number (1-based).
    pub level: u32,
    /// Merkle root over the level's chain heads.
    pub root: Digest,
    /// Number of leaves (distinct user keys) at the level.
    pub leaf_count: u64,
}

impl LevelCommitment {
    /// Commitment for an empty level.
    pub fn empty(level: u32) -> Self {
        LevelCommitment { level, root: Digest::ZERO, leaf_count: 0 }
    }

    /// Whether the level holds no records.
    pub fn is_empty(&self) -> bool {
        self.leaf_count == 0
    }

    /// A single digest binding all fields, used for the monotonic-counter
    /// rollback defence (§5.6.1 hashes "the current dataset across all
    /// levels").
    pub fn digest(&self) -> Digest {
        sha256_concat(&[
            &[0x04],
            &self.level.to_be_bytes(),
            self.root.as_bytes(),
            &self.leaf_count.to_be_bytes(),
        ])
    }
}

/// Reasons a proof fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// Proof's claimed level number differs from the commitment's.
    LevelMismatch,
    /// Proof's claimed leaf count differs from the commitment's.
    LeafCountMismatch,
    /// The audit path does not reach the committed root.
    BadAuditPath,
    /// The proof is a chain link: it places its record below a newer
    /// version and proves nothing without the chain above it.
    NotChainHead,
    /// A presented version is not the next one its chain committed to:
    /// wrong position, wrong leaf, or its bytes and older digest do not
    /// hash to what the version above it names.
    BrokenChain,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VerifyError::LevelMismatch => "proof level does not match commitment",
            VerifyError::LeafCountMismatch => "proof leaf count does not match commitment",
            VerifyError::BadAuditPath => "audit path does not reach committed root",
            VerifyError::NotChainHead => "proof is a chain link, not a chain head",
            VerifyError::BrokenChain => "version is not the next link of its chain",
        })
    }
}

impl std::error::Error for VerifyError {}

/// The proof embedded in a record: its level, leaf and chain position
/// (which, for the newest version, includes the Merkle audit path).
///
/// This is the *owned* form. Stored values are read through
/// [`RecordProofRef`], which parses and verifies the same bytes without
/// allocating; [`RecordProof::decode`] is that parser plus a copy.
///
/// No enclave code builds, encodes or verifies an owned proof: it is the
/// oracle the tests compare the in-place prover and verifier against
/// (`tests/proof_identity.rs`, with [`crate::chain_digest`],
/// [`LevelDigest::prove_version`](crate::LevelDigest::prove_version),
/// [`RecordProofRef::verify`] and [`RecordProofRef::to_owned`]), kept
/// public until one reference verifier replaces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordProof {
    /// Level the record resides at.
    pub level: u32,
    /// Leaf index of the record's key within the level.
    pub leaf_index: u64,
    /// Leaf count of the level at proof-generation time.
    pub leaf_count: u64,
    /// Position within the key's version chain.
    pub chain: ChainPosition,
}

impl RecordProof {
    /// Verifies the proof for a record's canonical bytes against the
    /// enclave's commitment for the level, by a walk to its root: the audit
    /// path must be whole.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] naming the first check that failed; a
    /// link is [`VerifyError::NotChainHead`] whatever the bytes.
    pub fn verify(
        &self,
        commitment: &LevelCommitment,
        record_bytes: &[u8],
    ) -> Result<(), VerifyError> {
        let ChainPosition::Newest { audit_path, .. } = &self.chain else {
            return Err(VerifyError::NotChainHead);
        };
        verify_head(
            commitment,
            (self.level, self.leaf_index, self.leaf_count),
            || self.chain.suffix_digest(record_bytes),
            audit_path.iter().copied(),
        )
    }

    /// Serializes the proof (for embedding in stored values).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        let (link_position, audit_path) = match &self.chain {
            ChainPosition::Newest { audit_path, .. } => (None, audit_path.as_slice()),
            ChainPosition::Link { position, .. } => (Some(*position), [].as_slice()),
        };
        encode_parts(
            &mut out,
            (self.level, self.leaf_index, self.leaf_count),
            link_position,
            self.chain.older_digest(),
            audit_path.iter(),
        );
        out
    }

    /// Parses a proof serialized by [`RecordProof::encode`], returning it
    /// with the number of bytes it occupied.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let proof = RecordProofRef::parse(buf)?;
        Some((proof.to_owned(), proof.encoded_len()))
    }

    /// Serialized size in bytes (computed, not serialized to measure).
    pub fn encoded_len(&self) -> usize {
        let (link_position, siblings) = match &self.chain {
            ChainPosition::Newest { audit_path, .. } => (None, audit_path.len()),
            ChainPosition::Link { position, .. } => (Some(*position), 0),
        };
        encoded_len(
            (self.level, self.leaf_index, self.leaf_count),
            link_position,
            self.chain.older_digest(),
            siblings,
        )
    }
}

/// Tag bit 0: the proof is a chain link, not a newest version's.
const TAG_LINK: u8 = 1;
/// Tag bit 1: the older digest is all zeros and is not stored.
const TAG_NO_OLDER: u8 = 2;

/// Length of `v`'s minimal LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Appends `v` as a minimal LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Encoded size of a proof: `link_position` selects the form as in
/// [`encode_parts`], `siblings` is the head's path length (a link has
/// none).
pub(crate) fn encoded_len(
    (level, leaf_index, leaf_count): (u32, u64, u64),
    link_position: Option<u32>,
    older_digest: &Digest,
    siblings: usize,
) -> usize {
    let older = if *older_digest == Digest::ZERO { 0 } else { 32 };
    let header = varint_len(level.into()) + varint_len(leaf_index) + varint_len(leaf_count) + 1;
    header
        + older
        + match link_position {
            None => varint_len(siblings as u64) + 32 * siblings,
            Some(position) => varint_len(position.into()),
        }
}

/// The one encoder of the proof format; [`RecordProof::encode`] and
/// [`crate::LevelDigest::encode_proof_into`] both write through it.
/// `link_position` selects the form: `None` writes a newest-version proof
/// with `siblings` as its audit path, `Some(v)` writes the link for
/// version `v` (which has no path; `siblings` is not read).
pub(crate) fn encode_parts<'d>(
    out: &mut Vec<u8>,
    (level, leaf_index, leaf_count): (u32, u64, u64),
    link_position: Option<u32>,
    older_digest: &Digest,
    siblings: impl Iterator<Item = &'d Digest> + Clone,
) {
    put_varint(out, level.into());
    put_varint(out, leaf_index);
    put_varint(out, leaf_count);
    let older: &[u8] = if *older_digest == Digest::ZERO { &[] } else { older_digest.as_bytes() };
    let no_older = if older.is_empty() { TAG_NO_OLDER } else { 0 };
    match link_position {
        None => {
            out.push(no_older);
            out.extend_from_slice(older);
            put_varint(out, siblings.clone().count() as u64);
            for d in siblings {
                out.extend_from_slice(d.as_bytes());
            }
        }
        Some(position) => {
            out.push(TAG_LINK | no_older);
            put_varint(out, position.into());
            out.extend_from_slice(older);
        }
    }
}

/// The head checks shared by the owned and the borrowed proof: the
/// header against `commitment`, the path walked to its root.
fn verify_head(
    commitment: &LevelCommitment,
    (level, leaf_index, leaf_count): (u32, u64, u64),
    chain_head: impl FnOnce() -> Digest,
    siblings: impl Iterator<Item = Digest>,
) -> Result<(), VerifyError> {
    if level != commitment.level {
        return Err(VerifyError::LevelMismatch);
    }
    if leaf_count != commitment.leaf_count {
        return Err(VerifyError::LeafCountMismatch);
    }
    let leaves = commitment.leaf_count as usize;
    let anchor = Anchor::root(&commitment.root, leaves);
    MerkleTree::verify_siblings(anchor, leaves, leaf_index as usize, chain_head(), siblings)
        .map(drop)
        .ok_or(VerifyError::BadAuditPath)
}

/// A proof read in place from a stored value: the only decoder of the
/// format. Parsing validates the whole structure (so a malformed tail is
/// rejected exactly as the owned decoder rejected it) and reserves
/// nothing — every count in the input is checked against the bytes that
/// are actually there, never used as a capacity.
#[derive(Debug, Clone, Copy)]
pub struct RecordProofRef<'a> {
    /// Level the record resides at.
    pub level: u32,
    /// Leaf index of the record's key within the level.
    pub leaf_index: u64,
    /// Leaf count of the level at proof-generation time.
    pub leaf_count: u64,
    /// `None`: the record claims to be the newest version of its key.
    link_position: Option<u32>,
    older_digest: Digest,
    /// Sibling digests, 32 bytes each, bottom-up (empty for a link).
    audit_path: &'a [u8],
    encoded_len: usize,
}

/// Reads the minimal LEB128 varint at the front of `buf`: at most ten
/// bytes, fitting a `u64`, and no trailing zero group.
fn split_varint(buf: &[u8]) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        // The tenth group holds bit 63 alone.
        if i == 9 && byte > 1 {
            return None;
        }
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            return (byte != 0 || i == 0).then(|| (value, &buf[i + 1..]));
        }
    }
    None
}

fn split_varint_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    let (value, rest) = split_varint(buf)?;
    Some((u32::try_from(value).ok()?, rest))
}

/// Reads the older digest: none stored under `TAG_NO_OLDER`, else 32
/// bytes that are not all zero.
fn split_older(tag: u8, buf: &[u8]) -> Option<(Digest, &[u8])> {
    if tag & TAG_NO_OLDER != 0 {
        return Some((Digest::ZERO, buf));
    }
    let head: [u8; 32] = buf.get(..32)?.try_into().ok()?;
    let digest = Digest::from_bytes(head);
    (digest != Digest::ZERO).then(|| (digest, &buf[32..]))
}

impl<'a> RecordProofRef<'a> {
    /// Parses the proof at the front of `buf`. `None` on any malformed or
    /// truncated input; bytes after the proof are left to the caller
    /// ([`RecordProofRef::encoded_len`] says where it ended).
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let (level, rest) = split_varint_u32(buf)?;
        let (leaf_index, rest) = split_varint(rest)?;
        let (leaf_count, rest) = split_varint(rest)?;
        let (&tag, rest) = rest.split_first()?;
        if tag & !(TAG_LINK | TAG_NO_OLDER) != 0 {
            return None;
        }
        let (link_position, older_digest, audit_path, rest) = if tag & TAG_LINK == 0 {
            let (older_digest, rest) = split_older(tag, rest)?;
            let (siblings, rest) = split_varint(rest)?;
            let path_len = usize::try_from(siblings).ok()?.checked_mul(32)?;
            (None, older_digest, rest.get(..path_len)?, rest.get(path_len..)?)
        } else {
            // Position 0 is the head's; a link claiming it is malformed.
            let (position, rest) = split_varint_u32(rest).filter(|(position, _)| *position > 0)?;
            let (older_digest, rest) = split_older(tag, rest)?;
            (Some(position), older_digest, &rest[..0], rest)
        };
        Some(RecordProofRef {
            level,
            leaf_index,
            leaf_count,
            link_position,
            older_digest,
            audit_path,
            encoded_len: buf.len() - rest.len(),
        })
    }

    /// Bytes the proof occupies in the buffer it was parsed from.
    pub fn encoded_len(&self) -> usize {
        self.encoded_len
    }

    /// `None` when the proof places its record as the newest version of
    /// its key at the level; `Some(v)` when it is the link of version `v`,
    /// below `v ≥ 1` newer ones — by its own claim a stale answer to a
    /// point query.
    pub fn link_position(&self) -> Option<u32> {
        self.link_position
    }

    /// The audit path's sibling digests, bottom-up (none for a link).
    // `chunks_exact(32)` yields 32-byte chunks whatever the host wrote, and
    // the exact-size `map` lets a caller collect the path in one allocation.
    #[allow(clippy::expect_used)]
    pub fn siblings(&self) -> impl Iterator<Item = Digest> + 'a {
        self.audit_path
            .chunks_exact(32)
            .map(|d| Digest::from_bytes(d.try_into().expect("chunks_exact(32)")))
    }

    /// Chain digest of the record whose bytes are `record_parts` joined,
    /// at this position and everything older (see
    /// [`ChainPosition::suffix_digest`]): the key's Merkle leaf when the
    /// proof is a newest claim. The parts are hashed where they lie.
    pub fn suffix_digest(&self, record_parts: &[&[u8]]) -> Digest {
        chain_link_parts(record_parts, &self.older_digest)
    }

    /// Verifies the proof for a record's canonical bytes against the
    /// enclave's commitment for the level — [`RecordProof::verify`] on the
    /// stored bytes: a walk to the root, so the audit path must be whole,
    /// as a proof written for the one-row crown stores it.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] naming the first check that failed; a
    /// link is [`VerifyError::NotChainHead`] before anything is hashed.
    pub fn verify(
        &self,
        commitment: &LevelCommitment,
        record_bytes: &[u8],
    ) -> Result<(), VerifyError> {
        if self.link_position.is_some() {
            return Err(VerifyError::NotChainHead);
        }
        verify_head(
            commitment,
            (self.level, self.leaf_index, self.leaf_count),
            || self.suffix_digest(&[record_bytes]),
            self.siblings(),
        )
    }

    /// Starts the walk down this proof's chain. The caller authenticates
    /// the head itself — by [`RecordProofRef::verify`], or by proving the
    /// leaf [`RecordProofRef::suffix_digest`] gives within a range — and
    /// then every version [`ChainWalk::step`] accepts is authentic too.
    ///
    /// # Errors
    ///
    /// [`VerifyError::NotChainHead`] when this proof is a link.
    pub fn walk(&self) -> Result<ChainWalk, VerifyError> {
        if self.link_position.is_some() {
            return Err(VerifyError::NotChainHead);
        }
        Ok(ChainWalk {
            header: (self.level, self.leaf_index, self.leaf_count),
            position: 1,
            expected: self.older_digest,
        })
    }

    /// Copies the proof out of its buffer. The audit path's capacity comes
    /// from a count the parser already checked against the buffer, so it
    /// is bounded by its length (one sibling per 32 bytes).
    pub fn to_owned(&self) -> RecordProof {
        let older_digest = self.older_digest;
        let chain = match self.link_position {
            None => ChainPosition::Newest { older_digest, audit_path: self.siblings().collect() },
            Some(position) => ChainPosition::Link { position, older_digest },
        };
        RecordProof {
            level: self.level,
            leaf_index: self.leaf_index,
            leaf_count: self.leaf_count,
            chain,
        }
    }
}

/// The one chain-walk: checks the older versions of a key, newest first,
/// against what the version above each committed to. Collision resistance
/// makes every chain digest bind the whole older suffix, so walking down
/// from an authenticated head authenticates each accepted version *and its
/// position* — the accept set is a prefix of the committed chain, in
/// order, at one hash per version.
#[derive(Debug, Clone)]
pub struct ChainWalk {
    /// `(level, leaf index, leaf count)` of the head; every link must
    /// repeat them.
    header: (u32, u64, u64),
    /// Position the next presented version must claim.
    position: u32,
    /// What the next version must hash to: the older digest of the one
    /// above it.
    expected: Digest,
}

impl ChainWalk {
    /// Accepts the record whose bytes are `record_parts` joined as the
    /// next older version of the chain if `link` is its link: same level,
    /// leaf and leaf count as the head, the next position, and
    /// `link(record bytes, link's older digest)` equal to the digest the
    /// previous version named.
    ///
    /// # Errors
    ///
    /// [`VerifyError::BrokenChain`] otherwise; the walk does not advance.
    pub fn step(
        &mut self,
        link: &RecordProofRef<'_>,
        record_parts: &[&[u8]],
    ) -> Result<(), VerifyError> {
        if link.link_position != Some(self.position)
            || (link.level, link.leaf_index, link.leaf_count) != self.header
            || link.suffix_digest(record_parts) != self.expected
        {
            return Err(VerifyError::BrokenChain);
        }
        self.position = self.position.checked_add(1).ok_or(VerifyError::BrokenChain)?;
        self.expected = link.older_digest;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::chain_digest;

    /// Level with 4 keys; key index 2 has a 3-version chain.
    fn k2_chain() -> Vec<Vec<u8>> {
        vec![b"k2-new".to_vec(), b"k2-mid".to_vec(), b"k2-old".to_vec()]
    }

    fn setup() -> (LevelCommitment, RecordProof, Vec<u8>) {
        let recs2 = k2_chain();
        let leaves = vec![
            chain_digest(&[b"k0".to_vec()]),
            chain_digest(&[b"k1".to_vec()]),
            chain_digest(&recs2),
            chain_digest(&[b"k3".to_vec()]),
        ];
        let tree = MerkleTree::from_leaves(leaves);
        let commitment = LevelCommitment { level: 2, root: tree.root(), leaf_count: 4 };
        let proof = RecordProof {
            level: 2,
            leaf_index: 2,
            leaf_count: 4,
            chain: ChainPosition::Newest {
                older_digest: chain_digest(&recs2[1..]),
                audit_path: tree.audit_path(2),
            },
        };
        (commitment, proof, recs2[0].clone())
    }

    /// The honest link of version `position` of key 2.
    fn link(position: u32) -> RecordProof {
        let (_, head, _) = setup();
        let older_digest = chain_digest(&k2_chain()[position as usize + 1..]);
        RecordProof { chain: ChainPosition::Link { position, older_digest }, ..head }
    }

    /// Walks `versions` (`(link, bytes)`, newest first) down from the
    /// honest head, returning the first failure.
    fn walk(versions: &[(RecordProof, &[u8])]) -> Result<(), VerifyError> {
        let (commitment, head, head_bytes) = setup();
        let encoded = head.encode();
        let head = RecordProofRef::parse(&encoded).unwrap();
        head.verify(&commitment, &head_bytes)?;
        let mut walk = head.walk()?;
        for (link, bytes) in versions {
            let encoded = link.encode();
            walk.step(&RecordProofRef::parse(&encoded).unwrap(), &[bytes])?;
        }
        Ok(())
    }

    #[test]
    fn valid_proof_verifies() {
        let (c, p, bytes) = setup();
        assert_eq!(p.verify(&c, &bytes), Ok(()));
    }

    #[test]
    fn forged_record_rejected() {
        let (c, p, _) = setup();
        assert_eq!(p.verify(&c, b"forged bytes"), Err(VerifyError::BadAuditPath));
    }

    #[test]
    fn wrong_level_rejected() {
        let (c, mut p, bytes) = setup();
        p.level = 3;
        assert_eq!(p.verify(&c, &bytes), Err(VerifyError::LevelMismatch));
    }

    #[test]
    fn wrong_leaf_count_rejected() {
        let (c, mut p, bytes) = setup();
        p.leaf_count = 5;
        assert_eq!(p.verify(&c, &bytes), Err(VerifyError::LeafCountMismatch));
    }

    #[test]
    fn stale_version_claiming_newest_rejected() {
        let (c, p, _) = setup();
        // An old version relabelled as the head cannot verify, whichever
        // older digest it is paired with.
        let ChainPosition::Newest { audit_path, .. } = p.chain.clone() else { unreachable!() };
        for older_digest in [Digest::ZERO, *link(1).chain.older_digest()] {
            let chain = ChainPosition::Newest { older_digest, audit_path: audit_path.clone() };
            let lying = RecordProof { chain, ..p.clone() };
            assert_eq!(lying.verify(&c, b"k2-mid"), Err(VerifyError::BadAuditPath));
            assert_eq!(lying.verify(&c, b"k2-old"), Err(VerifyError::BadAuditPath));
        }
    }

    #[test]
    fn lone_link_never_verifies() {
        let (c, _, _) = setup();
        let honest = link(1);
        assert_eq!(honest.verify(&c, b"k2-mid"), Err(VerifyError::NotChainHead));
        let encoded = honest.encode();
        // Level 2, leaf 2 of 4, the link tag, position 1: a byte each,
        // then the older digest.
        assert_eq!(encoded.len(), 5 + 32);
        let borrowed = RecordProofRef::parse(&encoded).unwrap();
        assert_eq!(borrowed.link_position(), Some(1));
        assert_eq!(borrowed.verify(&c, b"k2-mid"), Err(VerifyError::NotChainHead));
        assert_eq!(borrowed.walk().err(), Some(VerifyError::NotChainHead));
    }

    #[test]
    fn walk_accepts_the_chain_and_every_prefix_of_it() {
        assert_eq!(walk(&[]), Ok(()));
        assert_eq!(walk(&[(link(1), b"k2-mid")]), Ok(()));
        assert_eq!(walk(&[(link(1), b"k2-mid"), (link(2), b"k2-old")]), Ok(()));
    }

    #[test]
    fn walk_rejects_anything_but_the_next_version() {
        let broken = Err(VerifyError::BrokenChain);
        // A middle version dropped, two versions swapped, one repeated.
        assert_eq!(walk(&[(link(2), b"k2-old")]), broken);
        assert_eq!(walk(&[(link(2), b"k2-old"), (link(1), b"k2-mid")]), broken);
        assert_eq!(walk(&[(link(1), b"k2-mid"), (link(1), b"k2-mid")]), broken);
        // The right link around the wrong bytes.
        assert_eq!(walk(&[(link(1), b"k2-MID")]), broken);
        // The right digest under the wrong position, and the reverse.
        let mid_older = *link(1).chain.older_digest();
        let relabelled = ChainPosition::Link { position: 2, older_digest: mid_older };
        assert_eq!(walk(&[(RecordProof { chain: relabelled, ..link(1) }, b"k2-mid")]), broken);
        let altered = ChainPosition::Link { position: 1, older_digest: Digest::ZERO };
        assert_eq!(walk(&[(RecordProof { chain: altered, ..link(1) }, b"k2-mid")]), broken);
        // A link that names another leaf, level or leaf count than its head.
        for other in [
            RecordProof { leaf_index: 1, ..link(1) },
            RecordProof { level: 3, ..link(1) },
            RecordProof { leaf_count: 5, ..link(1) },
        ] {
            assert_eq!(walk(&[(other, b"k2-mid")]), broken);
        }
        // A head offered as a step.
        let (_, head, head_bytes) = setup();
        assert_eq!(walk(&[(head, &head_bytes)]), broken);
    }

    #[test]
    fn failed_step_leaves_the_walk_where_it_was() {
        let (_, head, _) = setup();
        let encoded = head.encode();
        let mut walk = RecordProofRef::parse(&encoded).unwrap().walk().unwrap();
        let (mid, old) = (link(1).encode(), link(2).encode());
        let (mid, old) =
            (RecordProofRef::parse(&mid).unwrap(), RecordProofRef::parse(&old).unwrap());
        assert_eq!(walk.step(&old, &[b"k2-old"]), Err(VerifyError::BrokenChain));
        assert_eq!(walk.step(&mid, &[b"k2-mid"]), Ok(()));
        assert_eq!(walk.step(&old, &[b"k2-old"]), Ok(()));
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, p, _) = setup();
        // A head with its older digest and two siblings; the middle link
        // with its older digest; the oldest link, whose older digest is
        // zero and not stored.
        for (proof, len) in [(p, 4 + 32 + 1 + 64), (link(1), 5 + 32), (link(2), 5)] {
            let bytes = proof.encode();
            assert_eq!(bytes.len(), len);
            assert_eq!(bytes.len(), proof.encoded_len());
            assert_eq!(RecordProof::decode(&bytes), Some((proof, bytes.len())));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let (_, p, _) = setup();
        for bytes in [p.encode(), link(1).encode(), link(2).encode()] {
            for cut in 0..bytes.len() {
                assert!(RecordProof::decode(&bytes[..cut]).is_none(), "cut={cut}");
            }
        }
    }

    /// `v` as a minimal LEB128 varint.
    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    /// A proof assembled from raw parts.
    fn raw(parts: &[&[u8]]) -> Vec<u8> {
        parts.concat()
    }

    #[test]
    fn varints_are_minimal_leb128() {
        for v in [0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let bytes = varint(v);
            assert_eq!(bytes.len(), varint_len(v), "{v}");
            assert_eq!(split_varint(&bytes), Some((v, &[][..])), "{v}");
        }
        assert_eq!(varint(u64::MAX).len(), 10);
        assert_eq!([varint_len(0x7f), varint_len(0x80), varint_len(1 << 15)], [1, 2, 3]);
    }

    /// Every malformed or non-canonical field is refused, beside an honest
    /// proof that differs from it in that field alone.
    #[test]
    fn decode_rejects_malformed_varints_and_tags() {
        let head_tag = [TAG_NO_OLDER];
        let sibling = [9u8; 32];
        let honest = raw(&[&[2], &[1], &[4], &head_tag, &[1], &sibling]);
        assert!(RecordProofRef::parse(&honest).is_some());
        // The widest fields that fit: level u32::MAX, leaf index u64::MAX.
        let widest =
            raw(&[&varint(u32::MAX.into()), &varint(u64::MAX), &[4], &head_tag, &[1], &sibling]);
        let parsed = RecordProofRef::parse(&widest).unwrap();
        assert_eq!((parsed.level, parsed.leaf_index), (u32::MAX, u64::MAX));
        let honest_link = raw(&[&[2], &[1], &[4], &[TAG_LINK], &[1], &[7; 32]]);
        assert!(RecordProofRef::parse(&honest_link).is_some());

        let mut eleven = vec![0xff; 10];
        eleven.push(0x01);
        let cases: [(&str, Vec<u8>); 12] = [
            ("overlong level", raw(&[&[0x82, 0x00], &[1], &[4], &head_tag, &[1], &sibling])),
            ("overlong zero", raw(&[&[2], &[0x80, 0x00], &[4], &head_tag, &[1], &sibling])),
            ("11-byte leaf count", raw(&[&[2], &[1], &eleven, &head_tag, &[1], &sibling])),
            (
                "10-byte varint past u64",
                raw(&[&[2], &[1], &[&[0xff; 9][..], &[0x02]].concat(), &head_tag, &[1], &sibling]),
            ),
            (
                "level above u32::MAX",
                raw(&[&varint(1 << 32), &[1], &[4], &head_tag, &[1], &sibling]),
            ),
            ("tag bit 2", raw(&[&[2], &[1], &[4], &[TAG_NO_OLDER | 4], &[1], &sibling])),
            ("tag bit 7", raw(&[&[2], &[1], &[4], &[TAG_LINK | 0x80], &[1], &[7; 32]])),
            // The digest the tag says is absent, read as the sibling count.
            ("bit 1 with a digest", raw(&[&[2], &[1], &[4], &head_tag, &[5; 32], &[0]])),
            ("stored zero head digest", raw(&[&[2], &[1], &[4], &[0], &[0; 32], &[0]])),
            ("stored zero link digest", raw(&[&[2], &[1], &[4], &[TAG_LINK], &[1], &[0; 32]])),
            (
                "sibling count ×32 overflows",
                raw(&[&[2], &[1], &[4], &head_tag, &varint(u64::MAX / 32 + 1), &sibling]),
            ),
            ("link position 0", raw(&[&[2], &[1], &[4], &[TAG_LINK | TAG_NO_OLDER], &[0]])),
        ];
        for (name, bytes) in cases {
            assert!(RecordProofRef::parse(&bytes).is_none(), "{name}");
        }
        let truncated_path = raw(&[&[2], &[1], &[4], &head_tag, &[2], &sibling]);
        assert!(RecordProofRef::parse(&truncated_path).is_none(), "truncated path");
    }

    #[test]
    fn commitment_digest_binds_all_fields() {
        let c = LevelCommitment { level: 1, root: chain_digest(&[b"x".to_vec()]), leaf_count: 9 };
        let mut c2 = c;
        c2.leaf_count = 10;
        assert_ne!(c.digest(), c2.digest());
        let mut c3 = c;
        c3.level = 2;
        assert_ne!(c.digest(), c3.digest());
    }
}
