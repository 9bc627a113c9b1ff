//! Record proofs and level commitments.
//!
//! A [`LevelCommitment`] is what the enclave keeps per LSM level: the
//! Merkle root, the leaf count (needed for boundary non-membership) and
//! the level number. A [`RecordProof`] is what travels *embedded inside a
//! record's value* (§5.2: "each record ⟨k, v‖πᵢ⟩ is augmented with its
//! proof"). It comes in two sizes:
//!
//! ```text
//! newest version  [level u32][leaf index u64][leaf count u64][0]
//!                 [older digest 32][n u32][n × sibling 32]      57 + 32·depth B
//! older version   [level u32][leaf index u64][leaf count u64][1]
//!                 [position u32][older digest 32]               LINK_LEN = 57 B
//! ```
//!
//! The newest version of a key — the chain head — carries the audit path
//! from its chain head to the level root and verifies on its own
//! ([`RecordProofRef::verify`]). Every older version stores one fixed-size
//! **link**: where it sits in the chain and the digest of what is older
//! still. A link names no newer record and has no path; alone it proves
//! nothing ([`VerifyError::NotChainHead`]). Older versions verify by
//! *walking*: [`RecordProofRef::walk`] starts at an authenticated head and
//! [`ChainWalk::step`] checks, one hash per version, that each presented
//! record is the next one the chain committed to. A key's stored proof
//! bytes are therefore linear in its version count.

use elsm_crypto::{sha256_concat, Digest};

use crate::chain::{chain_link_parts, ChainPosition};
use crate::crown::{Anchor, Work};
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
/// This is the *owned* form, built by provers and tests. Stored values are
/// read through [`RecordProofRef`], which parses and verifies the same
/// bytes without allocating; [`RecordProof::decode`] is that parser plus a
/// copy.
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
    /// enclave's commitment for the level.
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
            Anchor::root(&commitment.root, commitment.leaf_count as usize),
            (self.level, self.leaf_index, self.leaf_count),
            || self.chain.suffix_digest(record_bytes),
            audit_path.iter().copied(),
        )
        .map(drop)
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
        match &self.chain {
            ChainPosition::Newest { audit_path, .. } => head_encoded_len(audit_path.len()),
            ChainPosition::Link { .. } => LINK_LEN,
        }
    }
}

/// Bytes before the chain position: level, leaf index, leaf count, tag.
const HEADER_LEN: usize = 4 + 8 + 8 + 1;
const TAG_NEWEST: u8 = 0;
const TAG_LINK: u8 = 1;

/// Encoded size of every older version's proof: header, position, older
/// digest.
pub const LINK_LEN: usize = HEADER_LEN + 4 + 32;

/// Encoded size of a newest version's proof whose audit path holds
/// `siblings` digests.
pub(crate) fn head_encoded_len(siblings: usize) -> usize {
    HEADER_LEN + 32 + 4 + 32 * siblings
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
    out.extend_from_slice(&level.to_le_bytes());
    out.extend_from_slice(&leaf_index.to_le_bytes());
    out.extend_from_slice(&leaf_count.to_le_bytes());
    match link_position {
        None => {
            out.push(TAG_NEWEST);
            out.extend_from_slice(older_digest.as_bytes());
            out.extend_from_slice(&(siblings.clone().count() as u32).to_le_bytes());
            for d in siblings {
                out.extend_from_slice(d.as_bytes());
            }
        }
        Some(position) => {
            out.push(TAG_LINK);
            out.extend_from_slice(&position.to_le_bytes());
            out.extend_from_slice(older_digest.as_bytes());
        }
    }
}

/// The head checks shared by the owned and the borrowed proof: the
/// header against `commitment`, the path against `anchor` — the trusted
/// top rows of the tree `commitment.root` is the root of.
fn verify_head(
    commitment: &LevelCommitment,
    anchor: Anchor<'_>,
    (level, leaf_index, leaf_count): (u32, u64, u64),
    chain_head: impl FnOnce() -> Digest,
    siblings: impl Iterator<Item = Digest>,
) -> Result<Work, VerifyError> {
    if level != commitment.level {
        return Err(VerifyError::LevelMismatch);
    }
    if leaf_count != commitment.leaf_count {
        return Err(VerifyError::LeafCountMismatch);
    }
    MerkleTree::verify_siblings(
        anchor,
        commitment.leaf_count as usize,
        leaf_index as usize,
        chain_head(),
        siblings,
    )
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

fn split_array<const N: usize>(buf: &[u8]) -> Option<([u8; N], &[u8])> {
    let head = buf.get(..N)?.try_into().ok()?;
    Some((head, &buf[N..]))
}

fn split_u32(buf: &[u8]) -> Option<(u32, &[u8])> {
    split_array(buf).map(|(head, rest)| (u32::from_le_bytes(head), rest))
}

fn split_u64(buf: &[u8]) -> Option<(u64, &[u8])> {
    split_array(buf).map(|(head, rest)| (u64::from_le_bytes(head), rest))
}

fn split_digest(buf: &[u8]) -> Option<(Digest, &[u8])> {
    split_array(buf).map(|(head, rest)| (Digest::from_bytes(head), rest))
}

impl<'a> RecordProofRef<'a> {
    /// Parses the proof at the front of `buf`. `None` on any malformed or
    /// truncated input; bytes after the proof are left to the caller
    /// ([`RecordProofRef::encoded_len`] says where it ended).
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let (level, rest) = split_u32(buf)?;
        let (leaf_index, rest) = split_u64(rest)?;
        let (leaf_count, rest) = split_u64(rest)?;
        let (&tag, rest) = rest.split_first()?;
        let (link_position, older_digest, audit_path) = match tag {
            TAG_NEWEST => {
                let (older_digest, rest) = split_digest(rest)?;
                let (siblings, rest) = split_u32(rest)?;
                let path_len = (siblings as usize).checked_mul(32)?;
                (None, older_digest, rest.get(..path_len)?)
            }
            TAG_LINK => {
                // Position 0 is the head's; a link claiming it is malformed.
                let (position, rest) = split_u32(rest).filter(|(position, _)| *position > 0)?;
                let (older_digest, rest) = split_digest(rest)?;
                (Some(position), older_digest, &rest[..0])
            }
            _ => return None,
        };
        let encoded_len = match link_position {
            None => head_encoded_len(audit_path.len() / 32),
            Some(_) => LINK_LEN,
        };
        Some(RecordProofRef {
            level,
            leaf_index,
            leaf_count,
            link_position,
            older_digest,
            audit_path,
            encoded_len,
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
    /// stored bytes.
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
        let anchor = Anchor::root(&commitment.root, commitment.leaf_count as usize);
        self.verify_anchored(commitment, anchor, record_bytes).map(drop)
    }

    /// [`RecordProofRef::verify`] against `anchor`, the trusted top rows
    /// of the level's tree (see [`crate::crown`]): same verdicts, with the
    /// audit path hashed only below the anchor row. Says what was done.
    ///
    /// # Errors
    ///
    /// As [`RecordProofRef::verify`]. An `anchor` that is not of the tree
    /// `commitment` commits to rejects every proof.
    fn verify_anchored(
        &self,
        commitment: &LevelCommitment,
        anchor: Anchor<'_>,
        record_bytes: &[u8],
    ) -> Result<Work, VerifyError> {
        if self.link_position.is_some() {
            return Err(VerifyError::NotChainHead);
        }
        verify_head(
            commitment,
            anchor,
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
        assert_eq!(encoded.len(), LINK_LEN);
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
        for proof in [p, link(1), link(2)] {
            let bytes = proof.encode();
            assert_eq!(bytes.len(), proof.encoded_len());
            assert_eq!(RecordProof::decode(&bytes), Some((proof, bytes.len())));
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let (_, p, _) = setup();
        for bytes in [p.encode(), link(1).encode()] {
            for cut in [0, 1, 5, 21, 25, bytes.len() - 1] {
                assert!(RecordProof::decode(&bytes[..cut]).is_none(), "cut={cut}");
            }
        }
    }

    #[test]
    fn decode_rejects_unknown_tags_and_position_zero() {
        let mut bytes = link(1).encode();
        bytes[HEADER_LEN - 1] = 2;
        assert!(RecordProofRef::parse(&bytes).is_none(), "tag 2");
        bytes[HEADER_LEN - 1] = TAG_LINK;
        bytes[HEADER_LEN..HEADER_LEN + 4].fill(0);
        assert!(RecordProofRef::parse(&bytes).is_none(), "a link cannot be version 0");
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
