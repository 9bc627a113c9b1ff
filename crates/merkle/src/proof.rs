//! Record proofs and level commitments.
//!
//! A [`LevelCommitment`] is what the enclave keeps per LSM level: the
//! Merkle root, the leaf count (needed for boundary non-membership) and
//! the level number. A [`RecordProof`] is what travels *embedded inside a
//! record's value* (§5.2: "each record ⟨k, v‖πᵢ⟩ is augmented with its
//! proof"): the record's position in its version chain plus the audit path
//! from its chain head to the level root.

use elsm_crypto::{sha256_concat, Digest};

use crate::chain::{chain_link, ChainPosition};
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
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::LevelMismatch => f.write_str("proof level does not match commitment"),
            VerifyError::LeafCountMismatch => {
                f.write_str("proof leaf count does not match commitment")
            }
            VerifyError::BadAuditPath => f.write_str("audit path does not reach committed root"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The proof embedded in a record: chain position + Merkle audit path.
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
    /// Sibling hashes from the chain head to the level root.
    pub audit_path: Vec<Digest>,
}

impl RecordProof {
    /// Verifies the proof for a record's canonical bytes against the
    /// enclave's commitment for the level.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] naming the first check that failed.
    pub fn verify(
        &self,
        commitment: &LevelCommitment,
        record_bytes: &[u8],
    ) -> Result<(), VerifyError> {
        verify_parts(
            commitment,
            (self.level, self.leaf_index, self.leaf_count),
            || self.chain.chain_head(record_bytes),
            self.audit_path.iter().copied(),
        )
    }

    /// Serializes the proof (for embedding in stored values).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        let (newer, older_digest) = match &self.chain {
            ChainPosition::Newest { older_digest } => (None, older_digest),
            ChainPosition::Older { newer_records, older_digest } => {
                (Some(newer_records.iter().map(Vec::as_slice)), older_digest)
            }
        };
        encode_parts(
            &mut out,
            (self.level, self.leaf_index, self.leaf_count),
            newer,
            older_digest,
            self.audit_path.iter(),
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
        let newer = match &self.chain {
            ChainPosition::Newest { .. } => None,
            ChainPosition::Older { newer_records, .. } => {
                Some((newer_records.len(), newer_records.iter().map(Vec::len).sum()))
            }
        };
        encoded_len_parts(newer, self.audit_path.len())
    }
}

/// Bytes before the chain position: level, leaf index, leaf count, tag.
const HEADER_LEN: usize = 4 + 8 + 8 + 1;
const TAG_NEWEST: u8 = 0;
const TAG_OLDER: u8 = 1;

/// Size of an encoded proof whose chain position exposes `newer`
/// = `(record count, total record bytes)` (`None`: newest version) and
/// whose audit path holds `siblings` digests.
pub(crate) fn encoded_len_parts(newer: Option<(usize, usize)>, siblings: usize) -> usize {
    let chain = match newer {
        None => 32,
        Some((count, bytes)) => 4 + 4 * count + bytes + 32,
    };
    HEADER_LEN + chain + 4 + 32 * siblings
}

/// The one encoder of the proof format; [`RecordProof::encode`] and
/// [`crate::LevelDigest::encode_proof_into`] both write through it.
pub(crate) fn encode_parts<'r, 'd>(
    out: &mut Vec<u8>,
    (level, leaf_index, leaf_count): (u32, u64, u64),
    newer_records: Option<impl ExactSizeIterator<Item = &'r [u8]>>,
    older_digest: &Digest,
    siblings: impl Iterator<Item = &'d Digest> + Clone,
) {
    out.extend_from_slice(&level.to_le_bytes());
    out.extend_from_slice(&leaf_index.to_le_bytes());
    out.extend_from_slice(&leaf_count.to_le_bytes());
    match newer_records {
        None => out.push(TAG_NEWEST),
        Some(records) => {
            out.push(TAG_OLDER);
            out.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for r in records {
                out.extend_from_slice(&(r.len() as u32).to_le_bytes());
                out.extend_from_slice(r);
            }
        }
    }
    out.extend_from_slice(older_digest.as_bytes());
    out.extend_from_slice(&(siblings.clone().count() as u32).to_le_bytes());
    for d in siblings {
        out.extend_from_slice(d.as_bytes());
    }
}

/// The checks shared by the owned and the borrowed proof.
fn verify_parts(
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
    let ok = MerkleTree::verify_siblings(
        commitment.root,
        commitment.leaf_count as usize,
        leaf_index as usize,
        chain_head(),
        siblings,
    );
    if ok {
        Ok(())
    } else {
        Err(VerifyError::BadAuditPath)
    }
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
    newer: Option<NewerRecords<'a>>,
    older_digest: Digest,
    /// Sibling digests, 32 bytes each, bottom-up.
    audit_path: &'a [u8],
    encoded_len: usize,
}

/// The newer versions an older record's proof exposes, newest first:
/// `count` frames of `[len u32][bytes]`, validated when the proof parsed.
#[derive(Debug, Clone, Copy)]
pub struct NewerRecords<'a> {
    count: usize,
    frames: &'a [u8],
}

impl<'a> Iterator for NewerRecords<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.count == 0 {
            return None;
        }
        let (record, rest) = split_frame(self.frames)?;
        self.count -= 1;
        self.frames = rest;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.count, Some(self.count))
    }
}

impl ExactSizeIterator for NewerRecords<'_> {}

/// Splits one `[len u32][bytes]` frame off the front of `buf`.
fn split_frame(buf: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = split_u32(buf)?;
    let len = len as usize;
    (len <= rest.len()).then(|| rest.split_at(len))
}

fn split_array<const N: usize>(buf: &[u8]) -> Option<([u8; N], &[u8])> {
    if buf.len() < N {
        return None;
    }
    let (head, rest) = buf.split_at(N);
    Some((head.try_into().expect("split_at(N)"), rest))
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
        let (newer, rest) = match tag {
            TAG_NEWEST => (None, rest),
            TAG_OLDER => {
                let (count, frames) = split_u32(rest)?;
                // Walk the frames: the count is believed only as far as
                // the bytes bear it out.
                let mut after = frames;
                for _ in 0..count {
                    after = split_frame(after)?.1;
                }
                let frames = &frames[..frames.len() - after.len()];
                (Some(NewerRecords { count: count as usize, frames }), after)
            }
            _ => return None,
        };
        let (older_digest, rest) = split_digest(rest)?;
        let (siblings, rest) = split_u32(rest)?;
        let path_len = (siblings as usize).checked_mul(32)?;
        let audit_path = rest.get(..path_len)?;
        let encoded_len = buf.len() - rest.len() + path_len;
        Some(RecordProofRef {
            level,
            leaf_index,
            leaf_count,
            newer,
            older_digest,
            audit_path,
            encoded_len,
        })
    }

    /// Bytes the proof occupies in the buffer it was parsed from.
    pub fn encoded_len(&self) -> usize {
        self.encoded_len
    }

    /// Whether the proof places its record as the newest version of its
    /// key at the level. An older position — even one that lists no newer
    /// record — is a stale answer to a point query.
    pub fn is_newest(&self) -> bool {
        self.newer.is_none()
    }

    /// The newer versions' bytes this position exposes, newest first
    /// (empty for the newest).
    pub fn exposed_newer(&self) -> NewerRecords<'a> {
        self.newer.unwrap_or(NewerRecords { count: 0, frames: &[] })
    }

    /// Number of sibling digests in the audit path.
    pub fn audit_path_len(&self) -> usize {
        self.audit_path.len() / 32
    }

    fn siblings(&self) -> impl Iterator<Item = Digest> + 'a {
        self.audit_path
            .chunks_exact(32)
            .map(|d| Digest::from_bytes(d.try_into().expect("chunks_exact(32)")))
    }

    /// Recomputes the chain-head digest for `record_bytes` at this
    /// position (see [`ChainPosition::chain_head`]).
    pub fn chain_head(&self, record_bytes: &[u8]) -> Digest {
        let mut acc = chain_link(record_bytes, &self.older_digest);
        if let Some(newer) = self.newer {
            // Frames only read forwards; the chain folds oldest first.
            let newest_first: Vec<&[u8]> = newer.collect();
            for record in newest_first.into_iter().rev() {
                acc = chain_link(record, &acc);
            }
        }
        acc
    }

    /// Verifies the proof for a record's canonical bytes against the
    /// enclave's commitment for the level — [`RecordProof::verify`] on the
    /// stored bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] naming the first check that failed.
    pub fn verify(
        &self,
        commitment: &LevelCommitment,
        record_bytes: &[u8],
    ) -> Result<(), VerifyError> {
        verify_parts(
            commitment,
            (self.level, self.leaf_index, self.leaf_count),
            || self.chain_head(record_bytes),
            self.siblings(),
        )
    }

    /// Copies the proof out of its buffer. Capacities come from counts
    /// the parser already checked against the buffer, so they are bounded
    /// by its length (at most one newer record per 4 bytes, one sibling
    /// per 32).
    pub fn to_owned(&self) -> RecordProof {
        let older_digest = self.older_digest;
        let chain = match self.newer {
            None => ChainPosition::Newest { older_digest },
            Some(newer) => ChainPosition::Older {
                newer_records: newer.map(<[u8]>::to_vec).collect(),
                older_digest,
            },
        };
        RecordProof {
            level: self.level,
            leaf_index: self.leaf_index,
            leaf_count: self.leaf_count,
            chain,
            audit_path: self.siblings().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::chain_digest;

    fn setup() -> (LevelCommitment, RecordProof, Vec<u8>) {
        // Level with 4 keys; key index 2 has a 2-version chain.
        let recs2 = vec![b"k2-new".to_vec(), b"k2-old".to_vec()];
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
            chain: ChainPosition::Newest { older_digest: chain_digest(&recs2[1..]) },
            audit_path: tree.audit_path(2),
        };
        (commitment, proof, recs2[0].clone())
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
        // The old version with a "Newest" chain position cannot verify.
        let lying =
            RecordProof { chain: ChainPosition::Newest { older_digest: Digest::ZERO }, ..p };
        assert_eq!(lying.verify(&c, b"k2-old"), Err(VerifyError::BadAuditPath));
    }

    #[test]
    fn stale_version_with_honest_position_exposes_newer() {
        let (c, p, _) = setup();
        let honest_old = RecordProof {
            chain: ChainPosition::Older {
                newer_records: vec![b"k2-new".to_vec()],
                older_digest: Digest::ZERO,
            },
            ..p
        };
        // It verifies — but the verifier can now see the newer record's
        // bytes and detect staleness (the enclave-side check in elsm).
        assert_eq!(honest_old.verify(&c, b"k2-old"), Ok(()));
        assert_eq!(honest_old.chain.exposed_newer().len(), 1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, p, _) = setup();
        let bytes = p.encode();
        let (decoded, used) = RecordProof::decode(&bytes).unwrap();
        assert_eq!(decoded, p);
        assert_eq!(used, bytes.len());

        // Older variant too.
        let older = RecordProof {
            chain: ChainPosition::Older {
                newer_records: vec![b"a".to_vec(), b"bb".to_vec()],
                older_digest: Digest::ZERO,
            },
            ..p
        };
        let bytes = older.encode();
        let (decoded, _) = RecordProof::decode(&bytes).unwrap();
        assert_eq!(decoded, older);
    }

    #[test]
    fn decode_rejects_truncation() {
        let (_, p, _) = setup();
        let bytes = p.encode();
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(RecordProof::decode(&bytes[..cut]).is_none(), "cut={cut}");
        }
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
