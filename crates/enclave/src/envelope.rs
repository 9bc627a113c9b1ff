//! The value envelope: how proofs are embedded inside stored values.
//!
//! §5.2: "each record at the level ⟨k, v⟩ is augmented with its eLSM proof
//! πᵢ, that is, ⟨k, v‖πᵢ⟩". We encode the stored value as a tagged
//! envelope so the same byte format flows through the vanilla store:
//!
//! ```text
//! [0x00][varint len][app value]                  — fresh write (no proof yet)
//! [0x01][varint len][app value][encoded proof]   — after compaction
//! ```
//!
//! The *canonical bytes* digested by every Merkle structure are the record
//! with its **bare** application value (the proof cannot be part of what it
//! proves).

use std::ops::Range;

use bytes::Bytes;
use lsm_boundary::encoding::{get_length_prefixed, put_varint_at};
use lsm_boundary::{EncodedParts, RecordView};
use merkle::RecordProofRef;

use crate::failure::VerificationFailure;

const TAG_PLAIN: u8 = 0x00;
const TAG_PROOF: u8 = 0x01;

/// Wraps a fresh application value (no proof).
pub fn wrap_plain(value: &[u8]) -> Bytes {
    Bytes::build(wrapped_len(value), |out| write_plain(out, value))
}

/// A fresh write's key and plain-enveloped value, built in **one** exactly
/// sized buffer that the two returned views share: what a PUT hands the
/// store, and what its memtable record then pins.
pub fn plain_record(key: &[u8], value: &[u8]) -> (Bytes, Bytes) {
    let record = Bytes::build(key.len() + wrapped_len(value), |out| {
        let (key_out, value_out) = out.split_at_mut(key.len());
        key_out.copy_from_slice(key);
        write_plain(value_out, value);
    });
    (record.slice(..key.len()), record.slice(key.len()..))
}

/// Writes `value`'s plain envelope into `out`, which is exactly
/// [`wrapped_len`] long.
fn write_plain(out: &mut [u8], value: &[u8]) {
    out[0] = TAG_PLAIN;
    let at = 1 + put_varint_at(&mut out[1..], value.len() as u64);
    out[at..].copy_from_slice(value);
}

/// Appends to `out` an application value together with its embedded
/// proof — how a merge writes a stored value straight into the table block
/// under construction. `write_proof` appends the encoded proof
/// ([`merkle::LevelDigest::encode_proof_into`], or a
/// [`merkle::RecordProof::encode`] copy).
pub fn append_with_proof(out: &mut Vec<u8>, value: &[u8], write_proof: impl FnOnce(&mut Vec<u8>)) {
    let mut head = [0u8; 11];
    head[0] = TAG_PROOF;
    let head_len = 1 + put_varint_at(&mut head[1..], value.len() as u64);
    out.extend_from_slice(&head[..head_len]);
    out.extend_from_slice(value);
    write_proof(out);
}

/// A stored value read in place: nothing is copied or allocated, the
/// proof stays a view of the stored bytes.
#[derive(Debug, Clone, Copy)]
pub struct Opened<'a> {
    /// The bare application value.
    pub value: &'a [u8],
    /// The embedded proof (`None` until a flush or compaction adds one).
    pub proof: Option<RecordProofRef<'a>>,
    /// Offset of `value` in the stored bytes.
    value_start: usize,
}

impl Opened<'_> {
    /// Where the application value sits in the stored bytes — what a
    /// zero-copy `Bytes::slice` of the stored value takes.
    pub fn value_range(&self) -> Range<usize> {
        self.value_start..self.value_start + self.value.len()
    }

    /// Encoded size of the embedded proof (0 without one).
    pub fn proof_bytes(&self) -> usize {
        self.proof.map_or(0, |p| p.encoded_len())
    }
}

/// Parses an envelope into its application value and optional proof.
///
/// Returns `None` on malformed envelopes (which verification treats as
/// forgery): unknown tag, truncated value, malformed proof, or bytes
/// after the end.
pub fn open(stored: &[u8]) -> Option<Opened<'_>> {
    let Some((&tag, rest)) = stored.split_first() else {
        // Tombstones carry no value at all; treat as plain-empty.
        return Some(Opened { value: &[], proof: None, value_start: 0 });
    };
    let (value, end) = get_length_prefixed(rest)?;
    let tail = &rest[end..];
    let proof = match tag {
        TAG_PLAIN if tail.is_empty() => None,
        TAG_PROOF => Some(RecordProofRef::parse(tail).filter(|p| p.encoded_len() == tail.len())?),
        _ => return None,
    };
    Some(Opened { value, proof, value_start: 1 + end - value.len() })
}

/// Appends the canonical bytes of a record — bare application value, no
/// envelope — the input to every chain and Merkle digest.
pub fn append_canonical(record: RecordView<'_>, bare_value: &[u8], out: &mut Vec<u8>) {
    record.encode_with_value_into(bare_value, out);
}

/// The canonical bytes [`append_canonical`] appends, as the pieces they
/// join: what a digest absorbs where the key and the value lie, with no
/// copy.
pub fn canonical_parts<'r>(record: RecordView<'r>, bare_value: &'r [u8]) -> EncodedParts<'r> {
    record.encoded_parts(bare_value)
}

/// Opens a stored record's envelope, mapping a malformed one to a
/// verification failure at `level`.
///
/// # Errors
///
/// Returns [`VerificationFailure::ForgedRecord`]-class errors on malformed
/// envelopes.
pub fn open_record(record: RecordView<'_>, level: u32) -> Result<Opened<'_>, VerificationFailure> {
    open(record.value).ok_or(VerificationFailure::ForgedRecord {
        level,
        source: merkle::VerifyError::BadAuditPath,
    })
}

/// Exact size of a plain envelope around `value`.
fn wrapped_len(value: &[u8]) -> usize {
    let len_bits = (64 - (value.len() as u64).leading_zeros()).max(1) as usize;
    1 + len_bits.div_ceil(7) + value.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_boundary::Record;
    use merkle::{ChainPosition, RecordProof};

    fn proof() -> RecordProof {
        RecordProof {
            level: 2,
            leaf_index: 5,
            leaf_count: 9,
            chain: ChainPosition::Newest {
                older_digest: elsm_crypto::Digest::ZERO,
                audit_path: vec![elsm_crypto::sha256(b"sib")],
            },
        }
    }

    fn wrap_with(value: &[u8], proof: &RecordProof) -> Bytes {
        let mut out = Vec::new();
        append_with_proof(&mut out, value, |out| out.extend_from_slice(&proof.encode()));
        Bytes::from(out)
    }

    fn canonical(record: &Record, bare_value: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        append_canonical(record.view(), bare_value, &mut out);
        out
    }

    #[test]
    fn plain_round_trip() {
        let w = wrap_plain(b"value bytes");
        let opened = open(&w).unwrap();
        assert_eq!(opened.value, b"value bytes");
        assert!(opened.proof.is_none());
        assert_eq!(&w[opened.value_range()], b"value bytes");
        assert_eq!(opened.proof_bytes(), 0);
    }

    #[test]
    fn proof_round_trip() {
        let w = wrap_with(b"value", &proof());
        let opened = open(&w).unwrap();
        assert_eq!(opened.value, b"value");
        assert_eq!(&w[opened.value_range()], b"value");
        assert_eq!(opened.proof.unwrap().to_owned(), proof());
        assert_eq!(opened.proof_bytes(), proof().encoded_len());
    }

    #[test]
    fn wrapped_buffers_are_sized_exactly() {
        for len in [0usize, 1, 127, 128, 16_383, 16_384, 70_000] {
            let value = vec![7u8; len];
            assert_eq!(wrap_plain(&value).len(), wrapped_len(&value), "len {len}");
            let p = proof();
            assert_eq!(wrap_with(&value, &p).len(), wrapped_len(&value) + p.encoded_len());
        }
    }

    #[test]
    fn plain_record_shares_one_buffer() {
        for len in [0usize, 1, 127, 128, 16_384] {
            let value = vec![3u8; len];
            let (key, stored) = plain_record(b"key", &value);
            assert_eq!(key, b"key"[..]);
            assert_eq!(stored, wrap_plain(&value), "len {len}");
            assert!(key.shares_storage(&stored));
        }
    }

    #[test]
    fn empty_value_round_trips() {
        let w = wrap_plain(b"");
        let opened = open(&w).unwrap();
        assert!(opened.value.is_empty() && opened.proof.is_none());
    }

    #[test]
    fn empty_stored_value_is_plain_empty() {
        let opened = open(b"").unwrap();
        assert!(opened.value.is_empty() && opened.proof.is_none());
        assert_eq!(opened.value_range(), 0..0);
    }

    #[test]
    fn garbage_rejected() {
        assert!(open(&[0x02, 1, b'x']).is_none());
        assert!(open(&[0x00, 5, b'x']).is_none(), "declared length too long");
        let mut w = wrap_plain(b"v").to_vec();
        w.push(0xff);
        assert!(open(&w).is_none(), "trailing bytes rejected");
        let mut w = wrap_with(b"v", &proof()).to_vec();
        w.push(0xff);
        assert!(open(&w).is_none(), "bytes after the proof rejected");
        w.truncate(w.len() - 2);
        assert!(open(&w).is_none(), "truncated proof rejected");
    }

    #[test]
    fn canonical_bytes_ignore_envelope() {
        let mut bare = Vec::new();
        Record::put(b"k".as_slice(), b"v".as_slice(), 3).encode_into(&mut bare);
        let enveloped = Record::put(b"k".as_slice(), wrap_plain(b"v"), 3);
        let enveloped2 = Record::put(b"k".as_slice(), wrap_with(b"v", &proof()), 3);
        assert_eq!(canonical(&enveloped, b"v"), bare);
        assert_eq!(canonical(&enveloped2, b"v"), bare);
        let parts = canonical_parts(enveloped2.view(), b"v");
        assert_eq!(parts.slices().concat(), bare);
        assert_eq!(parts.encoded_len(), bare.len());
    }

    #[test]
    fn open_record_rejects_malformed() {
        let bad = Record::put(b"k".as_slice(), b"\x07garbage".as_slice(), 3);
        assert!(open_record(bad.view(), 1).is_err());
    }
}
