//! Key-value records, `lsm_boundary::record`'s, re-exported beside the
//! seek key and encoded-key helpers only the engine uses.

pub use lsm_boundary::record::{
    internal_cmp, EncodedParts, InternalKey, Record, RecordView, Timestamp, ValueKind,
};
use lsm_boundary::record::{pack_suffix, unpack_suffix};

/// Splits an *encoded* internal key into the user key and the unpacked
/// suffix; `None` if shorter than the suffix.
pub(crate) fn parse_internal_key(encoded: &[u8]) -> Option<(&[u8], Timestamp, ValueKind)> {
    let (user_key, suffix) = encoded.split_at(encoded.len().checked_sub(8)?);
    let (ts, kind) = unpack_suffix(u64::from_be_bytes(suffix.try_into().expect("8-byte suffix")));
    Some((user_key, ts, kind))
}

/// The user key of an *encoded* internal key, in place.
pub(crate) fn user_key_of(encoded: &[u8]) -> &[u8] {
    &encoded[..encoded.len().saturating_sub(8)]
}

/// An internal key held as its two parts — the caller's user key and the
/// suffix on the stack — and compared against encoded keys in place: what
/// a read seeks to, without building the encoded key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeekKey<'a> {
    user_key: &'a [u8],
    suffix: [u8; 8],
}

impl<'a> SeekKey<'a> {
    /// The internal key `(user_key, ts, kind)`.
    pub(crate) fn new(user_key: &'a [u8], ts: Timestamp, kind: ValueKind) -> Self {
        SeekKey { user_key, suffix: pack_suffix(ts, kind).to_be_bytes() }
    }

    /// The smallest internal key for `user_key`: seeks placed here find
    /// its *newest* record first.
    pub(crate) fn newest(user_key: &'a [u8]) -> Self {
        Self::new(user_key, Timestamp::MAX >> 2, ValueKind::Put)
    }

    /// How the *encoded* internal key `encoded` orders against this one —
    /// `internal_cmp(encoded, self)` without encoding `self`.
    pub(crate) fn cmp_encoded(&self, encoded: &[u8]) -> std::cmp::Ordering {
        let (user_key, suffix) = encoded.split_at(encoded.len().saturating_sub(8));
        user_key.cmp(self.user_key).then_with(|| suffix.cmp(&self.suffix))
    }

    /// How `record`'s internal key orders against this one, read off its
    /// fields: nothing is encoded on either side.
    pub(crate) fn cmp_record(&self, record: &Record) -> std::cmp::Ordering {
        let suffix = u64::from_be_bytes(self.suffix);
        record.key[..].cmp(self.user_key).then_with(|| record.view().suffix().cmp(&suffix))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;

    /// Record constructors and encodings only the engine's tests use: the
    /// engine builds records from write batches and encodes them in place.
    pub(crate) trait RecordFixtures {
        fn tombstone(key: impl Into<Bytes>, ts: Timestamp) -> Self;
        fn vlog_put(key: impl Into<Bytes>, pointer: impl Into<Bytes>, ts: Timestamp) -> Self;
        fn internal_key(&self) -> InternalKey;
        fn encode(&self) -> Vec<u8>;
    }

    impl RecordFixtures for Record {
        fn tombstone(key: impl Into<Bytes>, ts: Timestamp) -> Self {
            Record { key: key.into(), ts, kind: ValueKind::Delete, value: Bytes::new() }
        }

        fn vlog_put(key: impl Into<Bytes>, pointer: impl Into<Bytes>, ts: Timestamp) -> Self {
            Record { key: key.into(), ts, kind: ValueKind::VlogPut, value: pointer.into() }
        }

        fn internal_key(&self) -> InternalKey {
            InternalKey::new(self.key.clone(), self.ts, self.kind)
        }

        fn encode(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            self.encode_into(&mut buf);
            buf
        }
    }

    #[test]
    fn newest_seek_precedes_all_versions() {
        let newest = InternalKey::new(b"k", u64::MAX >> 2, ValueKind::Put);
        assert!(SeekKey::newest(b"k").cmp_encoded(newest.encoded()).is_ge());
    }

    #[test]
    fn internal_key_round_trips_fields() {
        let ik = InternalKey::new(b"user", 42, ValueKind::Delete);
        assert_eq!(parse_internal_key(ik.encoded()), Some((&b"user"[..], 42, ValueKind::Delete)));
    }

    #[test]
    fn parse_internal_key_rejects_short_input() {
        assert!(parse_internal_key(b"short").is_none());
    }

    /// A seek key compares against an encoded key as its own encoding
    /// would — prefix user keys and keys too short to hold a suffix
    /// included.
    #[test]
    fn seek_key_orders_like_its_encoding() {
        let targets = [("k", 9u64), ("k", 2), ("kk", 1), ("", 0), ("ab", Timestamp::MAX >> 2)];
        let mut encoded: Vec<Vec<u8>> = targets
            .iter()
            .flat_map(|&(k, ts)| {
                [ValueKind::Put, ValueKind::Delete]
                    .map(|kind| InternalKey::new(k.as_bytes(), ts, kind).encoded().to_vec())
            })
            .collect();
        encoded.extend([b"".to_vec(), b"k".to_vec(), b"\xff\xff".to_vec()]);
        for &(k, ts) in &targets {
            for kind in [ValueKind::Put, ValueKind::VlogPut, ValueKind::Delete] {
                let seek = SeekKey::new(k.as_bytes(), ts, kind);
                let target = InternalKey::new(k.as_bytes(), ts, kind);
                for e in &encoded {
                    assert_eq!(seek.cmp_encoded(e), internal_cmp(e, target.encoded()), "{e:?}");
                    // A record's fields compare as its encoding would.
                    if let Some((key, ts, kind)) = parse_internal_key(e) {
                        let record =
                            Record { key: key.to_vec().into(), ts, kind, value: Bytes::new() };
                        assert_eq!(seek.cmp_record(&record), seek.cmp_encoded(e), "{e:?}");
                    }
                }
            }
        }
    }
}
