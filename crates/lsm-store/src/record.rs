//! Key-value records and internal keys.
//!
//! The paper's interface (§3.2, Equation 1) is timestamped:
//! `ts = PUT(k, v)`, `⟨k, v, ts⟩ = GET(k, ts_q)`. The enclave's timestamp
//! manager assigns every operation a unique, monotonically increasing
//! timestamp; tombstones implement deletes (§5.4). A query's `ts_q` is the
//! enclave's current time, at or past every stored version, so the host
//! serves each key's newest version and its reads take no `ts_q` (the
//! verifier accepts nothing older: `StaleRecord`).
//!
//! Internally a record is identified by its *internal key*: the user key
//! followed by an 8-byte suffix packing `(timestamp, kind)` so that plain
//! byte comparison orders records by key ascending and, within a key, by
//! timestamp **descending** (newest first) — the order the eLSM hash chains
//! and Lemma 5.4 rely on.

use std::fmt;

use bytes::Bytes;

use crate::encoding::{get_fixed_u64, get_length_prefixed};

/// Whether a record stores a value, a value-log pointer, or a tombstone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueKind {
    /// A live key-value record with its value stored inline.
    Put,
    /// A live record whose value lives in the value log; the stored bytes
    /// are an encoded [`crate::vlog::VlogPtr`] plus its MAC (WiscKey-style
    /// key-value separation).
    VlogPut,
    /// A delete marker; compaction at the bottom level drops the key.
    Delete,
}

impl ValueKind {
    /// Two-bit packing. `Put` takes the largest code so that seeks built
    /// with `Put` (the historical "newest first" convention) sort at or
    /// before every kind at the same timestamp.
    fn to_bits(self) -> u64 {
        match self {
            ValueKind::Put => 2,
            ValueKind::VlogPut => 1,
            ValueKind::Delete => 0,
        }
    }

    fn from_bits(bits: u64) -> Self {
        match bits & 3 {
            2 | 3 => ValueKind::Put,
            1 => ValueKind::VlogPut,
            _ => ValueKind::Delete,
        }
    }

    /// Whether the record carries a live value (inline or via the value
    /// log) rather than a tombstone.
    pub fn is_value(self) -> bool {
        self != ValueKind::Delete
    }
}

/// A timestamp assigned by the enclave's timestamp manager.
pub type Timestamp = u64;

/// A full key-value record: user key, timestamp, kind and value bytes.
///
/// # Examples
///
/// ```
/// use lsm_store::record::{Record, ValueKind};
///
/// let r = Record::put(b"key".as_slice(), b"value".as_slice(), 7);
/// let bytes = r.encode();
/// assert_eq!(Record::decode(&bytes).unwrap(), r);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// User-visible key.
    pub key: Bytes,
    /// Operation timestamp (unique, monotone).
    pub ts: Timestamp,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// Value bytes (empty for tombstones).
    pub value: Bytes,
}

impl Record {
    /// The fewest bytes a record encodes to: a one-byte key length, the
    /// 8-byte suffix and a one-byte value length. Decoders bound what they
    /// reserve for a claimed record count by it.
    pub(crate) const MIN_ENCODED_LEN: usize = 10;

    /// Creates a live record.
    pub fn put(key: impl Into<Bytes>, value: impl Into<Bytes>, ts: Timestamp) -> Self {
        Record { key: key.into(), ts, kind: ValueKind::Put, value: value.into() }
    }

    /// Creates a tombstone.
    pub fn tombstone(key: impl Into<Bytes>, ts: Timestamp) -> Self {
        Record { key: key.into(), ts, kind: ValueKind::Delete, value: Bytes::new() }
    }

    /// Creates a value-log pointer record: `pointer` is the encoded
    /// [`crate::vlog::VlogPtr`] + MAC (possibly listener-wrapped).
    pub fn vlog_put(key: impl Into<Bytes>, pointer: impl Into<Bytes>, ts: Timestamp) -> Self {
        Record { key: key.into(), ts, kind: ValueKind::VlogPut, value: pointer.into() }
    }

    /// The internal key identifying this record.
    pub fn internal_key(&self) -> InternalKey {
        InternalKey::new(self.key.clone(), self.ts, self.kind)
    }

    /// The record's fields, borrowed.
    pub fn view(&self) -> RecordView<'_> {
        RecordView { key: &self.key, ts: self.ts, kind: self.kind, value: &self.value }
    }

    /// Serializes the record (length-prefixed key and value, fixed suffix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the record's serialization to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        self.view().encode_with_value_into(&self.value, buf);
    }

    /// Parses a record serialized by [`Record::encode`].
    ///
    /// Returns `None` on malformed input (including trailing bytes).
    pub fn decode(buf: &[u8]) -> Option<Record> {
        let (record, used) = Self::decode_prefix(buf)?;
        (used == buf.len()).then_some(record)
    }

    /// Parses one record from the front of `buf`, returning it together
    /// with the number of bytes consumed. The encoding is self-delimiting,
    /// so concatenated records (a WAL batch frame) decode by repeated
    /// prefix reads.
    ///
    /// Returns `None` on malformed/truncated input.
    pub fn decode_prefix(buf: &[u8]) -> Option<(Record, usize)> {
        let (key, n) = get_length_prefixed(buf)?;
        let packed = get_fixed_u64(buf, n)?;
        let (value, m) = get_length_prefixed(&buf[n + 8..])?;
        let (ts, kind) = unpack(packed);
        Some((
            Record {
                key: Bytes::copy_from_slice(key),
                ts,
                kind,
                value: Bytes::copy_from_slice(value),
            },
            n + 8 + m,
        ))
    }

    /// Approximate in-memory footprint, used for flush triggers.
    pub fn approximate_size(&self) -> usize {
        self.key.len() + self.value.len() + 24
    }
}

/// A record read in place: what the merge pipeline passes around instead
/// of an owned [`Record`]. The key borrows the producer's buffer (a block
/// cursor rebuilds prefix-compressed keys in one reused buffer); the value
/// is a `Bytes` so keeping it is a reference count, not a copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// User-visible key.
    pub key: &'a [u8],
    /// Operation timestamp.
    pub ts: Timestamp,
    /// Put, value-log pointer or tombstone.
    pub kind: ValueKind,
    /// Stored value bytes.
    pub value: &'a Bytes,
}

impl<'a> RecordView<'a> {
    /// An owned copy of the record (the key is copied, the value shared).
    pub fn to_record(&self) -> Record {
        Record {
            key: Bytes::copy_from_slice(self.key),
            ts: self.ts,
            kind: self.kind,
            value: self.value.clone(),
        }
    }

    /// Appends to `buf` the serialization this record would have with
    /// `value` in place of its own. Layers that store an enveloped value
    /// but digest the bare one (eLSM's embedded proofs) get the record's
    /// canonical bytes this way without building a second record.
    pub fn encode_with_value_into(&self, value: &[u8], buf: &mut Vec<u8>) {
        let parts = self.encoded_parts(value);
        buf.reserve(parts.encoded_len());
        for part in parts.slices() {
            buf.extend_from_slice(part);
        }
    }

    /// The serialization [`RecordView::encode_with_value_into`] appends,
    /// as the pieces it joins: what a digest absorbs where the bytes lie,
    /// with no copy of the key or the value.
    pub fn encoded_parts<'v>(&self, value: &'v [u8]) -> EncodedParts<'v>
    where
        'a: 'v,
    {
        let mut key_prefix = [0u8; 10];
        let key_prefix_len = put_varint_at(&mut key_prefix, self.key.len() as u64);
        let mut middle = [0u8; 18];
        middle[..8].copy_from_slice(&pack(self.ts, self.kind).to_le_bytes());
        let middle_len = 8 + put_varint_at(&mut middle[8..], value.len() as u64);
        EncodedParts { key_prefix, key_prefix_len, key: self.key, middle, middle_len, value }
    }

    /// The internal key's suffix: `(ts, kind)` packed and complemented, so
    /// that it ascends as timestamps descend.
    pub(crate) fn suffix(&self) -> u64 {
        !pack(self.ts, self.kind)
    }
}

/// A record's serialization as the four pieces it joins — the key's
/// length prefix, the key, the packed suffix with the value's length
/// prefix, the value ([`RecordView::encoded_parts`]).
#[derive(Debug, Clone, Copy)]
pub struct EncodedParts<'a> {
    key_prefix: [u8; 10],
    key_prefix_len: usize,
    key: &'a [u8],
    middle: [u8; 18],
    middle_len: usize,
    value: &'a [u8],
}

impl EncodedParts<'_> {
    /// The pieces, in order; joined, they are the serialization.
    pub fn slices(&self) -> [&[u8]; 4] {
        [
            &self.key_prefix[..self.key_prefix_len],
            self.key,
            &self.middle[..self.middle_len],
            self.value,
        ]
    }

    /// Bytes of the serialization.
    pub fn encoded_len(&self) -> usize {
        self.key_prefix_len + self.key.len() + self.middle_len + self.value.len()
    }
}

/// Writes `v` as a LEB128 varint at the front of `out`, which has room
/// for it; returns its length.
fn put_varint_at(out: &mut [u8], mut v: u64) -> usize {
    let mut at = 0;
    while v >= 0x80 {
        out[at] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Splits an *encoded* internal key into the user key and the unpacked
/// suffix; `None` if shorter than the suffix.
pub(crate) fn parse_internal_key(encoded: &[u8]) -> Option<(&[u8], Timestamp, ValueKind)> {
    let (user_key, suffix) = encoded.split_at(encoded.len().checked_sub(8)?);
    let (ts, kind) = unpack(!u64::from_be_bytes(suffix.try_into().expect("8-byte suffix")));
    Some((user_key, ts, kind))
}

fn pack(ts: Timestamp, kind: ValueKind) -> u64 {
    (ts << 2) | kind.to_bits()
}

fn unpack(packed: u64) -> (Timestamp, ValueKind) {
    (packed >> 2, ValueKind::from_bits(packed))
}

/// Compares two *encoded* internal keys: user key ascending, then suffix
/// ascending (which is timestamp **descending**, because the suffix stores
/// the bitwise complement of the packed timestamp).
///
/// Raw byte comparison would be wrong when one user key is a prefix of
/// another (the 0xff-leading suffix of the shorter key would sort it after
/// the longer key), so every block, table and memtable comparison goes
/// through this function — the same design as LevelDB's
/// `InternalKeyComparator`.
pub fn internal_cmp(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
    let (ua, sa) = split_suffix(a);
    let (ub, sb) = split_suffix(b);
    ua.cmp(ub).then_with(|| sa.cmp(sb))
}

fn split_suffix(k: &[u8]) -> (&[u8], &[u8]) {
    k.split_at(k.len().saturating_sub(8))
}

/// The user key of an *encoded* internal key, in place.
pub(crate) fn user_key_of(encoded: &[u8]) -> &[u8] {
    split_suffix(encoded).0
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
        SeekKey { user_key, suffix: (!pack(ts, kind)).to_be_bytes() }
    }

    /// The smallest internal key for `user_key`: seeks placed here find
    /// its *newest* record first.
    pub(crate) fn newest(user_key: &'a [u8]) -> Self {
        Self::new(user_key, Timestamp::MAX >> 2, ValueKind::Put)
    }

    /// How the *encoded* internal key `encoded` orders against this one —
    /// `internal_cmp(encoded, self)` without encoding `self`.
    pub(crate) fn cmp_encoded(&self, encoded: &[u8]) -> std::cmp::Ordering {
        let (user_key, suffix) = split_suffix(encoded);
        user_key.cmp(self.user_key).then_with(|| suffix.cmp(&self.suffix))
    }

    /// How `record`'s internal key orders against this one, read off its
    /// fields: nothing is encoded on either side.
    pub(crate) fn cmp_record(&self, record: &Record) -> std::cmp::Ordering {
        let suffix = u64::from_be_bytes(self.suffix);
        record.key[..].cmp(self.user_key).then_with(|| record.view().suffix().cmp(&suffix))
    }
}

/// An internal key: user key plus `(timestamp, kind)` suffix.
///
/// The encoded form is `user_key ‖ be_bytes(!packed)`; ordering is defined
/// by [`internal_cmp`].
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct InternalKey {
    encoded: Vec<u8>,
}

impl PartialOrd for InternalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InternalKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        internal_cmp(&self.encoded, &other.encoded)
    }
}

impl InternalKey {
    /// Builds an internal key.
    pub fn new(key: impl AsRef<[u8]>, ts: Timestamp, kind: ValueKind) -> Self {
        let key = SeekKey::new(key.as_ref(), ts, kind);
        InternalKey { encoded: [key.user_key, &key.suffix].concat() }
    }

    /// The encoded bytes (comparison form).
    pub fn encoded(&self) -> &[u8] {
        &self.encoded
    }
}

impl fmt::Debug for InternalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (user_key, ts, kind) = parse_internal_key(&self.encoded).expect("built with a suffix");
        write!(
            f,
            "InternalKey({:?}@{ts}{})",
            String::from_utf8_lossy(user_key),
            match kind {
                ValueKind::Delete => " DEL",
                ValueKind::VlogPut => " VLOG",
                ValueKind::Put => "",
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encode_decode_round_trip() {
        let r = Record::put(b"alpha".as_slice(), b"beta".as_slice(), 99);
        assert_eq!(Record::decode(&r.encode()).unwrap(), r);
        let t = Record::tombstone(b"gone".as_slice(), 5);
        assert_eq!(Record::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decode_prefix_walks_concatenated_records() {
        let a = Record::put(b"a".as_slice(), b"1".as_slice(), 1);
        let b = Record::tombstone(b"bb".as_slice(), 2);
        let mut buf = a.encode();
        buf.extend_from_slice(&b.encode());
        let (got_a, used_a) = Record::decode_prefix(&buf).unwrap();
        assert_eq!(got_a, a);
        let (got_b, used_b) = Record::decode_prefix(&buf[used_a..]).unwrap();
        assert_eq!(got_b, b);
        assert_eq!(used_a + used_b, buf.len());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = Record::put(b"k".as_slice(), b"v".as_slice(), 1).encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_none());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = Record::put(b"k".as_slice(), b"v".as_slice(), 1).encode();
        assert!(Record::decode(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn internal_key_orders_keys_ascending() {
        let a = InternalKey::new(b"a", 1, ValueKind::Put);
        let b = InternalKey::new(b"b", 1, ValueKind::Put);
        assert!(a < b);
    }

    #[test]
    fn internal_key_orders_timestamps_descending() {
        let newer = InternalKey::new(b"k", 10, ValueKind::Put);
        let older = InternalKey::new(b"k", 3, ValueKind::Put);
        assert!(newer < older, "newest must sort first");
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

    #[test]
    fn prefix_keys_do_not_interleave_versions() {
        // "ab" with any ts must not sort between versions of "abc".
        let ab = InternalKey::new(b"ab", 1, ValueKind::Put);
        let abc_new = InternalKey::new(b"abc", 100, ValueKind::Put);
        let abc_old = InternalKey::new(b"abc", 1, ValueKind::Put);
        assert!(ab < abc_new);
        assert!(abc_new < abc_old);
    }

    #[test]
    fn internal_cmp_matches_field_order() {
        use std::cmp::Ordering;
        let cases = [
            (("a", 5u64), ("b", 1u64), Ordering::Less),
            (("k", 9), ("k", 2), Ordering::Less), // newer first
            (("k", 2), ("k", 2), Ordering::Equal),
            (("kk", 1), ("k", 9), Ordering::Greater),
        ];
        for ((ka, ta), (kb, tb), want) in cases {
            let a = InternalKey::new(ka.as_bytes(), ta, ValueKind::Put);
            let b = InternalKey::new(kb.as_bytes(), tb, ValueKind::Put);
            assert_eq!(internal_cmp(a.encoded(), b.encoded()), want, "{ka}@{ta} vs {kb}@{tb}");
        }
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

    #[test]
    fn vlog_pointer_records_round_trip_and_sort_with_their_timestamp() {
        let p = Record::vlog_put(b"k".as_slice(), b"ptr-bytes".as_slice(), 9);
        assert_eq!(p.kind, ValueKind::VlogPut);
        assert!(p.kind.is_value());
        assert_eq!(Record::decode(&p.encode()).unwrap(), p);
        // Ordering stays timestamp-major across kinds.
        let newer_put = InternalKey::new(b"k", 10, ValueKind::Put);
        let older_del = InternalKey::new(b"k", 8, ValueKind::Delete);
        assert!(newer_put < p.internal_key());
        assert!(p.internal_key() < older_del);
    }

    #[test]
    fn put_seeks_find_every_kind_at_the_same_timestamp() {
        // Seeks use `Put` as the "newest" sentinel; a seek at ts_q must not
        // skip a VlogPut or Delete record whose ts equals ts_q.
        let seek = InternalKey::new(b"k", 5, ValueKind::Put);
        for kind in [ValueKind::Put, ValueKind::VlogPut, ValueKind::Delete] {
            assert!(seek <= InternalKey::new(b"k", 5, kind), "{kind:?}");
        }
    }

    #[test]
    fn encodings_distinguish_vlog_pointers_from_inline_puts() {
        // A kind flip (inline value <-> pointer bytes) must change the
        // canonical digest, or a host could swap representations silently.
        let inline = Record::put(b"k".as_slice(), b"same".as_slice(), 1);
        let pointer = Record::vlog_put(b"k".as_slice(), b"same".as_slice(), 1);
        assert_ne!(inline.encode(), pointer.encode());
    }

    /// The pieces a digest absorbs join to the serialization, across the
    /// varint length boundaries of key and value.
    #[test]
    fn encoded_parts_join_to_the_encoding() {
        for (key_len, value_len) in [(0, 0), (1, 127), (127, 128), (128, 16_383), (300, 16_384)] {
            let record = Record::put(vec![b'k'; key_len], vec![b'v'; value_len], 77);
            let parts = record.view().encoded_parts(&record.value);
            assert_eq!(parts.slices().concat(), record.encode(), "{key_len} / {value_len}");
            assert_eq!(parts.encoded_len(), record.encode().len());
        }
    }

    #[test]
    fn encodings_cover_all_fields() {
        let a = Record::put(b"k".as_slice(), b"v".as_slice(), 1);
        let mut b = a.clone();
        b.ts = 2;
        assert_ne!(a.encode(), b.encode());
        let mut c = a.clone();
        c.kind = ValueKind::Delete;
        assert_ne!(a.encode(), c.encode());
    }
}
