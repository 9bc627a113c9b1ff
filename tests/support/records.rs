//! Whole-buffer record codecs and internal keys, which only tests build:
//! the engine encodes a record into a reused buffer (`encode_into`) and
//! decodes it from the front of a frame (`decode_prefix`).

use elsm_repro::lsm_store::{InternalKey, Record};

/// What tests read off a `Record` beyond the engine's API.
pub trait RecordFixtures: Sized {
    /// The internal key identifying this record.
    fn internal_key(&self) -> InternalKey;
    /// The record's serialization in a buffer of its own.
    fn encode(&self) -> Vec<u8>;
    /// The one record `buf` holds: `None` on malformed input, trailing
    /// bytes included.
    fn decode(buf: &[u8]) -> Option<Self>;
}

impl RecordFixtures for Record {
    fn internal_key(&self) -> InternalKey {
        InternalKey::new(self.key.clone(), self.ts, self.kind)
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let (record, used) = Record::decode_prefix(buf)?;
        (used == buf.len()).then_some(record)
    }
}
