//! SSTable data blocks with prefix-compressed keys and restart points,
//! following the LevelDB block format:
//!
//! ```text
//! entry*   := shared_len varint | unshared_len varint | value_len varint
//!             | key_delta bytes | value bytes
//! trailer  := restart_offset u32 * n | n u32
//! ```
//!
//! Every `restart_interval` entries the full key is stored, so iterators
//! can binary-search restart points and then scan at most one interval.

use std::cell::RefCell;
use std::cmp::Ordering;

use bytes::Bytes;

use crate::encoding::{get_fixed_u32, get_varint_u32, put_fixed_u32, put_varint_u32};
use crate::record::{internal_cmp, SeekKey};

/// Default number of entries between restart points (LevelDB uses 16).
const RESTART_INTERVAL: usize = 16;

/// Builds data blocks, one after another, in the same buffers.
#[derive(Debug)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    count_since_restart: usize,
    last_key: Vec<u8>,
    /// The key being added (swapped with `last_key` once it is).
    key: Vec<u8>,
    entries: usize,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            count_since_restart: 0,
            last_key: Vec::new(),
            key: Vec::new(),
            entries: 0,
        }
    }

    /// Appends an entry. Keys must arrive in strictly increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not greater than the previous key (corrupt order
    /// would silently break binary search).
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        self.add_with(key, &[], |buf| buf.extend_from_slice(value));
    }

    /// Appends the entry whose key is `user_key ‖ suffix`, its value
    /// written by `write_value` straight into the block (it must only
    /// append). Returns the value's length.
    ///
    /// # Panics
    ///
    /// Panics if the key is not greater than the previous key.
    pub fn add_with(
        &mut self,
        user_key: &[u8],
        suffix: &[u8],
        write_value: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        self.key.clear();
        self.key.extend_from_slice(user_key);
        self.key.extend_from_slice(suffix);
        assert!(
            self.entries == 0 || internal_cmp(&self.key, &self.last_key) == Ordering::Greater,
            "block keys must be strictly increasing"
        );
        let shared = if self.count_since_restart < RESTART_INTERVAL {
            common_prefix(&self.last_key, &self.key)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        };
        put_varint_u32(&mut self.buf, shared as u32);
        put_varint_u32(&mut self.buf, (self.key.len() - shared) as u32);
        // The value's length goes before the key delta and is known only
        // once the value is written: write both, append the length, and
        // rotate it into place.
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&self.key[shared..]);
        let value_at = self.buf.len();
        write_value(&mut self.buf);
        let end = self.buf.len();
        put_varint_u32(&mut self.buf, (end - value_at) as u32);
        let varint_len = self.buf.len() - end;
        self.buf[len_at..].rotate_right(varint_len);
        std::mem::swap(&mut self.key, &mut self.last_key);
        self.count_since_restart += 1;
        self.entries += 1;
        end - value_at
    }

    /// Current encoded size (data + trailer).
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Whether no entries have been added.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The last key added (empty before the first add).
    pub fn last_key(&self) -> &[u8] {
        &self.last_key
    }

    /// Finishes the block, returning its encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.finish_in_place();
        self.buf
    }

    /// Appends the trailer and returns the encoded block, which stays in
    /// the builder's buffer until [`BlockBuilder::reset`] starts the next.
    pub fn finish_in_place(&mut self) -> &[u8] {
        for &r in &self.restarts {
            put_fixed_u32(&mut self.buf, r);
        }
        put_fixed_u32(&mut self.buf, self.restarts.len() as u32);
        &self.buf
    }

    /// Empties the builder for the next block, keeping its buffers.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.restarts.clear();
        self.restarts.push(0);
        self.count_since_restart = 0;
        self.last_key.clear();
        self.entries = 0;
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A parsed, immutable data block. Clones share the block's bytes.
#[derive(Debug, Clone)]
pub struct Block {
    data: Bytes,
    restarts_offset: usize,
    num_restarts: usize,
}

/// A block entry's header: where its key delta and value sit.
struct EntryHeader {
    shared: usize,
    key_start: usize,
    value_start: usize,
    value_end: usize,
}

impl Block {
    /// Parses block bytes. Returns `None` when the trailer is malformed.
    pub fn parse(data: Bytes) -> Option<Self> {
        if data.len() < 4 {
            return None;
        }
        let num_restarts = get_fixed_u32(&data, data.len() - 4)? as usize;
        let trailer = num_restarts.checked_mul(4)?.checked_add(4)?;
        if trailer > data.len() || num_restarts == 0 {
            return None;
        }
        let restarts_offset = data.len() - trailer;
        Some(Block { data, restarts_offset, num_restarts })
    }

    fn restart_point(&self, i: usize) -> usize {
        get_fixed_u32(&self.data, self.restarts_offset + i * 4).expect("restart in bounds") as usize
    }

    /// Decodes the entry header at `pos`; `None` when it does not fit the
    /// block's entry area.
    fn entry_at(&self, pos: usize) -> Option<EntryHeader> {
        let area = self.data.get(pos..self.restarts_offset)?;
        let (shared, n1) = get_varint_u32(area)?;
        let (unshared, n2) = get_varint_u32(&area[n1..])?;
        let (value_len, n3) = get_varint_u32(&area[n1 + n2..])?;
        let key_start = pos + n1 + n2 + n3;
        let value_start = key_start.checked_add(unshared as usize)?;
        let value_end = value_start.checked_add(value_len as usize)?;
        (value_end <= self.restarts_offset).then_some(EntryHeader {
            shared: shared as usize,
            key_start,
            value_start,
            value_end,
        })
    }

    /// Iterates all entries from the beginning.
    pub fn iter(&self) -> BlockIter {
        BlockIter::at(self.clone(), 0)
    }

    /// Iterator positioned at the first entry with key `>= target` (an
    /// encoded internal key).
    pub fn seek(&self, target: &[u8]) -> BlockIter {
        self.seek_by(|key| internal_cmp(key, target))
    }

    /// [`Block::seek`] to `target` held as its parts, compared in place.
    pub(crate) fn seek_key(&self, target: SeekKey<'_>) -> BlockIter {
        self.seek_by(|key| target.cmp_encoded(key))
    }

    /// Iterator positioned at the first entry whose key `order` does not
    /// place before the target.
    fn seek_by(&self, order: impl Fn(&[u8]) -> Ordering) -> BlockIter {
        // Binary search the restart array for the last restart whose key
        // is <= target (a restart entry stores its key whole, so it is
        // compared in place), then scan forward.
        let (mut lo, mut hi) = (0usize, self.num_restarts - 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if order(self.key_at_restart(mid)) != Ordering::Greater {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let mut iter = BlockIter::at(self.clone(), self.restart_point(lo));
        while let Ok(true) = iter.advance() {
            if order(iter.key()) != Ordering::Less {
                // The next `advance` is this entry again.
                iter.parked = true;
                break;
            }
        }
        iter
    }

    /// The key stored at restart `i` (empty when the entry is malformed).
    fn key_at_restart(&self, i: usize) -> &[u8] {
        match self.entry_at(self.restart_point(i)) {
            Some(e) if e.shared == 0 => &self.data[e.key_start..e.value_start],
            _ => &[],
        }
    }
}

/// An entry of a block that does not decode: its header runs past the
/// entry area, or it shares more key bytes than the entry before it has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptEntry;

/// Key buffers kept for reuse per thread: a read holds at most two cursors
/// at once (a run walk's and the seek that settles its left neighbour).
const SPARE_KEYS: usize = 2;

thread_local! {
    /// Key buffers of block cursors dropped on this thread. The next
    /// cursors rebuild their keys in them, so the block searches of a read
    /// — and of the reads after it — allocate no cursor buffer.
    static SPARE: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Cursor over a block's entries. [`BlockIter::advance`] moves to the next
/// entry and reports one that does not decode; the key is rebuilt in one
/// buffer reused from entry to entry (and taken over from the cursor before
/// it on this thread) and the value is a zero-copy slice of the block. As
/// an [`Iterator`] it yields owned `(key, value)` pairs and ends at the
/// first entry that does not decode.
#[derive(Debug)]
pub struct BlockIter {
    block: Block,
    pos: usize,
    key: Vec<u8>,
    value: Bytes,
    /// `advance` was already called for the current entry (by `seek`).
    parked: bool,
}

impl Drop for BlockIter {
    fn drop(&mut self) {
        let key = std::mem::take(&mut self.key);
        // `try_with`: cursors also drop while a thread's locals are torn down.
        let _ = SPARE.try_with(|spare| match spare.try_borrow_mut() {
            Ok(mut spare) if spare.len() < SPARE_KEYS => spare.push(key),
            _ => {}
        });
    }
}

impl BlockIter {
    fn at(block: Block, pos: usize) -> Self {
        let spare = SPARE.try_with(|spare| spare.try_borrow_mut().ok()?.pop());
        let mut key = spare.ok().flatten().unwrap_or_default();
        key.clear();
        BlockIter { block, pos, key, value: Bytes::new(), parked: false }
    }

    /// Starts over on another block, keeping the key buffer.
    pub fn reset(&mut self, block: Block) {
        self.block = block;
        self.pos = 0;
        self.key.clear();
        self.parked = false;
    }

    /// Moves to the next entry; `Ok(false)` at the end of the block.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptEntry`] for an entry that does not decode; the
    /// cursor is at the end of the block from then on.
    pub fn advance(&mut self) -> Result<bool, CorruptEntry> {
        if self.parked {
            self.parked = false;
            return Ok(true);
        }
        if self.pos >= self.block.restarts_offset {
            return Ok(false);
        }
        match self.block.entry_at(self.pos) {
            Some(e) if e.shared <= self.key.len() => {
                self.key.truncate(e.shared);
                self.key.extend_from_slice(&self.block.data[e.key_start..e.value_start]);
                self.value = self.block.data.slice(e.value_start..e.value_end);
                self.pos = e.value_end;
                Ok(true)
            }
            _ => {
                self.pos = self.block.restarts_offset;
                Err(CorruptEntry)
            }
        }
    }

    /// The current entry's key (valid after `advance` returned `Ok(true)`).
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The current entry's value, sharing the block's storage.
    pub fn value(&self) -> &Bytes {
        &self.value
    }
}

impl Iterator for BlockIter {
    type Item = (Vec<u8>, Bytes);

    fn next(&mut self) -> Option<Self::Item> {
        matches!(self.advance(), Ok(true)).then(|| (self.key.clone(), self.value.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Block {
        /// Number of restart points.
        fn num_restarts(&self) -> usize {
            self.num_restarts
        }
    }

    fn build(entries: &[(&[u8], &[u8])]) -> Block {
        let mut b = BlockBuilder::new();
        for (k, v) in entries {
            b.add(k, v);
        }
        Block::parse(Bytes::from(b.finish())).unwrap()
    }

    #[test]
    fn round_trip_small() {
        let block = build(&[(b"apple", b"1"), (b"banana", b"2"), (b"cherry", b"3")]);
        let got: Vec<(Vec<u8>, Bytes)> = block.iter().collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0, b"apple");
        assert_eq!(&got[2].1[..], b"3");
    }

    #[test]
    fn prefix_compression_shrinks_block() {
        let keys: Vec<String> = (0..100).map(|i| format!("common_prefix_key_{i:04}")).collect();
        let mut compressed = BlockBuilder::new();
        for k in &keys {
            compressed.add(k.as_bytes(), b"v");
        }
        let raw_key_bytes: usize = keys.iter().map(|k| k.len()).sum();
        assert!(
            compressed.size_estimate() < raw_key_bytes + 100 * 4,
            "prefix compression should beat storing full keys"
        );
        // And it still round-trips.
        let block = Block::parse(Bytes::from(compressed.finish())).unwrap();
        let got: Vec<_> = block.iter().map(|(k, _)| k).collect();
        assert_eq!(got.len(), 100);
        for (g, k) in got.iter().zip(&keys) {
            assert_eq!(g, k.as_bytes());
        }
    }

    #[test]
    fn seek_finds_exact_and_successor() {
        let block = build(&[(b"b", b"1"), (b"d", b"2"), (b"f", b"3")]);
        assert_eq!(block.seek(b"d").next().unwrap().0, b"d");
        assert_eq!(block.seek(b"c").next().unwrap().0, b"d");
        assert_eq!(block.seek(b"a").next().unwrap().0, b"b");
        assert!(block.seek(b"g").next().is_none());
    }

    #[test]
    fn seek_across_restart_points() {
        let keys: Vec<String> = (0..100).map(|i| format!("k{i:04}")).collect();
        let entries: Vec<(&[u8], &[u8])> =
            keys.iter().map(|k| (k.as_bytes(), b"v".as_slice())).collect();
        let block = build(&entries);
        assert!(block.num_restarts() > 1, "test must span restarts");
        for i in (0..100).step_by(7) {
            let target = format!("k{i:04}");
            let got = block.seek(target.as_bytes()).next().unwrap().0;
            assert_eq!(got, target.as_bytes());
        }
    }

    #[test]
    fn empty_block_iterates_nothing() {
        let block = Block::parse(Bytes::from(BlockBuilder::new().finish())).unwrap();
        assert!(block.iter().next().is_none());
        assert!(block.seek(b"x").next().is_none());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_add_panics() {
        let mut b = BlockBuilder::new();
        b.add(b"b", b"1");
        b.add(b"a", b"2");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Block::parse(Bytes::from_static(b"xy")).is_none());
        assert!(Block::parse(Bytes::from_static(&[255, 255, 255, 255])).is_none());
    }

    /// `add_with` writes what `add` writes — the value length back-patched
    /// in front of the key delta — and a reset builder builds the next
    /// block byte for byte like a fresh one.
    #[test]
    fn add_with_and_reset_match_add_on_a_fresh_builder() {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..70u32)
            .map(|i| {
                let mut key = format!("key{:03}", i / 2).into_bytes();
                key.extend_from_slice(&(u64::from(i)).to_be_bytes());
                (key, vec![i as u8; (i as usize * 37) % 300])
            })
            .collect();
        let mut plain = BlockBuilder::new();
        let mut parts = BlockBuilder::new();
        parts.add(b"junk-from-the-block-before", b"x");
        parts.finish_in_place();
        parts.reset();
        for (key, value) in &entries {
            plain.add(key, value);
            let (user_key, suffix) = key.split_at(key.len() - 8);
            let written = parts.add_with(user_key, suffix, |buf| buf.extend_from_slice(value));
            assert_eq!(written, value.len());
            assert_eq!(parts.size_estimate(), plain.size_estimate());
        }
        assert_eq!(parts.last_key(), plain.last_key());
        assert_eq!(parts.finish_in_place(), &plain.finish()[..]);
    }

    /// An entry whose header runs out of the block, or that shares more
    /// key bytes than its predecessor has, is an error to the cursor and
    /// the end of the block to the owned iterator.
    #[test]
    fn cursor_reports_the_entry_that_does_not_decode() {
        let mut b = BlockBuilder::new();
        b.add(b"aaaa", b"1");
        b.add(b"aabb", b"2");
        let good = b.finish();
        // Second entry: shared = 2 -> 9 (more than "aaaa" has).
        let mut bad = good.clone();
        let second = 3 + 4 + 1;
        assert_eq!(bad[second], 2);
        bad[second] = 9;
        let block = Block::parse(Bytes::from(bad)).unwrap();
        let mut it = block.iter();
        assert_eq!(it.advance(), Ok(true));
        assert_eq!((it.key(), &it.value()[..]), (&b"aaaa"[..], &b"1"[..]));
        assert_eq!(it.advance(), Err(CorruptEntry));
        assert_eq!(it.advance(), Ok(false));
        assert_eq!(block.iter().count(), 1);
        // Value length running past the entry area.
        let mut bad = good;
        bad[2] = 200;
        let block = Block::parse(Bytes::from(bad)).unwrap();
        assert_eq!(block.iter().advance(), Err(CorruptEntry));
        assert!(block.seek(b"aaaa").next().is_none());
    }

    #[test]
    fn values_survive_restart_boundaries() {
        let entries: Vec<(String, String)> =
            (0..50).map(|i| (format!("k{i:03}"), format!("value-{i}"))).collect();
        let refs: Vec<(&[u8], &[u8])> =
            entries.iter().map(|(k, v)| (k.as_bytes(), v.as_bytes())).collect();
        let block = build(&refs);
        for (k, v) in &entries {
            let (gk, gv) = block.seek(k.as_bytes()).next().unwrap();
            assert_eq!(gk, k.as_bytes());
            assert_eq!(&gv[..], v.as_bytes());
        }
    }
}
