//! SSTables: immutable sorted files of records.
//!
//! Layout (offsets are file positions; data blocks may be individually
//! sealed when the environment enables eLSM-P1 file protection):
//!
//! ```text
//! [data block 0] [data block 1] … [bloom filter] [index block] [props] [footer]
//! ```
//!
//! * the **index block** maps each data block's last internal key to its
//!   `(offset, stored_len)`;
//! * the **Bloom filter** covers all user keys in the table;
//! * **props** stores smallest/largest user keys and the record count;
//! * the fixed-size **footer** locates everything else.
//!
//! Per the paper, the Bloom filter and index are metadata kept *inside* the
//! enclave (§5.3); the reader allocates enclave regions for them and touches
//! the probed offsets, so metadata becomes a realistic source of EPC
//! pressure.
//!
//! A table is written and read through one [`MappedFile`]. Where the
//! environment maps files (eLSM-P2's default), a [`TableBuilder`] copies
//! its 64 KiB chunks into a mapping of the new file, which the host makes
//! (one OCall) at the size the caller expects and doubles if the table
//! outgrows it; [`TableBuilder::finish`] then opens the table through that
//! same mapping — footer, props, index and filter — without leaving the
//! enclave. An existing table ([`TableReader::open`], e.g. at recovery) is
//! mapped whole in one OCall. Elsewhere every chunk written and each of the
//! four metadata reads is one host call.

use std::sync::Arc;

use bytes::Bytes;
use sim_disk::{FsError, SimFile};

use crate::block::{Block, BlockBuilder, BlockIter};
use crate::bloom::{key_hashes, BloomFilter, KeyHashes};
use crate::encoding::{get_fixed_u64, get_length_prefixed, put_fixed_u64, put_length_prefixed};
use crate::env::{MappedFile, StorageEnv};
use crate::record::{
    parse_internal_key, user_key_of, Record, RecordView, SeekKey, Timestamp, ValueKind,
};
use crate::version::Walk;

const FOOTER_LEN: usize = 56;
const MAGIC: u64 = 0xe15a_5700_ab1e_d157;
/// Builders buffer output and issue one file append per chunk, like a
/// buffered `fwrite` (an OCall each where the file is not mapped).
const WRITE_CHUNK: usize = 64 * 1024;

/// Whether a run's point lookup must resolve bounding neighbors on a miss
/// ([`crate::version::Run::get`]; a table only answers hit-or-not).
///
/// eLSM turns the neighbors into non-membership proofs, so its traced
/// reads require them. The plain, unauthenticated read path never looks
/// at them — with [`NeighborPolicy::Skip`] a definite Bloom-filter miss
/// costs **no index or block IO at all**, and even a post-search miss
/// skips the neighbor block reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborPolicy {
    /// Resolve the bounding neighbors an end of the range needs: both for
    /// a miss, none at an end the run's own key anchors (authenticated
    /// reads).
    Required,
    /// Return misses without neighbors and without neighbor IO.
    Skip,
}

/// A data block read, with its index in its table.
pub(crate) type BlockAt = (usize, Block);

/// Options controlling table construction.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed data-block size.
    pub block_size: usize,
    /// Bloom filter bits per key (0 disables the filter).
    pub bloom_bits_per_key: usize,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions { block_size: 4096, bloom_bits_per_key: 10 }
    }
}

/// Summary of a finished table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// File number (also names the file: `{file_no}.sst`).
    pub file_no: u64,
    /// Smallest user key.
    pub smallest: Bytes,
    /// Largest user key.
    pub largest: Bytes,
    /// Number of records.
    pub count: u64,
    /// Total file size in bytes.
    pub file_size: u64,
}

/// The output side of a table build: buffers bytes and issues one file
/// append per chunk, out of one buffer.
#[derive(Debug)]
struct Sink {
    file: MappedFile,
    pending: Vec<u8>,
    /// Bytes accepted so far (the file offset of the next byte).
    offset: u64,
}

impl Sink {
    fn write(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
        self.offset += bytes.len() as u64;
        if self.pending.len() >= WRITE_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.pending.is_empty() {
            self.file.append(&self.pending);
            self.pending.clear();
        }
    }
}

/// Streams sorted records into an SSTable file. Nothing is allocated per
/// record: keys and values go straight into the block under construction,
/// the Bloom filter is built from per-key hashes, and block, index-key and
/// output buffers are reused from block to block.
#[derive(Debug)]
pub struct TableBuilder {
    sink: Sink,
    file_no: u64,
    options: TableOptions,
    block: BlockBuilder,
    /// Last internal keys of the flushed blocks, back to back.
    index_keys: Vec<u8>,
    /// Per flushed block: where its key ends in `index_keys`, its file
    /// offset and its stored length.
    index: Vec<(usize, u64, u64)>,
    /// One entry per record, like the key list it replaces (the filter is
    /// sized by record count).
    key_hashes: Vec<KeyHashes>,
    count: u64,
    smallest: Vec<u8>,
}

impl TableBuilder {
    /// Starts building `file` (already created, empty). Where the
    /// environment maps files, the caller sizes its first mapping
    /// ([`MappedFile::new`]) for the table it expects.
    pub fn new(file: MappedFile, file_no: u64, options: TableOptions) -> Self {
        TableBuilder {
            sink: Sink { file, pending: Vec::new(), offset: 0 },
            file_no,
            options,
            block: BlockBuilder::new(),
            index_keys: Vec::new(),
            index: Vec::new(),
            key_hashes: Vec::new(),
            count: 0,
            smallest: Vec::new(),
        }
    }

    /// Appends a record as it is. Records must arrive in internal-key
    /// order.
    pub fn add(&mut self, record: RecordView<'_>) {
        self.add_with(record, |buf| buf.extend_from_slice(record.value));
    }

    /// Appends `record` with the stored value `write_value` appends to the
    /// buffer it is given (the block itself) in place of `record.value`.
    /// Returns the stored value's length.
    pub fn add_with(
        &mut self,
        record: RecordView<'_>,
        write_value: impl FnOnce(&mut Vec<u8>),
    ) -> usize {
        let stored = self.block.add_with(record.key, &record.suffix().to_be_bytes(), write_value);
        self.key_hashes.push(key_hashes(record.key));
        if self.count == 0 {
            self.smallest.extend_from_slice(record.key);
        }
        self.count += 1;
        if self.block.size_estimate() >= self.options.block_size {
            self.flush_block();
        }
        stored
    }

    /// Number of records added.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn flush_block(&mut self) {
        if self.block.is_empty() {
            return;
        }
        self.index_keys.extend_from_slice(self.block.last_key());
        let offset = self.sink.offset;
        let stored = self.sink.file.env().prepare_block(
            self.file_no,
            offset as usize,
            self.block.finish_in_place(),
        );
        self.index.push((self.index_keys.len(), offset, stored.len() as u64));
        self.sink.write(&stored);
        self.block.reset();
    }

    /// Finishes the table, writing filter, index, props and footer, and
    /// opens it for reading through the file it was written to: a mapped
    /// table through its own mapping, with no host call.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when the table does not read back.
    ///
    /// # Panics
    ///
    /// Panics if no records were added (empty tables are a logic error —
    /// callers skip creating them).
    pub fn finish(mut self) -> Result<TableReader, FsError> {
        assert!(self.count > 0, "refusing to build an empty SSTable");
        self.flush_block();
        // Bloom filter (plaintext metadata: loaded into the enclave at
        // open; authenticity of metadata is the enclave's job, §5.3).
        let bloom = if self.options.bloom_bits_per_key > 0 {
            BloomFilter::from_hashes(&self.key_hashes, self.options.bloom_bits_per_key).encode()
        } else {
            Vec::new()
        };
        let bloom_offset = self.sink.offset;
        self.sink.write(&bloom);
        // Index block, built in the data blocks' builder.
        let mut key_start = 0;
        for &(key_end, off, len) in &self.index {
            let mut v = [0u8; 16];
            v[..8].copy_from_slice(&off.to_le_bytes());
            v[8..].copy_from_slice(&len.to_le_bytes());
            self.block.add(&self.index_keys[key_start..key_end], &v);
            key_start = key_end;
        }
        let index_offset = self.sink.offset;
        let index_bytes = self.block.finish_in_place();
        let index_len = index_bytes.len();
        self.sink.write(index_bytes);
        // Props. The largest user key closes the last block.
        let mut props = Vec::new();
        let last_key_start = self.index.iter().rev().nth(1).map_or(0, |&(end, _, _)| end);
        let largest = user_key_of(&self.index_keys[last_key_start..]);
        put_length_prefixed(&mut props, &self.smallest);
        put_length_prefixed(&mut props, largest);
        put_fixed_u64(&mut props, self.count);
        let props_offset = self.sink.offset;
        self.sink.write(&props);
        // Footer.
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        put_fixed_u64(&mut footer, bloom_offset);
        put_fixed_u64(&mut footer, index_offset - bloom_offset);
        put_fixed_u64(&mut footer, index_offset);
        put_fixed_u64(&mut footer, index_len as u64);
        put_fixed_u64(&mut footer, props_offset);
        put_fixed_u64(&mut footer, props.len() as u64);
        debug_assert_eq!(footer.len() + 8, FOOTER_LEN);
        put_fixed_u64(&mut footer, MAGIC);
        self.sink.write(&footer);
        self.sink.flush();
        TableReader::load(self.sink.file, self.file_no, self.sink.offset as usize)
    }
}

/// The error for a table whose bytes — the host's — do not hold together.
fn corrupt_table(file: &SimFile) -> FsError {
    FsError::OutOfBounds { name: file.name(), requested_end: file.len(), len: file.len() }
}

/// Reads an SSTable, keeping its metadata (index + Bloom filter) in enclave
/// memory when the environment runs in enclave mode.
#[derive(Debug)]
pub struct TableReader {
    file: MappedFile,
    meta: TableMeta,
    index: Vec<(Vec<u8>, u64, u64)>,
    /// Bytes the index occupies as enclave metadata.
    index_bytes: usize,
    bloom: Option<BloomFilter>,
    bloom_region: Option<crate::env::MetaSlice>,
    index_region: Option<crate::env::MetaSlice>,
}

impl TableReader {
    /// Opens a table file, loading footer, props, index and filter: where
    /// the environment maps files, through a mapping of the whole file
    /// (one OCall), otherwise by four host reads.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when the file is truncated or corrupt — an index
    /// without entries included: every lookup starts from a block.
    pub fn open(env: Arc<StorageEnv>, file: Arc<SimFile>, file_no: u64) -> Result<Self, FsError> {
        let file_len = file.len();
        Self::load(MappedFile::open(env, file), file_no, file_len)
    }

    /// Loads the table of `file_len` bytes in `file`.
    fn load(file: MappedFile, file_no: u64, file_len: usize) -> Result<Self, FsError> {
        let env = file.env().clone();
        let corrupt = || corrupt_table(file.file());
        if file_len < FOOTER_LEN {
            return Err(corrupt());
        }
        // Footer and metadata are read once at open (sequential IO).
        let footer = file.read(file_len - FOOTER_LEN, FOOTER_LEN)?;
        if get_fixed_u64(&footer, 48) != Some(MAGIC) {
            return Err(corrupt());
        }
        let bloom_offset = get_fixed_u64(&footer, 0).ok_or_else(corrupt)? as usize;
        let bloom_len = get_fixed_u64(&footer, 8).ok_or_else(corrupt)? as usize;
        let index_offset = get_fixed_u64(&footer, 16).ok_or_else(corrupt)? as usize;
        let index_len = get_fixed_u64(&footer, 24).ok_or_else(corrupt)? as usize;
        let props_offset = get_fixed_u64(&footer, 32).ok_or_else(corrupt)? as usize;
        let props_len = get_fixed_u64(&footer, 40).ok_or_else(corrupt)? as usize;

        let props = file.read(props_offset, props_len)?;
        let (smallest, n) = get_length_prefixed(&props).ok_or_else(corrupt)?;
        let (largest, m) = get_length_prefixed(&props[n..]).ok_or_else(corrupt)?;
        let count = get_fixed_u64(&props, n + m).ok_or_else(corrupt)?;
        let meta = TableMeta {
            file_no,
            smallest: Bytes::copy_from_slice(smallest),
            largest: Bytes::copy_from_slice(largest),
            count,
            file_size: file_len as u64,
        };

        let index_bytes = file.read(index_offset, index_len)?;
        let index_block = Block::parse(index_bytes).ok_or_else(corrupt)?;
        let mut index = Vec::new();
        for (key, value) in index_block.iter() {
            let off = get_fixed_u64(&value, 0).ok_or_else(corrupt)?;
            let len = get_fixed_u64(&value, 8).ok_or_else(corrupt)?;
            index.push((key, off, len));
        }
        if index.is_empty() {
            return Err(corrupt());
        }

        let bloom = if bloom_len > 0 {
            let bloom_bytes = file.read(bloom_offset, bloom_len)?;
            BloomFilter::decode(&bloom_bytes)
        } else {
            None
        };

        // Metadata moves into the enclave: one boundary copy at open, then
        // enclave-resident regions that are touched on every probe.
        let bloom_region = bloom.as_ref().and_then(|b| {
            if env.config().in_enclave {
                env.platform().cross_copy(b.byte_len());
            }
            env.metadata_region(b.byte_len())
        });
        let index_bytes: usize = index.iter().map(|(k, _, _)| k.len() + 16).sum();
        let index_region = if env.config().in_enclave {
            env.platform().cross_copy(index_bytes);
            env.metadata_region(index_bytes.max(1))
        } else {
            None
        };

        Ok(TableReader { file, meta, index, index_bytes, bloom, bloom_region, index_region })
    }

    /// Table summary.
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// The error for this table's bytes not holding together.
    pub(crate) fn corrupt(&self) -> FsError {
        corrupt_table(self.file.file())
    }

    fn read_block(&self, block_idx: usize) -> Result<Block, FsError> {
        let (_, off, len) = self.index[block_idx];
        let stored = self.file.env().read_block(
            self.meta.file_no,
            &self.file,
            off as usize,
            len as usize,
        )?;
        let file = self.file.file();
        Block::parse(stored).ok_or_else(|| FsError::OutOfBounds {
            name: file.name(),
            requested_end: (off + len) as usize,
            len: file.len(),
        })
    }

    /// Index of the first block whose last key is `>= target`, or `None`
    /// past the end.
    fn block_for(&self, target: SeekKey<'_>) -> Option<usize> {
        let idx = self
            .index
            .partition_point(|(last, _, _)| target.cmp_encoded(last) == std::cmp::Ordering::Less);
        (idx < self.index.len()).then_some(idx)
    }

    fn charge_index_probe(&self) {
        // Binary search over the index: ~log2(n) probes. The upper probes
        // share pages (the search tree's hot top); we model the batch as
        // one root-page touch plus one data-dependent touch, which keeps
        // the page-granularity pressure faithful to the unscaled system
        // (see DESIGN.md §4.1) while still faulting under EPC pollution.
        let probes = (self.index.len().max(2)).ilog2() as usize + 1;
        let off = (self.index.len() / 2) * 32 % self.index_bytes.max(1);
        self.file
            .env()
            .touch_metadata(self.index_region.as_ref(), [(0, 32usize), (off, probes * 32)]);
    }

    fn charge_bloom_probe(&self, probe: crate::bloom::Probe) {
        // Same page-granularity argument: the k probed bits are charged as
        // one batch anchored at the first probed offset.
        self.file
            .env()
            .touch_metadata(self.bloom_region.as_ref(), [(probe.first_offset, probe.bits_tested)]);
    }

    /// Point lookup: the newest record for `key`, if the table has one. A
    /// definite Bloom miss returns before touching the index or any data
    /// block. Bounding neighbors of a miss are the run's business
    /// ([`crate::version::Run::get`]).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO/corruption errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>, FsError> {
        Ok(self.lookup(key)?.0)
    }

    /// [`TableReader::get`], also handing back the one block it read and
    /// that block's index, so that a miss's neighbours are walked from it
    /// rather than from a second read.
    pub(crate) fn lookup(&self, key: &[u8]) -> Result<(Option<Record>, Option<BlockAt>), FsError> {
        if let Some(bloom) = &self.bloom {
            let probe = bloom.probe(key);
            self.charge_bloom_probe(probe);
            if !probe.hit {
                return Ok((None, None));
            }
        }
        self.charge_index_probe();
        let seek = SeekKey::newest(key);
        let Some(block_idx) = self.block_for(seek) else {
            return Ok((None, None));
        };
        let block = self.read_block(block_idx)?;
        let mut found = block.seek_key(seek);
        let hit = match found.advance() {
            Ok(true) => record_at(&found).filter(|r| r.key == key).map(|r| r.to_record()),
            _ => None,
        };
        Ok((hit, Some((block_idx, block))))
    }

    /// Cursor over every record in order. The table's blocks are all read
    /// now, in file order: a merge opens each input before it starts, so
    /// that interleaving the inputs' records does not interleave their reads.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when a block fails to read or parse.
    pub fn iter(&self) -> Result<TableIter<'_>, FsError> {
        let blocks: Result<Vec<Block>, FsError> =
            (0..self.index.len()).map(|i| self.read_block(i)).collect();
        Ok(TableIter { file: self.file.file(), blocks: blocks?.into_iter(), cur: None })
    }
}

/// One forward walk over a run's tables — sorted, disjoint — for the
/// records with user key in `[from, to]`, every version, in order.
///
/// The walk starts in the block where `from`'s newest record would be and
/// steps on across block and table boundaries without a new search,
/// reading each block at most once. With [`NeighborPolicy::Required`] it
/// walks the start block from its first entry and also yields the bounding
/// neighbours an end of the range needs: the newest record of the greatest
/// key below `from` unless the run holds `from`, and that of the smallest
/// key above `to`, where it stops, unless the run holds `to` — a stored end
/// key anchors its end of the range itself, and a range with no record in
/// it has both neighbours. With
/// [`NeighborPolicy::Skip`] it seeks to `from` in the start block and reads
/// only the blocks that hold the range, entering no table the range does
/// not meet. `probed` is a `(table, block, bytes)` a point lookup already
/// read: the walk takes it instead of reading that block again.
pub(crate) fn walk(
    tables: &[Arc<TableReader>],
    from: &[u8],
    to: &[u8],
    neighbors: NeighborPolicy,
    mut probed: Option<(usize, usize, Block)>,
) -> Result<Walk, FsError> {
    let required = neighbors == NeighborPolicy::Required;
    let seek = SeekKey::newest(from);
    // The start: the first block whose last key is at or past `seek`.
    let mut t = tables.partition_point(|table| &table.meta.largest[..] < from);
    let mut b = tables.get(t).map_or(0, |table| table.block_for(seek).unwrap_or(table.index.len()));
    if tables.get(t).is_some_and(|table| b == table.index.len()) {
        (t, b) = (t + 1, 0);
    }
    // The block before the start holds keys below `from` only.
    let before = match b.checked_sub(1) {
        Some(prev) => Some((t, prev)),
        None => t.checked_sub(1).map(|prev| (prev, tables[prev].index.len() - 1)),
    };
    let (mut left, mut right) = (false, false);
    let mut records = RangeRecords::gather(|gathered| {
        let mut left_open = required;
        // Whether the last record gathered in the range is `to`'s.
        let mut at_to = false;
        let mut cursor: Option<BlockIter> = None;
        while let Some(table) = tables.get(t) {
            if !required && &table.meta.smallest[..] > to {
                break;
            }
            while b < table.index.len() {
                let block = match probed.take() {
                    Some((pt, pb, block)) if (pt, pb) == (t, b) => block,
                    _ => table.read_block(b)?,
                };
                let entries = match &mut cursor {
                    Some(entries) => {
                        entries.reset(block);
                        entries
                    }
                    None if required => cursor.insert(block.iter()),
                    None => cursor.insert(block.seek_key(seek)),
                };
                while let Ok(true) = entries.advance() {
                    let Some(r) = record_at(entries) else { continue };
                    if r.key < from {
                        // A key's first entry is its newest record: the
                        // left neighbour, until a greater key comes.
                        if required && (!left || gathered.keys[..] != *r.key) {
                            gathered.restart(r);
                            left = true;
                        }
                        continue;
                    }
                    if left_open {
                        left_open = false;
                        if r.key == from {
                            // A stored `from` anchors the range's start itself.
                            gathered.clear();
                            left = false;
                        } else {
                            left = settle_left(tables, before, left, gathered)?;
                        }
                    }
                    if r.key <= to {
                        at_to = r.key == to;
                        gathered.push(r);
                        continue;
                    }
                    // ... and a stored `to` its end.
                    if required && !at_to {
                        gathered.push(r);
                        right = true;
                    }
                    return Ok(());
                }
                b += 1;
            }
            // Versions never straddle tables, so a `to` gathered last is
            // whole when its table ends: the next table holds no record
            // the walk needs.
            if at_to {
                return Ok(());
            }
            (t, b) = (t + 1, 0);
        }
        if left_open {
            left = settle_left(tables, before, left, gathered)?;
        }
        Ok(())
    })?;
    let right = if right { records.pop() } else { None };
    let left = if left { Some(records.remove(0)) } else { None };
    Ok(Walk { left, records, right })
}

/// Settles a walk's left neighbour once it has passed a `from` the run does
/// not hold. The one gathered in the start block stands unless there is
/// none or it is the key that closes the block `before` the start: that
/// key's newest record is then read from the block the index says its
/// versions begin in — versions straddle blocks, never tables. Says whether
/// there is a left neighbour.
fn settle_left(
    tables: &[Arc<TableReader>],
    before: Option<(usize, usize)>,
    found: bool,
    gathered: &mut RangeRecords,
) -> Result<bool, FsError> {
    let Some((t, b)) = before else { return Ok(found) };
    let index = &tables[t].index;
    let key = user_key_of(&index[b].0);
    if found && gathered.keys[..] != *key {
        return Ok(true);
    }
    let first = (0..b).rev().take_while(|&i| user_key_of(&index[i].0) == key).last().unwrap_or(b);
    let block = tables[t].read_block(first)?;
    let mut head = block.seek_key(SeekKey::newest(key));
    if let Ok(true) = head.advance() {
        if let Some(newest) = record_at(&head).filter(|r| r.key == key) {
            gathered.restart(newest);
            return Ok(true);
        }
    }
    Ok(found)
}

/// The records of a run walk — its range and its neighbours — gathered in
/// one pass over the blocks that hold them: each key appended to one
/// buffer, the rest of the record kept beside its key's end. Kept per
/// thread and reused, so gathering allocates nothing once warm;
/// [`RangeRecords::gather`] hands the records out with two allocations,
/// whatever their number — their keys' arena and their vector, both sized
/// exactly.
#[derive(Debug)]
pub(crate) struct RangeRecords {
    keys: Vec<u8>,
    /// `(ts, kind, value, end of the key in keys)`.
    rest: Vec<(Timestamp, ValueKind, Bytes, usize)>,
}

thread_local! {
    /// The gathering buffers of this thread's last run walk.
    static SPARE_RANGE: std::cell::Cell<RangeRecords> =
        const { std::cell::Cell::new(RangeRecords::EMPTY) };
}

impl RangeRecords {
    const EMPTY: RangeRecords = RangeRecords { keys: Vec::new(), rest: Vec::new() };

    /// Runs `fill` on this thread's buffers and hands out what it
    /// gathered.
    pub(crate) fn gather(
        fill: impl FnOnce(&mut RangeRecords) -> Result<(), FsError>,
    ) -> Result<Vec<Record>, FsError> {
        let mut gathered =
            SPARE_RANGE.try_with(|spare| spare.replace(Self::EMPTY)).unwrap_or(Self::EMPTY);
        let records = fill(&mut gathered).map(|()| gathered.records());
        gathered.keys.clear();
        gathered.rest.clear();
        let _ = SPARE_RANGE.try_with(|spare| spare.set(gathered));
        records
    }

    fn push(&mut self, r: RecordView<'_>) {
        self.keys.extend_from_slice(r.key);
        self.rest.push((r.ts, r.kind, r.value.clone(), self.keys.len()));
    }

    /// Drops what was gathered.
    fn clear(&mut self) {
        self.keys.clear();
        self.rest.clear();
    }

    /// Drops what was gathered and gathers `r` alone.
    fn restart(&mut self, r: RecordView<'_>) {
        self.clear();
        self.push(r);
    }

    /// The records gathered, in order: their keys slices of one arena,
    /// their values of the blocks.
    fn records(&mut self) -> Vec<Record> {
        if self.rest.is_empty() {
            return Vec::new();
        }
        let arena = Bytes::copy_from_slice(&self.keys);
        let mut start = 0;
        self.rest
            .drain(..)
            .map(|(ts, kind, value, end)| {
                let key = arena.slice(start..end);
                start = end;
                Record { key, ts, kind, value }
            })
            .collect()
    }
}

/// The record under a block cursor; `None` when its key is shorter than
/// an internal key's suffix.
fn record_at(entry: &BlockIter) -> Option<RecordView<'_>> {
    let (key, ts, kind) = parse_internal_key(entry.key())?;
    Some(RecordView { key, ts, kind, value: entry.value() })
}

/// Cursor over all records of a table, in order: the input of merges,
/// level dumps and recovery. [`TableIter::advance`] moves to the next
/// record and [`TableIter::view`] lends it — the key out of the block
/// cursor's one buffer, the value a slice of the block — so a pass over a
/// table allocates per block read, never per record. A block that fails to
/// read or parse, an entry that does not decode and a key too short to be
/// an internal key are errors, not the end of the table.
#[derive(Debug)]
pub struct TableIter<'a> {
    file: &'a SimFile,
    /// Blocks not yet iterated, in order.
    blocks: std::vec::IntoIter<Block>,
    cur: Option<BlockIter>,
}

impl TableIter<'_> {
    /// Moves to the next record; `Ok(false)` after the last.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] for a block or entry the host's bytes do not
    /// hold together for. What the cursor yields after that is not the
    /// table: the caller stops.
    pub fn advance(&mut self) -> Result<bool, FsError> {
        loop {
            if let Some(cur) = &mut self.cur {
                match cur.advance() {
                    Ok(true) if cur.key().len() >= 8 => return Ok(true),
                    Ok(false) => {}
                    Ok(true) | Err(_) => return Err(corrupt_table(self.file)),
                }
            }
            let Some(block) = self.blocks.next() else { return Ok(false) };
            match &mut self.cur {
                Some(cur) => cur.reset(block),
                None => self.cur = Some(block.iter()),
            }
        }
    }

    /// The record the cursor is on.
    ///
    /// # Panics
    ///
    /// Panics unless the last [`TableIter::advance`] returned `Ok(true)`.
    pub fn view(&self) -> RecordView<'_> {
        self.cur.as_ref().and_then(record_at).expect("the cursor is on a record")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use crate::record::tests::RecordFixtures;
    use crate::version::{LevelOutcome, Run};
    use sgx_sim::{CostModel, Platform};
    use sim_disk::{SimDisk, SimFs};

    impl TableReader {
        /// The records of each data block, in order.
        pub(crate) fn block_records(&self) -> Vec<Vec<Record>> {
            let block_records = |i| {
                let block = self.read_block(i).unwrap();
                let mut entries = block.iter();
                let mut records = Vec::new();
                while let Ok(true) = entries.advance() {
                    records.push(record_at(&entries).unwrap().to_record());
                }
                records
            };
            (0..self.index.len()).map(block_records).collect()
        }
    }

    fn test_env(config: EnvConfig) -> (Arc<StorageEnv>, Arc<SimFs>) {
        let platform = Platform::new(CostModel::paper_defaults());
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let sealer = sgx_sim::Sealer::new(elsm_crypto::sha256(b"t"), b"m");
        (StorageEnv::new(platform, fs.clone(), config, Some(sealer)), fs)
    }

    fn build_table(env: &Arc<StorageEnv>, fs: &Arc<SimFs>, records: &[Record]) -> TableReader {
        let file = fs.create("1.sst").unwrap();
        let file = MappedFile::new(env.clone(), file, 0);
        let mut b = TableBuilder::new(file, 1, TableOptions::default());
        for r in records {
            b.add(r.view());
        }
        let reader = b.finish().unwrap();
        assert_eq!(reader.meta().count, records.len() as u64);
        reader
    }

    fn sample_records() -> Vec<Record> {
        // Keys k0000..k0199, two versions for every 10th key.
        let mut recs = Vec::new();
        for (ts, i) in (1000u64..).zip(0..200) {
            let key = format!("k{i:04}");
            if i % 10 == 0 {
                recs.push(Record::put(
                    key.clone().into_bytes(),
                    format!("new{i}").into_bytes(),
                    ts,
                ));
                recs.push(Record::put(key.into_bytes(), format!("old{i}").into_bytes(), ts - 500));
            } else {
                recs.push(Record::put(key.into_bytes(), format!("v{i}").into_bytes(), ts));
            }
        }
        recs
    }

    #[test]
    fn build_and_get_every_key() {
        let (env, fs) = test_env(EnvConfig::default());
        let reader = build_table(&env, &fs, &sample_records());
        for i in 0..200 {
            let key = format!("k{i:04}");
            let r = reader.get(key.as_bytes()).unwrap().expect("present");
            assert_eq!(&r.key[..], key.as_bytes());
            if i % 10 == 0 {
                assert_eq!(&r.value[..], format!("new{i}").as_bytes(), "newest wins");
            }
        }
    }

    fn one_table_run(reader: TableReader) -> Run {
        Run::new(vec![Arc::new(reader)]).unwrap()
    }

    #[test]
    fn miss_returns_bounding_neighbors() {
        let (env, fs) = test_env(EnvConfig::default());
        let recs = vec![
            Record::put(b"b".as_slice(), b"1".as_slice(), 1),
            Record::put(b"d".as_slice(), b"2".as_slice(), 2),
            Record::put(b"f".as_slice(), b"3".as_slice(), 3),
        ];
        let run = one_table_run(build_table(&env, &fs, &recs));
        let neighbors = |key: &[u8]| match run.get(key, NeighborPolicy::Required).unwrap() {
            LevelOutcome::Miss { left, right } => {
                (left.map(|r| r.key.to_vec()), right.map(|r| r.key.to_vec()))
            }
            other => panic!("expected a miss: {other:?}"),
        };
        assert_eq!(neighbors(b"c"), (Some(b"b".to_vec()), Some(b"d".to_vec())));
        assert_eq!(neighbors(b"a"), (None, Some(b"b".to_vec())));
        assert_eq!(neighbors(b"z"), (Some(b"f".to_vec()), None));
    }

    #[test]
    fn neighbors_return_newest_version() {
        let (env, fs) = test_env(EnvConfig::default());
        let recs = vec![
            Record::put(b"b".as_slice(), b"new".as_slice(), 10),
            Record::put(b"b".as_slice(), b"old".as_slice(), 1),
            Record::put(b"d".as_slice(), b"x".as_slice(), 5),
        ];
        let reader = build_table(&env, &fs, &recs);
        assert_eq!(reader.get(b"c").unwrap(), None);
        let walk = one_table_run(reader).walk(b"c", b"c", NeighborPolicy::Required).unwrap();
        let l = walk.left.unwrap();
        assert_eq!((&l.key[..], l.ts), (b"b".as_slice(), 10));
    }

    /// Versions of one key fill several blocks: whichever block the walk
    /// starts in, the left neighbour is the chain's head.
    #[test]
    fn left_neighbor_is_the_chain_head_across_blocks() {
        let (env, fs) = test_env(EnvConfig { block_cache_bytes: 0, ..EnvConfig::default() });
        let mut recs = vec![Record::put(b"a".as_slice(), b"first".as_slice(), 1)];
        for v in 0..60u64 {
            recs.push(Record::put(b"hot".as_slice(), vec![v as u8; 200], 1000 - v));
        }
        recs.push(Record::put(b"next".as_slice(), b"x".as_slice(), 5));
        let reader = build_table(&env, &fs, &recs);
        let hot_blocks = reader.index.iter().filter(|(last, _, _)| user_key_of(last) == b"hot");
        assert!(hot_blocks.count() >= 3, "the chain must straddle blocks");
        let head = recs[1].clone();
        assert_eq!((&head.key[..], head.ts), (&b"hot"[..], 1000), "the max-ts version");
        let run = one_table_run(reader);
        match run.get(b"i", NeighborPolicy::Required).unwrap() {
            LevelOutcome::Miss { left, right } => {
                assert_eq!(left, Some(head.clone()));
                assert_eq!(&right.unwrap().key[..], b"next");
            }
            other => panic!("expected miss: {other:?}"),
        }
        // Each range starts or ends at a key the run does not hold: a stored
        // end key anchors its end itself and has no neighbour there.
        let walk = |from: &[u8], to: &[u8]| run.walk(from, to, NeighborPolicy::Required).unwrap();
        assert_eq!(walk(b"i", b"next").left, Some(head.clone()));
        assert_eq!(walk(b"zz", b"zz").left.unwrap().key, &b"next"[..]);
        assert_eq!(walk(b"a", b"b").right, Some(head.clone()));
        let chain = walk(b"b", b"i");
        assert_eq!(chain.records, recs[1..61].to_vec());
        assert_eq!((chain.left, chain.right), (Some(recs[0].clone()), Some(recs[61].clone())));
        let anchored = walk(b"hot", b"hot");
        assert_eq!(anchored.records, recs[1..61].to_vec());
        assert_eq!((anchored.left, anchored.right), (None, None));
    }

    #[test]
    fn iter_returns_all_in_order() {
        let (env, fs) = test_env(EnvConfig::default());
        let recs = sample_records();
        let reader = build_table(&env, &fs, &recs);
        let mut got: Vec<Record> = Vec::new();
        let mut records = reader.iter().unwrap();
        while records.advance().unwrap() {
            got.push(records.view().to_record());
        }
        assert_eq!(got, recs);
        for w in got.windows(2) {
            assert!(
                w[0].internal_key().encoded() < w[1].internal_key().encoded(),
                "iterator must be sorted"
            );
        }
    }

    #[test]
    fn range_is_inclusive_and_complete() {
        let (env, fs) = test_env(EnvConfig::default());
        let run = one_table_run(build_table(&env, &fs, &sample_records()));
        let got = run.walk(b"k0010", b"k0020", NeighborPolicy::Skip).unwrap().records;
        let keys: Vec<String> =
            got.iter().map(|r| String::from_utf8_lossy(&r.key).into_owned()).collect();
        assert!(keys.contains(&"k0010".to_string()));
        assert!(keys.contains(&"k0020".to_string()));
        assert!(!keys.contains(&"k0021".to_string()));
        // k0010 and k0020 have 2 versions each: 11 keys + 2 extra versions.
        assert_eq!(got.len(), 13);
    }

    #[test]
    fn sealed_tables_round_trip() {
        let (env, fs) = test_env(EnvConfig {
            sealed_files: true,
            block_cache_bytes: 0,
            ..EnvConfig::default()
        });
        let reader = build_table(&env, &fs, &sample_records());
        let r = reader.get(b"k0042").unwrap().expect("sealed table must still serve reads");
        assert_eq!(&r.value[..], b"v42");
    }

    #[test]
    fn mmap_tables_round_trip() {
        let (env, fs) =
            test_env(EnvConfig { use_mmap: true, block_cache_bytes: 0, ..EnvConfig::default() });
        let reader = build_table(&env, &fs, &sample_records());
        let ocalls_before = env.platform().stats().ocalls;
        let r = reader.get(b"k0042").unwrap().expect("mmap table must serve reads");
        assert_eq!(&r.value[..], b"v42");
        assert_eq!(env.platform().stats().ocalls, ocalls_before, "mmap read has no OCall");
    }

    #[test]
    fn bloom_probe_charges_metadata_touches() {
        let (env, fs) = test_env(EnvConfig::default());
        let reader = build_table(&env, &fs, &sample_records());
        let before = env.platform().stats().enclave_copy_bytes;
        let _ = reader.get(b"absent-key").unwrap();
        assert!(
            env.platform().stats().enclave_copy_bytes > before,
            "probe must touch enclave metadata"
        );
    }

    #[test]
    fn corrupt_footer_rejected() {
        let (env, fs) = test_env(EnvConfig::default());
        let file = fs.create("bad.sst").unwrap();
        file.append(&[0u8; 100]);
        assert!(TableReader::open(env, file, 9).is_err());
    }

    /// Writes a table file from hand-made sections, with an honest footer.
    fn assemble(
        fs: &Arc<SimFs>,
        name: &str,
        data_blocks: &[Vec<u8>],
        index: &[(&[u8], usize)],
        (smallest, largest): (&[u8], &[u8]),
    ) -> Arc<SimFile> {
        let mut bytes = Vec::new();
        let mut offsets = Vec::new();
        for block in data_blocks {
            offsets.push((bytes.len() as u64, block.len() as u64));
            bytes.extend_from_slice(block);
        }
        let bloom_offset = bytes.len() as u64; // no filter: zero length
        let mut index_block = BlockBuilder::new();
        for (last_key, block_no) in index {
            let mut v = Vec::new();
            put_fixed_u64(&mut v, offsets[*block_no].0);
            put_fixed_u64(&mut v, offsets[*block_no].1);
            index_block.add(last_key, &v);
        }
        let index_bytes = index_block.finish();
        let index_offset = bytes.len() as u64;
        bytes.extend_from_slice(&index_bytes);
        let mut props = Vec::new();
        put_length_prefixed(&mut props, smallest);
        put_length_prefixed(&mut props, largest);
        put_fixed_u64(&mut props, 1);
        let props_offset = bytes.len() as u64;
        bytes.extend_from_slice(&props);
        let footer = [
            bloom_offset,
            0,
            index_offset,
            index_bytes.len() as u64,
            props_offset,
            props.len() as u64,
            MAGIC,
        ];
        for word in footer {
            put_fixed_u64(&mut bytes, word);
        }
        let file = fs.create(name).unwrap();
        file.append(&bytes);
        file
    }

    fn block_of(records: &[Record]) -> Vec<u8> {
        let mut block = BlockBuilder::new();
        for r in records {
            block.add(r.internal_key().encoded(), &r.value);
        }
        block.finish()
    }

    /// The host owns a table's bytes. Three shapes that parse and used to
    /// panic — an index without entries, a first block without entries, a
    /// largest key that is not there — are errors or plain misses now,
    /// through every read entry point.
    #[test]
    fn malformed_tables_are_errors_not_panics() {
        let (env, fs) = test_env(EnvConfig { block_cache_bytes: 0, ..EnvConfig::default() });
        let recs = [
            Record::put(b"b".as_slice(), b"1".as_slice(), 1),
            Record::put(b"d".as_slice(), b"2".as_slice(), 2),
        ];
        let last = recs[1].internal_key();

        // An index block that parses and holds nothing: refused at open
        // (the first traced miss used to index `len() - 1` of it).
        let file = assemble(&fs, "noindex.sst", &[block_of(&recs)], &[], (b"b", b"d"));
        assert!(TableReader::open(env.clone(), file, 1).is_err());

        // A first data block with no entries.
        let empty = BlockBuilder::new().finish();
        let file = assemble(&fs, "emptyblock.sst", &[empty], &[(last.encoded(), 0)], (b"b", b"d"));
        let run = one_table_run(TableReader::open(env.clone(), file, 2).unwrap());
        for key in [&b"a"[..], b"b", b"c", b"d", b"e"] {
            let got = run.get(key, NeighborPolicy::Required).unwrap();
            assert_eq!(got, LevelOutcome::Miss { left: None, right: None }, "{key:?}");
        }
        for neighbors in [NeighborPolicy::Required, NeighborPolicy::Skip] {
            assert_eq!(run.walk(b"a", b"z", neighbors).unwrap(), Walk::default());
        }

        // Properties naming a largest key the table does not hold.
        let index = [(last.encoded(), 0)];
        let file = assemble(&fs, "liar.sst", &[block_of(&recs)], &index, (b"b", b"x"));
        let liar = TableReader::open(env.clone(), file, 3).unwrap();
        assert_eq!(liar.get(b"x").unwrap(), None, "x is not in the table");
        let run = one_table_run(liar);
        assert_eq!(run.walk(b"c", b"z", NeighborPolicy::Skip).unwrap().records, [recs[1].clone()]);
        for key in [&b"w"[..], b"x"] {
            assert_eq!(
                run.get(key, NeighborPolicy::Required).unwrap(),
                LevelOutcome::Miss { left: Some(recs[1].clone()), right: None },
                "{key:?}"
            );
        }
    }

    #[test]
    fn meta_tracks_bounds() {
        let (env, fs) = test_env(EnvConfig::default());
        let reader = build_table(&env, &fs, &sample_records());
        assert_eq!(&reader.meta().smallest[..], b"k0000");
        assert_eq!(&reader.meta().largest[..], b"k0199");
        assert_eq!(reader.meta().count, 220);
    }
}
