//! Host-fed decoders under mutation: the mutate-and-splice template
//! `tests/proof_identity.rs` applies to `RecordProofRef::parse`, with the
//! allocation watch of `crates/merkle/tests/decode_reservation.rs`, run
//! over the two decoders a read now walks in place — a data block
//! (`Block::parse`, then `BlockIter::advance` and seeks) and a whole table
//! (`TableReader::open`, then `get`, the neighbour searches and `range`) —
//! and over the two the write path's bytes come back through: a WAL batch
//! frame (`decode_frame`: a replica's shipment, a replayed log) and a
//! record (`Record::decode` / `decode_prefix`), whose encodings the store
//! now writes into reused buffers — and over two a read decodes from the
//! host's bytes before anything is verified: a table's Bloom filter
//! (`BloomFilter::decode`, then probes) and a value-log pointer
//! (`vlog::decode_pointer`, what every read of a separated value follows)
//! — and over a replication shipment (`replica::wire::decode_event`,
//! which reaches the trace-context, compaction-job, value-log-GC-job,
//! announcement and frame decoders) — and over what a restart and a
//! separated read take from the host: the manifest (`decode_manifest`, with
//! its `vlog::decode_manifest_section`) and a value-log entry (`Vlog::read`
//! on a recovered log) — and over the certificate-transparency log's stored
//! value (`ct_log::Certificate::decode`). Whatever the bytes: no panic, no
//! single allocation beyond the input's length times a constant, and what
//! is accepted decodes to entries that round-trip through the encoder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use elsm_repro::crypto::Digest;
use elsm_repro::ct_log::{synthesize, Certificate};
use elsm_repro::elsm::Announcement;
use elsm_repro::lsm_store::block::{Block, BlockBuilder};
use elsm_repro::lsm_store::bloom::{key_hashes, BloomFilter};
use elsm_repro::lsm_store::encoding::{crc32c, get_varint_u64, put_varint_u64};
use elsm_repro::lsm_store::vlog::{
    decode_manifest_section, decode_pointer, encode_manifest_section, encode_pointer, vlog_name,
    MAC_BYTES,
};
use elsm_repro::lsm_store::{
    decode_frame, decode_manifest, encode_frame, internal_cmp, CompactionJob, EnvConfig, Manifest,
    Record, StorageEnv, TableBuilder, TableOptions, TableReader, Timestamp, ValueKind, Vlog,
    VlogConfig, VlogGcJob, VlogPtr,
};
use elsm_repro::replica::{decode_event, encode_event, WireEvent};
use elsm_repro::sgx_sim::{CostModel, Platform};
use elsm_repro::sim_disk::{SimDisk, SimFile, SimFs};
use elsm_repro::telemetry::TraceContext;
use proptest::prelude::*;

struct Watching;

thread_local! {
    /// Largest allocation request seen on this thread since the probe was
    /// armed (`None`: not armed).
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let result = f();
    let seen = LARGEST.with(|largest| largest.take()).expect("armed above");
    (result, seen)
}

/// A decoder's largest single allocation may be this many times its input:
/// a decoded record is held in at most 80 bytes of vector (a `Record`) and
/// takes at least eleven input bytes (an entry header and an internal
/// key's 8-byte suffix).
const PER_INPUT_BYTE: usize = 8;

/// One edit of a valid encoding `base`: overwrite a byte, cut short,
/// append the head of `other`, splice `other`'s tail on, or set four bytes
/// (a count, a length, an offset) to all ones. Half the positions fall in
/// the last 64 bytes, where a block keeps its restarts and a table its
/// footer.
fn mutate(base: &[u8], other: &[u8], (at, byte, kind): (u16, u8, u8)) -> Vec<u8> {
    let mut buf = base.to_vec();
    let at = if byte & 1 == 0 {
        at as usize % base.len()
    } else {
        base.len() - 1 - at as usize % base.len().min(64)
    };
    match kind % 5 {
        0 => buf[at] = byte,
        1 => buf.truncate(at),
        2 => buf.extend_from_slice(&other[..at.min(other.len())]),
        3 => {
            buf.truncate(at);
            buf.extend_from_slice(&other[at.min(other.len())..]);
        }
        _ => {
            let end = (at + 4).min(buf.len());
            buf[at..end].fill(0xff);
        }
    }
    buf
}

fn internal_key(key: &[u8], ts: Timestamp) -> Vec<u8> {
    Record::put(key.to_vec(), Vec::new(), ts).internal_key().encoded().to_vec()
}

/// Sorted, distinct `(user key, ts)` pairs as records, internal-key order
/// (a key's versions newest first).
fn records(picks: &[(u16, u16)]) -> Vec<Record> {
    let mut picks: Vec<(u16, u16)> = picks.iter().map(|&(k, ts)| (k % 64, ts + 1)).collect();
    picks.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    picks.dedup();
    picks
        .into_iter()
        .map(|(k, ts)| {
            let value = vec![k as u8 ^ ts as u8; (k as usize * 7 + ts as usize) % 40];
            Record::put(format!("key{k:03}").into_bytes(), value, u64::from(ts))
        })
        .collect()
}

/// `records(picks)` with every kind of record: some become tombstones,
/// some value-log pointers.
fn mixed_records(picks: &[(u16, u16)]) -> Vec<Record> {
    let mut records = records(picks);
    for record in &mut records {
        match record.ts % 3 {
            0 => *record = Record::tombstone(record.key.clone(), record.ts),
            1 => record.kind = ValueKind::VlogPut,
            _ => {}
        }
    }
    records
}

/// A block's `(key, value)` entries, owned.
type Entries = Vec<(Vec<u8>, Vec<u8>)>;

fn encode_block(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut block = BlockBuilder::new();
    for (key, value) in entries {
        block.add(key, value);
    }
    block.finish()
}

/// Every entry of `block`, if every entry decodes.
fn block_entries(block: &Block) -> Option<Entries> {
    let mut out = Vec::new();
    let mut cursor = block.iter();
    while cursor.advance().ok()? {
        out.push((cursor.key().to_vec(), cursor.value().to_vec()));
    }
    Some(out)
}

/// Whether keys strictly increase, the order an encoder requires.
fn strictly_increasing<'a>(mut keys: impl Iterator<Item = &'a [u8]>) -> bool {
    let Some(mut prev) = keys.next() else { return true };
    keys.all(|key| {
        let ok = internal_cmp(prev, key).is_lt();
        prev = key;
        ok
    })
}

fn env(use_mmap: bool) -> (Arc<StorageEnv>, Arc<SimFs>) {
    let platform = Platform::new(CostModel::paper_defaults());
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let config = EnvConfig { use_mmap, block_cache_bytes: 0, ..EnvConfig::default() };
    (StorageEnv::new(platform, fs.clone(), config, None), fs)
}

/// Writes `records` as table `file_no`; returns the file.
fn write_table(
    env: &Arc<StorageEnv>,
    fs: &SimFs,
    file_no: u64,
    records: &[Record],
) -> Arc<SimFile> {
    let file = fs.create(&format!("{file_no}.sst")).unwrap();
    let options = TableOptions { block_size: 256, bloom_bits_per_key: 10 };
    let mut table = TableBuilder::new(env.clone(), file.clone(), file_no, options);
    for record in records {
        table.add(record.view());
    }
    table.finish();
    file
}

/// Every record of `table` while its blocks and entries decode.
fn table_records(table: &TableReader) -> Option<Vec<Record>> {
    let mut cursor = table.iter().ok()?;
    let mut out = Vec::new();
    while cursor.advance().ok()? {
        out.push(cursor.view().to_record());
    }
    Some(out)
}

/// Every read a verified query makes of one table, for the keys `probes`;
/// the results are dropped, only a panic or an allocation matters.
fn read_everything(table: &TableReader, probes: &[Vec<u8>]) {
    let ts = Timestamp::MAX >> 1;
    for key in probes {
        let _ = table.get(key, ts);
        let _ = table.get(key, 5);
        let _ = table.newest_before(key, ts);
        let _ = table.newest_after(key, ts);
    }
    let _ = table.range(&probes[0], &probes[probes.len() - 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A block: the honest encoding iterates to its entries and seeks to
    /// each; any edit of it parses or not, walks and seeks without panic or
    /// a reservation, and a block whose entries all decode in order
    /// re-encodes to a block with the same entries.
    #[test]
    fn mutated_blocks_decode_in_bounds(
        picks in prop::collection::vec((any::<u16>(), 0u16..500), 1..80),
        spliced in prop::collection::vec((any::<u16>(), 0u16..500), 1..20),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let entries = |picks: &[(u16, u16)]| -> Entries {
            records(picks)
                .iter()
                .map(|r| (r.internal_key().encoded().to_vec(), r.value.to_vec()))
                .collect()
        };
        let (honest, other) = (entries(&picks), entries(&spliced));
        let (base, other) = (encode_block(&honest), encode_block(&other));
        let block = Block::parse(Bytes::from(base.clone())).expect("own encoding parses");
        prop_assert_eq!(block_entries(&block), Some(honest.clone()));
        for (key, value) in &honest {
            let mut at = block.seek(key);
            prop_assert_eq!(at.advance(), Ok(true));
            prop_assert_eq!((at.key(), &at.value()[..]), (&key[..], &value[..]));
        }

        let targets: Vec<Vec<u8>> =
            honest.iter().step_by(7).map(|(key, _)| key.clone()).chain([Vec::new()]).collect();
        for edit in edits {
            let buf = Bytes::from(mutate(&base, &other, edit));
            let (parsed, largest) = largest_allocation(|| {
                let block = Block::parse(buf.clone())?;
                let mut walk = block.iter();
                while let Ok(true) = walk.advance() {}
                for target in &targets {
                    let mut at = block.seek(target);
                    let _ = at.advance();
                }
                Some(block)
            });
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            let Some(decoded) = parsed.as_ref().and_then(block_entries) else { continue };
            if strictly_increasing(decoded.iter().map(|(key, _)| &key[..])) {
                let again = Block::parse(Bytes::from(encode_block(&decoded))).unwrap();
                prop_assert_eq!(block_entries(&again), Some(decoded));
            }
        }
    }

    /// A table, read buffered or through a mapping: the honest file opens
    /// and answers every read; any edit of it opens or not, serves every
    /// read a query makes without panic or a reservation, and a table whose
    /// records all decode in order re-encodes to a table with the same
    /// records.
    #[test]
    fn mutated_tables_decode_in_bounds(
        picks in prop::collection::vec((any::<u16>(), 0u16..500), 1..60),
        spliced in prop::collection::vec((any::<u16>(), 0u16..500), 1..20),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..30),
        use_mmap in any::<bool>(),
    ) {
        let (env, fs) = env(use_mmap);
        let honest = records(&picks);
        let file = write_table(&env, &fs, 1, &honest);
        let base = file.read_at(0, file.len()).unwrap().to_vec();
        let other = write_table(&env, &fs, 2, &records(&spliced));
        let other = other.read_at(0, other.len()).unwrap().to_vec();
        let table = TableReader::open(env.clone(), file, 1).expect("own table opens");
        prop_assert_eq!(table_records(&table), Some(honest.clone()));
        prop_assert_eq!(table.range(b"key", b"key~").unwrap(), honest.clone());
        for record in &honest {
            let newest = table.get(&record.key, Timestamp::MAX >> 1).unwrap().unwrap();
            prop_assert_eq!(&newest, honest.iter().find(|r| r.key == record.key).unwrap());
        }

        let probes: Vec<Vec<u8>> = (0..64u32)
            .step_by(9)
            .map(|k| format!("key{k:03}").into_bytes())
            .chain([b"a".to_vec(), internal_key(b"key", 1), b"z".to_vec()])
            .collect();
        for (n, edit) in edits.into_iter().enumerate() {
            let buf = mutate(&base, &other, edit);
            let file_no = 10 + n as u64;
            let file = fs.create(&format!("{file_no}.sst")).unwrap();
            file.append(&buf);
            let (opened, largest) = largest_allocation(|| {
                let table = TableReader::open(env.clone(), file, file_no).ok()?;
                read_everything(&table, &probes);
                Some(table)
            });
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            let Some(decoded) = opened.as_ref().and_then(table_records) else { continue };
            let keys: Vec<Vec<u8>> =
                decoded.iter().map(|r| r.internal_key().encoded().to_vec()).collect();
            if !decoded.is_empty() && strictly_increasing(keys.iter().map(Vec::as_slice)) {
                let again = write_table(&env, &fs, 1000 + file_no, &decoded);
                let again = TableReader::open(env.clone(), again, 1000 + file_no).unwrap();
                prop_assert_eq!(table_records(&again), Some(decoded));
            }
        }
    }

    /// A WAL batch frame: the honest encoding decodes to its records; any
    /// edit of it decodes or not without panic or a reservation beyond a
    /// constant times its length — whatever record count it claims — and
    /// what is accepted encodes to a frame that decodes to the same.
    #[test]
    fn mutated_frames_decode_in_bounds(
        picks in prop::collection::vec((any::<u16>(), 0u16..500), 1..60),
        spliced in prop::collection::vec((any::<u16>(), 0u16..500), 1..20),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let honest = mixed_records(&picks);
        let (base, other) = (encode_frame(&honest), encode_frame(&mixed_records(&spliced)));
        prop_assert_eq!(decode_frame(&base), Some(honest));
        for edit in edits {
            let mut buf = mutate(&base, &other, edit);
            if edit.2 & 0x80 != 0 && buf.len() >= 8 {
                // The host writes the log and can frame anything: the
                // length and CRC then vouch for the edited payload.
                let payload_len = buf.len() as u32 - 8;
                let crc = crc32c(&buf[8..]);
                buf[..4].copy_from_slice(&payload_len.to_le_bytes());
                buf[4..8].copy_from_slice(&crc.to_le_bytes());
            }
            let (decoded, largest) = largest_allocation(|| decode_frame(&buf));
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            if let Some(records) = decoded {
                prop_assert_eq!(decode_frame(&encode_frame(&records)), Some(records));
            }
        }
    }

    /// One record's encoding, whole (`decode`) and as the prefix of a
    /// longer buffer (`decode_prefix`, how a frame is walked): any edit
    /// decodes or not in bounds, and an accepted record re-encodes to
    /// bytes that decode to it again, consuming exactly what it encodes to.
    #[test]
    fn mutated_records_decode_in_bounds(
        picks in prop::collection::vec((any::<u16>(), 0u16..500), 1..8),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let records = mixed_records(&picks);
        let base = records[0].encode();
        let other: Vec<u8> = records.iter().flat_map(Record::encode).collect();
        prop_assert_eq!(Record::decode(&base), Some(records[0].clone()));
        prop_assert_eq!(Record::decode_prefix(&other).map(|(r, _)| r), Some(records[0].clone()));
        for edit in edits {
            let buf = mutate(&base, &other, edit);
            let (decoded, largest) =
                largest_allocation(|| (Record::decode(&buf), Record::decode_prefix(&buf)));
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            let (whole, prefix) = decoded;
            if let Some(record) = whole {
                prop_assert_eq!(Record::decode(&record.encode()), Some(record));
            }
            if let Some((record, used)) = prefix {
                prop_assert!(used <= buf.len());
                let again = record.encode();
                prop_assert_eq!(Record::decode_prefix(&again), Some((record, again.len())));
            }
        }
    }

    /// A Bloom filter as a table stores it: the honest encoding decodes to
    /// the filter; any edit — half of them re-framed so the length field
    /// matches what follows it — decodes or not without panic or a
    /// reservation, a decoded filter answers probes, and an accepted filter
    /// re-encodes to the prefix of the input it was read from.
    #[test]
    fn mutated_bloom_filters_decode_in_bounds(
        keys in prop::collection::vec(any::<u16>(), 0..60),
        spliced in prop::collection::vec(any::<u16>(), 0..20),
        bits_per_key in 1usize..16,
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let filter = |keys: &[u16]| {
            let hashes: Vec<_> = keys.iter().map(|k| key_hashes(format!("key{k}").as_bytes())).collect();
            BloomFilter::from_hashes(&hashes, bits_per_key)
        };
        let honest = filter(&keys);
        let (base, other) = (honest.encode(), filter(&spliced).encode());
        prop_assert_eq!(BloomFilter::decode(&base), Some(honest));
        let probes: Vec<Vec<u8>> = (0..8u16).map(|k| format!("key{k}").into_bytes()).collect();
        for edit in edits {
            let mut buf = mutate(&base, &other, edit);
            if edit.2 & 0x80 != 0 && buf.len() >= 8 {
                let len = buf.len() as u32 - 8;
                buf[4..8].copy_from_slice(&len.to_le_bytes());
            }
            let (decoded, largest) = largest_allocation(|| {
                let filter = BloomFilter::decode(&buf)?;
                for key in &probes {
                    let probe = filter.probe(key);
                    assert!(probe.first_offset < filter.byte_len() && probe.bits_tested >= 1);
                }
                Some(filter)
            });
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            if let Some(filter) = decoded {
                let again = filter.encode();
                prop_assert!(buf.starts_with(&again), "a filter is read from its encoding's bytes");
                prop_assert_eq!(BloomFilter::decode(&again), Some(filter));
            }
        }
    }

    /// A replication shipment: an honest encoding of each event kind
    /// decodes to its event; any edit of one — half of them re-framed, so
    /// that a frame's length and CRC vouch for the edited batch and a job's
    /// level count is forged — decodes or not without panic or a
    /// reservation, and an accepted shipment re-encodes to one that decodes
    /// to the same.
    #[test]
    fn mutated_wire_events_decode_in_bounds(
        picks in prop::collection::vec((any::<u16>(), 0u16..500), 1..40),
        header in (any::<u64>(), any::<u64>(), any::<u64>()),
        levels in prop::collection::vec(0usize..8, 0..6),
        files in prop::collection::vec(any::<u64>(), 0..6),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..60),
    ) {
        let (generation, (trace_id, span_id)) = (header.0, (header.1, header.2));
        let trace = TraceContext { trace_id, span_id };
        let job = CompactionJob { input_levels: levels, output_level: 2, purge: span_id % 2 == 0 };
        let digest = |seed: u64| Digest::from_bytes([seed as u8; 32]);
        let (commitments, mac) = (digest(trace_id), digest(span_id));
        let announce = Announcement { node: 1, epoch: trace_id, commitments, mac };
        let events = [
            WireEvent::Frame(mixed_records(&picks)),
            WireEvent::Flush,
            WireEvent::Compact(job.clone()),
            WireEvent::Announce(announce),
            WireEvent::Promote,
            WireEvent::VlogGc(VlogGcJob { job, rewrite_files: files }),
        ];
        let encoded: Vec<Vec<u8>> =
            events.iter().map(|event| encode_event(generation, trace, event)).collect();
        for (event, base) in events.iter().zip(&encoded) {
            prop_assert_eq!(decode_event(base), Some((generation, trace, event.clone())));
        }
        for (n, edit) in edits.into_iter().enumerate() {
            let other = &encoded[(n + 1 + edit.0 as usize % 5) % 6];
            let mut buf = mutate(&encoded[n % 6], other, edit);
            // The body follows the generation, trace context and tag.
            let body = buf.get_mut(25..).filter(|body| body.len() >= 24);
            if let (true, Some(body)) = (edit.2 & 0x80 != 0, body) {
                match &events[n % 6] {
                    WireEvent::Frame(_) => {
                        let payload_len = body.len() as u32 - 8;
                        let crc = crc32c(&body[8..]);
                        body[..4].copy_from_slice(&payload_len.to_le_bytes());
                        body[4..8].copy_from_slice(&crc.to_le_bytes());
                    }
                    // A job's level count, 16 bytes into the body.
                    WireEvent::Compact(_) | WireEvent::VlogGc(_) => {
                        let forged = u64::MAX >> (edit.1 % 64);
                        body[16..24].copy_from_slice(&forged.to_le_bytes());
                    }
                    _ => {}
                }
            }
            let (decoded, largest) = largest_allocation(|| decode_event(&buf));
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            if let Some((generation, trace, event)) = decoded {
                let again = encode_event(generation, trace, &event);
                prop_assert_eq!(decode_event(&again), Some((generation, trace, event)));
            }
        }
    }

    /// A value-log pointer record's value: the honest encoding decodes to
    /// its location and MAC; any edit decodes or not without panic or an
    /// allocation, and an accepted pointer re-encodes to the input itself.
    #[test]
    fn mutated_vlog_pointers_decode_in_bounds(
        at in (any::<u64>(), any::<u64>(), any::<u64>()),
        mac in any::<u8>(),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..40),
    ) {
        let ptr = VlogPtr { file_no: at.0, offset: at.1, len: at.2 };
        let mac = [mac; MAC_BYTES];
        let base = encode_pointer(ptr, &mac);
        let other = encode_pointer(VlogPtr { file_no: at.2, offset: at.0, len: at.1 }, &[!mac[0]; MAC_BYTES]);
        prop_assert_eq!(decode_pointer(&base), Some((ptr, mac)));
        for edit in edits {
            let buf = mutate(&base, &other, edit);
            let (decoded, largest) = largest_allocation(|| decode_pointer(&buf));
            prop_assert_eq!(largest, 0, "a pointer decodes in place");
            if let Some((ptr, mac)) = decoded {
                prop_assert_eq!(encode_pointer(ptr, &mac), buf);
            }
        }
    }

    /// A manifest: the honest encoding decodes to its image; any edit of it
    /// — half of them with the level count forged — decodes or not without
    /// panic or a reservation beyond a constant times its length, and an
    /// accepted manifest re-encodes to bytes that decode to the same image.
    /// Its value-log section, edited alone, obeys the same.
    #[test]
    fn mutated_manifests_decode_in_bounds(
        head in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        levels in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..6), 0..8),
        vlog in (any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..6)),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..60),
    ) {
        let image = Manifest {
            next_file_no: head.0,
            last_ts: head.1,
            wal_lo: head.2,
            wal_no: head.3,
            level_lens: levels.iter().map(Vec::len).collect(),
            tables: levels.concat(),
            vlog_next_no: vlog.0,
            vlog_files: vlog.1,
        };
        let base = image.encode();
        prop_assert_eq!(decode_manifest(&base), Some(image.clone()));
        prop_assert!(image.levels().map(<[u64]>::to_vec).eq(levels.iter().cloned()));
        let other = Manifest { level_lens: vec![image.tables.len()], ..image.clone() }.encode();
        let mut section = Vec::new();
        encode_manifest_section(image.vlog_next_no, &image.vlog_files, &mut section);
        prop_assert!(base.ends_with(&section));
        for edit in edits {
            let mut buf = mutate(&base, &other, edit);
            if let (true, Some((_, n))) =
                (edit.2 & 0x80 != 0, buf.get(32..).and_then(get_varint_u64))
            {
                let mut forged = buf[..32].to_vec();
                put_varint_u64(&mut forged, u64::MAX >> (edit.1 % 64));
                forged.extend_from_slice(&buf[32 + n..]);
                buf = forged;
            }
            let (decoded, largest) = largest_allocation(|| decode_manifest(&buf));
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            if let Some(manifest) = decoded {
                prop_assert_eq!(decode_manifest(&manifest.encode()), Some(manifest));
            }

            let buf = mutate(&section, &base, edit);
            let (decoded, largest) = largest_allocation(|| decode_manifest_section(&buf));
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            if let Some((next_no, files, used)) = decoded {
                prop_assert!(used <= buf.len());
                let mut again = Vec::new();
                encode_manifest_section(next_no, &files, &mut again);
                prop_assert_eq!(decode_manifest_section(&again), Some((next_no, files, again.len())));
            }
        }
    }

    /// A certificate as the transparency log stores it: the honest encoding
    /// decodes to the certificate; any edit decodes or not without panic or
    /// an allocation beyond a constant times its length, and an accepted
    /// certificate re-encodes to the input itself.
    #[test]
    fn mutated_certificates_decode_in_bounds(
        seed in any::<u64>(),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..60),
    ) {
        let certs = synthesize(2, seed);
        let (base, other) = (certs[0].encode(), certs[1].encode());
        prop_assert_eq!(Certificate::decode(&base), Some(certs[0].clone()));
        for edit in edits {
            let buf = mutate(&base, &other, edit);
            let (decoded, largest) = largest_allocation(|| Certificate::decode(&buf));
            prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
            if let Some(certificate) = decoded {
                prop_assert_eq!(certificate.encode(), buf);
            }
        }
    }

    /// A value-log file: the honest log reads back every entry for its own
    /// key and timestamp; any edit of it — half of them re-framed, so each
    /// entry's CRC vouches for its edited bytes — recovers and reads each
    /// pointer without panic or an allocation beyond a constant times the
    /// file, and an accepted payload, appended again, reads back the same.
    #[test]
    fn mutated_vlog_entries_decode_in_bounds(
        picks in prop::collection::vec((any::<u16>(), 0u16..500), 1..40),
        spliced in prop::collection::vec((any::<u16>(), 0u16..500), 1..20),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), any::<u8>()), 1..30),
    ) {
        let (env, fs) = env(false);
        let config = VlogConfig { target_file_bytes: u64::MAX, ..VlogConfig::default() };
        let log = |records: &[Record]| {
            let vlog = Vlog::new(env.clone(), config);
            let ptrs: Vec<VlogPtr> =
                records.iter().map(|r| vlog.append(&r.key, r.ts, &r.value).unwrap()).collect();
            vlog.sync();
            (vlog, ptrs)
        };
        // A fresh log writes file 1; take its bytes and free the name.
        let take = || {
            let file = fs.open(&vlog_name(1)).unwrap();
            fs.delete(&vlog_name(1)).unwrap();
            file.read_at(0, file.len()).unwrap().to_vec()
        };
        let honest = records(&picks);
        let (vlog, ptrs) = log(&honest);
        for (record, &ptr) in honest.iter().zip(&ptrs) {
            prop_assert_eq!(vlog.read(ptr, &record.key, record.ts).unwrap(), Some(record.value.clone()));
        }
        let base = take();
        log(&records(&spliced));
        let other = take();

        for (n, edit) in edits.into_iter().enumerate() {
            let mut buf = mutate(&base, &other, edit);
            if edit.2 & 0x80 != 0 {
                for ptr in &ptrs {
                    let (at, end) = (ptr.offset as usize, (ptr.offset + ptr.len) as usize);
                    if end <= buf.len() {
                        let crc = crc32c(&buf[at + 4..end]);
                        buf[at..at + 4].copy_from_slice(&crc.to_le_bytes());
                    }
                }
            }
            let file_no = 1000 + n as u64;
            fs.create(&vlog_name(file_no)).unwrap().append(&buf);
            let files = [(file_no, buf.len() as u64, 0)];
            let recovered = Vlog::recover(env.clone(), config, file_no + 1, &files).unwrap();
            for (record, ptr) in honest.iter().zip(&ptrs) {
                let ptr = VlogPtr { file_no, ..*ptr };
                let (read, largest) =
                    largest_allocation(|| recovered.read(ptr, &record.key, record.ts).unwrap());
                prop_assert!(largest <= PER_INPUT_BYTE * buf.len(), "{largest} B for {} B", buf.len());
                let Some(payload) = read else { continue };
                let fresh = Vlog::new(env.clone(), config);
                let again = fresh.append(&record.key, record.ts, &payload).unwrap();
                fresh.sync();
                prop_assert_eq!(fresh.read(again, &record.key, record.ts).unwrap(), Some(payload));
                take();
            }
        }
    }
}
