//! Write-ahead log with group-commit batch framing.
//!
//! Every commit group writes one *batch frame* to the log before the
//! records touch the memtable, so the memtable can be rebuilt after a
//! crash. Framing is `[len u32][crc32c u32][payload]` where the payload is
//! `varint(record_count)` followed by the concatenated record encodings.
//! A singleton put is simply a batch of one.
//!
//! The frame is the **atomicity unit**: recovery stops at the first
//! corrupt or truncated frame (standard LevelDB behaviour), so a torn tail
//! write drops its whole batch — a batch can never partially apply.
//!
//! Each frame is pushed to the host before its commit group is
//! acknowledged: a write is acknowledged only once its frame is on the
//! host, so a crash leaves every acknowledged batch in the log. How it is
//! pushed depends on the environment. A store that maps its files into
//! untrusted memory (`EnvConfig::use_mmap`, eLSM-P2's default) copies the
//! frame into a host-provided mapping of the log and stays in the enclave;
//! only creating or growing the mapping — geometrically, from the write
//! buffer's size — leaves it, once ([`MappedFile`]). A flush rotates the
//! log: the next log is mapped — as a log needs to be to hold what the
//! closed one holds — inside the host call that writes the rotation's
//! manifest, so its first frame does not leave either. Any other enclave store (eLSM-P1's sealed files,
//! P2 reading through a buffer) appends each frame in one OCall.
//!
//! A real mapping is preallocated, so the file holds zeros after the last
//! frame. Recovery stops there as at a torn tail: a zero header is no
//! frame (its empty payload has no record count).
//!
//! In eLSM the WAL *storage* lives outside the enclave while the enclave
//! keeps a running hash of its contents (§5.3, step w1); the hash
//! maintenance is the `elsm` crate's job via
//! [`crate::events::StoreListener::on_wal_append_batch`].

use std::sync::Arc;

use sim_disk::{FsError, SimFile};

use crate::encoding::{crc32c, get_fixed_u32, get_varint_u64, put_varint_u64};
use crate::env::{MappedFile, StorageEnv};
use crate::record::Record;

/// Appends batch-framed records to a log file.
#[derive(Debug)]
pub struct WalWriter {
    file: MappedFile,
    records: u64,
    /// The frame being pushed: every frame is encoded here and pushed at
    /// once, so one buffer serves every commit of the log.
    frame: Vec<u8>,
}

/// Encodes one batch frame: `[len][crc][varint count][records…]`.
///
/// Public because the frame is also the **replication unit**: a primary
/// ships exactly these bytes to its replicas (the same crash-atomicity
/// unit recovery uses), and [`decode_frame`] replays them. The encoding is
/// deterministic, so a replica's WAL ends up byte-comparable with the
/// primary's.
///
/// # Panics
///
/// Panics if the payload exceeds the frame format's 32-bit length field —
/// a truncated length would silently corrupt the log and drop every later
/// acknowledged frame on recovery. [`crate::Db::write_batch`] rejects such
/// batches before they reach the committer.
pub fn encode_frame(records: &[Record]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(records, &mut frame);
    frame
}

/// Appends the frame [`encode_frame`] returns to `out` — how the log and
/// the replication stream encode into buffers they reuse.
///
/// # Panics
///
/// As [`encode_frame`].
pub fn encode_frame_into(records: &[Record], out: &mut Vec<u8>) {
    // The header's place is held, the payload encoded behind it, then
    // length and CRC patched in.
    let payload_bytes: usize = records.iter().map(|r| r.key.len() + r.value.len() + 18).sum();
    out.reserve(8 + 10 + payload_bytes);
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    put_varint_u64(out, records.len() as u64);
    for r in records {
        r.encode_into(out);
    }
    let payload = &out[start + 8..];
    let payload_len = u32::try_from(payload.len()).unwrap_or_else(|_| {
        panic!(
            "WAL batch frame exceeds the u32 length field ({} bytes); split the batch",
            payload.len()
        )
    });
    let crc = crc32c(payload);
    out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

impl WalWriter {
    /// Wraps an (empty or existing) log file for appending; in a mapped
    /// environment its first mapping spans `map_initial` bytes (about one
    /// log's worth of frames: a flush rotates the log) or the doubling of
    /// them that holds the first frame.
    pub fn new(env: Arc<StorageEnv>, file: Arc<SimFile>, map_initial: usize) -> Self {
        WalWriter { file: MappedFile::new(env, file, map_initial), records: 0, frame: Vec::new() }
    }

    /// The log file, through which it is appended.
    pub(crate) fn file(&self) -> &MappedFile {
        &self.file
    }

    /// Appends one batch as a single atomic frame and pushes it to the
    /// host in one append ([`MappedFile::append`]: through the log's
    /// mapping when the environment maps files, an OCall only when the
    /// mapping must grow; otherwise one OCall in enclave mode); returns
    /// the frame's encoded size in bytes (how the store meters WAL
    /// traffic).
    pub fn append_batch(&mut self, records: &[Record]) -> usize {
        if records.is_empty() {
            return 0;
        }
        encode_frame_into(records, &mut self.frame);
        self.file.append(&self.frame);
        let frame_len = self.frame.len();
        self.frame.clear();
        self.records += records.len() as u64;
        frame_len
    }

    /// Number of records appended through this writer.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Decodes exactly one batch frame produced by [`encode_frame`],
/// verifying the CRC and the record count.
///
/// Returns `None` for anything malformed: a truncated frame, a CRC
/// mismatch, a record count that does not match the payload, or trailing
/// bytes after the last record. Replication replay treats `None` as a
/// tampered shipment — the frame is the atomicity unit there exactly as
/// it is for crash recovery.
pub fn decode_frame(data: &[u8]) -> Option<Vec<Record>> {
    let (records, used) = decode_frame_prefix(data)?;
    (used == data.len()).then_some(records) // exactly one frame, nothing more
}

/// Decodes the batch frame at the start of `data`, returning its records
/// and the frame's length in bytes — the one frame parse [`decode_frame`]
/// and [`recover`] share. `None` for a truncated frame, a CRC mismatch, or
/// a record count that does not match the payload.
fn decode_frame_prefix(data: &[u8]) -> Option<(Vec<Record>, usize)> {
    let frame_len = get_fixed_u32(data, 0)?;
    let crc = get_fixed_u32(data, 4)?;
    let end = 8usize.checked_add(frame_len as usize)?;
    let payload = data.get(8..end)?;
    if crc32c(payload) != crc {
        return None;
    }
    let (count, mut at) = get_varint_u64(payload)?;
    // The count rides in untrusted bytes: never allocate from it unchecked
    // (a tampered frame claiming 2^64 records must be refused gracefully,
    // not abort the enclave).
    let mut records = Vec::with_capacity(records_that_fit(count, &payload[at..]));
    for _ in 0..count {
        let (r, used) = Record::decode_prefix(&payload[at..])?;
        records.push(r);
        at += used;
    }
    (at == payload.len()).then_some((records, end))
}

/// How many of a frame's `count` records `rest` could hold: each encodes
/// to at least [`Record::MIN_ENCODED_LEN`] bytes, so a vector sized by
/// this takes at most a constant times the frame's length, whatever count
/// the (untrusted) frame claims.
fn records_that_fit(count: u64, rest: &[u8]) -> usize {
    usize::try_from(count).unwrap_or(usize::MAX).min(rest.len() / Record::MIN_ENCODED_LEN)
}

/// Reads back all intact records from a WAL file, and the end of its last
/// intact frame.
///
/// Stops silently at the first corrupt/truncated frame and returns the
/// records recovered up to that point: a torn tail drops its **whole
/// batch** (crash-recovery semantics — the frame is the atomicity unit).
///
/// # Errors
///
/// Returns [`FsError`] only for IO-level failures, not for torn frames.
pub fn recover(env: &StorageEnv, file: &Arc<SimFile>) -> Result<(Vec<Record>, usize), FsError> {
    let len = file.len();
    if len == 0 {
        return Ok((Vec::new(), 0));
    }
    let data = env.host_call(|| file.read_at(0, len))?;
    let mut out = Vec::new();
    let mut pos = 0usize;
    // A torn tail, a CRC mismatch or a malformed frame drops its whole
    // batch and stops recovery there.
    while let Some((mut batch, used)) = decode_frame_prefix(&data[pos..]) {
        out.append(&mut batch);
        pos += used;
    }
    Ok((out, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvConfig, StorageEnv};
    use crate::record::tests::RecordFixtures;
    use sgx_sim::Platform;
    use sim_disk::{SimDisk, SimFs};

    fn env() -> (Arc<StorageEnv>, Arc<sim_disk::SimFs>) {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        (StorageEnv::new(platform, fs.clone(), EnvConfig::default(), None), fs)
    }

    fn sample(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                Record::put(
                    format!("key{i:04}").into_bytes(),
                    format!("val{i}").into_bytes(),
                    i as u64 + 1,
                )
            })
            .collect()
    }

    use crate::encoding::put_fixed_u32;

    /// A frame's bytes are format: pinned to what `encode_frame` produced
    /// when it still assembled payload, per-record and frame buffers and
    /// ran the byte-at-a-time CRC (captured there).
    #[test]
    fn golden_frame_bytes() {
        let records = vec![
            Record::put(b"alpha".as_slice(), b"one".as_slice(), 7),
            Record::tombstone(b"beta".as_slice(), 8),
            Record::vlog_put(b"gamma".as_slice(), vec![0xabu8; 20], 9),
        ];
        let frame = encode_frame(&records);
        let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "44000000568e82380305616c7068611e00000000000000036f6e650462657461200000000000000000\
             0567616d6d61250000000000000014abababababababababababababababababababab"
        );
        assert_eq!(decode_frame(&frame).unwrap(), records);
    }

    fn writer(env: &Arc<StorageEnv>, file: Arc<SimFile>) -> WalWriter {
        WalWriter::new(env.clone(), file, 4096)
    }

    #[test]
    fn write_then_recover_all() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(50);
        for r in &records {
            w.append_batch(std::slice::from_ref(r));
        }
        assert_eq!(w.records(), 50);
        let got = recover(&env, &file).unwrap().0;
        assert_eq!(got, records);
    }

    #[test]
    fn batches_recover_in_order() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(10);
        w.append_batch(&records[..4]);
        w.append_batch(&records[4..5]);
        w.append_batch(&records[5..]);
        let got = recover(&env, &file).unwrap().0;
        assert_eq!(got, records);
    }

    #[test]
    fn empty_wal_recovers_empty() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        assert!(recover(&env, &file).unwrap().0.is_empty());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(3);
        for r in &records {
            w.append_batch(std::slice::from_ref(r));
        }
        // Simulate a torn final write: append half a frame.
        let intact = file.len();
        file.append(&[9, 0, 0, 0, 1, 2]);
        let (got, end) = recover(&env, &file).unwrap();
        assert_eq!(got, records, "intact prefix recovered, torn tail dropped");
        assert_eq!(end, intact, "the intact prefix ends where the torn frame starts");
    }

    #[test]
    fn torn_batch_frame_drops_whole_batch() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(8);
        w.append_batch(&records[..3]);
        // The next batch's frame is torn mid-payload: only a prefix of its
        // bytes reach the platter.
        let torn = encode_frame(&records[3..]);
        file.append(&torn[..torn.len() - 5]);
        let got = recover(&env, &file).unwrap().0;
        assert_eq!(got, records[..3], "no record of the torn batch may apply");
    }

    #[test]
    fn corrupt_byte_inside_batch_frame_drops_whole_batch() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(8);
        w.append_batch(&records[..3]);
        let before = file.len();
        w.append_batch(&records[3..]);
        // Flip one byte in the second batch's payload: the CRC must reject
        // the frame and recovery must not surface *any* of its records.
        file.corrupt(before + 12, 0x40);
        let got = recover(&env, &file).unwrap().0;
        assert_eq!(got, records[..3], "a corrupt batch must drop atomically");
    }

    #[test]
    fn tampered_record_count_stops_recovery_gracefully() {
        // The host controls the WAL bytes and can re-CRC anything it
        // writes: a frame claiming 2^60 records must stop recovery (the
        // records aren't there), never abort on a giant allocation.
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(3);
        for r in &records {
            w.append_batch(std::slice::from_ref(r));
        }
        let mut payload = Vec::new();
        put_varint_u64(&mut payload, 1u64 << 60);
        payload.extend_from_slice(&Record::put(b"x".as_slice(), b"y".as_slice(), 9).encode());
        let mut frame = Vec::new();
        put_fixed_u32(&mut frame, payload.len() as u32);
        put_fixed_u32(&mut frame, crc32c(&payload)); // CRC is valid!
        frame.extend_from_slice(&payload);
        file.append(&frame);
        let got = recover(&env, &file).unwrap().0;
        assert_eq!(got, records, "tampered count must stop recovery at the frame");
    }

    #[test]
    fn corrupt_frame_stops_recovery() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let records = sample(2);
        for r in &records {
            w.append_batch(std::slice::from_ref(r));
        }
        // Append a frame with a wrong CRC, then a good record after it.
        let mut frame = encode_frame(&[Record::put(b"evil".as_slice(), b"x".as_slice(), 99)]);
        frame[4] ^= 0xff; // break the CRC field
        file.append(&frame);
        w.append_batch(&[Record::put(b"after".as_slice(), b"y".as_slice(), 100)]);
        let got = recover(&env, &file).unwrap().0;
        assert_eq!(got, records, "recovery must stop at the corrupt frame");
    }

    #[test]
    fn tombstones_survive_recovery() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file.clone());
        let t = Record::tombstone(b"gone".as_slice(), 7);
        w.append_batch(std::slice::from_ref(&t));
        assert_eq!(recover(&env, &file).unwrap().0, vec![t]);
    }

    #[test]
    fn appends_issue_ocalls_in_enclave_mode() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, fs.open("wal").unwrap());
        let before = env.platform().stats().ocalls;
        w.append_batch(&[Record::put(b"k".as_slice(), b"v".as_slice(), 1)]);
        assert_eq!(env.platform().stats().ocalls, before + 1);
        let _ = file;
    }

    #[test]
    fn batch_append_is_one_ocall() {
        let (env, fs) = env();
        let file = fs.create("wal").unwrap();
        let mut w = writer(&env, file);
        let before = env.platform().stats().ocalls;
        w.append_batch(&sample(64));
        assert_eq!(
            env.platform().stats().ocalls,
            before + 1,
            "one host exit per batch, not per record"
        );
    }

    #[test]
    fn a_mapped_log_leaves_once_per_doubling_of_its_mapping() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let mapped = EnvConfig { use_mmap: true, block_cache_bytes: 0, ..EnvConfig::default() };
        let env = StorageEnv::new(platform.clone(), fs.clone(), mapped, None);
        let file = fs.create("wal").unwrap();
        let mut w = WalWriter::new(env.clone(), file.clone(), 1024);
        let records = sample(100);
        // The log's end after each frame whose append had the host map or
        // grow the mapping.
        let mut exits = Vec::new();
        for r in &records {
            let before = platform.stats().ocalls;
            w.append_batch(std::slice::from_ref(r));
            if platform.stats().ocalls > before {
                exits.push(file.len());
            }
        }
        let first_past = |cap: usize| {
            let mut end = 0;
            records
                .iter()
                .map(|r| {
                    end += encode_frame(std::slice::from_ref(r)).len();
                    end
                })
                .find(|&end| end > cap)
                .unwrap()
        };
        let first = encode_frame(&records[..1]).len();
        assert_eq!(exits, [first, first_past(1024), first_past(2048)], "1, 2, 4 KiB mappings");
        assert_eq!(recover(&env, &file).unwrap().0, records);
        let written: usize =
            records.iter().map(|r| encode_frame(std::slice::from_ref(r)).len()).sum();
        assert_eq!(file.len(), written, "the file holds the frames, not the mapping");
    }

    #[test]
    fn frame_codec_round_trips() {
        let records = sample(9);
        let frame = encode_frame(&records);
        assert_eq!(decode_frame(&frame).unwrap(), records);
        // Tampering anywhere — length, CRC, payload — rejects the frame.
        for idx in [0usize, 5, 9, frame.len() - 1] {
            let mut bad = frame.clone();
            bad[idx] ^= 0x20;
            assert!(decode_frame(&bad).is_none(), "flip at {idx} must reject");
        }
        // Truncation and trailing garbage reject too.
        assert!(decode_frame(&frame[..frame.len() - 1]).is_none());
        let mut long = frame.clone();
        long.push(0);
        assert!(decode_frame(&long).is_none());
        assert!(decode_frame(&[]).is_none());
    }
}
