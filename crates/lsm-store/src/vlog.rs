//! The authenticated value log (WiscKey-style key-value separation).
//!
//! Values at or above [`VlogConfig::value_threshold`] bytes leave the LSM
//! levels at flush time: the value bytes are appended to an append-only
//! *value-log* file and the level keeps a pointer record
//! ([`ValueKind::VlogPut`](crate::record::ValueKind::VlogPut)) whose
//! stored value is `encode_pointer(ptr, mac)` — 56 bytes regardless of
//! value size. Compaction merges, listener re-hashing and Merkle
//! recomputation then pay per *pointer*, not per value byte, which is the
//! write-amplification saving WiscKey demonstrated for plain LSM stores
//! and the TEE-KVS survey names as a dominant lever for enclave stores.
//!
//! Authentication: the 32-byte MAC rides *inside* the pointer record's
//! canonical bytes, so the existing per-level Merkle commitments cover it
//! (§5.2 unchanged). A verified GET first verifies the pointer record
//! against its level commitment, then checks the fetched log entry against
//! the MAC — the host can neither swap entries between pointers nor serve
//! stale bytes without failing one of the two checks. What the MAC binds
//! (and whether it exists at all) is the listener's decision via
//! [`StoreListener::vlog_mac`](crate::events::StoreListener::vlog_mac);
//! the vanilla store runs with a zero MAC and only the per-entry CRC.
//!
//! Crash story: entries are individually CRC-framed and the manifest
//! records each file's durable length. A crash between a value-log append
//! and the manifest write leaves an orphan tail — recovery counts those
//! bytes as garbage (no pointer record can name them: pointers reach the
//! levels only after the log is synced and the manifest written) and
//! appends continue after the physical end.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use sim_disk::{FsError, SimFile};

use crate::encoding::{
    crc32c, get_fixed_u64, get_length_prefixed, get_varint_u64, put_fixed_u32, put_fixed_u64,
    put_length_prefixed,
};
use crate::env::StorageEnv;
use crate::options::VlogConfig;
use crate::record::Timestamp;

/// Bytes of an encoded pointer: three fixed `u64`s plus the 32-byte MAC.
pub const POINTER_BYTES: usize = 24 + MAC_BYTES;
/// Bytes of a value-log entry MAC.
pub const MAC_BYTES: usize = 32;

/// Location of one entry in the value log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlogPtr {
    /// Value-log file number.
    pub file_no: u64,
    /// Byte offset of the entry (its CRC header) within the file.
    pub offset: u64,
    /// Total length of the framed entry in bytes.
    pub len: u64,
}

/// Serializes a pointer + MAC into the fixed [`POINTER_BYTES`] form stored
/// as a `VlogPut` record's value.
pub fn encode_pointer(ptr: VlogPtr, mac: &[u8; MAC_BYTES]) -> Vec<u8> {
    let mut out = Vec::with_capacity(POINTER_BYTES);
    put_fixed_u64(&mut out, ptr.file_no);
    put_fixed_u64(&mut out, ptr.offset);
    put_fixed_u64(&mut out, ptr.len);
    out.extend_from_slice(mac);
    out
}

/// Parses bytes produced by [`encode_pointer`]; `None` on any length or
/// format mismatch (a tampered pointer record — though in the
/// authenticated store the Merkle check fails first).
pub fn decode_pointer(bytes: &[u8]) -> Option<(VlogPtr, [u8; MAC_BYTES])> {
    if bytes.len() != POINTER_BYTES {
        return None;
    }
    let ptr = VlogPtr {
        file_no: get_fixed_u64(bytes, 0)?,
        offset: get_fixed_u64(bytes, 8)?,
        len: get_fixed_u64(bytes, 16)?,
    };
    let mut mac = [0u8; MAC_BYTES];
    mac.copy_from_slice(&bytes[24..]);
    Some((ptr, mac))
}

/// Frames one entry: `[crc32c u32][varint key_len][key][ts u64 fixed]
/// [varint value_len][value]`, CRC over everything after the CRC field.
fn encode_entry(key: &[u8], ts: Timestamp, value: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(key.len() + value.len() + 24);
    put_length_prefixed(&mut body, key);
    put_fixed_u64(&mut body, ts);
    put_length_prefixed(&mut body, value);
    let mut out = Vec::with_capacity(body.len() + 4);
    put_fixed_u32(&mut out, crc32c(&body));
    out.extend_from_slice(&body);
    out
}

/// Parses one framed entry and returns the length of its payload, which
/// ends the entry; `None` on CRC mismatch, truncation, trailing bytes
/// (tampering or a torn write) or an entry written for another `(key, ts)`.
fn decode_entry(bytes: &[u8], key: &[u8], ts: Timestamp) -> Option<usize> {
    let body = bytes.get(4..)?;
    if crc32c(body) != u32::from_le_bytes(bytes[..4].try_into().ok()?) {
        return None;
    }
    let (stored_key, n) = get_length_prefixed(body)?;
    let stored_ts = get_fixed_u64(body, n)?;
    let (value, m) = get_length_prefixed(body.get(n + 8..)?)?;
    (stored_key == key && stored_ts == ts && n + 8 + m == body.len()).then_some(value.len())
}

/// Name of value-log file `no`.
pub fn vlog_name(no: u64) -> String {
    format!("vlog-{no:06}.vlg")
}

/// Parses a value-log file name back to its number.
pub fn parse_vlog_name(name: &str) -> Option<u64> {
    name.strip_prefix("vlog-")?.strip_suffix(".vlg")?.parse().ok()
}

#[derive(Debug)]
struct VlogFile {
    file: Arc<SimFile>,
    /// Durable + pending bytes of the file (pointer space ends here).
    len: u64,
    /// Bytes belonging to dropped pointer records (GC victim metric).
    garbage: u64,
    /// The file was garbage-collected: excluded from the manifest and the
    /// gauges, but kept readable while pinned old versions may still hold
    /// pointers into it.
    removed: bool,
}

#[derive(Debug)]
struct VlogState {
    files: BTreeMap<u64, VlogFile>,
    active: u64,
    next_no: u64,
    /// Entry bytes appended but not yet pushed to the host.
    pending: Vec<u8>,
}

/// The store's value log: rotation, framed appends, pointer reads and
/// garbage accounting. All methods are thread-safe; appends serialize on
/// an internal mutex (they run on the single flush/merge path anyway).
#[derive(Debug)]
pub struct Vlog {
    env: Arc<StorageEnv>,
    config: VlogConfig,
    state: Mutex<VlogState>,
}

impl Vlog {
    /// Creates a fresh value log (first file is created lazily on the
    /// first append).
    pub fn new(env: Arc<StorageEnv>, config: VlogConfig) -> Self {
        Vlog {
            env,
            config,
            state: Mutex::new(VlogState {
                files: BTreeMap::new(),
                active: 0,
                next_no: 1,
                pending: Vec::new(),
            }),
        }
    }

    /// Reopens the value log from manifest state: `(file_no, valid_len,
    /// garbage)` per live file. Physical bytes beyond `valid_len` are an
    /// orphan tail from a crash mid-flush; they are counted as garbage and
    /// appends continue after them.
    pub fn recover(
        env: Arc<StorageEnv>,
        config: VlogConfig,
        next_no: u64,
        manifest_files: &[(u64, u64, u64)],
    ) -> Result<Self, FsError> {
        let mut files = BTreeMap::new();
        let mut active = 0;
        for &(no, valid_len, garbage) in manifest_files {
            let file = env.fs().open(&vlog_name(no))?;
            let physical = file.len() as u64;
            let orphan_tail = physical.saturating_sub(valid_len);
            files.insert(
                no,
                VlogFile { file, len: physical, garbage: garbage + orphan_tail, removed: false },
            );
            active = active.max(no);
        }
        Ok(Vlog {
            env,
            config,
            state: Mutex::new(VlogState { files, active, next_no, pending: Vec::new() }),
        })
    }

    /// Appends one value, returning its pointer. The entry is buffered in
    /// enclave memory until [`Vlog::sync`] — callers must sync before any
    /// pointer record naming the entry becomes durable or visible.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] if a new log file cannot be created.
    pub fn append(&self, key: &[u8], ts: Timestamp, value: &[u8]) -> Result<VlogPtr, FsError> {
        let entry = encode_entry(key, ts, value);
        let mut s = self.state.lock();
        let rotate = match s.files.get(&s.active) {
            Some(f) if !f.removed => f.len >= self.config.target_file_bytes,
            _ => true,
        };
        if rotate {
            // Push pending bytes of the outgoing file first so `len`
            // bookkeeping never spans files.
            self.sync_locked(&mut s);
            let no = s.next_no;
            s.next_no += 1;
            let file = self.env.fs().create(&vlog_name(no))?;
            s.files.insert(no, VlogFile { file, len: 0, garbage: 0, removed: false });
            s.active = no;
        }
        let active = s.active;
        let f = s.files.get_mut(&active).expect("active vlog file");
        let ptr = VlogPtr { file_no: active, offset: f.len, len: entry.len() as u64 };
        f.len += entry.len() as u64;
        s.pending.extend_from_slice(&entry);
        Ok(ptr)
    }

    /// Pushes buffered entries to the host in one append (one OCall in
    /// enclave mode), mirroring the WAL writer's batching.
    pub fn sync(&self) {
        let mut s = self.state.lock();
        self.sync_locked(&mut s);
    }

    fn sync_locked(&self, s: &mut VlogState) {
        if s.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut s.pending);
        let active = s.active;
        if let Some(f) = s.files.get(&active) {
            self.env.append(&f.file, &pending);
        }
    }

    /// Fetches the entry at `ptr` and returns its payload — a view of the
    /// bytes read, exactly as the owning record's value would have been
    /// stored inline — if the entry parses and was written for `(key, ts)`.
    /// `Ok(None)` means it does not: a tampered or torn log, an entry
    /// swapped in from another record (the caller maps either to a
    /// verification failure), or a pointer into a file this log never had.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] only for IO-level failures.
    pub fn read(&self, ptr: VlogPtr, key: &[u8], ts: Timestamp) -> Result<Option<Bytes>, FsError> {
        let Some(end) = ptr.offset.checked_add(ptr.len) else { return Ok(None) };
        let file = {
            let s = self.state.lock();
            match s.files.get(&ptr.file_no) {
                Some(f) if end <= f.len => f.file.clone(),
                _ => return Ok(None),
            }
        };
        if end > file.len() as u64 {
            return Ok(None);
        }
        let bytes = self.env.host_call(|| file.read_at(ptr.offset as usize, ptr.len as usize))?;
        Ok(decode_entry(&bytes, key, ts).map(|len| bytes.slice(bytes.len() - len..)))
    }

    /// Records that `bytes` of `file_no` now belong to dropped pointers
    /// (a merge dropped, purged or rewrote the owning record).
    pub fn note_garbage(&self, file_no: u64, bytes: u64) {
        let mut s = self.state.lock();
        if let Some(f) = s.files.get_mut(&file_no) {
            f.garbage = (f.garbage + bytes).min(f.len);
        }
    }

    /// `(live_bytes, garbage_bytes)` across non-removed files; live counts
    /// every stored byte including garbage (the on-disk footprint).
    pub fn stats(&self) -> (u64, u64) {
        let s = self.state.lock();
        let mut total = 0;
        let mut garbage = 0;
        for f in s.files.values().filter(|f| !f.removed) {
            total += f.len;
            garbage += f.garbage;
        }
        (total, garbage)
    }

    /// Manifest rows for live files: `(file_no, valid_len, garbage)`.
    pub fn manifest_files(&self) -> Vec<(u64, u64, u64)> {
        let s = self.state.lock();
        s.files.iter().filter(|(_, f)| !f.removed).map(|(&no, f)| (no, f.len, f.garbage)).collect()
    }

    /// The next file number a fresh file would take (persisted in the
    /// manifest so recovery never reuses a number).
    pub fn next_file_no(&self) -> u64 {
        self.state.lock().next_no
    }

    /// Non-active files whose garbage fraction reaches the configured
    /// ratio, worst first — GC candidates that still hold live entries.
    pub fn victims(&self) -> Vec<u64> {
        let s = self.state.lock();
        let mut out: Vec<(u64, f64)> = s
            .files
            .iter()
            .filter(|(&no, f)| {
                !f.removed
                    && no != s.active
                    && f.len > 0
                    && f.garbage < f.len
                    && f.garbage as f64 >= self.config.gc_garbage_ratio * f.len as f64
            })
            .map(|(&no, f)| (no, f.garbage as f64 / f.len as f64))
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        out.into_iter().map(|(no, _)| no).collect()
    }

    /// Non-active files every byte of which is garbage: deletable without
    /// any rewrite.
    pub fn fully_dead(&self) -> Vec<u64> {
        let s = self.state.lock();
        s.files
            .iter()
            .filter(|(&no, f)| !f.removed && no != s.active && f.len > 0 && f.garbage >= f.len)
            .map(|(&no, _)| no)
            .collect()
    }

    /// Retires a file after GC: dropped from the manifest and gauges, its
    /// handle still readable so pinned old versions holding pointers into
    /// it keep verifying. Says whether it was retired (never the file still
    /// taking appends); the caller deletes it once a manifest without it is
    /// durable.
    pub fn remove_file(&self, file_no: u64) -> bool {
        let mut s = self.state.lock();
        let active = s.active;
        match s.files.get_mut(&file_no) {
            Some(f) if file_no != active && !f.removed => {
                f.removed = true;
                true
            }
            _ => false,
        }
    }
}

/// Appends the value-log manifest section: `[varint next_no]
/// [varint n_files]` then `[varint file_no][varint valid_len]
/// [varint garbage]` per live file. Always written (`next_no` 1 and no
/// files when separation is off) so the manifest layout is
/// version-independent.
pub fn encode_manifest_section(next_no: u64, files: &[ManifestFileEntry], out: &mut Vec<u8>) {
    use crate::encoding::put_varint_u64;
    put_varint_u64(out, next_no);
    put_varint_u64(out, files.len() as u64);
    for &(no, len, garbage) in files {
        put_varint_u64(out, no);
        put_varint_u64(out, len);
        put_varint_u64(out, garbage);
    }
}

/// A manifest-recorded value-log file: `(file_no, byte_len, garbage_bytes)`.
pub type ManifestFileEntry = (u64, u64, u64);

/// Parses the section written by [`encode_manifest_section`], returning
/// `(next_no, files, bytes_consumed)`.
pub fn decode_manifest_section(bytes: &[u8]) -> Option<(u64, Vec<ManifestFileEntry>, usize)> {
    let (next_no, mut at) = get_varint_u64(bytes)?;
    let (n, used) = get_varint_u64(&bytes[at..])?;
    at += used;
    // A file takes at least three bytes, whatever count the host wrote.
    let mut files = Vec::with_capacity(n.min((bytes.len() - at) as u64 / 3) as usize);
    for _ in 0..n {
        let (no, u1) = get_varint_u64(&bytes[at..])?;
        at += u1;
        let (len, u2) = get_varint_u64(&bytes[at..])?;
        at += u2;
        let (garbage, u3) = get_varint_u64(&bytes[at..])?;
        at += u3;
        files.push((no, len, garbage));
    }
    Some((next_no, files, at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use sgx_sim::Platform;
    use sim_disk::{SimDisk, SimFs};

    impl Vlog {
        /// Whether `file_no` is a live (non-removed) file of this log.
        fn is_live(&self, file_no: u64) -> bool {
            let s = self.state.lock();
            s.files.get(&file_no).is_some_and(|f| !f.removed)
        }
    }

    fn test_env() -> Arc<StorageEnv> {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        StorageEnv::new(platform, fs, EnvConfig::default(), None)
    }

    fn small_config() -> VlogConfig {
        VlogConfig { value_threshold: 64, target_file_bytes: 256, ..VlogConfig::default() }
    }

    #[test]
    fn pointer_encoding_round_trips_and_rejects_bad_lengths() {
        let ptr = VlogPtr { file_no: 3, offset: 4096, len: 517 };
        let mac = [0xabu8; MAC_BYTES];
        let bytes = encode_pointer(ptr, &mac);
        assert_eq!(bytes.len(), POINTER_BYTES);
        assert_eq!(decode_pointer(&bytes), Some((ptr, mac)));
        assert!(decode_pointer(&bytes[..POINTER_BYTES - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_pointer(&long).is_none());
    }

    #[test]
    fn append_sync_read_round_trip() {
        let vlog = Vlog::new(test_env(), small_config());
        let ptr = vlog.append(b"k1", 7, b"a-large-value-payload").unwrap();
        vlog.sync();
        let payload = vlog.read(ptr, b"k1", 7).unwrap().expect("entry decodes");
        assert_eq!(&payload[..], b"a-large-value-payload");
        assert_eq!(vlog.read(ptr, b"k2", 7).unwrap(), None, "bound to its key");
        assert_eq!(vlog.read(ptr, b"k1", 8).unwrap(), None, "bound to its timestamp");
    }

    #[test]
    fn rotation_respects_target_file_bytes() {
        let vlog = Vlog::new(test_env(), small_config());
        let mut files = std::collections::HashSet::new();
        for i in 0..20u64 {
            let ptr = vlog.append(b"key", i, &[0u8; 100]).unwrap();
            files.insert(ptr.file_no);
        }
        vlog.sync();
        assert!(files.len() > 1, "appends past the target must rotate");
        // Every pointer still readable after rotation.
        let ptr = vlog.append(b"last", 99, &[1u8; 100]).unwrap();
        vlog.sync();
        assert_eq!(&vlog.read(ptr, b"last", 99).unwrap().unwrap()[..], &[1u8; 100]);
    }

    #[test]
    fn corrupt_entry_reads_as_none() {
        let env = test_env();
        let vlog = Vlog::new(env.clone(), small_config());
        let ptr = vlog.append(b"k", 1, &[7u8; 120]).unwrap();
        vlog.sync();
        env.fs().open(&vlog_name(ptr.file_no)).unwrap().corrupt(ptr.offset as usize + 10, 0x5a);
        assert_eq!(vlog.read(ptr, b"k", 1).unwrap(), None, "CRC must catch tampering");
    }

    #[test]
    fn garbage_accounting_drives_victim_selection() {
        let config = VlogConfig { gc_garbage_ratio: 0.5, target_file_bytes: 200, ..small_config() };
        let vlog = Vlog::new(test_env(), config);
        let a = vlog.append(b"a", 1, &[0u8; 100]).unwrap();
        let b = vlog.append(b"b", 2, &[0u8; 100]).unwrap();
        assert_eq!(a.file_no, b.file_no);
        // The first file is past its target now, so this append rotates
        // and the first file is no longer active.
        let c = vlog.append(b"c", 3, &[0u8; 100]).unwrap();
        assert_ne!(c.file_no, a.file_no);
        vlog.sync();
        assert!(vlog.victims().is_empty());
        vlog.note_garbage(a.file_no, a.len);
        assert_eq!(vlog.victims(), vec![a.file_no], "half-dead file is a victim");
        vlog.note_garbage(b.file_no, b.len);
        assert_eq!(vlog.fully_dead(), vec![a.file_no]);
        assert!(vlog.victims().is_empty(), "fully dead files skip the rewrite path");
    }

    #[test]
    fn removed_files_stay_readable_but_leave_the_manifest() {
        let env = test_env();
        let vlog = Vlog::new(env.clone(), small_config());
        let a = vlog.append(b"a", 1, &[3u8; 100]).unwrap();
        let _ = vlog.append(b"pad", 2, &[0u8; 300]).unwrap(); // fills past target
        let moved = vlog.append(b"next", 3, &[0u8; 10]).unwrap(); // rotates
        assert_ne!(moved.file_no, a.file_no);
        vlog.sync();
        assert!(vlog.manifest_files().iter().any(|&(no, _, _)| no == a.file_no));
        assert!(!vlog.remove_file(moved.file_no), "the active file stays");
        assert!(vlog.remove_file(a.file_no));
        assert!(!vlog.remove_file(a.file_no), "retired once");
        assert!(!vlog.manifest_files().iter().any(|&(no, _, _)| no == a.file_no));
        assert!(!vlog.is_live(a.file_no));
        // Pinned readers can still resolve old pointers, also once the file
        // left the namespace.
        env.fs().delete(&vlog_name(a.file_no)).unwrap();
        assert_eq!(&vlog.read(a, b"a", 1).unwrap().unwrap()[..], &[3u8; 100]);
    }

    #[test]
    fn manifest_section_round_trips_and_recovery_counts_orphan_tail() {
        let env = test_env();
        let vlog = Vlog::new(env.clone(), small_config());
        let a = vlog.append(b"a", 1, &[1u8; 100]).unwrap();
        vlog.sync();
        let mut section = Vec::new();
        encode_manifest_section(vlog.next_file_no(), &vlog.manifest_files(), &mut section);
        let (next_no, files, used) = decode_manifest_section(&section).unwrap();
        assert_eq!(used, section.len());
        assert_eq!(next_no, vlog.next_file_no());
        assert_eq!(files, vlog.manifest_files());

        // Simulate a crash after an extra (unmanifested) append: the tail
        // beyond valid_len must be counted as garbage on recovery.
        let orphan = vlog.append(b"orphan", 2, &[2u8; 50]).unwrap();
        vlog.sync();
        let recovered = Vlog::recover(env, small_config(), next_no, &files).unwrap();
        let (total, garbage) = recovered.stats();
        assert_eq!(total, orphan.offset + orphan.len);
        assert_eq!(garbage, orphan.len, "orphan tail is garbage");
        // The manifested entry still reads.
        assert_eq!(&recovered.read(a, b"a", 1).unwrap().unwrap()[..], &[1u8; 100]);
    }

    #[test]
    fn empty_manifest_section_decodes() {
        let mut section = Vec::new();
        encode_manifest_section(1, &[], &mut section);
        let (next_no, files, used) = decode_manifest_section(&section).unwrap();
        assert_eq!((next_no, files.len(), used), (1, 0, section.len()));
    }

    #[test]
    fn vlog_names_round_trip() {
        assert_eq!(vlog_name(7), "vlog-000007.vlg");
        assert_eq!(parse_vlog_name("vlog-000007.vlg"), Some(7));
        assert_eq!(parse_vlog_name("000007.sst"), None);
        assert_eq!(parse_vlog_name("vlog-x.vlg"), None);
    }
}
