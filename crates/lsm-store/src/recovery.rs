//! What survives a restart: the manifest, and recovery from it.
//!
//! The manifest is the store's one durable commit point. It names the
//! store's durable parts — next file number, last timestamp, the live WAL
//! range, each level's tables, the value-log files — and ends with the
//! listener's section ([`StoreListener::manifest_state`]: eLSM's sealed
//! trusted state). It is rewritten whole at open, at every flush freeze and
//! install, when value-log files go and at close ([`Db::write_manifest`]),
//! into a temp file renamed over the old one, so a crash leaves the old
//! manifest or the new, never none. [`Db::recover_parts`] reads it back,
//! hands the listener its section, drops files it does not name (orphans of
//! a crash between writing a merge's outputs and the manifest naming them)
//! and replays the live logs into a fresh memtable. A filesystem that holds
//! a store's files but no manifest is refused ([`Db::fresh_parts`]).

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sim_disk::FsError;

use crate::db::{table_name, wal_name, Db, DbInner};
use crate::encoding::{get_fixed_u64, get_varint_u64, put_fixed_u64, put_varint_u64};
use crate::env::{MappedFile, StorageEnv};
use crate::events::StoreListener;
use crate::memtable::MemTable;
use crate::options::Options;
use crate::record::Timestamp;
use crate::sstable::TableReader;
use crate::version::{Run, Version};
use crate::vlog::{
    decode_manifest_section, encode_manifest_section, parse_vlog_name, ManifestFileEntry,
};
use crate::wal::{recover, WalWriter};

/// The manifest's file name.
pub const MANIFEST: &str = "MANIFEST";

/// Where a manifest is written before it is renamed over [`MANIFEST`].
const MANIFEST_TMP: &str = "MANIFEST.tmp";

/// What [`Db::recover_parts`] and [`Db::fresh_parts`] start a store from:
/// the write side, the next table file number, the last timestamp, and the
/// value log's next file number and files.
type Parts = (DbInner, u64, Timestamp, (u64, Vec<ManifestFileEntry>));

/// What a manifest names: the image [`decode_manifest`] reads and
/// [`Manifest::encode`] writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The next table file number.
    pub next_file_no: u64,
    /// The last timestamp handed out.
    pub last_ts: Timestamp,
    /// The oldest live WAL.
    pub wal_lo: u64,
    /// The WAL taking appends.
    pub wal_no: u64,
    /// How many tables each level holds, level 1 first.
    pub level_lens: Vec<usize>,
    /// The tables' file numbers, level after level.
    pub tables: Vec<u64>,
    /// The next value-log file number.
    pub vlog_next_no: u64,
    /// The live value-log files.
    pub vlog_files: Vec<ManifestFileEntry>,
    /// The listener's section, opaque to the store.
    pub listener_state: Vec<u8>,
}

impl Manifest {
    /// Each level's table file numbers, level 1 first.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = &[u64]> {
        let mut start = 0;
        self.level_lens.iter().map(move |&len| {
            start += len;
            &self.tables[start - len..start]
        })
    }

    /// The bytes [`decode_manifest`] reads back as this manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let head = [self.next_file_no, self.last_ts, self.wal_lo, self.wal_no];
        let levels = self.levels().map(|tables| tables.iter().copied());
        let state = |_: &[u8]| self.listener_state.clone();
        put_manifest(&mut out, head, levels, self.vlog_next_no, &self.vlog_files, state);
        out
    }
}

/// Writes a manifest: next file number, last timestamp and WAL range as
/// fixed `u64`s, `[varint levels]`, per level `[varint tables]` and the
/// tables' file numbers as varints, the value-log section, and last
/// `[varint len]` and the listener's section — made by `listener_state`
/// from the bytes before it.
fn put_manifest<L: ExactSizeIterator<Item = u64>>(
    out: &mut Vec<u8>,
    head: [u64; 4],
    levels: impl ExactSizeIterator<Item = L>,
    vlog_next_no: u64,
    vlog_files: &[ManifestFileEntry],
    listener_state: impl FnOnce(&[u8]) -> Vec<u8>,
) {
    for word in head {
        put_fixed_u64(out, word);
    }
    put_varint_u64(out, levels.len() as u64);
    for tables in levels {
        put_varint_u64(out, tables.len() as u64);
        for file_no in tables {
            put_varint_u64(out, file_no);
        }
    }
    encode_manifest_section(vlog_next_no, vlog_files, out);
    let state = listener_state(out);
    put_varint_u64(out, state.len() as u64);
    out.extend_from_slice(&state);
}

/// Parses a manifest's bytes; `None` unless they are exactly one manifest.
/// Every count and length is checked against the bytes left to describe it
/// (a level or a table takes at least one byte), so a forged one is refused
/// before anything is sized by it.
pub fn decode_manifest(bytes: &[u8]) -> Option<Manifest> {
    let fixed = |at| get_fixed_u64(bytes, at);
    let (next_file_no, last_ts, wal_lo, wal_no) = (fixed(0)?, fixed(8)?, fixed(16)?, fixed(24)?);
    let mut pos = 32;
    let varint = |pos: &mut usize| {
        let (value, n) = get_varint_u64(&bytes[*pos..])?;
        *pos += n;
        Some(value)
    };
    let count = |n: u64, pos: usize| usize::try_from(n).ok().filter(|&n| n <= bytes.len() - pos);
    let nlevels = count(varint(&mut pos)?, pos)?;
    let mut level_lens = Vec::with_capacity(nlevels);
    let mut tables = Vec::new();
    for _ in 0..nlevels {
        let len = count(varint(&mut pos)?, pos)?;
        tables.reserve_exact(len);
        for _ in 0..len {
            tables.push(varint(&mut pos)?);
        }
        level_lens.push(len);
    }
    let (vlog_next_no, vlog_files, used) = decode_manifest_section(&bytes[pos..])?;
    pos += used;
    let state_len = count(varint(&mut pos)?, pos)?;
    (pos + state_len == bytes.len()).then(|| Manifest {
        next_file_no,
        last_ts,
        wal_lo,
        wal_no,
        level_lens,
        tables,
        vlog_next_no,
        vlog_files,
        listener_state: bytes[pos..].to_vec(),
    })
}

impl Db {
    /// A store's parts when the filesystem holds no manifest: a fresh store
    /// — unless the filesystem holds what only a store whose manifest went
    /// missing can (a table, a value-log file, a logged write). Starting
    /// empty over those would answer every key they hold as absent, so that
    /// open is refused, with the manifest [`FsError::NotFound`]. What a
    /// crash in a store's very first open leaves (an empty log, a manifest
    /// never renamed into place) goes.
    pub(crate) fn fresh_parts(env: &Arc<StorageEnv>, options: &Options) -> Result<Parts, FsError> {
        let fs = env.fs();
        let names = fs.list();
        let logged = |name: &str| fs.open(name).is_ok_and(|file| !file.is_empty());
        let held = |name: &String| {
            parse_table_name(name).is_some()
                || parse_vlog_name(name).is_some()
                || parse_wal_name(name).is_some() && logged(name)
        };
        if names.iter().any(held) {
            return Err(FsError::NotFound(MANIFEST.to_string()));
        }
        for name in names.iter().filter(|n| *n == MANIFEST_TMP || parse_wal_name(n).is_some()) {
            let _ = fs.delete(name);
        }
        let wal_file = fs.create(&wal_name(1))?;
        let current = Arc::new(Version::empty(options.max_levels));
        let inner = DbInner {
            memtable: MemTable::new(),
            wal: WalWriter::new(env.clone(), wal_file, options.write_buffer_bytes),
            wal_lo: 1,
            wal_no: 1,
            live: vec![current.clone()],
            current,
        };
        Ok((inner, 1, 0, (1, Vec::new())))
    }

    pub(crate) fn recover_parts(
        env: &Arc<StorageEnv>,
        options: &Options,
        listener: &dyn StoreListener,
    ) -> Result<Parts, FsError> {
        let file = env.fs().open(MANIFEST)?;
        let bytes = env.host_call(|| file.read_at(0, file.len()))?;
        let manifest = decode_manifest(&bytes).ok_or_else(|| FsError::OutOfBounds {
            name: MANIFEST.to_string(),
            requested_end: 0,
            len: 0,
        })?;
        // A rewrite the crash cut short: the manifest above is the one it
        // would have replaced.
        let _ = env.fs().delete(MANIFEST_TMP);
        // The listener's section ends the manifest, after its length varint
        // (`⌊log₂ len⌋ / 7 + 1` bytes); what precedes both is what it was
        // written over.
        let state = &manifest.listener_state;
        let varint_len = (state.len().max(1).ilog2() / 7 + 1) as usize;
        listener.recover_manifest_state(&bytes[..bytes.len() - state.len() - varint_len], state);
        let mut levels: Vec<Option<Arc<Run>>> =
            (0..=options.max_levels.max(manifest.level_lens.len())).map(|_| None).collect();
        let mut named = HashSet::new();
        for (slot, file_nos) in levels.iter_mut().skip(1).zip(manifest.levels()) {
            if file_nos.is_empty() {
                continue;
            }
            let mut tables = Vec::new();
            for &file_no in file_nos {
                named.insert(file_no);
                let file = env.fs().open(&table_name(file_no))?;
                tables.push(Arc::new(TableReader::open(env.clone(), file, file_no)?));
            }
            *slot = Some(Arc::new(Run::new(tables)?));
        }
        let Manifest { next_file_no, last_ts, wal_lo, wal_no, vlog_next_no, vlog_files, .. } =
            manifest;
        // A crash between writing a merge's output files and the manifest
        // that names them leaves orphaned SSTables. Remove them: they hold
        // only data still reachable through the manifest's inputs, and
        // leaving them would collide with reused file numbers (the
        // recovered `next_file_no` predates the orphans).
        let named_vlogs: HashSet<u64> = vlog_files.iter().map(|&(no, _, _)| no).collect();
        for name in env.fs().list() {
            if let Some(no) = parse_table_name(&name) {
                if !named.contains(&no) {
                    let _ = env.fs().delete(&name);
                }
            }
            // Likewise for value-log files the manifest never learned of:
            // no durable pointer record can name them (pointers reach the
            // levels only via SSTables the same manifest would name), so
            // they hold only garbage from a crash mid-flush or mid-GC.
            if let Some(no) = parse_vlog_name(&name) {
                if !named_vlogs.contains(&no) {
                    let _ = env.fs().delete(&name);
                }
            }
        }
        // Replay every WAL the manifest names, oldest first (a flush that
        // did not finish leaves both the pre-freeze log and the active log
        // live; appends are strictly ordered across the rotation). The
        // listener hears the replay as it heard the writes — each log's
        // records, a rotation between logs — so order-sensitive state it
        // keeps over the log (eLSM's WAL digest) is recomputed from what
        // the host presents, not taken on trust.
        let mut max_ts = last_ts;
        let mut memtable = MemTable::new();
        for no in wal_lo..=wal_no {
            if no > wal_lo {
                listener.on_wal_rotate();
            }
            let Ok(file) = env.fs().open(&wal_name(no)) else { continue };
            let (records, intact) = recover(env, &file)?;
            if no == wal_no && intact < file.len() {
                // The active log takes the next frames: they go right after
                // its last intact one, not after bytes a replay stops at.
                env.host_call(|| file.truncate(intact));
            }
            listener.on_wal_append_batch(&records);
            for r in records {
                max_ts = max_ts.max(r.ts);
                memtable.insert(r);
            }
        }
        let wal_file = match env.fs().open(&wal_name(wal_no)) {
            Ok(f) => f,
            Err(_) => env.fs().create(&wal_name(wal_no))?,
        };
        // Orphaned logs outside the manifest's range (e.g. a rotation the
        // manifest never learned of) hold no acknowledged data; remove
        // them so their numbers can be reused.
        for name in env.fs().list() {
            if let Some(no) = parse_wal_name(&name) {
                if !(wal_lo..=wal_no).contains(&no) {
                    let _ = env.fs().delete(&name);
                }
            }
        }
        let current = Arc::new(Version::new(0, None, levels));
        Ok((
            DbInner {
                memtable,
                wal: WalWriter::new(env.clone(), wal_file, options.write_buffer_bytes),
                wal_lo,
                wal_no,
                live: vec![current.clone()],
                current,
            },
            next_file_no,
            max_ts,
            (vlog_next_no, vlog_files),
        ))
    }

    /// Callers hold the maintenance mutex (manifest writes must not race).
    pub(crate) fn write_manifest(&self) -> Result<(), FsError> {
        let (wal_lo, wal_no, version) = {
            let inner = self.inner.read();
            (inner.wal_lo, inner.wal_no, inner.current.clone())
        };
        self.write_manifest_with(wal_lo, wal_no, &version, None)
    }

    /// Writes the manifest naming `version` and the logs `wal_lo..=wal_hi`;
    /// the host call that writes it also maps `next_log`, a log the
    /// rotation just created.
    pub(crate) fn write_manifest_with(
        &self,
        wal_lo: u64,
        wal_hi: u64,
        version: &Version,
        next_log: Option<&MappedFile>,
    ) -> Result<(), FsError> {
        let head =
            [self.file_no.load(Ordering::SeqCst), self.ts.load(Ordering::SeqCst), wal_lo, wal_hi];
        let levels = (1..version.levels().len()).map(|level| {
            version
                .level(level)
                .map_or(&[][..], |run| run.tables())
                .iter()
                .map(|t| t.meta().file_no)
        });
        let (vlog_files, vlog_next_no) = match self.vlog.as_deref() {
            Some(vlog) => (vlog.manifest_files(), vlog.next_file_no()),
            None => (Vec::new(), 1), // a log that never existed
        };
        let mut bytes = Vec::new();
        let state = |body: &[u8]| self.listener.manifest_state(body);
        put_manifest(&mut bytes, head, levels, vlog_next_no, &vlog_files, state);
        // Beside the old manifest, then over it in one rename.
        let file = self.env.fs().create(MANIFEST_TMP)?;
        self.env.append_then(&file, &bytes, || {
            if let Some(log) = next_log {
                log.map_in_host_call();
            }
        });
        self.env.fs().rename(MANIFEST_TMP, MANIFEST)
    }
}

fn parse_table_name(name: &str) -> Option<u64> {
    name.strip_suffix(".sst")?.parse().ok()
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::small_options;
    use sgx_sim::Platform;
    use sim_disk::{SimDisk, SimFs};

    #[test]
    fn recovery_from_manifest_and_wal() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
        {
            let db = Db::open(env.clone(), options.clone(), None).unwrap();
            for i in 0..300 {
                db.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            // Some data flushed, some still in WAL/memtable.
        }
        // "Power cycle": reopen from the same filesystem.
        let db2 = Db::open(env, options, None).unwrap();
        for i in 0..300 {
            let key = format!("key{i:04}");
            assert_eq!(
                &db2.get(key.as_bytes()).unwrap().unwrap().value[..],
                format!("v{i}").as_bytes(),
                "lost {key} across restart"
            );
        }
        // Timestamps must continue past the recovered maximum.
        let t = db2.put(b"post", b"restart").unwrap();
        assert!(t > 300);
    }

    /// A manifest's other bytes and the listener's section in it.
    type Section = (Vec<u8>, Vec<u8>);

    /// A listener numbering its sections, and noting what recovery hands it
    /// and how many records the replay had folded by then.
    #[derive(Default)]
    struct Sections {
        written: parking_lot::Mutex<Vec<Section>>,
        folded: std::sync::atomic::AtomicUsize,
        recovered: parking_lot::Mutex<Option<(Section, usize)>>,
    }

    impl StoreListener for Sections {
        fn manifest_state(&self, manifest: &[u8]) -> Vec<u8> {
            let mut written = self.written.lock();
            let state = format!("state {}", written.len()).into_bytes();
            written.push((manifest.to_vec(), state.clone()));
            state
        }
        fn recover_manifest_state(&self, manifest: &[u8], state: &[u8]) {
            let folded = self.folded.load(Ordering::SeqCst);
            *self.recovered.lock() = Some(((manifest.to_vec(), state.to_vec()), folded));
        }
        fn on_wal_append_batch(&self, records: &[crate::Record]) {
            self.folded.fetch_add(records.len(), Ordering::SeqCst);
        }
    }

    /// Every manifest write carries the listener's section — at open, at a
    /// flush's freeze and install, at close — and recovery hands back the
    /// last one with the bytes it was made over, before the replay.
    #[test]
    fn the_listener_section_rides_every_manifest() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = Options { write_buffer_bytes: 1 << 20, ..small_options() };
        let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
        let listener = Arc::new(Sections::default());
        let db = Db::open(env.clone(), options.clone(), Some(listener.clone())).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        db.put(b"j", b"w").unwrap();
        db.close().unwrap();
        let written = listener.written.lock().clone();
        assert_eq!(written.len(), 4, "open, freeze, install, close");
        let file = fs.open(MANIFEST).unwrap();
        let bytes = file.read_at(0, file.len()).unwrap();
        let (body, state) = written.last().unwrap();
        assert_eq!(decode_manifest(&bytes).unwrap().listener_state, *state);
        assert!(bytes.starts_with(body));
        assert_eq!(fs.list().len(), 3, "MANIFEST, one log, one table: {:?}", fs.list());

        let listener = Arc::new(Sections::default());
        Db::open(env, options, Some(listener.clone())).unwrap();
        assert_eq!(listener.recovered.lock().take(), Some(((body.clone(), state.clone()), 0)));
        assert_eq!(listener.folded.load(Ordering::SeqCst), 1, "then the replay");
        assert!(listener.written.lock().is_empty(), "recovery writes no manifest");
    }

    /// With no manifest, a store's files are refused, not taken for an
    /// empty store; what a crash in the first open leaves is cleared.
    #[test]
    fn files_without_a_manifest_are_no_fresh_store() {
        let platform = Platform::with_defaults();
        let options = small_options();
        let open = |fs: &Arc<SimFs>| {
            let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
            Db::open(env, options.clone(), None)
        };
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let db = open(&fs).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        db.put(b"j", b"w").unwrap();
        drop(db);
        let image = fs.snapshot();
        fs.delete(MANIFEST).unwrap();
        assert_eq!(open(&fs).unwrap_err(), FsError::NotFound(MANIFEST.into()), "a table, a log");
        let table = fs.list().into_iter().find(|n| n.ends_with(".sst")).unwrap();
        fs.delete(&table).unwrap();
        assert!(open(&fs).is_err(), "a logged write");
        fs.restore(&image);
        fs.delete(MANIFEST).unwrap();
        for name in fs.list().into_iter().filter(|n| n.starts_with("wal-")) {
            fs.delete(&name).unwrap();
        }
        assert!(open(&fs).is_err(), "a table");

        let fs = SimFs::new(SimDisk::new(platform.clone()));
        fs.create(&wal_name(1)).unwrap();
        fs.create(MANIFEST_TMP).unwrap().append(b"half a manifest");
        let db = open(&fs).unwrap();
        assert!(db.get(b"k").unwrap().is_none());
        let mut names = fs.list();
        names.sort();
        assert_eq!(names, [MANIFEST, "wal-000001.log"]);
    }

    /// The host rewrites the manifest's level count: a count the bytes
    /// after it cannot describe is a corrupt manifest, refused before
    /// anything is sized by it — not an allocation of terabytes.
    #[test]
    fn a_forged_level_count_is_refused_at_open() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
        let honest = {
            let db = Db::open(env.clone(), options.clone(), None).unwrap();
            for i in 0..300 {
                db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
            let file = fs.open(MANIFEST).unwrap();
            file.read_at(0, file.len()).unwrap().to_vec()
        };
        let manifest = decode_manifest(&honest).expect("the store's own manifest decodes");
        assert!(!manifest.tables.is_empty(), "the flush named a table");
        assert_eq!(manifest.encode(), honest);
        let (_, count_len) = get_varint_u64(&honest[32..]).unwrap();
        for forged in [1 << 40, u64::MAX, (honest.len() - 32) as u64] {
            let mut bytes = honest[..32].to_vec();
            put_varint_u64(&mut bytes, forged);
            bytes.extend_from_slice(&honest[32 + count_len..]);
            fs.create(MANIFEST_TMP).unwrap().append(&bytes);
            fs.rename(MANIFEST_TMP, MANIFEST).unwrap();
            assert!(decode_manifest(&bytes).is_none(), "count {forged}");
            assert!(Db::open(env.clone(), options.clone(), None).is_err(), "count {forged}");
        }
    }
}
