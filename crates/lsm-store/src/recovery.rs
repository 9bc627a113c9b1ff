//! What survives a restart: the manifest, and recovery from it.
//!
//! The manifest names the store's durable parts — next file number, last
//! timestamp, the live WAL range, each level's tables, the value-log files.
//! It is rewritten whole at every install ([`Db::write_manifest`]);
//! [`Db::recover_parts`] reads it back, drops files it does not name
//! (orphans of a crash between writing a merge's outputs and the manifest
//! naming them) and replays the live logs into a fresh memtable.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sim_disk::FsError;

use crate::db::{table_name, wal_name, Db, DbInner};
use crate::encoding::{get_fixed_u64, get_varint_u64, put_fixed_u64, put_varint_u64};
use crate::env::StorageEnv;
use crate::events::StoreListener;
use crate::memtable::MemTable;
use crate::options::Options;
use crate::sstable::TableReader;
use crate::version::{Run, Version};
use crate::vlog::parse_vlog_name;
use crate::wal::{recover, WalWriter};

pub(crate) const MANIFEST: &str = "MANIFEST";

impl Db {
    #[allow(clippy::type_complexity)]
    pub(crate) fn recover_parts(
        env: &Arc<StorageEnv>,
        options: &Options,
        listener: &dyn StoreListener,
    ) -> Result<(DbInner, u64, u64, (u64, Vec<(u64, u64, u64)>)), FsError> {
        let manifest = env.fs().open(MANIFEST)?;
        let bytes = env.host_call(|| manifest.read_at(0, manifest.len()))?;
        let corrupt =
            || FsError::OutOfBounds { name: MANIFEST.to_string(), requested_end: 0, len: 0 };
        let next_file_no = get_fixed_u64(&bytes, 0).ok_or_else(corrupt)?;
        let last_ts = get_fixed_u64(&bytes, 8).ok_or_else(corrupt)?;
        let wal_lo = get_fixed_u64(&bytes, 16).ok_or_else(corrupt)?;
        let wal_no = get_fixed_u64(&bytes, 24).ok_or_else(corrupt)?;
        let mut pos = 32usize;
        let (nlevels, n) = get_varint_u64(&bytes[pos..]).ok_or_else(corrupt)?;
        pos += n;
        let mut levels: Vec<Option<Arc<Run>>> =
            (0..=options.max_levels.max(nlevels as usize)).map(|_| None).collect();
        let mut named = HashSet::new();
        for slot in levels.iter_mut().take(nlevels as usize + 1).skip(1) {
            let (nfiles, n) = get_varint_u64(&bytes[pos..]).ok_or_else(corrupt)?;
            pos += n;
            if nfiles == 0 {
                continue;
            }
            let mut tables = Vec::new();
            for _ in 0..nfiles {
                let (file_no, n) = get_varint_u64(&bytes[pos..]).ok_or_else(corrupt)?;
                pos += n;
                named.insert(file_no);
                let file = env.fs().open(&table_name(file_no))?;
                tables.push(Arc::new(TableReader::open(env.clone(), file, file_no)?));
            }
            *slot = Some(Arc::new(Run::new(tables)));
        }
        // The value-log section follows the levels. Older manifests (no
        // section) decode as an empty log.
        let (vlog_next_no, vlog_files) = match crate::vlog::decode_manifest_section(&bytes[pos..]) {
            Some((next_no, files, _)) => (next_no, files),
            None => (1, Vec::new()),
        };
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
            let records = recover(env, &file)?;
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
                wal: WalWriter::new(env.clone(), wal_file, options.wal_sync),
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
        self.write_manifest_with(wal_lo, wal_no, &version)
    }

    pub(crate) fn write_manifest_with(
        &self,
        wal_lo: u64,
        wal_hi: u64,
        version: &Version,
    ) -> Result<(), FsError> {
        let mut bytes = Vec::new();
        put_fixed_u64(&mut bytes, self.file_no.load(Ordering::SeqCst));
        put_fixed_u64(&mut bytes, self.ts.load(Ordering::SeqCst));
        put_fixed_u64(&mut bytes, wal_lo);
        put_fixed_u64(&mut bytes, wal_hi);
        put_varint_u64(&mut bytes, (version.levels().len() - 1) as u64);
        for level in 1..version.levels().len() {
            match version.level(level) {
                None => put_varint_u64(&mut bytes, 0),
                Some(run) => {
                    put_varint_u64(&mut bytes, run.tables().len() as u64);
                    for t in run.tables() {
                        put_varint_u64(&mut bytes, t.meta().file_no);
                    }
                }
            }
        }
        crate::vlog::encode_manifest_section(self.vlog.as_deref(), &mut bytes);
        let _ = self.env.fs().delete(MANIFEST);
        let file = self.env.fs().create(MANIFEST)?;
        self.env.append(&file, &bytes);
        Ok(())
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
}
