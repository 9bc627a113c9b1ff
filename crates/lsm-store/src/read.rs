//! The read path: point and range queries over a pinned [`Version`].
//!
//! A read briefly takes the shared side of the store lock to probe the live
//! memtable and pin the current version, then searches the frozen memtable
//! and the levels — and runs any caller-supplied check — with no store lock
//! held (see the concurrency model in [`crate::db`]). What a query found is
//! a [`GetTrace`] / [`ScanTrace`]; the answer is derived from the trace
//! ([`GetTrace::answer`], [`ScanTrace::merged`]), never stored beside it.
//!
//! A verified read's trace passes one host-side seam on its way to the
//! check: the [`Interposer`] a host may install ([`Db::interpose`]).

use std::sync::Arc;

use sim_disk::FsError;

use crate::db::Db;
use crate::record::{Record, ValueKind};
use crate::sstable::NeighborPolicy;
use crate::version::{GetTrace, LevelOutcome, LevelRange, LevelSearch, ScanTrace, Version, Walk};
use crate::vlog::{decode_pointer, vlog_name};

/// Host code on a verified read's path, between the capture of its trace
/// and the caller's check: it sees the trace and may rewrite or replace
/// it. The engine installs none. The adversary of the paper's threat model
/// (§3.3) controls the host's software, so a store run by such a host is
/// modelled by installing one ([`Db::interpose`]): it can observe, mutate,
/// withhold or replay what [`Db::get_with_trace`] / [`Db::scan_with_trace`]
/// hand the enclave, and nothing else. The unauthenticated [`Db::get`] /
/// [`Db::scan`] check nothing and pass nothing through it.
pub trait Interposer: Send + Sync {
    /// The trace a verified GET captured.
    fn get(&self, trace: &mut GetTrace);

    /// The trace a verified SCAN captured.
    fn scan(&self, trace: &mut ScanTrace);
}

impl Db {
    /// Installs `host` on every later verified read's path (see
    /// [`Interposer`]). With none installed a read pays one load and one
    /// branch for the seam.
    ///
    /// # Panics
    ///
    /// Panics if an interposer is already installed: a store has one host.
    pub fn interpose(&self, host: Arc<dyn Interposer>) {
        assert!(self.interposer.set(host).is_ok(), "a store takes one interposer");
    }

    /// Point query at the latest timestamp; tombstones read as absent.
    ///
    /// This is the unauthenticated fast path: definite Bloom misses return
    /// without index/block IO, and misses resolve no bounding neighbors
    /// ([`NeighborPolicy::Skip`]).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>, FsError> {
        let (mem_hit, version) = self.read_view(key);
        let trace = self.get_on_version(&version, mem_hit, key, NeighborPolicy::Skip)?;
        match trace.answer().filter(|r| r.kind.is_value()) {
            Some(r) => self.resolve_vlog_record(r.clone()).map(Some),
            None => Ok(None),
        }
    }

    /// Replaces a pointer record's value with the bytes it points at in
    /// the value log; non-pointer records pass through. The unauthenticated
    /// counterpart of eLSM's MAC-checked resolution: a pointer that does
    /// not resolve (missing file, CRC mismatch, key/ts mismatch) is disk
    /// corruption and surfaces as an IO error, never as silent garbage or
    /// a silent miss.
    fn resolve_vlog_record(&self, record: Record) -> Result<Record, FsError> {
        if record.kind != ValueKind::VlogPut {
            return Ok(record);
        }
        let corrupt = |name: String| FsError::OutOfBounds { name, requested_end: 0, len: 0 };
        let vlog = self.vlog.as_ref().ok_or_else(|| corrupt("no value log".to_string()))?;
        let (ptr, _mac) = self
            .listener
            .unwrap_vlog_pointer(&record.value)
            .and_then(|ptr_bytes| decode_pointer(&ptr_bytes))
            .ok_or_else(|| corrupt("vlog pointer".to_string()))?;
        let value = vlog
            .read(ptr, &record.key, record.ts)?
            .ok_or_else(|| corrupt(vlog_name(ptr.file_no)))?;
        Ok(Record { value, kind: ValueKind::Put, ..record })
    }

    /// Point query handing the full per-level trace (the middleware
    /// interface eLSM builds proofs from) to `check`, whose value it
    /// returns, through the installed [`Interposer`] if there is one.
    /// Search stops at the first level with a record for the key — the
    /// paper's early stop — and passes over, with no IO and no entry in the
    /// trace, a run whose key range does not hold the key
    /// ([`Run::meets`](crate::Run::meets)).
    ///
    /// The trace is collected against an immutable [`Version`] snapshot;
    /// no store lock is held during level IO. [`GetTrace::epoch`] names
    /// the snapshot so verifiers check against the matching commitments.
    /// `check` runs on the trace while the snapshot is still pinned:
    /// pinning guarantees the trace's epoch has not been retired, so
    /// `check` can verify against the epoch's published commitments even
    /// while concurrent flushes/compactions install new versions — the
    /// §5.5.2 read/compaction synchronization, without holding any store
    /// lock across block IO or verification.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn get_with_trace<T>(
        &self,
        key: &[u8],
        check: impl FnOnce(&GetTrace) -> T,
    ) -> Result<T, FsError> {
        let (mem_hit, version) = self.read_view(key);
        let mut trace = self.get_on_version(&version, mem_hit, key, NeighborPolicy::Required)?;
        if let Some(host) = self.interposer.get() {
            host.get(&mut trace);
        }
        // `version` is pinned until `check` returns: the epoch may drain
        // only after verification.
        Ok(check(&trace))
    }

    /// Probes the live memtable and pins the current version: the only
    /// part of a read that takes (the shared side of) the store lock.
    fn read_view(&self, key: &[u8]) -> (Option<Record>, Arc<Version>) {
        self.stats.gets.inc();
        self.env.platform().charge_op_base();
        // Model the in-enclave memtable probe.
        if let Some(region) = &self.memtable_region {
            let h = fxhash(key) as usize;
            let len = region.len().max(2);
            self.env.platform().enclave_touch(region, h % (len / 2), 32.min(len / 2));
        }
        let inner = self.inner.read();
        (inner.memtable.get(key), inner.current.clone())
    }

    /// Searches a pinned version: frozen memtable first (trusted memory),
    /// then the levels in freshness order with early stop. No lock held.
    fn get_on_version(
        &self,
        version: &Version,
        mem_hit: Option<Record>,
        key: &[u8],
        neighbors: NeighborPolicy,
    ) -> Result<GetTrace, FsError> {
        let epoch = version.epoch();
        let memtable = mem_hit.or_else(|| version.imm().and_then(|imm| imm.get(key)));
        if memtable.is_some() {
            return Ok(GetTrace { epoch, memtable, levels: Vec::new() });
        }
        // Under leveled compaction, lower levels are fresher (Lemma 5.4).
        // In stacked layouts — compaction off, or a stacked strategy like
        // size-tiered — runs stack upward as they flush, so the freshest
        // run has the highest index and search order reverses.
        let level_count = version.levels().len();
        let mut levels = Vec::with_capacity(level_count.saturating_sub(1));
        for nth in 1..level_count {
            let level = if self.stacked_reads { level_count - nth } else { nth };
            let outcome = match version.level(level) {
                None => LevelOutcome::Empty,
                // Outside the run's key range: nothing to find or prove.
                Some(run) if !run.meets(key, key) => continue,
                Some(run) => run.get(key, neighbors)?,
            };
            let hit = matches!(outcome, LevelOutcome::Hit(_));
            levels.push(LevelSearch { level, outcome });
            if hit {
                break; // early stop (§5.3)
            }
        }
        Ok(GetTrace { epoch, memtable: None, levels })
    }

    /// Range query at the latest timestamp (Equation 1's SCAN).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<Record>, FsError> {
        let (mem, version) = self.scan_view(from, to);
        let trace = self.scan_on_version(&version, mem, from, to, NeighborPolicy::Skip)?;
        trace.merged().into_iter().map(|r| self.resolve_vlog_record(r.clone())).collect()
    }

    /// Range query at the latest timestamp handing the full per-level
    /// trace to `check`, whose value it returns, through the installed
    /// [`Interposer`] if there is one. Unlike GET, every level is
    /// visited (§5.4) — but for a run whose key range the query does not
    /// meet ([`Run::meets`](crate::Run::meets)), which the trace leaves out
    /// as a GET's does. Collected against a pinned version with no store
    /// lock held; `check` runs while the version is still pinned — the
    /// scan counterpart of [`Db::get_with_trace`].
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn scan_with_trace<T>(
        &self,
        from: &[u8],
        to: &[u8],
        check: impl FnOnce(&ScanTrace) -> T,
    ) -> Result<T, FsError> {
        let (mem, version) = self.scan_view(from, to);
        let mut trace = self.scan_on_version(&version, mem, from, to, NeighborPolicy::Required)?;
        if let Some(host) = self.interposer.get() {
            host.scan(&mut trace);
        }
        Ok(check(&trace)) // with `version` still pinned
    }

    fn scan_view(&self, from: &[u8], to: &[u8]) -> (Vec<Record>, Arc<Version>) {
        self.stats.scans.inc();
        self.env.platform().charge_op_base();
        let inner = self.inner.read();
        (inner.memtable.range_records(from, to), inner.current.clone())
    }

    fn scan_on_version(
        &self,
        version: &Version,
        mut memtable: Vec<Record>,
        from: &[u8],
        to: &[u8],
        neighbors: NeighborPolicy,
    ) -> Result<ScanTrace, FsError> {
        if let Some(imm) = version.imm() {
            memtable.extend(imm.range_records(from, to));
        }
        let mut levels = Vec::with_capacity(version.levels().len().saturating_sub(1));
        for level in 1..version.levels().len() {
            let run = version.level(level);
            let Walk { left, records, right } = match run {
                None => Walk::default(),
                Some(run) if !run.meets(from, to) => continue,
                Some(run) => run.walk(from, to, neighbors)?,
            };
            levels.push(LevelRange { level, empty: run.is_none(), records, left, right });
        }
        Ok(ScanTrace { epoch: version.epoch(), memtable, levels })
    }
}

fn fxhash(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{open_db, small_options};
    use crate::options::Options;

    #[test]
    fn get_trace_early_stops() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        for i in 0..200 {
            db.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        // New write of k0000 stays in the memtable.
        db.put(b"k0000", b"new").unwrap();
        let trace = db.get_with_trace(b"k0000", GetTrace::clone).unwrap();
        assert!(trace.memtable.is_some(), "memtable hit must not search levels");
        assert!(trace.levels.is_empty());

        let trace = db.get_with_trace(b"k0001", GetTrace::clone).unwrap();
        assert!(trace.memtable.is_none());
        assert!(matches!(trace.levels.last().unwrap().outcome, LevelOutcome::Hit(_)));
    }

    #[test]
    fn get_trace_miss_has_neighbors() {
        let db = open_db(small_options());
        db.put(b"b", b"1").unwrap();
        db.put(b"d", b"2").unwrap();
        db.flush().unwrap();
        let trace = db.get_with_trace(b"c", GetTrace::clone).unwrap();
        let hit_level = trace
            .levels
            .iter()
            .find(|l| !matches!(l.outcome, LevelOutcome::Empty))
            .expect("one searched level");
        match &hit_level.outcome {
            LevelOutcome::Miss { left, right } => {
                assert_eq!(&left.as_ref().unwrap().key[..], b"b");
                assert_eq!(&right.as_ref().unwrap().key[..], b"d");
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn plain_get_miss_skips_neighbor_io() {
        let db = open_db(small_options());
        db.put(b"b", b"1").unwrap();
        db.put(b"d", b"2").unwrap();
        db.flush().unwrap();
        // A definite Bloom miss on the plain path must not read any block:
        // disk traffic stays flat (the Bloom filter and index live in
        // enclave metadata, not on disk).
        let before = db.env().platform().stats().disk_bytes;
        assert!(db.get(b"zzz-definitely-absent").unwrap().is_none());
        let after = db.env().platform().stats().disk_bytes;
        assert_eq!(after, before, "bloom-filtered plain get must do no block IO");
    }

    #[test]
    fn pinned_snapshot_survives_later_installs() {
        let db = open_db(small_options());
        for i in 0..50 {
            db.put(format!("key{i:04}").as_bytes(), b"v1").unwrap();
        }
        db.flush().unwrap();
        let snapshot = db.current_version();
        // Overwrite everything and flush/compact repeatedly.
        for round in 0..4 {
            for i in 0..50 {
                db.put(format!("key{i:04}").as_bytes(), format!("v{round}").as_bytes()).unwrap();
            }
            db.flush().unwrap();
        }
        assert!(db.current_epoch() > snapshot.epoch());
        // The pinned snapshot still reads the old state, including from
        // runs whose files have since been unlinked.
        let trace = db.get_on_version(&snapshot, None, b"key0007", NeighborPolicy::Skip).unwrap();
        assert_eq!(&trace.answer().unwrap().value[..], b"v1");
        assert_eq!(trace.epoch, snapshot.epoch());
    }

    #[test]
    fn scan_merges_levels_and_memtable() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        db.put(b"a", b"old").unwrap();
        db.put(b"c", b"1").unwrap();
        db.flush().unwrap();
        db.put(b"a", b"new").unwrap();
        db.put(b"b", b"2").unwrap();
        let got = db.scan(b"a", b"c").unwrap();
        let pairs: Vec<(&[u8], &[u8])> = got.iter().map(|r| (&r.key[..], &r.value[..])).collect();
        assert_eq!(
            pairs,
            vec![
                (b"a".as_slice(), b"new".as_slice()),
                (b"b".as_slice(), b"2".as_slice()),
                (b"c".as_slice(), b"1".as_slice())
            ]
        );
    }

    #[test]
    fn scan_hides_deleted_keys() {
        let db = open_db(small_options());
        db.put(b"a", b"1").unwrap();
        db.put(b"b", b"2").unwrap();
        db.delete(b"a").unwrap();
        let got = db.scan(b"a", b"z").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].key[..], b"b");
    }
}
