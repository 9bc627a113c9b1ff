//! Simulated filesystem over [`crate::disk::SimDisk`].
//!
//! Files hold their real bytes (SSTables are actually built and parsed),
//! while reads and writes charge the disk/DRAM cost model. A per-file
//! *warm* flag models the OS page cache in untrusted memory: the paper's
//! experiments scan the dataset after loading "so that it is loaded in the
//! untrusted memory" (§6.1), after which reads are memory-speed. Figure 2
//! instead uses a dataset larger than memory, which the harness models by
//! capping the OS cache.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use sgx_sim::Platform;

use crate::disk::SimDisk;

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// The named file does not exist.
    NotFound(String),
    /// A file with this name already exists.
    AlreadyExists(String),
    /// Read past the end of the file.
    OutOfBounds {
        /// File name.
        name: String,
        /// Requested end offset.
        requested_end: usize,
        /// Actual file length.
        len: usize,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(n) => write!(f, "file not found: {n}"),
            FsError::AlreadyExists(n) => write!(f, "file already exists: {n}"),
            FsError::OutOfBounds { name, requested_end, len } => {
                write!(f, "read past end of {name}: {requested_end} > {len}")
            }
        }
    }
}

impl std::error::Error for FsError {}

/// One extent of a file on the simulated disk.
#[derive(Debug, Clone, Copy)]
struct Extent {
    file_off: u64,
    disk_off: u64,
    len: u64,
}

/// A file in the simulated filesystem.
///
/// Append-only writes (as LSM stores produce) and random-access reads.
#[derive(Debug)]
pub struct SimFile {
    fs: Arc<SimFsInner>,
    name: RwLock<String>,
    data: RwLock<Vec<u8>>,
    extents: Mutex<Vec<Extent>>,
    warm: AtomicBool,
}

impl SimFile {
    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current name (may change through rename).
    pub fn name(&self) -> String {
        self.name.read().clone()
    }

    /// Whether the file's contents are resident in the untrusted OS page
    /// cache (reads cost DRAM instead of disk).
    pub fn is_warm(&self) -> bool {
        self.warm.load(Ordering::Relaxed)
    }

    /// Appends bytes, charging a sequential disk write.
    pub fn append(&self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        let disk_off = self.fs.disk.allocate(bytes.len() as u64);
        let file_off = {
            let mut data = self.data.write();
            let off = data.len() as u64;
            data.extend_from_slice(bytes);
            off
        };
        self.extents.lock().push(Extent { file_off, disk_off, len: bytes.len() as u64 });
        self.fs.disk.write(disk_off, bytes.len());
        // Freshly written data sits in the page cache if there is room.
        self.fs.try_warm(self, bytes.len() as u64);
    }

    /// Reads `len` bytes at `offset`, charging DRAM (warm) or disk (cold).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] when the range exceeds the file.
    pub fn read_at(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        let data = self.data.read();
        let end = offset.checked_add(len).ok_or_else(|| FsError::OutOfBounds {
            name: self.name(),
            requested_end: usize::MAX,
            len: data.len(),
        })?;
        if end > data.len() {
            return Err(FsError::OutOfBounds {
                name: self.name(),
                requested_end: end,
                len: data.len(),
            });
        }
        if self.is_warm() {
            self.fs.platform.dram_access(len);
        } else {
            // Charge per covering extent: a read spanning extents written at
            // different times causes distinct disk accesses.
            let extents = self.extents.lock();
            for e in extents.iter() {
                let e_end = e.file_off + e.len;
                let r_start = offset as u64;
                let r_end = end as u64;
                if e.file_off < r_end && r_start < e_end {
                    let within = r_start.max(e.file_off) - e.file_off;
                    let take = r_end.min(e_end) - r_start.max(e.file_off);
                    self.fs.disk.read(e.disk_off + within, take as usize);
                }
            }
        }
        Ok(Bytes::copy_from_slice(&data[offset..end]))
    }

    /// Flips bits at `offset` (XOR with `mask`) without charging costs.
    ///
    /// This is the adversary/fault-injection hook: the untrusted host can
    /// rewrite any byte it stores. Security tests corrupt SSTables and
    /// WALs through this and assert the enclave detects it.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is past the end of the file.
    pub fn corrupt(&self, offset: usize, mask: u8) {
        let mut data = self.data.write();
        assert!(offset < data.len(), "corrupt offset out of range");
        data[offset] ^= mask;
    }

    /// Copies bytes without charging any cost; used by [`crate::mmap`],
    /// which does its own fault accounting.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] when the range exceeds the file.
    pub fn peek(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        let data = self.data.read();
        let end = offset.checked_add(len).filter(|&e| e <= data.len()).ok_or_else(|| {
            FsError::OutOfBounds {
                name: self.name(),
                requested_end: offset.saturating_add(len),
                len: data.len(),
            }
        })?;
        Ok(Bytes::copy_from_slice(&data[offset..end]))
    }

    /// The platform this file charges costs to.
    pub fn fs_platform(&self) -> &Arc<Platform> {
        &self.fs.platform
    }

    /// Marks the whole file resident in the OS page cache, charging one
    /// sequential scan (the paper's warm-up step).
    pub fn warm(&self) {
        if self.is_warm() {
            return;
        }
        let len = self.len() as u64;
        // The warm-up scan itself reads from disk once.
        let extents = self.extents.lock();
        for e in extents.iter() {
            self.fs.disk.read(e.disk_off, e.len as usize);
        }
        drop(extents);
        self.fs.try_warm(self, len);
    }
}

#[derive(Debug)]
struct SimFsInner {
    platform: Arc<Platform>,
    disk: Arc<SimDisk>,
    os_cache_limit: Mutex<u64>,
    os_cache_used: Mutex<u64>,
}

impl SimFsInner {
    fn try_warm(&self, file: &SimFile, added: u64) {
        if file.is_warm() {
            return;
        }
        let limit = *self.os_cache_limit.lock();
        let mut used = self.os_cache_used.lock();
        if *used + added <= limit {
            *used += added;
            file.warm.store(true, Ordering::Relaxed);
        }
    }
}

/// The simulated filesystem: named append-only files.
///
/// # Examples
///
/// ```
/// use sgx_sim::Platform;
/// use sim_disk::{SimDisk, SimFs};
///
/// let platform = Platform::with_defaults();
/// let fs = SimFs::new(SimDisk::new(platform));
/// let f = fs.create("wal.log").unwrap();
/// f.append(b"entry-1");
/// assert_eq!(&f.read_at(0, 7).unwrap()[..], b"entry-1");
/// ```
#[derive(Debug)]
pub struct SimFs {
    inner: Arc<SimFsInner>,
    files: RwLock<HashMap<String, Arc<SimFile>>>,
}

impl SimFs {
    /// Creates a filesystem on `disk` with an effectively unlimited OS page
    /// cache (everything written stays warm). Use
    /// [`SimFs::set_os_cache_limit`] to model memory pressure.
    pub fn new(disk: Arc<SimDisk>) -> Arc<Self> {
        let platform = disk.platform().clone();
        Arc::new(SimFs {
            inner: Arc::new(SimFsInner {
                platform,
                disk,
                os_cache_limit: Mutex::new(u64::MAX),
                os_cache_used: Mutex::new(0),
            }),
            files: RwLock::new(HashMap::new()),
        })
    }

    /// Limits the untrusted OS page cache to `bytes`. Files already warm
    /// stay warm; new warm-ups beyond the limit are refused (reads stay at
    /// disk cost).
    pub fn set_os_cache_limit(&self, bytes: u64) {
        *self.inner.os_cache_limit.lock() = bytes;
    }

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if the name is taken.
    pub fn create(&self, name: &str) -> Result<Arc<SimFile>, FsError> {
        let mut files = self.files.write();
        if files.contains_key(name) {
            return Err(FsError::AlreadyExists(name.to_string()));
        }
        let file = Arc::new(SimFile {
            fs: self.inner.clone(),
            name: RwLock::new(name.to_string()),
            data: RwLock::new(Vec::new()),
            extents: Mutex::new(Vec::new()),
            warm: AtomicBool::new(false),
        });
        files.insert(name.to_string(), file.clone());
        Ok(file)
    }

    /// Opens an existing file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if absent.
    pub fn open(&self, name: &str) -> Result<Arc<SimFile>, FsError> {
        self.files.read().get(name).cloned().ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Deletes a file (its page-cache residency is released).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if absent.
    pub fn delete(&self, name: &str) -> Result<(), FsError> {
        let file =
            self.files.write().remove(name).ok_or_else(|| FsError::NotFound(name.to_string()))?;
        if file.is_warm() {
            let mut used = self.inner.os_cache_used.lock();
            *used = used.saturating_sub(file.len() as u64);
        }
        Ok(())
    }

    /// Renames a file.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] / [`FsError::AlreadyExists`].
    pub fn rename(&self, old: &str, new: &str) -> Result<(), FsError> {
        let mut files = self.files.write();
        if files.contains_key(new) {
            return Err(FsError::AlreadyExists(new.to_string()));
        }
        let file = files.remove(old).ok_or_else(|| FsError::NotFound(old.to_string()))?;
        *file.name.write() = new.to_string();
        files.insert(new.to_string(), file);
        Ok(())
    }

    /// All file names, unsorted.
    pub fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Sum of all file lengths.
    pub fn total_bytes(&self) -> u64 {
        self.files.read().values().map(|f| f.len() as u64).sum()
    }

    /// The platform used for charging.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.inner.platform
    }

    /// Captures the complete filesystem contents — the adversary's
    /// "old but authentic version" for rollback attacks (§5.6.1).
    pub fn snapshot(&self) -> FsSnapshot {
        let files = self.files.read();
        FsSnapshot {
            files: files.iter().map(|(name, f)| (name.clone(), f.data.read().clone())).collect(),
        }
    }

    /// Replaces the filesystem contents with a snapshot (no cost charged —
    /// the adversary works offline).
    pub fn restore(&self, snapshot: &FsSnapshot) {
        let mut files = self.files.write();
        files.clear();
        for (name, data) in &snapshot.files {
            let file = Arc::new(SimFile {
                fs: self.inner.clone(),
                name: RwLock::new(name.clone()),
                data: RwLock::new(data.clone()),
                extents: Mutex::new(Vec::new()),
                warm: AtomicBool::new(true),
            });
            files.insert(name.clone(), file);
        }
    }
}

/// A point-in-time copy of every file, used to mount rollback attacks.
#[derive(Debug, Clone)]
pub struct FsSnapshot {
    files: Vec<(String, Vec<u8>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::CostModel;

    fn fs() -> Arc<SimFs> {
        SimFs::new(SimDisk::new(Platform::new(CostModel::paper_defaults())))
    }

    #[test]
    fn create_write_read_round_trip() {
        let fs = fs();
        let f = fs.create("a").unwrap();
        f.append(b"hello ");
        f.append(b"world");
        assert_eq!(&f.read_at(0, 11).unwrap()[..], b"hello world");
        assert_eq!(&f.read_at(6, 5).unwrap()[..], b"world");
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = fs();
        fs.create("a").unwrap();
        assert!(matches!(fs.create("a"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn open_missing_rejected() {
        assert!(matches!(fs().open("nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let fs = fs();
        let f = fs.create("a").unwrap();
        f.append(b"abc");
        assert!(matches!(f.read_at(1, 5), Err(FsError::OutOfBounds { .. })));
    }

    #[test]
    fn rename_preserves_contents() {
        let fs = fs();
        let f = fs.create("old").unwrap();
        f.append(b"data");
        fs.rename("old", "new").unwrap();
        assert!(fs.open("old").is_err());
        let g = fs.open("new").unwrap();
        assert_eq!(&g.read_at(0, 4).unwrap()[..], b"data");
        assert_eq!(g.name(), "new");
    }

    #[test]
    fn rename_to_existing_rejected() {
        let fs = fs();
        fs.create("a").unwrap();
        fs.create("b").unwrap();
        assert!(matches!(fs.rename("a", "b"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn delete_removes_file() {
        let fs = fs();
        fs.create("a").unwrap();
        fs.delete("a").unwrap();
        assert!(fs.open("a").is_err());
        assert!(fs.delete("a").is_err());
    }

    #[test]
    fn warm_reads_cost_dram_not_disk() {
        let fs = fs();
        let f = fs.create("a").unwrap();
        f.append(&vec![0u8; 8192]);
        // Unlimited cache: file is warm right after writing.
        assert!(f.is_warm());
        let seeks_before = fs.platform().stats().disk_seeks;
        let dram_before = fs.platform().stats().dram_bytes;
        f.read_at(100, 1000).unwrap();
        assert_eq!(fs.platform().stats().disk_seeks, seeks_before);
        assert_eq!(fs.platform().stats().dram_bytes - dram_before, 1000);
    }

    #[test]
    fn cold_reads_hit_disk() {
        let fs = fs();
        fs.set_os_cache_limit(0);
        let f = fs.create("a").unwrap();
        f.append(&vec![0u8; 8192]);
        assert!(!f.is_warm());
        let bytes_before = fs.platform().stats().disk_bytes;
        f.read_at(0, 4096).unwrap();
        assert!(fs.platform().stats().disk_bytes > bytes_before);
    }

    #[test]
    fn cache_limit_respected() {
        let fs = fs();
        fs.set_os_cache_limit(10_000);
        let a = fs.create("a").unwrap();
        a.append(&vec![0u8; 8_000]);
        let b = fs.create("b").unwrap();
        b.append(&vec![0u8; 8_000]);
        assert!(a.is_warm());
        assert!(!b.is_warm(), "second file exceeds the cache limit");
        // Deleting the first frees room for the second.
        fs.delete("a").unwrap();
        b.warm();
        assert!(b.is_warm());
    }

    #[test]
    fn total_bytes_and_list() {
        let fs = fs();
        fs.create("a").unwrap().append(b"12345");
        fs.create("b").unwrap().append(b"123");
        assert_eq!(fs.total_bytes(), 8);
        let mut names = fs.list();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn interleaved_appends_cause_seeks() {
        let fs = fs();
        fs.set_os_cache_limit(0);
        let a = fs.create("a").unwrap();
        let b = fs.create("b").unwrap();
        a.append(&vec![1u8; 4096]);
        b.append(&vec![2u8; 4096]);
        a.append(&vec![3u8; 4096]);
        // Reading file a sequentially spans two discontiguous extents.
        let seeks_before = fs.platform().stats().disk_seeks;
        a.read_at(0, 8192).unwrap();
        assert!(fs.platform().stats().disk_seeks > seeks_before);
    }
}
