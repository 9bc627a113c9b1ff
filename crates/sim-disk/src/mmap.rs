//! Memory-mapped file views (eLSM-P2's mmap read path, §5.5.1).
//!
//! On the mmap path, the enclave maps an SSTable into *untrusted* memory on
//! open and then dereferences it directly — no user-space buffer, no OCall
//! per read, no extra copy. Reads of warm pages cost plain DRAM; cold pages
//! fault once at disk cost (major page fault) and stay warm.
//!
//! eLSM-P1 cannot use this path: mmap'd pages live outside the enclave, and
//! P1 keeps all data inside (§6.3).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::fs::{FsError, SimFile};

const MMAP_PAGE: usize = 4096;

/// A read-only memory map of a [`SimFile`] in untrusted memory.
///
/// # Examples
///
/// ```
/// use sgx_sim::Platform;
/// use sim_disk::{MmapFile, SimDisk, SimFs};
///
/// let fs = SimFs::new(SimDisk::new(Platform::with_defaults()));
/// let f = fs.create("table.sst").unwrap();
/// f.append(b"sorted records ...");
/// let map = MmapFile::map(f);
/// assert_eq!(&map.read(0, 6).unwrap()[..], b"sorted");
/// ```
#[derive(Debug)]
pub struct MmapFile {
    file: Arc<SimFile>,
    /// Pages already faulted in (monotone; mmaps here are read-only and
    /// short-lived relative to memory pressure).
    resident: Mutex<Vec<bool>>,
}

impl MmapFile {
    /// Maps `file`. The mapping itself is cheap (page-table setup only).
    pub fn map(file: Arc<SimFile>) -> Arc<Self> {
        let pages = file.len().div_ceil(MMAP_PAGE);
        Arc::new(MmapFile { file, resident: Mutex::new(vec![false; pages]) })
    }

    /// Length of the mapped file at map time.
    pub fn len(&self) -> usize {
        self.resident.lock().len() * MMAP_PAGE
    }

    /// Whether the mapping covers no pages.
    pub fn is_empty(&self) -> bool {
        self.resident.lock().is_empty()
    }

    /// Reads `len` bytes at `offset` through the mapping: a view of the
    /// file's bytes in untrusted memory, not a copy of them (see
    /// [`SimFile::peek`]).
    ///
    /// Warm file: pure DRAM cost. Cold pages: one major fault each (disk
    /// read), after which they stay resident.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] past the end of the file.
    pub fn read(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        if self.file.is_warm() {
            // read_at charges DRAM for warm files.
            return self.file.read_at(offset, len);
        }
        // Major-fault cold pages once.
        let first = offset / MMAP_PAGE;
        let last = (offset + len - 1) / MMAP_PAGE;
        {
            let mut resident = self.resident.lock();
            for page in first..=last.min(resident.len().saturating_sub(1)) {
                if !resident[page] {
                    resident[page] = true;
                    // One disk read per cold page, charged through the file.
                    let start = page * MMAP_PAGE;
                    let take = MMAP_PAGE.min(self.file.len().saturating_sub(start));
                    self.file.charge_read(start, take);
                }
            }
        }
        // The access itself is a DRAM read of untrusted memory.
        self.file.fs_platform().dram_access(len);
        self.file.peek(offset, len)
    }

    /// The underlying file.
    pub fn file(&self) -> &Arc<SimFile> {
        &self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::SimDisk;
    use crate::fs::SimFs;
    use sgx_sim::{CostModel, Platform};

    fn cold_fs() -> Arc<SimFs> {
        let fs = SimFs::new(SimDisk::new(Platform::new(CostModel::paper_defaults())));
        fs.set_os_cache_limit(0);
        fs
    }

    #[test]
    fn warm_mmap_reads_are_dram_only() {
        let fs = SimFs::new(SimDisk::new(Platform::with_defaults()));
        let f = fs.create("t").unwrap();
        f.append(&vec![7u8; 16 * 1024]);
        assert!(f.is_warm());
        let map = MmapFile::map(f);
        let seeks = fs.platform().stats().disk_seeks;
        let got = map.read(5000, 100).unwrap();
        assert_eq!(got, Bytes::from(vec![7u8; 100]));
        assert_eq!(fs.platform().stats().disk_seeks, seeks);
    }

    #[test]
    fn cold_pages_fault_once() {
        let fs = cold_fs();
        let f = fs.create("t").unwrap();
        f.append(&vec![1u8; 16 * 1024]);
        let map = MmapFile::map(f);
        let bytes0 = fs.platform().stats().disk_bytes;
        map.read(0, 100).unwrap();
        let bytes1 = fs.platform().stats().disk_bytes;
        assert!(bytes1 > bytes0, "first access major-faults");
        map.read(0, 100).unwrap();
        let bytes2 = fs.platform().stats().disk_bytes;
        assert_eq!(bytes2, bytes1, "second access is resident");
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let fs = cold_fs();
        let f = fs.create("t").unwrap();
        f.append(b"abc");
        let map = MmapFile::map(f);
        assert!(map.read(0, 10).is_err());
    }

    #[test]
    fn reads_return_correct_bytes() {
        let fs = cold_fs();
        let f = fs.create("t").unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        f.append(&data);
        let map = MmapFile::map(f);
        let got = map.read(5000, 100).unwrap();
        assert_eq!(&got[..], &data[5000..5100]);
    }
}
