//! Memory-mapped file views (eLSM-P2's mmap read path, §5.5.1).
//!
//! On the mmap path, the enclave maps a file — a table, a value log —
//! into *untrusted* memory and then dereferences it directly — no
//! user-space buffer, no OCall per read, no extra copy. Reads of warm pages
//! cost plain DRAM; cold pages fault once at disk cost (major page fault)
//! and stay warm. A mapping covers the length it was made or last grown
//! to; a file written through it grows into it, and a read past it fails.
//!
//! eLSM-P1 cannot use this path: mmap'd pages live outside the enclave, and
//! P1 keeps all data inside (§6.3).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::fs::{FsError, SimFile};

const MMAP_PAGE: usize = 4096;

/// A memory map of a [`SimFile`] in untrusted memory, read through
/// [`MmapFile::read`]. It covers the bytes it was mapped with until
/// [`MmapFile::grow`] extends it — a file that grows past its mapping is
/// not readable there until then.
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
    /// Bytes mapped.
    len: AtomicUsize,
    /// Whether each page read so far was faulted in (monotone; mappings
    /// here are short-lived relative to memory pressure). The flags cover
    /// the pages up to the last one read, not the mapping: a mapping's
    /// sparse tail costs nothing until the file grows into it.
    resident: Mutex<Vec<bool>>,
}

impl MmapFile {
    /// Maps `file` as long as it is now. The mapping itself is cheap
    /// (page-table setup only).
    pub fn map(file: Arc<SimFile>) -> Arc<Self> {
        let len = file.len();
        Self::map_len(file, len)
    }

    /// Maps the first `len` bytes of `file`; past its end, the room it
    /// grows into (a file written through its mapping).
    pub fn map_len(file: Arc<SimFile>, len: usize) -> Arc<Self> {
        Arc::new(MmapFile { file, len: AtomicUsize::new(len), resident: Mutex::new(Vec::new()) })
    }

    /// Bytes mapped.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing is mapped (kept beside [`MmapFile::len`] for
    /// `clippy::len_without_is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extends the mapping to `len` bytes (`mremap`; a shorter `len` leaves
    /// it as it is). The new pages are not resident: a cold file faults
    /// each on its first read.
    pub fn grow(&self, len: usize) {
        self.len.fetch_max(len, Ordering::AcqRel);
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
    /// Returns [`FsError::OutOfBounds`] past the end of the mapping or of
    /// the file.
    pub fn read(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        let end = offset.saturating_add(len);
        let mapped = self.len();
        let past_mapping =
            || FsError::OutOfBounds { name: self.file.name(), requested_end: end, len: mapped };
        if self.file.is_warm() {
            if end > mapped {
                return Err(past_mapping());
            }
            // read_at charges DRAM for warm files.
            return self.file.read_at(offset, len);
        }
        // Major-fault once each cold page the read touches that the mapping
        // and the file hold.
        let faulted = end.min(mapped).min(self.file.len()).div_ceil(MMAP_PAGE);
        let mut resident = self.resident.lock();
        if resident.len() < faulted {
            resident.resize(faulted, false);
        }
        for page in offset / MMAP_PAGE..faulted {
            if !resident[page] {
                resident[page] = true;
                // One disk read per cold page, charged through the file.
                let start = page * MMAP_PAGE;
                let take = MMAP_PAGE.min(self.file.len().saturating_sub(start));
                self.file.charge_read(start, take);
            }
        }
        drop(resident);
        // The access itself is a DRAM read of untrusted memory.
        self.file.fs_platform().dram_access(len);
        if end > mapped {
            return Err(past_mapping());
        }
        self.file.peek(offset, len)
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

    /// A file that grew after it was mapped is read past the mapping only
    /// once the mapping grows, and its new pages then fault like the first.
    #[test]
    fn a_grown_file_is_read_through_a_grown_mapping() {
        let fs = cold_fs();
        let f = fs.create("t").unwrap();
        f.append(&vec![1u8; 8 * 1024]);
        let map = MmapFile::map(f.clone());
        f.append(&vec![2u8; 8 * 1024]);
        assert!(map.read(12 * 1024, 100).is_err(), "past the mapping");
        assert!(map.read(8 * 1024 - 50, 100).is_err(), "straddling its end");
        map.grow(16 * 1024);
        assert_eq!(map.len(), 16 * 1024);
        let disk = || fs.platform().stats().disk_bytes;
        let bytes0 = disk();
        assert_eq!(&map.read(12 * 1024, 100).unwrap()[..], &[2u8; 100][..]);
        let bytes1 = disk();
        assert_eq!(bytes1 - bytes0, 4096, "the new page faults in whole");
        map.read(12 * 1024 + 200, 100).unwrap();
        assert_eq!(disk(), bytes1, "and stays resident");
        map.grow(4096);
        assert_eq!(map.len(), 16 * 1024, "a mapping never shrinks");
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
