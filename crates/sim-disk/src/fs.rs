//! Simulated filesystem over [`crate::disk::SimDisk`].
//!
//! Files hold their real bytes (SSTables are actually built and parsed),
//! while reads and writes charge the disk/DRAM cost model. A per-file
//! *warm* flag models the OS page cache in untrusted memory: the paper's
//! experiments scan the dataset after loading "so that it is loaded in the
//! untrusted memory" (§6.1), after which reads are memory-speed. Figure 2
//! instead uses a dataset larger than memory, which the harness models by
//! capping the OS cache.
//!
//! A file's bytes are immutable shared chunks: one per large append (a
//! table builder's buffered write), while small appends (WAL frames, value
//! log batches) gather in a tail that becomes a chunk at 64 KiB or on its
//! first read. A read returns a view of the chunk that covers it —
//! the untrusted memory the enclave dereferences in place (§5.5.1) — and
//! copies only when it spans chunks. [`SimFile::corrupt`] rewrites its
//! chunk copy-on-write: later reads see the flip, views already handed out
//! keep the bytes they were read with.
//!
//! Crash sweeps arm a [`FaultPlan`]: every mutation (a create, a non-empty
//! append, a truncate, a rename, a delete) is one op, and the filesystem keeps the
//! image the disk would hold had power failed right after the planned op —
//! or, for a torn append, halfway through it — while the run goes on
//! unaffected.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

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

/// Appends at least this long become a chunk of their own; shorter ones
/// gather in the tail until it is this long (or is first read).
const CHUNK: usize = 64 * 1024;

/// A file's bytes: sealed chunks, immutable and shared with every view a
/// read returned, then the tail that still takes appends.
#[derive(Debug, Clone, Default)]
struct Contents {
    /// `(file offset, bytes)` of each sealed chunk, back to back in file
    /// order; none is empty.
    chunks: Vec<(usize, Bytes)>,
    /// The bytes after the last chunk.
    tail: Vec<u8>,
}

impl Contents {
    fn sealed_len(&self) -> usize {
        self.chunks.last().map_or(0, |(start, chunk)| start + chunk.len())
    }

    fn len(&self) -> usize {
        self.sealed_len() + self.tail.len()
    }

    fn append(&mut self, bytes: &[u8]) {
        if bytes.len() >= CHUNK {
            self.seal();
            let start = self.sealed_len();
            self.chunks.push((start, Bytes::copy_from_slice(bytes)));
        } else {
            self.tail.extend_from_slice(bytes);
            if self.tail.len() >= CHUNK {
                self.seal();
            }
        }
    }

    /// Turns the tail into a chunk.
    fn seal(&mut self) {
        if !self.tail.is_empty() {
            let start = self.sealed_len();
            let tail = std::mem::take(&mut self.tail);
            self.chunks.push((start, Bytes::copy_from_slice(&tail)));
        }
    }

    /// Index of the chunk holding byte `offset` (`offset < sealed_len()`).
    fn chunk_of(&self, offset: usize) -> usize {
        self.chunks.partition_point(|(start, _)| *start <= offset) - 1
    }

    /// Bytes `offset..end` of the sealed part: a view of the covering
    /// chunk, or a copy when the range spans chunks.
    fn view(&self, offset: usize, end: usize) -> Bytes {
        if offset == end {
            return Bytes::new();
        }
        let first = self.chunk_of(offset);
        let (start, chunk) = &self.chunks[first];
        if end <= start + chunk.len() {
            return chunk.slice(offset - start..end - start);
        }
        let mut out = Vec::with_capacity(end - offset);
        for (start, chunk) in self.chunks[first..].iter().take_while(|(start, _)| *start < end) {
            out.extend_from_slice(&chunk[offset.max(*start) - start..chunk.len().min(end - start)]);
        }
        Bytes::from(out)
    }

    /// Drops every byte from `len` on (`len <= self.len()`); views already
    /// handed out keep theirs.
    fn truncate(&mut self, len: usize) {
        let sealed = self.sealed_len();
        if len >= sealed {
            self.tail.truncate(len - sealed);
            return;
        }
        self.tail.clear();
        let i = self.chunk_of(len);
        let (start, chunk) = self.chunks[i].clone();
        self.chunks.truncate(i);
        if len > start {
            self.chunks.push((start, chunk.slice(..len - start)));
        }
    }

    /// XORs byte `offset` with `mask`; a sealed chunk is replaced, not
    /// written to.
    fn flip(&mut self, offset: usize, mask: u8) {
        let sealed = self.sealed_len();
        if offset >= sealed {
            self.tail[offset - sealed] ^= mask;
            return;
        }
        let i = self.chunk_of(offset);
        let (start, chunk) = &mut self.chunks[i];
        let mut bytes = chunk.to_vec();
        bytes[offset - *start] ^= mask;
        *chunk = Bytes::from(bytes);
    }
}

/// A file in the simulated filesystem.
///
/// Append-only writes (as LSM stores produce) and random-access reads.
#[derive(Debug)]
pub struct SimFile {
    fs: Arc<SimFsInner>,
    name: RwLock<String>,
    contents: RwLock<Contents>,
    extents: Mutex<Vec<Extent>>,
    warm: AtomicBool,
}

impl SimFile {
    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.contents.read().len()
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
        let crash = self.fs.mutation();
        if crash == Some(true) {
            self.fs.capture(Some((&self.name(), &bytes[..bytes.len() / 2])));
        }
        let disk_off = self.fs.disk.allocate(bytes.len() as u64);
        let file_off = {
            let mut contents = self.contents.write();
            let off = contents.len() as u64;
            contents.append(bytes);
            off
        };
        self.extents.lock().push(Extent { file_off, disk_off, len: bytes.len() as u64 });
        self.fs.disk.write(disk_off, bytes.len());
        // Freshly written data sits in the page cache if there is room.
        self.fs.try_warm(self, bytes.len() as u64);
        if crash == Some(false) {
            self.fs.capture(None);
        }
    }

    /// Cuts the file to its first `len` bytes, as `ftruncate` does: one
    /// mutation, charging nothing (the caller charges the host call).
    ///
    /// # Panics
    ///
    /// Panics if `len` is past the end of the file.
    pub fn truncate(&self, len: usize) {
        let cut = {
            let mut contents = self.contents.write();
            let old = contents.len();
            assert!(len <= old, "truncate past the end");
            contents.truncate(len);
            old - len
        };
        self.extents.lock().retain_mut(|e| {
            e.len = e.len.min((len as u64).saturating_sub(e.file_off));
            e.len > 0
        });
        if self.is_warm() {
            let mut used = self.fs.os_cache_used.lock();
            *used = used.saturating_sub(cut as u64);
        }
        if self.fs.mutation().is_some() {
            self.fs.capture(None);
        }
    }

    /// Reads `len` bytes at `offset`, charging DRAM (warm) or disk (cold):
    /// [`SimFile::peek`] plus the charge.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] when the range exceeds the file.
    pub fn read_at(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        let bytes = self.peek(offset, len)?;
        self.charge_read(offset, len);
        Ok(bytes)
    }

    /// Charges a read of `len` bytes at `offset` (in bounds): DRAM when
    /// the file is warm, otherwise the disk, per covering extent — a read
    /// spanning extents written at different times causes distinct disk
    /// accesses.
    pub(crate) fn charge_read(&self, offset: usize, len: usize) {
        if self.is_warm() {
            self.fs.platform.dram_access(len);
            return;
        }
        let (r_start, r_end) = (offset as u64, (offset + len) as u64);
        for e in self.extents.lock().iter() {
            let e_end = e.file_off + e.len;
            if e.file_off < r_end && r_start < e_end {
                let within = r_start.max(e.file_off) - e.file_off;
                let take = r_end.min(e_end) - r_start.max(e.file_off);
                self.fs.disk.read(e.disk_off + within, take as usize);
            }
        }
    }

    /// Flips bits at `offset` (XOR with `mask`) without charging costs.
    ///
    /// This is the adversary/fault-injection hook: the untrusted host can
    /// rewrite any byte it stores. Security tests corrupt SSTables and
    /// WALs through this and assert the enclave detects it. The next read
    /// sees the flip; bytes an earlier read returned do not change.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is past the end of the file.
    pub fn corrupt(&self, offset: usize, mask: u8) {
        let mut contents = self.contents.write();
        assert!(offset < contents.len(), "corrupt offset out of range");
        contents.flip(offset, mask);
    }

    /// The bytes `offset..offset + len`, charging nothing (used by
    /// [`crate::mmap`], which does its own fault accounting): a view of
    /// the chunk holding them, a copy only when they span chunks. A range
    /// reaching into the tail seals it first.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] when the range exceeds the file.
    pub fn peek(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        let end = offset.checked_add(len);
        let contents = self.contents.read();
        match end {
            Some(end) if end <= contents.sealed_len() => Ok(contents.view(offset, end)),
            Some(end) if end <= contents.len() => {
                drop(contents);
                let mut contents = self.contents.write();
                contents.seal();
                Ok(contents.view(offset, end))
            }
            _ => Err(FsError::OutOfBounds {
                name: self.name(),
                requested_end: offset.saturating_add(len),
                len: contents.len(),
            }),
        }
    }

    /// The platform this file charges costs to.
    pub fn fs_platform(&self) -> &Arc<Platform> {
        &self.fs.platform
    }
}

/// Where an armed filesystem loses power ([`SimFs::arm`]): op-indexed
/// fault injection for crash sweeps. It is test infrastructure — the
/// filesystem only keeps the crash image; the run goes on unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The op the power fails after, counting from one at arming.
    pub op: u64,
    /// When op `op` is an append, only its first half reaches the disk.
    pub torn: bool,
}

/// An armed [`FaultPlan`] — the mutation it fires at, counted from the
/// filesystem's creation — and, once that happened, the crash image.
#[derive(Debug)]
struct Crash {
    at: u64,
    torn: bool,
    image: Option<FsSnapshot>,
}

#[derive(Debug)]
struct SimFsInner {
    platform: Arc<Platform>,
    disk: Arc<SimDisk>,
    os_cache_limit: Mutex<u64>,
    os_cache_used: Mutex<u64>,
    /// Mutations so far, and the armed plan.
    mutations: AtomicU64,
    crash: Mutex<Option<Crash>>,
    /// The filesystem, for the crash image an append takes.
    fs: Weak<SimFs>,
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

    /// Releases the page-cache residency of a file that left the namespace.
    fn release(&self, file: &SimFile) {
        if file.is_warm() {
            let mut used = self.os_cache_used.lock();
            *used = used.saturating_sub(file.len() as u64);
        }
    }

    /// Counts one mutation: `Some(torn)` when it is the armed plan's op.
    fn mutation(&self) -> Option<bool> {
        let n = self.mutations.fetch_add(1, Ordering::SeqCst) + 1;
        self.crash.lock().as_ref().filter(|crash| crash.at == n).map(|crash| crash.torn)
    }

    /// Keeps what the disk holds now — and `torn`, the part of an append
    /// that reached the named file — as the crash image.
    fn capture(&self, torn: Option<(&str, &[u8])>) {
        let Some(fs) = self.fs.upgrade() else { return };
        let mut image = fs.snapshot();
        if let Some((name, prefix)) = torn {
            if let Some((_, contents)) = image.files.iter_mut().find(|(n, _)| n == name) {
                contents.append(prefix);
            }
        }
        if let Some(crash) = self.crash.lock().as_mut() {
            crash.image = Some(image);
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
        Arc::new_cyclic(|fs| SimFs {
            inner: Arc::new(SimFsInner {
                platform,
                disk,
                os_cache_limit: Mutex::new(u64::MAX),
                os_cache_used: Mutex::new(0),
                mutations: AtomicU64::new(0),
                crash: Mutex::new(None),
                fs: fs.clone(),
            }),
            files: RwLock::new(HashMap::new()),
        })
    }

    /// Mutations so far: creates, non-empty appends, truncates, renames and
    /// deletes (what a crash sweep counts).
    pub fn mutations(&self) -> u64 {
        self.inner.mutations.load(Ordering::SeqCst)
    }

    /// Arms `plan`, its op counted from the next mutation on. A plan armed
    /// before goes, with its image. The image is exact for a run that
    /// mutates from one thread; another thread's op may land in it.
    pub fn arm(&self, plan: FaultPlan) {
        let at = self.mutations() + plan.op;
        *self.inner.crash.lock() = Some(Crash { at, torn: plan.torn, image: None });
    }

    /// The image the armed plan kept, disarming it; `None` while its op
    /// has not happened (the plan stays armed).
    pub fn take_crash_image(&self) -> Option<FsSnapshot> {
        let mut crash = self.inner.crash.lock();
        let image = crash.as_mut()?.image.take()?;
        *crash = None;
        Some(image)
    }

    /// Counts a create, rename or delete that just happened.
    fn mutated(&self) {
        if self.inner.mutation().is_some() {
            self.inner.capture(None);
        }
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
        let file = {
            let mut files = self.files.write();
            if files.contains_key(name) {
                return Err(FsError::AlreadyExists(name.to_string()));
            }
            let file = Arc::new(SimFile {
                fs: self.inner.clone(),
                name: RwLock::new(name.to_string()),
                contents: RwLock::new(Contents::default()),
                extents: Mutex::new(Vec::new()),
                warm: AtomicBool::new(false),
            });
            files.insert(name.to_string(), file.clone());
            file
        };
        self.mutated();
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
        self.inner.release(&file);
        self.mutated();
        Ok(())
    }

    /// Renames a file, replacing any file of the new name in the same step
    /// (POSIX `rename`): a reader of `new` finds the old file or the
    /// renamed one, never neither.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if `old` is absent.
    pub fn rename(&self, old: &str, new: &str) -> Result<(), FsError> {
        {
            let mut files = self.files.write();
            let file = files.remove(old).ok_or_else(|| FsError::NotFound(old.to_string()))?;
            *file.name.write() = new.to_string();
            if let Some(replaced) = files.insert(new.to_string(), file) {
                self.inner.release(&replaced);
            }
        }
        self.mutated();
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
    /// "old but authentic version" for rollback attacks (§5.6.1). Sealed
    /// chunks are shared with the live files, which never write to them.
    pub fn snapshot(&self) -> FsSnapshot {
        let files = self.files.read();
        FsSnapshot {
            files: files
                .iter()
                .map(|(name, f)| (name.clone(), f.contents.read().clone()))
                .collect(),
        }
    }

    /// Replaces the filesystem contents with a snapshot (no cost charged —
    /// the adversary works offline).
    pub fn restore(&self, snapshot: &FsSnapshot) {
        let mut files = self.files.write();
        files.clear();
        for (name, contents) in &snapshot.files {
            let file = Arc::new(SimFile {
                fs: self.inner.clone(),
                name: RwLock::new(name.clone()),
                contents: RwLock::new(contents.clone()),
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
    files: Vec<(String, Contents)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::CostModel;

    impl SimFile {
        /// Marks the whole file resident in the OS page cache, charging one
        /// sequential scan (the paper's warm-up step).
        fn warm(&self) {
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
    fn truncate_cuts_chunks_and_tail_and_counts_one_mutation() {
        let fs = fs();
        let f = fs.create("log").unwrap();
        let big: Vec<u8> = (0..CHUNK + 10).map(|i| i as u8).collect();
        f.append(&big);
        f.append(b"tail");
        let view = f.read_at(0, CHUNK + 10).unwrap();
        let before = fs.mutations();
        f.truncate(CHUNK + 12);
        assert_eq!(fs.mutations(), before + 1);
        assert_eq!(f.len(), CHUNK + 12);
        assert_eq!(&f.read_at(CHUNK + 10, 2).unwrap()[..], b"ta");
        f.truncate(100);
        assert_eq!(&f.read_at(0, 100).unwrap()[..], &big[..100]);
        assert!(f.read_at(0, 101).is_err());
        assert_eq!(view[..], big[..], "a view read before keeps its bytes");
        f.append(b"after");
        assert_eq!(&f.read_at(100, 5).unwrap()[..], b"after");
        f.truncate(0);
        assert!(f.is_empty());
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
    fn rename_replaces_the_target() {
        let fs = fs();
        fs.create("a").unwrap().append(b"new");
        fs.create("b").unwrap().append(b"old!");
        fs.rename("a", "b").unwrap();
        assert_eq!(fs.list(), vec!["b"]);
        assert_eq!(&fs.open("b").unwrap().read_at(0, 3).unwrap()[..], b"new");
        assert!(matches!(fs.rename("a", "b"), Err(FsError::NotFound(_))));
    }

    /// An armed plan keeps the image after its op — for a torn append, with
    /// half the append — and the run goes on as if nothing happened.
    #[test]
    fn an_armed_plan_keeps_the_image_at_its_op() {
        let script = |fs: &SimFs| {
            fs.create("a").unwrap().append(b"0123");
            fs.create("b").unwrap();
            fs.rename("b", "a").unwrap();
            fs.open("a").unwrap().append(b"abcd");
            fs.delete("a").unwrap();
        };
        let fs = fs();
        script(&fs);
        assert_eq!(fs.mutations(), 6);
        let at = |op: u64, torn: bool| {
            let fs = self::fs();
            fs.arm(FaultPlan { op, torn });
            script(&fs);
            assert_eq!(fs.list(), Vec::<String>::new(), "the run went on");
            fs.restore(&fs.take_crash_image().expect("its op happened"));
            assert!(fs.take_crash_image().is_none(), "taking the image disarms");
            let mut names = fs.list();
            names.sort();
            let read = |name: String| {
                let file = fs.open(&name).unwrap();
                format!(
                    "{name}={}",
                    String::from_utf8(file.peek(0, file.len()).unwrap().to_vec()).unwrap()
                )
            };
            names.into_iter().map(read).collect::<Vec<_>>()
        };
        assert_eq!(at(1, false), ["a="]);
        assert_eq!(at(2, false), ["a=0123"]);
        assert_eq!(at(2, true), ["a=01"]);
        assert_eq!(at(3, true), ["a=0123", "b="], "a torn create is a create");
        assert_eq!(at(4, false), ["a="], "b replaced a");
        assert_eq!(at(5, true), ["a=ab"]);
        assert_eq!(at(5, false), ["a=abcd"]);
        assert_eq!(at(6, false), Vec::<String>::new());
        let fs = self::fs();
        fs.arm(FaultPlan { op: 7, torn: false });
        script(&fs);
        assert!(fs.take_crash_image().is_none(), "op 7 never happened");
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

    /// A block read is a view of the chunk its table write became, through
    /// `read_at` and through a mapping; only a read across two chunks is a
    /// copy.
    #[test]
    fn warm_block_reads_are_views_of_their_chunk() {
        let fs = fs();
        let f = fs.create("table").unwrap();
        f.append(&vec![7u8; CHUNK]);
        f.append(&vec![8u8; CHUNK]);
        assert!(f.is_warm());
        let chunk = f.peek(0, CHUNK).unwrap();
        assert!(f.read_at(4096, 4096).unwrap().shares_storage(&chunk));
        let mapped = crate::MmapFile::map(f.clone()).read(8192, 4096).unwrap();
        assert!(mapped.shares_storage(&chunk));
        let across = f.read_at(CHUNK - 10, 20).unwrap();
        assert!(!across.shares_storage(&chunk));
        assert_eq!(&across[..], &[[7u8; 10], [8u8; 10]].concat()[..]);
    }

    /// The host's flip reaches every later read — of a sealed chunk, of a
    /// tail sealed by a read, of a tail not yet sealed — and no bytes an
    /// earlier read returned.
    #[test]
    fn corrupt_shows_in_the_next_read_not_in_an_earlier_view() {
        let fs = fs();
        let f = fs.create("t").unwrap();
        f.append(&vec![0u8; CHUNK]);
        f.append(&[0u8; 100]);
        let in_chunk = f.read_at(10, 20).unwrap();
        let in_tail = f.read_at(CHUNK + 10, 20).unwrap();
        f.append(&[0u8; 100]);
        for offset in [15, CHUNK + 15, CHUNK + 150] {
            f.corrupt(offset, 0xff);
            assert_eq!(&f.read_at(offset - 1, 3).unwrap()[..], &[0, 0xff, 0], "at {offset}");
        }
        assert_eq!(&in_chunk[..], &[0u8; 20]);
        assert_eq!(&in_tail[..], &[0u8; 20]);
    }

    /// `dram_bytes`, `disk_bytes`, `disk_seeks` and `ocalls` of one script
    /// of appends, cold and warm reads, mapped faults and a warm-up are the
    /// values the copying file read at the commit before chunks.
    #[test]
    fn charges_of_a_fixed_script_are_unchanged() {
        let platform = Platform::new(CostModel::paper_defaults());
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let charges = || {
            let s = platform.stats();
            (s.dram_bytes, s.disk_bytes, s.disk_seeks, s.ocalls)
        };
        fs.set_os_cache_limit(0);
        let wal = fs.create("wal").unwrap();
        let table = fs.create("table").unwrap();
        for i in 0..40u8 {
            wal.append(&[i; 300]);
        }
        table.append(&vec![1u8; 70_000]);
        wal.append(&vec![9u8; 100_000]);
        table.append(&vec![2u8; 70_000]);
        table.append(&[3u8; 5_000]);
        let map = crate::MmapFile::map(table.clone());
        wal.read_at(0, 12_000).unwrap();
        wal.read_at(11_000, 2_000).unwrap();
        wal.read_at(0, wal.len()).unwrap();
        table.read_at(4096, 4096).unwrap();
        table.read_at(69_000, 4_000).unwrap();
        assert!(table.read_at(144_000, 2_000).is_err());
        map.read(100, 5000).unwrap();
        map.read(140_000, 3000).unwrap();
        map.read(100, 50).unwrap();
        assert!(map.read(144_000, 2_000).is_err());
        assert_eq!(charges(), (10_050, 405_024, 10, 0), "cold");
        fs.set_os_cache_limit(u64::MAX);
        table.warm();
        fs.delete("wal").unwrap();
        map.read(0, 10).unwrap();
        table.read_at(70_000, 70_000).unwrap();
        assert_eq!(charges(), (80_060, 550_024, 12, 0), "warm");
    }

    use proptest::prelude::*;

    proptest! {
        /// Random scripts of appends (tail-sized and chunk-sized), reads,
        /// flips, renames and snapshot / restore against a flat `Vec<u8>`
        /// per file: the same bytes and the same errors, and every view a
        /// read returned still holds what it was read with.
        #[test]
        fn files_read_like_flat_byte_vectors(
            script in prop::collection::vec((0u8..6, 0usize..3, any::<u32>(), any::<u8>()), 1..40),
        ) {
            const NAMES: [&str; 3] = ["f0", "f1", "f2"];
            let fs = fs();
            let mut model: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
            let mut snapshots = Vec::new();
            let mut views = Vec::new();
            for (op, file, x, y) in script {
                let name = NAMES[file].to_string();
                let len = model.get(&name).map_or(0, Vec::len);
                match op {
                    0 => {
                        let n = match y % 4 {
                            0 => 1 + x as usize % 300,
                            1 => 1 + x as usize % 5_000,
                            2 => CHUNK + x as usize % 5_000,
                            _ => CHUNK - 1 - x as usize % 64,
                        };
                        let bytes: Vec<u8> = (0..n).map(|i| (i as u32 ^ x) as u8).collect();
                        let f = fs.open(&name).or_else(|_| fs.create(&name)).unwrap();
                        f.append(&bytes);
                        model.entry(name).or_default().extend_from_slice(&bytes);
                    }
                    1 => {
                        let offset = x as usize % (len + 2);
                        let n = match y % 3 {
                            0 => y as usize * 97 % (len + 10),
                            1 => len.saturating_sub(offset),
                            _ => 4096,
                        };
                        let out_of_bounds = FsError::OutOfBounds {
                            name: name.clone(),
                            requested_end: offset + n,
                            len,
                        };
                        let want = match model.get(&name) {
                            None => Err(FsError::NotFound(name.clone())),
                            Some(data) => {
                                data.get(offset..offset + n).map(<[u8]>::to_vec).ok_or(out_of_bounds)
                            }
                        };
                        let got = fs.open(&name).and_then(|f| f.read_at(offset, n));
                        prop_assert_eq!(got.clone().map(|b| b.to_vec()), want.clone());
                        if let (Ok(view), Ok(bytes)) = (got, want) {
                            views.push((view, bytes));
                        }
                    }
                    2 if len > 0 => {
                        let offset = x as usize % len;
                        fs.open(&name).unwrap().corrupt(offset, y | 1);
                        model.get_mut(&name).unwrap()[offset] ^= y | 1;
                    }
                    3 => {
                        let to = NAMES[(file + 1 + y as usize % 2) % 3].to_string();
                        let want = if let Some(data) = model.remove(&name) {
                            model.insert(to.clone(), data);
                            Ok(())
                        } else {
                            Err(FsError::NotFound(name.clone()))
                        };
                        prop_assert_eq!(fs.rename(&name, &to), want);
                    }
                    4 => snapshots.push((fs.snapshot(), model.clone())),
                    5 if !snapshots.is_empty() => {
                        let (snapshot, at) = &snapshots[x as usize % snapshots.len()];
                        fs.restore(snapshot);
                        model = at.clone();
                    }
                    _ => {}
                }
            }
            let mut names = fs.list();
            names.sort();
            prop_assert_eq!(names, model.keys().cloned().collect::<Vec<_>>());
            for (name, data) in &model {
                let f = fs.open(name).unwrap();
                prop_assert_eq!(f.read_at(0, data.len()).unwrap().to_vec(), data.clone());
            }
            for (view, copy) in views {
                prop_assert_eq!(view.to_vec(), copy);
            }
        }
    }
}
