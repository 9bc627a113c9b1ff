//! The storage environment: where code runs, where buffers live, how files
//! are protected.
//!
//! One [`StorageEnv`] value captures a complete configuration from the
//! paper's design space (Table 1):
//!
//! | Configuration | `in_enclave` | cache placement | `use_mmap` | `sealed_files` |
//! |---|---|---|---|---|
//! | eLSM-P1 | yes | [`Placement::Enclave`] | no (impossible) | yes (SDK protection) |
//! | eLSM-P2 (buffer) | yes | [`Placement::Untrusted`] | no | no (Merkle proofs instead) |
//! | eLSM-P2 (mmap) | yes | — | yes | no |
//! | unsecured LevelDB | no | [`Placement::Untrusted`] | either | no |
//!
//! and what each of its files' IO crosses ([`MappedFile`]):
//!
//! | Configuration | WAL commit | value-log read | table write | table open |
//! |---|---|---|---|---|
//! | eLSM-P1 | one OCall per frame | one OCall per entry | one OCall per 64 KiB chunk | four OCalls |
//! | eLSM-P2 (buffer) | one OCall per frame | one OCall per entry | one OCall per 64 KiB chunk | four OCalls |
//! | eLSM-P2 (mmap) | copy into the log's mapping | read from the log's mapping | copy into the table's mapping | a new table: read from its mapping; an existing one: one OCall to map it |
//! | unsecured LevelDB | no world switch | no world switch | no world switch | no world switch |
//!
//! A mapped file leaves the enclave only to have the host map it or grow
//! its mapping — one OCall each, the mapping doubling — and the WAL's next
//! mapping rides the host call of the manifest written when the log
//! rotates. The manifest is written through the host, and file creates,
//! renames and deletes are the host's.
//!
//! Every file read/write routes through here so the right OCalls, copies,
//! paging and sealing costs are charged.

use std::sync::Arc;

use bytes::Bytes;
use sgx_sim::{Platform, Sealer};
use sim_disk::{BufferCache, FsError, MmapFile, Placement, SimFile, SimFs};

/// Behavioural configuration of the storage stack.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Whether the store's code executes inside the enclave (file IO then
    /// requires OCalls).
    pub in_enclave: bool,
    /// Reach files through mappings in untrusted memory ([`MappedFile`])
    /// instead of a host call per read or write. Incompatible with an
    /// enclave-placed cache.
    pub use_mmap: bool,
    /// Placement of the block cache.
    pub cache_placement: Placement,
    /// Block cache capacity in bytes; 0 disables the cache.
    pub block_cache_bytes: usize,
    /// Cache slot size; must be ≥ the block size plus sealing overhead.
    pub block_slot_bytes: usize,
    /// Seal file blocks with the enclave sealing key (eLSM-P1's
    /// file-granularity protection).
    pub sealed_files: bool,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            in_enclave: true,
            use_mmap: false,
            cache_placement: Placement::Untrusted,
            block_cache_bytes: 8 * 1024 * 1024,
            block_slot_bytes: 8 * 1024,
            sealed_files: false,
        }
    }
}

/// How a store whose tables sit in untrusted memory reads them (eLSM-P2
/// §5.5.1, Figure 6b, and the unsecured baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Map files into untrusted memory and dereference directly.
    Mmap,
    /// Read through a user-space block cache in untrusted memory.
    Buffer {
        /// Block-cache capacity in bytes (below one slot: no cache).
        cache_bytes: usize,
    },
}

impl ReadMode {
    /// The environment that reads this way, with its block cache (if any)
    /// in untrusted memory and no file sealing.
    pub fn env(self, in_enclave: bool, block_slot_bytes: usize) -> EnvConfig {
        let (use_mmap, block_cache_bytes) = match self {
            ReadMode::Mmap => (true, 0),
            ReadMode::Buffer { cache_bytes } => (false, cache_bytes),
        };
        EnvConfig {
            in_enclave,
            use_mmap,
            cache_placement: Placement::Untrusted,
            block_cache_bytes,
            block_slot_bytes,
            sealed_files: false,
        }
    }
}

/// A sub-allocation of the shared in-enclave metadata arena.
///
/// Table indexes and Bloom filters live in one contiguous enclave heap
/// (as they would in a real allocator) rather than each in their own
/// page-rounded region — page-granularity EPC pressure then matches the
/// unscaled system (DESIGN.md §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaSlice {
    offset: usize,
    len: usize,
}

/// The storage environment shared by a DB instance and its table readers.
#[derive(Debug)]
pub struct StorageEnv {
    platform: Arc<Platform>,
    fs: Arc<SimFs>,
    config: EnvConfig,
    cache: Option<BufferCache<(u64, u64)>>,
    sealer: Option<Sealer>,
    meta_arena: Option<sgx_sim::EnclaveRegion>,
    meta_cursor: std::sync::atomic::AtomicUsize,
}

impl StorageEnv {
    /// Creates an environment.
    ///
    /// # Panics
    ///
    /// Panics when `use_mmap` is combined with an enclave-placed cache:
    /// mmap'd files live in untrusted memory, which eLSM-P1 forbids (§6.3).
    pub fn new(
        platform: Arc<Platform>,
        fs: Arc<SimFs>,
        config: EnvConfig,
        sealer: Option<Sealer>,
    ) -> Arc<Self> {
        assert!(
            !(config.use_mmap && config.cache_placement == Placement::Enclave),
            "mmap reads are incompatible with an in-enclave buffer (eLSM-P1 cannot mmap)"
        );
        let cache =
            (config.block_cache_bytes >= config.block_slot_bytes && !config.use_mmap).then(|| {
                BufferCache::new(
                    platform.clone(),
                    config.cache_placement,
                    config.block_slot_bytes,
                    config.block_cache_bytes,
                )
            });
        // One shared enclave heap for all metadata; sized generously so
        // wrap-around aliasing stays rare.
        let meta_arena = config
            .in_enclave
            .then(|| platform.enclave_alloc(platform.cost().epc_bytes.max(4096) * 4));
        Arc::new(StorageEnv {
            platform,
            fs,
            config,
            cache,
            sealer,
            meta_arena,
            meta_cursor: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// The platform costs are charged to.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The simulated filesystem.
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.fs
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Block cache hit/miss counters, if a cache is configured.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| c.hit_stats())
    }

    /// Runs a host-side closure, charging an OCall when in enclave mode.
    pub fn host_call<T>(&self, f: impl FnOnce() -> T) -> T {
        if self.config.in_enclave {
            self.platform.ocall(f)
        } else {
            f()
        }
    }

    /// Appends to a file through the host (the manifest, and every file of
    /// a store that maps no files — see [`MappedFile::append`]): one OCall
    /// in enclave mode.
    pub fn append(&self, file: &SimFile, bytes: &[u8]) {
        self.append_then(file, bytes, || ());
    }

    /// [`StorageEnv::append`], running `also` in the same host call.
    pub(crate) fn append_then(&self, file: &SimFile, bytes: &[u8], also: impl FnOnce()) {
        self.host_call(|| {
            file.append(bytes);
            also();
        });
        if self.config.in_enclave {
            // The written bytes cross the boundary from enclave to host.
            self.platform.cross_copy(bytes.len());
        }
    }

    /// Reads a data block of `file`, applying (in order): the block cache
    /// on a miss of which [`MappedFile::read`] reads it (through the
    /// mapping where the file has one, else by a host call), and unsealing
    /// for protected files.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on out-of-range reads and
    /// [`FsError::OutOfBounds`]-mapped corruption for unsealing failures.
    pub fn read_block(
        &self,
        file_no: u64,
        file: &MappedFile,
        offset: usize,
        len: usize,
    ) -> Result<Bytes, FsError> {
        let raw = match &self.cache {
            Some(cache) => match cache.get(&(file_no, offset as u64)) {
                Some(data) => data,
                None => {
                    let data = file.read(offset, len)?;
                    cache.insert((file_no, offset as u64), data.clone());
                    data
                }
            },
            None => file.read(offset, len)?,
        };
        let file = file.file();
        if let Some(sealer) = self.sealer.as_ref().filter(|_| self.config.sealed_files) {
            // eLSM-P1: the SDK protected file system decrypts and verifies
            // each node inside the enclave. Charge the cryptographic work,
            // the copy into enclave memory, and one protected-FS metadata
            // node read (its own Merkle tree over the file; for multi-GB
            // file sets those nodes miss the SDK's cache).
            self.platform.charge_hash(raw.len() * 3);
            self.platform.cross_copy(raw.len() * 2);
            if file.len() >= 128 {
                let node_off = ((offset / 4096) * 64) % (file.len() - 64);
                let _ = self.host_call(|| file.read_at(node_off, 64));
            }
            let aad = seal_aad(file_no, offset);
            let blob = sgx_sim::SealedBlob::from_bytes(&raw).map_err(|_| FsError::OutOfBounds {
                name: file.name(),
                requested_end: offset + len,
                len: file.len(),
            })?;
            let plain = sealer.unseal(&aad, &blob).map_err(|_| FsError::OutOfBounds {
                name: file.name(),
                requested_end: offset + len,
                len: file.len(),
            })?;
            Ok(Bytes::from(plain))
        } else {
            Ok(raw)
        }
    }

    /// Transforms a block for writing: seals it when file protection is on
    /// (charging the cryptographic work), otherwise returns it as it is.
    pub fn prepare_block<'a>(
        &self,
        file_no: u64,
        offset: usize,
        block: &'a [u8],
    ) -> std::borrow::Cow<'a, [u8]> {
        match self.sealer.as_ref().filter(|_| self.config.sealed_files) {
            Some(sealer) => {
                self.platform.charge_hash(block.len());
                sealer.seal(&seal_aad(file_no, offset), block).to_bytes().into()
            }
            None => block.into(),
        }
    }

    /// Allocates `len` bytes of the shared in-enclave metadata heap when
    /// running in enclave mode (file indices, Bloom filters — the paper
    /// keeps them inside).
    pub fn metadata_region(&self, len: usize) -> Option<MetaSlice> {
        let arena = self.meta_arena.as_ref()?;
        let len = len.max(1).min(arena.len() / 2);
        let offset = self.meta_cursor.fetch_add(len, std::sync::atomic::Ordering::Relaxed)
            % (arena.len() - len);
        Some(MetaSlice { offset, len })
    }

    /// Models an access to in-enclave metadata at the given offsets, or an
    /// untrusted DRAM access outside the enclave.
    pub fn touch_metadata(
        &self,
        slice: Option<&MetaSlice>,
        offsets: impl IntoIterator<Item = (usize, usize)>,
    ) {
        match (slice, self.meta_arena.as_ref()) {
            (Some(s), Some(arena)) => {
                for (off, len) in offsets {
                    let off = off.min(s.len.saturating_sub(1));
                    let len = len.min(s.len - off).max(1);
                    self.platform.enclave_touch(arena, s.offset + off, len);
                }
            }
            _ => {
                for (_, len) in offsets {
                    self.platform.dram_access(len);
                }
            }
        }
    }
}

/// A file the store appends to and reads from inside the enclave: the
/// WAL, a value-log file, a table. Where the environment maps files
/// ([`EnvConfig::use_mmap`], eLSM-P2's default) it goes through one
/// mapping of the file in untrusted memory — the host creates the mapping
/// and grows it by doubling, one OCall each, and every append copies into
/// it and every read dereferences it without leaving the enclave.
/// Elsewhere (eLSM-P1's sealed files, P2 reading through a buffer) each
/// append and each read is one host call.
///
/// The mapping's tail past the written bytes is sparse: it holds no disk
/// blocks, and the file's length stays the bytes written. Clones share
/// the file and its mapping.
#[derive(Debug, Clone)]
pub struct MappedFile {
    env: Arc<StorageEnv>,
    file: Arc<SimFile>,
    /// The mapping, in a mapped environment: as long as the host mapped.
    map: Option<Arc<MmapFile>>,
    /// The first mapping's length.
    initial: usize,
}

impl MappedFile {
    /// A file written from its end, mapped by its first append at
    /// `initial` bytes or the doubling of them that holds the append.
    pub fn new(env: Arc<StorageEnv>, file: Arc<SimFile>, initial: usize) -> Self {
        let map = env.config.use_mmap.then(|| MmapFile::map_len(file.clone(), 0));
        MappedFile { env, file, map, initial }
    }

    /// An existing file, mapped whole now: one OCall in a mapped
    /// environment (the host's `fstat` and `mmap`), nothing elsewhere.
    pub fn open(env: Arc<StorageEnv>, file: Arc<SimFile>) -> Self {
        let map = env.config.use_mmap.then(|| env.host_call(|| MmapFile::map(file.clone())));
        MappedFile { env, file, map, initial: 0 }
    }

    /// The environment the file's IO is charged to.
    pub fn env(&self) -> &Arc<StorageEnv> {
        &self.env
    }

    /// The file.
    pub fn file(&self) -> &Arc<SimFile> {
        &self.file
    }

    /// The mapping, in a mapped environment.
    pub fn mapping(&self) -> Option<&Arc<MmapFile>> {
        self.map.as_ref()
    }

    /// Maps the file's first `initial` bytes now without an OCall of its
    /// own: the caller runs this inside a host call it makes anyway.
    pub(crate) fn map_in_host_call(&self) {
        if let Some(map) = &self.map {
            map.grow(self.initial);
        }
    }

    /// Appends `bytes`. Through the mapping, the enclave copies them
    /// across the boundary and does not leave — but to have the host map
    /// the file or double its mapping when they do not fit, one OCall;
    /// the kernel's writeback of the dirty pages is host time the enclave
    /// does not wait in an OCall for. Once the copy completes the bytes
    /// are on the host, as after a `write()`. Elsewhere, one host call.
    /// Either way the append is one filesystem mutation.
    pub fn append(&self, bytes: &[u8]) {
        let Some(map) = &self.map else {
            self.env.append(&self.file, bytes);
            return;
        };
        let end = self.file.len() + bytes.len();
        if end > map.len() {
            let len = doubled(map.len().max(self.initial), end);
            self.env.host_call(|| map.grow(len));
        }
        if self.env.config.in_enclave {
            self.env.platform.cross_copy(bytes.len());
        }
        let _writeback = sgx_sim::host_scope();
        self.file.append(bytes);
    }

    /// Reads `len` bytes at `offset`: through the mapping, what an SST
    /// read through it pays (DRAM when warm, a fault per cold page);
    /// elsewhere, one host call.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::OutOfBounds`] past the end of the mapping or of
    /// the file.
    pub fn read(&self, offset: usize, len: usize) -> Result<Bytes, FsError> {
        match &self.map {
            Some(map) => map.read(offset, len),
            None => self.env.host_call(|| self.file.read_at(offset, len)),
        }
    }
}

/// `len` (at least 1), doubled until it reaches `end`: how a mapping
/// grows.
pub(crate) fn doubled(len: usize, end: usize) -> usize {
    let mut len = len.max(1);
    while len < end {
        len = len.saturating_mul(2);
    }
    len
}

fn seal_aad(file_no: u64, offset: usize) -> Vec<u8> {
    let mut aad = Vec::with_capacity(16);
    aad.extend_from_slice(&file_no.to_be_bytes());
    aad.extend_from_slice(&(offset as u64).to_be_bytes());
    aad
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsm_crypto::sha256::sha256;
    use sgx_sim::CostModel;
    use sim_disk::SimDisk;

    fn env_with(config: EnvConfig) -> (Arc<StorageEnv>, Arc<SimFs>) {
        let platform = Platform::new(CostModel::paper_defaults());
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let sealer = Sealer::new(sha256(b"test enclave"), b"machine");
        (StorageEnv::new(platform, fs.clone(), config, Some(sealer)), fs)
    }

    #[test]
    fn enclave_reads_issue_ocalls_on_miss_only() {
        let (env, fs) = env_with(EnvConfig::default());
        let f = fs.create("t").unwrap();
        f.append(&vec![1u8; 8192]);
        let f = MappedFile::open(env.clone(), f);
        let ocalls0 = env.platform().stats().ocalls;
        env.read_block(1, &f, 0, 4096).unwrap();
        assert_eq!(env.platform().stats().ocalls, ocalls0 + 1, "miss needs an OCall");
        env.read_block(1, &f, 0, 4096).unwrap();
        assert_eq!(env.platform().stats().ocalls, ocalls0 + 1, "hit stays in enclave");
    }

    #[test]
    fn non_enclave_mode_never_switches() {
        let (env, fs) = env_with(EnvConfig { in_enclave: false, ..EnvConfig::default() });
        let f = fs.create("t").unwrap();
        f.append(&vec![1u8; 8192]);
        let f = MappedFile::open(env.clone(), f);
        env.read_block(1, &f, 0, 4096).unwrap();
        env.append(f.file(), b"more");
        let s = env.platform().stats();
        assert_eq!((s.ecalls, s.ocalls), (0, 0));
    }

    #[test]
    fn sealed_blocks_round_trip() {
        let (env, fs) = env_with(EnvConfig {
            sealed_files: true,
            block_cache_bytes: 0,
            ..EnvConfig::default()
        });
        let f = fs.create("t").unwrap();
        let sealed = env.prepare_block(9, 0, b"plain block");
        assert_ne!(&sealed[..], b"plain block");
        f.append(&sealed);
        let got = env.read_block(9, &MappedFile::open(env.clone(), f), 0, sealed.len()).unwrap();
        assert_eq!(&got[..], b"plain block");
    }

    #[test]
    fn sealed_block_wrong_location_rejected() {
        let (env, fs) = env_with(EnvConfig {
            sealed_files: true,
            block_cache_bytes: 0,
            ..EnvConfig::default()
        });
        let f = fs.create("t").unwrap();
        let sealed = env.prepare_block(9, 4096, b"block");
        f.append(&sealed);
        // Stored at offset 0 but sealed for offset 4096: swap detected.
        assert!(env.read_block(9, &MappedFile::open(env.clone(), f), 0, sealed.len()).is_err());
    }

    #[test]
    fn mmap_path_skips_ocalls() {
        let (env, fs) =
            env_with(EnvConfig { use_mmap: true, block_cache_bytes: 0, ..EnvConfig::default() });
        let f = fs.create("t").unwrap();
        f.append(&vec![7u8; 8192]);
        let f = MappedFile::open(env.clone(), f);
        let ocalls0 = env.platform().stats().ocalls;
        let got = env.read_block(1, &f, 100, 50).unwrap();
        assert_eq!(got, Bytes::from(vec![7u8; 50]));
        assert_eq!(env.platform().stats().ocalls, ocalls0);
    }

    #[test]
    fn mapped_appends_and_reads_stay_in_the_enclave() {
        let (env, fs) =
            env_with(EnvConfig { use_mmap: true, block_cache_bytes: 0, ..EnvConfig::default() });
        let f = MappedFile::new(env.clone(), fs.create("log").unwrap(), 2048);
        let p = env.platform().clone();
        let before = sgx_sim::thread_charges();
        p.ecall(|| f.append(&[5u8; 1024]));
        assert_eq!(sgx_sim::thread_charges().since(&before).ocalls, 1, "the first append maps");
        assert_eq!(f.mapping().unwrap().len(), 2048);
        let before = sgx_sim::thread_charges();
        let mutations = fs.mutations();
        p.ecall(|| f.append(&[6u8; 1024]));
        let d = sgx_sim::thread_charges().since(&before);
        assert_eq!((d.ecalls, d.ocalls, d.cross_copy_bytes), (1, 0, 1024));
        assert!(d.host_ns > 0, "writeback is host time");
        assert_eq!((f.file().len(), fs.mutations() - mutations), (2048, 1), "one append");
        p.ecall(|| f.append(&[7u8; 1]));
        assert_eq!(f.mapping().unwrap().len(), 4096, "the mapping doubles");
        let before = sgx_sim::thread_charges();
        let got = p.ecall(|| f.read(1000, 48)).unwrap();
        assert_eq!(&got[..], &[[5u8; 24], [6u8; 24]].concat()[..]);
        let d = sgx_sim::thread_charges().since(&before);
        assert_eq!((d.ecalls, d.ocalls), (1, 0), "a read dereferences the mapping");
        assert!(f.read(2049, 10).is_err(), "past the file");
        let reopened = p.ecall(|| MappedFile::open(env.clone(), f.file().clone()));
        assert_eq!(sgx_sim::thread_charges().since(&before).ocalls, 1, "an open maps the file");
        assert_eq!(reopened.mapping().unwrap().len(), 2049);
    }

    #[test]
    fn unmapped_files_leave_once_per_append_and_read() {
        let (env, fs) = env_with(EnvConfig { block_cache_bytes: 0, ..EnvConfig::default() });
        let f = MappedFile::new(env.clone(), fs.create("log").unwrap(), 2048);
        let ocalls0 = env.platform().stats().ocalls;
        f.append(&[1u8; 100]);
        f.append(&[2u8; 100]);
        assert_eq!(&f.read(90, 20).unwrap()[..], &[[1u8; 10], [2u8; 10]].concat()[..]);
        assert_eq!(env.platform().stats().ocalls - ocalls0, 3);
        assert!(f.mapping().is_none());
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn mmap_with_enclave_cache_rejected() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        StorageEnv::new(
            platform,
            fs,
            EnvConfig {
                use_mmap: true,
                cache_placement: Placement::Enclave,
                ..EnvConfig::default()
            },
            None,
        );
    }

    #[test]
    fn metadata_touch_in_and_out_of_enclave() {
        let (env, _) = env_with(EnvConfig::default());
        let region = env.metadata_region(8192);
        assert!(region.is_some());
        env.touch_metadata(region.as_ref(), [(0, 64), (4096, 64)]);
        assert!(env.platform().stats().epc_page_ins >= 2);

        let (env2, _) = env_with(EnvConfig { in_enclave: false, ..EnvConfig::default() });
        assert!(env2.metadata_region(8192).is_none());
        env2.touch_metadata(None, [(0, 64)]);
        assert_eq!(env2.platform().stats().epc_page_ins, 0);
    }
}
