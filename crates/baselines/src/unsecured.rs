//! Unsecured reference configurations from the paper's figures.
//!
//! * [`UnsecuredLsm`] — plain LevelDB with no enclave at all: the "LevelDB
//!   (Unsecure)" line of Figure 5a.
//! * code-in-enclave / buffer-outside / **no authentication** — the
//!   "Buffer outside enclave (unsecured)" ideal line of Figures 2 and 6a —
//!   obtained with [`UnsecuredOptions::in_enclave`] set.

use std::sync::Arc;

use lsm_store::{Db, EnvConfig, Options, Record, StorageEnv, TableOptions};
use sgx_sim::Platform;
use sim_disk::{FsError, Placement, SimDisk, SimFs};

/// Configuration of an unsecured LSM store.
#[derive(Debug, Clone)]
pub struct UnsecuredOptions {
    /// Run the code inside the enclave (charges ECalls/OCalls) or fully
    /// outside.
    pub in_enclave: bool,
    /// Read SSTables through mmap.
    pub use_mmap: bool,
    /// Block cache capacity (untrusted memory).
    pub block_cache_bytes: usize,
    /// Memtable size triggering flushes.
    pub write_buffer_bytes: usize,
    /// Level-1 budget.
    pub level1_max_bytes: u64,
    /// Target file size.
    pub target_file_bytes: u64,
    /// Automatic compaction.
    pub compaction_enabled: bool,
    /// Key-value separation into a (plain, unauthenticated) value log —
    /// the apples-to-apples baseline for the separated eLSM
    /// configuration (`None` disables).
    pub vlog: Option<lsm_store::VlogConfig>,
}

impl Default for UnsecuredOptions {
    fn default() -> Self {
        UnsecuredOptions {
            in_enclave: false,
            use_mmap: true,
            block_cache_bytes: 512 * 1024,
            write_buffer_bytes: 64 * 1024,
            level1_max_bytes: 256 * 1024,
            target_file_bytes: 128 * 1024,
            compaction_enabled: true,
            vlog: None,
        }
    }
}

/// A vanilla LSM store with no authentication at all.
///
/// # Examples
///
/// ```
/// use elsm_baselines::{UnsecuredLsm, UnsecuredOptions};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), sim_disk::FsError> {
/// let store = UnsecuredLsm::open(Platform::with_defaults(), UnsecuredOptions::default())?;
/// store.put(b"k", b"v")?;
/// assert_eq!(&store.get(b"k")?.unwrap().value[..], b"v");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct UnsecuredLsm {
    platform: Arc<Platform>,
    db: Arc<Db>,
}

impl UnsecuredLsm {
    /// Opens a fresh unsecured store.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn open(platform: Arc<Platform>, options: UnsecuredOptions) -> Result<Self, FsError> {
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        Self::open_with(platform, fs, options)
    }

    /// Opens on an existing filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn open_with(
        platform: Arc<Platform>,
        fs: Arc<SimFs>,
        options: UnsecuredOptions,
    ) -> Result<Self, FsError> {
        let env = StorageEnv::new(
            platform.clone(),
            fs,
            EnvConfig {
                in_enclave: options.in_enclave,
                use_mmap: options.use_mmap,
                cache_placement: Placement::Untrusted,
                block_cache_bytes: if options.use_mmap { 0 } else { options.block_cache_bytes },
                block_slot_bytes: 8 * 1024,
                sealed_files: false,
            },
            None,
        );
        let db_options = Options {
            env: env.config().clone(),
            table: TableOptions::default(),
            write_buffer_bytes: options.write_buffer_bytes,
            target_file_bytes: options.target_file_bytes,
            level1_max_bytes: options.level1_max_bytes,
            compaction_enabled: options.compaction_enabled,
            keep_old_versions: true,
            vlog: options.vlog,
            ..Options::default()
        };
        let db = Arc::new(Db::open(env, db_options, None)?);
        Ok(UnsecuredLsm { platform, db })
    }

    /// The platform costs are charged against.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The wrapped store.
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }

    /// Writes a record.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<u64, FsError> {
        self.db.put(key, value)
    }

    /// Writes a whole batch through the store's group-commit pipeline
    /// (same surface as the authenticated stores, so write-batching
    /// comparisons stay fair).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<u64>, FsError> {
        let mut batch = lsm_store::WriteBatch::with_capacity(items.len());
        for (key, value) in items {
            batch.put(bytes::Bytes::copy_from_slice(key), bytes::Bytes::copy_from_slice(value));
        }
        self.db.write_batch(batch)
    }

    /// Reads a record.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>, FsError> {
        self.db.get(key)
    }

    /// Deletes a key.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn delete(&self, key: &[u8]) -> Result<u64, FsError> {
        self.db.delete(key)
    }

    /// Range query.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<Record>, FsError> {
        self.db.scan(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_no_enclave_traffic() {
        let s = UnsecuredLsm::open(Platform::with_defaults(), UnsecuredOptions::default()).unwrap();
        for i in 0..300 {
            s.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        s.db().flush().unwrap();
        for i in (0..300).step_by(17) {
            assert!(s.get(format!("k{i:04}").as_bytes()).unwrap().is_some());
        }
        let stats = s.platform().stats();
        assert_eq!(stats.ecalls + stats.ocalls, 0, "no enclave = no switches");
        assert_eq!(stats.epc_page_ins, 0);
    }

    #[test]
    fn store_shape_is_the_engine_default() {
        let s = UnsecuredLsm::open(Platform::with_defaults(), UnsecuredOptions::default()).unwrap();
        let (options, defaults) = (s.db().options(), Options::default());
        assert_eq!(options.level_multiplier, defaults.level_multiplier);
        assert_eq!(options.max_levels, defaults.max_levels);
        assert_eq!(options.table.block_size, TableOptions::default().block_size);
    }

    #[test]
    fn ideal_outside_config_switches_but_does_not_page() {
        let s = UnsecuredLsm::open(
            Platform::with_defaults(),
            UnsecuredOptions { in_enclave: true, use_mmap: false, ..UnsecuredOptions::default() },
        )
        .unwrap();
        for i in 0..300 {
            s.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        s.db().flush().unwrap();
        for i in 0..300 {
            s.get(format!("k{i:04}").as_bytes()).unwrap();
        }
        let stats = s.platform().stats();
        assert!(stats.ocalls > 0, "enclave code exits for file IO");
        // The read buffer lives outside: only the memtable region (small)
        // may page, so faults stay tiny.
        assert!(stats.epc_page_ins < 200, "buffer outside must not thrash: {}", stats.epc_page_ins);
    }

    #[test]
    fn unsecured_is_faster_than_everything_else_shape() {
        // Sanity for the figures: unsecured < ideal-outside in total cost.
        let run = |options: UnsecuredOptions| {
            let s = UnsecuredLsm::open(Platform::with_defaults(), options).unwrap();
            for i in 0..200 {
                s.put(format!("k{i:04}").as_bytes(), &[0u8; 64]).unwrap();
            }
            s.db().flush().unwrap();
            let t0 = s.platform().clock().now_ns();
            for i in 0..200 {
                s.get(format!("k{i:04}").as_bytes()).unwrap();
            }
            s.platform().clock().now_ns() - t0
        };
        let plain = run(UnsecuredOptions::default());
        let ideal = run(UnsecuredOptions { in_enclave: true, ..UnsecuredOptions::default() });
        assert!(plain <= ideal, "no-enclave must be at least as fast: {plain} vs {ideal}");
    }
}
