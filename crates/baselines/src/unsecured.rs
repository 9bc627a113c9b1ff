//! Unsecured reference configurations from the paper's figures.
//!
//! * [`open_unsecured`] — plain LevelDB with no enclave at all: the
//!   "LevelDB (Unsecure)" line of Figure 5a. The store is a bare
//!   [`Db`]: nothing sits between the caller and the engine.
//! * code-in-enclave / buffer-outside / **no authentication** — the
//!   "Buffer outside enclave (unsecured)" ideal line of Figures 2 and 6a —
//!   obtained with [`UnsecuredOptions::in_enclave`] set.

use std::sync::Arc;

use lsm_store::{Db, Options, ReadMode, StorageEnv, TableOptions};
use sgx_sim::Platform;
use sim_disk::{FsError, SimDisk, SimFs};

/// Configuration of an unsecured LSM store.
#[derive(Debug, Clone)]
pub struct UnsecuredOptions {
    /// Run the code inside the enclave (charges ECalls/OCalls) or fully
    /// outside.
    pub in_enclave: bool,
    /// Read path: mmap, or a block cache of the given size in untrusted
    /// memory.
    pub read_mode: ReadMode,
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
            read_mode: ReadMode::Mmap,
            write_buffer_bytes: 64 * 1024,
            level1_max_bytes: 256 * 1024,
            target_file_bytes: 128 * 1024,
            compaction_enabled: true,
            vlog: None,
        }
    }
}

/// Opens a fresh vanilla LSM store with no authentication at all, on a
/// new filesystem.
///
/// # Examples
///
/// ```
/// use elsm_baselines::{open_unsecured, UnsecuredOptions};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), sim_disk::FsError> {
/// let store = open_unsecured(Platform::with_defaults(), UnsecuredOptions::default())?;
/// store.put(b"k", b"v")?;
/// assert_eq!(&store.get(b"k")?.unwrap().value[..], b"v");
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`FsError`] on IO failure.
pub fn open_unsecured(platform: Arc<Platform>, options: UnsecuredOptions) -> Result<Db, FsError> {
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    open_unsecured_with(platform, fs, options)
}

/// [`open_unsecured`] on an existing filesystem.
///
/// # Errors
///
/// Returns [`FsError`] on IO failure.
pub fn open_unsecured_with(
    platform: Arc<Platform>,
    fs: Arc<SimFs>,
    options: UnsecuredOptions,
) -> Result<Db, FsError> {
    let env =
        StorageEnv::new(platform, fs, options.read_mode.env(options.in_enclave, 8 * 1024), None);
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
    Db::open(env, db_options, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_no_enclave_traffic() {
        let s = open_unsecured(Platform::with_defaults(), UnsecuredOptions::default()).unwrap();
        for i in 0..300 {
            s.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        s.flush().unwrap();
        for i in (0..300).step_by(17) {
            assert!(s.get(format!("k{i:04}").as_bytes()).unwrap().is_some());
        }
        let stats = s.env().platform().stats();
        assert_eq!(stats.ecalls + stats.ocalls, 0, "no enclave = no switches");
        assert_eq!(stats.epc_page_ins, 0);
    }

    #[test]
    fn store_shape_is_the_engine_default() {
        let s = open_unsecured(Platform::with_defaults(), UnsecuredOptions::default()).unwrap();
        let (options, defaults) = (s.options(), Options::default());
        assert_eq!(options.level_multiplier, defaults.level_multiplier);
        assert_eq!(options.max_levels, defaults.max_levels);
        assert_eq!(options.table.block_size, TableOptions::default().block_size);
    }

    #[test]
    fn ideal_outside_config_switches_but_does_not_page() {
        let s = open_unsecured(
            Platform::with_defaults(),
            UnsecuredOptions {
                in_enclave: true,
                read_mode: ReadMode::Buffer { cache_bytes: 512 * 1024 },
                ..UnsecuredOptions::default()
            },
        )
        .unwrap();
        for i in 0..300 {
            s.put(format!("k{i:04}").as_bytes(), b"v").unwrap();
        }
        s.flush().unwrap();
        for i in 0..300 {
            s.get(format!("k{i:04}").as_bytes()).unwrap();
        }
        let stats = s.env().platform().stats();
        assert!(stats.ocalls > 0, "enclave code exits for file IO");
        // The read buffer lives outside: only the memtable region (small)
        // may page, so faults stay tiny.
        assert!(stats.epc_page_ins < 200, "buffer outside must not thrash: {}", stats.epc_page_ins);
    }

    #[test]
    fn unsecured_is_faster_than_everything_else_shape() {
        // Sanity for the figures: unsecured < ideal-outside in total cost.
        let run = |options: UnsecuredOptions| {
            let s = open_unsecured(Platform::with_defaults(), options).unwrap();
            for i in 0..200 {
                s.put(format!("k{i:04}").as_bytes(), &[0u8; 64]).unwrap();
            }
            s.flush().unwrap();
            let t0 = s.env().platform().clock().now_ns();
            for i in 0..200 {
                s.get(format!("k{i:04}").as_bytes()).unwrap();
            }
            s.env().platform().clock().now_ns() - t0
        };
        let plain = run(UnsecuredOptions::default());
        let ideal = run(UnsecuredOptions { in_enclave: true, ..UnsecuredOptions::default() });
        assert!(plain <= ideal, "no-enclave must be at least as fast: {plain} vs {ideal}");
    }
}
