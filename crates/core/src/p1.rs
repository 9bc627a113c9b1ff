//! eLSM-P1: the strawman design (§4).
//!
//! The entire store — code *and* data — lives inside the enclave: the read
//! buffer is enclave memory (suffering EPC paging beyond 128 MB), and
//! SSTable/WAL files outside the enclave are protected at *file
//! granularity* by SDK-style sealing (Table 1). There is no Merkle forest:
//! integrity comes from hardware memory protection plus authenticated
//! encryption of every file block.

use std::sync::Arc;

use lsm_store::{Db, EnvConfig, Options, StorageEnv, TableOptions, Timestamp, ValueKind};
use sgx_sim::{Platform, Sealer};
use sim_disk::{Placement, SimDisk, SimFs};

use crate::api::{AuthenticatedKv, VerifiedRecord};
use crate::error::{ElsmError, VerificationFailure};

/// Configuration of an eLSM-P1 store.
#[derive(Debug, Clone)]
pub struct P1Options {
    /// In-enclave read-buffer capacity (the paging-sensitive knob of
    /// Figures 2 and 6c).
    pub buffer_bytes: usize,
    /// Memtable size triggering a flush.
    pub write_buffer_bytes: usize,
    /// Level-1 size budget.
    pub level1_max_bytes: u64,
    /// Target SSTable file size.
    pub target_file_bytes: u64,
    /// Automatic compaction.
    pub compaction_enabled: bool,
}

impl Default for P1Options {
    fn default() -> Self {
        P1Options {
            buffer_bytes: 512 * 1024,
            write_buffer_bytes: 64 * 1024,
            level1_max_bytes: 256 * 1024,
            target_file_bytes: 128 * 1024,
            compaction_enabled: true,
        }
    }
}

/// The eLSM-P1 store: everything in the enclave, files sealed.
///
/// # Examples
///
/// ```
/// use elsm::{AuthenticatedKv, ElsmP1, P1Options};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), elsm::ElsmError> {
/// let store = ElsmP1::open(Platform::with_defaults(), P1Options::default())?;
/// store.put(b"k", b"v")?;
/// assert_eq!(store.get(b"k")?.unwrap().value(), b"v");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ElsmP1 {
    platform: Arc<Platform>,
    fs: Arc<SimFs>,
    db: Arc<Db>,
}

impl ElsmP1 {
    /// Opens a fresh store on a new simulated filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open(platform: Arc<Platform>, options: P1Options) -> Result<Self, ElsmError> {
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        Self::open_with(platform, fs, options)
    }

    /// Opens (or recovers) a store on an existing filesystem.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure; tampered sealed blocks surface
    /// as IO errors on access (the SDK's authenticated decryption fails).
    pub fn open_with(
        platform: Arc<Platform>,
        fs: Arc<SimFs>,
        options: P1Options,
    ) -> Result<Self, ElsmError> {
        let sealer = Sealer::new(elsm_crypto::sha256(b"elsm-p1 enclave v1"), b"machine-0");
        let env = StorageEnv::new(
            platform.clone(),
            fs.clone(),
            EnvConfig {
                in_enclave: true,
                use_mmap: false, // P1 cannot mmap: data must stay inside (§6.3)
                cache_placement: Placement::Enclave,
                block_cache_bytes: options.buffer_bytes,
                block_slot_bytes: TableOptions::default().block_size * 2 + 64,
                sealed_files: true,
            },
            Some(sealer),
        );
        let db_options = Options {
            env: env.config().clone(),
            write_buffer_bytes: options.write_buffer_bytes,
            target_file_bytes: options.target_file_bytes,
            level1_max_bytes: options.level1_max_bytes,
            compaction_enabled: options.compaction_enabled,
            keep_old_versions: true,
            ..Options::default()
        };
        let db = Arc::new(Db::open(env, db_options, None)?);
        Ok(ElsmP1 { platform, fs, db })
    }

    /// The platform this store charges against.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// The simulated filesystem (for adversary tests).
    pub fn fs(&self) -> &Arc<SimFs> {
        &self.fs
    }

    /// The underlying store (for benchmarks).
    pub fn db(&self) -> &Arc<Db> {
        &self.db
    }
}

impl AuthenticatedKv for ElsmP1 {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError> {
        Ok(self.platform.ecall_with_payload(key.len() + value.len(), || self.db.put(key, value))?)
    }

    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError> {
        Ok(self.platform.ecall_with_payload(key.len(), || self.db.delete(key))?)
    }

    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // One enclave transition per batch; the store group-commits the
        // whole frame (P1's write buffer lives in enclave memory, so the
        // saved transitions are the whole win here). P1 stores bare
        // values, so the batch's payload is exactly the marshalled bytes.
        let batch = lsm_store::WriteBatch::from_puts(items);
        Ok(self
            .platform
            .ecall_with_payload(batch.payload_bytes(), || self.db.write_batch(batch))?)
    }

    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = lsm_store::WriteBatch::with_capacity(keys.len());
        for key in keys {
            batch.delete(bytes::Bytes::copy_from_slice(key));
        }
        Ok(self
            .platform
            .ecall_with_payload(batch.payload_bytes(), || self.db.write_batch(batch))?)
    }

    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        let result = self.platform.ecall(|| self.db.get(key));
        match result {
            Ok(Some(r)) => {
                debug_assert_eq!(r.kind, ValueKind::Put);
                Ok(Some(VerifiedRecord::new(r.key.clone(), r.value.clone(), r.ts, 0, 0)))
            }
            Ok(None) => Ok(None),
            // Sealed-block authentication failure = detected tampering.
            Err(e) if unseal_failure(&e) => {
                Err(ElsmError::Verification(VerificationFailure::ForgedRecord {
                    level: 0,
                    source: merkle::VerifyError::BadAuditPath,
                }))
            }
            Err(e) => Err(ElsmError::Io(e)),
        }
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        let records = self.platform.ecall(|| self.db.scan(from, to))?;
        Ok(records
            .into_iter()
            .map(|r| VerifiedRecord::new(r.key.clone(), r.value.clone(), r.ts, 0, 0))
            .collect())
    }
}

/// Distinguishes "authentication failed" IO errors (unsealing rejected a
/// tampered block) from plain missing-file errors.
fn unseal_failure(e: &sim_disk::FsError) -> bool {
    matches!(e, sim_disk::FsError::OutOfBounds { .. })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ElsmP1 {
        ElsmP1::open(
            Platform::with_defaults(),
            P1Options {
                write_buffer_bytes: 4 * 1024,
                level1_max_bytes: 16 * 1024,
                ..P1Options::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn store_shape_is_the_engine_default() {
        let opened = store();
        let (options, defaults) = (opened.db().options(), Options::default());
        assert_eq!(options.level_multiplier, defaults.level_multiplier);
        assert_eq!(options.max_levels, defaults.max_levels);
        assert_eq!(options.table.block_size, TableOptions::default().block_size);
        assert_eq!(options.table.bloom_bits_per_key, TableOptions::default().bloom_bits_per_key);
    }

    #[test]
    fn put_get_round_trip() {
        let s = store();
        s.put(b"a", b"1").unwrap();
        assert_eq!(s.get(b"a").unwrap().unwrap().value(), b"1");
        assert!(s.get(b"b").unwrap().is_none());
    }

    #[test]
    fn data_on_disk_is_sealed() {
        let s = store();
        for i in 0..300 {
            s.put(format!("key{i:04}").as_bytes(), b"secret-value").unwrap();
        }
        s.db().flush().unwrap();
        // No SSTable file may contain the plaintext value.
        for name in s.fs().list() {
            if !name.ends_with(".sst") {
                continue;
            }
            let f = s.fs().open(&name).unwrap();
            let bytes = f.peek(0, f.len()).unwrap();
            assert!(
                !bytes.windows(12).any(|w| w == b"secret-value"),
                "plaintext leaked into {name}"
            );
        }
    }

    #[test]
    fn tampered_sstable_detected() {
        let s = store();
        for i in 0..300 {
            s.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
        }
        s.db().flush().unwrap();
        // Corrupt the first data block of some SSTable.
        let sst = s.fs().list().into_iter().find(|n| n.ends_with(".sst")).expect("an sstable");
        s.fs().open(&sst).unwrap().corrupt(40, 0xff);
        // Some read must hit the corrupt block and fail authentication.
        let mut detected = false;
        for i in 0..300 {
            if s.get(format!("key{i:04}").as_bytes()).is_err() {
                detected = true;
                break;
            }
        }
        assert!(detected, "corruption must be detected by unsealing");
    }

    #[test]
    fn reads_use_enclave_buffer() {
        let s = store();
        for i in 0..300 {
            s.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
        }
        s.db().flush().unwrap();
        for i in 0..300 {
            s.get(format!("key{i:04}").as_bytes()).unwrap();
        }
        let stats = s.platform().stats();
        assert!(stats.epc_page_ins > 0, "P1 reads must touch the EPC");
        assert!(stats.cross_copy_bytes > 0, "fills cross the boundary");
    }

    #[test]
    fn deletes_work() {
        let s = store();
        s.put(b"k", b"v").unwrap();
        s.delete(b"k").unwrap();
        assert!(s.get(b"k").unwrap().is_none());
    }

    #[test]
    fn scan_returns_sorted_live_records() {
        let s = store();
        s.put(b"c", b"3").unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.delete(b"b").unwrap();
        let got = s.scan(b"a", b"z").unwrap();
        let keys: Vec<&[u8]> = got.iter().map(|r| r.key()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"c".as_slice()]);
    }
}
