//! The unsecured replicated counterpart of `elsm_replica::ReplicationGroup`.
//!
//! One primary plus N replica copies of the vanilla LSM store, each on
//! its own platform, with **no** enclaves, no channel authentication, no
//! announcements and no fencing: writes apply to the primary and replay
//! on every replica as plain puts; reads round-robin across the
//! replicas. This is the honest roofline for the replica-scaling figure —
//! it isolates what replicated read fan-out itself buys from what
//! per-replica verification costs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lsm_store::{Db, Record, WriteBatch};
use sgx_sim::Platform;
use sim_disk::FsError;

use crate::unsecured::{open_unsecured, UnsecuredOptions};

/// An unsecured primary with N unsecured read replicas.
///
/// # Examples
///
/// ```
/// use elsm_baselines::{ReplicatedUnsecured, UnsecuredOptions};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), sim_disk::FsError> {
/// let group = ReplicatedUnsecured::open(Platform::with_defaults(), 2, UnsecuredOptions::default())?;
/// group.put(b"k", b"v")?;
/// assert!(group.get(b"k")?.is_some()); // served by a replica
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReplicatedUnsecured {
    primary: Db,
    replicas: Vec<Db>,
    rr: AtomicUsize,
}

impl ReplicatedUnsecured {
    /// Opens a primary on `platform` and `replicas` replicas, each on its
    /// own platform with the same cost model.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn open(
        platform: Arc<Platform>,
        replicas: usize,
        options: UnsecuredOptions,
    ) -> Result<Self, FsError> {
        let primary = open_unsecured(platform.clone(), options.clone())?;
        let replicas = (0..replicas)
            .map(|_| open_unsecured(Platform::new(platform.cost().clone()), options.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReplicatedUnsecured { primary, replicas, rr: AtomicUsize::new(0) })
    }

    /// Replica `i`'s platform (its machine's clock).
    pub fn replica_platform(&self, i: usize) -> &Arc<Platform> {
        self.replicas[i].env().platform()
    }

    /// The primary's platform.
    pub fn primary_platform(&self) -> &Arc<Platform> {
        self.primary.env().platform()
    }

    fn read_node(&self) -> &Db {
        if self.replicas.is_empty() {
            return &self.primary;
        }
        &self.replicas[self.rr.fetch_add(1, Ordering::Relaxed) % self.replicas.len()]
    }

    /// Writes to the primary and replays on every replica (the unsecured
    /// stand-in for WAL shipping).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<u64, FsError> {
        let ts = self.primary.put(key, value)?;
        for replica in &self.replicas {
            replica.put(key, value)?;
        }
        Ok(ts)
    }

    /// Batch write, replayed on every replica.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<u64>, FsError> {
        let ts = self.primary.write_batch(WriteBatch::from_puts(items))?;
        for replica in &self.replicas {
            replica.write_batch(WriteBatch::from_puts(items))?;
        }
        Ok(ts)
    }

    /// Point read served by the next replica round-robin.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>, FsError> {
        self.read_node().get(key)
    }

    /// Range read served by the next replica round-robin.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<Record>, FsError> {
        self.read_node().scan(from, to)
    }

    /// Flushes every node.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn flush(&self) -> Result<(), FsError> {
        self.primary.flush()?;
        for replica in &self.replicas {
            replica.flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_serve_reads_round_robin() {
        let group =
            ReplicatedUnsecured::open(Platform::with_defaults(), 2, UnsecuredOptions::default())
                .unwrap();
        for i in 0..100u32 {
            group.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        group.flush().unwrap();
        let before: Vec<u64> = (0..2).map(|i| group.replica_platform(i).clock().now_ns()).collect();
        for i in 0..50u32 {
            assert!(group.get(format!("k{i:03}").as_bytes()).unwrap().is_some());
        }
        for (i, &t0) in before.iter().enumerate() {
            assert!(group.replica_platform(i).clock().now_ns() > t0, "replica {i} served no reads");
        }
        assert_eq!(group.scan(b"k000", b"k999").unwrap().len(), 100);
    }
}
