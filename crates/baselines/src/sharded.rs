//! The unsecured sharded counterpart of `elsm_shard::ShardedKv`.
//!
//! N vanilla LSM partitions behind the same deterministic partitioner,
//! with **no** enclaves, no verification and no stitching checks — the
//! honest roofline for the shard-scaling figure: it isolates what the
//! partitioned deployment itself buys from what authentication costs at
//! each shard.

use std::sync::Arc;

use elsm_shard::Partitioner;
use lsm_store::{Db, Record, WriteBatch};
use sgx_sim::Platform;
use sim_disk::FsError;

use crate::unsecured::{open_unsecured, UnsecuredOptions};

/// A sharded, unsecured LSM cluster.
///
/// # Examples
///
/// ```
/// use elsm_baselines::{ShardedUnsecured, UnsecuredOptions};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), sim_disk::FsError> {
/// let cluster =
///     ShardedUnsecured::open(Platform::with_defaults(), 2, UnsecuredOptions::default())?;
/// cluster.put(b"k", b"v")?;
/// assert!(cluster.get(b"k")?.is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedUnsecured {
    router: Arc<Platform>,
    partitioner: Partitioner,
    shards: Vec<Db>,
}

impl ShardedUnsecured {
    /// Opens a fresh cluster of `shards` hash-partitioned shards: one
    /// platform and filesystem per shard.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn open(
        router: Arc<Platform>,
        shards: usize,
        options: UnsecuredOptions,
    ) -> Result<Self, FsError> {
        let partitioner = Partitioner::new(shards);
        let shards = (0..partitioner.shards())
            .map(|_| open_unsecured(Platform::new(router.cost().clone()), options.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedUnsecured { router, partitioner, shards })
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.partitioner.shard_of(key)
    }

    /// The router's platform.
    pub fn router_platform(&self) -> &Arc<Platform> {
        &self.router
    }

    /// Shard `i`'s store.
    pub fn shard(&self, i: usize) -> &Db {
        &self.shards[i]
    }

    /// Shard `i`'s platform.
    pub fn shard_platform(&self, i: usize) -> &Arc<Platform> {
        self.shards[i].env().platform()
    }

    /// Flushes every shard's memtable.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn flush(&self) -> Result<(), FsError> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    fn charge_route(&self, key: &[u8]) {
        // Same router work as the authenticated cluster: the comparison
        // must not hand the unsecured side a free partitioner.
        self.router.charge_hash(key.len());
    }

    /// Writes a record to the owning shard.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<u64, FsError> {
        self.charge_route(key);
        self.shards[self.shard_of(key)].put(key, value)
    }

    /// Writes a whole batch, split per owning shard (one group commit per
    /// shard per batch); returns timestamps in the caller's order.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<u64>, FsError> {
        for (key, _) in items {
            self.charge_route(key);
        }
        let per_shard = self.partitioner.split_indices(items.iter().map(|(key, _)| *key));
        elsm_shard::stitch::run_sharded_batches(&per_shard, items.len(), |shard, indexes| {
            let sub: Vec<(&[u8], &[u8])> = indexes.iter().map(|&i| items[i]).collect();
            self.shards[shard].write_batch(WriteBatch::from_puts(&sub))
        })
    }

    /// Reads a record from the owning shard.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn get(&self, key: &[u8]) -> Result<Option<Record>, FsError> {
        self.charge_route(key);
        self.shards[self.shard_of(key)].get(key)
    }

    /// Range query stitched across shards into one key-ordered result by
    /// a k-way merge.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO failure.
    pub fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<Record>, FsError> {
        let segments =
            self.shards.iter().map(|shard| shard.scan(from, to)).collect::<Result<Vec<_>, _>>()?;
        let bytes: usize = segments.iter().flatten().map(|r| r.key.len() + r.value.len()).sum();
        self.router.dram_access(bytes);
        Ok(elsm_shard::stitch::merge_by_key(segments, |r| &r.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_round_trip_and_ordered_scan() {
        let cluster =
            ShardedUnsecured::open(Platform::with_defaults(), 3, UnsecuredOptions::default())
                .unwrap();
        for i in 0..200u32 {
            cluster.put(format!("k{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        cluster.flush().unwrap();
        for i in (0..200).step_by(13) {
            assert!(cluster.get(format!("k{i:04}").as_bytes()).unwrap().is_some());
        }
        let all = cluster.scan(b"k0000", b"k9999").unwrap();
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].key < w[1].key), "merged scan must be ordered");
        // Data actually spread across shards.
        let occupied =
            (0..3).filter(|&i| !cluster.shard(i).scan(b"k0000", b"k9999").unwrap().is_empty());
        assert_eq!(occupied.count(), 3);
    }
}
