//! [`ycsb::KvDriver`] adapters for every system under test: one per
//! store API shape.
//!
//! Every adapter forwards [`ycsb::KvDriver::put_batch`] to its store's
//! real batch entry point, so fig10's batch-size sweeps measure each
//! system's actual write pipeline (one ECall + one WAL frame per batch for
//! the eLSM designs; honest per-record loops for the update-in-place
//! baselines, which have nothing to amortize).

use elsm::AuthenticatedKv;
use elsm_baselines::{EleosStore, MbtStore, ReplicatedUnsecured, ShardedUnsecured};
use lsm_store::{Db, WriteBatch};
use ycsb::KvDriver;

fn as_refs(items: &[(Vec<u8>, Vec<u8>)]) -> Vec<(&[u8], &[u8])> {
    items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect()
}

/// Driver over any authenticated store — `ElsmP2`, `ElsmP1`, a
/// `ShardedKv` cluster, a `ReplicationGroup` (writes go to the primary,
/// verified reads round-robin across the replicas). A read that fails
/// verification fails the run.
#[derive(Debug)]
pub struct Verified<S>(pub S);

impl<S: AuthenticatedKv> KvDriver for Verified<S> {
    fn put(&self, key: &[u8], value: &[u8]) {
        self.0.put(key, value).expect("put");
    }
    fn get(&self, key: &[u8]) -> bool {
        self.0.get(key).expect("get verifies").is_some()
    }
    fn scan(&self, from: &[u8], to: &[u8]) -> usize {
        self.0.scan(from, to).expect("scan verifies").len()
    }
    fn put_batch(&self, items: &[(Vec<u8>, Vec<u8>)]) {
        self.0.put_batch(&as_refs(items)).expect("put_batch");
    }
}

/// Driver over the unsecured LSM baselines — one bare [`Db`], a sharded
/// cluster, a replicated group — which share a `Result`-returning API
/// but no trait; each names its batch entry point.
#[derive(Debug)]
pub struct Unsecured<S>(pub S);

macro_rules! unsecured_driver {
    ($($store:ty => $put_batch:expr),*) => {$(
        impl KvDriver for Unsecured<$store> {
            fn put(&self, key: &[u8], value: &[u8]) {
                self.0.put(key, value).expect("unsecured put");
            }
            fn get(&self, key: &[u8]) -> bool {
                self.0.get(key).expect("unsecured get").is_some()
            }
            fn scan(&self, from: &[u8], to: &[u8]) -> usize {
                self.0.scan(from, to).expect("unsecured scan").len()
            }
            fn put_batch(&self, items: &[(Vec<u8>, Vec<u8>)]) {
                ($put_batch)(&self.0, &as_refs(items)).expect("unsecured put_batch");
            }
        }
    )*};
}
unsecured_driver!(
    Db => |db: &Db, items: &[(&[u8], &[u8])]| db.write_batch(WriteBatch::from_puts(items)),
    ShardedUnsecured => ShardedUnsecured::put_batch,
    ReplicatedUnsecured => ReplicatedUnsecured::put_batch
);

/// Driver over the update-in-place baselines, Eleos and the Merkle
/// B-tree store. Eleos puts beyond its capacity limit are dropped (the
/// paper stops Eleos' curves at 1 GB).
#[derive(Debug)]
pub struct InPlace<S>(pub S);

macro_rules! in_place_driver {
    ($($store:ty),*) => {$(
        impl KvDriver for InPlace<$store> {
            fn put(&self, key: &[u8], value: &[u8]) {
                let _ = self.0.put(key.to_vec(), value.to_vec());
            }
            fn get(&self, key: &[u8]) -> bool {
                self.0.get(key).is_some()
            }
            fn scan(&self, from: &[u8], to: &[u8]) -> usize {
                self.0.range(from, to).len()
            }
            fn put_batch(&self, items: &[(Vec<u8>, Vec<u8>)]) {
                let _ = self.0.put_batch(&as_refs(items));
            }
        }
    )*};
}
in_place_driver!(EleosStore, MbtStore);
