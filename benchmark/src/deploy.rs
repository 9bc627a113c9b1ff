//! The two deployments under test, opened through the public APIs only.

use std::sync::Arc;

use elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options};
use elsm_shard::{ShardedKv, ShardedOptions};
use lsm_store::{CompactionStrategyKind, VlogConfig, WalSyncPolicy};
use sgx_sim::Platform;
use sim_disk::SimFs;
use telemetry::Telemetry;

/// Shards of the cluster deployment.
pub const SHARDS: usize = 2;
/// Replicas behind each shard's primary.
pub const REPLICAS: usize = 1;

/// The store options every workload shares. Spelled out field by field so
/// that a later change of `P2Options::default()` cannot silently move the
/// benchmark.
pub fn store_options(cluster: bool, telemetry: Telemetry) -> P2Options {
    P2Options {
        write_buffer_bytes: 256 * 1024,
        level1_max_bytes: 1024 * 1024,
        target_file_bytes: 512 * 1024,
        level_multiplier: 10,
        bloom_bits_per_key: 10,
        compaction_enabled: true,
        compaction_strategy: CompactionStrategyKind::Leveled,
        compaction_parallelism: 1,
        wal_sync: WalSyncPolicy::Always,
        vlog: cluster.then(|| VlogConfig { value_threshold: 512, ..VlogConfig::default() }),
        verified_cache_bytes: if cluster { 8 * 1024 * 1024 } else { 0 },
        telemetry,
        ..P2Options::default()
    }
}

/// One opened deployment.
pub enum Deployment {
    Single(Box<ElsmP2>),
    Cluster(ShardedKv),
}

impl Deployment {
    /// Opens a fresh deployment on fresh platforms. `replicas` only
    /// matters for the cluster (the unreplicated twin passes 0).
    pub fn open(cluster: bool, replicas: usize, telemetry: Telemetry) -> Result<Self, ElsmError> {
        let options = store_options(cluster, telemetry);
        if cluster {
            let sharded = ShardedOptions::hash(SHARDS, options).with_replicas(replicas);
            Ok(Deployment::Cluster(ShardedKv::open(Platform::with_defaults(), sharded)?))
        } else {
            Ok(Deployment::Single(Box::new(ElsmP2::open(Platform::with_defaults(), options)?)))
        }
    }

    /// The interface the workload drives.
    pub fn kv(&self) -> &dyn AuthenticatedKv {
        match self {
            Deployment::Single(store) => store.as_ref(),
            Deployment::Cluster(cluster) => cluster,
        }
    }

    /// Visits every store of the deployment: the single store, or each
    /// shard's primary followed by its replicas.
    pub fn for_each_store(&self, mut f: impl FnMut(&ElsmP2)) {
        match self {
            Deployment::Single(store) => f(store),
            Deployment::Cluster(cluster) => {
                for shard in 0..cluster.shard_count() {
                    f(cluster.shard(shard));
                    if let Some(group) = cluster.replication_group(shard) {
                        for i in 0..group.replica_count() {
                            f(&group.replica_store(i));
                        }
                    }
                }
            }
        }
    }

    /// Every platform a request can spend virtual time on: the stores'
    /// and, for the cluster, the router's.
    pub fn platforms(&self) -> Vec<Arc<Platform>> {
        let mut out = Vec::new();
        self.for_each_store(|store| out.push(store.platform().clone()));
        if let Deployment::Cluster(cluster) = self {
            out.push(cluster.router_platform().clone());
        }
        out
    }

    /// Flushes every memtable (and, replicated, replays the marker).
    pub fn flush(&self) -> Result<(), ElsmError> {
        match self {
            Deployment::Single(store) => Ok(store.db().flush()?),
            Deployment::Cluster(cluster) => cluster.flush(),
        }
    }

    /// Seals enclave state for a restart.
    pub fn close(&self) -> Result<(), ElsmError> {
        match self {
            Deployment::Single(store) => store.close(),
            Deployment::Cluster(cluster) => cluster.close(),
        }
    }

    /// Re-opens a closed deployment from its primaries' filesystems. The
    /// cluster comes back unreplicated: the shard layer has no replica
    /// state transfer, so recovery of a replicated cluster is refused.
    pub fn reopen(self, telemetry: Telemetry) -> Result<Self, ElsmError> {
        match self {
            Deployment::Single(store) => {
                let (platform, fs) = (store.platform().clone(), store.fs().clone());
                drop(store);
                let options = store_options(false, telemetry);
                Ok(Deployment::Single(Box::new(ElsmP2::open_with(platform, fs, options, None)?)))
            }
            Deployment::Cluster(cluster) => {
                let filesystems: Vec<Arc<SimFs>> =
                    (0..cluster.shard_count()).map(|i| cluster.shard(i).fs().clone()).collect();
                let router = cluster.router_platform().clone();
                drop(cluster);
                let sharded = ShardedOptions::hash(SHARDS, store_options(true, telemetry));
                Ok(Deployment::Cluster(ShardedKv::open_with(router, filesystems, sharded)?))
            }
        }
    }
}
