//! One replication group: a primary, N replicas, and the shared fence.
//!
//! [`ReplicationGroup`] is the deployment unit the sharded router places
//! behind every partition: writes go to the primary (whose store ships
//! them to every replica channel before acknowledging), verified reads
//! are served by the replicas round-robin — that is the horizontal *read*
//! axis replication adds — and failover runs the fenced promotion
//! protocol of [`Replica::promote`].
//!
//! Each node lives on its own [`Platform`] (its own machine: enclave,
//! clock, filesystem), derived from the primary's cost model, so the
//! scheduler in `ycsb` can model replicas as independent machines.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use elsm::replication::SessionKey;
use elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options, VerifiedRecord};
use lsm_store::Timestamp;
use parking_lot::RwLock;
use sgx_sim::{FencingCounter, Platform};

use crate::channel::Channel;
use crate::primary::{Primary, ReplicationOptions};
use crate::replica::{FreshnessToken, Membership, Replica};

#[derive(Debug)]
struct Nodes {
    primary: Option<Primary>,
    replicas: Vec<Replica>,
}

/// A primary plus its replicas (see the module docs).
#[derive(Debug)]
pub struct ReplicationGroup {
    nodes: RwLock<Nodes>,
    fencing: Arc<FencingCounter>,
    key: SessionKey,
    options: ReplicationOptions,
    rr: AtomicUsize,
}

impl ReplicationGroup {
    /// Opens a fresh group: the primary on `platform`, each replica on
    /// its own platform with the same cost model and the **same store
    /// options** (replay determinism requires it). The fencing counter
    /// charges to the primary's platform.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open(
        platform: Arc<Platform>,
        store_options: P2Options,
        options: ReplicationOptions,
    ) -> Result<Self, ElsmError> {
        let fencing = FencingCounter::new(platform.clone());
        // Every group gets its own session key (a process-unique instance
        // id stands in for the per-group attested key exchange): two
        // coexisting groups must never share a key, or the host could
        // splice one group's authentic envelopes into another's channel.
        static GROUP_INSTANCE: AtomicU64 = AtomicU64::new(0);
        let instance = GROUP_INSTANCE.fetch_add(1, Ordering::Relaxed).to_le_bytes();
        let shard_tag = store_options.shard_id.unwrap_or(u32::MAX).to_le_bytes();
        let key =
            SessionKey::derive(&[b"replication group/", &shard_tag[..], &instance[..]].concat());
        let channels: Vec<Arc<Channel>> = (0..options.replicas).map(|_| Channel::new()).collect();
        // Every node reports into the caller's registry under its own
        // scope, so per-store series ("db.puts", "replica.lag_epochs")
        // never collide across the group's nodes.
        let primary_options = P2Options {
            telemetry: store_options.telemetry.scoped("primary"),
            ..store_options.clone()
        };
        let primary = Primary::open(
            platform.clone(),
            primary_options,
            &options,
            fencing.clone(),
            key.clone(),
            channels.clone(),
        )?;
        let generation = primary.generation();
        let replicas = channels
            .iter()
            .enumerate()
            .map(|(i, channel)| {
                let replica_options = P2Options {
                    telemetry: store_options.telemetry.scoped(&format!("replica{}", i + 1)),
                    ..store_options.clone()
                };
                Replica::open(
                    Platform::new(platform.cost().clone()),
                    replica_options,
                    channel.clone(),
                    Membership {
                        fencing: fencing.clone(),
                        key: key.clone(),
                        node: (i + 1) as u32,
                        generation,
                        max_lag_epochs: options.max_lag_epochs,
                    },
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ReplicationGroup {
            nodes: RwLock::new(Nodes { primary: Some(primary), replicas }),
            fencing,
            key,
            options,
            rr: AtomicUsize::new(0),
        })
    }

    /// The group's session key (tests and auditors sign/verify with it).
    pub fn session_key(&self) -> &SessionKey {
        &self.key
    }

    /// The shared fencing counter.
    pub fn fencing(&self) -> &Arc<FencingCounter> {
        &self.fencing
    }

    /// Number of replicas currently in the group.
    pub fn replica_count(&self) -> usize {
        self.nodes.read().replicas.len()
    }

    /// The acting primary's store.
    ///
    /// # Panics
    ///
    /// Panics when the primary was killed and nobody was promoted.
    pub fn primary_store(&self) -> Arc<ElsmP2> {
        self.nodes.read().primary.as_ref().expect("group has no primary").store().clone()
    }

    /// Replica `i`'s store (each on its own platform).
    pub fn replica_store(&self, i: usize) -> Arc<ElsmP2> {
        self.nodes.read().replicas[i].store().clone()
    }

    /// Replica `i`'s platform (the machine fig12's scheduler binds
    /// cores to).
    pub fn replica_platform(&self, i: usize) -> Arc<Platform> {
        self.nodes.read().replicas[i].store().platform().clone()
    }

    /// Runs `f` over replica `i` (tests reach channels and progress
    /// through this).
    pub fn with_replica<T>(&self, i: usize, f: impl FnOnce(&Replica) -> T) -> T {
        f(&self.nodes.read().replicas[i])
    }

    /// Drains and applies every replica's channel. Per-replica stream
    /// failures are sticky inside the replica and surface on its reads;
    /// IO errors propagate.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Io`] on replay IO failure.
    pub fn sync(&self) -> Result<(), ElsmError> {
        let nodes = self.nodes.read();
        for replica in &nodes.replicas {
            match replica.sync() {
                Ok(_) | Err(ElsmError::Verification(_)) => {}
                Err(error) => return Err(error),
            }
        }
        Ok(())
    }

    /// Flushes the primary (the marker replays on the replicas) and
    /// syncs.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn flush(&self) -> Result<(), ElsmError> {
        self.nodes.read().primary.as_ref().expect("group has no primary").store().db().flush()?;
        self.sync()
    }

    /// Binds the primary's current replication progress and dataset
    /// digest to the fencing counter (the periodic §5.6.1 write a later
    /// promotion is validated against).
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] when the primary was deposed.
    pub fn fence(&self) -> Result<(), ElsmError> {
        self.nodes.read().primary.as_ref().expect("group has no primary").fence()
    }

    /// Fences and seals every node — the clean-shutdown path.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or a deposed primary.
    pub fn close(&self) -> Result<(), ElsmError> {
        let nodes = self.nodes.read();
        if let Some(primary) = &nodes.primary {
            primary.close()?;
        }
        for replica in &nodes.replicas {
            replica.store().close()?;
        }
        Ok(())
    }

    /// Simulates a primary crash: the node is removed from the group and
    /// returned (a resurrection attempt is the returned handle writing
    /// again). Everything it shipped before dying stays queued in the
    /// replica channels.
    pub fn kill_primary(&self) -> Option<Primary> {
        self.nodes.write().primary.take()
    }

    /// Promotes replica `index` through the fenced protocol; on success
    /// it becomes the group's primary, shipping to the remaining
    /// replicas.
    ///
    /// # Errors
    ///
    /// See [`Replica::promote`]. On error the candidate is dropped from
    /// the group (its state is suspect by construction).
    pub fn promote(&self, index: usize) -> Result<(), ElsmError> {
        let mut nodes = self.nodes.write();
        assert!(nodes.primary.is_none(), "kill the primary before promoting");
        let candidate = nodes.replicas.remove(index);
        let peers = nodes.replicas.iter().map(|r| r.channel().clone()).collect();
        let primary = candidate.promote(&self.options, peers)?;
        nodes.primary = Some(primary);
        Ok(())
    }

    /// Round-robin pick of a healthy replica index, if any.
    fn pick_replica(&self, nodes: &Nodes) -> Option<usize> {
        let n = nodes.replicas.len();
        if n == 0 {
            return None;
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        (0..n).map(|k| (start + k) % n).find(|&i| nodes.replicas[i].failure().is_none())
    }

    /// Verified read with its freshness token: replicas round-robin,
    /// primary only when no healthy replica exists.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Verification`] on a stale or failed serving
    /// replica, or any ordinary read verification failure.
    pub fn get_with_token(
        &self,
        key: &[u8],
    ) -> Result<(Option<VerifiedRecord>, Option<FreshnessToken>), ElsmError> {
        let nodes = self.nodes.read();
        match self.pick_replica(&nodes) {
            Some(i) => {
                let (record, token) = nodes.replicas[i].get(key)?;
                Ok((record, Some(token)))
            }
            None => {
                let primary = nodes.primary.as_ref().expect("group has no node to read from");
                Ok((primary.get(key)?, None))
            }
        }
    }

    /// Verified scan with its freshness token, routed like
    /// [`ReplicationGroup::get_with_token`].
    ///
    /// # Errors
    ///
    /// See [`ReplicationGroup::get_with_token`].
    fn scan_with_token(
        &self,
        from: &[u8],
        to: &[u8],
    ) -> Result<(Vec<VerifiedRecord>, Option<FreshnessToken>), ElsmError> {
        let nodes = self.nodes.read();
        match self.pick_replica(&nodes) {
            Some(i) => {
                let (records, token) = nodes.replicas[i].scan(from, to)?;
                Ok((records, Some(token)))
            }
            None => {
                let primary = nodes.primary.as_ref().expect("group has no node to read from");
                Ok((primary.scan(from, to)?, None))
            }
        }
    }

    fn write_through<T>(
        &self,
        op: impl FnOnce(&Primary) -> Result<T, ElsmError>,
    ) -> Result<T, ElsmError> {
        let result = {
            let nodes = self.nodes.read();
            op(nodes.primary.as_ref().expect("group has no primary"))?
        };
        // Semi-synchronous replication: the frames are already in every
        // channel (shipped under the primary's write lock); draining here
        // keeps replicas read-your-writes fresh.
        self.sync()?;
        Ok(result)
    }
}

impl AuthenticatedKv for ReplicationGroup {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError> {
        self.write_through(|p| p.put(key, value))
    }

    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError> {
        self.write_through(|p| p.delete(key))
    }

    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError> {
        self.write_through(|p| p.put_batch(items))
    }

    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError> {
        self.write_through(|p| p.delete_batch(keys))
    }

    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        Ok(self.get_with_token(key)?.0)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        Ok(self.scan_with_token(from, to)?.0)
    }
}
