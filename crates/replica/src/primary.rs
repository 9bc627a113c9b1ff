//! The primary node: an eLSM-P2 store that ships its write path.
//!
//! A [`Primary`] wraps a store whose [`lsm_store::ReplicationSink`] seam
//! broadcasts every committed WAL batch frame, every flush/compaction
//! marker and a **signed announcement for every version install** to the
//! group's replica channels — the shipment happens under the store's
//! write lock, so an acknowledged write's frame is in every channel
//! before the writer's call returns (that is the zero-acknowledged-loss
//! invariant failover relies on).
//!
//! Leadership is fenced by the group's [`FencingCounter`] (§5.6.1 applied
//! to failover): the primary holds the generation it claimed at
//! open/promotion, re-checks it against the hardware every
//! [`ReplicationOptions::leader_check_interval`] writes, and binds its
//! replication progress + dataset digest with [`Primary::fence`] — the
//! record a later promotion is validated against.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use elsm::replication::{Announcement, SessionKey};
use elsm::{
    AuthenticatedKv, ElsmError, ElsmP2, P2Options, TrustedState, VerificationFailure,
    VerifiedRecord,
};
use lsm_store::{ReplicationEvent, ReplicationSink, Timestamp};
use parking_lot::Mutex;
use sgx_sim::{FencingCounter, Platform};
use telemetry::TraceContext;

use crate::channel::Channel;
use crate::wire::{encode_event, encode_frame_event, WireEvent};

/// Configuration of one replication group.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationOptions {
    /// Number of replicas behind the primary.
    pub replicas: usize,
    /// Freshness bound: a replica refuses reads once it lags the
    /// primary's last known epoch by more than this many epochs
    /// ([`VerificationFailure::ReplicaStale`]).
    pub max_lag_epochs: u64,
    /// Writes between the primary's hardware checks of its own
    /// generation. Counter reads are slow (the same §5.6.1 argument that
    /// buffers counter *writes*), so the check amortizes — at the cost
    /// of a bounded window: a deposed primary can locally acknowledge up
    /// to this many writes before noticing its fencing. Replicas drop
    /// its shipments once the new primary's promotion record reaches
    /// their channel; shipments that land in the gap between the
    /// hardware generation bump and that record still replicate (the
    /// classic asynchronous-fencing window — closing it entirely would
    /// take a hardware read per applied event).
    pub leader_check_interval: u64,
}

impl Default for ReplicationOptions {
    fn default() -> Self {
        ReplicationOptions { replicas: 1, max_lag_epochs: 4, leader_check_interval: 128 }
    }
}

/// The [`ReplicationSink`] broadcasting a store's event stream to the
/// group's channels.
#[derive(Debug)]
pub(crate) struct Shipper {
    platform: Arc<Platform>,
    trusted: Arc<TrustedState>,
    key: SessionKey,
    node: u32,
    generation: AtomicU64,
    channels: Mutex<Vec<Arc<Channel>>>,
    events: AtomicU64,
}

impl Shipper {
    pub(crate) fn new(
        platform: Arc<Platform>,
        trusted: Arc<TrustedState>,
        key: SessionKey,
        node: u32,
        generation: u64,
        channels: Vec<Arc<Channel>>,
        events_shipped: u64,
    ) -> Arc<Self> {
        Arc::new(Shipper {
            platform,
            trusted,
            key,
            node,
            generation: AtomicU64::new(generation),
            channels: Mutex::new(channels),
            events: AtomicU64::new(events_shipped),
        })
    }

    /// Total events shipped — the group's replication *progress*, the
    /// quantity the fencing counter binds.
    pub(crate) fn events_shipped(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    fn broadcast(&self, event: &WireEvent) {
        self.ship(|generation, trace| encode_event(generation, trace, event));
    }

    /// Sends the payload `encode` builds from this primary's generation
    /// and the sender's trace context to every channel.
    fn ship(&self, encode: impl FnOnce(u64, TraceContext) -> Vec<u8>) {
        // Stamp the sender's innermost active trace span (the group-commit
        // span when a Frame is emitted under the write lock) so replica
        // replay joins the primary's trace tree. Always 16 bytes — NONE
        // when untraced — so envelope sizes and per-byte charges never
        // depend on whether tracing is enabled.
        let trace = telemetry::trace::current_context();
        let payload = encode(self.generation.load(Ordering::SeqCst), trace);
        self.events.fetch_add(1, Ordering::SeqCst);
        let channels = self.channels.lock();
        // This runs under the store's write lock: clone for all but the
        // last channel, which takes the buffer itself.
        if let Some((last, rest)) = channels.split_last() {
            for channel in rest {
                channel.send(&self.platform, &self.key, payload.clone());
            }
            last.send(&self.platform, &self.key, payload);
        }
    }

    /// Ships the promotion record itself (the first event of a new
    /// generation).
    pub(crate) fn ship_promotion(&self) {
        self.broadcast(&WireEvent::Promote);
    }
}

impl ReplicationSink for Shipper {
    fn on_event(&self, event: ReplicationEvent<'_>) {
        match event {
            ReplicationEvent::Frame { records } => {
                self.ship(|generation, trace| encode_frame_event(generation, trace, records));
            }
            ReplicationEvent::Flush => self.broadcast(&WireEvent::Flush),
            ReplicationEvent::Compact { job } => {
                self.broadcast(&WireEvent::Compact(job.clone()));
            }
            ReplicationEvent::VlogGc { gc } => {
                self.broadcast(&WireEvent::VlogGc(gc.clone()));
            }
            ReplicationEvent::Install { epoch } => {
                // Sign the installing epoch's commitment snapshot — it
                // was published just before this event fired, so it is
                // always available here.
                let Some(announcement) =
                    Announcement::sign(&self.platform, &self.trusted, self.node, epoch, &self.key)
                else {
                    return;
                };
                self.broadcast(&WireEvent::Announce(announcement));
            }
        }
    }
}

/// The acting primary of a replication group.
#[derive(Debug)]
pub struct Primary {
    store: Arc<ElsmP2>,
    shipper: Arc<Shipper>,
    fencing: Arc<FencingCounter>,
    generation: u64,
    check_interval: u64,
    writes: AtomicU64,
    /// Sticky once a hardware check found a newer generation.
    fenced_by: AtomicU64,
    fenced: AtomicBool,
}

impl Primary {
    /// Opens a fresh primary, claiming leadership: the fencing counter's
    /// generation is advanced from its current value, so a stale founder
    /// racing an existing group is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::FencedOut`] when the claim loses a
    /// race, or [`ElsmError::Io`] on store-open failure.
    pub fn open(
        platform: Arc<Platform>,
        options: P2Options,
        ropts: &ReplicationOptions,
        fencing: Arc<FencingCounter>,
        key: SessionKey,
        channels: Vec<Arc<Channel>>,
    ) -> Result<Self, ElsmError> {
        let store = Arc::new(ElsmP2::open(platform, options)?);
        let state = fencing.read();
        let digest = store.trusted().dataset_digest();
        let generation = fencing.advance(state.generation, 0, digest).map_err(|current| {
            VerificationFailure::FencedOut {
                generation: state.generation,
                active: current.generation,
            }
        })?;
        Ok(Self::adopt(store, generation, ropts, fencing, key, channels, 0))
    }

    /// Wraps an existing store as the primary of generation `generation`
    /// (the promotion path — the caller already advanced the fencing
    /// counter). `events_shipped` seeds the progress counter so later
    /// fences stay monotone.
    pub(crate) fn adopt(
        store: Arc<ElsmP2>,
        generation: u64,
        ropts: &ReplicationOptions,
        fencing: Arc<FencingCounter>,
        key: SessionKey,
        channels: Vec<Arc<Channel>>,
        events_shipped: u64,
    ) -> Self {
        let shipper = Shipper::new(
            store.platform().clone(),
            store.trusted().clone(),
            key,
            0,
            generation,
            channels,
            events_shipped,
        );
        store.db().set_replication_sink(shipper.clone());
        Primary {
            store,
            shipper,
            fencing,
            generation,
            check_interval: ropts.leader_check_interval.max(1),
            writes: AtomicU64::new(0),
            fenced_by: AtomicU64::new(0),
            fenced: AtomicBool::new(false),
        }
    }

    /// The wrapped store (also a verified reader).
    pub fn store(&self) -> &Arc<ElsmP2> {
        &self.store
    }

    /// The leadership generation this node holds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Replication progress: events shipped so far.
    fn events_shipped(&self) -> u64 {
        self.shipper.events_shipped()
    }

    /// Ships the promotion record announcing this primary's generation
    /// to its channels (called once by the promotion path).
    pub(crate) fn announce_promotion(&self) {
        self.shipper.ship_promotion();
    }

    /// Checks the hardware fencing counter: an error means another node
    /// was promoted and this primary is permanently deposed.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::FencedOut`] naming both generations.
    pub fn ensure_leadership(&self) -> Result<(), ElsmError> {
        if self.fenced.load(Ordering::SeqCst) {
            return Err(VerificationFailure::FencedOut {
                generation: self.generation,
                active: self.fenced_by.load(Ordering::SeqCst),
            }
            .into());
        }
        let state = self.fencing.read();
        if state.generation != self.generation {
            self.fenced_by.store(state.generation, Ordering::SeqCst);
            self.fenced.store(true, Ordering::SeqCst);
            return Err(VerificationFailure::FencedOut {
                generation: self.generation,
                active: state.generation,
            }
            .into());
        }
        Ok(())
    }

    /// Binds the current replication progress and dataset digest to the
    /// fencing counter under this primary's generation — the §5.6.1
    /// counter write that a later promotion is validated against.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::FencedOut`] when the generation
    /// moved (this node was deposed between checks).
    pub fn fence(&self) -> Result<(), ElsmError> {
        let digest = self.store.trusted().dataset_digest();
        self.fencing.bind(self.generation, self.events_shipped(), digest).map_err(|current| {
            self.fenced_by.store(current.generation, Ordering::SeqCst);
            self.fenced.store(true, Ordering::SeqCst);
            ElsmError::from(VerificationFailure::FencedOut {
                generation: self.generation,
                active: current.generation,
            })
        })
    }

    /// Fences the final state and seals the store — the clean-shutdown
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure or when already deposed.
    pub fn close(&self) -> Result<(), ElsmError> {
        self.fence()?;
        self.store.close()
    }

    /// Per-write leadership gate: cheap while within the check interval,
    /// a hardware read at the boundary.
    fn before_write(&self) -> Result<(), ElsmError> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst);
        if self.fenced.load(Ordering::SeqCst) || n % self.check_interval == 0 {
            self.ensure_leadership()?;
        }
        Ok(())
    }
}

impl AuthenticatedKv for Primary {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError> {
        self.before_write()?;
        self.store.put(key, value)
    }

    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError> {
        self.before_write()?;
        self.store.delete(key)
    }

    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError> {
        self.before_write()?;
        self.store.put_batch(items)
    }

    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError> {
        self.before_write()?;
        self.store.delete_batch(keys)
    }

    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        self.store.get(key)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        self.store.scan(from, to)
    }
}
