//! The replica node: deterministic replay plus per-epoch cross-checks.
//!
//! A [`Replica`] owns a full eLSM-P2 store on its **own**
//! [`Platform`] (its own enclave, trusted state, WAL digest, filesystem
//! and virtual clock) and builds that store exclusively by replaying the
//! primary's shipped event stream:
//!
//! * **frames** apply through
//!   [`lsm_store::Db::apply_replicated_batch`] — appended to the
//!   replica's own WAL, folded into its own enclave WAL digest;
//! * **flush/compact markers** replay as the replica's own maintenance,
//!   which makes its version/epoch sequence — and therefore its level
//!   commitments — bit-identical to the primary's;
//! * **signed install announcements** are checked against the replica's
//!   own [`TrustedState::snapshot_digest`] for the same epoch: a primary
//!   that announces state its own frame stream does not produce is
//!   caught as [`VerificationFailure::ForkedPrimary`].
//!
//! Reads are served from local state through the ordinary snapshot
//! verification path (a replica's host is as untrusted as a primary's),
//! and every answer carries a [`FreshnessToken`]; reads are refused with
//! [`VerificationFailure::ReplicaStale`] once the replica lags the
//! primary's last known epoch beyond the configured bound.
//!
//! [`TrustedState::snapshot_digest`]: elsm::TrustedState::snapshot_digest

use std::sync::Arc;

use elsm::replication::{Announcement, SessionKey};
use elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options, VerificationFailure, VerifiedRecord};
use elsm_crypto::Digest;
use parking_lot::Mutex;
use sgx_sim::{FencingCounter, Platform};

use crate::channel::{open_envelope, Channel, Envelope};
use crate::primary::{Primary, ReplicationOptions};
use crate::wire::{decode_event, WireEvent};

/// The freshness claim attached to every replica read: how far the
/// replica's replayed state is from the primary's newest epoch **as far
/// as the replica can know**. Announcements are signed, so clients and
/// auditors can relay fresher ones to the replica out of band
/// ([`Replica::observe_announcement`]) — a host that withholds the
/// stream cannot also keep the replica's staleness hidden.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshnessToken {
    /// Newest primary epoch the replica has seen announced.
    pub primary_epoch: u64,
    /// The replica's own replayed epoch.
    pub replica_epoch: u64,
    /// The configured refusal bound.
    pub bound: u64,
}

impl FreshnessToken {
    /// Epochs the replica lags the announced head (0 when fully caught
    /// up — the replica's own epoch can transiently lead the newest
    /// announcement it processed, which also reads as 0).
    pub fn lag_epochs(&self) -> u64 {
        self.primary_epoch.saturating_sub(self.replica_epoch)
    }
}

/// A replica's group-membership parameters: the shared fence, the
/// attested session key, its node id, the generation it joins under,
/// and its freshness bound.
#[derive(Debug, Clone)]
pub struct Membership {
    /// The group's shared fencing counter.
    pub fencing: Arc<FencingCounter>,
    /// The attestation-established group key.
    pub key: SessionKey,
    /// This node's id (the founding primary is 0; replicas follow).
    pub node: u32,
    /// The leadership generation in effect when this replica joined.
    pub generation: u64,
    /// Freshness bound for [`Replica::freshness`].
    pub max_lag_epochs: u64,
}

#[derive(Debug)]
struct Progress {
    expected_seq: u64,
    applied_events: u64,
    generation: u64,
    primary_epoch: u64,
    fenced_drops: u64,
}

/// Registry-backed replication health metrics (the `replica.*` series of
/// the store's telemetry handle, so a group-scoped handle isolates them
/// per node).
#[derive(Debug)]
struct ReplicaMetrics {
    /// Epochs this node lags the newest announced primary head
    /// (refreshed on every freshness check).
    lag_epochs: telemetry::Gauge,
    /// Reads refused because the lag exceeded the freshness bound.
    freshness_refusals: telemetry::Counter,
    /// Shipments dropped for carrying a deposed generation.
    fenced_drops: telemetry::Counter,
    /// Replicated events applied.
    applied_events: telemetry::Counter,
    /// Replay of one shipped WAL frame.
    replay_frame: telemetry::Span,
}

impl ReplicaMetrics {
    fn new(telemetry: &telemetry::Telemetry) -> Self {
        ReplicaMetrics {
            lag_epochs: telemetry.gauge("replica.lag_epochs"),
            freshness_refusals: telemetry.counter("replica.freshness_refusals"),
            fenced_drops: telemetry.counter("replica.fenced_drops"),
            applied_events: telemetry.counter("replica.applied_events"),
            replay_frame: telemetry.span("replay.frame", "replay"),
        }
    }
}

/// One replica node (see the module docs).
#[derive(Debug)]
pub struct Replica {
    store: Arc<ElsmP2>,
    channel: Arc<Channel>,
    fencing: Arc<FencingCounter>,
    key: SessionKey,
    node: u32,
    max_lag_epochs: u64,
    progress: Mutex<Progress>,
    metrics: ReplicaMetrics,
    /// Sticky detection verdict: once the stream failed verification the
    /// replica refuses service (its state can no longer be trusted to
    /// track the primary).
    failed: Mutex<Option<VerificationFailure>>,
}

impl Replica {
    /// Opens a fresh replica joining a group at `generation`, fed by
    /// `channel`. The store opens with the **same options** as the
    /// primary's — replay determinism depends on it.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError::Io`] on store-open failure.
    pub fn open(
        platform: Arc<Platform>,
        options: P2Options,
        channel: Arc<Channel>,
        membership: Membership,
    ) -> Result<Self, ElsmError> {
        let store = Arc::new(ElsmP2::open(platform, options)?);
        let metrics = ReplicaMetrics::new(store.telemetry());
        Ok(Replica {
            store,
            channel,
            metrics,
            fencing: membership.fencing,
            key: membership.key,
            node: membership.node,
            max_lag_epochs: membership.max_lag_epochs,
            progress: Mutex::new(Progress {
                expected_seq: 0,
                applied_events: 0,
                generation: membership.generation,
                primary_epoch: 0,
                fenced_drops: 0,
            }),
            failed: Mutex::new(None),
        })
    }

    /// The replica's store (its platform carries the node's clock).
    pub fn store(&self) -> &Arc<ElsmP2> {
        &self.store
    }

    /// This replica's inbound channel (the group wires a new primary's
    /// shipper to it across a failover).
    pub fn channel(&self) -> &Arc<Channel> {
        &self.channel
    }

    /// Events applied so far (the progress a promotion is validated by).
    pub fn applied_events(&self) -> u64 {
        self.progress.lock().applied_events
    }

    /// Shipments dropped because they carried a deposed generation (a
    /// resurrected old primary still writing into the channel).
    pub fn fenced_drops(&self) -> u64 {
        self.progress.lock().fenced_drops
    }

    /// Whether the replica detected stream tampering or a fork and
    /// refuses service; holds the verdict.
    pub fn failure(&self) -> Option<VerificationFailure> {
        self.failed.lock().clone()
    }

    fn check_failed(&self) -> Result<(), ElsmError> {
        match self.failed.lock().clone() {
            Some(failure) => Err(failure.into()),
            None => Ok(()),
        }
    }

    /// Records a replication-layer verification failure on the audit
    /// stream, stamped with this node's id and replayed epoch.
    fn audit_failure(&self, failure: &VerificationFailure) {
        self.store.telemetry().audit(
            telemetry::AuditEvent::new(failure.kind(), "replica")
                .detail(failure.to_string())
                .epoch(self.store.db().current_epoch())
                .replica(self.node)
                .at_ns(self.store.platform().clock().now_ns()),
        );
    }

    /// Drains the channel and applies everything, in order. Returns the
    /// number of envelopes processed.
    ///
    /// # Errors
    ///
    /// Returns the detected [`VerificationFailure`] (sticky — the
    /// replica refuses further service) or [`ElsmError::Io`] on replay
    /// IO failure.
    pub fn sync(&self) -> Result<usize, ElsmError> {
        self.check_failed()?;
        let mut envelopes = self.channel.drain();
        let n = envelopes.len();
        for i in 0..n {
            if let Err(error) = self.apply(&envelopes[i]) {
                match &error {
                    ElsmError::Verification(failure) => {
                        self.audit_failure(failure);
                        *self.failed.lock() = Some(failure.clone());
                    }
                    // A transient replay IO error must not eat the
                    // undelivered suffix: put it back (failed envelope
                    // included — it was not applied) so a retry resumes
                    // at the right sequence number.
                    _ => self.channel.requeue_front(envelopes.split_off(i)),
                }
                return Err(error);
            }
        }
        Ok(n)
    }

    fn apply(&self, envelope: &Envelope) -> Result<(), ElsmError> {
        let mut progress = self.progress.lock();
        let seq = progress.expected_seq;
        let payload = open_envelope(self.store.platform(), &self.key, envelope, seq)?;
        let (generation, trace, event) =
            decode_event(payload).ok_or(VerificationFailure::ChannelTampered { seq })?;
        if generation < progress.generation {
            // A deposed primary still shipping: authenticated, ordered —
            // and fenced. Skip, count, keep serving the live stream.
            progress.expected_seq += 1;
            progress.fenced_drops += 1;
            self.metrics.fenced_drops.inc();
            let fenced = VerificationFailure::FencedOut { generation, active: progress.generation };
            drop(progress);
            self.audit_failure(&fenced);
            return Ok(());
        }
        if generation > progress.generation {
            // Only a promotion may raise the generation, and only if the
            // hardware fence actually moved there.
            let hardware = self.fencing.read();
            if !matches!(event, WireEvent::Promote) || hardware.generation != generation {
                return Err(VerificationFailure::ChannelTampered { seq }.into());
            }
        }
        match event {
            // Flush replay must not chase compaction: the primary ships
            // every job it actually ran as its own `Compact` event, and
            // replaying that exact job keeps the replica's epoch/level
            // sequence bit-identical regardless of either side's
            // scheduler parallelism.
            WireEvent::Frame(records) => {
                // Replay joins the primary's trace tree as a remote child
                // of the shipped group-commit span; the nested replay ops
                // (and any chained re-broadcast) hang off it via the
                // thread-local stack.
                let _span = self.metrics.replay_frame.start_child_of(trace);
                self.store.db().apply_replicated_batch(&records)?
            }
            WireEvent::Flush => self.store.db().apply_replicated_flush()?,
            WireEvent::Compact(job) => self.store.db().apply_compaction_job(&job)?,
            WireEvent::VlogGc(gc) => self.store.db().apply_vlog_gc(&gc)?,
            WireEvent::Announce(announcement) => {
                self.check_announcement(&mut progress, &announcement)?;
            }
            WireEvent::Promote => progress.generation = generation,
        }
        // Counters advance only once the event actually applied, so a
        // transient IO failure leaves the stream position unchanged and
        // a retried sync resumes exactly here.
        progress.expected_seq += 1;
        progress.applied_events += 1;
        self.metrics.applied_events.inc();
        Ok(())
    }

    /// Cross-checks one signed announcement against the replica's own
    /// replayed state for the same epoch.
    fn check_announcement(
        &self,
        progress: &mut Progress,
        announcement: &Announcement,
    ) -> Result<(), ElsmError> {
        if !announcement.verify(self.store.platform(), &self.key) {
            // A MAC-valid envelope carrying an unverifiable signature can
            // only come from the primary itself: equivocation material.
            return Err(VerificationFailure::ForkedPrimary { epoch: announcement.epoch }.into());
        }
        if let Some(own) = self.store.trusted().snapshot_digest(announcement.epoch) {
            if own != announcement.commitments {
                return Err(VerificationFailure::ForkedPrimary { epoch: announcement.epoch }.into());
            }
        }
        progress.primary_epoch = progress.primary_epoch.max(announcement.epoch);
        Ok(())
    }

    /// Feeds the replica an announcement relayed out of band (by a
    /// client, auditor or gossip). Verifies the signature, advances the
    /// known primary head, and cross-checks the epoch if the replica
    /// still holds a snapshot for it — so relaying also doubles as a
    /// fork probe.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::ChannelTampered`] for an invalid
    /// signature (the relay tampered; `seq` is 0 — there is no stream
    /// position), or [`VerificationFailure::ForkedPrimary`] on an epoch
    /// mismatch.
    pub fn observe_announcement(&self, announcement: &Announcement) -> Result<(), ElsmError> {
        self.check_failed()?;
        if !announcement.verify(self.store.platform(), &self.key) {
            let failure = VerificationFailure::ChannelTampered { seq: 0 };
            self.audit_failure(&failure);
            return Err(failure.into());
        }
        let mut progress = self.progress.lock();
        if let Some(own) = self.store.trusted().snapshot_digest(announcement.epoch) {
            if own != announcement.commitments {
                let failure = VerificationFailure::ForkedPrimary { epoch: announcement.epoch };
                self.audit_failure(&failure);
                *self.failed.lock() = Some(failure.clone());
                return Err(failure.into());
            }
        }
        progress.primary_epoch = progress.primary_epoch.max(announcement.epoch);
        Ok(())
    }

    /// The freshness claim a read would carry right now.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::ReplicaStale`] when the lag
    /// exceeds the bound.
    pub fn freshness(&self) -> Result<FreshnessToken, ElsmError> {
        let progress = self.progress.lock();
        let token = FreshnessToken {
            primary_epoch: progress.primary_epoch,
            replica_epoch: self.store.db().current_epoch(),
            bound: self.max_lag_epochs,
        };
        drop(progress);
        self.metrics.lag_epochs.set(token.lag_epochs());
        if token.lag_epochs() > self.max_lag_epochs {
            self.metrics.freshness_refusals.inc();
            let failure = VerificationFailure::ReplicaStale {
                lag_epochs: token.lag_epochs(),
                bound: self.max_lag_epochs,
            };
            self.audit_failure(&failure);
            return Err(failure.into());
        }
        Ok(token)
    }

    /// Verified point read from local replayed state, with the freshness
    /// token.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::ReplicaStale`] beyond the lag
    /// bound, the sticky stream failure if one was detected, or any
    /// ordinary verification failure of the local read.
    pub fn get(&self, key: &[u8]) -> Result<(Option<VerifiedRecord>, FreshnessToken), ElsmError> {
        self.check_failed()?;
        let token = self.freshness()?;
        Ok((self.store.get(key)?, token))
    }

    /// Verified range read from local replayed state, with the freshness
    /// token. Same contract as [`Replica::get`].
    ///
    /// # Errors
    ///
    /// See [`Replica::get`].
    pub fn scan(
        &self,
        from: &[u8],
        to: &[u8],
    ) -> Result<(Vec<VerifiedRecord>, FreshnessToken), ElsmError> {
        self.check_failed()?;
        let token = self.freshness()?;
        Ok((self.store.scan(from, to)?, token))
    }

    /// Promotes this replica to primary — the §5.6.1-fenced failover.
    ///
    /// The candidate first drains its channel (picking up everything the
    /// dead primary already shipped — acknowledged writes are in there
    /// by construction), then validates itself against the hardware
    /// fence: its applied progress must reach the fenced progress, and
    /// where progress matches exactly, its dataset digest must match the
    /// fenced digest. Only then does it atomically bump the generation,
    /// binding its own digest — after which the old primary (and any
    /// racing candidate) is structurally fenced out. `peers` are the
    /// remaining replicas' channels; the new primary announces itself
    /// there and ships its writes to them from then on.
    ///
    /// # Errors
    ///
    /// * [`VerificationFailure::RolledBack`] — the candidate's state is
    ///   older than the fenced progress (a stale replica, or one whose
    ///   host rolled its state back);
    /// * [`VerificationFailure::ForkedPrimary`] — progress matches but
    ///   the dataset digest does not;
    /// * [`VerificationFailure::FencedOut`] — a racing promotion won;
    /// * any sticky stream failure already detected.
    pub fn promote(
        self,
        ropts: &ReplicationOptions,
        peers: Vec<Arc<Channel>>,
    ) -> Result<Primary, ElsmError> {
        self.sync()?;
        let (applied, generation) = {
            let progress = self.progress.lock();
            (progress.applied_events, progress.generation)
        };
        let fenced = self.fencing.read();
        if applied < fenced.progress {
            let failure = VerificationFailure::RolledBack;
            self.audit_failure(&failure);
            return Err(failure.into());
        }
        let digest = self.store.trusted().dataset_digest();
        if applied == fenced.progress && fenced.digest != Digest::ZERO && digest != fenced.digest {
            let failure =
                VerificationFailure::ForkedPrimary { epoch: self.store.db().current_epoch() };
            self.audit_failure(&failure);
            return Err(failure.into());
        }
        let new_generation =
            self.fencing.advance(fenced.generation, applied, digest).map_err(|current| {
                let failure =
                    VerificationFailure::FencedOut { generation, active: current.generation };
                self.audit_failure(&failure);
                failure
            })?;
        let primary = Primary::adopt(
            self.store,
            new_generation,
            ropts,
            self.fencing,
            self.key,
            peers,
            applied,
        );
        primary.announce_promotion();
        Ok(primary)
    }
}
