//! One audit stream for the whole deployment.
//!
//! The store side reports every [`VerificationFailure`] it detects as a
//! structured [`AuditEvent`] on its telemetry registry; the
//! transparency side detects split views from signed per-epoch
//! [`Announcement`]s via [`ForkMonitor`]. [`SecurityAuditor`] joins the
//! two: it registers itself as a [`telemetry::AuditSink`] on the
//! deployment's registry (so every verification failure from every
//! node, shard and replica lands in its incident log) and it feeds
//! relayed announcements into its own fork monitor, converting any
//! [`ForkEvidence`] back into an audit event on the same registry. An
//! external auditor therefore consumes **one** ordered stream —
//! tampered records, stale replicas, fenced-out primaries and forked
//! histories all arrive as the same structured record.
//!
//! [`VerificationFailure`]: elsm::VerificationFailure

use std::sync::Arc;

use elsm::replication::{Announcement, SessionKey};
use parking_lot::Mutex;
use sgx_sim::Platform;
use telemetry::{AuditEvent, AuditSink, Telemetry};

use crate::fork::{ForkEvidence, ForkMonitor};

/// The audit-event kind emitted when the fork monitor flags a split
/// view (every other kind on the stream is a `VerificationFailure`
/// variant name).
pub const FORK_DETECTED: &str = "ForkDetected";

#[derive(Debug)]
struct AuditorState {
    monitor: ForkMonitor,
    incidents: Vec<AuditEvent>,
}

/// A deployment-wide security auditor: a [`ForkMonitor`] that also
/// subscribes to the telemetry audit stream (see the module docs).
#[derive(Debug)]
pub struct SecurityAuditor {
    telemetry: Telemetry,
    state: Mutex<AuditorState>,
}

impl SecurityAuditor {
    /// Builds an auditor for the group signing under `key`, charging
    /// announcement verification to `platform`, and registers it as an
    /// audit sink on `telemetry` — which must be the **root** registry
    /// the deployment's stores were opened with, so every scoped node
    /// reports into it.
    pub fn attach(telemetry: &Telemetry, platform: Arc<Platform>, key: SessionKey) -> Arc<Self> {
        let auditor = Arc::new(SecurityAuditor {
            telemetry: telemetry.clone(),
            state: Mutex::new(AuditorState {
                monitor: ForkMonitor::new(platform, key),
                incidents: Vec::new(),
            }),
        });
        telemetry.add_audit_sink(auditor.clone());
        auditor
    }

    /// Feeds one relayed announcement into the fork monitor. When the
    /// observation produces [`ForkEvidence`], the evidence is also
    /// recorded on the registry as a [`FORK_DETECTED`] audit event (and
    /// thus lands in this auditor's own incident log), carrying the
    /// forked epoch and the conflicting announcer as replica context.
    pub fn observe_announcement(&self, announcement: &Announcement) -> Option<ForkEvidence> {
        // The state lock must drop before the event is recorded: the
        // registry calls straight back into `on_audit`.
        let evidence = self.state.lock().monitor.observe(announcement);
        if let Some(e) = &evidence {
            self.telemetry.audit(
                AuditEvent::new(FORK_DETECTED, "ct_log.fork_monitor")
                    .detail(format!(
                        "epoch {}: node {} announced {} but node {} announced {}",
                        e.epoch,
                        e.first.0,
                        e.first.1.short_hex(),
                        e.conflicting.0,
                        e.conflicting.1.short_hex(),
                    ))
                    .epoch(e.epoch)
                    .replica(e.conflicting.0),
            );
        }
        evidence
    }

    /// Epochs with at least one verified announcement.
    pub fn epochs_observed(&self) -> usize {
        self.state.lock().monitor.epochs_observed()
    }
}

impl AuditSink for SecurityAuditor {
    fn on_audit(&self, event: &AuditEvent) {
        self.state.lock().incidents.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsm::{AuthenticatedKv, P2Options};
    use elsm_replica::{ReplicationGroup, ReplicationOptions};

    impl SecurityAuditor {
        /// Every incident consumed so far, in stream order: verification
        /// failures reported by the stores plus fork evidence from the
        /// monitor.
        fn incidents(&self) -> Vec<AuditEvent> {
            self.state.lock().incidents.clone()
        }

        /// Number of incidents consumed.
        fn incident_count(&self) -> usize {
            self.state.lock().incidents.len()
        }

        /// All fork evidence recorded by the wrapped monitor.
        fn fork_evidence(&self) -> Vec<ForkEvidence> {
            self.state.lock().monitor.divergences().to_vec()
        }
    }

    /// The unified-stream test: a store-side verification failure and a
    /// monitor-side fork land in the same incident log, in order.
    #[test]
    fn verification_failures_and_forks_share_one_stream() {
        let registry = Telemetry::new();
        let group = ReplicationGroup::open(
            Platform::with_defaults(),
            P2Options { telemetry: registry.clone(), ..Default::default() },
            ReplicationOptions { replicas: 1, ..Default::default() },
        )
        .unwrap();
        let auditor = SecurityAuditor::attach(
            &registry,
            Platform::with_defaults(),
            group.session_key().clone(),
        );
        for i in 0..100u32 {
            group.put(format!("cert{i:03}").as_bytes(), b"hash").unwrap();
        }
        group.flush().unwrap();

        let primary = group.primary_store();
        let epoch = primary.db().current_epoch();
        group.with_replica(0, |r| {
            let token = r.get(b"cert000").unwrap().1;
            assert_eq!(token.lag_epochs(), 0, "healthy replica is caught up");
        });

        // Monitor side: an equivocating primary signs a different
        // commitment digest for the same epoch.
        let honest = elsm::replication::Announcement::sign(
            primary.platform(),
            primary.trusted(),
            0,
            epoch,
            group.session_key(),
        )
        .expect("current epoch is published");
        assert!(auditor.observe_announcement(&honest).is_none());
        let equivocation = elsm::replication::Announcement::sign_digest(
            primary.platform(),
            0,
            epoch,
            elsm_crypto::sha256(b"the other history"),
            group.session_key(),
        );
        let evidence = auditor.observe_announcement(&equivocation).expect("fork flagged");
        assert_eq!(evidence.epoch, epoch);

        // Store side: the replica cross-checks the same announcement
        // against its replayed state, raises `ForkedPrimary`, and its
        // audit event lands on the same registry → same incident log.
        let refused = group.with_replica(0, |r| r.observe_announcement(&equivocation));
        assert!(refused.is_err(), "replica refuses the split view");
        assert_eq!(registry.audit_count("ForkedPrimary"), 1);

        // One stream: the fork event rode the registry back into the
        // auditor, alongside any store-side failures.
        assert_eq!(registry.audit_count(FORK_DETECTED), 1);
        assert_eq!(auditor.fork_evidence().len(), 1);
        let incidents = auditor.incidents();
        let fork = incidents.iter().find(|e| e.kind == FORK_DETECTED).expect("fork incident");
        assert_eq!(fork.epoch, Some(epoch));
        assert_eq!(fork.replica, Some(0));
        assert_eq!(auditor.incident_count(), registry.audit_total() as usize);
    }
}
