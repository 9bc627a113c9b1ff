//! Why a query failed verification, and how the failure is audited.

use std::fmt;

use merkle::VerifyError;
use sgx_sim::Platform;
use telemetry::{AuditEvent, Telemetry};

/// Why a query failed verification — each variant corresponds to an attack
/// class from the paper's threat model (§3.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerificationFailure {
    /// A returned record does not belong to the committed level: the walk
    /// over its leaf (with its run's other leaves) does not reach the
    /// committed root or crown, or its proof names another level or leaf
    /// count — forged or tampered data (query-integrity violation).
    ForgedRecord {
        /// Level the record claimed to be at.
        level: u32,
        /// The underlying proof error.
        source: VerifyError,
    },
    /// A record offered where only its key's newest version may stand — a
    /// GET's hit or neighbour, a scan's head or boundary — is an older
    /// version: its own proof is a chain link (query-freshness violation).
    StaleRecord {
        /// Level the stale record resides at.
        level: u32,
        /// How many newer versions the record's link says exist at that
        /// level (its claimed chain position).
        newer_versions: usize,
    },
    /// A record lacks an embedded proof where one is required.
    MissingProof {
        /// Level of the offending record.
        level: u32,
    },
    /// A level's answer to a key range — a scan's, or a GET's as the range
    /// `[key, key]` — has the wrong shape: records out of range or out of
    /// order, leaves not adjacent, or an end of the run not anchored by a
    /// boundary, the tree's edge or a record at that end of the range
    /// (completeness violation: a record was withheld).
    IncompleteRange {
        /// Level of the claim.
        level: u32,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The store skipped or reordered levels in its response.
    LevelSkipped {
        /// The level expected next.
        expected: u32,
    },
    /// The store claimed a level is empty but the enclave holds a
    /// non-empty commitment for it.
    HiddenLevel {
        /// The hidden level.
        level: u32,
    },
    /// The enclave's state was found inconsistent with the trusted
    /// monotonic counter: a rollback attack (§5.6.1).
    RolledBack,
    /// The sealed enclave state the manifest carries is missing or failed
    /// to unseal: tampered, from a different enclave, sealed into another
    /// manifest, or gone with a manifest whose store's files stayed.
    SealBroken,
    /// The write-ahead logs the host presents at restart do not fold, from
    /// the sealed chain value their oldest started at, to the sealed WAL
    /// digest: a frame was forged, dropped, reordered or cut off after the
    /// state was sealed — or logged after the last manifest sealed it (a
    /// store that went down without `close()`).
    WalMismatch,
    /// A trace names an epoch the enclave holds no commitment snapshot
    /// for — either a fabricated epoch or one that drained long ago (the
    /// host replaying an ancient view).
    UnknownEpoch {
        /// The epoch the trace claimed.
        epoch: u64,
    },
    /// An answer (or sealed state) came from a different shard's enclave
    /// than the one that owns the queried key: the host rerouted a query
    /// to the wrong partition, smuggled another shard's records into a
    /// scan segment, or swapped per-shard persistent state across a
    /// restart. [`WRONG_SHARD_UNSHARDED`] stands for "no shard domain".
    WrongShard {
        /// The shard the trusted router expected to answer.
        expected: u32,
        /// The shard whose commitment domain the answer actually carries.
        got: u32,
    },
    /// A shipped replication envelope failed the authenticated channel's
    /// checks: its MAC does not verify, or its sequence number is not the
    /// next expected one — the transport host tampered with, reordered,
    /// selectively dropped or replayed shipped frames.
    ChannelTampered {
        /// Sequence number the replica expected to receive next.
        seq: u64,
    },
    /// A replica refused to answer because its replayed state lags the
    /// primary's last known epoch by more than the configured freshness
    /// bound — the host is withholding the replication stream while
    /// still presenting the replica as live.
    ReplicaStale {
        /// Epochs between the primary's announced head and the replica.
        lag_epochs: u64,
        /// The configured maximum acceptable lag.
        bound: u64,
    },
    /// The primary's signed announcement for an epoch does not match the
    /// state an honest replay of its own frame stream produces (or two
    /// announcements for one epoch disagree): the primary equivocated —
    /// it is showing different histories to different observers.
    ForkedPrimary {
        /// The epoch the conflicting announcements name.
        epoch: u64,
    },
    /// A value-log entry the host returned for a pointer record does not
    /// match the MAC folded into the record commitment: the host swapped,
    /// truncated, or rewrote the separated value (query-integrity
    /// violation on the key-value-separated path).
    VlogEntryTampered {
        /// The value-log file the pointer named.
        file_no: u64,
        /// Human-readable reason (missing entry, key/ts mismatch, bad MAC).
        reason: &'static str,
    },
    /// A verified-cache entry failed its integrity check on hit: the
    /// host process scribbled over enclave-cached verified data. The
    /// entry is discarded and the query falls back to the verified disk
    /// path — tampering is detected, never served.
    CacheTampered,
    /// A node acted under a leadership generation the fencing counter has
    /// moved past: a deposed primary resurrecting after failover, or a
    /// promotion racing a completed one. The generation bump at
    /// promotion (§5.6.1's counter, applied to leadership) makes this
    /// structurally detectable.
    FencedOut {
        /// The generation the node believed it held.
        generation: u64,
        /// The fencing counter's current generation.
        active: u64,
    },
}

/// Sentinel shard id in [`VerificationFailure::WrongShard`] for a store
/// with no shard binding at all (an unsharded enclave domain).
pub const WRONG_SHARD_UNSHARDED: u32 = u32::MAX;

impl VerificationFailure {
    /// The variant name as a static string — the audit stream's event
    /// kind, so auditors can aggregate detections per attack class
    /// without parsing display strings.
    pub fn kind(&self) -> &'static str {
        match self {
            VerificationFailure::ForgedRecord { .. } => "ForgedRecord",
            VerificationFailure::StaleRecord { .. } => "StaleRecord",
            VerificationFailure::MissingProof { .. } => "MissingProof",
            VerificationFailure::IncompleteRange { .. } => "IncompleteRange",
            VerificationFailure::LevelSkipped { .. } => "LevelSkipped",
            VerificationFailure::HiddenLevel { .. } => "HiddenLevel",
            VerificationFailure::RolledBack => "RolledBack",
            VerificationFailure::SealBroken => "SealBroken",
            VerificationFailure::WalMismatch => "WalMismatch",
            VerificationFailure::UnknownEpoch { .. } => "UnknownEpoch",
            VerificationFailure::WrongShard { .. } => "WrongShard",
            VerificationFailure::ChannelTampered { .. } => "ChannelTampered",
            VerificationFailure::ReplicaStale { .. } => "ReplicaStale",
            VerificationFailure::ForkedPrimary { .. } => "ForkedPrimary",
            VerificationFailure::VlogEntryTampered { .. } => "VlogEntryTampered",
            VerificationFailure::CacheTampered => "CacheTampered",
            VerificationFailure::FencedOut { .. } => "FencedOut",
        }
    }

    /// The shard context a failure carries, when its variant names one.
    pub(crate) fn shard_context(&self) -> Option<u32> {
        match self {
            VerificationFailure::WrongShard { expected, .. } => Some(*expected),
            _ => None,
        }
    }

    /// The epoch context a failure carries, when its variant names one.
    pub(crate) fn epoch_context(&self) -> Option<u64> {
        match self {
            VerificationFailure::UnknownEpoch { epoch }
            | VerificationFailure::ForkedPrimary { epoch } => Some(*epoch),
            _ => None,
        }
    }
}

impl fmt::Display for VerificationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationFailure::ForgedRecord { level, source } => {
                write!(f, "forged record at level {level}: {source}")
            }
            VerificationFailure::StaleRecord { level, newer_versions } => {
                write!(f, "stale record at level {level} ({newer_versions} newer versions exist)")
            }
            VerificationFailure::MissingProof { level } => {
                write!(f, "record at level {level} carries no embedded proof")
            }
            VerificationFailure::IncompleteRange { level, reason } => {
                write!(f, "range completeness at level {level} rejected: {reason}")
            }
            VerificationFailure::LevelSkipped { expected } => {
                write!(f, "store response skipped level {expected}")
            }
            VerificationFailure::HiddenLevel { level } => {
                write!(f, "store hid non-empty level {level}")
            }
            VerificationFailure::RolledBack => f.write_str("rollback attack detected"),
            VerificationFailure::SealBroken => {
                f.write_str("sealed enclave state missing or failed to unseal")
            }
            VerificationFailure::WalMismatch => {
                f.write_str("replayed write-ahead log does not reach the sealed WAL digest")
            }
            VerificationFailure::UnknownEpoch { epoch } => {
                write!(f, "no commitment snapshot for epoch {epoch}")
            }
            VerificationFailure::ChannelTampered { seq } => {
                write!(f, "replication envelope {seq} failed channel authentication")
            }
            VerificationFailure::ReplicaStale { lag_epochs, bound } => {
                write!(f, "replica lags the primary by {lag_epochs} epochs (bound {bound})")
            }
            VerificationFailure::ForkedPrimary { epoch } => {
                write!(f, "primary equivocated at epoch {epoch}")
            }
            VerificationFailure::VlogEntryTampered { file_no, reason } => {
                write!(f, "value-log entry in file {file_no} failed authentication: {reason}")
            }
            VerificationFailure::CacheTampered => {
                f.write_str("verified cache entry failed its integrity check")
            }
            VerificationFailure::FencedOut { generation, active } => {
                write!(f, "node generation {generation} fenced out (active generation {active})")
            }
            VerificationFailure::WrongShard { expected, got } => {
                let name = |id: u32| {
                    if id == WRONG_SHARD_UNSHARDED {
                        "unsharded".to_string()
                    } else {
                        format!("shard {id}")
                    }
                };
                write!(
                    f,
                    "answer from the wrong shard: expected {}, got {}",
                    name(*expected),
                    name(*got)
                )
            }
        }
    }
}

impl std::error::Error for VerificationFailure {}

/// Records a failure the store's enclave detected (component `"p2"`) on
/// `telemetry`'s audit stream, stamped with the failure's own shard and
/// epoch context, else with `shard` and `epoch`.
pub fn audit(
    platform: &Platform,
    telemetry: &Telemetry,
    shard: Option<u32>,
    epoch: Option<u64>,
    failure: &VerificationFailure,
) {
    let mut event = AuditEvent::new(failure.kind(), "p2")
        .detail(failure.to_string())
        .at_ns(platform.clock().now_ns());
    if let Some(epoch) = failure.epoch_context().or(epoch) {
        event = event.epoch(epoch);
    }
    if let Some(shard) = failure.shard_context().or(shard) {
        event = event.shard(shard);
    }
    telemetry.audit(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_shard_display_names_domains() {
        let e = VerificationFailure::WrongShard { expected: 2, got: WRONG_SHARD_UNSHARDED };
        let s = format!("{e}");
        assert!(s.contains("shard 2") && s.contains("unsharded"), "{s}");
    }

    #[test]
    fn kinds_name_their_variants() {
        assert_eq!(VerificationFailure::RolledBack.kind(), "RolledBack");
        assert_eq!(VerificationFailure::CacheTampered.kind(), "CacheTampered");
        assert_eq!(VerificationFailure::CacheTampered.epoch_context(), None);
        assert!(VerificationFailure::CacheTampered.to_string().contains("cache entry"));
        assert_eq!(VerificationFailure::WrongShard { expected: 0, got: 1 }.kind(), "WrongShard");
    }
}
