//! The security audit stream.
//!
//! Every verification failure anywhere in the stack — a forged record, a
//! hidden level, a forked primary, a tampered value-log entry — is
//! reported here as a structured [`AuditEvent`] carrying the epoch, shard
//! and replica context of where it was detected. The stream keeps a
//! bounded ring of recent events for inspection plus *unbounded per-kind
//! counters*, so "did the suite's attack fire an event" assertions hold
//! even after the ring wraps. The registry holds one stream however many
//! shards and replicas report into it, so an external auditor reads every
//! refusal in one place.

use std::collections::{BTreeMap, VecDeque};

use parking_lot::Mutex;

/// Maximum events retained in the ring (counters are unbounded).
pub const AUDIT_RING_CAPACITY: usize = 1024;

/// One security-relevant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEvent {
    /// Stream-wide sequence number (assigned at record time).
    pub seq: u64,
    /// Virtual timestamp (the reporting component's platform clock).
    pub at_ns: u64,
    /// Failure kind — for verification failures, the
    /// `VerificationFailure` variant name (`"HiddenLevel"`,
    /// `"WrongShard"`, …).
    pub kind: &'static str,
    /// Component that detected the failure (`"core.get"`,
    /// `"replica.sync"`, …).
    pub component: &'static str,
    /// Human-readable detail (the failure's `Display` output).
    pub detail: String,
    /// Epoch the failure was detected against, when known.
    pub epoch: Option<u64>,
    /// Shard that reported, when the component is sharded.
    pub shard: Option<u32>,
    /// Replica that reported, when the component is replicated.
    pub replica: Option<u32>,
}

impl AuditEvent {
    /// Starts an event of `kind` detected by `component`; `seq` is
    /// assigned when the event is recorded.
    pub fn new(kind: &'static str, component: &'static str) -> Self {
        AuditEvent {
            seq: 0,
            at_ns: 0,
            kind,
            component,
            detail: String::new(),
            epoch: None,
            shard: None,
            replica: None,
        }
    }

    /// Attaches the failure's rendered detail.
    pub fn detail(mut self, detail: impl Into<String>) -> Self {
        self.detail = detail.into();
        self
    }

    /// Attaches the virtual timestamp of detection.
    pub fn at_ns(mut self, ns: u64) -> Self {
        self.at_ns = ns;
        self
    }

    /// Attaches the epoch context.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Attaches the shard context.
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Attaches the replica context.
    pub fn replica(mut self, replica: u32) -> Self {
        self.replica = Some(replica);
        self
    }
}

#[derive(Default)]
pub(crate) struct AuditStream {
    state: Mutex<AuditState>,
}

#[derive(Default)]
struct AuditState {
    next_seq: u64,
    ring: VecDeque<AuditEvent>,
    dropped: u64,
    by_kind: BTreeMap<&'static str, u64>,
}

impl std::fmt::Debug for AuditStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("AuditStream").field("recorded", &s.next_seq).finish()
    }
}

impl AuditStream {
    pub(crate) fn record(&self, mut event: AuditEvent) {
        let mut s = self.state.lock();
        event.seq = s.next_seq;
        s.next_seq += 1;
        *s.by_kind.entry(event.kind).or_insert(0) += 1;
        if s.ring.len() == AUDIT_RING_CAPACITY {
            s.ring.pop_front();
            s.dropped += 1;
        }
        s.ring.push_back(event);
    }

    pub(crate) fn events(&self) -> Vec<AuditEvent> {
        self.state.lock().ring.iter().cloned().collect()
    }

    pub(crate) fn count(&self, kind: &str) -> u64 {
        self.state.lock().by_kind.get(kind).copied().unwrap_or(0)
    }

    pub(crate) fn total(&self) -> u64 {
        self.state.lock().next_seq
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.state.lock().dropped
    }

    pub(crate) fn by_kind(&self) -> Vec<(&'static str, u64)> {
        self.state.lock().by_kind.iter().map(|(k, v)| (*k, *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_but_counters_do_not() {
        let stream = AuditStream::default();
        for _ in 0..AUDIT_RING_CAPACITY + 10 {
            stream.record(AuditEvent::new("ForgedRecord", "test"));
        }
        assert_eq!(stream.events().len(), AUDIT_RING_CAPACITY);
        assert_eq!(stream.dropped(), 10, "ring evictions are counted");
        assert_eq!(stream.count("ForgedRecord"), (AUDIT_RING_CAPACITY + 10) as u64);
        assert_eq!(stream.events().last().unwrap().seq, (AUDIT_RING_CAPACITY + 9) as u64);
    }
}
