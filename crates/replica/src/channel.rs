//! The simulated authenticated channel between a primary and one replica.
//!
//! The *transport* — the queue itself — is untrusted host territory: the
//! adversarial host can reorder, drop, duplicate, truncate or rewrite
//! queued envelopes at will ([`Channel::tamper`] is its hands). What makes
//! the channel *authenticated* is enclave-side: the sender MACs every
//! envelope under the group [`SessionKey`] **with its sequence number
//! under the MAC**, and the receiver accepts an envelope only if the MAC
//! verifies for exactly the next expected sequence number. Any
//! manipulation therefore surfaces as
//! [`VerificationFailure::ChannelTampered`] — reordering and replay are
//! not a separate case, they are just MACs that no longer match their
//! position.
//!
//! The queue also plays the role a real deployment's in-flight buffers
//! play for failover: envelopes the dead primary already shipped survive
//! in the queue, so a promoted replica drains them before taking over —
//! that is where "zero acknowledged-write loss" comes from.

use std::collections::VecDeque;
use std::sync::Arc;

use elsm::replication::SessionKey;
use elsm::VerificationFailure;
use elsm_crypto::hmac::verify_tag;
use elsm_crypto::Digest;
use parking_lot::Mutex;
use sgx_sim::Platform;

/// One shipped message: sequence number, opaque payload, transport MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Position in the stream (assigned by the sender, covered by the MAC).
    pub seq: u64,
    /// The wire-encoded replication event.
    pub payload: Vec<u8>,
    /// `HMAC(session key, 0x01 ‖ seq ‖ payload)`.
    pub mac: Digest,
}

#[derive(Debug, Default)]
struct ChannelInner {
    next_seq: u64,
    queue: VecDeque<Envelope>,
}

/// A primary→replica shipping queue (see the module docs for the trust
/// split).
#[derive(Debug, Default)]
pub struct Channel {
    inner: Mutex<ChannelInner>,
}

impl Channel {
    /// Creates an empty channel.
    pub fn new() -> Arc<Self> {
        Arc::new(Channel::default())
    }

    /// MACs and enqueues one payload. The sequence number is assigned
    /// under the channel lock, so send order and sequence order agree
    /// even across racing callers. MAC cost is charged to `platform`
    /// (the sender's enclave).
    pub fn send(&self, platform: &Platform, key: &SessionKey, payload: Vec<u8>) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let mac = key.mac_envelope(platform, seq, &payload);
        inner.queue.push_back(Envelope { seq, payload, mac });
    }

    /// Takes everything currently queued, in order.
    pub fn drain(&self) -> Vec<Envelope> {
        self.inner.lock().queue.drain(..).collect()
    }

    /// Puts drained-but-unapplied envelopes back at the head of the
    /// queue, in order — the receiver's retry path after a transient
    /// replay IO error. Not a transport operation: honest receivers own
    /// their undelivered suffix.
    pub fn requeue_front(&self, envelopes: Vec<Envelope>) {
        let mut inner = self.inner.lock();
        for envelope in envelopes.into_iter().rev() {
            inner.queue.push_front(envelope);
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().queue.is_empty()
    }

    /// The adversarial host's hands: arbitrary access to the queued
    /// envelopes (reorder, drop, rewrite, inject). Honest transports
    /// never call this; the security tests do.
    pub fn tamper(&self, f: impl FnOnce(&mut VecDeque<Envelope>)) {
        f(&mut self.inner.lock().queue)
    }
}

/// Receiver-side envelope check: the MAC must verify for exactly
/// `expected_seq`. Verification cost is charged to `platform` (the
/// receiver's enclave).
///
/// # Errors
///
/// Returns [`VerificationFailure::ChannelTampered`] on any mismatch —
/// rewritten bytes, a reordered/replayed/dropped envelope (sequence gap),
/// or a forged MAC.
pub fn open_envelope<'a>(
    platform: &Platform,
    key: &SessionKey,
    envelope: &'a Envelope,
    expected_seq: u64,
) -> Result<&'a [u8], VerificationFailure> {
    let tampered = VerificationFailure::ChannelTampered { seq: expected_seq };
    if envelope.seq != expected_seq {
        return Err(tampered);
    }
    // Constant-time: the transport host can resubmit an envelope with
    // guessed MACs as often as it likes.
    if !verify_tag(&key.mac_envelope(platform, envelope.seq, &envelope.payload), &envelope.mac) {
        return Err(tampered);
    }
    Ok(&envelope.payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<Platform>, SessionKey, Arc<Channel>) {
        (Platform::with_defaults(), SessionKey::derive(b"test group"), Channel::new())
    }

    #[test]
    fn honest_stream_opens_in_order() {
        let (p, key, ch) = setup();
        ch.send(&p, &key, b"one".to_vec());
        ch.send(&p, &key, b"two".to_vec());
        let envs = ch.drain();
        assert_eq!(open_envelope(&p, &key, &envs[0], 0).unwrap(), b"one");
        assert_eq!(open_envelope(&p, &key, &envs[1], 1).unwrap(), b"two");
        assert!(ch.is_empty());
    }

    #[test]
    fn tampered_payload_rejected() {
        let (p, key, ch) = setup();
        ch.send(&p, &key, b"payload".to_vec());
        ch.tamper(|q| q[0].payload[0] ^= 1);
        let envs = ch.drain();
        assert_eq!(
            open_envelope(&p, &key, &envs[0], 0),
            Err(VerificationFailure::ChannelTampered { seq: 0 })
        );
    }

    #[test]
    fn one_bit_off_mac_rejected() {
        let (p, key, ch) = setup();
        ch.send(&p, &key, b"payload".to_vec());
        let honest = ch.drain().remove(0);
        assert!(open_envelope(&p, &key, &honest, 0).is_ok());
        for bit in [0usize, 7, 128, 255] {
            let mut mac = honest.mac.into_bytes();
            mac[bit / 8] ^= 1 << (bit % 8);
            let forged = Envelope { mac: Digest::from_bytes(mac), ..honest.clone() };
            assert_eq!(
                open_envelope(&p, &key, &forged, 0),
                Err(VerificationFailure::ChannelTampered { seq: 0 }),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn reordered_envelopes_rejected() {
        let (p, key, ch) = setup();
        ch.send(&p, &key, b"a".to_vec());
        ch.send(&p, &key, b"b".to_vec());
        ch.tamper(|q| q.swap(0, 1));
        let envs = ch.drain();
        // Each envelope's own MAC still verifies — but not at this
        // position in the stream.
        assert!(open_envelope(&p, &key, &envs[0], 0).is_err());
    }

    #[test]
    fn dropped_envelope_breaks_continuity() {
        let (p, key, ch) = setup();
        ch.send(&p, &key, b"a".to_vec());
        ch.send(&p, &key, b"b".to_vec());
        ch.tamper(|q| {
            q.pop_front();
        });
        let envs = ch.drain();
        assert!(open_envelope(&p, &key, &envs[0], 0).is_err(), "selective drop must be detected");
    }

    #[test]
    fn wrong_key_rejected() {
        let (p, key, ch) = setup();
        ch.send(&p, &key, b"x".to_vec());
        let envs = ch.drain();
        assert!(open_envelope(&p, &SessionKey::derive(b"other"), &envs[0], 0).is_err());
    }
}
