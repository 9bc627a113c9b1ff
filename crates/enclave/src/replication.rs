//! Replication protocol primitives shared by primaries, replicas and
//! auditors.
//!
//! The `elsm-replica` crate builds the actual nodes; this module holds
//! the pieces that belong to the *trusted* protocol surface and are
//! consumed beyond the replica crate (a relayed announcement reaches a
//! replica through `Replica::observe_announcement`, without a channel):
//!
//! * [`SessionKey`] — the symmetric group key the replication group's
//!   enclaves share after mutual attestation. In real SGX this comes out
//!   of local/remote attestation key exchange; the simulation derives it
//!   from a seed.
//! * [`Announcement`] — a **signed version-install announcement**: on
//!   every version install the primary's enclave binds the installing
//!   epoch to the digest of its level-commitment snapshot
//!   ([`TrustedState::snapshot_digest`]) under the group key. Because
//!   the signature travels with the claim, announcements can be relayed
//!   by untrusted parties (the transport host, gossip, an auditor) and
//!   still be held against the primary — which is what makes the
//!   replica's fork check binding.

use elsm_crypto::hmac::{verify_tag, HmacKey};
use elsm_crypto::{sha256_concat, Digest};
use sgx_sim::Platform;

use crate::trusted::TrustedState;

/// The attestation-established symmetric key of one replication group.
///
/// Used for two separable purposes, domain-tagged apart: transport
/// authentication of shipped envelopes (the channel MAC) and signing of
/// version-install announcements.
///
/// Holds the key as a prepared [`HmacKey`] (pad midstates), so MACing an
/// envelope or an announcement costs the message's blocks, not a key
/// schedule per call. Its `Debug` prints no key material.
#[derive(Debug, Clone)]
pub struct SessionKey(HmacKey);

/// Domain tag for channel-envelope MACs.
const DOMAIN_CHANNEL: u8 = 0x01;
/// Domain tag for announcement signatures.
const DOMAIN_ANNOUNCE: u8 = 0x02;

impl SessionKey {
    /// Derives a group key from a seed (stands in for the attested key
    /// exchange).
    pub fn derive(seed: &[u8]) -> Self {
        SessionKey(HmacKey::new(sha256_concat(&[b"elsm-replica session v1/", seed]).as_bytes()))
    }

    /// MACs one transport envelope: `tag = HMAC(key, 0x01 ‖ seq ‖ payload)`.
    /// The sequence number under the MAC is what turns reordering and
    /// replay into detectable tampering.
    pub fn mac_envelope(&self, platform: &Platform, seq: u64, payload: &[u8]) -> Digest {
        platform.charge_hash(payload.len() + 9 + 64);
        self.0.mac(&[&[DOMAIN_CHANNEL], &seq.to_le_bytes(), payload])
    }

    fn mac_announcement(&self, node: u32, epoch: u64, commitments: &Digest) -> Digest {
        self.0.mac(&[
            &[DOMAIN_ANNOUNCE],
            &node.to_le_bytes(),
            &epoch.to_le_bytes(),
            commitments.as_bytes(),
        ])
    }
}

/// A signed version-install announcement: "node `node`'s enclave, at
/// epoch `epoch`, holds the level-commitment snapshot digested as
/// `commitments`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Announcement {
    /// The announcing node's id within its replication group (0 is the
    /// founding primary; replicas follow).
    pub node: u32,
    /// The installed version's epoch.
    pub epoch: u64,
    /// [`TrustedState::snapshot_digest`] of that epoch's commitments.
    pub commitments: Digest,
    /// HMAC over the three fields under the group [`SessionKey`].
    pub mac: Digest,
}

/// Serialized announcement size ([`Announcement::encode`]).
const ANNOUNCEMENT_BYTES: usize = 4 + 8 + 32 + 32;

impl Announcement {
    /// Signs an announcement of `state`'s commitment snapshot at `epoch`.
    /// Returns `None` when that epoch's snapshot already drained.
    pub fn sign(
        platform: &Platform,
        state: &TrustedState,
        node: u32,
        epoch: u64,
        key: &SessionKey,
    ) -> Option<Self> {
        let commitments = state.snapshot_digest(epoch)?;
        Some(Self::sign_digest(platform, node, epoch, commitments, key))
    }

    /// Signs an arbitrary commitment digest as `epoch`'s announcement —
    /// the raw signing oracle. An honest node only ever signs through
    /// [`Announcement::sign`]; this entry exists because a *compromised*
    /// primary enclave is exactly such an oracle, and the fork-detection
    /// tests need to produce what it would.
    pub fn sign_digest(
        platform: &Platform,
        node: u32,
        epoch: u64,
        commitments: Digest,
        key: &SessionKey,
    ) -> Self {
        platform.charge_hash(ANNOUNCEMENT_BYTES + 64);
        let mac = key.mac_announcement(node, epoch, &commitments);
        Announcement { node, epoch, commitments, mac }
    }

    /// Verifies the signature. Charges hashing to `platform`.
    pub fn verify(&self, platform: &Platform, key: &SessionKey) -> bool {
        platform.charge_hash(ANNOUNCEMENT_BYTES + 64);
        verify_tag(&key.mac_announcement(self.node, self.epoch, &self.commitments), &self.mac)
    }

    /// Serializes for shipping/relaying.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ANNOUNCEMENT_BYTES);
        out.extend_from_slice(&self.node.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(self.commitments.as_bytes());
        out.extend_from_slice(self.mac.as_bytes());
        out
    }

    /// Parses a serialized announcement (signature **not** yet checked).
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() != ANNOUNCEMENT_BYTES {
            return None;
        }
        let node = u32::from_le_bytes(buf[0..4].try_into().ok()?);
        let epoch = u64::from_le_bytes(buf[4..12].try_into().ok()?);
        let commitments = Digest::from_bytes(buf[12..44].try_into().ok()?);
        let mac = Digest::from_bytes(buf[44..76].try_into().ok()?);
        Some(Announcement { node, epoch, commitments, mac })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announcements_sign_verify_and_round_trip() {
        let platform = Platform::with_defaults();
        let state = TrustedState::new(platform.clone(), 4);
        let key = SessionKey::derive(b"group-1");
        let a = Announcement::sign(&platform, &state, 0, 0, &key).expect("epoch 0 published");
        assert!(a.verify(&platform, &key));
        let decoded = Announcement::decode(&a.encode()).unwrap();
        assert_eq!(decoded, a);
        assert!(decoded.verify(&platform, &key));
        // Wrong key, tampered field, drained epoch: all rejected.
        assert!(!a.verify(&platform, &SessionKey::derive(b"group-2")));
        let mut forged = a.clone();
        forged.epoch = 7;
        assert!(!forged.verify(&platform, &key));
        assert!(Announcement::sign(&platform, &state, 0, 99, &key).is_none());
    }

    #[test]
    fn one_bit_off_signature_rejected() {
        let platform = Platform::with_defaults();
        let key = SessionKey::derive(b"group-1");
        let honest = Announcement::sign_digest(&platform, 1, 7, elsm_crypto::sha256(b"c"), &key);
        assert!(honest.verify(&platform, &key));
        for bit in [0usize, 7, 128, 255] {
            let mut mac = honest.mac.into_bytes();
            mac[bit / 8] ^= 1 << (bit % 8);
            let forged = Announcement { mac: Digest::from_bytes(mac), ..honest.clone() };
            assert!(!forged.verify(&platform, &key), "bit {bit}");
        }
    }

    #[test]
    fn envelope_macs_bind_the_sequence() {
        let platform = Platform::with_defaults();
        let key = SessionKey::derive(b"group-1");
        let m1 = key.mac_envelope(&platform, 1, b"payload");
        assert_eq!(m1, key.mac_envelope(&platform, 1, b"payload"));
        assert_ne!(m1, key.mac_envelope(&platform, 2, b"payload"));
        assert_ne!(m1, key.mac_envelope(&platform, 1, b"payloae"));
    }

    #[test]
    fn snapshot_digests_separate_shard_domains() {
        let platform = Platform::with_defaults();
        let plain = TrustedState::new(platform.clone(), 4);
        let shard0 = TrustedState::new_in_domain(platform.clone(), 4, Some(0));
        let shard1 = TrustedState::new_in_domain(platform, 4, Some(1));
        let d = |s: &TrustedState| s.snapshot_digest(0).unwrap();
        assert_ne!(d(&plain), d(&shard0));
        assert_ne!(d(&shard0), d(&shard1));
    }
}
