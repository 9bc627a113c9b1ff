//! HMAC-SHA256 per RFC 2104 / FIPS 198-1, with RFC 4231 test vectors.

use crate::digest::Digest;
use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA256 key with its pads already absorbed.
///
/// HMAC hashes `key ⊕ ipad` before the message and `key ⊕ opad` before the
/// inner digest; both are one full block that depends on the key alone.
/// `HmacKey` compresses them once and keeps the two midstates, so a MAC
/// costs the message's blocks plus one outer block instead of re-deriving
/// the pads per call (5 → 3 compressions for a 64-byte message). Holders of
/// a long-lived key (the verified cache, a replication session, an AEAD
/// key) keep one of these instead of the raw key bytes.
///
/// # Examples
///
/// ```
/// use elsm_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(&[b"mes", b"sage"]), hmac_sha256(b"key", b"message"));
/// assert_ne!(key.mac(&[b"message"]), hmac_sha256(b"key2", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after absorbing `key ⊕ ipad`.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ⊕ opad`.
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key-equivalent: never print them.
        f.write_str("HmacKey(..)")
    }
}

impl HmacKey {
    /// Prepares `key` (any length; keys longer than a block are hashed
    /// first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacKey { inner: pad(0x36), outer: pad(0x5c) }
    }

    /// The tag of the concatenation of `parts` (no message buffer is built).
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256 for a key used once; see [`HmacKey`] for a key
/// that MACs many messages.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[message])
}

/// Constant-time tag comparison.
///
/// Avoids early-exit timing differences when verifying MACs; every
/// comparison of a tag against bytes the untrusted side supplied (AEAD
/// tags, channel envelopes, announcements, cache entries) goes through it.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// The RFC 4231 cases again through a prepared key, with the message
    /// split at every position: midstates + parts must equal the one-shot.
    #[test]
    fn rfc4231_through_hmac_key() {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, want) in cases {
            let prepared = HmacKey::new(key);
            assert_eq!(prepared.mac(&[msg]).to_hex(), want);
            for cut in 0..=msg.len() {
                assert_eq!(prepared.mac(&[&msg[..cut], &msg[cut..]]).to_hex(), want, "cut {cut}");
            }
            // A key is reusable: the midstates are not consumed.
            assert_eq!(prepared.mac(&[msg]), hmac_sha256(key, msg));
        }
    }

    #[test]
    fn debug_hides_key_material() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(..)");
    }

    #[test]
    fn verify_tag_works() {
        let t1 = hmac_sha256(b"k", b"m");
        let t2 = hmac_sha256(b"k", b"m");
        let t3 = hmac_sha256(b"k", b"n");
        assert!(verify_tag(&t1, &t2));
        assert!(!verify_tag(&t1, &t3));
        // Every single-bit difference is a mismatch, wherever it sits.
        for bit in 0..256 {
            let mut bytes = t1.into_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(!verify_tag(&t1, &Digest::from_bytes(bytes)), "bit {bit}");
        }
    }
}
