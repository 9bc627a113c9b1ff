//! Authenticated encryption with associated data (AEAD).
//!
//! The paper's implementation uses the SGX SDK's
//! `sgx_rijndael128gcm_encrypt`. AES-GCM is not available in the offline
//! crate set, so this module provides an equivalent *encrypt-then-MAC*
//! construction built from the primitives in this crate:
//!
//! * keystream: SHA-256 in counter mode keyed by an encryption subkey
//!   (a standard PRF-as-stream-cipher construction),
//! * integrity: HMAC-SHA256 over `nonce ‖ associated data ‖ ciphertext`
//!   with an independent MAC subkey.
//!
//! The construction is IND-CCA secure assuming SHA-256 is a PRF, which is
//! the same assumption level the protocol analysis in the paper needs. The
//! substitution is recorded in DESIGN.md §1.

use std::fmt;

use crate::digest::Digest;
use crate::hmac::{hmac_sha256, verify_tag, HmacKey};
use crate::sha256::sha256_concat;

/// Byte length of AEAD nonces.
pub const NONCE_LEN: usize = 12;
/// Byte length of authentication tags.
const TAG_LEN: usize = 32;

/// A symmetric AEAD key.
///
/// Internally derives independent encryption and MAC subkeys so that the
/// encrypt-then-MAC composition is standard.
#[derive(Clone)]
pub struct AeadKey {
    enc_key: [u8; 32],
    mac_key: HmacKey,
}

impl fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.write_str("AeadKey(..)")
    }
}

impl AeadKey {
    /// Derives an AEAD key from arbitrary key material.
    pub fn derive(master: &[u8]) -> Self {
        let enc = hmac_sha256(master, b"elsm/aead/enc");
        let mac = hmac_sha256(master, b"elsm/aead/mac");
        AeadKey { enc_key: enc.into_bytes(), mac_key: HmacKey::new(mac.as_bytes()) }
    }

    /// The encrypt-then-MAC tag over `nonce ‖ len(aad) ‖ aad ‖ ciphertext`.
    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ciphertext: &[u8]) -> Digest {
        self.mac_key.mac(&[nonce, &(aad.len() as u64).to_be_bytes(), aad, ciphertext])
    }

    fn keystream_block(&self, nonce: &[u8; NONCE_LEN], counter: u64) -> Digest {
        sha256_concat(&[&self.enc_key, nonce, &counter.to_be_bytes()])
    }

    fn xor_keystream(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        for (block_idx, chunk) in data.chunks_mut(32).enumerate() {
            let ks = self.keystream_block(nonce, block_idx as u64);
            for (b, k) in chunk.iter_mut().zip(ks.as_bytes()) {
                *b ^= k;
            }
        }
    }

    /// Encrypts `plaintext` with the given `nonce` and associated data,
    /// returning `ciphertext ‖ tag`.
    ///
    /// Nonces must not repeat under the same key for distinct messages.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        self.xor_keystream(nonce, &mut out);
        let tag = self.tag(nonce, aad, &out);
        out.extend_from_slice(tag.as_bytes());
        out
    }

    /// Decrypts and authenticates `ciphertext ‖ tag`.
    ///
    /// # Errors
    ///
    /// Returns [`AeadError`] when the tag does not verify (forged or
    /// corrupted ciphertext, wrong AAD, wrong nonce) or when the input is
    /// shorter than a tag.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, AeadError> {
        if ciphertext_and_tag.len() < TAG_LEN {
            return Err(AeadError);
        }
        let split = ciphertext_and_tag.len() - TAG_LEN;
        let (ct, tag_bytes) = ciphertext_and_tag.split_at(split);
        let expect = self.tag(nonce, aad, ct);
        let mut tag = [0u8; 32];
        tag.copy_from_slice(tag_bytes);
        if !verify_tag(&expect, &Digest::from_bytes(tag)) {
            return Err(AeadError);
        }
        let mut out = ct.to_vec();
        self.xor_keystream(nonce, &mut out);
        Ok(out)
    }
}

/// Deterministically derives a nonce from a 96-bit-truncated counter; used
/// for file blocks where each (file id, block number) pair is unique.
pub fn nonce_from_u64s(a: u64, b: u32) -> [u8; NONCE_LEN] {
    let mut n = [0u8; NONCE_LEN];
    n[..8].copy_from_slice(&a.to_be_bytes());
    n[8..].copy_from_slice(&b.to_be_bytes());
    n
}

/// Authentication failure during [`AeadKey::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl fmt::Display for AeadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("aead authentication failed")
    }
}

impl std::error::Error for AeadError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AeadKey {
        AeadKey::derive(b"test master key")
    }

    #[test]
    fn round_trip() {
        let k = key();
        let n = nonce_from_u64s(1, 2);
        let ct = k.seal(&n, b"aad", b"secret payload");
        assert_eq!(k.open(&n, b"aad", &ct).unwrap(), b"secret payload");
    }

    #[test]
    fn empty_plaintext_round_trip() {
        let k = key();
        let n = nonce_from_u64s(0, 0);
        let ct = k.seal(&n, b"", b"");
        assert_eq!(ct.len(), TAG_LEN);
        assert_eq!(k.open(&n, b"", &ct).unwrap(), b"");
    }

    #[test]
    fn tamper_detected() {
        let k = key();
        let n = nonce_from_u64s(3, 4);
        let mut ct = k.seal(&n, b"", b"data that matters");
        ct[0] ^= 1;
        assert_eq!(k.open(&n, b"", &ct), Err(AeadError));
    }

    #[test]
    fn tag_tamper_detected() {
        let k = key();
        let n = nonce_from_u64s(3, 4);
        let mut ct = k.seal(&n, b"", b"data");
        let last = ct.len() - 1;
        ct[last] ^= 0x80;
        assert_eq!(k.open(&n, b"", &ct), Err(AeadError));
    }

    #[test]
    fn wrong_aad_rejected() {
        let k = key();
        let n = nonce_from_u64s(5, 6);
        let ct = k.seal(&n, b"block=1", b"data");
        assert_eq!(k.open(&n, b"block=2", &ct), Err(AeadError));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let k = key();
        let ct = k.seal(&nonce_from_u64s(1, 0), b"", b"data");
        assert_eq!(k.open(&nonce_from_u64s(2, 0), b"", &ct), Err(AeadError));
    }

    #[test]
    fn wrong_key_rejected() {
        let ct = key().seal(&nonce_from_u64s(1, 0), b"", b"data");
        let other = AeadKey::derive(b"other key");
        assert_eq!(other.open(&nonce_from_u64s(1, 0), b"", &ct), Err(AeadError));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let k = key();
        let n = nonce_from_u64s(9, 9);
        let pt = vec![0u8; 100];
        let ct = k.seal(&n, b"", &pt);
        assert_ne!(&ct[..100], &pt[..]);
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(key().open(&nonce_from_u64s(0, 0), b"", b"short"), Err(AeadError));
    }

    #[test]
    fn large_payload_round_trip() {
        let k = key();
        let n = nonce_from_u64s(7, 7);
        let pt: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let ct = k.seal(&n, b"big", &pt);
        assert_eq!(k.open(&n, b"big", &ct).unwrap(), pt);
    }
}
