//! Enclave sealing: encrypt-and-authenticate data for untrusted storage.
//!
//! SGX derives sealing keys from the CPU's fuse key and the enclave
//! measurement, so only the same enclave on the same machine can unseal.
//! The simulator models this with a [`Sealer`] holding an AEAD key derived
//! from a measurement digest. eLSM-P1 uses sealing at *file granularity*
//! (Table 1): every SSTable block written outside the enclave is sealed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use elsm_crypto::aead::{nonce_from_u64s, AeadError, AeadKey, NONCE_LEN};
use elsm_crypto::{sha256_concat, Digest};

/// A sealed blob: nonce plus ciphertext-and-tag, safe to store untrusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    nonce: [u8; NONCE_LEN],
    ciphertext: Vec<u8>,
}

impl SealedBlob {
    /// Total stored size in bytes (nonce + ciphertext + tag).
    pub fn stored_len(&self) -> usize {
        NONCE_LEN + self.ciphertext.len()
    }

    /// Serializes the blob to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.stored_len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses a blob serialized by [`SealedBlob::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`SealError`] if the input is shorter than a nonce.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SealError> {
        if bytes.len() < NONCE_LEN {
            return Err(SealError);
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&bytes[..NONCE_LEN]);
        Ok(SealedBlob { nonce, ciphertext: bytes[NONCE_LEN..].to_vec() })
    }
}

/// Seals and unseals blobs under a measurement-derived key.
pub struct Sealer {
    key: AeadKey,
    measurement: Digest,
    nonce_counter: AtomicU64,
}

impl fmt::Debug for Sealer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sealer(measurement={})", self.measurement.short_hex())
    }
}

impl Sealer {
    /// Derives a sealer for the enclave identified by `measurement` on the
    /// machine identified by `machine_secret`.
    pub fn new(measurement: Digest, machine_secret: &[u8]) -> Self {
        let master = sha256_concat(&[measurement.as_bytes(), machine_secret]);
        Sealer {
            key: AeadKey::derive(master.as_bytes()),
            measurement,
            nonce_counter: AtomicU64::new(0),
        }
    }

    /// Seals `plaintext` with authenticated `aad` (e.g., file name + block
    /// number, so blobs cannot be swapped between locations).
    pub fn seal(&self, aad: &[u8], plaintext: &[u8]) -> SealedBlob {
        let n = self.nonce_counter.fetch_add(1, Ordering::Relaxed);
        let nonce = nonce_from_u64s(n, 0x5ea1_ed00);
        let ciphertext = self.key.seal(&nonce, aad, plaintext);
        SealedBlob { nonce, ciphertext }
    }

    /// Unseals a blob, verifying integrity and the binding to `aad`.
    ///
    /// # Errors
    ///
    /// Returns [`SealError`] if authentication fails (tampered blob, wrong
    /// location, or a different enclave's blob).
    pub fn unseal(&self, aad: &[u8], blob: &SealedBlob) -> Result<Vec<u8>, SealError> {
        self.key.open(&blob.nonce, aad, &blob.ciphertext).map_err(|AeadError| SealError)
    }
}

/// Failure to unseal or parse a sealed blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealError;

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sealed blob failed authentication")
    }
}

impl std::error::Error for SealError {}

#[cfg(test)]
mod tests {
    use super::*;
    use elsm_crypto::sha256::sha256;

    fn sealer() -> Sealer {
        Sealer::new(sha256(b"enclave code v1"), b"machine-0")
    }

    #[test]
    fn seal_unseal_round_trip() {
        let s = sealer();
        let blob = s.seal(b"file=1,block=0", b"block contents");
        assert_eq!(s.unseal(b"file=1,block=0", &blob).unwrap(), b"block contents");
    }

    #[test]
    fn wrong_aad_rejected() {
        let s = sealer();
        let blob = s.seal(b"file=1,block=0", b"block contents");
        assert_eq!(s.unseal(b"file=1,block=1", &blob), Err(SealError));
    }

    #[test]
    fn different_enclave_cannot_unseal() {
        let s1 = sealer();
        let s2 = Sealer::new(sha256(b"different code"), b"machine-0");
        let blob = s1.seal(b"aad", b"secret");
        assert_eq!(s2.unseal(b"aad", &blob), Err(SealError));
    }

    #[test]
    fn different_machine_cannot_unseal() {
        let s1 = sealer();
        let s2 = Sealer::new(sha256(b"enclave code v1"), b"machine-1");
        let blob = s1.seal(b"aad", b"secret");
        assert_eq!(s2.unseal(b"aad", &blob), Err(SealError));
    }

    #[test]
    fn tampered_blob_rejected() {
        let s = sealer();
        let blob = s.seal(b"aad", b"secret");
        let mut bytes = blob.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let tampered = SealedBlob::from_bytes(&bytes).unwrap();
        assert_eq!(s.unseal(b"aad", &tampered), Err(SealError));
    }

    #[test]
    fn serialization_round_trip() {
        let s = sealer();
        let blob = s.seal(b"aad", b"payload");
        let parsed = SealedBlob::from_bytes(&blob.to_bytes()).unwrap();
        assert_eq!(parsed, blob);
        assert_eq!(s.unseal(b"aad", &parsed).unwrap(), b"payload");
    }

    #[test]
    fn truncated_bytes_rejected() {
        assert_eq!(SealedBlob::from_bytes(b"short"), Err(SealError));
    }

    #[test]
    fn nonces_are_unique_per_seal() {
        let s = sealer();
        let a = s.seal(b"", b"same");
        let b = s.seal(b"", b"same");
        assert_ne!(a, b, "two seals of identical plaintext must differ");
    }
}
