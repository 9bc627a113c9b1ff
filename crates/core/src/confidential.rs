//! Data confidentiality layer (§5.6.2).
//!
//! Wraps an [`ElsmP2`] store so the untrusted world only ever sees
//! ciphertext:
//!
//! * data **keys** are deterministically encrypted (so the host can still
//!   search equality over ciphertext), prefixed with an order-preserving
//!   encoding so range queries remain possible — the paper's DE + OPE
//!   combination;
//! * data **values** are AEAD-encrypted with the key ciphertext as
//!   associated data (values cannot be swapped between keys).
//!
//! Like every DE/OPE system (CryptDB, Speicher), equality and order of
//! keys intentionally leak; the paper accepts the same leakage.

use std::sync::Arc;

use elsm_crypto::aead::nonce_from_u64s;
use elsm_crypto::{AeadKey, DetKey, OpeKey};
use lsm_store::Timestamp;
use sgx_sim::Platform;

use crate::api::{AuthenticatedKv, VerifiedRecord};
use crate::error::{ElsmError, VerificationFailure};
use crate::p2::{ElsmP2, P2Options};

/// An authenticated **and** confidential key-value store.
///
/// # Examples
///
/// ```
/// use elsm::{AuthenticatedKv, ConfidentialStore, P2Options};
/// use sgx_sim::Platform;
///
/// # fn main() -> Result<(), elsm::ElsmError> {
/// let store = ConfidentialStore::open(
///     Platform::with_defaults(), P2Options::default(), b"tenant master key")?;
/// store.put(b"alice", b"balance=10")?;
/// assert_eq!(store.get(b"alice")?.unwrap().value(), b"balance=10");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ConfidentialStore {
    inner: ElsmP2,
    det: DetKey,
    ope: OpeKey,
    aead: AeadKey,
    platform: Arc<Platform>,
}

impl ConfidentialStore {
    /// Opens a confidential store deriving all keys from `master`.
    ///
    /// # Errors
    ///
    /// Returns [`ElsmError`] on IO failure.
    pub fn open(
        platform: Arc<Platform>,
        options: P2Options,
        master: &[u8],
    ) -> Result<Self, ElsmError> {
        let inner = ElsmP2::open(platform.clone(), options)?;
        Ok(ConfidentialStore {
            inner,
            det: DetKey::derive(master),
            ope: OpeKey::derive(master),
            aead: AeadKey::derive(master),
            platform,
        })
    }

    /// The wrapped authenticated store.
    pub fn inner(&self) -> &ElsmP2 {
        &self.inner
    }

    /// Encrypted key layout: `[16-byte big-endian OPE code][DET ciphertext]`.
    fn encrypt_key(&self, key: &[u8]) -> Vec<u8> {
        self.platform.charge_hash(key.len() * 3); // OPE walk + DET rounds
        let code = elsm_crypto::ope::encode_prefix(&self.ope, key);
        let mut out = Vec::with_capacity(16 + key.len() + 2);
        out.extend_from_slice(&code.to_be_bytes());
        out.extend_from_slice(&self.det.encrypt(key));
        out
    }

    fn decrypt_key(&self, enc: &[u8]) -> Result<Vec<u8>, ElsmError> {
        let det_part = enc.get(16..).ok_or(VerificationFailure::SealBroken)?;
        self.det.decrypt(det_part).map_err(|_| VerificationFailure::SealBroken.into())
    }

    fn encrypt_value(&self, enc_key: &[u8], ts_hint: u64, value: &[u8]) -> Vec<u8> {
        self.platform.charge_hash(value.len() + 64);
        let nonce = nonce_from_u64s(ts_hint, 0xc0df);
        let mut out = Vec::with_capacity(8 + value.len() + 44);
        out.extend_from_slice(&ts_hint.to_be_bytes());
        out.extend_from_slice(&self.aead.seal(&nonce, enc_key, value));
        out
    }

    fn decrypt_value(&self, enc_key: &[u8], stored: &[u8]) -> Result<Vec<u8>, ElsmError> {
        let hint = stored.get(..8).ok_or(VerificationFailure::SealBroken)?;
        let ts_hint = u64::from_be_bytes(hint.try_into().expect("8 bytes"));
        let nonce = nonce_from_u64s(ts_hint, 0xc0df);
        self.platform.charge_hash(stored.len() + 64);
        self.aead
            .open(&nonce, enc_key, &stored[8..])
            .map_err(|_| VerificationFailure::SealBroken.into())
    }
}

static NONCE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl AuthenticatedKv for ConfidentialStore {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<Timestamp, ElsmError> {
        let enc_key = self.encrypt_key(key);
        let seq = NONCE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let enc_value = self.encrypt_value(&enc_key, seq, value);
        self.inner.put(&enc_key, &enc_value)
    }

    fn delete(&self, key: &[u8]) -> Result<Timestamp, ElsmError> {
        self.inner.delete(&self.encrypt_key(key))
    }

    fn get(&self, key: &[u8]) -> Result<Option<VerifiedRecord>, ElsmError> {
        let enc_key = self.encrypt_key(key);
        match self.inner.get(&enc_key)? {
            Some(rec) => {
                let value = self.decrypt_value(&enc_key, rec.value())?;
                Ok(Some(VerifiedRecord::new(
                    bytes::Bytes::copy_from_slice(key),
                    bytes::Bytes::from(value),
                    rec.ts(),
                    rec.proof_bytes(),
                    rec.levels_checked(),
                )))
            }
            None => Ok(None),
        }
    }

    fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<Vec<Timestamp>, ElsmError> {
        // Encrypt the whole batch up front (the per-byte cryptographic work
        // is inherent), then ride the inner store's single batch ECall.
        let encrypted: Vec<(Vec<u8>, Vec<u8>)> = items
            .iter()
            .map(|(key, value)| {
                let enc_key = self.encrypt_key(key);
                let seq = NONCE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let enc_value = self.encrypt_value(&enc_key, seq, value);
                (enc_key, enc_value)
            })
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            encrypted.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        self.inner.put_batch(&refs)
    }

    fn delete_batch(&self, keys: &[&[u8]]) -> Result<Vec<Timestamp>, ElsmError> {
        let encrypted: Vec<Vec<u8>> = keys.iter().map(|key| self.encrypt_key(key)).collect();
        let refs: Vec<&[u8]> = encrypted.iter().map(Vec::as_slice).collect();
        self.inner.delete_batch(&refs)
    }

    fn scan(&self, from: &[u8], to: &[u8]) -> Result<Vec<VerifiedRecord>, ElsmError> {
        // OPE codes bound the encrypted range; DET suffixes are covered by
        // scanning the full code interval and post-filtering exactly.
        let lo_code = elsm_crypto::ope::encode_prefix(&self.ope, from);
        let hi_code = elsm_crypto::ope::encode_prefix(&self.ope, to);
        let lo = lo_code.to_be_bytes().to_vec();
        let mut hi = hi_code.to_be_bytes().to_vec();
        hi.extend_from_slice(&[0xff; 40]); // cover all DET suffixes
        let mut out = Vec::new();
        for rec in self.inner.scan(&lo, &hi)? {
            let plain_key = self.decrypt_key(rec.key())?;
            if plain_key.as_slice() < from || plain_key.as_slice() > to {
                continue; // OPE prefix collision outside the exact range
            }
            let value = self.decrypt_value(rec.key(), rec.value())?;
            out.push(VerifiedRecord::new(
                bytes::Bytes::from(plain_key),
                bytes::Bytes::from(value),
                rec.ts(),
                rec.proof_bytes(),
                rec.levels_checked(),
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ConfidentialStore {
        ConfidentialStore::open(
            Platform::with_defaults(),
            P2Options {
                write_buffer_bytes: 4 * 1024,
                level1_max_bytes: 16 * 1024,
                ..P2Options::default()
            },
            b"master key",
        )
        .unwrap()
    }

    #[test]
    fn put_get_round_trip() {
        let s = store();
        s.put(b"alice", b"v-alice").unwrap();
        s.put(b"bob", b"v-bob").unwrap();
        assert_eq!(s.get(b"alice").unwrap().unwrap().value(), b"v-alice");
        assert_eq!(s.get(b"bob").unwrap().unwrap().value(), b"v-bob");
        assert!(s.get(b"carol").unwrap().is_none());
    }

    #[test]
    fn untrusted_world_sees_no_plaintext() {
        let s = store();
        for i in 0..200 {
            s.put(format!("user{i:04}").as_bytes(), b"topsecret-value").unwrap();
        }
        s.inner().db().flush().unwrap();
        for name in s.inner().fs().list() {
            let f = s.inner().fs().open(&name).unwrap();
            let bytes = f.peek(0, f.len()).unwrap();
            assert!(
                !bytes.windows(9).any(|w| w == b"topsecret"),
                "plaintext value leaked into {name}"
            );
            assert!(!bytes.windows(4).any(|w| w == b"user"), "plaintext key leaked into {name}");
        }
    }

    #[test]
    fn range_queries_work_over_ciphertext() {
        let s = store();
        for name in ["alice", "bob", "carol", "dave", "erin"] {
            s.put(name.as_bytes(), format!("v-{name}").as_bytes()).unwrap();
        }
        let got = s.scan(b"bob", b"dave").unwrap();
        let keys: Vec<&[u8]> = got.iter().map(|r| r.key()).collect();
        assert_eq!(keys, vec![b"bob".as_slice(), b"carol".as_slice(), b"dave".as_slice()]);
        assert_eq!(got[1].value(), b"v-carol");
    }

    #[test]
    fn overwrites_return_newest_plaintext() {
        let s = store();
        s.put(b"k", b"v1").unwrap();
        s.put(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap().unwrap().value(), b"v2");
    }

    #[test]
    fn deletes_hide_keys() {
        let s = store();
        s.put(b"k", b"v").unwrap();
        s.delete(b"k").unwrap();
        assert!(s.get(b"k").unwrap().is_none());
    }

    #[test]
    fn deterministic_keys_enable_equality_search() {
        let s = store();
        let k1 = s.encrypt_key(b"same");
        let k2 = s.encrypt_key(b"same");
        assert_eq!(k1, k2, "DE must be deterministic for host-side search");
    }
}
