//! Deterministic encryption (DE) for data keys (§5.6.2 of the paper).
//!
//! eLSM encrypts data keys deterministically so the untrusted host can
//! search the ciphertext domain directly. The paper uses the SGX SDK AES
//! primitive in a deterministic mode; here we build a length-preserving-ish
//! deterministic scheme from scratch:
//!
//! * a 4-round Feistel network whose round function is HMAC-SHA256, giving a
//!   pseudorandom permutation over byte strings of each length (Luby–Rackoff),
//! * equality of plaintexts ⇔ equality of ciphertexts, which is exactly the
//!   leakage deterministic encryption is defined to allow.
//!
//! Note that ciphertext order does **not** follow plaintext order — range
//! queries over encrypted keys use [`super::ope`] instead.

use std::fmt;

use elsm_crypto::hmac::hmac_sha256;

/// Key for deterministic encryption of data keys.
#[derive(Clone)]
pub struct DetKey {
    rounds: [[u8; 32]; 4],
}

impl fmt::Debug for DetKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DetKey(..)")
    }
}

impl DetKey {
    /// Derives a deterministic-encryption key from master key material.
    pub fn derive(master: &[u8]) -> Self {
        let mut rounds = [[0u8; 32]; 4];
        for (i, r) in rounds.iter_mut().enumerate() {
            *r = hmac_sha256(master, format!("elsm/det/round{i}").as_bytes()).into_bytes();
        }
        DetKey { rounds }
    }

    fn round(&self, i: usize, data: &[u8], out_len: usize) -> Vec<u8> {
        // Expand HMAC output to out_len bytes (counter-mode expansion).
        let mut out = Vec::with_capacity(out_len);
        let mut ctr = 0u32;
        while out.len() < out_len {
            let mut msg = Vec::with_capacity(data.len() + 4);
            msg.extend_from_slice(&ctr.to_be_bytes());
            msg.extend_from_slice(data);
            let block = hmac_sha256(&self.rounds[i], &msg);
            let take = (out_len - out.len()).min(32);
            out.extend_from_slice(&block.as_bytes()[..take]);
            ctr += 1;
        }
        out
    }

    /// Deterministically encrypts `plaintext`.
    ///
    /// Inputs shorter than 2 bytes are padded internally (a length prefix is
    /// added), so all inputs round-trip exactly through [`DetKey::decrypt`].
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        // Prefix with a 2-byte length so tiny inputs still split into two
        // non-trivial Feistel halves, then run the 4-round network.
        let mut buf = Vec::with_capacity(plaintext.len() + 2);
        buf.extend_from_slice(&(plaintext.len() as u16).to_be_bytes());
        buf.extend_from_slice(plaintext);
        if buf.len() < 4 {
            buf.resize(4, 0);
        }
        let mid = buf.len() / 2;
        let (mut left, mut right) = (buf[..mid].to_vec(), buf[mid..].to_vec());
        for i in 0..4 {
            let f = self.round(i, &right, left.len());
            for (l, fb) in left.iter_mut().zip(&f) {
                *l ^= fb;
            }
            std::mem::swap(&mut left, &mut right);
        }
        let mut out = left;
        out.extend_from_slice(&right);
        out
    }

    /// Inverts [`DetKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`DetError`] if the ciphertext was not produced by this key
    /// (detected via the embedded length prefix being inconsistent).
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, DetError> {
        if ciphertext.len() < 4 {
            return Err(DetError);
        }
        let mid = ciphertext.len() / 2;
        let (mut left, mut right) = (ciphertext[..mid].to_vec(), ciphertext[mid..].to_vec());
        for i in (0..4).rev() {
            std::mem::swap(&mut left, &mut right);
            let f = self.round(i, &right, left.len());
            for (l, fb) in left.iter_mut().zip(&f) {
                *l ^= fb;
            }
        }
        let mut buf = left;
        buf.extend_from_slice(&right);
        let len = u16::from_be_bytes([buf[0], buf[1]]) as usize;
        if len + 2 > buf.len() {
            return Err(DetError);
        }
        // All padding bytes beyond the declared length must be zero.
        if buf[2 + len..].iter().any(|&b| b != 0) {
            return Err(DetError);
        }
        Ok(buf[2..2 + len].to_vec())
    }
}

/// Failure decrypting a deterministic ciphertext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetError;

impl fmt::Display for DetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("deterministic ciphertext is malformed for this key")
    }
}

impl std::error::Error for DetError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> DetKey {
        DetKey::derive(b"det master")
    }

    #[test]
    fn round_trip_various_lengths() {
        let k = key();
        for n in [0usize, 1, 2, 3, 4, 5, 16, 17, 100, 1000] {
            let pt: Vec<u8> = (0..n).map(|i| (i * 7 % 256) as u8).collect();
            let ct = k.encrypt(&pt);
            assert_eq!(k.decrypt(&ct).unwrap(), pt, "length {n}");
        }
    }

    #[test]
    fn deterministic_equality() {
        let k = key();
        assert_eq!(k.encrypt(b"samekey"), k.encrypt(b"samekey"));
        assert_ne!(k.encrypt(b"samekey"), k.encrypt(b"samekeZ"));
    }

    #[test]
    fn different_keys_differ() {
        let k1 = key();
        let k2 = DetKey::derive(b"other det master");
        assert_ne!(k1.encrypt(b"hello"), k2.encrypt(b"hello"));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let k = key();
        let ct = k.encrypt(b"hello world, this is a key");
        // The ciphertext must not contain the plaintext as a substring.
        assert!(!ct.windows(5).any(|w| w == b"hello" || w == b"world"));
    }

    #[test]
    fn wrong_key_decrypt_fails_or_differs() {
        let k1 = key();
        let k2 = DetKey::derive(b"other det master");
        let ct = k1.encrypt(b"payload");
        match k2.decrypt(&ct) {
            Err(DetError) => {}
            Ok(pt) => assert_ne!(pt, b"payload"),
        }
    }

    #[test]
    fn short_ciphertext_rejected() {
        assert_eq!(key().decrypt(b"abc"), Err(DetError));
    }
}
