//! Order-preserving encoding (OPE) for range-queryable encrypted keys
//! (§5.6.2 of the paper).
//!
//! The paper points at Boldyreva-style OPE for range queries over encrypted
//! data keys. This module implements a keyed, stateless order-preserving
//! encoding over `u64` plaintexts using the classic *interval splitting*
//! construction: the ciphertext space `[0, 2^127)` is recursively split at a
//! pseudorandom point for each node of the implicit binary trie over
//! plaintext bits. Walking the plaintext's bit path narrows the interval;
//! the code is the lower end of the leaf interval. Intervals of sibling
//! subtrees are disjoint and ordered, so the encoding is *exactly*
//! order-preserving:
//!
//! `a < b  ⇔  encode(a) < encode(b)`
//!
//! Like every OPE, the scheme intentionally leaks order; that is the price
//! of server-side range filtering, and the paper accepts the same leakage.

use std::fmt;

use elsm_crypto::hmac::hmac_sha256;

/// Bits of plaintext domain (full `u64`).
const DOMAIN_BITS: u32 = 64;

/// Total ciphertext width: leaves keep ≥ 2^30 width even on the worst path.
const ROOT_WIDTH: u128 = 1u128 << 127;

/// Key for order-preserving encoding of `u64` keys into `u128` codes.
#[derive(Clone)]
pub struct OpeKey {
    key: [u8; 32],
}

impl fmt::Debug for OpeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OpeKey(..)")
    }
}

impl OpeKey {
    /// Derives an OPE key from master key material.
    pub fn derive(master: &[u8]) -> Self {
        OpeKey { key: hmac_sha256(master, b"elsm/ope").into_bytes() }
    }

    /// Pseudorandom split fraction for trie node (`depth`, `prefix`),
    /// expressed as a numerator over 2^16 in `[3/8, 5/8]` so both children
    /// keep a constant fraction of the parent interval.
    fn split_num(&self, depth: u32, prefix: u64) -> u128 {
        let mut msg = [0u8; 12];
        msg[..4].copy_from_slice(&depth.to_be_bytes());
        msg[4..].copy_from_slice(&prefix.to_be_bytes());
        let h = hmac_sha256(&self.key, &msg);
        let b = h.as_bytes();
        let r14 = u128::from(u16::from_be_bytes([b[0], b[1]]) >> 2); // [0, 2^14)
        (3u128 << 13) + r14 // [3·2^13, 5·2^13) ⊂ [3/8, 5/8) · 2^16
    }

    /// Encodes `x` order-preservingly into a `u128` code.
    ///
    /// # Examples
    ///
    /// ```
    /// let k = elsm::confidential::ope::OpeKey::derive(b"master");
    /// assert!(k.encode(10) < k.encode(11));
    /// ```
    pub fn encode(&self, x: u64) -> u128 {
        let mut offset: u128 = 0;
        let mut width: u128 = ROOT_WIDTH;
        for depth in 0..DOMAIN_BITS {
            let shift = DOMAIN_BITS - 1 - depth;
            let bit = (x >> shift) & 1;
            let prefix = if shift == 63 { 0 } else { x >> (shift + 1) };
            // (width >> 16) keeps the multiplication inside u128; rounding
            // does not affect correctness because sibling intervals are
            // [offset, offset+left) and [offset+left, offset+width) whatever
            // `left` is, and width stays ≫ 2^16 at every depth.
            let left = (width >> 16) * self.split_num(depth, prefix);
            if bit == 0 {
                width = left;
            } else {
                offset += left;
                width -= left;
            }
        }
        debug_assert!(width >= 1, "leaf interval degenerated");
        offset
    }
}

/// Encodes an arbitrary byte-string key order-preservingly by encoding its
/// first 8 bytes as a big-endian integer. Keys sharing an 8-byte prefix
/// collide; callers keep the deterministic ciphertext alongside to break
/// ties (as eLSM's confidentiality layer does).
pub fn encode_prefix(key: &OpeKey, bytes: &[u8]) -> u128 {
    let mut x = 0u64;
    for i in 0..8 {
        x = (x << 8) | u64::from(bytes.get(i).copied().unwrap_or(0));
    }
    key.encode(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> OpeKey {
        OpeKey::derive(b"ope master")
    }

    #[test]
    fn preserves_order_small() {
        let k = key();
        let mut prev = None;
        for x in 0..500u64 {
            let e = k.encode(x);
            if let Some(p) = prev {
                assert!(e > p, "order violated at {x}");
            }
            prev = Some(e);
        }
    }

    #[test]
    fn preserves_order_random_pairs() {
        let k = key();
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..2000 {
            let a = next();
            let b = next();
            match a.cmp(&b) {
                std::cmp::Ordering::Less => assert!(k.encode(a) < k.encode(b), "{a} vs {b}"),
                std::cmp::Ordering::Equal => assert_eq!(k.encode(a), k.encode(b)),
                std::cmp::Ordering::Greater => assert!(k.encode(a) > k.encode(b), "{a} vs {b}"),
            }
        }
    }

    #[test]
    fn extremes_are_ordered() {
        let k = key();
        assert!(k.encode(0) < k.encode(u64::MAX));
        assert!(k.encode(u64::MAX - 1) < k.encode(u64::MAX));
        assert!(k.encode(0) < k.encode(1));
    }

    #[test]
    fn deterministic() {
        let k = key();
        assert_eq!(k.encode(42), k.encode(42));
    }

    #[test]
    fn different_keys_give_different_codes() {
        let k1 = key();
        let k2 = OpeKey::derive(b"other");
        let same = (0..50u64).filter(|&x| k1.encode(x) == k2.encode(x)).count();
        assert!(same < 50);
    }

    #[test]
    fn prefix_encoding_monotone_on_bytes() {
        let k = key();
        let a = encode_prefix(&k, b"apple");
        let b = encode_prefix(&k, b"banana");
        let c = encode_prefix(&k, b"cherry");
        assert!(a < b && b < c);
    }

    #[test]
    fn prefix_encoding_handles_short_keys() {
        let k = key();
        assert!(encode_prefix(&k, b"") < encode_prefix(&k, b"a"));
        assert!(encode_prefix(&k, b"a") < encode_prefix(&k, b"ab"));
    }
}
