//! Bloom filters over SSTable keys.
//!
//! LevelDB attaches a Bloom filter to each table so negative lookups skip
//! the data blocks entirely. In eLSM the filters are metadata kept *inside*
//! the enclave (§5.3, "meta-data authenticity"), so they are also a source
//! of EPC traffic under memory pressure — the reader models that by
//! touching the probed byte offsets.

use crate::encoding::{get_fixed_u32, put_fixed_u32};

/// Double-hashing Bloom filter (Kirsch–Mitzenmacher), as in LevelDB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u8>,
    k: u32,
}

/// Fast non-cryptographic 64-bit hash (FNV-1a variant with avalanche).
fn base_hash(data: &[u8], seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Final avalanche (xorshift-multiply).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// The two hashes double hashing derives a key's probe positions from.
pub type KeyHashes = (u64, u64);

/// Hashes `key` for [`BloomFilter::from_hashes`].
pub fn key_hashes(key: &[u8]) -> KeyHashes {
    (base_hash(key, 0), base_hash(key, 0x9e37_79b9))
}

/// What one [`BloomFilter::probe`] found and read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the key may be present (false: definitely absent).
    pub hit: bool,
    /// Byte offset of the first bit tested.
    pub first_offset: usize,
    /// Bits tested before the verdict (at least one, at most `k`).
    pub bits_tested: usize,
}

impl BloomFilter {
    /// Builds a filter with `bits_per_key` bits per key from each key's
    /// [`key_hashes`] — all a table builder has to keep per key.
    pub fn from_hashes(hashes: &[KeyHashes], bits_per_key: usize) -> Self {
        // k = bits_per_key * ln2, clamped as LevelDB does.
        let k = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 30);
        let nbits = (hashes.len() * bits_per_key).max(64);
        let nbytes = nbits.div_ceil(8);
        let nbits = nbytes * 8;
        let mut bits = vec![0u8; nbytes];
        for &(h1, h2) in hashes {
            for i in 0..k {
                let bit = (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % nbits as u64) as usize;
                bits[bit / 8] |= 1 << (bit % 8);
            }
        }
        BloomFilter { bits, k }
    }

    /// Tests membership. False positives possible, false negatives not.
    /// Reports where the probe started and how many bits it tested so the
    /// caller can model memory touches of the in-enclave filter.
    pub fn probe(&self, key: &[u8]) -> Probe {
        let nbits = self.bits.len() * 8;
        let (h1, h2) = key_hashes(key);
        let bit_at =
            |i: u32| (h1.wrapping_add(u64::from(i).wrapping_mul(h2)) % nbits as u64) as usize;
        let first_offset = bit_at(0) / 8;
        for i in 0..self.k {
            let bit = bit_at(i);
            if self.bits[bit / 8] & (1 << (bit % 8)) == 0 {
                return Probe { hit: false, first_offset, bits_tested: i as usize + 1 };
            }
        }
        Probe { hit: true, first_offset, bits_tested: self.k as usize }
    }

    /// Size of the bit array in bytes.
    pub fn byte_len(&self) -> usize {
        self.bits.len()
    }

    /// Serializes the filter.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bits.len() + 8);
        put_fixed_u32(&mut out, self.k);
        put_fixed_u32(&mut out, self.bits.len() as u32);
        out.extend_from_slice(&self.bits);
        out
    }

    /// Parses a filter serialized by [`BloomFilter::encode`].
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let k = get_fixed_u32(buf, 0)?;
        let len = get_fixed_u32(buf, 4)? as usize;
        let bits = buf.get(8..8usize.checked_add(len)?)?.to_vec();
        // An empty bit array has nothing to take a probe modulo of.
        if k == 0 || k > 30 || bits.is_empty() {
            return None;
        }
        Some(BloomFilter { bits, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BloomFilter {
        /// Convenience wrapper discarding probe offsets.
        fn may_contain(&self, key: &[u8]) -> bool {
            self.probe(key).hit
        }
    }

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("user{i:06}").into_bytes()).collect()
    }

    fn from_keys(keys: &[Vec<u8>], bits_per_key: usize) -> BloomFilter {
        let hashes: Vec<KeyHashes> = keys.iter().map(|k| key_hashes(k)).collect();
        BloomFilter::from_hashes(&hashes, bits_per_key)
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(1000);
        let f = from_keys(&ks, 10);
        for k in &ks {
            assert!(f.may_contain(k), "false negative for {k:?}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let ks = keys(1000);
        let f = from_keys(&ks, 10);
        let mut fp = 0;
        let trials = 10_000;
        for i in 0..trials {
            let probe = format!("absent{i:06}");
            if f.may_contain(probe.as_bytes()) {
                fp += 1;
            }
        }
        // 10 bits/key gives ~1% theoretical FPR; allow generous slack.
        assert!(fp < trials / 20, "false positive rate too high: {fp}/{trials}");
    }

    #[test]
    fn empty_filter_rejects() {
        let f = from_keys(&[], 10);
        assert!(!f.may_contain(b"anything"));
    }

    #[test]
    fn encode_decode_round_trip() {
        let ks = keys(100);
        let f = from_keys(&ks, 8);
        let g = BloomFilter::decode(&f.encode()).unwrap();
        assert_eq!(f, g);
        for k in &ks {
            assert!(g.may_contain(k));
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BloomFilter::decode(&[]).is_none());
        assert!(BloomFilter::decode(&[0, 0, 0, 0, 255, 255, 255, 255]).is_none());
    }

    #[test]
    fn probe_reports_what_it_read() {
        let ks = keys(10);
        let f = from_keys(&ks, 10);
        let present = f.probe(ks[0].as_slice());
        assert!(present.hit && present.first_offset < f.byte_len());
        assert_eq!(present.bits_tested, 6, "a hit tests all k = 10 * 0.69 bits");
        let absent = f.probe(b"never-added");
        assert!(!absent.hit && (1..=6).contains(&absent.bits_tested));
    }

    /// A zero-length filter from the host would make every probe divide
    /// by zero.
    #[test]
    fn decode_rejects_an_empty_bit_array() {
        assert!(BloomFilter::decode(&[6, 0, 0, 0, 0, 0, 0, 0]).is_none());
        assert!(BloomFilter::decode(&[6, 0, 0, 0, 1, 0, 0, 0, 0xff]).is_some());
    }
}
