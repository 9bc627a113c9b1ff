//! SHA-256 as specified in FIPS 180-4.
//!
//! Implemented from the specification because the reproduction is restricted
//! to the offline crate set (no `sha2`). There is one hasher ([`Sha256`])
//! and one two-way choice underneath it: the function that compresses whole
//! 64-byte blocks. The portable scalar kernel is written from the standard
//! and runs everywhere; on x86 CPUs that report the SHA extensions a SHA-NI
//! kernel (`sha256/x86.rs`, the workspace's only `unsafe` code) replaces it.
//! The choice is made once per process from `is_x86_feature_detected!`, never
//! from an option. The unit tests below run the NIST vectors on each kernel
//! directly and hold the two against each other. [`compress`] exposes one
//! kernel call on one block with no padding: a Merkle node is that, from
//! [`NODE_IV`].

use std::sync::OnceLock;

use crate::digest::Digest;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The state a Merkle node's compression starts from: SHA-256's initial
/// state after one compression of a fixed domain block (`NODE_DOMAIN`),
/// precomputed the way BIP-340's tagged hashes precompute their tag. It
/// differs from SHA-256's initial state, so a node's compression never
/// starts where an ordinary SHA-256 message's does (DESIGN.md §5).
pub const NODE_IV: [u32; 8] = [
    0x2a28a20c, 0xed879250, 0x63dd5800, 0x7a1a8fb4, 0xa2b2619e, 0x8baffe0d, 0x639fec15, 0xf8bf56c1,
];

/// The domain block [`NODE_IV`] is the compression of (a unit test derives
/// the constant from it).
#[cfg(test)]
const NODE_DOMAIN: &[u8; 64] = b"elsm merkle nodeelsm merkle nodeelsm merkle nodeelsm merkle node";

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A compression kernel: folds the whole 64-byte blocks of `blocks` (its
/// length is a multiple of 64) into `state`.
type Kernel = fn(&mut [u32; 8], &[u8]);

/// The kernel this process hashes with, chosen once from what the CPU
/// reports: the SHA-NI kernel where the `sha` extension (and the SSE levels
/// its shuffles need) is present, the scalar FIPS 180-4 code everywhere
/// else. Both produce the same digests; there is nothing to configure.
fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| accelerated_kernel().unwrap_or(compress_scalar))
}

/// The hardware kernel, when this CPU has one.
fn accelerated_kernel() -> Option<Kernel> {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    return x86::kernel();
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    None
}

/// Name of the selected compression kernel (`"sha-ni"` or `"scalar"`), for
/// logs and benchmark headers. Nothing may branch on it.
pub fn backend() -> &'static str {
    if accelerated_kernel().is_some() {
        "sha-ni"
    } else {
        "scalar"
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use elsm_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partially filled block. Bytes from `buf_len` on are always zero, so
    /// padding never has to clear them.
    buf: [u8; 64],
    buf_len: usize,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_kernel(kernel())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0, kernel }
    }

    /// Absorbs `data` into the hash state. Whole blocks are compressed
    /// straight from `data`; only a trailing partial block is buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            (self.kernel)(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() & !63);
        if !blocks.is_empty() {
            (self.kernel)(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        // Pad in place: 0x80, zeros to 56 (mod 64) — already there, see
        // `buf` — then the 64-bit big-endian bit length. `buf_len < 64`.
        let bit_len = self.len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            (self.kernel)(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        (self.kernel)(&mut self.state, &self.buf);
        digest_of(&self.state)
    }
}

/// The digest a final hash state spells, big-endian word by word.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest::from_bytes(out)
}

/// SHA-256's compression function alone: `block` folded into `state` on the
/// selected kernel, with no padding and no length, read out as a digest
/// (the new state, big-endian word by word). A Merkle node is one of these
/// from [`NODE_IV`] (`merkle::node_hash`); a message of any other shape
/// wants [`sha256`], which pads.
pub fn compress(state: &[u32; 8], block: &[u8; 64]) -> Digest {
    compress_with(kernel(), state, block)
}

fn compress_with(kernel: Kernel, state: &[u32; 8], block: &[u8; 64]) -> Digest {
    let mut state = *state;
    kernel(&mut state, block);
    digest_of(&state)
}

/// The portable kernel, written from FIPS 180-4 §6.2.2. It is what runs on
/// CPUs without a hardware kernel and the reference the tests hold the
/// hardware kernel against.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = elsm_crypto::sha256::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    sha256_joined([data])
}

/// SHA-256 over the concatenation of several byte slices without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    sha256_joined(parts.iter().copied())
}

/// Longest message [`sha256_joined`] hashes in one pass: with its padding
/// (a `0x80` byte and the 8-byte length) it fills at most
/// `ONE_PASS_BLOCKS` blocks.
const ONE_PASS_MAX: usize = ONE_PASS_BLOCKS * 64 - 9;
const ONE_PASS_BLOCKS: usize = 4;

/// SHA-256 over the concatenation of `parts`, each read where it lies. A
/// message of up to 247 bytes (`ONE_PASS_MAX`) — a record, a chain link, a
/// Merkle node — is laid out with its padding in one stack buffer and
/// compressed in one kernel call, without the incremental hasher's
/// per-part and per-block bookkeeping; a longer one streams through
/// [`Sha256`]. Both give the same digest.
pub fn sha256_joined<'p, I>(parts: I) -> Digest
where
    I: IntoIterator<Item = &'p [u8]>,
    I::IntoIter: Clone,
{
    joined_with(kernel(), parts.into_iter())
}

fn joined_with<'p>(kernel: Kernel, parts: impl Iterator<Item = &'p [u8]> + Clone) -> Digest {
    let total: usize = parts.clone().map(<[u8]>::len).sum();
    if total > ONE_PASS_MAX {
        let mut hasher = Sha256::with_kernel(kernel);
        parts.for_each(|part| hasher.update(part));
        return hasher.finalize();
    }
    let mut buf = [0u8; ONE_PASS_BLOCKS * 64];
    let mut at = 0;
    for part in parts {
        buf[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    buf[at] = 0x80;
    let end = (total + 9).div_ceil(64) * 64;
    buf[end - 8..end].copy_from_slice(&(total as u64).wrapping_mul(8).to_be_bytes());
    let mut state = H0;
    kernel(&mut state, &buf[..end]);
    digest_of(&state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel this CPU can run, each named for failure messages. The
    /// tests call them directly — not through [`kernel`]'s choice — so the
    /// scalar code is exercised on SHA-NI hosts too.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut all = vec![("scalar", compress_scalar as Kernel)];
        match accelerated_kernel() {
            Some(k) => all.push(("sha-ni", k)),
            None => println!("sha256: this CPU has no hardware kernel; accelerated half skipped"),
        }
        all
    }

    fn hash_with(kernel: Kernel, data: &[u8]) -> Digest {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    /// Deterministic byte stream / split points (the crate has no `rand`).
    fn lcg(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn reports_the_selected_backend() {
        let name = backend();
        println!("sha256 backend: {name}");
        assert_eq!(name == "sha-ni", accelerated_kernel().is_some());
        assert!(name == "sha-ni" || name == "scalar");
    }

    #[test]
    fn nist_vectors_on_every_kernel() {
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, kernel) in kernels() {
            for (msg, want) in vectors {
                assert_eq!(hash_with(kernel, msg).to_hex(), want, "{name}, {} bytes", msg.len());
            }
        }
    }

    /// Every message length across the one-pass bound, split into parts
    /// at random points: the one-pass digest is the streaming hasher's.
    #[test]
    fn joined_parts_hash_like_the_stream_on_every_kernel() {
        let mut seed = 3u64;
        let data: Vec<u8> = (0..ONE_PASS_MAX + 200).map(|_| lcg(&mut seed) as u8).collect();
        for len in 0..data.len() {
            let message = &data[..len];
            let (a, rest) = message.split_at(lcg(&mut seed) as usize % (len + 1));
            let (b, c) = rest.split_at(lcg(&mut seed) as usize % (rest.len() + 1));
            for (name, kernel) in kernels() {
                let want = hash_with(kernel, message);
                assert_eq!(joined_with(kernel, [a, b, c].into_iter()), want, "{name}, {len} B");
                assert_eq!(joined_with(kernel, std::iter::once(message)), want, "{name}");
            }
        }
    }

    /// One block, padded by hand, compressed from [`H0`] is the SHA-256 of
    /// the message it holds, for random messages up to 55 bytes.
    #[test]
    fn one_padded_block_compresses_to_its_sha256_on_every_kernel() {
        let mut seed = 11u64;
        for _ in 0..500 {
            let len = lcg(&mut seed) as usize % 56;
            let message: Vec<u8> = (0..len).map(|_| lcg(&mut seed) as u8).collect();
            let mut block = [0u8; 64];
            block[..len].copy_from_slice(&message);
            block[len] = 0x80;
            block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
            for (name, kernel) in kernels() {
                assert_eq!(compress_with(kernel, &H0, &block), sha256(&message), "{name}, {len} B");
            }
        }
    }

    /// The node function — one compression from [`NODE_IV`] — is the same
    /// on every kernel, for random child pairs.
    #[test]
    fn kernels_agree_on_the_node_function() {
        let mut seed = 13u64;
        for round in 0..1000 {
            let block: [u8; 64] = std::array::from_fn(|_| lcg(&mut seed) as u8);
            let reference = compress_with(compress_scalar, &NODE_IV, &block);
            for (name, kernel) in kernels() {
                assert_eq!(compress_with(kernel, &NODE_IV, &block), reference, "{name}, {round}");
            }
            assert_eq!(compress(&NODE_IV, &block), reference, "dispatch, {round}");
        }
    }

    #[test]
    fn the_node_iv_is_the_compression_of_its_domain_block() {
        for (name, kernel) in kernels() {
            assert_eq!(compress_with(kernel, &H0, NODE_DOMAIN), digest_of(&NODE_IV), "{name}");
        }
        assert_ne!(NODE_IV, H0);
    }

    #[test]
    fn million_a_on_every_kernel() {
        let data = vec![b'a'; 1_000_000];
        for (name, kernel) in kernels() {
            assert_eq!(
                hash_with(kernel, &data).to_hex(),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    /// Every length across the 55/56/63/64/119/120-byte padding boundaries
    /// and a few blocks beyond: each kernel equals the scalar reference, and
    /// the public one-shot (whatever kernel it selected) equals both.
    #[test]
    fn kernels_agree_on_every_length_to_300() {
        let mut seed = 7;
        let data: Vec<u8> = (0..300).map(|_| lcg(&mut seed) as u8).collect();
        for n in 0..=data.len() {
            let reference = hash_with(compress_scalar, &data[..n]);
            assert_eq!(sha256(&data[..n]), reference, "dispatch, length {n}");
            for (name, kernel) in kernels() {
                assert_eq!(hash_with(kernel, &data[..n]), reference, "{name}, length {n}");
            }
        }
    }

    /// Incremental = one-shot = scalar, for random cuts of a 10 kB message
    /// (exercises the buffered-partial-block and multi-block paths of
    /// `update` in every combination).
    #[test]
    fn kernels_agree_under_random_split_points() {
        let mut seed = 42;
        let data: Vec<u8> = (0..10_000).map(|_| lcg(&mut seed) as u8).collect();
        let reference = hash_with(compress_scalar, &data);
        for round in 0..200 {
            for (name, kernel) in kernels() {
                let mut h = Sha256::with_kernel(kernel);
                let mut at = 0;
                while at < data.len() {
                    // Mostly short pieces, sometimes several blocks.
                    let span = if lcg(&mut seed) % 4 == 0 { 700 } else { 70 };
                    let take = (lcg(&mut seed) as usize % span).min(data.len() - at);
                    h.update(&data[at..at + take]);
                    at += take;
                }
                assert_eq!(h.finalize(), reference, "{name}, round {round}");
            }
        }
        assert_eq!(sha256(&data), reference);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn concat_matches_joined() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }
}
