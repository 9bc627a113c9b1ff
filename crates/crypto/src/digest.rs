//! The 32-byte digest type used throughout the eLSM reproduction.

use std::fmt;

/// A 256-bit cryptographic digest (SHA-256 output).
///
/// This is the hash type flowing through every Merkle tree, hash chain and
/// sealed structure in the repository. It is deliberately a newtype over
/// `[u8; 32]` so digests cannot be confused with raw keys or values
/// (C-NEWTYPE).
///
/// # Examples
///
/// ```
/// use elsm_crypto::{sha256::sha256, Digest};
///
/// let d = sha256(b"record");
/// assert_eq!(Digest::from_bytes(*d.as_bytes()), d);
/// assert_eq!(d.to_hex().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The all-zero digest, used as the digest of an empty structure.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Wraps raw bytes as a digest.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the raw bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Returns true when this is the designated empty digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Lowercase hex encoding (64 characters).
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push(char::from(HEX[usize::from(b >> 4)]));
            s.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        s
    }

    /// A short 8-hex-character prefix, handy in debug output.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    /// Error returned by [`Digest::from_hex`] for malformed input.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ParseDigestError;

    impl Digest {
        /// Parses a 64-character hex string: the inverse of
        /// [`Digest::to_hex`].
        fn from_hex(s: &str) -> Result<Self, ParseDigestError> {
            let bytes = s.as_bytes();
            if bytes.len() != 64 {
                return Err(ParseDigestError);
            }
            let mut out = [0u8; 32];
            for i in 0..32 {
                let hi = (bytes[2 * i] as char).to_digit(16).ok_or(ParseDigestError)?;
                let lo = (bytes[2 * i + 1] as char).to_digit(16).ok_or(ParseDigestError)?;
                out[i] = ((hi << 4) | lo) as u8;
            }
            Ok(Digest(out))
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("abc"), Err(ParseDigestError));
        assert_eq!(Digest::from_hex(&"g".repeat(64)), Err(ParseDigestError));
    }

    #[test]
    fn zero_is_zero() {
        assert!(Digest::ZERO.is_zero());
        assert!(!sha256(b"x").is_zero());
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Digest::ZERO).is_empty());
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = Digest::from_bytes([0u8; 32]);
        let mut b = [0u8; 32];
        b[31] = 1;
        assert!(a < Digest::from_bytes(b));
    }
}
