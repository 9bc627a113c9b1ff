//! Temporal hash chains over record versions (§5.2, design 2).
//!
//! Within one LSM level, all records sharing a data key are chained in
//! temporal order, newest outermost. Writing `rⱼ` for version *j*
//! (0 = newest) and `dⱼ` for the digest of version *j* and everything
//! older:
//!
//! `dⱼ = link(rⱼ, dⱼ₊₁) = H(0x02 ‖ rⱼ ‖ dⱼ₊₁)`, with `⊥` (all zeroes)
//! after the oldest version. `d₀` is the *chain head*, the key's Merkle
//! leaf.
//!
//! Every `dⱼ` binds the whole older suffix, and only `d₀` is bound to
//! the level root. An older version can therefore be authenticated in one
//! way only: start at the head and hash down through every newer version —
//! which is exactly how the verifier detects a stale-record attack (the
//! paper's ⟨Z,6⟩ vs ⟨Z,7⟩ example). The newer versions are exposed by
//! *presenting* the chain at query time (a range query already returns
//! every version of a key); they are never stored a second time inside an
//! older version's proof. What each version stores is its
//! [`ChainPosition`].

use elsm_crypto::{sha256_joined, Digest};

/// Domain-separation prefix for chain links.
const CHAIN_PREFIX: u8 = 0x02;

/// One fold step: extends the chain with a newer record's bytes.
pub fn chain_link(record_bytes: &[u8], older_digest: &Digest) -> Digest {
    chain_link_parts(&[record_bytes], older_digest)
}

/// [`chain_link`] of the record whose bytes are `parts` joined, each
/// hashed where it lies.
pub fn chain_link_parts(parts: &[&[u8]], older_digest: &Digest) -> Digest {
    let prefix = std::iter::once(&[CHAIN_PREFIX][..]);
    let older = std::iter::once(&older_digest.as_bytes()[..]);
    sha256_joined(prefix.chain(parts.iter().copied()).chain(older))
}

/// Digest of a full version chain, `records` given newest-first (the order
/// LSM levels store them).
pub fn chain_digest<B: AsRef<[u8]>>(records_newest_first: &[B]) -> Digest {
    let mut acc = Digest::ZERO;
    for r in records_newest_first.iter().rev() {
        acc = chain_link(r.as_ref(), &acc);
    }
    acc
}

/// What a record stores about its place in its key's version chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainPosition {
    /// The record is the newest version at this level — the chain head,
    /// the one version the level root authenticates directly.
    Newest {
        /// Digest of the chain of strictly older versions (`d₁`).
        older_digest: Digest,
        /// Sibling hashes from the chain head to the level root.
        audit_path: Vec<Digest>,
    },
    /// The record is version `position` of its chain. A link carries no
    /// newer records and no audit path: it verifies only as a step of a
    /// walk down from the head, never alone.
    Link {
        /// Number of newer versions of the key at the level (≥ 1).
        position: u32,
        /// Digest of the chain of strictly older versions (`d_{position+1}`).
        older_digest: Digest,
    },
}

impl ChainPosition {
    /// Digest of the chain of strictly older versions.
    pub fn older_digest(&self) -> &Digest {
        match self {
            ChainPosition::Newest { older_digest, .. }
            | ChainPosition::Link { older_digest, .. } => older_digest,
        }
    }

    /// Chain digest of `record_bytes` at this position and everything
    /// older: the chain head for the newest version, `d_position` for a
    /// link.
    pub fn suffix_digest(&self, record_bytes: &[u8]) -> Digest {
        chain_link(record_bytes, self.older_digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(n: usize) -> Vec<Vec<u8>> {
        // newest first: ts descending
        (0..n).map(|i| format!("rec-ts{}", n - i).into_bytes()).collect()
    }

    fn newest(older_digest: Digest) -> ChainPosition {
        ChainPosition::Newest { older_digest, audit_path: Vec::new() }
    }

    #[test]
    fn empty_chain_is_zero() {
        assert_eq!(chain_digest::<Vec<u8>>(&[]), Digest::ZERO);
    }

    #[test]
    fn single_record_chain() {
        let r = recs(1);
        assert_eq!(chain_digest(&r), chain_link(&r[0], &Digest::ZERO));
    }

    #[test]
    fn newest_position_recomputes_head() {
        let r = recs(3);
        let pos = newest(chain_digest(&r[1..]));
        assert_eq!(pos.suffix_digest(&r[0]), chain_digest(&r));
    }

    #[test]
    fn link_recomputes_what_its_predecessor_committed_to() {
        let r = recs(4);
        // Version 2 (third newest): its digest is version 1's older digest.
        let pos = ChainPosition::Link { position: 2, older_digest: chain_digest(&r[3..]) };
        assert_eq!(pos.suffix_digest(&r[2]), chain_digest(&r[2..]));
        assert_ne!(pos.suffix_digest(&r[2]), chain_digest(&r), "a link is not the head");
    }

    #[test]
    fn tampered_record_changes_head() {
        let r = recs(2);
        let pos = newest(chain_digest(&r[1..]));
        assert_ne!(pos.suffix_digest(&r[0]), pos.suffix_digest(b"forged"));
    }

    #[test]
    fn order_matters() {
        let a = vec![b"x".to_vec(), b"y".to_vec()];
        let b = vec![b"y".to_vec(), b"x".to_vec()];
        assert_ne!(chain_digest(&a), chain_digest(&b));
    }

    #[test]
    fn stale_record_cannot_pose_as_the_head() {
        // Whatever older digest a prover pairs r[1] with, claiming it is
        // the newest version yields a different head: the real head hashes
        // r[0] outermost.
        let r = recs(2);
        let full = chain_digest(&r);
        assert_ne!(newest(Digest::ZERO).suffix_digest(&r[1]), full);
        assert_ne!(newest(chain_digest(&r[..1])).suffix_digest(&r[1]), full);
    }
}
