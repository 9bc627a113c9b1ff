//! Proof bytes and digests are pinned across the flat `LevelDigest` /
//! borrowed-proof rewrite: what the store writes and what it accepts must
//! be exactly what it wrote and accepted before.
//!
//! The reference side of every comparison is the previous implementation,
//! kept here in its plainest form: a proof's `older_digest` recomputed
//! with `chain_digest(&chain[v + 1..])` (the definition the per-record
//! suffix digests replaced), and the field-by-field encoder and decoder
//! the shared parser replaced.

use elsm_repro::crypto::{sha256, Digest};
use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::merkle::{
    chain_digest, ChainPosition, LevelCommitment, LevelDigest, MerkleTree, RecordProof,
    RecordProofRef,
};
use elsm_repro::sgx_sim::Platform;
use proptest::prelude::*;

// ----- the previous implementation, as the reference ---------------------

/// `prove_version` as it was: the whole older suffix re-hashed per proof.
fn reference_proof(
    level: u32,
    chains: &[Vec<Vec<u8>>],
    tree: &MerkleTree,
    leaf: usize,
    version: usize,
) -> RecordProof {
    let chain = &chains[leaf];
    let older_digest = chain_digest(&chain[version + 1..]);
    let position = if version == 0 {
        ChainPosition::Newest { older_digest }
    } else {
        ChainPosition::Older { newer_records: chain[..version].to_vec(), older_digest }
    };
    RecordProof {
        level,
        leaf_index: leaf as u64,
        leaf_count: tree.leaf_count() as u64,
        chain: position,
        audit_path: tree.audit_path(leaf),
    }
}

/// `RecordProof::encode` as it was.
fn reference_encode(proof: &RecordProof) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&proof.level.to_le_bytes());
    out.extend_from_slice(&proof.leaf_index.to_le_bytes());
    out.extend_from_slice(&proof.leaf_count.to_le_bytes());
    match &proof.chain {
        ChainPosition::Newest { older_digest } => {
            out.push(0);
            out.extend_from_slice(older_digest.as_bytes());
        }
        ChainPosition::Older { newer_records, older_digest } => {
            out.push(1);
            out.extend_from_slice(&(newer_records.len() as u32).to_le_bytes());
            for r in newer_records {
                out.extend_from_slice(&(r.len() as u32).to_le_bytes());
                out.extend_from_slice(r);
            }
            out.extend_from_slice(older_digest.as_bytes());
        }
    }
    out.extend_from_slice(&(proof.audit_path.len() as u32).to_le_bytes());
    for d in &proof.audit_path {
        out.extend_from_slice(d.as_bytes());
    }
    out
}

/// `RecordProof::decode` as it was, minus its `Vec::with_capacity(n)`
/// reservations (which never affected what it accepted).
fn reference_decode(buf: &[u8]) -> Option<(RecordProof, usize)> {
    fn u32_at(buf: &[u8], pos: &mut usize) -> Option<u32> {
        let b = buf.get(*pos..*pos + 4)?;
        *pos += 4;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64_at(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let b = buf.get(*pos..*pos + 8)?;
        *pos += 8;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn digest_at(buf: &[u8], pos: &mut usize) -> Option<Digest> {
        let b = buf.get(*pos..*pos + 32)?;
        *pos += 32;
        Some(Digest::from_bytes(b.try_into().unwrap()))
    }
    let mut pos = 0usize;
    let level = u32_at(buf, &mut pos)?;
    let leaf_index = u64_at(buf, &mut pos)?;
    let leaf_count = u64_at(buf, &mut pos)?;
    let tag = *buf.get(pos)?;
    pos += 1;
    let chain = match tag {
        0 => ChainPosition::Newest { older_digest: digest_at(buf, &mut pos)? },
        1 => {
            let n = u32_at(buf, &mut pos)? as usize;
            if n > buf.len() {
                return None;
            }
            let mut newer = Vec::new();
            for _ in 0..n {
                let len = u32_at(buf, &mut pos)? as usize;
                newer.push(buf.get(pos..pos + len)?.to_vec());
                pos += len;
            }
            ChainPosition::Older { newer_records: newer, older_digest: digest_at(buf, &mut pos)? }
        }
        _ => return None,
    };
    let n = u32_at(buf, &mut pos)? as usize;
    if n > buf.len() {
        return None;
    }
    let mut audit_path = Vec::new();
    for _ in 0..n {
        audit_path.push(digest_at(buf, &mut pos)?);
    }
    Some((RecordProof { level, leaf_index, leaf_count, chain, audit_path }, pos))
}

// ----- helpers -------------------------------------------------------------

/// A level of `shape.len()` keys, key `i` holding `shape[i]` versions,
/// with record bytes of varying length; returned as per-key chains
/// (newest first) next to the digest built from the same stream.
fn build_level(level: u32, shape: &[usize], salt: u8) -> (Vec<Vec<Vec<u8>>>, LevelDigest) {
    let chains: Vec<Vec<Vec<u8>>> = shape
        .iter()
        .enumerate()
        .map(|(k, &versions)| {
            (0..versions)
                .map(|v| {
                    let mut record = format!("key{k:04}/ts{}", versions - v).into_bytes();
                    record.resize(record.len() + (k * 7 + v * 3 + salt as usize) % 40, salt);
                    record
                })
                .collect()
        })
        .collect();
    let keys: Vec<Vec<u8>> = (0..shape.len()).map(|k| format!("key{k:04}").into_bytes()).collect();
    let digest = LevelDigest::from_records(
        level,
        chains.iter().zip(&keys).flat_map(|(chain, key)| {
            chain.iter().map(move |record| (key.as_slice(), record.clone()))
        }),
    );
    (chains, digest)
}

fn reference_tree(chains: &[Vec<Vec<u8>>]) -> MerkleTree {
    MerkleTree::from_leaves(chains.iter().map(|c| chain_digest(c)).collect())
}

/// Parser and reference decoder must agree on `buf`: both reject, or both
/// accept the same proof over the same number of bytes.
fn assert_same_verdict(buf: &[u8]) {
    let parsed = RecordProofRef::parse(buf);
    match reference_decode(buf) {
        None => assert!(parsed.is_none(), "parser accepted what the decoder rejected: {buf:?}"),
        Some((owned, used)) => {
            let parsed = parsed.expect("parser rejected what the decoder accepted");
            assert_eq!(parsed.encoded_len(), used);
            assert_eq!(parsed.to_owned(), owned);
            assert_eq!(RecordProof::decode(buf), Some((owned, used)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every `(leaf, version)` of random multi-version levels, the
    /// bytes written straight from the flat tables equal the previous
    /// `prove_version(..).encode()`, the arithmetic length is that
    /// length, and the borrowed view verifies exactly like the owned one.
    #[test]
    fn proofs_are_byte_identical(
        shape in prop::collection::vec(1usize..61, 1..41),
        salt in any::<u8>(),
    ) {
        let (chains, digest) = build_level(3, &shape, salt);
        let tree = reference_tree(&chains);
        let commitment = digest.commitment();
        prop_assert_eq!(commitment.root, tree.root());
        let wrong_root = LevelCommitment { root: sha256(b"elsewhere"), ..commitment };
        let wrong_level = LevelCommitment { level: 4, ..commitment };
        let wrong_count = LevelCommitment { leaf_count: commitment.leaf_count + 1, ..commitment };
        let mut written = Vec::new();
        for (leaf, chain) in chains.iter().enumerate() {
            prop_assert_eq!(digest.chain_len(leaf), chain.len());
            for (version, record) in chain.iter().enumerate() {
                let reference = reference_proof(3, &chains, &tree, leaf, version);
                let expect = reference_encode(&reference);
                written.clear();
                digest.encode_proof_into(leaf, version, &mut written);
                prop_assert_eq!(&written, &expect, "leaf {} version {}", leaf, version);
                prop_assert_eq!(digest.proof_encoded_len(leaf, version), expect.len());
                prop_assert_eq!(digest.record(leaf, version), record.as_slice());
                let owned = digest.prove_version(leaf, version);
                prop_assert_eq!(&owned, &reference);
                prop_assert_eq!(owned.encode(), expect);
                prop_assert_eq!(owned.encoded_len(), written.len());

                let borrowed = RecordProofRef::parse(&written).expect("own encoding parses");
                prop_assert_eq!(borrowed.encoded_len(), written.len());
                prop_assert_eq!(borrowed.is_newest(), version == 0);
                prop_assert_eq!(borrowed.exposed_newer().len(), version);
                prop_assert_eq!(borrowed.to_owned(), reference);
                for c in [&commitment, &wrong_root, &wrong_level, &wrong_count] {
                    prop_assert_eq!(borrowed.verify(c, record), owned.verify(c, record));
                    prop_assert_eq!(
                        borrowed.verify(c, b"forged"),
                        owned.verify(c, b"forged")
                    );
                }
                prop_assert_eq!(borrowed.verify(&commitment, record), Ok(()));
            }
        }
    }

    /// Mutate-and-splice over valid encodings: the borrowed parser accepts
    /// exactly what the previous decoder accepted, with the same result.
    #[test]
    fn parser_accepts_what_the_decoder_accepted(
        shape in prop::collection::vec(1usize..6, 1..9),
        salt in any::<u8>(),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), 0usize..5), 1..40),
    ) {
        let (chains, digest) = build_level(2, &shape, salt);
        let mut encodings = Vec::new();
        for (leaf, chain) in chains.iter().enumerate() {
            for version in 0..chain.len() {
                let mut buf = Vec::new();
                digest.encode_proof_into(leaf, version, &mut buf);
                encodings.push(buf);
            }
        }
        for (i, (at, byte, kind)) in edits.iter().enumerate() {
            let base = &encodings[i % encodings.len()];
            let other = &encodings[(i * 7 + 3) % encodings.len()];
            let at = *at as usize % base.len();
            let mut buf = base.clone();
            match kind {
                0 => buf[at] = *byte,                                   // overwrite a byte
                1 => buf.truncate(at),                                  // cut short
                2 => buf.extend_from_slice(&other[..at.min(other.len())]), // trailing bytes
                3 => {
                    // Splice another proof's tail on.
                    buf.truncate(at);
                    buf.extend_from_slice(&other[at.min(other.len())..]);
                }
                _ => {
                    // Inflate a count field to the maximum.
                    let field = [21usize, 20 + 1 + 32][*byte as usize % 2].min(buf.len() - 1);
                    let end = (field + 4).min(buf.len());
                    buf[field..end].fill(0xff);
                }
            }
            assert_same_verdict(&buf);
            assert_same_verdict(base);
        }
    }
}

/// An "older" position that lists no newer record is still not a newest
/// claim: the tag is what counts, as it did for the owned decoder.
#[test]
fn empty_older_position_is_not_newest() {
    let proof = RecordProof {
        level: 1,
        leaf_index: 0,
        leaf_count: 1,
        chain: ChainPosition::Older { newer_records: Vec::new(), older_digest: Digest::ZERO },
        audit_path: Vec::new(),
    };
    let bytes = proof.encode();
    assert_eq!(bytes, reference_encode(&proof));
    let borrowed = RecordProofRef::parse(&bytes).unwrap();
    assert!(!borrowed.is_newest());
    assert_eq!(borrowed.exposed_newer().len(), 0);
    assert_eq!(borrowed.to_owned(), proof);
}

/// Commitment roots and WAL digest of a small three-level store, captured
/// at the commit before the SHA-NI kernel, the flat `LevelDigest` and the
/// borrowed proofs went in. Any change to a digest, a canonical byte or
/// the order records are hashed in moves these.
#[test]
fn golden_three_level_store_digests() {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            write_buffer_bytes: 4 * 1024,
            level1_max_bytes: 8 * 1024,
            level_multiplier: 4,
            target_file_bytes: 8 * 1024,
            ..P2Options::default()
        },
    )
    .unwrap();
    for round in 0..6u32 {
        for i in 0..220u32 {
            let key = format!("user{:06}", (i * 37 + round * 11) % 300);
            let value = format!("value-{round}-{i}-{}", "x".repeat((i % 50) as usize));
            store.put(key.as_bytes(), value.as_bytes()).unwrap();
        }
        store.delete(format!("user{:06}", round * 5).as_bytes()).unwrap();
    }
    let commitments = store.trusted().commitments();
    let populated: Vec<String> = commitments
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| format!("L{} n={} {}", c.level, c.leaf_count, c.root.to_hex()))
        .collect();
    let wal = store.trusted().wal_digest().to_hex();
    assert_eq!(populated, GOLDEN_LEVELS, "level commitments moved (WAL digest {wal})");
    assert_eq!(wal, GOLDEN_WAL);
    // The store still answers from those levels.
    assert!(store.get(b"user000123").unwrap().is_some());
    assert!(store.get(b"user000025").unwrap().is_none(), "deleted last");
}

const GOLDEN_LEVELS: [&str; 3] = [
    "L1 n=92 c0a212c43bf3386f2be0d7329726341e76ce0c15416201b073bb2761bc48c4ea",
    "L2 n=167 ea4e7c60b1facc9ce9a97aedf139b0fd32be5f17aab17bd0577e8bb726b1535f",
    "L3 n=300 566053dfea130984e79d8574ae773ca826ba04a7662b0910897da9d0f0a92307",
];
const GOLDEN_WAL: &str = "27cfc90b66f695d2bc5e731a8f475fcad4418812fac6519fedc55182d1f04a24";
