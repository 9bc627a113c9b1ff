//! Proof bytes and digests are pinned: what the store writes for each
//! version of a key must be exactly what a plain field-by-field encoder of
//! the compact format writes for the proof the reference builds, what it
//! commits to must be what it committed to before older versions shrank to
//! chain links, and the bytes a level stores in proofs must be linear in
//! its record count.
//!
//! The reference side of every comparison is kept here in its plainest
//! form: a newest-version proof's `older_digest` recomputed with
//! `chain_digest(&chain[1..])`, serialized field by field (the fields
//! those the format held before its header was compacted, each with the
//! value it had then), and a field-by-field decoder of the whole format —
//! heads and links, minimal varints, the zero-digest bit — for the shared
//! parser to agree with.

use elsm_repro::crypto::{sha256, Digest};
use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::merkle::{
    chain_digest, ChainPosition, LevelCommitment, LevelDigest, MerkleTree, RecordProof,
    RecordProofRef, VerifyError, CROWN_ROW_MAX,
};
use elsm_repro::sgx_sim::{CostModel, Platform};
use proptest::prelude::*;
use std::sync::Arc;

// ----- the reference implementation ---------------------------------------

/// `prove_version(leaf, 0)` as it was: the older suffix re-hashed.
fn reference_head_proof(
    level: u32,
    chains: &[Vec<Vec<u8>>],
    tree: &MerkleTree,
    leaf: usize,
) -> RecordProof {
    RecordProof {
        level,
        leaf_index: leaf as u64,
        leaf_count: tree.leaf_count() as u64,
        chain: ChainPosition::Newest {
            older_digest: chain_digest(&chains[leaf][1..]),
            audit_path: tree.audit_path(leaf),
        },
    }
}

/// `v` in seven-bit groups, least significant first, each but the last
/// with its top bit set.
fn reference_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let group = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// The compact format, field by field: level, leaf index, leaf count,
/// the tag (bit 0 link, bit 1 older digest zero and left out), then a
/// head's older digest, sibling count and siblings, or a link's position
/// and older digest.
fn reference_encode(proof: &RecordProof) -> Vec<u8> {
    let mut out = Vec::new();
    reference_varint(&mut out, proof.level.into());
    reference_varint(&mut out, proof.leaf_index);
    reference_varint(&mut out, proof.leaf_count);
    let older = proof.chain.older_digest();
    let zero = u8::from(*older == Digest::ZERO) << 1;
    let older: &[u8] = if zero != 0 { &[] } else { older.as_bytes() };
    match &proof.chain {
        ChainPosition::Newest { audit_path, .. } => {
            out.push(zero);
            out.extend_from_slice(older);
            reference_varint(&mut out, audit_path.len() as u64);
            for d in audit_path {
                out.extend_from_slice(d.as_bytes());
            }
        }
        ChainPosition::Link { position, .. } => {
            out.push(1 | zero);
            reference_varint(&mut out, (*position).into());
            out.extend_from_slice(older);
        }
    }
    out
}

/// The format decoded field by field, reserving nothing.
fn reference_decode(buf: &[u8]) -> Option<(RecordProof, usize)> {
    /// A varint that re-encodes to the very bytes it was read from.
    fn varint_at(buf: &[u8], pos: &mut usize) -> Option<u64> {
        let start = *pos;
        let mut value = 0u128;
        loop {
            let byte = *buf.get(*pos)?;
            value |= u128::from(byte & 0x7f) << (7 * (*pos - start));
            *pos += 1;
            if byte & 0x80 == 0 {
                break;
            }
            if *pos - start == 10 {
                return None;
            }
        }
        let value = u64::try_from(value).ok()?;
        let mut again = Vec::new();
        reference_varint(&mut again, value);
        (again[..] == buf[start..*pos]).then_some(value)
    }
    fn digest_at(buf: &[u8], pos: &mut usize) -> Option<Digest> {
        let b = buf.get(*pos..*pos + 32)?;
        *pos += 32;
        Some(Digest::from_bytes(b.try_into().unwrap()))
    }
    /// The older digest: zero when tag bit 1 says so, else stored and
    /// not zero.
    fn older_at(buf: &[u8], pos: &mut usize, tag: u8) -> Option<Digest> {
        if tag & 2 != 0 {
            return Some(Digest::ZERO);
        }
        digest_at(buf, pos).filter(|d| *d != Digest::ZERO)
    }
    let mut pos = 0usize;
    let level = u32::try_from(varint_at(buf, &mut pos)?).ok()?;
    let leaf_index = varint_at(buf, &mut pos)?;
    let leaf_count = varint_at(buf, &mut pos)?;
    let tag = *buf.get(pos)?;
    pos += 1;
    let chain = match tag {
        0 | 2 => {
            let older_digest = older_at(buf, &mut pos, tag)?;
            let n = varint_at(buf, &mut pos)?;
            if n > buf.len() as u64 {
                return None;
            }
            let mut audit_path = Vec::new();
            for _ in 0..n {
                audit_path.push(digest_at(buf, &mut pos)?);
            }
            ChainPosition::Newest { older_digest, audit_path }
        }
        1 | 3 => {
            let position = u32::try_from(varint_at(buf, &mut pos)?).ok()?;
            if position == 0 {
                return None;
            }
            ChainPosition::Link { position, older_digest: older_at(buf, &mut pos, tag)? }
        }
        _ => return None,
    };
    Some((RecordProof { level, leaf_index, leaf_count, chain }, pos))
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

/// The height of the widest row of at most `row_max` nodes in a tree of
/// `leaves` leaves: the row a crown of that width anchors at.
fn reference_anchor_row(leaves: usize, row_max: usize) -> u32 {
    let mut height = 0;
    while leaves.div_ceil(1 << height) > row_max {
        height += 1;
    }
    height
}

/// How many siblings leaf `leaf`'s audit path has in the rows below
/// height `below`: one per row in which its node has a pair.
fn reference_siblings_below(leaves: usize, leaf: usize, below: u32) -> usize {
    (0..below).filter(|&h| ((leaf >> h) ^ 1) < leaves.div_ceil(1 << h)).count()
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
            // One encoding per proof: what is accepted is what it encodes to.
            assert_eq!(reference_encode(&owned), buf[..used]);
            assert_eq!(parsed.to_owned(), owned);
            assert_eq!(RecordProof::decode(buf), Some((owned, used)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Over random levels of 1–40 keys × 1–60 versions: every key's
    /// newest-version proof written for the one-row crown (the root) is
    /// byte for byte the reference's, and for a crown of rows up to 4 wide
    /// the reference's less the siblings at and above its anchor row; every
    /// older version stores its link — 37 bytes (one byte each for level,
    /// leaf index, leaf count, tag and position, and the older digest), 5
    /// for a chain's oldest, whose older digest is zero — so the level's
    /// proof bytes are `Σ heads + 37·(N − K − C) + 5·C` over `C` keys with
    /// more than one version, linear in the records; the arithmetic length is
    /// the written length, every version verifies by walking down from its
    /// head, and neither a lone link nor a newest-claim on an older version
    /// ever verifies.
    #[test]
    fn chain_proofs_are_linear_and_heads_byte_identical(
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
        let (root, narrow) = (digest.crown(1), digest.crown(4));
        prop_assert_eq!(root.node_count(), 1);
        let anchor_row = reference_anchor_row(chains.len(), 4);
        prop_assert_eq!(narrow.base_height(), anchor_row);
        let (mut stored_bytes, mut head_bytes) = (0usize, 0usize);
        let mut head_written = Vec::new();
        let mut written = Vec::new();
        for (leaf, chain) in chains.iter().enumerate() {
            prop_assert_eq!(digest.chain_len(leaf), chain.len());

            // The head: the reference's bytes, verifying like the owned form.
            let reference = reference_head_proof(3, &chains, &tree, leaf);
            let expect = reference_encode(&reference);
            head_written.clear();
            digest.encode_proof_into(&root, leaf, 0, &mut head_written);
            prop_assert_eq!(&head_written, &expect, "leaf {}", leaf);
            prop_assert_eq!(digest.proof_encoded_len(&root, leaf, 0), expect.len());
            let mut cut = reference.clone();
            let ChainPosition::Newest { audit_path, .. } = &mut cut.chain else { unreachable!() };
            audit_path.truncate(reference_siblings_below(chains.len(), leaf, anchor_row));
            written.clear();
            digest.encode_proof_into(&narrow, leaf, 0, &mut written);
            prop_assert_eq!(&written, &reference_encode(&cut), "leaf {} cut", leaf);
            prop_assert_eq!(digest.proof_encoded_len(&narrow, leaf, 0), written.len());
            prop_assert_eq!(&digest.prove_version(leaf, 0), &reference);
            prop_assert_eq!(&reference.encode(), &expect);
            let head = RecordProofRef::parse(&head_written).expect("own encoding parses");
            prop_assert_eq!(head.encoded_len(), head_written.len());
            prop_assert_eq!(head.link_position(), None);
            prop_assert_eq!(&head.to_owned(), &reference);
            for c in [&commitment, &wrong_root, &wrong_level, &wrong_count] {
                prop_assert_eq!(head.verify(c, &chain[0]), reference.verify(c, &chain[0]));
                prop_assert_eq!(head.verify(c, b"forged"), reference.verify(c, b"forged"));
            }
            prop_assert_eq!(head.verify(&commitment, &chain[0]), Ok(()));
            head_bytes += expect.len();
            stored_bytes += digest.proof_encoded_len(&root, leaf, 0);

            // The older versions: one link each, accepted by the walk in
            // order and in no other way.
            let ChainPosition::Newest { audit_path, .. } = reference.chain else { unreachable!() };
            let mut walk = head.walk().expect("a head starts a walk");
            for (version, record) in chain.iter().enumerate().skip(1) {
                let owned = digest.prove_version(leaf, version);
                let older_digest = chain_digest(&chain[version + 1..]);
                prop_assert_eq!(
                    &owned.chain,
                    &ChainPosition::Link { position: version as u32, older_digest }
                );
                written.clear();
                digest.encode_proof_into(&narrow, leaf, version, &mut written);
                prop_assert_eq!(&written, &reference_encode(&owned));
                prop_assert_eq!(&written, &owned.encode());
                let link_len = if version + 1 == chain.len() { 5 } else { 5 + 32 };
                prop_assert_eq!(written.len(), link_len);
                prop_assert_eq!(digest.proof_encoded_len(&root, leaf, version), link_len);
                prop_assert_eq!(owned.encoded_len(), link_len);
                stored_bytes += digest.proof_encoded_len(&narrow, leaf, version);

                let link = RecordProofRef::parse(&written).expect("own encoding parses");
                prop_assert_eq!(link.link_position(), Some(version as u32));
                prop_assert_eq!(&link.to_owned(), &owned);
                prop_assert_eq!(link.verify(&commitment, record), Err(VerifyError::NotChainHead));
                prop_assert_eq!(owned.verify(&commitment, record), Err(VerifyError::NotChainHead));
                let lying = RecordProof {
                    chain: ChainPosition::Newest { older_digest, audit_path: audit_path.clone() },
                    ..owned
                };
                prop_assert_eq!(lying.verify(&commitment, record), Err(VerifyError::BadAuditPath));

                // Out of turn (the version after this one) it is refused;
                // in turn, accepted — once.
                if let Some(next) = chain.get(version + 1) {
                    let mut skipped = Vec::new();
                    digest.encode_proof_into(&root, leaf, version + 1, &mut skipped);
                    let skipped = RecordProofRef::parse(&skipped).unwrap();
                    prop_assert_eq!(walk.step(&skipped, &[next]), Err(VerifyError::BrokenChain));
                }
                prop_assert_eq!(walk.step(&link, &[b"forged"]), Err(VerifyError::BrokenChain));
                prop_assert_eq!(walk.step(&link, &[record]), Ok(()));
                prop_assert_eq!(walk.step(&link, &[record]), Err(VerifyError::BrokenChain));
            }
        }
        let (keys, records) = (chains.len(), shape.iter().sum::<usize>());
        let chained = shape.iter().filter(|&&versions| versions > 1).count();
        prop_assert_eq!(stored_bytes, head_bytes + 37 * (records - keys - chained) + 5 * chained);
    }

    /// Over random levels of up to 2 500 keys of 1–3 versions, at crown
    /// widths 1 (the root) and 1 024: every record's stored proof is as
    /// long as `proof_encoded_len` computes, parses over exactly those
    /// bytes, and is the reference's encoding of the proof it parses to; a
    /// head keeps the siblings below the crown's anchor row.
    #[test]
    fn proof_encoded_len_is_the_bytes_written(
        shape in prop::collection::vec(1usize..4, 1..2500),
        salt in any::<u8>(),
    ) {
        let (chains, digest) = build_level(6, &shape, salt);
        for row_max in [1, CROWN_ROW_MAX] {
            let crown = digest.crown(row_max);
            let anchor_row = reference_anchor_row(chains.len(), row_max);
            prop_assert_eq!(crown.base_height(), anchor_row);
            let mut written = Vec::new();
            for (leaf, chain) in chains.iter().enumerate() {
                for version in 0..chain.len() {
                    written.clear();
                    digest.encode_proof_into(&crown, leaf, version, &mut written);
                    prop_assert_eq!(digest.proof_encoded_len(&crown, leaf, version), written.len());
                    let parsed = RecordProofRef::parse(&written).expect("own encoding parses");
                    prop_assert_eq!(parsed.encoded_len(), written.len());
                    let owned = parsed.to_owned();
                    prop_assert_eq!(owned.encoded_len(), written.len());
                    prop_assert_eq!(&reference_encode(&owned), &written);
                    if version == 0 {
                        let below = reference_siblings_below(chains.len(), leaf, anchor_row);
                        prop_assert_eq!(parsed.siblings().count(), below);
                    }
                }
            }
        }
    }

    /// Mutate-and-splice over valid encodings, heads and links alike: the
    /// borrowed parser accepts exactly what the field-by-field decoder
    /// accepts, with the same result, and what it accepts is the one
    /// encoding of the proof it decodes to.
    #[test]
    fn parser_accepts_what_the_decoder_accepts(
        shape in prop::collection::vec(1usize..6, 1..9),
        salt in any::<u8>(),
        edits in prop::collection::vec((any::<u16>(), any::<u8>(), 0usize..5), 1..40),
    ) {
        let (chains, digest) = build_level(2, &shape, salt);
        let mut encodings = Vec::new();
        for (leaf, chain) in chains.iter().enumerate() {
            for version in 0..chain.len() {
                let mut buf = Vec::new();
                digest.encode_proof_into(&digest.crown(1), leaf, version, &mut buf);
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
                    // Splice another proof's tail on (a link's onto a
                    // head, a head's onto a link).
                    buf.truncate(at);
                    buf.extend_from_slice(&other[at.min(other.len())..]);
                }
                // Flip a tag bit, or inflate the varint after the tag or
                // after a head's older digest to the maximum: a link's
                // position, a head's sibling count. Level, leaf index and
                // leaf count take a byte each in these levels.
                _ => {
                    let tag_at = 3;
                    let inflate = |buf: &mut Vec<u8>, from: usize| {
                        let from = from.min(buf.len());
                        let end = buf.len().min(from + 10);
                        buf[from..end].fill(0xff);
                    };
                    match *byte % 4 {
                        0 => buf[tag_at] ^= 1,
                        1 => buf[tag_at] ^= 2,
                        2 => inflate(&mut buf, tag_at + 1),
                        _ => inflate(&mut buf, tag_at + 1 + 32),
                    }
                }
            }
            assert_same_verdict(&buf);
            assert_same_verdict(base);
        }
    }
}

/// The stored proof bytes per record of a 2¹⁵-key level in which every
/// fourth key holds three versions, under root-only and 1 024-wide crowns,
/// printed beside what the 57-byte header of before stored: one-version
/// heads, heads of chains, middle and oldest links. A one-version head
/// stores at most 9 + 32·rows bytes for the rows below the crown's anchor
/// row, a link at most 41. `-- --nocapture` shows the table.
#[test]
fn stored_proof_bytes_per_record() {
    const KEYS: usize = 1 << 15;
    let shape: Vec<usize> = (0..KEYS).map(|k| if k % 4 == 0 { 3 } else { 1 }).collect();
    let records: usize = shape.iter().sum();
    let keys: Vec<Vec<u8>> = (0..KEYS).map(|k| format!("key{k:05}").into_bytes()).collect();
    let digest = LevelDigest::from_records(
        4,
        keys.iter().zip(&shape).flat_map(|(key, &versions)| {
            (0..versions).map(move |v| (&key[..], [&key[..], &[v as u8; 100]].concat()))
        }),
    );
    for (name, row_max, rows) in [("root only", 1, 15), ("1 024-wide crown", CROWN_ROW_MAX, 5)] {
        let crown = digest.crown(row_max);
        // [one-version heads, chain heads, middle links, oldest links]:
        // (count, bytes, bytes with the 57-byte header).
        let mut kinds = [(0usize, 0usize, 0usize); 4];
        let mut stored = Vec::new();
        for (leaf, &versions) in shape.iter().enumerate() {
            for version in 0..versions {
                stored.clear();
                digest.encode_proof_into(&crown, leaf, version, &mut stored);
                let len = stored.len();
                let siblings = RecordProofRef::parse(&stored).unwrap().siblings().count();
                let (kind, most) = match version {
                    0 if versions == 1 => (0, 9 + 32 * rows),
                    0 => (1, 41 + 32 * rows),
                    v if v + 1 < versions => (2, 41),
                    _ => (3, 9),
                };
                assert!(len <= most, "{name}: {len} B where {most} is the most");
                let (count, bytes, was) = &mut kinds[kind];
                (*count, *bytes, *was) = (*count + 1, *bytes + len, *was + 57 + 32 * siblings);
            }
        }
        let total: usize = kinds.iter().map(|k| k.1).sum();
        let was: usize = kinds.iter().map(|k| k.2).sum();
        println!(
            "stored proof bytes, 2^15-key level, {name} ({rows} rows stored): \
             {:.1} B per record ({:.1} with the 57-byte header)",
            total as f64 / records as f64,
            was as f64 / records as f64,
        );
        for ((count, bytes, was), kind) in
            kinds.iter().zip(["one-version head", "chain head", "middle link", "oldest link"])
        {
            println!(
                "  {kind:16} {count:6} × {:6.1} B (was {:6.1})",
                *bytes as f64 / *count as f64,
                *was as f64 / *count as f64
            );
        }
    }
}

/// P2's level budgets scale by a proof-inflation factor that shapes the
/// levels. When the proof header went from a fixed 57 bytes to ~9, the
/// factor was scaled by the new to the old size of the record it assumes
/// so that the levels keep their shapes and the bytes saved show as bytes,
/// not as a budget change. This pins, for 4 000 keys of 100-byte values in
/// hashed order and then 2 000 overwrites, under root-only and under full
/// crowns, each level's record count and the flush and compaction counts
/// as the 57-byte header left them (measured at the commit before the
/// header shrank). Leaving the factor at the old one, or taking the plain
/// (109 + 32·rows) / 100, moves every one of the four shapes. To be
/// replaced by a test that the shapes are equal across proof formats.
#[test]
fn level_shapes_are_those_of_the_fixed_header() {
    for (platform, golden) in [
        (root_crown_platform(), GOLDEN_SHAPES_ROOT),
        (Platform::with_defaults(), GOLDEN_SHAPES_CROWNED),
    ] {
        let store = ElsmP2::open(
            platform,
            P2Options {
                write_buffer_bytes: 16 << 10,
                level1_max_bytes: 64 << 10,
                level_multiplier: 4,
                target_file_bytes: 32 << 10,
                ..P2Options::default()
            },
        )
        .unwrap();
        let mut shapes = Vec::new();
        for (from, to) in [(0u32, 4_000u32), (4_000, 6_000)] {
            for i in from..to {
                let key = (i % 4_000).wrapping_mul(2_654_435_761) % 1_000_003;
                let value = vec![b'a' + (i % 26) as u8; 100];
                store.put(format!("user{key:08}").as_bytes(), &value).unwrap();
            }
            let stats = store.db().stats();
            shapes.push(format!(
                "levels {:?} flushes {} compactions {}",
                store.db().level_records(),
                stats.flushes,
                stats.compactions
            ));
        }
        assert_eq!(shapes, golden);
    }
}

const GOLDEN_SHAPES_ROOT: [&str; 2] = [
    "levels [10, 630, 0, 3360, 0, 0, 0, 0] flushes 38 compactions 5",
    "levels [15, 105, 2520, 3360, 0, 0, 0, 0] flushes 57 compactions 8",
];
const GOLDEN_SHAPES_CROWNED: [&str; 2] = [
    "levels [10, 840, 3150, 0, 0, 0, 0, 0] flushes 38 compactions 3",
    "levels [15, 735, 1050, 4200, 0, 0, 0, 0] flushes 57 compactions 6",
];

/// An enclave whose EPC affords crowns of the root alone (`crown_row_max`
/// = 1, as in the figures): proofs carry their whole audit paths, as
/// when the goldens below were first captured.
fn root_crown_platform() -> Arc<Platform> {
    let platform = || Platform::new(CostModel::paper_defaults().with_epc_bytes(128 << 10));
    let probe = ElsmP2::open(platform(), P2Options::default()).unwrap();
    assert_eq!(probe.trusted().crown_row_max(), 1);
    platform()
}

/// Commitment roots and WAL digest of a small three-level store. The WAL
/// digest and level 1 were captured at the commit before the SHA-NI
/// kernel, the flat `LevelDigest` and the borrowed proofs went in; any
/// change to a digest, a canonical byte or the order records are hashed in
/// moves them. The deeper levels hold the same records but were re-pinned
/// when older versions shrank to chain links: with fewer stored bytes the
/// same writes trigger compactions at different points (what was L2 + L3
/// is now all in L3). `golden_level_digest_roots` pins the digests
/// themselves independently of that shape. Under root-only crowns stored
/// paths run to the root, as they always did; under full crowns (`Platform::with_defaults`) stored paths stop at the crown,
/// the levels hold fewer bytes and compact at other points again
/// (`GOLDEN_LEVELS_CROWNED`, captured when paths were cut; same WAL digest).
/// Both level goldens were re-pinned when a proof's 57-byte header became
/// ~9 bytes of varints: the budget factor is scaled for a 2¹⁵-key level's
/// records, and these small levels' records shrank by another share, so
/// they compact at other points (root only: L1 + L3 → all in L3; full
/// crowns: L1 n=136 → n=181). The WAL digest did not move. The roots
/// were re-pinned once more when a Merkle node became one SHA-256
/// compression from a node IV instead of RFC 6962's `0x01`-prefixed hash:
/// the level shapes and the WAL digest did not move.
#[test]
fn golden_three_level_store_digests() {
    for (platform, golden) in [
        (root_crown_platform(), &GOLDEN_LEVELS[..]),
        (Platform::with_defaults(), &GOLDEN_LEVELS_CROWNED),
    ] {
        let store = ElsmP2::open(
            platform,
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
        assert_eq!(populated, golden, "level commitments moved (WAL digest {wal})");
        assert_eq!(wal, GOLDEN_WAL);
        // The store still answers from those levels.
        assert!(store.get(b"user000123").unwrap().is_some());
        assert!(store.get(b"user000025").unwrap().is_none(), "deleted last");
    }
}

const GOLDEN_LEVELS: [&str; 1] =
    ["L3 n=300 4e666a3a95dd2eb1bbe64d58bffdda6c7f7e9fa8476e06dab355dad6ee173024"];
const GOLDEN_LEVELS_CROWNED: [&str; 2] = [
    "L1 n=181 7f1551c46a93bad018d6d87bb27cd540a3cd7377e2cfa3827315bd57f5bcfc05",
    "L3 n=300 e44d22af2f8fb715fc289c4250c321fbf17290bb43e8fc53e31f5fefc2a12b76",
];
const GOLDEN_WAL: &str = "27cfc90b66f695d2bc5e731a8f475fcad4418812fac6519fedc55182d1f04a24";

/// Roots of `LevelDigest::from_records` over fixed multi-version record
/// lists, captured at the commit before older versions shrank to links.
/// Unlike the store golden above these do not depend on where compaction
/// puts a level boundary: they move only if a chain link, a leaf hash, a
/// node hash or the order records are hashed in changes. The two trees of
/// more than one leaf were re-pinned when a node became one compression
/// from a node IV (`merkle::node_hash`); the one-leaf root, which hashes no
/// node, did not move.
#[test]
fn golden_level_digest_roots() {
    let inputs: [(u32, &[usize], u8); 3] =
        [(1, &[1], 0), (2, &[3, 1, 60, 2, 17, 1, 1, 40, 5, 9, 1, 33], 7), (5, &[2; 37], 201)];
    let roots: Vec<String> = inputs
        .iter()
        .map(|&(level, shape, salt)| {
            let c = build_level(level, shape, salt).1.commitment();
            format!("L{} n={} {}", c.level, c.leaf_count, c.root.to_hex())
        })
        .collect();
    assert_eq!(roots, GOLDEN_DIGEST_ROOTS);
}

const GOLDEN_DIGEST_ROOTS: [&str; 3] = [
    "L1 n=1 0e2fb4232ab4229c19bbce5ca6caaddc4f3aa20280aa8c8e8cea9d6e20378f54",
    "L2 n=12 25e747590f3fd26981a469fbbffdfb502c410a78224f1601ab55344df252c8a2",
    "L5 n=37 612a7ca48a57ecde7efa5cd6b8e6d60b56a6d60fca0b16be4209a5ce90ab67b1",
];

/// Trusted-state hygiene: crowns are derived state. For one fixed history
/// the dataset digest, the snapshot digest, the signed replication
/// announcement are what they were at the commit before the enclave kept
/// crowns (captured there) — a crown enters no digest and is never sealed.
/// The `MANIFEST` line pins the manifest and the state sealed into it (what
/// a separate sealed-state file held, plus the 32-byte `wal_base` recovery
/// folds the logs from; re-captured when the state moved into the
/// manifest, and no other line moved). That held under root-only crowns,
/// whose stored paths run to the root as before, for both histories;
/// under full crowns stored paths stop at the crown, fewer
/// bytes move compactions to other points, and the lines move with them
/// (`GOLDEN_TRUSTED_STATE_CROWNED`, `GOLDEN_PIPELINE_CROWNED`, captured
/// when paths were cut). When a proof's 57-byte header became ~9 bytes of
/// varints every stored file's bytes moved, and with the scaled budget
/// factor these small stores compact at other points: the `MANIFEST` and
/// file lines were re-pinned under both crowns, the crowned history's
/// epoch, digests and announcement too, and the pipeline's under both;
/// the root-only history's epoch, dataset, snapshot and announcement did
/// not move. When a Merkle node became one compression from a node IV,
/// every digest, announcement, file and `MANIFEST` hash moved under both
/// crowns (each holds level roots, or files that store audit paths); no
/// epoch, file count or `MANIFEST` length did.
#[test]
fn golden_trusted_state_is_unmoved_by_crowns() {
    assert_eq!(trusted_state_lines(root_crown_platform()), GOLDEN_TRUSTED_STATE);
    assert_eq!(trusted_state_lines(Platform::with_defaults()), GOLDEN_TRUSTED_STATE_CROWNED);
    assert_eq!(pipeline_fingerprint(root_crown_platform), GOLDEN_PIPELINE);
    assert_eq!(pipeline_fingerprint(Platform::with_defaults), GOLDEN_PIPELINE_CROWNED);
}

/// The trusted-state lines of one fixed history on `platform`; the state
/// comes back out of the seal, crowns re-derived beside it.
fn trusted_state_lines(platform: Arc<Platform>) -> Vec<String> {
    use elsm_repro::elsm::{Announcement, SessionKey};
    use elsm_repro::sim_disk::{SimDisk, SimFs};

    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = P2Options {
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 8 * 1024,
        level_multiplier: 4,
        target_file_bytes: 8 * 1024,
        shard_id: Some(3),
        ..P2Options::default()
    };
    let store = ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
    for round in 0..4u32 {
        for i in 0..700u32 {
            let key = format!("user{:06}", (i * 37 + round * 11) % 1500);
            store.put(key.as_bytes(), format!("value-{round}-{i}").as_bytes()).unwrap();
        }
        store.delete(format!("user{:06}", round * 5).as_bytes()).unwrap();
    }
    let trusted = store.trusted();
    let epoch = store.db().current_epoch();
    let announcement =
        Announcement::sign(&platform, trusted, 0, epoch, &SessionKey::derive(b"golden")).unwrap();
    let mut got = vec![
        format!("epoch {epoch}"),
        format!("dataset {}", trusted.dataset_digest().to_hex()),
        format!("snapshot {}", trusted.snapshot_digest(epoch).unwrap().to_hex()),
        format!("announcement {}", sha256(&announcement.encode()).to_hex()),
    ];
    store.close().unwrap();
    got.push(manifest_line(&fs_listing(&fs)));
    drop(store);
    let reopened = ElsmP2::open_with(platform, fs, options, None).unwrap();
    assert_eq!(format!("dataset {}", reopened.trusted().dataset_digest().to_hex()), got[1]);
    assert!(reopened.get(b"user000123").unwrap().is_some());
    got
}

/// The `MANIFEST` line of a listing: the manifest with the sealed state.
fn manifest_line(files: &[String]) -> String {
    files.iter().find(|f| f.starts_with("MANIFEST ")).unwrap().clone()
}

/// One line per `SimFs` file, sorted: name, length, SHA-256.
fn fs_listing(fs: &elsm_repro::sim_disk::SimFs) -> Vec<String> {
    let mut names = fs.list();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let file = fs.open(&name).unwrap();
            let bytes = file.peek(0, file.len()).unwrap();
            format!("{name} {} {}", bytes.len(), sha256(&bytes).to_hex())
        })
        .collect()
}

/// The same for how the bytes get to disk: this history runs every
/// maintenance path — flushes, a leveled compaction wave down to the
/// purging bottom level, value separation with a value-log GC, a tiered
/// run, and a replica replaying the primary's job stream — and every file
/// either node leaves behind and a signed announcement are what they were
/// at the commit before the merge pipeline streamed borrowed records
/// (captured there). The sealed state — and with it the two listing hashes
/// — was re-captured when `wal_base` joined it (+32 B), and again when it
/// moved into the manifest; every other line of both listings was diffed
/// identical. Every store and node of it runs on a platform from
/// `platform`.
fn pipeline_fingerprint(platform: fn() -> Arc<Platform>) -> Vec<String> {
    use elsm_repro::elsm::{Announcement, SessionKey};
    use elsm_repro::lsm_store::{CompactionStrategyKind, VlogConfig};
    use elsm_repro::replica::{ReplicationGroup, ReplicationOptions};

    let value = |round: u32, i: u32| -> Vec<u8> {
        // Every third value is large enough to move to the value log.
        let len = if i % 3 == 0 { 300 + (i % 7) as usize * 40 } else { 20 + (i % 11) as usize };
        format!("v{round}-{i}-").into_bytes().into_iter().cycle().take(len).collect()
    };
    let leveled = P2Options {
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 8 * 1024,
        level_multiplier: 2,
        max_levels: 3,
        target_file_bytes: 8 * 1024,
        shard_id: Some(5),
        vlog: Some(VlogConfig {
            value_threshold: 256,
            target_file_bytes: 8 * 1024,
            gc_garbage_ratio: 0.2,
            gc_enabled: true,
        }),
        ..P2Options::default()
    };
    let group = ReplicationGroup::open(
        platform(),
        leveled,
        ReplicationOptions { replicas: 1, leader_check_interval: 1, ..Default::default() },
    )
    .unwrap();
    for round in 0..5u32 {
        for i in 0..260u32 {
            let key = format!("user{:05}", (i * 29 + round * 7) % 400);
            group.put(key.as_bytes(), &value(round, i)).unwrap();
        }
        // Deletes reach the purging bottom level and turn the separated
        // values under them into value-log garbage.
        for i in 0..60u32 {
            group.delete(format!("user{:05}", (i * 29 + round * 7) % 400).as_bytes()).unwrap();
        }
    }
    group.flush().unwrap();
    let primary = group.primary_store();
    let replica = group.replica_store(0);
    let stats = primary.db().stats();
    assert!(stats.compactions > 0 && stats.flushes > 5, "{stats:?}");
    assert!(
        !primary.fs().list().contains(&"vlog-000001.vlg".to_string()),
        "the value-log GC must have rewritten and dropped the first log file"
    );
    let epoch = primary.db().current_epoch();
    let announcement = Announcement::sign(
        primary.platform(),
        primary.trusted(),
        0,
        epoch,
        &SessionKey::derive(b"golden"),
    )
    .unwrap();
    let mut got = vec![
        format!("epoch {epoch}"),
        format!("dataset {}", primary.trusted().dataset_digest().to_hex()),
        format!("announcement {}", sha256(&announcement.encode()).to_hex()),
    ];
    assert_eq!(replica.trusted().dataset_digest(), primary.trusted().dataset_digest());
    group.close().unwrap();
    let files = fs_listing(primary.fs());
    assert_eq!(fs_listing(replica.fs()), files, "the replica replayed other bytes");
    got.push(format!("files {} {}", files.len(), sha256(files.join("\n").as_bytes()).to_hex()));
    got.push(manifest_line(&files));

    // A tiered store: flush runs stack, then merge as one tiered job.
    let tiered = ElsmP2::open(
        platform(),
        P2Options {
            write_buffer_bytes: 4 * 1024,
            target_file_bytes: 8 * 1024,
            compaction_strategy: CompactionStrategyKind::Tiered,
            ..P2Options::default()
        },
    )
    .unwrap();
    for i in 0..900u32 {
        let key = format!("user{:05}", (i * 31) % 350);
        tiered.put(key.as_bytes(), &value(9, i)).unwrap();
    }
    tiered.db().flush().unwrap();
    assert!(tiered.db().stats().compactions > 0, "a tiered merge must have run");
    tiered.close().unwrap();
    let files = fs_listing(tiered.fs());
    got.push(format!(
        "tiered files {} {}",
        files.len(),
        sha256(files.join("\n").as_bytes()).to_hex()
    ));
    got
}

const GOLDEN_PIPELINE: [&str; 6] = [
    "epoch 149",
    "dataset 81dba0d69754ad5fe08a6122f9bc962aa523bfc64050fe4ff9244c1e518dbf44",
    "announcement b9d9749c0326bc6b9348caa6f5925724356e2eb1bf704b9c88cf2e56e963d95d",
    "files 22 82b4add58b61c20dc2f87f4d9a050a493c2c02b80416378abcb57631bc00da0f",
    "MANIFEST 396 67462300433cf34a5f331b37990f7b2fe4b7d022ce349b7945b01f272362214a",
    "tiered files 15 f239169390457ca232d06ae9ff0b8679a0c49d09a1aef5bb3810cae0927438e5",
];

const GOLDEN_TRUSTED_STATE: [&str; 5] = [
    "epoch 106",
    "dataset 8f4ed9bbe5b35d604593c5f53f3e3e184a273445fefb45994393844340bb6b87",
    "snapshot 14666e5f60a7985e0500c9d903dca5c4b12ad6fe09ce007ab466ac08db29038b",
    "announcement 8999bd84a32d9f42450212cef2616a5d63d0b96092734553ba3b828f5629b155",
    "MANIFEST 540 100bf98eb87d05c2dd320393671351f96e1cb80edc01fdb66bfc723a625f6129",
];

const GOLDEN_PIPELINE_CROWNED: [&str; 6] = [
    "epoch 140",
    "dataset 4f946a54196eec1cfbdcb82e7eb3ce1827cfa12ee352222b5786319677ee1350",
    "announcement 8b6eb642e2f3a24e907f47fc5e56bfd4104d662d942ee82e835a179b4c4ffbb8",
    "files 20 0fbc608fc0c767ec26283b623d39dc9c25ff54f14c580a1629dbba3b96c4a4a8",
    "MANIFEST 393 5dc9a9af7c1bc59316e216b19f236e58df94faf820354734babbd67d864d0459",
    "tiered files 15 89fe63278ff1f5335db3c4603f87954d15b6737b3067ad33c4a8b15c96d26a61",
];

const GOLDEN_TRUSTED_STATE_CROWNED: [&str; 5] = [
    "epoch 93",
    "dataset 6e9dfaed590d59f9d90cb64984cd77e2bc1d075f1c32b8261451b9315fe67c9f",
    "snapshot cbc7d6ed39ec0eb878cb791661bdaf5fbcb22a28e08107662d3b26ff72b4dda1",
    "announcement 2b30041cecdf4a203a9f421b18ad0670d87151d5e7d01769552f045eeab21662",
    "MANIFEST 524 fffb28c389fd23d128544219ec12e4f218a63173472040ca08728ab6cfd19470",
];
