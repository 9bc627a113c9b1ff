//! Proof bytes and digests are pinned: what the store writes for a key's
//! newest version and what it commits to must be exactly what it wrote and
//! committed to before older versions shrank to chain links, and the bytes
//! a level stores in proofs must be linear in its record count.
//!
//! The reference side of every comparison is kept here in its plainest
//! form: a newest-version proof's `older_digest` recomputed with
//! `chain_digest(&chain[1..])` and serialized by the field-by-field encoder
//! the shared one replaced (both as they were at the commit before the
//! links went in), and a field-by-field decoder of the whole format —
//! newest tag and link tag — for the shared parser to agree with.

use elsm_repro::crypto::{sha256, Digest};
use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::merkle::{
    chain_digest, ChainPosition, LevelCommitment, LevelDigest, MerkleTree, RecordProof,
    RecordProofRef, VerifyError, LINK_LEN,
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

/// `RecordProof::encode` as it was for a newest version; a link is its
/// header, tag 1, position and older digest.
fn reference_encode(proof: &RecordProof) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&proof.level.to_le_bytes());
    out.extend_from_slice(&proof.leaf_index.to_le_bytes());
    out.extend_from_slice(&proof.leaf_count.to_le_bytes());
    match &proof.chain {
        ChainPosition::Newest { older_digest, audit_path } => {
            out.push(0);
            out.extend_from_slice(older_digest.as_bytes());
            out.extend_from_slice(&(audit_path.len() as u32).to_le_bytes());
            for d in audit_path {
                out.extend_from_slice(d.as_bytes());
            }
        }
        ChainPosition::Link { position, older_digest } => {
            out.push(1);
            out.extend_from_slice(&position.to_le_bytes());
            out.extend_from_slice(older_digest.as_bytes());
        }
    }
    out
}

/// The format decoded field by field, reserving nothing.
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
        0 => {
            let older_digest = digest_at(buf, &mut pos)?;
            let n = u32_at(buf, &mut pos)? as usize;
            if n > buf.len() {
                return None;
            }
            let mut audit_path = Vec::new();
            for _ in 0..n {
                audit_path.push(digest_at(buf, &mut pos)?);
            }
            ChainPosition::Newest { older_digest, audit_path }
        }
        1 => {
            let position = u32_at(buf, &mut pos)?;
            if position == 0 {
                return None;
            }
            ChainPosition::Link { position, older_digest: digest_at(buf, &mut pos)? }
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
    /// older version stores exactly `LINK_LEN` bytes — so the level's proof
    /// bytes are `Σ heads + (N − K)·LINK_LEN` — the arithmetic length is
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
                prop_assert_eq!(written.len(), LINK_LEN);
                prop_assert_eq!(digest.proof_encoded_len(&root, leaf, version), LINK_LEN);
                prop_assert_eq!(owned.encoded_len(), LINK_LEN);
                stored_bytes += LINK_LEN;

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
        prop_assert_eq!(stored_bytes, head_bytes + (records - keys) * LINK_LEN);
    }

    /// Mutate-and-splice over valid encodings, heads and links alike: the
    /// borrowed parser accepts exactly what the field-by-field decoder
    /// accepts, with the same result.
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
                // Flip the tag, or inflate a count field to the maximum: a
                // link's position, a head's sibling count.
                _ => match *byte % 3 {
                    0 => buf[20] ^= 1,
                    1 => buf[21..25].fill(0xff),
                    _ => {
                        let end = buf.len().min(21 + 32 + 4);
                        buf[end.min(21 + 32)..end].fill(0xff);
                    }
                },
            }
            assert_same_verdict(&buf);
            assert_same_verdict(base);
        }
    }
}

/// An enclave whose EPC affords crowns of the root alone (`crown_row_max`
/// = 1, as in the figures): proofs carry their whole audit paths, the
/// bytes the goldens below were first captured from.
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
/// themselves independently of that shape. Under root-only crowns the
/// store writes the bytes it always did and the golden is that one; under
/// full crowns (`Platform::with_defaults`) stored paths stop at the crown,
/// the levels hold fewer bytes and compact at other points again
/// (`GOLDEN_LEVELS_CROWNED`, captured when paths were cut; same WAL digest).
#[test]
fn golden_three_level_store_digests() {
    for (platform, golden) in
        [(root_crown_platform(), GOLDEN_LEVELS), (Platform::with_defaults(), GOLDEN_LEVELS_CROWNED)]
    {
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

const GOLDEN_LEVELS: [&str; 2] = [
    "L1 n=92 c0a212c43bf3386f2be0d7329726341e76ce0c15416201b073bb2761bc48c4ea",
    "L3 n=300 9c5208f51ba52921d1e5fe2f49a4108bcb33cc5726ea3db5455e22bdc3f2d4fe",
];
const GOLDEN_LEVELS_CROWNED: [&str; 2] = [
    "L1 n=136 cf284bb98ec5357832e04bb8d76d50ee7f346dbebaa7f36312b373dae65b7804",
    "L3 n=300 1f3098a825c72636c08034b8d875123b849676c874d3b8b5386d6852dde22410",
];
const GOLDEN_WAL: &str = "27cfc90b66f695d2bc5e731a8f475fcad4418812fac6519fedc55182d1f04a24";

/// Roots of `LevelDigest::from_records` over fixed multi-version record
/// lists, captured at the commit before older versions shrank to links.
/// Unlike the store golden above these do not depend on where compaction
/// puts a level boundary: they move only if a chain link, a leaf hash, a
/// node hash or the order records are hashed in changes.
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
    "L2 n=12 9771a5ba479d86245fcf540764437e2ae7088aab17e3f32114bf7fe948bad996",
    "L5 n=37 b61b41aa4f076e1c33f905c12dbb389da3cbc1be6761edeeaf7a6e10704678e7",
];

/// Trusted-state hygiene: crowns are derived state. For one fixed history
/// the dataset digest, the snapshot digest, the signed replication
/// announcement are what they were at the commit before the enclave kept
/// crowns (captured there) — a crown enters no digest and is never sealed.
/// The `MANIFEST` line pins the manifest and the state sealed into it (what
/// a separate sealed-state file held, plus the 32-byte `wal_base` recovery
/// folds the logs from; re-captured when the state moved into the
/// manifest, and no other line moved). That holds under root-only crowns,
/// whose stored proofs are byte for byte those of before, for both
/// histories; under full crowns stored paths stop at the crown, fewer
/// bytes move compactions to other points, and the lines move with them
/// (`GOLDEN_TRUSTED_STATE_CROWNED`, `GOLDEN_PIPELINE_CROWNED`, captured
/// when paths were cut).
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
        incremental_commitments: true,
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
    "epoch 152",
    "dataset 2ba7522c690256572766b340e44a54a569ced0ab6e9ffca9baf6bb1cf57d4273",
    "announcement 193b1dc4a2cd55c6d203675c562e361b1ecddd1ee162b8c8dd579fce32e8322b",
    "files 21 7237a6f0af26adf473fec1a99a7adfe87ae3f843d3c2eb3e2018bae3c9bf8b80",
    "MANIFEST 401 713fe7ed0c8cb447c1be4713381e7e6e78cde2f6f5ffbf52331ddcfaaf02704a",
    "tiered files 15 d27ce228ef6705e7b05ba4f22a8df036ab67c4d9edb89e99fe0ca33c6130dcf6",
];

const GOLDEN_TRUSTED_STATE: [&str; 5] = [
    "epoch 106",
    "dataset ad35d9f7007566cda9ec72ff688beeecf78ee66225050e44c643942654bc167f",
    "snapshot b22f147d1f68ebd23170d76a1ea810201e15ecd579ab3bf06f4f4a39b8819c43",
    "announcement df832657f793f8805f7f104c7972f583312cd7c043a0a08a1c2b677938110f15",
    "MANIFEST 542 604b48966deb6f54dec28785c689afc0d0a03911b8ccd836d560f21296bc5e9f",
];

const GOLDEN_PIPELINE_CROWNED: [&str; 6] = [
    "epoch 144",
    "dataset 3822b01abf4078c3c525b9a1ef441c2c8b4425c0c3ecf589a4300940601cd5a0",
    "announcement 19ecaa24f856b4201527c4e6c09c33a7ccc3396a99d54b56fec5bc7ce233787e",
    "files 21 c758b6905b9512c426d89f27adb8b8029b928f6f077a51a3f21edf88552f5d77",
    "MANIFEST 394 5b8663744d6e0877410c8505c349e968669e298b1467ffe0d05028ae29814e31",
    "tiered files 15 570475618056a5201537dbca866eed24a20f1c0c3a042ddfd66cb224ccc67114",
];

const GOLDEN_TRUSTED_STATE_CROWNED: [&str; 5] = [
    "epoch 98",
    "dataset d05603cd24bbf239aa86bb9cb6690a02546e8f49086d5fb5c49df2aacce128fb",
    "snapshot 780f8d1c016c7e5d3d1781087a4c138fef00896a62ebfdeee252adde93f730a3",
    "announcement 1605035c2fcc55912b9ccaab8ec0cca70ffbeaf84327875959f705199118e2bc",
    "MANIFEST 527 f1a88ca325bf0d1d61cfdd4cc6a5a79862fa5aaab13cf112aef3555dbeec86f4",
];
