//! Criterion micro-benchmarks for the building blocks: crypto primitives,
//! Merkle structures, the LSM engine and the authenticated store. These
//! measure *wall-clock* cost of the real implementations (unlike the
//! figure binaries, which report simulated time).
//!
//! Wall vs simulated, on the development host (Xeon @ 2.1 GHz with
//! `sha_ni`; `elsm_crypto::sha256::backend()` = "sha-ni"), as printed by
//! `cargo bench -p elsm-bench` (the shim times every iteration, which adds
//! about 50 ns to each figure; a plain loop reads 107 ns for
//! `sha256_64b`). The cost model charges 80 ns per 64-byte hash block
//! (`CostModel::hash_ns_per_block`); the code now spends about 50:
//!
//! | rung | scalar kernel, per-proof re-hash | SHA-NI, suffix digests |
//! |---|---|---|
//! | `crypto/sha256_64b` (2 blocks) | 639 ns | 161 ns |
//! | `crypto/sha256_4k` | 210 MiB/s | 1 260 MiB/s |
//! | `crypto/hmac_64b_keyed` (3 blocks; unkeyed before: 5) | 1 522 ns | 241 ns |
//! | `merkle/node_hash` (2 blocks) | 679 ns | 190 ns |
//! | `merkle/tree_build_4k_leaves` | 2 633 µs | 666 µs |
//! | `merkle/verify_path_4k` | 7 790 ns | 1 886 ns |
//! | `merkle/level_digest_2k_records` | 3 382 µs | 1 035 µs |
//! | `merkle/level_digest_8keys_x_250versions` | 243 ms | 2.1 ms |
//! | `merkle/proof_encode_into` (newest of 250 versions) | 227 µs | 65 ns |
//! | `elsm_p2/verified_get` | 17.2 µs | 6.1 µs |
//! | `elsm_p2/put` (amortised flushes) | 86.8 µs | 16.9 µs |
//! | `elsm_p2/verified_scan_20` | 71.2 µs | 27.5 µs |
//!
//! `level_digest_2k_records` has one version per key and cannot see the
//! quadratic the 8 x 250 rung exposes: before, every proof re-hashed its
//! key's whole older suffix (and `proof_encode_into` was
//! `prove_version(..).encode()`). On a CPU without the SHA extensions the
//! crypto rungs read as in the left column; the 8 x 250, proof-encoding
//! and store rungs improve all the same, because what they dropped was
//! repeated hashing, cloning and re-encoding, not slow hashing.
//!
//! The rungs that see a key's *older* versions, before and after an older
//! version's proof shrank from a copy of every newer record plus the audit
//! path to a 57-byte chain link (same host, SHA-NI; everything above is
//! unchanged):
//!
//! | rung | embedded newer records | chain links |
//! |---|---|---|
//! | `merkle/level_digest_8keys_x_250versions` (digest + 2 000 proofs, 30 MB → 115 KB of them) | 2.05 ms | 0.62 ms |
//! | `merkle/proof_encode_into` (newest of 250 versions, bytes unchanged) | 61 ns | 64 ns |
//! | `merkle/proof_encode_into_oldest_of_250` | 1 983 ns | 43 ns |
//! | `merkle/verify_chain_250` (every version's own proof → head + one walk) | 7 180 µs | 60 µs |

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_crypto::hmac::HmacKey;
use elsm_crypto::{sha256, AeadKey, DetKey, OpeKey};
use merkle::{node_hash, prove_range, verify_range, LevelDigest, MerkleTree, RecordProofRef};
use sgx_sim::Platform;

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data4k = vec![0xabu8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("sha256_4k", |b| b.iter(|| sha256(std::hint::black_box(&data4k))));
    // One message block + the padding block: the unit `CostModel::
    // hash_ns_per_block` (80 ns) stands for, twice.
    let block64 = [0x5au8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("sha256_64b", |b| b.iter(|| sha256(std::hint::black_box(&block64))));
    let mac_key = HmacKey::new(&[7u8; 32]);
    g.bench_function("hmac_64b_keyed", |b| {
        b.iter(|| mac_key.mac(&[std::hint::black_box(&block64[..])]))
    });
    g.throughput(Throughput::Bytes(4096));
    let aead = AeadKey::derive(b"bench");
    let nonce = elsm_crypto::aead::nonce_from_u64s(1, 2);
    g.bench_function("aead_seal_4k", |b| {
        b.iter(|| aead.seal(&nonce, b"", std::hint::black_box(&data4k)))
    });
    let det = DetKey::derive(b"bench");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("det_encrypt_16b_key", |b| {
        b.iter(|| det.encrypt(std::hint::black_box(b"user000000000042")))
    });
    let ope = OpeKey::derive(b"bench");
    g.bench_function("ope_encode", |b| b.iter(|| ope.encode(std::hint::black_box(0xdead_beef))));
    g.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut g = c.benchmark_group("merkle");
    let leaves: Vec<_> = (0..4096u32).map(|i| sha256(&i.to_le_bytes())).collect();
    g.bench_function("tree_build_4k_leaves", |b| {
        b.iter_batched(|| leaves.clone(), MerkleTree::from_leaves, BatchSize::SmallInput)
    });
    g.bench_function("node_hash", |b| {
        b.iter(|| node_hash(std::hint::black_box(&leaves[0]), std::hint::black_box(&leaves[1])))
    });
    let tree = MerkleTree::from_leaves(leaves.clone());
    g.bench_function("audit_path_4k", |b| b.iter(|| tree.audit_path(std::hint::black_box(2049))));
    let path = tree.audit_path(2049);
    g.bench_function("verify_path_4k", |b| {
        b.iter(|| MerkleTree::verify(tree.root(), 4096, 2049, leaves[2049], &path))
    });
    let rp = prove_range(&tree, 1000, 1100);
    g.bench_function("verify_range_100_of_4k", |b| {
        b.iter(|| verify_range(tree.root(), 4096, 1000, &leaves[1000..=1100], &rp))
    });
    // Level digest over a realistic compaction output.
    let records: Vec<(Vec<u8>, Vec<u8>)> =
        (0..2000u32).map(|i| (format!("key{i:06}").into_bytes(), vec![0u8; 116])).collect();
    g.bench_function("level_digest_2k_records", |b| {
        b.iter(|| {
            LevelDigest::from_records(3, records.iter().map(|(k, v)| (k.as_slice(), v.clone())))
        })
    });
    // The same 2 000 records as 8 hot keys x 250 versions: building the
    // digest and emitting every record's proof, which is what a compaction
    // does. Neither the hashing nor the proof bytes may be quadratic in
    // versions per key: an older version's proof is a fixed-size link.
    let hot: Vec<(Vec<u8>, Vec<u8>)> = (0..2000u32)
        .map(|i| (format!("key{:06}", i / 250).into_bytes(), vec![(i % 250) as u8; 116]))
        .collect();
    let hot_level =
        || LevelDigest::from_records(3, hot.iter().map(|(k, v)| (k.as_slice(), v.clone())));
    g.bench_function("level_digest_8keys_x_250versions", |b| {
        let mut proof = Vec::new();
        b.iter(|| {
            let digest = hot_level();
            let mut bytes = 0usize;
            for leaf in 0..8 {
                for version in 0..250 {
                    proof.clear();
                    digest.encode_proof_into(leaf, version, &mut proof);
                    bytes += proof.len();
                }
            }
            bytes
        })
    });
    let digest = hot_level();
    for (name, version) in [("proof_encode_into", 0), ("proof_encode_into_oldest_of_250", 249)] {
        g.bench_function(name, |b| {
            let mut proof = Vec::new();
            b.iter(|| {
                proof.clear();
                digest.encode_proof_into(std::hint::black_box(3), version, &mut proof);
                proof.len()
            })
        });
    }
    // What a scan's verifier does with one 250-version key: authenticate
    // the head, then walk the 249 links, one hash each.
    let commitment = digest.commitment();
    let chain = &hot[3 * 250..4 * 250];
    let proofs: Vec<Vec<u8>> = (0..250).map(|v| digest.prove_version(3, v).encode()).collect();
    g.bench_function("verify_chain_250", |b| {
        b.iter(|| {
            let head = RecordProofRef::parse(&proofs[0]).expect("own encoding");
            head.verify(&commitment, &chain[0].1).expect("honest head");
            let mut walk = head.walk().expect("a head");
            for (proof, (_, record)) in proofs.iter().zip(chain).skip(1) {
                let link = RecordProofRef::parse(proof).expect("own encoding");
                walk.step(&link, record).expect("honest link");
            }
        })
    });
    g.finish();
}

fn bench_lsm(c: &mut Criterion) {
    let mut g = c.benchmark_group("lsm");
    g.bench_function("memtable_insert_1k", |b| {
        b.iter_batched(
            lsm_store::memtable::MemTable::new,
            |mut mt| {
                for i in 0..1000u32 {
                    mt.insert(lsm_store::Record::put(
                        format!("key{i:06}").into_bytes(),
                        vec![0u8; 100],
                        u64::from(i) + 1,
                    ));
                }
                mt
            },
            BatchSize::SmallInput,
        )
    });
    let mut block = lsm_store::block::BlockBuilder::new();
    for i in 0..100u32 {
        let ik = lsm_store::InternalKey::new(
            format!("key{i:04}").as_bytes(),
            u64::from(i) + 1,
            lsm_store::ValueKind::Put,
        );
        block.add(ik.encoded(), &[0u8; 100]);
    }
    let parsed = lsm_store::block::Block::parse(bytes::Bytes::from(block.finish())).unwrap();
    let target = lsm_store::InternalKey::seek_to(b"key0050");
    g.bench_function("block_seek", |b| {
        b.iter(|| parsed.seek(std::hint::black_box(target.encoded())).next())
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("elsm_p2");
    g.sample_size(20);
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options { write_buffer_bytes: 64 * 1024, ..P2Options::default() },
    )
    .unwrap();
    for i in 0..5000u32 {
        store.put(format!("key{i:06}").as_bytes(), &[0u8; 100]).unwrap();
    }
    store.db().flush().unwrap();
    let mut i = 0u32;
    g.bench_function("verified_get", |b| {
        b.iter(|| {
            i = (i + 2654435761u32 % 5000) % 5000;
            store.get(format!("key{i:06}").as_bytes()).unwrap()
        })
    });
    let mut j = 0u32;
    g.bench_function("put", |b| {
        b.iter(|| {
            j += 1;
            store.put(format!("new{j:08}").as_bytes(), &[0u8; 100]).unwrap()
        })
    });
    g.bench_function("verified_scan_20", |b| {
        b.iter(|| store.scan(b"key000100", b"key000120").unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_crypto, bench_merkle, bench_lsm, bench_store);
criterion_main!(benches);
