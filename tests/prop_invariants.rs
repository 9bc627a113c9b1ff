//! Property-based tests on the core data structures and protocol
//! invariants, spanning crates.

use elsm_repro::crypto::AeadKey;
use elsm_repro::elsm::confidential::{det::DetKey, ope::OpeKey};
use elsm_repro::merkle::tree::leaf_hash;
use elsm_repro::merkle::{
    chain_digest, prove_range, verify_range, ChainPosition, LevelDigest, MerkleTree, RecordProof,
    RecordProofRef, VerifyError,
};
use proptest::prelude::*;

pub mod support;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every leaf of every tree shape verifies; any single-bit index shift
    /// fails.
    #[test]
    fn merkle_audit_paths_sound(n in 1usize..80, probe in 0usize..80) {
        let leaves: Vec<_> = (0..n).map(|i| leaf_hash(format!("L{i}").as_bytes())).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let i = probe % n;
        let path = tree.audit_path(i);
        prop_assert!(MerkleTree::verify(tree.root(), n, i, leaves[i], &path));
        if n > 1 {
            let j = (i + 1) % n;
            prop_assert!(!MerkleTree::verify(tree.root(), n, j, leaves[i], &path));
        }
    }

    /// Range proofs verify exactly for the proven window and reject any
    /// shifted or truncated presentation.
    #[test]
    fn range_proofs_sound(n in 1usize..60, a in 0usize..60, b in 0usize..60) {
        let (lo, hi) = (a.min(b) % n, b.max(a) % n);
        let (lo, hi) = (lo.min(hi), hi.max(lo));
        let leaves: Vec<_> = (0..n).map(|i| leaf_hash(format!("R{i}").as_bytes())).collect();
        let tree = MerkleTree::from_leaves(leaves.clone());
        let proof = prove_range(&tree, lo, hi);
        prop_assert!(verify_range(tree.root(), n, lo, &leaves[lo..=hi], &proof));
        if lo > 0 {
            prop_assert!(!verify_range(tree.root(), n, lo - 1, &leaves[lo..=hi], &proof));
        }
        if hi > lo {
            prop_assert!(!verify_range(tree.root(), n, lo, &leaves[lo..hi], &proof));
        }
    }

    /// Chain digests are injective over version order and content
    /// (prefix-freedom of the record encoding is assumed by construction).
    #[test]
    fn chain_digest_orders_matter(records in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..20), 2..6)) {
        let d1 = chain_digest(&records);
        let mut reversed = records.clone();
        reversed.reverse();
        if records != reversed {
            prop_assert_ne!(d1, chain_digest(&reversed));
        }
    }

    /// Level digests: every version of every key verifies by walking down
    /// from its key's head; a link alone, a newest-claim on an older
    /// version and a walk that skips a version never verify.
    #[test]
    fn level_digest_proofs_sound(keys in prop::collection::btree_map(
        prop::collection::vec(any::<u8>(), 1..8),
        1usize..6,
        1..12,
    )) {
        let mut records = Vec::new();
        for (k, versions) in &keys {
            for v in 0..*versions {
                records.push((k.clone(), format!("val-{v}").into_bytes()));
            }
        }
        let digest = LevelDigest::from_records(
            3,
            records.iter().map(|(k, r)| (k.as_slice(), r.clone())),
        );
        let commitment = digest.commitment();
        prop_assert_eq!(digest.leaf_count(), keys.len());
        let mut chains = records.chunk_by(|a, b| a.0 == b.0);
        for leaf in 0..keys.len() {
            let chain = chains.next().expect("one chain per leaf");
            let head = digest.prove_newest(leaf);
            prop_assert_eq!(head.verify(&commitment, &chain[0].1), Ok(()));
            let ChainPosition::Newest { audit_path, .. } = head.chain.clone() else {
                unreachable!()
            };
            let head = head.encode();
            let head = RecordProofRef::parse(&head).expect("own encoding parses");
            let mut walk = head.walk().expect("a head starts a walk");
            let mut skipping = walk.clone();
            for (v, (_, bytes)) in chain.iter().enumerate().skip(1) {
                let link = digest.prove_version(leaf, v);
                prop_assert_eq!(link.verify(&commitment, bytes), Err(VerifyError::NotChainHead));
                let lying = RecordProof {
                    chain: ChainPosition::Newest {
                        older_digest: *link.chain.older_digest(),
                        audit_path: audit_path.clone(),
                    },
                    ..link.clone()
                };
                prop_assert!(lying.verify(&commitment, bytes).is_err());
                let link = link.encode();
                let link = RecordProofRef::parse(&link).expect("own encoding parses");
                prop_assert_eq!(walk.step(&link, &[bytes]), Ok(()));
                if v > 1 {
                    prop_assert_eq!(skipping.step(&link, &[bytes]), Err(VerifyError::BrokenChain));
                }
            }
        }
    }

    /// RecordProof serialization round-trips for arbitrary shapes, heads
    /// and links.
    #[test]
    fn record_proof_codec_round_trips(
        level in 0u32..10,
        leaf_index in 0u64..1000,
        leaf_count in 1u64..1000,
        position in 0u32..5,
        path_len in 0usize..12,
    ) {
        use elsm_repro::crypto::sha256;
        let older_digest = sha256(b"older");
        let chain = if position == 0 {
            let audit_path = (0..path_len).map(|i| sha256(&[i as u8])).collect();
            ChainPosition::Newest { older_digest, audit_path }
        } else {
            ChainPosition::Link { position, older_digest }
        };
        let proof = RecordProof { level, leaf_index, leaf_count, chain };
        let encoded = proof.encode();
        prop_assert_eq!(encoded.len(), proof.encoded_len());
        let (decoded, used) = RecordProof::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, proof);
        prop_assert_eq!(used, encoded.len());
    }

    /// Deterministic encryption round-trips and is injective.
    #[test]
    fn det_round_trips(a in prop::collection::vec(any::<u8>(), 0..64),
                       b in prop::collection::vec(any::<u8>(), 0..64)) {
        let key = DetKey::derive(b"prop master");
        let ca = key.encrypt(&a);
        prop_assert_eq!(key.decrypt(&ca).unwrap(), a.clone());
        if a != b {
            prop_assert_ne!(ca, key.encrypt(&b));
        }
    }

    /// AEAD round-trips; any bit flip is rejected.
    #[test]
    fn aead_round_trips(pt in prop::collection::vec(any::<u8>(), 0..128),
                        aad in prop::collection::vec(any::<u8>(), 0..32),
                        flip in 0usize..160) {
        let key = AeadKey::derive(b"prop aead");
        let nonce = elsm_repro::crypto::aead::nonce_from_u64s(7, 7);
        let mut ct = key.seal(&nonce, &aad, &pt);
        prop_assert_eq!(key.open(&nonce, &aad, &ct).unwrap(), pt);
        let idx = flip % ct.len();
        ct[idx] ^= 1;
        prop_assert!(key.open(&nonce, &aad, &ct).is_err());
    }

    /// OPE preserves order on arbitrary pairs.
    #[test]
    fn ope_preserves_order(a in any::<u64>(), b in any::<u64>()) {
        let key = OpeKey::derive(b"prop ope");
        prop_assert_eq!(a.cmp(&b), key.encode(a).cmp(&key.encode(b)));
    }

    /// SHA-256 incremental == one-shot for arbitrary chunkings.
    #[test]
    fn sha256_chunking_invariant(data in prop::collection::vec(any::<u8>(), 0..512),
                                 cut in 0usize..512) {
        use elsm_repro::crypto::{sha256, Sha256};
        let cut = cut % (data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Write-path equivalence: any interleaving of singleton and batched
    /// writes over the same operation sequence yields identical verified
    /// reads, identical scan results, and identical level commitments —
    /// batching amortizes costs, it never changes what the enclave
    /// commits to.
    ///
    /// Each group of ops is applied to store A op-by-op and to store B as
    /// batches (split into maximal same-kind runs so put/delete order is
    /// preserved); a random subset of group boundaries also flushes both
    /// stores, driving identical flush/compaction schedules.
    #[test]
    fn batched_and_singleton_writes_agree(
        groups in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u16..80, any::<u16>(), 0u8..8), // delete when the u8 is 0
                    1..10,
                ),
                0u8..2,  // apply this group as batches?
                0u8..10, // flush both stores afterwards when < 3?
            ),
            1..10,
        ),
    ) {
        use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
        use elsm_repro::sgx_sim::Platform;
        let open = || ElsmP2::open(
            Platform::with_defaults(),
            P2Options {
                // Large write buffer: flush points are the *explicit* ones
                // below, identical for both stores, so flush/compaction
                // schedules — and therefore level contents — match exactly.
                write_buffer_bytes: 1 << 20,
                level1_max_bytes: 8 * 1024,
                level_multiplier: 4,
                max_levels: 3,
                ..P2Options::default()
            },
        ).unwrap();
        let singles = open();
        let batched = open();
        for (ops, as_batch, flush_after) in &groups {
            let as_batch = *as_batch == 1;
            let flush_after = *flush_after < 3;
            // Store A: strictly op-by-op.
            for (keyno, val, delete_coin) in ops {
                let key = format!("k{keyno:03}").into_bytes();
                if *delete_coin == 0 {
                    singles.delete(&key).unwrap();
                } else {
                    singles.put(&key, format!("v{val}").as_bytes()).unwrap();
                }
            }
            // Store B: the same ops as maximal same-kind batch runs (or
            // op-by-op when the coin says so — interleavings of both call
            // styles must agree too).
            let encoded: Vec<(Vec<u8>, Vec<u8>, bool)> = ops
                .iter()
                .map(|(keyno, val, delete_coin)| (
                    format!("k{keyno:03}").into_bytes(),
                    format!("v{val}").into_bytes(),
                    *delete_coin == 0,
                ))
                .collect();
            if as_batch {
                let mut run = 0usize;
                while run < encoded.len() {
                    let kind = encoded[run].2;
                    let mut end = run;
                    while end < encoded.len() && encoded[end].2 == kind {
                        end += 1;
                    }
                    if kind {
                        let keys: Vec<&[u8]> =
                            encoded[run..end].iter().map(|(k, _, _)| k.as_slice()).collect();
                        batched.delete_batch(&keys).unwrap();
                    } else {
                        let items: Vec<(&[u8], &[u8])> = encoded[run..end]
                            .iter()
                            .map(|(k, v, _)| (k.as_slice(), v.as_slice()))
                            .collect();
                        batched.put_batch(&items).unwrap();
                    }
                    run = end;
                }
            } else {
                for (key, value, is_delete) in &encoded {
                    if *is_delete {
                        batched.delete(key).unwrap();
                    } else {
                        batched.put(key, value).unwrap();
                    }
                }
            }
            if flush_after {
                singles.db().flush().unwrap();
                batched.db().flush().unwrap();
            }
        }
        // Identical verified reads for every key ever touched.
        for keyno in 0u16..80 {
            let key = format!("k{keyno:03}").into_bytes();
            let a = singles.get(&key).unwrap();
            let b = batched.get(&key).unwrap();
            prop_assert_eq!(a, b, "verified GET diverged for k{:03}", keyno);
        }
        // Identical verified scan results over the full range.
        let scan_a = singles.scan(b"k000", b"k999").unwrap();
        let scan_b = batched.scan(b"k000", b"k999").unwrap();
        prop_assert_eq!(scan_a, scan_b, "verified SCAN diverged");
        // Identical enclave state: WAL digest and every level commitment.
        prop_assert_eq!(
            singles.trusted().wal_digest(),
            batched.trusted().wal_digest(),
            "WAL digests diverged"
        );
        prop_assert_eq!(
            singles.trusted().commitments(),
            batched.trusted().commitments(),
            "level commitments diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharding transparency: an arbitrary interleaving of singleton and
    /// batched writes applied to a hash-sharded cluster and to a single
    /// store yields identical verified GET answers (presence + value;
    /// timestamps are per-shard and deliberately not compared) and
    /// identical, totally key-ordered verified SCAN results — the
    /// partitioner changes who stores and proves a record, never what
    /// the client observes.
    #[test]
    fn sharded_cluster_matches_single_store_oracle(
        groups in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u16..60, any::<u16>(), 0u8..8), // delete when the u8 is 0
                    1..8,
                ),
                0u8..2,  // apply this group as batches?
                0u8..10, // flush both systems afterwards when < 3?
            ),
            1..8,
        ),
    ) {
        use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
        use elsm_repro::sgx_sim::Platform;
        use elsm_repro::shard::{ShardedKv, ShardedOptions};
        let store_options = P2Options {
            write_buffer_bytes: 1 << 20,
            level1_max_bytes: 8 * 1024,
            level_multiplier: 4,
            max_levels: 3,
            ..P2Options::default()
        };
        let cluster = ShardedKv::open(
            Platform::with_defaults(),
            ShardedOptions::hash(3, store_options.clone()),
        ).unwrap();
        let oracle = ElsmP2::open(Platform::with_defaults(), store_options).unwrap();
        for (ops, as_batch, flush_after) in &groups {
            let encoded: Vec<(Vec<u8>, Vec<u8>, bool)> = ops
                .iter()
                .map(|(keyno, val, delete_coin)| (
                    format!("k{keyno:03}").into_bytes(),
                    format!("v{val}").into_bytes(),
                    *delete_coin == 0,
                ))
                .collect();
            if *as_batch == 1 {
                // Maximal same-kind runs, applied to both systems through
                // their batch entry points (the cluster splits each batch
                // per shard under the hood).
                let mut run = 0usize;
                while run < encoded.len() {
                    let kind = encoded[run].2;
                    let mut end = run;
                    while end < encoded.len() && encoded[end].2 == kind {
                        end += 1;
                    }
                    if kind {
                        let keys: Vec<&[u8]> =
                            encoded[run..end].iter().map(|(k, _, _)| k.as_slice()).collect();
                        cluster.delete_batch(&keys).unwrap();
                        oracle.delete_batch(&keys).unwrap();
                    } else {
                        let items: Vec<(&[u8], &[u8])> = encoded[run..end]
                            .iter()
                            .map(|(k, v, _)| (k.as_slice(), v.as_slice()))
                            .collect();
                        cluster.put_batch(&items).unwrap();
                        oracle.put_batch(&items).unwrap();
                    }
                    run = end;
                }
            } else {
                for (key, value, is_delete) in &encoded {
                    if *is_delete {
                        cluster.delete(key).unwrap();
                        oracle.delete(key).unwrap();
                    } else {
                        cluster.put(key, value).unwrap();
                        oracle.put(key, value).unwrap();
                    }
                }
            }
            if *flush_after < 3 {
                cluster.flush().unwrap();
                oracle.db().flush().unwrap();
            }
        }
        for keyno in 0u16..60 {
            let key = format!("k{keyno:03}").into_bytes();
            let a = cluster.get(&key).unwrap().map(|r| r.value().to_vec());
            let b = oracle.get(&key).unwrap().map(|r| r.value().to_vec());
            prop_assert_eq!(a, b, "verified GET diverged for k{:03}", keyno);
        }
        let scan_c = cluster.scan(b"k000", b"k999").unwrap();
        let scan_o = oracle.scan(b"k000", b"k999").unwrap();
        prop_assert!(
            scan_c.windows(2).all(|w| w[0].key() < w[1].key()),
            "stitched scan must be totally ordered"
        );
        prop_assert_eq!(scan_c.len(), scan_o.len(), "verified SCAN lengths diverged");
        for (c, o) in scan_c.iter().zip(&scan_o) {
            prop_assert_eq!((c.key(), c.value()), (o.key(), o.value()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replication transparency: under arbitrary interleavings of
    /// singleton/batched writes, explicit flushes, delayed replication
    /// delivery (writes land on the primary, replicas sync only at
    /// random points) and at most one kill-primary/promote failover,
    /// verified reads and scans on the acting primary **and on every
    /// live replica** agree with a single unreplicated store fed the
    /// same operations — replication changes who answers, never what a
    /// verified answer says, and failover loses nothing acknowledged.
    #[test]
    fn replicated_group_matches_single_store_oracle(
        groups in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u16..60, any::<u16>(), 0u8..8), // delete when the u8 is 0
                    1..8,
                ),
                0u8..2,  // apply this group of ops as batches?
                0u8..10, // flush afterwards when < 3
                0u8..10, // deliver (sync replicas) afterwards when < 5
            ),
            1..8,
        ),
        failover_after in 0u8..12, // group index; >= len means no failover
    ) {
        use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
        use elsm_repro::replica::{ReplicationGroup, ReplicationOptions};
        use elsm_repro::sgx_sim::Platform;
        let store_options = P2Options {
            write_buffer_bytes: 1 << 20,
            level1_max_bytes: 8 * 1024,
            level_multiplier: 4,
            max_levels: 3,
            ..P2Options::default()
        };
        let group = ReplicationGroup::open(
            Platform::with_defaults(),
            store_options.clone(),
            ReplicationOptions { replicas: 2, max_lag_epochs: u64::MAX, ..Default::default() },
        ).unwrap();
        let oracle = ElsmP2::open(Platform::with_defaults(), store_options).unwrap();
        let mut failed_over = false;
        for (step, (ops, as_batch, flush_after, deliver_after)) in groups.iter().enumerate() {
            // Writes go straight to the primary's store: acknowledged and
            // shipped, but applied by the replicas only at delivery
            // points — the replication lag the oracle must be blind to.
            let primary = group.primary_store();
            let encoded: Vec<(Vec<u8>, Vec<u8>, bool)> = ops
                .iter()
                .map(|(keyno, val, delete_coin)| (
                    format!("k{keyno:03}").into_bytes(),
                    format!("v{val}").into_bytes(),
                    *delete_coin == 0,
                ))
                .collect();
            if *as_batch == 1 {
                let mut run = 0usize;
                while run < encoded.len() {
                    let kind = encoded[run].2;
                    let mut end = run;
                    while end < encoded.len() && encoded[end].2 == kind {
                        end += 1;
                    }
                    if kind {
                        let keys: Vec<&[u8]> =
                            encoded[run..end].iter().map(|(k, _, _)| k.as_slice()).collect();
                        primary.delete_batch(&keys).unwrap();
                        oracle.delete_batch(&keys).unwrap();
                    } else {
                        let items: Vec<(&[u8], &[u8])> = encoded[run..end]
                            .iter()
                            .map(|(k, v, _)| (k.as_slice(), v.as_slice()))
                            .collect();
                        primary.put_batch(&items).unwrap();
                        oracle.put_batch(&items).unwrap();
                    }
                    run = end;
                }
            } else {
                for (key, value, is_delete) in &encoded {
                    if *is_delete {
                        primary.delete(key).unwrap();
                        oracle.delete(key).unwrap();
                    } else {
                        primary.put(key, value).unwrap();
                        oracle.put(key, value).unwrap();
                    }
                }
            }
            if *flush_after < 3 {
                primary.db().flush().unwrap();
                oracle.db().flush().unwrap();
            }
            if *deliver_after < 5 {
                group.sync().unwrap();
            }
            if !failed_over && step == failover_after as usize {
                // Kill the primary mid-stream (undelivered shipments
                // still queued) and promote replica 0: promotion drains
                // first, so nothing acknowledged is lost.
                group.kill_primary();
                group.promote(0).unwrap();
                failed_over = true;
            }
        }
        group.sync().unwrap();

        // Every live node — acting primary and all replicas — agrees
        // with the oracle on verified reads.
        for keyno in 0u16..60 {
            let key = format!("k{keyno:03}").into_bytes();
            let expect = oracle.get(&key).unwrap().map(|r| r.value().to_vec());
            let primary_got =
                group.primary_store().get(&key).unwrap().map(|r| r.value().to_vec());
            prop_assert_eq!(&primary_got, &expect, "primary diverged for k{:03}", keyno);
            for r in 0..group.replica_count() {
                let (got, token) = group.with_replica(r, |rep| rep.get(&key)).unwrap();
                prop_assert_eq!(
                    got.map(|rec| rec.value().to_vec()),
                    expect.clone(),
                    "replica {} diverged for k{:03}", r, keyno
                );
                prop_assert_eq!(token.lag_epochs(), 0, "fully delivered replica must be fresh");
            }
        }
        // And on verified scans, totally ordered.
        let expect: Vec<(Vec<u8>, Vec<u8>)> = oracle.scan(b"k000", b"k999").unwrap()
            .iter().map(|r| (r.key().to_vec(), r.value().to_vec())).collect();
        for r in 0..group.replica_count() {
            let (scanned, _) = group.with_replica(r, |rep| rep.scan(b"k000", b"k999")).unwrap();
            let got: Vec<(Vec<u8>, Vec<u8>)> =
                scanned.iter().map(|rec| (rec.key().to_vec(), rec.value().to_vec())).collect();
            prop_assert_eq!(&got, &expect, "replica {} scan diverged", r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full store vs. a BTreeMap model under random operation
    /// sequences (smaller case count: each case builds a store).
    #[test]
    fn store_matches_model(ops in prop::collection::vec((0u8..3, 0u16..60, any::<u16>()), 1..120)) {
        use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
        use elsm_repro::sgx_sim::Platform;
        let store = ElsmP2::open(
            Platform::with_defaults(),
            P2Options {
                write_buffer_bytes: 2048,
                level1_max_bytes: 8 * 1024,
                level_multiplier: 4,
                max_levels: 3,
                ..P2Options::default()
            },
        ).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for (op, keyno, val) in ops {
            let key = format!("k{keyno:03}").into_bytes();
            match op {
                0 => {
                    let value = format!("v{val}").into_bytes();
                    store.put(&key, &value).unwrap();
                    model.insert(key, value);
                }
                1 => {
                    store.delete(&key).unwrap();
                    model.remove(&key);
                }
                _ => {
                    let got = store.get(&key).unwrap();
                    prop_assert_eq!(
                        got.map(|r| r.value().to_vec()),
                        model.get(&key).cloned()
                    );
                }
            }
        }
        for (k, v) in &model {
            let got = store.get(k).unwrap().unwrap();
            prop_assert_eq!(got.value(), &v[..]);
        }
    }
}

/// One account of a read: the answer the verifier hands back is the
/// record of the trace it checked — the same one `GetTrace::answer` /
/// `ScanTrace::merged` name, which the unauthenticated store serves — and
/// is the model's. Differential, seeded, over a store in every state a
/// read can meet at once: a live memtable, a frozen memtable (a flush
/// whose merge failed and was left pending), three levels, overwrites and
/// tombstones in all of them.
#[test]
fn verified_answer_is_the_traces_and_the_models() {
    use crate::support::adversary::HostileHost;
    use elsm_repro::elsm::envelope::{open, wrap_plain};
    use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
    use elsm_repro::lsm_store::Record;
    use elsm_repro::sgx_sim::Platform;
    use std::collections::BTreeMap;

    let mut seed = 0xe15a_2023_u64;
    let mut next = move |bound: u64| {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (seed >> 33) % bound
    };
    let key = |n: u64| format!("key{n:04}").into_bytes();
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            write_buffer_bytes: 4 * 1024,
            level1_max_bytes: 8 * 1024,
            level_multiplier: 4,
            max_levels: 4,
            ..P2Options::default()
        },
    )
    .unwrap();
    // `None` is a deleted key (its tombstone may or may not still be in
    // the store); a key never written is not in the model.
    let mut model: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    for i in 0..1400u64 {
        let k = key(next(400));
        if next(6) == 0 {
            store.delete(&k).unwrap();
            model.insert(k, None);
        } else {
            let v = format!("v{i}").into_bytes();
            store.put(&k, &v).unwrap();
            model.insert(k, Some(v));
        }
    }
    store.db().flush().unwrap();
    let records = store.db().level_records();
    assert!(records[1..].iter().filter(|&&n| n > 0).count() >= 2, "levels: {records:?}");
    assert!(records[1] > 0, "the next flush must merge into level 1: {records:?}");

    // Freeze a memtable and fail its flush before the merge: the host holds
    // the name the freeze's manifest is written under, so the flush stops
    // with the frozen memtable published and no merge begun.
    for i in 0..30u64 {
        let k = key(next(400));
        if i % 5 == 0 {
            store.delete(&k).unwrap();
            model.insert(k, None);
        } else {
            store.put(&k, b"frozen").unwrap();
            model.insert(k, Some(b"frozen".to_vec()));
        }
    }
    store.fs().create("MANIFEST.tmp").unwrap();
    assert!(store.db().flush().is_err());
    store.fs().delete("MANIFEST.tmp").unwrap();
    assert!(store.db().current_version().imm().is_some(), "the frozen memtable stays");
    // The store below still takes writes (as from a replica's stream).
    for i in 0..30u64 {
        let k = key(next(400));
        if i % 5 == 0 {
            store.db().delete(&k).unwrap();
            model.insert(k, None);
        } else {
            store.db().put(&k, &wrap_plain(b"live")).unwrap();
            model.insert(k, Some(b"live".to_vec()));
        }
    }

    let bare = |r: &Record| open(&r.value).unwrap().value.to_vec();
    let stamped = |key: &[u8], ts| (key.to_vec(), ts);
    let host = HostileHost::install(store.db());
    let (mut from_memtable, mut from_levels, mut tombstones, mut absent) = (0, 0, 0, 0);
    for _ in 0..1000 {
        let k = key(next(440));
        let verified = store.get(&k).expect("an honest read verifies");
        let trace = host.last_get();
        let live = trace.answer().filter(|r| r.kind.is_value());
        assert_eq!(
            verified.as_ref().map(|v| stamped(v.key(), v.ts())),
            live.map(|r| stamped(&r.key, r.ts)),
            "{k:?}"
        );
        let got = verified.map(|v| v.value().to_vec());
        assert_eq!(got, model.get(&k).cloned().flatten(), "{k:?}");
        // ... and the store underneath serves that same record.
        let plain = store.db().get(&k).unwrap().map(|r| bare(&r));
        assert_eq!(plain, got, "{k:?}");
        match (trace.answer().map(|r| r.kind.is_value()), trace.memtable.is_some()) {
            (None, _) => absent += 1,
            (Some(false), _) => tombstones += 1,
            (Some(true), true) => from_memtable += 1,
            (Some(true), false) => from_levels += 1,
        }
    }
    assert!(from_memtable > 20 && from_levels > 300 && tombstones > 50 && absent > 20);

    // The ranges whose proofs sit at an edge of a level's tree, level by
    // level, then seeded ones: the whole keyspace (every leaf: an empty
    // proof); before the level's first leaf and after its last (there, a
    // one-leaf run — both ends of the proof are the same leaf); one key at
    // each end; and a gap between two adjacent leaves, which holds no key
    // of any level.
    use std::ops::Bound::{Excluded, Unbounded};
    let mut ranges: Vec<(Vec<u8>, Vec<u8>)> = vec![(b"a".to_vec(), b"z".to_vec())];
    for run in store.db().current_version().levels().iter().flatten() {
        let (first, last) = (run.smallest().unwrap().to_vec(), run.largest().unwrap().to_vec());
        let below =
            model.range(..first.clone()).next_back().map_or(b"b".to_vec(), |(k, _)| k.clone());
        let above = model.range((Excluded(last.clone()), Unbounded)).next();
        let above = above.map_or(b"y".to_vec(), |(k, _)| k.clone());
        let gap = [&first[..], b"\0"].concat();
        ranges.extend([
            (b"a".to_vec(), below),
            (above, b"z".to_vec()),
            (first.clone(), first),
            (last.clone(), last),
            (gap.clone(), gap),
        ]);
    }
    assert!(ranges.len() > 5 * 2, "the edges of at least two levels: {}", ranges.len());
    ranges.extend((0..200).map(|_| {
        let lo = next(430);
        (key(lo), key(lo + next(25)))
    }));
    for (from, to) in ranges {
        let verified = store.scan(&from, &to).expect("an honest scan verifies");
        let trace = host.last_scan();
        assert_eq!(
            verified.iter().map(|v| stamped(v.key(), v.ts())).collect::<Vec<_>>(),
            trace.merged().iter().map(|r| stamped(&r.key, r.ts)).collect::<Vec<_>>()
        );
        let got: Vec<(Vec<u8>, Vec<u8>)> =
            verified.iter().map(|v| (v.key().to_vec(), v.value().to_vec())).collect();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model
            .range(from.clone()..=to.clone())
            .filter_map(|(k, v)| v.clone().map(|v| (k.clone(), v)))
            .collect();
        assert_eq!(got, expect, "{from:?}..={to:?}");
        let plain: Vec<(Vec<u8>, Vec<u8>)> = store
            .db()
            .scan(&from, &to)
            .unwrap()
            .iter()
            .map(|r| (r.key.to_vec(), bare(r)))
            .collect();
        assert_eq!(plain, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The verified cache against a model: puts and deletes (values large
    /// enough to live in the value log or not), flushes, compaction waves,
    /// value-log GC and replica replay, interleaved with repeated GETs on
    /// the primary and on a replica of a group whose stores cache. Every
    /// GET equals a `BTreeMap` — the primary's as of the last write, the
    /// replica's as of the last replay — and some GETs were cache hits.
    #[test]
    fn cached_reads_match_the_model_across_installs(
        ops in prop::collection::vec((0u8..10, 0u16..24, any::<u16>()), 1..150),
    ) {
        use elsm_repro::elsm::{AuthenticatedKv, P2Options};
        use elsm_repro::lsm_store::VlogConfig;
        use elsm_repro::replica::{ReplicationGroup, ReplicationOptions};
        use elsm_repro::sgx_sim::Platform;
        use std::collections::BTreeMap;
        let options = P2Options {
            write_buffer_bytes: 4 * 1024,
            level1_max_bytes: 4 * 1024,
            level_multiplier: 4,
            max_levels: 3,
            vlog: Some(VlogConfig {
                value_threshold: 128,
                target_file_bytes: 2048,
                gc_garbage_ratio: 0.3,
                gc_enabled: false,
            }),
            verified_cache_bytes: 64 * 1024,
            ..P2Options::default()
        };
        let group = ReplicationGroup::open(
            Platform::with_defaults(),
            options,
            ReplicationOptions { replicas: 1, max_lag_epochs: u64::MAX, ..Default::default() },
        ).unwrap();
        let primary = group.primary_store();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut replayed = model.clone();
        let value_of = |r: Option<elsm_repro::elsm::VerifiedRecord>| r.map(|r| r.value().to_vec());
        let read_both = |model: &BTreeMap<Vec<u8>, Vec<u8>>,
                         replayed: &BTreeMap<Vec<u8>, Vec<u8>>,
                         key: &[u8]| {
            for _ in 0..2 {
                prop_assert_eq!(value_of(primary.get(key).unwrap()), model.get(key).cloned());
                let (got, _) = group.with_replica(0, |r| r.get(key)).unwrap();
                prop_assert_eq!(value_of(got), replayed.get(key).cloned());
            }
        };
        for (op, keyno, val) in ops {
            let key = format!("k{keyno:02}").into_bytes();
            match op {
                0..=3 => {
                    let mut value = format!("v{val}").into_bytes();
                    if val % 2 == 0 {
                        value.resize(256, b'.');
                    }
                    primary.put(&key, &value).unwrap();
                    model.insert(key, value);
                }
                4 => {
                    primary.delete(&key).unwrap();
                    model.remove(&key);
                }
                5 => primary.db().flush().unwrap(),
                // A job from level 1 down, or the purging major one.
                6 if val % 2 == 0 => primary.db().compact(1).unwrap(),
                6 => primary.db().compact_major().unwrap(),
                7 => primary.db().vlog_gc().unwrap(),
                8 => {
                    group.sync().unwrap();
                    replayed = model.clone();
                }
                _ => read_both(&model, &replayed, &key),
            }
        }
        group.sync().unwrap();
        for keyno in 0u16..24 {
            read_both(&model, &model, &format!("k{keyno:02}").into_bytes());
        }
        let hits = primary.cache_stats().record_hits
            + group.replica_store(0).cache_stats().record_hits;
        prop_assert!(model.is_empty() || hits > 0, "no GET was a cache hit");
    }
}
