//! The sharded cluster layer, end to end: routed verified operations,
//! cross-shard scan stitching, per-shard batch splitting, the WrongShard
//! adversary class, crash recovery with shard-bound sealed state, and a
//! multi-threaded stress pass.

use std::collections::BTreeMap;
use std::sync::Arc;

use elsm_repro::elsm::{AuthenticatedKv, ElsmError, P2Options, VerificationFailure};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::shard::{ShardedKv, ShardedOptions};
use elsm_repro::telemetry::Telemetry;

pub mod support;
use support::adversary::{self, verdict, HostileHost};

fn small_store_options() -> P2Options {
    P2Options {
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 16 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        ..P2Options::default()
    }
}

fn hash_cluster(shards: usize) -> ShardedKv {
    ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(shards, small_store_options()))
        .unwrap()
}

/// A key owned by `shard` in `cluster` (probed; partitioning is
/// deterministic).
fn key_owned_by(cluster: &ShardedKv, shard: usize) -> Vec<u8> {
    (0..10_000u32)
        .map(|i| format!("probe{i:05}").into_bytes())
        .find(|k| cluster.shard_of(k) == shard)
        .expect("every shard owns some probe key")
}

#[test]
fn hash_cluster_end_to_end() {
    let cluster = hash_cluster(4);
    let mut model = BTreeMap::new();
    for i in 0..400u32 {
        let key = format!("key{:04}", i % 200).into_bytes();
        let value = format!("value-{i}").into_bytes();
        cluster.put(&key, &value).unwrap();
        model.insert(key, value);
    }
    for i in (0..200u32).step_by(9) {
        let key = format!("key{i:04}").into_bytes();
        cluster.delete(&key).unwrap();
        model.remove(&key);
    }
    cluster.flush().unwrap();
    // Every shard actually holds data (keys spread).
    for s in 0..4 {
        assert!(
            !cluster.shard(s).scan(b"key0000", b"key9999").unwrap().is_empty(),
            "shard {s} got no keys"
        );
    }
    // Verified point reads, present and absent.
    for (key, value) in &model {
        let got = cluster.get(key).unwrap().expect("present key");
        assert_eq!(got.value(), &value[..]);
    }
    assert!(cluster.get(b"key0000").unwrap().is_none(), "deleted key stays dead");
    assert!(cluster.get(b"never-written").unwrap().is_none());
    // Verified cross-shard scan: complete and totally ordered.
    let all = cluster.scan(b"key0000", b"key9999").unwrap();
    assert_eq!(all.len(), model.len());
    for (rec, (key, value)) in all.iter().zip(&model) {
        assert_eq!((rec.key(), rec.value()), (&key[..], &value[..]));
    }
    assert!(all.windows(2).all(|w| w[0].key() < w[1].key()));
}

#[test]
fn hash_cluster_sub_range_scans_are_complete() {
    let cluster = hash_cluster(3);
    for i in 0..300u32 {
        cluster.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    cluster.flush().unwrap();
    // A sub-range scan merges every shard's slice into one ordered answer.
    let mid = cluster.scan(b"key0050", b"key0249").unwrap();
    assert_eq!(mid.len(), 200);
    assert!(mid.windows(2).all(|w| w[0].key() < w[1].key()));
    assert_eq!(mid[0].key(), b"key0050");
    assert_eq!(mid[199].key(), b"key0249");
    let inner = cluster.scan(b"key0110", b"key0120").unwrap();
    assert_eq!(inner.len(), 11);
}

#[test]
fn batched_writes_split_one_ecall_per_shard() {
    let cluster = hash_cluster(3);
    let items: Vec<(Vec<u8>, Vec<u8>)> =
        (0..60u32).map(|i| (format!("bk{i:03}").into_bytes(), vec![b'v'; 40])).collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    let shards_hit: std::collections::BTreeSet<usize> =
        items.iter().map(|(k, _)| cluster.shard_of(k)).collect();
    assert!(shards_hit.len() > 1, "batch should span shards");
    let before: Vec<u64> = (0..3).map(|s| cluster.shard_platform(s).stats().ecalls).collect();
    let timestamps = cluster.put_batch(&refs).unwrap();
    let after: Vec<u64> = (0..3).map(|s| cluster.shard_platform(s).stats().ecalls).collect();
    for s in 0..3 {
        let expected = u64::from(shards_hit.contains(&s));
        assert_eq!(after[s] - before[s], expected, "shard {s}: one ECall per touched shard");
    }
    // Timestamps scatter back into batch order and reads verify.
    assert_eq!(timestamps.len(), items.len());
    for (key, _) in &items {
        assert!(cluster.get(key).unwrap().is_some());
    }
    // Batched deletes split the same way.
    let keys: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
    cluster.delete_batch(&keys).unwrap();
    for (key, _) in &items {
        assert!(cluster.get(key).unwrap().is_none());
    }
}

// ---------------------------------------------------------------------------
// Adversary: the WrongShard attack class
// ---------------------------------------------------------------------------

#[test]
fn rerouted_get_detected() {
    let registry = Telemetry::new();
    let options = P2Options { telemetry: registry.clone(), ..small_store_options() };
    let cluster =
        ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(3, options)).unwrap();
    for i in 0..150u32 {
        cluster.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
    }
    let key = key_owned_by(&cluster, 0);
    cluster.put(&key, b"owned-by-0").unwrap();
    // On the owner's disk: the same replay of a key still in the owner's
    // write buffer is an open case (`security::freshness`).
    cluster.flush().unwrap();
    let owner = cluster.shard_of(&key);
    assert_eq!(owner, 0);
    // Honest routing verifies.
    assert_eq!(cluster.get(&key).unwrap().expect("present").value(), b"owned-by-0");
    // The owner's host answers with the trace shard 1 gives for the key:
    // an honest — and, in shard 1's own domain, verifying — "absent". The
    // trusted router sends the read to the owner, whose enclave checks the
    // trace against shard 0's levels: it leaves out the level holding the
    // key.
    let owner_host = HostileHost::install(cluster.shard(owner).db());
    let other_host = HostileHost::install(cluster.shard(1).db());
    assert!(cluster.shard(1).get(&key).unwrap().is_none(), "it verifies in shard 1's domain...");
    let rerouted = other_host.last_get();
    owner_host.replay_get(rerouted);
    let audited = registry.audit_total();
    let err = verdict(cluster.get(&key)).unwrap_err();
    assert_eq!(err, VerificationFailure::LevelSkipped { expected: 1 });
    assert_eq!(registry.audit_total(), audited + 1, "audited once");
    assert_eq!(registry.audit_events().last().unwrap().shard, Some(0));
}

#[test]
fn hidden_level_inside_a_shard_detected_through_the_router() {
    let cluster = hash_cluster(3);
    for i in 0..400u32 {
        cluster.put(format!("key{:04}", i % 200).as_bytes(), b"v").unwrap();
    }
    cluster.flush().unwrap();
    let hosts: Vec<_> = (0..3).map(|s| HostileHost::install(cluster.shard(s).db())).collect();
    let key = (0..200u32)
        .map(|i| format!("key{i:04}").into_bytes())
        .find(|k| {
            cluster.get(k).unwrap();
            let trace = hosts[cluster.shard_of(k)].last_get();
            trace.memtable.is_none() && trace.answer().is_some()
        })
        .expect("a key answered from disk");
    let owner = cluster.shard_of(&key);
    hosts[owner].on_get(|trace| {
        let hit_level = trace
            .levels
            .iter()
            .find_map(|l| {
                matches!(l.outcome, elsm_repro::lsm_store::LevelOutcome::Hit(_)).then_some(l.level)
            })
            .expect("a hit level");
        adversary::hide_level(trace, hit_level);
    });
    let err = verdict(cluster.get(&key)).unwrap_err();
    assert!(matches!(err, VerificationFailure::HiddenLevel { .. }), "got {err:?}");
}

#[test]
fn smuggled_scan_records_detected() {
    let cluster = hash_cluster(3);
    for i in 0..200u32 {
        cluster.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
    }
    cluster.flush().unwrap();
    let hosts: Vec<_> = (0..3).map(|s| HostileHost::install(cluster.shard(s).db())).collect();
    // Shard 1's honest scan segment verifies as shard 1's, and what comes
    // back is the result the ownership check reads: the trace's.
    let (from, to) = (b"a".as_slice(), b"z".as_slice());
    let segment = cluster.shard(1).scan(from, to).unwrap();
    assert!(!segment.is_empty());
    let trace = hosts[1].last_scan();
    let stamped = |key: &[u8], ts| (key.to_vec(), ts);
    assert_eq!(
        segment.iter().map(|r| stamped(r.key(), r.ts())).collect::<Vec<_>>(),
        trace.merged().iter().map(|r| stamped(&r.key, r.ts)).collect::<Vec<_>>()
    );
    // Presented as shard 0's answer it is refused outright: shard 0's
    // commitments do not vouch for a record of it.
    hosts[0].replay_scan(trace);
    assert!(verdict(cluster.scan(from, to)).is_err());
    // Smuggling that verifies: the host routes a write for a key shard 2
    // owns to shard 0, whose enclave commits it like any other. Shard 0's
    // segment then holds up against shard 0's own commitments, and only
    // the router's per-record ownership check on the verified result — the
    // stitch of a cross-shard scan — refuses it.
    let foreign = key_owned_by(&cluster, 2);
    cluster.shard(0).put(&foreign, b"smuggled").unwrap();
    cluster.shard(0).db().flush().unwrap();
    let verified = cluster.shard(0).scan(from, to).unwrap();
    assert!(verified.iter().any(|r| r.key() == foreign), "it verifies in shard 0's domain");
    let err = verdict(cluster.scan(from, to)).unwrap_err();
    assert_eq!(err, VerificationFailure::WrongShard { expected: 2, got: 0 });
    // Ownership checking is per record, not per segment.
    let foreign = key_owned_by(&cluster, 2);
    let err = cluster.check_owned(0, &foreign).unwrap_err();
    assert!(matches!(err, VerificationFailure::WrongShard { expected: 2, got: 0 }));
}

// ---------------------------------------------------------------------------
// Crash recovery with shard-bound sealed state
// ---------------------------------------------------------------------------

fn reopenable_cluster() -> (ShardedOptions, ShardedKv) {
    let options = ShardedOptions::hash(2, small_store_options());
    let cluster = ShardedKv::open(Platform::with_defaults(), options.clone()).unwrap();
    for i in 0..150u32 {
        cluster.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    cluster.close().unwrap();
    (options, cluster)
}

#[test]
fn cluster_restart_verifies() {
    let (options, cluster) = reopenable_cluster();
    let filesystems = (0..2).map(|s| cluster.shard(s).fs().clone()).collect();
    let reopened = ShardedKv::open_with(Platform::with_defaults(), filesystems, options).unwrap();
    for i in (0..150u32).step_by(7) {
        let key = format!("key{i:04}");
        assert_eq!(
            reopened.get(key.as_bytes()).unwrap().unwrap().value(),
            format!("v{i}").as_bytes(),
            "{key} lost or unverifiable after cluster restart"
        );
    }
    assert_eq!(reopened.scan(b"key0000", b"key9999").unwrap().len(), 150);
}

#[test]
fn swapped_shard_state_detected_at_restart() {
    let (options, cluster) = reopenable_cluster();
    // The host swaps the two shards' entire on-disk state — sealed
    // enclave state included, so every file is authentic, just for the
    // other shard's domain.
    let swapped = vec![cluster.shard(1).fs().clone(), cluster.shard(0).fs().clone()];
    let result = ShardedKv::open_with(Platform::with_defaults(), swapped, options);
    assert!(
        matches!(
            result,
            Err(ElsmError::Verification(VerificationFailure::WrongShard { expected: 0, got: 1 }))
        ),
        "swapped per-shard state must fail recovery: {result:?}"
    );
}

#[test]
fn sharded_state_rejected_by_unsharded_store() {
    use elsm_repro::elsm::ElsmP2;
    let (_, cluster) = reopenable_cluster();
    let fs = cluster.shard(0).fs().clone();
    let result = ElsmP2::open_with(Platform::with_defaults(), fs, small_store_options(), None);
    assert!(
        matches!(result, Err(ElsmError::Verification(VerificationFailure::WrongShard { .. }))),
        "a shard's state must not open as a standalone store: {result:?}"
    );
}

// ---------------------------------------------------------------------------
// Per-partition compaction schedulers
// ---------------------------------------------------------------------------

/// Every shard runs its own compaction scheduler: with a tiered strategy
/// and a parallel wave executor configured cluster-wide, each partition
/// independently accumulates debt, compacts, and stays verified — and a
/// cross-shard scan over the compacted cluster is still the complete,
/// totally ordered result.
#[test]
fn per_shard_compaction_schedulers_run_independently() {
    let store = P2Options {
        compaction_strategy: elsm_repro::lsm_store::CompactionStrategyKind::Tiered,
        compaction_parallelism: 4,
        ..small_store_options()
    };
    let cluster =
        ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(3, store)).unwrap();
    let mut model = BTreeMap::new();
    for i in 0..900u32 {
        let key = format!("key{:04}", i % 300).into_bytes();
        let value = format!("value-{i:06}").into_bytes();
        cluster.put(&key, &value).unwrap();
        model.insert(key, value);
    }
    for i in (0..300u32).step_by(7) {
        let key = format!("key{i:04}").into_bytes();
        cluster.delete(&key).unwrap();
        model.remove(&key);
    }
    cluster.flush().unwrap();
    // At least two partitions compacted on their own schedulers, and
    // flushing drained each shard's debt gauge.
    let compacted = (0..3)
        .filter(|&s| {
            let stats = cluster.shard(s).db().stats();
            assert_eq!(stats.pending_compaction_jobs, 0, "shard {s} left jobs pending");
            stats.compactions > 0
        })
        .count();
    assert!(compacted >= 2, "only {compacted} of 3 shards compacted");
    // Verified reads against the oracle, routed per key.
    for (key, value) in &model {
        assert_eq!(cluster.get(key).unwrap().expect("present key").value(), &value[..]);
    }
    assert!(cluster.get(b"key0007").unwrap().is_none(), "deleted key stays dead");
    // Verified cross-shard scan: stitched from three independently
    // compacted partitions, still complete and totally ordered.
    let all = cluster.scan(b"key0000", b"key9999").unwrap();
    assert_eq!(all.len(), model.len());
    for (rec, (key, value)) in all.iter().zip(&model) {
        assert_eq!((rec.key(), rec.value()), (&key[..], &value[..]));
    }
}

// ---------------------------------------------------------------------------
// Stress: real threads racing across shards
// ---------------------------------------------------------------------------

#[test]
fn parallel_clients_across_shards_stay_verified() {
    let cluster = Arc::new(hash_cluster(4));
    for i in 0..200u32 {
        cluster.put(format!("key{i:04}").as_bytes(), b"seed").unwrap();
    }
    let threads: Vec<_> = (0..4)
        .map(|tid: u32| {
            let cluster = cluster.clone();
            std::thread::spawn(move || {
                for round in 0..60u32 {
                    let i = (tid * 60 + round) % 200;
                    let key = format!("key{i:04}");
                    cluster.put(key.as_bytes(), format!("t{tid}r{round}").as_bytes()).unwrap();
                    assert!(cluster.get(key.as_bytes()).unwrap().is_some());
                    if round % 16 == 0 {
                        let scanned = cluster.scan(b"key0000", b"key9999").unwrap();
                        assert!(scanned.windows(2).all(|w| w[0].key() < w[1].key()));
                    }
                    if round % 25 == 0 {
                        cluster.flush().unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let all = cluster.scan(b"key0000", b"key9999").unwrap();
    assert_eq!(all.len(), 200, "writes under contention must all survive, verified");
}

/// The base store's key-value-separation and verified-cache knobs flow
/// through the shard layer unchanged: every shard separates its large
/// values into its own authenticated value log and serves hot verified
/// reads from its own epoch-tagged cache.
#[test]
fn vlog_and_cache_flow_through_every_shard() {
    let options = P2Options {
        vlog: Some(elsm_repro::lsm_store::VlogConfig {
            value_threshold: 128,
            target_file_bytes: 64 * 1024,
            gc_garbage_ratio: 0.3,
            gc_enabled: false,
        }),
        verified_cache_bytes: 256 * 1024,
        ..small_store_options()
    };
    let cluster =
        ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(3, options)).unwrap();
    for i in 0..60u32 {
        cluster.put(format!("key{i:04}").as_bytes(), &[i as u8; 1024]).unwrap();
    }
    cluster.flush().unwrap();
    for s in 0..3 {
        assert!(
            cluster.shard(s).db().stats().vlog_bytes > 1024,
            "shard {s} must hold separated values in its own log"
        );
    }
    // Verified reads resolve through each shard's log, and a re-read of
    // the same key hits that shard's cache.
    for i in (0..60u32).step_by(7) {
        let key = format!("key{i:04}");
        assert_eq!(
            cluster.get(key.as_bytes()).unwrap().expect("present").value(),
            &[i as u8; 1024][..]
        );
    }
    let hits_before: u64 = (0..3).map(|s| cluster.shard(s).cache_stats().record_hits).sum();
    for i in (0..60u32).step_by(7) {
        let key = format!("key{i:04}");
        assert_eq!(
            cluster.get(key.as_bytes()).unwrap().expect("present").value(),
            &[i as u8; 1024][..]
        );
    }
    let hits_after: u64 = (0..3).map(|s| cluster.shard(s).cache_stats().record_hits).sum();
    assert!(hits_after > hits_before, "re-reads must hit the per-shard verified caches");
}
