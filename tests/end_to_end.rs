//! Cross-crate integration: the full eLSM-P2 stack against a reference
//! model, across flushes, compactions and restarts.

use std::collections::BTreeMap;

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options, ReadMode};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::sim_disk::{SimDisk, SimFs};

fn small_options(read_mode: ReadMode) -> P2Options {
    P2Options {
        read_mode,
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 16 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        target_file_bytes: 16 * 1024,
        ..P2Options::default()
    }
}

/// Mixed workload mirrored into a BTreeMap; every read verified.
fn model_check(read_mode: ReadMode) {
    let store = ElsmP2::open(Platform::with_defaults(), small_options(read_mode)).unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut state = 0x5eed_u64;
    let mut rng = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    for op in 0..3000u64 {
        let k = format!("key{:03}", rng() % 150).into_bytes();
        match rng() % 10 {
            0..=5 => {
                let v = format!("v{op}").into_bytes();
                store.put(&k, &v).unwrap();
                model.insert(k, v);
            }
            6 => {
                store.delete(&k).unwrap();
                model.remove(&k);
            }
            _ => {
                let got = store.get(&k).unwrap();
                assert_eq!(
                    got.as_ref().map(|r| r.value().to_vec()),
                    model.get(&k).cloned(),
                    "divergence at op {op} on {:?}",
                    String::from_utf8_lossy(&k)
                );
            }
        }
    }
    // Full sweep at the end, plus a verified scan comparison.
    for (k, v) in &model {
        assert_eq!(store.get(k).unwrap().unwrap().value(), &v[..]);
    }
    let scanned = store.scan(b"key000", b"key999").unwrap();
    assert_eq!(scanned.len(), model.len(), "scan must see exactly the model's keys");
    for (rec, (k, v)) in scanned.iter().zip(model.iter()) {
        assert_eq!((rec.key(), rec.value()), (&k[..], &v[..]));
    }
}

#[test]
fn model_check_mmap() {
    model_check(ReadMode::Mmap);
}

#[test]
fn model_check_buffer() {
    model_check(ReadMode::Buffer);
}

#[test]
fn restart_preserves_and_verifies_everything() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = small_options(ReadMode::Mmap);
    let mut expected = BTreeMap::new();
    {
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
        for i in 0..1200u32 {
            let k = format!("key{:03}", i % 200);
            let v = format!("gen{i}");
            store.put(k.as_bytes(), v.as_bytes()).unwrap();
            expected.insert(k, v);
        }
        store.close().unwrap();
    }
    let store = ElsmP2::open_with(platform, fs, options, None).unwrap();
    // A scan over every level verifies straight away, before anything is
    // compacted: its range proofs are read off the stored records, and
    // recovery rebuilt nothing for them.
    let levels = store.db().level_records();
    assert!(levels[1..].iter().filter(|&&n| n > 0).count() >= 2, "levels: {levels:?}");
    let scanned = store.scan(b"key000", b"key999").unwrap();
    let scanned: Vec<(&[u8], &[u8])> = scanned.iter().map(|r| (r.key(), r.value())).collect();
    let stored: Vec<(&[u8], &[u8])> =
        expected.iter().map(|(k, v)| (k.as_bytes(), v.as_bytes())).collect();
    assert_eq!(scanned, stored);
    for (k, v) in &expected {
        assert_eq!(
            store.get(k.as_bytes()).unwrap().unwrap().value(),
            v.as_bytes(),
            "{k} lost across restart"
        );
    }
    // And the store keeps working after recovery.
    store.put(b"post-restart", b"yes").unwrap();
    assert!(store.get(b"post-restart").unwrap().is_some());
}

#[test]
fn early_stop_means_fresh_writes_check_fewer_levels() {
    let store = ElsmP2::open(Platform::with_defaults(), small_options(ReadMode::Mmap)).unwrap();
    for i in 0..1500u32 {
        store.put(format!("key{:04}", i % 500).as_bytes(), b"old").unwrap();
    }
    store.db().flush().unwrap();
    // A fresh overwrite lands in upper levels; its GET must early-stop.
    store.put(b"key0001", b"fresh").unwrap();
    store.db().flush().unwrap();
    let fresh = store.get(b"key0001").unwrap().unwrap();
    // A never-overwritten key sits at the bottom.
    let deep = store.get(b"key0499").unwrap().unwrap();
    assert!(
        fresh.levels_checked() <= deep.levels_checked(),
        "early stop: fresh {} vs deep {}",
        fresh.levels_checked(),
        deep.levels_checked()
    );
}

#[test]
fn paper_example_figure3() {
    // Reconstruct the paper's running example: keys A,T,Y,Z with the
    // timestamps of Figure 3a, then the GET(Z) of §5.3.
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options { compaction_enabled: false, ..small_options(ReadMode::Mmap) },
    )
    .unwrap();
    for (k, v) in [("T", "0"), ("Z", "1"), ("A", "2"), ("Y", "3"), ("T", "4")] {
        store.put(k.as_bytes(), v.as_bytes()).unwrap();
    }
    store.db().flush().unwrap();
    for (k, v) in [("Z", "6"), ("Z", "7")] {
        store.put(k.as_bytes(), v.as_bytes()).unwrap();
    }
    store.db().flush().unwrap();
    store.put(b"A", b"9").unwrap();
    store.db().flush().unwrap();
    // GET(Z) must return ⟨Z,7⟩ — the freshest — with verification.
    let z = store.get(b"Z").unwrap().unwrap();
    assert_eq!(z.value(), b"7");
    // And GET of an absent key between A and T verifies non-membership.
    assert!(store.get(b"B").unwrap().is_none());
}

#[test]
fn concurrent_clients_verify_under_compaction() {
    // §5.5.2: concurrent reads/writes synchronized with compaction via the
    // mutex-guarded commitments — every thread's reads must verify even
    // while flushes/compactions replace roots underneath.
    use std::sync::Arc;
    let store =
        Arc::new(ElsmP2::open(Platform::with_defaults(), small_options(ReadMode::Mmap)).unwrap());
    std::thread::scope(|s| {
        for t in 0..4 {
            let store = store.clone();
            s.spawn(move || {
                for i in 0..300u32 {
                    let key = format!("t{t}-key{i:04}");
                    store.put(key.as_bytes(), b"v").unwrap();
                    // Immediate verified read-back.
                    assert!(store.get(key.as_bytes()).unwrap().is_some(), "{key}");
                }
            });
        }
    });
    // Post-hoc verified sweep across everything all threads wrote.
    for t in 0..4 {
        for i in (0..300u32).step_by(23) {
            let key = format!("t{t}-key{i:04}");
            assert!(store.get(key.as_bytes()).unwrap().is_some(), "{key}");
        }
    }
    assert!(store.db().stats().flushes > 0, "compactions ran during the test");
}

/// A scan whose `from` sorts after its `to` holds no key: every verified
/// surface answers it with an empty result, and an honest store's answer
/// is not audited as an attack — on a flushed level, where the range's
/// neighbours used to be presented as a run that does not exist.
#[test]
fn an_inverted_range_is_empty_and_not_an_attack() {
    use elsm_repro::elsm::{ConfidentialStore, ElsmP1, P1Options};
    use elsm_repro::replica::{ReplicationGroup, ReplicationOptions};
    use elsm_repro::shard::{ShardedKv, ShardedOptions};
    use elsm_repro::telemetry::Telemetry;

    let telemetry = Telemetry::default();
    let options = P2Options { telemetry: telemetry.clone(), ..P2Options::default() };
    let key = |i: u32| format!("key{i:03}").into_bytes();
    let check = |name: &str, store: &dyn AuthenticatedKv, flush: &dyn Fn()| {
        for i in 0..100 {
            store.put(&key(i), b"value").unwrap();
        }
        flush();
        for (from, to) in [(50, 30), (51, 50), (99, 0)] {
            let got = store.scan(&key(from), &key(to));
            assert!(got.as_ref().is_ok_and(Vec::is_empty), "{name} {from}..={to}: {got:?}");
        }
        assert_eq!(store.scan(&key(30), &key(50)).unwrap().len(), 21, "{name}");
        assert_eq!(telemetry.audit_total(), 0, "{name}: nothing was attacked");
    };

    let p2 = ElsmP2::open(Platform::with_defaults(), options.clone()).unwrap();
    check("p2", &p2, &|| p2.db().flush().unwrap());
    let sharded =
        ShardedKv::open(Platform::with_defaults(), ShardedOptions::hash(2, options.clone()))
            .unwrap();
    check("sharded", &sharded, &|| sharded.flush().unwrap());
    let group = ReplicationGroup::open(
        Platform::with_defaults(),
        options.clone(),
        ReplicationOptions { replicas: 1, ..Default::default() },
    )
    .unwrap();
    check("replicated", &group, &|| group.flush().unwrap());
    let confidential =
        ConfidentialStore::open(Platform::with_defaults(), options, b"master key").unwrap();
    check("confidential", &confidential, &|| confidential.inner().db().flush().unwrap());
    let p1 = ElsmP1::open(Platform::with_defaults(), P1Options::default()).unwrap();
    check("p1", &p1, &|| p1.db().flush().unwrap());
}
