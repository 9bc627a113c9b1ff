//! End-to-end attack detection: every §3.3 attack class against a real
//! store, every one detected.

use elsm_repro::elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options, VerificationFailure};
use elsm_repro::lsm_store::LevelOutcome;
use elsm_repro::sgx_sim::Platform;

pub mod support;
use support::adversary::*;

fn store_with_data() -> ElsmP2 {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            write_buffer_bytes: 4 * 1024,
            level1_max_bytes: 16 * 1024,
            level_multiplier: 4,
            max_levels: 4,
            ..P2Options::default()
        },
    )
    .unwrap();
    for i in 0..400u32 {
        let key = format!("key{:04}", i % 200);
        store.put(key.as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }
    store.db().flush().unwrap();
    store
}

#[test]
fn benign_queries_verify() {
    let store = store_with_data();
    // Protocol correctness (Definition 5.2): honest answers verify.
    for i in (0..200).step_by(11) {
        let key = format!("key{i:04}");
        assert!(store.get(key.as_bytes()).unwrap().is_some(), "{key}");
    }
    assert!(store.get(b"absent-key").unwrap().is_none());
    assert!(!store.scan(b"key0010", b"key0020").unwrap().is_empty());
}

#[test]
fn forged_value_detected() {
    let store = store_with_data();
    let mut trace = store.raw_get_trace(b"key0007").unwrap();
    forge_hit_value(&mut trace, b"forged!");
    let err = store.verify_get_trace(b"key0007", &trace).unwrap_err();
    assert!(
        matches!(
            err,
            VerificationFailure::ForgedRecord { .. } | VerificationFailure::MissingProof { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn spliced_timestamp_detected() {
    let store = store_with_data();
    let mut trace = store.raw_get_trace(b"key0007").unwrap();
    splice_hit_record(&mut trace, 999_999);
    assert!(store.verify_get_trace(b"key0007", &trace).is_err());
}

#[test]
fn suppressed_hit_detected() {
    let store = store_with_data();
    let mut trace = store.raw_get_trace(b"key0007").unwrap();
    suppress_hit(&mut trace);
    let err = store.verify_get_trace(b"key0007", &trace).unwrap_err();
    assert!(
        matches!(err, VerificationFailure::IncompleteRange { .. }),
        "hiding a record must break the range [key, key]: {err:?}"
    );
}

#[test]
fn hidden_level_detected() {
    let store = store_with_data();
    let trace = store.raw_get_trace(b"key0007").unwrap();
    let hit_level = trace
        .levels
        .iter()
        .find_map(|l| matches!(l.outcome, LevelOutcome::Hit(_)).then_some(l.level))
        .expect("a hit level");
    let mut tampered = trace;
    hide_level(&mut tampered, hit_level);
    let err = store.verify_get_trace(b"key0007", &tampered).unwrap_err();
    assert!(matches!(err, VerificationFailure::HiddenLevel { .. }), "got {err:?}");
}

#[test]
fn stale_version_detected() {
    // Two versions of one key, both compacted to the same level; the
    // adversary answers with the older one and its honest proof.
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            write_buffer_bytes: 1024 * 1024,
            compaction_enabled: false,
            ..P2Options::default()
        },
    )
    .unwrap();
    store.put(b"zkey", b"old-value").unwrap();
    store.put(b"zkey", b"new-value").unwrap();
    for i in 0..50 {
        store.put(format!("fill{i:03}").as_bytes(), b"x").unwrap();
    }
    store.db().flush().unwrap();
    // Honest answer is the new version.
    assert_eq!(store.get(b"zkey").unwrap().unwrap().value(), b"new-value");
    // Fetch the stale version as stored (with its own embedded proof).
    let all = store.db().level_record_dump(1).unwrap();
    let stale = all
        .iter()
        .filter(|r| &r.key[..] == b"zkey")
        .min_by_key(|r| r.ts)
        .expect("old version on disk")
        .clone();
    let mut trace = store.raw_get_trace(b"zkey").unwrap();
    substitute_stale(&mut trace, stale);
    let err = store.verify_get_trace(b"zkey", &trace).unwrap_err();
    assert!(
        matches!(err, VerificationFailure::StaleRecord { newer_versions: 1, .. }),
        "freshness violation must be detected: {err:?}"
    );
}

#[test]
fn dropped_scan_record_detected() {
    let store = store_with_data();
    let mut trace = store.raw_scan_trace(b"key0010", b"key0030").unwrap();
    // Drop key0020 from whichever level actually stores it.
    let victim_level = trace
        .levels
        .iter()
        .find(|l| l.records.iter().any(|r| &r.key[..] == b"key0020"))
        .map(|l| l.level)
        .expect("key0020 stored at some level");
    drop_from_scan(&mut trace, victim_level, b"key0020");
    let err = store.verify_scan_trace(b"key0010", b"key0030", &trace).unwrap_err();
    assert!(matches!(err, VerificationFailure::IncompleteRange { .. }), "got {err:?}");
}

#[test]
fn truncated_scan_detected() {
    let store = store_with_data();
    let mut trace = store.raw_scan_trace(b"key0010", b"key0030").unwrap();
    let victim_level = trace
        .levels
        .iter()
        .find(|l| l.records.len() > 3)
        .map(|l| l.level)
        .expect("a level with records in range");
    truncate_scan(&mut trace, victim_level, 3);
    assert!(store.verify_scan_trace(b"key0010", b"key0030", &trace).is_err());
}

#[test]
fn sstable_corruption_detected_end_to_end() {
    let store = store_with_data();
    let sst =
        store.fs().list().into_iter().filter(|n| n.ends_with(".sst")).max().expect("an sstable");
    let f = store.fs().open(&sst).unwrap();
    // Flip a byte inside the first data block.
    f.corrupt(64, 0x01);
    let mut detected = 0;
    for i in 0..200 {
        let key = format!("key{i:04}");
        if store.get(key.as_bytes()).is_err() {
            detected += 1;
        }
    }
    assert!(detected > 0, "on-disk corruption must surface as verification failures");
}

#[test]
fn proofless_record_rejected() {
    let store = store_with_data();
    let mut trace = store.raw_get_trace(b"key0007").unwrap();
    for search in &mut trace.levels {
        if matches!(search.outcome, LevelOutcome::Hit(_)) {
            search.outcome = LevelOutcome::Hit(proofless_record(b"key0007", b"v", 123));
        }
    }
    let err = store.verify_get_trace(b"key0007", &trace).unwrap_err();
    assert!(matches!(err, VerificationFailure::MissingProof { .. }), "got {err:?}");
}

#[test]
fn rollback_attack_detected() {
    use elsm_repro::sgx_sim::MonotonicCounter;
    use elsm_repro::sim_disk::{SimDisk, SimFs};

    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let counter = MonotonicCounter::new(platform.clone());
    let options =
        P2Options { write_buffer_bytes: 4 * 1024, counter_write_buffer: 1, ..P2Options::default() };
    // Epoch 1: some data, clean close.
    {
        let store =
            ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), Some(counter.clone()))
                .unwrap();
        for i in 0..100 {
            store.put(format!("k{i:03}").as_bytes(), b"v1").unwrap();
        }
        store.close().unwrap();
    }
    // Adversary snapshots the (authentic) epoch-1 state.
    let old_state = fs.snapshot();
    // Epoch 2: more writes, clean close — counter advances.
    {
        let store =
            ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), Some(counter.clone()))
                .unwrap();
        for i in 0..100 {
            store.put(format!("k{i:03}").as_bytes(), b"v2").unwrap();
        }
        store.close().unwrap();
    }
    // Attack: restore the old storage and restart the enclave.
    fs.restore(&old_state);
    let result = ElsmP2::open_with(platform, fs, options, Some(counter));
    assert!(
        matches!(result, Err(ElsmError::Verification(VerificationFailure::RolledBack))),
        "rollback must be detected at restart: {result:?}"
    );
}

#[test]
fn benign_restart_verifies() {
    use elsm_repro::sgx_sim::MonotonicCounter;
    use elsm_repro::sim_disk::{SimDisk, SimFs};

    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let counter = MonotonicCounter::new(platform.clone());
    let options =
        P2Options { write_buffer_bytes: 4 * 1024, counter_write_buffer: 1, ..P2Options::default() };
    {
        let store =
            ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), Some(counter.clone()))
                .unwrap();
        for i in 0..150 {
            store.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        store.close().unwrap();
    }
    let store = ElsmP2::open_with(platform, fs, options, Some(counter)).unwrap();
    for i in (0..150).step_by(7) {
        let key = format!("k{i:03}");
        assert_eq!(
            store.get(key.as_bytes()).unwrap().unwrap().value(),
            format!("v{i}").as_bytes(),
            "{key} lost or unverifiable after restart"
        );
    }
}
