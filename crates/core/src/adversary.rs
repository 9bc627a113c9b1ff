//! Malicious-host simulation (§3.3's threat model, made executable).
//!
//! The adversary controls everything outside the enclave: file bytes, the
//! answers the storage layer returns, and — across power cycles — which
//! (older) version of the storage it presents. This module provides
//! helpers that mount each attack class; the security test suite asserts
//! every one is detected by the VRFY algorithms.

use bytes::Bytes;
use elsm_crypto::Digest;
use lsm_store::{GetTrace, LevelOutcome, Record, ScanTrace};
use merkle::{ChainPosition, RecordProof};

/// Replaces the hit record's value bytes (query-integrity attack).
pub fn forge_hit_value(trace: &mut GetTrace, forged_value: &[u8]) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &mut search.outcome {
            record.value = crate::envelope::wrap_plain(forged_value);
        }
    }
}

/// Replaces the hit record entirely with an attacker-chosen record that
/// keeps the original (valid) embedded proof — a splice attack.
pub fn splice_hit_record(trace: &mut GetTrace, new_ts: u64) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &mut search.outcome {
            record.ts = new_ts;
        }
    }
}

/// Converts the hit at some level into a fabricated miss, presenting the
/// hit record itself as the left "neighbor" (completeness attack: a
/// legitimate record is excluded from the result).
pub fn suppress_hit(trace: &mut GetTrace) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &search.outcome {
            let left = Some(record.clone());
            search.outcome = LevelOutcome::Miss { left, right: None };
        }
    }
}

/// Claims a searched level was empty (hides an entire level).
pub fn hide_level(trace: &mut GetTrace, level: usize) {
    for search in &mut trace.levels {
        if search.level == level {
            search.outcome = LevelOutcome::Empty;
        }
    }
}

/// Replaces the hit with an older version of the same key, using that
/// older version's own (honestly generated) proof — the paper's ⟨Z,6⟩
/// freshness attack. The caller supplies the stale record as stored at the
/// same level.
pub fn substitute_stale(trace: &mut GetTrace, stale: Record) {
    for search in &mut trace.levels {
        if matches!(search.outcome, LevelOutcome::Hit(_)) {
            search.outcome = LevelOutcome::Hit(stale.clone());
        }
    }
}

/// The proof `record` is stored with, in owned form.
///
/// # Panics
///
/// Panics if `record` carries no well-formed proof (a test-setup error).
pub fn embedded_proof(record: &Record) -> RecordProof {
    let opened = crate::envelope::open(&record.value).expect("a well-formed envelope");
    opened.proof.expect("a record with an embedded proof").to_owned()
}

/// Re-embeds `proof` in `record`, keeping the application value — the
/// host rewriting the proof bytes it stores.
///
/// # Panics
///
/// Panics if `record`'s envelope is malformed (a test-setup error).
pub fn with_proof(record: &Record, proof: &RecordProof) -> Record {
    let opened = crate::envelope::open(&record.value).expect("a well-formed envelope");
    let mut value = Vec::new();
    crate::envelope::append_with_proof(&mut value, opened.value, |out| {
        out.extend_from_slice(&proof.encode())
    });
    Record { value: value.into(), ..record.clone() }
}

/// Relabels an older version as its key's newest: its chain link becomes
/// a newest-position claim over the same older digest, with the audit
/// path lifted from the chain's real `head` — the strongest forgery a host
/// holding the whole level can make for a stale answer.
///
/// # Panics
///
/// Panics if `head` is not a newest version (a test-setup error).
pub fn relabel_as_newest(stale: &Record, head: &Record) -> Record {
    let ChainPosition::Newest { audit_path, .. } = embedded_proof(head).chain else {
        panic!("`head` must be its chain's newest version");
    };
    let mut proof = embedded_proof(stale);
    let older_digest = *proof.chain.older_digest();
    proof.chain = ChainPosition::Newest { older_digest, audit_path };
    with_proof(stale, &proof)
}

/// Drops one record (all its versions) from a scan's level slice — a
/// range-completeness attack.
pub fn drop_from_scan(trace: &mut ScanTrace, level: usize, key: &[u8]) {
    for l in &mut trace.levels {
        if l.level == level {
            l.records.retain(|r| r.key != key);
        }
    }
}

/// Truncates a scan's level slice after `keep` records and drops the right
/// boundary (pretends the range ended early).
pub fn truncate_scan(trace: &mut ScanTrace, level: usize, keep: usize) {
    for l in &mut trace.levels {
        if l.level == level {
            l.records.truncate(keep);
            l.right = None;
        }
    }
}

/// An end of the leaf run a scan presents at one level: the boundary
/// neighbour where the trace has one, else the first (last) in-range key's
/// newest version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The run's first leaf.
    Lo,
    /// The run's last leaf.
    Hi,
}

/// Flips one bit in the audit path stored with an end record of `level`'s
/// leaf run — the two paths the level's range proof is read from. `byte`
/// indexes the path's bytes, wrapping. A trace with no such record (or an
/// end whose path is empty) is left alone.
pub fn corrupt_scan_end_path(trace: &mut ScanTrace, level: usize, end: ScanEnd, byte: usize) {
    for l in trace.levels.iter_mut().filter(|l| l.level == level) {
        let record = match end {
            ScanEnd::Lo => l.left.as_mut().or(l.records.first_mut()),
            ScanEnd::Hi => {
                // The last key's versions end the slice, newest first.
                let last_key = l.records.last().map(|r| r.key.clone());
                let head = l.records.iter_mut().find(|r| Some(&r.key) == last_key.as_ref());
                l.right.as_mut().or(head)
            }
        };
        let Some(record) = record else { continue };
        let mut proof = embedded_proof(record);
        let ChainPosition::Newest { audit_path, .. } = &mut proof.chain else { continue };
        if audit_path.is_empty() {
            continue;
        }
        let at = byte % (32 * audit_path.len());
        let mut sibling = *audit_path[at / 32].as_bytes();
        sibling[at % 32] ^= 0x01;
        audit_path[at / 32] = Digest::from_bytes(sibling);
        *record = with_proof(record, &proof);
    }
}

/// Fabricates a record with a plain envelope (no proof at all).
pub fn proofless_record(key: &[u8], value: &[u8], ts: u64) -> Record {
    Record::put(Bytes::copy_from_slice(key), crate::envelope::wrap_plain(value), ts)
}

#[cfg(test)]
mod tests {
    //! End-to-end attack detection: every §3.3 attack class against a real
    //! store, every one detected.

    use super::*;
    use crate::api::AuthenticatedKv;
    use crate::error::{ElsmError, VerificationFailure};
    use crate::p2::{ElsmP2, P2Options};
    use sgx_sim::Platform;

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
        let sst = store
            .fs()
            .list()
            .into_iter()
            .filter(|n| n.ends_with(".sst"))
            .max()
            .expect("an sstable");
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
        use sgx_sim::MonotonicCounter;
        use sim_disk::{SimDisk, SimFs};

        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let counter = MonotonicCounter::new(platform.clone());
        let options = P2Options {
            write_buffer_bytes: 4 * 1024,
            rollback: Some(crate::p2::RollbackOptions { counter_write_buffer: 1 }),
            ..P2Options::default()
        };
        // Epoch 1: some data, clean close.
        {
            let store = ElsmP2::open_with(
                platform.clone(),
                fs.clone(),
                options.clone(),
                Some(counter.clone()),
            )
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
            let store = ElsmP2::open_with(
                platform.clone(),
                fs.clone(),
                options.clone(),
                Some(counter.clone()),
            )
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
        use sgx_sim::MonotonicCounter;
        use sim_disk::{SimDisk, SimFs};

        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let counter = MonotonicCounter::new(platform.clone());
        let options = P2Options {
            write_buffer_bytes: 4 * 1024,
            rollback: Some(crate::p2::RollbackOptions { counter_write_buffer: 1 }),
            ..P2Options::default()
        };
        {
            let store = ElsmP2::open_with(
                platform.clone(),
                fs.clone(),
                options.clone(),
                Some(counter.clone()),
            )
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
}
