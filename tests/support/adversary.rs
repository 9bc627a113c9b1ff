//! Malicious-host simulation (§3.3's threat model, made executable).
//!
//! The adversary controls everything outside the enclave: file bytes, the
//! answers the storage layer returns, and — across power cycles — which
//! (older) version of the storage it presents. This module provides
//! helpers that mount each attack class; the security test suite asserts
//! every one is detected by the VRFY algorithms.

use bytes::Bytes;
use elsm_repro::crypto::Digest;
use elsm_repro::lsm_store::{GetTrace, LevelOutcome, Record, ScanTrace};
use elsm_repro::merkle::{ChainPosition, RecordProof};

/// Replaces the hit record's value bytes (query-integrity attack).
pub fn forge_hit_value(trace: &mut GetTrace, forged_value: &[u8]) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &mut search.outcome {
            record.value = elsm_repro::elsm::envelope::wrap_plain(forged_value);
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
    let opened = elsm_repro::elsm::envelope::open(&record.value).expect("a well-formed envelope");
    opened.proof.expect("a record with an embedded proof").to_owned()
}

/// Re-embeds `proof` in `record`, keeping the application value — the
/// host rewriting the proof bytes it stores.
///
/// # Panics
///
/// Panics if `record`'s envelope is malformed (a test-setup error).
pub fn with_proof(record: &Record, proof: &RecordProof) -> Record {
    let opened = elsm_repro::elsm::envelope::open(&record.value).expect("a well-formed envelope");
    let mut value = Vec::new();
    elsm_repro::elsm::envelope::append_with_proof(&mut value, opened.value, |out| {
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
    Record::put(Bytes::copy_from_slice(key), elsm_repro::elsm::envelope::wrap_plain(value), ts)
}
