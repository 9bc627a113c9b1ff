//! Epoch-aware verified read cache.
//!
//! Verified GET answers are expensive: an ECall, block reads through
//! untrusted memory, proof decoding and Merkle verification against the
//! epoch's commitments — and, for key-value-separated records, a second
//! host read to fetch the value-log entry. Once a record has been
//! verified under an epoch's commitment set, re-verifying the identical
//! bytes for the next hot read is pure overhead: nothing it could detect
//! has had a chance to change.
//!
//! [`VerifiedCache`] memoizes those verified answers *inside the trust
//! boundary*:
//!
//! * **Record entries** are keyed by user key and tagged with the
//!   commitment epoch the verification ran under. A lookup hits only
//!   when the entry's epoch equals the store's current epoch — an entry
//!   verified under a superseded commitment set is structurally unable
//!   to answer (freshness by construction, not by invalidation
//!   discipline). Writes invalidate their key eagerly; epoch installs
//!   drop every entry of the outgoing epoch
//!   ([`VerifiedCache::install_epoch`]).
//! * **Value-log slots** are keyed by `(file, offset)` and hold the
//!   payload of a value-log entry whose MAC has been checked. A hit
//!   must present the pointer MAC from a *verified* pointer record and
//!   is re-authenticated against the slot's tag, so a hit costs one MAC
//!   instead of an OCall + disk read + MAC.
//!
//! Every entry carries an HMAC tag under a per-cache private key
//! (standing in for an enclave-held MAC key), computed over the entry's
//! content *and its epoch*. The backing memory is modeled as scribbling
//! territory: a tag mismatch on hit means the entry was tampered with —
//! it is counted, discarded and the query falls back to the verified
//! disk path ([`crate::error::VerificationFailure::CacheTampered`] names
//! the failure for callers that want to surface it).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use elsm_crypto::hmac::{verify_tag, HmacKey};
use elsm_crypto::Digest;
use lsm_store::Timestamp;
use parking_lot::Mutex;
use sgx_sim::Platform;
use telemetry::{AuditEvent, Counter, Telemetry};

use crate::error::VerificationFailure;

/// Hit/miss/tamper counters of a [`VerifiedCache`] (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Record-entry lookups answered from the cache.
    pub record_hits: u64,
    /// Record-entry lookups that fell through to the verified disk path.
    pub record_misses: u64,
    /// Value-log slot hits.
    pub vlog_hits: u64,
    /// Value-log slot misses.
    pub vlog_misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Entries dropped because a write or epoch change superseded them.
    pub invalidations: u64,
    /// Entries whose integrity tag failed on hit — detected, discarded,
    /// never served.
    pub tamper_detected: u64,
}

/// A cached verified GET answer.
#[derive(Debug)]
struct RecordEntry {
    epoch: u64,
    ts: Timestamp,
    value: Bytes,
    tag: Digest,
    tick: u64,
    bytes: usize,
}

/// A cached authenticated value-log payload.
#[derive(Debug)]
struct VlogSlot {
    mac: [u8; 32],
    payload: Bytes,
    tag: Digest,
    tick: u64,
    bytes: usize,
}

#[derive(Debug, Default)]
struct Inner {
    epoch: u64,
    records: HashMap<Vec<u8>, RecordEntry>,
    record_lru: BTreeMap<u64, Vec<u8>>,
    vlog: HashMap<(u64, u64), VlogSlot>,
    vlog_lru: BTreeMap<u64, (u64, u64)>,
    bytes: usize,
    tick: u64,
}

/// The cache's counters, living in the telemetry registry (the
/// `cache.*` series). [`VerifiedCache::stats`] snapshots them back into
/// the original [`CacheStats`] shape for existing callers.
#[derive(Debug)]
struct CacheMetrics {
    record_hits: Counter,
    record_misses: Counter,
    vlog_hits: Counter,
    vlog_misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    tamper_detected: Counter,
}

impl CacheMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        CacheMetrics {
            record_hits: telemetry.counter("cache.record_hits"),
            record_misses: telemetry.counter("cache.record_misses"),
            vlog_hits: telemetry.counter("cache.vlog_hits"),
            vlog_misses: telemetry.counter("cache.vlog_misses"),
            evictions: telemetry.counter("cache.evictions"),
            invalidations: telemetry.counter("cache.invalidations"),
            tamper_detected: telemetry.counter("cache.tamper_detected"),
        }
    }
}

/// Fixed per-entry overhead charged against the byte budget.
const ENTRY_OVERHEAD: usize = 64;

/// The epoch-aware verified read cache. See the module docs.
#[derive(Debug)]
pub struct VerifiedCache {
    platform: Arc<Platform>,
    mac_key: HmacKey,
    capacity: usize,
    inner: Mutex<Inner>,
    metrics: CacheMetrics,
    telemetry: Telemetry,
}

impl VerifiedCache {
    /// Builds a cache bounded to `capacity` bytes of entry payload, with
    /// counters on a private disabled registry.
    pub fn new(platform: Arc<Platform>, capacity: usize) -> Arc<Self> {
        Self::with_telemetry(platform, capacity, &Telemetry::default())
    }

    /// Builds a cache whose `cache.*` counters live in `telemetry` and
    /// whose tamper detections feed its audit stream.
    pub fn with_telemetry(
        platform: Arc<Platform>,
        capacity: usize,
        telemetry: &Telemetry,
    ) -> Arc<Self> {
        // Stands in for a key derived inside the enclave at startup; the
        // host never holds it, so it cannot forge entry tags.
        let mac_key = HmacKey::new(elsm_crypto::sha256(b"elsm/verified-cache key v1").as_bytes());
        Arc::new(VerifiedCache {
            platform,
            mac_key,
            capacity,
            inner: Mutex::new(Inner::default()),
            metrics: CacheMetrics::new(telemetry),
            telemetry: telemetry.clone(),
        })
    }

    fn record_tag(&self, key: &[u8], epoch: u64, ts: Timestamp, value: &[u8]) -> Digest {
        self.platform.charge_hash(key.len() + value.len() + 16);
        // 0x01: domain of record entries.
        self.mac_key.mac(&[&[0x01], &epoch.to_le_bytes(), &ts.to_le_bytes(), key, value])
    }

    fn vlog_tag(&self, file_no: u64, offset: u64, mac: &[u8; 32], payload: &[u8]) -> Digest {
        self.platform.charge_hash(payload.len() + 48);
        // 0x02: domain of value-log slots.
        self.mac_key.mac(&[&[0x02], &file_no.to_le_bytes(), &offset.to_le_bytes(), mac, payload])
    }

    /// Looks up the verified answer for `key` under `epoch`.
    ///
    /// `Ok(Some((ts, value)))` is a hit: the entry was verified under
    /// exactly this epoch and its tag checks out. `Ok(None)` is a miss
    /// (absent, or tagged with a different epoch — a stale entry is a
    /// miss, never an answer).
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::CacheTampered`] when the entry's
    /// integrity tag fails: the backing memory was scribbled over. The
    /// entry is discarded; callers fall back to the verified disk path.
    pub fn lookup_record(
        &self,
        key: &[u8],
        epoch: u64,
    ) -> Result<Option<(Timestamp, Bytes)>, VerificationFailure> {
        let inner = self.inner.lock();
        let Some(entry) = inner.records.get(key) else {
            self.metrics.record_misses.inc();
            return Ok(None);
        };
        if entry.epoch != epoch {
            self.metrics.record_misses.inc();
            return Ok(None);
        }
        let (epoch, ts, value) = (entry.epoch, entry.ts, entry.value.clone());
        drop(inner);
        let expect = self.record_tag(key, epoch, ts, &value);
        let mut inner = self.inner.lock();
        let Some(entry) = inner.records.get(key) else {
            self.metrics.record_misses.inc();
            return Ok(None);
        };
        if !verify_tag(&expect, &entry.tag) {
            let tick = entry.tick;
            let bytes = entry.bytes;
            inner.records.remove(key);
            inner.record_lru.remove(&tick);
            inner.bytes -= bytes;
            drop(inner);
            self.metrics.tamper_detected.inc();
            let failure = VerificationFailure::CacheTampered { epoch };
            self.telemetry.audit(
                AuditEvent::new(failure.kind(), "cache")
                    .detail(failure.to_string())
                    .epoch(epoch)
                    .at_ns(self.platform.clock().now_ns()),
            );
            return Err(failure);
        }
        let old_tick = entry.tick;
        inner.tick += 1;
        let tick = inner.tick;
        inner.record_lru.remove(&old_tick);
        inner.record_lru.insert(tick, key.to_vec());
        inner.records.get_mut(key).expect("checked above").tick = tick;
        self.metrics.record_hits.inc();
        Ok(Some((ts, value)))
    }

    /// Memoizes a verified GET answer for `key` under `epoch`.
    pub fn insert_record(&self, key: &[u8], epoch: u64, ts: Timestamp, value: Bytes) {
        let bytes = key.len() + value.len() + ENTRY_OVERHEAD;
        if bytes > self.capacity {
            return;
        }
        let tag = self.record_tag(key, epoch, ts, &value);
        let mut inner = self.inner.lock();
        self.remove_record_locked(&mut inner, key);
        inner.tick += 1;
        let tick = inner.tick;
        inner.records.insert(key.to_vec(), RecordEntry { epoch, ts, value, tag, tick, bytes });
        inner.record_lru.insert(tick, key.to_vec());
        inner.bytes += bytes;
        self.evict_locked(&mut inner);
    }

    /// Looks up the payload of value-log entry `(file_no, offset)`,
    /// authenticated against `mac` (the pointer MAC from an
    /// already-verified pointer record).
    pub fn lookup_vlog(&self, file_no: u64, offset: u64, mac: &[u8; 32]) -> Option<Bytes> {
        let inner = self.inner.lock();
        let Some(slot) = inner.vlog.get(&(file_no, offset)) else {
            self.metrics.vlog_misses.inc();
            return None;
        };
        if !verify_tag(&Digest::from_bytes(slot.mac), &Digest::from_bytes(*mac)) {
            self.metrics.vlog_misses.inc();
            return None;
        }
        let payload = slot.payload.clone();
        drop(inner);
        let expect = self.vlog_tag(file_no, offset, mac, &payload);
        let mut inner = self.inner.lock();
        let Some(slot) = inner.vlog.get(&(file_no, offset)) else {
            self.metrics.vlog_misses.inc();
            return None;
        };
        if !verify_tag(&expect, &slot.tag) {
            let (tick, bytes) = (slot.tick, slot.bytes);
            inner.vlog.remove(&(file_no, offset));
            inner.vlog_lru.remove(&tick);
            inner.bytes -= bytes;
            drop(inner);
            self.metrics.tamper_detected.inc();
            let epoch = self.inner.lock().epoch;
            let failure = VerificationFailure::CacheTampered { epoch };
            self.telemetry.audit(
                AuditEvent::new(failure.kind(), "cache")
                    .detail(format!("value-log slot ({file_no}, {offset}) failed its tag"))
                    .epoch(epoch)
                    .at_ns(self.platform.clock().now_ns()),
            );
            return None;
        }
        let old_tick = slot.tick;
        inner.tick += 1;
        let tick = inner.tick;
        inner.vlog_lru.remove(&old_tick);
        inner.vlog_lru.insert(tick, (file_no, offset));
        inner.vlog.get_mut(&(file_no, offset)).expect("checked above").tick = tick;
        self.metrics.vlog_hits.inc();
        Some(payload)
    }

    /// Memoizes an authenticated value-log payload.
    pub fn insert_vlog(&self, file_no: u64, offset: u64, mac: [u8; 32], payload: Bytes) {
        let bytes = payload.len() + ENTRY_OVERHEAD;
        if bytes > self.capacity {
            return;
        }
        let tag = self.vlog_tag(file_no, offset, &mac, &payload);
        let mut inner = self.inner.lock();
        if let Some(old) = inner.vlog.remove(&(file_no, offset)) {
            inner.vlog_lru.remove(&old.tick);
            inner.bytes -= old.bytes;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.vlog.insert((file_no, offset), VlogSlot { mac, payload, tag, tick, bytes });
        inner.vlog_lru.insert(tick, (file_no, offset));
        inner.bytes += bytes;
        self.evict_locked(&mut inner);
    }

    /// Drops the record entry for `key` (a write superseded it).
    pub fn invalidate_key(&self, key: &[u8]) {
        let mut inner = self.inner.lock();
        if self.remove_record_locked(&mut inner, key) {
            self.metrics.invalidations.inc();
        }
    }

    /// A new commitment epoch took effect: entries verified under any
    /// other epoch can no longer answer, so drop them.
    pub fn install_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        inner.epoch = epoch;
        let stale: Vec<Vec<u8>> = inner
            .records
            .iter()
            .filter(|(_, e)| e.epoch != epoch)
            .map(|(k, _)| k.clone())
            .collect();
        for key in stale {
            if self.remove_record_locked(&mut inner, &key) {
                self.metrics.invalidations.inc();
            }
        }
    }

    /// Epoch snapshots were pruned; entries of dead epochs go with them.
    pub fn retire_epochs(&self, live_epochs: &[u64]) {
        let mut inner = self.inner.lock();
        let stale: Vec<Vec<u8>> = inner
            .records
            .iter()
            .filter(|(_, e)| !live_epochs.contains(&e.epoch))
            .map(|(k, _)| k.clone())
            .collect();
        for key in stale {
            if self.remove_record_locked(&mut inner, &key) {
                self.metrics.invalidations.inc();
            }
        }
    }

    /// Counter snapshot, reconstructed from the registry-backed
    /// `cache.*` counters (the pre-telemetry accessor shape).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            record_hits: self.metrics.record_hits.value(),
            record_misses: self.metrics.record_misses.value(),
            vlog_hits: self.metrics.vlog_hits.value(),
            vlog_misses: self.metrics.vlog_misses.value(),
            evictions: self.metrics.evictions.value(),
            invalidations: self.metrics.invalidations.value(),
            tamper_detected: self.metrics.tamper_detected.value(),
        }
    }

    /// Bytes currently held (tests / gauges).
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Test seam: scribbles over a cached record's value bytes without
    /// fixing its tag — the simulated host attacking the cache's backing
    /// memory. Returns whether the key was cached.
    pub fn corrupt_record(&self, key: &[u8]) -> bool {
        let mut inner = self.inner.lock();
        match inner.records.get_mut(key) {
            Some(entry) => {
                let mut bytes = entry.value.to_vec();
                match bytes.first_mut() {
                    Some(b) => *b ^= 0xFF,
                    None => bytes.push(0xFF),
                }
                entry.value = Bytes::from(bytes);
                true
            }
            None => false,
        }
    }

    /// Test seam: re-tags a cached record as verified under `epoch`,
    /// with the tag the enclave *would* have computed then — the
    /// strongest stale-replay an adversary with a recorded old entry
    /// could mount. Returns whether the key was cached.
    pub fn force_record_epoch(&self, key: &[u8], epoch: u64) -> bool {
        let tagged = {
            let inner = self.inner.lock();
            inner.records.get(key).map(|e| (e.ts, e.value.clone()))
        };
        match tagged {
            Some((ts, value)) => {
                let tag = self.record_tag(key, epoch, ts, &value);
                let mut inner = self.inner.lock();
                match inner.records.get_mut(key) {
                    Some(entry) => {
                        entry.epoch = epoch;
                        entry.tag = tag;
                        true
                    }
                    None => false,
                }
            }
            None => false,
        }
    }

    fn remove_record_locked(&self, inner: &mut Inner, key: &[u8]) -> bool {
        match inner.records.remove(key) {
            Some(entry) => {
                inner.record_lru.remove(&entry.tick);
                inner.bytes -= entry.bytes;
                true
            }
            None => false,
        }
    }

    fn evict_locked(&self, inner: &mut Inner) {
        while inner.bytes > self.capacity {
            let rec = inner.record_lru.iter().next().map(|(&t, _)| t);
            let slot = inner.vlog_lru.iter().next().map(|(&t, _)| t);
            match (rec, slot) {
                (Some(r), s) if s.map_or(true, |s| r < s) => {
                    let key = inner.record_lru.remove(&r).expect("present");
                    let entry = inner.records.remove(&key).expect("maps in sync");
                    inner.bytes -= entry.bytes;
                    self.metrics.evictions.inc();
                }
                (_, Some(s)) => {
                    let loc = inner.vlog_lru.remove(&s).expect("present");
                    let entry = inner.vlog.remove(&loc).expect("maps in sync");
                    inner.bytes -= entry.bytes;
                    self.metrics.evictions.inc();
                }
                (None, None) => break,
                _ => unreachable!("first arm covers rec=Some, slot=None"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> Arc<VerifiedCache> {
        VerifiedCache::new(Platform::with_defaults(), capacity)
    }

    #[test]
    fn hit_requires_exact_epoch() {
        let c = cache(4096);
        c.insert_record(b"k", 7, 42, Bytes::from_static(b"v"));
        assert_eq!(c.lookup_record(b"k", 7).unwrap(), Some((42, Bytes::from_static(b"v"))));
        assert_eq!(c.lookup_record(b"k", 8).unwrap(), None, "newer epoch must miss");
        assert_eq!(c.lookup_record(b"k", 6).unwrap(), None, "older epoch must miss");
        let s = c.stats();
        assert_eq!((s.record_hits, s.record_misses), (1, 2));
    }

    #[test]
    fn writes_and_epoch_installs_invalidate() {
        let c = cache(4096);
        c.insert_record(b"a", 1, 1, Bytes::from_static(b"va"));
        c.insert_record(b"b", 1, 2, Bytes::from_static(b"vb"));
        c.invalidate_key(b"a");
        assert_eq!(c.lookup_record(b"a", 1).unwrap(), None);
        assert!(c.lookup_record(b"b", 1).unwrap().is_some());
        c.install_epoch(2);
        assert_eq!(c.lookup_record(b"b", 2).unwrap(), None, "epoch install drops old entries");
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn tampered_entry_is_detected_not_served() {
        let c = cache(4096);
        c.insert_record(b"k", 3, 9, Bytes::from_static(b"honest"));
        assert!(c.corrupt_record(b"k"));
        let err = c.lookup_record(b"k", 3).unwrap_err();
        assert_eq!(err, VerificationFailure::CacheTampered { epoch: 3 });
        // Discarded: the next lookup is a clean miss.
        assert_eq!(c.lookup_record(b"k", 3).unwrap(), None);
        assert_eq!(c.stats().tamper_detected, 1);
    }

    #[test]
    fn stale_epoch_replay_misses_even_with_a_valid_old_tag() {
        let c = cache(4096);
        c.insert_record(b"k", 5, 1, Bytes::from_static(b"old"));
        c.install_epoch(6);
        c.insert_record(b"k", 6, 2, Bytes::from_static(b"new"));
        // Adversary replays the recorded epoch-5 entry (tag valid for 5).
        assert!(c.force_record_epoch(b"k", 5));
        assert_eq!(c.lookup_record(b"k", 6).unwrap(), None, "stale entry must not answer");
    }

    #[test]
    fn vlog_slots_check_the_pointer_mac() {
        let c = cache(4096);
        let mac = [0xAA; 32];
        c.insert_vlog(3, 128, mac, Bytes::from_static(b"payload"));
        assert_eq!(c.lookup_vlog(3, 128, &mac), Some(Bytes::from_static(b"payload")));
        assert_eq!(c.lookup_vlog(3, 128, &[0xBB; 32]), None, "wrong mac must miss");
        assert_eq!(c.lookup_vlog(3, 64, &mac), None, "wrong offset must miss");
        let s = c.stats();
        assert_eq!((s.vlog_hits, s.vlog_misses), (1, 2));
    }

    fn flip(digest: Digest, bit: usize) -> Digest {
        let mut bytes = digest.into_bytes();
        bytes[bit / 8] ^= 1 << (bit % 8);
        Digest::from_bytes(bytes)
    }

    /// The three tag/MAC comparisons run through `verify_tag`; a tag one
    /// bit away from the right one — first bit, last bit — is a mismatch
    /// at each of them.
    #[test]
    fn one_bit_off_tags_are_rejected_at_every_site() {
        for bit in [0usize, 255] {
            // Record entry tag.
            let c = cache(4096);
            c.insert_record(b"k", 3, 9, Bytes::from_static(b"honest"));
            {
                let mut inner = c.inner.lock();
                let entry = inner.records.get_mut(b"k".as_slice()).unwrap();
                entry.tag = flip(entry.tag, bit);
            }
            assert_eq!(
                c.lookup_record(b"k", 3),
                Err(VerificationFailure::CacheTampered { epoch: 3 }),
                "record tag, bit {bit}"
            );
            // Value-log slot tag.
            let mac = [0xAA; 32];
            c.insert_vlog(3, 128, mac, Bytes::from_static(b"payload"));
            {
                let mut inner = c.inner.lock();
                let slot = inner.vlog.get_mut(&(3, 128)).unwrap();
                slot.tag = flip(slot.tag, bit);
            }
            assert_eq!(c.lookup_vlog(3, 128, &mac), None, "slot tag, bit {bit}");
            assert_eq!(c.stats().tamper_detected, 2);
            // Pointer MAC presented by the caller.
            c.insert_vlog(3, 128, mac, Bytes::from_static(b"payload"));
            let wrong = flip(Digest::from_bytes(mac), bit).into_bytes();
            assert_eq!(c.lookup_vlog(3, 128, &wrong), None, "pointer mac, bit {bit}");
            assert_eq!(c.lookup_vlog(3, 128, &mac), Some(Bytes::from_static(b"payload")));
        }
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let c = cache(3 * (1 + 10 + ENTRY_OVERHEAD));
        for (i, key) in [b"a", b"b", b"c"].iter().enumerate() {
            c.insert_record(*key, 1, i as u64, Bytes::from(vec![0u8; 10]));
        }
        // Touch `a` so `b` is the coldest, then overflow.
        assert!(c.lookup_record(b"a", 1).unwrap().is_some());
        c.insert_record(b"d", 1, 9, Bytes::from(vec![0u8; 10]));
        assert_eq!(c.lookup_record(b"b", 1).unwrap(), None, "coldest entry evicted");
        assert!(c.lookup_record(b"a", 1).unwrap().is_some());
        assert!(c.lookup_record(b"d", 1).unwrap().is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes() <= 3 * (1 + 10 + ENTRY_OVERHEAD));
    }

    #[test]
    fn oversized_values_are_never_cached() {
        let c = cache(128);
        c.insert_record(b"k", 1, 1, Bytes::from(vec![0u8; 4096]));
        assert_eq!(c.lookup_record(b"k", 1).unwrap(), None);
        assert_eq!(c.bytes(), 0);
    }
}
