//! The verified read cache: freshness by write.
//!
//! Verified GET answers are expensive: an ECall, block reads through
//! untrusted memory, proof decoding and Merkle verification against the
//! epoch's commitments — and, for key-value-separated records, a second
//! host read to fetch the value-log entry. Once a key's answer has been
//! verified, re-verifying it for the next hot read is pure overhead until
//! the key is written again: a flush, compaction or value-log GC moves the
//! record between files, but never changes its value.
//!
//! [`VerifiedCache`] memoizes those verified answers *inside the trust
//! boundary*, one entry per user key holding the answer's timestamp and
//! value (a separated value is held once, as the answer it resolved to).
//! Entries obey one rule, checked at insert and at lookup: *an entry
//! answers only if its stamp is not older than the last write to its key's
//! bucket.* The cache keeps a trusted write sequence and a fixed array of
//! 4 096 bucket generations; a write ([`VerifiedCache::invalidate_key`])
//! takes the next sequence number into its key's bucket. A GET's stamp is
//! the sequence its miss saw ([`Lookup::Miss`]), read before it captures
//! its trace, and [`VerifiedCache::insert_record`] takes no other — so an
//! answer whose trace may predate a write that committed while it was being
//! verified never answers, and an entry the host writes back after its key
//! was written is a miss, however valid its tag. Version installs do not
//! reach the cache.
//!
//! Every entry carries an HMAC tag under a per-cache private key
//! (standing in for an enclave-held MAC key), computed over the entry's
//! key, stamp, timestamp and value. The entries' backing memory is
//! modelled as scribbling territory (the write sequence and the generation
//! array are the enclave's own): a tag mismatch on hit means the entry was
//! tampered with — it is counted, discarded and the query falls back to the
//! verified disk path ([`crate::error::VerificationFailure::CacheTampered`]
//! names the failure for callers that want to surface it).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hasher;
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
    /// Always 0: the cache holds answers only, and a separated value is
    /// read from the value log on every miss. Kept for the readers of the
    /// stats shape.
    pub vlog_hits: u64,
    /// Always 0, like [`CacheStats::vlog_hits`].
    pub vlog_misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Record entries dropped because a write to their key superseded them.
    pub invalidations: u64,
    /// Entries whose integrity tag failed on hit — detected, discarded,
    /// never served.
    pub tamper_detected: u64,
}

/// The write sequence a record lookup saw when it missed: what
/// [`VerifiedCache::insert_record`] memoizes the verified answer under.
/// Only a miss makes one, so a GET cannot stamp its answer later than the
/// trace it captured after the miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp(u64);

/// What [`VerifiedCache::lookup_record`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A verified answer no write has superseded: its timestamp and value.
    Hit(Timestamp, Bytes),
    /// No answer: verify on the disk path, then memoize under this stamp.
    Miss(Stamp),
}

/// A cached verified GET answer.
#[derive(Debug, Clone)]
struct RecordEntry {
    stamp: u64,
    ts: Timestamp,
    value: Bytes,
    tag: Digest,
    tick: u64,
    bytes: usize,
}

/// Buckets of the write-generation array (4 096 `u64`s, 32 KiB): a write
/// to any key of a bucket turns away the bucket's older entries.
const WRITE_BUCKETS: usize = 4096;

#[derive(Debug, Default)]
struct Inner {
    records: HashMap<Vec<u8>, RecordEntry>,
    /// Keys by last use, coldest first.
    lru: BTreeMap<u64, Vec<u8>>,
    bytes: usize,
    tick: u64,
    /// Writes seen so far: the next stamp.
    writes: u64,
    /// Per bucket, the write sequence of the last write to one of its keys.
    generation: Vec<u64>,
}

impl Inner {
    fn remove_record(&mut self, key: &[u8]) -> bool {
        let Some(entry) = self.records.remove(key) else { return false };
        self.lru.remove(&entry.tick);
        self.bytes -= entry.bytes;
        true
    }

    /// Moves `key`'s entry, if it is still the one last used at `tick`, to
    /// the hot end of the LRU.
    fn touch(&mut self, key: &[u8], tick: u64) {
        let Some(entry) = self.records.get_mut(key).filter(|e| e.tick == tick) else { return };
        self.tick += 1;
        entry.tick = self.tick;
        if let Some(key) = self.lru.remove(&tick) {
            self.lru.insert(self.tick, key);
        }
    }
}

fn bucket(key: &[u8]) -> usize {
    let mut hasher = DefaultHasher::new();
    hasher.write(key);
    hasher.finish() as usize % WRITE_BUCKETS
}

/// The cache's counters, living in the telemetry registry (the
/// `cache.*` series). [`VerifiedCache::stats`] snapshots them back into
/// the original [`CacheStats`] shape for existing callers.
#[derive(Debug)]
struct CacheMetrics {
    record_hits: Counter,
    record_misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    tamper_detected: Counter,
}

impl CacheMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        CacheMetrics {
            record_hits: telemetry.counter("cache.record_hits"),
            record_misses: telemetry.counter("cache.record_misses"),
            evictions: telemetry.counter("cache.evictions"),
            invalidations: telemetry.counter("cache.invalidations"),
            tamper_detected: telemetry.counter("cache.tamper_detected"),
        }
    }
}

/// Fixed per-entry overhead charged against the byte budget.
const ENTRY_OVERHEAD: usize = 64;

/// The verified read cache. See the module docs.
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
    /// Builds a cache bounded to `capacity` bytes of entries, whose
    /// `cache.*` counters live in `telemetry` and whose tamper detections
    /// feed its audit stream.
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
            inner: Mutex::new(Inner { generation: vec![0; WRITE_BUCKETS], ..Inner::default() }),
            metrics: CacheMetrics::new(telemetry),
            telemetry: telemetry.clone(),
        })
    }

    fn record_tag(&self, key: &[u8], stamp: u64, ts: Timestamp, value: &[u8]) -> Digest {
        self.platform.charge_hash(key.len() + value.len() + 16);
        // 0x01: domain of record entries.
        self.mac_key.mac(&[&[0x01], &stamp.to_le_bytes(), &ts.to_le_bytes(), key, value])
    }

    /// Looks up the verified answer for `key`: a [`Lookup::Hit`] when an
    /// entry stamped no earlier than the last write to its bucket is
    /// present and its tag checks out, else a [`Lookup::Miss`] carrying the
    /// stamp to memoize the disk path's answer under.
    ///
    /// # Errors
    ///
    /// Returns [`VerificationFailure::CacheTampered`] when the entry's
    /// integrity tag fails: the backing memory was scribbled over. The
    /// entry is discarded; callers fall back to the verified disk path.
    pub fn lookup_record(&self, key: &[u8]) -> Result<Lookup, VerificationFailure> {
        let bucket = bucket(key);
        let inner = self.inner.lock();
        let Some(entry) = inner.records.get(key).filter(|e| e.stamp >= inner.generation[bucket])
        else {
            self.metrics.record_misses.inc();
            return Ok(Lookup::Miss(Stamp(inner.writes)));
        };
        let RecordEntry { stamp, ts, tag, tick, .. } = *entry;
        let value = entry.value.clone();
        drop(inner);
        if !verify_tag(&self.record_tag(key, stamp, ts, &value), &tag) {
            let mut inner = self.inner.lock();
            if inner.records.get(key).is_some_and(|e| e.tick == tick) {
                inner.remove_record(key);
            }
            drop(inner);
            self.metrics.tamper_detected.inc();
            let failure = VerificationFailure::CacheTampered;
            self.telemetry.audit(
                AuditEvent::new(failure.kind(), "cache")
                    .detail(failure.to_string())
                    .at_ns(self.platform.clock().now_ns()),
            );
            return Err(failure);
        }
        self.inner.lock().touch(key, tick);
        self.metrics.record_hits.inc();
        Ok(Lookup::Hit(ts, value))
    }

    /// Memoizes a verified GET answer for `key`, captured after the miss
    /// that handed out `stamp`. A write to the key's bucket since then
    /// drops it: the answer may predate that write.
    pub fn insert_record(&self, key: &[u8], stamp: Stamp, ts: Timestamp, value: Bytes) {
        let bytes = key.len() + value.len() + ENTRY_OVERHEAD;
        if bytes > self.capacity {
            return;
        }
        let tag = self.record_tag(key, stamp.0, ts, &value);
        let bucket = bucket(key);
        let mut inner = self.inner.lock();
        if stamp.0 < inner.generation[bucket] {
            return;
        }
        inner.remove_record(key);
        inner.tick += 1;
        let tick = inner.tick;
        inner
            .records
            .insert(key.to_vec(), RecordEntry { stamp: stamp.0, ts, value, tag, tick, bytes });
        inner.lru.insert(tick, key.to_vec());
        inner.bytes += bytes;
        while inner.bytes > self.capacity {
            let Some((_, key)) = inner.lru.pop_first() else { break };
            // The LRU and the map change together, under this lock.
            if let Some(evicted) = inner.records.remove(&key) {
                inner.bytes -= evicted.bytes;
            }
            self.metrics.evictions.inc();
        }
    }

    /// A write to `key` committed: its bucket's generation takes the next
    /// write sequence, so no entry or insert stamped before it answers, and
    /// `key`'s entry is dropped. Runs after the write reached the memtable
    /// (the listener's WAL fold), so a stamp taken after it sees the write.
    pub fn invalidate_key(&self, key: &[u8]) {
        let bucket = bucket(key);
        let mut inner = self.inner.lock();
        inner.writes += 1;
        inner.generation[bucket] = inner.writes;
        if inner.remove_record(key) {
            self.metrics.invalidations.inc();
        }
    }

    /// Counter snapshot, reconstructed from the registry-backed
    /// `cache.*` counters (the pre-telemetry accessor shape).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            record_hits: self.metrics.record_hits.value(),
            record_misses: self.metrics.record_misses.value(),
            vlog_hits: 0,
            vlog_misses: 0,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> Arc<VerifiedCache> {
        VerifiedCache::with_telemetry(Platform::with_defaults(), capacity, &Telemetry::default())
    }

    /// The stamp a miss on `key` hands out.
    fn miss(c: &VerifiedCache, key: &[u8]) -> Stamp {
        match c.lookup_record(key).unwrap() {
            Lookup::Miss(stamp) => stamp,
            hit => panic!("expected a miss, got {hit:?}"),
        }
    }

    /// `Some((ts, value))` on a hit, `None` on a miss.
    fn hit(c: &VerifiedCache, key: &[u8]) -> Option<(Timestamp, Bytes)> {
        match c.lookup_record(key).unwrap() {
            Lookup::Hit(ts, value) => Some((ts, value)),
            Lookup::Miss(_) => None,
        }
    }

    /// Inserts `value` for `key` under a stamp taken just now.
    fn put(c: &VerifiedCache, key: &[u8], ts: Timestamp, value: &'static [u8]) {
        let stamp = miss(c, key);
        c.insert_record(key, stamp, ts, Bytes::from_static(value));
    }

    #[test]
    fn entries_answer_until_their_key_is_written() {
        let c = cache(4096);
        put(&c, b"a", 1, b"va");
        put(&c, b"b", 2, b"vb");
        assert_eq!(hit(&c, b"a"), Some((1, Bytes::from_static(b"va"))));
        assert_ne!(bucket(b"a"), bucket(b"b"));
        c.invalidate_key(b"a");
        assert_eq!(hit(&c, b"a"), None);
        assert!(hit(&c, b"b").is_some(), "a write to another bucket leaves b alone");
        let s = c.stats();
        assert_eq!((s.record_hits, s.record_misses, s.invalidations), (2, 3, 1));
    }

    /// The race a GET runs: its miss hands out the stamp, it captures and
    /// verifies a trace, then memoizes — and a write to the key can commit
    /// and invalidate in between. The memoized answer may predate that
    /// write, so it never answers; an answer stamped after the write does.
    #[test]
    fn an_answer_stamped_before_a_write_never_answers() {
        let c = cache(4096);
        let stamp = miss(&c, b"k");
        c.invalidate_key(b"k");
        c.insert_record(b"k", stamp, 1, Bytes::from_static(b"old"));
        assert_eq!(hit(&c, b"k"), None, "the old value must not be served");
        put(&c, b"k", 2, b"new");
        assert_eq!(hit(&c, b"k"), Some((2, Bytes::from_static(b"new"))));
    }

    /// The host records an entry — its tag is valid — and writes it back
    /// into the cache's memory after a write to its key invalidated it.
    /// Nothing was installed in between; the entry's stamp turns it away.
    #[test]
    fn an_entry_written_back_after_its_key_was_written_never_answers() {
        let c = cache(4096);
        put(&c, b"k", 1, b"old");
        let recorded = c.inner.lock().records.get(b"k".as_slice()).cloned().unwrap();
        c.invalidate_key(b"k");
        c.inner.lock().records.insert(b"k".to_vec(), recorded);
        assert_eq!(hit(&c, b"k"), None, "a replayed entry must not answer");
        assert_eq!(c.stats().tamper_detected, 0, "its tag is valid: a miss, not tampering");
    }

    #[test]
    fn tampered_entry_is_detected_not_served() {
        let c = cache(4096);
        put(&c, b"k", 9, b"honest");
        assert!(c.corrupt_record(b"k"));
        assert_eq!(c.lookup_record(b"k"), Err(VerificationFailure::CacheTampered));
        // Discarded: the next lookup is a clean miss.
        assert_eq!(hit(&c, b"k"), None);
        assert_eq!(c.stats().tamper_detected, 1);
    }

    /// The entry tag is compared through `verify_tag`; a tag one bit away
    /// from the right one — first bit, last bit — is a mismatch.
    #[test]
    fn one_bit_off_tags_are_rejected_at_every_site() {
        for bit in [0usize, 255] {
            let c = cache(4096);
            put(&c, b"k", 9, b"honest");
            {
                let mut inner = c.inner.lock();
                let entry = inner.records.get_mut(b"k".as_slice()).unwrap();
                let mut tag = entry.tag.into_bytes();
                tag[bit / 8] ^= 1 << (bit % 8);
                entry.tag = Digest::from_bytes(tag);
            }
            assert_eq!(
                c.lookup_record(b"k"),
                Err(VerificationFailure::CacheTampered),
                "record tag, bit {bit}"
            );
            assert_eq!(c.stats().tamper_detected, 1);
        }
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let c = cache(3 * (1 + 10 + ENTRY_OVERHEAD));
        let ten = Bytes::from(vec![0u8; 10]);
        for (i, key) in [b"a", b"b", b"c"].iter().enumerate() {
            c.insert_record(*key, miss(&c, *key), i as u64, ten.clone());
        }
        // Touch `a` so `b` is the coldest, then overflow.
        assert!(hit(&c, b"a").is_some());
        c.insert_record(b"d", miss(&c, b"d"), 9, ten);
        assert_eq!(hit(&c, b"b"), None, "coldest entry evicted");
        assert!(hit(&c, b"a").is_some());
        assert!(hit(&c, b"d").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.bytes() <= 3 * (1 + 10 + ENTRY_OVERHEAD));
    }

    #[test]
    fn oversized_values_are_never_cached() {
        let c = cache(128);
        c.insert_record(b"k", miss(&c, b"k"), 1, Bytes::from(vec![0u8; 4096]));
        assert_eq!(hit(&c, b"k"), None);
        assert_eq!(c.bytes(), 0);
    }
}
