//! The read buffer (block cache) with configurable placement.
//!
//! This is the data structure whose *placement* is the paper's central
//! design decision (Table 1, Figure 2): eLSM-P1 keeps it inside the enclave
//! (suffering an extra boundary copy on fill and EPC paging once it grows
//! past 128 MB), while eLSM-P2 keeps it in untrusted memory (plain DRAM
//! costs, verified by Merkle proofs instead of hardware).
//!
//! The cache stores real block bytes with LRU eviction; every access routes
//! its cost through [`sgx_sim::Platform`] according to the placement.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use sgx_sim::{EnclaveRegion, Platform};

/// Where the cache memory lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Untrusted host DRAM (eLSM-P2): cheap access, needs software
    /// authentication.
    Untrusted,
    /// Enclave memory (eLSM-P1): hardware-protected, pays cross-boundary
    /// copies on fill and EPC paging beyond the protected-memory size.
    Enclave,
}

#[derive(Debug)]
struct Entry {
    data: Bytes,
    slot: usize,
    lru_tick: u64,
}

#[derive(Debug)]
struct CacheState<K> {
    map: HashMap<K, Entry>,
    lru: BTreeMap<u64, K>,
    tick: u64,
    free_slots: Vec<usize>,
    hits: u64,
    misses: u64,
}

/// An LRU block cache with placement-aware cost charging.
///
/// `K` identifies a cached unit (typically `(file_id, block_offset)`).
/// Entries must not exceed `slot_size` bytes.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use sgx_sim::Platform;
/// use sim_disk::{BufferCache, Placement};
///
/// let p = Platform::with_defaults();
/// let cache: BufferCache<u64> = BufferCache::new(p, Placement::Untrusted, 4096, 16 * 4096);
/// cache.insert(7, Bytes::from_static(b"block"));
/// assert_eq!(cache.get(&7).unwrap(), Bytes::from_static(b"block"));
/// assert!(cache.get(&8).is_none());
/// ```
#[derive(Debug)]
pub struct BufferCache<K> {
    platform: Arc<Platform>,
    placement: Placement,
    slot_size: usize,
    capacity_slots: usize,
    region: Option<EnclaveRegion>,
    state: Mutex<CacheState<K>>,
}

impl<K: Hash + Eq + Clone> BufferCache<K> {
    /// Creates a cache of `capacity_bytes`, divided into `slot_size` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slot_size` is zero or larger than `capacity_bytes`.
    pub fn new(
        platform: Arc<Platform>,
        placement: Placement,
        slot_size: usize,
        capacity_bytes: usize,
    ) -> Self {
        assert!(slot_size > 0, "slot size must be positive");
        assert!(capacity_bytes >= slot_size, "capacity must hold at least one slot");
        let capacity_slots = capacity_bytes / slot_size;
        let region = match placement {
            // Enclave region: slot storage plus a bookkeeping tail (hash
            // map + LRU list nodes), which real caches scatter across the
            // heap — under EPC pressure those metadata pages fault too.
            Placement::Enclave => {
                let bookkeeping = (capacity_slots * slot_size / 16).max(4 * 4096);
                Some(platform.enclave_alloc(capacity_slots * slot_size + bookkeeping))
            }
            Placement::Untrusted => None,
        };
        BufferCache {
            platform,
            placement,
            slot_size,
            capacity_slots,
            region,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                tick: 0,
                free_slots: (0..capacity_slots).rev().collect(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// (hits, misses) counters over the cache's lifetime.
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = self.state.lock();
        (s.hits, s.misses)
    }

    /// Looks up `key`, charging the placement-appropriate access cost on a
    /// hit. A miss charges nothing (the caller then pays for the real read
    /// and calls [`BufferCache::insert`]).
    pub fn get(&self, key: &K) -> Option<Bytes> {
        let mut state = self.state.lock();
        state.tick += 1;
        let tick = state.tick;
        let Some(entry) = state.map.get_mut(key) else {
            state.misses += 1;
            return None;
        };
        let old_tick = entry.lru_tick;
        entry.lru_tick = tick;
        let data = entry.data.clone();
        let slot = entry.slot;
        state.lru.remove(&old_tick);
        state.lru.insert(tick, key.clone());
        state.hits += 1;
        drop(state);
        self.charge_access(slot, data.len());
        Some(data)
    }

    /// Inserts (or replaces) `key`, evicting LRU entries if the cache is
    /// full. Charges the placement-appropriate fill cost.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds the slot size.
    pub fn insert(&self, key: K, data: Bytes) {
        assert!(
            data.len() <= self.slot_size,
            "entry of {} bytes exceeds slot size {}",
            data.len(),
            self.slot_size
        );
        let len = data.len();
        let mut state = self.state.lock();
        state.tick += 1;
        let tick = state.tick;
        if let Some(old) = state.map.remove(&key) {
            state.lru.remove(&old.lru_tick);
            state.free_slots.push(old.slot);
        }
        let slot = loop {
            if let Some(slot) = state.free_slots.pop() {
                break slot;
            }
            // Evict the least recently used entry.
            let (&victim_tick, victim_key) =
                state.lru.iter().next().map(|(t, k)| (t, k.clone())).expect("full cache has LRU");
            state.lru.remove(&victim_tick);
            let victim = state.map.remove(&victim_key).expect("LRU entry present in map");
            state.free_slots.push(victim.slot);
        };
        state.map.insert(key.clone(), Entry { data, slot, lru_tick: tick });
        state.lru.insert(tick, key);
        drop(state);
        self.charge_fill(slot, len);
    }

    fn charge_access(&self, slot: usize, len: usize) {
        match self.placement {
            Placement::Untrusted => self.platform.dram_access(len),
            Placement::Enclave => {
                let region = self.region.as_ref().expect("enclave cache has region");
                self.platform.enclave_touch(region, slot * self.slot_size, len);
                self.touch_bookkeeping(slot);
            }
        }
    }

    /// Touches the cache's own metadata (hash-map bucket + LRU node) for
    /// `slot`; these live in the bookkeeping tail of the enclave region.
    fn touch_bookkeeping(&self, slot: usize) {
        let region = self.region.as_ref().expect("enclave cache has region");
        let data_bytes = self.capacity_slots * self.slot_size;
        let tail = region.len() - data_bytes;
        if tail == 0 {
            return;
        }
        let h = (slot as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for i in 0..2u64 {
            let off = data_bytes
                + ((h.rotate_left(17 * i as u32)) as usize % tail.max(64)).min(tail - 32);
            self.platform.enclave_touch(region, off, 32);
        }
    }

    fn charge_fill(&self, slot: usize, len: usize) {
        match self.placement {
            Placement::Untrusted => self.platform.dram_access(len),
            Placement::Enclave => {
                // Data produced outside (disk read) is copied across the
                // boundary into enclave memory — the extra copy (S1) of
                // §4.2 — and the destination pages must be EPC-resident.
                self.platform.cross_copy(len);
                let region = self.region.as_ref().expect("enclave cache has region");
                self.platform.enclave_touch(region, slot * self.slot_size, len);
                self.touch_bookkeeping(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::{CostModel, PAGE_SIZE};

    fn platform_with_epc(pages: usize) -> Arc<Platform> {
        Platform::new(CostModel::paper_defaults().with_epc_bytes(pages * PAGE_SIZE))
    }

    fn bytes(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn insert_get_round_trip() {
        let cache: BufferCache<u32> =
            BufferCache::new(Platform::with_defaults(), Placement::Untrusted, 4096, 8 * 4096);
        cache.insert(1, bytes(100, 0xaa));
        assert_eq!(cache.get(&1).unwrap(), bytes(100, 0xaa));
    }

    #[test]
    fn miss_returns_none_and_counts() {
        let cache: BufferCache<u32> =
            BufferCache::new(Platform::with_defaults(), Placement::Untrusted, 4096, 8 * 4096);
        assert!(cache.get(&9).is_none());
        assert_eq!(cache.hit_stats(), (0, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache: BufferCache<u32> =
            BufferCache::new(Platform::with_defaults(), Placement::Untrusted, 4096, 2 * 4096);
        cache.insert(1, bytes(10, 1));
        cache.insert(2, bytes(10, 2));
        cache.get(&1); // 2 becomes LRU
        cache.insert(3, bytes(10, 3));
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&3).is_some());
    }

    #[test]
    fn replace_same_key_keeps_capacity() {
        let cache: BufferCache<u32> =
            BufferCache::new(Platform::with_defaults(), Placement::Untrusted, 4096, 2 * 4096);
        cache.insert(1, bytes(10, 1));
        cache.insert(1, bytes(20, 2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&1).unwrap(), bytes(20, 2));
    }

    #[test]
    #[should_panic(expected = "exceeds slot size")]
    fn oversized_entry_panics() {
        let cache: BufferCache<u32> =
            BufferCache::new(Platform::with_defaults(), Placement::Untrusted, 64, 128);
        cache.insert(1, bytes(65, 0));
    }

    #[test]
    fn enclave_placement_charges_cross_copy() {
        let p = platform_with_epc(64);
        let cache: BufferCache<u32> =
            BufferCache::new(p.clone(), Placement::Enclave, 4096, 8 * 4096);
        cache.insert(1, bytes(4096, 0));
        assert_eq!(p.stats().cross_copy_bytes, 4096);
        assert!(p.stats().epc_page_ins >= 1);
    }

    #[test]
    fn untrusted_placement_never_touches_epc() {
        let p = platform_with_epc(64);
        let cache: BufferCache<u32> =
            BufferCache::new(p.clone(), Placement::Untrusted, 4096, 8 * 4096);
        for i in 0..100u32 {
            cache.insert(i, bytes(4096, i as u8));
            cache.get(&i);
        }
        assert_eq!(p.stats().epc_page_ins, 0);
        assert_eq!(p.stats().cross_copy_bytes, 0);
    }

    #[test]
    fn enclave_cache_larger_than_epc_thrashes() {
        // EPC of 8 pages, cache of 64 pages: random hits must fault.
        let p = platform_with_epc(8);
        let cache: BufferCache<u32> =
            BufferCache::new(p.clone(), Placement::Enclave, PAGE_SIZE, 64 * PAGE_SIZE);
        for i in 0..64u32 {
            cache.insert(i, bytes(PAGE_SIZE, i as u8));
        }
        let ins_before = p.stats().epc_page_ins;
        for round in 0..4 {
            for i in 0..64u32 {
                cache.get(&i);
            }
            let _ = round;
        }
        let faults = p.stats().epc_page_ins - ins_before;
        assert!(faults > 200, "expected thrashing on hits, got {faults}");
    }

    #[test]
    fn enclave_cache_within_epc_is_quiet_after_warmup() {
        let p = platform_with_epc(128);
        let cache: BufferCache<u32> =
            BufferCache::new(p.clone(), Placement::Enclave, PAGE_SIZE, 16 * PAGE_SIZE);
        for i in 0..16u32 {
            cache.insert(i, bytes(PAGE_SIZE, 0));
        }
        let ins_before = p.stats().epc_page_ins;
        for i in 0..16u32 {
            cache.get(&i);
        }
        assert_eq!(p.stats().epc_page_ins, ins_before, "hits within EPC must not fault");
    }

    #[test]
    fn hit_ratio_tracks_accesses() {
        let cache: BufferCache<u32> =
            BufferCache::new(Platform::with_defaults(), Placement::Untrusted, 4096, 4 * 4096);
        cache.insert(1, bytes(1, 0));
        cache.get(&1);
        cache.get(&2);
        cache.get(&1);
        assert_eq!(cache.hit_stats(), (2, 1));
    }
}
