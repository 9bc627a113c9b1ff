//! The Eleos baseline (§6.1): an in-enclave, update-in-place sorted array
//! with user-space virtual memory.
//!
//! Eleos (Orenbach et al., EuroSys'17) avoids *hardware* EPC paging by
//! monitoring memory references in user space and relocating data between
//! enclave and untrusted memory itself. The paper's baseline stores the
//! whole dataset as a sorted array in (Eleos-managed) enclave memory with
//! 30 % slack for insertions, persists through a write buffer, and scales
//! only to 1 GB.
//!
//! This module reproduces all four properties: a real gapped sorted array,
//! software paging (per-reference monitoring cost + explicit relocation
//! copies instead of hardware faults), write-buffer persistence via
//! OCalls, and a hard capacity limit.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use sgx_sim::Platform;
use sim_disk::{SimFile, SimFs};

/// Software page size of the user-space paging layer.
const PAGE_BYTES: usize = 4096;
/// Per-memory-reference monitoring overhead in nanoseconds (SUVM
/// instrumentations).
const MONITOR_NS: u64 = 150;
/// Percentage of slack slots left in the array (the paper uses 30 %).
const SLACK_PERCENT: usize = 30;

/// Configuration of the Eleos-style store.
#[derive(Debug, Clone)]
pub struct EleosOptions {
    /// Hard dataset limit (the open-source Eleos scales to 1 GB; the
    /// harness passes the scaled equivalent).
    pub capacity_limit_bytes: u64,
    /// Bytes of array data Eleos keeps materialized in enclave memory
    /// (its secure-page cache; analogous to the EPC share it manages).
    pub resident_bytes: usize,
    /// Write buffer persisted to disk when full.
    pub persist_buffer_bytes: usize,
}

impl Default for EleosOptions {
    fn default() -> Self {
        EleosOptions {
            capacity_limit_bytes: 1 << 30,
            resident_bytes: 96 * 1024,
            persist_buffer_bytes: 16 * 1024,
        }
    }
}

/// Error: the store refuses data beyond its scalability limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EleosCapacityExceeded {
    /// Bytes the store would need to hold.
    pub needed: u64,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for EleosCapacityExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eleos capacity exceeded: need {} bytes, limit {}", self.needed, self.limit)
    }
}

impl std::error::Error for EleosCapacityExceeded {}

/// Array slot: occupied or a gap.
type Slot = Option<(Vec<u8>, Vec<u8>)>;

struct EleosInner {
    slots: Vec<Slot>,
    live: usize,
    data_bytes: u64,
    /// Software page table: page index → resident (CLOCK-ish via tick).
    resident: HashMap<usize, u64>,
    tick: u64,
    persist_pending: usize,
}

/// The Eleos-style in-enclave key-value store.
///
/// # Examples
///
/// ```
/// use elsm_baselines::{EleosOptions, EleosStore};
/// use sgx_sim::Platform;
/// use sim_disk::{SimDisk, SimFs};
///
/// let platform = Platform::with_defaults();
/// let fs = SimFs::new(SimDisk::new(platform.clone()));
/// let store = EleosStore::new(platform, fs, EleosOptions::default());
/// store.put(b"k".to_vec(), b"v".to_vec()).unwrap();
/// assert_eq!(store.get(b"k").as_deref(), Some(b"v".as_slice()));
/// ```
pub struct EleosStore {
    platform: Arc<Platform>,
    options: EleosOptions,
    inner: Mutex<EleosInner>,
    log: Arc<SimFile>,
}

impl fmt::Debug for EleosStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EleosStore(live={})", self.inner.lock().live)
    }
}

impl EleosStore {
    /// Creates an empty store persisting into `fs`.
    pub fn new(platform: Arc<Platform>, fs: Arc<SimFs>, options: EleosOptions) -> Self {
        let log = fs
            .create("eleos.log")
            .unwrap_or_else(|_| fs.open("eleos.log").expect("eleos log exists if create failed"));
        EleosStore {
            platform,
            options,
            inner: Mutex::new(EleosInner {
                slots: Vec::new(),
                live: 0,
                data_bytes: 0,
                resident: HashMap::new(),
                tick: 0,
                persist_pending: 0,
            }),
            log,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.inner.lock().live
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Charges one array-slot access through the software paging layer.
    fn touch_slot(&self, inner: &mut EleosInner, idx: usize, entry_bytes: usize) {
        // Every reference pays the monitoring overhead.
        self.platform.advance(MONITOR_NS);
        let page = idx * entry_bytes.max(1) / PAGE_BYTES;
        inner.tick += 1;
        let tick = inner.tick;
        let max_pages = (self.options.resident_bytes / PAGE_BYTES).max(1);
        if let std::collections::hash_map::Entry::Occupied(mut e) = inner.resident.entry(page) {
            e.insert(tick);
            self.platform.dram_access(64);
            return;
        }
        // Software page-in: relocate a page from untrusted to enclave
        // memory (an explicit copy — cheaper than a hardware fault, but
        // real work).
        if inner.resident.len() >= max_pages {
            // Evict the oldest page (write it back to untrusted memory).
            if let Some((&victim, _)) = inner.resident.iter().min_by_key(|(_, &t)| t) {
                inner.resident.remove(&victim);
                self.platform.cross_copy(PAGE_BYTES);
            }
        }
        inner.resident.insert(page, tick);
        self.platform.cross_copy(PAGE_BYTES);
    }

    fn avg_entry_bytes(inner: &EleosInner) -> usize {
        (inner.data_bytes as usize).checked_div(inner.live).map_or(64, |avg| avg.max(16))
    }

    /// Inserts or updates a record in place.
    ///
    /// # Errors
    ///
    /// Returns [`EleosCapacityExceeded`] past the scalability limit.
    pub fn put(&self, key: Vec<u8>, value: Vec<u8>) -> Result<(), EleosCapacityExceeded> {
        let mut inner = self.inner.lock();
        let added = (key.len() + value.len() + 16) as u64;
        if inner.data_bytes + added > self.options.capacity_limit_bytes {
            return Err(EleosCapacityExceeded {
                needed: inner.data_bytes + added,
                limit: self.options.capacity_limit_bytes,
            });
        }
        let entry_bytes = Self::avg_entry_bytes(&inner);
        // Binary search over slots (gaps probe to the next occupied slot).
        let pos = self.search(&mut inner, &key, entry_bytes);
        match pos {
            Ok(idx) => {
                // In-place update.
                self.touch_slot(&mut inner, idx, entry_bytes);
                let old_len = inner.slots[idx].as_ref().expect("occupied").1.len() as u64;
                inner.data_bytes = inner.data_bytes + value.len() as u64 - old_len;
                inner.slots[idx].as_mut().expect("occupied").1 = value;
            }
            Err(idx) => {
                // Shift right until a gap absorbs the insertion.
                let mut shift_end = idx;
                while shift_end < inner.slots.len() && inner.slots[shift_end].is_some() {
                    shift_end += 1;
                }
                if shift_end == inner.slots.len() {
                    inner.slots.push(None);
                }
                // Move [idx, shift_end) one slot right; charge each touch.
                let mut j = shift_end;
                while j > idx {
                    self.touch_slot(&mut inner, j, entry_bytes);
                    inner.slots.swap(j, j - 1);
                    j -= 1;
                }
                self.touch_slot(&mut inner, idx, entry_bytes);
                inner.slots[idx] = Some((key.clone(), value));
                inner.live += 1;
                inner.data_bytes += added;
                // Maintain slack: periodically re-gap the array.
                let gap_every = 100 / SLACK_PERCENT;
                if inner.live % 64 == 0 {
                    self.regap(&mut inner, gap_every, entry_bytes);
                }
            }
        }
        // Persistence write buffer.
        inner.persist_pending += added as usize;
        if inner.persist_pending >= self.options.persist_buffer_bytes {
            let flush = inner.persist_pending;
            inner.persist_pending = 0;
            drop(inner);
            // OCall out and append sequentially to the log.
            self.platform.ocall(|| self.log.append(&vec![0u8; flush]));
        }
        Ok(())
    }

    /// Inserts a whole batch (same surface as the LSM stores' batch APIs).
    ///
    /// Eleos updates in place, so there is no WAL frame or commit group to
    /// amortize: each record pays its own array insertion and software
    /// paging, and the shared persistence write buffer batches the disk
    /// exits exactly as it does for singleton puts. Keeping the method
    /// honest this way is the comparison fig10 draws.
    ///
    /// # Errors
    ///
    /// Returns [`EleosCapacityExceeded`] past the scalability limit; prior
    /// records of the batch stay applied (no atomicity — the paper's
    /// baseline has none).
    pub fn put_batch(&self, items: &[(&[u8], &[u8])]) -> Result<(), EleosCapacityExceeded> {
        for (key, value) in items {
            self.put(key.to_vec(), value.to_vec())?;
        }
        Ok(())
    }

    /// Re-inserts gaps every `gap_every` slots (amortized maintenance).
    fn regap(&self, inner: &mut EleosInner, gap_every: usize, entry_bytes: usize) {
        let mut slots = Vec::with_capacity(inner.slots.len() + inner.live / gap_every.max(1));
        for (i, slot) in inner.slots.drain(..).enumerate() {
            if let Some(s) = slot {
                if i % gap_every.max(2) == 0 {
                    slots.push(None);
                }
                slots.push(Some(s));
            }
        }
        // The rewrite touches everything once (sequential, enclave-side).
        self.platform.advance(MONITOR_NS * slots.len() as u64 / 8);
        let _ = entry_bytes;
        inner.slots = slots;
    }

    /// Binary search over the gapped array; `Ok(idx)` when found,
    /// `Err(idx)` with the insertion slot otherwise.
    fn search(
        &self,
        inner: &mut EleosInner,
        key: &[u8],
        entry_bytes: usize,
    ) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, inner.slots.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            // Probe outward from mid to the nearest occupied slot.
            let mut probe = mid;
            let mut found = None;
            while probe < hi {
                self.touch_slot(inner, probe, entry_bytes);
                if inner.slots[probe].is_some() {
                    found = Some(probe);
                    break;
                }
                probe += 1;
            }
            let Some(occ) = found else {
                hi = mid;
                continue;
            };
            let cmp = inner.slots[occ].as_ref().expect("occupied").0.as_slice().cmp(key);
            match cmp {
                std::cmp::Ordering::Equal => return Ok(occ),
                std::cmp::Ordering::Less => lo = occ + 1,
                std::cmp::Ordering::Greater => hi = mid.min(occ),
            }
        }
        Err(lo)
    }

    /// Looks up a key (binary search with software paging charges).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        let entry_bytes = Self::avg_entry_bytes(&inner);
        match self.search(&mut inner, key, entry_bytes) {
            Ok(idx) => inner.slots[idx].as_ref().map(|(_, v)| v.clone()),
            Err(_) => None,
        }
    }

    /// All records with keys in `[from, to]`.
    pub fn range(&self, from: &[u8], to: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut inner = self.inner.lock();
        let entry_bytes = Self::avg_entry_bytes(&inner);
        let start = match self.search(&mut inner, from, entry_bytes) {
            Ok(i) | Err(i) => i,
        };
        let mut out = Vec::new();
        for i in start..inner.slots.len() {
            self.touch_slot(&mut inner, i, entry_bytes);
            if let Some((k, v)) = inner.slots[i].clone() {
                if k.as_slice() > to {
                    break;
                }
                if k.as_slice() >= from {
                    out.push((k, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_disk::SimDisk;

    fn store(limit: u64) -> EleosStore {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        EleosStore::new(
            platform,
            fs,
            EleosOptions { capacity_limit_bytes: limit, ..EleosOptions::default() },
        )
    }

    #[test]
    fn put_get_round_trip() {
        let s = store(1 << 30);
        for i in (0..500).rev() {
            s.put(format!("key{i:05}").into_bytes(), format!("v{i}").into_bytes()).unwrap();
        }
        assert_eq!(s.len(), 500);
        for i in 0..500 {
            assert_eq!(
                s.get(format!("key{i:05}").as_bytes()),
                Some(format!("v{i}").into_bytes()),
                "key{i:05}"
            );
        }
        assert!(s.get(b"absent").is_none());
    }

    #[test]
    fn updates_are_in_place() {
        let s = store(1 << 30);
        s.put(b"k".to_vec(), b"v1".to_vec()).unwrap();
        s.put(b"k".to_vec(), b"v2".to_vec()).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn capacity_limit_enforced() {
        let s = store(2_000);
        let mut hit_limit = false;
        for i in 0..100 {
            if s.put(format!("key{i}").into_bytes(), vec![0u8; 100]).is_err() {
                hit_limit = true;
                break;
            }
        }
        assert!(hit_limit, "1 GB-style cap must reject further inserts");
    }

    #[test]
    fn range_returns_sorted_inclusive() {
        let s = store(1 << 30);
        for k in ["b", "d", "a", "c", "e"] {
            s.put(k.into(), format!("v{k}").into_bytes()).unwrap();
        }
        let got = s.range(b"b", b"d");
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"b".as_slice(), b"c".as_slice(), b"d".as_slice()]);
    }

    #[test]
    fn large_working_set_costs_more_than_small() {
        // With a resident budget of 16 pages, a 100-record store fits but a
        // 5000-record store thrashes the software pager.
        let mk = |n: usize| {
            let platform = Platform::with_defaults();
            let fs = SimFs::new(SimDisk::new(platform.clone()));
            let s = EleosStore::new(
                platform.clone(),
                fs,
                EleosOptions { resident_bytes: 16 * 4096, ..EleosOptions::default() },
            );
            for i in 0..n {
                s.put(format!("key{i:06}").into_bytes(), vec![0u8; 64]).unwrap();
            }
            let t0 = platform.clock().now_ns();
            let mut x = 1469598103934665603u64;
            for _ in 0..200 {
                x = x.wrapping_mul(1099511628211).wrapping_add(7);
                let k = format!("key{:06}", x as usize % n);
                s.get(k.as_bytes());
            }
            platform.clock().now_ns() - t0
        };
        let small = mk(100);
        let large = mk(5000);
        assert!(
            large > small * 2,
            "software paging must slow large working sets: {small} vs {large}"
        );
    }

    #[test]
    fn persistence_writes_to_log() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let s = EleosStore::new(
            platform.clone(),
            fs.clone(),
            EleosOptions { persist_buffer_bytes: 512, ..EleosOptions::default() },
        );
        for i in 0..100 {
            s.put(format!("key{i}").into_bytes(), vec![0u8; 32]).unwrap();
        }
        let log = fs.open("eleos.log").unwrap();
        assert!(!log.is_empty(), "write buffer must flush to disk");
        assert!(platform.stats().ocalls > 0, "persistence exits the enclave");
    }
}
