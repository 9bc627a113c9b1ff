//! Enclave Page Cache (EPC) residency tracking.
//!
//! SGX backs enclave virtual memory with a small protected physical region
//! (128 MB on the paper's CPU). Touching a non-resident page triggers an
//! asynchronous enclave exit and an expensive encrypted page swap
//! (EWB/ELDU). This module models residency with a CLOCK (second-chance)
//! replacement policy and reports, per touch, whether a page-in and/or a
//! page-out occurred so the platform can charge the corresponding costs.

use std::collections::HashMap;

/// Identifies one 4 KiB page of one enclave allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// The enclave region (allocation) this page belongs to.
    pub region: u64,
    /// Page index within the region.
    pub page: u64,
}

/// Result of touching a page: which paging events it caused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TouchOutcome {
    /// The page had to be faulted in.
    pub page_in: bool,
    /// A victim page had to be evicted to make room.
    pub page_out: bool,
}

#[derive(Debug, Clone)]
struct Slot {
    page: PageId,
    referenced: bool,
}

/// CLOCK-replacement residency set with a fixed page capacity.
#[derive(Debug)]
pub struct EpcState {
    capacity: usize,
    slots: Vec<Slot>,
    index: HashMap<PageId, usize>,
    hand: usize,
}

impl EpcState {
    /// Creates an EPC with room for `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — an enclave cannot run without any
    /// protected memory.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "EPC capacity must be at least one page");
        EpcState { capacity, slots: Vec::new(), index: HashMap::new(), hand: 0 }
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Returns whether `page` is resident without touching it.
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains_key(&page)
    }

    /// Touches `page`, faulting it in (and evicting a victim) if necessary.
    pub fn touch(&mut self, page: PageId) -> TouchOutcome {
        if let Some(&slot) = self.index.get(&page) {
            self.slots[slot].referenced = true;
            return TouchOutcome::default();
        }
        let mut outcome = TouchOutcome { page_in: true, page_out: false };
        if self.slots.len() < self.capacity {
            self.index.insert(page, self.slots.len());
            self.slots.push(Slot { page, referenced: true });
            return outcome;
        }
        // CLOCK: advance the hand, clearing reference bits, until an
        // unreferenced victim is found.
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.referenced {
                slot.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                let victim = slot.page;
                self.index.remove(&victim);
                slot.page = page;
                slot.referenced = true;
                self.index.insert(page, self.hand);
                self.hand = (self.hand + 1) % self.capacity;
                outcome.page_out = true;
                return outcome;
            }
        }
    }

    /// Drops all pages belonging to `region` (allocation freed).
    pub fn evict_region(&mut self, region: u64) {
        // Compact the slot vector, rebuilding the index.
        let mut kept = Vec::with_capacity(self.slots.len());
        for slot in self.slots.drain(..) {
            if slot.page.region != region {
                kept.push(slot);
            }
        }
        self.slots = kept;
        self.index.clear();
        for (i, slot) in self.slots.iter().enumerate() {
            self.index.insert(slot.page, i);
        }
        if self.hand >= self.slots.len().max(1) {
            self.hand = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(region: u64, page: u64) -> PageId {
        PageId { region, page }
    }

    #[test]
    fn cold_touch_faults_in() {
        let mut e = EpcState::new(4);
        assert_eq!(e.touch(p(1, 0)), TouchOutcome { page_in: true, page_out: false });
        assert_eq!(e.resident(), 1);
    }

    #[test]
    fn warm_touch_is_free() {
        let mut e = EpcState::new(4);
        e.touch(p(1, 0));
        assert_eq!(e.touch(p(1, 0)), TouchOutcome::default());
    }

    #[test]
    fn eviction_when_full() {
        let mut e = EpcState::new(2);
        e.touch(p(1, 0));
        e.touch(p(1, 1));
        let out = e.touch(p(1, 2));
        assert!(out.page_in && out.page_out);
        assert_eq!(e.resident(), 2);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut e = EpcState::new(2);
        e.touch(p(1, 0));
        e.touch(p(1, 1));
        // Re-reference page 0 so page 1 becomes the better victim.
        e.touch(p(1, 0));
        e.touch(p(1, 2));
        // After one full sweep clearing bits, one of the originals is gone;
        // page 0 was referenced more recently so it should survive the
        // first eviction round.
        assert!(e.contains(p(1, 2)));
        assert_eq!(e.resident(), 2);
    }

    #[test]
    fn working_set_below_capacity_never_pages_after_warmup() {
        let mut e = EpcState::new(8);
        for i in 0..8 {
            e.touch(p(1, i));
        }
        for _ in 0..100 {
            for i in 0..8 {
                assert_eq!(e.touch(p(1, i)), TouchOutcome::default());
            }
        }
    }

    #[test]
    fn working_set_above_capacity_thrashes() {
        let mut e = EpcState::new(4);
        let mut faults = 0;
        for round in 0..10 {
            for i in 0..8 {
                if e.touch(p(1, i)).page_in {
                    faults += 1;
                }
            }
            let _ = round;
        }
        // Sequential sweep over 2× capacity with CLOCK faults on every
        // access after warm-up.
        assert!(faults >= 70, "expected heavy thrashing, got {faults} faults");
    }

    #[test]
    fn evict_region_removes_only_that_region() {
        let mut e = EpcState::new(8);
        e.touch(p(1, 0));
        e.touch(p(2, 0));
        e.touch(p(2, 1));
        e.evict_region(2);
        assert!(e.contains(p(1, 0)));
        assert!(!e.contains(p(2, 0)));
        assert_eq!(e.resident(), 1);
        // Freed pages fault again on next touch.
        assert!(e.touch(p(2, 0)).page_in);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_rejected() {
        EpcState::new(0);
    }
}
