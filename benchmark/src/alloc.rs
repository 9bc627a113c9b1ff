//! Counting global allocator: heap allocations are real-code cost that
//! repeats exactly from repetition to repetition, so they can be gated
//! far tighter than any wall-clock number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts calls, bytes and the
/// peak of live bytes.
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

fn note_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator with this `layout`,
        // i.e. from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        note_alloc(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` passes
        // through under the caller's obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) since process start.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested since process start.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Highest number of simultaneously live heap bytes so far.
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE.load(Ordering::Relaxed)
}
