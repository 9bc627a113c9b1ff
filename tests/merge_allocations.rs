//! The merge pipeline allocates per block, never per record.
//!
//! Flush, compaction and value-log GC stream borrowed records from the
//! merge to the output file: table cursors rebuild keys in one buffer and
//! slice values out of the block, the heap orders inputs in place, the
//! survivors are views, `AuthListener` digests them from one canonical
//! buffer and writes `envelope ‖ proof` straight into the table block, and
//! the table builder reuses its block, index-key and output buffers. What
//! is left to allocate is per block read or written (the block's bytes,
//! its index entry, its cache slot) plus the logarithmic growth of a few
//! arenas — at the commit before this pipeline it was about fourteen
//! allocations per merged record.
//!
//! This file owns its process's allocator to count them (the wrapper is
//! the one in `crates/merkle/tests/decode_reservation.rs`, counting
//! requests instead of tracking the largest).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::sgx_sim::Platform;

struct Counting;

thread_local! {
    /// Allocation requests made on this thread since the probe was armed
    /// (`None`: not armed).
    static REQUESTS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = REQUESTS.try_with(|requests| {
        if let Some(seen) = requests.get() {
            requests.set(Some(seen + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocation requests it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    REQUESTS.with(|requests| requests.set(Some(0)));
    let result = f();
    let seen = REQUESTS.with(|requests| requests.take()).expect("armed above");
    (result, seen)
}

/// Builds two one-table levels of `per_table` records each and compacts
/// them into one, through `AuthListener`: every input record re-digested,
/// every output record re-proved. Returns the merge's allocation count and
/// the number of data blocks it read and wrote.
fn merge_two_tables(per_table: u32) -> (u64, u64) {
    const BLOCK: u64 = 4096;
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            // Explicit flushes and compactions only; one table a level.
            write_buffer_bytes: 64 << 20,
            level1_max_bytes: 1 << 30,
            target_file_bytes: 1 << 30,
            max_levels: 3,
            block_size: BLOCK as usize,
            ..P2Options::default()
        },
    )
    .unwrap();
    let db = store.db();
    let load = |parity: u32| {
        for i in 0..per_table {
            let key = format!("user{:08}", 2 * i + parity);
            store.put(key.as_bytes(), &[parity as u8 ^ i as u8; 64]).unwrap();
        }
        db.flush().unwrap();
    };
    load(0);
    db.compact(1).unwrap();
    load(1);
    let before = db.level_bytes();
    assert!(before[1] > 0 && before[2] > 0, "two populated levels: {before:?}");
    let (result, requests) = allocations(|| db.compact(1));
    result.unwrap();
    let after = db.level_bytes();
    assert_eq!(db.level_records()[2], 2 * u64::from(per_table), "nothing lost");
    assert!(!store.trusted().is_poisoned());
    assert!(store.get(b"user00000003").unwrap().is_some());
    (requests, (before[1] + before[2] + after[2]) / BLOCK)
}

#[test]
fn merge_allocations_do_not_grow_with_records() {
    /// Allocations a block read or written may cost (its bytes, its index
    /// entry at the output table's open, its cache slot) ...
    const PER_BLOCK: u64 = 2;
    /// ... on top of what a merge costs whatever its size: the job's
    /// boxes and tables, and the doubling of a few arenas.
    const PER_MERGE: u64 = 256;
    let (small, small_blocks) = merge_two_tables(4_000);
    let (large, large_blocks) = merge_two_tables(8_000);
    let report = format!(
        "8 000 records: {small} allocations / {small_blocks} blocks; \
         16 000 records: {large} allocations / {large_blocks} blocks"
    );
    assert!(small <= PER_BLOCK * small_blocks + PER_MERGE, "{report}");
    assert!(large <= PER_BLOCK * large_blocks + PER_MERGE, "{report}");
    // The slope: 8 000 more records cost what their blocks cost — a
    // per-record term of even one allocation would double that.
    assert!(large - small <= PER_BLOCK * (large_blocks - small_blocks), "{report}");
    assert!(large - small < 8_000 / 2, "{report}");
}
