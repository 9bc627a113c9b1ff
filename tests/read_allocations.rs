//! A verified read allocates per query, never per record or per block.
//!
//! A table read is a view of the file chunk that holds it, block cursors
//! rebuild keys in reused buffers, seeks compare `(user_key, suffix)` in
//! place, a neighbour search materialises only the record it returns, a
//! level's range records are gathered in reused buffers and handed out
//! with their keys in one exactly sized arena, and the verifier hashes
//! records where they lie and keeps one leaf buffer and one answer vector
//! per query. What is left is a constant per query — the trace, its level
//! vectors, the neighbours, the reply. Once, a 20-record scan cost about
//! fifty allocations more than a 1-record scan (a key copy per returned
//! record, a block copy per block read, verifier vectors grown a push at a
//! time).
//!
//! This file owns its process's allocator to count them (the wrapper of
//! `tests/merge_allocations.rs`).

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

/// Records per level: even keys on level 2, odd keys on level 1.
const PER_LEVEL: u32 = 2_000;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

/// A store whose two levels interleave: every read visits both, and
/// every miss or scan boundary has a neighbour on each side in each.
fn two_level_store() -> ElsmP2 {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            // Explicit flushes and compactions only.
            write_buffer_bytes: 64 << 20,
            level1_max_bytes: 1 << 30,
            target_file_bytes: 64 << 10,
            max_levels: 3,
            ..P2Options::default()
        },
    )
    .unwrap();
    let db = store.db();
    let load = |parity: u32| {
        for i in 0..PER_LEVEL {
            store.put(&key(2 * i + parity), &[i as u8; 100]).unwrap();
        }
        db.flush().unwrap();
    };
    load(0);
    db.compact(1).unwrap();
    load(1);
    let records = db.level_records();
    assert_eq!((records[1], records[2]), (u64::from(PER_LEVEL), u64::from(PER_LEVEL)));
    store
}

/// Keys `0..PER_LEVEL` on level 1 alone, or (`disjoint`) on level 2 with
/// keys `PER_LEVEL..2 * PER_LEVEL` on level 1 — the layout an ordered load
/// leaves.
fn ordered_store(disjoint: bool) -> ElsmP2 {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            write_buffer_bytes: 64 << 20,
            level1_max_bytes: 1 << 30,
            target_file_bytes: 64 << 10,
            max_levels: 3,
            ..P2Options::default()
        },
    )
    .unwrap();
    let db = store.db();
    let load = |keys: std::ops::Range<u32>| {
        for i in keys {
            store.put(&key(i), &[i as u8; 100]).unwrap();
        }
        db.flush().unwrap();
    };
    load(0..PER_LEVEL);
    if disjoint {
        db.compact(1).unwrap();
        load(PER_LEVEL..2 * PER_LEVEL);
    }
    store
}

/// The most allocations a read made over a spread of start keys `i`
/// (after one unmeasured read, so no lazy set-up is counted); `read`
/// counts the store call and not the building of its arguments.
fn most(read: impl Fn(u32) -> u64) -> u64 {
    read(3);
    (0..8).map(|n| read(101 + 397 * n)).max().expect("eight reads")
}

#[test]
fn verified_reads_allocate_per_query_not_per_record() {
    /// What a verified read may cost whatever it returns: the trace and
    /// its level vectors, the neighbours, the verifier's buffers and, for
    /// a scan, each level's key arena and record vector.
    const PER_GET: u64 = 6;
    const PER_SCAN: u64 = 12;
    let store = two_level_store();
    let get_hit = most(|i| {
        // Even: proved absent from level 1 by two neighbours, found on 2.
        let key = key(2 * (i / 2));
        let (found, count) = allocations(|| store.get(&key).unwrap());
        assert!(found.is_some());
        count
    });
    let get_miss = most(|i| {
        let mut between = key(i);
        between.push(b'~');
        let (found, count) = allocations(|| store.get(&between).unwrap());
        assert!(found.is_none());
        count
    });
    let scan = |len: u32| {
        most(|i| {
            let (from, to) = (key(i), key(i + len - 1));
            let (records, count) = allocations(|| store.scan(&from, &to).unwrap());
            assert_eq!(records.len(), len as usize);
            count
        })
    };
    let (scan_1, scan_10, scan_20) = (scan(1), scan(10), scan(20));
    let report = format!(
        "allocations: GET hit {get_hit}, GET miss {get_miss}, \
         SCAN of 1 / 10 / 20 records {scan_1} / {scan_10} / {scan_20}"
    );
    println!("{report}");
    assert!(get_hit.max(get_miss) <= PER_GET, "{report}");
    assert!(scan_1.max(scan_10).max(scan_20) <= PER_SCAN, "{report}");
    // The slope. A 1-record scan finds one level empty in range, and each
    // level with records builds its key arena and record vector (two
    // allocations); past that, more records cost nothing.
    assert!(scan_20 <= scan_1 + 2, "{report}");
    assert_eq!(scan_10, scan_20, "{report}");
}

/// A level whose key range a read does not meet costs that read nothing:
/// with level 1 over keys above every key read, a GET hit, a GET miss and
/// a 10-record SCAN on level 2 allocate no more than the same reads of a
/// store that has only that one level.
#[test]
fn a_level_outside_the_read_costs_no_allocation() {
    let reads = |store: &ElsmP2| {
        let at = |i: u32| i % (PER_LEVEL - 10);
        let get_hit = most(|i| {
            let key = key(at(i));
            let (found, count) = allocations(|| store.get(&key).unwrap());
            assert!(found.is_some());
            count
        });
        let get_miss = most(|i| {
            let mut between = key(at(i));
            between.push(b'~');
            let (found, count) = allocations(|| store.get(&between).unwrap());
            assert!(found.is_none());
            count
        });
        let scan = most(|i| {
            let (from, to) = (key(at(i)), key(at(i) + 9));
            let (records, count) = allocations(|| store.scan(&from, &to).unwrap());
            assert_eq!(records.len(), 10);
            count
        });
        [get_hit, get_miss, scan]
    };
    let one_level = ordered_store(false);
    let disjoint = ordered_store(true);
    let fenced = disjoint.verify_stats().levels_fenced;
    let (one, two) = (reads(&one_level), reads(&disjoint));
    assert!(disjoint.verify_stats().levels_fenced > fenced, "level 1 was passed over");
    let report = format!("GET hit / GET miss / SCAN of 10: one level {one:?}, two levels {two:?}");
    assert!(two.iter().zip(&one).all(|(two, one)| two <= one), "{report}");
}
