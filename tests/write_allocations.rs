//! A PUT allocates its record, once: the buffer its key and plain envelope
//! share, built in place (`envelope::plain_record`) and pinned by the
//! memtable. Everything else on the commit path reuses what the store
//! keeps — the leader's group and record buffers, the log's frame buffer,
//! the WAL digest's canonical buffer, the skiplist's flat arenas — or
//! grows by doubling. At the commit before, a singleton PUT made fifteen
//! allocations: two for the envelope, three copying the batch, one WAL
//! frame, three for a skiplist node and six in the commit and its fold.
//!
//! This file owns its process's allocator to count them (the wrapper of
//! `tests/read_allocations.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::shard::{ShardedKv, ShardedOptions};

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

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

const VALUE: [u8; 100] = [7; 100];

/// Options under which nothing but the measured writes happens: no flush
/// is due while they run.
fn quiet() -> P2Options {
    P2Options { write_buffer_bytes: 64 << 20, level1_max_bytes: 1 << 30, ..P2Options::default() }
}

/// Allocations of `n` measured puts into `kv` (after 500 unmeasured ones
/// that size the arenas), one count per put.
fn put_counts(kv: &dyn AuthenticatedKv, n: u32) -> Vec<u64> {
    for i in 0..500 {
        kv.put(&key(i), &VALUE).unwrap();
    }
    let keys: Vec<Vec<u8>> = (0..n).map(|i| key(1_000_000 + i * 7)).collect();
    keys.iter().map(|key| allocations(|| kv.put(key, &VALUE).unwrap()).1).collect()
}

/// The middle count: a put that lands on an arena's doubling pays one more.
fn median(mut counts: Vec<u64>) -> u64 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn a_singleton_put_allocates_its_record_only() {
    let store = ElsmP2::open(Platform::with_defaults(), quiet()).unwrap();
    let counts = put_counts(&store, 256);
    let total: u64 = counts.iter().sum();
    let report = format!("allocations per put: {counts:?}");
    assert_eq!(median(counts), 1, "{report}");
    // The arenas' doublings, amortised: well under one more per put.
    assert!(total <= 256 + 16, "{total} allocations for 256 puts; {report}");
}

#[test]
fn a_batch_allocates_per_record_at_most_once() {
    let store = ElsmP2::open(Platform::with_defaults(), quiet()).unwrap();
    let mut next = 0u32;
    let mut batch = |len: u32| {
        let keys: Vec<Vec<u8>> = (next..next + len).map(key).collect();
        next += len;
        let items: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &VALUE[..])).collect();
        allocations(|| store.put_batch(&items).unwrap()).1
    };
    // Warm up the buffers, then take the least of a few batches per size:
    // an arena that doubles under one of them is not a per-record cost.
    for _ in 0..20 {
        batch(100);
    }
    let mut least = |len| (0..8).map(|_| batch(len)).min().expect("eight batches");
    let (one, ten, hundred) = (least(1), least(10), least(100));
    let report = format!("allocations per batch of 1 / 10 / 100: {one} / {ten} / {hundred}");
    assert!(ten <= one + 9, "{report}");
    assert!(hundred <= ten + 90, "{report}");
}

#[test]
fn a_replicated_cluster_put_is_bounded() {
    // What the judged cluster runs: two shards, one replica each, the
    // value log and the verified cache on. A put reaches the owning
    // primary, ships its frame, and the replica replays it.
    let options = P2Options {
        vlog: Some(elsm_repro::lsm_store::VlogConfig {
            value_threshold: 512,
            ..Default::default()
        }),
        verified_cache_bytes: 8 << 20,
        ..quiet()
    };
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(2, options).with_replicas(1),
    )
    .unwrap();
    let counts = put_counts(&cluster, 64);
    let report = format!("allocations per cluster put: {counts:?}");
    // The primary's record and the shipped payload; on the replica, the
    // drained envelopes, the decoded frame and its record's key and value
    // (6 when this was written; 29 at the commit before).
    assert!(median(counts) <= 8, "{report}");
}
