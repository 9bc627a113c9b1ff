//! A stored proof is host-controlled bytes: a count field in it must never
//! become a reservation. An earlier decoder checked `n > buf.len()` and
//! then called `Vec::with_capacity(n)` for 32-byte digests, so a value
//! could make the verifier reserve 32× its own length before the first
//! bounds check failed. A chain link has no count at all: it is a fixed 57
//! bytes or it is rejected.
//!
//! This file owns its process's allocator to watch for that: a small
//! wrapper around the system allocator that records, per thread, the
//! largest single request made while a probe is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elsm_crypto::Digest;
use merkle::{ChainPosition, RecordProof, RecordProofRef};

struct Watching;

thread_local! {
    /// Largest allocation request seen on this thread since the probe was
    /// armed (`None`: not armed).
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = LARGEST.try_with(|largest| {
        if let Some(seen) = largest.get() {
            largest.set(Some(seen.max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls only
// touches a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// Runs `f` and returns its result with the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(Some(0)));
    let result = f();
    let seen = LARGEST.with(|largest| largest.take()).expect("armed above");
    (result, seen)
}

fn header(tag: u8) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&3u32.to_le_bytes()); // level
    buf.extend_from_slice(&5u64.to_le_bytes()); // leaf index
    buf.extend_from_slice(&9u64.to_le_bytes()); // leaf count
    buf.push(tag);
    buf
}

#[test]
fn inflated_counts_are_rejected_without_reserving() {
    // A newest-position proof claiming the maximum number of siblings,
    // with bytes for none of them ...
    let mut path_bomb = header(0);
    path_bomb.extend_from_slice(&[7u8; 32]);
    path_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    // ... a count that passes the old `n > buf.len()` guard but still
    // outruns the bytes (each sibling needs 32) ...
    let mut path_guard = header(0);
    path_guard.extend_from_slice(&[7u8; 32]);
    path_guard.extend_from_slice(&40u32.to_le_bytes());
    path_guard.extend_from_slice(&[0u8; 64]);
    // ... and links: the retired tag-1 layout (`[count][len][bytes]…`)
    // with its count at the maximum is, read as a link, a position with
    // the digest cut short; a link claiming position 0; a link whose
    // position is the maximum but whose digest is not all there.
    let mut old_layout_bomb = header(1);
    old_layout_bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    old_layout_bomb.extend_from_slice(&[0u8; 31]);
    let mut position_zero = header(1);
    position_zero.extend_from_slice(&0u32.to_le_bytes());
    position_zero.extend_from_slice(&[7u8; 32]);
    let mut short_link = header(1);
    short_link.extend_from_slice(&u32::MAX.to_le_bytes());
    short_link.extend_from_slice(&[7u8; 8]);

    for (name, buf) in [
        ("audit path = u32::MAX", &path_bomb),
        ("audit path within buf.len()", &path_guard),
        ("link position = u32::MAX, digest cut short", &old_layout_bomb),
        ("link position = 0", &position_zero),
        ("link truncated", &short_link),
    ] {
        let (parsed, largest) = largest_allocation(|| RecordProofRef::parse(buf).is_some());
        assert!(!parsed, "{name}: borrowed parser must reject");
        assert_eq!(largest, 0, "{name}: the borrowed parser allocates nothing");
        let (decoded, largest) = largest_allocation(|| RecordProof::decode(buf).is_some());
        assert!(!decoded, "{name}: owned decoder must reject");
        assert_eq!(largest, 0, "{name}: a rejected proof is never copied out");
    }
}

#[test]
fn owned_conversion_is_bounded_by_the_bytes_present() {
    // A well-formed newest-version proof with 2 siblings, and a link.
    let head = RecordProof {
        level: 3,
        leaf_index: 5,
        leaf_count: 9,
        chain: ChainPosition::Newest {
            older_digest: Digest::ZERO,
            audit_path: vec![Digest::from_bytes([4u8; 32]), Digest::from_bytes([5u8; 32])],
        },
    };
    let link = RecordProof {
        chain: ChainPosition::Link { position: u32::MAX, older_digest: Digest::ZERO },
        ..head.clone()
    };
    for proof in [head, link] {
        let bytes = proof.encode();
        let (parsed, largest) =
            largest_allocation(|| RecordProofRef::parse(&bytes).map(|p| p.encoded_len()));
        assert_eq!(parsed, Some(bytes.len()));
        assert_eq!(largest, 0, "parsing and measuring a valid proof allocates nothing");
        let (decoded, largest) = largest_allocation(|| RecordProof::decode(&bytes));
        assert_eq!(decoded, Some((proof, bytes.len())));
        assert!(
            largest <= bytes.len(),
            "largest single allocation {largest} B > input {} B",
            bytes.len()
        );
    }
}
