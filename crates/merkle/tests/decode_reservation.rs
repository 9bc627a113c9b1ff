//! A stored proof is host-controlled bytes: a count field in it must never
//! become a reservation. An earlier decoder checked `n > buf.len()` and
//! then called `Vec::with_capacity(n)` for 32-byte digests, so a value
//! could make the verifier reserve 32× its own length before the first
//! bounds check failed. A chain link has no count at all: its varint
//! fields and digest are there, minimal and in range, or it is rejected.
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

/// `v` as a LEB128 varint.
fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Level 3, leaf 5 of 9, and `tag` (bit 0: link; bit 1: no older digest).
fn header(tag: u8) -> Vec<u8> {
    vec![3, 5, 9, tag]
}

fn concat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

#[test]
fn inflated_counts_are_rejected_without_reserving() {
    let older = [7u8; 32];
    let mut eleven = vec![0xff; 10];
    eleven.push(0x01);
    let cases: Vec<(&str, Vec<u8>)> = vec![
        // A newest-position proof claiming the most siblings a varint can,
        // with bytes for none of them ...
        ("audit path = u64::MAX", concat(&[&header(0), &older, &varint(u64::MAX)])),
        // ... a count whose bytes overflow ...
        ("audit path ×32 overflows", concat(&[&header(2), &varint(u64::MAX / 32 + 1)])),
        // ... a count that passes the old `n > buf.len()` guard but still
        // outruns the bytes (each sibling needs 32) ...
        ("audit path within buf.len()", concat(&[&header(0), &older, &varint(40), &[0u8; 64]])),
        ("truncated path", concat(&[&header(2), &varint(3), &[4u8; 64]])),
        // ... counts and fields no canonical proof holds ...
        ("overlong varint", concat(&[&[3, 0x85, 0x00, 9, 2], &varint(1), &older])),
        ("11-byte varint", concat(&[&[3, 5], &eleven, &[2], &varint(1), &older])),
        ("level above u32::MAX", concat(&[&varint(1 << 32), &[5, 9, 2], &varint(1), &older])),
        ("unknown tag bits", concat(&[&header(0x42), &varint(1), &older])),
        // (the digest bit 1 says is absent, read as a sibling count)
        ("bit 1 with a digest", concat(&[&header(2), &[40u8; 32], &varint(0)])),
        ("stored all-zero digest", concat(&[&header(0), &[0u8; 32], &varint(0)])),
        // ... and links: a link claiming position 0; one whose position is
        // the maximum but whose digest is not all there; one whose position
        // does not fit a `u32`.
        ("link position = 0", concat(&[&header(1), &varint(0), &older])),
        ("link truncated", concat(&[&header(1), &varint(u32::MAX.into()), &[7u8; 8]])),
        ("link position above u32::MAX", concat(&[&header(1), &varint(1 << 32), &older])),
        ("link with an all-zero digest", concat(&[&header(1), &varint(1), &[0u8; 32]])),
    ];
    for (name, buf) in &cases {
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
