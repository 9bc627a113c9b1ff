//! What a write crosses: the enclave transitions each store shape pays per
//! commit.
//!
//! A store that maps its files into untrusted memory (eLSM-P2's default
//! `ReadMode::Mmap`) writes each commit group's WAL frame into a mapping of
//! the log and does not leave the enclave: a PUT is its one ECall. Only the
//! commit that has the host create (or grow) the mapping pays an OCall.
//! Sealed files (eLSM-P1) cannot be mapped, and a P2 store that reads
//! through a buffer maps nothing, so each of their commits still leaves
//! once. Run with `--nocapture` to see the counts.
//!
//! A real mapping is preallocated, so the log holds zeros after its last
//! frame; the last test pins that such a tail ends the log on recovery.

use elsm_repro::elsm::{AuthenticatedKv, ElsmP1, ElsmP2, P1Options, P2Options, ReadMode};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::sim_disk::{SimDisk, SimFs};

/// `(ECalls, OCalls)` the platform counted while `write` ran.
fn crossings(platform: &Platform, write: impl FnOnce()) -> (u64, u64) {
    let before = platform.stats();
    write();
    let after = platform.stats();
    (after.ecalls - before.ecalls, after.ocalls - before.ocalls)
}

/// Prints and checks one write's crossings.
fn expect(what: &str, got: (u64, u64), want: (u64, u64)) {
    println!("{what:<44} {} ECall, {} OCall", got.0, got.1);
    assert_eq!(got, want, "{what}: (ECalls, OCalls)");
}

/// A singleton put, a 16-record batch and a delete, each with its
/// crossings checked against `want`. Far below the 64 KiB write buffer:
/// no flush runs.
fn write_each_kind(
    label: &str,
    store: &dyn AuthenticatedKv,
    platform: &Platform,
    want: (u64, u64),
) {
    let put = crossings(platform, || {
        store.put(b"key-put", b"value").unwrap();
    });
    expect(&format!("{label} put"), put, want);
    let keys: Vec<Vec<u8>> = (0..16).map(|i| format!("key-batch-{i:02}").into_bytes()).collect();
    let items: Vec<(&[u8], &[u8])> = keys.iter().map(|k| (&k[..], &b"value"[..])).collect();
    let batch = crossings(platform, || {
        store.put_batch(&items).unwrap();
    });
    expect(&format!("{label} put_batch (16 records)"), batch, want);
    let delete = crossings(platform, || {
        store.delete(b"key-put").unwrap();
    });
    expect(&format!("{label} delete"), delete, want);
}

#[test]
fn a_mapped_p2_commit_is_one_ecall_once_the_log_is_mapped() {
    let platform = Platform::with_defaults();
    let options = P2Options::default();
    assert_eq!(options.read_mode, ReadMode::Mmap, "P2's default maps its files");
    let store = ElsmP2::open(platform.clone(), options).unwrap();
    let first = crossings(&platform, || {
        store.put(b"key-first", b"value").unwrap();
    });
    expect("mmap P2 first put (the host maps the log)", first, (1, 1));
    write_each_kind("mmap P2", &store, &platform, (1, 0));
    assert_eq!(store.db().stats().flushes, 0, "no flush ran inside the window");
}

#[test]
fn a_buffered_p2_commit_and_a_p1_commit_leave_the_enclave_once() {
    let platform = Platform::with_defaults();
    let options =
        P2Options { read_mode: ReadMode::Buffer { cache_bytes: 1 << 20 }, ..P2Options::default() };
    let store = ElsmP2::open(platform.clone(), options).unwrap();
    write_each_kind("buffer P2", &store, &platform, (1, 1));
    assert_eq!(store.db().stats().flushes, 0, "no flush ran inside the window");

    let platform = Platform::with_defaults();
    let store = ElsmP1::open(platform.clone(), P1Options::default()).unwrap();
    write_each_kind("P1", &store, &platform, (1, 1));
}

#[test]
fn a_mapped_logs_zero_tail_ends_the_log() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = P2Options::default();
    let store = ElsmP2::open_with(platform, fs.clone(), options.clone(), None).unwrap();
    let key = |i: u32| format!("key{i:05}").into_bytes();
    let value = |i: u32| format!("value-{i}").into_bytes();
    for i in 0..200 {
        store.put(&key(i), &value(i)).unwrap();
    }
    // Part of the data in a level, the rest only in the log.
    store.db().flush().unwrap();
    for i in 200..400 {
        store.put(&key(i), &value(i)).unwrap();
    }
    store.delete(&key(7)).unwrap();
    store.close().unwrap();
    drop(store);

    // What a preallocated mapping leaves after the last acknowledged
    // frame: zeros up to the mapping's end.
    let wal = fs.list().into_iter().filter(|n| n.starts_with("wal-")).max().expect("a log");
    let log = fs.open(&wal).unwrap();
    assert!(log.len() > 200 * 16, "the log holds the unflushed writes: {} bytes", log.len());
    log.append(&vec![0u8; (64 << 10) - log.len() % (64 << 10)]);

    let store = ElsmP2::open_with(Platform::with_defaults(), fs, options, None)
        .expect("a zero tail is no frame: no WalMismatch");
    for i in 0..400 {
        let got = store.get(&key(i)).unwrap();
        match i {
            7 => assert!(got.is_none(), "the delete survives"),
            _ => assert_eq!(got.expect("an acknowledged write").value(), &value(i)[..]),
        }
    }
    assert!(store.telemetry().audit_events().is_empty(), "nothing refused");
}
