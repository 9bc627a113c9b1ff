//! What a write, a read and a flush cross: the enclave transitions each
//! store shape pays.
//!
//! A store that maps its files into untrusted memory (eLSM-P2's default
//! `ReadMode::Mmap`) writes each commit group's WAL frame into a mapping of
//! the log and does not leave the enclave: a PUT is its one ECall. Only the
//! commit that has the host create (or grow) the mapping pays an OCall.
//! Sealed files (eLSM-P1) cannot be mapped, and a P2 store that reads
//! through a buffer maps nothing, so each of their commits still leaves
//! once.
//!
//! Reads and flushes follow the same rule. A mapped store reads a
//! separated value out of its value log's mapping, so a GET that misses
//! every cache is its one ECall; a buffered P2 store and P1 leave once to
//! read it. A flush of a mapped store leaves only to have the host map the
//! files it writes and to write the manifest. Run with `--nocapture` to
//! see the counts.
//!
//! A real mapping is preallocated, so the log holds zeros after its last
//! frame; the last test pins that such a tail ends the log on recovery.

use elsm_repro::elsm::{AuthenticatedKv, ElsmP1, ElsmP2, P1Options, P2Options, ReadMode};
use elsm_repro::lsm_store::VlogConfig;
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

/// A P2 store whose values of 512 bytes and more move to the value log
/// at flush time, with no verified cache: every GET reads the log.
fn separating(read_mode: ReadMode) -> P2Options {
    P2Options {
        read_mode,
        vlog: Some(VlogConfig { value_threshold: 512, ..VlogConfig::default() }),
        verified_cache_bytes: 0,
        ..P2Options::default()
    }
}

/// Puts a separated and an inline value, flushes, and reads the separated
/// one once, so every block it needs is wherever the store keeps blocks;
/// returns what the next GET of it crosses.
fn flushed_get(
    store: &dyn AuthenticatedKv,
    flush: impl FnOnce(),
    platform: &Platform,
) -> (u64, u64) {
    store.put(b"big", &[7u8; 1024]).unwrap();
    store.put(b"small", b"inline").unwrap();
    flush();
    assert_eq!(store.get(b"big").unwrap().expect("present").value(), &[7u8; 1024][..]);
    crossings(platform, || {
        assert_eq!(store.get(b"big").unwrap().expect("present").value(), &[7u8; 1024][..]);
    })
}

#[test]
fn a_mapped_p2_get_of_a_separated_value_is_one_ecall() {
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(platform.clone(), separating(ReadMode::Mmap)).unwrap();
    let got = flushed_get(&store, || store.db().flush().unwrap(), &platform);
    assert!(store.db().stats().vlog_bytes > 0, "the value is in the value log");
    expect("mmap P2 get (value log, no cache)", got, (1, 0));
}

#[test]
fn a_buffered_p2_get_and_a_p1_get_leave_the_enclave_once() {
    let platform = Platform::with_defaults();
    let store =
        ElsmP2::open(platform.clone(), separating(ReadMode::Buffer { cache_bytes: 1 << 20 }))
            .unwrap();
    let got = flushed_get(&store, || store.db().flush().unwrap(), &platform);
    assert!(store.db().stats().vlog_bytes > 0, "the value is in the value log");
    expect("buffer P2 get (value log, no cache)", got, (1, 1));

    // P1 separates nothing: its one exit reads the sealed file's
    // protection metadata for the block its buffer holds.
    let platform = Platform::with_defaults();
    let store = ElsmP1::open(platform.clone(), P1Options::default()).unwrap();
    let got = flushed_get(&store, || store.db().flush().unwrap(), &platform);
    expect("P1 get", got, (1, 1));
}

#[test]
fn a_mapped_p2_flush_leaves_only_to_map_and_write_the_manifest() {
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(platform.clone(), separating(ReadMode::Mmap)).unwrap();
    for i in 0..8u32 {
        store.put(format!("big{i}").as_bytes(), &[i as u8; 1024]).unwrap();
        store.put(format!("small{i}").as_bytes(), b"inline").unwrap();
    }
    let flush = crossings(&platform, || store.db().flush().unwrap());
    let stats = store.db().stats();
    assert_eq!((stats.flushes, stats.compactions), (1, 0), "one flush, nothing more");
    // The freeze's manifest (whose host call also maps the next log), the
    // value-log file's mapping, the table's mapping, the install's
    // manifest. The table is opened through its own mapping.
    expect("mmap P2 flush (value log, one table)", flush, (0, 4));
    let put = crossings(&platform, || {
        store.put(b"after", b"value").unwrap();
    });
    expect("mmap P2 first put after a flush", put, (1, 0));
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
