//! Group-commit write pipeline: batch atomicity across crashes, one
//! enclave transition per batch, and trusted-state equivalence between
//! batched and singleton writes.
//!
//! The crash test extends PR 2's mid-flush snapshot technique: a listener
//! hook fires *inside* the commit (after the WAL frame is appended, before
//! the writer is acknowledged), captures the simulated filesystem, and the
//! test then replays two crash variants from that instant — one with the
//! frame intact, one with its tail torn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use elsm_repro::elsm::{AuthenticatedKv, ConfidentialStore, ElsmP2, P2Options};
use elsm_repro::lsm_store::{Db, Options, Record, StorageEnv, StoreListener, WriteBatch};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::sim_disk::{FsSnapshot, SimDisk, SimFs};

/// Captures an [`FsSnapshot`] from inside the first commit whose batch
/// holds at least `trigger` records.
struct MidCommitSnap {
    fs: std::sync::Arc<SimFs>,
    trigger: usize,
    snapshot: Mutex<Option<FsSnapshot>>,
}

impl StoreListener for MidCommitSnap {
    fn on_wal_append_batch(&self, records: &[Record]) {
        if records.len() >= self.trigger {
            let mut slot = self.snapshot.lock().unwrap();
            if slot.is_none() {
                // The batch's WAL frame is on the (simulated) disk; the
                // writer has not yet been acknowledged. This is the crash
                // instant.
                *slot = Some(self.fs.snapshot());
            }
        }
    }
}

fn active_wal(fs: &SimFs) -> String {
    fs.list().into_iter().filter(|n| n.starts_with("wal-")).max().expect("an active WAL")
}

#[test]
fn mid_group_commit_crash_applies_batch_whole_or_not_at_all() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = Options {
        write_buffer_bytes: 1 << 20, // no auto-flush: the WAL carries everything
        ..Options::default()
    };
    let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
    let hook = std::sync::Arc::new(MidCommitSnap {
        fs: fs.clone(),
        trigger: 8,
        snapshot: Mutex::new(None),
    });
    let db = Db::open(env.clone(), options.clone(), Some(hook.clone())).unwrap();

    // Acknowledged singleton writes before the batch: these must survive
    // every crash variant.
    for i in 0..20u32 {
        db.put(format!("pre{i:03}").as_bytes(), b"stable").unwrap();
    }
    let mut batch = WriteBatch::new();
    for i in 0..8u32 {
        batch.put(format!("batch{i}").into_bytes(), format!("bv{i}").into_bytes());
    }
    db.write_batch(batch).unwrap();
    let snapshot = hook.snapshot.lock().unwrap().take().expect("snapshot captured mid-commit");
    drop(db);

    // Crash variant 1: the frame reached the platter whole. Recovery must
    // apply the entire batch.
    fs.restore(&snapshot);
    {
        let db = Db::open(env.clone(), options.clone(), None).unwrap();
        for i in 0..8u32 {
            assert_eq!(
                &db.get(format!("batch{i}").as_bytes()).unwrap().expect("batch record").value[..],
                format!("bv{i}").as_bytes(),
                "intact frame must apply whole"
            );
        }
    }

    // Crash variant 2: the tail of the batch frame is torn (the last byte
    // never hit the disk — simulated by corrupting it). Recovery must
    // truncate the torn frame and apply *none* of the batch.
    fs.restore(&snapshot);
    let wal = fs.open(&active_wal(&fs)).unwrap();
    wal.corrupt(wal.len() - 1, 0x5a);
    let db = Db::open(env, options, None).unwrap();
    for i in 0..8u32 {
        assert!(
            db.get(format!("batch{i}").as_bytes()).unwrap().is_none(),
            "no record of a torn batch may be visible (partial application)"
        );
    }
    for i in 0..20u32 {
        let key = format!("pre{i:03}");
        assert_eq!(
            &db.get(key.as_bytes()).unwrap().expect("acknowledged pre-batch write lost").value[..],
            b"stable",
            "{key}"
        );
    }
    // The store keeps working past the truncated tail; timestamps resume
    // above every recovered record.
    let ts = db.put(b"post-crash", b"ok").unwrap();
    assert!(ts > 20, "timestamp counter must resume past recovered records");
    assert!(db.get(b"post-crash").unwrap().is_some());
}

#[test]
fn batched_puts_pay_one_ecall_and_produce_singleton_trusted_state() {
    let small = |platform: &std::sync::Arc<Platform>| {
        ElsmP2::open(
            platform.clone(),
            P2Options { write_buffer_bytes: 1 << 20, ..P2Options::default() },
        )
        .unwrap()
    };
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64u32)
        .map(|i| (format!("key{i:04}").into_bytes(), format!("val{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();

    let p_single = Platform::with_defaults();
    let s_single = small(&p_single);
    let ecalls0 = p_single.stats().ecalls;
    for (k, v) in &refs {
        s_single.put(k, v).unwrap();
    }
    assert_eq!(p_single.stats().ecalls - ecalls0, 64, "one transition per singleton put");

    let p_batch = Platform::with_defaults();
    let s_batch = small(&p_batch);
    let ecalls0 = p_batch.stats().ecalls;
    let timestamps = s_batch.put_batch(&refs).unwrap();
    assert_eq!(p_batch.stats().ecalls - ecalls0, 1, "one transition for the whole batch");
    assert_eq!(timestamps.len(), 64);

    // The enclave's trusted state must be bit-for-bit identical: batching
    // amortizes costs, it never changes what the enclave commits to.
    assert_eq!(
        s_single.trusted().wal_digest(),
        s_batch.trusted().wal_digest(),
        "batched and singleton WAL digests must agree"
    );
    s_single.db().flush().unwrap();
    s_batch.db().flush().unwrap();
    assert_eq!(
        s_single.trusted().commitments(),
        s_batch.trusted().commitments(),
        "level commitments must agree after identical flushes"
    );
    for (k, _) in &refs {
        let a = s_single.get(k).unwrap().expect("present");
        let b = s_batch.get(k).unwrap().expect("present");
        assert_eq!(a, b, "verified answers must agree");
    }

    // And the batch is cheaper on the virtual clock.
    assert!(
        p_batch.clock().now_ns() < p_single.clock().now_ns(),
        "batch {} must be cheaper than singletons {}",
        p_batch.clock().now_ns(),
        p_single.clock().now_ns()
    );
}

#[test]
fn delete_batch_hides_keys_in_one_transition() {
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(
        platform.clone(),
        P2Options { write_buffer_bytes: 1 << 20, ..P2Options::default() },
    )
    .unwrap();
    let keys: Vec<Vec<u8>> = (0..16u32).map(|i| format!("k{i:02}").into_bytes()).collect();
    let key_refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
    let items: Vec<(&[u8], &[u8])> = key_refs.iter().map(|k| (*k, b"v".as_slice())).collect();
    store.put_batch(&items).unwrap();
    let ecalls0 = platform.stats().ecalls;
    store.delete_batch(&key_refs[..8]).unwrap();
    assert_eq!(platform.stats().ecalls - ecalls0, 1);
    for (i, k) in key_refs.iter().enumerate() {
        let visible = store.get(k).unwrap().is_some();
        assert_eq!(visible, i >= 8, "tombstone batch must hide exactly its keys");
    }
}

#[test]
fn confidential_store_batches_under_encryption() {
    let store = ConfidentialStore::open(
        Platform::with_defaults(),
        P2Options { write_buffer_bytes: 4 * 1024, ..P2Options::default() },
        b"tenant master key",
    )
    .unwrap();
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..32u32)
        .map(|i| (format!("user{i:03}").into_bytes(), format!("balance={i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    store.put_batch(&refs).unwrap();
    for (k, v) in &items {
        assert_eq!(store.get(k).unwrap().expect("present").value(), &v[..]);
    }
    // Ciphertext-only on disk, same as the singleton path.
    store.inner().db().flush().unwrap();
    for name in store.inner().fs().list() {
        let f = store.inner().fs().open(&name).unwrap();
        let bytes = f.peek(0, f.len()).unwrap();
        assert!(!bytes.windows(7).any(|w| w == b"balance"), "plaintext leaked into {name}");
    }
}

/// Racing singleton writers coalesce into shared commit groups: with 8 OS
/// threads hammering puts, the WAL must end up with fewer frames than
/// records, while every record stays durable and verifiable.
#[test]
fn racing_writers_coalesce_and_stay_verifiable() {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options { write_buffer_bytes: 1 << 20, ..P2Options::default() },
    )
    .unwrap();
    let writes = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..8u32 {
            let (st, wr) = (&store, &writes);
            s.spawn(move || {
                for i in 0..150u32 {
                    st.put(format!("t{t}-k{i:03}").as_bytes(), b"v").unwrap();
                    wr.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(writes.load(Ordering::Relaxed), 1200);
    for t in 0..8u32 {
        for i in (0..150u32).step_by(17) {
            let key = format!("t{t}-k{i:03}");
            assert!(
                store.get(key.as_bytes()).unwrap().is_some(),
                "verified read lost {key} after concurrent group commits"
            );
        }
    }
}
