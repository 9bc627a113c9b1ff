//! Multi-threaded stress tests: snapshot-isolated reads racing
//! put-driven flushes and compactions.
//!
//! PR 1 fixed a race where `ElsmP2::get` dropped the store mutex between
//! trace capture and verification, letting a concurrent flush replace the
//! level commitments and fail honest reads with `HiddenLevel`. That fix
//! reintroduced a store-wide critical section; this PR replaces it with
//! epoch-versioned snapshots. These are the regression tests the original
//! fix never got: many reader threads race writers that continuously
//! drive flushes and compactions, and **no** read may ever report a
//! verification failure or a wrong/missing value.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options, ReadMode};
use elsm_repro::sgx_sim::Platform;

pub mod support;
use support::adversary::{self, HostileHost};

fn stress_options(read_mode: ReadMode) -> P2Options {
    P2Options {
        read_mode,
        // Tiny budgets so the writer drives many flushes and compactions.
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 16 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        target_file_bytes: 16 * 1024,
        ..P2Options::default()
    }
}

/// ≥4 reader threads (gets) race a writer whose puts trigger flushes and
/// compactions. Every read must verify and return the stable value.
#[test]
fn readers_race_flushes_without_spurious_failures() {
    let store = ElsmP2::open(Platform::with_defaults(), stress_options(ReadMode::Mmap)).unwrap();
    const STABLE: u32 = 150;
    for i in 0..STABLE {
        store.put(format!("stable{i:04}").as_bytes(), format!("sv{i}").as_bytes()).unwrap();
    }
    store.db().flush().unwrap();

    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Writer: churn enough inserts to force many flushes/compactions.
        let (st, dn) = (&store, &done);
        s.spawn(move || {
            for i in 0..2500u32 {
                let key = format!("churn{:05}", i % 400);
                st.put(key.as_bytes(), &[b'x'; 64]).unwrap();
            }
            dn.store(true, Ordering::SeqCst);
        });
        // Readers: stable keys must always verify with the right value.
        for t in 0..4u32 {
            let (st, dn, rd) = (&store, &done, &reads);
            s.spawn(move || {
                let mut i = 0u32;
                while !dn.load(Ordering::SeqCst) {
                    let n = (i * 13 + t * 31) % STABLE;
                    let key = format!("stable{n:04}");
                    match st.get(key.as_bytes()) {
                        Ok(Some(rec)) => {
                            assert_eq!(
                                rec.value(),
                                format!("sv{n}").as_bytes(),
                                "wrong value for {key} under concurrent flushes"
                            );
                        }
                        Ok(None) => panic!("{key} vanished during a flush/compaction install"),
                        Err(e) => panic!("spurious verification failure on {key}: {e}"),
                    }
                    rd.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
    });
    assert!(store.db().stats().flushes >= 3, "writer must have driven flushes");
    assert!(store.db().stats().compactions >= 1, "writer must have driven compactions");
    assert!(reads.load(Ordering::Relaxed) >= 100, "readers must have overlapped the churn");
}

/// Freshness with the verified cache on: a GET memoizes the answer it
/// verified, and a write to the same key can commit between the two. A
/// reader that saw a write acknowledged must never read an older value of
/// its key — from the cache or anywhere else — while the writer's flushes
/// and compactions install version after version.
#[test]
fn cached_reads_never_go_back_past_an_acknowledged_write() {
    const HOT: usize = 8;
    let options = P2Options { verified_cache_bytes: 256 * 1024, ..stress_options(ReadMode::Mmap) };
    let store = ElsmP2::open(Platform::with_defaults(), options).unwrap();
    let key = |k: usize| format!("hot{k}");
    let version = |v: u64| [&v.to_be_bytes()[..], &[b'p'; 56]].concat();
    for k in 0..HOT {
        store.put(key(k).as_bytes(), &version(0)).unwrap();
    }
    let acked: Vec<AtomicU64> = (0..HOT).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (st, ack, dn) = (&store, &acked, &done);
        s.spawn(move || {
            for v in 1..=3000u64 {
                let k = v as usize % HOT;
                st.put(key(k).as_bytes(), &version(v)).unwrap();
                ack[k].store(v, Ordering::SeqCst);
            }
            dn.store(true, Ordering::SeqCst);
        });
        for t in 0..3usize {
            let (st, ack, dn, rd) = (&store, &acked, &done, &reads);
            s.spawn(move || {
                let mut i = t;
                while !dn.load(Ordering::SeqCst) {
                    let k = i % HOT;
                    let floor = ack[k].load(Ordering::SeqCst);
                    let got = st.get(key(k).as_bytes()).unwrap().expect("hot keys exist");
                    let v = u64::from_be_bytes(got.value()[..8].try_into().unwrap());
                    assert!(
                        v >= floor,
                        "{} read version {v} after {floor} was acknowledged",
                        key(k)
                    );
                    rd.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
    });
    assert!(store.db().stats().flushes >= 3, "writer must have driven flushes");
    assert!(reads.load(Ordering::Relaxed) >= 100, "readers must have overlapped the writes");
    assert!(store.cache_stats().record_hits > 0, "the cache must have answered");
}

/// Scan verification (range completeness against epoch-tagged digest
/// snapshots) under the same churn.
#[test]
fn scans_race_flushes_without_spurious_failures() {
    let store = ElsmP2::open(Platform::with_defaults(), stress_options(ReadMode::Mmap)).unwrap();
    const STABLE: u32 = 80;
    for i in 0..STABLE {
        store.put(format!("skey{i:04}").as_bytes(), format!("sv{i}").as_bytes()).unwrap();
    }
    store.db().flush().unwrap();

    let done = AtomicBool::new(false);
    let scans = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (st, dn) = (&store, &done);
        s.spawn(move || {
            for i in 0..1200u32 {
                // Interleave churn keys *inside* the scanned key range so
                // installs change the very trees scans verify against.
                let key = format!("skey{:04}x{}", i % STABLE, i % 7);
                st.put(key.as_bytes(), &[b'y'; 48]).unwrap();
            }
            dn.store(true, Ordering::SeqCst);
        });
        for t in 0..4u32 {
            let (st, dn, sc) = (&store, &done, &scans);
            s.spawn(move || {
                let mut i = 0u32;
                while !dn.load(Ordering::SeqCst) {
                    let lo = (i * 7 + t * 11) % (STABLE - 10);
                    let from = format!("skey{lo:04}");
                    let to = format!("skey{:04}", lo + 9);
                    match st.scan(from.as_bytes(), to.as_bytes()) {
                        Ok(records) => {
                            // All 10 stable keys of the window must appear.
                            let stable_hits = records
                                .iter()
                                .filter(|r| r.key().len() == 8 && r.key().starts_with(b"skey"))
                                .count();
                            assert!(
                                stable_hits >= 10,
                                "scan [{from},{to}] lost stable keys: {stable_hits}"
                            );
                        }
                        Err(e) => panic!("spurious scan verification failure: {e}"),
                    }
                    sc.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
    });
    assert!(store.db().stats().flushes >= 2);
    assert!(scans.load(Ordering::Relaxed) >= 40, "scans must have overlapped the churn");
}

/// Deterministic interleaving: a reader pins a snapshot, a flush and a
/// compaction install on top of it, and the pinned trace still verifies
/// against its epoch's commitments (the exact †5.5.2 race, single-stepped:
/// the host runs the installs between the read's capture and its check).
#[test]
fn pinned_trace_verifies_across_installs() {
    let store =
        Arc::new(ElsmP2::open(Platform::with_defaults(), stress_options(ReadMode::Mmap)).unwrap());
    for i in 0..120u32 {
        store.put(format!("key{i:04}").as_bytes(), b"v1").unwrap();
    }
    store.db().flush().unwrap();
    let host = HostileHost::install(store.db());
    // Drive an install storm over the same keys under the read.
    host.on_get(install_under_read(&store, 120, b"v2"));
    // The read verifies against its epoch's commitments, as of its start…
    let rec = store.get(b"key0042").expect("an honest straddling read verifies").expect("present");
    assert_eq!(rec.value(), b"v1");
    let epoch_before = host.last_get().epoch;
    assert!(store.db().current_epoch() > epoch_before, "installs must have advanced the epoch");
    // …and a fresh read sees the new value, verified against the new epoch.
    let rec = store.get(b"key0042").unwrap().expect("present");
    assert_eq!(rec.value(), b"v2");
}

/// Host code for a move that rewrites keys `0..keys` to `value` and
/// flushes between a read's capture and its check: the installs a racing
/// writer makes under a read, single-stepped. Leaves the trace as captured.
fn install_under_read<T>(
    store: &Arc<ElsmP2>,
    keys: u32,
    value: &'static [u8],
) -> impl FnOnce(&mut T) + Send + 'static {
    let store = store.clone();
    move |_| {
        for i in 0..keys {
            store.put(format!("key{i:04}").as_bytes(), value).unwrap();
        }
        store.db().flush().unwrap();
    }
}

/// A scan trace is self-contained: a scan verifies against its epoch's
/// commitments after installs under it replaced every tree it was taken
/// from — the range proofs are in its own end records, the host keeps
/// nothing for it. Replayed later, the same trace is refused exactly once
/// its epoch retires (eight epochs behind with no reader pinning it).
#[test]
fn straddled_scan_verifies_until_its_epoch_retires() {
    use elsm_repro::elsm::VerificationFailure;

    let store =
        Arc::new(ElsmP2::open(Platform::with_defaults(), stress_options(ReadMode::Mmap)).unwrap());
    for i in 0..120u32 {
        store.put(format!("key{i:04}").as_bytes(), b"v1").unwrap();
    }
    store.db().flush().unwrap();
    let host = HostileHost::install(store.db());
    let (from, to) = (&b"key0010"[..], &b"key0030"[..]);
    // Two installs a round — the freeze, then the merged level, whose tree
    // replaces the one the trace was taken from.
    let rewrite = |store: &ElsmP2, value: &[u8]| {
        store.put(b"key0020", value).unwrap();
        store.db().flush().unwrap();
    };
    let under = store.clone();
    host.on_scan(move |_| {
        rewrite(&under, b"v2");
        rewrite(&under, b"v3");
    });
    let verified = store.scan(from, to).expect("an honest straddling scan verifies");
    let trace = host.last_scan();
    let behind = || store.db().current_epoch() - trace.epoch;
    assert!((3..8).contains(&behind()), "inside the floor: {} epochs behind", behind());
    assert_eq!(verified.len(), 21);
    assert!(verified.iter().all(|v| v.value() == b"v1"), "the answer as of its epoch");
    while behind() < 8 {
        rewrite(&store, b"v4");
    }
    host.replay_scan(trace.clone());
    assert_eq!(
        adversary::verdict(store.scan(from, to)).map(drop),
        Err(VerificationFailure::UnknownEpoch { epoch: trace.epoch })
    );
    assert_eq!(store.scan(from, to).unwrap().len(), 21, "and a fresh scan still verifies");
}

/// The same single-stepped race, for the crown: a read pinned to an old
/// epoch is verified against *that epoch's* top rows while an install has
/// already replaced the level's tree and crown — the old crown is shared
/// with the old snapshot, not overwritten — and a record of the new tree
/// does not pass under the old epoch.
#[test]
fn pinned_trace_verifies_against_its_epochs_crown() {
    use elsm_repro::elsm::VerificationFailure;
    use elsm_repro::lsm_store::LevelOutcome;

    let store =
        Arc::new(ElsmP2::open(Platform::with_defaults(), stress_options(ReadMode::Mmap)).unwrap());
    for i in 0..120u32 {
        store.put(format!("key{i:04}").as_bytes(), b"v1").unwrap();
    }
    store.db().flush().unwrap();
    let host = HostileHost::install(store.db());
    store.get(b"key0042").unwrap();
    let level = host
        .last_get()
        .levels
        .iter()
        .find(|l| matches!(l.outcome, LevelOutcome::Hit(_)))
        .unwrap()
        .level;
    let old_crown = store.trusted().crown_nodes(level as u32);
    assert!(old_crown > 120, "a 120-leaf tree is held whole: {old_crown} nodes");
    // An install under the read replaces the level's tree (more leaves,
    // new values) and with it the working crown.
    host.on_get(install_under_read(&store, 200, b"v2"));
    // Each read verifies under its own epoch, leaf compared against the
    // crown's leaf row — no interior node is hashed for either.
    let before = store.verify_stats();
    let got = store.get(b"key0042").expect("old epoch, old crown").expect("present");
    assert_eq!(got.value(), b"v1");
    let old = host.last_get();
    assert_ne!(store.trusted().crown_nodes(level as u32), old_crown);
    let got = store.get(b"key0042").expect("new epoch, new crown").expect("present");
    assert_eq!(got.value(), b"v2");
    let new = host.last_get();
    assert!(new.epoch > old.epoch);
    let after = store.verify_stats();
    assert_eq!(after.nodes_hashed, before.nodes_hashed);
    assert!(after.nodes_compared > before.nodes_compared);
    // The new tree's record replayed under the old epoch (or the reverse)
    // names a leaf count that epoch never committed to.
    for (mut trace, epoch) in [(new.clone(), old.epoch), (old.clone(), new.epoch)] {
        trace.epoch = epoch;
        host.replay_get(trace);
        assert!(matches!(
            adversary::verdict(store.get(b"key0042")),
            Err(VerificationFailure::ForgedRecord { .. })
        ));
    }
}

/// Writes accepted *while a flush is merging* must survive a crash: the
/// manifest names both the pre-freeze WAL and the active WAL until the
/// merge installs, so recovery replays the acknowledged write even if the
/// process dies mid-flush. The "crash" is a filesystem snapshot captured
/// deterministically from inside the flush (listener hook), restored, and
/// recovered.
#[test]
fn mid_flush_writes_survive_crash_recovery() {
    use elsm_repro::lsm_store::{Db, MergeJob, Options, StorageEnv, StoreListener, Verbatim};
    use elsm_repro::sim_disk::{FsSnapshot, SimDisk, SimFs};
    use std::sync::{Mutex, OnceLock};

    struct MidFlushWriter {
        db: OnceLock<Arc<Db>>,
        fs: Arc<SimFs>,
        snapshot: Mutex<Option<FsSnapshot>>,
        fired: AtomicBool,
    }
    impl StoreListener for MidFlushWriter {
        fn begin_merge(&self, _: &[usize], _: usize) -> Box<dyn MergeJob + '_> {
            // Fires as the flush's merge starts: the memtable is frozen,
            // the WAL has rotated, and no store lock is held.
            if !self.fired.swap(true, Ordering::SeqCst) {
                let db = self.db.get().expect("db registered");
                db.put(b"late-write", b"must-survive").unwrap();
                *self.snapshot.lock().unwrap() = Some(self.fs.snapshot());
            }
            Box::new(Verbatim)
        }
    }

    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = Options {
        write_buffer_bytes: 64 * 1024, // large: only the explicit flush runs
        ..Options::default()
    };
    let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
    let hook = Arc::new(MidFlushWriter {
        db: OnceLock::new(),
        fs: fs.clone(),
        snapshot: Mutex::new(None),
        fired: AtomicBool::new(false),
    });
    let db = Arc::new(Db::open(env.clone(), options.clone(), Some(hook.clone())).unwrap());
    hook.db.set(db.clone()).unwrap();
    for i in 0..100u32 {
        db.put(format!("key{i:04}").as_bytes(), b"v").unwrap();
    }
    db.flush().unwrap();
    let snapshot = hook.snapshot.lock().unwrap().take().expect("snapshot captured mid-flush");
    drop(db);

    // "Crash" back to the mid-flush filesystem state and recover.
    fs.restore(&snapshot);
    let recovered = Db::open(env, options, None).unwrap();
    assert_eq!(
        &recovered.get(b"late-write").unwrap().expect("acknowledged mid-flush write lost").value[..],
        b"must-survive"
    );
    for i in 0..100u32 {
        let key = format!("key{i:04}");
        assert!(recovered.get(key.as_bytes()).unwrap().is_some(), "pre-freeze {key} lost");
    }
}

/// Epoch versioning must not weaken §5.5.2's detection guarantees: hiding
/// a level in a trace — old epoch or current — still fails verification,
/// and fabricated epochs are rejected outright.
#[test]
fn hidden_levels_still_detected_across_epochs() {
    use elsm_repro::elsm::VerificationFailure;
    use elsm_repro::lsm_store::{GetTrace, LevelOutcome};

    let store =
        Arc::new(ElsmP2::open(Platform::with_defaults(), stress_options(ReadMode::Mmap)).unwrap());
    for i in 0..120u32 {
        store.put(format!("key{i:04}").as_bytes(), b"v1").unwrap();
    }
    store.db().flush().unwrap();
    let host = HostileHost::install(store.db());
    // Hiding the hit level in an *old* trace — a read that concurrent-flush
    // churn installed new versions under — fails against the old epoch's
    // commitment snapshot.
    let churn = install_under_read(&store, 120, b"v2");
    host.on_get(move |trace: &mut GetTrace| {
        churn(trace);
        let hit_level = trace
            .levels
            .iter()
            .find(|l| matches!(l.outcome, LevelOutcome::Hit(_)))
            .expect("a hit level")
            .level;
        adversary::hide_level(trace, hit_level);
    });
    assert!(store.get(b"key0042").is_err(), "hidden level in an old-epoch trace must be detected");
    assert!(store.db().current_epoch() > host.last_get().epoch, "the read straddled installs");
    // Same attack on a current trace.
    host.on_get(|trace| adversary::hide_level(trace, trace.levels[0].level));
    assert!(store.get(b"key0042").is_err());
    // A fabricated epoch the enclave never published is rejected.
    host.on_get(|trace| trace.epoch += 1_000_000);
    match adversary::verdict(store.get(b"key0042")) {
        Err(VerificationFailure::UnknownEpoch { .. }) => {}
        other => panic!("fabricated epoch must be rejected, got {other:?}"),
    }
}
