//! Crash tests for the authenticated value log: a torn log tail must be
//! detected (never served as data), and a crash in the middle of a
//! value-log GC must leave the store whole — every key readable with its
//! latest value, as if the GC either completed or never started.
//!
//! Both use the fs-snapshot technique of `tests/group_commit.rs`: a
//! listener hook captures the simulated filesystem at the crash instant
//! and the test replays recovery from that image.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use elsm_repro::elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options, VerificationFailure};
use elsm_repro::lsm_store::{Db, MergeJob, Options, StorageEnv, StoreListener, VlogConfig};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::sim_disk::{FsSnapshot, SimDisk, SimFs};

fn vlog_config() -> VlogConfig {
    VlogConfig {
        value_threshold: 128,
        // Small files so overwritten entries land in *sealed* files — the
        // active file is never a GC victim.
        target_file_bytes: 4 * 1024,
        gc_garbage_ratio: 0.3,
        gc_enabled: false,
    }
}

fn p2_vlog_options() -> P2Options {
    P2Options {
        write_buffer_bytes: 8 * 1024,
        level1_max_bytes: 64 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        vlog: Some(vlog_config()),
        ..P2Options::default()
    }
}

/// A torn tail on the newest value-log file: reads of the torn entry must
/// fail verification — never come back absent or with fabricated bytes —
/// while untouched entries and new writes keep working.
#[test]
fn torn_vlog_tail_is_detected_never_fabricated() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = p2_vlog_options();
    {
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
        for i in 0..8u32 {
            store.put(format!("key{i}").as_bytes(), &[i as u8; 1024]).unwrap();
        }
        store.db().flush().unwrap();
        store.close().unwrap();
    }
    // The crash: the last few bytes of the active value-log file never
    // made it to the platter intact.
    let vlg = fs.list().into_iter().filter(|n| n.ends_with(".vlg")).max().expect("a value log");
    let file = fs.open(&vlg).unwrap();
    file.corrupt(file.len() - 3, 0x5a);

    let store = ElsmP2::open_with(platform, fs, options, None).unwrap();
    let mut failures = 0;
    for i in 0..8u32 {
        let key = format!("key{i}");
        match store.get(key.as_bytes()) {
            Ok(Some(rec)) => {
                assert_eq!(rec.value(), &[i as u8; 1024][..], "silent corruption on {key}");
            }
            Ok(None) => panic!("{key} verified as absent — torn entry hidden"),
            Err(ElsmError::Verification(VerificationFailure::VlogEntryTampered { .. })) => {
                failures += 1;
            }
            Err(e) => panic!("unexpected error on {key}: {e}"),
        }
    }
    assert_eq!(failures, 1, "exactly the torn entry must fail verification");
    // The store keeps working: a fresh separated value round-trips.
    store.put(b"fresh", &[9u8; 1024]).unwrap();
    store.db().flush().unwrap();
    assert_eq!(store.get(b"fresh").unwrap().expect("fresh value").value(), &[9u8; 1024][..]);
}

/// Captures an [`FsSnapshot`] when a merge finishes, once armed — the
/// GC's merge has run and rewritten entries sit in the active log file,
/// but the manifest still names the victim files. That is the mid-GC
/// crash instant.
struct MidGcSnap {
    fs: std::sync::Arc<SimFs>,
    armed: AtomicBool,
    snapshot: Mutex<Option<FsSnapshot>>,
}

/// One merge of [`MidGcSnap`].
struct MidGcJob<'a>(&'a MidGcSnap);

impl MergeJob for MidGcJob<'_> {
    fn finish(&mut self) {
        if self.0.armed.load(Ordering::SeqCst) {
            let mut slot = self.0.snapshot.lock().unwrap();
            if slot.is_none() {
                *slot = Some(self.0.fs.snapshot());
            }
        }
    }
}

impl StoreListener for MidGcSnap {
    fn begin_merge(&self, _: &[usize], _: usize) -> Box<dyn MergeJob + '_> {
        Box::new(MidGcJob(self))
    }
}

/// A crash in the middle of value-log GC is whole-or-nothing: recovery
/// from the mid-GC image serves every key's latest value, and a re-run of
/// the GC still converges.
#[test]
fn mid_vlog_gc_crash_recovers_whole_or_nothing() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = Options {
        write_buffer_bytes: 1 << 20, // explicit flushes only
        keep_old_versions: false,
        vlog: Some(vlog_config()),
        ..Options::default()
    };
    let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
    let hook = std::sync::Arc::new(MidGcSnap {
        fs: fs.clone(),
        armed: AtomicBool::new(false),
        snapshot: Mutex::new(None),
    });
    let db = Db::open(env.clone(), options.clone(), Some(hook.clone())).unwrap();
    for i in 0..20u32 {
        db.put(format!("k{i:02}").as_bytes(), &[i as u8; 600]).unwrap();
    }
    db.flush().unwrap();
    // Overwrites strand the first versions' log entries as garbage once
    // the old pointer records are compacted away.
    for i in 0..10u32 {
        db.put(format!("k{i:02}").as_bytes(), &[0xEE; 600]).unwrap();
    }
    db.flush().unwrap();
    db.compact_major().unwrap();
    let garbage = db.stats().vlog_garbage_bytes;
    assert!(garbage > 0, "superseded entries must be counted as garbage");

    hook.armed.store(true, Ordering::SeqCst);
    db.vlog_gc().unwrap();
    let snapshot = hook.snapshot.lock().unwrap().take().expect("snapshot captured mid-GC");
    assert!(db.stats().vlog_garbage_bytes < garbage, "completed GC reclaims garbage");
    drop(db);

    // Crash at the mid-GC instant: rewritten entries are in the active
    // file, the victims are still in the manifest. Recovery must serve
    // every key's latest value — the half-finished rewrite is invisible.
    fs.restore(&snapshot);
    let db = Db::open(env, options, None).unwrap();
    for i in 0..20u32 {
        let key = format!("k{i:02}");
        let expect: &[u8] = if i < 10 { &[0xEE; 600] } else { &[i as u8; 600] };
        let rec = db.get(key.as_bytes()).unwrap().unwrap_or_else(|| panic!("{key} lost mid-GC"));
        assert_eq!(&rec.value[..], expect, "{key} must resolve to its latest value");
    }
    // And the GC itself still converges after the crash.
    db.vlog_gc().unwrap();
    for i in 0..20u32 {
        let key = format!("k{i:02}");
        assert!(db.get(key.as_bytes()).unwrap().is_some(), "{key} lost by the re-run GC");
    }
}
