//! Cross-crate security tests: attacks mounted at the *storage* layer
//! (files, snapshots) rather than on in-memory traces — the adversary's
//! real vantage point (§3.3: "the adversary is the untrusted host").

use elsm_repro::elsm::{
    AuthenticatedKv, ElsmError, ElsmP2, P2Options, ReadMode, VerificationFailure,
};
use elsm_repro::sgx_sim::{MonotonicCounter, Platform};
use elsm_repro::sim_disk::{SimDisk, SimFs};

pub mod support;

fn opts() -> P2Options {
    P2Options {
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 16 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        ..P2Options::default()
    }
}

/// The two read paths a table corruption is read back through: mapped,
/// and through P2's block cache in untrusted memory.
const READ_MODES: [ReadMode; 2] = [ReadMode::Mmap, ReadMode::Buffer { cache_bytes: 512 * 1024 }];

fn loaded_store(read_mode: ReadMode) -> ElsmP2 {
    let store = ElsmP2::open(Platform::with_defaults(), P2Options { read_mode, ..opts() }).unwrap();
    for i in 0..400u32 {
        store.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    store.db().flush().unwrap();
    store
}

#[test]
fn every_sstable_byte_is_load_bearing() {
    for read_mode in READ_MODES {
        every_sstable_byte_is_load_bearing_under(read_mode);
    }
}

fn every_sstable_byte_is_load_bearing_under(read_mode: ReadMode) {
    // Corrupt several positions in one table; at least the covered reads
    // must fail verification, and no read may return wrong data silently.
    let store = loaded_store(read_mode);
    let sst = store.fs().list().into_iter().filter(|n| n.ends_with(".sst")).max().expect("a table");
    let file = store.fs().open(&sst).unwrap();
    for offset in [50usize, 500, 1500] {
        if offset < file.len() {
            file.corrupt(offset, 0xa5);
        }
    }
    let mut failures = 0;
    let mut verification_failures = 0u64;
    for i in 0..400u32 {
        let key = format!("key{i:04}");
        match store.get(key.as_bytes()) {
            Ok(Some(rec)) => {
                // Any record that *does* verify must be the correct one.
                assert_eq!(rec.value(), format!("v{i}").as_bytes(), "silent corruption on {key}");
            }
            Ok(None) => panic!("{key} verified as absent — corruption hidden"),
            Err(e) => {
                if matches!(e, ElsmError::Verification(_)) {
                    verification_failures += 1;
                }
                failures += 1;
            }
        }
    }
    assert!(failures > 0, "tampering must be observable");
    // Every refused read also landed on the audit stream.
    assert!(verification_failures > 0);
    assert!(
        store.telemetry().audit_total() >= verification_failures,
        "each verification failure must be audited"
    );
}

#[test]
fn scans_refuse_corrupted_levels() {
    for read_mode in READ_MODES {
        scans_refuse_corrupted_levels_under(read_mode);
    }
}

fn scans_refuse_corrupted_levels_under(read_mode: ReadMode) {
    let store = loaded_store(read_mode);
    let sst = store.fs().list().into_iter().find(|n| n.ends_with(".sst")).unwrap();
    store.fs().open(&sst).unwrap().corrupt(200, 0xff);
    // A wide scan must either fail verification or return fully correct
    // data (if the corrupt block wasn't touched) — never partial garbage.
    match store.scan(b"key0000", b"key0399") {
        Err(ElsmError::Verification(f)) => {
            assert!(store.telemetry().audit_count(f.kind()) >= 1, "refused scan must be audited");
        }
        Err(ElsmError::Io(_)) => {}
        Ok(records) => {
            for r in records {
                let i: u32 = std::str::from_utf8(&r.key()[3..]).unwrap().parse().unwrap();
                assert_eq!(r.value(), format!("v{i}").as_bytes());
            }
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn sealed_state_tamper_is_rejected_at_restart() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    {
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), opts(), None).unwrap();
        for i in 0..100 {
            store.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        store.close().unwrap();
    }
    // Flip a bit in the sealed enclave state, the manifest's closing section.
    let manifest = fs.open("MANIFEST").unwrap();
    manifest.corrupt(manifest.len() - 20, 0x01);
    // The refused open leaves no store to ask, so hand in the registry
    // explicitly: the recovery path must audit before it fails.
    let registry = elsm_repro::telemetry::Telemetry::new();
    let options = P2Options { telemetry: registry.clone(), ..opts() };
    match ElsmP2::open_with(platform, fs, options, None) {
        Err(ElsmError::Verification(VerificationFailure::SealBroken)) => {}
        other => panic!("tampered seal must be rejected, got {other:?}"),
    }
    assert_eq!(registry.audit_count("SealBroken"), 1, "rejected restart must be audited");
}

#[test]
fn counter_survives_what_files_do_not() {
    // The fundamental asymmetry behind §5.6.1: the host can roll files
    // back, but not the hardware counter.
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let counter = MonotonicCounter::new(platform.clone());
    let options = P2Options { counter_write_buffer: 1, ..opts() };
    let snapshot_before_any_data = fs.snapshot();
    {
        let store =
            ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), Some(counter.clone()))
                .unwrap();
        store.put(b"k", b"v").unwrap();
        store.close().unwrap();
    }
    // Roll back to the pristine filesystem (no manifest at all): to the
    // enclave that is a fresh store, and a fresh store is the genesis state
    // — which a counter that has advanced no longer binds.
    fs.restore(&snapshot_before_any_data);
    let registry = elsm_repro::telemetry::Telemetry::new();
    let options = P2Options { telemetry: registry.clone(), ..options };
    match ElsmP2::open_with(platform, fs, options, Some(counter)) {
        Err(ElsmError::Verification(VerificationFailure::RolledBack)) => {}
        other => panic!("a wiped store must not open against an advanced counter, got {other:?}"),
    }
    assert_eq!(registry.audit_count("RolledBack"), 1, "the refusal is audited");
}

/// The manifest's other bytes are the seal's associated data: a host that
/// rewinds the manifest's clock — so the store would stamp new writes below
/// versions it already holds, and a later merge would rank a stale version
/// newest — breaks the seal.
#[test]
fn a_rewritten_manifest_breaks_its_seal() {
    use elsm_repro::lsm_store::{decode_manifest, Manifest, MANIFEST};
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let store = ElsmP2::open_with(platform.clone(), fs.clone(), opts(), None).unwrap();
    for i in 0..300 {
        store.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    store.db().flush().unwrap();
    store.close().unwrap();
    drop(store);
    let file = fs.open(MANIFEST).unwrap();
    let manifest = decode_manifest(&file.read_at(0, file.len()).unwrap()).unwrap();
    assert!(manifest.last_ts >= 300);
    fs.delete(MANIFEST).unwrap();
    fs.create(MANIFEST).unwrap().append(&Manifest { last_ts: 1, ..manifest }.encode());
    match ElsmP2::open_with(platform, fs, opts(), None) {
        Err(ElsmError::Verification(VerificationFailure::SealBroken)) => {}
        other => panic!("a rewritten manifest must not unseal, got {other:?}"),
    }
}

/// The host swaps the names of two table files of one level while the
/// store is down, so the manifest lists that level's tables out of key
/// order. The restart refuses with an error; it does not panic building
/// the level's run.
#[test]
fn swapped_table_files_are_refused_at_restart() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let options = P2Options { target_file_bytes: 2 * 1024, ..opts() };
    let store = ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
    for i in 0..400u32 {
        store.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    store.db().flush().unwrap();
    let version = store.db().current_version();
    let tables = version.levels().iter().flatten().map(|run| run.tables()).find(|t| t.len() > 1);
    let tables = tables.expect("a level of several tables");
    let names = [0, 1].map(|i| format!("{:06}.sst", tables[i].meta().file_no));
    drop(version);
    store.close().unwrap();
    drop(store);
    fs.rename(&names[0], "swap.sst").unwrap();
    fs.rename(&names[1], &names[0]).unwrap();
    fs.rename("swap.sst", &names[1]).unwrap();
    match ElsmP2::open_with(platform, fs, options, None) {
        Err(ElsmError::Io(_)) => {}
        other => panic!("swapped tables must not open, got {other:?}"),
    }
}

#[test]
fn poisoned_store_refuses_service() {
    let store = loaded_store(ReadMode::Mmap);
    store.trusted().poison();
    assert!(matches!(store.get(b"key0001"), Err(ElsmError::Poisoned)));
    assert!(matches!(store.put(b"x", b"y"), Err(ElsmError::Poisoned)));
    assert!(matches!(store.scan(b"a", b"z"), Err(ElsmError::Poisoned)));
}

fn vlog_opts(cache_bytes: usize) -> P2Options {
    P2Options {
        vlog: Some(elsm_repro::lsm_store::VlogConfig {
            value_threshold: 128,
            target_file_bytes: 64 * 1024,
            gc_garbage_ratio: 0.3,
            gc_enabled: false,
        }),
        verified_cache_bytes: cache_bytes,
        ..opts()
    }
}

/// Splices the byte range `[src, src + len)` of `file` over
/// `[dst, dst + len)` — the host-level "copy one entry over another"
/// attack, built from peeks and XOR corruptions.
fn splice(file: &elsm_repro::sim_disk::SimFile, src: usize, dst: usize, len: usize) {
    let from = file.peek(src, len).unwrap();
    let over = file.peek(dst, len).unwrap();
    for i in 0..len {
        let mask = from[i] ^ over[i];
        if mask != 0 {
            file.corrupt(dst + i, mask);
        }
    }
}

#[test]
fn swapped_vlog_entries_are_detected() {
    // The host copies one CRC-intact value-log entry over another: the
    // read must fail verification, never answer with the other key's
    // value.
    let store = ElsmP2::open(Platform::with_defaults(), vlog_opts(0)).unwrap();
    store.put(b"bigA", &[b'A'; 2048]).unwrap();
    store.put(b"bigB", &[b'B'; 2048]).unwrap();
    store.db().flush().unwrap();
    let name = store.fs().list().into_iter().find(|n| n.ends_with(".vlg")).expect("a value log");
    let file = store.fs().open(&name).unwrap();
    // Same key length, same value length: two identically-sized entries
    // back to back.
    assert_eq!(file.len() % 2, 0, "two equal-size entries expected");
    let half = file.len() / 2;
    splice(&file, 0, half, half);
    match store.get(b"bigB") {
        Err(ElsmError::Verification(VerificationFailure::VlogEntryTampered { .. })) => {}
        other => panic!("swapped vlog entry must be detected, got {other:?}"),
    }
    assert!(store.telemetry().audit_count("VlogEntryTampered") >= 1);
    // The untouched entry still verifies.
    assert_eq!(store.get(b"bigA").unwrap().expect("intact").value(), &[b'A'; 2048][..]);
}

#[test]
fn stale_vlog_entries_are_detected() {
    // Replay attack: after an overwrite, the host copies the *old* entry
    // (same key, older timestamp, valid CRC) over the new one. The MAC
    // committed in the pointer record binds the timestamp, so the stale
    // value must never be served.
    let store = ElsmP2::open(Platform::with_defaults(), vlog_opts(0)).unwrap();
    store.put(b"acct", &[b'1'; 2048]).unwrap();
    store.db().flush().unwrap();
    store.put(b"acct", &[b'2'; 2048]).unwrap();
    store.db().flush().unwrap();
    assert_eq!(store.get(b"acct").unwrap().expect("present").value(), &[b'2'; 2048][..]);
    let name = store.fs().list().into_iter().find(|n| n.ends_with(".vlg")).expect("a value log");
    let file = store.fs().open(&name).unwrap();
    assert_eq!(file.len() % 2, 0, "two equal-size entries expected");
    let half = file.len() / 2;
    splice(&file, 0, half, half);
    match store.get(b"acct") {
        Err(ElsmError::Verification(VerificationFailure::VlogEntryTampered { .. })) => {}
        other => panic!("stale vlog entry must be detected, got {other:?}"),
    }
    assert!(store.telemetry().audit_count("VlogEntryTampered") >= 1);
}

#[test]
fn poisoned_cache_entries_are_detected_not_served() {
    // An adversary with write access to the cache memory scribbles over a
    // cached value. The per-entry tag catches it: the poisoned entry is
    // discarded, counted, and the query falls back to the verified disk
    // path — the caller never sees wrong bytes.
    let store = ElsmP2::open(Platform::with_defaults(), vlog_opts(256 * 1024)).unwrap();
    store.put(b"hot", b"payload").unwrap();
    store.db().flush().unwrap();
    assert_eq!(store.get(b"hot").unwrap().expect("present").value(), b"payload");
    let before = store.cache_stats();
    store.get(b"hot").unwrap();
    assert!(store.cache_stats().record_hits > before.record_hits, "second read must hit");
    assert!(store.verified_cache().unwrap().corrupt_record(b"hot"), "entry present to poison");
    let rec = store.get(b"hot").unwrap().expect("fallback answer");
    assert_eq!(rec.value(), b"payload", "poisoned cache must not change answers");
    let stats = store.cache_stats();
    assert!(stats.tamper_detected >= 1, "tampering must be counted: {stats:?}");
    assert!(store.telemetry().audit_count("CacheTampered") >= 1, "tampering must be audited");
}

/// A cached answer stops answering when its key is written, and only then:
/// a flush, a compaction wave and a value-log GC each install a version
/// without changing any key's value. `kv` takes the client's operations,
/// `primary` runs the maintenance (`sync` carries it to replicas), and
/// `reader` is the store whose cache serves `kv`'s reads of `b"k"`.
fn overwritten_entry_is_never_served(
    kv: &dyn AuthenticatedKv,
    primary: &ElsmP2,
    reader: &ElsmP2,
    filler: &[u8],
    sync: &dyn Fn(),
) {
    let (v1, v2) = ([1u8; 1024], [2u8; 1024]);
    let read = || kv.get(b"k").unwrap().expect("present").value().to_vec();
    let hits = || reader.cache_stats().record_hits;
    kv.put(filler, &[0u8; 1024]).unwrap();
    kv.put(b"k", &v1).unwrap();
    primary.db().flush().unwrap();
    primary.db().compact(1).unwrap();
    sync();
    assert_eq!(read(), v1);
    let before = hits();
    assert_eq!(read(), v1);
    assert!(hits() > before, "the second read hits");
    kv.put(b"k", &v2).unwrap();
    assert_eq!(read(), v2, "the write superseded the cached v1");
    // The filler's tombstone, purged by the major compaction of levels 1
    // and 2, leaves its value-log file all garbage for the GC to collect.
    kv.delete(filler).unwrap();
    let epoch = primary.db().current_epoch();
    primary.db().flush().unwrap();
    primary.db().compact_major().unwrap();
    let garbage = primary.db().stats().vlog_garbage_bytes;
    assert!(garbage > 0, "the purge left value-log garbage");
    primary.db().vlog_gc().unwrap();
    sync();
    assert!(primary.db().stats().vlog_garbage_bytes < garbage, "the GC collected it");
    assert!(primary.db().current_epoch() >= epoch + 3, "three installs at least");
    let before = hits();
    assert_eq!(read(), v2);
    assert!(hits() > before, "v2 answers from the cache across the installs");
    assert_eq!(reader.telemetry().audit_count("CacheTampered"), 0);
}

#[test]
fn overwritten_cache_entries_are_never_served() {
    use elsm_repro::shard::{ShardedKv, ShardedOptions};
    let options = || {
        let mut options = vlog_opts(256 * 1024);
        // One entry per value-log file: the filler's file dies whole.
        options.vlog.as_mut().unwrap().target_file_bytes = 512;
        options
    };
    let store = ElsmP2::open(Platform::with_defaults(), options()).unwrap();
    overwritten_entry_is_never_served(&store, &store, &store, b"filler", &|| {});

    // A replicated cluster: reads go to the owning shard's replica, whose
    // cache replays the primary's writes and installs.
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(2, options()).with_replicas(1),
    )
    .unwrap();
    let shard = cluster.shard_of(b"k");
    let filler = (0..)
        .map(|i| format!("filler{i}").into_bytes())
        .find(|f| cluster.shard_of(f) == shard)
        .unwrap();
    let group = cluster.replication_group(shard).expect("replicated");
    let (primary, replica) = (group.primary_store(), group.replica_store(0));
    overwritten_entry_is_never_served(&cluster, &primary, &replica, &filler, &|| {
        group.sync().unwrap()
    });
    let (got, _) = group.with_replica(0, |r| r.get(b"k")).unwrap();
    assert_eq!(got.expect("present").value(), &[2u8; 1024][..], "the replica reads v2");
}

#[test]
fn hidden_level_detected_with_separation_on() {
    // §5.5.2's level-hiding attack, mounted against a store whose values
    // live in the value log: pointer records participate in the level
    // commitments exactly like inline values, so the detection guarantee
    // is unchanged.
    use crate::support::adversary;
    use elsm_repro::lsm_store::LevelOutcome;
    let store = ElsmP2::open(Platform::with_defaults(), vlog_opts(0)).unwrap();
    for i in 0..40u32 {
        store.put(format!("key{i:04}").as_bytes(), &[i as u8; 1024]).unwrap();
    }
    store.db().flush().unwrap();
    let trace = store.raw_get_trace(b"key0007").unwrap();
    let hit_level = trace
        .levels
        .iter()
        .find(|l| matches!(l.outcome, LevelOutcome::Hit(_)))
        .expect("a hit level")
        .level;
    let mut hidden = trace.clone();
    adversary::hide_level(&mut hidden, hit_level);
    let failure = store
        .verify_get_trace(b"key0007", &hidden)
        .expect_err("hidden level must be detected with separation on");
    assert!(store.telemetry().audit_count(failure.kind()) >= 1, "detection must be audited");
    // The honest read still resolves the separated value.
    assert_eq!(store.get(b"key0007").unwrap().expect("present").value(), &[7u8; 1024][..]);
}

#[test]
fn wal_corruption_truncates_but_never_fabricates() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    {
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), opts(), None).unwrap();
        for i in 0..10 {
            store.put(format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        store.close().unwrap();
    }
    // Corrupt the WAL tail.
    let wal = fs.list().into_iter().find(|n| n.starts_with("wal-")).unwrap();
    let f = fs.open(&wal).unwrap();
    assert!(f.len() > 10);
    f.corrupt(f.len() - 5, 0xff);
    // The store underneath truncates the log at the broken frame, as it
    // does after a crash. The enclave sealed a digest over all ten frames
    // at the clean close: a log that replays to anything else is refused,
    // not served shorter.
    match ElsmP2::open_with(platform, fs, opts(), None) {
        Err(ElsmError::Verification(VerificationFailure::WalMismatch)) => {}
        other => panic!("a log altered after a clean close must be refused, got {other:?}"),
    }
}

mod wal_replay {
    //! The memtable a restart serves from is rebuilt from logs the host
    //! keeps. The enclave sealed the WAL digest (and the chain value the
    //! oldest live log started from) at the clean close; recovery folds
    //! what the host presents and refuses anything that does not arrive
    //! there.

    use super::*;
    use elsm_repro::elsm::envelope::wrap_plain;
    use elsm_repro::lsm_store::{encode_frame, Record};
    use elsm_repro::telemetry::Telemetry;
    use std::sync::Arc;

    /// Twelve puts, one frame each, cleanly closed. Returns the one live
    /// log's name and its frames.
    fn closed_store() -> (Arc<Platform>, Arc<SimFs>, String, Vec<Vec<u8>>) {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), opts(), None).unwrap();
        store.put(b"balance", b"10").unwrap();
        for i in 0..11 {
            store.put(format!("k{i:02}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        store.close().unwrap();
        let logs: Vec<String> = fs.list().into_iter().filter(|n| n.starts_with("wal-")).collect();
        assert_eq!(logs.len(), 1, "nothing flushed: {logs:?}");
        let file = fs.open(&logs[0]).unwrap();
        let bytes = file.peek(0, file.len()).unwrap();
        let mut frames = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            frames.push(bytes[at..at + 8 + len].to_vec());
            at += 8 + len;
        }
        assert_eq!(frames.len(), 12);
        (platform, fs, logs[0].clone(), frames)
    }

    fn rewrite(fs: &SimFs, log: &str, bytes: &[u8]) {
        fs.delete(log).unwrap();
        fs.create(log).unwrap().append(bytes);
    }

    fn assert_refused(platform: Arc<Platform>, fs: Arc<SimFs>, what: &str) {
        let registry = Telemetry::new();
        let options = P2Options { telemetry: registry.clone(), ..opts() };
        match ElsmP2::open_with(platform, fs, options, None) {
            Err(ElsmError::Verification(VerificationFailure::WalMismatch)) => {}
            other => panic!("{what}: the restart must be refused, got {other:?}"),
        }
        assert_eq!(registry.audit_count("WalMismatch"), 1, "{what}: refusal must be audited");
    }

    /// The whole log replaced by one frame the host made with the store's
    /// own (public, keyless) frame encoder: CRC-valid, and not the log.
    #[test]
    fn a_forged_log_is_refused_at_open() {
        let (platform, fs, log, _) = closed_store();
        let forged = Record::put(b"balance".as_slice(), wrap_plain(b"1000000"), 13);
        rewrite(&fs, &log, &encode_frame(&[forged]));
        assert_refused(platform, fs, "forged log");
    }

    #[test]
    fn a_frame_forged_beside_the_honest_ones_is_refused() {
        let (platform, fs, log, frames) = closed_store();
        let forged = Record::put(b"balance".as_slice(), wrap_plain(b"1000000"), 13);
        rewrite(&fs, &log, &[frames.concat(), encode_frame(&[forged])].concat());
        assert_refused(platform.clone(), fs.clone(), "appended frame");
        // ... also when its value is no envelope at all (nothing enters
        // the memtable without moving the digest).
        let raw = Record::put(b"balance".as_slice(), b"\x07raw".as_slice(), 13);
        rewrite(&fs, &log, &[frames.concat(), encode_frame(&[raw])].concat());
        assert_refused(platform, fs, "appended frame without an envelope");
    }

    #[test]
    fn a_dropped_last_frame_is_refused() {
        let (platform, fs, log, frames) = closed_store();
        rewrite(&fs, &log, &frames[..11].concat());
        assert_refused(platform, fs, "dropped last frame");
    }

    #[test]
    fn a_reordered_pair_of_frames_is_refused() {
        let (platform, fs, log, mut frames) = closed_store();
        frames.swap(4, 5);
        rewrite(&fs, &log, &frames.concat());
        assert_refused(platform, fs, "reordered frames");
    }

    #[test]
    fn a_truncated_tail_is_refused() {
        let (platform, fs, log, frames) = closed_store();
        let bytes = frames.concat();
        rewrite(&fs, &log, &bytes[..bytes.len() - 3]);
        assert_refused(platform, fs, "truncated tail");
    }

    /// The honest side: whatever the flushes did to the logs in between —
    /// rotations, deletions, a restart's own replay — a clean close seals
    /// a base and a digest the surviving logs fold between, generation
    /// after generation.
    #[test]
    fn honest_restarts_reopen_across_flushes() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
        for generation in 0..3u32 {
            let store = ElsmP2::open_with(platform.clone(), fs.clone(), opts(), None).unwrap();
            for (key, value) in &model {
                assert_eq!(store.get(key).unwrap().expect("present").value(), &value[..]);
            }
            let flushes = store.db().stats().flushes;
            for i in 0..507u32 {
                let key = format!("key{:04}", (i * 7 + generation) % 300).into_bytes();
                let value = format!("g{generation}-{i}").into_bytes();
                store.put(&key, &value).unwrap();
                model.insert(key, value);
            }
            assert!(store.db().stats().flushes >= flushes + 3, "the run must cross flushes");
            assert!(store.db().level_records()[0] > 0, "and leave writes in the memtable");
            store.close().unwrap();
        }
        let store = ElsmP2::open_with(platform, fs, opts(), None).unwrap();
        for (key, value) in &model {
            assert_eq!(store.get(key).unwrap().expect("present").value(), &value[..]);
        }
        assert!(model.keys().any(|k| store.raw_get_trace(k).unwrap().memtable.is_some()));
    }
}

mod answer_is_verified {
    //! What a read returns is what the verifier checked: its answer is a
    //! view of the record in the trace it was handed, so a trace cannot
    //! verify as one record and be served as another. Every mutator of
    //! `support::adversary`, applied to honest traces of a store with three
    //! levels, a memtable, overwrites and tombstones, either fails
    //! verification or leaves the model's answer — never `Ok` with
    //! anything else.

    use super::*;
    use crate::support::adversary;
    use elsm_repro::lsm_store::{
        GetTrace, LevelOutcome, LevelRange, LevelSearch, Record, ScanTrace,
    };
    use std::collections::BTreeMap;
    use std::sync::Arc;

    type Model = BTreeMap<Vec<u8>, Vec<u8>>;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:04}").into_bytes()
    }

    /// 150 keys written in five rounds (every 7th slot a delete), the last
    /// half-round left in the memtable. Returns the store, the model, and
    /// every stored record by level.
    fn fixture() -> (ElsmP2, Model, Vec<(usize, Vec<Record>)>) {
        let options = P2Options { level1_max_bytes: 4 * 1024, ..opts() };
        let store = ElsmP2::open(Platform::with_defaults(), options).unwrap();
        let mut model = Model::new();
        for round in 0..5u32 {
            for i in 0..if round == 4 { 40 } else { 150 } {
                let k = key((i * 13 + round) % 150);
                if (i + round) % 7 == 0 {
                    store.delete(&k).unwrap();
                    model.remove(&k);
                } else {
                    let v = format!("r{round}-{i}").into_bytes();
                    store.put(&k, &v).unwrap();
                    model.insert(k, v);
                }
            }
            if round == 3 {
                store.db().flush().unwrap();
            }
        }
        let stored: Vec<(usize, Vec<Record>)> = (1..=store.trusted().max_levels())
            .map(|level| (level, store.db().level_record_dump(level).unwrap()))
            .filter(|(_, records)| !records.is_empty())
            .collect();
        let per_level = store.db().level_records();
        assert!(stored.len() >= 2, "the fixture must spread over levels: {per_level:?}");
        assert!(store.db().level_records()[0] > 0, "and keep a memtable");
        (store, model, stored)
    }

    fn hit_in(trace: &GetTrace) -> Option<(usize, &Record)> {
        trace.levels.iter().find_map(|search| match &search.outcome {
            LevelOutcome::Hit(record) => Some((search.level, record)),
            _ => None,
        })
    }

    #[test]
    fn no_mutator_yields_a_verified_wrong_answer() {
        let (store, model, stored) = fixture();
        let all = || stored.iter().flat_map(|(level, records)| records.iter().map(|r| (*level, r)));
        // An older version of the hit's key — same level first, any level
        // else — and the head of some other key's chain.
        let older = |trace: &GetTrace| {
            let (level, hit) = hit_in(trace)?;
            let mut candidates: Vec<(usize, &Record)> =
                all().filter(|(_, r)| r.key == hit.key && r.ts < hit.ts).collect();
            candidates.sort_by_key(|(at, r)| (*at != level, std::cmp::Reverse(r.ts)));
            candidates.first().map(|(_, r)| (*r).clone())
        };
        let foreign = |trace: &GetTrace| {
            let (level, hit) = hit_in(trace)?;
            all().find(|(at, r)| *at == level && r.key != hit.key).map(|(_, r)| r.clone())
        };
        type GetMutator<'a> = (&'static str, Box<dyn Fn(&mut GetTrace) + 'a>);
        let mut get_mutators: Vec<GetMutator> = vec![
            ("forge_hit_value", Box::new(|t| adversary::forge_hit_value(t, b"forged"))),
            ("splice_hit_record", Box::new(|t| adversary::splice_hit_record(t, 999_999))),
            ("suppress_hit", Box::new(adversary::suppress_hit)),
            (
                "substitute_stale(older version)",
                Box::new(|t| {
                    if let Some(stale) = older(t) {
                        adversary::substitute_stale(t, stale);
                    }
                }),
            ),
            (
                "substitute_stale(relabel_as_newest)",
                Box::new(|t| {
                    if let (Some(stale), Some((_, head))) = (older(t), hit_in(t)) {
                        let relabelled = adversary::relabel_as_newest(&stale, head);
                        adversary::substitute_stale(t, relabelled);
                    }
                }),
            ),
            (
                "substitute_stale(another key's record)",
                Box::new(|t| {
                    if let Some(other) = foreign(t) {
                        adversary::substitute_stale(t, other);
                    }
                }),
            ),
            (
                "substitute_stale(proofless_record)",
                Box::new(|t| {
                    if let Some((_, hit)) = hit_in(t) {
                        let fake = adversary::proofless_record(&hit.key, b"forged", hit.ts);
                        adversary::substitute_stale(t, fake);
                    }
                }),
            ),
            (
                "with_proof(another record's proof)",
                Box::new(|t| {
                    if let (Some(other), Some((_, hit))) = (foreign(t), hit_in(t)) {
                        let theirs = adversary::embedded_proof(&other);
                        let spliced = adversary::with_proof(hit, &theirs);
                        adversary::substitute_stale(t, spliced);
                    }
                }),
            ),
        ];
        for level in 1..=store.trusted().max_levels() {
            get_mutators.push(("hide_level", Box::new(move |t| adversary::hide_level(t, level))));
        }

        let (mut refused, mut unharmed) = (0, 0);
        // Every stored key, and ten absent keys between stored ones. (An
        // absent key past every level's last key is fenced out of every
        // level: its trace holds no level to attack.)
        let absent = (139..149).map(|i| [key(i), b"~".to_vec()].concat());
        for k in (0..150).map(key).chain(absent) {
            let shown = String::from_utf8_lossy(&k).into_owned();
            let honest = store.raw_get_trace(&k).unwrap();
            for (name, mutate) in &get_mutators {
                let mut trace = honest.clone();
                mutate(&mut trace);
                match store.verify_get_trace(&k, &trace) {
                    Err(_) => refused += 1,
                    Ok(answer) => {
                        let answer = answer.filter(|v| v.record.kind.is_value());
                        if let Some(v) = &answer {
                            assert_eq!(v.record.key, k, "{name}: another key's record verified");
                        }
                        assert_eq!(
                            answer.map(|v| v.value().to_vec()).as_ref(),
                            model.get(&k),
                            "{name} on {shown}: verified, and not the model's answer"
                        );
                        assert!(
                            trace == honest || hit_in(&honest).is_none() || *name == "hide_level",
                            "{name} on {shown}: a tampered hit verified"
                        );
                        unharmed += 1;
                    }
                }
            }
        }
        assert!(refused > 500 && unharmed > 500, "refused {refused}, unharmed {unharmed}");

        type ScanMutator = (&'static str, Box<dyn Fn(&mut ScanTrace)>);
        let mut scan_mutators: Vec<ScanMutator> = Vec::new();
        for level in 1..=store.trusted().max_levels() {
            for victim in [3u32, 41, 77, 120] {
                scan_mutators.push((
                    "drop_from_scan",
                    Box::new(move |t| adversary::drop_from_scan(t, level, &key(victim))),
                ));
            }
            for keep in [0usize, 1, 5] {
                scan_mutators.push((
                    "truncate_scan",
                    Box::new(move |t| adversary::truncate_scan(t, level, keep)),
                ));
            }
            // The level's range proof is read off the audit paths of the
            // run's two end records: every sibling of both, a byte each.
            for end in [adversary::ScanEnd::Lo, adversary::ScanEnd::Hi] {
                for byte in (0..32 * 10).step_by(11) {
                    scan_mutators.push((
                        "corrupt_scan_end_path",
                        Box::new(move |t| adversary::corrupt_scan_end_path(t, level, end, byte)),
                    ));
                }
            }
        }
        let (mut refused, mut unharmed, mut end_paths_refused) = (0, 0, 0);
        for (lo, hi) in [(0u32, 10), (35, 50), (70, 80), (110, 125), (140, 160), (0, 160)] {
            let (from, to) = (key(lo), key(hi));
            let honest = store.raw_scan_trace(&from, &to).unwrap();
            let expect: Vec<(&[u8], &[u8])> =
                model.range(from.clone()..=to.clone()).map(|(k, v)| (&k[..], &v[..])).collect();
            for (name, mutate) in &scan_mutators {
                let mut trace = honest.clone();
                mutate(&mut trace);
                match store.verify_scan_trace(&from, &to, &trace) {
                    Err(failure) => {
                        // A sibling the derived proof uses: the range does
                        // not reach the root (or the crown row).
                        assert!(
                            *name != "corrupt_scan_end_path"
                                || matches!(
                                    failure,
                                    VerificationFailure::IncompleteRange { .. }
                                        | VerificationFailure::ForgedRecord { .. }
                                ),
                            "{name} on {lo}..={hi}: {failure:?}"
                        );
                        refused += 1;
                        end_paths_refused += usize::from(*name == "corrupt_scan_end_path");
                    }
                    Ok(verified) => {
                        let values: Vec<_> = verified.iter().map(|v| v.value()).collect();
                        let got: Vec<(&[u8], &[u8])> = verified
                            .iter()
                            .zip(&values)
                            .map(|(v, b)| (&v.record.key[..], &b[..]))
                            .collect();
                        assert_eq!(got, expect, "{name} on {lo}..={hi}: verified, not the model's");
                        unharmed += 1;
                    }
                }
            }
        }
        assert!(refused > 20 && unharmed > 20, "refused {refused}, unharmed {unharmed}");
        assert!(end_paths_refused > 100, "the end paths are read: {end_paths_refused}");
    }

    // ----- fences: a level whose key range excludes the query -------------

    fn value(i: u32) -> Vec<u8> {
        format!("payload-{i:04}-{}", "x".repeat(24)).into_bytes()
    }

    /// Two levels over disjoint key ranges, as an ordered load leaves them:
    /// keys 0..100 on level 2, keys 100..200 on level 1, level 3 empty.
    fn disjoint_store(platform: &Arc<Platform>, fs: &Arc<SimFs>) -> ElsmP2 {
        let options = P2Options {
            // Explicit flushes and compactions only.
            write_buffer_bytes: 64 << 20,
            level1_max_bytes: 1 << 30,
            max_levels: 3,
            ..P2Options::default()
        };
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options, None).unwrap();
        let load = |range: std::ops::Range<u32>| {
            for i in range {
                store.put(&key(i), &value(i)).unwrap();
            }
            store.db().flush().unwrap();
        };
        load(0..100);
        store.db().compact(1).unwrap();
        load(100..200);
        assert_eq!(store.db().level_records()[1..], [100, 100, 0]);
        store
    }

    fn fresh_disjoint_store() -> ElsmP2 {
        let platform = Platform::with_defaults();
        disjoint_store(&platform, &SimFs::new(SimDisk::new(platform.clone())))
    }

    fn get_levels(trace: &GetTrace) -> Vec<usize> {
        trace.levels.iter().map(|l| l.level).collect()
    }

    fn scan_levels(trace: &ScanTrace) -> Vec<usize> {
        trace.levels.iter().map(|l| l.level).collect()
    }

    /// Level 1's leaf-0 record: the one neighbour a verifier that knew no
    /// fence would ask of level 1 for a key below its range.
    fn level1_edge(store: &ElsmP2) -> Record {
        store.db().level_record_dump(1).unwrap()[0].clone()
    }

    /// `trace` with level 1's evidence for a key below its range put back
    /// in front of the rest.
    fn with_level1_evidence(store: &ElsmP2, trace: &GetTrace) -> GetTrace {
        let mut trace = trace.clone();
        let outcome = LevelOutcome::Miss { left: None, right: Some(level1_edge(store)) };
        trace.levels.insert(0, LevelSearch { level: 1, outcome });
        trace
    }

    /// The same for a scan below level 1's range.
    fn with_level1_range(store: &ElsmP2, trace: &ScanTrace) -> ScanTrace {
        let mut trace = trace.clone();
        let right = Some(level1_edge(store));
        trace
            .levels
            .insert(0, LevelRange { level: 1, empty: false, records: vec![], left: None, right });
        trace
    }

    /// The level a `LevelSkipped` refusal expected (any other verdict fails
    /// the test).
    fn skipped<T: std::fmt::Debug>(result: Result<T, VerificationFailure>) -> u32 {
        match result {
            Err(VerificationFailure::LevelSkipped { expected }) => expected,
            other => panic!("expected a skipped level, got {other:?}"),
        }
    }

    /// A level whose fence excludes the query carries no evidence: level
    /// 1's edge leaf, presented for a key or a range below level 1, is a
    /// level out of order — though it is the very proof the level needed
    /// before it had a fence.
    #[test]
    fn evidence_at_a_fenced_level_is_refused() {
        let store = fresh_disjoint_store();
        let k = key(5);
        let honest = store.raw_get_trace(&k).unwrap();
        assert_eq!(get_levels(&honest), [2], "level 1 is passed over");
        let before = store.verify_stats();
        let got = store.verify_get_trace(&k, &honest).unwrap().expect("present");
        assert_eq!(got.value(), &value(5)[..]);
        assert_eq!(store.verify_stats().levels_fenced - before.levels_fenced, 1);
        assert_eq!(skipped(store.verify_get_trace(&k, &with_level1_evidence(&store, &honest))), 2);

        let (from, to) = (key(2), key(8));
        let honest = store.raw_scan_trace(&from, &to).unwrap();
        assert_eq!(scan_levels(&honest), [2, 3]);
        assert_eq!(store.verify_scan_trace(&from, &to, &honest).unwrap().len(), 7);
        let presented = with_level1_range(&store, &honest);
        assert_eq!(skipped(store.verify_scan_trace(&from, &to, &presented)), 2);
    }

    /// A level whose fence does not exclude the query must be in the trace,
    /// whether it holds the key or proves it absent, and so must an empty
    /// level (it has no fence).
    #[test]
    fn an_unfenced_level_left_out_is_refused() {
        let store = fresh_disjoint_store();
        // Absent, inside level 1's range and past level 2's.
        let absent = [key(150), b"~".to_vec()].concat();
        let honest = store.raw_get_trace(&absent).unwrap();
        assert_eq!(get_levels(&honest), [1, 3]);
        assert_eq!(store.verify_get_trace(&absent, &honest).map(|got| got.is_none()), Ok(true));
        for (drop, expected) in [(0, 1), (1, 3)] {
            let mut trace = honest.clone();
            trace.levels.remove(drop);
            assert_eq!(skipped(store.verify_get_trace(&absent, &trace)), expected);
        }
        let present = key(150);
        let mut trace = store.raw_get_trace(&present).unwrap();
        assert_eq!(get_levels(&trace), [1]);
        trace.levels.clear();
        assert_eq!(skipped(store.verify_get_trace(&present, &trace)), 1);

        // A range across both levels' ranges needs all three.
        let (from, to) = (key(95), key(105));
        let honest = store.raw_scan_trace(&from, &to).unwrap();
        assert_eq!(scan_levels(&honest), [1, 2, 3]);
        assert_eq!(store.verify_scan_trace(&from, &to, &honest).unwrap().len(), 11);
        for (drop, expected) in [(0, 1), (1, 2), (2, 3)] {
            let mut trace = honest.clone();
            trace.levels.remove(drop);
            assert_eq!(skipped(store.verify_scan_trace(&from, &to, &trace)), expected);
        }
    }

    /// A fence is the one of the trace's epoch: an install that moves level
    /// 1's first key below key 50 leaves an old trace verifying against the
    /// old fence, and the same trace named by the new epoch is missing a
    /// level.
    #[test]
    fn a_fence_is_its_epochs() {
        let store = fresh_disjoint_store();
        let k = key(50);
        let (from, to) = (key(45), key(55));
        let old_get = store.raw_get_trace(&k).unwrap();
        let old_scan = store.raw_scan_trace(&from, &to).unwrap();
        assert_eq!((get_levels(&old_get), scan_levels(&old_scan)), (vec![2], vec![2, 3]));
        let _pinned = store.db().current_version();
        // A flush merges into level 1, whose first key becomes key 40.
        store.put(&key(40), b"newer").unwrap();
        store.db().flush().unwrap();
        let new_get = store.raw_get_trace(&k).unwrap();
        let new_scan = store.raw_scan_trace(&from, &to).unwrap();
        assert!(new_get.epoch > old_get.epoch);
        assert_eq!((get_levels(&new_get), scan_levels(&new_scan)), (vec![1, 2], vec![1, 2, 3]));
        for trace in [&old_get, &new_get] {
            let got = store.verify_get_trace(&k, trace).unwrap().expect("present");
            assert_eq!(got.value(), &value(50)[..]);
        }
        for trace in [&old_scan, &new_scan] {
            assert_eq!(store.verify_scan_trace(&from, &to, trace).unwrap().len(), 11);
        }
        // Each trace relabelled to the other epoch.
        let relabel = |mut trace: GetTrace, epoch| {
            trace.epoch = epoch;
            store.verify_get_trace(&k, &trace).map(|got| got.map(|v| v.value()))
        };
        assert_eq!(skipped(relabel(old_get.clone(), new_get.epoch)), 1);
        assert_eq!(skipped(relabel(new_get.clone(), old_get.epoch)), 2);
        let relabel = |mut trace: ScanTrace, epoch| {
            trace.epoch = epoch;
            store.verify_scan_trace(&from, &to, &trace).map(|got| got.len())
        };
        assert_eq!(skipped(relabel(old_scan.clone(), new_scan.epoch)), 1);
        assert_eq!(skipped(relabel(new_scan, old_scan.epoch)), 2);
    }

    /// A fence is re-derived at restart with the crown, from a rebuilt
    /// tree whose root is the unsealed one. A level the host altered while
    /// the store was down keeps its bare root, which has no fence: the
    /// host's own key range for it then excuses nothing, and a read that
    /// leaves it out is refused. Its untouched edge leaf, presented, still
    /// proves the level.
    #[test]
    fn a_tampered_level_is_unfenced_after_restart() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let store = disjoint_store(&platform, &fs);
        let options = store.options().clone();
        let crowns =
            |store: &ElsmP2| (store.trusted().crown_nodes(1), store.trusted().crown_nodes(2));
        let (l1, l2) = crowns(&store);
        assert!(l1 > 1 && l2 > 1);
        store.close().unwrap();
        drop(store);
        // Alter one byte of key 150's value where it sits on disk.
        let needle = value(150);
        let hit = fs.list().into_iter().filter(|n| n.ends_with(".sst")).find_map(|name| {
            let file = fs.open(&name).unwrap();
            let bytes = file.read_at(0, file.len()).unwrap();
            let at = bytes.windows(needle.len()).position(|w| w == &needle[..])?;
            Some((file, at))
        });
        let (file, at) = hit.expect("the value is on disk in the clear");
        file.corrupt(at + 3, 0x20);
        let store = ElsmP2::open_with(platform, fs, options, None).unwrap();
        assert_eq!(crowns(&store), (1, l2), "level 1 keeps its bare root, level 2 its crown");

        let k = key(5);
        match store.get(&k) {
            Err(ElsmError::Verification(VerificationFailure::LevelSkipped { expected: 1 })) => {}
            other => panic!("level 1 left out must be refused, got {other:?}"),
        }
        let honest = store.raw_get_trace(&k).unwrap();
        assert_eq!(get_levels(&honest), [2]);
        let presented = with_level1_evidence(&store, &honest);
        let got = store.verify_get_trace(&k, &presented).unwrap();
        assert_eq!(got.expect("present").value(), &value(5)[..]);

        let (from, to) = (key(2), key(8));
        let honest = store.raw_scan_trace(&from, &to).unwrap();
        assert_eq!(skipped(store.verify_scan_trace(&from, &to, &honest)), 1);
        let presented = with_level1_range(&store, &honest);
        assert_eq!(store.verify_scan_trace(&from, &to, &presented).unwrap().len(), 7);
        // Level 2 kept its fence: a miss above it passes it over.
        let above = [key(170), b"~".to_vec()].concat();
        let trace = store.raw_get_trace(&above).unwrap();
        assert_eq!(get_levels(&trace), [1, 3]);
        assert_eq!(store.verify_get_trace(&above, &trace).map(|got| got.is_none()), Ok(true));
    }

    /// With compaction off each flush stacks a run at the first empty
    /// level, so the version outgrows `max_levels`. A clean restart fences
    /// every level it holds, not only the first `max_levels`: an honest
    /// read of the oldest run passes over the three newer ones and verifies.
    #[test]
    fn an_honest_restart_fences_levels_past_max_levels() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = P2Options {
            compaction_enabled: false,
            write_buffer_bytes: 64 << 20,
            max_levels: 2,
            ..P2Options::default()
        };
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
        for run in 0..4 {
            for i in run * 25..(run + 1) * 25 {
                store.put(&key(i), &value(i)).unwrap();
            }
            store.db().flush().unwrap();
        }
        assert_eq!(store.db().level_records()[1..], [25, 25, 25, 25]);
        store.close().unwrap();
        drop(store);

        let store = ElsmP2::open_with(platform, fs, options, None).unwrap();
        assert!((1..=4).all(|level| store.trusted().crown_nodes(level) > 1), "every crown back");
        let k = key(5);
        assert_eq!(get_levels(&store.raw_get_trace(&k).unwrap()), [1]);
        let before = store.verify_stats();
        assert_eq!(store.get(&k).unwrap().expect("present").value(), &value(5)[..]);
        assert_eq!(store.verify_stats().levels_fenced - before.levels_fenced, 3);
        let (from, to) = (key(2), key(8));
        assert_eq!(scan_levels(&store.raw_scan_trace(&from, &to).unwrap()), [1]);
        assert_eq!(store.scan(&from, &to).unwrap().len(), 7);
    }
}

// ----- version chains: links, walks, chain heads --------------------------

mod chain {
    //! The rules older versions verify by, attacked on a real store: a key
    //! with many versions compacted into one level, whose chain straddles
    //! data blocks.

    use super::*;
    use crate::support::adversary;
    use elsm_repro::lsm_store::{LevelOutcome, Record};
    use elsm_repro::merkle::{ChainPosition, VerifyError};

    const HOT: &[u8] = b"key0020";
    const OTHER: &[u8] = b"key0010";

    /// 40 keys, of which [`HOT`] is then updated to `versions` versions
    /// (200-byte values) and [`OTHER`] to a few, flushed every ten updates
    /// so the chains are compaction output, all at one level. Returns the store,
    /// that level, and `HOT`'s stored chain, newest first.
    fn chain_store(versions: usize) -> (ElsmP2, usize, Vec<Record>) {
        let options = P2Options { write_buffer_bytes: 1 << 20, ..P2Options::default() };
        let store = ElsmP2::open(Platform::with_defaults(), options).unwrap();
        for i in 0..40u32 {
            store.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        for v in 1..versions {
            store.put(HOT, &[v as u8; 200]).unwrap();
            if v % 10 == 9 {
                store.put(OTHER, format!("other-{v}").as_bytes()).unwrap();
                store.db().flush().unwrap();
            }
        }
        store.db().flush().unwrap();
        let levels: Vec<usize> = (1..=store.trusted().max_levels())
            .filter(|&level| !store.db().level_record_dump(level).unwrap().is_empty())
            .collect();
        assert_eq!(levels.len(), 1, "the fixture keeps everything at one level");
        let mut chain: Vec<Record> = store
            .db()
            .level_record_dump(levels[0])
            .unwrap()
            .into_iter()
            .filter(|r| r.key == HOT)
            .collect();
        chain.sort_by_key(|r| std::cmp::Reverse(r.ts));
        assert_eq!(chain.len(), versions);
        (store, levels[0], chain)
    }

    #[test]
    fn chain_stale_hit_is_rejected_by_its_own_claim() {
        let (store, level, chain) = chain_store(30);
        assert_eq!(store.get(HOT).unwrap().expect("present").value(), &[29u8; 200][..]);
        for position in [1usize, 7, 29] {
            // The stale version with the link it is stored with: refused
            // on what the link says, with nothing hashed.
            let mut trace = store.raw_get_trace(HOT).unwrap();
            adversary::substitute_stale(&mut trace, chain[position].clone());
            let hashed = store.platform().stats().hash_blocks;
            match store.verify_get_trace(HOT, &trace) {
                Err(VerificationFailure::StaleRecord { level: at, newer_versions }) => {
                    assert_eq!((at as usize, newer_versions), (level, position));
                }
                other => panic!("stale version {position} must be refused, got {other:?}"),
            }
            assert_eq!(store.platform().stats().hash_blocks, hashed, "refused before hashing");
            // The same record relabelled as the newest, under the real
            // head's audit path: the path does not reach the root.
            let relabelled = adversary::relabel_as_newest(&chain[position], &chain[0]);
            adversary::substitute_stale(&mut trace, relabelled);
            match store.verify_get_trace(HOT, &trace) {
                Err(VerificationFailure::ForgedRecord {
                    source: VerifyError::BadAuditPath,
                    ..
                }) => {}
                other => panic!("relabelled version {position} must be forged, got {other:?}"),
            }
        }
        assert!(store.telemetry().audit_count("StaleRecord") >= 3);
    }

    /// Verifies a scan over the hot key's neighbourhood after `edit`
    /// rewrote the chain's level slice (`at` = index of the chain's head).
    fn scan_verdict(
        store: &ElsmP2,
        level: usize,
        edit: impl FnOnce(&mut Vec<Record>, usize),
    ) -> Result<(), VerificationFailure> {
        let (from, to) = (b"key0005".as_slice(), b"key0025".as_slice());
        let mut trace = store.raw_scan_trace(from, to).unwrap();
        let slice = trace.levels.iter_mut().find(|l| l.level == level).expect("the level");
        let at = slice.records.iter().position(|r| r.key == HOT).expect("the chain's head");
        edit(&mut slice.records, at);
        store.verify_scan_trace(from, to, &trace).map(drop)
    }

    #[test]
    fn chain_scan_accepts_the_chain_and_nothing_else() {
        let (store, level, chain) = chain_store(30);
        assert_eq!(scan_verdict(&store, level, |_, _| {}), Ok(()));
        let broken = Err(VerificationFailure::ForgedRecord {
            level: level as u32,
            source: VerifyError::BrokenChain,
        });
        // A middle version dropped.
        assert_eq!(scan_verdict(&store, level, |r, at| drop(r.remove(at + 12))), broken);
        // One byte of one value flipped.
        let flip = |r: &mut Vec<Record>, at: usize| {
            let mut value = r[at + 5].value.to_vec();
            value[10] ^= 0x01;
            r[at + 5].value = value.into();
        };
        assert_eq!(scan_verdict(&store, level, flip), broken);
        // One link's older digest altered.
        let alter = |r: &mut Vec<Record>, at: usize| {
            let mut proof = adversary::embedded_proof(&r[at + 5]);
            let ChainPosition::Link { older_digest, .. } = &mut proof.chain else {
                panic!("an older version stores a link");
            };
            *older_digest = elsm_repro::crypto::sha256(b"elsewhere");
            r[at + 5] = adversary::with_proof(&r[at + 5], &proof);
        };
        assert_eq!(scan_verdict(&store, level, alter), broken);
        // The link of another key's chain (same position) spliced in.
        let splice = |r: &mut Vec<Record>, at: usize| {
            let other = r.iter().position(|r| r.key == OTHER).expect("the other chain");
            let theirs = adversary::embedded_proof(&r[other + 2]);
            r[at + 2] = adversary::with_proof(&r[at + 2], &theirs);
        };
        assert_eq!(scan_verdict(&store, level, splice), broken);
        // A link whose leaf index disagrees with its head's.
        let relocate = |r: &mut Vec<Record>, at: usize| {
            let mut proof = adversary::embedded_proof(&r[at + 2]);
            proof.leaf_index += 1;
            r[at + 2] = adversary::with_proof(&r[at + 2], &proof);
        };
        assert_eq!(scan_verdict(&store, level, relocate), broken);
        // Two versions swapped: the first of them arrives out of turn.
        assert_eq!(scan_verdict(&store, level, |r, at| r.swap(at + 3, at + 4)), broken);
        // The head missing: what leads the group is a link.
        assert_eq!(
            scan_verdict(&store, level, |r, at| drop(r.remove(at))),
            Err(VerificationFailure::StaleRecord { level: level as u32, newer_versions: 1 })
        );
        // An older version relabelled as a second head inside the group.
        let relabel = |r: &mut Vec<Record>, at: usize| {
            r[at + 1] = adversary::relabel_as_newest(&chain[1], &chain[0]);
        };
        assert_eq!(scan_verdict(&store, level, relabel), broken);
    }

    #[test]
    fn chain_link_offered_as_neighbor_or_boundary_is_rejected() {
        let (store, level, chain) = chain_store(30);
        let stale = |newer_versions| VerificationFailure::StaleRecord {
            level: level as u32,
            newer_versions,
        };
        // Non-membership just above the hot key: the honest left neighbour
        // is the chain's head, though the chain fills several blocks.
        let absent = b"key0020x";
        let mut trace = store.raw_get_trace(absent).unwrap();
        assert_eq!(store.verify_get_trace(absent, &trace), Ok(None));
        let search = trace.levels.iter_mut().find(|l| l.level == level).expect("the level");
        let LevelOutcome::Miss { left, .. } = &mut search.outcome else { panic!("a miss") };
        assert_eq!(left.as_ref(), Some(&chain[0]), "the left neighbour is the chain head");
        *left = Some(chain[9].clone());
        let failure = store.verify_get_trace(absent, &trace).expect_err("a link is no neighbour");
        assert_eq!(failure, stale(9));
        // ... and just below it, on the right.
        let absent = b"key0019x";
        let mut trace = store.raw_get_trace(absent).unwrap();
        assert_eq!(store.verify_get_trace(absent, &trace), Ok(None));
        let search = trace.levels.iter_mut().find(|l| l.level == level).expect("the level");
        let LevelOutcome::Miss { right, .. } = &mut search.outcome else { panic!("a miss") };
        assert_eq!(right.as_ref(), Some(&chain[0]));
        *right = Some(chain[29].clone());
        let failure = store.verify_get_trace(absent, &trace).expect_err("a link is no neighbour");
        assert_eq!(failure, stale(29));

        // Range boundaries: the hot key just outside the range on either
        // side.
        for (from, to, hot_is_left) in
            [(&b"key0021"[..], &b"key0025"[..], true), (&b"key0015"[..], &b"key0019"[..], false)]
        {
            let mut trace = store.raw_scan_trace(from, to).unwrap();
            assert_eq!(store.verify_scan_trace(from, to, &trace).map(drop), Ok(()));
            let slice = trace.levels.iter_mut().find(|l| l.level == level).expect("the level");
            let boundary = if hot_is_left { &mut slice.left } else { &mut slice.right };
            assert_eq!(boundary.as_ref(), Some(&chain[0]), "the boundary is the chain head");
            *boundary = Some(chain[4].clone());
            assert_eq!(
                store.verify_scan_trace(from, to, &trace),
                Err(VerificationFailure::StaleRecord { level: level as u32, newer_versions: 4 })
            );
        }
    }

    /// An honest scan hashes every version of a chain once: the enclave's
    /// hash blocks grow linearly in the version count (with every older
    /// version re-exposing all newer ones they grew quadratically).
    #[test]
    fn chain_scan_hashes_each_version_once() {
        let blocks_for = |versions: usize| {
            let (store, _, _) = chain_store(versions);
            let trace = store.raw_scan_trace(HOT, HOT).unwrap();
            let before = store.platform().stats().hash_blocks;
            assert_eq!(store.verify_scan_trace(HOT, HOT, &trace).map(drop), Ok(()));
            store.platform().stats().hash_blocks - before
        };
        let (b10, b20, b40) = (blocks_for(10), blocks_for(20), blocks_for(40));
        let per_version = (b20 - b10) / 10;
        assert!(per_version >= 4, "a 200-byte record and a digest are at least 4 blocks");
        assert_eq!(b20 - b10, 10 * per_version, "every version costs the same");
        assert_eq!(b40 - b20, 20 * per_version, "twice the versions, twice the blocks");
    }
}

/// The end rule of a level's run, for a GET (the range `[key, key]`) and a
/// scan alike: each end of the leaves a level presents is anchored by a
/// boundary outside the range, by the tree's edge, or by a record whose key
/// is that end of the range. Every attack below moves an end of a run whose
/// leaves still walk to the committed root, and is an incomplete range.
mod range_ends {
    use super::*;
    use crate::support::adversary;
    use elsm_repro::lsm_store::{LevelOutcome, LevelRange, Record};

    fn key(i: usize) -> Vec<u8> {
        format!("key{i:04}").into_bytes()
    }

    /// 40 keys at one level, and its records (record `i` is leaf `i`).
    fn one_level() -> (ElsmP2, usize, Vec<Record>) {
        let store = ElsmP2::open(Platform::with_defaults(), P2Options::default()).unwrap();
        for i in 0..40 {
            store.put(&key(i), b"v").unwrap();
        }
        store.db().flush().unwrap();
        let dump = |level| store.db().level_record_dump(level).unwrap();
        let level = (1..=store.trusted().max_levels()).find(|&l| !dump(l).is_empty()).unwrap();
        let records = dump(level);
        assert_eq!(records.len(), 40);
        (store, level, records)
    }

    fn incomplete<T: std::fmt::Debug>(result: Result<T, VerificationFailure>) -> bool {
        matches!(result, Err(VerificationFailure::IncompleteRange { .. }))
    }

    #[test]
    fn a_present_key_cannot_be_answered_by_a_miss() {
        let (store, level, records) = one_level();
        let miss = |i: usize, left: Option<usize>, right: Option<usize>| {
            let mut trace = store.raw_get_trace(&key(i)).unwrap();
            let search = trace.levels.iter_mut().find(|l| l.level == level).unwrap();
            assert!(matches!(search.outcome, LevelOutcome::Hit(_)));
            let neighbour = |j: Option<usize>| j.map(|j| records[j].clone());
            search.outcome = LevelOutcome::Miss { left: neighbour(left), right: neighbour(right) };
            store.verify_get_trace(&key(i), &trace).map(|answer| answer.is_some())
        };
        // One neighbour and no edge behind the other end; the key itself as
        // the neighbour, at the edge that would anchor the other end.
        for (i, left, right) in [(20, None, Some(21)), (20, Some(19), None), (39, Some(39), None)] {
            assert!(incomplete(miss(i, left, right)), "key {i}: {left:?} / {right:?}");
        }
        assert!(incomplete(miss(0, None, Some(0))));
    }

    #[test]
    fn a_scan_cannot_move_an_end_of_its_run() {
        let (store, level, _) = one_level();
        let scan = |(from, to): (usize, usize), edit: &dyn Fn(&mut LevelRange)| {
            let mut trace = store.raw_scan_trace(&key(from), &key(to)).unwrap();
            edit(trace.levels.iter_mut().find(|l| l.level == level).unwrap());
            store.verify_scan_trace(&key(from), &key(to), &trace).map(|got| got.len())
        };
        assert_eq!(scan((10, 20), &|_| {}), Ok(11));
        // The first key in range offered as the left boundary.
        assert!(incomplete(scan((10, 20), &|l| l.left = Some(l.records.remove(0)))));
        // The start and the records after it dropped: the run starts mid-range.
        assert!(incomplete(scan((10, 20), &|l| {
            l.left = None;
            l.records.drain(..3);
        })));
        // Leaf 0, the boundary, offered as in range: its edge anchors the run.
        assert!(incomplete(scan((1, 5), &|l| l.records.insert(0, l.left.take().unwrap()))));
        // The end dropped, and the last record kept relabelled as the last
        // leaf of the tree: its leaf index is no part of its leaf.
        assert!(incomplete(scan((30, 38), &|l| {
            l.right = None;
            l.records.truncate(4);
            let last = l.records.last_mut().unwrap();
            let mut proof = adversary::embedded_proof(last);
            proof.leaf_index = 39;
            *last = adversary::with_proof(last, &proof);
        })));
    }
}

/// Crowns: the enclave keeps each level's top Merkle rows and a read is
/// hashed only up to them. None of the cases above was touched for it;
/// these add what only exists with crowns.
mod crown {
    use super::*;
    use crate::support::adversary;
    use elsm_repro::lsm_store::{GetTrace, LevelOutcome, Record};
    use elsm_repro::merkle::{ChainPosition, VerifyError};

    const KEYS: u32 = 3000;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:05}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        format!("payload-{i:05}-{}", "x".repeat(40)).into_bytes()
    }

    /// One level of `KEYS` leaves — taller than a crown, so a path has
    /// rows below the anchor row and rows above it.
    fn tall_store(platform: &std::sync::Arc<Platform>, fs: &std::sync::Arc<SimFs>) -> ElsmP2 {
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), P2Options::default(), None)
            .expect("open");
        for i in 0..KEYS {
            store.put(&key(i), &value(i)).unwrap();
        }
        store.db().flush().unwrap();
        store
    }

    /// The one populated level and its leaf count.
    fn tall_level(store: &ElsmP2) -> u32 {
        let populated: Vec<_> =
            store.trusted().commitments().into_iter().filter(|c| !c.is_empty()).collect();
        assert_eq!(populated.len(), 1, "the fixture keeps everything in one level");
        assert_eq!(populated[0].leaf_count, u64::from(KEYS));
        populated[0].level
    }

    fn with_hit(trace: &GetTrace, record: Record) -> GetTrace {
        let mut trace = trace.clone();
        let slot = trace
            .levels
            .iter_mut()
            .find(|l| matches!(l.outcome, LevelOutcome::Hit(_)))
            .expect("a hit level");
        slot.outcome = LevelOutcome::Hit(record);
        trace
    }

    /// One flipped byte anywhere in a hit's audit path is a forged record:
    /// in the rows the verifier hashes below the crown, and in the rows it
    /// compares against the crown above.
    #[test]
    fn every_audit_path_byte_is_checked_below_and_above_the_anchor_row() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let store = tall_store(&platform, &fs);
        let level = tall_level(&store);
        assert!(store.trusted().crown_nodes(level) > 1024, "the level has its crown");
        for k in [0, 1, 1023, 1024, 1777, KEYS - 1] {
            let trace = store.raw_get_trace(&key(k)).unwrap();
            let before = store.verify_stats();
            store.verify_get_trace(&key(k), &trace).expect("honest");
            let after = store.verify_stats();
            let hashed = (after.nodes_hashed - before.nodes_hashed) as usize;
            let compared = (after.nodes_compared - before.nodes_compared) as usize;
            let hit = trace.answer().expect("hit").clone();
            let honest = adversary::embedded_proof(&hit);
            let ChainPosition::Newest { audit_path, .. } = &honest.chain else { panic!("a head") };
            // 3000 leaves: rows of 3000 and 1500 are hashed, 750 and up
            // are the crown's.
            assert_eq!(hashed, 2, "key {k}");
            assert_eq!(hashed + compared, audit_path.len() + 1, "every sibling, and the anchor");
            for sibling in 0..audit_path.len() {
                for byte in 0..32 {
                    let mut proof = honest.clone();
                    let ChainPosition::Newest { audit_path, .. } = &mut proof.chain else {
                        unreachable!()
                    };
                    let mut bytes = *audit_path[sibling].as_bytes();
                    bytes[byte] ^= 0x01;
                    audit_path[sibling] = elsm_repro::crypto::Digest::from_bytes(bytes);
                    let forged = with_hit(&trace, adversary::with_proof(&hit, &proof));
                    assert_eq!(
                        store.verify_get_trace(&key(k), &forged),
                        Err(VerificationFailure::ForgedRecord {
                            level,
                            source: VerifyError::BadAuditPath
                        }),
                        "key {k} sibling {sibling} ({}) byte {byte}",
                        if sibling < hashed { "hashed" } else { "compared" },
                    );
                }
            }
        }
    }

    /// Restart: a crown is re-derived only from a rebuilt tree whose root
    /// is the unsealed one. A level the host tampered with while the store
    /// was down rebuilds to another root, gets no crown, and its reads
    /// fail as they did before crowns existed — the altered record is
    /// never accepted through rows built from the host's bytes.
    #[test]
    fn tampered_level_gets_no_crown_at_restart() {
        let reopen = |tamper: bool| {
            let platform = Platform::with_defaults();
            let fs = SimFs::new(SimDisk::new(platform.clone()));
            let store = tall_store(&platform, &fs);
            let level = tall_level(&store);
            let crown_nodes = store.trusted().crown_nodes(level);
            store.close().unwrap();
            drop(store);
            if tamper {
                // Alter one byte of key 1500's value where it sits on disk.
                let needle = value(1500);
                let hit = fs.list().into_iter().filter(|n| n.ends_with(".sst")).find_map(|name| {
                    let file = fs.open(&name).unwrap();
                    let bytes = file.read_at(0, file.len()).unwrap();
                    let at = bytes.windows(needle.len()).position(|w| w == &needle[..])?;
                    Some((file, at))
                });
                let (file, at) = hit.expect("the value is on disk in the clear");
                file.corrupt(at + 3, 0x20);
            }
            let store = ElsmP2::open_with(platform, fs, P2Options::default(), None).unwrap();
            assert_eq!(tall_level(&store), level, "the unsealed commitment is what was sealed");
            (store, level, crown_nodes)
        };

        let (honest, level, crown_nodes) = reopen(false);
        assert_eq!(honest.trusted().crown_nodes(level), crown_nodes, "re-derived in full");
        assert_eq!(honest.get(&key(1500)).unwrap().unwrap().value(), &value(1500)[..]);

        let (tampered, level, _) = reopen(true);
        assert_eq!(tampered.trusted().crown_nodes(level), 1, "the root alone: nothing adopted");
        match tampered.get(&key(1500)) {
            Err(ElsmError::Verification(VerificationFailure::ForgedRecord {
                level: l,
                source,
            })) => {
                assert_eq!((l, source), (level, VerifyError::BadAuditPath));
            }
            other => panic!("the altered record must be refused, got {other:?}"),
        }
        // Its untouched neighbours still verify, by the whole walk to the
        // root: nothing is compared against rows the enclave did not adopt.
        let before = tampered.verify_stats();
        for k in [0, 1499, 1501, KEYS - 1] {
            assert_eq!(tampered.get(&key(k)).unwrap().unwrap().value(), &value(k)[..]);
        }
        let after = tampered.verify_stats();
        assert_eq!(after.nodes_compared - before.nodes_compared, 4, "one root each");
        assert!(after.nodes_hashed - before.nodes_hashed >= 4 * 11);
        // A scan across the altered record is refused too.
        assert!(matches!(tampered.scan(&key(1495), &key(1505)), Err(ElsmError::Verification(_))));
    }
}

mod merge_input {
    //! The host owns the bytes a compaction reads. A table that stops
    //! decoding part-way must fail the job; it used to *end the table*, and
    //! the merge wrote the shorter level it had seen so far.

    use super::*;
    use elsm_repro::lsm_store::{Db, EnvConfig, Options, StorageEnv};
    use support::adversary::data_blocks;

    /// Breaks the first entry header of a block in the middle of the
    /// level-1 table: the restart entry now claims to share key bytes with
    /// a predecessor it does not have. Everything before it still decodes.
    /// Returns the flip that mends it again.
    fn corrupt_mid_table_block(fs: &SimFs) -> impl Fn() {
        let sst = fs.list().into_iter().find(|n| n.ends_with(".sst")).expect("a table");
        let file = fs.open(&sst).unwrap();
        let blocks = data_blocks(&file);
        assert!(blocks.len() >= 4, "the table must have a middle: {} blocks", blocks.len());
        let (offset, _) = blocks[blocks.len() / 2];
        assert_eq!(file.peek(offset, 1).unwrap()[0], 0, "a restart entry shares nothing");
        let flip = move || file.corrupt(offset, 0x05);
        flip();
        flip
    }

    #[test]
    fn a_table_that_stops_decoding_fails_the_compaction() {
        // A bare store first: nothing above it could notice a short level.
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = Options {
            write_buffer_bytes: 1 << 20, // explicit flushes only
            max_levels: 3,
            env: EnvConfig { block_cache_bytes: 0, ..EnvConfig::default() },
            ..Options::default()
        };
        let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
        let db = Db::open(env, options, None).unwrap();
        for i in 0..600u32 {
            db.put(format!("key{i:04}").as_bytes(), &[i as u8; 64]).unwrap();
        }
        db.flush().unwrap();
        let (epoch, records) = (db.current_epoch(), db.level_records());
        assert_eq!(records[1], 600, "one level-1 run: {records:?}");
        let files = fs.list();
        let mend = corrupt_mid_table_block(&fs);

        assert!(db.compact(1).is_err(), "a short read of an input must fail the job");
        assert_eq!(db.current_epoch(), epoch, "nothing installed");
        assert_eq!(db.level_records(), records, "the level is as long as it was");
        assert_eq!(fs.list(), files, "and no output file was left behind");
        assert!(db.level_record_dump(1).is_err(), "a dump does not pass for a shorter level");
        // The same merge through a flush into the level fails after the
        // memtable froze. The frozen records stay in the read path, and the
        // next flush finishes that one instead of freezing over it.
        db.put(b"key0000", b"late").unwrap();
        assert!(db.flush().is_err());
        db.put(b"key0001", b"later").unwrap();
        assert!(db.flush().is_err());
        assert_eq!(db.level_records()[1], 600);
        assert_eq!(&db.get(b"key0000").unwrap().unwrap().value[..], b"late");
        assert_eq!(&db.get(b"key0001").unwrap().unwrap().value[..], b"later");
        // Once the table reads back, one flush completes both.
        mend();
        db.flush().unwrap();
        assert_eq!(db.level_records()[1], 602);
        assert_eq!(&db.get(b"key0000").unwrap().unwrap().value[..], b"late");
        assert_eq!(&db.get(b"key0001").unwrap().unwrap().value[..], b"later");
    }

    /// A flush that fails after its freeze must not let a later flush drop
    /// the frozen memtable: the level below still proves the old values.
    #[test]
    fn a_failed_flush_never_serves_a_stale_read() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = P2Options { write_buffer_bytes: 16 * 1024, ..P2Options::default() };
        let store = ElsmP2::open_with(platform, fs.clone(), options, None).unwrap();
        let key = |i: u32| format!("key{i:04}").into_bytes();
        for i in 0..300 {
            store.put(&key(i), &[1; 64]).unwrap();
        }
        store.db().flush().unwrap();
        assert_eq!(store.db().level_records()[1], 300, "one level-1 run");
        let _ = corrupt_mid_table_block(&fs);

        // Overwrite the level's keys, several write buffers' worth. A put
        // whose flush failed was applied all the same: either value is right.
        let mut acceptable: Vec<Vec<[u8; 64]>> = vec![vec![[1; 64]]; 300];
        let mut failed_puts = 0;
        for round in 2..5u8 {
            for i in 0..300 {
                match store.put(&key(i), &[round; 64]) {
                    Ok(_) => acceptable[i as usize] = vec![[round; 64]],
                    Err(_) => {
                        acceptable[i as usize].push([round; 64]);
                        failed_puts += 1;
                    }
                }
            }
        }
        assert!(failed_puts > 0, "the flush into the broken level must surface");
        assert!(store.db().flush().is_err(), "a retry fails again; it does not panic");
        assert_eq!(store.db().level_records()[1], 300, "never a shorter level");
        for i in 0..300 {
            match store.get(&key(i)) {
                Ok(Some(r)) => assert!(
                    acceptable[i as usize].iter().any(|v| r.value() == &v[..]),
                    "key{i:04} read back a value it no longer has"
                ),
                Ok(None) => panic!("key{i:04} verified as absent"),
                Err(ElsmError::Verification(_) | ElsmError::Poisoned) => {}
                Err(other) => panic!("neither the value nor a refusal: {other:?}"),
            }
        }
    }

    /// A flush whose merge failed keeps two logs live — the one that covers
    /// the frozen memtable and the active one. A clean close seals a WAL
    /// base and digest those logs fold between, both while the flush is
    /// still pending and after a later flush finished it.
    #[test]
    fn a_failed_flush_still_reopens_on_its_logs() {
        use elsm_repro::elsm::envelope::wrap_plain;
        let options = P2Options {
            write_buffer_bytes: 1 << 20, // explicit flushes only
            ..P2Options::default()
        };
        let key = |i: u32| format!("key{i:04}").into_bytes();
        for finish_the_flush in [false, true] {
            let platform = Platform::with_defaults();
            let fs = SimFs::new(SimDisk::new(platform.clone()));
            let store =
                ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
            for i in 0..300 {
                store.put(&key(i), &[1; 64]).unwrap();
            }
            store.db().flush().unwrap();
            let mend = corrupt_mid_table_block(&fs);
            for i in 300..310 {
                store.put(&key(i), b"frozen").unwrap();
            }
            assert!(store.db().flush().is_err(), "the merge into the broken level fails");
            let logs = fs.list().into_iter().filter(|n| n.starts_with("wal-")).count();
            assert_eq!(logs, 2, "the frozen memtable's log and the active one");
            mend();
            // The enclave refuses service from here on; the store below it
            // still takes writes, as it does from a replica's stream.
            assert!(matches!(store.put(b"x", b"y"), Err(ElsmError::Poisoned)));
            store.db().put(&key(400), &wrap_plain(b"active")).unwrap();
            if finish_the_flush {
                store.db().flush().unwrap();
                store.db().put(&key(401), &wrap_plain(b"after")).unwrap();
            }
            store.close().unwrap();
            drop(store);

            let store = ElsmP2::open_with(platform, fs, options.clone(), None)
                .unwrap_or_else(|e| panic!("finish_the_flush={finish_the_flush}: {e:?}"));
            // What the replayed logs hold is served from the memtable.
            let expect: &[(u32, &[u8])] = match finish_the_flush {
                false => &[(300, b"frozen"), (309, b"frozen"), (400, b"active")],
                true => &[(401, b"after")],
            };
            for &(i, value) in expect {
                assert_eq!(store.get(&key(i)).unwrap().expect("present").value(), value);
            }
        }
    }

    #[test]
    fn an_authenticated_store_never_installs_the_shorter_level() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options =
            P2Options { write_buffer_bytes: 1 << 20, max_levels: 3, ..P2Options::default() };
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options.clone(), None).unwrap();
        for i in 0..600u32 {
            store.put(format!("key{i:04}").as_bytes(), &[i as u8; 64]).unwrap();
        }
        store.db().flush().unwrap();
        let records = store.db().level_records();
        let commitments = store.trusted().commitments();
        let _ = corrupt_mid_table_block(&fs);

        let compacted = store.db().compact(1);
        assert!(compacted.is_err() && store.trusted().is_poisoned(), "fails and refuses service");
        assert_eq!(store.db().level_records(), records, "never a shorter level");
        assert_eq!(store.trusted().commitments(), commitments, "nothing new was signed");
        assert!(matches!(store.get(b"key0000"), Err(ElsmError::Poisoned)));
        // Recovery streams the same tables: it reports the table instead
        // of rebuilding a digest over the part that decodes.
        store.close().unwrap();
        drop(store);
        assert!(ElsmP2::open_with(platform, fs, options, None).is_err());
    }
}

mod unclean_shutdown {
    //! Stores that went down without `close()`, and a manifest lost. The
    //! sealed state rides every manifest write, so a store dropped without
    //! `close()` reopens on its last manifest — and is refused when writes
    //! logged after it carry the replay past the sealed WAL digest (a tail
    //! the enclave cannot tell from forged frames). What these tests pin is
    //! that no read returns anything but the model's value or a
    //! verification failure, and that no open is an IO error.
    //! `tests/crash_sweep.rs` crashes at every filesystem op.

    use super::*;
    use std::collections::BTreeMap;

    fn options() -> P2Options {
        P2Options { write_buffer_bytes: 8 * 1024, ..P2Options::default() }
    }

    fn put_batch(store: &ElsmP2, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, round: u8) {
        for i in 0..2000u32 {
            let key = format!("user{:05}", (i * 7) % 1500).into_bytes();
            let value = vec![round ^ i as u8; 64];
            store.put(&key, &value).unwrap();
            model.insert(key, value);
        }
    }

    /// Reopens on `fs` and reads the whole model back.
    fn assert_fail_safe(
        platform: &std::sync::Arc<Platform>,
        fs: &std::sync::Arc<SimFs>,
        model: &BTreeMap<Vec<u8>, Vec<u8>>,
    ) {
        let store = match ElsmP2::open_with(platform.clone(), fs.clone(), options(), None) {
            Ok(store) => store,
            Err(ElsmError::Verification(_)) => return, // refused as a whole
            Err(other) => panic!("an unclean shutdown is not an IO error: {other:?}"),
        };
        for (key, value) in model {
            match store.get(key) {
                Ok(Some(record)) => assert_eq!(record.value(), &value[..], "a different value"),
                Ok(None) => panic!("an acknowledged write verified as absent"),
                Err(ElsmError::Verification(_)) => {}
                Err(other) => panic!("neither the value nor a verification failure: {other:?}"),
            }
        }
    }

    #[test]
    fn probe_a_drop_without_close_is_fail_safe() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let mut model = BTreeMap::new();
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options(), None).unwrap();
        put_batch(&store, &mut model, 0);
        assert!(store.db().stats().flushes > 0, "the probe must cross flushes");
        drop(store);
        assert_fail_safe(&platform, &fs, &model);
    }

    #[test]
    fn probe_b_drop_after_a_clean_restart_is_fail_safe() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let mut model = BTreeMap::new();
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options(), None).unwrap();
        put_batch(&store, &mut model, 0);
        store.close().unwrap();
        drop(store);
        let store = ElsmP2::open_with(platform.clone(), fs.clone(), options(), None).unwrap();
        put_batch(&store, &mut model, 0x5a);
        drop(store);
        assert_fail_safe(&platform, &fs, &model);
    }

    /// (C) The manifest is lost — the host deletes it, as a crash between
    /// the delete and the create of a manifest rewrite once could — while
    /// the tables and the log it named stay. The sealed state went with it,
    /// so the open is refused, counter or not; it used to open an empty
    /// store that verified `key0001` as absent.
    #[test]
    fn probe_c_manifest_lost() {
        for with_counter in [false, true] {
            let platform = Platform::with_defaults();
            let fs = SimFs::new(SimDisk::new(platform.clone()));
            let counter = with_counter.then(|| MonotonicCounter::new(platform.clone()));
            let store =
                ElsmP2::open_with(platform.clone(), fs.clone(), opts(), counter.clone()).unwrap();
            for i in 0..400u32 {
                store.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            store.db().flush().unwrap();
            store.put(b"key0400", b"v400").unwrap();
            store.close().unwrap();
            drop(store);
            fs.delete("MANIFEST").unwrap();
            let registry = elsm_repro::telemetry::Telemetry::new();
            let options = P2Options { telemetry: registry.clone(), ..opts() };
            match ElsmP2::open_with(platform, fs, options, counter) {
                Err(ElsmError::Verification(VerificationFailure::SealBroken)) => {}
                Ok(store) => panic!("opened without its manifest: {:?}", store.get(b"key0001")),
                Err(other) => panic!("counter {with_counter}: refused as {other:?}"),
            }
            assert_eq!(registry.audit_count("SealBroken"), 1, "the refusal is audited");
        }
    }
}

mod host_order {
    //! The host writes bytes, not through the table builder: a table whose
    //! blocks are valid but whose records are out of key order. A restart
    //! that rebuilds the level's crown from it, and a merge that reads it,
    //! each refuse it once on the audit stream — and neither panics.

    use super::*;
    use crate::support::adversary;
    use elsm_repro::lsm_store::{Db, EnvConfig, Options, StorageEnv};
    use elsm_repro::shard::{ShardedKv, ShardedOptions};
    use elsm_repro::telemetry::Telemetry;
    use std::sync::Arc;

    const KEYS: u32 = 600;

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:04}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        vec![i as u8; 64]
    }

    fn options(telemetry: &Telemetry) -> P2Options {
        P2Options {
            write_buffer_bytes: 1 << 20, // explicit flushes only
            max_levels: 3,
            telemetry: telemetry.clone(),
            ..P2Options::default()
        }
    }

    /// Swaps two adjacent records of the first table of `fs`.
    fn swap_in_a_table(fs: &SimFs) {
        let sst = fs.list().into_iter().find(|n| n.ends_with(".sst")).expect("a table");
        let swapped = adversary::swap_adjacent_records(&fs.open(&sst).unwrap());
        assert!(swapped.is_some(), "a pair to swap in {sst}");
    }

    /// Copies one record of the first table of `fs` over its neighbour;
    /// returns the key now stored twice.
    fn duplicate_in_a_table(fs: &SimFs) -> Vec<u8> {
        let sst = fs.list().into_iter().find(|n| n.ends_with(".sst")).expect("a table");
        let duplicated = adversary::duplicate_adjacent_record(&fs.open(&sst).unwrap());
        duplicated.unwrap_or_else(|| panic!("a record to copy in {sst}"))
    }

    /// Reads every key back through `kv`: each is its value or a refusal,
    /// never a wrong value or an absence. Returns the refusals.
    fn read_back(kv: &dyn AuthenticatedKv, keys: impl Iterator<Item = u32>) -> usize {
        let mut refused = 0;
        for i in keys {
            match kv.get(&key(i)) {
                Ok(Some(record)) => assert_eq!(record.value(), &value(i)[..], "key{i:04}"),
                Ok(None) => panic!("key{i:04} verified as absent"),
                Err(ElsmError::Verification(_) | ElsmError::Poisoned) => refused += 1,
                Err(other) => panic!("key{i:04}: neither the value nor a refusal: {other:?}"),
            }
        }
        refused
    }

    fn assert_audited_once(telemetry: &Telemetry, level: u32, shard: Option<u32>) {
        let events = telemetry.audit_events();
        assert_eq!(events.len(), 1, "audited once: {events:?}");
        assert_eq!(events[0].kind, "IncompleteRange");
        assert!(events[0].detail.contains(&format!("level {level}")), "{:?}", events[0]);
        assert_eq!(events[0].shard, shard);
    }

    fn loaded_store(platform: &Arc<Platform>, fs: &Arc<SimFs>, telemetry: &Telemetry) -> ElsmP2 {
        let store =
            ElsmP2::open_with(platform.clone(), fs.clone(), options(telemetry), None).unwrap();
        for i in 0..KEYS {
            store.put(&key(i), &value(i)).unwrap();
        }
        store.db().flush().unwrap();
        assert_eq!(store.db().level_records()[1], KEYS as u64, "one level-1 run");
        store
    }

    #[test]
    fn a_restart_leaves_the_level_root_only() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let store = loaded_store(&platform, &fs, &Telemetry::default());
        store.close().unwrap();
        drop(store);
        swap_in_a_table(&fs);

        let telemetry = Telemetry::new();
        let store = ElsmP2::open_with(platform, fs, options(&telemetry), None).unwrap();
        assert_audited_once(&telemetry, 1, None);
        assert_eq!(store.trusted().crown_nodes(1), 1, "the root alone");
        assert!(read_back(&store, 0..KEYS) > 0, "the swapped keys are refused");
    }

    #[test]
    fn a_compaction_fails_and_writes_nothing() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let telemetry = Telemetry::new();
        let store = loaded_store(&platform, &fs, &telemetry);
        let (epoch, records, files) =
            (store.db().current_epoch(), store.db().level_records(), fs.list());
        let commitments = store.trusted().commitments();
        swap_in_a_table(&fs);

        assert!(store.db().compact(1).is_err(), "the merge fails");
        assert!(store.trusted().is_poisoned(), "and the enclave refuses service");
        assert_audited_once(&telemetry, 1, None);
        assert_eq!(store.db().current_epoch(), epoch, "nothing installed");
        assert_eq!(store.db().level_records(), records);
        assert_eq!(fs.list(), files, "no output file was left behind");
        assert_eq!(store.trusted().commitments(), commitments, "nothing new was signed");
        assert_eq!(read_back(&store, 0..KEYS), KEYS as usize, "every read is refused");
    }

    #[test]
    fn a_restart_refuses_a_duplicated_record() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let store = loaded_store(&platform, &fs, &Telemetry::default());
        store.close().unwrap();
        drop(store);
        duplicate_in_a_table(&fs);

        let telemetry = Telemetry::new();
        let store = ElsmP2::open_with(platform, fs, options(&telemetry), None).unwrap();
        assert_audited_once(&telemetry, 1, None);
        assert_eq!(store.trusted().crown_nodes(1), 1, "the root alone");
        assert!(read_back(&store, 0..KEYS) > 0, "the overwritten key is refused");
    }

    #[test]
    fn a_compaction_refuses_a_duplicated_record() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let telemetry = Telemetry::new();
        let store = loaded_store(&platform, &fs, &telemetry);
        let (epoch, records, files) =
            (store.db().current_epoch(), store.db().level_records(), fs.list());
        let commitments = store.trusted().commitments();
        duplicate_in_a_table(&fs);

        assert!(store.db().compact(1).is_err(), "the merge fails");
        assert!(store.trusted().is_poisoned(), "and the enclave refuses service");
        assert_audited_once(&telemetry, 1, None);
        assert_eq!(store.db().current_epoch(), epoch, "nothing installed");
        assert_eq!(store.db().level_records(), records);
        assert_eq!(fs.list(), files, "no output file was left behind");
        assert_eq!(store.trusted().commitments(), commitments, "nothing new was signed");
        assert_eq!(read_back(&store, 0..KEYS), KEYS as usize, "every read is refused");
    }

    /// The engine alone: a merge whose input is out of order fails before
    /// its output reaches the block builder's order check.
    #[test]
    fn a_bare_store_fails_the_compaction() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = Options {
            write_buffer_bytes: 1 << 20,
            max_levels: 3,
            env: EnvConfig { block_cache_bytes: 0, ..EnvConfig::default() },
            ..Options::default()
        };
        let env = StorageEnv::new(platform, fs.clone(), options.env.clone(), None);
        let db = Db::open(env, options, None).unwrap();
        for i in 0..KEYS {
            db.put(&key(i), &value(i)).unwrap();
        }
        db.flush().unwrap();
        let (epoch, files) = (db.current_epoch(), fs.list());
        swap_in_a_table(&fs);
        assert!(db.compact(1).is_err(), "an out-of-order input must fail the job");
        assert_eq!(db.current_epoch(), epoch, "nothing installed");
        assert_eq!(fs.list(), files, "no output file was left behind");
    }

    fn loaded_cluster(telemetry: &Telemetry) -> (ShardedOptions, ShardedKv) {
        let options = ShardedOptions::hash(2, options(telemetry));
        let cluster = ShardedKv::open(Platform::with_defaults(), options.clone()).unwrap();
        for i in 0..KEYS {
            cluster.put(&key(i), &value(i)).unwrap();
        }
        cluster.flush().unwrap();
        (options, cluster)
    }

    #[test]
    fn a_cluster_restart_leaves_the_shards_level_root_only() {
        let (_, cluster) = loaded_cluster(&Telemetry::default());
        cluster.close().unwrap();
        let filesystems: Vec<Arc<SimFs>> = (0..2).map(|i| cluster.shard(i).fs().clone()).collect();
        let router = cluster.router_platform().clone();
        drop(cluster);
        swap_in_a_table(&filesystems[0]);

        let telemetry = Telemetry::new();
        let options = ShardedOptions::hash(2, options(&telemetry));
        let cluster = ShardedKv::open_with(router, filesystems, options).unwrap();
        assert_audited_once(&telemetry, 1, Some(0));
        assert_eq!(cluster.shard(0).trusted().crown_nodes(1), 1, "shard 0's root alone");
        assert!(read_back(&cluster, 0..KEYS) > 0, "the swapped keys are refused");
        let shard1 = (0..KEYS).filter(|&i| cluster.shard_of(&key(i)) == 1);
        assert_eq!(read_back(&cluster, shard1), 0, "shard 1 serves on");
    }

    #[test]
    fn a_cluster_compaction_fails_on_its_shard() {
        let telemetry = Telemetry::new();
        let (_, cluster) = loaded_cluster(&telemetry);
        let shard0 = cluster.shard(0);
        let files = shard0.fs().list();
        swap_in_a_table(shard0.fs());

        assert!(shard0.db().compact(1).is_err(), "the merge fails");
        assert!(shard0.trusted().is_poisoned());
        assert_audited_once(&telemetry, 1, Some(0));
        assert_eq!(shard0.fs().list(), files, "no output file was left behind");
        let (owned_by_0, owned_by_1): (Vec<u32>, Vec<u32>) =
            (0..KEYS).partition(|&i| cluster.shard_of(&key(i)) == 0);
        let refused = read_back(&cluster, owned_by_0.iter().copied());
        assert_eq!(refused, owned_by_0.len(), "shard 0 refuses");
        assert_eq!(read_back(&cluster, owned_by_1.into_iter()), 0, "shard 1 serves on");
    }
}
