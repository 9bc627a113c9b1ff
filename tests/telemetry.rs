//! The unified observability layer, end to end: registry counters agree
//! with the pinned one-ecall-per-batch / one-ecall-per-shard invariants,
//! spans attribute virtual time to the enclave world, verification
//! failures land on the root audit stream with shard context, both export
//! formats render an instrumented run, and — the overhead contract —
//! enabling telemetry charges zero *virtual* time, so an instrumented
//! store and a bare store replay the same workload to the identical clock
//! and the identical trusted state.

use std::collections::BTreeSet;

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::lsm_store::LevelOutcome;
use elsm_repro::sgx_sim::Platform;
use elsm_repro::shard::{ShardedKv, ShardedOptions};
use elsm_repro::telemetry::Telemetry;

pub mod support;
use support::adversary;

fn instrumented_options(registry: &Telemetry) -> P2Options {
    P2Options { telemetry: registry.clone(), write_buffer_bytes: 1 << 20, ..P2Options::default() }
}

fn batch_items(n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n).map(|i| (format!("key{i:04}").into_bytes(), format!("val{i}").into_bytes())).collect()
}

fn as_refs(items: &[(Vec<u8>, Vec<u8>)]) -> Vec<(&[u8], &[u8])> {
    items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect()
}

/// The registry's commit counters move in lockstep with the platform's
/// ecall counter — the pinned group-commit invariant (one enclave
/// transition per batch, see `tests/group_commit.rs`) restated over
/// telemetry.
#[test]
fn commit_counters_agree_with_the_ecall_pin() {
    let registry = Telemetry::new();
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(platform.clone(), instrumented_options(&registry)).unwrap();
    let items = batch_items(64);
    let refs = as_refs(&items);

    let ecalls0 = platform.stats().ecalls;
    let batches0 = registry.counter_value("commit.batches");
    let puts0 = registry.counter_value("db.puts");

    store.put_batch(&refs).unwrap();
    assert_eq!(platform.stats().ecalls - ecalls0, 1, "one transition for the whole batch");
    assert_eq!(registry.counter_value("commit.batches") - batches0, 1);
    assert_eq!(registry.counter_value("db.puts") - puts0, 64);
    assert_eq!(registry.counter_value("wal.frames"), platform.stats().ecalls - ecalls0);

    // Singleton writes: counters scale with ecalls, 1:1.
    let ecalls1 = platform.stats().ecalls;
    let batches1 = registry.counter_value("commit.batches");
    for (k, v) in &refs {
        store.put(k, v).unwrap();
    }
    assert_eq!(platform.stats().ecalls - ecalls1, 64, "one transition per singleton put");
    assert_eq!(registry.counter_value("commit.batches") - batches1, 64);
}

/// Per-shard scoped counters split a routed batch exactly like the
/// per-shard platforms' ecall counters do, and the router's own series
/// account for routed point reads and stitched scans.
#[test]
fn sharded_counters_split_like_ecalls() {
    let registry = Telemetry::new();
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(3, instrumented_options(&registry)),
    )
    .unwrap();
    let items: Vec<(Vec<u8>, Vec<u8>)> =
        (0..60u32).map(|i| (format!("bk{i:03}").into_bytes(), vec![b'v'; 40])).collect();
    let refs = as_refs(&items);
    let shards_hit: BTreeSet<usize> = items.iter().map(|(k, _)| cluster.shard_of(k)).collect();
    assert!(shards_hit.len() > 1, "batch should span shards");

    let ecalls0: Vec<u64> = (0..3).map(|s| cluster.shard_platform(s).stats().ecalls).collect();
    let batches0: Vec<u64> =
        (0..3).map(|s| registry.counter_value(&format!("shard{s}.commit.batches"))).collect();
    cluster.put_batch(&refs).unwrap();
    for s in 0..3 {
        let ecall_delta = cluster.shard_platform(s).stats().ecalls - ecalls0[s];
        let batch_delta = registry.counter_value(&format!("shard{s}.commit.batches")) - batches0[s];
        assert_eq!(ecall_delta, u64::from(shards_hit.contains(&s)));
        assert_eq!(batch_delta, ecall_delta, "shard {s}: counter mirrors the ecall pin");
    }
    let puts: u64 = (0..3).map(|s| registry.counter_value(&format!("shard{s}.db.puts"))).sum();
    assert_eq!(puts, 60, "per-shard put counters partition the batch");

    // Routed reads and cross-shard scan stitching.
    let routed0 = registry.counter_value("router.routed_ops");
    for (k, _) in &items {
        assert!(cluster.get(k).unwrap().is_some());
    }
    assert!(registry.counter_value("router.routed_ops") - routed0 >= 60);

    let stitched0 = registry.counter_value("router.stitched_records");
    let segments0 = registry.counter_value("router.scan_segments");
    let all = cluster.scan(b"bk000", b"bk059").unwrap();
    assert_eq!(all.len(), 60);
    assert_eq!(registry.counter_value("router.stitched_records") - stitched0, 60);
    assert_eq!(
        registry.counter_value("router.scan_segments") - segments0,
        shards_hit.len() as u64,
        "one scan segment per shard holding data"
    );
}

/// Spans carry world attribution: the group-commit span runs inside the
/// enclave (enclave time, one ecall and a cross-boundary copy per batch),
/// and the attached platform reports the full enclave/host/boundary split
/// of its virtual clock.
#[test]
fn spans_attribute_virtual_time_to_the_enclave() {
    let registry = Telemetry::new();
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(platform.clone(), instrumented_options(&registry)).unwrap();
    let items = batch_items(64);
    store.put_batch(&as_refs(&items)).unwrap();
    store.db().flush().unwrap();

    let snapshot = registry.snapshot();
    let (_, commit) = snapshot
        .spans
        .iter()
        .find(|(name, _)| name == "commit.group")
        .expect("commit span registered");
    assert!(commit.count >= 1);
    assert!(commit.charges.enclave_ns > 0, "group commit runs inside the enclave");
    // The span opens *inside* the enclave transition — the ecall itself is
    // charged at the store's boundary, so the span's own crossing counters
    // stay zero while its time is pure enclave time.
    assert_eq!(commit.charges.ecalls, 0, "no nested transitions inside a commit group");
    assert!(commit.charges.ns >= commit.charges.enclave_ns);

    let flush = snapshot.spans.iter().find(|(name, _)| name == "flush.merge");
    assert!(flush.is_some_and(|(_, s)| s.count >= 1), "flush phases traced");

    let p = snapshot.platforms.iter().find(|p| p.label == "platform").expect("platform attached");
    assert!(p.time.enclave_ns > 0 && p.time.host_ns > 0 && p.time.boundary_ns > 0);
    assert_eq!(
        p.time.enclave_ns + p.time.host_ns + p.time.boundary_ns,
        p.clock_ns,
        "world attribution partitions the virtual clock"
    );
    assert!(p.stats.ecalls >= commit.count, "at least one transition per commit group");
    assert!(p.stats.cross_copy_bytes > 0, "batches crossed the boundary");
}

/// A routing-layer verification failure raised under a scoped shard
/// registry still lands on the root audit stream — the stream is
/// deployment-wide even though metric names are per-node.
#[test]
fn verification_failures_land_on_the_root_audit_stream() {
    let registry = Telemetry::new();
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(3, instrumented_options(&registry)),
    )
    .unwrap();
    cluster.put(b"audited", b"v").unwrap();
    let owner = cluster.shard_of(b"audited");
    let wrong = (owner + 1) % 3;

    assert_eq!(registry.audit_total(), 0);
    let err = cluster.check_owned(wrong, b"audited");
    assert!(err.is_err(), "router refuses the mis-claimed shard");
    assert_eq!(registry.audit_count("WrongShard"), 1);
    let event = &registry.audit_events()[0];
    assert_eq!(event.kind, "WrongShard");
    assert_eq!(event.component, "router");
    assert_eq!(event.shard, Some(owner as u32), "event names the true owner");
    assert!(registry.to_json().contains("\"kind\": \"WrongShard\""));

    // Each routed refusal adds exactly one event, stamped with its shard:
    // a routed GET the owner's enclave refuses for a hidden level...
    cluster.flush().unwrap();
    let host = adversary::HostileHost::install(cluster.shard(owner).db());
    host.on_get(|trace| {
        let hit = trace.levels.iter().find(|l| matches!(l.outcome, LevelOutcome::Hit(_)));
        let hit = hit.expect("the key is on disk").level;
        adversary::hide_level(trace, hit);
    });
    assert!(cluster.get(b"audited").is_err());
    let events = registry.audit_events();
    assert_eq!(events.len(), 2, "one event for the refused GET: {events:?}");
    assert_eq!((events[1].kind, events[1].shard), ("HiddenLevel", Some(owner as u32)));
    // ...and a cross-shard SCAN whose segment from another shard holds a
    // record of the owner's.
    cluster.shard(wrong).put(b"audited", b"smuggled").unwrap();
    assert!(cluster.scan(b"a", b"z").is_err());
    let events = registry.audit_events();
    assert_eq!(events.len(), 3, "one event for the refused SCAN: {events:?}");
    assert_eq!((events[2].kind, events[2].component), ("WrongShard", "router"));
    assert_eq!(events[2].shard, Some(owner as u32), "the event names the true owner");
}

/// The export renders an instrumented run: the JSON document the bench
/// harness writes as `TELEMETRY.<figure>.json`.
#[test]
fn exports_render_an_instrumented_run() {
    let registry = Telemetry::new();
    let store = ElsmP2::open(Platform::with_defaults(), instrumented_options(&registry)).unwrap();
    let items = batch_items(32);
    store.put_batch(&as_refs(&items)).unwrap();
    for (k, _) in &items {
        assert!(store.get(k).unwrap().is_some());
    }

    let json = registry.to_json();
    for needle in
        ["\"db.puts\": 32", "\"db.gets\": 32", "\"commit.group\"", "\"platform\"", "\"audit\""]
    {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

/// The overhead contract: instrumentation charges zero virtual time, so
/// the same workload on an instrumented store and a bare store ends at
/// the *identical* virtual clock and the identical trusted state. (Real
/// wall-clock overhead of the disabled registry is a few relaxed atomic
/// no-ops per op; the virtual-clock equality is the property the
/// simulation can pin exactly.)
#[test]
fn enabled_telemetry_charges_no_virtual_time() {
    let run = |registry: Telemetry| {
        let platform = Platform::with_defaults();
        let store = ElsmP2::open(
            platform.clone(),
            P2Options { telemetry: registry, write_buffer_bytes: 1 << 20, ..P2Options::default() },
        )
        .unwrap();
        let items = batch_items(64);
        store.put_batch(&as_refs(&items)).unwrap();
        for (k, _) in &items {
            assert!(store.get(k).unwrap().is_some());
        }
        (platform.clock().now_ns(), store.trusted().wal_digest())
    };
    let instrumented = run(Telemetry::new());
    let bare = run(Telemetry::default());
    assert_eq!(instrumented.0, bare.0, "identical virtual clock with telemetry on");
    assert_eq!(instrumented.1, bare.1, "identical trusted state with telemetry on");
}
