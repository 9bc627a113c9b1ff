//! The replication subsystem, end to end: verified replica reads with
//! freshness tokens, the authenticated-channel adversary (tampering,
//! reordering, withholding), fork detection against an equivocating
//! primary, and the §5.6.1-fenced failover protocol — kill-primary
//! promotion with zero acknowledged-write loss, rolled-back candidates
//! rejected, resurrected old primaries fenced out.

use elsm_repro::elsm::replication::Announcement;
use elsm_repro::elsm::{AuthenticatedKv, ElsmError, P2Options, VerificationFailure};
use elsm_repro::replica::{ReplicationGroup, ReplicationOptions};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::shard::{ShardedKv, ShardedOptions};
use elsm_repro::telemetry::Telemetry;

fn small_store_options() -> P2Options {
    P2Options {
        write_buffer_bytes: 4 * 1024,
        level1_max_bytes: 16 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        ..P2Options::default()
    }
}

fn group(replicas: usize) -> ReplicationGroup {
    ReplicationGroup::open(
        Platform::with_defaults(),
        small_store_options(),
        ReplicationOptions { replicas, leader_check_interval: 1, ..Default::default() },
    )
    .unwrap()
}

fn verification(err: ElsmError) -> VerificationFailure {
    match err {
        ElsmError::Verification(v) => v,
        other => panic!("expected a verification failure, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Honest replication
// ---------------------------------------------------------------------------

#[test]
fn replicas_serve_verified_reads_from_replayed_state() {
    let g = group(2);
    for i in 0..300u32 {
        let key = format!("key{:04}", i % 150);
        g.put(key.as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    let keys: Vec<&[u8]> = [&b"key0000"[..], b"key0007"].to_vec();
    g.delete_batch(&keys).unwrap();
    g.flush().unwrap();

    // Every replica answers verified reads from its own replayed state,
    // fully fresh.
    for r in 0..2 {
        g.with_replica(r, |replica| {
            let (rec, token) = replica.get(b"key0003").unwrap();
            assert_eq!(rec.expect("present").value(), b"v153");
            assert_eq!(token.lag_epochs(), 0, "synced replica must be fresh");
            let (absent, _) = replica.get(b"key0000").unwrap();
            assert!(absent.is_none(), "replicated delete must hide the key");
            let (scanned, _) = replica.scan(b"key0000", b"key9999").unwrap();
            assert_eq!(scanned.len(), 148);
            assert!(scanned.windows(2).all(|w| w[0].key() < w[1].key()));
        });
    }

    // Replayed enclave state is bit-identical to the primary's: same WAL
    // digest, same level commitments, same epoch.
    let primary = g.primary_store();
    for r in 0..2 {
        let store = g.replica_store(r);
        assert_eq!(store.trusted().wal_digest(), primary.trusted().wal_digest());
        assert_eq!(store.trusted().commitments(), primary.trusted().commitments());
        assert_eq!(store.db().current_epoch(), primary.db().current_epoch());
    }
    // So each replica's own commitment snapshot at the primary's epoch is
    // the one the primary signs into its announcements.
    let epoch = primary.db().current_epoch();
    let primary_digest = primary.trusted().snapshot_digest(epoch).expect("current epoch");
    for r in 0..2 {
        assert_eq!(g.replica_store(r).trusted().snapshot_digest(epoch), Some(primary_digest));
    }

    // Group reads round-robin: both replica clocks advance, the
    // primary's does not.
    let before: Vec<u64> = (0..2).map(|r| g.replica_platform(r).clock().now_ns()).collect();
    let primary_before = primary.platform().clock().now_ns();
    for i in 0..20u32 {
        assert!(g.get(format!("key{:04}", 100 + i).as_bytes()).unwrap().is_some());
    }
    for (r, &t0) in before.iter().enumerate() {
        assert!(g.replica_platform(r).clock().now_ns() > t0, "replica {r} served no reads");
    }
    assert_eq!(
        primary.platform().clock().now_ns(),
        primary_before,
        "reads must not hit the primary"
    );
}

/// The compaction scheduler's replication contract: the primary ships
/// strategy-deterministic job descriptions, so even a tiered strategy
/// running 4-way parallel waves replays bit-identically on every replica
/// — same commitments, same WAL digest, same epoch sequence.
#[test]
fn parallel_tiered_compaction_replays_bit_identically() {
    use elsm_repro::lsm_store::CompactionStrategyKind;
    let options = P2Options {
        compaction_strategy: CompactionStrategyKind::Tiered,
        compaction_parallelism: 4,
        ..small_store_options()
    };
    let g = ReplicationGroup::open(
        Platform::with_defaults(),
        options,
        ReplicationOptions { replicas: 2, leader_check_interval: 1, ..Default::default() },
    )
    .unwrap();
    for i in 0..600u32 {
        let key = format!("key{:04}", i % 200);
        g.put(key.as_bytes(), format!("value-{i:06}").as_bytes()).unwrap();
    }
    g.flush().unwrap();
    let primary = g.primary_store();
    assert!(primary.db().stats().compactions > 0, "workload must drive compaction waves");
    for r in 0..2 {
        let store = g.replica_store(r);
        assert_eq!(store.trusted().commitments(), primary.trusted().commitments());
        assert_eq!(store.trusted().wal_digest(), primary.trusted().wal_digest());
        assert_eq!(store.db().current_epoch(), primary.db().current_epoch());
        g.with_replica(r, |replica| {
            let (rec, token) = replica.get(b"key0123").unwrap();
            assert_eq!(rec.expect("present").value(), b"value-000523");
            assert_eq!(token.lag_epochs(), 0);
        });
    }
}

/// A replica derives each level's fence from the trees it rebuilt in
/// replay, so it passes over the same levels as the primary. An ordered
/// load leaves level 1 above every key on the deeper levels; a read of an
/// early key checks the same levels, level 1 not among them, everywhere.
#[test]
fn replicas_pass_over_the_levels_the_primary_does() {
    let g = group(2);
    // Enough ordered writes to spill past level 1.
    for i in 0..1200u32 {
        g.put(format!("key{i:04}").as_bytes(), format!("ordered-value-{i:06}").as_bytes()).unwrap();
    }
    g.flush().unwrap();
    let primary = g.primary_store();
    let levels = primary.db().level_records();
    assert!(levels[1] > 0 && levels[2..].iter().any(|&n| n > 0), "levels: {levels:?}");
    let level1_first = primary.db().level_record_dump(1).unwrap()[0].key.clone();
    let key = b"key0003";
    assert!(level1_first[..] > key[..], "level 1 starts at {level1_first:?}");

    let fenced = primary.verify_stats().levels_fenced;
    let on_primary = primary.get(key).unwrap().expect("present");
    assert!(primary.verify_stats().levels_fenced > fenced, "level 1 was passed over");
    for r in 0..2 {
        let fenced = g.replica_store(r).verify_stats().levels_fenced;
        let (on_replica, _) = g.with_replica(r, |replica| replica.get(key)).unwrap();
        let on_replica = on_replica.expect("present");
        assert_eq!(on_replica.value(), on_primary.value());
        assert_eq!(on_replica.levels_checked(), on_primary.levels_checked(), "replica {r}");
        assert!(g.replica_store(r).verify_stats().levels_fenced > fenced, "replica {r}");
    }
}

// ---------------------------------------------------------------------------
// The transport adversary
// ---------------------------------------------------------------------------

#[test]
fn tampered_shipped_frame_detected() {
    let g = group(1);
    let primary = g.primary_store();
    for i in 0..10u32 {
        primary.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    // The host rewrites one byte of a queued shipment.
    g.with_replica(0, |r| r.channel().tamper(|q| q[4].payload[12] ^= 0x01));
    let err = g.with_replica(0, |r| r.sync().unwrap_err());
    assert!(matches!(verification(err), VerificationFailure::ChannelTampered { seq: 4 }));
    // Detection is sticky: the replica refuses service from then on.
    let err = g.with_replica(0, |r| r.get(b"k0").unwrap_err());
    assert!(matches!(verification(err), VerificationFailure::ChannelTampered { .. }));
}

#[test]
fn reordered_shipped_frames_detected() {
    let g = group(1);
    let primary = g.primary_store();
    for i in 0..6u32 {
        primary.put(format!("k{i}").as_bytes(), b"v").unwrap();
    }
    // Every envelope is individually authentic — just not in this order.
    g.with_replica(0, |r| r.channel().tamper(|q| q.swap(1, 3)));
    let err = g.with_replica(0, |r| r.sync().unwrap_err());
    assert!(matches!(verification(err), VerificationFailure::ChannelTampered { seq: 1 }));
}

#[test]
fn envelopes_cannot_splice_between_groups() {
    // Two independent groups have independent session keys: the host
    // cannot replay one group's (individually authentic) shipments into
    // another group's channel.
    let a = group(1);
    let b = group(1);
    a.primary_store().put(b"from-a", b"v").unwrap();
    let stolen = a
        .with_replica(0, |r| {
            let mut out = None;
            r.channel().tamper(|q| out = q.front().cloned());
            out
        })
        .expect("a shipped envelope");
    b.with_replica(0, |r| r.channel().tamper(|q| q.push_back(stolen)));
    let err = b.with_replica(0, |r| r.sync().unwrap_err());
    assert!(matches!(verification(err), VerificationFailure::ChannelTampered { .. }));
}

#[test]
fn withheld_stream_makes_reads_stale_beyond_the_bound() {
    let g = group(1);
    for i in 0..50u32 {
        g.put(format!("k{i:03}").as_bytes(), b"v0").unwrap();
    }
    g.flush().unwrap();
    g.with_replica(0, |r| assert_eq!(r.freshness().unwrap().lag_epochs(), 0));

    // The host now withholds the stream while the primary advances
    // through several more flush epochs.
    let primary = g.primary_store();
    for round in 0..4u32 {
        for i in 0..50u32 {
            primary.put(format!("k{i:03}").as_bytes(), format!("v{round}").as_bytes()).unwrap();
        }
        primary.db().flush().unwrap();
    }
    // A client relays the primary's (signed) newest announcement to the
    // replica out of band — withholding the stream cannot also hide the
    // staleness.
    let head = Announcement::sign(
        primary.platform(),
        primary.trusted(),
        0,
        primary.db().current_epoch(),
        g.session_key(),
    )
    .expect("current epoch announced");
    g.with_replica(0, |r| r.observe_announcement(&head).unwrap());
    let err = g.with_replica(0, |r| r.get(b"k003").unwrap_err());
    match verification(err) {
        VerificationFailure::ReplicaStale { lag_epochs, bound } => {
            assert!(lag_epochs > bound, "lag {lag_epochs} must exceed bound {bound}");
        }
        other => panic!("expected ReplicaStale, got {other:?}"),
    }
    // Delivering the stream again restores service.
    g.sync().unwrap();
    g.with_replica(0, |r| {
        let (rec, token) = r.get(b"k003").unwrap();
        assert_eq!(rec.expect("present").value(), b"v3");
        assert_eq!(token.lag_epochs(), 0);
    });
}

#[test]
fn forked_primary_detected_per_epoch() {
    let registry = Telemetry::disabled();
    let g = ReplicationGroup::open(
        Platform::with_defaults(),
        P2Options { telemetry: registry.clone(), ..small_store_options() },
        ReplicationOptions { replicas: 1, leader_check_interval: 1, ..Default::default() },
    )
    .unwrap();
    for i in 0..80u32 {
        g.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
    }
    g.flush().unwrap();
    // The primary's signing oracle announces a *different* commitment
    // digest for an epoch the replica replayed honestly — a split view.
    let primary = g.primary_store();
    let epoch = primary.db().current_epoch();
    let fork = Announcement::sign_digest(
        primary.platform(),
        0,
        epoch,
        elsm_repro::crypto::sha256(b"the view shown to someone else"),
        g.session_key(),
    );
    let err = g.with_replica(0, |r| r.observe_announcement(&fork).unwrap_err());
    assert!(
        matches!(verification(err), VerificationFailure::ForkedPrimary { epoch: e } if e == epoch)
    );
    // Sticky: the replica refuses service under a forked primary.
    let err = g.with_replica(0, |r| r.get(b"k001").unwrap_err());
    assert!(matches!(verification(err), VerificationFailure::ForkedPrimary { .. }));
    // The relayed equivocation is on the group's audit stream exactly
    // once, at the forked epoch; the sticky refusal adds no event.
    assert_eq!(registry.audit_count("ForkedPrimary"), 1);
    let forks: Vec<_> =
        registry.audit_events().into_iter().filter(|e| e.kind == "ForkedPrimary").collect();
    assert_eq!(forks.len(), 1);
    assert_eq!(forks[0].epoch, Some(epoch));
    assert_eq!(forks[0].replica, Some(1), "replica 0 is node 1; the primary is node 0");
}

/// The fork probe reaches back: an announcement relayed out of band for an
/// epoch three installs behind is cross-checked against the snapshot the
/// replica still holds of it (the retired-epoch floor keeps recent epochs
/// with no reader pinning them), and a forged one is refused and audited
/// once.
#[test]
fn forked_primary_detected_three_installs_back() {
    let registry = Telemetry::disabled();
    let g = ReplicationGroup::open(
        Platform::with_defaults(),
        P2Options { telemetry: registry.clone(), ..small_store_options() },
        ReplicationOptions { replicas: 1, leader_check_interval: 1, ..Default::default() },
    )
    .unwrap();
    for round in 0..2u32 {
        for i in 0..80u32 {
            g.put(format!("k{i:03}").as_bytes(), format!("v{round}").as_bytes()).unwrap();
        }
        g.flush().unwrap();
    }
    let primary = g.primary_store();
    let epoch = primary.db().current_epoch() - 3;
    let replica_holds =
        |epoch| g.with_replica(0, |r| r.store().trusted().snapshot_digest(epoch).is_some());
    assert!(replica_holds(epoch), "the replica replayed epoch {epoch} and keeps its snapshot");
    let fork = Announcement::sign_digest(
        primary.platform(),
        0,
        epoch,
        elsm_repro::crypto::sha256(b"an older view shown to someone else"),
        g.session_key(),
    );
    let err = g.with_replica(0, |r| r.observe_announcement(&fork).unwrap_err());
    assert!(
        matches!(verification(err), VerificationFailure::ForkedPrimary { epoch: e } if e == epoch)
    );
    assert_eq!(registry.audit_count("ForkedPrimary"), 1);
    assert_eq!(registry.audit_total(), 1, "{:?}", registry.audit_events());
}

#[test]
fn forged_announcement_in_stream_detected() {
    let g = group(1);
    g.put(b"k", b"v").unwrap();
    // The host injects a well-formed announcement it signed itself (it
    // has no session key, so any signature it produces is wrong).
    let mut forged = Announcement::sign_digest(
        g.primary_store().platform(),
        0,
        0,
        elsm_repro::crypto::sha256(b"junk"),
        g.session_key(),
    );
    forged.mac = elsm_repro::crypto::sha256(b"not the session key");
    let err = g.with_replica(0, |r| r.observe_announcement(&forged).unwrap_err());
    assert!(matches!(verification(err), VerificationFailure::ChannelTampered { .. }));
}

// ---------------------------------------------------------------------------
// Fenced failover
// ---------------------------------------------------------------------------

#[test]
fn kill_primary_failover_loses_no_acknowledged_write() {
    let g = group(2);
    for i in 0..100u32 {
        g.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    // 20 more writes are acknowledged by the primary but the replicas
    // never get to apply them before the crash — their frames are in the
    // channels, shipped under the primary's write lock before each ack.
    let primary = g.primary_store();
    for i in 100..120u32 {
        primary.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    let dead = g.kill_primary().expect("primary was alive");
    drop(dead);

    // Promotion drains the candidate's channel first: nothing is lost.
    g.promote(0).unwrap();
    for i in 0..120u32 {
        let key = format!("k{i:03}");
        let got = g.primary_store().get(key.as_bytes()).unwrap();
        assert_eq!(
            got.expect("acknowledged write lost in failover").value(),
            format!("v{i}").as_bytes(),
            "{key}"
        );
    }
    // The group keeps operating: writes through the new primary, reads
    // from the remaining replica (which catches up over its own channel).
    g.put(b"post-failover", b"works").unwrap();
    let (rec, token) = g.get_with_token(b"post-failover").unwrap();
    assert_eq!(rec.expect("present").value(), b"works");
    assert_eq!(token.expect("replica-served").lag_epochs(), 0);
    assert_eq!(g.replica_count(), 1);
}

#[test]
fn rolled_back_candidate_rejected_at_promotion() {
    let g = group(2);
    for i in 0..60u32 {
        g.put(format!("k{i:03}").as_bytes(), b"v1").unwrap();
    }
    // Replica 1's host discards its shipped stream (a rollback of the
    // replica's replicated state to before these writes).
    let primary = g.primary_store();
    for i in 0..40u32 {
        primary.put(format!("extra{i:03}").as_bytes(), b"v2").unwrap();
    }
    g.fence().unwrap();
    g.with_replica(1, |r| r.channel().tamper(|q| q.clear()));
    g.kill_primary();

    // The stale candidate's progress is behind the fenced progress.
    let err = g.promote(1).unwrap_err();
    assert!(matches!(verification(err), VerificationFailure::RolledBack));

    // The caught-up replica promotes fine — and because its progress
    // exactly matches the fenced progress, its dataset digest is checked
    // against the fenced digest too.
    g.promote(0).unwrap();
    assert_eq!(g.primary_store().get(b"extra039").unwrap().expect("present").value(), b"v2");
}

#[test]
fn resurrected_old_primary_is_fenced_out() {
    let g = group(2);
    for i in 0..30u32 {
        g.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
    }
    let old = g.kill_primary().expect("primary was alive");
    g.promote(0).unwrap();

    // The deposed primary resurrects and tries to serve writes again:
    // its next hardware check finds the moved generation.
    let err = old.put(b"rogue", b"write").unwrap_err();
    match verification(err) {
        VerificationFailure::FencedOut { generation, active } => {
            assert_eq!(generation, 1);
            assert_eq!(active, 2);
        }
        other => panic!("expected FencedOut, got {other:?}"),
    }
    assert!(old.ensure_leadership().is_err(), "deposed leadership must stay revoked");

    // Shipments it managed to push under its stale generation are
    // dropped by the surviving replica — counted, not applied, and the
    // replica keeps serving the live stream.
    old.store().put(b"rogue-direct", b"write").unwrap();
    g.put(b"legit", b"new-primary").unwrap();
    g.sync().unwrap();
    g.with_replica(0, |r| {
        assert!(r.fenced_drops() > 0, "stale-generation shipments must be dropped");
        let (rec, _) = r.get(b"legit").unwrap();
        assert_eq!(rec.expect("present").value(), b"new-primary");
        let (rogue, _) = r.get(b"rogue-direct").unwrap();
        assert!(rogue.is_none(), "a fenced primary's writes must not replicate");
    });
}

#[test]
fn racing_promotions_cannot_split_brain() {
    let g = group(2);
    for i in 0..20u32 {
        g.put(format!("k{i:02}").as_bytes(), b"v").unwrap();
    }
    g.kill_primary();
    g.promote(0).unwrap();
    // A second candidate promoting against the already-moved generation
    // loses the hardware CAS.
    let fenced = g.fencing().read();
    assert_eq!(fenced.generation, 2);
    let stale = g.fencing().advance(1, 999, elsm_repro::crypto::sha256(b"x"));
    assert!(stale.is_err(), "a promotion naming a stale generation must lose");
}

// ---------------------------------------------------------------------------
// Replication under the sharded router
// ---------------------------------------------------------------------------

#[test]
fn sharded_cluster_with_replicas_serves_verified_reads_round_robin() {
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(2, small_store_options()).with_replicas(2),
    )
    .unwrap();
    for i in 0..200u32 {
        cluster.put(format!("key{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    cluster.flush().unwrap();
    // Verified point reads and a totally ordered cross-shard scan, all
    // served by replicas.
    let before: Vec<Vec<u64>> = (0..2)
        .map(|s| {
            let group = cluster.replication_group(s).expect("replicated partition");
            (0..2).map(|r| group.replica_platform(r).clock().now_ns()).collect()
        })
        .collect();
    for i in 0..200u32 {
        let key = format!("key{i:04}");
        let got = cluster.get(key.as_bytes()).unwrap();
        assert_eq!(got.expect("present").value(), format!("v{i}").as_bytes(), "{key}");
    }
    let all = cluster.scan(b"key0000", b"key9999").unwrap();
    assert_eq!(all.len(), 200);
    assert!(all.windows(2).all(|w| w[0].key() < w[1].key()));
    for (s, shard_before) in before.iter().enumerate() {
        let group = cluster.replication_group(s).expect("replicated partition");
        for (r, &t0) in shard_before.iter().enumerate() {
            assert!(
                group.replica_platform(r).clock().now_ns() > t0,
                "shard {s} replica {r} served no reads"
            );
        }
    }
}
