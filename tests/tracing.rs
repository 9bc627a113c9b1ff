//! End-to-end causal request tracing across the whole stack: every
//! verified op on a sharded + replicated cluster mints exactly one trace
//! tree; trees are acyclic and physically well-nested; a cross-shard
//! scan's tree spans router → shards → replica verification with a
//! non-empty critical path; a `put` that stalls on a flush (and the
//! compaction wave behind it) explains the stall in its own tree; tracing
//! charges zero virtual time even through the replication wire; and the
//! per-trace world partitions sum exactly to the platform's
//! [`time_split`] advance — the partition-sum identity.
//!
//! [`time_split`]: elsm_repro::sgx_sim::Platform::time_split

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::replica::{ReplicationGroup, ReplicationOptions};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::shard::{ShardedKv, ShardedOptions};
use elsm_repro::telemetry::trace::analyze;
use elsm_repro::telemetry::Telemetry;

fn instrumented_options(registry: &Telemetry) -> P2Options {
    P2Options { telemetry: registry.clone(), write_buffer_bytes: 8 << 20, ..P2Options::default() }
}

/// A small deterministic YCSB-style mixed phase (zipf-free: modular
/// skew): returns the number of verified ops performed.
fn mixed_phase(cluster: &impl AuthenticatedKv, keys: u32) -> usize {
    let mut ops = 0;
    for i in 0..keys {
        cluster.put(format!("user{i:06}").as_bytes(), &[0x5au8; 48]).unwrap();
        ops += 1;
    }
    for i in 0..keys {
        let key = format!("user{:06}", (i * 37) % keys);
        assert!(cluster.get(key.as_bytes()).unwrap().is_some());
        ops += 1;
    }
    for i in 0..keys / 8 {
        let from = format!("user{:06}", i * 8);
        let to = format!("user{:06}", i * 8 + 7);
        assert_eq!(cluster.scan(from.as_bytes(), to.as_bytes()).unwrap().len(), 8);
        ops += 1;
    }
    ops
}

/// The tracing property over a sharded + replicated run: every verified
/// op lands in exactly one trace tree, every span in exactly one tree,
/// all trees are acyclic, and a locally-nested child never outlasts its
/// causal parent's window. (Remote spans — replica replay — are exempt
/// from the window bound: they run on another platform's clock.)
#[test]
fn every_verified_op_lands_in_exactly_one_trace_tree() {
    let registry = Telemetry::new();
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(2, instrumented_options(&registry)).with_replicas(1),
    )
    .unwrap();
    assert!(registry.trace_records().is_empty(), "opening the cluster mints no spans");

    let ops = mixed_phase(&cluster, 64);

    let records = registry.trace_records();
    assert_eq!(registry.dropped_spans(), 0, "ring must hold the whole run");
    let trees = analyze::build_trees(&records);
    assert_eq!(trees.len(), ops, "one trace tree per verified op");

    let spans_in_trees: usize = trees.iter().map(|t| t.spans.len()).sum();
    assert_eq!(spans_in_trees, records.len(), "every span lands in exactly one tree");

    for tree in &trees {
        assert!(tree.is_acyclic());
        assert_eq!(
            tree.spans.iter().filter(|s| s.is_root()).count(),
            1,
            "exactly one root per tree"
        );
        for span in &tree.spans {
            if span.is_root() || span.remote {
                continue;
            }
            let parent = tree
                .spans
                .iter()
                .find(|p| p.span_id == span.parent_span)
                .expect("local child's causal parent is in the same tree");
            assert!(
                span.charges.ns <= parent.charges.ns,
                "nested child ({}) cannot outlast its parent ({})",
                span.name,
                parent.name
            );
        }
    }
}

/// The acceptance tree: a cross-shard scan on a replicated cluster
/// produces ONE tree spanning the router root, at least two shards, and
/// replica verification spans — and its critical path renders non-empty.
#[test]
fn cross_shard_scan_tree_spans_router_shards_and_replicas() {
    let registry = Telemetry::new();
    let cluster = ShardedKv::open(
        Platform::with_defaults(),
        ShardedOptions::hash(2, instrumented_options(&registry)).with_replicas(2),
    )
    .unwrap();
    let keys: Vec<String> = (0..64).map(|i| format!("user{i:06}")).collect();
    for k in &keys {
        cluster.put(k.as_bytes(), b"value").unwrap();
    }
    let shards_hit: std::collections::BTreeSet<usize> =
        keys.iter().map(|k| cluster.shard_of(k.as_bytes())).collect();
    assert_eq!(shards_hit.len(), 2, "keys must span both shards");

    let before = registry.trace_records().len();
    let all = cluster.scan(b"user000000", b"user000063".as_ref()).unwrap();
    assert_eq!(all.len(), 64);

    // The scan minted exactly one new tree, and it is the scan's.
    let records = registry.trace_records();
    let new_spans = &records[before..];
    let trees = analyze::build_trees(new_spans);
    assert_eq!(trees.len(), 1, "one cross-shard scan, one trace tree");
    let tree = &trees[0];
    assert_eq!(&*tree.root().name, "router.op.scan");
    assert_eq!(tree.root().op_class, "scan");

    // The tree spans both shards' replica-verified reads plus the
    // router's stitch phase.
    for needle in ["shard0.", "shard1.", "replica", ".op.scan", "router.stitch"] {
        assert!(
            tree.spans.iter().any(|s| s.name.contains(needle)),
            "scan tree must contain a span matching `{needle}`; got: {:?}",
            tree.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    // Critical-path analysis renders a non-empty per-span breakdown.
    let path = tree.critical_path();
    assert!(!path.is_empty());
    assert_eq!(&*path[0].name, "router.op.scan");
    let rendered = analyze::render_critical_path(tree);
    assert!(rendered.lines().count() >= 2, "path descends below the router:\n{rendered}");
    assert!(rendered.contains("exclusive="));
}

/// The zero-virtual-overhead contract survives tracing through the
/// replication wire: an instrumented replicated group and a bare one
/// replay the same workload to identical primary/replica virtual clocks
/// and identical trusted state. (The wire envelope always carries the
/// fixed-width 16-byte trace context, traced or not, so per-byte channel
/// charges cannot differ.)
#[test]
fn tracing_charges_no_virtual_time_through_replication() {
    let run = |registry: Telemetry| {
        let platform = Platform::with_defaults();
        let group = ReplicationGroup::open(
            platform.clone(),
            instrumented_options(&registry),
            ReplicationOptions { replicas: 2, ..Default::default() },
        )
        .unwrap();
        mixed_phase(&group, 48);
        group.sync().unwrap();
        (
            platform.clock().now_ns(),
            group.replica_platform(0).clock().now_ns(),
            group.replica_platform(1).clock().now_ns(),
            group.primary_store().trusted().wal_digest(),
        )
    };
    let instrumented = run(Telemetry::new());
    let bare = run(Telemetry::default());
    assert_eq!(instrumented, bare, "bit-identical clocks and trusted state with tracing on");
}

/// The partition-sum identity, pinned exactly: with every platform charge
/// made inside a traced op (single store, single thread, write buffer too
/// large to flush), the summed top-level span charges — and equally the
/// summed per-trace partitions — reproduce the platform's
/// `time_split()` advance nanosecond for nanosecond, per world.
#[test]
fn per_trace_partitions_sum_exactly_to_the_platform_time_split() {
    let registry = Telemetry::new();
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(platform.clone(), instrumented_options(&registry)).unwrap();

    let before = platform.time_split();
    for i in 0..32u32 {
        store.put(format!("key{i:04}").as_bytes(), &[0x11u8; 64]).unwrap();
    }
    for i in 0..32u32 {
        assert!(store.get(format!("key{i:04}").as_bytes()).unwrap().is_some());
    }
    assert_eq!(store.scan(b"key0000", b"key0031").unwrap().len(), 32);
    let delta = platform.time_split().delta(&before);
    assert!(delta.enclave_ns > 0 && delta.host_ns > 0 && delta.boundary_ns > 0);

    let records = registry.trace_records();
    assert_eq!(
        analyze::run_partition(&records),
        delta,
        "top-level span charges partition the clock advance exactly"
    );

    // Per-tree partitions tell the same story summed tree by tree.
    let trees = analyze::build_trees(&records);
    assert_eq!(trees.len(), 65, "32 puts + 32 gets + 1 scan");
    let mut summed = elsm_repro::sgx_sim::TimeSplit::default();
    for tree in &trees {
        let p = tree.partition();
        summed.enclave_ns += p.enclave_ns;
        summed.host_ns += p.host_ns;
        summed.boundary_ns += p.boundary_ns;
    }
    assert_eq!(summed, delta, "per-trace partitions sum to the same split");
}

/// A stall is explained: the `put` that crosses the write buffer pays for
/// the flush — and the compaction wave behind it — in its own window, and
/// its trace tree says so phase by phase. With two merge workers the
/// wave's merges run on other threads and join the tree as remote
/// children. The partition-sum identity holds over the deeper trees.
#[test]
fn a_put_that_stalls_on_maintenance_explains_the_stall_in_its_tree() {
    for parallelism in [1, 2] {
        let registry = Telemetry::new();
        let platform = Platform::with_defaults();
        let options = P2Options {
            write_buffer_bytes: 4 << 10,
            level1_max_bytes: 16 << 10,
            compaction_parallelism: parallelism,
            ..instrumented_options(&registry)
        };
        let store = ElsmP2::open(platform.clone(), options).unwrap();
        let before = platform.time_split();

        let (mut puts, mut stalls, mut waves) = (0usize, 0, 0);
        while waves == 0 {
            let mark = registry.trace_records().len();
            let counted = |name| registry.counter_value(name);
            let (flushes0, waves0) = (counted("db.flushes"), counted("compaction.waves"));
            let stats0 = platform.stats();
            store.put(format!("key{puts:05}").as_bytes(), &[0x22u8; 96]).unwrap();
            puts += 1;
            assert!(puts < 2000, "level 1 must outgrow its budget");
            if counted("db.flushes") == flushes0 {
                continue;
            }
            stalls += 1;
            let records = registry.trace_records();
            let trees = analyze::build_trees(&records[mark..]);
            assert_eq!(trees.len(), 1, "the stalled put and its maintenance are one tree");
            let tree = &trees[0];
            assert_eq!(tree.spans.len(), records.len() - mark);
            assert!(tree.is_acyclic());
            assert_eq!((&*tree.root().name, tree.root().op_class), ("op.put", "put"));
            let has = |name: &str| tree.spans.iter().any(|s| &*s.name == name);
            for phase in ["commit.group", "flush.freeze", "flush.merge", "flush.install"] {
                assert!(has(phase), "stalled put's tree lacks {phase}");
            }
            let ns = |name: &str| tree.spans.iter().find(|s| &*s.name == name).unwrap().charges.ns;
            let path = tree.critical_path();
            if stalls == 1 && &*path[1].name == "commit.group" {
                // The commit that first fills the write buffer pays an EPC
                // page-in. That page-in, not the commit's own work,
                // outweighs a first flush's merge into an empty level.
                let page_in_ns = platform.cost().epc_page_in_ns;
                assert_eq!(platform.stats().delta(&stats0).epc_page_ins, 1);
                let commit = tree.spans.iter().find(|s| &*s.name == "commit.group").unwrap();
                assert!(commit.charges.enclave_ns >= page_in_ns, "the commit paid the page-in");
                assert!(
                    commit.charges.ns - page_in_ns < ns("flush.merge"),
                    "else a merge is the stall"
                );
            } else {
                assert!(path[1].name.ends_with(".merge"), "a merge, not the commit, is the stall");
            }
            for phase in ["flush.freeze", "flush.install"] {
                assert!(ns("flush.merge") > ns(phase), "the merge outweighs {phase}");
            }
            if counted("compaction.waves") > waves0 {
                waves += 1;
                assert!(has("compaction.install"));
                let merge = tree.spans.iter().find(|s| &*s.name == "compaction.merge").unwrap();
                assert_eq!(merge.remote, parallelism > 1, "worker merges join remotely");
                assert_eq!(merge.parent_span, tree.root().span_id);
            }
        }
        assert!(stalls > 1, "flush-only stalls came before the wave");
        assert_eq!(registry.dropped_spans(), 0);

        let delta = platform.time_split().delta(&before);
        let records = registry.trace_records();
        assert_eq!(analyze::run_partition(&records), delta);
        let trees = analyze::build_trees(&records);
        assert_eq!(trees.len(), puts, "maintenance mints no tree of its own");
        let mut summed = elsm_repro::sgx_sim::TimeSplit::default();
        for p in trees.iter().map(|tree| tree.partition()) {
            summed.enclave_ns += p.enclave_ns;
            summed.host_ns += p.host_ns;
            summed.boundary_ns += p.boundary_ns;
        }
        assert_eq!(summed, delta, "per-trace partitions still sum exactly to the time split");
    }
}
