//! The one YCSB scheduler (`ycsb::run_phase` / `ycsb::run_write_batches`)
//! on toy drivers with hand-computable costs.
//!
//! `pinned_*` tests hold full reports captured at the parent commit from
//! the four entry points this engine replaced (`run_phase`,
//! `run_phase_concurrent`, `run_sharded_concurrent`,
//! `run_write_batches_concurrent`) — there the same cases, plus the two
//! degenerate-case equalities over random mixes, seeds and topologies, were
//! checked old against new before the old runners were deleted. The rest
//! are the behaviours the three runners' unit tests checked, on the one
//! entry point.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use elsm_repro::sgx_sim::{Platform, SerialClass};
use elsm_repro::telemetry::Telemetry;
use elsm_repro::ycsb::{
    format_key, load_phase, run_phase, run_write_batches, KvDriver, Phase, RunReport, Topology,
    Workload, CLIENT_SEED_MIX,
};

type Map = Mutex<BTreeMap<Vec<u8>, Vec<u8>>>;

struct MapDriver {
    platform: Arc<Platform>,
    map: Map,
    read_ns: u64,
    write_ns: u64,
}
impl MapDriver {
    fn new(read_ns: u64, write_ns: u64) -> Self {
        MapDriver { platform: Platform::with_defaults(), map: Map::default(), read_ns, write_ns }
    }
}
impl KvDriver for MapDriver {
    fn put(&self, key: &[u8], value: &[u8]) {
        self.platform.advance(self.write_ns);
        self.map.lock().unwrap().insert(key.to_vec(), value.to_vec());
    }
    fn get(&self, key: &[u8]) -> bool {
        self.platform.advance(self.read_ns);
        self.map.lock().unwrap().contains_key(key)
    }
    fn scan(&self, from: &[u8], to: &[u8]) -> usize {
        self.platform.advance(self.read_ns * 3);
        self.map.lock().unwrap().range(from.to_vec()..=to.to_vec()).count()
    }
}
struct SplitDriver {
    platform: Arc<Platform>,
    map: Map,
    cost_ns: u64,
    serial_ns: u64,
}
impl SplitDriver {
    fn new(cost_ns: u64, serial_ns: u64, records: u64) -> Self {
        let d = SplitDriver {
            platform: Platform::with_defaults(),
            map: Map::default(),
            cost_ns,
            serial_ns,
        };
        for i in 0..records {
            d.map.lock().unwrap().insert(format_key(i), b"v".to_vec());
        }
        d
    }
    fn charge(&self) {
        {
            let _s = self.platform.serial_section(SerialClass::StoreWrite);
            self.platform.advance(self.serial_ns);
        }
        self.platform.advance(self.cost_ns - self.serial_ns);
    }
}
impl KvDriver for SplitDriver {
    fn put(&self, key: &[u8], value: &[u8]) {
        self.charge();
        self.map.lock().unwrap().insert(key.to_vec(), value.to_vec());
    }
    fn get(&self, key: &[u8]) -> bool {
        self.charge();
        self.map.lock().unwrap().contains_key(key)
    }
    fn scan(&self, from: &[u8], to: &[u8]) -> usize {
        self.charge();
        self.map.lock().unwrap().range(from.to_vec()..=to.to_vec()).count()
    }
}

struct ToyCluster {
    platforms: Vec<Arc<Platform>>,
    router: Arc<Platform>,
    maps: Vec<Map>,
    cost_ns: u64,
}
impl ToyCluster {
    fn new(shards: usize, cost_ns: u64, records: u64) -> Self {
        let c = ToyCluster {
            platforms: (0..shards).map(|_| Platform::with_defaults()).collect(),
            router: Platform::with_defaults(),
            maps: (0..shards).map(|_| Map::default()).collect(),
            cost_ns,
        };
        for i in 0..records {
            let key = format_key(i);
            c.maps[c.shard_of(&key)].lock().unwrap().insert(key, b"v".to_vec());
        }
        c
    }
    fn shard_of(&self, key: &[u8]) -> usize {
        key.iter().map(|&b| b as usize).sum::<usize>() % self.maps.len()
    }
    fn topology(&self, cores: usize) -> Topology {
        Topology {
            machines: self.platforms.clone(),
            router: self.router.clone(),
            cores_per_machine: cores,
        }
    }
}
impl KvDriver for ToyCluster {
    fn put(&self, key: &[u8], value: &[u8]) {
        let s = self.shard_of(key);
        self.platforms[s].advance(self.cost_ns);
        self.maps[s].lock().unwrap().insert(key.to_vec(), value.to_vec());
    }
    fn get(&self, key: &[u8]) -> bool {
        let s = self.shard_of(key);
        self.platforms[s].advance(self.cost_ns);
        self.maps[s].lock().unwrap().contains_key(key)
    }
    fn scan(&self, from: &[u8], to: &[u8]) -> usize {
        let mut n = 0;
        for (p, m) in self.platforms.iter().zip(&self.maps) {
            p.advance(self.cost_ns);
            n += m.lock().unwrap().range(from.to_vec()..=to.to_vec()).count();
        }
        self.router.advance(self.cost_ns / 10);
        n
    }
}
/// splitmix64: the tests' own source of random cases.
struct Cases(u64);
impl Cases {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// Uniform in `lo..=hi`.
    fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn all_workloads() -> [Workload; 6] {
    [Workload::a(), Workload::b(), Workload::c(), Workload::d(), Workload::e(), Workload::f()]
}

fn phase(record_count: u64, total_ops: u64, clients: usize, seed: u64) -> Phase {
    Phase { record_count, total_ops, clients, seed }
}

fn run(d: &dyn KvDriver, topology: &Topology, w: &Workload, phase: Phase) -> RunReport {
    run_phase(d, topology, w, &phase, &Telemetry::default())
}

fn loaded_map(read_ns: u64, write_ns: u64, records: u64) -> MapDriver {
    let d = MapDriver::new(read_ns, write_ns);
    load_phase(&d, records, 10);
    d
}

fn cores(platform: &Arc<Platform>, cores_per_machine: usize) -> Topology {
    Topology { cores_per_machine, ..Topology::single(platform) }
}

/// The multi-client fields of a report: ops, makespan µs, kops/s, mean,
/// p50, p99, p999 µs, hit rate, serial fraction.
type Pin = (u64, f64, f64, f64, f64, f64, f64, f64, f64);

fn assert_pinned(r: &RunReport, pin: Pin, what: &str) {
    let o = &r.overall;
    let got: Pin = (
        r.ops,
        r.elapsed_us,
        r.kops_per_sec,
        o.mean_us,
        o.p50_us,
        o.p99_us,
        o.p999_us,
        r.read_hit_rate,
        r.serial_fraction,
    );
    assert_eq!(got, pin, "{what}");
}

// ---------------------------------------------------------------------------
// Reports captured from the four forked runners at the parent commit
// ---------------------------------------------------------------------------

#[test]
fn pinned_single_client_reports() {
    // Old `run_phase(driver, platform, w, 500, 4000, seed)`: (ops, mean,
    // p50, p99, p999, reads mean/count, writes mean/count, hit rate). The
    // old runner seeded its one RNG with `seed` itself.
    let pins = [
        (Workload::read_ratio(50), 7u64, (4.994, 1.0, 9.0, 9.0), (1.0, 2003), (9.0, 1997)),
        (Workload::a(), 99, (5.004, 9.0, 9.0, 9.0), (1.0, 1998), (9.0, 2002)),
        (Workload::c(), 42, (1.0, 1.0, 1.0, 1.0), (1.0, 4000), (0.0, 0)),
    ];
    for (w, seed, overall, reads, writes) in pins {
        let d = MapDriver::new(1_000, 9_000);
        load_phase(&d, 500, 100);
        let topology = Topology::single(&d.platform);
        let r = run(&d, &topology, &w, phase(500, 4_000, 1, seed ^ CLIENT_SEED_MIX));
        let o = &r.overall;
        assert_eq!(r.ops, 4_000, "{}", w.name);
        assert_eq!((o.mean_us, o.p50_us, o.p99_us, o.p999_us), overall, "{}", w.name);
        assert_eq!((r.reads.mean_us, r.reads.count), reads, "{}", w.name);
        assert_eq!((r.writes.mean_us, r.writes.count), writes, "{}", w.name);
        assert_eq!(r.read_hit_rate, 1.0);
        // What the old report did not carry: one client's makespan is the
        // sum of its latencies.
        assert_eq!(r.elapsed_us, o.mean_us * 4_000.0, "{}", w.name);
    }
}

#[test]
fn pinned_concurrent_reports() {
    // Old `run_phase_concurrent(d, platform, w, 50, 300, 99, clients)` on
    // SplitDriver(2000, 500): A–F with 4 clients, then E with 8.
    let same: Pin = (300, 151.5, 1980.1980198019803, 2.01, 2.0, 2.0, 3.5, 1.0, 0.25);
    let split: [(Workload, usize, Pin); 7] = [
        (Workload::a(), 4, same),
        (Workload::b(), 4, same),
        (Workload::c(), 4, same),
        (Workload::d(), 4, same),
        (Workload::e(), 4, same),
        (Workload::f(), 4, (300, 274.5, 1092.896174863388, 3.515, 4.0, 5.5, 6.0, 1.0, 0.25)),
        (
            Workload::e(),
            8,
            (296, 149.5, 1979.933110367893, 3.9932432432432434, 4.0, 4.0, 5.5, 1.0, 0.25),
        ),
    ];
    for (w, clients, pin) in split {
        let d = SplitDriver::new(2_000, 500, 50);
        let r = run(&d, &Topology::single(&d.platform), &w, phase(50, 300, clients, 99));
        assert_pinned(&r, pin, &format!("split {} x{clients}", w.name));
    }
    // Old `run_phase_concurrent(d, platform, w, 100, 1000, 3, 4)` on
    // MapDriver(1000, 9000): per-op costs differ, so every mix does.
    let map: [Pin; 6] = [
        (1000, 1330.0, 751.8796992481203, 4.976, 1.0, 9.0, 9.0, 1.0, 0.0),
        (1000, 370.0, 2702.702702702703, 1.376, 1.0, 9.0, 9.0, 1.0, 0.0),
        (1000, 250.0, 4000.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0),
        (1000, 378.0, 2645.5026455026455, 1.4, 1.0, 9.0, 9.0, 1.0, 0.0),
        (1000, 846.0, 1182.033096926714, 3.282, 3.0, 9.0, 9.0, 1.0, 0.0),
        (1000, 1465.0, 682.5938566552901, 5.473, 1.0, 10.0, 10.0, 1.0, 0.0),
    ];
    for (w, pin) in all_workloads().into_iter().zip(map) {
        let d = loaded_map(1_000, 9_000, 100);
        let r = run(&d, &Topology::single(&d.platform), &w, phase(100, 1_000, 4, 3));
        assert_pinned(&r, pin, &format!("map {} x4", w.name));
    }
}

#[test]
fn pinned_cluster_reports() {
    // Old `run_sharded_concurrent` with ShardPhase { record_count: 200,
    // total_ops: 2000, seed: 11 }: (shards, cost, workload, clients,
    // cores). The first case is cross-shard scans on 2 shards × 2 cores.
    let cases: [(usize, u64, Workload, usize, usize, Pin); 4] = [
        (
            2,
            4_000,
            Workload::e(),
            4,
            2,
            (2000, 4380.4, 456.5793078257694, 8.749600000000001, 8.8, 8.8, 8.8, 1.0, 0.0),
        ),
        (
            3,
            5_000,
            Workload::a(),
            4,
            2,
            (2000, 3345.0, 597.9073243647235, 6.075, 5.0, 10.0, 10.0, 1.0, 0.0),
        ),
        (1, 10_000, Workload::c(), 8, 2, (2000, 10000.0, 200.0, 39.94, 40.0, 40.0, 40.0, 1.0, 0.0)),
        (
            4,
            10_000,
            Workload::c(),
            8,
            2,
            (2000, 3960.0, 505.050505050505, 13.77, 10.0, 30.0, 40.0, 1.0, 0.0),
        ),
    ];
    for (shards, cost, w, clients, cores, pin) in cases {
        let c = ToyCluster::new(shards, cost, 200);
        let r = run(&c, &c.topology(cores), &w, phase(200, 2_000, clients, 11));
        assert_pinned(&r, pin, &format!("{shards} shards {} x{clients}", w.name));
    }
    // The router aliasing the only shard (the unsharded anchor of fig11).
    let d = loaded_map(1_000, 3_000, 200);
    let r = run(&d, &cores(&d.platform, 2), &Workload::a(), phase(200, 2_000, 8, 11));
    assert_pinned(&r, (2000, 2000.0, 1000.0, 7.888, 8.0, 12.0, 12.0, 1.0, 0.0), "aliased router");
}

#[test]
fn pinned_batched_write_reports() {
    // Old `run_write_batches_concurrent` with BatchWritePhase {
    // record_count: 50, total_records: 600, value_len: 16, seed: 5 } on
    // SplitDriver(2000, 500): (batch, writers).
    let cases: [(usize, usize, Pin); 3] = [
        (1, 1, (600, 1200.0, 500.00000000000006, 2.0, 2.0, 2.0, 2.0, 1.0, 0.25)),
        (8, 3, (600, 408.0, 1470.5882352941176, 16.16, 16.0, 20.0, 24.0, 1.0, 0.25)),
        (32, 2, (576, 592.0, 972.972972972973, 64.88888888888889, 64.0, 80.0, 80.0, 1.0, 0.25)),
    ];
    for (batch, writers, pin) in cases {
        let d = SplitDriver::new(2_000, 500, 50);
        let r = run_write_batches(
            &d,
            &Topology::single(&d.platform),
            &phase(50, 600, writers, 5),
            batch,
            16,
            &Telemetry::default(),
        );
        assert_eq!(r.workload, format!("write-b{batch}"));
        assert_eq!(r.writes.count * batch as u64, r.ops, "latencies are per batch");
        assert_pinned(&r, pin, &format!("batch {batch} x{writers}"));
    }
}

// ---------------------------------------------------------------------------
// The degenerate cases, as properties of the engine
// ---------------------------------------------------------------------------

/// One client is the old single-client runner: nothing queues, an op's
/// latency is its clock delta, the makespan is the clock's advance.
#[test]
fn one_client_never_queues() {
    let mut cases = Cases(0xbeef);
    for _ in 0..40 {
        let w = Workload::read_ratio(cases.in_range(0, 100) as u32)
            .with_distribution(["uniform", "zipfian", "latest"][cases.in_range(0, 2) as usize]);
        let (read_ns, write_ns) = (cases.in_range(1, 2_999), cases.in_range(1, 8_999));
        let d = loaded_map(read_ns, write_ns, 100);
        let t0 = d.platform.clock().now_ns();
        let ops = cases.in_range(1, 499);
        // A one-core machine is as good as an uncapped one.
        let topology = cores(&d.platform, cases.in_range(1, 3) as usize);
        let r = run(&d, &topology, &w, phase(100, ops, 1, cases.next()));
        let spent = d.platform.clock().now_ns() - t0;
        assert_eq!(r.ops, ops);
        assert_eq!(r.elapsed_us, spent as f64 / 1_000.0);
        assert_eq!(r.reads.count * read_ns + r.writes.count * write_ns, spent);
        assert!(r.overall.max_us * 1_000.0 <= read_ns.max(write_ns) as f64 + 1e-6);
    }
}

/// A machine with a core per client is the old uncapped single-machine
/// runner: the core gate never binds, on any workload.
#[test]
fn a_core_per_client_is_uncapped() {
    let mut cases = Cases(0xc0ffee);
    for _ in 0..25 {
        let seed = cases.next();
        let clients = cases.in_range(1, 9) as usize;
        let cost = cases.in_range(100, 4_999);
        let serial = cases.in_range(0, cost);
        let ops = cases.in_range(clients as u64, 399);
        for w in all_workloads() {
            let reports = [usize::MAX, clients].map(|cores_per_machine| {
                let d = SplitDriver::new(cost, serial, 64);
                run(&d, &cores(&d.platform, cores_per_machine), &w, phase(64, ops, clients, seed))
            });
            assert_eq!(reports[0].overall, reports[1].overall, "{} x{clients}", w.name);
            assert_eq!(reports[0].elapsed_us, reports[1].elapsed_us);
        }
    }
}

// ---------------------------------------------------------------------------
// Behaviours of the three former runners, on the one entry point
// ---------------------------------------------------------------------------

#[test]
fn load_then_reads_hit() {
    let d = MapDriver::new(1_000, 2_000);
    load_phase(&d, 1000, 100);
    let r = run(&d, &Topology::single(&d.platform), &Workload::c(), phase(1000, 2000, 1, 42));
    assert_eq!(r.ops, 2000);
    assert!(r.read_hit_rate > 0.999, "all loaded keys must hit");
    assert!((r.overall.mean_us - 1.0).abs() < 0.1, "{:?}", r.overall);
}

#[test]
fn mixed_workload_latency_blends_costs() {
    let d = loaded_map(1_000, 9_000, 500);
    let r =
        run(&d, &Topology::single(&d.platform), &Workload::read_ratio(50), phase(500, 4000, 1, 7));
    assert!(r.overall.mean_us > 2.0 && r.overall.mean_us < 8.0, "{:?}", r.overall);
    assert!(r.reads.mean_us < r.writes.mean_us);
}

#[test]
fn inserts_extend_keyspace_in_disjoint_client_ranges() {
    let d = loaded_map(100, 100, 100);
    run(&d, &Topology::single(&d.platform), &Workload::d(), phase(100, 2000, 4, 1));
    let map = d.map.lock().unwrap();
    assert!(map.len() > 100, "workload D inserts new keys");
    // Client i inserts upward from 100 + i * 500.
    for client in 0..4u64 {
        assert!(map.contains_key(&format_key(100 + client * 500)), "client {client}");
    }
    assert!(!map.contains_key(&format_key(100 + 4 * 500)));
}

#[test]
fn deterministic_given_seed() {
    // One store, serial sections, 4 clients; a 3-shard cluster; batches.
    let split = || {
        let d = SplitDriver::new(2_000, 500, 50);
        run(&d, &Topology::single(&d.platform), &Workload::a(), phase(50, 300, 4, 99))
    };
    let cluster = || {
        let c = ToyCluster::new(3, 5_000, 200);
        run(&c, &c.topology(2), &Workload::a(), phase(200, 2_000, 4, 11))
    };
    for (a, b) in [(split(), split()), (cluster(), cluster())] {
        assert_eq!(a.overall, b.overall, "same seed, same virtual latencies");
        assert_eq!(a.kops_per_sec, b.kops_per_sec);
    }
}

#[test]
fn serial_sections_exclude_across_clients() {
    let at = |clients| {
        let d = SplitDriver::new(1_000, 1_000, 100);
        run(&d, &Topology::single(&d.platform), &Workload::c(), phase(100, 400, clients, 7))
    };
    let (r1, r4) = (at(1), at(4));
    assert!((r1.serial_fraction - 1.0).abs() < 1e-9);
    let speedup = r4.kops_per_sec / r1.kops_per_sec;
    assert!(speedup < 1.1, "serial ops must not scale, got {speedup:.2}x");
}

#[test]
fn parallel_work_overlaps() {
    let at = |clients| {
        let d = SplitDriver::new(10_000, 100, 100);
        run(&d, &Topology::single(&d.platform), &Workload::c(), phase(100, 400, clients, 7))
    };
    let (r1, r4) = (at(1), at(4));
    let speedup = r4.kops_per_sec / r1.kops_per_sec;
    assert!(speedup > 3.0, "1% serial should give ~4x at 4 clients, got {speedup:.2}x");
    assert!(r4.serial_fraction < 0.05);
}

#[test]
fn hit_rate_counts_point_reads_only() {
    let d = SplitDriver::new(1_000, 0, 100);
    let r = run(&d, &Topology::single(&d.platform), &Workload::c(), phase(100, 200, 2, 3));
    assert!(r.read_hit_rate > 0.999);
    assert_eq!(r.ops, 200);
    // Half the keyspace missing: reads of either half are equally likely
    // under a uniform chooser, and scans must not dilute the rate.
    let d = MapDriver::new(100, 100);
    load_phase(&d, 50, 10);
    let topology = Topology::single(&d.platform);
    let r = run(&d, &topology, &Workload::read_ratio(100), phase(100, 2_000, 2, 3));
    assert!((r.read_hit_rate - 0.5).abs() < 0.05, "{}", r.read_hit_rate);
    let r = run(&d, &topology, &Workload::e(), phase(100, 500, 2, 3));
    assert_eq!(r.read_hit_rate, 1.0, "no point reads, nothing to miss");
}

#[test]
fn the_core_cap_queues_clients() {
    let at = |clients| {
        let c = ToyCluster::new(1, 10_000, 200);
        run(&c, &c.topology(2), &Workload::c(), phase(200, 2_000, clients, 11))
    };
    let speedup = at(8).kops_per_sec / at(1).kops_per_sec;
    assert!(
        (1.8..=2.05).contains(&speedup),
        "8 clients on a 2-core machine must cap at ~2x, got {speedup:.2}x"
    );
}

#[test]
fn machines_add_capacity() {
    let with_shards = |shards| {
        let c = ToyCluster::new(shards, 10_000, 200);
        run(&c, &c.topology(2), &Workload::c(), phase(200, 2_000, 8, 11)).kops_per_sec
    };
    let speedup = with_shards(4) / with_shards(1);
    assert!(speedup > 2.5, "4 machines x 2 cores should beat a 1-machine cap: {speedup:.2}x");
}

#[test]
fn fan_out_waits_for_the_slowest_machine_and_adds_router_time() {
    // Every scan costs 4 µs on both shards (in parallel) plus 0.4 µs of
    // router stitching; the 5 % inserts cost 4 µs on one shard.
    let c = ToyCluster::new(2, 4_000, 200);
    let r = run(&c, &c.topology(2), &Workload::e(), phase(200, 400, 1, 11));
    assert_eq!(r.reads.p50_us, 4.4);
    assert_eq!(r.reads.max_us, 4.4);
    assert_eq!(r.writes.max_us, 4.0);
    assert!(r.reads.count > 300 && r.writes.count > 0);
}

#[test]
fn router_time_is_not_double_counted_when_it_aliases_a_machine() {
    let d = loaded_map(1_000, 1_000, 100);
    let r = run(&d, &Topology::single(&d.platform), &Workload::c(), phase(100, 100, 1, 5));
    assert_eq!(r.overall.max_us, 1.0, "one clock delta, counted once");
    assert_eq!(r.elapsed_us, 100.0);
}

#[test]
fn more_clients_than_ops_still_runs_one_op_each() {
    // `run_phase_concurrent` used to divide 5 ops by 8 clients, run
    // nothing and report a 1 ns phase.
    let d = loaded_map(1_000, 1_000, 100);
    let r = run(&d, &Topology::single(&d.platform), &Workload::c(), phase(100, 5, 8, 5));
    assert_eq!(r.ops, 8, "the report states what actually ran");
    assert_eq!(r.overall.count, 8);
    assert_eq!(r.elapsed_us, 1.0);
    let batches = run_write_batches(
        &d,
        &Topology::single(&d.platform),
        &phase(100, 5, 3, 5),
        4,
        10,
        &Telemetry::default(),
    );
    assert_eq!(batches.ops, 12, "one whole batch per writer");
}

#[test]
fn every_op_lands_in_the_registry_on_its_documented_side() {
    // Scans are read-side, read-modify-writes write-side — in the report
    // and in the `ycsb.*` series alike.
    for w in [Workload::e(), Workload::f()] {
        let d = loaded_map(1_000, 2_000, 100);
        let tel = Telemetry::new();
        let r = run_phase(&d, &Topology::single(&d.platform), &w, &phase(100, 600, 3, 9), &tel);
        assert_eq!(tel.counter_value("ycsb.ops"), 600);
        let snapshot = tel.snapshot();
        let histograms = &snapshot.histograms;
        let count =
            |name: &str| histograms.iter().find(|(n, _)| n == name).map_or(0, |(_, h)| h.count());
        assert_eq!(count("ycsb.op_ns"), 600, "{}", w.name);
        assert_eq!(count("ycsb.read_ns"), r.reads.count, "{}", w.name);
        assert_eq!(count("ycsb.write_ns"), r.writes.count, "{}", w.name);
        assert!(r.reads.count > 0 && r.writes.count > 0);
        assert_eq!(r.reads.count + r.writes.count, 600);
    }
    // Workload F: reads and RMWs split ~50/50, and both issue a point read.
    let d = loaded_map(1_000, 2_000, 100);
    let r = run(&d, &Topology::single(&d.platform), &Workload::f(), phase(100, 600, 1, 9));
    assert_eq!(r.reads.mean_us, 1.0);
    assert_eq!(r.writes.mean_us, 3.0, "a read-modify-write is a read plus a write");
}
