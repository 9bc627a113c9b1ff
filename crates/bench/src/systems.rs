//! The systems under test: how each store is configured at the paper's
//! scale, built on its simulated machines, loaded and measured.
//!
//! A figure combines these — a [`Sut`] per column, a [`Cell`] or a
//! [`Phase`] per sweep point — and formats the table.

use std::sync::Arc;

use elsm::{ElsmP1, ElsmP2, P1Options, P2Options, ReadMode};
use elsm_baselines::{
    EleosOptions, EleosStore, ReplicatedUnsecured, ShardedUnsecured, UnsecuredLsm, UnsecuredOptions,
};
use elsm_replica::{ReplicationGroup, ReplicationOptions};
use elsm_shard::{ShardedKv, ShardedOptions};
use sgx_sim::Platform;
use sim_disk::{SimDisk, SimFs};
use ycsb::{
    load_phase, run_phase, run_write_batches, KvDriver, Phase, RunReport, Topology, Workload,
    CLIENT_SEED_MIX,
};

use crate::drivers::{InPlace, Unsecured, Verified};
use crate::results::{note_concurrent, note_run};
use crate::scale::{Scale, VALUE_BYTES};

// Everything not named here is the stores' LevelDB-shaped default (level
// multiplier 10, 7 levels, 4 KiB blocks, 10 Bloom bits/key, leveled serial
// compaction, no value log, no verified cache).

pub(crate) fn p2_options(scale: &Scale, read_mode: ReadMode, cache_paper_mb: u64) -> P2Options {
    P2Options {
        telemetry: crate::telemetry::current(),
        read_mode,
        block_cache_bytes: scale.mb(cache_paper_mb) as usize,
        write_buffer_bytes: scale.write_buffer_bytes(),
        level1_max_bytes: scale.level1_bytes(),
        target_file_bytes: scale.file_bytes(),
        ..P2Options::default()
    }
}

pub(crate) fn p1_options(scale: &Scale, buffer_paper_mb: u64) -> P1Options {
    P1Options {
        buffer_bytes: scale.mb(buffer_paper_mb) as usize,
        write_buffer_bytes: scale.write_buffer_bytes(),
        level1_max_bytes: scale.level1_bytes(),
        target_file_bytes: scale.file_bytes(),
        ..P1Options::default()
    }
}

pub(crate) fn unsecured_options(
    scale: &Scale,
    in_enclave: bool,
    use_mmap: bool,
    cache_paper_mb: u64,
) -> UnsecuredOptions {
    UnsecuredOptions {
        in_enclave,
        use_mmap,
        block_cache_bytes: scale.mb(cache_paper_mb) as usize,
        write_buffer_bytes: scale.write_buffer_bytes(),
        level1_max_bytes: scale.level1_bytes(),
        target_file_bytes: scale.file_bytes(),
        ..UnsecuredOptions::default()
    }
}

fn eleos_options(scale: &Scale) -> EleosOptions {
    EleosOptions {
        capacity_limit_bytes: scale.gb(1.0) * 2, // 1 GB of live data ≈ 2× raw
        resident_bytes: scale.mb(128) as usize,
        persist_buffer_bytes: scale.write_buffer_bytes(),
    }
}

/// A fresh machine with the paper CPU's cost model.
pub(crate) fn machine(scale: &Scale) -> Arc<Platform> {
    Platform::new(scale.cost_model())
}

/// A system under test: the store behind its driver adapter, the machines
/// the scheduler places its work on, and how to push a finished load out
/// of the write buffer (read figures measure disk-resident data).
pub(crate) struct Sut<D> {
    pub(crate) driver: D,
    pub(crate) topology: Topology,
    flush: fn(&D),
}

impl<D> Sut<D> {
    /// One store on one machine with a core per client.
    pub(crate) fn single(platform: &Arc<Platform>, driver: D, flush: fn(&D)) -> Self {
        Sut { driver, topology: Topology::single(platform), flush }
    }

    /// Caps the cores of every machine.
    pub(crate) fn with_cores(mut self, cores_per_machine: usize) -> Self {
        self.topology.cores_per_machine = cores_per_machine;
        self
    }
}

pub(crate) fn sut_p2(store: ElsmP2) -> Sut<Verified<ElsmP2>> {
    let platform = store.platform().clone();
    Sut::single(&platform, Verified(store), |d| d.0.db().flush().expect("flush"))
}

pub(crate) fn sut_p1(store: ElsmP1) -> Sut<Verified<ElsmP1>> {
    let platform = store.platform().clone();
    Sut::single(&platform, Verified(store), |d| d.0.db().flush().expect("flush"))
}

pub(crate) fn sut_unsecured(store: UnsecuredLsm) -> Sut<Unsecured<UnsecuredLsm>> {
    let platform = store.platform().clone();
    Sut::single(&platform, Unsecured(store), |d| d.0.db().flush().expect("flush"))
}

pub(crate) fn open_p2(scale: &Scale, options: P2Options) -> Sut<Verified<ElsmP2>> {
    sut_p2(ElsmP2::open(machine(scale), options).expect("open p2"))
}

/// eLSM-P2 at the paper's configuration.
pub(crate) fn p2(scale: &Scale, read_mode: ReadMode, cache_mb: u64) -> Sut<Verified<ElsmP2>> {
    open_p2(scale, p2_options(scale, read_mode, cache_mb))
}

pub(crate) fn open_p1(scale: &Scale, options: P1Options) -> Sut<Verified<ElsmP1>> {
    sut_p1(ElsmP1::open(machine(scale), options).expect("open p1"))
}

/// eLSM-P1 at the paper's configuration.
pub(crate) fn p1(scale: &Scale, buffer_paper_mb: u64) -> Sut<Verified<ElsmP1>> {
    open_p1(scale, p1_options(scale, buffer_paper_mb))
}

pub(crate) fn open_unsecured(
    scale: &Scale,
    options: UnsecuredOptions,
) -> Sut<Unsecured<UnsecuredLsm>> {
    sut_unsecured(UnsecuredLsm::open(machine(scale), options).expect("open unsecured"))
}

/// The unsecured LevelDB running outside the enclave with mmap reads.
pub(crate) fn leveldb_outside(scale: &Scale) -> Sut<Unsecured<UnsecuredLsm>> {
    open_unsecured(scale, unsecured_options(scale, false, true, 8))
}

pub(crate) fn eleos(scale: &Scale) -> Sut<InPlace<EleosStore>> {
    let platform = machine(scale);
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let store = EleosStore::new(platform.clone(), fs, eleos_options(scale));
    Sut::single(&platform, InPlace(store), |_| ())
}

/// A hash-partitioned authenticated cluster: one machine of `cores`
/// enclave cores per shard behind the trusted router.
pub(crate) fn sharded_p2(scale: &Scale, shards: usize, cores: usize) -> Sut<Verified<ShardedKv>> {
    let options = ShardedOptions::hash(shards, p2_options(scale, ReadMode::Mmap, 8));
    let cluster = ShardedKv::open(machine(scale), options).expect("open sharded p2");
    let topology = Topology {
        machines: (0..shards).map(|s| cluster.shard_platform(s).clone()).collect(),
        router: cluster.router_platform().clone(),
        cores_per_machine: cores,
    };
    Sut { driver: Verified(cluster), topology, flush: |d| d.0.flush().expect("flush") }
}

/// The unsecured cluster on the same machines as [`sharded_p2`].
pub(crate) fn sharded_unsecured(
    scale: &Scale,
    shards: usize,
    cores: usize,
) -> Sut<Unsecured<ShardedUnsecured>> {
    let options = unsecured_options(scale, false, true, 8);
    let cluster =
        ShardedUnsecured::open(machine(scale), shards, options).expect("open sharded unsecured");
    let topology = Topology {
        machines: (0..shards).map(|s| cluster.shard_platform(s).clone()).collect(),
        router: cluster.router_platform().clone(),
        cores_per_machine: cores,
    };
    Sut { driver: Unsecured(cluster), topology, flush: |d| d.0.flush().expect("flush") }
}

/// A replicated authenticated group. Each **replica** is one machine of
/// `cores` enclave cores and the primary plays the router role — a read
/// phase never touches it, so read scaling is purely the replicas'.
pub(crate) fn replicated_p2(
    scale: &Scale,
    replicas: usize,
    cores: usize,
) -> Sut<Verified<ReplicationGroup>> {
    let group = ReplicationGroup::open(
        machine(scale),
        p2_options(scale, ReadMode::Mmap, 8),
        ReplicationOptions { replicas, ..Default::default() },
    )
    .expect("open replication group");
    let topology = Topology {
        machines: (0..replicas).map(|i| group.replica_platform(i)).collect(),
        router: group.primary_store().platform().clone(),
        cores_per_machine: cores,
    };
    Sut { driver: Verified(group), topology, flush: |d| d.0.flush().expect("flush") }
}

/// The unsecured replicated group on the same machines as
/// [`replicated_p2`].
pub(crate) fn replicated_unsecured(
    scale: &Scale,
    replicas: usize,
    cores: usize,
) -> Sut<Unsecured<ReplicatedUnsecured>> {
    let options = unsecured_options(scale, false, true, 8);
    let group = ReplicatedUnsecured::open(machine(scale), replicas, options)
        .expect("open replicated unsecured");
    let topology = Topology {
        machines: (0..replicas).map(|i| group.replica_platform(i).clone()).collect(),
        router: group.primary_platform().clone(),
        cores_per_machine: cores,
    };
    Sut { driver: Unsecured(group), topology, flush: |d| d.0.flush().expect("flush") }
}

/// One single-client latency cell: the dataset, whether it is flushed to
/// disk before measuring, and the mix to measure.
///
/// The seeds fold [`CLIENT_SEED_MIX`] in so the lone client replays
/// `seeded_rng(0xf16)` etc. — the streams these rows were first recorded
/// with.
pub(crate) struct Cell {
    pub(crate) workload: Workload,
    pub(crate) records: u64,
    pub(crate) ops: u64,
    pub(crate) seed: u64,
    pub(crate) flush: bool,
}

/// Uniform point reads of disk-resident data.
pub(crate) fn reads(records: u64, ops: u64) -> Cell {
    let workload = Workload::read_ratio(100);
    Cell { workload, records, ops, seed: 0xf16 ^ CLIENT_SEED_MIX, flush: true }
}

/// A read/update mix over disk-resident data.
pub(crate) fn mix(workload: &Workload, records: u64, ops: u64) -> Cell {
    Cell { workload: workload.clone(), records, ops, seed: 0xf17 ^ CLIENT_SEED_MIX, flush: true }
}

/// Updates only, starting from wherever the load left the write buffer.
pub(crate) fn writes(records: u64, ops: u64) -> Cell {
    let workload = Workload::read_ratio(0);
    Cell { workload, records, ops, seed: 0x717 ^ CLIENT_SEED_MIX, flush: false }
}

impl<D: KvDriver> Sut<D> {
    pub(crate) fn load(&self, records: u64, value_len: usize, flush: bool) {
        load_phase(&self.driver, records, value_len);
        if flush {
            (self.flush)(&self.driver);
        }
    }

    pub(crate) fn run(&self, workload: &Workload, phase: Phase) -> RunReport {
        run_phase(&self.driver, &self.topology, workload, &phase, &crate::telemetry::current())
    }

    /// Loads and settles the cell's dataset, then [measures](Self::measure).
    pub(crate) fn latency(&self, cell: &Cell) -> f64 {
        self.load(cell.records, VALUE_BYTES, cell.flush);
        self.measure(cell)
    }

    /// Measures one client on the loaded data and records the run; returns
    /// the mean latency in µs.
    pub(crate) fn measure(&self, cell: &Cell) -> f64 {
        let phase =
            Phase { record_count: cell.records, total_ops: cell.ops, clients: 1, seed: cell.seed };
        let report = self.run(&cell.workload, phase);
        note_run(&report);
        report.overall.mean_us
    }

    /// Loads, flushes, measures `phase.clients` clients and records the
    /// run under `label`; returns kops/s.
    pub(crate) fn throughput(&self, label: &str, workload: &Workload, phase: Phase) -> f64 {
        self.load(phase.record_count, VALUE_BYTES, true);
        let report = self.run(workload, phase);
        note_concurrent(label, &report);
        report.kops_per_sec
    }

    /// Loads, then measures a write-only phase of `batch`-record
    /// `put_batch` calls and records it under `{label}_b{batch}`; returns
    /// krecords/s.
    pub(crate) fn batched_writes(&self, label: &str, phase: Phase, batch: usize) -> f64 {
        self.load(phase.record_count, VALUE_BYTES, false);
        let report = run_write_batches(
            &self.driver,
            &self.topology,
            &phase,
            batch,
            VALUE_BYTES,
            &crate::telemetry::current(),
        );
        note_concurrent(&format!("{label}_b{batch}"), &report);
        report.kops_per_sec
    }
}
