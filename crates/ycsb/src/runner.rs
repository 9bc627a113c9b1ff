//! The load/run driver (§6.1): "YCSB framework works in two phases: the
//! load phase when it initializes the system by populating the dataset, and
//! the evaluation phase when it drives the target workload to the system
//! and measures the performance."
//!
//! Every run phase — one client or thirty-two, one store or a cluster —
//! goes through one deterministic discrete-event scheduler on virtual
//! time, so every number reflects the cost model (EPC paging, world
//! switches, disk, hashing) and the machine model below, and nothing else.
//!
//! # Machine model
//!
//! A [`Topology`] names the machines a store runs on (one [`Platform`] per
//! enclave machine) plus the platform of the trusted router in front of
//! them. Operations execute against the driver one at a time, so the
//! store's real code paths run unchanged; the scheduler reads each op's
//! cost off every machine's own clock and places it on the timeline of
//! the virtual client that issued it:
//!
//! * **clients** — each keeps its own timeline; the client that is free
//!   earliest issues the next op (ties by index);
//! * **serial classes** — virtual time charged inside a
//!   [`sgx_sim::SerialClass`] section (the store's critical sections)
//!   excludes other clients' sections of the same class *on the same
//!   machine*; everything else overlaps. Flushes, compactions and group
//!   commits on different machines overlap freely;
//! * **cores** — a machine runs at most
//!   [`Topology::cores_per_machine`] ops at once; further clients queue
//!   for the earliest-free core (ties by index). This is what a single
//!   store cannot scale past and a cluster can;
//! * **fan-out** — an op touching several machines (a cross-shard scan)
//!   holds one core on each and completes with the slowest; the router's
//!   own time (routing, stitching) is added serially on the client's
//!   timeline. A router platform that is also a machine (an unsharded
//!   store) is counted once.
//!
//! With one client nothing ever queues and an op's latency is exactly its
//! clock delta; with a store that holds one lock across a whole read every
//! op is 100 % serial and throughput is flat in the client count. Same
//! seed, same schedule, same numbers — on any host.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use sgx_sim::{Platform, SERIAL_CLASSES};

use crate::generator::{format_key, make_value, seeded_rng, KeyChooser};
use crate::histogram::{LatencyHistogram, LatencySummary};
use crate::workload::{Op, Workload};

/// Adapter over any key-value store the harness drives.
pub trait KvDriver {
    /// Inserts or updates a record.
    fn put(&self, key: &[u8], value: &[u8]);
    /// Point read; returns whether the key was found.
    fn get(&self, key: &[u8]) -> bool;
    /// Range scan; returns the number of records.
    fn scan(&self, from: &[u8], to: &[u8]) -> usize;
    /// Inserts or updates a whole batch in one store-level operation.
    ///
    /// The default forwards record by record — exactly the singleton write
    /// path, so stores without a batch entry point measure honestly. Stores
    /// with a group-commit pipeline override this with their real batch
    /// API (one enclave transition, one WAL append for the whole batch).
    fn put_batch(&self, items: &[(Vec<u8>, Vec<u8>)]) {
        for (key, value) in items {
            self.put(key, value);
        }
    }
}

/// Registry-backed per-operation recording of a run phase: an always-live
/// op counter plus latency histograms (nanoseconds, power-of-two buckets)
/// for all, read-side and write-side operations.
///
/// Histograms obey the registry's enabled gate and charge no virtual
/// time, so an instrumented run and an uninstrumented run of the same
/// workload see identical virtual clocks — the property the telemetry
/// overhead test pins.
#[derive(Debug, Clone)]
struct OpRecorder {
    ops: telemetry::Counter,
    op_ns: telemetry::Histogram,
    read_ns: telemetry::Histogram,
    write_ns: telemetry::Histogram,
}

impl OpRecorder {
    /// Registers the `ycsb.*` series on `telemetry`.
    fn new(telemetry: &telemetry::Telemetry) -> Self {
        OpRecorder {
            ops: telemetry.counter("ycsb.ops"),
            op_ns: telemetry.histogram("ycsb.op_ns"),
            read_ns: telemetry.histogram("ycsb.read_ns"),
            write_ns: telemetry.histogram("ycsb.write_ns"),
        }
    }

    fn record(&self, ns: u64, read_side: bool) {
        self.ops.inc();
        self.op_ns.observe(ns);
        if read_side {
            self.read_ns.observe(ns);
        } else {
            self.write_ns.observe(ns);
        }
    }
}

/// Client `i` of a phase draws from `seeded_rng(seed ^ CLIENT_SEED_MIX·(i+1))`,
/// so a one-client phase seeded `s ^ CLIENT_SEED_MIX` replays the stream
/// `seeded_rng(s)`.
pub const CLIENT_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

fn client_rng(seed: u64, client: usize) -> StdRng {
    seeded_rng(seed ^ CLIENT_SEED_MIX.wrapping_mul(client as u64 + 1))
}

/// The machines a run phase is scheduled on (see the module docs).
#[derive(Debug, Clone)]
pub struct Topology {
    /// One platform per machine executing store operations.
    pub machines: Vec<Arc<Platform>>,
    /// The trusted router's platform; may be one of `machines`.
    pub router: Arc<Platform>,
    /// Enclave cores per machine: the per-machine concurrency cap.
    pub cores_per_machine: usize,
}

impl Topology {
    /// One store on one machine that is its own router, with a core for
    /// every client: only the store's serial sections limit scaling.
    pub fn single(platform: &Arc<Platform>) -> Self {
        Topology {
            machines: vec![platform.clone()],
            router: platform.clone(),
            cores_per_machine: usize::MAX,
        }
    }
}

/// Size of a run phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Size of the loaded keyspace (must match the load phase).
    pub record_count: u64,
    /// Operations across all clients; each client runs
    /// `max(1, total_ops / clients)` of them.
    pub total_ops: u64,
    /// Number of virtual clients (offered load).
    pub clients: usize,
    /// Reproducibility seed.
    pub seed: u64,
}

impl Phase {
    fn clients(&self) -> usize {
        self.clients.max(1)
    }

    fn per_client(&self, ops_per_call: u64) -> u64 {
        (self.total_ops / (ops_per_call * self.clients() as u64)).max(1)
    }
}

/// Outcome of a run phase.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Number of virtual clients.
    pub clients: usize,
    /// Operations (records, for a batched-write phase) actually executed.
    pub ops: u64,
    /// Simulated wall time of the phase in microseconds: the latest client
    /// finish time.
    pub elapsed_us: f64,
    /// Throughput in thousands of operations per simulated second.
    pub kops_per_sec: f64,
    /// Per-operation latency, including queueing behind other clients'
    /// serial sections and for cores.
    pub overall: LatencySummary,
    /// Read-side latency (reads and scans).
    pub reads: LatencySummary,
    /// Write-side latency (updates, inserts, read-modify-writes, batches).
    pub writes: LatencySummary,
    /// Fraction of point reads (incl. the read half of a
    /// read-modify-write) that found their key.
    pub read_hit_rate: f64,
    /// Fraction of all charged virtual time spent in serial sections —
    /// the Amdahl ceiling of the run.
    pub serial_fraction: f64,
    /// Virtual time the ops themselves were charged, per op (µs): each
    /// op's span on the machines it touched plus router time, with no
    /// queueing. The work a closed-loop row measures, whatever the
    /// schedule made of it.
    pub charged_us_per_op: f64,
    /// Mean over clients of the time each finished its last op (µs) —
    /// beside `elapsed_us`, the last client's finish, it shows how much of
    /// a makespan change is one slow client.
    pub mean_finish_us: f64,
}

/// Loads `record_count` records (the YCSB load phase).
pub fn load_phase(driver: &dyn KvDriver, record_count: u64, value_len: usize) {
    for i in 0..record_count {
        driver.put(&format_key(i), &make_value(i, value_len));
    }
}

/// What one executed op was, for the report's splits.
struct OpOutcome {
    /// Counts toward the read-side latency summary (else write-side).
    read_side: bool,
    /// `Some(found)` when the op issued a point read.
    hit: Option<bool>,
}

/// One virtual client's workload state: its RNG, key chooser and private
/// insert range (clients insert into disjoint ranges above the loaded
/// keyspace, so the data each sees is independent of the interleaving).
struct Client {
    rng: StdRng,
    chooser: KeyChooser,
    insert_cursor: u64,
}

impl Client {
    /// Draws the next workload op and executes it against `driver`.
    fn execute_op(
        &mut self,
        driver: &dyn KvDriver,
        workload: &Workload,
        record_count: u64,
    ) -> OpOutcome {
        let existing_key = |rng: &mut StdRng| self.chooser.next(rng, record_count, record_count);
        match workload.next_op(&mut self.rng) {
            Op::Read => {
                let k = existing_key(&mut self.rng);
                OpOutcome { read_side: true, hit: Some(driver.get(&format_key(k))) }
            }
            Op::Update => {
                let k = existing_key(&mut self.rng);
                driver.put(&format_key(k), &make_value(k, workload.value_len));
                OpOutcome { read_side: false, hit: None }
            }
            Op::Insert => {
                let k = self.insert_cursor;
                self.insert_cursor += 1;
                driver.put(&format_key(k), &make_value(k, workload.value_len));
                OpOutcome { read_side: false, hit: None }
            }
            Op::Scan => {
                let k = existing_key(&mut self.rng);
                let len = self.rng.gen_range(1..=workload.max_scan_len as u64);
                let to = (k + len).min(record_count.saturating_sub(1));
                driver.scan(&format_key(k), &format_key(to));
                OpOutcome { read_side: true, hit: None }
            }
            Op::ReadModifyWrite => {
                let k = existing_key(&mut self.rng);
                let key = format_key(k);
                let hit = driver.get(&key);
                driver.put(&key, &make_value(k, workload.value_len));
                OpOutcome { read_side: false, hit: Some(hit) }
            }
        }
    }
}

/// One machine's schedule state.
struct Machine {
    core_free_at: Vec<u64>,
    lock_free_at: [u64; SERIAL_CLASSES],
}

impl Machine {
    /// Index of the earliest-free core (ties by index).
    fn pick_core(&self) -> usize {
        (0..self.core_free_at.len()).min_by_key(|&i| (self.core_free_at[i], i)).expect("a core")
    }
}

/// What a scheduled phase measured, before it is summarized.
#[derive(Default)]
struct Tally {
    overall: LatencyHistogram,
    reads: LatencyHistogram,
    writes: LatencyHistogram,
    read_hits: u64,
    read_total: u64,
    charged_total: u64,
    charged_serial: u64,
    elapsed_ns: u64,
    finish_sum_ns: u64,
}

impl Tally {
    fn report(mut self, workload: String, clients: usize, ops: u64) -> RunReport {
        let elapsed_ns = self.elapsed_ns.max(1);
        RunReport {
            workload,
            clients,
            ops,
            elapsed_us: elapsed_ns as f64 / 1_000.0,
            kops_per_sec: ops as f64 / (elapsed_ns as f64 / 1e9) / 1_000.0,
            overall: self.overall.summary(),
            reads: self.reads.summary(),
            writes: self.writes.summary(),
            read_hit_rate: if self.read_total == 0 {
                1.0
            } else {
                self.read_hits as f64 / self.read_total as f64
            },
            serial_fraction: if self.charged_total == 0 {
                0.0
            } else {
                self.charged_serial as f64 / self.charged_total as f64
            },
            charged_us_per_op: self.charged_total as f64 / 1_000.0 / ops.max(1) as f64,
            mean_finish_us: self.finish_sum_ns as f64 / 1_000.0 / clients.max(1) as f64,
        }
    }
}

/// The scheduler: runs `per_client` calls of `op` for each of `clients`
/// virtual clients, one at a time in virtual-time order, and places each
/// call's measured cost on `topology` (see the module docs).
fn schedule(
    topology: &Topology,
    clients: usize,
    per_client: u64,
    recorder: &OpRecorder,
    mut op: impl FnMut(usize) -> OpOutcome,
) -> Tally {
    let router_distinct = topology.machines.iter().all(|m| !Arc::ptr_eq(m, &topology.router));
    // A machine never needs more cores than there are clients.
    let cores = topology.cores_per_machine.clamp(1, clients);
    let mut machines: Vec<Machine> = topology
        .machines
        .iter()
        .map(|_| Machine { core_free_at: vec![0; cores], lock_free_at: [0; SERIAL_CLASSES] })
        .collect();
    let mut free_at = vec![0u64; clients];
    let mut ops_done = vec![0u64; clients];
    let mut tally = Tally::default();
    let mut costs: Vec<(u64, [u64; SERIAL_CLASSES])> = Vec::with_capacity(machines.len());

    for _ in 0..per_client * clients as u64 {
        let i = (0..clients)
            .filter(|&i| ops_done[i] < per_client)
            .min_by_key(|&i| (free_at[i], i))
            .expect("a client with work left");
        // Mark every machine's clock and serial accumulators, run the op,
        // then turn each mark into that machine's cost: its clock only
        // advances for the work that machine did, and its serial deltas
        // are clamped to that.
        costs.clear();
        costs.extend(topology.machines.iter().map(|p| (p.clock().now_ns(), p.serial_snapshot())));
        let router_before = topology.router.clock().now_ns();
        let outcome = op(i);
        let router_after = topology.router.clock().now_ns();
        for (p, cost) in topology.machines.iter().zip(costs.iter_mut()) {
            let (c0, s0) = *cost;
            let (delta, s1) = (p.clock().now_ns() - c0, p.serial_snapshot());
            *cost = (delta, std::array::from_fn(|k| (s1[k] - s0[k]).min(delta)));
        }
        let router_ns = if router_distinct { router_after - router_before } else { 0 };

        // The op begins once its client, a core on every involved machine
        // and every serial class it enters there are free. Sections of
        // different classes nest in the store (a flush's write-lock
        // windows sit inside its maintenance section), so the op's serial
        // span is the max per-class delta while every involved class's
        // horizon advances by its own delta.
        let mut begin = free_at[i];
        let mut span = 0u64;
        let mut serial_span = 0u64;
        for (m, (delta, serial)) in machines.iter().zip(&costs) {
            if *delta == 0 {
                continue;
            }
            span = span.max(*delta);
            serial_span = serial_span.max(serial.iter().copied().max().unwrap_or(0));
            begin = begin.max(m.core_free_at[m.pick_core()]);
            for (d, horizon) in serial.iter().zip(&m.lock_free_at) {
                if *d > 0 {
                    begin = begin.max(*horizon);
                }
            }
        }
        let finish = begin + span + router_ns;
        for (m, (delta, serial)) in machines.iter_mut().zip(&costs) {
            if *delta == 0 {
                continue;
            }
            let core = m.pick_core();
            m.core_free_at[core] = finish;
            for (d, horizon) in serial.iter().zip(m.lock_free_at.iter_mut()) {
                if *d > 0 {
                    *horizon = begin + d;
                }
            }
        }

        let latency = finish - free_at[i];
        recorder.record(latency, outcome.read_side);
        tally.overall.record_ns(latency);
        let side = if outcome.read_side { &mut tally.reads } else { &mut tally.writes };
        side.record_ns(latency);
        tally.read_total += u64::from(outcome.hit.is_some());
        tally.read_hits += u64::from(outcome.hit == Some(true));
        tally.charged_total += span + router_ns;
        tally.charged_serial += serial_span;
        free_at[i] = finish;
        ops_done[i] += 1;
    }
    tally.elapsed_ns = free_at.iter().copied().max().unwrap_or(0);
    tally.finish_sum_ns = free_at.iter().sum();
    tally
}

/// Runs `phase.total_ops` operations of `workload` spread over
/// `phase.clients` virtual clients against `driver`, scheduled on
/// `topology`; every op's latency also lands in `telemetry`'s `ycsb.*`
/// series (`ycsb.ops`, `ycsb.op_ns`, `ycsb.read_ns`, `ycsb.write_ns`).
pub fn run_phase(
    driver: &dyn KvDriver,
    topology: &Topology,
    workload: &Workload,
    phase: &Phase,
    telemetry: &telemetry::Telemetry,
) -> RunReport {
    let clients = phase.clients();
    let per_client = phase.per_client(1);
    let mut fleet: Vec<Client> = (0..clients)
        .map(|i| Client {
            rng: client_rng(phase.seed, i),
            chooser: KeyChooser::by_name(&workload.distribution, phase.record_count.max(1)),
            insert_cursor: phase.record_count + i as u64 * per_client,
        })
        .collect();
    schedule(topology, clients, per_client, &OpRecorder::new(telemetry), |i| {
        fleet[i].execute_op(driver, workload, phase.record_count)
    })
    .report(workload.name.clone(), clients, per_client * clients as u64)
}

/// Runs a write-only phase where each client issues
/// [`KvDriver::put_batch`] calls of `batch_size` uniformly chosen keys
/// (`phase.total_ops` counts *records*, rounded down to whole batches per
/// client), on the same scheduler as [`run_phase`].
///
/// Throughput is reported in records per second (`ops` counts records,
/// not batches), so sweeps over `batch_size` are directly comparable;
/// latencies are whole-batch latencies. `batch_size` 1 measures the
/// singleton write path.
pub fn run_write_batches(
    driver: &dyn KvDriver,
    topology: &Topology,
    phase: &Phase,
    batch_size: usize,
    value_len: usize,
    telemetry: &telemetry::Telemetry,
) -> RunReport {
    let clients = phase.clients();
    let batch = batch_size.max(1);
    let per_client = phase.per_client(batch as u64);
    let chooser = KeyChooser::by_name("uniform", phase.record_count.max(1));
    let mut rngs: Vec<StdRng> = (0..clients).map(|i| client_rng(phase.seed, i)).collect();
    schedule(topology, clients, per_client, &OpRecorder::new(telemetry), |i| {
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..batch)
            .map(|_| {
                let k = chooser.next(&mut rngs[i], phase.record_count, phase.record_count);
                (format_key(k), make_value(k, value_len))
            })
            .collect();
        driver.put_batch(&items);
        OpOutcome { read_side: false, hit: None }
    })
    .report(format!("write-b{batch}"), clients, per_client * (clients * batch) as u64)
}
