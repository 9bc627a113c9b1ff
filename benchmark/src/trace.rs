//! The traced run: the same protocol with the telemetry registry enabled
//! and benchmark-side spans around every top-level call, a ladder that
//! times each layer's public functions from outside, twin runs that
//! isolate one layer by subtraction, and the per-layer metrics derived
//! from all of it.
//!
//! Untraced and traced repetitions alternate inside this one invocation,
//! so `telemetry.overhead_share` compares like with like.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use elsm::{AuthenticatedKv, ElsmError};
use elsm_crypto::hmac::hmac_sha256;
use elsm_crypto::sha256;
use lsm_store::{Db, EnvConfig, InternalKey, Options, Record, StorageEnv, TableOptions, ValueKind};
use merkle::{leaf_hash, prove_range, verify_range, LevelDigest, MerkleTree};
use sgx_sim::Platform;
use sim_disk::{Placement, SimDisk, SimFs};
use telemetry::Telemetry;

use crate::alloc;
use crate::deploy::{store_options, Deployment};
use crate::endtoend::{self, Metric};
use crate::estimator::{percentile, repeat_min};
use crate::run::{self, RepData};
use crate::workloads::{Op, Plan, Spec};
use crate::Outcome;

/// Name, unit, better direction, and the end-to-end metric @ workload
/// each per-layer metric should move (elsewhere: no change).
pub const PER_LAYER: [(&str, &str, &str, &str); 76] = [
    ("crypto.sha256_64b.ns", "ns", "lower", "read_p50_us @ c_read (Merkle node shape)"),
    ("crypto.sha256_4k.mib_per_s", "MiB/s", "higher", "wall_kops_per_s @ a_update; setup_s @ all"),
    ("crypto.hmac_64b.ns", "ns", "lower", "read_p50_us @ b_cluster (cache tags, channel MACs)"),
    ("merkle.verify_path.ns", "ns", "lower", "read_p50_us @ c_read"),
    ("merkle.audit_path.ns", "ns", "lower", "wall_kops_per_s @ a_update (proof embedding)"),
    ("merkle.verify_range_20.ns", "ns", "lower", "read_p50_us @ e_scan"),
    ("merkle.tree_build_4k.us", "us", "lower", "wall_kops_per_s @ a_update; setup_s @ all"),
    ("merkle.level_digest_2k.us", "us", "lower", "wall_kops_per_s @ a_update; setup_s @ all"),
    ("lsm.get.p50_us", "us", "lower", "read_p50_us @ c_read"),
    ("lsm.put.p50_us", "us", "lower", "wall_kops_per_s @ a_update"),
    ("lsm.scan.p50_us", "us", "lower", "read_p50_us @ e_scan"),
    ("lsm.memtable_insert.ns", "ns", "lower", "wall_kops_per_s @ a_update"),
    ("lsm.block_seek.ns", "ns", "lower", "read_p50_us @ c_read, e_scan"),
    ("lsm.wal_frame_encode.ns", "ns", "lower", "wall_kops_per_s @ a_update"),
    ("lsm.flushes", "count", "lower", "disk_kib_per_op, sim_kops_per_s @ a_update"),
    ("lsm.compactions", "count", "lower", "disk_kib_per_op, sim_kops_per_s @ a_update"),
    ("lsm.compaction_in_records", "count", "lower", "wall_kops_per_s, sim_kops_per_s @ a_update"),
    ("lsm.compaction_out_per_write", "count", "lower", "disk_kib_per_op, space_amp @ a_update"),
    ("lsm.debt_bytes_end", "B", "lower", "space_amp @ a_update"),
    ("lsm.levels_end", "count", "lower", "read_p50_us @ c_read"),
    ("lsm.vlog_bytes_end", "B", "lower", "space_amp @ b_cluster"),
    ("lsm.vlog_garbage_share_end", "count", "lower", "space_amp @ b_cluster"),
    ("lsm.levels_checked_per_get", "count", "lower", "read_p50_us, sim_read_mean_us @ c_read"),
    ("lsm.stall.count", "count", "lower", "wall_kops_per_s @ a_update"),
    ("lsm.stall.total_share", "count", "lower", "wall_kops_per_s @ a_update"),
    ("lsm.stall.max_ms", "ms", "lower", "wall_kops_per_s @ a_update"),
    ("core.get.p50_us", "us", "lower", "read_p50_us @ c_read, b_cluster"),
    ("core.get.p99_us", "us", "lower", "read_p99_us @ c_read, b_cluster"),
    ("core.put.p50_us", "us", "lower", "wall_kops_per_s @ a_update"),
    ("core.put.p99_us", "us", "lower", "wall_kops_per_s @ a_update"),
    ("core.scan.p50_us", "us", "lower", "read_p50_us @ e_scan"),
    ("core.scan.us_per_record", "us", "lower", "read_p50_us @ e_scan"),
    ("core.get.verify_self_us", "us", "lower", "read_p50_us @ c_read"),
    ("core.verify.proofs_per_read", "count", "lower", "read_p50_us @ c_read, e_scan"),
    ("core.verify.proof_bytes_per_read", "B", "lower", "read_p50_us @ c_read, e_scan"),
    ("core.recover.ms", "ms", "lower", "reported, not summed into setup_s"),
    ("core.cache.hit_ratio", "count", "higher", "read_p50_us, sim_kops_per_s @ b_cluster"),
    ("core.cache.vlog_hit_ratio", "count", "higher", "read_p50_us @ b_cluster"),
    ("core.cache.evictions", "count", "lower", "read_p99_us @ b_cluster"),
    ("core.cache.invalidations", "count", "lower", "read_p99_us @ b_cluster"),
    ("core.get_cached.p50_us", "us", "lower", "read_p50_us @ b_cluster"),
    ("sgx.ecalls_per_op", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.ocalls_per_op", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.cross_copy_bytes_per_op", "B", "lower", "sim_kops_per_s @ all"),
    ("sgx.epc_page_ins_per_kop", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.hash_blocks_per_op", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.enclave_share", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.host_share", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.boundary_share", "count", "lower", "sim_kops_per_s @ all"),
    ("sgx.sim_wall_ratio", "count", "higher", "model vs reality on one line"),
    ("sgx.sim_read_p99_us", "us", "lower", "sim_read_mean_us @ all"),
    ("sgx.charge_hash.ns", "ns", "lower", "wall_kops_per_s @ all"),
    ("disk.seeks_per_op", "count", "lower", "disk_kib_per_op, sim_kops_per_s @ a_update"),
    ("disk.read_at_4k.ns", "ns", "lower", "read_p50_us @ c_read"),
    ("disk.fs_bytes_end", "B", "lower", "space_amp @ all"),
    ("shard.route.ns", "ns", "lower", "read_p50_us @ b_cluster"),
    ("shard.get_overhead.p50_us", "us", "lower", "read_p50_us @ b_cluster"),
    ("shard.balance", "count", "lower", "wall_kops_per_s @ b_cluster"),
    ("replica.events_per_put", "count", "lower", "wall_kops_per_s, setup_s @ b_cluster"),
    ("replica.put_overhead.p50_us", "us", "lower", "wall_kops_per_s, setup_s @ b_cluster"),
    ("replica.get.p50_us", "us", "lower", "read_p50_us @ b_cluster"),
    ("replica.lag_epochs_max", "count", "lower", "correctness of replica reads @ b_cluster"),
    ("telemetry.overhead_share", "count", "lower", "wall_kops_per_s @ all (must stay small)"),
    ("telemetry.trace_dropped", "count", "lower", "diagnostic"),
    ("harness.timer.ns", "ns", "lower", "diagnostic: floor of every per-op latency"),
    ("harness.pregen.ms", "ms", "lower", "diagnostic"),
    ("harness.rep_spread", "count", "lower", "diagnostic: this run's noise level"),
    ("harness.reps_identical", "count", "higher", "validity of repeat-min"),
    ("harness.failed_op_share", "count", "lower", "correctness; any increase is a regression"),
    ("proc.alloc_bytes_per_op", "B", "lower", "allocs_per_op, peak_rss_mib @ all"),
    ("proc.alloc_peak_live_mib", "MiB", "lower", "peak_rss_mib @ all"),
    ("wall.setup_s", "s", "lower", "setup_s @ all (untraced repetitions of this run)"),
    (
        "wall.kops_per_s",
        "kops/s",
        "higher",
        "wall_kops_per_s @ all (untraced repetitions of this run)",
    ),
    ("wall.traced_kops_per_s", "kops/s", "higher", "telemetry.overhead_share"),
    ("sim.kops_per_s", "kops/s", "higher", "sim_kops_per_s @ all"),
    ("sim.setup_ms", "ms", "lower", "setup_s @ all on the model clock"),
];

/// Repetitions of each kind (untraced, traced, twin) in the traced run:
/// as many as fit the time an untraced run of five takes.
const TRACE_REPS: usize = 2;
/// Timed batches per ladder rung; the rung reports the fastest.
const LADDER_BATCHES: usize = 5;
/// Keys the cluster probes read.
const PROBE_KEYS: usize = 2_000;

/// Benchmark-side spans, kept in memory and written out at exit.
#[derive(Default)]
pub struct Spans {
    names: Vec<&'static str>,
    /// name id, start ns, end ns, parent span (-1 = root), rep (-1 = none),
    /// op index (-1 = none).
    rows: Vec<(u32, u64, u64, i64, i32, i64)>,
}

impl Spans {
    fn name_id(&mut self, name: &'static str) -> u32 {
        match self.names.iter().position(|n| *n == name) {
            Some(id) => id as u32,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u32
            }
        }
    }

    /// Records a span; returns its id for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        window: (u64, u64),
        parent: Option<usize>,
        rep: Option<usize>,
        op: Option<usize>,
    ) -> usize {
        let name = self.name_id(name);
        let opt = |v: Option<usize>| v.map_or(-1, |v| v as i64);
        self.rows.push((name, window.0, window.1, opt(parent), opt(rep) as i32, opt(op)));
        self.rows.len() - 1
    }

    /// Writes `{"names": […], "columns": […], "spans": [[…], …]}`.
    pub fn write(&self, path: &std::path::Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        writeln!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed},")?;
        writeln!(out, " \"names\": [{}],", names.join(", "))?;
        writeln!(
            out,
            " \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"rep\", \"op\"],"
        )?;
        writeln!(out, " \"spans\": [")?;
        for (i, (name, start, end, parent, rep, op)) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            writeln!(out, "[{name},{start},{end},{parent},{rep},{op}]{sep}")?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Times layer functions in batches, one span per batch.
struct Ladder<'a> {
    spans: &'a mut Spans,
    parent: usize,
    epoch: Instant,
}

impl Ladder<'_> {
    /// Nanoseconds per call of `f`: the fastest of the batches divided by
    /// its length. Each call consumes one pre-built input, so building
    /// inputs is never timed.
    fn time_batches<T>(
        &mut self,
        name: &'static str,
        batches: Vec<Vec<T>>,
        mut f: impl FnMut(T),
    ) -> f64 {
        let mut best = f64::INFINITY;
        for batch in batches {
            let calls = batch.len().max(1) as f64;
            let t0 = Instant::now();
            for input in batch {
                f(input);
            }
            let ns = t0.elapsed().as_nanos() as u64;
            let start = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.add(name, (start, start + ns), Some(self.parent), None, None);
            best = best.min(ns as f64 / calls);
        }
        best
    }

    /// Nanoseconds per call of `f`, which gets only the call's index.
    fn time(&mut self, name: &'static str, iters: usize, f: impl FnMut(usize)) -> f64 {
        let batches = vec![(0..iters).collect::<Vec<usize>>(); LADDER_BATCHES];
        self.time_batches(name, batches, f)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Percentile in microseconds, 0 when the class has too few samples for
/// it (fewer than ten beyond the rank).
fn pct_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    percentile(samples, q).map_or(0.0, us)
}

/// Repeat-min over repetitions collected as one `Vec` each.
fn min_of(reps: &[Vec<u64>]) -> Vec<u64> {
    repeat_min(reps.iter().map(Vec::as_slice))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Repeat-min latencies of the ops selected by `keep`.
fn class_latencies(plan: &Plan, per_op: &[u64], keep: impl Fn(usize, &Op) -> bool) -> Vec<u64> {
    plan.ops
        .iter()
        .enumerate()
        .zip(per_op)
        .filter(|((i, op), _)| keep(*i, op))
        .map(|(_, &t)| t)
        .collect()
}

/// A bare `lsm_store::Db` (no listener, no enclave verification) with the
/// options `ElsmP2` derives, minus the proof-inflation of the size
/// budgets: its records carry no embedded proofs.
fn open_bare_db(cluster: bool) -> Result<Db, ElsmError> {
    let p2 = store_options(cluster, Telemetry::default());
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let env = StorageEnv::new(
        platform,
        fs,
        EnvConfig {
            in_enclave: true,
            use_mmap: true,
            cache_placement: Placement::Untrusted,
            block_cache_bytes: 0,
            block_slot_bytes: p2.block_size * 2,
            sealed_files: false,
        },
        None,
    );
    let options = Options {
        env: env.config().clone(),
        table: TableOptions {
            block_size: p2.block_size,
            bloom_bits_per_key: p2.bloom_bits_per_key,
        },
        write_buffer_bytes: p2.write_buffer_bytes,
        target_file_bytes: p2.target_file_bytes,
        level1_max_bytes: p2.level1_max_bytes,
        level_multiplier: p2.level_multiplier,
        max_levels: p2.max_levels,
        compaction_enabled: p2.compaction_enabled,
        compaction: lsm_store::CompactionConfig {
            strategy: p2.compaction_strategy.clone(),
            parallelism: p2.compaction_parallelism,
        },
        wal_sync: p2.wal_sync,
        vlog: p2.vlog,
        ..Options::default()
    };
    Ok(Db::open(env, options, None)?)
}

/// The same load and the same ops against the bare store; returns the
/// repeat-min per-op latencies of the measured phase.
fn lsm_twin(spec: &Spec, plan: &Plan) -> Result<Vec<u64>, ElsmError> {
    let mut all = Vec::with_capacity(TRACE_REPS);
    for _ in 0..TRACE_REPS {
        let db = open_bare_db(spec.cluster)?;
        for (key, value) in &plan.load {
            db.put(key, value)?;
        }
        db.flush()?;
        let mut op_ns = Vec::with_capacity(plan.ops.len());
        for op in plan.warm.iter().chain(&plan.ops) {
            let t0 = Instant::now();
            match op {
                Op::Get { key, .. } => drop(std::hint::black_box(db.get(key)?)),
                Op::Put { key, value } => drop(std::hint::black_box(db.put(key, value)?)),
                Op::Scan { from, to, .. } => drop(std::hint::black_box(db.scan(from, to)?)),
            }
            op_ns.push(t0.elapsed().as_nanos() as u64);
        }
        all.push(op_ns.split_off(plan.warm.len()));
    }
    Ok(min_of(&all))
}

/// What the cluster-only probes measured.
#[derive(Default)]
struct ClusterProbes {
    route_ns: f64,
    get_overhead_p50_us: f64,
    balance: f64,
    replica_get_p50_us: f64,
    lag_epochs_max: u64,
    put_overhead_p50_us: f64,
    failed: u64,
    attempted: u64,
}

fn cluster_probes(
    dep: &Deployment,
    spec: &Spec,
    plan: &Plan,
    replicated_load_ns: &[u64],
    ladder: &mut Ladder<'_>,
) -> Result<ClusterProbes, ElsmError> {
    let Deployment::Cluster(cluster) = dep else {
        return Ok(ClusterProbes::default());
    };
    let mut out = ClusterProbes::default();
    let keys: Vec<&Vec<u8>> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Get { key, .. } => Some(key),
            _ => None,
        })
        .take(PROBE_KEYS)
        .collect();

    out.route_ns = ladder.time("ladder.shard.shard_of", keys.len(), |i| {
        std::hint::black_box(cluster.shard_of(keys[i]));
    });

    // Router cost by subtraction: the same keys through the router and
    // straight at the owning replication group.
    let mut routed = vec![Vec::new(); TRACE_REPS];
    let mut direct = vec![Vec::new(); TRACE_REPS];
    let mut replica = vec![Vec::new(); TRACE_REPS];
    for r in 0..TRACE_REPS {
        for key in &keys {
            let want = plan.model.get(*key).map(|v| &v[..]);
            let group = cluster
                .replication_group(cluster.shard_of(key))
                .expect("the benchmark cluster is replicated");
            let t0 = Instant::now();
            let a = cluster.get(key);
            routed[r].push(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            let b = group.get(key);
            direct[r].push(t0.elapsed().as_nanos() as u64);
            let t0 = Instant::now();
            let c = group.with_replica(0, |replica| replica.get(key));
            replica[r].push(t0.elapsed().as_nanos() as u64);
            let (c, lag) = match c {
                Ok((record, token)) => (Ok(record), token.lag_epochs()),
                Err(e) => (Err(e), 0),
            };
            out.lag_epochs_max = out.lag_epochs_max.max(lag);
            for got in [a, b, c] {
                out.attempted += 1;
                let ok = matches!(&got, Ok(rec) if rec.as_ref().map(|r| r.value()) == want);
                out.failed += u64::from(!ok);
            }
        }
    }
    let routed_p50 = pct_us(&mut min_of(&routed), 0.5);
    out.get_overhead_p50_us = routed_p50 - pct_us(&mut min_of(&direct), 0.5);
    out.replica_get_p50_us = pct_us(&mut min_of(&replica), 0.5);

    let mut per_shard = vec![0u64; cluster.shard_count()];
    for op in &plan.ops {
        if let Op::Get { key, .. } | Op::Put { key, .. } = op {
            per_shard[cluster.shard_of(key)] += 1;
        }
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    out.balance = per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0);

    // Replication cost by subtraction: the same load into an unreplicated
    // twin cluster.
    let mut twin_load = Vec::with_capacity(TRACE_REPS);
    for _ in 0..TRACE_REPS {
        let twin = Deployment::open(spec.cluster, 0, Telemetry::default())?;
        let mut load_ns = Vec::with_capacity(plan.load.len());
        for (key, value) in &plan.load {
            let t0 = Instant::now();
            twin.kv().put(key, value)?;
            load_ns.push(t0.elapsed().as_nanos() as u64);
        }
        twin_load.push(load_ns);
    }
    out.put_overhead_p50_us =
        pct_us(&mut replicated_load_ns.to_vec(), 0.5) - pct_us(&mut min_of(&twin_load), 0.5);
    Ok(out)
}

/// Times each layer's public functions on records sampled from the
/// loaded store.
fn ladder_rungs(ladder: &mut Ladder<'_>, records: &[Record]) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let block64 = [0xabu8; 64];
    let block4k = vec![0xabu8; 4096];
    let key32 = [0x5au8; 32];
    m.insert(
        "crypto.sha256_64b.ns",
        ladder.time("ladder.crypto.sha256_64b", 20_000, |_| {
            std::hint::black_box(sha256(std::hint::black_box(&block64)));
        }),
    );
    let ns_4k = ladder.time("ladder.crypto.sha256_4k", 500, |_| {
        std::hint::black_box(sha256(std::hint::black_box(&block4k)));
    });
    m.insert("crypto.sha256_4k.mib_per_s", 4096.0 / (1024.0 * 1024.0) / (ns_4k / 1e9));
    m.insert(
        "crypto.hmac_64b.ns",
        ladder.time("ladder.crypto.hmac_64b", 10_000, |_| {
            std::hint::black_box(hmac_sha256(&key32, std::hint::black_box(&block64)));
        }),
    );

    // Merkle rungs over the sampled records' values as leaves.
    let leaves: Vec<_> = records.iter().take(4096).map(|r| leaf_hash(&r.value)).collect();
    let n = leaves.len();
    let tree = MerkleTree::from_leaves(leaves.clone());
    let root = tree.root();
    m.insert(
        "merkle.audit_path.ns",
        ladder.time("ladder.merkle.audit_path", 5_000, |i| {
            std::hint::black_box(tree.audit_path((i * 2_654_435_761) % n));
        }),
    );
    let paths: Vec<_> = (0..64).map(|i| (i * 61) % n).map(|i| (i, tree.audit_path(i))).collect();
    m.insert(
        "merkle.verify_path.ns",
        ladder.time("ladder.merkle.verify_path", 5_000, |i| {
            let (index, path) = &paths[i % paths.len()];
            assert!(MerkleTree::verify(root, n, *index, leaves[*index], path));
        }),
    );
    let span = 20.min(n);
    let lo = (n - span) / 2;
    let range_proof = prove_range(&tree, lo, lo + span - 1);
    m.insert(
        "merkle.verify_range_20.ns",
        ladder.time("ladder.merkle.verify_range_20", 2_000, |_| {
            assert!(verify_range(root, n, lo, &leaves[lo..lo + span], &range_proof));
        }),
    );
    let builds = vec![vec![leaves.clone(); 4]; LADDER_BATCHES];
    m.insert(
        "merkle.tree_build_4k.us",
        ladder.time_batches("ladder.merkle.tree_build_4k", builds, |leaves| {
            std::hint::black_box(MerkleTree::from_leaves(leaves));
        }) / 1e3,
    );
    let digest_input: Vec<&Record> = records.iter().take(2000).collect();
    m.insert(
        "merkle.level_digest_2k.us",
        ladder.time("ladder.merkle.level_digest_2k", 4, |_| {
            let pairs = digest_input.iter().map(|r| (&r.key[..], r.value.to_vec()));
            std::hint::black_box(LevelDigest::from_records(3, pairs));
        }) / 1e3,
    );

    // lsm-store rungs.
    let inserts: Vec<Record> = records.iter().take(1000).cloned().collect();
    let batches = vec![vec![inserts.clone()]; LADDER_BATCHES];
    let per_batch = ladder.time_batches("ladder.lsm.memtable_insert_1k", batches, |records| {
        let mut memtable = lsm_store::memtable::MemTable::new();
        for record in records {
            memtable.insert(record);
        }
        std::hint::black_box(memtable.len());
    });
    m.insert("lsm.memtable_insert.ns", per_batch / inserts.len().max(1) as f64);
    let mut builder = lsm_store::block::BlockBuilder::new();
    let mut block_keys = Vec::new();
    for record in records.iter().take(64) {
        let ik = InternalKey::new(&record.key, record.ts, record.kind);
        // Level dumps are in internal-key order; keep only strictly
        // increasing keys so the block is well formed whatever was sampled.
        if block_keys.last().is_none_or(|last: &InternalKey| last < &ik) {
            builder.add(ik.encoded(), &record.value);
            block_keys.push(ik);
        }
    }
    let block = lsm_store::block::Block::parse(bytes::Bytes::from(builder.finish()))
        .expect("a block built from sampled records parses");
    m.insert(
        "lsm.block_seek.ns",
        ladder.time("ladder.lsm.block_seek", 20_000, |i| {
            let target = &block_keys[(i * 7) % block_keys.len()];
            std::hint::black_box(block.seek(target.encoded()).next());
        }),
    );
    let frame: Vec<Record> = records.iter().take(1).cloned().collect();
    m.insert(
        "lsm.wal_frame_encode.ns",
        ladder.time("ladder.lsm.wal_frame_encode", 20_000, |_| {
            std::hint::black_box(lsm_store::encode_frame(std::hint::black_box(&frame)));
        }),
    );

    // sgx-sim and sim-disk rungs on scratch instances.
    let platform = Platform::with_defaults();
    m.insert(
        "sgx.charge_hash.ns",
        ladder.time("ladder.sgx.charge_hash_64", 50_000, |_| platform.charge_hash(64)),
    );
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let file = fs.create("ladder").expect("scratch file");
    file.append(&vec![0x11u8; 1 << 20]);
    m.insert(
        "disk.read_at_4k.ns",
        ladder.time("ladder.disk.read_at_4k", 10_000, |i| {
            let offset = (i * 4096) % ((1 << 20) - 4096);
            std::hint::black_box(file.read_at(offset, 4096).expect("in bounds"));
        }),
    );
    m.insert(
        "harness.timer.ns",
        ladder.time("ladder.harness.timer", 50_000, |_| {
            let t0 = Instant::now();
            std::hint::black_box(t0.elapsed());
        }),
    );
    m
}

/// Records sampled from the deepest non-empty level of the first store
/// (falling back to shallower levels until a few thousand are found).
fn sample_records(dep: &Deployment) -> Result<Vec<Record>, ElsmError> {
    let mut first = None;
    dep.for_each_store(|store| {
        first.get_or_insert_with(|| store.db().clone());
    });
    let db = first.expect("a deployment has a store");
    let mut records: Vec<Record> = Vec::new();
    for level in (1..db.level_bytes().len()).rev() {
        if records.len() >= 4096 {
            break;
        }
        let dump = db.level_record_dump(level)?;
        records.extend(dump.into_iter().filter(|r| r.kind != ValueKind::Delete));
    }
    Ok(records)
}

/// Runs the traced protocol for one workload.
pub fn run(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    pregen_ms: f64,
    epoch: Instant,
) -> Result<Outcome, ElsmError> {
    let mut spans = Spans::default();
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let run_span = spans.add("run", (0, 0), None, None, None);

    // Alternate untraced and traced repetitions; keep the last traced
    // deployment for sampling, probing and the restart check.
    let mut plain: Vec<RepData> = Vec::new();
    let mut traced: Vec<RepData> = Vec::new();
    let mut last = None;
    for r in 0..TRACE_REPS {
        for with_trace in [false, true] {
            let registry = if with_trace { Telemetry::new() } else { Telemetry::default() };
            let t0 = Instant::now();
            let (rep, dep) = run::repetition(spec, plan, registry.clone(), with_trace, epoch)?;
            let name = if with_trace { "rep.traced" } else { "rep.untraced" };
            let index = 2 * r + usize::from(with_trace);
            let rep_span = spans.add(
                name,
                (since(t0), since(Instant::now())),
                Some(run_span),
                Some(index),
                None,
            );
            for &(phase, start, end) in &rep.phase_windows {
                let phase_span = spans.add(phase, (start, end), Some(rep_span), Some(index), None);
                let Some(detail) = &rep.detail else { continue };
                if phase == "phase.load" {
                    for (i, (&start, &ns)) in
                        detail.load_start_ns.iter().zip(&rep.load_ns).enumerate()
                    {
                        spans.add(
                            "op.load_put",
                            (start, start + ns),
                            Some(phase_span),
                            Some(index),
                            Some(i),
                        );
                    }
                } else if phase == "phase.measured" {
                    for (i, op) in plan.ops.iter().enumerate() {
                        let start = detail.start_ns[i];
                        spans.add(
                            op.class(),
                            (start, start + rep.op_ns[i]),
                            Some(phase_span),
                            Some(index),
                            Some(i),
                        );
                    }
                }
            }
            if with_trace {
                traced.push(rep);
                last = Some((dep, registry));
            } else {
                plain.push(rep);
            }
        }
    }
    let (dep, registry) = last.expect("at least one traced repetition ran");
    let identical = run::reps_identical(&plain) & run::reps_identical(&traced);

    // Ladder and probes on the live, loaded deployment.
    let ladder_start = Instant::now();
    let ladder_span = spans.add("ladder", (0, 0), Some(run_span), None, None);
    let records = sample_records(&dep)?;
    let mut ladder = Ladder { spans: &mut spans, parent: ladder_span, epoch };
    let rungs = ladder_rungs(&mut ladder, &records);
    // Untraced on both sides of the subtraction: the twin has no registry.
    let replicated_load = repeat_min(plain.iter().map(|r| &r.load_ns[..]));
    let probes = cluster_probes(&dep, spec, plan, &replicated_load, &mut ladder)?;
    spans.rows[ladder_span].1 = since(ladder_start);
    spans.rows[ladder_span].2 = since(Instant::now());

    let twin_start = Instant::now();
    let lsm_per_op = lsm_twin(spec, plan)?;
    spans.add("twin.lsm", (since(twin_start), since(Instant::now())), Some(run_span), None, None);

    let restart_start = Instant::now();
    let restart = run::restart_check(dep, plan);
    spans.add("restart", (since(restart_start), since(Instant::now())), Some(run_span), None, None);

    // ----- metrics ------------------------------------------------------
    let n = plan.ops.len() as u64;
    let first = &traced[0];
    let c = &first.counters;
    let detail = first.detail.as_ref().expect("traced repetitions carry op detail");
    let per_op = endtoend::per_op_min(&traced);
    let by_class =
        |class: &'static str| class_latencies(plan, &per_op, |_, op| op.class() == class);
    let lsm_by_class =
        |class: &'static str| class_latencies(plan, &lsm_per_op, |_, op| op.class() == class);
    let (mut gets, mut puts, mut scans) =
        (by_class("op.get"), by_class("op.put"), by_class("op.scan"));
    let reads = plan.ops.iter().filter(|op| op.is_read()).count() as u64;
    let get_count = gets.len() as u64;
    let put_count = puts.len() as u64;
    let scan_ns: u64 = scans.iter().sum();
    // `work` is records returned for a SCAN and levels checked for a GET.
    let work_of = |class: &'static str| -> u64 {
        let ops = plan.ops.iter().zip(&detail.work).filter(|(op, _)| op.class() == class);
        ops.map(|(_, &work)| u64::from(work)).sum()
    };
    let (scan_records, levels_checked) = (work_of("op.scan"), work_of("op.get"));
    let mut cached = class_latencies(plan, &per_op, |i, _| detail.proofless[i]);
    let stalled = class_latencies(plan, &per_op, |i, _| detail.stalled[i]);
    let total_ns: u64 = per_op.iter().sum();
    let sim_ns: u64 = first.sim_ns_by_platform.iter().sum();
    let world_ns = c["enclave_ns"] + c["host_ns"] + c["boundary_ns"];
    let mut sim_reads = class_latencies(plan, &first.op_sim_ns, |_, op| op.is_read());
    let plain_ns = endtoend::measured_ns(&plain);
    let traced_ns = endtoend::measured_ns(&traced);
    let raw: Vec<u64> = plain.iter().map(|r| r.op_ns.iter().sum()).collect();
    let (raw_min, raw_max) =
        (raw.iter().min().copied().unwrap_or(0), raw.iter().max().copied().unwrap_or(0));
    let get_p50 = pct_us(&mut gets, 0.5);
    let lsm_get_p50 = pct_us(&mut lsm_by_class("op.get"), 0.5);
    let load_sim_ns = first.load_counters["enclave_ns"]
        + first.load_counters["host_ns"]
        + first.load_counters["boundary_ns"];

    let all_reps = plain.iter().chain(&traced);
    let attempted =
        all_reps.clone().map(|r| r.attempted).sum::<u64>() + restart.attempted + probes.attempted;
    let failed = all_reps.map(|r| r.failed).sum::<u64>() + restart.failed + probes.failed;

    let mut values: BTreeMap<&'static str, f64> = rungs;
    values.extend([
        ("lsm.get.p50_us", lsm_get_p50),
        ("lsm.put.p50_us", pct_us(&mut lsm_by_class("op.put"), 0.5)),
        ("lsm.scan.p50_us", pct_us(&mut lsm_by_class("op.scan"), 0.5)),
        ("lsm.flushes", c["flushes"] as f64),
        ("lsm.compactions", c["compactions"] as f64),
        ("lsm.compaction_in_records", c["compaction_in_records"] as f64),
        ("lsm.compaction_out_per_write", ratio(c["compaction_out_records"], c["db_puts"])),
        ("lsm.debt_bytes_end", first.end.debt_bytes as f64),
        ("lsm.levels_end", first.end.levels as f64),
        ("lsm.vlog_bytes_end", first.end.vlog_bytes as f64),
        ("lsm.vlog_garbage_share_end", ratio(first.end.vlog_garbage_bytes, first.end.vlog_bytes)),
        ("lsm.levels_checked_per_get", ratio(levels_checked, get_count)),
        ("lsm.stall.count", stalled.len() as f64),
        ("lsm.stall.total_share", ratio(stalled.iter().sum(), total_ns)),
        ("lsm.stall.max_ms", stalled.iter().max().copied().unwrap_or(0) as f64 / 1e6),
        ("core.get.p50_us", get_p50),
        ("core.get.p99_us", pct_us(&mut gets, 0.99)),
        ("core.put.p50_us", pct_us(&mut puts, 0.5)),
        ("core.put.p99_us", pct_us(&mut puts, 0.99)),
        ("core.scan.p50_us", pct_us(&mut scans, 0.5)),
        ("core.scan.us_per_record", ratio(scan_ns, scan_records) / 1e3),
        ("core.get.verify_self_us", get_p50 - lsm_get_p50),
        ("core.verify.proofs_per_read", ratio(c["proofs_verified"], reads)),
        ("core.verify.proof_bytes_per_read", ratio(c["proof_bytes"], reads)),
        ("core.recover.ms", restart.recover_ns as f64 / 1e6),
        (
            "core.cache.hit_ratio",
            ratio(c["cache_record_hits"], c["cache_record_hits"] + c["cache_record_misses"]),
        ),
        (
            "core.cache.vlog_hit_ratio",
            ratio(c["cache_vlog_hits"], c["cache_vlog_hits"] + c["cache_vlog_misses"]),
        ),
        ("core.cache.evictions", c["cache_evictions"] as f64),
        ("core.cache.invalidations", c["cache_invalidations"] as f64),
        ("core.get_cached.p50_us", pct_us(&mut cached, 0.5)),
        ("sgx.ecalls_per_op", ratio(c["ecalls"], n)),
        ("sgx.ocalls_per_op", ratio(c["ocalls"], n)),
        ("sgx.cross_copy_bytes_per_op", ratio(c["cross_copy_bytes"], n)),
        ("sgx.epc_page_ins_per_kop", ratio(c["epc_page_ins"] * 1000, n)),
        ("sgx.hash_blocks_per_op", ratio(c["hash_blocks"], n)),
        ("sgx.enclave_share", ratio(c["enclave_ns"], world_ns)),
        ("sgx.host_share", ratio(c["host_ns"], world_ns)),
        ("sgx.boundary_share", ratio(c["boundary_ns"], world_ns)),
        ("sgx.sim_wall_ratio", ratio(sim_ns, plain_ns)),
        ("sgx.sim_read_p99_us", pct_us(&mut sim_reads, 0.99)),
        ("disk.seeks_per_op", ratio(c["disk_seeks"], n)),
        ("disk.fs_bytes_end", first.end.fs_bytes as f64),
        ("shard.route.ns", probes.route_ns),
        ("shard.get_overhead.p50_us", probes.get_overhead_p50_us),
        ("shard.balance", probes.balance),
        (
            "replica.events_per_put",
            ratio(c.get("replica_applied_events").copied().unwrap_or(0), put_count),
        ),
        ("replica.put_overhead.p50_us", probes.put_overhead_p50_us),
        ("replica.get.p50_us", probes.replica_get_p50_us),
        ("replica.lag_epochs_max", probes.lag_epochs_max as f64),
        ("telemetry.overhead_share", traced_ns as f64 / plain_ns as f64 - 1.0),
        ("telemetry.trace_dropped", registry.dropped_spans() as f64),
        ("harness.pregen.ms", pregen_ms),
        ("harness.rep_spread", ratio(raw_max - raw_min, raw_min)),
        ("harness.reps_identical", f64::from(u8::from(identical))),
        ("harness.failed_op_share", ratio(failed, attempted)),
        ("proc.alloc_bytes_per_op", ratio(plain[0].alloc_bytes, n)),
        ("proc.alloc_peak_live_mib", alloc::peak_live_bytes() as f64 / (1024.0 * 1024.0)),
        ("wall.setup_s", endtoend::setup_ns(&plain) as f64 / 1e9),
        ("wall.kops_per_s", n as f64 / (plain_ns as f64 / 1e9) / 1e3),
        ("wall.traced_kops_per_s", n as f64 / (traced_ns as f64 / 1e9) / 1e3),
        ("sim.kops_per_s", n as f64 / (sim_ns as f64 / 1e9) / 1e3),
        ("sim.setup_ms", load_sim_ns as f64 / 1e6),
    ]);

    spans.rows[run_span].2 = since(Instant::now());
    let path = std::path::PathBuf::from(format!("benchmark/out/TRACE.{}.json", spec.name));
    match spans.write(&path, spec.name, seed) {
        Ok(()) => println!("  {} spans written to {}", spans.rows.len(), path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _, _)| Metric {
            name,
            unit,
            value: *values
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} not computed")),
        })
        .collect();
    Ok(Outcome { metrics, attempted, failed, identical })
}
