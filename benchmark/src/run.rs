//! One repetition: fresh platforms and store, load, warm-up, measured
//! phase — every store call timed on both clocks and checked against the
//! pre-computed model answers — plus the restart check.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use elsm::{AuthenticatedKv, ElsmError, VerifiedRecord};
use lsm_store::Timestamp;
use sgx_sim::Platform;
use telemetry::Telemetry;

use crate::alloc;
use crate::deploy::{Deployment, REPLICAS};
use crate::workloads::{Op, Plan, Spec};

/// Counter name → value, summed over the deployment's platforms and
/// stores. Read at phase boundaries only, from public getters.
pub type Counters = BTreeMap<&'static str, u64>;

/// `later - earlier`, per counter.
pub fn delta(later: &Counters, earlier: &Counters) -> Counters {
    later.iter().map(|(k, v)| (*k, v - earlier.get(k).copied().unwrap_or(0))).collect()
}

/// Reads every counter the metrics are derived from.
pub fn counters(dep: &Deployment) -> Counters {
    let mut c = Counters::new();
    let mut add = |name, value: u64| *c.entry(name).or_insert(0) += value;
    for platform in dep.platforms() {
        let s = platform.stats();
        add("ecalls", s.ecalls);
        add("ocalls", s.ocalls);
        add("cross_copy_bytes", s.cross_copy_bytes);
        add("epc_page_ins", s.epc_page_ins);
        add("hash_blocks", s.hash_blocks);
        add("disk_seeks", s.disk_seeks);
        add("disk_bytes", s.disk_bytes);
        let split = platform.time_split();
        add("enclave_ns", split.enclave_ns);
        add("host_ns", split.host_ns);
        add("boundary_ns", split.boundary_ns);
    }
    dep.for_each_store(|store| {
        let db = store.db().stats();
        add("db_puts", db.puts);
        add("flushes", db.flushes);
        add("compactions", db.compactions);
        add("compaction_in_records", db.compaction_input_records);
        add("compaction_out_records", db.compaction_output_records);
        let verify = store.verify_stats();
        add("proofs_verified", verify.proofs_verified);
        add("proof_bytes", verify.proof_bytes);
        let cache = store.cache_stats();
        add("cache_record_hits", cache.record_hits);
        add("cache_record_misses", cache.record_misses);
        add("cache_vlog_hits", cache.vlog_hits);
        add("cache_vlog_misses", cache.vlog_misses);
        add("cache_evictions", cache.evictions);
        add("cache_invalidations", cache.invalidations);
    });
    if let Deployment::Cluster(cluster) = dep {
        for shard in 0..cluster.shard_count() {
            if let Some(group) = cluster.replication_group(shard) {
                for i in 0..group.replica_count() {
                    add("replica_applied_events", group.with_replica(i, |r| r.applied_events()));
                }
            }
        }
    }
    c
}

/// End-of-repetition gauges (instantaneous, not deltas).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EndState {
    /// Σ `SimFs::total_bytes()` over every store.
    pub fs_bytes: u64,
    pub debt_bytes: u64,
    pub vlog_bytes: u64,
    pub vlog_garbage_bytes: u64,
    /// Most non-empty on-disk levels in any one store.
    pub levels: u64,
}

fn end_state(dep: &Deployment) -> EndState {
    let mut end = EndState::default();
    dep.for_each_store(|store| {
        end.fs_bytes += store.fs().total_bytes();
        let db = store.db().stats();
        end.debt_bytes += db.debt_bytes;
        end.vlog_bytes += db.vlog_bytes;
        end.vlog_garbage_bytes += db.vlog_garbage_bytes;
        let levels = store.db().level_bytes().iter().skip(1).filter(|&&b| b > 0).count() as u64;
        end.levels = end.levels.max(levels);
    });
    end
}

/// Per-op detail only the traced run collects (all of it outside the
/// per-op timer).
#[derive(Debug, Default)]
pub struct OpDetail {
    /// Start of each measured op, nanoseconds since the run's epoch.
    pub start_ns: Vec<u64>,
    /// GET: levels checked; SCAN: records returned; PUT: 0.
    pub work: Vec<u32>,
    /// GET answered with no proof (memtable or verified cache).
    pub proofless: Vec<bool>,
    /// PUT during which a flush or compaction completed.
    pub stalled: Vec<bool>,
    /// Start of each load put, nanoseconds since the run's epoch.
    pub load_start_ns: Vec<u64>,
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
pub struct RepData {
    /// Wall time of each load put.
    pub load_ns: Vec<u64>,
    /// Wall time of the final flush plus the warm-up ops.
    pub finish_ns: u64,
    /// Wall time of each measured op.
    pub op_ns: Vec<u64>,
    /// Virtual time of each measured op, summed over every platform.
    pub op_sim_ns: Vec<u64>,
    /// Virtual-clock advance of each platform over the measured phase.
    pub sim_ns_by_platform: Vec<u64>,
    /// Heap allocations made inside the measured store calls.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Counter deltas over the load phase (incl. flush and warm-up) and
    /// over the measured phase.
    pub load_counters: Counters,
    pub counters: Counters,
    pub end: EndState,
    /// Hash of every op's class and outcome shape, for the determinism
    /// check.
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock window of each phase, nanoseconds since the epoch.
    pub phase_windows: Vec<(&'static str, u64, u64)>,
    pub detail: Option<OpDetail>,
}

/// What a store call returned.
enum Answer {
    Get(Result<Option<VerifiedRecord>, ElsmError>),
    Put(Result<Timestamp, ElsmError>),
    Scan(Result<Vec<VerifiedRecord>, ElsmError>),
}

/// Runs one op; only the store call sits between the two clock reads.
#[inline(never)]
fn timed(kv: &dyn AuthenticatedKv, op: &Op) -> (Instant, u64, Answer) {
    match op {
        Op::Get { key, .. } => {
            let t0 = Instant::now();
            let r = kv.get(key);
            (t0, t0.elapsed().as_nanos() as u64, Answer::Get(r))
        }
        Op::Put { key, value } => {
            let t0 = Instant::now();
            let r = kv.put(key, value);
            (t0, t0.elapsed().as_nanos() as u64, Answer::Put(r))
        }
        Op::Scan { from, to, .. } => {
            let t0 = Instant::now();
            let r = kv.scan(from, to);
            (t0, t0.elapsed().as_nanos() as u64, Answer::Scan(r))
        }
    }
}

/// The oracle's verdict on one answer.
#[derive(Default)]
struct Checked {
    /// The answer matches the model.
    ok: bool,
    /// Outcome shape, hashed into the determinism fingerprint.
    shape: u64,
    /// GET: levels checked; SCAN: records returned.
    work: u32,
    /// GET answered with no proof.
    proofless: bool,
}

/// Oracle: does the answer match the model?
fn check(op: &Op, answer: &Answer) -> Checked {
    match (op, answer) {
        (Op::Get { expect, .. }, Answer::Get(Ok(got))) => Checked {
            ok: got.as_ref().map(|r| r.value()) == expect.as_deref(),
            shape: got.as_ref().map_or(0, |r| 1 + r.value().len() as u64),
            work: got.as_ref().map_or(0, |r| r.levels_checked() as u32),
            proofless: got.as_ref().is_some_and(|r| r.proof_bytes() == 0),
        },
        (Op::Put { .. }, Answer::Put(Ok(_))) => {
            Checked { ok: true, shape: 1, ..Checked::default() }
        }
        (Op::Scan { expect_len, .. }, Answer::Scan(Ok(records))) => Checked {
            ok: records.len() == *expect_len,
            shape: records.len() as u64,
            work: records.len() as u32,
            proofless: false,
        },
        _ => Checked { shape: u64::MAX, ..Checked::default() },
    }
}

fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

fn sim_now(platforms: &[Arc<Platform>]) -> u64 {
    platforms.iter().map(|p| p.clock().now_ns()).sum()
}

fn flush_advanced(dep: &Deployment, seen: &mut u64) -> bool {
    let mut now = 0;
    dep.for_each_store(|store| {
        let s = store.db().stats();
        now += s.flushes + s.compactions;
    });
    std::mem::replace(seen, now) != now
}

/// Executes one repetition on a fresh deployment and hands the loaded
/// deployment back (the caller drops it or restarts it).
pub fn repetition(
    spec: &Spec,
    plan: &Plan,
    telemetry: Telemetry,
    traced: bool,
    epoch: Instant,
) -> Result<(RepData, Deployment), ElsmError> {
    let dep = Deployment::open(spec.cluster, REPLICAS, telemetry)?;
    let platforms = dep.platforms();
    let kv = dep.kv();
    let since_epoch = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut rep = RepData {
        load_ns: Vec::with_capacity(plan.load.len()),
        op_ns: Vec::with_capacity(plan.ops.len()),
        op_sim_ns: Vec::with_capacity(plan.ops.len()),
        fingerprint: 0xcbf2_9ce4_8422_2325,
        detail: traced.then(|| OpDetail {
            start_ns: Vec::with_capacity(plan.ops.len()),
            work: Vec::with_capacity(plan.ops.len()),
            proofless: Vec::with_capacity(plan.ops.len()),
            stalled: Vec::with_capacity(plan.ops.len()),
            load_start_ns: Vec::with_capacity(plan.load.len()),
        }),
        ..RepData::default()
    };
    let note = |rep: &mut RepData, ok: bool, shape: u64| {
        rep.attempted += 1;
        rep.failed += u64::from(!ok);
        rep.fingerprint = fnv(rep.fingerprint, shape);
    };

    // Load: sequential keys, every put timed.
    let before_load = counters(&dep);
    let load_start = Instant::now();
    for (key, value) in &plan.load {
        let t0 = Instant::now();
        let r = kv.put(key, value);
        rep.load_ns.push(t0.elapsed().as_nanos() as u64);
        note(&mut rep, r.is_ok(), 1);
        if let Some(detail) = &mut rep.detail {
            detail.load_start_ns.push(since_epoch(t0));
        }
    }
    let load_end = Instant::now();

    // Finish set-up: push the tail of the data to disk, then let caches
    // fill and lazy work finish before anything is measured.
    let t0 = Instant::now();
    let flushed = dep.flush();
    rep.finish_ns = t0.elapsed().as_nanos() as u64;
    note(&mut rep, flushed.is_ok(), 2);
    for op in &plan.warm {
        let (_, ns, answer) = timed(kv, op);
        rep.finish_ns += ns;
        let checked = check(op, &answer);
        note(&mut rep, checked.ok, checked.shape);
    }
    let before = counters(&dep);
    rep.load_counters = delta(&before, &before_load);
    let sim_before: Vec<u64> = platforms.iter().map(|p| p.clock().now_ns()).collect();
    let mut progress = 0;
    flush_advanced(&dep, &mut progress);

    // Measured phase.
    let run_start = Instant::now();
    for op in &plan.ops {
        let sim0 = sim_now(&platforms);
        let (allocs0, bytes0) = (alloc::count(), alloc::bytes());
        let (t0, ns, answer) = timed(kv, op);
        rep.allocs += alloc::count() - allocs0;
        rep.alloc_bytes += alloc::bytes() - bytes0;
        rep.op_sim_ns.push(sim_now(&platforms) - sim0);
        rep.op_ns.push(ns);
        let checked = check(op, &answer);
        note(&mut rep, checked.ok, checked.shape);
        if let Some(detail) = &mut rep.detail {
            detail.start_ns.push(since_epoch(t0));
            detail.work.push(checked.work);
            detail.proofless.push(checked.proofless);
            let stalled = !op.is_read() && flush_advanced(&dep, &mut progress);
            detail.stalled.push(stalled);
        }
    }
    let run_end = Instant::now();

    rep.sim_ns_by_platform =
        platforms.iter().zip(&sim_before).map(|(p, b)| p.clock().now_ns() - b).collect();
    rep.counters = delta(&counters(&dep), &before);
    rep.end = end_state(&dep);
    rep.phase_windows = vec![
        ("phase.load", since_epoch(load_start), since_epoch(load_end)),
        ("phase.finish", since_epoch(load_end), since_epoch(run_start)),
        ("phase.measured", since_epoch(run_start), since_epoch(run_end)),
    ];
    Ok((rep, dep))
}

/// Allocation counts may differ between repetitions by this share. Seen
/// in practice: one allocation in nine million, now and then (one-time
/// lazy initialisation, or a per-instance-seeded `HashMap` resizing one
/// insert early).
const ALLOC_TOLERANCE: f64 = 1e-3;

/// Compares what must repeat across repetitions - exactly, except for
/// the allocation count - and names what diverged. Repeat-min is only
/// valid while this holds.
pub fn reps_identical(reps: &[RepData]) -> bool {
    let first = &reps[0];
    let mut identical = true;
    for (r, rep) in reps.iter().enumerate().skip(1) {
        let alloc_gap = rep.allocs.abs_diff(first.allocs) as f64 / first.allocs.max(1) as f64;
        if rep.allocs != first.allocs {
            eprintln!(
                "note: repetition {r} made {} allocations, repetition 0 made {}",
                rep.allocs, first.allocs
            );
        }
        let checks = [
            ("op classes and outcomes", rep.fingerprint == first.fingerprint),
            (
                "per-platform virtual-clock delta",
                rep.sim_ns_by_platform == first.sim_ns_by_platform,
            ),
            ("per-op virtual time", rep.op_sim_ns == first.op_sim_ns),
            ("allocation count (beyond tolerance)", alloc_gap <= ALLOC_TOLERANCE),
            ("counters", rep.counters == first.counters),
            ("end state", rep.end == first.end),
        ];
        for (what, same) in checks {
            if !same {
                eprintln!("determinism check: repetition {r} differs from repetition 0 in {what}");
                identical = false;
            }
        }
    }
    identical
}

/// Outcome of the restart check.
#[derive(Debug, Default)]
pub struct Restart {
    /// Wall time of `close()` + re-open (unseal, WAL replay, digest rebuild).
    pub recover_ns: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Keys the restart check re-reads besides the most recent writes.
const RESTART_SAMPLE: usize = 2_000;

/// Closes the deployment, re-opens it from the same filesystems and
/// verifies a strided sample of the model plus the last acknowledged
/// writes. A key that reads back wrong, or a failed recovery, counts as
/// failed ops.
pub fn restart_check(dep: Deployment, plan: &Plan) -> Restart {
    let stride = (plan.model.len() / RESTART_SAMPLE).max(1);
    let keys: Vec<&Vec<u8>> =
        plan.model.keys().step_by(stride).chain(plan.last_writes.iter()).collect();
    let mut out = Restart { attempted: keys.len() as u64, ..Restart::default() };
    let t0 = Instant::now();
    let reopened = dep.close().and_then(|()| dep.reopen(Telemetry::default()));
    out.recover_ns = t0.elapsed().as_nanos() as u64;
    match reopened {
        Ok(dep) => {
            for key in keys {
                let got = dep.kv().get(key);
                let want = plan.model.get(key).map(|v| &v[..]);
                let ok = matches!(&got, Ok(rec) if rec.as_ref().map(|r| r.value()) == want);
                out.failed += u64::from(!ok);
            }
        }
        Err(error) => {
            eprintln!("restart check: recovery failed: {error}");
            out.failed = out.attempted;
        }
    }
    out
}
