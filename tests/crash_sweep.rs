//! Crash-point sweep. One cycle of a store's durable work — a flush (WAL
//! rotation, merge, install), the leveled compaction wave it makes due, a
//! value-log GC and `close()` — runs once to count its filesystem ops, then
//! once per op with the power failing right after it, and once more with
//! the op torn when it is an append (`sim_disk::FaultPlan`); the store then
//! reopens on what the disk held. On an `ElsmP2`, and on a two-shard
//! `ShardedKv` with one shard's filesystem crashing per point while the
//! other runs on and closes. Replica groups are not swept: a replicated
//! cluster does not reopen (`ShardedKv::open_with`).
//!
//! * Maintenance only, after a clean `close()`, no counter: every point
//!   reopens, every acknowledged write verifies, and each shard holds the
//!   commitments the uncrashed run had at its last install whose manifest
//!   was durable.
//! * Writes interleaved, with and without a monotonic counter: every point
//!   either refuses to open with one audited `VerificationFailure`, or opens
//!   with every acknowledged write verified; a write in flight at the crash
//!   reads as before it or as after it.
//!
//! Never a panic, never an IO error.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use elsm_repro::crypto::Digest;
use elsm_repro::elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options, TrustedState};
use elsm_repro::lsm_store::{ReplicationEvent, ReplicationSink, VlogConfig, MANIFEST};
use elsm_repro::merkle::LevelCommitment;
use elsm_repro::sgx_sim::{MonotonicCounter, Platform};
use elsm_repro::shard::{ShardedKv, ShardedOptions};
use elsm_repro::sim_disk::{FaultPlan, FsSnapshot, SimDisk, SimFs};
use elsm_repro::telemetry::Telemetry;

type Model = BTreeMap<Vec<u8>, Option<Vec<u8>>>;

/// The answers each key may read.
type Allowed = BTreeMap<Vec<u8>, Vec<Option<Vec<u8>>>>;

fn key(i: u32) -> Vec<u8> {
    format!("key{i:04}").into_bytes()
}

/// Every third value is large enough for the value log.
fn value(round: u32, i: u32) -> Vec<u8> {
    let len = if i % 3 == 0 { 200 } else { 24 };
    format!("r{round}-{i}-").into_bytes().into_iter().cycle().take(len).collect()
}

fn store_options() -> P2Options {
    P2Options {
        write_buffer_bytes: 4 * 1024,
        // Level 1 is over budget after any flush: each makes a wave into
        // the bottom level, which purges deletes — and the separated values
        // under them become value-log garbage.
        level1_max_bytes: 1,
        max_levels: 2,
        target_file_bytes: 4 * 1024,
        vlog: Some(VlogConfig {
            value_threshold: 128,
            target_file_bytes: 2 * 1024,
            gc_garbage_ratio: 0.2,
            gc_enabled: false,
        }),
        counter_write_buffer: 1,
        ..P2Options::default()
    }
}

/// What a sweep deploys.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Store,
    Cluster,
}

/// A deployment of a [`Shape`].
enum Kv {
    Store(ElsmP2),
    Cluster(ShardedKv),
}

impl Shape {
    fn shards(self) -> usize {
        match self {
            Shape::Store => 1,
            Shape::Cluster => 2,
        }
    }

    /// Opens (or reopens) the deployment on `fss`, one per shard.
    fn open(
        self,
        fss: &[Arc<SimFs>],
        counter: Option<Arc<MonotonicCounter>>,
        telemetry: Telemetry,
    ) -> Result<Kv, ElsmError> {
        let options = P2Options { telemetry, ..store_options() };
        match self {
            Shape::Store => {
                ElsmP2::open_with(fss[0].platform().clone(), fss[0].clone(), options, counter)
                    .map(Kv::Store)
            }
            Shape::Cluster => {
                let options = ShardedOptions::hash(2, options);
                ShardedKv::open_with(Platform::with_defaults(), fss.to_vec(), options)
                    .map(Kv::Cluster)
            }
        }
    }
}

impl Kv {
    fn kv(&self) -> &dyn AuthenticatedKv {
        match self {
            Kv::Store(store) => store,
            Kv::Cluster(cluster) => cluster,
        }
    }

    fn shards(&self) -> Vec<&ElsmP2> {
        match self {
            Kv::Store(store) => vec![store],
            Kv::Cluster(cluster) => (0..cluster.shard_count()).map(|i| cluster.shard(i)).collect(),
        }
    }

    fn owner(&self, key: &[u8]) -> usize {
        match self {
            Kv::Store(_) => 0,
            Kv::Cluster(cluster) => cluster.shard_of(key),
        }
    }

    fn flush(&self) {
        for store in self.shards() {
            store.db().flush().unwrap();
        }
    }

    fn vlog_gc(&self) {
        for store in self.shards() {
            store.db().vlog_gc().unwrap();
        }
    }

    fn close(&self) {
        match self {
            Kv::Store(store) => store.close().unwrap(),
            Kv::Cluster(cluster) => cluster.close().unwrap(),
        }
    }
}

/// One acknowledged write, `None` a delete: its shard, and that shard's op
/// count when it was issued and when it returned.
struct Write {
    shard: usize,
    key: Vec<u8>,
    value: Option<Vec<u8>>,
    issued: u64,
    acked: u64,
}

/// What one run of a cycle did, in ops per shard filesystem since it began.
struct Run {
    fss: Vec<Arc<SimFs>>,
    base: Vec<u64>,
    writes: Vec<Write>,
    /// The counter, and where it stood at the end of each step.
    counter: Option<(Arc<MonotonicCounter>, Vec<CounterAt>)>,
}

/// The (one) store's op count at the end of a step, and the counter's
/// value and digest then.
type CounterAt = (u64, u64, Digest);

impl Run {
    fn ops(&self, shard: usize) -> u64 {
        self.fss[shard].mutations() - self.base[shard]
    }

    fn write(&mut self, kv: &Kv, key: Vec<u8>, value: Option<Vec<u8>>) {
        let shard = kv.owner(&key);
        let issued = self.ops(shard);
        match &value {
            Some(v) => kv.kv().put(&key, v).map(drop),
            None => kv.kv().delete(&key).map(drop),
        }
        .unwrap();
        self.writes.push(Write { shard, key, value, issued, acked: self.ops(shard) });
        self.step();
    }

    fn step(&mut self) {
        let at = self.ops(0);
        if let Some((counter, states)) = &mut self.counter {
            let (value, digest) = counter.read();
            states.push((at, value, digest));
        }
    }

    /// What every key may read once shard `crashed` lost power with `done`
    /// ops complete and `started` begun: its last acknowledged value, or a
    /// write then in flight.
    fn allowed(&self, model: &Model, crashed: usize, done: u64, started: u64) -> Allowed {
        let mut allowed: Allowed =
            model.iter().map(|(k, v)| (k.clone(), vec![v.clone()])).collect();
        for w in &self.writes {
            let slot = allowed.entry(w.key.clone()).or_insert_with(|| vec![None]);
            if w.shard != crashed || w.acked <= done {
                *slot = vec![w.value.clone()];
            } else if w.issued < started {
                slot.push(w.value.clone());
            }
        }
        allowed
    }
}

/// The maintenance cycle: a flush and the wave it makes due, a value-log
/// GC, `close()`.
fn maintenance(kv: &Kv, run: &mut Run) {
    kv.flush();
    kv.vlog_gc();
    kv.close();
    run.step();
}

/// The same steps with writes before, between and after them.
fn with_writes(kv: &Kv, run: &mut Run) {
    for i in 0..30 {
        run.write(kv, key(i * 3 + 1), Some(value(3, i)));
    }
    run.write(kv, key(6), None);
    kv.flush();
    run.step();
    for i in 0..20 {
        run.write(kv, key(i * 5), Some(value(4, i)));
    }
    kv.vlog_gc();
    run.step();
    run.write(kv, key(9), None);
    run.write(kv, key(200), Some(value(5, 200)));
    kv.close();
    run.step();
}

fn filesystems(images: &[FsSnapshot]) -> Vec<Arc<SimFs>> {
    images
        .iter()
        .map(|image| {
            let fs = SimFs::new(SimDisk::new(Platform::with_defaults()));
            fs.restore(image);
            fs
        })
        .collect()
}

/// A fresh counter standing at `value`, bound to `digest`.
fn counter_at(value: u64, digest: Digest) -> Arc<MonotonicCounter> {
    let counter = MonotonicCounter::new(Platform::with_defaults());
    for _ in 0..value {
        counter.increment_to(digest);
    }
    counter
}

/// A closed deployment with data at both levels, value-log garbage, and
/// writes left in its logs: its images, what it holds, and the counter's
/// value and digest (when one is bound).
struct Closed {
    images: Vec<FsSnapshot>,
    model: Model,
    counter: Option<(u64, Digest)>,
}

fn closed(shape: Shape, with_counter: bool) -> Closed {
    let fss: Vec<Arc<SimFs>> =
        (0..shape.shards()).map(|_| SimFs::new(SimDisk::new(Platform::with_defaults()))).collect();
    let counter = with_counter.then(|| counter_at(0, Digest::ZERO));
    let kv = shape.open(&fss, counter.clone(), Telemetry::default()).unwrap();
    let mut model = Model::new();
    let mut set = |i: u32, value: Option<Vec<u8>>| {
        match &value {
            Some(v) => kv.kv().put(&key(i), v).map(drop),
            None => kv.kv().delete(&key(i)).map(drop),
        }
        .unwrap();
        model.insert(key(i), value);
    };
    (0..120).for_each(|i| set(i, Some(value(0, i))));
    kv.flush();
    (1..120).step_by(3).for_each(|i| set(i, Some(value(1, i))));
    (0..120).step_by(3).for_each(|i| set(i, None));
    kv.flush();
    (0..15).for_each(|i| set(i * 7, Some(value(2, i * 7))));
    kv.close();
    let stats = kv.shards().iter().map(|s| s.db().stats()).collect::<Vec<_>>();
    assert!(stats.iter().all(|s| s.compactions > 0 && s.vlog_garbage_bytes > 0), "{stats:?}");
    Closed {
        images: fss.iter().map(|fs| fs.snapshot()).collect(),
        model,
        counter: counter.map(|c| c.read()),
    }
}

/// Notes, at each install of a shard, its op count and commitments.
struct Installs {
    fs: Arc<SimFs>,
    trusted: Arc<TrustedState>,
    seen: Mutex<Vec<(u64, Vec<LevelCommitment>)>>,
}

impl ReplicationSink for Installs {
    fn on_event(&self, event: ReplicationEvent<'_>) {
        if let ReplicationEvent::Install { .. } = event {
            self.seen.lock().unwrap().push((self.fs.mutations(), self.trusted.commitments()));
        }
    }
}

/// Each shard's commitments as the uncrashed run had them: at the start,
/// and at each install with the op count before it.
struct Reference {
    ops: Vec<u64>,
    initial: Vec<Vec<LevelCommitment>>,
    installs: Vec<Vec<(u64, Vec<LevelCommitment>)>>,
}

impl Reference {
    /// Shard `shard`'s commitments at its last install before op `at`.
    fn before(&self, shard: usize, at: u64) -> &Vec<LevelCommitment> {
        let installed = self.installs[shard].iter().rev().find(|(op, _)| *op < at);
        installed.map_or(&self.initial[shard], |(_, commitments)| commitments)
    }
}

/// Opens the closed deployment, arms `plan` on one shard's filesystem,
/// and runs `cycle`; hands back the run, with the deployment dropped, and
/// what it installed.
fn run(
    shape: Shape,
    closed: &Closed,
    cycle: fn(&Kv, &mut Run),
    plan: Option<(usize, FaultPlan)>,
) -> (Run, Reference) {
    let fss = filesystems(&closed.images);
    let counter = closed.counter.map(|(value, digest)| counter_at(value, digest));
    let kv = shape.open(&fss, counter.clone(), Telemetry::default()).unwrap();
    let sinks: Vec<Arc<Installs>> = (kv.shards().iter().zip(&fss))
        .map(|(store, fs)| {
            let sink = Arc::new(Installs {
                fs: fs.clone(),
                trusted: store.trusted().clone(),
                seen: Mutex::new(Vec::new()),
            });
            store.db().set_replication_sink(sink.clone());
            sink
        })
        .collect();
    let initial = kv.shards().iter().map(|s| s.trusted().commitments()).collect();
    let base: Vec<u64> = fss.iter().map(|fs| fs.mutations()).collect();
    let vlogs =
        |fs: &SimFs| fs.list().into_iter().filter(|n| n.ends_with(".vlg")).collect::<Vec<_>>();
    let before: Vec<_> =
        kv.shards().iter().map(|s| (s.db().stats().compactions, vlogs(s.fs()))).collect();
    if let Some((shard, plan)) = plan {
        fss[shard].arm(plan);
    }
    let mut run = Run { fss, base, writes: Vec::new(), counter: counter.map(|c| (c, Vec::new())) };
    cycle(&kv, &mut run);
    for (store, (compactions, vlog_files)) in kv.shards().iter().zip(before) {
        let after = vlogs(store.fs());
        assert!(store.db().stats().compactions >= compactions + 2, "a wave's job and a GC's");
        assert!(vlog_files.iter().any(|f| !after.contains(f)), "the GC dropped a log file");
    }
    drop(kv);
    let installs = (sinks.iter().zip(&run.base))
        .map(|(sink, base)| {
            let seen = sink.seen.lock().unwrap();
            seen.iter().map(|(at, c)| (at - base, c.clone())).collect()
        })
        .collect();
    let ops = (0..run.fss.len()).map(|shard| run.ops(shard)).collect();
    (run, Reference { ops, initial, installs })
}

/// Sweeps `cycle` on `shape`: every op of every shard, crashed and torn.
/// With `must_open`, every point reopens and holds the commitments of the
/// uncrashed run's last durable install. Returns the points swept and how
/// many reopened.
fn sweep(
    shape: Shape,
    closed: &Closed,
    cycle: fn(&Kv, &mut Run),
    must_open: bool,
) -> (usize, usize) {
    let (_, reference) = run(shape, closed, cycle, None);
    let (mut points, mut opened) = (0, 0);
    for shard in 0..shape.shards() {
        assert!(reference.ops[shard] > 0, "{shape:?}: shard {shard} does no IO");
        let manifest = |fs: &SimFs| {
            let file = fs.open(MANIFEST).expect("every image holds a manifest");
            file.peek(0, file.len()).unwrap()
        };
        let mut durable = (manifest(&filesystems(&closed.images)[shard]), 0);
        for op in 1..=reference.ops[shard] {
            for torn in [false, true] {
                let what = format!("{shape:?} shard {shard} crashed after op {op} (torn: {torn})");
                let (run, _) = run(shape, closed, cycle, Some((shard, FaultPlan { op, torn })));
                let image = run.fss[shard].take_crash_image().expect(&what);
                run.fss[shard].restore(&image);
                if !torn && manifest(&run.fss[shard]) != durable.0 {
                    durable = (manifest(&run.fss[shard]), op);
                }
                // A torn op did not complete.
                let done = op - u64::from(torn);
                let counter = run.counter.as_ref().map(|(_, states)| {
                    let at = states.iter().rev().find(|(step, ..)| *step <= done);
                    let (value, digest) = at.map_or(closed.counter.unwrap(), |&(_, v, d)| (v, d));
                    counter_at(value, digest)
                });
                let telemetry = Telemetry::new();
                points += 1;
                let kv = match shape.open(&run.fss, counter, telemetry.clone()) {
                    Ok(kv) => kv,
                    Err(ElsmError::Verification(failure)) if !must_open => {
                        assert_eq!(
                            telemetry.audit_total(),
                            1,
                            "{what}: {failure:?} is audited once"
                        );
                        continue;
                    }
                    Err(other) => panic!("{what}: {other:?}"),
                };
                opened += 1;
                for (key, allowed) in run.allowed(&closed.model, shard, done, op) {
                    let got =
                        kv.kv().get(&key).unwrap_or_else(|e| panic!("{what}: {key:?}: {e:?}"));
                    let got = got.map(|r| r.value().to_vec());
                    assert!(
                        allowed.contains(&got),
                        "{what}: {key:?} read {got:?}, not one of {allowed:?}"
                    );
                }
                if must_open {
                    for (i, store) in kv.shards().iter().enumerate() {
                        let expected = match i == shard {
                            true => reference.before(i, durable.1),
                            false => reference.before(i, u64::MAX),
                        };
                        assert_eq!(&store.trusted().commitments(), expected, "{what}: shard {i}");
                    }
                    // The recovered store works on: a write, a flush, a read.
                    kv.kv().put(b"after", b"the crash").unwrap();
                    kv.flush();
                    assert_eq!(kv.kv().get(b"after").unwrap().unwrap().value(), b"the crash");
                }
            }
        }
    }
    (points, opened)
}

#[test]
fn maintenance_after_a_clean_close_reopens_at_every_op() {
    for shape in [Shape::Store, Shape::Cluster] {
        let closed = closed(shape, false);
        let (points, opened) = sweep(shape, &closed, maintenance, true);
        assert_eq!(opened, points);
        eprintln!("{shape:?}: maintenance, {points} crash points, all reopened");
    }
}

#[test]
fn writes_between_maintenance_never_read_wrong() {
    for shape in [Shape::Store, Shape::Cluster] {
        let closed = closed(shape, false);
        let (points, opened) = sweep(shape, &closed, with_writes, false);
        assert!(opened > 0, "{shape:?}: some crash points reopen");
        eprintln!("{shape:?}: writes, {points} crash points, {opened} reopened");
    }
}

#[test]
fn a_counter_bound_store_never_reads_wrong() {
    let closed = closed(Shape::Store, true);
    for cycle in [maintenance as fn(&Kv, &mut Run), with_writes] {
        let (points, opened) = sweep(Shape::Store, &closed, cycle, false);
        assert!(opened > 0, "some crash points reopen");
        eprintln!("counter: {points} crash points, {opened} reopened");
    }
}
