//! The four workloads and their pre-generated inputs.
//!
//! Everything random is drawn here, before any clock starts, from
//! `--seed`; the store under test only ever sees keys, values and scan
//! bounds. The expected answer of every read is computed here too, from a
//! `BTreeMap` model the ops are applied to in order, so the measured loop
//! does no harness work beyond a comparison.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use ycsb::{format_key, make_value, seeded_rng, KeyChooser, Workload};

/// Sizes of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Records put by the load phase.
    pub load: u64,
    /// Read-only warm-up ops between load and the measured phase.
    pub warm: usize,
    /// Measured ops.
    pub ops: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (mirrored in BENCHMARK.json and the README).
    pub why: &'static str,
    /// `ShardedKv` (2 shards x primary + replica) instead of one `ElsmP2`.
    pub cluster: bool,
    /// Operation mix, key distribution, value size, scan length.
    pub mix: Workload,
    pub full: Sizes,
    pub quick: Sizes,
}

/// The workloads, in reporting order. The sizes are fixed: changing them
/// changes every baseline.
pub fn all() -> Vec<Spec> {
    let quick = Sizes { load: 3_000, warm: 200, ops: 2_000 };
    vec![
        Spec {
            name: "c_read",
            why:
                "100% GET, data >> write buffer, cache off: every read pays bloom, block seek, \
                  Merkle path and enclave verify; no write path - the bypass for write-side changes",
            cluster: false,
            mix: Workload::c().with_value_len(100),
            full: Sizes { load: 40_000, warm: 2_000, ops: 80_000 },
            quick,
        },
        Spec {
            name: "a_update",
            why: "50% GET / 50% UPDATE, the paper's headline case: WAL, memtable, flush, leveled \
                  compaction and LevelDigest rebuild dominate; reads run beside compaction",
            cluster: false,
            mix: Workload::a().with_value_len(100),
            full: Sizes { load: 10_000, warm: 2_000, ops: 24_000 },
            quick,
        },
        Spec {
            name: "e_scan",
            why: "95% SCAN of 1-20 keys / 5% INSERT: range-completeness proofs and k-way merge; \
                  a point-lookup trick that costs range reads shows here and not in c_read",
            cluster: false,
            mix: Workload::e().with_value_len(100),
            full: Sizes { load: 24_000, warm: 2_000, ops: 36_000 },
            quick,
        },
        Spec {
            name: "b_cluster",
            why:
                "95% GET / 5% UPDATE of 1 KiB values on 2 shards x (primary + replica), hot set \
                  fits the verified cache: cache, vlog, routing, MAC'd WAL shipping, replica replay",
            cluster: true,
            mix: Workload::b().with_value_len(1024),
            full: Sizes { load: 8_000, warm: 2_000, ops: 60_000 },
            quick: Sizes { load: 1_500, warm: 200, ops: 2_000 },
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// One pre-generated operation with its expected answer.
#[derive(Debug, Clone)]
pub enum Op {
    Get { key: Vec<u8>, expect: Option<Arc<[u8]>> },
    Put { key: Vec<u8>, value: Arc<[u8]> },
    Scan { from: Vec<u8>, to: Vec<u8>, expect_len: usize },
}

impl Op {
    /// GET and SCAN are the read class the latency metrics cover.
    pub fn is_read(&self) -> bool {
        !matches!(self, Op::Put { .. })
    }

    /// Class name: the op's span name and the key of per-class metrics.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Get { .. } => "op.get",
            Op::Put { .. } => "op.put",
            Op::Scan { .. } => "op.scan",
        }
    }
}

/// Newest value per key, as the store must report it.
pub type Model = BTreeMap<Vec<u8>, Arc<[u8]>>;

/// Everything one repetition executes, identical for every repetition.
#[derive(Debug)]
pub struct Plan {
    pub load: Vec<(Vec<u8>, Arc<[u8]>)>,
    pub warm: Vec<Op>,
    pub ops: Vec<Op>,
    /// The model after the last measured op.
    pub model: Model,
    /// Keys of the most recent writes, oldest first (restart check).
    pub last_writes: Vec<Vec<u8>>,
}

impl Plan {
    /// Live user bytes: key plus newest value of every key.
    pub fn live_user_bytes(&self) -> u64 {
        self.model.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
    }
}

/// Seed of the write stream every `--seed` shares.
const WRITE_STREAM_SEED: u64 = 0x5eed_0fa1_1371_7e55;

/// How many of the most recent writes the restart check re-reads.
pub const LAST_WRITES: usize = 100;

/// `n` ops split by the mix's percentages into exact class counts, in a
/// seeded random order. Exact counts (rather than one draw per op) keep
/// the number of writes - and with it the number of flushes and
/// compactions inside the measured phase - the same for every seed.
fn op_classes(mix: &Workload, n: usize, rng: &mut StdRng) -> Vec<ycsb::Op> {
    let shares = [
        (ycsb::Op::Read, mix.read_pct),
        (ycsb::Op::Update, mix.update_pct),
        (ycsb::Op::Insert, mix.insert_pct),
        (ycsb::Op::Scan, mix.scan_pct),
    ];
    assert_eq!(mix.rmw_pct, 0, "read-modify-write is not part of any benchmark workload");
    let mut classes = Vec::with_capacity(n);
    for (class, pct) in shares {
        classes.resize(classes.len() + n * pct as usize / 100, class);
    }
    classes.resize(n, ycsb::Op::Read);
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.gen_range(0..=i));
    }
    classes
}

/// Builds one workload's inputs from the seed.
pub fn plan(spec: &Spec, sizes: Sizes, seed: u64) -> Plan {
    let mix = &spec.mix;
    let value_len = mix.value_len;
    let mut model = Model::new();
    let mut last_writes = Vec::new();
    let mut writes = 0u64;
    let load: Vec<(Vec<u8>, Arc<[u8]>)> =
        (0..sizes.load).map(|i| (format_key(i), Arc::from(make_value(i, value_len)))).collect();
    for (key, value) in &load {
        model.insert(key.clone(), value.clone());
    }
    let chooser = KeyChooser::by_name(&mix.distribution, sizes.load.max(1));
    let mut cursor = sizes.load;

    let scan_bounds = |rng: &mut StdRng, cursor: u64| {
        let i = chooser.next(rng, cursor, cursor);
        let len = rng.gen_range(1..=mix.max_scan_len as u64);
        (format_key(i), format_key((i + len - 1).min(cursor - 1)))
    };

    // Warm-up reads come from their own stream so that changing the
    // warm-up length never shifts the measured ops.
    let mut warm_rng = seeded_rng(seed ^ 0x77a2_6d5f_0c3e_91b4);
    let warm = (0..sizes.warm)
        .map(|_| {
            if mix.scan_pct > 0 {
                let (from, to) = scan_bounds(&mut warm_rng, cursor);
                let expect_len = model.range(from.clone()..=to.clone()).count();
                Op::Scan { from, to, expect_len }
            } else {
                let key = format_key(chooser.next(&mut warm_rng, cursor, cursor));
                let expect = model.get(&key).cloned();
                Op::Get { key, expect }
            }
        })
        .collect();

    // The seed draws the reads and where in the sequence the writes fall.
    // Which keys are written, in which order and with which values comes
    // from a fixed stream, like the load phase: the dataset's history is
    // part of the workload's definition. (On this store the bytes a hot
    // key's version chain costs grow faster than its update count, so
    // re-drawing the zipfian writes per seed moved space, disk traffic and
    // allocations by 3-6 % and flipped the cluster between two flush
    // counts - bounds wide enough for that would hide a regression.)
    let mut rng = seeded_rng(seed);
    let mut write_rng = seeded_rng(WRITE_STREAM_SEED);
    let classes = op_classes(mix, sizes.ops, &mut rng);
    let mut ops = Vec::with_capacity(sizes.ops);
    for class in classes {
        let op = match class {
            ycsb::Op::Read => {
                let key = format_key(chooser.next(&mut rng, cursor, cursor));
                let expect = model.get(&key).cloned();
                Op::Get { key, expect }
            }
            ycsb::Op::Update | ycsb::Op::Insert => {
                let i = if class == ycsb::Op::Insert {
                    cursor += 1;
                    cursor - 1
                } else {
                    chooser.next(&mut write_rng, cursor, cursor)
                };
                // A value no earlier write of this key carried, so a stale
                // read cannot pass the oracle.
                writes += 1;
                let value: Arc<[u8]> = Arc::from(make_value(i ^ (writes << 32), value_len));
                let key = format_key(i);
                model.insert(key.clone(), value.clone());
                last_writes.push(key.clone());
                Op::Put { key, value }
            }
            ycsb::Op::Scan => {
                let (from, to) = scan_bounds(&mut rng, cursor);
                let expect_len = model.range(from.clone()..=to.clone()).count();
                Op::Scan { from, to, expect_len }
            }
            ycsb::Op::ReadModifyWrite => unreachable!("excluded by op_classes"),
        };
        ops.push(op);
    }
    let keep_from = last_writes.len().saturating_sub(LAST_WRITES);
    last_writes.drain(..keep_from);
    Plan { load, warm, ops, model, last_writes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_exact_class_counts() {
        for spec in all() {
            let a = plan(&spec, spec.quick, 7);
            let b = plan(&spec, spec.quick, 7);
            let c = plan(&spec, spec.quick, 8);
            let fingerprint = |p: &Plan| format!("{:?}{:?}", p.warm, p.ops);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", spec.name);
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", spec.name);
            let count = |p: &Plan, class| p.ops.iter().filter(|op| op.class() == class).count();
            for class in ["op.get", "op.put", "op.scan"] {
                assert_eq!(count(&a, class), count(&c, class), "{} {class}", spec.name);
            }
            let writes = spec.mix.update_pct + spec.mix.insert_pct;
            assert_eq!(count(&a, "op.put"), spec.quick.ops * writes as usize / 100);
            // The write stream is the same for every seed; only its
            // interleaving with the reads differs.
            let puts = |p: &Plan| -> Vec<String> {
                let puts = p.ops.iter().filter(|op| op.class() == "op.put");
                puts.map(|op| format!("{op:?}")).collect()
            };
            assert_eq!(puts(&a), puts(&c), "{}", spec.name);
            assert_eq!(a.model, c.model, "{}", spec.name);
        }
    }

    #[test]
    fn expectations_follow_the_model() {
        let spec = by_name("a_update").unwrap();
        let plan = plan(&spec, spec.quick, 3);
        let mut model = Model::new();
        for (k, v) in &plan.load {
            model.insert(k.clone(), v.clone());
        }
        for op in &plan.ops {
            match op {
                Op::Get { key, expect } => assert_eq!(model.get(key), expect.as_ref()),
                Op::Put { key, value } => {
                    assert_ne!(model.get(key), Some(value), "update must change the value");
                    model.insert(key.clone(), value.clone());
                }
                Op::Scan { .. } => unreachable!(),
            }
        }
        assert_eq!(model, plan.model);
        assert_eq!(plan.last_writes.len(), LAST_WRITES);
    }
}
