//! Where a verified read's real time goes, phase by phase.
//!
//! Builds one store shaped like the judged benchmark's `e_scan` (24 000
//! records of 100 B under its store options, then one flush) and reads it
//! with 20 000 scans of 1–20 keys and 20 000 GET hits. It prints real
//! nanoseconds per query for:
//!
//! * the host's capture: each level's walk timed alone through the public
//!   run API (`Run::walk`, the records of a level and the neighbours its
//!   unanchored ends need in one forward pass), and the whole capture
//!   (`Db::scan_with_trace` / `Db::get_with_trace`);
//! * the verifier as a whole (`TrustedState::verify_scan` / `verify_get`
//!   on the trace the capture hands its check), and each kind of work it
//!   does: envelope parse (`envelope::open_record`) and leaf hash
//!   (`merkle::chain_link_parts` over the canonical pieces) timed on every
//!   record the trace presents, walk hash (`merkle::node_hash`), clock
//!   charge (`Platform::charge_hash`) and counter add timed alone and multiplied
//!   by how often the verifier does them (`VerifyStats`; one charge and
//!   six counter adds per query), and the merge of the levels' answers
//!   (`ScanTrace::merged`, the same sort the verifier runs), and the
//!   verifier's work per query and per level that no record causes (the
//!   same verifier on ranges past the last key);
//! * the whole verified query (`scan` / `get`), whose remainder past
//!   capture and verification is the reply and the enclave transition.
//!
//! A piece that reads the trace is timed inside the capture's callback,
//! right after the capture, as the verifier runs — the records' bytes are
//! as warm as the verifier finds them. Each figure is the best of three
//! passes. No timer runs inside the library: every number is a loop of
//! public calls divided by its count.
//!
//! ```text
//! cargo run --release -p elsm-bench --bin verify_breakdown
//! ```

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use elsm::envelope::{canonical_parts, open_record, Opened};
use elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_crypto::Digest;
use lsm_store::{
    CompactionStrategyKind, GetTrace, LevelOutcome, NeighborPolicy, Record, ScanTrace,
    WalSyncPolicy,
};
use merkle::{chain_link_parts, node_hash};
use sgx_sim::Platform;

const RECORDS: u64 = 24_000;
const QUERIES: usize = 20_000;
const VALUE_LEN: usize = 100;
const PASSES: usize = 3;
/// Clock charges and counter adds the verifier makes per query: one
/// settlement of its tally.
const CHARGES_PER_QUERY: f64 = 1.0;
const COUNTER_ADDS_PER_QUERY: f64 = 6.0;

fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Deterministic 64-bit LCG (MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// Best of [`PASSES`] passes of `f` over `items`, timed whole, in real ns
/// per item.
fn best_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    best_of(|| timed(|| items.iter().for_each(&mut f)) as f64 / items.len() as f64)
}

/// Best of [`PASSES`] passes over `items` of `f`, which returns the real
/// ns it timed itself, in ns per item.
fn best_timed<T>(items: &[T], mut f: impl FnMut(&T) -> u64) -> f64 {
    best_of(|| items.iter().map(&mut f).sum::<u64>() as f64 / items.len() as f64)
}

fn best_of(mut pass: impl FnMut() -> f64) -> f64 {
    (0..PASSES).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// Real ns `f` takes.
fn timed(f: impl FnOnce()) -> u64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

fn open_store() -> ElsmP2 {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options {
            write_buffer_bytes: 256 * 1024,
            level1_max_bytes: 1024 * 1024,
            target_file_bytes: 512 * 1024,
            level_multiplier: 10,
            bloom_bits_per_key: 10,
            compaction_enabled: true,
            compaction_strategy: CompactionStrategyKind::Leveled,
            compaction_parallelism: 1,
            wal_sync: WalSyncPolicy::Always,
            ..P2Options::default()
        },
    )
    .expect("open store");
    let mut rng = Lcg(7);
    // Every key once, in a scrambled order.
    for n in 0..RECORDS {
        let value = vec![rng.below(256) as u8; VALUE_LEN];
        store.put(&key(n * 7_919 % RECORDS), &value).expect("put");
    }
    store.db().flush().expect("flush");
    store
}

/// Every record a scan trace presents, with its level.
fn scan_records(trace: &ScanTrace) -> impl Iterator<Item = (&Record, u32)> {
    trace.levels.iter().flat_map(|l| {
        let ends = l.left.iter().chain(&l.right);
        l.records.iter().chain(ends).map(move |r| (r, l.level as u32))
    })
}

/// Every record a GET trace presents, with its level.
fn get_records(trace: &GetTrace) -> impl Iterator<Item = (&Record, u32)> {
    trace.levels.iter().flat_map(|l| {
        let (one, two) = match &l.outcome {
            LevelOutcome::Hit(r) => (Some(r), None),
            LevelOutcome::Miss { left, right } => (left.as_ref(), right.as_ref()),
            LevelOutcome::Empty => (None, None),
        };
        one.into_iter().chain(two).map(move |r| (r, l.level as u32))
    })
}

/// Real ns to open every envelope `records` holds.
fn parse<'a>(records: impl Iterator<Item = (&'a Record, u32)>) -> u64 {
    let records: Vec<_> = records.collect();
    timed(|| {
        for (r, level) in &records {
            black_box(open_record(r.view(), *level).ok());
        }
    })
}

/// The leaf hash of one record: its chain link, hashed from its canonical
/// pieces where they lie.
fn leaf_hash(record: &Record, opened: &Opened<'_>) -> Digest {
    let parts = canonical_parts(record.view(), opened.value);
    chain_link_parts(&parts.slices(), &Digest::ZERO)
}

/// Real ns to hash the leaf of every record `records` holds (opened
/// first, untimed).
fn leaves<'a>(records: impl Iterator<Item = (&'a Record, u32)>) -> u64 {
    let opened: Vec<_> =
        records.filter_map(|(r, level)| Some((r, open_record(r.view(), level).ok()?))).collect();
    timed(|| {
        for (r, opened) in &opened {
            black_box(leaf_hash(r, opened));
        }
    })
}

/// The chain heads a level's walk reads the audit paths of: the first and
/// the last of its run (the same one for a one-leaf run).
fn run_ends<'t>(
    left: Option<&'t Record>,
    records: &'t [Record],
    right: Option<&'t Record>,
) -> Option<(&'t Record, &'t Record)> {
    let last_head = records.last().and_then(|last| records.iter().find(|r| r.key == last.key));
    Some((left.or(records.first())?, right.or(last_head)?))
}

/// Real ns to read the audit paths a trace's walks read, every sibling of
/// each run's two end heads (opened first, untimed).
fn paths<'a>(level_ends: impl Iterator<Item = ((&'a Record, &'a Record), u32)>) -> u64 {
    let opened = |r: &'a Record, level| open_record(r.view(), level).ok()?.proof;
    let proofs: Vec<_> = level_ends
        .filter_map(|((first, last), level)| {
            let one_leaf = std::ptr::eq(first, last);
            Some((opened(first, level)?, if one_leaf { None } else { opened(last, level) }))
        })
        .collect();
    timed(|| {
        for (first, last) in &proofs {
            let siblings = first.siblings().chain(last.iter().flat_map(|p| p.siblings()));
            black_box(siblings.fold(0u8, |acc, d| acc ^ d.as_bytes()[31]));
        }
    })
}

/// Walk hash, clock charge, counter add and crown touch, each timed alone.
fn unit_costs() -> [f64; 4] {
    let digests: Vec<Digest> =
        (0..4096u32).map(|i| elsm_crypto::sha256(&i.to_le_bytes())).collect();
    let pairs: Vec<(Digest, Digest)> = digests.windows(2).map(|w| (w[0], w[1])).collect();
    let node = best_ns(&pairs, |(a, b)| {
        black_box(node_hash(a, b));
    });
    let platform = Platform::with_defaults();
    let lens: Vec<usize> = (0..4096).map(|i| 100 + i % 64).collect();
    let charge = best_ns(&lens, |len| {
        platform.charge_hash(*len);
    });
    let counter = AtomicU64::new(0);
    let counter = best_ns(&lens, |len| {
        counter.fetch_add(*len as u64, Ordering::Relaxed);
    });
    let crown = platform.enclave_alloc(64 << 10);
    let touch = best_ns(&lens, |len| platform.enclave_touch(&crown, 32 * len, 64));
    [node, charge, counter, touch]
}

/// One host capture phase on one level's run, for a range.
/// One timed piece of verification work on a scan's trace, in real ns.
type ScanPiece<'a> = &'a dyn Fn(&[u8], &[u8], &ScanTrace) -> u64;

/// One printed row: phase, real ns per query, how the figure was made.
struct Row(&'static str, f64, String);

fn print(title: &str, (whole_name, whole): (&str, f64), rows: &[Row]) {
    println!("\n{title}");
    for Row(name, ns, how) in rows {
        println!("  {name:<22} {ns:>8.0} ns  {how}");
    }
    let parts: f64 = rows.iter().map(|r| r.1).sum();
    let share = 100.0 * parts / whole;
    println!("  {:<22} {parts:>8.0} ns  {share:.0} % of {whole_name} {whole:.0} ns", "sum");
}

/// Per-query deltas of the verifier's proofs, walk hashes and levels
/// checked over `f`.
fn counts_over(store: &ElsmP2, f: impl FnOnce()) -> [f64; 3] {
    let before = store.verify_stats();
    f();
    let after = store.verify_stats();
    let n = QUERIES as f64;
    [
        (after.proofs_verified - before.proofs_verified) as f64 / n,
        (after.nodes_hashed - before.nodes_hashed) as f64 / n,
        (after.levels_checked - before.levels_checked) as f64 / n,
    ]
}

/// The verifier's rows per query: `parse`, `leaf` and `path` measured,
/// the rest `units` times `proofs` proofs, `nodes` walk hashes and
/// `walks` walked levels.
fn verifier_rows(
    [proofs, nodes, walks]: [f64; 3],
    [parse, leaf, path]: [f64; 3],
    units: [f64; 4],
) -> Vec<Row> {
    let [node, charge, counter, touch] = units;
    vec![
        Row("envelope parse", parse, format!("{proofs:.2} records, open_record")),
        Row("leaf hash", leaf, format!("{proofs:.2} records, chain_link_parts")),
        Row("audit path reads", path, format!("{walks:.2} walks' end paths")),
        Row("walk hash", nodes * node, format!("{nodes:.2} x {node:.0} ns node_hash")),
        Row("crown touch", walks * touch, format!("{walks:.2} x {touch:.0} ns enclave_touch")),
        Row(
            "charge calls",
            CHARGES_PER_QUERY * charge,
            format!("{CHARGES_PER_QUERY} x {charge:.0} ns"),
        ),
        Row(
            "counter adds",
            COUNTER_ADDS_PER_QUERY * counter,
            format!("{COUNTER_ADDS_PER_QUERY} x {counter:.1} ns"),
        ),
    ]
}

/// Every walked level of a scan trace: its run's end heads and level.
fn scan_walks(trace: &ScanTrace) -> impl Iterator<Item = ((&Record, &Record), u32)> {
    trace.levels.iter().filter_map(|l| {
        let ends = run_ends(l.left.as_ref(), &l.records, l.right.as_ref())?;
        Some((ends, l.level as u32))
    })
}

/// Every walked level of a GET trace: its run's end heads and level.
fn get_walks(trace: &GetTrace) -> impl Iterator<Item = ((&Record, &Record), u32)> {
    trace.levels.iter().filter_map(|l| {
        let ends = match &l.outcome {
            LevelOutcome::Hit(r) => run_ends(None, std::slice::from_ref(r), None),
            LevelOutcome::Miss { left, right } => run_ends(left.as_ref(), &[], right.as_ref()),
            LevelOutcome::Empty => None,
        }?;
        Some((ends, l.level as u32))
    })
}

fn main() {
    let store = open_store();
    let db = store.db();
    let mut rng = Lcg(42);
    let scans: Vec<(Vec<u8>, Vec<u8>)> = (0..QUERIES)
        .map(|_| {
            let (start, len) = (rng.below(RECORDS), 1 + rng.below(20));
            (key(start), key((start + len - 1).min(RECORDS - 1)))
        })
        .collect();
    let gets: Vec<Vec<u8>> = (0..QUERIES).map(|_| key(rng.below(RECORDS))).collect();
    // An unmeasured pass, so nothing lazy is timed.
    for ((from, to), k) in scans.iter().zip(&gets) {
        black_box(store.scan(from, to).expect("scan"));
        black_box(store.get(k).expect("get"));
    }
    let version = db.current_version();
    let runs: Vec<_> = version.levels().iter().flatten().collect();
    println!("store: {RECORDS} records of {VALUE_LEN} B, {} non-empty levels", runs.len());
    println!("sha256 backend: {}", elsm_crypto::sha256::backend());
    let units = unit_costs();

    // ----- SCAN ----------------------------------------------------------
    let walk = best_ns(&scans, |(from, to)| {
        for run in runs.iter().filter(|r| r.meets(from, to)) {
            black_box(run.walk(from, to, NeighborPolicy::Required).expect("read"));
        }
    });
    let capture = best_ns(&scans, |(from, to)| {
        black_box(db.scan_with_trace(from, to, |t| t.levels.len()).expect("read"));
    });
    let on_trace = |piece: ScanPiece<'_>| {
        best_timed(&scans, |(from, to)| {
            db.scan_with_trace(from, to, |t| piece(from, to, t)).expect("read")
        })
    };
    let mut verify = 0.0;
    let [proofs, nodes, levels] = counts_over(&store, || {
        verify = on_trace(&|from, to, trace| {
            timed(|| {
                black_box(store.trusted().verify_scan(from, to, trace).expect("verified"));
            })
        });
    });
    let (proofs, nodes) = (proofs / PASSES as f64, nodes / PASSES as f64);
    let parse_ns = on_trace(&|_, _, trace| parse(scan_records(trace)));
    let leaf_ns = on_trace(&|_, _, trace| leaves(scan_records(trace)));
    let path_ns = on_trace(&|_, _, trace| paths(scan_walks(trace)));
    let walks = on_trace(&|_, _, trace| scan_walks(trace).count() as u64);
    let merge = on_trace(&|_, _, trace| {
        timed(|| {
            black_box(trace.merged());
        })
    });
    // The same verifier on ranges past the last key, which no level's run
    // meets: its per-query and per-level work without a record.
    let past: Vec<_> = (0..QUERIES as u64).map(|i| (key(RECORDS + i), key(RECORDS + i))).collect();
    let fixed = best_timed(&past, |(from, to)| {
        let verify = |trace: &ScanTrace| {
            timed(|| {
                black_box(store.trusted().verify_scan(from, to, trace).expect("verified"));
            })
        };
        db.scan_with_trace(from, to, verify).expect("read")
    });
    let whole = best_ns(&scans, |(from, to)| {
        black_box(store.scan(from, to).expect("scan"));
    });
    println!(
        "scan: {:.2} levels checked, {proofs:.2} proofs, {nodes:.2} walk hashes per query",
        levels / PASSES as f64
    );
    print(
        "SCAN host capture (ns per scan)",
        ("scan_with_trace", capture),
        &[Row("walk", walk, "Run::walk, each level met".into())],
    );
    let mut rows = verifier_rows([proofs, nodes, walks], [parse_ns, leaf_ns, path_ns], units);
    rows.push(Row("merge", merge, "ScanTrace::merged".into()));
    rows.push(Row("levels, no record", fixed, "a range past the last key".into()));
    print("SCAN enclave verify (ns per scan)", ("TrustedState::verify_scan", verify), &rows);
    println!(
        "SCAN whole {whole:.0} ns = capture {capture:.0} + verify {verify:.0} + reply and ecall {:.0}",
        whole - capture - verify
    );

    // ----- GET -----------------------------------------------------------
    let capture = best_ns(&gets, |k| {
        black_box(db.get_with_trace(k, |t| t.levels.len()).expect("read"));
    });
    let on_trace = |piece: &dyn Fn(&[u8], &GetTrace) -> u64| {
        best_timed(&gets, |k| db.get_with_trace(k, |t| piece(k, t)).expect("read"))
    };
    let mut verify = 0.0;
    let [proofs, nodes, levels] = counts_over(&store, || {
        verify = on_trace(&|k, trace| {
            timed(|| {
                black_box(store.trusted().verify_get(k, trace).expect("verified"));
            })
        });
    });
    let (proofs, nodes) = (proofs / PASSES as f64, nodes / PASSES as f64);
    let parse_ns = on_trace(&|_, trace| parse(get_records(trace)));
    let leaf_ns = on_trace(&|_, trace| leaves(get_records(trace)));
    let path_ns = on_trace(&|_, trace| paths(get_walks(trace)));
    let walks = on_trace(&|_, trace| get_walks(trace).count() as u64);
    let whole = best_ns(&gets, |k| {
        black_box(store.get(k).expect("get"));
    });
    println!(
        "\nget: {:.2} levels checked, {proofs:.2} proofs, {nodes:.2} walk hashes per query",
        levels / PASSES as f64
    );
    let rows = verifier_rows([proofs, nodes, walks], [parse_ns, leaf_ns, path_ns], units);
    print("GET enclave verify (ns per GET)", ("TrustedState::verify_get", verify), &rows);
    println!(
        "GET whole {whole:.0} ns = capture {capture:.0} + verify {verify:.0} + reply and ecall {:.0}",
        whole - capture - verify
    );
}
