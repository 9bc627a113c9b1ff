//! Unit tests for [`crate::version::Run`]: cross-file search, neighbors,
//! and ranges over multi-file sorted runs.

#![cfg(test)]

use std::sync::Arc;

use crate::env::{EnvConfig, MappedFile, StorageEnv};
use crate::record::Record;
use crate::sstable::{NeighborPolicy, TableBuilder, TableOptions, TableReader};
use crate::version::{LevelOutcome, Run, Walk};
use sgx_sim::Platform;
use sim_disk::{SimDisk, SimFs};

fn env() -> (Arc<StorageEnv>, Arc<SimFs>) {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    (StorageEnv::new(platform, fs.clone(), EnvConfig::default(), None), fs)
}

/// Writes each record list as one table, file numbers from 1, and opens
/// them as a run on `env`.
fn build_run(
    env: &Arc<StorageEnv>,
    fs: &SimFs,
    options: &TableOptions,
    files: &[Vec<Record>],
) -> Run {
    let mut tables = Vec::new();
    for (file_no, records) in (1u64..).zip(files) {
        let file = fs.create(&format!("{file_no}.sst")).unwrap();
        let file = MappedFile::new(env.clone(), file, 0);
        let mut b = TableBuilder::new(file, file_no, options.clone());
        for r in records {
            b.add(r.view());
        }
        tables.push(Arc::new(b.finish().unwrap()));
    }
    Run::new(tables).unwrap()
}

/// Builds a run of three files: keys a..h, i..p, q..x (one record each).
fn three_file_run() -> Run {
    let (env, fs) = env();
    let files: Vec<Vec<Record>> = [(1u64, b'a'..=b'h'), (2, b'i'..=b'p'), (3, b'q'..=b'x')]
        .into_iter()
        .map(|(file_no, range)| {
            let record = |(i, k): (usize, u8)| {
                Record::put(
                    vec![k],
                    format!("v{}", k as char).into_bytes(),
                    i as u64 + file_no * 100,
                )
            };
            range.enumerate().map(record).collect()
        })
        .collect();
    build_run(&env, &fs, &TableOptions::default(), &files)
}

/// A run of three files of small blocks: keys `k000..k089`, thirty a
/// file, with version chains that straddle blocks — key 15 in twelve
/// versions, the first file's last key (29) in eight, key 44 in twelve.
fn chained_run(env: &Arc<StorageEnv>, fs: &SimFs) -> Run {
    let versions = |i: u64| match i {
        15 | 44 => 12,
        29 => 8,
        _ => 1,
    };
    let mut ts = 10_000;
    let files: Vec<Vec<Record>> = (0..3u64)
        .map(|file| {
            let mut records = Vec::new();
            for i in file * 30..file * 30 + 30 {
                for v in 0..versions(i) {
                    ts -= 1;
                    let value = format!("{i:03}.{v:02}").repeat(5).into_bytes();
                    records.push(Record::put(format!("k{i:03}").into_bytes(), value, ts));
                }
            }
            records
        })
        .collect();
    let options = TableOptions { block_size: 256, bloom_bits_per_key: 10 };
    build_run(env, fs, &options, &files)
}

/// Every record of `run`, in order.
fn all_records(run: &Run) -> Vec<Record> {
    let mut all = Vec::new();
    run.for_each_record(|r| all.push(r.to_record())).unwrap();
    all
}

/// Whether the run whose records are `all` holds `key`.
fn holds(all: &[Record], key: &[u8]) -> bool {
    all.iter().any(|r| r.key == key)
}

/// The brute-force walk: over every record of the run, the records in
/// `[from, to]`, the first (newest) record of the greatest key below
/// `from` unless the run holds `from`, and the first record above `to`
/// unless it holds `to` — a stored end key anchors its end itself.
fn reference_walk(all: &[Record], from: &[u8], to: &[u8]) -> Walk {
    let below = all.iter().rev().find(|r| &r.key[..] < from).filter(|_| !holds(all, from));
    Walk {
        left: below.and_then(|last| all.iter().find(|r| r.key == last.key)).cloned(),
        records: all.iter().filter(|r| from <= &r.key[..] && &r.key[..] <= to).cloned().collect(),
        right: all.iter().find(|r| &r.key[..] > to).filter(|_| !holds(all, to)).cloned(),
    }
}

/// The brute-force `Run::get(key, Required)`: the key's newest record, or
/// the miss's two neighbours.
fn reference_get(all: &[Record], key: &[u8]) -> LevelOutcome {
    match all.iter().find(|r| r.key == key) {
        Some(r) => LevelOutcome::Hit(r.clone()),
        None => {
            let Walk { left, right, .. } = reference_walk(all, key, key);
            LevelOutcome::Miss { left, right }
        }
    }
}

/// Every key of the run and every gap: before the first key, between
/// neighbouring keys within a file and across files, after the last.
fn probes(all: &[Record]) -> Vec<Vec<u8>> {
    let mut probes = vec![b"A".to_vec()];
    for r in all {
        if probes.last() != Some(&[&r.key[..], &[1]].concat()) {
            probes.push(r.key.to_vec());
            probes.push([&r.key[..], &[1]].concat());
        }
    }
    probes
}

#[test]
fn get_hits_in_every_file() {
    let run = three_file_run();
    for k in [b'a', b'h', b'i', b'p', b'q', b'x'] {
        match run.get(&[k], NeighborPolicy::Required).unwrap() {
            LevelOutcome::Hit(r) => assert_eq!(r.key[0], k),
            other => panic!("expected hit for {}: {other:?}", k as char),
        }
    }
}

#[test]
fn neighbors_cross_file_boundaries() {
    let run = three_file_run();
    // No key between 'h' (file 1) and 'i' (file 2) exists; query a gap by
    // deleting nothing — keys are contiguous, so probe before 'a' and
    // after 'x' instead, plus the synthetic key "h\x01" between files.
    match run.get(b"h\x01", NeighborPolicy::Required).unwrap() {
        LevelOutcome::Miss { left, right } => {
            assert_eq!(&left.unwrap().key[..], b"h", "left neighbor from file 1");
            assert_eq!(&right.unwrap().key[..], b"i", "right neighbor from file 2");
        }
        other => panic!("expected miss: {other:?}"),
    }
}

/// A run meets a range that touches `a..=x` anywhere, gaps between its
/// files included, and no range wholly outside it; an empty run meets none.
#[test]
fn a_run_meets_what_its_key_range_touches() {
    let run = three_file_run();
    for (from, to) in [(&b"a"[..], &b"a"[..]), (b"x", b"z"), (b"A", b"a"), (b"h\x01", b"h\x02")] {
        assert!(run.meets(from, to), "{from:?}..={to:?}");
    }
    for (from, to) in [(&b"A"[..], &b"Z"[..]), (b"x\x00", b"z"), (b"z", b"z")] {
        assert!(!run.meets(from, to), "{from:?}..={to:?}");
    }
    assert!(!Run::new(Vec::new()).unwrap().meets(b"a", b"z"));
}

#[test]
fn boundary_misses_have_one_sided_neighbors() {
    let run = three_file_run();
    match run.get(b"A", NeighborPolicy::Required).unwrap() {
        LevelOutcome::Miss { left, right } => {
            assert!(left.is_none());
            assert_eq!(&right.unwrap().key[..], b"a");
        }
        other => panic!("{other:?}"),
    }
    match run.get(b"z", NeighborPolicy::Required).unwrap() {
        LevelOutcome::Miss { left, right } => {
            assert_eq!(&left.unwrap().key[..], b"x");
            assert!(right.is_none());
        }
        other => panic!("{other:?}"),
    }
}

/// Every key and gap as a GET, and every window between two of them as a
/// scan, under both policies, against the brute-force reference over the
/// run's records — on `three_file_run` and on a run whose version chains
/// straddle blocks.
#[test]
fn gets_and_walks_match_a_brute_force_reference() {
    let (env, fs) = env();
    for run in [three_file_run(), chained_run(&env, &fs)] {
        let all = all_records(&run);
        let probes = probes(&all);
        for key in &probes {
            let want = reference_get(&all, key);
            assert_eq!(run.get(key, NeighborPolicy::Required).unwrap(), want, "{key:?}");
            let skipped = match want {
                LevelOutcome::Miss { .. } => LevelOutcome::Miss { left: None, right: None },
                hit => hit,
            };
            assert_eq!(run.get(key, NeighborPolicy::Skip).unwrap(), skipped, "{key:?}");
        }
        for (i, from) in probes.iter().enumerate() {
            for to in &probes[i..] {
                let want = reference_walk(&all, from, to);
                let got = run.walk(from, to, NeighborPolicy::Required).unwrap();
                assert_eq!(got, want, "{from:?}..={to:?}");
                let got = run.walk(from, to, NeighborPolicy::Skip).unwrap();
                assert_eq!(got, Walk { records: want.records, ..Walk::default() });
            }
        }
    }
}

/// Where each record of a run sits: `(table, block)` per record, in order.
fn record_blocks(run: &Run) -> Vec<(usize, usize)> {
    let mut at = Vec::new();
    for (t, table) in run.tables().iter().enumerate() {
        for (b, records) in table.block_records().iter().enumerate() {
            at.extend(std::iter::repeat_n((t, b), records.len()));
        }
    }
    at
}

/// `run`'s tables opened afresh on an environment of their own, whose
/// block cache starts empty: its hits are blocks a query read twice, its
/// misses the distinct blocks it read.
fn cold(run: &Run, fs: &Arc<SimFs>) -> (Run, Arc<StorageEnv>) {
    let config = EnvConfig { in_enclave: false, ..EnvConfig::default() };
    let env = StorageEnv::new(fs.platform().clone(), fs.clone(), config, None);
    let tables = run.tables().iter().map(|t| {
        let file_no = t.meta().file_no;
        let file = fs.open(&format!("{file_no}.sst")).unwrap();
        Arc::new(TableReader::open(env.clone(), file, file_no).unwrap())
    });
    (Run::new(tables.collect()).unwrap(), env)
}

/// Blocks read twice and distinct blocks read by `query` on a cold copy of
/// `run`.
fn reads(run: &Run, fs: &Arc<SimFs>, query: impl FnOnce(&Run)) -> (u64, u64) {
    let (run, env) = cold(run, fs);
    query(&run);
    env.cache_stats().unwrap()
}

/// One scan or one GET miss reads each block of a run at most once: the
/// block the GET's lookup read is where the walk for its neighbours starts,
/// and the walk steps across block and table boundaries without a new
/// search. It reads exactly the blocks holding its evidence — the left
/// neighbour's newest record, the range — and the record that stops it,
/// the right neighbour or, where the run holds `to`, the first record past
/// it if `to`'s table holds one (a `to` that closes its table stops the
/// walk there: versions never straddle tables); and with `Skip` exactly
/// the blocks holding the range, from the one
/// its first record would be in to the one that ends it in each table it
/// meets.
/// Every window between two keys or gaps runs, and among them these
/// cases: the left neighbour opens its block, lies in the previous table
/// or has a version chain that straddles blocks; the right neighbour lies
/// in the next table.
#[test]
fn a_query_reads_each_block_at_most_once() {
    let (env, fs) = env();
    let run = chained_run(&env, &fs);
    let all = all_records(&run);
    let at = record_blocks(&run);
    let position = |r: &Record| all.iter().position(|a| a == r).unwrap();
    let probes = probes(&all);
    let [mut opens, mut previous_table, mut straddles, mut next_table] = [0; 4];
    let mut closing = 0;
    // Whether `to` is stored and the record at `stop`, the first past it,
    // opens the next table.
    let mut closes_its_table = |stop: usize, to: &[u8]| {
        let closes = holds(&all, to) && at[stop - 1].0 != at[stop].0;
        closing += u32::from(closes);
        closes
    };
    let mut evidence_blocks = |w: &Walk, to: &[u8], start: (usize, usize)| {
        let mut blocks: Vec<(usize, usize)> = w.records.iter().map(|r| at[position(r)]).collect();
        if let Some(left) = &w.left {
            let head = at[position(left)];
            blocks.push(head);
            opens += u32::from(position(left) == 0 || at[position(left) - 1] != head);
            previous_table += u32::from(head.0 < start.0);
            straddles += u32::from(
                all.iter().filter(|r| r.key == left.key).count() > 1 && {
                    let last = all.iter().rposition(|r| r.key == left.key).unwrap();
                    at[last] != head
                },
            );
        }
        if let Some(stop) = all.iter().position(|r| &r.key[..] > to) {
            if !closes_its_table(stop, to) {
                blocks.push(at[stop]);
            }
            next_table += u32::from(w.right.is_some() && at[stop].0 > start.0);
        }
        blocks.sort();
        blocks.dedup();
        blocks.len() as u64
    };
    // The block a query starting at `from` starts in: that of the first
    // record at or past `from`.
    let start = |from: &[u8]| all.iter().position(|r| &r.key[..] >= from).map(|i| at[i]);
    for key in &probes {
        if all.iter().any(|r| r.key == *key) {
            continue;
        }
        let want = reference_walk(&all, key, key);
        let (twice, distinct) = reads(&run, &fs, |run| {
            assert!(matches!(
                run.get(key, NeighborPolicy::Required),
                Ok(LevelOutcome::Miss { .. })
            ));
        });
        assert_eq!(twice, 0, "GET {key:?} read a block twice");
        let from = start(key).unwrap_or((usize::MAX, 0));
        assert_eq!(distinct, evidence_blocks(&want, key, from), "GET {key:?}");
    }
    for (i, from) in probes.iter().enumerate() {
        for to in probes[i..].iter().take(6) {
            let want = reference_walk(&all, from, to);
            let (twice, distinct) = reads(&run, &fs, |run| {
                assert_eq!(run.walk(from, to, NeighborPolicy::Required).unwrap(), want);
            });
            assert_eq!(twice, 0, "scan {from:?}..={to:?} read a block twice");
            let start_block = start(from).unwrap_or((usize::MAX, 0));
            let evidence = evidence_blocks(&want, to, start_block);
            assert_eq!(distinct, evidence, "scan {from:?}..={to:?}");

            let (twice, distinct) = reads(&run, &fs, |run| {
                assert_eq!(run.walk(from, to, NeighborPolicy::Skip).unwrap().records, want.records);
            });
            assert_eq!(twice, 0, "skip scan {from:?}..={to:?} read a block twice");
            // Per table the range meets: its first record at or past
            // `from` to its first past `to`, or its last.
            let mut range_blocks = 0;
            for t in 0..run.tables().len() {
                let held: Vec<usize> = (0..all.len()).filter(|&i| at[i].0 == t).collect();
                let (smallest, largest) = (&all[held[0]].key, &all[*held.last().unwrap()].key);
                if smallest[..] > to[..] || largest[..] < from[..] {
                    continue;
                }
                let first = held.iter().find(|&&i| all[i].key[..] >= from[..]).unwrap();
                let end = held.iter().find(|&&i| all[i].key[..] > to[..]);
                range_blocks += (at[*end.unwrap_or(held.last().unwrap())].1 - at[*first].1) + 1;
            }
            assert_eq!(distinct, range_blocks as u64, "skip scan {from:?}..={to:?}");
        }
    }
    for (case, seen) in [
        ("left neighbour opens its block", opens),
        ("left neighbour in the previous table", previous_table),
        ("left neighbour's chain straddles blocks", straddles),
        ("right neighbour in the next table", next_table),
        ("`to` closing its table", closing),
    ] {
        assert!(seen > 0, "no query met the case: {case}");
    }
}

/// A walk yields a boundary only at an end of the range the run does not
/// hold — a stored `from` or `to` anchors its end itself — over every
/// window between two keys or gaps of a run whose version chains straddle
/// blocks. A walk whose `from` is stored and opens its block reads no
/// block before it: on a cold cache it reads the blocks from `from`'s to
/// the one holding the record that stops it, each once — or to `to`'s last
/// where `to` is stored and closes its table, since versions never
/// straddle tables.
#[test]
fn a_stored_end_key_needs_no_boundary_and_no_earlier_block() {
    let (env, fs) = env();
    let run = chained_run(&env, &fs);
    let all = all_records(&run);
    let at = record_blocks(&run);
    let probes = probes(&all);
    let mut opening = 0;
    for (i, from) in probes.iter().enumerate() {
        // Where `from`'s newest record opens a block after the run's first.
        let first = all.iter().position(|r| r.key == *from);
        let opens = first.filter(|&f| f > 0 && at[f - 1] != at[f]);
        opening += u32::from(opens.is_some());
        for to in &probes[i..] {
            let w = run.walk(from, to, NeighborPolicy::Required).unwrap();
            let below = all.iter().any(|r| r.key[..] < from[..]);
            let above = all.iter().any(|r| r.key[..] > to[..]);
            assert_eq!(w.left.is_some(), below && !holds(&all, from), "{from:?}..={to:?}");
            assert_eq!(w.right.is_some(), above && !holds(&all, to), "{from:?}..={to:?}");
            let Some(first) = opens else { continue };
            let stop = match all.iter().position(|r| r.key[..] > to[..]) {
                Some(past) if holds(&all, to) && at[past - 1].0 != at[past].0 => past - 1,
                Some(past) => past,
                None => all.len() - 1,
            };
            let mut blocks = at[first..=stop].to_vec();
            blocks.dedup();
            let (twice, distinct) = reads(&run, &fs, |run| {
                run.walk(from, to, NeighborPolicy::Required).unwrap();
            });
            assert_eq!(twice, 0, "scan {from:?}..={to:?} read a block twice");
            assert_eq!(distinct, blocks.len() as u64, "scan {from:?}..={to:?}: an earlier block");
        }
    }
    assert!(opening > 1, "a stored `from` opens a block");
}

#[test]
fn walk_spans_files() {
    let run = three_file_run();
    let got = run.walk(b"f", b"k", NeighborPolicy::Skip).unwrap().records;
    let keys: Vec<u8> = got.iter().map(|r| r.key[0]).collect();
    assert_eq!(keys, vec![b'f', b'g', b'h', b'i', b'j', b'k']);
}

#[test]
fn totals_aggregate_files() {
    let run = three_file_run();
    assert_eq!(run.total_records(), 24);
    assert_eq!(&run.smallest().unwrap()[..], b"a");
    assert_eq!(&run.largest().unwrap()[..], b"x");
    let mut count = 0;
    run.for_each_record(|_| count += 1).unwrap();
    assert_eq!(count, 24);
}

/// Tables that overlap, or that a manifest lists out of order, are an
/// error: they are the host's files and do not make a run.
#[test]
fn overlapping_tables_rejected() {
    let (env, fs) = env();
    let one = |key: &[u8], ts| vec![Record::put(key, b"v".as_slice(), ts)];
    let overlapping = build_run(&env, &fs, &TableOptions::default(), &[one(b"same", 1)]);
    let tables = overlapping.tables().to_vec();
    assert!(Run::new(vec![tables[0].clone(), tables[0].clone()]).is_err());
    let (env, fs) = self::env();
    let ordered = build_run(&env, &fs, &TableOptions::default(), &[one(b"a", 1), one(b"b", 2)]);
    let mut swapped = ordered.tables().to_vec();
    swapped.reverse();
    assert!(Run::new(swapped).is_err());
}
