//! Unit tests for [`crate::version::Run`]: cross-file search, neighbors,
//! and ranges over multi-file sorted runs.

#![cfg(test)]

use std::sync::Arc;

use crate::env::{EnvConfig, StorageEnv};
use crate::record::{Record, Timestamp};
use crate::sstable::{NeighborPolicy, TableBuilder, TableOptions, TableReader};
use crate::version::{LevelOutcome, Run};
use sgx_sim::Platform;
use sim_disk::{SimDisk, SimFs};

fn env() -> (Arc<StorageEnv>, Arc<SimFs>) {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    (StorageEnv::new(platform, fs.clone(), EnvConfig::default(), None), fs)
}

/// Builds a run of three files: keys a..h, i..p, q..x (one record each).
fn three_file_run() -> Run {
    let (env, fs) = env();
    let mut tables = Vec::new();
    for (file_no, range) in [(1u64, b'a'..=b'h'), (2, b'i'..=b'p'), (3, b'q'..=b'x')] {
        let file = fs.create(&format!("{file_no}.sst")).unwrap();
        let mut b = TableBuilder::new(env.clone(), file.clone(), file_no, TableOptions::default());
        for (i, k) in range.enumerate() {
            b.add(
                Record::put(
                    vec![k],
                    format!("v{}", k as char).into_bytes(),
                    i as u64 + file_no * 100,
                )
                .view(),
            );
        }
        b.finish();
        tables.push(Arc::new(TableReader::open(env.clone(), file, file_no).unwrap()));
    }
    Run::new(tables)
}

const TS: Timestamp = Timestamp::MAX >> 1;

#[test]
fn get_hits_in_every_file() {
    let run = three_file_run();
    for k in [b'a', b'h', b'i', b'p', b'q', b'x'] {
        match run.get(&[k], TS, NeighborPolicy::Required).unwrap() {
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
    match run.get(b"h\x01", TS, NeighborPolicy::Required).unwrap() {
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
    assert!(!Run::new(Vec::new()).meets(b"a", b"z"));
}

#[test]
fn boundary_misses_have_one_sided_neighbors() {
    let run = three_file_run();
    match run.get(b"A", TS, NeighborPolicy::Required).unwrap() {
        LevelOutcome::Miss { left, right } => {
            assert!(left.is_none());
            assert_eq!(&right.unwrap().key[..], b"a");
        }
        other => panic!("{other:?}"),
    }
    match run.get(b"z", TS, NeighborPolicy::Required).unwrap() {
        LevelOutcome::Miss { left, right } => {
            assert_eq!(&left.unwrap().key[..], b"x");
            assert!(right.is_none());
        }
        other => panic!("{other:?}"),
    }
}

/// `Run::get(.., Required)` as it read while a table answered a miss with
/// its own neighbours and the run patched the `None`s — kept as the oracle
/// for the run finding both neighbours itself.
fn get_as_patched_table_miss(run: &Run, key: &[u8], ts_q: Timestamp) -> LevelOutcome {
    let tables = run.tables();
    let idx = tables.partition_point(|t| &t.meta().largest[..] < key);
    let covering = (idx < tables.len() && &tables[idx].meta().smallest[..] <= key).then_some(idx);
    match covering {
        Some(idx) => match tables[idx].get(key, ts_q).unwrap() {
            Some(r) => LevelOutcome::Hit(r),
            None => {
                let left = tables[idx].newest_before(key, ts_q).unwrap();
                let right = tables[idx].newest_after(key, ts_q).unwrap();
                let left = match left {
                    Some(l) => Some(l),
                    None => run.neighbor_below(key, ts_q).unwrap(),
                };
                let right = match right {
                    Some(r) => Some(r),
                    None => run.neighbor_above(key, ts_q).unwrap(),
                };
                LevelOutcome::Miss { left, right }
            }
        },
        None => LevelOutcome::Miss {
            left: run.neighbor_below(key, ts_q).unwrap(),
            right: run.neighbor_above(key, ts_q).unwrap(),
        },
    }
}

/// Every key of the run and every gap — before the first key, between
/// neighbouring keys within a file and across files, after the last — at
/// the latest timestamp and at snapshots that hide whole files.
#[test]
fn run_finds_the_neighbors_a_patched_table_miss_found() {
    let run = three_file_run();
    let mut probes: Vec<Vec<u8>> = vec![b"A".to_vec()];
    for k in b'a'..=b'x' {
        probes.push(vec![k]);
        probes.push(vec![k, 1]);
    }
    for ts_q in [TS, 305, 250, 150, 103, 50] {
        for key in &probes {
            let got = run.get(key, ts_q, NeighborPolicy::Required).unwrap();
            assert_eq!(got, get_as_patched_table_miss(&run, key, ts_q), "{key:?} at {ts_q}");
            if ts_q == TS {
                let is_key = key.len() == 1 && key[0] >= b'a';
                assert_eq!(matches!(got, LevelOutcome::Hit(_)), is_key, "{key:?}");
            }
        }
    }
    // A snapshot from before files 2 and 3 were written: file 1's last key
    // below, nothing above.
    match run.get(b"j\x01", 150, NeighborPolicy::Required).unwrap() {
        LevelOutcome::Miss { left, right } => {
            assert_eq!((left.map(|r| r.key[0]), right), (Some(b'h'), None));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn range_spans_files() {
    let run = three_file_run();
    let got = run.range(b"f", b"k").unwrap();
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

#[test]
#[should_panic(expected = "disjoint and sorted")]
fn overlapping_tables_rejected() {
    let (env, fs) = env();
    let mut tables = Vec::new();
    for file_no in [1u64, 2] {
        let file = fs.create(&format!("{file_no}.sst")).unwrap();
        let mut b = TableBuilder::new(env.clone(), file.clone(), file_no, TableOptions::default());
        b.add(Record::put(b"same".as_slice(), b"v".as_slice(), file_no).view());
        b.finish();
        tables.push(Arc::new(TableReader::open(env.clone(), file, file_no).unwrap()));
    }
    let _ = Run::new(tables);
}
