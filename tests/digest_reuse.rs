//! A merge hashes each stored record once — as an input. An output record
//! whose chain below it is the one its input level had takes that level's
//! chain digest over (`LevelDigestBuilder::add_carried`); every other
//! output record is hashed. This checks the reuse against the plain
//! reference over random merges: flushes, compactions of any set of runs
//! with and without tombstone purges, with and without old versions, and
//! value-log GC re-homing versions at every place in their chains.
//!
//! After each merge: the output level's commitment and crown, and every
//! stored value (envelope and proof), are those `LevelDigest::from_records`
//! gives over the output records; the merge carried exactly the records
//! whose chain suffix (their bytes and every older version's) is the one
//! they had in their input level (`core.compaction.leaves_reused`), and
//! hashed every other output record and every stored input record once
//! (`core.compaction.links_hashed`). Whatever it carried, the enclave is
//! charged one rehash of every stored input record and of every output
//! record, plus the merge's other charges, each named in `check_merge`.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use elsm_repro::elsm::envelope::{append_canonical, append_with_proof, open, plain_record};
use elsm_repro::elsm::{AuthListener, TrustedState};
use elsm_repro::lsm_store::{
    CompactionJob, Db, Options, Record, StorageEnv, Timestamp, VlogConfig, VlogGcJob,
};
use elsm_repro::merkle::LevelDigest;
use elsm_repro::sgx_sim::{CostModel, Platform};
use elsm_repro::sim_disk::{SimDisk, SimFs};
use elsm_repro::telemetry::Telemetry;
use proptest::prelude::*;

/// On-disk levels (runs stack in them: compaction is driven by hand).
const LEVELS: usize = 4;

/// Stored values of this many bytes and more move to the value log.
const VALUE_THRESHOLD: usize = 40;

struct Store {
    db: Db,
    platform: Arc<Platform>,
    trusted: Arc<TrustedState>,
    telemetry: Telemetry,
}

/// What the counters read before a merge: carried digests, links hashed,
/// and the SHA-256 blocks the platform charged.
type Counters = (u64, u64, u64);

impl Store {
    fn open(keep_old_versions: bool) -> Store {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let telemetry = Telemetry::default();
        let trusted =
            TrustedState::with_telemetry(platform.clone(), LEVELS, None, &Telemetry::default());
        let listener = AuthListener::new(platform.clone(), trusted.clone(), None, &telemetry);
        let options = Options {
            compaction_enabled: false,
            keep_old_versions,
            max_levels: LEVELS,
            write_buffer_bytes: 1 << 20,
            // Small files: a chain's versions spread over several, so a
            // GC's victims re-home some versions of a chain and not others.
            vlog: Some(VlogConfig {
                value_threshold: VALUE_THRESHOLD,
                target_file_bytes: 300,
                gc_garbage_ratio: 0.5,
                gc_enabled: false,
            }),
            ..Options::default()
        };
        let env = StorageEnv::new(platform.clone(), fs, options.env.clone(), None);
        let db = Db::open(env, options, Some(listener)).unwrap();
        Store { db, platform, trusted, telemetry }
    }

    fn counters(&self) -> Counters {
        let counter = |name| self.telemetry.counter(name).value();
        (
            counter("core.compaction.leaves_reused"),
            counter("core.compaction.links_hashed"),
            self.platform.stats().hash_blocks,
        )
    }

    /// Every stored level's records, index = level.
    fn levels(&self) -> Vec<Vec<Record>> {
        (0..=LEVELS).map(|l| self.db.level_record_dump(l).unwrap()).collect()
    }

    fn populated(&self) -> Vec<usize> {
        (1..=LEVELS).filter(|&l| self.db.current_version().level(l).is_some()).collect()
    }
}

/// A record's canonical bytes: itself with its bare application value.
fn canonical(record: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    append_canonical(record.view(), open(&record.value).expect("an envelope").value, &mut out);
    out
}

/// What the merge runs showed about the digests.
#[derive(Default)]
struct Seen {
    reused: u64,
    /// Places (0 = newest) in their output chains of records a GC
    /// re-homed.
    moved_at: BTreeSet<usize>,
}

/// Checks one merge of `inputs` (stored levels; the memtable besides for
/// a flush) into `output`, given the levels before it, the counters, and
/// the blocks a flush's key-value separation charged for the value-log
/// entry digests of the memtable's large values (0 for any other merge).
fn check_merge(
    store: &Store,
    before: &[Vec<Record>],
    inputs: &[usize],
    output: usize,
    (reused0, hashed0, blocks0): Counters,
    entry_digests: u64,
    seen: &mut Seen,
) {
    assert!(!store.trusted.is_poisoned(), "an honest merge keeps the store healthy");
    let out = store.db.level_record_dump(output).unwrap();
    let canonicals: Vec<Vec<u8>> = out.iter().map(canonical).collect();
    let reference = LevelDigest::from_records(
        output as u32,
        out.iter().zip(&canonicals).map(|(r, c)| (&r.key[..], c.clone())),
    );
    let trusted = &store.trusted;
    assert_eq!(trusted.commitment(output as u32), reference.commitment(), "level {output}");
    let crown = reference.crown(trusted.crown_row_max());
    if !out.is_empty() {
        assert_eq!(trusted.crown_nodes(output as u32), crown.node_count());
    }
    // Every stored value is the envelope around the bare value and the
    // reference's proof for its place, cut at the crown's anchor row.
    let (mut leaf, mut version) = (0usize, 0usize);
    for (i, record) in out.iter().enumerate() {
        if i > 0 && out[i - 1].key != record.key {
            (leaf, version) = (leaf + 1, 0);
        }
        let mut stored = Vec::new();
        append_with_proof(&mut stored, open(&record.value).unwrap().value, |buf| {
            reference.encode_proof_into(&crown, leaf, version, buf)
        });
        assert_eq!(record.value, stored, "stored value of {:?}@{}", record.key, record.ts);
        version += 1;
    }

    // The reference for reuse: where each input record was, and its bytes.
    let mut place: HashMap<(&[u8], Timestamp), (usize, usize)> = HashMap::new();
    let mut stored_inputs = 0u64;
    for &level in inputs {
        stored_inputs += before[level].len() as u64;
        for (i, r) in before[level].iter().enumerate() {
            place.insert((&r.key[..], r.ts), (level, i));
        }
    }
    let mut reused = 0u64;
    let mut start = 0;
    while start < out.len() {
        let end = (start..out.len()).find(|&i| out[i].key != out[start].key).unwrap_or(out.len());
        for i in start..end {
            let Some(&(level, at)) = place.get(&(&out[i].key[..], out[i].ts)) else { continue };
            let input = &before[level];
            let input_end =
                (at..input.len()).find(|&j| input[j].key != input[at].key).unwrap_or(input.len());
            let input_suffix: Vec<Vec<u8>> = input[at..input_end].iter().map(canonical).collect();
            if canonical(&input[at]) != canonicals[i] {
                seen.moved_at.insert(i - start);
            }
            if input_suffix[..] == canonicals[i..end] {
                reused += 1;
            }
        }
        start = end;
    }
    let (reused1, hashed1, blocks1) = store.counters();
    assert_eq!(reused1 - reused0, reused, "carried digests");
    assert_eq!(hashed1 - hashed0, stored_inputs + out.len() as u64 - reused, "links hashed");

    // The charge: one rehash of every stored input record and of every
    // output record, carried or not; the delta fold, 32 bytes per level it
    // sets or clears (the output, and each other input); and the entry
    // digests. Nothing else.
    let rehash = |records: &[Record]| -> u64 {
        records.iter().map(|r| CostModel::hash_blocks(canonical(r).len())).sum()
    };
    let inputs_rehashed: u64 = inputs.iter().map(|&level| rehash(&before[level])).sum();
    let touched = 1 + inputs.iter().filter(|&&level| level != output).count();
    let delta_fold = CostModel::hash_blocks(32 * touched);
    assert_eq!(
        blocks1 - blocks0,
        inputs_rehashed + rehash(&out) + delta_fold + entry_digests,
        "hash blocks charged"
    );
    seen.reused += reused;
    for &level in inputs.iter().filter(|&&l| l != output) {
        assert!(store.db.level_record_dump(level).unwrap().is_empty(), "input {level} consumed");
    }
}

/// Runs one op script: `(op, a, b)` triples decoded into writes and merges,
/// each merge checked.
fn run(keep_old_versions: bool, script: &[(u8, u16, u16)]) -> Seen {
    let store = Store::open(keep_old_versions);
    let mut seen = Seen::default();
    // Blocks the next flush charges for the value-log entry digests of the
    // values it separates: every large put the memtable holds, shadowed or
    // not (separation runs before the merge drops old versions).
    let mut entry_digests = 0;
    for &(op, a, b) in script {
        let populated = store.populated();
        let before = store.levels();
        let counters = store.counters();
        match op % 8 {
            0..=3 => {
                let key = format!("key{:02}", a % 24);
                let value = vec![b as u8; usize::from(b % 90)];
                let (key, value) = plain_record(key.as_bytes(), &value);
                if value.len() >= VALUE_THRESHOLD {
                    entry_digests += CostModel::hash_blocks(key.len() + value.len() + 16);
                }
                store.db.put_bytes(key, value).unwrap();
            }
            4 => {
                store.db.delete(format!("key{:02}", a % 24).as_bytes()).unwrap();
            }
            5 => {
                // A flush stacks at the first empty level.
                let Some(target) = (1..=LEVELS).find(|l| !populated.contains(l)) else { continue };
                if store.db.level_records()[0] == 0 {
                    continue;
                }
                store.db.flush().unwrap();
                check_merge(&store, &before, &[], target, counters, entry_digests, &mut seen);
                entry_digests = 0;
            }
            _ => {
                // Any non-empty set of runs, into the deepest of them.
                let inputs: Vec<usize> = populated
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| a >> i & 1 == 1)
                    .map(|(_, &l)| l)
                    .collect();
                let Some(&output) = inputs.last() else { continue };
                let job = CompactionJob {
                    input_levels: inputs.clone(),
                    output_level: output,
                    purge: b & 1 == 1,
                };
                if op % 8 == 6 {
                    store.db.apply_compaction_job(&job).unwrap();
                } else {
                    // Re-home whatever the victims hold (never the file
                    // still taking appends).
                    let vlog = store.db.vlog().expect("separation is on");
                    let files: Vec<u64> = vlog.manifest_files().iter().map(|f| f.0).collect();
                    let rewrite_files: Vec<u64> = files
                        .iter()
                        .take(files.len().saturating_sub(1))
                        .enumerate()
                        .filter(|(i, _)| (b >> 1) >> (i % 15) & 1 == 1)
                        .map(|(_, &no)| no)
                        .collect();
                    store.db.apply_vlog_gc(&VlogGcJob { job, rewrite_files }).unwrap();
                }
                check_merge(&store, &before, &inputs, output, counters, 0, &mut seen);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn carried_digests_match_the_reference(
        keep_old_versions in any::<bool>(),
        script in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 20..120),
    ) {
        run(keep_old_versions, &script);
    }
}

/// The harness reaches what it is about: carried digests, and GC moves at
/// the newest, a middle and the oldest place of a chain.
#[test]
fn the_harness_moves_versions_at_every_place() {
    // Three versions of each of four keys, each version flushed as its
    // own run, then six other keys, whose values fill the newest log files;
    // one run, then all runs, merged; then a GC of every file but the one
    // taking appends.
    let mut script = Vec::new();
    for round in 0..3u16 {
        for key in 0..4u16 {
            script.push((0, key, 60 + round));
        }
        script.push((5, 0, 0));
    }
    script.extend((10..16).map(|key| (0, key, 60)));
    script.push((5, 0, 0));
    script.push((6, 0b1, 0));
    script.push((6, 0b1111, 0));
    script.push((7, 0b1, 0xffff));
    let seen = run(true, &script);
    assert!(seen.reused > 0);
    assert_eq!(seen.moved_at, BTreeSet::from([0, 1, 2]));
}
