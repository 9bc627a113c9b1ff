//! Reference GET and SCAN verifiers, written the slow way, and the
//! property that a verified read agrees with them: each trace is handed to
//! an ordinary `get` or `scan` by a hostile host on the store's read path.
//!
//! The reference rebuilds each level's Merkle tree from the records the
//! level stores (`level_record_dump`) and keeps it only if its root and
//! leaf count are the committed ones. A stored newest-version path stops at
//! the anchor row of the level's crown — the widest row of at most the
//! enclave's `crown_row_max` nodes, worked out here by arithmetic — so the
//! reference requires exactly the siblings below that row, completes the
//! path with the rebuilt tree's siblings above it, and walks it to the root
//! with `RecordProof::verify` — no crown, no range walk, no borrowed proof —
//! under the key and adjacency rules a GET was verified by while a hit and
//! a non-membership claim were two separate checks: a hit's key is the
//! query's and its proof verifies; a miss's neighbours bracket the key,
//! each verifies on its own, and they are adjacent leaves, or the first or
//! last leaf. `verify_get` reads a GET level as the key range `[key, key]`
//! instead and proves it with one walk. On leveled and tiered stores of two
//! and three levels whose keys have many versions, for every stored key,
//! every gap between them and every GET attack of `support::adversary`, the
//! two accept exactly the same traces and return the same record.
//!
//! Fences, the slow way: the reference takes each level's first and last
//! key from the records stored at its leaf 0 and its last leaf, each
//! root-walked on its own, and passes over exactly the levels whose range
//! does not hold the key — a trace must carry nothing for them.
//!
//! Scans, the slow way: at each level the reference root-walks every head —
//! each boundary and each in-range key's newest version — on its own,
//! checks each older version link by link down its head's chain, and asks
//! that the heads be consecutive leaves whose two ends are each anchored by
//! a boundary outside the range, the tree's edge, or an in-range record
//! whose key is that end of the range. For short windows over the stored
//! keys and the gaps between them, honest traces, each scan move of
//! `support::adversary` and each boundary dropped or added, the two agree
//! in verdict and records — except a flipped path sibling the scan's walk
//! does not read, which only the reference refuses.

use elsm_repro::elsm::envelope;
use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options, VerifiedRecord};
use elsm_repro::lsm_store::{
    CompactionStrategyKind, GetTrace, LevelOutcome, LevelRange, LevelSearch, Record, ScanTrace,
};
use elsm_repro::merkle::{chain_link, ChainPosition, LevelCommitment, MerkleTree, RecordProof};
use elsm_repro::sgx_sim::Platform;

pub mod support;
use support::adversary;

/// The reference's answer: the verified record, or why it refused.
type Verdict<'t> = Result<Option<&'t Record>, &'static str>;

/// What the reference knows of one level: its commitment, the tree its
/// stored records rebuild to (`None` unless that is the committed tree),
/// and the height of the row its stored paths stop at.
struct Level {
    commitment: LevelCommitment,
    tree: Option<MerkleTree>,
    anchor_row: u32,
}

/// Every level the enclave tracks, by number, rebuilt from what it stores.
fn rebuilt_levels(store: &ElsmP2) -> Vec<Level> {
    let row_max = store.trusted().crown_row_max().max(1) as u64;
    let mut commitments = store.trusted().commitments();
    let tracked = store.trusted().max_levels() as u32;
    commitments.extend((commitments.len() as u32..=tracked).map(LevelCommitment::empty));
    commitments
        .into_iter()
        .map(|commitment| {
            let (n, mut anchor_row) = (commitment.leaf_count, 0);
            while n.div_ceil(1 << anchor_row) > row_max {
                anchor_row += 1;
            }
            let tree = (!commitment.is_empty()).then(|| {
                let records = store.db().level_record_dump(commitment.level as usize).unwrap();
                adversary::level_tree(&records)
            });
            let committed = |t: &MerkleTree| {
                t.root() == commitment.root && t.leaf_count() as u64 == commitment.leaf_count
            };
            Level { commitment, tree: tree.filter(committed), anchor_row }
        })
        .collect()
}

/// A level record's canonical bytes and its embedded proof.
fn open(record: &Record) -> Result<(Vec<u8>, RecordProof), &'static str> {
    let opened = envelope::open(&record.value).ok_or("malformed envelope")?;
    let proof = opened.proof.ok_or("no embedded proof")?.to_owned();
    Ok((adversary::canonical(record), proof))
}

/// `record`'s proof, its stored path — exactly the siblings below the
/// level's anchor row — completed with the rebuilt tree's siblings above
/// it and walked to the committed root on its own.
fn open_and_check(level: &Level, record: &Record) -> Result<RecordProof, &'static str> {
    let (canonical, mut proof) = open(record)?;
    if let ChainPosition::Newest { audit_path, .. } = &mut proof.chain {
        let tree = level.tree.as_ref().ok_or("the level rebuilds to another tree")?;
        let (leaf, n) = (proof.leaf_index as usize, tree.leaf_count());
        let paired = |h: u32| ((leaf >> h) ^ 1) < n.div_ceil(1 << h);
        let below = (0..level.anchor_row).filter(|&h| paired(h)).count();
        if leaf >= n || audit_path.len() != below {
            return Err("the stored path does not stop at the anchor row");
        }
        audit_path.extend_from_slice(&tree.audit_path(leaf)[below..]);
    }
    proof.verify(&level.commitment, &canonical).map_err(|_| "proof does not reach the root")?;
    Ok(proof)
}

fn verify_hit<'t>(level: &Level, key: &[u8], record: &'t Record) -> Verdict<'t> {
    if record.key != key {
        return Err("hit record key differs from query");
    }
    if matches!(open(record)?.1.chain, ChainPosition::Link { .. }) {
        return Err("hit is a stale version");
    }
    open_and_check(level, record).map_err(|_| "hit proof does not reach the root")?;
    Ok(Some(record))
}

fn verify_non_membership(
    level: &Level,
    key: &[u8],
    left: Option<&Record>,
    right: Option<&Record>,
) -> Result<(), &'static str> {
    let c = &level.commitment;
    if c.is_empty() {
        return match (left, right) {
            (None, None) => Ok(()),
            _ => Err("neighbors presented for an empty level"),
        };
    }
    if left.is_some_and(|rec| rec.key[..] >= *key) {
        return Err("left neighbor not below query key");
    }
    let left = left.map(|rec| open_and_check(level, rec)).transpose()?;
    if right.is_some_and(|rec| rec.key[..] <= *key) {
        return Err("right neighbor not above query key");
    }
    let right = right.map(|rec| open_and_check(level, rec)).transpose()?;
    match (left, right) {
        (Some(l), Some(r)) if r.leaf_index != l.leaf_index + 1 => {
            Err("neighbors are not adjacent leaves")
        }
        (None, Some(r)) if r.leaf_index != 0 => Err("right neighbor is not the first leaf"),
        (Some(l), None) if l.leaf_index + 1 != c.leaf_count => {
            Err("left neighbor is not the last leaf")
        }
        (None, None) => Err("no neighbors for a non-empty level"),
        _ => Ok(()),
    }
}

/// By level, the chain heads stored at its leaf 0 and at its last leaf:
/// their keys are the level's fence (`None`: no fence).
type Edges = Vec<Option<(Record, Record)>>;

/// Each committed level's edge leaves, found in what the level stores and
/// each walked to the committed root on its own.
fn edges(store: &ElsmP2, levels: &[Level]) -> Edges {
    let head_at = |level: &Level, records: &[Record], leaf: u64| {
        let head = records.iter().find(|record| {
            open_and_check(level, record).is_ok_and(|proof| {
                proof.leaf_index == leaf && matches!(proof.chain, ChainPosition::Newest { .. })
            })
        });
        head.cloned()
    };
    levels
        .iter()
        .map(|level| {
            let c = &level.commitment;
            if c.is_empty() {
                return None;
            }
            let records = store.db().level_record_dump(c.level as usize).unwrap();
            Some((head_at(level, &records, 0)?, head_at(level, &records, c.leaf_count - 1)?))
        })
        .collect()
}

/// Whether `key` lies outside a level's edges.
fn outside(edges: &Edges, level: i64, key: &[u8]) -> bool {
    let edge = usize::try_from(level).ok().and_then(|level| edges.get(level)?.as_ref());
    edge.is_some_and(|(first, last)| key < &first.key[..] || key > &last.key[..])
}

/// The reference GET verifier against the store's current `levels` and
/// the fences of `edges` (every trace here is taken from, and checked
/// against, the newest epoch). Counts the levels it passed over in
/// `fenced`.
fn reference_get<'t>(
    store: &ElsmP2,
    (committed, edges): (&[Level], &Edges),
    key: &[u8],
    trace: &'t GetTrace,
    fenced: &mut usize,
) -> Verdict<'t> {
    if let Some(record) = &trace.memtable {
        return Ok(Some(record));
    }
    let levels = store.trusted().max_levels();
    let stacked = store.trusted().is_stacked();
    let mut expected: i64 = if stacked { levels as i64 } else { 1 };
    let step = if stacked { -1 } else { 1 };
    let outside = |level| outside(edges, level, key);
    let mut hit = None;
    for search in &trace.levels {
        if hit.is_some() {
            return Err("a level searched after the hit");
        }
        while outside(expected) {
            *fenced += 1;
            expected += step;
        }
        if search.level as i64 != expected {
            return Err("level skipped, or presented though fenced");
        }
        let level = &committed[expected as usize];
        match &search.outcome {
            LevelOutcome::Empty if !level.commitment.is_empty() => return Err("hidden level"),
            LevelOutcome::Empty => {}
            LevelOutcome::Hit(record) => hit = verify_hit(level, key, record)?,
            LevelOutcome::Miss { left, right } => {
                verify_non_membership(level, key, left.as_ref(), right.as_ref())?
            }
        }
        expected += step;
    }
    if hit.is_none() {
        while outside(expected) {
            *fenced += 1;
            expected += step;
        }
        let exhausted = if stacked { expected < 1 } else { expected as usize > levels };
        if !exhausted {
            return Err("a level was not accounted for");
        }
    }
    Ok(hit)
}

/// 150 keys, each written twice a round (every 7th write a delete), in
/// three rounds each closed by a flush: chains of versions within a level
/// and across levels. A `write_buffer_bytes` below a round's size flushes
/// within rounds too.
fn store(strategy: CompactionStrategyKind, write_buffer_bytes: usize) -> ElsmP2 {
    store_on(Platform::with_defaults(), strategy, write_buffer_bytes)
}

/// [`store`] on `platform`.
fn store_on(
    platform: std::sync::Arc<Platform>,
    strategy: CompactionStrategyKind,
    write_buffer_bytes: usize,
) -> ElsmP2 {
    let options = P2Options {
        write_buffer_bytes,
        level1_max_bytes: 4 * 1024,
        level_multiplier: 4,
        max_levels: 4,
        compaction_strategy: strategy,
        ..P2Options::default()
    };
    let store = ElsmP2::open(platform, options).unwrap();
    for round in 0..3u32 {
        for i in 0..300u32 {
            let k = format!("key{:04}", (i * 13 + round) % 150).into_bytes();
            if (i + round) % 7 == 0 {
                store.delete(&k).unwrap();
            } else {
                store.put(&k, format!("r{round}-{i}").as_bytes()).unwrap();
            }
        }
        store.db().flush().unwrap();
    }
    store
}

/// Every stored key, and a key in every gap of every level: before its
/// first leaf, between each adjacent pair, after its last.
fn probes(stored: &[Vec<Record>]) -> Vec<Vec<u8>> {
    let mut probes = Vec::new();
    for records in stored {
        let mut keys: Vec<&[u8]> = records.iter().map(|r| &r.key[..]).collect();
        keys.dedup();
        probes.push(keys[0][..keys[0].len() - 1].to_vec());
        for key in &keys {
            probes.extend([key.to_vec(), [key, &[0][..]].concat()]);
        }
        probes.push([keys[keys.len() - 1], &[0xff][..]].concat());
    }
    probes.sort();
    probes.dedup();
    probes
}

/// The hit of `trace`, with its level.
fn hit_in(trace: &GetTrace) -> Option<(usize, &Record)> {
    trace.levels.iter().find_map(|search| match &search.outcome {
        LevelOutcome::Hit(record) => Some((search.level, record)),
        _ => None,
    })
}

fn assert_agrees_with_the_reference(store: &ElsmP2) {
    let levels = store.trusted().max_levels();
    let stored: Vec<(usize, Vec<Record>)> = (1..=levels)
        .map(|level| (level, store.db().level_record_dump(level).unwrap()))
        .filter(|(_, records)| !records.is_empty())
        .collect();
    let per_level = store.db().level_records();
    assert!((2..=3).contains(&stored.len()), "two or three levels: {per_level:?}");
    let all = || stored.iter().flat_map(|(level, records)| records.iter().map(|r| (*level, r)));
    assert!(all()
        .any(|(_, r)| matches!(adversary::embedded_proof(r).chain, ChainPosition::Link { .. })));
    let older = |trace: &GetTrace| {
        let (level, hit) = hit_in(trace)?;
        let mut candidates: Vec<(usize, &Record)> =
            all().filter(|(_, r)| r.key == hit.key && r.ts < hit.ts).collect();
        candidates.sort_by_key(|(at, r)| (*at != level, std::cmp::Reverse(r.ts)));
        candidates.first().map(|(_, r)| (*r).clone())
    };
    let foreign = |trace: &GetTrace| {
        let (level, hit) = hit_in(trace)?;
        all().find(|(at, r)| *at == level && r.key != hit.key).map(|(_, r)| r.clone())
    };
    type GetMutator<'a> = Box<dyn Fn(&mut GetTrace) + 'a>;
    let mut mutators: Vec<GetMutator> = vec![
        Box::new(|t| adversary::forge_hit_value(t, b"forged")),
        Box::new(|t| adversary::splice_hit_record(t, 999_999)),
        Box::new(adversary::suppress_hit),
        Box::new(|t| {
            if let Some(stale) = older(t) {
                adversary::substitute_stale(t, stale);
            }
        }),
        Box::new(|t| {
            if let (Some(stale), Some((_, head))) = (older(t), hit_in(t)) {
                adversary::substitute_stale(t, adversary::relabel_as_newest(&stale, head));
            }
        }),
        Box::new(|t| {
            if let Some(other) = foreign(t) {
                adversary::substitute_stale(t, other);
            }
        }),
        Box::new(|t| {
            if let Some((_, hit)) = hit_in(t) {
                let fake = adversary::proofless_record(&hit.key, b"forged", hit.ts);
                adversary::substitute_stale(t, fake);
            }
        }),
        Box::new(|t| {
            if let (Some(other), Some((_, hit))) = (foreign(t), hit_in(t)) {
                let theirs = adversary::embedded_proof(&other);
                adversary::substitute_stale(t, adversary::with_proof(hit, &theirs));
            }
        }),
    ];
    for level in 1..=levels {
        mutators.push(Box::new(move |t| adversary::hide_level(t, level)));
    }

    let committed = rebuilt_levels(store);
    assert!(
        committed.iter().all(|level| level.commitment.is_empty() || level.tree.is_some()),
        "every level rebuilds to its committed tree"
    );
    let edges = edges(store, &committed);
    let stacked = store.trusted().is_stacked();
    let records: Vec<Vec<Record>> = stored.iter().map(|(_, records)| records.clone()).collect();
    let host = adversary::HostileHost::install(store.db());
    let (mut accepted, mut refused, mut two_sided, mut fenced) = (0, 0, 0, 0);
    for key in probes(&records) {
        store.get(&key).unwrap();
        let honest = host.last_get();
        two_sided += honest
            .levels
            .iter()
            .filter(|l| matches!(l.outcome, LevelOutcome::Miss { left: Some(_), right: Some(_) }))
            .count();
        let mutated = mutators.iter().map(|mutate| {
            let mut trace = honest.clone();
            mutate(&mut trace);
            trace
        });
        let presented = with_fenced_evidence(&honest, &key, &edges, stacked);
        let traces = std::iter::once(honest.clone()).chain(mutated).chain(presented);
        for trace in traces {
            let reference = reference_get(store, (&committed, &edges), &key, &trace, &mut 0);
            host.replay_get(trace.clone());
            let verified = adversary::verdict(store.get(&key));
            match (&verified, &reference) {
                (Ok(got), Ok(want)) => {
                    // The answer is the reference's record; a tombstone
                    // reads as absent.
                    let same = match (got, want) {
                        (Some(got), Some(want)) => {
                            let value = envelope::open(&want.value).expect("verified").value;
                            (got.key(), got.ts(), got.value()) == (&want.key[..], want.ts, value)
                        }
                        (None, Some(want)) => !want.kind.is_value(),
                        (got, want) => got.is_none() && want.is_none(),
                    };
                    assert!(same, "{key:?}: {got:?} verified, the reference returns {want:?}");
                    accepted += 1;
                }
                (Err(_), Err(_)) => refused += 1,
                _ => panic!("{key:?}: get {verified:?}, the reference {reference:?}"),
            }
        }
        let verdict = reference_get(store, (&committed, &edges), &key, &honest, &mut fenced);
        assert!(verdict.is_ok(), "{key:?}: an honest trace");
    }
    let layout = if stacked { "tiered" } else { "leveled" };
    println!(
        "{layout}: accepted {accepted}, refused {refused}, two-sided misses {two_sided}, \
         fenced levels {fenced}"
    );
    assert!(two_sided > 0, "a two-sided miss is exercised");
    assert!(fenced > 0, "a fenced level is exercised");
    assert!(accepted > 100 && refused > 100, "accepted {accepted}, refused {refused}");
}

/// `trace` as a verifier that knew no fence asked for it: each level the
/// fences passed over before the hit (all of them, for a miss) back in
/// search order, its edge leaf on the key's side as the one neighbour.
/// `None` when no level was passed over.
fn with_fenced_evidence(
    trace: &GetTrace,
    key: &[u8],
    edges: &Edges,
    stacked: bool,
) -> Option<GetTrace> {
    let hit = hit_in(trace).map(|(level, _)| level);
    let before_hit = |level: usize| match hit {
        None => true,
        Some(h) if stacked => level > h,
        Some(h) => level < h,
    };
    let mut levels = trace.levels.clone();
    for (level, edge) in edges.iter().enumerate() {
        let Some((first, last)) = edge else { continue };
        if !outside(edges, level as i64, key) || !before_hit(level) {
            continue;
        }
        let outcome = if key < &first.key[..] {
            LevelOutcome::Miss { left: None, right: Some(first.clone()) }
        } else {
            LevelOutcome::Miss { left: Some(last.clone()), right: None }
        };
        levels.push(LevelSearch { level, outcome });
    }
    if levels.len() == trace.levels.len() {
        return None;
    }
    levels.sort_by(|a, b| if stacked { b.level.cmp(&a.level) } else { a.level.cmp(&b.level) });
    Some(GetTrace { levels, ..trace.clone() })
}

#[test]
fn leveled_gets_verify_as_the_reference_does() {
    let store = store(CompactionStrategyKind::Leveled, 4 * 1024);
    assert!(!store.trusted().is_stacked());
    assert_agrees_with_the_reference(&store);
}

#[test]
fn tiered_gets_verify_as_the_reference_does() {
    let store = store(CompactionStrategyKind::Tiered, 1 << 20);
    assert!(store.trusted().is_stacked(), "tiered runs stack: the freshest has the highest index");
    assert_agrees_with_the_reference(&store);
}

/// On an enclave whose EPC keeps crowns of rows up to 4 nodes wide, every
/// level is taller than its crown: stored paths hold siblings below the
/// anchor row, and the reference completes them with rows above it.
#[test]
fn leveled_gets_under_narrow_crowns_verify_as_the_reference_does() {
    let cost = elsm_repro::sgx_sim::CostModel::paper_defaults().with_epc_bytes(4 * 2048 * 64);
    let store = store_on(Platform::new(cost), CompactionStrategyKind::Leveled, 4 * 1024);
    assert_eq!(store.trusted().crown_row_max(), 4);
    assert!(store.trusted().commitments().iter().any(|c| c.leaf_count > 4));
    assert_agrees_with_the_reference(&store);
}

// ----- scans --------------------------------------------------------------

/// Scan windows span fewer than this many probes (keys and gaps): in
/// debug builds, which run the same checks slower, each probe alone and
/// with the next — every shape of a range's two ends, stored or not, at
/// every key — and in release every range of up to six keys.
const WINDOW_WIDTH: usize = if cfg!(debug_assertions) { 2 } else { 13 };

/// The reference's answer to a scan: the verified records, or why it
/// refused.
type ScanVerdict<'t> = Result<Vec<&'t Record>, &'static str>;

/// One level of a scan, the slow way: the boundaries and each in-range
/// key's newest version — the heads — each root-walked on its own; the
/// older versions of each key checked link by link down its head's chain;
/// the heads' leaves consecutive; and each end of the run anchored by a
/// boundary outside the range, by the tree's edge, or by an in-range record
/// whose key is that end of the range. The in-range heads go to `answers`.
/// Says whether an end anchored itself.
fn reference_level<'t>(
    level: &Level,
    (from, to): (&[u8], &[u8]),
    range: &'t LevelRange,
    answers: &mut Vec<&'t Record>,
) -> Result<bool, &'static str> {
    let c = &level.commitment;
    if range.empty {
        return if c.is_empty() { Ok(false) } else { Err("hidden level") };
    }
    let (left, records, right) = (range.left.as_ref(), &range.records[..], range.right.as_ref());
    if c.is_empty() {
        return match (records, left, right) {
            ([], None, None) => Ok(false),
            _ => Err("records presented for an empty level"),
        };
    }
    if left.is_some_and(|rec| rec.key[..] >= *from) {
        return Err("left boundary not below the range");
    }
    if right.is_some_and(|rec| rec.key[..] <= *to) {
        return Err("right boundary not above the range");
    }
    let mut leaves = Vec::new();
    if let Some(rec) = left {
        leaves.push(open_and_check(level, rec)?.leaf_index);
    }
    let mut at = 0;
    while at < records.len() {
        let head = &records[at];
        if head.key[..] < *from || head.key[..] > *to {
            return Err("record outside the range");
        }
        if at > 0 && records[at - 1].key >= head.key {
            return Err("records not in ascending key order");
        }
        let proof = open_and_check(level, head)?;
        leaves.push(proof.leaf_index);
        answers.push(head);
        let (mut expected, mut position) = (*proof.chain.older_digest(), 1);
        at += 1;
        while at < records.len() && records[at].key == head.key {
            if records[at].ts >= records[at - 1].ts {
                return Err("versions not in descending timestamp order");
            }
            let (canonical, link) = open(&records[at])?;
            let ChainPosition::Link { position: claimed, older_digest } = link.chain else {
                return Err("an older version claims to be its key's newest");
            };
            let header = (link.level, link.leaf_index, link.leaf_count);
            if claimed != position
                || header != (proof.level, proof.leaf_index, proof.leaf_count)
                || chain_link(&canonical, &older_digest) != expected
            {
                return Err("a version is not the next link of its chain");
            }
            (expected, position) = (older_digest, position + 1);
            at += 1;
        }
    }
    if let Some(rec) = right {
        leaves.push(open_and_check(level, rec)?.leaf_index);
    }
    let (Some(&lo), Some(&hi)) = (leaves.first(), leaves.last()) else {
        return Err("no leaves presented for a non-empty level");
    };
    if leaves.windows(2).any(|pair| pair[1] != pair[0] + 1) {
        return Err("the heads are not consecutive leaves");
    }
    let is_end = |record: Option<&Record>, end: &[u8]| record.is_some_and(|r| r.key[..] == *end);
    let (lo_self, hi_self) = (is_end(records.first(), from), is_end(records.last(), to));
    if left.is_none() && lo != 0 && !lo_self {
        return Err("range start not anchored");
    }
    if right.is_none() && hi + 1 != c.leaf_count && !hi_self {
        return Err("range end not anchored");
    }
    Ok((left.is_none() && lo_self) || (right.is_none() && hi_self))
}

/// The reference SCAN verifier against the store's current `levels` and
/// the fences of `edges`: the levels in order, each whose range misses
/// `[from, to]` passed over and carrying nothing, every other level checked
/// by [`reference_level`]; the answer is the newest version of each key of
/// the memtable's and the levels' records, tombstones left out. Counts the
/// levels with an end anchored by its own key in `self_anchored`.
fn reference_scan<'t>(
    store: &ElsmP2,
    (committed, edges): (&[Level], &Edges),
    (from, to): (&[u8], &[u8]),
    trace: &'t ScanTrace,
    self_anchored: &mut usize,
) -> ScanVerdict<'t> {
    let fenced = |level: usize| {
        let edge = edges.get(level).and_then(Option::as_ref);
        edge.is_some_and(|(first, last)| to < &first.key[..] || from > &last.key[..])
    };
    let mut answers: Vec<&Record> = trace.memtable.iter().collect();
    let mut expected = 1;
    for range in &trace.levels {
        while fenced(expected) {
            expected += 1;
        }
        if range.level != expected {
            return Err("level skipped, or presented though fenced");
        }
        let level = committed.get(expected).ok_or("a level the enclave does not track")?;
        *self_anchored += usize::from(reference_level(level, (from, to), range, &mut answers)?);
        expected += 1;
    }
    while fenced(expected) {
        expected += 1;
    }
    if expected <= store.trusted().max_levels() {
        return Err("a level was not accounted for");
    }
    // Trusted memory first: it wins a tie.
    answers.sort_by(|a, b| a.key.cmp(&b.key).then(b.ts.cmp(&a.ts)));
    answers.dedup_by(|later, first| later.key == first.key);
    answers.retain(|record| record.kind.is_value());
    Ok(answers)
}

/// The rows, bottom up, whose siblings `leaf`'s stored path holds: each row
/// below the level's anchor row in which its node is paired.
fn path_rows(level: &Level, leaf: u64) -> Vec<u32> {
    let n = level.commitment.leaf_count;
    (0..level.anchor_row).filter(|&h| ((leaf >> h) ^ 1) < n.div_ceil(1 << h)).collect()
}

/// Whether the scan's walk of the run `lo..=hi` reads the sibling at `row`
/// of the path stored with the run's `end`: the left sibling of the run's
/// first node where that node is a right child, the right sibling of its
/// last where that is a left child (DESIGN.md §5, "The walk"). A one-leaf
/// run's path is read whole.
fn walk_reads(end: adversary::ScanEnd, (lo, hi): (u64, u64), row: u32) -> bool {
    match end {
        adversary::ScanEnd::Lo => (lo >> row) & 1 == 1 || lo == hi,
        adversary::ScanEnd::Hi => (hi >> row) & 1 == 0 || lo == hi,
    }
}

/// The first and last leaf of the run a level presents.
fn run_leaves(range: &LevelRange) -> Option<(u64, u64)> {
    let leaf = |r: &Record| adversary::embedded_proof(r).leaf_index;
    let first = range.left.as_ref().or(range.records.first())?;
    let last = range.right.as_ref().or(range.records.last())?;
    Some((leaf(first), leaf(last)))
}

/// The newest records of the keys of `records` (one level's, in key order)
/// just below `from` and just above `to`.
fn neighbours(records: &[Record], (from, to): (&[u8], &[u8])) -> (Option<Record>, Option<Record>) {
    let below = records.iter().rev().find(|r| &r.key[..] < from);
    let left = below.and_then(|last| records.iter().find(|r| r.key == last.key));
    (left.cloned(), records.iter().find(|r| &r.key[..] > to).cloned())
}

/// A scan trace move that applies `edit` to `level`'s slice.
fn at_level(level: usize, edit: impl Fn(&mut LevelRange) + 'static) -> Box<dyn Fn(&mut ScanTrace)> {
    Box::new(move |t| t.levels.iter_mut().filter(|l| l.level == level).for_each(&edit))
}

/// A scan mutator: what it is, and the move.
type ScanMove = (&'static str, Box<dyn Fn(&mut ScanTrace)>);

/// The moves made on an honest scan trace of `[from, to]`: each
/// `HostileHost::on_scan` move of `support::adversary` at each level it
/// bites — a key dropped, the run truncated, one byte flipped in each
/// sibling of either end's stored path — and the two end-rule moves: each
/// boundary dropped, and each honest neighbour the trace leaves out added.
fn scan_moves(
    honest: &ScanTrace,
    (from, to): (&[u8], &[u8]),
    stored: &[(usize, Vec<Record>)],
    committed: &[Level],
) -> Vec<ScanMove> {
    let mut moves: Vec<ScanMove> = Vec::new();
    for range in honest.levels.iter().filter(|range| !range.empty) {
        let level = range.level;
        if let Some(victim) = range.records.get(range.records.len() / 2) {
            let key = victim.key.clone();
            moves.push((
                "drop_from_scan",
                Box::new(move |t| adversary::drop_from_scan(t, level, &key)),
            ));
        }
        for keep in [0, 1] {
            moves.push((
                "truncate_scan",
                Box::new(move |t| adversary::truncate_scan(t, level, keep)),
            ));
        }
        if let Some((lo, hi)) = run_leaves(range) {
            for (end, leaf) in [(adversary::ScanEnd::Lo, lo), (adversary::ScanEnd::Hi, hi)] {
                for (entry, row) in path_rows(&committed[level], leaf).into_iter().enumerate() {
                    let name = if walk_reads(end, (lo, hi), row) {
                        "read sibling"
                    } else {
                        "unread sibling"
                    };
                    let byte = 32 * entry + 5;
                    moves.push((
                        name,
                        Box::new(move |t| adversary::corrupt_scan_end_path(t, level, end, byte)),
                    ));
                }
            }
        }
        moves.push(("drop left", at_level(level, |l| l.left = None)));
        moves.push(("drop right", at_level(level, |l| l.right = None)));
        let records = &stored.iter().find(|(at, _)| *at == level).expect("a stored level").1;
        let (left, right) = neighbours(records, (from, to));
        if range.left.is_none() && left.is_some() {
            moves.push(("add left", at_level(level, move |l| l.left = left.clone())));
        }
        if range.right.is_none() && right.is_some() {
            moves.push(("add right", at_level(level, move |l| l.right = right.clone())));
        }
    }
    moves
}

/// Every window `[a, b]` of `probes` — stored keys and the gaps between
/// them — whose ends are fewer than `width` probes apart, and the window
/// over all of them.
fn windows(probes: &[Vec<u8>], width: usize) -> Vec<(&[u8], &[u8])> {
    let mut windows: Vec<(&[u8], &[u8])> = probes
        .iter()
        .enumerate()
        .flat_map(|(i, a)| probes[i..].iter().take(width).map(move |b| (&a[..], &b[..])))
        .collect();
    windows.push((&probes[0], &probes[probes.len() - 1]));
    windows
}

/// Checks every scan window's honest trace and its moves against the
/// reference; returns how many flipped siblings the scan did not read.
fn assert_scans_agree_with_the_reference(store: &ElsmP2) -> usize {
    let levels = store.trusted().max_levels();
    let stored: Vec<(usize, Vec<Record>)> = (1..=levels)
        .map(|level| (level, store.db().level_record_dump(level).unwrap()))
        .filter(|(_, records)| !records.is_empty())
        .collect();
    let committed = rebuilt_levels(store);
    assert!(
        committed.iter().all(|level| level.commitment.is_empty() || level.tree.is_some()),
        "every level rebuilds to its committed tree"
    );
    let edges = edges(store, &committed);
    let records: Vec<Vec<Record>> = stored.iter().map(|(_, records)| records.clone()).collect();
    let probes = probes(&records);
    let host = adversary::HostileHost::install(store.db());
    let (mut accepted, mut refused, mut unread) = (0, 0, 0);
    let mut self_anchored = 0;
    for (from, to) in windows(&probes, WINDOW_WIDTH) {
        store.scan(from, to).unwrap();
        let honest = host.last_scan();
        let verdict =
            reference_scan(store, (&committed, &edges), (from, to), &honest, &mut self_anchored);
        let want =
            verdict.unwrap_or_else(|why| panic!("{from:?}..={to:?}: an honest trace: {why}"));
        let moves = scan_moves(&honest, (from, to), &stored, &committed);
        let traces = std::iter::once(("honest", honest.clone())).chain(moves.iter().map(
            |(name, mutate)| {
                let mut trace = honest.clone();
                mutate(&mut trace);
                (*name, trace)
            },
        ));
        for (name, trace) in traces {
            let reference = reference_scan(store, (&committed, &edges), (from, to), &trace, &mut 0);
            host.replay_scan(trace.clone());
            let verified = adversary::verdict(store.scan(from, to));
            let same = |got: &[VerifiedRecord], want: &[&Record]| {
                got.len() == want.len()
                    && got.iter().zip(want).all(|(got, want)| {
                        let value = envelope::open(&want.value).expect("verified").value;
                        (got.key(), got.ts(), got.value()) == (&want.key[..], want.ts, value)
                    })
            };
            match (&verified, &reference) {
                (Ok(got), Ok(want)) => {
                    assert!(same(got, want), "{name} on {from:?}..={to:?}: {got:?} verified, the reference returns {want:?}");
                    accepted += 1;
                }
                (Err(_), Err(_)) => refused += 1,
                // The reference walks every head's whole path; the scan
                // reads only the siblings its walk needs, and answers as
                // the honest trace does.
                (Ok(got), Err(_)) if name == "unread sibling" => {
                    assert!(same(got, &want), "{name} on {from:?}..={to:?}: {got:?} verified");
                    unread += 1;
                }
                _ => panic!(
                    "{name} on {from:?}..={to:?}: scan {verified:?}, the reference {reference:?}"
                ),
            }
        }
    }
    let layout = if store.trusted().is_stacked() { "tiered" } else { "leveled" };
    println!(
        "{layout} scans: accepted {accepted}, refused {refused}, \
         self-anchored levels {self_anchored}, unread siblings {unread}"
    );
    assert!(self_anchored > 0, "a self-anchored end is exercised");
    assert!(accepted > 100 && refused > 100, "accepted {accepted}, refused {refused}");
    unread
}

#[test]
fn leveled_scans_verify_as_the_reference_does() {
    let store = store(CompactionStrategyKind::Leveled, 4 * 1024);
    assert_scans_agree_with_the_reference(&store);
}

#[test]
fn tiered_scans_verify_as_the_reference_does() {
    let store = store(CompactionStrategyKind::Tiered, 1 << 20);
    assert!(store.trusted().is_stacked());
    assert_scans_agree_with_the_reference(&store);
}

/// Under crowns of rows up to 4 nodes wide the end records' stored paths
/// hold siblings, and a flipped byte in each is a move.
#[test]
fn leveled_scans_under_narrow_crowns_verify_as_the_reference_does() {
    let cost = elsm_repro::sgx_sim::CostModel::paper_defaults().with_epc_bytes(4 * 2048 * 64);
    let store = store_on(Platform::new(cost), CompactionStrategyKind::Leveled, 4 * 1024);
    assert_eq!(store.trusted().crown_row_max(), 4);
    assert!(assert_scans_agree_with_the_reference(&store) > 0, "an unread sibling is flipped");
}
