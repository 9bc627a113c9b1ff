//! Malicious-host simulation (§3.3's threat model, made executable).
//!
//! The adversary is the host: it runs the host's software and holds its
//! storage. It controls file bytes, which (older) version of the storage
//! it presents across power cycles, and — as the code on the store's read
//! path — the trace every verified read hands the enclave. It has no other
//! way in: [`HostileHost`] sits on the engine's one host-side seam
//! ([`Interposer`]), and every attack on an answer is an ordinary `get`,
//! `scan` or routed read whose trace it observed, mutated, withheld or
//! replayed. The rest of this module builds the moves: trace mutators,
//! proof surgery and raw rewrites of stored tables.

use std::sync::{Arc, Mutex};

use bytes::Bytes;
use elsm_repro::crypto::Digest;
use elsm_repro::elsm::{AuthenticatedKv, ElsmError, ElsmP2, VerificationFailure, VerifiedRecord};
use elsm_repro::lsm_store::block::Block;
use elsm_repro::lsm_store::encoding::{put_fixed_u32, put_varint_u32};
use elsm_repro::lsm_store::{Db, GetTrace, Interposer, LevelOutcome, Record, ScanTrace};
use elsm_repro::merkle::{chain_digest, ChainPosition, MerkleTree, RecordProof};
use elsm_repro::sim_disk::SimFile;

/// A move armed for the next read of one kind: it gets the trace the
/// store captured and leaves what the enclave is handed.
type Move<T> = Box<dyn FnOnce(&mut T) + Send>;

/// The host of one store, turned hostile. Installed on the store's read
/// path, it records the trace of every verified GET and SCAN — its own
/// history, kept one deep per kind ([`HostileHost::last_get`]) — and then
/// applies the move armed for that kind of read, once. With no move armed
/// it hands the trace on untouched.
#[derive(Default)]
pub struct HostileHost {
    get_move: Mutex<Option<Move<GetTrace>>>,
    scan_move: Mutex<Option<Move<ScanTrace>>>,
    last_get: Mutex<Option<GetTrace>>,
    last_scan: Mutex<Option<ScanTrace>>,
}

impl HostileHost {
    /// Installs a hostile host on `db`'s read path.
    pub fn install(db: &Db) -> Arc<HostileHost> {
        let host = Arc::new(HostileHost::default());
        db.interpose(host.clone());
        host
    }

    /// Rewrites the next verified GET's trace with `edit`. The edit runs on
    /// the host, between the capture and the check: it may also act on the
    /// store, as a host that installs new versions under a read does.
    pub fn on_get(&self, edit: impl FnOnce(&mut GetTrace) + Send + 'static) {
        *self.get_move.lock().unwrap() = Some(Box::new(edit));
    }

    /// Rewrites the next verified SCAN's trace with `edit`.
    pub fn on_scan(&self, edit: impl FnOnce(&mut ScanTrace) + Send + 'static) {
        *self.scan_move.lock().unwrap() = Some(Box::new(edit));
    }

    /// Answers the next verified GET with `trace` in place of the one the
    /// store captured: a replay (from this host's history or another
    /// store's) or a fabrication.
    pub fn replay_get(&self, trace: GetTrace) {
        self.on_get(move |captured| *captured = trace);
    }

    /// Answers the next verified SCAN with `trace`.
    pub fn replay_scan(&self, trace: ScanTrace) {
        self.on_scan(move |captured| *captured = trace);
    }

    /// The trace the last verified GET captured, as captured.
    ///
    /// # Panics
    ///
    /// Panics if no GET has passed the host yet.
    pub fn last_get(&self) -> GetTrace {
        self.last_get.lock().unwrap().clone().expect("a GET passed the host")
    }

    /// The trace the last verified SCAN captured, as captured.
    ///
    /// # Panics
    ///
    /// Panics if no SCAN has passed the host yet.
    pub fn last_scan(&self) -> ScanTrace {
        self.last_scan.lock().unwrap().clone().expect("a SCAN passed the host")
    }
}

impl Interposer for HostileHost {
    fn get(&self, trace: &mut GetTrace) {
        *self.last_get.lock().unwrap() = Some(trace.clone());
        let edit = self.get_move.lock().unwrap().take();
        if let Some(edit) = edit {
            edit(trace);
        }
    }

    fn scan(&self, trace: &mut ScanTrace) {
        *self.last_scan.lock().unwrap() = Some(trace.clone());
        let edit = self.scan_move.lock().unwrap().take();
        if let Some(edit) = edit {
            edit(trace);
        }
    }
}

/// A read's outcome with its refusal unwrapped: `Err` holds the
/// verification failure the store refused the read with.
///
/// # Panics
///
/// Panics on any other error: an attack on an answer is refused by
/// verification, not by IO or poisoning.
pub fn verdict<T>(result: Result<T, ElsmError>) -> Result<T, VerificationFailure> {
    result.map_err(|error| match error {
        ElsmError::Verification(failure) => failure,
        other => panic!("a read refused by something other than verification: {other}"),
    })
}

/// A verified GET of `key` on `store` that its host `host` answers with
/// `trace`, with its refusal unwrapped.
pub fn replayed_get(
    store: &ElsmP2,
    host: &HostileHost,
    key: &[u8],
    trace: GetTrace,
) -> Result<Option<VerifiedRecord>, VerificationFailure> {
    host.replay_get(trace);
    verdict(store.get(key))
}

/// A verified SCAN of `[from, to]` on `store` that its host `host` answers
/// with `trace`, with its refusal unwrapped.
pub fn replayed_scan(
    store: &ElsmP2,
    host: &HostileHost,
    from: &[u8],
    to: &[u8],
    trace: ScanTrace,
) -> Result<Vec<VerifiedRecord>, VerificationFailure> {
    host.replay_scan(trace);
    verdict(store.scan(from, to))
}

/// Replaces the hit record's value bytes (query-integrity attack).
pub fn forge_hit_value(trace: &mut GetTrace, forged_value: &[u8]) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &mut search.outcome {
            record.value = elsm_repro::elsm::envelope::wrap_plain(forged_value);
        }
    }
}

/// Replaces the hit record entirely with an attacker-chosen record that
/// keeps the original (valid) embedded proof — a splice attack.
pub fn splice_hit_record(trace: &mut GetTrace, new_ts: u64) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &mut search.outcome {
            record.ts = new_ts;
        }
    }
}

/// Converts the hit at some level into a fabricated miss, presenting the
/// hit record itself as the left "neighbor" (completeness attack: a
/// legitimate record is excluded from the result).
pub fn suppress_hit(trace: &mut GetTrace) {
    for search in &mut trace.levels {
        if let LevelOutcome::Hit(record) = &search.outcome {
            let left = Some(record.clone());
            search.outcome = LevelOutcome::Miss { left, right: None };
        }
    }
}

/// Claims a searched level was empty (hides an entire level).
pub fn hide_level(trace: &mut GetTrace, level: usize) {
    for search in &mut trace.levels {
        if search.level == level {
            search.outcome = LevelOutcome::Empty;
        }
    }
}

/// Replaces the hit with an older version of the same key, using that
/// older version's own (honestly generated) proof — the paper's ⟨Z,6⟩
/// freshness attack. The caller supplies the stale record as stored at the
/// same level.
pub fn substitute_stale(trace: &mut GetTrace, stale: Record) {
    for search in &mut trace.levels {
        if matches!(search.outcome, LevelOutcome::Hit(_)) {
            search.outcome = LevelOutcome::Hit(stale.clone());
        }
    }
}

/// The proof `record` is stored with, in owned form.
///
/// # Panics
///
/// Panics if `record` carries no well-formed proof (a test-setup error).
pub fn embedded_proof(record: &Record) -> RecordProof {
    let opened = elsm_repro::elsm::envelope::open(&record.value).expect("a well-formed envelope");
    opened.proof.expect("a record with an embedded proof").to_owned()
}

/// A stored record's canonical bytes: what its chain link hashes.
///
/// # Panics
///
/// Panics if `record`'s envelope is malformed (a test-setup error).
pub fn canonical(record: &Record) -> Vec<u8> {
    let opened = elsm_repro::elsm::envelope::open(&record.value).expect("a well-formed envelope");
    let mut out = Vec::new();
    elsm_repro::elsm::envelope::append_canonical(record.view(), opened.value, &mut out);
    out
}

/// The Merkle tree a level commits to, rebuilt from the host's own copy of
/// it (`records`: key order, newest version first) the slow way: each
/// key's versions chained into its leaf by `chain_digest`. The host holds
/// every node of it, the rows above a crown's anchor row included.
pub fn level_tree(records: &[Record]) -> MerkleTree {
    let mut leaves = Vec::new();
    let mut start = 0;
    while start < records.len() {
        let key = &records[start].key;
        let end = start + records[start..].iter().take_while(|r| &r.key == key).count();
        leaves.push(chain_digest(&records[start..end].iter().map(canonical).collect::<Vec<_>>()));
        start = end;
    }
    MerkleTree::from_leaves(leaves)
}

/// Re-embeds `proof` in `record`, keeping the application value — the
/// host rewriting the proof bytes it stores.
///
/// # Panics
///
/// Panics if `record`'s envelope is malformed (a test-setup error).
pub fn with_proof(record: &Record, proof: &RecordProof) -> Record {
    let opened = elsm_repro::elsm::envelope::open(&record.value).expect("a well-formed envelope");
    let mut value = Vec::new();
    elsm_repro::elsm::envelope::append_with_proof(&mut value, opened.value, |out| {
        out.extend_from_slice(&proof.encode())
    });
    Record { value: value.into(), ..record.clone() }
}

/// Relabels an older version as its key's newest: its chain link becomes
/// a newest-position claim over the same older digest, with the audit
/// path lifted from the chain's real `head` — the strongest forgery a host
/// holding the whole level can make for a stale answer.
///
/// # Panics
///
/// Panics if `head` is not a newest version (a test-setup error).
pub fn relabel_as_newest(stale: &Record, head: &Record) -> Record {
    let ChainPosition::Newest { audit_path, .. } = embedded_proof(head).chain else {
        panic!("`head` must be its chain's newest version");
    };
    let mut proof = embedded_proof(stale);
    let older_digest = *proof.chain.older_digest();
    proof.chain = ChainPosition::Newest { older_digest, audit_path };
    with_proof(stale, &proof)
}

/// Drops one record (all its versions) from a scan's level slice — a
/// range-completeness attack.
pub fn drop_from_scan(trace: &mut ScanTrace, level: usize, key: &[u8]) {
    for l in &mut trace.levels {
        if l.level == level {
            l.records.retain(|r| r.key != key);
        }
    }
}

/// Truncates a scan's level slice after `keep` records and drops the right
/// boundary (pretends the range ended early).
pub fn truncate_scan(trace: &mut ScanTrace, level: usize, keep: usize) {
    for l in &mut trace.levels {
        if l.level == level {
            l.records.truncate(keep);
            l.right = None;
        }
    }
}

/// An end of the leaf run a scan presents at one level: the boundary
/// neighbour where the trace has one, else the first (last) in-range key's
/// newest version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The run's first leaf.
    Lo,
    /// The run's last leaf.
    Hi,
}

/// Flips one bit in the audit path stored with an end record of `level`'s
/// leaf run — the two paths the level's range proof is read from. `byte`
/// indexes the path's bytes, wrapping. A trace with no such record (or an
/// end whose path is empty) is left alone.
pub fn corrupt_scan_end_path(trace: &mut ScanTrace, level: usize, end: ScanEnd, byte: usize) {
    for l in trace.levels.iter_mut().filter(|l| l.level == level) {
        let record = match end {
            ScanEnd::Lo => l.left.as_mut().or(l.records.first_mut()),
            ScanEnd::Hi => {
                // The last key's versions end the slice, newest first.
                let last_key = l.records.last().map(|r| r.key.clone());
                let head = l.records.iter_mut().find(|r| Some(&r.key) == last_key.as_ref());
                l.right.as_mut().or(head)
            }
        };
        let Some(record) = record else { continue };
        let mut proof = embedded_proof(record);
        let ChainPosition::Newest { audit_path, .. } = &mut proof.chain else { continue };
        if audit_path.is_empty() {
            continue;
        }
        let at = byte % (32 * audit_path.len());
        let mut sibling = *audit_path[at / 32].as_bytes();
        sibling[at % 32] ^= 0x01;
        audit_path[at / 32] = Digest::from_bytes(sibling);
        *record = with_proof(record, &proof);
    }
}

/// Fabricates a record with a plain envelope (no proof at all).
pub fn proofless_record(key: &[u8], value: &[u8], ts: u64) -> Record {
    Record::put(Bytes::copy_from_slice(key), elsm_repro::elsm::envelope::wrap_plain(value), ts)
}

/// `(offset, stored length)` of every data block of a table file, read off
/// its footer and index block.
pub fn data_blocks(file: &SimFile) -> Vec<(usize, usize)> {
    let word = |at: usize| {
        let bytes = file.peek(at, 8).unwrap();
        u64::from_le_bytes(bytes[..].try_into().unwrap()) as usize
    };
    let footer = file.len() - 56;
    let index = file.peek(word(footer + 16), word(footer + 24)).unwrap();
    Block::parse(index)
        .unwrap()
        .iter()
        .map(|(_, v)| {
            let at = |i: usize| u64::from_le_bytes(v[i..i + 8].try_into().unwrap()) as usize;
            (at(0), at(8))
        })
        .collect()
}

/// Encodes block entries in the data-block format (prefix-compressed keys,
/// a restart point every 16 entries) in whatever order they come: a raw
/// writer, as a host that writes bytes and skips the builder's order check.
/// Entry `i` shares at most `shared_max[i]` bytes with the key before it
/// (any shared prefix decodes): a host rewriting an entry keeps the
/// stored entry's length where the keys allow.
fn raw_block(entries: &[(Vec<u8>, Bytes)], shared_max: &[usize]) -> Vec<u8> {
    let (mut out, mut restarts) = (Vec::new(), Vec::new());
    for (i, (key, value)) in entries.iter().enumerate() {
        if i % 16 == 0 {
            restarts.push(out.len() as u32);
        }
        let shared = shared_prefix(entries, i).min(shared_max[i]);
        put_varint_u32(&mut out, shared as u32);
        put_varint_u32(&mut out, (key.len() - shared) as u32);
        put_varint_u32(&mut out, value.len() as u32);
        out.extend_from_slice(&key[shared..]);
        out.extend_from_slice(value);
    }
    for restart in &restarts {
        put_fixed_u32(&mut out, *restart);
    }
    put_fixed_u32(&mut out, restarts.len() as u32);
    out
}

/// The bytes entry `i`'s key shares with the key before it; none at a
/// restart point.
fn shared_prefix(entries: &[(Vec<u8>, Bytes)], i: usize) -> usize {
    if i % 16 == 0 {
        return 0;
    }
    entries[i - 1].0.iter().zip(&entries[i].0).take_while(|(a, b)| a == b).count()
}

/// Rewrites a table file in place so that two adjacent records of
/// different keys inside one data block trade places — valid blocks
/// whose records are out of key order. Only the block's bytes change:
/// the pair is one whose swap keeps the block's length, away from the
/// block's ends, so the index, filter and footer still describe the file.
/// Works on the file an open store reads as well as on a closed store's.
/// Returns the pair's user keys in their new (descending) order; `None`
/// when no block of the table offers such a pair.
pub fn swap_adjacent_records(file: &SimFile) -> Option<(Vec<u8>, Vec<u8>)> {
    rewrite_adjacent_pair(file, false, |entries, i| entries.swap(i, i + 1)).map(|(a, b)| (b, a))
}

/// Rewrites a table file in place so that two adjacent versions of one
/// key inside one data block trade places: the older stored first, as
/// [`swap_adjacent_records`] does for two keys. Keys still ascend, so only
/// timestamps tell the order is wrong. Returns the user key; `None` when
/// no block of the table holds two versions of a key.
pub fn swap_adjacent_versions(file: &SimFile) -> Option<Vec<u8>> {
    rewrite_adjacent_pair(file, true, |entries, i| entries.swap(i, i + 1)).map(|(a, _)| a)
}

/// Rewrites a table file in place so that one record of a data block is
/// copied over the next record, of another key: the block holds the same
/// record twice, adjacent, and the neighbour is gone. As
/// [`swap_adjacent_records`], only the block's bytes change — the copy is
/// one that keeps the block's length, as records of one size do. Returns
/// the user key stored twice; `None` when no block offers such a pair.
pub fn duplicate_adjacent_record(file: &SimFile) -> Option<Vec<u8>> {
    rewrite_adjacent_pair(file, false, |entries, i| entries[i + 1] = entries[i].clone())
        .map(|(a, _)| a)
}

/// The user keys of the first and the last record a table file stores.
pub fn key_range(file: &SimFile) -> (Vec<u8>, Vec<u8>) {
    let blocks = data_blocks(file);
    let entries = |(offset, len): (usize, usize)| -> Vec<(Vec<u8>, Bytes)> {
        Block::parse(file.peek(offset, len).unwrap()).unwrap().iter().collect()
    };
    let user_key = |entry: &(Vec<u8>, Bytes)| entry.0[..entry.0.len() - 8].to_vec();
    let first = user_key(&entries(blocks[0])[0]);
    let last = user_key(entries(blocks[blocks.len() - 1]).last().unwrap());
    (first, last)
}

/// Rewrites table `file` in place so that its last record's user key falls
/// strictly inside the key range of `next`, the table after it in its run:
/// two tables of one level overlap. Only the last data block's bytes
/// change (the record keeps its timestamp and value, the block its
/// length), so the index, filter and footer still describe the file, and
/// the index still names the old last key. The new key is the first, in
/// byte order, of the keys made of a prefix of `next`'s first key and one
/// more byte that keep the block's length. Returns it; `None` when no such
/// key exists.
pub fn overlap_next_table(file: &SimFile, next: &SimFile) -> Option<Vec<u8>> {
    let (from, to) = key_range(next);
    let (offset, len) = *data_blocks(file).last()?;
    let block = StoredBlock::read(file, offset, len)?;
    let last = block.entries.len() - 1;
    let suffix = block.entries[last].0[block.entries[last].0.len() - 8..].to_vec();
    for cut in 0..from.len() {
        for byte in 0..=u8::MAX {
            let user_key = [&from[..cut], &[byte]].concat();
            if user_key <= from || user_key >= to {
                continue;
            }
            let mut edited = block.entries.clone();
            edited[last].0 = [&user_key[..], &suffix].concat();
            if block.overwrite(file, &edited) {
                return Some(user_key);
            }
        }
    }
    None
}

/// A data block as stored: its bytes, its entries, and how many bytes
/// each entry's key shares with the key before it.
struct StoredBlock {
    offset: usize,
    bytes: Bytes,
    entries: Vec<(Vec<u8>, Bytes)>,
    shared: Vec<usize>,
}

impl StoredBlock {
    /// The data block at `offset`; `None` when it does not parse.
    fn read(file: &SimFile, offset: usize, len: usize) -> Option<StoredBlock> {
        let bytes = file.peek(offset, len).unwrap();
        let entries: Vec<(Vec<u8>, Bytes)> = Block::parse(bytes.clone())?.iter().collect();
        let unbounded = vec![usize::MAX; entries.len()];
        assert_eq!(
            raw_block(&entries, &unbounded),
            bytes[..],
            "the raw writer writes the builder's bytes"
        );
        let shared = (0..entries.len()).map(|i| shared_prefix(&entries, i)).collect();
        Some(StoredBlock { offset, bytes, entries, shared })
    }

    /// Writes `edited` over the block, each entry sharing at most what it
    /// shared as stored, if that keeps the block's length; says whether it
    /// did.
    fn overwrite(&self, file: &SimFile, edited: &[(Vec<u8>, Bytes)]) -> bool {
        let rewritten = raw_block(edited, &self.shared);
        if rewritten.len() != self.bytes.len() {
            return false;
        }
        for (at, (old, new)) in self.bytes.iter().zip(&rewritten).enumerate() {
            if old != new {
                file.corrupt(self.offset + at, old ^ new);
            }
        }
        true
    }
}

/// Applies `edit` to the first pair `(i, i + 1)` of adjacent records — of
/// one key if `same_key`, else of different keys — in one data block (middle blocks first, away from the
/// block's ends) after which the block keeps its length, and writes the
/// edited block over the stored one. Returns the pair's user keys as they
/// were stored.
fn rewrite_adjacent_pair(
    file: &SimFile,
    same_key: bool,
    edit: impl Fn(&mut [(Vec<u8>, Bytes)], usize),
) -> Option<(Vec<u8>, Vec<u8>)> {
    let blocks = data_blocks(file);
    // Middle blocks first: a pair far from the table's ends.
    let order = (0..blocks.len()).map(|i| (i + blocks.len() / 2) % blocks.len());
    for (offset, len) in order.map(|i| blocks[i]) {
        let block = StoredBlock::read(file, offset, len)?;
        let entries = &block.entries;
        let user_key = |key: &[u8]| key[..key.len() - 8].to_vec();
        for i in 1..entries.len().saturating_sub(2) {
            let (a, b) = (user_key(&entries[i].0), user_key(&entries[i + 1].0));
            if (a == b) != same_key {
                continue;
            }
            let mut edited = entries.clone();
            edit(&mut edited, i);
            if block.overwrite(file, &edited) {
                return Some((a, b));
            }
        }
    }
    None
}
