//! Read traces: what the engine's read path found, level by level — the
//! records and miss neighbours the enclave verifies an answer from (§5.5.1).

use crate::record::Record;

/// Outcome of searching one level during a traced GET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelOutcome {
    /// The level holds a record for the key (possibly a tombstone).
    Hit(Record),
    /// The level has no record for the key; bounding neighbors returned.
    Miss {
        /// Newest record of the greatest smaller user key.
        left: Option<Record>,
        /// Newest record of the smallest larger user key.
        right: Option<Record>,
    },
    /// The level currently holds no run at all.
    Empty,
}

/// One level's result within a [`GetTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSearch {
    /// Level number (1-based; 0 is the in-enclave memtable).
    pub level: usize,
    /// What the search found.
    pub outcome: LevelOutcome,
}

/// Full account of a point query: which levels were searched and what each
/// returned. This is the interface eLSM's middleware consumes to build
/// query proofs without modifying the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetTrace {
    /// Epoch of the store version the trace was collected against. The
    /// verifier checks the trace against the level commitments published
    /// for exactly this epoch.
    pub epoch: u64,
    /// Record found in the memtable (trusted memory), if any.
    pub memtable: Option<Record>,
    /// Per-level outcomes, in search order. Search stops at the first hit
    /// (the paper's early-stop, §5.3); a run whose key range does not hold
    /// the key (`Run::meets`) has no entry.
    pub levels: Vec<LevelSearch>,
}

impl GetTrace {
    /// The record that answers the query (newest visible), if any: the
    /// memtable's, else the hit level's. A tombstone is an answer too; the
    /// caller reads it as absent.
    pub fn answer(&self) -> Option<&Record> {
        self.memtable.as_ref().or_else(|| {
            self.levels.iter().find_map(|search| match &search.outcome {
                LevelOutcome::Hit(record) => Some(record),
                _ => None,
            })
        })
    }
}

/// One level's slice of a traced SCAN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelRange {
    /// Level number.
    pub level: usize,
    /// Whether the level held no run.
    pub empty: bool,
    /// All records (every version) in `[from, to]` at this level.
    pub records: Vec<Record>,
    /// Newest record of the greatest user key `< from` (completeness edge);
    /// none where the level holds `from`, which anchors that end itself.
    pub left: Option<Record>,
    /// Newest record of the smallest user key `> to`; none where the level
    /// holds `to`.
    pub right: Option<Record>,
}

/// Full account of a range query across memtable and levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanTrace {
    /// Epoch of the store version the trace was collected against.
    pub epoch: u64,
    /// Matching records from the memtable (live and frozen — both are
    /// trusted enclave memory).
    pub memtable: Vec<Record>,
    /// Per-level slices, every level included (no early stop for ranges —
    /// §5.4: "it iterates through all levels") but a run whose key range
    /// the query does not meet (`Run::meets`).
    pub levels: Vec<LevelRange>,
}

impl ScanTrace {
    /// The scan's result: of everything the trace presents, the newest
    /// version of each key, tombstones (and the keys they hide) left out,
    /// in key order.
    pub fn merged(&self) -> Vec<&Record> {
        let presented = self.levels.iter().map(|l| l.records.len()).sum::<usize>();
        let mut all = Vec::with_capacity(self.memtable.len() + presented);
        all.extend(self.memtable.iter().chain(self.levels.iter().flat_map(|l| &l.records)));
        all.sort_by(|a, b| a.key.cmp(&b.key).then(b.ts.cmp(&a.ts)));
        all.dedup_by(|later, first| later.key == first.key);
        all.retain(|r| r.kind.is_value());
        all
    }
}
