//! Levels and sorted runs.
//!
//! Following the paper's model (§2, §5.3), each level `L1..Lq` holds one
//! sorted run, physically stored as one or more non-overlapping SSTable
//! files (Figure 3b shows a level spanning two files). `COMPACTION(Li,
//! Li+1)` merges two whole adjacent levels — the "most basic form" the
//! paper's protocol and Lemma 5.4 are stated for.
//!
//! A [`Run`] answers point lookups with *bounding neighbors* on a miss:
//! the newest records of the adjacent user keys. eLSM turns those neighbors
//! into non-membership proofs (§5.5.1: "instead of returning null …
//! eLSM-P2 returns the two neighboring records").

use std::sync::Arc;

use bytes::Bytes;
use sim_disk::FsError;

use crate::memtable::MemTable;
use crate::record::{Record, RecordView};
use crate::sstable::{walk, NeighborPolicy, TableReader};

pub use lsm_boundary::trace::{GetTrace, LevelOutcome, LevelRange, LevelSearch, ScanTrace};

/// One sorted run: non-overlapping tables in ascending key order.
#[derive(Debug)]
pub struct Run {
    tables: Vec<Arc<TableReader>>,
}

impl Run {
    /// Builds a run from tables sorted by key range.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] naming the first table that overlaps or comes
    /// before the one listed ahead of it: the host's files or manifest do
    /// not make a run.
    pub fn new(tables: Vec<Arc<TableReader>>) -> Result<Self, FsError> {
        match tables.windows(2).find(|w| w[0].meta().largest >= w[1].meta().smallest) {
            Some(w) => Err(w[1].corrupt()),
            None => Ok(Run { tables }),
        }
    }

    /// The tables of this run, in key order.
    pub fn tables(&self) -> &[Arc<TableReader>] {
        &self.tables
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.meta().file_size).sum()
    }

    /// Total record count.
    pub fn total_records(&self) -> u64 {
        self.tables.iter().map(|t| t.meta().count).sum()
    }

    /// Smallest user key of the run.
    pub fn smallest(&self) -> Option<Bytes> {
        self.tables.first().map(|t| t.meta().smallest.clone())
    }

    /// Largest user key of the run.
    pub fn largest(&self) -> Option<Bytes> {
        self.tables.last().map(|t| t.meta().largest.clone())
    }

    /// Whether the run's key range — its first table's smallest key to its
    /// last table's largest — meets `[from, to]`. A query it does not meet
    /// has nothing here to find or prove.
    pub fn meets(&self, from: &[u8], to: &[u8]) -> bool {
        let (Some(first), Some(last)) = (self.tables.first(), self.tables.last()) else {
            return false;
        };
        &first.meta().smallest[..] <= to && from <= &last.meta().largest[..]
    }

    /// Index of the table whose range covers `key`, if any.
    fn covering_table(&self, key: &[u8]) -> Option<usize> {
        let idx = self.tables.partition_point(|t| &t.meta().largest[..] < key);
        (idx < self.tables.len() && &self.tables[idx].meta().smallest[..] <= key).then_some(idx)
    }

    /// Point lookup across the run: a hit from the table covering `key` —
    /// a Bloom probe and one block — else a miss.
    ///
    /// With [`NeighborPolicy::Skip`] a miss returns no neighbors and
    /// performs no IO to find them — the unauthenticated fast path.
    /// [`NeighborPolicy::Required`] resolves both with the walk a traced
    /// scan makes over `[key, key]` ([`Run::walk`]), starting from the block
    /// the lookup read (eLSM's non-membership proof material).
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn get(&self, key: &[u8], neighbors: NeighborPolicy) -> Result<LevelOutcome, FsError> {
        let mut probed = None;
        if let Some(idx) = self.covering_table(key) {
            let (hit, block) = self.tables[idx].lookup(key)?;
            if let Some(record) = hit {
                return Ok(LevelOutcome::Hit(record));
            }
            probed = block.map(|(block_idx, block)| (idx, block_idx, block));
        }
        Ok(match neighbors {
            NeighborPolicy::Skip => LevelOutcome::Miss { left: None, right: None },
            NeighborPolicy::Required => {
                let Walk { left, right, .. } = walk(&self.tables, key, key, neighbors, probed)?;
                LevelOutcome::Miss { left, right }
            }
        })
    }

    /// One forward walk over the run for the records with user key in
    /// `[from, to]` (every version, their keys slices of one buffer) and,
    /// with [`NeighborPolicy::Required`], the newest records of the keys
    /// just below `from` and just above `to` where the run does not hold
    /// that end key — a level's evidence for a range (§5.4) or a miss
    /// (§5.5.1). Each block is read at most once;
    /// with [`NeighborPolicy::Skip`] only the blocks holding the range are.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn walk(&self, from: &[u8], to: &[u8], neighbors: NeighborPolicy) -> Result<Walk, FsError> {
        walk(&self.tables, from, to, neighbors, None)
    }

    /// Streams every record of the run through `f` in key order, one
    /// table at a time.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when a block fails to read or decode; records
    /// before it have been passed to `f`.
    pub fn for_each_record(&self, mut f: impl FnMut(RecordView<'_>)) -> Result<(), FsError> {
        for t in &self.tables {
            let mut records = t.iter()?;
            while records.advance()? {
                f(records.view());
            }
        }
        Ok(())
    }
}

/// An immutable snapshot of the store's on-disk state: the level runs plus
/// the frozen memtable being flushed (if a flush is in flight), tagged
/// with a monotonically increasing **epoch**.
///
/// Versions are copy-on-write, LevelDB-style: flush and compaction build a
/// new `Version` and swap it in atomically; readers clone the current
/// `Arc<Version>` once and then search bloom filters, indexes and blocks
/// with **no store lock held**. eLSM verifies each trace against the level
/// commitments published for the trace's epoch, so concurrent
/// flush/compaction installs can never fail an honest read (§5.5.2's
/// guarantee without §5.5.2's mutex).
#[derive(Debug)]
pub struct Version {
    epoch: u64,
    imm: Option<Arc<MemTable>>,
    /// `levels[0]` is unused; `levels[i]` holds level `i`'s run.
    levels: Vec<Option<Arc<Run>>>,
}

impl Version {
    /// Builds a version (internal: the store installs these).
    pub(crate) fn new(
        epoch: u64,
        imm: Option<Arc<MemTable>>,
        levels: Vec<Option<Arc<Run>>>,
    ) -> Self {
        Version { epoch, imm, levels }
    }

    /// A fresh, empty version at epoch 0 with `max_levels` on-disk levels.
    pub(crate) fn empty(max_levels: usize) -> Self {
        Version { epoch: 0, imm: None, levels: (0..=max_levels).map(|_| None).collect() }
    }

    /// Derives a successor version with the same levels but a new frozen
    /// memtable state.
    pub(crate) fn with_imm(&self, epoch: u64, imm: Option<Arc<MemTable>>) -> Self {
        Version { epoch, imm, levels: self.levels.clone() }
    }

    /// The version's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen memtable currently being flushed, if any. Its records
    /// live in trusted enclave memory, exactly like the live memtable's.
    pub fn imm(&self) -> Option<&Arc<MemTable>> {
        self.imm.as_ref()
    }

    /// The level runs (`levels()[0]` is unused).
    pub fn levels(&self) -> &[Option<Arc<Run>>] {
        &self.levels
    }

    /// The run of one level, if present.
    pub fn level(&self, level: usize) -> Option<&Arc<Run>> {
        self.levels.get(level).and_then(|l| l.as_ref())
    }
}

/// What one walk over a run found ([`Run::walk`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Walk {
    /// Newest record of the greatest user key `< from`; none when the run
    /// holds `from`, which anchors the range's start itself.
    pub left: Option<Record>,
    /// All records (every version) in `[from, to]`.
    pub records: Vec<Record>,
    /// Newest record of the smallest user key `> to`; none when the run
    /// holds `to`.
    pub right: Option<Record>,
}
