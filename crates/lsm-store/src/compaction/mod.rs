//! Pluggable compaction: strategies, jobs, and the wave scheduler model.
//!
//! Compaction is rebuilt here as a subsystem (ROADMAP item 3). A
//! [`CompactionStrategy`] inspects an immutable [`LevelsView`] of the
//! current [`Version`] and proposes
//! **non-overlapping** [`CompactionJob`]s — jobs whose input/output level
//! sets are pairwise disjoint, so the store can merge several of them
//! concurrently on worker threads against one pinned base version and
//! install each output as its own epoch-versioned swap. Selection and
//! install run under the maintenance mutex; the merge IO does not.
//!
//! Two strategies ship:
//!
//! * [`Leveled`] — the store's original behavior,
//!   extracted: whole-level rolling merges `COMPACTION(Li, Li+1)` when a
//!   level exceeds its geometric budget (the paper's §5.3 model);
//! * [`Tiered`] — size-tiered (STCS): flushed runs stack
//!   upward, and groups of similar-sized adjacent runs merge into the
//!   group's oldest slot, trading read fan-out for a much lower write
//!   amplification (the knob Figure 7 sweeps).
//!
//! Jobs are **strategy-deterministic**: the same view and options always
//! produce the same job list, which is what lets replicas replay a
//! primary's shipped job descriptions bit-identically instead of
//! re-deciding compaction locally.

pub mod leveled;
pub mod tiered;

use crate::encoding::{get_fixed_u64, put_fixed_u64};
use crate::options::Options;
use crate::version::Version;

pub use leveled::Leveled;
pub use tiered::Tiered;

/// One unit of compaction work: merge every run of `input_levels` into a
/// single run installed at `output_level`.
///
/// `input_levels` is ascending and always contains `output_level`. Two
/// jobs of one wave never share a level, which is the scheduler's
/// non-overlap invariant: concurrent jobs read and replace disjoint
/// slots of the base version, so their installs commute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionJob {
    /// Levels whose runs are merged (ascending; includes `output_level`).
    pub input_levels: Vec<usize>,
    /// Level the merged run installs at (the group's oldest slot).
    pub output_level: usize,
    /// Whether tombstones (and the versions they shadow) may be purged:
    /// true only when the job includes the oldest data in the store, so
    /// no older level could still hold a shadowed version (§5.4).
    pub purge: bool,
}

impl CompactionJob {
    /// Serializes the job (fixed-width, for the replication wire format).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_fixed_u64(out, self.output_level as u64);
        put_fixed_u64(out, u64::from(self.purge));
        put_fixed_u64(out, self.input_levels.len() as u64);
        for &level in &self.input_levels {
            put_fixed_u64(out, level as u64);
        }
    }

    /// Decodes a job serialized by [`CompactionJob::encode`]; `None` on a
    /// malformed buffer (trailing bytes included).
    pub fn decode(bytes: &[u8]) -> Option<CompactionJob> {
        let output_level = get_fixed_u64(bytes, 0)? as usize;
        let purge = match get_fixed_u64(bytes, 8)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let levels = exactly_n_u64s(bytes.get(24..)?, get_fixed_u64(bytes, 16)?)?;
        let input_levels = levels.into_iter().map(|level| level as usize).collect();
        Some(CompactionJob { input_levels, output_level, purge })
    }
}

/// The `n` fixed u64s that `body` must be, no more and no less. `n` rides
/// in bytes the host controls: it is compared with the buffer's length,
/// never multiplied unchecked and never reserved from.
fn exactly_n_u64s(body: &[u8], n: u64) -> Option<Vec<u64>> {
    if n.checked_mul(8)? != body.len() as u64 {
        return None;
    }
    Some(body.chunks_exact(8).filter_map(|word| get_fixed_u64(word, 0)).collect())
}

/// A value-log garbage collection: one merge job run with the named
/// victim files' live entries rewritten into the active log file.
///
/// GC reuses the compaction machinery wholesale — the merge walks pointer
/// records anyway, so rewriting the ones that land in victim files costs
/// one extra read+append per live entry. Like [`CompactionJob`], the
/// description ships to replicas verbatim
/// ([`ReplicationEvent::VlogGc`](crate::events::ReplicationEvent::VlogGc))
/// so both sides rewrite identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlogGcJob {
    /// The merge to run (selected by the strategy's major/minor logic).
    pub job: CompactionJob,
    /// Value-log file numbers whose live entries the merge rewrites; the
    /// files are deleted after the merge installs.
    pub rewrite_files: Vec<u64>,
}

impl VlogGcJob {
    /// Serializes the GC description (for the replication wire format).
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.job.encode(out);
        put_fixed_u64(out, self.rewrite_files.len() as u64);
        for &no in &self.rewrite_files {
            put_fixed_u64(out, no);
        }
    }

    /// Decodes bytes written by [`VlogGcJob::encode`]; `None` on a
    /// malformed buffer (trailing bytes included).
    pub fn decode(bytes: &[u8]) -> Option<VlogGcJob> {
        // The inner job is self-describing: its length is 24 + 8 * n_levels.
        let n_levels = get_fixed_u64(bytes, 16)?;
        let job_len = usize::try_from(n_levels.checked_mul(8)?.checked_add(24)?).ok()?;
        let job = CompactionJob::decode(bytes.get(..job_len)?)?;
        let rest = bytes.get(job_len..)?;
        let rewrite_files = exactly_n_u64s(rest.get(8..)?, get_fixed_u64(rest, 0)?)?;
        Some(VlogGcJob { job, rewrite_files })
    }
}

/// Where a memtable flush lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPlan {
    /// Level the frozen memtable merges into.
    pub target: usize,
    /// Whether the run already at `target` joins the merge (leveled's
    /// rolling merge) or the flush stacks a fresh run there (tiered).
    pub merge_existing: bool,
}

/// An immutable byte-size view of a version's levels, the only state a
/// strategy sees. Index = level (0 unused); `None` = empty slot.
#[derive(Debug, Clone)]
pub struct LevelsView {
    levels: Vec<Option<u64>>,
}

impl LevelsView {
    /// Snapshot of a version's on-disk level sizes.
    pub fn from_version(version: &Version) -> Self {
        let mut levels = vec![None];
        for level in 1..version.levels().len() {
            levels.push(version.level(level).map(|r| r.total_bytes()));
        }
        LevelsView { levels }
    }

    /// Number of level slots (including the unused slot 0).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True when no level holds a run.
    pub fn is_empty(&self) -> bool {
        self.non_empty().is_empty()
    }

    /// Bytes at `level`, `None` for an empty (or out-of-range) slot.
    pub fn bytes(&self, level: usize) -> Option<u64> {
        self.levels.get(level).copied().flatten()
    }

    /// Ascending list of non-empty levels.
    pub fn non_empty(&self) -> Vec<usize> {
        (1..self.levels.len()).filter(|&l| self.levels[l].is_some()).collect()
    }

    /// The highest non-empty level, if any.
    pub fn highest_non_empty(&self) -> Option<usize> {
        (1..self.levels.len()).rev().find(|&l| self.levels[l].is_some())
    }
}

/// A compaction policy: decides where flushes land and which
/// non-overlapping merge jobs to run against a given view.
///
/// Implementations must be **deterministic** functions of `(view,
/// options)` — replicas rely on replaying the primary's job stream
/// against the same state, and the debt gauge re-runs selection.
pub trait CompactionStrategy: Send + Sync + std::fmt::Debug {
    /// The strategy's display name (used in bench labels).
    fn name(&self) -> &'static str;

    /// Whether runs stack upward (freshest at the highest slot), which
    /// reverses the point-read search order.
    fn stacked(&self) -> bool;

    /// Where the next memtable flush lands on `view`.
    fn flush_plan(&self, view: &LevelsView, opts: &Options) -> FlushPlan;

    /// Non-overlapping jobs to run against `view` (possibly empty). The
    /// scheduler executes one returned wave concurrently, installs in
    /// job order, then re-picks until this returns no work.
    fn pick_jobs(&self, view: &LevelsView, opts: &Options) -> Vec<CompactionJob>;

    /// One merge-everything pass: every non-empty level into a single
    /// run, tombstones purged (major compaction). `None` when fewer than
    /// two runs exist.
    fn major_job(&self, view: &LevelsView, opts: &Options) -> Option<CompactionJob>;
}

/// The strategy selector carried by [`Options`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactionStrategyKind {
    /// Whole-level rolling merges (the store's original behavior).
    Leveled,
    /// Size-tiered (STCS).
    Tiered,
}

/// Compaction subsystem configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionConfig {
    /// Which strategy picks jobs.
    pub strategy: CompactionStrategyKind,
    /// Concurrent merge jobs per wave. 1 runs jobs inline under the
    /// maintenance serial class (the pre-subsystem behavior); higher
    /// values run each job on its own worker thread charged to a
    /// rotating [`sgx_sim::SerialClass::compaction_slot`], letting the
    /// virtual-time model overlap merges across clients. Capped by the
    /// number of jobs a wave actually yields; ≥ 4 adds nothing (four
    /// worker slots exist).
    pub parallelism: usize,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        CompactionConfig { strategy: CompactionStrategyKind::Leveled, parallelism: 1 }
    }
}

impl CompactionConfig {
    /// Instantiates the configured strategy.
    pub fn strategy(&self) -> Box<dyn CompactionStrategy> {
        match &self.strategy {
            CompactionStrategyKind::Leveled => Box::new(Leveled),
            CompactionStrategyKind::Tiered => Box::new(Tiered),
        }
    }
}

/// Instantaneous backlog gauge: how far the store is from its shape
/// invariant and how much work the scheduler has queued up.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionDebt {
    /// Bytes over budget per level (index = level, 0 unused).
    pub per_level_over_bytes: Vec<u64>,
    /// Sum of the per-level overages.
    pub total_over_bytes: u64,
    /// Jobs the strategy would schedule against the current version.
    pub pending_jobs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LevelsView {
        /// Builds a view from explicit per-level sizes (index 0 is ignored).
        pub(crate) fn new(levels: Vec<Option<u64>>) -> Self {
            LevelsView { levels }
        }
    }

    fn view(sizes: &[Option<u64>]) -> LevelsView {
        let mut v = vec![None];
        v.extend_from_slice(sizes);
        LevelsView::new(v)
    }

    #[test]
    fn job_encoding_round_trips() {
        let job = CompactionJob { input_levels: vec![2, 5, 6], output_level: 2, purge: true };
        let mut bytes = Vec::new();
        job.encode(&mut bytes);
        assert_eq!(CompactionJob::decode(&bytes), Some(job));
    }

    #[test]
    fn vlog_gc_job_encoding_round_trips_and_rejects_malformed() {
        let gc = VlogGcJob {
            job: CompactionJob { input_levels: vec![1, 2, 3], output_level: 3, purge: true },
            rewrite_files: vec![4, 9],
        };
        let mut bytes = Vec::new();
        gc.encode(&mut bytes);
        assert_eq!(VlogGcJob::decode(&bytes), Some(gc.clone()));
        assert!(VlogGcJob::decode(&bytes[..bytes.len() - 1]).is_none(), "truncated");
        let mut extended = bytes;
        extended.push(0);
        assert!(VlogGcJob::decode(&extended).is_none(), "trailing bytes");

        let empty = VlogGcJob {
            job: CompactionJob { input_levels: vec![2], output_level: 2, purge: false },
            rewrite_files: vec![],
        };
        let mut bytes = Vec::new();
        empty.encode(&mut bytes);
        assert_eq!(VlogGcJob::decode(&bytes), Some(empty));

        // Counts whose byte length overflows: the inner job's level count
        // (24 + 8 * n wrapped, or panicked), then the file count.
        let mut huge_levels = bytes.clone();
        huge_levels[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(VlogGcJob::decode(&huge_levels).is_none(), "level count overflows");
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(VlogGcJob::decode(&bytes).is_none(), "file count overflows");
    }

    #[test]
    fn job_decoding_rejects_malformed() {
        let job = CompactionJob { input_levels: vec![1, 2], output_level: 2, purge: false };
        let mut bytes = Vec::new();
        job.encode(&mut bytes);
        assert!(CompactionJob::decode(&bytes[..bytes.len() - 1]).is_none(), "truncated");
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(CompactionJob::decode(&extended).is_none(), "trailing bytes");
        let mut bad_purge = bytes;
        bad_purge[8] = 7;
        assert!(CompactionJob::decode(&bad_purge).is_none(), "purge flag out of range");
        // A count whose byte length overflows (8 * n wraps to 0, so the
        // length check passed in release builds and the reservation
        // aborted; debug builds panicked on the multiplication).
        let mut huge = vec![0u8; 24];
        huge[16..].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(CompactionJob::decode(&huge).is_none(), "level count overflows");
    }

    #[test]
    fn levels_view_reports_shape() {
        let v = view(&[Some(10), None, Some(30)]);
        assert_eq!(v.len(), 4);
        assert_eq!(v.bytes(1), Some(10));
        assert_eq!(v.bytes(2), None);
        assert_eq!(v.non_empty(), vec![1, 3]);
        assert_eq!(v.highest_non_empty(), Some(3));
        assert!(view(&[None, None]).is_empty());
    }

    #[test]
    fn waves_from_any_strategy_are_disjoint() {
        let opts = Options { level1_max_bytes: 100, level_multiplier: 2, ..Options::default() };
        let big = view(&[
            Some(500),
            Some(500),
            Some(500),
            Some(510),
            Some(480),
            Some(500),
            Some(490),
            Some(505),
        ]);
        for config in [
            CompactionConfig::default(),
            CompactionConfig { strategy: CompactionStrategyKind::Tiered, parallelism: 4 },
        ] {
            let strategy = config.strategy();
            let jobs = strategy.pick_jobs(&big, &opts);
            let mut seen = std::collections::HashSet::new();
            for job in &jobs {
                assert!(job.input_levels.contains(&job.output_level), "{job:?}");
                for &level in &job.input_levels {
                    assert!(
                        seen.insert(level),
                        "{} wave overlaps on level {level}",
                        strategy.name()
                    );
                }
            }
        }
    }
}
