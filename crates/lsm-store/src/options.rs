//! Store configuration.

use crate::compaction::CompactionConfig;
use crate::env::EnvConfig;
use crate::sstable::TableOptions;

/// When acknowledged writes reach the host-side WAL: always before the
/// writer is acknowledged, one push per commit group, so a crash leaves
/// every acknowledged batch in the log (a torn frame drops only its own,
/// unacknowledged, batch on recovery). A frame copied into a mapping of
/// the log is pushed once the copy completes, as a `write()` without
/// `fsync` is.
///
/// The enum has one policy. It and the `wal_sync` fields stay because
/// `benchmark/` spells out every option it sets, these included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSyncPolicy {
    /// Push every commit group's frame to the host before acknowledging.
    #[default]
    Always,
}

/// Key-value separation knobs (WiscKey-style authenticated value log).
///
/// When enabled on [`Options::vlog`], flushes divert values of at least
/// [`VlogConfig::value_threshold`] bytes into append-only value-log files;
/// the LSM levels keep pointer records
/// ([`crate::record::ValueKind::VlogPut`]) of a few dozen bytes, so
/// compaction merges and listener re-hashing no longer pay per value byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VlogConfig {
    /// Stored values of at least this many bytes move to the value log at
    /// flush time (smaller values stay inline in the LSM).
    pub value_threshold: usize,
    /// Rotate to a new value-log file once the active one reaches this
    /// size (bounds the blast radius of one GC rewrite).
    pub target_file_bytes: u64,
    /// Garbage-collect a value-log file once this fraction of its bytes
    /// belongs to dropped pointer records.
    pub gc_garbage_ratio: f64,
    /// Run value-log GC automatically after flush-chased compaction.
    pub gc_enabled: bool,
}

impl Default for VlogConfig {
    fn default() -> Self {
        VlogConfig {
            value_threshold: 4096,
            target_file_bytes: 256 * 1024,
            gc_garbage_ratio: 0.5,
            gc_enabled: true,
        }
    }
}

/// Options for opening a [`crate::db::Db`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Environment (enclave mode, buffer placement, mmap, sealing).
    pub env: EnvConfig,
    /// SSTable construction parameters.
    pub table: TableOptions,
    /// Memtable size that triggers a flush (the paper uses 4 MB).
    pub write_buffer_bytes: usize,
    /// Target size of one SSTable file within a run.
    pub target_file_bytes: u64,
    /// Size budget of level 1; level `i` holds `level1 * multiplier^(i-1)`.
    pub level1_max_bytes: u64,
    /// Geometric growth factor between levels (LevelDB uses 10).
    pub level_multiplier: u64,
    /// Maximum number of on-disk levels.
    pub max_levels: usize,
    /// Run size-triggered compactions automatically after flushes.
    pub compaction_enabled: bool,
    /// Compaction strategy and scheduler parallelism (ignored while
    /// `compaction_enabled` is false).
    pub compaction: CompactionConfig,
    /// Keep shadowed old versions (the paper's hash chains digest them;
    /// transparency-log deployments retain full history).
    pub keep_old_versions: bool,
    /// When acknowledged writes reach the host-side WAL (one policy; see
    /// [`WalSyncPolicy`]).
    pub wal_sync: WalSyncPolicy,
    /// Key-value separation: `Some` splits large values into an
    /// append-only value log at flush time (`None` keeps every value
    /// inline in the LSM levels — the pre-separation behaviour).
    pub vlog: Option<VlogConfig>,
    /// Telemetry registry the store's counters, spans and gauges live in.
    /// The default handle is disabled (counters still count — they *are*
    /// the store's bookkeeping — but spans/histograms are no-ops); pass
    /// [`telemetry::Telemetry::new`] to trace, or a
    /// [scoped](telemetry::Telemetry::scoped) handle to share one registry
    /// across shards or replicas without name collisions.
    pub telemetry: telemetry::Telemetry,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            env: EnvConfig::default(),
            table: TableOptions::default(),
            write_buffer_bytes: 64 * 1024,
            target_file_bytes: 128 * 1024,
            level1_max_bytes: 256 * 1024,
            level_multiplier: 10,
            max_levels: 7,
            compaction_enabled: true,
            compaction: CompactionConfig::default(),
            keep_old_versions: true,
            wal_sync: WalSyncPolicy::default(),
            vlog: None,
            telemetry: telemetry::Telemetry::default(),
        }
    }
}

impl Options {
    /// Size budget for level `i` (1-based).
    pub fn level_target_bytes(&self, level: usize) -> u64 {
        debug_assert!(level >= 1);
        self.level1_max_bytes * self.level_multiplier.pow(level.saturating_sub(1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_targets_grow_geometrically() {
        let o = Options { level1_max_bytes: 100, level_multiplier: 10, ..Options::default() };
        assert_eq!(o.level_target_bytes(1), 100);
        assert_eq!(o.level_target_bytes(2), 1_000);
        assert_eq!(o.level_target_bytes(3), 10_000);
    }
}
