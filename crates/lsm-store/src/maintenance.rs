//! Store maintenance: memtable flush, compaction execution and value-log
//! garbage collection — everything that rewrites levels.
//!
//! # Compaction scheduler
//!
//! Which merges run is delegated to a pluggable
//! [`CompactionStrategy`](crate::compaction::CompactionStrategy)
//! (leveled — the paper's model — or size-tiered). After each flush the
//! scheduler repeatedly asks the strategy for a **wave**: a set of jobs
//! over pairwise-disjoint level sets. Wave jobs merge concurrently on
//! scoped worker threads (each under its own
//! [`SerialClass::compaction_slot`] so simulated merge time overlaps
//! across clients), then install sequentially in deterministic job order
//! — each install a brief write-lock epoch swap, so readers stay
//! lock-free and group commit keeps flowing while merges run. The
//! maintenance mutex now covers only job selection, the memtable freeze
//! and installs, not merge IO.
//!
//! # One executor
//!
//! All three funnel through one merge executor, `Db::merge_to_run`, which
//! streams borrowed records from merge to file (DESIGN.md, "Write path: two
//! passes, one stream") past the listener's [`MergeJob`], and one
//! installer, `Db::install_output`: a brief write-lock epoch swap per job,
//! in deterministic job order, the job's own install under the lock,
//! manifest after install, inputs retired after the manifest.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use sgx_sim::SerialClass;
use sim_disk::FsError;

use crate::compaction::{CompactionJob, LevelsView, VlogGcJob};
use crate::db::{table_name, wal_name, Db, DbInner};
use crate::events::{InputPosition, MergeJob, ReplicationEvent};
use crate::memtable::MemTable;
use crate::merge::{KWayMerge, MergeInput};
use crate::record::{Record, RecordView, Timestamp, ValueKind};
use crate::sstable::{TableBuilder, TableReader};
use crate::version::{Run, Version};
use crate::vlog::{decode_pointer, encode_pointer, vlog_name};
use crate::wal::WalWriter;

/// How many of the most recent epochs stay verifiable with no live reader
/// pinning them: a detached trace-then-verify flow (adversary harnesses,
/// replication cross-checks, a client verifying a raw trace) collects a
/// trace and verifies it later, and this floor keeps its epoch's version —
/// and the listener's snapshot for it — alive across that window.
const RETIRED_EPOCH_FLOOR: u64 = 8;

/// One finished merge: the output run (None when everything was purged)
/// and the listener's job, which installs with it.
struct MergeOutput<'a> {
    run: Option<Arc<Run>>,
    job: Box<dyn MergeJob + 'a>,
}

/// A record a merge keeps: its value still a slice of the input block (or
/// the memtable's `Bytes`), its key a range of [`Survivors::keys`].
struct Survivor {
    key_end: usize,
    ts: Timestamp,
    kind: ValueKind,
    value: Bytes,
    /// Where the merge read it; `None` once its value was rewritten.
    from: Option<InputPosition>,
}

/// The records a merge keeps, in output order. All must be known before
/// the first is written (its proof needs the whole output tree), so they
/// stay resident through both output passes — as views: what is resident
/// is the input level, as it always was, not a copy of it.
#[derive(Default)]
struct Survivors {
    /// The survivors' user keys, back to back.
    keys: Vec<u8>,
    items: Vec<Survivor>,
}

impl Survivors {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn push(&mut self, record: RecordView<'_>, from: InputPosition) {
        self.keys.extend_from_slice(record.key);
        self.items.push(Survivor {
            key_end: self.keys.len(),
            ts: record.ts,
            kind: record.kind,
            value: record.value.clone(),
            from: Some(from),
        });
    }

    fn record(&self, i: usize) -> RecordView<'_> {
        let key_start = i.checked_sub(1).map_or(0, |prev| self.items[prev].key_end);
        let item = &self.items[i];
        RecordView {
            key: &self.keys[key_start..item.key_end],
            ts: item.ts,
            kind: item.kind,
            value: &item.value,
        }
    }
}

impl Db {
    /// Forces a memtable flush (to the strategy's target level), then lets
    /// the scheduler run any compaction waves the flush made due.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn flush(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.flush_inner(0, true)
    }

    /// Flush triggered by a full memtable: once the maintenance lock is
    /// ours, flush only if the memtable is still over the write-buffer
    /// budget (another writer may have flushed it meanwhile).
    pub(crate) fn flush_if_over(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.flush_inner(self.options.write_buffer_bytes, true)
    }

    /// Replays a primary's [`ReplicationEvent::Flush`] marker: flushes the
    /// memtable exactly as [`Db::flush`] would, but does **not** chase
    /// compaction waves afterward — the primary ships every job it ran as
    /// its own [`ReplicationEvent::Compact`] marker, and a replica that
    /// re-selected jobs locally could diverge (double-compact) from the
    /// primary's epoch sequence.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_replicated_flush(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.flush_inner(0, false)
    }

    /// Installs `next` as the current version: the listener publishes the
    /// epoch first (so no reader can observe an epoch without its
    /// commitments), then the pointer swaps, then drained versions retire.
    fn install_locked(&self, inner: &mut DbInner, next: Arc<Version>) {
        self.listener.on_version_install(next.epoch());
        // After the listener published: the epoch's commitment snapshot
        // exists, so a replica receiving this event can cross-check.
        self.emit(ReplicationEvent::Install { epoch: next.epoch() });
        inner.current = next.clone();
        inner.live.push(next);
        let newest = inner.current.epoch();
        // A version has drained when only the live list itself holds it.
        // Keep a small floor of recent epochs for detached-trace flows.
        inner.live.retain(|v| {
            v.epoch() == newest
                || Arc::strong_count(v) > 1
                || newest - v.epoch() < RETIRED_EPOCH_FLOOR
        });
        let live_epochs: Vec<u64> = inner.live.iter().map(|v| v.epoch()).collect();
        self.listener.on_versions_retired(&live_epochs);
    }

    /// Key-value separation (flush-time): records whose stored value
    /// reaches the configured threshold move their bytes to the value log
    /// and become pointer records ([`ValueKind::VlogPut`]). The log is
    /// synced before returning, so by the time any SSTable (and later the
    /// manifest) names a pointer, its entry is durable.
    fn separate_large_values(&self, records: &mut [Record]) -> Result<(), FsError> {
        let Some(config) = self.options.vlog else {
            return Ok(());
        };
        let Some(vlog) = &self.vlog else {
            return Ok(());
        };
        let mut moved = false;
        for record in records.iter_mut() {
            if record.kind != ValueKind::Put || record.value.len() < config.value_threshold {
                continue;
            }
            let mac = self.listener.vlog_mac(record);
            let ptr = vlog.append(&record.key, record.ts, &record.value)?;
            record.value = self.listener.wrap_vlog_pointer(encode_pointer(ptr, &mac));
            record.kind = ValueKind::VlogPut;
            moved = true;
        }
        if moved {
            vlog.sync();
        }
        Ok(())
    }

    fn flush_inner(&self, min_bytes: usize, chase: bool) -> Result<(), FsError> {
        // A flush whose merge failed left its frozen memtable in the
        // version: still read, still covered by the log before the active
        // one. A version holds one frozen memtable, so that flush finishes
        // before another freezes — freezing over it would take acknowledged
        // writes out of the read path.
        let pending = {
            let inner = self.inner.read();
            let imm = inner.current.imm().cloned();
            imm.map(|imm| (imm, inner.current.clone(), wal_name(inner.wal_no - 1)))
        };
        if let Some((imm, base, old_wal)) = pending {
            self.flush_frozen(&imm, &base, &old_wal)?;
        }
        // Phase 1 (write lock): freeze the memtable into the version as an
        // immutable snapshot, rotate the WAL, and publish — readers keep
        // finding the frozen records in trusted memory while the merge
        // writes them to their level.
        let (imm, base, old_wal) = {
            let _span = self.metrics.flush_freeze.start();
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            let mut inner = self.inner.write();
            if inner.memtable.is_empty() || inner.memtable.approximate_bytes() < min_bytes {
                return Ok(());
            }
            let new_wal_no = inner.wal_no + 1;
            let wal_file = self.env.fs().create(&wal_name(new_wal_no))?;
            // The flush decision is the primary's alone: replicas replay
            // this marker instead of watching their own thresholds, which
            // pins both stores' version boundaries to the same point in
            // the frame stream. Emitted after the fallible WAL creation,
            // so an IO error here aborts the flush on both sides alike.
            self.emit(ReplicationEvent::Flush);
            self.stats.flushes.inc();
            let imm = Arc::new(std::mem::replace(&mut inner.memtable, MemTable::new()));
            let old_wal = wal_name(inner.wal_no);
            inner.wal = WalWriter::new(self.env.clone(), wal_file);
            inner.wal_no = new_wal_no;
            // A commit folds its records into the listener after it let go
            // of this lock; the rotation is heard once the closed log's
            // last frame has been.
            drop(self.wal_fold.lock());
            self.listener.on_wal_rotate();
            let next =
                Arc::new(inner.current.with_imm(inner.current.epoch() + 1, Some(imm.clone())));
            self.install_locked(&mut inner, next);
            // Crash safety: before any writer can append to the new WAL
            // (i.e. before this lock releases), the manifest must name
            // both logs — otherwise acknowledged writes that land in the
            // new WAL while the merge runs would be lost on recovery.
            self.write_manifest_with(inner.wal_lo, inner.wal_no, &inner.current)?;
            (imm, inner.current.clone(), old_wal)
        };
        self.flush_frozen(&imm, &base, &old_wal)?;
        if self.options.telemetry.is_enabled() {
            // Refresh the registry's gauges at every version boundary so a
            // telemetry snapshot is current even if nobody polls
            // [`Db::stats`].
            self.refresh_gauges();
        }
        if chase && self.options.compaction_enabled {
            self.run_waves()?;
        }
        if chase && self.options.vlog.is_some_and(|c| c.gc_enabled) {
            self.vlog_gc_locked()?;
        }
        Ok(())
    }

    /// Phases 2 and 3 of a flush: merges the frozen memtable `imm` of
    /// version `base` into its level and installs the result, after which
    /// `old_wal` (the log that covered `imm`) goes.
    fn flush_frozen(&self, imm: &MemTable, base: &Version, old_wal: &str) -> Result<(), FsError> {
        // Phase 2 (no store lock): merge the frozen records into the
        // strategy's target level. Key-value separation happens here —
        // before the listener observes the records — so levels, proofs and
        // commitments all cover pointer records, while the WAL and the
        // memtable (whose replay must restore values without the log)
        // always carry the full values.
        let merge_span = self.metrics.flush_merge.start();
        let mut mem_records: Vec<Record> = imm.iter_records().collect();
        self.separate_large_values(&mut mem_records)?;
        let mut input_levels = vec![0];
        let (target, merge_existing) = if self.options.compaction_enabled {
            let plan = self.strategy.flush_plan(&LevelsView::from_version(base), &self.options);
            (plan.target, plan.merge_existing)
        } else {
            // Compaction off: stack the run at the first empty level —
            // write amplification 1, read cost grows with run count
            // (Figure 7b's wo-compaction mode).
            let mut i = 1;
            while i < base.levels().len() && base.level(i).is_some() {
                i += 1;
            }
            (i, false)
        };
        if merge_existing && base.level(target).is_some() {
            input_levels.push(target);
        }
        // A flush may purge tombstones only when it *merges into* the
        // bottom level (leveled, tiny stores). A stacked flush run — no
        // matter its slot index — is the newest data with older runs
        // below, so purging there would resurrect shadowed versions.
        let purge =
            self.options.compaction_enabled && merge_existing && target >= self.options.max_levels;
        let spec = CompactionJob { input_levels, output_level: target, purge };
        let out = self.merge_to_run(&spec, &mem_records, base, &[])?;
        drop(merge_span);

        // Phase 3: install the successor version with the frozen memtable
        // absorbed into its level; the old WAL goes last, after the
        // manifest stopped naming it.
        let _install_span = self.metrics.flush_install.start();
        self.install_output(&spec, out, None)?;
        let _ = self.env.fs().delete(old_wal);
        Ok(())
    }

    /// Runs compaction waves until the strategy reports no due work: each
    /// wave is a set of jobs over disjoint level sets, merged concurrently
    /// (per [`crate::compaction::CompactionConfig::parallelism`]) and
    /// installed in deterministic job order. Caller holds the maintenance
    /// mutex.
    fn run_waves(&self) -> Result<(), FsError> {
        // Bounded defensively: every wave from a sane strategy strictly
        // shrinks debt, so the cap only guards a pathological plugin.
        for _ in 0..256 {
            let base = self.current_version();
            let jobs = self.strategy.pick_jobs(&LevelsView::from_version(&base), &self.options);
            if jobs.is_empty() {
                return Ok(());
            }
            self.metrics.compaction_waves.inc();
            self.execute_jobs(&base, &jobs, self.options.compaction.parallelism.max(1), None)?;
        }
        Ok(())
    }

    /// Merges one wave of jobs against `base` and installs the outputs.
    ///
    /// With `parallelism > 1` each job's merge runs on its own scoped
    /// worker thread under a dedicated [`SerialClass::compaction_slot`]:
    /// worker threads start with an empty serial-class mask (thread-local),
    /// so their merge time lands in the slot horizons — overlapping with
    /// the write path and with each other in the simulated timeline —
    /// instead of extending the caller's Maintenance section. Installs are
    /// sequential in job order regardless of parallelism, so the epoch
    /// sequence (and every listener/replication observation) is
    /// deterministic.
    ///
    /// In value-log-GC mode `gc` names victim files whose live entries
    /// every merge rewrites, the install emits
    /// [`ReplicationEvent::VlogGc`] instead of per-job `Compact` markers,
    /// and the victims are deleted once the rewrite is durable.
    fn execute_jobs(
        &self,
        base: &Arc<Version>,
        jobs: &[CompactionJob],
        parallelism: usize,
        gc: Option<&VlogGcJob>,
    ) -> Result<(), FsError> {
        let rewrite: &[u64] = gc.map_or(&[], |gc| &gc.rewrite_files);
        let merge_span = &self.metrics.compaction_merge;
        let outputs: Vec<Result<MergeOutput<'_>, FsError>> = if parallelism <= 1 {
            let merge = |job| {
                let _span = merge_span.start();
                self.merge_to_run(job, &[], base, rewrite)
            };
            jobs.iter().map(merge).collect()
        } else {
            let slots = parallelism.min(4);
            // A worker's merge joins the tree of the request that triggered
            // the wave as a remote child: its charges land on its own thread.
            let parent = telemetry::trace::current_context();
            std::thread::scope(|s| {
                let handles: Vec<_> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, job)| {
                        s.spawn(move || {
                            let _slot = self
                                .env
                                .platform()
                                .serial_section(SerialClass::compaction_slot(i % slots));
                            let _span = merge_span.start_child_of(parent);
                            self.merge_to_run(job, &[], base, rewrite)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("compaction worker panicked")).collect()
            })
        };
        for (job, out) in jobs.iter().zip(outputs) {
            let _install_span = self.metrics.compaction_install.start();
            let marker = match gc {
                Some(gc) => ReplicationEvent::VlogGc { gc },
                None => ReplicationEvent::Compact { job },
            };
            self.install_output(job, out?, Some(marker))?;
            self.stats.compactions.inc();
        }
        // GC epilogue: every pointer into a victim file has been rewritten
        // and the manifest that names the rewritten tables is durable —
        // the victims can go. Pinned old versions keep reading them
        // through their retained handles; a crash right here merely redoes
        // the deletions.
        gc.map_or(Ok(()), |gc| self.drop_vlog_files(&gc.rewrite_files))
    }

    /// Installs the output run of merge `spec` in place of the runs it
    /// consumed (a brief write-lock epoch swap, with the listener's job for
    /// the merge installing under the lock), makes that durable, and
    /// only then retires the consumed runs: a crash in between recovers the
    /// pre- or the post-merge manifest, and both name files that still
    /// exist. `marker` is the job's replication event; a flush has none,
    /// and also absorbs the frozen memtable and the WAL that covered it.
    fn install_output(
        &self,
        spec: &CompactionJob,
        MergeOutput { run, mut job }: MergeOutput<'_>,
        marker: Option<ReplicationEvent<'_>>,
    ) -> Result<(), FsError> {
        let (flush, output_level) = (marker.is_none(), spec.output_level);
        let mut replaced: Vec<Arc<Run>> = Vec::new();
        {
            let _serial = self.env.platform().serial_section(SerialClass::StoreWrite);
            let mut inner = self.inner.write();
            let mut levels = inner.current.levels().to_vec();
            while levels.len() <= output_level {
                levels.push(None);
            }
            let inputs = spec.input_levels.iter().filter(|&&level| level != output_level);
            for &level in inputs.chain([&output_level]) {
                replaced.extend(levels[level].take());
            }
            levels[output_level] = run;
            let imm = inner.current.imm().filter(|_| !flush).cloned();
            let next = Arc::new(Version::new(inner.current.epoch() + 1, imm, levels));
            // Under the write lock, in job order: the job commits what it
            // staged, the replication stream learns the exact job, then
            // the epoch swaps — so a replica replaying the stream
            // reproduces this install verbatim.
            job.install();
            if let Some(marker) = marker {
                self.emit(marker);
            }
            self.install_locked(&mut inner, next);
            if flush {
                inner.wal_lo = inner.wal_no;
            }
        }
        self.write_manifest()?;
        for run in &replaced {
            self.retire_run(run);
        }
        Ok(())
    }

    /// Deletes value-log files once a manifest that no longer names them is
    /// durable: a crash in between leaves files no manifest names, which
    /// recovery deletes, never a manifest naming a deleted file.
    fn drop_vlog_files(&self, files: &[u64]) -> Result<(), FsError> {
        let Some(vlog) = &self.vlog else { return Ok(()) };
        let retired: Vec<u64> = files.iter().copied().filter(|&no| vlog.remove_file(no)).collect();
        self.write_manifest()?;
        for no in retired {
            let _ = self.env.fs().delete(&vlog_name(no));
        }
        Ok(())
    }

    /// Replays one job from a primary's [`ReplicationEvent::Compact`]
    /// marker: executes exactly the shipped job (inline, no worker
    /// threads), installing the same level edit and epoch bump the
    /// primary did. A no-op when every input level is empty — mirroring
    /// how the primary never schedules such a job.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_compaction_job(&self, job: &CompactionJob) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        let base = self.current_version();
        if job.input_levels.iter().all(|&l| base.level(l).is_none()) {
            return Ok(());
        }
        self.execute_jobs(&base, std::slice::from_ref(job), 1, None)
    }

    /// Compacts level `i` into level `i+1` (the paper's
    /// `COMPACTION(Li, Li+1)`), expressed as a single explicit job.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn compact(&self, level: usize) -> Result<(), FsError> {
        assert!(level >= 1 && level < self.options.max_levels, "invalid compaction level");
        let job = CompactionJob {
            input_levels: vec![level, level + 1],
            output_level: level + 1,
            purge: level + 1 >= self.options.max_levels,
        };
        self.apply_compaction_job(&job)
    }

    /// Runs the strategy's **major** compaction: one job folding every
    /// populated level into a single run with tombstones purged (the
    /// tombstone-collecting full pass; wave scheduling is the minor
    /// counterpart). A no-op when fewer than two levels are populated.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn compact_major(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        let base = self.current_version();
        let Some(job) = self.strategy.major_job(&LevelsView::from_version(&base), &self.options)
        else {
            return Ok(());
        };
        self.execute_jobs(&base, std::slice::from_ref(&job), 1, None)
    }

    /// Value-log garbage collection: deletes fully-dead log files
    /// outright, then — if any non-active file's garbage fraction reaches
    /// [`crate::options::VlogConfig::gc_garbage_ratio`] — runs one merge
    /// over the populated levels with the victims' live entries rewritten
    /// to the active file, and deletes the victims once the rewrite is
    /// durable. A no-op without a value log or without due victims.
    /// Runs automatically after flush-chased compaction when
    /// [`crate::options::VlogConfig::gc_enabled`] is set.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn vlog_gc(&self) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        self.vlog_gc_locked()
    }

    /// [`Db::vlog_gc`] body; caller holds the maintenance mutex.
    fn vlog_gc_locked(&self) -> Result<(), FsError> {
        let Some(vlog) = &self.vlog else {
            return Ok(());
        };
        // Files every byte of which is garbage need no rewrite, but they
        // still ride in the victim set so replicas replaying the shipped
        // job drop them too — removing them only locally would leave the
        // follower's log strictly larger than the primary's.
        let mut victims = vlog.fully_dead();
        victims.extend(vlog.victims());
        if victims.is_empty() {
            return Ok(());
        }
        let _span = self.metrics.vlog_gc.start();
        let base = self.current_version();
        let view = LevelsView::from_version(&base);
        // Any merge that visits every pointer record works; the strategy's
        // major job does, and a single populated level degenerates to a
        // self-merge of that level.
        let job = match self.strategy.major_job(&view, &self.options) {
            Some(job) => job,
            None => match view.non_empty().first() {
                Some(&level) => {
                    CompactionJob { input_levels: vec![level], output_level: level, purge: false }
                }
                // No levels: no live pointer can exist, so every victim is
                // fully dead. Ship a degenerate (empty-input) job so the
                // replica's [`Db::apply_vlog_gc`] takes its deletion-only
                // path.
                None => CompactionJob { input_levels: Vec::new(), output_level: 0, purge: false },
            },
        };
        let gc = VlogGcJob { job, rewrite_files: victims };
        if gc.job.input_levels.is_empty() {
            self.drop_vlog_files(&gc.rewrite_files)?;
            self.emit(ReplicationEvent::VlogGc { gc: &gc });
            return Ok(());
        }
        self.execute_jobs(&base, std::slice::from_ref(&gc.job), 1, Some(&gc))
    }

    /// Replays a value-log GC from a primary's
    /// [`ReplicationEvent::VlogGc`] marker: runs exactly the shipped merge
    /// with the shipped victim set, then drops the victims — mirroring
    /// [`Db::apply_compaction_job`]. The victim choice is the primary's
    /// alone; a replica deciding locally could rewrite entries in a
    /// different order and diverge from the primary's commitments.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] on IO errors.
    pub fn apply_vlog_gc(&self, gc: &VlogGcJob) -> Result<(), FsError> {
        let _maint = self.maint.lock();
        let _serial = self.env.platform().serial_section(SerialClass::Maintenance);
        let base = self.current_version();
        if gc.job.input_levels.iter().all(|&l| base.level(l).is_none()) {
            // Degenerate shipped job (nothing to merge here): still honor
            // the victim deletions so both logs' file sets match.
            return self.drop_vlog_files(&gc.rewrite_files);
        }
        self.execute_jobs(&base, std::slice::from_ref(&gc.job), 1, Some(gc))
    }

    /// Tells the value log that a dropped pointer record's entry bytes are
    /// now garbage (GC victim accounting). Non-pointer records are free.
    fn note_vlog_drop(&self, record: RecordView<'_>) {
        if record.kind != ValueKind::VlogPut {
            return;
        }
        if let (Some(vlog), Some((ptr, _))) = (
            &self.vlog,
            self.listener.unwrap_vlog_pointer(record.value).and_then(|b| decode_pointer(&b)),
        ) {
            vlog.note_garbage(ptr.file_no, ptr.len);
        }
    }

    /// Merges the input runs of `spec` (and the frozen memtable's records
    /// `mem`, level 0) into one output run, past a job the listener begins
    /// for it, which has finished when this returns the run — or failed,
    /// when this returns an error. Touches no store state (only the
    /// lock-free file-number allocator advances), so wave jobs run it
    /// concurrently. `rewrite` names value-log files whose pointer records
    /// are re-homed to the active log file (GC mode; empty otherwise).
    fn merge_to_run(
        &self,
        spec: &CompactionJob,
        mem: &[Record],
        base: &Version,
        rewrite: &[u64],
    ) -> Result<MergeOutput<'_>, FsError> {
        let mut job = self.listener.begin_merge(&spec.input_levels, spec.output_level);
        match self.merge_with(&mut *job, spec, mem, base, rewrite) {
            Ok(run) => {
                job.finish();
                Ok(MergeOutput { run, job })
            }
            Err(error) => {
                job.fail();
                Err(error)
            }
        }
    }

    /// [`Db::merge_to_run`]'s merge, chunked into files: the merge lends
    /// each input record (shown to `job` if it was stored), the survivors
    /// are kept as views ([`Survivors`]), `job` observes them (pass 1) and
    /// then writes each one's stored value straight into the table block
    /// being built (pass 2). An input that fails to read or decode fails
    /// the merge before any output file exists.
    fn merge_with(
        &self,
        job: &mut dyn MergeJob,
        spec: &CompactionJob,
        mem: &[Record],
        base: &Version,
        rewrite: &[u64],
    ) -> Result<Option<Arc<Run>>, FsError> {
        // Level 0 is the frozen memtable (`mem`, empty for a compaction); a
        // stored level's blocks are all read now, table by table and block
        // by block, whatever order the merge then consumes their records in.
        let mut inputs = vec![MergeInput::records(0, mem)];
        for &level in &spec.input_levels {
            for t in base.level(level).map_or(&[][..], |run| run.tables()) {
                inputs.push(MergeInput::table(level, t.iter()?));
            }
        }
        // Tombstones may only be purged when a merge observes every live
        // version of its keys (bottom level, or a major pass over all
        // populated levels); stacked (no-compaction) runs must keep them
        // (§5.4 "Handling Deletes").
        let mut survivors = Survivors::default();
        // Records read so far per input level: a survivor's position is
        // its level's count when it was read.
        let mut read = vec![0usize; spec.input_levels.iter().max().map_or(1, |&top| top + 1)];
        let mut input_count = 0u64;
        let mut cur_key: Vec<u8> = Vec::new();
        let mut cur_suffix = 0u64;
        let mut drop_rest = false;
        let mut seen_version = false;
        let mut merge = KWayMerge::new(inputs)?;
        while let Some((level, record)) = merge.next()? {
            input_count += 1;
            let from = InputPosition { level, ordinal: read[level] };
            read[level] += 1;
            if level != 0 {
                job.input(level, record);
            }
            // The stored bytes are the host's. A merged stream that does not
            // strictly ascend — a table's records out of order, or one
            // record in two tables — holds no level, and its output could
            // not be written in order: the merge fails as it does on an
            // input that does not decode.
            if input_count > 1 && (record.key, record.suffix()) <= (&cur_key[..], cur_suffix) {
                let name = format!("level-{level} merge input");
                return Err(FsError::OutOfBounds { name, requested_end: 0, len: 0 });
            }
            cur_suffix = record.suffix();
            if input_count == 1 || cur_key != record.key {
                cur_key.clear();
                cur_key.extend_from_slice(record.key);
                drop_rest = false;
                seen_version = false;
            }
            if drop_rest {
                self.note_vlog_drop(record);
                continue;
            }
            if spec.purge && record.kind == ValueKind::Delete && !seen_version {
                // Newest surviving version is a tombstone at the bottom:
                // the key disappears entirely (§5.4).
                drop_rest = true;
                continue;
            }
            if seen_version && !self.options.keep_old_versions {
                self.note_vlog_drop(record);
                continue;
            }
            seen_version = true;
            survivors.push(record, from);
        }
        // The cursors go; only blocks a survivor's value slices stay alive.
        drop(merge);
        // GC mode: re-home surviving pointer records out of the victim
        // files before the listener observes the output — the rewritten
        // pointer value must be what gets hashed into the new leaf, and it
        // is no longer what the merge read (`from` goes). The MAC is
        // carried over verbatim: it binds key‖ts‖payload, not the entry's
        // location.
        if let (false, Some(vlog)) = (rewrite.is_empty(), &self.vlog) {
            let victims: HashSet<u64> = rewrite.iter().copied().collect();
            let mut moved = false;
            for i in 0..survivors.len() {
                let record = survivors.record(i);
                let Some((ptr, mac)) = (record.kind == ValueKind::VlogPut)
                    .then(|| self.listener.unwrap_vlog_pointer(record.value))
                    .flatten()
                    .and_then(|bytes| decode_pointer(&bytes))
                    .filter(|(ptr, _)| victims.contains(&ptr.file_no))
                else {
                    continue;
                };
                let payload = vlog.read(ptr, record.key, record.ts)?.ok_or_else(|| {
                    let requested_end = ptr.offset.saturating_add(ptr.len) as usize;
                    FsError::OutOfBounds { name: vlog_name(ptr.file_no), requested_end, len: 0 }
                })?;
                let new_ptr = vlog.append(record.key, record.ts, &payload)?;
                vlog.note_garbage(ptr.file_no, ptr.len);
                let survivor = &mut survivors.items[i];
                survivor.value = self.listener.wrap_vlog_pointer(encode_pointer(new_ptr, &mac));
                survivor.from = None;
                moved = true;
            }
            if moved {
                vlog.sync();
            }
        }
        self.stats.compaction_input_records.add(input_count);
        // Pass 1: the job sees every survivor (eLSM builds the output
        // level's digest here — a proof needs the whole tree, hence two
        // passes).
        for i in 0..survivors.len() {
            job.observe(survivors.record(i), survivors.items[i].from);
        }
        job.seal();
        self.stats.compaction_output_records.add(survivors.len() as u64);

        // Pass 2: write the output run, chunked into files; the job writes
        // each stored value (eLSM: envelope ‖ proof) into the block.
        let mut tables = Vec::new();
        let mut idx = 0usize;
        while idx < survivors.len() {
            let file_no = self.file_no.fetch_add(1, Ordering::SeqCst);
            let file = self.env.fs().create(&table_name(file_no))?;
            let mut builder = TableBuilder::new(
                self.env.clone(),
                file.clone(),
                file_no,
                self.options.table.clone(),
            );
            let mut bytes = 0u64;
            while idx < survivors.len() {
                let r = survivors.record(idx);
                // Never split versions of one key across files (chains stay
                // within one file's leaf).
                let key_boundary = builder.count() > 0 && survivors.record(idx - 1).key != r.key;
                if bytes >= self.options.target_file_bytes && key_boundary {
                    break;
                }
                let stored = builder.add_with(r, |block| job.write_value(r, block));
                bytes += (r.key.len() + stored + 24) as u64;
                idx += 1;
            }
            builder.finish();
            tables.push(Arc::new(TableReader::open(self.env.clone(), file, file_no)?));
        }
        Ok(if tables.is_empty() { None } else { Some(Arc::new(Run::new(tables)?)) })
    }

    fn retire_run(&self, run: &Run) {
        for t in run.tables() {
            let _ = self.env.fs().delete(&table_name(t.meta().file_no));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use parking_lot::Mutex;
    use sgx_sim::Platform;
    use sim_disk::{SimDisk, SimFs};

    use crate::compaction::{CompactionConfig, CompactionJob, CompactionStrategyKind, VlogGcJob};
    use crate::db::tests::{open_db, small_options};
    use crate::db::Db;
    use crate::env::StorageEnv;
    use crate::events::{
        InputPosition, MergeJob, ReplicationEvent, ReplicationSink, StoreListener,
    };
    use crate::maintenance::RETIRED_EPOCH_FLOOR;
    use crate::options::Options;
    use crate::record::{Record, RecordView, ValueKind};

    #[test]
    fn flush_moves_data_to_level1_and_reads_still_work() {
        let db = open_db(small_options());
        for i in 0..100 {
            db.put(format!("key{i:04}").as_bytes(), format!("val{i}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        let lb = db.level_bytes();
        assert_eq!(lb[0], 0, "memtable empty after flush");
        assert!(lb[1] > 0 || lb[2] > 0, "data must be on disk");
        for i in (0..100).step_by(7) {
            let key = format!("key{i:04}");
            assert_eq!(
                &db.get(key.as_bytes()).unwrap().unwrap().value[..],
                format!("val{i}").as_bytes(),
                "{key}"
            );
        }
    }

    #[test]
    fn many_writes_trigger_flushes_and_compactions() {
        let db = open_db(small_options());
        for i in 0..2000u32 {
            let key = format!("key{:05}", i % 500);
            db.put(key.as_bytes(), &[b'x'; 40]).unwrap();
        }
        let s = db.stats();
        assert!(s.flushes > 0, "expected flushes");
        assert!(s.compactions > 0, "expected compactions");
        // All keys still readable with the newest value.
        for i in 0..500u32 {
            let key = format!("key{i:05}");
            assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
        }
    }

    #[test]
    fn epochs_advance_on_flush_and_compaction() {
        let db = open_db(small_options());
        let e0 = db.current_epoch();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        let e1 = db.current_epoch();
        assert!(e1 >= e0 + 2, "freeze + install must advance the epoch twice: {e0} -> {e1}");
        let trace = db.get_with_trace(b"k", crate::GetTrace::clone).unwrap();
        assert_eq!(trace.epoch, db.current_epoch());
    }

    #[test]
    fn tombstones_purged_at_bottom_level() {
        let mut opts = small_options();
        opts.max_levels = 2;
        let db = open_db(opts);
        db.put(b"k", b"v").unwrap();
        db.delete(b"k").unwrap();
        db.flush().unwrap();
        db.compact(1).unwrap();
        assert!(db.get(b"k").unwrap().is_none());
        // At the bottom level the key is physically gone.
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 0, "tombstone and value purged: {recs:?}");
    }

    #[test]
    fn old_versions_retained_by_default() {
        let db = open_db(Options { compaction_enabled: false, ..small_options() });
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        db.flush().unwrap();
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 2, "both versions kept: {recs:?}");
    }

    #[test]
    fn old_versions_dropped_when_configured() {
        let db = open_db(Options {
            keep_old_versions: false,
            compaction_enabled: false,
            ..small_options()
        });
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        db.flush().unwrap();
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 1, "only newest kept: {recs:?}");
        assert_eq!(&db.get(b"k").unwrap().unwrap().value[..], b"v2");
    }

    #[test]
    fn listener_sees_flush_and_compaction_events() {
        use std::sync::atomic::AtomicU64;
        #[derive(Default)]
        struct Spy {
            wal: AtomicU64,
            flush: AtomicU64,
            inputs: AtomicU64,
            ends: AtomicU64,
            installs: AtomicU64,
        }
        /// Counts what a merge reads and writes out, and its end.
        struct SpyJob<'a>(&'a Spy);
        impl MergeJob for SpyJob<'_> {
            fn input(&mut self, _: usize, _: RecordView<'_>) {
                self.0.inputs.fetch_add(1, Ordering::Relaxed);
            }
            fn observe(&mut self, _: RecordView<'_>, _: Option<InputPosition>) {
                self.0.flush.fetch_add(1, Ordering::Relaxed);
            }
            fn finish(&mut self) {
                self.0.ends.fetch_add(1, Ordering::Relaxed);
            }
        }
        impl StoreListener for Spy {
            fn on_wal_append_batch(&self, records: &[Record]) {
                self.wal.fetch_add(records.len() as u64, Ordering::Relaxed);
            }
            fn begin_merge(&self, _: &[usize], _: usize) -> Box<dyn MergeJob + '_> {
                Box::new(SpyJob(self))
            }
            fn on_version_install(&self, _: u64) {
                self.installs.fetch_add(1, Ordering::Relaxed);
            }
        }
        let spy = Arc::new(Spy::default());
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        let db = Db::open(env, options, Some(spy.clone())).unwrap();
        for i in 0..400 {
            db.put(format!("key{i:05}").as_bytes(), &[b'x'; 30]).unwrap();
        }
        db.flush().unwrap();
        assert_eq!(spy.wal.load(Ordering::Relaxed), 400);
        assert!(spy.flush.load(Ordering::Relaxed) >= 400);
        assert!(spy.ends.load(Ordering::Relaxed) >= 1);
        assert!(spy.installs.load(Ordering::Relaxed) >= 2, "freeze + merge installs");
    }

    /// The output seam rewrites stored values: a listener that sees every
    /// output record in pass 1 and appends to each value in pass 2 (what
    /// eLSM does with proofs), through a flush and a compaction.
    #[test]
    fn output_writer_rewrites_values() {
        /// Appends `+<records observed>` to every stored value.
        struct Embed;
        struct Count(usize);
        impl StoreListener for Embed {
            fn begin_merge(&self, _: &[usize], _: usize) -> Box<dyn MergeJob + '_> {
                Box::new(Count(0))
            }
        }
        impl MergeJob for Count {
            fn observe(&mut self, record: RecordView<'_>, from: Option<InputPosition>) {
                // A record read from a stored level (not the memtable) was
                // rewritten once already.
                let stored = from.is_some_and(|at| at.level != 0);
                assert_eq!(stored, record.value.contains(&b'+'));
                self.0 += 1;
            }
            fn write_value(&mut self, record: RecordView<'_>, out: &mut Vec<u8>) {
                out.extend_from_slice(record.value);
                out.extend_from_slice(format!("+{}", self.0).as_bytes());
            }
        }
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        let db = Db::open(env, options, Some(Arc::new(Embed))).unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        assert_eq!(&db.get(b"k").unwrap().unwrap().value[..], b"v+1");
        // The second flush merges into the level: both records are
        // observed before either is written, and the stored one is
        // rewritten again.
        db.put(b"j", b"w").unwrap();
        db.flush().unwrap();
        assert_eq!(&db.get(b"j").unwrap().unwrap().value[..], b"w+2");
        assert_eq!(&db.get(b"k").unwrap().unwrap().value[..], b"v+1+2");
    }

    /// Listener capturing the live-epoch set after every install.
    #[derive(Default)]
    struct LiveEpochProbe {
        live: Mutex<Vec<u64>>,
    }

    impl StoreListener for LiveEpochProbe {
        fn on_versions_retired(&self, live_epochs: &[u64]) {
            *self.live.lock() = live_epochs.to_vec();
        }
    }

    fn open_db_with_listener(options: Options, listener: Arc<dyn StoreListener>) -> Arc<Db> {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let env = StorageEnv::new(platform, fs, options.env.clone(), None);
        Arc::new(Db::open(env, options, Some(listener)).unwrap())
    }

    /// With no reader pinning it, a drained version survives exactly until
    /// it falls [`RETIRED_EPOCH_FLOOR`] epochs behind; a pinned one lives
    /// as long as its reader.
    #[test]
    fn drained_versions_retire_at_the_epoch_floor() {
        let probe = Arc::new(LiveEpochProbe::default());
        let db = open_db_with_listener(
            Options { compaction_enabled: false, ..small_options() },
            probe.clone(),
        );
        // Each round installs twice: the freeze, then the merged level.
        let flush_round = |round: usize| {
            for i in 0..40 {
                db.put(format!("key{round}-{i:03}").as_bytes(), &[b'x'; 40]).unwrap();
            }
            db.flush().unwrap();
        };
        let pinned = db.current_version();
        (0..5).for_each(flush_round);
        let newest = db.current_epoch();
        assert!(newest - pinned.epoch() > RETIRED_EPOCH_FLOOR);
        let floor = newest + 1 - RETIRED_EPOCH_FLOOR..=newest;
        let expected: Vec<u64> = std::iter::once(pinned.epoch()).chain(floor).collect();
        assert_eq!(*probe.live.lock(), expected, "the pinned epoch and the newest eight");
        drop(pinned);
        flush_round(5);
        let newest = db.current_epoch();
        let floor: Vec<u64> = (newest + 1 - RETIRED_EPOCH_FLOOR..=newest).collect();
        assert_eq!(*probe.live.lock(), floor, "unpinned and drained: retired");
    }

    /// One recorded replication event (frames and jobs owned).
    enum ReplayEvent {
        Frame(Vec<Record>),
        Flush,
        Compact(CompactionJob),
        VlogGc(VlogGcJob),
        Install,
    }

    /// Replication sink recording the event stream.
    #[derive(Default)]
    struct StreamProbe {
        events: Mutex<Vec<ReplayEvent>>,
    }

    impl ReplicationSink for StreamProbe {
        fn on_event(&self, event: ReplicationEvent<'_>) {
            let entry = match event {
                ReplicationEvent::Frame { records } => ReplayEvent::Frame(records.to_vec()),
                ReplicationEvent::Flush => ReplayEvent::Flush,
                ReplicationEvent::Compact { job } => ReplayEvent::Compact(job.clone()),
                ReplicationEvent::VlogGc { gc } => ReplayEvent::VlogGc(gc.clone()),
                ReplicationEvent::Install { .. } => ReplayEvent::Install,
            };
            self.events.lock().push(entry);
        }
    }

    #[test]
    fn replication_stream_replays_to_an_identical_store() {
        let probe = Arc::new(StreamProbe::default());
        let primary = open_db(small_options());
        primary.set_replication_sink(probe.clone());
        for i in 0..300u32 {
            let key = format!("key{:04}", i % 120);
            primary.put(key.as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        primary.delete(b"key0003").unwrap();
        primary.flush().unwrap();
        primary.put(b"tail", b"after-flush").unwrap();

        // Replay the recorded stream against a second store: flush
        // decisions and compaction jobs come from the markers, never from
        // the replica's own thresholds or strategy.
        let replica = open_db(small_options());
        for event in probe.events.lock().iter() {
            match event {
                ReplayEvent::Frame(records) => replica.apply_replicated_batch(records).unwrap(),
                ReplayEvent::Flush => replica.apply_replicated_flush().unwrap(),
                ReplayEvent::Compact(job) => replica.apply_compaction_job(job).unwrap(),
                ReplayEvent::VlogGc(gc) => replica.apply_vlog_gc(gc).unwrap(),
                ReplayEvent::Install => {}
            }
        }
        assert_eq!(replica.current_epoch(), primary.current_epoch(), "epoch sequences diverged");
        assert_eq!(replica.level_records(), primary.level_records(), "level shapes diverged");
        assert_eq!(replica.latest_ts(), primary.latest_ts(), "timestamp allocators diverged");
        for i in 0..120u32 {
            let key = format!("key{i:04}");
            let a = primary.get(key.as_bytes()).unwrap();
            let b = replica.get(key.as_bytes()).unwrap();
            assert_eq!(a, b, "{key} diverged");
        }
        assert_eq!(&replica.get(b"tail").unwrap().unwrap().value[..], b"after-flush");
    }

    fn tiered_options(parallelism: usize) -> Options {
        Options {
            compaction: CompactionConfig { strategy: CompactionStrategyKind::Tiered, parallelism },
            ..small_options()
        }
    }

    #[test]
    fn tiered_strategy_stacks_and_merges() {
        let db = open_db(tiered_options(1));
        for i in 0..3000u32 {
            db.put(format!("key{:05}", i % 600).as_bytes(), &[b'x'; 40]).unwrap();
        }
        let s = db.stats();
        assert!(s.flushes > 0, "expected flushes: {s:?}");
        assert!(s.compactions > 0, "tiered merges must have run: {s:?}");
        for i in 0..600u32 {
            let key = format!("key{i:05}");
            assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
        }
        // Freshness order: a stacked layout must still serve the newest
        // version (higher slots are fresher; reads search top-down).
        db.put(b"key00001", b"newest").unwrap();
        db.flush().unwrap();
        assert_eq!(&db.get(b"key00001").unwrap().unwrap().value[..], b"newest");
    }

    #[test]
    fn parallel_waves_match_serial_execution() {
        // Parallelism moves merge work onto worker threads but installs
        // stay in deterministic job order: epochs, level shapes, and every
        // read must be bit-identical to the serial scheduler's.
        let run = |parallelism: usize| {
            let db = open_db(tiered_options(parallelism));
            for i in 0..2500u32 {
                db.put(format!("key{:05}", i % 500).as_bytes(), &[b'y'; 40]).unwrap();
            }
            db.flush().unwrap();
            let reads: Vec<_> = (0..500u32)
                .map(|i| {
                    db.get(format!("key{i:05}").as_bytes())
                        .unwrap()
                        .map(|r| (r.value.clone(), r.ts))
                })
                .collect();
            (db.current_epoch(), db.level_records(), reads)
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.0, parallel.0, "epoch sequences must not depend on parallelism");
        assert_eq!(serial.1, parallel.1, "level shapes must not depend on parallelism");
        assert_eq!(serial.2, parallel.2, "reads must not depend on parallelism");
    }

    /// Per-job state under a parallel wave: a job is shown only its own
    /// levels' records, every stored record a merge reads reaches exactly
    /// one job, and jobs install in job order — the order the replication
    /// stream ships them in.
    #[test]
    fn each_job_of_a_parallel_wave_keeps_its_own_state() {
        #[derive(Default)]
        struct JobProbe {
            /// Stored records the jobs were shown, added at each finish.
            shown: AtomicU64,
            /// Records shown to a job that does not merge their level.
            foreign: AtomicU64,
            /// Jobs begun and not installed yet, and the most at once.
            pending: AtomicU64,
            most_pending: AtomicU64,
            /// Each compaction's `(input levels, output level)`, as it installs.
            installs: Mutex<Vec<(Vec<usize>, usize)>>,
        }
        struct CountingJob<'a> {
            probe: &'a JobProbe,
            levels: (Vec<usize>, usize),
            shown: u64,
        }
        impl MergeJob for CountingJob<'_> {
            fn input(&mut self, level: usize, _: RecordView<'_>) {
                self.shown += 1;
                if !self.levels.0.contains(&level) {
                    self.probe.foreign.fetch_add(1, Ordering::SeqCst);
                }
            }
            fn finish(&mut self) {
                self.probe.shown.fetch_add(self.shown, Ordering::SeqCst);
            }
            fn install(&mut self) {
                self.probe.pending.fetch_sub(1, Ordering::SeqCst);
                if !self.levels.0.contains(&0) {
                    self.probe.installs.lock().push(self.levels.clone());
                }
            }
        }
        impl StoreListener for JobProbe {
            fn begin_merge(&self, input_levels: &[usize], output: usize) -> Box<dyn MergeJob + '_> {
                let pending = self.pending.fetch_add(1, Ordering::SeqCst) + 1;
                self.most_pending.fetch_max(pending, Ordering::SeqCst);
                let levels = (input_levels.to_vec(), output);
                Box::new(CountingJob { probe: self, levels, shown: 0 })
            }
        }
        // Eight stacked runs, four of one size and four three times as big:
        // reopened under the tiered strategy, one flush makes a wave of two
        // jobs, one per group.
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let stacked =
            Options { compaction_enabled: false, write_buffer_bytes: 1 << 20, ..tiered_options(4) };
        let env = StorageEnv::new(platform, fs, stacked.env.clone(), None);
        let db = Db::open(env.clone(), stacked, None).unwrap();
        for (run, puts) in [40u32, 40, 40, 40, 120, 120, 120, 120].into_iter().enumerate() {
            for i in 0..puts {
                db.put(format!("run{run}-key{i:03}").as_bytes(), &[b'y'; 40]).unwrap();
            }
            db.flush().unwrap();
        }
        drop(db);
        let probe = Arc::new(JobProbe::default());
        let db = Db::open(env, tiered_options(4), Some(probe.clone())).unwrap();
        let stream = Arc::new(StreamProbe::default());
        db.set_replication_sink(stream.clone());
        const PUTS: u64 = 10;
        for i in 0..PUTS {
            db.put(format!("fresh{i}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        let load = |counter: &AtomicU64| counter.load(Ordering::SeqCst);
        assert_eq!(load(&probe.most_pending), 2, "a wave merged both jobs before installing");
        assert_eq!(load(&probe.pending), 0, "every job installed");
        assert_eq!(load(&probe.foreign), 0, "a job is shown its own levels' records only");
        // The rest of what the merges read is the frozen memtables: one
        // record per put.
        assert_eq!(load(&probe.shown) + PUTS, db.stats().compaction_input_records);
        let shipped: Vec<(Vec<usize>, usize)> = (stream.events.lock().iter())
            .filter_map(|event| match event {
                ReplayEvent::Compact(job) => Some((job.input_levels.clone(), job.output_level)),
                _ => None,
            })
            .collect();
        assert_eq!(shipped, [(vec![1, 2, 3, 4], 1), (vec![5, 6, 7, 8], 5)]);
        assert_eq!(*probe.installs.lock(), shipped, "installs arrive in job order");
    }

    /// Filesystem-snapshotting listener: captures the on-disk state at the
    /// two riskiest instants of a compaction job — merge done but not
    /// installed, and mid-install (job committed, manifest not yet
    /// written) — together with how many puts had been issued.
    struct CrashProbe {
        fs: Arc<SimFs>,
        issued: Arc<AtomicU64>,
        at_end: Mutex<Option<(sim_disk::FsSnapshot, u64)>>,
        at_install: Mutex<Option<(sim_disk::FsSnapshot, u64)>>,
    }

    /// A compaction job of [`CrashProbe`] (a flush's jobs snapshot nothing).
    struct CrashJob<'a>(&'a CrashProbe);

    impl CrashJob<'_> {
        fn snapshot(&self, slot: &Mutex<Option<(sim_disk::FsSnapshot, u64)>>) {
            *slot.lock() = Some((self.0.fs.snapshot(), self.0.issued.load(Ordering::SeqCst)));
        }
    }

    impl MergeJob for CrashJob<'_> {
        fn finish(&mut self) {
            self.snapshot(&self.0.at_end);
        }
        fn install(&mut self) {
            self.snapshot(&self.0.at_install);
        }
    }

    impl StoreListener for CrashProbe {
        fn begin_merge(&self, input_levels: &[usize], _: usize) -> Box<dyn MergeJob + '_> {
            match input_levels {
                [0] => Box::new(crate::events::Verbatim),
                _ => Box::new(CrashJob(self)),
            }
        }
    }

    #[test]
    fn crash_mid_compaction_recovers_consistent_state() {
        // An acknowledged put is already in a manifest-named WAL before
        // any compaction of the same flush cycle runs, so a crash at
        // either captured instant must recover every put issued by then:
        // the store lands on the consistent pre-compaction version (the
        // manifest still names the input runs; orphaned output files are
        // swept) and loses nothing.
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = small_options();
        let issued = Arc::new(AtomicU64::new(0));
        let probe = Arc::new(CrashProbe {
            fs: fs.clone(),
            issued: issued.clone(),
            at_end: Mutex::new(None),
            at_install: Mutex::new(None),
        });
        let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
        let db = Db::open(env, options.clone(), Some(probe.clone())).unwrap();
        let puts: Vec<(String, String)> =
            (0..1800u32).map(|i| (format!("key{:05}", i % 400), format!("v{i}"))).collect();
        for (i, (key, val)) in puts.iter().enumerate() {
            // Counted *before* the put: when a compaction inside this
            // put's flush chase snapshots the fs, the put itself is
            // already committed (WAL frame written before the chase).
            issued.store(i as u64 + 1, Ordering::SeqCst);
            db.put(key.as_bytes(), val.as_bytes()).unwrap();
        }
        drop(db);
        let snaps: Vec<(sim_disk::FsSnapshot, u64)> = [
            probe.at_end.lock().take().expect("a compaction job must have run"),
            probe.at_install.lock().take().expect("a compaction job must have installed"),
        ]
        .into_iter()
        .collect();
        for (snap, n) in snaps {
            fs.restore(&snap);
            let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
            let db2 = Db::open(env, options.clone(), None).unwrap();
            let mut expected = HashMap::new();
            for (key, val) in &puts[..n as usize] {
                expected.insert(key.clone(), val.clone());
            }
            for (key, val) in &expected {
                let got = db2.get(key.as_bytes()).unwrap();
                assert_eq!(
                    got.as_ref().map(|r| &r.value[..]),
                    Some(val.as_bytes()),
                    "acked write to {key} lost across crash at put {n}"
                );
            }
            // The recovered store keeps working: writes, flushes, waves.
            db2.put(b"post-crash", b"ok").unwrap();
            db2.flush().unwrap();
            assert!(db2.get(b"post-crash").unwrap().is_some());
        }
    }

    #[test]
    fn compaction_stress_concurrent_writers_and_readers() {
        // CI's compaction stress: tiered strategy, 4-way parallel waves,
        // racing writers and readers, then a major pass — nothing lost.
        let db = open_db(tiered_options(4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..600u32 {
                        db.put(format!("t{t}-key{:04}", i % 150).as_bytes(), &[b'z'; 50]).unwrap();
                    }
                });
            }
            let dbr = &db;
            s.spawn(move || {
                for i in 0..800u32 {
                    let _ = dbr.get(format!("t{}-key{:04}", i % 4, (i * 7) % 150).as_bytes());
                    if i % 100 == 0 {
                        let _ = dbr.scan(b"t0", b"t3~");
                    }
                }
            });
        });
        let s = db.stats();
        assert!(s.compactions > 0, "stress must exercise the scheduler: {s:?}");
        for t in 0..4 {
            for i in 0..150u32 {
                let key = format!("t{t}-key{i:04}");
                assert!(db.get(key.as_bytes()).unwrap().is_some(), "missing {key}");
            }
        }
        // Tombstone-aware major pass: folds all populated runs into one.
        db.compact_major().unwrap();
        let recs = db.level_records();
        assert!(
            recs.iter().filter(|&&n| n > 0).count() <= 2,
            "major pass must fold runs (memtable + one run at most): {recs:?}"
        );
        for t in 0..4 {
            assert!(db.get(format!("t{t}-key0000").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn major_compaction_purges_tombstones() {
        let db = open_db(Options { keep_old_versions: false, ..tiered_options(1) });
        for i in 0..50u32 {
            db.put(format!("k{i:03}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        for i in 0..50u32 {
            db.delete(format!("k{i:03}").as_bytes()).unwrap();
        }
        db.flush().unwrap();
        db.compact_major().unwrap();
        assert!(db.get(b"k007").unwrap().is_none());
        let recs = db.level_records();
        assert_eq!(recs.iter().sum::<u64>(), 0, "values and tombstones physically gone: {recs:?}");
    }

    fn vlog_options() -> Options {
        Options {
            keep_old_versions: false,
            vlog: Some(crate::options::VlogConfig {
                value_threshold: 128,
                target_file_bytes: 4 * 1024,
                gc_garbage_ratio: 0.3,
                gc_enabled: false,
            }),
            ..small_options()
        }
    }

    #[test]
    fn large_values_separate_into_the_value_log_at_flush() {
        let db = open_db(vlog_options());
        db.put(b"small", b"inline").unwrap();
        db.put(b"big", &[7u8; 1000]).unwrap();
        db.flush().unwrap();
        // On-disk record for `big` is a pointer, not the payload.
        let level = (1..db.level_bytes().len())
            .find(|&l| !db.level_record_dump(l).unwrap().is_empty())
            .unwrap();
        let dump = db.level_record_dump(level).unwrap();
        let big = dump.iter().find(|r| &r.key[..] == b"big").unwrap();
        assert_eq!(big.kind, ValueKind::VlogPut);
        assert_eq!(big.value.len(), crate::vlog::POINTER_BYTES);
        let small = dump.iter().find(|r| &r.key[..] == b"small").unwrap();
        assert_eq!(small.kind, ValueKind::Put);
        // Reads resolve through the vlog transparently.
        assert_eq!(&db.get(b"big").unwrap().unwrap().value[..], &[7u8; 1000][..]);
        assert_eq!(&db.get(b"small").unwrap().unwrap().value[..], b"inline");
        let scanned = db.scan(b"a", b"z").unwrap();
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].value.len(), 1000);
        let s = db.stats();
        assert!(s.vlog_bytes > 1000, "vlog holds the payload: {}", s.vlog_bytes);
        assert_eq!(s.vlog_garbage_bytes, 0);
    }

    #[test]
    fn vlog_survives_restart_and_gc_rewrites_live_entries() {
        let platform = Platform::with_defaults();
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let options = vlog_options();
        let env = StorageEnv::new(platform.clone(), fs.clone(), options.env.clone(), None);
        {
            let db = Db::open(env.clone(), options.clone(), None).unwrap();
            for i in 0..20u32 {
                db.put(format!("k{i:02}").as_bytes(), &[i as u8; 600]).unwrap();
            }
            db.flush().unwrap();
        }
        let db = Db::open(env.clone(), options.clone(), None).unwrap();
        for i in 0..20u32 {
            let got = db.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got.value[..], &[i as u8; 600][..], "k{i:02} across restart");
        }
        // Overwrite half the keys: old vlog entries become garbage once
        // compaction drops the superseded versions.
        for i in 0..10u32 {
            db.put(format!("k{i:02}").as_bytes(), &[0xEE; 600]).unwrap();
        }
        db.flush().unwrap();
        db.compact_major().unwrap();
        let before = db.stats();
        assert!(before.vlog_garbage_bytes > 0, "superseded entries counted: {before:?}");
        db.vlog_gc().unwrap();
        let after = db.stats();
        assert!(
            after.vlog_bytes - after.vlog_garbage_bytes <= before.vlog_bytes,
            "gc never grows live bytes"
        );
        assert!(
            after.vlog_garbage_bytes < before.vlog_garbage_bytes
                || after.vlog_bytes < before.vlog_bytes,
            "gc reclaimed something: {before:?} -> {after:?}"
        );
        // Every key still readable after rewrite, including across one more restart.
        drop(db);
        let db = Db::open(env, options, None).unwrap();
        for i in 0..20u32 {
            let want: &[u8] = if i < 10 { &[0xEE; 600] } else { &[i as u8; 600] };
            let got = db.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got.value[..], want, "k{i:02} after gc + restart");
        }
    }

    #[test]
    fn vlog_gc_is_replayable_on_a_follower() {
        // Same stream-replay harness as
        // replication_stream_replays_to_an_identical_store, but with value
        // separation on and a GC cycle in the stream.
        let probe = Arc::new(StreamProbe::default());
        let db = open_db(vlog_options());
        db.set_replication_sink(probe.clone());
        for i in 0..20u32 {
            db.put(format!("k{i:02}").as_bytes(), &[i as u8; 600]).unwrap();
        }
        db.flush().unwrap();
        for i in 0..10u32 {
            db.put(format!("k{i:02}").as_bytes(), &[0xAB; 600]).unwrap();
        }
        db.flush().unwrap();
        db.compact_major().unwrap();
        db.vlog_gc().unwrap();
        assert!(
            probe.events.lock().iter().any(|e| matches!(e, ReplayEvent::VlogGc(_))),
            "gc must ship as a replication event"
        );

        let replica = open_db(vlog_options());
        for event in probe.events.lock().iter() {
            match event {
                ReplayEvent::Frame(records) => replica.apply_replicated_batch(records).unwrap(),
                ReplayEvent::Flush => replica.apply_replicated_flush().unwrap(),
                ReplayEvent::Compact(job) => replica.apply_compaction_job(job).unwrap(),
                ReplayEvent::VlogGc(gc) => replica.apply_vlog_gc(gc).unwrap(),
                ReplayEvent::Install => {}
            }
        }
        for i in 0..20u32 {
            let want: &[u8] = if i < 10 { &[0xAB; 600] } else { &[i as u8; 600] };
            let got = replica.get(format!("k{i:02}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got.value[..], want, "replica k{i:02}");
        }
        assert_eq!(replica.stats().vlog_bytes, db.stats().vlog_bytes, "replayed vlog converges");
    }
}
