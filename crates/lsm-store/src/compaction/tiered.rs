//! Size-tiered compaction (STCS).
//!
//! Flushed runs stack upward — each flush lands one slot above the
//! highest occupied level, so a higher slot is always fresher (the
//! stacked read order of the no-compaction mode). When enough
//! similar-sized runs accumulate in adjacent occupied slots, they merge
//! into the group's **oldest** slot; the slots above it become holes.
//! Group members are contiguous among occupied slots, so every run
//! outside the group is either entirely older or entirely fresher than
//! the whole group and the freshness order survives the merge.
//!
//! Write amplification is far below leveled's rolling merges (each
//! record is rewritten once per tier, not once per flush), at the cost
//! of more runs for reads to visit — exactly the trade the extended
//! Figure 7 sweeps.

use super::{CompactionJob, CompactionStrategy, FlushPlan, LevelsView};
use crate::options::Options;

/// Minimum adjacent similar-sized runs before a merge triggers.
const MIN_MERGE_WIDTH: usize = 4;
/// Maximum runs one job merges.
const MAX_MERGE_WIDTH: usize = 8;
/// Two runs are "similar-sized" when the larger is at most this
/// percentage of the smaller (150 = within 1.5×).
const SIZE_RATIO_PCT: u64 = 150;

/// Size-tiered strategy (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tiered;

impl CompactionStrategy for Tiered {
    fn name(&self) -> &'static str {
        "tiered"
    }

    fn stacked(&self) -> bool {
        true
    }

    fn flush_plan(&self, view: &LevelsView, _opts: &Options) -> FlushPlan {
        // A fresh run must land above *every* occupied slot (not the
        // first hole — holes sit below fresher runs).
        let target = view.highest_non_empty().map_or(1, |h| h + 1);
        FlushPlan { target, merge_existing: false }
    }

    fn pick_jobs(&self, view: &LevelsView, _opts: &Options) -> Vec<CompactionJob> {
        let slots = view.non_empty();
        let mut jobs = Vec::new();
        let mut i = 0;
        while i < slots.len() {
            // Grow a window of adjacent occupied slots while every member
            // stays within the size ratio of every other.
            let mut j = i;
            let mut min_b = view.bytes(slots[i]).expect("non-empty slot");
            let mut max_b = min_b;
            while j + 1 < slots.len() && (j + 1 - i) < MAX_MERGE_WIDTH {
                let b = view.bytes(slots[j + 1]).expect("non-empty slot");
                let (lo, hi) = (min_b.min(b), max_b.max(b));
                if hi * 100 > lo.max(1) * SIZE_RATIO_PCT {
                    break;
                }
                j += 1;
                min_b = lo;
                max_b = hi;
            }
            if j + 1 - i >= MIN_MERGE_WIDTH {
                jobs.push(CompactionJob {
                    input_levels: slots[i..=j].to_vec(),
                    output_level: slots[i],
                    // Only the group holding the store's oldest run may
                    // purge: anything else still has older data below it.
                    purge: i == 0,
                });
                i = j + 1;
            } else {
                i += 1;
            }
        }
        jobs
    }

    fn major_job(&self, view: &LevelsView, _opts: &Options) -> Option<CompactionJob> {
        let input_levels = view.non_empty();
        if input_levels.len() < 2 {
            return None;
        }
        let output_level = input_levels[0];
        Some(CompactionJob { input_levels, output_level, purge: true })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(sizes: &[Option<u64>]) -> LevelsView {
        let mut v = vec![None];
        v.extend_from_slice(sizes);
        LevelsView::new(v)
    }

    #[test]
    fn flushes_stack_above_every_occupied_slot() {
        let opts = Options::default();
        assert_eq!(Tiered.flush_plan(&view(&[]), &opts).target, 1);
        // Holes at 2 and 3 (a past group merge) must not swallow a fresh
        // run — it goes above slot 4.
        let plan = Tiered.flush_plan(&view(&[Some(40), None, None, Some(10)]), &opts);
        assert_eq!(plan.target, 5);
        assert!(!plan.merge_existing);
    }

    #[test]
    fn similar_sized_adjacent_runs_merge_into_oldest_slot() {
        let jobs =
            Tiered.pick_jobs(&view(&[Some(10), Some(11), Some(9), Some(10)]), &Options::default());
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].input_levels, vec![1, 2, 3, 4]);
        assert_eq!(jobs[0].output_level, 1);
        assert!(jobs[0].purge, "the group holds the oldest run");
    }

    #[test]
    fn dissimilar_sizes_split_groups() {
        // A big old run below four small fresh ones: only the small group
        // merges, and it may not purge (older data exists below it).
        let jobs = Tiered.pick_jobs(
            &view(&[Some(1000), Some(10), Some(10), Some(10), Some(10)]),
            &Options::default(),
        );
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].input_levels, vec![2, 3, 4, 5]);
        assert_eq!(jobs[0].output_level, 2);
        assert!(!jobs[0].purge);
    }

    #[test]
    fn groups_skip_holes_but_stay_contiguous_in_occupied_order() {
        let jobs = Tiered.pick_jobs(
            &view(&[Some(10), None, Some(10), None, Some(10), Some(10)]),
            &Options::default(),
        );
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].input_levels, vec![1, 3, 5, 6]);
        assert_eq!(jobs[0].output_level, 1);
    }

    #[test]
    fn fewer_than_min_width_runs_stay_put() {
        let jobs = Tiered.pick_jobs(&view(&[Some(10), Some(10), Some(10)]), &Options::default());
        assert!(jobs.is_empty());
    }

    #[test]
    fn major_job_merges_everything_into_the_oldest_slot() {
        let job = Tiered
            .major_job(&view(&[Some(1000), None, Some(10), Some(10)]), &Options::default())
            .unwrap();
        assert_eq!(job.input_levels, vec![1, 3, 4]);
        assert_eq!(job.output_level, 1);
        assert!(job.purge);
    }
}
