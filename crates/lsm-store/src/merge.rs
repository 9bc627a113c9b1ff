//! K-way merging of sorted record streams (the compaction merge step).
//!
//! The merge owns no record: each input is a cursor over a run's tables
//! ([`TableIter`]s, one after the other) or over a slice of owned records
//! (a frozen memtable),
//! and [`KWayMerge::next`] lends the smallest input's current record as a
//! [`RecordView`] until the next call. The heap is an array of input
//! indices allocated once, ordered by comparing the inputs' current
//! `(user_key, suffix)` in place — the order of
//! [`internal_cmp`](crate::record::internal_cmp) — and advancing an input
//! is one sift-down. So a merge allocates per block its inputs read, never
//! per record; every flushed byte funnels through here, and
//! `tests/merge_allocations.rs` pins it with a counting allocator.

use sim_disk::FsError;

use crate::record::{Record, RecordView};
use crate::sstable::TableIter;

/// Where an input's records come from.
#[derive(Debug)]
enum Cursor<'a> {
    /// A run's records: its tables' in order, `current` first.
    Run { current: TableIter<'a>, rest: std::vec::IntoIter<TableIter<'a>> },
    /// Owned records in internal-key order; `next` is the one after the
    /// current.
    Records { records: &'a [Record], next: usize },
}

/// One sorted input stream, tagged with its input level.
#[derive(Debug)]
pub struct MergeInput<'a> {
    level: usize,
    cursor: Cursor<'a>,
}

impl<'a> MergeInput<'a> {
    /// An input streaming a run: its tables, in key order, one stream. A
    /// host that stores two tables of one run overlapping shows the merge
    /// a stream that does not ascend, as one that reorders a table does.
    /// `None` for a run of no tables.
    pub fn run(level: usize, tables: Vec<TableIter<'a>>) -> Option<Self> {
        let mut rest = tables.into_iter();
        let current = rest.next()?;
        Some(MergeInput { level, cursor: Cursor::Run { current, rest } })
    }

    /// An input over records already in memory, in internal-key order.
    pub fn records(level: usize, records: &'a [Record]) -> Self {
        MergeInput { level, cursor: Cursor::Records { records, next: 0 } }
    }

    fn advance(&mut self) -> Result<bool, FsError> {
        match &mut self.cursor {
            Cursor::Run { current, rest } => loop {
                if current.advance()? {
                    return Ok(true);
                }
                match rest.next() {
                    Some(next) => *current = next,
                    None => return Ok(false),
                }
            },
            Cursor::Records { records, next } => {
                *next += 1;
                Ok(*next <= records.len())
            }
        }
    }

    /// The current record (after `advance` returned `Ok(true)`).
    fn view(&self) -> RecordView<'_> {
        match &self.cursor {
            Cursor::Run { current, .. } => current.view(),
            Cursor::Records { records, next } => records[next - 1].view(),
        }
    }
}

/// Merges sorted inputs into one sorted stream of `(level, record)`.
///
/// # Examples
///
/// ```
/// use lsm_store::merge::{KWayMerge, MergeInput};
/// use lsm_store::record::Record;
///
/// let a = vec![Record::put(b"a".as_slice(), b"1".as_slice(), 1)];
/// let b = vec![Record::put(b"b".as_slice(), b"2".as_slice(), 2)];
/// let mut merge = KWayMerge::new(vec![
///     MergeInput::records(1, &a),
///     MergeInput::records(2, &b),
/// ])
/// .unwrap();
/// let (level, first) = merge.next().unwrap().unwrap();
/// assert_eq!((level, first.key), (1, &b"a"[..]));
/// assert_eq!(merge.next().unwrap().unwrap().1.key, b"b");
/// assert!(merge.next().unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct KWayMerge<'a> {
    inputs: Vec<MergeInput<'a>>,
    /// Array min-heap of indices of the inputs that are on a record;
    /// capacity fixed at construction, never grows.
    heap: Vec<usize>,
    /// The root's record was lent out: advance its input before the next.
    lent: bool,
}

impl<'a> KWayMerge<'a> {
    /// Builds a merge over the given inputs, moving each to its first
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when an input fails to produce its first record.
    pub fn new(mut inputs: Vec<MergeInput<'a>>) -> Result<Self, FsError> {
        let mut heap = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter_mut().enumerate() {
            if input.advance()? {
                heap.push(i);
            }
        }
        // Floyd heap construction: O(k) once, then the heap only shrinks.
        let mut merge = KWayMerge { inputs, heap, lent: false };
        for i in (0..merge.heap.len() / 2).rev() {
            merge.sift_down(i);
        }
        Ok(merge)
    }

    /// The next record in internal-key order and its input's level, lent
    /// until the next call; `None` once every input is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`FsError`] when the input whose record was lent last fails
    /// to produce its next one. The merge is over then: an input that
    /// cannot be read to its end must not pass for a shorter one.
    #[allow(clippy::should_implement_trait)] // a lending iterator: items borrow the merge
    pub fn next(&mut self) -> Result<Option<(usize, RecordView<'_>)>, FsError> {
        if std::mem::take(&mut self.lent) {
            // Fused replace-top: the root's input moves to its successor
            // (or leaves the heap) and one sift-down restores the order.
            let root = self.heap[0];
            match self.inputs[root].advance() {
                Ok(true) => {}
                Ok(false) => {
                    self.heap.swap_remove(0);
                }
                Err(e) => {
                    self.heap.clear();
                    return Err(e);
                }
            }
            self.sift_down(0);
        }
        let Some(&root) = self.heap.first() else { return Ok(None) };
        self.lent = true;
        let input = &self.inputs[root];
        Ok(Some((input.level, input.view())))
    }

    /// Ascending internal-key order of the inputs' current records; ties
    /// (the same internal key cannot happen — timestamps are unique) fall
    /// back to input index for determinism.
    fn less(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.inputs[a].view(), self.inputs[b].view());
        (ra.key, ra.suffix(), a) < (rb.key, rb.suffix(), b)
    }

    /// The heap's backing capacity (pinned by the buffer-reuse test: it
    /// must never grow past the input count during a merge).
    #[cfg(test)]
    pub(crate) fn heap_capacity(&self) -> usize {
        self.heap.capacity()
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (left, right) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if left < self.heap.len() && self.less(self.heap[left], self.heap[smallest]) {
                smallest = left;
            }
            if right < self.heap.len() && self.less(self.heap[right], self.heap[smallest]) {
                smallest = right;
            }
            if smallest == i {
                return;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::RecordFixtures;
    use crate::record::{internal_cmp, ValueKind};
    use std::cmp::Ordering;

    fn input(level: usize, recs: &[Record]) -> MergeInput<'_> {
        MergeInput::records(level, recs)
    }

    fn collect(inputs: Vec<MergeInput<'_>>) -> Vec<(usize, Record)> {
        let mut merge = KWayMerge::new(inputs).unwrap();
        let mut out = Vec::new();
        while let Some((level, record)) = merge.next().unwrap() {
            out.push((level, record.to_record()));
        }
        out
    }

    fn sorted(mut v: Vec<Record>) -> Vec<Record> {
        v.sort_by(|a, b| internal_cmp(a.internal_key().encoded(), b.internal_key().encoded()));
        v
    }

    #[test]
    fn merges_disjoint_streams() {
        let a: Vec<Record> = (0..10)
            .map(|i| Record::put(format!("a{i}").into_bytes(), b"x".as_slice(), i))
            .collect();
        let b: Vec<Record> = (0..10)
            .map(|i| Record::put(format!("b{i}").into_bytes(), b"y".as_slice(), 100 + i))
            .collect();
        let merged = collect(vec![input(1, &a), input(2, &b)]);
        assert_eq!(merged.len(), 20);
        for w in merged.windows(2) {
            assert!(
                internal_cmp(w[0].1.internal_key().encoded(), w[1].1.internal_key().encoded())
                    == Ordering::Less
            );
        }
    }

    #[test]
    fn interleaves_same_key_newest_first() {
        // Level 1 has the newer version (Lemma 5.4).
        let newer = vec![Record::put(b"k".as_slice(), b"new".as_slice(), 10)];
        let older = vec![Record::put(b"k".as_slice(), b"old".as_slice(), 2)];
        let merged = collect(vec![input(1, &newer), input(2, &older)]);
        assert_eq!(&merged[0].1.value[..], b"new");
        assert_eq!(&merged[1].1.value[..], b"old");
    }

    #[test]
    fn sources_are_preserved() {
        let a = vec![Record::put(b"a".as_slice(), b"1".as_slice(), 1)];
        let b = vec![Record::put(b"b".as_slice(), b"2".as_slice(), 2)];
        let merged = collect(vec![input(1, &a), input(2, &b)]);
        assert_eq!(merged[0].0, 1);
        assert_eq!(merged[1].0, 2);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(collect(vec![input(1, &[]), input(2, &[])]).is_empty());
        assert!(collect(vec![]).is_empty());
    }

    #[test]
    fn three_way_merge_is_sorted() {
        let mk = |offset: u64| -> Vec<Record> {
            sorted(
                (0..30u64)
                    .map(|i| {
                        Record::put(
                            format!("key{:04}", (i * 7 + offset) % 100).into_bytes(),
                            b"v".as_slice(),
                            offset * 1000 + i,
                        )
                    })
                    .collect(),
            )
        };
        let (a, b, c) = (mk(0), mk(1), mk(2));
        let merged = collect(vec![input(1, &a), input(2, &b), input(3, &c)]);
        assert_eq!(merged.len(), 90);
        for w in merged.windows(2) {
            assert!(
                internal_cmp(w[0].1.internal_key().encoded(), w[1].1.internal_key().encoded())
                    != Ordering::Greater
            );
        }
    }

    /// The heap compares `(user_key, suffix)` in place; that must be the
    /// order of `internal_cmp` on the encoded keys, also where one user key
    /// is a prefix of another (a byte comparison of the encodings would
    /// put the shorter key's 0xff-leading suffix after the longer key).
    #[test]
    fn heap_order_is_internal_cmp_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x6d65_7267);
        let stems: [&[u8]; 6] = [b"", b"a", b"ab", b"ab\xff", b"abc", b"b"];
        let mut seen = std::collections::HashSet::new();
        let mut triples: Vec<Record> = Vec::new();
        while triples.len() < 1000 {
            let mut key = stems[rng.gen_range(0..stems.len())].to_vec();
            key.extend((0..rng.gen_range(0..3usize)).map(|_| rng.gen_range(0..3u8) * 127));
            let ts = rng.gen_range(0..40u64);
            let kind =
                [ValueKind::Put, ValueKind::VlogPut, ValueKind::Delete][rng.gen_range(0..3usize)];
            if seen.insert((key.clone(), ts, kind)) {
                triples.push(Record { key: key.into(), ts, kind, value: vec![kind as u8].into() });
            }
        }
        // Deal the triples over seven inputs, each sorted on its own.
        let mut dealt: Vec<Vec<Record>> = vec![Vec::new(); 7];
        for r in &triples {
            dealt[rng.gen_range(0..7usize)].push(r.clone());
        }
        let dealt: Vec<Vec<Record>> = dealt.into_iter().map(sorted).collect();
        let merged =
            collect(dealt.iter().enumerate().map(|(i, recs)| input(i + 1, recs)).collect());
        let merged: Vec<Record> = merged.into_iter().map(|(_, r)| r).collect();
        assert_eq!(merged, sorted(triples));
    }

    /// The buffer-reuse microbench: an 8-way merge of 200k records must
    /// (a) never grow the heap's backing buffer past the input count and
    /// (b) sustain a floor throughput even in debug builds (a generous
    /// smoke bound that catches an accidental return to per-record heap
    /// rebuilds, which blow the bound by orders of magnitude).
    #[test]
    fn merge_reuses_buffers_and_holds_throughput_floor() {
        const WAYS: usize = 8;
        const PER_WAY: u64 = 25_000;
        let records: Vec<Vec<Record>> = (0..WAYS)
            .map(|w| {
                (0..PER_WAY)
                    .map(|i| {
                        Record::put(
                            format!("key{:08}", i * WAYS as u64 + w as u64).into_bytes(),
                            b"value-payload".as_slice(),
                            i * WAYS as u64 + w as u64 + 1,
                        )
                    })
                    .collect()
            })
            .collect();
        let inputs = records.iter().enumerate().map(|(w, recs)| input(w + 1, recs)).collect();
        let mut merge = KWayMerge::new(inputs).unwrap();
        let cap0 = merge.heap_capacity();
        assert!(cap0 <= WAYS, "initial heap capacity bounded by input count");
        let start = std::time::Instant::now();
        let mut n = 0u64;
        let mut last: Vec<u8> = Vec::new();
        while let Some((_, r)) = merge.next().unwrap() {
            assert!(n == 0 || last.as_slice() < r.key, "keys are distinct and ascending");
            last.clear();
            last.extend_from_slice(r.key);
            n += 1;
        }
        let elapsed = start.elapsed();
        assert_eq!(n, WAYS as u64 * PER_WAY);
        assert_eq!(merge.heap_capacity(), cap0, "heap buffer must be reused, never reallocated");
        let per_sec = n as f64 / elapsed.as_secs_f64().max(1e-9);
        assert!(
            per_sec > 100_000.0,
            "merge throughput collapsed to {per_sec:.0} records/s ({elapsed:?} for {n} records)"
        );
    }
}
