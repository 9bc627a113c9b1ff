//! Lock-free metric primitives: counters, gauges, and the one bucket type.
//!
//! All three are plain atomics once registered — registration takes a lock
//! on the registry's name table, but the handles returned are `Arc`s whose
//! hot-path methods never lock, matching the PR 2 lock-free-reader
//! philosophy. Counters additionally stripe their cell across shards so
//! concurrent writers on different threads do not contend on one cache
//! line.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of stripes a [`Counter`] spreads its value over.
pub(crate) const COUNTER_SHARDS: usize = 8;

/// One cache line worth of counter, so stripes never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct PaddedAtomic(pub(crate) AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The stripe this thread writes; assigned round-robin at first use.
    static THREAD_SLOT: usize =
        NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

fn thread_slot() -> usize {
    THREAD_SLOT.with(|s| *s)
}

#[derive(Debug, Default)]
pub(crate) struct CounterInner {
    pub(crate) shards: [PaddedAtomic; COUNTER_SHARDS],
}

/// A monotonically increasing, sharded-atomic counter.
///
/// Cheap to clone (an `Arc`); increments are one relaxed `fetch_add` on a
/// thread-striped cache line, reads sum the stripes.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    pub(crate) inner: Arc<CounterInner>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.shards[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (sum over stripes).
    pub fn value(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    pub(crate) inner: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Buckets`] distribution.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Index of the bucket value `v` falls into: its bit length, clamped.
fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`; the last bucket is
/// unbounded).
fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The one distribution type: power-of-two buckets (bucket `i` counts
/// values of bit length `i`) plus count and sum. It backs [`Histogram`],
/// every span's duration aggregate and [`crate::OpClassStats`].
/// Observation is three relaxed atomic adds; `clone` takes a snapshot.
#[derive(Debug)]
pub struct Buckets {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Clone for Buckets {
    fn clone(&self) -> Self {
        let load = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        Buckets {
            counts: std::array::from_fn(|i| load(&self.counts[i])),
            count: load(&self.count),
            sum: load(&self.sum),
        }
    }
}

impl Buckets {
    /// Inclusive upper bound of the bucket a value `v` lands in.
    pub fn bound_of(v: u64) -> u64 {
        bucket_bound(bucket_index(v))
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        let counts = self.counts.iter().map(|c| c.load(Ordering::Relaxed)).enumerate();
        counts.filter(|&(_, c)| c > 0).map(|(i, c)| (bucket_bound(i), c)).collect()
    }

    /// Estimated quantile (`0 < q <= 1`): the inclusive upper bound of
    /// the bucket containing rank `ceil(q * count)`; zero when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count.max(1));
        let buckets = self.nonzero();
        let mut cumulative = 0u64;
        let at_rank = buckets.iter().find(|(_, n)| {
            cumulative += n;
            cumulative >= rank
        });
        at_rank.or(buckets.last()).map_or(0, |&(bound, _)| bound)
    }
}

/// A registered distribution metric.
///
/// Observation is lock-free when the owning registry is enabled, and a
/// branch on a cached bool when it is not — distribution tracking is part
/// of the *tracing* layer and obeys the enabled gate, unlike [`Counter`]s
/// which are always live. Reads go through [`Buckets`] (`Deref`).
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) enabled: bool,
    pub(crate) buckets: Arc<Buckets>,
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        if self.enabled {
            self.buckets.observe(v);
        }
    }
}

impl std::ops::Deref for Histogram {
    type Target = Buckets;

    fn deref(&self) -> &Buckets {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
    }

    fn histogram(enabled: bool) -> Histogram {
        Histogram { enabled, buckets: Arc::default() }
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = histogram(true);
        for v in [0, 1, 5, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1011);
        assert!(h.nonzero().contains(&(7, 2)), "two values of bit length 3");
    }

    #[test]
    fn histogram_quantiles_walk_buckets() {
        let h = histogram(true);
        assert_eq!(h.quantile(0.5), 0, "empty histogram quantiles are zero");
        for _ in 0..997 {
            h.observe(10);
        }
        for _ in 0..2 {
            h.observe(1000);
        }
        h.observe(100_000);
        assert_eq!(h.quantile(0.50), Buckets::bound_of(10));
        assert_eq!(h.quantile(0.99), Buckets::bound_of(10));
        assert_eq!(h.quantile(0.999), Buckets::bound_of(1000));
        assert_eq!(h.quantile(1.0), Buckets::bound_of(100_000));
        assert_eq!(h.buckets.as_ref().clone().nonzero(), h.nonzero(), "clone is a snapshot");
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let h = histogram(false);
        h.observe(42);
        assert_eq!(h.count(), 0);
    }
}
