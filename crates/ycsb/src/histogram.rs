//! Latency recording and summary statistics.

/// Collects per-operation latencies (virtual nanoseconds) and summarizes
/// them.
#[derive(Debug, Default, Clone)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyHistogram {
    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        sum as f64 / self.samples.len() as f64 / 1_000.0
    }

    fn sorted_samples(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        &self.samples
    }

    /// The `p`-th percentile (0.0–100.0) in microseconds.
    fn percentile_us(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let samples = self.sorted_samples();
        let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
        samples[rank.min(samples.len() - 1)] as f64 / 1_000.0
    }

    /// Maximum sample in microseconds.
    pub fn max_us(&self) -> f64 {
        self.samples.iter().max().copied().unwrap_or(0) as f64 / 1_000.0
    }

    /// Summarizes into a compact struct.
    pub fn summary(&mut self) -> LatencySummary {
        LatencySummary {
            count: self.count() as u64,
            mean_us: self.mean_us(),
            p50_us: self.percentile_us(50.0),
            p95_us: self.percentile_us(95.0),
            p99_us: self.percentile_us(99.0),
            p999_us: self.percentile_us(99.9),
            max_us: self.max_us(),
        }
    }
}

/// Summary statistics of a latency distribution (microseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[allow(missing_docs)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1}µs p50={:.1}µs p95={:.1}µs p99={:.1}µs p999={:.1}µs max={:.1}µs",
            self.count,
            self.mean_us,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.p999_us,
            self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.percentile_us(99.0), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn mean_and_percentiles() {
        let mut h = LatencyHistogram::default();
        for i in 1..=100u64 {
            h.record_ns(i * 1_000); // 1..100 µs
        }
        assert!((h.mean_us() - 50.5).abs() < 1e-9);
        assert!((h.percentile_us(50.0) - 50.0).abs() <= 1.0);
        assert!((h.percentile_us(99.0) - 99.0).abs() <= 1.0);
        assert_eq!(h.max_us(), 100.0);
    }

    #[test]
    fn summary_is_consistent() {
        let mut h = LatencyHistogram::default();
        h.record_ns(1_000);
        h.record_ns(3_000);
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert!((s.mean_us - 2.0).abs() < 1e-9);
        assert!(format!("{s}").contains("mean=2.0"));
    }

    #[test]
    fn recording_after_sort_still_works() {
        let mut h = LatencyHistogram::default();
        h.record_ns(5_000);
        let _ = h.percentile_us(50.0);
        h.record_ns(1_000);
        assert!((h.percentile_us(0.0) - 1.0).abs() < 1e-9);
    }
}
