//! The repeat-min estimator and the percentile helper.
//!
//! A run executes the identical op sequence R times. Interference from
//! outside the process only ever adds time and a code regression raises
//! every repetition alike, so the minimum over repetitions of one op's
//! (or one segment's) time estimates its uncontended cost.

/// Ops per throughput segment. Long enough to average micro-variation
/// inside the program (which is real cost and must stay in), short
/// enough that a multi-second slow regime covers whole segments of some
/// repetitions and none of others.
pub const SEGMENT_OPS: usize = 1000;

/// Element-wise minimum over repetitions. Every repetition must hold the
/// same number of samples.
pub fn repeat_min<'a>(reps: impl IntoIterator<Item = &'a [u64]>) -> Vec<u64> {
    let mut reps = reps.into_iter();
    let mut out = reps.next().map(<[u64]>::to_vec).unwrap_or_default();
    for rep in reps {
        assert_eq!(rep.len(), out.len(), "repetitions differ in length");
        for (lo, &t) in out.iter_mut().zip(rep) {
            *lo = (*lo).min(t);
        }
    }
    out
}

/// Sums of consecutive [`SEGMENT_OPS`]-sized chunks (the last may be
/// shorter).
pub fn segment_sums(op_ns: &[u64]) -> Vec<u64> {
    op_ns.chunks(SEGMENT_OPS).map(|seg| seg.iter().sum()).collect()
}

/// Σ over segments of the minimum over repetitions of the segment's
/// time: the repeat-min wall time of a phase, in nanoseconds.
pub fn repeat_min_phase_ns<'a>(reps_op_ns: impl IntoIterator<Item = &'a [u64]>) -> u64 {
    let segments: Vec<Vec<u64>> = reps_op_ns.into_iter().map(segment_sums).collect();
    repeat_min(segments.iter().map(Vec::as_slice)).iter().sum()
}

/// Why a percentile was refused.
#[derive(Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    pub samples: usize,
    pub beyond: usize,
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q < 1) of `sorted` by the nearest-rank rule.
/// Refused unless at least [`MIN_BEYOND`] samples lie beyond it: a tail
/// percentile resting on a handful of samples is one outlier, not a
/// distribution.
pub fn percentile(sorted: &[u64], q: f64) -> Result<u64, TooFewSamples> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(TooFewSamples { samples: n, beyond });
    }
    Ok(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic per-op cost: a sawtooth, so segments differ.
    fn clean(n: usize) -> Vec<u64> {
        (0..n).map(|i| 10_000 + (i % 97) as u64 * 13).collect()
    }

    #[test]
    fn repeat_min_recovers_clean_value_under_slow_regimes() {
        let n = 20 * SEGMENT_OPS;
        let base = clean(n);
        // Five repetitions; each spends several whole segments (and the
        // odd straddled one) in a regime that is 30-60 % slower, at
        // different places. Raw per-repetition totals are 5-15 % off.
        let regimes: [(usize, usize, u64); 5] = [
            (0, 7_500, 160),
            (3_200, 9_900, 135),
            (8_000, 20_000, 130),
            (12_345, 15_678, 150),
            (500, 4_000, 145),
        ];
        let reps: Vec<Vec<u64>> = regimes
            .iter()
            .map(|&(lo, hi, pct)| {
                base.iter()
                    .enumerate()
                    .map(|(i, &t)| if (lo..hi).contains(&i) { t * pct / 100 } else { t })
                    .collect()
            })
            .collect();
        let clean_ns: u64 = base.iter().sum();
        for rep in &reps {
            let raw: u64 = rep.iter().sum();
            assert!(raw as f64 > clean_ns as f64 * 1.04, "regimes must hurt the raw total");
        }
        assert_eq!(repeat_min_phase_ns(reps.iter().map(Vec::as_slice)), clean_ns);
        assert_eq!(repeat_min(reps.iter().map(Vec::as_slice)), base);
    }

    #[test]
    fn repeat_min_keeps_a_regression_common_to_all_repetitions() {
        let base = clean(3 * SEGMENT_OPS);
        let slower: Vec<u64> = base.iter().map(|t| t * 110 / 100).collect();
        let reps = [slower.clone(), slower.clone(), slower];
        let got = repeat_min_phase_ns(reps.iter().map(Vec::as_slice)) as f64;
        let want = base.iter().sum::<u64>() as f64 * 1.10;
        assert!((got / want - 1.0).abs() < 1e-3);
    }

    #[test]
    fn segment_sums_cover_a_short_tail() {
        let ops = vec![1u64; 2 * SEGMENT_OPS + 5];
        assert_eq!(segment_sums(&ops), vec![SEGMENT_OPS as u64, SEGMENT_OPS as u64, 5]);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.99), Ok(990));
        assert_eq!(percentile(&sorted, 0.5), Ok(500));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 0.99), Err(TooFewSamples { samples: 999, beyond: 9 }));
        assert!(percentile(&sorted, 0.999).is_err());
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&(1..=19).collect::<Vec<u64>>(), 0.5).is_err());
        assert!(percentile(&(1..=20).collect::<Vec<u64>>(), 0.5).is_ok());
    }
}
