//! YCSB core workloads A–F plus parameterized mixes.

use rand::rngs::StdRng;
use rand::Rng;

/// One operation drawn from a workload mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read of an existing key.
    Read,
    /// Overwrite of an existing key.
    Update,
    /// Insert of a fresh key.
    Insert,
    /// Short range scan.
    Scan,
    /// Read-modify-write of an existing key.
    ReadModifyWrite,
}

/// Distribution of generated value sizes (bytes).
///
/// The classic YCSB field set is a fixed ~100 B payload; real deployments
/// mix small and large values, which is exactly the regime key-value
/// separation targets. `Uniform` and `Zipfian` draw from a `[min, max]`
/// byte range; `Zipfian` makes *small* sizes popular (the long-tail shape
/// of production stores: most values tiny, a heavy tail of big ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSizeDist {
    /// Every value is exactly this many bytes.
    Fixed(usize),
    /// Uniformly random length in `[min, max]`.
    Uniform {
        /// Smallest value length.
        min: usize,
        /// Largest value length.
        max: usize,
    },
    /// Skewed toward `min`: the range splits into geometric buckets and
    /// bucket ranks are drawn with harmonic (θ = 1 Zipf) weights, so the
    /// smallest bucket is the hottest and each doubling of size is
    /// roughly half as likely.
    Zipfian {
        /// Smallest value length.
        min: usize,
        /// Largest value length.
        max: usize,
    },
}

impl ValueSizeDist {
    /// Parses `"fixed:N"`, `"uniform:MIN-MAX"` or `"zipfian:MIN-MAX"`.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs (the CLI surfaces the spec verbatim).
    pub fn by_name(spec: &str) -> Self {
        let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
        let range = || {
            let (lo, hi) = rest.split_once('-').expect("expected MIN-MAX byte range");
            (lo.parse().expect("bad min"), hi.parse().expect("bad max"))
        };
        match kind {
            "fixed" => ValueSizeDist::Fixed(rest.parse().expect("bad fixed length")),
            "uniform" => {
                let (min, max) = range();
                ValueSizeDist::Uniform { min, max }
            }
            "zipfian" => {
                let (min, max) = range();
                ValueSizeDist::Zipfian { min, max }
            }
            other => panic!("unknown value-size distribution {other:?}"),
        }
    }

    /// Draws one value length.
    pub fn draw(&self, rng: &mut StdRng) -> usize {
        match *self {
            ValueSizeDist::Fixed(len) => len,
            ValueSizeDist::Uniform { min, max } => rng.gen_range(min..=max.max(min)),
            ValueSizeDist::Zipfian { min, max } => {
                const BUCKETS: i32 = 8;
                // Harmonic rank weights: P(rank r) ∝ 1/(r+1).
                let total: f64 = (0..BUCKETS).map(|r| 1.0 / (r + 1) as f64).sum();
                let mut u = rng.gen::<f64>() * total;
                let mut rank = BUCKETS - 1;
                for r in 0..BUCKETS {
                    u -= 1.0 / (r + 1) as f64;
                    if u <= 0.0 {
                        rank = r;
                        break;
                    }
                }
                // Geometric bucket bounds over [min, max]: bucket r spans
                // sizes proportional to [2^r - 1, 2^(r+1) - 1).
                let span = (max.max(min) - min) as f64;
                let denom = 2f64.powi(BUCKETS) - 1.0;
                let lo = min + (span * (2f64.powi(rank) - 1.0) / denom) as usize;
                let hi = min + (span * (2f64.powi(rank + 1) - 1.0) / denom) as usize;
                rng.gen_range(lo..=hi.max(lo))
            }
        }
    }
}

/// A workload specification (operation mix + key distribution).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name ("A", "B", … or "read70").
    pub name: String,
    /// Percent of reads.
    pub read_pct: u32,
    /// Percent of updates.
    pub update_pct: u32,
    /// Percent of inserts.
    pub insert_pct: u32,
    /// Percent of scans.
    pub scan_pct: u32,
    /// Percent of read-modify-writes.
    pub rmw_pct: u32,
    /// Key distribution name: "uniform", "zipfian" or "latest".
    pub distribution: String,
    /// Value size in bytes (YCSB default field set ≈ 100 bytes in the
    /// paper's configuration). Used when `value_dist` is `None`.
    pub value_len: usize,
    /// Optional value-size distribution; overrides `value_len` when set.
    pub value_dist: Option<ValueSizeDist>,
    /// Maximum scan length in keys.
    pub max_scan_len: usize,
}

impl Workload {
    fn mix(name: &str, r: u32, u: u32, i: u32, s: u32, m: u32, dist: &str) -> Self {
        debug_assert_eq!(r + u + i + s + m, 100);
        Workload {
            name: name.to_string(),
            read_pct: r,
            update_pct: u,
            insert_pct: i,
            scan_pct: s,
            rmw_pct: m,
            distribution: dist.to_string(),
            value_len: 100,
            value_dist: None,
            max_scan_len: 20,
        }
    }

    /// Workload A: 50 % reads, 50 % updates, zipfian (update heavy).
    pub fn a() -> Self {
        Self::mix("A", 50, 50, 0, 0, 0, "zipfian")
    }

    /// Workload B: 95 % reads, 5 % updates, zipfian (read heavy).
    pub fn b() -> Self {
        Self::mix("B", 95, 5, 0, 0, 0, "zipfian")
    }

    /// Workload C: 100 % reads, zipfian (read only).
    pub fn c() -> Self {
        Self::mix("C", 100, 0, 0, 0, 0, "zipfian")
    }

    /// Workload D: 95 % reads of recent keys, 5 % inserts (read latest).
    pub fn d() -> Self {
        Self::mix("D", 95, 0, 5, 0, 0, "latest")
    }

    /// Workload E: 95 % short scans, 5 % inserts (scan heavy).
    pub fn e() -> Self {
        Self::mix("E", 0, 0, 5, 95, 0, "zipfian")
    }

    /// Workload F: 50 % reads, 50 % read-modify-writes, zipfian.
    pub fn f() -> Self {
        Self::mix("F", 50, 0, 0, 0, 50, "zipfian")
    }

    /// The paper's Figure 5a sweep: `read_pct` reads, rest updates,
    /// uniform keys.
    pub fn read_ratio(read_pct: u32) -> Self {
        Self::mix(&format!("read{read_pct}"), read_pct, 100 - read_pct, 0, 0, 0, "uniform")
    }

    /// Same mix with a different key distribution (Figure 5c).
    pub fn with_distribution(mut self, dist: &str) -> Self {
        self.distribution = dist.to_string();
        self
    }

    /// Same mix with a different value size.
    pub fn with_value_len(mut self, len: usize) -> Self {
        self.value_len = len;
        self
    }

    /// Draws the value length for the next write: the configured
    /// distribution when set, the fixed `value_len` otherwise.
    pub fn draw_value_len(&self, rng: &mut StdRng) -> usize {
        match self.value_dist {
            Some(dist) => dist.draw(rng),
            None => self.value_len,
        }
    }

    /// Draws the next operation type.
    pub fn next_op(&self, rng: &mut StdRng) -> Op {
        let x = rng.gen_range(0..100u32);
        if x < self.read_pct {
            Op::Read
        } else if x < self.read_pct + self.update_pct {
            Op::Update
        } else if x < self.read_pct + self.update_pct + self.insert_pct {
            Op::Insert
        } else if x < self.read_pct + self.update_pct + self.insert_pct + self.scan_pct {
            Op::Scan
        } else {
            Op::ReadModifyWrite
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::seeded_rng;

    impl Workload {
        /// Same mix drawing value sizes from `dist` instead of the fixed
        /// `value_len`.
        fn with_value_dist(mut self, dist: ValueSizeDist) -> Self {
            self.value_dist = Some(dist);
            self
        }
    }

    #[test]
    fn standard_mixes_sum_to_100() {
        for w in [
            Workload::a(),
            Workload::b(),
            Workload::c(),
            Workload::d(),
            Workload::e(),
            Workload::f(),
        ] {
            assert_eq!(
                w.read_pct + w.update_pct + w.insert_pct + w.scan_pct + w.rmw_pct,
                100,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn op_mix_matches_spec() {
        let w = Workload::a();
        let mut rng = seeded_rng(1);
        let mut reads = 0;
        let n = 100_000;
        for _ in 0..n {
            if w.next_op(&mut rng) == Op::Read {
                reads += 1;
            }
        }
        let pct = reads * 100 / n;
        assert!((48..=52).contains(&pct), "A should be ~50% reads, got {pct}%");
    }

    #[test]
    fn read_ratio_sweep() {
        let w = Workload::read_ratio(70);
        assert_eq!(w.read_pct, 70);
        assert_eq!(w.update_pct, 30);
        assert_eq!(w.distribution, "uniform");
    }

    #[test]
    fn workload_c_is_read_only() {
        let w = Workload::c();
        let mut rng = seeded_rng(2);
        for _ in 0..1000 {
            assert_eq!(w.next_op(&mut rng), Op::Read);
        }
    }

    #[test]
    fn value_dist_fixed_and_fallback() {
        let mut rng = seeded_rng(4);
        let w = Workload::a();
        assert_eq!(w.draw_value_len(&mut rng), 100, "no dist falls back to value_len");
        let w = Workload::a().with_value_dist(ValueSizeDist::Fixed(16 * 1024));
        for _ in 0..10 {
            assert_eq!(w.draw_value_len(&mut rng), 16 * 1024);
        }
    }

    #[test]
    fn value_dist_uniform_stays_in_range_and_spreads() {
        let mut rng = seeded_rng(5);
        let d = ValueSizeDist::Uniform { min: 1024, max: 102_400 };
        let draws: Vec<usize> = (0..10_000).map(|_| d.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&l| (1024..=102_400).contains(&l)));
        let mean = draws.iter().sum::<usize>() / draws.len();
        let mid = (1024 + 102_400) / 2;
        assert!(
            (mean as i64 - mid as i64).unsigned_abs() < 5_000,
            "uniform mean should sit near the midpoint, got {mean}"
        );
    }

    #[test]
    fn value_dist_zipfian_prefers_small_sizes() {
        let mut rng = seeded_rng(6);
        let d = ValueSizeDist::Zipfian { min: 1024, max: 102_400 };
        let draws: Vec<usize> = (0..10_000).map(|_| d.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&l| (1024..=102_400).contains(&l)));
        let small = draws.iter().filter(|&&l| l < 16 * 1024).count();
        assert!(
            small * 100 / draws.len() > 55,
            "small sizes should dominate a zipfian draw, got {}%",
            small * 100 / draws.len()
        );
        let huge = draws.iter().filter(|&&l| l > 64 * 1024).count();
        assert!(huge > 0, "the tail must still appear");
    }

    #[test]
    fn value_dist_parses_by_name() {
        assert_eq!(ValueSizeDist::by_name("fixed:4096"), ValueSizeDist::Fixed(4096));
        assert_eq!(
            ValueSizeDist::by_name("uniform:1024-65536"),
            ValueSizeDist::Uniform { min: 1024, max: 65536 }
        );
        assert_eq!(
            ValueSizeDist::by_name("zipfian:1024-102400"),
            ValueSizeDist::Zipfian { min: 1024, max: 102_400 }
        );
    }

    #[test]
    fn workload_e_scans() {
        let w = Workload::e();
        let mut rng = seeded_rng(3);
        let scans = (0..1000).filter(|_| w.next_op(&mut rng) == Op::Scan).count();
        assert!(scans > 900);
    }
}
