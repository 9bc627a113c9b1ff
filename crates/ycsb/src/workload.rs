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
    /// paper's configuration).
    pub value_len: usize,
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
    fn workload_e_scans() {
        let w = Workload::e();
        let mut rng = seeded_rng(3);
        let scans = (0..1000).filter(|_| w.next_op(&mut rng) == Op::Scan).count();
        assert!(scans > 900);
    }
}
