//! Unit scaling between the paper's hardware and the simulation.
//!
//! Every effect in the paper's evaluation is a *ratio* (working set vs.
//! EPC, buffer vs. data size), so all sizes are scaled by one constant:
//! by default **1 paper-MB = 1 KiB simulated**. The 128 MB EPC becomes
//! 128 KiB (32 pages), a 3 GB dataset becomes 3 MiB (~27 k records of the
//! paper's 16 B keys + 100 B values), and every crossover lands at the
//! same paper-unit coordinate. Axes are always reported in paper units.

use sgx_sim::CostModel;

/// Paper record size: 16-byte key + 100-byte value (§6.1).
const KEY_BYTES: usize = 16;
/// Paper value size.
pub const VALUE_BYTES: usize = 100;

/// The scaling rule.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Simulated bytes per paper megabyte.
    pub bytes_per_paper_mb: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { bytes_per_paper_mb: 1024 }
    }
}

impl Scale {
    /// Converts paper megabytes to simulated bytes.
    pub fn mb(&self, paper_mb: u64) -> u64 {
        paper_mb * self.bytes_per_paper_mb
    }

    /// Converts paper gigabytes to simulated bytes.
    pub fn gb(&self, paper_gb: f64) -> u64 {
        (paper_gb * 1024.0 * self.bytes_per_paper_mb as f64) as u64
    }

    /// Number of records representing `paper_gb` of data.
    pub fn records_for_gb(&self, paper_gb: f64) -> u64 {
        self.gb(paper_gb) / (KEY_BYTES + VALUE_BYTES) as u64
    }

    /// Number of records representing `paper_mb` of data.
    pub fn records_for_mb(&self, paper_mb: u64) -> u64 {
        self.mb(paper_mb) / (KEY_BYTES + VALUE_BYTES) as u64
    }

    /// The paper CPU's cost model with the EPC scaled to match
    /// (128 paper-MB).
    pub fn cost_model(&self) -> CostModel {
        CostModel::paper_defaults().with_epc_bytes(self.mb(128) as usize)
    }

    /// The paper's 4 MB write buffer, scaled.
    pub fn write_buffer_bytes(&self) -> usize {
        self.mb(4) as usize
    }

    /// The paper's LevelDB level-1 budget (10 MB), scaled.
    pub fn level1_bytes(&self) -> u64 {
        self.mb(10)
    }

    /// Target SSTable file size (2 MB in LevelDB), scaled.
    pub fn file_bytes(&self) -> u64 {
        self.mb(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratios_match_paper() {
        let s = Scale::default();
        // 128 MB EPC / 4 MB write buffer = 32, preserved.
        assert_eq!(s.cost_model().epc_bytes / s.write_buffer_bytes(), 32);
        // 3 GB ≈ 26-27k records at 116 B/record.
        let r = s.records_for_gb(3.0);
        assert!((26_000..28_000).contains(&r), "{r}");
    }

    #[test]
    fn epc_pages_scale() {
        let s = Scale::default();
        assert_eq!(s.cost_model().epc_pages(), 32);
    }
}
