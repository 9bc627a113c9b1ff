//! The SGX + storage cost model.
//!
//! All constants are in nanoseconds (or nanoseconds per unit). Defaults are
//! calibrated from published SGX measurements (Orenbach et al. EuroSys'17,
//! Arnautov et al. OSDI'16, the eLSM paper's own Figure 2/6 magnitudes):
//!
//! * an enclave world switch (ECall/OCall) costs ~8 µs,
//! * an EPC page fault (AEX + OS page handler + EWB/ELDU) costs ~30 µs,
//! * cross-boundary memcpy is ~3× slower than ordinary DRAM copy,
//! * a "disk" random read on the evaluation machine's SSD is ~85 µs seek
//!   plus ~1 µs per 4 KiB sequential transfer.
//!
//! Every number is a plain field so benchmarks can recalibrate; the shape of
//! the paper's figures is insensitive to modest changes here (the crossovers
//! are driven by the EPC-size ratio, which is exact).

/// Bytes per EPC page (SGX uses 4 KiB pages).
pub const PAGE_SIZE: usize = 4096;

/// Cost-model parameters for the simulated platform.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Enclave Page Cache capacity in bytes (hardware limit; 128 MB on the
    /// paper's CPU). Benchmarks scale this together with data sizes.
    pub epc_bytes: usize,
    /// Cost of entering the enclave (ECall).
    pub ecall_ns: u64,
    /// Cost of exiting the enclave (OCall).
    pub ocall_ns: u64,
    /// EPC page-in: AEX, OS fault handler, ELDU decrypt+verify.
    pub epc_page_in_ns: u64,
    /// EPC page-out: EWB encrypt+MAC and eviction bookkeeping.
    pub epc_page_out_ns: u64,
    /// Ordinary (untrusted) DRAM access/copy, per KiB.
    pub dram_ns_per_kb: u64,
    /// Memcpy crossing the enclave boundary, per KiB (MEE en/decryption).
    pub cross_copy_ns_per_kb: u64,
    /// Memcpy inside the enclave (resident pages), per KiB.
    pub enclave_copy_ns_per_kb: u64,
    /// SHA-256 compression, per 64-byte block.
    pub hash_ns_per_block: u64,
    /// Disk seek / random-access penalty (charged when a read is not
    /// sequential with the previous one).
    pub disk_seek_ns: u64,
    /// Disk sequential transfer, per KiB.
    pub disk_ns_per_kb: u64,
    /// Fixed CPU cost of one key-value operation's bookkeeping (index
    /// probes, comparisons); keeps tiny-data latencies non-zero.
    pub op_base_ns: u64,
    /// Trusted monotonic-counter write (TPM/ME-backed; hundreds of µs).
    pub counter_write_ns: u64,
    /// Trusted monotonic-counter read.
    pub counter_read_ns: u64,
}

impl CostModel {
    /// The paper's hardware: 128 MB EPC, SSD-backed laptop.
    pub fn paper_defaults() -> Self {
        CostModel {
            epc_bytes: 128 * 1024 * 1024,
            ecall_ns: 8_000,
            ocall_ns: 8_000,
            epc_page_in_ns: 30_000,
            epc_page_out_ns: 12_000,
            dram_ns_per_kb: 30,
            cross_copy_ns_per_kb: 95,
            enclave_copy_ns_per_kb: 35,
            hash_ns_per_block: 80,
            disk_seek_ns: 85_000,
            disk_ns_per_kb: 250,
            op_base_ns: 1_500,
            counter_write_ns: 60_000_000,
            counter_read_ns: 2_000_000,
        }
    }

    /// Same constants but with the EPC capacity scaled; used by benchmarks
    /// that scale all sizes by a constant factor.
    pub fn with_epc_bytes(mut self, epc_bytes: usize) -> Self {
        self.epc_bytes = epc_bytes;
        self
    }

    /// EPC capacity in whole pages.
    pub fn epc_pages(&self) -> usize {
        self.epc_bytes / PAGE_SIZE
    }

    /// Cost of copying `len` bytes at `ns_per_kb`, rounding up so a 1-byte
    /// copy still costs something.
    pub fn copy_cost(ns_per_kb: u64, len: usize) -> u64 {
        (ns_per_kb * len as u64).div_ceil(1024)
    }

    /// Cost of hashing `len` bytes with SHA-256.
    ///
    /// Callers that verify Merkle paths add 64 bytes per interior node (two
    /// child digests) to the bytes of one hash, so the model prices a node
    /// at **one** block: the one compression `merkle::node_hash` runs
    /// (DESIGN.md §5).
    pub fn hash_cost(&self, len: usize) -> u64 {
        Self::hash_blocks(len) * self.hash_ns_per_block
    }

    /// SHA-256 blocks the model prices hashing `len` bytes at: one extra
    /// block for padding and finalization.
    pub fn hash_blocks(len: usize) -> u64 {
        (len / 64 + 1) as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CostModel::default();
        assert_eq!(c.epc_pages(), 128 * 1024 * 1024 / 4096);
        assert!(c.epc_page_in_ns > c.ecall_ns, "paging must dominate switches");
        assert!(c.cross_copy_ns_per_kb > c.dram_ns_per_kb);
    }

    #[test]
    fn copy_cost_rounds_up() {
        assert_eq!(CostModel::copy_cost(100, 1), 1);
        assert_eq!(CostModel::copy_cost(100, 1024), 100);
        assert_eq!(CostModel::copy_cost(100, 2048), 200);
        assert_eq!(CostModel::copy_cost(100, 0), 0);
    }

    #[test]
    fn hash_cost_scales_with_blocks() {
        let c = CostModel::default();
        assert_eq!(c.hash_cost(0), c.hash_ns_per_block);
        assert_eq!(c.hash_cost(64), 2 * c.hash_ns_per_block);
        assert_eq!(c.hash_cost(640), 11 * c.hash_ns_per_block);
    }

    #[test]
    fn epc_override() {
        let c = CostModel::default().with_epc_bytes(4096 * 10);
        assert_eq!(c.epc_pages(), 10);
    }
}
