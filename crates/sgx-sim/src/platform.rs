//! The simulated platform: one untrusted host plus one enclave.
//!
//! [`Platform`] bundles the virtual [`Clock`], the [`CostModel`], the EPC
//! residency state and the event counters. Every other crate in the
//! workspace charges its work through these methods, so all latencies and
//! statistics are produced in one place.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::attrib::{self, Attribution, TimeSplit};
use crate::clock::Clock;
use crate::cost::{CostModel, PAGE_SIZE};
use crate::epc::{EpcState, PageId};
use crate::serial::{SerialClass, SerialSection, SERIAL_CLASSES};
use crate::stats::{PlatformStats, StatsSnapshot};

/// A handle to one enclave memory allocation.
///
/// Obtained from [`Platform::enclave_alloc`]; pass it back to
/// [`Platform::enclave_touch`] to model reads/writes of that memory and to
/// [`Platform::enclave_free`] when the allocation dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveRegion {
    id: u64,
    len: usize,
}

impl EnclaveRegion {
    /// Size of the allocation in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the allocation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The simulated SGX machine shared by all components.
///
/// Cheap to clone through [`Arc`]; thread-safe throughout.
///
/// # Examples
///
/// ```
/// use sgx_sim::{CostModel, Platform};
///
/// let p = Platform::new(CostModel::paper_defaults());
/// let region = p.enclave_alloc(64 * 1024);
/// p.enclave_touch(&region, 0, 4096); // faults one page in
/// assert_eq!(p.stats().epc_page_ins, 1);
/// ```
#[derive(Debug)]
pub struct Platform {
    clock: Arc<Clock>,
    cost: CostModel,
    stats: PlatformStats,
    epc: Mutex<EpcState>,
    next_region: AtomicU64,
    enclave_alloc_bytes: AtomicU64,
    serial_ns: [AtomicU64; SERIAL_CLASSES],
    /// Virtual time by world: `[enclave, host, boundary]` (see
    /// [`TimeSplit`]).
    world_ns: [AtomicU64; 3],
}

impl Platform {
    /// Creates a platform with the given cost model.
    pub fn new(cost: CostModel) -> Arc<Self> {
        let epc = EpcState::new(cost.epc_pages().max(1));
        Arc::new(Platform {
            clock: Clock::new(),
            cost,
            stats: PlatformStats::new(),
            epc: Mutex::new(epc),
            next_region: AtomicU64::new(1),
            enclave_alloc_bytes: AtomicU64::new(0),
            serial_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            world_ns: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// Creates a platform with [`CostModel::paper_defaults`].
    pub fn with_defaults() -> Arc<Self> {
        Self::new(CostModel::paper_defaults())
    }

    /// The platform's virtual clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Snapshot of the event counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Advances virtual time by a raw amount (used by substrates that have
    /// costs not covered by a dedicated charge method).
    pub fn advance(&self, ns: u64) {
        self.tick(ns);
    }

    /// Advances the clock, attributing the time to any serial sections open
    /// on the calling thread and to the thread's current world.
    fn tick(&self, ns: u64) {
        self.tick_attr(ns, Attribution::CurrentWorld);
    }

    /// [`Self::tick`] with an explicit world attribution. Every charge
    /// method funnels through here.
    fn tick_attr(&self, ns: u64, attr: Attribution) {
        self.clock.advance_ns(ns);
        let mask = crate::serial::active_mask();
        if mask != 0 {
            for (i, slot) in self.serial_ns.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    slot.fetch_add(ns, Ordering::Relaxed);
                }
            }
        }
        let bucket = attrib::note_time(ns, attr);
        self.world_ns[bucket].fetch_add(ns, Ordering::Relaxed);
    }

    /// The platform's virtual time split into enclave / host / boundary
    /// buckets. The three buckets sum to the total time this platform has
    /// charged.
    pub fn time_split(&self) -> TimeSplit {
        TimeSplit {
            enclave_ns: self.world_ns[0].load(Ordering::Relaxed),
            host_ns: self.world_ns[1].load(Ordering::Relaxed),
            boundary_ns: self.world_ns[2].load(Ordering::Relaxed),
        }
    }

    /// Opens a critical section of `class`: until the returned guard drops,
    /// all virtual time charged by this thread is also accumulated as
    /// serial time of that class (read back via [`Platform::serial_snapshot`]).
    pub fn serial_section(&self, class: SerialClass) -> SerialSection {
        SerialSection::enter(class)
    }

    /// Cumulative virtual nanoseconds charged inside each class's sections,
    /// indexed by [`SerialClass`].
    pub fn serial_snapshot(&self) -> [u64; SERIAL_CLASSES] {
        std::array::from_fn(|i| self.serial_ns[i].load(Ordering::Relaxed))
    }

    // ----- world switches ---------------------------------------------

    /// Charges one ECall (host → enclave switch) and runs `f` "inside":
    /// virtual time charged by `f` on this thread is attributed to the
    /// enclave until it returns.
    pub fn ecall<T>(&self, f: impl FnOnce() -> T) -> T {
        PlatformStats::add(&self.stats.ecalls, 1);
        attrib::note_transition(1, 0);
        self.tick_attr(self.cost.ecall_ns, Attribution::Boundary);
        let _world = attrib::enclave_scope();
        f()
    }

    /// Charges one ECall carrying `payload_bytes` of arguments and runs `f`
    /// "inside": one fixed transition cost plus per-byte marshalling (the
    /// argument copy crosses the enclave boundary through the MEE).
    ///
    /// This is how a *batch* ECall must be charged: the transition is paid
    /// once however many records ride along, while marshalling scales with
    /// the payload — a flat [`Platform::ecall`] would make a 1000-record
    /// batch as cheap to pass as a 1-record one.
    pub fn ecall_with_payload<T>(&self, payload_bytes: usize, f: impl FnOnce() -> T) -> T {
        PlatformStats::add(&self.stats.ecalls, 1);
        attrib::note_transition(1, 0);
        self.tick_attr(self.cost.ecall_ns, Attribution::Boundary);
        if payload_bytes > 0 {
            self.cross_copy(payload_bytes);
        }
        let _world = attrib::enclave_scope();
        f()
    }

    /// Charges one OCall (enclave → host switch) and runs `f` "outside":
    /// virtual time charged by `f` on this thread is attributed to the
    /// host until it returns.
    pub fn ocall<T>(&self, f: impl FnOnce() -> T) -> T {
        PlatformStats::add(&self.stats.ocalls, 1);
        attrib::note_transition(0, 1);
        self.tick_attr(self.cost.ocall_ns, Attribution::Boundary);
        let _world = attrib::host_scope();
        f()
    }

    // ----- memory traffic ----------------------------------------------

    /// Charges a copy of `len` bytes across the enclave boundary.
    pub fn cross_copy(&self, len: usize) {
        PlatformStats::add(&self.stats.cross_copy_bytes, len as u64);
        attrib::note_cross_bytes(len as u64);
        self.tick_attr(
            CostModel::copy_cost(self.cost.cross_copy_ns_per_kb, len),
            Attribution::Boundary,
        );
    }

    /// Charges an access of `len` bytes in ordinary untrusted DRAM.
    pub fn dram_access(&self, len: usize) {
        PlatformStats::add(&self.stats.dram_bytes, len as u64);
        self.tick(CostModel::copy_cost(self.cost.dram_ns_per_kb, len));
    }

    /// Charges hashing of `len` bytes (SHA-256) on the virtual clock.
    pub fn charge_hash(&self, len: usize) {
        self.charge_hash_blocks(CostModel::hash_blocks(len));
    }

    /// Charges `blocks` SHA-256 blocks at once: what the
    /// [`Platform::charge_hash`] calls whose [`CostModel::hash_blocks`] sum
    /// to `blocks` charge one by one — the price is linear in blocks — for
    /// a verifier that tallies its hashing and settles once per query.
    pub fn charge_hash_blocks(&self, blocks: u64) {
        PlatformStats::add(&self.stats.hash_blocks, blocks);
        self.tick(blocks * self.cost.hash_ns_per_block);
    }

    // ----- disk ----------------------------------------------------------

    /// Charges one random-access (seek) penalty on the simulated disk.
    pub fn charge_disk_seek(&self) {
        PlatformStats::add(&self.stats.disk_seeks, 1);
        self.tick(self.cost.disk_seek_ns);
    }

    /// Charges a sequential transfer of `len` bytes on the simulated disk.
    pub fn charge_disk_transfer(&self, len: usize) {
        PlatformStats::add(&self.stats.disk_bytes, len as u64);
        self.tick(CostModel::copy_cost(self.cost.disk_ns_per_kb, len));
    }

    /// Charges the fixed per-operation bookkeeping cost.
    pub fn charge_op_base(&self) {
        self.tick(self.cost.op_base_ns);
    }

    // ----- trusted counter ----------------------------------------------

    /// Charges one trusted monotonic-counter write.
    pub fn charge_counter_write(&self) {
        PlatformStats::add(&self.stats.counter_writes, 1);
        self.tick(self.cost.counter_write_ns);
    }

    /// Charges one trusted monotonic-counter read.
    pub fn charge_counter_read(&self) {
        self.tick(self.cost.counter_read_ns);
    }

    // ----- enclave memory -------------------------------------------------

    /// Allocates `len` bytes of enclave virtual memory.
    ///
    /// Allocation itself is cheap; the cost comes from touching the pages
    /// ([`Platform::enclave_touch`]) once the working set exceeds the EPC.
    pub fn enclave_alloc(&self, len: usize) -> EnclaveRegion {
        let id = self.next_region.fetch_add(1, Ordering::Relaxed);
        self.enclave_alloc_bytes.fetch_add(len as u64, Ordering::Relaxed);
        EnclaveRegion { id, len }
    }

    /// Frees an enclave allocation, dropping its EPC residency.
    pub fn enclave_free(&self, region: EnclaveRegion) {
        self.enclave_alloc_bytes.fetch_sub(region.len as u64, Ordering::Relaxed);
        self.epc.lock().evict_region(region.id);
    }

    /// Total enclave virtual memory currently allocated.
    pub fn enclave_allocated_bytes(&self) -> u64 {
        self.enclave_alloc_bytes.load(Ordering::Relaxed)
    }

    /// Models the enclave reading/writing `len` bytes at `offset` within
    /// `region`: touches every covered EPC page (charging page-ins/outs as
    /// needed) and charges the in-enclave copy cost.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the allocation (the simulated equivalent
    /// of an enclave segfault).
    pub fn enclave_touch(&self, region: &EnclaveRegion, offset: usize, len: usize) {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= region.len),
            "enclave access out of bounds: {offset}+{len} > {}",
            region.len
        );
        if len == 0 {
            return;
        }
        let first = (offset / PAGE_SIZE) as u64;
        let last = ((offset + len - 1) / PAGE_SIZE) as u64;
        let mut page_ins = 0u64;
        let mut page_outs = 0u64;
        {
            let mut epc = self.epc.lock();
            for page in first..=last {
                let outcome = epc.touch(PageId { region: region.id, page });
                page_ins += u64::from(outcome.page_in);
                page_outs += u64::from(outcome.page_out);
            }
        }
        if page_ins > 0 {
            PlatformStats::add(&self.stats.epc_page_ins, page_ins);
            self.tick_attr(page_ins * self.cost.epc_page_in_ns, Attribution::Enclave);
        }
        if page_outs > 0 {
            PlatformStats::add(&self.stats.epc_page_outs, page_outs);
            self.tick_attr(page_outs * self.cost.epc_page_out_ns, Attribution::Enclave);
        }
        PlatformStats::add(&self.stats.enclave_copy_bytes, len as u64);
        self.tick_attr(
            CostModel::copy_cost(self.cost.enclave_copy_ns_per_kb, len),
            Attribution::Enclave,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Platform {
        /// Current EPC residency, in pages.
        fn epc_resident_pages(&self) -> usize {
            self.epc.lock().resident()
        }
    }

    fn tiny_platform(epc_pages: usize) -> Arc<Platform> {
        Platform::new(CostModel::paper_defaults().with_epc_bytes(epc_pages * PAGE_SIZE))
    }

    #[test]
    fn ecall_ocall_charge_and_count() {
        let p = Platform::with_defaults();
        let v = p.ecall(|| 41) + 1;
        assert_eq!(v, 42);
        p.ocall(|| ());
        let s = p.stats();
        assert_eq!((s.ecalls, s.ocalls), (1, 1));
        assert_eq!(p.clock().now_ns(), p.cost().ecall_ns + p.cost().ocall_ns);
    }

    #[test]
    fn batch_ecall_charges_one_transition_plus_marshalling() {
        // Pin the batch cost model: one fixed transition however many
        // records ride along, plus a cross-boundary copy of the payload.
        let p = Platform::with_defaults();
        let t0 = p.clock().now_ns();
        p.ecall_with_payload(32 * 1024, || ());
        let charged = p.clock().now_ns() - t0;
        let expected =
            p.cost().ecall_ns + CostModel::copy_cost(p.cost().cross_copy_ns_per_kb, 32 * 1024);
        assert_eq!(charged, expected);
        let s = p.stats();
        assert_eq!(s.ecalls, 1, "a batch is one transition");
        assert_eq!(s.cross_copy_bytes, 32 * 1024, "arguments are marshalled byte for byte");
        // An empty payload degenerates to the flat transition cost.
        let t1 = p.clock().now_ns();
        p.ecall_with_payload(0, || ());
        assert_eq!(p.clock().now_ns() - t1, p.cost().ecall_ns);
        // Two batched records cost less than two singleton calls as soon as
        // the payload is smaller than a transition's worth of copying.
        let singleton =
            2 * (p.cost().ecall_ns + CostModel::copy_cost(p.cost().cross_copy_ns_per_kb, 116));
        let batched = p.cost().ecall_ns + CostModel::copy_cost(p.cost().cross_copy_ns_per_kb, 232);
        assert!(batched < singleton);
    }

    #[test]
    fn time_split_accounts_every_nanosecond() {
        let p = Platform::with_defaults();
        // Host-side work, a transition, enclave-side work inside the call.
        p.dram_access(4096);
        let r = p.enclave_alloc(PAGE_SIZE);
        p.ecall_with_payload(1024, || {
            p.enclave_touch(&r, 0, PAGE_SIZE);
            p.charge_hash(256);
        });
        let split = p.time_split();
        assert_eq!(split.total_ns(), p.clock().now_ns(), "buckets must sum to the clock");
        assert!(split.host_ns > 0, "dram access is host time");
        assert!(split.boundary_ns >= p.cost().ecall_ns, "transition + marshalling");
        assert!(split.enclave_ns > 0, "paging and in-call hashing are enclave time");
        // The in-call hash was attributed to the enclave, not the host.
        let hash_ns = p.cost().hash_cost(256);
        assert!(split.enclave_ns >= hash_ns);
    }

    #[test]
    fn thread_charges_mirror_platform_charges() {
        let p = Platform::with_defaults();
        let before = crate::thread_charges();
        p.ecall(|| p.charge_hash(64));
        p.ocall(|| ());
        let d = crate::thread_charges().since(&before);
        assert_eq!((d.ecalls, d.ocalls), (1, 1));
        assert_eq!(d.ns, d.enclave_ns + d.host_ns + d.boundary_ns);
        assert_eq!(d.enclave_ns, p.cost().hash_cost(64));
        assert_eq!(d.boundary_ns, p.cost().ecall_ns + p.cost().ocall_ns);
    }

    #[test]
    fn a_host_scope_in_an_ecall_is_host_time_without_a_switch() {
        let p = Platform::with_defaults();
        let before = crate::thread_charges();
        p.ecall(|| {
            let _host = crate::host_scope();
            p.charge_disk_transfer(4096);
        });
        let d = crate::thread_charges().since(&before);
        assert_eq!((d.ecalls, d.ocalls), (1, 0), "no exit for host work");
        assert_eq!(d.host_ns, CostModel::copy_cost(p.cost().disk_ns_per_kb, 4096));
        assert_eq!(d.boundary_ns, p.cost().ecall_ns);
        assert_eq!(crate::current_world(), crate::World::Host, "the scope ends with the call");
        assert_eq!(p.time_split().total_ns(), p.clock().now_ns());
    }

    #[test]
    fn touch_within_epc_faults_once() {
        let p = tiny_platform(16);
        let r = p.enclave_alloc(8 * PAGE_SIZE);
        p.enclave_touch(&r, 0, 8 * PAGE_SIZE);
        let after_warm = p.stats().epc_page_ins;
        assert_eq!(after_warm, 8);
        p.enclave_touch(&r, 0, 8 * PAGE_SIZE);
        assert_eq!(p.stats().epc_page_ins, after_warm, "warm touches must not fault");
    }

    #[test]
    fn oversized_working_set_thrashes() {
        let p = tiny_platform(4);
        let r = p.enclave_alloc(16 * PAGE_SIZE);
        for _ in 0..5 {
            p.enclave_touch(&r, 0, 16 * PAGE_SIZE);
        }
        let s = p.stats();
        assert!(s.epc_page_ins > 16, "expected repeated faulting, got {}", s.epc_page_ins);
        assert!(s.epc_page_outs > 0);
    }

    #[test]
    fn paging_costs_dominate_when_thrashing() {
        let p_small = tiny_platform(4);
        let p_big = tiny_platform(64);
        let (rs, rb) = (p_small.enclave_alloc(32 * PAGE_SIZE), p_big.enclave_alloc(32 * PAGE_SIZE));
        for _ in 0..10 {
            p_small.enclave_touch(&rs, 0, 32 * PAGE_SIZE);
            p_big.enclave_touch(&rb, 0, 32 * PAGE_SIZE);
        }
        assert!(
            p_small.clock().now_ns() > 3 * p_big.clock().now_ns(),
            "thrashing platform should be much slower: {} vs {}",
            p_small.clock().now_ns(),
            p_big.clock().now_ns()
        );
    }

    #[test]
    fn free_releases_residency_and_bytes() {
        let p = tiny_platform(16);
        let r = p.enclave_alloc(4 * PAGE_SIZE);
        p.enclave_touch(&r, 0, 4 * PAGE_SIZE);
        assert_eq!(p.epc_resident_pages(), 4);
        p.enclave_free(r);
        assert_eq!(p.epc_resident_pages(), 0);
        assert_eq!(p.enclave_allocated_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_touch_panics() {
        let p = tiny_platform(4);
        let r = p.enclave_alloc(PAGE_SIZE);
        p.enclave_touch(&r, 0, PAGE_SIZE + 1);
    }

    #[test]
    fn disk_charges_accumulate() {
        let p = Platform::with_defaults();
        p.charge_disk_seek();
        p.charge_disk_transfer(4096);
        let s = p.stats();
        assert_eq!(s.disk_seeks, 1);
        assert_eq!(s.disk_bytes, 4096);
        assert!(p.clock().now_ns() >= p.cost().disk_seek_ns);
    }

    #[test]
    fn zero_len_touch_is_noop() {
        let p = tiny_platform(4);
        let r = p.enclave_alloc(PAGE_SIZE);
        p.enclave_touch(&r, 0, 0);
        assert_eq!(p.stats().epc_page_ins, 0);
    }
}
