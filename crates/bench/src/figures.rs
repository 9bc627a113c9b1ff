//! One regeneration function per table/figure of the paper.
//!
//! Each function is a sweep table and its columns: every cell builds a
//! system under test (`systems::Sut`) on its own simulated machines, loads the
//! scaled dataset, drives the paper's workload through the one YCSB
//! scheduler ([`ycsb::run_phase`]) and records the measurement
//! ([`crate::results`]); the function returns a [`Table`] whose rows
//! mirror the figure's series. Latencies are *simulated microseconds* on
//! the virtual clock; size axes are paper units (see
//! [`crate::scale::Scale`]).

use elsm::{ElsmP1, ElsmP2, P1Options, P2Options, ReadMode};
use elsm_baselines::{open_unsecured_with, MbtStore, UnsecuredOptions};
use sim_disk::{SimDisk, SimFs};
use ycsb::{KvDriver, Phase, Table, Workload, CLIENT_SEED_MIX};

use crate::drivers::{InPlace, Verified};
use crate::results::{note_concurrent, note_concurrent_gauges, note_run_gauges, set_figure};
use crate::scale::{Scale, VALUE_BYTES};
use crate::systems::{
    buffered, eleos, leveldb_outside, machine, mix, open_p1, open_p2, open_unsecured, p1,
    p1_options, p2, p2_options, reads, replicated_p2, replicated_unsecured, sharded_p2,
    sharded_unsecured, sut_p1, sut_p2, sut_unsecured, unsecured_options, writes, Cell, Sut,
};

/// Run-size knobs (quick mode keeps CI fast; full mode for the record).
#[derive(Debug, Clone, Copy)]
pub struct FigOpts {
    /// Use fewer sweep points and operations.
    pub quick: bool,
}

impl FigOpts {
    fn ops(&self) -> u64 {
        if self.quick {
            1_500
        } else {
            6_000
        }
    }
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// Figure 2: read latency with the read buffer inside vs. outside the
/// enclave, 5 GB disk-resident dataset, buffer swept 4 MB → 2048 MB.
pub fn fig2(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig2");
    let buffers: &[u64] = if opts.quick {
        &[4, 32, 128, 600, 2000]
    } else {
        &[4, 8, 16, 32, 64, 128, 200, 400, 600, 800, 1000, 1500, 2000]
    };
    let cell = reads(scale.records_for_gb(5.0), opts.ops());
    let mut table = Table::new(
        "Figure 2: buffer placement, 5 GB disk-resident data (latency µs/op)",
        &["buffer_mb", "outside_enclave", "inside_enclave_p1"],
    );
    // 5 GB ≫ memory: reads hit disk.
    let small_memory_machine = || {
        let platform = machine(scale);
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        fs.set_os_cache_limit(scale.mb(64));
        (platform, fs)
    };
    for &buf in buffers {
        // Outside: code in enclave, user-space buffer in untrusted memory.
        let (platform, fs) = small_memory_machine();
        let options = unsecured_options(scale, true, buffered(scale, buf));
        let outside = sut_unsecured(open_unsecured_with(platform, fs, options).expect("open"));
        // Inside: eLSM-P1's enclave buffer (plus SDK file protection).
        let (platform, fs) = small_memory_machine();
        let inside = sut_p1(ElsmP1::open_with(platform, fs, p1_options(scale, buf)).expect("open"));
        table.row_f64(buf, &[outside.latency(&cell), inside.latency(&cell)]);
    }
    table
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: the design-choice matrix (descriptive).
pub fn table1(_scale: &Scale, _opts: FigOpts) -> Table {
    let mut t = Table::new(
        "Table 1: design choices of eLSM-P1 and eLSM-P2",
        &["design", "code placement", "data placement", "digest structure"],
    );
    t.row(vec![
        "eLSM-P1 (§4.1)".into(),
        "inside enclave".into(),
        "inside enclave".into(),
        "file granularity (sealed blocks)".into(),
    ]);
    t.row(vec![
        "eLSM-P2 (§5)".into(),
        "inside enclave".into(),
        "outside enclave".into(),
        "record granularity (Merkle forest)".into(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// Eleos' latency column; the paper's Eleos scales only to 1 GB.
fn eleos_column(scale: &Scale, within_capacity: bool, cell: &Cell) -> String {
    if within_capacity {
        format!("{:.1}", eleos(scale).latency(cell))
    } else {
        "n/a (>1GB)".to_string()
    }
}

/// Figure 5a: operation latency vs. read percentage (uniform keys, 3 GB).
pub fn fig5a(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig5a");
    let points: &[u32] =
        if opts.quick { &[0, 30, 70, 100] } else { &[0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100] };
    let records = scale.records_for_gb(if opts.quick { 1.0 } else { 3.0 });
    let mut table = Table::new(
        "Figure 5a: latency vs read ratio, 3 GB uniform (µs/op)",
        &["read_pct", "elsm_p2_mmap", "elsm_p1", "leveldb_unsecure"],
    );
    for &pct in points {
        let cell = mix(&Workload::read_ratio(pct), records, opts.ops());
        table.row_f64(
            pct,
            &[
                p2(scale, ReadMode::Mmap).latency(&cell),
                p1(scale, 64).latency(&cell),
                leveldb_outside(scale).latency(&cell),
            ],
        );
    }
    table
}

/// Figure 5b: latency vs. data size under YCSB-A (zipfian 50/50).
pub fn fig5b(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig5b");
    let sizes: &[f64] = if opts.quick { &[0.6, 1.0, 3.0] } else { &[0.6, 0.8, 1.0, 2.0, 3.0] };
    let mut table = Table::new(
        "Figure 5b: YCSB-A latency vs data size (µs/op)",
        &["data_gb", "elsm_p2_mmap", "elsm_p1", "eleos"],
    );
    for &gb in sizes {
        let cell = mix(&Workload::a(), scale.records_for_gb(gb), opts.ops());
        table.row(vec![
            format!("{gb:.1}"),
            format!("{:.1}", p2(scale, ReadMode::Mmap).latency(&cell)),
            format!("{:.1}", p1(scale, 64).latency(&cell)),
            eleos_column(scale, gb <= 1.0, &cell),
        ]);
    }
    table
}

/// Figure 5c: latency vs. key distribution (3 GB, 50/50 mix).
pub fn fig5c(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig5c");
    let records = scale.records_for_gb(if opts.quick { 1.0 } else { 3.0 });
    let mut table = Table::new(
        "Figure 5c: latency vs key distribution, 3 GB (µs/op)",
        &["distribution", "elsm_p2_mmap", "elsm_p1"],
    );
    for dist in ["uniform", "zipfian", "latest"] {
        let w = Workload::read_ratio(50).with_distribution(dist);
        let cell = mix(&w, records, opts.ops());
        table.row_f64(
            dist,
            &[p2(scale, ReadMode::Mmap).latency(&cell), p1(scale, 64).latency(&cell)],
        );
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// Figure 6a: read latency vs. data size, all systems.
pub fn fig6a(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig6a");
    let sizes_mb: &[u64] =
        if opts.quick { &[8, 128, 1024, 3072] } else { &[8, 64, 128, 256, 512, 1024, 2048, 3072] };
    let mut table = Table::new(
        "Figure 6a: read latency vs data size (µs/op)",
        &["data_mb", "elsm_p2_mmap", "elsm_p1", "eleos", "outside_unsecured"],
    );
    for &mb in sizes_mb {
        let cell = reads(scale.records_for_mb(mb).max(100), opts.ops());
        table.row(vec![
            mb.to_string(),
            format!("{:.1}", p2(scale, ReadMode::Mmap).latency(&cell)),
            // The paper gives P1 a buffer sized to the dataset (its design
            // keeps data in enclave memory).
            format!("{:.1}", p1(scale, mb.max(8)).latency(&cell)),
            eleos_column(scale, mb <= 1024, &cell),
            format!(
                "{:.1}",
                open_unsecured(scale, unsecured_options(scale, true, ReadMode::Mmap))
                    .latency(&cell)
            ),
        ]);
    }
    table
}

/// Figure 6b: eLSM-P2 mmap vs. user-space buffer reads.
pub fn fig6b(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig6b");
    let sizes_mb: &[u64] = if opts.quick {
        &[8, 128, 1024, 3072]
    } else {
        &[8, 16, 64, 128, 256, 512, 1024, 2048, 3072]
    };
    let mut table = Table::new(
        "Figure 6b: eLSM-P2 mmap vs buffer reads (µs/op)",
        &["data_mb", "p2_mmap", "p2_buffer"],
    );
    for &mb in sizes_mb {
        let cell = reads(scale.records_for_mb(mb).max(100), opts.ops());
        table.row_f64(
            mb,
            &[
                p2(scale, ReadMode::Mmap).latency(&cell),
                p2(scale, buffered(scale, 8)).latency(&cell),
            ],
        );
    }
    table
}

/// Figure 6c: read latency vs. buffer size at fixed 2 GB data.
pub fn fig6c(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig6c");
    let buffers: &[u64] =
        if opts.quick { &[32, 128, 512, 2048] } else { &[32, 64, 128, 256, 512, 1024, 1536, 2048] };
    let cell = reads(scale.records_for_gb(if opts.quick { 1.0 } else { 2.0 }), opts.ops());
    let mut table = Table::new(
        "Figure 6c: read latency vs buffer size, 2 GB data (µs/op)",
        &["buffer_mb", "p2_buffer", "elsm_p1"],
    );
    for &buf in buffers {
        table.row_f64(
            buf,
            &[p2(scale, buffered(scale, buf)).latency(&cell), p1(scale, buf).latency(&cell)],
        );
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// Figure 7a: write latency (with compaction) vs. data size.
pub fn fig7a(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig7a");
    let sizes: &[f64] = if opts.quick { &[0.2, 1.0, 2.0] } else { &[0.2, 1.0, 2.0, 3.0, 4.0] };
    let mut table = Table::new(
        "Figure 7a: write latency w/ compaction vs data size (µs/op)",
        &["data_gb", "elsm_p2_mmap", "elsm_p1", "eleos"],
    );
    for &gb in sizes {
        let cell = writes(scale.records_for_gb(gb), opts.ops());
        table.row(vec![
            format!("{gb:.1}"),
            format!("{:.1}", p2(scale, ReadMode::Mmap).latency(&cell)),
            format!("{:.1}", p1(scale, 64).latency(&cell)),
            eleos_column(scale, gb <= 1.0, &cell),
        ]);
    }
    table
}

/// Figure 7b: writes with vs. without compaction.
pub fn fig7b(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig7b");
    let sizes: &[f64] = if opts.quick { &[0.2, 1.0] } else { &[0.2, 1.0, 2.0, 3.0, 4.0] };
    let mut table = Table::new(
        "Figure 7b: write latency with/without compaction (µs/op)",
        &["data_gb", "p2_w_compaction", "p1_w_compaction", "p2_wo_compaction", "p1_wo_compaction"],
    );
    for &gb in sizes {
        let cell = writes(scale.records_for_gb(gb), opts.ops());
        let p2_run = |compaction_enabled: bool| {
            let options = P2Options { compaction_enabled, ..p2_options(scale, ReadMode::Mmap) };
            open_p2(scale, options).latency(&cell)
        };
        let p1_run = |compaction_enabled: bool| {
            open_p1(scale, P1Options { compaction_enabled, ..p1_options(scale, 64) }).latency(&cell)
        };
        table.row_f64(
            format!("{gb:.1}"),
            &[p2_run(true), p1_run(true), p2_run(false), p1_run(false)],
        );
    }
    table
}

/// Figure 7 (extended): verified write throughput vs. compaction strategy
/// and wave parallelism, 8 concurrent clients.
///
/// The paper's Figure 7 shows compaction's write tax; this extension
/// sweeps what the compaction subsystem does about it. Each cell builds a
/// fresh eLSM-P2 store with one [`lsm_store::CompactionStrategyKind`]
/// (leveled vs. size-tiered) and one wave parallelism (1 vs. 4 enclave
/// compaction slots), then drives YCSB-A (update-heavy) and YCSB-E
/// (scan-heavy, inserts) from 8 clients. Parallel waves overlap merge IO
/// and hashing across compaction slots, and size-tiered merges rewrite
/// fewer records, so the enclave's serial compaction time shrinks — which
/// is what lets writers keep flowing.
///
/// The ratio columns are taken against `leveled_p1`, the serial leveled
/// compactor. Each row also records the store's end-of-phase
/// compaction-debt gauge ([`lsm_store::CompactionDebt`], via
/// `debt_bytes`/`pending_jobs` in the results JSON): a configuration
/// that wins throughput by letting debt pile up unboundedly has not
/// actually won anything.
pub fn fig7(scale: &Scale, opts: FigOpts) -> Table {
    const CLIENTS: usize = 8;
    let records = scale.records_for_mb(if opts.quick { 128 } else { 512 }).max(500);
    let ops = if opts.quick { 4_000 } else { 16_000 };
    let phase = Phase { record_count: records, total_ops: ops, clients: CLIENTS, seed: 0xf07 };
    let workloads = [Workload::a(), Workload::e()];

    // Each run returns (throughput, leftover debt bytes) and records the
    // measurement plus the debt gauge under the current figure.
    let run = |label: &str,
               strategy: lsm_store::CompactionStrategyKind,
               parallelism: usize,
               w: &Workload| {
        let sut = open_p2(
            scale,
            P2Options {
                compaction_strategy: strategy,
                compaction_parallelism: parallelism,
                ..p2_options(scale, ReadMode::Mmap)
            },
        );
        sut.load(records, VALUE_BYTES, false);
        let report = sut.run(w, phase);
        let stats = sut.driver.0.db().stats();
        note_concurrent_gauges(
            &format!("{label}_{}", w.name),
            &report,
            &[("debt_bytes", stats.debt_bytes), ("pending_jobs", stats.pending_compaction_jobs)],
        );
        (report.kops_per_sec, stats.debt_bytes)
    };

    use lsm_store::CompactionStrategyKind::{Leveled, Tiered};
    set_figure("fig7_compaction");
    let mut table = Table::new(
        "Figure 7 (ext): verified write throughput vs compaction strategy & parallelism, \
         8 clients (kops/s, simulated)",
        &["config", "ycsbA_kops", "A_vs_p1", "ycsbE_kops", "E_vs_p1", "debt_kb_A"],
    );
    let mut anchor = [0.0; 2];
    let configs: [(&str, lsm_store::CompactionStrategyKind, usize); 4] = [
        ("leveled_p1", Leveled, 1),
        ("leveled_p4", Leveled, 4),
        ("tiered_p1", Tiered, 1),
        ("tiered_p4", Tiered, 4),
    ];
    for (label, strategy, parallelism) in configs {
        let mut row = vec![label.to_string()];
        let mut debt_a = 0u64;
        for (i, w) in workloads.iter().enumerate() {
            let (kops, debt) = run(label, strategy.clone(), parallelism, w);
            if i == 0 {
                debt_a = debt;
            }
            if label == "leveled_p1" {
                anchor[i] = kops;
            }
            row.push(format!("{kops:.1}"));
            row.push(format!("{:.2}x", kops / anchor[i].max(1e-9)));
        }
        row.push(format!("{:.1}", debt_a as f64 / 1024.0));
        table.row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 8 (Appendix C)
// ---------------------------------------------------------------------------

/// Figure 8: write-buffer placement — write-only latency vs. write-buffer
/// size, P1 vs. unsecured-outside.
pub fn fig8(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig8");
    let buffers: &[u64] =
        if opts.quick { &[4, 64, 512] } else { &[4, 8, 16, 32, 64, 128, 256, 512] };
    let cell = writes(scale.records_for_gb(0.5), opts.ops());
    let mut table = Table::new(
        "Figure 8: write-buffer placement (write-only, µs/op)",
        &["write_buffer_mb", "elsm_p1", "outside_unsecured"],
    );
    for &buf in buffers {
        let write_buffer_bytes = scale.mb(buf) as usize;
        let p1 = open_p1(scale, P1Options { write_buffer_bytes, ..p1_options(scale, 64) });
        let outside = open_unsecured(
            scale,
            UnsecuredOptions {
                write_buffer_bytes,
                ..unsecured_options(scale, true, buffered(scale, 8))
            },
        );
        table.row_f64(buf, &[p1.latency(&cell), outside.latency(&cell)]);
    }
    table
}

// ---------------------------------------------------------------------------
// Ablations (extension work beyond the paper's figures)
// ---------------------------------------------------------------------------

/// Ablation: early-stop proofs (eLSM) vs. all-level verification
/// (Speicher-style) — measured as levels checked and proof bytes per GET.
pub fn ablation_proofs(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("ablation_proofs");
    let cell = reads(scale.records_for_gb(1.0), opts.ops());
    let sut = p2(scale, ReadMode::Mmap);
    let store = &sut.driver.0;
    sut.load(cell.records, VALUE_BYTES, cell.flush);
    let before = store.verify_stats();
    let lat_hit = sut.measure(&cell);
    let after = store.verify_stats();
    let gets = opts.ops().max(1);
    let proofs_per_get = (after.proofs_verified - before.proofs_verified) as f64 / gets as f64;
    let proof_bytes_per_get = (after.proof_bytes - before.proof_bytes) as f64 / gets as f64;
    let per_get =
        |later: u64, earlier: u64| format!("{:.2}", (later - earlier) as f64 / gets as f64);
    // All-level (Speicher-style) verification checks every occupied level
    // per GET: two neighbor proofs per non-hit level plus the hit proof.
    let occupied_levels =
        store.db().level_bytes().iter().skip(1).filter(|&&b| b > 0).count() as f64;
    let all_level_proofs = 2.0 * (occupied_levels - 1.0).max(0.0) + 1.0;
    let bytes_per_proof = proof_bytes_per_get / proofs_per_get.max(0.01);
    let mut table = Table::new(
        "Ablation: early-stop vs all-level proofs (per GET)",
        &["metric", "early_stop_elsm", "all_levels_speicher_style"],
    );
    table.row(vec![
        "proofs verified".into(),
        format!("{proofs_per_get:.2}"),
        format!("{all_level_proofs:.2}"),
    ]);
    table.row(vec![
        "proof bytes".into(),
        format!("{proof_bytes_per_get:.0}"),
        format!("{:.0}", bytes_per_proof * all_level_proofs),
    ]);
    // What the proofs cost the enclave: path rows hashed below the levels'
    // crowns, and path rows compared against them instead (root-only
    // verification hashed both).
    table.row(vec![
        "tree nodes hashed".into(),
        per_get(after.nodes_hashed, before.nodes_hashed),
        "-".into(),
    ]);
    table.row(vec![
        "tree nodes compared to a crown".into(),
        per_get(after.nodes_compared, before.nodes_compared),
        "-".into(),
    ]);
    table.row(vec!["GET latency µs".into(), format!("{lat_hit:.1}"), "-".into()]);
    table
}

/// Ablation: Bloom filters on/off for present and absent keys.
pub fn ablation_bloom(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("ablation_bloom");
    let records = scale.records_for_gb(0.5);
    let mut table = Table::new(
        "Ablation: Bloom filter effect on GET latency (µs/op)",
        &["config", "present_keys", "absent_keys"],
    );
    for (label, bloom_bits_per_key) in [("bloom_10bits", 10usize), ("bloom_off", 0)] {
        let options = P2Options { bloom_bits_per_key, ..p2_options(scale, ReadMode::Mmap) };
        let sut = open_p2(scale, options);
        let present = sut.latency(&reads(records, opts.ops()));
        // Absent keys *inside* the populated range, so table Bloom
        // filters actually get probed.
        let clock = sut.topology.router.clock();
        let sw = clock.stopwatch();
        let absent_ops = opts.ops() / 2;
        for i in 0..absent_ops {
            sut.driver.get(format!("user{:012}x", i % records).as_bytes());
        }
        let absent = sw.elapsed_us(clock) / absent_ops as f64;
        table.row_f64(label, &[present, absent]);
    }
    table
}

/// Ablation: the §3.4 motivation — update-in-place Merkle B-tree vs. LSM
/// writes.
pub fn ablation_update_in_place(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("ablation_update_in_place");
    let records = scale.records_for_gb(0.25);
    let mut table = Table::new(
        "Ablation: update-in-place ADS vs eLSM (write latency µs/op)",
        &["system", "write_latency_us"],
    );
    let platform = machine(scale);
    let mbt = Sut::single(&platform, InPlace(MbtStore::new(platform.clone())), |_| ());
    table.row_f64(
        "merkle_btree_update_in_place",
        &[mbt.latency(&writes(records / 4, opts.ops() / 4))],
    );
    table.row_f64("elsm_p2", &[p2(scale, ReadMode::Mmap).latency(&writes(records, opts.ops()))]);
    table
}

/// Ablation: rollback-defence overhead vs. counter write-buffer size.
pub fn ablation_rollback(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("ablation_rollback");
    use sgx_sim::MonotonicCounter;
    let cell = writes(scale.records_for_gb(0.25), opts.ops());
    let mut table = Table::new(
        "Ablation: rollback defence overhead vs counter buffer (µs/write)",
        &["counter_buffer", "write_latency_us"],
    );
    for buffer in [0usize, 64, 512, 4096] {
        let platform = machine(scale);
        let fs = SimFs::new(SimDisk::new(platform.clone()));
        let mut options = p2_options(scale, ReadMode::Mmap);
        let counter = if buffer > 0 {
            options.counter_write_buffer = buffer;
            Some(MonotonicCounter::new(platform.clone()))
        } else {
            None
        };
        let sut = sut_p2(ElsmP2::open_with(platform, fs, options, counter).expect("open"));
        let label = if buffer == 0 { "off".to_string() } else { buffer.to_string() };
        table.row_f64(label, &[sut.latency(&cell)]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 9 (new in this reproduction): thread scaling
// ---------------------------------------------------------------------------

/// Figure 9: read throughput vs. client threads, eLSM-P2 vs. the
/// unsecured baseline.
///
/// One machine with a core per client ([`ycsb::Topology::single`]): virtual
/// time charged inside store critical sections serializes across
/// clients, the rest overlaps. With snapshot-isolated reads the serial
/// fraction of a GET is only the brief snapshot acquisition, so
/// throughput scales near-linearly; a store holding a global mutex across
/// block IO and verification stays flat.
pub fn fig9(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig9_thread_scaling");
    let records = scale.records_for_mb(if opts.quick { 512 } else { 2048 }).max(1_000);
    let ops = if opts.quick { 4_000 } else { 16_000 };
    let w = Workload::c();
    let mut table = Table::new(
        "Figure 9: read throughput vs client threads (kops/s, simulated)",
        &[
            "threads",
            "elsm_p2_kops",
            "p2_speedup",
            "unsecured_kops",
            "unsec_speedup",
            "p2_serial_pct",
        ],
    );
    // Build each system once: workload C is read-only, so every thread
    // count sweeps over an identical store state.
    let verified = p2(scale, ReadMode::Mmap);
    verified.load(records, VALUE_BYTES, true);
    let unsec = leveldb_outside(scale);
    unsec.load(records, VALUE_BYTES, true);
    let mut p2_base = 0.0f64;
    let mut unsec_base = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let phase = Phase { record_count: records, total_ops: ops, clients: threads, seed: 0xf19 };
        let r_p2 = verified.run(&w, phase);
        let r_un = unsec.run(&w, phase);
        note_concurrent("elsm_p2_mmap", &r_p2);
        note_concurrent("unsecured", &r_un);
        if threads == 1 {
            p2_base = r_p2.kops_per_sec;
            unsec_base = r_un.kops_per_sec;
        }
        table.row(vec![
            threads.to_string(),
            format!("{:.1}", r_p2.kops_per_sec),
            format!("{:.2}x", r_p2.kops_per_sec / p2_base.max(1e-9)),
            format!("{:.1}", r_un.kops_per_sec),
            format!("{:.2}x", r_un.kops_per_sec / unsec_base.max(1e-9)),
            format!("{:.1}%", r_p2.serial_fraction * 100.0),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 10 (new in this reproduction): write batching
// ---------------------------------------------------------------------------

/// Figure 10: write throughput (records/s) vs. batch size and writer
/// threads — the group-commit counterpart of fig9.
///
/// Each cell builds a fresh store, loads the keyspace, then drives a
/// write-only phase where every virtual client issues `put_batch` calls of
/// the given size ([`ycsb::run_write_batches`]). The headline eLSM-P2
/// series runs with compaction disabled so the figure isolates the
/// *write pipeline* — enclave transitions, WAL appends, trusted-state
/// updates and flush — whose per-operation taxes batching amortizes;
/// compaction write-amplification is an orthogonal cost measured by fig7.
/// The `p2_compact_1w` column keeps one compaction-on series for the
/// end-to-end picture, and `unsecured_1w` is the no-enclave roofline.
///
/// `BENCH_history.json` carries a frozen `fig10_prechange` section
/// captured before the group-commit pipeline landed: with every `put`
/// paying a full enclave transition, throughput was flat in batch size.
pub fn fig10(scale: &Scale, opts: FigOpts) -> Table {
    set_figure("fig10_write_batching");
    let records = scale.records_for_mb(if opts.quick { 128 } else { 256 }).max(500);
    let total = if opts.quick { 3_000 } else { 8_000 };
    let batches: &[usize] = if opts.quick { &[1, 8, 32] } else { &[1, 4, 8, 32, 128] };
    let threads: &[usize] = if opts.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let mut cols: Vec<String> = vec!["batch".into()];
    cols.extend(threads.iter().map(|t| format!("p2_{t}w_kops")));
    cols.push("p2_compact_1w".into());
    cols.push("unsecured_1w".into());
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Figure 10: write throughput vs batch size and writer threads (krec/s, simulated)",
        &col_refs,
    );
    let phase =
        |clients: usize| Phase { record_count: records, total_ops: total, clients, seed: 0xf10 };
    let run_p2 = |batch: usize, writers: usize, compaction_enabled: bool| {
        let options = P2Options { compaction_enabled, ..p2_options(scale, ReadMode::Mmap) };
        let label = if compaction_enabled { "elsm_p2_compact" } else { "elsm_p2" };
        open_p2(scale, options).batched_writes(label, phase(writers), batch)
    };
    let run_unsec = |batch: usize| {
        let options = UnsecuredOptions {
            compaction_enabled: false,
            ..unsecured_options(scale, false, ReadMode::Mmap)
        };
        open_unsecured(scale, options).batched_writes("unsecured", phase(1), batch)
    };
    for &batch in batches {
        let mut row = vec![batch.to_string()];
        for &t in threads {
            row.push(format!("{:.1}", run_p2(batch, t, false)));
        }
        row.push(format!("{:.1}", run_p2(batch, 1, true)));
        row.push(format!("{:.1}", run_unsec(batch)));
        table.row(row);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 11 and 12 (new in this reproduction): shard and replica scaling
// ---------------------------------------------------------------------------

/// Figure 11: aggregate cluster throughput vs. shard count, YCSB A and C.
///
/// Each cell builds a fresh hash-partitioned cluster
/// ([`elsm_shard::ShardedKv`], one enclave platform per shard), loads the
/// keyspace through the router, and drives a fixed cluster-wide offered
/// load of 32 virtual clients. Unlike fig9's single machine with a core
/// per client, each shard here is its own machine with `CORES_PER_SHARD`
/// enclave cores: a single store saturates at one machine's capacity
/// however many clients offer load — horizontal partitioning is what adds
/// capacity, which is exactly the LSKV-style scale-out story this figure
/// quantifies. YCSB-C shows the pure capacity effect; YCSB-A additionally
/// splits the write path's serial sections (group commit, trusted folds,
/// flushes/compactions) across shard enclaves.
///
/// The `single(pre)` row is the pre-sharding anchor: a plain `ElsmP2`
/// (no router, no shard binding) on one such machine, recorded in
/// `BENCH_results.json` as `fig11_prechange` — it shows the shard
/// layer's 1-shard overhead (routing hash + stitching) is noise.
pub fn fig11(scale: &Scale, opts: FigOpts) -> Table {
    const CLIENTS: usize = 32;
    const CORES_PER_SHARD: usize = 4;
    let records = scale.records_for_mb(if opts.quick { 256 } else { 1024 }).max(1_000);
    let ops = if opts.quick { 6_000 } else { 24_000 };
    let phase = Phase { record_count: records, total_ops: ops, clients: CLIENTS, seed: 0xf11 };
    let workloads = [Workload::c(), Workload::a()];

    let run_p2 = |shards: usize, w: &Workload| {
        sharded_p2(scale, shards, CORES_PER_SHARD).throughput(
            &format!("elsm_p2_{shards}s_{}", w.name),
            w,
            phase,
        )
    };
    let run_unsec = |shards: usize, w: &Workload| {
        sharded_unsecured(scale, shards, CORES_PER_SHARD).throughput(
            &format!("unsecured_{shards}s_{}", w.name),
            w,
            phase,
        )
    };

    // Pre-sharding anchor: the plain single store, same machine model.
    set_figure("fig11_prechange");
    let anchor: Vec<f64> = workloads
        .iter()
        .map(|w| {
            p2(scale, ReadMode::Mmap).with_cores(CORES_PER_SHARD).throughput(
                &format!("single_store_{}", w.name),
                w,
                phase,
            )
        })
        .collect();

    set_figure("fig11_shard_scaling");
    let mut table = Table::new(
        "Figure 11: aggregate throughput vs shards, 32 clients, 4 cores/shard (kops/s, simulated)",
        &[
            "shards",
            "p2_ycsbC_kops",
            "p2_C_speedup",
            "p2_ycsbA_kops",
            "p2_A_speedup",
            "unsec_C_kops",
            "unsec_A_kops",
        ],
    );
    let mut base = [0.0f64; 2];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut row = vec![shards.to_string()];
        for (i, w) in workloads.iter().enumerate() {
            let kops = run_p2(shards, w);
            if shards == 1 {
                base[i] = kops;
            }
            row.push(format!("{kops:.1}"));
            row.push(format!("{:.2}x", kops / base[i].max(1e-9)));
        }
        for w in &workloads {
            row.push(format!("{:.1}", run_unsec(shards, w)));
        }
        rows.push(row);
    }
    table.row(vec![
        "single(pre)".into(),
        format!("{:.1}", anchor[0]),
        format!("{:.2}x", anchor[0] / base[0].max(1e-9)),
        format!("{:.1}", anchor[1]),
        format!("{:.2}x", anchor[1] / base[1].max(1e-9)),
        "-".into(),
        "-".into(),
    ]);
    for row in rows {
        table.row(row);
    }
    table
}

/// Figure 12: aggregate **verified read** throughput of one replication
/// group as replicas are added, under a fixed 32-client offered load with
/// 4 enclave cores per node (the fig11 machine model, applied to the
/// replication axis: one store cannot scale reads past its own machine,
/// a group fans them out; each replica is one machine, see
/// `systems::replicated_p2`). The `fig12_prechange` anchor is
/// the plain unreplicated store — the pre-replication code path — on one
/// such machine; the unsecured replicated baseline is the no-verification
/// roofline, so the remaining gap is per-replica verification, not the
/// replication layer.
pub fn fig12(scale: &Scale, opts: FigOpts) -> Table {
    const CLIENTS: usize = 32;
    const CORES_PER_NODE: usize = 4;
    let records = scale.records_for_mb(if opts.quick { 256 } else { 1024 }).max(1_000);
    let ops = if opts.quick { 6_000 } else { 24_000 };
    let phase = Phase { record_count: records, total_ops: ops, clients: CLIENTS, seed: 0xf12 };
    let workload = Workload::c();

    // Pre-replication anchor: the plain single store, same machine model.
    set_figure("fig12_prechange");
    let anchor = p2(scale, ReadMode::Mmap).with_cores(CORES_PER_NODE).throughput(
        "single_store_C",
        &workload,
        phase,
    );

    set_figure("fig12_replica_scaling");
    let mut table = Table::new(
        "Figure 12: aggregate verified read throughput vs replicas, 32 clients, \
         4 cores/node (kops/s, simulated)",
        &["replicas", "p2_read_kops", "p2_vs_single", "unsec_read_kops", "unsec_vs_1r"],
    );
    table.row(vec![
        "single(pre)".into(),
        format!("{anchor:.1}"),
        "1.00x".into(),
        "-".into(),
        "-".into(),
    ]);
    let mut unsec_base = 0.0f64;
    for replicas in [1usize, 2, 4, 8] {
        let kops = replicated_p2(scale, replicas, CORES_PER_NODE).throughput(
            &format!("elsm_p2_{replicas}r_C"),
            &workload,
            phase,
        );
        let unsec_kops = replicated_unsecured(scale, replicas, CORES_PER_NODE).throughput(
            &format!("unsecured_{replicas}r_C"),
            &workload,
            phase,
        );
        if replicas == 1 {
            unsec_base = unsec_kops;
        }
        table.row(vec![
            replicas.to_string(),
            format!("{kops:.1}"),
            format!("{:.2}x", kops / anchor.max(1e-9)),
            format!("{unsec_kops:.1}"),
            format!("{:.2}x", unsec_kops / unsec_base.max(1e-9)),
        ]);
    }
    table
}

// ---------------------------------------------------------------------------
// Figure 14 (extension): key-value separation + verified read cache
// ---------------------------------------------------------------------------

/// Figure 14 (ext): key-value separation and the verified read cache.
///
/// Two series. First, verified YCSB-A **write** throughput as the value
/// size sweeps 1 KB → 100 KB, with the store's values inline
/// (`fig14_prechange`, the code path before separation landed) vs.
/// separated into the authenticated value log (`fig14_separation`):
/// inline, every compaction rewrites every byte of every value it
/// touches; separated, compactions move 56-byte pointer records and the
/// payload is written to the log once, so the gap widens with the value
/// size. Each entry also records the store's `vlog_bytes` /
/// `vlog_garbage_bytes` gauges.
///
/// Second, verified **read** throughput on a zipfian read-only workload
/// as the verified-cache budget grows (`fig14_cache`): hot reads answer
/// from enclave-checked cached entries — no disk IO, no proof replay —
/// so throughput tracks the measured hit ratio (`hit_ratio_bp` gauge,
/// basis points).
pub fn fig14(scale: &Scale, opts: FigOpts) -> Table {
    let separated_options = |verified_cache_bytes: usize| P2Options {
        write_buffer_bytes: scale.mb(16) as usize,
        level1_max_bytes: scale.mb(64),
        vlog: Some(lsm_store::VlogConfig {
            value_threshold: 512,
            target_file_bytes: scale.mb(64),
            gc_garbage_ratio: 0.5,
            gc_enabled: true,
        }),
        verified_cache_bytes,
        ..p2_options(scale, ReadMode::Mmap)
    };
    let inline_options = || P2Options { vlog: None, ..separated_options(0) };
    let kops_of = |mean_us: f64| if mean_us > 0.0 { 1_000.0 / mean_us } else { 0.0 };
    // One client on disk-resident data of `value_len`-byte values.
    let measure = |sut: &Sut<Verified<ElsmP2>>, w: Workload, records: u64, ops: u64, seed: u64| {
        let value_len = w.value_len;
        sut.load(records, value_len, true);
        let seed = seed ^ CLIENT_SEED_MIX;
        sut.run(&w, Phase { record_count: records, total_ops: ops, clients: 1, seed })
    };

    let sizes_kb: &[usize] = if opts.quick { &[1, 16, 64] } else { &[1, 4, 16, 64, 100] };
    let ops = if opts.quick { 400 } else { 1_200 };
    let budget = scale.mb(if opts.quick { 512 } else { 1024 });

    // One write-path run per value size: YCSB-A, returning the write-side
    // throughput in kops/s and recording it with the store's value-log
    // gauges.
    let write_series = |options: &dyn Fn() -> P2Options| -> Vec<f64> {
        sizes_kb
            .iter()
            .map(|&kb| {
                let value_len = kb * 1024;
                let records = (budget / value_len as u64).clamp(32, 512);
                let sut = open_p2(scale, options());
                let w = Workload::a().with_value_len(value_len);
                let report = measure(&sut, w, records, ops, 0xf14);
                let stats = sut.driver.0.db().stats();
                let kops = kops_of(report.writes.mean_us);
                note_run_gauges(
                    &report,
                    &[
                        ("write_kops_x10", (kops * 10.0) as u64),
                        ("value_bytes", value_len as u64),
                        ("vlog_bytes", stats.vlog_bytes),
                        ("vlog_garbage_bytes", stats.vlog_garbage_bytes),
                    ],
                );
                kops
            })
            .collect()
    };

    let mut table = Table::new(
        "Figure 14 (ext): key-value separation and verified caching — write kops/s vs value \
         size, then read kops/s vs cache budget (simulated)",
        &["series", "x", "kops", "vs_baseline", "cache_hit_pct"],
    );

    // Pre-change anchor: every value inline in the LSM.
    set_figure("fig14_prechange");
    let inline_kops = write_series(&inline_options);
    set_figure("fig14_separation");
    let separated_kops = write_series(&|| separated_options(0));

    for (i, &kb) in sizes_kb.iter().enumerate() {
        let (inline, separated) = (inline_kops[i], separated_kops[i]);
        table.row(vec![
            "write_inline(pre)".into(),
            format!("{kb}KB"),
            format!("{inline:.2}"),
            "1.00x".into(),
            "-".into(),
        ]);
        table.row(vec![
            "write_separated".into(),
            format!("{kb}KB"),
            format!("{separated:.2}"),
            format!("{:.2}x", separated / inline.max(1e-9)),
            "-".into(),
        ]);
    }

    // Cache series: read-only zipfian over 4 KB separated values, cache
    // budget swept from off to dataset-sized.
    set_figure("fig14_cache");
    let value_len = 4 * 1024;
    let records = (budget / value_len as u64).clamp(64, 512);
    let read_ops = if opts.quick { 2_000 } else { 6_000 };
    let budgets_kb: &[usize] =
        if opts.quick { &[0, 64, 256, 1024] } else { &[0, 32, 64, 128, 256, 512, 1024] };
    let mut base_kops = 0.0f64;
    for &cache_kb in budgets_kb {
        let sut = open_p2(scale, separated_options(cache_kb * 1024));
        // Every config's store shares the figure's registry, so per-store
        // cache accounting is the delta from this store's open.
        let cache0 = sut.driver.0.cache_stats();
        let w = Workload::c().with_value_len(value_len);
        let report = measure(&sut, w, records, read_ops, 0xf14c);
        let kops = kops_of(report.overall.mean_us);
        let stats = sut.driver.0.cache_stats();
        let hits = stats.record_hits - cache0.record_hits;
        let misses = stats.record_misses - cache0.record_misses;
        let looked = hits + misses;
        let hit_ratio = if looked > 0 { hits as f64 / looked as f64 } else { 0.0 };
        note_run_gauges(
            &report,
            &[
                ("read_kops_x10", (kops * 10.0) as u64),
                ("cache_budget_bytes", (cache_kb * 1024) as u64),
                ("cache_hits", hits),
                ("cache_misses", misses),
                ("hit_ratio_bp", (hit_ratio * 10_000.0) as u64),
            ],
        );
        if cache_kb == 0 {
            base_kops = kops;
        }
        table.row(vec![
            format!("read_cache_{cache_kb}KB"),
            format!("{}x4KB", records),
            format!("{kops:.2}"),
            format!("{:.2}x", kops / base_kops.max(1e-9)),
            format!("{:.1}", hit_ratio * 100.0),
        ]);
    }
    table
}
