//! Cross-crate workload integration: the YCSB harness driving every
//! system under test, verifying measured behaviour (not just liveness).

use std::sync::Arc;

use elsm_bench::drivers::{Unsecured, Verified};
use elsm_repro::baselines::{EleosOptions, EleosStore, UnsecuredLsm, UnsecuredOptions};
use elsm_repro::elsm::{ElsmP1, ElsmP2, P1Options, P2Options};
use elsm_repro::sgx_sim::Platform;
use elsm_repro::sim_disk::{SimDisk, SimFs};
use elsm_repro::telemetry::Telemetry;
use elsm_repro::ycsb::{load_phase, run_phase, KvDriver, Phase, RunReport, Topology, Workload};

/// One client on the store's own platform.
fn run_single(
    driver: &dyn KvDriver,
    platform: &Arc<Platform>,
    w: &Workload,
    records: u64,
    ops: u64,
    seed: u64,
) -> RunReport {
    let phase = Phase { record_count: records, total_ops: ops, clients: 1, seed };
    run_phase(driver, &Topology::single(platform), w, &phase, &Telemetry::default())
}

fn p2() -> (Verified<ElsmP2>, Arc<Platform>) {
    let platform = Platform::with_defaults();
    let store = ElsmP2::open(
        platform.clone(),
        P2Options { write_buffer_bytes: 8 * 1024, ..P2Options::default() },
    )
    .unwrap();
    (Verified(store), platform)
}

#[test]
fn every_standard_workload_runs_verified_on_p2() {
    for w in
        [Workload::a(), Workload::b(), Workload::c(), Workload::d(), Workload::e(), Workload::f()]
    {
        let (driver, platform) = p2();
        load_phase(&driver, 300, w.value_len);
        let report = run_single(&driver, &platform, &w, 300, 600, 42);
        assert_eq!(report.ops, 600, "workload {}", w.workload_name());
        assert!(
            report.read_hit_rate > 0.95,
            "workload {}: {}",
            w.workload_name(),
            report.read_hit_rate
        );
        assert!(report.overall.mean_us > 0.0);
    }
}

trait Named {
    fn workload_name(&self) -> &str;
}
impl Named for Workload {
    fn workload_name(&self) -> &str {
        &self.name
    }
}

#[test]
fn p2_reads_beat_p1_beyond_the_epc() {
    // The paper's core claim, as a test: with a dataset well beyond the
    // EPC, eLSM-P2's verified reads are faster than eLSM-P1's paged reads.
    let cost = sgx_sim::CostModel::paper_defaults().with_epc_bytes(32 * 4096);
    let records = 3000u64; // ~350 KB data vs 128 KB EPC

    let p2_lat = {
        let platform = Platform::new(cost.clone());
        let store = ElsmP2::open(
            platform.clone(),
            P2Options { write_buffer_bytes: 8 * 1024, ..P2Options::default() },
        )
        .unwrap();
        let driver = Verified(store);
        load_phase(&driver, records, 100);
        driver.0.db().flush().unwrap();
        run_single(&driver, &platform, &Workload::read_ratio(100), records, 1000, 7).overall.mean_us
    };
    let p1_lat = {
        let platform = Platform::new(cost);
        let store = ElsmP1::open(
            platform.clone(),
            P1Options {
                write_buffer_bytes: 8 * 1024,
                buffer_bytes: 512 * 1024, // in-enclave buffer ≫ EPC
                ..P1Options::default()
            },
        )
        .unwrap();
        let driver = Verified(store);
        load_phase(&driver, records, 100);
        driver.0.db().flush().unwrap();
        run_single(&driver, &platform, &Workload::read_ratio(100), records, 1000, 7).overall.mean_us
    };
    assert!(p2_lat < p1_lat, "P2 must beat P1 beyond the EPC: {p2_lat:.1}µs vs {p1_lat:.1}µs");
}

#[test]
fn unsecured_is_fastest_p1_pays_paging_p2_pays_proofs() {
    // Figure 5a's ordering at mixed workloads, as an executable assertion.
    let records = 2000u64;
    let run_unsec = || {
        let platform = Platform::with_defaults();
        let store = UnsecuredLsm::open(
            platform.clone(),
            UnsecuredOptions { write_buffer_bytes: 8 * 1024, ..UnsecuredOptions::default() },
        )
        .unwrap();
        let d = Unsecured(store);
        load_phase(&d, records, 100);
        run_single(&d, &platform, &Workload::read_ratio(70), records, 800, 3).overall.mean_us
    };
    let (p2_driver, p2_platform) = p2();
    load_phase(&p2_driver, records, 100);
    let p2 = run_single(&p2_driver, &p2_platform, &Workload::read_ratio(70), records, 800, 3)
        .overall
        .mean_us;
    let unsec = run_unsec();
    assert!(unsec < p2, "unsecured must be fastest: {unsec:.1} vs p2 {p2:.1}");
}

#[test]
fn eleos_capacity_cap_matches_paper() {
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let store = EleosStore::new(
        platform,
        fs,
        EleosOptions { capacity_limit_bytes: 50_000, ..EleosOptions::default() },
    );
    let mut capped = false;
    for i in 0..1000u32 {
        if store.put(format!("key{i:05}").into_bytes(), vec![0u8; 100]).is_err() {
            capped = true;
            break;
        }
    }
    assert!(capped, "Eleos must stop scaling at its limit (the paper's 1 GB)");
}
