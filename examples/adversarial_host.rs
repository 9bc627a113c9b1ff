//! The §3.3 threat model, live: a malicious host mounts every attack class
//! against the store and the enclave's VRFY algorithms catch each one. The
//! host attacks where it sits: the code on the store's read path rewrites
//! the trace an ordinary `get` / `scan` hands the enclave, and the files
//! under the store.
//!
//! Run with: `cargo run --example adversarial_host`. CI diffs what it prints
//! against `adversarial_host.expected`: each attack must be refused with the
//! same reason.

use elsm_repro::elsm::{AuthenticatedKv, ElsmError, ElsmP2, P2Options, VerificationFailure};
use elsm_repro::sgx_sim::{MonotonicCounter, Platform};
use elsm_repro::sim_disk::{SimDisk, SimFs};

#[path = "../tests/support/adversary.rs"]
pub mod adversary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = ElsmP2::open(
        Platform::with_defaults(),
        P2Options { write_buffer_bytes: 8 * 1024, ..P2Options::default() },
    )?;
    for i in 0..500u32 {
        store.put(format!("key{i:04}").as_bytes(), format!("value-{i}").as_bytes())?;
    }
    store.db().flush()?;
    println!("loaded 500 records; launching attacks\n");
    let host = adversary::HostileHost::install(store.db());

    // 1. Forgery: the host rewrites a returned value.
    host.on_get(|trace| adversary::forge_hit_value(trace, b"forged!!"));
    let err = adversary::verdict(store.get(b"key0042")).unwrap_err();
    println!("forged value        -> DETECTED: {err}");

    // 2. Completeness: the host pretends the key does not exist.
    host.on_get(adversary::suppress_hit);
    let err = adversary::verdict(store.get(b"key0042")).unwrap_err();
    println!("suppressed record   -> DETECTED: {err}");

    // 3. Freshness: the host answers with an older version (⟨Z,6⟩ attack).
    store.put(b"key0042", b"value-new")?;
    store.db().flush()?;
    let stale = store
        .db()
        .level_record_dump(1)?
        .into_iter()
        .filter(|r| &r.key[..] == b"key0042")
        .min_by_key(|r| r.ts)
        .expect("an old version on disk");
    host.on_get(|trace| adversary::substitute_stale(trace, stale));
    let err = adversary::verdict(store.get(b"key0042")).unwrap_err();
    println!("stale version       -> DETECTED: {err}");

    // 4. Range censorship: a record vanishes from a scan.
    host.on_scan(|trace| {
        let level = trace
            .levels
            .iter()
            .find(|l| l.records.iter().any(|r| &r.key[..] == b"key0110"))
            .map(|l| l.level)
            .expect("key0110 somewhere");
        adversary::drop_from_scan(trace, level, b"key0110");
    });
    let err = adversary::verdict(store.scan(b"key0100", b"key0120")).unwrap_err();
    println!("censored scan       -> DETECTED: {err}");

    // 5. Bit-rot / tampering of on-disk SSTables.
    let sst = store.fs().list().into_iter().find(|n| n.ends_with(".sst")).unwrap();
    store.fs().open(&sst)?.corrupt(100, 0x40);
    let detected = (0..500).map(|i| format!("key{i:04}")).any(|k| store.get(k.as_bytes()).is_err());
    println!("disk corruption     -> DETECTED: {detected}");

    // 6. Rollback across a power cycle (needs a trusted counter).
    let platform = Platform::with_defaults();
    let fs = SimFs::new(SimDisk::new(platform.clone()));
    let counter = MonotonicCounter::new(platform.clone());
    let options = P2Options { counter_write_buffer: 1, ..P2Options::default() };
    {
        let s = ElsmP2::open_with(
            platform.clone(),
            fs.clone(),
            options.clone(),
            Some(counter.clone()),
        )?;
        s.put(b"epoch", b"one")?;
        s.close()?;
    }
    let old_world = fs.snapshot();
    {
        let s = ElsmP2::open_with(
            platform.clone(),
            fs.clone(),
            options.clone(),
            Some(counter.clone()),
        )?;
        s.put(b"epoch", b"two")?;
        s.close()?;
    }
    fs.restore(&old_world); // the adversary serves yesterday's disk
    match ElsmP2::open_with(platform, fs, options, Some(counter)) {
        Err(ElsmError::Verification(VerificationFailure::RolledBack)) => {
            println!("rollback attack     -> DETECTED: rollback attack detected");
        }
        other => panic!("rollback should be caught, got {other:?}"),
    }

    println!("\nall six attack classes detected; honest queries still verify:");
    let rec = store.get(b"key0007")?.expect("honest read");
    println!("GET key0007 = {:?} ✓", String::from_utf8_lossy(rec.value()));
    Ok(())
}
