//! What a verified read is charged on the model's clock, pinned.
//!
//! A fixed script of scans and GET hits and misses runs against a
//! two-level store — interleaved keys, a key with several versions on a
//! level, a tombstone — once on an enclave with full crowns and once on
//! an EPC scaled down to roots only, where crown touches page. The clock
//! delta, the hash blocks, the DRAM bytes, the EPC page-ins and the proof
//! counters it leaves are the values the verifier had when every leaf made
//! its own hash charge. A change to how the verifier or the read path
//! spends real time leaves every one of them where it is.

use std::sync::Arc;

use elsm_repro::elsm::{AuthenticatedKv, ElsmP2, P2Options};
use elsm_repro::sgx_sim::{CostModel, Platform};

/// Records per level: even keys on level 2, odd keys on level 1.
const PER_LEVEL: u32 = 300;

fn key(i: u32) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

/// Level 2 holds the even keys; level 1 the odd ones, key 31 in three
/// versions and key 41's tombstone beside them.
fn two_level_store(platform: Arc<Platform>) -> ElsmP2 {
    let store = ElsmP2::open(
        platform,
        P2Options {
            // Explicit flushes and compactions only.
            write_buffer_bytes: 64 << 20,
            level1_max_bytes: 1 << 30,
            target_file_bytes: 16 << 10,
            max_levels: 3,
            ..P2Options::default()
        },
    )
    .unwrap();
    let db = store.db();
    for i in 0..PER_LEVEL {
        store.put(&key(2 * i), &[i as u8; 100]).unwrap();
    }
    db.flush().unwrap();
    db.compact(1).unwrap();
    for i in 0..PER_LEVEL {
        store.put(&key(2 * i + 1), &[i as u8; 100]).unwrap();
    }
    store.put(&key(31), b"second").unwrap();
    store.put(&key(31), b"third").unwrap();
    store.delete(&key(41)).unwrap();
    db.flush().unwrap();
    assert_eq!(db.level_records()[2], u64::from(PER_LEVEL));
    store
}

/// The charges of one pass of the script: clock ns, hash blocks, DRAM
/// bytes, EPC page-ins, proofs verified and proof bytes.
fn script_charges(store: &ElsmP2) -> [u64; 6] {
    let platform = store.platform();
    let (clock, stats, verify) =
        (platform.clock().now_ns(), platform.stats(), store.verify_stats());
    for (from, to, expect) in [
        (10, 10, 1),
        (27, 36, 10),
        (28, 47, 19), // key 41 is a tombstone
        (100, 119, 20),
        (590, 610, 10), // past the last key
        (0, 0, 1),
    ] {
        let records = store.scan(&key(from), &key(to)).unwrap();
        assert_eq!(records.len(), expect, "scan {from}..={to}");
    }
    let (mut between, mut past) = (key(200), key(2 * PER_LEVEL + 5));
    between.push(b'~');
    past.push(b'~');
    for (read, found) in [
        (key(31), true),
        (key(32), true),
        (key(333), true),
        (key(41), false),
        (between, false),
        (past, false),
    ] {
        assert_eq!(store.get(&read).unwrap().is_some(), found);
    }
    let (after, verify_after) = (platform.stats(), store.verify_stats());
    [
        platform.clock().now_ns() - clock,
        after.hash_blocks - stats.hash_blocks,
        after.dram_bytes - stats.dram_bytes,
        after.epc_page_ins - stats.epc_page_ins,
        verify_after.proofs_verified - verify.proofs_verified,
        verify_after.proof_bytes - verify.proof_bytes,
    ]
}

#[test]
fn verified_read_charges_of_a_fixed_script_are_unchanged() {
    let full_crowns = two_level_store(Platform::with_defaults());
    let roots_only =
        two_level_store(Platform::new(CostModel::paper_defaults().with_epc_bytes(32 * 4096)));
    let charges = [script_charges(&full_crowns), script_charges(&roots_only)];
    // Clock ns, hash blocks, DRAM bytes, EPC page-ins, proofs, proof bytes.
    // DRAM bytes and the clock fell (188 728 → 98 628 B; 464 819 → 462 176
    // and 332 547 → 329 904 ns) when a level's capture became one walk
    // that reads each block at most once: no block is served twice from
    // the block cache. Under full crowns the proof bytes, the DRAM bytes
    // and the clock fell again (30 272 → 5 472 B, 98 628 → 83 576 B,
    // 462 176 → 461 587 ns) when stored paths stopped at the crown: both
    // levels are narrower than a crown's widest row, so a proof holds no
    // sibling. Hash blocks did not move; roots only, nothing did. Proofs,
    // proof bytes, hash blocks and the clock fell (96 → 86 proofs; 5 472 →
    // 4 902 and 30 272 → 26 918 B; 187 → 167 and 412 → 384 blocks;
    // 461 587 → 459 977 and 329 904 → 327 664 ns) when a scan level that
    // holds `from` or `to` stopped carrying a neighbour at that end: each
    // script scan but the one past the last key starts and ends at stored
    // keys. DRAM bytes did not move. Proof bytes fell (4 902 → 784 and
    // 26 918 → 22 800 B) when a proof's 57-byte header became ~9 bytes of
    // varints with the zero older digest left out; hash blocks, proofs and
    // page-ins did not move. The tables the same records fill are smaller
    // and split at other keys (full crowns: 44 551 + 8 394 → 35 966 + 1 511
    // B a level; roots only 95 119 + 41 567 → 87 547 + 33 793 B), so the
    // script reads other blocks: 21 → 18 and 24 → 25 of them, DRAM bytes
    // 83 576 → 69 342 and 98 628 → 99 991 B, the clock 459 977 → 459 556
    // and 327 664 → 327 715 ns.
    let pinned = [[459_556, 167, 69_342, 11, 86, 784], [327_715, 384, 99_991, 6, 86, 22_800]];
    assert_eq!(charges, pinned, "full crowns, then roots only");
}
