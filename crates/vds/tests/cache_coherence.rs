//! Property-based coherence tests for the block table's rows.
//!
//! A row records where a block's shards are. After *any* sequence of
//! membership changes (eager adds/removals, failures with rebuild, lazy
//! adds with partial migration) and I/O, once the migration has drained,
//! every row must be bit-identical to the placement a freshly constructed
//! cluster over the same device set computes — and two lookups must
//! return the same answer. Served data is pinned by
//! `migration_coherence.rs`'s model proptest.

use proptest::prelude::*;
use rshare_vds::{Redundancy, StorageCluster, VdsError};

const BLOCKS: u64 = 120;
const BLOCK_SIZE: usize = 64;

fn payload(lba: u64, salt: u8) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| (lba as u8).wrapping_add(i as u8).wrapping_add(salt))
        .collect()
}

fn base_cluster() -> StorageCluster {
    StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .device(0, 8_000)
        .device(1, 10_000)
        .device(2, 12_000)
        .device(3, 9_000)
        .build()
        .unwrap()
}

/// Applies one membership / I/O operation, keeping the cluster valid.
fn apply_op(c: &mut StorageCluster, op: u8, next_id: &mut u64, seed: u64) -> Result<(), VdsError> {
    match op % 5 {
        0 => {
            c.add_device(*next_id, 7_000 + seed % 5_000)?;
            *next_id += 1;
        }
        1 => {
            let ids = c.device_ids();
            if ids.len() > 3 {
                c.remove_device(*ids.last().expect("non-empty"))?;
            }
        }
        2 => {
            let ids = c.device_ids();
            if ids.len() > 3 {
                c.fail_device(ids[0])?;
                c.rebuild()?;
            }
        }
        3 => {
            c.add_device_lazy(*next_id, 9_000)?;
            *next_id += 1;
            // Migrate only part of the blocks, so later operations (and the
            // final check) see a cluster mid-migration at some point.
            c.migrate_batch(BLOCKS / 3)?;
        }
        _ => {
            // I/O churn: reads answer from rows, a write goes through the
            // target placement path.
            for lba in (0..BLOCKS).step_by(7) {
                c.read_block(lba)?;
            }
            c.write_block(seed % BLOCKS, &payload(seed % BLOCKS, 0xA5))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any operation sequence, drained rows equal the placements of
    /// a freshly built cluster over the same devices, and two lookups
    /// agree.
    #[test]
    fn cached_placements_match_fresh_cluster(
        ops in prop::collection::vec(0u8..5, 1..8),
        seed in any::<u64>(),
    ) {
        let mut c = base_cluster();
        for lba in 0..BLOCKS {
            c.write_block(lba, &payload(lba, 0)).unwrap();
        }
        let mut next_id = 10u64;
        for &op in &ops {
            apply_op(&mut c, op, &mut next_id, seed).unwrap();
        }
        // Drain any in-flight lazy migration so every row holds the target
        // strategy's placement (what a fresh cluster computes).
        c.rebalance().unwrap();
        prop_assert_eq!(c.pending_blocks(), 0);
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in c.device_ids() {
            builder = builder.device(id, c.device(id).unwrap().capacity_blocks());
        }
        let fresh = builder.build().unwrap();
        for lba in 0..BLOCKS {
            let first = c.placement(lba);
            let second = c.placement(lba);
            prop_assert_eq!(&first, &second, "lookups disagree at lba {}", lba);
            prop_assert_eq!(
                first,
                fresh.placement(lba),
                "row diverges from fresh strategy at lba {}",
                lba
            );
        }
    }
}
