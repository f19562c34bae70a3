//! Property-based coherence tests for the epoch-versioned placement cache.
//!
//! The cache is an invisible optimisation: after *any* sequence of
//! membership changes (eager adds/removals, failures with rebuild, lazy
//! adds with partial migration) and I/O, cached lookups must be
//! bit-identical to the placements of a freshly constructed cluster over
//! the same device set — and a cache miss followed by a hit must return
//! the same answer.

use proptest::prelude::*;
use rshare_vds::{Redundancy, StorageCluster, VdsError};

const BLOCKS: u64 = 120;
const BLOCK_SIZE: usize = 64;

fn payload(lba: u64, salt: u8) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| (lba as u8).wrapping_add(i as u8).wrapping_add(salt))
        .collect()
}

fn base_cluster(cache: bool) -> StorageCluster {
    StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(Redundancy::Mirror { copies: 2 })
        .placement_cache(cache)
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
            // I/O churn: reads warm the cache, a write goes through the
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

    /// After any operation sequence, cached placements equal those of a
    /// freshly built cluster over the same devices, and a miss and the
    /// following hit agree.
    #[test]
    fn cached_placements_match_fresh_cluster(
        ops in prop::collection::vec(0u8..5, 1..8),
        seed in any::<u64>(),
    ) {
        let mut c = base_cluster(true);
        for lba in 0..BLOCKS {
            c.write_block(lba, &payload(lba, 0)).unwrap();
        }
        let mut next_id = 10u64;
        for &op in &ops {
            apply_op(&mut c, op, &mut next_id, seed).unwrap();
        }
        // Drain any in-flight lazy migration so the effective placement is
        // the target strategy's everywhere (what a fresh cluster computes).
        c.rebalance().unwrap();
        prop_assert_eq!(c.pending_blocks(), 0);
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .placement_cache(false);
        for id in c.device_ids() {
            builder = builder.device(id, c.device(id).unwrap().capacity_blocks());
        }
        let fresh = builder.build().unwrap();
        for lba in 0..BLOCKS {
            let miss_or_hit = c.placement(lba);
            let hit = c.placement(lba);
            prop_assert_eq!(&miss_or_hit, &hit, "miss/hit disagree at lba {}", lba);
            prop_assert_eq!(
                miss_or_hit,
                fresh.placement(lba),
                "cached placement diverges from fresh strategy at lba {}",
                lba
            );
        }
    }

    /// End-to-end: a cached and an uncached cluster fed the same writes and
    /// membership changes serve identical block contents.
    #[test]
    fn cached_and_uncached_clusters_serve_identical_data(
        ops in prop::collection::vec(0u8..5, 1..6),
        seed in any::<u64>(),
    ) {
        let mut cached = base_cluster(true);
        let mut uncached = base_cluster(false);
        for lba in 0..BLOCKS {
            cached.write_block(lba, &payload(lba, 1)).unwrap();
            uncached.write_block(lba, &payload(lba, 1)).unwrap();
        }
        let (mut id_a, mut id_b) = (10u64, 10u64);
        for &op in &ops {
            apply_op(&mut cached, op, &mut id_a, seed).unwrap();
            apply_op(&mut uncached, op, &mut id_b, seed).unwrap();
        }
        let read_all = |c: &StorageCluster| -> Vec<Vec<u8>> {
            (0..BLOCKS).map(|lba| c.read_block(lba).unwrap()).collect()
        };
        let a = read_all(&cached);
        let b = read_all(&uncached);
        prop_assert_eq!(&a, &b);
        // A second pass is served from the cache the first pass warmed
        // (batched migration leaves the cache cold on purpose: one epoch
        // bump per plan, no per-block traffic) and must serve the same.
        let warm = read_all(&cached);
        prop_assert_eq!(&a, &warm);
        prop_assert!(cached.cache_stats().hits > 0);
        prop_assert_eq!(uncached.cache_stats().hits, 0);
    }
}
