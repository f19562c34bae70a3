//! Property-based tests for the fused stripe pipeline.
//!
//! After any prelude (including a half-finished lazy migration, so batch
//! writes complete pending moves), a `write_blocks` batch must serve the
//! last value written to every block, store each block's shards exactly
//! once per write (every device's `writes` counter grows by the shards
//! placed on it), and leave no stale shard behind. Likewise
//! `read_block_into` must agree with `read_block` on healthy and degraded
//! clusters.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rshare_vds::{Redundancy, StorageCluster};

const BLOCK_SIZE: usize = 64;

fn payload(lba: u64, salt: u8) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| {
            (lba as u8)
                .wrapping_add(i as u8)
                .wrapping_mul(31)
                .wrapping_add(salt)
        })
        .collect()
}

fn build(redundancy: Redundancy) -> StorageCluster {
    StorageCluster::builder()
        .block_size(BLOCK_SIZE)
        .redundancy(redundancy)
        .device(0, 8_000)
        .device(1, 10_000)
        .device(2, 12_000)
        .device(3, 9_000)
        .device(4, 11_000)
        .device(5, 10_500)
        .device(6, 9_500)
        .build()
        .unwrap()
}

fn redundancy_for(kind: u8) -> Redundancy {
    match kind % 3 {
        0 => Redundancy::Mirror { copies: 2 },
        1 => Redundancy::ReedSolomon { data: 4, parity: 2 },
        _ => Redundancy::XorParity { data: 4 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch, including overwrites, repeated lbas and blocks still
    /// awaiting lazy migration, reads back as written and costs one shard
    /// write per placed shard.
    #[test]
    fn write_blocks_read_back_and_count_placed_shards(
        kind in any::<u8>(),
        count in 1usize..=80,
        salt in any::<u8>(),
        lazy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let redundancy = redundancy_for(kind);
        let mut c = build(redundancy);
        // Seed some blocks, optionally leaving a lazy migration
        // half-finished so the batch write has pending moves to complete.
        let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        for lba in 0..40u64 {
            c.write_block(lba, &payload(lba, 0)).unwrap();
            model.insert(lba, payload(lba, 0));
        }
        if lazy {
            c.add_device_lazy(100, 9_000).unwrap();
            c.migrate_batch(10).unwrap();
        }
        let before: BTreeMap<u64, u64> = c
            .device_ids()
            .into_iter()
            .map(|id| (id, c.device(id).unwrap().stats().writes))
            .collect();
        // The batch overlaps the prelude (overwrites + fresh blocks) and
        // may repeat an lba within the batch.
        let lbas: Vec<u64> = (0..count as u64)
            .map(|i| (seed.rotate_left(i as u32) % 60).wrapping_add(i % 3))
            .collect();
        let mut data = Vec::with_capacity(lbas.len() * BLOCK_SIZE);
        for (i, &lba) in lbas.iter().enumerate() {
            let block = payload(lba, salt.wrapping_add(i as u8));
            data.extend_from_slice(&block);
            model.insert(lba, block);
        }
        c.write_blocks(&lbas, &data).unwrap();
        // Written blocks resolve to their target placement, so one write
        // per entry lands on each device of the final placement.
        let mut placed: BTreeMap<u64, u64> = BTreeMap::new();
        for &lba in &lbas {
            for dev in c.placement(lba) {
                *placed.entry(dev).or_default() += 1;
            }
        }
        for (id, writes) in before {
            let grew = c.device(id).unwrap().stats().writes - writes;
            prop_assert_eq!(grew, placed.get(&id).copied().unwrap_or(0), "device {}", id);
        }
        for (&lba, want) in &model {
            prop_assert_eq!(&c.read_block(lba).unwrap(), want, "lba {}", lba);
        }
        let k = redundancy.total_shards() as u64;
        prop_assert_eq!(c.block_count(), model.len() as u64);
        let resident: u64 = c
            .device_ids()
            .into_iter()
            .map(|id| c.device(id).unwrap().used_blocks())
            .sum();
        prop_assert_eq!(resident, model.len() as u64 * k, "stale or missing shards");
    }

    /// `read_block_into` returns exactly what `read_block` returns, on
    /// healthy clusters and degraded ones (mirror copy loss / erasure
    /// reconstruction), without touching bytes beyond the block.
    #[test]
    fn read_block_into_equals_read_block(
        kind in any::<u8>(),
        degrade in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let redundancy = redundancy_for(kind);
        let mut c = build(redundancy);
        let lbas: Vec<u64> = (0..50u64).collect();
        for &lba in &lbas {
            c.write_block(lba, &payload(lba, 7)).unwrap();
        }
        if degrade {
            // Fail one device (within every scheme's tolerance) so some
            // reads go through the degraded path.
            let ids = c.device_ids();
            c.fail_device(ids[(seed % ids.len() as u64) as usize]).unwrap();
        }
        let mut buf = vec![0xEEu8; BLOCK_SIZE];
        for &lba in &lbas {
            let want = c.read_block(lba).expect("read_block");
            c.read_block_into(lba, &mut buf).expect("read_block_into");
            prop_assert_eq!(&buf, &want, "lba {}", lba);
        }
    }
}
