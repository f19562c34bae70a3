//! Property-based tests for the batched migration path.
//!
//! Mirrors `cache_coherence.rs`, but for the rebalance engine: after any
//! sequence of membership churn (eager adds/removals, failures with
//! rebuild, lazy adds drained by `migrate_batch`) followed by a final
//! `rebalance`, every block's served bytes are identical to what was
//! written, and every placement matches a freshly built cluster over the
//! same device set. A second property pins the paper's Lemma 3.2 bound:
//! the planned migration for a single-device add or remove moves at most
//! 4× the fair minimum, and a deterministic sweep checks it — and Lemma
//! 3.5's k² bound for erasure groups — at every cluster size up to 130.

use std::collections::HashMap;

use proptest::prelude::*;
use rshare_vds::{Redundancy, StorageCluster, VdsError};

const BLOCKS: u64 = 96;
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

/// Applies one membership / I/O operation, updating the shadow `model` of
/// expected block contents.
fn apply_op(
    c: &mut StorageCluster,
    model: &mut HashMap<u64, Vec<u8>>,
    op: u8,
    next_id: &mut u64,
    seed: u64,
) -> Result<(), VdsError> {
    match op % 6 {
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
            // Lazy add drained part-way by the batched executor, so later
            // operations see a cluster mid-migration.
            c.add_device_lazy(*next_id, 9_000)?;
            *next_id += 1;
            c.migrate_batch(BLOCKS / 3)?;
        }
        4 => {
            // Lazy add drained by two budgeted batches: consecutive calls
            // must compose on the same pending set.
            c.add_device_lazy(*next_id, 8_000)?;
            *next_id += 1;
            c.migrate_batch(BLOCKS / 5)?;
            c.migrate_batch(BLOCKS / 7)?;
        }
        _ => {
            // I/O churn: overwrite a few blocks (tracked in the model).
            for i in 0..3u64 {
                let lba = (seed.wrapping_add(i * 31)) % BLOCKS;
                let data = payload(lba, 0xA5u8.wrapping_add(i as u8));
                c.write_block(lba, &data)?;
                model.insert(lba, data);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// After random membership churn and a final `rebalance`, served data
    /// is byte-identical to what was written and every placement matches
    /// a freshly built (strategy-only) cluster over the same devices.
    #[test]
    fn rebalance_preserves_data_and_matches_fresh_strategy(
        ops in prop::collection::vec(0u8..6, 1..8),
        seed in any::<u64>(),
    ) {
        let mut c = base_cluster();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for lba in 0..BLOCKS {
            let data = payload(lba, 0);
            c.write_block(lba, &data).unwrap();
            model.insert(lba, data);
        }
        let mut next_id = 10u64;
        for &op in &ops {
            apply_op(&mut c, &mut model, op, &mut next_id, seed).unwrap();
        }
        // Drain whatever lazy migration is still in flight.
        c.rebalance().unwrap();
        prop_assert_eq!(c.pending_blocks(), 0);
        // Byte-identical service for every block.
        let mut got = vec![0u8; BLOCK_SIZE];
        for lba in 0..BLOCKS {
            c.read_block_into(lba, &mut got).unwrap();
            prop_assert_eq!(&got, &model[&lba], "data diverged at lba {}", lba);
        }
        // Placements equal a fresh cluster's over the same device set.
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in c.device_ids() {
            builder = builder.device(id, c.device(id).unwrap().capacity_blocks());
        }
        let fresh = builder.build().unwrap();
        for lba in 0..BLOCKS {
            prop_assert_eq!(
                c.placement(lba),
                fresh.placement(lba),
                "placement diverged from fresh strategy at lba {}",
                lba
            );
        }
        // Full redundancy everywhere: nothing latent left behind.
        prop_assert_eq!(c.scrub().unwrap(), 0);
    }

    /// Lemma 3.2: a single-device add or remove plans at most 4× the fair
    /// minimum movement (the paper measures ≈1.5 for adds, ≈2.5 for
    /// removals; 4 is the proven bound).
    #[test]
    fn single_device_churn_is_four_competitive(
        caps in prop::collection::vec(6_000u64..14_000, 2..=130),
        new_cap in 6_000u64..14_000,
        seed in any::<u64>(),
    ) {
        let mut builder = StorageCluster::builder()
            .block_size(BLOCK_SIZE)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for (id, &cap) in caps.iter().enumerate() {
            builder = builder.device(id as u64, cap);
        }
        let mut c = builder.build().unwrap();
        for lba in 0..1_500u64 {
            c.write_block(lba, &payload(lba, seed as u8)).unwrap();
        }
        let new_id = caps.len() as u64;
        let add = c.plan_add_device(new_id, new_cap).unwrap();
        prop_assert!(add.fair_min_shards > 0.0);
        let add_ratio = add.competitive_ratio();
        prop_assert!(
            add_ratio <= 4.0,
            "add ratio {} exceeds the Lemma 3.2 bound", add_ratio
        );
        // Moves are necessary at all: something flows onto the new device.
        prop_assert!(add.moves.iter().any(|m| m.to == new_id));
        if caps.len() > 2 {
            let victim = seed % caps.len() as u64;
            let remove = c.plan_remove_device(victim).unwrap();
            prop_assert!(remove.fair_min_shards > 0.0);
            let remove_ratio = remove.competitive_ratio();
            prop_assert!(
                (1.0..=4.0).contains(&remove_ratio),
                "remove ratio {} outside [1, 4]", remove_ratio
            );
        }
    }
}

/// Heterogeneous capacity of device `id` in the sweeps: 6,000–13,999.
fn sweep_capacity(id: u64) -> u64 {
    6_000 + id.wrapping_mul(7_919) % 8_000
}

/// Builds an `n`-device cluster holding 1,500 blocks, then plans adding
/// device `n` and — where more than `k` devices exist — removing one, and
/// asserts both plans stay within `bound` × their fair minimum.
fn assert_churn_bounded(redundancy: Redundancy, block_size: usize, n: u64, bound: f64) {
    const SWEEP_BLOCKS: u64 = 1_500;
    let mut builder = StorageCluster::builder()
        .block_size(block_size)
        .redundancy(redundancy);
    for id in 0..n {
        builder = builder.device(id, sweep_capacity(id));
    }
    let mut c = builder.build().unwrap();
    let lbas: Vec<u64> = (0..SWEEP_BLOCKS).collect();
    let data: Vec<u8> = (0..SWEEP_BLOCKS as usize * block_size)
        .map(|i| i as u8)
        .collect();
    c.write_blocks(&lbas, &data).unwrap();
    let add = c.plan_add_device(n, sweep_capacity(n)).unwrap();
    assert!(
        add.competitive_ratio() <= bound,
        "{redundancy:?}: adding device {n} moves {} shards, {:.2}× the fair minimum (bound {bound})",
        add.moves.len(),
        add.competitive_ratio()
    );
    if n as usize > redundancy.total_shards() {
        let victim = n / 3;
        let remove = c.plan_remove_device(victim).unwrap();
        assert!(
            remove.competitive_ratio() <= bound,
            "{redundancy:?}: removing device {victim} of {n} moves {} shards, {:.2}× the fair minimum (bound {bound})",
            remove.moves.len(),
            remove.competitive_ratio()
        );
    }
}

/// Lemma 3.2 at every cluster size: no membership change of a 2-way
/// mirror moves more than 4× its fair minimum, whatever the device count.
#[test]
fn mirror_churn_is_four_competitive_at_every_size() {
    for n in 2..=130 {
        assert_churn_bounded(Redundancy::Mirror { copies: 2 }, 16, n, 4.0);
    }
}

/// Lemma 3.5 at every cluster size: an RS(4,2) group (k = 6) never moves
/// more than k² = 36× its fair minimum.
#[test]
fn erasure_churn_is_k_squared_competitive_at_every_size() {
    for n in 6..=130 {
        assert_churn_bounded(Redundancy::ReedSolomon { data: 4, parity: 2 }, 64, n, 36.0);
    }
}
