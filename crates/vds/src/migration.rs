//! Migration planning and accounting types.
//!
//! A membership change moves data; the paper's adaptivity results (Lemmas
//! 3.2–3.5) bound *how much*. This module holds the vocabulary for that
//! machinery: [`MigrationReport`] measures what an executed migration did,
//! [`MigrationPlan`] is the dry-run (what a change *would* move), and
//! [`ShardMove`] is the unit both speak in.
//!
//! The plan carries enough accounting — planned vs. total blocks and the
//! fair minimum the change could possibly move — that the measured
//! competitive ratio of Lemma 3.2 falls out of
//! [`MigrationPlan::competitive_ratio`] for free.

use std::collections::BTreeMap;

/// Outcome of a data migration triggered by a membership change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Logical blocks examined.
    pub blocks: u64,
    /// Total shards examined (`blocks × total_shards`).
    pub shards_total: u64,
    /// Shards whose device changed and were copied.
    pub shards_moved: u64,
    /// Shards that had to be reconstructed from redundancy because their
    /// source device was gone.
    pub shards_reconstructed: u64,
}

impl MigrationReport {
    /// The fraction of shards moved — the quantity the paper's
    /// competitiveness results bound.
    #[must_use]
    pub fn moved_fraction(&self) -> f64 {
        if self.shards_total == 0 {
            0.0
        } else {
            self.shards_moved as f64 / self.shards_total as f64
        }
    }

    /// Folds another report into this one — incremental drivers
    /// ([`crate::StorageCluster::migrate_batch`] in a loop) accumulate
    /// their per-call reports into one total.
    pub fn merge(&mut self, other: MigrationReport) {
        self.blocks += other.blocks;
        self.shards_total += other.shards_total;
        self.shards_moved += other.shards_moved;
        self.shards_reconstructed += other.shards_reconstructed;
    }
}

/// One shard relocation in a migration dry-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Logical block address of the redundancy group.
    pub lba: u64,
    /// Copy / shard index within the group.
    pub copy: usize,
    /// Device currently computed to hold the shard.
    pub from: u64,
    /// Device that will hold it after the change.
    pub to: u64,
}

/// A dry-run migration plan: what a membership change *would* move.
///
/// Produced by [`crate::StorageCluster::plan_add_device`],
/// [`crate::StorageCluster::plan_remove_device`] and
/// [`crate::StorageCluster::plan_rebuild`] without touching any data, so
/// operators can inspect the migration volume (per-device inflow,
/// measured competitive ratio) before committing to a change.
///
/// Each stored block's block-table row (where its shards are) is diffed
/// against its placement under the candidate membership, and the moves are
/// sorted by `(from, to, lba, copy)`.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// Every shard that would change devices, sorted by
    /// `(from, to, lba, copy)`.
    pub moves: Vec<ShardMove>,
    /// Total shards examined.
    pub shards_total: u64,
    /// Total logical blocks examined.
    pub blocks_total: u64,
    /// Blocks with at least one moving shard. Under 2–4-competitive churn
    /// most blocks are unchanged, so `blocks_planned ≪ blocks_total`.
    pub blocks_planned: u64,
    /// The fair minimum number of shards *any* placement strategy must
    /// move for this change: the capacity share of an added device, or
    /// the shards resident on a removed one. Zero when unknown (e.g. a
    /// no-op rebuild), in which case the competitive ratio is undefined.
    pub fair_min_shards: f64,
}

impl MigrationPlan {
    /// Fraction of all shards that would move.
    #[must_use]
    pub fn moved_fraction(&self) -> f64 {
        if self.shards_total == 0 {
            0.0
        } else {
            self.moves.len() as f64 / self.shards_total as f64
        }
    }

    /// The measured competitive ratio: planned moves over the fair
    /// minimum any strategy must move (Lemma 3.2 bounds this by 2–4 for
    /// Redundant Share). Returns 0.0 when the fair minimum is zero —
    /// a no-op change has no meaningful ratio.
    #[must_use]
    pub fn competitive_ratio(&self) -> f64 {
        if self.fair_min_shards <= 0.0 {
            0.0
        } else {
            self.moves.len() as f64 / self.fair_min_shards
        }
    }

    /// Bytes-free view: shards flowing *into* each device, as
    /// `(device, count)` sorted by device id.
    #[must_use]
    pub fn inflow_per_device(&self) -> Vec<(u64, u64)> {
        let mut map = BTreeMap::new();
        for mv in &self.moves {
            *map.entry(mv.to).or_insert(0u64) += 1;
        }
        map.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(lba: u64, copy: usize, from: u64, to: u64) -> ShardMove {
        ShardMove {
            lba,
            copy,
            from,
            to,
        }
    }

    #[test]
    fn merge_accumulates_all_counters() {
        let mut a = MigrationReport {
            blocks: 1,
            shards_total: 2,
            shards_moved: 1,
            shards_reconstructed: 0,
        };
        a.merge(MigrationReport {
            blocks: 3,
            shards_total: 6,
            shards_moved: 2,
            shards_reconstructed: 1,
        });
        assert_eq!(
            a,
            MigrationReport {
                blocks: 4,
                shards_total: 8,
                shards_moved: 3,
                shards_reconstructed: 1,
            }
        );
        assert!((a.moved_fraction() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn competitive_ratio_handles_noop() {
        let plan = MigrationPlan::default();
        assert_eq!(plan.competitive_ratio(), 0.0);
        let plan = MigrationPlan {
            moves: vec![mv(0, 0, 1, 2), mv(1, 0, 1, 2), mv(2, 1, 3, 2)],
            shards_total: 10,
            blocks_total: 5,
            blocks_planned: 3,
            fair_min_shards: 2.0,
        };
        assert!((plan.competitive_ratio() - 1.5).abs() < 1e-12);
    }
}
