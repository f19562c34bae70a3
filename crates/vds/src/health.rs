//! Cluster health: live metric handles, the fairness report behind the
//! paper's Lemma 3.1, and supporting types for the Prometheus surface.
//!
//! The paper's central quantitative claim is *fairness*: every device
//! should hold (and therefore serve) a share of the data proportional to
//! its adjusted capacity `b'_i / B'` (Lemma 2.2 — plain `b_i / B` unless
//! one device is too large to be filled without two copies of a block
//! landing on it). [`FairnessReport`] turns the live per-device
//! utilisation into exactly that comparison — the maximum relative
//! deviation from the fair share is the single number the experiments
//! track. [`HealthSnapshot`] bundles it with the adaptivity-side health
//! signals: migration debt (blocks still awaiting lazy migration) and
//! degraded blocks (groups missing at least one shard).
//!
//! The metric handles themselves ([`ClusterMetrics`]) are plain
//! `rshare-obs` atomics registered once at cluster construction; the hot
//! paths clone nothing and lock nothing — an instrumented read is the
//! uninstrumented read plus a handful of relaxed `fetch_add`s, and one
//! sampled read in a few dozen additionally pays two monotonic clock
//! reads for the latency histogram.

use std::sync::Arc;

use rshare_core::capacity::optimal_weights;
use rshare_obs::{Counter, Gauge, Histogram, Registry};

/// Shared handles to every series the cluster maintains, registered once
/// at construction. Cold: built once, cloned never — the cluster owns the
/// only copy and the registry keeps the other `Arc`.
pub(crate) struct ClusterMetrics {
    /// The registry all series live in (owned or shared with other
    /// clusters via [`crate::ClusterBuilder::metrics_registry`]).
    pub(crate) registry: Arc<Registry>,
    /// Successful block reads.
    pub(crate) reads_total: Arc<Counter>,
    /// Successful reads that needed a fallback copy or reconstruction.
    pub(crate) degraded_reads_total: Arc<Counter>,
    /// Successful block writes.
    pub(crate) writes_total: Arc<Counter>,
    /// Latency of successful block reads, in nanoseconds (sampled — see
    /// `LATENCY_SAMPLE` in `cluster.rs`; the read counters stay exact).
    pub(crate) read_latency_ns: Arc<Histogram>,
    /// Shard moves contained in dry-run migration plans.
    pub(crate) migration_moves_planned_total: Arc<Counter>,
    /// Shard moves actually executed by migrations and rebuilds.
    pub(crate) migration_moves_executed_total: Arc<Counter>,
    /// Shards rebuilt from redundancy during migration, rebuild or repair.
    pub(crate) shards_reconstructed_total: Arc<Counter>,
    /// Blocks repaired in place by [`crate::StorageCluster::repair`].
    pub(crate) repair_blocks_total: Arc<Counter>,
    /// Blocks still awaiting lazy migration (refreshed by snapshots).
    pub(crate) pending_blocks: Arc<Gauge>,
    /// Blocks currently missing at least one shard (refreshed by
    /// snapshots).
    pub(crate) degraded_blocks: Arc<Gauge>,
    /// Online device count (refreshed by snapshots).
    pub(crate) devices_online: Arc<Gauge>,
    /// Failed device count (refreshed by snapshots).
    pub(crate) devices_failed: Arc<Gauge>,
}

impl ClusterMetrics {
    /// Registers (or re-attaches to) the cluster's series in `registry`.
    pub(crate) fn new(registry: Arc<Registry>) -> Self {
        let r = &registry;
        Self {
            reads_total: r.counter("reads_total", "Successful block reads"),
            degraded_reads_total: r.counter(
                "degraded_reads_total",
                "Successful reads served via a fallback copy or reconstruction",
            ),
            writes_total: r.counter("writes_total", "Successful block writes"),
            read_latency_ns: r.histogram(
                "read_latency_ns",
                "Block read latency in nanoseconds (sampled reads)",
            ),
            migration_moves_planned_total: r.counter(
                "migration_moves_planned_total",
                "Shard moves contained in dry-run migration plans",
            ),
            migration_moves_executed_total: r.counter(
                "migration_moves_executed_total",
                "Shard moves executed by migrations and rebuilds",
            ),
            shards_reconstructed_total: r.counter(
                "shards_reconstructed_total",
                "Shards rebuilt from redundancy during migration, rebuild or repair",
            ),
            repair_blocks_total: r.counter(
                "repair_blocks_total",
                "Blocks repaired in place (missing shards re-stored)",
            ),
            pending_blocks: r.gauge("pending_blocks", "Blocks awaiting lazy migration"),
            degraded_blocks: r.gauge("degraded_blocks", "Blocks missing at least one shard"),
            devices_online: r.gauge("devices_online", "Devices serving I/O"),
            devices_failed: r.gauge("devices_failed", "Devices marked failed"),
            registry,
        }
    }
}

/// One online device's share of the stored data versus its fair share.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceLoad {
    /// The device identifier.
    pub device: u64,
    /// Shards currently resident on the device.
    pub used_blocks: u64,
    /// The device's capacity in shard blocks.
    pub capacity_blocks: u64,
    /// Fraction of all stored shards on this device.
    pub share: f64,
    /// The paper's fair share `b'_i / B'`: the device's Lemma 2.2 adjusted
    /// capacity over the total adjusted capacity.
    pub fair_share: f64,
    /// Relative deviation `share / fair_share - 1` (0 when the cluster is
    /// empty).
    pub deviation: f64,
}

/// Live fairness accounting over the online devices: actual shard shares
/// against the fair shares of Lemma 3.1, taken over Lemma 2.2's adjusted
/// capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Per-device loads, ascending by device id.
    pub devices: Vec<DeviceLoad>,
    /// Total shards resident on online devices.
    pub total_used: u64,
    /// Total capacity of online devices, in shard blocks.
    pub total_capacity: u64,
    /// Largest absolute relative deviation over all devices — the single
    /// fairness number the experiments track (0 for an empty cluster).
    pub max_deviation: f64,
}

impl FairnessReport {
    /// Builds the report from `(id, used, capacity)` rows of the online
    /// devices holding `k`-shard redundancy groups.
    pub(crate) fn compute(rows: &[(u64, u64, u64)], k: usize) -> Self {
        let total_used: u64 = rows.iter().map(|&(_, used, _)| used).sum();
        let total_capacity: u64 = rows.iter().map(|&(_, _, cap)| cap).sum();
        // Lemma 2.2 wants capacities in descending order; `order[r]` is the
        // row holding the r-th largest capacity.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(rows[i].2));
        let mut adjusted = vec![0.0f64; rows.len()];
        if !rows.is_empty() && k > 0 {
            let sorted: Vec<u64> = order.iter().map(|&i| rows[i].2).collect();
            for (&i, w) in order.iter().zip(optimal_weights(&sorted, k)) {
                adjusted[i] = w;
            }
        }
        let total_adjusted: f64 = adjusted.iter().sum();
        let mut max_deviation = 0.0f64;
        let devices = rows
            .iter()
            .zip(&adjusted)
            .map(|(&(device, used_blocks, capacity_blocks), &weight)| {
                let fair_share = if total_adjusted == 0.0 {
                    0.0
                } else {
                    weight / total_adjusted
                };
                let share = if total_used == 0 {
                    0.0
                } else {
                    used_blocks as f64 / total_used as f64
                };
                let deviation = if total_used == 0 || fair_share == 0.0 {
                    0.0
                } else {
                    share / fair_share - 1.0
                };
                max_deviation = max_deviation.max(deviation.abs());
                DeviceLoad {
                    device,
                    used_blocks,
                    capacity_blocks,
                    share,
                    fair_share,
                    deviation,
                }
            })
            .collect();
        Self {
            devices,
            total_used,
            total_capacity,
            max_deviation,
        }
    }
}

/// A point-in-time health summary of the cluster: device counts, the
/// adaptivity debts, and the fairness report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Devices serving I/O.
    pub devices_online: usize,
    /// Devices marked failed (contents lost, awaiting rebuild).
    pub devices_failed: usize,
    /// Logical blocks stored.
    pub blocks: u64,
    /// Blocks still awaiting lazy migration (the migration debt bounded by
    /// the paper's competitive lemmas).
    pub pending_blocks: u64,
    /// Blocks currently missing at least one shard.
    pub degraded_blocks: u64,
    /// Fairness of the current data distribution over online devices.
    pub fairness: FairnessReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_of_perfectly_fair_rows_is_zero() {
        let report = FairnessReport::compute(&[(0, 100, 1000), (1, 200, 2000), (2, 300, 3000)], 2);
        assert_eq!(report.total_used, 600);
        assert_eq!(report.total_capacity, 6000);
        assert!(report.max_deviation.abs() < 1e-12);
        assert_eq!(report.devices.len(), 3);
        assert!((report.devices[1].share - 1.0 / 3.0).abs() < 1e-12);
        assert!((report.devices[1].fair_share - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_flags_the_overloaded_device() {
        // Device 1 holds double its fair share.
        let report = FairnessReport::compute(&[(0, 100, 1500), (1, 200, 1500)], 2);
        let dev1 = &report.devices[1];
        assert!((dev1.fair_share - 0.5).abs() < 1e-12);
        assert!((dev1.share - 2.0 / 3.0).abs() < 1e-12);
        assert!((dev1.deviation - (4.0 / 3.0 - 1.0)).abs() < 1e-12);
        assert!((report.max_deviation - dev1.deviation).abs() < 1e-12);
    }

    #[test]
    fn empty_cluster_has_zero_deviation() {
        let report = FairnessReport::compute(&[(0, 0, 100), (1, 0, 200)], 2);
        assert_eq!(report.total_used, 0);
        assert_eq!(report.max_deviation, 0.0);
        assert!(report.devices.iter().all(|d| d.deviation == 0.0));
        let empty = FairnessReport::compute(&[], 2);
        assert_eq!(empty.max_deviation, 0.0);
    }

    #[test]
    fn fair_shares_follow_adjusted_capacities() {
        // Lemma 2.1's dominant device: with 2 copies device 0 can hold at
        // most one copy of every block, so its fair share is 1/2, not 3/5,
        // and a placement that fills it exactly is perfectly fair.
        let report = FairnessReport::compute(&[(0, 500, 3000), (1, 250, 1000), (2, 250, 1000)], 2);
        assert!((report.devices[0].fair_share - 0.5).abs() < 1e-12);
        assert!((report.devices[1].fair_share - 0.25).abs() < 1e-12);
        assert!(report.max_deviation.abs() < 1e-12);
        assert_eq!(report.total_capacity, 5000);
        // Without replication nothing is capped.
        let single = FairnessReport::compute(&[(0, 600, 3000), (1, 200, 1000), (2, 200, 1000)], 1);
        assert!((single.devices[0].fair_share - 0.6).abs() < 1e-12);
        assert!(single.max_deviation.abs() < 1e-12);
    }
}
