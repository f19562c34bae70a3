//! A thread-safe handle to a storage cluster.
//!
//! Reads on a [`StorageCluster`] take `&self`: shard contents and the
//! block table only change under `&mut self`, and a read mutates nothing
//! but atomic counters (per-device I/O, cache hits and misses), so it
//! takes no lock of its own. [`SharedCluster`] wraps the
//! cluster in a reader-writer lock for concurrent callers — many
//! application threads issuing I/O while an operator thread runs
//! migrations. Reads share the lock and run in parallel; writes,
//! membership changes and [`SharedCluster::with`] hold it exclusively, so
//! every operation observes a serializable state. This is where the block
//! store's parallelism lives: the cluster's own operations run on the
//! calling thread.

use std::sync::{Arc, RwLock};

use crate::cluster::StorageCluster;
use crate::error::VdsError;
use crate::migration::MigrationReport;

/// A cloneable, `Send + Sync` handle to a [`StorageCluster`].
///
/// # Example
///
/// ```
/// use rshare_vds::{Redundancy, SharedCluster, StorageCluster};
///
/// let cluster = StorageCluster::builder()
///     .block_size(16)
///     .redundancy(Redundancy::Mirror { copies: 2 })
///     .device(0, 1_000)
///     .device(1, 1_000)
///     .device(2, 1_000)
///     .build()
///     .unwrap();
/// let shared = SharedCluster::new(cluster);
/// let writer = shared.clone();
/// std::thread::spawn(move || writer.write_block(0, &[1u8; 16]))
///     .join()
///     .unwrap()
///     .unwrap();
/// assert_eq!(shared.read_block(0).unwrap(), vec![1u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub struct SharedCluster {
    inner: Arc<RwLock<StorageCluster>>,
}

impl SharedCluster {
    /// Wraps a cluster for shared use.
    #[must_use]
    pub fn new(cluster: StorageCluster) -> Self {
        Self {
            inner: Arc::new(RwLock::new(cluster)),
        }
    }

    /// Runs `f` with exclusive access to the cluster — the escape hatch
    /// for any operation without a dedicated wrapper.
    pub fn with<R>(&self, f: impl FnOnce(&mut StorageCluster) -> R) -> R {
        let mut guard = self.inner.write().expect("cluster lock poisoned");
        f(&mut guard)
    }

    /// See [`StorageCluster::write_block`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying cluster error.
    pub fn write_block(&self, lba: u64, data: &[u8]) -> Result<(), VdsError> {
        self.with(|c| c.write_block(lba, data))
    }

    /// See [`StorageCluster::read_block`]. Holds the lock shared, so
    /// reads on different threads run in parallel.
    ///
    /// # Errors
    ///
    /// Propagates the underlying cluster error.
    pub fn read_block(&self, lba: u64) -> Result<Vec<u8>, VdsError> {
        self.inner
            .read()
            .expect("cluster lock poisoned")
            .read_block(lba)
    }

    /// See [`StorageCluster::add_device`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying cluster error.
    pub fn add_device(&self, id: u64, capacity_blocks: u64) -> Result<MigrationReport, VdsError> {
        self.with(|c| c.add_device(id, capacity_blocks))
    }

    /// See [`StorageCluster::migrate_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::migrate_batch`].
    pub fn migrate_batch(&self, max_blocks: u64) -> Result<MigrationReport, VdsError> {
        self.with(|c| c.migrate_batch(max_blocks))
    }

    /// See [`StorageCluster::rebalance`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::rebalance`].
    pub fn rebalance(&self) -> Result<MigrationReport, VdsError> {
        self.with(|c| c.rebalance())
    }

    /// Consumes the handle, returning the cluster if this was the last
    /// clone (`Err(self)` otherwise).
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when other handles still exist.
    pub fn try_unwrap(self) -> Result<StorageCluster, Self> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner().expect("cluster lock poisoned")),
            Err(inner) => Err(Self { inner }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::Redundancy;

    fn shared() -> SharedCluster {
        let cluster = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 50_000)
            .device(1, 50_000)
            .device(2, 50_000)
            .device(3, 50_000)
            .build()
            .unwrap();
        SharedCluster::new(cluster)
    }

    #[test]
    fn concurrent_writers_and_readers_stay_consistent() {
        let cluster = shared();
        let threads = 4u32;
        let per_thread = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let c = cluster.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let lba = u64::from(t) * per_thread + i;
                        let payload = [lba as u8; 16];
                        c.write_block(lba, &payload).unwrap();
                        assert_eq!(c.read_block(lba).unwrap(), payload);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut cluster = cluster.try_unwrap().expect("last handle");
        assert_eq!(cluster.block_count(), u64::from(threads) * per_thread);
        assert_eq!(cluster.scrub().unwrap(), 0);
    }

    #[test]
    fn migration_races_with_io() {
        let cluster = shared();
        for lba in 0..2_000u64 {
            cluster.write_block(lba, &[lba as u8; 16]).unwrap();
        }
        cluster
            .with(|c| c.add_device_lazy(9, 50_000).map(|_| ()))
            .unwrap();
        let migrator = {
            let c = cluster.clone();
            std::thread::spawn(move || {
                while c.with(|cluster| cluster.pending_blocks()) > 0 {
                    c.migrate_batch(50).unwrap();
                }
            })
        };
        let reader = {
            let c = cluster.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    for lba in (0..2_000u64).step_by(17) {
                        assert_eq!(c.read_block(lba).unwrap(), [lba as u8; 16], "round {round}");
                    }
                }
            })
        };
        migrator.join().unwrap();
        reader.join().unwrap();
        let mut cluster = cluster.try_unwrap().expect("last handle");
        assert_eq!(cluster.pending_blocks(), 0);
        assert_eq!(cluster.scrub().unwrap(), 0);
    }

    #[test]
    fn reads_do_not_wait_for_other_readers() {
        let cluster = shared();
        cluster.write_block(7, &[7u8; 16]).unwrap();
        // Hold a read guard for the whole test: a reader on another thread
        // must still get through.
        let _guard = cluster.inner.read().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = cluster.clone();
        let handle = std::thread::spawn(move || {
            tx.send(reader.read_block(7)).unwrap();
        });
        let got = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("read_block blocked behind another reader");
        assert_eq!(got.unwrap(), vec![7u8; 16]);
        handle.join().unwrap();
    }

    #[test]
    fn try_unwrap_respects_outstanding_handles() {
        let cluster = shared();
        let other = cluster.clone();
        let cluster = cluster.try_unwrap().expect_err("handle outstanding");
        drop(other);
        assert!(cluster.try_unwrap().is_ok());
    }
}
