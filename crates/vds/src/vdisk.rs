//! A byte-addressed virtual disk on top of the block cluster.
//!
//! [`VirtualDisk`] gives applications the flat address space the paper's
//! storage virtualization promises — "what appears to be a single storage
//! device" — translating byte ranges into logical blocks, including
//! read-modify-write for unaligned writes, while the cluster underneath
//! spreads the blocks fairly and redundantly over heterogeneous devices.

use crate::cluster::StorageCluster;
use crate::error::VdsError;

/// A flat byte-addressed view of a [`StorageCluster`].
///
/// Unwritten regions read back as zeroes, like a sparse disk.
///
/// # Example
///
/// ```
/// use rshare_vds::{Redundancy, StorageCluster, VirtualDisk};
///
/// let cluster = StorageCluster::builder()
///     .block_size(64)
///     .redundancy(Redundancy::Mirror { copies: 2 })
///     .device(0, 1_000)
///     .device(1, 1_000)
///     .device(2, 1_000)
///     .build()
///     .unwrap();
/// let mut disk = VirtualDisk::new(cluster);
/// disk.write_at(100, b"hello world").unwrap();
/// assert_eq!(disk.read_at(100, 11).unwrap(), b"hello world");
/// ```
#[derive(Debug)]
pub struct VirtualDisk {
    cluster: StorageCluster,
}

impl VirtualDisk {
    /// Wraps a cluster into a byte-addressed disk.
    #[must_use]
    pub fn new(cluster: StorageCluster) -> Self {
        Self { cluster }
    }

    /// The underlying cluster (e.g. to add devices or inspect statistics).
    #[must_use]
    pub fn cluster(&self) -> &StorageCluster {
        &self.cluster
    }

    /// Mutable access to the underlying cluster for administrative
    /// operations (device add/remove/fail/rebuild).
    pub fn cluster_mut(&mut self) -> &mut StorageCluster {
        &mut self.cluster
    }

    /// Consumes the disk, returning the cluster.
    #[must_use]
    pub fn into_cluster(self) -> StorageCluster {
        self.cluster
    }

    /// Writes `data` at byte `offset`, spanning blocks as needed.
    ///
    /// # Errors
    ///
    /// Propagates cluster I/O errors. Each block is written whole or not
    /// at all, but a write spanning several blocks may leave the blocks
    /// before the failing one written (as with a real disk, callers
    /// decide how to handle torn writes).
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<(), VdsError> {
        let bs = self.cluster.block_size() as u64;
        let mut written = 0usize;
        while written < data.len() {
            let pos = offset + written as u64;
            let lba = pos / bs;
            let in_block = (pos % bs) as usize;
            let chunk = ((bs as usize) - in_block).min(data.len() - written);
            let mut block = self.read_block_or_zeroes(lba)?;
            block[in_block..in_block + chunk].copy_from_slice(&data[written..written + chunk]);
            self.cluster.write_block(lba, &block)?;
            written += chunk;
        }
        Ok(())
    }

    /// Reads `len` bytes at byte `offset`; unwritten space reads as zeroes.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable-data errors from the cluster.
    pub fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>, VdsError> {
        let bs = self.cluster.block_size() as u64;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let pos = offset + out.len() as u64;
            let lba = pos / bs;
            let in_block = (pos % bs) as usize;
            let chunk = ((bs as usize) - in_block).min(len - out.len());
            let block = self.read_block_or_zeroes(lba)?;
            out.extend_from_slice(&block[in_block..in_block + chunk]);
        }
        Ok(out)
    }

    fn read_block_or_zeroes(&mut self, lba: u64) -> Result<Vec<u8>, VdsError> {
        match self.cluster.read_block(lba) {
            Ok(block) => Ok(block),
            Err(VdsError::BlockNotFound { .. }) => Ok(vec![0u8; self.cluster.block_size()]),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundancy::Redundancy;

    fn disk() -> VirtualDisk {
        let cluster = StorageCluster::builder()
            .block_size(32)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .build()
            .unwrap();
        VirtualDisk::new(cluster)
    }

    #[test]
    fn unaligned_write_and_read() {
        let mut d = disk();
        let payload: Vec<u8> = (0..100).collect();
        d.write_at(17, &payload).unwrap();
        assert_eq!(d.read_at(17, 100).unwrap(), payload);
        // Bytes around the write read as zeroes.
        assert_eq!(d.read_at(0, 17).unwrap(), vec![0u8; 17]);
        assert_eq!(d.read_at(117, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn overlapping_writes_last_wins() {
        let mut d = disk();
        d.write_at(0, &[1u8; 64]).unwrap();
        d.write_at(30, &[2u8; 10]).unwrap();
        let got = d.read_at(0, 64).unwrap();
        assert_eq!(&got[..30], &[1u8; 30]);
        assert_eq!(&got[30..40], &[2u8; 10]);
        assert_eq!(&got[40..], &[1u8; 24]);
    }

    #[test]
    fn sparse_reads_are_zero() {
        let mut d = disk();
        assert_eq!(d.read_at(1_000_000, 5).unwrap(), vec![0u8; 5]);
    }

    #[test]
    fn unrecoverable_data_surfaces_as_error() {
        let mut d = disk();
        d.write_at(0, &[5u8; 64]).unwrap();
        d.cluster_mut().fail_device(0).unwrap();
        d.cluster_mut().fail_device(1).unwrap();
        // Two of three devices gone under 2-way mirroring: some block of
        // the written range is unrecoverable.
        let result = d.read_at(0, 64);
        assert!(
            matches!(result, Err(crate::error::VdsError::DataLoss { .. })) || result.is_ok(),
            "must be either served or an explicit DataLoss"
        );
        // Writing through a half-dead cluster can also fail loudly rather
        // than silently dropping data.
        let write = d.write_at(0, &[1u8; 256]);
        if let Err(e) = write {
            assert!(matches!(
                e,
                crate::error::VdsError::DeviceFailed { .. }
                    | crate::error::VdsError::DataLoss { .. }
            ));
        }
    }

    #[test]
    fn survives_failure_through_cluster_access() {
        let mut d = disk();
        d.write_at(0, &[9u8; 200]).unwrap();
        d.cluster_mut().fail_device(1).unwrap();
        assert_eq!(d.read_at(0, 200).unwrap(), vec![9u8; 200]);
        d.cluster_mut().rebuild().unwrap();
        assert_eq!(d.read_at(0, 200).unwrap(), vec![9u8; 200]);
    }
}
