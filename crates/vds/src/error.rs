//! Error type of the storage virtualization layer.

use rshare_core::PlacementError;
use rshare_erasure::ErasureError;

/// Errors raised by the virtualized storage cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VdsError {
    /// The placement layer rejected the configuration.
    Placement(PlacementError),
    /// The erasure code rejected the shards.
    Erasure(ErasureError),
    /// The named device does not exist.
    UnknownDevice {
        /// The device identifier looked up.
        id: u64,
    },
    /// The operation targets a device that is marked failed.
    DeviceFailed {
        /// The failed device.
        id: u64,
    },
    /// A device ran out of physical capacity.
    OutOfSpace {
        /// The full device.
        id: u64,
    },
    /// The logical block has never been written.
    BlockNotFound {
        /// The logical block address.
        lba: u64,
    },
    /// Too many shards of a redundancy group are unavailable to serve or
    /// rebuild it.
    DataLoss {
        /// The logical block address.
        lba: u64,
    },
    /// A write had the wrong length for the cluster's block size.
    WrongBlockSize {
        /// Expected block size in bytes.
        expected: usize,
        /// Provided payload size.
        got: usize,
    },
    /// The cluster configuration is invalid (e.g. zero block size).
    InvalidConfig {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl std::fmt::Display for VdsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Placement(e) => write!(f, "placement error: {e}"),
            Self::Erasure(e) => write!(f, "erasure coding error: {e}"),
            Self::UnknownDevice { id } => write!(f, "no device with id {id}"),
            Self::DeviceFailed { id } => write!(f, "device {id} has failed"),
            Self::OutOfSpace { id } => write!(f, "device {id} is out of space"),
            Self::BlockNotFound { lba } => write!(f, "logical block {lba} was never written"),
            Self::DataLoss { lba } => {
                write!(
                    f,
                    "logical block {lba} is unrecoverable (too many shards lost)"
                )
            }
            Self::WrongBlockSize { expected, got } => {
                write!(
                    f,
                    "payload of {got} bytes does not match block size {expected}"
                )
            }
            Self::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for VdsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Placement(e) => Some(e),
            Self::Erasure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlacementError> for VdsError {
    fn from(e: PlacementError) -> Self {
        Self::Placement(e)
    }
}

impl From<ErasureError> for VdsError {
    fn from(e: ErasureError) -> Self {
        Self::Erasure(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: VdsError = PlacementError::ZeroReplication.into();
        assert!(matches!(e, VdsError::Placement(_)));
        assert!(std::error::Error::source(&e).is_some());
        let e: VdsError = ErasureError::ShardLengthMismatch.into();
        assert!(matches!(e, VdsError::Erasure(_)));
        assert!(VdsError::OutOfSpace { id: 3 }.to_string().contains('3'));
        assert!(VdsError::DataLoss { lba: 9 }
            .to_string()
            .contains("unrecoverable"));
    }
}
