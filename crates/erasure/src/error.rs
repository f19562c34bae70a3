//! Error type shared by all erasure codes.

/// Errors raised by erasure-code construction, encoding and reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErasureError {
    /// The code parameters are invalid (zero shards, too many total shards,
    /// or a prime-parameter requirement violated).
    InvalidParameters {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The number of shards passed does not match the code geometry.
    WrongShardCount {
        /// Shards expected by the code.
        expected: usize,
        /// Shards actually provided.
        got: usize,
    },
    /// The shards do not all have the same length.
    ShardLengthMismatch,
    /// The shard length violates a code constraint (e.g. EVENODD and RDP
    /// need a multiple of `p - 1` bytes).
    BadShardLength {
        /// The required divisor of the shard length.
        multiple_of: usize,
    },
    /// More shards are missing than the code can tolerate.
    TooManyErasures {
        /// Number of missing shards.
        missing: usize,
        /// Maximum tolerated erasures.
        tolerated: usize,
    },
    /// A shard asked to be decoded is present, out of range, or asked for
    /// twice.
    NotMissing {
        /// The shard index.
        index: usize,
    },
}

impl std::fmt::Display for ErasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameters { reason } => write!(f, "invalid code parameters: {reason}"),
            Self::WrongShardCount { expected, got } => {
                write!(f, "expected {expected} shards, got {got}")
            }
            Self::ShardLengthMismatch => write!(f, "shards have differing lengths"),
            Self::BadShardLength { multiple_of } => {
                write!(
                    f,
                    "shard length must be a positive multiple of {multiple_of}"
                )
            }
            Self::TooManyErasures { missing, tolerated } => {
                write!(
                    f,
                    "{missing} shards missing, but only {tolerated} tolerated"
                )
            }
            Self::NotMissing { index } => write!(f, "shard {index} is not a missing shard"),
        }
    }
}

impl std::error::Error for ErasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(ErasureError::ShardLengthMismatch
            .to_string()
            .contains("length"));
        assert!(ErasureError::WrongShardCount {
            expected: 5,
            got: 3
        }
        .to_string()
        .contains("5"));
        assert!(ErasureError::TooManyErasures {
            missing: 3,
            tolerated: 2
        }
        .to_string()
        .contains("3"));
        assert!(ErasureError::NotMissing { index: 7 }
            .to_string()
            .contains("7"));
        assert!(ErasureError::BadShardLength { multiple_of: 4 }
            .to_string()
            .contains("4"));
        assert!(ErasureError::InvalidParameters {
            reason: "p must be prime"
        }
        .to_string()
        .contains("prime"));
    }
}
