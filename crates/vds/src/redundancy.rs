//! Redundancy schemes for blocks: mirroring or erasure coding.
//!
//! A logical block is expanded into a *redundancy group* of `total_shards`
//! shards; the block's row records which device holds shard `i` (first the
//! i-th bin the placement strategy returns) — the copy identity the paper
//! requires for erasure-coded data ("each sub-block has a different
//! meaning and therefore has to be handled differently").

use rshare_erasure::{ArrayCode, ErasureCode, MatrixCode, ReedSolomon};

use crate::error::VdsError;

/// The redundancy applied to every logical block of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// Plain k-fold mirroring (the paper's running example).
    Mirror {
        /// Number of copies (k ≥ 1).
        copies: usize,
    },
    /// Single XOR parity over `data` sub-blocks (RAID-4/5).
    XorParity {
        /// Number of data sub-blocks.
        data: usize,
    },
    /// EVENODD double-fault tolerance with prime parameter `p`.
    EvenOdd {
        /// The prime parameter (also the number of data sub-blocks).
        p: usize,
    },
    /// Row-Diagonal Parity with prime parameter `p` (`p − 1` data
    /// sub-blocks).
    Rdp {
        /// The prime parameter.
        p: usize,
    },
    /// Reed–Solomon with arbitrary data/parity split.
    ReedSolomon {
        /// Data sub-blocks.
        data: usize,
        /// Parity sub-blocks.
        parity: usize,
    },
    /// A Local Reconstruction Code: per-group XOR parities for cheap
    /// single-shard repairs plus global parities for burst failures.
    LocalReconstruction {
        /// Number of data groups.
        groups: usize,
        /// Data sub-blocks per group.
        group_size: usize,
        /// Global parity sub-blocks.
        global_parity: usize,
    },
}

impl Redundancy {
    /// Total shards per redundancy group (k in placement terms).
    #[must_use]
    pub fn total_shards(&self) -> usize {
        match *self {
            Self::Mirror { copies } => copies,
            Self::XorParity { data } => data + 1,
            Self::EvenOdd { p } => p + 2,
            Self::Rdp { p } => p + 1, // (p - 1) data + row parity + diagonal parity
            Self::ReedSolomon { data, parity } => data + parity,
            Self::LocalReconstruction {
                groups,
                group_size,
                global_parity,
            } => groups * group_size + groups + global_parity,
        }
    }

    /// Number of shard losses every block survives.
    #[must_use]
    pub fn tolerated_failures(&self) -> usize {
        match *self {
            Self::Mirror { copies } => copies.saturating_sub(1),
            Self::XorParity { .. } => 1,
            Self::EvenOdd { .. } | Self::Rdp { .. } => 2,
            Self::ReedSolomon { parity, .. } => parity,
            Self::LocalReconstruction { global_parity, .. } => global_parity + 1,
        }
    }

    /// Builds the erasure codec, or `None` for mirroring.
    pub(crate) fn codec(&self) -> Result<Option<Box<dyn ErasureCode>>, VdsError> {
        Ok(match *self {
            Self::Mirror { copies } => {
                if copies == 0 {
                    return Err(VdsError::InvalidConfig {
                        reason: "mirroring needs at least one copy",
                    });
                }
                None
            }
            Self::XorParity { data } => Some(Box::new(MatrixCode::xor_parity(data)?)),
            Self::EvenOdd { p } => Some(Box::new(ArrayCode::evenodd(p)?)),
            Self::Rdp { p } => Some(Box::new(ArrayCode::rdp(p)?)),
            Self::ReedSolomon { data, parity } => Some(Box::new(ReedSolomon::new(data, parity)?)),
            Self::LocalReconstruction {
                groups,
                group_size,
                global_parity,
            } => Some(Box::new(MatrixCode::local_reconstruction(
                groups,
                group_size,
                global_parity,
            )?)),
        })
    }

    /// The divisor the cluster block size must satisfy.
    pub(crate) fn block_multiple(&self, codec: Option<&dyn ErasureCode>) -> usize {
        match self {
            Self::Mirror { .. } => 1,
            _ => {
                let codec = codec.expect("erasure scheme has a codec");
                codec.data_shards() * codec.shard_multiple()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stripes `block` over the codec's data shards and appends parity.
    fn encode(codec: &dyn ErasureCode, block: &[u8]) -> Vec<Vec<u8>> {
        let shard_len = block.len() / codec.data_shards();
        let mut shards: Vec<Vec<u8>> = block.chunks_exact(shard_len).map(<[u8]>::to_vec).collect();
        shards.resize(codec.total_shards(), vec![0; shard_len]);
        codec.encode(&mut shards).unwrap();
        shards
    }

    #[test]
    fn geometry() {
        assert_eq!(Redundancy::Mirror { copies: 3 }.total_shards(), 3);
        assert_eq!(Redundancy::Mirror { copies: 3 }.tolerated_failures(), 2);
        assert!(Redundancy::Mirror { copies: 3 }.codec().unwrap().is_none());
        assert_eq!(Redundancy::XorParity { data: 4 }.total_shards(), 5);
        assert_eq!(Redundancy::EvenOdd { p: 5 }.total_shards(), 7);
        assert_eq!(Redundancy::Rdp { p: 5 }.total_shards(), 6);
        assert_eq!(
            Redundancy::ReedSolomon { data: 6, parity: 3 }.total_shards(),
            9
        );
        assert_eq!(
            Redundancy::ReedSolomon { data: 6, parity: 3 }.tolerated_failures(),
            3
        );
    }

    /// Reconstructs `shards` and concatenates the data shards.
    fn decode(codec: &dyn ErasureCode, mut shards: Vec<Option<Vec<u8>>>) -> Vec<u8> {
        codec.reconstruct(&mut shards).unwrap();
        shards[..codec.data_shards()]
            .iter()
            .flat_map(|s| s.as_deref().unwrap().iter().copied())
            .collect()
    }

    #[test]
    fn erasure_roundtrip_with_loss() {
        let scheme = Redundancy::ReedSolomon { data: 4, parity: 2 };
        let codec = scheme.codec().unwrap();
        let block: Vec<u8> = (0..32).collect();
        let shards = encode(codec.as_deref().unwrap(), &block);
        assert_eq!(shards.len(), 6);
        let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        opt[0] = None;
        opt[5] = None;
        let got = decode(codec.as_deref().unwrap(), opt);
        assert_eq!(got, block);
    }

    #[test]
    fn rdp_geometry_matches_codec() {
        let scheme = Redundancy::Rdp { p: 5 };
        let codec = scheme.codec().unwrap().unwrap();
        assert_eq!(codec.total_shards(), scheme.total_shards());
        let scheme = Redundancy::EvenOdd { p: 5 };
        let codec = scheme.codec().unwrap().unwrap();
        assert_eq!(codec.total_shards(), scheme.total_shards());
    }

    #[test]
    fn lrc_roundtrip_with_loss() {
        let scheme = Redundancy::LocalReconstruction {
            groups: 2,
            group_size: 2,
            global_parity: 2,
        };
        assert_eq!(scheme.total_shards(), 8);
        assert_eq!(scheme.tolerated_failures(), 3);
        let codec = scheme.codec().unwrap();
        let block: Vec<u8> = (0..32).collect();
        let shards = encode(codec.as_deref().unwrap(), &block);
        assert_eq!(shards.len(), 8);
        let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        opt[0] = None;
        opt[3] = None;
        opt[6] = None;
        let got = decode(codec.as_deref().unwrap(), opt);
        assert_eq!(got, block);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Redundancy::Mirror { copies: 0 }.codec().is_err());
        assert!(Redundancy::EvenOdd { p: 4 }.codec().is_err());
        assert!(Redundancy::Rdp { p: 2 }.codec().is_err());
        assert!(Redundancy::ReedSolomon { data: 0, parity: 1 }
            .codec()
            .is_err());
    }
}
