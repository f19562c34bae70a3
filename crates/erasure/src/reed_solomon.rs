//! Systematic Reed–Solomon codes over GF(256).
//!
//! The encode matrix is a Vandermonde matrix transformed so its top `d × d`
//! block is the identity (Plank's construction): data shards pass through
//! unchanged and each parity shard is a fixed GF(256)-linear combination of
//! the data shards. Any `d` surviving shards suffice to reconstruct all
//! `d + p`, so the code tolerates any `p` erasures — the "Reed-Solomon
//! Codes" case the paper lists among the redundancy schemes Redundant Share
//! supports.

use crate::code::ErasureCode;
use crate::error::ErasureError;
use crate::matrix::Matrix;
use crate::matrix_code::MatrixCode;

/// A systematic Reed–Solomon erasure code with `d` data and `p` parity
/// shards: the MDS instance of [`MatrixCode`], which does all the encoding
/// and decoding. The type pins the guarantee that any `p` erasures decode
/// ([`ErasureCode::tolerated_erasures`] is `p`).
///
/// # Example
///
/// ```
/// use rshare_erasure::{ErasureCode, ReedSolomon};
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// let mut shards: Vec<Vec<u8>> = vec![
///     b"abcd".to_vec(), b"efgh".to_vec(), b"ijkl".to_vec(), b"mnop".to_vec(),
///     vec![0; 4], vec![0; 4],
/// ];
/// rs.encode(&mut shards).unwrap();
///
/// // Lose any two shards…
/// let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
/// damaged[1] = None;
/// damaged[4] = None;
/// rs.reconstruct(&mut damaged).unwrap();
/// assert_eq!(damaged[1].as_deref(), Some(b"efgh".as_slice()));
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon(MatrixCode);

impl ReedSolomon {
    /// Creates a code with `data` data shards and `parity` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if either count is zero
    /// or `data + parity > 256` (GF(256) runs out of evaluation points).
    pub fn new(data: usize, parity: usize) -> Result<Self, ErasureError> {
        if data == 0 || parity == 0 {
            return Err(ErasureError::InvalidParameters {
                reason: "data and parity shard counts must be positive",
            });
        }
        if data + parity > 256 {
            return Err(ErasureError::InvalidParameters {
                reason: "GF(256) supports at most 256 total shards",
            });
        }
        let vandermonde = Matrix::vandermonde(data + parity, data);
        let top = vandermonde.select_rows(&(0..data).collect::<Vec<_>>());
        let inv = top.inverted().expect("top Vandermonde block is invertible");
        MatrixCode::new(vandermonde.mul(&inv), data, parity).map(Self)
    }

    /// The `(d + p) × d` systematic generator matrix.
    #[must_use]
    pub fn generator(&self) -> &Matrix {
        self.0.generator()
    }
}

impl ErasureCode for ReedSolomon {
    fn data_shards(&self) -> usize {
        self.0.data_shards()
    }

    fn parity_shards(&self) -> usize {
        self.0.parity_shards()
    }

    fn encode_parity(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ErasureError> {
        self.0.encode_parity(data, parity)
    }

    fn decode(
        &self,
        shards: &[Option<&[u8]>],
        lost: &mut [(usize, &mut [u8])],
    ) -> Result<(), ErasureError> {
        self.0.decode(shards, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_shards(d: usize, p: usize, len: usize) -> Vec<Vec<u8>> {
        let mut shards: Vec<Vec<u8>> = (0..d)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 131 + j * 17 + 5) % 256) as u8)
                    .collect()
            })
            .collect();
        shards.extend(std::iter::repeat_with(|| vec![0u8; len]).take(p));
        shards
    }

    fn roundtrip(d: usize, p: usize, len: usize, lose: &[usize]) {
        let rs = ReedSolomon::new(d, p).unwrap();
        let mut shards = sample_shards(d, p, len);
        rs.encode(&mut shards).unwrap();
        let original = shards.clone();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for &i in lose {
            damaged[i] = None;
        }
        rs.reconstruct(&mut damaged).unwrap();
        for (i, (got, want)) in damaged.iter().zip(&original).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "shard {i} (d={d} p={p})");
        }
    }

    #[test]
    fn systematic_encoding_keeps_data() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let mut shards = sample_shards(3, 2, 16);
        let data_before: Vec<Vec<u8>> = shards[..3].to_vec();
        rs.encode(&mut shards).unwrap();
        assert_eq!(&shards[..3], data_before.as_slice());
    }

    #[test]
    fn all_single_and_double_erasures() {
        let (d, p) = (4, 2);
        for a in 0..d + p {
            roundtrip(d, p, 32, &[a]);
            for b in a + 1..d + p {
                roundtrip(d, p, 32, &[a, b]);
            }
        }
    }

    #[test]
    fn wide_code_max_erasures() {
        roundtrip(8, 4, 64, &[0, 3, 9, 11]);
        roundtrip(8, 4, 64, &[4, 5, 6, 7]);
        roundtrip(8, 4, 64, &[8, 9, 10, 11]);
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut shards = sample_shards(4, 2, 8);
        rs.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        damaged[0] = None;
        damaged[1] = None;
        damaged[2] = None;
        assert_eq!(
            rs.reconstruct(&mut damaged),
            Err(ErasureError::TooManyErasures {
                missing: 3,
                tolerated: 2
            })
        );
    }

    #[test]
    fn parameter_validation() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(2, 0).is_err());
        assert!(ReedSolomon::new(200, 100).is_err());
        assert!(ReedSolomon::new(255, 1).is_ok());
    }

    #[test]
    fn reconstruct_with_nothing_missing_is_noop() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut shards = sample_shards(2, 1, 8);
        rs.encode(&mut shards).unwrap();
        let mut opt: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        rs.reconstruct(&mut opt).unwrap();
        for (a, b) in opt.iter().zip(&shards) {
            assert_eq!(a.as_ref().unwrap(), b);
        }
    }
}
