//! The common interface of erasure codes.

use crate::error::ErasureError;

/// An erasure code over byte shards.
///
/// A codeword consists of [`ErasureCode::data_shards`] data shards followed
/// by [`ErasureCode::parity_shards`] parity shards, all of equal length.
/// The shard at index `i` is "sub-block `i`" of a redundancy group — the
/// paper's Redundant Share strategies identify the i-th copy of a block
/// precisely so that such position-dependent sub-blocks can be mapped onto
/// storage devices.
///
/// Codes are `Send + Sync`: they are immutable codecs, and the storage
/// layer shares them across threads.
pub trait ErasureCode: Send + Sync {
    /// Number of data shards `d`.
    fn data_shards(&self) -> usize;

    /// Number of parity shards `p`.
    fn parity_shards(&self) -> usize;

    /// Total shards `d + p`.
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }

    /// Maximum number of simultaneously missing shards the code can always
    /// recover from.
    fn tolerated_erasures(&self) -> usize {
        self.parity_shards()
    }

    /// Required divisor of the shard length in bytes (1 unless the code
    /// works on sub-shard symbols, like EVENODD's `p - 1` rows).
    fn shard_multiple(&self) -> usize {
        1
    }

    /// Computes the parity shards from the data shards: checks the
    /// codeword's shape, then runs [`ErasureCode::encode_parity`] on the
    /// borrowed data shards into the parity shards.
    ///
    /// `shards` must hold [`ErasureCode::total_shards`] equally sized
    /// vectors; the first `d` are read, the last `p` are overwritten.
    ///
    /// # Errors
    ///
    /// [`ErasureError::WrongShardCount`], [`ErasureError::ShardLengthMismatch`]
    /// or [`ErasureError::BadShardLength`] on malformed input.
    fn encode(&self, shards: &mut [Vec<u8>]) -> Result<(), ErasureError> {
        check_shards(shards, self.total_shards(), self.shard_multiple())?;
        let (data, parity) = shards.split_at_mut(self.data_shards());
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        self.encode_parity(&data, parity)
    }

    /// Computes the parity shards from *borrowed* data shards into
    /// caller-provided parity buffers (cleared and resized in place, so a
    /// batch encoder reuses their allocations). This is each code's one
    /// encoder: [`ErasureCode::encode`] derives from it, and the data
    /// shards never have to be materialized as owned vectors — the
    /// zero-copy half of the fused stripe write pipeline.
    ///
    /// # Errors
    ///
    /// [`ErasureError::WrongShardCount`] if `data` or `parity` has the
    /// wrong arity, plus the shard-shape errors of
    /// [`ErasureCode::encode`].
    fn encode_parity(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ErasureError>;

    /// Recomputes every missing (`None`) shard in place.
    ///
    /// # Errors
    ///
    /// The validation errors of [`ErasureCode::encode`], plus
    /// [`ErasureError::TooManyErasures`] when the surviving shards do not
    /// determine the missing ones: always beyond a fixed budget
    /// ([`ErasureCode::tolerated_erasures`]); a [`crate::MatrixCode`] also
    /// decodes patterns beyond its guarantee whenever its surviving rows
    /// span the data.
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ErasureError>;
}

/// Validates the borrowed data shards and parity buffer count for
/// [`ErasureCode::encode_parity`], returning the shard length. Parity
/// buffer *lengths* are not checked: `encode_parity` resizes them.
pub(crate) fn check_parity_inputs(
    data: &[&[u8]],
    parity_count: usize,
    expected_data: usize,
    expected_parity: usize,
    multiple: usize,
) -> Result<usize, ErasureError> {
    if data.len() != expected_data {
        return Err(ErasureError::WrongShardCount {
            expected: expected_data,
            got: data.len(),
        });
    }
    if parity_count != expected_parity {
        return Err(ErasureError::WrongShardCount {
            expected: expected_parity,
            got: parity_count,
        });
    }
    let len = data.first().map_or(0, |d| d.len());
    if data.iter().any(|s| s.len() != len) {
        return Err(ErasureError::ShardLengthMismatch);
    }
    if len == 0 || !len.is_multiple_of(multiple) {
        return Err(ErasureError::BadShardLength {
            multiple_of: multiple,
        });
    }
    Ok(len)
}

/// Validates shard counts and equal lengths, returning the shard length.
pub(crate) fn check_shards(
    shards: &[Vec<u8>],
    expected: usize,
    multiple: usize,
) -> Result<usize, ErasureError> {
    if shards.len() != expected {
        return Err(ErasureError::WrongShardCount {
            expected,
            got: shards.len(),
        });
    }
    let len = shards[0].len();
    if shards.iter().any(|s| s.len() != len) {
        return Err(ErasureError::ShardLengthMismatch);
    }
    if len == 0 || !len.is_multiple_of(multiple) {
        return Err(ErasureError::BadShardLength {
            multiple_of: multiple,
        });
    }
    Ok(len)
}

/// Validates optional shards: their count, and equal, positive lengths
/// (a multiple of `multiple`) of the present ones. Returns `(shard_len,
/// missing_indices)`. A codeword with no present shard is
/// [`ErasureError::TooManyErasures`] against `tolerated`; otherwise the
/// erasure budget is the caller's to check, since a matrix code decodes
/// every pattern its surviving rows span.
pub(crate) fn check_optional_shards(
    shards: &[Option<Vec<u8>>],
    expected: usize,
    multiple: usize,
    tolerated: usize,
) -> Result<(usize, Vec<usize>), ErasureError> {
    if shards.len() != expected {
        return Err(ErasureError::WrongShardCount {
            expected,
            got: shards.len(),
        });
    }
    let missing: Vec<usize> = shards
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.is_none().then_some(i))
        .collect();
    let mut present = shards.iter().flatten().map(Vec::len);
    let len = present.next().ok_or(ErasureError::TooManyErasures {
        missing: missing.len(),
        tolerated,
    })?;
    if present.any(|l| l != len) {
        return Err(ErasureError::ShardLengthMismatch);
    }
    if len == 0 || !len.is_multiple_of(multiple) {
        return Err(ErasureError::BadShardLength {
            multiple_of: multiple,
        });
    }
    Ok((len, missing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayCode, MatrixCode, ReedSolomon};

    #[test]
    fn shard_validation() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let mut wrong_count = vec![vec![0u8; 4]; 2];
        assert!(matches!(
            rs.encode(&mut wrong_count),
            Err(ErasureError::WrongShardCount {
                expected: 3,
                got: 2
            })
        ));
        let mut uneven = vec![vec![0u8; 4], vec![0u8; 5], vec![0u8; 4]];
        assert_eq!(
            rs.encode(&mut uneven),
            Err(ErasureError::ShardLengthMismatch)
        );
        // Zero-length shards are rejected by `reconstruct` as by `encode`,
        // with and without a missing shard, by every code.
        let codes: Vec<Box<dyn ErasureCode>> = vec![
            Box::new(rs),
            Box::new(MatrixCode::local_reconstruction(1, 2, 1).unwrap()),
            Box::new(MatrixCode::xor_parity(2).unwrap()),
            Box::new(ArrayCode::evenodd(3).unwrap()),
            Box::new(ArrayCode::rdp(3).unwrap()),
        ];
        for code in codes {
            let bad = Err(ErasureError::BadShardLength {
                multiple_of: code.shard_multiple(),
            });
            let mut empty = vec![Vec::new(); code.total_shards()];
            assert_eq!(code.encode(&mut empty), bad);
            let mut empty: Vec<Option<Vec<u8>>> = vec![Some(Vec::new()); code.total_shards()];
            assert_eq!(code.reconstruct(&mut empty), bad);
            empty[0] = None;
            assert_eq!(code.reconstruct(&mut empty), bad);
        }
    }
}
