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
        check_count(shards.len(), self.total_shards())?;
        common_len(shards.iter().map(Vec::len), self.shard_multiple())?;
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

    /// Writes every byte of each wanted missing shard into a buffer the
    /// caller provides, from *borrowed* survivors (device slots, or a read
    /// buffer's segments): each code's one decoder, which
    /// [`ErasureCode::reconstruct`] derives from. `shards` holds every
    /// position, `None` where missing; each `(i, buf)` of `lost` asks for
    /// missing shard `i` in `buf`. A missing shard not asked for is
    /// decoded into the code's own scratch only if a wanted one is solved
    /// with it or from it.
    ///
    /// # Errors
    ///
    /// The shape errors of [`ErasureCode::encode`] (a `lost` buffer of the
    /// wrong length is a length mismatch); [`ErasureError::NotMissing`]
    /// if `lost` names a present shard, or one out of range or twice; and
    /// [`ErasureError::TooManyErasures`] when the survivors do not
    /// determine the missing shards: always beyond a fixed budget
    /// ([`ErasureCode::tolerated_erasures`]); a [`crate::MatrixCode`] also
    /// decodes patterns beyond its guarantee whenever its surviving rows
    /// span the data. After an error the buffers hold unspecified bytes.
    fn decode(
        &self,
        shards: &[Option<&[u8]>],
        lost: &mut [(usize, &mut [u8])],
    ) -> Result<(), ErasureError>;

    /// Recomputes every missing (`None`) shard in place, through
    /// [`ErasureCode::decode`] into fresh vectors.
    ///
    /// # Errors
    ///
    /// The errors of [`ErasureCode::decode`], leaving `shards` untouched.
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ErasureError> {
        let len = shards.iter().flatten().next().map_or(0, Vec::len);
        let mut decoded: Vec<(usize, Vec<u8>)> = (0..shards.len())
            .filter(|&i| shards[i].is_none())
            .map(|i| (i, vec![0u8; len]))
            .collect();
        let present: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
        let mut lost: Vec<(usize, &mut [u8])> = decoded
            .iter_mut()
            .map(|(i, s)| (*i, s.as_mut_slice()))
            .collect();
        self.decode(&present, &mut lost)?;
        for (i, shard) in decoded {
            shards[i] = Some(shard);
        }
        Ok(())
    }
}

/// `WrongShardCount` unless `got == expected`.
pub(crate) fn check_count(got: usize, expected: usize) -> Result<(), ErasureError> {
    (got == expected)
        .then_some(())
        .ok_or(ErasureError::WrongShardCount { expected, got })
}

/// The one length of shards of lengths `lens`, which must be equal,
/// positive and a multiple of `multiple`.
pub(crate) fn common_len(
    mut lens: impl Iterator<Item = usize>,
    multiple: usize,
) -> Result<usize, ErasureError> {
    let len = lens.next().unwrap_or(0);
    if lens.any(|l| l != len) {
        return Err(ErasureError::ShardLengthMismatch);
    }
    if len == 0 || !len.is_multiple_of(multiple) {
        return Err(ErasureError::BadShardLength {
            multiple_of: multiple,
        });
    }
    Ok(len)
}

/// Validates the input of [`ErasureCode::decode`]: the shard count, the
/// present shards' [`common_len`], and one buffer of that length per
/// wanted shard, each wanted shard missing and named once. Returns
/// `(shard_len, missing_count)`. A codeword with no present shard is
/// [`ErasureError::TooManyErasures`] against `tolerated`; otherwise the
/// erasure budget is the caller's to check, since a matrix code decodes
/// every pattern its surviving rows span.
pub(crate) fn check_decode(
    shards: &[Option<&[u8]>],
    lost: &[(usize, &mut [u8])],
    expected: usize,
    multiple: usize,
    tolerated: usize,
) -> Result<(usize, usize), ErasureError> {
    check_count(shards.len(), expected)?;
    let missing = shards.iter().filter(|s| s.is_none()).count();
    if missing == shards.len() {
        return Err(ErasureError::TooManyErasures { missing, tolerated });
    }
    let len = common_len(shards.iter().flatten().map(|s| s.len()), multiple)?;
    for (n, (i, buf)) in lost.iter().enumerate() {
        if shards.get(*i) != Some(&None) || lost[..n].iter().any(|(j, _)| j == i) {
            return Err(ErasureError::NotMissing { index: *i });
        }
        if buf.len() != len {
            return Err(ErasureError::ShardLengthMismatch);
        }
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
