//! Row-Diagonal Parity (Corbett et al., FAST 2004).
//!
//! RDP tolerates double erasures with XOR arithmetic and, unlike EVENODD,
//! without a shared adjuster: for a prime `p` it stores `p − 1` data
//! columns, one row-parity column and one diagonal-parity column, each of
//! `p − 1` symbol rows. The diagonal parity is computed over the data *and*
//! the row parity, and one diagonal (index `p − 1`) is deliberately left
//! unprotected — the "missing diagonal" that seeds the recovery chain. It
//! is reference `[3]` in the paper.
//!
//! Shards are columns; a shard of `L` bytes is treated as `p − 1` symbols
//! of `L / (p − 1)` bytes.

use crate::code::{check_optional_shards, check_parity_inputs, ErasureCode};
use crate::error::ErasureError;
use crate::evenodd::is_prime;
use crate::gf256::xor_acc as xor_into;

/// The RDP double-erasure code with prime parameter `p`:
/// `p − 1` data shards, 2 parity shards.
///
/// # Example
///
/// ```
/// use rshare_erasure::{ErasureCode, Rdp};
///
/// let code = Rdp::new(5).unwrap(); // 4 data + 2 parity shards
/// assert_eq!(code.data_shards(), 4);
/// assert_eq!(code.total_shards(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rdp {
    p: usize,
}

impl Rdp {
    /// Creates an RDP code for prime `p ≥ 3` (so `p − 1 ≥ 2` data shards).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `p` is not a prime
    /// of at least 3.
    pub fn new(p: usize) -> Result<Self, ErasureError> {
        if p < 3 || !is_prime(p) {
            return Err(ErasureError::InvalidParameters {
                reason: "RDP requires a prime parameter p >= 3",
            });
        }
        Ok(Self { p })
    }

    /// The prime parameter `p`.
    #[must_use]
    pub fn prime(&self) -> usize {
        self.p
    }

    fn rows(&self) -> usize {
        self.p - 1
    }

    fn sym(row: usize, sz: usize) -> std::ops::Range<usize> {
        row * sz..(row + 1) * sz
    }
}

impl ErasureCode for Rdp {
    fn data_shards(&self) -> usize {
        self.p - 1
    }

    fn parity_shards(&self) -> usize {
        2
    }

    fn shard_multiple(&self) -> usize {
        self.rows()
    }

    #[allow(clippy::needless_range_loop)] // column index feeds the diagonal arithmetic
    fn encode_parity(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ErasureError> {
        let p = self.p;
        let len = check_parity_inputs(data, parity.len(), p - 1, 2, self.rows())?;
        let sz = len / self.rows();
        for out in parity.iter_mut() {
            out.clear();
            out.resize(len, 0);
        }
        let (rowpar, diagpar) = parity.split_at_mut(1);
        let (rowpar, diagpar) = (&mut rowpar[0], &mut diagpar[0]);
        // Row parity over the data columns.
        for col in data {
            xor_into(rowpar, col);
        }
        // Diagonal parity over data + row parity (column index p - 1).
        for c in 0..p {
            let col: &[u8] = if c < p - 1 { data[c] } else { rowpar };
            for i in 0..p - 1 {
                let d = (i + c) % p;
                if d == p - 1 {
                    continue;
                }
                xor_into(&mut diagpar[Self::sym(d, sz)], &col[Self::sym(i, sz)]);
            }
        }
        Ok(())
    }

    #[allow(clippy::needless_range_loop)] // column index feeds the diagonal arithmetic
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ErasureError> {
        let p = self.p;
        let (len, missing) = check_optional_shards(shards, p + 1, self.rows(), 2)?;
        if missing.len() > 2 {
            return Err(ErasureError::TooManyErasures {
                missing: missing.len(),
                tolerated: 2,
            });
        }
        if missing.is_empty() {
            return Ok(());
        }
        let sz = len / self.rows();
        // Columns 0..p participate in uniform row equations
        // (XOR over all of them is zero); column p is the diagonal parity.
        let row_covered: Vec<usize> = missing.iter().copied().filter(|&i| i < p).collect();
        match row_covered.as_slice() {
            // Only the diagonal parity is missing.
            [] => {}
            // One row-covered column missing: rebuild it by row equations.
            [x] => {
                let x = *x;
                let mut col = vec![0u8; len];
                for (j, shard) in shards.iter().take(p).enumerate() {
                    if j == x {
                        continue;
                    }
                    xor_into(&mut col, shard.as_ref().expect("present"));
                }
                shards[x] = Some(col);
            }
            // Two row-covered columns missing: syndrome peeling. The two
            // recovery chains of the RDP paper (one seeded from each
            // diagonal that misses one of the failed columns) are realised
            // uniformly: keep per-row and per-diagonal syndromes equal to
            // the XOR of the still-unknown cells they cover, and repeatedly
            // resolve any equation with exactly one unknown.
            [r, s] => {
                let (r, s) = (*r, *s);
                let diagpar = shards[p].as_ref().expect("diag parity alive").clone();
                // Row syndromes: XOR over all known columns (row equations
                // sum to zero over columns 0..p-1).
                let mut row_syn = vec![0u8; len];
                let mut row_unknown = vec![2u8; p - 1];
                for c in (0..p).filter(|&c| c != r && c != s) {
                    xor_into(&mut row_syn, shards[c].as_ref().expect("present"));
                }
                // Diagonal syndromes over diagonals 0..p-2.
                let mut diag_syn = vec![vec![0u8; sz]; p - 1];
                let mut diag_unknown = vec![0u8; p - 1];
                for (d, syn) in diag_syn.iter_mut().enumerate() {
                    syn.copy_from_slice(&diagpar[Self::sym(d, sz)]);
                    for c in 0..p {
                        let i = (d + p - c) % p;
                        if i == p - 1 {
                            continue;
                        }
                        if c == r || c == s {
                            diag_unknown[d] += 1;
                        } else {
                            let col = shards[c].as_ref().expect("present");
                            xor_into(syn, &col[Self::sym(i, sz)]);
                        }
                    }
                }
                let mut col_r = vec![0u8; len];
                let mut col_s = vec![0u8; len];
                let mut known = vec![[false; 2]; p - 1]; // per row: [r, s]
                let mut remaining = 2 * (p - 1);
                // Resolve a cell: update syndromes and counters.
                let resolve = |col_is_s: bool,
                               row: usize,
                               value: &[u8],
                               col_r: &mut Vec<u8>,
                               col_s: &mut Vec<u8>,
                               row_syn: &mut Vec<u8>,
                               diag_syn: &mut Vec<Vec<u8>>,
                               row_unknown: &mut Vec<u8>,
                               diag_unknown: &mut Vec<u8>,
                               known: &mut Vec<[bool; 2]>| {
                    let c = if col_is_s { s } else { r };
                    let target = if col_is_s { col_s } else { col_r };
                    target[Self::sym(row, sz)].copy_from_slice(value);
                    known[row][usize::from(col_is_s)] = true;
                    xor_into(&mut row_syn[Self::sym(row, sz)], value);
                    row_unknown[row] -= 1;
                    let d = (row + c) % p;
                    if d != p - 1 {
                        xor_into(&mut diag_syn[d], value);
                        diag_unknown[d] -= 1;
                    }
                };
                while remaining > 0 {
                    let mut progress = false;
                    // Diagonals with exactly one unknown cell.
                    for d in 0..p - 1 {
                        if diag_unknown[d] != 1 {
                            continue;
                        }
                        // Which failed column still has an unknown cell on d?
                        for (c, is_s) in [(r, false), (s, true)] {
                            let i = (d + p - c) % p;
                            if i == p - 1 || known[i][usize::from(is_s)] {
                                continue;
                            }
                            let value = diag_syn[d].clone();
                            resolve(
                                is_s,
                                i,
                                &value,
                                &mut col_r,
                                &mut col_s,
                                &mut row_syn,
                                &mut diag_syn,
                                &mut row_unknown,
                                &mut diag_unknown,
                                &mut known,
                            );
                            remaining -= 1;
                            progress = true;
                            break;
                        }
                    }
                    // Rows with exactly one unknown cell.
                    for i in 0..p - 1 {
                        if row_unknown[i] != 1 {
                            continue;
                        }
                        let is_s = known[i][0];
                        let value = row_syn[Self::sym(i, sz)].to_vec();
                        resolve(
                            is_s,
                            i,
                            &value,
                            &mut col_r,
                            &mut col_s,
                            &mut row_syn,
                            &mut diag_syn,
                            &mut row_unknown,
                            &mut diag_unknown,
                            &mut known,
                        );
                        remaining -= 1;
                        progress = true;
                    }
                    assert!(progress, "RDP peeling stalled — parameter invariant broken");
                }
                shards[r] = Some(col_r);
                shards[s] = Some(col_s);
            }
            _ => unreachable!("erasure budget is 2"),
        }
        // Recompute the diagonal parity if it was lost.
        if shards[p].is_none() {
            let mut parity = vec![Vec::new(), Vec::new()];
            let data: Vec<&[u8]> = shards[..p - 1]
                .iter()
                .map(|s| s.as_deref().expect("complete"))
                .collect();
            self.encode_parity(&data, &mut parity)?;
            shards[p] = parity.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: usize, sz: usize) -> Vec<Vec<u8>> {
        let rows = p - 1;
        let mut shards: Vec<Vec<u8>> = (0..p - 1)
            .map(|c| {
                (0..rows * sz)
                    .map(|b| ((c * 101 + b * 31 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        shards.push(vec![0; rows * sz]); // row parity
        shards.push(vec![0; rows * sz]); // diagonal parity
        shards
    }

    fn roundtrip(p: usize, sz: usize, lose: &[usize]) {
        let code = Rdp::new(p).unwrap();
        let mut shards = sample(p, sz);
        code.encode(&mut shards).unwrap();
        let original = shards.clone();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for &i in lose {
            damaged[i] = None;
        }
        code.reconstruct(&mut damaged).unwrap();
        for (i, (got, want)) in damaged.iter().zip(&original).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "p={p} lose={lose:?} shard {i}");
        }
    }

    #[test]
    fn all_double_erasures_p5() {
        let total = 6;
        for a in 0..total {
            roundtrip(5, 4, &[a]);
            for b in a + 1..total {
                roundtrip(5, 4, &[a, b]);
            }
        }
    }

    #[test]
    fn all_double_erasures_p3_p7_p11() {
        for p in [3usize, 7, 11] {
            let total = p + 1;
            for a in 0..total {
                for b in a + 1..total {
                    roundtrip(p, 2, &[a, b]);
                }
            }
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Rdp::new(2).is_err());
        assert!(Rdp::new(4).is_err());
        assert!(Rdp::new(9).is_err());
        assert!(Rdp::new(5).is_ok());
    }

    #[test]
    fn rejects_bad_shard_length() {
        let code = Rdp::new(5).unwrap();
        let mut shards: Vec<Vec<u8>> = (0..6).map(|_| vec![0u8; 5]).collect();
        assert_eq!(
            code.encode(&mut shards),
            Err(ErasureError::BadShardLength { multiple_of: 4 })
        );
    }

    #[test]
    fn triple_erasure_rejected() {
        let code = Rdp::new(5).unwrap();
        let mut shards = sample(5, 2);
        code.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for i in [0, 2, 4] {
            damaged[i] = None;
        }
        assert!(matches!(
            code.reconstruct(&mut damaged),
            Err(ErasureError::TooManyErasures { .. })
        ));
    }
}
