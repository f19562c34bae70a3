//! The EVENODD code (Blaum, Brady, Bruck, Menon 1995).
//!
//! EVENODD tolerates two erasures using XOR arithmetic only: for a prime
//! `p` it arranges `p` data columns of `p − 1` symbol rows each (with an
//! imaginary all-zero row `p − 1`), plus a *row parity* column and a
//! *diagonal parity* column. The diagonal parities carry a shared adjuster
//! `S` — the XOR of the "missing" diagonal — which makes the code MDS. It
//! is reference `[1]` in the paper's list of redundancy schemes supported
//! by Redundant Share, and a scheme where the identity of each sub-block
//! matters: every column has a distinct role.
//!
//! Shards are columns; a shard of `L` bytes is treated as `p − 1` symbols
//! of `L / (p − 1)` bytes.

use crate::code::{check_optional_shards, check_parity_inputs, ErasureCode};
use crate::error::ErasureError;

/// Returns `true` if `n` is prime (trial division; parameters are tiny).
pub(crate) fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

use crate::gf256::xor_acc as xor_into;

/// The EVENODD double-erasure code with prime parameter `p`:
/// `p` data shards, 2 parity shards.
///
/// # Example
///
/// ```
/// use rshare_erasure::{ErasureCode, EvenOdd};
///
/// let code = EvenOdd::new(5).unwrap(); // 5 data + 2 parity shards
/// assert_eq!(code.total_shards(), 7);
/// // Shards must be a multiple of p - 1 = 4 bytes long.
/// let mut shards: Vec<Vec<u8>> = (0..7).map(|i| vec![i as u8; 4]).collect();
/// code.encode(&mut shards).unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvenOdd {
    p: usize,
}

impl EvenOdd {
    /// Creates an EVENODD code for an odd prime `p ≥ 3` (so `p` data
    /// shards).
    ///
    /// `p = 2` is rejected: the adjuster-recovery identity
    /// `S = ⊕ rowparity ⊕ ⊕ diagparity` needs `p − 1` to be even.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `p` is not an odd
    /// prime.
    pub fn new(p: usize) -> Result<Self, ErasureError> {
        if p < 3 || !is_prime(p) {
            return Err(ErasureError::InvalidParameters {
                reason: "EVENODD requires an odd prime number of data shards",
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

    /// Byte range of symbol `row` inside a shard with symbol size `sz`.
    fn sym(row: usize, sz: usize) -> std::ops::Range<usize> {
        row * sz..(row + 1) * sz
    }

    /// XOR of the data cells on diagonal `d` (cells `(⟨d−j⟩_p, j)`), over
    /// the columns in `cols`, skipping the imaginary row `p − 1`.
    fn diag_xor(
        &self,
        shards: &[&[u8]],
        cols: impl Iterator<Item = usize>,
        d: usize,
        sz: usize,
        out: &mut [u8],
    ) {
        let p = self.p;
        for j in cols {
            let row = (d + p - j) % p;
            if row == p - 1 {
                continue;
            }
            xor_into(out, &shards[j][Self::sym(row, sz)]);
        }
    }
}

impl ErasureCode for EvenOdd {
    fn data_shards(&self) -> usize {
        self.p
    }

    fn parity_shards(&self) -> usize {
        2
    }

    fn shard_multiple(&self) -> usize {
        self.rows()
    }

    fn encode_parity(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ErasureError> {
        let p = self.p;
        let len = check_parity_inputs(data, parity.len(), p, 2, self.rows())?;
        let sz = len / self.rows();
        for out in parity.iter_mut() {
            out.clear();
            out.resize(len, 0);
        }
        let (rowpar, diagpar) = parity.split_at_mut(1);
        // Row parity.
        for col in data {
            xor_into(&mut rowpar[0], col);
        }
        // Adjuster S = XOR of the diagonal through the imaginary row
        // (diagonal p - 1).
        let mut s = vec![0u8; sz];
        self.diag_xor(data, 0..p, p - 1, sz, &mut s);
        // Diagonal parity: cell d = S ⊕ (XOR of diagonal d).
        for d in 0..p - 1 {
            let cell = &mut diagpar[0][Self::sym(d, sz)];
            cell.copy_from_slice(&s);
            self.diag_xor(data, 0..p, d, sz, cell);
        }
        Ok(())
    }

    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), ErasureError> {
        let p = self.p;
        let (len, missing) = check_optional_shards(shards, p + 2, self.rows(), 2)?;
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
        let missing_data: Vec<usize> = missing.iter().copied().filter(|&i| i < p).collect();
        let row_parity_alive = shards[p].is_some();
        match (missing_data.as_slice(), row_parity_alive) {
            // Only parity columns are missing: recompute from full data.
            ([], _) => {}
            // One data column missing, row parity alive: rebuild by rows.
            ([r], true) => {
                let r = *r;
                let mut col = shards[p].clone().expect("row parity alive");
                for (j, shard) in shards.iter().take(p).enumerate() {
                    if j == r {
                        continue;
                    }
                    xor_into(&mut col, shard.as_ref().expect("present data"));
                }
                shards[r] = Some(col);
            }
            // One data column + the row parity missing: decode via the
            // diagonal parities after recovering S.
            ([r], false) => {
                let r = *r;
                let refs: Vec<&[u8]> = (0..p + 2)
                    .map(|i| shards[i].as_deref().unwrap_or(&[]))
                    .collect();
                let diagpar = shards[p + 1].as_ref().expect("diag parity alive").clone();
                // Recover S from the diagonal whose column-r cell lies on
                // the imaginary row: d* = ⟨r − 1⟩_p.
                let d_star = (r + p - 1) % p;
                let mut s = vec![0u8; sz];
                if d_star == p - 1 {
                    // r = 0: S is the missing diagonal itself, whose
                    // column-0 cell is imaginary.
                    self.diag_xor(&refs, (0..p).filter(|&j| j != r), p - 1, sz, &mut s);
                } else {
                    s.copy_from_slice(&diagpar[Self::sym(d_star, sz)]);
                    self.diag_xor(&refs, (0..p).filter(|&j| j != r), d_star, sz, &mut s);
                }
                // Each remaining diagonal yields one cell of column r.
                let mut col = vec![0u8; len];
                for d in (0..p).filter(|&d| d != d_star) {
                    let row = (d + p - r) % p;
                    debug_assert_ne!(row, p - 1);
                    let mut cell = s.clone();
                    if d < p - 1 {
                        xor_into(&mut cell, &diagpar[Self::sym(d, sz)]);
                    }
                    // diag_d = S ⊕ parity cell (or S itself for d = p-1);
                    // subtract the known cells.
                    self.diag_xor(&refs, (0..p).filter(|&j| j != r), d, sz, &mut cell);
                    col[Self::sym(row, sz)].copy_from_slice(&cell);
                }
                shards[r] = Some(col);
            }
            // Two data columns missing (both parities alive by budget).
            ([r, s_col], _) => {
                let (r, s_col) = (*r, *s_col);
                let rowpar = shards[p].as_ref().expect("row parity alive").clone();
                let diagpar = shards[p + 1].as_ref().expect("diag parity alive").clone();
                // S = XOR of all row-parity symbols ⊕ all diagonal-parity
                // symbols.
                let mut s = vec![0u8; sz];
                for i in 0..p - 1 {
                    xor_into(&mut s, &rowpar[Self::sym(i, sz)]);
                    xor_into(&mut s, &diagpar[Self::sym(i, sz)]);
                }
                let refs: Vec<&[u8]> = (0..p + 2)
                    .map(|i| shards[i].as_deref().unwrap_or(&[]))
                    .collect();
                // Row syndromes S0(i) = X_r(i) ⊕ X_s(i).
                let mut s0 = vec![0u8; len];
                s0.copy_from_slice(&rowpar);
                for j in (0..p).filter(|&j| j != r && j != s_col) {
                    xor_into(&mut s0, refs[j]);
                }
                // Diagonal syndromes S1(d) = X_r(⟨d−r⟩) ⊕ X_s(⟨d−s⟩).
                let mut s1 = vec![vec![0u8; sz]; p];
                for (d, syn) in s1.iter_mut().enumerate() {
                    syn.copy_from_slice(&s);
                    if d < p - 1 {
                        xor_into(syn, &diagpar[Self::sym(d, sz)]);
                    }
                    self.diag_xor(&refs, (0..p).filter(|&j| j != r && j != s_col), d, sz, syn);
                }
                // Zig-zag chain starting from the imaginary row of column s.
                let mut col_r = vec![0u8; len];
                let mut col_s = vec![0u8; len];
                let mut i = p - 1; // imaginary row: X_s(p-1) = 0
                for _ in 0..p - 1 {
                    let d = (i + s_col) % p;
                    let i2 = (d + p - r) % p;
                    debug_assert_ne!(i2, p - 1);
                    // X_r(i2) = S1(d) ⊕ X_s(i).
                    let mut cell = s1[d].clone();
                    if i != p - 1 {
                        xor_into(&mut cell, &col_s[Self::sym(i, sz)]);
                    }
                    col_r[Self::sym(i2, sz)].copy_from_slice(&cell);
                    // X_s(i2) = S0(i2) ⊕ X_r(i2).
                    let mut cell_s = s0[Self::sym(i2, sz)].to_vec();
                    xor_into(&mut cell_s, &col_r[Self::sym(i2, sz)]);
                    col_s[Self::sym(i2, sz)].copy_from_slice(&cell_s);
                    i = i2;
                }
                shards[r] = Some(col_r);
                shards[s_col] = Some(col_s);
            }
            _ => unreachable!("erasure budget is 2"),
        }
        // All data is present now; recompute any missing parity.
        if shards[p].is_none() || shards[p + 1].is_none() {
            let mut parity = vec![Vec::new(), Vec::new()];
            let data: Vec<&[u8]> = shards[..p]
                .iter()
                .map(|s| s.as_deref().expect("data complete"))
                .collect();
            self.encode_parity(&data, &mut parity)?;
            for (shard, computed) in shards[p..].iter_mut().zip(parity) {
                shard.get_or_insert(computed);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p: usize, sz: usize) -> Vec<Vec<u8>> {
        let rows = p - 1;
        let mut shards: Vec<Vec<u8>> = (0..p)
            .map(|c| {
                (0..rows * sz)
                    .map(|b| ((c * 251 + b * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect();
        shards.push(vec![0; rows * sz]);
        shards.push(vec![0; rows * sz]);
        shards
    }

    fn roundtrip(p: usize, sz: usize, lose: &[usize]) {
        let code = EvenOdd::new(p).unwrap();
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
        let total = 7;
        for a in 0..total {
            roundtrip(5, 4, &[a]);
            for b in a + 1..total {
                roundtrip(5, 4, &[a, b]);
            }
        }
    }

    #[test]
    fn all_double_erasures_p3_and_p7() {
        for p in [3usize, 7] {
            let total = p + 2;
            for a in 0..total {
                for b in a + 1..total {
                    roundtrip(p, 3, &[a, b]);
                }
            }
        }
    }

    #[test]
    fn large_symbols_p11() {
        roundtrip(11, 64, &[2, 9]);
        roundtrip(11, 64, &[0, 12]);
    }

    #[test]
    fn rejects_non_odd_prime() {
        assert!(EvenOdd::new(4).is_err());
        assert!(EvenOdd::new(2).is_err(), "p = 2 is degenerate");
        assert!(EvenOdd::new(1).is_err());
        assert!(EvenOdd::new(0).is_err());
        assert!(EvenOdd::new(13).is_ok());
    }

    #[test]
    fn rejects_bad_shard_length() {
        let code = EvenOdd::new(5).unwrap();
        // 6 is not a multiple of p - 1 = 4.
        let mut shards: Vec<Vec<u8>> = (0..7).map(|_| vec![0u8; 6]).collect();
        assert_eq!(
            code.encode(&mut shards),
            Err(ErasureError::BadShardLength { multiple_of: 4 })
        );
    }

    #[test]
    fn triple_erasure_rejected() {
        let code = EvenOdd::new(3).unwrap();
        let mut shards = sample(3, 2);
        code.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        damaged[0] = None;
        damaged[1] = None;
        damaged[2] = None;
        assert!(matches!(
            code.reconstruct(&mut damaged),
            Err(ErasureError::TooManyErasures {
                missing: 3,
                tolerated: 2
            })
        ));
    }

    #[test]
    fn primality_helper() {
        let primes: Vec<usize> = (0..30).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }
}
