//! EVENODD (Blaum, Brady, Bruck, Menon 1995) and Row-Diagonal Parity
//! (Corbett et al., FAST 2004) as one diagonal-parity array code.
//!
//! Both are references `[1]` and `[3]` in the paper's list of redundancy
//! schemes, and both tolerate any two erasures with XOR arithmetic only.
//! For a prime `p` each lays out a grid of `p` columns by `p − 1` symbol
//! rows, where cell `(i, c)` lies on diagonal `⟨i + c⟩_p`. A shard is a
//! column: a shard of `L` bytes holds `p − 1` symbols of `L / (p − 1)`
//! bytes. The two codes differ in two places only:
//!
//! | | EVENODD | RDP |
//! |---|---|---|
//! | data shards | `p`: the whole grid | `p − 1`: grid columns `0..p − 1` |
//! | row parity | shard `p`, outside the grid | grid column `p − 1` |
//! | diagonal parity cell `d < p − 1` (last shard) | `S ⊕` diagonal `d` | diagonal `d` |
//!
//! EVENODD's adjuster `S` is the XOR of diagonal `p − 1`, which neither
//! code stores. So in both codes every row of the shards before the
//! diagonal parity XORs to zero, and every diagonal XORs to its parity
//! cell: with `S` folded in for EVENODD, whose diagonal `p − 1` then
//! carries an equation too (its parity cell counts as zero).

use std::ops::Range;

use crate::code::{check_count, check_decode, common_len, ErasureCode};
use crate::error::ErasureError;
use crate::gf256::xor_acc as xor_into;

/// Returns `true` if `n` is prime (trial division; parameters are tiny).
fn is_prime(n: usize) -> bool {
    n >= 2
        && (2..)
            .take_while(|d| d * d <= n)
            .all(|d| !n.is_multiple_of(d))
}

/// Byte range of symbol `row` inside a shard with symbol size `sz`.
fn sym(row: usize, sz: usize) -> Range<usize> {
    row * sz..(row + 1) * sz
}

/// A double-erasure XOR array code with prime parameter `p`: EVENODD
/// (`p` data shards) or RDP (`p − 1` data shards), each with 2 parity
/// shards — the row parity, then the diagonal parity.
///
/// # Example
///
/// ```
/// use rshare_erasure::{ArrayCode, ErasureCode};
///
/// let evenodd = ArrayCode::evenodd(5).unwrap(); // 5 data + 2 parity shards
/// assert_eq!(evenodd.total_shards(), 7);
/// let rdp = ArrayCode::rdp(5).unwrap(); // 4 data + 2 parity shards
/// assert_eq!(rdp.total_shards(), 6);
/// // Shards must be a multiple of p - 1 = 4 bytes long.
/// let mut shards: Vec<Vec<u8>> = (0..7).map(|i| vec![i as u8; 4]).collect();
/// evenodd.encode(&mut shards).unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayCode {
    p: usize,
    /// EVENODD: the row parity sits outside the grid and every diagonal
    /// parity cell carries the adjuster `S`. RDP otherwise.
    evenodd: bool,
}

impl ArrayCode {
    /// The EVENODD code for an odd prime `p` (so `p` data shards).
    ///
    /// `p = 2` is rejected: recovering `S` from the syndromes needs an odd
    /// number of diagonals.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `p` is not an odd
    /// prime.
    pub fn evenodd(p: usize) -> Result<Self, ErasureError> {
        Self::new(p, true)
    }

    /// The RDP code for an odd prime `p` (so `p − 1 ≥ 2` data shards).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `p` is not an odd
    /// prime.
    pub fn rdp(p: usize) -> Result<Self, ErasureError> {
        Self::new(p, false)
    }

    fn new(p: usize, evenodd: bool) -> Result<Self, ErasureError> {
        if p < 3 || !is_prime(p) {
            return Err(ErasureError::InvalidParameters {
                reason: "EVENODD and RDP need an odd prime p",
            });
        }
        Ok(Self { p, evenodd })
    }

    /// The prime parameter `p`.
    #[must_use]
    pub fn prime(&self) -> usize {
        self.p
    }

    /// Diagonals that carry an equation: `0..p − 1`, plus EVENODD's
    /// diagonal `p − 1`.
    fn diagonals(&self) -> usize {
        self.p - 1 + usize::from(self.evenodd)
    }

    /// The diagonal equation through cell `(i, c)`, if it has one. The
    /// row-parity shard of EVENODD (`c = p`) lies on no diagonal.
    fn diagonal(&self, i: usize, c: usize) -> Option<usize> {
        let d = (i + c) % self.p;
        (c < self.p && d < self.diagonals()).then_some(d)
    }

    /// The row of column `c`'s cell on diagonal `d`, if the cell is real.
    fn cell_on(&self, c: usize, d: usize) -> Option<usize> {
        let i = (d + self.p - c) % self.p;
        (c < self.p && i < self.p - 1).then_some(i)
    }

    /// Recovers the `lost` shards (one or two, ascending, none of them the
    /// diagonal parity) into `out`, parallel to `lost`, by peeling: it
    /// builds row syndromes (the XOR of each row's surviving cells) and,
    /// for two losses, diagonal syndromes, so each syndrome is the XOR of
    /// its equation's lost cells. Then it solves any equation left with
    /// one lost cell, folds that cell into the other equation through it,
    /// and repeats.
    fn peel(&self, shards: &[Option<&[u8]>], lost: &[usize], out: &mut [&mut [u8]]) {
        let rows = self.p - 1;
        let len = out[0].len();
        let sz = len / rows;
        let q = shards.len() - 1;
        let mut alive = shards[..q].iter().flatten();
        let mut row_syn = alive.next().expect("a row survives two losses").to_vec();
        for shard in alive {
            xor_into(&mut row_syn, shard);
        }
        // One loss leaves one lost cell per row; two need the diagonals,
        // and then the diagonal parity survives.
        let mut diag_syn = Vec::new();
        if lost.len() == 2 {
            diag_syn = vec![0u8; self.diagonals() * sz];
            diag_syn[..len].copy_from_slice(shards[q].expect("within budget"));
            for (c, col) in shards[..self.p].iter().enumerate() {
                let Some(col) = col else { continue };
                for i in 0..rows {
                    if let Some(d) = self.diagonal(i, c) {
                        xor_into(&mut diag_syn[sym(d, sz)], &col[sym(i, sz)]);
                    }
                }
            }
            if self.evenodd {
                // Every diagonal syndrome still holds S. With the row parity
                // alive, each lost cell lies on one row and one diagonal, so
                // the XOR of all row and diagonal syndromes is S (p is odd).
                // Without it, the one lost grid column c has no cell on
                // diagonal ⟨c − 1⟩_p, whose syndrome is S alone.
                let mut s = vec![0u8; sz];
                if lost[1] == self.p {
                    let d = (lost[0] + self.p - 1) % self.p;
                    s.copy_from_slice(&diag_syn[sym(d, sz)]);
                } else {
                    for syn in row_syn.chunks_exact(sz).chain(diag_syn.chunks_exact(sz)) {
                        xor_into(&mut s, syn);
                    }
                }
                for syn in diag_syn.chunks_exact_mut(sz) {
                    xor_into(syn, &s);
                }
            }
        }
        let mut row_open = vec![lost.len(); rows];
        let mut diag_open = vec![0usize; diag_syn.len() / sz];
        for &c in lost {
            for i in 0..rows {
                if let Some(d) = self.diagonal(i, c).filter(|&d| d < diag_open.len()) {
                    diag_open[d] += 1;
                }
            }
        }
        let mut solved = vec![[false, lost.len() < 2]; rows];
        for _ in 0..lost.len() * rows {
            let (j, i, syn) = match row_open.iter().position(|&n| n == 1) {
                Some(i) => {
                    let j = solved[i].iter().position(|&k| !k).expect("one open cell");
                    (j, i, &row_syn[sym(i, sz)])
                }
                None => {
                    let d = diag_open
                        .iter()
                        .position(|&n| n == 1)
                        .expect("two erasures always peel");
                    let (j, i) = (0..lost.len())
                        .find_map(|j| {
                            let i = self.cell_on(lost[j], d).filter(|&i| !solved[i][j])?;
                            Some((j, i))
                        })
                        .expect("one open cell");
                    (j, i, &diag_syn[sym(d, sz)])
                }
            };
            let cell = &mut out[j][sym(i, sz)];
            cell.copy_from_slice(syn);
            xor_into(&mut row_syn[sym(i, sz)], cell);
            row_open[i] -= 1;
            if let Some(d) = self.diagonal(i, lost[j]).filter(|&d| d < diag_open.len()) {
                xor_into(&mut diag_syn[sym(d, sz)], cell);
                diag_open[d] -= 1;
            }
            solved[i][j] = true;
        }
    }
}

impl ErasureCode for ArrayCode {
    fn data_shards(&self) -> usize {
        self.p - 1 + usize::from(self.evenodd)
    }

    fn parity_shards(&self) -> usize {
        2
    }

    fn shard_multiple(&self) -> usize {
        self.p - 1
    }

    fn encode_parity(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ErasureError> {
        check_count(data.len(), self.data_shards())?;
        check_count(parity.len(), 2)?;
        let len = common_len(data.iter().map(|d| d.len()), self.p - 1)?;
        for out in parity.iter_mut() {
            out.clear();
            out.resize(len, 0);
        }
        let [rowpar, diagpar] = parity else {
            unreachable!("two parity shards")
        };
        for col in data {
            xor_into(rowpar, col);
        }
        let (p, rows, sz) = (self.p, self.p - 1, len / (self.p - 1));
        if self.evenodd {
            // S, the XOR of diagonal p − 1, seeds every diagonal parity cell.
            for (c, col) in data.iter().enumerate().skip(1) {
                xor_into(&mut diagpar[..sz], &col[sym(p - 1 - c, sz)]);
            }
            for d in 1..rows {
                diagpar.copy_within(..sz, d * sz);
            }
        }
        for c in 0..p {
            // RDP's grid column p − 1 is its row parity.
            let col: &[u8] = data.get(c).copied().unwrap_or(rowpar);
            for i in 0..rows {
                let d = (i + c) % p;
                if d < rows {
                    xor_into(&mut diagpar[sym(d, sz)], &col[sym(i, sz)]);
                }
            }
        }
        Ok(())
    }

    /// Peels every missing column before the diagonal parity, then
    /// re-encodes a wanted diagonal parity from the completed data: into
    /// the caller's buffers, and into scratch for a lost column it did not
    /// ask for (the lost columns are solved together, and the diagonal
    /// parity reads every column).
    fn decode(
        &self,
        shards: &[Option<&[u8]>],
        lost: &mut [(usize, &mut [u8])],
    ) -> Result<(), ErasureError> {
        let (len, missing) = check_decode(shards, lost, self.total_shards(), self.p - 1, 2)?;
        if missing > 2 {
            return Err(ErasureError::TooManyErasures {
                missing,
                tolerated: 2,
            });
        }
        let q = shards.len() - 1;
        let unasked: Vec<usize> = (0..q)
            .filter(|&c| shards[c].is_none() && lost.iter().all(|l| l.0 != c))
            .collect();
        let mut scratch: Vec<Vec<u8>> = unasked.iter().map(|_| vec![0u8; len]).collect();
        let spare = unasked
            .into_iter()
            .zip(scratch.iter_mut().map(Vec::as_mut_slice));
        let mut outs: Vec<_> = lost
            .iter_mut()
            .map(|(i, b)| (*i, &mut **b))
            .chain(spare)
            .collect();
        outs.sort_unstable_by_key(|&(i, _)| i);
        let diagonal = outs.pop_if(|&mut (i, _)| i == q);
        let (cols, mut bufs): (Vec<usize>, Vec<&mut [u8]>) = outs.into_iter().unzip();
        if !cols.is_empty() {
            self.peel(shards, &cols, &mut bufs);
        }
        if let Some((_, diagpar)) = diagonal {
            let mut grid = shards.to_vec();
            for (c, col) in cols.into_iter().zip(bufs) {
                grid[c] = Some(col);
            }
            let data: Vec<&[u8]> = grid[..q - 1].iter().map(|s| s.expect("complete")).collect();
            let mut parity = [Vec::new(), Vec::new()];
            self.encode_parity(&data, &mut parity)?;
            diagpar.copy_from_slice(&parity[1]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both layouts for prime `p`.
    fn both(p: usize) -> [ArrayCode; 2] {
        [ArrayCode::evenodd(p).unwrap(), ArrayCode::rdp(p).unwrap()]
    }

    /// Encodes deterministic data with symbols of `sz` bytes, drops the
    /// shards in `lose`, and checks that `reconstruct` restores them all.
    fn roundtrip(code: &ArrayCode, sz: usize, lose: &[usize]) {
        let len = (code.prime() - 1) * sz;
        let mut shards: Vec<Vec<u8>> = (0..code.total_shards())
            .map(|c| {
                (0..len)
                    .map(|b| ((c * 251 + b * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect();
        code.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        for &i in lose {
            damaged[i] = None;
        }
        code.reconstruct(&mut damaged).unwrap();
        for (i, (got, want)) in damaged.iter().zip(&shards).enumerate() {
            assert_eq!(got.as_ref(), Some(want), "{code:?} lose={lose:?} shard {i}");
        }
    }

    #[test]
    fn every_erasure_pattern_within_budget_decodes() {
        for p in [3usize, 5, 7, 11, 13] {
            for code in both(p) {
                let total = code.total_shards();
                for a in 0..total {
                    roundtrip(&code, 3, &[a]);
                    for b in a + 1..total {
                        roundtrip(&code, 3, &[a, b]);
                    }
                }
            }
        }
    }

    #[test]
    fn large_symbols_p11_and_p13() {
        for p in [11, 13] {
            for code in both(p) {
                let total = code.total_shards();
                roundtrip(&code, 64, &[2, 9]);
                roundtrip(&code, 64, &[0, total - 2]);
                roundtrip(&code, 64, &[total - 2, total - 1]);
            }
        }
    }

    #[test]
    fn rejects_non_odd_prime() {
        for p in [0, 1, 2, 4, 9] {
            assert!(ArrayCode::evenodd(p).is_err(), "EVENODD p = {p}");
            assert!(ArrayCode::rdp(p).is_err(), "RDP p = {p}");
        }
        assert_eq!(both(13).map(|c| c.prime()), [13, 13]);
    }

    #[test]
    fn rejects_bad_shard_length() {
        for code in both(5) {
            // 6 is not a multiple of p - 1 = 4.
            let mut shards = vec![vec![0u8; 6]; code.total_shards()];
            assert_eq!(
                code.encode(&mut shards),
                Err(ErasureError::BadShardLength { multiple_of: 4 })
            );
        }
    }

    #[test]
    fn triple_erasure_rejected_untouched() {
        for code in both(5) {
            let mut shards = vec![vec![7u8; 8]; code.total_shards()];
            code.encode(&mut shards).unwrap();
            let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            for i in [0, 2, 4] {
                damaged[i] = None;
            }
            let before = damaged.clone();
            assert_eq!(
                code.reconstruct(&mut damaged),
                Err(ErasureError::TooManyErasures {
                    missing: 3,
                    tolerated: 2
                })
            );
            assert_eq!(damaged, before);
        }
    }

    #[test]
    fn primality_helper() {
        let primes: Vec<usize> = (0..30).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
    }
}
