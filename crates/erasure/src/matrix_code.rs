//! Generic systematic linear codes over GF(256), and Local Reconstruction
//! Codes built on them.
//!
//! [`MatrixCode`] turns *any* systematic generator matrix into an
//! [`ErasureCode`]: encoding multiplies the data by the parity rows, and
//! reconstruction inverts surviving parity rows restricted to the lost
//! data columns and composes every wanted shard's row, data or parity,
//! over the same survivors — so every erasure pattern that is
//! information-theoretically decodable under the chosen matrix is
//! decoded, not just the worst-case-guaranteed ones.
//!
//! The codes of this crate that are linear over GF(256) are all instances:
//!
//! * [`crate::ReedSolomon`] — the MDS Vandermonde construction, a thin
//!   wrapper that pins the guarantee of any `p` erasures;
//! * [`MatrixCode::xor_parity`] — single XOR parity (RAID-4/5), the
//!   generator `[I; 1…1]`; and
//! * [`MatrixCode::local_reconstruction`] — an LRC in the style of Azure /
//!   HDFS: the data is split into groups, each protected by a *local* XOR
//!   parity (single-shard repairs touch only the small group — cheap
//!   rebuild traffic), plus *global* Reed–Solomon parities for burst
//!   failures. LRCs matter here because rebuild traffic is exactly what
//!   the paper's adaptivity experiments measure on the placement side.

use crate::code::{check_count, check_decode, common_len, ErasureCode};
use crate::error::ErasureError;
use crate::gf256;
use crate::matrix::Matrix;

/// An erasure code defined by a systematic generator matrix.
///
/// The generator has `total` rows and `data` columns; the top `data × data`
/// block must be the identity (systematic layout: shard `i < data` is data
/// shard `i`).
///
/// # Example
///
/// ```
/// use rshare_erasure::{ErasureCode, MatrixCode};
///
/// // An LRC with 2 groups of 2 data shards, 1 global parity: 4+2+1 shards.
/// let lrc = MatrixCode::local_reconstruction(2, 2, 1).unwrap();
/// assert_eq!(lrc.total_shards(), 7);
/// let mut shards: Vec<Vec<u8>> = (0..7).map(|i| vec![i as u8; 8]).collect();
/// lrc.encode(&mut shards).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCode {
    generator: Matrix,
    data: usize,
    guaranteed: usize,
    /// Shard groups for fast local repair, each a group's data shards and
    /// its XOR parity: every shard of a group is the XOR of the others.
    local_groups: Vec<Vec<usize>>,
}

impl MatrixCode {
    /// Builds a code from a systematic generator matrix.
    ///
    /// `guaranteed` is the number of erasures the caller guarantees to be
    /// always decodable (reported via
    /// [`ErasureCode::tolerated_erasures`]); patterns beyond it are still
    /// *attempted* and succeed whenever the surviving rows span the data.
    ///
    /// # Errors
    ///
    /// [`ErasureError::InvalidParameters`] if the matrix is not systematic
    /// or has no parity rows.
    pub fn new(generator: Matrix, data: usize, guaranteed: usize) -> Result<Self, ErasureError> {
        if data == 0 || generator.rows() <= data || generator.cols() != data {
            return Err(ErasureError::InvalidParameters {
                reason: "generator must be (data + parity) x data with parity > 0",
            });
        }
        for i in 0..data {
            for j in 0..data {
                let want = u8::from(i == j);
                if generator[(i, j)] != want {
                    return Err(ErasureError::InvalidParameters {
                        reason: "generator top block must be the identity (systematic)",
                    });
                }
            }
        }
        Ok(Self {
            generator,
            data,
            guaranteed,
            local_groups: Vec::new(),
        })
    }

    /// Single XOR parity over `data` data shards (RAID-4/5): the generator
    /// `[I; 1…1]`, whose one parity row is also a local group, so a single
    /// loss is the XOR of the survivors. Tolerates one erasure.
    ///
    /// # Errors
    ///
    /// [`ErasureError::InvalidParameters`] if `data == 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use rshare_erasure::{ErasureCode, MatrixCode};
    ///
    /// let code = MatrixCode::xor_parity(3).unwrap();
    /// let mut shards = vec![vec![1u8, 2], vec![3, 4], vec![5, 6], vec![0, 0]];
    /// code.encode(&mut shards).unwrap();
    /// assert_eq!(shards[3], vec![1 ^ 3 ^ 5, 2 ^ 4 ^ 6]);
    /// ```
    pub fn xor_parity(data: usize) -> Result<Self, ErasureError> {
        if data == 0 {
            return Err(ErasureError::InvalidParameters {
                reason: "need at least one data shard",
            });
        }
        let mut generator = Matrix::zero(data + 1, data);
        for j in 0..data {
            generator[(j, j)] = 1;
            generator[(data, j)] = 1;
        }
        let mut code = Self::new(generator, data, 1)?;
        code.local_groups = vec![(0..=data).collect()];
        Ok(code)
    }

    /// A Local Reconstruction Code: `groups` groups of `group_size` data
    /// shards, one XOR local parity per group, and `global_parity`
    /// Reed–Solomon-style global parities.
    ///
    /// Shard layout: `groups·group_size` data shards (group-major), then
    /// the `groups` local parities, then the global parities. Guaranteed
    /// tolerance is `global_parity + 1`; many larger patterns also decode
    /// (any pattern leaving a full-rank row set).
    ///
    /// # Errors
    ///
    /// [`ErasureError::InvalidParameters`] for zero dimensions or more
    /// than 256 total shards.
    pub fn local_reconstruction(
        groups: usize,
        group_size: usize,
        global_parity: usize,
    ) -> Result<Self, ErasureError> {
        if groups == 0 || group_size == 0 || global_parity == 0 {
            return Err(ErasureError::InvalidParameters {
                reason: "LRC needs positive groups, group size and global parity",
            });
        }
        let data = groups * group_size;
        let total = data + groups + global_parity;
        if total > 256 {
            return Err(ErasureError::InvalidParameters {
                reason: "GF(256) supports at most 256 total shards",
            });
        }
        let mut generator = Matrix::zero(total, data);
        for i in 0..data {
            generator[(i, i)] = 1;
        }
        // Local XOR parities.
        let mut local_groups = Vec::with_capacity(groups);
        for g in 0..groups {
            let row = data + g;
            let members: Vec<usize> = (g * group_size..(g + 1) * group_size).collect();
            for &m in &members {
                generator[(row, m)] = 1;
            }
            local_groups.push(members.into_iter().chain([row]).collect());
        }
        // Global parities: rows of a Vandermonde matrix evaluated at
        // points disjoint from the data indices' implicit 0..data range,
        // keeping the combined matrix generically full-rank.
        for p in 0..global_parity {
            let row = data + groups + p;
            let x = (data + 1 + p) as u8;
            for j in 0..data {
                generator[(row, j)] = gf256::pow(x, j as u32);
            }
        }
        let mut code = Self::new(generator, data, global_parity + 1)?;
        code.local_groups = local_groups;
        Ok(code)
    }

    /// The generator matrix (for inspection and tests).
    #[must_use]
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// The decode rows of the shards `targets`, given the missing data
    /// shards `lost`: returns the `d` sources (`lost.len()` surviving
    /// parity shards, then the present data shards) and one coefficient
    /// row per target over them. Only the parity rows restricted to the
    /// `lost` columns are inverted: the first `lost.len()` survivors when
    /// they invert (always, for an MDS code), else a greedy full-rank
    /// pick. `None` when the survivors do not span the data.
    fn decoder(
        &self,
        shards: &[Option<&[u8]>],
        lost: &[usize],
        targets: &[usize],
    ) -> Option<(Vec<usize>, Matrix)> {
        if lost.is_empty() {
            // Every data shard is known: the generator's rows are the map.
            let rows = self.generator.select_rows(targets);
            return Some(((0..self.data).collect(), rows));
        }
        let m = lost.len();
        let parity: Vec<usize> = (self.data..shards.len())
            .filter(|&i| shards[i].is_some())
            .collect();
        let restrict = |rows: &[usize]| {
            let mut sub = Matrix::zero(rows.len(), m);
            for (a, &r) in rows.iter().enumerate() {
                for (b, &t) in lost.iter().enumerate() {
                    sub[(a, b)] = self.generator[(r, t)];
                }
            }
            sub
        };
        let mut sources = Vec::with_capacity(self.data);
        let first = parity.get(..m)?;
        let inv = match restrict(first).inverted() {
            Some(inv) => {
                sources.extend_from_slice(first);
                inv
            }
            None => {
                let picked = select_independent_rows(&restrict(&parity), m)?;
                sources.extend(picked.iter().map(|&a| parity[a]));
                restrict(&sources)
                    .inverted()
                    .expect("picked rows are independent")
            }
        };
        sources.extend((0..self.data).filter(|&j| shards[j].is_some()));
        // target = Σ_j G[target][j] · data_j, with each lost data shard
        // lost_u = Σ_a inv[u][a] · (parity_a ⊕ Σ_j G[parity_a][j] · data_j)
        // over the present data shards j. With w = G[target]|lost · inv,
        // parity source a weighs w[a] and present data shard j weighs
        // G[target][j] ⊕ Σ_a w[a] · G[parity_a][j]. A lost data target's
        // w is its own row of `inv`.
        let mut rows = Matrix::zero(targets.len(), sources.len());
        for (o, &t) in targets.iter().enumerate() {
            for a in 0..m {
                rows[(o, a)] = (0..m).fold(0, |acc, u| {
                    acc ^ gf256::mul(self.generator[(t, lost[u])], inv[(u, a)])
                });
            }
            for (s, &j) in sources.iter().enumerate().skip(m) {
                let c = (0..m).fold(self.generator[(t, j)], |acc, a| {
                    acc ^ gf256::mul(rows[(o, a)], self.generator[(sources[a], j)])
                });
                rows[(o, s)] = c;
            }
        }
        Some((sources, rows))
    }
}

impl ErasureCode for MatrixCode {
    fn data_shards(&self) -> usize {
        self.data
    }

    fn parity_shards(&self) -> usize {
        self.generator.rows() - self.data
    }

    fn tolerated_erasures(&self) -> usize {
        self.guaranteed
    }

    fn encode_parity(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ErasureError> {
        check_count(data.len(), self.data)?;
        check_count(parity.len(), self.parity_shards())?;
        let len = common_len(data.iter().map(|d| d.len()), 1)?;
        for out in parity.iter_mut() {
            out.resize(len, 0);
        }
        let rows = &self.generator.as_slice()[self.data * self.data..];
        gf256::mul_rows(parity, data, rows);
        Ok(())
    }

    /// Decodes every decodable pattern: unlike the fixed-budget codes,
    /// patterns larger than the guaranteed tolerance are attempted and
    /// succeed whenever the surviving generator rows have full rank.
    ///
    /// Each wanted shard is written straight into its buffer: one missing
    /// alone from a local group as the XOR of the group's others, and
    /// every other wanted shard, data or parity, from `d` survivors in
    /// one [`gf256::mul_rows`] call, with coefficients from `decoder`.
    fn decode(
        &self,
        shards: &[Option<&[u8]>],
        lost: &mut [(usize, &mut [u8])],
    ) -> Result<(), ErasureError> {
        let (_, missing) = check_decode(shards, lost, self.total_shards(), 1, self.guaranteed)?;
        let mut known = shards.to_vec();
        let (mut targets, mut outs) = (Vec::new(), Vec::new());
        for (t, out) in lost.iter_mut() {
            let alone = |g: &&Vec<usize>| {
                g.contains(t) && g.iter().all(|&i| i == *t || shards[i].is_some())
            };
            if let Some(group) = self.local_groups.iter().find(alone) {
                out.fill(0);
                for &i in group.iter().filter(|&i| i != t) {
                    gf256::xor_acc(out, shards[i].expect("present"));
                }
                known[*t] = Some(out);
            } else {
                targets.push(*t);
                outs.push(&mut **out);
            }
        }
        if targets.is_empty() {
            return Ok(());
        }
        let unknown: Vec<usize> = (0..self.data).filter(|&j| known[j].is_none()).collect();
        let Some((sources, rows)) = self.decoder(&known, &unknown, &targets) else {
            let tolerated = self.guaranteed;
            return Err(ErasureError::TooManyErasures { missing, tolerated });
        };
        let sources: Vec<&[u8]> = sources.iter().map(|&i| known[i].expect("source")).collect();
        gf256::mul_rows(&mut outs, &sources, rows.as_slice());
        Ok(())
    }
}

/// Greedily selects `need` rows of `matrix`, in order, that are linearly
/// independent; `None` if its rows do not span `need` dimensions.
fn select_independent_rows(matrix: &Matrix, need: usize) -> Option<Vec<usize>> {
    let mut basis: Vec<Vec<u8>> = Vec::with_capacity(need);
    let mut pivots: Vec<usize> = Vec::with_capacity(need);
    let mut chosen = Vec::with_capacity(need);
    for cand in 0..matrix.rows() {
        if chosen.len() == need {
            break;
        }
        let mut row = matrix.row(cand).to_vec();
        // Reduce against the current basis.
        for (b, &p) in basis.iter().zip(&pivots) {
            if row[p] != 0 {
                let factor = gf256::div(row[p], b[p]);
                for (r, &bb) in row.iter_mut().zip(b) {
                    *r ^= gf256::mul(factor, bb);
                }
            }
        }
        if let Some(p) = row.iter().position(|&x| x != 0) {
            basis.push(row);
            pivots.push(p);
            chosen.push(cand);
        }
    }
    (chosen.len() == need).then_some(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(code: &dyn ErasureCode, len: usize) -> Vec<Vec<u8>> {
        let mut shards: Vec<Vec<u8>> = (0..code.data_shards())
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 89 + j * 13 + 1) % 256) as u8)
                    .collect()
            })
            .collect();
        shards.extend(std::iter::repeat_with(|| vec![0u8; len]).take(code.parity_shards()));
        shards
    }

    fn roundtrip(code: &dyn ErasureCode, len: usize, lose: &[usize]) -> Result<(), ErasureError> {
        let mut shards = sample(code, len);
        code.encode(&mut shards).unwrap();
        let original = shards.clone();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for &i in lose {
            damaged[i] = None;
        }
        code.reconstruct(&mut damaged)?;
        for (i, (got, want)) in damaged.iter().zip(&original).enumerate() {
            assert_eq!(got.as_ref().unwrap(), want, "shard {i} lose={lose:?}");
        }
        Ok(())
    }

    #[test]
    fn xor_parity_roundtrip_any_single_loss() {
        let code = MatrixCode::xor_parity(4).unwrap();
        for lost in 0..5 {
            roundtrip(&code, 16, &[lost]).unwrap();
        }
    }

    #[test]
    fn xor_parity_double_loss_rejected() {
        let code = MatrixCode::xor_parity(2).unwrap();
        let mut damaged = vec![None, Some(vec![1u8]), None];
        assert_eq!(
            code.reconstruct(&mut damaged),
            Err(ErasureError::TooManyErasures {
                missing: 2,
                tolerated: 1
            })
        );
    }

    #[test]
    fn xor_parity_geometry() {
        let code = MatrixCode::xor_parity(5).unwrap();
        assert_eq!(code.data_shards(), 5);
        assert_eq!(code.parity_shards(), 1);
        assert_eq!(code.total_shards(), 6);
        assert_eq!(code.tolerated_erasures(), 1);
        assert!(code.generator().row(5).iter().all(|&c| c == 1));
        assert!(MatrixCode::xor_parity(0).is_err());
    }

    #[test]
    fn lrc_geometry() {
        let lrc = MatrixCode::local_reconstruction(2, 3, 2).unwrap();
        assert_eq!(lrc.data_shards(), 6);
        assert_eq!(lrc.parity_shards(), 4); // 2 local + 2 global
        assert_eq!(lrc.total_shards(), 10);
        assert_eq!(lrc.tolerated_erasures(), 3); // global + 1
    }

    #[test]
    fn lrc_local_repair_uses_xor() {
        // A single data loss repairs from the group's XOR parity.
        let lrc = MatrixCode::local_reconstruction(2, 3, 2).unwrap();
        let mut shards = sample(&lrc, 16);
        lrc.encode(&mut shards).unwrap();
        // Verify the local parity really is the group XOR.
        let mut xor = vec![0u8; 16];
        for s in &shards[0..3] {
            for (x, b) in xor.iter_mut().zip(s) {
                *x ^= b;
            }
        }
        assert_eq!(shards[6], xor, "local parity of group 0");
        roundtrip(&lrc, 16, &[1]).unwrap();
        roundtrip(&lrc, 16, &[6]).unwrap(); // the local parity itself
    }

    #[test]
    fn lrc_guaranteed_patterns_all_decode() {
        // Every pattern of size <= global + 1 = 3 must decode.
        let lrc = MatrixCode::local_reconstruction(2, 2, 2).unwrap();
        let total = lrc.total_shards();
        let mut checked = 0u32;
        for a in 0..total {
            for b in a + 1..total {
                for c in b + 1..total {
                    roundtrip(&lrc, 8, &[a, b, c])
                        .unwrap_or_else(|e| panic!("pattern [{a},{b},{c}] failed: {e}"));
                    checked += 1;
                }
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn lrc_decodes_many_beyond_guarantee() {
        // 4 erasures exceed the guarantee (3) but most patterns still
        // decode; one per group plus both globals always does.
        let lrc = MatrixCode::local_reconstruction(2, 2, 2).unwrap();
        roundtrip(&lrc, 8, &[0, 2, 6, 7]).unwrap();
        // Whereas an entire group plus its parity plus a global is rank
        // deficient beyond help when too much is gone:
        let result = roundtrip(&lrc, 8, &[0, 1, 4, 6, 7]);
        assert!(matches!(result, Err(ErasureError::TooManyErasures { .. })));
    }

    #[test]
    fn parameter_validation() {
        assert!(MatrixCode::local_reconstruction(0, 3, 1).is_err());
        assert!(MatrixCode::local_reconstruction(2, 0, 1).is_err());
        assert!(MatrixCode::local_reconstruction(2, 2, 0).is_err());
        assert!(MatrixCode::local_reconstruction(100, 2, 100).is_err());
        // Non-systematic generator rejected.
        let bad = Matrix::vandermonde(4, 2);
        assert!(MatrixCode::new(bad, 2, 1).is_err());
    }
}
