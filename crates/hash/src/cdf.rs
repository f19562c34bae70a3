//! Inverse-CDF tables for migration-stable weighted sampling.
//!
//! A Walker/Vose alias table answers a weighted draw in O(1), but its
//! column/alias layout is discontinuous in the weights: a
//! tiny perturbation can reshuffle which hash values land on which
//! outcome, so two tables over *almost* the same distribution disagree on
//! a large fraction of keys. That is fatal for placement adaptivity,
//! where the whole point is that a small capacity change should remap a
//! small fraction of balls.
//!
//! An inverse-CDF table draws by binary-searching the cumulative weight
//! sums with a single uniform derived from the hash. The draw is monotone
//! in the cumulative distribution, so for a fixed key the outcome changes
//! only when its uniform falls inside a *shifted boundary region*: across
//! all keys, the disagreement fraction between two tables equals the
//! total-variation distance between their distributions — the provable
//! minimum any coupling can achieve. Sampling costs O(log n) instead of
//! O(1); for placement transitions over at most a few hundred bins that
//! is a handful of well-predicted probes.

use crate::mix::unit_f64;

/// Error returned when a sampling table cannot be built from the given
/// weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AliasError {
    /// The weight slice was empty.
    Empty,
    /// A weight was negative, NaN or infinite.
    InvalidWeight {
        /// Index of the offending weight.
        index: usize,
    },
    /// All weights were zero.
    ZeroTotal,
}

impl std::fmt::Display for AliasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Empty => write!(f, "cannot build a sampling table over zero outcomes"),
            Self::InvalidWeight { index } => {
                write!(f, "weight at index {index} is negative or non-finite")
            }
            Self::ZeroTotal => write!(f, "all weights are zero"),
        }
    }
}

impl std::error::Error for AliasError {}

/// An immutable inverse-CDF sampler over `n` outcomes with fixed weights.
///
/// Construction is `O(n)`; sampling is `O(log n)`. Two tables over nearby
/// distributions agree on all but a total-variation-sized fraction of
/// keys, which makes this the right structure when sampled assignments
/// must stay stable under weight perturbation.
///
/// # Example
///
/// ```
/// use rshare_hash::{stable_hash2, CdfTable};
///
/// let table = CdfTable::new(&[3.0, 1.0]).unwrap();
/// let n = 40_000u64;
/// let hits = (0..n)
///     .filter(|&i| table.sample_hash(stable_hash2(i, 7)) == 0)
///     .count();
/// let share = hits as f64 / n as f64;
/// assert!((share - 0.75).abs() < 0.02, "share = {share}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CdfTable {
    /// `cdf[i]` is the sum of weights `0..=i`; `cdf[n - 1]` is the total.
    cdf: Vec<f64>,
    /// Guide table (Devroye's table method): `guide[b]` is the first
    /// outcome whose cumulative weight exceeds `b · total / guide.len()`,
    /// so a draw starts its scan at the right bucket and finishes in O(1)
    /// expected steps. Purely an accelerator — the sampled function is
    /// identical to the plain binary search.
    guide: Vec<u32>,
}

impl CdfTable {
    /// Builds an inverse-CDF table from non-negative weights.
    ///
    /// # Errors
    ///
    /// Returns [`AliasError`] if `weights` is empty, contains a negative or non-finite value, or
    /// sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, AliasError> {
        if weights.is_empty() {
            return Err(AliasError::Empty);
        }
        if let Some(index) = weights.iter().position(|w| !w.is_finite() || *w < 0.0) {
            return Err(AliasError::InvalidWeight { index });
        }
        let mut cdf = Vec::with_capacity(weights.len());
        let mut sum = 0.0;
        for &w in weights {
            sum += w;
            cdf.push(sum);
        }
        if sum <= 0.0 {
            return Err(AliasError::ZeroTotal);
        }
        let buckets = weights.len();
        let mut guide = Vec::with_capacity(buckets);
        let mut j = 0u32;
        for b in 0..buckets {
            let threshold = b as f64 * sum / buckets as f64;
            while cdf[j as usize] <= threshold {
                j += 1;
            }
            guide.push(j);
        }
        Ok(Self { cdf, guide })
    }

    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` if the table has no outcomes (never constructible; kept for
    /// API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Approximate heap memory of the table in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.cdf.len() * std::mem::size_of::<f64>() + self.guide.len() * std::mem::size_of::<u32>()
    }

    /// Samples an outcome from a uniform value in `[0, 1)`.
    ///
    /// Returns the first outcome whose cumulative weight exceeds
    /// `u · total`, so a zero-weight outcome is never selected.
    #[inline]
    #[must_use]
    pub fn sample(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u));
        let n = self.cdf.len();
        let target = u * self.cdf[n - 1];
        let bucket = ((u * self.guide.len() as f64) as usize).min(self.guide.len() - 1);
        let mut idx = self.guide[bucket] as usize;
        while idx < n - 1 && self.cdf[idx] <= target {
            idx += 1;
        }
        idx
    }

    /// Samples an outcome from a single 64-bit hash value.
    ///
    /// The caller supplies a well-mixed value (e.g. from
    /// [`crate::stable_hash3`]); the same hash always draws the same
    /// outcome, and nearby tables draw the same outcome for all but a
    /// total-variation-sized fraction of hashes.
    #[inline]
    #[must_use]
    pub fn sample_hash(&self, hash: u64) -> usize {
        self.sample(unit_f64(hash))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::stable_hash2;

    fn empirical(weights: &[f64], samples: u64) -> Vec<f64> {
        let t = CdfTable::new(weights).unwrap();
        let mut counts = vec![0u64; weights.len()];
        for i in 0..samples {
            counts[t.sample_hash(stable_hash2(i, 0x1234))] += 1;
        }
        counts.iter().map(|&c| c as f64 / samples as f64).collect()
    }

    #[test]
    fn matches_weights_uniform() {
        let shares = empirical(&[1.0, 1.0, 1.0, 1.0], 80_000);
        for s in shares {
            assert!((s - 0.25).abs() < 0.01, "{s}");
        }
    }

    #[test]
    fn matches_weights_skewed() {
        let shares = empirical(&[8.0, 4.0, 2.0, 1.0, 1.0], 160_000);
        let expect = [0.5, 0.25, 0.125, 0.0625, 0.0625];
        for (s, e) in shares.iter().zip(expect) {
            assert!((s - e).abs() < 0.01, "share {s} vs expected {e}");
        }
    }

    #[test]
    fn single_outcome() {
        let t = CdfTable::new(&[5.0]).unwrap();
        for i in 0..100u64 {
            assert_eq!(t.sample_hash(stable_hash2(i, 3)), 0);
        }
    }

    #[test]
    fn zero_weight_outcome_unreachable() {
        let t = CdfTable::new(&[1.0, 0.0, 1.0]).unwrap();
        for i in 0..20_000u64 {
            assert_ne!(t.sample_hash(stable_hash2(i, 7)), 1);
        }
    }

    #[test]
    fn errors() {
        assert_eq!(CdfTable::new(&[]), Err(AliasError::Empty));
        assert_eq!(
            CdfTable::new(&[1.0, -1.0]),
            Err(AliasError::InvalidWeight { index: 1 })
        );
        assert_eq!(
            CdfTable::new(&[1.0, f64::NAN]),
            Err(AliasError::InvalidWeight { index: 1 })
        );
        assert_eq!(CdfTable::new(&[0.0, 0.0]), Err(AliasError::ZeroTotal));
        assert!(AliasError::Empty.to_string().contains("zero outcomes"));
        assert!(AliasError::ZeroTotal.to_string().contains("zero"));
        assert!(AliasError::InvalidWeight { index: 3 }
            .to_string()
            .contains('3'));
    }

    /// The property alias tables lack: perturbing one weight remaps only
    /// a distribution-distance-sized fraction of keys.
    #[test]
    fn stable_under_weight_perturbation() {
        let old = CdfTable::new(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]).unwrap();
        let new = CdfTable::new(&[10.0, 9.0, 8.5, 7.0, 6.0, 5.0, 4.0, 3.0]).unwrap();
        let samples = 100_000u64;
        let moved = (0..samples)
            .filter(|&i| {
                let h = stable_hash2(i, 42);
                old.sample_hash(h) != new.sample_hash(h)
            })
            .count();
        // Total-variation distance between the two distributions is ~1.6%;
        // leave headroom for sampling noise but stay far below the ~50%+
        // an alias-table rebuild scrambles.
        let frac = moved as f64 / samples as f64;
        assert!(frac < 0.04, "remapped fraction {frac}");
    }

    /// Inserting an outcome mid-list remaps roughly its fair share of
    /// keys, not the whole tail of the list.
    #[test]
    fn stable_under_outcome_insertion() {
        let old = CdfTable::new(&[10.0, 8.0, 6.0, 4.0, 2.0]).unwrap();
        let new = CdfTable::new(&[10.0, 8.0, 7.0, 6.0, 4.0, 2.0]).unwrap();
        let samples = 100_000u64;
        let mut to_new = 0u64;
        let mut shuffled = 0u64;
        for i in 0..samples {
            let h = stable_hash2(i, 99);
            let a = old.sample_hash(h);
            let b = new.sample_hash(h);
            // Outcomes at or after the insertion point shift by one index.
            let a_shifted = if a >= 2 { a + 1 } else { a };
            if b == 2 {
                to_new += 1;
            } else if b != a_shifted {
                shuffled += 1;
            }
        }
        let to_new = to_new as f64 / samples as f64;
        let shuffled = shuffled as f64 / samples as f64;
        // The new outcome drains exactly its fair share (7/37 ≈ 18.9%)…
        assert!((to_new - 7.0 / 37.0).abs() < 0.01, "inflow {to_new}");
        // …and renormalisation shuffles only a boundary-shift-sized
        // fraction between survivors, keeping the total remap within 2×
        // the fair minimum (an alias-table rebuild scrambles ~everything).
        assert!(shuffled < 0.15, "collateral shuffle {shuffled}");
        assert!(
            to_new + shuffled < 2.0 * (7.0 / 37.0),
            "total remap {} above 2x the fair share",
            to_new + shuffled
        );
    }
}
