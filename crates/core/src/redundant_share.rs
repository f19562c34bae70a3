//! Redundant Share: k-fold replication in linear time (Algorithm 4).
//!
//! The strategy scans the bins in descending capacity order carrying the
//! number `r` of copies still to place. At bin `i` it places a copy with
//! probability `č_i = min(1, r · b'_i / B_i)` driven by a hash of
//! `(ball, bin name)`; the final copy is delegated to a fair single-copy
//! strategy over the remaining suffix, with the head weight replaced by the
//! calibrated `b̂` correction where necessary (see [`crate::analysis`]).
//!
//! Properties (Section 3 of the paper):
//!
//! * **Perfect fairness** in expectation over the adjusted capacities
//!   (Lemmas 3.1/3.4) — bin `i` receives an expected `k · b'_i / Σ b'_j`
//!   share of all copies.
//! * **Redundancy** — the `k` copies always land on pairwise distinct bins,
//!   structurally: the scan index only moves right.
//! * **Adaptivity** — the scan hash depends only on `(ball, bin name)`, so
//!   membership changes leave unrelated decisions untouched; insertion or
//!   removal of a bin is `k²`-competitive (Lemma 3.5), and measured factors
//!   are far lower (Figures 3 and 5).
//! * **Copy identity** — position `i` of the result is copy `i`.

use rshare_hash::{stable_hash3, Rendezvous, SingleCopySelector};

use crate::analysis::ScanModel;
use crate::bins::{BinId, BinSet};
use crate::capacity::optimal_weights;
use crate::error::PlacementError;
use crate::strategy::PlacementStrategy;

/// Domain separator for the primary-scan decisions.
const SCAN_DOMAIN: u64 = 0x5244_5348_4152_4531; // "RDSHARE1"

/// The Redundant Share placement strategy for arbitrary `k ≥ 1`.
///
/// Construction adjusts the raw capacities per Lemma 2.2 (so fairness
/// targets are meaningful even for infeasible capacity vectors), saturates
/// and calibrates the scan probabilities, and precomputes suffix sums. A
/// placement query runs in `O(n)` time and performs no allocation when
/// [`RedundantShare::place_into`] is used with a recycled vector.
///
/// # Example
///
/// ```
/// use rshare_core::{BinSet, PlacementStrategy, RedundantShare};
///
/// let bins = BinSet::from_capacities([500, 400, 300, 200, 100]).unwrap();
/// let strat = RedundantShare::new(&bins, 3).unwrap();
/// let copies = strat.place(0xfeed);
/// assert_eq!(copies.len(), 3);
/// // All copies on distinct bins:
/// let mut unique = copies.clone();
/// unique.sort();
/// unique.dedup();
/// assert_eq!(unique.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct RedundantShare<S = Rendezvous> {
    model: ScanModel,
    /// `θ(i, r)` as integer cuts on the scan hash, laid out like
    /// `model.theta`: bin `i` is taken at level `r` iff
    /// `hash >> 11 < cut`. `cut = ⌈θ · 2^53⌉` (or `u64::MAX` for θ ≥ 1),
    /// so the test is exactly `unit_f64(hash) < θ`: `unit_f64` is
    /// `(hash >> 11) · 2^-53` and `θ · 2^53` is exact in floating point.
    cuts: Vec<u64>,
    ids: Vec<BinId>,
    names: Vec<u64>,
    selector: S,
}

impl RedundantShare<Rendezvous> {
    /// Builds the strategy with the default (weighted rendezvous) selector
    /// for the last copy.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::ZeroReplication`] if `k == 0`.
    /// * [`PlacementError::TooFewBins`] if `k` exceeds the number of bins.
    pub fn new(bins: &BinSet, k: usize) -> Result<Self, PlacementError> {
        Self::with_selector(bins, k, Rendezvous::new())
    }
}

impl<S: SingleCopySelector> RedundantShare<S> {
    /// Builds the strategy with a custom `placeOneCopy` selector.
    ///
    /// Any fair single-copy strategy works (the paper names consistent
    /// hashing and Share); the overall fairness is exactly as good as the
    /// selector's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RedundantShare::new`].
    pub fn with_selector(bins: &BinSet, k: usize, selector: S) -> Result<Self, PlacementError> {
        if k == 0 {
            return Err(PlacementError::ZeroReplication);
        }
        if k > bins.len() {
            return Err(PlacementError::TooFewBins { k, n: bins.len() });
        }
        let capacities: Vec<u64> = bins.bins().iter().map(|b| b.capacity()).collect();
        let weights = optimal_weights(&capacities, k);
        let model = ScanModel::new(weights, k);
        let unit = (1u64 << 53) as f64;
        let cuts = model
            .theta
            .iter()
            .map(|&t| {
                if t >= 1.0 {
                    u64::MAX
                } else {
                    (t * unit).ceil() as u64
                }
            })
            .collect();
        let ids: Vec<BinId> = bins.bins().iter().map(|b| b.id()).collect();
        let names: Vec<u64> = ids.iter().map(|id| id.raw()).collect();
        Ok(Self {
            model,
            cuts,
            ids,
            names,
            selector,
        })
    }

    /// The adjusted (Lemma 2.2) capacities the strategy distributes over,
    /// in canonical order.
    #[must_use]
    pub fn adjusted_weights(&self) -> &[f64] {
        &self.model.weights
    }

    /// Largest deviation between any bin's expected share and its fair
    /// share that the calibration could not remove; zero (up to floating
    /// point noise) for capacity vectors adjusted per Lemma 2.2.
    #[must_use]
    pub fn calibration_residual(&self) -> f64 {
        self.model.max_residual
    }

    /// Approximate memory footprint of the placement state in bytes — the
    /// paper's *compactness* criterion. Grows as `O(k · n)`, independent of
    /// the number of stored balls.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let f = std::mem::size_of::<f64>();
        self.model.weights.len() * f
            + self.model.suffix.len() * f
            + self.model.theta.len() * f
            + self.cuts.len() * std::mem::size_of::<u64>()
            + self.model.sat_cut.len() * std::mem::size_of::<usize>()
            + self.model.head_boost.len() * f
            + self.ids.len() * std::mem::size_of::<BinId>()
            + self.names.len() * std::mem::size_of::<u64>()
            + self.selector.memory_bytes()
    }

    /// The exact expected number of copies of one ball each bin receives,
    /// computed analytically from the calibrated scan model (not sampled).
    ///
    /// Differs from [`PlacementStrategy::fair_shares`] by at most
    /// [`RedundantShare::calibration_residual`]; the unit tests of this
    /// crate pin the two together.
    #[must_use]
    pub fn expected_shares(&self) -> Vec<f64> {
        self.model.expected_shares()
    }

    /// The analytic distribution of copy index `t` over the bins:
    /// `P[copy t of a ball lands on bin i]`, aligned with
    /// [`PlacementStrategy::bin_ids`]. Rows sum to 1 and summing over all
    /// `t` recovers [`RedundantShare::expected_shares`].
    ///
    /// With erasure-coded redundancy groups, copy `t` *is* sub-block `t`
    /// (a data shard, a row parity, …), so this answers "which devices
    /// serve data shards and which serve parity" analytically.
    ///
    /// # Panics
    ///
    /// Panics if `t >= k`.
    #[must_use]
    pub fn copy_distribution(&self, t: usize) -> Vec<f64> {
        assert!(t < self.model.k, "copy index out of range");
        self.model.copy_distribution(t)
    }

    /// The calibrated head weight for the suffix starting at `s`
    /// (`b̂_s` in the paper). Exposed for cross-validation in tests.
    #[doc(hidden)]
    #[must_use]
    pub fn head_boost_for_test(&self, s: usize) -> f64 {
        self.model.head_boost[s]
    }

    /// The Algorithm 4 scan, emitting the indices into
    /// [`PlacementStrategy::bin_ids`] of the `k` chosen bins in copy order.
    ///
    /// The one scan behind the `Vec`-filling
    /// [`PlacementStrategy::place_into`] and the stack-array
    /// [`PlacementStrategy::place_into_inline`], which map each index to
    /// its id, so the three are bit-identical by construction. A caller
    /// keeping a table parallel to the bins (a storage layer's device
    /// handles, say) indexes it without an id lookup.
    pub fn place_indices(&self, ball: u64, mut emit: impl FnMut(usize)) {
        let k = self.model.k;
        if k == 1 {
            emit(self.place_last(ball, 0));
            return;
        }
        let mut i = 0usize;
        for r in (2..=k).rev() {
            // Every bin at or beyond the cutoff has effective θ ≥ 1 — the
            // maximal saturated suffix, which also covers the forced-take
            // state where only r bins remain — so the scan takes it
            // without hashing. Isolated saturated bins left of the cutoff
            // carry the cut `u64::MAX`, which every 53-bit hash prefix
            // passes.
            let end = self.model.saturation_cut(r).max(i);
            i += self.names[i..end]
                .iter()
                .zip(&self.cut_row(r)[i..end])
                .position(|(&name, &cut)| (stable_hash3(ball, name, SCAN_DOMAIN) >> 11) < cut)
                .unwrap_or(end - i);
            emit(i);
            i += 1;
        }
        emit(self.place_last(ball, i));
    }

    /// The contiguous integer cuts of scan level `r` (`2 ≤ r ≤ k`).
    #[inline]
    fn cut_row(&self, r: usize) -> &[u64] {
        let n = self.ids.len();
        &self.cuts[(r - 2) * n..(r - 1) * n]
    }

    /// Places the last copy over the suffix starting at `start`.
    fn place_last(&self, ball: u64, start: usize) -> usize {
        let boost = self.model.head_boost[start];
        if !boost.is_finite() {
            // The calibrated head weight diverged: the head takes the
            // entire call mass.
            return start;
        }
        let idx = self.selector.select_with_head(
            ball,
            &self.names[start..],
            &self.model.weights[start..],
            boost,
        );
        start + idx
    }
}

impl<S: SingleCopySelector> PlacementStrategy for RedundantShare<S> {
    fn replication(&self) -> usize {
        self.model.k
    }

    fn bin_ids(&self) -> &[BinId] {
        &self.ids
    }

    fn place_into(&self, ball: u64, out: &mut Vec<BinId>) {
        out.clear();
        self.place_indices(ball, |b| out.push(self.ids[b]));
    }

    fn place_into_inline(&self, ball: u64, out: &mut [BinId; crate::MAX_INLINE_K]) -> usize {
        let k = self.model.k;
        assert!(
            k <= crate::MAX_INLINE_K,
            "replication {k} exceeds inline capacity"
        );
        let mut n = 0usize;
        self.place_indices(ball, |b| {
            out[n] = self.ids[b];
            n += 1;
        });
        n
    }

    fn fair_shares(&self) -> Vec<f64> {
        let total = self.model.suffix[0];
        self.model
            .weights
            .iter()
            .map(|w| self.model.k as f64 * w / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bins(caps: &[u64]) -> BinSet {
        BinSet::from_capacities(caps.iter().copied()).unwrap()
    }

    use crate::test_util::empirical_shares;

    #[test]
    fn construction_errors() {
        let set = bins(&[10, 10]);
        assert!(matches!(
            RedundantShare::new(&set, 0),
            Err(PlacementError::ZeroReplication)
        ));
        assert!(matches!(
            RedundantShare::new(&set, 3),
            Err(PlacementError::TooFewBins { k: 3, n: 2 })
        ));
    }

    #[test]
    fn copies_are_distinct_and_ordered_by_capacity_rank() {
        let set = bins(&[500, 400, 300, 200, 100, 50]);
        for k in 1..=6 {
            let strat = RedundantShare::new(&set, k).unwrap();
            let mut out = Vec::new();
            for ball in 0..2_000u64 {
                strat.place_into(ball, &mut out);
                assert_eq!(out.len(), k);
                let mut uniq: Vec<_> = out.clone();
                uniq.sort();
                uniq.dedup();
                assert_eq!(uniq.len(), k, "duplicate bins for ball {ball} k={k}");
            }
        }
    }

    #[test]
    fn deterministic_placement() {
        let set = bins(&[9, 7, 5, 3]);
        let strat = RedundantShare::new(&set, 2).unwrap();
        for ball in 0..500u64 {
            assert_eq!(strat.place(ball), strat.place(ball));
        }
    }

    #[test]
    fn fairness_k2_heterogeneous() {
        let set = bins(&[500, 400, 300, 200, 100]);
        let strat = RedundantShare::new(&set, 2).unwrap();
        assert!(strat.calibration_residual() < 1e-9);
        let n = 200_000u64;
        let got = empirical_shares(&strat, n);
        for (i, (g, want)) in got.iter().zip(strat.fair_shares()).enumerate() {
            assert!(
                (g - want).abs() / want < 0.02,
                "bin {i}: got {g:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn fairness_k2_with_saturated_suffix() {
        // (4, 4, 4, 1) exercises the b̂ correction path.
        let set = bins(&[400, 400, 400, 100]);
        let strat = RedundantShare::new(&set, 2).unwrap();
        assert!(strat.calibration_residual() < 1e-9);
        let n = 300_000u64;
        let got = empirical_shares(&strat, n);
        for (i, (g, want)) in got.iter().zip(strat.fair_shares()).enumerate() {
            assert!(
                (g - want).abs() / want < 0.03,
                "bin {i}: got {g:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn fairness_k4() {
        let set = bins(&[800, 700, 600, 500, 400, 300, 200, 100]);
        let strat = RedundantShare::new(&set, 4).unwrap();
        assert!(strat.calibration_residual() < 1e-6);
        let n = 150_000u64;
        let got = empirical_shares(&strat, n);
        for (i, (g, want)) in got.iter().zip(strat.fair_shares()).enumerate() {
            assert!(
                (g - want).abs() / want < 0.03,
                "bin {i}: got {g:.4}, want {want:.4}"
            );
        }
    }

    #[test]
    fn infeasible_capacities_use_adjusted_targets() {
        // A dominant bin: raw shares are unreachable, adjusted ones are the
        // right target (Lemma 2.2).
        let set = bins(&[1_000, 100, 100]);
        let strat = RedundantShare::new(&set, 2).unwrap();
        let w = strat.adjusted_weights();
        assert_eq!(w, &[200.0, 100.0, 100.0]);
        let n = 100_000u64;
        let got = empirical_shares(&strat, n);
        let want = strat.fair_shares();
        // The big bin must appear in *every* redundancy group: share = 1.
        assert!((want[0] - 1.0).abs() < 1e-12);
        assert!((got[0] - 1.0).abs() < 1e-3, "got {}", got[0]);
        for i in 1..3 {
            assert!((got[i] - want[i]).abs() / want[i] < 0.03);
        }
    }

    #[test]
    fn k_equals_n_takes_every_bin() {
        let set = bins(&[30, 20, 10]);
        let strat = RedundantShare::new(&set, 3).unwrap();
        for ball in 0..200u64 {
            let placed = strat.place(ball);
            assert_eq!(placed.len(), 3);
        }
    }

    #[test]
    fn homogeneous_fairness_k3() {
        let set = bins(&[100; 10]);
        let strat = RedundantShare::new(&set, 3).unwrap();
        let n = 150_000u64;
        let got = empirical_shares(&strat, n);
        for (i, g) in got.iter().enumerate() {
            assert!((g - 0.3).abs() < 0.01, "bin {i}: {g}");
        }
    }

    #[test]
    fn analytic_expected_shares_match_fair_shares() {
        for caps in [
            vec![500u64, 400, 300, 200, 100],
            vec![400, 400, 400, 100],
            vec![737, 386, 356, 331, 146, 127],
        ] {
            for k in 2..=4usize {
                let set = bins(&caps);
                let strat = RedundantShare::new(&set, k).unwrap();
                let expected = strat.expected_shares();
                let fair = strat.fair_shares();
                for (i, (e, f)) in expected.iter().zip(&fair).enumerate() {
                    assert!(
                        (e - f).abs() < 1e-6,
                        "caps {caps:?} k={k} bin {i}: analytic {e} fair {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn inline_placement_is_bit_identical() {
        let set = bins(&[737, 386, 356, 331, 146, 127, 90, 60]);
        for k in 1..=8usize {
            let strat = RedundantShare::new(&set, k).unwrap();
            let mut arr = [BinId(u64::MAX); crate::MAX_INLINE_K];
            let mut v = Vec::new();
            for ball in 0..3_000u64 {
                strat.place_into(ball, &mut v);
                let n = strat.place_into_inline(ball, &mut arr);
                assert_eq!(n, k);
                assert_eq!(&arr[..n], v.as_slice(), "ball {ball} k={k}");
            }
        }
    }

    #[test]
    fn insertion_is_low_movement() {
        // Lemma 3.2-style check: adding the biggest bin should move about
        // 2·ξ of the copies for k = 2, far below a full reshuffle.
        let old = bins(&[100, 100, 100, 100]);
        let mut grown_bins: Vec<crate::bins::Bin> = old.bins().to_vec();
        grown_bins.push(crate::bins::Bin::new(100u64, 150).unwrap());
        let new = BinSet::new(grown_bins).unwrap();
        let a = RedundantShare::new(&old, 2).unwrap();
        let b = RedundantShare::new(&new, 2).unwrap();
        let balls = 40_000u64;
        let mut moved = 0u64;
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        for ball in 0..balls {
            a.place_into(ball, &mut va);
            b.place_into(ball, &mut vb);
            for (x, y) in va.iter().zip(&vb) {
                if x != y {
                    moved += 1;
                }
            }
        }
        let total_copies = balls * 2;
        let new_share = 150.0 / 550.0;
        let moved_frac = moved as f64 / total_copies as f64;
        // Optimal is `new_share`; Lemma 3.2 allows ~4x; we check it stays
        // well under a full reshuffle and above the trivial lower bound.
        assert!(moved_frac >= new_share * 0.8, "moved {moved_frac}");
        assert!(moved_frac <= new_share * 4.0, "moved {moved_frac}");
    }

    #[test]
    fn placements_match_golden_digests() {
        // Pins every placement bit for bit: a change to the scan's coin
        // flips, its thresholds or the last-copy selector shows up here as
        // a different digest. Capacities are 1–4 by id.
        for (n, k, want) in [
            (48u64, 3usize, 0xaccf_6910_f5c8_24ab_u64),
            (64, 2, 0x415d_923b_9e26_60ff),
            (96, 6, 0xa9fe_755f_5673_848c),
        ] {
            let set = BinSet::from_capacities((0..n).map(|id| 1 + id % 4)).unwrap();
            let strat = RedundantShare::new(&set, k).unwrap();
            let mut arr = [BinId(0); crate::MAX_INLINE_K];
            let mut digest = 0u64;
            for ball in 0..200_000u64 {
                let len = strat.place_into_inline(ball, &mut arr);
                for id in &arr[..len] {
                    digest = rshare_hash::stable_hash2(digest, id.raw());
                }
            }
            assert_eq!(digest, want, "n={n} k={k}: digest {digest:#018x}");
        }
    }
}
