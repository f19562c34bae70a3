//! Weighted rendezvous (highest-random-weight) hashing.
//!
//! For every `(ball, bin)` pair a uniform value `u ∈ (0, 1]` is derived by
//! stable hashing, converted into the exponential score `-ln(u) / w`, and the
//! bin with the *smallest* score wins. Because the minimum of independent
//! exponential variables with rates `w_i` falls on variable `i` with
//! probability exactly `w_i / Σ w_j`, the scheme is **perfectly fair in
//! expectation** for arbitrary real weights — the property Lemma 3.1 of the
//! paper requires from the `placeOneCopy` subroutine.
//!
//! Rendezvous hashing is also minimally adaptive: when a bin is added, the
//! only balls that move are those the new bin wins (an expected
//! `w_new / Σ w` fraction), and when a bin is removed, only the balls it held
//! move, redistributing proportionally over the survivors. Both facts are
//! exercised by the tests below and by the adaptivity experiments.

use crate::mix::{stable_hash3, unit_open_f64};
use crate::selector::SingleCopySelector;

/// Domain separator so rendezvous decisions are independent from the
/// primary-selection scan of the replication algorithms.
const RENDEZVOUS_DOMAIN: u64 = 0x52_56_5A_00; // "RVZ"

/// Weighted rendezvous (highest-random-weight) hashing selector.
///
/// Stateless: construction is free and selection runs in `O(n)` time for
/// `n` bins with no allocation.
///
/// # Example
///
/// ```
/// use rshare_hash::{Rendezvous, SingleCopySelector};
///
/// let sel = Rendezvous::new();
/// let names = [100u64, 200, 300];
/// let weights = [1.0, 1.0, 2.0];
///
/// // Count wins over many balls: the last bin should take ~50 %.
/// let mut wins = [0u32; 3];
/// for ball in 0..20_000u64 {
///     wins[sel.select(ball, &names, &weights)] += 1;
/// }
/// let share = f64::from(wins[2]) / 20_000.0;
/// assert!((share - 0.5).abs() < 0.02, "share = {share}");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rendezvous {
    seed: u64,
}

impl Rendezvous {
    /// Creates a selector with the default seed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a selector whose hash stream is offset by `seed`.
    ///
    /// Two selectors with different seeds make statistically independent
    /// decisions about the same balls; this is used to derive the
    /// per-copy-level hash streams of the trivial replication baseline.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Returns the rendezvous score of `key` against the bin `name` with
    /// weight `weight`; lower scores win.
    ///
    /// Exposed so callers can rank *all* bins (e.g. the trivial replication
    /// baseline takes the `k` lowest-scoring bins).
    #[inline]
    #[must_use]
    pub fn score(&self, key: u64, name: u64, weight: f64) -> f64 {
        debug_assert!(weight >= 0.0 && weight.is_finite());
        if weight <= 0.0 {
            return f64::INFINITY;
        }
        -self.unit(key, name).ln() / weight
    }

    /// The uniform `u ∈ (0, 1]` behind [`Rendezvous::score`].
    #[inline]
    fn unit(&self, key: u64, name: u64) -> f64 {
        unit_open_f64(stable_hash3(key, name, RENDEZVOUS_DOMAIN ^ self.seed))
    }
}

/// Relative margin of the `ln`-free lower bound in
/// [`SingleCopySelector::select_with_head`]. It dwarfs the ≤ 1 ulp error
/// of `ln` and the roundings of the score and bound arithmetic, so a bin
/// the bound skips can never have beaten the running best.
const BOUND_MARGIN: f64 = 1e-9;

impl SingleCopySelector for Rendezvous {
    fn select(&self, key: u64, names: &[u64], weights: &[f64]) -> usize {
        self.select_with_head(
            key,
            names,
            weights,
            *weights.first().expect("empty bin set"),
        )
    }

    fn select_with_head(
        &self,
        key: u64,
        names: &[u64],
        weights: &[f64],
        head_weight: f64,
    ) -> usize {
        assert!(!names.is_empty(), "cannot select from an empty bin set");
        assert_eq!(
            names.len(),
            weights.len(),
            "names and weights must have equal length"
        );
        let mut best = 0usize;
        let mut best_score = self.score(key, names[0], head_weight);
        let mut i = 1;
        loop {
            // `-ln(u) ≥ 1 - u`, so `(1 - u) / w` bounds a bin's score from
            // below: while that bound already reaches the best score the
            // bin cannot win, and the scan moves on without its `ln`. A
            // zero weight scores ∞ and never wins the strict test either.
            // The selection is exactly that of scoring every bin.
            let mut u = 0.0;
            let Some(skipped) = names[i..]
                .iter()
                .zip(&weights[i..])
                .position(|(&name, &w)| {
                    u = self.unit(key, name);
                    w > 0.0
                        && (1.0 - u) * (1.0 - BOUND_MARGIN) < best_score * w * (1.0 + BOUND_MARGIN)
                })
            else {
                return best;
            };
            i += skipped;
            let s = -u.ln() / weights[i];
            if s < best_score {
                best = i;
                best_score = s;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_two_to_one() {
        let sel = Rendezvous::new();
        let names = [7u64, 8, 9];
        let weights = [2.0, 1.0, 1.0];
        let n = 40_000u64;
        let mut counts = [0u32; 3];
        for ball in 0..n {
            counts[sel.select(ball, &names, &weights)] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|&c| f64::from(c) / n as f64).collect();
        assert!((shares[0] - 0.5).abs() < 0.015, "{shares:?}");
        assert!((shares[1] - 0.25).abs() < 0.015, "{shares:?}");
        assert!((shares[2] - 0.25).abs() < 0.015, "{shares:?}");
    }

    #[test]
    fn zero_weight_bin_never_selected() {
        let sel = Rendezvous::new();
        let names = [1u64, 2, 3];
        let weights = [0.0, 1.0, 1.0];
        for ball in 0..5_000u64 {
            assert_ne!(sel.select(ball, &names, &weights), 0);
        }
    }

    #[test]
    fn insertion_moves_only_to_new_bin() {
        // Minimal adaptivity: adding a bin may only move balls TO it.
        let sel = Rendezvous::new();
        let old_names = [1u64, 2, 3];
        let old_w = [1.0, 2.0, 3.0];
        let new_names = [1u64, 2, 3, 4];
        let new_w = [1.0, 2.0, 3.0, 2.0];
        let mut moved_to_new = 0u32;
        for ball in 0..20_000u64 {
            let a = sel.select(ball, &old_names, &old_w);
            let b = sel.select(ball, &new_names, &new_w);
            if a != b {
                assert_eq!(b, 3, "ball moved between surviving bins");
                moved_to_new += 1;
            }
        }
        let frac = f64::from(moved_to_new) / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "moved fraction = {frac}");
    }

    #[test]
    fn removal_redistributes_only_lost_balls() {
        let sel = Rendezvous::new();
        let names = [1u64, 2, 3, 4];
        let w = [1.0, 1.0, 1.0, 1.0];
        let sub_names = [1u64, 2, 3];
        let sub_w = [1.0, 1.0, 1.0];
        for ball in 0..10_000u64 {
            let a = sel.select(ball, &names, &w);
            let b = sel.select(ball, &sub_names, &sub_w);
            if a != 3 {
                assert_eq!(a, b, "ball not on removed bin must not move");
            }
        }
    }

    #[test]
    fn head_override_changes_only_head_share() {
        let sel = Rendezvous::new();
        let names = [1u64, 2, 3];
        let w = [1.0, 1.0, 1.0];
        let n = 30_000u64;
        let mut head = 0u32;
        for ball in 0..n {
            if sel.select_with_head(ball, &names, &w, 3.0) == 0 {
                head += 1;
            }
        }
        // Head weight 3 of total 5 => 60 %.
        let share = f64::from(head) / n as f64;
        assert!((share - 0.6).abs() < 0.02, "share = {share}");
    }

    #[test]
    fn seeds_are_independent() {
        let a = Rendezvous::with_seed(1);
        let b = Rendezvous::with_seed(2);
        let names = [1u64, 2, 3, 4];
        let w = [1.0; 4];
        let agree = (0..10_000u64)
            .filter(|&x| a.select(x, &names, &w) == b.select(x, &names, &w))
            .count();
        // Independent selections agree ~ 1/4 of the time.
        let frac = agree as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.03, "agreement = {frac}");
    }

    #[test]
    #[should_panic(expected = "empty bin set")]
    fn empty_bins_panics() {
        Rendezvous::new().select(1, &[], &[]);
    }

    /// The selection without the lower bound: score every bin, keep the
    /// first strict minimum.
    fn unpruned_argmin(
        sel: &Rendezvous,
        key: u64,
        names: &[u64],
        weights: &[f64],
        head: f64,
    ) -> usize {
        let mut best = 0usize;
        let mut best_score = sel.score(key, names[0], head);
        for i in 1..names.len() {
            let s = sel.score(key, names[i], weights[i]);
            if s < best_score {
                best = i;
                best_score = s;
            }
        }
        best
    }

    /// Relative offsets for weights that tie the running best score:
    /// inside, at and just outside the bound's margin.
    const TIE_OFFSETS: [f64; 7] = [-2e-9, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        #[test]
        fn bounded_selection_equals_unpruned_argmin(
            key in any::<u64>(),
            seed in any::<u64>(),
            head_boost in 0u64..4,
            bins in prop::collection::vec((any::<u64>(), 0u32..40, 0u8..8, any::<u64>()), 1..48),
        ) {
            let sel = Rendezvous::with_seed(seed);
            let names: Vec<u64> = bins.iter().map(|b| b.0).collect();
            let mut weights = Vec::with_capacity(bins.len());
            let mut best_score = f64::INFINITY;
            let mut head = 0.0;
            for (i, &(name, exp, kind, raw)) in bins.iter().enumerate() {
                // Log-uniform weights in [1, 2^40], zero for kind 0.
                let mut w = if kind == 0 {
                    0.0
                } else {
                    ((1u64 << exp) as f64 * (1.0 + crate::mix::unit_f64(raw))).min((1u64 << 40) as f64)
                };
                if i == 0 {
                    // Boosted head: ×1, ×10, ×1000, or zero.
                    head = w * [1.0, 10.0, 1e3, 0.0][head_boost as usize];
                    best_score = sel.score(key, name, head);
                } else if kind >= 6 && best_score.is_finite() && best_score > 0.0 {
                    // Near tie: pick the weight whose score lands on the
                    // running best, nudged by a tiny relative offset.
                    let offset = TIE_OFFSETS[(raw % TIE_OFFSETS.len() as u64) as usize];
                    w = -sel.unit(key, name).ln() / best_score * (1.0 + offset);
                    if !w.is_finite() {
                        w = 0.0;
                    }
                }
                weights.push(w);
                if i > 0 {
                    best_score = best_score.min(sel.score(key, name, w));
                }
            }
            prop_assert_eq!(
                sel.select_with_head(key, &names, &weights, head),
                unpruned_argmin(&sel, key, &names, &weights, head)
            );
        }
    }
}
