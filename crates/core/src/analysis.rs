//! Exact analysis of the Redundant Share scan and the `b̂` weight correction.
//!
//! # The scan model
//!
//! Both LinMirror (Algorithm 2) and k-replication (Algorithm 4) are a single
//! left-to-right pass over the bins in descending capacity order. The pass
//! carries the number `r` of copies still to be placed (initially `k`); at
//! bin `i` it places a copy with probability
//!
//! ```text
//! θ(i, r) = min(1, r · b_i / B_i)        B_i = Σ_{j ≥ i} b_j
//! ```
//!
//! (`č_i` in the paper). When `r` drops to 1, the final copy is delegated to
//! a fair single-copy strategy (`placeOneCopy`) over the remaining suffix.
//!
//! # Why a correction is needed
//!
//! If `θ(i, r) < 1` everywhere, a simple induction (Lemma 3.4) shows every
//! bin receives exactly its fair share `k · b_i / B`. But for skewed
//! capacity distributions some suffix may contain a bin too large for it —
//! `r · b_q > B_q` — where `θ` saturates at 1 and bin `q` can no longer
//! collect its demand from scan decisions alone. The paper repairs this by
//! *favouring* bin `q` inside the `placeOneCopy` call that starts exactly at
//! `q`: its weight is replaced by an adjusted value `b̂` (Algorithm 3,
//! Equations 2–5).
//!
//! # What this module computes
//!
//! [`ScanModel`] precomputes, exactly and in closed form:
//!
//! * the saturated probabilities `θ(i, r)`,
//! * the arrival distribution `A[i][r]` of the scan (probability of reaching
//!   bin `i` with `r` copies left),
//! * the probability mass `L[s]` of `placeOneCopy` calls whose suffix starts
//!   at bin `s`, and
//! * per-suffix head weights `b̂_s` chosen so that **every** bin's expected
//!   number of copies equals its fair share. For k = 2 this reproduces the
//!   paper's Equations 2–5 (see [`closed_form_boost_k2`] and the test that
//!   cross-checks both); for larger `k` it generalises them, implementing
//!   the paper's remark that `b̂` "can be calculated similar to b̂ for
//!   k = 2".
//!
//! The calibration is one forward pass over the bins, a one-time
//! `O(k · n + n²)` cost at construction; the per-ball placement stays
//! `O(n)` (or `O(k)` for the precomputed variant).

/// Tolerance for treating an expected-share deviation as zero.
const EPS: f64 = 1e-12;

/// Precomputed scan probabilities and corrected suffix head weights.
#[derive(Debug, Clone)]
pub(crate) struct ScanModel {
    /// Replication degree `k`.
    pub k: usize,
    /// Adjusted capacities (Lemma 2.2), descending.
    pub weights: Vec<f64>,
    /// `suffix[i] = Σ_{j ≥ i} weights[j]`; one extra trailing 0 entry.
    pub suffix: Vec<f64>,
    /// `θ(i, r)` for `r ∈ {2, …, k}`, flattened row-major into one
    /// contiguous buffer: row `r - 2` holds the `n` values for level `r`
    /// (empty for k < 2). The scan of [`crate::RedundantShare`] tests
    /// integer cuts derived from these rows, in the same layout.
    pub theta: Vec<f64>,
    /// `sat_cut[r - 2]`: start of the maximal *saturated suffix* at scan
    /// level `r` — every `i ≥ sat_cut[r-2]` has effective θ(i, r) ≥ 1, so
    /// the scan takes those bins unconditionally, without hashing. Always
    /// `≤ n - r` (the forced-take state), hence also subsumes the
    /// structural guard. Recomputed after calibration, which can move θ
    /// values across the saturation boundary.
    pub sat_cut: Vec<usize>,
    /// `head_boost[s]`: weight to use for bin `s` when it heads a
    /// `placeOneCopy` suffix (`b̂_s`; equals `weights[s]` when no correction
    /// is needed).
    pub head_boost: Vec<f64>,
    /// Largest residual |expected − fair| share left after calibration;
    /// zero (up to float noise) whenever the correction can be exact.
    pub max_residual: f64,
}

impl ScanModel {
    /// Builds the model for adjusted weights (descending) and `k ≥ 1`.
    pub fn new(weights: Vec<f64>, k: usize) -> Self {
        let n = weights.len();
        debug_assert!(k >= 1 && n >= k);
        debug_assert!(weights.windows(2).all(|w| w[0] >= w[1] - 1e-9));
        let mut suffix = vec![0.0; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] + weights[i];
        }
        let mut theta = Vec::with_capacity(n * k.saturating_sub(1));
        for r in 2..=k {
            theta.extend((0..n).map(|i| (r as f64 * weights[i] / suffix[i]).min(1.0)));
        }
        let mut model = Self {
            k,
            weights,
            suffix,
            theta,
            sat_cut: Vec::new(),
            head_boost: Vec::new(),
            max_residual: 0.0,
        };
        model.calibrate();
        model.recompute_saturation_cutoffs();
        model
    }

    /// Index of `θ(i, r)` in the flattened buffer.
    #[inline]
    fn theta_idx(&self, i: usize, r: usize) -> usize {
        (r - 2) * self.weights.len() + i
    }

    /// `θ(i, r)`; only defined for `2 ≤ r ≤ k`.
    #[inline]
    pub fn theta(&self, i: usize, r: usize) -> f64 {
        self.theta[self.theta_idx(i, r)]
    }

    /// Start of the maximal saturated suffix at level `r`: every bin at or
    /// beyond this index is taken unconditionally by the scan.
    #[inline]
    pub fn saturation_cut(&self, r: usize) -> usize {
        self.sat_cut[r - 2]
    }

    /// Recomputes [`ScanModel::sat_cut`] from the current θ buffer. The
    /// scan at level `r` never moves past bin `n - r` (the forced-take
    /// state), so the cutoff scans leftwards from there.
    fn recompute_saturation_cutoffs(&mut self) {
        let n = self.weights.len();
        self.sat_cut = (2..=self.k)
            .map(|r| {
                let mut cut = n - r;
                while cut > 0 && self.theta[self.theta_idx(cut - 1, r)] >= 1.0 {
                    cut -= 1;
                }
                cut
            })
            .collect();
    }

    /// `θ(i, r)` with the structural forced-take guard: once only `r` bins
    /// remain the scan must take all of them, independent of the stored
    /// probability (which is 1 mathematically but may round below it).
    #[inline]
    pub fn effective_theta(&self, i: usize, r: usize) -> f64 {
        if self.weights.len() - i == r {
            1.0
        } else {
            self.theta(i, r)
        }
    }

    /// The scan at bin 0: its arrival row (`row[r - 2]`, the mass reaching
    /// the bin with `r` copies left: all of it at `r = k`) and the mass of
    /// `placeOneCopy` calls starting there (the whole placement for k = 1).
    fn start(&self) -> (Vec<f64>, f64) {
        let mut row = vec![0.0; self.k - 1];
        match row.last_mut() {
            Some(top) => {
                *top = 1.0;
                (row, 0.0)
            }
            None => (row, 1.0),
        }
    }

    /// Pushes the arrival row at bin `i` through bin `i`'s take
    /// probabilities: returns the row at bin `i + 1` and the mass of
    /// `placeOneCopy` calls starting there.
    fn step(&self, i: usize, row: &[f64]) -> (Vec<f64>, f64) {
        let mut next = vec![0.0; row.len()];
        let mut last_mass = 0.0;
        for r in (2..=self.k).rev() {
            let mass = row[r - 2];
            if mass == 0.0 {
                continue;
            }
            let take = mass * self.effective_theta(i, r);
            if r == 2 {
                last_mass += take;
            } else {
                next[r - 3] += take;
            }
            next[r - 2] += mass - take;
        }
        (next, last_mass)
    }

    /// Probability that the scan arrives at bin `i` with `r` copies left,
    /// as the dense matrix `A[i][r]` (indexed `[i][r - 2]`), plus the
    /// `placeOneCopy` start-mass vector `L[s]`.
    fn arrival(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n = self.weights.len();
        let (row, mass) = self.start();
        let mut a = vec![row];
        let mut last_mass = vec![mass];
        for i in 0..n - 1 {
            let (next, mass) = self.step(i, &a[i]);
            a.push(next);
            last_mass.push(mass);
        }
        (a, last_mass)
    }

    /// Calibrates the model so that every bin's expected copy count equals
    /// its fair share `k · w_i / W`.
    ///
    /// Two kinds of knobs are available, mirroring the paper's corrections:
    ///
    /// 1. the head weight `b̂_s` of the `placeOneCopy` call whose suffix
    ///    starts at `s` (Algorithm 3 / Equations 2–5), and
    /// 2. the take probability `θ(s, r)` at an *unsaturated* scan state —
    ///    the effect of Algorithm 4's lines 11–13, which replace the head
    ///    weight of the suffix passed into the recursion and thereby change
    ///    exactly that state's take probability.
    ///
    /// Bins are processed left to right in one forward pass of the
    /// arrival DP: the knobs at bin `s` only influence bins `≥ s`, so each
    /// bin can be driven onto its target without disturbing earlier ones,
    /// and the arrival row at `s` and the start masses up to `s` are final
    /// once the knobs below `s` are. For k = 2 the result coincides with
    /// the paper's closed-form `b̂` (see [`closed_form_boost_k2`] and its
    /// cross-check test).
    #[allow(clippy::needless_range_loop)] // indices couple several arrays
    fn calibrate(&mut self) {
        let n = self.weights.len();
        self.head_boost = self.weights.clone();
        let total = self.suffix[0];
        let mut residual: f64 = 0.0;
        let (mut row, mass) = self.start();
        let mut last_mass = vec![mass];
        for s in 0..n {
            if s > 0 {
                // Bin s − 1 is calibrated: push its arrivals on to bin s.
                let (next, mass) = self.step(s - 1, &row);
                row = next;
                last_mass.push(mass);
            }
            let target = self.k as f64 * self.weights[s] / total;
            // Current supply of bin s.
            let mut supply = 0.0;
            for r in 2..=self.k {
                supply += row[r - 2] * self.effective_theta(s, r);
            }
            for s2 in 0..=s {
                if last_mass[s2] == 0.0 {
                    continue;
                }
                let denom = self.head_boost_eff(s2) + self.suffix[s2 + 1];
                let w = if s2 == s {
                    self.head_boost_eff(s2)
                } else {
                    self.weights[s]
                };
                supply += last_mass[s2] * w / denom;
            }
            let mut delta = target - supply;
            if delta.abs() < EPS * self.k as f64 {
                continue;
            }
            // Knob 1: the placeOneCopy head weight for the suffix at s.
            let tail = self.suffix[s + 1];
            if last_mass[s] > 0.0 && tail > 0.0 {
                let current =
                    last_mass[s] * self.head_boost_eff(s) / (self.head_boost_eff(s) + tail);
                let desired = (current + delta).clamp(0.0, last_mass[s]);
                if desired >= last_mass[s] * (1.0 - EPS) {
                    self.head_boost[s] = f64::INFINITY;
                } else {
                    self.head_boost[s] = desired * tail / (last_mass[s] - desired);
                }
                let achieved =
                    last_mass[s] * self.head_boost_eff(s) / (self.head_boost_eff(s) + tail);
                delta -= achieved - current;
            }
            // Knob 2: take probabilities at unforced scan states of bin s.
            if delta.abs() >= EPS * self.k as f64 {
                for r in 2..=self.k {
                    if n - s == r {
                        // Forced take: the probability is structurally 1.
                        continue;
                    }
                    let mass = row[r - 2];
                    if mass <= 0.0 {
                        continue;
                    }
                    let old = self.theta(s, r);
                    let new = (old + delta / mass).clamp(0.0, 1.0);
                    let idx = self.theta_idx(s, r);
                    self.theta[idx] = new;
                    delta -= (new - old) * mass;
                    if delta.abs() < EPS * self.k as f64 {
                        break;
                    }
                }
            }
            residual = residual.max(delta.abs());
        }
        self.max_residual = residual;
    }

    /// Expected per-ball copy count for every bin under the calibrated
    /// model. Used by tests and the analysis-facing API; should equal
    /// `k · w_i / W` componentwise up to `max_residual`.
    #[allow(clippy::needless_range_loop)] // indices couple several arrays
    pub fn expected_shares(&self) -> Vec<f64> {
        let n = self.weights.len();
        let (arrivals, last_mass) = self.arrival();
        let mut shares = vec![0.0; n];
        for i in 0..n {
            for r in 2..=self.k {
                shares[i] += arrivals[i][r - 2] * self.effective_theta(i, r);
            }
        }
        for s in 0..n {
            if last_mass[s] == 0.0 {
                continue;
            }
            let denom = self.head_boost_eff(s) + self.suffix[s + 1];
            for i in s..n {
                let w = if i == s {
                    self.head_boost_eff(s)
                } else {
                    self.weights[i]
                };
                shares[i] += last_mass[s] * w / denom;
            }
        }
        shares
    }

    /// The analytic distribution of copy index `t` (0-based) over the
    /// bins: `P[copy t of a ball lands on bin i]`. Each row sums to 1;
    /// summing rows over `t` recovers [`ScanModel::expected_shares`].
    ///
    /// Copy `t < k-1` is placed by the scan at level `r = k - t`; the last
    /// copy comes from the `placeOneCopy` suffix calls.
    #[allow(clippy::needless_range_loop)] // indices couple several arrays
    pub fn copy_distribution(&self, t: usize) -> Vec<f64> {
        let n = self.weights.len();
        debug_assert!(t < self.k);
        let (arrivals, last_mass) = self.arrival();
        let mut dist = vec![0.0; n];
        if t + 1 < self.k || self.k == 1 && t == 0 {
            if self.k == 1 {
                // Single copy: one placeOneCopy call over everything.
                let denom = self.head_boost_eff(0) + self.suffix[1];
                for (i, d) in dist.iter_mut().enumerate() {
                    let w = if i == 0 {
                        self.head_boost_eff(0)
                    } else {
                        self.weights[i]
                    };
                    *d = last_mass[0] * w / denom;
                }
                return dist;
            }
            let r = self.k - t;
            for (i, d) in dist.iter_mut().enumerate() {
                *d = arrivals[i][r - 2] * self.effective_theta(i, r);
            }
        } else {
            // Last copy: the suffix calls.
            for s in 0..n {
                if last_mass[s] == 0.0 {
                    continue;
                }
                let denom = self.head_boost_eff(s) + self.suffix[s + 1];
                for i in s..n {
                    let w = if i == s {
                        self.head_boost_eff(s)
                    } else {
                        self.weights[i]
                    };
                    dist[i] += last_mass[s] * w / denom;
                }
            }
        }
        dist
    }

    /// `head_boost[s]` with infinities replaced by a large finite surrogate
    /// for share computation.
    fn head_boost_eff(&self, s: usize) -> f64 {
        let b = self.head_boost[s];
        if b.is_finite() {
            b
        } else {
            self.suffix[0] * 1e12
        }
    }
}

/// The closed-form `b̂` of Algorithm 3 / Equations 2–5 for k = 2.
///
/// Given adjusted weights (descending), finds the first index `q` where
/// `2 · b_q > B_q` and evaluates the paper's formulas:
///
/// ```text
/// s̃_q = Σ_{j ≤ q-2} č_j · (b_q / Σ_{l > j} b_l) · Π_{o < j} (1 - č_o)   (Eq. 2)
/// p_q = Π_{o < q} (1 - č_o)                                            (Eq. 3)
/// s_q = 2 c_q − s̃_q − p_q                                              (Eq. 4)
/// b̂   = s_q · T / (P − s_q)                                            (Eq. 5)
/// ```
///
/// with `T = Σ_{l > q} b_l` and `P = č_{q-1} · Π_{j < q-1} (1 - č_j)` the
/// probability that the primary lands on bin `q - 1`. Returns
/// `Some((q, b̂))`, or `None` when no saturation occurs (no correction
/// needed). Used to cross-validate the general calibration of
/// [`ScanModel`].
#[cfg_attr(not(any(test, debug_assertions)), allow(dead_code))]
pub(crate) fn closed_form_boost_k2(weights: &[f64]) -> Option<(usize, f64)> {
    let n = weights.len();
    let mut suffix = vec![0.0; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + weights[i];
    }
    let total = suffix[0];
    let theta: Vec<f64> = (0..n)
        .map(|i| (2.0 * weights[i] / suffix[i]).min(1.0))
        .collect();
    let q = (0..n).find(|&i| 2.0 * weights[i] > suffix[i] * (1.0 + 1e-15))?;
    if q == 0 || q + 1 >= n {
        // q = 0 cannot occur after capacity adjustment; q = n-1 needs no
        // correction (single-bin suffixes are trivially exact).
        return None;
    }
    // Eq. 2: secondaries already promised to q by primaries at j ≤ q-2.
    let mut reach = 1.0; // Π_{o<j}(1-č_o)
    let mut s_tilde = 0.0;
    for j in 0..q.saturating_sub(1) {
        s_tilde += theta[j] * (weights[q] / suffix[j + 1]) * reach;
        reach *= 1.0 - theta[j];
    }
    // After the loop, `reach` = Π_{o < q-1}(1-č_o).
    let p_primary_qm1 = theta[q - 1] * reach;
    // Eq. 3: maximum primary mass for q.
    let p_q = reach * (1.0 - theta[q - 1]);
    // Eq. 4: secondaries needed from primaries at q-1.
    let s_q = 2.0 * weights[q] / total - s_tilde - p_q;
    let tail = suffix[q + 1];
    // Eq. 5.
    if s_q <= 0.0 || s_q >= p_primary_qm1 {
        return Some((q, if s_q <= 0.0 { 0.0 } else { f64::INFINITY }));
    }
    Some((q, s_q * tail / (p_primary_qm1 - s_q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fair_targets(weights: &[f64], k: usize) -> Vec<f64> {
        let total: f64 = weights.iter().sum();
        weights.iter().map(|w| k as f64 * w / total).collect()
    }

    #[test]
    fn expected_shares_exact_without_saturation() {
        // No θ saturates: (4, 3, 2, 1) with k = 2 — 2·4 = 8 ≤ 10.
        let w = vec![4.0, 3.0, 2.0, 1.0];
        let m = ScanModel::new(w.clone(), 2);
        assert!(m.max_residual < 1e-9, "residual {}", m.max_residual);
        let shares = m.expected_shares();
        for (s, t) in shares.iter().zip(fair_targets(&w, 2)) {
            assert!((s - t).abs() < 1e-9, "share {s} target {t}");
        }
    }

    #[test]
    fn expected_shares_exact_with_saturation() {
        // (4, 4, 4, 1): suffix (4, 4, 1) saturates at its head for k = 2.
        let w = vec![4.0, 4.0, 4.0, 1.0];
        let m = ScanModel::new(w.clone(), 2);
        assert!(m.max_residual < 1e-9, "residual {}", m.max_residual);
        let shares = m.expected_shares();
        for (i, (s, t)) in shares.iter().zip(fair_targets(&w, 2)).enumerate() {
            assert!((s - t).abs() < 1e-9, "bin {i}: share {s} target {t}");
        }
    }

    #[test]
    fn calibration_matches_closed_form_k2() {
        // The worked example from the design notes: (4, 4, 4, 1) has q = 2
        // and b̂ = 7 by Equations 2–5.
        let w = vec![4.0, 4.0, 4.0, 1.0];
        let (q, boost) = closed_form_boost_k2(&w).expect("saturation expected");
        assert_eq!(q, 2);
        assert!((boost - 7.0).abs() < 1e-9, "closed-form b̂ = {boost}");
        let m = ScanModel::new(w, 2);
        assert!(
            (m.head_boost[q] - boost).abs() < 1e-9,
            "calibrated {} vs closed-form {boost}",
            m.head_boost[q]
        );
    }

    #[test]
    fn closed_form_boost_on_tail_saturation() {
        // (4, 3, 2, 1): the suffix (2, 1) saturates (2·2 > 3) at q = 2. The
        // θ value at bin 1 is exactly 1, so the proportional share already
        // meets bin 2's demand and the formula returns the identity boost
        // b̂ = b_2 — a useful consistency check of Equations 2–5.
        let (q, boost) = closed_form_boost_k2(&[4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(q, 2);
        assert!((boost - 2.0).abs() < 1e-9, "b̂ = {boost}");
    }

    #[test]
    fn closed_form_none_when_only_last_bin_saturates() {
        // Equal weights: every suffix is feasible except the trivial
        // single-bin one, which needs no correction.
        assert!(closed_form_boost_k2(&[1.0, 1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn k3_shares_exact_on_skewed_weights() {
        // Adjusted weights from (100, 100, 10, 1) with k = 3.
        let w = vec![11.0, 11.0, 10.0, 1.0];
        let m = ScanModel::new(w.clone(), 3);
        assert!(m.max_residual < 1e-9, "residual {}", m.max_residual);
        let shares = m.expected_shares();
        for (i, (s, t)) in shares.iter().zip(fair_targets(&w, 3)).enumerate() {
            assert!((s - t).abs() < 1e-9, "bin {i}: share {s} target {t}");
        }
    }

    #[test]
    fn k1_is_pure_place_one_copy() {
        let m = ScanModel::new(vec![3.0, 2.0, 1.0], 1);
        let shares = m.expected_shares();
        for (s, t) in shares.iter().zip(fair_targets(&[3.0, 2.0, 1.0], 1)) {
            assert!((s - t).abs() < 1e-9);
        }
    }

    #[test]
    fn shares_sum_to_k() {
        for k in 1..=4usize {
            let w = vec![8.0, 5.0, 5.0, 4.0, 2.0, 1.0];
            let m = ScanModel::new(w, k);
            let sum: f64 = m.expected_shares().iter().sum();
            assert!((sum - k as f64).abs() < 1e-9, "k={k} sum={sum}");
        }
    }

    #[test]
    fn copy_distributions_partition_the_shares() {
        for k in 1..=4usize {
            let w = vec![8.0, 5.0, 5.0, 4.0, 2.0, 1.0];
            let m = ScanModel::new(w, k);
            let mut sum = [0.0; 6];
            for t in 0..k {
                let dist = m.copy_distribution(t);
                let total: f64 = dist.iter().sum();
                assert!((total - 1.0).abs() < 1e-9, "k={k} t={t} total={total}");
                for (acc, d) in sum.iter_mut().zip(&dist) {
                    *acc += d;
                }
            }
            for (a, b) in sum.iter().zip(m.expected_shares()) {
                assert!((a - b).abs() < 1e-9, "k={k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn primary_copies_favor_big_bins() {
        let m = ScanModel::new(vec![4.0, 3.0, 2.0, 1.0], 2);
        let primary = m.copy_distribution(0);
        let secondary = m.copy_distribution(1);
        // The scan takes big bins first: the biggest bin's primary share
        // exceeds its secondary share, and vice versa for the smallest.
        assert!(primary[0] > secondary[0]);
        assert!(primary[3] < secondary[3]);
    }

    #[test]
    fn random_weight_vectors_calibrate_exactly() {
        // Pseudo-random (but deterministic) capacity vectors, adjusted via
        // Lemma 2.2, must always calibrate with negligible residual.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for trial in 0..50 {
            let n = 3 + (next() % 10) as usize;
            let k = 2 + (next() % 3) as usize;
            if k > n {
                continue;
            }
            let mut caps: Vec<u64> = (0..n).map(|_| 1 + next() % 1000).collect();
            caps.sort_unstable_by(|a, b| b.cmp(a));
            let w = crate::capacity::optimal_weights(&caps, k);
            let m = ScanModel::new(w.clone(), k);
            assert!(
                m.max_residual < 1e-6,
                "trial {trial}: residual {} for caps {caps:?} k={k}",
                m.max_residual
            );
            let shares = m.expected_shares();
            let targets = fair_targets(&w, k);
            for (i, (s, t)) in shares.iter().zip(&targets).enumerate() {
                assert!(
                    (s - t).abs() < 1e-6,
                    "trial {trial} bin {i}: share {s} target {t} caps {caps:?} k={k}"
                );
            }
        }
    }
}
