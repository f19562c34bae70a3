//! k-fold replication in O(k) time (Section 3.3 of the paper).
//!
//! The linear scan of [`crate::RedundantShare`] is a Markov chain over
//! `(position, copies remaining)`: after a copy is placed at bin `l` with
//! `r` copies remaining, the distribution of the *next* placed copy depends
//! only on `(l, r)`. Section 3.3 exploits this by precomputing, for the
//! first copy one weighted-selection structure, and for every following copy
//! one structure per possible predecessor bin — "O(n) hash functions, one
//! for each disk that could be chosen as primary in the previous step". A
//! query then walks `k` constant-time lookups.
//!
//! We realise each structure as an inverse-CDF table ([`CdfTable`]).
//! Construction costs `O(k · n²)` time and memory (the paper counts this
//! as `O(k · n · s)` with `s` the per-hash-function memory); queries cost
//! `O(k · log n)`. An alias table would answer each draw in O(1), but its
//! column/alias layout is discontinuous in the weights: rebuilding it for
//! a slightly different bin set scrambles which hash values land where,
//! which would void the adaptivity guarantees the paper's Section 4 is
//! about. The inverse-CDF draw is monotone in the cumulative
//! distribution, so a capacity change that keeps the bin order remaps
//! only balls whose uniform falls in a shifted boundary region.
//!
//! That does not make the variant adaptive under membership changes. The
//! tables are indexed by *position* in the capacity order, so inserting or
//! removing one bin shifts every later CDF boundary, and balls move
//! between bins the change never touched. On 2-way mirrors of 64–68
//! devices, single-device adds moved 15.7–39.7× the fair minimum;
//! removals and rebuilds there and on a 96-device RS(4,2) cluster moved
//! 15–31×. The scan's coin at bin `i` depends only on `(ball, bin name)`,
//! and its adds stay near 2× (Lemma 3.2 bounds them by 4), so storage
//! clusters place through the scan.
//!
//! The sampled joint distribution is identical to the scan's, so fairness
//! and redundancy carry over exactly; the random bits differ, so the two
//! variants produce different (but equally distributed) mappings. A
//! membership change builds a new instance from scratch; construction runs
//! serially (0.8–1.3 ms at n = 96, k = 6 on a 2-core x86-64 host).

use rshare_hash::{stable_hash3, CdfTable};

use crate::analysis::ScanModel;
use crate::bins::{BinId, BinSet};
use crate::capacity::optimal_weights;
use crate::error::PlacementError;
use crate::strategy::PlacementStrategy;

const FAST_DOMAIN: u64 = 0x4653_4841_5245_0000; // "FSHARE"

/// Per-predecessor transition structure for one copy level.
#[derive(Debug, Clone)]
enum Transition {
    /// Reachable state: inverse-CDF table over the bins after the
    /// predecessor (outcome `t` means absolute index `prev + 1 + t`).
    Table(CdfTable),
    /// The calibrated head weight diverged: the head takes everything.
    AlwaysHead,
    /// State unreachable (not enough bins left for the remaining copies).
    Unreachable,
}

/// Redundant Share with precomputed O(k)-time queries.
///
/// # Example
///
/// ```
/// use rshare_core::{BinSet, FastRedundantShare, PlacementStrategy};
///
/// let bins = BinSet::from_capacities([500, 400, 300, 200, 100]).unwrap();
/// let strat = FastRedundantShare::new(&bins, 3).unwrap();
/// let copies = strat.place(99);
/// assert_eq!(copies.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FastRedundantShare {
    ids: Vec<BinId>,
    k: usize,
    fair: Vec<f64>,
    /// Distribution of the first copy.
    first: Transition,
    /// `scan_levels[k - r]` for r = k-1 … 2: transitions of the scan-placed
    /// middle copies, indexed by predecessor.
    scan_levels: Vec<Vec<Transition>>,
    /// Last-copy (`placeOneCopy`) distributions, indexed by predecessor.
    last: Vec<Transition>,
}

impl FastRedundantShare {
    /// Builds the precomputed strategy in `O(k · n²)` time.
    ///
    /// # Errors
    ///
    /// * [`PlacementError::ZeroReplication`] if `k == 0`.
    /// * [`PlacementError::TooFewBins`] if `k` exceeds the number of bins.
    pub fn new(bins: &BinSet, k: usize) -> Result<Self, PlacementError> {
        if k == 0 {
            return Err(PlacementError::ZeroReplication);
        }
        let n = bins.len();
        if k > n {
            return Err(PlacementError::TooFewBins { k, n });
        }
        let capacities: Vec<u64> = bins.bins().iter().map(|b| b.capacity()).collect();
        let weights = optimal_weights(&capacities, k);
        let model = ScanModel::new(weights, k);
        let total = model.suffix[0];
        let fair = model.weights.iter().map(|w| k as f64 * w / total).collect();

        // First copy: either the level-k scan start (k >= 2) or a direct
        // placeOneCopy over everything (k == 1).
        let first = if k >= 2 {
            scan_transition(&model, k, 0)
        } else {
            last_transition(&model, 0)
        };
        // Middle copies placed by the scan: levels r = k-1 … 2, one
        // transition table per predecessor bin.
        let scan_levels: Vec<Vec<Transition>> = (2..k)
            .rev()
            .map(|r| {
                (0..n)
                    .map(|prev| scan_transition(&model, r, prev + 1))
                    .collect()
            })
            .collect();
        // Last copy: placeOneCopy suffix per predecessor.
        let last: Vec<Transition> = if k >= 2 {
            (0..n)
                .map(|prev| last_transition(&model, prev + 1))
                .collect()
        } else {
            Vec::new()
        };
        Ok(Self {
            ids: bins.bins().iter().map(|b| b.id()).collect(),
            k,
            fair,
            first,
            scan_levels,
            last,
        })
    }

    /// Approximate memory footprint of the precomputed tables in bytes —
    /// the `O(k · n · s)` cost Section 3.3 pays for O(k) queries.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        fn t(trans: &Transition) -> usize {
            match trans {
                Transition::Table(a) => a.memory_bytes(),
                _ => 0,
            }
        }
        t(&self.first)
            + self
                .scan_levels
                .iter()
                .map(|lvl| lvl.iter().map(t).sum::<usize>())
                .sum::<usize>()
            + self.last.iter().map(t).sum::<usize>()
            + self.ids.len() * std::mem::size_of::<BinId>()
            + self.fair.len() * std::mem::size_of::<f64>()
    }

    fn resolve(&self, trans: &Transition, base: usize, key: u64) -> usize {
        match trans {
            Transition::Table(t) => base + t.sample_hash(key),
            Transition::AlwaysHead => base,
            Transition::Unreachable => {
                unreachable!("sampled into an unreachable placement state")
            }
        }
    }

    /// The Markov-chain walk, emitting the `k` chosen bins in copy order.
    ///
    /// Shared by `place_into` and `place_into_inline` so the two emit
    /// destinations are bit-identical by construction.
    fn walk_place(&self, ball: u64, mut emit: impl FnMut(BinId)) {
        let key0 = stable_hash3(ball, 0, FAST_DOMAIN);
        let mut prev = self.resolve(&self.first, 0, key0);
        emit(self.ids[prev]);
        if self.k == 1 {
            return;
        }
        for (level, tables) in self.scan_levels.iter().enumerate() {
            let key = stable_hash3(ball, level as u64 + 1, FAST_DOMAIN);
            prev = self.resolve(&tables[prev], prev + 1, key);
            emit(self.ids[prev]);
        }
        let key = stable_hash3(ball, self.k as u64 - 1, FAST_DOMAIN);
        let idx = self.resolve(&self.last[prev], prev + 1, key);
        emit(self.ids[idx]);
    }
}

/// Distribution of the next scan take at level `r` starting from `start`:
/// `P[take at j] = θ(j, r) · Π_{start ≤ o < j} (1 - θ(o, r))`.
fn scan_transition(model: &ScanModel, r: usize, start: usize) -> Transition {
    let n = model.weights.len();
    if n < start + r {
        return Transition::Unreachable;
    }
    let mut probs = vec![0.0; n - start];
    let mut reach = 1.0;
    for j in start..n {
        let force = n - j == r; // floating-point guard, as in the scan
        let theta = if force { 1.0 } else { model.theta(j, r) };
        probs[j - start] = reach * theta;
        reach *= 1.0 - theta;
        if reach <= 0.0 {
            break;
        }
    }
    Transition::Table(CdfTable::new(&probs).expect("valid scan distribution"))
}

/// Distribution of the last copy over the suffix starting at `start`, with
/// the calibrated head weight.
fn last_transition(model: &ScanModel, start: usize) -> Transition {
    let n = model.weights.len();
    if start >= n {
        return Transition::Unreachable;
    }
    let boost = model.head_boost[start];
    if !boost.is_finite() {
        return Transition::AlwaysHead;
    }
    let mut w: Vec<f64> = model.weights[start..].to_vec();
    w[0] = boost;
    Transition::Table(CdfTable::new(&w).expect("valid suffix weights"))
}

impl PlacementStrategy for FastRedundantShare {
    fn replication(&self) -> usize {
        self.k
    }

    fn bin_ids(&self) -> &[BinId] {
        &self.ids
    }

    fn place_into(&self, ball: u64, out: &mut Vec<BinId>) {
        out.clear();
        self.walk_place(ball, |id| out.push(id));
    }

    fn place_into_inline(&self, ball: u64, out: &mut [BinId; crate::MAX_INLINE_K]) -> usize {
        assert!(
            self.k <= crate::MAX_INLINE_K,
            "replication {} exceeds inline capacity",
            self.k
        );
        let mut n = 0usize;
        self.walk_place(ball, |id| {
            out[n] = id;
            n += 1;
        });
        n
    }

    fn fair_shares(&self) -> Vec<f64> {
        self.fair.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redundant_share::RedundantShare;
    use crate::test_util::empirical_shares;

    fn bins(caps: &[u64]) -> BinSet {
        BinSet::from_capacities(caps.iter().copied()).unwrap()
    }

    #[test]
    fn distinct_and_sized() {
        let set = bins(&[500, 400, 300, 200, 100]);
        for k in 1..=5 {
            let strat = FastRedundantShare::new(&set, k).unwrap();
            for ball in 0..2_000u64 {
                let placed = strat.place(ball);
                assert_eq!(placed.len(), k);
                let mut uniq = placed.clone();
                uniq.sort();
                uniq.dedup();
                assert_eq!(uniq.len(), k, "ball {ball} k={k}");
            }
        }
    }

    #[test]
    fn inline_placement_is_bit_identical() {
        let set = bins(&[500, 400, 300, 200, 100]);
        for k in 1..=5usize {
            let strat = FastRedundantShare::new(&set, k).unwrap();
            let mut arr = [BinId(u64::MAX); crate::MAX_INLINE_K];
            let mut v = Vec::new();
            for ball in 0..2_000u64 {
                strat.place_into(ball, &mut v);
                let n = strat.place_into_inline(ball, &mut arr);
                assert_eq!(n, k);
                assert_eq!(&arr[..n], v.as_slice(), "ball {ball} k={k}");
            }
        }
    }

    #[test]
    fn fairness_matches_scan_variant() {
        let set = bins(&[800, 700, 600, 500, 400, 300, 200, 100]);
        for k in [2usize, 4] {
            let fast = FastRedundantShare::new(&set, k).unwrap();
            let scan = RedundantShare::new(&set, k).unwrap();
            let balls = 150_000u64;
            let fast_shares = empirical_shares(&fast, balls);
            let scan_shares = empirical_shares(&scan, balls);
            let want = fast.fair_shares();
            for i in 0..set.len() {
                assert!(
                    (fast_shares[i] - want[i]).abs() / want[i] < 0.03,
                    "k={k} bin {i}: fast {:.4} want {:.4}",
                    fast_shares[i],
                    want[i]
                );
                assert!(
                    (fast_shares[i] - scan_shares[i]).abs() / want[i] < 0.04,
                    "k={k} bin {i}: fast {:.4} scan {:.4}",
                    fast_shares[i],
                    scan_shares[i]
                );
            }
        }
    }

    #[test]
    fn saturated_configuration() {
        // (4, 4, 4, 1): the b̂ correction must flow into the last-copy
        // tables too.
        let set = bins(&[400, 400, 400, 100]);
        let strat = FastRedundantShare::new(&set, 2).unwrap();
        let want = strat.fair_shares();
        let got = empirical_shares(&strat, 300_000);
        for i in 0..4 {
            assert!(
                (got[i] - want[i]).abs() / want[i] < 0.03,
                "bin {i}: got {:.4} want {:.4}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn k1_matches_weights() {
        let set = bins(&[300, 200, 100]);
        let strat = FastRedundantShare::new(&set, 1).unwrap();
        let got = empirical_shares(&strat, 120_000);
        for (g, w) in got.iter().zip(strat.fair_shares()) {
            assert!((g - w).abs() / w < 0.03, "got {g} want {w}");
        }
    }

    #[test]
    fn errors() {
        let set = bins(&[10, 10]);
        assert!(FastRedundantShare::new(&set, 0).is_err());
        assert!(FastRedundantShare::new(&set, 3).is_err());
    }
}
