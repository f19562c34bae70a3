//! Property-based tests of the placement invariants.
//!
//! These check, over randomly drawn capacity vectors and replication
//! degrees, the paper's structural guarantees: redundancy (distinct bins),
//! determinism, capacity-adjustment correctness (Lemmas 2.1/2.2),
//! calibration exactness, and monotone adaptivity properties.

use proptest::prelude::*;
use rshare_core::capacity::{is_capacity_efficient, max_balls, optimal_weights};
use rshare_core::{
    Bin, BinSet, FastRedundantShare, PlacementStrategy, RedundantShare, SystematicPps,
    TrivialReplication,
};

/// Strategy for a plausible heterogeneous capacity vector.
fn capacities() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..=2_000, 2..=12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn redundant_share_places_k_distinct_bins(
        caps in capacities(),
        seed in any::<u64>(),
    ) {
        let set = BinSet::from_capacities(caps.clone()).unwrap();
        for k in 1..=set.len().min(5) {
            let strat = RedundantShare::new(&set, k).unwrap();
            for offset in 0..20u64 {
                let ball = seed.wrapping_add(offset);
                let placed = strat.place(ball);
                prop_assert_eq!(placed.len(), k);
                let mut uniq = placed.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), k, "duplicate bin for ball {}", ball);
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_invariants(
        caps in capacities(),
        seed in any::<u64>(),
    ) {
        let set = BinSet::from_capacities(caps.clone()).unwrap();
        let n = set.len();
        let k = (seed as usize % n.min(4)) + 1;
        let strategies: Vec<Box<dyn PlacementStrategy>> = vec![
            Box::new(RedundantShare::new(&set, k).unwrap()),
            Box::new(FastRedundantShare::new(&set, k).unwrap()),
            Box::new(TrivialReplication::new(&set, k).unwrap()),
            Box::new(SystematicPps::new(&set, k).unwrap()),
        ];
        for strat in &strategies {
            for offset in 0..10u64 {
                let ball = seed.wrapping_mul(31).wrapping_add(offset);
                let a = strat.place(ball);
                let b = strat.place(ball);
                prop_assert_eq!(&a, &b, "non-deterministic placement");
                let mut uniq = a.clone();
                uniq.sort();
                uniq.dedup();
                prop_assert_eq!(uniq.len(), k);
                // Every returned id belongs to the system.
                for id in &a {
                    prop_assert!(strat.bin_ids().contains(id));
                }
            }
        }
    }

    #[test]
    fn optimal_weights_satisfy_lemma_2_1(
        caps in capacities(),
        k in 1usize..=5,
    ) {
        let mut sorted = caps.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let k = k.min(sorted.len());
        let w = optimal_weights(&sorted, k);
        // Never grows, never reorders, never hits zero.
        for (orig, adj) in sorted.iter().zip(&w) {
            prop_assert!(*adj <= *orig as f64 + 1e-9);
            prop_assert!(*adj > 0.0);
        }
        for pair in w.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-9);
        }
        // Feasibility after adjustment (Lemma 2.1).
        let total: f64 = w.iter().sum();
        prop_assert!(k as f64 * w[0] <= total + total * 1e-12 + 1e-9);
        // Already-feasible inputs are untouched.
        if is_capacity_efficient(&sorted, k) {
            let untouched: Vec<f64> = sorted.iter().map(|&c| c as f64).collect();
            prop_assert_eq!(w, untouched);
        }
    }

    #[test]
    fn max_balls_is_achievable_and_tight(
        caps in prop::collection::vec(1u64..=60, 2..=8),
        k in 2usize..=4,
    ) {
        let mut sorted = caps.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let k = k.min(sorted.len());
        let m = max_balls(&sorted, k);
        // Lemma 2.1's constructive packing reaches m...
        prop_assert!(rshare_core::capacity::greedy_pack(&sorted, k, m).is_some());
        // ...and the adjusted-capacity bound is no larger than the naive
        // B/k bound.
        let naive = sorted.iter().sum::<u64>() / k as u64;
        prop_assert!(m <= naive);
    }

    #[test]
    fn calibration_residual_is_negligible(
        caps in capacities(),
        k in 1usize..=5,
    ) {
        let set = BinSet::from_capacities(caps).unwrap();
        let k = k.min(set.len());
        let strat = RedundantShare::new(&set, k).unwrap();
        prop_assert!(
            strat.calibration_residual() < 1e-6,
            "residual {}",
            strat.calibration_residual()
        );
        // The analytic expectation matches the fairness target.
        for (e, f) in strat.expected_shares().iter().zip(strat.fair_shares()) {
            prop_assert!((e - f).abs() < 1e-6, "analytic {} vs fair {}", e, f);
        }
    }

    #[test]
    fn insertion_does_not_disturb_scan_prefix_decisions(
        caps in prop::collection::vec(1u64..=1_000, 3..=9),
        extra in 1u64..=1_000,
        seed in any::<u64>(),
    ) {
        // Adaptivity smoke property: adding a bin moves a bounded fraction
        // of copies. We use the generous Lemma 3.5 bound k²·ξ plus
        // statistical slack.
        let set = BinSet::from_capacities(caps.clone()).unwrap();
        let grown = set
            .with_bin(Bin::new(1_000_000u64, extra).unwrap())
            .unwrap();
        let k = 2usize;
        let before = RedundantShare::new(&set, k).unwrap();
        let after = RedundantShare::new(&grown, k).unwrap();
        let balls = 4_000u64;
        let mut moved = 0u64;
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        for i in 0..balls {
            let ball = seed.wrapping_add(i);
            before.place_into(ball, &mut va);
            after.place_into(ball, &mut vb);
            moved += va.iter().zip(&vb).filter(|(x, y)| x != y).count() as u64;
        }
        let total_after: f64 = grown.total_capacity() as f64;
        let xi = extra as f64 / total_after;
        let moved_frac = moved as f64 / (balls * k as u64) as f64;
        // k² bound with slack for weight re-adjustment effects and noise.
        prop_assert!(
            moved_frac <= (k * k) as f64 * xi + 0.35,
            "moved {} of copies for ξ = {}",
            moved_frac,
            xi
        );
    }

    #[test]
    fn batch_matches_scalar(
        caps in capacities(),
        seed in any::<u64>(),
    ) {
        // The batch API is a pure reformulation of the scalar query loop:
        // same placements, bit for bit, in flat stride-k order.
        let set = BinSet::from_capacities(caps).unwrap();
        let k = (seed as usize % set.len().min(4)) + 1;
        let balls: Vec<u64> = (0..600u64)
            .map(|i| seed.wrapping_mul(131).wrapping_add(i))
            .collect();
        let strategies: Vec<Box<dyn PlacementStrategy>> = vec![
            Box::new(RedundantShare::new(&set, k).unwrap()),
            Box::new(FastRedundantShare::new(&set, k).unwrap()),
        ];
        for strat in &strategies {
            let mut expect = Vec::with_capacity(balls.len() * k);
            for &ball in &balls {
                expect.extend(strat.place(ball));
            }
            let mut batch = Vec::new();
            strat.place_batch_into(&balls, &mut batch);
            prop_assert_eq!(&batch, &expect);
        }
    }

    #[test]
    fn batch_reuse_never_reallocates(
        caps in capacities(),
        seed in any::<u64>(),
    ) {
        // Regression: a recycled output buffer with sufficient capacity
        // must never be reallocated, on the first call or on reuse.
        let set = BinSet::from_capacities(caps).unwrap();
        let k = (seed as usize % set.len().min(4)) + 1;
        let strat = RedundantShare::new(&set, k).unwrap();
        let balls: Vec<u64> = (0..700u64).map(|i| seed.wrapping_add(i)).collect();
        let mut out = Vec::with_capacity(balls.len() * k);
        let cap = out.capacity();
        strat.place_batch_into(&balls, &mut out);
        prop_assert_eq!(out.capacity(), cap, "scalar batch reallocated");
        let ptr = out.as_ptr();
        strat.place_batch_into(&balls, &mut out);
        prop_assert_eq!(out.capacity(), cap, "reused batch reallocated");
        prop_assert_eq!(out.as_ptr(), ptr, "reused batch moved the buffer");
    }
}
