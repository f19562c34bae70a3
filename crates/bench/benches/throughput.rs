//! Scalar and batched placement throughput.
//!
//! Two query paths over the same [`RedundantShare`] strategy:
//!
//! * `scalar` — one [`PlacementStrategy::place_into`] call per ball, the
//!   baseline every caller used before the batch API existed;
//! * `batch` — one [`PlacementStrategy::place_batch_into`] call writing a
//!   flat stride-`k` buffer (no per-ball `Vec`s, no repeated dispatch).
//!
//! Placement is a pure function per ball, so both paths return
//! bit-identical output (the core crate's tests pin that down); the only
//! difference is wall-clock time. Swept over k ∈ {2, 3, 4} and
//! n ∈ {16, 256, 4096} — the O(n) scan makes large-n the interesting
//! regime for batching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rshare_core::{BinId, BinSet, PlacementStrategy, RedundantShare};
use std::hint::black_box;

/// Balls per measured batch.
const BATCH: usize = 1 << 12;

fn heterogeneous(n: usize) -> BinSet {
    BinSet::from_capacities((0..n as u64).map(|i| 500_000 + i * 100_000)).expect("valid bins")
}

fn query_paths(c: &mut Criterion) {
    let balls: Vec<u64> = (0..BATCH as u64).map(|b| b.wrapping_mul(0x9E37)).collect();
    for k in [2usize, 3, 4] {
        let mut group = c.benchmark_group(format!("throughput_k{k}"));
        group.throughput(Throughput::Elements(BATCH as u64));
        for n in [16usize, 256, 4096] {
            let strat = RedundantShare::new(&heterogeneous(n), k).unwrap();
            group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
                let mut group_buf = Vec::with_capacity(k);
                b.iter(|| {
                    for &ball in &balls {
                        strat.place_into(black_box(ball), &mut group_buf);
                        black_box(&group_buf);
                    }
                });
            });
            group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
                let mut out: Vec<BinId> = Vec::with_capacity(BATCH * k);
                b.iter(|| {
                    strat.place_batch_into(black_box(&balls), &mut out);
                    black_box(&out);
                });
            });
        }
        group.finish();
    }
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = query_paths
}
criterion_main!(benches);
