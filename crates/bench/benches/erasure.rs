//! Erasure-code throughput: encode and double-erasure reconstruction for
//! every code the storage layer can place with Redundant Share.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rshare_erasure::{ErasureCode, EvenOdd, MatrixCode, Rdp, ReedSolomon};
use std::hint::black_box;

const SHARD: usize = 4096; // one 4 KiB shard per device

fn codes() -> Vec<(&'static str, Box<dyn ErasureCode>)> {
    vec![
        (
            "xor_parity_d4",
            Box::new(MatrixCode::xor_parity(4).unwrap()),
        ),
        ("evenodd_p5", Box::new(EvenOdd::new(5).unwrap())),
        ("rdp_p5", Box::new(Rdp::new(5).unwrap())),
        (
            "reed_solomon_4_2",
            Box::new(ReedSolomon::new(4, 2).unwrap()),
        ),
        (
            "lrc_2x2_g2",
            Box::new(MatrixCode::local_reconstruction(2, 2, 2).unwrap()),
        ),
    ]
}

fn shards_for(code: &dyn ErasureCode) -> Vec<Vec<u8>> {
    // Round the shard size up to the code's symbol multiple.
    let mult = code.shard_multiple();
    let len = SHARD.div_ceil(mult) * mult;
    (0..code.total_shards())
        .map(|i| (0..len).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
        .collect()
}

fn encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure_encode");
    for (name, code) in codes() {
        let mut shards = shards_for(code.as_ref());
        let data_bytes = (code.data_shards() * shards[0].len()) as u64;
        group.throughput(Throughput::Bytes(data_bytes));
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                code.encode(black_box(&mut shards)).unwrap();
            });
        });
    }
    group.finish();
}

fn reconstruct_two(c: &mut Criterion) {
    let mut group = c.benchmark_group("erasure_reconstruct_2_losses");
    for (name, code) in codes() {
        if code.tolerated_erasures() < 2 {
            continue;
        }
        let mut shards = shards_for(code.as_ref());
        code.encode(&mut shards).unwrap();
        let data_bytes = (code.data_shards() * shards[0].len()) as u64;
        group.throughput(Throughput::Bytes(data_bytes));
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter_batched(
                || {
                    let mut damaged: Vec<Option<Vec<u8>>> =
                        shards.iter().cloned().map(Some).collect();
                    damaged[0] = None;
                    damaged[2] = None;
                    damaged
                },
                |mut damaged| {
                    code.reconstruct(black_box(&mut damaged)).unwrap();
                    black_box(&damaged);
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = encode, reconstruct_two
}
criterion_main!(benches);
