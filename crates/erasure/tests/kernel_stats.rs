//! The kernel tallies of a Reed–Solomon encode and decode, exactly.
//!
//! The tallies are process-wide, so this file holds one test: no other
//! test in its process drives a kernel between the snapshots.

use rshare_erasure::gf256::{self, KernelStats, KernelTier};
use rshare_erasure::{ErasureCode, MatrixCode, ReedSolomon};

/// The delta of the tallies across `f`.
fn delta(f: impl FnOnce()) -> KernelStats {
    let before = gf256::kernel_stats();
    f();
    let after = gf256::kernel_stats();
    KernelStats {
        xor_bytes: after.xor_bytes - before.xor_bytes,
        mul_bytes: after.mul_bytes - before.mul_bytes,
        simd_bytes: after.simd_bytes - before.simd_bytes,
        calls: after.calls - before.calls,
    }
}

/// What a tally of `xor_bytes` and `mul_bytes` reads on this CPU.
fn stats(xor_bytes: u64, mul_bytes: u64, calls: u64) -> KernelStats {
    let simd_bytes = match gf256::kernel_tier() {
        KernelTier::Gfni | KernelTier::Simd => mul_bytes,
        KernelTier::Table => 0,
    };
    KernelStats {
        xor_bytes,
        mul_bytes,
        simd_bytes,
        calls,
    }
}

#[test]
fn encode_and_decode_tally_one_pass_per_live_coefficient() {
    const LEN: u64 = 1000;
    let sample = |n: u64| -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..LEN).map(|j| (i * 89 + j * 13 + 1) as u8).collect())
            .collect()
    };
    // RS(4, 2)'s two parity rows hold eight coefficients ≥ 2: eight
    // multiply passes of every byte.
    let rs = ReedSolomon::new(4, 2).unwrap();
    let mut shards = sample(6);
    let encode = delta(|| rs.encode(&mut shards).unwrap());
    assert_eq!(encode, stats(0, 8 * LEN, 8));
    // Losing data shard 1 and parity shard 4 decodes the data shard from
    // four survivors, then re-encodes the parity from the completed data.
    let mut damaged: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
    damaged[1] = None;
    damaged[4] = None;
    let decode = delta(|| rs.reconstruct(&mut damaged).unwrap());
    assert_eq!(decode, stats(0, 8 * LEN, 8));
    let rebuilt: Vec<Vec<u8>> = damaged.into_iter().map(Option::unwrap).collect();
    assert_eq!(rebuilt, shards);
    // An LRC of two groups of two and one global parity: the local rows
    // are [1 1 0 0] and [0 0 1 1], the global row [1 c c c] with c ≥ 2,
    // so five XOR passes, three multiply passes and no pass for a zero.
    let lrc = MatrixCode::local_reconstruction(2, 2, 1).unwrap();
    let mut shards = sample(7);
    let encode = delta(|| lrc.encode(&mut shards).unwrap());
    assert_eq!(encode, stats(5 * LEN, 3 * LEN, 8));
}
