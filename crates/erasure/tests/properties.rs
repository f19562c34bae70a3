//! Property-based tests: every code must round-trip arbitrary data through
//! any erasure pattern within its tolerance, and reject patterns beyond it.

use proptest::prelude::*;
use rshare_erasure::gf256::KernelTier;
use rshare_erasure::matrix::Matrix;
use rshare_erasure::{gf256, ArrayCode, ErasureCode, MatrixCode, ReedSolomon};

/// Every tier, most to least specialised. On a CPU without GFNI the
/// `Gfni` entry exercises its documented AVX2 fallback, and on one without
/// AVX2 the `Simd` entry its table fallback — still valid equivalence
/// cases.
const TIERS: [KernelTier; 3] = [KernelTier::Gfni, KernelTier::Simd, KernelTier::Table];

/// Deterministic pseudo-random buffer for kernel inputs.
fn prng_bytes(len: usize, mut state: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Runs encode → erase → reconstruct and checks equality with the original.
fn roundtrip(code: &dyn ErasureCode, data: &[Vec<u8>], lose: &[usize]) {
    let len = data[0].len();
    let mut shards: Vec<Vec<u8>> = data.to_vec();
    shards.extend(std::iter::repeat_with(|| vec![0u8; len]).take(code.parity_shards()));
    code.encode(&mut shards).expect("encode");
    let original = shards.clone();
    let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
    for &i in lose {
        damaged[i] = None;
    }
    code.reconstruct(&mut damaged).expect("reconstruct");
    for (i, (got, want)) in damaged.iter().zip(&original).enumerate() {
        assert_eq!(got.as_ref().unwrap(), want, "shard {i} lose={lose:?}");
    }
}

/// Chains the `splitmix64` finalizer over `shards`, eight bytes at a time
/// (zero-padded), so a digest is stable across runs and platforms.
fn digest(shards: &[Vec<u8>]) -> u64 {
    fn mix(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut h = shards.len() as u64;
    for shard in shards {
        h = mix(h ^ shard.len() as u64);
        for chunk in shard.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix(h ^ u64::from_le_bytes(word));
        }
    }
    h
}

/// The systematic generator `[I_d; 1…1]`: one all-ones parity row.
fn xor_parity_generator(d: usize) -> Matrix {
    let mut generator = Matrix::zero(d + 1, d);
    for j in 0..d {
        generator[(j, j)] = 1;
        generator[(d, j)] = 1;
    }
    generator
}

/// Golden codewords: each code encodes fixed pseudo-random data shards of
/// 1,000 bytes, and the digest of its parity shards must match the value
/// recorded from the original per-code encoders. `encode` and
/// `encode_parity` (into deliberately mis-sized buffers, which it must
/// resize) both produce it, and `reconstruct` restores the codeword from
/// every erasure pattern within the code's tolerance.
#[test]
fn golden_codewords() {
    let cases: Vec<(&str, Box<dyn ErasureCode>, u64)> = vec![
        (
            "RS(4,2)",
            Box::new(ReedSolomon::new(4, 2).unwrap()),
            0x03b0_c580_6785_3ce1,
        ),
        (
            "RS(8,4)",
            Box::new(ReedSolomon::new(8, 4).unwrap()),
            0xbf3b_05bb_eb9a_487a,
        ),
        (
            "LRC(2,2,2)",
            Box::new(MatrixCode::local_reconstruction(2, 2, 2).unwrap()),
            0x8b0a_b539_7cc5_6ba8,
        ),
        (
            "XOR parity over 5",
            Box::new(MatrixCode::new(xor_parity_generator(5), 5, 1).unwrap()),
            0x9b07_6050_f649_5820,
        ),
        (
            "EVENODD(5)",
            Box::new(ArrayCode::evenodd(5).unwrap()),
            0xb9ea_2312_98b4_a49a,
        ),
        (
            "RDP(5)",
            Box::new(ArrayCode::rdp(5).unwrap()),
            0xf92b_d595_3925_64f1,
        ),
    ];
    let len = 1000;
    for (name, code, want) in cases {
        let (d, total) = (code.data_shards(), code.total_shards());
        let data: Vec<Vec<u8>> = (0..d)
            .map(|j| prng_bytes(len, 0x601D_C0DE ^ (j as u64 * 7919)))
            .collect();
        let mut full = data.clone();
        full.extend(std::iter::repeat_n(vec![0u8; len], code.parity_shards()));
        code.encode(&mut full).unwrap();
        assert_eq!(&full[..d], &data[..], "{name}: data shards unchanged");
        assert_eq!(digest(&full[d..]), want, "{name}: encode");

        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0xAB; 3]; code.parity_shards()];
        code.encode_parity(&refs, &mut parity).unwrap();
        assert_eq!(digest(&parity), want, "{name}: encode_parity");
        assert!(code.encode_parity(&refs[1..], &mut parity).is_err());
        let mut short = parity[..code.parity_shards() - 1].to_vec();
        assert!(code.encode_parity(&refs, &mut short).is_err());

        let mut patterns = 0;
        for mask in 0u32..1 << total {
            if mask.count_ones() as usize > code.tolerated_erasures() {
                continue;
            }
            let mut damaged: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for (i, shard) in damaged.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    *shard = None;
                }
            }
            code.reconstruct(&mut damaged)
                .unwrap_or_else(|e| panic!("{name}: mask {mask:#b}: {e}"));
            let restored: Vec<Vec<u8>> = damaged.into_iter().map(Option::unwrap).collect();
            assert!(
                restored == full,
                "{name}: mask {mask:#b} restored wrong bytes"
            );
            patterns += 1;
        }
        assert!(patterns > total, "{name}: {patterns} patterns");
    }
}

/// Picks `count` distinct indices below `total` from a seed.
fn pick_erasures(total: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..total).collect();
    let mut state = seed | 1;
    let mut chosen = Vec::with_capacity(count);
    for _ in 0..count {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let at = (state >> 33) as usize % indices.len();
        chosen.push(indices.swap_remove(at));
    }
    chosen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reed_solomon_roundtrips(
        d in 1usize..=10,
        p in 1usize..=5,
        sz in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let code = ReedSolomon::new(d, p).unwrap();
        let data: Vec<Vec<u8>> = (0..d)
            .map(|i| (0..sz).map(|j| (seed as usize + i * 31 + j * 7) as u8).collect())
            .collect();
        let erasures = pick_erasures(d + p, (seed as usize % (p + 1)).min(p), seed);
        roundtrip(&code, &data, &erasures);
    }

    #[test]
    fn xor_parity_roundtrips(
        d in 1usize..=12,
        sz in 1usize..=64,
        seed in any::<u64>(),
    ) {
        let code = MatrixCode::xor_parity(d).unwrap();
        let data: Vec<Vec<u8>> = (0..d)
            .map(|i| (0..sz).map(|j| (seed as usize ^ (i * 131 + j)) as u8).collect())
            .collect();
        let lost = seed as usize % (d + 1);
        roundtrip(&code, &data, &[lost]);
    }

    #[test]
    fn array_code_roundtrips(
        p_idx in 0usize..5,
        evenodd in any::<bool>(),
        mult in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let p = [3usize, 5, 7, 11, 13][p_idx];
        let code = if evenodd { ArrayCode::evenodd(p) } else { ArrayCode::rdp(p) }.unwrap();
        let sz = (p - 1) * mult;
        let data: Vec<Vec<u8>> = (0..code.data_shards())
            .map(|i| (0..sz).map(|j| (seed as usize + i * 17 + j * 3) as u8).collect())
            .collect();
        let count = seed as usize % 3; // 0, 1 or 2 erasures
        let erasures = pick_erasures(code.total_shards(), count, seed.rotate_left(17));
        roundtrip(&code, &data, &erasures);
    }

    #[test]
    fn lrc_guaranteed_patterns_roundtrip(
        groups in 1usize..=3,
        group_size in 1usize..=3,
        global in 1usize..=2,
        sz in 1usize..=32,
        seed in any::<u64>(),
    ) {
        let code = MatrixCode::local_reconstruction(groups, group_size, global).unwrap();
        let data: Vec<Vec<u8>> = (0..groups * group_size)
            .map(|i| (0..sz).map(|j| (seed as usize ^ (i * 53 + j * 3)) as u8).collect())
            .collect();
        // Any pattern within the guarantee (global + 1 erasures) decodes.
        let count = seed as usize % (global + 2);
        let erasures = pick_erasures(code.total_shards(), count, seed.rotate_left(11));
        roundtrip(&code, &data, &erasures);
    }

    /// Three or more losses are an `Err` that leaves the shards exactly
    /// as they were, in both array-code layouts.
    #[test]
    fn over_budget_erasures_always_rejected(
        p_idx in 0usize..3,
        evenodd in any::<bool>(),
        count in 3usize..=4,
        seed in any::<u64>(),
    ) {
        let p = [3usize, 5, 7][p_idx];
        let code = if evenodd { ArrayCode::evenodd(p) } else { ArrayCode::rdp(p) }.unwrap();
        let total = code.total_shards();
        let mut shards: Vec<Vec<u8>> = (0..total).map(|i| vec![i as u8; p - 1]).collect();
        code.encode(&mut shards).unwrap();
        let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for i in pick_erasures(total, count, seed) {
            damaged[i] = None;
        }
        let before = damaged.clone();
        prop_assert!(code.reconstruct(&mut damaged).is_err());
        prop_assert_eq!(damaged, before);
    }

    // --- Kernel equivalence: the table-driven GF(256) kernels must be ---
    // --- bit-identical to the byte-at-a-time reference implementation. ---

    #[test]
    fn table_mul_acc_matches_bytewise_kernel(
        len in 1usize..=513,
        c in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let c = c as u8;
        let data: Vec<u8> = (0..len)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) >> 24) as u8)
            .collect();
        let mut fast: Vec<u8> = (0..len).map(|i| (seed >> (i % 8)) as u8).collect();
        let mut slow = fast.clone();
        gf256::mul_acc(&mut fast, &data, c);
        gf256::mul_acc_bytewise(&mut slow, &data, c);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn table_kernel_rs_codewords_match_bytewise_encode(
        d in 1usize..=8,
        p in 1usize..=4,
        sz in 1usize..=77,
        seed in any::<u64>(),
    ) {
        // Encode through the production (table-kernel) path…
        let code = ReedSolomon::new(d, p).unwrap();
        let data: Vec<Vec<u8>> = (0..d)
            .map(|i| (0..sz).map(|j| (seed as usize + i * 61 + j * 13) as u8).collect())
            .collect();
        let mut shards = data.clone();
        shards.extend(std::iter::repeat_with(|| vec![0u8; sz]).take(p));
        code.encode(&mut shards).unwrap();
        // …and recompute every parity with the byte-wise reference kernel
        // from the code's generator rows.
        for (row_idx, got) in shards.iter().enumerate().skip(d) {
            let row = code.generator().row(row_idx);
            let mut want = vec![0u8; sz];
            for (j, shard) in data.iter().enumerate() {
                gf256::mul_acc_bytewise(&mut want, shard, row[j]);
            }
            prop_assert_eq!(got, &want, "parity row {}", row_idx);
        }
    }

    // --- Tier equivalence: SIMD and table kernels must be ---------------
    // --- bit-identical to the byte-wise reference on every input shape. -

    /// `mul_acc` across all tiers, at unaligned offsets into a shared
    /// buffer, lengths that are not multiples of any vector width
    /// (including 0), and c drawn from {0, 1, random}.
    #[test]
    fn all_tiers_mul_acc_match_reference(
        len in 0usize..=517,
        offset in 0usize..=31,
        c_kind in 0usize..3,
        c_raw in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let c = match c_kind {
            0 => 0u8,
            1 => 1,
            _ => (c_raw | 2) as u8, // any value; 0/1 already pinned above
        };
        let data = prng_bytes(offset + len, seed);
        let acc0 = prng_bytes(offset + len, seed.rotate_left(13));
        let mut want = acc0[offset..].to_vec();
        gf256::mul_acc_bytewise(&mut want, &data[offset..], c);
        for tier in TIERS {
            let mut got = acc0.clone();
            gf256::mul_acc_with(tier, &mut got[offset..], &data[offset..], c);
            prop_assert_eq!(&got[offset..], &want[..], "tier {:?} c {}", tier, c);
            // Bytes before the offset must be untouched.
            prop_assert_eq!(&got[..offset], &acc0[..offset], "tier {:?} prefix", tier);
        }
    }

    /// `xor_acc` across all tiers at unaligned offsets and ragged lengths.
    #[test]
    fn all_tiers_xor_acc_match_reference(
        len in 0usize..=517,
        offset in 0usize..=31,
        seed in any::<u64>(),
    ) {
        let data = prng_bytes(offset + len, seed);
        let acc0 = prng_bytes(offset + len, seed.rotate_left(29));
        let want: Vec<u8> = acc0[offset..]
            .iter()
            .zip(&data[offset..])
            .map(|(a, d)| a ^ d)
            .collect();
        for tier in TIERS {
            let mut got = acc0.clone();
            gf256::xor_acc_with(tier, &mut got[offset..], &data[offset..]);
            prop_assert_eq!(&got[offset..], &want[..], "tier {:?}", tier);
        }
    }

    /// `mul_rows` (every output row of a linear map in one call) across
    /// all tiers against per-source byte-wise accumulation: 1–12 sources
    /// (beyond one pass of the fused kernel), 1–4 outputs, ragged lengths
    /// up to 4 KiB at unaligned offsets, and coefficient rows mixing 0, 1
    /// and arbitrary values.
    #[test]
    fn all_tiers_mul_rows_match_reference(
        len in 0usize..=4096,
        offset in 0usize..=31,
        nsrc in 1usize..=12,
        nout in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let sources: Vec<Vec<u8>> = (0..nsrc)
            .map(|j| prng_bytes(offset + len, seed.wrapping_add(j as u64 * 977)))
            .collect();
        let sources: Vec<&[u8]> = sources.iter().map(|s| &s[offset..]).collect();
        // A quarter of the coefficients are 0 and a quarter 1, the special
        // cases of the per-row tiers; the rest are arbitrary.
        let coeffs: Vec<u8> = prng_bytes(2 * nout * nsrc, seed ^ 0x5eed)
            .chunks(2)
            .map(|r| match r[0] % 4 {
                0 => 0,
                1 => 1,
                _ => r[1] | 2,
            })
            .collect();
        let want: Vec<Vec<u8>> = coeffs
            .chunks(nsrc)
            .map(|row| {
                let mut out = vec![0u8; len];
                for (s, &c) in sources.iter().zip(row) {
                    gf256::mul_acc_bytewise(&mut out, s, c);
                }
                out
            })
            .collect();
        let garbage = prng_bytes(offset + len, seed.rotate_left(7));
        for tier in TIERS {
            // Outputs start as garbage: the entry overwrites them.
            let mut bufs = vec![garbage.clone(); nout];
            let mut outs: Vec<&mut [u8]> = bufs.iter_mut().map(|b| &mut b[offset..]).collect();
            gf256::mul_rows_with(tier, &mut outs, &sources, &coeffs);
            for (o, (buf, want)) in bufs.iter().zip(&want).enumerate() {
                prop_assert_eq!(&buf[offset..], &want[..], "tier {:?} output {}", tier, o);
                prop_assert_eq!(&buf[..offset], &garbage[..offset], "tier {:?} prefix", tier);
            }
        }
        // The tallied entry agrees with the process's tier.
        let mut got = vec![vec![0u8; len]; nout];
        gf256::mul_rows(&mut got, &sources, &coeffs);
        prop_assert_eq!(got, want);
    }
}
