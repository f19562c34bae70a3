//! Arithmetic in GF(2⁸) with the Rijndael-compatible polynomial `0x11d`.
//!
//! Addition is XOR; scalar multiplication uses log/exp tables built once at
//! first use. The bulk kernels ([`xor_acc`], [`mul_rows`]) that form the
//! inner loops of every erasure code in this crate run on one of three
//! tiers, and the CPU alone picks which:
//!
//! 1. **GFNI** ([`KernelTier::Gfni`]) — x86-64 `vgf2p8affineqb` multiplies
//!    32 bytes by a coefficient's 8×8 bit matrix in one instruction. It
//!    serves [`mul_rows`]: each 32-byte source column is loaded once and
//!    each output stored once. Runs whenever the CPU has GFNI and AVX2;
//!    [`xor_acc`] and the single-row [`mul_acc_with`] run the AVX2 bodies.
//! 2. **SIMD** ([`KernelTier::Simd`], [`simd`]) — x86-64 AVX2 split-nibble
//!    `vpshufb` kernels: two 16-entry product tables per coefficient, 32
//!    product bytes per shuffle pair, one output row at a time. Runs
//!    whenever the CPU has AVX2 but no GFNI.
//! 3. **Table** ([`KernelTier::Table`]) — a flat 256×256 product table,
//!    sixteen branch-free, bounds-check-free lookups per iteration. The
//!    one portable body: it runs on every CPU without AVX2 (every non-x86
//!    target among them), and it is the tier the SIMD kernels are
//!    property-tested against.
//!
//! All tiers are bit-identical (GF(256) multiplication is exact — the
//! property tests pin this across tiers, offsets and lengths).
//! [`kernel_tier`] is a pure function of the hardware, so the tier never
//! changes inside a process. [`xor_acc`] and [`mul_rows`] are plain
//! dispatches to the explicit-tier entry points ([`xor_acc_with`],
//! [`mul_rows_with`], and the single-row [`mul_acc_with`]) on that tier;
//! the kernels keep no state and count nothing. The explicit-tier entry
//! points reach the slower bodies on a faster host for tests and
//! benchmarks. The byte-at-a-time log/exp kernel survives
//! as [`mul_acc_bytewise`], the reference the property tests and the
//! `bench_e2e` report pin every production kernel against.

/// The irreducible polynomial x⁸ + x⁴ + x³ + x² + 1.
const POLY: u16 = 0x11d;

// The SIMD tier is the one corner of the workspace that needs `unsafe`
// (std::arch intrinsics + #[target_feature], and the cache-line
// `prefetch` the storage layer's commit path uses); the allowance is
// scoped to this module, every unsafe operation must sit in an explicitly
// justified `unsafe {}` block (`unsafe_op_in_unsafe_fn`), and the crate
// root keeps `deny(unsafe_code)` for everything else.
#[allow(unsafe_code)]
#[deny(unsafe_op_in_unsafe_fn)]
pub mod simd;

/// One tier of the bulk-kernel engine, fastest first. See the module docs
/// for what each tier does; [`kernel_tier`] reports the one this CPU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// x86-64 GFNI affine kernel for [`mul_rows`], AVX2 for the rest.
    Gfni,
    /// x86-64 AVX2 `vpshufb` split-nibble kernels, one row at a time.
    Simd,
    /// Flat 256×256 product table, byte at a time.
    Table,
}

impl KernelTier {
    /// The tier's lowercase name (`"gfni"`, `"simd"`, `"table"`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::Gfni => "gfni",
            Self::Simd => "simd",
            Self::Table => "table",
        }
    }
}

/// The tier the bulk kernels run on: [`KernelTier::Gfni`] when the CPU
/// has GFNI and AVX2 ([`simd::gfni_available`]), else [`KernelTier::Simd`]
/// when it has AVX2 ([`simd::available`]), else [`KernelTier::Table`]. A
/// pure function of the hardware (std caches the CPU probe), so every
/// call in a process returns the same tier.
#[must_use]
pub fn kernel_tier() -> KernelTier {
    if simd::gfni_available() {
        KernelTier::Gfni
    } else if simd::available() {
        KernelTier::Simd
    } else {
        KernelTier::Table
    }
}

/// Log/exp tables: `EXP[i] = g^i` (doubled to avoid modular reduction in
/// `mul`), `LOG[x] = log_g x` for x != 0.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

#[allow(clippy::needless_range_loop)] // exp and log are filled in lockstep
fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Flat 256×256 multiplication table: `MUL[c * 256 + d] = c · d`.
///
/// 64 KiB total; any single coefficient's row is 256 bytes and stays
/// resident in L1 for the duration of a shard-sized [`mul_acc_with`] call.
fn mul_table() -> &'static [u8; 65536] {
    use std::sync::OnceLock;
    static MUL: OnceLock<Box<[u8; 65536]>> = OnceLock::new();
    MUL.get_or_init(|| {
        let t = tables();
        let mut m = vec![0u8; 65536].into_boxed_slice();
        for c in 1..256usize {
            let log_c = t.log[c] as usize;
            let row = &mut m[c * 256..(c + 1) * 256];
            for (d, slot) in row.iter_mut().enumerate().skip(1) {
                *slot = t.exp[log_c + t.log[d] as usize];
            }
        }
        m.try_into().expect("exactly 65536 entries")
    })
}

/// The 256-byte product row of a fixed coefficient: `mul_row(c)[d] = c · d`.
///
/// Indexing the returned array with a `u8` cast to `usize` compiles without
/// a bounds check, which is what makes the table-driven [`mul_acc_with`]
/// body branch-free per byte.
#[inline]
#[must_use]
pub fn mul_row(c: u8) -> &'static [u8; 256] {
    let start = c as usize * 256;
    mul_table()[start..start + 256]
        .try_into()
        .expect("row is 256 bytes")
}

/// The 8×8 bit matrix of multiplication by each coefficient, as
/// `vgf2p8affineqb` reads it: bit `j` of byte `7 - i` is bit `i` of `c · 2ʲ`.
fn affine_table() -> &'static [u64; 256] {
    use std::sync::OnceLock;
    static AFFINE: OnceLock<[u64; 256]> = OnceLock::new();
    AFFINE.get_or_init(|| {
        std::array::from_fn(|c| {
            let row = mul_row(c as u8);
            (0..8).fold(0u64, |m, i| {
                let bits = (0..8).fold(0u64, |b, j| b | u64::from(row[1 << j] >> i & 1) << j);
                m | bits << (8 * (7 - i))
            })
        })
    })
}

/// Adds two field elements (XOR).
#[inline]
#[must_use]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
///
/// # Example
///
/// ```
/// use rshare_erasure::gf256;
/// assert_eq!(gf256::mul(0, 7), 0);
/// assert_eq!(gf256::mul(1, 7), 7);
/// // 2 · 0x80 wraps through the reduction polynomial:
/// assert_eq!(gf256::mul(2, 0x80), 0x1d);
/// ```
#[inline]
#[must_use]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// The multiplicative inverse of a non-zero element.
///
/// # Panics
///
/// Panics if `a == 0`; zero has no inverse.
#[inline]
#[must_use]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no multiplicative inverse in GF(256)");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
#[must_use]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Raises `a` to the power `e`.
#[must_use]
pub fn pow(a: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let t = tables();
    let log = u32::from(t.log[a as usize]);
    t.exp[((log * e) % 255) as usize]
}

/// XOR-accumulates `data` into `acc` (`acc[i] ^= data[i]`).
///
/// The lengths are asserted equal once up front; the body then runs
/// word-at-a-time with no per-chunk checks. This is the coefficient-1
/// fast path of [`mul_acc_with`] and the shared kernel behind the XOR-only
/// codes (parity, EVENODD, RDP, LRC local repair). The SIMD tier widens
/// the word to 32 bytes (AVX2); the table tier uses native `u64` words.
///
/// # Panics
///
/// Panics if `acc.len() != data.len()`.
pub fn xor_acc(acc: &mut [u8], data: &[u8]) {
    xor_acc_with(kernel_tier(), acc, data);
}

/// Like [`xor_acc`], but through an explicit tier — the dispatch the
/// equivalence tests and per-tier benchmarks use.
/// [`KernelTier::Gfni`] runs the AVX2 body, and [`KernelTier::Simd`] on
/// a CPU without AVX2 the portable one.
///
/// # Panics
///
/// Panics if `acc.len() != data.len()`.
pub fn xor_acc_with(tier: KernelTier, acc: &mut [u8], data: &[u8]) {
    assert_eq!(acc.len(), data.len(), "xor_acc slices must match");
    match tier {
        KernelTier::Gfni | KernelTier::Simd => simd::xor_acc(acc, data),
        KernelTier::Table => xor_acc_words(acc, data),
    }
}

/// The portable XOR body: native-endian `u64` words, byte-wise tail. One
/// load/xor/store round replaces eight byte rounds.
#[inline(always)]
fn xor_acc_words(acc: &mut [u8], data: &[u8]) {
    let mut a = acc.chunks_exact_mut(8);
    let mut d = data.chunks_exact(8);
    for (aw, dw) in (&mut a).zip(&mut d) {
        let x = u64::from_ne_bytes(aw.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(dw.try_into().expect("8-byte chunk"));
        aw.copy_from_slice(&x.to_ne_bytes());
    }
    for (aw, dw) in a.into_remainder().iter_mut().zip(d.remainder()) {
        *aw ^= dw;
    }
}

/// Multiplies every byte of `data` by the constant `c`, XOR-accumulating
/// into `acc` (`acc[i] ^= c · data[i]`), through an explicit tier: the
/// per-row body of [`mul_rows_with`], and the dispatch the equivalence
/// tests and per-tier benchmarks use.
///
/// `c == 0` is a no-op and `c == 1` takes the [`xor_acc_with`] path.
/// [`KernelTier::Gfni`] runs the AVX2 body, and [`KernelTier::Simd`] on
/// a CPU without AVX2 the table body. The lengths are asserted equal once
/// up front so the tier bodies run without per-chunk checks.
///
/// # Panics
///
/// Panics if `acc.len() != data.len()`.
pub fn mul_acc_with(tier: KernelTier, acc: &mut [u8], data: &[u8], c: u8) {
    assert_eq!(acc.len(), data.len(), "mul_acc slices must match");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_acc_with(tier, acc, data);
        return;
    }
    match tier {
        KernelTier::Gfni | KernelTier::Simd => simd::mul_acc(acc, data, c),
        KernelTier::Table => mul_acc_table(acc, data, c),
    }
}

/// The table multiply body: sixteen product-row lookups per iteration,
/// packed into two independent u64 lanes that are folded into the
/// accumulator with one load/xor/store each — instead of sixteen
/// byte-wide read-modify-writes. The two lanes have no data dependency,
/// so their lookups pipeline; the `u8 -> usize` indexes into a
/// `[u8; 256]` row need no bounds checks, so the loop body is
/// branch-free.
#[inline(always)]
fn mul_acc_table(acc: &mut [u8], data: &[u8], c: u8) {
    let row = mul_row(c);
    let mut a = acc.chunks_exact_mut(16);
    let mut d = data.chunks_exact(16);
    for (aw, dw) in (&mut a).zip(&mut d) {
        let lo = u64::from_ne_bytes([
            row[dw[0] as usize],
            row[dw[1] as usize],
            row[dw[2] as usize],
            row[dw[3] as usize],
            row[dw[4] as usize],
            row[dw[5] as usize],
            row[dw[6] as usize],
            row[dw[7] as usize],
        ]);
        let hi = u64::from_ne_bytes([
            row[dw[8] as usize],
            row[dw[9] as usize],
            row[dw[10] as usize],
            row[dw[11] as usize],
            row[dw[12] as usize],
            row[dw[13] as usize],
            row[dw[14] as usize],
            row[dw[15] as usize],
        ]);
        let x = u64::from_ne_bytes(aw[..8].try_into().expect("8-byte chunk")) ^ lo;
        aw[..8].copy_from_slice(&x.to_ne_bytes());
        let y = u64::from_ne_bytes(aw[8..].try_into().expect("8-byte chunk")) ^ hi;
        aw[8..].copy_from_slice(&y.to_ne_bytes());
    }
    for (aw, &dw) in a.into_remainder().iter_mut().zip(d.remainder()) {
        *aw ^= row[dw as usize];
    }
}

/// Tile width of the per-row path of [`mul_rows_with`]: an output tile
/// stays L1-resident while every source streams through it.
const ACC_TILE: usize = 8 * 1024;

/// Computes every output row of a linear map in one call, on the
/// process's [`KernelTier`]: `outs[o] = Σ_s coeffs[o · d + s] · sources[s]`
/// over the `d` sources, `coeffs` row-major, each output overwritten.
///
/// # Panics
///
/// Panics if there are no sources, if `coeffs` does not hold `d`
/// coefficients per output, or if the buffers' lengths differ.
pub fn mul_rows<S: AsRef<[u8]>, O: AsMut<[u8]>>(outs: &mut [O], sources: &[S], coeffs: &[u8]) {
    mul_rows_with(kernel_tier(), outs, sources, coeffs);
}

/// Like [`mul_rows`], but through an explicit tier.
/// [`KernelTier::Gfni`] runs the fused kernel over every whole 32-byte
/// column; the rest, and everything on the other tiers or on a CPU without
/// GFNI, runs one output at a time: zero it, then apply every source to
/// one 8 KiB tile (`ACC_TILE`) before the next, through [`mul_acc_with`].
///
/// # Panics
///
/// As [`mul_rows`]: the shapes are checked once per call.
pub fn mul_rows_with<S: AsRef<[u8]>, O: AsMut<[u8]>>(
    tier: KernelTier,
    outs: &mut [O],
    sources: &[S],
    coeffs: &[u8],
) {
    let d = sources.len();
    assert!(
        d > 0 && coeffs.len() == outs.len() * d,
        "mul_rows needs one coefficient per source per output"
    );
    let len = sources[0].as_ref().len();
    assert!(
        sources.iter().all(|s| s.as_ref().len() == len)
            && outs.iter_mut().all(|o| o.as_mut().len() == len),
        "mul_rows sources and outputs must match"
    );
    let done = match tier {
        KernelTier::Gfni => simd::mul_rows_gfni(outs, sources, coeffs, len),
        _ => 0,
    };
    for (out, row) in outs.iter_mut().zip(coeffs.chunks_exact(d)) {
        let out = &mut out.as_mut()[done..];
        out.fill(0);
        for start in (0..out.len()).step_by(ACC_TILE) {
            let end = (start + ACC_TILE).min(out.len());
            for (src, &c) in sources.iter().zip(row) {
                let src = &src.as_ref()[done..];
                mul_acc_with(tier, &mut out[start..end], &src[start..end], c);
            }
        }
    }
}

/// The pre-table byte-at-a-time multiply-accumulate: log/exp lookups with
/// a per-byte zero test. Kept as the reference kernel — the property tests
/// pin every tier of [`mul_acc_with`] and [`mul_rows`] against it bit for
/// bit, and `bench_e2e` reports the
/// tiered-kernel speedups over it.
///
/// # Panics
///
/// Panics if `acc.len() != data.len()`.
pub fn mul_acc_bytewise(acc: &mut [u8], data: &[u8], c: u8) {
    assert_eq!(acc.len(), data.len(), "mul_acc slices must match");
    if c == 0 {
        return;
    }
    if c == 1 {
        for (a, d) in acc.iter_mut().zip(data) {
            *a ^= d;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[c as usize] as usize;
    for (a, &d) in acc.iter_mut().zip(data) {
        if d != 0 {
            *a ^= t.exp[log_c + t.log[d as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_exhaustive_samples() {
        // Associativity / commutativity / distributivity on a grid.
        for a in (0u16..256).step_by(7) {
            for b in (0u16..256).step_by(11) {
                let (a, b) = (a as u8, b as u8);
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0u16..256).step_by(29) {
                    let c = c as u8;
                    assert_eq!(mul(a, mul(b, c)), mul(mul(a, b), c));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverses_are_exact() {
        for a in 1u16..256 {
            let a = a as u8;
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    fn identity_and_zero() {
        for a in 0u16..256 {
            let a = a as u8;
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(add(a, 0), a);
            assert_eq!(add(a, a), 0);
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [2u8, 3, 0x53, 0xca] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group for 0x11d.
        let mut seen = std::collections::HashSet::new();
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(seen.insert(x));
            x = mul(x, 2);
        }
        assert_eq!(x, 1);
    }

    #[test]
    fn mul_acc_matches_scalar() {
        let data: Vec<u8> = (0..=255).collect();
        for c in [0u8, 1, 2, 0x1d, 0xff] {
            let mut want = vec![0xAAu8; 256];
            for (w, &d) in want.iter_mut().zip(&data) {
                *w ^= mul(c, d);
            }
            for tier in [KernelTier::Gfni, KernelTier::Simd, KernelTier::Table] {
                let mut acc = vec![0xAAu8; 256];
                mul_acc_with(tier, &mut acc, &data, c);
                assert_eq!(acc, want, "tier = {tier:?} c = {c}");
            }
        }
    }

    #[test]
    fn mul_table_matches_mul_exhaustively() {
        for c in 0u16..256 {
            let row = mul_row(c as u8);
            for d in 0u16..256 {
                assert_eq!(row[d as usize], mul(c as u8, d as u8), "{c} · {d}");
            }
        }
    }

    #[test]
    fn all_tiers_match_bytewise_all_lengths() {
        // Odd lengths exercise both the wide bodies and the tails.
        let tiers = [KernelTier::Gfni, KernelTier::Simd, KernelTier::Table];
        for len in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for c in [0u8, 1, 2, 3, 0x1d, 0x8e, 0xff] {
                let mut slow = vec![0x5Au8; len];
                mul_acc_bytewise(&mut slow, &data, c);
                for tier in tiers {
                    let mut fast = vec![0x5Au8; len];
                    mul_acc_with(tier, &mut fast, &data, c);
                    assert_eq!(fast, slow, "tier = {tier:?} c = {c} len = {len}");
                }
                // The production dispatch agrees on the process's tier: one
                // source into one output, which it overwrites.
                let mut want = vec![0u8; len];
                mul_acc_bytewise(&mut want, &data, c);
                let mut fast = [vec![0x5Au8; len]];
                mul_rows(&mut fast, &[&data], &[c]);
                assert_eq!(fast[0], want, "active tier c = {c} len = {len}");
            }
        }
    }

    #[test]
    fn xor_acc_matches_bytewise() {
        for len in [0usize, 1, 7, 8, 9, 16, 23, 31, 32, 33, 64] {
            let data: Vec<u8> = (0..len).map(|i| (i * 101 + 3) as u8).collect();
            let mut slow = vec![0xA5u8; len];
            for (a, d) in slow.iter_mut().zip(&data) {
                *a ^= d;
            }
            for tier in [KernelTier::Gfni, KernelTier::Simd, KernelTier::Table] {
                let mut fast = vec![0xA5u8; len];
                xor_acc_with(tier, &mut fast, &data);
                assert_eq!(fast, slow, "tier = {tier:?} len = {len}");
            }
            let mut fast = vec![0xA5u8; len];
            xor_acc(&mut fast, &data);
            assert_eq!(fast, slow, "len = {len}");
        }
    }

    #[test]
    fn mul_rows_matches_per_source_passes() {
        // Lengths straddling the tile boundary, including non-multiples.
        for len in [
            0usize,
            1,
            100,
            ACC_TILE - 1,
            ACC_TILE,
            ACC_TILE + 37,
            3 * ACC_TILE + 5,
        ] {
            let sources: Vec<Vec<u8>> = (0..4u8)
                .map(|s| (0..len).map(|i| (i * 31 + s as usize * 7) as u8).collect())
                .collect();
            let coeffs = [0u8, 1, 0x1d, 0x8e, 3, 0, 1, 0xff];
            let flat: Vec<Vec<u8>> = coeffs
                .chunks(4)
                .map(|row| {
                    let mut out = vec![0u8; len];
                    for (s, &c) in sources.iter().zip(row) {
                        mul_acc_bytewise(&mut out, s, c);
                    }
                    out
                })
                .collect();
            let mut fused = vec![vec![0xA5u8; len]; 2];
            mul_rows(&mut fused, &sources, &coeffs);
            assert_eq!(fused, flat, "len = {len}");
            for tier in [KernelTier::Gfni, KernelTier::Simd, KernelTier::Table] {
                let mut tiered = vec![vec![0xA5u8; len]; 2];
                mul_rows_with(tier, &mut tiered, &sources, &coeffs);
                assert_eq!(tiered, flat, "tier = {tier:?} len = {len}");
            }
        }
    }

    #[test]
    fn affine_matrices_reproduce_the_product_rows() {
        // Evaluates each matrix as `vgf2p8affineqb` does: output bit `i`
        // is the parity of byte `7 - i` ANDed with the input.
        for c in 0u16..256 {
            let m = affine_table()[c as usize];
            for x in 0u16..256 {
                let y = (0..8).fold(0u8, |y, i| {
                    let row = (m >> (8 * (7 - i))) as u8;
                    y | (((row & x as u8).count_ones() & 1) as u8) << i
                });
                assert_eq!(y, mul_row(c as u8)[x as usize], "{c} · {x}");
            }
        }
        // The same through the instruction, where the CPU has it: one
        // source of every byte value, one output per coefficient.
        let all: Vec<u8> = (0..=255).collect();
        let coeffs: Vec<u8> = (0..=255).collect();
        let mut outs = vec![vec![0u8; 256]; 256];
        mul_rows_with(KernelTier::Gfni, &mut outs, &[&all], &coeffs);
        for (c, out) in outs.iter().enumerate() {
            assert_eq!(out[..], mul_row(c as u8)[..], "c = {c}");
        }
    }

    #[test]
    fn kernel_tier_follows_the_hardware() {
        let want = if simd::gfni_available() {
            KernelTier::Gfni
        } else if simd::available() {
            KernelTier::Simd
        } else {
            KernelTier::Table
        };
        assert_eq!(kernel_tier(), want);
        assert_eq!(kernel_tier().name(), want.name());
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inv_zero_panics() {
        let _ = inv(0);
    }

    #[test]
    #[should_panic(expected = "mul_acc slices must match")]
    fn mul_acc_length_mismatch_panics() {
        let mut acc = [0u8; 4];
        mul_acc_with(kernel_tier(), &mut acc, &[0u8; 5], 3);
    }

    #[test]
    #[should_panic(expected = "mul_acc slices must match")]
    fn mul_acc_bytewise_length_mismatch_panics() {
        let mut acc = [0u8; 4];
        mul_acc_bytewise(&mut acc, &[0u8; 5], 3);
    }

    #[test]
    #[should_panic(expected = "one coefficient per source per output")]
    fn mul_rows_short_coeffs_panics() {
        let mut outs = [[0u8; 4]];
        mul_rows(&mut outs, &[[1u8; 4], [2u8; 4]], &[3]);
    }

    #[test]
    #[should_panic(expected = "one coefficient per source per output")]
    fn mul_rows_without_sources_panics() {
        let mut outs = [[0u8; 4]];
        mul_rows::<[u8; 4], _>(&mut outs, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "mul_rows sources and outputs must match")]
    fn mul_rows_long_output_panics() {
        let mut outs = [[0u8; 5]];
        mul_rows(&mut outs, &[&[1u8; 4][..]], &[3]);
    }

    #[test]
    #[should_panic(expected = "mul_rows sources and outputs must match")]
    fn mul_rows_with_short_source_panics() {
        let mut outs = [[0u8; 4]];
        mul_rows_with(
            KernelTier::Gfni,
            &mut outs,
            &[&[1u8; 4][..], &[1u8; 3][..]],
            &[3, 1],
        );
    }
}
