//! The x86-64 SIMD tiers: AVX2 split-nibble `vpshufb` GF(256) kernels,
//! and the GFNI affine kernel of the multi-row entry.
//!
//! A GF(256) product by a fixed coefficient `c` factors over the nibbles
//! of the data byte: `c · x = c · (x & 0x0f) ⊕ c · (x & 0xf0)`, because
//! multiplication distributes over XOR and the two masked parts XOR to
//! `x`. Each factor has only 16 possible values, so two 16-entry tables —
//! `LO[i] = c · i` and `HI[i] = c · (i << 4)`, sliced straight out of the
//! coefficient's 256-byte product row — turn the multiply into two
//! byte-shuffles and a XOR. `_mm256_shuffle_epi8` performs thirty-two such
//! table lookups per instruction, with the tables broadcast into both
//! 128-bit lanes so the per-lane shuffle semantics match.
//!
//! AVX2 is the one width: [`available`] asks [`is_x86_feature_detected!`]
//! (whose answer std caches), and a CPU without AVX2 — every non-x86-64
//! target among them — runs the portable table tier of [`super`] instead.
//! The kernels here check [`available`] themselves and fall back to the
//! portable bodies, so they are sound whoever calls them.
//!
//! The GFNI kernel of [`super::mul_rows`] is specialised by source count
//! (a const generic up to `GROUP`), so each 32-byte source column stays in
//! a register while every output accumulates from it; a larger `d` runs in
//! groups, the later ones accumulating into what the first stored.
//!
//! [`prefetch`] also lives here, though it is no GF(256) kernel: the
//! storage layer hints the cache lines of the slots a write will fill,
//! and the hint is an `std::arch` intrinsic too.
//!
//! This module is the only place in the workspace that uses `unsafe`: the
//! `std::arch` intrinsics require it. Every unsafe block's obligations are
//! discharged locally — AVX2 is checked before any `#[target_feature]`
//! function is called, and all pointer arithmetic stays inside the bounds
//! of the argument slices.

/// Whether this CPU has AVX2, the width the SIMD tier runs at.
#[must_use]
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU has GFNI beside AVX2: the fused kernel runs
/// `vgf2p8affineqb` on 32-byte registers.
#[must_use]
pub fn gfni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        available() && is_x86_feature_detected!("gfni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Most sources, and most outputs, one pass of the GFNI kernel takes.
const GROUP: usize = 4;
const ROWS: usize = 4;

/// `outs[o] = Σ_s coeffs[o · d + s] · sources[s]` over the whole 32-byte
/// columns of `len`-byte buffers, through the GFNI kernel in passes of up
/// to `ROWS` outputs and `GROUP` sources. Returns the bytes it covered:
/// `len` rounded down to a multiple of 32, or 0 on a CPU without GFNI.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(super) fn mul_rows_gfni<S: AsRef<[u8]>, O: AsMut<[u8]>>(
    outs: &mut [O],
    sources: &[S],
    coeffs: &[u8],
    len: usize,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if gfni_available() {
        let (d, n) = (sources.len(), len & !31);
        for (outs, rows) in outs.chunks_mut(ROWS).zip(coeffs.chunks(ROWS * d)) {
            for (g, group) in sources.chunks(GROUP).enumerate() {
                let mut out_ptrs = [std::ptr::null_mut(); ROWS];
                for (p, out) in out_ptrs.iter_mut().zip(outs.iter_mut()) {
                    let out = out.as_mut();
                    assert!(out.len() >= n, "mul_rows sources and outputs must match");
                    *p = out.as_mut_ptr();
                }
                let mut src_ptrs = [std::ptr::null(); GROUP];
                for (p, src) in src_ptrs.iter_mut().zip(group.iter().map(AsRef::as_ref)) {
                    assert!(src.len() >= n, "mul_rows sources and outputs must match");
                    *p = src.as_ptr();
                }
                let (p, at) = (&out_ptrs[..outs.len()], (d, g * GROUP, n));
                // SAFETY: the probe just proved GFNI and AVX2; each pointer
                // was asserted to reach `n` bytes, and the outputs are
                // distinct `&mut` borrows, so none overlaps another buffer.
                unsafe {
                    match group.len() {
                        1 => x86::rows_gfni::<1>(p, &src_ptrs, rows, at),
                        2 => x86::rows_gfni::<2>(p, &src_ptrs, rows, at),
                        3 => x86::rows_gfni::<3>(p, &src_ptrs, rows, at),
                        _ => x86::rows_gfni::<4>(p, &src_ptrs, rows, at),
                    }
                }
            }
        }
        return n;
    }
    0
}

/// `acc[i] ^= c · data[i]` through the AVX2 shuffle kernel, or the
/// portable table body on a CPU without AVX2.
#[inline]
pub(super) fn mul_acc(acc: &mut [u8], data: &[u8], c: u8) {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: the probe just proved AVX2 is present on this CPU.
        unsafe { x86::mul_acc_avx2(acc, data, c) };
        return;
    }
    super::mul_acc_table(acc, data, c);
}

/// `acc[i] ^= data[i]` through 32-byte AVX2 XOR rounds, or native `u64`
/// words on a CPU without AVX2.
#[inline]
pub(super) fn xor_acc(acc: &mut [u8], data: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: the probe just proved AVX2 is present on this CPU.
        unsafe { x86::xor_acc_avx2(acc, data) };
        return;
    }
    super::xor_acc_words(acc, data);
}

/// Hints the CPU to fetch every 64-byte cache line of `items` into its
/// caches, without waiting for any of them: one `prefetcht0` at the first
/// byte and one at the start of each later line the slice reaches. An
/// access to the slice a little later then finds its lines on the way,
/// and unlike a load, a prefetch holds up no instruction behind it. Any
/// element type is hinted by its bytes: shard slots (`u8`) and
/// block-table rows (`u64`) alike. A no-op off x86-64.
#[inline]
pub fn prefetch<T>(items: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let (first, len) = (items.as_ptr().cast::<u8>(), std::mem::size_of_val(items));
        let start = first as usize;
        let mut offset = 0;
        while offset < len {
            let line = first.wrapping_add(offset).cast::<i8>();
            // SAFETY: a prefetch is a hint that never faults and writes
            // nothing, whatever the address; `offset < len`, the slice's
            // byte length, so every address hinted lies inside the slice
            // anyway. SSE, the instruction's feature, is part of every
            // x86-64 CPU.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line) };
            offset = ((start + offset) | 63) + 1 - start;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = items;
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{GROUP, ROWS};
    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_gf2p8affine_epi64_epi8, _mm256_loadu_si256, _mm256_set1_epi64x, _mm256_set1_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// One pass of the GFNI kernel over `[0, n)`, `n` a multiple of 32:
    /// `outs[o] (^)= Σ_{s < D} rows[o · d + from + s] · srcs[s]`, storing
    /// the sum when `from == 0` and XORing it in otherwise.
    ///
    /// # Safety
    ///
    /// The CPU must support GFNI and AVX2. `srcs[..D]` and every pointer
    /// in `outs` must be valid for `n` bytes, and no output may overlap
    /// another buffer.
    #[target_feature(enable = "gfni,avx2")]
    pub(super) unsafe fn rows_gfni<const D: usize>(
        outs: &[*mut u8],
        srcs: &[*const u8; GROUP],
        rows: &[u8],
        (d, from, n): (usize, usize, usize),
    ) {
        let affine = super::super::affine_table();
        let mut m = [[_mm256_setzero_si256(); D]; ROWS];
        for (m, row) in m.iter_mut().zip(rows.chunks_exact(d)) {
            for (m, &c) in m.iter_mut().zip(&row[from..]) {
                *m = _mm256_set1_epi64x(affine[c as usize] as i64);
            }
        }
        let mut x = [_mm256_setzero_si256(); D];
        let mut i = 0;
        // SAFETY: every load and store covers `[i, i + 32)` with
        // `i + 32 <= n`, inside each buffer by the caller's contract.
        unsafe {
            while i < n {
                for (x, &src) in x.iter_mut().zip(srcs) {
                    *x = _mm256_loadu_si256(src.add(i).cast());
                }
                for (&out, m) in outs.iter().zip(&m) {
                    let mut acc = match from {
                        0 => _mm256_setzero_si256(),
                        _ => _mm256_loadu_si256(out.add(i).cast::<__m256i>()),
                    };
                    for (&x, &m) in x.iter().zip(m) {
                        acc = _mm256_xor_si256(acc, _mm256_gf2p8affine_epi64_epi8::<0>(x, m));
                    }
                    _mm256_storeu_si256(out.add(i).cast(), acc);
                }
                i += 32;
            }
        }
    }

    /// The two 16-entry nibble product tables of a coefficient, sliced
    /// from its [`super::super::mul_row`]: `lo[i] = c · i`,
    /// `hi[i] = c · (i << 4)`.
    #[inline]
    fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
        let row = super::super::mul_row(c);
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for (i, (l, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
            *l = row[i];
            *h = row[i << 4];
        }
        (lo, hi)
    }

    /// Runs over the common prefix of `acc` and `data` (the dispatching
    /// caller asserts they are the same length).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul_acc_avx2(acc: &mut [u8], data: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let n = acc.len().min(data.len());
        let ap = acc.as_mut_ptr();
        let dp = data.as_ptr();
        // SAFETY: the nibble tables are 16-byte stacks read unaligned;
        // every vector load/store below covers `[i, i + 32)` with
        // `i + 32 <= n`, inside both slices.
        unsafe {
            let tlo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast::<__m128i>()));
            let thi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast::<__m128i>()));
            let mask = _mm256_set1_epi8(0x0f);
            let mut i = 0usize;
            while i + 32 <= n {
                let d = _mm256_loadu_si256(dp.add(i).cast());
                let a = _mm256_loadu_si256(ap.add(i).cast());
                let lo_n = _mm256_and_si256(d, mask);
                let hi_n = _mm256_and_si256(_mm256_srli_epi64::<4>(d), mask);
                let product = _mm256_xor_si256(
                    _mm256_shuffle_epi8(tlo, lo_n),
                    _mm256_shuffle_epi8(thi, hi_n),
                );
                _mm256_storeu_si256(ap.add(i).cast(), _mm256_xor_si256(a, product));
                i += 32;
            }
            tail(acc, data, i, c);
        }
    }

    /// Runs over the common prefix of `acc` and `data` (the dispatching
    /// caller asserts they are the same length).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_acc_avx2(acc: &mut [u8], data: &[u8]) {
        let n = acc.len().min(data.len());
        let ap = acc.as_mut_ptr();
        let dp = data.as_ptr();
        let mut i = 0usize;
        // SAFETY: every vector load/store covers `[i, i + 32)` with
        // `i + 32 <= n`, inside both slices.
        unsafe {
            while i + 32 <= n {
                let d = _mm256_loadu_si256(dp.add(i).cast());
                let a = _mm256_loadu_si256(ap.add(i).cast());
                _mm256_storeu_si256(ap.add(i).cast(), _mm256_xor_si256(a, d));
                i += 32;
            }
        }
        for (a, d) in acc[i..n].iter_mut().zip(&data[i..n]) {
            *a ^= d;
        }
    }

    /// Finishes the sub-vector tail `[from, len)` through the
    /// coefficient's product row.
    #[inline(always)]
    fn tail(acc: &mut [u8], data: &[u8], from: usize, c: u8) {
        let row = super::super::mul_row(c);
        for (a, &d) in acc[from..].iter_mut().zip(&data[from..]) {
            *a ^= row[d as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_tail_is_preserved_before_vector_start() {
        // A 33-byte buffer exercises one full AVX2 round plus a tail (the
        // word body on a CPU without AVX2).
        let data: Vec<u8> = (0..33).map(|i| i as u8).collect();
        let mut acc = vec![0xFFu8; 33];
        xor_acc(&mut acc, &data);
        for (i, a) in acc.iter().enumerate() {
            assert_eq!(*a, 0xFF ^ (i as u8));
        }
    }

    #[test]
    fn prefetch_leaves_every_slice_shape_unchanged() {
        let bytes: Vec<u8> = (0..300).map(|i| i as u8).collect();
        let mid_line = 64 - bytes.as_ptr() as usize % 64 + 17;
        assert_eq!(bytes[mid_line..].as_ptr() as usize % 64, 17);
        // Empty, one byte, and a slice that starts 17 bytes into a line
        // and whose 150-byte length is no multiple of 64.
        for slice in [&bytes[..0], &bytes[5..6], &bytes[mid_line..mid_line + 150]] {
            let before = slice.to_vec();
            prefetch(slice);
            assert_eq!(slice, before.as_slice());
        }
        // Wider elements are hinted by their bytes: rows of 3 words.
        let words: Vec<u64> = (0..40).collect();
        for row in [&words[..0], &words[7..10], &words[1..40]] {
            let before = row.to_vec();
            prefetch(row);
            assert_eq!(row, before.as_slice());
        }
    }
}
