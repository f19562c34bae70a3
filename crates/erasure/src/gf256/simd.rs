//! The x86-64 SIMD tier: AVX2 split-nibble `vpshufb` GF(256) kernels.
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

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
}
