//! The x86-64 SIMD tier: split-nibble `pshufb` GF(256) kernels.
//!
//! A GF(256) product by a fixed coefficient `c` factors over the nibbles
//! of the data byte: `c · x = c · (x & 0x0f) ⊕ c · (x & 0xf0)`, because
//! multiplication distributes over XOR and the two masked parts XOR to
//! `x`. Each factor has only 16 possible values, so two 16-entry tables —
//! `LO[i] = c · i` and `HI[i] = c · (i << 4)`, sliced straight out of the
//! coefficient's 256-byte product row — turn the multiply into two
//! byte-shuffles and a XOR. `pshufb` (`_mm_shuffle_epi8`) performs sixteen
//! such table lookups per instruction; the AVX2 variant
//! (`_mm256_shuffle_epi8`) performs thirty-two, with the tables broadcast
//! into both 128-bit lanes so the per-lane shuffle semantics match.
//!
//! Which width runs is decided once per process with
//! [`is_x86_feature_detected!`] (AVX2 preferred, SSSE3 otherwise) and
//! cached in an atomic; `RSHARE_GF256_KERNEL=avx2|ssse3` pins a specific
//! width through [`force_level`]. On non-x86-64 targets every probe
//! reports unavailable and the dispatcher in [`super`] settles on the
//! table tier instead.
//!
//! This module is the only place in the workspace that uses `unsafe`: the
//! `std::arch` intrinsics require it. Every unsafe block's obligations are
//! discharged locally — feature presence is checked before any
//! `#[target_feature]` function is called, and all pointer arithmetic
//! stays inside the bounds of the argument slices.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set width the SIMD tier runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// 16 bytes per shuffle (`_mm_shuffle_epi8`).
    Ssse3,
    /// 32 bytes per shuffle (`_mm256_shuffle_epi8`).
    Avx2,
}

/// Cached detection result: 0 = not yet probed, 1 = unavailable,
/// 2 = SSSE3, 3 = AVX2.
static LEVEL: AtomicU8 = AtomicU8::new(0);

const LEVEL_NONE: u8 = 1;
const LEVEL_SSSE3: u8 = 2;
const LEVEL_AVX2: u8 = 3;

/// Probes the CPU once and caches the answer. Both racers of a first call
/// compute the same value, so the relaxed store is harmless.
fn level_code() -> u8 {
    match LEVEL.load(Ordering::Relaxed) {
        0 => {
            let code = detect_code();
            LEVEL.store(code, Ordering::Relaxed);
            code
        }
        code => code,
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_code() -> u8 {
    if is_x86_feature_detected!("avx2") {
        LEVEL_AVX2
    } else if is_x86_feature_detected!("ssse3") {
        LEVEL_SSSE3
    } else {
        LEVEL_NONE
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_code() -> u8 {
    LEVEL_NONE
}

/// Whether the SIMD tier can run on this machine.
#[must_use]
pub fn available() -> bool {
    level_code() >= LEVEL_SSSE3
}

/// The width the tier currently runs at, when available.
#[must_use]
pub fn level() -> Option<Level> {
    match level_code() {
        LEVEL_SSSE3 => Some(Level::Ssse3),
        LEVEL_AVX2 => Some(Level::Avx2),
        _ => None,
    }
}

/// Pins the tier to a specific width, returning whether the hardware
/// supports it (AVX2 machines may pin down to SSSE3; the reverse fails
/// and leaves the detected level in place). The
/// `RSHARE_GF256_KERNEL=avx2|ssse3` overrides route through here.
pub fn force_level(want: Level) -> bool {
    let detected = detect_code();
    let code = match want {
        Level::Ssse3 => LEVEL_SSSE3,
        Level::Avx2 => LEVEL_AVX2,
    };
    if detected >= code {
        LEVEL.store(code, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// `acc[i] ^= c · data[i]` through the widest available shuffle kernel.
/// The caller (the dispatcher in [`super`]) has asserted equal lengths
/// and screened out `c ∈ {0, 1}`; if the hardware probe fails after all,
/// the portable table body runs so the call still completes correctly.
#[inline]
pub(super) fn mul_acc(acc: &mut [u8], data: &[u8], c: u8) {
    match level_code() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the detected (or successfully forced) level proves the
        // feature is present on this CPU.
        LEVEL_AVX2 => unsafe { x86::mul_acc_avx2(acc, data, c) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, SSSE3 is present.
        LEVEL_SSSE3 => unsafe { x86::mul_acc_ssse3(acc, data, c) },
        _ => super::mul_acc_table(acc, data, c),
    }
}

/// `acc[i] ^= data[i]` through 32-byte AVX2 XOR rounds when available;
/// XOR gains little from SSSE3 over native `u64` words, so only the AVX2
/// width has a dedicated body.
#[inline]
pub(super) fn xor_acc(acc: &mut [u8], data: &[u8]) {
    match level_code() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the detected (or successfully forced) level proves AVX2
        // is present on this CPU.
        LEVEL_AVX2 => unsafe { x86::xor_acc_avx2(acc, data) },
        _ => super::xor_acc_words(acc, data),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8,
        _mm_srli_epi64, _mm_storeu_si128, _mm_xor_si128,
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

    /// # Safety
    ///
    /// The CPU must support AVX2. `acc` and `data` must be the same
    /// length (asserted by the dispatching caller).
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

    /// # Safety
    ///
    /// The CPU must support SSSE3. `acc` and `data` must be the same
    /// length (asserted by the dispatching caller).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(acc: &mut [u8], data: &[u8], c: u8) {
        let (lo, hi) = nibble_tables(c);
        let n = acc.len().min(data.len());
        let ap = acc.as_mut_ptr();
        let dp = data.as_ptr();
        // SAFETY: every vector load/store covers `[i, i + 16)` with
        // `i + 16 <= n`, inside both slices.
        unsafe {
            let tlo = _mm_loadu_si128(lo.as_ptr().cast::<__m128i>());
            let thi = _mm_loadu_si128(hi.as_ptr().cast::<__m128i>());
            let mask = _mm_set1_epi8(0x0f);
            let mut i = 0usize;
            while i + 16 <= n {
                let d = _mm_loadu_si128(dp.add(i).cast());
                let a = _mm_loadu_si128(ap.add(i).cast());
                let lo_n = _mm_and_si128(d, mask);
                let hi_n = _mm_and_si128(_mm_srli_epi64::<4>(d), mask);
                let product =
                    _mm_xor_si128(_mm_shuffle_epi8(tlo, lo_n), _mm_shuffle_epi8(thi, hi_n));
                _mm_storeu_si128(ap.add(i).cast(), _mm_xor_si128(a, product));
                i += 16;
            }
            tail(acc, data, i, c);
        }
    }

    /// # Safety
    ///
    /// The CPU must support AVX2. `acc` and `data` must be the same
    /// length (asserted by the dispatching caller).
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
    fn detection_is_stable_and_consistent() {
        assert_eq!(available(), level().is_some());
        assert_eq!(level(), level(), "cached probe must not flap");
    }

    #[test]
    fn forcing_respects_hardware() {
        let original = level();
        if force_level(Level::Ssse3) {
            assert_eq!(level(), Some(Level::Ssse3));
            // Restore the wider level if the machine has it.
            if force_level(Level::Avx2) {
                assert_eq!(level(), Some(Level::Avx2));
            }
        } else {
            assert_eq!(level(), None, "failed force leaves detection in place");
        }
        // Leave whatever was detected originally for other tests.
        match original {
            Some(Level::Avx2) => assert!(force_level(Level::Avx2)),
            Some(Level::Ssse3) => assert!(force_level(Level::Ssse3)),
            None => {}
        }
    }

    #[test]
    fn simd_mul_matches_table_on_both_widths() {
        if !available() {
            return; // nothing to compare on this machine
        }
        let original = level().expect("available");
        let data: Vec<u8> = (0..1000).map(|i| (i * 89 + 7) as u8).collect();
        for want in [Level::Ssse3, Level::Avx2] {
            if !force_level(want) {
                continue;
            }
            for c in [2u8, 0x1d, 0x80, 0xff] {
                let mut fast = vec![0x33u8; data.len()];
                let mut slow = fast.clone();
                mul_acc(&mut fast, &data, c);
                super::super::mul_acc_table(&mut slow, &data, c);
                assert_eq!(fast, slow, "width = {want:?} c = {c}");
                let mut xf = vec![0x33u8; data.len()];
                let mut xs = xf.clone();
                xor_acc(&mut xf, &data);
                super::super::xor_acc_words(&mut xs, &data);
                assert_eq!(xf, xs, "xor width = {want:?}");
            }
        }
        assert!(force_level(original));
    }

    #[test]
    fn xor_tail_is_preserved_before_vector_start() {
        // A 33-byte buffer exercises one full AVX2 round plus a tail (or,
        // on SSSE3-only machines, two rounds plus a tail).
        if !available() {
            return;
        }
        let data: Vec<u8> = (0..33).map(|i| i as u8).collect();
        let mut acc = vec![0xFFu8; 33];
        xor_acc(&mut acc, &data);
        for (i, a) in acc.iter().enumerate() {
            assert_eq!(*a, 0xFF ^ (i as u8));
        }
    }
}
