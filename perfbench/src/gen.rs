//! The load generator: seeded randomness, block addresses, block contents
//! and request distributions. Nothing here is timed.

/// A SplitMix64 stream: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix(seed ^ 0x5EED_0FBE_4C00_u64))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const LBA_MASK: u64 = (1 << 48) - 1;

/// The block addresses of a workload: `count` distinct 48-bit addresses
/// scattered by the seed. `i ↦ i·odd + c (mod 2^48)` is a bijection, so
/// distinct indices never collide.
pub fn block_addresses(seed: u64, count: usize) -> Vec<u64> {
    let offset = mix(seed);
    (0..count as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(offset) & LBA_MASK)
        .collect()
}

/// Fills `buf` with the contents of version `version` of block `lba`: a
/// pseudo-random stream keyed by all three inputs, so any stale, torn or
/// misplaced byte shows up when a read is compared against the model.
/// `buf.len()` must be a multiple of 8.
pub fn fill_block(seed: u64, lba: u64, version: u32, buf: &mut [u8]) {
    let mut state = mix(seed ^ lba.rotate_left(17) ^ (u64::from(version) << 1));
    for word in buf.chunks_exact_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        word.copy_from_slice(&mix(state).to_le_bytes());
    }
}

/// Zipf(s) over `0..n`: rank `r` is drawn with probability ∝ `1/(r+1)^s`,
/// by binary search in the precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One client request, naming blocks by their index into the workload's
/// address list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `read_block_into` of one block.
    Read(u32),
    /// `write_block` of one block.
    Write(u32),
    /// `write_blocks` of the run of blocks starting at this index.
    WriteRun(u32),
}
