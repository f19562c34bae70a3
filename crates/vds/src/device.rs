//! Simulated block storage devices: each is a slab of fixed-size shard
//! slots, addressed by the slot numbers that the cluster's block-table
//! rows record.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::profile::DeviceProfile;

/// Operational state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Serving reads and writes.
    Online,
    /// Crashed: contents are gone, I/O is rejected.
    Failed,
}

/// Per-device I/O counters. Every shard a device stores is one slot long,
/// so the byte and busy-time fields follow from the two op counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of shard reads served.
    pub reads: u64,
    /// Number of shard writes stored.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Simulated time spent serving I/O, in microseconds (see
    /// [`DeviceProfile`]).
    pub busy_us: u64,
}

/// Relaxed-ordering atomic op counters, so serving a read needs only
/// `&self` — the counters are independent tallies, not synchronisation.
/// [`Device::stats`] derives the rest, so a shard read or write pays one
/// atomic add.
#[derive(Debug, Default)]
struct AtomicIoStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Bytes per slab chunk (rounded down to a power-of-two slot count; one
/// slot per chunk for shards larger than this). Small enough that the
/// allocator serves chunks from its heap instead of mapping (and, on
/// free, unmapping) each one separately.
const CHUNK_BYTES: usize = 4096;

/// Fixed-length shard slots in chunks that are never reallocated; slot
/// `s` lives in chunk `s >> shift` at offset `(s & mask) * shard_len`.
#[derive(Debug)]
struct Slab {
    shard_len: usize,
    /// log2 of the slots per chunk.
    shift: u32,
    chunks: Vec<Box<[u8]>>,
    /// Released slots, reused before the slab grows.
    free: Vec<u32>,
    /// Slots handed out from the chunks so far (the high-water mark).
    next: u32,
}

impl Slab {
    fn new(shard_len: usize) -> Self {
        Self {
            shard_len,
            shift: (CHUNK_BYTES / shard_len).max(1).ilog2(),
            chunks: Vec::new(),
            free: Vec::new(),
            next: 0,
        }
    }

    /// A free slot, or `None` once 2^32 − 1 slots are in use (a row word
    /// stores `slot + 1` in 32 bits).
    fn alloc(&mut self) -> Option<u32> {
        if let Some(slot) = self.free.pop() {
            return Some(slot);
        }
        if self.next == u32::MAX {
            return None;
        }
        let slot = self.next;
        if (slot >> self.shift) as usize == self.chunks.len() {
            self.chunks
                .push(vec![0; self.shard_len << self.shift].into_boxed_slice());
        }
        self.next += 1;
        Some(slot)
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    fn offset(&self, slot: u32) -> usize {
        (slot as usize & ((1 << self.shift) - 1)) * self.shard_len
    }

    fn get(&self, slot: u32) -> &[u8] {
        let off = self.offset(slot);
        &self.chunks[(slot >> self.shift) as usize][off..off + self.shard_len]
    }

    fn get_mut(&mut self, slot: u32) -> &mut [u8] {
        let off = self.offset(slot);
        &mut self.chunks[(slot >> self.shift) as usize][off..off + self.shard_len]
    }
}

/// A simulated storage device: a slab of fixed-size shard slots.
///
/// Every shard on a device has the same length (the cluster's
/// `block_size / d`, or `block_size` for mirrors) and lives in a slot of
/// the slab. The device does not know which shard a slot holds: the
/// cluster's block-table rows name their shards' slots, so the device only
/// hands slots out, copies bytes in and out of them and takes them back.
/// It tracks I/O statistics and can be failed (losing all contents) to
/// drive rebuild experiments. Reads take `&self`: slot contents are
/// immutable between writes and the I/O counters are atomic, so
/// concurrent readers need no exclusive access.
#[derive(Debug)]
pub struct Device {
    id: u64,
    capacity_blocks: u64,
    state: DeviceState,
    slab: Slab,
    stats: AtomicIoStats,
    profile: DeviceProfile,
}

impl Device {
    /// Creates an online device able to hold `capacity_blocks` shards of
    /// `shard_len` bytes.
    #[cfg(test)]
    pub(crate) fn new(id: u64, capacity_blocks: u64, shard_len: usize) -> Self {
        Self::with_profile(id, capacity_blocks, shard_len, DeviceProfile::default())
    }

    /// Creates an online device with an explicit performance profile.
    pub(crate) fn with_profile(
        id: u64,
        capacity_blocks: u64,
        shard_len: usize,
        profile: DeviceProfile,
    ) -> Self {
        Self {
            id,
            capacity_blocks,
            state: DeviceState::Online,
            slab: Slab::new(shard_len),
            stats: AtomicIoStats::default(),
            profile,
        }
    }

    /// The device's performance profile.
    #[must_use]
    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    /// The device identifier (also its placement name).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Capacity in shard blocks.
    #[must_use]
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Number of shards currently stored: the slab's live slots.
    #[must_use]
    pub fn used_blocks(&self) -> u64 {
        u64::from(self.slab.next) - self.slab.free.len() as u64
    }

    /// Utilisation in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.used_blocks() as f64 / self.capacity_blocks as f64
    }

    /// Current operational state.
    #[must_use]
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// A consistent-enough snapshot of the I/O counters.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        let reads = self.stats.reads.load(Ordering::Relaxed);
        let writes = self.stats.writes.load(Ordering::Relaxed);
        let len = self.slab.shard_len as u64;
        IoStats {
            reads,
            writes,
            bytes_read: reads * len,
            bytes_written: writes * len,
            busy_us: (reads + writes) * self.profile.service_us(self.slab.shard_len),
        }
    }

    /// Marks the device failed and frees its slab.
    pub(crate) fn fail(&mut self) {
        self.state = DeviceState::Failed;
        self.slab = Slab::new(self.slab.shard_len);
    }

    /// A free slot, or `None` on a failed device. Capacity is the
    /// cluster's to check, net of the slots a commit releases.
    pub(crate) fn alloc(&mut self) -> Option<u32> {
        if self.state == DeviceState::Failed {
            return None;
        }
        self.slab.alloc()
    }

    /// Loads the first byte of `slot`, which [`Device::alloc`] handed
    /// out, so the slot's address lookup and first cache miss are under
    /// way before [`Device::warm`] reads it through.
    pub(crate) fn touch(&self, slot: u32) {
        black_box(self.slab.get(slot)[0]);
    }

    /// Loads one byte of every 64-byte cache line of `slot`, front to back
    /// (its last byte covers a line the slot starts partway into), so a
    /// write to the slot a little later finds its lines fetched. The
    /// bytes are folded into one value, so the loads cost few
    /// instructions and many can be in flight at once.
    pub(crate) fn warm(&self, slot: u32) {
        let bytes = self.slab.get(slot);
        let mut fold = bytes[bytes.len() - 1];
        for &byte in bytes.iter().step_by(64) {
            fold ^= byte;
        }
        black_box(fold);
    }

    /// Copies one shard into `slot`, which [`Device::alloc`] handed out.
    pub(crate) fn write(&mut self, slot: u32, data: &[u8]) {
        self.slab.get_mut(slot).copy_from_slice(data);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the shard in `slot` into `out` (one shard long) and counts
    /// the read. Returns `false`, touching neither `out` nor the counters,
    /// when the device is failed.
    pub(crate) fn read_into(&self, slot: u32, out: &mut [u8]) -> bool {
        if self.state == DeviceState::Failed {
            return false;
        }
        out.copy_from_slice(self.slab.get(slot));
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Frees `slot` for reuse; a no-op on a failed device, whose slab is
    /// already gone.
    pub(crate) fn release(&mut self, slot: u32) {
        if self.state == DeviceState::Online {
            self.slab.release(slot);
        }
    }

    /// Clears the I/O counters (e.g. between workload phases).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = AtomicIoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    impl Device {
        /// Slots the slab has handed out from its chunks: its high-water
        /// mark.
        pub(crate) fn high_water(&self) -> u32 {
            self.slab.next
        }
    }

    /// Allocates a slot and writes `data` into it.
    fn put(d: &mut Device, data: &[u8]) -> u32 {
        let slot = d.alloc().expect("online device");
        d.write(slot, data);
        slot
    }

    fn get(d: &Device, slot: u32, len: usize) -> Option<Vec<u8>> {
        let mut out = vec![0; len];
        d.read_into(slot, &mut out).then_some(out)
    }

    #[test]
    fn failure_drops_contents_and_rejects_io() {
        let mut d = Device::new(7, 4, 3);
        let slot = put(&mut d, &[1, 2, 3]);
        d.fail();
        assert_eq!(d.state(), DeviceState::Failed);
        assert_eq!(get(&d, slot, 3), None);
        assert_eq!(d.used_blocks(), 0);
        assert!(d.slab.chunks.is_empty(), "fail frees the slab");
        assert_eq!(d.alloc(), None);
        d.release(slot);
        assert!(d.slab.free.is_empty(), "a failed device takes nothing back");
    }

    #[test]
    fn slots_span_chunks() {
        let len = CHUNK_BYTES / 2 + 1; // one slot per chunk
        let mut d = Device::new(1, 8, len);
        let slots: Vec<u32> = (0..5u8).map(|b| put(&mut d, &vec![b; len])).collect();
        assert_eq!(d.slab.chunks.len(), 5);
        for (b, &slot) in slots.iter().enumerate() {
            assert_eq!(get(&d, slot, len), Some(vec![b as u8; len]));
        }
        let mut d = Device::new(1, 1_000, 64);
        let slots: Vec<u32> = (0..200u8).map(|b| put(&mut d, &[b; 64])).collect();
        assert_eq!(d.slab.chunks.len(), 200usize.div_ceil(CHUNK_BYTES / 64));
        for (b, &slot) in slots.iter().enumerate() {
            assert_eq!(get(&d, slot, 64), Some(vec![b as u8; 64]));
        }
    }

    #[test]
    fn stats_track_io() {
        let mut d = Device::new(2, 10, 16);
        let slot = put(&mut d, &[0; 16]);
        put(&mut d, &[0; 16]);
        let _ = get(&d, slot, 16);
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 32);
        assert_eq!(s.bytes_read, 16);
        assert!((d.utilization() - 0.2).abs() < 1e-12);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(u8),
        Write(usize, u8),
        ReadInto(usize),
        Release(usize),
        Fail,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Slot picks index the model's live slots (modulo their count).
        (0u8..22, 0usize..64, any::<u8>()).prop_map(|(pick, i, b)| match pick {
            0..=7 => Op::Alloc(b),
            8..=10 => Op::Write(i, b),
            11..=15 => Op::ReadInto(i),
            16..=20 => Op::Release(i),
            _ => Op::Fail,
        })
    }

    const LEN: usize = 5;

    fn shard_bytes(b: u8) -> [u8; LEN] {
        std::array::from_fn(|i| b.wrapping_add(i as u8))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random slot operations against a map model of the live slots:
        /// contents, failure and counters agree, a released slot is handed
        /// out again, and the slab grows only when no released slot is
        /// free (its high-water mark equals the model's peak occupancy).
        #[test]
        fn device_matches_a_map_model(ops in proptest::collection::vec(op(), 1..300)) {
            let mut d = Device::new(9, 30, LEN);
            let mut model: BTreeMap<u32, u8> = BTreeMap::new();
            let mut failed = false;
            let mut peak = 0usize;
            let mut reads = 0u64;
            let live = |model: &BTreeMap<u32, u8>, i: usize| {
                model.keys().nth(i % model.len().max(1)).copied()
            };
            for op in ops {
                match op {
                    Op::Alloc(b) => match d.alloc() {
                        None => prop_assert!(failed),
                        Some(slot) => {
                            prop_assert!(!failed);
                            prop_assert!(!model.contains_key(&slot), "slot {} is live", slot);
                            d.write(slot, &shard_bytes(b));
                            model.insert(slot, b);
                        }
                    },
                    Op::Write(i, b) => {
                        if let Some(slot) = live(&model, i) {
                            d.write(slot, &shard_bytes(b));
                            model.insert(slot, b);
                        }
                    }
                    Op::ReadInto(i) => {
                        if let Some(slot) = live(&model, i) {
                            let mut buf = [0xEE; LEN];
                            prop_assert!(d.read_into(slot, &mut buf));
                            prop_assert_eq!(buf, shard_bytes(model[&slot]));
                            reads += 1;
                        }
                    }
                    Op::Release(i) => {
                        if let Some(slot) = live(&model, i) {
                            d.release(slot);
                            model.remove(&slot);
                        }
                    }
                    Op::Fail => {
                        d.fail();
                        model.clear();
                        failed = true;
                        peak = 0;
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(d.used_blocks(), model.len() as u64);
                prop_assert_eq!(d.slab.next as usize, peak);
                prop_assert_eq!(d.stats().reads, reads);
            }
        }

        /// The byte and busy-time fields `stats()` derives equal the
        /// running sums of every read's and write's length and service
        /// time, for any shard length and profile.
        #[test]
        fn derived_counters_match_running_sums(
            len in 1usize..6000,
            per_op_us in 0u32..10_000,
            mbytes_per_s in 1u32..5_000,
            ops in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let profile = DeviceProfile::new(per_op_us, mbytes_per_s);
            let mut d = Device::with_profile(3, 1_000, len, profile);
            let slot = put(&mut d, &vec![7; len]);
            let mut want = IoStats {
                writes: 1,
                bytes_written: len as u64,
                busy_us: profile.service_us(len),
                ..IoStats::default()
            };
            let mut buf = vec![0; len];
            for write in ops {
                if write {
                    d.write(slot, &buf);
                    want.writes += 1;
                    want.bytes_written += len as u64;
                } else {
                    prop_assert!(d.read_into(slot, &mut buf));
                    want.reads += 1;
                    want.bytes_read += len as u64;
                }
                want.busy_us += profile.service_us(len);
                prop_assert_eq!(d.stats(), want);
            }
        }
    }
}
