//! Simulated block storage devices.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::VdsError;
use crate::profile::DeviceProfile;
use crate::table::Table;

/// Identifies one shard of one redundancy group on a device.
pub(crate) type ShardKey = (u64, usize); // (logical block address, shard index)

/// Operational state of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Serving reads and writes.
    Online,
    /// Crashed: contents are gone, I/O is rejected.
    Failed,
}

/// Per-device I/O counters.
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

/// Relaxed-ordering atomic I/O counters, so serving a read needs only
/// `&self` — the counters are independent tallies, not synchronisation.
#[derive(Debug, Default)]
struct AtomicIoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    busy_us: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            busy_us: self.busy_us.load(Ordering::Relaxed),
        }
    }
}

/// Bytes per slab chunk (rounded down to a power-of-two slot count; one
/// slot per chunk for shards larger than this). Small enough that the
/// allocator serves chunks from its heap instead of mapping (and, on
/// free, unmapping) each one separately.
const CHUNK_BYTES: usize = 4096;

/// Fixed-length shard slots in chunks that are never reallocated; slot
/// `s` lives in chunk `s >> shift` at offset `(s & mask) * shard_len`.
#[derive(Debug, Clone)]
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

    /// A free slot, or `None` once 2^32 − 1 slots are in use (the index
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

/// Index word 1 of a stored shard: the shard index in the high half,
/// `slot + 1` (never zero, so the row reads as occupied) in the low half.
fn slot_word(shard: usize, slot: u32) -> u64 {
    assert!(u32::try_from(shard).is_ok(), "shard index fits 32 bits");
    ((shard as u64) << 32) | (u64::from(slot) + 1)
}

fn slot_of(word: u64) -> u32 {
    (word as u32) - 1
}

/// A simulated storage device holding shards of redundancy groups.
///
/// Every shard on a device has the same length (the cluster's
/// `block_size / d`, or `block_size` for mirrors) and lives in a
/// fixed-size slot of a slab; an open-addressed index maps
/// `(lba, shard)` to its slot. The device enforces its block capacity,
/// tracks I/O statistics and can be failed (losing all contents) to drive
/// rebuild experiments. Reads take `&self`: shard contents are immutable
/// between writes and the I/O counters are atomic, so concurrent readers
/// need no exclusive access.
#[derive(Debug)]
pub struct Device {
    id: u64,
    capacity_blocks: u64,
    state: DeviceState,
    /// Rows `[lba, slot_word(shard, slot)]`.
    index: Table,
    slab: Slab,
    stats: AtomicIoStats,
    profile: DeviceProfile,
}

impl Clone for Device {
    fn clone(&self) -> Self {
        let s = self.stats.snapshot();
        Self {
            id: self.id,
            capacity_blocks: self.capacity_blocks,
            state: self.state,
            index: self.index.clone(),
            slab: self.slab.clone(),
            stats: AtomicIoStats {
                reads: AtomicU64::new(s.reads),
                writes: AtomicU64::new(s.writes),
                bytes_read: AtomicU64::new(s.bytes_read),
                bytes_written: AtomicU64::new(s.bytes_written),
                busy_us: AtomicU64::new(s.busy_us),
            },
            profile: self.profile,
        }
    }
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
            index: Table::new(2),
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

    /// Number of shards currently stored.
    #[must_use]
    pub fn used_blocks(&self) -> u64 {
        self.index.len() as u64
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
        self.stats.snapshot()
    }

    /// Marks the device failed and frees its index and slab.
    pub(crate) fn fail(&mut self) {
        self.state = DeviceState::Failed;
        self.index = Table::new(2);
        self.slab = Slab::new(self.slab.shard_len);
    }

    fn find(&self, key: &ShardKey) -> Result<usize, usize> {
        let shard = key.1 as u64;
        self.index.probe(key.0, |row| row[1] >> 32 == shard)
    }

    /// Stores a shard by copying from a borrowed slice into its slot —
    /// the existing one on overwrite, a free or new one otherwise. One
    /// index probe serves the existence test, the capacity check and the
    /// write.
    ///
    /// # Errors
    ///
    /// * [`VdsError::DeviceFailed`] on a failed device.
    /// * [`VdsError::WrongBlockSize`] if `data` is not one shard long.
    /// * [`VdsError::OutOfSpace`] if the shard is new and the device full.
    pub(crate) fn store_from(&mut self, key: ShardKey, data: &[u8]) -> Result<(), VdsError> {
        if self.state == DeviceState::Failed {
            return Err(VdsError::DeviceFailed { id: self.id });
        }
        if data.len() != self.slab.shard_len {
            return Err(VdsError::WrongBlockSize {
                expected: self.slab.shard_len,
                got: data.len(),
            });
        }
        let slot = match self.find(&key) {
            Ok(b) => slot_of(self.index.row(b)[1]),
            Err(vacant) => {
                if self.used_blocks() >= self.capacity_blocks {
                    return Err(VdsError::OutOfSpace { id: self.id });
                }
                let slot = self
                    .slab
                    .alloc()
                    .ok_or(VdsError::OutOfSpace { id: self.id })?;
                self.index.insert(vacant, key.0, slot_word(key.1, slot));
                slot
            }
        };
        self.slab.get_mut(slot).copy_from_slice(data);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.stats
            .busy_us
            .fetch_add(self.profile.service_us(data.len()), Ordering::Relaxed);
        Ok(())
    }

    /// The stored bytes of `key`, if the device is online and holds it.
    fn shard(&self, key: &ShardKey) -> Option<&[u8]> {
        if self.state == DeviceState::Failed {
            return None;
        }
        let b = self.find(key).ok()?;
        Some(self.slab.get(slot_of(self.index.row(b)[1])))
    }

    fn count_read(&self, len: usize) {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(len as u64, Ordering::Relaxed);
        self.stats
            .busy_us
            .fetch_add(self.profile.service_us(len), Ordering::Relaxed);
    }

    pub(crate) fn load(&self, key: &ShardKey) -> Option<Vec<u8>> {
        let data = self.shard(key)?;
        self.count_read(data.len());
        Some(data.to_vec())
    }

    /// Copies a shard into a caller-provided buffer, avoiding the `Vec` of
    /// [`Device::load`]. Returns `false` (without touching `out` or the
    /// counters) when the device is failed, the shard is absent, or `out`
    /// is not one shard long — the same cases in which `load` would return
    /// `None` or the caller could not use the data anyway.
    pub(crate) fn load_into(&self, key: &ShardKey, out: &mut [u8]) -> bool {
        let Some(data) = self.shard(key) else {
            return false;
        };
        if data.len() != out.len() {
            debug_assert_eq!(data.len(), out.len(), "shard length mismatch");
            return false;
        }
        out.copy_from_slice(data);
        self.count_read(data.len());
        true
    }

    /// Clears the I/O counters (e.g. between workload phases).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = AtomicIoStats::default();
    }

    /// Deletes a shard and frees its slot; `true` if it was stored.
    pub(crate) fn remove(&mut self, key: &ShardKey) -> bool {
        let Ok(b) = self.find(key) else {
            return false;
        };
        let slot = slot_of(self.index.row(b)[1]);
        self.index.remove(b);
        self.slab.release(slot);
        true
    }

    pub(crate) fn has(&self, key: &ShardKey) -> bool {
        self.state == DeviceState::Online && self.find(key).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn capacity_enforced() {
        let mut d = Device::new(1, 2, 1);
        d.store_from((0, 0), &[1]).unwrap();
        d.store_from((1, 0), &[2]).unwrap();
        assert_eq!(
            d.store_from((2, 0), &[3]),
            Err(VdsError::OutOfSpace { id: 1 })
        );
        // Overwrites of existing shards are always allowed.
        d.store_from((1, 0), &[9]).unwrap();
        assert_eq!(d.load(&(1, 0)), Some(vec![9]));
    }

    #[test]
    fn failure_drops_contents_and_rejects_io() {
        let mut d = Device::new(7, 4, 3);
        d.store_from((0, 0), &[1, 2, 3]).unwrap();
        d.fail();
        assert_eq!(d.state(), DeviceState::Failed);
        assert_eq!(d.load(&(0, 0)), None);
        assert!(!d.has(&(0, 0)));
        assert_eq!(d.used_blocks(), 0);
        assert!(d.slab.chunks.is_empty(), "fail frees the slab");
        assert_eq!(
            d.store_from((1, 0), &[4, 5, 6]),
            Err(VdsError::DeviceFailed { id: 7 })
        );
    }

    #[test]
    fn store_from_overwrites_in_place_and_rejects_other_lengths() {
        let mut d = Device::new(1, 2, 1);
        d.store_from((0, 0), &[1]).unwrap();
        d.store_from((1, 0), &[2]).unwrap();
        assert_eq!(
            d.store_from((2, 0), &[3]),
            Err(VdsError::OutOfSpace { id: 1 })
        );
        // Overwrites reuse the existing slot and are always allowed.
        d.store_from((1, 0), &[9]).unwrap();
        assert_eq!(d.load(&(1, 0)), Some(vec![9]));
        assert_eq!(d.slab.next, 2);
        // Every shard on a device has one length.
        assert_eq!(
            d.store_from((1, 0), &[9, 9]),
            Err(VdsError::WrongBlockSize {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(d.load(&(1, 0)), Some(vec![9]));
        assert_eq!(d.stats().writes, 3);
        d.fail();
        assert_eq!(
            d.store_from((0, 0), &[4]),
            Err(VdsError::DeviceFailed { id: 1 })
        );
    }

    #[test]
    fn shards_of_one_block_share_a_probe_run() {
        // All shards of an lba hash to one home bucket; removing the first
        // must shift the others back, not strand them.
        let mut d = Device::new(1, 16, 2);
        for shard in 0..4 {
            d.store_from((5, shard), &[shard as u8, 0]).unwrap();
        }
        assert!(d.remove(&(5, 0)));
        assert!(!d.remove(&(5, 0)));
        for shard in 1..4 {
            assert_eq!(d.load(&(5, shard)), Some(vec![shard as u8, 0]));
        }
        // The freed slot is reused: the slab does not grow.
        d.store_from((6, 0), &[7, 7]).unwrap();
        assert_eq!(d.slab.next, 4);
        assert_eq!(d.load(&(6, 0)), Some(vec![7, 7]));
    }

    #[test]
    fn slots_span_chunks() {
        let len = CHUNK_BYTES / 2 + 1; // one slot per chunk
        let mut d = Device::new(1, 8, len);
        for lba in 0..5u64 {
            d.store_from((lba, 0), &vec![lba as u8; len]).unwrap();
        }
        assert_eq!(d.slab.chunks.len(), 5);
        for lba in 0..5u64 {
            assert_eq!(d.load(&(lba, 0)), Some(vec![lba as u8; len]));
        }
        let mut d = Device::new(1, 1_000, 64);
        for lba in 0..200u64 {
            d.store_from((lba, 1), &[lba as u8; 64]).unwrap();
        }
        assert_eq!(d.slab.chunks.len(), 200usize.div_ceil(CHUNK_BYTES / 64));
        for lba in 0..200u64 {
            assert_eq!(d.load(&(lba, 1)), Some(vec![lba as u8; 64]));
        }
    }

    #[test]
    fn load_into_matches_load() {
        let mut d = Device::new(3, 4, 3);
        d.store_from((5, 1), &[7, 8, 9]).unwrap();
        let mut buf = [0u8; 3];
        assert!(d.load_into(&(5, 1), &mut buf));
        assert_eq!(buf, [7, 8, 9]);
        // Missing shard: untouched buffer, no read counted.
        let before = d.stats();
        let mut other = [1u8; 3];
        assert!(!d.load_into(&(6, 0), &mut other));
        assert_eq!(other, [1u8; 3]);
        assert_eq!(d.stats().reads, before.reads);
        // Counters match what load would have recorded.
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().bytes_read, 3);
    }

    #[test]
    fn stats_track_io() {
        let mut d = Device::new(2, 10, 16);
        d.store_from((0, 0), &[0; 16]).unwrap();
        d.store_from((1, 1), &[0; 16]).unwrap();
        let _ = d.load(&(0, 0));
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 32);
        assert_eq!(s.bytes_read, 16);
        assert!((d.utilization() - 0.2).abs() < 1e-12);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Store(u64, usize, u8),
        Remove(u64, usize),
        Load(u64, usize),
        LoadInto(u64, usize),
        Has(u64, usize),
        Fail,
    }

    fn op() -> impl Strategy<Value = Op> {
        // 16 blocks × 3 shards: shards of one block collide by construction.
        (0u8..22, 0u64..16, 0usize..3, any::<u8>()).prop_map(|(pick, l, s, b)| match pick {
            0..=7 => Op::Store(l, s, b),
            8..=12 => Op::Remove(l, s),
            13..=15 => Op::Load(l, s),
            16..=18 => Op::LoadInto(l, s),
            19..=20 => Op::Has(l, s),
            _ => Op::Fail,
        })
    }

    const LEN: usize = 5;

    fn shard_bytes(b: u8) -> [u8; LEN] {
        std::array::from_fn(|i| b.wrapping_add(i as u8))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random operation sequences against a map model: contents,
        /// capacity, failure and counters agree, and the slab grows only
        /// when no released slot is free (its high-water mark equals the
        /// model's peak occupancy).
        #[test]
        fn device_matches_a_map_model(ops in proptest::collection::vec(op(), 1..300)) {
            const CAP: u64 = 30;
            let mut d = Device::new(9, CAP, LEN);
            let mut model: BTreeMap<(u64, usize), u8> = BTreeMap::new();
            let mut failed = false;
            let mut peak = 0usize;
            let mut reads = 0u64;
            for op in ops {
                match op {
                    Op::Store(l, s, b) => {
                        let got = d.store_from((l, s), &shard_bytes(b));
                        if failed {
                            prop_assert_eq!(got, Err(VdsError::DeviceFailed { id: 9 }));
                        } else if !model.contains_key(&(l, s)) && model.len() as u64 >= CAP {
                            prop_assert_eq!(got, Err(VdsError::OutOfSpace { id: 9 }));
                        } else {
                            prop_assert_eq!(got, Ok(()));
                            model.insert((l, s), b);
                        }
                    }
                    Op::Remove(l, s) => {
                        prop_assert_eq!(d.remove(&(l, s)), model.remove(&(l, s)).is_some());
                    }
                    Op::Load(l, s) => {
                        let want = model.get(&(l, s)).map(|&b| shard_bytes(b).to_vec());
                        reads += u64::from(want.is_some());
                        prop_assert_eq!(d.load(&(l, s)), want);
                    }
                    Op::LoadInto(l, s) => {
                        let mut buf = [0xEE; LEN];
                        let want = model.get(&(l, s)).map(|&b| shard_bytes(b));
                        reads += u64::from(want.is_some());
                        prop_assert_eq!(d.load_into(&(l, s), &mut buf), want.is_some());
                        prop_assert_eq!(buf, want.unwrap_or([0xEE; LEN]));
                    }
                    Op::Has(l, s) => {
                        prop_assert_eq!(d.has(&(l, s)), model.contains_key(&(l, s)));
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
                prop_assert_eq!(d.slab.next as usize - d.slab.free.len(), model.len());
                prop_assert_eq!(d.stats().reads, reads);
            }
        }
    }
}
