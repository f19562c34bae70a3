//! Simulated block storage devices: each is a slab of fixed-size shard
//! slots, addressed by the slot numbers that the cluster's block-table
//! rows record.
//!
//! A slab grows in chunks of 256 KiB, whose first slot starts on a 4 KiB
//! page boundary. A slot of a power-of-two length therefore starts on a
//! 64-byte cache line, and one of up to a page never crosses a page, so a
//! shard read touches only the lines and pages that hold the shard. (The
//! allocator hands out blocks 16 bytes past a line, behind its header,
//! so unpadded chunks would split three 64 B slots in four across two
//! lines.) A chunk is reserved whole but filled one slot at a time inside
//! its reservation, so resident memory follows the slots handed out,
//! nothing is zeroed before its slot is, and a slot never moves.

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

/// Bytes per slab chunk: a power-of-two slot count, or one slot for
/// shards larger than this. One constant for every shard length, so a
/// device's chunk table stays a few dozen entries.
const CHUNK_BYTES: usize = 256 * 1024;

/// Each chunk's first slot starts on a boundary of this many bytes: a
/// page (module docs).
const SLOT_ALIGN: usize = 4096;

/// One chunk of slots. `bytes` is reserved once, with room for every
/// slot of the chunk plus the pad in front of the first, and grows one
/// slot at a time inside that capacity, so it never reallocates and a
/// slot never moves.
#[derive(Debug)]
struct Chunk {
    bytes: Vec<u8>,
    /// Offset of the chunk's first slot: the first page boundary of the
    /// allocation.
    pad: usize,
}

impl Chunk {
    /// An empty chunk with room for `slot_bytes` of slots after its pad.
    fn new(slot_bytes: usize) -> Self {
        let mut bytes: Vec<u8> = Vec::with_capacity(slot_bytes + SLOT_ALIGN - 1);
        let pad = bytes.as_ptr().align_offset(SLOT_ALIGN);
        assert!(pad < SLOT_ALIGN, "a byte pointer can always be aligned");
        bytes.resize(pad, 0);
        Self { bytes, pad }
    }
}

/// Fixed-length shard slots in chunks that never move; slot `s` lives in
/// chunk `s >> shift` at offset `pad + (s & mask) · shard_len`.
#[derive(Debug)]
struct Slab {
    shard_len: usize,
    /// log2 of the slots per chunk.
    shift: u32,
    chunks: Vec<Chunk>,
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
    /// stores `slot + 1` in 32 bits). A slot the slab grows by is zeroed
    /// when it is handed out, not before.
    fn alloc(&mut self) -> Option<u32> {
        if let Some(slot) = self.free.pop() {
            return Some(slot);
        }
        if self.next == u32::MAX {
            return None;
        }
        let slot = self.next;
        if (slot >> self.shift) as usize == self.chunks.len() {
            self.chunks.push(Chunk::new(self.shard_len << self.shift));
        }
        let chunk = self.chunks.last_mut().expect("the slot's chunk exists");
        chunk.bytes.resize(chunk.bytes.len() + self.shard_len, 0);
        self.next += 1;
        Some(slot)
    }

    fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// The slot's chunk and its offset there.
    fn locate(&self, slot: u32) -> (usize, usize) {
        let chunk = (slot >> self.shift) as usize;
        let index = slot as usize & ((1 << self.shift) - 1);
        (chunk, self.chunks[chunk].pad + index * self.shard_len)
    }

    fn get(&self, slot: u32) -> &[u8] {
        let (chunk, off) = self.locate(slot);
        &self.chunks[chunk].bytes[off..off + self.shard_len]
    }

    fn get_mut(&mut self, slot: u32) -> &mut [u8] {
        let (chunk, off) = self.locate(slot);
        &mut self.chunks[chunk].bytes[off..off + self.shard_len]
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
/// drive rebuild experiments. Reads take `&self`: slot contents change
/// only under `&mut self`, and a read bumps only an atomic counter.
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
    /// `shard_len` bytes, with the default performance profile.
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

    /// The bytes of `slot`, which [`Device::alloc`] handed out, for the
    /// commit path to prefetch before it writes them and the read path
    /// before it copies them out. Panics on a failed device, whose slab
    /// is gone.
    pub(crate) fn slot(&self, slot: u32) -> &[u8] {
        self.slab.get(slot)
    }

    /// Copies one shard into `slot`, which [`Device::alloc`] handed out.
    pub(crate) fn write(&mut self, slot: u32, data: &[u8]) {
        self.slab.get_mut(slot).copy_from_slice(data);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard in `slot`, borrowed, counted as one read; `None`,
    /// counting nothing, when the device is failed.
    pub(crate) fn read(&self, slot: u32) -> Option<&[u8]> {
        if self.state == DeviceState::Failed {
            return None;
        }
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Some(self.slab.get(slot))
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

    fn get(d: &Device, slot: u32) -> Option<Vec<u8>> {
        d.read(slot).map(<[u8]>::to_vec)
    }

    #[test]
    fn failure_drops_contents_and_rejects_io() {
        let mut d = Device::new(7, 4, 3);
        let slot = put(&mut d, &[1, 2, 3]);
        d.fail();
        assert_eq!(d.state(), DeviceState::Failed);
        assert_eq!(get(&d, slot), None);
        assert_eq!(d.used_blocks(), 0);
        assert!(d.slab.chunks.is_empty(), "fail frees the slab");
        assert_eq!(d.alloc(), None);
        d.release(slot);
        assert!(d.slab.free.is_empty(), "a failed device takes nothing back");
    }

    /// The address of `slot`'s first byte.
    fn addr(d: &Device, slot: u32) -> usize {
        d.slab.get(slot).as_ptr() as usize
    }

    #[test]
    fn slots_span_chunks() {
        let len = CHUNK_BYTES / 2 + 1; // one slot per chunk
        let mut d = Device::new(1, 8, len);
        let slots: Vec<u32> = (0..5u8).map(|b| put(&mut d, &vec![b; len])).collect();
        assert_eq!(d.slab.chunks.len(), 5);
        for (b, &slot) in slots.iter().enumerate() {
            assert_eq!(get(&d, slot), Some(vec![b as u8; len]));
        }
        let n = 2 * CHUNK_BYTES / 64 + 100;
        let mut d = Device::new(1, n as u64, 64);
        let slots: Vec<u32> = (0..n).map(|b| put(&mut d, &[b as u8; 64])).collect();
        assert_eq!(d.slab.chunks.len(), 3);
        for (b, &slot) in slots.iter().enumerate() {
            assert_eq!(get(&d, slot), Some(vec![b as u8; 64]));
        }
    }

    /// Every slot of two chunks and a few more, for each power-of-two
    /// shard length up to a page: slots of 64 B or more start on a cache
    /// line, and no slot crosses a page.
    #[test]
    fn slots_start_on_lines_and_cross_no_page() {
        for len in (0..=12).map(|b| 1usize << b) {
            let n = 2 * CHUNK_BYTES / len + 3;
            let mut d = Device::new(1, n as u64, len);
            for _ in 0..n {
                let slot = d.alloc().expect("online device");
                let at = addr(&d, slot);
                if len >= 64 {
                    assert_eq!(at % 64, 0, "{len} B slot at {at:#x} starts off a line");
                }
                assert_eq!(
                    at / SLOT_ALIGN,
                    (at + len - 1) / SLOT_ALIGN,
                    "{len} B slot at {at:#x} crosses a page"
                );
            }
        }
    }

    #[test]
    fn slot_addresses_stay_put_while_their_chunk_fills() {
        let len = 1024;
        let mut d = Device::new(1, 1_000, len);
        let first = put(&mut d, &[7; 1024]);
        let at = addr(&d, first);
        let reserved = d.slab.chunks[0].bytes.capacity();
        for b in 1..=CHUNK_BYTES / len {
            put(&mut d, &[b as u8; 1024]);
            assert_eq!(addr(&d, first), at, "slot moved after {b} more slots");
            let now = d.slab.chunks[0].bytes.capacity();
            assert_eq!(now, reserved, "chunk reallocated after {b} more slots");
        }
        assert_eq!(d.slab.chunks.len(), 2, "the last slot opens a chunk");
        assert_eq!(get(&d, first), Some(vec![7; len]));
    }

    #[test]
    fn stats_track_io() {
        let mut d = Device::new(2, 10, 16);
        let slot = put(&mut d, &[0; 16]);
        put(&mut d, &[0; 16]);
        let _ = get(&d, slot);
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
        Read(usize),
        Release(usize),
        Fail,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Slot picks index the model's live slots (modulo their count).
        (0u8..22, 0usize..64, any::<u8>()).prop_map(|(pick, i, b)| match pick {
            0..=7 => Op::Alloc(b),
            8..=10 => Op::Write(i, b),
            11..=15 => Op::Read(i),
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
                    Op::Read(i) => {
                        if let Some(slot) = live(&model, i) {
                            let shard = d.read(slot);
                            prop_assert_eq!(shard, Some(&shard_bytes(model[&slot])[..]));
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
            let buf = vec![7; len];
            let slot = put(&mut d, &buf);
            let mut want = IoStats {
                writes: 1,
                bytes_written: len as u64,
                busy_us: profile.service_us(len),
                ..IoStats::default()
            };
            for write in ops {
                if write {
                    d.write(slot, &buf);
                    want.writes += 1;
                    want.bytes_written += len as u64;
                } else {
                    prop_assert_eq!(d.read(slot), Some(&buf[..]));
                    want.reads += 1;
                    want.bytes_read += len as u64;
                }
                want.busy_us += profile.service_us(len);
                prop_assert_eq!(d.stats(), want);
            }
        }
    }
}
