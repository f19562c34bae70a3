//! Simulated block storage devices and the one store of fixed-size shard
//! slots ([`Slab`]) that a cluster's block-table rows address. A device is
//! a bin with a name and a capacity; it counts its slots and I/O. Slots
//! are handed out in the order asked for, whichever device asks.
//!
//! The store grows in chunks of 256 KiB, whose first slot starts on a 4 KiB
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

/// Bytes per store chunk: a power-of-two slot count, or one slot for
/// shards larger than this. One constant for every shard length, so the
/// store's chunk table stays a few thousand entries at a few hundred MiB.
const CHUNK_BYTES: usize = 256 * 1024;

/// Each chunk's first slot starts on a page boundary (module docs).
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

/// The shard store: fixed-length slots in chunks that never move; slot
/// `s` lives in chunk `s >> shift` at offset `pad + (s & mask) · shard_len`.
#[derive(Debug)]
pub(crate) struct Slab {
    shard_len: usize,
    /// log2 of the slots per chunk.
    shift: u32,
    chunks: Vec<Chunk>,
    /// Released slots, reused before the store grows.
    free: Vec<u32>,
    /// Slots handed out from the chunks so far (the high-water mark).
    next: u32,
}

impl Slab {
    pub(crate) fn new(shard_len: usize) -> Self {
        Self {
            shard_len,
            shift: (CHUNK_BYTES / shard_len).max(1).ilog2(),
            chunks: Vec::new(),
            free: Vec::new(),
            next: 0,
        }
    }

    /// Slots handed out and not released.
    pub(crate) fn live(&self) -> u64 {
        u64::from(self.next) - self.free.len() as u64
    }

    /// A free slot. A slot the store grows by is zeroed when it is handed
    /// out, not before. Panics past 2^32 − 1 slots (a row word stores
    /// `slot + 1` in 32 bits), which the cluster's validation refuses.
    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = self.next;
        self.next = slot.checked_add(1).expect("slot + 1 fits 32 bits");
        if (slot >> self.shift) as usize == self.chunks.len() {
            self.chunks.push(Chunk::new(self.shard_len << self.shift));
        }
        let chunk = self.chunks.last_mut().expect("the slot's chunk exists");
        chunk.bytes.resize(chunk.bytes.len() + self.shard_len, 0);
        slot
    }

    /// The slot's chunk and its offset there.
    fn locate(&self, slot: u32) -> (usize, usize) {
        let chunk = (slot >> self.shift) as usize;
        let index = slot as usize & ((1 << self.shift) - 1);
        (chunk, self.chunks[chunk].pad + index * self.shard_len)
    }

    /// The bytes of `slot`, for a commit or a read to prefetch.
    pub(crate) fn get(&self, slot: u32) -> &[u8] {
        let (chunk, off) = self.locate(slot);
        &self.chunks[chunk].bytes[off..off + self.shard_len]
    }

    fn get_mut(&mut self, slot: u32) -> &mut [u8] {
        let (chunk, off) = self.locate(slot);
        &mut self.chunks[chunk].bytes[off..off + self.shard_len]
    }
}

/// A simulated storage device: a bin with a name and a capacity, whose
/// shards live in slots of the cluster's one shard store, which the
/// cluster's block-table rows name. Every shard has the same length (the
/// cluster's `block_size / d`, or `block_size` for mirrors). The device
/// counts the slots it holds and the I/O it serves, and can be failed
/// (losing all contents) to drive rebuild experiments. Reads take `&self`
/// and bump only an atomic counter.
#[derive(Debug)]
pub struct Device {
    id: u64,
    capacity_blocks: u64,
    state: DeviceState,
    /// Store slots holding this device's shards; 0 once failed.
    used: u64,
    /// The store's shard length, copied so the public `stats()` needs no store.
    shard_len: usize,
    stats: AtomicIoStats,
    profile: DeviceProfile,
}

impl Device {
    /// An online device for `capacity_blocks` shards of `shard_len` bytes.
    pub(crate) fn new(
        id: u64,
        capacity_blocks: u64,
        shard_len: usize,
        profile: DeviceProfile,
    ) -> Self {
        Self {
            id,
            capacity_blocks,
            state: DeviceState::Online,
            used: 0,
            shard_len,
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

    /// Number of shards currently stored; 0 once failed.
    #[must_use]
    pub fn used_blocks(&self) -> u64 {
        self.used
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
        let len = self.shard_len as u64;
        IoStats {
            reads,
            writes,
            bytes_read: reads * len,
            bytes_written: writes * len,
            busy_us: (reads + writes) * self.profile.service_us(self.shard_len),
        }
    }

    /// Marks the device failed: it reads nothing and takes or holds no
    /// slot; its slots stay resident until rows drop them ([`Device::release`]).
    pub(crate) fn fail(&mut self) {
        self.state = DeviceState::Failed;
        self.used = 0;
    }

    /// A free slot of `store`, or `None` on a failed device. Capacity is
    /// the cluster's to check, net of the slots a commit releases.
    pub(crate) fn alloc(&mut self, store: &mut Slab) -> Option<u32> {
        if self.state == DeviceState::Failed {
            return None;
        }
        self.used += 1;
        Some(store.alloc())
    }

    /// Copies one shard into `slot`, which [`Device::alloc`] handed out.
    pub(crate) fn write(&mut self, store: &mut Slab, slot: u32, data: &[u8]) {
        store.get_mut(slot).copy_from_slice(data);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// The shard in `slot`, borrowed, counted as one read; `None`,
    /// counting nothing, when the device is failed.
    pub(crate) fn read<'s>(&self, store: &'s Slab, slot: u32) -> Option<&'s [u8]> {
        if self.state == DeviceState::Failed {
            return None;
        }
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Some(store.get(slot))
    }

    /// Gives `slot`, which a row word naming this device dropped, back to
    /// `store`, whatever the device's state.
    pub(crate) fn release(&mut self, store: &mut Slab, slot: u32) {
        store.free.push(slot);
        if self.state == DeviceState::Online {
            self.used -= 1;
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

    impl Slab {
        /// Slots the store has handed out from its chunks: its high-water
        /// mark.
        pub(crate) fn high_water(&self) -> u32 {
            self.next
        }
    }

    /// A device of the default profile.
    fn device(id: u64, capacity_blocks: u64, shard_len: usize) -> Device {
        Device::new(id, capacity_blocks, shard_len, DeviceProfile::default())
    }

    /// Takes a slot of `store` for `d` and writes `data` into it.
    fn put(d: &mut Device, store: &mut Slab, data: &[u8]) -> u32 {
        let slot = d.alloc(store).expect("online device");
        d.write(store, slot, data);
        slot
    }

    fn get(d: &Device, store: &Slab, slot: u32) -> Option<Vec<u8>> {
        d.read(store, slot).map(<[u8]>::to_vec)
    }

    /// A failed device reads nothing, takes no slot and holds none. Its
    /// slots stay live until the rows naming them drop them, then serve
    /// another device: nothing leaks and the store does not grow.
    #[test]
    fn failure_drops_contents_and_rejects_io() {
        let mut store = Slab::new(3);
        let (mut d, mut other) = (device(7, 4, 3), device(8, 4, 3));
        let lost = [
            put(&mut d, &mut store, &[1, 2, 3]),
            put(&mut d, &mut store, &[4, 5, 6]),
        ];
        let kept = put(&mut other, &mut store, &[7, 8, 9]);
        d.fail();
        assert_eq!(d.state(), DeviceState::Failed);
        assert_eq!(get(&d, &store, lost[0]), None);
        assert_eq!(d.stats().reads, 0, "a refused read counts nothing");
        assert_eq!(d.used_blocks(), 0);
        assert_eq!(d.alloc(&mut store), None);
        assert_eq!(store.live(), 3, "rows still name the failed slots");
        for slot in lost {
            d.release(&mut store, slot);
        }
        assert_eq!((d.used_blocks(), store.live()), (0, 1));
        let reused: Vec<u32> = (0..2)
            .map(|_| put(&mut other, &mut store, &[0; 3]))
            .collect();
        assert_eq!(reused.iter().filter(|s| lost.contains(s)).count(), 2);
        assert_eq!(
            (other.used_blocks(), store.live(), store.high_water()),
            (3, 3, 3)
        );
        assert_eq!(get(&other, &store, kept), Some(vec![7, 8, 9]));
    }

    /// Takes `n` slots of `len` bytes, each filled with its index.
    fn fill(store: &mut Slab, n: usize) -> Vec<u32> {
        (0..n)
            .map(|b| {
                let slot = store.alloc();
                store.get_mut(slot).fill(b as u8);
                slot
            })
            .collect()
    }

    /// The address of `slot`'s first byte.
    fn addr(store: &Slab, slot: u32) -> usize {
        store.get(slot).as_ptr() as usize
    }

    #[test]
    fn slots_span_chunks() {
        for (len, n, chunks) in [
            (CHUNK_BYTES / 2 + 1, 5, 5), // one slot per chunk
            (64, 2 * CHUNK_BYTES / 64 + 100, 3),
        ] {
            let mut store = Slab::new(len);
            let slots = fill(&mut store, n);
            assert_eq!(store.chunks.len(), chunks);
            for (b, &slot) in slots.iter().enumerate() {
                assert_eq!(store.get(slot), &vec![b as u8; len][..]);
            }
        }
    }

    /// Every slot of two chunks and a few more, for each power-of-two
    /// shard length up to a page: slots of 64 B or more start on a cache
    /// line, and no slot crosses a page.
    #[test]
    fn slots_start_on_lines_and_cross_no_page() {
        for len in (0..=12).map(|b| 1usize << b) {
            let mut store = Slab::new(len);
            for _ in 0..2 * CHUNK_BYTES / len + 3 {
                let slot = store.alloc();
                let at = addr(&store, slot);
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
        let mut store = Slab::new(len);
        let first = store.alloc();
        store.get_mut(first).fill(7);
        let at = addr(&store, first);
        let reserved = store.chunks[0].bytes.capacity();
        for b in 1..=CHUNK_BYTES / len {
            // Every later slot holds a value other than the first's 7s.
            let slot = store.alloc();
            store.get_mut(slot).fill(8 + (b % 200) as u8);
            assert_eq!(addr(&store, first), at, "slot moved after {b} more slots");
            let now = store.chunks[0].bytes.capacity();
            assert_eq!(now, reserved, "chunk reallocated after {b} more slots");
        }
        assert_eq!(store.chunks.len(), 2, "the last slot opens a chunk");
        assert_eq!(store.get(first), &[7; 1024][..]);
    }

    /// Slots are handed out in the order they are asked for, whichever
    /// device asks, so shards taken one after another sit side by side.
    #[test]
    fn fresh_slots_follow_one_another_across_devices() {
        let mut store = Slab::new(16);
        let mut devices: Vec<Device> = (0..3).map(|id| device(id, 10, 16)).collect();
        let slots: Vec<u32> = (0..9)
            .map(|i| devices[i % 3].alloc(&mut store).expect("online"))
            .collect();
        assert_eq!(slots, (0..9).collect::<Vec<u32>>());
        let gap = addr(&store, 1) - addr(&store, 0);
        assert_eq!(gap, 16, "adjacent slots are adjacent bytes");
    }

    #[test]
    fn stats_track_io() {
        let mut store = Slab::new(16);
        let mut d = device(2, 10, 16);
        let slot = put(&mut d, &mut store, &[0; 16]);
        put(&mut d, &mut store, &[0; 16]);
        let _ = get(&d, &store, slot);
        let s = d.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 32);
        assert_eq!(s.bytes_read, 16);
        assert!((d.utilization() - 0.2).abs() < 1e-12);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Alloc(usize, u8),
        Write(usize, u8),
        Read(usize),
        Release(usize),
        Fail(usize),
    }

    /// Devices sharing the store of the model test.
    const DEVICES: usize = 3;

    fn op() -> impl Strategy<Value = Op> {
        // Slot picks index the model's live slots (modulo their count).
        (0u8..23, 0usize..64, any::<u8>()).prop_map(|(pick, i, b)| match pick {
            0..=7 => Op::Alloc(i % DEVICES, b),
            8..=10 => Op::Write(i, b),
            11..=15 => Op::Read(i),
            16..=21 => Op::Release(i),
            _ => Op::Fail(i % DEVICES),
        })
    }

    const LEN: usize = 5;

    fn shard_bytes(b: u8) -> [u8; LEN] {
        std::array::from_fn(|i| b.wrapping_add(i as u8))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random slot operations of three devices on one store against a
        /// map model of the live slots (slot → device and contents):
        /// contents, failure and counters agree, each device holds exactly
        /// its online slots, a failed device's slots stay live until
        /// released, a released slot serves any device, and the store grows
        /// only when no released slot is free (its high-water mark equals
        /// the model's peak occupancy).
        #[test]
        fn store_matches_a_map_model(ops in proptest::collection::vec(op(), 1..300)) {
            let mut store = Slab::new(LEN);
            let mut devices: Vec<Device> = (0..DEVICES as u64).map(|id| device(id, 30, LEN)).collect();
            let mut model: BTreeMap<u32, (usize, u8)> = BTreeMap::new();
            let mut failed = [false; DEVICES];
            let mut peak = 0usize;
            let mut reads = [0u64; DEVICES];
            let live = |model: &BTreeMap<u32, (usize, u8)>, i: usize| {
                model.iter().nth(i % model.len().max(1)).map(|(&s, &(d, _))| (s, d))
            };
            for op in ops {
                match op {
                    Op::Alloc(d, b) => match devices[d].alloc(&mut store) {
                        None => prop_assert!(failed[d]),
                        Some(slot) => {
                            prop_assert!(!failed[d]);
                            prop_assert!(!model.contains_key(&slot), "slot {} is live", slot);
                            devices[d].write(&mut store, slot, &shard_bytes(b));
                            model.insert(slot, (d, b));
                        }
                    },
                    Op::Write(i, b) => {
                        if let Some((slot, d)) = live(&model, i).filter(|&(_, d)| !failed[d]) {
                            devices[d].write(&mut store, slot, &shard_bytes(b));
                            model.insert(slot, (d, b));
                        }
                    }
                    Op::Read(i) => {
                        if let Some((slot, d)) = live(&model, i) {
                            let want = shard_bytes(model[&slot].1);
                            let shard = devices[d].read(&store, slot);
                            prop_assert_eq!(shard, (!failed[d]).then_some(&want[..]));
                            reads[d] += u64::from(!failed[d]);
                        }
                    }
                    Op::Release(i) => {
                        if let Some((slot, d)) = live(&model, i) {
                            devices[d].release(&mut store, slot);
                            model.remove(&slot);
                        }
                    }
                    Op::Fail(d) => {
                        devices[d].fail();
                        failed[d] = true;
                    }
                }
                peak = peak.max(model.len());
                for (d, device) in devices.iter().enumerate() {
                    let held = model.values().filter(|&&(on, _)| on == d).count();
                    let want = if failed[d] { 0 } else { held as u64 };
                    prop_assert_eq!(device.used_blocks(), want);
                    prop_assert_eq!(device.stats().reads, reads[d]);
                }
                prop_assert_eq!(store.live(), model.len() as u64);
                prop_assert_eq!(store.high_water() as usize, peak);
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
            let mut store = Slab::new(len);
            let mut d = Device::new(3, 1_000, len, profile);
            let buf = vec![7; len];
            let slot = put(&mut d, &mut store, &buf);
            let mut want = IoStats {
                writes: 1,
                bytes_written: len as u64,
                busy_us: profile.service_us(len),
                ..IoStats::default()
            };
            for write in ops {
                if write {
                    d.write(&mut store, slot, &buf);
                    want.writes += 1;
                    want.bytes_written += len as u64;
                } else {
                    prop_assert_eq!(d.read(&store, slot), Some(&buf[..]));
                    want.reads += 1;
                    want.bytes_read += len as u64;
                }
                want.busy_us += profile.service_us(len);
                prop_assert_eq!(d.stats(), want);
            }
        }
    }
}
