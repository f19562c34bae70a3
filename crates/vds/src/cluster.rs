//! The virtualized storage cluster: placement-driven block storage with
//! migration, failure and rebuild.
//!
//! This is the "randomized block-level storage virtualization" of the
//! paper's abstract: a pool of heterogeneous devices presented as a single
//! block store. Every logical block is expanded into a redundancy group
//! (mirror copies or erasure shards). A block's first write stores shard
//! `i` on the i-th device of its Redundant Share placement. A block's
//! block-table row names the slot of each of its shards, so a stored
//! block is found with one probe and read with one slot copy per shard,
//! and only unstored addresses and writes that move a block (its first
//! write, or one during a migration) run the placement scan.
//!
//! Writes, migrations and repairs commit through one path: validate every
//! target device, land the shards, restamp the row, then release the
//! slots the new row no longer names. An overwrite of a settled block
//! lands each shard in the slot its row already names, so nothing moves.
//! A write that moves a block (its first, or one during a migration), a
//! migration and a repair land in fresh slots, copy-on-write, with the
//! restamp as the commit point. Validation rejects every failure before
//! a byte moves, so an `Err` leaves the previous value exactly. Each
//! block's slots are taken and prefetched one block ahead, before the
//! current block's parity is encoded, so cold slots arrive while the
//! codec and the copies run rather than one store at a time. Reads
//! prefetch the same way: an erasure-coded read hints every slot it will
//! copy before copying any, and a migration or repair gather hints the
//! slots the next block's gather reads first. One routine chooses what
//! both read: the wanted shards from their slots, and the others only to
//! recover a missing one, so a migration reads just the shards it moves.
//!
//! Every membership change follows one path: build the strategy over the
//! new membership, gate it on Lemma 2.2's `B_max`, install it as the
//! target with every stored block pending, and drain the pending blocks
//! chunk by chunk, copying a shard to each device new to it (every other
//! shard keeps its device and slot). A row changes only once the
//! shards it names have landed, so a drain that fails part-way leaves
//! every block readable and resumable. Lemmas 3.2–3.5 bound the migration
//! volume, and [`MigrationReport`] measures it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rshare_core::capacity::max_balls;
use rshare_core::{Bin, BinId, BinSet, PlacementStrategy, RedundantShare};
use rshare_erasure::gf256::{kernel_tier, simd::prefetch};
use rshare_erasure::{ErasureCode, ErasureError};
use rshare_hash::stable_hash2;
use rshare_obs::{family_header, sample_line, Registry, SpanTimer};

use crate::cache::{BlockTable, CacheStats};
use crate::device::{Device, DeviceState};
use crate::error::VdsError;
use crate::health::{ClusterMetrics, FairnessReport, HealthSnapshot};
use crate::migration::{MigrationPlan, MigrationReport, ShardMove};
use crate::profile::DeviceProfile;
use crate::redundancy::Redundancy;

/// Domain separator for the per-block read-copy rotation.
const READ_BALANCE_DOMAIN: u64 = 0x5245_4144; // "READ"

/// One successful read in this many is timed into the `read_latency_ns`
/// histogram. The read *counters* stay exact; only latency is sampled.
const LATENCY_SAMPLE: u64 = 64;

/// Blocks per batched-migration chunk. Bounds the transient memory of a
/// rebalance: at most this many blocks' shard payloads are in flight
/// between the gather and apply phases.
const MIGRATION_CHUNK_BLOCKS: usize = 4096;

/// The low half of a row word: `slot + 1`, or 0 for an absent shard.
/// Bits 32–55 name the device position, and the top byte is the word's
/// tag: the index of its device in the block's placement.
const SLOT_MASK: u64 = 0xFFFF_FFFF;

/// The device position a row word names.
fn position_of(word: u64) -> usize {
    (word << 8 >> 40) as usize
}

/// A row word's tag.
fn tag_of(word: u64) -> usize {
    (word >> 56) as usize
}

/// `word` with its tag set to `tag`.
fn tagged(word: u64, tag: usize) -> u64 {
    (word << 8 >> 8) | ((tag as u64) << 56)
}

/// Whether two row words name one device and slot, whatever their tags.
fn same_slot(a: u64, b: u64) -> bool {
    (a ^ b) << 8 == 0
}

/// The slot a row word names, or `None` if the shard is absent.
fn slot_of(word: u64) -> Option<u32> {
    (word as u32).checked_sub(1)
}

/// Length of every shard of a cluster: `block_size / d` under erasure
/// coding with `d` data shards, the whole block for mirrors.
fn shard_len(block_size: usize, codec: Option<&dyn ErasureCode>) -> usize {
    block_size / codec.map_or(1, ErasureCode::data_shards)
}

/// Builder for a [`StorageCluster`].
///
/// # Example
///
/// ```
/// use rshare_vds::{Redundancy, StorageCluster};
///
/// let cluster = StorageCluster::builder()
///     .block_size(64)
///     .redundancy(Redundancy::Mirror { copies: 2 })
///     .device(0, 1_000)
///     .device(1, 2_000)
///     .build()
///     .unwrap();
/// assert_eq!(cluster.device_ids(), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    block_size: usize,
    redundancy: Redundancy,
    devices: Vec<(u64, u64, DeviceProfile)>,
    metrics: bool,
}

impl ClusterBuilder {
    /// Sets the logical block size in bytes (default 4096).
    #[must_use]
    pub fn block_size(mut self, bytes: usize) -> Self {
        self.block_size = bytes;
        self
    }

    /// Sets the redundancy scheme (default 2-way mirroring).
    #[must_use]
    pub fn redundancy(mut self, redundancy: Redundancy) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Enables or disables metrics recording (default enabled). Disabled,
    /// the hot paths skip every metric touch — the configuration the
    /// observability benchmark uses as its baseline.
    #[must_use]
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Adds a device with the given id and capacity in shard blocks,
    /// using the default ([`DeviceProfile::SSD`]) performance profile.
    #[must_use]
    pub fn device(self, id: u64, capacity_blocks: u64) -> Self {
        self.device_with_profile(id, capacity_blocks, DeviceProfile::default())
    }

    /// Adds a device with an explicit performance profile for simulated
    /// I/O timing.
    #[must_use]
    pub fn device_with_profile(
        mut self,
        id: u64,
        capacity_blocks: u64,
        profile: DeviceProfile,
    ) -> Self {
        self.devices.push((id, capacity_blocks, profile));
        self
    }

    /// Builds the cluster.
    ///
    /// # Errors
    ///
    /// * [`VdsError::InvalidConfig`] for a zero block size, a block size
    ///   incompatible with the erasure geometry, or duplicate device ids
    ///   (or more than 256 shards per block).
    /// * [`VdsError::Placement`] if fewer devices than shards exist.
    pub fn build(self) -> Result<StorageCluster, VdsError> {
        if self.block_size == 0 {
            return Err(VdsError::InvalidConfig {
                reason: "block size must be positive",
            });
        }
        let codec = self.redundancy.codec()?;
        if self.redundancy.total_shards() > 256 {
            return Err(VdsError::InvalidConfig {
                reason: "a redundancy group holds at most 256 shards",
            });
        }
        let multiple = self.redundancy.block_multiple(codec.as_deref());
        if !self.block_size.is_multiple_of(multiple) {
            return Err(VdsError::InvalidConfig {
                reason: "block size must be divisible by the erasure geometry (data shards × symbol rows)",
            });
        }
        let mut ids = BTreeSet::new();
        if !self.devices.iter().all(|&(id, ..)| ids.insert(id)) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        let bins = (self.devices.iter())
            .map(|&(id, capacity, _)| Bin::new(id, capacity))
            .collect::<Result<Vec<_>, _>>()?;
        let strategy = RedundantShare::new(&BinSet::new(bins)?, self.redundancy.total_shards())?;
        let shard_len = shard_len(self.block_size, codec.as_deref());
        let metrics = self
            .metrics
            .then(|| ClusterMetrics::new(Arc::new(Registry::new())));
        let mut cluster = StorageCluster {
            devices: Vec::new(),
            positions: BTreeMap::new(),
            redundancy: self.redundancy,
            codec,
            strategy: strategy.clone(),
            targets: Vec::new(),
            block_size: self.block_size,
            table: BlockTable::new(self.redundancy.total_shards()),
            pending: BTreeSet::new(),
            placements_computed: AtomicU64::new(0),
            metrics,
            tally: Tally::default(),
            scratch: Scratch::default(),
        };
        for &(id, capacity, profile) in &self.devices {
            cluster.attach(Device::with_profile(id, capacity, shard_len, profile));
        }
        cluster.install(strategy);
        Ok(cluster)
    }
}

/// A pool of storage devices virtualized into one redundant block store.
pub struct StorageCluster {
    /// Every device ever attached, by position: the index a row word's
    /// high half names. A position is never reused. A device that leaves
    /// keeps its position, failed and with its slab freed, so a row still
    /// naming it resolves to its id and reads as missing.
    devices: Vec<Device>,
    /// The listed devices (online, failed, or draining a removal): id →
    /// position. Serves the id-keyed calls and every walk in id order.
    positions: BTreeMap<u64, u32>,
    redundancy: Redundancy,
    codec: Option<Box<dyn ErasureCode>>,
    strategy: RedundantShare,
    /// Per bin of `strategy`, by index, a row word naming its device and
    /// no slot ([`StorageCluster::install`]).
    targets: Vec<u64>,
    block_size: usize,
    /// One row per stored block: the block index, and the slots its shards
    /// were last committed to.
    table: BlockTable,
    /// Stored blocks whose shards may not sit at the target strategy's
    /// placement yet; empty when no membership change is migrating.
    pending: BTreeSet<u64>,
    /// Placements computed by the target strategy for a lookup or a write
    /// (the misses of [`StorageCluster::cache_stats`]); migrations and
    /// plans are not counted.
    placements_computed: AtomicU64,
    /// Metric handles, when recording is enabled. `None` means every hot
    /// path skips instrumentation entirely.
    metrics: Option<ClusterMetrics>,
    /// [`StorageCluster::validate`]'s scratch.
    tally: Tally,
    /// The write path's and [`land`]'s scratch.
    scratch: Scratch,
}

/// Scratch for [`StorageCluster::validate`], kept by the cluster so a
/// validation allocates nothing in the steady state. All zero and empty
/// between calls.
#[derive(Default)]
struct Tally {
    /// Per device position, indexed by [`Tally::GAINED`],
    /// [`Tally::RELEASED`] and [`Tally::KEPT`].
    slots: Vec<[u64; 3]>,
    /// The positions with a nonzero entry in `slots`.
    touched: Vec<usize>,
    /// The first slotted word of each old row, with the row's index.
    firsts: Vec<(u64, usize)>,
}

impl Tally {
    /// Slots a position gains: new words without a slot.
    const GAINED: usize = 0;
    /// Slots a position releases: old words the new rows no longer name.
    const RELEASED: usize = 1;
    /// Shards a position keeps in their slots: new words with a slot,
    /// written in place by an overwrite or left there by a move.
    const KEPT: usize = 2;

    /// Adds one to `position`'s count `side`.
    fn count(&mut self, position: usize, side: usize) {
        let entry = &mut self.slots[position];
        if *entry == [0; 3] {
            self.touched.push(position);
        }
        entry[side] += 1;
    }
}

/// Buffers the write path and the migration executor reuse from call to
/// call, so a steady-state write allocates nothing but an erasure-coded
/// batch's list of data shards, and a chunk's payloads live in one buffer.
/// Contents are meaningless between calls.
#[derive(Default)]
struct Scratch {
    /// A `write_blocks` batch's, or a migration or repair chunk's, old and
    /// new rows, flat stride-k runs.
    old: Vec<u64>,
    new: Vec<u64>,
    /// One stripe's parity shards.
    parity: Vec<Vec<u8>>,
    /// A migration or repair chunk's landing payloads, one shard after
    /// another in landing order: copied from their slots or decoded.
    chunk: Vec<u8>,
    /// [`land`]'s slots taken ahead.
    ahead: Ahead,
}

/// The fresh slots [`land`] has taken ahead: for the block landing now,
/// and for the next one.
#[derive(Default)]
struct Ahead {
    taken: Vec<u32>,
    next: Vec<u32>,
}

/// Where a commit takes the payloads of the shards it lands.
trait Payloads {
    /// Whether the payloads cover every shard of a block (a write: each
    /// shard lands in the slot its word names, or in a fresh one if the
    /// word has none) or only the words without a slot (a gathered
    /// migration or repair chunk: the shards with a slot stay as they
    /// are).
    const EVERY_SHARD: bool;

    /// Readies the next block's payloads; called once per block, in batch
    /// order, before any of the block's shards land.
    fn ready(&mut self) -> Result<(), VdsError>;

    /// The payload of shard `i` of the block last readied.
    fn shard(&mut self, i: usize) -> &[u8];
}

/// Payloads gathered up front (a migration or repair chunk): one shard
/// per word without a slot, in landing order, in one flat buffer.
impl Payloads for std::slice::ChunksExact<'_, u8> {
    const EVERY_SHARD: bool = false;

    fn ready(&mut self) -> Result<(), VdsError> {
        Ok(())
    }

    fn shard(&mut self, _: usize) -> &[u8] {
        self.next().expect("one payload per landing shard")
    }
}

/// The stripes of a `write_blocks` batch: data shards are borrowed
/// straight out of the caller's buffer, and parity is encoded per block
/// into scratch the cluster keeps.
struct Stripes<'a> {
    codec: Option<&'a dyn ErasureCode>,
    blocks: std::slice::ChunksExact<'a, u8>,
    /// The block last readied: under mirroring, every copy.
    block: &'a [u8],
    /// Its data shards under erasure coding, in a list the batch reuses;
    /// empty, and never allocated, under mirroring.
    refs: Vec<&'a [u8]>,
    parity: &'a mut [Vec<u8>],
}

impl Payloads for Stripes<'_> {
    const EVERY_SHARD: bool = true;

    fn ready(&mut self) -> Result<(), VdsError> {
        self.block = self.blocks.next().expect("one block per row");
        if let Some(codec) = self.codec {
            self.refs.clear();
            self.refs.extend(
                self.block
                    .chunks_exact(self.block.len() / codec.data_shards()),
            );
            codec.encode_parity(&self.refs, self.parity)?;
        }
        Ok(())
    }

    fn shard(&mut self, i: usize) -> &[u8] {
        match self.refs.get(i) {
            Some(data) => data,
            None if self.codec.is_none() => self.block,
            None => &self.parity[i - self.refs.len()],
        }
    }
}

/// Steps 2–4 of a commit, once [`StorageCluster::validate`] passed, for
/// the blocks `lbas` and their new rows `rows` (flat stride-k runs):
/// per block, ready its payloads, land them, restamp the row, and release
/// the old slots the new row no longer names. A word without a slot lands
/// in a fresh slot, stamped into the word, and the restamp commits it; a
/// word with one is written in place when the payloads cover every shard
/// (an overwrite) and left alone otherwise. A gathered row is always
/// restamped; a written one only if it took a fresh slot.
///
/// Every block's slots are taken and prefetched ([`take_ahead`]) one
/// block ahead: the first block's up front, and block `j + 1`'s before
/// block `j` is readied, so `j + 1`'s cache lines arrive while `j`'s
/// parity is encoded and its shards copied. A block that fails to ready
/// gives back the slots taken for it and for the next block, and a slab
/// never holds more than its live slots plus the slots the batch gains,
/// the bound `validate` checks.
fn land<P: Payloads>(
    devices: &mut [Device],
    table: &mut BlockTable,
    lbas: &[u64],
    rows: &mut [u64],
    k: usize,
    payloads: &mut P,
    ahead: &mut Ahead,
) -> Result<(), VdsError> {
    let Ahead { taken, next } = ahead;
    take_ahead::<P>(devices, rows.get(..k).unwrap_or_default(), taken);
    for (j, &lba) in lbas.iter().enumerate() {
        table.prefetch(lbas, j);
        let following = rows.get((j + 1) * k..(j + 2) * k);
        take_ahead::<P>(devices, following.unwrap_or_default(), next);
        if let Err(e) = payloads.ready() {
            let unlanded = rows[j * k..].iter().take(2 * k);
            let fresh = unlanded.filter(|&&w| slot_of(w).is_none());
            for (&word, &slot) in fresh.zip(taken.iter().chain(next.iter())) {
                devices[position_of(word)].release(slot);
            }
            return Err(e);
        }
        let row = &mut rows[j * k..(j + 1) * k];
        let mut taken_slots = taken.iter().copied();
        let mut restamp = !P::EVERY_SHARD;
        for (i, word) in row.iter_mut().enumerate() {
            let slot = match slot_of(*word) {
                Some(slot) if P::EVERY_SHARD => slot,
                Some(_) => continue,
                None => {
                    let slot = taken_slots.next().expect("one slot taken per fresh word");
                    *word |= u64::from(slot) + 1;
                    restamp = true;
                    slot
                }
            };
            devices[position_of(*word)].write(slot, payloads.shard(i));
        }
        if restamp {
            for (stamped, &n) in table.entry(lba).iter_mut().zip(row.iter()) {
                let o = std::mem::replace(stamped, n);
                if let Some(slot) = slot_of(o).filter(|_| !same_slot(o, n)) {
                    devices[position_of(o)].release(slot);
                }
            }
        }
        std::mem::swap(taken, next);
    }
    Ok(())
}

/// Takes a fresh slot into `slots` (cleared first) for every word of
/// `row` without one, then prefetches ([`prefetch_slots`]) every slot the
/// row's block will write: its fresh slots, and under payloads covering
/// every shard its in-place ones.
fn take_ahead<P: Payloads>(devices: &mut [Device], row: &[u64], slots: &mut Vec<u32>) {
    slots.clear();
    for &word in row.iter().filter(|&&w| slot_of(w).is_none()) {
        let slot = devices[position_of(word)]
            .alloc()
            .expect("validated: the device is online with room");
        slots.push(slot);
    }
    let devices = &*devices;
    let mut fresh = slots.iter();
    prefetch_slots(
        row.iter()
            .filter(|&&w| P::EVERY_SHARD || slot_of(w).is_none())
            .map(move |&w| {
                let slot = slot_of(w).or_else(|| fresh.next().copied());
                devices[position_of(w)].slot(slot.expect("one slot taken per fresh word"))
            }),
    );
}

/// Prefetches every slot of `slots`, the slots one access is about to
/// copy into or out of: every slot's first line is hinted, then each
/// slot's lines front to back, so the slots' page walks and first misses
/// overlap instead of each slot's waiting behind the previous slot's
/// lines; that measured faster than one pass slot by slot.
fn prefetch_slots<'a>(slots: impl Iterator<Item = &'a [u8]> + Clone) {
    for bytes in slots.clone() {
        prefetch(&bytes[..1]);
    }
    for bytes in slots {
        prefetch(bytes);
    }
}

/// Counters produced by one migration-executor run.
#[derive(Default)]
struct ExecOutcome {
    /// Shards whose device changed.
    moved: u64,
    /// Shards reconstructed from redundancy.
    reconstructed: u64,
    /// Shards written to a device (moved + repaired-in-place).
    stored: u64,
}

impl std::fmt::Debug for StorageCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageCluster")
            .field("devices", &self.positions.len())
            .field("redundancy", &self.redundancy)
            .field("block_size", &self.block_size)
            .field("blocks", &self.block_count())
            .finish()
    }
}

impl StorageCluster {
    /// Starts building a cluster.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            block_size: 4096,
            redundancy: Redundancy::Mirror { copies: 2 },
            devices: Vec::new(),
            metrics: true,
        }
    }

    /// The configured logical block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    fn shard_len(&self) -> usize {
        shard_len(self.block_size, self.codec.as_deref())
    }

    /// The configured redundancy scheme.
    #[must_use]
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// Ids of all devices (online and failed), ascending.
    #[must_use]
    pub fn device_ids(&self) -> Vec<u64> {
        self.positions.keys().copied().collect()
    }

    /// Read access to a device (for statistics and inspection).
    #[must_use]
    pub fn device(&self, id: u64) -> Option<&Device> {
        self.positions.get(&id).map(|&p| &self.devices[p as usize])
    }

    /// The listed devices, by ascending id.
    fn listed(&self) -> impl Iterator<Item = &Device> + '_ {
        self.positions.values().map(|&p| &self.devices[p as usize])
    }

    /// Gives `device` the next position and lists it.
    fn attach(&mut self, device: Device) {
        assert!(self.devices.len() < 1 << 24, "fewer than 2^24 devices");
        let position = self.devices.len() as u32;
        self.positions.insert(device.id(), position);
        self.devices.push(device);
        self.tally.slots.push([0; 3]);
    }

    /// Appends `lba`'s target row: one word without a slot per shard,
    /// shard `t` on the t-th device of the target placement, tagged `t`.
    fn target_row(&self, lba: u64, out: &mut Vec<u64>) {
        let at = out.len();
        self.strategy
            .place_indices(lba, |b| out.push(tagged(self.targets[b], out.len() - at)));
    }

    /// Whether a row word names the listed device `id` (for plans, whose
    /// joining device has no position). Only a failed one needs the map.
    fn names(&self, word: u64, id: u64) -> bool {
        let device = &self.devices[position_of(word)];
        device.id() == id
            && (device.state() == DeviceState::Online
                || self.positions.get(&id).map(|&p| p as usize) == Some(position_of(word)))
    }

    /// The id of the device a row word names.
    fn id_of(&self, word: u64) -> u64 {
        self.devices[position_of(word)].id()
    }

    /// Whether the shard a row word names can be read: it has a slot and
    /// its device is online.
    fn present(&self, word: u64) -> bool {
        slot_of(word).is_some() && self.devices[position_of(word)].state() == DeviceState::Online
    }

    /// Prefetches ([`prefetch_slots`]) the slots of the present words
    /// among `words`, ahead of a read that copies them. A word that is not
    /// present is skipped: it has no slot, or its device's slab is gone.
    fn prefetch_present(&self, words: impl Iterator<Item = u64> + Clone) {
        prefetch_slots(words.filter_map(|w| {
            let slot = slot_of(w).filter(|_| self.present(w))?;
            Some(self.devices[position_of(w)].slot(slot))
        }));
    }

    /// The shard a row word names, borrowed from its slot and counted as
    /// one read, if present.
    fn shard(&self, word: u64) -> Option<&[u8]> {
        slot_of(word).and_then(|slot| self.devices[position_of(word)].read(slot))
    }

    /// Number of logical blocks stored.
    #[must_use]
    pub fn block_count(&self) -> u64 {
        self.table.len() as u64
    }

    /// The bins a membership change would place over: the online devices
    /// of the current target strategy without `leave`, plus `join` as
    /// `(id, capacity)`. A device still draining from an earlier removal
    /// is outside the target strategy, so no later change re-admits it.
    fn member_bins(
        &self,
        leave: Option<u64>,
        join: Option<(u64, u64)>,
    ) -> Result<BinSet, VdsError> {
        let members = self.strategy.bin_ids();
        let bins = self
            .listed()
            .filter(|d| {
                d.state() == DeviceState::Online
                    && Some(d.id()) != leave
                    && members.contains(&BinId(d.id()))
            })
            .map(|d| (d.id(), d.capacity_blocks()))
            .chain(join)
            .map(|(id, capacity)| Bin::new(id, capacity))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BinSet::new(bins)?)
    }

    /// The device ids of `lba`'s placement in target order, not shard order:
    /// a change keeps each surviving shard on its device, so shard `i` sits
    /// on the i-th device only until a change.
    ///
    /// A stored block's are where its shards are, read from its row: during
    /// a migration, blocks not yet moved still report their pre-change
    /// locations. An unstored address reports the target placement.
    #[must_use]
    pub fn placement(&self, lba: u64) -> Vec<u64> {
        let mut out = Vec::new();
        self.placement_into(lba, &mut out);
        out
    }

    /// Like [`StorageCluster::placement`], but writes the device ids into a
    /// caller-provided buffer (cleared first) — the zero-allocation variant
    /// for callers issuing many lookups. An unstored address's placement is
    /// computed and leaves no row behind.
    pub fn placement_into(&self, lba: u64, out: &mut Vec<u64>) {
        out.clear();
        match self.table.get(lba) {
            Some(row) => {
                out.resize(row.len(), 0);
                row.iter().for_each(|&w| out[tag_of(w)] = self.id_of(w));
            }
            None => {
                self.placements_computed.fetch_add(1, Ordering::Relaxed);
                let ids = self.strategy.bin_ids();
                self.strategy.place_indices(lba, |b| out.push(ids[b].raw()));
            }
        }
    }

    /// Placement lookup counters: hits answered from a row, misses that
    /// computed a placement, and one entry per stored block.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.table.hits(),
            misses: self.placements_computed(),
            entries: self.block_count(),
        }
    }

    /// Total placements computed by the target strategy for lookups and
    /// writes since construction; lookups answered from a row do not
    /// increment this.
    #[must_use]
    pub fn placements_computed(&self) -> u64 {
        self.placements_computed.load(Ordering::Relaxed)
    }

    /// Writes one logical block: a one-element
    /// [`StorageCluster::write_blocks`].
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `data` is not exactly one block.
    /// * [`VdsError::OutOfSpace`] / [`VdsError::DeviceFailed`] from the
    ///   target devices.
    pub fn write_block(&mut self, lba: u64, data: &[u8]) -> Result<(), VdsError> {
        self.write_blocks(std::slice::from_ref(&lba), data)
    }

    /// Writes many logical blocks through the fused stripe pipeline:
    /// place and validate the whole batch, then encode → land per block
    /// through the one commit path the migration executor and repair use.
    /// Data shards are stored straight from `data` (never copied into
    /// owned shards — [`rshare_erasure::ErasureCode::encode_parity`]),
    /// and the rows, parity and slot lists live in scratch the cluster
    /// keeps, so a steady-state mirrored write allocates nothing and an
    /// erasure-coded batch only its list of data shards. An overwrite of a
    /// settled block copies each shard into the slot its row already
    /// names, and a shard its row lacks (lost, say, to
    /// [`StorageCluster::inject_shard_loss`]) into a fresh one. A write
    /// that moves the block, its first or one while it awaits migration,
    /// lands every shard in a fresh slot at the target placement and
    /// commits copy-on-write: its row is restamped only once every shard
    /// has landed, and its old slots are released after. Every block's
    /// fresh slots are taken, and the cache lines of every slot it writes
    /// loaded, before it lands (the first block's up front, each later
    /// one's while the block before it lands), so a stripe's shard copies
    /// do not wait on cold slots one at a time.
    /// `data` is the concatenation of the blocks, in `lbas` order. Encode
    /// parities stream through the tiered GF(256) kernels
    /// ([`rshare_erasure::gf256::kernel_tier`]).
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `data` is not exactly
    ///   `lbas.len()` blocks.
    /// * [`VdsError::OutOfSpace`] / [`VdsError::DeviceFailed`] from the
    ///   target devices, with no effect: every block keeps its row and
    ///   its previous value, and stays pending if it was.
    pub fn write_blocks(&mut self, lbas: &[u64], data: &[u8]) -> Result<(), VdsError> {
        let expected = lbas.len() * self.block_size;
        if data.len() != expected {
            return Err(VdsError::WrongBlockSize {
                expected,
                got: data.len(),
            });
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let landed = self.land_stripes(lbas, data, &mut scratch);
        self.scratch = scratch;
        landed?;
        let mut settled = false;
        for lba in lbas {
            settled |= self.pending.remove(lba);
        }
        if settled {
            self.retire_leavers();
        }
        if let Some(m) = &self.metrics {
            m.writes_total.add(lbas.len() as u64);
        }
        Ok(())
    }

    /// [`StorageCluster::write_blocks`]'s rows, validation and landing,
    /// in `scratch`.
    fn land_stripes(
        &mut self,
        lbas: &[u64],
        data: &[u8],
        scratch: &mut Scratch,
    ) -> Result<(), VdsError> {
        // One block-table probe per block: the row says where the block's
        // shards are, and a settled block's row is its target placement,
        // so its new row is its old one and each shard lands in the slot
        // it is in. A first write, or a write to a block awaiting
        // migration, moves the block: it lands at the computed target, and
        // the write completes the block's migration for free, shard `i` on
        // the i-th placed device. Old and new rows are flat stride-k runs;
        // a first write's old row is k absent words.
        let k = self.redundancy.total_shards();
        let Scratch { old, new, .. } = scratch;
        old.clear();
        new.clear();
        for (j, &lba) in lbas.iter().enumerate() {
            self.table.prefetch(lbas, j);
            let pending = self.pending.contains(&lba);
            let stored = if pending {
                self.table.peek(lba)
            } else {
                self.table.get(lba)
            };
            match stored {
                Some(row) if !pending => {
                    old.extend_from_slice(row);
                    new.extend_from_slice(row);
                }
                _ => {
                    old.extend((0..k).map(|i| stored.map_or(0, |row| row[i])));
                    self.placements_computed.fetch_add(1, Ordering::Relaxed);
                    self.target_row(lba, new);
                }
            }
        }
        self.validate(&scratch.old, &scratch.new)?;
        let codec = self.codec.as_deref();
        scratch
            .parity
            .resize_with(codec.map_or(0, ErasureCode::parity_shards), Vec::new);
        let mut stripes = Stripes {
            codec,
            blocks: data.chunks_exact(self.block_size),
            block: &[],
            refs: Vec::new(),
            parity: &mut scratch.parity,
        };
        land(
            &mut self.devices,
            &mut self.table,
            lbas,
            &mut scratch.new,
            k,
            &mut stripes,
            &mut scratch.ahead,
        )
    }

    /// Step 1 of a commit: checks, before anything is touched, that the
    /// rows `new` can replace the rows `old` (flat stride-k runs,
    /// parallel). Every device a `new` word names must be online: a word
    /// without a slot gains one there, and a word with one is a shard
    /// written in place (an overwrite) or kept (a move). Each device's
    /// live slots, plus the slots it gains, less the slots of `old` whose
    /// shard `new` puts elsewhere, must fit its capacity; an in-place shard
    /// gains no slot, so an overwrite needs no room. A block written twice
    /// in one batch releases its old slots once but gains any fresh slots
    /// twice, so such a batch is judged conservatively.
    fn validate(&mut self, old: &[u64], new: &[u64]) -> Result<(), VdsError> {
        let k = self.redundancy.total_shards();
        let tally = &mut self.tally;
        for &n in new {
            let side = if slot_of(n).is_none() {
                Tally::GAINED
            } else {
                Tally::KEPT
            };
            tally.count(position_of(n), side);
        }
        // A block repeated in the batch has the same old row each time,
        // and live slots are unique, so the first slotted word of an old
        // row names its block: rows sharing it release once.
        tally.firsts.extend(
            old.chunks_exact(k).enumerate().filter_map(|(j, row)| {
                row.iter().find(|&&o| slot_of(o).is_some()).map(|&o| (o, j))
            }),
        );
        tally.firsts.sort_unstable();
        tally.firsts.dedup_by_key(|&mut (first, _)| first);
        for f in 0..tally.firsts.len() {
            let j = tally.firsts[f].1;
            let run = j * k..(j + 1) * k;
            for (&o, &n) in old[run.clone()].iter().zip(&new[run]) {
                if slot_of(o).is_some() && !same_slot(o, n) {
                    tally.count(position_of(o), Tally::RELEASED);
                }
            }
        }
        tally.firsts.clear();
        // Ascending positions, so the lowest failing one is blamed.
        tally.touched.sort_unstable();
        let mut verdict = Ok(());
        for &position in &tally.touched {
            let [gained, released, kept] = std::mem::take(&mut tally.slots[position]);
            if gained + kept == 0 || verdict.is_err() {
                continue;
            }
            let device = &self.devices[position];
            // New slots are taken before old ones are released, so the
            // slab peaks at `used + gained`, and a row word holds
            // `slot + 1` in 32 bits.
            let peak = device.used_blocks() + gained;
            if device.state() != DeviceState::Online {
                verdict = Err(VdsError::DeviceFailed { id: device.id() });
            } else if peak - released > device.capacity_blocks() || peak >= u64::from(u32::MAX) {
                verdict = Err(VdsError::OutOfSpace { id: device.id() });
            }
        }
        tally.touched.clear();
        verdict
    }

    /// Reads one logical block, touching as few devices as possible:
    /// mirrored blocks read a single copy (rotated over the copies so read
    /// load follows capacity — the paper's "x% of the requests" fairness),
    /// erasure-coded blocks their data shards. A missing copy is read from
    /// the next one; missing data shards are decoded from the others.
    ///
    /// # Errors
    ///
    /// * [`VdsError::BlockNotFound`] if the block was never written.
    /// * [`VdsError::DataLoss`] if too many shards are gone.
    pub fn read_block(&self, lba: u64) -> Result<Vec<u8>, VdsError> {
        let mut block = vec![0u8; self.block_size];
        self.read_block_into(lba, &mut block)?;
        Ok(block)
    }

    /// Reads one logical block into a caller-provided buffer — the
    /// zero-allocation variant of [`StorageCluster::read_block`]: the
    /// common path copies shards straight into `buf` with no per-read
    /// `Vec` allocation. Semantics, metrics and device counters are
    /// identical to `read_block` (which delegates here).
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `buf` is not exactly one block.
    /// * Otherwise the same conditions as [`StorageCluster::read_block`].
    pub fn read_block_into(&self, lba: u64, buf: &mut [u8]) -> Result<(), VdsError> {
        if buf.len() != self.block_size {
            return Err(VdsError::WrongBlockSize {
                expected: self.block_size,
                got: buf.len(),
            });
        }
        let Some(m) = &self.metrics else {
            return self.read_into_inner(lba, buf).map(|_| ());
        };
        // Counters are exact; the latency histogram samples one read in
        // [`LATENCY_SAMPLE`] — timing every read would spend two
        // monotonic-clock reads on a cached path that otherwise costs a
        // few atomic increments. The span records when it drops at the
        // end of the success path; failed reads cancel it.
        let span = (m.reads_total.get() % LATENCY_SAMPLE == 0)
            .then(|| SpanTimer::new(&*m.read_latency_ns));
        match self.read_into_inner(lba, buf) {
            Ok(degraded) => {
                m.reads_total.inc();
                if degraded {
                    m.degraded_reads_total.inc();
                }
                Ok(())
            }
            Err(e) => {
                if let Some(span) = span {
                    span.cancel();
                }
                Err(e)
            }
        }
    }

    /// The uninstrumented read path. The boolean is `true` when the read
    /// was *degraded*: served from a non-preferred mirror copy or via
    /// erasure reconstruction.
    fn read_into_inner(&self, lba: u64, buf: &mut [u8]) -> Result<bool, VdsError> {
        // One block-table probe: a block without a row was never written;
        // a row names the slot of each of its shards.
        let row = self.table.get(lba).ok_or(VdsError::BlockNotFound { lba })?;
        let recovered = match self.codec.as_deref() {
            // Deterministic per-block copy preference: each block pins a
            // copy index, so over many blocks every bin serves reads in
            // proportion to the copies it holds (∝ capacity).
            None => {
                let preferred = stable_hash2(lba, READ_BALANCE_DOMAIN) % row.len() as u64;
                self.read_shards(lba, row, [preferred as usize].into_iter(), buf)?
            }
            // The data shards, whose d slots sit in d device slabs: all
            // are prefetched before the first copy, so their misses overlap.
            Some(codec) => {
                let d = codec.data_shards();
                self.prefetch_present(row[..d].iter().copied());
                self.read_shards(lba, row, 0..d, buf)?
            }
        };
        Ok(recovered > 0)
    }

    /// Reads the shards at positions `wanted` (ascending under erasure
    /// coding) of block `lba` into `out`, one shard per position, through
    /// `row`: where a read, a migration and a repair choose what they read.
    /// A present wanted shard is copied from its slot. A missing one is
    /// recovered: under mirroring from the first present copy after it
    /// in rotation order; under erasure coding every other present shard
    /// is prefetched and borrowed, and the missing ones are decoded into
    /// their segments, with the copied ones as survivors. Every read is
    /// the counted [`StorageCluster::shard`], and while the wanted shards
    /// are present nothing else is read. Returns how many it recovered.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if the shards left cannot recover the
    /// missing ones; `out` then holds unspecified bytes.
    fn read_shards(
        &self,
        lba: u64,
        row: &[u64],
        wanted: impl Iterator<Item = usize> + Clone,
        out: &mut [u8],
    ) -> Result<usize, VdsError> {
        let k = row.len();
        let Some(codec) = self.codec.as_deref() else {
            let mut recovered = 0;
            for (i, seg) in wanted.zip(out.chunks_exact_mut(self.block_size)) {
                let (step, copy) = (0..k)
                    .find_map(|step| Some((step, self.shard(row[(i + step) % k])?)))
                    .ok_or(VdsError::DataLoss { lba })?;
                seg.copy_from_slice(copy);
                recovered += usize::from(step > 0);
            }
            return Ok(recovered);
        };
        let len = self.block_size / codec.data_shards();
        let mut unwanted = wanted.clone().peekable();
        let others = (0..k).filter(move |&i| unwanted.next_if_eq(&i).is_none());
        let mut intact = true;
        for (i, seg) in wanted.clone().zip(out.chunks_exact_mut(len)) {
            if let Some(shard) = self.shard(row[i]) {
                seg.copy_from_slice(shard);
            } else if std::mem::take(&mut intact) {
                // The first miss hints the other shards' slots, so they
                // arrive while the remaining wanted ones are copied.
                self.prefetch_present(others.clone().map(|i| row[i]));
            }
        }
        if intact {
            return Ok(0);
        }
        let mut shards: Vec<Option<&[u8]>> = Vec::with_capacity(k);
        let mut lost: Vec<(usize, &mut [u8])> = Vec::new();
        let mut segments = wanted.zip(out.chunks_exact_mut(len)).peekable();
        for (i, &word) in row.iter().enumerate() {
            shards.push(match segments.next_if(|&(p, _)| p == i) {
                Some((_, seg)) if self.present(word) => Some(seg),
                Some((_, seg)) => {
                    lost.push((i, seg));
                    None
                }
                None => self.shard(word),
            });
        }
        codec
            .decode(&shards, &mut lost)
            .map_err(|e| decode_error(e, lba))?;
        Ok(lost.len())
    }

    /// Adds a device and migrates the shards whose computed placement
    /// changed: [`StorageCluster::add_device_lazy`], then
    /// [`StorageCluster::rebalance`].
    ///
    /// # Errors
    ///
    /// * [`VdsError::InvalidConfig`] for a duplicate id, and placement
    ///   errors such as a zero capacity, with no effect.
    /// * [`VdsError::OutOfSpace`] (naming `id`), with no effect, if the
    ///   stored blocks exceed Lemma 2.2's `B_max` over the new membership
    ///   ([`rshare_core::capacity::max_balls`]).
    /// * Migration errors from [`StorageCluster::rebalance`]. The device
    ///   and its placement stay installed; blocks not yet drained stay
    ///   readable at their old homes and counted by
    ///   [`StorageCluster::pending_blocks`], and `rebalance()` resumes the
    ///   drain.
    pub fn add_device(
        &mut self,
        id: u64,
        capacity_blocks: u64,
    ) -> Result<MigrationReport, VdsError> {
        self.stage_add(id, capacity_blocks)?;
        self.rebalance()
    }

    /// Adds a device *lazily*: the placement switches immediately, but no
    /// data moves — blocks keep resolving to their old locations, read
    /// from their rows, until they are migrated by
    /// [`StorageCluster::migrate_batch`] (or rewritten, which completes
    /// their migration for free). Returns the number of blocks awaiting
    /// migration.
    ///
    /// A migration already in flight is not drained first: the change
    /// stacks on it, and every stored block moves from its row to the new
    /// target.
    ///
    /// # Errors
    ///
    /// The validation errors of [`StorageCluster::add_device`], with no
    /// effect.
    pub fn add_device_lazy(&mut self, id: u64, capacity_blocks: u64) -> Result<u64, VdsError> {
        self.stage_add(id, capacity_blocks)?;
        Ok(self.pending_blocks())
    }

    /// Validates, gates and installs adding device `id`; moves no data.
    fn stage_add(&mut self, id: u64, capacity_blocks: u64) -> Result<(), VdsError> {
        if self.positions.contains_key(&id) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        let strategy = self.admit(&self.member_bins(None, Some((id, capacity_blocks)))?, id)?;
        self.attach(Device::new(id, capacity_blocks, self.shard_len()));
        self.install(strategy);
        Ok(())
    }

    /// Blocks still awaiting migration.
    #[must_use]
    pub fn pending_blocks(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Migrates up to `max_blocks` pending blocks (lowest addresses first)
    /// to their target placement, returning what moved. A chunk at a time,
    /// each block's row (where its shards are) is diffed against its
    /// target placement as flat stride-k runs; unchanged blocks are skipped
    /// without any device I/O, and the changed ones go through the
    /// gather/commit executor. A chunk's rows are restamped and its blocks
    /// leave the pending set only once its shards have landed. The
    /// bounded budget keeps lazy migration incremental; with no migration
    /// in flight this is a no-op reporting zeros.
    ///
    /// # Errors
    ///
    /// Device I/O errors and [`VdsError::DataLoss`] if a pending block
    /// became unrecoverable. The failing chunk has no effect: its blocks
    /// and every later one stay pending and readable at their old homes,
    /// and a later call (or [`StorageCluster::rebalance`]) resumes the
    /// drain. If a device failed mid-migration, run
    /// [`StorageCluster::rebuild`], which stacks on the remaining
    /// migration and drains both.
    pub fn migrate_batch(&mut self, max_blocks: u64) -> Result<MigrationReport, VdsError> {
        let mut report = MigrationReport::default();
        let mut lbas: Vec<u64> = Vec::new();
        let mut old_flat: Vec<u64> = Vec::new();
        loop {
            let take = (max_blocks - report.blocks).min(MIGRATION_CHUNK_BLOCKS as u64);
            lbas.clear();
            lbas.extend(self.pending.iter().take(take as usize));
            let Some(&last) = lbas.last() else {
                break;
            };
            self.rows_flat(&lbas, &mut old_flat);
            report.merge(self.rebalance_chunk(&lbas, &old_flat)?);
            // The chunk is an ascending prefix of the pending set.
            self.pending = self.pending.split_off(&(last + 1));
        }
        self.retire_leavers();
        Ok(report)
    }

    /// Drains every pending block ([`StorageCluster::migrate_batch`]
    /// without a budget). With no migration in flight this is a no-op.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::migrate_batch`].
    pub fn rebalance(&mut self) -> Result<MigrationReport, VdsError> {
        self.migrate_batch(u64::MAX)
    }

    /// Once no block is pending, every online device outside the target
    /// strategy (a removal, drained by copy) leaves the map. It keeps its
    /// position, failed and with its slab freed.
    fn retire_leavers(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        let members = self.strategy.bin_ids();
        let devices = &mut self.devices;
        self.positions.retain(|_, &mut p| {
            let d = &mut devices[p as usize];
            let stays = d.state() != DeviceState::Online || members.contains(&BinId(d.id()));
            debug_assert!(
                stays || d.used_blocks() == 0,
                "graceful removal must drain the device"
            );
            if !stays {
                d.fail();
            }
            stays
        });
    }

    /// Copies the rows of the stored blocks `lbas` into `out` (cleared
    /// first) as one flat stride-k run of row words, parallel to `lbas`.
    fn rows_flat(&self, lbas: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(lbas.len() * self.redundancy.total_shards());
        for (j, &lba) in lbas.iter().enumerate() {
            self.table.prefetch(lbas, j);
            out.extend_from_slice(self.table.peek(lba).expect("a stored block has a row"));
        }
    }

    /// Migrates one chunk of blocks from their `old_flat` rows (flat
    /// stride-k row words, parallel to `lbas`) to the current target
    /// strategy. Blocks whose devices are unchanged are skipped without
    /// touching any device; latent shard losses are
    /// [`StorageCluster::repair`]'s job. The moved blocks commit through
    /// the migration executor, which restamps their rows.
    fn rebalance_chunk(
        &mut self,
        lbas: &[u64],
        old_flat: &[u64],
    ) -> Result<MigrationReport, VdsError> {
        let k = self.redundancy.total_shards();
        let mut report = MigrationReport {
            blocks: lbas.len() as u64,
            shards_total: (lbas.len() * k) as u64,
            ..MigrationReport::default()
        };
        // The target rows as one flat stride-k run, parallel to `old_flat`.
        // A block is work unless each shard sits on the device its tag's
        // target names, so that pairing by position keeps all, tags too.
        let mut new_flat: Vec<u64> = Vec::with_capacity(lbas.len() * k);
        for &lba in lbas {
            self.target_row(lba, &mut new_flat);
        }
        let work: Vec<usize> = (old_flat.chunks_exact(k).zip(new_flat.chunks_exact(k)))
            .enumerate()
            .filter(|(_, (old, new))| {
                (old.iter()).any(|&o| position_of(o) != position_of(new[tag_of(o)]))
            })
            .map(|(j, _)| j)
            .collect();
        if work.is_empty() {
            return Ok(report);
        }
        let outcome = self.execute_block_ops(lbas, &work, old_flat, &new_flat)?;
        report.shards_moved = outcome.moved;
        report.shards_reconstructed = outcome.reconstructed;
        Ok(report)
    }

    /// Per shard of the `old` row, the `new` index it goes to and whether it
    /// moves (`same`: an old word and a new entry name one device). A shard
    /// whose device stays in the set keeps it; each device new to the set
    /// takes, ascending, the shard of the next device that leaves it.
    fn pairing<'a>(
        old: &'a [u64],
        new: &'a [u64],
        same: impl Fn(u64, u64) -> bool + Copy + 'a,
    ) -> impl Iterator<Item = (usize, bool)> + Clone + 'a {
        let mut joining = (0..new.len()).filter(move |&t| !old.iter().any(|&o| same(o, new[t])));
        old.iter()
            .map(move |&o| match new.iter().position(|&n| same(o, n)) {
                Some(t) => (t, false),
                None => (joining.next().expect("as many devices join as leave"), true),
            })
    }

    /// The shards a gather reads: each moving or absent one.
    fn reads<'a>(
        &'a self,
        old: &'a [u64],
        new: &'a [u64],
    ) -> impl Iterator<Item = usize> + Clone + 'a {
        Self::pairing(old, new, |o, n| position_of(o) == position_of(n))
            .zip(old)
            .enumerate()
            .filter_map(move |(i, ((_, moves), &o))| (moves || !self.present(o)).then_some(i))
    }

    /// Read-only gather for one migrating or repaired block: appends its new
    /// row to `rows` and each landing shard's payload to `lands`. A present
    /// shard staying on its device ([`StorageCluster::pairing`]) keeps its
    /// slot and takes its `new` entry's tag. Each other lands on its `new`
    /// device, read from its `old` slot or recovered, and while those are
    /// present nothing else is read ([`StorageCluster::read_shards`]).
    fn gather_block(
        &self,
        lba: u64,
        old: &[u64],
        new: &[u64],
        rows: &mut Vec<u64>,
        lands: &mut Vec<u8>,
        outcome: &mut ExecOutcome,
    ) -> Result<(), VdsError> {
        let pairs = Self::pairing(old, new, |o, n| position_of(o) == position_of(n));
        for ((t, moves), &o) in pairs.zip(old) {
            outcome.moved += u64::from(moves);
            let keeps = !moves && self.present(o);
            let word = if keeps { o } else { new[t] & !SLOT_MASK };
            rows.push(tagged(word, tag_of(new[t])));
        }
        let landing = self.reads(old, new);
        let (from, count) = (lands.len(), landing.clone().count());
        outcome.stored += count as u64;
        lands.resize(from + count * self.shard_len(), 0);
        let recovered = self.read_shards(lba, old, landing, &mut lands[from..])?;
        outcome.reconstructed += recovered as u64;
        Ok(())
    }

    /// The migration executor, shared by migrations and repair. Gather:
    /// each block in `work` (indices into `lbas`) builds its new row
    /// against `new_flat` (row words naming the target devices) and reads
    /// or recovers its landing shards into the cluster's chunk buffer
    /// ([`StorageCluster::gather_block`]), with the slots the next block's
    /// gather reads (every present one if one is absent) prefetched before
    /// it. One validation then covers the whole chunk, so an `Err` touches
    /// nothing, and each block commits from the buffer.
    fn execute_block_ops(
        &mut self,
        lbas: &[u64],
        work: &[usize],
        old_flat: &[u64],
        new_flat: &[u64],
    ) -> Result<ExecOutcome, VdsError> {
        let (k, len) = (self.redundancy.total_shards(), self.shard_len());
        let mut outcome = ExecOutcome::default();
        // Taken for the call: a chunk that fails drops it, and the next
        // call grows fresh buffers.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.old.clear();
        scratch.new.clear();
        for (n, &j) in work.iter().enumerate() {
            if let Some(&next) = work.get(n + 1) {
                let (old, new) = (&old_flat[next * k..][..k], &new_flat[next * k..][..k]);
                let words = self.reads(old, new).map(|j| old[j]);
                if words.clone().all(|w| self.present(w)) {
                    self.prefetch_present(words);
                } else {
                    self.prefetch_present(old.iter().copied());
                }
            }
            let run = j * k..(j + 1) * k;
            scratch.old.extend_from_slice(&old_flat[run.clone()]);
            self.gather_block(
                lbas[j],
                &old_flat[run.clone()],
                &new_flat[run],
                &mut scratch.new,
                &mut scratch.chunk,
                &mut outcome,
            )?;
        }
        self.validate(&scratch.old, &scratch.new)?;
        let moving: Vec<u64> = work.iter().map(|&j| lbas[j]).collect();
        land(
            &mut self.devices,
            &mut self.table,
            &moving,
            &mut scratch.new,
            k,
            &mut scratch.chunk.chunks_exact(len),
            &mut scratch.ahead,
        )?;
        scratch.chunk.clear();
        scratch.chunk.shrink_to(MIGRATION_CHUNK_BLOCKS * len); // one shard per block
        self.scratch = scratch;
        if let Some(m) = &self.metrics {
            m.migration_moves_executed_total.add(outcome.moved);
            m.shards_reconstructed_total.add(outcome.reconstructed);
        }
        Ok(outcome)
    }

    /// Gracefully removes a device: it leaves the target placement at
    /// once, and the map once [`StorageCluster::rebalance`] has copied its
    /// shards off.
    ///
    /// # Errors
    ///
    /// * [`VdsError::UnknownDevice`] if no such device exists.
    /// * [`VdsError::OutOfSpace`] (naming `id`), with no effect, if the
    ///   stored blocks exceed Lemma 2.2's `B_max` over the surviving
    ///   members ([`rshare_core::capacity::max_balls`]).
    /// * Placement errors, with no effect, if too few devices would remain.
    /// * Migration errors from [`StorageCluster::rebalance`]. The device
    ///   stays in the map, outside every later placement, until its shards
    ///   have drained; blocks not yet drained stay readable at their old
    ///   homes and counted by [`StorageCluster::pending_blocks`], and
    ///   `rebalance()` resumes the drain.
    pub fn remove_device(&mut self, id: u64) -> Result<MigrationReport, VdsError> {
        let device = self.device(id).ok_or(VdsError::UnknownDevice { id })?;
        let failed = device.state() == DeviceState::Failed;
        let strategy = self.admit(&self.member_bins(Some(id), None)?, id)?;
        if failed {
            // Nothing to copy off: its shards are rebuilt from redundancy.
            self.positions.remove(&id);
        }
        self.install(strategy);
        self.rebalance()
    }

    /// Marks a device as crashed; its contents are lost and reads degrade
    /// until [`StorageCluster::rebuild`] runs.
    ///
    /// # Errors
    ///
    /// [`VdsError::UnknownDevice`] if no such device exists.
    pub fn fail_device(&mut self, id: u64) -> Result<(), VdsError> {
        let position = *self
            .positions
            .get(&id)
            .ok_or(VdsError::UnknownDevice { id })?;
        self.devices[position as usize].fail();
        Ok(())
    }

    /// Re-protects all data after failures: drops failed devices, places
    /// over the survivors, reconstructs lost shards from redundancy and
    /// migrates shards to their new locations. Without a failed device it
    /// only resumes any pending migration ([`StorageCluster::rebalance`]).
    /// A mirror block regains a lost copy from a survivor, whose slot stays.
    ///
    /// # Errors
    ///
    /// * [`VdsError::OutOfSpace`] (naming the first failed device), with
    ///   no effect, if the stored blocks exceed Lemma 2.2's `B_max` over
    ///   the surviving members ([`rshare_core::capacity::max_balls`]).
    /// * Placement errors, with no effect, if too few devices survive.
    /// * Migration errors from [`StorageCluster::rebalance`], such as
    ///   [`VdsError::DataLoss`] if a block lost more shards than the
    ///   redundancy tolerates. The failed devices have left the map and
    ///   the new placement is installed; every other block not yet
    ///   drained stays readable and pending, and `rebalance()` resumes
    ///   the drain.
    pub fn rebuild(&mut self) -> Result<MigrationReport, VdsError> {
        let Some(blame) = self
            .listed()
            .find(|d| d.state() == DeviceState::Failed)
            .map(Device::id)
        else {
            return self.rebalance();
        };
        let strategy = self.admit(&self.member_bins(None, None)?, blame)?;
        let devices = &self.devices;
        self.positions
            .retain(|_, &mut p| devices[p as usize].state() != DeviceState::Failed);
        self.install(strategy);
        self.rebalance()
    }

    /// Builds the strategy over `set`, then gates it: the stored blocks
    /// must fit Lemma 2.2's `B_max` over `set`, or the change could only
    /// fail part-way. Rejects with `OutOfSpace` naming `blame`, the device
    /// whose change is refused.
    fn admit(&self, set: &BinSet, blame: u64) -> Result<RedundantShare, VdsError> {
        let k = self.redundancy.total_shards();
        let strategy = RedundantShare::new(set, k)?;
        // `BinSet` keeps its bins in descending capacity order.
        let capacities: Vec<u64> = set.bins().iter().map(Bin::capacity).collect();
        if max_balls(&capacities, k) < self.block_count() {
            return Err(VdsError::OutOfSpace { id: blame });
        }
        Ok(strategy)
    }

    /// Makes `strategy` (every bin a listed device) the target, with its
    /// [`StorageCluster::targets`], and marks every stored block pending:
    /// each moves from its row to the new target, whatever put it there.
    fn install(&mut self, strategy: RedundantShare) {
        let positions = &self.positions;
        self.targets = (strategy.bin_ids().iter())
            .map(|id| u64::from(positions[&id.raw()]) << 32)
            .collect();
        self.strategy = strategy;
        let mut lbas: Vec<u64> = self.table.rows().map(|(lba, _)| lba).collect();
        // Sorted up front, so the set is bulk-built from a sorted run.
        lbas.sort_unstable();
        self.pending = lbas.into_iter().collect();
    }

    /// Verifies that every block is readable; returns the number of blocks
    /// currently degraded (readable only through reconstruction). Each is
    /// read from its peeked row ([`StorageCluster::read_shards`]), so only
    /// device reads count, no request series.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] on the first unrecoverable block.
    pub fn scrub(&mut self) -> Result<u64, VdsError> {
        let mut degraded: Vec<u64> = self.degraded_blocks().collect();
        degraded.sort_unstable();
        let data = 0..self.codec.as_deref().map_or(1, ErasureCode::data_shards);
        let mut block = vec![0u8; self.block_size];
        for &lba in &degraded {
            let row = self.table.peek(lba).expect("a stored block has a row");
            self.read_shards(lba, row, data.clone(), &mut block)?;
        }
        Ok(degraded.len() as u64)
    }

    /// Repairs degraded blocks in place: any shard missing from the device
    /// its row names (e.g. lost to a transient device error) is
    /// reconstructed from the group's redundancy and committed to a fresh
    /// slot on that device, without changing any placement. Returns the
    /// number of shards repaired.
    ///
    /// Contrast with [`StorageCluster::rebuild`], which removes failed
    /// devices and relocates data; `repair` restores redundancy when the
    /// device set is unchanged.
    ///
    /// Reconstruction is fused per chunk: degraded stripes are gathered,
    /// decoded and re-stored through the batched block-op executor, and
    /// the decode itself runs through the tiered GF(256) kernels
    /// ([`rshare_erasure::gf256::kernel_tier`]): one
    /// [`rshare_erasure::gf256::mul_rows`] call computes a stripe's lost
    /// shards, data and parity alike, from its survivors.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if a block lost more shards than the
    /// redundancy tolerates; device I/O errors on the re-stores.
    pub fn repair(&mut self) -> Result<u64, VdsError> {
        let mut degraded: Vec<u64> = self.degraded_blocks().collect();
        degraded.sort_unstable();
        let mut repaired = 0u64;
        let mut flat: Vec<u64> = Vec::new();
        for chunk in degraded.chunks(MIGRATION_CHUNK_BLOCKS) {
            self.rows_flat(chunk, &mut flat);
            // Pipelined through the migration executor with every shard
            // staying on its device: each degraded stripe is gathered and
            // decoded exactly once, and only the absent shards land.
            let work: Vec<usize> = (0..chunk.len()).collect();
            let outcome = self.execute_block_ops(chunk, &work, &flat, &flat)?;
            repaired += outcome.stored;
            if let Some(m) = &self.metrics {
                m.repair_blocks_total.add(chunk.len() as u64);
            }
        }
        Ok(repaired)
    }

    /// The simulated completion time of everything the cluster has done so
    /// far: the largest per-device busy time, i.e. the makespan assuming
    /// all devices operate in parallel.
    #[must_use]
    pub fn makespan_us(&self) -> u64 {
        self.listed().map(|d| d.stats().busy_us).max().unwrap_or(0)
    }

    /// Clears every device's I/O counters (e.g. to time one workload phase
    /// in isolation).
    pub fn reset_stats(&mut self) {
        for &p in self.positions.values() {
            self.devices[p as usize].reset_stats();
        }
    }

    /// Dry-runs adding a device: returns the migration plan without
    /// moving any data or changing the cluster.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::add_device`].
    pub fn plan_add_device(
        &self,
        id: u64,
        capacity_blocks: u64,
    ) -> Result<MigrationPlan, VdsError> {
        if self.positions.contains_key(&id) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        let set = self.member_bins(None, Some((id, capacity_blocks)))?;
        // Fair minimum (Lemma 3.2): any strategy must move the new
        // device's capacity share of all shards onto it.
        let shards_total = self.block_count() as f64 * self.redundancy.total_shards() as f64;
        let fair_min = shards_total * capacity_blocks as f64 / set.total_capacity() as f64;
        self.plan_against(&set, fair_min)
    }

    /// Dry-runs removing a device: returns the migration plan without
    /// moving any data or changing the cluster.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::remove_device`].
    pub fn plan_remove_device(&self, id: u64) -> Result<MigrationPlan, VdsError> {
        let leaving = self.device(id).ok_or(VdsError::UnknownDevice { id })?;
        // Fair minimum (Lemma 3.2): the shards resident on the leaving
        // device must move, whatever the strategy.
        let fair_min = leaving.used_blocks() as f64;
        self.plan_against(&self.member_bins(Some(id), None)?, fair_min)
    }

    /// Dry-runs [`StorageCluster::rebuild`]: the migration plan for
    /// dropping every failed device, without touching any data. With no
    /// failed devices the bin set is unchanged and the plan is empty.
    ///
    /// # Errors
    ///
    /// Placement errors if too few devices survive.
    pub fn plan_rebuild(&self) -> Result<MigrationPlan, VdsError> {
        let failed: BTreeSet<u64> = self
            .listed()
            .filter(|d| d.state() == DeviceState::Failed)
            .map(Device::id)
            .collect();
        let mut plan = self.plan_against(&self.member_bins(None, None)?, 0.0)?;
        // Fair minimum: every shard placed on a failed device must move,
        // and the candidate excludes failed devices, so those shards are
        // exactly the moves leaving them.
        plan.fair_min_shards = plan
            .moves
            .iter()
            .filter(|m| failed.contains(&m.from))
            .count() as f64;
        Ok(plan)
    }

    /// Pairs every stored block's row with its placement under a
    /// hypothetical bin set ([`StorageCluster::pairing`], as the executor
    /// does), block by block in table order, so unchanged blocks, the
    /// common case under 2–4-competitive churn, cost one scan and one
    /// compare. A block still awaiting migration is planned from where its
    /// shards are. The moves are sorted by `(from, to, lba, copy)`.
    fn plan_against(&self, bins: &BinSet, fair_min_shards: f64) -> Result<MigrationPlan, VdsError> {
        let k = self.redundancy.total_shards();
        let candidate = RedundantShare::new(bins, k)?;
        let blocks = self.block_count();
        let mut plan = MigrationPlan {
            shards_total: blocks * k as u64,
            blocks_total: blocks,
            fair_min_shards,
            ..MigrationPlan::default()
        };
        let (ids, mut new) = (candidate.bin_ids(), Vec::with_capacity(k));
        for (lba, old) in self.table.rows() {
            new.clear();
            candidate.place_indices(lba, |b| new.push(ids[b].raw()));
            let before = plan.moves.len();
            let pairs = Self::pairing(old, &new, |o, n| self.names(o, n));
            for (copy, ((t, moves), &o)) in pairs.zip(old).enumerate() {
                if moves {
                    plan.moves.push(ShardMove {
                        lba,
                        copy,
                        from: self.id_of(o),
                        to: new[t],
                    });
                }
            }
            if plan.moves.len() > before {
                plan.blocks_planned += 1;
            }
        }
        plan.moves
            .sort_unstable_by_key(|m| (m.from, m.to, m.lba, m.copy));
        if let Some(m) = &self.metrics {
            m.migration_moves_planned_total.add(plan.moves.len() as u64);
        }
        Ok(plan)
    }

    /// Deletes one shard from its device — fault injection for tests and
    /// chaos experiments (a latent sector error, in disk terms). Returns
    /// `true` if the shard existed. The block becomes degraded until
    /// [`StorageCluster::repair`] or [`StorageCluster::rebuild`] runs.
    pub fn inject_shard_loss(&mut self, lba: u64, copy: usize) -> bool {
        let Some(&word) = self.table.peek(lba).and_then(|row| row.get(copy)) else {
            return false;
        };
        let Some(slot) = slot_of(word).filter(|_| self.present(word)) else {
            return false;
        };
        // The row stops naming the slot before it is released.
        self.table.entry(lba)[copy] = word & !SLOT_MASK;
        self.devices[position_of(word)].release(slot);
        true
    }

    /// Per-device `(id, used, capacity)` utilisation snapshot.
    #[must_use]
    pub fn utilization(&self) -> Vec<(u64, u64, u64)> {
        self.listed()
            .map(|d| (d.id(), d.used_blocks(), d.capacity_blocks()))
            .collect()
    }

    /// Live fairness report over the online devices: every device's share
    /// of the stored shards against its fair share `b'_i / B'` over Lemma
    /// 2.2's adjusted capacities — the paper's Lemma 3.1, measured instead
    /// of proved.
    #[must_use]
    pub fn fairness_report(&self) -> FairnessReport {
        let rows: Vec<(u64, u64, u64)> = self
            .listed()
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| (d.id(), d.used_blocks(), d.capacity_blocks()))
            .collect();
        FairnessReport::compute(&rows, self.redundancy.total_shards())
    }

    /// Number of blocks currently missing at least one shard: a row word
    /// without a slot, or naming a failed device. Reads rows without
    /// counting a hit, so scrape-time accounting does not distort the hit
    /// series.
    #[must_use]
    pub fn degraded_block_count(&self) -> u64 {
        self.degraded_blocks().count() as u64
    }

    /// Every stored block missing a shard, in table order: the one
    /// degraded-block walk of scrub, repair and the health snapshot.
    fn degraded_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.table
            .rows()
            .filter(|(_, row)| !row.iter().all(|&w| self.present(w)))
            .map(|(lba, _)| lba)
    }

    /// A point-in-time health summary: device counts, migration debt,
    /// degraded blocks and the fairness report. When metrics are enabled
    /// the corresponding gauges (`pending_blocks`, `degraded_blocks`,
    /// `devices_online`, `devices_failed`) are refreshed as a side effect,
    /// so scraping after a snapshot always sees current values.
    #[must_use]
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let devices_online = self
            .listed()
            .filter(|d| d.state() == DeviceState::Online)
            .count();
        let snap = HealthSnapshot {
            devices_online,
            devices_failed: self.positions.len() - devices_online,
            blocks: self.block_count(),
            pending_blocks: self.pending_blocks(),
            degraded_blocks: self.degraded_block_count(),
            fairness: self.fairness_report(),
        };
        if let Some(m) = &self.metrics {
            m.pending_blocks.set(snap.pending_blocks as i64);
            m.degraded_blocks.set(snap.degraded_blocks as i64);
            m.devices_online.set(snap.devices_online as i64);
            m.devices_failed.set(snap.devices_failed as i64);
        }
        snap
    }

    /// The registry the cluster's series live in, when metrics are
    /// enabled — programmatic access to every counter and histogram by
    /// name.
    #[must_use]
    pub fn metrics_registry(&self) -> Option<Arc<Registry>> {
        self.metrics.as_ref().map(|m| Arc::clone(&m.registry))
    }

    /// Renders the cluster's full observability surface in Prometheus
    /// text exposition format: the registered series (when metrics are
    /// enabled), scrape-time cluster families (fairness, cache, placement
    /// counters), one labelled series per device for the I/O statistics,
    /// and the GF(256) kernel tier as an info gauge.
    #[must_use]
    pub fn export_prometheus(&self) -> String {
        let snap = self.health_snapshot(); // refreshes the health gauges
        let mut out = match &self.metrics {
            Some(m) => m.registry.render_prometheus(),
            None => String::new(),
        };
        family_header(&mut out, "cluster_blocks", "gauge", "Logical blocks stored");
        sample_line(&mut out, "cluster_blocks", &[], snap.blocks);
        family_header(
            &mut out,
            "fairness_max_deviation",
            "gauge",
            "Largest relative deviation of any online device's data share from its Lemma 2.2 fair share b'_i/B'",
        );
        sample_line(
            &mut out,
            "fairness_max_deviation",
            &[],
            format!("{:.6}", snap.fairness.max_deviation),
        );
        let cs = self.cache_stats();
        family_header(
            &mut out,
            "placement_cache_hits_total",
            "counter",
            "Placement lookups answered from a stored block's row",
        );
        sample_line(&mut out, "placement_cache_hits_total", &[], cs.hits);
        family_header(
            &mut out,
            "placement_cache_misses_total",
            "counter",
            "Placement lookups that computed a placement",
        );
        sample_line(&mut out, "placement_cache_misses_total", &[], cs.misses);
        family_header(
            &mut out,
            "placement_cache_entries",
            "gauge",
            "Block-table rows, one per stored block",
        );
        sample_line(&mut out, "placement_cache_entries", &[], cs.entries);
        family_header(
            &mut out,
            "placements_computed_total",
            "counter",
            "Placements computed by a strategy (lookups answered from a row excluded)",
        );
        sample_line(
            &mut out,
            "placements_computed_total",
            &[],
            self.placements_computed(),
        );
        self.render_device_families(&mut out);
        family_header(
            &mut out,
            "gf256_kernel_info",
            "gauge",
            "The GF(256) kernel tier serving this process's codec work (always 1)",
        );
        let tier = kernel_tier().name();
        sample_line(&mut out, "gf256_kernel_info", &[("tier", tier)], 1);
        out
    }

    /// Renders the per-device series (`device="<id>"`-labelled), one
    /// family at a time in exposition order.
    fn render_device_families(&self, out: &mut String) {
        /// `(name, kind, help, per-device value)` of one exported family.
        type DeviceFamily = (&'static str, &'static str, &'static str, fn(&Device) -> u64);
        let families: [DeviceFamily; 8] = [
            ("device_reads_total", "counter", "Shard reads served", |d| {
                d.stats().reads
            }),
            (
                "device_writes_total",
                "counter",
                "Shard writes stored",
                |d| d.stats().writes,
            ),
            ("device_bytes_read_total", "counter", "Bytes read", |d| {
                d.stats().bytes_read
            }),
            (
                "device_bytes_written_total",
                "counter",
                "Bytes written",
                |d| d.stats().bytes_written,
            ),
            (
                "device_busy_us_total",
                "counter",
                "Simulated busy time in microseconds",
                |d| d.stats().busy_us,
            ),
            (
                "device_used_blocks",
                "gauge",
                "Shards currently resident",
                |d| d.used_blocks(),
            ),
            (
                "device_capacity_blocks",
                "gauge",
                "Capacity in shard blocks",
                |d| d.capacity_blocks(),
            ),
            (
                "device_online",
                "gauge",
                "1 when the device serves I/O, 0 when failed",
                |d| u64::from(d.state() == DeviceState::Online),
            ),
        ];
        for (name, kind, help, value) in families {
            family_header(out, name, kind, help);
            for dev in self.listed() {
                let id = dev.id().to_string();
                sample_line(out, name, &[("device", id.as_str())], value(dev));
            }
        }
    }
}

/// The error of a failed decode of block `lba`: too few shards left is
/// data loss.
fn decode_error(e: ErasureError, lba: u64) -> VdsError {
    match e {
        ErasureError::TooManyErasures { .. } => VdsError::DataLoss { lba },
        other => VdsError::Erasure(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(seed: u8, size: usize) -> Vec<u8> {
        (0..size).map(|i| seed.wrapping_add(i as u8)).collect()
    }

    /// True iff all device ids are pairwise distinct, sorting in `scratch`
    /// instead of cloning the placement per check.
    fn all_distinct(ids: &[u64], scratch: &mut Vec<u64>) -> bool {
        scratch.clear();
        scratch.extend_from_slice(ids);
        scratch.sort_unstable();
        scratch.windows(2).all(|w| w[0] != w[1])
    }

    fn mirror_cluster() -> StorageCluster {
        StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .build()
            .unwrap()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        for lba in 0..200u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        assert_eq!(c.block_count(), 200);
        assert!(matches!(
            c.read_block(10_000),
            Err(VdsError::BlockNotFound { lba: 10_000 })
        ));
        assert!(matches!(
            c.write_block(0, &[0u8; 7]),
            Err(VdsError::WrongBlockSize {
                expected: 64,
                got: 7
            })
        ));
    }

    /// Per-device `writes` counters, by device id.
    fn device_writes(c: &StorageCluster) -> BTreeMap<u64, u64> {
        c.device_ids()
            .into_iter()
            .map(|id| (id, c.device(id).unwrap().stats().writes))
            .collect()
    }

    /// Asserts every block in `lbas` reads back as `expect(lba)` and every
    /// device's `writes` counter grew by exactly the shards of `lbas`
    /// placed on it since `before`.
    fn assert_writes_landed(
        c: &StorageCluster,
        before: &BTreeMap<u64, u64>,
        lbas: &[u64],
        expect: impl Fn(u64) -> Vec<u8>,
    ) {
        let mut placed: BTreeMap<u64, u64> = BTreeMap::new();
        for &lba in lbas {
            assert_eq!(c.read_block(lba).unwrap(), expect(lba), "lba {lba}");
            for dev in c.placement(lba) {
                *placed.entry(dev).or_default() += 1;
            }
        }
        for (id, writes) in device_writes(c) {
            assert_eq!(
                writes - before[&id],
                placed.get(&id).copied().unwrap_or(0),
                "device {id} writes"
            );
        }
    }

    #[test]
    fn writes_read_back_and_count_one_write_per_placed_shard() {
        let rs = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .device(4, 10_000)
            .device(5, 10_000)
            .device(6, 10_000)
            .build()
            .unwrap();
        for mut c in [rs, mirror_cluster()] {
            let lbas: Vec<u64> = (0..300u64).collect();
            let mut data = Vec::new();
            for &lba in &lbas {
                data.extend_from_slice(&block(lba as u8, 64));
            }
            let before = device_writes(&c);
            c.write_blocks(&lbas, &data).unwrap();
            assert_eq!(c.block_count(), 300);
            assert_writes_landed(&c, &before, &lbas, |lba| block(lba as u8, 64));
            // Single-block overwrites take the same path.
            let before = device_writes(&c);
            let odd: Vec<u64> = (1..300u64).step_by(2).collect();
            for &lba in &odd {
                c.write_block(lba, &block(!(lba as u8), 64)).unwrap();
            }
            assert_eq!(c.block_count(), 300);
            assert_writes_landed(&c, &before, &odd, |lba| block(!(lba as u8), 64));
            // Batch size validation.
            assert!(matches!(
                c.write_blocks(&[0, 1], &[0u8; 64]),
                Err(VdsError::WrongBlockSize {
                    expected: 128,
                    got: 64
                })
            ));
            // Empty batch is a no-op.
            c.write_blocks(&[], &[]).unwrap();
        }
    }

    #[test]
    fn read_block_into_matches_read_block() {
        let mut c = mirror_cluster();
        for lba in 0..50u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for lba in 0..50u64 {
            c.read_block_into(lba, &mut buf).unwrap();
            assert_eq!(buf, block(lba as u8, 64));
        }
        assert!(matches!(
            c.read_block_into(0, &mut [0u8; 7]),
            Err(VdsError::WrongBlockSize {
                expected: 64,
                got: 7
            })
        ));
        assert!(matches!(
            c.read_block_into(9_999, &mut buf),
            Err(VdsError::BlockNotFound { lba: 9_999 })
        ));
    }

    #[test]
    fn sixty_four_device_cluster_round_trips_on_distinct_devices() {
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in 0..64u64 {
            b = b.device(id, 5_000 + id * 13);
        }
        let mut c = b.build().unwrap();
        let mut placement = Vec::new();
        let mut scratch = Vec::new();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
            c.placement_into(lba, &mut placement);
            assert!(all_distinct(&placement, &mut scratch), "distinct devices");
        }
        for lba in 0..300u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn copies_land_on_distinct_devices() {
        let mut c = mirror_cluster();
        let mut placement = Vec::new();
        let mut scratch = Vec::new();
        for lba in 0..500u64 {
            c.write_block(lba, &block(1, 64)).unwrap();
            c.placement_into(lba, &mut placement);
            assert!(all_distinct(&placement, &mut scratch));
        }
    }

    #[test]
    fn degraded_read_after_failure() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(2).unwrap();
        for lba in 0..300u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn rebuild_restores_full_redundancy() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(1).unwrap();
        let report = c.rebuild().unwrap();
        assert!(report.shards_reconstructed > 0);
        assert_eq!(c.device_ids(), vec![0, 2, 3]);
        // After rebuild every block is fully replicated again.
        assert_eq!(c.scrub().unwrap(), 0);
        for lba in 0..300u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn double_failure_under_mirroring_loses_data() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(7, 64)).unwrap();
        }
        c.fail_device(0).unwrap();
        c.fail_device(1).unwrap();
        // Some block surely had both copies on devices 0 and 1.
        let result = c.rebuild();
        assert!(matches!(result, Err(VdsError::DataLoss { .. })));
    }

    #[test]
    fn add_device_migrates_proportionally() {
        let mut c = mirror_cluster();
        for lba in 0..2_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let report = c.add_device(9, 10_000).unwrap();
        // New device owns 1/5 of the capacity; with k = 2 the paper's bound
        // allows up to ~4ξ movement.
        let frac = report.moved_fraction();
        assert!(frac > 0.10 && frac < 0.65, "moved fraction {frac}");
        // Everything still readable, fully replicated.
        assert_eq!(c.scrub().unwrap(), 0);
        let new_used = c.device(9).unwrap().used_blocks();
        assert!(new_used > 0);
    }

    #[test]
    fn remove_device_drains_it() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let report = c.remove_device(3).unwrap();
        assert!(report.shards_moved > 0);
        assert_eq!(c.device_ids(), vec![0, 1, 2]);
        assert_eq!(c.scrub().unwrap(), 0);
        for lba in 0..1_000u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn erasure_coded_cluster_survives_double_failure() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Rdp { p: 5 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .device(4, 10_000)
            .device(5, 10_000)
            .device(6, 10_000)
            .device(7, 10_000)
            .build()
            .unwrap();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(0).unwrap();
        c.fail_device(4).unwrap();
        for lba in 0..200u64 {
            assert_eq!(
                c.read_block(lba).unwrap(),
                block(lba as u8, 64),
                "lba {lba}"
            );
        }
        let report = c.rebuild().unwrap();
        assert!(report.shards_reconstructed > 0);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn heterogeneous_utilization_tracks_capacity() {
        let mut c = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 5_000)
            .device(1, 10_000)
            .device(2, 15_000)
            .device(3, 20_000)
            .build()
            .unwrap();
        for lba in 0..8_000u64 {
            c.write_block(lba, &block(lba as u8, 16)).unwrap();
        }
        let util = c.utilization();
        let fractions: Vec<f64> = util
            .iter()
            .map(|(_, used, cap)| *used as f64 / *cap as f64)
            .collect();
        // Fairness: all devices should be roughly equally full.
        let avg: f64 = fractions.iter().sum::<f64>() / fractions.len() as f64;
        for (i, f) in fractions.iter().enumerate() {
            assert!(
                (f - avg).abs() / avg < 0.06,
                "device {i} utilisation {f:.4} vs avg {avg:.4}"
            );
        }
    }

    #[test]
    fn mirror_reads_touch_one_device_and_follow_capacity() {
        let mut c = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 20_000)
            .device(2, 30_000)
            .device(3, 40_000)
            .build()
            .unwrap();
        let blocks = 6_000u64;
        for lba in 0..blocks {
            c.write_block(lba, &block(lba as u8, 16)).unwrap();
        }
        for lba in 0..blocks {
            c.read_block(lba).unwrap();
        }
        let total_reads: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        // One shard read per block read.
        assert_eq!(total_reads, blocks);
        // Read load follows capacity share ("x% of the requests").
        let total_cap = 100_000u64;
        for id in c.device_ids() {
            let dev = c.device(id).unwrap();
            let got = dev.stats().reads as f64 / total_reads as f64;
            let want = dev.capacity_blocks() as f64 / total_cap as f64;
            assert!(
                (got - want).abs() / want < 0.08,
                "device {id}: read share {got:.4} vs capacity share {want:.4}"
            );
        }
    }

    #[test]
    fn mirror_gather_copies_a_survivor() {
        let mut c = mirror_cluster();
        c.write_block(7, &block(9, 64)).unwrap();
        assert!(c.inject_shard_loss(7, 0));
        let gather = |c: &StorageCluster, lands: &mut Vec<u8>| {
            let old = c.table.peek(7).unwrap().to_vec();
            let mut outcome = ExecOutcome::default();
            let gathered = c.gather_block(7, &old, &old, &mut Vec::new(), lands, &mut outcome);
            gathered.map(|()| outcome.reconstructed)
        };
        // The lost copy lands as a copy of the survivor.
        let mut lands = Vec::new();
        assert_eq!(gather(&c, &mut lands), Ok(1));
        assert_eq!(lands, block(9, 64));
        assert!(c.inject_shard_loss(7, 1));
        assert_eq!(gather(&c, &mut lands), Err(VdsError::DataLoss { lba: 7 }));
    }

    /// Shard reads summed over every listed device.
    fn total_reads(c: &StorageCluster) -> u64 {
        c.listed().map(|d| d.stats().reads).sum()
    }

    /// A migration reads each shard it moves once and nothing else: an
    /// add on a mirror-2 and on an RS(4, 2) cluster, and a mirror-2
    /// rebuild, whose lost copies are each read from their survivor. A
    /// removal is not counted: the removed device leaves the listing when
    /// its drain ends, and its reads with it.
    #[test]
    fn migrations_read_each_moved_shard_once() {
        for redundancy in CHANGE_REDUNDANCIES {
            let b = StorageCluster::builder()
                .block_size(64)
                .redundancy(redundancy);
            let mut c = (0..12u64)
                .fold(b, |b, id| b.device(id, 2_000 + 100 * id))
                .build()
                .unwrap();
            for lba in 0..3_000u64 {
                c.write_block(lba, &block(lba as u8, 64)).unwrap();
            }
            c.reset_stats();
            let report = c.add_device(12, 3_000).unwrap();
            assert!(report.shards_moved > 0, "{redundancy:?}");
            assert_eq!(total_reads(&c), report.shards_moved, "{redundancy:?} add");
            if redundancy == (Redundancy::Mirror { copies: 2 }) {
                c.fail_device(5).unwrap();
                c.reset_stats();
                let report = c.rebuild().unwrap();
                assert!(report.shards_reconstructed > 0);
                assert_eq!(total_reads(&c), report.shards_moved, "rebuild");
            }
            for lba in 0..3_000u64 {
                assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
            }
        }
    }

    /// Shard reads summed over every device ever attached, retired ones
    /// included, so a removal's reads from the leaving device count.
    fn reads_of_every_device(c: &StorageCluster) -> u64 {
        c.devices.iter().map(|d| d.stats().reads).sum()
    }

    /// Redundant Share over `bins` (`(id, capacity)`) with `k` shards.
    fn strategy_over(bins: &[(u64, u64)], k: usize) -> RedundantShare {
        let bins: Vec<Bin> = (bins.iter())
            .map(|&(id, capacity)| Bin::new(id, capacity).unwrap())
            .collect();
        RedundantShare::new(&BinSet::new(bins).unwrap(), k).unwrap()
    }

    /// Every codec's membership change copies a block's shards only to the
    /// devices new to its set, each from a device that leaves it, and every
    /// other shard stays in its slot: an add, a removal, a rebuild, a lazy
    /// add drained in budgets and a removal stacked on an unfinished lazy
    /// add, each checked against the block's placements before and after.
    /// Then a data shard lost from a block whose shards no longer follow
    /// placement order still degrades the block's next read.
    #[test]
    fn changes_copy_only_to_devices_new_to_a_block() {
        const BLOCKS: u64 = 3_000;
        let size = 96;
        let redundancies = [
            Redundancy::Mirror { copies: 2 },
            Redundancy::Mirror { copies: 3 },
            Redundancy::ReedSolomon { data: 4, parity: 2 },
            Redundancy::LocalReconstruction {
                groups: 2,
                group_size: 2,
                global_parity: 1,
            },
            Redundancy::EvenOdd { p: 3 },
            Redundancy::Rdp { p: 5 },
            Redundancy::XorParity { data: 4 },
        ];
        for redundancy in redundancies {
            let b = StorageCluster::builder()
                .block_size(size)
                .redundancy(redundancy);
            let mut c = (0..10u64)
                .fold(b, |b, id| b.device(id, 3_000 + 100 * id))
                .build()
                .unwrap();
            for lba in 0..BLOCKS {
                c.write_block(lba, &block(lba as u8, size)).unwrap();
            }
            let (mut moved, mut positional) = (0, 0);
            for change in ["add", "remove", "rebuild", "lazy add", "stacked"] {
                if change == "stacked" {
                    c.add_device_lazy(12, 3_800).unwrap();
                    c.migrate_batch(1_000).unwrap();
                    assert_eq!(c.pending_blocks(), BLOCKS - 1_000);
                }
                let before: Vec<Vec<u64>> = (0..BLOCKS).map(|lba| c.placement(lba)).collect();
                let rows: Vec<Vec<u64>> = (0..BLOCKS)
                    .map(|lba| c.table.peek(lba).unwrap().to_vec())
                    .collect();
                let reads = reads_of_every_device(&c);
                let (plan, report) = match change {
                    "add" => (
                        c.plan_add_device(10, 4_000).unwrap(),
                        c.add_device(10, 4_000).unwrap(),
                    ),
                    "remove" => (
                        c.plan_remove_device(3).unwrap(),
                        c.remove_device(3).unwrap(),
                    ),
                    "rebuild" => {
                        let held = c.device(5).unwrap().used_blocks();
                        c.fail_device(5).unwrap();
                        let plan = c.plan_rebuild().unwrap();
                        let report = c.rebuild().unwrap();
                        assert_eq!(report.shards_reconstructed, held, "{redundancy:?}");
                        (plan, report)
                    }
                    "lazy add" => {
                        let plan = c.plan_add_device(11, 3_500).unwrap();
                        c.add_device_lazy(11, 3_500).unwrap();
                        let mut report = MigrationReport::default();
                        while c.pending_blocks() > 0 {
                            report.merge(c.migrate_batch(700).unwrap());
                        }
                        (plan, report)
                    }
                    _ => (
                        c.plan_remove_device(0).unwrap(),
                        c.remove_device(0).unwrap(),
                    ),
                };
                let what = format!("{redundancy:?} {change}");
                let mut want = 0;
                for lba in 0..BLOCKS {
                    let (old, new) = (&before[lba as usize], c.placement(lba));
                    want += new.iter().filter(|id| !old.contains(id)).count() as u64;
                    positional += old.iter().zip(&new).filter(|(o, n)| o != n).count() as u64;
                    let row = c.table.peek(lba).unwrap();
                    for (&o, &n) in rows[lba as usize].iter().zip(row) {
                        if new.contains(&c.id_of(o)) {
                            assert!(same_slot(o, n), "{what}: lba {lba} shard left its slot");
                        }
                    }
                }
                assert!(report.shards_moved > 0, "{what}");
                assert_eq!(report.shards_moved, want, "{what}");
                assert_eq!(plan.moves.len() as u64, want, "{what}");
                moved += want;
                if c.codec.is_none() || change != "rebuild" {
                    assert_eq!(reads_of_every_device(&c) - reads, want, "{what}");
                }
                for m in &plan.moves {
                    let (old, new) = (&before[m.lba as usize], c.placement(m.lba));
                    assert!(
                        old.contains(&m.from) && !new.contains(&m.from),
                        "{what}: {m:?}"
                    );
                    assert!(!old.contains(&m.to) && new.contains(&m.to), "{what}: {m:?}");
                    assert_eq!(c.id_of(c.table.peek(m.lba).unwrap()[m.copy]), m.to);
                }
                assert_matches_fresh(&c, 0..BLOCKS);
                let mut buf = vec![0u8; size];
                for lba in 0..BLOCKS {
                    c.read_block_into(lba, &mut buf).unwrap();
                    assert_eq!(buf, block(lba as u8, size), "{what}: lba {lba}");
                }
            }
            // A shard that stays on its device is not moved.
            assert!(
                moved < positional,
                "{redundancy:?}: {moved} of {positional}"
            );
            let Some(d) = c.codec.as_deref().map(ErasureCode::data_shards) else {
                continue;
            };
            let mut buf = vec![0u8; size];
            for i in 0..d {
                let lba = (0..BLOCKS)
                    .find(|&lba| {
                        let row = c.table.peek(lba).unwrap();
                        row.iter().all(|&w| slot_of(w).is_some()) && tag_of(row[i]) != i
                    })
                    .expect("a block whose data shard left its placement index");
                assert!(c.inject_shard_loss(lba, i));
                assert_eq!(c.read_into_inner(lba, &mut buf), Ok(true), "{redundancy:?}");
                assert_eq!(buf, block(lba as u8, size));
            }
            assert_eq!(c.repair().unwrap(), d as u64);
        }
    }

    /// A drain or a repair leaves the chunk buffer at most one shard per
    /// chunk block, though an RS(4, 2) rebuild after two failures and a
    /// repair of two shards per block land more in a chunk.
    #[test]
    fn drains_and_repairs_leave_a_bounded_chunk_buffer() {
        let blocks = 2 * MIGRATION_CHUNK_BLOCKS as u64;
        let b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 });
        let mut c = (0..8u64)
            .fold(b, |b, id| b.device(id, 20_000))
            .build()
            .unwrap();
        let lbas: Vec<u64> = (0..blocks).collect();
        let data: Vec<u8> = lbas.iter().flat_map(|&l| block(l as u8, 64)).collect();
        c.write_blocks(&lbas, &data).unwrap();
        let bound = MIGRATION_CHUNK_BLOCKS * c.shard_len();
        c.fail_device(0).unwrap();
        c.fail_device(1).unwrap();
        let report = c.rebuild().unwrap();
        assert!(report.shards_moved > 2 * MIGRATION_CHUNK_BLOCKS as u64);
        assert!(c.scratch.chunk.capacity() <= bound);
        for lba in 0..MIGRATION_CHUNK_BLOCKS as u64 {
            assert!(c.inject_shard_loss(lba, 0) && c.inject_shard_loss(lba, 1));
        }
        assert_eq!(c.repair().unwrap(), 2 * MIGRATION_CHUNK_BLOCKS as u64);
        assert!(c.scratch.chunk.capacity() <= bound);
        assert_reads_hit(&c, 0..blocks);
    }

    /// A block whose target names the devices it is on, in another order,
    /// is retagged in that order with no data moved: each shard keeps its
    /// index and slot, nothing is read or written, and no slot is freed.
    #[test]
    fn a_reordered_block_is_retagged_in_place() {
        for redundancy in [
            Redundancy::Mirror { copies: 3 },
            Redundancy::ReedSolomon { data: 2, parity: 1 },
        ] {
            let mut c = StorageCluster::builder()
                .block_size(64)
                .redundancy(redundancy)
                .device(0, 100)
                .device(1, 100)
                .device(2, 100)
                .device(3, 100)
                .build()
                .unwrap();
            c.write_block(7, &block(7, 64)).unwrap();
            let old = c.table.peek(7).unwrap().to_vec();
            let mut new: Vec<u64> = old.iter().map(|&w| w & !SLOT_MASK).collect();
            new.rotate_left(1);
            for (t, word) in new.iter_mut().enumerate() {
                *word = tagged(*word, t);
            }
            let (ids, used) = (c.placement(7), c.utilization());
            c.reset_stats();
            let outcome = c.execute_block_ops(&[7], &[0], &old, &new).unwrap();
            assert_eq!(
                (outcome.moved, outcome.stored, outcome.reconstructed),
                (0, 0, 0)
            );
            let row = c.table.peek(7).unwrap();
            assert!(row.iter().zip(&old).all(|(&n, &o)| same_slot(n, o)));
            let mut want = ids;
            want.rotate_left(1);
            assert_eq!(c.placement(7), want, "{redundancy:?}");
            assert_eq!(c.utilization(), used);
            let touched = c.listed().map(|d| d.stats().reads + d.stats().writes);
            assert_eq!(touched.sum::<u64>(), 0);
            assert_eq!(c.read_block(7).unwrap(), block(7, 64));
        }
    }

    /// A chunk that gains a slot on a full device is refused even though
    /// the same device keeps another block's copy at a new position: a
    /// kept slot is not released, wherever the new row names it.
    #[test]
    fn a_full_device_refuses_a_chunk_counting_its_kept_slots() {
        let capacities = [50, 51, 29, 16, 52, 11, 32, 11, 19, 24];
        let bins: Vec<(u64, u64)> = (0..10).zip(capacities).collect();
        let b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        let mut c = (bins.iter())
            .fold(b, |b, &(id, capacity)| b.device(id, capacity))
            .build()
            .unwrap();
        for lba in 0..126u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Removing device 8 gives the full device 3 one copy and shifts
        // one of its copies to another position: it would fit only if
        // that kept slot were counted as released.
        assert_eq!(c.device(3).unwrap().used_blocks(), 16);
        let rest: Vec<(u64, u64)> = bins.iter().copied().filter(|&(id, _)| id != 8).collect();
        let (before, after) = (strategy_over(&bins, 2), strategy_over(&rest, 2));
        let (mut gains, mut shifts) = (0, 0);
        for lba in 0..126u64 {
            let (old, new) = (before.place(lba), after.place(lba));
            let at = |row: &[BinId]| row.iter().position(|&id| id == BinId(3));
            match (at(&old), at(&new)) {
                (None, Some(_)) => gains += 1,
                (Some(_), None) => panic!("device 3 leaves block {lba}"),
                (Some(i), Some(j)) => shifts += u64::from(i != j),
                (None, None) => {}
            }
        }
        assert_eq!((gains, shifts), (1, 1));
        let placements: Vec<Vec<u64>> = (0..126).map(|lba| c.placement(lba)).collect();
        let used = c.utilization();
        assert_eq!(c.remove_device(8), Err(VdsError::OutOfSpace { id: 3 }));
        assert_eq!(c.pending_blocks(), 126);
        assert_eq!(c.utilization(), used);
        for lba in 0..126u64 {
            assert_eq!(c.placement(lba), placements[lba as usize], "lba {lba}");
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn erasure_fast_path_skips_parity_reads() {
        let mut c = StorageCluster::builder()
            .block_size(32)
            .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 })
            .device(0, 1_000)
            .device(1, 1_000)
            .device(2, 1_000)
            .device(3, 1_000)
            .device(4, 1_000)
            .device(5, 1_000)
            .build()
            .unwrap();
        c.write_block(0, &block(3, 32)).unwrap();
        let writes: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        assert_eq!(writes, 0);
        c.read_block(0).unwrap();
        let reads: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().stats().reads)
            .sum();
        // Healthy read touches exactly the 4 data shards.
        assert_eq!(reads, 4);
    }

    /// Reads every block of an erasure-coded cluster of 10 devices, whose
    /// codec has `d` data shards, healthy, then with a lost shard in every
    /// fifth block and a data-shard device failed. Every read returns its
    /// bytes, and each device's read counter and `degraded_reads_total`
    /// advance exactly as the read path counts: a read whose d data
    /// shards are present reads those on the fast path, any other reads
    /// every present shard once and is degraded. Prefetching a slot counts
    /// nothing.
    fn assert_ec_reads_count_exactly(redundancy: Redundancy, d: usize) {
        let b = StorageCluster::builder()
            .block_size(64)
            .redundancy(redundancy);
        let mut c = (0..10u64)
            .fold(b, |b, id| b.device(id, 1_000))
            .build()
            .unwrap();
        let blocks = 200u64;
        for lba in 0..blocks {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let ids = c.device_ids();
        let reads = |c: &StorageCluster| -> Vec<u64> {
            ids.iter()
                .map(|&id| c.device(id).unwrap().stats().reads)
                .collect()
        };
        let degraded = |c: &StorageCluster| {
            let reg = c.metrics_registry().unwrap();
            reg.counter("degraded_reads_total", "").get()
        };
        // Per damaged block, the shard index lost to `inject_shard_loss`.
        let mut lost: BTreeMap<u64, usize> = BTreeMap::new();
        let mut failed = None;
        let mut paths = [0u64; 3];
        for phase in 0..2 {
            if phase == 1 {
                for lba in (0..blocks).step_by(5) {
                    let shard = (lba / 5) as usize % d;
                    assert!(c.inject_shard_loss(lba, shard));
                    lost.insert(lba, shard);
                }
                failed = Some(c.placement(1)[0]);
                c.fail_device(failed.unwrap()).unwrap();
            }
            let mut expected = reads(&c);
            let mut expected_degraded = degraded(&c);
            for lba in 0..blocks {
                let placement = c.placement(lba);
                let present: Vec<bool> = placement
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| Some(id) != failed && lost.get(&lba) != Some(&i))
                    .collect();
                let fast = present[..d].iter().all(|&p| p);
                let on_failed = placement[..d].iter().any(|&id| Some(id) == failed);
                // 0: the fast path; 1: through the failed device; 2: an
                // emptied word alone.
                paths[usize::from(!fast) * if on_failed { 1 } else { 2 }] += 1;
                for (i, &id) in placement.iter().enumerate() {
                    if present[i] && (i < d || !fast) {
                        expected[ids.iter().position(|&x| x == id).unwrap()] += 1;
                    }
                }
                expected_degraded += u64::from(!fast);
                assert_eq!(
                    c.read_block(lba).unwrap(),
                    block(lba as u8, 64),
                    "lba {lba}"
                );
                assert_eq!(reads(&c), expected, "phase {phase}, lba {lba}");
                assert_eq!(degraded(&c), expected_degraded, "phase {phase}, lba {lba}");
            }
        }
        // Every path ran: the fast path, a failed data-shard device and
        // an emptied word alone.
        assert!(paths.iter().all(|&n| n > 0), "paths {paths:?}");
    }

    #[test]
    fn erasure_reads_count_exactly_on_every_path() {
        assert_ec_reads_count_exactly(Redundancy::ReedSolomon { data: 4, parity: 2 }, 4);
        assert_ec_reads_count_exactly(Redundancy::Rdp { p: 5 }, 4);
    }

    #[test]
    fn repair_restores_injected_losses() {
        let mut c = mirror_cluster();
        for lba in 0..400u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Latent errors on every 7th block's primary copy.
        let mut injected = 0u64;
        for lba in (0..400u64).step_by(7) {
            assert!(c.inject_shard_loss(lba, 0));
            injected += 1;
        }
        assert!(!c.inject_shard_loss(0, 99), "bad copy index rejected");
        assert_eq!(c.scrub().unwrap(), injected, "scrub counts degraded blocks");
        let repaired = c.repair().unwrap();
        assert_eq!(repaired, injected);
        assert_eq!(c.scrub().unwrap(), 0, "fully repaired");
        assert_eq!(c.repair().unwrap(), 0, "repair is idempotent");
        for lba in 0..400u64 {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn repair_fails_on_unrecoverable_block() {
        let mut c = mirror_cluster();
        c.write_block(0, &block(1, 64)).unwrap();
        assert!(c.inject_shard_loss(0, 0));
        assert!(c.inject_shard_loss(0, 1));
        assert!(matches!(c.repair(), Err(VdsError::DataLoss { lba: 0 })));
    }

    #[test]
    fn makespan_tracks_slowest_device() {
        use crate::profile::DeviceProfile;
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device_with_profile(0, 10_000, DeviceProfile::NVME)
            .device_with_profile(1, 10_000, DeviceProfile::NVME)
            .device_with_profile(2, 10_000, DeviceProfile::HDD)
            .build()
            .unwrap();
        assert_eq!(c.makespan_us(), 0);
        for lba in 0..600u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // The HDD's per-op cost dominates: the makespan must equal its
        // busy time, far above the NVMe devices'.
        let hdd_busy = c.device(2).unwrap().stats().busy_us;
        assert_eq!(c.makespan_us(), hdd_busy);
        let nvme_busy = c.device(0).unwrap().stats().busy_us;
        assert!(hdd_busy > 20 * nvme_busy, "hdd {hdd_busy} nvme {nvme_busy}");
        c.reset_stats();
        assert_eq!(c.makespan_us(), 0);
    }

    #[test]
    fn plan_matches_actual_migration() {
        // Plans pair a row with the candidate placement by device id, and
        // drains pair it with the target words by device position: both
        // must count the same moves, for an add, a removal and a rebuild.
        let rs = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 });
        let rs = (0..8u64).fold(rs, |b, id| b.device(id, 10_000));
        for mut c in [mirror_cluster(), rs.build().unwrap()] {
            let name = format!("{:?}", c.redundancy());
            for lba in 0..1_500u64 {
                c.write_block(lba, &block(lba as u8, 64)).unwrap();
            }
            let plan = c.plan_add_device(9, 10_000).unwrap();
            assert!(plan.moved_fraction() > 0.0);
            // Every planned inflow move targets a real device of the new set.
            for (dev, count) in plan.inflow_per_device() {
                assert!(dev == 9 || c.device(dev).is_some());
                assert!(count > 0);
            }
            let report = c.add_device(9, 10_000).unwrap();
            assert_eq!(
                plan.moves.len() as u64,
                report.shards_moved,
                "{name} add: dry run must predict the real migration exactly"
            );
            // Planning is validated like the real operation.
            assert!(c.plan_add_device(9, 1).is_err());
            assert!(c.plan_remove_device(999).is_err());
            let removal_plan = c.plan_remove_device(9).unwrap();
            // Everything on device 9 must flow out.
            let outflow = removal_plan.moves.iter().filter(|m| m.from == 9).count() as u64;
            assert_eq!(outflow, c.device(9).unwrap().used_blocks());
            let report = c.remove_device(9).unwrap();
            assert_eq!(
                removal_plan.moves.len() as u64,
                report.shards_moved,
                "{name} remove"
            );
            assert!(report.shards_moved > 0);
            c.fail_device(0).unwrap();
            let rebuild_plan = c.plan_rebuild().unwrap();
            let report = c.rebuild().unwrap();
            assert_eq!(
                rebuild_plan.moves.len() as u64,
                report.shards_moved,
                "{name} rebuild"
            );
            assert!(report.shards_moved > 0);
            assert_eq!(c.scrub().unwrap(), 0);
        }
    }

    /// After every kind of membership change, a first write lands each
    /// shard on the device the target placement names, as the strategy
    /// computes it: the target words follow every installed strategy,
    /// including a re-added id, which takes a new position.
    #[test]
    fn target_words_follow_every_membership_change() {
        for redundancy in [
            Redundancy::Mirror { copies: 3 },
            Redundancy::ReedSolomon { data: 4, parity: 2 },
        ] {
            let b = StorageCluster::builder()
                .block_size(64)
                .redundancy(redundancy);
            let mut c = (0..9u64)
                .fold(b, |b, id| b.device(id, 4_000 + 500 * id))
                .build()
                .unwrap();
            let mut next = 0u64;
            let mut write_new = |c: &mut StorageCluster, step: &str| {
                let lbas: Vec<u64> = (next..next + 300).collect();
                next += 300;
                let want: Vec<Vec<u64>> = lbas.iter().map(|&lba| c.placement(lba)).collect();
                let data: Vec<u8> = lbas.iter().flat_map(|&l| block(l as u8, 64)).collect();
                c.write_blocks(&lbas, &data).unwrap();
                for (&lba, want) in lbas.iter().zip(&want) {
                    let row = c.table.peek(lba).unwrap();
                    let got: Vec<u64> = row.iter().map(|&w| c.id_of(w)).collect();
                    assert_eq!(&got, want, "{redundancy:?} {step}: lba {lba}");
                    assert!(row.iter().all(|&w| c.present(w)));
                    assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
                }
                assert_slots_match_rows(c);
            };
            write_new(&mut c, "build");
            c.add_device(9, 6_000).unwrap();
            write_new(&mut c, "add");
            let position = c.positions[&3];
            c.remove_device(3).unwrap();
            write_new(&mut c, "remove");
            c.add_device(3, 5_500).unwrap();
            assert_ne!(
                c.positions[&3], position,
                "a re-added id takes a new position"
            );
            write_new(&mut c, "re-add");
            c.fail_device(5).unwrap();
            c.rebuild().unwrap();
            write_new(&mut c, "rebuild");
            // A lazy add stacked on a lazy add drained part-way: first
            // writes land at the newest target while blocks are pending.
            c.add_device_lazy(10, 7_000).unwrap();
            c.migrate_batch(400).unwrap();
            c.add_device_lazy(11, 3_000).unwrap();
            write_new(&mut c, "stacked lazy adds");
            c.rebalance().unwrap();
            write_new(&mut c, "drained");
        }
    }

    #[test]
    fn lazy_migration_serves_reads_throughout() {
        let mut c = mirror_cluster();
        for lba in 0..1_200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let pending = c.add_device_lazy(9, 10_000).unwrap();
        assert_eq!(pending, 1_200);
        assert_eq!(c.pending_blocks(), 1_200);
        // Nothing has moved yet; everything still reads correctly.
        assert_eq!(c.device(9).unwrap().used_blocks(), 0);
        for lba in (0..1_200u64).step_by(37) {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        // Migrate in small steps, reading in between.
        let mut total_moved = 0;
        while c.pending_blocks() > 0 {
            let report = c.migrate_batch(100).unwrap();
            total_moved += report.shards_moved;
            let probe = (c.pending_blocks() * 7) % 1_200;
            assert_eq!(c.read_block(probe).unwrap(), block(probe as u8, 64));
        }
        assert!(total_moved > 0);
        assert!(c.device(9).unwrap().used_blocks() > 0);
        assert_eq!(c.scrub().unwrap(), 0);
        // Idempotent when drained.
        let report = c.migrate_batch(10).unwrap();
        assert_eq!(report.blocks, 0);
    }

    #[test]
    fn lazy_migration_write_finalizes_block() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        let before = c.pending_blocks();
        // Overwriting a pending block completes its migration.
        c.write_block(5, &block(0xEE, 64)).unwrap();
        assert_eq!(c.pending_blocks(), before - 1);
        assert_eq!(c.read_block(5).unwrap(), block(0xEE, 64));
        // No stale shards linger anywhere: total shards = 2 per block.
        let total: u64 = c
            .device_ids()
            .iter()
            .map(|id| c.device(*id).unwrap().used_blocks())
            .sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn eager_operations_stack_on_lazy_migration() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        assert!(c.pending_blocks() > 0);
        // An eager removal stacks on the pending migration and drains
        // both.
        c.remove_device(0).unwrap();
        assert_eq!(c.pending_blocks(), 0);
        assert!(c.device(0).is_none(), "the drained device left the map");
        assert_eq!(c.scrub().unwrap(), 0);
        for lba in (0..300u64).step_by(11) {
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn cache_hit_performs_no_placement_computation() {
        let mut c = mirror_cluster();
        for lba in 0..50u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // The writes populated the cache; warm one block explicitly anyway.
        let first = c.read_block(7).unwrap();
        let computed = c.placements_computed();
        let hits = c.cache_stats().hits;
        // Repeated reads must be pure cache hits: the strategy runs zero
        // additional placements.
        for _ in 0..10 {
            assert_eq!(c.read_block(7).unwrap(), first);
        }
        assert_eq!(
            c.placements_computed(),
            computed,
            "cache hits must not recompute placements"
        );
        assert_eq!(c.cache_stats().hits, hits + 10);
    }

    #[test]
    fn placement_lookups_store_nothing() {
        let mut c = mirror_cluster();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let (blocks, entries) = (c.block_count(), c.cache_stats().entries);
        let mut out = Vec::new();
        for lba in 10_000..11_000u64 {
            assert_eq!(c.placement(lba).len(), 2);
            c.placement_into(lba, &mut out);
        }
        assert_eq!(c.block_count(), blocks);
        assert_eq!(c.cache_stats().entries, entries, "lookups inserted rows");
        for lba in 10_000..11_000u64 {
            assert!(
                matches!(c.read_block(lba), Err(VdsError::BlockNotFound { lba: l }) if l == lba),
                "lba {lba}"
            );
        }
    }

    #[test]
    fn membership_change_restamps_moved_rows() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let before: Vec<Vec<u64>> = (0..300u64).map(|lba| c.placement(lba)).collect();
        c.add_device(9, 10_000).unwrap();
        assert_eq!(c.pending_blocks(), 0);
        assert!(
            (0..300u64).any(|lba| c.placement(lba) != before[lba as usize]),
            "the add moved some blocks"
        );
        // Placements after the change match a freshly built identical
        // cluster (i.e. no row keeps a pre-change location).
        let fresh = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .device(9, 10_000)
            .build()
            .unwrap();
        for lba in 0..300u64 {
            assert_eq!(c.placement(lba), fresh.placement(lba), "lba {lba}");
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn lazy_migration_resolves_pending_blocks_from_rows() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Snapshot placements, then switch the mapping lazily.
        let old: Vec<Vec<u64>> = (0..200u64).map(|lba| c.placement(lba)).collect();
        c.add_device_lazy(9, 10_000).unwrap();
        assert_eq!(c.pending_blocks(), 200);
        // Pending blocks resolve to their old locations from their rows:
        // every lookup hits and no placement is computed.
        let (computed, hits) = (c.placements_computed(), c.cache_stats().hits);
        for lba in 0..200u64 {
            assert_eq!(c.placement(lba), old[lba as usize], "pending lba {lba}");
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
        assert_eq!(
            c.placements_computed(),
            computed,
            "pending lookups computed"
        );
        assert_eq!(c.cache_stats().hits, hits + 400);
        // Migrate everything; placements now come from the restamped rows
        // — repeated lookups are hits, and still correct.
        while c.pending_blocks() > 0 {
            c.migrate_batch(50).unwrap();
        }
        let first: Vec<Vec<u64>> = (0..200u64).map(|lba| c.placement(lba)).collect();
        let computed = c.placements_computed();
        for lba in 0..200u64 {
            assert_eq!(c.placement(lba), first[lba as usize]);
        }
        assert_eq!(c.placements_computed(), computed);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    /// A cluster built from scratch over `c`'s online devices. It stores
    /// nothing, so its placements are computed.
    fn fresh_twin(c: &StorageCluster) -> StorageCluster {
        let mut b = StorageCluster::builder()
            .block_size(c.block_size())
            .redundancy(c.redundancy());
        for d in c.listed().filter(|d| d.state() == DeviceState::Online) {
            b = b.device(d.id(), d.capacity_blocks());
        }
        b.build().unwrap()
    }

    /// Planning, a scrape, the degraded count, and a scrub and a repair
    /// over at least one degraded block (a shard loss is injected if no
    /// block is degraded) read rows in bulk; none of them may move the
    /// hit, miss or entry counts, `reads_total` or `degraded_reads_total`.
    fn assert_bulk_passes_count_nothing(c: &mut StorageCluster) {
        let series = |c: &StorageCluster| {
            let m = c.metrics.as_ref().expect("metrics are on");
            (
                c.cache_stats(),
                m.reads_total.get(),
                m.degraded_reads_total.get(),
            )
        };
        let before = series(c);
        let ids = c.device_ids();
        c.plan_add_device(ids.last().unwrap() + 100, 5_000).unwrap();
        c.plan_remove_device(ids[0]).unwrap();
        c.plan_rebuild().unwrap();
        let _ = c.export_prometheus();
        if c.degraded_block_count() == 0 {
            let lba = c.table.rows().map(|(lba, _)| lba).min().unwrap();
            assert!(c.inject_shard_loss(lba, 0));
        }
        let degraded = c.degraded_block_count();
        // A block past recovery stops the scrub, and leaves nothing to
        // repair around it.
        match c.scrub() {
            Ok(scrubbed) => {
                assert_eq!(scrubbed, degraded);
                c.repair().unwrap();
                assert_eq!(c.degraded_block_count(), 0);
            }
            Err(e) => assert!(matches!(e, VdsError::DataLoss { .. }), "{e:?}"),
        }
        assert_eq!(series(c), before);
    }

    /// Reads every block of `lbas` back and asserts that each placement
    /// came from its row: no miss, no strategy run.
    fn assert_reads_hit(c: &StorageCluster, lbas: impl Iterator<Item = u64>) {
        let (computed, misses) = (c.placements_computed(), c.cache_stats().misses);
        let mut buf = vec![0u8; 64];
        for lba in lbas {
            c.read_block_into(lba, &mut buf).unwrap();
            assert_eq!(buf, block(lba as u8, 64), "lba {lba}");
        }
        assert_eq!(c.placements_computed(), computed, "reads recomputed");
        assert_eq!(c.cache_stats().misses, misses, "reads missed");
    }

    fn assert_matches_fresh(c: &StorageCluster, lbas: impl Iterator<Item = u64>) {
        let fresh = fresh_twin(c);
        for lba in lbas {
            assert_eq!(c.placement(lba), fresh.placement(lba), "lba {lba}");
        }
    }

    #[test]
    fn membership_changes_carry_the_cache_forward() {
        // Four migration chunks, so a failure can land in a middle one.
        let blocks = 3 * MIGRATION_CHUNK_BLOCKS as u64 + 1_000;
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in 0..8u64 {
            b = b.device(id, 8_000 + 1_000 * id);
        }
        let mut c = b.build().unwrap();
        let lbas: Vec<u64> = (0..blocks).collect();
        let data: Vec<u8> = lbas.iter().flat_map(|&l| block(l as u8, 64)).collect();
        c.write_blocks(&lbas, &data).unwrap();
        // The writes left a current row for every block.
        assert_reads_hit(&c, 0..blocks);

        let check = |c: &mut StorageCluster| {
            assert_bulk_passes_count_nothing(c);
            assert_reads_hit(c, 0..blocks);
            assert_matches_fresh(c, 0..blocks);
        };
        c.add_device(8, 12_000).unwrap();
        check(&mut c);
        c.remove_device(2).unwrap();
        check(&mut c);
        c.fail_device(5).unwrap();
        c.rebuild().unwrap();
        check(&mut c);

        // A lazy add drained in three budgets: after each, every block
        // hits, and every drained block sits at the target placement.
        c.add_device_lazy(9, 9_000).unwrap();
        for _ in 0..3 {
            c.migrate_batch(blocks.div_ceil(3)).unwrap();
            let pending = c.pending.clone();
            assert_bulk_passes_count_nothing(&mut c);
            assert_reads_hit(&c, 0..blocks);
            assert_matches_fresh(&c, (0..blocks).filter(|l| !pending.contains(l)));
        }
        assert_eq!(c.pending_blocks(), 0);

        // A change whose second chunk fails: both copies of a block it
        // moves are gone, so the gather errors before anything lands.
        let drained = MIGRATION_CHUNK_BLOCKS as u64;
        let lost = c
            .plan_add_device(10, 11_000)
            .unwrap()
            .moves
            .iter()
            .map(|m| m.lba)
            .filter(|l| (drained..2 * drained).contains(l))
            .min()
            .unwrap();
        assert!(c.inject_shard_loss(lost, 0) && c.inject_shard_loss(lost, 1));
        let before: Vec<Vec<u64>> = (0..blocks).map(|lba| c.placement(lba)).collect();
        let err = c.add_device(10, 11_000).unwrap_err();
        assert!(
            matches!(err, VdsError::DataLoss { lba } if lba == lost),
            "{err:?}"
        );
        assert_bulk_passes_count_nothing(&mut c);
        // The first chunk drained: its rows were restamped, so it matches
        // the fresh twin. The failed chunk and every later one keep their
        // old placement, and every block still hits.
        assert_eq!(c.pending_blocks(), blocks - drained);
        assert_reads_hit(&c, (0..blocks).filter(|&l| l != lost));
        assert_matches_fresh(&c, 0..drained);
        for lba in drained..blocks {
            assert_eq!(c.placement(lba), before[lba as usize], "lba {lba}");
        }
    }

    #[test]
    fn shrinking_changes_past_b_max_are_refused_up_front() {
        // Lemma 2.2: three survivors of 100 blocks hold at most
        // max_balls([100, 100, 100], 2) = 150 mirrored blocks.
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 100)
            .device(1, 100)
            .device(2, 100)
            .device(3, 100)
            .build()
            .unwrap();
        for lba in 0..180u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let placements: Vec<Vec<u64>> = (0..180u64).map(|lba| c.placement(lba)).collect();
        let assert_untouched = |c: &StorageCluster| {
            assert!(c.device(3).is_some(), "device 3 stays in the map");
            assert_eq!(c.pending_blocks(), 0, "nothing was installed");
            for lba in 0..180u64 {
                assert_eq!(c.placement(lba), placements[lba as usize], "lba {lba}");
                assert_eq!(
                    c.read_block(lba).unwrap(),
                    block(lba as u8, 64),
                    "lba {lba}"
                );
            }
        };
        let err = c.remove_device(3).unwrap_err();
        assert!(matches!(err, VdsError::OutOfSpace { id: 3 }), "{err:?}");
        assert_untouched(&c);
        // The same gate holds for a rebuild after device 3 fails: its
        // blocks stay readable from their surviving copies.
        c.fail_device(3).unwrap();
        let err = c.rebuild().unwrap_err();
        assert!(matches!(err, VdsError::OutOfSpace { id: 3 }), "{err:?}");
        assert_untouched(&c);
    }

    #[test]
    fn failed_migration_chunk_has_no_effect() {
        let mut c = mirror_cluster();
        for lba in 0..1_200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        c.migrate_batch(300).unwrap();
        // The target fails between budgets: the next chunk's stores to it
        // are refused before any device is touched, removes included.
        c.fail_device(9).unwrap();
        let reads = |c: &StorageCluster| -> Vec<Option<Vec<u8>>> {
            (0..1_200u64).map(|lba| c.read_block(lba).ok()).collect()
        };
        let (util, degraded, before) = (c.utilization(), c.degraded_block_count(), reads(&c));
        let err = c.migrate_batch(u64::MAX).unwrap_err();
        assert!(matches!(err, VdsError::DeviceFailed { id: 9 }), "{err:?}");
        assert_eq!(c.utilization(), util);
        assert_eq!(c.degraded_block_count(), degraded);
        assert_eq!(reads(&c), before);
        assert_eq!(c.pending_blocks(), 900);
    }

    /// Blocks of the chunked test clusters: four migration chunks, so an
    /// error can land in a middle one.
    const CHUNKED_BLOCKS: u64 = 3 * MIGRATION_CHUNK_BLOCKS as u64 + 1_000;

    /// Eight devices holding `CHUNKED_BLOCKS` blocks, with room to lose
    /// one device under either test redundancy.
    fn chunked_cluster(redundancy: Redundancy) -> StorageCluster {
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(redundancy);
        for id in 0..8u64 {
            b = b.device(id, 20_000 + 1_000 * id);
        }
        let mut c = b.build().unwrap();
        let lbas: Vec<u64> = (0..CHUNKED_BLOCKS).collect();
        let data: Vec<u8> = lbas.iter().flat_map(|&l| block(l as u8, 64)).collect();
        c.write_blocks(&lbas, &data).unwrap();
        c
    }

    const CHANGE_REDUNDANCIES: [Redundancy; 2] = [
        Redundancy::Mirror { copies: 2 },
        Redundancy::ReedSolomon { data: 4, parity: 2 },
    ];

    /// Asserts every block except `skip` reads back its written value.
    fn assert_blocks_read(c: &StorageCluster, skip: Option<u64>) {
        let mut buf = vec![0u8; 64];
        for lba in (0..CHUNKED_BLOCKS).filter(|&l| Some(l) != skip) {
            c.read_block_into(lba, &mut buf).unwrap();
            assert_eq!(buf, block(lba as u8, 64), "lba {lba}");
        }
    }

    /// Runs a membership change on a chunked cluster after `prepare`,
    /// with the first block of the second chunk that `plan` moves made
    /// unrecoverable. Asserts the change fails on that block, every other
    /// block still reads its value, and exactly the first chunk drained.
    /// Then rewrites the lost block and returns the cluster.
    fn fail_in_second_chunk(
        redundancy: Redundancy,
        prepare: impl FnOnce(&mut StorageCluster),
        plan: impl FnOnce(&StorageCluster) -> Result<MigrationPlan, VdsError>,
        change: impl FnOnce(&mut StorageCluster) -> Result<MigrationReport, VdsError>,
    ) -> StorageCluster {
        let mut c = chunked_cluster(redundancy);
        prepare(&mut c);
        let chunk = MIGRATION_CHUNK_BLOCKS as u64;
        let lost = plan(&c)
            .unwrap()
            .moves
            .iter()
            .map(|m| m.lba)
            .filter(|l| (chunk..2 * chunk).contains(l))
            .min()
            .expect("the change moves a block of the second chunk");
        for copy in 0..=redundancy.tolerated_failures() {
            c.inject_shard_loss(lost, copy);
        }
        let err = change(&mut c).unwrap_err();
        assert!(
            matches!(err, VdsError::DataLoss { lba } if lba == lost),
            "{redundancy:?}: {err:?}"
        );
        assert_eq!(c.pending_blocks(), CHUNKED_BLOCKS - chunk);
        assert_blocks_read(&c, Some(lost));
        c.write_block(lost, &block(lost as u8, 64)).unwrap();
        c
    }

    /// Asserts `c` has drained into the cluster a fresh build over its
    /// devices would be, every block intact and fully redundant.
    fn assert_settled(c: &mut StorageCluster) {
        assert_eq!(c.pending_blocks(), 0);
        assert_matches_fresh(c, 0..CHUNKED_BLOCKS);
        assert_blocks_read(c, None);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn failed_add_device_leaves_every_block_readable() {
        for redundancy in CHANGE_REDUNDANCIES {
            let mut c = fail_in_second_chunk(
                redundancy,
                |_| {},
                |c| c.plan_add_device(8, 20_000),
                |c| c.add_device(8, 20_000),
            );
            c.rebalance().unwrap();
            assert_settled(&mut c);
        }
    }

    #[test]
    fn failed_remove_device_leaves_every_block_readable() {
        for redundancy in CHANGE_REDUNDANCIES {
            let mut c = fail_in_second_chunk(
                redundancy,
                |_| {},
                |c| c.plan_remove_device(7),
                |c| c.remove_device(7),
            );
            assert!(c.device(7).is_some(), "device 7 stays until drained");
            // An add stacked on the unfinished removal does not re-admit
            // the leaving device, and its plan predicts it exactly.
            let plan = c.plan_add_device(8, 20_000).unwrap();
            assert!(plan.moves.iter().all(|m| m.to != 7));
            let report = c.add_device(8, 20_000).unwrap();
            assert_eq!(plan.moves.len() as u64, report.shards_moved);
            assert!(c.device(7).is_none(), "device 7 left once drained");
            assert_eq!(c.rebalance().unwrap(), MigrationReport::default());
            assert_settled(&mut c);
        }
    }

    #[test]
    fn failed_rebuild_leaves_every_block_readable() {
        for redundancy in CHANGE_REDUNDANCIES {
            let mut c = fail_in_second_chunk(
                redundancy,
                |c| c.fail_device(3).unwrap(),
                StorageCluster::plan_rebuild,
                StorageCluster::rebuild,
            );
            assert!(c.device(3).is_none(), "failed devices leave first");
            c.rebalance().unwrap();
            assert_settled(&mut c);
        }
    }

    #[test]
    fn failed_lazy_drain_leaves_every_block_readable() {
        for redundancy in CHANGE_REDUNDANCIES {
            let mut c = chunked_cluster(redundancy);
            let chunk = MIGRATION_CHUNK_BLOCKS as u64;
            c.add_device_lazy(8, 20_000).unwrap();
            c.migrate_batch(chunk).unwrap();
            // The target fails between chunks; the second chunk's stores
            // to it are refused, and the chunk changes nothing.
            c.fail_device(8).unwrap();
            let degraded = c.degraded_block_count();
            let err = c.rebalance().unwrap_err();
            assert!(matches!(err, VdsError::DeviceFailed { id: 8 }), "{err:?}");
            assert_eq!(c.degraded_block_count(), degraded);
            assert_eq!(c.pending_blocks(), CHUNKED_BLOCKS - chunk);
            assert_blocks_read(&c, None);
            // A rebuild stacks on the unfinished drain and finishes both.
            c.rebuild().unwrap();
            assert!(c.device(8).is_none());
            assert_settled(&mut c);
        }
    }

    #[test]
    fn failed_write_during_lazy_migration_keeps_the_block() {
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in 0..6u64 {
            b = b.device(id, 2_000 * (id + 1));
        }
        let mut c = b.build().unwrap();
        let blocks = 2_000u64;
        for lba in 0..blocks {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(6, 20_000).unwrap();
        c.fail_device(6).unwrap();
        // Every write whose target placement includes the failed device
        // fails; its block stays pending at its old home, with its old
        // value.
        let mut failed = Vec::new();
        for lba in 0..blocks {
            if c.write_block(lba, &block(!(lba as u8), 64)).is_err() {
                failed.push(lba);
            }
        }
        assert!(!failed.is_empty(), "some writes target the failed device");
        let assert_values = |c: &StorageCluster| {
            for lba in 0..blocks {
                let want = if failed.binary_search(&lba).is_ok() {
                    block(lba as u8, 64)
                } else {
                    block(!(lba as u8), 64)
                };
                assert_eq!(c.read_block(lba).unwrap(), want, "lba {lba}");
            }
        };
        assert_values(&c);
        assert_eq!(c.pending_blocks(), failed.len() as u64);
        c.rebuild().unwrap();
        assert_eq!(c.pending_blocks(), 0);
        assert_values(&c);
        assert_eq!(c.scrub().unwrap(), 0);
        // The failed writes left no stray shard: exactly 2 per block.
        let used: u64 = c.utilization().iter().map(|&(_, used, _)| used).sum();
        assert_eq!(used, 2 * blocks);
    }

    /// 1,000 blocks on 8 devices of 10,000–19,000 shards, with a
    /// mid-capacity device failed, are rewritten one by one with distinct
    /// payloads: every write that returns `Err` leaves the block's previous
    /// value exactly, and every `Ok` write reads back the new one. A batch
    /// rewrite of every block then fails as a whole and changes nothing.
    #[test]
    fn failed_write_leaves_the_previous_value() {
        for (redundancy, block_size) in [
            (Redundancy::Mirror { copies: 2 }, 64),
            (Redundancy::ReedSolomon { data: 4, parity: 2 }, 4096),
        ] {
            let mut b = StorageCluster::builder()
                .block_size(block_size)
                .redundancy(redundancy);
            for id in 0..8u64 {
                b = b.device(id, 10_000 + 3_000 * (id % 4));
            }
            let mut c = b.build().unwrap();
            let blocks = 1_000u64;
            for lba in 0..blocks {
                c.write_block(lba, &block(lba as u8, block_size)).unwrap();
            }
            c.fail_device(1).unwrap();
            let mut failed = 0;
            for lba in 0..blocks {
                let new = block((lba as u8).wrapping_add(101), block_size);
                let want = match c.write_block(lba, &new) {
                    Ok(()) => new,
                    Err(_) => {
                        failed += 1;
                        block(lba as u8, block_size)
                    }
                };
                assert_eq!(c.read_block(lba).unwrap(), want, "{redundancy:?} lba {lba}");
            }
            assert!(failed > 0, "{redundancy:?}: some writes touch device 1");
            let before: Vec<Vec<u8>> = (0..blocks).map(|lba| c.read_block(lba).unwrap()).collect();
            let lbas: Vec<u64> = (0..blocks).collect();
            let data = vec![0xA5; blocks as usize * block_size];
            assert!(c.write_blocks(&lbas, &data).is_err(), "{redundancy:?}");
            for lba in 0..blocks {
                assert_eq!(
                    c.read_block(lba).unwrap(),
                    before[lba as usize],
                    "{redundancy:?} lba {lba}"
                );
            }
        }
    }

    /// Payloads of one fixed shard that fail to ready at block `fail_at`,
    /// with the error a failed parity encode returns.
    struct FailAt {
        fail_at: usize,
        readied: usize,
        shard: Vec<u8>,
    }

    impl Payloads for FailAt {
        const EVERY_SHARD: bool = true;

        fn ready(&mut self) -> Result<(), VdsError> {
            if self.readied == self.fail_at {
                return Err(ErasureError::ShardLengthMismatch.into());
            }
            self.readied += 1;
            Ok(())
        }

        fn shard(&mut self, _: usize) -> &[u8] {
            &self.shard
        }
    }

    /// Lands shards of 0xEE bytes over the stored blocks `lbas` through
    /// [`land`], failing to ready block `fail_at`: in place over their
    /// rows, or in fresh slots on the same devices.
    fn land_failing_at(
        c: &mut StorageCluster,
        lbas: &[u64],
        fail_at: usize,
        in_place: bool,
    ) -> Result<(), VdsError> {
        let mut rows = Vec::new();
        c.rows_flat(lbas, &mut rows);
        if !in_place {
            for word in &mut rows {
                *word &= !SLOT_MASK;
            }
        }
        let mut payloads = FailAt {
            fail_at,
            readied: 0,
            shard: vec![0xEE; c.shard_len()],
        };
        land(
            &mut c.devices,
            &mut c.table,
            lbas,
            &mut rows,
            c.redundancy.total_shards(),
            &mut payloads,
            &mut c.scratch.ahead,
        )
    }

    /// Each device's live slots and slab high-water mark.
    fn slabs(c: &StorageCluster) -> Vec<(u64, u32)> {
        c.listed()
            .map(|d| (d.used_blocks(), d.high_water()))
            .collect()
    }

    /// Lands a batch of 4 blocks over `c` that fails to ready at each
    /// block in turn, in place (`true`) or in fresh slots, and asserts
    /// the blocks before it committed, the rest kept their values and
    /// rows, and each device's live slots are as before, though the
    /// failing block's successor had its fresh slots taken already; in
    /// place, every row and slab is untouched too.
    fn assert_ready_failures_leave_later_blocks(mut c: StorageCluster, in_place: bool) {
        let (size, k) = (c.block_size(), c.redundancy.total_shards());
        let lbas: Vec<u64> = (0..4).collect();
        for &lba in &lbas {
            c.write_block(lba, &block(lba as u8, size)).unwrap();
        }
        let used =
            |c: &StorageCluster| -> Vec<u64> { c.listed().map(Device::used_blocks).collect() };
        let before = used(&c);
        let (mut rows, mut now) = (Vec::new(), Vec::new());
        c.rows_flat(&lbas, &mut rows);
        let slabs_before = slabs(&c);
        for fail_at in 0..lbas.len() {
            assert!(land_failing_at(&mut c, &lbas, fail_at, in_place).is_err());
            // The slots taken ahead for blocks `fail_at` and
            // `fail_at + 1` went back.
            assert_eq!(used(&c), before, "fail at block {fail_at}");
            for &lba in &lbas {
                let want = if (lba as usize) < fail_at {
                    vec![0xEE; size]
                } else {
                    block(lba as u8, size)
                };
                assert_eq!(c.read_block(lba).unwrap(), want);
            }
            c.rows_flat(&lbas, &mut now);
            let from = if in_place { 0 } else { fail_at * k };
            assert_eq!(now[from..], rows[from..], "fail at block {fail_at}");
            if in_place {
                assert_eq!(slabs(&c), slabs_before, "fail at block {fail_at}");
            }
        }
    }

    /// An RS(4,2) cluster of 4 KiB blocks over 8 devices.
    fn rs_cluster() -> StorageCluster {
        let b = StorageCluster::builder()
            .block_size(4096)
            .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 });
        (0..8u64)
            .fold(b, |b, id| b.device(id, 1_000))
            .build()
            .unwrap()
    }

    #[test]
    fn a_block_that_fails_to_ready_strands_no_slot() {
        assert_ready_failures_leave_later_blocks(mirror_cluster(), false);
        assert_ready_failures_leave_later_blocks(rs_cluster(), false);
    }

    #[test]
    fn an_overwrite_that_fails_to_ready_leaves_later_blocks_untouched() {
        assert_ready_failures_leave_later_blocks(mirror_cluster(), true);
        assert_ready_failures_leave_later_blocks(rs_cluster(), true);
    }

    /// Asserts that every device's live slots are exactly the slots the
    /// block-table rows name on it: none stranded, none counted twice.
    fn assert_slots_match_rows(c: &StorageCluster) {
        let mut named = vec![0u64; c.devices.len()];
        for (_, row) in c.table.rows() {
            for &word in row.iter().filter(|&&w| slot_of(w).is_some()) {
                named[position_of(word)] += 1;
            }
        }
        let used: Vec<u64> = c.devices.iter().map(Device::used_blocks).collect();
        assert_eq!(used, named);
    }

    /// A settled block repeated in a batch is overwritten in place each
    /// time, needing no slot, and the last copy wins. A moving block (one
    /// pending a migration) repeated in a batch gains fresh slots for
    /// every copy but releases its old slots once.
    #[test]
    fn a_repeated_block_releases_its_old_slots_once() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 101)
            .device(1, 101)
            .build()
            .unwrap();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let twice = [block(1, 64), block(2, 64)].concat();
        let thrice = [twice.clone(), block(3, 64)].concat();
        let settled = slabs(&c);
        c.write_blocks(&[5, 5, 5], &thrice).unwrap();
        assert_eq!(c.read_block(5).unwrap(), block(3, 64));
        assert_eq!(slabs(&c), settled);
        assert_slots_match_rows(&c);
        // After a lazy add every block is pending, and block 5 lands at
        // its target in fresh slots. A device it stays on gains one slot
        // per copy against the one it releases: three copies are one past
        // capacity, refused with no effect.
        c.add_device_lazy(2, 101).unwrap();
        let target: Vec<u64> = c.strategy.place(5).iter().map(|id| id.raw()).collect();
        let stays = *target
            .iter()
            .filter(|id| c.placement(5).contains(id))
            .min()
            .expect("two of three devices share one");
        assert!(matches!(
            c.write_blocks(&[5, 5, 5], &thrice),
            Err(VdsError::OutOfSpace { id }) if id == stays
        ));
        assert_eq!(c.read_block(5).unwrap(), block(3, 64));
        assert_eq!(c.pending_blocks(), 100);
        assert_slots_match_rows(&c);
        assert!(c.tally.slots.iter().all(|&s| s == [0; 3]));
        // Two fit exactly, the last copy wins, and the first copy's slots
        // went back: two shards per block.
        c.write_blocks(&[5, 5], &twice).unwrap();
        assert_eq!(c.read_block(5).unwrap(), block(2, 64));
        assert_eq!(c.pending_blocks(), 99);
        assert_eq!(c.placement(5), target);
        assert_slots_match_rows(&c);
        assert!(c.tally.slots.iter().all(|&s| s == [0; 3]));
    }

    /// An overwrite of a settled block lands in the slots its row names:
    /// the rows, every device's live slots and slab high-water mark stay
    /// as they were, and the new bytes read back. A shard lost before the
    /// overwrite takes exactly one fresh slot, and a block pending a
    /// migration still moves, copy-on-write.
    #[test]
    fn settled_overwrites_keep_their_slots() {
        for (redundancy, block_size) in [
            (Redundancy::Mirror { copies: 2 }, 64),
            (Redundancy::ReedSolomon { data: 4, parity: 2 }, 256),
        ] {
            let mut b = StorageCluster::builder()
                .block_size(block_size)
                .redundancy(redundancy);
            for id in 0..8u64 {
                b = b.device(id, 1_000);
            }
            let mut c = b.build().unwrap();
            let k = redundancy.total_shards();
            let lbas: Vec<u64> = (0..64).collect();
            let value = |seed: u8, lba: u64| block(seed ^ lba as u8, block_size);
            let batch =
                |seed: u8| -> Vec<u8> { lbas.iter().flat_map(|&l| value(seed, l)).collect() };
            c.write_blocks(&lbas, &batch(0)).unwrap();
            let (mut rows, mut now) = (Vec::new(), Vec::new());
            c.rows_flat(&lbas, &mut rows);
            let before = slabs(&c);
            // One batch, then one block at a time.
            c.write_blocks(&lbas, &batch(1)).unwrap();
            for &lba in &lbas {
                c.write_block(lba, &value(2, lba)).unwrap();
            }
            c.rows_flat(&lbas, &mut now);
            assert_eq!(now, rows, "{redundancy:?}");
            assert_eq!(slabs(&c), before, "{redundancy:?}");
            for &lba in &lbas {
                assert_eq!(c.read_block(lba).unwrap(), value(2, lba), "{redundancy:?}");
            }
            // A lost shard lands in one fresh slot on its device; nothing
            // is released, so every device is back to its live slots.
            assert!(c.inject_shard_loss(7, 1));
            let on = position_of(rows[7 * k + 1]);
            let lost = c.devices[on].used_blocks();
            c.write_block(7, &value(3, 7)).unwrap();
            assert_eq!(c.devices[on].used_blocks(), lost + 1, "{redundancy:?}");
            let live = |s: Vec<(u64, u32)>| -> Vec<u64> { s.into_iter().map(|(u, _)| u).collect() };
            assert_eq!(live(slabs(&c)), live(before.clone()), "{redundancy:?}");
            let row = c.table.peek(7).unwrap();
            for (i, (&n, &o)) in row.iter().zip(&rows[7 * k..8 * k]).enumerate() {
                if i == 1 {
                    assert_eq!(n & !SLOT_MASK, o & !SLOT_MASK);
                    assert!(slot_of(n).is_some());
                } else {
                    assert_eq!(n, o, "{redundancy:?} shard {i}");
                }
            }
            assert_eq!(c.read_block(7).unwrap(), value(3, 7));
            assert_eq!(c.degraded_block_count(), 0);
            // A pending block moves: every shard lands in a fresh slot
            // before the old ones are released, so no word stays.
            c.add_device_lazy(100, 1_000).unwrap();
            let old = c.table.peek(9).unwrap().to_vec();
            c.write_block(9, &value(4, 9)).unwrap();
            let new = c.table.peek(9).unwrap();
            assert!(old.iter().zip(new).all(|(o, n)| o != n), "{redundancy:?}");
            assert_eq!(c.pending_blocks(), lbas.len() as u64 - 1);
            assert_eq!(c.read_block(9).unwrap(), value(4, 9));
        }
    }

    #[test]
    fn overwrites_fit_a_full_device() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 100)
            .device(1, 100)
            .build()
            .unwrap();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Both devices are full; an overwrite frees the slot it replaces.
        for lba in 0..100u64 {
            c.write_block(lba, &block(!(lba as u8), 64)).unwrap();
            assert_eq!(c.read_block(lba).unwrap(), block(!(lba as u8), 64));
        }
        assert!(matches!(
            c.write_block(100, &block(0, 64)),
            Err(VdsError::OutOfSpace { .. })
        ));
        assert_eq!(c.block_count(), 100);
        assert_eq!(c.utilization(), vec![(0, 100, 100), (1, 100, 100)]);
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            StorageCluster::builder().block_size(0).device(0, 1).build(),
            Err(VdsError::InvalidConfig { .. })
        ));
        // Block size 10 is not divisible by RS(4, 2)'s 4 data shards.
        assert!(matches!(
            StorageCluster::builder()
                .block_size(10)
                .redundancy(Redundancy::ReedSolomon { data: 4, parity: 2 })
                .device(0, 1)
                .device(1, 1)
                .device(2, 1)
                .device(3, 1)
                .device(4, 1)
                .device(5, 1)
                .build(),
            Err(VdsError::InvalidConfig { .. })
        ));
        // Too few devices for the shard count.
        assert!(StorageCluster::builder()
            .redundancy(Redundancy::Mirror { copies: 3 })
            .device(0, 1)
            .device(1, 1)
            .build()
            .is_err());
        // Duplicate device id.
        assert!(matches!(
            StorageCluster::builder().device(0, 1).device(0, 2).build(),
            Err(VdsError::InvalidConfig { .. })
        ));
        // A row word's tag indexes at most 256 shards, however many
        // devices there are.
        let b = StorageCluster::builder().redundancy(Redundancy::Mirror { copies: 257 });
        assert!(matches!(
            (0..257).fold(b, |b, id| b.device(id, 1)).build(),
            Err(VdsError::InvalidConfig { .. })
        ));
    }

    /// The shards of `lba`, read through its row: `None` where absent.
    fn shards_of(c: &StorageCluster, lba: u64) -> Vec<Option<Vec<u8>>> {
        let row = c.table.peek(lba).expect("stored");
        row.iter()
            .map(|&w| c.shard(w).map(<[u8]>::to_vec))
            .collect()
    }

    #[test]
    fn lazy_add_drained_in_budgets_matches_eager_add() {
        let build = |redundancy: Redundancy| {
            StorageCluster::builder()
                .block_size(64)
                .redundancy(redundancy)
                .device(0, 10_000)
                .device(1, 10_000)
                .device(2, 12_000)
                .device(3, 10_000)
                .device(4, 8_000)
                .device(5, 10_000)
                .device(6, 10_000)
                .build()
                .unwrap()
        };
        for redundancy in [
            Redundancy::Mirror { copies: 2 },
            Redundancy::ReedSolomon { data: 4, parity: 2 },
        ] {
            let (mut lazy, mut eager) = (build(redundancy), build(redundancy));
            let lbas: Vec<u64> = (0..1_000u64).collect();
            let data: Vec<u8> = lbas.iter().flat_map(|&l| block(l as u8, 64)).collect();
            lazy.write_blocks(&lbas, &data).unwrap();
            eager.write_blocks(&lbas, &data).unwrap();
            let eager_report = eager.add_device(9, 10_000).unwrap();
            assert_eq!(lazy.add_device_lazy(9, 10_000).unwrap(), 1_000);
            let mut lazy_report = MigrationReport::default();
            for budget in [1, 117, u64::MAX] {
                let before = lazy.pending_blocks();
                let report = lazy.migrate_batch(budget).unwrap();
                // The budget is honoured.
                assert_eq!(report.blocks, before.min(budget));
                assert_eq!(lazy.pending_blocks(), before - report.blocks);
                lazy_report.merge(report);
            }
            assert_eq!(lazy.pending_blocks(), 0);
            assert!(eager_report.shards_moved > 0);
            assert_eq!(lazy_report, eager_report, "{redundancy:?}");
            // Same placements, same per-device contents: slot numbers may
            // differ between the twins, so compare the bytes each row names.
            for &lba in &lbas {
                assert_eq!(lazy.placement(lba), eager.placement(lba));
                assert_eq!(shards_of(&lazy, lba), shards_of(&eager, lba), "lba {lba}");
            }
            for id in eager.device_ids() {
                let (l, e) = (lazy.device(id).unwrap(), eager.device(id).unwrap());
                assert_eq!(l.used_blocks(), e.used_blocks(), "device {id}");
            }
            assert_eq!(lazy.scrub().unwrap(), 0);
            // Idempotent when drained.
            assert_eq!(lazy.migrate_batch(10).unwrap(), MigrationReport::default());
        }
    }

    #[test]
    fn rebalance_drains_everything_at_once() {
        let mut c = mirror_cluster();
        for lba in 0..600u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // No-op without a pending migration.
        assert_eq!(c.rebalance().unwrap(), MigrationReport::default());
        c.add_device_lazy(9, 10_000).unwrap();
        let report = c.rebalance().unwrap();
        assert_eq!(report.blocks, 600);
        assert_eq!(c.pending_blocks(), 0);
        assert!(report.shards_moved > 0);
        assert!(c.device(9).unwrap().used_blocks() > 0);
        assert_eq!(c.scrub().unwrap(), 0);
    }

    #[test]
    fn plan_rebuild_is_empty_without_failures() {
        let mut c = mirror_cluster();
        for lba in 0..400u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Satellite: a no-op membership "change" must plan zero moves …
        let plan = c.plan_rebuild().unwrap();
        assert!(plan.moves.is_empty());
        assert_eq!(plan.blocks_planned, 0);
        assert_eq!(plan.blocks_total, 400);
        assert_eq!(plan.competitive_ratio(), 0.0);
        // … and the executed no-op rebuild moves zero shards.
        let report = c.rebuild().unwrap();
        assert_eq!(report.shards_moved, 0);
        assert_eq!(report.shards_reconstructed, 0);
        // With a failure, the plan predicts the rebuild exactly.
        c.fail_device(1).unwrap();
        let plan = c.plan_rebuild().unwrap();
        assert!(plan.fair_min_shards > 0.0);
        assert!(plan.competitive_ratio() >= 1.0);
        let report = c.rebuild().unwrap();
        assert_eq!(plan.moves.len() as u64, report.shards_moved);
    }

    #[test]
    fn plan_accounting_and_move_order() {
        let mut c = mirror_cluster();
        for lba in 0..2_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let plan = c.plan_add_device(9, 10_000).unwrap();
        assert_eq!(plan.blocks_total, 2_000);
        assert_eq!(plan.shards_total, 4_000);
        let planned: BTreeSet<u64> = plan.moves.iter().map(|m| m.lba).collect();
        assert_eq!(plan.blocks_planned, planned.len() as u64);
        assert!(plan.blocks_planned > 0);
        assert!(plan.blocks_planned < plan.blocks_total, "skip-unchanged");
        assert!(plan.fair_min_shards > 0.0);
        // Lemma 3.2: the measured competitive ratio stays within 4.
        let ratio = plan.competitive_ratio();
        assert!(ratio > 0.0 && ratio <= 4.0, "ratio {ratio}");
        // Moves are sorted by (from, to, lba, copy), each shard once.
        let key = |m: &ShardMove| (m.from, m.to, m.lba, m.copy);
        assert!(plan.moves.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    }

    #[test]
    fn metrics_count_reads_writes_and_latency() {
        let mut c = mirror_cluster();
        for lba in 0..50u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        for lba in 0..50u64 {
            c.read_block(lba).unwrap();
        }
        assert!(c.read_block(10_000).is_err()); // failed reads record nothing
        let reg = c.metrics_registry().expect("metrics on by default");
        assert_eq!(reg.counter("writes_total", "").get(), 50);
        assert_eq!(reg.counter("reads_total", "").get(), 50);
        assert_eq!(reg.counter("degraded_reads_total", "").get(), 0);
        // Latency is sampled one read in `LATENCY_SAMPLE`: 50 reads
        // sample exactly once (at reads_total == 0).
        let lat = reg.histogram("read_latency_ns", "").snapshot();
        assert_eq!(lat.count, 1, "latency histogram samples 1/{LATENCY_SAMPLE}");
        assert!(lat.sum > 0);
    }

    #[test]
    fn degraded_reads_are_counted_exactly() {
        let mut c = mirror_cluster();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.fail_device(2).unwrap();
        for lba in 0..100u64 {
            c.read_block(lba).unwrap();
        }
        let reg = c.metrics_registry().unwrap();
        // Exactly the blocks whose preferred copy lived on device 2 fell
        // back to another copy.
        let expected: u64 = (0..100u64)
            .filter(|&lba| {
                let placement = c.placement(lba);
                let preferred = (rshare_hash::stable_hash2(lba, READ_BALANCE_DOMAIN)
                    % placement.len() as u64) as usize;
                placement[preferred] == 2
            })
            .count() as u64;
        assert!(expected > 0, "some preferred copies must be on device 2");
        assert_eq!(reg.counter("degraded_reads_total", "").get(), expected);
        assert_eq!(reg.counter("reads_total", "").get(), 100);
    }

    #[test]
    fn health_snapshot_reports_debts_and_refreshes_gauges() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let healthy = c.health_snapshot();
        assert_eq!(healthy.devices_online, 4);
        assert_eq!(healthy.devices_failed, 0);
        assert_eq!(healthy.blocks, 200);
        assert_eq!(healthy.pending_blocks, 0);
        assert_eq!(healthy.degraded_blocks, 0);
        assert_eq!(healthy.fairness.total_used, 400);
        assert!(healthy.fairness.max_deviation < 0.5);
        c.fail_device(3).unwrap();
        c.add_device_lazy(9, 10_000).unwrap();
        let ailing = c.health_snapshot();
        assert_eq!(ailing.devices_online, 4); // 0, 1, 2 and the new 9
        assert_eq!(ailing.devices_failed, 1);
        assert_eq!(ailing.pending_blocks, 200);
        assert!(ailing.degraded_blocks > 0, "failed device degrades blocks");
        let reg = c.metrics_registry().unwrap();
        assert_eq!(reg.gauge("pending_blocks", "").get(), 200);
        assert_eq!(
            reg.gauge("degraded_blocks", "").get(),
            ailing.degraded_blocks as i64
        );
        assert_eq!(reg.gauge("devices_failed", "").get(), 1);
    }

    #[test]
    fn fairness_report_tracks_capacity_shares() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 4_000)
            .device(1, 8_000)
            .device(2, 12_000)
            .device(3, 16_000)
            .build()
            .unwrap();
        for lba in 0..4_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let report = c.fairness_report();
        assert_eq!(report.total_used, 8_000);
        assert_eq!(report.total_capacity, 40_000);
        assert_eq!(report.devices.len(), 4);
        // Redundant Share keeps every device within a modest deviation of
        // its fair share even at this small scale.
        assert!(
            report.max_deviation < 0.15,
            "max deviation {}",
            report.max_deviation
        );
        for d in &report.devices {
            assert!((d.share - d.fair_share * (1.0 + d.deviation)).abs() < 1e-9);
        }
    }

    #[test]
    fn fairness_report_uses_adjusted_capacity_of_a_dominant_device() {
        // Lemma 2.1: with 2 copies, device 0 (3/5 of the raw capacity) can
        // hold at most one copy of each block, so its fair share is 1/2.
        let mut c = StorageCluster::builder()
            .block_size(16)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 30_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .build()
            .unwrap();
        for lba in 0..3_000u64 {
            c.write_block(lba, &block(lba as u8, 16)).unwrap();
        }
        assert_eq!(c.device(0).unwrap().used_blocks(), 3_000);
        let report = c.fairness_report();
        assert!((report.devices[0].fair_share - 0.5).abs() < 1e-12);
        assert!(
            report.max_deviation <= 0.02,
            "max deviation {}",
            report.max_deviation
        );
    }

    #[test]
    fn migration_metrics_follow_the_reports() {
        let mut c = mirror_cluster();
        for lba in 0..1_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let reg = c.metrics_registry().unwrap();
        let plan = c.plan_add_device(9, 10_000).unwrap();
        assert_eq!(
            reg.counter("migration_moves_planned_total", "").get(),
            plan.moves.len() as u64
        );
        let report = c.add_device(9, 10_000).unwrap();
        assert_eq!(
            reg.counter("migration_moves_executed_total", "").get(),
            report.shards_moved
        );
        // In-place repair after injected shard loss.
        let mut injected = 0u64;
        for lba in (0..1_000u64).step_by(97) {
            if c.inject_shard_loss(lba, 0) {
                injected += 1;
            }
        }
        assert!(injected > 0);
        c.repair().unwrap();
        assert_eq!(reg.counter("repair_blocks_total", "").get(), injected);
    }

    #[test]
    fn metrics_can_be_disabled_and_export_still_works() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .metrics(false)
            .build()
            .unwrap();
        assert!(c.metrics_registry().is_none());
        c.write_block(0, &block(1, 64)).unwrap();
        assert_eq!(c.read_block(0).unwrap(), block(1, 64));
        let text = c.export_prometheus();
        // No registry series (the per-device `device_reads_total` family
        // is computed, not registered), but computed families render.
        assert!(!text.contains("# TYPE reads_total "));
        assert!(text.contains("cluster_blocks 1"));
        assert!(text.contains("fairness_max_deviation"));
        assert!(text.contains("device_used_blocks{device=\"0\"}"));
        let info = format!("gf256_kernel_info{{tier=\"{}\"}} 1", kernel_tier().name());
        assert!(text.contains(&info), "missing {info} in:\n{text}");
    }

    #[test]
    fn export_prometheus_renders_all_surfaces() {
        let mut c = mirror_cluster();
        for lba in 0..100u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        for lba in 0..100u64 {
            c.read_block(lba).unwrap();
        }
        let text = c.export_prometheus();
        for family in [
            "# TYPE reads_total counter",
            "reads_total 100",
            "writes_total 100",
            "# TYPE read_latency_ns histogram",
            // 100 reads sample the latency histogram at 0 and 64.
            "read_latency_ns_count 2",
            "# TYPE pending_blocks gauge",
            "devices_online 4",
            "cluster_blocks 100",
            "fairness_max_deviation",
            "placement_cache_hits_total",
            "placements_computed_total",
            "device_reads_total{device=\"0\"}",
            "device_capacity_blocks{device=\"3\"} 10000",
            "device_online{device=\"1\"} 1",
            "# TYPE gf256_kernel_info gauge",
            &format!("gf256_kernel_info{{tier=\"{}\"}} 1", kernel_tier().name()),
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
