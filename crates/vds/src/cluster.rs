//! The virtualized storage cluster: placement-driven block storage with
//! migration, failure and rebuild.
//!
//! This is the "randomized block-level storage virtualization" of the
//! paper's abstract: a pool of heterogeneous devices presented as a single
//! block store. Every logical block is expanded into a redundancy group
//! (mirror copies or erasure shards) and shard `i` is stored on the i-th
//! device returned by the Redundant Share placement strategy — no
//! allocation tables, so the mapping is recomputable by anyone who knows
//! the device list.
//!
//! Membership changes rebuild the strategy and migrate exactly the shards
//! whose computed location changed; the adaptivity results of the paper
//! (Lemmas 3.2–3.5) bound that migration volume, and [`MigrationReport`]
//! measures it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rshare_core::{
    Bin, BinId, BinSet, FastRedundantShare, PlacementError, PlacementStrategy, RedundantShare,
    MAX_INLINE_K,
};
use rshare_erasure::ErasureCode;
use rshare_obs::{family_header, sample_line, Registry, SpanTimer};

use crate::cache::{CacheStats, InlinePlacement, PlacementCache, MAX_CACHED_SHARDS};
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

/// Default for [`ClusterBuilder::fast_strategy_threshold`]: clusters with
/// at least this many online devices route placement through the
/// precomputed O(k)-per-query [`FastRedundantShare`]; smaller clusters
/// keep the table-free O(n) scan, whose query cost is negligible at small
/// `n` and which avoids the O(k·n²) table build on every membership change.
const FAST_PLACEMENT_MIN_DEVICES: usize = 64;

/// Blocks per batched-migration chunk. Bounds the transient memory of a
/// rebalance: at most this many blocks' shard payloads are in flight
/// between the gather and apply phases.
const MIGRATION_CHUNK_BLOCKS: usize = 4096;

/// The placement engine a cluster routes queries through, chosen by
/// cluster size (see [`ClusterBuilder::fast_strategy_threshold`]).
///
/// Both variants implement the paper's Redundant Share and are equally
/// fair, but their per-ball placements differ (the fast variant draws its
/// randomness from precomputed transition tables), so switching variants
/// is a strategy change like any other: the migration machinery diffs old
/// and new placements and moves what changed.
enum ClusterStrategy {
    /// Algorithm 4: O(n) per query, no precomputation.
    Scan(RedundantShare),
    /// Section 3.3: O(k) per query from precomputed Markov-chain tables.
    Fast(FastRedundantShare),
}

impl ClusterStrategy {
    /// Builds the right variant for `set`'s size: the precomputed engine
    /// once the set reaches `fast_min` bins, the scan below it.
    fn build(set: &BinSet, shards: usize, fast_min: usize) -> Result<Self, PlacementError> {
        if set.len() >= fast_min {
            Ok(Self::Fast(FastRedundantShare::new(set, shards)?))
        } else {
            Ok(Self::Scan(RedundantShare::new(set, shards)?))
        }
    }

    /// Places `ball`, returning its `k` device bins in copy order.
    fn place(&self, ball: u64) -> Vec<BinId> {
        match self {
            Self::Scan(s) => s.place(ball),
            Self::Fast(s) => s.place(ball),
        }
    }

    /// The replication degree (total shards per group).
    fn replication(&self) -> usize {
        match self {
            Self::Scan(s) => s.replication(),
            Self::Fast(s) => s.replication(),
        }
    }

    /// Places `ball`, writing raw device ids into `out` (cleared first).
    /// Groups of up to [`MAX_INLINE_K`] shards go through the inline
    /// strategy path and never touch the heap.
    fn place_ids_into(&self, ball: u64, out: &mut Vec<u64>) {
        out.clear();
        if self.replication() <= MAX_INLINE_K {
            let mut arr = [BinId(0); MAX_INLINE_K];
            let n = match self {
                Self::Scan(s) => s.place_into_inline(ball, &mut arr),
                Self::Fast(s) => s.place_into_inline(ball, &mut arr),
            };
            out.extend(arr[..n].iter().map(|b| b.raw()));
        } else {
            out.extend(self.place(ball).into_iter().map(|b| b.raw()));
        }
    }

    /// Places every ball in `balls`, appending `replication()` bins per
    /// ball to `out` (cleared first) as one flat stride-k run — the bulk
    /// API the migration planner and executor diff placements with.
    fn place_batch_into(&self, balls: &[u64], out: &mut Vec<BinId>) {
        match self {
            Self::Scan(s) => s.place_batch_into(balls, out),
            Self::Fast(s) => s.place_batch_into(balls, out),
        }
    }
}

/// An owned placement: inline (no heap) for groups that fit
/// [`MAX_CACHED_SHARDS`] ids, heap-backed beyond that. Dereferences to the
/// raw device-id slice, so call sites index and iterate it like a `Vec`.
enum PlacementIds {
    Inline(InlinePlacement),
    Heap(Vec<u64>),
}

impl std::ops::Deref for PlacementIds {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Self::Inline(p) => p.as_slice(),
            Self::Heap(v) => v,
        }
    }
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
    placement_cache: bool,
    fast_strategy_threshold: usize,
    metrics: bool,
    metrics_registry: Option<Arc<Registry>>,
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

    /// Enables or disables the placement cache (default enabled). With the
    /// cache off every lookup recomputes the placement — the configuration
    /// benchmarks use as the uncached baseline.
    #[must_use]
    pub fn placement_cache(mut self, enabled: bool) -> Self {
        self.placement_cache = enabled;
        self
    }

    /// Sets the minimum online-device count at which placement routes
    /// through the precomputed O(k)-per-query fast engine instead of the
    /// table-free O(n) scan (default 64). Lower it to force the fast
    /// engine on small clusters, or pass `usize::MAX` to pin the scan —
    /// the knob the migration benchmark sweeps.
    #[must_use]
    pub fn fast_strategy_threshold(mut self, min_devices: usize) -> Self {
        self.fast_strategy_threshold = min_devices;
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

    /// Publishes the cluster's series into a caller-owned registry
    /// (implies [`ClusterBuilder::metrics`]`(true)`) instead of a private
    /// one — e.g. to merge several clusters into one scrape surface.
    #[must_use]
    pub fn metrics_registry(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = true;
        self.metrics_registry = Some(registry);
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
    ///   incompatible with the erasure geometry, or duplicate device ids.
    /// * [`VdsError::Placement`] if fewer devices than shards exist.
    pub fn build(self) -> Result<StorageCluster, VdsError> {
        if self.block_size == 0 {
            return Err(VdsError::InvalidConfig {
                reason: "block size must be positive",
            });
        }
        let codec = self.redundancy.codec()?;
        let multiple = self.redundancy.block_multiple(codec.as_deref());
        if !self.block_size.is_multiple_of(multiple) {
            return Err(VdsError::InvalidConfig {
                reason: "block size must be divisible by the erasure geometry (data shards × symbol rows)",
            });
        }
        let mut devices = BTreeMap::new();
        for (id, cap, profile) in &self.devices {
            if devices
                .insert(*id, Device::with_profile(*id, *cap, *profile))
                .is_some()
            {
                return Err(VdsError::InvalidConfig {
                    reason: "duplicate device id",
                });
            }
        }
        let metrics = self.metrics.then(|| {
            ClusterMetrics::new(
                self.metrics_registry
                    .unwrap_or_else(|| Arc::new(Registry::new())),
            )
        });
        let mut cluster = StorageCluster {
            devices,
            redundancy: self.redundancy,
            codec,
            strategy: None,
            block_size: self.block_size,
            blocks: BTreeSet::new(),
            pending: None,
            cache: PlacementCache::new(),
            cache_enabled: self.placement_cache,
            placement_epoch: 0,
            placements_computed: AtomicU64::new(0),
            fast_threshold: self.fast_strategy_threshold,
            metrics,
        };
        cluster.strategy = Some(cluster.build_strategy()?);
        Ok(cluster)
    }
}

/// A pool of storage devices virtualized into one redundant block store.
pub struct StorageCluster {
    devices: BTreeMap<u64, Device>,
    redundancy: Redundancy,
    codec: Option<Box<dyn ErasureCode>>,
    strategy: Option<ClusterStrategy>,
    block_size: usize,
    /// Logical block addresses that have been written.
    blocks: BTreeSet<u64>,
    /// In-flight lazy migration, if any.
    pending: Option<PendingMigration>,
    /// Cache of target-strategy placements, keyed by block address and
    /// validated against [`StorageCluster::placement_epoch`].
    cache: PlacementCache,
    /// Whether lookups consult (and populate) the placement cache.
    cache_enabled: bool,
    /// Bumped on every strategy change (add/remove/rebuild/lazy add), which
    /// invalidates all cached placements in O(1).
    placement_epoch: u64,
    /// Number of placements actually computed by a strategy (cache hits
    /// don't count — the cache-coherence tests pin this).
    placements_computed: AtomicU64,
    /// Minimum online-device count for the fast placement engine
    /// ([`ClusterBuilder::fast_strategy_threshold`]).
    fast_threshold: usize,
    /// Metric handles, when recording is enabled. `None` means every hot
    /// path skips instrumentation entirely.
    metrics: Option<ClusterMetrics>,
}

/// Counters produced by one gather/apply migration execution.
#[derive(Default)]
struct ExecOutcome {
    /// Shards whose device changed.
    moved: u64,
    /// Shards reconstructed from redundancy.
    reconstructed: u64,
    /// Shards written to a device (moved + repaired-in-place).
    stored: u64,
}

/// One device's share of a migration chunk, built by the gather phase.
#[derive(Default)]
struct DeviceQueue {
    /// Shards to drop: `(lba, copy)`.
    removes: Vec<(u64, usize)>,
    /// Shards to land: `(lba, copy, payload)`.
    stores: Vec<(u64, usize, Vec<u8>)>,
}

/// State of an in-flight lazy migration.
struct PendingMigration {
    /// The placement in force for blocks not yet migrated.
    old_strategy: ClusterStrategy,
    /// Blocks whose shards still live at their old locations.
    remaining: BTreeSet<u64>,
}

impl std::fmt::Debug for StorageCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageCluster")
            .field("devices", &self.devices.len())
            .field("redundancy", &self.redundancy)
            .field("block_size", &self.block_size)
            .field("blocks", &self.blocks.len())
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
            placement_cache: true,
            fast_strategy_threshold: FAST_PLACEMENT_MIN_DEVICES,
            metrics: true,
            metrics_registry: None,
        }
    }

    /// The configured logical block size in bytes.
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The configured redundancy scheme.
    #[must_use]
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// Ids of all devices (online and failed), ascending.
    #[must_use]
    pub fn device_ids(&self) -> Vec<u64> {
        self.devices.keys().copied().collect()
    }

    /// Read access to a device (for statistics and inspection).
    #[must_use]
    pub fn device(&self, id: u64) -> Option<&Device> {
        self.devices.get(&id)
    }

    /// Number of logical blocks stored.
    #[must_use]
    pub fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn strategy(&self) -> &ClusterStrategy {
        // Invariant: `build()` installs a strategy before the cluster is
        // handed out, and every membership change replaces it atomically
        // (`Option::replace`), so the slot is never observably empty.
        self.strategy.as_ref().expect("strategy always present")
    }

    /// Builds a placement strategy over the online devices, weighted by
    /// their capacities.
    fn build_strategy(&self) -> Result<ClusterStrategy, VdsError> {
        let bins = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| Bin::new(d.id(), d.capacity_blocks()))
            .collect::<Result<Vec<_>, _>>()?;
        let set = BinSet::new(bins)?;
        Ok(ClusterStrategy::build(
            &set,
            self.redundancy.total_shards(),
            self.fast_threshold,
        )?)
    }

    /// The device ids shard 0, 1, … of `lba` are placed on.
    ///
    /// During a lazy migration this is the *effective* placement: blocks
    /// not yet migrated still resolve to their pre-change locations.
    #[must_use]
    pub fn placement(&self, lba: u64) -> Vec<u64> {
        self.effective_placement(lba).to_vec()
    }

    /// Like [`StorageCluster::placement`], but writes the device ids into a
    /// caller-provided buffer (cleared first) — the zero-allocation variant
    /// for callers issuing many lookups.
    pub fn placement_into(&self, lba: u64, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.effective_placement(lba));
    }

    /// The effective placement of `lba`: the old strategy for blocks still
    /// awaiting lazy migration, the cached target placement otherwise.
    fn effective_placement(&self, lba: u64) -> PlacementIds {
        if let Some(p) = &self.pending {
            if p.remaining.contains(&lba) {
                // Old-strategy placements are never cached: they die with
                // the migration and would otherwise need their own epoch.
                return self.compute_placement(&p.old_strategy, lba);
            }
        }
        self.target_placement(lba)
    }

    /// The placement under the *target* (post-migration) configuration,
    /// served from the epoch-versioned cache when enabled.
    fn target_placement(&self, lba: u64) -> PlacementIds {
        if self.cache_enabled && self.redundancy.total_shards() <= MAX_CACHED_SHARDS {
            if let Some(hit) = self.cache.get(lba, self.placement_epoch) {
                return PlacementIds::Inline(hit);
            }
            let computed = self.compute_placement(self.strategy(), lba);
            if let PlacementIds::Inline(p) = &computed {
                self.cache.put(lba, self.placement_epoch, *p);
            }
            computed
        } else {
            self.compute_placement(self.strategy(), lba)
        }
    }

    /// Runs a strategy placement (the slow path a cache hit skips),
    /// returning the group inline whenever it fits.
    fn compute_placement(&self, strategy: &ClusterStrategy, lba: u64) -> PlacementIds {
        self.placements_computed.fetch_add(1, Ordering::Relaxed);
        let k = strategy.replication();
        if k <= MAX_INLINE_K {
            let mut arr = [BinId(0); MAX_INLINE_K];
            let n = match strategy {
                ClusterStrategy::Scan(s) => s.place_into_inline(lba, &mut arr),
                ClusterStrategy::Fast(s) => s.place_into_inline(lba, &mut arr),
            };
            let mut p = InlinePlacement::empty();
            for id in &arr[..n] {
                p.push(id.raw());
            }
            PlacementIds::Inline(p)
        } else {
            let ids: Vec<u64> = strategy.place(lba).into_iter().map(|b| b.raw()).collect();
            if ids.len() <= MAX_CACHED_SHARDS {
                PlacementIds::Inline(InlinePlacement::from_slice(&ids))
            } else {
                PlacementIds::Heap(ids)
            }
        }
    }

    /// Hit/miss/occupancy counters of the placement cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The current placement epoch (bumped by every strategy change).
    #[must_use]
    pub fn placement_epoch(&self) -> u64 {
        self.placement_epoch
    }

    /// Total placements computed by a strategy since construction; lookups
    /// served from the cache do not increment this.
    #[must_use]
    pub fn placements_computed(&self) -> u64 {
        self.placements_computed.load(Ordering::Relaxed)
    }

    /// Enables or disables the placement cache at runtime. Disabling also
    /// drops all cached entries.
    pub fn set_placement_cache(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.cache.clear();
        }
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
    /// encode → place → shard-store per block. Data shards are stored
    /// straight from `data` (never copied into owned shards —
    /// [`rshare_erasure::ErasureCode::encode_parity`]), parity scratch is
    /// hoisted out of the loop, and device-side overwrites recycle the
    /// stored `Vec`, so the steady state allocates nothing per block.
    /// `data` is the concatenation of the blocks, in `lbas` order. Encode
    /// parities stream through the tiered GF(256) kernels
    /// ([`rshare_erasure::gf256::kernel_tier`]).
    ///
    /// # Errors
    ///
    /// * [`VdsError::WrongBlockSize`] if `data` is not exactly
    ///   `lbas.len()` blocks.
    /// * [`VdsError::OutOfSpace`] / [`VdsError::DeviceFailed`] from the
    ///   target devices; blocks before the failing one remain written.
    pub fn write_blocks(&mut self, lbas: &[u64], data: &[u8]) -> Result<(), VdsError> {
        let expected = lbas.len() * self.block_size;
        if data.len() != expected {
            return Err(VdsError::WrongBlockSize {
                expected,
                got: data.len(),
            });
        }
        if lbas.is_empty() {
            return Ok(());
        }
        // Data shards are borrowed straight out of `data`; only parity is
        // materialized, into scratch that lives across the whole batch
        // (`encode_parity` resizes it in place each iteration).
        let mut parity: Vec<Vec<u8>> =
            vec![Vec::new(); self.codec.as_deref().map_or(0, ErasureCode::parity_shards)];
        let mut refs: Vec<&[u8]> = Vec::new();
        let mut old_ids: Vec<u64> = Vec::new();
        for (&lba, block) in lbas.iter().zip(data.chunks_exact(self.block_size)) {
            refs.clear();
            if let Some(codec) = self.codec.as_deref() {
                let shard_len = self.block_size / codec.data_shards();
                refs.extend(block.chunks_exact(shard_len));
                codec.encode_parity(&refs, &mut parity)?;
            } else {
                // Mirroring: every copy is the block itself.
                refs.extend(std::iter::repeat_n(block, self.redundancy.total_shards()));
            }
            // Writes always land at the target placement; if the block was
            // awaiting lazy migration, the overwrite completes it for free.
            let completes_migration = if let Some(p) = &mut self.pending {
                if p.remaining.remove(&lba) {
                    old_ids.clear();
                    old_ids.extend(p.old_strategy.place(lba).into_iter().map(|id| id.raw()));
                    true
                } else {
                    false
                }
            } else {
                false
            };
            let placement = self.target_placement(lba);
            let total = refs.len() + parity.len();
            for (i, &dev_id) in placement.iter().enumerate().take(total) {
                let shard: &[u8] = if i < refs.len() {
                    refs[i]
                } else {
                    &parity[i - refs.len()]
                };
                let device = self
                    .devices
                    .get_mut(&dev_id)
                    .ok_or(VdsError::UnknownDevice { id: dev_id })?;
                device.store_from((lba, i), shard)?;
            }
            if completes_migration {
                for (i, dev_id) in old_ids.iter().enumerate() {
                    if *dev_id != placement[i] {
                        if let Some(d) = self.devices.get_mut(dev_id) {
                            d.remove(&(lba, i));
                        }
                    }
                }
            }
            self.blocks.insert(lba);
            if let Some(m) = &self.metrics {
                m.writes_total.inc();
            }
        }
        Ok(())
    }

    /// Reads one logical block, touching as few devices as possible:
    /// mirrored blocks read a single copy (rotated over the copies so read
    /// load follows capacity — the paper's "x% of the requests" fairness),
    /// erasure-coded blocks read only the data shards. Missing shards
    /// degrade transparently to reconstruction.
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
        if !self.blocks.contains(&lba) {
            return Err(VdsError::BlockNotFound { lba });
        }
        // Cached (and, on miss, inline-computed) placement: the lookup
        // itself allocates nothing for groups that fit the inline array.
        let placement = self.effective_placement(lba);
        let k = placement.len();
        match self.redundancy {
            Redundancy::Mirror { .. } => {
                // Deterministic per-block copy preference: each block pins
                // a copy index, so over many blocks every bin serves reads
                // in proportion to the copies it holds (∝ capacity).
                let preferred =
                    (rshare_hash::stable_hash2(lba, READ_BALANCE_DOMAIN) % k as u64) as usize;
                for step in 0..k {
                    let i = (preferred + step) % k;
                    if self
                        .devices
                        .get(&placement[i])
                        .is_some_and(|d| d.load_into(&(lba, i), buf))
                    {
                        return Ok(step > 0);
                    }
                }
                Err(VdsError::DataLoss { lba })
            }
            _ => {
                // `build()` creates a codec for every erasure scheme; a
                // missing one here is a bug, surfaced as a typed error
                // rather than a panic on the public read path.
                let codec = self.codec.as_deref().ok_or(VdsError::Internal {
                    reason: "erasure redundancy configured without a codec",
                })?;
                let d = codec.data_shards();
                let shard_len = self.block_size / d;
                // Fast path: copy each data shard straight into its stripe
                // segment of `buf` — no per-shard `Vec`.
                let mut loaded = 0;
                while loaded < d {
                    let seg = &mut buf[loaded * shard_len..(loaded + 1) * shard_len];
                    if self
                        .devices
                        .get(&placement[loaded])
                        .is_some_and(|dev| dev.load_into(&(lba, loaded), seg))
                    {
                        loaded += 1;
                    } else {
                        break;
                    }
                }
                if loaded == d {
                    return Ok(false);
                }
                // Degraded read: keep what the fast path already pulled,
                // fetch the remaining data + parity shards, reconstruct.
                // Device read counters stay identical to the fast path
                // attempting every shard once: the prefix is not re-read.
                let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(k);
                for i in 0..k {
                    if i < loaded {
                        shards.push(Some(buf[i * shard_len..(i + 1) * shard_len].to_vec()));
                    } else {
                        shards.push(
                            self.devices
                                .get(&placement[i])
                                .and_then(|dev| dev.load(&(lba, i))),
                        );
                    }
                }
                let data = self
                    .redundancy
                    .decode_block(shards, self.codec.as_deref(), lba)?;
                buf.copy_from_slice(&data);
                Ok(true)
            }
        }
    }

    /// Adds a device and migrates the shards whose computed placement
    /// changed.
    ///
    /// # Errors
    ///
    /// [`VdsError::InvalidConfig`] for a duplicate id; placement and I/O
    /// errors from the migration.
    pub fn add_device(
        &mut self,
        id: u64,
        capacity_blocks: u64,
    ) -> Result<MigrationReport, VdsError> {
        self.add_device_with_profile(id, capacity_blocks, DeviceProfile::default())
    }

    /// Adds a device with an explicit performance profile and migrates the
    /// shards whose computed placement changed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::add_device`].
    pub fn add_device_with_profile(
        &mut self,
        id: u64,
        capacity_blocks: u64,
        profile: DeviceProfile,
    ) -> Result<MigrationReport, VdsError> {
        if self.devices.contains_key(&id) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        self.devices
            .insert(id, Device::with_profile(id, capacity_blocks, profile));
        let new_strategy = self.build_strategy()?;
        self.replace_strategy(new_strategy)
    }

    /// Adds a device *lazily*: the placement switches immediately, but no
    /// data moves — blocks keep resolving to their old locations until
    /// they are migrated by [`StorageCluster::migrate_batch`] (or rewritten,
    /// which completes their migration for free). Returns the number of
    /// blocks awaiting migration.
    ///
    /// Only computed placement makes this cheap: both the old and the new
    /// mapping are pure functions, so serving from either side needs no
    /// per-block forwarding table.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::add_device`]. Any migration
    /// already in flight is drained first.
    pub fn add_device_lazy(&mut self, id: u64, capacity_blocks: u64) -> Result<u64, VdsError> {
        if self.devices.contains_key(&id) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        self.drain_pending()?;
        self.devices.insert(
            id,
            Device::with_profile(id, capacity_blocks, DeviceProfile::default()),
        );
        let new_strategy = self.build_strategy()?;
        let old_strategy = self
            .strategy
            .replace(new_strategy)
            .expect("strategy always present");
        // The target mapping changed, so cached placements are stale even
        // though no data has moved yet; pending blocks additionally bypass
        // the cache until migrated (see `effective_placement`).
        self.placement_epoch += 1;
        let remaining: BTreeSet<u64> = self.blocks.iter().copied().collect();
        let count = remaining.len() as u64;
        self.pending = Some(PendingMigration {
            old_strategy,
            remaining,
        });
        Ok(count)
    }

    /// Blocks still awaiting lazy migration.
    #[must_use]
    pub fn pending_blocks(&self) -> u64 {
        self.pending
            .as_ref()
            .map_or(0, |p| p.remaining.len() as u64)
    }

    /// Migrates up to `max_blocks` pending blocks (lowest addresses first)
    /// to their target placement, returning what moved. Old and new
    /// placements are computed in bulk with the stride-k batch API,
    /// unchanged blocks are skipped without any device I/O, and the
    /// changed ones go through the gather/apply executor. The bounded
    /// budget keeps lazy migration incremental; with no migration in
    /// flight this is a no-op reporting zeros.
    ///
    /// # Errors
    ///
    /// Device I/O errors and [`VdsError::DataLoss`] if a pending block
    /// became unrecoverable. Blocks of a failed chunk stay pending; if a
    /// device failed mid-migration run [`StorageCluster::rebuild`], which
    /// absorbs the remaining migration.
    pub fn migrate_batch(&mut self, max_blocks: u64) -> Result<MigrationReport, VdsError> {
        let mut report = MigrationReport::default();
        let Some(mut pending) = self.pending.take() else {
            return Ok(report);
        };
        let take = max_blocks.min(pending.remaining.len() as u64) as usize;
        let lbas: Vec<u64> = pending.remaining.iter().copied().take(take).collect();
        let mut old_ids: Vec<BinId> = Vec::new();
        let mut old_flat: Vec<u64> = Vec::new();
        let mut failure = None;
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            pending.old_strategy.place_batch_into(chunk, &mut old_ids);
            old_flat.clear();
            old_flat.extend(old_ids.iter().map(|b| b.raw()));
            match self.rebalance_chunk(chunk, &old_flat, false) {
                Ok(r) => {
                    report.merge(r);
                    // The chunk is an ascending prefix of the pending set,
                    // so one O(log n) split drops it instead of a
                    // per-block remove.
                    let bound = chunk.last().expect("chunks are non-empty") + 1;
                    pending.remaining = pending.remaining.split_off(&bound);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if !pending.remaining.is_empty() {
            self.pending = Some(pending);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Drains the entire in-flight lazy migration
    /// ([`StorageCluster::migrate_batch`] without a budget). With no
    /// migration in flight this is a no-op.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StorageCluster::migrate_batch`].
    pub fn rebalance(&mut self) -> Result<MigrationReport, VdsError> {
        self.migrate_batch(u64::MAX)
    }

    /// Completes any in-flight lazy migration synchronously.
    fn drain_pending(&mut self) -> Result<(), VdsError> {
        while self.pending.is_some() {
            self.migrate_batch(u64::MAX)?;
        }
        Ok(())
    }

    /// Batch-computes the *effective* placement of every `lbas[j]` into
    /// `out` as one flat stride-k run of raw device ids, bypassing the
    /// per-block cache: blocks still awaiting lazy migration resolve
    /// through the old strategy, everything else through the target
    /// strategy in bulk.
    fn effective_flat(&self, lbas: &[u64], out: &mut Vec<u64>) {
        let k = self.redundancy.total_shards();
        out.clear();
        match &self.pending {
            Some(p) => {
                out.resize(lbas.len() * k, 0);
                let mut current: Vec<u64> = Vec::with_capacity(lbas.len());
                let mut current_pos: Vec<usize> = Vec::with_capacity(lbas.len());
                let mut scratch: Vec<u64> = Vec::new();
                for (j, &lba) in lbas.iter().enumerate() {
                    if p.remaining.contains(&lba) {
                        p.old_strategy.place_ids_into(lba, &mut scratch);
                        out[j * k..(j + 1) * k].copy_from_slice(&scratch);
                    } else {
                        current.push(lba);
                        current_pos.push(j);
                    }
                }
                let mut ids: Vec<BinId> = Vec::with_capacity(current.len() * k);
                self.strategy().place_batch_into(&current, &mut ids);
                for (m, &j) in current_pos.iter().enumerate() {
                    let group = &ids[m * k..(m + 1) * k];
                    for (slot, id) in out[j * k..(j + 1) * k].iter_mut().zip(group) {
                        *slot = id.raw();
                    }
                }
            }
            None => {
                let mut ids: Vec<BinId> = Vec::with_capacity(lbas.len() * k);
                self.strategy().place_batch_into(lbas, &mut ids);
                out.extend(ids.iter().map(|b| b.raw()));
            }
        }
    }

    /// Migrates one chunk of blocks from their `old_flat` placements (flat
    /// stride-k device ids, parallel to `lbas`) to the current target
    /// strategy. Blocks whose placement is unchanged are skipped without
    /// touching any device — unless `repair_unchanged` is set, in which
    /// case blocks missing a shard at an unchanged location are re-stored
    /// (the membership-change path repairs latent losses in passing).
    fn rebalance_chunk(
        &mut self,
        lbas: &[u64],
        old_flat: &[u64],
        repair_unchanged: bool,
    ) -> Result<MigrationReport, VdsError> {
        let k = self.redundancy.total_shards();
        let mut report = MigrationReport {
            blocks: lbas.len() as u64,
            shards_total: (lbas.len() * k) as u64,
            ..MigrationReport::default()
        };
        let mut new_ids: Vec<BinId> = Vec::with_capacity(lbas.len() * k);
        self.strategy().place_batch_into(lbas, &mut new_ids);
        let new_flat: Vec<u64> = new_ids.iter().map(|b| b.raw()).collect();
        let mut work: Vec<usize> = Vec::new();
        for (j, &lba) in lbas.iter().enumerate() {
            let old = &old_flat[j * k..(j + 1) * k];
            let new = &new_flat[j * k..(j + 1) * k];
            if old != new
                || (repair_unchanged
                    && new
                        .iter()
                        .enumerate()
                        .any(|(i, id)| !self.devices.get(id).is_some_and(|d| d.has(&(lba, i)))))
            {
                work.push(j);
            }
        }
        if work.is_empty() {
            return Ok(report);
        }
        let outcome = self.execute_block_ops(lbas, &work, old_flat, &new_flat)?;
        report.shards_moved = outcome.moved;
        report.shards_reconstructed = outcome.reconstructed;
        Ok(report)
    }

    /// Read-only gather for one migrating block: loads the group's shards
    /// from their `old` devices, reconstructs any missing ones (once per
    /// stripe), and queues the block's device-level removes and stores
    /// against `new`.
    fn gather_block(
        &self,
        lba: u64,
        old: &[u64],
        new: &[u64],
        queues: &mut BTreeMap<u64, DeviceQueue>,
        outcome: &mut ExecOutcome,
    ) -> Result<(), VdsError> {
        let mut shards: Vec<Option<Vec<u8>>> = old
            .iter()
            .enumerate()
            .map(|(i, dev_id)| self.devices.get(dev_id).and_then(|d| d.load(&(lba, i))))
            .collect();
        let missing = shards.iter().filter(|s| s.is_none()).count() as u64;
        if missing > 0 {
            self.reconstruct_group(&mut shards, lba)?;
        }
        outcome.reconstructed += missing;
        for (i, slot) in shards.iter_mut().enumerate() {
            // `reconstruct_group` either fills every `None` slot or errors
            // out above; a hole here is unreachable.
            let shard = slot.take().expect("complete after reconstruction");
            let (old_dev, new_dev) = (old[i], new[i]);
            if old_dev != new_dev {
                outcome.moved += 1;
                queues.entry(old_dev).or_default().removes.push((lba, i));
            } else if self.devices.get(&new_dev).is_some_and(|d| d.has(&(lba, i))) {
                // Already in place: nothing to store.
                continue;
            }
            outcome.stored += 1;
            queues
                .entry(new_dev)
                .or_default()
                .stores
                .push((lba, i, shard));
        }
        Ok(())
    }

    /// The two-phase migration executor. Gather: each block in `work`
    /// (indices into `lbas`) loads its group once, reconstructs what's
    /// missing, and queues device-level ops per device. Apply: each
    /// device's queue runs removes first, so freed capacity is visible to
    /// this chunk's own stores on the same device. A failed gather applies
    /// nothing.
    fn execute_block_ops(
        &mut self,
        lbas: &[u64],
        work: &[usize],
        old_flat: &[u64],
        new_flat: &[u64],
    ) -> Result<ExecOutcome, VdsError> {
        let k = self.redundancy.total_shards();
        let mut outcome = ExecOutcome::default();
        let mut queues: BTreeMap<u64, DeviceQueue> = BTreeMap::new();
        for &j in work {
            self.gather_block(
                lbas[j],
                &old_flat[j * k..(j + 1) * k],
                &new_flat[j * k..(j + 1) * k],
                &mut queues,
                &mut outcome,
            )?;
        }
        // Stores must land on a live device; removes tolerate a vanished
        // one (a shard's old home may already be failed or dropped).
        for (&dev, queue) in &queues {
            if !queue.stores.is_empty() && !self.devices.contains_key(&dev) {
                return Err(VdsError::UnknownDevice { id: dev });
            }
        }
        for (dev, queue) in queues {
            let Some(device) = self.devices.get_mut(&dev) else {
                continue;
            };
            for (lba, copy) in queue.removes {
                device.remove(&(lba, copy));
            }
            for (lba, copy, data) in queue.stores {
                device.store((lba, copy), data)?;
            }
        }
        if let Some(m) = &self.metrics {
            m.migration_moves_executed_total.add(outcome.moved);
            m.shards_reconstructed_total.add(outcome.reconstructed);
        }
        Ok(outcome)
    }

    /// Gracefully removes a device, migrating its shards away first.
    ///
    /// # Errors
    ///
    /// * [`VdsError::UnknownDevice`] if no such device exists.
    /// * Placement errors if too few devices would remain.
    pub fn remove_device(&mut self, id: u64) -> Result<MigrationReport, VdsError> {
        if !self.devices.contains_key(&id) {
            return Err(VdsError::UnknownDevice { id });
        }
        // Build the post-removal strategy first so a placement failure
        // (too few devices) leaves the cluster untouched; the leaving
        // device stays in the pool during the migration so its shards are
        // read (drained) rather than reconstructed.
        let bins = self
            .devices
            .values()
            .filter(|d| d.id() != id && d.state() == DeviceState::Online)
            .map(|d| Bin::new(d.id(), d.capacity_blocks()))
            .collect::<Result<Vec<_>, _>>()?;
        let set = BinSet::new(bins)?;
        let new_strategy =
            ClusterStrategy::build(&set, self.redundancy.total_shards(), self.fast_threshold)?;
        let report = self.replace_strategy(new_strategy)?;
        // Presence was checked at entry and `&mut self` rules out any
        // interleaving removal, so the entry is still there.
        let drained = self.devices.remove(&id).expect("checked above");
        debug_assert_eq!(
            drained.used_blocks(),
            0,
            "graceful removal must drain the device"
        );
        Ok(report)
    }

    /// Marks a device as crashed; its contents are lost and reads degrade
    /// until [`StorageCluster::rebuild`] runs.
    ///
    /// # Errors
    ///
    /// [`VdsError::UnknownDevice`] if no such device exists.
    pub fn fail_device(&mut self, id: u64) -> Result<(), VdsError> {
        let dev = self
            .devices
            .get_mut(&id)
            .ok_or(VdsError::UnknownDevice { id })?;
        dev.fail();
        Ok(())
    }

    /// Re-protects all data after failures: drops failed devices, rebuilds
    /// the placement over the survivors, reconstructs lost shards from
    /// redundancy and migrates shards to their new locations.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if any block lost more shards than the
    /// redundancy tolerates; placement errors if too few devices survive.
    pub fn rebuild(&mut self) -> Result<MigrationReport, VdsError> {
        let failed: Vec<u64> = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Failed)
            .map(Device::id)
            .collect();
        for id in &failed {
            self.devices.remove(id);
        }
        let new_strategy = self.build_strategy()?;
        self.replace_strategy(new_strategy)
    }

    /// Verifies that every block is readable; returns the number of blocks
    /// currently degraded (readable only through reconstruction).
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] on the first unrecoverable block.
    pub fn scrub(&mut self) -> Result<u64, VdsError> {
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let mut degraded = 0;
        for lba in lbas {
            let placement = self.effective_placement(lba);
            let missing = placement
                .iter()
                .enumerate()
                .filter(|(i, dev_id)| !self.devices.get(dev_id).is_some_and(|d| d.has(&(lba, *i))))
                .count();
            if missing > 0 {
                degraded += 1;
                // Force the read path to prove recoverability.
                self.read_block(lba)?;
            }
        }
        Ok(degraded)
    }

    /// Repairs degraded blocks in place: any shard missing from its
    /// computed location (e.g. lost to a transient device error) is
    /// reconstructed from the group's redundancy and re-stored, without
    /// changing any placement. Returns the number of shards repaired.
    ///
    /// Contrast with [`StorageCluster::rebuild`], which removes failed
    /// devices and relocates data; `repair` restores redundancy when the
    /// device set is unchanged.
    ///
    /// Reconstruction is fused per chunk: degraded stripes are gathered,
    /// decoded and re-stored through the batched block-op executor, and
    /// the decode itself streams through the tiered GF(256) kernels
    /// ([`rshare_erasure::gf256::kernel_tier`]) via `mul_acc_many` in
    /// cache-sized tiles.
    ///
    /// # Errors
    ///
    /// [`VdsError::DataLoss`] if a block lost more shards than the
    /// redundancy tolerates; device I/O errors on the re-stores.
    pub fn repair(&mut self) -> Result<u64, VdsError> {
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let k = self.redundancy.total_shards();
        let mut repaired = 0u64;
        let mut flat: Vec<u64> = Vec::new();
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            // Placements are unchanged during a repair, so the flat run is
            // built from per-block effective placements — served by the
            // epoch cache — rather than `effective_flat`'s bulk strategy
            // scan, which exists for migrations that just bumped the epoch
            // and would miss the cache on every block anyway.
            flat.clear();
            for &lba in chunk {
                flat.extend_from_slice(&self.effective_placement(lba));
            }
            let mut work: Vec<usize> = Vec::new();
            for (j, &lba) in chunk.iter().enumerate() {
                let degraded = flat[j * k..(j + 1) * k]
                    .iter()
                    .enumerate()
                    .any(|(i, id)| !self.devices.get(id).is_some_and(|d| d.has(&(lba, i))));
                if degraded {
                    work.push(j);
                }
            }
            if work.is_empty() {
                continue;
            }
            // Pipelined through the migration executor with old == new:
            // each degraded stripe is gathered and decoded exactly once
            // and the stores land only in the missing slots.
            let blocks_repaired = work.len() as u64;
            let outcome = self.execute_block_ops(chunk, &work, &flat, &flat)?;
            repaired += outcome.stored;
            if let Some(m) = &self.metrics {
                m.repair_blocks_total.add(blocks_repaired);
            }
        }
        Ok(repaired)
    }

    /// The simulated completion time of everything the cluster has done so
    /// far: the largest per-device busy time, i.e. the makespan assuming
    /// all devices operate in parallel.
    #[must_use]
    pub fn makespan_us(&self) -> u64 {
        self.devices
            .values()
            .map(|d| d.stats().busy_us)
            .max()
            .unwrap_or(0)
    }

    /// Clears every device's I/O counters (e.g. to time one workload phase
    /// in isolation).
    pub fn reset_stats(&mut self) {
        for d in self.devices.values_mut() {
            d.reset_stats();
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
        if self.devices.contains_key(&id) {
            return Err(VdsError::InvalidConfig {
                reason: "duplicate device id",
            });
        }
        let mut bins: Vec<Bin> = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| Bin::new(d.id(), d.capacity_blocks()))
            .collect::<Result<Vec<_>, _>>()?;
        let online_capacity: u64 = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .map(Device::capacity_blocks)
            .sum();
        bins.push(Bin::new(id, capacity_blocks)?);
        // Fair minimum (Lemma 3.2): any strategy must move the new
        // device's capacity share of all shards onto it.
        let shards_total = self.blocks.len() as f64 * self.redundancy.total_shards() as f64;
        let fair_min =
            shards_total * capacity_blocks as f64 / (online_capacity + capacity_blocks) as f64;
        self.plan_against(&BinSet::new(bins)?, fair_min)
    }

    /// Dry-runs removing a device: returns the migration plan without
    /// moving any data or changing the cluster.
    ///
    /// # Errors
    ///
    /// Same validation as [`StorageCluster::remove_device`].
    pub fn plan_remove_device(&self, id: u64) -> Result<MigrationPlan, VdsError> {
        let leaving = self
            .devices
            .get(&id)
            .ok_or(VdsError::UnknownDevice { id })?;
        let bins: Vec<Bin> = self
            .devices
            .values()
            .filter(|d| d.id() != id && d.state() == DeviceState::Online)
            .map(|d| Bin::new(d.id(), d.capacity_blocks()))
            .collect::<Result<Vec<_>, _>>()?;
        // Fair minimum (Lemma 3.2): the shards resident on the leaving
        // device must move, whatever the strategy.
        let fair_min = leaving.used_blocks() as f64;
        self.plan_against(&BinSet::new(bins)?, fair_min)
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
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Failed)
            .map(Device::id)
            .collect();
        let bins: Vec<Bin> = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| Bin::new(d.id(), d.capacity_blocks()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut plan = self.plan_against(&BinSet::new(bins)?, 0.0)?;
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

    /// Diffs the current placement against a hypothetical bin set, in
    /// bulk: old (effective) and candidate placements are computed a
    /// chunk at a time through the stride-k batch API and compared
    /// slice-against-slice, so unchanged blocks — the common case under
    /// 2–4-competitive churn — cost two batched lookups and one memcmp.
    /// The moves are sorted so every (source → target) device queue is
    /// contiguous ([`MigrationPlan::device_queues`]).
    fn plan_against(&self, bins: &BinSet, fair_min_shards: f64) -> Result<MigrationPlan, VdsError> {
        let k = self.redundancy.total_shards();
        let candidate = ClusterStrategy::build(bins, k, self.fast_threshold)?;
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let mut plan = MigrationPlan {
            shards_total: (lbas.len() * k) as u64,
            blocks_total: lbas.len() as u64,
            fair_min_shards,
            ..MigrationPlan::default()
        };
        let mut old_flat: Vec<u64> = Vec::new();
        let mut new_ids: Vec<BinId> = Vec::new();
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            self.effective_flat(chunk, &mut old_flat);
            candidate.place_batch_into(chunk, &mut new_ids);
            for (j, &lba) in chunk.iter().enumerate() {
                let old = &old_flat[j * k..(j + 1) * k];
                let new = &new_ids[j * k..(j + 1) * k];
                let before = plan.moves.len();
                for (copy, (o, n)) in old.iter().zip(new).enumerate() {
                    if *o != n.raw() {
                        plan.moves.push(ShardMove {
                            lba,
                            copy,
                            from: *o,
                            to: n.raw(),
                        });
                    }
                }
                if plan.moves.len() > before {
                    plan.blocks_planned += 1;
                }
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
        if copy >= self.redundancy.total_shards() {
            return false;
        }
        let placement = self.effective_placement(lba);
        self.devices
            .get_mut(&placement[copy])
            .and_then(|d| d.remove(&(lba, copy)))
            .is_some()
    }

    /// Per-device `(id, used, capacity)` utilisation snapshot.
    #[must_use]
    pub fn utilization(&self) -> Vec<(u64, u64, u64)> {
        self.devices
            .values()
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
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .map(|d| (d.id(), d.used_blocks(), d.capacity_blocks()))
            .collect();
        FairnessReport::compute(&rows, self.redundancy.total_shards())
    }

    /// Number of blocks currently missing at least one shard from its
    /// computed location. Scans every block through the bulk placement
    /// API (the per-block cache is bypassed, so scrape-time accounting
    /// does not distort the cache hit/miss series).
    #[must_use]
    pub fn degraded_block_count(&self) -> u64 {
        let k = self.redundancy.total_shards();
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let mut flat: Vec<u64> = Vec::new();
        let mut degraded = 0u64;
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            self.effective_flat(chunk, &mut flat);
            for (j, &lba) in chunk.iter().enumerate() {
                let missing = flat[j * k..(j + 1) * k]
                    .iter()
                    .enumerate()
                    .any(|(i, id)| !self.devices.get(id).is_some_and(|d| d.has(&(lba, i))));
                if missing {
                    degraded += 1;
                }
            }
        }
        degraded
    }

    /// A point-in-time health summary: device counts, migration debt,
    /// degraded blocks and the fairness report. When metrics are enabled
    /// the corresponding gauges (`pending_blocks`, `degraded_blocks`,
    /// `devices_online`, `devices_failed`) are refreshed as a side effect,
    /// so scraping after a snapshot always sees current values.
    #[must_use]
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let devices_online = self
            .devices
            .values()
            .filter(|d| d.state() == DeviceState::Online)
            .count();
        let snap = HealthSnapshot {
            devices_online,
            devices_failed: self.devices.len() - devices_online,
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
    /// and the process-wide GF(256) kernel tallies.
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
            "Placement lookups served from the cache",
        );
        sample_line(&mut out, "placement_cache_hits_total", &[], cs.hits);
        family_header(
            &mut out,
            "placement_cache_misses_total",
            "counter",
            "Placement lookups that recomputed the placement",
        );
        sample_line(&mut out, "placement_cache_misses_total", &[], cs.misses);
        family_header(
            &mut out,
            "placement_cache_entries",
            "gauge",
            "Live placement cache entries",
        );
        sample_line(&mut out, "placement_cache_entries", &[], cs.entries);
        family_header(
            &mut out,
            "placements_computed_total",
            "counter",
            "Placements computed by a strategy (cache hits excluded)",
        );
        sample_line(
            &mut out,
            "placements_computed_total",
            &[],
            self.placements_computed(),
        );
        self.render_device_families(&mut out);
        let ks = rshare_erasure::gf256::kernel_stats();
        family_header(
            &mut out,
            "gf_xor_bytes_total",
            "counter",
            "Bytes XOR-accumulated by the GF(256) bulk kernels (process-wide)",
        );
        sample_line(&mut out, "gf_xor_bytes_total", &[], ks.xor_bytes);
        family_header(
            &mut out,
            "gf_mul_bytes_total",
            "counter",
            "Bytes run through a GF(256) multiply kernel, any tier (process-wide)",
        );
        sample_line(&mut out, "gf_mul_bytes_total", &[], ks.mul_bytes);
        family_header(
            &mut out,
            "gf_simd_bytes_total",
            "counter",
            "Multiply bytes served by the SIMD kernel tier (process-wide)",
        );
        sample_line(&mut out, "gf_simd_bytes_total", &[], ks.simd_bytes);
        family_header(
            &mut out,
            "gf_kernel_calls_total",
            "counter",
            "GF(256) bulk kernel invocations (process-wide)",
        );
        sample_line(&mut out, "gf_kernel_calls_total", &[], ks.calls);
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
                "Shard writes absorbed",
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
            for dev in self.devices.values() {
                let id = dev.id().to_string();
                sample_line(out, name, &[("device", id.as_str())], value(dev));
            }
        }
    }

    /// Swaps in a new placement strategy and migrates every shard whose
    /// computed location changed, through the batched executor.
    /// Shards whose old location is gone are reconstructed from the
    /// group's redundancy (each degraded stripe is decoded exactly once,
    /// however many of its shards need rebuilding).
    fn replace_strategy(
        &mut self,
        new_strategy: ClusterStrategy,
    ) -> Result<MigrationReport, VdsError> {
        let old_strategy = self
            .strategy
            .replace(new_strategy)
            .expect("strategy always present");
        // One epoch bump per plan invalidates every cached placement of
        // the old strategy; nothing per block touches the cache.
        self.placement_epoch += 1;
        // Any in-flight lazy migration is absorbed: blocks it had not yet
        // moved are gathered from their true (pre-lazy-change) locations.
        let absorbed = self.pending.take();
        let lbas: Vec<u64> = self.blocks.iter().copied().collect();
        let k = self.redundancy.total_shards();
        let mut report = MigrationReport::default();
        let mut old_ids: Vec<BinId> = Vec::new();
        let mut old_flat: Vec<u64> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        for chunk in lbas.chunks(MIGRATION_CHUNK_BLOCKS) {
            old_strategy.place_batch_into(chunk, &mut old_ids);
            old_flat.clear();
            old_flat.extend(old_ids.iter().map(|b| b.raw()));
            if let Some(p) = &absorbed {
                for (j, &lba) in chunk.iter().enumerate() {
                    if p.remaining.contains(&lba) {
                        p.old_strategy.place_ids_into(lba, &mut scratch);
                        old_flat[j * k..(j + 1) * k].copy_from_slice(&scratch);
                    }
                }
            }
            report.merge(self.rebalance_chunk(chunk, &old_flat, true)?);
        }
        Ok(report)
    }

    /// Fills the `None` entries of a shard vector using the redundancy.
    fn reconstruct_group(&self, shards: &mut [Option<Vec<u8>>], lba: u64) -> Result<(), VdsError> {
        match self.redundancy {
            Redundancy::Mirror { .. } => {
                // One clone per *missing* slot only (each re-stored copy
                // must own its bytes); the surviving source itself is
                // borrowed, never cloned.
                let src = shards
                    .iter()
                    .position(Option::is_some)
                    .ok_or(VdsError::DataLoss { lba })?;
                for i in 0..shards.len() {
                    if shards[i].is_none() {
                        let copy = shards[src].as_ref().expect("source present").clone();
                        shards[i] = Some(copy);
                    }
                }
                Ok(())
            }
            _ => {
                // Same constructor invariant as the read path: every
                // erasure scheme carries a codec; repair and migration
                // surface the impossible case as a typed error.
                let codec = self.codec.as_deref().ok_or(VdsError::Internal {
                    reason: "erasure redundancy configured without a codec",
                })?;
                codec.reconstruct(shards).map_err(|e| match e {
                    rshare_erasure::ErasureError::TooManyErasures { .. } => {
                        VdsError::DataLoss { lba }
                    }
                    other => VdsError::Erasure(other),
                })
            }
        }
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
    fn large_cluster_routes_through_fast_placement() {
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 });
        for id in 0..FAST_PLACEMENT_MIN_DEVICES as u64 {
            b = b.device(id, 5_000 + id * 13);
        }
        let mut c = b.build().unwrap();
        assert!(
            matches!(c.strategy(), ClusterStrategy::Fast(_)),
            "64-device cluster must use the O(k) strategy"
        );
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
        // A small cluster keeps the scan strategy.
        assert!(matches!(
            mirror_cluster().strategy(),
            ClusterStrategy::Scan(_)
        ));
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
        let mut c = mirror_cluster();
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
            "dry run must predict the real migration exactly"
        );
        // Planning is validated like the real operation.
        assert!(c.plan_add_device(9, 1).is_err());
        assert!(c.plan_remove_device(999).is_err());
        let removal_plan = c.plan_remove_device(9).unwrap();
        // Everything on device 9 must flow out.
        let outflow = removal_plan.moves.iter().filter(|m| m.from == 9).count() as u64;
        assert_eq!(outflow, c.device(9).unwrap().used_blocks());
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
    fn eager_operations_drain_lazy_migration_first() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        c.add_device_lazy(9, 10_000).unwrap();
        assert!(c.pending_blocks() > 0);
        // An eager removal forces the pending migration to finish first.
        c.remove_device(0).unwrap();
        assert_eq!(c.pending_blocks(), 0);
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
    fn membership_change_invalidates_cache_via_epoch() {
        let mut c = mirror_cluster();
        for lba in 0..300u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let epoch_before = c.placement_epoch();
        // Warm the cache for every block.
        for lba in 0..300u64 {
            c.read_block(lba).unwrap();
        }
        c.add_device(9, 10_000).unwrap();
        assert!(c.placement_epoch() > epoch_before, "epoch must bump");
        // Placements after the change match a freshly built identical
        // cluster (i.e. no stale cache entry leaks through).
        let mut fresh = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .device(9, 10_000)
            .build()
            .unwrap();
        fresh.set_placement_cache(false);
        for lba in 0..300u64 {
            assert_eq!(c.placement(lba), fresh.placement(lba), "lba {lba}");
            assert_eq!(c.read_block(lba).unwrap(), block(lba as u8, 64));
        }
    }

    #[test]
    fn lazy_migration_bypasses_cache_for_pending_blocks() {
        let mut c = mirror_cluster();
        for lba in 0..200u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        // Snapshot effective placements, then switch the mapping lazily.
        let old: Vec<Vec<u64>> = (0..200u64).map(|lba| c.placement(lba)).collect();
        c.add_device_lazy(9, 10_000).unwrap();
        // Pending blocks still resolve to their old locations even though
        // the cache holds (stale-epoch) entries from before the change.
        for lba in 0..200u64 {
            assert_eq!(c.placement(lba), old[lba as usize], "pending lba {lba}");
        }
        // Migrate everything; placements now come from the new strategy and
        // are cacheable — repeated lookups are hits, and still correct.
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

    #[test]
    fn disabled_cache_recomputes_every_lookup() {
        let mut c = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .placement_cache(false)
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .build()
            .unwrap();
        c.write_block(3, &block(3, 64)).unwrap();
        let computed = c.placements_computed();
        c.read_block(3).unwrap();
        c.read_block(3).unwrap();
        assert_eq!(
            c.placements_computed(),
            computed + 2,
            "uncached lookups recompute"
        );
        assert_eq!(c.cache_stats().entries, 0);
        // Re-enabling works.
        c.set_placement_cache(true);
        c.read_block(3).unwrap(); // miss, fills cache
        let computed = c.placements_computed();
        c.read_block(3).unwrap(); // hit
        assert_eq!(c.placements_computed(), computed);
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
    }

    #[test]
    fn fast_strategy_threshold_knob_selects_engine() {
        // Threshold at (or below) the device count forces the fast engine
        // on a small cluster; usize::MAX pins the scan on a large one.
        let forced_fast = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .fast_strategy_threshold(4)
            .device(0, 10_000)
            .device(1, 10_000)
            .device(2, 10_000)
            .device(3, 10_000)
            .build()
            .unwrap();
        assert!(matches!(forced_fast.strategy(), ClusterStrategy::Fast(_)));
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .fast_strategy_threshold(usize::MAX);
        for id in 0..FAST_PLACEMENT_MIN_DEVICES as u64 {
            b = b.device(id, 5_000);
        }
        let pinned_scan = b.build().unwrap();
        assert!(matches!(pinned_scan.strategy(), ClusterStrategy::Scan(_)));
        // The threshold survives membership changes.
        let mut c = forced_fast;
        c.add_device(9, 10_000).unwrap();
        assert!(matches!(c.strategy(), ClusterStrategy::Fast(_)));
        c.remove_device(9).unwrap();
        assert!(matches!(c.strategy(), ClusterStrategy::Fast(_)));
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
            // Same placements, same per-device contents.
            let k = redundancy.total_shards();
            for &lba in &lbas {
                assert_eq!(lazy.placement(lba), eager.placement(lba));
            }
            for id in eager.device_ids() {
                let (l, e) = (lazy.device(id).unwrap(), eager.device(id).unwrap());
                assert_eq!(l.used_blocks(), e.used_blocks(), "device {id}");
                for &lba in &lbas {
                    for copy in 0..k {
                        assert_eq!(l.load(&(lba, copy)), e.load(&(lba, copy)));
                    }
                }
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
    fn plan_accounting_and_device_queues() {
        let mut c = mirror_cluster();
        for lba in 0..2_000u64 {
            c.write_block(lba, &block(lba as u8, 64)).unwrap();
        }
        let plan = c.plan_add_device(9, 10_000).unwrap();
        assert_eq!(plan.blocks_total, 2_000);
        assert_eq!(plan.shards_total, 4_000);
        assert!(plan.blocks_planned > 0);
        assert!(plan.blocks_planned < plan.blocks_total, "skip-unchanged");
        assert!(plan.fair_min_shards > 0.0);
        // Lemma 3.2: the measured competitive ratio stays within 4.
        let ratio = plan.competitive_ratio();
        assert!(ratio > 0.0 && ratio <= 4.0, "ratio {ratio}");
        // Moves are sorted so device queues are contiguous and exhaustive.
        let queues = plan.device_queues();
        let mut seen = std::collections::BTreeSet::new();
        let mut covered = 0usize;
        for (from, to, moves) in queues {
            assert!(seen.insert((from, to)), "queue ({from},{to}) repeated");
            assert!(moves.iter().all(|m| m.from == from && m.to == to));
            covered += moves.len();
        }
        assert_eq!(covered, plan.moves.len());
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
            "gf_xor_bytes_total",
            "gf_mul_bytes_total",
            "gf_simd_bytes_total",
            "gf_kernel_calls_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn shared_registry_merges_two_clusters() {
        let registry = Arc::new(Registry::new());
        let mut a = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 1_000)
            .device(1, 1_000)
            .metrics_registry(Arc::clone(&registry))
            .build()
            .unwrap();
        let mut b = StorageCluster::builder()
            .block_size(64)
            .redundancy(Redundancy::Mirror { copies: 2 })
            .device(0, 1_000)
            .device(1, 1_000)
            .metrics_registry(Arc::clone(&registry))
            .build()
            .unwrap();
        a.write_block(0, &block(1, 64)).unwrap();
        b.write_block(0, &block(2, 64)).unwrap();
        assert_eq!(registry.counter("writes_total", "").get(), 2);
    }
}
