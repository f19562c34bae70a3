//! A sharded, epoch-versioned cache of computed placements.
//!
//! Redundant Share is deterministic per ball for a fixed bin set (Section 3
//! of the paper), so between membership changes the mapping
//! `lba -> [device; k]` is perfectly cacheable. Every membership change
//! ([`crate::StorageCluster::add_device`] / `remove_device` / `rebuild` /
//! `add_device_lazy`) bumps a *placement epoch*; cache entries carry the
//! epoch they were computed under and a lookup rejects a stale entry with
//! one integer comparison — no flush, no tombstones, O(1).
//!
//! The invariant every writer keeps: a row stamped with epoch `e` equals
//! strategy `e`'s placement of its block. Bulk passes rely on it twice —
//! a migration reads a block's old placement from a row still stamped
//! with the previous epoch ([`PlacementCache::peek`]) and, once it has
//! computed the new one, rewrites the row in place under the current epoch
//! ([`PlacementCache::refresh`]), so the first request after a membership
//! change hits.
//!
//! Each map shard is a [`Table`] of rows `[lba, epoch + 1, ids[k]]`,
//! with `k` (the cluster's group width) fixed at build: a cached
//! placement costs `8·(k + 2)` bytes plus the table's slack, no heap
//! allocation, and a lookup is one probe. A hit is handed out as an
//! [`InlinePlacement`]. The map is sharded by a hash of the block address
//! and each shard is guarded by its own mutex, so concurrent readers
//! sharing a [`crate::SharedCluster`] do not serialise on one lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::table::Table;

/// Widest redundancy group a cache lookup can return inline. Wider groups
/// (e.g. large LRCs) simply bypass the cache rather than spilling to the
/// heap — placement stays correct, just uncached.
pub const MAX_CACHED_SHARDS: usize = 16;

/// Number of independently locked map shards (power of two).
const CACHE_SHARDS: usize = 16;

/// Default bound on entries per map shard; at the bound the shard is
/// cleared wholesale (placements are recomputable, so bulk eviction is
/// cheaper than tracking recency).
const DEFAULT_PER_SHARD_CAPACITY: usize = 65_536;

/// Domain separator for the shard-selection hash.
const SHARD_DOMAIN: u64 = 0x504c_4143_4543_4148; // "PLACECAH"

/// A placement held in a fixed inline array — the zero-allocation value a
/// cache lookup (or an inline strategy placement) returns on the
/// read/write path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InlinePlacement {
    len: u8,
    ids: [u64; MAX_CACHED_SHARDS],
}

impl InlinePlacement {
    /// Builds from a slice of at most [`MAX_CACHED_SHARDS`] device ids.
    pub(crate) fn from_slice(src: &[u64]) -> Self {
        debug_assert!(src.len() <= MAX_CACHED_SHARDS);
        let mut ids = [0u64; MAX_CACHED_SHARDS];
        ids[..src.len()].copy_from_slice(src);
        Self {
            len: src.len() as u8,
            ids,
        }
    }

    /// Starts an empty placement to be filled by a strategy emit loop.
    pub(crate) fn empty() -> Self {
        Self {
            len: 0,
            ids: [0u64; MAX_CACHED_SHARDS],
        }
    }

    /// Appends one device id (up to the inline capacity).
    pub(crate) fn push(&mut self, id: u64) {
        self.ids[self.len as usize] = id;
        self.len += 1;
    }

    /// The device ids in copy order.
    pub(crate) fn as_slice(&self) -> &[u64] {
        &self.ids[..self.len as usize]
    }
}

/// Counters describing cache effectiveness (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a current-epoch entry.
    pub hits: u64,
    /// Lookups that missed (absent entry or stale epoch).
    pub misses: u64,
    /// Entries currently resident across all shards.
    pub entries: u64,
}

/// The sharded placement cache. All methods take `&self`; interior
/// mutability is per-shard, so concurrent readers on different shards
/// never contend.
#[derive(Debug)]
pub(crate) struct PlacementCache {
    /// Rows `[lba, epoch + 1, ids[k]]` (the epoch is stored plus one so an
    /// occupied row's word 1 is never zero).
    shards: Vec<Mutex<Table>>,
    hits: AtomicU64,
    misses: AtomicU64,
    per_shard_capacity: usize,
}

impl PlacementCache {
    /// A cache of `k`-wide placements. Only groups of at most
    /// [`MAX_CACHED_SHARDS`] are ever stored.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(Table::new(k + 2)))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            per_shard_capacity: DEFAULT_PER_SHARD_CAPACITY,
        }
    }

    fn shard_index(lba: u64) -> usize {
        rshare_hash::stable_hash2(lba, SHARD_DOMAIN) as usize & (CACHE_SHARDS - 1)
    }

    fn shard(&self, lba: u64) -> &Mutex<Table> {
        &self.shards[Self::shard_index(lba)]
    }

    /// Looks up `lba`; only an entry stamped with exactly `epoch` counts.
    /// An entry from an *older* epoch is removed on sight — epochs only
    /// grow, so it can never become valid again.
    pub(crate) fn get(&self, lba: u64, epoch: u64) -> Option<InlinePlacement> {
        let mut table = self.shard(lba).lock().expect("cache shard poisoned");
        let found = match table.probe(lba, |_| true) {
            Ok(b) => {
                let row = table.row(b);
                if row[1] == epoch + 1 {
                    Some(InlinePlacement::from_slice(&row[2..]))
                } else {
                    if row[1] < epoch + 1 {
                        table.remove(b);
                    }
                    None
                }
            }
            Err(_) => None,
        };
        drop(table);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores the `k` device ids of `lba` under `epoch`. A shard at
    /// capacity is cleared wholesale before the insert.
    pub(crate) fn put(&self, lba: u64, epoch: u64, ids: &[u64]) {
        let mut table = self.shard(lba).lock().expect("cache shard poisoned");
        let mut probe = table.probe(lba, |_| true);
        if probe.is_err() && table.len() >= self.per_shard_capacity {
            table.clear();
            probe = table.probe(lba, |_| true);
        }
        match probe {
            Ok(b) => {
                let row = table.row_mut(b);
                row[1] = epoch + 1;
                row[2..].copy_from_slice(ids);
            }
            Err(vacant) => {
                let mut row = [0u64; MAX_CACHED_SHARDS + 2];
                row[0] = lba;
                row[1] = epoch + 1;
                row[2..ids.len() + 2].copy_from_slice(ids);
                table.insert(vacant, &row[..ids.len() + 2]);
            }
        }
    }

    /// Copies the row of `lba` into `out` (replacing its contents) if one
    /// is resident with exactly `epoch`. Unlike [`PlacementCache::get`] it
    /// counts neither a hit nor a miss and evicts nothing, so bulk passes
    /// (migration, planning, scrapes) can read cached placements without
    /// distorting the request-path series.
    pub(crate) fn peek(&self, lba: u64, epoch: u64, out: &mut [u64]) -> bool {
        let table = self.shard(lba).lock().expect("cache shard poisoned");
        match table.probe(lba, |_| true) {
            Ok(b) if table.row(b)[1] == epoch + 1 => {
                out.copy_from_slice(&table.row(b)[2..]);
                true
            }
            _ => false,
        }
    }

    /// Rewrites the row of `lba`, if one is resident, to `ids` under
    /// `epoch`. Absent rows stay absent: the cache never grows here, so a
    /// migration pass over every block costs no memory. Counts nothing.
    pub(crate) fn refresh(&self, lba: u64, epoch: u64, ids: &[u64]) {
        let mut table = self.shard(lba).lock().expect("cache shard poisoned");
        if let Ok(b) = table.probe(lba, |_| true) {
            let row = table.row_mut(b);
            row[1] = epoch + 1;
            row[2..].copy_from_slice(ids);
        }
    }

    /// Drops every entry (used when the cache is disabled at runtime).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").len() as u64)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn hit_only_on_matching_epoch() {
        let cache = PlacementCache::new(2);
        cache.put(7, 1, &[10, 20]);
        assert!(cache.get(7, 0).is_none(), "older epoch must not hit");
        assert_eq!(cache.get(7, 1).unwrap().as_slice(), &[10, 20]);
        // Epoch bump: the entry is stale, rejected, and evicted.
        assert!(cache.get(7, 2).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0, "stale entry evicted on sight");
    }

    #[test]
    fn inline_placement_round_trips() {
        let ids: Vec<u64> = (0..MAX_CACHED_SHARDS as u64).collect();
        let p = InlinePlacement::from_slice(&ids);
        assert_eq!(p.as_slice(), ids.as_slice());
        let mut q = InlinePlacement::empty();
        for &id in &ids[..5] {
            q.push(id);
        }
        assert_eq!(q.as_slice(), &ids[..5]);
    }

    #[test]
    fn capacity_reset_keeps_cache_usable() {
        let mut cache = PlacementCache::new(2);
        cache.per_shard_capacity = 4;
        for lba in 0..1_000u64 {
            cache.put(lba, 3, &[lba, lba + 1]);
        }
        let stats = cache.stats();
        assert!(stats.entries <= 4 * CACHE_SHARDS as u64);
        // The most recent insert of some shard is still retrievable.
        cache.put(5_000, 3, &[1, 2]);
        assert_eq!(cache.get(5_000, 3).unwrap().as_slice(), &[1, 2]);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = PlacementCache::new(1);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let lba = t * 1_000 + i;
                        cache.put(lba, 1, &[lba]);
                        assert_eq!(cache.get(lba, 1).unwrap().as_slice(), &[lba]);
                    }
                });
            }
        });
        assert_eq!(cache.stats().entries, 2_000);
    }

    #[test]
    fn rows_are_k_wide() {
        let cache = PlacementCache::new(3);
        cache.put(1, 0, &[4, 5, 6]);
        cache.put(1, 0, &[7, 8, 9]);
        assert_eq!(cache.get(1, 0).unwrap().as_slice(), &[7, 8, 9]);
        let table = cache.shard(1).lock().unwrap();
        assert_eq!(
            table.row(table.probe(1, |_| true).unwrap()),
            &[1, 1, 7, 8, 9]
        );
    }

    /// Per-shard map model of the cache's rules: exact-epoch hits, older
    /// entries evicted on sight, and a full shard cleared before a new key.
    #[derive(Default)]
    struct Model {
        shards: Vec<BTreeMap<u64, (u64, Vec<u64>)>>,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn get(&mut self, lba: u64, epoch: u64) -> Option<Vec<u64>> {
            let shard = &mut self.shards[PlacementCache::shard_index(lba)];
            let found = match shard.get(&lba) {
                Some((e, ids)) if *e == epoch => Some(ids.clone()),
                Some((e, _)) => {
                    if *e < epoch {
                        shard.remove(&lba);
                    }
                    None
                }
                None => None,
            };
            if found.is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            found
        }

        fn put(&mut self, lba: u64, epoch: u64, ids: &[u64], capacity: usize) {
            let shard = &mut self.shards[PlacementCache::shard_index(lba)];
            if shard.len() >= capacity && !shard.contains_key(&lba) {
                shard.clear();
            }
            shard.insert(lba, (epoch, ids.to_vec()));
        }

        fn peek(&self, lba: u64, epoch: u64) -> Option<Vec<u64>> {
            match self.shards[PlacementCache::shard_index(lba)].get(&lba) {
                Some((e, ids)) if *e == epoch => Some(ids.clone()),
                _ => None,
            }
        }

        fn refresh(&mut self, lba: u64, epoch: u64, ids: &[u64]) {
            if let Some(row) = self.shards[PlacementCache::shard_index(lba)].get_mut(&lba) {
                *row = (epoch, ids.to_vec());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random gets, puts, peeks and refreshes across epochs, with
        /// shards small enough to hit the capacity clear, against the
        /// model. Peeks and refreshes must leave the hit, miss and entry
        /// counts exactly where they were.
        #[test]
        fn cache_matches_a_map_model(
            ops in proptest::collection::vec((0u8..4, 0u64..96, 0u64..4, any::<u64>()), 1..400)
        ) {
            const K: usize = 2;
            let mut cache = PlacementCache::new(K);
            cache.per_shard_capacity = 3;
            let mut model = Model {
                shards: vec![BTreeMap::new(); CACHE_SHARDS],
                ..Model::default()
            };
            for (op, lba, epoch, seed) in ops {
                let ids = [seed, seed.rotate_left(17)];
                let before = cache.stats();
                match op {
                    0 => {
                        cache.put(lba, epoch, &ids);
                        model.put(lba, epoch, &ids, cache.per_shard_capacity);
                    }
                    1 => {
                        let got = cache.get(lba, epoch).map(|p| p.as_slice().to_vec());
                        prop_assert_eq!(got, model.get(lba, epoch));
                    }
                    2 => {
                        let mut out = [0u64; K];
                        let got = cache.peek(lba, epoch, &mut out).then(|| out.to_vec());
                        prop_assert_eq!(got, model.peek(lba, epoch));
                        prop_assert_eq!(cache.stats(), before);
                    }
                    _ => {
                        cache.refresh(lba, epoch, &ids);
                        model.refresh(lba, epoch, &ids);
                        prop_assert_eq!(cache.stats(), before);
                    }
                }
                let stats = cache.stats();
                prop_assert_eq!(stats.hits, model.hits);
                prop_assert_eq!(stats.misses, model.misses);
                let entries: usize = model.shards.iter().map(BTreeMap::len).sum();
                prop_assert_eq!(stats.entries, entries as u64);
            }
        }
    }
}
