//! The block table: one row per stored block, holding its placement.
//!
//! Redundant Share is deterministic per ball for a fixed bin set (Section 3
//! of the paper), so between membership changes the mapping
//! `lba -> [device; k]` is perfectly cacheable. Every membership change
//! ([`crate::StorageCluster::add_device`] / `remove_device` / `rebuild` /
//! `add_device_lazy`) bumps a *placement epoch*; a row carries the epoch
//! its placement was computed under and a lookup rejects a stale row with
//! one integer comparison — no flush, no tombstones, O(1).
//!
//! The table is also the cluster's block index: a block has a row exactly
//! when it is stored, so one probe answers both "is this block stored"
//! and "where is it". Rows are never evicted, so memory is O(stored
//! blocks), and a lookup of an unstored address inserts nothing.
//!
//! The invariant every writer keeps: a row stamped with epoch `e` equals
//! strategy `e`'s placement of its block. Bulk passes rely on it twice —
//! a migration reads a block's old placement from a row still stamped
//! with the previous epoch ([`BlockTable::peek`]) and, once it has
//! computed the new one, restamps the row under the current epoch
//! ([`BlockTable::stamp`]), so the first request after a membership
//! change hits.
//!
//! The table is split into 16 [`Table`] shards of rows
//! `[lba, epoch + 1, ids[k]]` by a hash of the block address, with `k`
//! (the cluster's group width) fixed at build: a row costs `8·(k + 2)`
//! bytes plus the table's slack, no heap allocation, and a lookup is one
//! probe that hands the ids out by reference. A shard's doubling copies
//! only its own rows, so growth never holds two copies of the whole
//! table. The cluster mutates the table only under `&mut self`, so it
//! needs no lock: readers sharing a [`crate::SharedCluster`] probe it in
//! parallel and touch only the atomic hit and miss counters.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::table::Table;

/// Widest redundancy group whose computed placement the read and write
/// paths hold inline (no heap); wider groups (e.g. large LRCs) are
/// computed into a `Vec`. Rows cache placements of any width.
pub const MAX_CACHED_SHARDS: usize = 16;

/// Number of block-table shards (power of two).
const TABLE_SHARDS: usize = 16;

/// Domain separator for the shard-selection hash.
const SHARD_DOMAIN: u64 = 0x504c_4143_4543_4148; // "PLACECAH"

/// A placement held in a fixed inline array — the zero-allocation value a
/// computed placement is returned in on the read/write path.
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
    /// Lookups answered from a current-epoch row.
    pub hits: u64,
    /// Lookups that missed (no row, or a row from another epoch).
    pub misses: u64,
    /// Placements held in rows, one per stored block; 0 while the
    /// placement cache is off.
    pub entries: u64,
}

/// The sharded block table. Lookups take `&self` and mutate nothing but
/// the hit and miss counters; rows change only through `&mut self`.
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Rows `[lba, epoch + 1, ids[k]]` (the epoch is stored plus one so an
    /// occupied row's word 1 is never zero).
    shards: Vec<Table>,
    /// Whether lookups may answer from a row (the cluster's
    /// `placement_cache` setting). Rows are kept either way: they record
    /// which blocks are stored.
    caching: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BlockTable {
    /// An empty table of `k`-wide placements, answering lookups from rows
    /// when `caching` is set.
    pub(crate) fn new(k: usize, caching: bool) -> Self {
        Self {
            shards: (0..TABLE_SHARDS).map(|_| Table::new(k + 2)).collect(),
            caching,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_index(lba: u64) -> usize {
        rshare_hash::stable_hash2(lba, SHARD_DOMAIN) as usize & (TABLE_SHARDS - 1)
    }

    /// The row of `lba`, if the block is stored.
    fn row(&self, lba: u64) -> Option<&[u64]> {
        let table = &self.shards[Self::shard_index(lba)];
        table.probe(lba, |_| true).ok().map(|b| table.row(b))
    }

    /// Looks `lba` up for a request at `epoch`: `None` if the block has no
    /// row (it is not stored), otherwise `Some` of the row's device ids
    /// if it is stamped with exactly `epoch` and caching is on, or
    /// `Some(None)` if the placement must be computed. Counts a hit or a
    /// miss while caching is on.
    pub(crate) fn get(&self, lba: u64, epoch: u64) -> Option<Option<&[u64]>> {
        let row = self.row(lba);
        if !self.caching {
            return row.map(|_| None);
        }
        let ids = row.filter(|r| r[1] == epoch + 1).map(|r| &r[2..]);
        let counter = if ids.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        row.map(|_| ids)
    }

    /// The device ids of `lba`'s row if caching is on and the row is
    /// stamped with exactly `epoch`. Unlike [`BlockTable::get`] it counts
    /// neither a hit nor a miss, so bulk passes (migration, planning,
    /// scrapes) can read rows without distorting the request-path series.
    pub(crate) fn peek(&self, lba: u64, epoch: u64) -> Option<&[u64]> {
        if !self.caching {
            return None;
        }
        self.row(lba).filter(|r| r[1] == epoch + 1).map(|r| &r[2..])
    }

    /// Stamps `lba`'s row with `ids` under `epoch`, inserting the row if
    /// the block has none yet. Counts nothing.
    pub(crate) fn stamp(&mut self, lba: u64, epoch: u64, ids: &[u64]) {
        let table = &mut self.shards[Self::shard_index(lba)];
        let row = match table.probe(lba, |_| true) {
            Ok(b) => table.row_mut(b),
            Err(vacant) => table.insert(vacant, lba, epoch + 1),
        };
        row[1] = epoch + 1;
        row[2..].copy_from_slice(ids);
    }

    /// Number of rows: the blocks stored.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(Table::len).sum()
    }

    /// Every stored block's address, in no particular order.
    pub(crate) fn lbas(&self) -> Vec<u64> {
        let mut lbas = Vec::with_capacity(self.len());
        for table in &self.shards {
            lbas.extend(table.rows().map(|r| r[0]));
        }
        lbas
    }

    /// Turns caching on or off. Rows stay: they are the block index.
    pub(crate) fn set_caching(&mut self, caching: bool) {
        self.caching = caching;
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: if self.caching { self.len() as u64 } else { 0 },
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
        let mut table = BlockTable::new(2, true);
        assert_eq!(table.get(7, 1), None, "no row: not stored");
        table.stamp(7, 1, &[10, 20]);
        assert_eq!(table.get(7, 0), Some(None), "older epoch must not hit");
        assert_eq!(table.get(7, 1), Some(Some(&[10, 20][..])));
        // Epoch bump: the row is stale and rejected, but stays.
        assert_eq!(table.get(7, 2), Some(None));
        let stats = table.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 1, "rows are never evicted");
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
    fn rows_are_k_wide() {
        let mut table = BlockTable::new(3, true);
        table.stamp(1, 0, &[4, 5, 6]);
        table.stamp(1, 0, &[7, 8, 9]);
        assert_eq!(table.peek(1, 0), Some(&[7, 8, 9][..]));
        assert_eq!(table.row(1), Some(&[1, 1, 7, 8, 9][..]));
        assert_eq!(table.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Stamps (after a prefill of `prefill` addresses, enough for
        /// several doublings of every shard), lookups, peeks and caching
        /// toggles across epochs, against a map model: a row exists
        /// exactly when its block was stamped, only an exact epoch hits,
        /// peeks and stamps count nothing, and no row is ever evicted.
        #[test]
        fn table_matches_a_map_model(
            prefill in 500u64..3_000,
            ops in proptest::collection::vec((0u8..7, 0u64..2_048, 0u64..4, any::<u64>()), 1..400)
        ) {
            const K: usize = 2;
            let mut table = BlockTable::new(K, true);
            let mut model: BTreeMap<u64, (u64, [u64; K])> = BTreeMap::new();
            let (mut caching, mut hits, mut misses) = (true, 0u64, 0u64);
            for lba in 0..prefill {
                table.stamp(lba, 0, &[lba, !lba]);
                model.insert(lba, (0, [lba, !lba]));
            }
            for (op, lba, epoch, seed) in ops {
                let ids = [seed, seed.rotate_left(17)];
                let before = table.stats();
                let current = model
                    .get(&lba)
                    .filter(|(e, _)| caching && *e == epoch)
                    .map(|(_, ids)| &ids[..]);
                match op {
                    0 | 1 => {
                        table.stamp(lba, epoch, &ids);
                        model.insert(lba, (epoch, ids));
                        prop_assert_eq!(table.stats().hits, before.hits);
                        prop_assert_eq!(table.stats().misses, before.misses);
                    }
                    2 | 3 => {
                        let want = model.get(&lba).map(|_| current);
                        prop_assert_eq!(table.get(lba, epoch), want);
                        if caching {
                            if current.is_some() { hits += 1 } else { misses += 1 }
                        }
                    }
                    4 | 5 => {
                        prop_assert_eq!(table.peek(lba, epoch), current);
                        prop_assert_eq!(table.stats(), before);
                    }
                    _ => {
                        caching = !caching;
                        table.set_caching(caching);
                    }
                }
                let stats = table.stats();
                prop_assert_eq!(stats.hits, hits);
                prop_assert_eq!(stats.misses, misses);
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(stats.entries, if caching { model.len() as u64 } else { 0 });
            }
            // Nothing was evicted: every stamped row is still there, as
            // last stamped.
            let mut lbas = table.lbas();
            lbas.sort_unstable();
            prop_assert!(lbas.iter().eq(model.keys()));
            for (lba, (epoch, ids)) in &model {
                prop_assert_eq!(table.row(*lba), Some(&[*lba, epoch + 1, ids[0], ids[1]][..]));
            }
        }
    }
}
