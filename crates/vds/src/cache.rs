//! The block table: one row per stored block, holding where its shards
//! are, down to the slot.
//!
//! A row holds one word per shard, in copy order: the dense index of the
//! device the shard was last stored on by a successful write, migration or
//! repair in the high half, and `slot + 1` in the low half (0 when the
//! shard is absent: lost, or on a device that failed). It is the one
//! answer to "where is this block": reads, placement lookups, scrubs,
//! repair, the migration planner and the old side of a migration all take
//! a stored block's shards from its row, whatever membership changes
//! happened since. An overwrite of a settled block lands in the slots its
//! row already names, so the row does not change. A write that moves a
//! block, a migration and a repair commit copy-on-write: the new shards
//! land in fresh slots, the row is restamped, and only then are the old
//! slots released. Every one validates its devices before a byte moves,
//! so a change or a write that fails leaves each row naming intact shards.
//!
//! The table is also the cluster's block index: a block has a row exactly
//! when it is stored, so one probe answers both "is this block stored"
//! and "where is it". Rows are never evicted, so memory is O(stored
//! blocks), and a lookup of an unstored address inserts nothing.
//!
//! The table is split into 16 [`Table`] shards of rows
//! `[lba, OCCUPIED, words[k]]` by a hash of the block address, with `k`
//! (the cluster's group width) fixed at build: a row costs `8·(k + 2)`
//! bytes plus the table's slack, no heap allocation, and a lookup is one
//! probe that hands the words out by reference. A shard's doubling copies
//! only its own rows, so growth never holds two copies of the whole
//! table. The cluster mutates the table only under `&mut self`, and a
//! lookup under `&self` touches only the atomic hit counter, so the table
//! needs no lock of its own: a caller that shares a cluster across
//! threads wraps it in its own lock.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::table::Table;

/// Number of block-table shards (power of two).
const TABLE_SHARDS: usize = 16;

/// Domain separator for the shard-selection hash.
const SHARD_DOMAIN: u64 = 0x504c_4143_4543_4148; // "PLACECAH"

/// Word 1 of every row: the table tells occupied rows by a nonzero word 1.
const OCCUPIED: u64 = 1;

/// Placement lookup counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored block's row.
    pub hits: u64,
    /// Lookups that computed a placement: of an unstored address, for a
    /// block's first write, or for a write to a block awaiting migration.
    pub misses: u64,
    /// Rows held, one per stored block.
    pub entries: u64,
}

/// The sharded block table. Lookups take `&self` and mutate nothing but
/// the hit counter; rows change only through `&mut self`.
#[derive(Debug)]
pub(crate) struct BlockTable {
    /// Rows `[lba, OCCUPIED, words[k]]`.
    shards: Vec<Table>,
    hits: AtomicU64,
}

impl BlockTable {
    /// An empty table of `k`-wide rows.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            shards: (0..TABLE_SHARDS).map(|_| Table::new(k + 2)).collect(),
            hits: AtomicU64::new(0),
        }
    }

    fn shard_index(lba: u64) -> usize {
        rshare_hash::stable_hash2(lba, SHARD_DOMAIN) as usize & (TABLE_SHARDS - 1)
    }

    /// The words naming `lba`'s shards, or `None` if the block is not
    /// stored. Counts nothing, so bulk passes (migration, planning,
    /// scrapes, repair) leave the request-path hit series alone.
    pub(crate) fn peek(&self, lba: u64) -> Option<&[u64]> {
        let table = &self.shards[Self::shard_index(lba)];
        let bucket = table.probe(lba).ok()?;
        Some(&table.row(bucket)[2..])
    }

    /// [`BlockTable::peek`] for a request: counts a hit when the block is
    /// stored.
    pub(crate) fn get(&self, lba: u64) -> Option<&[u64]> {
        let words = self.peek(lba)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(words)
    }

    /// `lba`'s row words, to restamp in place. A block without a row gets
    /// one whose words are all 0 (every shard absent), which the caller
    /// overwrites at once. Counts nothing.
    pub(crate) fn entry(&mut self, lba: u64) -> &mut [u64] {
        let table = &mut self.shards[Self::shard_index(lba)];
        let row = match table.probe(lba) {
            Ok(b) => table.row_mut(b),
            Err(vacant) => table.insert(vacant, lba, OCCUPIED),
        };
        &mut row[2..]
    }

    /// Number of rows: the blocks stored.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(Table::len).sum()
    }

    /// Every stored block with the words naming its shards, in no
    /// particular order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.shards
            .iter()
            .flat_map(Table::rows)
            .map(|row| (row[0], &row[2..]))
    }

    /// Lookups answered from a row since construction.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn rows_are_k_wide() {
        let mut table = BlockTable::new(3);
        assert_eq!(table.get(1), None, "no row: not stored");
        table.entry(1).copy_from_slice(&[4, 5, 6]);
        table.entry(1).copy_from_slice(&[7, 8, 9]);
        assert_eq!(table.peek(1), Some(&[7, 8, 9][..]));
        let shard = &table.shards[BlockTable::shard_index(1)];
        let bucket = shard.probe(1).unwrap();
        assert_eq!(shard.row(bucket), &[1, OCCUPIED, 7, 8, 9][..]);
        assert_eq!(table.len(), 1);
        assert_eq!(
            table.hits(),
            0,
            "peeks, restamps and absent lookups count nothing"
        );
        assert_eq!(table.get(1), Some(&[7, 8, 9][..]));
        assert_eq!(table.hits(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Stamps (after a prefill of `prefill` addresses, enough for
        /// several doublings of every shard), lookups and peeks against a
        /// map model: a row exists exactly when its block was stamped and
        /// holds the last stamped ids, only a lookup of a stored block
        /// counts a hit, and no row is ever evicted.
        #[test]
        fn table_matches_a_map_model(
            prefill in 500u64..3_000,
            ops in proptest::collection::vec((0u8..6, 0u64..2_048, any::<u64>()), 1..400)
        ) {
            const K: usize = 2;
            let mut table = BlockTable::new(K);
            let mut model: BTreeMap<u64, [u64; K]> = BTreeMap::new();
            let mut hits = 0u64;
            for lba in 0..prefill {
                table.entry(lba).copy_from_slice(&[lba, !lba]);
                model.insert(lba, [lba, !lba]);
            }
            for (op, lba, seed) in ops {
                let want = model.get(&lba).map(|ids| &ids[..]);
                match op {
                    0 | 1 => {
                        let ids = [seed, seed.rotate_left(17)];
                        table.entry(lba).copy_from_slice(&ids);
                        model.insert(lba, ids);
                    }
                    2 | 3 => {
                        prop_assert_eq!(table.get(lba), want);
                        hits += u64::from(want.is_some());
                    }
                    _ => prop_assert_eq!(table.peek(lba), want),
                }
                prop_assert_eq!(table.hits(), hits);
                prop_assert_eq!(table.len(), model.len());
            }
            // Nothing was evicted: every stamped row is still there, as
            // last stamped.
            let mut rows: Vec<(u64, Vec<u64>)> =
                table.rows().map(|(lba, ids)| (lba, ids.to_vec())).collect();
            rows.sort_unstable();
            let want: Vec<(u64, Vec<u64>)> =
                model.iter().map(|(&lba, ids)| (lba, ids.to_vec())).collect();
            prop_assert_eq!(rows, want);
        }
    }
}
