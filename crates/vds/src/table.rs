//! The open-addressed table behind the block table (`cache.rs`).
//!
//! Rows are a fixed number of `u64` words, chosen at construction, stored
//! back to back in one `Vec` — no per-row allocation, no pointer, no
//! separate control array. Word 0 is the hashed key word; word 1 is
//! nonzero in every occupied row (callers encode their value so it never
//! is zero), which is how an empty bucket is told apart. Collisions are
//! resolved by linear probing, and a lookup stops at the first empty
//! bucket. Rows are never removed, so the table carries no tombstones.

/// Smallest non-empty bucket count.
const MIN_BUCKETS: usize = 16;

/// Domain separator mixed into the key word before hashing, so bucket
/// order is independent of the placement hashes that chose the keys.
const TABLE_DOMAIN: u64 = 0x5441_424c_4553_4c54; // "TABLESLT"

/// A linear-probing hash table of fixed-width `u64` rows.
#[derive(Debug)]
pub(crate) struct Table {
    /// `buckets × width` words.
    words: Vec<u64>,
    width: usize,
    /// Zero or a power of two (kept, not derived, so a probe does not
    /// divide).
    buckets: usize,
    len: usize,
}

impl Table {
    /// An empty table of rows `width` words wide (at least 2). Allocates
    /// nothing until the first insert.
    pub(crate) fn new(width: usize) -> Self {
        assert!(width >= 2, "a row needs a key word and an occupancy word");
        Self {
            words: Vec::new(),
            width,
            buckets: 0,
            len: 0,
        }
    }

    /// Number of occupied rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn home(&self, key: u64) -> usize {
        rshare_hash::splitmix64(key ^ TABLE_DOMAIN) as usize & (self.buckets - 1)
    }

    fn occupied(&self, bucket: usize) -> bool {
        self.words[bucket * self.width + 1] != 0
    }

    /// The row in `bucket`.
    pub(crate) fn row(&self, bucket: usize) -> &[u64] {
        &self.words[bucket * self.width..(bucket + 1) * self.width]
    }

    /// The row in `bucket`, for an in-place update. Word 0 (the key) must
    /// not change and word 1 must stay nonzero.
    pub(crate) fn row_mut(&mut self, bucket: usize) -> &mut [u64] {
        &mut self.words[bucket * self.width..(bucket + 1) * self.width]
    }

    /// Hints the CPU to fetch the row a probe for `key` starts at.
    pub(crate) fn prefetch(&self, key: u64) {
        if self.buckets > 0 {
            rshare_erasure::gf256::simd::prefetch(self.row(self.home(key)));
        }
    }

    /// Finds the row whose word 0 is `key`: `Ok(bucket)` if present,
    /// otherwise `Err(bucket)` with the empty bucket an [`Table::insert`]
    /// of that key goes to.
    pub(crate) fn probe(&self, key: u64) -> Result<usize, usize> {
        if self.buckets == 0 {
            return Err(0);
        }
        let mask = self.buckets - 1;
        let mut b = self.home(key);
        loop {
            let row = self.row(b);
            if row[1] == 0 {
                return Err(b);
            }
            if row[0] == key {
                return Ok(b);
            }
            b = (b + 1) & mask;
        }
    }

    /// Inserts a row with words 0 and 1 set to `key` and `tag` (nonzero)
    /// and every later word zero, and returns it for the caller to fill.
    /// The key must be absent and `vacant` the bucket the last
    /// [`Table::probe`] for it returned — the table must not have changed
    /// since. Grows by doubling past a load of 3/4.
    pub(crate) fn insert(&mut self, vacant: usize, key: u64, tag: u64) -> &mut [u64] {
        debug_assert_ne!(tag, 0, "occupied rows keep word 1 nonzero");
        let b = if (self.len + 1) * 4 > self.buckets * 3 {
            self.grow();
            self.first_empty(key)
        } else {
            debug_assert!(!self.occupied(vacant));
            vacant
        };
        self.len += 1;
        let row = self.row_mut(b);
        row[0] = key;
        row[1] = tag;
        row
    }

    /// Every occupied row, in bucket order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.words.chunks_exact(self.width).filter(|r| r[1] != 0)
    }

    fn first_empty(&self, key: u64) -> usize {
        let mask = self.buckets - 1;
        let mut b = self.home(key);
        while self.occupied(b) {
            b = (b + 1) & mask;
        }
        b
    }

    fn grow(&mut self) {
        self.buckets = (self.buckets * 2).max(MIN_BUCKETS);
        let old = std::mem::replace(&mut self.words, vec![0; self.buckets * self.width]);
        for row in old.chunks_exact(self.width).filter(|r| r[1] != 0) {
            let b = self.first_empty(row[0]);
            self.row_mut(b).copy_from_slice(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Rows `[key, value, value]`.
    fn get(t: &Table, key: u64) -> Option<u64> {
        t.probe(key).ok().map(|b| t.row(b)[1])
    }

    fn put(t: &mut Table, key: u64, value: u64) {
        match t.probe(key) {
            Ok(b) => t.row_mut(b)[1..].fill(value),
            Err(v) => t.insert(v, key, value)[2] = value,
        }
    }

    #[test]
    fn empty_table_allocates_nothing() {
        let t = Table::new(2);
        assert_eq!(t.len(), 0);
        assert!(t.words.is_empty());
        assert_eq!(t.probe(7), Err(0));
    }

    #[test]
    fn grows_past_three_quarters() {
        let mut t = Table::new(3);
        for k in 0..12 {
            put(&mut t, k, k + 1);
        }
        assert_eq!(t.buckets, MIN_BUCKETS);
        put(&mut t, 12, 13);
        assert_eq!(t.buckets, 2 * MIN_BUCKETS);
        for k in 0..13 {
            assert_eq!(get(&t, k), Some(k + 1));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random inserts and overwrites over a key space small enough
        /// that probe runs collide and wrap, against a map model.
        #[test]
        fn matches_a_map_model(
            ops in proptest::collection::vec((0u64..48, 1u64..1_000), 1..400)
        ) {
            let mut t = Table::new(3);
            let mut model = BTreeMap::new();
            for (key, value) in ops {
                put(&mut t, key, value);
                model.insert(key, value);
                prop_assert_eq!(t.len(), model.len());
                for k in 0..48 {
                    prop_assert_eq!(get(&t, k), model.get(&k).copied());
                }
            }
        }
    }
}
