//! Degraded reads and repairs decode into buffers that already exist.
//!
//! A counting global allocator tallies the bytes each thread allocates.
//! On RS(4, 2) and LRC clusters of 4 KiB blocks (1 KiB shards), a
//! degraded read after a warm-up read, and a repair after a warm-up
//! repair, must allocate fewer bytes per block than one shard: the
//! survivors are borrowed from their slots or from the read buffer, and
//! the lost shards are decoded straight into the read buffer or into the
//! cluster's chunk buffer. Only small index and coefficient lists remain.
//!
//! The array codes (EVENODD, RDP) are left out: their peeling decoder
//! still allocates its syndromes, a shard-sized scratch per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rshare_vds::{Redundancy, StorageCluster};

/// Counts the bytes every allocation and reallocation asks for, per
/// thread, so the tests of this file can run in parallel.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may be gone while the thread tears down.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counting only
// touches a thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bytes this thread allocates while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

const BLOCK: usize = 4096;
const SHARD: u64 = 1024;
const BLOCKS: u64 = 64;

fn payload(lba: u64) -> Vec<u8> {
    (0..BLOCK)
        .map(|i| (lba as u8).wrapping_mul(29) ^ (i as u8).wrapping_mul(7))
        .collect()
}

/// A cluster of ten devices holding `BLOCKS` blocks.
fn cluster(redundancy: Redundancy) -> StorageCluster {
    let builder = StorageCluster::builder()
        .block_size(BLOCK)
        .redundancy(redundancy);
    let mut c = (0..10)
        .fold(builder, |b, id| b.device(id, 1_000))
        .build()
        .unwrap();
    for lba in 0..BLOCKS {
        c.write_block(lba, &payload(lba)).unwrap();
    }
    c
}

/// The two clusters, each with the data shards its degraded reads lose:
/// one shard, and for the LRC also a whole group's two (which its global
/// parity decodes rather than a local XOR).
fn cases() -> Vec<(Redundancy, Vec<usize>)> {
    let lrc = Redundancy::LocalReconstruction {
        groups: 2,
        group_size: 2,
        global_parity: 1,
    };
    vec![
        (Redundancy::ReedSolomon { data: 4, parity: 2 }, vec![1]),
        (Redundancy::ReedSolomon { data: 4, parity: 2 }, vec![0, 3]),
        (lrc, vec![1]),
        (lrc, vec![0, 1]),
    ]
}

#[test]
fn a_degraded_read_allocates_less_than_a_shard() {
    for (redundancy, lose) in cases() {
        let mut c = cluster(redundancy);
        for lba in 0..BLOCKS {
            for &i in &lose {
                assert!(c.inject_shard_loss(lba, i));
            }
        }
        let mut buf = vec![0u8; BLOCK];
        c.read_block_into(0, &mut buf).unwrap();
        for lba in 1..BLOCKS {
            let (bytes, read) = allocated(|| c.read_block_into(lba, &mut buf));
            read.unwrap();
            assert_eq!(buf, payload(lba), "{redundancy:?} lba {lba}");
            assert!(
                bytes < SHARD,
                "{redundancy:?} losing {lose:?}: a degraded read allocated {bytes} B"
            );
        }
    }
}

#[test]
fn a_repair_allocates_less_than_a_shard_per_block() {
    for (redundancy, lose) in cases() {
        let mut c = cluster(redundancy);
        for round in 0..2 {
            for lba in 0..BLOCKS {
                for &i in &lose {
                    assert!(c.inject_shard_loss(lba, i));
                }
            }
            let (bytes, repaired) = allocated(|| c.repair());
            assert_eq!(repaired.unwrap(), BLOCKS * lose.len() as u64);
            // The first round is the warm-up: it grows the chunk buffer.
            if round == 1 {
                assert!(
                    bytes < SHARD * BLOCKS,
                    "{redundancy:?} losing {lose:?}: {bytes} B for {BLOCKS} blocks"
                );
            }
        }
        for lba in 0..BLOCKS {
            assert_eq!(c.read_block(lba).unwrap(), payload(lba), "lba {lba}");
        }
    }
}
