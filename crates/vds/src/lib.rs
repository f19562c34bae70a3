//! Block-level storage virtualization on top of Redundant Share placement.
//!
//! The ICDCS 2007 paper's abstract promises "a randomized block-level
//! storage virtualization for arbitrary heterogeneous storage systems that
//! can distribute data in a fair and redundant way and can adapt this
//! distribution in an efficient way as storage devices enter or leave the
//! system". This crate is that layer:
//!
//! * [`StorageCluster`] — a pool of simulated [`Device`]s virtualized into
//!   a single redundant block store. Shard locations are *computed* with
//!   [`rshare_core::RedundantShare`] — the strategy itself is a few words
//!   per device ("compactness" in the paper's criteria list) — and each
//!   stored block's are recorded in a fixed-width block-table row of `k`
//!   words, each naming a device and the slot of its slab that holds the
//!   shard, so a read is one probe and one slot copy per shard, and the
//!   metadata grows with the stored blocks, not with the address space.
//!   Every write, migration and repair validates its target devices
//!   before a byte moves, so an `Err` leaves the previous value. An
//!   overwrite of a settled block lands in the slots its row already
//!   names; a write that moves a block, a migration and a repair commit
//!   copy-on-write: the new shards land in fresh slots before the row is
//!   restamped.
//! * [`Redundancy`] — per-block mirroring or erasure coding (XOR parity,
//!   EVENODD, RDP, Reed–Solomon and Local Reconstruction Codes from
//!   `rshare-erasure`); shard `i` of a group goes to the i-th placed bin,
//!   using the copy-identity property of Redundant Share. Degraded reads,
//!   repair and migration fill in missing shards through one decode path.
//! * Membership changes (`add_device`, `remove_device`, `fail_device` +
//!   `rebuild`) migrate only the shards whose computed location changed;
//!   [`MigrationReport`] quantifies the volume the paper's adaptivity
//!   lemmas bound. Every change takes one path: the mapping switches
//!   instantly and data follows chunk by chunk (`rebalance`, or
//!   `add_device_lazy` + `migrate_batch` to drain incrementally). Blocks
//!   not yet moved are served from the old homes their rows record, and a
//!   change that fails part-way leaves them readable and pending. Changes
//!   can also be **dry-run** ([`MigrationPlan`]).
//! * Devices carry [`DeviceProfile`]s; simulated busy time and the
//!   workload *makespan* turn placement fairness into completion-time
//!   statements.
//! * [`VirtualDisk`] — a flat byte-addressed view with read-modify-write,
//!   the "single storage device" users see.
//!
//! # Example
//!
//! ```
//! use rshare_vds::{Redundancy, StorageCluster};
//!
//! let mut cluster = StorageCluster::builder()
//!     .block_size(64)
//!     .redundancy(Redundancy::Mirror { copies: 2 })
//!     .device(0, 1_000)
//!     .device(1, 2_000)
//!     .device(2, 2_000)
//!     .build()
//!     .unwrap();
//! cluster.write_block(0, &[42u8; 64]).unwrap();
//! cluster.fail_device(1).unwrap();
//! assert_eq!(cluster.read_block(0).unwrap(), vec![42u8; 64]); // degraded read
//! cluster.rebuild().unwrap();                                  // re-protect
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cluster;
mod device;
mod error;
mod health;
mod migration;
mod profile;
mod redundancy;
mod table;
mod vdisk;

pub use cache::CacheStats;
pub use cluster::{ClusterBuilder, StorageCluster};
pub use device::{Device, DeviceState, IoStats};
pub use error::VdsError;
pub use health::{DeviceLoad, FairnessReport, HealthSnapshot};
pub use migration::{MigrationPlan, MigrationReport, ShardMove};
pub use profile::DeviceProfile;
pub use redundancy::Redundancy;
pub use vdisk::VirtualDisk;
