//! # Redundant Share — fair, redundant, adaptive data placement
//!
//! A reproduction of **Brinkmann, Effert, Meyer auf der Heide, Scheideler:
//! "Dynamic and Redundant Data Placement" (ICDCS 2007)** — the first data
//! placement strategies that, for an arbitrary set of heterogeneous storage
//! devices, are simultaneously:
//!
//! * **fair** — a device holding x% of the (usable) capacity stores x% of
//!   the data,
//! * **redundant** — no two of a block's k copies share a device,
//! * **capacity efficient** — the achievable maximum of data is stored
//!   (Lemmas 2.1/2.2 characterise that maximum),
//! * **time efficient** — `O(n)` per placement, or `O(k)` with
//!   precomputation,
//! * **compact** — placements are computed, never stored, and
//! * **adaptive** — device additions/removals move close to the minimum
//!   number of copies (Lemmas 3.2–3.5).
//!
//! ## Quick start
//!
//! ```
//! use rshare_core::{BinSet, PlacementStrategy, RedundantShare};
//!
//! // Five devices with heterogeneous capacities (in blocks).
//! let bins = BinSet::from_capacities([500_000, 600_000, 700_000, 800_000, 900_000])
//!     .unwrap();
//! // Place 3 copies of every block.
//! let strat = RedundantShare::new(&bins, 3).unwrap();
//! let copies = strat.place(0xB10C);
//! assert_eq!(copies.len(), 3);
//! ```
//!
//! ## Strategy inventory
//!
//! | Type | Paper reference | Notes |
//! |---|---|---|
//! | [`LinMirror`] | Algorithms 2 and 3 | k = 2, perfectly fair (Lemma 3.1) |
//! | [`RedundantShare`] | Algorithm 4 | any k, `O(n)` per query |
//! | [`FastRedundantShare`] | Section 3.3 | any k, `O(k)` per query |
//! | [`TrivialReplication`] | Definition 2.3 | the flawed baseline (Lemma 2.4) |
//! | [`TableBased`] | Section 1 (rejected design) | explicit table; optimal-movement adversary |
//! | [`DomainPlacement`] | extension (CRUSH-style) | no two copies per failure domain |
//! | [`SystematicPps`] | — | exact-fairness oracle for validation |
//!
//! The capacity theory of Section 2 lives in [`capacity`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bins;
pub mod capacity;
mod error;
mod fast;
mod hierarchy;
mod linmirror;
mod pps;
mod redundant_share;
mod strategy;
mod table_based;
#[cfg(test)]
mod test_util;
mod trivial;

pub use bins::{Bin, BinId, BinSet};
pub use error::PlacementError;
pub use fast::FastRedundantShare;
pub use hierarchy::{DomainBin, DomainPlacement};
pub use linmirror::LinMirror;
pub use pps::SystematicPps;
pub use redundant_share::RedundantShare;
pub use strategy::{PlacementStrategy, MAX_INLINE_K};
pub use table_based::{RebalanceReport, TableBased};
pub use trivial::TrivialReplication;
