//! Stable hashing primitives and fair single-copy distribution strategies.
//!
//! This crate is the bottom substrate of the *Redundant Share* reproduction
//! (Brinkmann, Effert, Meyer auf der Heide, Scheideler: *Dynamic and Redundant
//! Data Placement*, ICDCS 2007). The placement algorithms of the paper are
//! parameterised over two building blocks that live here:
//!
//! 1. **Stable pseudo-random values.** Every placement decision of the paper
//!    is driven by `Random value(address, bin)` — a value that depends *only*
//!    on the data block's address and the bin's (device's) stable name, never
//!    on the current number of bins. This is what makes the strategies
//!    adaptive: inserting or removing a bin does not change the random values
//!    observed by unrelated bins (used in the proof of Lemma 3.2). The
//!    [`mix`] module provides such stateless, reproducible hash functions.
//!
//! 2. **Fair single-copy strategies** (`placeOneCopy` in the paper): schemes
//!    that distribute *one* copy per ball over heterogeneous bins in
//!    proportion to arbitrary weights. The paper cites consistent hashing
//!    (Karger et al.) and Share (Brinkmann et al.) as candidates; we provide
//!    both plus weighted rendezvous hashing, which is perfectly fair in
//!    expectation and minimally adaptive and therefore used as the default.
//!
//! The trait connecting the two worlds is [`SingleCopySelector`].
//!
//! # Example
//!
//! ```
//! use rshare_hash::{Rendezvous, SingleCopySelector};
//!
//! let names = [10u64, 11, 12];
//! let weights = [2.0, 1.0, 1.0];
//! let sel = Rendezvous::new();
//! let idx = sel.select(0xfeed_beef, &names, &weights);
//! assert!(idx < names.len());
//! // Deterministic: same inputs, same decision.
//! assert_eq!(idx, sel.select(0xfeed_beef, &names, &weights));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod consistent;
pub mod mix;
pub mod rendezvous;
pub mod share;
pub mod sieve;
pub mod weighted_dht;

mod selector;

pub use cdf::CdfTable;
pub use consistent::{ConsistentRing, StatelessConsistent};
pub use mix::{splitmix64, stable_hash2, stable_hash3, unit_f64, unit_open_f64};
pub use rendezvous::Rendezvous;
pub use selector::SingleCopySelector;
pub use share::{Share, ShareError};
pub use sieve::Sieve;
pub use weighted_dht::{LinearMethod, LogarithmicMethod};
