//! Erasure codes for redundancy groups.
//!
//! The paper notes that all Redundant Share results hold not only for plain
//! k-fold mirroring but for any redundancy technique in which the i-th
//! sub-block of a redundancy group has a distinct meaning — naming Parity
//! RAID, Reed–Solomon codes and EVENODD explicitly and citing Row-Diagonal
//! Parity. This crate implements those codes from scratch so the storage
//! virtualization layer (`rshare-vds`) can place erasure-coded redundancy
//! groups with Redundant Share: shard `i` of a group is stored on the i-th
//! bin the placement strategy returns.
//!
//! | Code | Data / parity shards | Tolerates | Arithmetic |
//! |---|---|---|---|
//! | [`MatrixCode::xor_parity`] | d / 1 | 1 erasure | GF(256) (all-ones row: XOR) |
//! | [`ArrayCode::evenodd`] (prime p) | p / 2 | 2 erasures | XOR |
//! | [`ArrayCode::rdp`] (prime p) | p−1 / 2 | 2 erasures | XOR |
//! | [`ReedSolomon`] | d / p | p erasures | GF(256) |
//! | [`MatrixCode::local_reconstruction`] (LRC) | g·s / g+p | p+1 guaranteed, more opportunistically | GF(256) |
//!
//! Each code has one encoder, [`ErasureCode::encode_parity`] (which
//! [`ErasureCode::encode`] derives from), and one decoder,
//! [`ErasureCode::reconstruct`]. The three GF(256) codes are one engine:
//! [`MatrixCode`] turns a systematic generator matrix into a code, and
//! Reed–Solomon is its MDS instance. The two XOR array codes are the
//! other: [`ArrayCode`] lays EVENODD and RDP on one grid of diagonals and
//! decodes both by peeling row and diagonal equations.
//!
//! # Example
//!
//! ```
//! use rshare_erasure::{ErasureCode, ReedSolomon};
//!
//! let rs = ReedSolomon::new(3, 2).unwrap();
//! let mut shards = vec![vec![1u8; 8], vec![2; 8], vec![3; 8], vec![0; 8], vec![0; 8]];
//! rs.encode(&mut shards).unwrap();
//! let mut damaged: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
//! damaged[0] = None;
//! damaged[3] = None;
//! rs.reconstruct(&mut damaged).unwrap();
//! assert_eq!(damaged[0].as_deref(), Some([1u8; 8].as_slice()));
//! ```

// `deny` rather than `forbid`: the SIMD tier of the GF(256) kernels
// (`gf256::simd`) is the single sanctioned exception — `std::arch`
// intrinsics require `unsafe` — and it opts in with a narrowly scoped
// `#[allow(unsafe_code)]` plus `deny(unsafe_op_in_unsafe_fn)`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod array_code;
mod code;
mod error;
pub mod gf256;
pub mod matrix;
mod matrix_code;
mod reed_solomon;

pub use array_code::ArrayCode;
pub use code::ErasureCode;
pub use error::ErasureError;
pub use matrix_code::MatrixCode;
pub use reed_solomon::ReedSolomon;
