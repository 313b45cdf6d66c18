//! # gss-skyline — generic Pareto skyline operators
//!
//! The skyline machinery the graph-similarity-skyline engine (Section V of
//! Abbaci et al., GDM/ICDE 2011) runs on, factored out as a standalone,
//! domain-independent crate: every "point" is a `Vec<f64>` whose dimensions
//! are all **minimized** (Definitions 1–2 of the paper).
//!
//! * [`dominance`] — the Pareto dominance relation;
//! * [`algorithms`] — naive, block-nested-loops and sort-filter-skyline,
//!   all returning identical results.
//!
//! ```
//! use gss_skyline::{skyline, Algorithm};
//!
//! // The paper's hotel example (Table I): price and beach distance.
//! let hotels = vec![
//!     vec![4.0, 150.0], vec![3.0, 110.0], vec![2.5, 240.0],
//!     vec![2.0, 180.0], vec![1.7, 270.0], vec![1.0, 195.0],
//!     vec![1.2, 210.0],
//! ];
//! // Skyline = {H2, H4, H6} (0-based indices 1, 3, 5).
//! assert_eq!(skyline(&hotels, Algorithm::Bnl), vec![1, 3, 5]);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
pub mod dominance;

pub use algorithms::{bnl_skyline, naive_skyline, sfs_skyline, skyline, Algorithm};
pub use dominance::{compare, dominates, Dominance};
