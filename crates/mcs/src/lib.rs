//! # gss-mcs — maximum common subgraph of labeled graphs
//!
//! Implements the paper's Definition 7: `mcs(g1, g2)` is the largest
//! **connected** subgraph of `g1` that is (non-induced, label-preserving)
//! subgraph-isomorphic to `g2`, with size `|mcs|` measured in **edges** —
//! the quantity driving the `DistMcs` (Bunke–Shearer) and `DistGu`
//! (Wallis et al.) distance measures of Section IV.
//!
//! Two solvers are provided:
//!
//! * [`exact::maximum_common_subgraph`] — a branch-and-bound search over
//!   partial vertex mappings grown along shared edges, with an edge-class
//!   upper bound for pruning. Exact; exponential in the worst case; intended
//!   for the small graphs (≲ 20 edges) this domain works with.
//! * [`oracle::mcs_edges_by_definition`] — a direct executable transcription
//!   of Definition 7 (enumerate connected edge subsets of `g1` by decreasing
//!   size, test embeddability with `gss-iso`). Hopelessly slow, but the
//!   ground truth the exact solver is checked against.
//!
//! The exact kernel is an allocation-free word-parallel rewrite; the
//! original implementation is kept as a test-only parity reference (a
//! `#[cfg(test)]` module), so it is not part of the public API:
//!
//! ```compile_fail
//! use gss_mcs::reference::maximum_common_subgraph_reference;
//! ```
//!
//! ## Note on disconnected inputs
//!
//! Because the common subgraph must be connected, `|mcs(g, g)|` equals the
//! edge count of `g`'s **largest component**, not `|g|`, when `g` is
//! disconnected; the paper implicitly assumes connected database graphs.
//!
//! ```
//! use gss_graph::{GraphBuilder, Vocabulary};
//! use gss_mcs::mcs_edge_size;
//!
//! let mut vocab = Vocabulary::new();
//! let square = GraphBuilder::new("sq", &mut vocab)
//!     .vertices(&["a", "b", "c", "d"], "C")
//!     .cycle(&["a", "b", "c", "d"], "-")
//!     .build()
//!     .unwrap();
//! let path = GraphBuilder::new("p", &mut vocab)
//!     .vertices(&["x", "y", "z"], "C")
//!     .path(&["x", "y", "z"], "-")
//!     .build()
//!     .unwrap();
//! assert_eq!(mcs_edge_size(&square, &path), 2);
//! ```

#![warn(missing_docs)]

pub mod exact;
pub mod oracle;
#[cfg(test)]
mod reference;

pub use exact::{
    maximum_common_subgraph, maximum_common_subgraph_expanded, mcs_edge_size, Mcs, Objective,
};
