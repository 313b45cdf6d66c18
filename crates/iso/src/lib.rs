//! # gss-iso — label-preserving (sub)graph isomorphism
//!
//! Implements Definitions 4–6 of Abbaci et al. (GDM/ICDE 2011) for the
//! labeled graphs of [`gss_graph`]:
//!
//! * **graph isomorphism** (Def. 4) — a label-preserving bijection that maps
//!   edges to edges of equal label in both directions;
//! * **subgraph isomorphism** (Def. 5) — a label-preserving injection under
//!   which every *pattern* edge appears in the target with an equal label
//!   (the *non-induced* variant, which is what the paper's `⊆` means).
//!
//! The solver in [`vf2`] is a VF2-style backtracking matcher with
//! connectivity-guided candidate generation and cheap invariant pre-filters
//! ([`invariants`]). A transparent brute-force matcher ([`brute`]) serves as
//! a correctness oracle in tests.
//!
//! ```
//! use gss_graph::{GraphBuilder, Vocabulary};
//! use gss_iso::{is_subgraph_isomorphic, are_isomorphic};
//!
//! let mut vocab = Vocabulary::new();
//! let triangle = GraphBuilder::new("t", &mut vocab)
//!     .vertices(&["a", "b", "c"], "C")
//!     .cycle(&["a", "b", "c"], "-")
//!     .build()
//!     .unwrap();
//! let edge = GraphBuilder::new("e", &mut vocab)
//!     .vertices(&["x", "y"], "C")
//!     .edge("x", "y", "-")
//!     .build()
//!     .unwrap();
//! assert!(is_subgraph_isomorphic(&edge, &triangle));
//! assert!(!is_subgraph_isomorphic(&triangle, &edge));
//! assert!(!are_isomorphic(&edge, &triangle));
//! ```

#![warn(missing_docs)]

pub mod brute;
pub mod invariants;
pub mod vf2;

pub use vf2::{
    are_isomorphic, enumerate_embeddings, find_embedding, is_subgraph_isomorphic, Embedding,
    MatchMode,
};
