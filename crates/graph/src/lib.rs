//! # gss-graph — labeled-graph substrate for similarity-skyline queries
//!
//! This crate provides the graph model used throughout the
//! `similarity-skyline` workspace, matching the definitions of Abbaci et al.
//! (GDM/ICDE 2011), *"A Similarity Skyline Approach for Handling Graph
//! Queries"*:
//!
//! * a **graph** is an undirected simple graph whose vertices *and* edges
//!   carry labels (Definition 3 of the paper);
//! * the **size** of a graph, written `|g|`, is its number of *edges*;
//! * labels are interned into compact [`Label`] ids through a shared
//!   [`Vocabulary`] so that all similarity algorithms compare plain `u32`s.
//!
//! Beyond the model itself the crate offers:
//!
//! * [`arena`] — compact interned storage: a database-wide [`LabelPool`],
//!   CSR-style [`GraphArena`] flat arrays with borrowed [`GraphRef`]
//!   views, and column-oriented [`StatsColumns`] — the memory layout the
//!   zero-parse persistence format adopts byte-for-byte;
//! * [`GraphBuilder`] — ergonomic construction from string labels;
//! * [`algo`] — connectivity and component utilities;
//! * [`stats`] — label histograms used by distance lower bounds, plus the
//!   per-graph [`GraphStats`] summary the query pipeline caches;
//! * [`fnv`] — the workspace's one FNV-1a hasher ([`Fnv64`]), behind every
//!   persistent checksum and fingerprint;
//! * [`bitset`] — word-parallel [`Bitset`]/[`BitMatrix`] substrate for the
//!   allocation-free solver kernels;
//! * [`mod@format`] — a line-oriented text format (compatible in spirit with the
//!   classic `t/v/e` transactional graph format) plus Graphviz DOT export;
//! * [`rng`] — a small, fully deterministic PRNG (SplitMix64-seeded
//!   Xoshiro256++) so every synthetic workload in the workspace is
//!   bit-reproducible without external dependencies, and [`random_graph`],
//!   the seeded G(n, m) generator every crate's tests draw from.
//!
//! ## Invariants
//!
//! * No self-loops and no parallel edges ([`Graph::add_edge`] rejects both).
//! * [`VertexId`]s and [`EdgeId`]s are dense indices assigned in insertion
//!   order; they are stable for the lifetime of the graph.
//! * Two graphs may only be compared by the similarity crates when their
//!   labels were interned in the **same** [`Vocabulary`]; the
//!   `gss-core::GraphDatabase` type enforces this.
//!
//! ## Example
//!
//! ```
//! use gss_graph::{Graph, GraphBuilder, Vocabulary};
//!
//! let mut vocab = Vocabulary::new();
//! let g: Graph = GraphBuilder::new("triangle", &mut vocab)
//!     .vertex("u", "C")
//!     .vertex("v", "C")
//!     .vertex("w", "O")
//!     .edge("u", "v", "-")
//!     .edge("v", "w", "=")
//!     .edge("w", "u", "-")
//!     .build()
//!     .unwrap();
//! assert_eq!(g.order(), 3); // vertices
//! assert_eq!(g.size(), 3);  // edges — the paper's |g|
//! ```

#![warn(missing_docs)]

pub mod algo;
pub mod arena;
pub mod bitset;
pub mod builder;
pub mod error;
pub mod fnv;
pub mod format;
pub mod graph;
pub mod label;
pub mod rng;
pub mod stats;
pub mod wl;

pub use arena::{GraphArena, GraphRef, LabelPool, StatsColumns};
pub use bitset::{BitMatrix, Bitset};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use fnv::Fnv64;
pub use graph::{Edge, EdgeId, EdgeLookup, Graph, Vertex, VertexId};
pub use label::{Label, Vocabulary};
pub use rng::{random_graph, Rng};
pub use stats::GraphStats;
pub use wl::wl_fingerprint;
