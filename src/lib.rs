//! # similarity-skyline
//!
//! A Rust implementation of **similarity-skyline graph queries**, after
//! Katia Abbaci, Allel Hadjali, Ludovic Liétard and Daniel Rocacher,
//! *"A Similarity Skyline Approach for Handling Graph Queries — A
//! Preliminary Report"*, GDM workshop @ IEEE ICDE 2011.
//!
//! Instead of ranking graphs by a *single* similarity score, a query is
//! evaluated under a **vector** of local distance measures — graph edit
//! distance, MCS-based distance, graph-union (Jaccard) distance — and the
//! answer is the set of graphs that are *Pareto-optimal* with respect to
//! that vector: the **graph similarity skyline**. A diversity-based
//! refinement then extracts a small, maximally-diverse subset.
//!
//! This crate is a facade re-exporting the workspace stack:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] (gss-graph) | labeled graphs, vocabulary, formats, RNG |
//! | [`iso`] (gss-iso) | VF2 (sub)graph isomorphism |
//! | [`mcs`] (gss-mcs) | exact connected maximum common subgraph |
//! | [`ged`] (gss-ged) | exact/bipartite graph edit distance |
//! | [`skyline`] (gss-skyline) | generic Pareto skyline operators |
//! | [`diversity`] (gss-diversity) | rank-sum diversity refinement |
//! | [`core`] (gss-core) | measures, GCS, the GSS query engine |
//! | [`index`] (gss-index) | pivot-based metric index for sublinear scans |
//! | [`store`] (gss-store) | live mutation: epoch-based MVCC snapshots, incremental index maintenance, checksummed WAL + crash recovery, deterministic fault injection |
//! | [`protocol`] (gss-protocol) | the typed wire protocol: request/response envelopes, line codecs |
//! | [`server`] (gss-server) | concurrent query serving: event-driven front end, caching, admission control |
//! | [`datasets`] (gss-datasets) | paper datasets, generators, workloads |
//!
//! ## Quickstart
//!
//! ```
//! use similarity_skyline::prelude::*;
//!
//! // Build a tiny chemical-flavoured database.
//! let mut db = GraphDatabase::new();
//! db.add("ethanol-ish", |b| {
//!     b.vertices(&["c1", "c2"], "C").vertex("o", "O")
//!         .path(&["c1", "c2", "o"], "-")
//! }).unwrap();
//! db.add("acetaldehyde-ish", |b| {
//!     b.vertices(&["c1", "c2"], "C").vertex("o", "O")
//!         .edge("c1", "c2", "-").edge("c2", "o", "=")
//! }).unwrap();
//!
//! // Query: a two-carbon fragment with a single-bonded oxygen.
//! let q = db.build_query("q", |b| {
//!     b.vertices(&["x", "y"], "C").vertex("o", "O")
//!         .path(&["x", "y", "o"], "-")
//! }).unwrap();
//!
//! let result = graph_similarity_skyline(&db, &q, &QueryOptions::default());
//! assert!(result.contains(GraphId(0))); // exact match is Pareto-optimal
//! ```

#![warn(missing_docs)]

pub use gss_core as core;
pub use gss_datasets as datasets;
pub use gss_diversity as diversity;
pub use gss_ged as ged;
pub use gss_graph as graph;
pub use gss_index as index;
pub use gss_iso as iso;
pub use gss_mcs as mcs;
pub use gss_protocol as protocol;
pub use gss_server as server;
pub use gss_skyline as skyline;
pub use gss_store as store;

/// One-stop import for applications.
pub mod prelude {
    pub use gss_core::{
        graph_similarity_skyline, graph_similarity_skyline_batch, refine_skyline,
        refine_skyline_greedy, top_k_by_measure, CancelToken, Cancelled, GcsVector, GraphDatabase,
        GraphId, GssResult, MeasureKind, Plan, PruneStats, QueryOptions, RefineOptions,
        ResolvedPlan, SolverConfig,
    };
    pub use gss_ged::{ged, CostModel};
    pub use gss_graph::{Graph, GraphBuilder, Label, Rng, Vocabulary};
    pub use gss_index::{PivotIndex, PivotIndexConfig};
    pub use gss_iso::{are_isomorphic, is_subgraph_isomorphic};
    pub use gss_mcs::mcs_edge_size;
    pub use gss_skyline::Algorithm;
    pub use gss_store::{GraphStore, MutationBatch, MutationReceipt, Snapshot, StoreConfig};
}
