//! # gss-core — the graph similarity skyline engine
//!
//! The primary contribution of Abbaci et al. (GDM/ICDE 2011), *"A Similarity
//! Skyline Approach for Handling Graph Queries"*, as a reusable library:
//!
//! 1. **Compound similarity** ([`measures`]): a query is evaluated under a
//!    *vector* of local distance measures — `DistEd` (graph edit distance),
//!    `DistMcs` (Bunke–Shearer), `DistGu` (Wallis graph-union) and the
//!    normalized edit distance — sharing one set of expensive primitives
//!    per pair.
//! 2. **Similarity dominance & skyline** ([`query`]): `GSS(D, q)` returns
//!    every database graph not similarity-dominated (Definition 12,
//!    Equation 4), with dominance witnesses for the excluded graphs.
//! 3. **Filter-and-verify pruning** ([`prefilter`]): cheap admissible
//!    lower bounds on every measure let [`Plan::Prefilter`] skip the
//!    exact solvers for provably-dominated candidates, with bit-identical
//!    results.
//! 4. **Diversity refinement** ([`refine`]): extract the most diverse
//!    `k`-subset of the skyline by the paper's rank-sum procedure.
//! 5. **Baselines** ([`baseline`]): classical single-measure top-k
//!    retrieval, for the comparison the paper draws in Section VI.
//!
//! ```
//! use gss_core::{graph_similarity_skyline, GraphDatabase, QueryOptions};
//!
//! let mut db = GraphDatabase::new();
//! db.add("path", |b| b.vertices(&["x", "y", "z"], "C").path(&["x", "y", "z"], "-")).unwrap();
//! db.add("triangle", |b| b.vertices(&["x", "y", "z"], "C").cycle(&["x", "y", "z"], "-")).unwrap();
//! let q = db.build_query("q", |b| b.vertices(&["x", "y", "z"], "C").path(&["x", "y", "z"], "-")).unwrap();
//!
//! let result = graph_similarity_skyline(&db, &q, &QueryOptions::default());
//! // The path graph is identical to the query: it dominates the triangle.
//! assert_eq!(result.skyline.len(), 1);
//! assert_eq!(result.skyline[0].index(), 0);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod cachekey;
pub mod database;
pub mod exec;
pub mod explain;
pub mod index;
pub mod jsonio;
pub mod measures;
pub mod parallel;
pub mod prefilter;
pub mod query;
pub mod refine;

pub use baseline::{top_k_by_measure, ScoredGraph};
pub use cachekey::{options_fingerprint, query_fingerprint, QueryKey};
pub use database::{GraphDatabase, GraphId};
pub use exec::{resolve_plan, CancelToken, Cancelled, Plan, ResolvedPlan};
pub use explain::{batch_stats_to_json, explain_all, to_json, Explanation};
pub use index::{IndexPartition, IndexPlan, QueryIndex};
pub use measures::{compute_primitives, GcsVector, MeasureKind, PairPrimitives, SolverConfig};
pub use prefilter::{PrefilterContext, PrefilterSummary, PruneStats};
pub use query::{
    graph_similarity_skyline, graph_similarity_skyline_batch, BatchStats, DominationWitness,
    GssResult, QueryOptions,
};
pub use refine::{
    pairwise_matrices, refine_skyline, refine_skyline_greedy, RefineOptions, RefinedSkyline,
};
