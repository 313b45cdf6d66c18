//! The system under test: every repo symbol the harness touches.
//!
//! The rest of the harness imports from here only, so a refactor under
//! `crates/` is absorbed by this one file. Mostly re-exports; the few
//! functions below compose calls the harness needs more than once. The
//! surface is the facade prelude plus `serve_store` / `Client` / `Engine`,
//! `GraphStore`, `PivotIndex`, `prefilter::summarize_deferred`,
//! `compute_primitives`, `exact_ged` and
//! `maximum_common_subgraph_expanded` (listed in `../README.md`).

use std::path::Path;
use std::sync::Arc;

pub use gss_core::jsonio::Value;
pub use gss_core::prefilter::{ged_lower_bound, summarize_deferred};
pub use gss_core::{
    compute_primitives, graph_similarity_skyline, to_json, GraphDatabase, GraphId, GssResult, Plan,
    PrefilterContext, PruneStats, QueryIndex, QueryKey, QueryOptions,
};
pub use gss_datasets::paper::{expected as paper_expected, figure3_database};
pub use gss_datasets::{
    molecule_like_graph, perturb_typed, MoleculeConfig, PerturbationStyle, Workload,
    WorkloadConfig, WorkloadKind,
};
pub use gss_ged::{exact_ged, GedOptions};
pub use gss_graph::format::write_database;
pub use gss_graph::{wl_fingerprint, Graph, Rng, Vocabulary};
pub use gss_index::{PivotIndex, PivotIndexConfig};
pub use gss_iso::are_isomorphic;
pub use gss_mcs::exact::{maximum_common_subgraph_expanded, Objective};
pub use gss_protocol::{QueryEnvelope, QueryOverrides, Request as WireRequest, Response};
pub use gss_server::{serve_store, Client, Engine, Request, ServerConfig, ServerHandle};
pub use gss_skyline::{skyline as skyline_filter, Algorithm};
pub use gss_store::{FsyncPolicy, GraphStore, MutationBatch, Snapshot, StoreConfig, WalConfig};

/// FNV-1a over the harness's generated inputs (the repo's own hasher, so
/// the printed input hash needs no second implementation).
pub use gss_core::database::codec::Fnv64;

/// The text of one graph in the `t/v/e` format the wire protocol and the
/// mutation verbs take.
pub fn graph_text(g: &Graph, vocab: &Vocabulary) -> String {
    write_database(std::slice::from_ref(g), vocab)
}

/// The compact result document the server sends for `result` — what
/// `Engine::evaluate_batch` caches: the pretty explain JSON re-serialized
/// compactly.
pub fn result_document(db: &GraphDatabase, result: &GssResult) -> String {
    Value::parse(&to_json(db, result))
        .expect("explain JSON parses")
        .to_compact()
}

/// Query options with the snapshot's maintained index attached, as the
/// server resolves them for a request without overrides.
pub fn snapshot_options(snapshot: &Snapshot) -> QueryOptions {
    match snapshot.query_index() {
        Some(index) => QueryOptions::default().with_index(index),
        None => QueryOptions::default(),
    }
}

/// A digest of the plan-invariant answer of one query: the skyline, the
/// dominance witnesses, and the exact GCS vector of every skyline member
/// (every plan must solve those exactly).
pub fn answer_digest(result: &GssResult) -> u64 {
    let mut h = Fnv64::new();
    for id in &result.skyline {
        h.write_u64(id.index() as u64);
        for v in &result.gcs[id.index()].values {
            h.write_u64(v.to_bits());
        }
    }
    for w in &result.dominated {
        h.write_u64(w.graph.index() as u64);
        h.write_u64(w.dominator.index() as u64);
    }
    h.finish()
}

/// The paper gate: the Figure 3 database must return the published
/// skyline `{g1, g4, g5, g7}`.
pub fn paper_skyline_matches() -> bool {
    let fig = figure3_database();
    let db = GraphDatabase::from_parts(fig.vocab, fig.graphs);
    let result = graph_similarity_skyline(&db, &fig.query, &QueryOptions::default());
    let got: Vec<usize> = result.skyline.iter().map(|id| id.index()).collect();
    got == paper_expected::SKYLINE
}

/// Opens a WAL-backed store in `dir` under the given fsync policy, with
/// the default checkpoint cadence and segment size.
pub fn open_durable(
    db: Arc<GraphDatabase>,
    config: StoreConfig,
    dir: &Path,
    fsync: FsyncPolicy,
) -> GraphStore {
    let wal = WalConfig {
        fsync,
        ..WalConfig::new(dir)
    };
    GraphStore::open_durable(db, config, wal).expect("open durable store")
}
