//! The root tests' one workload builder, one reference document, and the
//! graph helpers for wire and mutation traffic. Each test binary compiles
//! its own copy and uses a subset of it.
#![allow(dead_code)]

use similarity_skyline::core::jsonio::Value;
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::graph::VertexId;
use similarity_skyline::prelude::*;

/// A generated database of `size` five-vertex graphs, half of them edits
/// of the returned query graph.
pub fn build_workload(seed: u64, size: usize, kind: WorkloadKind) -> (GraphDatabase, Graph) {
    let w = Workload::generate(&WorkloadConfig {
        kind,
        database_size: size,
        graph_vertices: 5,
        related_fraction: 0.5,
        max_edits: 3,
        seed,
    });
    (GraphDatabase::from_parts(w.vocab, w.graphs), w.query)
}

/// The single-threaded reference document under `options`: the compact
/// `to_json` bytes the server caches and serves.
pub fn oracle(db: &GraphDatabase, query: &Graph, options: &QueryOptions) -> String {
    let mut options = options.clone();
    options.threads = 1;
    let result = graph_similarity_skyline(db, query, &options);
    compact(&similarity_skyline::core::to_json(db, &result))
}

/// Re-serializes a JSON document with the server's compact writer.
pub fn compact(json: &str) -> String {
    Value::parse(json).expect("valid JSON").to_compact()
}

/// One graph in `t/v/e` text form, labels spelled through `db`'s vocabulary.
pub fn graph_text(db: &GraphDatabase, g: &Graph) -> String {
    similarity_skyline::graph::format::write_database(std::slice::from_ref(g), db.vocab())
}

/// Database graph `id` as text under a new name, so inserts and updates
/// reuse existing structure and never grow the vocabulary.
pub fn renamed_text(db: &GraphDatabase, id: usize, new_name: &str) -> String {
    let text = graph_text(db, db.get(GraphId(id)));
    let body = text.split_once('\n').map_or("", |(_, b)| b);
    format!("t {new_name}\n{body}")
}

/// `g` with its vertices entered in `order` (vertex `order[i]` of `g`
/// becomes vertex `i`): the same graph under another encoding.
pub fn permuted(g: &Graph, order: &[usize]) -> Graph {
    let mut new_id = vec![VertexId::new(0); order.len()];
    let mut h = Graph::new(g.name());
    for &old in order {
        new_id[old] = h.add_vertex(g.vertex_label(VertexId::new(old)));
    }
    for e in g.edges() {
        let edge = g.edge(e);
        let (u, v) = (new_id[edge.u.index()], new_id[edge.v.index()]);
        h.add_edge(u, v, edge.label)
            .expect("a copy of a simple graph stays simple");
    }
    h
}
