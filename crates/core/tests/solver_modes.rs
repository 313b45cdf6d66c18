//! Engine behaviour under both solver configurations, on the paper dataset
//! (where ground truth is known exactly).

use gss_core::{graph_similarity_skyline, GraphDatabase, QueryOptions, SolverConfig};
use gss_datasets::paper::{expected, figure3_database};

fn paper() -> (GraphDatabase, gss_graph::Graph) {
    let data = figure3_database();
    (
        GraphDatabase::from_parts(data.vocab, data.graphs),
        data.query,
    )
}

fn approx_options() -> QueryOptions {
    QueryOptions {
        solvers: SolverConfig::Approx,
        ..Default::default()
    }
}

#[test]
fn approximate_ged_never_underestimates_on_paper_data() {
    let (db, q) = paper();
    let exact = graph_similarity_skyline(&db, &q, &QueryOptions::default());
    let approx = graph_similarity_skyline(&db, &q, &approx_options());
    // Bipartite GED ≥ exact GED.
    for i in 0..db.len() {
        assert!(
            approx.gcs[i].values[0] >= exact.gcs[i].values[0] - 1e-9,
            "Approx underestimated DistEd for g{}",
            i + 1
        );
    }
}

#[test]
fn greedy_mcs_never_overestimates_on_paper_data() {
    let (db, q) = paper();
    let exact = graph_similarity_skyline(&db, &q, &QueryOptions::default());
    let approx = graph_similarity_skyline(&db, &q, &approx_options());
    // Greedy |mcs| ≤ exact ⟹ DistMcs/DistGu ≥ exact.
    for i in 0..db.len() {
        assert!(approx.gcs[i].values[1] >= exact.gcs[i].values[1] - 1e-12);
        assert!(approx.gcs[i].values[2] >= exact.gcs[i].values[2] - 1e-12);
    }
}

#[test]
fn greedy_mcs_still_reproduces_the_paper_skyline() {
    // The paper's graphs are easy instances for bipartite GED and greedy
    // MCS (their common subgraphs grow monotonically), so even the
    // approximate configuration reproduces the headline result — worth
    // pinning as a regression check.
    let (db, q) = paper();
    let approx = graph_similarity_skyline(&db, &q, &approx_options());
    let got: Vec<usize> = approx.skyline.iter().map(|g| g.index()).collect();
    assert_eq!(got, expected::SKYLINE.to_vec());
}
