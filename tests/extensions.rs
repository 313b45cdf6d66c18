//! Integration tests for the beyond-the-paper extensions through the facade:
//! k-skyband queries, the label-histogram measure and WL fingerprints.

use similarity_skyline::core::{graph_similarity_skyband, MeasureKind};
use similarity_skyline::datasets::paper::figure3_database;
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig};
use similarity_skyline::graph::wl::wl_fingerprint;
use similarity_skyline::prelude::*;

#[test]
fn skyband_nests_around_the_skyline_on_workloads() {
    let w = Workload::generate(&WorkloadConfig {
        database_size: 10,
        seed: 0xBAD5EED,
        ..Default::default()
    });
    let db = GraphDatabase::from_parts(w.vocab, w.graphs);
    let opts = QueryOptions::default();
    let sky = graph_similarity_skyline(&db, &w.query, &opts).skyline;
    let mut previous: Vec<GraphId> = Vec::new();
    for k in 1..=4 {
        let band = graph_similarity_skyband(&db, &w.query, k, &opts).members;
        if k == 1 {
            assert_eq!(band, sky, "1-skyband is the skyline");
        }
        for id in &previous {
            assert!(band.contains(id), "skyband must be monotone in k");
        }
        previous = band;
    }
}

#[test]
fn label_histogram_is_a_usable_fourth_dimension() {
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let opts = QueryOptions {
        measures: vec![
            MeasureKind::EditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
            MeasureKind::LabelHistogram,
        ],
        ..Default::default()
    };
    let r = graph_similarity_skyline(&db, &data.query, &opts);
    assert!(r.gcs.iter().all(|g| g.values.len() == 4));
    // DistLH ∈ [0, 1] everywhere and zero only for label-identical graphs.
    for gcs in &r.gcs {
        let lh = gcs.values[3];
        assert!((0.0..=1.0).contains(&lh));
    }
    // g7 ⊃ q: vertex labels identical (A–F both sides, mismatch 0); edge
    // labels are 6×"-" vs 10×"-" (mismatch 4). Total label occurrences =
    // (6+6) vertices + (6+10) edges = 28, so DistLH(g7, q) = 4/28.
    let g7 = &r.gcs[6];
    let expected = 4.0 / 28.0;
    assert!((g7.values[3] - expected).abs() < 1e-12);
}

#[test]
fn wl_fingerprint_constant_across_runs_and_isomorphs() {
    let data = figure3_database();
    // Pin a fingerprint's determinism (same value in two computations).
    let f1 = wl_fingerprint(&data.query, 2);
    let f2 = wl_fingerprint(&data.query, 2);
    assert_eq!(f1, f2);
    // The database graphs all differ from the query.
    for g in &data.graphs {
        assert_ne!(wl_fingerprint(g, 2), f1, "{} vs q", g.name());
    }
}

#[test]
fn skyband_respects_witness_counts() {
    // Direct cross-check of the skyband semantics on the paper data:
    // count dominators per graph from the GCS matrix.
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let opts = QueryOptions::default();
    let r = graph_similarity_skyline(&db, &data.query, &opts);
    for k in 1..=3 {
        let band = graph_similarity_skyband(&db, &data.query, k, &opts);
        for i in 0..db.len() {
            let dominators = (0..db.len())
                .filter(|&j| {
                    j != i
                        && similarity_skyline::skyline::dominates(
                            &r.gcs[j].values,
                            &r.gcs[i].values,
                        )
                })
                .count();
            assert_eq!(
                band.contains(GraphId(i)),
                dominators < k,
                "g{} with {dominators} dominators vs k={k}",
                i + 1
            );
        }
    }
}
