//! Integration test: the full paper reproduction through the public facade.
//!
//! Asserts every number the paper publishes (Tables I–V, Examples 1–5,
//! Figures 1–3) against values computed end-to-end by the library — the
//! repository-level contract that the reproduction holds.

use similarity_skyline::datasets::paper::{expected, figure1_pair, figure3_database, hotels};
use similarity_skyline::prelude::*;

#[test]
fn table1_hotel_skyline() {
    let (_names, rows) = hotels();
    let sky = similarity_skyline::skyline::skyline(&rows, Algorithm::Bnl);
    assert_eq!(sky, expected::HOTEL_SKYLINE.to_vec());
}

#[test]
fn examples_2_3_4_figure1() {
    let pair = figure1_pair();
    assert_eq!(ged(&pair.left, &pair.right), 4.0, "Example 2");
    let m = mcs_edge_size(&pair.left, &pair.right);
    assert_eq!(m, 4, "Example 3 mcs size");
    assert!(
        (1.0 - m as f64 / 6.0 - 0.333).abs() < 0.001,
        "Example 3 DistMcs"
    );
    assert!(
        (1.0 - m as f64 / (12.0 - m as f64) - 0.5).abs() < 1e-12,
        "Example 4 DistGu"
    );
}

#[test]
fn example_2_edit_script_has_the_paper_op_kinds() {
    use similarity_skyline::ged::{
        bipartite::bipartite_ged, edit_path_for_mapping, exact_ged, GedOptions,
    };
    let pair = figure1_pair();
    let warm = bipartite_ged(&pair.left, &pair.right, &CostModel::uniform());
    let r = exact_ged(
        &pair.left,
        &pair.right,
        &GedOptions {
            warm_start: Some(warm.mapping),
            ..Default::default()
        },
    );
    let mut kinds: Vec<&str> = edit_path_for_mapping(&pair.left, &pair.right, &r.mapping)
        .iter()
        .map(|op| op.kind())
        .collect();
    kinds.sort();
    // Paper: one edge deletion, one edge relabeling, one vertex relabeling,
    // one edge insertion.
    assert_eq!(
        kinds,
        vec![
            "edge-delete",
            "edge-insert",
            "edge-relabel",
            "vertex-relabel"
        ]
    );
}

#[test]
fn tables_2_and_3_reproduce_exactly() {
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    // Sizes as printed in Section VI.
    let sizes: Vec<usize> = db.iter().map(|(_, g)| g.size()).collect();
    assert_eq!(sizes, expected::SIZES.to_vec());
    assert_eq!(data.query.size(), expected::QUERY_SIZE);

    for (i, (_, g)) in db.iter().enumerate() {
        assert_eq!(
            mcs_edge_size(g, &data.query),
            expected::TABLE2_MCS[i],
            "Table II row {}",
            i + 1
        );
        assert_eq!(
            ged(g, &data.query),
            expected::TABLE3_ED[i],
            "Table III DistEd row {}",
            i + 1
        );
    }
}

#[test]
fn section6_skyline_and_witnesses() {
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    // The naive scan: the witness check below reads non-member rows, which
    // the default plan reports as lower bounds where it pruned.
    let naive = QueryOptions::default().with_plan(Plan::Naive);
    let r = graph_similarity_skyline(&db, &data.query, &naive);
    let got: Vec<usize> = r.skyline.iter().map(|g| g.index()).collect();
    assert_eq!(
        got,
        expected::SKYLINE.to_vec(),
        "GSS(D,q) = {{g1,g4,g5,g7}}"
    );

    // The paper's named dominators must dominate.
    for (loser, winner) in expected::DOMINANCE_WITNESSES {
        assert!(
            similarity_skyline::skyline::dominates(&r.gcs[winner].values, &r.gcs[loser].values),
            "g{} must dominate g{}",
            winner + 1,
            loser + 1
        );
    }
}

#[test]
fn section6_top_k_contrast() {
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let top3 = top_k_by_measure(&db, &data.query, MeasureKind::EditDistance, 3, 1);
    let ids: Vec<usize> = top3.iter().map(|s| s.id.index()).collect();
    assert!(ids.contains(&2), "g3 in ED top-3");
    let r = graph_similarity_skyline(&db, &data.query, &QueryOptions::default());
    assert!(!r.contains(GraphId(2)), "g3 rejected by the skyline");
}

#[test]
fn section7_refinement_selects_g1_g4() {
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let members: Vec<GraphId> = expected::SKYLINE.iter().map(|&i| GraphId(i)).collect();
    let refined = refine_skyline(&db, &members, 2, &RefineOptions::default()).unwrap();
    let got: Vec<usize> = refined.selected.iter().map(|g| g.index()).collect();
    assert_eq!(got, expected::REFINED.to_vec());

    // Table IV: all six v2 (DistMcs) and v3 (DistGu) diversity cells match
    // the paper to printing precision.
    for (idx, cand) in refined.evaluation.candidates.iter().enumerate() {
        assert!(
            (cand.diversity[1] - expected::TABLE4[idx][1]).abs() < 0.006,
            "v2 of S{}",
            idx + 1
        );
        assert!(
            (cand.diversity[2] - expected::TABLE4[idx][2]).abs() < 0.006,
            "v3 of S{}",
            idx + 1
        );
    }
    // v1 (normalized GED): four of six cells match; S3 and S5 deviate by
    // exactly the two unattainable Table IV GED entries (the argument is in
    // the `gss_datasets::paper` module docs).
    let v1: Vec<f64> = refined
        .evaluation
        .candidates
        .iter()
        .map(|c| c.diversity[0])
        .collect();
    for idx in [0usize, 1, 3, 5] {
        assert!(
            (v1[idx] - expected::TABLE4[idx][0]).abs() < 0.011,
            "v1 of S{}",
            idx + 1
        );
    }
    assert!(
        (v1[2] - 6.0 / 7.0).abs() < 1e-12,
        "S3 = ged 6 (paper claims 7)"
    );
    assert!(
        (v1[4] - 6.0 / 7.0).abs() < 1e-12,
        "S5 = ged 6 (paper claims 5)"
    );
}

#[test]
fn table4_ged_cells_paper_vs_measured() {
    // Documents the measured pairwise GEDs among skyline members:
    // paper [6,5,7,4,5,3] vs measured [6,5,6,4,6,3].
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let members: Vec<&Graph> = expected::SKYLINE
        .iter()
        .map(|&i| db.get(GraphId(i)))
        .collect();
    let mut measured = Vec::new();
    for a in 0..members.len() {
        for b in a + 1..members.len() {
            measured.push(ged(members[a], members[b]));
        }
    }
    assert_eq!(measured, vec![6.0, 5.0, 6.0, 4.0, 6.0, 3.0]);
    let matches = measured
        .iter()
        .zip(expected::TABLE4_GED)
        .filter(|(m, p)| **m == *p)
        .count();
    assert_eq!(
        matches, 4,
        "4 of 6 pairwise GED cells match the paper exactly"
    );
}

/// Edit-cost-model sensitivity (an ablation beyond the paper, which fixes
/// the uniform model): structural edits (insert / delete) cost `w` × a
/// relabel. Every member of the paper's skyline survives each weighting,
/// but at `w ≥ 2` g3 joins — its optimal edit path is relabel-heavy while
/// g5's is insertion-heavy, so weighting structure breaks g5 ≻ g3.
/// Compound-measure answers are sensitive to the edit-cost model exactly
/// at dominance ties.
#[test]
fn structure_weighted_edit_costs_admit_g3_into_the_skyline() {
    use similarity_skyline::ged::{exact_ged, GedOptions};
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    // DistMcs and DistGu do not depend on the edit-cost model. The naive
    // scan makes every row exact, non-members included.
    let naive = QueryOptions::default().with_plan(Plan::Naive);
    let uniform = graph_similarity_skyline(&db, &data.query, &naive);
    let paper = vec![0, 3, 4, 6]; // {g1, g4, g5, g7}
    let with_g3 = vec![0, 2, 3, 4, 6];
    for (w, dist_ed, skyline) in [
        (1.0, [4.0, 4.0, 3.0, 2.0, 3.0, 4.0, 4.0], &paper),
        (2.0, [8.0, 5.0, 4.0, 2.0, 5.0, 7.0, 8.0], &with_g3),
        (4.0, [13.0, 7.0, 6.0, 2.0, 9.0, 13.0, 16.0], &with_g3),
    ] {
        let options = GedOptions {
            cost: CostModel::structure_weighted(w),
            ..GedOptions::default()
        };
        let measured: Vec<f64> = db
            .iter()
            .map(|(_, g)| exact_ged(g, &data.query, &options).cost)
            .collect();
        assert_eq!(measured, dist_ed, "DistEd(g1..g7, q) at w = {w}");
        let points: Vec<Vec<f64>> = uniform
            .gcs
            .iter()
            .zip(&measured)
            .map(|(gcs, &ed)| {
                let mut p = gcs.values.clone();
                p[0] = ed;
                p
            })
            .collect();
        assert_eq!(
            &similarity_skyline::skyline::skyline(&points, Algorithm::Bnl),
            skyline,
            "skyline at w = {w}"
        );
    }
}
