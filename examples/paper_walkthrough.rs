//! Walks through every worked example of the paper, end to end, printing
//! each table next to the published values.
//!
//! Run with: `cargo run --example paper_walkthrough`
//!
//! * Example 1 / Table I — the hotel skyline;
//! * Examples 2–4 / Figs. 1–2 — the measure walkthrough on the
//!   reconstructed pair, including the explicit optimal edit script;
//! * Section VI / Tables II–III — the graph database, the GCS matrix, the
//!   similarity skyline and its dominance explanations;
//! * Section VII / Tables IV–V — the diversity refinement.

use gss_core::{
    graph_similarity_skyline, refine_skyline, top_k_by_measure, GraphDatabase, GraphId,
    MeasureKind, Plan, QueryOptions, RefineOptions, SolverConfig,
};
use gss_datasets::paper::{expected, figure1_pair, figure3_database, hotels};
use gss_ged::{bipartite::bipartite_ged, edit_path_for_mapping, exact_ged, CostModel, GedOptions};
use gss_mcs::{maximum_common_subgraph, Objective};
use gss_skyline::{skyline, Algorithm};

fn main() {
    hotel_example();
    figure1_example();
    section6_example();
    section7_example();
}

fn hotel_example() {
    println!("=== Example 1 / Table I: hotel skyline ===");
    let (names, rows) = hotels();
    let sky = skyline(&rows, Algorithm::Bnl);
    for (i, name) in names.iter().enumerate() {
        println!(
            "  {name}: price {:>4}  distance {:>5}  {}",
            rows[i][0],
            rows[i][1],
            if sky.contains(&i) { "← skyline" } else { "" }
        );
    }
    let got: Vec<&str> = sky.iter().map(|&i| names[i]).collect();
    println!("  skyline = {got:?} (paper: [H2, H4, H6])\n");
}

fn figure1_example() {
    println!("=== Examples 2–4 / Figs. 1–2: the three measures ===");
    let pair = figure1_pair();
    let cost = CostModel::uniform();
    let warm = bipartite_ged(&pair.left, &pair.right, &cost);
    let ged = exact_ged(
        &pair.left,
        &pair.right,
        &GedOptions {
            cost,
            warm_start: Some(warm.mapping),
        },
    );
    println!("  DistEd(g1, g2) = {} (paper: 4)", ged.cost);
    println!("  optimal edit script:");
    for op in edit_path_for_mapping(&pair.left, &pair.right, &ged.mapping) {
        println!("    - {}", op.kind());
    }
    let mcs = maximum_common_subgraph(&pair.left, &pair.right, Objective::Edges);
    let m = mcs.edges() as f64;
    println!("  |mcs(g1, g2)| = {} (paper: 4)", mcs.edges());
    println!("  DistMcs = 1 - {m}/6 = {:.2} (paper: 0.33)", 1.0 - m / 6.0);
    println!(
        "  DistGu  = 1 - {m}/(6+6-{m}) = {:.2} (paper: 0.50)",
        1.0 - m / (12.0 - m)
    );
    println!("  mcs as a graph (Fig. 2):");
    let sub = mcs.as_graph(&pair.left);
    print!("{}", gss_graph::format::to_dot(&sub, &pair.vocab));
    println!();
}

fn section6_example() {
    println!("=== Section VI / Tables II–III: the similarity skyline ===");
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    // The naive scan verifies every graph, so each row of Table III is
    // exact (the default plan reports lower bounds for pruned graphs).
    let naive = QueryOptions::default().with_plan(Plan::Naive);
    let result = graph_similarity_skyline(&db, &data.query, &naive);
    let dist_ed: Vec<f64> = result.gcs.iter().map(|g| g.values[0]).collect();
    assert_eq!(dist_ed, expected::TABLE3_ED, "Table III DistEd column");

    println!(
        "  {:<4} {:>4} {:>7} {:>8} {:>8}  skyline?",
        "g", "|g|", "DistEd", "DistMcs", "DistGu"
    );
    for (i, gcs) in result.gcs.iter().enumerate() {
        println!(
            "  g{:<3} {:>4} {:>7} {:>8.2} {:>8.2}  {}",
            i + 1,
            db.get(GraphId(i)).size(),
            gcs.values[0],
            gcs.values[1],
            gcs.values[2],
            if result.contains(GraphId(i)) {
                "yes"
            } else {
                "no"
            }
        );
    }
    let sky: Vec<String> = result
        .skyline
        .iter()
        .map(|g| format!("g{}", g.index() + 1))
        .collect();
    println!("  GSS(D, q) = {sky:?} (paper: [g1, g4, g5, g7])");
    let members: Vec<usize> = result.skyline.iter().map(|g| g.index()).collect();
    assert_eq!(members, expected::SKYLINE, "GSS(D, q)");
    for w in &result.dominated {
        println!(
            "  g{} is dominated by g{}",
            w.graph.index() + 1,
            w.dominator.index() + 1
        );
    }

    println!("  contrast — top-3 by edit distance alone:");
    let top3 = top_k_by_measure(
        &db,
        &data.query,
        MeasureKind::EditDistance,
        3,
        &SolverConfig::default(),
        1,
    );
    for s in &top3 {
        println!("    g{} (DistEd {})", s.id.index() + 1, s.distance);
    }
    println!("  note: g3 appears here but is NOT Pareto-optimal (g5 does better).\n");
}

fn section7_example() {
    println!("=== Section VII / Tables IV–V: diversity refinement ===");
    let data = figure3_database();
    let db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let members: Vec<GraphId> = expected::SKYLINE.iter().map(|&i| GraphId(i)).collect();
    let refined = refine_skyline(&db, &members, 2, &RefineOptions::default()).unwrap();

    println!(
        "  {:<12} {:>6} {:>6} {:>6} | {:>2} {:>2} {:>2} | val",
        "S", "v1", "v2", "v3", "r1", "r2", "r3"
    );
    for cand in &refined.evaluation.candidates {
        let names: Vec<String> = cand
            .members
            .iter()
            .map(|&i| format!("g{}", members[i].index() + 1))
            .collect();
        println!(
            "  {:<12} {:>6.2} {:>6.2} {:>6.2} | {:>2} {:>2} {:>2} | {}",
            format!("{{{}}}", names.join(",")),
            cand.diversity[0],
            cand.diversity[1],
            cand.diversity[2],
            cand.ranks[0],
            cand.ranks[1],
            cand.ranks[2],
            cand.val
        );
    }
    let sel: Vec<String> = refined
        .selected
        .iter()
        .map(|g| format!("g{}", g.index() + 1))
        .collect();
    println!("  refined subset 𝕊 = {sel:?} (paper: [g1, g4])");
}
