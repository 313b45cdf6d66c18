//! Chemical-compound similarity search — the workload class the paper's
//! introduction motivates (chemical compounds, bioinformatics).
//!
//! Generates a deterministic database of molecule-like graphs, plants a few
//! near-variants of the query, then compares:
//!
//! 1. the similarity skyline (compound measure), and
//! 2. single-measure top-k retrieval,
//!
//! showing how the skyline surfaces Pareto trade-offs a single score hides.
//!
//! Run with: `cargo run --example chemical_search`

use gss_datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::prelude::*;

fn main() {
    let cfg = WorkloadConfig {
        kind: WorkloadKind::Molecule,
        database_size: 24,
        graph_vertices: 7,
        related_fraction: 0.4,
        max_edits: 4,
        seed: 0xC0FFEE,
    };
    let w = Workload::generate(&cfg);
    let mut db = GraphDatabase::from_parts(w.vocab, w.graphs);
    println!(
        "database: {} molecule-like graphs ({} derived from the query)",
        db.len(),
        w.planted.len()
    );
    println!(
        "query: {} atoms, {} bonds\n",
        w.query.order(),
        w.query.size()
    );

    let options = QueryOptions {
        threads: 4,
        ..QueryOptions::default()
    };
    let result = graph_similarity_skyline(&db, &w.query, &options);

    println!("similarity skyline ({} members):", result.skyline.len());
    println!(
        "  {:<12} {:>7} {:>8} {:>8}",
        "graph", "DistEd", "DistMcs", "DistGu"
    );
    for id in &result.skyline {
        let gcs = &result.gcs[id.index()];
        println!(
            "  {:<12} {:>7.1} {:>8.3} {:>8.3}",
            db.get(*id).name(),
            gcs.values[0],
            gcs.values[1],
            gcs.values[2]
        );
    }

    // How many planted near-matches does each approach recover?
    let planted: Vec<GraphId> = w.planted.iter().map(|&(i, _)| GraphId(i)).collect();
    let k = result.skyline.len();
    let in_skyline = planted.iter().filter(|p| result.contains(**p)).count();
    println!(
        "\nplanted near-matches in the skyline: {in_skyline}/{}",
        planted.len()
    );

    for measure in [MeasureKind::EditDistance, MeasureKind::Mcs, MeasureKind::Gu] {
        let top = top_k_by_measure(&db, &w.query, measure, k, 4);
        let hits = top.iter().filter(|s| planted.contains(&s.id)).count();
        println!(
            "planted near-matches in top-{k} by {} alone: {hits}/{}",
            measure.name(),
            planted.len()
        );
    }

    // Refine to a diverse short list for a chemist to eyeball.
    let k = 3.min(result.skyline.len());
    if result.skyline.len() > k && k >= 2 {
        let refined = refine_skyline(&db, &result.skyline, k, &RefineOptions::default()).unwrap();
        println!("\ndiverse {k}-subset of the skyline:");
        for id in &refined.selected {
            println!("  {}", db.get(*id).name());
        }
        if refined.evaluation.tied.len() > 1 {
            println!(
                "  ({} subsets tied on rank-sum)",
                refined.evaluation.tied.len()
            );
        }
    }

    // Export the query in DOT for visual inspection.
    println!("\nquery graph (Graphviz DOT):");
    // Rebuild access to the vocabulary through the database.
    print!("{}", gss_graph::format::to_dot(&w.query, db.vocab_mut()));
}
