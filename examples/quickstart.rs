//! Quickstart: build a small graph database, run a similarity-skyline query,
//! inspect the compound-similarity vectors, and refine the answer set.
//!
//! Run with: `cargo run --example quickstart`

use similarity_skyline::prelude::*;

fn main() {
    // A database of five small labeled graphs. Labels are interned in the
    // database's vocabulary, so everything stays comparable.
    let mut db = GraphDatabase::new();
    db.add("ring", |b| {
        b.vertices(&["a", "b", "c", "d"], "C")
            .cycle(&["a", "b", "c", "d"], "-")
    })
    .unwrap();
    db.add("chain", |b| {
        b.vertices(&["a", "b", "c", "d"], "C")
            .path(&["a", "b", "c", "d"], "-")
    })
    .unwrap();
    db.add("branched", |b| {
        b.vertices(&["a", "b", "c", "d"], "C")
            .path(&["a", "b", "c"], "-")
            .edge("b", "d", "-")
    })
    .unwrap();
    db.add("with-oxygen", |b| {
        b.vertices(&["a", "b", "c"], "C")
            .vertex("o", "O")
            .path(&["a", "b", "c"], "-")
            .edge("c", "o", "=")
    })
    .unwrap();
    db.add("tiny", |b| b.vertices(&["a", "b"], "C").edge("a", "b", "-"))
        .unwrap();

    // The query: a 4-carbon chain.
    let query = db
        .build_query("query", |b| {
            b.vertices(&["w", "x", "y", "z"], "C")
                .path(&["w", "x", "y", "z"], "-")
        })
        .unwrap();

    // Compound similarity = (DistEd, DistMcs, DistGu); the skyline keeps
    // every graph not dominated on all three at once.
    let options = QueryOptions::default();
    let result = graph_similarity_skyline(&db, &query, &options);

    println!("GCS vectors (lower is more similar):");
    println!(
        "{:<14} {:>8} {:>8} {:>8}  in skyline?",
        "graph", "DistEd", "DistMcs", "DistGu"
    );
    for (i, gcs) in result.gcs.iter().enumerate() {
        let id = GraphId(i);
        println!(
            "{:<14} {:>8.2} {:>8.2} {:>8.2}  {}",
            db.get(id).name(),
            gcs.values[0],
            gcs.values[1],
            gcs.values[2],
            if result.contains(id) { "yes" } else { "no" }
        );
    }

    println!("\nSimilarity skyline:");
    for id in &result.skyline {
        println!("  {}", db.get(*id).name());
    }
    println!("\nWhy the others were excluded:");
    for w in &result.dominated {
        println!(
            "  {} is dominated by {}",
            db.get(w.graph).name(),
            db.get(w.dominator).name()
        );
    }

    // Contrast with a classical single-measure top-2.
    let top2 = top_k_by_measure(&db, &query, MeasureKind::EditDistance, 2, 1);
    println!("\nTop-2 by edit distance alone:");
    for s in &top2 {
        println!("  {} (DistEd = {})", db.get(s.id).name(), s.distance);
    }

    // Diversity refinement: the 2 most mutually-dissimilar skyline members.
    if result.skyline.len() > 2 {
        let refined = refine_skyline(&db, &result.skyline, 2, &RefineOptions::default())
            .expect("skyline is small enough for exact refinement");
        println!("\nMost diverse pair of skyline answers:");
        for id in &refined.selected {
            println!("  {}", db.get(*id).name());
        }
    }
}
