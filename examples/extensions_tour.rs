//! Tour of the extensions this library adds beyond the paper:
//!
//! * a fourth GCS dimension, the **label-histogram distance** (`DistLH`);
//! * **non-uniform edit-cost models** and their effect on the skyline.
//!
//! Run with: `cargo run --example extensions_tour`

use similarity_skyline::datasets::paper::figure3_database;
use similarity_skyline::prelude::*;

fn main() {
    let data = figure3_database();
    let mut db = GraphDatabase::from_parts(data.vocab, data.graphs);
    let q = data.query;

    // --- a fourth dimension: DistLH --------------------------------------
    let four_dim = QueryOptions {
        measures: vec![
            MeasureKind::EditDistance,
            MeasureKind::Mcs,
            MeasureKind::Gu,
            MeasureKind::LabelHistogram,
        ],
        ..Default::default()
    };
    let r3 = graph_similarity_skyline(&db, &q, &QueryOptions::default());
    let r4 = graph_similarity_skyline(&db, &q, &four_dim);
    println!(
        "skyline with the paper's 3 measures : {} members",
        r3.skyline.len()
    );
    println!(
        "skyline with DistLH as 4th measure  : {} members",
        r4.skyline.len()
    );
    println!("  DistLH is a structure-free O(|V|+|E|) histogram distance — extra");
    println!("  dimensions can admit new Pareto-optimal answers, never invalidate");
    println!("  strictly-better ones.\n");

    // --- cost models ------------------------------------------------------
    println!("edit distance of g5 vs q under different cost models:");
    let g5 = db.get(GraphId(4)).clone();
    for (name, cost) in [
        ("uniform (paper)", CostModel::uniform()),
        ("structure 2x", CostModel::structure_weighted(2.0)),
        ("structure 4x", CostModel::structure_weighted(4.0)),
    ] {
        let r = similarity_skyline::ged::exact_ged(
            &g5,
            &q,
            &similarity_skyline::ged::GedOptions {
                cost,
                ..Default::default()
            },
        );
        println!("  {name:<18} GED = {}", r.cost);
    }
    println!("  (g5 differs from q by one relabel and two insertions, so its GED");
    println!("  grows as 3, 5, 9 with the structural weight.)\n");

    // --- the gss CLI ------------------------------------------------------
    println!("the same analyses are scriptable via the `gss` binary:");
    println!("  cargo run -p gss-cli --bin gss -- query --db my.gdb --query-name q --refine 2");
    let _ = db.vocab_mut(); // keep the database mutable-borrow-checked in the example
}
