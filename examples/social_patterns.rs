//! Social-network pattern retrieval — another application class from the
//! paper's introduction (community mining, social networks).
//!
//! Vertices are people labeled by role, edges by relationship kind. We look
//! for interaction patterns similar to a "manager brokering two teams"
//! query, under approximate solvers (bipartite GED + greedy MCS) as one
//! would on larger graphs, and check how the approximation changes the
//! skyline versus the exact solvers — the A2 ablation in miniature.
//!
//! Run with: `cargo run --example social_patterns`

use similarity_skyline::prelude::*;

fn team(db: &mut GraphDatabase, name: &str, members: usize, bridged: bool) -> GraphId {
    db.add(name, |mut b| {
        b = b.vertex("mgr", "manager");
        for i in 0..members {
            let who = format!("e{i}");
            b = b.vertex(&who, "engineer").edge("mgr", &who, "reports");
        }
        // Engineers collaborate in a chain.
        for i in 1..members {
            b = b.edge(&format!("e{}", i - 1), &format!("e{i}"), "collab");
        }
        if bridged {
            b = b.vertex("ext", "manager").edge("mgr", "ext", "peers");
        }
        b
    })
    .unwrap()
}

fn main() {
    let mut db = GraphDatabase::new();
    team(&mut db, "team-of-3", 3, false);
    team(&mut db, "team-of-4", 4, false);
    team(&mut db, "bridged-3", 3, true);
    team(&mut db, "bridged-5", 5, true);
    db.add("committee", |b| {
        b.vertices(&["m1", "m2", "m3"], "manager")
            .cycle(&["m1", "m2", "m3"], "peers")
    })
    .unwrap();
    db.add("pair", |b| {
        b.vertex("mgr", "manager")
            .vertex("e", "engineer")
            .edge("mgr", "e", "reports")
    })
    .unwrap();

    let query = db
        .build_query("query", |b| {
            b.vertex("mgr", "manager")
                .vertices(&["a", "b", "c"], "engineer")
                .edge("mgr", "a", "reports")
                .edge("mgr", "b", "reports")
                .edge("mgr", "c", "reports")
                .edge("a", "b", "collab")
                .vertex("peer", "manager")
                .edge("mgr", "peer", "peers")
        })
        .unwrap();

    let exact = graph_similarity_skyline(&db, &query, &QueryOptions::default());
    let approx = graph_similarity_skyline(
        &db,
        &query,
        &QueryOptions {
            solvers: SolverConfig::Approx,
            ..QueryOptions::default()
        },
    );

    println!("query: manager with three reports (two collaborating) + peer manager\n");
    println!(
        "{:<12} {:>7} {:>8} {:>8}   {:<10} {:<10}",
        "graph", "DistEd", "DistMcs", "DistGu", "exact-sky", "approx-sky"
    );
    for (i, gcs) in exact.gcs.iter().enumerate() {
        let id = GraphId(i);
        println!(
            "{:<12} {:>7.1} {:>8.3} {:>8.3}   {:<10} {:<10}",
            db.get(id).name(),
            gcs.values[0],
            gcs.values[1],
            gcs.values[2],
            if exact.contains(id) { "yes" } else { "-" },
            if approx.contains(id) { "yes" } else { "-" },
        );
    }

    let flips = (0..db.len())
        .filter(|&i| exact.contains(GraphId(i)) != approx.contains(GraphId(i)))
        .count();
    println!("\nskyline membership flips under approximate solvers: {flips}");
    println!("(approximate GED can only over-estimate, approximate MCS only under-estimate —");
    println!(" both push borderline graphs out of, or into, the skyline.)");
}
