//! Social-network pattern retrieval — another application class from the
//! paper's introduction (community mining, social networks).
//!
//! Vertices are people labeled by role, edges by relationship kind. We look
//! for interaction patterns similar to a "manager brokering two teams"
//! query and list every candidate's exact GCS vector with its skyline
//! membership.
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

    // The naive plan solves every candidate, so every listed vector is
    // exact (a pruned plan reports lower bounds for pruned candidates).
    let options = QueryOptions {
        plan: Plan::Naive,
        ..QueryOptions::default()
    };
    let result = graph_similarity_skyline(&db, &query, &options);

    println!("query: manager with three reports (two collaborating) + peer manager\n");
    println!(
        "{:<12} {:>7} {:>8} {:>8}   skyline",
        "graph", "DistEd", "DistMcs", "DistGu"
    );
    for (i, gcs) in result.gcs.iter().enumerate() {
        let id = GraphId(i);
        println!(
            "{:<12} {:>7.1} {:>8.3} {:>8.3}   {}",
            db.get(id).name(),
            gcs.values[0],
            gcs.values[1],
            gcs.values[2],
            if result.contains(id) { "yes" } else { "-" },
        );
    }
    println!("\nskyline: {} of {} graphs", result.skyline.len(), db.len());
}
