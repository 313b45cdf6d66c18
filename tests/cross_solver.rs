//! Cross-solver consistency: every bound or alternative solver must bound
//! (or match) its exact counterpart, across crates, on deterministic
//! random inputs. The kernels' parity with their retained reference solvers
//! and their recorded expansion baselines are unit tests of `gss-ged` and
//! `gss-mcs`, where the references are compiled.

mod support;

use similarity_skyline::datasets::synth::{
    molecule_like_graph, perturb, random_connected_graph, MoleculeConfig, RandomGraphConfig,
};
use similarity_skyline::ged::{bipartite::bipartite_ged, exact_ged, GedOptions};
use similarity_skyline::mcs::oracle::mcs_edges_by_definition;
use similarity_skyline::prelude::*;
use support::permuted;

fn molecule_pairs(count: usize) -> Vec<(Vocabulary, Graph, Graph)> {
    (0..count)
        .map(|i| {
            let mut vocab = Vocabulary::new();
            let mut rng = Rng::seed_from_u64(0xCAFE + i as u64);
            let g1 = molecule_like_graph(
                "m1",
                &MoleculeConfig {
                    atoms: 6,
                    ..Default::default()
                },
                &mut vocab,
                &mut rng,
            );
            let g2 = perturb(&g1, 1 + i % 4, &mut vocab, &mut rng, "X");
            (vocab, g1, g2)
        })
        .collect()
}

#[test]
fn ged_solver_sandwich_on_molecules() {
    for (i, (_v, g1, g2)) in molecule_pairs(12).into_iter().enumerate() {
        let cost = CostModel::uniform();
        let exact = exact_ged(&g1, &g2, &GedOptions::default()).cost;
        let lb = similarity_skyline::ged::lower_bound(&g1, &g2);
        let bip = bipartite_ged(&g1, &g2, &cost).cost;
        assert!(
            lb <= exact + 1e-9,
            "case {i}: lower bound {lb} > exact {exact}"
        );
        assert!(
            bip >= exact - 1e-9,
            "case {i}: bipartite {bip} < exact {exact}"
        );
    }
}

#[test]
fn mcs_exact_matches_definition_oracle_on_molecules() {
    for (i, (_v, g1, g2)) in molecule_pairs(8).into_iter().enumerate() {
        let fast = mcs_edge_size(&g1, &g2);
        let slow = mcs_edges_by_definition(&g1, &g2);
        assert_eq!(fast, slow, "case {i}");
    }
}

#[test]
fn zero_ged_iff_isomorphic() {
    let mut vocab = Vocabulary::new();
    let mut rng = Rng::seed_from_u64(0x150);
    for i in 0..10 {
        let cfg = RandomGraphConfig {
            vertices: 4 + i % 3,
            edges: 5,
            ..Default::default()
        };
        let g1 = random_connected_graph("g1", &cfg, &mut vocab, &mut rng);
        // A structurally identical copy entered in a different vertex order.
        let mut order: Vec<usize> = (0..g1.order()).collect();
        rng.shuffle(&mut order);
        let g2 = permuted(&g1, &order);
        assert!(
            are_isomorphic(&g1, &g2),
            "case {i}: permuted copy must be isomorphic"
        );
        assert_eq!(ged(&g1, &g2), 0.0, "case {i}: isomorphic ⟹ GED 0");
        // And a single relabel breaks both.
        let mut g3 = g2.clone();
        let fresh = vocab.intern("FRESH");
        g3.relabel_vertex(similarity_skyline::graph::VertexId::new(0), fresh)
            .unwrap();
        assert!(!are_isomorphic(&g1, &g3));
        assert!(ged(&g1, &g3) >= 1.0);
    }
}

#[test]
fn vf2_embedding_consistency_with_mcs() {
    // If the pattern embeds, |mcs| equals the pattern size; otherwise it is
    // strictly smaller (for connected patterns).
    let mut vocab = Vocabulary::new();
    let mut rng = Rng::seed_from_u64(0xADD);
    for i in 0..10 {
        let host_cfg = RandomGraphConfig {
            vertices: 7,
            edges: 10,
            ..Default::default()
        };
        let host = random_connected_graph("host", &host_cfg, &mut vocab, &mut rng);
        let pat_cfg = RandomGraphConfig {
            vertices: 3,
            edges: 3,
            ..Default::default()
        };
        let pattern = random_connected_graph("pat", &pat_cfg, &mut vocab, &mut rng);
        let m = mcs_edge_size(&pattern, &host);
        if is_subgraph_isomorphic(&pattern, &host) {
            assert_eq!(
                m,
                pattern.size(),
                "case {i}: embedded pattern is its own mcs"
            );
        } else {
            assert!(
                m < pattern.size(),
                "case {i}: non-embeddable pattern must lose edges"
            );
        }
    }
}
