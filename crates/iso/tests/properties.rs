//! Property-based tests for the VF2 matcher.

use gss_graph::{random_graph, Graph, Rng, VertexId};
use gss_iso::brute::exists_brute;
use gss_iso::{enumerate_embeddings, find_embedding, MatchMode};
use proptest::prelude::*;

/// Checks that an embedding really is a valid map under `mode`.
fn validate(pattern: &Graph, target: &Graph, map: &[VertexId], mode: MatchMode) -> bool {
    // Injective.
    let mut seen = vec![false; target.order()];
    for v in map {
        if seen[v.index()] {
            return false;
        }
        seen[v.index()] = true;
    }
    // Vertex labels preserved.
    for p in pattern.vertices() {
        if pattern.vertex_label(p) != target.vertex_label(map[p.index()]) {
            return false;
        }
    }
    // Pattern edges present with equal labels.
    for e in pattern.edges() {
        let edge = pattern.edge(e);
        match target.edge_between(map[edge.u.index()], map[edge.v.index()]) {
            Some(te) if target.edge_label(te) == edge.label => {}
            _ => return false,
        }
    }
    if mode == MatchMode::Isomorphism {
        // No extra target edges between images.
        for e in target.edges() {
            let edge = target.edge(e);
            let pu = map.iter().position(|&x| x == edge.u);
            let pv = map.iter().position(|&x| x == edge.v);
            if let (Some(pu), Some(pv)) = (pu, pv) {
                match pattern.edge_between(VertexId::new(pu), VertexId::new(pv)) {
                    Some(pe) if pattern.edge_label(pe) == edge.label => {}
                    _ => return false,
                }
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn vf2_agrees_with_brute_force(
        s1 in any::<u64>(), s2 in any::<u64>(),
        np in 1usize..5, extra in 0usize..3,
    ) {
        let pattern = random_graph(&mut Rng::seed_from_u64(s1), np, np + 1, 2, 2);
        let target = random_graph(&mut Rng::seed_from_u64(s2), np + extra, np + extra + 2, 2, 2);
        for mode in [MatchMode::SubgraphNonInduced, MatchMode::Isomorphism] {
            let fast = find_embedding(&pattern, &target, mode).is_some();
            let slow = exists_brute(&pattern, &target, mode);
            prop_assert_eq!(fast, slow, "mode {:?}", mode);
        }
    }

    #[test]
    fn returned_embeddings_are_valid_and_distinct(
        s1 in any::<u64>(), s2 in any::<u64>(), np in 1usize..4,
    ) {
        let pattern = random_graph(&mut Rng::seed_from_u64(s1), np, np, 2, 1);
        let target = random_graph(&mut Rng::seed_from_u64(s2), np + 2, np + 4, 2, 1);
        let mode = MatchMode::SubgraphNonInduced;
        let all = enumerate_embeddings(&pattern, &target, mode, 64);
        for emb in &all {
            prop_assert!(validate(&pattern, &target, &emb.map, mode), "invalid embedding");
        }
        // Distinct.
        for i in 0..all.len() {
            for j in i + 1..all.len() {
                prop_assert_ne!(&all[i].map, &all[j].map, "duplicate embedding");
            }
        }
    }

    #[test]
    fn self_isomorphism_always_exists(seed in any::<u64>(), n in 1usize..6) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, n + 1, 3, 2);
        let emb = find_embedding(&g, &g, MatchMode::Isomorphism);
        prop_assert!(emb.is_some(), "every graph is isomorphic to itself");
        prop_assert!(validate(&g, &g, &emb.unwrap().map, MatchMode::Isomorphism));
    }

    #[test]
    fn subgraph_relation_is_reflexive_and_composes(
        seed in any::<u64>(), n in 2usize..6,
    ) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, n + 2, 2, 1);
        prop_assert!(gss_iso::is_subgraph_isomorphic(&g, &g));
        // Removing an edge keeps the subgraph relation.
        if g.size() > 0 {
            let smaller = g.without_edges(&[gss_graph::EdgeId::new(0)]);
            prop_assert!(gss_iso::is_subgraph_isomorphic(&smaller, &g));
        }
    }
}
