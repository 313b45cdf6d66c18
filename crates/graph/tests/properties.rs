//! Property-based tests for the graph substrate.

use gss_graph::algo::{
    bfs_distances, bfs_order, connected_components, degree_sequence, dfs_order, is_connected,
    largest_connected_edge_component,
};
use gss_graph::{random_graph, Label, Rng, VertexId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_graph_is_a_seeded_simple_g_n_m(seed in any::<u64>(), n in 0usize..9, m in 0usize..40) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 3, 2);
        let again = random_graph(&mut Rng::seed_from_u64(seed), n, m, 3, 2);
        prop_assert_eq!(format!("{g:?}"), format!("{again:?}"), "deterministic per seed");
        prop_assert_eq!(g.order(), n);
        // Distinct pairs always exist up to the complete graph, so the
        // edge target is always reached.
        prop_assert_eq!(g.size(), m.min(n * n.saturating_sub(1) / 2));
        prop_assert!(g.vertices().all(|v| g.vertex_label(v) < Label(3)));
        prop_assert!(g.edges().all(|e| (Label(3)..Label(5)).contains(&g.edge_label(e))));
        let mut pairs: Vec<_> = g.edges().map(|e| g.edge(e).key()).collect();
        prop_assert!(pairs.iter().all(|(u, v)| u != v), "no loop");
        pairs.sort();
        pairs.dedup();
        prop_assert_eq!(pairs.len(), g.size(), "no multi-edge");
    }

    #[test]
    fn handshake_lemma(seed in any::<u64>(), n in 1usize..15, m in 0usize..20) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 4, 2);
        prop_assert_eq!(g.degree_sum(), 2 * g.size());
        let ds = degree_sequence(&g);
        prop_assert_eq!(ds.iter().sum::<usize>(), 2 * g.size());
        // Degree sequence is non-increasing.
        for w in ds.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn components_partition_vertices(seed in any::<u64>(), n in 1usize..15, m in 0usize..20) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 4, 2);
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.order());
        let mut all: Vec<VertexId> = comps.iter().flatten().copied().collect();
        all.sort();
        all.dedup();
        prop_assert_eq!(all.len(), g.order(), "no vertex in two components");
        prop_assert_eq!(comps.len() == 1, is_connected(&g));
        // Endpoints of every edge share a component.
        for e in g.edges() {
            let edge = g.edge(e);
            let cu = comps.iter().position(|c| c.contains(&edge.u));
            let cv = comps.iter().position(|c| c.contains(&edge.v));
            prop_assert_eq!(cu, cv);
        }
    }

    #[test]
    fn traversals_cover_exactly_the_component(seed in any::<u64>(), n in 1usize..12, m in 0usize..16) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 4, 2);
        let comps = connected_components(&g);
        let start = VertexId::new(0);
        let comp0 = comps.iter().find(|c| c.contains(&start)).expect("vertex 0 exists");
        let mut bfs = bfs_order(&g, start);
        let mut dfs = dfs_order(&g, start);
        bfs.sort();
        dfs.sort();
        prop_assert_eq!(&bfs, comp0);
        prop_assert_eq!(&dfs, comp0);
    }

    #[test]
    fn bfs_distance_is_a_shortest_path_metric(seed in any::<u64>(), n in 2usize..10, m in 1usize..14) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 4, 2);
        let d0 = bfs_distances(&g, VertexId::new(0));
        prop_assert_eq!(d0[0], Some(0));
        // Distances never jump by more than 1 across an edge.
        for e in g.edges() {
            let edge = g.edge(e);
            match (d0[edge.u.index()], d0[edge.v.index()]) {
                (Some(a), Some(b)) => {
                    prop_assert!(a.abs_diff(b) <= 1, "edge endpoints differ by ≤ 1 hop");
                }
                (None, None) => {}
                _ => prop_assert!(false, "one endpoint reachable, the other not"),
            }
        }
    }

    #[test]
    fn full_edge_set_component_matches_components(seed in any::<u64>(), n in 1usize..12, m in 0usize..16) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 4, 2);
        let all: Vec<_> = g.edges().collect();
        let largest = largest_connected_edge_component(&g, &all);
        // Compare against component-wise edge counts.
        let comps = connected_components(&g);
        let expected = comps
            .iter()
            .map(|c| {
                g.edges()
                    .filter(|&e| c.contains(&g.edge(e).u))
                    .count()
            })
            .max()
            .unwrap_or(0);
        prop_assert_eq!(largest, expected);
    }

    #[test]
    fn without_edges_then_subgraph_roundtrip(seed in any::<u64>(), n in 2usize..10, m in 1usize..12) {
        let g = random_graph(&mut Rng::seed_from_u64(seed), n, m, 4, 2);
        if g.size() == 0 {
            return Ok(());
        }
        let victim = gss_graph::EdgeId::new(0);
        let removed = g.without_edges(&[victim]);
        prop_assert_eq!(removed.size(), g.size() - 1);
        prop_assert_eq!(removed.order(), g.order());
        let edge = g.edge(victim);
        prop_assert!(!removed.has_edge(edge.u, edge.v) || g.edge_between(edge.u, edge.v).is_none());
        // Keeping every edge reproduces the same structure.
        let all: Vec<_> = g.edges().collect();
        let kept = g.edge_subgraph(&all);
        prop_assert_eq!(kept.size(), g.size());
        prop_assert_eq!(kept.order(), g.order());
    }
}
