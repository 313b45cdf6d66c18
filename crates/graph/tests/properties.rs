//! Property-based tests for the graph substrate.

use gss_graph::algo::{connected_components, is_connected, largest_connected_edge_component};
use gss_graph::stats::degree_sequence;
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
        let ds = degree_sequence(&g);
        prop_assert_eq!(ds.iter().sum::<usize>(), 2 * g.size());
        // Degree sequence is non-decreasing.
        for w in ds.windows(2) {
            prop_assert!(w[0] <= w[1]);
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
    }
}
