//! Property-based tests of the measure layer.
//!
//! The paper cites metricity results for its measures: uniform GED is a
//! metric; `DistMcs` (Bunke & Shearer 1998) and `DistGu` (Wallis et al.
//! 2001) are metrics on connected graphs; `SimGu ≤ SimMcs` (Section IV-C).
//! These properties are exercised here on seeded G(n, m) random graphs
//! driven by proptest-chosen seeds.

use proptest::prelude::*;
use similarity_skyline::core::{compute_primitives, MeasureKind, SolverConfig};
use similarity_skyline::graph::random_graph;
use similarity_skyline::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ged_identity_symmetry_nonnegativity(
        s1 in any::<u64>(), s2 in any::<u64>(),
        n1 in 1usize..6, n2 in 1usize..6,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n1, n1 + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n2, n2 + 1, 3, 2);
        let d12 = ged(&g1, &g2);
        let d21 = ged(&g2, &g1);
        prop_assert!(d12 >= 0.0);
        prop_assert_eq!(d12, d21, "symmetry");
        prop_assert_eq!(ged(&g1, &g1), 0.0, "identity");
        // d = 0 ⟺ isomorphic (uniform costs).
        prop_assert_eq!(d12 == 0.0, are_isomorphic(&g1, &g2));
    }

    #[test]
    fn ged_triangle_inequality(
        s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>(),
        n in 1usize..5,
    ) {
        let a = random_graph(&mut Rng::seed_from_u64(s1), n, n, 3, 2);
        let b = random_graph(&mut Rng::seed_from_u64(s2), n + 1, n + 1, 3, 2);
        let c = random_graph(&mut Rng::seed_from_u64(s3), n, n + 2, 3, 2);
        let ab = ged(&a, &b);
        let bc = ged(&b, &c);
        let ac = ged(&a, &c);
        prop_assert!(ac <= ab + bc + 1e-9, "triangle: {} > {} + {}", ac, ab, bc);
    }

    #[test]
    fn mcs_bounds_and_normalization(
        s1 in any::<u64>(), s2 in any::<u64>(),
        n1 in 2usize..6, n2 in 2usize..6,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n1, n1 + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n2, n2 + 1, 3, 2);
        let m = mcs_edge_size(&g1, &g2);
        prop_assert!(m <= g1.size().min(g2.size()), "|mcs| ≤ min sizes");
        prop_assert_eq!(m, mcs_edge_size(&g2, &g1), "mcs size symmetric");

        let p = compute_primitives(&g1, &g2, &SolverConfig::default());
        let dist_mcs = MeasureKind::Mcs.from_primitives(&p);
        let dist_gu = MeasureKind::Gu.from_primitives(&p);
        let dist_ned = MeasureKind::NormalizedEditDistance.from_primitives(&p);
        prop_assert!((0.0..=1.0).contains(&dist_mcs));
        prop_assert!((0.0..=1.0).contains(&dist_gu));
        prop_assert!((0.0..1.0).contains(&dist_ned));
        // Section IV-C: SimGu ≤ SimMcs ⟺ DistGu ≥ DistMcs.
        prop_assert!(dist_gu >= dist_mcs - 1e-12, "DistGu ≥ DistMcs");
    }

    #[test]
    fn mcs_of_connected_graph_with_itself_is_its_size(
        s in any::<u64>(), n in 2usize..6,
    ) {
        let g = random_graph(&mut Rng::seed_from_u64(s), n, n + 1, 3, 2);
        if !similarity_skyline::graph::algo::is_connected(&g) {
            return Ok(());
        }
        prop_assert_eq!(mcs_edge_size(&g, &g), g.size());
        let p = compute_primitives(&g, &g, &SolverConfig::default());
        prop_assert_eq!(MeasureKind::Mcs.from_primitives(&p), 0.0);
        prop_assert_eq!(MeasureKind::Gu.from_primitives(&p), 0.0);
    }

    #[test]
    fn ged_lower_bound_is_admissible(
        s1 in any::<u64>(), s2 in any::<u64>(), n in 1usize..6,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n, n + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n + 1, n + 2, 3, 2);
        prop_assert!(similarity_skyline::ged::lower_bound(&g1, &g2) <= ged(&g1, &g2) + 1e-9);
    }

    #[test]
    fn subgraph_relation_implies_mcs_equals_pattern_size(
        s in any::<u64>(), n in 2usize..6,
    ) {
        let host = random_graph(&mut Rng::seed_from_u64(s), n + 2, n + 4, 3, 2);
        // Use the host's own connected subgraph: drop nothing — host vs host
        // is trivial, so instead check: q ⊆ host ⟹ |mcs(q, host)| = |q| for
        // a connected pattern extracted from the host.
        let edges: Vec<_> = host.edges().take(2).collect();
        let sub = host.edge_induced_subgraph(&edges);
        if similarity_skyline::graph::algo::is_connected(&sub) && sub.size() > 0 {
            prop_assert!(is_subgraph_isomorphic(&sub, &host));
            prop_assert_eq!(mcs_edge_size(&sub, &host), sub.size());
        }
    }
}
