//! Property-based tests for the GED solvers.

use gss_ged::{bipartite::bipartite_ged, edit_path_for_mapping, exact_ged, CostModel, GedOptions};
use gss_graph::{random_graph, Rng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn scaling_all_costs_scales_the_distance(
        s1 in any::<u64>(), s2 in any::<u64>(),
        n1 in 1usize..5, n2 in 1usize..5,
        factor in 2u32..5,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n1, n1 + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n2, n2 + 1, 3, 2);
        let base = exact_ged(&g1, &g2, &GedOptions::default()).cost;
        let f = f64::from(factor);
        let scaled_model = CostModel {
            vertex_ins: f, vertex_del: f, vertex_rel: f,
            edge_ins: f, edge_del: f, edge_rel: f,
        };
        let scaled = exact_ged(
            &g1, &g2,
            &GedOptions { cost: scaled_model, ..Default::default() },
        ).cost;
        prop_assert!((scaled - f * base).abs() < 1e-9, "{scaled} != {f} * {base}");
    }

    #[test]
    fn edit_path_length_equals_cost_under_uniform_model(
        s1 in any::<u64>(), s2 in any::<u64>(),
        n1 in 1usize..5, n2 in 1usize..5,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n1, n1 + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n2, n2 + 1, 3, 2);
        let r = exact_ged(&g1, &g2, &GedOptions::default());
        let ops = edit_path_for_mapping(&g1, &g2, &r.mapping);
        prop_assert_eq!(ops.len() as f64, r.cost, "uniform cost = op count");
    }

    #[test]
    fn solver_sandwich_under_weighted_costs(
        s1 in any::<u64>(), s2 in any::<u64>(), n in 1usize..5,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n, n + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n + 1, n + 2, 3, 2);
        let cost = CostModel::structure_weighted(3.0);
        let exact = exact_ged(&g1, &g2, &GedOptions { cost, ..Default::default() }).cost;
        let bip = bipartite_ged(&g1, &g2, &cost).cost;
        prop_assert!(bip >= exact - 1e-9);
    }

    #[test]
    fn symmetry_under_symmetric_models(
        s1 in any::<u64>(), s2 in any::<u64>(), n in 1usize..5, w in 1u32..4,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n, n, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n + 1, n + 1, 3, 2);
        let cost = CostModel::structure_weighted(f64::from(w));
        let d12 = exact_ged(&g1, &g2, &GedOptions { cost, ..Default::default() }).cost;
        let d21 = exact_ged(&g2, &g1, &GedOptions { cost, ..Default::default() }).cost;
        prop_assert_eq!(d12, d21, "insert/delete symmetric model ⟹ symmetric GED");
    }

    #[test]
    fn warm_start_never_changes_the_answer(
        s1 in any::<u64>(), s2 in any::<u64>(), n in 1usize..5,
    ) {
        let g1 = random_graph(&mut Rng::seed_from_u64(s1), n, n + 1, 3, 2);
        let g2 = random_graph(&mut Rng::seed_from_u64(s2), n, n + 2, 3, 2);
        let cold = exact_ged(&g1, &g2, &GedOptions::default());
        let warm_map = bipartite_ged(&g1, &g2, &CostModel::uniform()).mapping;
        let warm = exact_ged(
            &g1, &g2,
            &GedOptions { warm_start: Some(warm_map), ..Default::default() },
        );
        prop_assert_eq!(cold.cost, warm.cost);
        prop_assert!(warm.expanded <= cold.expanded, "warm start cannot expand more");
    }
}
