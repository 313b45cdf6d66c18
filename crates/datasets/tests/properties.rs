//! Property-based tests for the generators and perturbation operators.

use gss_datasets::synth::{
    molecule_like_graph, perturb_typed, random_connected_graph, MoleculeConfig, PerturbationStyle,
    RandomGraphConfig,
};
use gss_graph::{algo, Rng, Vocabulary};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_graphs_are_connected_simple_and_sized(
        seed in any::<u64>(), n in 1usize..14, extra in 0usize..10,
    ) {
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = RandomGraphConfig { vertices: n, edges: n + extra, ..Default::default() };
        let g = random_connected_graph("g", &cfg, &mut vocab, &mut rng);
        prop_assert_eq!(g.order(), n);
        prop_assert!(algo::is_connected(&g));
        prop_assert!(g.size() <= n * n.saturating_sub(1) / 2);
        prop_assert_eq!(g.vertices().map(|v| g.degree(v)).sum::<usize>(), 2 * g.size());
    }

    #[test]
    fn molecules_are_connected_with_chemical_labels(
        seed in any::<u64>(), atoms in 1usize..16,
    ) {
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = MoleculeConfig { atoms, ..Default::default() };
        let m = molecule_like_graph("m", &cfg, &mut vocab, &mut rng);
        prop_assert_eq!(m.order(), atoms);
        prop_assert!(algo::is_connected(&m));
        for v in m.vertices() {
            let name = vocab.name(m.vertex_label(v)).expect("interned");
            prop_assert!(["C", "N", "O", "S"].contains(&name));
        }
    }

    #[test]
    fn perturbation_styles_have_their_advertised_shape(
        seed in any::<u64>(), edits in 1usize..4,
    ) {
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = RandomGraphConfig { vertices: 6, edges: 8, ..Default::default() };
        let base = random_connected_graph("base", &cfg, &mut vocab, &mut rng);

        let grown = perturb_typed(&base, PerturbationStyle::Grow, edits, &mut vocab, &mut rng, "G");
        prop_assert!(grown.size() >= base.size(), "grow never removes edges");
        prop_assert_eq!(grown.order(), base.order());

        let shrunk = perturb_typed(&base, PerturbationStyle::Shrink, edits, &mut vocab, &mut rng, "S");
        prop_assert!(shrunk.size() <= base.size(), "shrink never adds edges");

        let relabeled = perturb_typed(&base, PerturbationStyle::Relabel, edits, &mut vocab, &mut rng, "R");
        prop_assert_eq!(relabeled.size(), base.size(), "relabel keeps edge count");
        prop_assert_eq!(relabeled.order(), base.order());
    }

    #[test]
    fn perturbation_bounds_ged_by_edit_count(
        seed in any::<u64>(), edits in 0usize..4,
    ) {
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = RandomGraphConfig { vertices: 5, edges: 6, ..Default::default() };
        let base = random_connected_graph("base", &cfg, &mut vocab, &mut rng);
        for style in [
            PerturbationStyle::Grow,
            PerturbationStyle::Shrink,
            PerturbationStyle::Relabel,
            PerturbationStyle::Mixed,
        ] {
            let p = perturb_typed(&base, style, edits, &mut vocab, &mut rng, "P");
            let d = gss_ged::ged(&base, &p);
            prop_assert!(
                d <= edits as f64 + 1e-9,
                "{style:?} with {edits} edits gave GED {d}"
            );
        }
    }
}
