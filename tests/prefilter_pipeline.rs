//! Property tests for the filter-and-verify pipeline.
//!
//! * **Admissibility** — every prefilter lower bound is ≤ its exact
//!   distance on random synthetic graphs (lower bounds that could exceed
//!   the exact value would make pruning unsound);
//! * **Short-circuit** — planted isomorphic copies of the query resolve
//!   without a solver and leave the answer unchanged.
//!
//! Plan equivalence across workloads and threads is checked by
//! the parity lattice (`tests/parity.rs`).

mod support;

use proptest::prelude::*;
use similarity_skyline::core::compute_primitives;
use similarity_skyline::core::prefilter::{summarize, PrefilterContext};
use similarity_skyline::datasets::synth::{perturb, random_connected_graph, RandomGraphConfig};
use similarity_skyline::datasets::workload::WorkloadKind;
use similarity_skyline::graph::random_graph;
use similarity_skyline::prelude::*;
use support::{build_workload, permuted};

const ALL_MEASURES: [MeasureKind; 5] = [
    MeasureKind::EditDistance,
    MeasureKind::NormalizedEditDistance,
    MeasureKind::Mcs,
    MeasureKind::Gu,
    MeasureKind::LabelHistogram,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lower_bounds_are_admissible_on_random_graphs(
        seed in any::<u64>(),
        n1 in 2usize..7,
        n2 in 2usize..7,
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let g1 = random_graph(&mut rng, n1, n1 + n1 / 2, 3, 2);
        let g2 = random_graph(&mut rng, n2, n2 + n2 / 2, 3, 2);
        let ctx = PrefilterContext::for_query(&g2, &SolverConfig::default(), true);
        let summary = summarize(&g1, &g2, &ALL_MEASURES, &ctx);
        let p = compute_primitives(&g1, &g2, &SolverConfig::default());
        for (i, m) in ALL_MEASURES.iter().enumerate() {
            let exact = m.from_primitives(&p);
            prop_assert!(
                summary.lower.values[i] <= exact + 1e-9,
                "{} lower bound {} exceeds exact {}",
                m.name(), summary.lower.values[i], exact
            );
        }
    }

    #[test]
    fn lower_bounds_are_admissible_on_perturbed_pairs(
        seed in any::<u64>(),
        n in 3usize..7,
        edits in 1usize..4,
    ) {
        // Perturbed pairs are the near-duplicate regime, where bounds are
        // tight and off-by-one unsoundness would actually show.
        let mut vocab = Vocabulary::new();
        let mut rng = Rng::seed_from_u64(seed);
        let cfg = RandomGraphConfig { vertices: n, edges: n + 1, ..Default::default() };
        let g1 = random_connected_graph("g1", &cfg, &mut vocab, &mut rng);
        let g2 = perturb(&g1, edits, &mut vocab, &mut rng, "P");
        let ctx = PrefilterContext::for_query(&g2, &SolverConfig::default(), true);
        let summary = summarize(&g1, &g2, &ALL_MEASURES, &ctx);
        let p = compute_primitives(&g1, &g2, &SolverConfig::default());
        for (i, m) in ALL_MEASURES.iter().enumerate() {
            prop_assert!(summary.lower.values[i] <= m.from_primitives(&p) + 1e-9, "{}", m.name());
        }
        if summary.isomorphic {
            // The short-circuit claims an all-zero exact vector; check it.
            for m in ALL_MEASURES {
                prop_assert_eq!(m.from_primitives(&p), 0.0);
            }
        }
    }

    #[test]
    fn permuted_duplicate_stays_equivalent(
        seed in any::<u64>(),
        size in 2usize..7,
    ) {
        let (mut db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        // The query with its vertex order reversed: same graph, different
        // encoding.
        let mut twin = permuted(&q, &(0..q.order()).rev().collect::<Vec<_>>());
        twin.set_name("twin");
        let copy = db.push(twin);
        let naive = graph_similarity_skyline(
            &db, &q, &QueryOptions { plan: Plan::Naive, ..QueryOptions::default() },
        );
        let pruned = graph_similarity_skyline(
            &db, &q, &QueryOptions { plan: Plan::Prefilter, ..QueryOptions::default() },
        );
        prop_assert_eq!(&pruned.skyline, &naive.skyline);
        prop_assert_eq!(&pruned.dominated, &naive.dominated);
        // The copy short-circuits and tops the skyline.
        prop_assert!(pruned.contains(copy));
        prop_assert!(pruned.pruning.expect("stats").short_circuited >= 1);
    }

    #[test]
    fn planted_duplicate_short_circuits_and_prunes(
        seed in any::<u64>(),
        size in 2usize..8,
    ) {
        let (mut db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let copy = db.push(q.clone());
        let r = graph_similarity_skyline(
            &db, &q, &QueryOptions { plan: Plan::Prefilter, ..QueryOptions::default() },
        );
        prop_assert!(r.contains(copy), "an exact duplicate is Pareto-optimal");
        let stats = r.pruning.expect("stats");
        prop_assert!(stats.short_circuited >= 1, "the planted copy must short-circuit");
        let naive =
            graph_similarity_skyline(&db, &q, &QueryOptions::default().with_plan(Plan::Naive));
        prop_assert_eq!(&r.skyline, &naive.skyline);
        prop_assert_eq!(&r.dominated, &naive.dominated);
    }
}
