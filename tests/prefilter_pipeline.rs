//! Property tests for the filter-and-verify pipeline.
//!
//! Two families of invariants:
//!
//! 1. **Admissibility** — every prefilter lower bound is ≤ its exact
//!    distance on random synthetic graphs (lower bounds that could exceed
//!    the exact value would make pruning unsound);
//! 2. **Equivalence** — the pruned scan returns *identical* skylines and
//!    domination witnesses to the naive scan, across workload kinds, thread
//!    counts and solver configurations.

use proptest::prelude::*;
use similarity_skyline::core::prefilter::{summarize, PrefilterContext};
use similarity_skyline::core::{compute_primitives, graph_similarity_skyline_batch};
use similarity_skyline::datasets::synth::{perturb, random_connected_graph, RandomGraphConfig};
use similarity_skyline::datasets::workload::{Workload, WorkloadConfig, WorkloadKind};
use similarity_skyline::prelude::*;

const ALL_MEASURES: [MeasureKind; 5] = [
    MeasureKind::EditDistance,
    MeasureKind::NormalizedEditDistance,
    MeasureKind::Mcs,
    MeasureKind::Gu,
    MeasureKind::LabelHistogram,
];

fn random_pair(seed: u64, n1: usize, n2: usize) -> (Graph, Graph) {
    let mut vocab = Vocabulary::new();
    let mut rng = Rng::seed_from_u64(seed);
    let cfg1 = RandomGraphConfig {
        vertices: n1,
        edges: n1 + n1 / 2,
        ..Default::default()
    };
    let cfg2 = RandomGraphConfig {
        vertices: n2,
        edges: n2 + n2 / 2,
        ..Default::default()
    };
    let g1 = random_connected_graph("g1", &cfg1, &mut vocab, &mut rng);
    let g2 = random_connected_graph("g2", &cfg2, &mut vocab, &mut rng);
    (g1, g2)
}

/// An isomorphic copy of `g` with the vertex order reversed: same graph,
/// different encoding — exactly what the WL + VF2 short-circuit must
/// recognize and what approximate solvers may still score as nonzero.
fn permuted_copy(g: &Graph, name: &str) -> Graph {
    use similarity_skyline::graph::VertexId;
    let n = g.order();
    let mut h = Graph::new(name);
    for i in (0..n).rev() {
        h.add_vertex(g.vertex_label(VertexId::new(i)));
    }
    let newid = |old: VertexId| VertexId::new(n - 1 - old.index());
    for e in g.edges() {
        let edge = g.edge(e);
        h.add_edge(newid(edge.u), newid(edge.v), edge.label)
            .expect("copy of a simple graph stays simple");
    }
    h
}

fn build_workload(seed: u64, size: usize, kind: WorkloadKind) -> (GraphDatabase, Graph) {
    let cfg = WorkloadConfig {
        kind,
        database_size: size,
        graph_vertices: 5,
        related_fraction: 0.5,
        max_edits: 3,
        seed,
    };
    let w = Workload::generate(&cfg);
    (GraphDatabase::from_parts(w.vocab, w.graphs), w.query)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn lower_bounds_are_admissible_on_random_graphs(
        seed in any::<u64>(),
        n1 in 2usize..7,
        n2 in 2usize..7,
    ) {
        let (g1, g2) = random_pair(seed, n1, n2);
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
    fn pruned_scan_equals_naive_scan(
        seed in any::<u64>(),
        size in 2usize..10,
        molecule in any::<bool>(),
        threads in 1usize..4,
    ) {
        let kind = if molecule { WorkloadKind::Molecule } else { WorkloadKind::Uniform };
        let (db, q) = build_workload(seed, size, kind);
        let naive = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        let pruned = graph_similarity_skyline(
            &db, &q,
            &QueryOptions { plan: Plan::Prefilter, threads, ..QueryOptions::default() },
        );
        prop_assert_eq!(&pruned.skyline, &naive.skyline);
        prop_assert_eq!(&pruned.dominated, &naive.dominated, "witnesses must be identical");
        let stats = pruned.pruning.expect("prefilter stats");
        prop_assert_eq!(stats.verified + stats.pruned + stats.short_circuited, db.len());
        // Verified vectors are byte-identical to the naive scan's.
        for i in 0..db.len() {
            if pruned.is_exact(GraphId(i)) {
                prop_assert_eq!(&pruned.gcs[i], &naive.gcs[i]);
            }
        }
    }

    #[test]
    fn pruned_scan_equals_naive_scan_with_approx_solvers(
        seed in any::<u64>(),
        size in 2usize..8,
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let solvers = SolverConfig { ged: GedMode::Bipartite, mcs: McsMode::Greedy };
        let naive = graph_similarity_skyline(
            &db, &q, &QueryOptions { solvers, ..QueryOptions::default() },
        );
        let pruned = graph_similarity_skyline(
            &db, &q,
            &QueryOptions { solvers, plan: Plan::Prefilter, ..QueryOptions::default() },
        );
        prop_assert_eq!(&pruned.skyline, &naive.skyline);
        prop_assert_eq!(&pruned.dominated, &naive.dominated);
    }

    #[test]
    fn batch_api_matches_per_query_results(
        seed in any::<u64>(),
        size in 2usize..7,
        queries in 1usize..4,
        plan in any::<bool>().prop_map(|p| if p { Plan::Prefilter } else { Plan::Auto }),
    ) {
        let (db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        // Query set: the workload query plus some database members.
        let mut qs: Vec<Graph> = vec![q];
        for i in 0..queries.min(db.len()) {
            qs.push(db.get(GraphId(i)).clone());
        }
        let opts = QueryOptions { plan, threads: 3, ..QueryOptions::default() };
        let batch = graph_similarity_skyline_batch(&db, &qs, &opts);
        prop_assert_eq!(batch.len(), qs.len());
        let single_opts = QueryOptions { plan, ..QueryOptions::default() };
        for (i, query) in qs.iter().enumerate() {
            let single = graph_similarity_skyline(&db, query, &single_opts);
            prop_assert_eq!(&batch[i].skyline, &single.skyline, "query {}", i);
            prop_assert_eq!(&batch[i].dominated, &single.dominated, "query {}", i);
        }
    }

    #[test]
    fn permuted_duplicate_stays_equivalent_under_all_solvers(
        seed in any::<u64>(),
        size in 2usize..7,
    ) {
        // Regression: a vertex-permuted isomorphic copy of the query used to
        // short-circuit to an exact zero vector even under approximate
        // solvers, where the naive scan reports nonzero bipartite/greedy
        // values — changing the skyline. The short-circuit is now gated on
        // exact solvers.
        let (mut db, q) = build_workload(seed, size, WorkloadKind::Molecule);
        let copy = db.push(permuted_copy(&q, "twin"));
        for solvers in [
            SolverConfig::default(),
            SolverConfig { ged: GedMode::Bipartite, mcs: McsMode::Greedy },
            SolverConfig { ged: GedMode::Beam(4), mcs: McsMode::Greedy },
        ] {
            let naive = graph_similarity_skyline(
                &db, &q, &QueryOptions { solvers, ..QueryOptions::default() },
            );
            let pruned = graph_similarity_skyline(
                &db, &q,
                &QueryOptions { solvers, plan: Plan::Prefilter, ..QueryOptions::default() },
            );
            prop_assert_eq!(&pruned.skyline, &naive.skyline, "{:?}", solvers);
            prop_assert_eq!(&pruned.dominated, &naive.dominated, "{:?}", solvers);
        }
        // With exact solvers the copy short-circuits and tops the skyline.
        let r = graph_similarity_skyline(
            &db, &q, &QueryOptions { plan: Plan::Prefilter, ..QueryOptions::default() },
        );
        prop_assert!(r.contains(copy));
        prop_assert!(r.pruning.expect("stats").short_circuited >= 1);
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
        let naive = graph_similarity_skyline(&db, &q, &QueryOptions::default());
        prop_assert_eq!(&r.skyline, &naive.skyline);
        prop_assert_eq!(&r.dominated, &naive.dominated);
    }
}
